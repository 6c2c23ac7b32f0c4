//! The wire protocol: versioned, length-prefixed JSON frames.
//!
//! Every frame is a 4-byte big-endian payload length followed by exactly
//! that many bytes of JSON (one `Request` or `Response`). The format is
//! deliberately boring:
//!
//! * **Self-delimiting** — the length prefix makes framing independent of
//!   payload content, so a reader never scans for delimiters inside JSON.
//! * **Bounded** — a header announcing more than [`MAX_FRAME_BYTES`] is
//!   rejected *before* any allocation, so a garbage header cannot make the
//!   daemon allocate gigabytes.
//! * **Versioned** — a connection opens with `Hello { proto }`; both ends
//!   speak exactly [`PROTO_VERSION`] and refuse anything else with a typed
//!   error instead of mis-parsing another dialect's frames.
//! * **Failure-typed** — decode problems are classified
//!   ([`FrameError::Closed`] / [`Truncated`] / [`TooLarge`] /
//!   [`Malformed`]) so the server can tell a clean disconnect from a
//!   protocol violation and count them separately.
//!
//! [`Truncated`]: FrameError::Truncated
//! [`TooLarge`]: FrameError::TooLarge
//! [`Malformed`]: FrameError::Malformed

use crate::metrics::ServeStats;
use etir::Etir;
use hardware::GpuSpec;
use serde::{Deserialize, Serialize};
use simgpu::{CompiledKernel, KernelReport};
use std::io::{Read, Write};
use tensor_expr::OpSpec;

/// Protocol version; bumped on any frame change. The handshake accepts
/// exactly this version: the server refuses any other `Hello` with
/// [`ErrKind::UnsupportedProto`], the client rejects any other echo.
pub const PROTO_VERSION: u32 = 11;

/// Upper bound on one frame's JSON payload (32 MiB — far above any real
/// schedule, far below an allocation-of-death).
pub const MAX_FRAME_BYTES: usize = 32 << 20;

/// Most entries a server packs into one [`Response::CacheEntries`] reply,
/// keeping repair frames far under [`MAX_FRAME_BYTES`]. Clients chunk
/// their [`Request::CachePull`]s to this size too.
pub const MAX_PULL_KEYS: usize = 256;

/// Client → server frames.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Request {
    /// Opens every connection: the client's protocol version and, when
    /// the server was started with `--token`, the shared secret. A server
    /// with a token configured refuses a missing or mismatched token with
    /// the typed [`ErrKind::Unauthorized`]; a server without one ignores
    /// the field.
    Hello { proto: u32, token: Option<String> },
    /// Liveness probe.
    Ping,
    /// Compile one operator for one device with the named method.
    /// `budget` optionally caps the construction's chain count (Gensor
    /// only; ignored by other methods and by cache hits, which return the
    /// banked schedule regardless of budget).
    Compile {
        op: OpSpec,
        gpu: GpuSpec,
        method: String,
        budget: Option<u32>,
    },
    /// Install an already-compiled kernel into this daemon's cache — the
    /// fabric's write-through and read-repair path. The kernel is
    /// verified before admission; an illegal schedule is refused with
    /// [`ErrKind::Rejected`] and never banked.
    Put {
        op: OpSpec,
        gpu: GpuSpec,
        method: String,
        // Boxed: a kernel dwarfs every other request, and `Request` is
        // passed around by value in the dispatch loop.
        kernel: Box<WireKernel>,
    },
    /// Set (or clear, with `trace_id == 0`) the connection's distributed
    /// trace context. The server stamps `trace` / `parent` onto every
    /// subsequent request's `serve.request` span until the context changes,
    /// so one compile fanned out over the fabric shows up as a single
    /// trace id across every daemon it touched. Answered inline with
    /// [`Response::TraceAck`]; one frame per context change, not per
    /// request.
    Trace { trace_id: u64, parent_span: u64 },
    /// Pull the daemon's flight-recorder ring (recent spans, points, and
    /// log lines). Answered inline with [`Response::TraceDumped`]; a
    /// daemon without a recorder installed answers with an empty dump
    /// rather than an error.
    TraceDump,
    /// The daemon's cache fingerprint digest: one root plus one
    /// XOR-fold per shard, so a repair pass can locate divergence without
    /// shipping key sets. Answered inline.
    CacheDigest,
    /// All cache keys resident in one digest shard. Used by repair
    /// after a shard digest mismatch to diff key sets.
    CacheKeys { shard: u32 },
    /// Fetch full entries for `keys` — the streaming half of
    /// anti-entropy repair. Keys absent from the cache are skipped, not
    /// errors. The server caps one reply at [`MAX_PULL_KEYS`] entries;
    /// clients chunk.
    CachePull { keys: Vec<schedcache::CacheKey> },
    /// Install raw repaired entries — the push half of
    /// operator-driven repair (`gensor cluster repair`). Every entry is
    /// re-verified under the remote-peer provenance policy before
    /// banking; rejected entries are counted, never installed.
    CachePush { entries: Vec<WireEntry> },
    /// Server counters + latency percentiles + cache statistics.
    Stats,
    /// The server's metric registry in Prometheus text exposition format.
    Metrics,
    /// Graceful drain: finish in-flight work, flush the store, exit.
    Shutdown,
}

/// Server → client frames.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Response {
    /// Handshake accepted; the server's protocol version.
    Hello { proto: u32 },
    /// Reply to [`Request::Ping`].
    Pong,
    /// A compiled schedule and how the shared cache answered.
    Compiled {
        outcome: WireOutcome,
        kernel: WireKernel,
    },
    /// Reply to [`Request::Put`]. `installed` is `true` when the kernel
    /// was admitted fresh, `false` when the key was already resident (the
    /// replica was up to date; nothing was replaced).
    PutDone { installed: bool },
    /// Reply to [`Request::Trace`]: the context is set for this
    /// connection.
    TraceAck,
    /// Reply to [`Request::TraceDump`]: the daemon's flight-recorder ring
    /// in wire form, oldest event first. `tag` is the recorder's tag (the
    /// daemon's listen port by convention); empty when no recorder is
    /// installed, alongside an empty `events`.
    TraceDumped { tag: String, events: Vec<WireEvent> },
    /// Reply to [`Request::CacheDigest`]: `root` is the XOR-fold over
    /// every resident key's hash, `shards` the per-shard folds, `count`
    /// the resident-entry count. Two caches with equal `root` and
    /// `count` hold the same key set (modulo astronomically unlikely
    /// XOR collisions).
    CacheDigest {
        root: u64,
        shards: Vec<u64>,
        count: u64,
    },
    /// Reply to [`Request::CacheKeys`].
    CacheKeys { keys: Vec<schedcache::CacheKey> },
    /// Reply to [`Request::CachePull`].
    CacheEntries { entries: Vec<WireEntry> },
    /// Reply to [`Request::CachePush`].
    CachePushed { installed: u64, rejected: u64 },
    /// Reply to [`Request::Stats`].
    Stats { server: ServeStats },
    /// Reply to [`Request::Metrics`]: Prometheus text exposition, ready
    /// for a scrape endpoint or `gensor metrics --socket`.
    Metrics { text: String },
    /// Load shed: the admission gate is full. Back off and retry (or
    /// compile locally); nothing was queued.
    Busy { inflight: u64, max_inflight: u64 },
    /// The server is draining and accepts no new work.
    ShuttingDown,
    /// A typed failure; the connection stays usable unless the transport
    /// itself broke.
    Error { kind: ErrKind, message: String },
}

/// How the shared cache satisfied a [`Request::Compile`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum WireOutcome {
    /// This request ran the construction.
    Built,
    /// Answered from the resident cache.
    Hit,
    /// Collapsed onto another client's in-flight construction.
    Coalesced,
}

impl From<schedcache::Outcome> for WireOutcome {
    fn from(o: schedcache::Outcome) -> Self {
        match o {
            schedcache::Outcome::Built => WireOutcome::Built,
            schedcache::Outcome::Hit => WireOutcome::Hit,
            schedcache::Outcome::Coalesced => WireOutcome::Coalesced,
        }
    }
}

/// Classified server-side failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ErrKind {
    /// Client and server [`PROTO_VERSION`]s differ.
    UnsupportedProto,
    /// The server requires a shared token and the `Hello` carried a
    /// missing or wrong one. Terminal for the connection — retrying with
    /// the same credentials cannot succeed, so clients surface it typed
    /// instead of falling back silently.
    Unauthorized,
    /// Frame decoded but violated the protocol (bad first frame, garbage
    /// payload, oversize header).
    Malformed,
    /// No such tuning method registered.
    UnknownMethod,
    /// The request was admitted but missed its deadline.
    DeadlineExceeded,
    /// The compiled schedule failed static verification and was refused —
    /// never served from the cache, never banked.
    Rejected,
    /// Anything else (a build panicked, a build thread could not start, …).
    Internal,
}

/// A [`CompiledKernel`] in wire form (field-for-field mirror; kept as a
/// distinct type so the wire format is explicit, not whatever the
/// simulator struct happens to be).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WireKernel {
    pub etir: Etir,
    pub report: KernelReport,
    pub wall_time_s: f64,
    pub simulated_tuning_s: f64,
    pub candidates_evaluated: u64,
}

impl From<&CompiledKernel> for WireKernel {
    fn from(k: &CompiledKernel) -> Self {
        WireKernel {
            etir: k.etir.clone(),
            report: k.report.clone(),
            wall_time_s: k.wall_time_s,
            simulated_tuning_s: k.simulated_tuning_s,
            candidates_evaluated: k.candidates_evaluated,
        }
    }
}

impl From<WireKernel> for CompiledKernel {
    fn from(k: WireKernel) -> Self {
        CompiledKernel {
            etir: k.etir,
            report: k.report,
            wall_time_s: k.wall_time_s,
            simulated_tuning_s: k.simulated_tuning_s,
            candidates_evaluated: k.candidates_evaluated,
        }
    }
}

/// One repaired cache entry in wire form. Carries the *raw* cache key
/// (fingerprints cannot be reconstructed from specs on the receiving
/// side — the original `GpuSpec` is not recoverable from the kernel), the
/// operator label and method for the persistent store record, and the
/// kernel itself. The receiver re-verifies the kernel under the
/// remote-peer provenance policy before banking.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WireEntry {
    pub key: schedcache::CacheKey,
    pub op_label: String,
    pub method: String,
    pub kernel: WireKernel,
}

/// One flight-recorder event in wire form (the [`Response::TraceDumped`]
/// payload). The in-process [`obs::Event`] uses `&'static str` names and
/// keys from the span taxonomy; on the wire they travel as owned strings
/// and re-enter the static model through [`obs::intern_name`] — the set of
/// distinct names is small and bounded by the taxonomy.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WireEvent {
    /// Microseconds since the *remote* process's trace epoch. Epochs are
    /// per-process; hop ordering comes from the `trace`/`parent` span
    /// fields, not from comparing timestamps across dumps.
    pub ts_us: u64,
    /// The remote process's dense thread id.
    pub tid: u64,
    /// Phase: `"B"` (span begin), `"E"` (span end), `"i"` (point),
    /// `"log"`.
    pub ph: String,
    /// Span/point name (`"log"` for log lines).
    pub name: String,
    /// Log severity (`"debug"`…`"error"`); empty for non-log events.
    pub level: String,
    /// Log message; empty for non-log events.
    pub message: String,
    /// Structured fields.
    pub fields: Vec<(String, serde::Value)>,
}

fn obs_value_to_wire(v: &obs::Value) -> serde::Value {
    match v {
        obs::Value::U64(n) => serde::Value::U64(*n),
        obs::Value::I64(n) => serde::Value::I64(*n),
        obs::Value::F64(f) => serde::Value::F64(*f),
        obs::Value::Bool(b) => serde::Value::Bool(*b),
        obs::Value::Str(s) => serde::Value::Str(s.clone()),
    }
}

fn wire_value_to_obs(v: &serde::Value) -> obs::Value {
    match v {
        serde::Value::U64(n) => obs::Value::U64(*n),
        serde::Value::I64(n) => obs::Value::I64(*n),
        serde::Value::F64(f) => obs::Value::F64(*f),
        serde::Value::Bool(b) => obs::Value::Bool(*b),
        serde::Value::Str(s) => obs::Value::Str(s.clone()),
        // Null/Array/Object never leave obs, but a forged frame could
        // carry them; render rather than reject.
        other => obs::Value::Str(format!("{other:?}")),
    }
}

impl From<&obs::Event> for WireEvent {
    fn from(ev: &obs::Event) -> Self {
        let (ph, name, level, message) = match &ev.kind {
            obs::EventKind::Begin { name } => ("B", *name, "", String::new()),
            obs::EventKind::End { name } => ("E", *name, "", String::new()),
            obs::EventKind::Point { name } => ("i", *name, "", String::new()),
            obs::EventKind::Log { level, message } => {
                ("log", "log", level.as_str(), message.clone())
            }
        };
        WireEvent {
            ts_us: ev.ts_us,
            tid: ev.tid,
            ph: ph.to_string(),
            name: name.to_string(),
            level: level.to_string(),
            message,
            fields: ev
                .fields
                .iter()
                .map(|(k, v)| (k.to_string(), obs_value_to_wire(v)))
                .collect(),
        }
    }
}

impl WireEvent {
    /// Rebuild the in-process event. Unknown phases decay to points and
    /// unknown levels to `Info` — a dump viewer wants totality, not
    /// rejection.
    pub fn to_event(&self) -> obs::Event {
        let name = obs::intern_name(&self.name);
        let kind = match self.ph.as_str() {
            "B" => obs::EventKind::Begin { name },
            "E" => obs::EventKind::End { name },
            "log" => obs::EventKind::Log {
                level: match self.level.as_str() {
                    "debug" => obs::Level::Debug,
                    "warn" => obs::Level::Warn,
                    "error" => obs::Level::Error,
                    _ => obs::Level::Info,
                },
                message: self.message.clone(),
            },
            _ => obs::EventKind::Point { name },
        };
        obs::Event {
            ts_us: self.ts_us,
            tid: self.tid,
            kind,
            fields: self
                .fields
                .iter()
                .map(|(k, v)| (obs::intern_name(k), wire_value_to_obs(v)))
                .collect(),
        }
    }
}

/// Why a frame could not be read.
#[derive(Debug)]
pub enum FrameError {
    /// Peer closed cleanly between frames (EOF at a frame boundary).
    Closed,
    /// The read timed out while *idle* (no header byte consumed). The
    /// server uses this to poll its shutdown flag between frames.
    IdleTimeout,
    /// The connection died (or timed out) mid-frame.
    Truncated,
    /// The header announced more than [`MAX_FRAME_BYTES`].
    TooLarge(usize),
    /// The payload was not valid JSON for the expected frame type.
    Malformed(String),
    /// Any other transport error.
    Io(std::io::Error),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Closed => write!(f, "peer closed the connection"),
            FrameError::IdleTimeout => write!(f, "idle read timeout"),
            FrameError::Truncated => write!(f, "connection died mid-frame"),
            FrameError::TooLarge(n) => {
                write!(
                    f,
                    "frame of {n} bytes exceeds the {MAX_FRAME_BYTES}-byte cap"
                )
            }
            FrameError::Malformed(m) => write!(f, "malformed frame: {m}"),
            FrameError::Io(e) => write!(f, "transport error: {e}"),
        }
    }
}

fn is_timeout(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

/// Write one frame: length prefix + JSON payload in one write, flushed,
/// so the peer never wakes on a bare header.
pub fn write_frame<W: Write, T: Serialize>(w: &mut W, msg: &T) -> Result<(), FrameError> {
    let json = serde_json::to_string(msg).map_err(|e| FrameError::Malformed(e.to_string()))?;
    let bytes = json.as_bytes();
    if bytes.len() > MAX_FRAME_BYTES {
        return Err(FrameError::TooLarge(bytes.len()));
    }
    let mut frame = Vec::with_capacity(4 + bytes.len());
    frame.extend_from_slice(&(bytes.len() as u32).to_be_bytes());
    frame.extend_from_slice(bytes);
    w.write_all(&frame).map_err(FrameError::Io)?;
    w.flush().map_err(FrameError::Io)
}

/// Read one frame of type `T`. Distinguishes a clean close (EOF at a
/// frame boundary) from truncation mid-frame, and an idle read timeout
/// from one that strands a partial frame.
pub fn read_frame<R: Read, T: Deserialize>(r: &mut R) -> Result<T, FrameError> {
    let mut header = [0u8; 4];
    read_fully(r, &mut header, true)?;
    let len = u32::from_be_bytes(header) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(FrameError::TooLarge(len));
    }
    let mut payload = vec![0u8; len];
    read_fully(r, &mut payload, false)?;
    let text = std::str::from_utf8(&payload).map_err(|e| FrameError::Malformed(e.to_string()))?;
    serde_json::from_str(text).map_err(|e| FrameError::Malformed(e.to_string()))
}

/// Fill `buf` completely. `at_boundary` selects the failure flavour for a
/// zero-byte first read (clean close vs truncation) and for a timeout
/// before any byte arrived (idle vs mid-frame).
fn read_fully<R: Read>(r: &mut R, buf: &mut [u8], at_boundary: bool) -> Result<(), FrameError> {
    let mut got = 0;
    while got < buf.len() {
        match r.read(&mut buf[got..]) {
            Ok(0) => {
                return Err(if at_boundary && got == 0 {
                    FrameError::Closed
                } else {
                    FrameError::Truncated
                })
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) if is_timeout(&e) => {
                return Err(if at_boundary && got == 0 {
                    FrameError::IdleTimeout
                } else {
                    FrameError::Truncated
                })
            }
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gemm_compile() -> Request {
        Request::Compile {
            op: OpSpec::gemm(1024, 512, 512),
            gpu: GpuSpec::rtx4090(),
            method: "gensor".into(),
            budget: Some(4),
        }
    }

    #[test]
    fn request_round_trips_through_a_frame() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &gemm_compile()).unwrap();
        let back: Request = read_frame(&mut buf.as_slice()).unwrap();
        assert_eq!(back, gemm_compile());
    }

    #[test]
    fn several_frames_stream_back_to_back() {
        let frames = vec![
            Request::Hello {
                proto: PROTO_VERSION,
                token: Some("fabric-secret".into()),
            },
            Request::Ping,
            Request::Stats,
        ];
        let mut buf = Vec::new();
        for f in &frames {
            write_frame(&mut buf, f).unwrap();
        }
        let mut r = buf.as_slice();
        for f in &frames {
            let back: Request = read_frame(&mut r).unwrap();
            assert_eq!(&back, f);
        }
        assert!(matches!(
            read_frame::<_, Request>(&mut r),
            Err(FrameError::Closed)
        ));
    }

    #[test]
    fn oversize_header_is_rejected_without_allocating() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(u32::MAX).to_be_bytes());
        buf.extend_from_slice(b"whatever");
        match read_frame::<_, Request>(&mut buf.as_slice()) {
            Err(FrameError::TooLarge(n)) => assert_eq!(n, u32::MAX as usize),
            other => panic!("expected TooLarge, got {other:?}"),
        }
    }

    #[test]
    fn garbage_payload_is_malformed_not_fatal() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&7u32.to_be_bytes());
        buf.extend_from_slice(b"not{json");
        assert!(matches!(
            read_frame::<_, Request>(&mut buf.as_slice()),
            Err(FrameError::Malformed(_))
        ));
    }

    #[test]
    fn truncation_mid_frame_is_distinguished_from_clean_close() {
        let mut full = Vec::new();
        write_frame(&mut full, &gemm_compile()).unwrap();
        // Cut inside the payload.
        let cut = &full[..full.len() - 3];
        assert!(matches!(
            read_frame::<_, Request>(&mut &cut[..]),
            Err(FrameError::Truncated)
        ));
        // Cut inside the header.
        assert!(matches!(
            read_frame::<_, Request>(&mut &full[..2]),
            Err(FrameError::Truncated)
        ));
        // Empty input is a clean close.
        assert!(matches!(
            read_frame::<_, Request>(&mut &full[..0]),
            Err(FrameError::Closed)
        ));
    }

    #[test]
    fn responses_round_trip_including_errors() {
        let k = {
            let spec = GpuSpec::rtx4090();
            let e = Etir::initial(OpSpec::gemm(64, 64, 64), &spec);
            let report = simgpu::simulate(&e, &spec).unwrap();
            WireKernel {
                etir: e,
                report,
                wall_time_s: 0.25,
                simulated_tuning_s: 0.0,
                candidates_evaluated: 42,
            }
        };
        let frames = vec![
            Response::Hello {
                proto: PROTO_VERSION,
            },
            Response::Pong,
            Response::Compiled {
                outcome: WireOutcome::Coalesced,
                kernel: k,
            },
            Response::Busy {
                inflight: 8,
                max_inflight: 8,
            },
            Response::ShuttingDown,
            Response::Error {
                kind: ErrKind::UnknownMethod,
                message: "no method 'frobnicate'".into(),
            },
            Response::Error {
                kind: ErrKind::Unauthorized,
                message: "bad token".into(),
            },
        ];
        for f in frames {
            let mut buf = Vec::new();
            write_frame(&mut buf, &f).unwrap();
            let back: Response = read_frame(&mut buf.as_slice()).unwrap();
            assert_eq!(back, f);
        }
    }

    #[test]
    fn fabric_frames_round_trip() {
        let spec = GpuSpec::rtx4090();
        let op = OpSpec::gemm(128, 128, 128);
        let e = Etir::initial(op.clone(), &spec);
        let report = simgpu::simulate(&e, &spec).unwrap();
        let put = Request::Put {
            op,
            gpu: spec,
            method: "gensor".into(),
            kernel: Box::new(WireKernel {
                etir: e,
                report,
                wall_time_s: 0.5,
                simulated_tuning_s: 0.0,
                candidates_evaluated: 7,
            }),
        };
        let mut buf = Vec::new();
        write_frame(&mut buf, &put).unwrap();
        let back: Request = read_frame(&mut buf.as_slice()).unwrap();
        assert_eq!(back, put);
        for f in [
            Response::PutDone { installed: true },
            Response::PutDone { installed: false },
        ] {
            let mut buf = Vec::new();
            write_frame(&mut buf, &f).unwrap();
            let back: Response = read_frame(&mut buf.as_slice()).unwrap();
            assert_eq!(back, f);
        }
    }

    #[test]
    fn trace_frames_round_trip() {
        for f in [
            Request::Trace {
                trace_id: 0xdead_beef_cafe_f00d,
                parent_span: 42,
            },
            Request::Trace {
                trace_id: 0,
                parent_span: 0,
            },
            Request::TraceDump,
        ] {
            let mut buf = Vec::new();
            write_frame(&mut buf, &f).unwrap();
            let back: Request = read_frame(&mut buf.as_slice()).unwrap();
            assert_eq!(back, f);
        }
        let dumped = Response::TraceDumped {
            tag: "7601".into(),
            events: vec![
                WireEvent {
                    ts_us: 10,
                    tid: 2,
                    ph: "B".into(),
                    name: "serve.request".into(),
                    level: String::new(),
                    message: String::new(),
                    fields: vec![
                        ("trace".into(), serde::Value::U64(7)),
                        ("op".into(), serde::Value::Str("gemm".into())),
                    ],
                },
                WireEvent {
                    ts_us: 11,
                    tid: 2,
                    ph: "log".into(),
                    name: "log".into(),
                    level: "warn".into(),
                    message: "uh oh".into(),
                    fields: Vec::new(),
                },
            ],
        };
        for f in [dumped, Response::TraceAck] {
            let mut buf = Vec::new();
            write_frame(&mut buf, &f).unwrap();
            let back: Response = read_frame(&mut buf.as_slice()).unwrap();
            assert_eq!(back, f);
        }
    }

    #[test]
    fn wire_events_round_trip_through_the_obs_model() {
        let events = vec![
            obs::Event {
                ts_us: 5,
                tid: 1,
                kind: obs::EventKind::Begin { name: "tune" },
                fields: vec![
                    ("span", obs::Value::U64(9)),
                    ("op", obs::Value::Str("gemm".into())),
                    ("ok", obs::Value::Bool(true)),
                    ("gain", obs::Value::F64(0.5)),
                    ("delta", obs::Value::I64(-3)),
                ],
            },
            obs::Event {
                ts_us: 6,
                tid: 1,
                kind: obs::EventKind::End { name: "tune" },
                fields: vec![("span", obs::Value::U64(9))],
            },
            obs::Event {
                ts_us: 7,
                tid: 2,
                kind: obs::EventKind::Point { name: "walk.step" },
                fields: Vec::new(),
            },
            obs::Event {
                ts_us: 8,
                tid: 2,
                kind: obs::EventKind::Log {
                    level: obs::Level::Error,
                    message: "boom".into(),
                },
                fields: Vec::new(),
            },
        ];
        for ev in &events {
            let wire = WireEvent::from(ev);
            let mut buf = Vec::new();
            write_frame(&mut buf, &wire).unwrap();
            let back: WireEvent = read_frame(&mut buf.as_slice()).unwrap();
            assert_eq!(back.to_event(), *ev);
        }
    }

    #[test]
    fn selfheal_frames_round_trip() {
        let spec = GpuSpec::rtx4090();
        let op = OpSpec::gemm(96, 96, 96);
        let key = schedcache::CacheKey::new(&op, &spec, "gensor");
        let e = Etir::initial(op, &spec);
        let report = simgpu::simulate(&e, &spec).unwrap();
        let entry = WireEntry {
            key,
            op_label: e.op.label(),
            method: "Gensor".into(),
            kernel: WireKernel {
                etir: e,
                report,
                wall_time_s: 0.1,
                simulated_tuning_s: 0.0,
                candidates_evaluated: 3,
            },
        };
        let requests = vec![
            Request::CacheDigest,
            Request::CacheKeys { shard: 11 },
            Request::CachePull { keys: vec![key] },
            Request::CachePush {
                entries: vec![entry.clone()],
            },
        ];
        for f in requests {
            let mut buf = Vec::new();
            write_frame(&mut buf, &f).unwrap();
            let back: Request = read_frame(&mut buf.as_slice()).unwrap();
            assert_eq!(back, f);
        }
        let responses = vec![
            Response::CacheDigest {
                root: 0xfeed_f00d,
                shards: vec![1, 2, 3],
                count: 3,
            },
            Response::CacheKeys { keys: vec![key] },
            Response::CacheEntries {
                entries: vec![entry],
            },
            Response::CachePushed {
                installed: 2,
                rejected: 1,
            },
        ];
        for f in responses {
            let mut buf = Vec::new();
            write_frame(&mut buf, &f).unwrap();
            let back: Response = read_frame(&mut buf.as_slice()).unwrap();
            assert_eq!(back, f);
        }
    }

    #[test]
    fn hello_without_token_round_trips() {
        let hello = Request::Hello {
            proto: PROTO_VERSION,
            token: None,
        };
        let mut buf = Vec::new();
        write_frame(&mut buf, &hello).unwrap();
        let back: Request = read_frame(&mut buf.as_slice()).unwrap();
        assert_eq!(back, hello);
    }
}
