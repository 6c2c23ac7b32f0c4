//! Blocking client for the `gensor serve` daemon, plus [`Breaker`], the
//! per-peer transport circuit `fabric::Membership` keeps one of for every
//! daemon it routes to: after a few consecutive transport failures the
//! circuit opens and later compiles skip the connect/retry budget
//! entirely, re-probing the daemon with a single half-open request once a
//! jittered cooldown elapses. A daemon restart therefore costs a fleet of
//! clients one probe each, not a thundering reconnect herd.

use crate::endpoint::{Endpoint, Stream};
use crate::proto::{
    read_frame, write_frame, ErrKind, FrameError, Request, Response, WireEntry, WireEvent,
    WireKernel, WireOutcome, MAX_PULL_KEYS, PROTO_VERSION,
};
use hardware::GpuSpec;
use rand::{rngs::StdRng, Rng, SeedableRng};
use simgpu::CompiledKernel;
use std::sync::Mutex;
use std::time::{Duration, Instant, SystemTime};
use tensor_expr::OpSpec;

/// Connection and retry policy.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Budget for one connect attempt (socket connect + handshake reads).
    pub connect_timeout: Duration,
    /// Budget for one request/response exchange.
    pub request_timeout: Duration,
    /// Connect attempts before giving up (≥ 1).
    pub retries: u32,
    /// Base of the exponential backoff between connect attempts; attempt
    /// `n` sleeps `base × 2ⁿ`, jittered ±50 % so a fleet of clients whose
    /// daemon restarts does not reconnect in lockstep.
    pub backoff_base: Duration,
    /// Total wall-clock budget for one `connect_with` call, retries and
    /// backoff sleeps included. The retry loop stops early rather than
    /// start a sleep or an attempt that would overrun it, so a caller
    /// with a deadline can bound its worst case.
    pub connect_budget: Duration,
    /// Shared token sent in the `Hello` handshake. Required by daemons
    /// started with `serve --token`; ignored by the rest.
    pub token: Option<String>,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            connect_timeout: Duration::from_millis(500),
            request_timeout: Duration::from_secs(150),
            retries: 3,
            backoff_base: Duration::from_millis(25),
            connect_budget: Duration::from_secs(3),
            token: None,
        }
    }
}

/// Everything that can go wrong talking to the daemon.
#[derive(Debug)]
pub enum ClientError {
    /// Could not connect (after all retries).
    Unreachable(std::io::Error),
    /// The wire broke mid-exchange.
    Frame(FrameError),
    /// The server answered, but not what the protocol promises here.
    Protocol(String),
    /// The admission gate shed this request.
    Busy { inflight: u64, max_inflight: u64 },
    /// The server answered with a typed error.
    Remote { kind: ErrKind, message: String },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Unreachable(e) => write!(f, "daemon unreachable: {e}"),
            ClientError::Frame(e) => write!(f, "wire error: {e}"),
            ClientError::Protocol(m) => write!(f, "protocol violation: {m}"),
            ClientError::Busy {
                inflight,
                max_inflight,
            } => write!(f, "server busy ({inflight}/{max_inflight} in flight)"),
            ClientError::Remote { kind, message } => {
                write!(f, "server error ({kind:?}): {message}")
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl From<FrameError> for ClientError {
    fn from(e: FrameError) -> Self {
        ClientError::Frame(e)
    }
}

/// A handshaken connection to the daemon. One request in flight at a
/// time (the protocol is strictly request/response per connection).
#[derive(Debug)]
pub struct Client {
    stream: Stream,
    cfg: ClientConfig,
    /// Desired distributed trace context `(trace_id, parent_span)`;
    /// `(0, 0)` = none.
    trace: (u64, u64),
    /// The context the server last acknowledged for this connection.
    trace_synced: (u64, u64),
    /// The read/write timeout the socket carries now, so a request under
    /// an unchanged deadline makes no `setsockopt` call.
    deadline: Option<Duration>,
}

/// A seed that differs across processes and calls without consulting a
/// global RNG: wall-clock nanos xor'd with the pid.
fn jitter_seed() -> u64 {
    let nanos = SystemTime::now()
        .duration_since(SystemTime::UNIX_EPOCH)
        .map(|d| d.subsec_nanos() as u64 ^ d.as_secs())
        .unwrap_or(0x5eed);
    nanos ^ (std::process::id() as u64) << 32
}

impl Client {
    /// Connect with the default policy. Accepts a Unix-socket path or a
    /// `tcp://host:port` address (see [`Endpoint::parse`]).
    pub fn connect(endpoint: impl Into<Endpoint>) -> Result<Client, ClientError> {
        Client::connect_with(endpoint, ClientConfig::default())
    }

    /// Connect, retrying with jittered exponential backoff, then perform
    /// the `Hello` version (and, for token-guarded daemons, auth)
    /// handshake. An `Unauthorized` refusal is returned typed and is
    /// never retried — the same credentials cannot start working.
    pub fn connect_with(
        endpoint: impl Into<Endpoint>,
        cfg: ClientConfig,
    ) -> Result<Client, ClientError> {
        let endpoint = endpoint.into();
        let started = Instant::now();
        let mut rng = StdRng::seed_from_u64(jitter_seed());
        let mut last_err: Option<std::io::Error> = None;
        for attempt in 0..cfg.retries.max(1) {
            if attempt > 0 {
                let base = cfg.backoff_base.as_secs_f64() * f64::powi(2.0, attempt as i32 - 1);
                let sleep = Duration::from_secs_f64(base * rng.gen_range(0.5..1.5));
                // Deadline-aware: never start a sleep (plus the attempt
                // it buys) that would overrun the connect budget.
                if started.elapsed() + sleep + cfg.connect_timeout > cfg.connect_budget {
                    break;
                }
                std::thread::sleep(sleep);
            }
            match endpoint.connect(cfg.connect_timeout) {
                Ok(stream) => {
                    let mut client = Client {
                        stream,
                        cfg: cfg.clone(),
                        trace: (0, 0),
                        trace_synced: (0, 0),
                        deadline: None,
                    };
                    client.set_deadline(client.cfg.connect_timeout)?;
                    match client.exchange(&Request::Hello {
                        proto: PROTO_VERSION,
                        token: cfg.token.clone(),
                    }) {
                        Ok(Response::Hello {
                            proto: PROTO_VERSION,
                        }) => return Ok(client),
                        Ok(Response::Hello { proto }) => {
                            return Err(ClientError::Protocol(format!(
                                "server answered proto {proto}, wanted {PROTO_VERSION}"
                            )))
                        }
                        Ok(Response::Error { kind, message }) => {
                            return Err(ClientError::Remote { kind, message })
                        }
                        Ok(other) => {
                            return Err(ClientError::Protocol(format!(
                                "handshake answered with {other:?}"
                            )))
                        }
                        // A connect that raced the daemon's drain can die
                        // mid-handshake; that is retryable.
                        Err(ClientError::Frame(e)) => {
                            last_err = Some(std::io::Error::other(e.to_string()));
                            continue;
                        }
                        Err(e) => return Err(e),
                    }
                }
                Err(e) => last_err = Some(e),
            }
        }
        Err(ClientError::Unreachable(last_err.unwrap_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::NotFound, "no connect attempt ran")
        })))
    }

    fn set_deadline(&mut self, d: Duration) -> Result<(), ClientError> {
        if self.deadline == Some(d) {
            return Ok(());
        }
        self.deadline = None;
        self.stream
            .set_read_timeout(Some(d))
            .and_then(|_| self.stream.set_write_timeout(Some(d)))
            .map_err(|e| ClientError::Frame(FrameError::Io(e)))?;
        self.deadline = Some(d);
        Ok(())
    }

    fn exchange(&mut self, req: &Request) -> Result<Response, ClientError> {
        write_frame(&mut self.stream, req)?;
        Ok(read_frame(&mut self.stream)?)
    }

    /// Set (or with `trace_id == 0` clear) the distributed trace context
    /// for this connection. Cheap and lazy: the `Trace` frame is sent
    /// piggybacked on the next request, and only when the context
    /// actually changed.
    pub fn set_trace(&mut self, trace_id: u64, parent_span: u64) {
        self.trace = if trace_id == 0 {
            (0, 0)
        } else {
            (trace_id, parent_span)
        };
    }

    /// Bring the server's connection-scoped trace context in line with
    /// [`set_trace`](Client::set_trace). Called under the request
    /// deadline, before the request itself.
    fn sync_trace(&mut self) -> Result<(), ClientError> {
        if self.trace == self.trace_synced {
            return Ok(());
        }
        match self.exchange(&Request::Trace {
            trace_id: self.trace.0,
            parent_span: self.trace.1,
        })? {
            Response::TraceAck => {
                self.trace_synced = self.trace;
                Ok(())
            }
            Response::Error { kind, message } => Err(ClientError::Remote { kind, message }),
            other => Err(ClientError::Protocol(format!("trace answered {other:?}"))),
        }
    }

    /// One request/response exchange under the request timeout, with
    /// `Busy` and `Error` replies mapped to typed errors.
    pub fn request(&mut self, req: &Request) -> Result<Response, ClientError> {
        self.set_deadline(self.cfg.request_timeout)?;
        self.sync_trace()?;
        match self.exchange(req)? {
            Response::Busy {
                inflight,
                max_inflight,
            } => Err(ClientError::Busy {
                inflight,
                max_inflight,
            }),
            Response::Error { kind, message } => Err(ClientError::Remote { kind, message }),
            other => Ok(other),
        }
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        match self.request(&Request::Ping)? {
            Response::Pong => Ok(()),
            other => Err(ClientError::Protocol(format!("ping answered {other:?}"))),
        }
    }

    /// Compile one operator on the daemon.
    pub fn compile(
        &mut self,
        op: &OpSpec,
        gpu: &GpuSpec,
        method: &str,
        budget: Option<u32>,
    ) -> Result<(CompiledKernel, WireOutcome), ClientError> {
        let req = Request::Compile {
            op: op.clone(),
            gpu: gpu.clone(),
            method: method.to_string(),
            budget,
        };
        match self.request(&req)? {
            Response::Compiled { outcome, kernel } => Ok((kernel.into(), outcome)),
            Response::ShuttingDown => Err(ClientError::Remote {
                kind: ErrKind::Internal,
                message: "server is draining".into(),
            }),
            other => Err(ClientError::Protocol(format!("compile answered {other:?}"))),
        }
    }

    /// Install an already-compiled kernel into the daemon's cache — the
    /// fabric's write-through / read-repair frame. Returns whether the
    /// daemon admitted it fresh (`false`: the key was already resident).
    pub fn put(
        &mut self,
        op: &OpSpec,
        gpu: &GpuSpec,
        method: &str,
        kernel: &CompiledKernel,
    ) -> Result<bool, ClientError> {
        let req = Request::Put {
            op: op.clone(),
            gpu: gpu.clone(),
            method: method.to_string(),
            kernel: Box::new(WireKernel::from(kernel)),
        };
        match self.request(&req)? {
            Response::PutDone { installed } => Ok(installed),
            other => Err(ClientError::Protocol(format!("put answered {other:?}"))),
        }
    }

    /// Fetch the server's counters.
    pub fn stats(&mut self) -> Result<crate::metrics::ServeStats, ClientError> {
        match self.request(&Request::Stats)? {
            Response::Stats { server } => Ok(server),
            other => Err(ClientError::Protocol(format!("stats answered {other:?}"))),
        }
    }

    /// Pull the daemon's flight-recorder ring: `(tag, events)`, oldest
    /// event first. A daemon without a recorder answers an empty dump.
    pub fn trace_dump(&mut self) -> Result<(String, Vec<WireEvent>), ClientError> {
        match self.request(&Request::TraceDump)? {
            Response::TraceDumped { tag, events } => Ok((tag, events)),
            other => Err(ClientError::Protocol(format!(
                "trace-dump answered {other:?}"
            ))),
        }
    }

    /// Fetch the server's metric registry in Prometheus text exposition
    /// format.
    pub fn metrics(&mut self) -> Result<String, ClientError> {
        match self.request(&Request::Metrics)? {
            Response::Metrics { text } => Ok(text),
            other => Err(ClientError::Protocol(format!("metrics answered {other:?}"))),
        }
    }

    /// The daemon's cache digest: `(root, per-shard folds, count)`.
    pub fn cache_digest(&mut self) -> Result<(u64, Vec<u64>, u64), ClientError> {
        match self.request(&Request::CacheDigest)? {
            Response::CacheDigest {
                root,
                shards,
                count,
            } => Ok((root, shards, count)),
            other => Err(ClientError::Protocol(format!("digest answered {other:?}"))),
        }
    }

    /// All keys resident in one of the daemon's digest shards.
    pub fn cache_keys(&mut self, shard: u32) -> Result<Vec<schedcache::CacheKey>, ClientError> {
        match self.request(&Request::CacheKeys { shard })? {
            Response::CacheKeys { keys } => Ok(keys),
            other => Err(ClientError::Protocol(format!(
                "cache-keys answered {other:?}"
            ))),
        }
    }

    /// Fetch full entries for `keys`, chunking requests to
    /// [`MAX_PULL_KEYS`] so one reply never nears the frame cap.
    pub fn cache_pull(
        &mut self,
        keys: &[schedcache::CacheKey],
    ) -> Result<Vec<WireEntry>, ClientError> {
        let mut out = Vec::new();
        for chunk in keys.chunks(MAX_PULL_KEYS.max(1)) {
            match self.request(&Request::CachePull {
                keys: chunk.to_vec(),
            })? {
                Response::CacheEntries { entries } => out.extend(entries),
                other => Err(ClientError::Protocol(format!(
                    "cache-pull answered {other:?}"
                )))?,
            }
        }
        Ok(out)
    }

    /// Push repaired entries into the daemon (the operator-driven repair
    /// path); returns `(installed, rejected)` totals across chunks.
    pub fn cache_push(&mut self, entries: Vec<WireEntry>) -> Result<(u64, u64), ClientError> {
        let (mut installed, mut rejected) = (0u64, 0u64);
        let mut entries = entries;
        while !entries.is_empty() {
            let rest = entries.split_off(entries.len().min(MAX_PULL_KEYS));
            match self.request(&Request::CachePush { entries })? {
                Response::CachePushed {
                    installed: i,
                    rejected: r,
                } => {
                    installed += i;
                    rejected += r;
                }
                other => Err(ClientError::Protocol(format!(
                    "cache-push answered {other:?}"
                )))?,
            }
            entries = rest;
        }
        Ok((installed, rejected))
    }

    /// Ask the daemon to drain and exit. The connection is closed by the
    /// server after it acknowledges.
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        match self.request(&Request::Shutdown)? {
            Response::ShuttingDown => Ok(()),
            other => Err(ClientError::Protocol(format!(
                "shutdown answered {other:?}"
            ))),
        }
    }
}

/// Circuit breaker thresholds; defaults suit a local Unix socket.
#[derive(Debug, Clone)]
pub struct BreakerConfig {
    /// Consecutive transport failures that open the circuit.
    pub failure_threshold: u32,
    /// First open period; a failed half-open probe doubles it (jittered
    /// ±50 %) up to `max_cooldown`, a success resets it.
    pub cooldown: Duration,
    /// Upper bound on the doubling cooldown.
    pub max_cooldown: Duration,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            failure_threshold: 3,
            cooldown: Duration::from_millis(250),
            max_cooldown: Duration::from_secs(5),
        }
    }
}

/// The breaker's externally visible state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: calls flow.
    Closed,
    /// Tripped: calls are refused until the cooldown elapses.
    Open,
    /// Cooldown elapsed: exactly one probe call is let through.
    HalfOpen,
}

struct BreakerInner {
    consecutive: u32,
    /// `Some` once tripped: refuse until this instant, then half-open.
    open_until: Option<Instant>,
    /// The *next* open period (doubles on repeated trips).
    cooldown: Duration,
    /// A half-open probe is in flight; concurrent calls stay refused.
    probing: bool,
    trips: u64,
    rng: StdRng,
}

/// A consecutive-failure circuit breaker for daemon transport errors.
///
/// Closed → (N consecutive failures) → Open → (jittered cooldown) →
/// HalfOpen, where one probe call decides: success closes the circuit,
/// failure re-opens it with a doubled (capped) cooldown. Only *transport*
/// failures count — a `Busy` or typed server error proves the daemon is
/// alive and resets the streak.
pub struct Breaker {
    cfg: BreakerConfig,
    inner: Mutex<BreakerInner>,
}

impl Breaker {
    /// A closed breaker with the given thresholds.
    pub fn new(cfg: BreakerConfig) -> Self {
        let cooldown = cfg.cooldown;
        Breaker {
            cfg,
            inner: Mutex::new(BreakerInner {
                consecutive: 0,
                open_until: None,
                cooldown,
                probing: false,
                trips: 0,
                rng: StdRng::seed_from_u64(jitter_seed()),
            }),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, BreakerInner> {
        self.inner.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// May a call proceed? `false` short-circuits without touching the
    /// socket. In half-open state exactly one caller gets `true` (the
    /// probe) until `on_success`/`on_failure` settles it.
    pub fn allow(&self) -> bool {
        let mut g = self.lock();
        match g.open_until {
            None => true,
            Some(until) => {
                if Instant::now() < until || g.probing {
                    false
                } else {
                    g.probing = true;
                    true
                }
            }
        }
    }

    /// The daemon answered (even with a typed error): close the circuit.
    pub fn on_success(&self) {
        let mut g = self.lock();
        g.consecutive = 0;
        g.open_until = None;
        g.probing = false;
        g.cooldown = self.cfg.cooldown;
    }

    /// A transport failure (unreachable, broken wire).
    pub fn on_failure(&self) {
        let mut g = self.lock();
        if g.probing {
            // Failed half-open probe: re-open with a doubled cooldown.
            g.probing = false;
            g.cooldown = (g.cooldown * 2).min(self.cfg.max_cooldown);
            Self::trip(&mut g);
            return;
        }
        g.consecutive += 1;
        if g.open_until.is_none() && g.consecutive >= self.cfg.failure_threshold {
            Self::trip(&mut g);
        }
    }

    fn trip(g: &mut BreakerInner) {
        let jittered = g.cooldown.as_secs_f64() * g.rng.gen_range(0.5..1.5);
        g.open_until = Some(Instant::now() + Duration::from_secs_f64(jittered));
        g.trips += 1;
        obs::counter_inc!(
            "gensor_client_breaker_trips_total",
            "Times the client circuit breaker opened"
        );
    }

    /// Current state (for reporting; racy by nature).
    pub fn state(&self) -> BreakerState {
        let g = self.lock();
        match g.open_until {
            None => BreakerState::Closed,
            Some(until) if Instant::now() < until => BreakerState::Open,
            Some(_) => BreakerState::HalfOpen,
        }
    }

    /// How many times the circuit has opened.
    pub fn trips(&self) -> u64 {
        self.lock().trips
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unreachable_socket_fails_fast_with_unreachable() {
        let err = Client::connect_with(
            "/tmp/served-test-no-such-daemon.sock",
            ClientConfig {
                retries: 2,
                backoff_base: Duration::from_millis(1),
                ..Default::default()
            },
        )
        .unwrap_err();
        assert!(matches!(err, ClientError::Unreachable(_)), "{err}");
    }

    #[test]
    fn a_server_echoing_another_version_is_a_protocol_error() {
        let path =
            std::env::temp_dir().join(format!("served-test-echo-{}.sock", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let listener = std::os::unix::net::UnixListener::bind(&path).unwrap();
        let fake = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let _: Request = read_frame(&mut stream).unwrap();
            let echoed = Response::Hello {
                proto: PROTO_VERSION - 1,
            };
            write_frame(&mut stream, &echoed).unwrap();
        });
        let err = Client::connect_with(
            path.as_path(),
            ClientConfig {
                retries: 1,
                ..Default::default()
            },
        )
        .unwrap_err();
        assert!(matches!(err, ClientError::Protocol(_)), "{err}");
        fake.join().unwrap();
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn breaker_opens_after_consecutive_failures_and_recovers_via_probe() {
        let b = Breaker::new(BreakerConfig {
            failure_threshold: 2,
            cooldown: Duration::from_millis(10),
            max_cooldown: Duration::from_millis(40),
        });
        assert_eq!(b.state(), BreakerState::Closed);
        assert!(b.allow());
        b.on_failure();
        assert!(b.allow(), "one failure below the threshold stays closed");
        b.on_failure();
        assert_eq!(b.state(), BreakerState::Open);
        assert!(!b.allow(), "open circuit refuses calls");
        assert_eq!(b.trips(), 1);
        // Jitter caps the open period at 1.5 × 10 ms.
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(b.state(), BreakerState::HalfOpen);
        assert!(b.allow(), "half-open lets one probe through");
        assert!(!b.allow(), "…but only one");
        b.on_success();
        assert_eq!(b.state(), BreakerState::Closed);
        assert!(b.allow());
    }

    #[test]
    fn failed_probe_reopens_with_a_longer_cooldown() {
        let b = Breaker::new(BreakerConfig {
            failure_threshold: 1,
            cooldown: Duration::from_millis(5),
            max_cooldown: Duration::from_millis(40),
        });
        b.on_failure();
        assert_eq!(b.trips(), 1);
        std::thread::sleep(Duration::from_millis(10));
        assert!(b.allow(), "cooldown elapsed: probe admitted");
        b.on_failure();
        assert_eq!(b.trips(), 2, "failed probe re-opens");
        assert_eq!(b.state(), BreakerState::Open);
        assert!(!b.allow());
    }
}
