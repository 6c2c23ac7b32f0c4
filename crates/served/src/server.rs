//! The daemon: a Unix-socket front end over the shared schedule cache.
//!
//! Architecture (all std threads, no async runtime):
//!
//! ```text
//!            accept loop (non-blocking, polls the shutdown flag)
//!                │ one handler thread per connection
//!                ▼
//!   handler: handshake → frame loop ── Compile ──▶ ScheduleCache::lookup
//!                                                  hit │      │ miss
//!                              answered on this thread ◀      ▼
//!                                      admission gate ── permit ──▶ an idle
//!                                        │ full → Busy      parked build thread
//!                                        ▼                  (a new one only when
//!                                   (shed, no queueing)     none is idle) → cache
//! ```
//!
//! * **Hits never wait**: a `Compile` for a resident key is answered on
//!   its connection thread by [`ScheduleCache::lookup`]. It takes no
//!   permit and crosses no thread, so a daemon whose every build slot is
//!   taken still answers hits.
//! * **Backpressure** is load-shedding, not queueing: the admission gate
//!   caps *running* builds; beyond the cap a miss is answered `Busy`
//!   immediately. Nothing queues, so nothing waits to be cancelled.
//! * **Parked build threads**: an admitted miss is handed to a build
//!   thread parked on one process-wide idle list, so a steady-state miss
//!   starts no thread. A thread starts only when none is idle, so the
//!   process never holds more build threads than its peak of concurrent
//!   builds, and every daemon in the process shares them. A thread
//!   re-parks *before* it sends its answer, so the client's next miss
//!   finds it idle.
//! * **Deadlines**: a handler stops waiting for its build (answers
//!   `DeadlineExceeded`) once the deadline passes. The build is not
//!   interrupted — its result still lands in the shared cache, so the work
//!   is banked, not wasted; the same holds when the client hangs up.
//! * **Drain**: on a `Shutdown` frame or SIGTERM/SIGINT the accept loop
//!   closes, handlers finish their current request, every admitted build
//!   finishes, the store is fsynced, and the socket file is removed. New
//!   work during drain is refused with `ShuttingDown`.
//! * **Panic isolation**: each build runs under its own panic guard; a
//!   compile that panics fails *its* request with a typed `Internal`
//!   error and returns its permit, and its thread parks again, so one
//!   poisoned operator can never kill the daemon.

use crate::endpoint::{Endpoint, Listener, Stream};
use crate::metrics::{Metrics, ServeStats};
use crate::proto::{
    read_frame, write_frame, ErrKind, FrameError, Request, Response, WireEntry, WireEvent,
    WireKernel, WireOutcome, MAX_PULL_KEYS, PROTO_VERSION,
};
use gensor::{Gensor, GensorConfig};
use hardware::GpuSpec;
use schedcache::{CachedTuner, ScheduleCache};
use simgpu::{CompiledKernel, Tuner};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};
use tensor_expr::OpSpec;

/// How the daemon is wired; see the module docs for the moving parts.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Where to listen: a Unix-socket path (stale files are replaced at
    /// bind) or `tcp://host:port` (the fabric transport; `:0` asks the
    /// kernel for a free port, resolvable via [`Server::endpoint`]).
    pub listen: Endpoint,
    /// Shared-token auth for the TCP fabric: when set, every connection's
    /// `Hello` must carry the same token or it is refused with the typed
    /// `Unauthorized` error. `None` (the default, and the sensible choice
    /// for a local Unix socket) accepts any `Hello`.
    pub token: Option<String>,
    /// The other daemons of this cache fabric (endpoint strings, as given
    /// to `gensor serve --peers`). The daemon itself only reports these in
    /// its stats — routing is the *client's* job, so a daemon stays a
    /// plain single-node cache that any FabricClient can address.
    pub peers: Vec<String>,
    /// Chaos-drill hook: when set, the accept loop polls this failpoint
    /// site and hard-stops the daemon (no drain, no flush, listener
    /// dropped) when it fires — an in-process stand-in for SIGKILL that
    /// lets the cluster tests kill exactly one of three embedded daemons.
    pub crash_site: Option<String>,
    /// Max running builds (each on a parked build thread, see the module
    /// docs); a miss beyond this is shed with `Busy`. Hits never count
    /// against it.
    pub max_inflight: usize,
    /// Per-request compile deadline.
    pub deadline: Duration,
    /// Whether `run` installs SIGTERM/SIGINT handlers that trigger a
    /// graceful drain (the CLI wants this; embedded tests do not).
    pub handle_signals: bool,
    /// Compact the persistent store when its file grows past this many
    /// bytes (checked periodically by the accept loop). `None` disables
    /// the daemon-side trigger; `gensor cache compact` still works.
    pub compact_bytes: Option<u64>,
}

impl ServerConfig {
    /// Defaults: `2 × cores` running builds, 120 s deadline, no signal
    /// handling, no auth token, no peers.
    pub fn new(listen: impl Into<Endpoint>) -> Self {
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        ServerConfig {
            listen: listen.into(),
            token: None,
            peers: Vec::new(),
            crash_site: None,
            max_inflight: 2 * cores,
            deadline: Duration::from_secs(120),
            handle_signals: false,
            compact_bytes: None,
        }
    }
}

/// A tuning method the daemon can serve. Gensor is kept as a config (so
/// per-request `budget` can re-instance it with fewer chains and the warm
/// path can quarter it); everything else is an opaque tuner.
enum Method {
    Gensor(GensorConfig),
    Other(Box<dyn Tuner + Send + Sync>),
}

/// Named methods the daemon serves; `standard()` mirrors the CLI's
/// `--method` choices. Each entry is (wire name, cache-key name, method):
/// the cache-key name is the tuner's *display* name (`"Roller"`, not
/// `"roller"`), fixed when the method is registered.
pub struct MethodRegistry {
    entries: Vec<(String, &'static str, Method)>,
}

impl MethodRegistry {
    /// An empty registry (for tests that register their own tuners).
    pub fn empty() -> Self {
        MethodRegistry {
            entries: Vec::new(),
        }
    }

    /// The CLI's method set: gensor, roller, ansor, cublas, pytorch.
    pub fn standard() -> Self {
        Self::standard_with_gensor(GensorConfig::default())
    }

    /// [`standard()`](Self::standard), but with a caller-supplied gensor
    /// config — the serve CLI uses this to hand the daemon a reseeded
    /// (`--seed`) config that every gensor compile then inherits.
    pub fn standard_with_gensor(cfg: GensorConfig) -> Self {
        let mut r = Self::empty();
        let name = Gensor::with_config(cfg.clone()).name();
        r.entries.push(("gensor".into(), name, Method::Gensor(cfg)));
        r.register("roller", Box::new(roller::Roller::default()));
        r.register("ansor", Box::new(search::Ansor::default()));
        r.register("cublas", Box::new(search::VendorLib));
        r.register("pytorch", Box::new(search::Eager));
        r
    }

    /// Add (or replace) a method under `name` (matched case-insensitively,
    /// with the CLI's aliases).
    pub fn register(&mut self, name: &str, tuner: Box<dyn Tuner + Send + Sync>) {
        let name = name.to_ascii_lowercase();
        self.entries.retain(|(n, ..)| *n != name);
        self.entries
            .push((name, tuner.name(), Method::Other(tuner)));
    }

    /// The name the compile path keys cache entries under for a wire
    /// method. Inline hits and fabric `Put` frames must address
    /// the same key space as a build, or a replicated kernel would be
    /// installed under a different policy fingerprint than compiles read
    /// from.
    fn cache_method(&self, name: &str) -> Option<&'static str> {
        self.get(name).map(|(key_name, _)| key_name)
    }

    fn get(&self, name: &str) -> Option<(&'static str, &Method)> {
        let canonical = match name.to_ascii_lowercase().as_str() {
            "vendor" => "cublas".to_string(),
            "eager" => "pytorch".to_string(),
            other => other.to_string(),
        };
        self.entries
            .iter()
            .find(|(n, ..)| *n == canonical)
            .map(|(_, key_name, m)| (*key_name, m))
    }
}

/// Why `run` returned, plus the final counters.
#[derive(Debug, Clone)]
pub struct DrainReport {
    /// `"shutdown-frame"`, `"signal"`, or `"crash"` (the chaos drill's
    /// simulated SIGKILL — no drain ran).
    pub reason: &'static str,
    /// Final statistics at drain time.
    pub stats: ServeStats,
}

/// Admission gate: a count of running builds, not a queue. `try_acquire`
/// never blocks — over the cap the caller sheds with `Busy`.
struct Gate {
    running: Mutex<u64>,
    /// Signalled when the last running build returns its permit.
    idle: Condvar,
    cap: u64,
}

impl Gate {
    fn count(&self) -> MutexGuard<'_, u64> {
        self.running.lock().unwrap_or_else(|p| p.into_inner())
    }

    fn try_acquire(self: &Arc<Self>) -> Option<Permit> {
        let mut running = self.count();
        if *running >= self.cap {
            return None;
        }
        *running += 1;
        Some(Permit(self.clone()))
    }

    /// Block until every admitted build has returned its permit.
    fn wait_idle(&self) {
        let mut running = self.count();
        while *running > 0 {
            running = self.idle.wait(running).unwrap_or_else(|p| p.into_inner());
        }
    }
}

/// RAII permit: owned by one build job and released when its build is
/// done (banked, refused or panicked), whether or not the client still
/// waits.
struct Permit(Arc<Gate>);

impl Drop for Permit {
    fn drop(&mut self) {
        let mut running = self.0.count();
        *running -= 1;
        if *running == 0 {
            self.0.idle.notify_all();
        }
    }
}

/// SIGTERM/SIGINT flag (set from the signal handler; an atomic store is
/// async-signal-safe).
static TERMINATED: AtomicBool = AtomicBool::new(false);

/// SIGUSR1 flag: "dump the flight recorder now". Consumed (swapped back
/// to false) by the accept loop.
static DUMP_REQUESTED: AtomicBool = AtomicBool::new(false);

extern "C" fn on_terminate(_sig: i32) {
    TERMINATED.store(true, Ordering::SeqCst);
}

extern "C" fn on_usr1(_sig: i32) {
    DUMP_REQUESTED.store(true, Ordering::SeqCst);
}

fn install_signal_handlers() {
    // Direct libc `signal(2)` binding: the workspace builds offline with
    // no libc crate, and an atomic flag is all the handler needs.
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGUSR1: i32 = 10;
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGTERM, on_terminate);
        signal(SIGINT, on_terminate);
        signal(SIGUSR1, on_usr1);
    }
}

/// The daemon. `bind` + `run`; `handle()` for programmatic shutdown.
pub struct Server {
    cfg: ServerConfig,
    listener: Listener,
    /// The endpoint actually bound (TCP port 0 resolved).
    bound: Endpoint,
    shared: Arc<Shared>,
}

/// State every handler and build thread shares.
struct Shared {
    cache: Arc<ScheduleCache>,
    registry: MethodRegistry,
    metrics: Metrics,
    gate: Arc<Gate>,
    shutdown: AtomicBool,
    started: Instant,
    peers: Vec<String>,
}

impl Shared {
    fn draining(&self, handle_signals: bool) -> bool {
        self.shutdown.load(Ordering::SeqCst)
            || (handle_signals && TERMINATED.load(Ordering::SeqCst))
    }

    fn stats(&self) -> ServeStats {
        self.metrics
            .snapshot(self.started, self.cache.stats(), &self.peers)
    }

    /// Run one compile through the shared cache. This is where every
    /// client process's requests meet one single-flight domain.
    fn compile(
        &self,
        op: &OpSpec,
        gpu: &GpuSpec,
        method: &str,
        budget: Option<u32>,
    ) -> Result<(CompiledKernel, WireOutcome), (ErrKind, String)> {
        let Some((_, entry)) = self.registry.get(method) else {
            return Err((
                ErrKind::UnknownMethod,
                format!("no method '{method}' registered"),
            ));
        };
        let primary;
        let tuner = match entry {
            Method::Gensor(cfg) => {
                let mut cfg = cfg.clone();
                if let Some(b) = budget {
                    cfg.chains = (b as usize).max(1);
                }
                primary = Gensor::with_config(cfg);
                CachedTuner::for_gensor(&primary, self.cache.clone())
            }
            Method::Other(t) => CachedTuner::new(t.as_ref(), self.cache.clone()),
        };
        let (kernel, outcome) = tuner.compile_verified(op, gpu).map_err(rejected)?;
        Ok((kernel, outcome.into()))
    }

    /// The `Compiled` frame for an answered compile, counted with the
    /// microseconds it waited for a build thread and was then served.
    fn compiled(
        &self,
        mut kernel: CompiledKernel,
        outcome: WireOutcome,
        queue_us: u64,
        service_us: u64,
    ) -> Response {
        self.metrics.record_compile(outcome, queue_us, service_us);
        // Chaos hook: corrupt the *outgoing* schedule after the daemon's
        // own verify gate passed it — the wire frame stays well-formed, so
        // only a receiver that re-verifies content (the fabric trust
        // boundary) can catch it.
        if faults::armed() && faults::check("served.reply.tamper").is_some() {
            obs::log!(
                Warn,
                "serve: failpoint 'served.reply.tamper' fired: corrupting outgoing schedule"
            );
            if let Some(v) = kernel.etir.vthreads.first_mut() {
                *v = 0;
            }
        }
        Response::Compiled {
            outcome,
            kernel: (&kernel).into(),
        }
    }
}

/// A schedule that fails static analysis (a store record that does not
/// fit this device, a builder bug) is a typed error on the wire, never a
/// served kernel.
fn rejected(rej: schedcache::Rejected) -> (ErrKind, String) {
    (ErrKind::Rejected, rej.to_string())
}

/// Cloneable handle for programmatic shutdown (tests, embedding).
#[derive(Clone)]
pub struct ServerHandle {
    shared: Arc<Shared>,
}

impl ServerHandle {
    /// Trigger the same graceful drain a `Shutdown` frame does.
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
    }

    /// Current statistics.
    pub fn stats(&self) -> ServeStats {
        self.shared.stats()
    }
}

impl Server {
    /// Bind the endpoint (recovering a stale Unix socket file or dead TCP
    /// bind, see [`Endpoint::bind`]) and assemble the daemon.
    pub fn bind(
        cfg: ServerConfig,
        cache: Arc<ScheduleCache>,
        registry: MethodRegistry,
    ) -> std::io::Result<Server> {
        // Chaos runs configure failpoints through the environment; a
        // daemon embedded in tests (no CLI in front) must honour them
        // too. A bad spec is logged, never fatal.
        if let Err(e) = faults::init_from_env() {
            obs::log!(Warn, "serve: ignoring bad {}: {e}", faults::ENV_VAR);
        }
        let listener = cfg.listen.bind()?;
        listener.set_nonblocking(true)?;
        let bound = listener.local_endpoint(&cfg.listen);
        let shared = Arc::new(Shared {
            cache,
            registry,
            metrics: Metrics::default(),
            gate: Arc::new(Gate {
                running: Mutex::new(0),
                idle: Condvar::new(),
                cap: cfg.max_inflight.max(1) as u64,
            }),
            shutdown: AtomicBool::new(false),
            started: Instant::now(),
            peers: cfg.peers.clone(),
        });
        Ok(Server {
            cfg,
            listener,
            bound,
            shared,
        })
    }

    /// The endpoint actually bound — for `tcp://…:0` this carries the
    /// kernel-assigned port, which is how embedded cluster tests learn
    /// their collision-free addresses.
    pub fn endpoint(&self) -> &Endpoint {
        &self.bound
    }

    /// A handle usable from other threads while `run` blocks.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            shared: self.shared.clone(),
        }
    }

    /// Serve until drained (`Shutdown` frame, `ServerHandle::shutdown`, or
    /// SIGTERM/SIGINT when configured). Returns the final counters.
    pub fn run(self) -> std::io::Result<DrainReport> {
        if self.cfg.handle_signals {
            TERMINATED.store(false, Ordering::SeqCst);
            install_signal_handlers();
        }
        let mut handlers: Vec<std::thread::JoinHandle<()>> = Vec::new();
        let mut last_compact_check = Instant::now();
        loop {
            if self.shared.draining(self.cfg.handle_signals) {
                break;
            }
            // The chaos drill's simulated SIGKILL: stop dead. No drain, no
            // store flush, no socket cleanup — the listener drops so new
            // connects are refused, and the shutdown flag makes handler
            // threads abandon their connections without replying, which is
            // what their clients would see from a real process kill.
            if let Some(site) = &self.cfg.crash_site {
                if faults::armed() && faults::check(site).is_some() {
                    obs::log!(Warn, "serve: failpoint '{site}' fired: simulating crash");
                    // Last act before "dying": preserve the recent past.
                    // A real SIGKILL would leave nothing; the simulated
                    // one leaves the black box, which is the point of
                    // carrying one.
                    obs::flight::dump("crash");
                    self.shared.shutdown.store(true, Ordering::SeqCst);
                    return Ok(DrainReport {
                        reason: "crash",
                        stats: self.shared.stats(),
                    });
                }
            }
            // Operator-requested dump (`kill -USR1 <daemon>`): snapshot
            // the flight recorder without disturbing service.
            if self.cfg.handle_signals && DUMP_REQUESTED.swap(false, Ordering::SeqCst) {
                match obs::flight::dump("sigusr1") {
                    Some(path) => {
                        obs::log!(Info, "serve: flight recorder dumped to {}", path.display())
                    }
                    None => obs::log!(Warn, "serve: SIGUSR1 but no flight dump written"),
                }
            }
            // Periodic store maintenance, checked at a coarse interval so
            // the accept loop stays cheap:
            //  * fsync the append batch, bounding how much banked work a
            //    crash between syncs can lose;
            //  * compaction: a long-lived daemon rewriting the same keys
            //    grows its JSONL store with superseded lines; past the
            //    configured size, rewrite it down to the live set.
            if last_compact_check.elapsed() >= Duration::from_secs(10) {
                last_compact_check = Instant::now();
                if let Err(e) = self.shared.cache.flush() {
                    obs::log!(Warn, "serve: store fsync failed: {e}");
                }
                if let Some(max) = self.cfg.compact_bytes {
                    if let Err(e) = self.shared.cache.compact_if_larger_than(max) {
                        obs::log!(Warn, "serve: store compaction failed: {e}");
                    }
                }
            }
            match self.listener.accept() {
                Ok(stream) => {
                    obs::counter_inc!("gensor_serve_connections_total", "Connections accepted");
                    self.shared
                        .metrics
                        .connections
                        .fetch_add(1, Ordering::Relaxed);
                    let shared = self.shared.clone();
                    let cfg = self.cfg.clone();
                    handlers.push(std::thread::spawn(move || {
                        handle_connection(stream, &shared, &cfg)
                    }));
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(10));
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
            handlers.retain(|h| !h.is_finished());
        }

        // Drain: handlers observe the flag (their reads time out every
        // 100 ms) and exit after their current request; builds whose
        // client stopped waiting still run to the end and bank.
        let reason = if self.shared.shutdown.load(Ordering::SeqCst) {
            "shutdown-frame"
        } else {
            "signal"
        };
        // A drain is the last chance to see what the daemon was doing;
        // dump the black box alongside the final counters.
        obs::flight::dump(reason);
        for h in handlers {
            let _ = h.join();
        }
        self.shared.gate.wait_idle();
        self.shared.cache.flush()?;
        if let Endpoint::Unix(path) = &self.bound {
            let _ = std::fs::remove_file(path);
        }
        Ok(DrainReport {
            reason,
            stats: self.shared.stats(),
        })
    }
}

/// Per-connection frame loop.
fn handle_connection(stream: Stream, shared: &Arc<Shared>, cfg: &ServerConfig) {
    let mut stream = stream;
    // Short read timeout so idle handlers poll the drain flag; writes get
    // a generous bound so a wedged client cannot pin a handler forever.
    let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(10)));

    // Handshake: the first frame must be a version match carrying the
    // right token (when the daemon requires one).
    let hello = loop {
        match server_read(&mut stream) {
            Ok(req) => break req,
            Err(FrameError::IdleTimeout) => {
                if shared.draining(cfg.handle_signals) {
                    return;
                }
            }
            Err(_) => {
                shared.metrics.proto_errors.fetch_add(1, Ordering::Relaxed);
                return;
            }
        }
    };
    match hello {
        Request::Hello {
            proto: PROTO_VERSION,
            ref token,
        } => {
            if cfg.token.is_some() && *token != cfg.token {
                shared.metrics.auth_failures.fetch_add(1, Ordering::Relaxed);
                obs::counter_inc!(
                    "gensor_serve_auth_failures_total",
                    "Connections refused for a missing or wrong shared token"
                );
                let _ = server_write(
                    &mut stream,
                    &Response::Error {
                        kind: ErrKind::Unauthorized,
                        message: "this daemon requires a shared token (serve --token)".into(),
                    },
                );
                return;
            }
            let accepted = Response::Hello {
                proto: PROTO_VERSION,
            };
            if server_write(&mut stream, &accepted).is_err() {
                return;
            }
        }
        Request::Hello { proto, .. } => {
            shared.metrics.proto_errors.fetch_add(1, Ordering::Relaxed);
            let _ = server_write(
                &mut stream,
                &Response::Error {
                    kind: ErrKind::UnsupportedProto,
                    message: format!("server speaks proto {PROTO_VERSION}, client sent {proto}"),
                },
            );
            return;
        }
        other => {
            shared.metrics.proto_errors.fetch_add(1, Ordering::Relaxed);
            let _ = server_write(
                &mut stream,
                &Response::Error {
                    kind: ErrKind::Malformed,
                    message: format!("connection must open with Hello, got {other:?}"),
                },
            );
            return;
        }
    }

    // The connection's distributed trace context, set by a `Trace` frame
    // and stamped onto every subsequent work span. `(0, 0)` = none.
    let mut conn_trace: (u64, u64) = (0, 0);
    loop {
        let request = match server_read(&mut stream) {
            Ok(req) => req,
            Err(FrameError::IdleTimeout) => {
                if shared.draining(cfg.handle_signals) {
                    return;
                }
                continue;
            }
            Err(FrameError::Closed) => return,
            Err(
                e @ (FrameError::TooLarge(_) | FrameError::Malformed(_) | FrameError::Truncated),
            ) => {
                shared.metrics.proto_errors.fetch_add(1, Ordering::Relaxed);
                let _ = server_write(
                    &mut stream,
                    &Response::Error {
                        kind: ErrKind::Malformed,
                        message: e.to_string(),
                    },
                );
                return;
            }
            Err(FrameError::Io(_)) => return,
        };
        obs::counter_inc!(
            "gensor_serve_requests_total",
            "Frames dispatched (any kind)"
        );
        shared.metrics.requests.fetch_add(1, Ordering::Relaxed);
        let reply = match request {
            // An operator the cost model cannot handle (a zero extent, a
            // window past its input, more inputs than a tile footprint
            // holds) is refused before anything costs a tile of it; the
            // connection stays usable.
            Request::Compile { ref op, .. } | Request::Put { ref op, .. }
                if op.validate().is_err() =>
            {
                shared.metrics.proto_errors.fetch_add(1, Ordering::Relaxed);
                Response::Error {
                    kind: ErrKind::Malformed,
                    message: op.validate().err().unwrap_or_default(),
                }
            }
            Request::Hello { .. } => Response::Hello {
                proto: PROTO_VERSION,
            },
            Request::Ping => Response::Pong,
            Request::Stats => Response::Stats {
                server: shared.stats(),
            },
            Request::Metrics => Response::Metrics {
                text: obs::prometheus::render(),
            },
            Request::Trace {
                trace_id,
                parent_span,
            } => {
                conn_trace = if trace_id == 0 {
                    (0, 0)
                } else {
                    (trace_id, parent_span)
                };
                Response::TraceAck
            }
            // Answered inline: reading the ring is a lock + clone, and a
            // trace pull must work even when every build slot is taken
            // (that is exactly when someone wants the trace).
            Request::TraceDump => match obs::flight::installed() {
                Some(rec) => Response::TraceDumped {
                    tag: rec.tag().to_string(),
                    events: rec.events().iter().map(WireEvent::from).collect(),
                },
                None => Response::TraceDumped {
                    tag: String::new(),
                    events: Vec::new(),
                },
            },
            // A put is answered inline (verify + insert) and never
            // competes with builds for the admission gate. It
            // canonicalizes the wire method ("roller") to the cache-key
            // name the compile path uses (the tuner's display name,
            // "Roller") so puts and compiles share one key space.
            Request::Put {
                op,
                gpu,
                method,
                kernel,
            } => {
                if shared.draining(cfg.handle_signals) {
                    Response::ShuttingDown
                } else {
                    match shared.registry.cache_method(&method) {
                        Some(method) => {
                            match shared.cache.install(&op, &gpu, method, (*kernel).into()) {
                                Ok(installed) => {
                                    shared.metrics.puts.fetch_add(1, Ordering::Relaxed);
                                    Response::PutDone { installed }
                                }
                                Err(rej) => Response::Error {
                                    kind: ErrKind::Rejected,
                                    message: rej.to_string(),
                                },
                            }
                        }
                        None => Response::Error {
                            kind: ErrKind::UnknownMethod,
                            message: format!("no method '{method}' registered"),
                        },
                    }
                }
            }
            // Repair frames are answered inline: a digest read must work
            // even when every build slot is taken.
            Request::CacheDigest => {
                let d = shared.cache.digest();
                Response::CacheDigest {
                    root: d.root,
                    shards: d.shards,
                    count: d.count,
                }
            }
            Request::CacheKeys { shard } => Response::CacheKeys {
                keys: shared.cache.keys_in_shard(shard as usize),
            },
            Request::CachePull { keys } => {
                let capped = &keys[..keys.len().min(MAX_PULL_KEYS)];
                let entries: Vec<WireEntry> = shared
                    .cache
                    .export(capped)
                    .into_iter()
                    .map(|e| WireEntry {
                        key: e.key,
                        op_label: e.op_label,
                        method: e.method,
                        kernel: WireKernel::from(&e.kernel),
                    })
                    .collect();
                obs::counter_add!(
                    "gensor_serve_repair_served_total",
                    "Cache entries streamed out to repairing peers",
                    entries.len() as u64
                );
                Response::CacheEntries { entries }
            }
            Request::CachePush { entries } => {
                if shared.draining(cfg.handle_signals) {
                    Response::ShuttingDown
                } else {
                    let (mut installed, mut rejected) = (0u64, 0u64);
                    for entry in entries {
                        match shared.cache.install_raw(schedcache::CacheEntry {
                            key: entry.key,
                            op_label: entry.op_label,
                            method: entry.method,
                            kernel: entry.kernel.into(),
                        }) {
                            Ok(true) => installed += 1,
                            Ok(false) => {}
                            Err(_) => rejected += 1,
                        }
                    }
                    if rejected > 0 {
                        obs::counter_add!(
                            "gensor_serve_repair_rejected_total",
                            "Pushed repair entries refused by the provenance verifier",
                            rejected
                        );
                    }
                    Response::CachePushed {
                        installed,
                        rejected,
                    }
                }
            }
            Request::Shutdown => {
                shared.shutdown.store(true, Ordering::SeqCst);
                let _ = server_write(&mut stream, &Response::ShuttingDown);
                return;
            }
            Request::Compile {
                op,
                gpu,
                method,
                budget,
            } => {
                if shared.draining(cfg.handle_signals) {
                    Response::ShuttingDown
                } else {
                    compile(shared, op, gpu, method, budget, conn_trace, cfg.deadline)
                }
            }
        };
        if server_write(&mut stream, &reply).is_err() {
            return;
        }
    }
}

/// [`read_frame`] behind the `served.socket.read` failpoint, so the chaos
/// suite can break the transport without a misbehaving client.
fn server_read(stream: &mut Stream) -> Result<Request, FrameError> {
    if faults::armed() && faults::check("served.socket.read").is_some() {
        return Err(FrameError::Io(faults::injected_err("served.socket.read")));
    }
    read_frame::<_, Request>(stream)
}

/// [`write_frame`] behind the `served.socket.write` failpoint.
fn server_write(stream: &mut Stream, resp: &Response) -> Result<(), FrameError> {
    if faults::armed() && faults::check("served.socket.write").is_some() {
        return Err(FrameError::Io(faults::injected_err("served.socket.write")));
    }
    write_frame(stream, resp)
}

/// One admitted miss for a build thread: the build, which frees its
/// permit when done, and where its answer goes.
struct Job {
    build: Box<dyn FnOnce() -> Response + Send>,
    reply: mpsc::SyncSender<Response>,
}

/// The build threads parked idle, one mailbox each, most recently parked
/// last. Process-wide rather than per daemon: each thread keeps its own
/// stack and malloc arena, so daemons embedded in one process share them.
/// They are never joined; a drain waits on its own daemon's gate, which
/// every build's permit returns to.
static IDLE: Mutex<Vec<mpsc::Sender<Job>>> = Mutex::new(Vec::new());

fn idle() -> MutexGuard<'static, Vec<mpsc::Sender<Job>>> {
    IDLE.lock().unwrap_or_else(|p| p.into_inner())
}

/// Hand `job` to the most recently parked build thread, or start a new
/// one when none is idle: the only place a build thread starts.
fn dispatch(job: Job) -> std::io::Result<()> {
    let parked = idle().pop();
    if let Some(mailbox) = parked {
        // A parked thread holds its own mailbox open, so this cannot
        // fail; if it did, the dropped job would answer `Internal`.
        let _ = mailbox.send(job);
        return Ok(());
    }
    let (mailbox, jobs) = mpsc::channel();
    let _ = mailbox.send(job);
    std::thread::Builder::new()
        .name("gensor-build".into())
        .spawn(move || {
            for job in jobs.iter() {
                let response = (job.build)();
                // Re-park before answering: the client's next miss, sent
                // the moment this answer lands, must find this thread idle.
                idle().push(mailbox.clone());
                let _ = job.reply.send(response);
            }
        })
        .map(drop)
}

/// Answer one `Compile`: a resident key here, on the connection's own
/// thread; a miss on a parked build thread, behind the admission gate,
/// waited for up to `deadline`.
fn compile(
    shared: &Arc<Shared>,
    op: OpSpec,
    gpu: GpuSpec,
    method: String,
    budget: Option<u32>,
    trace: (u64, u64),
    deadline: Duration,
) -> Response {
    let accepted = Instant::now();
    let _sp = obs::span!(
        "serve.request",
        kind = "compile",
        method = method.as_str(),
        op = op.label(),
        trace = trace.0,
        parent = trace.1
    );
    let Some(key_method) = shared.registry.cache_method(&method) else {
        return Response::Error {
            kind: ErrKind::UnknownMethod,
            message: format!("no method '{method}' registered"),
        };
    };
    match shared.cache.lookup(&op, &gpu, key_method) {
        Some(Ok(kernel)) => {
            let service_us = accepted.elapsed().as_micros() as u64;
            return shared.compiled(kernel, WireOutcome::Hit, 0, service_us);
        }
        Some(Err(rej)) => {
            let (kind, message) = rejected(rej);
            return Response::Error { kind, message };
        }
        None => {}
    }
    let Some(permit) = shared.gate.try_acquire() else {
        obs::counter_inc!(
            "gensor_serve_shed_total",
            "Requests refused with Busy by the admission gate"
        );
        shared.metrics.shed.fetch_add(1, Ordering::Relaxed);
        return Response::Busy {
            inflight: *shared.gate.count(),
            max_inflight: shared.gate.cap,
        };
    };
    if faults::armed() && faults::check("served.dispatch").is_some() {
        return Response::Error {
            kind: ErrKind::Internal,
            message: "failpoint 'served.dispatch': injected dispatch failure".into(),
        };
    }
    let (reply, answer) = mpsc::sync_channel(1);
    let builder = shared.clone();
    let job = Job {
        build: Box::new(move || {
            let queue_us = accepted.elapsed().as_micros() as u64;
            let _sp = obs::span!(
                "serve.build",
                queued_us = queue_us,
                trace = trace.0,
                parent = trace.1
            );
            let response = build(&builder, &op, &gpu, &method, budget, queue_us);
            // The work is banked: free the slot before answering, so the
            // client's next miss is admitted. The client may have stopped
            // waiting (deadline, hang-up); then only the reply is dropped.
            drop(permit);
            response
        }),
        reply,
    };
    if let Err(e) = dispatch(job) {
        return Response::Error {
            kind: ErrKind::Internal,
            message: format!("cannot start a build thread: {e}"),
        };
    }
    // Small grace past the deadline for an answer landing just under it.
    match answer.recv_timeout(deadline + Duration::from_millis(250)) {
        Ok(response) => response,
        Err(mpsc::RecvTimeoutError::Timeout) => {
            shared
                .metrics
                .deadline_expired
                .fetch_add(1, Ordering::Relaxed);
            Response::Error {
                kind: ErrKind::DeadlineExceeded,
                message: format!(
                    "no result within {:.1} s; the construction keeps running and will be cached",
                    deadline.as_secs_f64()
                ),
            }
        }
        Err(mpsc::RecvTimeoutError::Disconnected) => Response::Error {
            kind: ErrKind::Internal,
            message: "the build thread ended without an answer".into(),
        },
    }
}

/// One miss, on a build thread, inside its own panic guard: a poisoned
/// operator fails this request with a typed `Internal` error, nothing else.
fn build(
    shared: &Shared,
    op: &OpSpec,
    gpu: &GpuSpec,
    method: &str,
    budget: Option<u32>,
    queue_us: u64,
) -> Response {
    let t_service = Instant::now();
    let built = catch_unwind(AssertUnwindSafe(|| {
        // The chaos harness's stand-in for "the tuner has a bug": any
        // policy on this site panics here, inside the guard.
        if faults::check("served.worker").is_some() {
            panic!("failpoint 'served.worker': injected worker failure");
        }
        shared.compile(op, gpu, method, budget)
    }));
    match built {
        Ok(Ok((kernel, outcome))) => {
            let service_us = t_service.elapsed().as_micros() as u64;
            shared.compiled(kernel, outcome, queue_us, service_us)
        }
        Ok(Err((kind, message))) => Response::Error { kind, message },
        Err(payload) => {
            shared.metrics.worker_panics.fetch_add(1, Ordering::Relaxed);
            obs::counter_inc!(
                "gensor_served_worker_panics",
                "Build panics caught and answered as typed Internal errors"
            );
            let reason = faults::panic_message(payload.as_ref());
            obs::log!(Warn, "serve: compile job panicked: {reason}");
            Response::Error {
                kind: ErrKind::Internal,
                message: format!("compile job panicked: {reason}"),
            }
        }
    }
}
