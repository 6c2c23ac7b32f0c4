//! End-to-end tests for the `gensor serve` daemon: real Unix sockets,
//! real threads, one shared single-flight cache behind them all.

use etir::Etir;
use hardware::GpuSpec;
use served::{
    Client, ClientError, ErrKind, MethodRegistry, Request, Response, Server, ServerConfig,
    ServerHandle, WireOutcome, PROTO_VERSION,
};
use simgpu::{CompiledKernel, Tuner};
use std::io::{Read, Write};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;
use tensor_expr::OpSpec;

fn sock(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("served-integration-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{tag}-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&path);
    path
}

/// A tuner that counts constructions and sleeps long enough that
/// concurrent requests genuinely overlap.
struct SleepTuner {
    builds: Arc<AtomicU64>,
    sleep: Duration,
}

impl Tuner for SleepTuner {
    fn name(&self) -> &'static str {
        "Sleep"
    }

    fn compile(&self, op: &OpSpec, spec: &GpuSpec) -> CompiledKernel {
        self.builds.fetch_add(1, Ordering::SeqCst);
        std::thread::sleep(self.sleep);
        let e = Etir::initial(op.clone(), spec);
        let report = simgpu::simulate(&e, spec).unwrap();
        CompiledKernel {
            etir: e,
            report,
            wall_time_s: self.sleep.as_secs_f64(),
            simulated_tuning_s: 0.0,
            candidates_evaluated: 1,
        }
    }
}

/// Spin up a daemon on its own thread; returns the socket path, a
/// shutdown handle, and the join handle for the drain report.
fn start(
    tag: &str,
    registry: MethodRegistry,
    tweak: impl FnOnce(&mut ServerConfig),
) -> (
    PathBuf,
    ServerHandle,
    std::thread::JoinHandle<served::DrainReport>,
) {
    let path = sock(tag);
    let mut cfg = ServerConfig::new(&path);
    cfg.max_inflight = 16;
    tweak(&mut cfg);
    let cache = Arc::new(schedcache::ScheduleCache::in_memory());
    let server = Server::bind(cfg, cache, registry).unwrap();
    let handle = server.handle();
    let join = std::thread::spawn(move || server.run().unwrap());
    // The listener exists as soon as `bind` returns, so clients can
    // connect immediately — no readiness dance needed.
    (path, handle, join)
}

fn sleepy_registry(builds: &Arc<AtomicU64>, sleep: Duration) -> MethodRegistry {
    let mut r = MethodRegistry::empty();
    r.register(
        "sleep",
        Box::new(SleepTuner {
            builds: builds.clone(),
            sleep,
        }),
    );
    r
}

#[test]
fn eight_concurrent_clients_share_one_construction() {
    let builds = Arc::new(AtomicU64::new(0));
    let (path, _handle, join) = start(
        "single-flight",
        sleepy_registry(&builds, Duration::from_millis(60)),
        |_| {},
    );
    let spec = GpuSpec::rtx4090();
    let op = OpSpec::gemm(1024, 512, 512);

    let clients: Vec<_> = (0..8)
        .map(|_| {
            let path = path.clone();
            let op = op.clone();
            let spec = spec.clone();
            std::thread::spawn(move || {
                let mut c = Client::connect(&path).unwrap();
                c.compile(&op, &spec, "sleep", None).unwrap()
            })
        })
        .collect();
    let results: Vec<_> = clients.into_iter().map(|h| h.join().unwrap()).collect();

    assert_eq!(
        builds.load(Ordering::SeqCst),
        1,
        "eight clients, one construction"
    );
    let built = results
        .iter()
        .filter(|(_, o)| *o == WireOutcome::Built)
        .count();
    assert_eq!(built, 1);
    let first = &results[0].0;
    for (k, _) in &results {
        assert_eq!(k.etir, first.etir, "every client got the same schedule");
    }

    // The server's own counters agree.
    let mut c = Client::connect(&path).unwrap();
    let stats = c.stats().unwrap();
    assert_eq!(stats.misses, 1, "{stats:?}");
    assert_eq!(stats.hits + stats.coalesced, 7);
    assert_eq!(stats.compiles, 8);
    assert!(stats.latency_p50_us > 0);

    c.shutdown().unwrap();
    join.join().unwrap();
    assert!(!path.exists(), "drain removes the socket file");
}

#[test]
fn admission_gate_sheds_with_busy_when_full() {
    let builds = Arc::new(AtomicU64::new(0));
    let (path, _handle, join) = start(
        "busy",
        sleepy_registry(&builds, Duration::from_millis(400)),
        |cfg| {
            cfg.max_inflight = 1;
        },
    );
    let spec = GpuSpec::rtx4090();

    // Occupy the only slot with a slow build…
    let p2 = path.clone();
    let s2 = spec.clone();
    let slow = std::thread::spawn(move || {
        let mut c = Client::connect(&p2).unwrap();
        c.compile(&OpSpec::gemm(512, 256, 512), &s2, "sleep", None)
            .unwrap()
    });
    std::thread::sleep(Duration::from_millis(120));

    // …then a second, different op must be shed, not queued.
    let mut c = Client::connect(&path).unwrap();
    let err = c
        .compile(&OpSpec::gemm(2048, 256, 512), &spec, "sleep", None)
        .unwrap_err();
    match err {
        ClientError::Busy {
            inflight,
            max_inflight,
        } => {
            assert_eq!((inflight, max_inflight), (1, 1));
        }
        other => panic!("expected Busy, got {other}"),
    }

    let (_, outcome) = slow.join().unwrap();
    assert_eq!(outcome, WireOutcome::Built, "admitted request completed");
    let stats = c.stats().unwrap();
    assert_eq!(stats.shed, 1);
    assert_eq!(builds.load(Ordering::SeqCst), 1, "shed request never ran");

    c.shutdown().unwrap();
    join.join().unwrap();
}

/// A hit takes no admission permit: with the only build slot held by a
/// slow construction, a resident key still answers `Hit` — free, not
/// `Busy` — and nothing is shed.
#[test]
fn a_resident_key_answers_hit_while_every_build_slot_is_taken() {
    let builds = Arc::new(AtomicU64::new(0));
    let (path, _handle, join) = start(
        "hit-when-full",
        sleepy_registry(&builds, Duration::from_millis(400)),
        |cfg| cfg.max_inflight = 1,
    );
    let spec = GpuSpec::rtx4090();
    let resident = OpSpec::gemm(256, 128, 256);
    let mut c = Client::connect(&path).unwrap();
    let (_, outcome) = c.compile(&resident, &spec, "sleep", None).unwrap();
    assert_eq!(outcome, WireOutcome::Built);

    // Occupy the only slot with a slow build of another key…
    let p2 = path.clone();
    let s2 = spec.clone();
    let slow = std::thread::spawn(move || {
        let mut c = Client::connect(&p2).unwrap();
        c.compile(&OpSpec::gemm(1024, 256, 512), &s2, "sleep", None)
            .unwrap()
    });
    while builds.load(Ordering::SeqCst) < 2 {
        std::thread::sleep(Duration::from_millis(5));
    }

    // …and the resident key still answers, at no tuning cost.
    let (kernel, outcome) = c.compile(&resident, &spec, "sleep", None).unwrap();
    assert_eq!(outcome, WireOutcome::Hit);
    assert_eq!((kernel.wall_time_s, kernel.simulated_tuning_s), (0.0, 0.0));
    let stats = c.stats().unwrap();
    assert_eq!((stats.shed, stats.hits), (0, 1), "{stats:?}");

    let (_, outcome) = slow.join().unwrap();
    assert_eq!(outcome, WireOutcome::Built);
    assert_eq!(builds.load(Ordering::SeqCst), 2);
    c.shutdown().unwrap();
    join.join().unwrap();
}

#[test]
fn shutdown_drains_in_flight_work_and_flushes_the_store() {
    let dir = std::env::temp_dir().join("served-integration-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let store_path = dir.join(format!("drain-store-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&store_path);

    let builds = Arc::new(AtomicU64::new(0));
    let path = sock("drain");
    let mut cfg = ServerConfig::new(&path);
    cfg.max_inflight = 4;
    let cache = Arc::new(schedcache::ScheduleCache::open(&store_path).unwrap());
    let server = Server::bind(
        cfg,
        cache,
        sleepy_registry(&builds, Duration::from_millis(300)),
    )
    .unwrap();
    let join = std::thread::spawn(move || server.run().unwrap());

    // A slow compile is mid-construction when the shutdown lands.
    let p2 = path.clone();
    let inflight = std::thread::spawn(move || {
        let mut c = Client::connect(&p2).unwrap();
        c.compile(
            &OpSpec::gemm(768, 384, 768),
            &GpuSpec::rtx4090(),
            "sleep",
            None,
        )
    });
    std::thread::sleep(Duration::from_millis(100));
    let mut c = Client::connect(&path).unwrap();
    c.shutdown().unwrap();

    let report = join.join().unwrap();
    assert_eq!(report.reason, "shutdown-frame");

    // The in-flight construction completed and its answer reached the
    // client — drain waits, it does not abort.
    let (kernel, outcome) = inflight
        .join()
        .unwrap()
        .expect("in-flight request answered");
    assert_eq!(outcome, WireOutcome::Built);
    assert!(kernel.report.gflops > 0.0);
    assert_eq!(builds.load(Ordering::SeqCst), 1);

    // The store was flushed on the way out: a fresh cache reloads the
    // schedule built during drain.
    let reopened = schedcache::ScheduleCache::open(&store_path).unwrap();
    assert_eq!(reopened.stats().loaded_from_disk, 1);
    assert!(!path.exists(), "socket file removed");
    let _ = std::fs::remove_file(&store_path);
}

#[test]
fn version_mismatch_and_garbage_frames_are_rejected() {
    let builds = Arc::new(AtomicU64::new(0));
    let (path, _handle, join) = start("garbage", sleepy_registry(&builds, Duration::ZERO), |_| {});

    // Any protocol version but ours → typed error, neighbours included:
    // the wire speaks exactly one dialect.
    for proto in [999, PROTO_VERSION - 1, PROTO_VERSION + 1] {
        let mut s = UnixStream::connect(&path).unwrap();
        served::proto::write_frame(&mut s, &Request::Hello { proto, token: None }).unwrap();
        let reply: Response = served::proto::read_frame(&mut s).unwrap();
        match reply {
            Response::Error { kind, .. } => assert_eq!(kind, ErrKind::UnsupportedProto),
            other => panic!("expected UnsupportedProto for {proto}, got {other:?}"),
        }
    }

    // An oversize length prefix → connection dropped without a crash.
    {
        let mut s = UnixStream::connect(&path).unwrap();
        s.write_all(&u32::MAX.to_be_bytes()).unwrap();
        s.flush().unwrap();
        let mut buf = [0u8; 16];
        let n = s.read(&mut buf).unwrap_or(0);
        assert_eq!(n, 0, "server closes on an oversize header");
    }

    // Garbage after a valid handshake → Malformed error frame.
    {
        let mut s = UnixStream::connect(&path).unwrap();
        served::proto::write_frame(
            &mut s,
            &Request::Hello {
                proto: PROTO_VERSION,
                token: None,
            },
        )
        .unwrap();
        let _: Response = served::proto::read_frame(&mut s).unwrap();
        let garbage = b"not json at all";
        s.write_all(&(garbage.len() as u32).to_be_bytes()).unwrap();
        s.write_all(garbage).unwrap();
        s.flush().unwrap();
        let reply: Response = served::proto::read_frame(&mut s).unwrap();
        match reply {
            Response::Error { kind, .. } => assert_eq!(kind, ErrKind::Malformed),
            other => panic!("expected Malformed, got {other:?}"),
        }
    }

    // A truncated frame (header promises more than arrives) is counted,
    // not fatal.
    {
        let mut s = UnixStream::connect(&path).unwrap();
        served::proto::write_frame(
            &mut s,
            &Request::Hello {
                proto: PROTO_VERSION,
                token: None,
            },
        )
        .unwrap();
        let _: Response = served::proto::read_frame(&mut s).unwrap();
        s.write_all(&100u32.to_be_bytes()).unwrap();
        s.write_all(b"short").unwrap();
        drop(s); // close mid-frame
    }
    std::thread::sleep(Duration::from_millis(250));

    // The daemon is still healthy and counted every abuse.
    let mut c = Client::connect(&path).unwrap();
    c.ping().unwrap();
    let stats = c.stats().unwrap();
    assert!(stats.proto_errors >= 6, "{stats:?}");
    c.shutdown().unwrap();
    join.join().unwrap();
}

#[test]
fn unknown_method_answers_a_typed_error() {
    let builds = Arc::new(AtomicU64::new(0));
    let (path, _handle, join) = start(
        "typed-errors",
        sleepy_registry(&builds, Duration::ZERO),
        |_| {},
    );
    let spec = GpuSpec::rtx4090();
    let mut c = Client::connect(&path).unwrap();

    let err = c
        .compile(&OpSpec::gemm(64, 64, 64), &spec, "frobnicate", None)
        .unwrap_err();
    assert!(
        matches!(
            err,
            ClientError::Remote {
                kind: ErrKind::UnknownMethod,
                ..
            }
        ),
        "{err}"
    );

    // The connection survives typed errors.
    c.ping().unwrap();
    c.shutdown().unwrap();
    join.join().unwrap();
}

/// An operator the cost model cannot hold (here: more inputs than a tile
/// footprint has room for) is a typed `Malformed` answer on every verb that
/// carries one, and the same connection goes on serving.
#[test]
fn a_malformed_operator_is_refused_and_the_connection_survives() {
    let builds = Arc::new(AtomicU64::new(0));
    let (path, _handle, join) = start(
        "malformed-op",
        sleepy_registry(&builds, Duration::ZERO),
        |_| {},
    );
    let spec = GpuSpec::rtx4090();
    let five = OpSpec::Elementwise {
        elems: 64,
        num_inputs: 5,
        ops_per_elem: 1,
    };
    let four = OpSpec::elementwise(64, 4, 1);
    let malformed = |r: Result<_, ClientError>| {
        matches!(
            r,
            Err(ClientError::Remote {
                kind: ErrKind::Malformed,
                ..
            })
        )
    };
    let mut c = Client::connect(&path).unwrap();
    assert!(malformed(
        c.compile(&five, &spec, "sleep", None).map(|_| ())
    ));
    let kernel = CompiledKernel {
        etir: Etir::initial(four.clone(), &spec),
        report: simgpu::simulate(&Etir::initial(four.clone(), &spec), &spec).unwrap(),
        wall_time_s: 0.0,
        simulated_tuning_s: 0.0,
        candidates_evaluated: 1,
    };
    assert!(malformed(c.put(&five, &spec, "sleep", &kernel).map(|_| ())));
    assert_eq!(builds.load(Ordering::SeqCst), 0, "nothing was compiled");

    let (_, outcome) = c.compile(&four, &spec, "sleep", None).unwrap();
    assert_eq!(outcome, WireOutcome::Built);
    assert_eq!(
        c.stats().unwrap().connections,
        1,
        "one connection throughout"
    );
    c.shutdown().unwrap();
    join.join().unwrap();
}

#[test]
fn expired_requests_answer_deadline_exceeded_but_still_bank_the_kernel() {
    let builds = Arc::new(AtomicU64::new(0));
    let (path, _handle, join) = start(
        "deadline",
        sleepy_registry(&builds, Duration::from_millis(600)),
        |cfg| {
            cfg.deadline = Duration::from_millis(100);
        },
    );
    let spec = GpuSpec::rtx4090();
    let op = OpSpec::gemm(320, 320, 320);
    let mut c = Client::connect(&path).unwrap();

    let err = c.compile(&op, &spec, "sleep", None).unwrap_err();
    assert!(
        matches!(
            err,
            ClientError::Remote {
                kind: ErrKind::DeadlineExceeded,
                ..
            }
        ),
        "{err}"
    );

    // The construction was not cancelled: once it lands, a retry is an
    // instant hit.
    std::thread::sleep(Duration::from_millis(700));
    let (_, outcome) = c.compile(&op, &spec, "sleep", None).unwrap();
    assert_eq!(outcome, WireOutcome::Hit, "abandoned work is banked");
    assert_eq!(builds.load(Ordering::SeqCst), 1);
    let stats = c.stats().unwrap();
    assert_eq!(stats.deadline_expired, 1);

    c.shutdown().unwrap();
    join.join().unwrap();
}

#[test]
fn programmatic_handle_drains_without_a_client() {
    let builds = Arc::new(AtomicU64::new(0));
    let (path, handle, join) = start(
        "handle-drain",
        sleepy_registry(&builds, Duration::ZERO),
        |_| {},
    );
    let mut c = Client::connect(&path).unwrap();
    c.ping().unwrap();
    drop(c);
    handle.shutdown();
    let report = join.join().unwrap();
    assert_eq!(report.reason, "shutdown-frame");
    assert_eq!(report.stats.connections, 1);
    assert!(!path.exists());
}

#[test]
fn metrics_frame_answers_prometheus_text_and_stats_split_latency() {
    let builds = Arc::new(AtomicU64::new(0));
    let (path, _handle, join) = start(
        "metrics",
        sleepy_registry(&builds, Duration::from_millis(30)),
        |_| {},
    );
    let spec = GpuSpec::rtx4090();
    let mut c = Client::connect(&path).unwrap();
    c.compile(&OpSpec::gemm(512, 256, 512), &spec, "sleep", None)
        .unwrap();

    // The Metrics frame answers a parseable Prometheus document carrying
    // the daemon's queue/service histograms.
    let text = c.metrics().unwrap();
    let samples = obs::prometheus::parse_samples(&text);
    assert!(!samples.is_empty(), "{text}");
    for name in [
        "gensor_serve_queue_us_count",
        "gensor_serve_service_us_count",
    ] {
        assert!(
            samples.iter().any(|s| s.name == name && s.value >= 1.0),
            "missing {name} in:\n{text}"
        );
    }

    // Stats now splits request latency into queue wait and service time;
    // a 30 ms sleepy build must dominate the service side.
    let stats = c.stats().unwrap();
    assert!(stats.service_p50_us >= 25_000, "{stats:?}");
    assert!(
        stats.queue_p50_us + stats.service_p50_us >= stats.latency_p50_us,
        "{stats:?}"
    );

    c.shutdown().unwrap();
    join.join().unwrap();
}

/// `Put` is idempotent on the daemon: three distinct kernels install, a
/// repeat of one answers "not installed", and the cache does not grow.
#[test]
fn put_installs_once_and_a_duplicate_is_a_no_op() {
    let path = sock("put-idempotent");
    let cache = Arc::new(schedcache::ScheduleCache::in_memory());
    let server = Server::bind(
        ServerConfig::new(&path),
        cache.clone(),
        MethodRegistry::standard(),
    )
    .unwrap();
    let join = std::thread::spawn(move || server.run().unwrap());

    let tuner = roller::Roller::default();
    let gpu = GpuSpec::rtx4090();
    let ops: Vec<OpSpec> = (1..4).map(|i| OpSpec::gemm(64 * i, 64, 64)).collect();
    let mut c = Client::connect(&path).unwrap();
    for op in &ops {
        let kernel = tuner.compile(op, &gpu);
        assert!(c.put(op, &gpu, "roller", &kernel).unwrap(), "fresh key");
    }
    assert_eq!(cache.digest().count, 3, "every put installed");

    let kernel = tuner.compile(&ops[0], &gpu);
    assert!(!c.put(&ops[0], &gpu, "roller", &kernel).unwrap());
    assert_eq!(cache.digest().count, 3, "duplicate put was a no-op");
    assert_eq!(c.stats().unwrap().puts, 4, "three installs + one no-op");

    c.shutdown().unwrap();
    join.join().unwrap();
}
