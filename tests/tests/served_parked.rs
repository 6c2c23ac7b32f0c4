//! The daemon's parked build threads: a miss is handed to an idle thread
//! from one process-wide list, and a thread starts only when none is idle.
//!
//! This file is a test binary of its own, so every `gensor-build` thread
//! under `/proc/self/task` is one of these tests' daemons'. Each test
//! holds [`faults::exclusive`], so they run one at a time and a test's
//! thread count moves only with its own misses.

use etir::Etir;
use hardware::GpuSpec;
use served::proto::{read_frame, write_frame};
use served::{
    Client, ClientError, ErrKind, MethodRegistry, Request, Response, Server, ServerConfig,
    ServerHandle, WireOutcome, PROTO_VERSION,
};
use simgpu::{CompiledKernel, Tuner};
use std::collections::BTreeSet;
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tensor_expr::OpSpec;

/// Thread ids of this process's build threads.
fn build_threads() -> BTreeSet<u64> {
    std::fs::read_dir("/proc/self/task")
        .unwrap()
        .filter_map(|task| {
            let task = task.ok()?;
            let comm = std::fs::read_to_string(task.path().join("comm")).ok()?;
            (comm.trim_end() == "gensor-build").then(|| task.file_name().to_str()?.parse().ok())?
        })
        .collect()
}

fn sock(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("served-parked-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{tag}-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&path);
    path
}

/// A tuner that counts the builds it starts and finishes, sleeping
/// between the two.
struct SleepTuner {
    started: Arc<AtomicU64>,
    finished: Arc<AtomicU64>,
    sleep: Duration,
}

impl Tuner for SleepTuner {
    fn name(&self) -> &'static str {
        "Sleep"
    }

    fn compile(&self, op: &OpSpec, spec: &GpuSpec) -> CompiledKernel {
        self.started.fetch_add(1, Ordering::SeqCst);
        std::thread::sleep(self.sleep);
        let etir = Etir::initial(op.clone(), spec);
        let report = simgpu::simulate(&etir, spec).unwrap();
        self.finished.fetch_add(1, Ordering::SeqCst);
        CompiledKernel {
            etir,
            report,
            wall_time_s: self.sleep.as_secs_f64(),
            simulated_tuning_s: 0.0,
            candidates_evaluated: 1,
        }
    }
}

struct Daemon {
    path: PathBuf,
    handle: ServerHandle,
    join: std::thread::JoinHandle<served::DrainReport>,
    cache: Arc<schedcache::ScheduleCache>,
    started: Arc<AtomicU64>,
    finished: Arc<AtomicU64>,
}

/// A daemon serving one `sleep` method, on its own thread.
fn start(tag: &str, sleep: Duration, tweak: impl FnOnce(&mut ServerConfig)) -> Daemon {
    let (started, finished) = (Arc::new(AtomicU64::new(0)), Arc::new(AtomicU64::new(0)));
    let mut registry = MethodRegistry::empty();
    registry.register(
        "sleep",
        Box::new(SleepTuner {
            started: started.clone(),
            finished: finished.clone(),
            sleep,
        }),
    );
    let path = sock(tag);
    let mut cfg = ServerConfig::new(&path);
    cfg.max_inflight = 2;
    tweak(&mut cfg);
    let cache = Arc::new(schedcache::ScheduleCache::in_memory());
    let server = Server::bind(cfg, cache.clone(), registry).unwrap();
    let handle = server.handle();
    let join = std::thread::spawn(move || server.run().unwrap());
    Daemon {
        path,
        handle,
        join,
        cache,
        started,
        finished,
    }
}

fn wait_until(what: &str, mut done: impl FnMut() -> bool) {
    let t0 = Instant::now();
    while !done() {
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "timed out waiting for {what}"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

fn gemm(i: u64) -> OpSpec {
    OpSpec::gemm(64 + 8 * i, 128, 64)
}

#[test]
fn sequential_misses_reuse_one_build_thread() {
    let _g = faults::exclusive();
    let d = start("sequential", Duration::ZERO, |_| {});
    let before = build_threads();
    let spec = GpuSpec::rtx4090();
    let mut c = Client::connect(&d.path).unwrap();
    let mut seen = before.clone();
    for i in 0..50 {
        let (_, outcome) = c.compile(&gemm(i), &spec, "sleep", None).unwrap();
        assert_eq!(outcome, WireOutcome::Built);
        seen.extend(build_threads());
    }
    assert!(
        seen.len() <= before.len() + 1,
        "50 sequential misses started {} build threads",
        seen.len() - before.len()
    );
    assert!(!build_threads().is_empty(), "a build thread stays parked");
    assert_eq!(d.started.load(Ordering::SeqCst), 50);
    c.shutdown().unwrap();
    d.join.join().unwrap();
}

#[test]
fn a_panicking_build_is_answered_and_its_thread_builds_the_next_miss() {
    let _g = faults::exclusive();
    let d = start("panic", Duration::ZERO, |_| {});
    let spec = GpuSpec::rtx4090();
    let mut c = Client::connect(&d.path).unwrap();
    c.compile(&gemm(0), &spec, "sleep", None).unwrap();
    let parked = build_threads();

    faults::arm("served.worker", faults::Policy::ErrNth(1));
    match c.compile(&gemm(1), &spec, "sleep", None) {
        Err(ClientError::Remote { kind, message }) => {
            assert_eq!(kind, ErrKind::Internal);
            assert!(message.contains("panicked"), "got: {message}");
        }
        other => panic!("expected a typed Internal error, got {other:?}"),
    }
    faults::disarm("served.worker");
    let (_, outcome) = c.compile(&gemm(1), &spec, "sleep", None).unwrap();
    assert_eq!(outcome, WireOutcome::Built);
    assert_eq!(
        build_threads(),
        parked,
        "the panicked thread built the next miss"
    );
    assert_eq!(d.handle.stats().worker_panics, 1);
    c.shutdown().unwrap();
    d.join.join().unwrap();
}

#[test]
fn an_expired_build_banks_and_its_thread_parks_again() {
    let _g = faults::exclusive();
    // The handler gives up 250 ms past the deadline; the build outlasts that.
    let d = start("deadline", Duration::from_millis(600), |cfg| {
        cfg.deadline = Duration::from_millis(20)
    });
    let spec = GpuSpec::rtx4090();
    let mut c = Client::connect(&d.path).unwrap();
    let err = c.compile(&gemm(0), &spec, "sleep", None).unwrap_err();
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
    let running = build_threads();
    wait_until("the expired build to bank", || d.cache.len() == 1);
    // The thread parks a few instructions after it banks, and nothing
    // outside the server can see that step; give it ample time, then a
    // fresh miss must find it idle.
    std::thread::sleep(Duration::from_millis(200));
    let (_, outcome) = c.compile(&gemm(0), &spec, "sleep", None).unwrap();
    assert_eq!(outcome, WireOutcome::Hit, "abandoned work is banked");
    c.compile(&gemm(1), &spec, "sleep", None).unwrap_err();
    assert_eq!(
        build_threads(),
        running,
        "the expired build's thread took the next miss"
    );
    wait_until("the second build to bank", || d.cache.len() == 2);
    c.shutdown().unwrap();
    d.join.join().unwrap();
}

#[test]
fn two_daemons_in_one_process_share_the_idle_threads() {
    let _g = faults::exclusive();
    let a = start("share-a", Duration::ZERO, |_| {});
    let b = start("share-b", Duration::ZERO, |_| {});
    let spec = GpuSpec::rtx4090();
    let (mut ca, mut cb) = (
        Client::connect(&a.path).unwrap(),
        Client::connect(&b.path).unwrap(),
    );
    ca.compile(&gemm(0), &spec, "sleep", None).unwrap();
    let parked = build_threads();
    assert!(!parked.is_empty(), "a's build thread stays parked");
    let mut seen = parked.clone();
    for i in 1..6 {
        let (_, o) = cb.compile(&gemm(i), &spec, "sleep", None).unwrap();
        assert_eq!(o, WireOutcome::Built);
        seen.extend(build_threads());
        let (_, o) = ca.compile(&gemm(i), &spec, "sleep", None).unwrap();
        assert_eq!(o, WireOutcome::Built);
        seen.extend(build_threads());
    }
    assert_eq!(seen, parked, "both daemons built on the parked threads");
    assert_eq!(
        (
            a.started.load(Ordering::SeqCst),
            b.started.load(Ordering::SeqCst)
        ),
        (6, 5)
    );
    for (mut c, d) in [(ca, a), (cb, b)] {
        c.shutdown().unwrap();
        d.join.join().unwrap();
    }
}

#[test]
fn drain_waits_for_a_build_whose_client_hung_up() {
    let _g = faults::exclusive();
    let d = start("drain", Duration::from_millis(300), |_| {});
    let spec = GpuSpec::rtx4090();
    let op = gemm(0);
    // A raw client sends one miss and hangs up without its answer, so no
    // handler waits on the build: only the admission gate does.
    let mut s = UnixStream::connect(&d.path).unwrap();
    let hello = Request::Hello {
        proto: PROTO_VERSION,
        token: None,
    };
    write_frame(&mut s, &hello).unwrap();
    assert!(matches!(
        read_frame(&mut s).unwrap(),
        Response::Hello { .. }
    ));
    let compile = Request::Compile {
        op: op.clone(),
        gpu: spec.clone(),
        method: "sleep".into(),
        budget: None,
    };
    write_frame(&mut s, &compile).unwrap();
    wait_until("the build to start", || {
        d.started.load(Ordering::SeqCst) == 1
    });
    drop(s);

    d.handle.shutdown();
    let report = d.join.join().unwrap();
    assert_eq!(report.reason, "shutdown-frame");
    assert_eq!(
        d.finished.load(Ordering::SeqCst),
        1,
        "drain returned before the in-flight build finished"
    );
    assert!(
        d.cache.peek(&op, &spec, "Sleep").is_some(),
        "the build banked"
    );
}
