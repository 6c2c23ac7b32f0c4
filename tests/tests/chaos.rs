//! Chaos suite: deterministic fault injection (`crates/faults`) driven
//! through the real stack — store framing, the single-flight map, the
//! serve daemon's sockets and build threads — proving every injected
//! failure ends in a typed error or a clean recovery, never a hang, a
//! leaked permit, or a lost store.
//!
//! The failpoint registry is process-global, so every test that arms a
//! site (or calls instrumented code) holds [`faults::exclusive`]; the
//! guard disarms everything on entry *and* on drop, so a panicking test
//! cannot leak faults into its neighbours.

use etir::Etir;
use hardware::GpuSpec;
use proptest::prelude::*;
use schedcache::{CacheKey, CachedTuner, Outcome, ScheduleCache, Store};
use served::proto::{read_frame, write_frame};
use served::{
    Client, ClientError, ErrKind, MethodRegistry, Request, Response, Server, ServerConfig,
    ServerHandle, WireOutcome, PROTO_VERSION,
};
use simgpu::{CompiledKernel, SimError, Tuner};
use std::os::unix::net::UnixStream;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tensor_expr::OpSpec;

fn tmpfile(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("chaos-integration-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{tag}-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);
    path
}

fn sock(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("chaos-integration-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{tag}-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&path);
    path
}

fn kernel_for(op: &OpSpec, spec: &GpuSpec) -> CompiledKernel {
    let e = Etir::initial(op.clone(), spec);
    let report = simgpu::simulate(&e, spec).unwrap();
    CompiledKernel {
        etir: e,
        report,
        wall_time_s: 0.01,
        simulated_tuning_s: 0.5,
        candidates_evaluated: 1,
    }
}

/// A store record keyed for `method`, as `CachedTuner` would write it.
fn rec_for(op: &OpSpec, spec: &GpuSpec, method: &str) -> schedcache::CacheRecord {
    schedcache::store::record(
        CacheKey::new(op, spec, method),
        op.label(),
        method,
        &kernel_for(op, spec),
    )
}

/// A tuner that counts constructions and (optionally) holds its build
/// thread long enough for admission races to be forced deterministically.
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
        if !self.sleep.is_zero() {
            std::thread::sleep(self.sleep);
        }
        kernel_for(op, spec)
    }
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

/// Daemon on its own thread over an explicit cache (so restart tests can
/// hand it a store that just survived a crash).
fn start_daemon(
    tag: &str,
    registry: MethodRegistry,
    cache: Arc<ScheduleCache>,
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
    let server = Server::bind(cfg, cache, registry).unwrap();
    let handle = server.handle();
    let join = std::thread::spawn(move || server.run().unwrap());
    (path, handle, join)
}

fn wait_until(what: &str, timeout: Duration, mut done: impl FnMut() -> bool) {
    let t0 = Instant::now();
    while !done() {
        assert!(t0.elapsed() < timeout, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

// ---------------------------------------------------------------------
// Build threads: panics are isolated, answered, and survivable.
// ---------------------------------------------------------------------

/// A panicking build comes back as a typed `Internal` error on the same
/// connection, and the daemon keeps serving afterwards.
#[test]
fn worker_panic_is_isolated_and_answered() {
    let _g = faults::exclusive();
    let builds = Arc::new(AtomicU64::new(0));
    let (path, handle, join) = start_daemon(
        "worker-panic",
        sleepy_registry(&builds, Duration::ZERO),
        Arc::new(ScheduleCache::in_memory()),
        |_| {},
    );
    faults::arm("served.worker", faults::Policy::ErrNth(1));

    let spec = GpuSpec::rtx4090();
    let op = OpSpec::gemm(256, 128, 128);
    let mut c = Client::connect(&path).unwrap();
    match c.compile(&op, &spec, "sleep", None) {
        Err(ClientError::Remote { kind, message }) => {
            assert_eq!(kind, ErrKind::Internal);
            assert!(message.contains("panicked"), "got: {message}");
        }
        other => panic!("expected a typed Internal error, got {other:?}"),
    }
    assert_eq!(faults::hits("served.worker"), 1);

    // Same client: the panic consumed one build, not the daemon.
    let (_k, outcome) = c.compile(&op, &spec, "sleep", None).unwrap();
    assert_eq!(outcome, WireOutcome::Built);
    assert_eq!(handle.stats().worker_panics, 1);
    let stats = c.stats().unwrap();
    assert_eq!(stats.worker_panics, 1);

    c.shutdown().unwrap();
    join.join().unwrap();
}

// ---------------------------------------------------------------------
// Socket and dispatch failpoints: bounded, typed, never a hang.
// ---------------------------------------------------------------------

/// A transient server-side write fault kills one handshake; the client's
/// bounded retry transparently reconnects.
#[test]
fn transient_socket_write_fault_is_retried_through() {
    let _g = faults::exclusive();
    let builds = Arc::new(AtomicU64::new(0));
    let (path, _handle, join) = start_daemon(
        "socket-write",
        sleepy_registry(&builds, Duration::ZERO),
        Arc::new(ScheduleCache::in_memory()),
        |_| {},
    );
    faults::arm("served.socket.write", faults::Policy::ErrNth(1));

    // First Hello reply dies on the failpoint; connect_with retries the
    // whole handshake and the second attempt lands.
    let mut c = Client::connect(&path).unwrap();
    assert_eq!(faults::hits("served.socket.write"), 1);
    c.ping().unwrap();

    faults::disarm("served.socket.write");
    c.shutdown().unwrap();
    join.join().unwrap();
}

/// A fault at the dispatch boundary is a typed `Internal` error, and the
/// connection stays usable for the next request.
#[test]
fn dispatch_fault_is_a_typed_error() {
    let _g = faults::exclusive();
    let builds = Arc::new(AtomicU64::new(0));
    let (path, _handle, join) = start_daemon(
        "dispatch-fault",
        sleepy_registry(&builds, Duration::ZERO),
        Arc::new(ScheduleCache::in_memory()),
        |_| {},
    );
    faults::arm("served.dispatch", faults::Policy::ErrNth(1));

    let spec = GpuSpec::rtx4090();
    let op = OpSpec::gemv(512, 128);
    let mut c = Client::connect(&path).unwrap();
    match c.compile(&op, &spec, "sleep", None) {
        Err(ClientError::Remote { kind, message }) => {
            assert_eq!(kind, ErrKind::Internal);
            assert!(message.contains("served.dispatch"), "got: {message}");
        }
        other => panic!("expected a typed Internal error, got {other:?}"),
    }
    let (_k, _o) = c.compile(&op, &spec, "sleep", None).unwrap();

    c.shutdown().unwrap();
    join.join().unwrap();
}

// ---------------------------------------------------------------------
// Hang-ups: a client that leaves mid-build still banks the build.
// ---------------------------------------------------------------------

/// With the only build slot taken by client B's slow build, B hangs up
/// without reading the answer. The build runs to the end and banks, its
/// permit comes back (a fresh miss is admitted again), and the next
/// request for B's key is a hit.
#[test]
fn a_hung_up_clients_build_still_banks_and_returns_its_permit() {
    let _g = faults::exclusive();
    let builds = Arc::new(AtomicU64::new(0));
    let (path, handle, join) = start_daemon(
        "hang-up",
        sleepy_registry(&builds, Duration::from_millis(300)),
        Arc::new(ScheduleCache::in_memory()),
        |cfg| cfg.max_inflight = 1,
    );
    let spec = GpuSpec::rtx4090();
    let op_b = OpSpec::gemm(512, 256, 256);
    let op_c = OpSpec::gemm(1024, 512, 512);

    // Raw client B: handshake, send a compile, hang up mid-build without
    // reading the answer.
    let mut s = UnixStream::connect(&path).unwrap();
    write_frame(
        &mut s,
        &Request::Hello {
            proto: PROTO_VERSION,
            token: None,
        },
    )
    .unwrap();
    let hello: Response = read_frame(&mut s).unwrap();
    assert!(matches!(hello, Response::Hello { .. }));
    write_frame(
        &mut s,
        &Request::Compile {
            op: op_b.clone(),
            gpu: spec.clone(),
            method: "sleep".into(),
            budget: None,
        },
    )
    .unwrap();
    wait_until("B's build to start", Duration::from_secs(5), || {
        builds.load(Ordering::SeqCst) == 1
    });
    drop(s);

    // The permit comes back when B's build ends: a miss for another key
    // is shed while it runs, then admitted.
    let mut c = Client::connect(&path).unwrap();
    let t0 = Instant::now();
    let outcome = loop {
        match c.compile(&op_c, &spec, "sleep", None) {
            Ok((_, outcome)) => break outcome,
            Err(ClientError::Busy { .. }) => {
                assert!(t0.elapsed() < Duration::from_secs(5), "permit leaked");
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(e) => panic!("expected a build, got {e}"),
        }
    };
    assert_eq!(outcome, WireOutcome::Built);

    // B's build was banked for nobody in particular: its key now hits.
    let (_k, o) = c.compile(&op_b, &spec, "sleep", None).unwrap();
    assert_eq!(o, WireOutcome::Hit);
    assert_eq!(builds.load(Ordering::SeqCst), 2, "one build per key");
    assert_eq!(handle.stats().misses, 2);

    c.shutdown().unwrap();
    join.join().unwrap();
}

// ---------------------------------------------------------------------
// Store: torn writes, failed renames, and restart recovery.
// ---------------------------------------------------------------------

/// A failed append is logged and absorbed — the compile still answers —
/// and only the unpersisted record is missing after a restart.
#[test]
fn append_fault_never_fails_a_compile() {
    let _g = faults::exclusive();
    let path = tmpfile("append-fault");
    let spec = GpuSpec::rtx4090();
    let op1 = OpSpec::gemm(128, 64, 64);
    let op2 = OpSpec::gemv(256, 64);
    let builds = Arc::new(AtomicU64::new(0));
    let inner = SleepTuner {
        builds: builds.clone(),
        sleep: Duration::ZERO,
    };
    {
        let cache = Arc::new(ScheduleCache::open(&path).unwrap());
        let tuner = CachedTuner::new(&inner, cache);
        faults::arm("store.append", faults::Policy::ErrNth(1));
        let (_k, o) = tuner.compile_verified(&op1, &spec).unwrap();
        assert_eq!(o, Outcome::Built, "a dead store must not fail the build");
        assert_eq!(faults::hits("store.append"), 1);
        faults::disarm("store.append");
        let (_k, o) = tuner.compile_verified(&op2, &spec).unwrap();
        assert_eq!(o, Outcome::Built);
    }
    // Restart: only op2 survived — op1's record died on the failpoint.
    let cache = ScheduleCache::open(&path).unwrap();
    assert_eq!(cache.stats().loaded_from_disk, 1);
}

/// A crash mid-append (short write, no newline) is recovered on load by
/// truncating the torn tail; the next append lands on a clean boundary.
#[test]
fn partial_append_is_a_recoverable_torn_tail() {
    let _g = faults::exclusive();
    let path = tmpfile("partial-append");
    let store = Store::open(&path);
    let spec = GpuSpec::rtx4090();
    let r1 = rec_for(&OpSpec::gemm(128, 64, 64), &spec, "Chaos");
    let r2 = rec_for(&OpSpec::gemv(256, 64), &spec, "Chaos");

    store.append(&r1).unwrap();
    faults::arm("store.append", faults::Policy::Partial);
    store
        .append(&r2)
        .expect_err("a short write must surface as an error");
    assert_eq!(faults::hits("store.append"), 1);
    faults::disarm("store.append");

    let (recs, rep) = store.load().unwrap();
    assert_eq!(recs.len(), 1);
    assert_eq!(rep.recovered_truncated, 1, "torn tail dropped, counted");
    assert_eq!(rep.corrupt, 0, "a torn tail is recovery, not corruption");

    // Truncation restored the append boundary: the retry round-trips.
    store.append(&r2).unwrap();
    let (recs, rep) = store.load().unwrap();
    assert_eq!(recs.len(), 2);
    assert_eq!(rep.recovered_truncated, 0);
    assert_eq!(rep.corrupt, 0);
}

/// A failed rename aborts compaction without touching the live file and
/// without leaking the temp file; the retry compacts normally.
#[test]
fn failed_compaction_rename_leaves_the_store_intact() {
    let _g = faults::exclusive();
    let path = tmpfile("rename-fault");
    let store = Store::open(&path);
    let spec = GpuSpec::rtx4090();
    let r = rec_for(&OpSpec::gemm(192, 96, 96), &spec, "Chaos");
    store.append(&r).unwrap();
    store.append(&r).unwrap(); // superseded duplicate, compaction fodder

    faults::arm("store.rename", faults::Policy::ErrNth(1));
    store
        .compact()
        .expect_err("the rename failpoint must abort the pass");
    let (recs, _) = store.load().unwrap();
    assert_eq!(recs.len(), 2, "aborted compaction leaves the file alone");
    let tmp_prefix = format!("{}.tmp.", path.file_name().unwrap().to_string_lossy());
    assert!(
        std::fs::read_dir(path.parent().unwrap())
            .unwrap()
            .all(|e| !e
                .unwrap()
                .file_name()
                .to_string_lossy()
                .starts_with(&*tmp_prefix)),
        "failed compaction must clean up its tmp file"
    );

    faults::disarm("store.rename");
    let report = store.compact().unwrap();
    assert_eq!(report.kept, 1);
    assert_eq!(report.superseded, 1);
    let (recs, _) = store.load().unwrap();
    assert_eq!(recs.len(), 1);
}

/// Full kill-mid-write drill: a store with one good record and a torn
/// tail restarts into a daemon that reports the recovery and serves the
/// surviving schedule as a hit.
#[test]
fn daemon_restart_after_torn_write_recovers_and_serves() {
    let _g = faults::exclusive();
    let path = tmpfile("restart");
    let spec = GpuSpec::rtx4090();
    let op_good = OpSpec::gemm(256, 128, 128);
    {
        let store = Store::open(&path);
        // Keyed exactly as the daemon's CachedTuner would key it, so the
        // recovered record is a warm hit after restart.
        store.append(&rec_for(&op_good, &spec, "Sleep")).unwrap();
        faults::arm("store.append", faults::Policy::Partial);
        store
            .append(&rec_for(&OpSpec::gemv(512, 128), &spec, "Sleep"))
            .expect_err("the kill lands mid-write");
        faults::disarm("store.append");
    }

    // "Restart": reopen the store the way the daemon does on boot.
    let cache = Arc::new(ScheduleCache::open(&path).unwrap());
    let snap = cache.stats();
    assert_eq!(snap.loaded_from_disk, 1);
    assert_eq!(snap.recovered_truncated, 1);

    let builds = Arc::new(AtomicU64::new(0));
    let (sockpath, _handle, join) = start_daemon(
        "restart",
        sleepy_registry(&builds, Duration::ZERO),
        cache,
        |_| {},
    );
    let mut c = Client::connect(&sockpath).unwrap();
    let (_k, outcome) = c.compile(&op_good, &spec, "sleep", None).unwrap();
    assert_eq!(outcome, WireOutcome::Hit, "the survivor serves warm");
    assert_eq!(builds.load(Ordering::SeqCst), 0);
    let stats = c.stats().unwrap();
    assert_eq!(stats.cache.recovered_truncated, 1, "recovery is visible");

    c.shutdown().unwrap();
    join.join().unwrap();
}

// ---------------------------------------------------------------------
// Single-flight map and the evaluator.
// ---------------------------------------------------------------------

/// A builder that panics inside the single-flight slot aborts the flight
/// (waiters wake and retry) instead of wedging the key forever.
#[test]
fn builder_panic_does_not_wedge_the_flight() {
    let _g = faults::exclusive();
    let spec = GpuSpec::rtx4090();
    let op = OpSpec::gemm(320, 160, 160);
    let builds = Arc::new(AtomicU64::new(0));
    let inner = SleepTuner {
        builds: builds.clone(),
        sleep: Duration::ZERO,
    };
    let cache = Arc::new(ScheduleCache::in_memory());
    let tuner = CachedTuner::new(&inner, cache);

    faults::arm("map.build", faults::Policy::ErrNth(1));
    let r = catch_unwind(AssertUnwindSafe(|| tuner.compile_verified(&op, &spec)));
    assert!(r.is_err(), "the armed builder must panic");

    // Same key, same cache: the aborted flight was cleaned up.
    let (_k, o) = tuner.compile_verified(&op, &spec).unwrap();
    assert_eq!(o, Outcome::Built);
    assert_eq!(builds.load(Ordering::SeqCst), 1);
}

/// The evaluator failpoint surfaces as a typed `SimError::Injected`, and
/// clears with the policy.
#[test]
fn evaluator_fault_is_typed_and_transient() {
    let _g = faults::exclusive();
    let spec = GpuSpec::rtx4090();
    let e = Etir::initial(OpSpec::gemv(384, 96), &spec);

    faults::arm("simgpu.eval", faults::Policy::ErrNth(1));
    match simgpu::simulate(&e, &spec) {
        Err(SimError::Injected(m)) => assert!(m.contains("simgpu.eval")),
        other => panic!("expected an injected SimError, got {other:?}"),
    }
    simgpu::simulate(&e, &spec).expect("the nth-call policy fires once");
}

// ---------------------------------------------------------------------
// Property tests: arbitrary damage, longest-valid-prefix recovery.
// ---------------------------------------------------------------------

fn store_bytes(path: &PathBuf) -> Vec<u8> {
    let store = Store::open(path);
    let spec = GpuSpec::rtx4090();
    store
        .append(&rec_for(&OpSpec::gemm(64, 64, 64), &spec, "Chaos"))
        .unwrap();
    store
        .append(&rec_for(&OpSpec::gemv(128, 64), &spec, "Chaos"))
        .unwrap();
    store
        .append(&rec_for(&OpSpec::gemm(96, 32, 48), &spec, "Chaos"))
        .unwrap();
    std::fs::read(path).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// Truncating the store at *any* byte offset — a crash snapshot —
    /// loads exactly the records whose lines survive whole, counts the
    /// torn tail, and leaves a file the next append round-trips through.
    #[test]
    fn truncation_recovers_the_longest_valid_prefix(cut_raw in 0u64..u64::MAX) {
        let _g = faults::exclusive();
        let path = tmpfile("prop-truncate");
        let bytes = store_bytes(&path);
        let cut = 1 + (cut_raw as usize) % bytes.len();
        std::fs::write(&path, &bytes[..cut]).unwrap();

        let whole_lines = bytes[..cut].iter().filter(|&&b| b == b'\n').count();
        let has_torn_tail = bytes[cut - 1] != b'\n';

        let store = Store::open(&path);
        let (recs, rep) = store.load().unwrap();
        prop_assert_eq!(recs.len(), whole_lines);
        prop_assert_eq!(rep.recovered_truncated, usize::from(has_torn_tail));
        prop_assert_eq!(rep.corrupt, 0);

        // The truncated file is a working store again.
        let spec = GpuSpec::rtx4090();
        store.append(&rec_for(&OpSpec::gemm(80, 40, 40), &spec, "Chaos")).unwrap();
        let (recs, rep) = store.load().unwrap();
        prop_assert_eq!(recs.len(), whole_lines + 1);
        prop_assert_eq!(rep.recovered_truncated, 0);
        prop_assert_eq!(rep.corrupt, 0);
    }

    /// Flipping any single byte anywhere in the file never panics the
    /// loader, never invents records, and never bricks the store: a
    /// follow-up append is always readable.
    #[test]
    fn byte_flip_is_survivable_and_the_store_stays_writable(
        pos_raw in 0u64..u64::MAX,
        flip in 1u8..=255,
    ) {
        let _g = faults::exclusive();
        let path = tmpfile("prop-flip");
        let mut bytes = store_bytes(&path);
        let pos = (pos_raw as usize) % bytes.len();
        bytes[pos] ^= flip;
        std::fs::write(&path, &bytes).unwrap();

        let store = Store::open(&path);
        let (recs, rep) = store.load().unwrap();
        prop_assert!(recs.len() <= 3, "damage must never add records");
        // One flipped byte can destroy at most two records (a newline
        // flip merges its neighbours into one unparsable line).
        prop_assert!(!recs.is_empty(), "one flip cannot take out all three: {rep:?}");

        let spec = GpuSpec::rtx4090();
        let probe = schedcache::store::record(
            CacheKey::new(&OpSpec::gemm(112, 56, 56), &spec, "Chaos"),
            "fresh-probe".into(),
            "Chaos",
            &kernel_for(&OpSpec::gemm(112, 56, 56), &spec),
        );
        store.append(&probe).unwrap();
        let (recs, _) = store.load().unwrap();
        prop_assert!(
            recs.iter().any(|r| r.op_label == "fresh-probe"),
            "the store must stay appendable after damage"
        );
    }
}
