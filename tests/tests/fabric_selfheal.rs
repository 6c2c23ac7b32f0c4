//! The self-healing drill: kill a daemon mid-batch, watch the SWIM
//! detector confirm it dead, restart it cold on the *same* port, and
//! watch the cluster heal — membership converges back to all-alive,
//! anti-entropy repair rebuilds the wiped cache to digest equality,
//! hinted handoff replays the writes it missed, and every repaired
//! kernel passed the `RemotePeer` provenance gate on the way in.
//!
//! Also here, the crash-safety satellites:
//! * a daemon with no gossip agent answers the gossip frames with empty
//!   (disabled, not broken);
//! * hint-log torn tails truncate to exactly the intact prefix
//!   (proptest over every cut point), and take/requeue interleavings
//!   deliver each hint exactly once.

use fabric::{Detector, FabricClient, GossipConfig, HintLog, MemberState, MemberTable};
use hardware::GpuSpec;
use proptest::prelude::*;
use served::{
    BreakerConfig, Client, ClientConfig, DrainReport, MethodRegistry, Server, ServerConfig,
    ServerHandle,
};
use simgpu::Tuner;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tensor_expr::OpSpec;

/// Bind (but do not yet run) a daemon over the given cache, so the
/// test can learn every endpoint before wiring the membership tables.
fn bind_daemon(
    addr: &str,
    cache: Arc<schedcache::ScheduleCache>,
    crash_site: Option<&str>,
) -> Server {
    let mut cfg = ServerConfig::new(addr);
    cfg.workers = 4;
    cfg.max_inflight = 16;
    cfg.crash_site = crash_site.map(String::from);
    Server::bind(cfg, cache, MethodRegistry::standard()).unwrap()
}

/// Attach a fresh gossip table for the full peer list and start serving.
fn launch(
    server: Server,
    peers: &[String],
) -> (
    Arc<MemberTable>,
    ServerHandle,
    std::thread::JoinHandle<DrainReport>,
) {
    let me = server.endpoint().to_string();
    let table = MemberTable::new(&me, peers);
    server.attach_cluster(table.clone());
    let handle = server.handle();
    let join = std::thread::spawn(move || server.run().unwrap());
    (table, handle, join)
}

/// Probe policy for test detectors: fail fast, confirm a suspect on the
/// very next sweep (zero suspicion timeout), repair only on
/// startup/rejoin so every anti-entropy pass in the drill is explicit.
fn detector_cfg() -> GossipConfig {
    GossipConfig {
        interval: Duration::from_millis(10),
        suspicion_timeout: Duration::ZERO,
        indirect_probes: 2,
        repair_every: 0,
        client: ClientConfig {
            connect_timeout: Duration::from_millis(200),
            request_timeout: Duration::from_millis(2_000),
            retries: 1,
            backoff_base: Duration::from_millis(1),
            connect_budget: Duration::from_millis(300),
            ..Default::default()
        },
    }
}

fn fast_client() -> ClientConfig {
    ClientConfig {
        retries: 1,
        connect_timeout: Duration::from_millis(300),
        backoff_base: Duration::from_millis(1),
        ..Default::default()
    }
}

fn state_of(t: &MemberTable, ep: &str) -> Option<MemberState> {
    t.snapshot()
        .into_iter()
        .find(|(e, _)| e == ep)
        .map(|(_, i)| i.state)
}

fn tmp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "gensor-selfheal-{}-{name}.jsonl",
        std::process::id()
    ))
}

/// The acceptance drill from the issue, end to end.
#[test]
fn kill_restart_rejoin_heals_the_cluster() {
    let _g = faults::exclusive();
    let crash_site = "fabric.selfheal.crash";
    let cache_a = Arc::new(schedcache::ScheduleCache::in_memory());
    let cache_b = Arc::new(schedcache::ScheduleCache::in_memory());
    let cache_c = Arc::new(schedcache::ScheduleCache::in_memory());

    let srv_a = bind_daemon("tcp://127.0.0.1:0", cache_a.clone(), None);
    let srv_b = bind_daemon("tcp://127.0.0.1:0", cache_b.clone(), Some(crash_site));
    let srv_c = bind_daemon("tcp://127.0.0.1:0", cache_c.clone(), None);
    let ep_a = srv_a.endpoint().to_string();
    let ep_b = srv_b.endpoint().to_string();
    let ep_c = srv_c.endpoint().to_string();
    let peers = vec![ep_a.clone(), ep_b.clone(), ep_c.clone()];

    let (table_a, handle_a, join_a) = launch(srv_a, &peers);
    let (_table_b, _handle_b, join_b) = launch(srv_b, &peers);
    let (table_c, handle_c, join_c) = launch(srv_c, &peers);

    let det_a = Detector::new(table_a.clone(), detector_cfg()).with_cache(cache_a.clone());
    let det_c = Detector::new(table_c.clone(), detector_cfg()).with_cache(cache_c.clone());

    // Round zero: everyone probes everyone, nobody is suspect, and the
    // startup anti-entropy pass over three empty caches is a no-op.
    det_a.tick();
    det_c.tick();
    assert!(table_a.dead_peers().is_empty());
    assert!(table_c.dead_peers().is_empty());

    let fallback = roller::Roller::default();
    let hint_path = tmp_path("drill");
    std::fs::remove_file(&hint_path).ok();
    let hints = Arc::new(HintLog::open(&hint_path, 64).unwrap());
    // Short cooldown: the drill wants the breaker to half-open (and the
    // hint replay to go through) within the test's patience, not 60s.
    let fabric = FabricClient::new(&peers, "roller", None, &fallback)
        .with_config(fast_client())
        .with_breaker(BreakerConfig {
            failure_threshold: 1,
            cooldown: Duration::from_millis(200),
            max_cooldown: Duration::from_millis(400),
        })
        .with_replicas(2)
        .with_hints(hints.clone())
        .with_gossip(table_a.clone());

    let spec = GpuSpec::rtx4090();
    let ops: Vec<OpSpec> = (0..20)
        .map(|i| OpSpec::gemm(64 + 16 * i, 64, 128))
        .collect();

    // Healthy first half: every compile lands on some daemon and
    // write-through replicates it to its backup.
    for op in &ops[..8] {
        fabric.compile(op, &spec);
    }
    assert_eq!(fabric.report().local, 0, "healthy cluster: all remote");

    // Kill B mid-batch: the failpoint crashes its accept loop on the
    // next connection it sees.
    faults::arm(crash_site, faults::Policy::ErrFrom(1));
    for op in &ops[8..] {
        fabric.compile(op, &spec);
    }
    let report_b = join_b.join().unwrap();
    assert_eq!(report_b.reason, "crash", "B really died mid-batch");
    faults::disarm(crash_site);

    // Clean failover only: the survivors answered everything, and the
    // writes B missed are queued as hints rather than dropped. Roughly
    // two thirds of the keys have B in their replica set, so twelve
    // post-crash compiles cannot all have missed it.
    let mid = fabric.report();
    assert_eq!(mid.local, 0, "no compile fell back local during the kill");
    assert_eq!(mid.rejected, 0, "every remote kernel passed the verifier");
    assert!(mid.hints_queued >= 1, "B's missed writes queued: {mid:?}");
    assert!(!hints.is_empty());

    // One detector round confirms the death: the direct probe fails, no
    // relay can vouch, and the zero suspicion timeout lets the same
    // tick's sweep promote suspect -> dead.
    det_a.tick();
    det_c.tick();
    assert_eq!(
        table_a.dead_peers(),
        vec![ep_b.clone()],
        "A confirmed B dead"
    );
    assert_eq!(
        table_c.dead_peers(),
        vec![ep_b.clone()],
        "C confirmed B dead"
    );
    assert!(
        !fabric.membership().live_peers().contains(&ep_b),
        "confirmed death evicts B from the routing ring"
    );

    // Compiles keep flowing with B's key range remapped to the others.
    for op in &ops[..4] {
        fabric.compile(op, &spec);
    }
    assert_eq!(fabric.report().local, 0);

    // Cold restart on the SAME endpoint (SO_REUSEADDR makes the rebind
    // immediate) with a WIPED cache — the worst-case rejoin.
    let cache_b2 = Arc::new(schedcache::ScheduleCache::in_memory());
    let deadline = Instant::now() + Duration::from_secs(5);
    let srv_b2 = loop {
        let mut cfg = ServerConfig::new(&ep_b);
        cfg.workers = 4;
        cfg.max_inflight = 16;
        match Server::bind(cfg, cache_b2.clone(), MethodRegistry::standard()) {
            Ok(s) => break s,
            Err(e) if Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(50));
                let _ = e;
            }
            Err(e) => panic!("could not rebind {ep_b}: {e}"),
        }
    };
    assert_eq!(srv_b2.endpoint().to_string(), ep_b);
    let (table_b2, handle_b2, join_b2) = launch(srv_b2, &peers);
    let det_b2 = Detector::new(table_b2.clone(), detector_cfg()).with_cache(cache_b2.clone());

    // B's first tick runs its startup anti-entropy pass: it pulls the
    // union of the survivors' caches into its empty one. A's and C's
    // next probes see B answering again — a rejoin — which triggers
    // their own repair pass, converging everyone on the union.
    det_b2.tick();
    assert!(cache_b2.digest().count > 0, "startup sync repopulated B");
    det_a.tick();
    det_c.tick();
    det_b2.tick();
    det_a.tick();
    det_c.tick();
    assert!(table_a.dead_peers().is_empty(), "A sees B alive again");
    assert!(table_c.dead_peers().is_empty(), "C sees B alive again");
    assert_eq!(state_of(&table_a, &ep_b), Some(MemberState::Alive));
    // Gossip has cleared B; the breaker readmits it once the cooldown it
    // set at death time runs out — recovery is metered by design, so
    // give it that window rather than racing it.
    let deadline = Instant::now() + Duration::from_secs(5);
    while !fabric.membership().live_peers().contains(&ep_b) && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(25));
    }
    assert!(
        fabric.membership().live_peers().contains(&ep_b),
        "rejoin restores B to the routing ring"
    );

    // Digest equality: all three daemons hold the same fingerprint set.
    let (da, db, dc) = (cache_a.digest(), cache_b2.digest(), cache_c.digest());
    assert!(da.count > 0);
    assert_eq!(da, db, "A and restarted B converged");
    assert_eq!(da, dc, "A and C converged");

    // Provenance: everything repair installed into B went through the
    // verifier at the RemotePeer trust boundary and passed.
    assert_eq!(
        cache_b2.stats().verifier_rejected,
        0,
        "no repaired kernel was refused (they are all legal)"
    );

    // Hinted handoff drains: once B's breaker lets a probe through, the
    // queued writes replay (idempotent puts — repair may have beaten
    // them to it, which is fine).
    let deadline = Instant::now() + Duration::from_secs(10);
    while !hints.is_empty() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(100));
        fabric.replay_hints();
    }
    assert!(hints.is_empty(), "hint queue drained to zero");
    let done = fabric.report();
    assert!(done.hints_replayed >= 1, "replays counted: {done:?}");
    assert_eq!(done.local, 0, "end to end, no compile fell back local");
    assert_eq!(done.rejected, 0);

    // The healed cluster still answers.
    fabric.compile(&OpSpec::gemm(96, 96, 96), &spec);
    assert_eq!(fabric.report().local, 0);

    handle_a.shutdown();
    handle_b2.shutdown();
    handle_c.shutdown();
    join_a.join().unwrap();
    join_b2.join().unwrap();
    join_c.join().unwrap();
    std::fs::remove_file(&hint_path).ok();
}

/// A daemon with no gossip agent attached answers the gossip frames
/// with *empty* — disabled, not broken.
#[test]
fn a_daemon_without_a_gossip_agent_answers_gossip_frames_empty() {
    let cache = Arc::new(schedcache::ScheduleCache::in_memory());
    let server = bind_daemon("tcp://127.0.0.1:0", cache, None);
    let endpoint = server.endpoint().to_string();
    let handle = server.handle();
    let join = std::thread::spawn(move || server.run().unwrap());

    let mut c = Client::connect_with(&endpoint, fast_client()).unwrap();
    assert!(c.members().unwrap().is_empty(), "no agent: empty view");
    let acked = c.gossip("tcp://127.0.0.1:9999", 0, vec![]).unwrap();
    assert!(acked.is_empty(), "no agent: empty gossip ack");
    drop(c);

    handle.shutdown();
    join.join().unwrap();
}

/// One template hint the byte-level proptests can clone cheaply (the
/// log never interprets the kernel; compiling per case would dominate
/// the proptest's runtime).
fn template_hint() -> fabric::Hint {
    static KERNEL: std::sync::OnceLock<fabric::Hint> = std::sync::OnceLock::new();
    KERNEL
        .get_or_init(|| {
            let op = OpSpec::gemm(64, 64, 64);
            let gpu = GpuSpec::rtx4090();
            let kernel = roller::Roller::default().compile(&op, &gpu);
            fabric::Hint {
                target: "tcp://127.0.0.1:1".into(),
                op,
                gpu,
                method: "roller".into(),
                kernel: served::WireKernel::from(&kernel),
            }
        })
        .clone()
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24,
        ..ProptestConfig::default()
    })]

    /// Chop the hint spool at EVERY byte offset: recovery must keep
    /// exactly the frames whose bytes are complete in the prefix (a
    /// frame missing only its trailing newline still validates — the
    /// CRC covers the payload, not the terminator) and truncate the
    /// rest durably, so the damage never shadows later appends.
    #[test]
    fn torn_tails_truncate_to_exactly_the_intact_prefix(
        n in 1usize..5,
        frac in 0.0f64..1.0,
    ) {
        let path = tmp_path(&format!("torn-prop-{n}-{}", (frac * 1e6) as u64));
        std::fs::remove_file(&path).ok();
        let log = HintLog::open(&path, 16).unwrap();
        for i in 0..n {
            let mut h = template_hint();
            h.method = format!("m{i}");
            prop_assert!(log.enqueue(h));
        }
        drop(log);

        let body = std::fs::read_to_string(&path).unwrap();
        let cut = ((body.len() as f64) * frac) as usize;
        std::fs::write(&path, &body[..cut]).unwrap();

        // A line is intact when every byte but (at most) its '\n' made
        // it; recovery stops at the first line that is not.
        let mut expected = 0usize;
        let mut end = 0usize;
        for line in body.lines() {
            end += line.len() + 1;
            if cut >= end - 1 {
                expected += 1;
            } else {
                break;
            }
        }

        let log = HintLog::open(&path, 16).unwrap();
        prop_assert_eq!(log.len(), expected);
        // The truncation persisted: a second open parses cleanly to the
        // same queue (no half-frame left to trip over).
        drop(log);
        prop_assert_eq!(HintLog::open(&path, 16).unwrap().len(), expected);
        std::fs::remove_file(&path).ok();
    }

    /// Arbitrary interleavings of enqueue / take / partial-delivery /
    /// requeue never duplicate and never lose a hint: when the queue
    /// finally drains, every hint was delivered exactly once.
    #[test]
    fn take_requeue_interleavings_deliver_each_hint_exactly_once(
        script in proptest::collection::vec((0u8..3, 0usize..4), 1..24),
    ) {
        let log = HintLog::in_memory(256);
        let targets = ["tcp://a", "tcp://b"];
        let mut queued = 0usize;
        let mut delivered: Vec<usize> = Vec::new();
        for (kind, arg) in script {
            match kind {
                // Queue a new uniquely-numbered hint.
                0 => {
                    let mut h = template_hint();
                    h.target = targets[arg % 2].into();
                    h.method = format!("m{queued}");
                    prop_assert!(log.enqueue(h));
                    queued += 1;
                }
                // Replay a target, "crashing" after `arg` deliveries.
                1 => {
                    let mut pending = log.take(targets[arg % 2]);
                    let ok = pending.len().min(arg);
                    for h in pending.drain(..ok) {
                        delivered.push(h.method[1..].parse().unwrap());
                    }
                    log.requeue(pending);
                }
                // Replay a target to completion.
                _ => {
                    for h in log.take(targets[arg % 2]) {
                        delivered.push(h.method[1..].parse().unwrap());
                    }
                }
            }
        }
        for target in targets {
            for h in log.take(target) {
                delivered.push(h.method[1..].parse().unwrap());
            }
        }
        delivered.sort_unstable();
        let every_once: Vec<usize> = (0..queued).collect();
        prop_assert_eq!(delivered, every_once);
    }
}

/// Replay against a real daemon: every queued hint lands as one put,
/// and a duplicate replay is an idempotent no-op on the cache.
#[test]
fn replayed_hints_land_exactly_once_on_the_daemon() {
    let cache = Arc::new(schedcache::ScheduleCache::in_memory());
    let server = bind_daemon("tcp://127.0.0.1:0", cache.clone(), None);
    let endpoint = server.endpoint().to_string();
    let handle = server.handle();
    let join = std::thread::spawn(move || server.run().unwrap());

    let tuner = roller::Roller::default();
    let gpu = GpuSpec::rtx4090();
    let hints = Arc::new(HintLog::in_memory(16));
    let ops: Vec<OpSpec> = (1..4).map(|i| OpSpec::gemm(64 * i, 64, 64)).collect();
    for op in &ops {
        let kernel = tuner.compile(op, &gpu);
        assert!(hints.enqueue(fabric::Hint {
            target: endpoint.clone(),
            op: op.clone(),
            gpu: gpu.clone(),
            method: "roller".into(),
            kernel: served::WireKernel::from(&kernel),
        }));
    }

    let fallback = roller::Roller::default();
    let fabric = FabricClient::new(std::slice::from_ref(&endpoint), "roller", None, &fallback)
        .with_config(fast_client())
        .with_hints(hints.clone());
    let (replayed, requeued) = fabric.replay_hints();
    assert_eq!((replayed, requeued), (3, 0));
    assert!(hints.is_empty());
    assert_eq!(cache.digest().count, 3, "every hint installed");

    // Queue one of them again: the replay goes through (the daemon
    // answers), but the cache does not grow — `Put` is idempotent.
    let kernel = tuner.compile(&ops[0], &gpu);
    hints.enqueue(fabric::Hint {
        target: endpoint.clone(),
        op: ops[0].clone(),
        gpu: gpu.clone(),
        method: "roller".into(),
        kernel: served::WireKernel::from(&kernel),
    });
    let (replayed, requeued) = fabric.replay_hints();
    assert_eq!((replayed, requeued), (1, 0));
    assert_eq!(cache.digest().count, 3, "duplicate replay was a no-op");

    let mut c = Client::connect_with(&endpoint, fast_client()).unwrap();
    assert_eq!(c.stats().unwrap().puts, 4, "three installs + one no-op");
    drop(c);

    handle.shutdown();
    join.join().unwrap();
}
