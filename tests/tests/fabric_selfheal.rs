//! The self-healing drill: kill a daemon mid-batch, watch the SWIM
//! detector confirm it dead, restart it cold on the *same* port, and
//! watch the cluster heal — membership converges back to all-alive,
//! anti-entropy repair rebuilds the wiped cache to digest equality, and
//! every repaired kernel passed the `RemotePeer` provenance gate on the
//! way in.
//!
//! Also here: a daemon with no gossip agent answers the gossip frames
//! with empty (disabled, not broken).

use fabric::{Detector, FabricClient, GossipConfig, MemberState, MemberTable};
use hardware::GpuSpec;
use served::{
    BreakerConfig, Client, ClientConfig, DrainReport, MethodRegistry, Server, ServerConfig,
    ServerHandle,
};
use simgpu::Tuner;
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
    // Short cooldown: the drill wants the breaker to half-open within the
    // test's patience, not 60s.
    let fabric = FabricClient::new(&peers, "roller", None, &fallback)
        .with_config(fast_client())
        .with_breaker(BreakerConfig {
            failure_threshold: 1,
            cooldown: Duration::from_millis(200),
            max_cooldown: Duration::from_millis(400),
        })
        .with_replicas(2)
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

    // Clean failover only: the survivors answered everything.
    let mid = fabric.report();
    assert_eq!(mid.local, 0, "no compile fell back local during the kill");
    assert_eq!(mid.rejected, 0, "every remote kernel passed the verifier");

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

    let done = fabric.report();
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
