//! The self-healing drill: kill a daemon mid-batch, restart it cold on
//! the *same* port, and watch the cluster heal with nothing but breakers
//! and digest repair — the restarted daemon's start-up pass refills it
//! from the survivors, `converge_cluster` brings all three digests level,
//! every repaired kernel passed the `RemotePeer` provenance gate on the
//! way in, and the client's breaker readmits the daemon on its own.
//!
//! The drill waits only on joins and deadline-bounded polls.

use fabric::{converge_cluster, spawn_startup_sync, FabricClient};
use hardware::GpuSpec;
use schedcache::{CacheKey, ScheduleCache};
use served::{BreakerConfig, ClientConfig, MethodRegistry, Server, ServerConfig};
use simgpu::Tuner;
use std::collections::HashSet;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tensor_expr::OpSpec;

fn bind_daemon(
    addr: &str,
    cache: Arc<ScheduleCache>,
    crash_site: Option<&str>,
) -> std::io::Result<Server> {
    let mut cfg = ServerConfig::new(addr);
    cfg.max_inflight = 16;
    cfg.crash_site = crash_site.map(String::from);
    Server::bind(cfg, cache, MethodRegistry::standard())
}

fn fast_client() -> ClientConfig {
    ClientConfig {
        retries: 1,
        connect_timeout: Duration::from_millis(300),
        backoff_base: Duration::from_millis(1),
        ..Default::default()
    }
}

/// Every key resident in `cache`.
fn keys(cache: &ScheduleCache) -> HashSet<CacheKey> {
    (0..schedcache::DIGEST_SHARDS)
        .flat_map(|shard| cache.keys_in_shard(shard))
        .collect()
}

/// Poll `done` until it holds or `limit` passes; returns whether it held.
fn poll_until(limit: Duration, mut done: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + limit;
    while !done() {
        if Instant::now() >= deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    true
}

#[test]
fn kill_restart_rejoin_heals_the_cluster() {
    let _g = faults::exclusive();
    let crash_site = "fabric.selfheal.crash";
    let cache_a = Arc::new(ScheduleCache::in_memory());
    let cache_b = Arc::new(ScheduleCache::in_memory());
    let cache_c = Arc::new(ScheduleCache::in_memory());

    let srv_a = bind_daemon("tcp://127.0.0.1:0", cache_a.clone(), None).unwrap();
    let srv_b = bind_daemon("tcp://127.0.0.1:0", cache_b, Some(crash_site)).unwrap();
    let srv_c = bind_daemon("tcp://127.0.0.1:0", cache_c.clone(), None).unwrap();
    let ep_a = srv_a.endpoint().to_string();
    let ep_b = srv_b.endpoint().to_string();
    let ep_c = srv_c.endpoint().to_string();
    let peers = vec![ep_a.clone(), ep_b.clone(), ep_c.clone()];
    let (handle_a, handle_c) = (srv_a.handle(), srv_c.handle());
    let join_a = std::thread::spawn(move || srv_a.run().unwrap());
    let join_b = std::thread::spawn(move || srv_b.run().unwrap());
    let join_c = std::thread::spawn(move || srv_c.run().unwrap());

    let fallback = roller::Roller::default();
    // One transport failure opens a circuit; the short cooldown lets the
    // breaker readmit the restarted daemon within the drill's patience.
    let fabric = FabricClient::new(&peers, "roller", None, &fallback)
        .with_config(fast_client())
        .with_breaker(BreakerConfig {
            failure_threshold: 1,
            cooldown: Duration::from_millis(200),
            max_cooldown: Duration::from_millis(400),
        })
        .with_replicas(2);

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

    // Kill B mid-batch: the failpoint crashes its accept loop.
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

    // Compiles keep flowing while B is down: its breaker routes around
    // it, and its keys' replicas answer.
    for op in &ops[..4] {
        fabric.compile(op, &spec);
    }
    assert_eq!(fabric.report().local, 0, "B down: still all remote");

    // Cold restart on the SAME endpoint (SO_REUSEADDR makes the rebind
    // immediate) with a WIPED cache — the worst-case rejoin.
    let cache_b2 = Arc::new(ScheduleCache::in_memory());
    let mut rebound = None;
    let bound = poll_until(Duration::from_secs(5), || {
        rebound = bind_daemon(&ep_b, cache_b2.clone(), None).ok();
        rebound.is_some()
    });
    assert!(bound, "could not rebind {ep_b}");
    let srv_b2 = rebound.unwrap();
    assert_eq!(srv_b2.endpoint().to_string(), ep_b);
    // The daemon's start-up pass runs beside its accept loop, as `serve
    // --peers` runs it.
    let sync = spawn_startup_sync(cache_b2.clone(), &ep_b, &peers, None);
    let handle_b2 = srv_b2.handle();
    let join_b2 = std::thread::spawn(move || srv_b2.run().unwrap());
    let repaired = sync.join().unwrap();
    assert_eq!(
        repaired.peers_contacted, 2,
        "A and C answered: {repaired:?}"
    );
    assert_eq!(repaired.rejected, 0, "{repaired:?}");

    // B now holds every key either survivor holds, and every repaired
    // kernel passed the verifier at the RemotePeer trust boundary.
    let held_b = keys(&cache_b2);
    let survivors: HashSet<CacheKey> = keys(&cache_a).union(&keys(&cache_c)).copied().collect();
    assert!(!survivors.is_empty());
    assert!(
        survivors.is_subset(&held_b),
        "B lacks {} of the survivors' keys",
        survivors.difference(&held_b).count()
    );
    assert_eq!(cache_b2.stats().verifier_rejected, 0);

    // The operator's fleet repair then levels every digest.
    let converged = converge_cluster(&peers, &fast_client());
    assert!(converged.converged, "{converged:?}");
    assert_eq!(converged.peers, 3);
    let (da, db, dc) = (cache_a.digest(), cache_b2.digest(), cache_c.digest());
    assert!(da.count > 0);
    assert_eq!(da, db, "A and restarted B converged");
    assert_eq!(da, dc, "A and C converged");

    // The breaker readmits B once its cooldown runs out.
    assert!(
        poll_until(Duration::from_secs(5), || fabric
            .membership()
            .live_peers()
            .contains(&ep_b)),
        "B's breaker never readmitted it"
    );

    // Every earlier key is now a remote hit somewhere — B included.
    let before = fabric.report();
    for op in &ops {
        fabric.compile(op, &spec);
    }
    let after = fabric.report();
    assert_eq!(after.local, 0, "end to end, no compile fell back local");
    assert_eq!(after.hits - before.hits, ops.len() as u64, "{after:?}");
    assert_eq!(after.rejected, 0);

    handle_a.shutdown();
    handle_b2.shutdown();
    handle_c.shutdown();
    join_a.join().unwrap();
    join_b2.join().unwrap();
    join_c.join().unwrap();
}
