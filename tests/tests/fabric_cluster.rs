//! The fabric chaos drill: three in-process daemons on loopback TCP act
//! as one schedule cache, one is "SIGKILL'd" mid-batch by a failpoint in
//! its accept loop, and the batch still completes with verifier-clean
//! schedules — the ring reroutes the dead node's keys to the survivors.
//!
//! Also here: the token-auth handshake contract (satellite of the same
//! PR) — a bad token is refused with a *typed* error, never a silent
//! retry or downgrade.

use fabric::{cluster_status, FabricClient};
use hardware::GpuSpec;
use schedcache::ScheduleCache;
use served::{
    BreakerConfig, BreakerState, Client, ClientConfig, ClientError, DrainReport, ErrKind,
    MethodRegistry, Server, ServerConfig, ServerHandle,
};
use simgpu::Tuner;
use std::sync::Arc;
use std::time::Duration;
use tensor_expr::OpSpec;

/// A daemon booted by [`start_tcp`]: its resolved endpoint, a shutdown
/// handle, the drain-report join, and its cache.
type Daemon = (
    String,
    ServerHandle,
    std::thread::JoinHandle<DrainReport>,
    Arc<ScheduleCache>,
);

/// Boot a daemon on a kernel-assigned loopback TCP port.
fn start_tcp(tweak: impl FnOnce(&mut ServerConfig)) -> Daemon {
    let mut cfg = ServerConfig::new("tcp://127.0.0.1:0");
    cfg.max_inflight = 16;
    tweak(&mut cfg);
    let cache = Arc::new(ScheduleCache::in_memory());
    let server = Server::bind(cfg, cache.clone(), MethodRegistry::standard()).unwrap();
    let endpoint = server.endpoint().to_string();
    let handle = server.handle();
    let join = std::thread::spawn(move || server.run().unwrap());
    (endpoint, handle, join, cache)
}

/// Fail fast when a peer is down; the drill depends on quick failover.
fn fast_client() -> ClientConfig {
    ClientConfig {
        retries: 1,
        connect_timeout: Duration::from_millis(300),
        backoff_base: Duration::from_millis(1),
        ..Default::default()
    }
}

/// One transport failure opens the circuit (and keeps it open for the
/// rest of the test, so the dead node stays out of the ring).
fn hair_trigger() -> BreakerConfig {
    BreakerConfig {
        failure_threshold: 1,
        cooldown: Duration::from_secs(60),
        max_cooldown: Duration::from_secs(60),
    }
}

#[test]
fn three_daemon_batch_survives_a_mid_batch_crash() {
    let _g = faults::exclusive();
    let crash_site = "fabric.cluster.crash";
    let (ep_a, handle_a, join_a, _) = start_tcp(|_| {});
    let (ep_b, _handle_b, join_b, _) = start_tcp(|cfg| {
        cfg.crash_site = Some(crash_site.to_string());
    });
    let (ep_c, handle_c, join_c, _) = start_tcp(|_| {});
    let peers = vec![ep_a.clone(), ep_b.clone(), ep_c.clone()];

    let fallback = roller::Roller::default();
    let fabric = FabricClient::new(&peers, "roller", None, &fallback)
        .with_config(fast_client())
        .with_breaker(hair_trigger());

    let spec = GpuSpec::rtx4090();
    let ops: Vec<OpSpec> = (0..20)
        .map(|i| OpSpec::gemm(64 + 16 * i, 64, 128))
        .collect();

    // First half of the batch against the healthy cluster…
    let mut kernels = Vec::new();
    for op in &ops[..8] {
        kernels.push((op.clone(), fabric.compile(op, &spec)));
    }
    assert_eq!(fabric.report().remote, 8, "healthy cluster answers remote");

    // …then the simulated SIGKILL: the failpoint fires in B's accept
    // loop, which drops the listener and abandons every connection
    // without a goodbye. Joining its thread makes the kill deterministic.
    faults::arm(crash_site, faults::Policy::ErrFrom(1));
    let report_b = join_b.join().unwrap();
    faults::disarm(crash_site);
    assert_eq!(report_b.reason, "crash");

    // The rest of the batch must complete remote-only: keys whose
    // primary died fail over to a replica, B's breaker opens, and the
    // ring rebuild routes around the corpse.
    for op in &ops[8..] {
        kernels.push((op.clone(), fabric.compile(op, &spec)));
    }
    let r = fabric.report();
    assert_eq!(r.remote, 20, "every compile answered by a live daemon");
    assert_eq!(r.local, 0, "no compile fell back local: {r:?}");
    assert!(
        fabric.membership().open_peers().contains(&ep_b.as_str()),
        "the dead node's breaker must be open"
    );
    assert!(
        !fabric.membership().ring().nodes().contains(&ep_b),
        "the dead node must be out of the routing ring"
    );

    // Every schedule in the batch is verifier-clean.
    for (op, kernel) in &kernels {
        let report = verify::verify_schedule(&kernel.etir, Some(&spec));
        assert!(report.is_legal(), "illegal schedule for {}", op.label());
    }

    // `cluster status` sees the outage: 2 of 3 up, the corpse DOWN.
    let status = cluster_status(&peers, &fast_client());
    assert_eq!((status.up, status.total), (2, 3));
    let dead = status.peers.iter().find(|p| p.endpoint == ep_b).unwrap();
    assert!(!dead.up);
    assert!(dead.error.is_some());
    assert!(status.render().contains("DOWN"));

    handle_a.shutdown();
    handle_c.shutdown();
    join_a.join().unwrap();
    join_c.join().unwrap();
}

#[test]
fn write_through_replicates_to_the_replica_set() {
    // Compiles through daemons: must not overlap the tamper drill below,
    // whose armed site any daemon in this process would consume.
    let _g = faults::exclusive();
    let (ep_a, handle_a, join_a, cache_a) = start_tcp(|_| {});
    let (ep_b, handle_b, join_b, cache_b) = start_tcp(|_| {});
    let peers = vec![ep_a.clone(), ep_b.clone()];

    let fallback = roller::Roller::default();
    let fabric = FabricClient::new(&peers, "roller", None, &fallback).with_config(fast_client());
    let spec = GpuSpec::rtx4090();
    let op = OpSpec::gemm(384, 128, 256);
    let _ = fabric.compile(&op, &spec);
    let r = fabric.report();
    assert_eq!(r.remote, 1);
    assert_eq!(r.repairs, 1, "the non-primary replica was missing the key");

    // Both daemons now hold the kernel, under the canonical method name
    // every daemon keys its cache by.
    for (ep, cache) in [(&ep_a, &cache_a), (&ep_b, &cache_b)] {
        assert!(
            cache.peek(&op, &spec, "Roller").is_some(),
            "{ep} is missing the replicated kernel"
        );
    }

    // A second compile of the same op is a pure cache hit somewhere.
    let _ = fabric.compile(&op, &spec);
    let r = fabric.report();
    assert_eq!(r.hits, 1, "{r:?}");

    handle_a.shutdown();
    handle_b.shutdown();
    join_a.join().unwrap();
    join_b.join().unwrap();
}

#[test]
fn tampered_remote_schedule_is_rejected_at_the_trust_boundary() {
    // Two daemons; the `served.reply.tamper` failpoint corrupts exactly
    // one outgoing schedule *after* the answering daemon's own verify
    // gate passed it — the wire frame stays well-formed, so only the
    // fabric's cross-boundary re-verification can catch it.
    let _g = faults::exclusive();
    let site = "served.reply.tamper";
    let (ep_a, handle_a, join_a, _) = start_tcp(|_| {});
    let (ep_b, handle_b, join_b, _) = start_tcp(|_| {});
    let peers = vec![ep_a.clone(), ep_b.clone()];

    let fallback = roller::Roller::default();
    let fabric = FabricClient::new(&peers, "roller", None, &fallback)
        .with_config(fast_client())
        .with_breaker(hair_trigger());
    let spec = GpuSpec::rtx4090();
    let op = OpSpec::gemm(320, 128, 256);

    faults::arm(site, faults::Policy::ErrNth(1));
    let kernel = fabric.compile(&op, &spec);
    let tampered = faults::hits(site);
    faults::disarm(site);

    assert_eq!(tampered, 1, "the primary's reply was corrupted");
    let r = fabric.report();
    assert_eq!(
        r.rejected, 1,
        "the verifier refused the tampered schedule at the boundary: {r:?}"
    );
    assert_eq!(
        (r.remote, r.local, r.failovers),
        (1, 0, 1),
        "the compile failed over to the honest replica, never local: {r:?}"
    );
    assert!(
        verify::verify_schedule(&kernel.etir, Some(&spec)).is_legal(),
        "the kernel actually returned is verifier-clean"
    );
    // A content rejection is the peer's *answer*, not its absence: the
    // tampering peer stays in the ring with a closed breaker.
    for ep in &peers {
        assert_eq!(
            fabric.membership().breaker(ep).unwrap().state(),
            BreakerState::Closed,
            "content rejection must not trip {ep}'s breaker"
        );
    }

    handle_a.shutdown();
    handle_b.shutdown();
    join_a.join().unwrap();
    join_b.join().unwrap();
}

#[test]
fn bad_token_is_refused_typed_and_never_silently_downgraded() {
    let (ep, handle, join, _) = start_tcp(|cfg| {
        cfg.token = Some("open-sesame".to_string());
    });

    // No token at all: typed refusal.
    let err = Client::connect_with(ep.as_str(), fast_client()).unwrap_err();
    assert!(
        matches!(
            err,
            ClientError::Remote {
                kind: ErrKind::Unauthorized,
                ..
            }
        ),
        "expected a typed Unauthorized, got {err:?}"
    );

    // Wrong token: same typed refusal — no retry loop, no downgrade.
    let wrong = ClientConfig {
        token: Some("let-me-in".to_string()),
        ..fast_client()
    };
    let err = Client::connect_with(ep.as_str(), wrong).unwrap_err();
    assert!(matches!(
        err,
        ClientError::Remote {
            kind: ErrKind::Unauthorized,
            ..
        }
    ));

    // Right token: the handshake completes and the connection works.
    let right = ClientConfig {
        token: Some("open-sesame".to_string()),
        ..fast_client()
    };
    let mut client = Client::connect_with(ep.as_str(), right.clone()).unwrap();
    client.ping().unwrap();

    // An auth refusal must not be mistaken for a dead daemon: the
    // fabric's breaker treats it as proof of life, so the misconfigured
    // client keeps its circuit closed (and logs loudly) instead of
    // quietly writing the peer off.
    let fallback = roller::Roller::default();
    let peers = vec![ep.clone()];
    let fabric = FabricClient::new(&peers, "roller", None, &fallback)
        .with_config(ClientConfig {
            token: Some("still-wrong".to_string()),
            ..fast_client()
        })
        .with_breaker(hair_trigger());
    let spec = GpuSpec::rtx4090();
    let kernel = fabric.compile(&OpSpec::gemm(128, 64, 128), &spec);
    assert!(verify::verify_schedule(&kernel.etir, Some(&spec)).is_legal());
    let r = fabric.report();
    assert_eq!((r.remote, r.local), (0, 1), "{r:?}");
    assert_eq!(
        fabric.membership().breaker(&ep).unwrap().state(),
        BreakerState::Closed,
        "an Unauthorized reply is proof of life, not a transport failure"
    );

    handle.shutdown();
    join.join().unwrap();
}
