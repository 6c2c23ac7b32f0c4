//! The fleet observability drill: three in-process daemons on loopback
//! TCP serve one traced compile batch, one daemon is "SIGKILL'd"
//! mid-batch by a failpoint in its accept loop, and the observability
//! plane must hold up anyway — the surviving spans all carry the one
//! minted trace id, the `TraceDump` pull still answers, the merged
//! Perfetto document is well-formed JSON, and the flight-recorder dump
//! written at the kill parses line-by-line.
//!
//! Also here: `cluster metrics` aggregation over live daemons — every
//! peer's scrape is re-labeled `peer="<endpoint>"` and the fleet
//! histogram quantiles come from merged buckets, not averaged p99s.
//!
//! All daemons share this test process, so the flight recorder (a
//! process-global collector) is one ring shared by client and daemons.
//! That collapses the per-process separation a real fleet has, but the
//! propagation contract under test — trace ids minted client-side
//! arriving in daemon-side `serve.request` spans over the wire — is
//! exactly the same.

use fabric::{cluster_metrics, FabricClient};
use hardware::GpuSpec;
use served::{
    BreakerConfig, Client, ClientConfig, DrainReport, MethodRegistry, Server, ServerConfig,
    ServerHandle,
};
use simgpu::Tuner;
use std::sync::Arc;
use std::time::Duration;
use tensor_expr::OpSpec;

fn start_tcp(
    tweak: impl FnOnce(&mut ServerConfig),
) -> (String, ServerHandle, std::thread::JoinHandle<DrainReport>) {
    let mut cfg = ServerConfig::new("tcp://127.0.0.1:0");
    cfg.max_inflight = 16;
    tweak(&mut cfg);
    let cache = Arc::new(schedcache::ScheduleCache::in_memory());
    let server = Server::bind(cfg, cache, MethodRegistry::standard()).unwrap();
    let endpoint = server.endpoint().to_string();
    let handle = server.handle();
    let join = std::thread::spawn(move || server.run().unwrap());
    (endpoint, handle, join)
}

fn fast_client() -> ClientConfig {
    ClientConfig {
        retries: 1,
        connect_timeout: Duration::from_millis(300),
        backoff_base: Duration::from_millis(1),
        ..Default::default()
    }
}

fn hair_trigger() -> BreakerConfig {
    BreakerConfig {
        failure_threshold: 1,
        cooldown: Duration::from_secs(60),
        max_cooldown: Duration::from_secs(60),
    }
}

/// The `trace` field a span/event carries, if any.
fn trace_field(ev: &obs::Event) -> Option<u64> {
    ev.fields.iter().find_map(|(k, v)| match (k, v) {
        (&"trace", obs::Value::U64(t)) => Some(*t),
        (&"trace", _) => Some(0),
        _ => None,
    })
}

#[test]
fn traced_batch_survives_a_mid_batch_kill_with_one_trace_id() {
    let _g = faults::exclusive();
    let crash_site = "fleet.obs.crash";
    let flight_dir = std::env::temp_dir().join(format!("gensor-fleet-obs-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&flight_dir);
    let rec = obs::FlightRecorder::install(&flight_dir, 1 << 16, "fleet");

    let (ep_a, handle_a, join_a) = start_tcp(|_| {});
    let (ep_b, _handle_b, join_b) = start_tcp(|cfg| {
        cfg.crash_site = Some(crash_site.to_string());
    });
    let (ep_c, handle_c, join_c) = start_tcp(|_| {});
    let peers = vec![ep_a.clone(), ep_b.clone(), ep_c.clone()];

    let ctx = obs::TraceContext::mint();
    let fallback = roller::Roller::default();
    let fabric = FabricClient::new(&peers, "roller", None, &fallback)
        .with_config(fast_client())
        .with_breaker(hair_trigger())
        .with_trace(ctx);

    let spec = GpuSpec::rtx4090();
    let ops: Vec<OpSpec> = (0..16)
        .map(|i| OpSpec::gemm(64 + 16 * i, 64, 128))
        .collect();

    // Half the batch against the healthy fleet…
    for op in &ops[..8] {
        let _ = fabric.compile(op, &spec);
    }
    // …then the simulated SIGKILL mid-batch. The fired failpoint itself
    // snapshots the flight recorder (reason `failpoint:<site>`), before
    // the dying accept loop's own crash dump would.
    faults::arm(crash_site, faults::Policy::ErrFrom(1));
    let report_b = join_b.join().unwrap();
    faults::disarm(crash_site);
    assert_eq!(report_b.reason, "crash");
    for op in &ops[8..] {
        let _ = fabric.compile(op, &spec);
    }
    let r = fabric.report();
    assert_eq!(r.remote, 16, "every compile answered remote: {r:?}");

    // Every span that carries a trace id carries THE trace id — client
    // fabric.route hops and daemon serve.request handling alike.
    let events = rec.events();
    let traced: Vec<&obs::Event> = events.iter().filter(|e| trace_field(e).is_some()).collect();
    assert!(!traced.is_empty(), "no spans carried trace context");
    assert!(
        traced.iter().all(|e| trace_field(e) == Some(ctx.trace_id)),
        "foreign trace ids in the stream"
    );
    let serve_spans = events
        .iter()
        .filter(|e| {
            matches!(&e.kind, obs::EventKind::Begin { name } if *name == "serve.request")
                && trace_field(e) == Some(ctx.trace_id)
        })
        .count();
    assert!(
        serve_spans >= 8,
        "daemon-side spans must carry the propagated id (got {serve_spans})"
    );

    // The remote span buffer is pullable from a survivor over the wire.
    let mut client = Client::connect_with(ep_a.as_str(), fast_client()).unwrap();
    let (tag, wire) = client.trace_dump().unwrap();
    assert_eq!(tag, "fleet");
    assert!(!wire.is_empty());
    let pulled: Vec<obs::Event> = wire.iter().map(served::WireEvent::to_event).collect();
    assert!(
        pulled.iter().any(|e| trace_field(e) == Some(ctx.trace_id)),
        "pulled buffer lost the trace ids"
    );

    // The merged multi-process document is loadable JSON with one
    // process row per part and a single trace id across all args.
    let parts = [
        obs::chrome::TraceProcess {
            pid: 1,
            name: "client".to_string(),
            events: &events,
        },
        obs::chrome::TraceProcess {
            pid: 2,
            name: ep_a.clone(),
            events: &pulled,
        },
    ];
    let doc = obs::chrome::trace_json_multi(&parts);
    let v: serde_json::Value = serde_json::from_str(&doc).expect("merged trace parses");
    let rows = v["traceEvents"].as_array().unwrap();
    assert!(rows
        .iter()
        .any(|e| e["ph"] == "M" && e["args"]["name"] == "client"));
    assert!(rows
        .iter()
        .any(|e| e["ph"] == "M" && e["args"]["name"].as_str() == Some(ep_a.as_str())));
    let arg_ids: Vec<u64> = rows
        .iter()
        .filter_map(|e| e["args"]["trace"].as_u64())
        .collect();
    assert!(!arg_ids.is_empty());
    assert!(
        arg_ids.iter().all(|t| *t == ctx.trace_id),
        "merged document spans more than one trace"
    );

    // The kill left a flight dump on disk, and it parses clean:
    // a JSON header naming the reason, then one JSON object per line.
    let dumps: Vec<std::path::PathBuf> = std::fs::read_dir(&flight_dir)
        .expect("flight dir")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .collect();
    assert!(!dumps.is_empty(), "no flight dump after the kill");
    let mut saw_kill_dump = false;
    for dump in &dumps {
        let body = std::fs::read_to_string(dump).unwrap();
        for (i, line) in body.lines().enumerate() {
            let parsed: serde_json::Value = serde_json::from_str(line)
                .unwrap_or_else(|e| panic!("{}:{} unparseable: {e}", dump.display(), i + 1));
            if i == 0 {
                assert_eq!(parsed["flight"].as_str(), Some("fleet"));
            }
        }
        let header: serde_json::Value = serde_json::from_str(body.lines().next().unwrap()).unwrap();
        if header["reason"]
            .as_str()
            .is_some_and(|r| r.contains(crash_site) || r == "crash")
        {
            saw_kill_dump = true;
        }
    }
    assert!(saw_kill_dump, "no dump recorded the kill: {dumps:?}");

    handle_a.shutdown();
    handle_c.shutdown();
    join_a.join().unwrap();
    join_c.join().unwrap();
    obs::flight::uninstall();
    let _ = std::fs::remove_dir_all(&flight_dir);
}

#[test]
fn cluster_metrics_merges_live_peers_with_per_peer_labels() {
    // Serialized with the drill above: its flight recorder is
    // process-global and would record this test's untraced spans.
    let _g = faults::exclusive();
    let (ep_a, handle_a, join_a) = start_tcp(|_| {});
    let (ep_b, handle_b, join_b) = start_tcp(|_| {});
    let peers = vec![ep_a.clone(), ep_b.clone()];

    // Put some traffic through both daemons so the scrape is non-empty.
    let fallback = roller::Roller::default();
    let fabric = FabricClient::new(&peers, "roller", None, &fallback).with_config(fast_client());
    let spec = GpuSpec::rtx4090();
    for i in 0..4 {
        let _ = fabric.compile(&OpSpec::gemm(96 + 32 * i, 64, 128), &spec);
    }

    let fleet = cluster_metrics(&peers, &fast_client());
    assert_eq!((fleet.up, fleet.total), (2, 2));

    // Merged exposition: every sample re-labeled with its origin peer.
    let text = fleet.merged_text();
    for ep in &peers {
        assert!(
            text.contains(&format!("peer=\"{ep}\"")),
            "no peer label for {ep} in merged text"
        );
    }
    assert!(text.contains("gensor_serve_requests_total"), "{text}");

    // Fleet counters sum across peers; fleet histograms come from
    // merged buckets, so the quantiles are ordered and the counts add.
    let counters = fleet.counters();
    assert!(
        counters
            .get("gensor_serve_requests_total")
            .is_some_and(|v| *v > 0.0),
        "{counters:?}"
    );
    for h in fleet.histograms() {
        assert!(h.p50_us <= h.p99_us, "{h:?}");
    }

    // Human and JSON renderings agree on liveness.
    assert!(fleet.render().contains("2/2 peers"), "{}", fleet.render());
    let v: serde_json::Value = serde_json::from_str(&fleet.render_json()).unwrap();
    assert_eq!(v["up"].as_u64(), Some(2));
    assert_eq!(v["total"].as_u64(), Some(2));
    assert!(v["histograms"].as_array().is_some());

    handle_a.shutdown();
    handle_b.shutdown();
    join_a.join().unwrap();
    join_b.join().unwrap();
}
