//! The three socket workloads, one closed-loop client on one connection,
//! the whole process pinned to one CPU so the numbers measure the
//! program's thread hops rather than the hypervisor's cross-CPU wake-ups.
//!
//! * `serve_hit` — in-process daemon on a Unix socket, 64 resident keys,
//!   every request a hit: `served` does nearly all the work, `core` none.
//! * `serve_mix` — the same daemon over a bounded persistent cache, Zipf
//!   requests over the 256 dynamic-shape GEMMs; LRU eviction keeps about
//!   one request in twenty a miss, so writes run beside reads.
//! * `fabric_mix` — three TCP daemons behind a `FabricClient` with two
//!   replicas, same request stream: the only workload where `fabric` and
//!   `served`'s TCP transport work.

use crate::gen::{bert_universe, Zipf, UNIVERSE};
use crate::host::{self, TempDir};
use crate::measure::{self, ns_per_call, oracle_check, repeated_setup, run_rounds};
use crate::report::{digest, RunResult};
use crate::trace::{self, Tracer, NO_PARENT};
use crate::{stats, Args};
use fabric::{ring_key, FabricClient};
use gensor::Gensor;
use hardware::GpuSpec;
use schedcache::{CacheKey, CachedTuner, ScheduleCache};
use served::proto::{read_frame, write_frame};
use served::{
    Client, DrainReport, Endpoint, MethodRegistry, Request, Response, Server, ServerConfig,
    ServerHandle, WireKernel, WireOutcome,
};
use simgpu::{CompiledKernel, Tuner};
use std::sync::Arc;
use std::time::Instant;
use tensor_expr::OpSpec;

/// Resident keys of the all-hit workload.
const HIT_KEYS: usize = 64;
/// Requests per round.
const HIT_BLOCK: usize = 10_000;
const MIX_BLOCK: usize = 2_000;
/// Zipf exponent and cache caps of the mixes, calibrated once (seed 1)
/// for a miss ratio near 0.05 and then frozen. The cap is per daemon.
const ZIPF_EXPONENT: f64 = 1.1;
const SERVE_MIX_CAP: usize = 192;
const FABRIC_MIX_CAP: usize = 96;
/// Requests that bring the mixes' caches to steady state during set-up.
const MIX_WARM_REQUESTS: usize = 1_500;
/// The mixes' quality probe: the most popular keys, requested first and
/// in rank order during set-up. What a later miss builds depends on which
/// neighbours the seeded traffic left in the cache (warm starts), so only
/// these kernels are the same for every seed; they stay resident.
const PROBE_KEYS: usize = 16;
/// First of the fabric daemons' three loopback ports.
const FABRIC_BASE_PORT: u16 = 39_411;
/// Fixed tail percentile: every socket workload has ≥ 10 000 samples.
const TAIL: f64 = 99.0;
const METHOD: &str = "gensor";

#[derive(Clone, Copy, PartialEq)]
enum Kind {
    ServeHit,
    ServeMix,
    FabricMix,
}

impl Kind {
    fn block(self) -> usize {
        match self {
            Kind::ServeHit => HIT_BLOCK,
            _ => MIX_BLOCK,
        }
    }
}

/// An in-process daemon; dropping it drains and joins it.
struct Daemon {
    endpoint: Endpoint,
    cache: Arc<ScheduleCache>,
    handle: ServerHandle,
    join: Option<std::thread::JoinHandle<std::io::Result<DrainReport>>>,
}

impl Daemon {
    fn start(listen: Endpoint, cache: Arc<ScheduleCache>) -> Daemon {
        let server = Server::bind(
            ServerConfig::new(listen),
            cache.clone(),
            MethodRegistry::standard(),
        )
        .expect("bind daemon");
        Daemon::run(server, cache)
    }

    /// A TCP daemon on a fixed loopback port. The fabric's ring hashes
    /// endpoint strings, so kernel-assigned ports would route the same
    /// key to another daemon on every run and no count would repeat. A
    /// taken port falls back to a kernel-assigned one, with a note.
    fn start_tcp(port: u16, cache: Arc<ScheduleCache>) -> Daemon {
        let bind = |listen: String| {
            Server::bind(
                ServerConfig::new(listen),
                cache.clone(),
                MethodRegistry::standard(),
            )
        };
        let server = bind(format!("tcp://127.0.0.1:{port}")).unwrap_or_else(|e| {
            eprintln!("ledger: note: port {port} unavailable ({e}); fabric counts will not repeat");
            bind("tcp://127.0.0.1:0".to_string()).expect("bind daemon")
        });
        Daemon::run(server, cache)
    }

    fn run(server: Server, cache: Arc<ScheduleCache>) -> Daemon {
        Daemon {
            endpoint: server.endpoint().clone(),
            cache,
            handle: server.handle(),
            join: Some(std::thread::spawn(move || server.run())),
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.handle.shutdown();
        if let Some(join) = self.join.take() {
            // A daemon that failed to drain already failed its requests;
            // a panic here would only hide those findings.
            let _ = join.join();
        }
    }
}

/// How requests reach the cache.
enum Frontend<'a> {
    Direct(Client),
    Fabric(Box<FabricClient<'a>>),
}

impl Frontend<'_> {
    /// One request; `Ok((kernel, was_hit))`.
    fn compile(&mut self, op: &OpSpec, spec: &GpuSpec) -> Result<(CompiledKernel, bool), String> {
        match self {
            Frontend::Direct(client) => client
                .compile(op, spec, METHOD, None)
                .map(|(k, outcome)| (k, outcome == WireOutcome::Hit))
                .map_err(|e| e.to_string()),
            Frontend::Fabric(fabric) => {
                let before = fabric.report();
                let kernel = fabric.compile(op, spec);
                let after = fabric.report();
                if after.remote != before.remote + 1 {
                    return Err("fabric fell back to the local tuner".into());
                }
                Ok((kernel, after.hits == before.hits + 1))
            }
        }
    }
}

/// A running workload: daemons, the client, and what has been seen.
struct Ctx<'a> {
    // Field order is drop order: the client goes before its daemons, so
    // their handler threads see a closed connection instead of waiting
    // out a read timeout; the directory (socket, store) goes last.
    frontend: Frontend<'a>,
    daemons: Vec<Daemon>,
    _dir: TempDir,
    ops: Vec<OpSpec>,
    spec: GpuSpec,
    /// Fingerprint of the kernel last built (or first seen) per key; a
    /// hit must return exactly it.
    seen: Vec<Option<u64>>,
    /// The kernel behind `seen`, verified after the measurement.
    kernels: Vec<Option<CompiledKernel>>,
}

impl Ctx<'_> {
    /// Issue the request for key `rank`; returns (latency µs, was_hit).
    fn request(&mut self, result: &mut RunResult, rank: usize) -> (f64, bool) {
        let op = &self.ops[rank];
        let t0 = Instant::now();
        let reply = self.frontend.compile(op, &self.spec);
        let us = t0.elapsed().as_secs_f64() * 1e6;
        match reply {
            Err(e) => {
                result.fail(format!("{}: {e}", op.label()));
                (us, false)
            }
            Ok((kernel, hit)) => {
                if kernel.etir.op != *op {
                    result.fail(format!("{}: reply is for another operator", op.label()));
                }
                let fp = kernel.etir.fingerprint();
                if hit && self.seen[rank].is_some_and(|want| want != fp) {
                    result.fail(format!("{}: a hit returned another kernel", op.label()));
                }
                if !hit || self.seen[rank].is_none() {
                    self.seen[rank] = Some(fp);
                    self.kernels[rank] = Some(kernel);
                }
                (us, hit)
            }
        }
    }

    /// Digest of the kernels served so far, by key.
    fn digest_so_far(&self) -> String {
        digest(self.seen.iter().flatten().copied())
    }

    /// Every kernel a daemon handed out must be legal for the GPU.
    fn verify_seen(&self, result: &mut RunResult) {
        for k in self.kernels.iter().flatten() {
            if !verify::verify_schedule(&k.etir, Some(&self.spec)).is_legal() {
                result.fail(format!("{}: served an illegal schedule", k.etir.op.label()));
            }
        }
    }
}

fn setup<'a>(
    kind: Kind,
    seed: u64,
    rep: usize,
    result: &mut RunResult,
    fallback: &'a Gensor,
) -> Ctx<'a> {
    let spec = GpuSpec::rtx4090();
    oracle_check(result, &spec);
    let dir = TempDir::create(&format!("{}-{rep}", result.workload)).expect("scratch directory");
    let universe = bert_universe();
    let (daemons, frontend, ops) = match kind {
        Kind::ServeHit | Kind::ServeMix => {
            let cache = if kind == Kind::ServeHit {
                ScheduleCache::in_memory()
            } else {
                ScheduleCache::open_bounded(dir.path().join("store.jsonl"), SERVE_MIX_CAP)
                    .expect("open bounded store")
            };
            let d = Daemon::start(dir.path().join("d.sock").into(), Arc::new(cache));
            let client = Client::connect(d.endpoint.clone()).expect("connect to daemon");
            let ops = if kind == Kind::ServeHit {
                universe[..HIT_KEYS].to_vec()
            } else {
                universe
            };
            (vec![d], Frontend::Direct(client), ops)
        }
        Kind::FabricMix => {
            let daemons: Vec<Daemon> = (0..3)
                .map(|i| {
                    let cache = Arc::new(ScheduleCache::in_memory_bounded(FABRIC_MIX_CAP));
                    Daemon::start_tcp(FABRIC_BASE_PORT + i, cache)
                })
                .collect();
            let peers: Vec<String> = daemons.iter().map(|d| d.endpoint.to_string()).collect();
            let fabric = FabricClient::new(&peers, METHOD, None, fallback).with_replicas(2);
            (daemons, Frontend::Fabric(Box::new(fabric)), universe)
        }
    };
    let n = ops.len();
    let mut ctx = Ctx {
        frontend,
        daemons,
        _dir: dir,
        ops,
        spec,
        seen: vec![None; n],
        kernels: vec![None; n],
    };
    // Warm the caches: the hit workload banks every key and confirms a
    // second request hits; the mixes build the probe keys, then replay a
    // seeded prefix of traffic.
    if kind == Kind::ServeHit {
        for pass in 0..2 {
            for rank in 0..n {
                let (_, hit) = ctx.request(result, rank);
                if hit != (pass == 1) {
                    result.fail(format!("warm-up pass {pass}: key {rank} hit={hit}"));
                }
            }
        }
    } else {
        for rank in 0..PROBE_KEYS {
            ctx.request(result, rank);
        }
        let mut zipf = Zipf::new(UNIVERSE, ZIPF_EXPONENT, seed ^ 0x3A9_0000 ^ rep as u64);
        for _ in 0..MIX_WARM_REQUESTS {
            let rank = zipf.next_rank();
            ctx.request(result, rank);
        }
    }
    ctx
}

/// The kernels `kernel_gflops.geomean` is taken over: every resident key
/// of the hit workload, the probe keys of the mixes.
fn quality_keys(kind: Kind) -> usize {
    match kind {
        Kind::ServeHit => HIT_KEYS,
        Kind::ServeMix | Kind::FabricMix => PROBE_KEYS,
    }
}

/// Latencies of one measured phase, split by how the cache answered.
#[derive(Default)]
struct Latencies {
    all_us: Vec<f64>,
    hit_us: Vec<f64>,
    miss_us: Vec<f64>,
}

/// The seeded request stream: uniform over the resident keys of the hit
/// workload (a Zipf of exponent 0), Zipf over the universe for the mixes.
fn request_stream(kind: Kind, seed: u64) -> Zipf {
    match kind {
        Kind::ServeHit => Zipf::new(HIT_KEYS, 0.0, seed),
        Kind::ServeMix | Kind::FabricMix => Zipf::new(UNIVERSE, ZIPF_EXPONENT, seed),
    }
}

fn block(
    ctx: &mut Ctx,
    result: &mut RunResult,
    stream: &mut Zipf,
    count: usize,
    lat: &mut Latencies,
) {
    for _ in 0..count {
        let rank = stream.next_rank();
        let (us, hit) = ctx.request(result, rank);
        lat.all_us.push(us);
        if hit {
            lat.hit_us.push(us);
        } else {
            lat.miss_us.push(us);
        }
    }
}

pub fn run(args: &Args) -> RunResult {
    let kind = match args.workload.as_str() {
        "serve_hit" => Kind::ServeHit,
        "serve_mix" => Kind::ServeMix,
        _ => Kind::FabricMix,
    };
    let mut result = RunResult::new(&args.workload, args.seed, args.trace);
    // Before any thread exists, so every thread inherits the mask.
    result.pinned = host::pin_to_one_cpu();
    let fallback = Gensor::default();
    let (mut ctx, setup_s) =
        repeated_setup(|rep| setup(kind, args.seed, rep, &mut result, &fallback));
    let mut stream = request_stream(kind, args.seed);
    if args.trace {
        traced(&mut result, &mut ctx, kind, &mut stream, args.seconds);
        ctx.verify_seen(&mut result);
        return result;
    }
    let mut lat = Latencies::default();
    // Quality and digest are read after the first measured round: a fixed
    // amount of work, where the number of rounds depends on the clock.
    let mut fixed_point = None;
    let rounds = run_rounds(args.seconds, 3, |i| {
        let mut scratch = Latencies::default();
        let into = if i == 0 { &mut scratch } else { &mut lat };
        block(&mut ctx, &mut result, &mut stream, kind.block(), into);
        if i == 1 {
            fixed_point = Some(ctx.digest_so_far());
        }
    });
    result.attempted += lat.all_us.len() as u64;
    if kind == Kind::ServeHit && !lat.miss_us.is_empty() {
        result.fail(format!(
            "{} requests missed a resident key",
            lat.miss_us.len()
        ));
    }
    ctx.verify_seen(&mut result);
    let gflops: Vec<f64> = ctx.kernels[..quality_keys(kind)]
        .iter()
        .flatten()
        .map(|k| k.report.gflops)
        .collect();
    result.schedule_digest = fixed_point.expect("at least one measured round");
    measure::end_to_end(
        &mut result,
        &rounds,
        kind.block() as u64,
        &mut lat.all_us,
        TAIL,
        setup_s,
        &gflops,
    );
    result
}

/// Median µs of `n` individually timed calls.
fn timed_us(n: usize, mut f: impl FnMut()) -> Vec<f64> {
    (0..n)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64() * 1e6
        })
        .collect()
}

/// Encode and decode `msg` through `served::proto`'s framing on an
/// in-memory buffer; returns (encode µs, decode µs, frame bytes).
fn codec_us<T: serde::Serialize + serde::Deserialize>(msg: &T) -> (f64, f64, usize) {
    let mut buf = Vec::new();
    write_frame(&mut buf, msg).expect("encode frame");
    let bytes = buf.len();
    let encode = ns_per_call(20, 50, || {
        buf.clear();
        write_frame(&mut buf, msg).expect("encode frame")
    });
    let decode = ns_per_call(20, 50, || {
        read_frame::<_, T>(&mut buf.as_slice()).expect("decode frame")
    });
    (encode / 1e3, decode / 1e3, bytes)
}

/// The traced run: untraced control blocks for the workload's own hit and
/// miss figures, a block under `client.compile` spans, then each layer's
/// public calls timed alone.
fn traced(result: &mut RunResult, ctx: &mut Ctx, kind: Kind, stream: &mut Zipf, seconds: f64) {
    let mut scratch = Latencies::default();
    block(ctx, result, stream, kind.block(), &mut scratch);
    let mut lat = Latencies::default();
    let control = Instant::now();
    for _ in 0..2 {
        block(ctx, result, stream, kind.block(), &mut lat);
    }
    // Counts are read here, after a fixed amount of work, so they repeat
    // exactly; the blocks that follow only add latency samples.
    let counted = ctx.daemons[0].handle.stats();
    let fabric_counted = match &ctx.frontend {
        Frontend::Fabric(f) => Some(f.report()),
        Frontend::Direct(_) => None,
    };
    result.schedule_digest = ctx.digest_so_far();
    result.set(
        "schedcache.hit_ratio",
        lat.hit_us.len() as f64 / lat.all_us.len() as f64,
    );
    let kernel_us: Vec<f64> = ctx
        .kernels
        .iter()
        .flatten()
        .map(|k| k.report.time_us)
        .collect();
    result.set("kernel_time_us.geomean", stats::geomean(&kernel_us));
    while control.elapsed().as_secs_f64() < seconds * 0.4 {
        block(ctx, result, stream, kind.block(), &mut lat);
    }
    result.attempted += lat.all_us.len() as u64;
    let hit_p50 = stats::percentile(&lat.hit_us, 50.0);
    result.set("hit_us.p50", hit_p50);
    result.set("hit_us.p99", stats::percentile(&lat.hit_us, 99.0));
    result
        .samples
        .insert("hit_us.p50".into(), lat.hit_us.len() as u64);
    result
        .samples
        .insert("hit_us.p99".into(), lat.hit_us.len() as u64);
    if !lat.miss_us.is_empty() {
        result.set("miss_ms.p50", stats::percentile(&lat.miss_us, 50.0) / 1e3);
        result
            .samples
            .insert("miss_ms.p50".into(), lat.miss_us.len() as u64);
    }

    // --- One block under spans: the request, then its frames re-encoded
    // and re-decoded in memory as shadow children.
    let mut tr = Tracer::new();
    let mut traced_hit_us = Vec::new();
    for i in 0..kind.block() {
        let rank = stream.next_rank();
        let id = tr.enter("client.compile", NO_PARENT, i as u32);
        let (us, hit) = ctx.request(result, rank);
        tr.exit(id);
        if hit {
            traced_hit_us.push(us);
        }
        if i % 16 == 0 {
            let req = compile_request(&ctx.ops[rank], &ctx.spec);
            let resp = compiled_response(ctx.kernels[rank].as_ref().expect("just served"));
            let shadow = tr.enter("shadow.codec", NO_PARENT, i as u32);
            let mut buf = Vec::new();
            tr.time("served.encode_req", shadow, i as u32, || {
                write_frame(&mut buf, &req).expect("encode")
            });
            tr.time("served.decode_req", shadow, i as u32, || {
                read_frame::<_, Request>(&mut buf.as_slice()).expect("decode")
            });
            buf.clear();
            tr.time("served.encode_resp", shadow, i as u32, || {
                write_frame(&mut buf, &resp).expect("encode")
            });
            tr.time("served.decode_resp", shadow, i as u32, || {
                read_frame::<_, Response>(&mut buf.as_slice()).expect("decode")
            });
            tr.exit(shadow);
        }
    }
    result.attempted += kind.block() as u64;
    result.set(
        "ledger.trace_overhead_share",
        (stats::percentile(&traced_hit_us, 50.0) - hit_p50) / hit_p50,
    );
    let table = trace::self_times(tr.spans());
    eprint!("{}", trace::render_self_times(&table));
    crate::write_output(
        &format!("trace-{}.json", result.workload),
        &trace::chrome_json(tr.spans(), |op| op < 512),
    );

    // --- served's framing, on the real Compile / Compiled frames.
    let resident = ctx
        .kernels
        .iter()
        .position(Option::is_some)
        .expect("some key was served");
    let op = ctx.ops[resident].clone();
    let kernel = ctx.kernels[resident].clone().expect("resident kernel");
    let (enc_req, dec_req, req_bytes) = codec_us(&compile_request(&op, &ctx.spec));
    let (enc_resp, dec_resp, resp_bytes) = codec_us(&compiled_response(&kernel));
    result.set("served.encode_req_us", enc_req);
    result.set("served.decode_req_us", dec_req);
    result.set("served.encode_resp_us", enc_resp);
    result.set("served.decode_resp_us", dec_resp);
    result.set("served.req_bytes", req_bytes as f64);
    result.set("served.resp_bytes", resp_bytes as f64);
    let (ping_enc, ping_dec, _) = codec_us(&Request::Ping);
    let (pong_enc, pong_dec, _) = codec_us(&Response::Pong);
    let codec_over_ping =
        enc_req + dec_req + enc_resp + dec_resp - (ping_enc + ping_dec + pong_enc + pong_dec);

    // --- schedcache's hit path with no socket in front of it.
    let spec = ctx.spec.clone();
    let method = Gensor::default().name();
    let cache = ctx.daemons[0].cache.clone();
    result.set(
        "schedcache.key_ns",
        ns_per_call(30, 200, || CacheKey::new(&op, &spec, method)),
    );
    let local_cache = Arc::new(ScheduleCache::in_memory());
    local_cache
        .install(&op, &spec, method, kernel.clone())
        .expect("kernel verified above");
    result.set(
        "schedcache.peek_ns",
        ns_per_call(30, 200, || local_cache.peek(&op, &spec, method)),
    );
    let tuner = Gensor::default();
    let local = CachedTuner::for_gensor(&tuner, local_cache.clone());
    let local_hit_us = ns_per_call(30, 200, || local.compile_verified(&op, &spec)) / 1e3;
    result.set("schedcache.local_hit_us", local_hit_us);
    let snapshot = &counted.cache;
    result.set("schedcache.evictions", snapshot.evictions as f64);
    result.set(
        "schedcache.warm_start_share",
        snapshot.warm_starts as f64 / snapshot.misses.max(1) as f64,
    );
    result.set(
        "verify.verdict_hit_share",
        snapshot.verdict_hits as f64
            / (snapshot.verdict_hits + snapshot.verdict_misses).max(1) as f64,
    );
    if kind != Kind::ServeHit {
        let probe = OpSpec::gemm(8 * 129, 512, 512);
        result.set(
            "schedcache.neighbours_us",
            ns_per_call(30, 20, || cache.neighbours(&probe, &spec, 3)) / 1e3,
        );
    }

    // --- The transport: a bare round trip, a connect, a hit over TCP.
    let endpoint = ctx.daemons[0].endpoint.clone();
    let mut probe = Client::connect(endpoint.clone()).expect("probe connection");
    let ping_p50 = stats::percentile(&timed_us(5_000, || probe.ping().expect("ping")), 50.0);
    result.set("served.ping_us.p50", ping_p50);
    result.samples.insert("served.ping_us.p50".into(), 5_000);
    let connects = timed_us(50, || {
        drop(Client::connect(endpoint.clone()).expect("connect"))
    });
    result.set("served.connect_us", stats::median(&connects));
    let server_stats = probe.stats().expect("daemon stats");
    result.set("served.queue_us.p50", server_stats.queue_p50_us as f64);
    result.set("served.service_us.p50", server_stats.service_p50_us as f64);
    result.set("served.shed", counted.shed as f64);
    result.set("served.coalesced", counted.coalesced as f64);
    drop(probe);

    let tcp = Daemon::start("tcp://127.0.0.1:0".into(), local_cache);
    let mut tcp_client = Client::connect(tcp.endpoint.clone()).expect("tcp connection");
    let tcp_hits = timed_us(3_000, || {
        let (_, outcome) = tcp_client
            .compile(&op, &spec, METHOD, None)
            .expect("tcp hit");
        assert_eq!(outcome, WireOutcome::Hit, "resident key must hit");
    });
    let tcp_hit_p50 = stats::percentile(&tcp_hits, 50.0);
    result.set("served.tcp_hit_us.p50", tcp_hit_p50);
    let puts = timed_us(500, || {
        tcp_client.put(&op, &spec, METHOD, &kernel).expect("put");
    });
    drop(tcp_client);
    drop(tcp);

    match kind {
        Kind::FabricMix => {
            let report = fabric_counted.expect("fabric_mix has a fabric client");
            result.set("fabric.remote", report.remote as f64);
            result.set("fabric.local", report.local as f64);
            result.set("fabric.failovers", report.failovers as f64);
            result.set("fabric.repairs", report.repairs as f64);
            fabric_layers(result, ctx, &op, hit_p50, tcp_hit_p50, &puts)
        }
        // What is left of a hit once the transport, the codec beyond a
        // ping's and the cache lookup are taken out: the thread hops.
        _ => result.set(
            "served.hit_unattributed_us",
            hit_p50 - ping_p50 - local_hit_us - codec_over_ping,
        ),
    }
}

fn compile_request(op: &OpSpec, spec: &GpuSpec) -> Request {
    Request::Compile {
        op: op.clone(),
        gpu: spec.clone(),
        method: METHOD.to_string(),
        budget: None,
    }
}

/// The reply a hit carries: a cached answer reports no tuning time, so the
/// frame's size does not depend on how long the original build took.
fn compiled_response(kernel: &CompiledKernel) -> Response {
    Response::Compiled {
        outcome: WireOutcome::Hit,
        kernel: WireKernel {
            wall_time_s: 0.0,
            simulated_tuning_s: 0.0,
            ..WireKernel::from(kernel)
        },
    }
}

fn fabric_layers(
    result: &mut RunResult,
    ctx: &Ctx,
    op: &OpSpec,
    hit_p50: f64,
    tcp_hit_p50: f64,
    puts_us: &[f64],
) {
    let Frontend::Fabric(fabric) = &ctx.frontend else {
        return;
    };
    let key = CacheKey::new(op, &ctx.spec, METHOD);
    result.set(
        "fabric.ring_key_ns",
        ns_per_call(30, 200, || ring_key(&key)),
    );
    let ring = fabric.membership().ring();
    let position = ring_key(&key);
    result.set(
        "fabric.ring_lookup_ns",
        ns_per_call(30, 200, || ring.route(position, 2).len()),
    );
    result.set("fabric.hit_us.p50", hit_p50);
    result.set("fabric.route_overhead_us", hit_p50 - tcp_hit_p50);
    result.set("fabric.put_us", stats::median(puts_us));
}
