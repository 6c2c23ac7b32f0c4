//! Workload `model_pipeline`: the deploy path. BERT-small, ResNet-50,
//! MobileNetV2 and GPT-2 (batch 8) go through `CachedTuner::for_gensor`
//! over a fresh persistent store: cold `compile_model`, verify + emit
//! CUDA per kernel, the same models again (all local hits), reopen the
//! store from disk, and the models once more. The only workload where
//! `models`, `verify`, `codegen` and `schedcache`'s write, hit and reload
//! paths all do work.

use crate::host::TempDir;
use crate::measure::{self, check_kernel, ns_per_item, oracle_check, repeated_setup, run_rounds};
use crate::report::{digest, RunResult};
use crate::{stats, Args};
use etir::LoopNest;
use gensor::Gensor;
use hardware::GpuSpec;
use models::{compile_model, CompiledModel, ModelGraph};
use schedcache::{CacheKey, CachedTuner, ScheduleCache, Store};
use simgpu::{CompiledKernel, Tuner};
use std::collections::BTreeSet;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;
use tensor_expr::OpSpec;

/// Operations per round: per model a cold compile, an emit, a warm
/// compile and a post-reload compile, plus the one reload.
const OPS_PER_ROUND: u64 = 4 * 4 + 1;

/// Fixed tail percentile: ~17 × 15 samples support p90, not p99.
const TAIL: f64 = 90.0;

struct Setup {
    graphs: Vec<(&'static str, ModelGraph)>,
    spec: GpuSpec,
    dir: TempDir,
}

fn setup(result: &mut RunResult) -> Setup {
    let spec = GpuSpec::rtx4090();
    oracle_check(result, &spec);
    Setup {
        graphs: vec![
            ("bert_small", models::zoo::bert_small(8, 128)),
            ("resnet50", models::zoo::resnet50(8)),
            ("mobilenet_v2", models::zoo::mobilenet_v2(8)),
            ("gpt2", models::zoo::gpt2(8, 128)),
        ],
        spec,
        dir: TempDir::create("model_pipeline").expect("scratch directory"),
    }
}

/// What one round measured, beyond its operation latencies.
#[derive(Default)]
struct Round {
    cold_s: f64,
    warm_ms: f64,
    reload_ms: f64,
    cuda_bytes: usize,
    model_s: Vec<f64>,
    /// Σ kernel `wall_time_s` ÷ (model wall × CPUs), per model.
    parallel_efficiency: Vec<f64>,
    kernels: Vec<CompiledKernel>,
    stats: Option<schedcache::StatsSnapshot>,
}

/// Distinct operators across the compiled models, first sighting wins.
fn unique_kernels(compiled: &[CompiledModel]) -> Vec<CompiledKernel> {
    let mut seen: BTreeSet<String> = BTreeSet::new();
    compiled
        .iter()
        .flat_map(|m| &m.kernels)
        .filter(|(_, k, _)| seen.insert(k.etir.op.label()))
        .map(|(_, k, _)| k.clone())
        .collect()
}

fn remove_store(path: &Path) {
    let _ = std::fs::remove_file(path);
    let _ = std::fs::remove_file(verify::VerdictCache::sidecar(path));
}

/// One full round; pushes one latency (µs) per operation.
fn round(result: &mut RunResult, s: &Setup, index: usize, latencies_us: &mut Vec<f64>) -> Round {
    let tuner = Gensor::default();
    let path = s.dir.path().join(format!("store-{index}.jsonl"));
    remove_store(&path);
    let mut r = Round::default();
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;
    let timed = |latencies_us: &mut Vec<f64>, f: &mut dyn FnMut()| {
        let t0 = Instant::now();
        f();
        let s = t0.elapsed().as_secs_f64();
        latencies_us.push(s * 1e6);
        s
    };

    let cache = Arc::new(ScheduleCache::open(&path).expect("open fresh store"));
    let cached = CachedTuner::for_gensor(&tuner, cache.clone());
    let mut compiled: Vec<CompiledModel> = Vec::new();
    for (_, g) in &s.graphs {
        let wall = timed(latencies_us, &mut || {
            compiled.push(compile_model(&cached, g, &s.spec))
        });
        let m = compiled.last().expect("just pushed");
        let tuning: f64 = m.kernels.iter().map(|(_, k, _)| k.wall_time_s).sum();
        r.model_s.push(wall);
        r.parallel_efficiency.push(tuning / (wall * cpus));
        r.cold_s += wall;
    }
    let built = cache.stats().misses;

    for m in &compiled {
        r.cold_s += timed(latencies_us, &mut || {
            for (layer, k, _) in &m.kernels {
                r.cuda_bytes += check_kernel(result, &format!("{}/{layer}", m.model), k, &s.spec);
            }
        });
    }

    let hits_before = cache.stats().hits;
    let mut served = 0;
    for (_, g) in &s.graphs {
        r.warm_ms += 1e3
            * timed(latencies_us, &mut || {
                served += compile_model(&cached, g, &s.spec).kernels.len() as u64;
            });
    }
    if cache.stats().hits - hits_before != served || cache.stats().misses != built {
        result.fail("warm pass was not answered entirely from the cache".into());
    }
    r.stats = Some(cache.stats());
    cache.flush().expect("flush store");
    drop(cached);
    drop(cache);

    let mut reopened = None;
    r.reload_ms = 1e3
        * timed(latencies_us, &mut || {
            reopened = Some(Arc::new(ScheduleCache::open(&path).expect("reopen store")));
        });
    let reopened = reopened.expect("just opened");
    if reopened.len() as u64 != built {
        result.fail(format!(
            "store reloaded {} of {built} banked schedules",
            reopened.len()
        ));
    }
    let cached = CachedTuner::for_gensor(&tuner, reopened.clone());
    for ((_, g), before) in s.graphs.iter().zip(&compiled) {
        let mut again = None;
        timed(latencies_us, &mut || {
            again = Some(compile_model(&cached, g, &s.spec))
        });
        let same = again
            .expect("just compiled")
            .kernels
            .iter()
            .zip(&before.kernels)
            .all(|((_, a, _), (_, b, _))| a.etir == b.etir);
        if !same || reopened.stats().misses != 0 {
            result.fail(format!(
                "{}: reloaded store served other kernels",
                before.model
            ));
        }
    }
    r.kernels = unique_kernels(&compiled);
    remove_store(&path);
    r
}

pub fn run(args: &Args) -> RunResult {
    let mut result = RunResult::new("model_pipeline", args.seed, args.trace);
    // The end-to-end run is pinned to one CPU (see README, "Pinning"); the
    // traced run keeps every CPU so the parallel figures mean something.
    if !args.trace {
        result.pinned = crate::host::pin_to_one_cpu();
    }
    let (s, setup_s) = repeated_setup(|_| setup(&mut result));
    if args.trace {
        traced(&mut result, &s, args.seconds);
        return result;
    }
    let mut latencies_us = Vec::new();
    let mut measured: Vec<Round> = Vec::new();
    let rounds = run_rounds(args.seconds, 3, |i| {
        let mut scratch = Vec::new();
        let r = round(&mut result, &s, i, &mut scratch);
        if i > 0 {
            latencies_us.extend(scratch);
            measured.push(r);
        }
    });
    result.attempted += OPS_PER_ROUND * measured.len() as u64;
    // On one CPU `compile_model` compiles layers in order, so each miss
    // warm-starts from the same neighbours and the schedules repeat. (On
    // several CPUs they depend on which neighbours finished first; the
    // traced run counts the outcomes as `models.distinct_digests`.)
    let digests: BTreeSet<String> = measured
        .iter()
        .map(|r| digest(r.kernels.iter().map(|k| k.etir.fingerprint())))
        .collect();
    if result.pinned && digests.len() != 1 {
        result.fail(format!(
            "{} distinct schedule sets over the rounds",
            digests.len()
        ));
    }
    result.schedule_digest = digests.into_iter().next().unwrap_or_default();
    let gflops: Vec<f64> = measured[0]
        .kernels
        .iter()
        .map(|k| k.report.gflops)
        .collect();
    measure::end_to_end(
        &mut result,
        &rounds,
        OPS_PER_ROUND,
        &mut latencies_us,
        TAIL,
        setup_s,
        &gflops,
    );
    result
}

/// A tuner that "constructs" instantly, to time a cache miss's own
/// overhead (verify, bank, index, append) without a walk inside it.
struct Prebuilt(CompiledKernel);

impl Tuner for Prebuilt {
    fn name(&self) -> &'static str {
        "Prebuilt"
    }
    fn compile(&self, _: &OpSpec, _: &GpuSpec) -> CompiledKernel {
        self.0.clone()
    }
}

/// The traced run: a few untraced control rounds for the workload's own
/// figures, then each layer's public calls timed over the round's
/// kernels.
fn traced(result: &mut RunResult, s: &Setup, seconds: f64) {
    let mut rounds: Vec<Round> = Vec::new();
    let mut scratch = Vec::new();
    round(result, s, 0, &mut scratch); // unmeasured: first-touch costs
    let control = Instant::now();
    while rounds.len() < 3 || control.elapsed().as_secs_f64() < seconds * 0.4 {
        rounds.push(round(result, s, rounds.len() + 1, &mut scratch));
    }
    result.attempted += OPS_PER_ROUND * rounds.len() as u64;
    let med = |f: &dyn Fn(&Round) -> f64| stats::median(&rounds.iter().map(f).collect::<Vec<_>>());
    result.set("model_cold_s", med(&|r| r.cold_s));
    result.set("model_warm_ms", med(&|r| r.warm_ms));
    result.set("cuda_kb", med(&|r| r.cuda_bytes as f64 / 1024.0));
    result
        .samples
        .insert("model_cold_s".into(), rounds.len() as u64);
    for (i, (name, _)) in s.graphs.iter().enumerate() {
        result.set(&format!("models.compile_s.{name}"), med(&|r| r.model_s[i]));
    }
    // ResNet-50 is the model with enough kernels to keep both CPUs busy.
    result.set(
        "models.parallel_efficiency",
        med(&|r| r.parallel_efficiency[1]),
    );
    let kernels = &rounds[0].kernels;
    result.set("models.unique_kernels", kernels.len() as f64);
    let digests: BTreeSet<String> = rounds
        .iter()
        .map(|r| digest(r.kernels.iter().map(|k| k.etir.fingerprint())))
        .collect();
    result.set("models.distinct_digests", digests.len() as f64);
    let built: Vec<f64> = kernels
        .iter()
        .map(|k| k.wall_time_s * 1e3)
        .filter(|&ms| ms > 0.0)
        .collect();
    result.set("compile_ms.geomean", stats::geomean(&built));
    let kernel_us: Vec<f64> = kernels.iter().map(|k| k.report.time_us).collect();
    result.set("kernel_time_us.geomean", stats::geomean(&kernel_us));
    let st = rounds[0].stats.clone().expect("round recorded cache stats");
    result.set("schedcache.hit_ratio", st.hit_rate());
    result.set(
        "schedcache.warm_start_share",
        st.warm_starts as f64 / st.misses.max(1) as f64,
    );
    result.set("schedcache.evictions", st.evictions as f64);
    result.set(
        "verify.verdict_hit_share",
        st.verdict_hits as f64 / (st.verdict_hits + st.verdict_misses).max(1) as f64,
    );

    // --- verify, codegen, etir lowering: per kernel, each timed alone.
    let spec = &s.spec;
    let mut legal = 0;
    let (mut verify_us, mut emit_us, mut bytes) = (Vec::new(), Vec::new(), Vec::new());
    for k in kernels {
        let t0 = Instant::now();
        legal += u64::from(verify::verify_schedule(&k.etir, Some(spec)).is_legal());
        verify_us.push(t0.elapsed().as_secs_f64() * 1e6);
        let t0 = Instant::now();
        let cuda = codegen::emit_cuda(&k.etir);
        emit_us.push(t0.elapsed().as_secs_f64() * 1e6);
        bytes.push(cuda.len() as f64);
    }
    result.set("verify.schedule_us", stats::median(&verify_us));
    result.set("verify.legal_share", legal as f64 / kernels.len() as f64);
    result.set("codegen.emit_us", stats::median(&emit_us));
    result.set("codegen.bytes_per_kernel", stats::median(&bytes));
    result.set(
        "etir.lower_us",
        ns_per_item(30, kernels, |k| LoopNest::from_etir(&k.etir)) / 1e3,
    );

    schedcache_layers(result, s, kernels);
}

/// `schedcache`'s public calls on a store banked with the round's
/// kernels: key, peek, local hit, install, append, load, reload,
/// neighbour search and the miss path's own overhead.
fn schedcache_layers(result: &mut RunResult, s: &Setup, kernels: &[CompiledKernel]) {
    let spec = &s.spec;
    let method = Gensor::default().name();
    let path = s.dir.path().join("layers.jsonl");
    remove_store(&path);
    let cache = Arc::new(ScheduleCache::open(&path).expect("open store"));
    let mut install_us = Vec::new();
    for k in kernels {
        let t0 = Instant::now();
        let fresh = cache.install(&k.etir.op, spec, method, k.clone());
        install_us.push(t0.elapsed().as_secs_f64() * 1e6);
        if fresh != Ok(true) {
            result.fail(format!(
                "install of {} refused: {fresh:?}",
                k.etir.op.label()
            ));
        }
    }
    cache.flush().expect("flush store");
    result.set("schedcache.install_us", stats::median(&install_us));

    let ops: Vec<&OpSpec> = kernels.iter().map(|k| &k.etir.op).collect();
    result.set(
        "schedcache.key_ns",
        ns_per_item(30, &ops, |op| CacheKey::new(op, spec, method)),
    );
    result.set(
        "schedcache.peek_ns",
        ns_per_item(30, &ops, |op| cache.peek(op, spec, method)),
    );
    let tuner = Gensor::default();
    let cached = CachedTuner::for_gensor(&tuner, cache.clone());
    result.set(
        "schedcache.local_hit_us",
        ns_per_item(30, &ops, |op| cached.compile(op, spec)) / 1e3,
    );
    // Warm-start search for shapes just off the resident ones.
    let probes: Vec<OpSpec> = kernels
        .iter()
        .filter_map(|k| match k.etir.op {
            OpSpec::Gemm { m, k, n } => Some(OpSpec::gemm(m + 8, k, n)),
            _ => None,
        })
        .collect();
    result.set(
        "schedcache.neighbours_us",
        ns_per_item(30, &probes, |op| cache.neighbours(op, spec, 3)) / 1e3,
    );

    let store = Store::open(s.dir.path().join("append.jsonl"));
    let records: Vec<_> = kernels
        .iter()
        .map(|k| {
            let key = CacheKey::new(&k.etir.op, spec, method);
            schedcache::store::record(key, k.etir.op.label(), method, k)
        })
        .collect();
    result.set(
        "schedcache.append_us",
        ns_per_item(10, &records, |r| store.append(r).expect("append")) / 1e3,
    );
    remove_store(store.path());

    let loads: Vec<f64> = (0..30)
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box(Store::open(&path).load().expect("load"));
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    result.set("schedcache.load_ms", stats::median(&loads));
    let reloads: Vec<f64> = (0..30)
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box(ScheduleCache::open(&path).expect("reopen"));
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    result.set("cache_reload_ms", stats::median(&reloads));
    result
        .samples
        .insert("cache_reload_ms".into(), reloads.len() as u64);

    // The miss path with construction taken out: what banking costs.
    let miss_us: Vec<f64> = kernels
        .iter()
        .map(|k| {
            let prebuilt = Prebuilt(k.clone());
            let fresh = Arc::new(ScheduleCache::in_memory());
            let cached = CachedTuner::new(&prebuilt, fresh);
            let t0 = Instant::now();
            std::hint::black_box(cached.compile(&k.etir.op, spec));
            t0.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    result.set("schedcache.miss_overhead_us", stats::median(&miss_us));
    remove_store(&path);
}
