//! Workload `suite_cold`: the 32 Table IV operators plus 16 seeded shape
//! variants, compiled cold by `Gensor::default()` for the RTX 4090, pass
//! after pass, with no cache anywhere. `core`, `etir` and `simgpu` do all
//! the work; `schedcache`, `served` and `fabric` do none.

use crate::gen::{suite_ops, SuiteOp};
use crate::measure::{self, check_kernel, ns_per_item, oracle_check, repeated_setup, run_rounds};
use crate::replay::{replay_compile, Counts};
use crate::report::{digest, RunResult};
use crate::trace::{self, Tracer};
use crate::{stats, Args};
use etir::{Etir, LoopNest};
use gensor::Gensor;
use hardware::GpuSpec;
use simgpu::{CompiledKernel, Tuner};
use std::sync::Arc;
use std::time::Instant;
use tensor_expr::OpClass;

/// Fixed tail percentile: 48 × ~20 samples support p90 (some 80 beyond
/// it), not p99 (7 or 8). It lands among the convolutions.
const TAIL: f64 = 90.0;

struct Setup {
    ops: Vec<SuiteOp>,
    spec: GpuSpec,
}

fn setup(result: &mut RunResult, seed: u64) -> Setup {
    let spec = GpuSpec::rtx4090();
    oracle_check(result, &spec);
    Setup {
        ops: suite_ops(seed),
        spec,
    }
}

/// One cold pass; returns per-operator compile milliseconds and kernels.
fn cold_pass(tuner: &Gensor, s: &Setup) -> (Vec<f64>, Vec<CompiledKernel>) {
    let mut ms = Vec::with_capacity(s.ops.len());
    let mut kernels = Vec::with_capacity(s.ops.len());
    for o in &s.ops {
        let t0 = Instant::now();
        let k = tuner.compile(&o.op, &s.spec);
        ms.push(t0.elapsed().as_secs_f64() * 1e3);
        kernels.push(k);
    }
    (ms, kernels)
}

fn fingerprints(kernels: &[CompiledKernel]) -> Vec<u64> {
    kernels.iter().map(|k| k.etir.fingerprint()).collect()
}

/// Check the first pass's kernels, and that every later pass chose the
/// same schedules. Returns the fixed operators' achieved GFLOP/s.
fn verify_passes(result: &mut RunResult, s: &Setup, passes: &[Vec<CompiledKernel>]) -> Vec<f64> {
    let first = &passes[0];
    for (o, k) in s.ops.iter().zip(first) {
        check_kernel(result, &o.label, k, &s.spec);
    }
    let want = fingerprints(first);
    for (i, pass) in passes.iter().enumerate().skip(1) {
        if fingerprints(pass) != want {
            result.fail(format!("pass {i} chose other schedules than pass 0"));
        }
    }
    result.schedule_digest = digest(want);
    s.ops
        .iter()
        .zip(first)
        .filter(|(o, _)| o.fixed)
        .map(|(_, k)| k.report.gflops)
        .collect()
}

pub fn run(args: &Args) -> RunResult {
    let mut result = RunResult::new("suite_cold", args.seed, args.trace);
    // The end-to-end run is pinned to one CPU (see README, "Pinning"); the
    // traced run keeps every CPU so the parallel figures mean something.
    if !args.trace {
        result.pinned = crate::host::pin_to_one_cpu();
    }
    let (s, setup_s) = repeated_setup(|_| setup(&mut result, args.seed));
    let tuner = Gensor::default();
    if args.trace {
        traced(&mut result, &s, &tuner, args.seconds);
        return result;
    }
    let mut latencies_us = Vec::new();
    let mut passes: Vec<Vec<CompiledKernel>> = Vec::new();
    let rounds = run_rounds(args.seconds, 3, |i| {
        let (ms, kernels) = cold_pass(&tuner, &s);
        if i > 0 {
            latencies_us.extend(ms.iter().map(|m| m * 1e3));
            passes.push(kernels);
        }
    });
    let n_ops = s.ops.len() as u64;
    result.attempted += n_ops * passes.len() as u64;
    let gflops = verify_passes(&mut result, &s, &passes);
    measure::end_to_end(
        &mut result,
        &rounds,
        n_ops,
        &mut latencies_us,
        TAIL,
        setup_s,
        &gflops,
    );
    result
}

fn class_key(class: OpClass) -> &'static str {
    match class {
        OpClass::Conv2d => "conv",
        OpClass::Gemm => "gemm",
        OpClass::Gemv => "gemv",
        OpClass::AvgPool2d => "pool",
        OpClass::Elementwise => "elementwise",
    }
}

/// The traced run: an untraced control (the workload's own end-to-end
/// figures), one serial replay of every compile under spans, the Fig. 8
/// comparison row and the `obs` collector's cost.
fn traced(result: &mut RunResult, s: &Setup, tuner: &Gensor, seconds: f64) {
    // --- Untraced control: first pass of the process, then steady passes.
    let t0 = Instant::now();
    let (_, first_kernels) = cold_pass(tuner, s);
    let first_pass_s = t0.elapsed().as_secs_f64();
    let mut pass_s = Vec::new();
    let mut per_op_ms: Vec<Vec<f64>> = vec![Vec::new(); s.ops.len()];
    let mut passes = vec![first_kernels];
    let control = Instant::now();
    while pass_s.len() < 2 || control.elapsed().as_secs_f64() < seconds * 0.25 {
        let t0 = Instant::now();
        let (ms, kernels) = cold_pass(tuner, s);
        pass_s.push(t0.elapsed().as_secs_f64());
        for (samples, m) in per_op_ms.iter_mut().zip(ms) {
            samples.push(m);
        }
        passes.push(kernels);
    }
    result.attempted += (s.ops.len() * passes.len()) as u64;
    verify_passes(result, s, &passes);
    let kernels = &passes[0];
    let op_median_ms: Vec<f64> = per_op_ms.iter().map(|v| stats::median(v)).collect();
    let suite_pass_s = stats::median(&pass_s);
    result.set("suite_pass_s", suite_pass_s);
    result
        .samples
        .insert("suite_pass_s".into(), pass_s.len() as u64);
    result.set("compile_ms.geomean", stats::geomean(&op_median_ms));
    let kernel_us: Vec<f64> = kernels.iter().map(|k| k.report.time_us).collect();
    result.set("kernel_time_us.geomean", stats::geomean(&kernel_us));
    result.set("core.first_pass_ratio", first_pass_s / suite_pass_s);
    for class in [
        OpClass::Conv2d,
        OpClass::Gemm,
        OpClass::Gemv,
        OpClass::AvgPool2d,
    ] {
        let ms: Vec<f64> = s
            .ops
            .iter()
            .zip(&op_median_ms)
            .filter(|(o, _)| o.op.class() == class)
            .map(|(_, &m)| m)
            .collect();
        result.set(
            &format!("core.compile_ms.{}", class_key(class)),
            stats::median(&ms),
        );
    }

    // --- The `obs` collector's cost: one pass with a ring collector on.
    obs::install(Arc::new(obs::RingCollector::new(1 << 16)));
    let t0 = Instant::now();
    std::hint::black_box(cold_pass(tuner, s));
    let collected_s = t0.elapsed().as_secs_f64();
    obs::uninstall();
    result.set(
        "obs.collector_overhead_share",
        (collected_s - suite_pass_s) / suite_pass_s,
    );

    // --- Serial replay of one pass under spans.
    let mut tr = Tracer::new();
    let mut totals = Totals::default();
    for (i, o) in s.ops.iter().enumerate() {
        let r = replay_compile(tuner, &o.op, &s.spec, &mut tr, i as u32);
        result.attempted += 1;
        if r.mismatched_chains > 0 {
            result.fail(format!(
                "{}: replay of {} chain(s) diverged from Walk::run",
                o.label, r.mismatched_chains
            ));
        }
        match &r.best {
            Some((e, _)) if e.fingerprint() == kernels[i].etir.fingerprint() => {}
            _ => result.fail(format!(
                "{}: replay chose another schedule than compile",
                o.label
            )),
        }
        totals.add(&r);
    }
    totals.report(result, &tr, suite_pass_s);

    // --- Calls the walk makes rarely or not at all, timed directly.
    let states: Vec<&Etir> = kernels.iter().map(|k| &k.etir).collect();
    result.set(
        "etir.lower_us",
        ns_per_item(30, &states, |e| LoopNest::from_etir(e)) / 1e3,
    );

    fig8(result, s, &op_median_ms);
    write_trace_files(result, &tr, s);
}

/// Sums over one replayed pass.
#[derive(Default)]
struct Totals {
    chains: u64,
    counts: Counts,
    serial_ns: u64,
    score_self_ns: Vec<f64>,
}

impl Totals {
    fn add(&mut self, r: &crate::replay::CompileReplay) {
        self.chains += r.chains;
        self.counts += r.counts;
        self.serial_ns += r.serial_ns;
        self.score_self_ns.extend(&r.score_self_ns);
    }

    fn report(&self, result: &mut RunResult, tr: &Tracer, parallel_pass_s: f64) {
        let table = trace::self_times(tr.spans());
        let total = |name: &str| table.get(name).map_or(0, |t| t.total_ns) as f64;
        let median_ns = |name: &str| {
            let d = tr.durations(name);
            if d.is_empty() {
                0.0
            } else {
                stats::median(&d)
            }
        };
        for (metric, span) in [
            ("etir.initial_ns", "etir.initial"),
            ("etir.enumerate_ns", "etir.enumerate"),
            ("etir.apply_ns", "etir.apply"),
            ("etir.clone_ns", "etir.clone"),
            ("etir.stats_ns", "etir.stats"),
            ("etir.memcheck_ns", "etir.memcheck"),
            ("etir.fingerprint_ns", "etir.fingerprint"),
            ("core.benefit_eval_ns", "core.benefit_eval"),
            ("core.choose_ns", "core.choose"),
            ("simgpu.simulate_ns", "simgpu.simulate"),
        ] {
            result.set(metric, median_ns(span));
        }
        result.set("core.walk_us", median_ns("core.chain") / 1e3);
        result.set("core.score_step_us", median_ns("core.score_step") / 1e3);
        result.set("simgpu.pick_best_us", median_ns("simgpu.pick_best") / 1e3);
        result.set(
            "core.score_self_us",
            stats::median(&self.score_self_ns) / 1e3,
        );
        result.set("core.steps", self.counts.steps as f64);
        result.set("core.benefit_evals", self.counts.benefit_evals as f64);
        result.set("core.chains", self.chains as f64);
        result.set(
            "core.feasible_share",
            self.counts.rows_kept as f64 / self.counts.benefit_evals as f64,
        );
        result.set("simgpu.simulate_calls", self.counts.simulate_calls as f64);
        result.set(
            "simgpu.infeasible_share",
            self.counts.simulate_errs as f64 / self.counts.simulate_calls as f64,
        );
        let serial_s = self.serial_ns as f64 / 1e9;
        result.set("core.parallel_speedup", serial_s / parallel_pass_s);

        // Attributed: everything a chain span's children cover, except
        // the shadow repeats, which are extra work and not the compile's.
        let shadow = total("shadow.score_step");
        let chain = &table["core.chain"];
        let attributed = (chain.total_ns - chain.self_ns) as f64 - shadow;
        let coverage = attributed / self.serial_ns as f64;
        result.set("core.replay_coverage", coverage);
        if coverage < 0.90 {
            result.fail(format!(
                "replay attributes only {:.1} % of the serial compile time",
                coverage * 100.0
            ));
        }
        result.set(
            "ledger.trace_overhead_share",
            (chain.total_ns as f64 - shadow - self.serial_ns as f64) / self.serial_ns as f64,
        );
        eprint!("{}", trace::render_self_times(&table));
    }
}

/// Fig. 8 as a tracked row: Gensor vs Roller vs Ansor (simulated
/// measurement clock) over the eight suite GEMMs.
fn fig8(result: &mut RunResult, s: &Setup, gensor_ms: &[f64]) {
    let roller = roller::Roller::default();
    let ansor = search::Ansor::default();
    let (mut roller_us, mut ansor_ms, mut ansor_sim_s) = (Vec::new(), Vec::new(), 0.0);
    let (mut g_over_r, mut a_over_g) = (Vec::new(), Vec::new());
    for (o, &g_ms) in s.ops.iter().zip(gensor_ms) {
        if !(o.fixed && o.op.class() == OpClass::Gemm) {
            continue;
        }
        let samples: Vec<f64> = (0..5)
            .map(|_| {
                let t0 = Instant::now();
                std::hint::black_box(roller.compile(&o.op, &s.spec));
                t0.elapsed().as_secs_f64() * 1e6
            })
            .collect();
        let r_us = stats::median(&samples);
        let t0 = Instant::now();
        let a = ansor.compile(&o.op, &s.spec);
        let a_ms = t0.elapsed().as_secs_f64() * 1e3;
        roller_us.push(r_us);
        ansor_ms.push(a_ms);
        ansor_sim_s += a.simulated_tuning_s;
        g_over_r.push(g_ms * 1e3 / r_us);
        a_over_g.push((a_ms + a.simulated_tuning_s * 1e3) / g_ms);
    }
    result.set("roller.compile_us", stats::median(&roller_us));
    result.set("search.ansor_wall_ms", stats::median(&ansor_ms));
    result.set("search.ansor_simulated_s", ansor_sim_s);
    result.set("fig8.gensor_over_roller", stats::geomean(&g_over_r));
    result.set("fig8.ansor_over_gensor", stats::geomean(&a_over_g));
}

/// Chrome trace of the first operator of each class (a whole pass is
/// about a million spans — more than a viewer loads).
fn write_trace_files(result: &RunResult, tr: &Tracer, s: &Setup) {
    let mut keep = Vec::new();
    for class in [
        OpClass::Conv2d,
        OpClass::Gemm,
        OpClass::Gemv,
        OpClass::AvgPool2d,
    ] {
        keep.extend(s.ops.iter().position(|o| o.op.class() == class));
    }
    let json = trace::chrome_json(tr.spans(), |op| keep.contains(&(op as usize)));
    crate::write_output(&format!("trace-{}.json", result.workload), &json);
}
