//! Shared measuring machinery: repeated set-up, fixed-work rounds run
//! until the time budget is spent, the end-to-end metrics every workload
//! reports, and the correctness checks applied to every kernel.

use crate::report::RunResult;
use crate::{gen, host, stats};
use gensor::Gensor;
use hardware::GpuSpec;
use simgpu::{CompiledKernel, Tuner};
use std::time::Instant;

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

/// Run `setup` [`SETUP_REPS`] times, keeping the last context (earlier
/// ones are dropped, which stops their daemons and removes their files),
/// and return it with the median set-up time in seconds.
pub fn repeated_setup<T>(mut setup: impl FnMut(usize) -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for rep in 0..SETUP_REPS {
        drop(last.take());
        let t0 = Instant::now();
        last = Some(setup(rep));
        times.push(t0.elapsed().as_secs_f64());
    }
    (
        last.expect("SETUP_REPS is at least one"),
        stats::median(&times),
    )
}

/// Wall and CPU seconds of each measured round.
#[derive(Debug, Default)]
pub struct Rounds {
    pub wall_s: Vec<f64>,
    pub cpu_s: Vec<f64>,
}

/// Run `round(i)` — a fixed amount of work — once unmeasured (caches
/// fill, lazy set-up finishes), then repeatedly for `seconds`, at least
/// `min_rounds` times. Work per round never depends on the clock, so
/// per-round counts repeat exactly; only the number of rounds varies.
pub fn run_rounds(seconds: f64, min_rounds: usize, mut round: impl FnMut(usize)) -> Rounds {
    round(0);
    let mut rounds = Rounds::default();
    let start = Instant::now();
    let mut i = 1;
    while rounds.wall_s.len() < min_rounds || start.elapsed().as_secs_f64() < seconds {
        let (t0, c0) = (Instant::now(), host::process_cpu_time());
        round(i);
        rounds.wall_s.push(t0.elapsed().as_secs_f64());
        rounds
            .cpu_s
            .push((host::process_cpu_time() - c0).as_secs_f64());
        i += 1;
    }
    rounds
}

/// Fill in the end-to-end metrics every workload shares. `latencies_us`
/// holds one caller-visible latency per operation, round after round (so
/// `ops_per_round` at a time); `tail` is the workload's fixed tail
/// percentile. Percentiles are taken per round and the median round is
/// reported, like the throughput: a burst of host noise that spoils a
/// few rounds then moves neither.
pub fn end_to_end(
    result: &mut RunResult,
    rounds: &Rounds,
    ops_per_round: u64,
    latencies_us: &mut [f64],
    tail: f64,
    setup_s: f64,
    kernel_gflops: &[f64],
) {
    let ops = ops_per_round as f64;
    let (mut p50s, mut tails) = (Vec::new(), Vec::new());
    for round in latencies_us.chunks_mut(ops_per_round as usize) {
        round.sort_by(f64::total_cmp);
        p50s.push(stats::percentile_sorted(round, 50.0));
        tails.push(stats::percentile_sorted(round, tail));
    }
    result.set("setup_s", setup_s);
    result.set("ops_per_s", ops / stats::median(&rounds.wall_s));
    result.set("cpu_ms_per_op", stats::median(&rounds.cpu_s) * 1e3 / ops);
    result.set("op_us.p50", stats::median(&p50s));
    result.set("op_us.tail", stats::median(&tails));
    result.set("peak_rss_mb", host::peak_rss_mib());
    result.set("kernel_gflops.geomean", stats::geomean(kernel_gflops));
    let n = latencies_us.len() as u64;
    if stats::highest_supported_percentile(latencies_us.len()).is_none_or(|p| p < tail) {
        eprintln!(
            "ledger: note: {n} samples on {} do not support a p{tail} (fewer than ten beyond it)",
            result.workload
        );
    }
    for metric in ["op_us.p50", "op_us.tail"] {
        result.samples.insert(metric.into(), n);
    }
    result
        .samples
        .insert("ops_per_s".into(), rounds.wall_s.len() as u64);
}

/// The independent-interpreter oracle: four down-scaled operators, one
/// per class, are compiled and executed by `interp`, and must equal the
/// naive reference. Part of every workload's set-up.
pub fn oracle_check(result: &mut RunResult, spec: &GpuSpec) {
    let tuner = Gensor::default();
    for op in gen::oracle_ops() {
        result.attempted += 1;
        let kernel = tuner.compile(&op, spec);
        if let Err(e) = interp::try_check_schedule(&kernel.etir) {
            result.fail(format!("interp oracle: {e}"));
        }
    }
}

/// The checks every compiled kernel must pass: legal under the verifier
/// for this GPU, launchable in the simulator, and emitting CUDA with
/// balanced braces. Returns the emitted source's size in bytes.
pub fn check_kernel(
    result: &mut RunResult,
    label: &str,
    kernel: &CompiledKernel,
    spec: &GpuSpec,
) -> usize {
    let report = verify::verify_schedule(&kernel.etir, Some(spec));
    if !report.is_legal() {
        result.fail(format!("{label}: illegal schedule: {}", report.summary()));
    }
    if let Err(e) = simgpu::simulate(&kernel.etir, spec) {
        result.fail(format!("{label}: unlaunchable: {e:?}"));
    }
    let cuda = codegen::emit_cuda(&kernel.etir);
    if codegen::kernels::brace_balance(&cuda) != 0 {
        result.fail(format!("{label}: emitted CUDA has unbalanced braces"));
    }
    cuda.len()
}

/// Median per-call nanoseconds of `f`, timed in batches of `batch` calls
/// so a ~25 ns clock read does not swamp a ~100 ns call.
pub fn ns_per_call<T>(batches: usize, batch: usize, mut f: impl FnMut() -> T) -> f64 {
    let samples: Vec<f64> = (0..batches)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..batch {
                std::hint::black_box(f());
            }
            t0.elapsed().as_nanos() as f64 / batch as f64
        })
        .collect();
    stats::median(&samples)
}

/// [`ns_per_call`] of `f` over `items`, each batch one pass over them all.
pub fn ns_per_item<T, R>(batches: usize, items: &[T], mut f: impl FnMut(&T) -> R) -> f64 {
    let mut next = items.iter().cycle();
    ns_per_call(batches, items.len(), || {
        f(next.next().expect("items is not empty"))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rounds_run_once_unmeasured_then_at_least_the_minimum() {
        let mut seen = Vec::new();
        let r = run_rounds(0.0, 3, |i| seen.push(i));
        assert_eq!(seen, [0, 1, 2, 3]);
        assert_eq!(r.wall_s.len(), 3);
        assert_eq!(r.cpu_s.len(), 3);
    }

    #[test]
    fn repeated_setup_keeps_the_last_context() {
        let (ctx, s) = repeated_setup(|rep| rep * 10);
        assert_eq!(ctx, (SETUP_REPS - 1) * 10);
        assert!(s >= 0.0);
    }

    #[test]
    fn the_oracle_passes_on_the_seed_compiler() {
        let mut r = RunResult::new("t", 1, false);
        oracle_check(&mut r, &GpuSpec::rtx4090());
        assert!(r.correct, "{:?}", r.findings);
        assert_eq!(r.attempted, 4);
    }
}
