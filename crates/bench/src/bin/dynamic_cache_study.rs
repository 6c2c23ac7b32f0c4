//! Extension experiment (paper §VII's ongoing work): the real-time
//! dynamic-optimization system — `schedcache`'s schedule cache +
//! warm-started construction — on a stream of shape-shifting BERT
//! projections.

use bench::{print_table, write_json};
use gensor::Gensor;
use schedcache::{CachedTuner, Outcome, ScheduleCache};
use serde::Serialize;
use simgpu::Tuner;
use std::sync::Arc;
use tensor_expr::OpSpec;

#[derive(Serialize)]
struct Row {
    step: usize,
    shape: String,
    mode: String,
    wall_ms: f64,
    candidates: u64,
    gflops: f64,
    cold_gflops: f64,
}

fn main() {
    let spec = hardware::GpuSpec::rtx4090();
    // A stream of dynamically-changing sequence lengths, with repeats
    // (real traffic revisits shapes).
    let seqs = [
        128u64, 160, 192, 128, 256, 320, 192, 384, 128, 448, 512, 256,
    ];
    let shapes: Vec<OpSpec> = seqs
        .iter()
        .map(|&s| OpSpec::gemm(8 * s, 512, 2048))
        .collect();

    let cold = Gensor::default();
    let cache = Arc::new(ScheduleCache::in_memory());
    let opt = CachedTuner::for_gensor(&cold, cache.clone());
    println!("Dynamic optimization stream (BERT FFN projection, varying seq length)\n");
    let mut data = Vec::new();
    let mut rows = Vec::new();
    for (i, op) in shapes.iter().enumerate() {
        let warm_before = cache.stats().warm_starts;
        let (k, outcome) = opt
            .compile_verified(op, &spec)
            .expect("construction yields legal schedules");
        let mode = match outcome {
            Outcome::Hit | Outcome::Coalesced => "hit",
            Outcome::Built if cache.stats().warm_starts > warm_before => "warm",
            Outcome::Built => "cold",
        };
        let ck = cold.compile(op, &spec);
        rows.push(vec![
            format!("{i}"),
            op.label(),
            mode.to_string(),
            format!("{:.2}", k.wall_time_s * 1000.0),
            format!("{}", k.candidates_evaluated),
            format!("{:.0}", k.report.gflops),
            format!("{:.0}", ck.report.gflops),
        ]);
        data.push(Row {
            step: i,
            shape: op.label(),
            mode: mode.to_string(),
            wall_ms: k.wall_time_s * 1000.0,
            candidates: k.candidates_evaluated,
            gflops: k.report.gflops,
            cold_gflops: ck.report.gflops,
        });
    }
    print_table(
        &[
            "step",
            "shape",
            "mode",
            "wall(ms)",
            "cands",
            "GFLOPS",
            "cold GFLOPS",
        ],
        &rows,
    );
    let s = cache.stats();
    println!(
        "\nCache: {} hits, {} warm starts, {} cold misses over {} requests",
        s.hits,
        s.warm_starts,
        s.misses - s.warm_starts,
        shapes.len()
    );
    let warm_quality: Vec<f64> = data
        .iter()
        .filter(|r| r.mode == "warm")
        .map(|r| r.gflops / r.cold_gflops)
        .collect();
    if !warm_quality.is_empty() {
        let avg = warm_quality.iter().sum::<f64>() / warm_quality.len() as f64;
        println!(
            "Warm-start quality vs full cold compile: {:.1}% on average",
            avg * 100.0
        );
    }
    write_json("dynamic_cache_study", &data);
}
