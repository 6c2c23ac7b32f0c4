//! The end-to-end compile-and-run pipeline.

use crate::graph::ModelGraph;
use hardware::GpuSpec;
use simgpu::{CompiledKernel, Tuner};

/// A model compiled with one method.
#[derive(Debug, Clone)]
pub struct CompiledModel {
    /// Model name.
    pub model: String,
    /// Method name.
    pub method: String,
    /// Per-unique-layer kernels: (layer name, kernel, launches per pass).
    pub kernels: Vec<(String, CompiledKernel, u32)>,
    /// One forward pass in microseconds.
    pub pass_time_us: f64,
    /// Total optimization latency (honest tuner wall time + simulated
    /// measurement clock) across all unique layers, seconds.
    pub tuning_s: f64,
    /// Images (or sequences) per second: `batch / pass_time`.
    pub throughput: f64,
}

impl CompiledModel {
    /// Relative speed vs another compiled instance of the same model.
    pub fn speedup_over(&self, other: &CompiledModel) -> f64 {
        other.pass_time_us / self.pass_time_us
    }
}

/// Compile every unique operator of `graph` with `tuner` and aggregate the
/// end-to-end forward-pass time.
///
/// Compiler stacks fuse standalone elementwise layers into their producers
/// (those layers cost nothing extra); the eager baseline launches each one
/// (`Tuner::fuses_elementwise`). Unique operators are compiled one after
/// another in layer order: through a caching tuner a layer may warm-start
/// from an earlier layer's schedule, so a fixed order keeps every
/// schedule a function of the model. Each compile still spreads its
/// chains over every core.
pub fn compile_model(tuner: &dyn Tuner, graph: &ModelGraph, spec: &GpuSpec) -> CompiledModel {
    let layers: Vec<_> = if tuner.fuses_elementwise() {
        graph.fused_layers().cloned().collect()
    } else {
        graph.layers.clone()
    };
    let kernels: Vec<(String, CompiledKernel, u32)> = layers
        .iter()
        .map(|l| (l.name.clone(), tuner.compile(&l.op, spec), l.count))
        .collect();
    let pass_time_us: f64 = kernels
        .iter()
        .map(|(_, k, c)| k.report.time_us * *c as f64)
        .sum();
    let tuning_s: f64 = kernels.iter().map(|(_, k, _)| k.total_tuning_s()).sum();
    CompiledModel {
        model: graph.name.clone(),
        method: tuner.name().to_string(),
        kernels,
        pass_time_us,
        tuning_s,
        throughput: graph.batch as f64 / (pass_time_us / 1e6),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zoo;
    use gensor::Gensor;
    use roller::Roller;
    use search::Eager;

    #[test]
    fn resnet50_pipeline_produces_sane_numbers() {
        let spec = GpuSpec::rtx4090();
        let g = zoo::resnet50(128);
        let cm = compile_model(&Roller::default(), &g, &spec);
        assert!(cm.pass_time_us > 0.0);
        // 128 images in a batch; a 4090 does a few thousand fps on
        // ResNet-50 FP32 — demand an order-of-magnitude-sane range.
        assert!(
            (200.0..100_000.0).contains(&cm.throughput),
            "fps {}",
            cm.throughput
        );
        assert_eq!(cm.kernels.len(), g.fused_layers().count());
    }

    #[test]
    fn gensor_end_to_end_beats_roller() {
        let spec = GpuSpec::rtx4090();
        let g = zoo::bert_small(8, 128);
        let gm = compile_model(&Gensor::default(), &g, &spec);
        let rm = compile_model(&Roller::default(), &g, &spec);
        assert!(
            gm.speedup_over(&rm) > 1.0,
            "Gensor {} vs Roller {} µs",
            gm.pass_time_us,
            rm.pass_time_us
        );
    }

    #[test]
    fn eager_pays_for_elementwise_and_dispatch() {
        let spec = GpuSpec::rtx4090();
        let g = zoo::resnet50(16);
        let eager = compile_model(&Eager, &g, &spec);
        let tuned = compile_model(&Roller::default(), &g, &spec);
        // Eager compiles *more* kernels (elementwise not fused)...
        assert!(eager.kernels.len() > tuned.kernels.len());
        // ...and is much slower end-to-end.
        assert!(
            tuned.speedup_over(&eager) > 2.0,
            "tuned {} vs eager {} µs",
            tuned.pass_time_us,
            eager.pass_time_us
        );
    }

    #[test]
    fn tuning_cost_aggregates_across_layers() {
        let spec = GpuSpec::rtx4090();
        let g = zoo::bert_small(1, 64);
        let cm = compile_model(&search::Ansor::with_trials(50), &g, &spec);
        // 50 simulated seconds per unique (non-elementwise) layer.
        let expect = 50.0 * g.fused_layers().count() as f64;
        assert!(
            cm.tuning_s >= expect * 0.99,
            "{} vs {}",
            cm.tuning_s,
            expect
        );
    }
}
