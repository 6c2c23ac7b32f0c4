//! [`CachedTuner`] — drop-in [`Tuner`] adapter that routes any method's
//! compiles through a [`ScheduleCache`].
//!
//! Because `models::pipeline`, `models::dynamic` and `models::timeline`
//! all take `&dyn Tuner`, wrapping a method in `CachedTuner` is the whole
//! integration: hits return instantly (zero tuning cost), misses run the
//! wrapped method once (deduplicated across threads), and — when a warm
//! tuner is attached — a new shape with cached neighbours transplants
//! their schedules onto itself and runs a quarter-chain construction whose
//! walks start at those transplants, not at the unscheduled state; the
//! best bare transplant is raced against the walks' winner.

use crate::cache::ScheduleCache;
use crate::map::Outcome;
use etir::Etir;
use gensor::{transplant, Gensor};
use hardware::GpuSpec;
use simgpu::{pick_best, CompiledKernel, Tuner};
use std::sync::Arc;
use std::time::Instant;
use tensor_expr::OpSpec;

/// A caching wrapper around any tuner.
pub struct CachedTuner<'a> {
    inner: &'a dyn Tuner,
    /// Reduced-budget constructor used when neighbour seeds exist; `None`
    /// disables warm starts (misses always run `inner` as-is).
    warm: Option<Gensor>,
    cache: Arc<ScheduleCache>,
}

impl<'a> CachedTuner<'a> {
    /// Cache `inner` with no warm-start path.
    pub fn new(inner: &'a dyn Tuner, cache: Arc<ScheduleCache>) -> Self {
        CachedTuner {
            inner,
            warm: None,
            cache,
        }
    }

    /// Cache a Gensor instance, warm-starting new shapes with a
    /// quarter-chain construction ([`gensor::GensorConfig::warm`]) that
    /// walks from cached neighbours' schedules — the paper's §VII dynamic
    /// optimizing system.
    pub fn for_gensor(inner: &'a Gensor, cache: Arc<ScheduleCache>) -> Self {
        CachedTuner {
            inner,
            warm: Some(Gensor::with_config(inner.cfg.warm())),
            cache,
        }
    }

    /// The cache this adapter feeds.
    pub fn cache(&self) -> &Arc<ScheduleCache> {
        &self.cache
    }

    /// Compile through the cache and report how it answered
    /// ([`ScheduleCache::get_or_compile`]: a cached answer costs nothing).
    /// The answer is statically proved legal for `spec` before it is
    /// returned; an illegal schedule comes back as the typed
    /// [`verify::Rejected`] report instead of a kernel, and is not kept.
    pub fn compile_verified(
        &self,
        op: &OpSpec,
        spec: &GpuSpec,
    ) -> Result<(CompiledKernel, Outcome), verify::Rejected> {
        self.cache
            .get_or_compile(op, spec, self.inner.name(), |seeds| {
                construct(self.inner, self.warm.as_ref(), seeds, op, spec)
            })
    }
}

/// One construction: the wrapped method, or — given seeds and a warm
/// tuner — a reduced-budget run whose chains walk from the transplanted
/// neighbour schedules, raced against the best bare transplant.
fn construct(
    inner: &dyn Tuner,
    warm: Option<&Gensor>,
    seeds: &[Etir],
    op: &OpSpec,
    spec: &GpuSpec,
) -> CompiledKernel {
    let (Some(warm), false) = (warm, seeds.is_empty()) else {
        return inner.compile(op, spec);
    };
    let t0 = Instant::now();
    let transplanted: Vec<Etir> = seeds
        .iter()
        .filter_map(|n| transplant(n, op, spec))
        // A cross-device transplant is a guess; prove each one legal on
        // the *target* device before racing it against construction.
        .filter(|e| verify::verify_schedule(e, Some(spec)).is_legal())
        .collect();
    let best_seed = pick_best(&transplanted, spec);
    let mut fresh = warm.compile_from(op, spec, &transplanted);
    if let Some((e, r)) = best_seed {
        if r.time_us < fresh.report.time_us {
            fresh.etir = e;
            fresh.report = r;
        }
    }
    fresh.wall_time_s = t0.elapsed().as_secs_f64();
    fresh
}

impl Tuner for CachedTuner<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    /// [`compile_verified`](CachedTuner::compile_verified); a refused
    /// schedule is logged and answered with what the caller would have
    /// had with no cache — the wrapped method, uncached.
    fn compile(&self, op: &OpSpec, spec: &GpuSpec) -> CompiledKernel {
        match self.compile_verified(op, spec) {
            Ok((kernel, _)) => kernel,
            Err(rejected) => {
                obs::log!(Warn, "schedcache: {rejected}; compiling uncached");
                self.inner.compile(op, spec)
            }
        }
    }

    fn fuses_elementwise(&self) -> bool {
        self.inner.fuses_elementwise()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn second_compile_is_a_free_hit() {
        let spec = GpuSpec::rtx4090();
        let gensor = Gensor::single_chain(7);
        let cache = Arc::new(ScheduleCache::in_memory());
        let tuner = CachedTuner::for_gensor(&gensor, cache.clone());
        let op = OpSpec::gemm(1024, 512, 512);
        let (a, oa) = tuner.compile_verified(&op, &spec).unwrap();
        let (b, ob) = tuner.compile_verified(&op, &spec).unwrap();
        assert_eq!(oa, Outcome::Built);
        assert_eq!(ob, Outcome::Hit);
        assert_eq!(a.etir, b.etir);
        assert_eq!(b.total_tuning_s(), 0.0);
        assert!(a.total_tuning_s() > 0.0);
    }

    #[test]
    fn name_and_fusion_delegate_to_the_wrapped_method() {
        let gensor = Gensor::default();
        let cache = Arc::new(ScheduleCache::in_memory());
        let tuner = CachedTuner::for_gensor(&gensor, cache);
        assert_eq!(tuner.name(), "Gensor");
        assert!(tuner.fuses_elementwise());
    }

    #[test]
    fn warm_start_engages_for_neighbouring_shapes() {
        let spec = GpuSpec::rtx4090();
        let gensor = Gensor::default();
        let cache = Arc::new(ScheduleCache::in_memory());
        let tuner = CachedTuner::for_gensor(&gensor, cache.clone());
        let cold = tuner.compile(&OpSpec::gemm(1024, 512, 512), &spec);
        let warm = tuner.compile(&OpSpec::gemm(1536, 512, 512), &spec);
        let s = cache.stats();
        assert_eq!(s.misses, 2);
        assert_eq!(s.warm_starts, 1);
        assert!(
            warm.candidates_evaluated < cold.candidates_evaluated,
            "warm path must run a reduced-budget construction: {} !< {}",
            warm.candidates_evaluated,
            cold.candidates_evaluated
        );
    }

    #[test]
    fn warm_quality_stays_close_to_cold() {
        // A warm miss walks a quarter of the chains from its neighbours'
        // schedules, and lands a kernel no slower than a full cold compile.
        for spec in [GpuSpec::rtx4090(), GpuSpec::orin_nano()] {
            let gensor = Gensor::default();
            let cache = Arc::new(ScheduleCache::in_memory());
            let tuner = CachedTuner::for_gensor(&gensor, cache.clone());
            for m in [64u64, 96, 128, 192, 256] {
                let op = OpSpec::gemm(8 * m, 512, 512);
                let warm = tuner.compile(&op, &spec);
                let cold = gensor.compile(&op, &spec);
                assert!(
                    warm.report.time_us <= cold.report.time_us,
                    "{} on {}: warm {} vs cold {}",
                    op.label(),
                    spec.name,
                    warm.report.time_us,
                    cold.report.time_us
                );
            }
            assert_eq!(cache.stats().warm_starts, 4, "{}", spec.name);
        }
    }

    #[test]
    fn the_same_request_stream_builds_the_same_schedules() {
        // A warm walk starts at what the cache holds, so its schedule is a
        // function of the stream so far; two fresh caches fed one stream
        // build byte-identical schedules.
        let spec = GpuSpec::rtx4090();
        let gensor = Gensor::default();
        let stream: Vec<OpSpec> = [128u64, 160, 192, 128, 256, 320, 192, 384]
            .iter()
            .map(|&s| OpSpec::gemm(8 * s, 512, 1024))
            .collect();
        let schedules = || {
            let tuner = CachedTuner::for_gensor(&gensor, Arc::new(ScheduleCache::in_memory()));
            stream
                .iter()
                .map(|op| {
                    let k = tuner.compile(op, &spec);
                    (
                        serde_json::to_string(&k.etir).unwrap(),
                        k.report.time_us.to_bits(),
                    )
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(schedules(), schedules());
    }
}
