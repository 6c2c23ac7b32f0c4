//! Schedule transplanting — the primitive under the paper's stated ongoing
//! work ("design a dynamic optimizing system based on Gensor to achieve
//! efficient real-time optimization of dynamic deep neural networks",
//! §VII).
//!
//! Because tensor programs are memory-less (the paper's own premise), a
//! good schedule for a nearby shape is a good *state* to start the Markov
//! exploration from: [`transplant`] clamps a cached schedule's tiles into a
//! new shape's envelope and repairs divisibility, and
//! [`crate::Gensor::compile_from`] walks from the result. The dynamic
//! optimizing system built on it — exact-shape hits, nearest-neighbour
//! warm starts, a quarter-chain construction that walks from the
//! transplants and is raced against the best of them — is
//! `schedcache::CachedTuner::for_gensor` over `schedcache::ScheduleCache`.

use etir::Etir;
use hardware::GpuSpec;
use tensor_expr::OpSpec;

/// Re-target a schedule found for one shape onto another shape of the same
/// class: tiles are clamped into the new extents' power-of-two envelope
/// and the `reg·vthread | smem` divisibility is repaired bottom-up.
/// Returns `None` if the transplant violates hardware capacity.
#[allow(clippy::needless_range_loop)] // index addresses several parallel arrays
pub fn transplant(source: &Etir, op: &OpSpec, spec: &GpuSpec) -> Option<Etir> {
    let mut e = Etir::initial(op.clone(), spec);
    let sp = op.spatial_extents();
    for i in 0..e.spatial_rank() {
        let cap = sp[i].next_power_of_two();
        let reg = source.reg_tile[i].min(cap);
        let vt = source.vthreads[i].min(cap / reg.max(1)).max(1);
        let smem = source.smem_tile[i].clamp(reg * vt, cap.max(reg * vt));
        // All quantities are powers of two, so max() preserves
        // divisibility: smem ≥ reg·vt ⇒ reg·vt | smem.
        e.reg_tile[i] = reg;
        e.vthreads[i] = vt;
        e.smem_tile[i] = smem;
    }
    for (j, &ext) in op.reduce_extents().iter().enumerate() {
        e.reduce_tile[j] = source.reduce_tile[j].min(ext.next_power_of_two());
    }
    e.unroll = source.unroll;
    e.cur_level = e.num_levels;
    debug_assert_eq!(e.validate(), Ok(()));
    if etir::analytics::MemCheck::check(&e, spec).fits() {
        Some(e)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuner::Gensor;
    use simgpu::Tuner;

    #[test]
    fn transplant_repairs_divisibility_and_capacity() {
        let spec = GpuSpec::rtx4090();
        // A big schedule moved onto a much smaller shape must clamp.
        let big = Gensor::default()
            .compile(&OpSpec::gemm(8192, 8192, 8192), &spec)
            .etir;
        let small = OpSpec::gemm(96, 24, 48);
        let t = transplant(&big, &small, &spec).expect("transplant fits");
        assert_eq!(t.validate(), Ok(()));
        assert!(etir::analytics::MemCheck::check(&t, &spec).fits());
        // And it still computes the right thing.
        interp::check_schedule(&t);
    }

    #[test]
    fn transplant_across_identical_shape_is_lossless() {
        let spec = GpuSpec::rtx4090();
        let op = OpSpec::gemm(2048, 1024, 2048);
        let src = Gensor::default().compile(&op, &spec).etir;
        let t = transplant(&src, &op, &spec).unwrap();
        assert_eq!(t.smem_tile, src.smem_tile);
        assert_eq!(t.reg_tile, src.reg_tile);
        assert_eq!(t.vthreads, src.vthreads);
        assert_eq!(t.reduce_tile, src.reduce_tile);
    }
}
