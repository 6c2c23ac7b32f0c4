//! Performance lints: legal-but-suspicious schedule shapes.
//!
//! Nothing here blocks execution by default — these are the findings a
//! construction policy should normally have optimised away, surfaced so
//! that `gensor lint --deny-warnings` can hold cached or hand-written
//! schedules to the same standard the tuner's cost model enforces.

use crate::diag::{Code, Diagnostic};
use crate::invariants::LINTS_PASS;
use etir::{Etir, LoopNest, ScheduleStats};
use hardware::{GpuSpec, LevelKind};

/// Bank-conflict degree that turns a stride from "mild" into a warning.
/// Consecutive threads read shared memory `reg_tile` words apart; a degree
/// of `gcd(stride, banks)` ≥ 16 serialises a 32-lane warp 16-ways.
const CONFLICT_DEGREE_WARN: u64 = 16;

/// Fraction of the per-thread register cap above which occupancy suffers.
const REG_PRESSURE_NUM: u64 = 17; // 85%
const REG_PRESSURE_DEN: u64 = 20;

fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// The performance lints (GS020–GS025) over a schedule and its resolved
/// extents; the hardware-dependent ones are skipped without a `spec`.
pub fn lints(e: &Etir, nest: &LoopNest, spec: Option<&GpuSpec>, out: &mut Vec<Diagnostic>) {
    if !e.is_complete() {
        out.push(Diagnostic::new(
            Code::Incomplete,
            LINTS_PASS,
            format!(
                "schedule stopped at level {} of {}; register tiles never placed",
                e.cur_level, e.num_levels
            ),
        ));
    }

    let tile_volume: u64 = nest.smem_tile.iter().product();
    if e.is_complete() && tile_volume == 1 {
        let space: u64 = e.op.spatial_extents().iter().product();
        if space >= 1024 {
            out.push(Diagnostic::new(
                Code::DegenerateTile,
                LINTS_PASS,
                format!(
                    "complete schedule never tiled a {space}-element iteration space \
                     (every block computes one element)"
                ),
            ));
        }
    }

    let Some(spec) = spec else { return };

    let banks = spec
        .level_index(LevelKind::Shared)
        .map(|i| spec.levels[i].banks as u64)
        .unwrap_or(0);
    if banks > 1 {
        for (i, &r) in nest.reg_tile.iter().enumerate() {
            if nest.thread_dims[i] <= 1 {
                continue; // one thread along this dim: no concurrent lanes
            }
            let degree = gcd(r, banks);
            if degree >= CONFLICT_DEGREE_WARN {
                out.push(Diagnostic::new(
                    Code::BankConflict,
                    LINTS_PASS,
                    format!(
                        "dim {i}: threads read shared memory {r} words apart → \
                         {degree}-way bank conflict over {banks} banks"
                    ),
                ));
            }
        }
    }

    // A sub-warp block wastes lanes only when the threads are not each
    // carrying a large register/vthread workload: trading occupancy for
    // ILP is a construction outcome the cost model picks deliberately
    // (batch-1 convolutions routinely win with 8–16 fat threads).
    let threads = nest.threads_per_block();
    let work_per_thread: u64 =
        nest.reg_tile.iter().product::<u64>() * nest.vthreads.iter().product::<u64>();
    if e.is_complete()
        && threads > 0
        && threads < spec.warp_size as u64
        && tile_volume >= 2 * spec.warp_size as u64
        && work_per_thread < spec.warp_size as u64 / 2
    {
        out.push(Diagnostic::new(
            Code::SubWarpBlock,
            LINTS_PASS,
            format!(
                "block of {threads} threads cannot fill one {}-lane warp despite a \
                 {tile_volume}-element block tile ({work_per_thread} elements per thread)",
                spec.warp_size
            ),
        ));
    }

    let stats = ScheduleStats::compute(e);
    let cap = spec.max_regs_per_thread as u64;
    if stats.regs_per_thread * REG_PRESSURE_DEN >= cap * REG_PRESSURE_NUM
        && stats.regs_per_thread <= cap
    {
        out.push(Diagnostic::new(
            Code::RegisterPressure,
            LINTS_PASS,
            format!(
                "{} registers per thread is ≥ 85% of the {cap}-register cap; \
                 occupancy will be register-bound",
                stats.regs_per_thread
            ),
        ));
    }

    if e.is_complete() && nest.total_blocks() < spec.num_sms as u64 {
        out.push(Diagnostic::new(
            Code::GridUnderfill,
            LINTS_PASS,
            format!(
                "grid of {} block(s) leaves {} of {} SMs idle",
                nest.total_blocks(),
                spec.num_sms as u64 - nest.total_blocks(),
                spec.num_sms
            ),
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tensor_expr::OpSpec;

    fn run_on(e: &Etir, spec: Option<&GpuSpec>) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        lints(e, &LoopNest::from_etir(e), spec, &mut out);
        out
    }

    #[test]
    fn incomplete_schedule_is_an_info() {
        let spec = GpuSpec::rtx4090();
        let e = Etir::initial(OpSpec::gemm(64, 64, 64), &spec);
        let diags = run_on(&e, Some(&spec));
        assert!(diags.iter().any(|d| d.code == Code::Incomplete));
    }

    #[test]
    fn untiled_complete_schedule_is_degenerate() {
        let spec = GpuSpec::rtx4090();
        let mut e = Etir::initial(OpSpec::gemm(256, 64, 256), &spec);
        e.cur_level = 2; // claims completion without ever tiling
        let diags = run_on(&e, Some(&spec));
        assert!(diags.iter().any(|d| d.code == Code::DegenerateTile));
    }

    #[test]
    fn huge_register_stride_is_a_bank_conflict() {
        let spec = GpuSpec::rtx4090();
        let mut e = Etir::initial(OpSpec::gemm(1024, 64, 1024), &spec);
        e.smem_tile[0] = 128;
        e.reg_tile[0] = 32; // stride 32 over 32 banks: fully serialised
        e.cur_level = 2;
        let diags = run_on(&e, Some(&spec));
        assert!(
            diags.iter().any(|d| d.code == Code::BankConflict),
            "{diags:?}"
        );
    }

    #[test]
    fn sub_warp_block_warns_only_without_ilp_compensation() {
        let spec = GpuSpec::rtx4090();
        let mut e = Etir::initial(OpSpec::gemm(1024, 64, 1024), &spec);
        e.smem_tile = [8, 8].into();
        e.reg_tile = [2, 2].into(); // 16 threads × 4 elements: lanes idle for real
        e.cur_level = 2;
        let diags = run_on(&e, Some(&spec));
        assert!(
            diags.iter().any(|d| d.code == Code::SubWarpBlock),
            "{diags:?}"
        );

        // Same 16-thread block, but each thread carries a 16-element register
        // tile: occupancy traded for ILP on purpose — no warning.
        e.smem_tile = [16, 16].into();
        e.reg_tile = [8, 2].into();
        let diags = run_on(&e, Some(&spec));
        assert!(
            !diags.iter().any(|d| d.code == Code::SubWarpBlock),
            "{diags:?}"
        );
    }

    #[test]
    fn hardware_lints_need_a_spec() {
        let spec = GpuSpec::rtx4090();
        let mut e = Etir::initial(OpSpec::gemm(1024, 64, 1024), &spec);
        e.smem_tile[0] = 128;
        e.reg_tile[0] = 32;
        e.cur_level = 2;
        let diags = run_on(&e, None);
        assert!(!diags.iter().any(|d| d.code == Code::BankConflict));
    }
}
