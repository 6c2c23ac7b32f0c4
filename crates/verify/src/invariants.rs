//! Invariant verification: the structural gate that makes lowering total,
//! plus the hardware capacity fit.
//!
//! The structural checks re-prove (as typed diagnostics) everything
//! [`Etir::validate`] asserts, and more: they must hold for lowering to be
//! *defined* at all. `verify_schedule` therefore runs [`structural`] on the
//! raw state first and only lowers when no error was found.

use crate::diag::{Code, Diagnostic};
use etir::Etir;
use etir::{MemCheck, ScheduleStats};
use hardware::GpuSpec;

/// Name the structural gate reports under.
pub const STRUCTURAL_PASS: &str = "invariants";
/// Name [`capacity`] reports under.
pub const CAPACITY_PASS: &str = "capacity";
/// Name [`crate::bounds`] reports under.
pub const COVER_PASS: &str = "cover";
/// Name [`crate::lints::lints`] reports under.
pub const LINTS_PASS: &str = "lints";
/// Every pass name a diagnostic can carry, in pipeline order.
pub const PASSES: [&str; 4] = [STRUCTURAL_PASS, CAPACITY_PASS, COVER_PASS, LINTS_PASS];

/// Structural (hardware-independent) invariant checks on the raw state.
///
/// Emits GS001–GS006; a malformed operator (`OpSpec::validate` fails) is
/// a GS001 and ends the pass. Any error here means the state must not be
/// lowered or costed;
/// no error means lowering cannot fail: `Etir::thread_dims` and
/// `LoopNest::from_etir` divide by tiles proved non-zero, and every
/// `split(..).expect(..)` in `LoopNest::to_nest` divides evenly because
/// `reg·vthread` divides the extent-clamped block tile and each reduce tile
/// is at most `next_pow2(extent)`.
pub fn structural(e: &Etir, out: &mut Vec<Diagnostic>) {
    let p = STRUCTURAL_PASS;
    if let Err(why) = e.op.validate() {
        out.push(Diagnostic::new(
            Code::RankMismatch,
            p,
            format!("malformed operator {why}"),
        ));
        return; // nothing below is computable
    }
    let sp = e.op.spatial_extents();
    let rd = e.op.reduce_extents();

    if e.smem_tile.len() != sp.len() || e.reg_tile.len() != sp.len() || e.vthreads.len() != sp.len()
    {
        out.push(Diagnostic::new(
            Code::RankMismatch,
            p,
            format!(
                "spatial tile ranks (smem {}, reg {}, vthread {}) do not match operator rank {}",
                e.smem_tile.len(),
                e.reg_tile.len(),
                e.vthreads.len(),
                sp.len()
            ),
        ));
        return; // nothing below is indexable
    }
    if e.reduce_tile.len() != rd.len() {
        out.push(Diagnostic::new(
            Code::RankMismatch,
            p,
            format!(
                "reduce tile rank {} does not match operator reduce rank {}",
                e.reduce_tile.len(),
                rd.len()
            ),
        ));
        return;
    }

    for (i, &ext) in sp.iter().enumerate() {
        let (s, r, v) = (e.smem_tile[i], e.reg_tile[i], e.vthreads[i]);
        if s == 0 || r == 0 || v == 0 {
            out.push(Diagnostic::new(
                Code::ZeroTile,
                p,
                format!("dim {i}: zero tile (smem {s}, reg {r}, vthread {v})"),
            ));
            continue;
        }
        if s % (r * v) != 0 {
            out.push(Diagnostic::new(
                Code::Divisibility,
                p,
                format!(
                    "dim {i}: smem tile {s} not divisible by reg·vthread {} — \
                     thread count along this dim is not integral",
                    r * v
                ),
            ));
        }
        // The extent-clamped tile is what lowering actually uses; if the
        // raw tile overshot the padded-extent cap, the clamp can break the
        // partition even when the raw tile divides cleanly.
        let clamped = s.min(ext.next_power_of_two());
        if clamped != s && clamped % (r * v) != 0 {
            out.push(Diagnostic::new(
                Code::Divisibility,
                p,
                format!(
                    "dim {i}: extent-clamped smem tile {clamped} (from {s}) not divisible \
                     by reg·vthread {}",
                    r * v
                ),
            ));
        }
    }

    for (j, (&t, &ext)) in e.reduce_tile.iter().zip(rd.iter()).enumerate() {
        if t == 0 {
            out.push(Diagnostic::new(
                Code::ZeroTile,
                p,
                format!("reduce dim {j}: zero reduce tile"),
            ));
        } else if t > ext.next_power_of_two() {
            out.push(Diagnostic::new(
                Code::ReduceTile,
                p,
                format!("reduce dim {j}: tile {t} absurdly exceeds extent {ext}"),
            ));
        }
    }

    if e.unroll == 0 || !e.unroll.is_power_of_two() {
        out.push(Diagnostic::new(
            Code::BadUnroll,
            p,
            format!("unroll factor {} is not a positive power of two", e.unroll),
        ));
    }
    if e.cur_level > e.num_levels {
        out.push(Diagnostic::new(
            Code::LevelOutOfRange,
            p,
            format!(
                "cur_level {} exceeds the {} schedulable levels",
                e.cur_level, e.num_levels
            ),
        ));
    }
}

/// Hardware capacity fit: shared memory per block, registers per thread,
/// register file per SM, thread budget. Emits GS007–GS009. Skipped when no
/// [`GpuSpec`] is provided.
pub fn capacity(e: &Etir, spec: Option<&GpuSpec>, out: &mut Vec<Diagnostic>) {
    let Some(spec) = spec else { return };
    let stats = ScheduleStats::compute(e);
    // Incomplete states have no final thread shape yet, so only the
    // capacity subset applies (mirrors the §IV-C transition filter).
    let check = if e.is_complete() {
        MemCheck::check_stats(&stats, e.threads_per_block(), spec)
    } else {
        MemCheck::check_capacity_stats(&stats, spec)
    };
    let (code, message) = match check {
        MemCheck::Fits => return,
        MemCheck::SmemOverflow { need, cap } => (
            Code::SmemOverflow,
            format!("staged tiles need {need} B of shared memory per block; {cap} B allowed"),
        ),
        MemCheck::RegOverflow { need, cap } => (
            Code::RegOverflow,
            format!("schedule needs {need} registers per thread; {cap} allowed"),
        ),
        MemCheck::TooManyThreads { need, cap } => (
            Code::ThreadBudget,
            format!("block has {need} threads; device allows {cap}"),
        ),
        MemCheck::NoThreads => (
            Code::ThreadBudget,
            "block shape yields zero physical threads".to_string(),
        ),
    };
    out.push(Diagnostic::new(code, CAPACITY_PASS, message));
}

#[cfg(test)]
mod tests {
    use super::*;
    use tensor_expr::OpSpec;

    fn initial() -> Etir {
        Etir::initial(OpSpec::gemm(256, 256, 256), &GpuSpec::rtx4090())
    }

    #[test]
    fn clean_initial_state_has_no_structural_findings() {
        let mut out = Vec::new();
        structural(&initial(), &mut out);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn zero_tile_and_divisibility_are_flagged() {
        let mut e = initial();
        e.smem_tile = [6, 0].into();
        e.reg_tile = [4, 1].into();
        let mut out = Vec::new();
        structural(&e, &mut out);
        let codes: Vec<Code> = out.iter().map(|d| d.code).collect();
        assert!(codes.contains(&Code::Divisibility), "{out:?}");
        assert!(codes.contains(&Code::ZeroTile), "{out:?}");
    }

    #[test]
    fn a_malformed_operator_is_refused_before_it_is_costed() {
        let mut e = Etir::initial(OpSpec::elementwise(64, 2, 1), &GpuSpec::rtx4090());
        e.op = OpSpec::Elementwise {
            elems: 64,
            num_inputs: 5,
            ops_per_elem: 1,
        };
        // Costing a tile of it would overflow the inline footprint.
        let report = crate::verify_schedule(&e, Some(&GpuSpec::rtx4090()));
        let codes: Vec<Code> = report.diagnostics.iter().map(|d| d.code).collect();
        assert_eq!(codes, [Code::RankMismatch]);
    }

    #[test]
    fn rank_mismatch_short_circuits() {
        let mut e = initial();
        e.smem_tile = [4].into();
        let mut out = Vec::new();
        structural(&e, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].code, Code::RankMismatch);
    }

    #[test]
    fn absurd_reduce_tile_and_unroll_flagged() {
        let mut e = initial();
        e.reduce_tile = [4096].into(); // extent 256 → cap 256
        e.unroll = 3;
        e.cur_level = 7;
        let mut out = Vec::new();
        structural(&e, &mut out);
        let codes: Vec<Code> = out.iter().map(|d| d.code).collect();
        assert!(codes.contains(&Code::ReduceTile));
        assert!(codes.contains(&Code::BadUnroll));
        assert!(codes.contains(&Code::LevelOutOfRange));
    }
}
