//! Cover analysis: GS010–GS014, proved about the lowered
//! [`etir::loops::Nest`] — the object `interp` runs and `codegen` prints.
//!
//! A nest computes every output element exactly once iff, per iteration
//! axis, the loops that walk it form a mixed-radix decomposition of the
//! axis: ordered by stride, each loop steps by exactly the span the finer
//! loops cover. [`cover`] proves that from the `Nest` alone with a sort and
//! a running sum per axis — a wrong stride, order or extent in
//! `LoopNest::to_nest` (or in a deserialised nest) is a typed error here,
//! before anything executes.
//!
//! The launch geometry, the capacity check and the simulator read the
//! [`LoopNest`] summary instead of the nest, so [`summary_agrees`] proves
//! the two name the same grid, vthread and thread extents.

use crate::diag::{Code, Diagnostic};
use crate::invariants::COVER_PASS;
use etir::loops::{Binding, Loop, Nest};
use etir::LoopNest;

/// Per iteration axis of `nest`: no two iterations land on one point
/// (GS013), no point below the reach of the loops is skipped (GS014), and
/// the loops reach the true extent (GS010). Reaching past it is legal: the
/// walker and the printer mask those points.
pub fn cover(nest: &Nest) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let loops = nest.loops();
    if let Some(l) = loops.iter().find(|l| l.extent == 0) {
        let message = format!("loop {} never iterates: the nest computes nothing", l.name);
        return vec![Diagnostic::new(Code::CoverageGap, COVER_PASS, message)];
    }
    for (axis, &extent) in nest.extents.iter().enumerate() {
        let mut walk: Vec<&Loop> = loops
            .iter()
            .copied()
            .filter(|l| l.axis == axis && l.extent > 1)
            .collect();
        walk.sort_by_key(|l| l.stride);
        // The loops seen so far reach `[0, reach)`, each point once.
        let mut reach = 1u64;
        for l in walk {
            if l.stride != reach {
                let (code, what) = if l.stride < reach {
                    (Code::WriteOverlap, "revisits points")
                } else {
                    (Code::WriteGap, "skips points")
                };
                out.push(Diagnostic::new(
                    code,
                    COVER_PASS,
                    format!(
                        "axis {axis}: loop {} steps by {} over the {reach} points the finer \
                         loops cover — {what}",
                        l.name, l.stride
                    ),
                ));
            }
            reach = reach.saturating_add((l.extent - 1).saturating_mul(l.stride));
        }
        if reach < extent {
            out.push(Diagnostic::new(
                Code::CoverageGap,
                COVER_PASS,
                format!("axis {axis}: loops reach {reach} of extent {extent}"),
            ));
        }
    }
    out
}

/// Per spatial axis the `Grid`/`VThread`/`Thread`-bound extents of `nest`
/// equal what the `summary` launches. Past the structural gate they can
/// differ in one way: a raw tile above the extent clamp makes the summary
/// launch more threads than the clamped block tile holds — the surplus
/// threads index past the tile (GS011) and into the neighbouring block's
/// (GS013). Any other disagreement means the summary and the lowering have
/// diverged (GS012).
pub fn summary_agrees(summary: &LoopNest, nest: &Nest, out: &mut Vec<Diagnostic>) {
    let loops = nest.loops();
    for i in 0..summary.grid.len() {
        for (binding, what, launched) in [
            (Binding::Grid, "blocks", summary.grid[i]),
            (Binding::VThread, "vthreads", summary.vthreads[i]),
            (Binding::Thread, "threads", summary.thread_dims[i]),
        ] {
            let walked: u64 = loops
                .iter()
                .filter(|l| l.axis == i && l.binding == binding)
                .map(|l| l.extent)
                .product();
            if walked == launched {
                continue;
            }
            if binding == Binding::Thread && launched > walked {
                let lanes = format!(
                    "dim {i}: {launched} threads launched over a block tile of {} that holds \
                     {walked}",
                    summary.smem_tile[i]
                );
                out.push(Diagnostic::new(
                    Code::OutOfBounds,
                    COVER_PASS,
                    format!("{lanes} — thread {walked} indexes past the tile"),
                ));
                out.push(Diagnostic::new(
                    Code::WriteOverlap,
                    COVER_PASS,
                    format!("{lanes} — the surplus write into the neighbouring block's tile"),
                ));
            } else {
                out.push(Diagnostic::new(
                    Code::VolumeMismatch,
                    COVER_PASS,
                    format!("dim {i}: nest walks {walked} {what}, summary launches {launched}"),
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use etir::{Action, Etir};
    use hardware::GpuSpec;
    use tensor_expr::OpSpec;

    fn run_on(e: &Etir) -> Vec<Diagnostic> {
        let summary = LoopNest::from_etir(e);
        let nest = summary.to_nest();
        let mut out = cover(&nest);
        summary_agrees(&summary, &nest, &mut out);
        out
    }

    fn has(diags: &[Diagnostic], code: Code) -> bool {
        diags.iter().any(|d| d.code == code)
    }

    #[test]
    fn initial_state_is_covered() {
        let e = Etir::initial(OpSpec::gemm(100, 60, 16), &GpuSpec::rtx4090());
        assert!(run_on(&e).is_empty());
    }

    #[test]
    fn tiled_ragged_gemm_is_covered() {
        let spec = GpuSpec::rtx4090();
        let mut e = Etir::initial(OpSpec::gemm(100, 60, 24), &spec);
        for _ in 0..5 {
            e = e.apply(&Action::Tile { dim: 0 });
        }
        assert!(run_on(&e).is_empty());
    }

    #[test]
    fn legal_vthreaded_schedule_partitions_cleanly() {
        let spec = GpuSpec::rtx4090();
        let mut e = Etir::initial(OpSpec::gemm(512, 512, 512), &spec);
        for _ in 0..6 {
            e = e.apply(&Action::Tile { dim: 0 });
            e = e.apply(&Action::Tile { dim: 1 });
        }
        e = e.apply(&Action::Cache);
        for _ in 0..2 {
            e = e.apply(&Action::Tile { dim: 0 });
            e = e.apply(&Action::Tile { dim: 1 });
        }
        e = e.apply(&Action::SetVthread { dim: 0 });
        assert!(run_on(&e).is_empty());
    }

    #[test]
    fn tile_past_the_extent_clamp_is_out_of_bounds() {
        // Extent 8 clamps the block tile to 8, but the raw tile says 32:
        // thread_dims is derived from the raw tile, so 8 threads are
        // launched over a tile whose nest walks 2.
        let spec = GpuSpec::rtx4090();
        let mut e = Etir::initial(OpSpec::gemm(8, 64, 8), &spec);
        e.smem_tile[0] = 32;
        e.reg_tile[0] = 2;
        e.vthreads[0] = 2;
        assert!(e.validate().is_ok(), "gate must pass for cover to run");
        let diags = run_on(&e);
        assert!(has(&diags, Code::OutOfBounds), "{diags:?}");
    }

    #[test]
    fn overclaimed_tile_is_a_write_overlap() {
        let spec = GpuSpec::rtx4090();
        let mut e = Etir::initial(OpSpec::gemm(8, 64, 8), &spec);
        // Raw tile 32 over an 8-wide extent: 8 threads, 2 walked.
        e.smem_tile[0] = 32;
        e.reg_tile[0] = 4;
        let diags = run_on(&e);
        assert!(has(&diags, Code::WriteOverlap), "{diags:?}");
    }

    #[test]
    fn a_nest_that_disagrees_with_its_summary_is_a_volume_mismatch() {
        let e = Etir::initial(OpSpec::gemm(64, 16, 64), &GpuSpec::rtx4090());
        let summary = LoopNest::from_etir(&e);
        let mut other = e.clone();
        other.smem_tile[0] = 4;
        let nest = LoopNest::from_etir(&other).to_nest();
        assert!(cover(&nest).is_empty(), "the other nest is itself legal");
        let mut out = Vec::new();
        summary_agrees(&summary, &nest, &mut out);
        assert!(has(&out, Code::VolumeMismatch), "{out:?}");
    }
}
