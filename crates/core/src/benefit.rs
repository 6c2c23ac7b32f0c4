//! The transition-benefit formulas (paper §IV-B, Eqs. 1–3).
//!
//! Each formula is a pure function of the states before/after one action
//! and the hardware architecture — no code generation, no profiling. The
//! benefit of an action is its predicted acceleration ratio; Alg. 2
//! normalizes benefits into transition probabilities.

use etir::analytics::{product_with, MemCheck, OpShape, ScheduleStats, StateTiles};
use etir::{Action, Etir, Tiles};
use hardware::{GpuSpec, LevelKind};
use std::borrow::Borrow;

/// Multiplicative benefit attributed to one doubling of the unroll factor
/// (instruction-pipeline utilisation). Not one of the paper's three
/// formulas — unroll is in its Table I primitive set but gets no explicit
/// benefit formula — so it receives a fixed mild prior.
const UNROLL_BENEFIT: f64 = 1.08;

/// Eq. 1 — tiling benefit:
/// `(Q(T)/Q(T')) / (F(T)/F(T')) = Q(T)·F(T') / (Q(T')·F(T))`, on the stats
/// before (`sb`) and after (`sa`) the action.
///
/// `Q` is the memory traffic into the current scheduling level, `F` the
/// footprint its tiles occupy. A ratio above 1 means the traffic saved
/// outweighs the extra footprint — a higher memory-reuse rate.
#[inline]
pub fn tiling_benefit_stats(
    cur_level: usize,
    num_levels: usize,
    sb: &ScheduleStats,
    sa: &ScheduleStats,
) -> f64 {
    let level = cur_level.min(num_levels.saturating_sub(1));
    let q = sb.traffic_at_level(level).max(1.0);
    let q2 = sa.traffic_at_level(level).max(1.0);
    let f = sb.footprint_at_level(level).max(1.0);
    let f2 = sa.footprint_at_level(level).max(1.0);
    (q * f2) / (q2 * f)
}

/// Eq. 2 — caching benefit:
/// `(L_low + S/B_low) / (L_high + S/B_high)`.
///
/// Compares serving the current level's working set from the *lower*
/// (farther) memory against the *higher* (nearer) one the `cache` action
/// switches scheduling to. `S` is the data size exchanged per tile.
#[inline]
pub fn caching_benefit_stats(state: &Etir, stats: &ScheduleStats, spec: &GpuSpec) -> f64 {
    let s_data = stats.footprint_at_level(state.cur_level.min(1));
    let (low, high) = match state.cur_level {
        0 => (spec.level(LevelKind::L2), spec.level(LevelKind::Shared)),
        _ => (
            spec.level(LevelKind::Shared),
            spec.level(LevelKind::Register),
        ),
    };
    low.transfer_time_us(s_data) / high.transfer_time_us(s_data).max(1e-12)
}

/// Benefit of applying `action` in `state`, whose stats are `before`
/// (dispatch over Eqs. 1–3).
///
/// Returns 0 when the action is inapplicable or the successor violates a
/// memory capacity limit (the §IV-C memory check).
pub fn action_benefit_stats(
    state: &Etir,
    before: &ScheduleStats,
    action: &Action,
    spec: &GpuSpec,
) -> f64 {
    edge_benefit(state, before, &OpShape::new(&state.op), action, spec)
}

/// [`action_benefit_stats`] for a caller that holds the operator's shape
/// (the walk derives it once).
pub fn edge_benefit(
    state: &Etir,
    before: &ScheduleStats,
    shape: &OpShape,
    action: &Action,
    spec: &GpuSpec,
) -> f64 {
    let tiles = || StateTiles::new(shape, state);
    edge_benefit_in(state, before, shape, tiles, action, spec)
}

/// [`edge_benefit`] on `state`'s [`StateTiles`], which `tiles` yields: the
/// scorer's, derived once per state, or for one edge a derivation only a
/// tiling edge makes. A tiling or vThread edge is costed from its one edit
/// ([`Etir::tile_edit`]); no successor and no changed tile vector is
/// built.
#[inline(always)]
pub fn edge_benefit_in<T: Borrow<StateTiles>>(
    state: &Etir,
    before: &ScheduleStats,
    shape: &OpShape,
    tiles: impl FnOnce() -> T,
    action: &Action,
    spec: &GpuSpec,
) -> f64 {
    if !state.can_apply_in(action, &shape.spatial, &shape.reduce) {
        return 0.0;
    }
    match state.tile_edit(action) {
        Some((Tiles::Vthreads, dim, value)) => {
            // Eq. 3 — virtual-thread benefit, `ceil(x/W) / ceil(x/(V·W))`:
            // the ratio of the simulator's bank-conflict degree before and
            // after. vThread moves leave footprints unchanged (no capacity
            // check needed); keep a small floor so the walk can explore
            // conflict-free configurations too.
            let degree = |v: u64| shape.conflict_degree(&state.smem_tile, v, spec);
            let after = product_with(&state.vthreads, dim, value);
            (degree(state.total_vthreads()) / degree(after).max(1.0)).max(0.25)
        }
        Some(edit) => {
            let after = before.edited(shape, &state.op, tiles().borrow(), edit);
            if !MemCheck::check_capacity_stats(&after, spec).fits() {
                return 0.0;
            }
            tiling_benefit_stats(state.cur_level, state.num_levels, before, &after)
        }
        None => match action {
            Action::Cache => caching_benefit_stats(state, before, spec),
            Action::Unroll => UNROLL_BENEFIT,
            _ => 1.0 / UNROLL_BENEFIT,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tensor_expr::OpSpec;

    fn gemm(spec: &GpuSpec) -> Etir {
        Etir::initial(OpSpec::gemm(4096, 4096, 4096), spec)
    }

    /// The benefit of `action` in `e`, through the one-shot scorer.
    fn benefit(e: &Etir, action: Action, spec: &GpuSpec) -> f64 {
        action_benefit_stats(e, &ScheduleStats::compute(e), &action, spec)
    }

    #[test]
    fn tiling_benefit_matches_closed_form_gemm() {
        // Paper convention: Benefit = Q(T)·F(T') / (Q(T')·F(T)).
        // GEMM per output element: Q ∝ Tk(1/Tm + 1/Tn), F ∝ Tk(Tm + Tn).
        // Doubling Tm from the 1x1 tile:
        //   Q/Q' = (1+1) / (1/2+1) = 4/3  (ignoring the output-write term)
        //   F'/F = (2+1) / (1+1)   = 3/2
        // → benefit = (4/3)·(3/2) = 2.
        let spec = GpuSpec::rtx4090();
        let b = benefit(&gemm(&spec), Action::Tile { dim: 0 }, &spec);
        assert!((b - 2.0).abs() < 0.02, "benefit {b}");
    }

    #[test]
    fn tiling_benefit_is_near_uniform_across_dims_for_gemm() {
        // A curious degeneracy of the paper's Eq. 1 on GEMM: Q·F per
        // element is symmetric in (Tm, Tn), so growing either dimension
        // scores ≈ 2. The policy therefore explores tile shapes nearly
        // uniformly and relies on the harvest + analytical model to rank
        // outcomes — which is why the graph's *coverage* (backtracking,
        // many chains) matters.
        let spec = GpuSpec::rtx4090();
        let mut e = gemm(&spec);
        for _ in 0..6 {
            e = e.apply(&Action::Tile { dim: 0 });
        }
        let grow_wide = benefit(&e, Action::Tile { dim: 0 }, &spec);
        let grow_narrow = benefit(&e, Action::Tile { dim: 1 }, &spec);
        for b in [grow_wide, grow_narrow] {
            assert!((1.9..=2.1).contains(&b), "benefit {b}");
        }
    }

    #[test]
    fn inverse_tiling_benefit_is_reciprocal() {
        let spec = GpuSpec::rtx4090();
        let e = gemm(&spec).apply(&Action::Tile { dim: 0 });
        let fwd = benefit(&gemm(&spec), Action::Tile { dim: 0 }, &spec);
        let back = benefit(&e, Action::InvTile { dim: 0 }, &spec);
        assert!((fwd * back - 1.0).abs() < 1e-9);
    }

    #[test]
    fn caching_benefit_exceeds_one() {
        // Moving scheduling to a faster level is always predicted
        // beneficial: nearer memory has lower latency and higher bandwidth.
        let spec = GpuSpec::rtx4090();
        let e = gemm(&spec);
        assert!(benefit(&e, Action::Cache, &spec) > 1.0);
        let deeper = e.apply(&Action::Cache);
        assert!(benefit(&deeper, Action::Cache, &spec) > 1.0);
    }

    #[test]
    fn vthread_benefit_matches_eq3() {
        let spec = GpuSpec::rtx4090();
        // Build a 128-wide block tile → conflict degree ceil(128/32) = 4.
        let mut e = gemm(&spec);
        for _ in 0..7 {
            e = e.apply(&Action::Tile { dim: 1 });
        }
        for _ in 0..2 {
            e = e.apply(&Action::Tile { dim: 0 });
        }
        e = e.apply(&Action::Cache);
        // Eq. 3: ceil(128/32)/ceil(128/(2·32)) = 4/2 = 2.
        let b = benefit(&e, Action::SetVthread { dim: 1 }, &spec);
        assert!((b - 2.0).abs() < 1e-9, "benefit {b}");
    }

    #[test]
    fn infeasible_actions_get_zero_probability_mass() {
        let spec = GpuSpec::rtx4090();
        let mut e = gemm(&spec);
        // Grow reduce tile until one more doubling overflows shared memory.
        loop {
            let a = Action::TileReduce { dim: 0 };
            if !e.can_apply(&a) {
                break;
            }
            let next = e.apply(&a);
            if !etir::analytics::MemCheck::check_capacity(&next, &spec).fits() {
                assert_eq!(benefit(&e, a, &spec), 0.0);
                return;
            }
            e = next;
        }
        // Reduce axis capped by extent before memory overflow: grow spatial
        // tiles instead until overflow is reachable.
        for d in [0usize, 1] {
            loop {
                let a = Action::Tile { dim: d };
                if !e.can_apply(&a) {
                    break;
                }
                let next = e.apply(&a);
                if !etir::analytics::MemCheck::check_capacity(&next, &spec).fits() {
                    assert_eq!(benefit(&e, a, &spec), 0.0);
                    return;
                }
                e = next;
            }
        }
        panic!("never reached a memory-infeasible transition");
    }

    #[test]
    fn inapplicable_action_has_zero_benefit() {
        let spec = GpuSpec::rtx4090();
        let e = gemm(&spec);
        // No vthreads at level 0.
        assert_eq!(benefit(&e, Action::SetVthread { dim: 0 }, &spec), 0.0);
        assert_eq!(benefit(&e, Action::InvTile { dim: 0 }, &spec), 0.0);
    }

    #[test]
    fn benefits_are_finite_and_nonnegative_everywhere() {
        let spec = GpuSpec::orin_nano();
        let mut e = Etir::initial(OpSpec::conv2d(8, 32, 28, 28, 64, 3, 3, 1, 1), &spec);
        let all = Action::all(e.spatial_rank(), e.reduce_rank());
        for step in 0..30 {
            for a in &all {
                let b = benefit(&e, *a, &spec);
                assert!(b.is_finite() && b >= 0.0, "step {step} action {a:?} → {b}");
            }
            // Take any applicable growth action to move somewhere new.
            if let Some(a) = all.iter().find(|&&a| benefit(&e, a, &spec) > 0.0) {
                e = e.apply(a);
            } else {
                break;
            }
        }
    }
}
