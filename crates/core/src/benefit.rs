//! The transition-benefit formulas (paper §IV-B, Eqs. 1–3).
//!
//! Each formula is a pure function of the states before/after one action
//! and the hardware architecture — no code generation, no profiling. The
//! benefit of an action is its predicted acceleration ratio; Alg. 2
//! normalizes benefits into transition probabilities.

use etir::analytics::ScheduleStats;
use etir::{Action, Etir};
use hardware::{GpuSpec, LevelKind};
use simgpu::model::bank_conflict_degree;

/// Multiplicative benefit attributed to one doubling of the unroll factor
/// (instruction-pipeline utilisation). Not one of the paper's three
/// formulas — unroll is in its Table I primitive set but gets no explicit
/// benefit formula — so it receives a fixed mild prior.
const UNROLL_BENEFIT: f64 = 1.08;

/// Eq. 1 — tiling benefit:
/// `(Q(T)/Q(T')) / (F(T)/F(T')) = Q(T)·F(T') / (Q(T')·F(T))`.
///
/// `Q` is the memory traffic into the current scheduling level, `F` the
/// footprint its tiles occupy. A ratio above 1 means the traffic saved
/// outweighs the extra footprint — a higher memory-reuse rate.
pub fn tiling_benefit(before: &Etir, after: &Etir) -> f64 {
    let sb = ScheduleStats::compute(before);
    let sa = ScheduleStats::compute(after);
    tiling_benefit_stats(before.cur_level, before.num_levels, &sb, &sa)
}

/// [`tiling_benefit`] on precomputed stats (the policy scores ~25 actions
/// per step; recomputing the *before* stats per action would dominate the
/// construction time).
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
pub fn caching_benefit(state: &Etir, spec: &GpuSpec) -> f64 {
    caching_benefit_stats(state, &ScheduleStats::compute(state), spec)
}

/// [`caching_benefit`] on precomputed stats.
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

/// Eq. 3 — virtual-thread benefit:
/// `ceil(x/W) / ceil(x/(V·W))`.
///
/// The ratio of shared-memory bank-conflict serialization without/with the
/// new virtual-thread configuration. Implemented as the ratio of the
/// simulator's conflict degree so policy and oracle agree by construction.
pub fn vthread_benefit(before: &Etir, after: &Etir, spec: &GpuSpec) -> f64 {
    bank_conflict_degree(before, spec) / bank_conflict_degree(after, spec).max(1.0)
}

/// Benefit of applying `action` in `state` (dispatch over Eqs. 1–3).
///
/// Returns 0 when the action is inapplicable or the successor violates a
/// memory capacity limit (the §IV-C memory check).
pub fn action_benefit(state: &Etir, action: &Action, spec: &GpuSpec) -> f64 {
    action_benefit_stats(state, &ScheduleStats::compute(state), action, spec)
}

/// [`action_benefit`] when the *before* stats are already computed (the
/// per-step fast path used by the policy).
pub fn action_benefit_stats(
    state: &Etir,
    before: &ScheduleStats,
    action: &Action,
    spec: &GpuSpec,
) -> f64 {
    if !state.can_apply(action) {
        return 0.0;
    }
    match action {
        Action::Tile { .. }
        | Action::InvTile { .. }
        | Action::TileReduce { .. }
        | Action::InvTileReduce { .. } => {
            let next = state.apply(action);
            let after = before.successor(&next, action);
            if !etir::analytics::MemCheck::check_capacity_stats(&after, spec).fits() {
                return 0.0;
            }
            tiling_benefit_stats(state.cur_level, state.num_levels, before, &after)
        }
        Action::Cache => caching_benefit_stats(state, before, spec),
        Action::SetVthread { .. } | Action::InvVthread { .. } => {
            // vThread moves leave footprints unchanged (no capacity check
            // needed); keep a small floor so the walk can explore
            // conflict-free configurations too.
            let next = state.apply(action);
            vthread_benefit(state, &next, spec).max(0.25)
        }
        Action::Unroll => UNROLL_BENEFIT,
        Action::InvUnroll => 1.0 / UNROLL_BENEFIT,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tensor_expr::OpSpec;

    fn gemm(spec: &GpuSpec) -> Etir {
        Etir::initial(OpSpec::gemm(4096, 4096, 4096), spec)
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
        let e = gemm(&spec);
        let next = e.apply(&Action::Tile { dim: 0 });
        let b = tiling_benefit(&e, &next);
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
        let grow_wide = action_benefit(&e, &Action::Tile { dim: 0 }, &spec);
        let grow_narrow = action_benefit(&e, &Action::Tile { dim: 1 }, &spec);
        for b in [grow_wide, grow_narrow] {
            assert!((1.9..=2.1).contains(&b), "benefit {b}");
        }
    }

    #[test]
    fn inverse_tiling_benefit_is_reciprocal() {
        let spec = GpuSpec::rtx4090();
        let e = gemm(&spec).apply(&Action::Tile { dim: 0 });
        let fwd = tiling_benefit(&gemm(&spec), &e);
        let back = tiling_benefit(&e, &gemm(&spec));
        assert!((fwd * back - 1.0).abs() < 1e-9);
    }

    #[test]
    fn caching_benefit_exceeds_one() {
        // Moving scheduling to a faster level is always predicted
        // beneficial: nearer memory has lower latency and higher bandwidth.
        let spec = GpuSpec::rtx4090();
        let e = gemm(&spec);
        assert!(caching_benefit(&e, &spec) > 1.0);
        let deeper = e.apply(&Action::Cache);
        assert!(caching_benefit(&deeper, &spec) > 1.0);
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
        let with_vt = e.apply(&Action::SetVthread { dim: 1 });
        // Eq. 3: ceil(128/32)/ceil(128/(2·32)) = 4/2 = 2.
        let b = vthread_benefit(&e, &with_vt, &spec);
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
                assert_eq!(action_benefit(&e, &a, &spec), 0.0);
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
                    assert_eq!(action_benefit(&e, &a, &spec), 0.0);
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
        assert_eq!(
            action_benefit(&e, &Action::SetVthread { dim: 0 }, &spec),
            0.0
        );
        assert_eq!(action_benefit(&e, &Action::InvTile { dim: 0 }, &spec), 0.0);
    }

    #[test]
    fn benefits_are_finite_and_nonnegative_everywhere() {
        let spec = GpuSpec::orin_nano();
        let mut e = Etir::initial(OpSpec::conv2d(8, 32, 28, 28, 64, 3, 3, 1, 1), &spec);
        let all = Action::all(e.spatial_rank(), e.reduce_rank());
        for step in 0..30 {
            for a in &all {
                let b = action_benefit(&e, a, &spec);
                assert!(b.is_finite() && b >= 0.0, "step {step} action {a:?} → {b}");
            }
            // Take any applicable growth action to move somewhere new.
            if let Some(a) = all.iter().find(|a| action_benefit(&e, a, &spec) > 0.0) {
                e = e.apply(a);
            } else {
                break;
            }
        }
    }
}
