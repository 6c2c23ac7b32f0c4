//! Alg. 2 — the Markov scheduling policy.
//!
//! For the current state, every syntactically possible action is scored by
//! its benefit formula; infeasible transitions get zero mass (§IV-C memory
//! check); the `cache` action's mass is boosted by the annealing factor
//! `3 / (1 + e^{-(ln5/10)(t-10)})` so the walk converges toward higher
//! memory levels as the step count `t` grows; the vector is normalized into
//! a probability distribution, and one action is drawn by roulette
//! selection.

use crate::benefit::edge_benefit_in;
use etir::analytics::{OpShape, ScheduleStats, StateTiles};
use etir::{Action, Etir};
use hardware::GpuSpec;
use rand::Rng;

/// One scored outgoing edge.
#[derive(Debug, Clone, PartialEq)]
pub struct ActionProb {
    /// The action (edge label).
    pub action: Action,
    /// Raw benefit (acceleration ratio) from Eqs. 1–3.
    pub benefit: f64,
    /// Normalized selection probability.
    pub prob: f64,
}

/// One step's scored distribution plus evaluation accounting — how much
/// exact benefit work the step cost. The walk aggregates these into
/// [`crate::walk::WalkRecord`].
#[derive(Debug, Clone)]
pub struct StepScoring {
    /// The normalized transition distribution (empty if nothing feasible).
    pub rows: Vec<ActionProb>,
    /// Exact benefit-formula evaluations this step performed.
    pub exact_evals: u64,
}

/// The Markov transition policy.
#[derive(Debug, Clone)]
pub struct Policy {
    /// Whether `setVthread` edges exist (disabled for the "Gensor w/o
    /// vThread" ablation of Table VI).
    pub enable_vthread: bool,
    /// Whether inverse (backtracking) edges exist (disabling them degrades
    /// the graph to a Roller-style tree; used by ablation benches).
    pub enable_inverse: bool,
    /// Whether unroll edges exist (disabled by the explicit-chain analysis
    /// in [`crate::markov`] to keep enumerated state spaces small).
    pub enable_unroll: bool,
}

impl Default for Policy {
    fn default() -> Self {
        Policy {
            enable_vthread: true,
            enable_inverse: true,
            enable_unroll: true,
        }
    }
}

/// Scale applied to the (compressed) Eq. 2 caching benefit.
///
/// Eq. 2 compares absolute memory-level speeds, so its magnitude — a
/// latency/bandwidth ratio of ≈ 9× at the shared-memory level and ≈ 60× at
/// the register level — is not commensurable with the relative tiling
/// ratios of Eq. 1 (≈ 2×); undamped, the walk would descend a memory level
/// within a handful of steps, before any tiling has happened. The paper
/// does not give a normalization constant, so the raw ratio enters with
/// fourth-root compression (`eq2^{1/4}`, flattening the 9×/60× level gap
/// to 1.7×/2.8×) times this scale, leaving the paper's annealing sigmoid
/// as the primary dial. The value is chosen so the expected first passage
/// to the next level lands in the tens of steps, matching the paper's
/// "convergence after about 100 iterations".
const CACHE_SCALE: f64 = 0.07;

impl Policy {
    /// The annealing boost applied to the `cache` action at step `t`
    /// (paper §IV-C): `3 / (1 + e^{-(ln5/10)(t-10)})`.
    pub fn cache_boost(t: u32) -> f64 {
        3.0 / (1.0 + (-(5.0f64.ln() / 10.0) * (t as f64 - 10.0)).exp())
    }

    /// Whether `action` survives the ablation switches.
    fn enabled(&self, action: &Action) -> bool {
        if !self.enable_vthread
            && matches!(
                action,
                Action::SetVthread { .. } | Action::InvVthread { .. }
            )
        {
            return false;
        }
        if !self.enable_inverse && action.is_inverse() {
            return false;
        }
        if !self.enable_unroll && matches!(action, Action::Unroll | Action::InvUnroll) {
            return false;
        }
        true
    }

    /// Score all actions of `state` at annealing step `t`, returning the
    /// normalized transition distribution (probabilities sum to 1 unless no
    /// action is feasible, in which case the list is empty).
    ///
    /// Thin wrapper over [`Policy::score_step`] for callers that don't
    /// need the evaluation accounting (the explicit-chain analysis, tests).
    pub fn transition_probs(&self, state: &Etir, spec: &GpuSpec, t: u32) -> Vec<ActionProb> {
        self.score_step(state, spec, t).rows
    }

    /// Score one walk step, with evaluation accounting: the exact Alg. 2
    /// scoring, every enabled action run through the benefit formulas.
    pub fn score_step(&self, state: &Etir, spec: &GpuSpec, t: u32) -> StepScoring {
        let shape = OpShape::new(&state.op);
        let before = ScheduleStats::compute_in(&shape, state);
        self.score_step_stats(state, &before, &shape, spec, t)
    }

    /// [`Policy::score_step`] when the caller already holds `state`'s
    /// stats and its operator's shape. A pure function: it reads no clock
    /// and records nothing, and the walk publishes its totals once, from
    /// its [`crate::walk::WalkRecord`].
    pub fn score_step_stats(
        &self,
        state: &Etir,
        before: &ScheduleStats,
        shape: &OpShape,
        spec: &GpuSpec,
        t: u32,
    ) -> StepScoring {
        let tiles = StateTiles::new(shape, state);
        self.score_step_in(state, before, shape, &tiles, spec, t)
    }

    /// [`Policy::score_step_stats`] when the caller also holds `state`'s
    /// [`StateTiles`] (the walk carries the stats and the shape, and
    /// derives the tiles once per state for every edge it scores and the
    /// one it takes).
    pub fn score_step_in(
        &self,
        state: &Etir,
        before: &ScheduleStats,
        shape: &OpShape,
        tiles: &StateTiles,
        spec: &GpuSpec,
        t: u32,
    ) -> StepScoring {
        let mut rows: Vec<ActionProb> = Vec::with_capacity(Action::ALL.len());
        let mut evals: u64 = 0;
        let (sr, rr) = (state.spatial_rank(), state.reduce_rank());
        for &action in Action::ALL
            .iter()
            .filter(|a| a.in_rank(sr, rr) && self.enabled(a))
        {
            let raw = edge_benefit_in(state, before, shape, || tiles, &action, spec);
            evals += 1;
            if raw <= 0.0 {
                continue;
            }
            let benefit = if action == Action::Cache {
                CACHE_SCALE * raw.powf(0.25) * Self::cache_boost(t)
            } else {
                raw
            };
            rows.push(ActionProb {
                action,
                benefit,
                prob: 0.0,
            });
        }
        let total: f64 = rows.iter().map(|r| r.benefit).sum();
        if total <= 0.0 {
            rows.clear();
        } else {
            for r in &mut rows {
                r.prob = r.benefit / total;
            }
        }
        StepScoring {
            rows,
            exact_evals: evals,
        }
    }

    /// Roulette-wheel draw over an already-scored distribution, returning
    /// the index of the chosen row (`None` for an empty distribution).
    /// Consumes exactly one `rng.gen()` when `rows` is non-empty — callers
    /// that need the chosen row's benefit/probability (the walk's
    /// convergence telemetry) use this and index, with the same RNG
    /// sequence as [`Policy::select`].
    pub fn choose<R: Rng + ?Sized>(&self, rows: &[ActionProb], rng: &mut R) -> Option<usize> {
        if rows.is_empty() {
            return None;
        }
        let mut ball: f64 = rng.gen();
        for (i, r) in rows.iter().enumerate() {
            if ball < r.prob {
                return Some(i);
            }
            ball -= r.prob;
        }
        // Floating-point slack: fall back to the last row.
        Some(rows.len() - 1)
    }

    /// Roulette-wheel selection over the transition distribution
    /// (Alg. 2's `getAction`). Returns `None` when the state has no
    /// feasible outgoing edge (construction complete or fully blocked).
    pub fn select<R: Rng + ?Sized>(
        &self,
        state: &Etir,
        spec: &GpuSpec,
        t: u32,
        rng: &mut R,
    ) -> Option<Action> {
        let rows = self.transition_probs(state, spec, t);
        self.choose(&rows, rng).map(|i| rows[i].action)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tensor_expr::OpSpec;

    fn state(spec: &GpuSpec) -> Etir {
        Etir::initial(OpSpec::gemm(1024, 512, 2048), spec)
    }

    #[test]
    fn probabilities_normalize_to_one() {
        let spec = GpuSpec::rtx4090();
        let rows = Policy::default().transition_probs(&state(&spec), &spec, 0);
        assert!(!rows.is_empty());
        let total: f64 = rows.iter().map(|r| r.prob).sum();
        assert!((total - 1.0).abs() < 1e-9, "sum {total}");
        assert!(rows.iter().all(|r| r.prob > 0.0));
    }

    #[test]
    fn cache_boost_is_low_early_high_late() {
        // Paper's sigmoid: ≈0.5 at t=0, 1.5 at t=10, →3 as t→∞.
        assert!((Policy::cache_boost(10) - 1.5).abs() < 1e-9);
        assert!(Policy::cache_boost(0) < 0.6);
        assert!(Policy::cache_boost(40) > 2.8);
        assert!(Policy::cache_boost(0) < Policy::cache_boost(20));
    }

    #[test]
    fn cache_probability_rises_with_annealing_step() {
        let spec = GpuSpec::rtx4090();
        let pol = Policy::default();
        let e = state(&spec);
        let p_at = |t: u32| {
            pol.transition_probs(&e, &spec, t)
                .iter()
                .find(|r| r.action == Action::Cache)
                .map(|r| r.prob)
                .unwrap()
        };
        assert!(p_at(0) < p_at(15));
        assert!(p_at(15) < p_at(40));
    }

    #[test]
    fn ablation_removes_vthread_edges() {
        let spec = GpuSpec::rtx4090();
        let mut e = state(&spec);
        for _ in 0..5 {
            e = e.apply(&Action::Tile { dim: 0 });
        }
        e = e.apply(&Action::Cache);
        let full = Policy::default().transition_probs(&e, &spec, 5);
        assert!(full
            .iter()
            .any(|r| matches!(r.action, Action::SetVthread { .. })));
        let ablated = Policy {
            enable_vthread: false,
            ..Policy::default()
        };
        let rows = ablated.transition_probs(&e, &spec, 5);
        assert!(rows
            .iter()
            .all(|r| !matches!(r.action, Action::SetVthread { .. })));
    }

    #[test]
    fn tree_mode_removes_inverse_edges() {
        let spec = GpuSpec::rtx4090();
        let e = state(&spec).apply(&Action::Tile { dim: 0 });
        let tree = Policy {
            enable_inverse: false,
            ..Policy::default()
        };
        let rows = tree.transition_probs(&e, &spec, 0);
        assert!(rows.iter().all(|r| !r.action.is_inverse()));
        let graph = Policy::default().transition_probs(&e, &spec, 0);
        assert!(graph.iter().any(|r| r.action.is_inverse()));
    }

    #[test]
    fn selection_follows_distribution() {
        let spec = GpuSpec::rtx4090();
        let pol = Policy::default();
        let e = state(&spec);
        let rows = pol.transition_probs(&e, &spec, 0);
        let mut rng = StdRng::seed_from_u64(7);
        let mut counts = std::collections::HashMap::new();
        const N: usize = 20_000;
        for _ in 0..N {
            let a = pol.select(&e, &spec, 0, &mut rng).unwrap();
            *counts.entry(a).or_insert(0usize) += 1;
        }
        for r in &rows {
            let freq = *counts.get(&r.action).unwrap_or(&0) as f64 / N as f64;
            assert!(
                (freq - r.prob).abs() < 0.02,
                "{:?}: freq {freq} vs prob {}",
                r.action,
                r.prob
            );
        }
    }

    #[test]
    fn complete_state_selects_nothing() {
        let spec = GpuSpec::rtx4090();
        let e = state(&spec).apply(&Action::Cache).apply(&Action::Cache);
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(Policy::default().select(&e, &spec, 50, &mut rng), None);
    }

    #[test]
    fn selection_is_reproducible_with_seed() {
        let spec = GpuSpec::rtx4090();
        let pol = Policy::default();
        let e = state(&spec);
        let mut a = StdRng::seed_from_u64(99);
        let mut b = StdRng::seed_from_u64(99);
        for t in 0..20 {
            assert_eq!(
                pol.select(&e, &spec, t, &mut a),
                pol.select(&e, &spec, t, &mut b)
            );
        }
    }
}
