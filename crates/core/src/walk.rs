//! Alg. 1 — the annealed construction walk.
//!
//! One walk starts from the unscheduled state with temperature `T₀`,
//! repeatedly asks the policy for an action, applies it, appends the new
//! state to `top_results` with the paper's acceptance probability
//! `1 − 1/(1 + e^{−0.5(−log T − 10)})`, halves the temperature, and stops
//! when `T` falls below the threshold or the construction completes (all
//! memory levels scheduled).
//!
//! [`Walk::run_from`] starts the same walk at any schedule of the operator
//! instead — the dynamic optimizing system's warm start (§VII), which walks
//! from a schedule transplanted off a cached neighbour shape.

use crate::policy::Policy;
use etir::{Etir, OpCosts, ScheduleStats, StateTiles};
use hardware::GpuSpec;
use rand::Rng;
use simgpu::{KernelReport, SimOptions};
use tensor_expr::OpSpec;

/// Annealing steps per iteration-space axis (T halves each step): ~100 on
/// a rank-3 GEMM, the paper's "convergence after about 100 iterations", and
/// proportionally more on higher ranks (conv: 4 spatial + 3 reduce axes).
const STEPS_PER_RANK: u32 = 33;

/// Configuration of a single construction walk.
#[derive(Debug, Clone)]
pub struct Walk {
    /// Initial temperature `T₀`.
    pub t0: f64,
    /// The transition policy.
    pub policy: Policy,
}

impl Default for Walk {
    fn default() -> Self {
        Walk {
            t0: 1e6,
            policy: Policy::default(),
        }
    }
}

/// The harvest of one walk.
#[derive(Debug, Clone)]
pub struct WalkRecord {
    /// States accepted into `top_results` (plus the terminal state).
    pub top_results: Vec<Etir>,
    /// Simulated time (µs) of each `top_results` entry, as the walk already
    /// computed it when it visited the state; ∞ where the entry does not
    /// launch.
    pub top_time_us: Vec<f64>,
    /// Number of transitions taken.
    pub steps: u32,
    /// The terminal state.
    pub terminal: Etir,
    /// Best state *visited* anywhere along the walk, ranked online by the
    /// analytical model (the model is free for a construction compiler —
    /// "the compiler can select the optimization path that promises the
    /// highest expected efficiency without repeatedly iterating code
    /// generation and profiling", §III), with its simulated time in µs.
    pub best_seen: Option<(Etir, f64)>,
    /// Exact benefit-formula evaluations across all steps. Deterministic
    /// per walk (global obs counters aggregate across racing chains and
    /// tests).
    pub exact_benefit_evals: u64,
}

impl WalkRecord {
    /// Publish the walk to `obs`, once: its counts, and its wall time over
    /// its steps as one sample of the step histogram of its operator class
    /// `key`.
    fn publish(&self, key: &str, wall: std::time::Duration) {
        obs::counter_add!(
            "gensor_core_walk_steps_total",
            "Markov-walk transitions taken (including restarts)",
            self.steps as u64
        );
        obs::counter_inc!("gensor_core_walks_total", "Construction walks run");
        obs::counter_add!(
            "gensor_core_benefit_evals_total",
            "Benefit-formula evaluations (Eqs. 1-3) across all walks",
            self.exact_benefit_evals
        );
        obs::histogram_us(
            &format!("gensor_core_walk_step_us_{key}"),
            "Markov-walk step latency (scoring + apply + simulate), one sample per walk: its wall time over its steps, split by operator class",
        )
        .record_us((wall.as_nanos() / self.steps.max(1) as u128 / 1000) as u64);
    }

    /// The chain's winner by [`simgpu::pick_best`]'s rule, read off the
    /// times the walk already simulated: the first strictly fastest
    /// harvested state, replaced by `best_seen` only if that is strictly
    /// faster. Only the winner is simulated again, for its report.
    pub fn winner(&self, spec: &GpuSpec) -> Option<(Etir, KernelReport)> {
        let harvest = self
            .top_results
            .iter()
            .zip(self.top_time_us.iter().copied());
        let seen = self.best_seen.iter().map(|(e, t)| (e, *t));
        // `<` keeps the earlier of two equal times, so `best_seen`, last in
        // line, wins only if strictly faster.
        let mut best: Option<(&Etir, f64)> = None;
        for (e, t) in harvest.chain(seen) {
            if t < best.map_or(f64::INFINITY, |(_, bt)| bt) {
                best = Some((e, t));
            }
        }
        let (e, _) = best?;
        simgpu::simulate(e, spec).ok().map(|r| (e.clone(), r))
    }
}

impl Walk {
    /// Effective termination threshold for an operator of the given
    /// iteration-space rank (spatial + reduce axes).
    pub fn threshold_for_rank(&self, rank: usize) -> f64 {
        self.t0 / 2f64.powi(STEPS_PER_RANK as i32 * rank as i32)
    }

    /// Maximum number of steps this configuration can take for an operator
    /// of the given rank.
    pub fn max_steps_for_rank(&self, rank: usize) -> u32 {
        (self.t0 / self.threshold_for_rank(rank))
            .log2()
            .ceil()
            .max(1.0) as u32
    }

    /// Paper's top-result acceptance probability at temperature `t`.
    pub fn accept_prob(t: f64) -> f64 {
        1.0 - 1.0 / (1.0 + (-0.5 * (-t.ln() - 10.0)).exp())
    }

    /// Run one walk (Alg. 1) from the unscheduled state:
    /// [`Walk::run_from`] at [`Etir::initial`].
    pub fn run<R: Rng + ?Sized>(&self, op: &OpSpec, spec: &GpuSpec, rng: &mut R) -> WalkRecord {
        self.run_from(Etir::initial(op.clone(), spec), spec, rng)
    }

    /// Run one walk (Alg. 1) from `start`, a schedule of the operator it
    /// walks. The walk re-opens `start` at level 0, so every tile vector
    /// stays editable, simulates it as its first visited state, and returns
    /// to it when a construction pass completes with budget left. From the
    /// unscheduled state this is the paper's walk. The step loop reads no
    /// clock and records no metric; the walk publishes its record to `obs`
    /// once, at the end. Its `walk.step` events, emitted only while
    /// tracing, are the per-step trail.
    pub fn run_from<R: Rng + ?Sized>(
        &self,
        start: Etir,
        spec: &GpuSpec,
        rng: &mut R,
    ) -> WalkRecord {
        let started = std::time::Instant::now();
        let init = Etir {
            cur_level: 0,
            ..start
        };
        let op = &init.op;
        let sp = obs::span!("walk", op = op.label(), t0 = self.t0);
        let costs = OpCosts::new(op);
        let init_stats = ScheduleStats::compute_in(&costs.shape, &init);
        let rank = costs.shape.spatial.len() + costs.shape.reduce.len();
        let threshold = self.threshold_for_rank(rank);
        let mut t = self.t0;
        let mut step: u32 = 0;
        let (mut top, mut top_time_us) = (Vec::new(), Vec::new());
        let mut best_seen: Option<(Etir, f64)> = None;
        // Simulate a visited state on the stats the walk carries for it;
        // keep it if it leads; return its time (∞ if it does not launch).
        let consider = |state: &Etir, stats: &ScheduleStats, best: &mut Option<(Etir, f64)>| {
            let Ok(r) = simgpu::simulate_stats(state, stats, &costs, spec, SimOptions::default())
            else {
                return f64::INFINITY;
            };
            if best.as_ref().is_none_or(|(_, bt)| r.time_us < *bt) {
                *best = Some((state.clone(), r.time_us));
            }
            r.time_us
        };
        let best_time = |best: &Option<(Etir, f64)>| best.as_ref().map_or(f64::INFINITY, |b| b.1);
        let init_time = consider(&init, &init_stats, &mut best_seen);
        // The current state, its stats and its simulated time.
        let (mut e, mut stats, mut time) = (init.clone(), init_stats, init_time);
        // Annealing progress is normalized to the step budget so the boost
        // sigmoid's shape (midpoint at 10% of the walk, saturation by 40%)
        // is invariant across operator ranks — the paper's constants assume
        // its ~100-iteration GEMM walks.
        let budget = self.max_steps_for_rank(rank).max(1);
        let class = op.class().metric_key();
        let mut pass_start: u32 = 0;
        let mut exact_benefit_evals: u64 = 0;
        while t > threshold {
            // Annealing progress restarts with each construction pass so
            // every pass sees the full low→high cache-probability ramp.
            let t_norm = ((step - pass_start) as u64 * 100 / budget as u64) as u32;
            // Scoring + `choose` is exactly `Policy::select` split
            // open (same RNG draw sequence), so the chosen row's benefit
            // and probability are available to the telemetry below without
            // perturbing the walk. The state's tiles are derived once, for
            // every edge scored and the one taken.
            let tiles = StateTiles::new(&costs.shape, &e);
            let scoring = self
                .policy
                .score_step_in(&e, &stats, &costs.shape, &tiles, spec, t_norm);
            exact_benefit_evals += scoring.exact_evals;
            let rows = scoring.rows;
            let Some(pick) = self.policy.choose(&rows, rng) else {
                // Construction complete (or fully blocked) with temperature
                // budget left: Alg. 1's loop runs until T < threshold, so
                // return to the start and spend the remainder on a fresh
                // pass.
                top.push(e.clone());
                top_time_us.push(time);
                let from = std::mem::replace(&mut e, init.clone());
                (stats, time) = (init_stats, init_time);
                pass_start = step;
                obs::event!(
                    "walk.step",
                    walk = sp.id(),
                    step = step,
                    class = class,
                    action = "restart",
                    benefit = 0.0,
                    probability = 0.0,
                    temperature = t,
                    accepted = false,
                    best_time_us = best_time(&best_seen),
                    state = from.describe(),
                    exact_evals = scoring.exact_evals,
                    feasible = 0usize
                );
                t /= 2.0;
                step += 1;
                continue;
            };
            let row = &rows[pick];
            let next_stats = stats.edge_in(&costs.shape, &e, &tiles, &row.action);
            let next = e.apply(&row.action);
            let accepted = rng.gen::<f64>() < Self::accept_prob(t);
            let next_time = consider(&next, &next_stats, &mut best_seen);
            if accepted {
                top.push(next.clone());
                top_time_us.push(next_time);
            }
            obs::event!(
                "walk.step",
                walk = sp.id(),
                step = step,
                class = class,
                action = format!("{:?}", row.action),
                benefit = row.benefit,
                probability = row.prob,
                temperature = t,
                accepted = accepted,
                best_time_us = best_time(&best_seen),
                state = e.describe(),
                exact_evals = scoring.exact_evals,
                feasible = rows.len()
            );
            (e, stats, time) = (next, next_stats, next_time);
            t /= 2.0;
            step += 1;
        }
        // The terminal state is always a candidate.
        top.push(e.clone());
        top_time_us.push(time);
        let record = WalkRecord {
            top_results: top,
            top_time_us,
            steps: step,
            terminal: e,
            best_seen,
            exact_benefit_evals,
        };
        record.publish(class, started.elapsed());
        record
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn gemm() -> OpSpec {
        OpSpec::gemm(1024, 512, 2048)
    }

    #[test]
    fn walk_terminates_within_max_steps() {
        let spec = GpuSpec::rtx4090();
        let w = Walk::default();
        let mut rng = StdRng::seed_from_u64(3);
        let rec = w.run(&gemm(), &spec, &mut rng);
        assert!(rec.steps <= w.max_steps_for_rank(3));
        assert!(
            rec.steps > 5,
            "walk should do real work: {} steps",
            rec.steps
        );
    }

    #[test]
    fn walks_feed_the_per_class_latency_histograms() {
        // A GEMM walk lands one sample, not one per step, in the `matmul`
        // class series. Other tests in this binary walk concurrently, so
        // only a lower bound holds here; `tests/tests/obs_exporters.rs`
        // pins the exact one-per-walk count under its registry lock.
        let spec = GpuSpec::rtx4090();
        let samples = || {
            obs::metrics::snapshot()
                .into_iter()
                .find(|m| m.name == "gensor_core_walk_step_us_matmul")
                .map_or(0, |m| match m.value {
                    obs::metrics::MetricValue::Histogram { count, .. } => count,
                    _ => 0,
                })
        };
        let before = samples();
        let rec = Walk::default().run(&gemm(), &spec, &mut StdRng::seed_from_u64(7));
        assert!(rec.steps > 1);
        assert!(samples() > before, "the walk recorded no sample");
    }

    #[test]
    fn default_walk_matches_paper_iteration_scale() {
        // "convergence can generally be achieved after about 100
        // iterations" — the default budget is the same order.
        let w = Walk::default();
        let m = w.max_steps_for_rank(3);
        assert!((80..=140).contains(&m), "max steps {m}");
    }

    #[test]
    fn walk_usually_completes_construction() {
        // With restarts a walk may end mid-pass, but most walks should
        // harvest at least one fully-constructed (complete) state.
        let spec = GpuSpec::rtx4090();
        let w = Walk::default();
        let mut done = 0;
        for seed in 0..10 {
            let mut rng = StdRng::seed_from_u64(seed);
            let rec = w.run(&gemm(), &spec, &mut rng);
            if rec.top_results.iter().any(|e| e.is_complete()) {
                done += 1;
            }
        }
        assert!(done >= 7, "only {done}/10 walks completed a pass");
    }

    #[test]
    fn budget_is_fully_consumed_despite_early_completion() {
        // Alg. 1 runs until T < threshold: a completed pass restarts rather
        // than idling out the remaining temperature budget.
        let spec = GpuSpec::rtx4090();
        let w = Walk::default();
        let mut rng = StdRng::seed_from_u64(4);
        let rec = w.run(&gemm(), &spec, &mut rng);
        assert_eq!(rec.steps, w.max_steps_for_rank(3));
    }

    #[test]
    fn walk_harvests_many_states() {
        let spec = GpuSpec::rtx4090();
        let mut rng = StdRng::seed_from_u64(11);
        let rec = Walk::default().run(&gemm(), &spec, &mut rng);
        assert!(
            rec.top_results.len() >= 10,
            "harvest too small: {}",
            rec.top_results.len()
        );
    }

    #[test]
    fn accept_prob_is_a_probability_everywhere() {
        let mut t = 1e6;
        while t > 1e-24 {
            let p = Walk::accept_prob(t);
            assert!((0.0..=1.0).contains(&p), "p({t}) = {p}");
            t /= 2.0;
        }
    }

    #[test]
    fn walks_differ_across_seeds() {
        let spec = GpuSpec::rtx4090();
        let w = Walk::default();
        let mut a = StdRng::seed_from_u64(1);
        let mut b = StdRng::seed_from_u64(2);
        let ra = w.run(&gemm(), &spec, &mut a);
        let rb = w.run(&gemm(), &spec, &mut b);
        assert_ne!(
            ra.terminal, rb.terminal,
            "distinct seeds should explore differently"
        );
    }

    #[test]
    fn walk_is_reproducible() {
        let spec = GpuSpec::rtx4090();
        let w = Walk::default();
        let ra = w.run(&gemm(), &spec, &mut StdRng::seed_from_u64(5));
        let rb = w.run(&gemm(), &spec, &mut StdRng::seed_from_u64(5));
        assert_eq!(ra.terminal, rb.terminal);
        assert_eq!(ra.top_results, rb.top_results);
    }

    /// One operator per class.
    fn one_op_per_class() -> [OpSpec; 5] {
        [
            OpSpec::gemm(1024, 256, 512),
            OpSpec::gemv(8192, 1024),
            OpSpec::conv2d(8, 32, 28, 28, 64, 3, 3, 1, 1),
            OpSpec::avg_pool2d(16, 48, 48, 48, 2, 2),
            OpSpec::elementwise(1 << 20, 2, 1),
        ]
    }

    #[test]
    fn a_walk_from_the_unscheduled_state_is_the_cold_walk() {
        let spec = GpuSpec::rtx4090();
        let w = Walk::default();
        for op in one_op_per_class() {
            for seed in [0, 1, 0xC0FFEE] {
                let cold = w.run(&op, &spec, &mut StdRng::seed_from_u64(seed));
                let from = w.run_from(
                    Etir::initial(op.clone(), &spec),
                    &spec,
                    &mut StdRng::seed_from_u64(seed),
                );
                let bits = |ts: &[f64]| ts.iter().map(|t| t.to_bits()).collect::<Vec<_>>();
                let seen = |r: &WalkRecord| r.best_seen.clone().map(|(e, t)| (e, t.to_bits()));
                let label = format!("{} seed {seed}", op.label());
                assert_eq!(cold.top_results, from.top_results, "{label}");
                assert_eq!(bits(&cold.top_time_us), bits(&from.top_time_us), "{label}");
                assert_eq!(cold.steps, from.steps, "{label}");
                assert_eq!(cold.terminal, from.terminal, "{label}");
                assert_eq!(seen(&cold), seen(&from), "{label}");
                assert_eq!(
                    cold.exact_benefit_evals, from.exact_benefit_evals,
                    "{label}"
                );
            }
        }
    }

    #[test]
    fn a_walk_never_ends_slower_than_its_start() {
        // Start at a finished schedule of a neighbouring shape, moved onto
        // this one: the walk re-opens it at level 0, explores from it, and
        // its best-seen state is never slower than where it started.
        let w = Walk::default();
        for spec in [GpuSpec::rtx4090(), GpuSpec::orin_nano()] {
            for (from, to) in [
                (OpSpec::gemm(1024, 512, 2048), OpSpec::gemm(1536, 512, 2048)),
                (
                    OpSpec::conv2d(8, 32, 28, 28, 64, 3, 3, 1, 1),
                    OpSpec::conv2d(8, 32, 56, 56, 64, 3, 3, 1, 1),
                ),
            ] {
                let source = w
                    .run(&from, &spec, &mut StdRng::seed_from_u64(1))
                    .winner(&spec)
                    .expect("a launchable winner")
                    .0;
                let start = crate::dynamic::transplant(&source, &to, &spec).expect("fits");
                let start_us = simgpu::simulate(&start, &spec).unwrap().time_us;
                for seed in 0..4 {
                    let rec = w.run_from(start.clone(), &spec, &mut StdRng::seed_from_u64(seed));
                    let (best, best_us) = rec.best_seen.as_ref().expect("the start launches");
                    assert!(
                        *best_us <= start_us,
                        "{} seed {seed}: best {best_us} slower than start {start_us}",
                        to.label()
                    );
                    assert_eq!(best.op, to);
                    assert!(
                        rec.top_results
                            .iter()
                            .any(|e| e.smem_tile != start.smem_tile
                                || e.reg_tile != start.reg_tile
                                || e.vthreads != start.vthreads),
                        "the re-opened start must stay editable"
                    );
                }
            }
        }
    }

    #[test]
    fn every_harvested_state_fits_memory_capacity() {
        let spec = GpuSpec::orin_nano();
        let mut rng = StdRng::seed_from_u64(21);
        let rec = Walk::default().run(&gemm(), &spec, &mut rng);
        for s in &rec.top_results {
            assert!(
                etir::analytics::MemCheck::check_capacity(s, &spec).fits(),
                "{}",
                s.describe()
            );
        }
    }
}
