//! A serial replay of `Gensor::compile` through the public API, one span
//! per call, in exactly `Walk::run`'s order and RNG draw sequence. The
//! replay is checked against the real walk (same terminal and best-seen
//! fingerprints for the same seed), so the per-layer times it attributes
//! are times of the code path the tuner actually runs.

use crate::trace::{SpanId, Tracer, NO_PARENT};
use etir::analytics::{MemCheck, ScheduleStats};
use etir::{Action, Etir};
use gensor::benefit::action_benefit_stats;
use gensor::{Gensor, Walk};
use hardware::GpuSpec;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simgpu::KernelReport;
use tensor_expr::OpSpec;

/// Shadow-time every this-many-th step: the sub-calls of `score_step` are
/// repeated on the same state under their own spans, which doubles the
/// cost of the steps it touches.
const SHADOW_EVERY: u32 = 8;

/// The exact counts of a replayed chain, compile or pass; they add up.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    pub steps: u64,
    pub benefit_evals: u64,
    pub rows_kept: u64,
    pub simulate_calls: u64,
    pub simulate_errs: u64,
}

impl std::ops::AddAssign for Counts {
    fn add_assign(&mut self, o: Counts) {
        self.steps += o.steps;
        self.benefit_evals += o.benefit_evals;
        self.rows_kept += o.rows_kept;
        self.simulate_calls += o.simulate_calls;
        self.simulate_errs += o.simulate_errs;
    }
}

/// What one replayed chain found, plus the counts the ledger reports.
#[derive(Debug, Clone)]
pub struct ChainReplay {
    pub terminal_fp: u64,
    pub best_seen_fp: Option<u64>,
    pub best: Option<(Etir, KernelReport)>,
    pub counts: Counts,
    /// Per shadowed step: `score_step` minus its shadow-timed sub-calls.
    pub score_self_ns: Vec<f64>,
}

/// Replay the chain seeded `seed` under a root `core.chain` span. The
/// shadow repeats sit under a `shadow.score_step` child, so they are
/// excluded from the chain's self time yet can be told apart from the
/// compile's own calls.
pub fn replay_chain(
    walk: &Walk,
    op: &OpSpec,
    spec: &GpuSpec,
    seed: u64,
    tr: &mut Tracer,
    op_id: u32,
) -> ChainReplay {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = ChainReplay {
        terminal_fp: 0,
        best_seen_fp: None,
        best: None,
        counts: Counts::default(),
        score_self_ns: Vec::new(),
    };
    let chain = tr.enter("core.chain", NO_PARENT, op_id);
    let mut e = tr.time("etir.initial", chain, op_id, || {
        Etir::initial(op.clone(), spec)
    });
    let rank = op.spatial_extents().len() + op.reduce_extents().len();
    let threshold = walk.threshold_for_rank(rank);
    let budget = walk.max_steps_for_rank(rank).max(1);
    let mut t = walk.t0;
    let (mut step, mut pass_start) = (0u32, 0u32);
    let mut top: Vec<Etir> = Vec::new();
    let mut best_seen: Option<(Etir, f64)> = None;

    // `Walk::run`'s `consider`: score the state, keep it if it leads.
    let consider =
        |state: &Etir, best: &mut Option<(Etir, f64)>, tr: &mut Tracer, out: &mut ChainReplay| {
            out.counts.simulate_calls += 1;
            match tr.time("simgpu.simulate", chain, op_id, || {
                simgpu::simulate(state, spec)
            }) {
                Ok(r) => {
                    if best.as_ref().is_none_or(|(_, bt)| r.time_us < *bt) {
                        *best = Some((
                            tr.time("etir.clone", chain, op_id, || state.clone()),
                            r.time_us,
                        ));
                    }
                }
                Err(_) => out.counts.simulate_errs += 1,
            }
        };
    consider(&e, &mut best_seen, tr, &mut out);

    while t > threshold {
        let t_norm = ((step - pass_start) as u64 * 100 / budget as u64) as u32;
        let score_id = tr.enter("core.score_step", chain, op_id);
        let scoring = walk.policy.score_step(&e, spec, t_norm);
        let score_ns = tr.exit(score_id);
        out.counts.benefit_evals += scoring.exact_evals;
        out.counts.rows_kept += scoring.rows.len() as u64;
        if step % SHADOW_EVERY == 0 {
            // Each span's duration includes its own clock reads; the
            // shadow side has many more spans than the one it explains.
            let (sub_ns, sub_spans) = shadow_score_step(&e, spec, tr, chain, op_id);
            let clock_ns = (sub_spans as f64 - 1.0) * tr.empty_span_ns;
            out.score_self_ns
                .push(score_ns as f64 - (sub_ns as f64 - clock_ns));
        }
        let rows = scoring.rows;
        let pick = tr.time("core.choose", chain, op_id, || {
            walk.policy.choose(&rows, &mut rng)
        });
        let Some(pick) = pick else {
            // Construction complete with budget left: restart, as the
            // walk does, without consuming an accept draw.
            top.push(tr.time("etir.clone", chain, op_id, || e.clone()));
            e = tr.time("etir.initial", chain, op_id, || {
                Etir::initial(op.clone(), spec)
            });
            pass_start = step;
            t /= 2.0;
            step += 1;
            continue;
        };
        let next = tr.time("etir.apply", chain, op_id, || e.apply(&rows[pick].action));
        if rng.gen::<f64>() < Walk::accept_prob(t) {
            top.push(tr.time("etir.clone", chain, op_id, || next.clone()));
        }
        consider(&next, &mut best_seen, tr, &mut out);
        e = next;
        t /= 2.0;
        step += 1;
    }
    top.push(tr.time("etir.clone", chain, op_id, || e.clone()));

    // `Gensor::run_chains`' tail: harvested states and the best-seen
    // state compete.
    let mut best = tr.time("simgpu.pick_best", chain, op_id, || {
        simgpu::pick_best(&top, spec)
    });
    out.counts.simulate_calls += top.len() as u64;
    if let Some((state, time_us)) = &best_seen {
        if best.as_ref().is_none_or(|(_, r)| *time_us < r.time_us) {
            out.counts.simulate_calls += 1;
            if let Ok(r) = tr.time("simgpu.simulate", chain, op_id, || {
                simgpu::simulate(state, spec)
            }) {
                best = Some((state.clone(), r));
            }
        }
    }
    tr.exit(chain);
    out.terminal_fp = e.fingerprint();
    out.best_seen_fp = best_seen.map(|(s, _)| s.fingerprint());
    out.best = best;
    out.counts.steps = step as u64;
    out
}

/// Repeat `score_step`'s public sub-calls on `state` under shadow spans
/// and return the nanoseconds they took in total (stats + benefit evals —
/// what `score_step` would spend if it did nothing else) with the number
/// of spans that total is summed over.
fn shadow_score_step(
    state: &Etir,
    spec: &GpuSpec,
    tr: &mut Tracer,
    chain: SpanId,
    op_id: u32,
) -> (u64, usize) {
    let root = tr.enter("shadow.score_step", chain, op_id);
    let id = tr.enter("etir.stats", root, op_id);
    let before = ScheduleStats::compute(state);
    let mut sub = tr.exit(id);
    let actions = tr.time("etir.enumerate", root, op_id, || {
        Action::all(state.spatial_rank(), state.reduce_rank())
    });
    for a in &actions {
        let id = tr.enter("core.benefit_eval", root, op_id);
        std::hint::black_box(action_benefit_stats(state, &before, a, spec));
        sub += tr.exit(id);
    }
    tr.time("etir.memcheck", root, op_id, || {
        std::hint::black_box(MemCheck::check_capacity_stats(&before, spec))
    });
    tr.time("etir.fingerprint", root, op_id, || {
        std::hint::black_box(state.fingerprint())
    });
    tr.exit(root);
    (sub, 1 + actions.len())
}

/// Totals of one replayed compile.
#[derive(Debug, Clone)]
pub struct CompileReplay {
    pub best: Option<(Etir, KernelReport)>,
    pub chains: u64,
    pub counts: Counts,
    pub score_self_ns: Vec<f64>,
    /// Wall time of the real walks run serially (`Walk::run` per chain
    /// plus the pick-best tail) — what the replay's spans must add up to.
    pub serial_ns: u64,
    /// Chains whose replay ended on other fingerprints than `Walk::run`.
    pub mismatched_chains: u64,
}

/// Replay every chain of `tuner.compile(op, spec)` serially. Each chain
/// is first run for real (`Walk::run`, timed as the serial baseline) and
/// then replayed under spans; the two must agree on what they found.
pub fn replay_compile(
    tuner: &Gensor,
    op: &OpSpec,
    spec: &GpuSpec,
    tr: &mut Tracer,
    op_id: u32,
) -> CompileReplay {
    let mut out = CompileReplay {
        best: None,
        chains: tuner.chains_for(op) as u64,
        counts: Counts::default(),
        score_self_ns: Vec::new(),
        serial_ns: 0,
        mismatched_chains: 0,
    };
    let walk = &tuner.cfg.walk;
    for i in 0..out.chains {
        let seed = tuner.cfg.seed.wrapping_add(i);

        let t0 = std::time::Instant::now();
        let rec = walk.run(op, spec, &mut StdRng::seed_from_u64(seed));
        let mut real_best = simgpu::pick_best(&rec.top_results, spec);
        if let Some((state, time_us)) = &rec.best_seen {
            if real_best.as_ref().is_none_or(|(_, r)| *time_us < r.time_us) {
                if let Ok(r) = simgpu::simulate(state, spec) {
                    real_best = Some((state.clone(), r));
                }
            }
        }
        std::hint::black_box(&real_best);
        out.serial_ns += t0.elapsed().as_nanos() as u64;

        let chain = replay_chain(walk, op, spec, seed, tr, op_id);
        let faithful = chain.terminal_fp == rec.terminal.fingerprint()
            && chain.best_seen_fp == rec.best_seen.as_ref().map(|(s, _)| s.fingerprint())
            && chain.counts.steps == rec.steps as u64
            && chain.counts.benefit_evals == rec.exact_benefit_evals;
        out.mismatched_chains += u64::from(!faithful);
        out.counts += chain.counts;
        out.score_self_ns.extend(chain.score_self_ns);
        if let Some((e, r)) = chain.best {
            if out.best.as_ref().is_none_or(|(_, b)| r.time_us < b.time_us) {
                out.best = Some((e, r));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use simgpu::Tuner;

    #[test]
    fn replay_of_a_small_gemm_matches_the_real_walk_and_the_real_compile() {
        let spec = GpuSpec::rtx4090();
        let op = OpSpec::gemm(256, 64, 128);
        let tuner = Gensor::with_config(gensor::GensorConfig {
            chains: 3,
            ..Default::default()
        });
        let mut tr = Tracer::new();
        let replay = replay_compile(&tuner, &op, &spec, &mut tr, 1);
        assert_eq!(
            replay.mismatched_chains, 0,
            "replay diverged from Walk::run"
        );
        assert_eq!(replay.chains, 3);
        let real = tuner.compile(&op, &spec);
        let (etir, report) = replay.best.expect("a launchable schedule");
        assert_eq!(etir.fingerprint(), real.etir.fingerprint());
        assert_eq!(report.time_us, real.report.time_us);
        let c = replay.counts;
        assert!(c.steps > 0 && c.benefit_evals > c.steps);
        assert!(c.rows_kept <= c.benefit_evals);
        assert!(!replay.score_self_ns.is_empty());
        assert!(tr.spans().iter().any(|s| s.name == "core.score_step"));
    }
}
