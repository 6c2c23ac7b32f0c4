//! The walk carries what it already knows, and that changes nothing.
//!
//! A tiling edge is costed by the one level it changes:
//! `ScheduleStats::successor` recomputes one half of the stats and copies
//! the other, and the walk moves on with the stats of the state it chose
//! instead of recomputing them. A chain's winner is read off the times the
//! walk already simulated for its harvest (`WalkRecord::winner`) instead of
//! simulating the harvest a second time through `simgpu::pick_best`.
//!
//! Both shortcuts must be exact. Over the states walks visit on every
//! Table IV operator, four seeds and both evaluation devices, every
//! successor's stats equal `ScheduleStats::compute` of the successor, and
//! every chain winner equals `pick_best` followed by the strict
//! `best_seen` rule, bit for bit.

use etir::{Action, Etir, ScheduleStats};
use gensor::{Walk, WalkRecord};
use hardware::GpuSpec;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simgpu::KernelReport;

const SEEDS: [u64; 4] = [1, 2, 3, 0xC0FFEE];

fn devices() -> [GpuSpec; 2] {
    [GpuSpec::rtx4090(), GpuSpec::orin_nano()]
}

fn is_tiling(a: &Action) -> bool {
    matches!(
        a,
        Action::Tile { .. }
            | Action::InvTile { .. }
            | Action::TileReduce { .. }
            | Action::InvTileReduce { .. }
    )
}

/// Walk `op` exactly as `Walk::run` does (same scoring, same RNG draws),
/// calling `visit` on every state the walk stands on with the stats it
/// carries for that state; returns the terminal state.
fn replay(
    walk: &Walk,
    op: &tensor_expr::OpSpec,
    spec: &GpuSpec,
    seed: u64,
    mut visit: impl FnMut(&Etir, &ScheduleStats),
) -> Etir {
    let mut rng = StdRng::seed_from_u64(seed);
    let rank = op.spatial_extents().len() + op.reduce_extents().len();
    let threshold = walk.threshold_for_rank(rank);
    let budget = walk.max_steps_for_rank(rank).max(1);
    let init = Etir::initial(op.clone(), spec);
    let (mut e, mut stats) = (init.clone(), ScheduleStats::compute(&init));
    let (mut t, mut step, mut pass_start) = (walk.t0, 0u32, 0u32);
    while t > threshold {
        visit(&e, &stats);
        let t_norm = ((step - pass_start) as u64 * 100 / budget as u64) as u32;
        let rows = walk.policy.score_step_stats(&e, &stats, spec, t_norm).rows;
        match walk.policy.choose(&rows, &mut rng) {
            None => {
                (e, stats) = (init.clone(), ScheduleStats::compute(&init));
                pass_start = step;
            }
            Some(pick) => {
                let a = rows[pick].action;
                let next = e.apply(&a);
                stats = stats.successor(&next, &a);
                let _accept = rng.gen::<f64>() < Walk::accept_prob(t);
                e = next;
            }
        }
        t /= 2.0;
        step += 1;
    }
    visit(&e, &stats);
    e
}

#[test]
fn a_successor_costs_exactly_what_a_full_compute_does() {
    let walk = Walk::default();
    let (mut states, mut successors) = (0u64, 0u64);
    for spec in devices() {
        for cfg in tensor_expr::benchmark_suite() {
            let op = &cfg.op;
            for seed in SEEDS {
                let terminal = replay(&walk, op, &spec, seed, |e, carried| {
                    states += 1;
                    let at = || {
                        format!(
                            "{} seed {seed} on {}: {}",
                            cfg.label,
                            spec.name,
                            e.describe()
                        )
                    };
                    assert_eq!(
                        *carried,
                        ScheduleStats::compute(e),
                        "carried stats at {}",
                        at()
                    );
                    for a in Action::all(e.spatial_rank(), e.reduce_rank()) {
                        if !is_tiling(&a) || !e.can_apply(&a) {
                            continue;
                        }
                        successors += 1;
                        let next = e.apply(&a);
                        assert_eq!(
                            carried.successor(&next, &a),
                            ScheduleStats::compute(&next),
                            "{a:?} at {}",
                            at()
                        );
                    }
                });
                let rec = walk.run(op, &spec, &mut StdRng::seed_from_u64(seed));
                assert_eq!(
                    terminal, rec.terminal,
                    "{} seed {seed}: the replay left the walk's path",
                    cfg.label
                );
            }
        }
    }
    assert!(
        states > 30_000 && successors > 200_000,
        "{states} states, {successors} successors"
    );
}

/// The winner as it was chosen before the walk carried its times: simulate
/// the whole harvest, keep the first strict minimum, and take `best_seen`
/// only if it is strictly faster.
fn resimulated_winner(rec: &WalkRecord, spec: &GpuSpec) -> Option<(Etir, KernelReport)> {
    let mut best = simgpu::pick_best(&rec.top_results, spec);
    if let Some((e, t)) = &rec.best_seen {
        if best.as_ref().is_none_or(|(_, r)| *t < r.time_us) {
            if let Ok(r) = simgpu::simulate(e, spec) {
                best = Some((e.clone(), r));
            }
        }
    }
    best
}

fn assert_same_winner(
    got: Option<(Etir, KernelReport)>,
    want: Option<(Etir, KernelReport)>,
    what: &str,
) {
    let bits = |w: &Option<(Etir, KernelReport)>| {
        w.as_ref()
            .map(|(e, r)| (e.fingerprint(), format!("{r:?}"), r.time_us.to_bits()))
    };
    assert_eq!(bits(&got), bits(&want), "{what}");
    assert_eq!(got, want, "{what}");
}

#[test]
fn the_carried_winner_is_the_resimulated_winner() {
    let walk = Walk::default();
    for spec in devices() {
        for cfg in tensor_expr::benchmark_suite() {
            for seed in SEEDS {
                let what = format!("{} seed {seed} on {}", cfg.label, spec.name);
                let rec = walk.run(&cfg.op, &spec, &mut StdRng::seed_from_u64(seed));
                assert_eq!(rec.top_time_us.len(), rec.top_results.len(), "{what}");
                for (e, &t) in rec.top_results.iter().zip(&rec.top_time_us) {
                    let sim = simgpu::simulate(e, &spec).map_or(f64::INFINITY, |r| r.time_us);
                    assert_eq!(t.to_bits(), sim.to_bits(), "{what}: {}", e.describe());
                }
                assert_same_winner(rec.winner(&spec), resimulated_winner(&rec, &spec), &what);
            }
        }
    }
}

/// Two harvested states that differ only in `cur_level` (one `Cache` edge
/// apart) have the same time; the first one harvested wins, and a
/// `best_seen` at the same time does not displace it.
#[test]
fn a_cur_level_only_tie_goes_to_the_first_harvested_state() {
    let spec = GpuSpec::rtx4090();
    let mut e = Etir::initial(tensor_expr::OpSpec::gemm(1024, 512, 2048), &spec);
    for a in [
        Action::Tile { dim: 0 },
        Action::Tile { dim: 1 },
        Action::TileReduce { dim: 0 },
    ] {
        for _ in 0..5 {
            e = e.apply(&a);
        }
    }
    let cached = e.apply(&Action::Cache);
    let t = simgpu::simulate(&e, &spec).unwrap().time_us;
    assert_eq!(
        t.to_bits(),
        simgpu::simulate(&cached, &spec).unwrap().time_us.to_bits()
    );
    let rec = WalkRecord {
        top_results: vec![cached.clone(), e.clone()],
        top_time_us: vec![t, t],
        steps: 1,
        terminal: e.clone(),
        best_seen: Some((e.clone(), t)),
        best_time_trace: vec![t, t],
        exact_benefit_evals: 0,
    };
    let winner = rec.winner(&spec);
    assert_eq!(winner.as_ref().map(|(w, _)| w), Some(&cached));
    assert_same_winner(winner, resimulated_winner(&rec, &spec), "tie");
}
