//! Every scored row, bit for bit.
//!
//! The scorer costs an edge without building its successor: it reads the
//! one `(tile vector, axis, new value)` edit the action makes
//! (`Etir::tile_edit`), takes the rest of the state's tiles and per-axis
//! tile counts from a derivation made once per state (`StateTiles`), and
//! carries whichever of the block and reduction-step counts the edit
//! leaves alone. Here each row of `Policy::score_step_stats` is pinned
//! against a reference that does it the long way: build the successor
//! with `Etir::apply`, cost both states with `ScheduleStats::compute`, and
//! score the edge with the public Eq. 1–3 functions.
//!
//! Compared at every state walks stand on, for every Table IV operator on
//! both evaluation devices, and at hand-set ragged and transplanted
//! schedules whose tiles are not all powers of two or exceed their
//! extents: the action order, each row's `benefit` and `prob` bits, and
//! the step's `exact_evals`.

use etir::analytics::MemCheck;
use etir::{Action, Etir, OpCosts, OpShape, ScheduleStats};
use gensor::benefit::{caching_benefit_stats, tiling_benefit_stats};
use gensor::{Policy, StepScoring, Walk};
use hardware::GpuSpec;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tensor_expr::OpSpec;

const SEEDS: [u64; 4] = [1, 2, 3, 0xC0FFEE];

/// The policy's fixed prior for one unroll doubling, and the scale of the
/// compressed Eq. 2 caching benefit.
const UNROLL_BENEFIT: f64 = 1.08;
const CACHE_SCALE: f64 = 0.07;

fn devices() -> [GpuSpec; 2] {
    [GpuSpec::rtx4090(), GpuSpec::orin_nano()]
}

/// The default policy and the three ablations, which drop edges from the
/// scored set.
fn policies() -> [Policy; 4] {
    let all = Policy::default();
    [
        all.clone(),
        Policy {
            enable_vthread: false,
            ..all.clone()
        },
        Policy {
            enable_inverse: false,
            ..all.clone()
        },
        Policy {
            enable_unroll: false,
            ..all
        },
    ]
}

fn enabled(policy: &Policy, a: &Action) -> bool {
    let vthread = matches!(a, Action::SetVthread { .. } | Action::InvVthread { .. });
    let unroll = matches!(a, Action::Unroll | Action::InvUnroll);
    (policy.enable_vthread || !vthread)
        && (policy.enable_inverse || !a.is_inverse())
        && (policy.enable_unroll || !unroll)
}

/// The raw benefit of `a` in `e`, from the successor `e.apply(a)`.
fn reference_benefit(e: &Etir, before: &ScheduleStats, a: Action, spec: &GpuSpec) -> f64 {
    if !e.can_apply(&a) {
        return 0.0;
    }
    let next = e.apply(&a);
    match a {
        Action::Tile { .. }
        | Action::InvTile { .. }
        | Action::TileReduce { .. }
        | Action::InvTileReduce { .. } => {
            if !MemCheck::check_capacity(&next, spec).fits() {
                return 0.0;
            }
            let after = ScheduleStats::compute(&next);
            tiling_benefit_stats(e.cur_level, e.num_levels, before, &after)
        }
        Action::Cache => caching_benefit_stats(e, before, spec),
        Action::SetVthread { .. } | Action::InvVthread { .. } => {
            let shape = OpShape::new(&e.op);
            let degree = |s: &Etir| shape.bank_conflict_degree(&s.smem_tile, &s.vthreads, spec);
            (degree(e) / degree(&next).max(1.0)).max(0.25)
        }
        Action::Unroll => UNROLL_BENEFIT,
        Action::InvUnroll => 1.0 / UNROLL_BENEFIT,
    }
}

/// One step of Alg. 2 the long way: `(action, benefit bits, prob bits)`
/// per row, and the evaluations made.
fn reference_rows(policy: &Policy, e: &Etir, spec: &GpuSpec, t: u32) -> (Vec<Row>, u64) {
    let before = ScheduleStats::compute(e);
    let mut rows: Vec<(Action, f64)> = Vec::new();
    let mut evals = 0;
    for &a in Action::ALL
        .iter()
        .filter(|a| a.in_rank(e.spatial_rank(), e.reduce_rank()) && enabled(policy, a))
    {
        evals += 1;
        let raw = reference_benefit(e, &before, a, spec);
        if raw <= 0.0 {
            continue;
        }
        let benefit = if a == Action::Cache {
            CACHE_SCALE * raw.powf(0.25) * Policy::cache_boost(t)
        } else {
            raw
        };
        rows.push((a, benefit));
    }
    let total: f64 = rows.iter().map(|r| r.1).sum();
    if total <= 0.0 {
        rows.clear();
    }
    let rows = rows
        .into_iter()
        .map(|(a, b)| (a, b.to_bits(), (b / total).to_bits()))
        .collect();
    (rows, evals)
}

type Row = (Action, u64, u64);

fn rows_of(scoring: &StepScoring) -> (Vec<Row>, u64) {
    let rows = scoring
        .rows
        .iter()
        .map(|r| (r.action, r.benefit.to_bits(), r.prob.to_bits()))
        .collect();
    (rows, scoring.exact_evals)
}

/// At `e`, whose stats are `stats`: the scorer's rows (with the stats the
/// walk carries, and one-shot) equal the reference's at annealing step
/// `t`. Returns the number of rows compared.
fn assert_rows_at(
    policy: &Policy,
    e: &Etir,
    stats: &ScheduleStats,
    spec: &GpuSpec,
    t: u32,
) -> usize {
    let shape = OpCosts::new(&e.op).shape;
    let want = reference_rows(policy, e, spec, t);
    let got = rows_of(&policy.score_step_stats(e, stats, &shape, spec, t));
    let at = || {
        format!(
            "{} on {} at t={t}: {}",
            e.op.label(),
            spec.name,
            e.describe()
        )
    };
    assert_eq!(got, want, "{policy:?} at {}", at());
    let one_shot = rows_of(&policy.score_step(e, spec, t));
    assert_eq!(one_shot, want, "one-shot {policy:?} at {}", at());
    want.0.len()
}

/// Walk `op` exactly as `Walk::run` does, calling `visit` with every state
/// the walk stands on, the stats it carries and the step's annealing
/// progress; returns the terminal state.
fn replay(
    walk: &Walk,
    op: &OpSpec,
    spec: &GpuSpec,
    seed: u64,
    mut visit: impl FnMut(&Etir, &ScheduleStats, u32),
) -> Etir {
    let mut rng = StdRng::seed_from_u64(seed);
    let costs = OpCosts::new(op);
    let rank = costs.shape.spatial.len() + costs.shape.reduce.len();
    let threshold = walk.threshold_for_rank(rank);
    let budget = walk.max_steps_for_rank(rank).max(1);
    let init = Etir::initial(op.clone(), spec);
    let (mut e, mut stats) = (init.clone(), ScheduleStats::compute(&init));
    let (mut t, mut step, mut pass_start) = (walk.t0, 0u32, 0u32);
    while t > threshold {
        let t_norm = ((step - pass_start) as u64 * 100 / budget as u64) as u32;
        visit(&e, &stats, t_norm);
        let rows = walk
            .policy
            .score_step_stats(&e, &stats, &costs.shape, spec, t_norm)
            .rows;
        match walk.policy.choose(&rows, &mut rng) {
            None => {
                (e, stats) = (init.clone(), ScheduleStats::compute(&init));
                pass_start = step;
            }
            Some(pick) => {
                let a = rows[pick].action;
                stats = stats.edge(&costs.shape, &e, &a);
                e = e.apply(&a);
                let _accept = rng.gen::<f64>() < Walk::accept_prob(t);
            }
        }
        t /= 2.0;
        step += 1;
    }
    e
}

#[test]
fn every_scored_row_of_every_walked_state_matches_the_long_way() {
    let walk = Walk::default();
    let ablations = &policies()[1..];
    let (mut states, mut rows) = (0u64, 0usize);
    for spec in devices() {
        for cfg in tensor_expr::benchmark_suite() {
            for seed in SEEDS {
                let terminal = replay(&walk, &cfg.op, &spec, seed, |e, stats, t| {
                    states += 1;
                    rows += assert_rows_at(&walk.policy, e, stats, &spec, t);
                    // The ablations score the same states on a sample.
                    if states % 16 == 0 {
                        for policy in ablations {
                            rows += assert_rows_at(policy, e, stats, &spec, t);
                        }
                    }
                });
                let rec = walk.run(&cfg.op, &spec, &mut StdRng::seed_from_u64(seed));
                assert_eq!(
                    terminal, rec.terminal,
                    "{} seed {seed} on {}: the replay left the walk's path",
                    cfg.label, spec.name
                );
            }
        }
    }
    assert!(
        states > 30_000 && rows > 300_000,
        "{states} states, {rows} rows"
    );
}

/// Tiles that are not powers of two (set by hand) or exceed their extents
/// (a schedule transplanted onto a smaller shape) take the division path
/// of every tile count; their rows match too, at both levels and at an
/// early and a late annealing step.
#[test]
fn ragged_and_transplanted_rows_match_the_long_way() {
    let ragged = |op: OpSpec, smem: &[u64], reg: &[u64], reduce: &[u64], spec: &GpuSpec| {
        let mut e = Etir::initial(op, spec);
        (e.smem_tile, e.reg_tile) = (smem.to_vec().into(), reg.to_vec().into());
        e.reduce_tile = reduce.to_vec().into();
        e.validate().unwrap();
        e
    };
    let mut rows = 0;
    for spec in devices() {
        let terminal = |op: OpSpec| {
            Walk::default()
                .run(&op, &spec, &mut StdRng::seed_from_u64(1))
                .terminal
        };
        let big = terminal(OpSpec::gemm(4096, 4096, 4096));
        let conv_big = terminal(OpSpec::conv2d(8, 64, 56, 56, 128, 3, 3, 1, 1));
        let mut cases = vec![
            ragged(
                OpSpec::gemm(100, 60, 100),
                &[24, 48],
                &[6, 12],
                &[12],
                &spec,
            ),
            ragged(OpSpec::gemm(100, 7, 36), &[100, 36], &[10, 6], &[3], &spec),
            ragged(OpSpec::gemv(100, 1000), &[24], &[6], &[24], &spec),
            ragged(
                OpSpec::conv2d(3, 5, 28, 28, 12, 3, 3, 1, 1),
                &[3, 6, 14, 12],
                &[3, 6, 14, 6],
                &[3, 1, 2],
                &spec,
            ),
            ragged(
                OpSpec::avg_pool2d(2, 6, 14, 14, 3, 2),
                &[2, 3, 6, 6],
                &[2, 3, 6, 6],
                &[1, 2],
                &spec,
            ),
            ragged(OpSpec::elementwise(1000, 3, 1), &[24], &[6], &[], &spec),
        ];
        cases.extend(gensor::transplant(&big, &OpSpec::gemm(96, 24, 48), &spec));
        cases.extend(gensor::transplant(&big, &OpSpec::gemm(100, 60, 36), &spec));
        let small_conv = OpSpec::conv2d(2, 6, 14, 14, 20, 3, 3, 1, 1);
        cases.extend(gensor::transplant(&conv_big, &small_conv, &spec));
        assert_eq!(cases.len(), 9, "every transplant fits {}", spec.name);
        for mut e in cases {
            for level in 0..e.num_levels {
                e.cur_level = level;
                let stats = ScheduleStats::compute(&e);
                for t in [0, 60] {
                    for policy in &policies() {
                        rows += assert_rows_at(policy, &e, &stats, &spec, t);
                    }
                }
            }
        }
    }
    assert!(rows > 1_000, "{rows} rows");
}
