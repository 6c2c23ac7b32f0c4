//! The walk carries what it already knows, and that changes nothing.
//!
//! A tiling edge is costed by the one level it changes: the walk derives
//! its operator's constants once (`OpCosts`) and costs an edge before the
//! successor exists, from the one tile vector the edge changes
//! (`ScheduleStats::edge` recomputes one half of the stats and copies the
//! other), and moves on with the stats of the state it chose instead of
//! recomputing them. A chain's
//! winner is read off the times the walk already simulated for its
//! harvest (`WalkRecord::winner`) instead of simulating the harvest a
//! second time through `simgpu::pick_best`.
//!
//! Every shortcut must be exact. Over the states walks visit on every
//! Table IV operator, four seeds and both evaluation devices, the carried
//! stats and every edge's stats equal `ScheduleStats::compute` of their
//! state, the context's constants, efficiencies and conflict
//! degree equal their per-`Etir` derivations, and every chain winner
//! equals `pick_best` followed by the strict `best_seen` rule, bit for
//! bit. Hand-set ragged and transplanted schedules, whose tiles are not
//! all powers of two or exceed their extents, cover the division path.

use etir::analytics::DRAM_LINE_BYTES;
use etir::{Action, Etir, OpCosts, ScheduleStats, Tiles};
use gensor::{Walk, WalkRecord};
use hardware::{GpuSpec, LevelKind};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simgpu::KernelReport;
use tensor_expr::{OpSpec, DTYPE_BYTES};

const SEEDS: [u64; 4] = [1, 2, 3, 0xC0FFEE];

fn devices() -> [GpuSpec; 2] {
    [GpuSpec::rtx4090(), GpuSpec::orin_nano()]
}

/// Walk `op` exactly as `Walk::run` does (same scoring, same RNG draws,
/// same cost context), calling `visit` on every state the walk stands on
/// with the stats it carries for that state; returns the terminal state.
fn replay(
    walk: &Walk,
    op: &OpSpec,
    spec: &GpuSpec,
    seed: u64,
    mut visit: impl FnMut(&Etir, &ScheduleStats),
) -> Etir {
    let mut rng = StdRng::seed_from_u64(seed);
    let costs = OpCosts::new(op);
    let rank = op.spatial_extents().len() + op.reduce_extents().len();
    let threshold = walk.threshold_for_rank(rank);
    let budget = walk.max_steps_for_rank(rank).max(1);
    let init = Etir::initial(op.clone(), spec);
    let (mut e, mut stats) = (init.clone(), ScheduleStats::compute(&init));
    let (mut t, mut step, mut pass_start) = (walk.t0, 0u32, 0u32);
    while t > threshold {
        visit(&e, &stats);
        let t_norm = ((step - pass_start) as u64 * 100 / budget as u64) as u32;
        let scoring = walk
            .policy
            .score_step_stats(&e, &stats, &costs.shape, spec, t_norm);
        let rows = scoring.rows;
        match walk.policy.choose(&rows, &mut rng) {
            None => {
                (e, stats) = (init.clone(), ScheduleStats::compute(&init));
                pass_start = step;
            }
            Some(pick) => {
                let a = rows[pick].action;
                stats = stats.edge(&costs.shape, &e, &a);
                let next = e.apply(&a);
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
    let mut states = 0u64;
    for spec in devices() {
        for cfg in tensor_expr::benchmark_suite() {
            let op = &cfg.op;
            for seed in SEEDS {
                let terminal = replay(&walk, op, &spec, seed, |e, carried| {
                    states += 1;
                    assert_eq!(
                        *carried,
                        ScheduleStats::compute(e),
                        "carried stats at {} seed {seed} on {}: {}",
                        cfg.label,
                        spec.name,
                        e.describe()
                    );
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
    assert!(states > 30_000, "{states} states");
}

// The per-`Etir` derivations the cost context replaces, written as they
// were before it: every extent re-derived from the operator, every count a
// plain division of the clamped tile.

fn block_counts_of(e: &Etir) -> (u64, u64) {
    let count = |ext: &[u64], tile: &[u64]| -> u64 {
        ext.iter()
            .zip(tile)
            .map(|(&x, &t)| x.div_ceil(t.clamp(1, x)))
            .product()
    };
    let steps = count(&e.op.reduce_extents(), &e.reduce_tile).max(1);
    (count(&e.op.spatial_extents(), &e.smem_tile), steps)
}

fn tile_efficiency_of(e: &Etir) -> f64 {
    let ext = e.op.spatial_extents();
    ext.iter()
        .zip(e.smem_tile.iter())
        .map(|(&x, &t)| {
            let t = t.max(1).min(x);
            x as f64 / (x.div_ceil(t) * t) as f64
        })
        .product()
}

fn dram_efficiency_of(e: &Etir) -> f64 {
    let fp = e.op.tile_footprint(&e.smem_tile, &e.reduce_tile);
    let total_bytes: f64 = fp.inputs.iter().map(|&b| b as f64).sum::<f64>() * DTYPE_BYTES as f64;
    if total_bytes <= 0.0 {
        return 1.0;
    }
    let mut weighted = 0.0;
    for (&elems, &row) in fp.inputs.iter().zip(&fp.rows) {
        let bytes = elems as f64 * DTYPE_BYTES as f64;
        let row_bytes = row as f64 * DTYPE_BYTES as f64;
        let eff = (row_bytes / DRAM_LINE_BYTES).clamp(1.0 / 16.0, 1.0);
        weighted += bytes / total_bytes * eff;
    }
    weighted.clamp(1.0 / 16.0, 1.0)
}

fn conflict_degree_of(e: &Etir, spec: &GpuSpec) -> f64 {
    let smem = spec.level(LevelKind::Shared);
    if smem.banks == 0 || e.spatial_rank() == 0 {
        return 1.0;
    }
    let x = e.clamped_smem_tile()[e.spatial_rank() - 1] as f64;
    let v = e.total_vthreads() as f64;
    (x / (v * smem.banks as f64)).ceil().max(1.0)
}

/// The context's constants equal what `OpSpec` derives.
fn assert_context_of(op: &OpSpec, costs: &OpCosts) {
    let shape = &costs.shape;
    let what = op.label();
    assert_eq!(shape.spatial, op.spatial_extents(), "{what}");
    assert_eq!(shape.reduce, op.reduce_extents(), "{what}");
    let out_bytes = (op.output_elems() * DTYPE_BYTES) as f64;
    assert_eq!(shape.out_bytes.to_bits(), out_bytes.to_bits(), "{what}");
    let reduce_elems = op.reduce_extents().iter().product::<u64>().max(1);
    assert_eq!(shape.reduce_elems, reduce_elems, "{what}");
    assert_eq!(costs.compulsory_bytes, op.compulsory_bytes(), "{what}");
    assert_eq!(costs.flops.to_bits(), op.flops().to_bits(), "{what}");
}

/// At `e`, whose carried stats are `carried`: the context's per-state
/// terms equal the per-`Etir` derivations bit for bit, and every
/// applicable tiling or vThread edge, costed from its one changed tile
/// vector, equals a full compute of the successor. Returns the number of
/// edges checked.
fn assert_edges_at(e: &Etir, carried: &ScheduleStats, costs: &OpCosts, spec: &GpuSpec) -> u64 {
    let shape = &costs.shape;
    let at = || format!("{} on {}: {}", e.op.label(), spec.name, e.describe());
    let counts = (carried.grid_blocks, carried.reduce_steps);
    assert_eq!(counts, block_counts_of(e), "block counts at {}", at());
    let pairs = [
        (shape.tile_efficiency(&e.smem_tile), tile_efficiency_of(e)),
        (shape.dram_efficiency(e), dram_efficiency_of(e)),
        (
            shape.bank_conflict_degree(&e.smem_tile, &e.vthreads, spec),
            conflict_degree_of(e, spec),
        ),
    ];
    for (i, (got, want)) in pairs.into_iter().enumerate() {
        assert_eq!(got.to_bits(), want.to_bits(), "term {i} at {}", at());
    }
    let mut edges = 0;
    for a in Action::all(e.spatial_rank(), e.reduce_rank()) {
        let applicable = e.can_apply(&a);
        assert_eq!(
            applicable,
            e.can_apply_in(&a, &shape.spatial, &shape.reduce),
            "{a:?} at {}",
            at()
        );
        let Some((which, dim, value)) = e.tile_edit(&a).filter(|_| applicable) else {
            continue;
        };
        edges += 1;
        let next = e.apply(&a);
        let mut tiles = *e.tiles(which);
        tiles[dim] = value;
        assert_eq!(*next.tiles(which), tiles, "{a:?} at {}", at());
        let stats = carried.edge(shape, e, &a);
        assert_eq!(stats, ScheduleStats::compute(&next), "{a:?} at {}", at());
        if which == Tiles::Vthreads {
            let degree = shape.bank_conflict_degree(&e.smem_tile, &tiles, spec);
            let want = conflict_degree_of(&next, spec);
            assert_eq!(degree.to_bits(), want.to_bits(), "{a:?} at {}", at());
        }
    }
    edges
}

#[test]
fn an_edge_costs_exactly_what_a_full_compute_does() {
    let walk = Walk::default();
    let (mut states, mut edges) = (0u64, 0u64);
    for spec in devices() {
        for cfg in tensor_expr::benchmark_suite() {
            let costs = OpCosts::new(&cfg.op);
            assert_context_of(&cfg.op, &costs);
            for seed in SEEDS {
                replay(&walk, &cfg.op, &spec, seed, |e, carried| {
                    states += 1;
                    edges += assert_edges_at(e, carried, &costs, &spec);
                });
            }
        }
    }
    assert!(
        states > 30_000 && edges > 200_000,
        "{states} states, {edges} edges"
    );
}

/// Tiles that are not powers of two (set by hand) or exceed their extents
/// (a schedule transplanted onto a smaller shape) cost exactly as the
/// per-`Etir` derivations do, through the division path.
#[test]
fn ragged_and_transplanted_tiles_take_the_division_path() {
    let ragged = |op: OpSpec, smem: &[u64], reg: &[u64], reduce: &[u64], spec: &GpuSpec| {
        let mut e = Etir::initial(op, spec);
        (e.smem_tile, e.reg_tile) = (smem.to_vec().into(), reg.to_vec().into());
        e.reduce_tile = reduce.to_vec().into();
        e.validate().unwrap();
        e
    };
    let mut edges = 0;
    for spec in devices() {
        let big = Walk::default()
            .run(
                &OpSpec::gemm(4096, 4096, 4096),
                &spec,
                &mut StdRng::seed_from_u64(1),
            )
            .terminal;
        let conv_big = Walk::default()
            .run(
                &OpSpec::conv2d(8, 64, 56, 56, 128, 3, 3, 1, 1),
                &spec,
                &mut StdRng::seed_from_u64(1),
            )
            .terminal;
        // Every tile below, and every tile one edge away, keeps the
        // register tile dividing the block tile and the reduce tile within
        // its extent's next power of two, as `Etir::validate` asks.
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
            let costs = OpCosts::new(&e.op);
            assert_context_of(&e.op, &costs);
            // Both levels: tiling edits the block tiles at level 0 and the
            // register tiles at level 1.
            for level in 0..e.num_levels {
                e.cur_level = level;
                let stats = ScheduleStats::compute(&e);
                edges += assert_edges_at(&e, &stats, &costs, &spec);
            }
        }
    }
    assert!(edges > 50, "{edges} edges");
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
    let mut e = Etir::initial(OpSpec::gemm(1024, 512, 2048), &spec);
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
        exact_benefit_evals: 0,
    };
    let winner = rec.winner(&spec);
    assert_eq!(winner.as_ref().map(|(w, _)| w), Some(&cached));
    assert_same_winner(winner, resimulated_winner(&rec, &spec), "tie");
}
