//! A walk step does not touch the heap, except for its one row table.
//!
//! `Policy::score_step` asks `Etir::can_apply` about every enabled action
//! of every step and costs each tiling edge from the one tile vector it
//! changes (`ScheduleStats::edge`), and the walk simulates the state it
//! moves to on the stats and the operator constants (`OpCosts`) it
//! carries. This binary installs a global allocator that counts
//! allocations per thread and asserts that all of that makes none, over
//! every Table IV operator at its initial state and at states a seeded
//! walk visits. Deriving a schedule-cache key (`CacheKey::new`), a
//! schedule's fingerprint (`Etir::fingerprint`) and a repeated cache hit
//! (`ScheduleCache::lookup`) make none either.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use etir::{Action, Etir, MemCheck, OpCosts, ScheduleStats};
use gensor::benefit::{action_benefit_stats, edge_benefit};
use gensor::{Policy, Walk};
use hardware::GpuSpec;
use rand::rngs::StdRng;
use rand::SeedableRng;
use simgpu::{SimError, SimOptions};

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// `System`, plus a per-thread count of allocations (the test harness's
/// other threads do not disturb a measurement).
struct Counting;

fn count_one() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds `GlobalAlloc`'s contract; the count is a const-initialised
// thread-local `Cell` without a destructor, so bumping it neither allocates
// nor re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap allocations this thread makes while running `f`.
fn allocations_in<R>(f: impl FnOnce() -> R) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    std::hint::black_box(f());
    ALLOCATIONS.with(Cell::get) - before
}

/// The initial state of `op`, then every state one seeded walk harvested.
fn states(op: &tensor_expr::OpSpec, spec: &GpuSpec) -> Vec<Etir> {
    let rec = Walk::default().run(op, spec, &mut StdRng::seed_from_u64(7));
    let mut out = vec![Etir::initial(op.clone(), spec)];
    out.extend(rec.top_results.into_iter().take(4));
    out.push(rec.terminal);
    out
}

#[test]
fn extent_and_tile_queries_do_not_allocate() {
    let spec = GpuSpec::rtx4090();
    for cfg in tensor_expr::benchmark_suite() {
        let op = &cfg.op;
        let label = &cfg.label;
        let n = allocations_in(|| Etir::initial(op.clone(), &spec));
        assert_eq!(n, 0, "{label}: Etir::initial allocated {n} time(s)");
        // Block and reduce-step counts live in `ScheduleStats`' level
        // halves; `a_scored_step_allocates_only_its_row_table` pins them
        // through `ScheduleStats::edge`.
        let costs = OpCosts::new(op);
        let shape = &costs.shape;
        for e in states(op, &spec) {
            let checks: [(&str, u64); 8] = [
                (
                    "OpSpec::spatial_extents",
                    allocations_in(|| op.spatial_extents()),
                ),
                (
                    "OpSpec::reduce_extents",
                    allocations_in(|| op.reduce_extents()),
                ),
                ("OpSpec::output_elems", allocations_in(|| op.output_elems())),
                ("OpSpec::flops", allocations_in(|| op.flops())),
                ("OpCosts::new", allocations_in(|| OpCosts::new(op))),
                (
                    "OpShape::tile_efficiency",
                    allocations_in(|| shape.tile_efficiency(&e.smem_tile)),
                ),
                (
                    "OpShape::dram_efficiency",
                    allocations_in(|| shape.dram_efficiency(&e)),
                ),
                (
                    "OpShape::bank_conflict_degree",
                    allocations_in(|| shape.bank_conflict_degree(&e.smem_tile, &e.vthreads, &spec)),
                ),
            ];
            for (name, n) in checks {
                assert_eq!(n, 0, "{label}: {name} allocated {n} time(s)");
            }
        }
    }
}

#[test]
fn a_cache_key_does_not_allocate() {
    for spec in [GpuSpec::rtx4090(), GpuSpec::orin_nano()] {
        for cfg in tensor_expr::benchmark_suite() {
            let n = allocations_in(|| schedcache::CacheKey::new(&cfg.op, &spec, "Gensor"));
            assert_eq!(n, 0, "{}: CacheKey::new allocated {n} time(s)", cfg.label);
        }
    }
}

/// A resident schedule is proved for its device once (at admission with
/// a spec, or on its first answer), so a repeated hit neither verifies
/// nor clones a verdict.
#[test]
fn a_repeated_cache_hit_does_not_allocate() {
    let spec = GpuSpec::rtx4090();
    let cache = schedcache::ScheduleCache::in_memory();
    let kernel = |op: &tensor_expr::OpSpec| {
        let etir = Etir::initial(op.clone(), &spec);
        let report = simgpu::simulate(&etir, &spec).unwrap();
        simgpu::CompiledKernel {
            etir,
            report,
            wall_time_s: 0.05,
            simulated_tuning_s: 0.0,
            candidates_evaluated: 1,
        }
    };
    let (proved, raw) = (
        tensor_expr::OpSpec::gemm(256, 128, 256),
        tensor_expr::OpSpec::gemm(512, 128, 256),
    );
    cache
        .install(&proved, &spec, "Gensor", kernel(&proved))
        .unwrap();
    cache
        .install_raw(schedcache::CacheEntry {
            key: schedcache::CacheKey::new(&raw, &spec, "Gensor"),
            op_label: raw.label(),
            method: "Gensor".into(),
            kernel: kernel(&raw),
        })
        .unwrap();
    for op in [&proved, &raw] {
        // The first answer proves a raw entry and registers the metrics.
        cache.lookup(op, &spec, "Gensor").unwrap().unwrap();
        let n = allocations_in(|| cache.lookup(op, &spec, "Gensor").unwrap().unwrap());
        assert_eq!(n, 0, "{}: a hit allocated {n} time(s)", op.label());
    }
    assert_eq!(cache.stats().hits, 4);
}

#[test]
fn a_schedule_fingerprint_does_not_allocate() {
    let spec = GpuSpec::rtx4090();
    for cfg in tensor_expr::benchmark_suite() {
        for e in states(&cfg.op, &spec) {
            let n = allocations_in(|| e.fingerprint());
            assert_eq!(
                n, 0,
                "{}: Etir::fingerprint allocated {n} time(s)",
                cfg.label
            );
        }
    }
}

#[test]
fn can_apply_does_not_allocate() {
    let spec = GpuSpec::rtx4090();
    for cfg in tensor_expr::benchmark_suite() {
        let op = &cfg.op;
        for e in states(op, &spec) {
            for a in Action::all(e.spatial_rank(), e.reduce_rank()) {
                let n = allocations_in(|| e.can_apply(&a));
                assert_eq!(
                    n,
                    0,
                    "{}: can_apply({a:?}) allocated at {}",
                    cfg.label,
                    e.describe()
                );
            }
        }
    }
}

/// A state of `op` that no device can launch: every block tile is 4096
/// wide with one element per thread, more threads than any GPU allows.
fn infeasible(op: &tensor_expr::OpSpec, spec: &GpuSpec) -> Etir {
    let mut e = Etir::initial(op.clone(), spec);
    e.smem_tile = e.smem_tile.iter().map(|_| 4096).collect();
    e
}

/// Run a first `score_step` and `simulate` (a launch and a refusal) on every
/// suite operator, so the counts below see only the steady state:
/// `simulate` registers its `obs` counters on first call (one handle per
/// call site), and scoring registers none.
fn warm_obs(policy: &Policy, spec: &GpuSpec) {
    for cfg in tensor_expr::benchmark_suite() {
        let e = Etir::initial(cfg.op.clone(), spec);
        policy.score_step(&e, spec, 0);
        simgpu::simulate(&e, spec).unwrap();
        let _ = simgpu::simulate(&infeasible(&cfg.op, spec), spec).unwrap_err();
    }
}

#[test]
fn a_scored_step_allocates_only_its_row_table() {
    let spec = GpuSpec::rtx4090();
    let policy = Policy::default();
    warm_obs(&policy, &spec);
    let (mut feasible, mut refused) = (0, 0);
    for cfg in tensor_expr::benchmark_suite() {
        let op = &cfg.op;
        let label = &cfg.label;
        let costs = OpCosts::new(op);
        for e in states(op, &spec).into_iter().chain([infeasible(op, &spec)]) {
            let at = e.describe();
            let before = ScheduleStats::compute(&e);
            match simgpu::simulate(&e, &spec) {
                Ok(_) => feasible += 1,
                Err(SimError::Infeasible(_)) => refused += 1,
                Err(other) => panic!("{label}: {other} at {at}"),
            }
            let checks: [(&str, u64); 5] = [
                ("Etir::clone", allocations_in(|| e.clone())),
                (
                    "ScheduleStats::compute",
                    allocations_in(|| ScheduleStats::compute(&e)),
                ),
                (
                    "MemCheck::check",
                    allocations_in(|| MemCheck::check(&e, &spec)),
                ),
                (
                    "simgpu::simulate",
                    allocations_in(|| simgpu::simulate(&e, &spec)),
                ),
                (
                    "simgpu::simulate_stats",
                    allocations_in(|| {
                        simgpu::simulate_stats(&e, &before, &costs, &spec, SimOptions::default())
                    }),
                ),
            ];
            for (name, n) in checks {
                assert_eq!(n, 0, "{label}: {name} allocated {n} time(s) at {at}");
            }
            for a in Action::all(e.spatial_rank(), e.reduce_rank()) {
                if e.can_apply(&a) {
                    let n = allocations_in(|| e.apply(&a));
                    assert_eq!(n, 0, "{label}: apply({a:?}) allocated {n} time(s) at {at}");
                    let n = allocations_in(|| before.edge(&costs.shape, &e, &a));
                    assert_eq!(
                        n, 0,
                        "{label}: ScheduleStats::edge({a:?}) allocated {n} time(s) at {at}"
                    );
                }
                let n = allocations_in(|| edge_benefit(&e, &before, &costs.shape, &a, &spec));
                assert_eq!(
                    n, 0,
                    "{label}: edge_benefit({a:?}) allocated {n} time(s) at {at}"
                );
                let n = allocations_in(|| action_benefit_stats(&e, &before, &a, &spec));
                assert_eq!(
                    n, 0,
                    "{label}: action_benefit_stats({a:?}) allocated {n} time(s) at {at}"
                );
            }
            let n = allocations_in(|| policy.score_step(&e, &spec, 5));
            assert_eq!(n, 1, "{label}: score_step allocated {n} time(s) at {at}");
            let n = allocations_in(|| policy.score_step_stats(&e, &before, &costs.shape, &spec, 5));
            assert_eq!(
                n, 1,
                "{label}: score_step_stats allocated {n} time(s) at {at}"
            );
        }
    }
    assert!(
        feasible > 0 && refused > 0,
        "{feasible} Ok, {refused} Infeasible"
    );
}

#[test]
fn the_counter_sees_allocations() {
    assert_eq!(allocations_in(|| vec![1u64, 2, 3]), 1);
}

/// A disarmed failpoint is free: with nothing armed, a site is one relaxed
/// atomic load that reaches neither the registry nor the heap.
#[test]
fn a_disarmed_failpoint_does_not_allocate() {
    let _faults = faults::exclusive();
    assert!(!faults::armed());
    let sites = || {
        for _ in 0..1000 {
            assert!(faults::check("store.append").is_none());
            assert!(faults::failpoint!("store.load").is_ok());
        }
    };
    assert_eq!(allocations_in(sites), 0);
}
