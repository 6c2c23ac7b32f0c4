//! Property-based checks on the Markov policy and the simulator, across
//! arbitrary reachable states.

use etir::{Action, Etir, OpShape};
use gensor::Policy;
use hardware::GpuSpec;
use proptest::prelude::*;
use tensor_expr::OpSpec;

fn arb_gemm() -> impl Strategy<Value = OpSpec> {
    (16u64..2048, 4u64..512, 16u64..2048).prop_map(|(m, k, n)| OpSpec::gemm(m, k, n))
}

/// Any of the five operator classes, small enough to keep a case cheap.
fn arb_op() -> impl Strategy<Value = OpSpec> {
    prop_oneof![
        arb_gemm(),
        (16u64..4096, 16u64..4096).prop_map(|(m, n)| OpSpec::gemv(m, n)),
        (
            1u64..9,
            1u64..65,
            7u64..57,
            1u64..65,
            1u64..4,
            1u64..3,
            0u64..2
        )
            .prop_map(|(n, ci, hw, co, k, s, p)| OpSpec::conv2d(n, ci, hw, hw, co, k, k, s, p)),
        (1u64..9, 1u64..65, 7u64..57, 1u64..4, 1u64..3)
            .prop_map(|(n, c, hw, f, s)| OpSpec::avg_pool2d(n, c, hw, hw, f, s)),
        (1u64..100_000, 1u32..4).prop_map(|(n, inputs)| OpSpec::elementwise(n, inputs, 1)),
    ]
}

fn walk(op: &OpSpec, spec: &GpuSpec, choices: &[u8]) -> Etir {
    let mut e = Etir::initial(op.clone(), spec);
    for &c in choices {
        let acts = Action::enumerate(&e);
        if acts.is_empty() {
            break;
        }
        let next = e.apply(&acts[c as usize % acts.len()]);
        if etir::analytics::MemCheck::check_capacity(&next, spec).fits() {
            e = next;
        }
    }
    e
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Transition probabilities form a distribution at every state, and
    /// every positive-probability action is applicable and capacity-safe
    /// (§IV-C memory check).
    #[test]
    fn transition_probs_are_a_distribution(
        op in arb_gemm(),
        choices in proptest::collection::vec(any::<u8>(), 0..30),
        t in 0u32..100,
    ) {
        let spec = GpuSpec::rtx4090();
        let e = walk(&op, &spec, &choices);
        let rows = Policy::default().transition_probs(&e, &spec, t);
        if rows.is_empty() {
            // Only legitimate when the state has no feasible edges at all.
            prop_assert!(e.is_complete() || Action::enumerate(&e).is_empty());
        } else {
            let total: f64 = rows.iter().map(|r| r.prob).sum();
            prop_assert!((total - 1.0).abs() < 1e-9);
            for r in &rows {
                prop_assert!(r.prob > 0.0 && r.prob <= 1.0);
                prop_assert!(e.can_apply(&r.action));
                let next = e.apply(&r.action);
                prop_assert!(
                    etir::analytics::MemCheck::check_capacity(&next, &spec).fits(),
                    "policy assigned mass to capacity-violating {:?}", r.action
                );
            }
        }
    }

    /// The simulator is a total function on capacity-feasible states and
    /// returns physical numbers.
    #[test]
    fn simulator_outputs_physical_quantities(
        op in arb_gemm(),
        choices in proptest::collection::vec(any::<u8>(), 0..30),
    ) {
        let spec = GpuSpec::orin_nano();
        let e = walk(&op, &spec, &choices);
        if let Ok(r) = simgpu::simulate(&e, &spec) {
            prop_assert!(r.time_us.is_finite() && r.time_us > 0.0);
            prop_assert!(r.gflops >= 0.0);
            prop_assert!(r.gflops <= spec.peak_fp32_gflops * 1.0001);
            prop_assert!((0.0..=1.0).contains(&r.sm_occupancy));
            prop_assert!((0.0..=1.0).contains(&r.mem_busy));
            prop_assert!((0.0..=1.0).contains(&r.l2_hit_rate));
            prop_assert!((0.0..=1.0).contains(&r.compute_throughput));
            prop_assert!(r.bank_conflict_degree >= 1.0);
            prop_assert!((0.0..=1.0).contains(&r.dram_efficiency));
        }
    }

    /// The cost context's tile efficiency is the useful share of the
    /// launched work: the space over what whole tiles cover.
    #[test]
    fn tile_efficiency_is_space_over_covered(op in arb_op(), t0 in 1u64..64, t1 in 1u64..64) {
        let sp_ext = op.spatial_extents();
        let mut tile: Vec<u64> = sp_ext.iter().map(|_| t0).collect();
        if tile.len() > 1 { tile[1] = t1; }
        let clamped: Vec<u64> = tile.iter().zip(sp_ext.iter()).map(|(&t, &e)| t.min(e)).collect();
        let covered: u64 = sp_ext
            .iter()
            .zip(&clamped)
            .map(|(&e, &t)| e.div_ceil(t) * t)
            .product();
        let space: u64 = sp_ext.iter().product();
        let eff = OpShape::new(&op).tile_efficiency(&clamped);
        prop_assert!((eff - space as f64 / covered as f64).abs() < 1e-9);
    }

    /// Codegen emits balanced, schedule-consistent CUDA for any reachable
    /// feasible state.
    #[test]
    fn codegen_emits_wellformed_cuda(
        op in arb_op(),
        choices in proptest::collection::vec(any::<u8>(), 0..30),
    ) {
        let spec = GpuSpec::rtx4090();
        let e = walk(&op, &spec, &choices);
        let src = codegen::emit_cuda(&e);
        let opens = src.matches('{').count();
        let closes = src.matches('}').count();
        prop_assert_eq!(opens, closes);
        prop_assert!(src.contains("__global__"));
        // Launch geometry must match the analytical thread accounting.
        let nest = etir::LoopNest::from_etir(&e);
        let lc = codegen::LaunchConfig::from_nest(&nest, 0);
        prop_assert_eq!(lc.threads_per_block(), e.threads_per_block());
        prop_assert_eq!(lc.total_blocks(), nest.total_blocks());
    }
}
