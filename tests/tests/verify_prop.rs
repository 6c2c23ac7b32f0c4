//! Static-verification properties: every schedule the tuner constructs is
//! provably legal on its target device, every state reachable through the
//! construction primitives verifies clean, and damaged schedules — or
//! damaged lowerings of sound ones — never slip past the verifier.

use etir::loops::{Item, Loop, Nest};
use etir::{Action, Etir, LoopNest};
use gensor::{Gensor, GensorConfig};
use hardware::GpuSpec;
use proptest::prelude::*;
use simgpu::Tuner;
use tensor_expr::{benchmark_suite, OpSpec};
use verify::bounds::cover;
use verify::{verify_schedule, Code};

/// Tuner winners across the paper's 32-operator suite × the GPU presets
/// verify with zero `GS0xx` errors (warnings allowed — `gensor lint
/// --deny-warnings` in CI owns the stricter policy), and the nest each
/// lowers to passes the `&Nest` cover check on its own.
#[test]
fn tuner_output_verifies_clean_across_suite_and_presets() {
    let presets = GpuSpec::all_presets();
    let tuner = Gensor::with_config(GensorConfig {
        chains: 2,
        ..Default::default()
    });
    for (i, cfg) in benchmark_suite().into_iter().enumerate() {
        // Round-robin the presets: every (operator, device) class pairing
        // is covered without compiling 32 × presets schedules.
        let spec = &presets[i % presets.len()];
        let ck = tuner.compile(&cfg.op, spec);
        let report = verify_schedule(&ck.etir, Some(spec));
        assert!(
            report.is_legal(),
            "{} on {} failed verification:\n{}",
            cfg.label,
            spec.name,
            report.render()
        );
        let nest = LoopNest::from_etir(&ck.etir).to_nest();
        assert_eq!(cover(&nest), vec![], "{} on {}", cfg.label, spec.name);
    }
}

/// Targeted corruption of a legal schedule is always caught — the
/// verifier is the backstop between a damaged cache record and a launched
/// kernel.
#[test]
fn corrupted_schedules_are_rejected() {
    let spec = GpuSpec::rtx4090();
    let ck = Gensor::single_chain(11).compile(&OpSpec::gemm(1024, 512, 512), &spec);
    let base = ck.etir;
    assert!(verify_schedule(&base, Some(&spec)).is_legal());
    type Mutation = (&'static str, Box<dyn Fn(&mut Etir)>);
    let mutations: Vec<Mutation> = vec![
        ("zero vthread", Box::new(|e: &mut Etir| e.vthreads[0] = 0)),
        ("zero reg tile", Box::new(|e: &mut Etir| e.reg_tile[0] = 0)),
        (
            "truncated tile vector",
            Box::new(|e: &mut Etir| e.smem_tile = e.smem_tile[1..].to_vec().into()),
        ),
        (
            "non-power-of-two unroll",
            Box::new(|e: &mut Etir| e.unroll = 3),
        ),
        ("level overrun", Box::new(|e: &mut Etir| e.cur_level = 99)),
        (
            "absurd reduce tile",
            Box::new(|e: &mut Etir| e.reduce_tile[0] = 1 << 40),
        ),
        (
            "register blowup",
            Box::new(|e: &mut Etir| e.reg_tile[0] = 255),
        ),
    ];
    for (what, mutate) in mutations {
        let mut m = base.clone();
        mutate(&mut m);
        let report = verify_schedule(&m, Some(&spec));
        assert!(!report.is_legal(), "{what} escaped: {}", report.summary());
    }
}

/// The mutants `interp::exec::mutation_tests` kills by running them, on its
/// GEMM and conv schedules (several reduction steps; register tile and
/// vthreads > 1 along `dim`), are typed errors from the `&Nest` check alone.
#[test]
fn mutated_nests_are_static_errors() {
    fn loop_mut<'a>(nest: &'a mut Nest, dim: &str, level: &str) -> &'a mut Loop {
        let name = format!("{dim}.{level}");
        let named = nest.items.iter_mut().find_map(|i| match i {
            Item::Loop(l) if l.name == name => Some(l),
            _ => None,
        });
        named.unwrap_or_else(|| panic!("no loop {name}"))
    }
    let spec = GpuSpec::rtx4090();
    let mut gemm = Etir::initial(OpSpec::gemm(32, 16, 24), &spec);
    (gemm.smem_tile, gemm.reg_tile) = ([8, 8].into(), [2, 2].into());
    (gemm.vthreads, gemm.reduce_tile) = ([2, 1].into(), [4].into());
    let mut conv = Etir::initial(OpSpec::conv2d(2, 4, 9, 9, 8, 3, 3, 1, 1), &spec);
    (conv.smem_tile, conv.reg_tile) = ([2, 4, 4, 4].into(), [1, 2, 1, 1].into());
    (conv.vthreads, conv.reduce_tile) = ([1, 2, 1, 1].into(), [2, 2, 1].into());
    let [grid, vt, thread, reg] = [
        "outer",
        "inner.outer",
        "inner.inner.outer",
        "inner.inner.inner",
    ];
    for (e, dim) in [(gemm, "m"), (conv, "oc")] {
        let codes = |mutate: &dyn Fn(&mut Nest)| -> Vec<Code> {
            let mut nest = LoopNest::from_etir(&e).to_nest();
            mutate(&mut nest);
            cover(&nest).iter().map(|d| d.code).collect()
        };
        assert_eq!(codes(&|_| {}), [], "{}", e.describe());
        // A halved grid stops short of the extent; halved threads leave
        // holes under the coarser strides.
        for halved in [grid, thread] {
            let got = codes(&|n| loop_mut(n, dim, halved).extent /= 2);
            let gaps = |c: &Code| matches!(c, Code::WriteGap | Code::CoverageGap);
            assert!(!got.is_empty() && got.iter().all(gaps), "{halved}: {got:?}");
        }
        let tied = codes(&|n| loop_mut(n, dim, vt).stride = loop_mut(n, dim, reg).stride);
        assert!(tied.contains(&Code::WriteOverlap), "{tied:?}");
        let doubled = codes(&|n| loop_mut(n, dim, vt).stride *= 2);
        assert!(doubled.contains(&Code::WriteGap), "{doubled:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// Any capacity-feasible state reachable through the construction
    /// primitives verifies with zero errors: the walk cannot step into an
    /// illegal region, so a verification failure always means corruption,
    /// never construction.
    #[test]
    fn reachable_states_verify_clean(
        (m, k, n) in (16u64..2048, 4u64..512, 16u64..2048),
        choices in proptest::collection::vec(any::<u8>(), 0..30),
    ) {
        let spec = GpuSpec::rtx4090();
        let op = OpSpec::gemm(m, k, n);
        let mut e = Etir::initial(op, &spec);
        for &c in &choices {
            let acts = Action::enumerate(&e);
            if acts.is_empty() {
                break;
            }
            let next = e.apply(&acts[c as usize % acts.len()]);
            if etir::analytics::MemCheck::check_capacity(&next, &spec).fits() {
                e = next;
            }
        }
        let report = verify_schedule(&e, Some(&spec));
        prop_assert!(
            report.is_legal(),
            "reachable state failed:\n{}",
            report.render()
        );
    }

    /// The verifier is a total function: arbitrary garbage states produce
    /// a report (possibly full of errors), never a panic.
    #[test]
    fn verifier_never_panics_on_garbage(
        smem in proptest::collection::vec(0u64..100_000, 0..5),
        reg in proptest::collection::vec(0u64..300, 0..5),
        vt in proptest::collection::vec(0u64..64, 0..5),
        red in proptest::collection::vec(0u64..1 << 20, 0..3),
        unroll in 0u64..70,
        level in 0usize..12,
    ) {
        let spec = GpuSpec::rtx4090();
        let mut e = Etir::initial(OpSpec::gemm(512, 256, 512), &spec);
        e.smem_tile = smem.into();
        e.reg_tile = reg.into();
        e.vthreads = vt.into();
        e.reduce_tile = red.into();
        e.unroll = unroll;
        e.cur_level = level;
        let _ = verify_schedule(&e, Some(&spec));
        let _ = verify_schedule(&e, None);
    }
}

/// The five operator classes at extents small enough for tiles to overshoot.
fn small_op() -> impl Strategy<Value = OpSpec> {
    prop_oneof![
        (1u64..200, 1u64..100, 1u64..200).prop_map(|(m, k, n)| OpSpec::gemm(m, k, n)),
        (1u64..300, 1u64..300).prop_map(|(m, n)| OpSpec::gemv(m, n)),
        (1u64..5, 1u64..9, 5u64..20, 1u64..20, 1u64..3)
            .prop_map(|(n, c, hw, oc, s)| OpSpec::conv2d(n, c, hw, hw, oc, 3, 3, s, 1)),
        (1u64..5, 1u64..20, 4u64..30, 2u64..4)
            .prop_map(|(n, c, hw, f)| OpSpec::avg_pool2d(n, c, hw, hw, f, f)),
        (1u64..5000).prop_map(|n| OpSpec::elementwise(n, 2, 1)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16384, max_global_rejects: 1 << 20 })]

    /// What the checks after the structural gate decide, stated without
    /// them: a gate-clean state is illegal exactly when a raw block tile
    /// exceeds `next_pow2(extent)`, and then each such dim carries one
    /// GS011 and one GS013 and nothing else is an error.
    #[test]
    fn past_the_gate_only_an_overshot_tile_is_illegal(
        op in small_op(),
        spatial in proptest::collection::vec((1u64..5, 1u64..4, 1u64..17), 4),
        reduce in proptest::collection::vec(1u64..65, 3),
    ) {
        let mut e = Etir::initial(op, &GpuSpec::rtx4090());
        let (rank, reduce_rank) = (e.smem_tile.len(), e.reduce_tile.len());
        e.reg_tile = spatial[..rank].iter().map(|t| t.0).collect();
        e.vthreads = spatial[..rank].iter().map(|t| t.1).collect();
        e.smem_tile = spatial[..rank].iter().map(|t| t.0 * t.1 * t.2).collect();
        e.reduce_tile = reduce[..reduce_rank].to_vec().into();
        let mut gate = Vec::new();
        verify::invariants::structural(&e, &mut gate);
        prop_assume!(gate.is_empty());
        let overshot = e
            .smem_tile
            .iter()
            .zip(e.op.spatial_extents().iter())
            .filter(|(&t, ext)| t > ext.next_power_of_two())
            .count();
        let report = verify_schedule(&e, None);
        let count = |c| report.diagnostics.iter().filter(|d| d.code == c).count();
        prop_assert_eq!(
            (count(Code::OutOfBounds), count(Code::WriteOverlap), report.error_count()),
            (overshot, overshot, 2 * overshot)
        );
    }
}
