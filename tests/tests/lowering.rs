//! One lowering: the `Nest` the interpreter runs is the `Nest` codegen
//! prints. For schedules of every operator class that tile the batch,
//! register-tile a non-innermost dimension and use virtual threads, the
//! walker must equal the naive reference and the printed kernel must have
//! the structure of that same nest; the text half of the check then runs
//! over the 32 Table IV rows as the default `Gensor` schedules them.

use etir::analytics::ScheduleStats;
use etir::loops::{Binding, Item};
use etir::{Action, Etir, LoopNest};
use hardware::GpuSpec;
use simgpu::Tuner;
use tensor_expr::OpSpec;

/// Floats declared `__shared__` in `src`.
fn shared_floats(src: &str) -> u64 {
    src.lines()
        .filter_map(|l| l.trim().strip_prefix("__shared__ float "))
        .map(|decl| {
            let (open, close) = (decl.find('[').unwrap(), decl.find(']').unwrap());
            decl[open + 1..close].parse::<u64>().unwrap()
        })
        .sum()
}

/// The printed kernel has the structure of the lowered nest and stages
/// exactly what the cost model charges.
fn check_text(e: &Etir) {
    let src = codegen::emit_cuda(e);
    let what = format!("{} {}\n{src}", e.op.label(), e.describe());
    assert_eq!(codegen::kernels::brace_balance(&src), 0, "{what}");
    let nest = LoopNest::from_etir(e).to_nest();
    let (acc_stride, _) = nest.acc_strides();
    // Every printed loop line is tagged with the loop's name.
    let tagged = |name: &str| -> Vec<&str> {
        let tag = format!("// {name}");
        let lines = src.lines().map(str::trim);
        lines.filter(|l| l.ends_with(&tag)).collect()
    };
    for (i, item) in nest.items.iter().enumerate() {
        let Item::Loop(l) = item else { continue };
        let lines = tagged(&l.name);
        let hardware = matches!(l.binding, Binding::Grid | Binding::Thread);
        // One `for` per non-unit software loop, a second one where the
        // write-back re-opens an accumulator loop; one index read per
        // non-unit hardware loop; nothing for a unit loop.
        let want = match (l.extent, hardware) {
            (1, _) => 0,
            (_, true) => 1,
            (_, false) => 1 + usize::from(acc_stride[i] > 0),
        };
        assert_eq!(lines.len(), want, "loop {}: {what}", l.name);
        let opener = if hardware { "const int " } else { "for (int " };
        assert!(lines.iter().all(|l| l.starts_with(opener)), "{what}");
    }
    // Every non-unit dimension fused into `.z` is decomposed back: its
    // index reads `.z`, and no two of them read the same expression.
    for (binding, builtin) in [
        (Binding::Grid, "blockIdx.z"),
        (Binding::Thread, "threadIdx.z"),
    ] {
        let bound: Vec<_> = nest
            .loops()
            .into_iter()
            .filter(|l| l.binding == binding)
            .collect();
        let fused = &bound[..bound.len().saturating_sub(2)];
        let mut reads: Vec<&str> = fused
            .iter()
            .filter(|l| l.extent > 1)
            .map(|l| tagged(&l.name)[0].split(" = ").nth(1).unwrap())
            .collect();
        assert!(reads.iter().all(|r| r.starts_with(builtin)), "{what}");
        let fused_dims = reads.len();
        reads.dedup();
        assert_eq!(reads.len(), fused_dims, "{what}");
    }
    let stats = ScheduleStats::compute(e);
    assert_eq!(
        shared_floats(&src) * 4,
        stats.smem_bytes_per_block,
        "{what}"
    );
    let header = format!("smem={}B", stats.smem_bytes_per_block);
    assert!(src.contains(&header), "{what}");
}

/// Interp-sized schedules, one per class, shaped like the suite rows the
/// per-class emitters got wrong: a batch tile > 1 where there is a batch,
/// a register tile > 1 on a non-innermost dimension, vthreads > 1.
fn subjects() -> Vec<Etir> {
    let spec = GpuSpec::rtx4090();
    let tile = |dim, n| vec![Action::Tile { dim }; n];
    let reduce = |dim, n| vec![Action::TileReduce { dim }; n];
    let cache = vec![Action::Cache];
    let vthread = |dim| vec![Action::SetVthread { dim }];
    let table: Vec<(OpSpec, Vec<Vec<Action>>)> = vec![
        (
            OpSpec::gemm(24, 12, 20),
            vec![
                tile(0, 3),
                tile(1, 3),
                reduce(0, 2),
                cache.clone(),
                tile(0, 1),
                vthread(1),
            ],
        ),
        (
            OpSpec::gemv(33, 17),
            vec![
                tile(0, 3),
                reduce(0, 2),
                cache.clone(),
                tile(0, 1),
                vthread(0),
            ],
        ),
        (
            OpSpec::conv2d(4, 3, 9, 9, 4, 3, 3, 2, 1),
            vec![
                tile(0, 1),
                tile(1, 2),
                tile(2, 1),
                tile(3, 2),
                reduce(0, 1),
                reduce(1, 1),
                cache.clone(),
                tile(0, 1),
                tile(1, 1),
                vthread(3),
            ],
        ),
        (
            OpSpec::avg_pool2d(4, 5, 12, 12, 3, 2),
            vec![
                tile(0, 1),
                tile(1, 1),
                tile(2, 2),
                tile(3, 1),
                cache.clone(),
                tile(0, 1),
                vthread(2),
            ],
        ),
        (
            OpSpec::elementwise(100, 2, 1),
            vec![tile(0, 4), cache.clone(), tile(0, 1), vthread(0)],
        ),
    ];
    table
        .into_iter()
        .map(|(op, actions)| {
            let e = actions
                .concat()
                .iter()
                .fold(Etir::initial(op, &spec), |e, a| e.apply(a));
            assert!(
                e.reg_tile[0] > 1 && e.total_vthreads() > 1,
                "{}",
                e.describe()
            );
            if e.spatial_rank() == 4 {
                assert!(e.smem_tile[0] > 1, "batch tile: {}", e.describe());
            }
            e
        })
        .collect()
}

#[test]
fn walker_equals_reference_and_text_follows_the_nest_for_every_class() {
    for e in subjects() {
        interp::check_schedule(&e);
        check_text(&e);
    }
}

#[test]
fn suite_kernels_follow_their_nests_and_stage_what_the_cost_model_charges() {
    let spec = GpuSpec::rtx4090();
    let tuner = gensor::Gensor::default();
    for row in tensor_expr::benchmark_suite() {
        check_text(&tuner.compile(&row.op, &spec).etir);
    }
}
