//! The scheduled executor: a generic walker over the lowered
//! [`etir::loops::Nest`] — the same object `codegen` prints.
//!
//! Each `Item` kind has one meaning here and one printed form there:
//! a `Loop` runs serially whatever its binding; a `CacheRead` opens a
//! *window* on its operand — the box of `shape` elements at the access's
//! origin with every served loop at 0, i.e. what a buffer of that shape
//! filled at that point holds — and while it is live `Compute` may read
//! the operand only inside it; `CacheWrite` zeroes one accumulator per
//! iteration of the nested output-axis loops, runs the rest of the nest,
//! then runs those loops again to store every in-range accumulator and
//! count the write; `Compute` skips points past an axis's true extent,
//! reads each input (zero where its access predicate fails) and folds
//! `combine` into the accumulator. A read outside a window, or of an
//! operand with none, and an output element not written exactly once are
//! typed [`ExecError`]s.

use crate::semantics::{combine, finalize, input_coords};
use crate::tensor::Tensor;
use crate::ExecError;
use etir::loops::{Item, Level, Nest};
use etir::{Etir, LoopNest};
use tensor_expr::OpSpec;

/// Execute the scheduled program `e` on `inputs`: lower it through
/// [`LoopNest::to_nest`] and walk the result.
///
/// Panics where [`execute_nest`] panics or returns an error.
pub fn execute_scheduled(e: &Etir, inputs: &[Tensor]) -> Tensor {
    execute_nest(&e.op, &LoopNest::from_etir(e).to_nest(), inputs)
        .unwrap_or_else(|err| panic!("{err}"))
}

/// Walk `nest` on `inputs`; `op` supplies only the arithmetic.
///
/// Panics if the number or shapes of `inputs` do not match the nest's
/// operands (this is an executor for tests and examples, not a user-facing
/// API boundary).
pub fn execute_nest(op: &OpSpec, nest: &Nest, inputs: &[Tensor]) -> Result<Tensor, ExecError> {
    let (output, operands) = nest.operands.split_last().expect("nest has operands");
    assert_eq!(inputs.len(), operands.len(), "wrong input count");
    for (t, a) in inputs.iter().zip(operands) {
        assert_eq!(t.shape, a.shape(), "input shape mismatch");
    }
    let (acc_stride, acc_len) = nest.acc_strides();
    let mut stages = vec![Vec::new(); inputs.len()];
    for (j, item) in nest.items.iter().enumerate() {
        if let Item::CacheRead(s) = item {
            stages[s.operand].push((j, s.shape.as_slice()));
        }
    }
    let out = Tensor::zeros(output.shape());
    let mut w = Walker {
        op,
        nest,
        inputs,
        point: vec![0; nest.extents.len()],
        block: vec![0; nest.extents.len()],
        stages,
        origins: vec![Vec::new(); nest.items.len()],
        index: Vec::new(),
        acc: vec![0.0; acc_len as usize],
        acc_stride,
        acc_idx: 0,
        vals: vec![0.0; inputs.len()],
        writes: vec![0; out.data.len()],
        out,
    };
    w.walk(0, false)?;
    match w.writes.iter().position(|&n| n != 1) {
        None => Ok(w.out),
        Some(index) => Err(ExecError::Coverage {
            index,
            writes: w.writes[index],
        }),
    }
}

struct Walker<'a> {
    op: &'a OpSpec,
    nest: &'a Nest,
    inputs: &'a [Tensor],
    /// Current value of every axis variable.
    point: Vec<u64>,
    /// The same without the `Thread`/`VThread` loops' contributions: what a
    /// shared-memory stage is anchored to.
    block: Vec<u64>,
    /// Per input: item position and box shape of each of its stages.
    stages: Vec<Vec<(usize, &'a [u64])>>,
    /// Per item: window origin of a live `CacheRead`, empty otherwise.
    origins: Vec<Vec<i64>>,
    /// Scratch: the coordinates the current operand read touches.
    index: Vec<i64>,
    acc: Vec<f32>,
    /// Per item, see [`Nest::acc_strides`]; `acc_idx` is the current cell.
    acc_stride: Vec<u64>,
    acc_idx: u64,
    vals: Vec<f32>,
    out: Tensor,
    /// Writes per output element.
    writes: Vec<u32>,
}

impl Walker<'_> {
    /// Run `items[i..]` — each item's body is the rest of the list. With
    /// `store` set this is the write-back pass: only the accumulator's own
    /// loops run, around a store in place of the compute.
    fn walk(&mut self, i: usize, store: bool) -> Result<(), ExecError> {
        let nest = self.nest;
        match &nest.items[i] {
            Item::Loop(l) if l.extent == 1 || (store && self.acc_stride[i] == 0) => {
                self.walk(i + 1, store)
            }
            Item::Loop(l) => {
                let block_step = if l.within_block() { 0 } else { l.stride };
                let entry = (self.point[l.axis], self.block[l.axis], self.acc_idx);
                for _ in 0..l.extent {
                    if self.point[l.axis] >= nest.extents[l.axis] {
                        break; // every deeper point is masked
                    }
                    self.walk(i + 1, store)?;
                    self.point[l.axis] += l.stride;
                    self.block[l.axis] += block_step;
                    self.acc_idx += self.acc_stride[i];
                }
                (self.point[l.axis], self.block[l.axis], self.acc_idx) = entry;
                Ok(())
            }
            Item::CacheRead(_) if store => self.walk(i + 1, store),
            Item::CacheRead(stage) => {
                let base = match stage.level {
                    Level::Smem => &self.block,
                    Level::Reg => &self.point,
                };
                let dims = &nest.operands[stage.operand].dims;
                self.origins[i].extend(dims.iter().map(|d| d.at(base)));
                let body = self.walk(i + 1, store);
                self.origins[i].clear();
                body
            }
            Item::CacheWrite => {
                self.acc.fill(0.0);
                self.walk(i + 1, false)?;
                self.walk(i + 1, true)
            }
            Item::Compute if !self.point.iter().zip(&nest.extents).all(|(p, e)| p < e) => Ok(()),
            Item::Compute if store => {
                let output = nest.operands.last().expect("checked in execute_nest");
                if let Some(at) = input_coords(output, &self.point) {
                    self.out.data[at] = finalize(self.op, self.acc[self.acc_idx as usize]);
                    self.writes[at] += 1;
                }
                Ok(())
            }
            Item::Compute => self.compute(),
        }
    }

    fn compute(&mut self) -> Result<(), ExecError> {
        for (o, access) in self.nest.operands[..self.inputs.len()].iter().enumerate() {
            self.index.clear();
            let point = &self.point;
            self.index.extend(access.dims.iter().map(|d| d.at(point)));
            // Inside every live window of this operand, and at least one.
            let mut staged = false;
            for &(j, shape) in &self.stages[o] {
                if self.origins[j].is_empty() {
                    continue;
                }
                let mut dims = self.index.iter().zip(&self.origins[j]).zip(shape);
                staged = dims.all(|((&at, &from), &len)| (from..from + len as i64).contains(&at));
                if !staged {
                    break;
                }
            }
            if !staged {
                return Err(ExecError::UnstagedRead {
                    operand: access.name.clone(),
                    coords: self.index.clone(),
                });
            }
            self.vals[o] = input_coords(access, point).map_or(0.0, |at| self.inputs[o].data[at]);
        }
        self.acc[self.acc_idx as usize] += combine(self.op, &self.vals);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check_schedule;
    use etir::Action;
    use hardware::GpuSpec;
    use tensor_expr::OpSpec;

    fn apply_seq(mut e: Etir, actions: &[Action]) -> Etir {
        for a in actions {
            if e.can_apply(a) {
                e = e.apply(a);
            }
        }
        e
    }

    #[test]
    fn unscheduled_gemm_matches_reference() {
        let spec = GpuSpec::rtx4090();
        let e = Etir::initial(OpSpec::gemm(9, 7, 11), &spec);
        check_schedule(&e);
    }

    #[test]
    fn tiled_gemm_matches_reference() {
        let spec = GpuSpec::rtx4090();
        let e = Etir::initial(OpSpec::gemm(32, 16, 24), &spec);
        let e = apply_seq(
            e,
            &[
                Action::Tile { dim: 0 },
                Action::Tile { dim: 0 },
                Action::Tile { dim: 0 }, // smem m = 8
                Action::Tile { dim: 1 },
                Action::Tile { dim: 1 }, // smem n = 4
                Action::TileReduce { dim: 0 },
                Action::TileReduce { dim: 0 }, // k tile 4
                Action::Cache,
                Action::Tile { dim: 0 }, // reg m = 2
                Action::SetVthread { dim: 0 },
                Action::SetVthread { dim: 1 },
            ],
        );
        assert_eq!(*e.vthreads, [2, 2]);
        check_schedule(&e);
    }

    #[test]
    fn ragged_gemm_tiles_are_masked() {
        // 13x10x9 with 8-wide tiles: every dim is ragged.
        let spec = GpuSpec::rtx4090();
        let e = Etir::initial(OpSpec::gemm(13, 10, 9), &spec);
        let e = apply_seq(
            e,
            &[
                Action::Tile { dim: 0 },
                Action::Tile { dim: 0 },
                Action::Tile { dim: 0 },
                Action::Tile { dim: 1 },
                Action::Tile { dim: 1 },
                Action::TileReduce { dim: 0 },
                Action::TileReduce { dim: 0 },
                Action::Cache,
                Action::Tile { dim: 1 },
            ],
        );
        check_schedule(&e);
    }

    #[test]
    fn conv_with_padding_and_stride_matches() {
        let spec = GpuSpec::rtx4090();
        let op = OpSpec::conv2d(2, 3, 9, 9, 4, 3, 3, 2, 1);
        let e = Etir::initial(op, &spec);
        let e = apply_seq(
            e,
            &[
                Action::Tile { dim: 1 },
                Action::Tile { dim: 1 }, // oc tile 4
                Action::Tile { dim: 2 },
                Action::Tile { dim: 3 }, // 2x2 output window
                Action::TileReduce { dim: 0 },
                Action::TileReduce { dim: 1 },
                Action::Cache,
                Action::Tile { dim: 2 },
                Action::SetVthread { dim: 1 },
            ],
        );
        check_schedule(&e);
    }

    #[test]
    fn pool_matches() {
        let spec = GpuSpec::rtx4090();
        let op = OpSpec::avg_pool2d(2, 5, 12, 12, 3, 2);
        let e = Etir::initial(op, &spec);
        let e = apply_seq(
            e,
            &[
                Action::Tile { dim: 1 },
                Action::Tile { dim: 2 },
                Action::Tile { dim: 2 },
                Action::Tile { dim: 3 },
                Action::TileReduce { dim: 0 },
                Action::Cache,
                Action::Tile { dim: 2 },
            ],
        );
        check_schedule(&e);
    }

    #[test]
    fn gemv_matches() {
        let spec = GpuSpec::rtx4090();
        let e = Etir::initial(OpSpec::gemv(33, 17), &spec);
        let e = apply_seq(
            e,
            &[
                Action::Tile { dim: 0 },
                Action::Tile { dim: 0 },
                Action::Tile { dim: 0 }, // m tile 8
                Action::TileReduce { dim: 0 },
                Action::TileReduce { dim: 0 },
                Action::Cache,
                Action::Tile { dim: 0 },
                Action::SetVthread { dim: 0 },
            ],
        );
        check_schedule(&e);
    }

    #[test]
    fn elementwise_matches() {
        let spec = GpuSpec::rtx4090();
        let e = Etir::initial(OpSpec::elementwise(100, 2, 1), &spec);
        let e = apply_seq(
            e,
            &[
                Action::Tile { dim: 0 },
                Action::Tile { dim: 0 },
                Action::Tile { dim: 0 },
                Action::Tile { dim: 0 }, // tile 16 over 100 → ragged
                Action::Cache,
                Action::Tile { dim: 0 },
            ],
        );
        check_schedule(&e);
    }

    #[test]
    fn every_walk_prefix_of_a_random_schedule_is_correct() {
        // Walk a fixed action sequence on a small GEMM, checking semantics
        // after every transition — the property Gensor's graph traversal
        // relies on.
        let spec = GpuSpec::rtx4090();
        let mut e = Etir::initial(OpSpec::gemm(24, 12, 20), &spec);
        let seq = [
            Action::Tile { dim: 0 },
            Action::TileReduce { dim: 0 },
            Action::Tile { dim: 1 },
            Action::Tile { dim: 0 },
            Action::Unroll,
            Action::Tile { dim: 1 },
            Action::InvTile { dim: 1 },
            Action::Cache,
            Action::Tile { dim: 0 },
            Action::SetVthread { dim: 1 },
            Action::Tile { dim: 1 },
            Action::Cache,
        ];
        check_schedule(&e);
        for a in seq {
            if e.can_apply(&a) {
                e = e.apply(&a);
                check_schedule(&e);
            }
        }
    }
}

/// The four cases of the retired GEMM-only staged executor, now run
/// through the generic walker: every operand read goes through the
/// shared-memory windows the nest declares.
#[cfg(test)]
mod staged_tests {
    use super::*;
    use crate::reference::execute_reference;
    use crate::tensor::make_inputs;
    use etir::loops::Stage;
    use etir::Action;
    use hardware::GpuSpec;

    fn check_staged(e: &Etir) {
        let nest = LoopNest::from_etir(e).to_nest();
        // A and B are each staged in shared memory, one reduction step of
        // the block tile at a time.
        let smem: Vec<&Stage> = nest
            .items
            .iter()
            .filter_map(|i| match i {
                Item::CacheRead(s) if s.level == Level::Smem => Some(s),
                _ => None,
            })
            .collect();
        let ln = LoopNest::from_etir(e);
        let sp = e.op.spatial_extents();
        let (tm, tn) = (ln.smem_tile[0].min(sp[0]), ln.smem_tile[1].min(sp[1]));
        let tk = ln.reduce_tile[0].min(e.op.reduce_extents()[0]);
        assert_eq!(smem.len(), 2);
        assert_eq!((smem[0].operand, &smem[0].shape), (0, &vec![tm, tk]));
        assert_eq!((smem[1].operand, &smem[1].shape), (1, &vec![tk, tn]));
        let inputs = make_inputs(&e.op, 13);
        let want = execute_reference(&e.op, &inputs);
        let got = execute_nest(&e.op, &nest, &inputs).unwrap_or_else(|err| panic!("{err}"));
        if let Some(i) = crate::mismatch(&want, &got, 1e-4) {
            panic!(
                "staged GEMM wrong at {i}: want {} got {} ({})",
                want.data[i],
                got.data[i],
                e.describe()
            );
        }
    }

    fn apply_seq(mut e: Etir, actions: &[Action]) -> Etir {
        for a in actions {
            if e.can_apply(a) {
                e = e.apply(a);
            }
        }
        e
    }

    #[test]
    fn staged_matches_reference_on_even_tiles() {
        let spec = GpuSpec::rtx4090();
        let e = apply_seq(
            Etir::initial(OpSpec::gemm(32, 16, 24), &spec),
            &[
                Action::Tile { dim: 0 },
                Action::Tile { dim: 0 },
                Action::Tile { dim: 0 }, // tm 8
                Action::Tile { dim: 1 },
                Action::Tile { dim: 1 },
                Action::Tile { dim: 1 }, // tn 8
                Action::TileReduce { dim: 0 },
                Action::TileReduce { dim: 0 }, // tk 4
                Action::Cache,
                Action::Tile { dim: 0 }, // rm 2
                Action::Tile { dim: 1 }, // rn 2
            ],
        );
        check_staged(&e);
    }

    #[test]
    fn staged_masks_ragged_edges() {
        let spec = GpuSpec::rtx4090();
        let e = apply_seq(
            Etir::initial(OpSpec::gemm(13, 10, 9), &spec),
            &[
                Action::Tile { dim: 0 },
                Action::Tile { dim: 0 },
                Action::Tile { dim: 0 }, // tm 8 over 13
                Action::Tile { dim: 1 },
                Action::Tile { dim: 1 }, // tn 4 over 9
                Action::TileReduce { dim: 0 },
                Action::TileReduce { dim: 0 }, // tk 4 over 10
                Action::Cache,
                Action::Tile { dim: 1 }, // rn 2
            ],
        );
        check_staged(&e);
    }

    #[test]
    fn staged_handles_vthreads() {
        let spec = GpuSpec::rtx4090();
        let e = apply_seq(
            Etir::initial(OpSpec::gemm(24, 8, 40), &spec),
            &[
                Action::Tile { dim: 0 },
                Action::Tile { dim: 0 },
                Action::Tile { dim: 0 }, // tm 8
                Action::Tile { dim: 1 },
                Action::Tile { dim: 1 },
                Action::Tile { dim: 1 }, // tn 8
                Action::TileReduce { dim: 0 },
                Action::Cache,
                Action::Tile { dim: 0 }, // rm 2
                Action::SetVthread { dim: 0 },
                Action::SetVthread { dim: 1 },
                Action::SetVthread { dim: 1 },
            ],
        );
        assert!(e.total_vthreads() >= 4, "{}", e.describe());
        check_staged(&e);
    }

    #[test]
    fn staged_matches_gensor_chosen_schedule() {
        // The full loop: Gensor compiles a small GEMM, we execute its
        // chosen schedule through the staged path.
        let spec = GpuSpec::rtx4090();
        let op = OpSpec::gemm(48, 24, 40);
        let ck = simgpu::Tuner::compile(&gensor::Gensor::default(), &op, &spec);
        check_staged(&ck.etir);
    }
}

/// The oracle has teeth: each structural mutation of a correct lowered
/// nest is a typed error from the walker, never a wrong tensor.
#[cfg(test)]
mod mutation_tests {
    use super::*;
    use crate::tensor::make_inputs;
    use etir::loops::Loop;
    use etir::Action;
    use hardware::GpuSpec;

    /// A GEMM and a conv, each with several reduction steps, a register
    /// tile > 1 and vthreads > 1 on the first tiled dimension.
    fn subjects() -> Vec<(Etir, &'static str)> {
        let spec = GpuSpec::rtx4090();
        let tile = |dim, n| vec![Action::Tile { dim }; n];
        let gemm = [
            tile(0, 3),
            tile(1, 3),
            vec![Action::TileReduce { dim: 0 }; 2],
            vec![Action::Cache],
            tile(0, 1),
            tile(1, 1),
            vec![Action::SetVthread { dim: 0 }],
        ]
        .concat();
        let conv = [
            tile(0, 1),
            tile(1, 2),
            tile(2, 2),
            tile(3, 2),
            vec![Action::TileReduce { dim: 0 }, Action::TileReduce { dim: 1 }],
            vec![Action::Cache],
            tile(1, 1),
            vec![Action::SetVthread { dim: 1 }],
        ]
        .concat();
        let build = |op: OpSpec, actions: &[Action]| {
            actions
                .iter()
                .fold(Etir::initial(op, &spec), |e, a| e.apply(a))
        };
        vec![
            (build(OpSpec::gemm(32, 16, 24), &gemm), "m"),
            (
                build(OpSpec::conv2d(2, 4, 9, 9, 8, 3, 3, 1, 1), &conv),
                "oc",
            ),
        ]
    }

    fn run(e: &Etir, mutate: impl FnOnce(&mut Nest)) -> Result<Tensor, ExecError> {
        let mut nest = LoopNest::from_etir(e).to_nest();
        mutate(&mut nest);
        execute_nest(&e.op, &nest, &make_inputs(&e.op, 5))
    }

    fn loop_mut<'a>(nest: &'a mut Nest, name: &str) -> &'a mut Loop {
        let named = nest.items.iter_mut().find_map(|i| match i {
            Item::Loop(l) if l.name == name => Some(l),
            _ => None,
        });
        named.unwrap_or_else(|| panic!("no loop {name}"))
    }

    #[test]
    fn unmutated_subjects_run_clean() {
        for (e, _) in subjects() {
            run(&e, |_| {}).unwrap_or_else(|err| panic!("{}: {err}", e.describe()));
            crate::check_schedule(&e);
        }
    }

    #[test]
    fn a_stage_one_element_short_is_an_unstaged_read() {
        for (e, _) in subjects() {
            for victim in 0..2 {
                let got = run(&e, |nest| {
                    let mut stages = nest.items.iter_mut().filter_map(|i| match i {
                        Item::CacheRead(s) if s.level == Level::Smem => Some(s),
                        _ => None,
                    });
                    let shape = &mut stages.nth(victim).unwrap().shape;
                    *shape.iter_mut().rev().find(|n| **n > 1).unwrap() -= 1;
                });
                let want = &LoopNest::from_etir(&e).to_nest().operands[victim].name;
                assert!(
                    matches!(&got, Err(ExecError::UnstagedRead { operand, .. }) if operand == want),
                    "{got:?}"
                );
            }
        }
    }

    #[test]
    fn a_dropped_stage_is_an_unstaged_read() {
        for (e, _) in subjects() {
            let got = run(&e, |nest| {
                nest.items
                    .retain(|i| !matches!(i, Item::CacheRead(s) if s.operand == 1));
            });
            assert!(
                matches!(got, Err(ExecError::UnstagedRead { .. })),
                "{got:?}"
            );
        }
    }

    #[test]
    fn a_halved_grid_or_thread_extent_leaves_output_unwritten() {
        for (e, dim) in subjects() {
            for level in ["outer", "inner.inner.outer"] {
                let got = run(&e, |nest| {
                    loop_mut(nest, &format!("{dim}.{level}")).extent /= 2
                });
                assert!(
                    matches!(got, Err(ExecError::Coverage { writes: 0, .. })),
                    "{dim}.{level}: {got:?}"
                );
            }
        }
    }

    #[test]
    fn two_loops_of_one_axis_with_one_stride_write_an_element_twice() {
        for (e, dim) in subjects() {
            let got = run(&e, |nest| {
                let reg = loop_mut(nest, &format!("{dim}.inner.inner.inner")).stride;
                loop_mut(nest, &format!("{dim}.inner.outer")).stride = reg;
            });
            assert!(
                matches!(got, Err(ExecError::Coverage { writes: 2, .. })),
                "{got:?}"
            );
        }
    }

    #[test]
    fn a_write_back_inside_the_reduction_writes_every_step() {
        for (e, _) in subjects() {
            let steps = LoopNest::from_etir(&e).reduce_steps.clone();
            assert!(steps[0] > 1);
            let got = run(&e, |nest| {
                let at = |nest: &Nest, want: &dyn Fn(&Item) -> bool| {
                    nest.items.iter().position(want).unwrap()
                };
                let marker = at(nest, &|i| *i == Item::CacheWrite);
                nest.items.remove(marker);
                let first_step = at(
                    nest,
                    &|i| matches!(i, Item::Loop(l) if l.name.ends_with(".outer") && l.axis >= e.spatial_rank()),
                );
                nest.items.insert(first_step + 1, Item::CacheWrite);
            });
            let writes = steps[0] as u32;
            assert!(
                matches!(got, Err(ExecError::Coverage { writes: w, .. }) if w == writes),
                "{got:?}"
            );
        }
    }
}
