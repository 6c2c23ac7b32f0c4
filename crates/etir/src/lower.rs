//! Lowering: from the compact [`Etir`] schedule state to an explicit,
//! executable loop structure.
//!
//! [`LoopNest`] is the summary form (resolved extents per level) read by
//! the performance simulator, the capacity check and the launch geometry;
//! the verifier proves that summary and the nest agree. [`LoopNest::to_nest`]
//! is the one place a schedule becomes loops: it *derives* the explicit
//! [`crate::loops::Nest`] by applying the Table I primitives (split /
//! reorder / bind / unroll / cache) exactly as a TVM-style schedule would,
//! and `interp` runs and `codegen` prints that object.

use crate::loops::{Binding, Level, Nest};
use crate::state::Etir;
use serde::{Deserialize, Serialize};
use tensor_expr::OpSpec;

/// Fully-resolved loop extents of a scheduled operator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LoopNest {
    /// The operator.
    pub op: OpSpec,
    /// Padded spatial extents (`grid[i] * smem_tile[i]`, ≥ true extents).
    pub padded_extents: Vec<u64>,
    /// Blocks per spatial dim.
    pub grid: Vec<u64>,
    /// Block (shared-memory) tile per spatial dim.
    pub smem_tile: Vec<u64>,
    /// Virtual threads per spatial dim.
    pub vthreads: Vec<u64>,
    /// Physical threads per spatial dim.
    pub thread_dims: Vec<u64>,
    /// Per-thread register tile per spatial dim.
    pub reg_tile: Vec<u64>,
    /// Staged reduction tile per reduce dim.
    pub reduce_tile: Vec<u64>,
    /// Reduction steps per reduce dim (`ceil(extent / tile)`).
    pub reduce_steps: Vec<u64>,
    /// Unroll factor for the innermost reduction loop.
    pub unroll: u64,
}

impl LoopNest {
    /// Resolve the loop extents of `e`.
    pub fn from_etir(e: &Etir) -> LoopNest {
        let sp_ext = e.op.spatial_extents();
        let rd_ext = e.op.reduce_extents();
        let smem_tile: Vec<u64> = e
            .smem_tile
            .iter()
            .zip(sp_ext.iter())
            .map(|(&t, &ext)| t.min(ext.next_power_of_two()))
            .collect();
        let grid: Vec<u64> = sp_ext
            .iter()
            .zip(&smem_tile)
            .map(|(&ext, &t)| ext.div_ceil(t))
            .collect();
        let padded_extents: Vec<u64> = grid.iter().zip(&smem_tile).map(|(&g, &t)| g * t).collect();
        let thread_dims = e.thread_dims().to_vec();
        let reduce_steps: Vec<u64> = rd_ext
            .iter()
            .zip(&e.reduce_tile)
            .map(|(&ext, &t)| ext.div_ceil(t.min(ext.next_power_of_two())))
            .collect();
        LoopNest {
            op: e.op.clone(),
            padded_extents,
            grid,
            smem_tile,
            vthreads: e.vthreads.to_vec(),
            thread_dims,
            reg_tile: e.reg_tile.to_vec(),
            reduce_tile: e.reduce_tile.to_vec(),
            reduce_steps,
            unroll: e.unroll,
        }
    }

    /// Total blocks launched.
    pub fn total_blocks(&self) -> u64 {
        self.grid.iter().product()
    }

    /// Physical threads per block.
    pub fn threads_per_block(&self) -> u64 {
        self.thread_dims.iter().product()
    }

    /// Express this schedule as an explicit loop nest via the Table I
    /// primitives. The loop order is stated here and nowhere else:
    ///
    /// ```text
    /// grid → thread → [accumulator] → reduce step → SMEM stages →
    /// reduce element (unrolled) → REG stages → vthread → register tile →
    /// compute;  write-back when the accumulator's loops close
    /// ```
    ///
    /// Every input is staged at both levels, one reduction step at a time
    /// (what `ScheduleStats::smem_bytes_per_block` charges); without reduce
    /// axes the stages sit directly inside the thread loops.
    pub fn to_nest(&self) -> Nest {
        let sp_names = self.op.spatial_names();
        let rd_names = self.op.reduce_names();
        // Naive nest over the padded space: spatial axes then reduce axes.
        let reduce_padded = self.reduce_steps.iter().zip(&self.reduce_tile);
        let axes: Vec<(&str, u64)> = sp_names
            .iter()
            .zip(&self.padded_extents)
            .map(|(&n, &e)| (n, e))
            .chain(
                rd_names
                    .iter()
                    .zip(reduce_padded)
                    .map(|(&n, (&s, &t))| (n, s * t)),
            )
            .collect();
        let mut nest = Nest::naive(&axes);
        let (sp_ext, rd_ext) = (self.op.spatial_extents(), self.op.reduce_extents());
        nest.extents = [&sp_ext[..], &rd_ext[..]].concat();
        nest.operands = self.op.accesses();

        // Split every spatial axis: grid / vthread / thread / reg.
        let tiles = self
            .smem_tile
            .iter()
            .zip(&self.vthreads)
            .zip(&self.reg_tile);
        for (n, ((&smem, &vt), &reg)) in sp_names.iter().zip(tiles) {
            nest.split(n, smem).expect("grid split");
            nest.split(&format!("{n}.inner"), smem / vt)
                .expect("vthread split");
            // `{n}.inner.outer` now has extent = vthreads.
            nest.split(&format!("{n}.inner.inner"), reg)
                .expect("thread split");
            for (suffix, binding) in [
                ("outer", Binding::Grid),
                ("inner.outer", Binding::VThread),
                ("inner.inner.outer", Binding::Thread),
            ] {
                nest.bind(&format!("{n}.{suffix}"), binding)
                    .expect("split made this loop");
            }
        }
        // Split every reduce axis into outer step / inner element.
        for (n, &t) in rd_names.iter().zip(&self.reduce_tile) {
            nest.split(n, t).expect("reduce split");
        }

        let level = |names: &[&str], suffix: &str| -> Vec<String> {
            names.iter().map(|n| format!("{n}.{suffix}")).collect()
        };
        let order = [
            level(&sp_names, "outer"),
            level(&sp_names, "inner.inner.outer"),
            level(&rd_names, "outer"),
            level(&rd_names, "inner"),
            level(&sp_names, "inner.outer"),
            level(&sp_names, "inner.inner.inner"),
        ]
        .concat();
        let order_ref: Vec<&str> = order.iter().map(|s| s.as_str()).collect();
        nest.reorder(&order_ref).expect("reorder");

        // Markers go directly inside the last loop of their level; with no
        // reduce axes every level collapses onto the last thread loop. A
        // later marker lands ahead of an earlier one, so insert innermost
        // first: register stages, shared stages, then the accumulator.
        let threads = format!("{}.inner.inner.outer", sp_names.last().expect("rank ≥ 1"));
        let anchor = |suffix: &str| {
            rd_names
                .last()
                .map_or(threads.clone(), |n| format!("{n}.{suffix}"))
        };
        let inputs = nest.operands.len() - 1;
        for (after, level) in [
            (anchor("inner"), Level::Reg),
            (anchor("outer"), Level::Smem),
        ] {
            for operand in (0..inputs).rev() {
                nest.cache_read(&after, operand, level)
                    .expect("anchor loop exists");
            }
        }
        nest.cache_write(&threads).expect("thread loop exists");
        if self.unroll > 1 && !rd_names.is_empty() {
            nest.unroll(&anchor("inner"), self.unroll)
                .expect("reduce element loop");
        }
        nest
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::Action;
    use crate::loops::{Binding, Item, Level};
    use hardware::GpuSpec;

    fn scheduled_gemm() -> Etir {
        let spec = GpuSpec::rtx4090();
        let mut e = Etir::initial(OpSpec::gemm(256, 64, 512), &spec);
        for _ in 0..5 {
            e = e.apply(&Action::Tile { dim: 0 }); // smem m = 32
        }
        for _ in 0..6 {
            e = e.apply(&Action::Tile { dim: 1 }); // smem n = 64
        }
        for _ in 0..3 {
            e = e.apply(&Action::TileReduce { dim: 0 }); // k tile 8
        }
        e = e.apply(&Action::Cache);
        for _ in 0..2 {
            e = e.apply(&Action::Tile { dim: 0 }); // reg m = 4
            e = e.apply(&Action::Tile { dim: 1 }); // reg n = 4
        }
        e = e.apply(&Action::SetVthread { dim: 0 }); // vt m = 2
        e.apply(&Action::Unroll)
    }

    #[test]
    fn gemm_loopnest_extents() {
        let nest = LoopNest::from_etir(&scheduled_gemm());
        assert_eq!(nest.grid, vec![256 / 32, 512 / 64]);
        assert_eq!(nest.smem_tile, vec![32, 64]);
        assert_eq!(nest.vthreads, vec![2, 1]);
        assert_eq!(nest.thread_dims, vec![32 / (4 * 2), 64 / 4]);
        assert_eq!(nest.reduce_steps, vec![64 / 8]);
        assert_eq!(nest.total_blocks(), 64);
        assert_eq!(nest.threads_per_block(), 4 * 16);
    }

    #[test]
    fn ragged_extents_are_padded() {
        let spec = GpuSpec::rtx4090();
        let mut e = Etir::initial(OpSpec::gemm(100, 16, 60), &spec);
        for _ in 0..5 {
            e = e.apply(&Action::Tile { dim: 0 }); // smem 32
        }
        for _ in 0..4 {
            e = e.apply(&Action::Tile { dim: 1 }); // smem 16
        }
        let nest = LoopNest::from_etir(&e);
        assert_eq!(nest.grid, vec![4, 4]);
        assert_eq!(nest.padded_extents, vec![128, 64]);
    }

    #[test]
    fn to_nest_volume_covers_padded_space() {
        let ln = LoopNest::from_etir(&scheduled_gemm());
        let nest = ln.to_nest();
        let spatial_padded: u128 = ln.padded_extents.iter().map(|&x| x as u128).product();
        let reduce_padded: u128 = ln
            .reduce_steps
            .iter()
            .zip(&ln.reduce_tile)
            .map(|(&s, &t)| (s * t) as u128)
            .product();
        assert_eq!(nest.volume(), spatial_padded * reduce_padded);
    }

    #[test]
    fn to_nest_binds_grid_vthread_thread() {
        let nest = LoopNest::from_etir(&scheduled_gemm()).to_nest();
        let loops = nest.loops();
        let bindings: Vec<Binding> = loops.iter().map(|l| l.binding).collect();
        // Grid, then thread, then the reduction (step, unrolled element),
        // then vthread and the register tile.
        assert_eq!(&bindings[0..2], &[Binding::Grid, Binding::Grid]);
        assert_eq!(&bindings[2..4], &[Binding::Thread, Binding::Thread]);
        assert_eq!(&bindings[4..6], &[Binding::Serial, Binding::Unrolled(2)]);
        assert_eq!(&bindings[6..8], &[Binding::VThread, Binding::VThread]);
        assert_eq!(&bindings[8..10], &[Binding::Serial, Binding::Serial]);
        // vthread extents match the schedule.
        assert_eq!(loops[6].extent, 2);
        assert_eq!(loops[7].extent, 1);
        // Per axis the strides nest: m = 32·grid + 16·vthread + 4·thread + reg.
        let m: Vec<(u64, u64)> = loops
            .iter()
            .filter(|l| l.axis == 0)
            .map(|l| (l.extent, l.stride))
            .collect();
        assert_eq!(m, vec![(8, 32), (4, 4), (2, 16), (4, 1)]);
    }

    #[test]
    fn to_nest_opens_the_accumulator_outside_the_reduction() {
        let nest = LoopNest::from_etir(&scheduled_gemm()).to_nest();
        let pos = |want: &dyn Fn(&Item) -> bool| nest.items.iter().position(want).unwrap();
        let acc = pos(&|i| *i == Item::CacheWrite);
        let last_thread = pos(&|i| matches!(i, Item::Loop(l) if l.name == "n.inner.inner.outer"));
        let first_step = pos(&|i| matches!(i, Item::Loop(l) if l.name == "k.outer"));
        assert!(last_thread < acc && acc < first_step);
    }

    #[test]
    fn to_nest_stages_operands_both_levels() {
        let nest = LoopNest::from_etir(&scheduled_gemm()).to_nest();
        let smem_stages = nest
            .items
            .iter()
            .filter(|i| matches!(i, Item::CacheRead(s) if s.level == Level::Smem))
            .count();
        let reg_stages = nest
            .items
            .iter()
            .filter(|i| matches!(i, Item::CacheRead(s) if s.level == Level::Reg))
            .count();
        assert_eq!(smem_stages, 2); // A and B
        assert_eq!(reg_stages, 2);
        // One reduction step of the block tile: A is 32×8, B is 8×64.
        let smem_shapes: Vec<&Vec<u64>> = nest
            .items
            .iter()
            .filter_map(|i| match i {
                Item::CacheRead(s) if s.level == Level::Smem => Some(&s.shape),
                _ => None,
            })
            .collect();
        assert_eq!(smem_shapes, vec![&vec![32, 8], &vec![8, 64]]);
    }

    #[test]
    fn elementwise_lowering_works_without_reduce() {
        let spec = GpuSpec::rtx4090();
        let mut e = Etir::initial(OpSpec::elementwise(1 << 12, 2, 1), &spec);
        for _ in 0..8 {
            e = e.apply(&Action::Tile { dim: 0 });
        }
        let ln = LoopNest::from_etir(&e);
        let nest = ln.to_nest();
        assert!(nest.volume() >= 1 << 12);
        assert!(nest.items.iter().any(|i| matches!(i, Item::CacheRead(_))));
    }

    #[test]
    fn unscheduled_state_lowers_to_degenerate_nest() {
        let spec = GpuSpec::rtx4090();
        let e = Etir::initial(OpSpec::gemv(64, 32), &spec);
        let ln = LoopNest::from_etir(&e);
        assert_eq!(ln.total_blocks(), 64);
        assert_eq!(ln.threads_per_block(), 1);
        let nest = ln.to_nest();
        assert_eq!(nest.volume(), 64 * 32);
    }
}
