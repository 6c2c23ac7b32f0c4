//! A small explicit loop-nest IR with the paper's Table I scheduling
//! primitives: `split`, `fuse`, `tile` (= split + reorder), `unroll`, and
//! `cache` (staging markers).
//!
//! The construction policies never manipulate this IR — they work on the
//! compact [`crate::Etir`] state — but lowering (`crate::lower`) *expresses*
//! an ETIR as a sequence of these primitive applications, which is exactly
//! how the schedule would be realised on top of a TVM-like tensor IR. A
//! [`Nest`] carries everything needed to run or print it: which iteration
//! axis each loop walks and with what stride, the true extent of every
//! axis, and what each operand reads per iteration point. `interp` executes
//! that object and `codegen` prints it; nothing else turns a schedule into
//! loops.

use serde::{Deserialize, Serialize};
use tensor_expr::Access;

/// What a loop binds to at execution time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Binding {
    /// CUDA `blockIdx` dimension.
    Grid,
    /// Virtual thread (strip-mined, re-aggregated at codegen).
    VThread,
    /// CUDA `threadIdx` dimension.
    Thread,
    /// Ordinary serial loop.
    Serial,
    /// Serial loop annotated `#pragma unroll <factor>`.
    Unrolled(u64),
}

/// One loop of the nest. Iteration `i` adds `i · stride` to the variable of
/// iteration axis `axis`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Loop {
    /// Unique name within the nest, e.g. `"m.outer"`, `"k.inner"`.
    pub name: String,
    /// Trip count.
    pub extent: u64,
    /// Execution binding.
    pub binding: Binding,
    /// Index of the iteration axis this loop walks.
    pub axis: usize,
    /// Step of the axis variable per iteration.
    pub stride: u64,
}

impl Loop {
    /// Whether the loop tells the threads of one block apart (`Thread` or
    /// `VThread`): a shared-memory stage serves such a loop even from
    /// inside it.
    pub fn within_block(&self) -> bool {
        matches!(self.binding, Binding::Thread | Binding::VThread)
    }
}

/// Memory level an [`Item::CacheRead`] stages into.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Level {
    /// Shared memory: one buffer per block, so the stage also serves the
    /// `Thread`/`VThread` loops that enclose it.
    Smem,
    /// Registers: private to the thread, serves only the loops nested
    /// inside the marker.
    Reg,
}

/// A staging buffer of `operands[operand]` in `level`, holding a box of
/// `shape` elements (one entry per tensor dimension) whose origin is the
/// operand's access with every served loop at iteration 0; elements the
/// access predicate rejects are zero.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Stage {
    pub operand: usize,
    pub level: Level,
    pub shape: Vec<u64>,
}

/// One element of the (outer→inner) nest.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Item {
    /// A loop level.
    Loop(Loop),
    /// Fill a staging buffer at this position — the `cache` primitive of
    /// Table I.
    CacheRead(Stage),
    /// Accumulate everything nested deeper into a zeroed register tile
    /// (one cell per iteration of the nested loops that walk an output
    /// axis) and write it to the output operand once those loops close.
    CacheWrite,
    /// The innermost compute statement.
    Compute,
}

/// A loop nest: an outer→inner list in which every item is nested in all
/// loops before it — the body of each item is the rest of the list — with
/// exactly one [`Item::Compute`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Nest {
    pub items: Vec<Item>,
    /// True extent of each iteration axis. The loops of an axis may
    /// over-cover it (padded tiles); points at or past the extent are
    /// masked out.
    pub extents: Vec<u64>,
    /// What each operand reads per iteration point: inputs, then the
    /// output. Empty until a lowering assigns it.
    pub operands: Vec<Access>,
}

/// Errors from primitive application.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LoopError {
    NoSuchLoop(String),
    NotDivisible {
        name: String,
        extent: u64,
        factor: u64,
    },
    NotAdjacent(String, String),
    /// The two loops are not the outer/inner halves of one axis range.
    NotSplitHalves(String, String),
    BadFactor(u64),
}

impl std::fmt::Display for LoopError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LoopError::NoSuchLoop(n) => write!(f, "no loop named {n}"),
            LoopError::NotDivisible {
                name,
                extent,
                factor,
            } => {
                write!(f, "loop {name} extent {extent} not divisible by {factor}")
            }
            LoopError::NotAdjacent(a, b) => write!(f, "loops {a},{b} not adjacent"),
            LoopError::NotSplitHalves(a, b) => {
                write!(f, "loops {a},{b} do not tile one axis range")
            }
            LoopError::BadFactor(x) => write!(f, "bad factor {x}"),
        }
    }
}

impl std::error::Error for LoopError {}

impl Nest {
    /// A naive serial nest over the given `(name, extent)` axes, one
    /// unit-stride loop per axis, with the compute statement innermost.
    pub fn naive(axes: &[(&str, u64)]) -> Nest {
        let mut items: Vec<Item> = axes
            .iter()
            .enumerate()
            .map(|(axis, (n, e))| {
                Item::Loop(Loop {
                    name: (*n).to_string(),
                    extent: *e,
                    binding: Binding::Serial,
                    axis,
                    stride: 1,
                })
            })
            .collect();
        items.push(Item::Compute);
        Nest {
            items,
            extents: axes.iter().map(|(_, e)| *e).collect(),
            operands: Vec::new(),
        }
    }

    /// Loops in outer→inner order.
    pub fn loops(&self) -> Vec<&Loop> {
        self.items
            .iter()
            .filter_map(|i| match i {
                Item::Loop(l) => Some(l),
                _ => None,
            })
            .collect()
    }

    /// Product of all loop extents — invariant under split/fuse.
    pub fn volume(&self) -> u128 {
        self.loops().iter().map(|l| l.extent as u128).product()
    }

    fn loop_pos(&self, name: &str) -> Result<usize, LoopError> {
        self.items
            .iter()
            .position(|i| matches!(i, Item::Loop(l) if l.name == name))
            .ok_or_else(|| LoopError::NoSuchLoop(name.to_string()))
    }

    fn loop_at(&self, pos: usize) -> &Loop {
        match &self.items[pos] {
            Item::Loop(l) => l,
            _ => unreachable!("loop_pos returns loop positions"),
        }
    }

    /// `split`: divide loop `name` (extent `E`, stride `s`) into
    /// `name.outer` (extent `E/factor`, stride `factor·s`) and `name.inner`
    /// (extent `factor`, stride `s`), inner placed directly inside outer.
    /// Table I: `L → (L1, L2)`.
    pub fn split(&mut self, name: &str, factor: u64) -> Result<(), LoopError> {
        if factor == 0 {
            return Err(LoopError::BadFactor(factor));
        }
        let pos = self.loop_pos(name)?;
        let l = self.loop_at(pos).clone();
        if !l.extent.is_multiple_of(factor) {
            return Err(LoopError::NotDivisible {
                name: name.to_string(),
                extent: l.extent,
                factor,
            });
        }
        let outer = Loop {
            name: format!("{name}.outer"),
            extent: l.extent / factor,
            stride: factor * l.stride,
            ..l.clone()
        };
        let inner = Loop {
            name: format!("{name}.inner"),
            extent: factor,
            ..l
        };
        self.items
            .splice(pos..=pos, [Item::Loop(outer), Item::Loop(inner)]);
        Ok(())
    }

    /// `fuse`: merge two *adjacent* loops into one with the product extent
    /// — the inverse of [`Nest::split`], so `b` must walk the same axis as
    /// `a` and exactly fill one `a` step. Table I: `(L1, L2) → L`.
    pub fn fuse(&mut self, a: &str, b: &str, fused_name: &str) -> Result<(), LoopError> {
        let pa = self.loop_pos(a)?;
        let pb = self.loop_pos(b)?;
        if pb != pa + 1 {
            return Err(LoopError::NotAdjacent(a.to_string(), b.to_string()));
        }
        let (la, lb) = (self.loop_at(pa), self.loop_at(pb));
        if la.axis != lb.axis || la.stride != lb.extent * lb.stride {
            return Err(LoopError::NotSplitHalves(a.to_string(), b.to_string()));
        }
        let fused = Loop {
            name: fused_name.to_string(),
            extent: la.extent * lb.extent,
            stride: lb.stride,
            ..la.clone()
        };
        self.items.splice(pa..=pb, [Item::Loop(fused)]);
        Ok(())
    }

    /// Reorder the loops into the order given by `names` (which must be a
    /// permutation of all loop names). Non-loop items keep their list
    /// position. Combined with [`Nest::split`] this realises Table I's
    /// `tile` primitive (`L → [T1, T2]`).
    pub fn reorder(&mut self, names: &[&str]) -> Result<(), LoopError> {
        let mut pool: Vec<Loop> = self.loops().into_iter().cloned().collect();
        if names.len() != pool.len() {
            return Err(LoopError::NoSuchLoop(format!(
                "reorder wants {} loops, nest has {}",
                names.len(),
                pool.len()
            )));
        }
        let mut ordered = Vec::with_capacity(pool.len());
        for n in names {
            let idx = pool
                .iter()
                .position(|l| l.name == *n)
                .ok_or_else(|| LoopError::NoSuchLoop((*n).to_string()))?;
            ordered.push(pool.remove(idx));
        }
        let mut it = ordered.into_iter();
        for item in &mut self.items {
            if matches!(item, Item::Loop(_)) {
                *item = Item::Loop(it.next().unwrap());
            }
        }
        Ok(())
    }

    /// Change the binding of loop `name` (e.g. bind to `Grid` or `Thread`).
    pub fn bind(&mut self, name: &str, binding: Binding) -> Result<(), LoopError> {
        let pos = self.loop_pos(name)?;
        if let Item::Loop(l) = &mut self.items[pos] {
            l.binding = binding;
        }
        Ok(())
    }

    /// `unroll`: annotate loop `name` unrolled by `factor`. Table I:
    /// `L → Σ L_i`.
    pub fn unroll(&mut self, name: &str, factor: u64) -> Result<(), LoopError> {
        self.bind(name, Binding::Unrolled(factor))
    }

    /// `cache`: stage `operands[operand]` into `level` directly inside loop
    /// `after` (ahead of any marker already there). Table I: `C(T)`. The
    /// staged box is the image of the operand's access over the loops the
    /// stage serves — every loop nested inside the marker, plus for
    /// [`Level::Smem`] the enclosing [`Loop::within_block`] loops — clipped
    /// to the true axis extents (masked points are never read). Apply after
    /// the loops are in their final order.
    pub fn cache_read(
        &mut self,
        after: &str,
        operand: usize,
        level: Level,
    ) -> Result<(), LoopError> {
        let pos = self.loop_pos(after)? + 1;
        let mut tile = vec![1u64; self.extents.len()];
        for (i, item) in self.items.iter().enumerate() {
            if let Item::Loop(l) = item {
                if i >= pos || (level == Level::Smem && l.within_block()) {
                    tile[l.axis] += (l.extent - 1) * l.stride;
                }
            }
        }
        for (t, &e) in tile.iter_mut().zip(&self.extents) {
            *t = (*t).min(e);
        }
        let shape = self.operands[operand].tile_box(&tile);
        let stage = Stage {
            operand,
            level,
            shape,
        };
        self.items.insert(pos, Item::CacheRead(stage));
        Ok(())
    }

    /// Accumulator layout under the [`Item::CacheWrite`]: per item, the
    /// mixed-radix stride (innermost fastest) of a nested loop that walks
    /// an output axis and 0 for every other item; and the number of cells.
    pub fn acc_strides(&self) -> (Vec<u64>, u64) {
        let output = self.operands.last().expect("lowered nest has operands");
        let on_output = |axis| {
            output
                .dims
                .iter()
                .any(|d| d.terms.iter().any(|t| t.0 == axis))
        };
        let (mut strides, mut cells) = (vec![0; self.items.len()], 1);
        for (i, item) in self.items.iter().enumerate().rev() {
            match item {
                Item::CacheWrite => break,
                Item::Loop(l) if on_output(l.axis) => {
                    strides[i] = cells;
                    cells *= l.extent;
                }
                _ => {}
            }
        }
        (strides, cells)
    }

    /// Open the accumulator directly inside loop `after`: everything nested
    /// deeper accumulates into registers, and the write-back to the output
    /// operand happens after those loops close.
    pub fn cache_write(&mut self, after: &str) -> Result<(), LoopError> {
        let pos = self.loop_pos(after)? + 1;
        self.items.insert(pos, Item::CacheWrite);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tensor_expr::OpSpec;

    /// A naive `m, n, k` nest that knows what a GEMM's operands read.
    fn gemm_nest(m: u64, n: u64, k: u64) -> Nest {
        let mut nest = Nest::naive(&[("m", m), ("n", n), ("k", k)]);
        nest.operands = OpSpec::gemm(m, k, n).accesses();
        nest
    }

    #[test]
    fn naive_nest_has_unit_structure() {
        let n = Nest::naive(&[("m", 64), ("n", 32), ("k", 16)]);
        assert_eq!(n.loops().len(), 3);
        assert_eq!(n.volume(), 64 * 32 * 16);
        assert_eq!(n.extents, vec![64, 32, 16]);
        let walks: Vec<_> = n.loops().iter().map(|l| (l.axis, l.stride)).collect();
        assert_eq!(walks, vec![(0, 1), (1, 1), (2, 1)]);
    }

    #[test]
    fn split_preserves_volume_and_names() {
        let mut n = Nest::naive(&[("m", 64)]);
        n.split("m", 16).unwrap();
        assert_eq!(n.volume(), 64);
        let names: Vec<_> = n.loops().iter().map(|l| l.name.clone()).collect();
        assert_eq!(names, vec!["m.outer", "m.inner"]);
        assert_eq!(n.loops()[0].extent, 4);
        assert_eq!(n.loops()[1].extent, 16);
        // Both halves still walk axis 0; the outer one in steps of 16.
        assert_eq!((n.loops()[0].axis, n.loops()[0].stride), (0, 16));
        assert_eq!((n.loops()[1].axis, n.loops()[1].stride), (0, 1));
    }

    #[test]
    fn split_rejects_non_divisible() {
        let mut n = Nest::naive(&[("m", 10)]);
        assert_eq!(
            n.split("m", 3),
            Err(LoopError::NotDivisible {
                name: "m".into(),
                extent: 10,
                factor: 3
            })
        );
    }

    #[test]
    fn fuse_is_split_inverse() {
        let mut n = Nest::naive(&[("m", 64), ("n", 8)]);
        n.split("m", 16).unwrap();
        n.fuse("m.outer", "m.inner", "m").unwrap();
        assert_eq!(n, Nest::naive(&[("m", 64), ("n", 8)]));
    }

    #[test]
    fn fuse_requires_adjacency() {
        let mut n = Nest::naive(&[("a", 2), ("b", 3), ("c", 4)]);
        assert!(matches!(
            n.fuse("a", "c", "ac"),
            Err(LoopError::NotAdjacent(..))
        ));
    }

    #[test]
    fn fuse_rejects_loops_of_different_axes() {
        let mut n = Nest::naive(&[("a", 2), ("b", 3)]);
        assert!(matches!(
            n.fuse("a", "b", "ab"),
            Err(LoopError::NotSplitHalves(..))
        ));
    }

    #[test]
    fn reorder_permutes_loops_only() {
        let mut n = gemm_nest(2, 3, 5);
        n.cache_read("m", 0, Level::Smem).unwrap();
        n.reorder(&["n", "m", "k"]).unwrap();
        let names: Vec<_> = n.loops().iter().map(|l| l.name.clone()).collect();
        assert_eq!(names, vec!["n", "m", "k"]);
        // Cache marker still after the first loop slot.
        assert!(matches!(n.items[1], Item::CacheRead(_)));
        assert_eq!(n.volume(), 30);
    }

    #[test]
    fn reorder_rejects_unknown_loop() {
        let mut n = Nest::naive(&[("a", 2)]);
        assert!(n.reorder(&["zzz"]).is_err());
    }

    #[test]
    fn tile_is_split_plus_reorder() {
        // Table I "tile": L → [T1, T2] for two loops.
        let mut n = Nest::naive(&[("m", 64), ("n", 64)]);
        n.split("m", 8).unwrap();
        n.split("n", 8).unwrap();
        n.reorder(&["m.outer", "n.outer", "m.inner", "n.inner"])
            .unwrap();
        let names: Vec<_> = n.loops().iter().map(|l| l.name.clone()).collect();
        assert_eq!(names, vec!["m.outer", "n.outer", "m.inner", "n.inner"]);
        assert_eq!(n.volume(), 64 * 64);
    }

    #[test]
    fn unroll_changes_binding_only() {
        let mut n = Nest::naive(&[("k", 8)]);
        n.unroll("k", 4).unwrap();
        assert_eq!(n.loops()[0].binding, Binding::Unrolled(4));
        assert_eq!(n.volume(), 8);
    }

    #[test]
    fn cache_read_box_is_the_access_image_over_the_served_loops() {
        let mut n = gemm_nest(64, 32, 16);
        n.split("m", 8).unwrap();
        n.split("k", 4).unwrap();
        n.bind("m.inner", Binding::Thread).unwrap();
        n.reorder(&["m.outer", "m.inner", "n", "k.outer", "k.inner"])
            .unwrap();
        // Inside `k.outer` a shared stage of A serves k.inner (4) and the
        // enclosing thread loop (8 rows); a register stage only k.inner.
        n.cache_read("k.outer", 0, Level::Reg).unwrap();
        n.cache_read("k.outer", 0, Level::Smem).unwrap();
        let shapes: Vec<_> = n
            .items
            .iter()
            .filter_map(|i| match i {
                Item::CacheRead(s) => Some((s.level, s.shape.clone())),
                _ => None,
            })
            .collect();
        assert_eq!(
            shapes,
            vec![(Level::Smem, vec![8, 4]), (Level::Reg, vec![1, 4])]
        );
    }

    #[test]
    fn cache_read_box_is_clipped_to_the_true_extent() {
        // 100 rows walked by a padded 128-trip loop: only 100 are staged.
        let mut n = gemm_nest(128, 8, 8);
        n.extents[0] = 100;
        n.cache_read("n", 0, Level::Reg).unwrap();
        assert!(matches!(&n.items[2], Item::CacheRead(s) if s.shape == [1, 8]));
        let mut n = gemm_nest(128, 8, 8);
        n.extents[0] = 100;
        n.bind("m", Binding::Thread).unwrap();
        n.cache_read("n", 0, Level::Smem).unwrap();
        assert!(matches!(&n.items[2], Item::CacheRead(s) if s.shape == [100, 8]));
    }

    #[test]
    fn accumulator_has_one_cell_per_nested_output_axis_iteration() {
        // m (4) outside the marker, n (3) and the reduction k (5) inside:
        // three cells, indexed by n alone.
        let mut n = gemm_nest(4, 3, 5);
        n.cache_write("m").unwrap();
        assert_eq!(n.acc_strides(), (vec![0, 0, 1, 0, 0], 3));
    }

    #[test]
    fn cache_write_lands_after_compute() {
        // The marker opens the accumulator inside `m`; its write-back runs
        // when the loops nested in it — the reduction and the compute —
        // have closed, so in list order it precedes both.
        let mut n = Nest::naive(&[("m", 4), ("k", 2)]);
        n.cache_write("m").unwrap();
        assert_eq!(n.items[1], Item::CacheWrite);
        assert!(matches!(&n.items[2], Item::Loop(l) if l.name == "k"));
        assert_eq!(n.items[3], Item::Compute);
    }

    #[test]
    fn a_later_marker_inside_one_loop_runs_first() {
        let mut n = gemm_nest(4, 4, 4);
        n.cache_read("n", 1, Level::Smem).unwrap();
        n.cache_read("n", 0, Level::Smem).unwrap();
        n.cache_write("n").unwrap();
        assert_eq!(n.items[2], Item::CacheWrite);
        assert!(matches!(&n.items[3], Item::CacheRead(s) if s.operand == 0));
        assert!(matches!(&n.items[4], Item::CacheRead(s) if s.operand == 1));
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// split preserves iteration volume for every divisor.
        #[test]
        fn split_preserves_volume(extent_log in 1u32..12, factor_log in 0u32..12) {
            let extent = 1u64 << extent_log;
            let factor = 1u64 << factor_log.min(extent_log);
            let mut n = Nest::naive(&[("x", extent), ("y", 3)]);
            let before = n.volume();
            n.split("x", factor).unwrap();
            prop_assert_eq!(n.volume(), before);
        }

        /// split then fuse round-trips exactly.
        #[test]
        fn split_fuse_roundtrip(extent_log in 1u32..12, factor_log in 0u32..12) {
            let extent = 1u64 << extent_log;
            let factor = 1u64 << factor_log.min(extent_log);
            let mut n = Nest::naive(&[("x", extent)]);
            let orig = n.clone();
            n.split("x", factor).unwrap();
            n.fuse("x.outer", "x.inner", "x").unwrap();
            prop_assert_eq!(n, orig);
        }

        /// reorder is volume- and multiset-preserving for any permutation.
        #[test]
        fn reorder_preserves_loops(perm in proptest::sample::subsequence(vec![0usize,1,2], 3)) {
            prop_assume!(perm.len() == 3);
            let mut n = Nest::naive(&[("a", 2), ("b", 3), ("c", 5)]);
            let names = ["a", "b", "c"];
            let order: Vec<&str> = perm.iter().map(|&i| names[i]).collect();
            // subsequence keeps order; rotate to get a different permutation
            let mut order = order;
            order.rotate_left(1);
            let before = n.volume();
            n.reorder(&order).unwrap();
            prop_assert_eq!(n.volume(), before);
            let got: Vec<String> = n.loops().iter().map(|l| l.name.clone()).collect();
            let mut sorted = got.clone();
            sorted.sort();
            prop_assert_eq!(sorted, vec!["a".to_string(), "b".into(), "c".into()]);
        }
    }
}
