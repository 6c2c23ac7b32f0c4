//! Footprint / traffic analytics over ETIR states.
//!
//! These are the `Q(T)` (memory traffic) and `F(T)` (memory footprint)
//! quantities of the paper's benefit formulas, plus the resource figures
//! (threads, registers, shared memory) needed for the memory-capacity check
//! ("Gensor conducts memory check for each transition; if memory required
//! for the configuration exceeds the cache capacity, the probability is
//! directly set to 0", §IV-C) and for the performance simulator.

use crate::action::Action;
use crate::state::{Etir, Tiles};
use hardware::{GpuSpec, LevelKind};
use serde::{Deserialize, Serialize};
use tensor_expr::op::clamp_tile;
use tensor_expr::{Extents, OpSpec, DTYPE_BYTES};

/// Register overhead per thread beyond accumulators and operand slices
/// (addressing, loop counters, predicates).
const REG_OVERHEAD: u64 = 16;

/// What the stats halves and the scorer read of an operator, derived once:
/// its spatial and reduce extents, the bytes of its whole output, and the
/// elements of its whole reduce space (1 without reduce axes).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpShape {
    pub spatial: Extents,
    pub reduce: Extents,
    pub out_bytes: f64,
    pub reduce_elems: u64,
}

impl OpShape {
    pub fn new(op: &OpSpec) -> OpShape {
        let (spatial, reduce) = (op.spatial_extents(), op.reduce_extents());
        OpShape {
            spatial,
            reduce,
            out_bytes: (spatial.iter().product::<u64>() * DTYPE_BYTES) as f64,
            reduce_elems: reduce.iter().product::<u64>().max(1),
        }
    }

    /// Fraction of launched work that is useful, < 1 when the block tile
    /// `sp_tile` does not divide the extents evenly (padding waste).
    pub fn tile_efficiency(&self, sp_tile: &[u64]) -> f64 {
        let eff = |(&e, &t): (&u64, &u64)| {
            let t = t.max(1).min(e);
            e as f64 / (ceil_div(e, t) * t) as f64
        };
        self.spatial.iter().zip(sp_tile).map(eff).product()
    }

    /// Coalescing efficiency of `e`'s DRAM traffic, in (0, 1].
    ///
    /// Each staged input region streams rows of
    /// [`tensor_expr::TileFootprint::rows`] contiguous elements; a row
    /// shorter than the DRAM line leaves the rest of the line unused. The
    /// per-input efficiencies are combined weighted by each input's share
    /// of the staged bytes. This is what separates a reduction-staging tile
    /// of 8 elements (32 B rows → half the line wasted) from one of 32+
    /// elements — the effect behind the paper's GEMV results (Table VI),
    /// where Roller's transaction-aligned but untuned reduction tile leaves
    /// bandwidth on the floor.
    pub fn dram_efficiency(&self, e: &Etir) -> f64 {
        let (smem, reduce) = (
            clamp_tile(&e.smem_tile, &self.spatial),
            clamp_tile(&e.reduce_tile, &self.reduce),
        );
        let fp = e.op.clamped_footprint(&smem, &reduce);
        let total_bytes: f64 =
            fp.inputs.iter().map(|&b| b as f64).sum::<f64>() * DTYPE_BYTES as f64;
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

    /// Shared-memory access serialization from bank conflicts, ≥ 1, of the
    /// block tile `smem_tile` split over `vthreads`.
    ///
    /// Mirrors the paper's Eq. 3: a block-tile row of `x` elements read by
    /// the threads of one virtual-thread group spans `ceil(x / (V·W))` bank
    /// groups that must be serviced serially; `V` virtual threads
    /// interleave their accesses so the per-issue span shrinks. With
    /// `V = 1` this degrades to `ceil(x / W)`, so
    /// `Benefit_vThread = degree(V=1) / degree(V)` is exactly the paper's
    /// formula, and the policy and the simulator agree by construction.
    pub fn bank_conflict_degree(&self, smem_tile: &[u64], vthreads: &[u64], spec: &GpuSpec) -> f64 {
        self.conflict_degree(smem_tile, vthreads.iter().product(), spec)
    }

    /// [`OpShape::bank_conflict_degree`] with `total_vthreads` virtual
    /// threads in all.
    #[inline]
    pub fn conflict_degree(&self, smem_tile: &[u64], total_vthreads: u64, spec: &GpuSpec) -> f64 {
        let smem = spec.level(LevelKind::Shared);
        let (Some(&row), Some(&ext)) = (smem_tile.last(), self.spatial.last()) else {
            return 1.0;
        };
        if smem.banks == 0 {
            return 1.0;
        }
        // The block tile's row along the contiguous dimension, clamped as
        // `Etir::clamped_smem_tile` clamps it.
        let x = row.min(ext.next_power_of_two()) as f64;
        let v = total_vthreads as f64;
        (x / (v * smem.banks as f64)).ceil().max(1.0)
    }
}

/// A walk's cost context: the [`OpShape`] of its operator plus
/// [`OpSpec::compulsory_bytes`] and [`OpSpec::flops`], which the simulator
/// reads, derived once per walk instead of once per state or edge.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpCosts {
    pub shape: OpShape,
    pub compulsory_bytes: u64,
    pub flops: f64,
}

impl OpCosts {
    pub fn new(op: &OpSpec) -> OpCosts {
        let (shape, flops) = (OpShape::new(op), op.flops());
        OpCosts {
            shape,
            compulsory_bytes: op.compulsory_bytes(),
            flops,
        }
    }
}

/// `ceil(x / t)` for `t ≥ 1`: a shift when `t` is a power of two, as every
/// tile the walk makes is; other tiles (transplanted or set by hand)
/// divide.
#[inline(always)]
fn ceil_div(x: u64, t: u64) -> u64 {
    if t.is_power_of_two() {
        (x >> t.trailing_zeros()) + u64::from(x & (t - 1) != 0)
    } else {
        x.div_ceil(t)
    }
}

/// `Π values` with `values[axis]` replaced by `value`.
#[inline(always)]
pub fn product_with(values: &[u64], axis: usize, value: u64) -> u64 {
    let at = |(i, &v): (usize, &u64)| if i == axis { value } else { v };
    values.iter().enumerate().map(at).product()
}

/// Axis `i` of the clamped tile vector `tiles`, with `value` at the edited
/// `axis`, if any.
#[inline(always)]
fn with(tiles: &Axes, axis: Option<usize>, value: u64) -> impl Fn(usize) -> u64 + '_ {
    move |i| if Some(i) == axis { value } else { tiles[i] }
}

type Axes = [u64; Extents::MAX];

/// What every edge of one state shares, derived once per state: its block,
/// register and reduce tiles clamped into `[1, extent]`, the tile count
/// `ceil(extent / tile)` along every axis of each, and the state's block and
/// reduction-step counts. Axes past the operator's rank are unused.
#[derive(Debug, Clone, Copy)]
pub struct StateTiles {
    smem: Axes,
    reg: Axes,
    reduce: Axes,
    smem_counts: Axes,
    reg_counts: Axes,
    reduce_counts: Axes,
    grid_blocks: u64,
    reduce_steps: u64,
}

impl StateTiles {
    pub fn new(shape: &OpShape, e: &Etir) -> StateTiles {
        let mut t = StateTiles {
            smem: [0; Extents::MAX],
            reg: [0; Extents::MAX],
            reduce: [0; Extents::MAX],
            smem_counts: [0; Extents::MAX],
            reg_counts: [0; Extents::MAX],
            reduce_counts: [0; Extents::MAX],
            grid_blocks: 0,
            reduce_steps: 0,
        };
        // Clamping a tile into `[1, extent]` changes no count, so a count
        // divides by the tile as it is (at least 1), a power of two.
        #[inline(always)]
        fn fill(ext: &[u64], tile: &[u64], clamped: &mut Axes, counts: &mut Axes) -> u64 {
            let mut product = 1;
            for (i, (&x, &tile)) in ext.iter().zip(tile).enumerate() {
                (clamped[i], counts[i]) = (tile.clamp(1, x), ceil_div(x, tile.max(1)));
                product *= counts[i];
            }
            product
        }
        let (spatial, reduce) = (&shape.spatial, &shape.reduce);
        t.grid_blocks = fill(spatial, &e.smem_tile, &mut t.smem, &mut t.smem_counts);
        fill(spatial, &e.reg_tile, &mut t.reg, &mut t.reg_counts);
        let steps = fill(reduce, &e.reduce_tile, &mut t.reduce, &mut t.reduce_counts);
        t.reduce_steps = steps.max(1);
        t
    }
}

/// What the benefit formulas and the capacity check read of a schedule, in
/// two halves: the block half (level 0) is a function of the shared-memory
/// and reduce tiles only, the thread half (level 1) of the register tile
/// only. Thread and vthread counts and the tile efficiency are the
/// schedule's own ([`Etir::threads_per_block`],
/// [`OpShape::tile_efficiency`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct ScheduleStats {
    /// Thread blocks launched (`Π ceil(extent / smem_tile)`).
    pub grid_blocks: u64,
    /// Reduction steps each block executes (`Π ceil(extent / reduce_tile)`).
    pub reduce_steps: u64,
    /// Shared memory staged per block, bytes (input tiles for one reduction
    /// step).
    pub smem_bytes_per_block: u64,
    /// Total DRAM traffic in bytes: every block re-loads its input tiles
    /// each reduction step, plus the output is written once.
    pub dram_traffic_bytes: f64,
    /// 32-bit registers per thread (accumulators + operand slice + fixed
    /// overhead).
    pub regs_per_thread: u64,
    /// Total shared-memory→register traffic in bytes.
    pub smem_traffic_bytes: f64,
}

impl ScheduleStats {
    /// Compute all quantities for `e`: both halves.
    pub fn compute(e: &Etir) -> ScheduleStats {
        Self::compute_in(&OpShape::new(&e.op), e)
    }

    /// [`ScheduleStats::compute`] for a caller that holds `e.op`'s shape:
    /// each half by the edge rule, at an edit that changes nothing.
    pub fn compute_in(shape: &OpShape, e: &Etir) -> ScheduleStats {
        let tiles = StateTiles::new(shape, e);
        ScheduleStats::default()
            .edited(shape, &e.op, &tiles, (Tiles::Smem, 0, e.smem_tile[0]))
            .edited(shape, &e.op, &tiles, (Tiles::Reg, 0, e.reg_tile[0]))
    }

    /// The stats of `state.apply(action)` before that successor exists,
    /// where `self` are `state`'s: a tiling action recomputes the one half
    /// its tile decides, from its one edit ([`Etir::tile_edit`]), and
    /// copies the other; every other action leaves both halves as they
    /// are. Equal to `ScheduleStats::compute(&state.apply(action))`.
    #[inline]
    pub fn edge(&self, shape: &OpShape, state: &Etir, action: &Action) -> ScheduleStats {
        match state.tile_edit(action) {
            Some(edit) => self.edited(shape, &state.op, &StateTiles::new(shape, state), edit),
            None => *self,
        }
    }

    /// [`ScheduleStats::edge`] for a caller that holds `state`'s
    /// [`StateTiles`] (the walk derives them once per state, for the
    /// scorer and for the edge it takes).
    #[inline]
    pub fn edge_in(
        &self,
        shape: &OpShape,
        state: &Etir,
        tiles: &StateTiles,
        action: &Action,
    ) -> ScheduleStats {
        match state.tile_edit(action) {
            Some(edit) => self.edited(shape, &state.op, tiles, edit),
            None => *self,
        }
    }

    /// `self` with the half that `edit`, an [`Etir::tile_edit`] of the
    /// state `tiles` are derived from, decides recomputed: the edited axis
    /// is read from the edit and every other from `tiles`, and the count
    /// the edit leaves alone is the state's. A vthread edit decides
    /// neither half.
    #[inline(always)]
    pub fn edited(
        mut self,
        shape: &OpShape,
        op: &OpSpec,
        tiles: &StateTiles,
        (which, dim, value): (Tiles, usize, u64),
    ) -> Self {
        let (rank, reduce_rank) = (shape.spatial.len(), shape.reduce.len());
        // The edited axis's tile count and clamped tile.
        let at = |ext: &Extents| (ceil_div(ext[dim], value.max(1)), value.clamp(1, ext[dim]));
        match which {
            Tiles::Smem | Tiles::Reduce => {
                let edits_smem = which == Tiles::Smem;
                let clamped = if edits_smem {
                    let (count, clamped) = at(&shape.spatial);
                    self.grid_blocks = product_with(&tiles.smem_counts[..rank], dim, count);
                    self.reduce_steps = tiles.reduce_steps;
                    clamped
                } else {
                    let (count, clamped) = at(&shape.reduce);
                    self.grid_blocks = tiles.grid_blocks;
                    self.reduce_steps =
                        product_with(&tiles.reduce_counts[..reduce_rank], dim, count).max(1);
                    clamped
                };
                // Shared-memory footprint: input tiles of one reduction step.
                let block_fp = op.footprint_at(
                    with(&tiles.smem, edits_smem.then_some(dim), clamped),
                    with(&tiles.reduce, (!edits_smem).then_some(dim), clamped),
                );
                self.smem_bytes_per_block = block_fp.inputs.iter().sum::<u64>() * DTYPE_BYTES;
                // DRAM traffic: per block, the staged input tiles are loaded
                // once per reduction step; the output tile is written once.
                self.dram_traffic_bytes = self.grid_blocks as f64
                    * self.reduce_steps as f64
                    * self.smem_bytes_per_block as f64
                    + shape.out_bytes;
            }
            Tiles::Reg => {
                // Registers: accumulator tile + one reduce-element operand
                // slice + overhead.
                let (count, clamped) = at(&shape.spatial);
                let reg_fp = op.footprint_at(with(&tiles.reg, Some(dim), clamped), |_| 1);
                let reg_in_elems = reg_fp.inputs.iter().sum::<u64>();
                self.regs_per_thread = reg_fp.output + reg_in_elems + REG_OVERHEAD;
                // SMEM→register traffic: every register tile re-reads its
                // operand slices for each element of the reduce space.
                let reg_in_bytes = (reg_in_elems * DTYPE_BYTES) as f64;
                let count = product_with(&tiles.reg_counts[..rank], dim, count);
                self.smem_traffic_bytes =
                    count as f64 * shape.reduce_elems as f64 * reg_in_bytes + shape.out_bytes;
            }
            Tiles::Vthreads => {}
        }
        self
    }

    /// The paper's `Q(T)`: traffic *into* the tiles of the given schedulable
    /// level (0 = DRAM→SMEM, 1 = SMEM→REG), in bytes.
    #[inline]
    pub fn traffic_at_level(&self, level: usize) -> f64 {
        match level {
            0 => self.dram_traffic_bytes,
            _ => self.smem_traffic_bytes,
        }
    }

    /// The paper's `F(T)`: per-unit footprint at the given schedulable
    /// level (0 = shared memory per block, 1 = registers per thread), bytes.
    #[inline]
    pub fn footprint_at_level(&self, level: usize) -> f64 {
        match level {
            0 => self.smem_bytes_per_block.max(1) as f64,
            _ => (self.regs_per_thread * 4).max(1) as f64,
        }
    }
}

/// Outcome of the capacity check for one state.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum MemCheck {
    /// Fits all hardware limits.
    Fits,
    /// Shared memory per block exceeds the device limit.
    SmemOverflow { need: u64, cap: u64 },
    /// Register demand per thread exceeds the device limit.
    RegOverflow { need: u64, cap: u64 },
    /// Block has more threads than the device allows.
    TooManyThreads { need: u64, cap: u64 },
    /// Block shape gives zero threads (degenerate).
    NoThreads,
}

impl MemCheck {
    /// Check `e` against `spec`. This is the transition filter of §IV-C.
    pub fn check(e: &Etir, spec: &GpuSpec) -> MemCheck {
        Self::check_stats(&ScheduleStats::compute(e), e.threads_per_block(), spec)
    }

    /// Same check when the caller already has the stats and the block's
    /// thread count.
    pub fn check_stats(stats: &ScheduleStats, threads_per_block: u64, spec: &GpuSpec) -> MemCheck {
        if threads_per_block == 0 {
            return MemCheck::NoThreads;
        }
        let capacity = Self::check_capacity_stats(stats, spec);
        if !capacity.fits() {
            return capacity;
        }
        if threads_per_block > spec.max_threads_per_block as u64 {
            return MemCheck::TooManyThreads {
                need: threads_per_block,
                cap: spec.max_threads_per_block as u64,
            };
        }
        // A block also cannot out-demand the register file of a whole SM.
        if stats.regs_per_thread * threads_per_block > spec.regs_per_sm as u64 {
            return MemCheck::RegOverflow {
                need: stats.regs_per_thread,
                cap: (spec.regs_per_sm as u64 / threads_per_block.max(1)),
            };
        }
        MemCheck::Fits
    }

    /// Whether the state is feasible.
    pub fn fits(&self) -> bool {
        matches!(self, MemCheck::Fits)
    }

    /// Capacity-only check used as the *transition* filter during
    /// construction (§IV-C: "if memory required for the configuration
    /// exceeds the cache capacity, the probability is directly set to 0").
    ///
    /// Thread-count limits are deliberately not checked here: a partially
    /// scheduled state (block tile chosen, register tile not yet) has no
    /// final thread shape, so mid-construction states may legally pass
    /// through thread-infeasible configurations. The full check (including
    /// threads) is applied by the simulator before any state can be chosen
    /// as a winner.
    pub fn check_capacity(e: &Etir, spec: &GpuSpec) -> MemCheck {
        Self::check_capacity_stats(&ScheduleStats::compute(e), spec)
    }

    /// [`MemCheck::check_capacity`] when the stats are already computed.
    #[inline]
    pub fn check_capacity_stats(stats: &ScheduleStats, spec: &GpuSpec) -> MemCheck {
        if stats.smem_bytes_per_block > spec.max_smem_per_block {
            return MemCheck::SmemOverflow {
                need: stats.smem_bytes_per_block,
                cap: spec.max_smem_per_block,
            };
        }
        if stats.regs_per_thread > spec.max_regs_per_thread as u64 {
            return MemCheck::RegOverflow {
                need: stats.regs_per_thread,
                cap: spec.max_regs_per_thread as u64,
            };
        }
        MemCheck::Fits
    }
}

/// DRAM burst-line size in bytes: transactions shorter than this waste the
/// remainder of the line. 64 B (two 32-B sectors) is the effective
/// fine-grained granularity on the modelled parts.
pub const DRAM_LINE_BYTES: f64 = 64.0;

/// L2-level traffic estimate: bytes requested from L2 by all blocks, plus
/// the share expected to miss to DRAM given inter-block reuse.
///
/// Blocks along the same row/column of the spatial space share input tiles
/// (e.g. all GEMM blocks in one grid row reload the same `A` tile). L2
/// serves those re-loads when the concurrently-live working set fits. We
/// estimate the *hit rate* as the fraction of block-level traffic that is
/// redundant with respect to compulsory traffic, damped by how far the
/// resident working set overflows the L2 capacity.
///
/// `stats` are the schedule's [`ScheduleStats`] and `compulsory` its
/// operator's [`tensor_expr::OpSpec::compulsory_bytes`]; the simulator
/// already holds both.
pub fn l2_hit_rate(stats: &ScheduleStats, compulsory: f64, spec: &GpuSpec) -> f64 {
    let requested = stats.dram_traffic_bytes.max(1.0);
    // Redundant fraction: re-reads that *could* be L2 hits.
    let redundant = (1.0 - compulsory / requested).clamp(0.0, 1.0);
    // Capacity damping: the reuse window is one "wave" of concurrent blocks.
    let l2_cap = spec.level(LevelKind::L2).capacity_bytes as f64;
    let concurrent_blocks = (spec.num_sms as f64).min(stats.grid_blocks as f64).max(1.0);
    let live_set = concurrent_blocks
        * stats.smem_bytes_per_block.max(1) as f64
        * stats.reduce_steps.max(1) as f64;
    let fit = (l2_cap / live_set).min(1.0);
    // Even a fully-captured window can't convert *all* redundancy (cold
    // misses at wave boundaries); 0.95 ceiling keeps it physical.
    // Streaming accesses still enjoy some L2 hits from prefetch-like line
    // granularity: the floor is the `0.05 * (1.0 - redundant)` term,
    // proportional to non-redundant traffic.
    (redundant * fit * 0.95).clamp(0.0, 0.99) + 0.05 * (1.0 - redundant)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::Action;
    use tensor_expr::OpSpec;

    fn scheduled_gemm() -> Etir {
        // GEMM 1024x1024x1024 with smem tile 64x64, reduce tile 8,
        // reg tile 4x4, vthreads 2x1.
        let spec = GpuSpec::rtx4090();
        let mut e = Etir::initial(OpSpec::gemm(1024, 1024, 1024), &spec);
        for _ in 0..6 {
            e = e.apply(&Action::Tile { dim: 0 });
            e = e.apply(&Action::Tile { dim: 1 });
        }
        for _ in 0..3 {
            e = e.apply(&Action::TileReduce { dim: 0 });
        }
        e = e.apply(&Action::Cache);
        for _ in 0..2 {
            e = e.apply(&Action::Tile { dim: 0 });
            e = e.apply(&Action::Tile { dim: 1 });
        }
        e = e.apply(&Action::SetVthread { dim: 0 });
        e
    }

    #[test]
    fn gemm_stats_match_hand_calculation() {
        let e = scheduled_gemm();
        let s = ScheduleStats::compute(&e);
        // Grid: (1024/64)^2 = 256 blocks.
        assert_eq!(s.grid_blocks, 256);
        // Threads: dim0 64/(4*2)=8, dim1 64/4=16 → 128.
        assert_eq!(e.threads_per_block(), 128);
        assert_eq!(e.total_vthreads(), 2);
        // SMEM: A tile 64x8 + B tile 8x64 = 1024 elems = 4096 B.
        assert_eq!(s.smem_bytes_per_block, 4096);
        // Regs: 4x4 acc + (4 + 4) operand slice + 16 = 40.
        assert_eq!(s.regs_per_thread, 16 + 8 + 16);
        // Reduce steps: 1024/8 = 128.
        assert_eq!(s.reduce_steps, 128);
        // DRAM traffic: 256 blocks * 128 steps * 4096 B + 1024*1024*4 out.
        let expect = 256.0 * 128.0 * 4096.0 + (1024.0 * 1024.0 * 4.0);
        assert!((s.dram_traffic_bytes - expect).abs() < 1.0);
        assert_eq!(OpShape::new(&e.op).tile_efficiency(&e.smem_tile), 1.0);
    }

    #[test]
    fn tile_efficiency_penalises_ragged_tiles() {
        let shape = OpShape::new(&OpSpec::gemm(100, 10, 64));
        // M=100 with tile 32 → 4 tiles cover 128 → 100/128 efficiency.
        let eff = shape.tile_efficiency(&[32, 64]);
        assert!((eff - 100.0 / 128.0).abs() < 1e-12);
        // Perfect tiling is 1.0.
        assert_eq!(shape.tile_efficiency(&[25, 32]), 1.0);
    }

    #[test]
    fn block_counts_round_up_ragged_tiles() {
        let spec = GpuSpec::rtx4090();
        let mut e = Etir::initial(OpSpec::gemm(100, 10, 60), &spec);
        e.smem_tile = [32, 32].into();
        e.reduce_tile = [4].into();
        let s = ScheduleStats::compute(&e);
        assert_eq!(s.grid_blocks, 4 * 2);
        assert_eq!(s.reduce_steps, 3);
    }

    #[test]
    fn bigger_smem_tiles_cut_dram_traffic() {
        let spec = GpuSpec::rtx4090();
        let small = Etir::initial(OpSpec::gemm(1024, 1024, 1024), &spec);
        let big = scheduled_gemm();
        let qs = ScheduleStats::compute(&small).dram_traffic_bytes;
        let qb = ScheduleStats::compute(&big).dram_traffic_bytes;
        assert!(qb < qs / 10.0, "tiling should slash traffic: {qb} vs {qs}");
    }

    #[test]
    fn reg_tiling_cuts_smem_traffic() {
        let spec = GpuSpec::rtx4090();
        let mut base = Etir::initial(OpSpec::gemm(512, 512, 512), &spec);
        for _ in 0..5 {
            base = base.apply(&Action::Tile { dim: 0 });
            base = base.apply(&Action::Tile { dim: 1 });
        }
        base = base.apply(&Action::Cache);
        let no_reg = ScheduleStats::compute(&base).smem_traffic_bytes;
        let mut tiled = base.clone();
        for _ in 0..2 {
            tiled = tiled.apply(&Action::Tile { dim: 0 });
            tiled = tiled.apply(&Action::Tile { dim: 1 });
        }
        let with_reg = ScheduleStats::compute(&tiled).smem_traffic_bytes;
        assert!(with_reg < no_reg / 2.0);
    }

    #[test]
    fn memcheck_flags_smem_overflow() {
        let spec = GpuSpec::rtx4090();
        let mut e = Etir::initial(OpSpec::gemm(1 << 14, 1 << 14, 1 << 14), &spec);
        // 4096x4096 smem tile with reduce tile 4 → A+B tiles = 2*4096*4*4B
        // = 128 KB < cap... grow reduce tile to blow it up.
        for _ in 0..12 {
            e = e.apply(&Action::Tile { dim: 0 });
            e = e.apply(&Action::Tile { dim: 1 });
        }
        for _ in 0..6 {
            e = e.apply(&Action::TileReduce { dim: 0 });
        }
        // 4096*64*2 elems * 4 B = 2 MB ≫ 100 KB.
        assert!(matches!(
            MemCheck::check(&e, &spec),
            MemCheck::SmemOverflow { .. }
        ));
    }

    #[test]
    fn memcheck_flags_thread_overflow() {
        let spec = GpuSpec::rtx4090();
        let mut e = Etir::initial(OpSpec::gemm(4096, 64, 4096), &spec);
        for _ in 0..6 {
            e = e.apply(&Action::Tile { dim: 0 });
            e = e.apply(&Action::Tile { dim: 1 });
        }
        // 64x64 block tile, reg tile 1 → 4096 threads > 1024.
        assert!(matches!(
            MemCheck::check(&e, &spec),
            MemCheck::TooManyThreads { .. }
        ));
    }

    #[test]
    fn memcheck_flags_reg_overflow() {
        let spec = GpuSpec::rtx4090();
        let mut e = Etir::initial(OpSpec::gemm(4096, 64, 4096), &spec);
        for _ in 0..9 {
            e = e.apply(&Action::Tile { dim: 0 });
            e = e.apply(&Action::Tile { dim: 1 });
        }
        e = e.apply(&Action::Cache);
        for _ in 0..5 {
            e = e.apply(&Action::Tile { dim: 0 });
            e = e.apply(&Action::Tile { dim: 1 });
        }
        // 32x32 accumulator tile = 1024 regs > 255.
        assert!(matches!(
            MemCheck::check(&e, &spec),
            MemCheck::RegOverflow { .. }
        ));
    }

    #[test]
    fn initial_state_fits_every_preset() {
        for spec in GpuSpec::all_presets() {
            let e = Etir::initial(OpSpec::gemm(8192, 8192, 8192), &spec);
            assert!(MemCheck::check(&e, &spec).fits(), "{}", spec.name);
        }
    }

    #[test]
    fn traffic_and_footprint_level_selectors() {
        let e = scheduled_gemm();
        let s = ScheduleStats::compute(&e);
        assert_eq!(s.traffic_at_level(0), s.dram_traffic_bytes);
        assert_eq!(s.traffic_at_level(1), s.smem_traffic_bytes);
        assert_eq!(s.footprint_at_level(0), s.smem_bytes_per_block as f64);
        assert_eq!(s.footprint_at_level(1), (s.regs_per_thread * 4) as f64);
    }

    #[test]
    fn l2_hit_rate_rises_with_tiling() {
        let spec = GpuSpec::rtx4090();
        let untiled = Etir::initial(OpSpec::gemm(4096, 4096, 4096), &spec);
        let tiled = scheduled_gemm();
        let hit = |e: &Etir| {
            let compulsory = e.op.compulsory_bytes() as f64;
            l2_hit_rate(&ScheduleStats::compute(e), compulsory, &spec)
        };
        let (h0, h1) = (hit(&untiled), hit(&tiled));
        assert!((0.0..=1.0).contains(&h0));
        assert!((0.0..=1.0).contains(&h1));
        assert!(h1 > 0.3, "tiled GEMM should see substantial L2 reuse: {h1}");
    }

    #[test]
    fn elementwise_has_minimal_smem_and_regs() {
        let spec = GpuSpec::rtx4090();
        let mut e = Etir::initial(OpSpec::elementwise(1 << 20, 2, 1), &spec);
        for _ in 0..8 {
            e = e.apply(&Action::Tile { dim: 0 });
        }
        let s = ScheduleStats::compute(&e);
        assert_eq!(s.reduce_steps, 1);
        assert!(s.regs_per_thread < 32);
        assert!(MemCheck::check(&e, &spec).fits());
    }
}
