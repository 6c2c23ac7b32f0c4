//! The analytical kernel model.

use crate::report::KernelReport;
use etir::analytics::{l2_hit_rate, MemCheck, OpCosts, ScheduleStats};
use etir::Etir;
use hardware::{GpuSpec, LevelKind};

/// Simulation failure: the schedule does not fit the device.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// Capacity violation, with the failed check.
    Infeasible(MemCheck),
    /// A fault injected at the `simgpu.eval` failpoint (chaos testing
    /// only; never produced in normal operation).
    Injected(String),
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Infeasible(c) => write!(f, "schedule infeasible: {c:?}"),
            SimError::Injected(m) => write!(f, "injected fault: {m}"),
        }
    }
}

impl std::error::Error for SimError {}

/// Saturation constant for latency hiding through occupancy (TLP): at 25%
/// occupancy roughly half the stalls are hidden, near-full occupancy hides
/// ~95%.
const TLP_HIDING: f64 = 3.2;
/// Contribution of per-thread work (ILP) to latency hiding.
const ILP_HIDING: f64 = 0.12;
/// Fraction of the non-bottleneck pipelines that fails to overlap with the
/// bottleneck one (1.0 would be fully serial, 0.0 perfectly overlapped).
const OVERLAP_LOSS: f64 = 0.12;
/// Fraction of a bank-conflict serialization step that actually stalls the
/// shared-memory pipeline. Conflicts overlap with compute and other warps'
/// accesses, so an N-way conflict costs far less than N×; this calibration
/// puts the end-to-end effect of conflict-avoidance (vThreads, swizzling)
/// in the 5–20% band the paper's Table VI ablation reports.
const CONFLICT_STALL: f64 = 0.15;

/// Modelling options outside the schedule space.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimOptions {
    /// Assume a conflict-free swizzled shared-memory layout (what expert
    /// hand-written kernels do; compilers in this repository instead fight
    /// conflicts through the schedule, e.g. vThreads).
    pub swizzled_smem: bool,
}

/// Simulate one kernel launch of the scheduled program `e` on `spec`.
///
/// Returns [`SimError::Infeasible`] when the schedule violates a hardware
/// capacity limit — the same predicate the construction policies use to
/// zero out transition probabilities, so a policy can never "win" with an
/// unlaunchable kernel.
pub fn simulate(e: &Etir, spec: &GpuSpec) -> Result<KernelReport, SimError> {
    simulate_opts(e, spec, SimOptions::default())
}

/// [`simulate`] with explicit [`SimOptions`].
pub fn simulate_opts(e: &Etir, spec: &GpuSpec, opts: SimOptions) -> Result<KernelReport, SimError> {
    let costs = OpCosts::new(&e.op);
    let stats = ScheduleStats::compute_in(&costs.shape, e);
    simulate_stats(e, &stats, &costs, spec, opts)
}

/// [`simulate_opts`] on `e`'s [`ScheduleStats`] and its operator's
/// [`OpCosts`], which the caller holds (the walk carries both).
pub fn simulate_stats(
    e: &Etir,
    stats: &ScheduleStats,
    costs: &OpCosts,
    spec: &GpuSpec,
    opts: SimOptions,
) -> Result<KernelReport, SimError> {
    // Chaos site: evaluation is the innermost step every tuner leans on,
    // so injecting here exercises the whole stack's error paths (a
    // `panic` policy unwinds from inside `check`).
    if faults::check("simgpu.eval").is_some() {
        return Err(SimError::Injected("failpoint 'simgpu.eval'".into()));
    }
    obs::counter_inc!(
        "gensor_simgpu_simulations_total",
        "Analytical kernel-launch simulations run"
    );
    let threads_per_block = e.threads_per_block();
    let check = MemCheck::check_stats(stats, threads_per_block, spec);
    if !check.fits() {
        obs::counter_inc!(
            "gensor_simgpu_infeasible_total",
            "Simulations refused: schedule violates a hardware capacity limit"
        );
        return Err(SimError::Infeasible(check));
    }

    // ---------------- Occupancy ----------------
    let threads = threads_per_block.max(1);
    // Warp-granularity rounding: a 3-thread block still occupies one warp.
    let warps_per_block = threads.div_ceil(spec.warp_size as u64);
    let alloc_threads = warps_per_block * spec.warp_size as u64;
    let by_threads = spec.max_threads_per_sm as u64 / alloc_threads;
    let by_smem = spec
        .smem_per_sm()
        .checked_div(stats.smem_bytes_per_block)
        .unwrap_or(u64::MAX);
    let by_regs = spec.regs_per_sm as u64 / (stats.regs_per_thread * alloc_threads).max(1);
    let blocks_per_sm = by_threads
        .min(by_smem)
        .min(by_regs)
        .min(spec.max_blocks_per_sm as u64)
        .max(1);
    let resident_threads = (blocks_per_sm * alloc_threads).min(spec.max_threads_per_sm as u64);
    let mut occupancy = resident_threads as f64 / spec.max_threads_per_sm as f64;
    // Tail effect: a grid smaller than the device leaves SMs idle.
    let grid_fill = (stats.grid_blocks as f64 / spec.num_sms as f64).min(1.0);
    occupancy *= grid_fill;

    let concurrent_blocks =
        (spec.num_sms as f64 * blocks_per_sm as f64).min(stats.grid_blocks as f64);
    let waves = stats.grid_blocks as f64 / concurrent_blocks.max(1.0);
    // Wave quantization: the last partial wave costs a full wave of the
    // per-wave time (mild: blend ceil and exact).
    let wave_quant = (waves.ceil() / waves.max(1e-9)).clamp(1.0, 2.0);
    let wave_quant = 1.0 + 0.5 * (wave_quant - 1.0);

    // ---------------- Compute pipeline ----------------
    let shape = &costs.shape;
    let useful_flops = costs.flops;
    let launched_flops = useful_flops / shape.tile_efficiency(&e.smem_tile).max(1e-6);
    let work_per_thread: u64 = e.reg_tile.iter().product::<u64>() * e.unroll;
    let hiding = 1.0 - (-(TLP_HIDING * occupancy + ILP_HIDING * work_per_thread as f64)).exp();
    // Issue-width cap: ILP can hide latency but cannot conjure lanes — an
    // SM needs at least as many resident threads as FP32 cores to saturate
    // its pipes (one FMA per core per cycle).
    let cores_per_sm = spec.peak_fp32_gflops / (2.0 * spec.clock_ghz * spec.num_sms as f64);
    let lane_fill = (resident_threads as f64 * grid_fill / cores_per_sm).min(1.0);
    let compute_eff = (hiding * lane_fill).clamp(0.02, 0.98);
    // GFLOPS → FLOP/µs is ×1000.
    let peak_flop_per_us = spec.peak_fp32_gflops * 1000.0;
    let t_compute = launched_flops / (peak_flop_per_us * compute_eff);

    // ---------------- Memory pipeline ----------------
    let dram = spec.level(LevelKind::Dram);
    let l2 = spec.level(LevelKind::L2);
    let smem = spec.level(LevelKind::Shared);

    let compulsory = costs.compulsory_bytes as f64;
    let l2_hit = l2_hit_rate(stats, compulsory, spec);
    let requested = stats.dram_traffic_bytes;
    let dram_bytes = (requested * (1.0 - l2_hit)).max(compulsory.min(requested));
    // Coalescing: short staged rows waste DRAM line bandwidth.
    let dram_eff = shape.dram_efficiency(e);
    let t_dram = dram_bytes / (dram.bandwidth_bytes_per_us * dram_eff);
    let t_l2 = requested / l2.bandwidth_bytes_per_us;

    let conflict = if opts.swizzled_smem {
        1.0
    } else {
        shape.bank_conflict_degree(&e.smem_tile, &e.vthreads, spec)
    };
    let conflict_penalty = 1.0 + CONFLICT_STALL * (conflict - 1.0);
    let t_smem = stats.smem_traffic_bytes * conflict_penalty / smem.bandwidth_bytes_per_us;
    let t_memory = t_dram.max(t_l2).max(t_smem);

    // ---------------- Exposed latency ----------------
    // Each block issues `reduce_steps` dependent global→shared stages; the
    // round-trip latency is hidden by the other resident warps.
    let lat_us = dram.latency_ns / 1000.0;
    let resident_warps = (blocks_per_sm * warps_per_block) as f64;
    let t_latency = waves.ceil() * stats.reduce_steps as f64 * lat_us / resident_warps.max(1.0);

    // ---------------- Combine ----------------
    let bottleneck = t_compute.max(t_memory).max(t_latency);
    let others = t_compute + t_memory + t_latency - bottleneck;
    let t_total =
        (bottleneck + OVERLAP_LOSS * others) * wave_quant + spec.kernel_launch_overhead_us;

    let gflops = useful_flops / t_total / 1000.0;

    Ok(KernelReport {
        time_us: t_total,
        gflops,
        sm_occupancy: occupancy,
        mem_busy: (t_memory / t_total).clamp(0.0, 1.0),
        compute_throughput: (t_compute / t_total).clamp(0.0, 1.0),
        l2_hit_rate: l2_hit,
        bank_conflict_degree: conflict,
        dram_efficiency: dram_eff,
        grid_blocks: stats.grid_blocks,
        threads_per_block: threads,
        regs_per_thread: stats.regs_per_thread,
        smem_bytes_per_block: stats.smem_bytes_per_block,
        waves,
        t_compute_us: t_compute,
        t_memory_us: t_memory,
        t_latency_us: t_latency,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use etir::Action;
    use tensor_expr::OpSpec;

    /// A classic good GEMM schedule: 128x64 block tile, k-tile 8,
    /// 8x4 reg tile, 256 threads.
    fn good_gemm(m: u64, k: u64, n: u64, spec: &GpuSpec) -> Etir {
        let mut e = Etir::initial(OpSpec::gemm(m, k, n), spec);
        let try_apply = |e: &mut Etir, a: Action| {
            if e.can_apply(&a) {
                *e = e.apply(&a);
            }
        };
        for _ in 0..7 {
            try_apply(&mut e, Action::Tile { dim: 0 });
        }
        for _ in 0..6 {
            try_apply(&mut e, Action::Tile { dim: 1 });
        }
        for _ in 0..5 {
            // k-tile 32: keeps the staged A rows a full DRAM line wide.
            try_apply(&mut e, Action::TileReduce { dim: 0 });
        }
        e = e.apply(&Action::Cache);
        for _ in 0..3 {
            try_apply(&mut e, Action::Tile { dim: 0 });
        }
        for _ in 0..2 {
            try_apply(&mut e, Action::Tile { dim: 1 });
        }
        for _ in 0..2 {
            try_apply(&mut e, Action::Unroll);
        }
        e
    }

    #[test]
    fn big_gemm_reaches_healthy_fraction_of_peak() {
        let spec = GpuSpec::rtx4090();
        let e = good_gemm(8192, 8192, 8192, &spec);
        let r = simulate(&e, &spec).unwrap();
        let frac = r.gflops / spec.peak_fp32_gflops;
        assert!(
            frac > 0.25 && frac <= 1.0,
            "well-tiled 8k GEMM should land at 25%..100% of peak, got {frac:.3}"
        );
    }

    #[test]
    fn unscheduled_program_is_terrible() {
        let spec = GpuSpec::rtx4090();
        let op = OpSpec::gemm(2048, 2048, 2048);
        let naive = Etir::initial(op, &spec);
        let tuned = good_gemm(2048, 2048, 2048, &spec);
        let rn = simulate(&naive, &spec).unwrap();
        let rt = simulate(&tuned, &spec).unwrap();
        assert!(
            rt.gflops > 20.0 * rn.gflops,
            "tuning should be worth >20x: {} vs {}",
            rt.gflops,
            rn.gflops
        );
    }

    #[test]
    fn never_exceeds_peak_or_unit_fractions() {
        let spec = GpuSpec::rtx4090();
        for (m, k, n) in [(512, 512, 512), (8192, 8192, 8192), (65536, 4, 1024)] {
            let e = good_gemm(m, k, n, &spec);
            let r = simulate(&e, &spec).unwrap();
            assert!(r.gflops <= spec.peak_fp32_gflops * 1.0001);
            assert!((0.0..=1.0).contains(&r.sm_occupancy));
            assert!((0.0..=1.0).contains(&r.mem_busy));
            assert!((0.0..=1.0).contains(&r.compute_throughput));
            assert!((0.0..=1.0).contains(&r.l2_hit_rate));
            assert!(r.bank_conflict_degree >= 1.0);
            assert!(r.time_us > 0.0);
        }
    }

    #[test]
    fn gemv_is_memory_bound() {
        let spec = GpuSpec::rtx4090();
        let mut e = Etir::initial(OpSpec::gemv(16384, 16384), &spec);
        for _ in 0..7 {
            e = e.apply(&Action::Tile { dim: 0 });
        }
        for _ in 0..4 {
            e = e.apply(&Action::TileReduce { dim: 0 });
        }
        e = e.apply(&Action::Cache);
        let r = simulate(&e, &spec).unwrap();
        assert!(
            r.mem_busy > r.compute_throughput,
            "GEMV must be memory-bound: mem {} vs compute {}",
            r.mem_busy,
            r.compute_throughput
        );
        // Achieved bandwidth-bound FLOPS: 2 FLOP per 4 bytes of A →
        // ceiling ≈ 2/4 × 1008 GB/s ≈ 500 GFLOPS.
        assert!(r.gflops < 600.0, "{}", r.gflops);
    }

    #[test]
    fn edge_device_is_much_slower() {
        let server = GpuSpec::rtx4090();
        let edge = GpuSpec::orin_nano();
        let es = good_gemm(2048, 2048, 2048, &server);
        let ee = good_gemm(2048, 2048, 2048, &edge);
        let rs = simulate(&es, &server).unwrap();
        let re = simulate(&ee, &edge).unwrap();
        assert!(rs.gflops > 20.0 * re.gflops);
    }

    #[test]
    fn infeasible_schedule_is_rejected() {
        let spec = GpuSpec::rtx4090();
        let mut e = Etir::initial(OpSpec::gemm(8192, 8192, 8192), &spec);
        for _ in 0..12 {
            e = e.apply(&Action::Tile { dim: 0 });
            e = e.apply(&Action::Tile { dim: 1 });
        }
        for _ in 0..6 {
            e = e.apply(&Action::TileReduce { dim: 0 });
        }
        assert!(matches!(simulate(&e, &spec), Err(SimError::Infeasible(_))));
    }

    #[test]
    fn vthreads_cut_bank_conflicts() {
        let spec = GpuSpec::rtx4090();
        let mut e = Etir::initial(OpSpec::gemm(4096, 512, 4096), &spec);
        for _ in 0..7 {
            e = e.apply(&Action::Tile { dim: 0 });
            e = e.apply(&Action::Tile { dim: 1 }); // 128-wide block tile
        }
        for _ in 0..3 {
            e = e.apply(&Action::TileReduce { dim: 0 });
        }
        e = e.apply(&Action::Cache);
        for _ in 0..3 {
            e = e.apply(&Action::Tile { dim: 0 });
            e = e.apply(&Action::Tile { dim: 1 });
        }
        let conflict = |e: &Etir| {
            etir::OpShape::new(&e.op).bank_conflict_degree(&e.smem_tile, &e.vthreads, &spec)
        };
        let before = conflict(&e);
        assert!(before >= 2.0, "128-wide tile should conflict: {before}");
        let ev = e
            .apply(&Action::SetVthread { dim: 1 })
            .apply(&Action::SetVthread { dim: 1 });
        let after = conflict(&ev);
        assert!(after < before, "{after} !< {before}");
        let rb = simulate(&e, &spec).unwrap();
        let ra = simulate(&ev, &spec).unwrap();
        assert!(ra.time_us <= rb.time_us * 1.001);
    }

    #[test]
    fn launch_overhead_dominates_tiny_kernels() {
        let spec = GpuSpec::rtx4090();
        let mut e = Etir::initial(OpSpec::elementwise(1024, 1, 1), &spec);
        for _ in 0..6 {
            e = e.apply(&Action::Tile { dim: 0 });
        }
        let r = simulate(&e, &spec).unwrap();
        assert!(r.time_us >= spec.kernel_launch_overhead_us);
        assert!(r.time_us < spec.kernel_launch_overhead_us * 2.0);
    }

    #[test]
    fn partial_tiles_cost_throughput() {
        let spec = GpuSpec::rtx4090();
        // 1000 is not divisible by the 128-tile → padding waste on dim 1.
        let even = good_gemm(4096, 1024, 4096, &spec);
        let r_even = simulate(&even, &spec).unwrap();
        let ragged = good_gemm(4096, 1024, 4096 + 64, &spec);
        let r_ragged = simulate(&ragged, &spec).unwrap();
        // Ragged op does more useful work but its *efficiency* (fraction of
        // peak per useful FLOP) must not exceed the even case.
        let eff_even = r_even.gflops / 4096.0f64;
        let eff_ragged = r_ragged.gflops / 4160.0f64;
        assert!(eff_ragged < eff_even);
    }

    #[test]
    fn deeper_reduce_tiles_trade_traffic_for_smem() {
        let spec = GpuSpec::rtx4090();
        let base = good_gemm(4096, 4096, 4096, &spec);
        let r_base = simulate(&base, &spec).unwrap();
        // Halve the reduce tile → double the DRAM traffic → no faster.
        let shallow = base.apply(&Action::InvTileReduce { dim: 0 });
        let r_shallow = simulate(&shallow, &spec).unwrap();
        assert!(r_shallow.time_us >= r_base.time_us * 0.999);
    }

    #[test]
    fn report_breakdown_sums_sensibly() {
        let spec = GpuSpec::rtx4090();
        let e = good_gemm(4096, 4096, 4096, &spec);
        let r = simulate(&e, &spec).unwrap();
        let bottleneck = r.t_compute_us.max(r.t_memory_us).max(r.t_latency_us);
        assert!(r.time_us >= bottleneck);
        assert!(r.time_us <= r.t_compute_us + r.t_memory_us + r.t_latency_us + 100.0);
    }

    #[test]
    fn deterministic() {
        let spec = GpuSpec::rtx4090();
        let e = good_gemm(1024, 1024, 1024, &spec);
        let a = simulate(&e, &spec).unwrap();
        let b = simulate(&e, &spec).unwrap();
        assert_eq!(a, b);
    }
}
