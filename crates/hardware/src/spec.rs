//! Architecture description types.
//!
//! A [`GpuSpec`] models a CUDA-class GPU at the granularity a construction
//! compiler needs: the memory hierarchy as an ordered list of [`MemLevel`]s
//! (DRAM → L2 → shared memory → registers), peak FP32 throughput, and the
//! occupancy limits that bound how many thread blocks an SM can host.

use serde::{Deserialize, Serialize};

/// The role a memory level plays in scheduling.
///
/// Only [`LevelKind::Shared`] and [`LevelKind::Register`] are *schedulable*:
/// a tensor program explicitly stages tiles into them. DRAM is the source of
/// truth and the L2 cache is hardware-managed, but both still participate in
/// the caching-benefit formula (paper Eq. 2) and in the performance model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LevelKind {
    /// Off-chip device memory (GDDR / LPDDR / HBM).
    Dram,
    /// On-chip, hardware-managed last-level cache.
    L2,
    /// Per-SM software-managed scratchpad ("shared memory").
    Shared,
    /// Per-thread register file.
    Register,
}

impl LevelKind {
    /// Whether a schedule explicitly allocates tiles at this level.
    pub fn is_schedulable(self) -> bool {
        matches!(self, LevelKind::Shared | LevelKind::Register)
    }
}

/// One level of the memory hierarchy.
///
/// Bandwidth is *aggregate* (whole chip) in bytes per microsecond, which is
/// numerically equal to MB/s ÷ 1 and convenient because kernel times in this
/// stack are kept in microseconds. Latency is in nanoseconds.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MemLevel {
    /// Role of the level (DRAM / L2 / shared / registers).
    pub kind: LevelKind,
    /// Human-readable name, e.g. `"GDDR6X"` or `"SMEM"`.
    pub name: String,
    /// Capacity in bytes. For [`LevelKind::Shared`] this is the per-SM
    /// capacity; for [`LevelKind::Register`] the per-thread capacity in
    /// bytes (registers × 4); for DRAM/L2 the whole-device capacity.
    pub capacity_bytes: u64,
    /// Access latency in nanoseconds.
    pub latency_ns: f64,
    /// Aggregate bandwidth in bytes per microsecond (== MB/ms == GB/s × 1000).
    pub bandwidth_bytes_per_us: f64,
    /// Number of banks (0 when banking is not modelled at this level).
    pub banks: u32,
    /// Width of one bank in bytes (4 on every NVIDIA generation we model).
    pub bank_width_bytes: u32,
}

impl MemLevel {
    /// Bandwidth in GB/s for display purposes.
    pub fn bandwidth_gbps(&self) -> f64 {
        self.bandwidth_bytes_per_us / 1000.0
    }

    /// Time in microseconds to move `bytes` through this level, including
    /// one latency charge. This is the `L + S/B` term of the paper's
    /// caching-benefit formula (Eq. 2).
    pub fn transfer_time_us(&self, bytes: f64) -> f64 {
        self.latency_ns / 1000.0 + bytes / self.bandwidth_bytes_per_us
    }
}

/// A complete GPU architecture description.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GpuSpec {
    /// Marketing name of the device.
    pub name: String,
    /// Number of streaming multiprocessors.
    pub num_sms: u32,
    /// SM clock in GHz.
    pub clock_ghz: f64,
    /// Peak FP32 throughput in GFLOPS (whole device).
    pub peak_fp32_gflops: f64,
    /// Threads per warp (32 on all NVIDIA parts).
    pub warp_size: u32,
    /// Maximum resident threads per SM.
    pub max_threads_per_sm: u32,
    /// Maximum threads in a single block.
    pub max_threads_per_block: u32,
    /// Maximum resident blocks per SM.
    pub max_blocks_per_sm: u32,
    /// 32-bit registers per SM.
    pub regs_per_sm: u32,
    /// Maximum 32-bit registers a single thread may use.
    pub max_regs_per_thread: u32,
    /// Shared memory usable by one block, in bytes (≤ per-SM capacity).
    pub max_smem_per_block: u64,
    /// Fixed cost of launching one kernel, in microseconds.
    pub kernel_launch_overhead_us: f64,
    /// Memory hierarchy ordered from farthest (DRAM, index 0) to closest
    /// (registers, last index).
    pub levels: Vec<MemLevel>,
}

/// Why a [`GpuSpec`] is not internally consistent. Surfaced as a typed
/// value so spec problems become diagnostics, not crashes.
#[derive(Debug, Clone, PartialEq)]
pub enum SpecError {
    /// The hierarchy defines no memory levels at all.
    NoLevels { spec: String },
    /// A required level kind is absent from the hierarchy.
    MissingLevel { spec: String, kind: LevelKind },
    /// Bandwidth decreases moving toward compute.
    InvertedBandwidth { outer: String, inner: String },
    /// Latency increases moving toward compute.
    InvertedLatency { outer: String, inner: String },
    /// A single block may allocate more shared memory than one SM has.
    SmemBlockExceedsSm { block: u64, sm: u64 },
    /// A single block may hold more threads than one SM hosts.
    ThreadsBlockExceedsSm { block: u32, sm: u32 },
    /// Zero SMs or non-positive peak throughput.
    NonPositiveCompute { spec: String },
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpecError::NoLevels { spec } => write!(f, "GpuSpec {spec} has no memory levels"),
            SpecError::MissingLevel { spec, kind } => {
                write!(f, "GpuSpec {spec} lacks level {kind:?}")
            }
            SpecError::InvertedBandwidth { outer, inner } => {
                write!(
                    f,
                    "bandwidth must increase toward compute: {inner} < {outer}"
                )
            }
            SpecError::InvertedLatency { outer, inner } => {
                write!(f, "latency must decrease toward compute: {inner} > {outer}")
            }
            SpecError::SmemBlockExceedsSm { block, sm } => write!(
                f,
                "max_smem_per_block ({block} B) exceeds per-SM capacity ({sm} B)"
            ),
            SpecError::ThreadsBlockExceedsSm { block, sm } => write!(
                f,
                "max_threads_per_block ({block}) exceeds per-SM thread limit ({sm})"
            ),
            SpecError::NonPositiveCompute { spec } => {
                write!(f, "GpuSpec {spec} has non-positive compute capability")
            }
        }
    }
}

impl std::error::Error for SpecError {}

impl GpuSpec {
    /// Index of the first level with the given kind, if present.
    pub fn level_index(&self, kind: LevelKind) -> Option<usize> {
        self.levels.iter().position(|l| l.kind == kind)
    }

    /// The level with the given kind, or a typed error when the spec
    /// lacks it (every preset defines all four kinds).
    #[inline]
    pub fn try_level(&self, kind: LevelKind) -> Result<&MemLevel, SpecError> {
        self.levels
            .iter()
            .find(|l| l.kind == kind)
            .ok_or_else(|| SpecError::MissingLevel {
                spec: self.name.clone(),
                kind,
            })
    }

    /// The level with the given kind. Panics if the spec lacks it; use
    /// [`GpuSpec::try_level`] where a missing level should be a
    /// diagnostic rather than a crash.
    #[inline]
    pub fn level(&self, kind: LevelKind) -> &MemLevel {
        self.try_level(kind).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Indices of the schedulable levels, ordered far → near
    /// (shared memory first, registers last).
    pub fn schedulable_levels(&self) -> Vec<usize> {
        self.levels
            .iter()
            .enumerate()
            .filter(|(_, l)| l.kind.is_schedulable())
            .map(|(i, _)| i)
            .collect()
    }

    /// Number of schedulable cache layers `L` in the paper's
    /// `D = [T_L, …, T_1, T_0]` notation (2 on every NVIDIA preset:
    /// shared memory and registers).
    pub fn num_schedulable_levels(&self) -> usize {
        self.levels
            .iter()
            .filter(|l| l.kind.is_schedulable())
            .count()
    }

    /// Peak FP32 throughput of a *single* SM in GFLOPS.
    pub fn peak_gflops_per_sm(&self) -> f64 {
        self.peak_fp32_gflops / self.num_sms as f64
    }

    /// Shared-memory capacity per SM in bytes.
    pub fn smem_per_sm(&self) -> u64 {
        self.level(LevelKind::Shared).capacity_bytes
    }

    /// Basic internal-consistency checks; every preset must pass.
    pub fn validate(&self) -> Result<(), SpecError> {
        if self.levels.is_empty() {
            return Err(SpecError::NoLevels {
                spec: self.name.clone(),
            });
        }
        for kind in [
            LevelKind::Dram,
            LevelKind::L2,
            LevelKind::Shared,
            LevelKind::Register,
        ] {
            self.try_level(kind)?;
        }
        // Levels must be ordered far → near: bandwidth must not decrease.
        for w in self.levels.windows(2) {
            if w[1].bandwidth_bytes_per_us < w[0].bandwidth_bytes_per_us {
                return Err(SpecError::InvertedBandwidth {
                    outer: w[0].name.clone(),
                    inner: w[1].name.clone(),
                });
            }
            if w[1].latency_ns > w[0].latency_ns {
                return Err(SpecError::InvertedLatency {
                    outer: w[0].name.clone(),
                    inner: w[1].name.clone(),
                });
            }
        }
        if self.max_smem_per_block > self.smem_per_sm() {
            return Err(SpecError::SmemBlockExceedsSm {
                block: self.max_smem_per_block,
                sm: self.smem_per_sm(),
            });
        }
        if self.max_threads_per_block > self.max_threads_per_sm {
            return Err(SpecError::ThreadsBlockExceedsSm {
                block: self.max_threads_per_block,
                sm: self.max_threads_per_sm,
            });
        }
        if self.peak_fp32_gflops <= 0.0 || self.num_sms == 0 {
            return Err(SpecError::NonPositiveCompute {
                spec: self.name.clone(),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_level(kind: LevelKind, lat: f64, bw: f64) -> MemLevel {
        MemLevel {
            kind,
            name: format!("{kind:?}"),
            capacity_bytes: 1 << 20,
            latency_ns: lat,
            bandwidth_bytes_per_us: bw,
            banks: 32,
            bank_width_bytes: 4,
        }
    }

    fn toy_spec() -> GpuSpec {
        GpuSpec {
            name: "toy".into(),
            num_sms: 4,
            clock_ghz: 1.0,
            peak_fp32_gflops: 1000.0,
            warp_size: 32,
            max_threads_per_sm: 1024,
            max_threads_per_block: 512,
            max_blocks_per_sm: 16,
            regs_per_sm: 65536,
            max_regs_per_thread: 255,
            max_smem_per_block: 1 << 19,
            kernel_launch_overhead_us: 3.0,
            levels: vec![
                toy_level(LevelKind::Dram, 400.0, 1_000.0),
                toy_level(LevelKind::L2, 200.0, 4_000.0),
                toy_level(LevelKind::Shared, 25.0, 16_000.0),
                toy_level(LevelKind::Register, 1.0, 64_000.0),
            ],
        }
    }

    #[test]
    fn toy_spec_validates() {
        toy_spec().validate().unwrap();
    }

    #[test]
    fn schedulable_levels_are_shared_then_register() {
        let s = toy_spec();
        let idx = s.schedulable_levels();
        assert_eq!(idx.len(), 2);
        assert_eq!(s.levels[idx[0]].kind, LevelKind::Shared);
        assert_eq!(s.levels[idx[1]].kind, LevelKind::Register);
        assert_eq!(s.num_schedulable_levels(), 2);
    }

    #[test]
    fn transfer_time_combines_latency_and_bandwidth() {
        let l = toy_level(LevelKind::Dram, 1000.0, 2000.0);
        // 1 us latency + 4000 bytes / 2000 B/us = 1 + 2 = 3 us.
        let t = l.transfer_time_us(4000.0);
        assert!((t - 3.0).abs() < 1e-12);
    }

    #[test]
    fn validate_rejects_inverted_bandwidth() {
        let mut s = toy_spec();
        s.levels[2].bandwidth_bytes_per_us = 10.0; // SMEM slower than L2
        assert!(matches!(
            s.validate(),
            Err(SpecError::InvertedBandwidth { .. })
        ));
    }

    #[test]
    fn validate_rejects_missing_level() {
        let mut s = toy_spec();
        s.levels.remove(1);
        assert_eq!(
            s.validate(),
            Err(SpecError::MissingLevel {
                spec: "toy".into(),
                kind: LevelKind::L2
            })
        );
    }

    #[test]
    fn validate_rejects_oversized_block_smem() {
        let mut s = toy_spec();
        s.max_smem_per_block = s.smem_per_sm() + 1;
        assert!(matches!(
            s.validate(),
            Err(SpecError::SmemBlockExceedsSm { .. })
        ));
    }

    #[test]
    fn try_level_reports_missing_kind_as_typed_error() {
        let mut s = toy_spec();
        s.levels.remove(1);
        assert!(s.try_level(LevelKind::Shared).is_ok());
        assert_eq!(
            s.try_level(LevelKind::L2),
            Err(SpecError::MissingLevel {
                spec: "toy".into(),
                kind: LevelKind::L2
            })
        );
    }

    #[test]
    fn level_lookup_by_kind() {
        let s = toy_spec();
        assert_eq!(s.level(LevelKind::L2).kind, LevelKind::L2);
        assert_eq!(s.level_index(LevelKind::Register), Some(3));
    }

    #[test]
    fn per_sm_peak_is_total_over_sms() {
        let s = toy_spec();
        assert!((s.peak_gflops_per_sm() - 250.0).abs() < 1e-9);
    }
}
