//! Canonical cache keys.
//!
//! A cached schedule is only valid for the exact (operator, device, policy)
//! triple it was constructed for, so the key is a product of three
//! fingerprints from [`etir::identity`]: [`op_fingerprint`] (every operator
//! field), [`gpu_fingerprint`] (every device field) and
//! [`policy_fingerprint`] (the tuner's name × [`POLICY_EPOCH`]). Their
//! values are the ones format-1 keys have always had, so records banked by
//! earlier builds keep hitting.

use etir::identity::{gpu_fingerprint, op_fingerprint, Fnv};
use hardware::GpuSpec;
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;
use tensor_expr::OpSpec;

/// On-disk format version. Records written with a different version are
/// skipped (and counted) at load time.
pub const FORMAT_VERSION: u32 = 1;

/// Construction-policy epoch. Part of every policy fingerprint: bumping it
/// after a change to the construction policy or the performance model
/// makes every cached schedule stop matching, without touching the files.
pub const POLICY_EPOCH: u32 = 1;

/// FNV-1a with a murmur-style finalizer: the tree's one well-mixed
/// 64-bit hash. Raw FNV-1a mixes the *high* bits poorly for short,
/// similar inputs (`"peer#0"`, `"peer#1"`, …), and ring placement orders
/// by exactly those bits.
pub fn hash64(bytes: &[u8]) -> u64 {
    let mut h = Fnv::EMPTY.bytes(bytes).finish();
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^ (h >> 33)
}

/// Fingerprint of a tuning policy: the method's name tied to the current
/// [`POLICY_EPOCH`], `"{method}#epoch{POLICY_EPOCH}"` fed straight to the
/// hasher, so deriving a key never touches the heap.
pub fn policy_fingerprint(method: &str) -> u64 {
    let mut fnv = Fnv::EMPTY;
    write!(fnv, "{method}#epoch{POLICY_EPOCH}").expect("hashing cannot fail");
    fnv.finish()
}

/// The canonical cache key: operator × device × policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct CacheKey {
    /// [`op_fingerprint`] of the operator.
    pub op_fp: u64,
    /// [`gpu_fingerprint`] of the device.
    pub gpu_fp: u64,
    /// [`policy_fingerprint`] of the method.
    pub policy_fp: u64,
}

impl CacheKey {
    /// Key for compiling `op` on `spec` with the named method.
    pub fn new(op: &OpSpec, spec: &GpuSpec, method: &str) -> Self {
        CacheKey {
            op_fp: op_fingerprint(op),
            gpu_fp: gpu_fingerprint(spec),
            policy_fp: policy_fingerprint(method),
        }
    }

    /// [`hash64`] over the three fingerprints' 24 little-endian bytes: a
    /// pure function of the key that spreads near-identical keys, so every
    /// daemon agrees on a key's ring position and its `CacheDigest` term.
    pub fn mix(&self) -> u64 {
        let mut bytes = [0u8; 24];
        bytes[..8].copy_from_slice(&self.op_fp.to_le_bytes());
        bytes[8..16].copy_from_slice(&self.gpu_fp.to_le_bytes());
        bytes[16..].copy_from_slice(&self.policy_fp.to_le_bytes());
        hash64(&bytes)
    }

    /// Digest shard index for an `n`-shard `CacheDigest` (mixes all three
    /// parts).
    pub fn shard(&self, n: usize) -> usize {
        let mixed = self
            .op_fp
            .rotate_left(17)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ self.gpu_fp.rotate_left(31)
            ^ self.policy_fp;
        (mixed % n as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distinct_shapes_get_distinct_keys() {
        let spec = GpuSpec::rtx4090();
        let a = CacheKey::new(&OpSpec::gemm(1024, 512, 512), &spec, "Gensor");
        let b = CacheKey::new(&OpSpec::gemm(1024, 512, 513), &spec, "Gensor");
        assert_ne!(a, b);
        assert_eq!(a.gpu_fp, b.gpu_fp);
        assert_eq!(a.policy_fp, b.policy_fp);
    }

    #[test]
    fn device_and_method_separate_keys() {
        let op = OpSpec::gemm(256, 256, 256);
        let k4090 = CacheKey::new(&op, &GpuSpec::rtx4090(), "Gensor");
        let korin = CacheKey::new(&op, &GpuSpec::orin_nano(), "Gensor");
        assert_ne!(k4090, korin);
        let kroller = CacheKey::new(&op, &GpuSpec::rtx4090(), "Roller");
        assert_ne!(k4090, kroller);
    }

    #[test]
    fn keys_are_stable_across_calls() {
        let op = OpSpec::conv2d(8, 32, 28, 28, 64, 3, 3, 1, 1);
        let spec = GpuSpec::a100();
        assert_eq!(
            CacheKey::new(&op, &spec, "Gensor"),
            CacheKey::new(&op, &spec, "Gensor")
        );
    }

    /// What keys were derived from when they went through `serde_json`.
    fn json_fp(value: &impl Serialize) -> u64 {
        let json = serde_json::to_string(value).unwrap();
        Fnv::EMPTY.bytes(json.as_bytes()).finish()
    }

    #[test]
    fn fingerprints_hash_exactly_the_json_text_keys_were_made_of() {
        let mut odd = GpuSpec::a100();
        odd.name = "quote\" back\\slash\n\t\r\u{1} ünï".into();
        odd.clock_ghz = 1e16;
        odd.peak_fp32_gflops = -0.0;
        odd.kernel_launch_overhead_us = f64::NAN;
        odd.levels[0].latency_ns = 0.1 + 0.2;
        odd.levels[1].bandwidth_bytes_per_us = f64::INFINITY;
        odd.levels[2].latency_ns = 9_999_999_999_999_998.0;
        odd.levels[2].bandwidth_bytes_per_us = -3.0;
        odd.levels.pop();
        for spec in GpuSpec::all_presets().iter().chain([&odd]) {
            assert_eq!(gpu_fingerprint(spec), json_fp(spec), "{}", spec.name);
        }
        let mut ops: Vec<OpSpec> = tensor_expr::benchmark_suite()
            .into_iter()
            .map(|c| c.op)
            .collect();
        ops.extend([
            OpSpec::gemv(u64::MAX, 1),
            OpSpec::avg_pool2d(1, 2, 3, 4, 2, 1),
            OpSpec::elementwise(7, 4, u32::MAX),
            OpSpec::conv2d(1, 8, 33, 33, 8, 3, 3, 1, 1),
        ]);
        for op in &ops {
            assert_eq!(op_fingerprint(op), json_fp(op), "{}", op.label());
        }
    }

    #[test]
    fn shard_is_in_range() {
        let spec = GpuSpec::rtx4090();
        for m in 1..64u64 {
            let k = CacheKey::new(&OpSpec::gemm(m, 64, 64), &spec, "Gensor");
            assert!(k.shard(16) < 16);
        }
    }
}
