//! What makes two operators, two devices or two schedules "the same": the
//! one hasher and three fingerprints that the schedule cache's keys, the
//! fabric's ring and the verdict cache are made of.
//!
//! An operator's and a device's fingerprint hash the compact JSON text of
//! the value, written straight into the hasher through the `serde` shim's
//! JSON text writers: no string is built and nothing is allocated, and the
//! bytes are the ones keys have always been derived from, so banked
//! records, ring positions and digests of earlier builds stay valid. A
//! `schedcache` test holds every field's text equal to what `serde_json`
//! writes for it, so a new field fails it until it is hashed here too.

use crate::state::Etir;
use hardware::GpuSpec;
use serde::{write_json_f64, write_json_str};
use std::fmt::{self, Write as _};
use tensor_expr::OpSpec;

/// FNV-1a's 64-bit offset basis.
const BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a's 64-bit prime.
const PRIME: u64 = 0x100_0000_01b3;

/// What [`Etir::fingerprint`] has always multiplied by, two zero digits
/// short of [`PRIME`]; every pinned schedule fingerprint is made with it.
const LEGACY_PRIME: u64 = 0x1_0000_01b3;

/// Streaming FNV-1a, 64-bit: the tree's one identity hasher.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv(u64);

impl Fnv {
    /// The empty stream.
    pub const EMPTY: Fnv = Fnv(BASIS);

    /// Feed raw bytes.
    #[inline]
    pub fn bytes(self, bytes: &[u8]) -> Fnv {
        Fnv(fold(self.0, bytes, PRIME))
    }

    /// The hash of everything fed so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// FNV-1a's step over `bytes` with multiplier `prime`.
#[inline]
fn fold(h: u64, bytes: &[u8], prime: u64) -> u64 {
    bytes
        .iter()
        .fold(h, |h, &b| (h ^ b as u64).wrapping_mul(prime))
}

/// `write!` feeds the formatted bytes, with no string built.
impl fmt::Write for Fnv {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        *self = self.bytes(s.as_bytes());
        Ok(())
    }
}

/// Fingerprint of an operator: its variant and every field, so two
/// operators share it only if they are equal (a conv's padding and an
/// elementwise op's arity included, which its label leaves out).
pub fn op_fingerprint(op: &OpSpec) -> u64 {
    let mut fnv = Fnv::EMPTY;
    match *op {
        OpSpec::Gemm { m, k, n } => write!(fnv, r#"{{"Gemm":{{"m":{m},"k":{k},"n":{n}}}}}"#),
        OpSpec::Gemv { m, n } => write!(fnv, r#"{{"Gemv":{{"m":{m},"n":{n}}}}}"#),
        OpSpec::Conv2d {
            n,
            c_in,
            h,
            w,
            c_out,
            kh,
            kw,
            stride,
            pad,
        } => write!(
            fnv,
            r#"{{"Conv2d":{{"n":{n},"c_in":{c_in},"h":{h},"w":{w},"c_out":{c_out},"kh":{kh},"kw":{kw},"stride":{stride},"pad":{pad}}}}}"#
        ),
        OpSpec::AvgPool2d {
            n,
            c,
            h,
            w,
            f,
            stride,
        } => write!(
            fnv,
            r#"{{"AvgPool2d":{{"n":{n},"c":{c},"h":{h},"w":{w},"f":{f},"stride":{stride}}}}}"#
        ),
        OpSpec::Elementwise {
            elems,
            num_inputs,
            ops_per_elem,
        } => write!(
            fnv,
            r#"{{"Elementwise":{{"elems":{elems},"num_inputs":{num_inputs},"ops_per_elem":{ops_per_elem}}}}}"#
        ),
    }
    .expect("hashing cannot fail");
    fnv.finish()
}

/// Fingerprint of a device model: every field of the spec and of each
/// memory level, the level's kind included, so two devices that differ
/// in any modelled quantity never share a schedule or a verdict.
pub fn gpu_fingerprint(spec: &GpuSpec) -> u64 {
    let mut fnv = Fnv::EMPTY;
    write_gpu(&mut fnv, spec).expect("hashing cannot fail");
    fnv.finish()
}

fn write_gpu(fnv: &mut Fnv, s: &GpuSpec) -> fmt::Result {
    fnv.write_str(r#"{"name":"#)?;
    write_json_str(fnv, &s.name)?;
    write!(fnv, r#","num_sms":{},"clock_ghz":"#, s.num_sms)?;
    write_json_f64(fnv, s.clock_ghz)?;
    fnv.write_str(r#","peak_fp32_gflops":"#)?;
    write_json_f64(fnv, s.peak_fp32_gflops)?;
    write!(
        fnv,
        concat!(
            r#","warp_size":{},"max_threads_per_sm":{},"max_threads_per_block":{},"#,
            r#""max_blocks_per_sm":{},"regs_per_sm":{},"max_regs_per_thread":{},"#,
            r#""max_smem_per_block":{},"kernel_launch_overhead_us":"#,
        ),
        s.warp_size,
        s.max_threads_per_sm,
        s.max_threads_per_block,
        s.max_blocks_per_sm,
        s.regs_per_sm,
        s.max_regs_per_thread,
        s.max_smem_per_block,
    )?;
    write_json_f64(fnv, s.kernel_launch_overhead_us)?;
    fnv.write_str(r#","levels":["#)?;
    for (i, l) in s.levels.iter().enumerate() {
        let comma = if i == 0 { "" } else { "," };
        write!(fnv, r#"{comma}{{"kind":"{:?}","name":"#, l.kind)?;
        write_json_str(fnv, &l.name)?;
        write!(
            fnv,
            r#","capacity_bytes":{},"latency_ns":"#,
            l.capacity_bytes
        )?;
        write_json_f64(fnv, l.latency_ns)?;
        fnv.write_str(r#","bandwidth_bytes_per_us":"#)?;
        write_json_f64(fnv, l.bandwidth_bytes_per_us)?;
        write!(
            fnv,
            r#","banks":{},"bank_width_bytes":{}}}"#,
            l.banks, l.bank_width_bytes
        )?;
    }
    fnv.write_str("]}")
}

/// Folds the text written into it with [`LEGACY_PRIME`], so
/// [`Etir::fingerprint`] hashes the operator's label without building it.
struct LegacyFold(u64);

impl fmt::Write for LegacyFold {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.0 = fold(self.0, s.as_bytes(), LEGACY_PRIME);
        Ok(())
    }
}

impl Etir {
    /// Stable content fingerprint: FNV-1a over the operator's label and
    /// every schedule parameter, each vector behind its length; fixed
    /// across runs and toolchains, unlike `Hash`. The label leaves out a
    /// conv's padding and an elementwise op's arity, so a key that must
    /// tell operators apart adds [`op_fingerprint`]. The bytes never
    /// change: suite goldens, pinned records and baseline digests hold them.
    pub fn fingerprint(&self) -> u64 {
        let eat = |h, bytes: &[u8]| fold(h, bytes, LEGACY_PRIME);
        let counted = |h, vals: &[u64]| {
            let h = eat(h, &(vals.len() as u64).to_le_bytes());
            vals.iter().fold(h, |h, v| eat(h, &v.to_le_bytes()))
        };
        let mut label = LegacyFold(BASIS);
        let _ = write!(label, "{}", self.op);
        let h = label.0;
        let h = counted(h, &[self.num_levels as u64, self.cur_level as u64]);
        let h = counted(counted(h, &self.smem_tile), &self.reg_tile);
        let h = counted(counted(h, &self.vthreads), &self.reduce_tile);
        counted(h, &[self.unroll])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hardware::{LevelKind, MemLevel};
    use serde::{Deserialize, Serialize, Value};
    use std::collections::HashSet;

    /// `op` with its field `i` bumped by one; `None` past its last field.
    fn bump_field(op: &OpSpec, i: usize) -> Option<OpSpec> {
        let mut v = op.to_value();
        let Value::Object(variant) = &mut v else {
            panic!("{v:?}")
        };
        let Value::Object(fields) = &mut variant[0].1 else {
            panic!("{variant:?}")
        };
        let Value::U64(x) = &mut fields.get_mut(i)?.1 else {
            panic!("{fields:?}")
        };
        *x += 1;
        Some(OpSpec::deserialize(&v).unwrap())
    }

    #[test]
    fn every_operator_field_and_variant_moves_the_operator_fingerprint() {
        let ops = [
            OpSpec::gemm(8, 8, 8),
            OpSpec::gemv(8, 8),
            OpSpec::conv2d(1, 8, 33, 33, 8, 3, 3, 1, 0),
            OpSpec::avg_pool2d(1, 8, 16, 16, 2, 2),
            OpSpec::elementwise(1 << 20, 1, 1),
        ];
        let (mut seen, mut fields) = (HashSet::new(), 0);
        for op in &ops {
            assert!(seen.insert(op_fingerprint(op)), "{op:?}");
            for bumped in (0..).map_while(|i| bump_field(op, i)) {
                assert!(seen.insert(op_fingerprint(&bumped)), "{bumped:?}");
                fields += 1;
            }
        }
        assert_eq!(fields, 3 + 2 + 9 + 6 + 3, "every field of every variant");
        // The same field values under another variant.
        assert_ne!(
            op_fingerprint(&OpSpec::gemm(8, 1, 1)),
            op_fingerprint(&OpSpec::elementwise(8, 1, 1))
        );
    }

    #[test]
    fn every_device_field_moves_the_device_fingerprint() {
        let base = GpuSpec::rtx4090();
        let device: [fn(&mut GpuSpec); 13] = [
            |s| s.name.push('x'),
            |s| s.num_sms += 1,
            |s| s.clock_ghz += 0.1,
            |s| s.peak_fp32_gflops += 1.0,
            |s| s.warp_size += 1,
            |s| s.max_threads_per_sm += 1,
            |s| s.max_threads_per_block += 1,
            |s| s.max_blocks_per_sm += 1,
            |s| s.regs_per_sm += 1,
            |s| s.max_regs_per_thread += 1,
            |s| s.max_smem_per_block += 1,
            |s| s.kernel_launch_overhead_us += 0.1,
            |s| drop(s.levels.pop()),
        ];
        let level: [fn(&mut MemLevel); 7] = [
            |l| l.kind = LevelKind::L2,
            |l| l.name.push('x'),
            |l| l.capacity_bytes += 1,
            |l| l.latency_ns += 0.1,
            |l| l.bandwidth_bytes_per_us += 1.0,
            |l| l.banks += 1,
            |l| l.bank_width_bytes += 1,
        ];
        let edited = |edit: &dyn Fn(&mut GpuSpec)| {
            let mut spec = base.clone();
            edit(&mut spec);
            assert_ne!(spec, base, "a no-op edit");
            spec
        };
        let mut specs: Vec<GpuSpec> = device.iter().map(|f| edited(f)).collect();
        specs.extend(level.iter().map(|f| edited(&|s| f(&mut s.levels[0]))));
        // Two levels with their kinds swapped.
        specs.push(edited(&|s| {
            let (a, b) = (s.levels[0].kind, s.levels[1].kind);
            (s.levels[0].kind, s.levels[1].kind) = (b, a);
        }));
        let mut seen = HashSet::from([gpu_fingerprint(&base)]);
        for spec in &specs {
            assert!(seen.insert(gpu_fingerprint(spec)), "{spec:?}");
        }
        assert_eq!(seen.len(), 1 + 13 + 7 + 1);
    }
}
