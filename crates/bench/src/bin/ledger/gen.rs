//! Inputs, all pure functions of the seed: the operator suite with its
//! seeded shape variants, the dynamic-shape GEMM universe and the Zipf
//! request stream the socket workloads replay.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tensor_expr::{benchmark_suite, OpClass, OpSpec};

/// Extent multipliers a variant draws from, as (numerator, denominator).
const FACTORS: [(u64, u64); 4] = [(1, 2), (3, 4), (3, 2), (2, 1)];

/// Variants per operator class. Deliberately lopsided: with 13 GEMV and
/// 13 GEMM among the 48 operators the median per-operator compile time
/// sits inside the GEMM cluster instead of on the 4× gap between the
/// GEMM and pooling clusters, where it would flip with scheduling noise.
const VARIANTS_PER_CLASS: [(OpClass, usize); 4] = [
    (OpClass::Conv2d, 3),
    (OpClass::Gemm, 5),
    (OpClass::Gemv, 5),
    (OpClass::AvgPool2d, 3),
];

/// One operator of a compile workload.
#[derive(Debug, Clone, PartialEq)]
pub struct SuiteOp {
    /// Table IV label, or `<label>~<k>` for the k-th seeded variant.
    pub label: String,
    pub op: OpSpec,
    /// Whether the shape is one of the 32 fixed Table IV rows.
    pub fixed: bool,
}

fn scale(extent: u64, rng: &mut StdRng) -> u64 {
    let (num, den) = FACTORS[rng.gen_range(0..FACTORS.len())];
    // Round to the nearest multiple of 8, never below 8.
    ((extent * num / den + 4) / 8 * 8).max(8)
}

/// `op` with every data extent rescaled by an independent draw from
/// [`FACTORS`]; window, stride and padding are kept.
pub fn variant_of(op: &OpSpec, rng: &mut StdRng) -> OpSpec {
    match *op {
        OpSpec::Gemm { m, k, n } => OpSpec::gemm(scale(m, rng), scale(k, rng), scale(n, rng)),
        OpSpec::Gemv { m, n } => OpSpec::gemv(scale(m, rng), scale(n, rng)),
        OpSpec::Conv2d {
            n,
            c_in,
            h,
            c_out,
            kh,
            kw,
            stride,
            pad,
            ..
        } => {
            let hw = scale(h, rng);
            OpSpec::conv2d(
                scale(n, rng),
                scale(c_in, rng),
                hw,
                hw,
                scale(c_out, rng),
                kh,
                kw,
                stride,
                pad,
            )
        }
        OpSpec::AvgPool2d {
            n, c, h, f, stride, ..
        } => {
            let hw = scale(h, rng);
            OpSpec::avg_pool2d(scale(n, rng), scale(c, rng), hw, hw, f, stride)
        }
        OpSpec::Elementwise { .. } => op.clone(),
    }
}

/// The 32 Table IV operators followed by 16 seeded variants.
pub fn suite_ops(seed: u64) -> Vec<SuiteOp> {
    let fixed = benchmark_suite();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED_0B50);
    let mut ops: Vec<SuiteOp> = fixed
        .iter()
        .map(|c| SuiteOp {
            label: c.label.clone(),
            op: c.op.clone(),
            fixed: true,
        })
        .collect();
    for (class, count) in VARIANTS_PER_CLASS {
        let of_class: Vec<_> = fixed.iter().filter(|c| c.op.class() == class).collect();
        for k in 0..count {
            let base = of_class[rng.gen_range(0..of_class.len())];
            ops.push(SuiteOp {
                label: format!("{}~{k}", base.label),
                op: variant_of(&base.op, &mut rng),
                fixed: false,
            });
        }
    }
    ops
}

/// Four operators small enough for the `interp` oracle, one per class.
pub fn oracle_ops() -> [OpSpec; 4] {
    [
        OpSpec::gemm(48, 24, 40),
        OpSpec::gemv(96, 56),
        OpSpec::conv2d(2, 4, 10, 10, 8, 3, 3, 1, 1),
        OpSpec::avg_pool2d(2, 6, 12, 12, 2, 2),
    ]
}

/// Size of the dynamic-shape universe: `s ∈ 1..=128` × `n ∈ {512, 2048}`.
pub const UNIVERSE: usize = 256;

/// The dynamic-shape BERT GEMMs `gemm(8·s, 512, n)`, in popularity order.
/// The order is a fixed shuffle, not a seeded one: which shapes are hot
/// decides how they collide in the cache's 16 LRU shards, and with it the
/// miss ratio the mixes are calibrated to. The seed orders the requests.
pub fn bert_universe() -> Vec<OpSpec> {
    let mut ops: Vec<OpSpec> = (0..UNIVERSE as u64)
        .map(|i| OpSpec::gemm(8 * (i / 2 + 1), 512, [512, 2048][(i % 2) as usize]))
        .collect();
    let mut rng = StdRng::seed_from_u64(0xBE27);
    for i in (1..ops.len()).rev() {
        ops.swap(i, rng.gen_range(0..=i));
    }
    ops
}

/// Zipf-distributed ranks in `0..n` (rank 0 most popular), drawn by
/// inverting the cumulative weight table.
#[derive(Debug, Clone)]
pub struct Zipf {
    cumulative: Vec<f64>,
    rng: StdRng,
}

impl Zipf {
    pub fn new(n: usize, exponent: f64, seed: u64) -> Zipf {
        assert!(n > 0, "Zipf over an empty universe");
        let mut total = 0.0;
        let cumulative = (1..=n)
            .map(|r| {
                total += (r as f64).powf(-exponent);
                total
            })
            .collect();
        Zipf {
            cumulative,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    pub fn next_rank(&mut self) -> usize {
        let total = *self.cumulative.last().expect("non-empty table");
        let ball = self.rng.gen::<f64>() * total;
        self.cumulative
            .partition_point(|&c| c <= ball)
            .min(self.cumulative.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_is_32_fixed_rows_plus_16_variants_and_a_pure_function_of_the_seed() {
        let a = suite_ops(7);
        assert_eq!(a.len(), 48);
        assert_eq!(a.iter().filter(|o| o.fixed).count(), 32);
        assert_eq!(a, suite_ops(7));
        assert_ne!(a, suite_ops(8));
        // The fixed rows never depend on the seed.
        assert_eq!(a[..32], suite_ops(8)[..32]);
        for (class, count) in VARIANTS_PER_CLASS {
            let n = a[32..].iter().filter(|o| o.op.class() == class).count();
            assert_eq!(n, count, "{class:?}");
        }
    }

    #[test]
    fn variant_extents_are_multiples_of_eight_within_half_to_double() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..200 {
            match variant_of(&OpSpec::gemm(1000, 4, 64), &mut rng) {
                OpSpec::Gemm { m, k, n } => {
                    assert!(m % 8 == 0 && (496..=2000).contains(&m), "m={m}");
                    assert_eq!(k, 8, "tiny extents clamp to 8");
                    assert!(n % 8 == 0 && (32..=128).contains(&n), "n={n}");
                }
                other => panic!("class changed: {other:?}"),
            }
        }
    }

    #[test]
    fn universe_is_a_fixed_permutation_of_the_256_shapes() {
        let u = bert_universe();
        assert_eq!(u.len(), UNIVERSE);
        assert_eq!(u, bert_universe());
        let mut labels: Vec<String> = u.iter().map(|o| o.label()).collect();
        labels.sort();
        labels.dedup();
        assert_eq!(labels.len(), UNIVERSE, "all shapes distinct");
    }

    #[test]
    fn zipf_is_seeded_and_skewed() {
        let draw = |seed| {
            let mut z = Zipf::new(UNIVERSE, 1.0, seed);
            (0..5000).map(|_| z.next_rank()).collect::<Vec<_>>()
        };
        let a = draw(1);
        assert_eq!(a, draw(1));
        assert_ne!(a, draw(2));
        assert!(a.iter().all(|&r| r < UNIVERSE));
        let top = a.iter().filter(|&&r| r == 0).count();
        let mid = a.iter().filter(|&&r| r == 9).count();
        assert!(top > 4 * mid, "rank 0 drawn {top}×, rank 9 {mid}×");
        // Exponent 0 is the uniform stream of the all-hit workload.
        let mut flat = Zipf::new(4, 0.0, 1);
        let mut seen = [0usize; 4];
        for _ in 0..4000 {
            seen[flat.next_rank()] += 1;
        }
        assert!(seen.iter().all(|&n| (800..1200).contains(&n)), "{seen:?}");
    }
}
