//! A minimal dense FP32 tensor.

use tensor_expr::OpSpec;

/// Dense row-major FP32 tensor.
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    /// Dimension extents, outermost first.
    pub shape: Vec<usize>,
    /// Row-major data, `len == shape.iter().product()`.
    pub data: Vec<f32>,
}

impl Tensor {
    /// All-zeros tensor.
    pub fn zeros(shape: Vec<usize>) -> Tensor {
        let len = shape.iter().product();
        Tensor {
            shape,
            data: vec![0.0; len],
        }
    }

    /// Deterministic pseudo-random small-integer data (exact in FP32 sums),
    /// from a 64-bit SplitMix stream seeded by `seed`.
    pub fn random_small_ints(shape: Vec<usize>, seed: u64) -> Tensor {
        let len: usize = shape.iter().product();
        let mut state = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut data = Vec::with_capacity(len);
        for _ in 0..len {
            state = splitmix(state);
            // Values in -2..=2 keep long reductions exactly representable.
            data.push(((state >> 33) % 5) as f32 - 2.0);
        }
        Tensor { shape, data }
    }

    /// Flat index for coordinates.
    pub fn index(&self, coords: &[u64]) -> usize {
        debug_assert_eq!(coords.len(), self.shape.len());
        let mut idx = 0usize;
        for (c, s) in coords.iter().zip(&self.shape) {
            debug_assert!((*c as usize) < *s, "coord {c} out of extent {s}");
            idx = idx * s + *c as usize;
        }
        idx
    }

    /// Read by coordinates.
    pub fn get(&self, coords: &[u64]) -> f32 {
        self.data[self.index(coords)]
    }

    /// Write by coordinates.
    pub fn set(&mut self, coords: &[u64], v: f32) {
        let i = self.index(coords);
        self.data[i] = v;
    }
}

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Deterministic inputs for correctness checks.
pub fn make_inputs(op: &OpSpec, seed: u64) -> Vec<Tensor> {
    let accesses = op.accesses();
    let inputs = accesses[..accesses.len() - 1].iter().enumerate();
    inputs
        .map(|(i, a)| Tensor::random_small_ints(a.shape(), seed.wrapping_add(i as u64 * 1315)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_major_indexing() {
        let mut t = Tensor::zeros(vec![2, 3, 4]);
        t.set(&[1, 2, 3], 7.0);
        assert_eq!(t.index(&[1, 2, 3]), 12 + 2 * 4 + 3);
        assert_eq!(t.get(&[1, 2, 3]), 7.0);
        assert_eq!(t.get(&[0, 0, 0]), 0.0);
    }

    #[test]
    fn random_data_is_deterministic_and_small() {
        let a = Tensor::random_small_ints(vec![100], 42);
        let b = Tensor::random_small_ints(vec![100], 42);
        let c = Tensor::random_small_ints(vec![100], 43);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a
            .data
            .iter()
            .all(|&v| (-2.0..=2.0).contains(&v) && v.fract() == 0.0));
    }

    #[test]
    fn input_shapes_match_op() {
        let op = OpSpec::conv2d(2, 3, 8, 8, 4, 3, 3, 1, 1);
        let shapes: Vec<Vec<usize>> = op.accesses().iter().map(|a| a.shape()).collect();
        assert_eq!(
            shapes,
            vec![vec![2, 3, 8, 8], vec![4, 3, 3, 3], vec![2, 4, 8, 8]]
        );
    }

    #[test]
    fn make_inputs_gives_one_tensor_per_operand() {
        let op = OpSpec::gemm(4, 5, 6);
        let ins = make_inputs(&op, 1);
        assert_eq!(ins.len(), 2);
        assert_eq!(ins[0].shape, vec![4, 5]);
        assert_eq!(ins[1].shape, vec![5, 6]);
    }
}
