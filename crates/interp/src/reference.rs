//! Naive direct evaluation — the ground truth the scheduled executor is
//! checked against.

use crate::semantics::{combine, finalize, input_coords};
use crate::tensor::Tensor;
use tensor_expr::OpSpec;

/// Iterate an N-dimensional box `[0, extents)` in row-major order.
pub(crate) fn for_each_point(extents: &[u64], mut f: impl FnMut(&[u64])) {
    if extents.contains(&0) {
        return;
    }
    let mut coords = vec![0u64; extents.len()];
    loop {
        f(&coords);
        // Odometer increment.
        let mut d = extents.len();
        loop {
            if d == 0 {
                return;
            }
            d -= 1;
            coords[d] += 1;
            if coords[d] < extents[d] {
                break;
            }
            coords[d] = 0;
        }
    }
}

/// Evaluate `op` directly: for every output point, fold the whole reduce
/// space through [`combine`], then [`finalize`].
pub fn execute_reference(op: &OpSpec, inputs: &[Tensor]) -> Tensor {
    let sp_ext = op.spatial_extents();
    let rd_ext = op.reduce_extents();
    let accesses = op.accesses();
    let mut out = Tensor::zeros(accesses.last().expect("output operand").shape());
    let mut vals = vec![0.0f32; inputs.len()];
    let mut point = vec![0u64; sp_ext.len() + rd_ext.len()];
    for_each_point(&sp_ext, |sp| {
        point[..sp.len()].copy_from_slice(sp);
        let mut acc = 0.0f32;
        // An empty reduce space is one point, not none.
        for_each_point(&rd_ext, |rd| {
            point[sp.len()..].copy_from_slice(rd);
            for ((v, t), access) in vals.iter_mut().zip(inputs).zip(&accesses) {
                *v = input_coords(access, &point).map_or(0.0, |at| t.data[at]);
            }
            acc += combine(op, &vals);
        });
        out.set(sp, finalize(op, acc));
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tensor::make_inputs;

    #[test]
    fn for_each_point_visits_row_major() {
        let mut seen = Vec::new();
        for_each_point(&[2, 3], |c| seen.push((c[0], c[1])));
        assert_eq!(seen, vec![(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]);
    }

    #[test]
    fn for_each_point_empty_extent_is_noop() {
        let mut n = 0;
        for_each_point(&[3, 0], |_| n += 1);
        assert_eq!(n, 0);
    }

    #[test]
    fn gemm_2x2_hand_check() {
        let op = OpSpec::gemm(2, 2, 2);
        let a = Tensor {
            shape: vec![2, 2],
            data: vec![1.0, 2.0, 3.0, 4.0],
        };
        let b = Tensor {
            shape: vec![2, 2],
            data: vec![5.0, 6.0, 7.0, 8.0],
        };
        let c = execute_reference(&op, &[a, b]);
        assert_eq!(c.data, vec![19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn gemv_hand_check() {
        let op = OpSpec::gemv(2, 3);
        let a = Tensor {
            shape: vec![2, 3],
            data: vec![1.0, 0.0, -1.0, 2.0, 2.0, 2.0],
        };
        let x = Tensor {
            shape: vec![3],
            data: vec![3.0, 4.0, 5.0],
        };
        let y = execute_reference(&op, &[a, x]);
        assert_eq!(y.data, vec![3.0 - 5.0, 6.0 + 8.0 + 10.0]);
    }

    #[test]
    fn identity_conv_passes_input_through() {
        // 1x1 kernel with weight 1 on a single channel = identity.
        let op = OpSpec::conv2d(1, 1, 3, 3, 1, 1, 1, 1, 0);
        let inputs = make_inputs(&op, 3);
        let mut w = inputs[1].clone();
        w.data = vec![1.0];
        let out = execute_reference(&op, &[inputs[0].clone(), w]);
        assert_eq!(out.data, inputs[0].data);
    }

    #[test]
    fn padded_conv_border_uses_zeros() {
        // All-ones 3x3 kernel, pad 1, all-ones 3x3 input: center output = 9,
        // corner output = 4 (only 4 taps in range).
        let op = OpSpec::conv2d(1, 1, 3, 3, 1, 3, 3, 1, 1);
        let i = Tensor {
            shape: vec![1, 1, 3, 3],
            data: vec![1.0; 9],
        };
        let k = Tensor {
            shape: vec![1, 1, 3, 3],
            data: vec![1.0; 9],
        };
        let out = execute_reference(&op, &[i, k]);
        assert_eq!(out.shape, vec![1, 1, 3, 3]);
        assert_eq!(out.get(&[0, 0, 1, 1]), 9.0);
        assert_eq!(out.get(&[0, 0, 0, 0]), 4.0);
        assert_eq!(out.get(&[0, 0, 0, 1]), 6.0);
    }

    #[test]
    fn avg_pool_averages_windows() {
        let op = OpSpec::avg_pool2d(1, 1, 4, 4, 2, 2);
        let data: Vec<f32> = (0..16).map(|x| x as f32).collect();
        let i = Tensor {
            shape: vec![1, 1, 4, 4],
            data,
        };
        let out = execute_reference(&op, &[i]);
        // Window (0,0): mean(0,1,4,5) = 2.5.
        assert_eq!(out.get(&[0, 0, 0, 0]), 2.5);
        assert_eq!(out.get(&[0, 0, 1, 1]), 12.5);
    }

    #[test]
    fn elementwise_adds_operands() {
        let op = OpSpec::elementwise(4, 2, 1);
        let a = Tensor {
            shape: vec![4],
            data: vec![1.0, 2.0, 3.0, 4.0],
        };
        let b = Tensor {
            shape: vec![4],
            data: vec![10.0, 20.0, 30.0, 40.0],
        };
        let out = execute_reference(&op, &[a, b]);
        assert_eq!(out.data, vec![11.0, 22.0, 33.0, 44.0]);
    }
}
