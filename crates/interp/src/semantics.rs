//! Pointwise semantics of each operator: which input elements one
//! iteration point touches and how they combine.
//!
//! Both executors (naive and scheduled) are written against this single
//! definition — the evaluation of the operator's access map
//! ([`tensor_expr::OpSpec::accesses`]) and of its arithmetic — so a
//! disagreement between them can only come from the *iteration structure*:
//! exactly what a schedule may corrupt.

use tensor_expr::{Access, Combine, OpSpec};

/// Row-major offset of the element `access` touches at iteration `point`
/// (spatial coordinates, then reduce coordinates), or `None` when any
/// index falls outside `0..extent` — the implicit-zero padding region.
pub fn input_coords(access: &Access, point: &[u64]) -> Option<usize> {
    access.dims.iter().try_fold(0usize, |flat, d| {
        let i = d.at(point);
        (0..d.extent as i64)
            .contains(&i)
            .then(|| flat * d.extent as usize + i as usize)
    })
}

/// Combine the input values of one iteration point into a contribution to
/// the accumulator.
pub fn combine(op: &OpSpec, vals: &[f32]) -> f32 {
    match op.combine() {
        Combine::Product => vals.iter().product(),
        Combine::Sum => vals.iter().sum(),
    }
}

/// Finalize the accumulated value of one output element.
pub fn finalize(op: &OpSpec, acc: f32) -> f32 {
    acc / op.divisor() as f32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tensor::Tensor;

    /// `input_coords` of input `i`, compared against explicit coordinates.
    fn coords(op: &OpSpec, i: usize, sp: &[u64], rd: &[u64]) -> Option<usize> {
        input_coords(&op.accesses()[i], &[sp, rd].concat())
    }

    fn at(op: &OpSpec, i: usize, c: &[u64]) -> Option<usize> {
        Some(Tensor::zeros(op.accesses()[i].shape()).index(c))
    }

    #[test]
    fn gemm_coords() {
        let op = OpSpec::gemm(4, 5, 6);
        assert_eq!(coords(&op, 0, &[2, 3], &[1]), at(&op, 0, &[2, 1]));
        assert_eq!(coords(&op, 1, &[2, 3], &[1]), at(&op, 1, &[1, 3]));
    }

    #[test]
    fn conv_padding_is_masked() {
        let op = OpSpec::conv2d(1, 1, 4, 4, 1, 3, 3, 1, 1);
        // Output (0,0) with kernel tap (0,0) reads input (-1,-1) → padding.
        assert_eq!(coords(&op, 0, &[0, 0, 0, 0], &[0, 0, 0]), None);
        // Kernel tap (1,1) reads input (0,0).
        assert_eq!(
            coords(&op, 0, &[0, 0, 0, 0], &[0, 1, 1]),
            at(&op, 0, &[0, 0, 0, 0])
        );
        // Bottom-right corner output with tap (2,2) reads (4,4) → clipped.
        assert_eq!(coords(&op, 0, &[0, 0, 3, 3], &[0, 2, 2]), None);
    }

    #[test]
    fn strided_conv_coords() {
        let op = OpSpec::conv2d(1, 1, 8, 8, 1, 3, 3, 2, 0);
        assert_eq!(
            coords(&op, 0, &[0, 0, 1, 2], &[0, 1, 0]),
            at(&op, 0, &[0, 0, 3, 4])
        );
    }

    #[test]
    fn pool_semantics() {
        let op = OpSpec::avg_pool2d(1, 1, 4, 4, 2, 2);
        assert_eq!(combine(&op, &[3.0]), 3.0);
        assert_eq!(finalize(&op, 8.0), 2.0);
        // A window tap past the border is clipped.
        assert_eq!(
            coords(&op, 0, &[0, 0, 1, 1], &[1, 1]),
            at(&op, 0, &[0, 0, 3, 3])
        );
        let ragged = OpSpec::avg_pool2d(1, 1, 5, 5, 2, 2);
        assert_eq!(coords(&ragged, 0, &[0, 0, 1, 2], &[0, 1]), None);
    }

    #[test]
    fn elementwise_sums_inputs() {
        let op = OpSpec::elementwise(16, 3, 1);
        assert_eq!(combine(&op, &[1.0, 2.0, 4.0]), 7.0);
        assert_eq!(coords(&op, 2, &[5], &[]), at(&op, 2, &[5]));
    }
}
