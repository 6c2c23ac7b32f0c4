//! Kernel launch geometry: mapping the N-dimensional grid/block of a
//! schedule onto CUDA's 3-dimensional `dim3` spaces.

use etir::LoopNest;
use serde::{Deserialize, Serialize};

/// CUDA launch configuration for one scheduled operator.
///
/// CUDA grids and blocks are at most 3-D; schedules over 4-D spatial spaces
/// (conv/pool) fuse their leading grid dimensions into `grid.z` — the same
/// `fuse` primitive of Table I applied at the binding boundary.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LaunchConfig {
    /// Blocks per grid axis `(x, y, z)`; `x` is the innermost spatial dim.
    pub grid: (u64, u64, u64),
    /// Threads per block axis `(x, y, z)`.
    pub block: (u64, u64, u64),
    /// Dynamic shared memory per block in bytes.
    pub smem_bytes: u64,
}

impl LaunchConfig {
    /// Compute the launch geometry of a lowered schedule.
    pub fn from_nest(nest: &LoopNest, smem_bytes: u64) -> LaunchConfig {
        LaunchConfig {
            grid: pack3(&nest.grid),
            block: pack3(&nest.thread_dims),
            smem_bytes,
        }
    }

    /// Total blocks launched.
    pub fn total_blocks(&self) -> u64 {
        self.grid.0 * self.grid.1 * self.grid.2
    }

    /// Total threads per block.
    pub fn threads_per_block(&self) -> u64 {
        self.block.0 * self.block.1 * self.block.2
    }

    /// Render as a CUDA launch statement fragment.
    pub fn render(&self, kernel: &str, args: &str) -> String {
        format!(
            "dim3 grid({}, {}, {});\ndim3 block({}, {}, {});\n{}<<<grid, block, {}>>>({});",
            self.grid.0,
            self.grid.1,
            self.grid.2,
            self.block.0,
            self.block.1,
            self.block.2,
            kernel,
            self.smem_bytes,
            args
        )
    }
}

/// Pack an outer→inner dimension list into `(x, y, z)` with the innermost
/// dimension in `x` and all excess outer dimensions fused into `z`.
pub(crate) fn pack3(dims: &[u64]) -> (u64, u64, u64) {
    match dims.len() {
        0 => (1, 1, 1),
        1 => (dims[0], 1, 1),
        2 => (dims[1], dims[0], 1),
        _ => {
            let n = dims.len();
            let z: u64 = dims[..n - 2].iter().product();
            (dims[n - 1], dims[n - 2], z)
        }
    }
}

/// The inverse of [`pack3`] as a C expression: the index along the `j`-th
/// of `dims` recovered from `builtin` (`blockIdx` / `threadIdx`) — `.x` and
/// `.y` directly, the dimensions fused into `.z` by division and modulo.
pub(crate) fn unpack3(builtin: &str, dims: &[u64], j: usize) -> String {
    let n = dims.len();
    if j + 2 >= n {
        return format!("{builtin}.{}", if j + 1 == n { 'x' } else { 'y' });
    }
    let inner: u64 = dims[j + 1..n - 2].iter().product();
    let mut index = format!("{builtin}.z");
    if inner > 1 {
        index = format!("{index} / {inner}");
    }
    if j > 0 {
        index = format!("{index} % {}", dims[j]);
    }
    index
}

#[cfg(test)]
mod tests {
    use super::*;
    use etir::{Action, Etir};
    use hardware::GpuSpec;
    use tensor_expr::OpSpec;

    #[test]
    fn pack3_cases() {
        assert_eq!(pack3(&[]), (1, 1, 1));
        assert_eq!(pack3(&[5]), (5, 1, 1));
        assert_eq!(pack3(&[3, 7]), (7, 3, 1));
        assert_eq!(pack3(&[2, 3, 4, 5]), (5, 4, 6));
    }

    #[test]
    fn unpack3_inverts_pack3() {
        let dims = [2, 3, 4, 5];
        let got: Vec<String> = (0..4).map(|j| unpack3("blockIdx", &dims, j)).collect();
        assert_eq!(
            got,
            [
                "blockIdx.z / 3",
                "blockIdx.z % 3",
                "blockIdx.y",
                "blockIdx.x"
            ]
        );
        assert_eq!(unpack3("threadIdx", &[7], 0), "threadIdx.x");
        assert_eq!(unpack3("threadIdx", &[3, 7], 0), "threadIdx.y");
        // Three fused dimensions: the middle one needs both operators.
        assert_eq!(unpack3("b", &[2, 3, 4, 5, 6], 1), "b.z / 4 % 3");
    }

    #[test]
    fn gemm_launch_geometry() {
        let spec = GpuSpec::rtx4090();
        let mut e = Etir::initial(OpSpec::gemm(256, 64, 128), &spec);
        for _ in 0..6 {
            e = e.apply(&Action::Tile { dim: 0 }); // smem m = 64
        }
        for _ in 0..5 {
            e = e.apply(&Action::Tile { dim: 1 }); // smem n = 32
        }
        e = e.apply(&Action::Cache);
        for _ in 0..2 {
            e = e.apply(&Action::Tile { dim: 0 }); // reg m = 4
        }
        let nest = etir::LoopNest::from_etir(&e);
        let lc = LaunchConfig::from_nest(&nest, 4096);
        assert_eq!(lc.grid, (4, 4, 1)); // n-blocks in x, m-blocks in y
        assert_eq!(lc.block, (32, 16, 1)); // n-threads 32, m-threads 64/4
        assert_eq!(lc.total_blocks(), nest.total_blocks());
        assert_eq!(lc.threads_per_block(), nest.threads_per_block());
    }

    #[test]
    fn conv_grid_fuses_excess_dims_into_z() {
        let spec = GpuSpec::rtx4090();
        let mut e = Etir::initial(OpSpec::conv2d(8, 16, 16, 16, 32, 3, 3, 1, 1), &spec);
        for _ in 0..2 {
            e = e.apply(&Action::Tile { dim: 2 });
            e = e.apply(&Action::Tile { dim: 3 });
        }
        let nest = etir::LoopNest::from_etir(&e);
        // grid dims: [8, 32, 4, 4] → x=4, y=4, z=8*32.
        let lc = LaunchConfig::from_nest(&nest, 0);
        assert_eq!(lc.grid, (4, 4, 256));
    }

    #[test]
    fn render_contains_geometry() {
        let lc = LaunchConfig {
            grid: (4, 2, 1),
            block: (32, 8, 1),
            smem_bytes: 2048,
        };
        let s = lc.render("gemm_kernel", "A, B, C");
        assert!(s.contains("dim3 grid(4, 2, 1);"));
        assert!(s.contains("gemm_kernel<<<grid, block, 2048>>>(A, B, C);"));
    }
}
