//! Tensor expression layer: operator descriptors for the Gensor stack.
//!
//! A construction tensor compiler does not need a full loop-level IR to make
//! scheduling decisions — it needs, for every operator, the *iteration
//! space* (spatial and reduction axes, paper §IV-A) and *data-footprint
//! functions*: given a tile of that iteration space, how many elements of
//! each operand does the tile touch? Everything the Gensor policy computes
//! (memory traffic `Q(T)`, footprint `F(T)`, the benefit formulas (1)–(3))
//! derives from those two ingredients.
//!
//! [`OpSpec`] describes the four operator classes of the paper's benchmark
//! (Conv2d, GEMM, GEMV, AvgPool2d) plus the memory-bound elementwise class
//! used by the end-to-end model graphs. [`suite`] reconstructs the paper's
//! Table IV: the 32 operator configurations used in Figs. 6–7.

pub mod op;
pub mod suite;

pub use op::{Access, Combine, DimAccess, OpClass, OpSpec, TileFootprint, DTYPE_BYTES};
pub use suite::{benchmark_suite, OpConfig};
