//! `codegen` — CUDA-C source emission from scheduled ETIR programs.
//!
//! The paper's implementation hands the optimized schedule to TVM for code
//! generation (§V). This crate is the equivalent back end of the Rust
//! stack: it lowers an [`etir::Etir`] through `LoopNest::to_nest` and
//! prints the resulting loop nest as a complete CUDA-C translation unit —
//! grid/block launch geometry, `__shared__` staging buffers, virtual-thread
//! strip-mining, register-tile accumulation, `#pragma unroll` annotations
//! and ragged-edge masking — or as pseudo-code.
//!
//! There is no CUDA toolchain in this environment. The nest that is printed
//! here is the nest the `interp` crate executes against a naive reference,
//! so the loop order, stage sizes, masks and write-back position of the
//! text are covered by that oracle; tests check the text against the nest
//! and the schedule's analytics, and CI parses it with `g++ -fsyntax-only`.

pub mod harness;
pub mod kernels;
pub mod launch;
pub mod pseudo;

pub use harness::emit_host_harness;
pub use kernels::emit_cuda;
pub use launch::LaunchConfig;
pub use pseudo::emit_pseudo;
