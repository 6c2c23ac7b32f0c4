//! `simgpu` — an analytical GPU kernel-performance simulator.
//!
//! This crate substitutes for the physical RTX 4090 / Orin Nano of the
//! paper's testbed (see DESIGN.md §2). Given a scheduled tensor program
//! ([`etir::Etir`]) and an architecture description ([`hardware::GpuSpec`]),
//! it produces a [`KernelReport`] with the metrics the paper's evaluation
//! tables use: execution time, achieved FLOPS, SM occupancy, memory
//! busy-ness, L2 hit rate and the bank-conflict serialization degree.
//!
//! The model is deliberately in the same family as the analytical models
//! construction compilers use internally (Roller's rProgram micro-perf
//! model): an occupancy calculation, a hierarchical bandwidth pipeline, a
//! latency-exposure term, and multiplicative efficiency losses for ragged
//! tiles and shared-memory bank conflicts. Every method in this repository
//! — Gensor, Roller, the Ansor stand-in, the vendor-library stand-in — is
//! ranked by this *same* oracle, so comparative results measure policy
//! quality, not oracle disagreement.

pub mod compiled;
pub mod model;
pub mod report;

pub use compiled::{parallel_map, pick_best, CompiledKernel, Tuner};
pub use model::{simulate, simulate_opts, simulate_stats, SimError, SimOptions};
pub use report::KernelReport;
