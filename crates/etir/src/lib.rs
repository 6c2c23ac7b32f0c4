//! ETIR — the Enhanced Tensor IR of the Gensor paper (§IV-A).
//!
//! ETIR extends the classic tile-based tensor IR (Roller's rTile) with
//! *virtual threads*: each spatial dimension of a tensor program carries a
//! per-memory-level tile vector `D = [T_L, …, T_1, T_0]` — on NVIDIA parts
//! `L = 2`, i.e. a shared-memory tile, a per-thread register tile, and a
//! virtual-thread count that strip-mines the block tile across logical
//! threads before they are re-aggregated onto physical threads at codegen
//! time (paper Fig. 3).
//!
//! The crate provides:
//!
//! * [`Etir`] — the schedule state: one node of Gensor's construction graph
//!   ([`state`]).
//! * [`Action`] — the graph's edges: tiling / inverse tiling, caching-level
//!   advance, `setVthread`, unroll ([`action`]).
//! * The one hasher and the operator, device and schedule fingerprints
//!   every cache key is made of ([`identity`]).
//! * Footprint / traffic / occupancy analytics that the benefit formulas
//!   and the performance simulator consume ([`analytics`]).
//! * A small explicit loop-nest IR with the Table I scheduling primitives
//!   (`split`, `fuse`, `tile`, `unroll`, `cache`) used when lowering an
//!   [`Etir`] to an executable/printable form ([`loops`], [`lower`]).

pub mod action;
pub mod analytics;
pub mod identity;
pub mod loops;
pub mod lower;
pub mod state;

pub use action::Action;
pub use analytics::{MemCheck, OpCosts, OpShape, ScheduleStats, StateTiles};
pub use lower::LoopNest;
pub use state::{Etir, Tiles};
