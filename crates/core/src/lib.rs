//! `gensor` — graph-based construction tensor compilation (the paper's
//! primary contribution).
//!
//! Gensor abstracts tensor-program construction as a **graph traversal**:
//! nodes are tensor programs (ETIR states), edges are scheduling primitives
//! (tile / inverse-tile / cache / `setVthread` / unroll). Because tensor
//! programs are *independent and memory-less* — the value of a state does
//! not depend on how the walk reached it — the traversal is driven by
//! **Markov analysis**: every applicable action gets a *benefit* from
//! closed-form formulas over the current program and the hardware
//! architecture (paper Eqs. 1–3), benefits are normalized into transition
//! probabilities, and a roulette selection picks the edge (Alg. 2). A
//! simulated-annealing temperature schedule raises the probability of the
//! `cache` action over time so the walk descends through the memory levels
//! and terminates (Alg. 1); harvested intermediate states (`top_results`)
//! are scored by the analytical performance model and the best one wins.
//!
//! Module map:
//! * [`benefit`] — Eqs. (1)–(3): tiling, caching and vThread benefits.
//! * [`policy`] — Alg. 2: probability vector + roulette selection.
//! * [`walk`] — Alg. 1: the annealed construction walk.
//! * [`tuner`] — the user-facing [`Gensor`] tuner (multi-chain, parallel).
//! * [`markov`] — §IV-D: explicit-chain irreducibility / aperiodicity /
//!   stationarity checks and multiplicative value iteration.
//! * [`dynamic`] — [`transplant`]: re-target a schedule onto a nearby
//!   shape, the primitive the schedule cache's warm starts (the paper's
//!   §VII ongoing work, `schedcache::CachedTuner`) are built on.

pub mod benefit;
pub mod dynamic;
pub mod markov;
pub mod policy;
pub mod tuner;
pub mod walk;

pub use dynamic::transplant;
pub use policy::{ActionProb, Policy, StepScoring};
pub use tuner::{Gensor, GensorConfig};
pub use walk::{Walk, WalkRecord};
