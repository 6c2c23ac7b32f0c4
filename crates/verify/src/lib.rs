//! `verify` — static analysis over ETIR schedules and lowered loop nests.
//!
//! Gensor constructs schedules analytically; this crate *proves* the
//! results legal before anything runs, banks, or serves them. It is wired
//! into every layer that produces or imports a schedule:
//!
//! * the tuner debug-asserts its winners verify clean;
//! * the schedule cache verifies records loaded from disk (corrupt or
//!   cross-epoch records are skipped, counted, never served) and the
//!   transplanted seeds of cross-device warm starts;
//! * the serve daemon verifies before banking a result and answers a
//!   failing compile with a typed rejection instead of a kernel;
//! * codegen verifies the nest behind every kernel it emits;
//! * `gensor lint` exposes the whole pipeline on the command line.
//!
//! The pipeline ([`verify_schedule`]) is straight-line: a structural gate
//! (GS001–GS006) on the raw [`etir::Etir`]; then — only if the state is
//! safe to lower — one lowering to the [`etir::loops::Nest`] that `interp`
//! runs and `codegen` prints; capacity fit (GS007–GS009); the cover proof
//! about that nest and its agreement with the launch summary
//! (GS010–GS014); and performance lints (GS020–GS025). Diagnostics carry
//! stable codes and render both human-readable and as JSON. See DESIGN.md
//! §9 for the full code table.

pub mod bounds;
pub mod diag;
pub mod invariants;
pub mod lints;
pub mod provenance;
pub mod sarif;
pub mod verdict;
pub mod verifier;

pub use diag::{Code, Diagnostic, Report, Severity};
pub use provenance::{BoundaryPolicy, Provenance, Requirement};
pub use verdict::{VerdictCache, VerdictStats, VERIFIER_EPOCH};
pub use verifier::verify_schedule;

/// A schedule refused by the verifier: the typed rejection carried in
/// place of a kernel wherever a cache or service declines to serve an
/// illegal schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct Rejected(pub Report);

impl std::fmt::Display for Rejected {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "schedule rejected by verifier: {}", self.0.summary())
    }
}

impl std::error::Error for Rejected {}
