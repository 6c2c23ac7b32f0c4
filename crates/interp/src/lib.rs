//! `interp` — a CPU reference executor for scheduled tensor programs.
//!
//! The paper's stack generates CUDA and checks results on the device
//! ("while ensuring the correctness of calculation", §V-A). This repository
//! cannot run CUDA, so correctness is established here instead: an
//! [`etir::Etir`] schedule is lowered by `LoopNest::to_nest` to the explicit
//! [`etir::loops::Nest`] — the very object `codegen` prints as CUDA — and
//! that nest is *executed* on the CPU, loop by loop, stage by stage. The
//! result is compared against a naive direct evaluation of the operator.
//!
//! What this validates is precisely the part a schedule can break: that the
//! tiled/strip-mined iteration covers every output point exactly once
//! (counted, in every build), that ragged (padded) lanes are masked, that
//! conv/pool halo arithmetic indexes the right input elements, that every
//! operand element the compute touches lies inside the staging buffers the
//! nest declares, and that the write-back happens after the reduction
//! closes. What it deliberately does not validate is performance — that is
//! `simgpu`'s job.

pub mod exec;
pub mod reference;
pub mod semantics;
pub mod tensor;

pub use exec::{execute_nest, execute_scheduled};
pub use reference::execute_reference;
pub use tensor::Tensor;

/// Typed failure from the reference executors, so sweeps (`gensor lint`,
/// data-driven tests) can record a finding and keep going instead of
/// aborting the whole run.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecError {
    /// `Compute` read an operand element outside a live stage of that
    /// operand, or the operand has no live stage at all.
    UnstagedRead {
        /// Name of the operand.
        operand: String,
        /// The (possibly out-of-tensor) coordinates it read.
        coords: Vec<i64>,
    },
    /// An output element was not written exactly once.
    Coverage {
        /// Flat output index.
        index: usize,
        /// How often the nest wrote it.
        writes: u32,
    },
    /// The scheduled execution disagrees with the direct reference.
    Mismatch {
        /// `OpSpec::label()` of the operator.
        op: String,
        /// `Etir::describe()` of the offending schedule.
        schedule: String,
        /// First disagreeing flat output index.
        index: usize,
        /// Reference value at that index.
        want: f32,
        /// Scheduled-execution value at that index.
        got: f32,
    },
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::UnstagedRead { operand, coords } => {
                write!(
                    f,
                    "compute reads {operand}{coords:?} outside its staging buffers"
                )
            }
            ExecError::Coverage { index, writes } => write!(
                f,
                "output element {index} written {writes} times, want exactly once"
            ),
            ExecError::Mismatch {
                op,
                schedule,
                index,
                want,
                got,
            } => write!(
                f,
                "schedule {schedule} computes wrong value for {op} at flat index {index}: \
                 want {want}, got {got}"
            ),
        }
    }
}

impl std::error::Error for ExecError {}

/// Compare two tensors elementwise with relative tolerance.
///
/// Returns the first mismatching flat index, if any.
pub fn mismatch(a: &Tensor, b: &Tensor, rel_tol: f32) -> Option<usize> {
    assert_eq!(a.shape, b.shape, "shape mismatch");
    a.data.iter().zip(&b.data).position(|(&x, &y)| {
        let scale = x.abs().max(y.abs()).max(1.0);
        (x - y).abs() > rel_tol * scale
    })
}

/// Run both executors on deterministic data and compare, returning the
/// first disagreement as a typed error.
pub fn try_check_schedule(e: &etir::Etir) -> Result<(), ExecError> {
    let inputs = tensor::make_inputs(&e.op, 7);
    let want = execute_reference(&e.op, &inputs);
    let got = execute_nest(&e.op, &etir::LoopNest::from_etir(e).to_nest(), &inputs)?;
    match mismatch(&want, &got, 1e-4) {
        None => Ok(()),
        Some(index) => Err(ExecError::Mismatch {
            op: e.op.label(),
            schedule: e.describe(),
            index,
            want: want.data[index],
            got: got.data[index],
        }),
    }
}

/// Convenience: [`try_check_schedule`] that panics with the diagnostic;
/// used pervasively by tests across the workspace.
pub fn check_schedule(e: &etir::Etir) {
    try_check_schedule(e).unwrap_or_else(|err| panic!("{err}"));
}
