//! The driver: structural gate, one lowering, then capacity, cover, lints.

use crate::bounds::{cover, summary_agrees};
use crate::diag::Report;
use crate::invariants::{
    capacity, structural, CAPACITY_PASS, COVER_PASS, LINTS_PASS, STRUCTURAL_PASS,
};
use crate::lints::lints;
use etir::{Etir, LoopNest};
use hardware::GpuSpec;

/// Verify `e`, optionally against a concrete device. With `spec = None`
/// the hardware-dependent checks (capacity, bank conflicts, occupancy) are
/// skipped; everything structural still runs.
///
/// Verification never panics, whatever garbage the schedule contains: the
/// structural gate (GS001–GS006) runs on the raw state first, and only
/// when it finds no error is the state lowered — once — into the
/// [`LoopNest`] summary and the [`etir::loops::Nest`] that `interp` runs
/// and `codegen` prints, which the remaining checks read.
pub fn verify_schedule(e: &Etir, spec: Option<&GpuSpec>) -> Report {
    let _sp = obs::span!("verify", op = e.op.label(), with_spec = spec.is_some());
    obs::counter_inc!("gensor_verify_runs_total", "Schedule verifications run");
    let mut report = Report {
        op_label: e.op.label(),
        schedule: e.describe(),
        gpu: spec.map(|s| s.name.clone()),
        diagnostics: Vec::new(),
    };
    {
        let _gate = obs::span!("verify.pass", pass = STRUCTURAL_PASS);
        structural(e, &mut report.diagnostics);
    }
    if report.is_legal() {
        let out = &mut report.diagnostics;
        let summary = LoopNest::from_etir(e);
        let nest = summary.to_nest();
        {
            let _pp = obs::span!("verify.pass", pass = CAPACITY_PASS);
            capacity(e, spec, out);
        }
        {
            let _pp = obs::span!("verify.pass", pass = COVER_PASS);
            out.extend(cover(&nest));
            summary_agrees(&summary, &nest, out);
        }
        {
            let _pp = obs::span!("verify.pass", pass = LINTS_PASS);
            lints(e, &summary, spec, out);
        }
    }
    if report.error_count() > 0 {
        obs::counter_inc!(
            "gensor_verify_rejected_total",
            "Verifications that found at least one error"
        );
    }
    report.normalize();
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::Code;
    use tensor_expr::OpSpec;

    #[test]
    fn garbage_state_is_rejected_without_panicking() {
        let spec = GpuSpec::rtx4090();
        let mut e = Etir::initial(OpSpec::gemm(512, 512, 512), &spec);
        e.smem_tile = [0, 7].into();
        e.reg_tile = [3, 0].into();
        e.vthreads = [0, 0].into();
        e.reduce_tile = [u64::MAX].into();
        e.unroll = 0;
        e.cur_level = 99;
        let report = verify_schedule(&e, Some(&spec));
        assert!(!report.is_legal());
        assert!(report.diagnostics.iter().any(|d| d.code == Code::ZeroTile));
    }

    #[test]
    fn clean_initial_state_verifies_with_only_infos() {
        let spec = GpuSpec::rtx4090();
        let e = Etir::initial(OpSpec::gemm(512, 512, 512), &spec);
        let report = verify_schedule(&e, Some(&spec));
        assert!(report.is_legal(), "{}", report.render());
        assert_eq!(report.warning_count(), 0, "{}", report.render());
    }

    #[test]
    fn specless_verification_skips_hardware_checks() {
        let spec = GpuSpec::orin_nano();
        let mut e = Etir::initial(OpSpec::gemm(4096, 4096, 4096), &spec);
        // A tile far beyond Orin's shared memory: illegal with the spec,
        // structurally fine without it.
        e.smem_tile = [512, 512].into();
        e.reduce_tile = [64].into();
        let with_spec = verify_schedule(&e, Some(&spec));
        let without = verify_schedule(&e, None);
        assert!(!with_spec.is_legal());
        assert!(without.is_legal(), "{}", without.render());
    }
}
