//! Pseudo-code emission: the printer of [`crate::kernels`] in its second
//! dialect. The same traversal of the same lowered
//! [`etir::loops::Nest`], one line per item, unit loops included — the
//! readable dump of what `interp` runs and `emit_cuda` prints.

use crate::kernels::{checked_summary, print};
use etir::Etir;

/// Render the scheduled loop structure as indented pseudo-code.
pub fn emit_pseudo(e: &Etir) -> String {
    let _sp = obs::span!("codegen.emit", kind = "pseudo", op = e.op.label());
    obs::counter_inc!("gensor_codegen_emits_total", "Code-generation emissions");
    format!(
        "// {} — {}\n{}",
        e.op.label(),
        e.describe(),
        print(&e.op, &checked_summary(e).to_nest(), false)
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use etir::loops::{Binding, Level, Nest};
    use etir::Action;
    use hardware::GpuSpec;
    use tensor_expr::OpSpec;

    #[test]
    fn pseudo_for_all_classes() {
        let spec = GpuSpec::rtx4090();
        let ops = vec![
            OpSpec::gemm(64, 32, 64),
            OpSpec::gemv(128, 64),
            OpSpec::conv2d(2, 4, 8, 8, 4, 3, 3, 1, 1),
            OpSpec::avg_pool2d(2, 4, 8, 8, 2, 2),
            OpSpec::elementwise(256, 2, 1),
        ];
        for op in ops {
            let mut e = Etir::initial(op, &spec);
            for a in [Action::Tile { dim: 0 }, Action::Tile { dim: 0 }] {
                if e.can_apply(&a) {
                    e = e.apply(&a);
                }
            }
            let s = emit_pseudo(&e);
            assert!(s.contains("compute"), "{s}");
            assert!(s.contains("// blockIdx"), "{s}");
        }
    }

    #[test]
    fn render_shows_structure() {
        let mut n = Nest::naive(&[("m", 4), ("n", 1), ("k", 2)]);
        let op = OpSpec::gemm(4, 2, 1);
        n.operands = op.accesses();
        n.bind("m", Binding::Grid).unwrap();
        n.cache_read("m", 0, Level::Smem).unwrap();
        n.cache_write("m").unwrap();
        let s = print(&op, &n, false);
        assert!(s.contains("for m in 0..4 // blockIdx"));
        assert!(s.contains("stage A -> SMEM [1, 2]"), "{s}");
        assert!(s.contains("compute"));
        // The write-back is printed where it runs: after the loops nested
        // in the accumulator close, at the marker's own depth.
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines[1], "  acc = 0");
        assert_eq!(*lines.last().unwrap(), "  write C <- acc");
    }

    #[test]
    fn to_nest_render_is_parsable_pseudocode() {
        let spec = GpuSpec::rtx4090();
        let mut e = Etir::initial(OpSpec::gemm(256, 64, 512), &spec);
        for _ in 0..5 {
            e = e.apply(&Action::Tile { dim: 0 });
            e = e.apply(&Action::Tile { dim: 1 });
        }
        e = e.apply(&Action::TileReduce { dim: 0 });
        e = e.apply(&Action::Cache);
        e = e.apply(&Action::Tile { dim: 0 });
        e = e.apply(&Action::SetVthread { dim: 0 });
        e = e.apply(&Action::Unroll);
        let s = emit_pseudo(&e);
        assert!(s.contains("// blockIdx"));
        assert!(s.contains("// vthread"));
        assert!(s.contains("// threadIdx"));
        assert!(s.contains("// #pragma unroll"));
        assert!(s.contains("stage A -> SMEM"));
        assert!(s.contains("stage B -> REG"));
        // Down to the compute every loop opens one indentation level and
        // nothing else does; the write-back closes at the accumulator's.
        let mut depth = 0;
        for line in s.lines().skip(1).take_while(|l| !l.contains("write ")) {
            assert_eq!(line.len() - line.trim_start().len(), 2 * depth, "{s}");
            depth += usize::from(line.trim_start().starts_with("for "));
        }
        let indent_of = |what: &str| s.lines().find(|l| l.contains(what)).unwrap().find(what);
        assert_eq!(indent_of("write C <- acc"), indent_of("acc = 0"));
    }

    #[test]
    fn pseudo_shows_vthread_loops() {
        let spec = GpuSpec::rtx4090();
        let mut e = Etir::initial(OpSpec::gemm(64, 32, 64), &spec);
        for _ in 0..4 {
            e = e.apply(&Action::Tile { dim: 0 });
        }
        e = e.apply(&Action::Cache);
        e = e.apply(&Action::SetVthread { dim: 0 });
        let s = emit_pseudo(&e);
        assert!(s.contains("// vthread"));
    }
}
