//! Typed diagnostics: stable codes, severities, and the per-schedule
//! [`Report`] with human and JSON rendering.
//!
//! Codes are **stable**: once published, a code keeps its meaning forever
//! so that CI filters, log scrapers, and `--deny-warnings` policies do not
//! silently change behaviour across releases. New checks take new codes.

use serde_json::{json, Value};

/// How bad a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Informational: worth knowing, never blocks anything.
    Info,
    /// Suspicious but legal: blocks only under `--deny-warnings`.
    Warn,
    /// The schedule is illegal and must not be executed, banked, or served.
    Error,
}

impl Severity {
    /// Lower-case label used in human and JSON output.
    pub fn label(self) -> &'static str {
        match self {
            Severity::Error => "error",
            Severity::Warn => "warn",
            Severity::Info => "info",
        }
    }
}

/// Every diagnostic the verifier can emit, keyed by its stable `GS0xx` code.
///
/// `GS001`–`GS014` are legality errors; `GS02x` are performance lints.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Code {
    /// GS001 — tile vector rank does not match the operator's rank (or the
    /// operator itself is malformed).
    RankMismatch,
    /// GS002 — a tile or vthread count is zero.
    ZeroTile,
    /// GS003 — `smem_tile % (reg_tile · vthreads) != 0`.
    Divisibility,
    /// GS004 — reduce tile / reduce step bookkeeping is inconsistent.
    ReduceTile,
    /// GS005 — unroll factor is zero or not a power of two.
    BadUnroll,
    /// GS006 — `cur_level` exceeds the number of schedulable levels.
    LevelOutOfRange,
    /// GS007 — staged shared-memory tile exceeds the per-block capacity.
    SmemOverflow,
    /// GS008 — per-thread register demand exceeds the device limit.
    RegOverflow,
    /// GS009 — block thread count outside the device's legal range.
    ThreadBudget,
    /// GS010 — the loops of an iteration axis stop short of its extent.
    CoverageGap,
    /// GS011 — more threads launched than the block tile holds; the
    /// surplus index past it.
    OutOfBounds,
    /// GS012 — the launch summary and the lowered nest disagree on a grid,
    /// vthread or thread extent.
    VolumeMismatch,
    /// GS013 — two iterations of the nest land on one point.
    WriteOverlap,
    /// GS014 — a point below the loops' reach is visited by no iteration.
    WriteGap,
    /// GS020 — shared-memory access stride causes heavy bank conflicts.
    BankConflict,
    /// GS021 — block smaller than one warp despite ample parallelism.
    SubWarpBlock,
    /// GS022 — register demand close enough to the cap to hurt occupancy.
    RegisterPressure,
    /// GS023 — grid launches fewer blocks than the device has SMs.
    GridUnderfill,
    /// GS024 — complete schedule that never tiled a large iteration space.
    DegenerateTile,
    /// GS025 — schedule has not visited every cache level.
    Incomplete,
}

impl Code {
    /// The stable wire/display form, e.g. `"GS003"`.
    pub fn as_str(self) -> &'static str {
        match self {
            Code::RankMismatch => "GS001",
            Code::ZeroTile => "GS002",
            Code::Divisibility => "GS003",
            Code::ReduceTile => "GS004",
            Code::BadUnroll => "GS005",
            Code::LevelOutOfRange => "GS006",
            Code::SmemOverflow => "GS007",
            Code::RegOverflow => "GS008",
            Code::ThreadBudget => "GS009",
            Code::CoverageGap => "GS010",
            Code::OutOfBounds => "GS011",
            Code::VolumeMismatch => "GS012",
            Code::WriteOverlap => "GS013",
            Code::WriteGap => "GS014",
            Code::BankConflict => "GS020",
            Code::SubWarpBlock => "GS021",
            Code::RegisterPressure => "GS022",
            Code::GridUnderfill => "GS023",
            Code::DegenerateTile => "GS024",
            Code::Incomplete => "GS025",
        }
    }

    /// Every code, in stable `GS0xx` order — the registry the SARIF
    /// exporter and `--explain` enumerate.
    pub const ALL: [Code; 20] = [
        Code::RankMismatch,
        Code::ZeroTile,
        Code::Divisibility,
        Code::ReduceTile,
        Code::BadUnroll,
        Code::LevelOutOfRange,
        Code::SmemOverflow,
        Code::RegOverflow,
        Code::ThreadBudget,
        Code::CoverageGap,
        Code::OutOfBounds,
        Code::VolumeMismatch,
        Code::WriteOverlap,
        Code::WriteGap,
        Code::BankConflict,
        Code::SubWarpBlock,
        Code::RegisterPressure,
        Code::GridUnderfill,
        Code::DegenerateTile,
        Code::Incomplete,
    ];

    /// Parse a user-supplied code string (`"GS011"`, `"gs11"`, `"11"`).
    pub fn parse(s: &str) -> Option<Code> {
        let digits = s
            .trim()
            .trim_start_matches(['g', 'G'])
            .trim_start_matches(['s', 'S']);
        let n: u32 = digits.parse().ok()?;
        Code::ALL
            .into_iter()
            .find(|c| c.as_str()[2..].parse() == Ok(n))
    }

    /// One-line meaning, mirroring the DESIGN §9 table.
    pub fn description(self) -> &'static str {
        match self {
            Code::RankMismatch => "tile vector rank does not match the operator rank",
            Code::ZeroTile => "a tile or vthread count is zero",
            Code::Divisibility => "smem_tile % (reg_tile · vthreads) != 0",
            Code::ReduceTile => "reduce tile/step bookkeeping inconsistent",
            Code::BadUnroll => "unroll factor zero or not a power of two",
            Code::LevelOutOfRange => "cur_level beyond the memory hierarchy",
            Code::SmemOverflow => "staged smem tile exceeds per-block capacity",
            Code::RegOverflow => "per-thread registers exceed the device limit",
            Code::ThreadBudget => "block thread count outside the legal range",
            Code::CoverageGap => "the loops of an iteration axis stop short of its extent",
            Code::OutOfBounds => "more threads launched than the block tile holds",
            Code::VolumeMismatch => "launch summary and lowered nest disagree on an extent",
            Code::WriteOverlap => "two iterations of the nest land on one point",
            Code::WriteGap => "a point below the loops' reach is never visited",
            Code::BankConflict => "shared-memory stride causes heavy bank conflicts",
            Code::SubWarpBlock => {
                "sub-warp block whose idle lanes are not compensated by per-thread work"
            }
            Code::RegisterPressure => "register pressure at 85% or more of the cap",
            Code::GridUnderfill => "grid launches fewer blocks than SMs",
            Code::DegenerateTile => "complete schedule never tiled a large space",
            Code::Incomplete => "schedule incomplete (not all levels visited)",
        }
    }

    /// A minimal failing (or firing) example, for `--explain`.
    pub fn example(self) -> &'static str {
        match self {
            Code::RankMismatch => "gemm (2 spatial dims) with smem_tile = [64] — rank 1 ≠ 2",
            Code::ZeroTile => "smem_tile = [0, 64]: dim 0 stages nothing",
            Code::Divisibility => "smem_tile 6 with reg_tile 4 · vthreads 1 — 6 % 4 = 2",
            Code::ReduceTile => "extent 64 with reduce_tile 512 — tile exceeds next_pow2(64)",
            Code::BadUnroll => "unroll = 3 — not a power of two",
            Code::LevelOutOfRange => "cur_level = 99 with num_levels = 3",
            Code::SmemOverflow => "128×128 FP32 tiles staged on a 48 KiB-smem device",
            Code::RegOverflow => "reg_tile [32, 32] — 1024 accumulators per thread",
            Code::ThreadBudget => "thread_dims [64, 32] — 2048 threads on a 1024 cap",
            Code::CoverageGap => "grid 3 × tile 32 reaches 96 of extent 100",
            Code::OutOfBounds => {
                "extent 8 clamps the tile to 8 = vt 2 · 2 threads · reg 2, but the raw tile 32 \
                 launches 8 threads"
            }
            Code::VolumeMismatch => "nest walks 16 blocks along dim 0, summary launches 64",
            Code::WriteOverlap => "two loops of one axis both step by 1 — each point visited twice",
            Code::WriteGap => "a loop steps by 8 over the 4 points finer loops cover",
            Code::BankConflict => "reg stride 32 on 32-bank smem — all lanes hit bank 0",
            Code::SubWarpBlock => "8-thread block with reg_tile [1, 1] on a 32-wide warp",
            Code::RegisterPressure => "220 registers per thread on a 255-reg device",
            Code::GridUnderfill => "4-block grid on a 128-SM device",
            Code::DegenerateTile => "complete 4096×4096 schedule with smem_tile [1, 1]",
            Code::Incomplete => "cur_level 1 of 3 — shared/register stages not scheduled",
        }
    }

    /// The severity this code always carries.
    pub fn severity(self) -> Severity {
        match self {
            Code::RankMismatch
            | Code::ZeroTile
            | Code::Divisibility
            | Code::ReduceTile
            | Code::BadUnroll
            | Code::LevelOutOfRange
            | Code::SmemOverflow
            | Code::RegOverflow
            | Code::ThreadBudget
            | Code::CoverageGap
            | Code::OutOfBounds
            | Code::VolumeMismatch
            | Code::WriteOverlap
            | Code::WriteGap => Severity::Error,
            Code::BankConflict | Code::SubWarpBlock | Code::DegenerateTile => Severity::Warn,
            Code::RegisterPressure | Code::GridUnderfill | Code::Incomplete => Severity::Info,
        }
    }
}

impl std::fmt::Display for Code {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One finding of one pass about one schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// Stable code; fixes the severity.
    pub code: Code,
    /// Name of the pass that produced the finding.
    pub pass: &'static str,
    /// Human explanation with the concrete numbers involved.
    pub message: String,
}

impl Diagnostic {
    /// Build a diagnostic; severity comes from the code.
    pub fn new(code: Code, pass: &'static str, message: impl Into<String>) -> Self {
        Diagnostic {
            code,
            pass,
            message: message.into(),
        }
    }

    /// Severity of this finding (a function of the code).
    pub fn severity(&self) -> Severity {
        self.code.severity()
    }
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} [{}] {}: {}",
            self.severity().label(),
            self.code,
            self.pass,
            self.message
        )
    }
}

/// All findings of one verification run over one schedule.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Report {
    /// `OpSpec::label()` of the verified operator.
    pub op_label: String,
    /// `Etir::describe()` of the verified schedule.
    pub schedule: String,
    /// GPU the hardware-dependent passes ran against, if any.
    pub gpu: Option<String>,
    /// Findings in pass order.
    pub diagnostics: Vec<Diagnostic>,
}

impl Report {
    /// Number of error-severity findings.
    pub fn error_count(&self) -> usize {
        self.count(Severity::Error)
    }

    /// Number of warn-severity findings.
    pub fn warning_count(&self) -> usize {
        self.count(Severity::Warn)
    }

    fn count(&self, s: Severity) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity() == s)
            .count()
    }

    /// Whether the schedule is legal (no errors; warnings/infos allowed).
    pub fn is_legal(&self) -> bool {
        self.error_count() == 0
    }

    /// Whether the report passes the given policy.
    pub fn passes(&self, deny_warnings: bool) -> bool {
        self.is_legal() && !(deny_warnings && self.warning_count() > 0)
    }

    /// Canonicalize for deterministic output: findings sort by (code,
    /// message, pass) — messages start with `dim {i}` or `axis {i}`, so
    /// per-code findings land in dimension order — and exact (code,
    /// message) repeats collapse to one. Rendering the same report twice
    /// is byte-stable.
    pub fn normalize(&mut self) {
        self.diagnostics.sort_by(|a, b| {
            (a.code.as_str(), &a.message, a.pass).cmp(&(b.code.as_str(), &b.message, b.pass))
        });
        self.diagnostics
            .dedup_by(|a, b| a.code == b.code && a.message == b.message);
    }

    /// One-line digest for error messages and logs:
    /// `gemm[m512,k512,n512]: 2 errors, 1 warning (GS003, GS011, GS020)`.
    pub fn summary(&self) -> String {
        let codes: Vec<&str> = self.diagnostics.iter().map(|d| d.code.as_str()).collect();
        format!(
            "{}: {} error(s), {} warning(s){}",
            self.op_label,
            self.error_count(),
            self.warning_count(),
            if codes.is_empty() {
                String::new()
            } else {
                format!(" ({})", codes.join(", "))
            }
        )
    }

    /// Multi-line human rendering (compiler-style).
    pub fn render(&self) -> String {
        let mut out = format!("verify {} :: {}\n", self.op_label, self.schedule);
        if let Some(gpu) = &self.gpu {
            out.push_str(&format!("  target: {gpu}\n"));
        }
        if self.diagnostics.is_empty() {
            out.push_str("  clean: no findings\n");
        }
        for d in &self.diagnostics {
            out.push_str(&format!("  {d}\n"));
        }
        out
    }

    /// Machine-readable rendering (stable field names).
    pub fn to_json(&self) -> Value {
        let diags: Vec<Value> = self
            .diagnostics
            .iter()
            .map(|d| {
                json!({
                    "code": d.code.as_str(),
                    "severity": d.severity().label(),
                    "pass": d.pass,
                    "message": d.message
                })
            })
            .collect();
        json!({
            "op": self.op_label,
            "schedule": self.schedule,
            "gpu": self.gpu,
            "errors": self.error_count() as u64,
            "warnings": self.warning_count() as u64,
            "legal": self.is_legal(),
            "diagnostics": Value::Array(diags)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_stable_strings() {
        assert_eq!(Code::RankMismatch.as_str(), "GS001");
        assert_eq!(Code::WriteGap.as_str(), "GS014");
        assert_eq!(Code::BankConflict.as_str(), "GS020");
        assert_eq!(Code::Incomplete.as_str(), "GS025");
    }

    #[test]
    fn severity_is_a_function_of_the_code() {
        assert_eq!(Code::OutOfBounds.severity(), Severity::Error);
        assert_eq!(Code::SubWarpBlock.severity(), Severity::Warn);
        assert_eq!(Code::GridUnderfill.severity(), Severity::Info);
    }

    #[test]
    fn report_policy_logic() {
        let mut r = Report {
            op_label: "op".into(),
            schedule: "s".into(),
            gpu: None,
            diagnostics: vec![Diagnostic::new(Code::BankConflict, "lints", "stride")],
        };
        assert!(r.is_legal());
        assert!(r.passes(false));
        assert!(!r.passes(true), "warnings deny under --deny-warnings");
        r.diagnostics
            .push(Diagnostic::new(Code::OutOfBounds, "cover", "oob"));
        assert!(!r.is_legal());
        assert_eq!(r.error_count(), 1);
        assert_eq!(r.warning_count(), 1);
        assert!(r.summary().contains("GS011"));
    }

    #[test]
    fn codes_parse_and_self_describe() {
        assert_eq!(Code::parse("GS011"), Some(Code::OutOfBounds));
        assert_eq!(Code::parse("gs3"), Some(Code::Divisibility));
        assert_eq!(Code::parse("25"), Some(Code::Incomplete));
        assert_eq!(Code::parse("GS099"), None);
        assert_eq!(Code::parse("bogus"), None);
        for c in Code::ALL {
            assert_eq!(Code::parse(c.as_str()), Some(c), "{c} round-trips");
            assert!(!c.description().is_empty());
            assert!(!c.example().is_empty());
        }
    }

    #[test]
    fn normalize_sorts_and_dedupes() {
        let mut r = Report {
            op_label: "op".into(),
            schedule: "s".into(),
            gpu: None,
            diagnostics: vec![
                Diagnostic::new(Code::WriteGap, "cover", "dim 1: gap"),
                Diagnostic::new(Code::OutOfBounds, "cover", "dim 1: oob"),
                Diagnostic::new(Code::OutOfBounds, "cover", "dim 0: oob"),
                Diagnostic::new(Code::OutOfBounds, "capacity", "dim 0: oob"),
            ],
        };
        r.normalize();
        let keys: Vec<(Code, &str)> = r
            .diagnostics
            .iter()
            .map(|d| (d.code, d.message.as_str()))
            .collect();
        assert_eq!(
            keys,
            vec![
                (Code::OutOfBounds, "dim 0: oob"),
                (Code::OutOfBounds, "dim 1: oob"),
                (Code::WriteGap, "dim 1: gap"),
            ],
            "sorted by (code, message); identical findings collapsed"
        );
    }

    #[test]
    fn json_rendering_has_stable_fields() {
        let r = Report {
            op_label: "gemm".into(),
            schedule: "s".into(),
            gpu: Some("RTX 4090".into()),
            diagnostics: vec![Diagnostic::new(Code::Divisibility, "invariants", "bad")],
        };
        let s = serde_json::to_string(&r.to_json()).unwrap();
        assert!(s.contains("\"code\":\"GS003\""));
        assert!(s.contains("\"legal\":false"));
        assert!(s.contains("\"errors\":1"));
    }
}
