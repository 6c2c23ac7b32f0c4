//! `ledger all`, `ledger compare` and `ledger check`: run every workload
//! in a child process of its own, write one results file, and judge two
//! results files against the bounds in `BENCHMARK.json`.

use crate::host::HostFacts;
use crate::report::{is_count, Contract, MetricDef};
use crate::stats;
use serde_json::Value;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

/// `--seed`, `--seconds`, `--out` of `all` and `check`.
pub fn all_options(
    rest: &[String],
    contract: &Contract,
) -> Result<(u64, f64, Option<PathBuf>), String> {
    let (mut seed, mut seconds, mut out) = (1, contract.run_seconds as f64, None);
    for (key, value) in crate::options(rest)? {
        match key {
            "seed" => seed = crate::parse(key, value)?,
            "seconds" => seconds = crate::parse(key, value)?,
            "out" => out = Some(PathBuf::from(value)),
            other => return Err(format!("unknown option --{other}")),
        }
    }
    Ok((seed, seconds, out))
}

/// Run one workload in a child process (so peak memory, CPU time and
/// affinity are its own) and return the full result it wrote.
fn run_child(workload: &str, seed: u64, seconds: f64, traced: bool) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let status = Command::new(exe)
        .args(["run", "--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot start the {workload} child: {e}"))?;
    // Exit 1 is "ran, but a check failed": the result file says what.
    if !matches!(status.code(), Some(0 | 1)) {
        return Err(format!("the {workload} child ended with {status}"));
    }
    let path = Path::new(crate::OUT_DIR).join(format!(
        "run-{workload}-{}.json",
        if traced { "traced" } else { "untraced" }
    ));
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// `ledger all`: every workload untraced (end-to-end) and traced
/// (per-layer), one results file with the host facts on top.
pub fn run_all(seed: u64, seconds: f64, out: &Path, contract: &Contract) -> Result<bool, String> {
    let host = HostFacts::collect();
    eprintln!(
        "ledger: host nproc={} cpus={:?} {} commit {} seed {seed} seconds {seconds}",
        host.nproc, host.allowed_cpus, host.rustc, host.git_commit
    );
    let mut runs = Vec::new();
    let mut correct = true;
    for workload in &contract.workloads {
        for traced in [false, true] {
            let run = run_child(workload, seed, seconds, traced)?;
            correct &= run["correct"].as_bool() == Some(true);
            runs.push(run);
        }
    }
    let results = Value::Object(vec![
        (
            "host".into(),
            serde_json::to_value(&host).map_err(|e| e.to_string())?,
        ),
        ("seed".into(), Value::U64(seed)),
        ("seconds".into(), Value::F64(seconds)),
        ("runs".into(), Value::Array(runs)),
    ]);
    let text = serde_json::to_string_pretty(&results).map_err(|e| e.to_string())?;
    if let Some(dir) = out.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(out, text).map_err(|e| format!("{}: {e}", out.display()))?;
    eprintln!("ledger: results written to {}", out.display());
    Ok(correct)
}

/// How one (workload, metric) pair fared from side A to side B.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    /// The sides' own run-to-run spread exceeds the bound (or a run was
    /// not pinned): the numbers cannot settle the question.
    Unresolved,
}

/// Judge one end-to-end metric. `a` and `b` hold each side's values, one
/// per run. B regresses when its median is worse than A's by more than
/// the bound; when either side's own spread is wider than the bound the
/// pair is unresolved, unless every run of B beats every run of A.
pub fn verdict(def: &MetricDef, a: &[f64], b: &[f64]) -> Verdict {
    let bound = def.bound.expect("end-to-end metrics carry a bound");
    let (ma, mb) = (stats::median(a), stats::median(b));
    let worse_by = if def.lower_is_better {
        (mb - ma) / ma.abs()
    } else {
        (ma - mb) / ma.abs()
    };
    if stats::iqr_share(a).max(stats::iqr_share(b)) > bound {
        let better = |x: f64, y: f64| if def.lower_is_better { x < y } else { x > y };
        let b_wins_every_pair = b.iter().all(|&y| a.iter().all(|&x| better(y, x)));
        return if b_wins_every_pair {
            Verdict::Ok
        } else {
            Verdict::Unresolved
        };
    }
    if worse_by > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

/// One side of a comparison: one or more results files of the same
/// code, host and settings.
struct Side {
    files: Vec<Value>,
}

impl Side {
    fn load(paths: &[&PathBuf]) -> Result<Side, String> {
        let files = paths
            .iter()
            .map(|p| {
                let text =
                    std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
                serde_json::from_str(&text).map_err(|e| format!("{}: {e}", p.display()))
            })
            .collect::<Result<Vec<Value>, String>>()?;
        Ok(Side { files })
    }

    fn runs(&self, workload: &str, traced: bool) -> impl Iterator<Item = &Value> {
        let workload = workload.to_string();
        self.files
            .iter()
            .filter_map(|f| f["runs"].as_array())
            .flatten()
            .filter(move |r| {
                r["workload"].as_str() == Some(&workload) && r["traced"].as_bool() == Some(traced)
            })
    }

    fn values(&self, workload: &str, traced: bool, metric: &str) -> Vec<f64> {
        self.runs(workload, traced)
            .filter_map(|r| r["metrics"][metric].as_f64())
            .collect()
    }

    /// Facts two sides must share before their numbers are comparable.
    /// The commit is deliberately not among them.
    fn settings(&self) -> Vec<String> {
        self.files
            .iter()
            .map(|f| {
                format!(
                    "nproc={} cpus={} rustc={} seed={} seconds={}",
                    serde_json::to_string(&f["host"]["nproc"]).unwrap_or_default(),
                    serde_json::to_string(&f["host"]["allowed_cpus"]).unwrap_or_default(),
                    f["host"]["rustc"].as_str().unwrap_or("?"),
                    serde_json::to_string(&f["seed"]).unwrap_or_default(),
                    serde_json::to_string(&f["seconds"]).unwrap_or_default(),
                )
            })
            .collect()
    }
}

/// What a comparison found.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct Outcome {
    pub regressed: usize,
    pub unresolved: usize,
    /// Exact counts or schedule digests that differ between the sides.
    pub counts_changed: usize,
}

/// `ledger compare A.json B.json [A2.json B2.json …]`: files alternate
/// between side A (the baseline) and side B.
pub fn compare_files(files: &[PathBuf], contract: &Contract) -> Result<bool, String> {
    if files.len() < 2 || !files.len().is_multiple_of(2) {
        return Err("compare needs an even number of results files: A B [A2 B2 ...]".into());
    }
    let a: Vec<&PathBuf> = files.iter().step_by(2).collect();
    let b: Vec<&PathBuf> = files.iter().skip(1).step_by(2).collect();
    let outcome = compare_sides(&Side::load(&a)?, &Side::load(&b)?, contract)?;
    Ok(outcome.regressed == 0)
}

fn compare_sides(a: &Side, b: &Side, contract: &Contract) -> Result<Outcome, String> {
    let mut settings = a.settings();
    settings.extend(b.settings());
    settings.dedup();
    if settings.len() != 1 {
        return Err(format!(
            "refusing to compare results taken under different settings:\n  {}",
            settings.join("\n  ")
        ));
    }
    let mut outcome = Outcome::default();
    for workload in &contract.workloads {
        println!("== {workload}");
        let unpinned = a
            .runs(workload, false)
            .chain(b.runs(workload, false))
            .any(|r| r["pinned"].as_bool() != Some(true));
        for def in &contract.end_to_end {
            let (va, vb) = (
                a.values(workload, false, &def.name),
                b.values(workload, false, &def.name),
            );
            if va.is_empty() || vb.is_empty() {
                return Err(format!("{workload}: {} missing on one side", def.name));
            }
            let v = if unpinned {
                Verdict::Unresolved
            } else {
                verdict(def, &va, &vb)
            };
            match v {
                Verdict::Ok => {}
                Verdict::Regressed => outcome.regressed += 1,
                Verdict::Unresolved => outcome.unresolved += 1,
            }
            let (ma, mb) = (stats::median(&va), stats::median(&vb));
            println!(
                "  {:<26} {:>14.4} -> {:>14.4} {:<6} {:+7.2} %  bound {:>4.0} %  {}",
                def.name,
                ma,
                mb,
                def.unit,
                (mb - ma) / ma.abs() * 100.0,
                def.bound.unwrap_or(0.0) * 100.0,
                match v {
                    Verdict::Ok => "ok",
                    Verdict::Regressed => "regressed",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
        for def in &contract.per_layer {
            let (va, vb) = (
                a.values(workload, true, &def.name),
                b.values(workload, true, &def.name),
            );
            if va.is_empty() && vb.is_empty() {
                continue;
            }
            let (ma, mb) = (
                if va.is_empty() {
                    0.0
                } else {
                    stats::median(&va)
                },
                if vb.is_empty() {
                    0.0
                } else {
                    stats::median(&vb)
                },
            );
            let changed = is_count(def) && (va != vb);
            outcome.counts_changed += usize::from(changed);
            println!(
                "  . {:<32} {:>14.4} -> {:>14.4} {:<6}{}",
                def.name,
                ma,
                mb,
                def.unit,
                if changed { "  COUNT CHANGED" } else { "" }
            );
        }
        for traced in [false, true] {
            let digests = |s: &Side| -> Vec<String> {
                s.runs(workload, traced)
                    .filter_map(|r| r["schedule_digest"].as_str().map(String::from))
                    .collect()
            };
            let (da, db) = (digests(a), digests(b));
            if da != db {
                outcome.counts_changed += 1;
                println!("  schedule_digest differs: {da:?} vs {db:?}  DIGEST CHANGED");
            }
        }
    }
    println!(
        "ledger: {} regressed, {} unresolved, {} exact counts or digests changed",
        outcome.regressed, outcome.unresolved, outcome.counts_changed
    );
    Ok(outcome)
}

/// `ledger check`: the same code twice must agree with itself — every
/// end-to-end metric `ok`, none unresolved, every count and digest equal.
pub fn check(seed: u64, seconds: f64, contract: &Contract) -> Result<bool, String> {
    let dir = Path::new(crate::OUT_DIR);
    let (first, second) = (dir.join("check-a.json"), dir.join("check-b.json"));
    let correct =
        run_all(seed, seconds, &first, contract)? & run_all(seed, seconds, &second, contract)?;
    let outcome = compare_sides(&Side::load(&[&first])?, &Side::load(&[&second])?, contract)?;
    Ok(correct && outcome == Outcome::default())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lower(bound: f64) -> MetricDef {
        MetricDef {
            name: "t".into(),
            unit: "ms".into(),
            lower_is_better: true,
            bound: Some(bound),
        }
    }

    #[test]
    fn verdicts_on_synthetic_runs() {
        let d = lower(0.10);
        // Within the bound, tight spread.
        assert_eq!(
            verdict(&d, &[100.0, 101.0, 99.0], &[105.0, 106.0, 104.0]),
            Verdict::Ok
        );
        // Worse by 20 %.
        assert_eq!(
            verdict(&d, &[100.0, 101.0, 99.0], &[120.0, 121.0, 119.0]),
            Verdict::Regressed
        );
        // An improvement is never a regression.
        assert_eq!(
            verdict(&d, &[100.0, 101.0, 99.0], &[50.0, 51.0, 49.0]),
            Verdict::Ok
        );
        // One side's own spread exceeds the bound: cannot tell…
        assert_eq!(
            verdict(&d, &[100.0, 140.0, 80.0], &[105.0, 106.0, 104.0]),
            Verdict::Unresolved
        );
        // …unless every run of B beats every run of A.
        assert_eq!(
            verdict(&d, &[100.0, 140.0, 80.0], &[50.0, 60.0, 70.0]),
            Verdict::Ok
        );
        // Single runs have no spread: the bound alone decides.
        assert_eq!(verdict(&d, &[100.0], &[109.0]), Verdict::Ok);
        assert_eq!(verdict(&d, &[100.0], &[111.0]), Verdict::Regressed);
    }

    #[test]
    fn higher_is_better_flips_the_direction() {
        let d = MetricDef {
            lower_is_better: false,
            ..lower(0.10)
        };
        assert_eq!(verdict(&d, &[1000.0], &[850.0]), Verdict::Regressed);
        assert_eq!(verdict(&d, &[1000.0], &[950.0]), Verdict::Ok);
        assert_eq!(verdict(&d, &[1000.0], &[2000.0]), Verdict::Ok);
    }

    fn results(seed: u64, value: f64, steps: f64) -> Value {
        let contract = Contract::embedded();
        let mut runs = Vec::new();
        for w in &contract.workloads {
            let e2e = contract
                .end_to_end
                .iter()
                .map(|m| (m.name.clone(), Value::F64(value)))
                .collect();
            runs.push(serde_json::json!({
                "workload": w.clone(), "traced": false, "pinned": true,
                "schedule_digest": "d", "metrics": Value::Object(e2e)
            }));
            runs.push(serde_json::json!({
                "workload": w.clone(), "traced": true, "schedule_digest": "d",
                "metrics": serde_json::json!({"core.steps": steps})
            }));
        }
        serde_json::json!({
            "host": serde_json::json!({"nproc": 2u64, "allowed_cpus": vec![0u64, 1], "rustc": "r"}),
            "seed": seed, "seconds": 15.0, "runs": Value::Array(runs)
        })
    }

    #[test]
    fn sides_compare_and_refuse_mismatched_settings() {
        let contract = Contract::embedded();
        let side = |v: Value| Side { files: vec![v] };
        let same = compare_sides(
            &side(results(1, 10.0, 5.0)),
            &side(results(1, 10.0, 5.0)),
            &contract,
        );
        assert_eq!(same, Ok(Outcome::default()));
        // Every metric doubled: lower-is-better ones regress, and a count moved.
        let worse = compare_sides(
            &side(results(1, 10.0, 5.0)),
            &side(results(1, 20.0, 6.0)),
            &contract,
        )
        .expect("same settings");
        let lower_better = contract
            .end_to_end
            .iter()
            .filter(|m| m.lower_is_better)
            .count();
        assert_eq!(worse.regressed, lower_better * contract.workloads.len());
        assert_eq!(worse.counts_changed, contract.workloads.len());
        let other_seed = compare_sides(
            &side(results(1, 10.0, 5.0)),
            &side(results(2, 10.0, 5.0)),
            &contract,
        );
        assert!(other_seed.is_err(), "seeds differ");
    }
}
