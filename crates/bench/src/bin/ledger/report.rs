//! The metric dictionary (read from the `BENCHMARK.json` this binary was
//! built with — the one place names, units, directions and bounds live)
//! and the result of one workload run.

use serde::Serialize;
use serde_json::Value;
use std::collections::BTreeMap;

/// The benchmark contract, embedded so `compare` and the emitters cannot
/// drift from the file the driver reads.
const BENCHMARK_JSON: &str = include_str!("../../../../../BENCHMARK.json");

/// One metric's entry in `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDef {
    pub name: String,
    pub unit: String,
    /// `true` when lower values are better.
    pub lower_is_better: bool,
    /// Share of the baseline median by which the metric may worsen;
    /// `None` for per-layer metrics, which carry no bound.
    pub bound: Option<f64>,
}

/// The parsed contract.
#[derive(Debug, Clone)]
pub struct Contract {
    pub run_seconds: u64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricDef>,
    pub per_layer: Vec<MetricDef>,
}

fn metric_defs(list: &Value) -> Vec<MetricDef> {
    list.as_array()
        .expect("metric list")
        .iter()
        .map(|m| MetricDef {
            name: m["name"].as_str().expect("metric name").to_string(),
            unit: m["unit"].as_str().expect("metric unit").to_string(),
            lower_is_better: m["better"].as_str() == Some("lower"),
            bound: m["bound"].as_f64(),
        })
        .collect()
}

impl Contract {
    pub fn embedded() -> Contract {
        let v: Value = serde_json::from_str(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        Contract {
            run_seconds: v["run_seconds"].as_u64().expect("run_seconds"),
            workloads: v["workloads"]
                .as_array()
                .expect("workloads")
                .iter()
                .map(|w| w["name"].as_str().expect("workload name").to_string())
                .collect(),
            end_to_end: metric_defs(&v["end_to_end"]),
            per_layer: metric_defs(&v["per_layer"]),
        }
    }

    /// The metric list a run reports: end-to-end untraced, per-layer traced.
    pub fn metrics(&self, traced: bool) -> &[MetricDef] {
        if traced {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }
}

/// Per-layer metrics that are exact counts: they must repeat bit-for-bit
/// between two runs of the same code on the same seed.
pub fn is_count(def: &MetricDef) -> bool {
    def.unit == "count"
}

/// Everything one `ledger run` produced.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct RunResult {
    pub workload: String,
    pub seed: u64,
    pub traced: bool,
    /// Whether the process was pinned to one CPU. Every end-to-end run
    /// asks for it; a refused `sched_setaffinity` leaves its timings
    /// unresolved rather than comparable.
    pub pinned: bool,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Metric name → value. Per-layer metrics a workload does not
    /// exercise are absent here and reported as 0.
    pub metrics: BTreeMap<String, f64>,
    /// Sample counts behind the percentiles, by metric name.
    pub samples: BTreeMap<String, u64>,
    /// Fold of the chosen schedules' fingerprints (hex); same code and
    /// same seed give the same digest on the deterministic workloads.
    pub schedule_digest: String,
    /// Correctness findings, one line each; empty when `correct`.
    pub findings: Vec<String>,
}

impl RunResult {
    pub fn new(workload: &str, seed: u64, traced: bool) -> RunResult {
        RunResult {
            workload: workload.to_string(),
            seed,
            traced,
            pinned: false,
            correct: true,
            attempted: 0,
            failed: 0,
            metrics: BTreeMap::new(),
            samples: BTreeMap::new(),
            schedule_digest: String::new(),
            findings: Vec::new(),
        }
    }

    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    /// Record a failed check: counts in `failed`, fails the run.
    pub fn fail(&mut self, finding: String) {
        self.failed += 1;
        self.correct = false;
        if self.findings.len() < 20 {
            self.findings.push(finding);
        }
    }

    /// The contract's result line: exactly `correct`, `attempted`,
    /// `failed` and `metrics`, the latter holding every metric of the
    /// run's list with its unit.
    pub fn contract_line(&self, contract: &Contract) -> Result<String, String> {
        let mut metrics = Vec::new();
        for def in contract.metrics(self.traced) {
            let value = match self.metrics.get(&def.name) {
                Some(&v) if v.is_finite() => v,
                Some(v) => return Err(format!("metric {} is {v}", def.name)),
                None if self.traced => 0.0,
                None => return Err(format!("end-to-end metric {} not measured", def.name)),
            };
            metrics.push((
                def.name.clone(),
                Value::Object(vec![
                    ("value".to_string(), Value::F64(value)),
                    ("unit".to_string(), Value::Str(def.unit.clone())),
                ]),
            ));
        }
        let line = Value::Object(vec![
            ("correct".to_string(), Value::Bool(self.correct)),
            ("attempted".to_string(), Value::U64(self.attempted.max(1))),
            ("failed".to_string(), Value::U64(self.failed)),
            ("metrics".to_string(), Value::Object(metrics)),
        ]);
        serde_json::to_string(&line).map_err(|e| e.to_string())
    }

    /// Human-readable table of the run's metric list, for stderr.
    pub fn render(&self, contract: &Contract) -> String {
        let mut out = format!(
            "== {} seed {} {} pinned={} attempted={} failed={} failed_share={:.6} correct={}\n",
            self.workload,
            self.seed,
            if self.traced { "traced" } else { "untraced" },
            self.pinned,
            self.attempted,
            self.failed,
            self.failed as f64 / self.attempted.max(1) as f64,
            self.correct
        );
        for def in contract.metrics(self.traced) {
            let Some(v) = self.metrics.get(&def.name) else {
                continue;
            };
            let n = self
                .samples
                .get(&def.name)
                .map_or(String::new(), |n| format!("  (n={n})"));
            out += &format!("  {:<34} {:>16.4} {}{}\n", def.name, v, def.unit, n);
        }
        if !self.schedule_digest.is_empty() {
            out += &format!("  schedule_digest {}\n", self.schedule_digest);
        }
        for f in &self.findings {
            out += &format!("  FINDING: {f}\n");
        }
        out
    }
}

/// FNV-1a fold of schedule fingerprints, in order.
pub fn digest(fingerprints: impl IntoIterator<Item = u64>) -> String {
    let h = fingerprints
        .into_iter()
        .flat_map(u64::to_le_bytes)
        .fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ b as u64).wrapping_mul(0x1_0000_01b3)
        });
    format!("{h:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_embedded_contract_is_well_formed() {
        let c = Contract::embedded();
        assert_eq!(c.workloads.len(), 5);
        assert!((1..=60).contains(&c.run_seconds));
        let setup = c
            .end_to_end
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is an end-to-end metric");
        assert!(setup.lower_is_better && setup.unit == "s");
        for m in &c.end_to_end {
            let b = m.bound.expect("end-to-end metrics carry a bound");
            assert!(b > 0.0 && b <= 0.25, "{}: bound {b}", m.name);
        }
        assert!(c.per_layer.iter().all(|m| m.bound.is_none()));
        assert!((1..=128).contains(&c.per_layer.len()));
        let mut names: Vec<&str> = c
            .end_to_end
            .iter()
            .chain(&c.per_layer)
            .map(|m| m.name.as_str())
            .chain(c.workloads.iter().map(String::as_str))
            .collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        for n in names {
            assert!(
                n.len() <= 64
                    && n.starts_with(|c: char| c.is_ascii_alphanumeric())
                    && n.chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "bad name {n}"
            );
        }
    }

    #[test]
    fn contract_line_has_exactly_the_four_keys_and_every_listed_metric() {
        let c = Contract::embedded();
        let mut r = RunResult::new("suite_cold", 1, false);
        assert!(r.contract_line(&c).is_err(), "missing end-to-end metrics");
        for (i, m) in c.end_to_end.iter().enumerate() {
            r.set(&m.name, 1.5 + i as f64);
        }
        r.attempted = 10;
        let v: Value = serde_json::from_str(&r.contract_line(&c).unwrap()).unwrap();
        let keys: Vec<&str> = v
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(v["metrics"].as_object().unwrap().len(), c.end_to_end.len());
        assert_eq!(v["metrics"]["setup_s"]["unit"].as_str(), Some("s"));

        // A traced run reports every per-layer metric, 0 where idle.
        let t = RunResult::new("suite_cold", 1, true);
        let v: Value = serde_json::from_str(&t.contract_line(&c).unwrap()).unwrap();
        assert_eq!(v["metrics"].as_object().unwrap().len(), c.per_layer.len());
    }

    #[test]
    fn failures_count_and_flip_correct() {
        let mut r = RunResult::new("w", 1, false);
        r.fail("x".into());
        assert!(!r.correct);
        assert_eq!(r.failed, 1);
    }

    #[test]
    fn digest_depends_on_order_and_content() {
        assert_eq!(digest([1, 2, 3]), digest([1, 2, 3]));
        assert_ne!(digest([1, 2, 3]), digest([3, 2, 1]));
        assert_ne!(digest([1, 2, 3]), digest([1, 2]));
    }
}
