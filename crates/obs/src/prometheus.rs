//! Prometheus text-exposition exporter (and a minimal parser for
//! round-trip tests and CLI consumers).
//!
//! Renders the global registry in the text format scrapers expect:
//! `# HELP` / `# TYPE` headers, plain samples for counters and gauges,
//! and cumulative `_bucket{le="…"}` / `_sum` / `_count` rows for
//! histograms. Histogram bounds stay in microseconds — the `_us` name
//! suffix is the unit contract.

use crate::json;
use crate::metrics::{self, MetricSnapshot, MetricValue};

/// Render one snapshot list (see [`metrics::snapshot`]).
pub fn render_snapshot(snap: &[MetricSnapshot]) -> String {
    let mut out = String::new();
    for m in snap {
        out.push_str(&format!("# HELP {} {}\n", m.name, m.help));
        match &m.value {
            MetricValue::Counter(v) => {
                out.push_str(&format!("# TYPE {} counter\n{} {v}\n", m.name, m.name));
            }
            MetricValue::Gauge(v) => {
                out.push_str(&format!("# TYPE {} gauge\n{} {v}\n", m.name, m.name));
            }
            MetricValue::Histogram {
                cumulative,
                sum_us,
                count,
            } => {
                out.push_str(&format!("# TYPE {} histogram\n", m.name));
                for (le, c) in cumulative {
                    if *le == u64::MAX {
                        out.push_str(&format!("{}_bucket{{le=\"+Inf\"}} {c}\n", m.name));
                    } else {
                        out.push_str(&format!("{}_bucket{{le=\"{le}\"}} {c}\n", m.name));
                    }
                }
                out.push_str(&format!("{}_sum {sum_us}\n", m.name));
                out.push_str(&format!("{}_count {count}\n", m.name));
            }
        }
    }
    out
}

/// Render the current process-global registry.
pub fn render() -> String {
    render_snapshot(&metrics::snapshot())
}

/// Render one snapshot list as deterministic machine-readable JSON:
/// metrics sorted by name (the [`metrics::snapshot`] order), object keys
/// in a fixed order, integers rendered without float noise. Two renders
/// of the same snapshot are byte-identical — the `gensor metrics --json`
/// contract, mirroring `gensor lint --json`. Histograms expose the
/// derived `p50_us`/`p99_us` alongside `sum_us`/`count` so consumers
/// need no bucket math.
pub fn render_json_snapshot(snap: &[MetricSnapshot]) -> String {
    let mut out = String::from("{\"metrics\":[");
    for (i, m) in snap.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n  {\"name\":");
        out.push_str(&json::string(&m.name));
        out.push_str(",\"type\":");
        match &m.value {
            MetricValue::Counter(v) => {
                out.push_str(&format!("\"counter\",\"value\":{v}"));
            }
            MetricValue::Gauge(v) => {
                out.push_str(&format!("\"gauge\",\"value\":{v}"));
            }
            MetricValue::Histogram {
                cumulative,
                sum_us,
                count,
            } => {
                let p50 = metrics::quantile_from_cumulative(cumulative, *count, 0.50);
                let p99 = metrics::quantile_from_cumulative(cumulative, *count, 0.99);
                out.push_str(&format!(
                    "\"histogram\",\"count\":{count},\"sum_us\":{sum_us},\"p50_us\":{p50},\"p99_us\":{p99}"
                ));
            }
        }
        out.push_str(",\"help\":");
        out.push_str(&json::string(&m.help));
        out.push('}');
    }
    out.push_str("\n]}\n");
    out
}

/// One parsed sample line: `(metric_name, labels, value)`. `labels` is the
/// raw `{…}` body (empty for unlabeled samples).
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Sample name (including `_bucket`/`_sum`/`_count` suffixes).
    pub name: String,
    /// Raw label body without braces, e.g. `le="500"`.
    pub labels: String,
    /// Sample value.
    pub value: f64,
}

/// Parse the sample lines of a text-exposition document (comments and
/// blank lines are skipped; malformed lines are ignored).
pub fn parse_samples(text: &str) -> Vec<Sample> {
    let mut out = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (name_part, value_part) = match line.rsplit_once(' ') {
            Some(pair) => pair,
            None => continue,
        };
        let Ok(value) = value_part.parse::<f64>() else {
            continue;
        };
        let (name, labels) = match name_part.split_once('{') {
            Some((n, rest)) => (n.to_string(), rest.trim_end_matches('}').to_string()),
            None => (name_part.to_string(), String::new()),
        };
        out.push(Sample {
            name,
            labels,
            value,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricValue;

    fn snap() -> Vec<MetricSnapshot> {
        vec![
            MetricSnapshot {
                name: "gensor_test_hits_total".into(),
                help: "cache hits".into(),
                value: MetricValue::Counter(42),
            },
            MetricSnapshot {
                name: "gensor_test_inflight".into(),
                help: "jobs in flight".into(),
                value: MetricValue::Gauge(-1),
            },
            MetricSnapshot {
                name: "gensor_test_latency_us".into(),
                help: "latency".into(),
                value: MetricValue::Histogram {
                    cumulative: vec![(50, 1), (100, 3), (u64::MAX, 4)],
                    sum_us: 12_345,
                    count: 4,
                },
            },
        ]
    }

    #[test]
    fn rendering_emits_help_type_and_samples() {
        let text = render_snapshot(&snap());
        assert!(text.contains("# HELP gensor_test_hits_total cache hits"));
        assert!(text.contains("# TYPE gensor_test_hits_total counter"));
        assert!(text.contains("gensor_test_hits_total 42"));
        assert!(text.contains("gensor_test_inflight -1"));
        assert!(text.contains("gensor_test_latency_us_bucket{le=\"100\"} 3"));
        assert!(text.contains("gensor_test_latency_us_bucket{le=\"+Inf\"} 4"));
        assert!(text.contains("gensor_test_latency_us_sum 12345"));
        assert!(text.contains("gensor_test_latency_us_count 4"));
    }

    #[test]
    fn samples_round_trip_through_the_parser() {
        let text = render_snapshot(&snap());
        let samples = parse_samples(&text);
        let get = |n: &str| samples.iter().find(|s| s.name == n).unwrap();
        assert_eq!(get("gensor_test_hits_total").value, 42.0);
        assert_eq!(get("gensor_test_inflight").value, -1.0);
        assert_eq!(get("gensor_test_latency_us_sum").value, 12_345.0);
        let buckets: Vec<&Sample> = samples
            .iter()
            .filter(|s| s.name == "gensor_test_latency_us_bucket")
            .collect();
        assert_eq!(buckets.len(), 3);
        assert_eq!(buckets[1].labels, "le=\"100\"");
        assert_eq!(buckets[1].value, 3.0);
        // Cumulative buckets never decrease.
        assert!(buckets.windows(2).all(|w| w[0].value <= w[1].value));
    }

    #[test]
    fn json_rendering_is_byte_stable_against_the_golden_form() {
        let fixture = snap();
        let golden = "{\"metrics\":[\n  \
            {\"name\":\"gensor_test_hits_total\",\"type\":\"counter\",\"value\":42,\"help\":\"cache hits\"},\n  \
            {\"name\":\"gensor_test_inflight\",\"type\":\"gauge\",\"value\":-1,\"help\":\"jobs in flight\"},\n  \
            {\"name\":\"gensor_test_latency_us\",\"type\":\"histogram\",\"count\":4,\"sum_us\":12345,\"p50_us\":100,\"p99_us\":200,\"help\":\"latency\"}\n\
            ]}\n";
        assert_eq!(render_json_snapshot(&fixture), golden);
        assert_eq!(
            render_json_snapshot(&fixture),
            render_json_snapshot(&snap())
        );
    }

    #[test]
    fn json_rendering_escapes_help_text() {
        let snap = vec![MetricSnapshot {
            name: "gensor_test_x".into(),
            help: "line\none \"two\"".into(),
            value: MetricValue::Counter(0),
        }];
        let text = render_json_snapshot(&snap);
        assert!(text.contains("line\\none \\\"two\\\""), "{text}");
    }

    #[test]
    fn parser_skips_comments_and_garbage() {
        let samples = parse_samples("# HELP x y\n\nnot a sample\nok_total 3\n");
        assert_eq!(samples.len(), 1);
        assert_eq!(samples[0].name, "ok_total");
    }
}
