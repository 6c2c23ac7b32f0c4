//! Per-walk convergence CSV: the paper's Fig. 8-style trace.
//!
//! Every instrumented construction walk emits one `walk.step` point per
//! annealing step, carrying the chosen action, its raw benefit and
//! normalized selection probability, the temperature, whether the state
//! was accepted into `top_results`, and the best simulated time seen so
//! far. This module flattens those points into a CSV with one row per
//! step, grouped by walk span id, ready for plotting temperature/benefit
//! convergence curves.
//!
//! The ten columns end with the departed state (`state`, the
//! `Etir::describe` string) and the number of exact benefit evaluations
//! the step cost (`exact_evals`). Rows from walks recorded before those
//! fields existed render with the trailing columns empty.

use crate::event::{Event, EventKind, Value};

/// CSV header emitted by [`walk_csv`].
pub const CSV_HEADER: &str =
    "walk,step,action,benefit,probability,temperature,accepted,best_time_us,state,exact_evals";

fn fmt(v: Option<&Value>) -> String {
    match v {
        Some(Value::U64(n)) => n.to_string(),
        Some(Value::I64(n)) => n.to_string(),
        Some(Value::F64(x)) if x.is_finite() => format!("{x}"),
        Some(Value::F64(_)) => "inf".to_string(),
        Some(Value::Bool(b)) => b.to_string(),
        Some(Value::Str(s)) => {
            if s.contains(',') || s.contains('"') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.clone()
            }
        }
        None => String::new(),
    }
}

/// Extract every `walk.step` point from `events` into CSV rows, ordered
/// by (walk id, step).
pub fn walk_csv(events: &[Event]) -> String {
    let mut rows: Vec<(u64, u64, String)> = Vec::new();
    for ev in events {
        if !matches!(ev.kind, EventKind::Point { name: "walk.step" }) {
            continue;
        }
        let walk = match ev.field("walk") {
            Some(Value::U64(id)) => *id,
            _ => 0,
        };
        let step = match ev.field("step") {
            Some(Value::U64(s)) => *s,
            _ => 0,
        };
        let row = format!(
            "{walk},{step},{},{},{},{},{},{},{},{}",
            fmt(ev.field("action")),
            fmt(ev.field("benefit")),
            fmt(ev.field("probability")),
            fmt(ev.field("temperature")),
            fmt(ev.field("accepted")),
            fmt(ev.field("best_time_us")),
            fmt(ev.field("state")),
            fmt(ev.field("exact_evals")),
        );
        rows.push((walk, step, row));
    }
    rows.sort_by_key(|(walk, step, _)| (*walk, *step));
    let mut out = String::from(CSV_HEADER);
    out.push('\n');
    for (_, _, row) in rows {
        out.push_str(&row);
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn step(walk: u64, step_n: u64, temp: f64, accepted: bool) -> Event {
        Event {
            ts_us: step_n,
            tid: 1,
            kind: EventKind::Point { name: "walk.step" },
            fields: vec![
                ("walk", Value::U64(walk)),
                ("step", Value::U64(step_n)),
                ("action", Value::Str("Tile".into())),
                ("benefit", Value::F64(1.5)),
                ("probability", Value::F64(0.25)),
                ("temperature", Value::F64(temp)),
                ("accepted", Value::Bool(accepted)),
                ("best_time_us", Value::F64(123.0)),
                ("state", Value::Str("smem[2, 1] @lvl0".into())),
                ("exact_evals", Value::U64(13)),
            ],
        }
    }

    #[test]
    fn rows_are_grouped_by_walk_and_ordered_by_step() {
        let events = vec![
            step(2, 0, 1e6, true),
            step(1, 1, 5e5, false),
            step(1, 0, 1e6, true),
        ];
        let csv = walk_csv(&events);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], CSV_HEADER);
        assert!(lines[1].starts_with("1,0,Tile,1.5,0.25,1000000,true,123"));
        assert!(lines[2].starts_with("1,1,"));
        assert!(lines[3].starts_with("2,0,"));
    }

    #[test]
    fn non_step_events_are_ignored_and_infinity_is_spelled_out() {
        let mut e = step(1, 0, 1e6, true);
        e.fields.retain(|(k, _)| *k != "best_time_us");
        e.fields.push(("best_time_us", Value::F64(f64::INFINITY)));
        let events = vec![
            e,
            Event {
                ts_us: 0,
                tid: 1,
                kind: EventKind::Point { name: "other" },
                fields: Vec::new(),
            },
        ];
        let csv = walk_csv(&events);
        assert_eq!(csv.lines().count(), 2);
        assert!(csv.contains(",inf"));
    }

    #[test]
    fn state_columns_are_emitted_and_legacy_rows_stay_loadable() {
        let full = step(1, 0, 1e6, true);
        let mut legacy = step(1, 1, 5e5, false);
        legacy
            .fields
            .retain(|(k, _)| !matches!(*k, "state" | "exact_evals"));
        let csv = walk_csv(&[full, legacy]);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], CSV_HEADER);
        // New rows carry state / exact_evals...
        assert!(
            lines[1].ends_with(",\"smem[2, 1] @lvl0\",13"),
            "{}",
            lines[1]
        );
        // ...legacy rows render the trailing columns empty.
        assert!(lines[2].ends_with(",123,,"), "{}", lines[2]);
    }

    #[test]
    fn string_fields_with_commas_are_quoted() {
        let mut e = step(1, 0, 1e6, true);
        e.fields.retain(|(k, _)| *k != "action");
        e.fields
            .push(("action", Value::Str("Split { dim: 0, by: 2 }".into())));
        let csv = walk_csv(&[e]);
        assert!(csv.contains("\"Split { dim: 0, by: 2 }\""));
    }
}
