//! Exporter-level integration tests for the `obs` crate: the Chrome
//! trace is well-formed and properly nested, the Prometheus text
//! round-trips through its own parser, tracing never perturbs tuner
//! output, and the convergence CSV carries a real walk.
//!
//! The collector and metric registry are process-global, so every test
//! that installs a collector serializes on [`OBS_LOCK`].

use hardware::GpuSpec;
use simgpu::Tuner;
use std::sync::{Arc, Mutex, OnceLock};
use tensor_expr::OpSpec;

/// Serializes tests that touch the global collector.
fn obs_lock() -> &'static Mutex<()> {
    static OBS_LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    OBS_LOCK.get_or_init(|| Mutex::new(()))
}

/// Compile `op` with the ring collector installed; returns the events.
fn traced_compile(op: &OpSpec, chains_seed: u64) -> (simgpu::CompiledKernel, Vec<obs::Event>) {
    let spec = GpuSpec::rtx4090();
    let ring = Arc::new(obs::RingCollector::new(1 << 20));
    obs::install(ring.clone());
    let tuner = gensor::Gensor::single_chain(chains_seed);
    let ck = tuner.compile(op, &spec);
    let _ = verify::verify_schedule(&ck.etir, Some(&spec));
    let _ = codegen::emit_cuda(&ck.etir);
    obs::uninstall();
    (ck, ring.take())
}

#[test]
fn chrome_trace_parses_and_nests_the_compile_pipeline() {
    let _g = obs_lock().lock().unwrap_or_else(|p| p.into_inner());
    let (_, events) = traced_compile(&OpSpec::gemm(512, 256, 512), 11);
    let json = obs::chrome::trace_json(&events);
    let v: serde_json::Value = serde_json::from_str(&json).expect("trace must be valid JSON");
    let trace_events = v["traceEvents"].as_array().expect("traceEvents array");
    assert!(!trace_events.is_empty());

    // Every complete event carries the fields Perfetto needs.
    let complete: Vec<&serde_json::Value> =
        trace_events.iter().filter(|e| e["ph"] == "X").collect();
    for e in &complete {
        assert!(e["name"].as_str().is_some(), "{e:?}");
        assert!(e["ts"].as_f64().is_some(), "{e:?}");
        assert!(e["dur"].as_f64().is_some(), "{e:?}");
        assert!(e["tid"].as_f64().is_some(), "{e:?}");
    }
    let span_of = |name: &str| {
        complete
            .iter()
            .find(|e| e["name"] == name)
            .unwrap_or_else(|| panic!("no '{name}' span in {json}"))
    };
    // tune encloses walk: same timeline semantics Perfetto renders as
    // nesting (walk starts at-or-after tune, ends at-or-before).
    let tune = span_of("tune");
    let walk = span_of("walk");
    let interval = |e: &serde_json::Value| {
        let ts = e["ts"].as_f64().unwrap();
        (ts, ts + e["dur"].as_f64().unwrap())
    };
    let (t0, t1) = interval(tune);
    let (w0, w1) = interval(walk);
    assert!(
        w0 >= t0 && w1 <= t1,
        "walk [{w0},{w1}] outside tune [{t0},{t1}]"
    );
    // The pipeline stages follow tuning. (Debug builds also run verify
    // *inside* the tune span — the tuner proves its winner legal — so
    // look for the first verify that starts after tuning ended.)
    let stage_after = |name: &str, after: f64| {
        complete
            .iter()
            .filter(|e| e["name"] == name)
            .map(|e| interval(e))
            .filter(|(s0, _)| *s0 >= after)
            .min_by(|a, b| a.0.total_cmp(&b.0))
            .unwrap_or_else(|| panic!("no '{name}' span after ts {after} in {json}"))
    };
    let (_, v1) = stage_after("verify", t1);
    let (c0, _) = stage_after("codegen.emit", v1);
    assert!(c0 >= v1, "codegen started before verification ended");
    // walk.step instants reference their enclosing walk span.
    let step = trace_events
        .iter()
        .find(|e| e["name"] == "walk.step" && e["ph"] == "i")
        .expect("walk.step instants");
    assert!(step["args"]["walk"].as_f64().is_some(), "{step:?}");
}

#[test]
fn prometheus_text_round_trips_through_its_parser() {
    let _g = obs_lock().lock().unwrap_or_else(|p| p.into_inner());
    let spec = GpuSpec::rtx4090();
    let tuner = gensor::Gensor::single_chain(5);
    let ck = tuner.compile(&OpSpec::gemv(1024, 512), &spec);
    let _ = verify::verify_schedule(&ck.etir, Some(&spec));
    let h = obs::histogram_us("gensor_test_roundtrip_us", "round-trip fixture");
    h.record_us(120);
    h.record_us(90_000);

    let text = obs::prometheus::render();
    let samples = obs::prometheus::parse_samples(&text);
    assert!(!samples.is_empty());

    // Counters written by the instrumented crates survive the round trip.
    let get = |name: &str| {
        samples
            .iter()
            .find(|s| s.name == name && s.labels.is_empty())
            .unwrap_or_else(|| panic!("no sample '{name}' in:\n{text}"))
            .value
    };
    assert!(get("gensor_core_compiles_total") >= 1.0);
    assert!(get("gensor_core_walk_steps_total") >= 1.0);
    assert!(get("gensor_verify_runs_total") >= 1.0);
    // Histogram exposition is cumulative and consistent.
    let count = get("gensor_test_roundtrip_us_count");
    assert!(count >= 2.0);
    let inf = samples
        .iter()
        .find(|s| s.name == "gensor_test_roundtrip_us_bucket" && s.labels.contains("le=\"+Inf\""))
        .expect("+Inf bucket");
    assert_eq!(inf.value, count, "+Inf bucket must equal _count");
    let mut last = 0.0;
    for s in samples
        .iter()
        .filter(|s| s.name == "gensor_test_roundtrip_us_bucket")
    {
        assert!(s.value >= last, "buckets must be cumulative:\n{text}");
        last = s.value;
    }
}

#[test]
fn tracing_never_changes_the_tuner_output() {
    let _g = obs_lock().lock().unwrap_or_else(|p| p.into_inner());
    let spec = GpuSpec::rtx4090();
    // A spread of shapes/classes; same seed with and without the
    // collector must construct the identical schedule (the instrumented
    // walk must not consume extra RNG draws or reorder decisions).
    let ops = [
        OpSpec::gemm(512, 256, 512),
        OpSpec::gemm(4096, 64, 128),
        OpSpec::gemv(2048, 1024),
        OpSpec::conv2d(4, 16, 28, 28, 32, 3, 3, 1, 1),
        OpSpec::elementwise(1 << 16, 2, 1),
    ];
    for (i, op) in ops.iter().enumerate() {
        let seed = 100 + i as u64;
        obs::uninstall();
        let quiet = gensor::Gensor::single_chain(seed).compile(op, &spec);
        let ring = Arc::new(obs::RingCollector::new(1 << 20));
        obs::install(ring.clone());
        let traced = gensor::Gensor::single_chain(seed).compile(op, &spec);
        obs::uninstall();
        assert_eq!(
            quiet.etir,
            traced.etir,
            "tracing changed the schedule for {} (seed {seed})",
            op.label()
        );
        assert_eq!(quiet.report.time_us, traced.report.time_us);
        assert!(
            ring.take().iter().any(|e| e.kind.name() == "walk.step"),
            "traced run recorded no walk steps for {}",
            op.label()
        );
    }
}

#[test]
fn convergence_csv_reproduces_a_walk_trace() {
    let _g = obs_lock().lock().unwrap_or_else(|p| p.into_inner());
    let (_, events) = traced_compile(&OpSpec::gemm(1024, 512, 1024), 23);
    let csv = obs::convergence::walk_csv(&events);
    let mut lines = csv.lines();
    assert_eq!(lines.next(), Some(obs::convergence::CSV_HEADER));
    let rows: Vec<&str> = lines.collect();
    assert!(!rows.is_empty(), "no walk steps in:\n{csv}");
    let mut best_prev = f64::INFINITY;
    let mut bests = Vec::new();
    let mut last_step = -1i64;
    for row in &rows {
        // CSV-quoted action cells may contain commas; strip them before
        // splitting so the column count is stable.
        let mut clean = String::new();
        let mut in_quotes = false;
        for ch in row.chars() {
            match ch {
                '"' => in_quotes = !in_quotes,
                ',' if in_quotes => {}
                c => clean.push(c),
            }
        }
        let cols: Vec<&str> = clean.split(',').collect();
        assert_eq!(cols.len(), 10, "bad row '{row}'");
        let step: i64 = cols[1].parse().expect("step");
        assert!(step > last_step, "steps must be ordered: '{row}'");
        last_step = step;
        // The trailing columns: a non-empty source state and a positive
        // exact-eval count.
        assert!(!cols[8].is_empty(), "missing state column: '{row}'");
        let evals: u64 = cols[9].parse().expect("exact_evals");
        assert!(evals > 0, "no exact evals recorded: '{row}'");
        let prob: f64 = cols[4].parse().expect("probability");
        assert!(
            (0.0..=1.0).contains(&prob),
            "probability out of range: '{row}'"
        );
        let temp: f64 = cols[5].parse().expect("temperature");
        assert!(temp > 0.0, "temperature must stay positive: '{row}'");
        let best: f64 = if cols[7] == "inf" {
            f64::INFINITY
        } else {
            cols[7].parse().expect("best_time_us")
        };
        assert!(
            best <= best_prev,
            "best-so-far must be monotonically non-increasing: '{row}'"
        );
        best_prev = best;
        bests.push(best);
    }
    // The walk found something: the final best is finite.
    assert!(best_prev.is_finite(), "walk never improved:\n{csv}");
    // The bulk of the improvement lands within the budget (the paper's
    // "convergence after about 100 iterations"): by mid-walk the best
    // beats the first step's, or has already reached the final one.
    let mid = bests[bests.len() / 2];
    assert!(
        mid < bests[0] || mid == best_prev,
        "no progress by mid-walk:\n{csv}"
    );
}

/// A registered counter's value, or a histogram's sample count; 0 when
/// the metric is not registered.
fn metric(name: &str) -> u64 {
    match obs::metrics::snapshot()
        .into_iter()
        .find(|m| m.name == name)
    {
        Some(m) => match m.value {
            obs::metrics::MetricValue::Counter(n) => n,
            obs::metrics::MetricValue::Histogram { count, .. } => count,
            obs::metrics::MetricValue::Gauge(g) => panic!("{name} is a gauge ({g})"),
        },
        None => 0,
    }
}

#[test]
fn a_walk_is_accounted_for_once() {
    use rand::SeedableRng;
    let _g = obs_lock().lock().unwrap_or_else(|p| p.into_inner());
    let spec = GpuSpec::rtx4090();
    let names = [
        "gensor_core_walk_steps_total",
        "gensor_core_benefit_evals_total",
        "gensor_core_walk_step_us_matmul",
        "gensor_core_walk_step_us_conv",
    ];
    let before = names.map(metric);
    let walk = gensor::Walk::default();
    let run =
        |op: &OpSpec, seed: u64| walk.run(op, &spec, &mut rand::rngs::StdRng::seed_from_u64(seed));
    let gemm = OpSpec::gemm(512, 256, 512);
    let records = [
        run(&gemm, 1),
        run(&gemm, 2),
        run(&gemm, 3),
        run(&OpSpec::conv2d(4, 16, 28, 28, 32, 3, 3, 1, 1), 4),
    ];
    let delta: Vec<u64> = names
        .iter()
        .zip(before)
        .map(|(n, b)| metric(n) - b)
        .collect();
    let steps: u64 = records.iter().map(|r| r.steps as u64).sum();
    let evals: u64 = records.iter().map(|r| r.exact_benefit_evals).sum();
    assert_eq!(delta, [steps, evals, 3, 1], "deltas of {names:?}");
    let scorer_series: Vec<String> = obs::metrics::snapshot()
        .into_iter()
        .map(|m| m.name)
        .filter(|n| n.starts_with("gensor_core_benefit_eval_us_"))
        .collect();
    assert!(
        scorer_series.is_empty(),
        "the scorer records {scorer_series:?}"
    );

    // The step trail is the `walk.step` events, and they carry what the
    // scorer's own events used to: the scored and the feasible row counts.
    let (_, events) = traced_compile(&OpSpec::gemm(256, 128, 256), 31);
    assert!(events.iter().all(|e| e.kind.name() != "benefit.eval"));
    let trail: Vec<&obs::Event> = events
        .iter()
        .filter(|e| e.kind.name() == "walk.step")
        .collect();
    assert!(!trail.is_empty(), "a traced compile emitted no walk.step");
    for e in trail {
        match (e.field("feasible"), e.field("exact_evals")) {
            (Some(obs::Value::U64(feasible)), Some(obs::Value::U64(scored))) => {
                assert!(feasible <= scored, "{e:?}")
            }
            _ => panic!("walk.step without feasible/exact_evals: {e:?}"),
        }
    }
}
