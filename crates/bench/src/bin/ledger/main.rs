//! `ledger` — the one outside-in benchmark of this repository: cold
//! compile, cache hit, daemon hit and fabric hit, with per-crate layer
//! timings taken by timing calls into each crate's public functions.
//! See `README.md` beside this file for the metric dictionary.
//!
//! ```text
//! ledger run --workload W --seed N --seconds S --trace 0|1   one workload, one JSON line
//! ledger all [--seed N] [--seconds S] [--out FILE]           every workload, each in a child
//! ledger compare A.json B.json [C.json D.json]               verdict per workload and metric
//! ledger check [--seed N] [--seconds S]                      `all` twice, then `compare`
//! ```

mod compare;
mod gen;
mod host;
mod measure;
mod mix;
mod pipeline;
mod replay;
mod report;
mod stats;
mod suite;
mod trace;

use report::{Contract, RunResult};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Arguments of one workload run.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// Where traces and result files go: inside the current directory, which
/// for the driver is its checkout.
const OUT_DIR: &str = "ledger_out";

/// Write a side file (trace, self-time table) under [`OUT_DIR`]. Side
/// files are evidence, not results: a failure to write one is reported
/// and the run goes on.
pub fn write_output(name: &str, content: &str) {
    let path = Path::new(OUT_DIR).join(name);
    let written = std::fs::create_dir_all(OUT_DIR).and_then(|()| std::fs::write(&path, content));
    if let Err(e) = written {
        eprintln!("ledger: could not write {}: {e}", path.display());
    }
}

/// `--key value` pairs after the verb; a typed error for anything else.
fn options(args: &[String]) -> Result<Vec<(&str, &str)>, String> {
    let mut out = Vec::new();
    let mut it = args.iter();
    while let Some(key) = it.next() {
        let key = key
            .strip_prefix("--")
            .ok_or_else(|| format!("expected an --option, got '{key}'"))?;
        let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
        out.push((key, value.as_str()));
    }
    Ok(out)
}

fn parse<T: std::str::FromStr>(key: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("--{key}: cannot parse '{value}'"))
}

fn run_args(rest: &[String], contract: &Contract) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: contract.run_seconds as f64,
        trace: false,
    };
    for (key, value) in options(rest)? {
        match key {
            "workload" => args.workload = value.to_string(),
            "seed" => args.seed = parse(key, value)?,
            "seconds" => args.seconds = parse(key, value)?,
            "trace" => args.trace = parse::<u8>(key, value)? != 0,
            other => return Err(format!("unknown option --{other}")),
        }
    }
    if !contract.workloads.contains(&args.workload) {
        return Err(format!(
            "--workload must be one of {}",
            contract.workloads.join(", ")
        ));
    }
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(args)
}

/// Run one workload in this process and print its contract line last.
fn run_one(args: &Args, contract: &Contract) -> Result<bool, String> {
    let result: RunResult = match args.workload.as_str() {
        "suite_cold" => suite::run(args),
        "model_pipeline" => pipeline::run(args),
        "serve_hit" | "serve_mix" | "fabric_mix" => mix::run(args),
        other => return Err(format!("workload {other} has no runner")),
    };
    eprint!("{}", result.render(contract));
    let full = serde_json::to_string(&result).map_err(|e| e.to_string())?;
    write_output(
        &format!(
            "run-{}-{}.json",
            result.workload,
            if result.traced { "traced" } else { "untraced" }
        ),
        &full,
    );
    println!("{}", result.contract_line(contract)?);
    Ok(result.correct)
}

fn usage() -> String {
    "usage: ledger run --workload W --seed N --seconds S --trace 0|1\n       \
     ledger all [--seed N] [--seconds S] [--out FILE]\n       \
     ledger compare A.json B.json [A2.json B2.json ...]\n       \
     ledger check [--seed N] [--seconds S]"
        .to_string()
}

fn dispatch(argv: &[String]) -> Result<bool, String> {
    let contract = Contract::embedded();
    let (verb, rest) = argv.split_first().ok_or_else(usage)?;
    match verb.as_str() {
        "run" => run_one(&run_args(rest, &contract)?, &contract),
        "all" => {
            let (seed, seconds, out) = compare::all_options(rest, &contract)?;
            let out = out.unwrap_or_else(|| PathBuf::from(OUT_DIR).join("results.json"));
            compare::run_all(seed, seconds, &out, &contract)
        }
        "compare" => {
            let files: Vec<PathBuf> = rest.iter().map(PathBuf::from).collect();
            compare::compare_files(&files, &contract)
        }
        "check" => {
            let (seed, seconds, _) = compare::all_options(rest, &contract)?;
            compare::check(seed, seconds, &contract)
        }
        _ => Err(usage()),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&argv) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("ledger: {message}");
            ExitCode::from(2)
        }
    }
}
