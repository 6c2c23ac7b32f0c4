//! Command parsing and dispatch (dependency-free argument handling).

use hardware::GpuSpec;
use models::compile_model;
use schedcache::{CachedTuner, ScheduleCache, Store};
use simgpu::Tuner;
use std::fmt::Write as _;
use std::sync::Arc;
use tensor_expr::OpSpec;

/// CLI failure: bad usage with an explanation.
#[derive(Debug, PartialEq, Eq)]
pub enum CliError {
    /// Malformed command line.
    Usage(String),
    /// A check command (`gensor lint`) ran to completion and found
    /// problems: the payload is the full report, printed verbatim before
    /// exiting nonzero (no usage screen).
    Check(String),
}

/// Top-level usage text.
pub fn usage() -> String {
    "\
gensor — graph-based construction tensor compiler (Rust reproduction)

USAGE:
  gensor compile <op> <dims...> [--gpu G] [--method M] [--emit E] [--cache F]
                                [--remote S] [--peers A,B,C] [--token T]
                                [--seed N]
  gensor compare <op> <dims...> [--gpu G]
  gensor model <name> [--batch B] [--gpu G] [--method M] [--cache F]
                      [--remote S] [--peers A,B,C] [--token T] [--seed N]
  gensor serve (--socket S | --listen E) [--token T] [--peers A,B,C]
               [--cache F] [--cache-cap N] [--max-inflight N]
               [--deadline SECS] [--compact-bytes N]
               [--failpoints SPEC] [--seed N]
               [--flight-dir D] [--flight-cap N]
  gensor cluster status --peers A,B,C [--token T] [--emit E]
  gensor cluster repair --peers A,B,C [--token T] [--emit E | --json]
  gensor cluster metrics --peers A,B,C [--token T] [--emit E | --json]
  gensor serve-stats --socket S [--emit E]
  gensor cache stats <file> [--emit E]
  gensor cache compact <file>
  gensor lint [<op> <dims...> | <model> | zoo] [--gpu G] [--method M]
              [--batch B] [--budget N] [--json] [--deny-warnings]
              [--sarif FILE] [--verdicts FILE] [--explain GSxxx]
  gensor trace [<op> <dims...> | <model> | matmul] --out FILE [--csv FILE]
               [--gpu G] [--method M] [--batch B] [--budget N]
               [--remote S | --peers A,B,C] [--token T]
  gensor metrics [<op> <dims...> | <model>] [--socket S] [--gpu G]
                 [--method M] [--batch B] [--budget N] [--json]
  gensor devices

OPS:
  gemm M K N | gemv M N | conv N C H W OC KH KW S P | pool N C H W F S
  elementwise ELEMS INPUTS

OPTIONS:
  --gpu           rtx4090 (default) | orin | a100
  --method        gensor (default) | roller | ansor | cublas | pytorch
  --emit          summary (default) | cuda | pseudo | harness | json
  --batch         model batch size (default 8)
  --cache         persistent schedule cache file (JSONL); hits skip tuning
  --peers         comma-separated daemon endpoints forming a cache fabric;
                  compiles route by consistent hash with replica failover
                  and fall back to in-process compilation if none answers;
                  serve: pull what the other peers hold once at start-up
  --remote        one daemon at socket S: a spelling of the one-peer
                  --peers S (--peers wins when both are given)
  --token         shared auth token for token-guarded daemons (serve
                  requires it from clients; clients send it in Hello)
  --socket        Unix-domain socket path for serve / serve-stats
  --listen        serve bind endpoint: tcp://host:port or unix://path
                  (tcp://host:0 picks a free port; supersedes --socket)
  --cache-cap     bound the daemon's resident cache to N schedules (LRU)
  --max-inflight  running builds before the daemon sheds a miss with
                  Busy (default: 2 × cores; hits are never shed)
  --deadline      per-request compile deadline, seconds (default 120)
  --budget        lint/trace/metrics: cap Gensor construction at N chains
  --json          lint/metrics: machine-readable report
                  cluster metrics: shorthand for --emit json
  --deny-warnings lint: treat GS02x warnings as failures
  --sarif         lint: also write the report as SARIF 2.1.0 to FILE
  --verdicts      lint: verify through the incremental verdict cache at
                  FILE (created if absent; warm sweeps skip re-proving)
  --explain       lint: describe one GSxxx code and exit (no compile)
  --compact-bytes serve: compact the store when its file exceeds N bytes
  --failpoints    serve: arm deterministic fault injection, e.g.
                  'store.append=err(1);simgpu.eval=prob(0.05,42)'
                  (every command also honours GENSOR_FAILPOINTS)
  --out           trace: Chrome trace_event JSON output (open in Perfetto)
  --csv           trace: also write the per-walk convergence CSV here
  --flight-dir    serve: where the always-on flight recorder writes its
                  post-mortem JSONL dumps (default: the system temp dir)
  --flight-cap    serve: flight-recorder ring capacity in events
                  (default 4096)
  --seed          deterministic base RNG seed for the construction walks

MODELS:
  resnet50 | resnet34 | mobilenetv2 | bert | gpt2   (lint also takes `zoo`)
"
    .to_string()
}

fn parse_gpu(name: &str) -> Result<GpuSpec, CliError> {
    match name {
        "rtx4090" | "4090" => Ok(GpuSpec::rtx4090()),
        "orin" | "orin-nano" => Ok(GpuSpec::orin_nano()),
        "a100" => Ok(GpuSpec::a100()),
        other => Err(CliError::Usage(format!("unknown GPU '{other}'"))),
    }
}

fn parse_method(name: &str) -> Result<Box<dyn Tuner>, CliError> {
    Ok(match name {
        "gensor" => Box::new(gensor::Gensor::default()),
        "roller" => Box::new(roller::Roller::default()),
        "ansor" => Box::new(search::Ansor::default()),
        "cublas" | "vendor" => Box::new(search::VendorLib),
        "pytorch" | "eager" => Box::new(search::Eager),
        other => return Err(CliError::Usage(format!("unknown method '{other}'"))),
    })
}

/// Positional arguments plus `--key value` option pairs.
type ParsedArgs<'a> = (Vec<&'a str>, Vec<(&'a str, &'a str)>);

/// Options that are bare flags (no value token follows them).
const BOOL_FLAGS: &[&str] = &["json", "deny-warnings"];

/// Options that take a value: every key some verb reads. Anything outside
/// this table and [`BOOL_FLAGS`] is a usage error, so a misspelt option
/// never silently falls back to a default.
const OPTIONS: &[&str] = &[
    "batch",
    "budget",
    "cache",
    "cache-cap",
    "compact-bytes",
    "csv",
    "deadline",
    "emit",
    "explain",
    "failpoints",
    "flight-cap",
    "flight-dir",
    "gpu",
    "listen",
    "max-inflight",
    "method",
    "out",
    "peers",
    "remote",
    "sarif",
    "seed",
    "socket",
    "token",
    "verdicts",
];

/// Split positional arguments from `--key value` options.
fn split_args(args: &[String]) -> Result<ParsedArgs<'_>, CliError> {
    let mut pos = Vec::new();
    let mut opts = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let a = args[i].as_str();
        if let Some(key) = a.strip_prefix("--") {
            if BOOL_FLAGS.contains(&key) {
                opts.push((key, ""));
                i += 1;
                continue;
            }
            if !OPTIONS.contains(&key) {
                return Err(CliError::Usage(format!("unknown option --{key}")));
            }
            let val = args
                .get(i + 1)
                .ok_or_else(|| CliError::Usage(format!("--{key} needs a value")))?;
            opts.push((key, val.as_str()));
            i += 2;
        } else {
            pos.push(a);
            i += 1;
        }
    }
    Ok((pos, opts))
}

/// Whether a bare `--key` flag is present.
fn has_flag(opts: &[(&str, &str)], key: &str) -> bool {
    opts.iter().any(|(k, _)| *k == key)
}

fn opt<'a>(opts: &[(&str, &'a str)], key: &str, default: &'a str) -> &'a str {
    opts.iter()
        .rev()
        .find(|(k, _)| *k == key)
        .map(|(_, v)| *v)
        .unwrap_or(default)
}

/// Open the `--cache` file if the flag is present.
fn parse_cache(opts: &[(&str, &str)]) -> Result<Option<Arc<ScheduleCache>>, CliError> {
    match opts.iter().rev().find(|(k, _)| *k == "cache") {
        None => Ok(None),
        Some((_, path)) => ScheduleCache::open(path)
            .map(|c| Some(Arc::new(c)))
            .map_err(|e| CliError::Usage(format!("cannot open cache '{path}': {e}"))),
    }
}

/// Gensor construction config from the shared options: `--seed` reseeds
/// every stochastic walk, `--budget` caps the chain count.
fn gensor_config(opts: &[(&str, &str)]) -> Result<gensor::GensorConfig, CliError> {
    let mut cfg = gensor::GensorConfig::default();
    if let Some(b) = parse_num(opts, "budget")? {
        cfg.chains = (b as usize).max(1);
    }
    if let Some(seed) = parse_num(opts, "seed")? {
        cfg = cfg.with_seed(seed);
    }
    Ok(cfg)
}

/// The `--method` tuner. Gensor is built from [`gensor_config`] (so
/// `--seed` applies to it) and kept concrete, so a `--cache` run can
/// warm-start it.
enum Method {
    Gensor(gensor::Gensor),
    Other(Box<dyn Tuner>),
}

impl std::ops::Deref for Method {
    type Target = dyn Tuner;

    fn deref(&self) -> &(dyn Tuner + 'static) {
        match self {
            Method::Gensor(g) => g,
            Method::Other(t) => t.as_ref(),
        }
    }
}

impl Method {
    /// Wrap in a caching adapter. Gensor gets the warm-start path
    /// ([`CachedTuner::for_gensor`], as the daemon does); other methods
    /// are cached as-is.
    fn cached(&self, cache: Arc<ScheduleCache>) -> CachedTuner<'_> {
        match self {
            Method::Gensor(g) => CachedTuner::for_gensor(g, cache),
            Method::Other(t) => CachedTuner::new(t.as_ref(), cache),
        }
    }
}

fn configured_method(opts: &[(&str, &str)]) -> Result<Method, CliError> {
    let method_name = opt(opts, "method", "gensor");
    if method_name == "gensor" {
        Ok(Method::Gensor(gensor::Gensor::with_config(gensor_config(
            opts,
        )?)))
    } else {
        parse_method(method_name).map(Method::Other)
    }
}

/// One summary line about cache behaviour.
fn cache_line(cache: &ScheduleCache) -> String {
    let s = cache.stats();
    format!(
        "{} hits / {} misses ({} warm) — saved {:.3} s tuning, {} schedules banked",
        s.hits,
        s.misses,
        s.warm_starts,
        s.saved_tuning_s,
        cache.len()
    )
}

fn dims(pos: &[&str], n: usize, what: &str) -> Result<Vec<u64>, CliError> {
    if pos.len() != n {
        return Err(CliError::Usage(format!(
            "{what} expects {n} dims, got {}",
            pos.len()
        )));
    }
    pos.iter()
        .map(|p| {
            p.parse::<u64>()
                .map_err(|_| CliError::Usage(format!("bad dimension '{p}'")))
        })
        .collect()
}

fn parse_op(pos: &[&str]) -> Result<OpSpec, CliError> {
    let (kind, rest) = pos
        .split_first()
        .ok_or_else(|| CliError::Usage("missing operator".into()))?;
    let op = match *kind {
        "gemm" => {
            let d = dims(rest, 3, "gemm")?;
            OpSpec::Gemm {
                m: d[0],
                k: d[1],
                n: d[2],
            }
        }
        "gemv" => {
            let d = dims(rest, 2, "gemv")?;
            OpSpec::Gemv { m: d[0], n: d[1] }
        }
        "conv" => {
            let d = dims(rest, 9, "conv")?;
            OpSpec::Conv2d {
                n: d[0],
                c_in: d[1],
                h: d[2],
                w: d[3],
                c_out: d[4],
                kh: d[5],
                kw: d[6],
                stride: d[7],
                pad: d[8],
            }
        }
        "pool" => {
            let d = dims(rest, 6, "pool")?;
            OpSpec::AvgPool2d {
                n: d[0],
                c: d[1],
                h: d[2],
                w: d[3],
                f: d[4],
                stride: d[5],
            }
        }
        "elementwise" => {
            let d = dims(rest, 2, "elementwise")?;
            OpSpec::Elementwise {
                elems: d[0],
                num_inputs: u32::try_from(d[1]).unwrap_or(u32::MAX),
                ops_per_elem: 1,
            }
        }
        other => return Err(CliError::Usage(format!("unknown op '{other}'"))),
    };
    op.validate().map_err(CliError::Usage)?;
    Ok(op)
}

/// Run the CLI, returning the text to print.
pub fn run(args: &[String]) -> Result<String, CliError> {
    let (pos, opts) = split_args(args)?;
    let (cmd, rest) = pos
        .split_first()
        .ok_or_else(|| CliError::Usage("missing command".into()))?;
    match *cmd {
        "devices" => Ok(devices()),
        "compile" => compile(rest, &opts),
        "compare" => compare(rest, &opts),
        "model" => model(rest, &opts),
        "cache" => cache_cmd(rest, &opts),
        "serve" => serve(rest, &opts),
        "serve-stats" => serve_stats(rest, &opts),
        "cluster" => cluster(rest, &opts),
        "lint" => lint(rest, &opts),
        "trace" => trace(rest, &opts),
        "metrics" => metrics_cmd(rest, &opts),
        "help" | "--help" | "-h" => Ok(usage()),
        other => Err(CliError::Usage(format!("unknown command '{other}'"))),
    }
}

fn devices() -> String {
    let mut out = String::new();
    for spec in GpuSpec::all_presets() {
        let dram = spec.level(hardware::LevelKind::Dram);
        let _ = writeln!(
            out,
            "{:<18} {:>4} SMs  {:>8.1} TFLOPS fp32  {:>7.0} GB/s  L2 {:>3} MB",
            spec.name,
            spec.num_sms,
            spec.peak_fp32_gflops / 1000.0,
            dram.bandwidth_gbps(),
            spec.level(hardware::LevelKind::L2).capacity_bytes >> 20,
        );
    }
    out
}

/// The `--peers a,b,c` list (empty when absent). `--remote S` is a
/// spelling of the one-peer list `--peers S`; `--peers` wins when both
/// are given.
fn parse_peers(opts: &[(&str, &str)]) -> Vec<String> {
    opt(opts, "peers", opt(opts, "remote", ""))
        .split(',')
        .map(str::trim)
        .filter(|p| !p.is_empty())
        .map(str::to_string)
        .collect()
}

/// The default client policy plus the `--token`, for daemon-facing
/// commands.
fn client_config(opts: &[(&str, &str)]) -> served::ClientConfig {
    let token = opt(opts, "token", "");
    served::ClientConfig {
        token: (!token.is_empty()).then(|| token.to_string()),
        ..Default::default()
    }
}

/// One summary line about where a [`fabric::FabricClient`]'s compiles
/// ran.
fn fabric_line(f: &fabric::FabricClient) -> String {
    let r = f.report();
    format!(
        "{} remote over {} peer(s) ({} hits / {} misses, {} failovers, {} repairs), {} local fallback",
        r.remote,
        f.membership().peers().len(),
        r.hits,
        r.misses,
        r.failovers,
        r.repairs,
        r.local
    )
}

/// The [`fabric::FabricClient`] over `--peers` / `--remote` in front of
/// `local`, or `None` when the command line names no daemon.
fn daemon_tuner<'a>(
    opts: &[(&str, &str)],
    local: &'a dyn Tuner,
) -> Option<fabric::FabricClient<'a>> {
    let peers = parse_peers(opts);
    (!peers.is_empty()).then(|| {
        fabric::FabricClient::new(&peers, opt(opts, "method", "gensor"), None, local)
            .with_config(client_config(opts))
    })
}

fn compile(pos: &[&str], opts: &[(&str, &str)]) -> Result<String, CliError> {
    let op = parse_op(pos)?;
    let gpu = parse_gpu(opt(opts, "gpu", "rtx4090"))?;
    let method = configured_method(opts)?;
    let cache = parse_cache(opts)?;
    let cached = cache.as_ref().map(|c| method.cached(c.clone()));
    let local: &dyn Tuner = match &cached {
        Some(c) => c,
        None => &*method,
    };
    let fabric_tuner = daemon_tuner(opts, local);
    let tuner: &dyn Tuner = match &fabric_tuner {
        Some(f) => f,
        None => local,
    };
    let emit = opt(opts, "emit", "summary");
    let ck = tuner.compile(&op, &gpu);
    Ok(match emit {
        "cuda" => codegen::emit_cuda(&ck.etir),
        "harness" => codegen::emit_host_harness(&ck.etir),
        "pseudo" => codegen::emit_pseudo(&ck.etir),
        "json" => {
            let v = serde_json::json!({
                "op": op.label(),
                "gpu": gpu.name,
                "method": method.name(),
                "schedule": ck.etir,
                "report": ck.report,
                "tuning_s": ck.total_tuning_s(),
            });
            serde_json::to_string_pretty(&v).expect("serialize") + "\n"
        }
        "summary" => {
            let mut out = String::new();
            let _ = writeln!(out, "op       : {}", op.label());
            let _ = writeln!(out, "gpu      : {}", gpu.name);
            let _ = writeln!(out, "method   : {}", method.name());
            let _ = writeln!(out, "schedule : {}", ck.etir.describe());
            let _ = writeln!(
                out,
                "perf     : {:.1} GFLOPS ({:.1}% of peak), {:.3} ms",
                ck.report.gflops,
                100.0 * ck.report.gflops / gpu.peak_fp32_gflops,
                ck.report.time_ms()
            );
            let _ = writeln!(
                out,
                "profile  : occ {:.0}%  mem-busy {:.0}%  L2-hit {:.0}%",
                ck.report.sm_occupancy * 100.0,
                ck.report.mem_busy * 100.0,
                ck.report.l2_hit_rate * 100.0
            );
            let _ = writeln!(
                out,
                "tuning   : {:.4} s ({} candidates)",
                ck.total_tuning_s(),
                ck.candidates_evaluated
            );
            if let Some(cache) = &cache {
                let _ = writeln!(out, "cache    : {}", cache_line(cache));
            }
            if let Some(f) = &fabric_tuner {
                let _ = writeln!(out, "fabric   : {}", fabric_line(f));
            }
            out
        }
        other => return Err(CliError::Usage(format!("unknown emit mode '{other}'"))),
    })
}

fn compare(pos: &[&str], opts: &[(&str, &str)]) -> Result<String, CliError> {
    let op = parse_op(pos)?;
    let gpu = parse_gpu(opt(opts, "gpu", "rtx4090"))?;
    let mut out = format!("{} on {}\n", op.label(), gpu.name);
    let _ = writeln!(
        out,
        "{:<10} {:>12} {:>10} {:>12}",
        "method", "GFLOPS", "time(ms)", "tuning(s)"
    );
    for name in ["pytorch", "cublas", "roller", "gensor", "ansor"] {
        let t = parse_method(name)?;
        let ck = t.compile(&op, &gpu);
        let _ = writeln!(
            out,
            "{:<10} {:>12.1} {:>10.3} {:>12.3}",
            t.name(),
            ck.report.gflops,
            ck.report.time_ms(),
            ck.total_tuning_s()
        );
    }
    Ok(out)
}

fn model(pos: &[&str], opts: &[(&str, &str)]) -> Result<String, CliError> {
    let name = pos
        .first()
        .ok_or_else(|| CliError::Usage("missing model name".into()))?;
    let batch: u64 = opt(opts, "batch", "8")
        .parse()
        .map_err(|_| CliError::Usage("bad --batch".into()))?;
    let gpu = parse_gpu(opt(opts, "gpu", "rtx4090"))?;
    let method = configured_method(opts)?;
    let cache = parse_cache(opts)?;
    let cached = cache.as_ref().map(|c| method.cached(c.clone()));
    let local: &dyn Tuner = match &cached {
        Some(c) => c,
        None => &*method,
    };
    let fabric_tuner = daemon_tuner(opts, local);
    let tuner: &dyn Tuner = match &fabric_tuner {
        Some(f) => f,
        None => local,
    };
    let graph = model_graph(name, batch)?;
    let cm = compile_model(tuner, &graph, &gpu);
    let mut out = String::new();
    let _ = writeln!(out, "model      : {} (batch {})", graph.name, graph.batch);
    let _ = writeln!(out, "gpu        : {}", gpu.name);
    let _ = writeln!(out, "method     : {}", cm.method);
    let _ = writeln!(
        out,
        "kernels    : {} unique / {} launches",
        graph.unique_ops(),
        graph.total_launches()
    );
    let _ = writeln!(out, "pass time  : {:.3} ms", cm.pass_time_us / 1000.0);
    let _ = writeln!(out, "throughput : {:.1} samples/s", cm.throughput);
    let _ = writeln!(out, "tuning     : {:.3} s", cm.tuning_s);
    if let Some(cache) = &cache {
        let _ = writeln!(out, "cache      : {}", cache_line(cache));
    }
    if let Some(f) = &fabric_tuner {
        let _ = writeln!(out, "fabric     : {}", fabric_line(f));
    }
    Ok(out)
}

/// Model-zoo names `gensor model` and `gensor lint` accept.
const ZOO_MODELS: &[&str] = &["resnet50", "resnet34", "mobilenetv2", "bert", "gpt2"];

/// Build a zoo graph by CLI name.
fn model_graph(name: &str, batch: u64) -> Result<models::ModelGraph, CliError> {
    Ok(match name {
        "resnet50" => models::zoo::resnet50(batch),
        "resnet34" => models::zoo::resnet34(batch),
        "mobilenetv2" | "mobilenet" => models::zoo::mobilenet_v2(batch),
        "bert" | "bert-small" => models::zoo::bert_small(batch, 128),
        "gpt2" => models::zoo::gpt2(batch, 1024),
        other => return Err(CliError::Usage(format!("unknown model '{other}'"))),
    })
}

/// Unique operators of one zoo model, in first-appearance order.
fn unique_ops_of(name: &str, batch: u64, into: &mut Vec<OpSpec>) -> Result<(), CliError> {
    for l in model_graph(name, batch)?.layers {
        if !into.contains(&l.op) {
            into.push(l.op);
        }
    }
    Ok(())
}

/// Resolve a lint/trace/metrics target — one operator, one zoo model,
/// `matmul` (a default GEMM), or `zoo` — into the operators to compile.
fn target_ops(pos: &[&str], batch: u64) -> Result<Vec<OpSpec>, CliError> {
    let target = pos.first().copied().unwrap_or("zoo");
    let mut ops: Vec<OpSpec> = Vec::new();
    match target {
        "gemm" | "gemv" | "conv" | "pool" | "elementwise" => ops.push(parse_op(pos)?),
        // Convenience alias: `matmul` with no dims is a default GEMM.
        "matmul" if pos.len() == 1 => ops.push(OpSpec::gemm(512, 256, 512)),
        "matmul" => {
            let mut as_gemm = pos.to_vec();
            as_gemm[0] = "gemm";
            ops.push(parse_op(&as_gemm)?);
        }
        "zoo" => {
            for name in ZOO_MODELS {
                unique_ops_of(name, batch, &mut ops)?;
            }
        }
        name => unique_ops_of(name, batch, &mut ops)?,
    }
    Ok(ops)
}

/// `gensor lint --explain GSxxx` — the rule book entry for one code:
/// description, default severity, and a minimal failing example.
fn explain_code(raw: &str) -> Result<String, CliError> {
    let code = verify::Code::parse(raw).ok_or_else(|| {
        let known: Vec<&str> = verify::Code::ALL.iter().map(|c| c.as_str()).collect();
        CliError::Usage(format!(
            "unknown diagnostic code '{raw}' (known: {})",
            known.join(" ")
        ))
    })?;
    let mut out = String::new();
    let _ = writeln!(out, "{} ({})", code.as_str(), code.severity().label());
    let _ = writeln!(out, "  {}", code.description());
    let _ = writeln!(out, "  example: {}", code.example());
    Ok(out)
}

/// `gensor lint` — compile each target operator, run the static schedule
/// verifier over the winner, and report typed `GS0xx` diagnostics. Any
/// error — or, under `--deny-warnings`, any warning — makes the command
/// exit nonzero (via [`CliError::Check`]) with the full report printed.
fn lint(pos: &[&str], opts: &[(&str, &str)]) -> Result<String, CliError> {
    // `--explain GSxxx` is a pure lookup: no compile, no targets needed.
    let explain = opt(opts, "explain", "");
    if !explain.is_empty() {
        return explain_code(explain);
    }
    let gpu = parse_gpu(opt(opts, "gpu", "rtx4090"))?;
    let deny = has_flag(opts, "deny-warnings");
    let as_json = has_flag(opts, "json");
    let batch: u64 = opt(opts, "batch", "1")
        .parse()
        .map_err(|_| CliError::Usage("bad --batch".into()))?;
    let method = configured_method(opts)?;
    let ops = target_ops(pos, batch)?;
    // `--verdicts F` routes every verification through the incremental
    // verdict cache at F: warm sweeps skip the pipeline entirely.
    let verdicts_path = opt(opts, "verdicts", "");
    let verdicts = if verdicts_path.is_empty() {
        None
    } else {
        Some(verify::VerdictCache::open(verdicts_path))
    };
    let target = (&gpu, etir::identity::gpu_fingerprint(&gpu));
    let reports: Vec<verify::Report> = ops
        .iter()
        .map(|op| {
            let ck = method.compile(op, &gpu);
            match &verdicts {
                Some(vc) => vc.verify_on(&ck.etir, Some(target)),
                None => verify::verify_schedule(&ck.etir, Some(&gpu)),
            }
        })
        .collect();
    let vstats = verdicts.as_ref().map(|vc| {
        vc.persist().map_err(|e| {
            CliError::Usage(format!("cannot write verdicts '{verdicts_path}': {e}"))
        })?;
        Ok::<_, CliError>(vc.stats())
    });
    let vstats = vstats.transpose()?;
    let sarif_path = opt(opts, "sarif", "");
    if !sarif_path.is_empty() {
        let doc = verify::sarif::to_sarif(&reports);
        let body = serde_json::to_string_pretty(&doc).expect("serialize") + "\n";
        std::fs::write(sarif_path, body)
            .map_err(|e| CliError::Usage(format!("cannot write '{sarif_path}': {e}")))?;
    }
    let errors: usize = reports.iter().map(|r| r.error_count()).sum();
    let warnings: usize = reports.iter().map(|r| r.warning_count()).sum();
    let failed = errors > 0 || (deny && warnings > 0);
    let out = if as_json {
        let arr: Vec<serde_json::Value> = reports.iter().map(|r| r.to_json()).collect();
        let mut v = serde_json::json!({
            "gpu": gpu.name,
            "method": method.name(),
            "checked": reports.len() as u64,
            "errors": errors as u64,
            "warnings": warnings as u64,
            "ok": !failed,
            "reports": serde_json::Value::Array(arr),
        });
        if let (Some(s), serde_json::Value::Object(obj)) = (&vstats, &mut v) {
            obj.push(("verdict_hits".to_string(), serde_json::json!(s.hits)));
            obj.push(("verdict_misses".to_string(), serde_json::json!(s.misses)));
        }
        serde_json::to_string_pretty(&v).expect("serialize") + "\n"
    } else {
        let mut out = String::new();
        for r in &reports {
            if r.diagnostics.is_empty() {
                let _ = writeln!(out, "ok    {}", r.op_label);
            } else {
                out.push_str(&r.render());
            }
        }
        let _ = writeln!(
            out,
            "lint: {} schedule(s) checked on {} — {} error(s), {} warning(s){}",
            reports.len(),
            gpu.name,
            errors,
            warnings,
            if deny { " (deny-warnings)" } else { "" }
        );
        if let Some(s) = &vstats {
            let _ = writeln!(
                out,
                "verdicts: {} warm, {} verified fresh ({:.0}% hit rate)",
                s.hits,
                s.misses,
                s.hit_rate() * 100.0
            );
        }
        out
    };
    if failed {
        Err(CliError::Check(out))
    } else {
        Ok(out)
    }
}

/// `gensor trace` — compile the target with the tracing collector
/// installed and write the span stream as Chrome `trace_event` JSON
/// (loadable at ui.perfetto.dev), optionally with the per-walk
/// convergence CSV (paper Fig. 8).
///
/// With `--peers` (or `--remote`, a one-daemon fleet) the compile runs
/// through the cache fabric under a freshly minted [`obs::TraceContext`]:
/// every daemon tags its `serve.request` spans with the propagated
/// trace/parent ids, the client pulls each daemon's flight-recorder
/// buffer over `TraceDump`, and the merged document shows one timeline
/// per process — a single distributed trace under one trace id.
fn trace(pos: &[&str], opts: &[(&str, &str)]) -> Result<String, CliError> {
    let out_path = opt(opts, "out", "");
    if out_path.is_empty() {
        return Err(CliError::Usage("trace needs --out <file>".into()));
    }
    let gpu = parse_gpu(opt(opts, "gpu", "rtx4090"))?;
    let batch: u64 = opt(opts, "batch", "1")
        .parse()
        .map_err(|_| CliError::Usage("bad --batch".into()))?;
    let method = configured_method(opts)?;
    let ops = target_ops(pos, batch)?;
    let peers = parse_peers(opts);
    let ctx = obs::TraceContext::mint();
    let ring = Arc::new(obs::RingCollector::new(1 << 20));
    obs::install(ring.clone());
    if peers.is_empty() {
        for op in &ops {
            let ck = method.compile(op, &gpu);
            // Verify + emit on this thread so the trace shows the full
            // pipeline nested under one timeline: tune → verify → codegen.
            let _ = verify::verify_schedule(&ck.etir, Some(&gpu));
            let _ = codegen::emit_cuda(&ck.etir);
        }
    } else {
        let fabric_tuner =
            fabric::FabricClient::new(&peers, opt(opts, "method", "gensor"), None, &*method)
                .with_config(client_config(opts))
                .with_trace(ctx);
        for op in &ops {
            let _ = fabric_tuner.compile(op, &gpu);
        }
    }
    obs::uninstall();
    let events = ring.take();
    let mut out = String::new();
    if peers.is_empty() {
        std::fs::write(out_path, obs::chrome::trace_json(&events))
            .map_err(|e| CliError::Usage(format!("cannot write '{out_path}': {e}")))?;
        let _ = writeln!(
            out,
            "trace : {out_path} ({} events from {} op(s) — open at ui.perfetto.dev)",
            events.len(),
            ops.len()
        );
    } else {
        // Pull every daemon's span buffer and merge: client is pid 1,
        // each peer gets its own pid and a process_name metadata row.
        let cfg = client_config(opts);
        let mut remote: Vec<(String, Vec<obs::Event>)> = Vec::new();
        for ep in &peers {
            match served::Client::connect_with(ep, cfg.clone()).and_then(|mut c| c.trace_dump()) {
                Ok((tag, wire)) => {
                    let name = if tag.is_empty() {
                        ep.clone()
                    } else {
                        format!("{ep} [{tag}]")
                    };
                    remote.push((name, wire.iter().map(served::WireEvent::to_event).collect()));
                }
                Err(e) => {
                    let _ = writeln!(out, "peer  : {ep} trace pull failed — {e}");
                }
            }
        }
        let mut parts = vec![obs::chrome::TraceProcess {
            pid: 1,
            name: "client".to_string(),
            events: &events,
        }];
        for (i, (name, evs)) in remote.iter().enumerate() {
            parts.push(obs::chrome::TraceProcess {
                pid: 2 + i as u64,
                name: name.clone(),
                events: evs,
            });
        }
        std::fs::write(out_path, obs::chrome::trace_json_multi(&parts))
            .map_err(|e| CliError::Usage(format!("cannot write '{out_path}': {e}")))?;
        let remote_events: usize = remote.iter().map(|(_, e)| e.len()).sum();
        let _ = writeln!(
            out,
            "trace : {out_path} ({} local + {} remote events from {} peer(s), trace id {} — open at ui.perfetto.dev)",
            events.len(),
            remote_events,
            remote.len(),
            ctx.trace_hex()
        );
    }
    let csv_path = opt(opts, "csv", "");
    if !csv_path.is_empty() {
        let csv = obs::convergence::walk_csv(&events);
        let steps = csv.lines().count().saturating_sub(1);
        std::fs::write(csv_path, csv)
            .map_err(|e| CliError::Usage(format!("cannot write '{csv_path}': {e}")))?;
        let _ = writeln!(out, "csv   : {csv_path} ({steps} walk steps)");
    }
    Ok(out)
}

/// `gensor metrics` — Prometheus text exposition. With `--socket`, fetch
/// a running daemon's registry; otherwise compile the target locally
/// (twice, so cache hit/miss counters are exercised) and render this
/// process's registry.
fn metrics_cmd(pos: &[&str], opts: &[(&str, &str)]) -> Result<String, CliError> {
    let json = has_flag(opts, "json");
    let socket = opt(opts, "socket", "");
    if !socket.is_empty() {
        if json {
            return Err(CliError::Usage(
                "metrics --json renders the local registry; for daemons use \
                 `gensor cluster metrics --peers … --json`"
                    .into(),
            ));
        }
        let mut client = served::Client::connect(socket)
            .map_err(|e| CliError::Usage(format!("cannot reach daemon at '{socket}': {e}")))?;
        return client
            .metrics()
            .map_err(|e| CliError::Usage(format!("metrics request failed: {e}")));
    }
    let gpu = parse_gpu(opt(opts, "gpu", "rtx4090"))?;
    let batch: u64 = opt(opts, "batch", "1")
        .parse()
        .map_err(|_| CliError::Usage("bad --batch".into()))?;
    let method = configured_method(opts)?;
    let ops = if pos.is_empty() {
        vec![OpSpec::gemm(256, 128, 256)]
    } else {
        target_ops(pos, batch)?
    };
    let cache = Arc::new(ScheduleCache::in_memory());
    let tuner = CachedTuner::new(&*method, cache);
    for op in &ops {
        // Two passes per operator: the first misses (tuner + verifier +
        // cache-miss counters), the second hits.
        for _ in 0..2 {
            let ck = tuner.compile(op, &gpu);
            let _ = verify::verify_schedule(&ck.etir, Some(&gpu));
        }
    }
    if json {
        // Machine-readable snapshot: sorted names, fixed key order —
        // two renders of the same registry state are byte-identical.
        Ok(obs::prometheus::render_json_snapshot(
            &obs::metrics::snapshot(),
        ))
    } else {
        Ok(obs::prometheus::render())
    }
}

/// `gensor serve --socket <path>` — run the compilation daemon until a
/// `Shutdown` frame or SIGTERM/SIGINT drains it.
fn serve(_pos: &[&str], opts: &[(&str, &str)]) -> Result<String, CliError> {
    // `--listen tcp://host:port | unix://path` supersedes `--socket`;
    // either spelling works, so every existing invocation keeps running.
    let socket = {
        let listen = opt(opts, "listen", "");
        if listen.is_empty() {
            opt(opts, "socket", "")
        } else {
            listen
        }
    };
    if socket.is_empty() {
        return Err(CliError::Usage(
            "serve needs --socket <path> or --listen <endpoint>".into(),
        ));
    }
    let cache = match parse_cache_bounded(opts)? {
        Some(c) => c,
        None => match parse_cap(opts)? {
            Some(cap) => Arc::new(ScheduleCache::in_memory_bounded(cap)),
            None => Arc::new(ScheduleCache::in_memory()),
        },
    };
    let mut cfg = served::ServerConfig::new(socket);
    cfg.handle_signals = true;
    let token = opt(opts, "token", "");
    if !token.is_empty() {
        cfg.token = Some(token.to_string());
    }
    cfg.peers = parse_peers(opts);
    if let Some(m) = parse_num(opts, "max-inflight")? {
        cfg.max_inflight = (m as usize).max(1);
    }
    if let Some(d) = parse_num(opts, "deadline")? {
        cfg.deadline = std::time::Duration::from_secs(d);
    }
    if let Some(b) = parse_num(opts, "compact-bytes")? {
        cfg.compact_bytes = Some(b);
    }
    let failpoints = opt(opts, "failpoints", "");
    if !failpoints.is_empty() {
        let n = faults::configure(failpoints)
            .map_err(|e| CliError::Usage(format!("bad --failpoints: {e}")))?;
        eprintln!("gensor serve: {n} failpoint(s) armed");
    }
    let mut gcfg = gensor::GensorConfig::default();
    if let Some(seed) = parse_num(opts, "seed")? {
        gcfg = gcfg.with_seed(seed);
    }
    let max_inflight = cfg.max_inflight;
    let (peers, token) = (cfg.peers.clone(), cfg.token.clone());
    let registry = served::MethodRegistry::standard_with_gensor(gcfg);
    let server = served::Server::bind(cfg, cache.clone(), registry)
        .map_err(|e| CliError::Usage(format!("cannot bind '{socket}': {e}")))?;
    // With `--peers`, pull what the other daemons hold once, beside the
    // accept loop: a cold-restarted daemon refills from the survivors.
    let startup_sync = (!peers.is_empty())
        .then(|| fabric::spawn_startup_sync(cache, &server.endpoint().to_string(), &peers, token));
    // Always-on flight recorder: a bounded ring of recent spans/events
    // that doubles as the `TraceDump` buffer and lands on disk as
    // timestamped JSONL on panic, failpoint trip, SIGUSR1, or drain.
    // Installed after bind so the tag carries the *resolved* endpoint.
    let flight_dir = {
        let d = opt(opts, "flight-dir", "");
        if d.is_empty() {
            std::env::temp_dir().join("gensor-flight")
        } else {
            std::path::PathBuf::from(d)
        }
    };
    let flight_cap = parse_num(opts, "flight-cap")?
        .map(|n| (n as usize).max(16))
        .unwrap_or(4096);
    let flight_tag: String = server
        .endpoint()
        .to_string()
        .trim_start_matches("tcp://")
        .trim_start_matches("unix://")
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '-' })
        .collect();
    obs::FlightRecorder::install(&flight_dir, flight_cap, &flight_tag);
    eprintln!(
        "gensor serve: flight recorder armed ({flight_cap} events, dumps to {})",
        flight_dir.display()
    );
    // Announce on stderr before blocking; the summary goes to stdout at
    // drain time. The *resolved* endpoint is printed — a tcp://host:0
    // bind announces the kernel-assigned port.
    eprintln!(
        "gensor serve: listening on {} (max {max_inflight} builds in flight)",
        server.endpoint()
    );
    let report = server
        .run()
        .map_err(|e| CliError::Usage(format!("serve failed: {e}")))?;
    if let Some(handle) = startup_sync {
        let _ = handle.join();
    }
    let s = report.stats;
    Ok(format!(
        "drained ({}) after {:.1} s: {} requests, {} compiles ({} built / {} hits / {} coalesced), {} shed\n",
        report.reason, s.uptime_s, s.requests, s.compiles, s.misses, s.hits, s.coalesced, s.shed
    ))
}

/// `gensor cluster` — fleet-wide views over `--peers`:
/// `status` probes liveness, cache counters, and ring shares;
/// `repair` drives the whole fleet's caches to the union key set;
/// `metrics` scrapes every peer's Prometheus registry and merges the
/// samples into one fleet view with per-peer labels.
fn cluster(pos: &[&str], opts: &[(&str, &str)]) -> Result<String, CliError> {
    let sub = pos.first().ok_or_else(|| {
        CliError::Usage("cluster expects a subcommand: status | repair | metrics".into())
    })?;
    if !matches!(*sub, "status" | "repair" | "metrics") {
        return Err(CliError::Usage(format!(
            "unknown cluster subcommand '{sub}' (expected status | repair | metrics)"
        )));
    }
    let peers = parse_peers(opts);
    if peers.is_empty() {
        return Err(CliError::Usage(format!(
            "cluster {sub} needs --peers <a,b,c>"
        )));
    }
    // A fleet probe should answer fast even when peers are down: one
    // connect attempt each, no retry backoff.
    let cfg = served::ClientConfig {
        retries: 1,
        connect_timeout: std::time::Duration::from_millis(500),
        ..client_config(opts)
    };
    let emit = if has_flag(opts, "json") {
        "json"
    } else {
        opt(opts, "emit", "summary")
    };
    if *sub == "metrics" {
        let fleet = fabric::cluster_metrics(&peers, &cfg);
        return match emit {
            "json" => Ok(fleet.render_json()),
            "summary" => Ok(fleet.render()),
            // The merged text exposition itself, for piping into a
            // Prometheus-compatible toolchain.
            "prometheus" | "text" => Ok(fleet.merged_text()),
            other => Err(CliError::Usage(format!("unknown emit mode '{other}'"))),
        };
    }
    if *sub == "repair" {
        let report = fabric::converge_cluster(&peers, &cfg);
        if emit == "json" {
            return Ok(format!(
                "{{\"peers\":{},\"union_keys\":{},\"pushed\":{},\"rejected\":{},\"converged\":{}}}\n",
                report.peers,
                report.union_keys,
                report.pushed,
                report.rejected,
                report.converged
            ));
        }
        return Ok(format!(
            "repair: {} peers, union {} keys, pushed {} (rejected {}), converged: {}\n",
            report.peers, report.union_keys, report.pushed, report.rejected, report.converged
        ));
    }
    let status = fabric::cluster_status(&peers, &cfg);
    match emit {
        "json" => Ok(serde_json::to_string_pretty(&status).expect("serialize") + "\n"),
        "summary" => Ok(status.render()),
        other => Err(CliError::Usage(format!("unknown emit mode '{other}'"))),
    }
}

/// `gensor serve-stats --socket <path>` — query a running daemon.
fn serve_stats(_pos: &[&str], opts: &[(&str, &str)]) -> Result<String, CliError> {
    let socket = opt(opts, "socket", "");
    if socket.is_empty() {
        return Err(CliError::Usage("serve-stats needs --socket <path>".into()));
    }
    let s = served::Client::connect(socket)
        .and_then(|mut c| c.stats())
        .map_err(|e| CliError::Usage(format!("cannot reach daemon at '{socket}': {e}")))?;
    match opt(opts, "emit", "summary") {
        "json" => Ok(serde_json::to_string_pretty(&s).expect("serialize") + "\n"),
        "summary" => {
            let mut out = String::new();
            let _ = writeln!(out, "daemon      : {socket} (up {:.1} s)", s.uptime_s);
            let _ = writeln!(
                out,
                "requests    : {} over {} connections ({} proto errors)",
                s.requests, s.connections, s.proto_errors
            );
            let _ = writeln!(
                out,
                "compiles    : {} ({} built / {} hits / {} coalesced)",
                s.compiles, s.misses, s.hits, s.coalesced
            );
            let _ = writeln!(
                out,
                "admission   : {} shed, {} deadline-expired",
                s.shed, s.deadline_expired
            );
            let _ = writeln!(
                out,
                "latency     : p50 {} µs, p99 {} µs",
                s.latency_p50_us, s.latency_p99_us
            );
            let _ = writeln!(
                out,
                "queue       : p50 {} µs, p99 {} µs",
                s.queue_p50_us, s.queue_p99_us
            );
            let _ = writeln!(
                out,
                "service     : p50 {} µs, p99 {} µs",
                s.service_p50_us, s.service_p99_us
            );
            let _ = writeln!(
                out,
                "cache       : {} hits / {} misses ({} warm), {} evicted, saved {:.3} s",
                s.cache.hits,
                s.cache.misses,
                s.cache.warm_starts,
                s.cache.evictions,
                s.cache.saved_tuning_s
            );
            let _ = writeln!(
                out,
                "robustness  : {} worker panics, {} torn records recovered",
                s.worker_panics, s.cache.recovered_truncated
            );
            Ok(out)
        }
        other => Err(CliError::Usage(format!("unknown emit mode '{other}'"))),
    }
}

/// Parse an optional numeric `--key`.
fn parse_num(opts: &[(&str, &str)], key: &str) -> Result<Option<u64>, CliError> {
    match opts.iter().rev().find(|(k, _)| *k == key) {
        None => Ok(None),
        Some((_, v)) => v
            .parse::<u64>()
            .map(Some)
            .map_err(|_| CliError::Usage(format!("bad --{key} '{v}'"))),
    }
}

/// The `--cache-cap` option, if present (0 is rejected).
fn parse_cap(opts: &[(&str, &str)]) -> Result<Option<usize>, CliError> {
    match parse_num(opts, "cache-cap")? {
        None => Ok(None),
        Some(0) => Err(CliError::Usage("--cache-cap must be ≥ 1".into())),
        Some(n) => Ok(Some(n as usize)),
    }
}

/// Open the `--cache` file honouring `--cache-cap`, if the flag is
/// present.
fn parse_cache_bounded(opts: &[(&str, &str)]) -> Result<Option<Arc<ScheduleCache>>, CliError> {
    let Some((_, path)) = opts.iter().rev().find(|(k, _)| *k == "cache") else {
        return Ok(None);
    };
    let opened = match parse_cap(opts)? {
        Some(cap) => ScheduleCache::open_bounded(path, cap),
        None => ScheduleCache::open(path),
    };
    opened
        .map(|c| Some(Arc::new(c)))
        .map_err(|e| CliError::Usage(format!("cannot open cache '{path}': {e}")))
}

/// `gensor cache stats <file>` — inspect a persistent schedule cache.
fn cache_cmd(pos: &[&str], opts: &[(&str, &str)]) -> Result<String, CliError> {
    let (sub, rest) = pos
        .split_first()
        .ok_or_else(|| CliError::Usage("cache expects a subcommand: stats | compact".into()))?;
    if *sub == "compact" {
        let path = rest
            .first()
            .ok_or_else(|| CliError::Usage("cache compact expects a file path".into()))?;
        let report = Store::open(*path)
            .compact()
            .map_err(|e| CliError::Usage(format!("cannot compact '{path}': {e}")))?;
        return Ok(format!(
            "compacted {path}: kept {} records, dropped {} ({} superseded, {} foreign-version, {} corrupt)\n",
            report.kept,
            report.dropped(),
            report.superseded,
            report.foreign_version,
            report.corrupt
        ));
    }
    if *sub != "stats" {
        return Err(CliError::Usage(format!("unknown cache subcommand '{sub}'")));
    }
    let path = rest
        .first()
        .ok_or_else(|| CliError::Usage("cache stats expects a file path".into()))?;
    let store = Store::open(*path);
    let (records, report) = store
        .load()
        .map_err(|e| CliError::Usage(format!("cannot read cache '{path}': {e}")))?;
    // `fold`, not `sum()`: an empty f64 sum is `-0.0`, which would print
    // as "-0.000 s" for a fresh cache file.
    let banked: f64 = records.iter().fold(0.0, |a, r| a + r.tuning_s);
    // Raw inspection sees every parseable record; flag the ones the cache
    // verifier will refuse to load so a damaged file is visible here too.
    let illegal = records
        .iter()
        .filter(|r| !verify::verify_schedule(&r.etir, None).is_legal())
        .count();
    match opt(opts, "emit", "summary") {
        "json" => {
            let v = serde_json::json!({
                "file": *path,
                "records": report.loaded as u64,
                "corrupt_lines": report.corrupt as u64,
                "version_skipped": report.version_skipped as u64,
                "illegal_records": illegal as u64,
                "tuning_banked_s": banked,
            });
            Ok(serde_json::to_string_pretty(&v).expect("serialize") + "\n")
        }
        "summary" => {
            let mut out = String::new();
            let _ = writeln!(out, "cache file : {path}");
            let _ = writeln!(
                out,
                "records    : {} loaded, {} corrupt, {} foreign-version (skipped)",
                report.loaded, report.corrupt, report.version_skipped
            );
            if illegal > 0 {
                let _ = writeln!(
                    out,
                    "verify     : {illegal} record(s) fail static verification \
                     (rejected at cache load, never served)"
                );
            }
            let _ = writeln!(out, "banked     : {banked:.3} s of tuning work");
            if !records.is_empty() {
                let _ = writeln!(out);
                let _ = writeln!(
                    out,
                    "{:<22} {:<10} {:>10} {:>10}",
                    "op", "method", "time(µs)", "tuning(s)"
                );
                for r in &records {
                    let _ = writeln!(
                        out,
                        "{:<22} {:<10} {:>10.2} {:>10.4}",
                        r.op_label, r.method, r.report.time_us, r.tuning_s
                    );
                }
            }
            Ok(out)
        }
        other => Err(CliError::Usage(format!("unknown emit mode '{other}'"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn call(line: &str) -> Result<String, CliError> {
        let args: Vec<String> = line.split_whitespace().map(str::to_string).collect();
        run(&args)
    }

    #[test]
    fn devices_lists_all_presets() {
        let out = call("devices").unwrap();
        assert!(out.contains("RTX 4090"));
        assert!(out.contains("Orin Nano"));
        assert!(out.contains("A100"));
    }

    #[test]
    fn compile_summary_gemm() {
        let out = call("compile gemm 512 256 512").unwrap();
        assert!(out.contains("GEMM[512,256,512]"));
        assert!(out.contains("method   : Gensor"));
        assert!(out.contains("GFLOPS"));
    }

    #[test]
    fn compile_cuda_emission() {
        let out = call("compile gemm 256 128 256 --emit cuda --method roller").unwrap();
        assert!(out.contains("__global__ void gemm_kernel"));
    }

    #[test]
    fn compile_harness_emission() {
        let out = call("compile gemm 128 64 128 --emit harness --method roller").unwrap();
        assert!(out.contains("int main()"));
        assert!(out.contains("PASS"));
    }

    #[test]
    fn compile_json_is_valid() {
        let out = call("compile gemv 1024 512 --emit json").unwrap();
        let v: serde_json::Value = serde_json::from_str(&out).unwrap();
        assert_eq!(v["op"], "GEMV[1024,512]");
        assert!(v["report"]["gflops"].as_f64().unwrap() > 0.0);
    }

    #[test]
    fn compile_conv_on_orin() {
        let out = call("compile conv 8 32 28 28 64 3 3 1 1 --gpu orin --method roller").unwrap();
        assert!(out.contains("Orin"));
    }

    #[test]
    fn compare_lists_all_methods() {
        let out = call("compare gemm 512 512 512").unwrap();
        for m in ["PyTorch", "cuBLAS", "Roller", "Gensor", "Ansor"] {
            assert!(out.contains(m), "missing {m} in:\n{out}");
        }
    }

    #[test]
    fn model_summary() {
        let out = call("model bert --batch 2 --method roller").unwrap();
        assert!(out.contains("BERT-small"));
        assert!(out.contains("throughput"));
    }

    #[test]
    fn usage_errors_are_informative() {
        assert!(matches!(call("compile gemm 1 2"), Err(CliError::Usage(_))));
        assert!(matches!(call("compile frob 1"), Err(CliError::Usage(_))));
        for bad in ["gemm 0 2 3", "pool 1 1 2 2 3 1", "elementwise 64 5"] {
            assert!(
                matches!(call(&format!("compile {bad}")), Err(CliError::Usage(_))),
                "{bad}"
            );
        }
        assert!(matches!(
            call("compile gemm 1 2 3 --gpu h100"),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(call(""), Err(CliError::Usage(_))));
        assert!(matches!(
            call("compile gemm 1 2 3 --emit asm"),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn last_option_wins() {
        let out = call("compile gemm 256 256 256 --method roller --method cublas").unwrap();
        assert!(out.contains("cuBLAS"));
    }

    fn tmp_cache(tag: &str) -> String {
        let dir = std::env::temp_dir().join("gensor-cli-cache-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("{tag}-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        path.to_str().unwrap().to_string()
    }

    #[test]
    fn compile_with_cache_hits_on_second_run() {
        let path = tmp_cache("compile");
        let cmd = format!("compile gemm 512 256 512 --method roller --cache {path}");
        let first = call(&cmd).unwrap();
        assert!(first.contains("0 hits / 1 misses"), "{first}");
        let second = call(&cmd).unwrap();
        assert!(second.contains("1 hits / 0 misses"), "{second}");
        assert!(second.contains("tuning   : 0.0000 s"), "{second}");
    }

    #[test]
    fn model_with_cache_reports_cache_line() {
        let path = tmp_cache("model");
        let cmd = format!("model bert --batch 2 --method roller --cache {path}");
        let first = call(&cmd).unwrap();
        assert!(first.contains("cache      : 0 hits"), "{first}");
        let second = call(&cmd).unwrap();
        assert!(second.contains("0 misses"), "{second}");
        assert!(second.contains("tuning     : 0.000 s"), "{second}");
    }

    #[test]
    fn cache_stats_lists_banked_schedules() {
        let path = tmp_cache("stats");
        call(&format!(
            "compile gemm 512 256 512 --method roller --cache {path}"
        ))
        .unwrap();
        let out = call(&format!("cache stats {path}")).unwrap();
        assert!(out.contains("records    : 1 loaded, 0 corrupt"), "{out}");
        assert!(out.contains("GEMM[512,256,512]"), "{out}");
        let json = call(&format!("cache stats {path} --emit json")).unwrap();
        let v: serde_json::Value = serde_json::from_str(&json).unwrap();
        assert_eq!(v["records"].as_u64(), Some(1));
        assert_eq!(v["corrupt_lines"].as_u64(), Some(0));
    }

    #[test]
    fn cache_usage_errors() {
        assert!(matches!(call("cache"), Err(CliError::Usage(_))));
        assert!(matches!(call("cache frob x"), Err(CliError::Usage(_))));
        assert!(matches!(call("cache stats"), Err(CliError::Usage(_))));
        assert!(matches!(call("cache compact"), Err(CliError::Usage(_))));
    }

    #[test]
    fn cache_compact_drops_superseded_lines() {
        let path = tmp_cache("compact");
        call(&format!(
            "compile gemm 512 256 512 --method roller --cache {path}"
        ))
        .unwrap();
        // Duplicate every line (as two racing processes would), then
        // compact back down to one record per key.
        let body = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, format!("{body}{body}")).unwrap();
        let out = call(&format!("cache compact {path}")).unwrap();
        assert!(out.contains("kept 1 records"), "{out}");
        assert!(out.contains("1 superseded"), "{out}");
        let again = call(&format!("cache compact {path}")).unwrap();
        assert!(again.contains("dropped 0"), "{again}");
        // The compacted file still hits.
        let hit = call(&format!(
            "compile gemm 512 256 512 --method roller --cache {path}"
        ))
        .unwrap();
        assert!(hit.contains("1 hits / 0 misses"), "{hit}");
    }

    #[test]
    fn serve_usage_errors() {
        assert!(matches!(call("serve"), Err(CliError::Usage(_))));
        assert!(matches!(call("serve-stats"), Err(CliError::Usage(_))));
        assert!(matches!(
            call("serve --socket /tmp/x.sock --cache-cap 0"),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            call("serve --socket /tmp/x.sock --max-inflight frob"),
            Err(CliError::Usage(_))
        ));
        // serve-stats against a dead socket reports unreachable, not a
        // hang.
        let err = call("serve-stats --socket /tmp/gensor-cli-test-dead.sock").unwrap_err();
        let CliError::Usage(msg) = err else {
            panic!("expected a usage error, got {err:?}");
        };
        assert!(msg.contains("cannot reach daemon"), "{msg}");
    }

    #[test]
    fn lint_single_op_is_clean() {
        let out = call("lint gemm 512 256 512 --budget 2").unwrap();
        assert!(out.contains("GEMM[512,256,512]"), "{out}");
        assert!(out.contains("0 error(s), 0 warning(s)"), "{out}");
    }

    #[test]
    fn lint_json_is_machine_readable() {
        let out = call("lint gemv 1024 512 --budget 2 --json").unwrap();
        let v: serde_json::Value = serde_json::from_str(&out).unwrap();
        assert_eq!(v["ok"].as_bool(), Some(true));
        assert_eq!(v["errors"].as_u64(), Some(0));
        assert_eq!(v["checked"].as_u64(), Some(1));
    }

    #[test]
    fn lint_model_sweeps_unique_ops() {
        let out = call("lint bert --budget 1 --deny-warnings").unwrap();
        assert!(out.contains("0 error(s)"), "{out}");
        assert!(out.contains("(deny-warnings)"), "{out}");
    }

    #[test]
    fn lint_usage_errors() {
        assert!(matches!(call("lint frobnicate"), Err(CliError::Usage(_))));
        assert!(matches!(call("lint gemm 1 2"), Err(CliError::Usage(_))));
    }

    #[test]
    fn lint_explain_describes_a_code_without_compiling() {
        let out = call("lint --explain GS011").unwrap();
        assert!(out.contains("GS011 (error)"), "{out}");
        assert!(out.contains("example:"), "{out}");
        // Lower-case and bare-number spellings resolve too.
        assert!(call("lint --explain gs020").unwrap().contains("GS020"));
        // Unknown codes list the registry instead of guessing.
        let err = call("lint --explain GS999").unwrap_err();
        let CliError::Usage(msg) = err else {
            panic!("expected usage error");
        };
        assert!(msg.contains("GS001"), "{msg}");
    }

    #[test]
    fn lint_json_output_is_byte_stable_across_runs() {
        let cmd = "lint gemm 512 256 512 --budget 2 --json";
        let first = call(cmd).unwrap();
        let second = call(cmd).unwrap();
        assert_eq!(first, second, "lint --json must render byte-identically");
    }

    #[test]
    fn metrics_json_snapshot_is_sorted_and_machine_readable() {
        let out = call("metrics gemm 128 64 128 --budget 1 --json").unwrap();
        let v: serde_json::Value = serde_json::from_str(&out).unwrap();
        let metrics = v["metrics"].as_array().unwrap();
        let names: Vec<&str> = metrics
            .iter()
            .map(|m| m["name"].as_str().unwrap())
            .collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        assert_eq!(names, sorted, "metric names must be sorted");
        assert!(names.iter().all(|n| n.starts_with("gensor_")), "{names:?}");
        // Histograms expose derived quantiles so consumers skip bucket math.
        assert!(
            metrics
                .iter()
                .any(|m| m["type"] == "histogram" && m["p99_us"].as_u64().is_some()),
            "{out}"
        );
        // The remote scrape path stays text-only; the fleet JSON view is
        // `cluster metrics --json`.
        assert!(matches!(
            call("metrics --socket /tmp/x.sock --json"),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn cluster_metrics_usage_and_dead_peers() {
        assert!(matches!(call("cluster metrics"), Err(CliError::Usage(_))));
        let out = call("cluster metrics --peers tcp://127.0.0.1:1").unwrap();
        assert!(out.contains("0/1 peers"), "{out}");
        let json = call("cluster metrics --peers tcp://127.0.0.1:1 --json").unwrap();
        let v: serde_json::Value = serde_json::from_str(&json).unwrap();
        assert_eq!(v["up"].as_u64(), Some(0), "{json}");
        assert_eq!(v["total"].as_u64(), Some(1), "{json}");
    }

    #[test]
    fn trace_with_dead_peers_still_writes_a_merged_document() {
        // `trace` installs the process-global obs collector; a sibling
        // trace test must not swap it out mid-run.
        let _g = faults::exclusive();
        let dir = std::env::temp_dir().join("gensor-cli-trace-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let out = dir.join(format!("fleet-{}.json", std::process::id()));
        let cmd = format!(
            "trace gemm 128 64 128 --budget 1 --out {} --peers tcp://127.0.0.1:1",
            out.display()
        );
        let msg = call(&cmd).unwrap();
        assert!(msg.contains("trace id"), "{msg}");
        assert!(msg.contains("trace pull failed"), "{msg}");
        let v: serde_json::Value =
            serde_json::from_str(&std::fs::read_to_string(&out).unwrap()).unwrap();
        let events = v["traceEvents"].as_array().unwrap();
        // The client's own process row is always present, even when no
        // peer buffer could be pulled.
        assert!(
            events
                .iter()
                .any(|e| e["ph"] == "M" && e["args"]["name"] == "client"),
            "no client process_name row"
        );
        // The compile fell back locally, so tune spans exist under pid 1.
        assert!(
            events
                .iter()
                .any(|e| e["name"] == "tune" && e["pid"].as_u64() == Some(1)),
            "no local tune span"
        );
        std::fs::remove_file(&out).ok();
    }

    #[test]
    fn lint_sarif_writes_a_valid_document() {
        let dir = std::env::temp_dir().join("gensor-cli-sarif-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("lint-{}.sarif", std::process::id()));
        let cmd = format!(
            "lint gemm 256 128 256 --budget 2 --sarif {}",
            path.display()
        );
        call(&cmd).unwrap();
        let doc: serde_json::Value =
            serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(doc["version"].as_str(), Some("2.1.0"));
        let rules = doc["runs"][0]["tool"]["driver"]["rules"]
            .as_array()
            .unwrap();
        assert_eq!(rules.len(), verify::Code::ALL.len());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn lint_verdicts_cache_answers_the_second_sweep_warm() {
        let dir = std::env::temp_dir().join("gensor-cli-verdicts-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("lint-{}.verdicts", std::process::id()));
        let cmd = format!(
            "lint gemm 384 128 384 --budget 2 --json --verdicts {}",
            path.display()
        );
        let cold: serde_json::Value = serde_json::from_str(&call(&cmd).unwrap()).unwrap();
        assert_eq!(cold["verdict_misses"].as_u64(), Some(1), "{cold:?}");
        let warm: serde_json::Value = serde_json::from_str(&call(&cmd).unwrap()).unwrap();
        assert_eq!(warm["verdict_hits"].as_u64(), Some(1), "{warm:?}");
        assert_eq!(warm["verdict_misses"].as_u64(), Some(0), "{warm:?}");
        assert_eq!(cold["reports"], warm["reports"], "identical verdicts");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn trace_writes_perfetto_trace_and_convergence_csv() {
        // `trace` installs the process-global obs collector; a sibling
        // trace test must not swap it out mid-run.
        let _g = faults::exclusive();
        let dir = std::env::temp_dir().join("gensor-cli-trace-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let out = dir.join(format!("trace-{}.json", std::process::id()));
        let csv = dir.join(format!("walks-{}.csv", std::process::id()));
        let cmd = format!(
            "trace gemm 256 128 256 --budget 2 --out {} --csv {}",
            out.display(),
            csv.display()
        );
        let msg = call(&cmd).unwrap();
        assert!(msg.contains("perfetto"), "{msg}");
        let trace = std::fs::read_to_string(&out).unwrap();
        let v: serde_json::Value = serde_json::from_str(&trace).unwrap();
        let events = v["traceEvents"].as_array().unwrap();
        let named = |n: &str| {
            events
                .iter()
                .any(|e| e["name"].as_str() == Some(n) && e["ph"].as_str() == Some("X"))
        };
        assert!(named("tune"), "no tune span in {trace}");
        assert!(named("walk"), "no walk span in {trace}");
        assert!(named("verify"), "no verify span in {trace}");
        assert!(named("codegen.emit"), "no codegen span in {trace}");
        let csv_body = std::fs::read_to_string(&csv).unwrap();
        assert!(
            csv_body.starts_with(obs::convergence::CSV_HEADER),
            "{csv_body}"
        );
        assert!(csv_body.lines().count() > 1, "no walk steps in {csv_body}");
    }

    #[test]
    fn trace_needs_an_output_path() {
        assert!(matches!(
            call("trace gemm 64 32 64"),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn metrics_emits_prometheus_text() {
        let out = call("metrics gemm 128 64 128 --budget 1").unwrap();
        for name in [
            "gensor_core_compiles_total",
            "gensor_core_walk_steps_total",
            "gensor_cache_hits_total",
            "gensor_cache_misses_total",
            "gensor_verify_runs_total",
        ] {
            assert!(out.contains(name), "missing {name} in:\n{out}");
        }
        assert!(
            out.contains("# TYPE gensor_core_compiles_total counter"),
            "{out}"
        );
        let samples = obs::prometheus::parse_samples(&out);
        assert!(!samples.is_empty());
    }

    #[test]
    fn serve_rejects_bad_compact_bytes() {
        assert!(matches!(
            call("serve --socket /tmp/x.sock --compact-bytes frob"),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn seeded_compiles_are_reproducible() {
        let a = call("compile gemm 512 256 512 --seed 42 --emit json").unwrap();
        let b = call("compile gemm 512 256 512 --seed 42 --emit json").unwrap();
        let va: serde_json::Value = serde_json::from_str(&a).unwrap();
        let vb: serde_json::Value = serde_json::from_str(&b).unwrap();
        assert_eq!(va["schedule"], vb["schedule"]);
        assert_eq!(va["report"], vb["report"]);
    }

    #[test]
    fn unknown_options_are_usage_errors() {
        // Each names the offending token instead of compiling with a
        // default in its place.
        for (line, token) in [
            ("compile gemm 64 32 64 --learned m.json", "--learned"),
            ("compile gemm 64 32 64 --topk 3", "--topk"),
            ("model bert --collect", "--collect"),
            ("compile gemm 64 32 64 --seeed 7", "--seeed"),
            ("compile gemm 64 32 64 --cahce f", "--cahce"),
            ("learn collect gemm 64 32 64", "learn"),
        ] {
            match call(line) {
                Err(CliError::Usage(msg)) => assert!(msg.contains(token), "{line}: {msg}"),
                other => panic!("{line}: {other:?}"),
            }
        }
    }

    #[test]
    fn cluster_status_usage_and_dead_peers() {
        assert!(matches!(call("cluster"), Err(CliError::Usage(_))));
        assert!(matches!(call("cluster frob"), Err(CliError::Usage(_))));
        assert!(matches!(call("cluster status"), Err(CliError::Usage(_))));
        let out = call("cluster status --peers tcp://127.0.0.1:1,tcp://127.0.0.1:2").unwrap();
        assert!(out.contains("0/2 peers up"), "{out}");
        assert!(out.contains("DOWN"), "{out}");
        let json = call("cluster status --peers tcp://127.0.0.1:1 --emit json").unwrap();
        let v: serde_json::Value = serde_json::from_str(&json).unwrap();
        assert_eq!(v["up"].as_u64(), Some(0));
        assert_eq!(v["total"].as_u64(), Some(1));
        assert_eq!(v["peers"][0]["up"].as_bool(), Some(false));
    }

    #[test]
    fn compile_with_peers_falls_back_without_daemons() {
        let out = call(
            "compile gemm 256 128 256 --method roller --peers tcp://127.0.0.1:1,tcp://127.0.0.1:2",
        )
        .unwrap();
        assert!(out.contains("fabric   :"), "{out}");
        assert!(out.contains("1 local fallback"), "{out}");
        assert!(out.contains("GFLOPS"), "{out}");
    }

    #[test]
    fn serve_accepts_listen_or_socket_spelling() {
        assert!(matches!(call("serve"), Err(CliError::Usage(_))));
        // A malformed numeric option still fails fast with --listen.
        assert!(matches!(
            call("serve --listen tcp://127.0.0.1:0 --max-inflight frob"),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn compile_remote_falls_back_without_a_daemon() {
        let out = call("compile gemm 256 128 256 --method roller --remote /no/such.sock").unwrap();
        assert!(out.contains("fabric   : 0 remote over 1 peer(s)"), "{out}");
        assert!(out.contains("1 local fallback"), "{out}");
        assert!(out.contains("GFLOPS"), "{out}");
    }
}
