//! Deterministic failpoint framework for chaos testing.
//!
//! Production code marks its trust boundaries with named *sites*:
//!
//! ```ignore
//! faults::failpoint!("store.append")?;   // I/O path: may return an injected error
//! ```
//!
//! and tests (or an operator, via `GENSOR_FAILPOINTS` /
//! `gensor serve --failpoints`) arm per-site *policies* that decide what
//! each call does: fail the nth call, fail with a seeded probability,
//! short-write, sleep, or panic. Nothing is armed by default, and the
//! disabled path is a single relaxed atomic load — the same discipline as
//! the obs collector, so leaving sites compiled into release binaries is
//! free.
//!
//! Design constraints, in order:
//!
//! 1. **Deterministic.** `err(n)` fires on exactly the nth call of the
//!    site; `prob(p,seed)` hashes (seed, call index) so a failing run
//!    replays identically. No global RNG, no wall clock.
//! 2. **Free when disabled.** `failpoint!` is one `Relaxed` load when no
//!    site is armed; registry lookups happen only after that gate.
//! 3. **Observable.** Every injection counts into the site's hit counter
//!    and the obs metric registry (`gensor_faults_injected_total` plus a
//!    per-site counter), so a chaos run's report shows what actually
//!    fired.
//!
//! State is process-global (that is the point: the site is inside library
//! code, the policy comes from the outside), so every test that arms a
//! policy — or runs code whose outcome an armed site would change —
//! holds [`exclusive`] for its whole body.
//!
//! The crate also owns [`replace_file`], the tree's one atomic file
//! rewrite, because the `store.rename` site sits inside it.

use std::collections::HashMap;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, RwLock};
use std::time::Duration;

/// Environment variable read by [`init_from_env`]; same `site=policy;…`
/// grammar as [`configure`].
pub const ENV_VAR: &str = "GENSOR_FAILPOINTS";

/// What an armed site does when its trigger condition holds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Policy {
    /// `err(n)`: fail exactly the nth call of this site (1-based), once.
    ErrNth(u64),
    /// `errfrom(n)`: fail the nth call (1-based) and every call after it.
    /// The persistent flavour of `err(n)` — a process that "died" stays
    /// dead, which is what the fabric's crash drills need from a site
    /// polled in a loop.
    ErrFrom(u64),
    /// `prob(p)` / `prob(p,seed)`: each call fails with probability `p`,
    /// decided by a deterministic hash of `(seed, call index)`.
    Prob(f64, u64),
    /// `partial`: every call is a short write — sites that support it
    /// write a prefix of their payload before erroring, simulating a
    /// crash mid-write; sites that don't treat it as a plain error.
    Partial,
    /// `delay(ms)`: every call sleeps, then proceeds normally.
    Delay(u64),
    /// `panic`: every call panics (exercises `catch_unwind` isolation).
    Panic,
}

/// What a fired failpoint asks the call site to do. `Panic` and `Delay`
/// never reach the caller: the panic unwinds from inside [`check`] and a
/// delay returns `None` after sleeping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Return an injected error.
    Err,
    /// Write a prefix of the payload, then return an injected error.
    Partial,
}

struct Site {
    policy: Policy,
    calls: AtomicU64,
    hits: AtomicU64,
}

/// One relaxed load gates every `failpoint!`; flipped only by
/// [`arm`] / [`disarm`] / [`disarm_all`].
static ARMED: AtomicBool = AtomicBool::new(false);

fn registry() -> &'static RwLock<HashMap<String, Arc<Site>>> {
    static REGISTRY: OnceLock<RwLock<HashMap<String, Arc<Site>>>> = OnceLock::new();
    REGISTRY.get_or_init(|| RwLock::new(HashMap::new()))
}

/// Whether any site is armed. Inlined into the disabled fast path.
#[inline]
pub fn armed() -> bool {
    ARMED.load(Ordering::Relaxed)
}

/// Arm `site` with `policy` (replacing any previous policy and resetting
/// its call/hit counters).
pub fn arm(site: &str, policy: Policy) {
    let mut reg = registry().write().unwrap_or_else(|p| p.into_inner());
    reg.insert(
        site.to_string(),
        Arc::new(Site {
            policy,
            calls: AtomicU64::new(0),
            hits: AtomicU64::new(0),
        }),
    );
    drop(reg);
    ARMED.store(true, Ordering::SeqCst);
}

/// Disarm one site; the fast-path gate closes when the last site goes.
pub fn disarm(site: &str) {
    let mut reg = registry().write().unwrap_or_else(|p| p.into_inner());
    reg.remove(site);
    let empty = reg.is_empty();
    drop(reg);
    if empty {
        ARMED.store(false, Ordering::SeqCst);
    }
}

/// Disarm every site.
pub fn disarm_all() {
    registry()
        .write()
        .unwrap_or_else(|p| p.into_inner())
        .clear();
    ARMED.store(false, Ordering::SeqCst);
}

/// Sole ownership of this process's failpoint registry, held by a test
/// for as long as it arms sites or depends on none being armed.
pub struct Exclusive {
    _guard: MutexGuard<'static, ()>,
}

impl Drop for Exclusive {
    fn drop(&mut self) {
        disarm_all();
    }
}

/// Wait until no other test holds the registry, then take it. Every
/// site is disarmed on acquire *and* when the guard drops, so a test
/// that panics mid-way cannot leak an armed fault into its neighbours.
/// The lock is per process: each test binary serializes its own armers
/// and is unaffected by the others.
pub fn exclusive() -> Exclusive {
    static LOCK: Mutex<()> = Mutex::new(());
    let _guard = LOCK.lock().unwrap_or_else(|p| p.into_inner());
    disarm_all();
    Exclusive { _guard }
}

/// Times `site` actually injected a fault so far (0 for unknown sites).
pub fn hits(site: &str) -> u64 {
    registry()
        .read()
        .unwrap_or_else(|p| p.into_inner())
        .get(site)
        .map(|s| s.hits.load(Ordering::SeqCst))
        .unwrap_or(0)
}

/// Every armed site with its hit count, sorted by name.
pub fn snapshot() -> Vec<(String, u64)> {
    let reg = registry().read().unwrap_or_else(|p| p.into_inner());
    let mut v: Vec<(String, u64)> = reg
        .iter()
        .map(|(name, s)| (name.clone(), s.hits.load(Ordering::SeqCst)))
        .collect();
    drop(reg);
    v.sort();
    v
}

/// Deterministic uniform sample in [0, 1): FNV-1a over (seed, call index).
fn det_unit(seed: u64, call: u64) -> f64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in seed.to_le_bytes().into_iter().chain(call.to_le_bytes()) {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    // Top 53 bits → an exactly representable f64 in [0, 1).
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// Evaluate `site` against its armed policy. `None` means proceed
/// normally (also the answer for every unarmed site). A `panic` policy
/// unwinds from here; a `delay` sleeps here and then proceeds.
pub fn check(site: &str) -> Option<Action> {
    if !armed() {
        return None;
    }
    fire(site)
}

#[cold]
fn fire(site: &str) -> Option<Action> {
    let s = registry()
        .read()
        .unwrap_or_else(|p| p.into_inner())
        .get(site)?
        .clone();
    let call = s.calls.fetch_add(1, Ordering::SeqCst) + 1;
    let action = match s.policy {
        Policy::ErrNth(n) if call == n => Some(Action::Err),
        Policy::ErrNth(_) => None,
        Policy::ErrFrom(n) if call >= n => Some(Action::Err),
        Policy::ErrFrom(_) => None,
        Policy::Prob(p, seed) if det_unit(seed, call) < p => Some(Action::Err),
        Policy::Prob(..) => None,
        Policy::Partial => Some(Action::Partial),
        Policy::Delay(ms) => {
            std::thread::sleep(Duration::from_millis(ms));
            s.hits.fetch_add(1, Ordering::SeqCst);
            count_injection(site);
            return None;
        }
        Policy::Panic => {
            s.hits.fetch_add(1, Ordering::SeqCst);
            count_injection(site);
            panic!("failpoint '{site}': injected panic");
        }
    };
    if action.is_some() {
        s.hits.fetch_add(1, Ordering::SeqCst);
        count_injection(site);
    }
    action
}

fn count_injection(site: &str) {
    obs::counter(
        "gensor_faults_injected_total",
        "Failpoint injections fired (all sites)",
    )
    .inc();
    let metric = format!("gensor_faults_{}_total", site.replace(['.', '-'], "_"));
    obs::counter(&metric, "Failpoint injections fired at one site").inc();
    // A fired failpoint is exactly the moment a post-mortem wants the
    // recent past. Record the trip in the span stream first (so the
    // dump contains it), then snapshot the flight recorder — throttled,
    // so a prob() site in a hot loop cannot flood the disk.
    if obs::flight::installed().is_some() {
        obs::event!("faults.injected", site = site);
        obs::flight::dump(&format!("failpoint:{site}"));
    }
}

/// The error every fired I/O site returns.
pub fn injected_err(site: &str) -> std::io::Error {
    std::io::Error::other(format!("failpoint '{site}': injected fault"))
}

/// [`check`] flattened for `?` in I/O functions: any fired action (short
/// writes included — plain I/O sites have no payload to cut) becomes an
/// injected [`std::io::Error`].
pub fn fail_io(site: &str) -> std::io::Result<()> {
    match check(site) {
        None => Ok(()),
        Some(_) => Err(injected_err(site)),
    }
}

/// Mark an I/O trust boundary: `faults::failpoint!("store.append")?;`.
/// One relaxed atomic load when nothing is armed.
#[macro_export]
macro_rules! failpoint {
    ($site:expr) => {
        if $crate::armed() {
            $crate::fail_io($site)
        } else {
            ::std::io::Result::Ok(())
        }
    };
}

/// Replace `path` with `body`, atomically and durably: `body` goes to a
/// tmp file beside `path` (`<path>.tmp.<pid>.<seq>`) and is fsynced, the
/// tmp file is renamed over `path`, and the parent directory is fsynced
/// so the rename itself survives a crash. On any failure `path` is
/// untouched and the tmp file is removed. The tmp name is unique per call
/// (pid + a process-wide counter), so concurrent rewrites of one path —
/// two threads, two processes — each rename a file only they wrote. The
/// one rewrite in the tree (schedule-store compaction, the verdict
/// sidecar); the `store.rename` failpoint sits between the fsync and the
/// rename.
pub fn replace_file(path: &Path, body: &[u8]) -> std::io::Result<()> {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let mut tmp = path.as_os_str().to_os_string();
    tmp.push(format!(
        ".tmp.{}.{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let tmp = PathBuf::from(tmp);
    let renamed = std::fs::File::create(&tmp)
        .and_then(|mut f| {
            f.write_all(body)?;
            f.sync_all()
        })
        .and_then(|()| failpoint!("store.rename"))
        .and_then(|()| std::fs::rename(&tmp, path));
    if let Err(e) = renamed {
        let _ = std::fs::remove_file(&tmp);
        return Err(e);
    }
    let dir = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => Path::new("."),
    };
    if let Ok(d) = std::fs::File::open(dir) {
        let _ = d.sync_all();
    }
    Ok(())
}

/// Human-readable text of a `catch_unwind` payload (panics carry `&str`
/// or `String` in practice). Shared by every panic-isolation layer so
/// typed `Internal` errors quote the original panic.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with a non-string payload".to_string()
    }
}

/// Parse a `site=policy;site=policy` spec without arming anything.
/// Policies: `err(n)`, `prob(p)`, `prob(p,seed)`, `partial`,
/// `delay(ms)`, `panic`. Whitespace around tokens is ignored; empty
/// clauses (trailing `;`) are allowed.
pub fn parse_spec(spec: &str) -> Result<Vec<(String, Policy)>, String> {
    let mut out = Vec::new();
    for clause in spec.split(';') {
        let clause = clause.trim();
        if clause.is_empty() {
            continue;
        }
        let (site, policy) = clause
            .split_once('=')
            .ok_or_else(|| format!("failpoint clause '{clause}' is missing '='"))?;
        let site = site.trim();
        if site.is_empty() {
            return Err(format!("failpoint clause '{clause}' has an empty site"));
        }
        out.push((site.to_string(), parse_policy(policy.trim())?));
    }
    Ok(out)
}

fn parse_policy(text: &str) -> Result<Policy, String> {
    let (name, args) = match text.split_once('(') {
        None => (text, Vec::new()),
        Some((name, rest)) => {
            let inner = rest
                .strip_suffix(')')
                .ok_or_else(|| format!("policy '{text}' is missing ')'"))?;
            (
                name.trim(),
                inner.split(',').map(|a| a.trim().to_string()).collect(),
            )
        }
    };
    let uint = |s: &str| -> Result<u64, String> {
        s.parse::<u64>()
            .map_err(|_| format!("'{s}' is not a non-negative integer"))
    };
    match (name, args.len()) {
        ("err", 1) => {
            let n = uint(&args[0])?;
            if n == 0 {
                return Err("err(n): calls are 1-based, n must be ≥ 1".into());
            }
            Ok(Policy::ErrNth(n))
        }
        ("errfrom", 1) => {
            let n = uint(&args[0])?;
            if n == 0 {
                return Err("errfrom(n): calls are 1-based, n must be ≥ 1".into());
            }
            Ok(Policy::ErrFrom(n))
        }
        ("prob", 1 | 2) => {
            let p: f64 = args[0]
                .parse()
                .map_err(|_| format!("'{}' is not a probability", args[0]))?;
            if !(0.0..=1.0).contains(&p) {
                return Err(format!("prob({p}): probability must be in [0, 1]"));
            }
            let seed = if args.len() == 2 { uint(&args[1])? } else { 0 };
            Ok(Policy::Prob(p, seed))
        }
        ("delay", 1) => Ok(Policy::Delay(uint(&args[0])?)),
        ("partial", 0) => Ok(Policy::Partial),
        ("panic", 0) => Ok(Policy::Panic),
        _ => Err(format!(
            "unknown policy '{text}' (want err(n), errfrom(n), prob(p[,seed]), partial, delay(ms), panic)"
        )),
    }
}

/// Parse `spec` and arm every site in it; returns how many were armed.
pub fn configure(spec: &str) -> Result<usize, String> {
    let sites = parse_spec(spec)?;
    let n = sites.len();
    for (site, policy) in sites {
        arm(&site, policy);
    }
    Ok(n)
}

/// Arm sites from [`ENV_VAR`] if it is set; `Ok(0)` when unset. Binaries
/// call this once at startup so chaos runs work on any entry point.
pub fn init_from_env() -> Result<usize, String> {
    match std::env::var(ENV_VAR) {
        Ok(spec) => configure(&spec).map_err(|e| format!("{ENV_VAR}: {e}")),
        Err(_) => Ok(0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_sites_are_free_and_fire_nothing() {
        let _g = exclusive();
        assert!(!armed());
        assert!(check("store.append").is_none());
        assert!(failpoint!("store.append").is_ok());
        assert_eq!(hits("store.append"), 0);
    }

    #[test]
    fn err_nth_fires_exactly_the_nth_call() {
        let _g = exclusive();
        arm("t.err", Policy::ErrNth(3));
        assert!(failpoint!("t.err").is_ok());
        assert!(failpoint!("t.err").is_ok());
        let err = failpoint!("t.err").unwrap_err();
        assert!(err.to_string().contains("t.err"), "{err}");
        assert!(failpoint!("t.err").is_ok(), "fires once, not from n on");
        assert_eq!(hits("t.err"), 1);
    }

    #[test]
    fn errfrom_fails_persistently_from_the_nth_call() {
        let _g = exclusive();
        arm("t.errfrom", Policy::ErrFrom(3));
        assert!(failpoint!("t.errfrom").is_ok());
        assert!(failpoint!("t.errfrom").is_ok());
        for _ in 0..5 {
            assert!(failpoint!("t.errfrom").is_err(), "stays dead from n on");
        }
        assert_eq!(hits("t.errfrom"), 5);
    }

    #[test]
    fn errfrom_parses_and_rejects_zero() {
        assert_eq!(
            parse_spec("s=errfrom(2)").unwrap(),
            vec![("s".into(), Policy::ErrFrom(2))]
        );
        assert!(parse_spec("s=errfrom(0)").is_err());
        assert!(parse_spec("s=errfrom").is_err());
    }

    #[test]
    fn prob_is_deterministic_for_a_seed_and_respects_the_rate() {
        let _g = exclusive();
        let run = |seed: u64| -> Vec<bool> {
            arm("t.prob", Policy::Prob(0.3, seed));
            let fired: Vec<bool> = (0..200).map(|_| check("t.prob").is_some()).collect();
            disarm_all();
            fired
        };
        let a = run(42);
        let b = run(42);
        assert_eq!(a, b, "same seed must replay identically");
        let rate = a.iter().filter(|f| **f).count() as f64 / a.len() as f64;
        assert!((0.15..=0.45).contains(&rate), "rate {rate} far from 0.3");
        assert_ne!(a, run(7), "different seeds give different schedules");
    }

    #[test]
    fn partial_returns_the_partial_action_and_io_sites_map_it_to_err() {
        let _g = exclusive();
        arm("t.partial", Policy::Partial);
        assert_eq!(check("t.partial"), Some(Action::Partial));
        assert!(failpoint!("t.partial").is_err());
    }

    #[test]
    fn panic_policy_unwinds_from_check() {
        let _g = exclusive();
        arm("t.panic", Policy::Panic);
        let r = std::panic::catch_unwind(|| check("t.panic"));
        assert!(r.is_err());
        assert_eq!(hits("t.panic"), 1);
    }

    #[test]
    fn delay_counts_a_hit_but_proceeds() {
        let _g = exclusive();
        arm("t.delay", Policy::Delay(1));
        let t0 = std::time::Instant::now();
        assert!(check("t.delay").is_none());
        assert!(t0.elapsed() >= Duration::from_millis(1));
        assert_eq!(hits("t.delay"), 1);
    }

    #[test]
    fn disarm_reopens_the_fast_path_only_when_the_registry_empties() {
        let _g = exclusive();
        arm("t.a", Policy::Panic);
        arm("t.b", Policy::Panic);
        disarm("t.a");
        assert!(armed(), "one site still armed");
        disarm("t.b");
        assert!(!armed());
    }

    #[test]
    fn spec_round_trips_every_policy_form() {
        let parsed = parse_spec(
            "store.append = err(2); sock.read=prob(0.5, 9); a=partial; b=delay(15); c=panic;",
        )
        .unwrap();
        assert_eq!(
            parsed,
            vec![
                ("store.append".into(), Policy::ErrNth(2)),
                ("sock.read".into(), Policy::Prob(0.5, 9)),
                ("a".into(), Policy::Partial),
                ("b".into(), Policy::Delay(15)),
                ("c".into(), Policy::Panic),
            ]
        );
        assert_eq!(parse_spec("").unwrap(), vec![]);
    }

    #[test]
    fn malformed_specs_are_rejected_with_reasons() {
        for bad in [
            "noequals",
            "=err(1)",
            "s=err(0)",
            "s=err(x)",
            "s=prob(1.5)",
            "s=prob(0.1,0.2)",
            "s=delay",
            "s=frobnicate",
            "s=err(1",
        ] {
            assert!(parse_spec(bad).is_err(), "'{bad}' must not parse");
        }
    }

    #[test]
    fn fired_failpoints_dump_the_flight_recorder() {
        let _g = exclusive();
        let dir = std::env::temp_dir().join(format!("gensor-faults-flight-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        obs::FlightRecorder::install(&dir, 64, "faults-test");
        arm("t.flight", Policy::ErrNth(1));
        assert!(failpoint!("t.flight").is_err());
        let dumps: Vec<_> = std::fs::read_dir(&dir)
            .expect("flight dir exists after a trip")
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .collect();
        assert!(!dumps.is_empty(), "no flight dump written");
        let body = std::fs::read_to_string(&dumps[0]).unwrap();
        let header = body.lines().next().unwrap();
        assert!(header.contains("\"failpoint:t.flight\""), "{header}");
        assert!(
            body.contains("faults.injected"),
            "trip event missing from dump:\n{body}"
        );
        obs::flight::uninstall();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn configure_arms_and_snapshot_reports() {
        let _g = exclusive();
        assert_eq!(configure("t.x=err(1); t.y=partial").unwrap(), 2);
        assert!(failpoint!("t.x").is_err());
        let snap = snapshot();
        assert_eq!(
            snap,
            vec![("t.x".to_string(), 1), ("t.y".to_string(), 0)],
            "sorted by site, hit counts live"
        );
    }
}
