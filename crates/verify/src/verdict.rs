//! The incremental verification cache: verdicts keyed by the schedule,
//! operator and target fingerprints of [`etir::identity`] (target 0 for a
//! spec-less check) and [`VERIFIER_EPOCH`], persisted beside the schedule
//! store in its CRC-framed lines ([`faults::framed`]): a flipped bit is a
//! miss.
//!
//! A verdict is a *local proof about content*: it transfers to any copy of
//! the same bytes, including one that just arrived from an untrusted peer.
//! A tampered schedule has another [`Etir::fingerprint`]; the same tiles
//! on another operator have another operator fingerprint (the schedule's
//! own holds only the operator's label). Both miss into a fresh
//! verification; there is no way to inherit another schedule's verdict.
//! That is why verdict hits satisfy the
//! [`crate::provenance::Requirement::FullVerify`] policy.
//!
//! Invalidation is by epoch: any change to verifier semantics (new
//! check, fixed check, changed severity) must bump [`VERIFIER_EPOCH`],
//! which orphans every persisted verdict at load time. Stale lines are
//! skipped, not deleted — the next [`VerdictCache::persist`] rewrites
//! the sidecar with current-epoch verdicts only, through the same framed
//! rewrite as store compaction ([`faults::framed::rewrite`]).
//!
//! The cached value is the *entire* [`Report`] (diagnostics included),
//! so a warm sweep renders byte-identically to a cold one — the golden
//! tests and CI's "Verdict cache warm sweep" step rely on this.

use crate::diag::{Code, Diagnostic, Report};
use crate::invariants::PASSES;
use crate::provenance::Provenance;
use crate::verifier::verify_schedule;
use etir::identity::{gpu_fingerprint, op_fingerprint};
use etir::Etir;
use faults::framed::{self, Class};
use hardware::GpuSpec;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Version of the verifier's semantics. Bump on ANY change to checks,
/// severities, message wording, or pass structure, or the sidecar's line
/// format: persisted verdicts from other epochs are never trusted.
pub const VERIFIER_EPOCH: u32 = 4;

/// Hit/miss counters of one cache instance (process-lifetime metrics
/// live in `obs`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct VerdictStats {
    /// Verifications answered from the cache.
    pub hits: u64,
    /// Verifications that ran the full pipeline.
    pub misses: u64,
}

impl VerdictStats {
    /// Fraction of lookups answered from cache (0 when none).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A verdict's key: schedule, operator and target fingerprints.
type Key = (u64, u64, u64);

/// One persisted verdict.
#[derive(Serialize, Deserialize)]
struct Line {
    key: Key,
    epoch: u32,
    op: String,
    schedule: String,
    gpu_name: Option<String>,
    diags: Vec<DiagLine>,
}

#[derive(Serialize, Deserialize)]
struct DiagLine {
    code: String,
    pass: String,
    message: String,
}

/// Re-intern a persisted pass name onto the crate's static names, so a
/// rehydrated diagnostic is indistinguishable from a fresh one.
fn intern_pass(name: &str) -> &'static str {
    PASSES.into_iter().find(|p| *p == name).unwrap_or("cached")
}

/// One sidecar payload as a banked verdict. A verdict of another epoch
/// is foreign, whatever its line's shape, and so is a line whose codes no
/// longer parse: it is from a future epoch lying about its number.
fn parse_line(payload: &str) -> Class<(Key, Report)> {
    let Ok(l) = serde_json::from_str::<Line>(payload) else {
        let epoch = serde_json::from_str::<serde_json::Value>(payload).map(|v| v["epoch"].as_u64());
        return match epoch {
            Ok(Some(e)) if e != u64::from(VERIFIER_EPOCH) => Class::Foreign,
            _ => Class::Corrupt,
        };
    };
    let diagnostics: Option<Vec<Diagnostic>> = l
        .diags
        .into_iter()
        .map(|d| {
            Some(Diagnostic::new(
                Code::parse(&d.code)?,
                intern_pass(&d.pass),
                d.message,
            ))
        })
        .collect();
    match diagnostics {
        Some(diagnostics) if l.epoch == VERIFIER_EPOCH => Class::Keep((
            l.key,
            Report {
                op_label: l.op,
                schedule: l.schedule,
                gpu: l.gpu_name,
                diagnostics,
            },
        )),
        _ => Class::Foreign,
    }
}

/// One banked verdict as a sidecar payload ([`parse_line`]'s inverse).
fn render_line((key, report): (&Key, &Report)) -> String {
    let line = Line {
        key: *key,
        epoch: VERIFIER_EPOCH,
        op: report.op_label.clone(),
        schedule: report.schedule.clone(),
        gpu_name: report.gpu.clone(),
        diags: report
            .diagnostics
            .iter()
            .map(|d| DiagLine {
                code: d.code.as_str().to_string(),
                pass: d.pass.to_string(),
                message: d.message.clone(),
            })
            .collect(),
    };
    serde_json::to_string(&line).expect("verdict line serializes")
}

/// The verdict cache. Thread-safe; cheap to share behind an `Arc`.
pub struct VerdictCache {
    path: Option<PathBuf>,
    map: Mutex<HashMap<Key, Report>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl VerdictCache {
    /// A cache with no persistence (serve-path hot cache, tests).
    pub fn in_memory() -> VerdictCache {
        VerdictCache {
            path: None,
            map: Mutex::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Conventional sidecar path beside a schedule store:
    /// `<store>.verdicts`.
    pub fn sidecar(store: &Path) -> PathBuf {
        let mut s = store.as_os_str().to_os_string();
        s.push(".verdicts");
        PathBuf::from(s)
    }

    /// Open (or create) a persistent cache at `path`. Damaged lines and
    /// verdicts from other epochs are skipped — never trusted, never
    /// fatal — and an unreadable sidecar is an empty cache.
    pub fn open(path: impl Into<PathBuf>) -> VerdictCache {
        let path = path.into();
        let (entries, _) = framed::read(&path, parse_line).unwrap_or_default();
        VerdictCache {
            path: Some(path),
            map: Mutex::new(entries.into_iter().collect()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Verify through the cache: a hit returns the stored report
    /// verbatim; a miss runs the standard pipeline and banks the
    /// verdict.
    pub fn verify(&self, e: &Etir, spec: Option<&GpuSpec>) -> Report {
        self.verify_on(e, spec.map(|s| (s, gpu_fingerprint(s))))
    }

    /// [`VerdictCache::verify`] against a device whose
    /// [`gpu_fingerprint`] the caller derived already (a `CacheKey` holds
    /// it), so a hit costs no device hash.
    pub fn verify_on(&self, e: &Etir, target: Option<(&GpuSpec, u64)>) -> Report {
        let key = (
            e.fingerprint(),
            op_fingerprint(&e.op),
            target.map_or(0, |(_, fp)| fp),
        );
        if let Some(report) = self.map.lock().unwrap().get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            obs::counter_inc!(
                "gensor_verify_verdict_hits_total",
                "Verifications answered from the verdict cache"
            );
            return report.clone();
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        obs::counter_inc!(
            "gensor_verify_verdict_misses_total",
            "Verifications that ran the full pipeline"
        );
        let report = verify_schedule(e, target.map(|(spec, _)| spec));
        self.map.lock().unwrap().insert(key, report.clone());
        report
    }

    /// [`VerdictCache::verify_on`] at a named trust boundary: a rejection
    /// additionally bumps the per-provenance audit counter.
    pub fn verify_as(&self, e: &Etir, target: Option<(&GpuSpec, u64)>, prov: Provenance) -> Report {
        let report = self.verify_on(e, target);
        if !report.is_legal() {
            prov.count_rejected();
            obs::log!(
                Warn,
                "verifier rejected {} schedule at trust boundary: {}",
                prov.label(),
                report.summary()
            );
        }
        report
    }

    /// Write every current-epoch verdict to the sidecar, one framed line
    /// each, through the store's one atomic, durable rewrite
    /// ([`framed::rewrite`]), so a daemon and a `gensor lint --verdicts`
    /// may persist to one store at once. No-op for in-memory caches.
    pub fn persist(&self) -> std::io::Result<()> {
        let Some(path) = &self.path else {
            return Ok(());
        };
        let lines: Vec<String> = {
            let map = self.map.lock().unwrap();
            let sorted: std::collections::BTreeMap<_, _> = map.iter().collect();
            sorted.into_iter().map(render_line).collect()
        };
        framed::rewrite(path, lines)
    }

    /// Hit/miss counters since this instance was created.
    pub fn stats(&self) -> VerdictStats {
        VerdictStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }

    /// Drop the verdicts banked on `e`, for the device `gpu_fp` and for
    /// no device, once its owner no longer holds the schedule, so the
    /// verdicts in memory follow what is resident. The next
    /// [`VerdictCache::persist`] leaves them out of the sidecar too.
    pub fn forget(&self, e: &Etir, gpu_fp: u64) {
        let (schedule, op) = (e.fingerprint(), op_fingerprint(&e.op));
        let mut map = self.map.lock().unwrap();
        map.remove(&(schedule, op, gpu_fp));
        map.remove(&(schedule, op, 0));
    }

    /// Number of banked verdicts.
    pub fn len(&self) -> usize {
        self.map.lock().unwrap().len()
    }

    /// Whether no verdict is banked.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tensor_expr::OpSpec;

    fn dirty_state() -> Etir {
        let spec = GpuSpec::rtx4090();
        let mut e = Etir::initial(OpSpec::gemm(8, 64, 8), &spec);
        e.smem_tile[0] = 32;
        e.reg_tile[0] = 2;
        e.vthreads[0] = 2;
        e
    }

    #[test]
    fn hits_return_the_stored_report_verbatim() {
        let cache = VerdictCache::in_memory();
        let spec = GpuSpec::rtx4090();
        let e = Etir::initial(OpSpec::gemm(256, 256, 256), &spec);
        let cold = cache.verify(&e, Some(&spec));
        let warm = cache.verify(&e, Some(&spec));
        assert_eq!(cold, warm);
        assert_eq!(
            serde_json::to_string(&cold.to_json()).unwrap(),
            serde_json::to_string(&warm.to_json()).unwrap(),
            "byte-identical rendering"
        );
        assert_eq!(cache.stats(), VerdictStats { hits: 1, misses: 1 });
    }

    #[test]
    fn tampering_changes_the_key_and_misses() {
        let cache = VerdictCache::in_memory();
        let spec = GpuSpec::rtx4090();
        let e = Etir::initial(OpSpec::gemm(256, 256, 256), &spec);
        let _ = cache.verify(&e, Some(&spec));
        let mut tampered = e.clone();
        tampered.vthreads[0] = 0;
        let report = cache.verify(&tampered, Some(&spec));
        assert!(!report.is_legal(), "tampered schedule must fail fresh");
        assert_eq!(cache.stats(), VerdictStats { hits: 0, misses: 2 });
    }

    #[test]
    fn a_verdict_never_crosses_to_an_operator_its_label_hides() {
        // Elementwise labels leave out the arity: one input fits an
        // 8192-wide tile in shared memory, four do not.
        let cache = VerdictCache::in_memory();
        let spec = GpuSpec::rtx4090();
        let tiled = |op: OpSpec| {
            let mut e = Etir::initial(op, &spec);
            e.smem_tile = [8192].into();
            e
        };
        let (one, four) = (
            tiled(OpSpec::elementwise(1 << 20, 1, 1)),
            tiled(OpSpec::elementwise(1 << 20, 4, 1)),
        );
        assert_eq!(
            one.fingerprint(),
            four.fingerprint(),
            "same label, same tiles"
        );
        assert!(cache.verify(&one, Some(&spec)).is_legal());
        let fresh = verify_schedule(&four, Some(&spec));
        assert!(!fresh.is_legal());
        assert_eq!(cache.verify(&four, Some(&spec)), fresh);
        // Conv labels leave out the padding, which moves the extents.
        let conv = |pad| Etir::initial(OpSpec::conv2d(1, 8, 33, 33, 8, 3, 3, 1, pad), &spec);
        let (unpadded, padded) = (conv(0), conv(1));
        assert_eq!(*unpadded.op.spatial_extents(), [1, 8, 31, 31]);
        assert_eq!(*padded.op.spatial_extents(), [1, 8, 33, 33]);
        assert_eq!(unpadded.fingerprint(), padded.fingerprint());
        cache.verify(&unpadded, Some(&spec));
        cache.verify(&padded, Some(&spec));
        assert_eq!(cache.stats(), VerdictStats { hits: 0, misses: 4 });
        assert_eq!(cache.len(), 4, "four keys");
    }

    #[test]
    fn spec_and_specless_verdicts_are_distinct_targets() {
        let cache = VerdictCache::in_memory();
        let spec = GpuSpec::orin_nano();
        let mut e = Etir::initial(OpSpec::gemm(4096, 4096, 4096), &spec);
        e.smem_tile = [512, 512].into();
        e.reduce_tile = [64].into();
        assert!(!cache.verify(&e, Some(&spec)).is_legal());
        assert!(cache.verify(&e, None).is_legal(), "different target key");
        assert_eq!(cache.stats().misses, 2);
    }

    #[test]
    fn persists_and_reloads_byte_identically() {
        let dir = std::env::temp_dir().join(format!("verdicts-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = VerdictCache::sidecar(&dir.join("store.jsonl"));
        let spec = GpuSpec::rtx4090();
        let good = Etir::initial(OpSpec::gemm(256, 256, 256), &spec);
        let bad = dirty_state();

        let cache = VerdictCache::open(&path);
        let cold_good = cache.verify(&good, Some(&spec));
        let cold_bad = cache.verify(&bad, None);
        cache.persist().unwrap();

        let reopened = VerdictCache::open(&path);
        assert_eq!(reopened.len(), 2);
        let warm_good = reopened.verify(&good, Some(&spec));
        let warm_bad = reopened.verify(&bad, None);
        assert_eq!(
            reopened.stats(),
            VerdictStats { hits: 2, misses: 0 },
            "everything answered warm"
        );
        assert_eq!(
            serde_json::to_string(&cold_good.to_json()).unwrap(),
            serde_json::to_string(&warm_good.to_json()).unwrap()
        );
        assert_eq!(
            serde_json::to_string(&cold_bad.to_json()).unwrap(),
            serde_json::to_string(&warm_bad.to_json()).unwrap()
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn every_pass_name_survives_a_reload() {
        let dir = std::env::temp_dir().join(format!("verdicts-pass-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cache.verdicts");
        let spec = GpuSpec::orin_nano();
        // Gate failure: the only way to see the structural pass.
        let mut gated = dirty_state();
        gated.unroll = 3;
        // Past the gate: tiles beyond Orin's shared memory (capacity), a raw
        // tile over the extent clamp (cover), never finished (lints).
        let mut rest = Etir::initial(OpSpec::gemm(8, 4096, 4096), &spec);
        rest.smem_tile = [32, 512].into();
        rest.reduce_tile = [64].into();

        let cache = VerdictCache::open(&path);
        let cold = [&gated, &rest].map(|e| cache.verify(e, Some(&spec)));
        let mut seen: Vec<&str> = cold
            .iter()
            .flat_map(|r| r.diagnostics.iter().map(|d| d.pass))
            .collect();
        seen.sort_unstable();
        seen.dedup();
        let mut all = PASSES.to_vec();
        all.sort_unstable();
        assert_eq!(seen, all, "the two states exercise every pass");
        cache.persist().unwrap();

        let reopened = VerdictCache::open(&path);
        let warm = [&gated, &rest].map(|e| reopened.verify(e, Some(&spec)));
        assert_eq!(reopened.stats(), VerdictStats { hits: 2, misses: 0 });
        for (cold, warm) in cold.iter().zip(&warm) {
            assert!(warm.diagnostics.iter().all(|d| d.pass != "cached"));
            assert_eq!(cold.render(), warm.render());
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn concurrent_persists_to_one_sidecar_never_interleave() {
        let dir = std::env::temp_dir().join(format!("verdicts-race-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cache.verdicts");
        let spec = GpuSpec::rtx4090();
        // Two writers with differently sized contents, as a daemon and a
        // `gensor lint --verdicts` on one store would be.
        let writers = [24u64, 40].map(|n| {
            let cache = VerdictCache::open(&path);
            for m in 1..=n {
                cache.verify(&Etir::initial(OpSpec::gemm(8 * m, 64, 8 * n), &spec), None);
            }
            cache
        });
        let start = std::sync::Barrier::new(writers.len());
        std::thread::scope(|s| {
            for cache in &writers {
                s.spawn(|| {
                    start.wait();
                    for _ in 0..50 {
                        cache.persist().unwrap();
                    }
                });
            }
        });
        let survivor = std::fs::read_to_string(&path).unwrap();
        assert!(survivor.lines().all(|l| {
            let payload = framed::unframe(l).unwrap();
            framed::frame_line(payload) == format!("{l}\n")
                && serde_json::from_str::<Line>(payload).is_ok()
        }));
        let lines = survivor.lines().count();
        assert!(writers.iter().any(|c| c.len() == lines), "{lines} lines");
        assert_eq!(VerdictCache::open(&path).len(), lines);
        let left: Vec<_> = std::fs::read_dir(&dir).unwrap().flatten().collect();
        assert_eq!(left.len(), 1, "tmp files left behind: {left:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn foreign_epoch_lines_are_orphaned_at_load() {
        let dir = std::env::temp_dir().join(format!("verdicts-epoch-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cache.verdicts");
        let spec = GpuSpec::rtx4090();
        let e = Etir::initial(OpSpec::gemm(256, 256, 256), &spec);

        let cache = VerdictCache::open(&path);
        let _ = cache.verify(&e, Some(&spec));
        cache.persist().unwrap();

        // Rewrite the sidecar as if written by a different epoch, framed
        // anew so the line is intact and only its epoch orphans it.
        let stale = std::fs::read_to_string(&path)
            .unwrap()
            .lines()
            .map(|l| {
                framed::unframe(l).unwrap().replace(
                    &format!("\"epoch\":{VERIFIER_EPOCH}"),
                    &format!("\"epoch\":{}", VERIFIER_EPOCH + 1),
                )
            })
            .map(|p| framed::frame_line(&p))
            .collect::<String>();
        assert!(stale.contains(&format!("\"epoch\":{}", VERIFIER_EPOCH + 1)));
        std::fs::write(&path, stale).unwrap();
        let reopened = VerdictCache::open(&path);
        assert!(reopened.is_empty(), "stale verdicts are never trusted");
        let _ = reopened.verify(&e, Some(&spec));
        assert_eq!(reopened.stats().misses, 1, "re-proven from scratch");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn an_older_epochs_line_shape_is_foreign_not_torn() {
        // Epoch 3 keyed a verdict by `fp` and `gpu`, without the operator.
        let dir = std::env::temp_dir().join(format!("verdicts-shape-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cache.verdicts");
        let old = framed::frame_line(
            r#"{"fp":1,"gpu":2,"epoch":3,"op":"GEMM[8,8,8]","schedule":"s","gpu_name":null,"diags":[]}"#,
        );
        std::fs::write(&path, &old).unwrap();
        assert!(VerdictCache::open(&path).is_empty());
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            old,
            "kept, not truncated"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_flipped_bit_in_a_persisted_verdict_misses_and_reverifies() {
        let dir = std::env::temp_dir().join(format!("verdicts-flip-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cache.verdicts");
        let spec = GpuSpec::rtx4090();
        let mut e = Etir::initial(OpSpec::gemm(256, 256, 256), &spec);
        e.unroll = 3;
        let cache = VerdictCache::open(&path);
        let cold = cache.verify(&e, Some(&spec));
        assert!(!cold.is_legal());
        assert!(cold.diagnostics.iter().all(|d| d.code.as_str() == "GS005"));
        cache.persist().unwrap();

        // One bit: '0' (0x30) -> '2' (0x32) turns the error into a lint.
        let flipped = std::fs::read_to_string(&path)
            .unwrap()
            .replace("GS005", "GS025");
        std::fs::write(&path, flipped).unwrap();
        let reopened = VerdictCache::open(&path);
        assert!(!reopened.verify(&e, Some(&spec)).is_legal());
        assert_eq!(reopened.stats(), VerdictStats { hits: 0, misses: 1 });
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_torn_sidecar_tail_loads_its_intact_prefix() {
        let dir = std::env::temp_dir().join(format!("verdicts-torn-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cache.verdicts");
        let spec = GpuSpec::rtx4090();
        let cache = VerdictCache::open(&path);
        for m in [64u64, 128, 256] {
            cache.verify(&Etir::initial(OpSpec::gemm(m, 64, 64), &spec), None);
        }
        cache.persist().unwrap();
        let clean = std::fs::read(&path).unwrap();
        let last = clean[..clean.len() - 1]
            .rsplit(|&b| b == b'\n')
            .next()
            .unwrap();
        let mut torn = clean.clone();
        torn.extend_from_slice(&last[..last.len() / 2]);
        std::fs::write(&path, &torn).unwrap();

        assert_eq!(VerdictCache::open(&path).len(), 3);
        assert!(
            std::fs::read(&path).unwrap() == clean,
            "torn tail not truncated"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_non_utf8_sidecar_line_costs_only_that_line() {
        let dir = std::env::temp_dir().join(format!("verdicts-binary-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cache.verdicts");
        let spec = GpuSpec::rtx4090();
        let cache = VerdictCache::open(&path);
        for m in [64u64, 128] {
            cache.verify(&Etir::initial(OpSpec::gemm(m, 64, 64), &spec), None);
        }
        cache.persist().unwrap();
        let mut bytes = b"\xff\xfe binary damage\n".to_vec();
        bytes.extend(std::fs::read(&path).unwrap());
        std::fs::write(&path, &bytes).unwrap();
        assert_eq!(VerdictCache::open(&path).len(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn boundary_rejection_bumps_the_provenance_counter() {
        let cache = VerdictCache::in_memory();
        let before = obs::counter(
            "gensor_verify_rejected_remote_total",
            "Schedules from fabric peers rejected by the verifier",
        )
        .get();
        let report = cache.verify_as(&dirty_state(), None, Provenance::RemotePeer);
        assert!(!report.is_legal());
        let after = obs::counter(
            "gensor_verify_rejected_remote_total",
            "Schedules from fabric peers rejected by the verifier",
        )
        .get();
        assert_eq!(after, before + 1);
    }
}
