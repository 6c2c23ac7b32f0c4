//! The incremental verification cache: verdicts keyed by
//! (schedule fingerprint × [`VERIFIER_EPOCH`] × target fingerprint),
//! persisted as a JSONL sidecar beside the schedule store.
//!
//! A verdict is a *local proof about content*: the key includes
//! [`etir::Etir::fingerprint`] (operator label + every schedule
//! parameter), so a cached verdict transfers to any copy of the same
//! bytes — including one that just arrived from an untrusted peer. A
//! tampered schedule has a different fingerprint and misses into a
//! fresh verification; there is no way to inherit another schedule's
//! verdict. That is why verdict hits satisfy the
//! [`crate::provenance::Requirement::FullVerify`] policy.
//!
//! Invalidation is by epoch: any change to verifier semantics (new
//! check, fixed check, changed severity) must bump [`VERIFIER_EPOCH`],
//! which orphans every persisted verdict at load time. Stale lines are
//! skipped, not deleted — the next [`VerdictCache::persist`] rewrites
//! the sidecar with current-epoch verdicts only, through the same atomic
//! rewrite as store compaction ([`faults::replace_file`]).
//!
//! The cached value is the *entire* [`Report`] (diagnostics included),
//! so a warm sweep renders byte-identically to a cold one — the golden
//! tests and CI's "Verdict cache warm sweep" step rely on this.

use crate::diag::{Code, Diagnostic, Report};
use crate::invariants::PASSES;
use crate::provenance::Provenance;
use crate::verifier::verify_schedule;
use etir::Etir;
use hardware::GpuSpec;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::io::BufRead;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Version of the verifier's semantics. Bump on ANY change to checks,
/// severities, message wording, or pass structure: persisted verdicts
/// from other epochs are never trusted.
pub const VERIFIER_EPOCH: u32 = 2;

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

/// FNV-1a over every field of the device spec; `None` (spec-less
/// verification) is target 0. Hashed directly (not via serialization)
/// because this runs on every verdict lookup — the warm path must cost
/// a hash and a map probe, nothing more.
pub fn gpu_fingerprint(spec: Option<&GpuSpec>) -> u64 {
    let Some(spec) = spec else { return 0 };
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ b as u64).wrapping_mul(0x1_0000_01b3);
        }
    };
    eat(spec.name.as_bytes());
    for v in [
        spec.num_sms as u64,
        spec.clock_ghz.to_bits(),
        spec.peak_fp32_gflops.to_bits(),
        spec.warp_size as u64,
        spec.max_threads_per_sm as u64,
        spec.max_threads_per_block as u64,
        spec.max_blocks_per_sm as u64,
        spec.regs_per_sm as u64,
        spec.max_regs_per_thread as u64,
        spec.max_smem_per_block,
        spec.kernel_launch_overhead_us.to_bits(),
        spec.levels.len() as u64,
    ] {
        eat(&v.to_le_bytes());
    }
    for l in &spec.levels {
        eat(l.name.as_bytes());
        for v in [
            l.capacity_bytes,
            l.latency_ns.to_bits(),
            l.bandwidth_bytes_per_us.to_bits(),
            l.banks as u64,
            l.bank_width_bytes as u64,
        ] {
            eat(&v.to_le_bytes());
        }
    }
    h
}

/// One persisted verdict.
#[derive(Serialize, Deserialize)]
struct Line {
    fp: u64,
    gpu: u64,
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

/// The verdict cache. Thread-safe; cheap to share behind an `Arc`.
pub struct VerdictCache {
    path: Option<PathBuf>,
    map: Mutex<HashMap<(u64, u64), Report>>,
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

    /// Open (or create) a persistent cache at `path`. Unparseable lines
    /// and verdicts from other epochs are skipped — never trusted,
    /// never fatal.
    pub fn open(path: impl Into<PathBuf>) -> VerdictCache {
        let path = path.into();
        let mut map = HashMap::new();
        if let Ok(f) = std::fs::File::open(&path) {
            for line in std::io::BufReader::new(f).lines() {
                let Ok(line) = line else { break };
                let Ok(l) = serde_json::from_str::<Line>(&line) else {
                    continue;
                };
                if l.epoch != VERIFIER_EPOCH {
                    continue;
                }
                let diagnostics: Vec<Diagnostic> = l
                    .diags
                    .iter()
                    .filter_map(|d| {
                        Some(Diagnostic::new(
                            Code::parse(&d.code)?,
                            intern_pass(&d.pass),
                            d.message.clone(),
                        ))
                    })
                    .collect();
                // A line whose codes no longer parse is from a future
                // epoch lying about its number; drop it.
                if diagnostics.len() != l.diags.len() {
                    continue;
                }
                map.insert(
                    (l.fp, l.gpu),
                    Report {
                        op_label: l.op,
                        schedule: l.schedule,
                        gpu: l.gpu_name,
                        diagnostics,
                    },
                );
            }
        }
        VerdictCache {
            path: Some(path),
            map: Mutex::new(map),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Verify through the cache: a hit returns the stored report
    /// verbatim; a miss runs the standard pipeline and banks the
    /// verdict.
    pub fn verify(&self, e: &Etir, spec: Option<&GpuSpec>) -> Report {
        let key = (e.fingerprint(), gpu_fingerprint(spec));
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
        let report = verify_schedule(e, spec);
        self.map.lock().unwrap().insert(key, report.clone());
        report
    }

    /// [`VerdictCache::verify`] at a named trust boundary: a rejection
    /// additionally bumps the per-provenance audit counter.
    pub fn verify_as(&self, e: &Etir, spec: Option<&GpuSpec>, prov: Provenance) -> Report {
        let report = self.verify(e, spec);
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

    /// Write every current-epoch verdict to the sidecar through the
    /// store's one atomic, durable rewrite ([`faults::replace_file`]), so a
    /// daemon and a `gensor lint --verdicts` may persist to one store at
    /// once. No-op for in-memory caches.
    pub fn persist(&self) -> std::io::Result<()> {
        let Some(path) = &self.path else {
            return Ok(());
        };
        let mut body = String::new();
        {
            let map = self.map.lock().unwrap();
            let mut entries: Vec<_> = map.iter().collect();
            entries.sort_by_key(|((fp, gpu), _)| (*fp, *gpu));
            for ((fp, gpu), report) in entries {
                let line = Line {
                    fp: *fp,
                    gpu: *gpu,
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
                body.push_str(&serde_json::to_string(&line).expect("verdict line serializes"));
                body.push('\n');
            }
        }
        faults::replace_file(path, body.as_bytes())
    }

    /// Hit/miss counters since this instance was created.
    pub fn stats(&self) -> VerdictStats {
        VerdictStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
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
        assert!(survivor
            .lines()
            .all(|l| serde_json::from_str::<Line>(l).is_ok()));
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

        // Rewrite the sidecar as if written by a different epoch.
        let stale = std::fs::read_to_string(&path).unwrap().replace(
            &format!("\"epoch\":{VERIFIER_EPOCH}"),
            &format!("\"epoch\":{}", VERIFIER_EPOCH + 1),
        );
        std::fs::write(&path, stale).unwrap();
        let reopened = VerdictCache::open(&path);
        assert!(reopened.is_empty(), "stale verdicts are never trusted");
        let _ = reopened.verify(&e, Some(&spec));
        assert_eq!(reopened.stats().misses, 1, "re-proven from scratch");
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
