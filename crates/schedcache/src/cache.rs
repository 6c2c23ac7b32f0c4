//! The cache façade: memory tier + optional persistent tier + neighbour
//! index + statistics, behind one way in (`admit`) and one way out
//! (`get_or_compile`, whose hit path is also `lookup`).

use crate::key::CacheKey;
use crate::map::{Outcome, ResidentMap};
use crate::stats::{Stats, StatsSnapshot};
use crate::store::{self, CompactReport, Store};
use etir::Etir;
use hardware::GpuSpec;
use simgpu::CompiledKernel;
use std::collections::HashSet;
use std::path::Path;
use std::sync::Arc;
use tensor_expr::{Extents, OpSpec};
use verify::{Provenance, VerdictCache};

/// Number of digest shards in a [`CacheDigest`]. A shard digest
/// mismatch between two replicas narrows anti-entropy repair to ~1/16th
/// of the key space before any key set is shipped.
pub const DIGEST_SHARDS: usize = 16;

/// A Merkle-ish fingerprint of the cache's resident key set: one
/// XOR-fold of per-key hashes ([`CacheKey::mix`]) per digest shard plus
/// a root fold over all of them. XOR makes the digest order-independent
/// and incrementally comparable: two caches with equal `root` and
/// `count` hold the same keys (up to astronomically unlikely
/// collisions), and a mismatched shard pinpoints where they diverge.
/// The cache is insert-only across replicas (existing entries never get
/// clobbered), so "missing keys" is the only divergence class repair has
/// to close.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheDigest {
    /// XOR-fold over every resident key's hash.
    pub root: u64,
    /// Per-shard folds, `DIGEST_SHARDS` long.
    pub shards: Vec<u64>,
    /// Resident entries.
    pub count: u64,
}

impl CacheDigest {
    /// Digest-shard indexes where `self` and `other` disagree.
    pub fn diverging_shards(&self, other: &CacheDigest) -> Vec<usize> {
        (0..DIGEST_SHARDS.min(self.shards.len()).min(other.shards.len()))
            .filter(|&i| self.shards[i] != other.shards[i])
            .collect()
    }
}

/// One cache entry in transferable form — the unit anti-entropy repair
/// streams between replicas. Carries the raw [`CacheKey`] because the
/// receiving side cannot reconstruct it (fingerprints are one-way and
/// the original `GpuSpec` is not recoverable from the kernel), plus the
/// operator label and method the persistent store record needs.
#[derive(Debug, Clone)]
pub struct CacheEntry {
    pub key: CacheKey,
    pub op_label: String,
    pub method: String,
    pub kernel: CompiledKernel,
}

/// Extra shape-distance charged to a neighbour cached for a *different*
/// device fingerprint (one octave of extent ratio): cross-device
/// transplants are still offered as warm-start seeds, but a same-device
/// neighbour at equal shape distance always ranks first.
pub const CROSS_DEVICE_PENALTY: f64 = 1.0;

/// A persistent, concurrent schedule cache.
///
/// * every schedule enters through one private `admit`: verified under
///   its [`Provenance`], made resident with its method and an admission
///   stamp (which makes it a neighbour seed and exportable), and appended
///   to the JSONL store (when one is attached) — a schedule the verifier
///   refuses is counted and is none of those;
/// * misses run the supplied construction (single-flight: concurrent
///   requests for the same key collapse onto one build);
/// * [`ScheduleCache::neighbours`] offers cached schedules of the same
///   operator class, nearest first by log-shape distance (plus
///   [`CROSS_DEVICE_PENALTY`] for entries cached for another device), as
///   warm-start seeds for new shapes — and, on a first sighting of a new
///   `GpuSpec`, for known shapes transplanted across devices;
/// * an optional entry cap bounds the memory tier (exact LRU eviction),
///   so a long-lived daemon serving unbounded shape churn stays bounded.
pub struct ScheduleCache {
    /// The only record of a resident key (see [`crate::map`]).
    map: ResidentMap,
    store: Option<Store>,
    stats: Stats,
    /// Incremental verification cache: verdicts keyed by schedule,
    /// operator and target fingerprints × verifier epoch, persisted as a
    /// `<store>.verdicts` sidecar when this cache persists. Every
    /// verification this cache performs goes through it, so re-proving a
    /// known schedule costs a hash lookup. An evicted entry's verdicts
    /// leave it, so a bounded cache's verdicts stay bounded too.
    verdicts: Arc<VerdictCache>,
}

impl ScheduleCache {
    /// A cache with no persistent tier.
    pub fn in_memory() -> Self {
        Self::with_store(None, None).expect("in-memory cache cannot fail")
    }

    /// An in-memory cache bounded to `cap` resident schedules (at least
    /// one; the least recently used is evicted).
    pub fn in_memory_bounded(cap: usize) -> Self {
        Self::with_store(None, Some(cap)).expect("in-memory cache cannot fail")
    }

    /// A cache backed by the JSONL file at `path`, pre-seeded with every
    /// valid record already there. Corrupt or foreign-version lines are
    /// skipped and counted, and records that parse but fail static
    /// verification are rejected and counted (see [`StatsSnapshot`]).
    pub fn open(path: impl AsRef<Path>) -> std::io::Result<Self> {
        Self::with_store(Some(Store::open(path.as_ref())), None)
    }

    /// [`ScheduleCache::open`] with [`ScheduleCache::in_memory_bounded`]'s
    /// LRU entry cap. The cap bounds resident schedules only — the JSONL
    /// file still holds every winner ever found (use `Store::compact` to
    /// shrink it).
    pub fn open_bounded(path: impl AsRef<Path>, cap: usize) -> std::io::Result<Self> {
        Self::with_store(Some(Store::open(path.as_ref())), Some(cap))
    }

    fn with_store(store: Option<Store>, cap: Option<usize>) -> std::io::Result<Self> {
        let verdicts = Arc::new(match &store {
            Some(store) => VerdictCache::open(VerdictCache::sidecar(store.path())),
            None => VerdictCache::in_memory(),
        });
        let banked = verdicts.clone();
        let cache = ScheduleCache {
            map: ResidentMap::with_entry_cap(cap)
                .on_evict(move |key, kernel| banked.forget(&kernel.etir, key.gpu_fp)),
            store,
            stats: Stats::default(),
            verdicts,
        };
        if let Some(store) = &cache.store {
            let (records, report) = store.load()?;
            cache.stats.record_load(&report);
            for rec in records {
                let kernel = CompiledKernel {
                    etir: rec.etir,
                    report: rec.report,
                    // Carry the original tuning cost so hits can account
                    // the seconds they save.
                    wall_time_s: rec.tuning_s,
                    simulated_tuning_s: 0.0,
                    candidates_evaluated: rec.candidates_evaluated,
                };
                // A store record is untrusted input: bit rot or a foreign
                // writer can yield a line that parses but encodes an
                // illegal schedule. No device spec is available at load
                // time, so admission proves structure only; the device
                // check is `get_or_compile`'s, when the record is asked
                // for. A reject is counted and skipped, never fatal.
                let _ = cache.admit(
                    rec.key,
                    rec.op_label,
                    &rec.method,
                    Arc::new(kernel),
                    None,
                    Provenance::Store,
                );
            }
        }
        Ok(cache)
    }

    /// The backing file, if this cache persists.
    pub fn store_path(&self) -> Option<&Path> {
        self.store.as_ref().map(|s| s.path())
    }

    /// Schedules resident in memory.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether nothing is cached yet.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Counters so far.
    pub fn stats(&self) -> StatsSnapshot {
        let mut s = self.stats.snapshot();
        s.evictions = self.map.evictions();
        let v = self.verdicts.stats();
        s.verdict_hits = v.hits;
        s.verdict_misses = v.misses;
        s
    }

    /// The incremental verification cache every admission check of this
    /// cache runs through. Shared so the serve/fabric layers can verify
    /// against the same cached verdicts.
    pub fn verdicts(&self) -> &VerdictCache {
        &self.verdicts
    }

    /// Flush the persistent tier to stable storage (`fsync`), along with
    /// the verdict sidecar. A no-op for in-memory caches; the serve
    /// daemon calls this on graceful drain.
    pub fn flush(&self) -> std::io::Result<()> {
        match &self.store {
            Some(store) => {
                store.sync()?;
                self.verdicts.persist()
            }
            None => Ok(()),
        }
    }

    /// Compact the persistent store if its file has grown past `max_bytes`.
    ///
    /// Returns `Ok(None)` when this cache has no store or the file is still
    /// under the threshold; `Ok(Some(report))` after a compaction ran. The
    /// serve daemon calls this periodically so a hot store (many superseded
    /// rewrites of the same keys) does not grow without bound.
    pub fn compact_if_larger_than(&self, max_bytes: u64) -> std::io::Result<Option<CompactReport>> {
        let Some(store) = &self.store else {
            return Ok(None);
        };
        let size = match std::fs::metadata(store.path()) {
            Ok(meta) => meta.len(),
            // A store that has never been written has no file yet.
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e),
        };
        if size <= max_bytes {
            return Ok(None);
        }
        let _sp = obs::span!("cache.compact", bytes = size);
        let report = store.compact()?;
        self.stats.record_compaction();
        obs::log!(
            Info,
            "schedcache: compacted {} ({} bytes): kept {}, dropped {} superseded",
            store.path().display(),
            size,
            report.kept,
            report.superseded
        );
        Ok(Some(report))
    }

    /// The one way in. Verifies `kernel` as `provenance` demands (against
    /// `spec` when the caller has one, which also proves it for answers),
    /// and only then makes it resident with its method and admission
    /// stamp, and persists it. `Ok(false)`: a peer offered a key that is
    /// already resident — replicas never clobber each other's winners.
    /// `Err`: the verifier refused it; the reject is counted and the
    /// schedule is nowhere — not resident, not a seed, not on disk.
    fn admit(
        &self,
        key: CacheKey,
        op_label: String,
        method: &str,
        kernel: Arc<CompiledKernel>,
        spec: Option<&GpuSpec>,
        provenance: Provenance,
    ) -> Result<bool, verify::Rejected> {
        let target = spec.map(|s| (s, key.gpu_fp));
        let report = self.verdicts.verify_as(&kernel.etir, target, provenance);
        if !report.is_legal() {
            self.stats.record_rejected();
            // A `Local` kernel is the single-flight build's own result:
            // the map holds it already, and must stop holding it.
            if provenance == Provenance::Local {
                self.map.remove(&key);
            }
            return Err(verify::Rejected(report));
        }
        // A later store line supersedes an earlier one (newest wins, as in
        // `Store::compact`); a peer's copy never does.
        let supersede = provenance == Provenance::Store;
        if !self
            .map
            .admit(key, &kernel, method, spec.is_some(), supersede)
        {
            return Ok(false);
        }
        // What came from the store is already in it.
        let store = self.store.as_ref();
        if let Some(store) = store.filter(|_| provenance != Provenance::Store) {
            let rec = store::record(key, op_label, method, &kernel);
            if let Err(e) = store.append(&rec) {
                obs::log!(
                    Warn,
                    "schedcache: could not persist {provenance} {} to {}: {e}",
                    rec.op_label,
                    store.path().display()
                );
            }
        }
        Ok(true)
    }

    /// Cached schedules usable as warm-start seeds when compiling `op` on
    /// `spec` (same operator class, same spatial and reduce rank), nearest
    /// first by log-shape distance. Exact (shape, device) matches are
    /// excluded — those are hits, not warm starts — but the *same* shape
    /// cached for a **different** device fingerprint is offered (ranked
    /// with [`CROSS_DEVICE_PENALTY`]), so the first sighting of a new GPU
    /// walks from schedules transplanted from devices that already know
    /// the operator. At most `k`.
    pub fn neighbours(&self, op: &OpSpec, spec: &GpuSpec, k: usize) -> Vec<Etir> {
        let my_gpu = etir::identity::gpu_fingerprint(spec);
        let class = op.class();
        let (spatial, reduce) = (op.spatial_extents(), op.reduce_extents());
        let (spatial_log2, reduce_log2) = (log2s(&spatial), log2s(&reduce));
        // The k nearest so far by (distance, admission stamp), ascending:
        // stamps are unique, so equal distances keep admission order.
        let mut nearest: Vec<(f64, u64, Arc<CompiledKernel>)> = Vec::new();
        self.map.for_each_admitted(|key, e| {
            let seed = &e.kernel.etir.op;
            if seed.class() != class {
                return;
            }
            let (seed_spatial, seed_reduce) = (seed.spatial_extents(), seed.reduce_extents());
            if seed_spatial.len() != spatial.len() || seed_reduce.len() != reduce.len() {
                return;
            }
            let penalty = if key.gpu_fp == my_gpu {
                0.0
            } else {
                CROSS_DEVICE_PENALTY
            };
            if penalty == 0.0 && seed == op {
                return;
            }
            let distance = log2_distance(&seed_spatial, &spatial_log2)
                + log2_distance(&seed_reduce, &reduce_log2)
                + penalty;
            let at = nearest.partition_point(|(d, stamp, _)| {
                d.total_cmp(&distance).then(stamp.cmp(&e.admitted)).is_lt()
            });
            if at < k {
                if nearest.len() == k {
                    nearest.pop();
                }
                nearest.insert(at, (distance, e.admitted, e.kernel.clone()));
            }
        });
        nearest
            .into_iter()
            .map(|(_, _, kernel)| kernel.etir.clone())
            .collect()
    }

    /// Is (`op`, `spec`, `method`) resident right now? Never compiles.
    /// The fabric's freshness probe: a replica answering `None` here is
    /// stale for this key and a candidate for read-repair.
    pub fn peek(&self, op: &OpSpec, spec: &GpuSpec, method: &str) -> Option<Arc<CompiledKernel>> {
        self.map.get(&CacheKey::new(op, spec, method))
    }

    /// Install an externally compiled kernel — the fabric's write-through
    /// and read-repair path, where a kernel built on one daemon is
    /// replicated into this one. The kernel is statically verified against
    /// `spec` before admission (a peer is as untrusted as a disk record);
    /// an illegal schedule is refused with the typed report and kept
    /// nowhere. Returns `true` when the kernel was admitted, `false` when
    /// the key was already resident (the existing entry wins).
    pub fn install(
        &self,
        op: &OpSpec,
        spec: &GpuSpec,
        method: &str,
        kernel: CompiledKernel,
    ) -> Result<bool, verify::Rejected> {
        self.admit(
            CacheKey::new(op, spec, method),
            op.label(),
            method,
            Arc::new(kernel),
            Some(spec),
            Provenance::RemotePeer,
        )
    }

    /// Install a repaired entry by its *raw* key — the anti-entropy path,
    /// where the key travelled with the entry because the receiving side
    /// cannot recompute fingerprints it never saw the specs for. The
    /// kernel is verified structurally (no device spec is reconstructable
    /// from a raw entry) under the same remote-peer provenance as
    /// [`install`](ScheduleCache::install), with the same answers.
    pub fn install_raw(&self, entry: CacheEntry) -> Result<bool, verify::Rejected> {
        self.admit(
            entry.key,
            entry.op_label,
            &entry.method,
            Arc::new(entry.kernel),
            None,
            Provenance::RemotePeer,
        )
    }

    /// The Merkle-ish fingerprint of the resident key set (see
    /// [`CacheDigest`]). A point-in-time snapshot; entries inserted
    /// concurrently may or may not be included.
    pub fn digest(&self) -> CacheDigest {
        let mut shards = vec![0u64; DIGEST_SHARDS];
        let mut root = 0u64;
        let mut count = 0u64;
        for key in self.map.admitted(|key, _| Some(*key)) {
            let h = key.mix();
            shards[key.shard(DIGEST_SHARDS)] ^= h;
            root ^= h;
            count += 1;
        }
        CacheDigest {
            root,
            shards,
            count,
        }
    }

    /// All resident keys whose digest shard is `shard` (see
    /// [`CacheDigest::diverging_shards`]).
    pub fn keys_in_shard(&self, shard: usize) -> Vec<CacheKey> {
        self.map
            .admitted(|key, _| Some(*key).filter(|k| k.shard(DIGEST_SHARDS) == shard))
    }

    /// Resident entries for `keys`, in transferable form (admission
    /// order). Keys not resident are skipped, not errors: repair converges
    /// over repeated rounds.
    pub fn export(&self, keys: &[CacheKey]) -> Vec<CacheEntry> {
        let wanted: HashSet<&CacheKey> = keys.iter().collect();
        let mut entries = self.map.admitted(|key, e| {
            let entry = || CacheEntry {
                key: *key,
                op_label: e.kernel.etir.op.label(),
                method: e.method.clone(),
                kernel: (*e.kernel).clone(),
            };
            wanted.contains(key).then(|| (e.admitted, entry()))
        });
        entries.sort_unstable_by_key(|(stamp, _)| *stamp);
        entries.into_iter().map(|(_, entry)| entry).collect()
    }

    /// The hit path: the kernel resident for (`op`, `spec`, `method`),
    /// answered as [`get_or_compile`](ScheduleCache::get_or_compile)
    /// answers a hit, or `None` when nothing is resident. Never compiles,
    /// so a daemon can answer it on the connection's own thread.
    pub fn lookup(
        &self,
        op: &OpSpec,
        spec: &GpuSpec,
        method: &str,
    ) -> Option<Result<CompiledKernel, verify::Rejected>> {
        let key = CacheKey::new(op, spec, method);
        let kernel = self.map.get(&key)?;
        Some(self.answer(key, spec, &kernel, Outcome::Hit))
    }

    /// The one way out: the kernel for (`op`, `spec`, `method`), running
    /// `build` on a miss. `build` receives the warm-start seeds
    /// ([`neighbours`]) so it can start construction from transplanted
    /// candidates; concurrent identical requests run `build` exactly once.
    ///
    /// Every answer is proved legal for `spec` before it is handed out —
    /// by `admit` when it was built here or installed with a spec, else by
    /// the first hit or coalesced answer (shared with [`lookup`]) that
    /// finds its entry unproved: a store record or a raw repair entry was
    /// admitted on structure alone. Each entry is proved once. An illegal
    /// schedule — a builder bug, a record that does not fit this device —
    /// is counted ([`StatsSnapshot::verifier_rejected`]) and comes back as
    /// the typed [`verify::Rejected`] report, never as a kernel. Only a
    /// built answer carries its tuning cost; a cached one costs nothing.
    ///
    /// [`neighbours`]: ScheduleCache::neighbours
    /// [`lookup`]: ScheduleCache::lookup
    pub fn get_or_compile<F>(
        &self,
        op: &OpSpec,
        spec: &GpuSpec,
        method: &str,
        build: F,
    ) -> Result<(CompiledKernel, Outcome), verify::Rejected>
    where
        F: FnOnce(&[Etir]) -> CompiledKernel,
    {
        let key = CacheKey::new(op, spec, method);
        let mut used_seeds = false;
        let (kernel, outcome) = self.map.get_or_build(key, || {
            let seeds = self.neighbours(op, spec, 3);
            used_seeds = !seeds.is_empty();
            build(&seeds)
        });
        if outcome != Outcome::Built {
            return self
                .answer(key, spec, &kernel, outcome)
                .map(|k| (k, outcome));
        }
        self.stats.record_miss(kernel.wall_time_s, used_seeds);
        self.admit(
            key,
            op.label(),
            method,
            kernel.clone(),
            Some(spec),
            Provenance::Local,
        )?;
        Ok(((*kernel).clone(), outcome))
    }

    /// Answer a resident kernel (a hit or a coalesced wait): count it,
    /// prove it for `spec` unless its entry is proved already, and hand
    /// out a copy with no tuning cost — no wall time, no simulated
    /// measurement clock. A passed check marks the entry proved; an
    /// entry that fails is never marked, so it is refused every time.
    fn answer(
        &self,
        key: CacheKey,
        spec: &GpuSpec,
        kernel: &Arc<CompiledKernel>,
        outcome: Outcome,
    ) -> Result<CompiledKernel, verify::Rejected> {
        if outcome == Outcome::Hit {
            self.stats.record_hit(kernel.total_tuning_s());
        } else {
            self.stats.record_coalesced();
        }
        if !self.map.proved(&key, kernel) {
            let target = Some((spec, key.gpu_fp));
            let report = self
                .verdicts
                .verify_as(&kernel.etir, target, Provenance::Local);
            if !report.is_legal() {
                self.stats.record_rejected();
                return Err(verify::Rejected(report));
            }
            self.map.prove(&key, kernel);
        }
        Ok(CompiledKernel {
            wall_time_s: 0.0,
            simulated_tuning_s: 0.0,
            ..(**kernel).clone()
        })
    }
}

/// Each extent's log2, taken once per [`ScheduleCache::neighbours`] probe.
fn log2s(extents: &[u64]) -> [f64; Extents::MAX] {
    let mut out = [0.0; Extents::MAX];
    for (log2, &x) in out.iter_mut().zip(extents) {
        *log2 = (x as f64).log2();
    }
    out
}

/// Σ |log2 extent ratios| between a seed's extents and a probe's log2s.
fn log2_distance(seed: &[u64], probe_log2: &[f64]) -> f64 {
    seed.iter()
        .zip(probe_log2)
        .map(|(&p, &log2_q)| ((p as f64).log2() - log2_q).abs())
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn tmpfile(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("schedcache-cache-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{tag}-{}.jsonl", std::process::id()))
    }

    fn fill(cache: &ScheduleCache, op: &OpSpec, spec: &GpuSpec) -> (CompiledKernel, Outcome) {
        cache
            .get_or_compile(op, spec, "Gensor", |_| build(op, spec))
            .expect("the initial state is legal")
    }

    fn build(op: &OpSpec, spec: &GpuSpec) -> CompiledKernel {
        let e = Etir::initial(op.clone(), spec);
        let r = simgpu::simulate(&e, spec).unwrap();
        CompiledKernel {
            etir: e,
            report: r,
            wall_time_s: 0.05,
            simulated_tuning_s: 0.0,
            candidates_evaluated: 1,
        }
    }

    #[test]
    fn hit_after_miss_and_counters_follow() {
        let spec = GpuSpec::rtx4090();
        let cache = ScheduleCache::in_memory();
        let op = OpSpec::gemm(512, 512, 512);
        let builds = AtomicU64::new(0);
        for _ in 0..3 {
            cache
                .get_or_compile(&op, &spec, "Gensor", |_| {
                    builds.fetch_add(1, Ordering::SeqCst);
                    build(&op, &spec)
                })
                .unwrap();
        }
        assert_eq!(builds.load(Ordering::SeqCst), 1);
        let s = cache.stats();
        assert_eq!((s.misses, s.hits), (1, 2));
        assert!(s.saved_tuning_s > 0.0);
    }

    #[test]
    fn lookup_answers_a_resident_kernel_like_a_hit_and_never_builds() {
        let spec = GpuSpec::rtx4090();
        let cache = ScheduleCache::in_memory();
        let op = OpSpec::gemm(512, 256, 256);
        assert!(cache.lookup(&op, &spec, "Gensor").is_none());
        assert_eq!(cache.stats().hits, 0, "a miss is not counted");
        let (built, _) = fill(&cache, &op, &spec);
        assert!(built.total_tuning_s() > 0.0);
        let k = cache.lookup(&op, &spec, "Gensor").unwrap().unwrap();
        let (again, o) = fill(&cache, &op, &spec);
        assert_eq!(o, Outcome::Hit);
        assert_eq!(k, again, "lookup answers as get_or_compile's hit");
        assert_eq!((&k.etir, k.total_tuning_s()), (&built.etir, 0.0));
        let s = cache.stats();
        assert_eq!((s.misses, s.hits), (1, 2));
        assert!(cache.lookup(&op, &spec, "Roller").is_none());
    }

    #[test]
    fn compact_if_larger_than_respects_the_threshold() {
        let spec = GpuSpec::rtx4090();
        let path = tmpfile("compact-threshold");
        let _ = std::fs::remove_file(&path);
        {
            let cache = ScheduleCache::open(&path).unwrap();
            let op = OpSpec::gemm(512, 256, 512);
            fill(&cache, &op, &spec);
            // Under an enormous threshold: nothing to do.
            assert!(cache.compact_if_larger_than(u64::MAX).unwrap().is_none());
            assert_eq!(cache.stats().compactions, 0);
        }
        // Duplicate every line (as two racing processes would); reopening
        // and compacting past a 1-byte threshold rewrites the file down to
        // the live record set.
        let body = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, format!("{body}{body}")).unwrap();
        let cache = ScheduleCache::open(&path).unwrap();
        let report = cache
            .compact_if_larger_than(1)
            .unwrap()
            .expect("over-threshold store must compact");
        assert_eq!((report.kept, report.superseded), (1, 1));
        assert_eq!(cache.stats().compactions, 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn in_memory_cache_never_compacts() {
        let cache = ScheduleCache::in_memory();
        assert!(cache.compact_if_larger_than(0).unwrap().is_none());
        assert_eq!(cache.stats().compactions, 0);
    }

    #[test]
    fn neighbours_are_same_class_nearest_first() {
        let spec = GpuSpec::rtx4090();
        let cache = ScheduleCache::in_memory();
        for m in [256u64, 1024, 4096] {
            let op = OpSpec::gemm(m, 512, 512);
            fill(&cache, &op, &spec);
        }
        let gemv = OpSpec::gemv(4096, 512);
        fill(&cache, &gemv, &spec);

        let n = cache.neighbours(&OpSpec::gemm(1500, 512, 512), &spec, 2);
        assert_eq!(n.len(), 2);
        assert_eq!(n[0].op, OpSpec::gemm(1024, 512, 512), "nearest first");
        assert!(n
            .iter()
            .all(|e| e.op.class() == OpSpec::gemm(1, 1, 1).class()));
        // The exact (shape, device) pair never returns itself.
        assert!(cache
            .neighbours(&OpSpec::gemm(1024, 512, 512), &spec, 5)
            .iter()
            .all(|e| e.op != OpSpec::gemm(1024, 512, 512)));
    }

    /// `neighbours` as it was before the top-k pass: score, clone and
    /// sort every candidate. Taking `k` of these is the reference the
    /// one-pass version must match seed for seed.
    fn sorted_candidates(cache: &ScheduleCache, op: &OpSpec, spec: &GpuSpec) -> Vec<(f64, Etir)> {
        fn shape_distance(a: &OpSpec, b: &OpSpec) -> f64 {
            let dist = |x: &[u64], y: &[u64]| -> f64 {
                x.iter()
                    .zip(y)
                    .map(|(&p, &q)| ((p as f64).log2() - (q as f64).log2()).abs())
                    .sum()
            };
            dist(&a.spatial_extents(), &b.spatial_extents())
                + dist(&a.reduce_extents(), &b.reduce_extents())
        }
        let my_gpu = etir::identity::gpu_fingerprint(spec);
        let mut scored = cache.map.admitted(|key, e| {
            let seed = &e.kernel.etir.op;
            let same_rank = seed.class() == op.class()
                && seed.spatial_extents().len() == op.spatial_extents().len()
                && seed.reduce_extents().len() == op.reduce_extents().len();
            let penalty = if key.gpu_fp == my_gpu {
                0.0
            } else {
                CROSS_DEVICE_PENALTY
            };
            (same_rank && !(seed == op && penalty == 0.0)).then(|| {
                let distance = shape_distance(seed, op) + penalty;
                (distance, e.admitted, e.kernel.clone())
            })
        });
        scored.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        scored
            .into_iter()
            .map(|(distance, _, kernel)| (distance, kernel.etir.clone()))
            .collect()
    }

    #[test]
    fn one_pass_neighbours_match_the_sorted_reference() {
        // splitmix64: a seeded stream with no dependency.
        let mut state = 0x5eed_u64;
        let mut next = move |n: u64| {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) % n
        };
        // Power-of-two extents from a narrow range: many candidates sit
        // at equal distance from a probe, so admission order decides.
        let shape = |next: &mut dyn FnMut(u64) -> u64| {
            let e = |x: u64| 64u64 << x;
            match next(3) {
                0 | 1 => OpSpec::gemm(e(next(4)), e(next(3)), e(next(4))),
                _ => OpSpec::gemv(e(next(4)), e(next(3))),
            }
        };
        let gpus = [GpuSpec::rtx4090(), GpuSpec::a100()];
        let (mut compared, mut ties, mut excluded, mut cross, mut short) = (0, 0, 0, 0, 0);
        for _ in 0..12 {
            let cache = ScheduleCache::in_memory();
            for _ in 0..1 + next(24) {
                let op = shape(&mut next);
                fill(&cache, &op, &gpus[next(2) as usize]);
            }
            for _ in 0..16 {
                let op = shape(&mut next);
                let gpu = &gpus[next(2) as usize];
                let k = next(cache.len() as u64 + 3) as usize;
                let all = sorted_candidates(&cache, &op, gpu);
                let want: Vec<Etir> = all.iter().take(k).map(|(_, e)| e.clone()).collect();
                assert_eq!(cache.neighbours(&op, gpu, k), want, "{op:?} k={k}");
                compared += 1;
                short += usize::from(k > all.len());
                excluded += usize::from(cache.peek(&op, gpu, "Gensor").is_some());
                cross += usize::from(all.iter().any(|(_, e)| e.op == op));
                ties += usize::from(all.windows(2).any(|w| w[0].0 == w[1].0));
            }
        }
        // Every case the equivalence turns on was exercised.
        assert!(
            compared == 192 && ties > 0 && excluded > 0 && cross > 0 && short > 0,
            "compared {compared}, ties {ties}, excluded {excluded}, cross {cross}, short {short}"
        );
    }

    #[test]
    fn new_device_sees_same_op_entries_from_other_devices() {
        let rtx = GpuSpec::rtx4090();
        let a100 = GpuSpec::a100();
        let cache = ScheduleCache::in_memory();
        let op = OpSpec::gemm(1024, 512, 512);
        fill(&cache, &op, &rtx);

        // Same shape, new device: the RTX schedule is offered as a seed.
        let seeds = cache.neighbours(&op, &a100, 3);
        assert_eq!(seeds.len(), 1);
        assert_eq!(seeds[0].op, op);
        // …but the RTX device itself still never sees its own exact entry.
        assert!(cache.neighbours(&op, &rtx, 3).is_empty());

        // A nearby same-device neighbour outranks the cross-device
        // transplant, which carries the one-octave penalty.
        let near = OpSpec::gemm(1536, 512, 512);
        fill(&cache, &near, &a100);
        let seeds = cache.neighbours(&op, &a100, 2);
        assert_eq!(seeds[0].op, near, "local neighbour (d≈0.58) first");
        assert_eq!(seeds[1].op, op, "cross-device exact shape (d=0+1.0) next");
    }

    #[test]
    fn cross_device_miss_counts_as_warm_start() {
        let rtx = GpuSpec::rtx4090();
        let a100 = GpuSpec::a100();
        let cache = ScheduleCache::in_memory();
        let op = OpSpec::gemm(512, 512, 512);
        cache
            .get_or_compile(&op, &rtx, "Gensor", |seeds| {
                assert!(seeds.is_empty(), "first device is cold");
                build(&op, &rtx)
            })
            .unwrap();
        let (_, o) = cache
            .get_or_compile(&op, &a100, "Gensor", |seeds| {
                assert_eq!(seeds.len(), 1, "new device is seeded across the fp");
                build(&op, &a100)
            })
            .unwrap();
        assert_eq!(o, Outcome::Built);
        assert_eq!(cache.stats().warm_starts, 1);
    }

    #[test]
    fn bounded_cache_evicts_and_prunes_the_neighbour_index() {
        let spec = GpuSpec::rtx4090();
        let cache = ScheduleCache::in_memory_bounded(16);
        for m in 1..=40u64 {
            fill(&cache, &OpSpec::gemm(8 * m, 64, 64), &spec);
        }
        assert_eq!(cache.len(), 16, "resident entries bounded");
        let s = cache.stats();
        assert_eq!((s.misses, s.evictions), (40, 24));
        assert_eq!(cache.verdicts().len(), 16, "evicted entries' verdicts left");
        // The neighbour index is the map: the 16 newest shapes remain.
        let survivors = cache.neighbours(&OpSpec::gemm(96, 64, 64), &spec, usize::MAX);
        assert_eq!(survivors.len(), 16);
        assert!(survivors.iter().all(|e| e.op.spatial_extents()[0] > 8 * 24));
    }

    #[test]
    fn a_bounded_cache_holds_exactly_its_cap_and_first_evicts_when_full() {
        let spec = GpuSpec::rtx4090();
        for cap in [1usize, 4, 20, 192] {
            let cache = ScheduleCache::in_memory_bounded(cap);
            let mut first_eviction_at = None;
            for m in 1..=cap as u64 + 8 {
                let resident = cache.len();
                let op = OpSpec::gemm(8 * m, 64, 64);
                cache
                    .install(&op, &spec, "Gensor", build(&op, &spec))
                    .unwrap();
                if cache.stats().evictions > 0 && first_eviction_at.is_none() {
                    first_eviction_at = Some(resident);
                }
                assert!(cache.len() <= cap, "cap {cap}: {} resident", cache.len());
            }
            assert_eq!(cache.len(), cap, "cap {cap} holds exactly its cap");
            assert_eq!(first_eviction_at, Some(cap), "cap {cap}: first eviction");
            assert_eq!(cache.stats().evictions, 8);
        }
    }

    /// The hit count of one request stream under a cap is a function of
    /// the stream, not of where the keys' hashes land.
    #[test]
    fn hit_count_under_a_cap_does_not_depend_on_key_values() {
        let spec = GpuSpec::rtx4090();
        let mut counts = Vec::new();
        for k in [64u64, 72, 80, 96] {
            let cache = ScheduleCache::in_memory_bounded(16);
            let mut state = 0x9e37_79b9_7f4a_7c15u64;
            for _ in 0..2_000 {
                // xorshift64*; a rank skewed towards 0 over 64 shapes.
                state ^= state >> 12;
                state ^= state << 25;
                state ^= state >> 27;
                let u =
                    (state.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 11) as f64 / (1u64 << 53) as f64;
                let r = (u * u * 64.0) as u64;
                fill(&cache, &OpSpec::gemm(8 * (r + 1), k, 64), &spec);
            }
            counts.push(cache.stats().hits);
        }
        assert!(
            counts.iter().all(|&c| c == counts[0]),
            "hits per k: {counts:?}"
        );
        assert_eq!(counts[0], 720, "exact LRU over this stream");
    }

    #[test]
    fn misses_with_seeds_count_as_warm_starts() {
        let spec = GpuSpec::rtx4090();
        let cache = ScheduleCache::in_memory();
        let a = OpSpec::gemm(512, 512, 512);
        let b = OpSpec::gemm(1024, 512, 512);
        cache
            .get_or_compile(&a, &spec, "Gensor", |seeds| {
                assert!(seeds.is_empty(), "first compile is cold");
                build(&a, &spec)
            })
            .unwrap();
        cache
            .get_or_compile(&b, &spec, "Gensor", |seeds| {
                assert_eq!(seeds.len(), 1, "second compile sees the first");
                build(&b, &spec)
            })
            .unwrap();
        let s = cache.stats();
        assert_eq!(s.warm_starts, 1);
        assert_eq!(s.misses, 2);
    }

    #[test]
    fn persists_across_reopen() {
        let path = tmpfile("reopen");
        let _ = std::fs::remove_file(&path);
        let spec = GpuSpec::rtx4090();
        let op = OpSpec::gemm(768, 256, 256);
        let first = {
            let cache = ScheduleCache::open(&path).unwrap();
            let (k, o) = fill(&cache, &op, &spec);
            assert_eq!(o, Outcome::Built);
            k.etir.clone()
        };
        let cache = ScheduleCache::open(&path).unwrap();
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.stats().loaded_from_disk, 1);
        let (k, o) = cache
            .get_or_compile(&op, &spec, "Gensor", |_| {
                panic!("must not rebuild a persisted schedule")
            })
            .unwrap();
        assert_eq!(o, Outcome::Hit);
        assert_eq!(k.etir, first);
        // The first hit proved the record for this device; later hits
        // do not ask the verdict cache again.
        let verdicts = |s: StatsSnapshot| s.verdict_hits + s.verdict_misses;
        let before = verdicts(cache.stats());
        assert!(cache.lookup(&op, &spec, "Gensor").unwrap().is_ok());
        assert_eq!(verdicts(cache.stats()), before);
    }

    #[test]
    fn a_superseded_store_line_leaves_one_entry_and_one_seed() {
        let path = tmpfile("superseded");
        let _ = std::fs::remove_file(&path);
        let spec = GpuSpec::rtx4090();
        fill(
            &ScheduleCache::open(&path).unwrap(),
            &OpSpec::gemm(768, 256, 256),
            &spec,
        );
        let body = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, format!("{body}{body}")).unwrap();
        let cache = ScheduleCache::open(&path).unwrap();
        assert_eq!(cache.len(), 1);
        let seeds = cache.neighbours(&OpSpec::gemm(1024, 256, 256), &spec, usize::MAX);
        assert_eq!(seeds.len(), 1, "one resident key, one seed");
        let keys: Vec<CacheKey> = (0..DIGEST_SHARDS)
            .flat_map(|i| cache.keys_in_shard(i))
            .collect();
        assert_eq!(cache.export(&keys).len(), 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn verdict_sidecar_warms_reopen_verification() {
        let path = tmpfile("verdict-sidecar");
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(VerdictCache::sidecar(&path));
        let spec = GpuSpec::rtx4090();
        let op = OpSpec::gemm(640, 256, 256);
        {
            let cache = ScheduleCache::open(&path).unwrap();
            fill(&cache, &op, &spec);
            cache.flush().unwrap();
        }
        {
            // First reopen: the record's spec-less load verdict is not
            // cached yet — the admission check runs cold, then persists.
            let cache = ScheduleCache::open(&path).unwrap();
            assert_eq!(cache.len(), 1);
            let s = cache.stats();
            assert_eq!((s.verdict_hits, s.verdict_misses), (0, 1), "{s:?}");
            cache.flush().unwrap();
        }
        // Second reopen: the load-time re-proof is a verdict-cache hit.
        let cache = ScheduleCache::open(&path).unwrap();
        let s = cache.stats();
        assert_eq!((s.verdict_hits, s.verdict_misses), (1, 0), "{s:?}");
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(VerdictCache::sidecar(&path));
    }

    #[test]
    fn corrupted_store_record_is_rejected_not_served() {
        let path = tmpfile("verify-reject");
        let _ = std::fs::remove_file(&path);
        let spec = GpuSpec::rtx4090();
        let op = OpSpec::gemm(512, 512, 512);
        // Hand-craft a record that parses fine but encodes an illegal
        // schedule (zero vthreads), as bit rot or a foreign writer could.
        {
            let store = Store::open(&path);
            let mut kernel = build(&op, &spec);
            kernel.etir.vthreads[0] = 0;
            let key = CacheKey::new(&op, &spec, "Gensor");
            let rec = store::record(key, op.label(), "Gensor", &kernel);
            store.append(&rec).unwrap();
        }
        let cache = ScheduleCache::open(&path).unwrap();
        assert_eq!(cache.len(), 0, "illegal record must not become resident");
        let s = cache.stats();
        assert_eq!(s.verifier_rejected, 1);
        assert_eq!(s.corrupt_lines, 0, "the line itself parsed fine");
        // The poisoned entry is never served: the request reruns the
        // construction and the verified path hands back a legal kernel.
        let (k, o) = cache
            .get_or_compile(&op, &spec, "Gensor", |_| build(&op, &spec))
            .expect("fresh build is legal");
        assert_eq!(o, Outcome::Built);
        assert!(k.etir.vthreads.iter().all(|&v| v > 0));
    }

    #[test]
    fn verified_path_rejects_an_illegal_build_with_a_typed_report() {
        let spec = GpuSpec::rtx4090();
        let cache = ScheduleCache::in_memory();
        let op = OpSpec::gemm(256, 256, 256);
        let err = cache
            .get_or_compile(&op, &spec, "Gensor", |_| {
                let mut k = build(&op, &spec);
                k.etir.reg_tile[0] = 3; // breaks tile divisibility
                k
            })
            .expect_err("illegal build must be rejected");
        assert!(err.0.error_count() > 0);
        assert!(err.to_string().contains("rejected"));
        assert_eq!(cache.stats().verifier_rejected, 1);
        // The reject was never offered as a warm-start seed, and does not
        // stay resident to answer the next request as a hit.
        assert!(cache
            .neighbours(&OpSpec::gemm(320, 256, 256), &spec, 4)
            .is_empty());
        assert!(cache.peek(&op, &spec, "Gensor").is_none());
    }

    /// The invariant, not the call sites: whichever way an illegal
    /// schedule arrives, the caller gets the typed report, exactly one
    /// reject is counted, and the cache — resident set, digest, neighbour
    /// seeds, store file — is what it was before.
    #[test]
    fn every_way_in_refuses_an_illegal_schedule_and_leaves_no_trace() {
        let spec = GpuSpec::orin_nano();
        let path = tmpfile("every-way-in");
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(VerdictCache::sidecar(&path));
        let stored = OpSpec::gemm(4096, 4096, 4096);
        let key = |op: &OpSpec| CacheKey::new(op, &spec, "Gensor");
        {
            // Parses, and is structurally sound, but its tile is far
            // beyond this device's shared memory.
            let mut fat = build(&stored, &spec);
            fat.etir.smem_tile = [512, 512].into();
            fat.etir.reduce_tile = [64].into();
            let rec = store::record(key(&stored), stored.label(), "Gensor", &fat);
            Store::open(&path).append(&rec).unwrap();
        }
        let cache = ScheduleCache::open(&path).unwrap();
        let good = OpSpec::gemm(512, 256, 256);
        fill(&cache, &good, &spec);

        let probe = OpSpec::gemm(384, 256, 256);
        let illegal = |op: &OpSpec| {
            let mut k = build(op, &spec);
            k.etir.reg_tile[0] = 3; // breaks tile divisibility
            k
        };
        let (a, b, c) = (
            OpSpec::gemm(256, 256, 256),
            OpSpec::gemm(192, 192, 192),
            OpSpec::gemm(128, 128, 128),
        );
        let state = || {
            (
                cache.len(),
                cache.digest(),
                cache.neighbours(&probe, &spec, usize::MAX),
                std::fs::read(&path).unwrap(),
            )
        };
        let refused = |way: &str, enter: &dyn Fn() -> Result<bool, verify::Rejected>| {
            let (rejected, before) = (cache.stats().verifier_rejected, state());
            let err = enter().expect_err(way);
            assert!(err.0.error_count() > 0, "{way}: typed report");
            assert_eq!(
                cache.stats().verifier_rejected,
                rejected + 1,
                "{way}: exactly one reject counted"
            );
            assert!(state() == before, "{way}: cache changed");
        };
        let ask_for_record = || {
            cache
                .get_or_compile(&stored, &spec, "Gensor", |_| panic!("record is resident"))
                .map(|_| true)
        };
        refused("store record", &ask_for_record);
        refused("store record, asked again", &ask_for_record);
        refused("install", &|| {
            cache.install(&a, &spec, "Gensor", illegal(&a))
        });
        refused("install_raw", &|| {
            cache.install_raw(CacheEntry {
                key: key(&b),
                op_label: b.label(),
                method: "Gensor".into(),
                kernel: illegal(&b),
            })
        });
        refused("builder", &|| {
            cache
                .get_or_compile(&c, &spec, "Gensor", |_| illegal(&c))
                .map(|_| true)
        });
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(VerdictCache::sidecar(&path));
    }

    #[test]
    fn install_banks_a_replicated_kernel_and_peek_sees_it() {
        let spec = GpuSpec::rtx4090();
        let cache = ScheduleCache::in_memory();
        let op = OpSpec::gemm(384, 384, 384);
        assert!(cache.peek(&op, &spec, "Gensor").is_none());
        let fresh = cache
            .install(&op, &spec, "Gensor", build(&op, &spec))
            .unwrap();
        assert!(fresh, "first install is admitted");
        assert!(cache.peek(&op, &spec, "Gensor").is_some());
        // A second install of the same key reports the replica was
        // already up to date and changes nothing.
        let again = cache
            .install(&op, &spec, "Gensor", build(&op, &spec))
            .unwrap();
        assert!(!again);
        // The installed kernel answers as a hit, not a rebuild.
        let (_, o) = cache
            .get_or_compile(&op, &spec, "Gensor", |_| {
                panic!("installed kernel must hit")
            })
            .unwrap();
        assert_eq!(o, Outcome::Hit);
    }

    #[test]
    fn install_refuses_an_illegal_kernel() {
        let spec = GpuSpec::rtx4090();
        let cache = ScheduleCache::in_memory();
        let op = OpSpec::gemm(256, 256, 256);
        let mut bad = build(&op, &spec);
        bad.etir.vthreads[0] = 0;
        let err = cache
            .install(&op, &spec, "Gensor", bad)
            .expect_err("illegal replica must be refused");
        assert!(err.0.error_count() > 0);
        assert!(cache.peek(&op, &spec, "Gensor").is_none());
        assert_eq!(cache.stats().verifier_rejected, 1);
    }

    #[test]
    fn a_one_key_digest_is_pinned() {
        // Digests travel between daemons of different builds: a key's
        // term must never move.
        let cache = ScheduleCache::in_memory();
        fill(&cache, &OpSpec::gemm(1024, 512, 512), &GpuSpec::rtx4090());
        assert_eq!(cache.digest().root, 0x486f_fc67_3ea3_2b77);
    }

    #[test]
    fn digest_tracks_the_key_set_and_repair_round_trips() {
        let spec = GpuSpec::rtx4090();
        let a = ScheduleCache::in_memory();
        let b = ScheduleCache::in_memory();
        let empty = a.digest();
        assert_eq!(empty.count, 0);
        assert_eq!(empty.root, 0);
        assert_eq!(empty, b.digest(), "empty caches agree");

        let ops: Vec<OpSpec> = [256u64, 512, 1024]
            .iter()
            .map(|&m| OpSpec::gemm(m, 256, 256))
            .collect();
        for op in &ops {
            fill(&a, op, &spec);
        }
        let da = a.digest();
        assert_eq!(da.count, 3);
        assert_ne!(da, b.digest());

        // Diff the diverging shards, export from a, install raw into b —
        // exactly what anti-entropy repair does over the wire.
        let db = b.digest();
        let mut pulled = Vec::new();
        for shard in da.diverging_shards(&db) {
            pulled.extend(a.keys_in_shard(shard));
        }
        assert_eq!(pulled.len(), 3, "every key lives in a diverging shard");
        let mut installed = 0;
        for entry in a.export(&pulled) {
            assert_eq!(entry.method, "Gensor");
            if b.install_raw(entry).unwrap() {
                installed += 1;
            }
        }
        assert_eq!(installed, 3);
        assert_eq!(a.digest(), b.digest(), "repair converges to equality");
        // The repaired entries answer as hits and survive re-export.
        for op in &ops {
            let (_, o) = b
                .get_or_compile(op, &spec, "Gensor", |_| panic!("repaired entry must hit"))
                .unwrap();
            assert_eq!(o, Outcome::Hit);
        }
        // A second raw install of the same entries is a no-op.
        for entry in a.export(&pulled) {
            assert!(!b.install_raw(entry).unwrap());
        }
    }

    #[test]
    fn install_raw_refuses_an_illegal_kernel() {
        let spec = GpuSpec::rtx4090();
        let cache = ScheduleCache::in_memory();
        let op = OpSpec::gemm(192, 192, 192);
        let mut bad = build(&op, &spec);
        bad.etir.vthreads[0] = 0;
        let key = CacheKey::new(&op, &spec, "Gensor");
        let err = cache
            .install_raw(CacheEntry {
                key,
                op_label: op.label(),
                method: "Gensor".into(),
                kernel: bad,
            })
            .expect_err("illegal repaired entry must be refused");
        assert!(err.0.error_count() > 0);
        assert_eq!(cache.digest().count, 0);
        assert_eq!(cache.stats().verifier_rejected, 1);
    }

    #[test]
    fn methods_do_not_share_entries() {
        let spec = GpuSpec::rtx4090();
        let cache = ScheduleCache::in_memory();
        let op = OpSpec::gemm(512, 512, 512);
        let builds = AtomicU64::new(0);
        for method in ["Gensor", "Roller"] {
            cache
                .get_or_compile(&op, &spec, method, |_| {
                    builds.fetch_add(1, Ordering::SeqCst);
                    build(&op, &spec)
                })
                .unwrap();
        }
        assert_eq!(builds.load(Ordering::SeqCst), 2);
        assert_eq!(cache.len(), 2);
    }
}
