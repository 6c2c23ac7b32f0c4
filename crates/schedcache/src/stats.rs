//! Cache observability: counters and compile-latency percentiles.
//!
//! Every interesting event — hit, miss, dedup-collapse, warm start, disk
//! load, corrupt line — is counted, and every *actual* construction's wall
//! time lands in a fixed-bucket [`obs::Histogram`] (no per-sample storage,
//! however long the daemon lives) so `snapshot()` can report p50/p90/p99
//! compile latency alongside the tuning seconds that hits avoided.

use crate::store::LoadReport;
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

#[derive(Default, Clone, Copy)]
struct Inner {
    hits: u64,
    misses: u64,
    coalesced: u64,
    warm_starts: u64,
    loaded_from_disk: u64,
    corrupt_lines: u64,
    version_skipped: u64,
    recovered_truncated: u64,
    verifier_rejected: u64,
    compactions: u64,
    saved_tuning_s: f64,
}

/// Thread-safe event counters for one cache.
#[derive(Default)]
pub struct Stats {
    inner: Mutex<Inner>,
    /// Wall time of every construction run (one observation per miss).
    compile_us: obs::Histogram,
}

/// Point-in-time view of the counters, serializable for `gensor cache`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StatsSnapshot {
    /// Requests answered from memory.
    pub hits: u64,
    /// Requests that ran a construction.
    pub misses: u64,
    /// Requests that waited on another thread's in-flight construction
    /// (dedup-collapsed).
    pub coalesced: u64,
    /// Misses that were seeded from cached neighbour schedules.
    pub warm_starts: u64,
    /// Records seeded from the persistent store at open time.
    pub loaded_from_disk: u64,
    /// Store lines skipped as corrupt at open time.
    pub corrupt_lines: u64,
    /// Store lines skipped as written by another format version.
    pub version_skipped: u64,
    /// Torn-tail lines dropped at open time by truncating the store back
    /// to its last valid record (crash-mid-append recovery).
    pub recovered_truncated: u64,
    /// Schedules the static verifier refused — a parseable store record
    /// whose schedule is illegal, or a builder result that failed
    /// re-verification. Counted, never loaded, banked, or served.
    pub verifier_rejected: u64,
    /// Resident schedules evicted by the in-memory LRU bound (0 when the
    /// cache is unbounded; filled in by `ScheduleCache::stats`).
    pub evictions: u64,
    /// Verifications answered from the incremental verdict cache without
    /// re-running the pipeline (filled in by `ScheduleCache::stats`).
    pub verdict_hits: u64,
    /// Verifications that ran the full pipeline (filled in by
    /// `ScheduleCache::stats`).
    pub verdict_misses: u64,
    /// Store compactions run (CLI `cache compact` or the daemon's
    /// size-threshold trigger).
    pub compactions: u64,
    /// Tuning seconds that hits avoided re-spending.
    pub saved_tuning_s: f64,
    /// Constructions actually run (size of the latency sample).
    pub compiles: u64,
    /// Median construction wall time, seconds (upper bound of the
    /// containing [`obs::Histogram`] bucket, like the two below).
    pub compile_p50_s: f64,
    /// 90th-percentile construction wall time, seconds.
    pub compile_p90_s: f64,
    /// 99th-percentile construction wall time, seconds.
    pub compile_p99_s: f64,
}

impl Stats {
    /// Count a memory hit that avoided `saved_s` seconds of tuning.
    pub fn record_hit(&self, saved_s: f64) {
        obs::counter_inc!("gensor_cache_hits_total", "Requests answered from memory");
        let mut g = self.inner.lock();
        g.hits += 1;
        g.saved_tuning_s += saved_s;
    }

    /// Count a construction (a miss); `warm` if neighbour seeds were used.
    pub fn record_miss(&self, latency_s: f64, warm: bool) {
        obs::counter_inc!(
            "gensor_cache_misses_total",
            "Requests that ran a construction"
        );
        if warm {
            obs::counter_inc!(
                "gensor_cache_warm_starts_total",
                "Misses seeded from cached neighbour schedules"
            );
        }
        let latency_us = (latency_s * 1e6) as u64;
        obs::histogram_record_us!(
            "gensor_cache_compile_us",
            "Construction wall time on cache misses",
            latency_us
        );
        self.compile_us.record_us(latency_us);
        let mut g = self.inner.lock();
        g.misses += 1;
        if warm {
            g.warm_starts += 1;
        }
    }

    /// Count a request collapsed onto another thread's in-flight build.
    pub fn record_coalesced(&self) {
        obs::counter_inc!(
            "gensor_cache_coalesced_total",
            "Requests collapsed onto an in-flight construction"
        );
        self.inner.lock().coalesced += 1;
    }

    /// Count a schedule the static verifier refused to load, bank, or
    /// serve.
    pub fn record_rejected(&self) {
        obs::counter_inc!(
            "gensor_cache_verifier_rejected_total",
            "Schedules the static verifier refused to load, bank, or serve"
        );
        self.inner.lock().verifier_rejected += 1;
    }

    /// Count one store compaction.
    pub fn record_compaction(&self) {
        obs::counter_inc!(
            "gensor_cache_compactions_total",
            "JSONL store compactions run"
        );
        self.inner.lock().compactions += 1;
    }

    /// Absorb a [`LoadReport`] from opening the persistent store.
    pub fn record_load(&self, report: &LoadReport) {
        if report.recovered_truncated > 0 {
            obs::counter(
                "gensor_cache_recovered_truncated_total",
                "Torn-tail store lines dropped by crash recovery at load",
            )
            .add(report.recovered_truncated as u64);
        }
        let mut g = self.inner.lock();
        g.loaded_from_disk += report.loaded as u64;
        g.corrupt_lines += report.corrupt as u64;
        g.version_skipped += report.version_skipped as u64;
        g.recovered_truncated += report.recovered_truncated as u64;
    }

    /// Current counters and latency percentiles.
    pub fn snapshot(&self) -> StatsSnapshot {
        let g = self.inner.lock();
        let pct = |q: f64| self.compile_us.quantile_us(q) as f64 / 1e6;
        StatsSnapshot {
            hits: g.hits,
            misses: g.misses,
            coalesced: g.coalesced,
            warm_starts: g.warm_starts,
            loaded_from_disk: g.loaded_from_disk,
            corrupt_lines: g.corrupt_lines,
            version_skipped: g.version_skipped,
            recovered_truncated: g.recovered_truncated,
            verifier_rejected: g.verifier_rejected,
            evictions: 0,
            verdict_hits: 0,
            verdict_misses: 0,
            compactions: g.compactions,
            saved_tuning_s: g.saved_tuning_s,
            compiles: self.compile_us.count(),
            compile_p50_s: pct(0.50),
            compile_p90_s: pct(0.90),
            compile_p99_s: pct(0.99),
        }
    }
}

impl StatsSnapshot {
    /// Hit fraction over answered requests (hits + coalesced + misses).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.coalesced + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let s = Stats::default();
        s.record_miss(0.4, false);
        s.record_miss(0.2, true);
        s.record_hit(0.6);
        s.record_hit(0.6);
        s.record_coalesced();
        s.record_rejected();
        let snap = s.snapshot();
        assert_eq!(snap.verifier_rejected, 1);
        assert_eq!(snap.misses, 2);
        assert_eq!(snap.warm_starts, 1);
        assert_eq!(snap.hits, 2);
        assert_eq!(snap.coalesced, 1);
        assert_eq!(snap.compiles, 2);
        assert!((snap.saved_tuning_s - 1.2).abs() < 1e-12);
        assert_eq!(snap.hit_rate(), 0.4);
    }

    #[test]
    fn percentiles_are_the_containing_buckets_upper_bound() {
        let s = Stats::default();
        for latency in [0.5, 0.1, 0.3, 0.2, 0.4] {
            s.record_miss(latency, false);
        }
        let snap = s.snapshot();
        assert_eq!(snap.compile_p50_s, 0.5, "0.3 s lands in the ≤500 ms bucket");
        assert_eq!(snap.compile_p99_s, 0.5);
    }

    #[test]
    fn a_long_lived_cache_holds_no_per_sample_storage() {
        // Beside the fixed-bucket histogram, everything `Stats` owns is
        // `Copy` — plain counters, nothing that can grow with the sample.
        fn plain_counters<T: Copy>() {}
        plain_counters::<Inner>();
        let s = Stats::default();
        for i in 0..100_000u64 {
            s.record_miss((i % 1000) as f64 * 1e-5, false);
        }
        let snap = s.snapshot();
        assert_eq!((snap.misses, snap.compiles), (100_000, 100_000));
        assert_eq!(snap.compile_p50_s, 0.005, "median 5 ms: the ≤5 ms bucket");
        assert_eq!(snap.compile_p99_s, 0.01);
    }

    #[test]
    fn empty_stats_snapshot_is_all_zero() {
        let snap = Stats::default().snapshot();
        assert_eq!(snap.hits + snap.misses + snap.compiles, 0);
        assert_eq!(snap.compile_p50_s, 0.0);
        assert_eq!(snap.hit_rate(), 0.0);
    }
}
