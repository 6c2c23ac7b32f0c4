//! Server-side observability: request counters and request-latency
//! histograms.
//!
//! The histograms are [`obs::Histogram`]s — wait-free fixed log-spaced
//! buckets, percentiles reported as the upper bound of the bucket
//! containing the quantile (an over-estimate by at most one bucket width,
//! which is what you want from an SLO number).

use crate::proto::WireOutcome;
use obs::Histogram;
use schedcache::StatsSnapshot;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Live counters for one server instance.
#[derive(Default)]
pub struct Metrics {
    pub connections: AtomicU64,
    pub requests: AtomicU64,
    pub compiles: AtomicU64,
    pub hits: AtomicU64,
    pub misses: AtomicU64,
    pub coalesced: AtomicU64,
    pub shed: AtomicU64,
    pub deadline_expired: AtomicU64,
    pub proto_errors: AtomicU64,
    pub worker_panics: AtomicU64,
    pub auth_failures: AtomicU64,
    pub puts: AtomicU64,
    pub latency: Histogram,
    pub queue: Histogram,
    pub service: Histogram,
}

impl Metrics {
    /// Count a compile answered with `outcome` after waiting `queue_us`
    /// microseconds for its build thread to start (0 for a hit, answered
    /// on the connection's thread) and spending `service_us` microseconds
    /// answering. Total request latency is the sum; the two components get
    /// their own histograms so `serve-stats` can tell thread start-up
    /// (queue) from construction (service).
    pub fn record_compile(&self, outcome: WireOutcome, queue_us: u64, service_us: u64) {
        self.compiles.fetch_add(1, Ordering::Relaxed);
        match outcome {
            WireOutcome::Built => &self.misses,
            WireOutcome::Hit => &self.hits,
            WireOutcome::Coalesced => &self.coalesced,
        }
        .fetch_add(1, Ordering::Relaxed);
        self.latency.record_us(queue_us + service_us);
        self.queue.record_us(queue_us);
        self.service.record_us(service_us);
        obs::histogram_record_us!(
            "gensor_serve_queue_us",
            "Time compile requests waited for a build thread to start",
            queue_us
        );
        obs::histogram_record_us!(
            "gensor_serve_service_us",
            "Time spent answering compile requests",
            service_us
        );
    }

    /// Point-in-time wire-format snapshot, merged with the shared cache's
    /// own counters and the daemon's configured peer list.
    pub fn snapshot(&self, started: Instant, cache: StatsSnapshot, peers: &[String]) -> ServeStats {
        let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
        ServeStats {
            uptime_s: started.elapsed().as_secs_f64(),
            connections: load(&self.connections),
            requests: load(&self.requests),
            compiles: load(&self.compiles),
            hits: load(&self.hits),
            misses: load(&self.misses),
            coalesced: load(&self.coalesced),
            shed: load(&self.shed),
            deadline_expired: load(&self.deadline_expired),
            proto_errors: load(&self.proto_errors),
            worker_panics: load(&self.worker_panics),
            auth_failures: load(&self.auth_failures),
            puts: load(&self.puts),
            peers: peers.to_vec(),
            latency_p50_us: self.latency.quantile_us(0.50),
            latency_p99_us: self.latency.quantile_us(0.99),
            queue_p50_us: self.queue.quantile_us(0.50),
            queue_p99_us: self.queue.quantile_us(0.99),
            service_p50_us: self.service.quantile_us(0.50),
            service_p99_us: self.service.quantile_us(0.99),
            cache,
        }
    }
}

/// Serializable server statistics (the `Stats` frame's payload).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeStats {
    /// Seconds since the server started.
    pub uptime_s: f64,
    /// Connections accepted.
    pub connections: u64,
    /// Frames dispatched (any kind).
    pub requests: u64,
    /// Compile requests answered (admitted, not shed).
    pub compiles: u64,
    /// Compiles answered from the resident cache.
    pub hits: u64,
    /// Compiles that ran a construction.
    pub misses: u64,
    /// Compiles collapsed onto another client's in-flight construction.
    pub coalesced: u64,
    /// Requests refused with `Busy` by the admission gate.
    pub shed: u64,
    /// Admitted requests that missed their deadline.
    pub deadline_expired: u64,
    /// Malformed/oversize/truncated frames seen.
    pub proto_errors: u64,
    /// Build panics caught and answered as typed `Internal` errors
    /// (the daemon itself survives).
    pub worker_panics: u64,
    /// Connections refused for a missing or wrong shared token.
    pub auth_failures: u64,
    /// Fabric `Put` frames answered (write-through / read-repair
    /// installs, whether admitted fresh or already resident).
    pub puts: u64,
    /// The daemon's configured fabric peers (`serve --peers`), verbatim.
    pub peers: Vec<String>,
    /// Median request latency, microseconds (bucket upper bound).
    pub latency_p50_us: u64,
    /// 99th-percentile request latency, microseconds (bucket upper bound).
    pub latency_p99_us: u64,
    /// Median time a compile waited for its build thread, microseconds.
    pub queue_p50_us: u64,
    /// 99th-percentile queue wait, microseconds.
    pub queue_p99_us: u64,
    /// Median time spent answering a compile, microseconds.
    pub service_p50_us: u64,
    /// 99th-percentile service time, microseconds.
    pub service_p99_us: u64,
    /// The shared schedule cache's own counters.
    pub cache: StatsSnapshot,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compile_outcomes_split_into_the_right_counters() {
        let m = Metrics::default();
        m.record_compile(WireOutcome::Built, 100, 800);
        m.record_compile(WireOutcome::Hit, 10, 20);
        m.record_compile(WireOutcome::Hit, 10, 30);
        m.record_compile(WireOutcome::Coalesced, 100, 600);
        let s = m.snapshot(
            Instant::now(),
            schedcache::ScheduleCache::in_memory().stats(),
            &[],
        );
        assert_eq!((s.compiles, s.misses, s.hits, s.coalesced), (4, 1, 2, 1));
        assert_eq!(
            s.latency_p50_us, 50,
            "two 30–40 µs hits pull the median down"
        );
        assert!(s.latency_p99_us >= 500);
    }

    #[test]
    fn queue_and_service_time_are_tracked_separately() {
        let m = Metrics::default();
        // A daemon whose queue is the bottleneck: long waits, fast service.
        m.record_compile(WireOutcome::Hit, 40_000, 60);
        m.record_compile(WireOutcome::Hit, 45_000, 70);
        m.record_compile(WireOutcome::Hit, 48_000, 90);
        let s = m.snapshot(
            Instant::now(),
            schedcache::ScheduleCache::in_memory().stats(),
            &[],
        );
        assert_eq!(s.queue_p50_us, 50_000, "waits land in the ≤50 ms bucket");
        assert_eq!(s.service_p50_us, 100, "service lands in the ≤100 µs bucket");
        // Total latency reflects the sum, not either component alone.
        assert!(s.latency_p50_us >= s.service_p50_us);
    }
}
