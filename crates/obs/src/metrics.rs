//! The process-global metrics registry: counters, gauges, and fixed-bucket
//! microsecond histograms, keyed by Prometheus-style names
//! (`gensor_<crate>_<name>`, DESIGN §10).
//!
//! Registration is get-or-create: the first `counter("x", help)` call
//! creates the metric, later calls return the same handle. Callers on hot
//! paths cache the `Arc` in a `OnceLock` (the `counter_inc!` /
//! `counter_add!` / `histogram_record_us!` macros do this), so steady-state
//! cost is one relaxed atomic op — registration never sits on a hot path.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// A monotonically increasing counter.
#[derive(Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Add 1.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A settable signed gauge.
#[derive(Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// Set the value.
    #[inline]
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Add `d` (may be negative).
    #[inline]
    pub fn add(&self, d: i64) {
        self.0.fetch_add(d, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Histogram bucket upper bounds, microseconds (log-spaced ~2.5×), shared
/// with `served`'s wire histogram so daemon and process views agree; an
/// implicit overflow bucket catches everything slower than 10 s.
pub const BUCKET_BOUNDS_US: [u64; 17] = [
    50, 100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000, 250_000, 500_000,
    1_000_000, 2_500_000, 5_000_000, 10_000_000,
];

/// Wait-free fixed-bucket microsecond histogram: recording is two relaxed
/// atomic adds; quantiles are answered as the containing bucket's upper
/// bound (the overflow bucket reports 2× the last bound).
pub struct Histogram {
    counts: [AtomicU64; BUCKET_BOUNDS_US.len() + 1],
    sum_us: AtomicU64,
    total: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
            sum_us: AtomicU64::new(0),
            total: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// Record one observation of `us` microseconds.
    #[inline]
    pub fn record_us(&self, us: u64) {
        let idx = BUCKET_BOUNDS_US
            .iter()
            .position(|&b| us <= b)
            .unwrap_or(BUCKET_BOUNDS_US.len());
        self.counts[idx].fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(us, Ordering::Relaxed);
        self.total.fetch_add(1, Ordering::Relaxed);
    }

    /// Observations recorded.
    pub fn count(&self) -> u64 {
        self.total.load(Ordering::Relaxed)
    }

    /// Sum of all observations, microseconds.
    pub fn sum_us(&self) -> u64 {
        self.sum_us.load(Ordering::Relaxed)
    }

    /// Upper bound (µs) of the bucket containing quantile `q` ∈ [0, 1];
    /// 0 when empty.
    pub fn quantile_us(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0;
        for (i, c) in self.counts.iter().enumerate() {
            seen += c.load(Ordering::Relaxed);
            if seen >= rank {
                return BUCKET_BOUNDS_US
                    .get(i)
                    .copied()
                    .unwrap_or(2 * BUCKET_BOUNDS_US[BUCKET_BOUNDS_US.len() - 1]);
            }
        }
        2 * BUCKET_BOUNDS_US[BUCKET_BOUNDS_US.len() - 1]
    }

    /// Per-bucket counts (non-cumulative), overflow bucket last.
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.counts
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect()
    }
}

enum Handle {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

impl Handle {
    fn kind(&self) -> &'static str {
        match self {
            Handle::Counter(_) => "counter",
            Handle::Gauge(_) => "gauge",
            Handle::Histogram(_) => "histogram",
        }
    }
}

struct Entry {
    help: String,
    handle: Handle,
}

fn registry() -> &'static Mutex<BTreeMap<String, Entry>> {
    static REG: OnceLock<Mutex<BTreeMap<String, Entry>>> = OnceLock::new();
    REG.get_or_init(|| Mutex::new(BTreeMap::new()))
}

fn get_or_register<T, F, G>(name: &str, help: &str, make: F, extract: G) -> Arc<T>
where
    F: FnOnce() -> Handle,
    G: FnOnce(&Handle) -> Option<Arc<T>>,
{
    let mut reg = registry().lock().unwrap_or_else(|p| p.into_inner());
    let entry = reg.entry(name.to_string()).or_insert_with(|| Entry {
        help: help.to_string(),
        handle: make(),
    });
    extract(&entry.handle).unwrap_or_else(|| {
        panic!(
            "metric '{name}' already registered as a {}",
            entry.handle.kind()
        )
    })
}

/// Get or register the counter `name`.
pub fn counter(name: &str, help: &str) -> Arc<Counter> {
    get_or_register(
        name,
        help,
        || Handle::Counter(Arc::new(Counter::default())),
        |h| match h {
            Handle::Counter(c) => Some(c.clone()),
            _ => None,
        },
    )
}

/// Get or register the gauge `name`.
pub fn gauge(name: &str, help: &str) -> Arc<Gauge> {
    get_or_register(
        name,
        help,
        || Handle::Gauge(Arc::new(Gauge::default())),
        |h| match h {
            Handle::Gauge(g) => Some(g.clone()),
            _ => None,
        },
    )
}

/// Get or register the microsecond histogram `name`.
pub fn histogram_us(name: &str, help: &str) -> Arc<Histogram> {
    get_or_register(
        name,
        help,
        || Handle::Histogram(Arc::new(Histogram::default())),
        |h| match h {
            Handle::Histogram(h) => Some(h.clone()),
            _ => None,
        },
    )
}

/// A metric's point-in-time value, for exporters.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// Counter value.
    Counter(u64),
    /// Gauge value.
    Gauge(i64),
    /// Histogram: cumulative `(le_us, count)` rows (overflow row has
    /// `le_us = u64::MAX`), total sum in µs, and observation count.
    Histogram {
        /// Cumulative bucket rows.
        cumulative: Vec<(u64, u64)>,
        /// Σ observations, µs.
        sum_us: u64,
        /// Number of observations.
        count: u64,
    },
}

/// One registered metric's snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSnapshot {
    /// Registered name (`gensor_<crate>_<name>`).
    pub name: String,
    /// Help text from registration.
    pub help: String,
    /// Current value.
    pub value: MetricValue,
}

/// Snapshot every registered metric, sorted by name.
pub fn snapshot() -> Vec<MetricSnapshot> {
    let reg = registry().lock().unwrap_or_else(|p| p.into_inner());
    reg.iter()
        .map(|(name, e)| {
            let value = match &e.handle {
                Handle::Counter(c) => MetricValue::Counter(c.get()),
                Handle::Gauge(g) => MetricValue::Gauge(g.get()),
                Handle::Histogram(h) => {
                    let mut cumulative = Vec::with_capacity(BUCKET_BOUNDS_US.len() + 1);
                    let mut acc = 0;
                    for (i, c) in h.bucket_counts().into_iter().enumerate() {
                        acc += c;
                        let le = BUCKET_BOUNDS_US.get(i).copied().unwrap_or(u64::MAX);
                        cumulative.push((le, acc));
                    }
                    MetricValue::Histogram {
                        cumulative,
                        sum_us: h.sum_us(),
                        count: h.count(),
                    }
                }
            };
            MetricSnapshot {
                name: name.clone(),
                help: e.help.clone(),
                value,
            }
        })
        .collect()
}

/// Quantile over cumulative `(le_us, count)` histogram rows (the
/// [`MetricValue::Histogram`] shape, also what the Prometheus parser
/// reconstructs): the upper bound of the bucket containing rank
/// `ceil(q·count)`, 0 when empty. Shared by the flight recorder and the
/// fleet metrics aggregator so single-process and merged quantiles agree.
pub fn quantile_from_cumulative(cumulative: &[(u64, u64)], count: u64, q: f64) -> u64 {
    if count == 0 {
        return 0;
    }
    let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
    // The overflow bucket has no upper bound; report 2× the last finite
    // bound *of this cumulative* (a parsed scrape may carry a different
    // ladder than the live registry's).
    let overflow = 2 * cumulative
        .iter()
        .rev()
        .find(|(le, _)| *le != u64::MAX)
        .map(|(le, _)| *le)
        .unwrap_or(BUCKET_BOUNDS_US[BUCKET_BOUNDS_US.len() - 1]);
    for (le, acc) in cumulative {
        if *acc >= rank {
            return if *le == u64::MAX { overflow } else { *le };
        }
    }
    overflow
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_are_shared_by_name() {
        let a = counter("obs_test_shared_total", "test");
        let b = counter("obs_test_shared_total", "test");
        let before = a.get();
        b.inc();
        b.add(2);
        assert_eq!(a.get(), before + 3);
    }

    #[test]
    fn gauges_set_and_add() {
        let g = gauge("obs_test_gauge", "test");
        g.set(5);
        g.add(-2);
        assert_eq!(g.get(), 3);
    }

    #[test]
    fn histogram_quantiles_match_serveds_semantics() {
        let h = histogram_us("obs_test_hist_us", "test");
        for _ in 0..98 {
            h.record_us(80);
        }
        h.record_us(40_000);
        h.record_us(20_000_000);
        assert_eq!(h.count(), 100);
        assert_eq!(h.quantile_us(0.50), 100);
        assert_eq!(h.quantile_us(0.99), 50_000);
        assert_eq!(h.quantile_us(1.0), 20_000_000);
        assert_eq!(h.sum_us(), 98 * 80 + 40_000 + 20_000_000);
    }

    #[test]
    fn cumulative_quantiles_match_the_live_histogram() {
        let h = histogram_us("obs_test_cumulative_q_us", "test");
        for _ in 0..98 {
            h.record_us(80);
        }
        h.record_us(40_000);
        h.record_us(20_000_000);
        let mut cumulative = Vec::new();
        let mut acc = 0;
        for (i, c) in h.bucket_counts().into_iter().enumerate() {
            acc += c;
            cumulative.push((BUCKET_BOUNDS_US.get(i).copied().unwrap_or(u64::MAX), acc));
        }
        for q in [0.5, 0.99, 1.0] {
            assert_eq!(
                quantile_from_cumulative(&cumulative, h.count(), q),
                h.quantile_us(q),
                "q={q}"
            );
        }
        assert_eq!(quantile_from_cumulative(&[], 0, 0.5), 0);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_clash_panics() {
        counter("obs_test_clash", "test");
        gauge("obs_test_clash", "test");
    }

    #[test]
    fn snapshot_is_sorted_and_carries_help() {
        counter("obs_test_zz_total", "the zz counter");
        counter("obs_test_aa_total", "the aa counter");
        let snap = snapshot();
        let names: Vec<&str> = snap.iter().map(|m| m.name.as_str()).collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted);
        let aa = snap.iter().find(|m| m.name == "obs_test_aa_total").unwrap();
        assert_eq!(aa.help, "the aa counter");
    }
}
