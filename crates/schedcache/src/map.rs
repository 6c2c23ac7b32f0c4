//! The in-memory tier: a sharded concurrent map with single-flight
//! deduplication and an optional LRU entry bound.
//!
//! * **Sharding** — keys are spread over [`SHARD_COUNT`] independent
//!   `RwLock<HashMap>` shards, so a hit on one operator never contends
//!   with a hit on another (the hit path takes one shard read lock).
//! * **Single-flight** — when N threads miss the same key concurrently,
//!   exactly one runs the (expensive, seconds-long) construction; the
//!   others block on the in-flight [`Flight`] and receive the same
//!   `Arc`'d result. If the builder panics, waiters are woken and one of
//!   them claims the build instead, so a crash never wedges a key.
//! * **LRU bound** — an optional entry cap (default: unbounded) keeps a
//!   daemon serving unbounded shape churn from growing without limit. The
//!   cap is enforced per shard (⌈cap / [`SHARD_COUNT`]⌉ entries each), so
//!   the bound is approximate under skewed key distributions; evicted keys
//!   are queued for the owner to reconcile its own indexes
//!   ([`ShardedMap::drain_evicted`]).

use crate::key::CacheKey;
use parking_lot::RwLock;
use simgpu::CompiledKernel;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// Number of shards (power of two; tuned for tens of threads).
pub const SHARD_COUNT: usize = 16;

/// How a `get_or_build` call was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// The key was already resident.
    Hit,
    /// This call ran the construction.
    Built,
    /// Another in-flight call ran it; this call waited and shared the
    /// result (a dedup-collapsed request).
    Coalesced,
}

/// An in-flight construction other threads can wait on.
struct Flight {
    state: Mutex<FlightState>,
    done: Condvar,
}

enum FlightState {
    Pending,
    Done(Arc<CompiledKernel>),
    Aborted,
}

impl Flight {
    fn new() -> Arc<Self> {
        Arc::new(Flight {
            state: Mutex::new(FlightState::Pending),
            done: Condvar::new(),
        })
    }

    /// Block until the owner finishes; `None` means the owner aborted
    /// (panicked) and the caller should retry the claim.
    fn wait(&self) -> Option<Arc<CompiledKernel>> {
        let mut state = self.state.lock().unwrap_or_else(|p| p.into_inner());
        loop {
            match &*state {
                FlightState::Pending => {
                    state = self.done.wait(state).unwrap_or_else(|p| p.into_inner());
                }
                FlightState::Done(k) => return Some(k.clone()),
                FlightState::Aborted => return None,
            }
        }
    }

    fn finish(&self, state: FlightState) {
        *self.state.lock().unwrap_or_else(|p| p.into_inner()) = state;
        self.done.notify_all();
    }
}

/// A resident schedule plus its recency stamp (for LRU eviction).
struct Ready {
    kernel: Arc<CompiledKernel>,
    last_used: AtomicU64,
}

enum Slot {
    Ready(Ready),
    Building(Arc<Flight>),
}

/// The sharded concurrent map.
pub struct ShardedMap {
    shards: Vec<RwLock<HashMap<CacheKey, Slot>>>,
    /// Per-shard entry cap; `None` means unbounded.
    cap_per_shard: Option<usize>,
    /// Global recency clock (monotone; one tick per touch).
    tick: AtomicU64,
    evictions: AtomicU64,
    /// Keys evicted since the last [`drain_evicted`] call, so the owning
    /// cache can prune its neighbour index.
    ///
    /// [`drain_evicted`]: ShardedMap::drain_evicted
    evicted: parking_lot::Mutex<Vec<CacheKey>>,
}

impl Default for ShardedMap {
    fn default() -> Self {
        Self::with_entry_cap(None)
    }
}

impl ShardedMap {
    /// A map bounded to roughly `cap` resident entries (`None`:
    /// unbounded). The bound is enforced per shard, so the worst-case
    /// resident count is `⌈cap / SHARD_COUNT⌉ · SHARD_COUNT`.
    pub fn with_entry_cap(cap: Option<usize>) -> Self {
        ShardedMap {
            shards: (0..SHARD_COUNT)
                .map(|_| RwLock::new(HashMap::new()))
                .collect(),
            cap_per_shard: cap.map(|c| c.div_ceil(SHARD_COUNT).max(1)),
            tick: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            evicted: parking_lot::Mutex::new(Vec::new()),
        }
    }

    fn shard(&self, key: &CacheKey) -> &RwLock<HashMap<CacheKey, Slot>> {
        &self.shards[key.shard(SHARD_COUNT)]
    }

    fn next_tick(&self) -> u64 {
        self.tick.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Resident entries across all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                s.read()
                    .values()
                    .filter(|v| matches!(v, Slot::Ready(_)))
                    .count()
            })
            .sum()
    }

    /// Whether no entry is resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Entries evicted by the LRU bound so far.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Take the keys evicted since the last call (so the owner can prune
    /// derived indexes).
    pub fn drain_evicted(&self) -> Vec<CacheKey> {
        std::mem::take(&mut *self.evicted.lock())
    }

    /// All resident (`Ready`) entries, one shard read lock at a time.
    /// In-flight builds are skipped — they have nothing to export yet.
    /// The snapshot is a point-in-time copy: entries inserted while a
    /// later shard is scanned may or may not appear, which is fine for
    /// the anti-entropy digest (repair converges over repeated rounds).
    pub fn snapshot(&self) -> Vec<(CacheKey, Arc<CompiledKernel>)> {
        let mut out = Vec::new();
        for shard in &self.shards {
            let shard = shard.read();
            out.extend(shard.iter().filter_map(|(k, v)| match v {
                Slot::Ready(r) => Some((*k, r.kernel.clone())),
                Slot::Building(_) => None,
            }));
        }
        out
    }

    /// Lookup without building.
    pub fn get(&self, key: &CacheKey) -> Option<Arc<CompiledKernel>> {
        match self.shard(key).read().get(key) {
            Some(Slot::Ready(r)) => {
                r.last_used.store(self.next_tick(), Ordering::Relaxed);
                Some(r.kernel.clone())
            }
            _ => None,
        }
    }

    /// Drop a resident entry — the owner refused to bank what a build
    /// returned. Not an eviction: nothing is counted or queued.
    pub fn remove(&self, key: &CacheKey) {
        let mut shard = self.shard(key).write();
        if matches!(shard.get(key), Some(Slot::Ready(_))) {
            shard.remove(key);
        }
    }

    /// Insert a pre-built kernel (store load, fabric install).
    pub fn insert(&self, key: CacheKey, kernel: Arc<CompiledKernel>) {
        let ready = Ready {
            kernel,
            last_used: AtomicU64::new(self.next_tick()),
        };
        let mut shard = self.shard(&key).write();
        shard.insert(key, Slot::Ready(ready));
        self.enforce_cap(&mut shard, &key);
    }

    /// Evict least-recently-used `Ready` entries (never the just-touched
    /// `protect` key, never an in-flight build) until the shard is within
    /// its cap. Caller holds the shard's write lock.
    fn enforce_cap(&self, shard: &mut HashMap<CacheKey, Slot>, protect: &CacheKey) {
        let Some(cap) = self.cap_per_shard else {
            return;
        };
        loop {
            let resident = shard
                .iter()
                .filter(|(_, v)| matches!(v, Slot::Ready(_)))
                .count();
            if resident <= cap {
                return;
            }
            let victim = shard
                .iter()
                .filter_map(|(k, v)| match v {
                    Slot::Ready(r) if k != protect => {
                        Some((r.last_used.load(Ordering::Relaxed), *k))
                    }
                    _ => None,
                })
                .min_by_key(|(tick, _)| *tick);
            let Some((_, key)) = victim else { return };
            shard.remove(&key);
            self.evictions.fetch_add(1, Ordering::Relaxed);
            self.evicted.lock().push(key);
        }
    }

    /// Fetch `key`, running `build` (at most once across all concurrent
    /// callers) on a miss.
    pub fn get_or_build<F>(&self, key: CacheKey, build: F) -> (Arc<CompiledKernel>, Outcome)
    where
        F: FnOnce() -> CompiledKernel,
    {
        let mut build = Some(build);
        loop {
            // Fast path: shared read lock only.
            let waiting: Option<Arc<Flight>> = match self.shard(&key).read().get(&key) {
                Some(Slot::Ready(r)) => {
                    r.last_used.store(self.next_tick(), Ordering::Relaxed);
                    return (r.kernel.clone(), Outcome::Hit);
                }
                Some(Slot::Building(f)) => Some(f.clone()),
                None => None,
            };
            if let Some(flight) = waiting {
                match flight.wait() {
                    Some(k) => return (k, Outcome::Coalesced),
                    None => continue, // owner aborted; retry the claim
                }
            }
            // Claim the build under the write lock.
            let flight = {
                let mut shard = self.shard(&key).write();
                match shard.get(&key) {
                    Some(Slot::Ready(r)) => {
                        r.last_used.store(self.next_tick(), Ordering::Relaxed);
                        return (r.kernel.clone(), Outcome::Hit);
                    }
                    Some(Slot::Building(f)) => {
                        let f = f.clone();
                        drop(shard);
                        match f.wait() {
                            Some(k) => return (k, Outcome::Coalesced),
                            None => continue,
                        }
                    }
                    None => {
                        let f = Flight::new();
                        shard.insert(key, Slot::Building(f.clone()));
                        f
                    }
                }
            };
            // We own the flight. Guard so a panicking builder wakes the
            // waiters (marking Aborted and vacating the slot) instead of
            // leaving them blocked forever.
            let guard = AbortGuard {
                map: self,
                key,
                flight: &flight,
                armed: true,
            };
            // Chaos site for the single-flight owner: a builder cannot
            // return an error, so a fired policy panics here and must be
            // absorbed by the AbortGuard below (waiters wake and retry).
            if faults::check("map.build").is_some() {
                panic!("failpoint 'map.build': injected builder failure");
            }
            let kernel = Arc::new(build.take().expect("claimed at most once")());
            let mut guard = guard;
            guard.armed = false;
            {
                let mut shard = self.shard(&key).write();
                shard.insert(
                    key,
                    Slot::Ready(Ready {
                        kernel: kernel.clone(),
                        last_used: AtomicU64::new(self.next_tick()),
                    }),
                );
                self.enforce_cap(&mut shard, &key);
            }
            flight.finish(FlightState::Done(kernel.clone()));
            return (kernel, Outcome::Built);
        }
    }
}

struct AbortGuard<'a> {
    map: &'a ShardedMap,
    key: CacheKey,
    flight: &'a Arc<Flight>,
    armed: bool,
}

impl Drop for AbortGuard<'_> {
    fn drop(&mut self) {
        if self.armed {
            self.map.shard(&self.key).write().remove(&self.key);
            self.flight.finish(FlightState::Aborted);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hardware::GpuSpec;
    use std::sync::atomic::{AtomicU64, Ordering};
    use tensor_expr::OpSpec;

    fn kernel() -> CompiledKernel {
        let spec = GpuSpec::rtx4090();
        let e = etir::Etir::initial(OpSpec::gemm(64, 64, 64), &spec);
        let r = simgpu::simulate(&e, &spec).unwrap();
        CompiledKernel {
            etir: e,
            report: r,
            wall_time_s: 0.01,
            simulated_tuning_s: 0.0,
            candidates_evaluated: 1,
        }
    }

    fn key(m: u64) -> CacheKey {
        CacheKey::new(&OpSpec::gemm(m, 64, 64), &GpuSpec::rtx4090(), "Gensor")
    }

    #[test]
    fn build_once_then_hit() {
        let map = ShardedMap::default();
        let builds = AtomicU64::new(0);
        let (_, o1) = map.get_or_build(key(128), || {
            builds.fetch_add(1, Ordering::SeqCst);
            kernel()
        });
        let (_, o2) = map.get_or_build(key(128), || {
            builds.fetch_add(1, Ordering::SeqCst);
            kernel()
        });
        assert_eq!(o1, Outcome::Built);
        assert_eq!(o2, Outcome::Hit);
        assert_eq!(builds.load(Ordering::SeqCst), 1);
        assert_eq!(map.len(), 1);
    }

    #[test]
    fn concurrent_same_key_builds_exactly_once() {
        let map = ShardedMap::default();
        let builds = AtomicU64::new(0);
        let outcomes = crossbeam::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    let map = &map;
                    let builds = &builds;
                    s.spawn(move |_| {
                        map.get_or_build(key(256), || {
                            builds.fetch_add(1, Ordering::SeqCst);
                            // Widen the race window so waiters really wait.
                            std::thread::sleep(std::time::Duration::from_millis(30));
                            kernel()
                        })
                        .1
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect::<Vec<_>>()
        })
        .unwrap();
        assert_eq!(builds.load(Ordering::SeqCst), 1, "single-flight violated");
        assert_eq!(outcomes.iter().filter(|o| **o == Outcome::Built).count(), 1);
        assert!(outcomes
            .iter()
            .all(|o| matches!(o, Outcome::Built | Outcome::Coalesced | Outcome::Hit)));
    }

    #[test]
    fn aborted_build_recovers() {
        let map = ShardedMap::default();
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            map.get_or_build(key(512), || panic!("builder died"));
        }));
        assert!(r.is_err());
        // The key is not wedged: the next caller builds it.
        let (_, o) = map.get_or_build(key(512), kernel);
        assert_eq!(o, Outcome::Built);
    }

    /// Keys that all land in one shard, so the per-shard cap is exact.
    fn same_shard_keys(n: usize) -> Vec<CacheKey> {
        let target = key(1).shard(SHARD_COUNT);
        (1u64..)
            .map(key)
            .filter(|k| k.shard(SHARD_COUNT) == target)
            .take(n)
            .collect()
    }

    #[test]
    fn lru_cap_evicts_the_least_recently_used() {
        // cap 16 over 16 shards → 1 entry per shard.
        let map = ShardedMap::with_entry_cap(Some(SHARD_COUNT));
        let keys = same_shard_keys(3);
        map.insert(keys[0], Arc::new(kernel()));
        map.insert(keys[1], Arc::new(kernel()));
        assert_eq!(map.evictions(), 1);
        assert!(map.get(&keys[0]).is_none(), "older entry was evicted");
        assert!(map.get(&keys[1]).is_some());
        assert_eq!(map.drain_evicted(), vec![keys[0]]);
        assert!(map.drain_evicted().is_empty(), "drain empties the queue");

        // With one slot per shard, the next insert displaces the survivor.
        map.insert(keys[2], Arc::new(kernel()));
        assert!(map.get(&keys[1]).is_none());
        assert!(map.get(&keys[2]).is_some());
        assert_eq!(map.evictions(), 2);
    }

    #[test]
    fn lru_recency_is_respected_within_a_shard() {
        // cap 32 over 16 shards → 2 entries per shard.
        let map = ShardedMap::with_entry_cap(Some(2 * SHARD_COUNT));
        let keys = same_shard_keys(3);
        map.insert(keys[0], Arc::new(kernel()));
        map.insert(keys[1], Arc::new(kernel()));
        // Touch the older entry so the *other* one becomes LRU.
        assert!(map.get(&keys[0]).is_some());
        map.insert(keys[2], Arc::new(kernel()));
        assert!(map.get(&keys[0]).is_some(), "recently touched survives");
        assert!(map.get(&keys[1]).is_none(), "LRU entry evicted");
        assert_eq!(map.drain_evicted(), vec![keys[1]]);
    }

    #[test]
    fn unbounded_map_never_evicts() {
        let map = ShardedMap::default();
        for k in same_shard_keys(24) {
            map.insert(k, Arc::new(kernel()));
        }
        assert_eq!(map.len(), 24);
        assert_eq!(map.evictions(), 0);
    }
}
