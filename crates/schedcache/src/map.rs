//! The in-memory tier: one concurrent map with single-flight
//! deduplication and an optional exact LRU entry bound.
//!
//! * **One map** — every key lives in one `RwLock<HashMap>`: a hit takes
//!   the read lock, a build claim, an admission or an eviction the write
//!   lock. A resident `Entry` is the cache's only record of its key: the
//!   kernel, the method that built it, its recency tick, its admission
//!   stamp and whether it is proved for its device.
//! * **Single-flight** — when N threads miss the same key concurrently,
//!   exactly one runs the (expensive, seconds-long) construction; the
//!   others block on the in-flight `Flight` and receive the same
//!   `Arc`'d result. If the builder panics, waiters are woken and one of
//!   them claims the build instead, so a crash never wedges a key.
//! * **LRU bound** — an optional entry cap (default: unbounded) keeps a
//!   daemon serving unbounded shape churn from growing without limit. An
//!   insert that would exceed it evicts the least recently used resident
//!   entry, so [`ResidentMap::len`] never exceeds the cap. The owner is
//!   told of each eviction ([`ResidentMap::on_evict`]) and drops what it
//!   keeps about the entry.

use crate::key::CacheKey;
use parking_lot::RwLock;
use simgpu::CompiledKernel;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

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

/// A resident schedule and everything the cache knows about it.
pub(crate) struct Entry {
    /// The schedule.
    pub(crate) kernel: Arc<CompiledKernel>,
    /// The method that built it, which an exported entry or a store
    /// record needs back (the key holds only its fingerprint).
    pub(crate) method: String,
    /// Admission order, a tick of the map's clock: 0 until the cache
    /// admits the entry (a fresh build is resident a moment before).
    pub(crate) admitted: u64,
    /// Proved legal for the key's device, so answers skip the check.
    /// Relaxed: it publishes no data, and the kernel it vouches for is
    /// immutable and reached under the map's lock.
    proved: AtomicBool,
    /// Recency stamp for LRU eviction.
    last_used: AtomicU64,
}

enum Slot {
    Ready(Entry),
    Building(Arc<Flight>),
}

/// What a map's owner does with an entry the LRU bound evicts.
type OnEvict = Box<dyn Fn(&CacheKey, &CompiledKernel) + Send + Sync>;

/// The concurrent map.
pub struct ResidentMap {
    slots: RwLock<HashMap<CacheKey, Slot>>,
    /// Resident-entry cap; `None` means unbounded.
    cap: Option<usize>,
    /// Global clock (monotone; one tick per touch or admission).
    tick: AtomicU64,
    evictions: AtomicU64,
    on_evict: Option<OnEvict>,
}

impl Default for ResidentMap {
    fn default() -> Self {
        Self::with_entry_cap(None)
    }
}

impl ResidentMap {
    /// A map bounded to `cap` resident entries, at least one (`None`:
    /// unbounded).
    pub fn with_entry_cap(cap: Option<usize>) -> Self {
        ResidentMap {
            slots: RwLock::new(HashMap::new()),
            cap: cap.map(|c| c.max(1)),
            tick: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            on_evict: None,
        }
    }

    /// Call `f` with each entry the LRU bound evicts, under the map's
    /// write lock (so `f` must not call back into the map).
    pub fn on_evict(
        mut self,
        f: impl Fn(&CacheKey, &CompiledKernel) + Send + Sync + 'static,
    ) -> Self {
        self.on_evict = Some(Box::new(f));
        self
    }

    fn next_tick(&self) -> u64 {
        self.tick.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Resident entries.
    pub fn len(&self) -> usize {
        resident(&self.slots.read())
    }

    /// Whether no entry is resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Entries evicted by the LRU bound so far.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// `f` over every admitted entry under one read lock, in no
    /// particular order (`Entry::admitted` gives admission order).
    /// In-flight and not-yet-admitted builds are skipped.
    pub(crate) fn admitted<T>(&self, mut f: impl FnMut(&CacheKey, &Entry) -> Option<T>) -> Vec<T> {
        let mut out = Vec::new();
        self.for_each_admitted(|k, e| out.extend(f(k, e)));
        out
    }

    /// [`admitted`](Self::admitted) without collecting: `f` visits each
    /// admitted entry under one read lock.
    pub(crate) fn for_each_admitted(&self, mut f: impl FnMut(&CacheKey, &Entry)) {
        for (k, s) in self.slots.read().iter() {
            if let Slot::Ready(e) = s {
                if e.admitted > 0 {
                    f(k, e);
                }
            }
        }
    }

    fn touch(&self, e: &Entry) -> Arc<CompiledKernel> {
        e.last_used.store(self.next_tick(), Ordering::Relaxed);
        e.kernel.clone()
    }

    /// Lookup without building.
    pub fn get(&self, key: &CacheKey) -> Option<Arc<CompiledKernel>> {
        match self.slots.read().get(key) {
            Some(Slot::Ready(e)) => Some(self.touch(e)),
            _ => None,
        }
    }

    /// Whether the entry resident for `key` holds `kernel` and is proved
    /// for its device.
    pub(crate) fn proved(&self, key: &CacheKey, kernel: &Arc<CompiledKernel>) -> bool {
        match self.slots.read().get(key) {
            Some(Slot::Ready(e)) => {
                Arc::ptr_eq(&e.kernel, kernel) && e.proved.load(Ordering::Relaxed)
            }
            _ => false,
        }
    }

    /// Mark the entry resident for `key` proved, if it still holds `kernel`.
    pub(crate) fn prove(&self, key: &CacheKey, kernel: &Arc<CompiledKernel>) {
        if let Some(Slot::Ready(e)) = self.slots.read().get(key) {
            if Arc::ptr_eq(&e.kernel, kernel) {
                e.proved.store(true, Ordering::Relaxed);
            }
        }
    }

    /// Drop a resident entry — the owner refused to admit what a build
    /// returned. Not an eviction: nothing is counted.
    pub fn remove(&self, key: &CacheKey) {
        let mut slots = self.slots.write();
        if matches!(slots.get(key), Some(Slot::Ready(_))) {
            slots.remove(key);
        }
    }

    /// Admit `kernel` for `key` with the next admission stamp: the
    /// single-flight build's own entry is stamped in place, anything else
    /// is made resident — over another resident entry only when
    /// `supersede`. `false`: the resident entry was kept.
    pub(crate) fn admit(
        &self,
        key: CacheKey,
        kernel: &Arc<CompiledKernel>,
        method: &str,
        proved: bool,
        supersede: bool,
    ) -> bool {
        let stamp = self.next_tick();
        let mut slots = self.slots.write();
        match slots.get_mut(&key) {
            Some(Slot::Ready(e)) if Arc::ptr_eq(&e.kernel, kernel) => {
                e.method = method.to_string();
                e.admitted = stamp;
                *e.proved.get_mut() |= proved;
                return true;
            }
            Some(Slot::Ready(e)) if !supersede => {
                // A peer's copy of a resident key is a use of it.
                e.last_used.store(stamp, Ordering::Relaxed);
                return false;
            }
            _ => {}
        }
        self.put(&mut slots, key, kernel.clone(), method, stamp, proved);
        true
    }

    /// Make `kernel` resident for `key`, then evict least-recently-used
    /// entries (never this one, never an in-flight build) until the map
    /// is within its cap. Caller holds the write lock.
    fn put(
        &self,
        slots: &mut HashMap<CacheKey, Slot>,
        key: CacheKey,
        kernel: Arc<CompiledKernel>,
        method: &str,
        admitted: u64,
        proved: bool,
    ) {
        let entry = Entry {
            kernel,
            method: method.to_string(),
            admitted,
            proved: AtomicBool::new(proved),
            last_used: AtomicU64::new(self.next_tick()),
        };
        slots.insert(key, Slot::Ready(entry));
        let Some(cap) = self.cap else {
            return;
        };
        while resident(slots) > cap {
            let victim = slots
                .iter()
                .filter_map(|(k, s)| match s {
                    Slot::Ready(e) if *k != key => Some((e.last_used.load(Ordering::Relaxed), *k)),
                    _ => None,
                })
                .min_by_key(|(tick, _)| *tick);
            let Some((_, victim)) = victim else { return };
            if let (Some(Slot::Ready(e)), Some(f)) = (slots.remove(&victim), &self.on_evict) {
                f(&victim, &e.kernel);
            }
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Fetch `key`, running `build` (at most once across all concurrent
    /// callers) on a miss. The built kernel is resident but not admitted:
    /// the owner admits it.
    pub fn get_or_build<F>(&self, key: CacheKey, build: F) -> (Arc<CompiledKernel>, Outcome)
    where
        F: FnOnce() -> CompiledKernel,
    {
        let mut build = Some(build);
        loop {
            // Fast path: shared read lock only.
            let waiting: Option<Arc<Flight>> = match self.slots.read().get(&key) {
                Some(Slot::Ready(e)) => return (self.touch(e), Outcome::Hit),
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
                let mut slots = self.slots.write();
                match slots.get(&key) {
                    Some(Slot::Ready(e)) => return (self.touch(e), Outcome::Hit),
                    Some(Slot::Building(f)) => {
                        let f = f.clone();
                        drop(slots);
                        match f.wait() {
                            Some(k) => return (k, Outcome::Coalesced),
                            None => continue,
                        }
                    }
                    None => {
                        let f = Flight::new();
                        slots.insert(key, Slot::Building(f.clone()));
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
            self.put(&mut self.slots.write(), key, kernel.clone(), "", 0, false);
            flight.finish(FlightState::Done(kernel.clone()));
            return (kernel, Outcome::Built);
        }
    }
}

fn resident(slots: &HashMap<CacheKey, Slot>) -> usize {
    slots
        .values()
        .filter(|s| matches!(s, Slot::Ready(_)))
        .count()
}

struct AbortGuard<'a> {
    map: &'a ResidentMap,
    key: CacheKey,
    flight: &'a Arc<Flight>,
    armed: bool,
}

impl Drop for AbortGuard<'_> {
    fn drop(&mut self) {
        if self.armed {
            self.map.slots.write().remove(&self.key);
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
        let map = ResidentMap::default();
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
        let map = ResidentMap::default();
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
        let map = ResidentMap::default();
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            map.get_or_build(key(512), || panic!("builder died"));
        }));
        assert!(r.is_err());
        // The key is not wedged: the next caller builds it.
        let (_, o) = map.get_or_build(key(512), kernel);
        assert_eq!(o, Outcome::Built);
    }

    /// Admit a fresh kernel for `k`, as a store load does.
    fn insert(map: &ResidentMap, k: CacheKey) {
        assert!(map.admit(k, &Arc::new(kernel()), "Gensor", false, true));
    }

    #[test]
    fn lru_cap_evicts_the_least_recently_used() {
        let evicted = Arc::new(Mutex::new(Vec::new()));
        let told = evicted.clone();
        let map = ResidentMap::with_entry_cap(Some(1))
            .on_evict(move |k, _| told.lock().unwrap().push(*k));
        let keys: Vec<CacheKey> = (1..=3).map(key).collect();
        insert(&map, keys[0]);
        insert(&map, keys[1]);
        assert_eq!(map.evictions(), 1);
        assert!(map.get(&keys[0]).is_none(), "older entry was evicted");
        assert!(map.get(&keys[1]).is_some());

        // With one slot, the next insert displaces the survivor.
        insert(&map, keys[2]);
        assert!(map.get(&keys[1]).is_none());
        assert!(map.get(&keys[2]).is_some());
        assert_eq!((map.len(), map.evictions()), (1, 2));
        assert_eq!(*evicted.lock().unwrap(), keys[..2], "the owner is told");
    }

    #[test]
    fn lru_recency_is_respected_within_a_shard() {
        let map = ResidentMap::with_entry_cap(Some(2));
        let keys: Vec<CacheKey> = (1..=3).map(key).collect();
        insert(&map, keys[0]);
        insert(&map, keys[1]);
        // Touch the older entry so the *other* one becomes LRU.
        assert!(map.get(&keys[0]).is_some());
        insert(&map, keys[2]);
        assert!(map.get(&keys[0]).is_some(), "recently touched survives");
        assert!(map.get(&keys[1]).is_none(), "LRU entry evicted");
        assert_eq!((map.len(), map.evictions()), (2, 1));
    }

    #[test]
    fn unbounded_map_never_evicts() {
        let map = ResidentMap::default();
        for k in (1..=24).map(key) {
            insert(&map, k);
        }
        assert_eq!(map.len(), 24);
        assert_eq!(map.evictions(), 0);
    }
}
