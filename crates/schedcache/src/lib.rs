//! `schedcache` — the persistent, concurrent schedule cache.
//!
//! Construction-based compilation (the paper's contribution) already cuts
//! tuning from hours to seconds; this crate removes the *re*-tuning cost
//! entirely for shapes a deployment has seen before:
//!
//! * [`key`] — canonical cache keys: operator fingerprint × device
//!   fingerprint × policy fingerprint, with explicit format/policy
//!   versioning for invalidation.
//! * [`store`] — a corruption-tolerant JSONL persistent tier: winners are
//!   appended atomically the moment they are found; damaged or
//!   foreign-version lines are skipped and counted at load, never fatal.
//! * [`map`] — the in-memory tier: one concurrent map with single-flight
//!   deduplication (N concurrent requests for one key run exactly one
//!   construction) and an exact LRU bound; its entry is the only record
//!   of a resident key.
//! * [`cache`] — the [`ScheduleCache`] façade tying the tiers together,
//!   plus nearest-neighbour warm-start seeds for unseen shapes.
//! * [`tuner`] — [`CachedTuner`], a drop-in [`simgpu::Tuner`] adapter so
//!   every existing pipeline (`compile_model`, dynamic shapes, timelines)
//!   gains caching without signature changes.
//! * [`stats`] — hit/miss/dedup/warm-start counters and compile-latency
//!   percentiles for the `gensor cache` CLI.
//!
//! Every schedule is statically verified (`verify` crate) on the way in
//! and on the way out: store records, peer installs and construction
//! winners all pass the cache's one admission function before they are
//! resident, offered as warm-start seeds or persisted, and
//! [`ScheduleCache::get_or_compile`] returns the typed [`Rejected`]
//! report instead of ever serving an illegal schedule.

pub mod cache;
pub mod key;
pub mod map;
pub mod stats;
pub mod store;
pub mod tuner;

pub use cache::{CacheDigest, CacheEntry, ScheduleCache, CROSS_DEVICE_PENALTY, DIGEST_SHARDS};
pub use key::{CacheKey, FORMAT_VERSION, POLICY_EPOCH};
pub use map::Outcome;
pub use stats::StatsSnapshot;
pub use store::{CacheRecord, CompactReport, LoadReport, Store};
pub use tuner::CachedTuner;
pub use verify::Rejected;
