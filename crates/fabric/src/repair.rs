//! Anti-entropy cache repair: converge a replica's schedule cache to
//! the cluster's without a full resync.
//!
//! The cache is insert-only across replicas (schedules are never
//! mutated in place, only added), so the only divergence class is
//! *missing keys* and convergence is the union of every replica's key
//! set. Each daemon summarises its keys as a [`schedcache::CacheDigest`]
//! — an order-independent XOR fold over per-key hashes, split into
//! [`schedcache::DIGEST_SHARDS`] shards plus a root. Comparing digests
//! costs one small frame; only shards that actually differ are expanded
//! into key lists, and only keys we are missing are pulled.
//!
//! Every pulled kernel crosses a trust boundary: [`ScheduleCache::install_raw`]
//! re-verifies it under [`verify::Provenance::RemotePeer`] before it is
//! banked, so a corrupt (or malicious) peer can cost us wire bytes but
//! never an illegal schedule.

use schedcache::{CacheEntry, ScheduleCache};
use served::{Client, ClientConfig, WireEntry};
use simgpu::CompiledKernel;
use std::collections::HashSet;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// What one [`sync_from_peers`] pass did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RepairReport {
    /// Peers whose digest we compared against.
    pub peers_contacted: u64,
    /// Peers whose digest already matched ours (nothing to do).
    pub in_sync: u64,
    /// Entries streamed from peers.
    pub pulled: u64,
    /// Entries verified and banked locally.
    pub installed: u64,
    /// Entries the verifier refused at the trust boundary.
    pub rejected: u64,
    /// Entries another peer had already given us this pass.
    pub already: u64,
}

impl RepairReport {
    fn absorb(&mut self, other: RepairReport) {
        self.peers_contacted += other.peers_contacted;
        self.in_sync += other.in_sync;
        self.pulled += other.pulled;
        self.installed += other.installed;
        self.rejected += other.rejected;
        self.already += other.already;
    }
}

fn to_cache_entry(e: WireEntry) -> CacheEntry {
    CacheEntry {
        key: e.key,
        op_label: e.op_label,
        method: e.method,
        kernel: CompiledKernel::from(e.kernel),
    }
}

/// Pull everything `peer` has that `cache` is missing. An unreachable
/// peer is skipped, never an error — repair is opportunistic.
fn sync_from_peer(cache: &ScheduleCache, peer: &str, cfg: &ClientConfig) -> RepairReport {
    let mut report = RepairReport::default();
    let Ok(mut c) = Client::connect_with(peer, cfg.clone()) else {
        return report;
    };
    let mine = cache.digest();
    let Ok((root, shards, count)) = c.cache_digest() else {
        return report;
    };
    report.peers_contacted = 1;
    let theirs = schedcache::CacheDigest {
        root,
        shards,
        count,
    };
    if theirs.root == mine.root && theirs.count == mine.count {
        report.in_sync = 1;
        return report;
    }
    for shard in mine.diverging_shards(&theirs) {
        let Ok(peer_keys) = c.cache_keys(shard as u32) else {
            break;
        };
        let have: HashSet<_> = cache.keys_in_shard(shard).into_iter().collect();
        let missing: Vec<_> = peer_keys
            .into_iter()
            .filter(|k| !have.contains(k))
            .collect();
        if missing.is_empty() {
            // The divergence is one-sided: the peer is missing *our*
            // keys. Its own repair pass (or write-through) closes that.
            continue;
        }
        let Ok(entries) = c.cache_pull(&missing) else {
            break;
        };
        report.pulled += entries.len() as u64;
        for entry in entries {
            match cache.install_raw(to_cache_entry(entry)) {
                Ok(true) => report.installed += 1,
                Ok(false) => report.already += 1,
                Err(_) => report.rejected += 1,
            }
        }
    }
    report
}

/// One anti-entropy pass: compare digests with every peer in `peers`
/// and pull whatever they have that we do not. Returns the combined
/// report; counters land in the obs registry either way.
pub fn sync_from_peers(
    cache: &ScheduleCache,
    peers: &[String],
    cfg: &ClientConfig,
) -> RepairReport {
    let _sp = obs::span!("fabric.repair.sync", peers = peers.len());
    obs::counter_inc!(
        "gensor_fabric_repair_runs_total",
        "Anti-entropy repair passes started (daemon start-up)"
    );
    let mut total = RepairReport::default();
    for peer in peers {
        total.absorb(sync_from_peer(cache, peer, cfg));
    }
    if total.pulled > 0 {
        obs::counter_add!(
            "gensor_fabric_repair_pulled_total",
            "Cache entries streamed from peers during anti-entropy repair",
            total.pulled
        );
    }
    if total.installed > 0 {
        obs::counter_add!(
            "gensor_fabric_repair_installed_total",
            "Repaired cache entries verified and banked locally",
            total.installed
        );
    }
    if total.rejected > 0 {
        obs::counter_add!(
            "gensor_fabric_repair_rejected_total",
            "Repaired entries the verifier refused at the RemotePeer trust boundary",
            total.rejected
        );
    }
    total
}

/// A daemon's start-up repair pass: one [`sync_from_peers`] over every
/// peer but `me` (with `token`), on a thread of its own so the daemon's
/// first accept does not wait for it. A cold-restarted daemon refills
/// from the survivors this way; join the handle at drain. Connects fail
/// fast — a peer that is not up yet is skipped, and write-through
/// re-replicates its keys on their next miss or failover.
pub fn spawn_startup_sync(
    cache: Arc<ScheduleCache>,
    me: &str,
    peers: &[String],
    token: Option<String>,
) -> JoinHandle<RepairReport> {
    let others: Vec<String> = peers.iter().filter(|p| *p != me).cloned().collect();
    let cfg = ClientConfig {
        connect_timeout: Duration::from_millis(300),
        request_timeout: Duration::from_secs(5),
        retries: 1,
        connect_budget: Duration::from_millis(500),
        token,
        ..ClientConfig::default()
    };
    std::thread::Builder::new()
        .name("startup-repair".into())
        .spawn(move || {
            let report = sync_from_peers(&cache, &others, &cfg);
            obs::log!(
                Info,
                "repair: start-up pass installed {} (rejected {}) from {} of {} peers",
                report.installed,
                report.rejected,
                report.peers_contacted,
                others.len()
            );
            report
        })
        .expect("spawn the start-up repair thread")
}

/// What a cluster-wide [`converge_cluster`] sweep did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConvergeReport {
    /// Peers that answered the digest probe.
    pub peers: u64,
    /// Distinct keys across the whole cluster.
    pub union_keys: u64,
    /// Entries copied from a holder to a peer that was missing them.
    pub pushed: u64,
    /// Pushed entries the receiving daemon's verifier refused.
    pub rejected: u64,
    /// Whether every answering peer ended with an identical digest.
    pub converged: bool,
}

/// Operator-driven convergence (`gensor cluster repair`): enumerate
/// every peer's key set, compute the union, and for each peer stream
/// it the entries it is missing from a peer that has them. Verification
/// happens on the *receiving* daemon (`CachePush` runs through
/// `install_raw`), so this client never becomes a trust bypass.
pub fn converge_cluster(peers: &[String], cfg: &ClientConfig) -> ConvergeReport {
    use std::collections::HashMap;
    let mut report = ConvergeReport::default();
    // Key inventory per reachable peer.
    let mut inventory: HashMap<String, HashSet<schedcache::CacheKey>> = HashMap::new();
    for peer in peers {
        let Ok(mut c) = Client::connect_with(peer, cfg.clone()) else {
            continue;
        };
        let mut keys = HashSet::new();
        let mut ok = true;
        for shard in 0..schedcache::DIGEST_SHARDS {
            match c.cache_keys(shard as u32) {
                Ok(ks) => keys.extend(ks),
                Err(_) => {
                    ok = false;
                    break;
                }
            }
        }
        if ok {
            report.peers += 1;
            inventory.insert(peer.clone(), keys);
        }
    }
    let union: HashSet<schedcache::CacheKey> =
        inventory.values().flat_map(|s| s.iter().copied()).collect();
    report.union_keys = union.len() as u64;
    for (peer, have) in &inventory {
        let missing: Vec<_> = union
            .iter()
            .filter(|k| !have.contains(k))
            .copied()
            .collect();
        if missing.is_empty() {
            continue;
        }
        // Group the missing keys by some holder, pull, and push.
        let mut by_holder: HashMap<&str, Vec<schedcache::CacheKey>> = HashMap::new();
        for key in missing {
            if let Some((holder, _)) = inventory
                .iter()
                .find(|(other, keys)| other.as_str() != peer.as_str() && keys.contains(&key))
            {
                by_holder.entry(holder.as_str()).or_default().push(key);
            }
        }
        for (holder, keys) in by_holder {
            let Ok(mut from) = Client::connect_with(holder, cfg.clone()) else {
                continue;
            };
            let Ok(entries) = from.cache_pull(&keys) else {
                continue;
            };
            let Ok(mut to) = Client::connect_with(peer, cfg.clone()) else {
                continue;
            };
            if let Ok((installed, rejected)) = to.cache_push(entries) {
                report.pushed += installed;
                report.rejected += rejected;
            }
        }
    }
    // Converged iff every answering peer now reports the same digest.
    let mut digests = Vec::new();
    for peer in inventory.keys() {
        if let Ok(mut c) = Client::connect_with(peer, cfg.clone()) {
            if let Ok(d) = c.cache_digest() {
                digests.push(d);
            }
        }
    }
    report.converged = !digests.is_empty() && digests.windows(2).all(|w| w[0] == w[1]);
    report
}
