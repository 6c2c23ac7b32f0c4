//! Static membership with health-driven ring rebuilds.
//!
//! Membership is a static peer list (`gensor serve --peers`, or a
//! client's `--peers`); *health* is dynamic and lives here and nowhere
//! else: one transport circuit breaker per configured peer. The routing
//! ring is built over the **live** peers — those whose breaker is not open —
//! and rebuilt lazily whenever that set changes, so a dead daemon's key
//! range flows to the survivors within one breaker trip, and flows back
//! when its half-open probe succeeds.

use crate::ring::{hash64, Ring, DEFAULT_VNODES};
use served::{Breaker, BreakerConfig, BreakerState};
use std::sync::{Arc, Mutex};

/// The peer set and its health, owning the current routing ring.
pub struct Membership {
    /// Sorted and deduplicated.
    peers: Vec<String>,
    /// One breaker per peer, index-aligned with `peers`.
    breakers: Vec<Breaker>,
    /// `(live-set signature, ring)` — rebuilt when the signature moves.
    cached: Mutex<Option<(u64, Arc<Ring>)>>,
}

impl Membership {
    /// A membership over `peers` (deduplicated, sorted) whose breakers
    /// use `breaker_cfg`.
    pub fn new(peers: &[String], breaker_cfg: BreakerConfig) -> Membership {
        let mut peers = peers.to_vec();
        peers.sort();
        peers.dedup();
        let breakers = peers
            .iter()
            .map(|_| Breaker::new(breaker_cfg.clone()))
            .collect();
        Membership {
            peers,
            breakers,
            cached: Mutex::new(None),
        }
    }

    /// The full configured peer list, dead or alive.
    pub fn peers(&self) -> &[String] {
        &self.peers
    }

    /// The breaker guarding `endpoint`; `None` for an endpoint that is
    /// not a configured peer.
    pub fn breaker(&self, endpoint: &str) -> Option<&Breaker> {
        self.peers
            .binary_search_by(|p| p.as_str().cmp(endpoint))
            .ok()
            .map(|i| &self.breakers[i])
    }

    /// Every peer whose breaker is currently open.
    pub fn open_peers(&self) -> Vec<&str> {
        self.peers
            .iter()
            .zip(&self.breakers)
            .filter(|(_, b)| b.state() == BreakerState::Open)
            .map(|(p, _)| p.as_str())
            .collect()
    }

    /// Peers whose breaker is not currently open. If that empties the
    /// list entirely, the full list is returned instead — an empty ring
    /// would route nothing and, worse, freeze the half-open probes that
    /// are the only way back; keeping the dead peers routable lets
    /// `allow()` meter recovery attempts normally.
    pub fn live_peers(&self) -> Vec<String> {
        let live: Vec<String> = self
            .peers
            .iter()
            .zip(&self.breakers)
            .filter(|(_, b)| b.state() != BreakerState::Open)
            .map(|(p, _)| p.clone())
            .collect();
        if live.is_empty() {
            self.peers.clone()
        } else {
            live
        }
    }

    /// The routing ring over the current live peers. Cheap when the live
    /// set is unchanged (one signature compare); a changed set rebuilds
    /// and is counted + logged, since every rebuild remaps ~1/N of keys.
    pub fn ring(&self) -> Arc<Ring> {
        let live = self.live_peers();
        let sig = hash64(live.join("\n").as_bytes());
        let mut g = self.cached.lock().unwrap_or_else(|p| p.into_inner());
        if let Some((cached_sig, ring)) = g.as_ref() {
            if *cached_sig == sig {
                return ring.clone();
            }
        }
        let ring = Arc::new(Ring::build(&live, DEFAULT_VNODES));
        if g.is_some() {
            obs::counter_inc!(
                "gensor_fabric_ring_rebuilds_total",
                "Routing ring rebuilds after the live peer set changed"
            );
            obs::log!(
                Info,
                "fabric: live peer set changed, ring rebuilt over {} of {} peers",
                ring.len(),
                self.peers.len()
            );
        }
        *g = Some((sig, ring.clone()));
        ring
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn peers() -> Vec<String> {
        vec![
            "tcp://127.0.0.1:9001".into(),
            "tcp://127.0.0.1:9002".into(),
            "tcp://127.0.0.1:9003".into(),
        ]
    }

    fn trippy() -> BreakerConfig {
        BreakerConfig {
            failure_threshold: 1,
            cooldown: Duration::from_secs(30),
            max_cooldown: Duration::from_secs(30),
        }
    }

    #[test]
    fn open_breaker_evicts_peer_from_the_ring() {
        let m = Membership::new(&peers(), trippy());
        assert_eq!(m.ring().len(), 3);
        let dead = &peers()[1];
        m.breaker(dead).unwrap().on_failure();
        assert_eq!(m.breaker(dead).unwrap().state(), BreakerState::Open);
        assert_eq!(m.open_peers(), vec![dead.as_str()]);
        assert!(m.breaker("tcp://127.0.0.1:9999").is_none(), "not a peer");
        let ring = m.ring();
        assert_eq!(ring.len(), 2);
        assert!(!ring.nodes().contains(dead));
    }

    #[test]
    fn ring_is_cached_until_the_live_set_moves() {
        let m = Membership::new(&peers(), trippy());
        let a = m.ring();
        let b = m.ring();
        assert!(Arc::ptr_eq(&a, &b), "unchanged live set must not rebuild");
        m.breaker(&peers()[0]).unwrap().on_failure();
        let c = m.ring();
        assert!(!Arc::ptr_eq(&b, &c));
    }

    #[test]
    fn all_breakers_open_falls_back_to_the_full_list() {
        let m = Membership::new(&peers(), trippy());
        for p in peers() {
            m.breaker(&p).unwrap().on_failure();
        }
        assert_eq!(m.live_peers().len(), 3, "never route into an empty ring");
        assert_eq!(m.ring().len(), 3);
    }
}
