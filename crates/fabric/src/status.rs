//! `gensor cluster status` — probe every configured peer and report
//! liveness, cache counters, and each peer's estimated ring share.

use crate::ring::{Ring, DEFAULT_VNODES};
use serde::Serialize;
use served::{Client, ClientConfig, ServeStats};

/// One peer's answer (or lack of one).
#[derive(Debug, Serialize)]
pub struct PeerStatus {
    /// The endpoint as configured.
    pub endpoint: String,
    /// Did it answer the stats request?
    pub up: bool,
    /// Why not, when `up` is false.
    pub error: Option<String>,
    /// The daemon's own counters, when up.
    pub stats: Option<ServeStats>,
    /// Estimated fraction of the key space this peer owns as primary
    /// on the full-membership ring.
    pub ring_share: f64,
}

/// The whole cluster's snapshot.
#[derive(Debug, Serialize)]
pub struct ClusterStatus {
    /// Every configured peer, in ring (sorted) order.
    pub peers: Vec<PeerStatus>,
    /// How many answered.
    pub up: usize,
    /// How many are configured.
    pub total: usize,
}

impl ClusterStatus {
    /// Human-readable table, one peer per line.
    pub fn render(&self) -> String {
        let mut out = format!("cluster: {}/{} peers up\n", self.up, self.total);
        for p in &self.peers {
            match (&p.stats, &p.error) {
                (Some(s), _) => out.push_str(&format!(
                    "  up    {:<28} share {:>5.1}%  entries-hits {:>6}  misses {:>6}  puts {:>5}  uptime {:.0}s\n",
                    p.endpoint,
                    p.ring_share * 100.0,
                    s.hits,
                    s.misses,
                    s.puts,
                    s.uptime_s
                )),
                (None, Some(e)) => out.push_str(&format!(
                    "  DOWN  {:<28} share {:>5.1}%  ({e})\n",
                    p.endpoint,
                    p.ring_share * 100.0
                )),
                (None, None) => out.push_str(&format!("  DOWN  {:<28}\n", p.endpoint)),
            }
        }
        out
    }
}

/// Probe `peers` sequentially (status is a diagnostic, not a hot path)
/// and pair each with its share of the full-membership ring — the share
/// it *should* own, so an operator can see both "who is down" and "how
/// much key space that costs".
pub fn cluster_status(peers: &[String], cfg: &ClientConfig) -> ClusterStatus {
    let ring = Ring::build(peers, DEFAULT_VNODES);
    let shares = ring.shares(4096);
    let mut out = Vec::with_capacity(shares.len());
    let mut up = 0usize;
    for (endpoint, share) in shares {
        let probed =
            Client::connect_with(endpoint.as_str(), cfg.clone()).and_then(|mut c| c.stats());
        match probed {
            Ok(stats) => {
                up += 1;
                out.push(PeerStatus {
                    endpoint,
                    up: true,
                    error: None,
                    stats: Some(stats),
                    ring_share: share,
                });
            }
            Err(e) => out.push(PeerStatus {
                endpoint,
                up: false,
                error: Some(e.to_string()),
                stats: None,
                ring_share: share,
            }),
        }
    }
    ClusterStatus {
        up,
        total: out.len(),
        peers: out,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn unreachable_peers_report_down_with_the_error() {
        let peers = vec!["tcp://127.0.0.1:1".to_string()];
        let cfg = ClientConfig {
            retries: 1,
            connect_timeout: Duration::from_millis(100),
            backoff_base: Duration::from_millis(1),
            ..Default::default()
        };
        let status = cluster_status(&peers, &cfg);
        assert_eq!((status.up, status.total), (0, 1));
        assert!(!status.peers[0].up);
        assert!(status.peers[0].error.is_some());
        assert!((status.peers[0].ring_share - 1.0).abs() < 1e-9);
        assert!(status.render().contains("DOWN"));
    }
}
