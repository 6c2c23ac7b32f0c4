//! Ketama-style consistent-hash ring.
//!
//! Each node contributes `vnodes` virtual points on a 64-bit circle; a
//! key routes to the first point clockwise from its own hash, and the
//! `copies` distinct nodes encountered walking onward are the key's
//! replica set. Virtual points smooth the shares (a node owns ~1/N of
//! the circle instead of one contiguous arc), and removing a node moves
//! only the keys that pointed at *its* arcs — ~1/N of the key space —
//! which is the whole reason to prefer this over `hash % N`.
//!
//! The ring itself is never sent over the wire: a [`RingSpec`] (node
//! list + vnode count) is, and [`Ring::from_spec`] rebuilds the points
//! deterministically, so two daemons with the same spec route every key
//! identically. Keys come from the schedule cache's existing
//! fingerprints (see [`ring_key`]).

pub use schedcache::key::hash64;
use schedcache::CacheKey;
use serde::{Deserialize, Serialize};

/// Virtual points per node. 64 keeps the largest/smallest share ratio
/// under ~1.4 for small clusters while the ring stays a few KiB.
pub const DEFAULT_VNODES: u32 = 64;

/// The ring position of a cache key: [`CacheKey::mix`]. The key's three
/// fingerprints are already FNV outputs, but xor-folding them directly
/// would inherit raw FNV's poorly mixed high bits; the mix spreads keys
/// uniformly around the circle regardless.
pub fn ring_key(key: &CacheKey) -> u64 {
    key.mix()
}

/// The wire/config form of a ring: everything needed to rebuild it
/// byte-identically ([`Ring::from_spec`]).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RingSpec {
    /// Member endpoints (order-insensitive; the build sorts).
    pub nodes: Vec<String>,
    /// Virtual points per node.
    pub vnodes: u32,
}

/// A built consistent-hash ring: sorted virtual points over a node list.
#[derive(Debug, Clone)]
pub struct Ring {
    nodes: Vec<String>,
    vnodes: u32,
    /// `(point hash, index into nodes)`, sorted — binary-searchable.
    points: Vec<(u64, u32)>,
}

impl Ring {
    /// Build a ring over `nodes` (deduplicated and sorted, so the same
    /// member set yields the same ring regardless of listing order).
    pub fn build(nodes: &[String], vnodes: u32) -> Ring {
        let mut nodes = nodes.to_vec();
        nodes.sort();
        nodes.dedup();
        let vnodes = vnodes.max(1);
        let mut points = Vec::with_capacity(nodes.len() * vnodes as usize);
        for (i, node) in nodes.iter().enumerate() {
            for v in 0..vnodes {
                points.push((hash64(format!("{node}#{v}").as_bytes()), i as u32));
            }
        }
        // Ties (astronomically unlikely) break by node index, keeping the
        // build deterministic.
        points.sort_unstable();
        Ring {
            nodes,
            vnodes,
            points,
        }
    }

    /// Rebuild from a spec; `ring.spec()` round-trips to an identical
    /// ring (property-tested in `tests/fabric_ring.rs`).
    pub fn from_spec(spec: &RingSpec) -> Ring {
        Ring::build(&spec.nodes, spec.vnodes)
    }

    /// The serializable form of this ring.
    pub fn spec(&self) -> RingSpec {
        RingSpec {
            nodes: self.nodes.clone(),
            vnodes: self.vnodes,
        }
    }

    /// Member endpoints, sorted.
    pub fn nodes(&self) -> &[String] {
        &self.nodes
    }

    /// Number of member nodes (not virtual points).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// A ring with no members routes nothing.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The replica set for `key`: up to `copies` distinct nodes, primary
    /// first, walking clockwise from the key's position. Fewer than
    /// `copies` nodes exist → all of them, still primary-first.
    pub fn route(&self, key: u64, copies: usize) -> Vec<&str> {
        if self.points.is_empty() || copies == 0 {
            return Vec::new();
        }
        let want = copies.min(self.nodes.len());
        let start = self.points.partition_point(|&(h, _)| h < key) % self.points.len();
        let mut picked: Vec<u32> = Vec::with_capacity(want);
        for off in 0..self.points.len() {
            let (_, idx) = self.points[(start + off) % self.points.len()];
            if !picked.contains(&idx) {
                picked.push(idx);
                if picked.len() == want {
                    break;
                }
            }
        }
        picked
            .into_iter()
            .map(|i| self.nodes[i as usize].as_str())
            .collect()
    }

    /// The node that owns `key` (first of [`Ring::route`]).
    pub fn primary(&self, key: u64) -> Option<&str> {
        self.route(key, 1).into_iter().next()
    }

    /// Estimated fraction of the key space each node owns as primary,
    /// by routing `samples` evenly spread probe keys. For `gensor
    /// cluster status`, where "is the ring balanced?" matters more than
    /// exact arc arithmetic.
    pub fn shares(&self, samples: u32) -> Vec<(String, f64)> {
        let samples = samples.max(1);
        let mut counts = vec![0u32; self.nodes.len()];
        for s in 0..samples {
            let key = hash64(&s.to_le_bytes());
            if let Some(primary) = self.primary(key) {
                let idx = self.nodes.iter().position(|n| n == primary).unwrap();
                counts[idx] += 1;
            }
        }
        self.nodes
            .iter()
            .zip(counts)
            .map(|(n, c)| (n.clone(), c as f64 / samples as f64))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nodes(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("tcp://10.0.0.{i}:7070")).collect()
    }

    #[test]
    fn route_returns_distinct_nodes_primary_first() {
        let ring = Ring::build(&nodes(3), DEFAULT_VNODES);
        for k in 0..200u64 {
            let key = hash64(&k.to_le_bytes());
            let set = ring.route(key, 2);
            assert_eq!(set.len(), 2);
            assert_ne!(set[0], set[1]);
            assert_eq!(ring.primary(key), Some(set[0]));
        }
    }

    #[test]
    fn asking_for_more_copies_than_nodes_returns_all_nodes() {
        let ring = Ring::build(&nodes(2), DEFAULT_VNODES);
        let set = ring.route(42, 5);
        assert_eq!(set.len(), 2);
    }

    #[test]
    fn empty_ring_routes_nothing() {
        let ring = Ring::build(&[], DEFAULT_VNODES);
        assert!(ring.is_empty());
        assert!(ring.route(42, 2).is_empty());
        assert_eq!(ring.primary(42), None);
    }

    #[test]
    fn build_is_order_insensitive_and_dedups() {
        let mut shuffled = nodes(4);
        shuffled.reverse();
        shuffled.push(shuffled[0].clone());
        let a = Ring::build(&nodes(4), 32);
        let b = Ring::build(&shuffled, 32);
        assert_eq!(a.nodes(), b.nodes());
        for k in 0..100u64 {
            assert_eq!(a.route(k, 2), b.route(k, 2));
        }
    }

    #[test]
    fn shares_are_roughly_balanced() {
        let ring = Ring::build(&nodes(4), DEFAULT_VNODES);
        for (node, share) in ring.shares(4096) {
            assert!(
                (0.10..=0.45).contains(&share),
                "{node} owns {share:.3} of the ring — vnodes are not smoothing"
            );
        }
    }

    #[test]
    fn removing_one_node_only_remaps_its_own_keys() {
        let all = nodes(4);
        let ring4 = Ring::build(&all, DEFAULT_VNODES);
        let ring3 = Ring::build(&all[..3], DEFAULT_VNODES);
        let samples = 2000u64;
        let mut moved = 0u64;
        for k in 0..samples {
            let key = hash64(&k.to_le_bytes());
            let before = ring4.primary(key).unwrap();
            let after = ring3.primary(key).unwrap();
            if before == all[3] {
                // Keys the dead node owned must move somewhere live.
                assert_ne!(after, all[3]);
            } else {
                // Everyone else's keys stay put — the consistent-hash
                // guarantee `hash % N` cannot give.
                assert_eq!(before, after, "key {k} moved off a surviving node");
                continue;
            }
            moved += 1;
        }
        let frac = moved as f64 / samples as f64;
        assert!(
            (0.15..=0.40).contains(&frac),
            "expected ~1/4 of keys to move, got {frac:.3}"
        );
    }
}
