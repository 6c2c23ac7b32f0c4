//! `fabric` — the distributed schedule-cache fabric.
//!
//! N `gensor serve` daemons become one logical schedule cache: each
//! cache key is owned by a primary daemon plus R−1 replicas chosen on a
//! consistent-hash ring over the existing cache-key fingerprints, so
//! every client in the fleet routes the same operator to the same
//! daemons and the fleet-wide hit rate approaches a single shared
//! cache's. See DESIGN.md §13 for the architecture and failure model.
//!
//! Layers:
//! * [`ring`] — ketama-style consistent-hash ring with virtual nodes;
//!   serializable as a [`RingSpec`], rebuilt deterministically.
//! * [`membership`] — static peer list + one circuit breaker per peer,
//!   the only place peer health is held; the routing ring is over *live*
//!   peers and rebuilds when one dies or recovers.
//! * [`repair`] — digest repair: shard-fingerprint digests compared
//!   peer-to-peer, only missing entries streamed, every pulled kernel
//!   re-verified at the `RemotePeer` trust boundary. A daemon started
//!   with peers runs one pass at start-up; `gensor cluster repair`
//!   converges the whole fleet on demand.
//! * [`router`] — [`FabricClient`], the [`simgpu::Tuner`]-shaped client:
//!   primary read, replica failover, write-through replication that
//!   doubles as read-repair, local fallback when the fabric is gone.
//! * [`status`] — the `gensor cluster status` probe.
//! * [`metrics_agg`] — the `gensor cluster metrics` scrape: every peer's
//!   Prometheus exposition merged with per-peer labels and fleet-level
//!   histogram percentiles.
//!
//! See DESIGN.md §13 for routing and §16 for digest repair (digest
//! format and the repair trust policy).

pub mod membership;
pub mod metrics_agg;
pub mod repair;
pub mod ring;
pub mod router;
pub mod status;

pub use membership::Membership;
pub use metrics_agg::{cluster_metrics, ClusterMetrics, FleetHistogram, PeerScrape};
pub use repair::{
    converge_cluster, spawn_startup_sync, sync_from_peers, ConvergeReport, RepairReport,
};
pub use ring::{hash64, ring_key, Ring, RingSpec, DEFAULT_VNODES};
pub use router::{FabricClient, FabricReport};
pub use status::{cluster_status, ClusterStatus, PeerStatus};
