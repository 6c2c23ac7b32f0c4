//! The fabric router: one [`Tuner`]-shaped client over N daemons.
//!
//! [`FabricClient`] routes each compile by its cache-key fingerprint to
//! a primary daemon plus replicas on the consistent-hash ring. Reads go
//! primary-first and fail over along the replica set; a successful
//! remote compile is written through to the other live replicas
//! ([`served::Client::put`]), which doubles as read-repair — a replica
//! that answers "installed" had diverged (missing the key) and is now
//! converged. Peers that stop answering trip their breaker, fall out of
//! the ring, and their key range flows to the survivors; if every peer
//! is down (or refuses our token) the compile falls back to the local
//! tuner. A single daemon is the one-peer case of the same client.
//!
//! Remote answers cross a trust boundary: before a peer's kernel is
//! banked, written through, or returned it is re-verified with
//! [`Provenance::RemotePeer`] (transport integrity says nothing about
//! schedule legality). A content rejection fails over to the next
//! replica without tripping the peer's breaker — the peer is alive,
//! just wrong.

use crate::membership::Membership;
use crate::ring::ring_key;
use hardware::GpuSpec;
use schedcache::CacheKey;
use served::{
    Breaker, BreakerConfig, BreakerState, Client, ClientConfig, ClientError, ErrKind, WireOutcome,
};
use simgpu::{CompiledKernel, Tuner};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use tensor_expr::OpSpec;
use verify::{Provenance, VerdictCache};

/// Where the fabric answered compiles from, and what it did on the way.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FabricReport {
    /// Compiles answered by some daemon in the fabric.
    pub remote: u64,
    /// Compiles that fell back to the in-process tuner.
    pub local: u64,
    /// Remote answers served from a daemon's resident cache.
    pub hits: u64,
    /// Remote answers that ran (or coalesced onto) a construction.
    pub misses: u64,
    /// Compiles answered by a replica after the primary failed.
    pub failovers: u64,
    /// Write-through installs that found a replica missing the key.
    pub repairs: u64,
    /// Remote kernels the verifier refused at the trust boundary —
    /// answered by a peer but never banked, written through, or returned.
    pub rejected: u64,
}

#[derive(Default)]
struct FabricStats {
    remote: AtomicU64,
    local: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    failovers: AtomicU64,
    repairs: AtomicU64,
    rejected: AtomicU64,
}

/// A [`Tuner`] that shards compiles across a cluster of `gensor serve`
/// daemons — the only [`Tuner`] over daemons; one peer is a cluster too.
pub struct FabricClient<'a> {
    membership: Membership,
    cfg: ClientConfig,
    method: String,
    budget: Option<u32>,
    /// Total copies per key: the primary plus `replicas - 1` backups.
    replicas: usize,
    /// Distributed trace context `(trace_id, parent_span)` propagated to
    /// every daemon this client touches; `(0, 0)` = no tracing.
    trace: (u64, u64),
    fallback: &'a dyn Tuner,
    /// Pooled connections, per endpoint.
    pools: Mutex<HashMap<String, Vec<Client>>>,
    stats: FabricStats,
    /// Trust boundary: every kernel a peer hands us is re-verified (as
    /// [`Provenance::RemotePeer`]) before it is banked, written through,
    /// or returned — transport integrity is not schedule legality. The
    /// verdict cache keys on content, so repeated answers for the same
    /// schedule cost one pipeline run.
    verdicts: VerdictCache,
}

impl<'a> FabricClient<'a> {
    /// A fabric client over `peers` for `method`, falling back to
    /// `fallback` when no peer can answer. Default replication factor
    /// is 2 (primary + 1).
    pub fn new(
        peers: &[String],
        method: &str,
        budget: Option<u32>,
        fallback: &'a dyn Tuner,
    ) -> Self {
        FabricClient {
            membership: Membership::new(peers, BreakerConfig::default()),
            cfg: ClientConfig::default(),
            method: method.to_string(),
            budget,
            replicas: 2,
            trace: (0, 0),
            fallback,
            pools: Mutex::new(HashMap::new()),
            stats: FabricStats::default(),
            verdicts: VerdictCache::in_memory(),
        }
    }

    /// Override the connection policy (timeouts, retries, token).
    pub fn with_config(mut self, cfg: ClientConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Override the breaker thresholds (rebuilds the membership, so call
    /// before the first compile).
    pub fn with_breaker(mut self, cfg: BreakerConfig) -> Self {
        let peers = self.membership.peers().to_vec();
        self.membership = Membership::new(&peers, cfg);
        self
    }

    /// Override the replication factor (total copies per key, ≥ 1).
    pub fn with_replicas(mut self, replicas: usize) -> Self {
        self.replicas = replicas.max(1);
        self
    }

    /// Propagate a distributed trace context: every compile and put this
    /// client issues carries `ctx` to the daemon (the remote
    /// `serve.request` spans are stamped with the same trace id), and
    /// the local `fabric.route` span becomes the remote spans' parent.
    pub fn with_trace(mut self, ctx: obs::TraceContext) -> Self {
        self.trace = (ctx.trace_id, ctx.parent_span_id);
        self
    }

    /// The membership (peers, breakers, ring) — for status reporting.
    pub fn membership(&self) -> &Membership {
        &self.membership
    }

    /// Counters so far.
    pub fn report(&self) -> FabricReport {
        FabricReport {
            remote: self.stats.remote.load(Ordering::Relaxed),
            local: self.stats.local.load(Ordering::Relaxed),
            hits: self.stats.hits.load(Ordering::Relaxed),
            misses: self.stats.misses.load(Ordering::Relaxed),
            failovers: self.stats.failovers.load(Ordering::Relaxed),
            repairs: self.stats.repairs.load(Ordering::Relaxed),
            rejected: self.stats.rejected.load(Ordering::Relaxed),
        }
    }

    /// The breaker of a peer the ring routed to.
    fn breaker_of(&self, endpoint: &str) -> &Breaker {
        self.membership
            .breaker(endpoint)
            .expect("the ring is built over configured peers only")
    }

    fn checkout(&self, endpoint: &str, breaker: &Breaker) -> Result<Client, ClientError> {
        if let Some(c) = self
            .pools
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .get_mut(endpoint)
            .and_then(Vec::pop)
        {
            return Ok(c);
        }
        // A half-open breaker means this request *is* the recovery
        // probe: connect exactly once, with a tight budget, instead of
        // the configured retry ladder. One metered probe per cooldown
        // is how a fleet avoids stampeding a daemon that is just
        // getting back on its feet.
        let cfg = if breaker.state() == BreakerState::HalfOpen {
            ClientConfig {
                retries: 1,
                connect_budget: self.cfg.connect_timeout,
                ..self.cfg.clone()
            }
        } else {
            self.cfg.clone()
        };
        Client::connect_with(endpoint, cfg)
    }

    fn checkin(&self, endpoint: &str, client: Client) {
        self.pools
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .entry(endpoint.to_string())
            .or_default()
            .push(client);
    }

    /// Is this a *transport* failure (peer gone / wire broken)? Only
    /// these trip breakers — typed errors prove the peer is alive.
    fn is_transport_failure(e: &ClientError) -> bool {
        matches!(e, ClientError::Unreachable(_) | ClientError::Frame(_))
    }

    fn remote_compile(
        &self,
        endpoint: &str,
        breaker: &Breaker,
        op: &OpSpec,
        spec: &GpuSpec,
        trace: (u64, u64),
    ) -> Result<(CompiledKernel, WireOutcome), ClientError> {
        let mut client = self.checkout(endpoint, breaker)?;
        client.set_trace(trace.0, trace.1);
        match client.compile(op, spec, &self.method, self.budget) {
            Ok(ok) => {
                self.checkin(endpoint, client);
                Ok(ok)
            }
            // The connection may be poisoned (half-read frame, daemon
            // crash); drop it rather than pooling it.
            Err(e) => Err(e),
        }
    }

    /// Write the winning kernel through to every *other* live replica in
    /// `targets`. An `installed` answer means that replica was missing
    /// the key — read-repair in the only freshness model a verify-gated,
    /// insert-only cache needs (present vs absent).
    fn write_through(
        &self,
        targets: &[&str],
        winner: &str,
        op: &OpSpec,
        spec: &GpuSpec,
        kernel: &CompiledKernel,
        trace: (u64, u64),
    ) {
        for &ep in targets.iter().filter(|&&ep| ep != winner) {
            let breaker = self.breaker_of(ep);
            if !breaker.allow() {
                continue;
            }
            let outcome = self.checkout(ep, breaker).and_then(|mut client| {
                client.set_trace(trace.0, trace.1);
                match client.put(op, spec, &self.method, kernel) {
                    Ok(installed) => {
                        self.checkin(ep, client);
                        Ok(installed)
                    }
                    Err(e) => Err(e),
                }
            });
            match outcome {
                Ok(true) => {
                    breaker.on_success();
                    self.stats.repairs.fetch_add(1, Ordering::Relaxed);
                    obs::counter_inc!(
                        "gensor_fabric_repairs_total",
                        "Write-through installs that repaired a replica missing the key"
                    );
                }
                Ok(false) => breaker.on_success(),
                Err(e) if Self::is_transport_failure(&e) => {
                    breaker.on_failure();
                    obs::log!(Debug, "fabric: write-through to {ep} failed: {e}");
                }
                Err(e) => {
                    // A typed refusal (e.g. the replica's verifier
                    // rejected the kernel) is the replica's prerogative;
                    // the peer is alive.
                    breaker.on_success();
                    obs::log!(Warn, "fabric: {ep} refused write-through: {e}");
                }
            }
        }
    }

    fn try_fabric(&self, op: &OpSpec, spec: &GpuSpec) -> Option<CompiledKernel> {
        let cache_key = CacheKey::new(op, spec, &self.method);
        let key = ring_key(&cache_key);
        let ring = self.membership.ring();
        let targets = ring.route(key, self.replicas);
        let _sp = obs::span!(
            "fabric.route",
            op = op.label(),
            copies = targets.len(),
            primary = targets.first().copied().unwrap_or("-"),
            trace = self.trace.0,
            parent = self.trace.1
        );
        // The remote hop's parent is this route span (when tracing is
        // live locally), so the merged view nests serve.request under
        // fabric.route; otherwise the caller's parent carries through.
        let hop = if self.trace.0 == 0 {
            (0, 0)
        } else if _sp.id() != 0 {
            (self.trace.0, _sp.id())
        } else {
            self.trace
        };
        for (rank, &ep) in targets.iter().enumerate() {
            let breaker = self.breaker_of(ep);
            if !breaker.allow() {
                continue;
            }
            match self.remote_compile(ep, breaker, op, spec, hop) {
                Ok((kernel, outcome)) => {
                    // The peer answered, so it is alive regardless of what
                    // it answered with — content problems must not trip
                    // the breaker and mask a reachable-but-corrupt peer.
                    breaker.on_success();
                    let verdict = self.verdicts.verify_as(
                        &kernel.etir,
                        Some((spec, cache_key.gpu_fp)),
                        Provenance::RemotePeer,
                    );
                    if !verdict.is_legal() {
                        self.stats.rejected.fetch_add(1, Ordering::Relaxed);
                        obs::counter_inc!(
                            "gensor_fabric_verifier_rejected_total",
                            "Remote kernels refused by the verifier at the fabric trust boundary"
                        );
                        obs::log!(
                            Warn,
                            "fabric: {ep} answered with an illegal schedule, failing over: {}",
                            verdict.summary()
                        );
                        continue;
                    }
                    if rank > 0 {
                        self.stats.failovers.fetch_add(1, Ordering::Relaxed);
                        obs::counter_inc!(
                            "gensor_fabric_failovers_total",
                            "Compiles answered by a replica after the primary failed"
                        );
                    }
                    if outcome == WireOutcome::Hit {
                        self.stats.hits.fetch_add(1, Ordering::Relaxed);
                        obs::counter_inc!(
                            "gensor_fabric_hits_total",
                            "Fabric compiles answered from a daemon's resident cache"
                        );
                    } else {
                        self.stats.misses.fetch_add(1, Ordering::Relaxed);
                        obs::counter_inc!(
                            "gensor_fabric_misses_total",
                            "Fabric compiles that ran or coalesced onto a construction"
                        );
                    }
                    // Write-through only when the replica set may be
                    // stale: a miss means the kernel was just built and
                    // nobody else has it; a failover means the primary is
                    // suspect. A plain primary hit proves the key is
                    // where routing expects it — repeating the put on
                    // every hit would double the steady-state wire cost.
                    if outcome != WireOutcome::Hit || rank > 0 {
                        self.write_through(&targets, ep, op, spec, &kernel, hop);
                    }
                    return Some(kernel);
                }
                Err(e) if Self::is_transport_failure(&e) => {
                    breaker.on_failure();
                    obs::log!(Debug, "fabric: {ep} unreachable, failing over: {e}");
                }
                Err(ClientError::Remote {
                    kind: ErrKind::Unauthorized,
                    message,
                }) => {
                    // A peer that is alive but refuses our token is a
                    // configuration error; quiet failover would mask it.
                    breaker.on_success();
                    obs::counter_inc!(
                        "gensor_client_auth_failures_total",
                        "Daemon connections refused for a missing or wrong shared token"
                    );
                    obs::log!(Error, "fabric: {ep} refused our token: {message}");
                }
                Err(e) => {
                    breaker.on_success();
                    obs::log!(Warn, "fabric: {ep} answered with an error: {e}");
                }
            }
        }
        None
    }
}

impl Tuner for FabricClient<'_> {
    fn name(&self) -> &'static str {
        self.fallback.name()
    }

    fn compile(&self, op: &OpSpec, spec: &GpuSpec) -> CompiledKernel {
        match self.try_fabric(op, spec) {
            Some(kernel) => {
                self.stats.remote.fetch_add(1, Ordering::Relaxed);
                kernel
            }
            None => {
                self.stats.local.fetch_add(1, Ordering::Relaxed);
                obs::counter_inc!(
                    "gensor_fabric_local_fallback_total",
                    "Fabric compiles answered by the local in-process tuner"
                );
                self.fallback.compile(op, spec)
            }
        }
    }

    fn fuses_elementwise(&self) -> bool {
        self.fallback.fuses_elementwise()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn fast() -> ClientConfig {
        ClientConfig {
            retries: 1,
            backoff_base: Duration::from_millis(1),
            connect_timeout: Duration::from_millis(100),
            ..Default::default()
        }
    }

    /// One transport failure opens the circuit for the rest of the test.
    fn hair_trigger() -> BreakerConfig {
        BreakerConfig {
            failure_threshold: 1,
            cooldown: Duration::from_secs(30),
            max_cooldown: Duration::from_secs(30),
        }
    }

    #[test]
    fn no_peers_means_every_compile_falls_back_local() {
        let gensor = gensor::Gensor::single_chain(5);
        let fabric = FabricClient::new(&[], "gensor", None, &gensor).with_config(fast());
        let op = tensor_expr::OpSpec::gemm(128, 128, 128);
        let spec = GpuSpec::rtx4090();
        let remote = fabric.compile(&op, &spec);
        assert_eq!(remote.etir, gensor.compile(&op, &spec).etir);
        let r = fabric.report();
        assert_eq!((r.remote, r.local), (0, 1));
    }

    #[test]
    fn dead_peers_trip_breakers_and_fall_back() {
        let gensor = gensor::Gensor::single_chain(5);
        let peers = vec![
            "tcp://127.0.0.1:1".to_string(), // reserved port: connect refused
            "tcp://127.0.0.1:2".to_string(),
        ];
        let fabric = FabricClient::new(&peers, "gensor", None, &gensor)
            .with_config(fast())
            .with_breaker(hair_trigger());
        let op = tensor_expr::OpSpec::gemm(64, 64, 64);
        let spec = GpuSpec::rtx4090();
        let _ = fabric.compile(&op, &spec);
        let r = fabric.report();
        assert_eq!(r.local, 1, "both peers dead: compile fell back");
        assert_eq!(
            fabric.membership().open_peers().len(),
            2,
            "both breakers tripped"
        );
        // Second compile: breakers open, no connect attempts, still served.
        let _ = fabric.compile(&op, &spec);
        assert_eq!(fabric.report().local, 2);
    }

    /// A single daemon is a one-peer fabric (what `--remote S` builds):
    /// with nobody listening on the socket path the answer is the local
    /// tuner's, and once the breaker is open a compile costs no connect.
    #[test]
    fn one_unix_socket_peer_without_a_daemon_falls_back_then_skips_the_connect() {
        let gensor = gensor::Gensor::single_chain(5);
        let socket = "/tmp/fabric-test-no-such-daemon.sock".to_string();
        let fabric = FabricClient::new(std::slice::from_ref(&socket), "gensor", None, &gensor)
            .with_config(fast())
            .with_breaker(hair_trigger());
        let op = tensor_expr::OpSpec::gemm(512, 512, 512);
        let spec = GpuSpec::rtx4090();
        let remote = fabric.compile(&op, &spec); // trips the breaker
        assert_eq!(
            remote.etir,
            gensor.compile(&op, &spec).etir,
            "fallback must match local output"
        );
        let r = fabric.report();
        assert_eq!((r.remote, r.local), (0, 1));
        assert_eq!(fabric.membership().open_peers(), vec![socket.as_str()]);
        let _ = fabric.compile(&op, &spec); // open: straight to fallback
        assert_eq!(fabric.report().local, 2, "both compiles fell back");
        let breaker = fabric.membership().breaker(&socket).unwrap();
        assert_eq!(breaker.trips(), 1, "no connect attempt ran while open");
    }
}
