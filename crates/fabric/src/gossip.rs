//! SWIM-style failure detection and membership dissemination.
//!
//! Each daemon runs a [`Detector`] that probes its peers once per
//! gossip interval. A probe is itself a `Gossip` frame — the answer
//! both proves the peer alive and piggybacks membership updates
//! in each direction, so there is no separate dissemination channel. A
//! peer that does not answer gets one more chance through up to
//! `indirect_probes` relays (`PingReq`): a relay that can still reach
//! the target refutes the suspicion, which keeps an asymmetric partition
//! between *us* and the target from being promoted to a cluster-wide
//! death sentence.
//!
//! Membership state is the classic alive → suspect → dead lattice with
//! per-member incarnation numbers:
//!
//! * a higher incarnation always wins (it is strictly newer knowledge);
//! * at equal incarnations `Dead > Suspect > Alive` (the stronger claim
//!   wins, so rumours cannot resurrect a confirmed-dead peer);
//! * a node that hears *itself* called suspect or dead refutes by
//!   bumping its own incarnation, which outranks the rumour everywhere
//!   it has spread.
//!
//! A peer seen alive again after being confirmed dead is a *rejoin*:
//! the table records it so the detector can trigger an anti-entropy
//! [`crate::repair`] pass, and the routing ring rebuilds over the new
//! live set (see [`crate::membership::Membership::set_gossip`]).

use crate::repair;
use schedcache::ScheduleCache;
use served::{Client, ClientConfig, ClusterAgent, WireMember};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// The failpoint site the detector polls before every direct probe; an
/// armed policy simulates a network partition (the probe is "lost"
/// without a packet ever leaving the process).
pub const PARTITION_SITE: &str = "fabric.gossip.partition";

/// One member's health in the SWIM lattice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum MemberState {
    /// Answering probes (or vouched for by a relay).
    Alive,
    /// Missed a probe round; the suspicion timer is running.
    Suspect,
    /// Suspicion timed out, or a peer disseminated a confirmed death.
    Dead,
}

impl MemberState {
    /// The wire spelling (`WireMember::state`).
    pub fn as_str(&self) -> &'static str {
        match self {
            MemberState::Alive => "alive",
            MemberState::Suspect => "suspect",
            MemberState::Dead => "dead",
        }
    }

    /// Parse the wire spelling; unknown strings are treated as
    /// `Suspect` (cautious, recoverable either way).
    pub fn parse(s: &str) -> MemberState {
        match s {
            "alive" => MemberState::Alive,
            "dead" => MemberState::Dead,
            _ => MemberState::Suspect,
        }
    }
}

/// What the table knows about one peer.
#[derive(Debug, Clone)]
pub struct MemberInfo {
    pub state: MemberState,
    /// The member's incarnation as last heard; refutations bump it.
    pub incarnation: u64,
    /// Wall-clock seconds of the last state transition (for operators).
    pub since_unix_s: u64,
    /// Local monotonic clock of the last transition (for the suspicion
    /// timeout — wall clocks of other machines are not comparable).
    since: Instant,
}

fn unix_now() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0)
}

/// Does a claim `(new_state, new_inc)` override `(old_state, old_inc)`?
/// Higher incarnation always wins; at equal incarnations the stronger
/// state wins (`Dead > Suspect > Alive`).
fn overrides(new_state: MemberState, new_inc: u64, old_state: MemberState, old_inc: u64) -> bool {
    new_inc > old_inc || (new_inc == old_inc && new_state > old_state)
}

/// The shared membership table: what this daemon believes about every
/// peer, merged from its own probes and from gossip. Implements
/// [`served::ClusterAgent`] so the serve loop answers `Gossip` /
/// `Members` frames straight out of it.
pub struct MemberTable {
    me: String,
    /// Our own incarnation; bumped to refute rumours about us.
    incarnation: AtomicU64,
    members: Mutex<HashMap<String, MemberInfo>>,
    /// Bumped on every confirmed liveness change (into or out of
    /// `Dead`) — the signal [`crate::membership::Membership`] folds into
    /// its ring signature.
    generation: AtomicU64,
    /// Peers seen alive again after being confirmed dead, drained by the
    /// detector to trigger anti-entropy repair.
    rejoined: Mutex<Vec<String>>,
}

impl MemberTable {
    /// A table for daemon `me` over its configured `peers` (which may
    /// include `me`; it is skipped). Everyone starts `Alive` — the first
    /// missed probe demotes, which is cheaper than making every cold
    /// start look like a mass failure.
    pub fn new(me: &str, peers: &[String]) -> Arc<MemberTable> {
        let now = Instant::now();
        let unix = unix_now();
        let members = peers
            .iter()
            .filter(|p| p.as_str() != me)
            .map(|p| {
                (
                    p.clone(),
                    MemberInfo {
                        state: MemberState::Alive,
                        incarnation: 0,
                        since_unix_s: unix,
                        since: now,
                    },
                )
            })
            .collect();
        Arc::new(MemberTable {
            me: me.to_string(),
            incarnation: AtomicU64::new(0),
            members: Mutex::new(members),
            generation: AtomicU64::new(0),
            rejoined: Mutex::new(Vec::new()),
        })
    }

    /// This daemon's own endpoint.
    pub fn me(&self) -> &str {
        &self.me
    }

    /// Our current incarnation.
    pub fn incarnation(&self) -> u64 {
        self.incarnation.load(Ordering::SeqCst)
    }

    /// Monotone counter of confirmed liveness changes (dead ↔ not-dead).
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::SeqCst)
    }

    /// Every tracked peer with its current info, sorted by endpoint.
    pub fn snapshot(&self) -> Vec<(String, MemberInfo)> {
        let g = self.members.lock().unwrap_or_else(|p| p.into_inner());
        let mut v: Vec<_> = g.iter().map(|(k, i)| (k.clone(), i.clone())).collect();
        drop(g);
        v.sort_by(|a, b| a.0.cmp(&b.0));
        v
    }

    /// Peers currently confirmed dead.
    pub fn dead_peers(&self) -> Vec<String> {
        let g = self.members.lock().unwrap_or_else(|p| p.into_inner());
        let mut v: Vec<String> = g
            .iter()
            .filter(|(_, i)| i.state == MemberState::Dead)
            .map(|(k, _)| k.clone())
            .collect();
        v.sort();
        v
    }

    /// Peers currently believed reachable (alive or merely suspect).
    pub fn routable_peers(&self) -> Vec<String> {
        let g = self.members.lock().unwrap_or_else(|p| p.into_inner());
        let mut v: Vec<String> = g
            .iter()
            .filter(|(_, i)| i.state != MemberState::Dead)
            .map(|(k, _)| k.clone())
            .collect();
        v.sort();
        v
    }

    /// Drain the rejoin queue (peers that came back from `Dead`).
    pub fn take_rejoined(&self) -> Vec<String> {
        std::mem::take(&mut *self.rejoined.lock().unwrap_or_else(|p| p.into_inner()))
    }

    /// The full membership in wire form, ourselves included (always
    /// alive, by construction: we are the one speaking).
    pub fn wire_members(&self) -> Vec<WireMember> {
        let mut out = vec![WireMember {
            endpoint: self.me.clone(),
            state: MemberState::Alive.as_str().to_string(),
            incarnation: self.incarnation(),
            since_unix_s: unix_now(),
        }];
        let g = self.members.lock().unwrap_or_else(|p| p.into_inner());
        out.extend(g.iter().map(|(ep, i)| WireMember {
            endpoint: ep.clone(),
            state: i.state.as_str().to_string(),
            incarnation: i.incarnation,
            since_unix_s: i.since_unix_s,
        }));
        drop(g);
        out.sort_by(|a, b| a.endpoint.cmp(&b.endpoint));
        out
    }

    /// Apply one claim about `endpoint`. Returns true when it changed
    /// the stored state. All side effects (generation bump, counters,
    /// rejoin queue) happen here so every path agrees.
    fn apply(&self, endpoint: &str, state: MemberState, incarnation: u64) -> bool {
        if endpoint == self.me {
            // A rumour about *us*. Being called alive is trivially true;
            // suspect/dead we refute by outranking the rumour's
            // incarnation, which wins the merge on every peer it reaches.
            if state != MemberState::Alive {
                let cur = self.incarnation.load(Ordering::SeqCst);
                if incarnation >= cur {
                    self.incarnation.store(incarnation + 1, Ordering::SeqCst);
                    obs::counter_inc!(
                        "gensor_fabric_gossip_refutations_total",
                        "Suspect/dead rumours about this daemon refuted by an incarnation bump"
                    );
                    obs::log!(
                        Info,
                        "gossip: refuting '{}' rumour about {} (incarnation {} -> {})",
                        state.as_str(),
                        self.me,
                        incarnation,
                        incarnation + 1
                    );
                }
            }
            return false;
        }
        let mut g = self.members.lock().unwrap_or_else(|p| p.into_inner());
        let now = Instant::now();
        let entry = g.entry(endpoint.to_string()).or_insert_with(|| {
            // A peer we did not know about — gossip discovered it.
            MemberInfo {
                state,
                incarnation,
                since_unix_s: unix_now(),
                since: now,
            }
        });
        if entry.state == state && entry.incarnation >= incarnation {
            return false;
        }
        if !overrides(state, incarnation, entry.state, entry.incarnation) {
            return false;
        }
        let old = entry.state;
        entry.state = state;
        entry.incarnation = incarnation.max(entry.incarnation);
        if old != state {
            entry.since = now;
            entry.since_unix_s = unix_now();
        }
        drop(g);
        if old != state {
            self.transition(endpoint, old, state);
        }
        old != state
    }

    /// Count, log, and propagate one state transition's consequences.
    fn transition(&self, endpoint: &str, old: MemberState, new: MemberState) {
        obs::log!(
            Info,
            "gossip: {endpoint} {} -> {}",
            old.as_str(),
            new.as_str()
        );
        match new {
            MemberState::Suspect => obs::counter_inc!(
                "gensor_fabric_member_suspect_total",
                "Peers demoted to suspect after a missed probe round"
            ),
            MemberState::Dead => obs::counter_inc!(
                "gensor_fabric_member_dead_total",
                "Peers confirmed dead after the suspicion timeout"
            ),
            MemberState::Alive => {
                if old == MemberState::Dead {
                    obs::counter_inc!(
                        "gensor_fabric_member_rejoined_total",
                        "Peers seen alive again after being confirmed dead"
                    );
                    self.rejoined
                        .lock()
                        .unwrap_or_else(|p| p.into_inner())
                        .push(endpoint.to_string());
                }
            }
        }
        // Only confirmed changes move the ring: a suspect peer is still
        // routable (SWIM gives it the suspicion window to refute), so
        // Alive <-> Suspect must not remap key ranges.
        if old == MemberState::Dead || new == MemberState::Dead {
            self.generation.fetch_add(1, Ordering::SeqCst);
        }
    }

    /// Merge a batch of gossiped claims; returns how many changed state.
    pub fn merge(&self, updates: &[WireMember]) -> usize {
        updates
            .iter()
            .filter(|m| self.apply(&m.endpoint, MemberState::parse(&m.state), m.incarnation))
            .count()
    }

    /// A direct observation: `endpoint` answered us just now. Direct
    /// evidence refutes a suspect/dead belief; an already-alive peer
    /// needs nothing (keeping incarnations from inflating every round).
    pub fn observe_alive(&self, endpoint: &str) {
        let inc = {
            let g = self.members.lock().unwrap_or_else(|p| p.into_inner());
            match g.get(endpoint) {
                Some(i) if i.state != MemberState::Alive => i.incarnation,
                Some(_) => return,
                None => 0,
            }
        };
        // Same incarnation would lose to Suspect/Dead in the lattice;
        // an eyewitness outranks the rumour, so claim one higher.
        self.apply(endpoint, MemberState::Alive, inc.saturating_add(1));
    }

    /// A direct observation: `endpoint` missed a probe round (direct and
    /// indirect probes both failed). Alive → Suspect; Suspect and Dead
    /// are left for the timeout sweep / dissemination to handle.
    pub fn observe_unreachable(&self, endpoint: &str) {
        let inc = {
            let g = self.members.lock().unwrap_or_else(|p| p.into_inner());
            match g.get(endpoint) {
                Some(i) if i.state == MemberState::Alive => i.incarnation,
                _ => return,
            }
        };
        self.apply(endpoint, MemberState::Suspect, inc);
    }

    /// Promote suspects whose suspicion timer has run out to dead.
    /// Returns the newly confirmed-dead endpoints.
    pub fn sweep_suspects(&self, timeout: Duration) -> Vec<String> {
        let expired: Vec<(String, u64)> = {
            let g = self.members.lock().unwrap_or_else(|p| p.into_inner());
            g.iter()
                .filter(|(_, i)| i.state == MemberState::Suspect && i.since.elapsed() >= timeout)
                .map(|(k, i)| (k.clone(), i.incarnation))
                .collect()
        };
        expired
            .iter()
            .filter(|(ep, inc)| self.apply(ep, MemberState::Dead, *inc))
            .map(|(ep, _)| ep.clone())
            .collect()
    }
}

impl ClusterAgent for MemberTable {
    fn exchange(&self, from: &str, incarnation: u64, updates: Vec<WireMember>) -> Vec<WireMember> {
        // The sender proved itself alive by speaking; its self-claimed
        // incarnation rides along so the proof outranks stale rumours.
        self.apply(from, MemberState::Alive, incarnation);
        self.merge(&updates);
        self.wire_members()
    }

    fn members(&self) -> Vec<WireMember> {
        self.wire_members()
    }
}

/// Detector timing knobs.
#[derive(Debug, Clone)]
pub struct GossipConfig {
    /// Probe round period.
    pub interval: Duration,
    /// How long a suspect gets to refute before it is confirmed dead.
    pub suspicion_timeout: Duration,
    /// Relays asked to vouch for an unreachable peer before suspecting.
    pub indirect_probes: usize,
    /// Run a full anti-entropy pass every this many rounds (0 = only on
    /// startup and rejoin).
    pub repair_every: u32,
    /// Connection policy for probes — much tighter than a compile
    /// client's, since an unanswered probe must cost a fraction of the
    /// round, not block it.
    pub client: ClientConfig,
}

impl Default for GossipConfig {
    fn default() -> Self {
        GossipConfig {
            interval: Duration::from_secs(1),
            suspicion_timeout: Duration::from_secs(3),
            indirect_probes: 2,
            repair_every: 30,
            client: ClientConfig {
                connect_timeout: Duration::from_millis(300),
                request_timeout: Duration::from_millis(800),
                retries: 1,
                backoff_base: Duration::from_millis(1),
                connect_budget: Duration::from_millis(500),
                token: None,
            },
        }
    }
}

/// The per-daemon probe loop. Owns nothing but references: the table is
/// shared with the serve loop (via [`ClusterAgent`]) and the cache is
/// shared with the compile path.
pub struct Detector {
    table: Arc<MemberTable>,
    cache: Option<Arc<ScheduleCache>>,
    cfg: GossipConfig,
    rounds: AtomicU64,
    /// Set once the startup anti-entropy pass has run.
    synced: AtomicBool,
}

impl Detector {
    pub fn new(table: Arc<MemberTable>, cfg: GossipConfig) -> Detector {
        Detector {
            table,
            cache: None,
            cfg,
            rounds: AtomicU64::new(0),
            synced: AtomicBool::new(false),
        }
    }

    /// Attach the local cache so rejoins (ours and our peers') trigger
    /// anti-entropy repair against the cluster.
    pub fn with_cache(mut self, cache: Arc<ScheduleCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// The table this detector feeds.
    pub fn table(&self) -> &Arc<MemberTable> {
        &self.table
    }

    /// One direct probe: a `Gossip` exchange doubles as the ping.
    /// `Ok` = answered (and membership merged); `Err` = unreachable.
    fn probe(&self, peer: &str) -> Result<(), ()> {
        if faults::armed() && faults::check(PARTITION_SITE).is_some() {
            return Err(()); // simulated partition: the probe is lost
        }
        let mut c = Client::connect_with(peer, self.cfg.client.clone()).map_err(|_| ())?;
        let updates = c
            .gossip(
                self.table.me(),
                self.table.incarnation(),
                self.table.wire_members(),
            )
            .map_err(|_| ())?;
        self.table.merge(&updates);
        Ok(())
    }

    /// Ask up to `indirect_probes` other non-dead peers to vouch for
    /// `target`. Any `PingReqDone { ok: true }` refutes the suspicion.
    fn indirect_probe(&self, target: &str) -> bool {
        let relays: Vec<String> = self
            .table
            .routable_peers()
            .into_iter()
            .filter(|p| p != target)
            .take(self.cfg.indirect_probes)
            .collect();
        for relay in relays {
            let Ok(mut c) = Client::connect_with(&relay, self.cfg.client.clone()) else {
                continue;
            };
            if let Ok(true) = c.ping_req(target) {
                obs::counter_inc!(
                    "gensor_fabric_gossip_indirect_acks_total",
                    "Suspicions refuted by an indirect probe through a relay"
                );
                return true;
            }
        }
        false
    }

    /// One probe round: probe every known peer, sweep expired suspects,
    /// and run anti-entropy when a rejoin (or the schedule) calls for it.
    pub fn tick(&self) {
        let _sp = obs::span!("fabric.gossip.tick", me = self.table.me());
        let peers: Vec<String> = self
            .table
            .snapshot()
            .into_iter()
            .map(|(ep, _)| ep)
            .collect();
        for peer in &peers {
            obs::counter_inc!(
                "gensor_fabric_gossip_probes_total",
                "Direct SWIM probes sent (one per peer per round)"
            );
            match self.probe(peer) {
                Ok(()) => self.table.observe_alive(peer),
                Err(()) => {
                    if self.indirect_probe(peer) {
                        self.table.observe_alive(peer);
                    } else {
                        self.table.observe_unreachable(peer);
                    }
                }
            }
        }
        let newly_dead = self.table.sweep_suspects(self.cfg.suspicion_timeout);
        for ep in &newly_dead {
            obs::event!("fabric.member.dead", endpoint = ep.as_str());
        }
        let rejoined = self.table.take_rejoined();
        for ep in &rejoined {
            obs::event!("fabric.member.rejoined", endpoint = ep.as_str());
        }
        let round = self.rounds.fetch_add(1, Ordering::SeqCst) + 1;
        let scheduled =
            self.cfg.repair_every != 0 && round.is_multiple_of(self.cfg.repair_every as u64);
        let startup = !self.synced.swap(true, Ordering::SeqCst);
        if let Some(cache) = &self.cache {
            if startup || scheduled || !rejoined.is_empty() {
                let peers = self.table.routable_peers();
                let report = repair::sync_from_peers(cache, &peers, &self.cfg.client);
                if report.installed + report.rejected > 0 {
                    obs::log!(
                        Info,
                        "gossip: anti-entropy after {} installed {} (rejected {}) from {} peers",
                        if startup {
                            "startup"
                        } else if rejoined.is_empty() {
                            "schedule"
                        } else {
                            "rejoin"
                        },
                        report.installed,
                        report.rejected,
                        report.peers_contacted
                    );
                }
            }
        }
    }

    /// Run `tick` every `interval` on a background thread until the
    /// returned handle is stopped.
    pub fn spawn(self) -> DetectorHandle {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = stop.clone();
        let interval = self.cfg.interval;
        let join = std::thread::Builder::new()
            .name("gossip-detector".into())
            .spawn(move || {
                while !flag.load(Ordering::SeqCst) {
                    self.tick();
                    // Sleep in small slices so stop() is prompt even
                    // with multi-second intervals.
                    let mut left = interval;
                    while !left.is_zero() && !flag.load(Ordering::SeqCst) {
                        let nap = left.min(Duration::from_millis(50));
                        std::thread::sleep(nap);
                        left = left.saturating_sub(nap);
                    }
                }
            })
            .expect("spawn gossip detector");
        DetectorHandle { stop, join }
    }
}

/// Stop signal + join handle for a spawned [`Detector`].
pub struct DetectorHandle {
    stop: Arc<AtomicBool>,
    join: std::thread::JoinHandle<()>,
}

impl DetectorHandle {
    /// Signal the loop to exit and wait for it.
    pub fn stop(self) {
        self.stop.store(true, Ordering::SeqCst);
        let _ = self.join.join();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> Arc<MemberTable> {
        MemberTable::new(
            "tcp://127.0.0.1:9001",
            &[
                "tcp://127.0.0.1:9001".to_string(),
                "tcp://127.0.0.1:9002".to_string(),
                "tcp://127.0.0.1:9003".to_string(),
            ],
        )
    }

    fn state_of(t: &MemberTable, ep: &str) -> MemberState {
        t.snapshot()
            .into_iter()
            .find(|(e, _)| e == ep)
            .map(|(_, i)| i.state)
            .expect("member tracked")
    }

    #[test]
    fn suspicion_confirms_to_dead_and_rejoin_is_recorded() {
        let t = table();
        let peer = "tcp://127.0.0.1:9002";
        assert_eq!(state_of(&t, peer), MemberState::Alive);
        t.observe_unreachable(peer);
        assert_eq!(state_of(&t, peer), MemberState::Suspect);
        // Zero timeout: the sweep confirms immediately.
        let dead = t.sweep_suspects(Duration::ZERO);
        assert_eq!(dead, vec![peer.to_string()]);
        assert_eq!(t.dead_peers(), vec![peer.to_string()]);
        let gen = t.generation();
        t.observe_alive(peer);
        assert_eq!(state_of(&t, peer), MemberState::Alive);
        assert_eq!(t.take_rejoined(), vec![peer.to_string()]);
        assert!(t.take_rejoined().is_empty(), "rejoin queue drains once");
        assert!(t.generation() > gen, "rejoin is a confirmed change");
    }

    #[test]
    fn suspect_does_not_move_the_confirmed_generation() {
        let t = table();
        let gen = t.generation();
        t.observe_unreachable("tcp://127.0.0.1:9002");
        assert_eq!(t.generation(), gen, "suspect keeps its ring share");
        t.sweep_suspects(Duration::ZERO);
        assert!(t.generation() > gen, "confirmed death moves the ring");
    }

    #[test]
    fn higher_incarnation_wins_and_equal_incarnation_prefers_stronger() {
        let t = table();
        let peer = "tcp://127.0.0.1:9002";
        // Rumour: dead at incarnation 0. Equal incarnation, stronger claim.
        t.merge(&[WireMember {
            endpoint: peer.into(),
            state: "dead".into(),
            incarnation: 0,
            since_unix_s: 0,
        }]);
        assert_eq!(state_of(&t, peer), MemberState::Dead);
        // Alive at the same incarnation loses to dead…
        t.merge(&[WireMember {
            endpoint: peer.into(),
            state: "alive".into(),
            incarnation: 0,
            since_unix_s: 0,
        }]);
        assert_eq!(state_of(&t, peer), MemberState::Dead);
        // …but a bumped incarnation (the peer refuting) wins.
        t.merge(&[WireMember {
            endpoint: peer.into(),
            state: "alive".into(),
            incarnation: 1,
            since_unix_s: 0,
        }]);
        assert_eq!(state_of(&t, peer), MemberState::Alive);
    }

    #[test]
    fn rumours_about_self_are_refuted_with_an_incarnation_bump() {
        let t = table();
        assert_eq!(t.incarnation(), 0);
        t.merge(&[WireMember {
            endpoint: t.me().to_string(),
            state: "suspect".into(),
            incarnation: 0,
            since_unix_s: 0,
        }]);
        assert_eq!(t.incarnation(), 1, "rumour at our incarnation is outranked");
        t.merge(&[WireMember {
            endpoint: t.me().to_string(),
            state: "dead".into(),
            incarnation: 7,
            since_unix_s: 0,
        }]);
        assert_eq!(t.incarnation(), 8);
        // A stale rumour (lower incarnation) needs no refutation.
        t.merge(&[WireMember {
            endpoint: t.me().to_string(),
            state: "dead".into(),
            incarnation: 2,
            since_unix_s: 0,
        }]);
        assert_eq!(t.incarnation(), 8);
    }

    #[test]
    fn exchange_marks_the_sender_alive_and_returns_the_view() {
        let t = table();
        let peer = "tcp://127.0.0.1:9002";
        t.observe_unreachable(peer);
        t.sweep_suspects(Duration::ZERO);
        assert_eq!(state_of(&t, peer), MemberState::Dead);
        let view = t.exchange(peer, 5, vec![]);
        assert_eq!(state_of(&t, peer), MemberState::Alive, "speaking = alive");
        assert_eq!(view.len(), 3, "self + two peers");
        assert!(view
            .iter()
            .any(|m| m.endpoint == t.me() && m.state == "alive"));
        assert_eq!(t.take_rejoined(), vec![peer.to_string()]);
    }

    #[test]
    fn gossip_discovers_unknown_peers() {
        let t = table();
        t.merge(&[WireMember {
            endpoint: "tcp://127.0.0.1:9009".into(),
            state: "alive".into(),
            incarnation: 0,
            since_unix_s: 0,
        }]);
        assert!(t
            .snapshot()
            .iter()
            .any(|(ep, _)| ep == "tcp://127.0.0.1:9009"));
    }

    #[test]
    fn wire_member_state_strings_round_trip() {
        for s in [MemberState::Alive, MemberState::Suspect, MemberState::Dead] {
            assert_eq!(MemberState::parse(s.as_str()), s);
        }
        assert_eq!(MemberState::parse("weird-future"), MemberState::Suspect);
    }
}
