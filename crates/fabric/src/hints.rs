//! Hinted handoff: durable IOUs for writes a dead peer missed.
//!
//! When write-through replication cannot reach a key's owner, the
//! kernel is not dropped — it is queued as a [`Hint`] naming the owner,
//! and replayed (an ordinary idempotent `Put`) once the owner is
//! reachable again. The queue is bounded and, when given a path,
//! durable: each hint is one CRC-framed JSONL line in the same `F1`
//! frame dialect as the schedule store ([`schedcache::store::frame_line`]),
//! so a crash mid-append costs at most the torn last line — which
//! [`HintLog::open`] detects by checksum and truncates, exactly like
//! the store's loader.
//!
//! Replay safety does not need exactly-once delivery from this log:
//! `Put` is idempotent on the receiving daemon (a duplicate answers
//! `installed: false`), so the log only has to guarantee *at-least-once
//! for hints it accepted* and *no resurrection of hints it drained*.

use schedcache::store::{frame_line, replace_file, unframe};
use serde::{Deserialize, Serialize};
use served::WireKernel;
use std::collections::VecDeque;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard};

/// Default bound on queued hints; beyond it new hints are dropped (and
/// counted) rather than growing without limit while a peer stays dead.
pub const DEFAULT_HINT_CAP: usize = 512;

/// One queued write: everything needed to replay `Put` later.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Hint {
    /// The endpoint that owns the key and was unreachable.
    pub target: String,
    pub op: tensor_expr::OpSpec,
    pub gpu: hardware::GpuSpec,
    pub method: String,
    pub kernel: WireKernel,
}

/// The bounded, optionally durable hint queue. The queue mutex is held
/// across every spool write (append or rewrite), so the file's order is
/// the queue's order however many threads share the log — an append can
/// never land on a file a concurrent rewrite is about to replace.
pub struct HintLog {
    path: Option<PathBuf>,
    cap: usize,
    queue: Mutex<VecDeque<Hint>>,
}

impl HintLog {
    /// A purely in-memory queue (clients that want handoff without a
    /// spool directory).
    pub fn in_memory(cap: usize) -> HintLog {
        HintLog {
            path: None,
            cap: cap.max(1),
            queue: Mutex::new(VecDeque::new()),
        }
    }

    /// Open (or create) a durable queue at `path`, recovering every
    /// intact hint. Recovery stops at the first damaged frame — a torn
    /// tail from a crash mid-append — and truncates the file to the
    /// intact prefix, so the damage cannot shadow later appends.
    pub fn open(path: impl Into<PathBuf>, cap: usize) -> std::io::Result<HintLog> {
        let path = path.into();
        let mut queue = VecDeque::new();
        let mut torn = false;
        match fs::read_to_string(&path) {
            Ok(body) => {
                for line in body.lines() {
                    let parsed = match unframe(line) {
                        Ok(Some(payload)) => serde_json::from_str::<Hint>(payload).ok(),
                        // Unframed lines are foreign to this log; treat
                        // them like damage rather than guessing.
                        Ok(None) | Err(()) => None,
                    };
                    match parsed {
                        Some(hint) => queue.push_back(hint),
                        None => {
                            torn = true;
                            break;
                        }
                    }
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(e),
        }
        let log = HintLog {
            path: Some(path),
            cap: cap.max(1),
            queue: Mutex::new(queue),
        };
        if torn {
            obs::counter_inc!(
                "gensor_fabric_hints_truncated_total",
                "Hint-log loads that found and truncated a torn tail"
            );
            obs::log!(
                Warn,
                "hints: torn tail in {}, truncating to {} intact hints",
                log.path.as_deref().unwrap_or(Path::new("-")).display(),
                log.len()
            );
            log.persist(&log.queue())?;
        }
        Ok(log)
    }

    /// Every queue update leaves the queue valid, so a poisoned lock is
    /// recovered rather than propagated.
    fn queue(&self) -> MutexGuard<'_, VecDeque<Hint>> {
        self.queue.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Queued hints right now.
    pub fn len(&self) -> usize {
        self.queue().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Distinct targets with queued hints, sorted.
    pub fn targets(&self) -> Vec<String> {
        let mut v: Vec<String> = self.queue().iter().map(|h| h.target.clone()).collect();
        v.sort();
        v.dedup();
        v
    }

    /// Queue one hint. Returns false (and counts a drop) when the queue
    /// is full — a peer dead long enough to overflow the bound gets
    /// anti-entropy repair on rejoin instead of an unbounded spool.
    pub fn enqueue(&self, hint: Hint) -> bool {
        let mut g = self.queue();
        if g.len() >= self.cap {
            drop(g);
            obs::counter_inc!(
                "gensor_fabric_hints_dropped_total",
                "Hints dropped because the bounded queue was full"
            );
            return false;
        }
        if let Err(e) = self.append(&hint) {
            // The hint survives in memory either way; durability is
            // best-effort once the disk starts failing.
            obs::log!(Warn, "hints: append failed ({e}); hint kept in memory only");
        }
        g.push_back(hint);
        drop(g);
        obs::counter_inc!(
            "gensor_fabric_hints_queued_total",
            "Writes queued for a dead owner (hinted handoff)"
        );
        true
    }

    /// Remove and return every hint for `target` (the caller is about
    /// to replay them). Failed replays should be re-queued with
    /// [`HintLog::requeue`].
    pub fn take(&self, target: &str) -> Vec<Hint> {
        let mut g = self.queue();
        let (keep, take): (VecDeque<Hint>, VecDeque<Hint>) = std::mem::take(&mut *g)
            .into_iter()
            .partition(|h| h.target != target);
        *g = keep;
        if !take.is_empty() {
            if let Err(e) = self.persist(&g) {
                obs::log!(Warn, "hints: compaction after take failed: {e}");
            }
        }
        take.into()
    }

    /// Put back hints whose replay failed (front of the queue, so they
    /// go first next time). Never drops: these were already accepted.
    pub fn requeue(&self, hints: Vec<Hint>) {
        if hints.is_empty() {
            return;
        }
        let mut g = self.queue();
        for h in hints.into_iter().rev() {
            g.push_front(h);
        }
        if let Err(e) = self.persist(&g) {
            obs::log!(Warn, "hints: compaction after requeue failed: {e}");
        }
    }

    /// Append one frame to the spool (durable logs only). The caller holds
    /// the queue lock.
    fn append(&self, hint: &Hint) -> std::io::Result<()> {
        let Some(path) = &self.path else {
            return Ok(());
        };
        faults::failpoint!("fabric.hints.append")?;
        let payload = serde_json::to_string(hint)
            .map_err(|e| std::io::Error::other(format!("hint encode: {e}")))?;
        let mut f = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        f.write_all(frame_line(&payload).as_bytes())?;
        f.sync_data()
    }

    /// Rewrite the spool to match `queue` — the locked in-memory queue —
    /// atomically and durably (the store's [`replace_file`]).
    fn persist(&self, queue: &VecDeque<Hint>) -> std::io::Result<()> {
        let Some(path) = &self.path else {
            return Ok(());
        };
        let mut body = String::new();
        for hint in queue {
            let payload = serde_json::to_string(hint)
                .map_err(|e| std::io::Error::other(format!("hint encode: {e}")))?;
            body.push_str(&frame_line(&payload));
        }
        replace_file(path, body.as_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simgpu::Tuner;

    fn hint(target: &str, m: u64) -> Hint {
        let op = tensor_expr::OpSpec::gemm(m, 64, 64);
        let gpu = hardware::GpuSpec::rtx4090();
        let kernel = gensor::Gensor::single_chain(3).compile(&op, &gpu);
        Hint {
            target: target.to_string(),
            op,
            gpu,
            method: "gensor".into(),
            kernel: WireKernel::from(&kernel),
        }
    }

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("gensor-hints-{}-{name}.jsonl", std::process::id()))
    }

    // Every test that appends to a durable spool holds
    // `faults::exclusive()`: `fabric.hints.append` is a process-global
    // site and one test below arms it.

    #[test]
    fn durable_hints_survive_a_reopen() {
        let _g = faults::exclusive();
        let path = tmp("reopen");
        fs::remove_file(&path).ok();
        let log = HintLog::open(&path, 8).unwrap();
        assert!(log.enqueue(hint("tcp://a", 16)));
        assert!(log.enqueue(hint("tcp://b", 32)));
        drop(log);
        let log = HintLog::open(&path, 8).unwrap();
        assert_eq!(log.len(), 2);
        assert_eq!(log.targets(), vec!["tcp://a".to_string(), "tcp://b".into()]);
        fs::remove_file(&path).ok();
    }

    #[test]
    fn concurrent_spool_writers_never_collide_and_file_order_is_queue_order() {
        let _g = faults::exclusive();
        let path = tmp("concurrent");
        let hints: Vec<Hint> = (0..4).map(|t| hint(&format!("tcp://{t}"), 16)).collect();
        for _round in 0..2 {
            fs::remove_file(&path).ok();
            let log = HintLog::open(&path, usize::MAX).unwrap();
            std::thread::scope(|s| {
                for h in &hints {
                    let log = &log;
                    s.spawn(move || {
                        for _ in 0..25 {
                            assert!(log.enqueue(h.clone()));
                            assert!(log.enqueue(h.clone()));
                            let taken = log.take(&h.target);
                            log.requeue(taken);
                            // `take`/`requeue` only log a failed rewrite;
                            // the same rewrite, asked for directly, must
                            // never lose its tmp file to a sibling.
                            log.persist(&log.queue()).unwrap();
                        }
                    });
                }
            });
            let in_memory: Vec<Hint> = log.queue().iter().cloned().collect();
            assert_eq!(in_memory.len(), 4 * 25 * 2);
            drop(log);
            let reopened = HintLog::open(&path, usize::MAX).unwrap();
            assert!(*reopened.queue() == in_memory, "spool is not the queue");
        }
        fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_is_truncated_to_the_intact_prefix() {
        let _g = faults::exclusive();
        let path = tmp("torn");
        fs::remove_file(&path).ok();
        let log = HintLog::open(&path, 8).unwrap();
        assert!(log.enqueue(hint("tcp://a", 16)));
        assert!(log.enqueue(hint("tcp://a", 32)));
        drop(log);
        // Simulate a crash mid-append: chop the file mid-frame.
        let body = fs::read_to_string(&path).unwrap();
        fs::write(&path, &body[..body.len() - 17]).unwrap();
        let log = HintLog::open(&path, 8).unwrap();
        assert_eq!(log.len(), 1, "torn second frame dropped");
        // The truncation is persistent: a re-open parses cleanly.
        drop(log);
        assert_eq!(HintLog::open(&path, 8).unwrap().len(), 1);
        fs::remove_file(&path).ok();
    }

    #[test]
    fn the_queue_is_bounded_and_drops_are_visible() {
        let log = HintLog::in_memory(2);
        assert!(log.enqueue(hint("tcp://a", 16)));
        assert!(log.enqueue(hint("tcp://a", 32)));
        assert!(!log.enqueue(hint("tcp://a", 48)), "over cap: dropped");
        assert_eq!(log.len(), 2);
    }

    #[test]
    fn take_drains_one_target_and_requeue_restores() {
        let log = HintLog::in_memory(8);
        log.enqueue(hint("tcp://a", 16));
        log.enqueue(hint("tcp://b", 32));
        log.enqueue(hint("tcp://a", 48));
        let taken = log.take("tcp://a");
        assert_eq!(taken.len(), 2);
        assert_eq!(log.targets(), vec!["tcp://b".to_string()]);
        assert!(log.take("tcp://a").is_empty(), "taken means gone");
        log.requeue(taken);
        assert_eq!(log.len(), 3);
        assert_eq!(log.targets(), vec!["tcp://a".to_string(), "tcp://b".into()]);
    }

    #[test]
    fn append_failpoint_keeps_the_hint_in_memory() {
        let _g = faults::exclusive();
        let path = tmp("failpoint");
        fs::remove_file(&path).ok();
        let log = HintLog::open(&path, 8).unwrap();
        faults::arm("fabric.hints.append", faults::Policy::ErrNth(1));
        assert!(log.enqueue(hint("tcp://a", 16)), "accepted despite disk");
        faults::disarm("fabric.hints.append");
        assert_eq!(log.len(), 1);
        // Not on disk (the append failed), so a reopen sees nothing.
        drop(log);
        assert_eq!(HintLog::open(&path, 8).unwrap().len(), 0);
        fs::remove_file(&path).ok();
    }
}
