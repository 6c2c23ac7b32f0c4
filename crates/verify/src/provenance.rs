//! Schedule provenance: where a schedule came from, and what the trust
//! policy demands before it may be banked, served, or executed.
//!
//! Construction keeps schedules legal *inside* one process; every edge
//! where a schedule crosses into the process — the on-disk store, a
//! fabric peer — is a trust boundary. The policy table below is
//! deliberately tiny and total: each provenance maps to exactly one
//! [`Requirement`], every banking site names its provenance, and a
//! rejection at any boundary increments both the global
//! `gensor_verify_rejected_total` and a per-provenance counter so audits
//! can see *which* boundary is letting bad schedules arrive.
//!
//! Verdict-cache hits satisfy `FullVerify`: the cache is keyed by the
//! schedule's content, operator and target fingerprints (× verifier
//! epoch), so a hit is a proof about these exact bytes — a tampered
//! schedule misses the cache into a fresh run. See
//! [`crate::verdict::VerdictCache`].

/// Where a schedule came from when it reached a banking site.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Provenance {
    /// Constructed by this process's own tuner in this session.
    Local,
    /// Loaded from the persistent on-disk schedule store.
    Store,
    /// Received from a fabric peer (read-repair, write-through, or a
    /// remote compile answer).
    RemotePeer,
}

/// What the policy demands of a schedule with a given provenance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Requirement {
    /// The producing pipeline already proves legality; verification is
    /// an audit of our own machinery (still run — it is cheap under the
    /// verdict cache — but a failure indicates a bug, not an attack).
    Audit,
    /// The schedule crossed a trust boundary: full verification is
    /// mandatory before banking or serving. Content-fingerprint verdict
    /// hits qualify; transport checksums and peer reputation do not.
    FullVerify,
}

impl Provenance {
    /// The complete policy table, in declaration order.
    pub const TABLE: [(Provenance, Requirement); 3] = [
        (Provenance::Local, Requirement::Audit),
        (Provenance::Store, Requirement::FullVerify),
        (Provenance::RemotePeer, Requirement::FullVerify),
    ];

    /// This provenance's row of the table.
    pub fn requirement(self) -> Requirement {
        match self {
            Provenance::Local => Requirement::Audit,
            Provenance::Store | Provenance::RemotePeer => Requirement::FullVerify,
        }
    }

    /// Stable lower-case label for logs and metrics.
    pub fn label(self) -> &'static str {
        match self {
            Provenance::Local => "local",
            Provenance::Store => "store",
            Provenance::RemotePeer => "remote_peer",
        }
    }

    /// Count a verifier rejection at this boundary: the per-provenance
    /// audit counter, alongside the global rejected counter the
    /// verifier itself bumps.
    pub fn count_rejected(self) {
        match self {
            Provenance::Local => obs::counter_inc!(
                "gensor_verify_rejected_local_total",
                "Schedules of local provenance rejected by the verifier"
            ),
            Provenance::Store => obs::counter_inc!(
                "gensor_verify_rejected_store_total",
                "Schedules loaded from the store rejected by the verifier"
            ),
            Provenance::RemotePeer => obs::counter_inc!(
                "gensor_verify_rejected_remote_total",
                "Schedules from fabric peers rejected by the verifier"
            ),
        }
    }
}

impl std::fmt::Display for Provenance {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// The rendered policy table (docs, `gensor lint --explain` footer).
pub struct BoundaryPolicy;

impl BoundaryPolicy {
    /// Human rendering of [`Provenance::TABLE`].
    pub fn render() -> String {
        let mut out = String::from("provenance      requirement\n");
        for (p, r) in Provenance::TABLE {
            let req = match r {
                Requirement::Audit => "audit (own pipeline; failure = bug)",
                Requirement::FullVerify => "full verify (verdict-cache hits qualify)",
            };
            out.push_str(&format!("{:<15} {req}\n", p.label()));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_table_is_total_and_untrusting() {
        for (p, r) in Provenance::TABLE {
            assert_eq!(p.requirement(), r, "table row matches the function");
        }
        // Every boundary that crosses the process edge demands a proof.
        for p in [Provenance::Store, Provenance::RemotePeer] {
            assert_eq!(p.requirement(), Requirement::FullVerify);
        }
        assert_eq!(Provenance::Local.requirement(), Requirement::Audit);
    }

    #[test]
    fn rendered_table_names_every_provenance() {
        let t = BoundaryPolicy::render();
        for (p, _) in Provenance::TABLE {
            assert!(t.contains(p.label()), "{t}");
        }
    }
}
