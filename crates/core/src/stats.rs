//! Operational counters for a koshad instance.
//!
//! The paper's prototype was evaluated by external measurement only;
//! production operators need visibility into what the daemon is doing.
//! Each counter is a handle into the node's [`kosha_obs::Registry`]
//! (named `kosha_*_total`), so the same numbers appear in the node's
//! Prometheus-style exposition and in [`crate::KoshaNode::stats`]
//! snapshots. They are updated by the client-side interposition layer
//! and the primary-side replica manager; tests also use them to assert
//! that a scenario exercised the intended mechanism, e.g. that a
//! failover actually promoted a replica rather than finding the data by
//! luck.

use kosha_obs::{Counter, Obs};
use std::sync::Arc;

/// Monotonic counters describing a node's Kosha activity. Handles into
/// the owning node's metric registry; bump with `stats.failovers.inc()`.
#[derive(Debug)]
pub struct KoshaStats {
    /// Virtual-filesystem operations served by this koshad to local
    /// applications (`kosha_fs_ops_total`).
    pub fs_ops: Arc<Counter>,
    /// Failovers performed: a node was declared dead and cached
    /// locations were rebound (§4.4; `kosha_failovers_total`).
    pub failovers: Arc<Counter>,
    /// Replica-to-primary promotions performed on this node (§4.4;
    /// `kosha_promotions_total`).
    pub promotions: Arc<Counter>,
    /// Anchors migrated *away* to a new owner (§4.3.1;
    /// `kosha_migrations_out_total`).
    pub migrations_out: Arc<Counter>,
    /// Full replica pushes completed to neighbor nodes (§4.2;
    /// `kosha_replica_pushes_total`).
    pub replica_pushes: Arc<Counter>,
    /// Full replica pushes skipped because the anchor's content digest
    /// and target set matched the last acknowledged push
    /// (`kosha_replica_push_skips_total`).
    pub replica_push_skips: Arc<Counter>,
    /// Anchors pulled from a neighbor's replica area because this node
    /// became owner without holding a copy
    /// (`kosha_replica_pulls_total`).
    pub replica_pulls: Arc<Counter>,
    /// Directory-placement redirections caused by full nodes (§3.3;
    /// `kosha_redirections_total`).
    pub redirections: Arc<Counter>,
    /// READs served from a replica instead of the primary (§4.2's
    /// read-spreading optimization; `kosha_replica_reads_total`).
    pub replica_reads: Arc<Counter>,
    /// Ops enqueued on write-behind replica queues instead of being
    /// mirrored synchronously, counted per target queue — the same unit
    /// as [`KoshaStats::writeback_flushed_ops`]
    /// (`kosha_writeback_enqueued_total`).
    pub writeback_enqueued: Arc<Counter>,
    /// Write-behind flush rounds completed (one per barrier or pump
    /// tick that found queued ops; `kosha_writeback_flushes_total`).
    pub writeback_flushes: Arc<Counter>,
    /// Replica ops actually shipped by write-behind flushes, after
    /// coalescing (`kosha_writeback_flushed_ops_total`). The coalesce
    /// ratio is `writeback_enqueued / writeback_flushed_ops`.
    pub writeback_flushed_ops: Arc<Counter>,
    /// Queued ops eliminated by coalescing before a flush
    /// (`kosha_writeback_coalesced_ops_total`).
    pub writeback_coalesced_ops: Arc<Counter>,
    /// Replica-lag events: a write-behind queue was dropped on an
    /// unreachable target, or a promotion found a lag marker — either
    /// way the divergence was journaled rather than silently served
    /// (`kosha_replica_lag_total`).
    pub replica_lag_events: Arc<Counter>,
    /// Stale replica slots garbage-collected by the maintenance pass:
    /// the anchor's owner confirmed this node is no longer a replica
    /// target, so the leftover copy was dropped
    /// (`kosha_replica_gc_total`).
    pub replica_gc: Arc<Counter>,
    /// Heat-driven hot-copy pushes: an object crossed the configured
    /// heat threshold and the primary placed an extra read-only cached
    /// copy beyond K (DESIGN.md §16; `kosha_hot_pushes_total`).
    pub hot_pushes: Arc<Counter>,
    /// Hot copies dropped: heat decayed below the shed threshold, the
    /// object was removed, or a holder left the candidate set
    /// (`kosha_hot_drops_total`).
    pub hot_drops: Arc<Counter>,
    /// Lease invalidations: a mutation to a hot object immediately
    /// voided its outstanding hot-copy leases so no reader can see
    /// pre-write data (`kosha_hot_lease_invalidations_total`).
    pub hot_lease_invalidations: Arc<Counter>,
}

/// A plain-value snapshot of [`KoshaStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StatsSnapshot {
    /// See [`KoshaStats::fs_ops`].
    pub fs_ops: u64,
    /// See [`KoshaStats::failovers`].
    pub failovers: u64,
    /// See [`KoshaStats::promotions`].
    pub promotions: u64,
    /// See [`KoshaStats::migrations_out`].
    pub migrations_out: u64,
    /// See [`KoshaStats::replica_pushes`].
    pub replica_pushes: u64,
    /// See [`KoshaStats::replica_push_skips`].
    pub replica_push_skips: u64,
    /// See [`KoshaStats::replica_pulls`].
    pub replica_pulls: u64,
    /// See [`KoshaStats::redirections`].
    pub redirections: u64,
    /// See [`KoshaStats::replica_reads`].
    pub replica_reads: u64,
    /// See [`KoshaStats::writeback_enqueued`].
    pub writeback_enqueued: u64,
    /// See [`KoshaStats::writeback_flushes`].
    pub writeback_flushes: u64,
    /// See [`KoshaStats::writeback_flushed_ops`].
    pub writeback_flushed_ops: u64,
    /// See [`KoshaStats::writeback_coalesced_ops`].
    pub writeback_coalesced_ops: u64,
    /// See [`KoshaStats::replica_lag_events`].
    pub replica_lag_events: u64,
    /// See [`KoshaStats::replica_gc`].
    pub replica_gc: u64,
    /// See [`KoshaStats::hot_pushes`].
    pub hot_pushes: u64,
    /// See [`KoshaStats::hot_drops`].
    pub hot_drops: u64,
    /// See [`KoshaStats::hot_lease_invalidations`].
    pub hot_lease_invalidations: u64,
}

impl KoshaStats {
    /// Resolves (or creates) every counter in `obs`'s registry.
    #[must_use]
    pub fn new(obs: &Obs) -> Self {
        let c = |name: &str| obs.registry.counter(name);
        KoshaStats {
            fs_ops: c("kosha_fs_ops_total"),
            failovers: c("kosha_failovers_total"),
            promotions: c("kosha_promotions_total"),
            migrations_out: c("kosha_migrations_out_total"),
            replica_pushes: c("kosha_replica_pushes_total"),
            replica_push_skips: c("kosha_replica_push_skips_total"),
            replica_pulls: c("kosha_replica_pulls_total"),
            redirections: c("kosha_redirections_total"),
            replica_reads: c("kosha_replica_reads_total"),
            writeback_enqueued: c("kosha_writeback_enqueued_total"),
            writeback_flushes: c("kosha_writeback_flushes_total"),
            writeback_flushed_ops: c("kosha_writeback_flushed_ops_total"),
            writeback_coalesced_ops: c("kosha_writeback_coalesced_ops_total"),
            replica_lag_events: c("kosha_replica_lag_total"),
            replica_gc: c("kosha_replica_gc_total"),
            hot_pushes: c("kosha_hot_pushes_total"),
            hot_drops: c("kosha_hot_drops_total"),
            hot_lease_invalidations: c("kosha_hot_lease_invalidations_total"),
        }
    }

    /// Takes a point-in-time snapshot.
    #[must_use]
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            fs_ops: self.fs_ops.get(),
            failovers: self.failovers.get(),
            promotions: self.promotions.get(),
            migrations_out: self.migrations_out.get(),
            replica_pushes: self.replica_pushes.get(),
            replica_push_skips: self.replica_push_skips.get(),
            replica_pulls: self.replica_pulls.get(),
            redirections: self.redirections.get(),
            replica_reads: self.replica_reads.get(),
            writeback_enqueued: self.writeback_enqueued.get(),
            writeback_flushes: self.writeback_flushes.get(),
            writeback_flushed_ops: self.writeback_flushed_ops.get(),
            writeback_coalesced_ops: self.writeback_coalesced_ops.get(),
            replica_lag_events: self.replica_lag_events.get(),
            replica_gc: self.replica_gc.get(),
            hot_pushes: self.hot_pushes.get(),
            hot_drops: self.hot_drops.get(),
            hot_lease_invalidations: self.hot_lease_invalidations.get(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reflects_bumps() {
        let obs = Obs::new();
        let s = KoshaStats::new(&obs);
        s.promotions.inc();
        s.promotions.inc();
        s.fs_ops.inc();
        let snap = s.snapshot();
        assert_eq!(snap.promotions, 2);
        assert_eq!(snap.fs_ops, 1);
        assert_eq!(snap.failovers, 0);
    }

    #[test]
    fn counters_surface_in_the_registry() {
        let obs = Obs::new();
        let s = KoshaStats::new(&obs);
        s.failovers.inc();
        assert_eq!(obs.registry.counter("kosha_failovers_total").get(), 1);
        let text = obs.registry.render();
        assert!(text.contains("kosha_failovers_total 1"), "{text}");
    }
}
