//! Consistency observatory: online anti-entropy auditing (DESIGN.md §15).
//!
//! The paper argues Kosha provides "transparent replication" (§4.2) but
//! evaluates it only by availability simulation; nothing in the
//! prototype could *measure* how far replicas actually drift from their
//! primaries under churn. This module adds that measurement:
//!
//! * [`slot_summary`] / [`tree_digest`] — a canonical SHA-1 digest over
//!   a slot subtree (internal bookkeeping files excluded), computed
//!   identically for `/kosha_store` and `/kosha_replica` copies, so an
//!   up-to-date replica hashes byte-for-byte equal to its primary;
//! * `KoshaRequest::AuditScan` — each node digests every slot it holds
//!   locally (no nested RPCs, preserving the replica-service deadlock
//!   discipline) and reports one [`AuditEntry`] per copy;
//! * [`audit_cluster`] — the audit pass: fan the scan out to every
//!   node, join replica entries to primary entries by slot, and report
//!   divergence (objects/bytes), under-/over-replication versus the
//!   configured K, orphaned replica slots, outstanding `.kosha_lag`
//!   markers, and in-flight migrations;
//! * [`AuditReport::publish`] — feeds the results into a registry +
//!   flight-recorder domain as `kosha_audit_*` gauges and series, so
//!   divergence-over-time is observable like any other metric.
//!
//! The audit is *advisory*: it never mutates state. Repair remains the
//! job of the existing maintenance paths (`maintain` → `ensure_replicas`
//! full pushes, plus the replica-slot GC that drops copies whose owner
//! no longer counts the holder as a target), whose effect the next
//! audit pass verifies.

use crate::control::{AuditEntry, KoshaReply, KoshaReplyFrame, KoshaRequest};
use crate::node::KoshaNode;
use crate::paths::{anchor_slot, is_internal_name, Area, HOT_MARK, LAG_MARK, MIGRATION_FLAG};
use kosha_id::Sha1;
use kosha_nfs::messages::ReplyFrame;
use kosha_obs::Obs;
use kosha_rpc::{Network, NodeAddr, RpcRequest, ServiceId};
use kosha_vfs::{ExportItem, ExportKind};
use std::collections::BTreeMap;

/// Canonical content summary of one slot subtree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlotSummary {
    /// SHA-1 over the canonical serialization (see [`tree_digest`]).
    pub digest: [u8; 20],
    /// Payload bytes (file contents, sparse sizes, symlink targets).
    pub bytes: u64,
    /// Objects below the slot root, internal files excluded.
    pub files: u64,
    /// A `.kosha_lag` marker sits at the slot root.
    pub lag_marker: bool,
    /// A `MIGRATION_NOT_COMPLETE` flag sits at the slot root.
    pub migrating: bool,
    /// A `.kosha_hot` lease marker sits at the slot root: the slot holds
    /// heat-driven cached copies (DESIGN.md §16), not a durable replica.
    pub hot: bool,
}

/// Whether an exported item is Kosha-internal bookkeeping (`.kosha_anchor`,
/// `.kosha_lag`, `MIGRATION_NOT_COMPLETE`). Internal files are leaves, so
/// checking the final path component suffices.
fn is_internal_item(item: &ExportItem) -> bool {
    item.rel_path
        .rsplit('/')
        .next()
        .is_some_and(is_internal_name)
}

/// SHA-1 digest of a slot subtree's canonical serialization.
///
/// Canonical means: items sorted by relative path (independent of export
/// traversal order), internal bookkeeping files excluded, each item
/// hashed as `rel_path NUL kind-tag payload [mode uid gid] 0xFF`.
/// Directory permission bits are deliberately *excluded*: replica-side
/// directories are materialized with fixed modes by `ReplicaOp::Mkdir`,
/// so including them would report permanent false divergence. File and
/// symlink attributes are mirrored faithfully and are covered.
///
/// Two properties the observatory depends on:
/// * digest(primary slot) == digest(fresh replica slot) after a full
///   push or a drained write-behind window, and
/// * digest is invariant under write-behind coalescing — applying a
///   queued op sequence or its [`crate::writeback::coalesce`]d form
///   yields the same digest (property-tested in `writeback`).
#[must_use]
pub fn tree_digest(items: &[ExportItem]) -> [u8; 20] {
    slot_summary(items).digest
}

/// Computes the full [`SlotSummary`] for an exported slot subtree.
#[must_use]
pub fn slot_summary(items: &[ExportItem]) -> SlotSummary {
    let mut kept: Vec<&ExportItem> = items.iter().filter(|i| !is_internal_item(i)).collect();
    kept.sort_by(|a, b| a.rel_path.cmp(&b.rel_path));
    let mut h = Sha1::new();
    let mut bytes = 0u64;
    let mut files = 0u64;
    for item in &kept {
        h.update(item.rel_path.as_bytes());
        h.update(&[0]);
        match &item.kind {
            ExportKind::Dir => h.update(b"D"),
            ExportKind::Bytes(data) => {
                h.update(b"F");
                h.update(&(data.len() as u64).to_be_bytes());
                h.update(data);
                bytes += data.len() as u64;
            }
            ExportKind::Sparse(n) => {
                h.update(b"S");
                h.update(&n.to_be_bytes());
                bytes += *n;
            }
            ExportKind::Symlink { target } => {
                h.update(b"L");
                h.update(target.as_bytes());
                bytes += target.len() as u64;
            }
        }
        if !matches!(item.kind, ExportKind::Dir) {
            h.update(&item.mode.to_be_bytes());
            h.update(&item.uid.to_be_bytes());
            h.update(&item.gid.to_be_bytes());
        }
        h.update(&[0xff]);
        if !item.rel_path.is_empty() {
            files += 1;
        }
    }
    SlotSummary {
        digest: h.finalize(),
        bytes,
        files,
        lag_marker: items.iter().any(|i| i.rel_path == LAG_MARK),
        migrating: items.iter().any(|i| i.rel_path == MIGRATION_FLAG),
        hot: items.iter().any(|i| i.rel_path == HOT_MARK),
    }
}

impl KoshaNode {
    /// Digests every store and replica slot held locally — the
    /// `AuditScan` handler body. Local state only: no RPCs, so the
    /// control service stays cycle-free when an auditor fans the scan
    /// out to every node at once. Slots are reported in area order
    /// (store first), then slot-name order, deterministically.
    pub(crate) fn audit_scan(&self) -> Vec<AuditEntry> {
        let slot_paths: BTreeMap<String, String> = self
            .anchors
            .lock()
            .keys()
            .map(|p| (anchor_slot(p), p.clone()))
            .collect();
        let mut out = Vec::new();
        for (area, replica) in [(Area::Store, false), (Area::Replica, true)] {
            let root = format!("/{}", area.dir_name());
            let slots: Vec<String> = self.with_store(|v| {
                let Ok((dir, _)) = v.resolve(&root) else {
                    return Vec::new();
                };
                v.readdir(dir)
                    .map(|entries| {
                        entries
                            .into_iter()
                            .filter(|e| e.name.starts_with('@'))
                            .map(|e| e.name)
                            .collect()
                    })
                    .unwrap_or_default()
            });
            for slot in slots {
                let slot_path = format!("{root}/{slot}");
                let Some(summary) = self.with_store(|v| {
                    v.export_tree(&slot_path)
                        .ok()
                        .map(|items| slot_summary(&items))
                }) else {
                    continue;
                };
                out.push(AuditEntry {
                    path: if replica {
                        String::new()
                    } else {
                        slot_paths.get(&slot).cloned().unwrap_or_default()
                    },
                    slot,
                    replica,
                    digest: Sha1::hex(&summary.digest),
                    bytes: summary.bytes,
                    files: summary.files,
                    lag_marker: summary.lag_marker,
                    migrating: summary.migrating,
                    hot: summary.hot,
                });
            }
        }
        // A scan is also the freshest possible lag-marker census; keep
        // the gauge in step with what we just observed.
        let lag = out.iter().filter(|e| e.replica && e.lag_marker).count();
        self.obs
            .registry
            .gauge("kosha_replica_lag_markers")
            .set(lag as i64);
        out
    }

    /// Refreshes the `kosha_replica_lag_markers` gauge: counts the
    /// `.kosha_lag` markers currently stamped on this node's replica
    /// slots. Called from the node's flight-recorder sampler tick so the
    /// gauge (and its recorder series) tracks outstanding write-behind
    /// windows without waiting for an audit pass.
    pub fn refresh_lag_marker_gauge(&self) -> u64 {
        let root = format!("/{}", Area::Replica.dir_name());
        let count = self.with_store(|v| {
            let Ok((dir, _)) = v.resolve(&root) else {
                return 0u64;
            };
            let Ok(entries) = v.readdir(dir) else {
                return 0u64;
            };
            entries
                .iter()
                .filter(|e| {
                    e.name.starts_with('@')
                        && v.resolve(&format!("{root}/{}/{LAG_MARK}", e.name)).is_ok()
                })
                .count() as u64
        });
        self.obs
            .registry
            .gauge("kosha_replica_lag_markers")
            .set(count as i64);
        count
    }
}

/// Tuning for [`audit_cluster`].
#[derive(Debug, Clone)]
pub struct AuditOptions {
    /// The deployment's replica count K ([`crate::KoshaConfig::replicas`]):
    /// the baseline under-/over-replication is judged against.
    pub replicas: usize,
    /// How many divergent/orphaned slot names to retain as examples.
    pub max_examples: usize,
}

impl Default for AuditOptions {
    fn default() -> Self {
        AuditOptions {
            replicas: 1,
            max_examples: 8,
        }
    }
}

/// One copy of a slot as seen by the audit join.
struct AuditCopy {
    addr: u64,
    path: String,
    digest: String,
    bytes: u64,
    lag_marker: bool,
    migrating: bool,
}

/// The outcome of one anti-entropy audit pass over a cluster.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct AuditReport {
    /// Transport-clock time the pass ran at.
    pub now_nanos: u64,
    /// Nodes that answered the scan.
    pub nodes_scanned: u64,
    /// Nodes that failed or timed out (crashed/partitioned).
    pub nodes_unreachable: u64,
    /// Distinct objects: slots with at least one primary copy.
    pub objects: u64,
    /// Replica copies joined to a primary.
    pub replica_copies: u64,
    /// Objects with at least one replica copy whose digest differs from
    /// the primary's (migrations in flight excluded).
    pub objects_divergent: u64,
    /// Divergent replica copies (an object with two stale replicas
    /// counts twice here, once in [`AuditReport::objects_divergent`]).
    pub replica_copies_divergent: u64,
    /// Payload bytes at risk: for each divergent pair, the larger of the
    /// two copies' payload sizes (an upper bound on stale data).
    pub bytes_divergent: u64,
    /// Objects with fewer replica holders than expected
    /// (min(K, scanned nodes − 1)).
    pub under_replicated: u64,
    /// Objects with more than K replica holders (stale copies the
    /// leaf-set churn left behind).
    pub over_replicated: u64,
    /// Replica slots with no primary anywhere — orphaned handles whose
    /// owner vanished or moved without cleanup.
    pub orphaned_replicas: u64,
    /// Extra primary copies beyond one per slot (split-brain residue).
    pub duplicate_primaries: u64,
    /// Replica copies mid-push (`MIGRATION_NOT_COMPLETE` present);
    /// expected to diverge, so excluded from the divergence counts.
    pub migrations_in_flight: u64,
    /// Lease-stamped hot-copy slots (`.kosha_hot` present, DESIGN.md
    /// §16). Hot copies are read caches beyond K, hold only the leased
    /// objects (their digests are *expected* to differ from the full
    /// primary slot), and are governed by their lease — so they are
    /// counted here and excluded from replication, divergence, and
    /// orphan accounting entirely.
    pub hot_copies: u64,
    /// Outstanding `.kosha_lag` markers across all replica slots.
    pub lag_markers: u64,
    /// `replica_lag` journal events across the nodes' journals, and the
    /// age of the oldest retained one. Zero unless
    /// [`AuditReport::enrich_from_journals`] ran (journals are not
    /// reachable over the audit RPC).
    pub lag_events: u64,
    /// Age in nanoseconds of the oldest retained lag event (0 if none).
    pub lag_max_age_nanos: u64,
    /// Up to `max_examples` divergent/orphaned slot names (anchor path
    /// when known, else the slot hash), sorted.
    pub examples: Vec<String>,
}

/// Runs one anti-entropy audit pass: issues `AuditScan` to every peer
/// concurrently (from `from`'s transport address), joins replica copies
/// to primary copies by slot, and scores the divergence. Nodes that fail
/// the RPC (crashed, partitioned) are counted unreachable and their
/// copies simply do not participate — exactly the information a live
/// operator would have.
#[must_use]
pub fn audit_cluster(
    net: &dyn Network,
    from: NodeAddr,
    peers: &[NodeAddr],
    now_nanos: u64,
    opts: &AuditOptions,
) -> AuditReport {
    let req = RpcRequest::new(ServiceId::Kosha, &KoshaRequest::AuditScan);
    let batch: Vec<(NodeAddr, RpcRequest)> = peers.iter().map(|&a| (a, req.clone())).collect();
    let results = net.call_many(from, batch);

    let mut report = AuditReport {
        now_nanos,
        ..AuditReport::default()
    };
    let mut primaries: BTreeMap<String, Vec<AuditCopy>> = BTreeMap::new();
    let mut replicas: BTreeMap<String, Vec<AuditCopy>> = BTreeMap::new();
    for (&addr, result) in peers.iter().zip(results) {
        let entries = match result.and_then(|r| r.decode::<KoshaReplyFrame>()) {
            Ok(ReplyFrame(Ok(KoshaReply::Audit(entries)))) => entries,
            _ => {
                report.nodes_unreachable += 1;
                continue;
            }
        };
        report.nodes_scanned += 1;
        for e in entries {
            if e.replica && e.hot {
                // A leased hot copy is not a replica holder: it must not
                // count toward K (over-replication), must not be judged
                // against the primary's digest (it holds only the leased
                // objects), and is not an orphan (its lease, not a
                // primary join, governs its lifetime — expired ones are
                // collected by replica-slot GC).
                report.hot_copies += 1;
                continue;
            }
            let copy = AuditCopy {
                addr: addr.0,
                path: e.path,
                digest: e.digest,
                bytes: e.bytes,
                lag_marker: e.lag_marker,
                migrating: e.migrating,
            };
            if e.replica {
                replicas.entry(e.slot).or_default().push(copy);
            } else {
                primaries.entry(e.slot).or_default().push(copy);
            }
        }
    }

    let mut examples: Vec<String> = Vec::new();
    let expected = opts
        .replicas
        .min((report.nodes_scanned as usize).saturating_sub(1));
    for (slot, mut prims) in primaries {
        report.objects += 1;
        prims.sort_by_key(|c| c.addr);
        if prims.len() > 1 {
            report.duplicate_primaries += prims.len() as u64 - 1;
        }
        let primary = &prims[0];
        let name = if primary.path.is_empty() {
            slot.clone()
        } else {
            primary.path.clone()
        };
        let mut holders = 0usize;
        let mut divergent_here = false;
        for copy in replicas.remove(&slot).unwrap_or_default() {
            holders += 1;
            report.replica_copies += 1;
            if copy.lag_marker {
                report.lag_markers += 1;
            }
            if copy.migrating {
                report.migrations_in_flight += 1;
                continue;
            }
            if copy.digest != primary.digest {
                report.replica_copies_divergent += 1;
                report.bytes_divergent += primary.bytes.max(copy.bytes);
                divergent_here = true;
            }
        }
        if divergent_here {
            report.objects_divergent += 1;
            examples.push(name.clone());
        }
        if holders < expected {
            report.under_replicated += 1;
        }
        if holders > opts.replicas {
            report.over_replicated += 1;
        }
    }
    // What is left in `replicas` never joined a primary: orphans.
    for (slot, copies) in replicas {
        for copy in &copies {
            report.orphaned_replicas += 1;
            if copy.lag_marker {
                report.lag_markers += 1;
            }
        }
        examples.push(format!("{slot} (orphan)"));
    }
    examples.sort();
    examples.dedup();
    examples.truncate(opts.max_examples);
    report.examples = examples;
    report
}

impl AuditReport {
    /// Folds in what the audit RPC cannot see: `replica_lag` journal
    /// events retained on co-located nodes, mirroring the flight
    /// report's lag panel. Callers that hold the node handles (kosha-top,
    /// the churn driver, tests) use this; a purely remote auditor simply
    /// reports zero journal lag.
    pub fn enrich_from_journals(&mut self, nodes: &[&KoshaNode], now_nanos: u64) {
        for node in nodes {
            for ev in node.obs().journal.of_kind("replica_lag") {
                self.lag_events += 1;
                self.lag_max_age_nanos = self
                    .lag_max_age_nanos
                    .max(now_nanos.saturating_sub(ev.t_nanos));
            }
        }
    }

    /// Publishes the pass into an observability domain: `kosha_audit_*`
    /// gauges in the registry plus flight-recorder points stamped at the
    /// pass time, building the divergence-over-time series the churn
    /// bench and dashboard read.
    pub fn publish(&self, obs: &Obs) {
        let g = |name: &str, v: u64| obs.registry.gauge(name).set(v as i64);
        g("kosha_audit_objects", self.objects);
        g("kosha_audit_objects_divergent", self.objects_divergent);
        g("kosha_audit_bytes_divergent", self.bytes_divergent);
        g("kosha_audit_under_replicated", self.under_replicated);
        g("kosha_audit_over_replicated", self.over_replicated);
        g("kosha_audit_orphaned_replicas", self.orphaned_replicas);
        g("kosha_audit_hot_copies", self.hot_copies);
        g("kosha_audit_lag_markers", self.lag_markers);
        g("kosha_audit_nodes_unreachable", self.nodes_unreachable);
        for (series, v) in [
            ("kosha_audit_objects_divergent", self.objects_divergent),
            ("kosha_audit_bytes_divergent", self.bytes_divergent),
            ("kosha_audit_under_replicated", self.under_replicated),
            ("kosha_audit_lag_markers", self.lag_markers),
        ] {
            obs.recorder.record(series, self.now_nanos, v);
        }
    }

    /// The `kosha-top` audit panel (deterministic, integer math only).
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "AUDIT  t={}ns  scanned={}  unreachable={}\n",
            self.now_nanos, self.nodes_scanned, self.nodes_unreachable
        ));
        out.push_str(&format!(
            "objects: {}  divergent: {} ({} copies, {}B at risk)  \
             under-rep: {}  over-rep: {}\n",
            self.objects,
            self.objects_divergent,
            self.replica_copies_divergent,
            self.bytes_divergent,
            self.under_replicated,
            self.over_replicated,
        ));
        out.push_str(&format!(
            "replicas: {} copies, {} orphaned, {} dup primaries, \
             {} migrating, {} lag marker(s), {} hot cop(ies)\n",
            self.replica_copies,
            self.orphaned_replicas,
            self.duplicate_primaries,
            self.migrations_in_flight,
            self.lag_markers,
            self.hot_copies,
        ));
        out.push_str(&format!(
            "lag journal: {} event(s), max age {}ns\n",
            self.lag_events, self.lag_max_age_nanos
        ));
        if !self.examples.is_empty() {
            out.push_str(&format!("attention: {}\n", self.examples.join(", ")));
        }
        out
    }

    /// The pass as one hand-formatted JSON object (no trailing newline),
    /// embedded by the flight report's JSON and `BENCH_churn.json`.
    #[must_use]
    pub fn to_json(&self) -> String {
        format!(
            "{{\"t_nanos\": {}, \"nodes_scanned\": {}, \"nodes_unreachable\": {}, \
             \"objects\": {}, \"objects_divergent\": {}, \
             \"replica_copies\": {}, \"replica_copies_divergent\": {}, \
             \"bytes_divergent\": {}, \"under_replicated\": {}, \
             \"over_replicated\": {}, \"orphaned_replicas\": {}, \
             \"duplicate_primaries\": {}, \"migrations_in_flight\": {}, \
             \"hot_copies\": {}, \
             \"lag_markers\": {}, \"lag_events\": {}, \"lag_max_age_nanos\": {}}}",
            self.now_nanos,
            self.nodes_scanned,
            self.nodes_unreachable,
            self.objects,
            self.objects_divergent,
            self.replica_copies,
            self.replica_copies_divergent,
            self.bytes_divergent,
            self.under_replicated,
            self.over_replicated,
            self.orphaned_replicas,
            self.duplicate_primaries,
            self.migrations_in_flight,
            self.hot_copies,
            self.lag_markers,
            self.lag_events,
            self.lag_max_age_nanos,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{KoshaConfig, ReplicationMode};
    use crate::control::MigrateItem;
    use crate::mount::KoshaMount;
    use crate::paths::slot_local_path;
    use kosha_id::node_id_from_seed;
    use kosha_rpc::SimNetwork;
    use std::sync::Arc;
    use std::time::Duration;

    fn item(rel: &str, kind: ExportKind, mode: u32) -> ExportItem {
        ExportItem {
            rel_path: rel.into(),
            kind,
            mode,
            uid: 1,
            gid: 1,
        }
    }

    #[test]
    fn digest_ignores_internal_files_and_order() {
        let base = vec![
            item("", ExportKind::Dir, 0o755),
            item("d", ExportKind::Dir, 0o755),
            item("d/f", ExportKind::Bytes(b"hello"[..].into()), 0o644),
        ];
        let mut with_internal = base.clone();
        with_internal.push(item(LAG_MARK, ExportKind::Bytes(b"42"[..].into()), 0o600));
        with_internal.push(item(
            ".kosha_anchor",
            ExportKind::Bytes(b"a"[..].into()),
            0o600,
        ));
        let reordered: Vec<ExportItem> = base.iter().rev().cloned().collect();
        assert_eq!(tree_digest(&base), tree_digest(&with_internal));
        assert_eq!(tree_digest(&base), tree_digest(&reordered));
        let s = slot_summary(&with_internal);
        assert!(s.lag_marker && !s.migrating);
        assert_eq!(s.bytes, 5, "internal payload must not count");
        assert_eq!(s.files, 2);
    }

    #[test]
    fn digest_covers_content_and_file_attrs_not_dir_modes() {
        let base = vec![
            item("", ExportKind::Dir, 0o755),
            item("f", ExportKind::Bytes(b"x"[..].into()), 0o644),
        ];
        let mut dir_mode = base.clone();
        dir_mode[0].mode = 0o700; // replica dirs get fixed modes
        assert_eq!(tree_digest(&base), tree_digest(&dir_mode));
        let mut content = base.clone();
        content[1].kind = ExportKind::Bytes(b"y"[..].into());
        assert_ne!(tree_digest(&base), tree_digest(&content));
        let mut fmode = base.clone();
        fmode[1].mode = 0o600;
        assert_ne!(tree_digest(&base), tree_digest(&fmode));
    }

    fn build_cluster(n: usize, mode: ReplicationMode) -> (Arc<SimNetwork>, Vec<Arc<KoshaNode>>) {
        let net = SimNetwork::new_zero_latency();
        let mut nodes = Vec::new();
        for i in 0..n {
            let addr = NodeAddr(i as u64 + 1);
            let id = node_id_from_seed(&format!("audit-host-{i}"));
            let mut cfg = KoshaConfig::for_tests();
            cfg.distribution_level = 1;
            cfg.replicas = 1;
            cfg.replication_mode = mode;
            let (node, mux) = KoshaNode::build(cfg, id, addr, net.clone() as _);
            net.attach(addr, mux);
            node.join(if i == 0 { None } else { Some(NodeAddr(1)) })
                .expect("join");
            nodes.push(node);
        }
        (net, nodes)
    }

    fn addrs(nodes: &[Arc<KoshaNode>]) -> Vec<NodeAddr> {
        nodes.iter().map(|n| n.addr()).collect()
    }

    fn run_audit(net: &SimNetwork, nodes: &[Arc<KoshaNode>]) -> AuditReport {
        audit_cluster(
            net,
            NodeAddr(1),
            &addrs(nodes),
            net.clock().now().0,
            &AuditOptions {
                replicas: 1,
                max_examples: 8,
            },
        )
    }

    #[test]
    fn settled_cluster_audits_clean() {
        let (net, nodes) = build_cluster(4, ReplicationMode::Sync);
        let mount = KoshaMount::new(net.clone() as _, NodeAddr(1), NodeAddr(1)).expect("mount");
        mount.mkdir_p("/proj").expect("mkdir");
        for i in 0..4 {
            mount
                .write_file(&format!("/proj/f{i}"), &[i as u8; 128])
                .expect("write");
        }
        net.run_pumps();
        let report = run_audit(&net, &nodes);
        assert!(report.objects >= 1, "{report:?}");
        assert_eq!(report.nodes_scanned, 4);
        assert_eq!(report.objects_divergent, 0, "{report:?}");
        assert_eq!(report.bytes_divergent, 0);
        assert_eq!(report.orphaned_replicas, 0, "{report:?}");
        assert_eq!(report.lag_markers, 0);
        // Determinism: a second pass over unchanged state is identical
        // modulo the timestamp.
        let mut again = run_audit(&net, &nodes);
        again.now_nanos = report.now_nanos;
        assert_eq!(again, report);
    }

    #[test]
    fn write_behind_barrier_leaves_no_false_positives() {
        let (net, nodes) = build_cluster(
            4,
            ReplicationMode::WriteBehind {
                queue_ops: 256,
                flush_interval: Duration::from_millis(5),
            },
        );
        let mount = KoshaMount::new(net.clone() as _, NodeAddr(1), NodeAddr(1)).expect("mount");
        mount.mkdir_p("/wb").expect("mkdir");
        for i in 0..6 {
            mount
                .write_file(&format!("/wb/f{i}"), &[i as u8; 64])
                .expect("write");
        }
        // Full flush barrier on every primary, then audit: coalescing
        // must not change the replicated outcome.
        for n in &nodes {
            n.flush_replication();
        }
        net.run_pumps();
        let report = run_audit(&net, &nodes);
        assert_eq!(report.objects_divergent, 0, "{report:?}");
        assert_eq!(report.lag_markers, 0, "{report:?}");
    }

    /// The acceptance fault-injection scenario: dropping one
    /// replica-apply batch makes the audit report exactly that object as
    /// divergent; repair plus a flush returns the count to zero.
    #[test]
    fn dropped_batch_is_reported_then_repair_clears_it() {
        let (net, nodes) = build_cluster(
            4,
            ReplicationMode::WriteBehind {
                queue_ops: 256,
                flush_interval: Duration::from_millis(5),
            },
        );
        let mount = KoshaMount::new(net.clone() as _, NodeAddr(1), NodeAddr(1)).expect("mount");
        mount.mkdir_p("/crash").expect("mkdir");
        mount.write_file("/crash/f", &[1u8; 64]).expect("write");
        for n in &nodes {
            n.flush_replication();
        }
        net.run_pumps();
        assert_eq!(run_audit(&net, &nodes).objects_divergent, 0);

        // Queue a second mutation, then crash the replica target so the
        // flush batch is dropped on the floor.
        mount.write_file("/crash/f", &[2u8; 64]).expect("write");
        let primary = nodes
            .iter()
            .find(|n| n.hosted_anchors().iter().any(|(p, _)| p == "/crash"))
            .expect("a node hosts /crash");
        let victim = *primary.replica_addrs().first().expect("replica target");
        net.fail_node(victim);
        primary.flush_replication(); // fails: queue dropped, lag journaled
        net.recover_node(victim);

        let report = run_audit(&net, &nodes);
        assert_eq!(
            report.objects_divergent, 1,
            "exactly the dropped object: {report:?}"
        );
        assert_eq!(report.examples, vec!["/crash".to_string()], "{report:?}");
        assert!(report.lag_markers >= 1, "{report:?}");
        assert!(report.bytes_divergent >= 64, "{report:?}");

        // Repair: a full replica push refreshes the stale copy (and
        // clears its marker), after which the audit must be clean again.
        primary.ensure_replicas("/crash");
        for n in &nodes {
            n.flush_replication();
        }
        net.run_pumps();
        let healed = run_audit(&net, &nodes);
        assert_eq!(healed.objects_divergent, 0, "{healed:?}");
        assert_eq!(healed.lag_markers, 0, "{healed:?}");
    }

    /// Leaf-set churn can leave an ex-target holding a replica copy the
    /// owner will never refresh again; it surfaces in the audit as
    /// over-replication (and, once the primary mutates, divergence).
    /// The maintenance GC must drop exactly that copy while every
    /// still-valid copy survives its own GC pass untouched.
    #[test]
    fn stale_replica_copy_is_garbage_collected() {
        let (net, nodes) = build_cluster(4, ReplicationMode::Sync);
        let mount = KoshaMount::new(net.clone() as _, NodeAddr(1), NodeAddr(1)).expect("mount");
        mount.mkdir_p("/gc").expect("mkdir");
        mount.write_file("/gc/f", &[9u8; 96]).expect("write");
        net.run_pumps();
        assert_eq!(run_audit(&net, &nodes).over_replicated, 0);

        let primary = nodes
            .iter()
            .find(|n| n.hosted_anchors().iter().any(|(p, _)| p == "/gc"))
            .expect("a node hosts /gc");
        let targets = primary.replica_addrs();
        let stray = nodes
            .iter()
            .find(|n| n.addr() != primary.addr() && !targets.contains(&n.addr()))
            .expect("a node that is neither primary nor target");

        // Manufacture the ex-holder state: plant a full copy on the
        // stray node via the same MigrateBatch RPC ensure_replicas uses.
        let slot_path = slot_local_path(Area::Store, "/gc", "/gc");
        let items: Vec<MigrateItem> = primary
            .with_store(|v| v.export_tree(&slot_path))
            .expect("export")
            .into_iter()
            .map(MigrateItem::from)
            .collect();
        let req = RpcRequest::new(
            ServiceId::KoshaReplica,
            &KoshaRequest::MigrateBatch {
                path: "/gc".into(),
                items,
            },
        );
        net.call(primary.addr(), stray.addr(), req).expect("plant");

        let planted = run_audit(&net, &nodes);
        assert!(planted.over_replicated >= 1, "{planted:?}");

        // The valid target keeps its copy; only the stray drops one.
        let holder = nodes
            .iter()
            .find(|n| n.addr() == targets[0])
            .expect("holder");
        assert_eq!(holder.gc_replica_slots(), 0, "valid copy must survive");
        assert_eq!(stray.gc_replica_slots(), 1, "stale copy must be dropped");
        assert_eq!(stray.stats().replica_gc, 1);

        let healed = run_audit(&net, &nodes);
        assert_eq!(healed.over_replicated, 0, "{healed:?}");
        assert_eq!(healed.objects_divergent, 0, "{healed:?}");
    }

    #[test]
    fn crashed_nodes_count_unreachable_and_lag_gauge_tracks_markers() {
        let (net, nodes) = build_cluster(
            4,
            ReplicationMode::WriteBehind {
                queue_ops: 256,
                flush_interval: Duration::from_millis(5),
            },
        );
        let mount = KoshaMount::new(net.clone() as _, NodeAddr(1), NodeAddr(1)).expect("mount");
        mount.mkdir_p("/gauge").expect("mkdir");
        mount.write_file("/gauge/f", b"v1").expect("write");
        // An open write-behind window stamps markers on the targets.
        let primary = nodes
            .iter()
            .find(|n| n.hosted_anchors().iter().any(|(p, _)| p == "/gauge"))
            .expect("a node hosts /gauge");
        let victim = *primary.replica_addrs().first().expect("replica target");
        let holder = nodes.iter().find(|n| n.addr() == victim).expect("holder");
        assert!(
            holder.refresh_lag_marker_gauge() >= 1,
            "open window must stamp a marker"
        );
        assert!(
            holder
                .obs()
                .registry
                .gauge("kosha_replica_lag_markers")
                .get()
                >= 1
        );
        for n in &nodes {
            n.flush_replication();
        }
        assert_eq!(holder.refresh_lag_marker_gauge(), 0, "flush clears markers");

        net.fail_node(victim);
        let report = run_audit(&net, &nodes);
        assert_eq!(report.nodes_unreachable, 1, "{report:?}");
        assert_eq!(report.nodes_scanned, 3);
        net.recover_node(victim);
    }

    #[test]
    fn report_publish_and_render_are_consistent() {
        let report = AuditReport {
            now_nanos: 42,
            nodes_scanned: 3,
            nodes_unreachable: 1,
            objects: 5,
            objects_divergent: 2,
            replica_copies: 6,
            replica_copies_divergent: 3,
            bytes_divergent: 1024,
            under_replicated: 1,
            over_replicated: 0,
            orphaned_replicas: 1,
            duplicate_primaries: 0,
            migrations_in_flight: 1,
            hot_copies: 2,
            lag_markers: 2,
            lag_events: 0,
            lag_max_age_nanos: 0,
            examples: vec!["/a".into(), "@beef (orphan)".into()],
        };
        let obs = Obs::default();
        report.publish(&obs);
        assert_eq!(obs.registry.gauge("kosha_audit_objects_divergent").get(), 2);
        assert_eq!(obs.registry.gauge("kosha_audit_lag_markers").get(), 2);
        assert_eq!(obs.registry.gauge("kosha_audit_hot_copies").get(), 2);
        assert_eq!(
            obs.recorder.last("kosha_audit_objects_divergent"),
            Some((42, 2))
        );
        let text = report.render();
        assert!(
            text.contains("divergent: 2 (3 copies, 1024B at risk)"),
            "{text}"
        );
        assert!(text.contains("attention: /a, @beef (orphan)"), "{text}");
        assert!(text.contains("2 hot cop(ies)"), "{text}");
        let json = report.to_json();
        assert!(json.contains("\"objects_divergent\": 2"), "{json}");
        assert!(json.contains("\"hot_copies\": 2"), "{json}");
        assert!(json.ends_with('}') && json.starts_with('{'));
    }
}
