//! The koshad-to-koshad control protocol.
//!
//! Mutations must execute at the *primary replica* so it can fan them out
//! to the K replica nodes (§4.2: "The primary replica is responsible for
//! maintaining K replicas"), so the client-side koshad ships them here by
//! virtual path. Reads and lookups bypass this service and use direct NFS
//! against the primary's store. The protocol also carries promotion
//! queries (fault handling, §4.4) and anchor migration (§4.3).

use kosha_nfs::messages::{ReplyFrame, WireAttr, WireSetAttr};
use kosha_nfs::Fh;
use kosha_rpc::{wire_enum, wire_struct, Bytes};
use kosha_vfs::{ExportItem, ExportKind};

wire_struct! {
    /// One object pushed during anchor migration or replica repair.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct MigrateItem {
        /// Path relative to the anchor root ("" = the anchor directory).
        pub rel_path: String,
        /// Object payload.
        pub kind: MigrateKind,
        /// Permission bits.
        pub mode: u32,
        /// Owner uid.
        pub uid: u32,
        /// Owner gid.
        pub gid: u32,
    }
}

wire_enum! {
    /// Payload variants for [`MigrateItem`].
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum MigrateKind {
        /// Directory.
        Dir = 0,
        /// Regular file with contents: the exporting store's buffer by
        /// refcount on the way out, a view of the frame on the way in.
        Bytes(data: Bytes) = 1,
        /// Sparse (size-only) file.
        Sparse(size: u64) = 2,
        /// Symlink (user or special).
        Symlink {
            /// Link target.
            target: String,
        } = 3,
    }
}

impl From<ExportItem> for MigrateItem {
    fn from(e: ExportItem) -> Self {
        MigrateItem {
            rel_path: e.rel_path,
            kind: match e.kind {
                ExportKind::Dir => MigrateKind::Dir,
                ExportKind::Bytes(b) => MigrateKind::Bytes(b),
                ExportKind::Sparse(n) => MigrateKind::Sparse(n),
                ExportKind::Symlink { target } => MigrateKind::Symlink { target },
            },
            mode: e.mode,
            uid: e.uid,
            gid: e.gid,
        }
    }
}

wire_struct! {
    /// One store or replica slot's consistency digest, as reported by
    /// [`KoshaRequest::AuditScan`]. The digest is a SHA-1 over the slot
    /// subtree's canonical serialization with Kosha-internal bookkeeping
    /// files (`.kosha_anchor`, `.kosha_lag`, `MIGRATION_NOT_COMPLETE`)
    /// excluded, so a primary copy and an up-to-date replica copy hash
    /// identically (see `kosha::audit::tree_digest`).
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct AuditEntry {
        /// Slot directory name (`@` + 16 hex of the anchor-path SHA-1).
        pub slot: String,
        /// Anchor virtual path, when the reporting node knows it (primaries
        /// do; replica holders report `""` and the auditor joins on `slot`).
        pub path: String,
        /// False for a `/kosha_store` (primary) copy, true for a
        /// `/kosha_replica` copy.
        pub replica: bool,
        /// Lower-case 40-hex SHA-1 of the canonical subtree serialization.
        pub digest: String,
        /// Payload bytes in the slot (file contents + symlink targets),
        /// internal files excluded.
        pub bytes: u64,
        /// Objects in the slot (files, dirs, symlinks below the slot root),
        /// internal files excluded.
        pub files: u64,
        /// A `.kosha_lag` marker is present: the copy is known to be behind
        /// an unflushed write-behind window.
        pub lag_marker: bool,
        /// A `MIGRATION_NOT_COMPLETE` flag is present: the copy is mid-push
        /// and expected to diverge until the bracket closes.
        pub migrating: bool,
        /// A `.kosha_hot` lease marker is present: the slot holds read-only
        /// heat-driven cached copies, not a durable K replica. Hot slots
        /// carry only the leased objects, so their digests are expected to
        /// differ from the primary's; the auditor counts them separately
        /// instead of reporting divergence/over-replication (DESIGN.md §16).
        pub hot: bool,
    }
}

wire_enum! {
    /// Requests handled by a node's Kosha control service. Every path is a
    /// full virtual path (relative to `/kosha`, normalized). A variant's
    /// label (`name()`) names its trace spans (`kosha:{name}` on the
    /// control service, `replica:{name}` on the replica service) and its
    /// journal details.
    #[derive(Debug, Clone, PartialEq)]
    pub enum KoshaRequest labelled(NAMES, index, name) {
        /// Create a regular file (primary of the parent directory). `size`
        /// creates a quota-charged sparse file (simulation inserts).
        CreateFile {
            /// Virtual path of the new file.
            path: String,
            /// Permission bits.
            mode: u32,
            /// Owner uid.
            uid: u32,
            /// Owner gid.
            gid: u32,
            /// Sparse size, if any.
            size: Option<u64>,
        } = 0 => "create_file",
        /// Create a non-distributed directory (depth > level) on the node
        /// holding its parent.
        MkdirLocal {
            /// Virtual path of the new directory.
            path: String,
            /// Permission bits.
            mode: u32,
            /// Owner uid.
            uid: u32,
            /// Owner gid.
            gid: u32,
        } = 1 => "mkdir_local",
        /// Materialize a distributed directory on this node: create the empty
        /// ancestor hierarchy, the directory itself, and the anchor metadata.
        MkdirAnchor {
            /// Virtual path of the new anchor directory.
            path: String,
            /// The (possibly salted) name this anchor is routed by.
            routing_name: String,
            /// Permission bits.
            mode: u32,
            /// Owner uid.
            uid: u32,
            /// Owner gid.
            gid: u32,
        } = 2 => "mkdir_anchor",
        /// Place a special link in a parent directory hosted on this node
        /// (§3.1, §3.3). `path` is the link's own virtual path.
        PlaceLink {
            /// Virtual path of the link (parent's listing entry).
            path: String,
            /// Routing name the link points at (`name` or `name#salt`).
            target: String,
            /// Owner uid.
            uid: u32,
            /// Owner gid.
            gid: u32,
        } = 3 => "place_link",
        /// Create a user-level symlink (lives with its parent directory).
        SymlinkFile {
            /// Virtual path of the symlink.
            path: String,
            /// Target string (opaque to Kosha).
            target: String,
            /// Owner uid.
            uid: u32,
            /// Owner gid.
            gid: u32,
        } = 4 => "symlink_file",
        /// Write data to a file.
        Write {
            /// Virtual path of the file.
            path: String,
            /// Byte offset.
            offset: u64,
            /// Data (on the primary, a view of the request frame).
            data: Bytes,
        } = 5 => "write",
        /// Update attributes of a file or directory hosted on this node.
        SetAttr {
            /// Virtual path.
            path: String,
            /// Attribute changes.
            sattr: WireSetAttr,
        } = 6 => "setattr",
        /// Remove a file or user symlink.
        Remove {
            /// Virtual path.
            path: String,
        } = 7 => "remove",
        /// Remove an empty non-distributed directory.
        Rmdir {
            /// Virtual path.
            path: String,
        } = 8 => "rmdir",
        /// Tear down a distributed directory hosted on this node: verify
        /// empty, remove it, prune the now-empty ancestor hierarchy (§4.1.5).
        RmdirAnchor {
            /// Virtual path of the anchor directory.
            path: String,
        } = 9 => "rmdir_anchor",
        /// Remove the special link entry for a deleted/migrated distributed
        /// directory from its parent's listing on this node.
        RemoveLink {
            /// Virtual path of the link.
            path: String,
        } = 10 => "remove_link",
        /// Rename an entry where both source and destination live on this
        /// node (same-parent renames and local moves). Renames a special link
        /// without touching its target, per §4.1.4.
        RenameLocal {
            /// Source virtual path.
            from: String,
            /// Destination virtual path.
            to: String,
        } = 11 => "rename_local",
        /// Rename the materialized directory of an anchor hosted on this node
        /// (the "rename on B" half of §4.1.4's two-node link rename).
        RenameAnchorDir {
            /// Current anchor virtual path.
            from: String,
            /// New anchor virtual path.
            to: String,
        } = 12 => "rename_anchor_dir",
        /// Resolution/fault handling: make sure this node serves the anchor
        /// at `path`. If the anchor is in the store, a no-op; if it is only in
        /// the replica area, promote it (§4.4); if it is the root anchor and
        /// absent everywhere, create it empty. Replies `DoneBool(promoted)`;
        /// fails with `NoEnt` if the anchor cannot be served.
        EnsureAnchor {
            /// Anchor virtual path.
            path: String,
            /// Routing name the caller used to reach this node.
            routing: String,
        } = 13 => "ensure_anchor",
        /// Query `(capacity, used, free)` of this node's contributed space —
        /// the fullness test behind redirection (§3.3).
        StoreStats = 14 => "store_stats",
        /// Migration: begin receiving an anchor subtree into the store.
        BeginTransfer {
            /// Anchor virtual path.
            path: String,
        } = 15 => "begin_transfer",
        /// Migration: one object of the subtree.
        TransferPut {
            /// Anchor virtual path.
            path: String,
            /// The object.
            item: MigrateItem,
        } = 16 => "transfer_put",
        /// Migration: subtree complete; adopt the anchor (record routing name,
        /// clear flags, start replicating it).
        CommitTransfer {
            /// Anchor virtual path.
            path: String,
            /// Routing name of the anchor.
            routing_name: String,
        } = 17 => "commit_transfer",
        /// Introspection: list `(anchor_path, routing_name)` pairs hosted
        /// here (tests and experiment harnesses).
        ListAnchors = 18 => "list_anchors",
        /// Ask the primary for the current replica holders of the anchor
        /// covering `path` (read-from-replica optimization, §4.2).
        ReplicaTargets {
            /// Virtual path whose covering anchor's replicas are wanted.
            path: String,
        } = 19 => "replica_targets",
        /// Replica maintenance (served on `ServiceId::KoshaReplica`): replace
        /// the receiver's replica copy of `path` with the batched subtree in
        /// one round trip, bracketed by the `MIGRATION_NOT_COMPLETE` flag.
        MigrateBatch {
            /// Anchor virtual path.
            path: String,
            /// The full subtree, in parent-before-child order.
            items: Vec<MigrateItem>,
        } = 20 => "migrate_batch",
        /// Replica maintenance (served on `ServiceId::KoshaReplica`): apply
        /// one mutation to the receiver's replica area. The primary fans the
        /// same op out to all K replica holders concurrently. Handlers touch
        /// only local state — no nested RPCs — so concurrent fan-outs
        /// between primaries cannot form call cycles.
        ReplicaApply {
            /// The mutation, mirroring the primary's own store change.
            op: ReplicaOp,
        } = 21 => "replica_apply",
        /// Replica maintenance (served on `ServiceId::KoshaReplica`): apply a
        /// coalesced batch of mutations in order, in one round trip — the
        /// write-behind pump's flush unit. Like `ReplicaApply`, handlers
        /// touch only local state, so the service stays cycle-free.
        ReplicaApplyBatch {
            /// The mutations, in primary apply order (post-coalescing).
            ops: Vec<ReplicaOp>,
        } = 22 => "replica_apply_batch",
        /// Flush barrier: drain this primary's write-behind queues
        /// synchronously before replying. Sent by koshad on NFS COMMIT; a
        /// no-op under synchronous replication.
        Flush {
            /// Virtual path the barrier was issued against (journaled).
            path: String,
        } = 23 => "flush",
        /// Anti-entropy audit: digest every store and replica slot held by
        /// the receiver and reply with one [`AuditEntry`] per slot. The
        /// handler reads only local state (no nested RPCs), so the audit
        /// pass can fan out to every node concurrently without risking call
        /// cycles.
        AuditScan = 24 => "audit_scan",
        /// Replica-slot garbage-collection probe: like `ReplicaTargets`, but
        /// keyed by the replica-area slot name — holders know their slots,
        /// not necessarily the anchor's virtual path. The owner replies with
        /// the anchor's current replica holders, or `NoEnt` when it hosts no
        /// anchor for `slot` (the holder then keeps its copy, conservatively).
        ReplicaTargetsBySlot {
            /// Slot directory name (`@` + 16 hex digits of the routing key).
            slot: String,
            /// Transport address of the probing holder. When the answer does
            /// not list this node the holder will drop its copy, so the owner
            /// voids its full-push memo for the anchor — the next maintenance
            /// pass re-pushes even if the holder later rejoins the target set
            /// with the primary content unchanged.
            holder: u64,
        } = 25 => "replica_targets_by_slot",
        /// Heat-driven read scaling (served on `ServiceId::KoshaReplica`):
        /// place or refresh one read-only cached copy of a hot object in the
        /// receiver's replica area, leased until `expires_nanos` and stamped
        /// with the primary's mutation sequence. The request carries the full
        /// object payload, so the handler touches only local state (no nested
        /// RPCs) like every other replica-service handler (DESIGN.md §16).
        HotReplicaPush {
            /// Covering anchor virtual path of the hot object.
            anchor: String,
            /// The anchor's routing name (recorded in the slot's
            /// `.kosha_anchor` so replica-slot GC can find the owner).
            routing: String,
            /// Virtual path of the hot object.
            path: String,
            /// Primary mutation sequence the pushed payload reflects.
            seq: u64,
            /// Lease expiry in virtual nanoseconds.
            expires_nanos: u64,
            /// The object itself (`rel_path` relative to the anchor root,
            /// parent directories implied).
            item: MigrateItem,
        } = 26 => "hot_replica_push",
        /// Heat-driven read scaling (served on `ServiceId::KoshaReplica`):
        /// revoke the receiver's hot copy of `path` — heat decayed, the
        /// object was mutated without a refresh, or it was removed. A no-op
        /// when the receiver's slot carries no `.kosha_hot` lease for the
        /// path (e.g. the slot became a durable replica in the meantime).
        HotReplicaDrop {
            /// Covering anchor virtual path.
            anchor: String,
            /// Virtual path of the object whose lease is revoked.
            path: String,
        } = 27 => "hot_replica_drop",
    }
}

wire_enum! {
    /// One replicated mutation, shipped by the primary to each replica
    /// holder after it has applied the change to its own store (§4.2).
    /// Paths are full virtual paths; the receiver derives the covering
    /// anchor (and thus the replica-area slot) itself, and treats already-
    /// done outcomes (`Exist` on creates, `NoEnt` on removes) as success so
    /// replays are idempotent.
    #[derive(Debug, Clone, PartialEq)]
    pub enum ReplicaOp {
        /// Ensure the replica directory for `path` (a directory) exists.
        Mkdir {
            /// Virtual path of the directory.
            path: String,
        } = 0,
        /// Create a regular (or sparse, when `size` is set) file.
        Create {
            /// Virtual path of the file.
            path: String,
            /// Permission bits.
            mode: u32,
            /// Owner uid.
            uid: u32,
            /// Owner gid.
            gid: u32,
            /// Sparse size, if any.
            size: Option<u64>,
        } = 1,
        /// Create a symlink (special or user-level; `mode` distinguishes).
        Symlink {
            /// Virtual path of the link.
            path: String,
            /// Link target.
            target: String,
            /// Permission bits (sticky bit marks special links).
            mode: u32,
            /// Owner uid.
            uid: u32,
            /// Owner gid.
            gid: u32,
        } = 2,
        /// Write data (creating the file if the replica lacks it).
        Write {
            /// Virtual path of the file.
            path: String,
            /// Byte offset.
            offset: u64,
            /// Data (on the holder, a view of the request frame).
            data: Bytes,
        } = 3,
        /// Update attributes.
        SetAttr {
            /// Virtual path.
            path: String,
            /// Attribute changes.
            sattr: WireSetAttr,
        } = 4,
        /// Remove a file or symlink.
        Remove {
            /// Virtual path.
            path: String,
        } = 5,
        /// Remove an empty directory.
        Rmdir {
            /// Virtual path.
            path: String,
        } = 6,
        /// Drop the whole replica copy of an anchor (anchor teardown).
        RemoveSlot {
            /// Anchor virtual path.
            anchor: String,
        } = 7,
        /// Rename an entry (both paths under anchors this replica mirrors).
        Rename {
            /// Source virtual path.
            from: String,
            /// Destination virtual path.
            to: String,
        } = 8,
        /// Rename an anchor's replica slot (anchor directory rename).
        RenameSlot {
            /// Current anchor virtual path.
            from: String,
            /// New anchor virtual path.
            to: String,
        } = 9,
        /// Write-behind lag marker. With `bytes > 0`, stamps the replica
        /// slot as *behind* the primary by at least that many queued payload
        /// bytes; with `bytes == 0`, clears the stamp (the flush carrying it
        /// brought the slot current). A node promoting a slot that still
        /// carries a stamp knows data was lost and journals `replica_lag`
        /// instead of silently serving stale bytes.
        LagMark {
            /// Anchor virtual path of the stamped slot.
            anchor: String,
            /// Lower bound of queued payload bytes (0 = clear).
            bytes: u64,
        } = 10,
    }
}

/// What a [`ReplicaOp`] names, which decides the slot it lands in.
pub(crate) enum Names<'a> {
    /// An entry of its parent directory, by virtual path; a rename names
    /// two, and lands where the first does.
    Entry(&'a str, Option<&'a str>),
    /// A whole anchor slot, by the anchor's virtual path; a slot rename
    /// names two.
    Slot(&'a str, Option<&'a str>),
}

impl ReplicaOp {
    /// The virtual paths this op names.
    pub(crate) fn names(&self) -> Names<'_> {
        match self {
            ReplicaOp::Mkdir { path }
            | ReplicaOp::Create { path, .. }
            | ReplicaOp::Symlink { path, .. }
            | ReplicaOp::Write { path, .. }
            | ReplicaOp::SetAttr { path, .. }
            | ReplicaOp::Remove { path }
            | ReplicaOp::Rmdir { path } => Names::Entry(path, None),
            ReplicaOp::Rename { from, to } => Names::Entry(from, Some(to)),
            ReplicaOp::RemoveSlot { anchor } | ReplicaOp::LagMark { anchor, .. } => {
                Names::Slot(anchor, None)
            }
            ReplicaOp::RenameSlot { from, to } => Names::Slot(from, Some(to)),
        }
    }
}

wire_enum! {
    /// Successful control replies; the wire frame is
    /// `Result<KoshaReply, NfsStatus>` like the NFS reply frame.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum KoshaReply {
        /// Acknowledged.
        Done = 0,
        /// A created object's real handle and attributes (CreateFile,
        /// MkdirLocal) — saves the caller a LOOKUP round trip, like NFS
        /// CREATE's post-op handle.
        Handle {
            /// Real handle on the replying node.
            fh: Fh,
            /// Attributes at creation.
            attr: WireAttr,
        } = 4,
        /// Boolean outcome (promotion happened or not).
        DoneBool(promoted: bool) = 1,
        /// Store statistics.
        Stats {
            /// Total contributed bytes.
            capacity: u64,
            /// Bytes used.
            used: u64,
            /// Bytes free.
            free: u64,
        } = 2,
        /// Hosted anchors: `(virtual path, routing name)`.
        Anchors(anchors: Vec<(String, String)>) = 3,
        /// Node addresses (replica holders).
        Nodes(holders: Vec<kosha_rpc::NodeAddr>) = 5,
        /// Per-slot consistency digests (`AuditScan`), slot order.
        Audit(entries: Vec<AuditEntry>) = 6,
    }
}

/// Wire frame for control replies.
pub type KoshaReplyFrame = ReplyFrame<KoshaReply>;

#[cfg(test)]
mod tests {
    use super::*;
    use kosha_nfs::NfsStatus;
    use kosha_rpc::{WireRead, WireWrite};
    use kosha_vfs::SetAttr;

    #[test]
    fn requests_round_trip() {
        let reqs = vec![
            KoshaRequest::CreateFile {
                path: "/a/f".into(),
                mode: 0o644,
                uid: 1,
                gid: 2,
                size: Some(100),
            },
            KoshaRequest::MkdirLocal {
                path: "/a/b/c".into(),
                mode: 0o755,
                uid: 0,
                gid: 0,
            },
            KoshaRequest::MkdirAnchor {
                path: "/a".into(),
                routing_name: "a#77".into(),
                mode: 0o755,
                uid: 0,
                gid: 0,
            },
            KoshaRequest::PlaceLink {
                path: "/a".into(),
                target: "a#77".into(),
                uid: 0,
                gid: 0,
            },
            KoshaRequest::SymlinkFile {
                path: "/a/l".into(),
                target: "whatever".into(),
                uid: 0,
                gid: 0,
            },
            KoshaRequest::Write {
                path: "/a/f".into(),
                offset: 9,
                data: vec![1, 2].into(),
            },
            KoshaRequest::SetAttr {
                path: "/a/f".into(),
                sattr: WireSetAttr(SetAttr {
                    size: Some(3),
                    ..Default::default()
                }),
            },
            KoshaRequest::Remove {
                path: "/a/f".into(),
            },
            KoshaRequest::Rmdir {
                path: "/a/d".into(),
            },
            KoshaRequest::RmdirAnchor { path: "/a".into() },
            KoshaRequest::RemoveLink { path: "/a".into() },
            KoshaRequest::RenameLocal {
                from: "/a/x".into(),
                to: "/a/y".into(),
            },
            KoshaRequest::RenameAnchorDir {
                from: "/a".into(),
                to: "/b".into(),
            },
            KoshaRequest::EnsureAnchor {
                path: "/a".into(),
                routing: "a#3".into(),
            },
            KoshaRequest::StoreStats,
            KoshaRequest::BeginTransfer { path: "/a".into() },
            KoshaRequest::TransferPut {
                path: "/a".into(),
                item: MigrateItem {
                    rel_path: "x/f".into(),
                    kind: MigrateKind::Bytes(vec![7; 9].into()),
                    mode: 0o644,
                    uid: 3,
                    gid: 4,
                },
            },
            KoshaRequest::CommitTransfer {
                path: "/a".into(),
                routing_name: "a".into(),
            },
            KoshaRequest::ListAnchors,
            KoshaRequest::ReplicaTargets { path: "/a".into() },
            KoshaRequest::ReplicaTargetsBySlot {
                slot: "@00c0ffee00c0ffee".into(),
                holder: 7,
            },
            KoshaRequest::MigrateBatch {
                path: "/a".into(),
                items: vec![
                    MigrateItem {
                        rel_path: "d".into(),
                        kind: MigrateKind::Dir,
                        mode: 0o755,
                        uid: 1,
                        gid: 2,
                    },
                    MigrateItem {
                        rel_path: "d/f".into(),
                        kind: MigrateKind::Bytes(vec![5; 3].into()),
                        mode: 0o644,
                        uid: 1,
                        gid: 2,
                    },
                ],
            },
            KoshaRequest::ReplicaApply {
                op: ReplicaOp::Write {
                    path: "/a/f".into(),
                    offset: 4,
                    data: vec![9, 8].into(),
                },
            },
            KoshaRequest::ReplicaApplyBatch {
                ops: vec![
                    ReplicaOp::Create {
                        path: "/a/f".into(),
                        mode: 0o644,
                        uid: 1,
                        gid: 2,
                        size: None,
                    },
                    ReplicaOp::Write {
                        path: "/a/f".into(),
                        offset: 0,
                        data: vec![3, 4].into(),
                    },
                    ReplicaOp::LagMark {
                        anchor: "/a".into(),
                        bytes: 0,
                    },
                ],
            },
            KoshaRequest::Flush {
                path: "/a/f".into(),
            },
            KoshaRequest::AuditScan,
            KoshaRequest::HotReplicaPush {
                anchor: "/a".into(),
                routing: "a#2".into(),
                path: "/a/hot".into(),
                seq: 17,
                expires_nanos: 9_000_000_000,
                item: MigrateItem {
                    rel_path: "hot".into(),
                    kind: MigrateKind::Bytes(vec![6; 5].into()),
                    mode: 0o644,
                    uid: 1,
                    gid: 2,
                },
            },
            KoshaRequest::HotReplicaDrop {
                anchor: "/a".into(),
                path: "/a/hot".into(),
            },
        ];
        for req in reqs {
            let b = req.encode();
            assert_eq!(KoshaRequest::decode(&b).unwrap(), req);
        }
    }

    #[test]
    fn replies_round_trip() {
        for frame in [
            ReplyFrame(Ok(KoshaReply::Done)),
            ReplyFrame(Ok(KoshaReply::DoneBool(true))),
            ReplyFrame(Ok(KoshaReply::Stats {
                capacity: 10,
                used: 3,
                free: 7,
            })),
            ReplyFrame(Ok(KoshaReply::Anchors(vec![("/a".into(), "a#1".into())]))),
            ReplyFrame(Ok(KoshaReply::Nodes(vec![
                kosha_rpc::NodeAddr(3),
                kosha_rpc::NodeAddr(9),
            ]))),
            ReplyFrame(Ok(KoshaReply::Audit(vec![
                AuditEntry {
                    slot: "@00d4c05e3b0b08e1".into(),
                    path: "/a".into(),
                    replica: false,
                    digest: "da39a3ee5e6b4b0d3255bfef95601890afd80709".into(),
                    bytes: 4096,
                    files: 12,
                    lag_marker: false,
                    migrating: false,
                    hot: false,
                },
                AuditEntry {
                    slot: "@00d4c05e3b0b08e1".into(),
                    path: String::new(),
                    replica: true,
                    digest: "b6589fc6ab0dc82cf12099d1c2d40ab994e8410c".into(),
                    bytes: 4000,
                    files: 11,
                    lag_marker: true,
                    migrating: true,
                    hot: true,
                },
            ]))),
            ReplyFrame(Err(NfsStatus::NoSpc)),
            ReplyFrame(Err(NfsStatus::NotEmpty)),
        ] {
            let b = frame.encode();
            assert_eq!(KoshaReplyFrame::decode(&b).unwrap(), frame);
        }
    }

    #[test]
    fn replica_ops_round_trip() {
        let ops = vec![
            ReplicaOp::Mkdir {
                path: "/a/d".into(),
            },
            ReplicaOp::Create {
                path: "/a/f".into(),
                mode: 0o644,
                uid: 1,
                gid: 2,
                size: Some(64),
            },
            ReplicaOp::Symlink {
                path: "/a/l".into(),
                target: "t#1".into(),
                mode: 0o1777,
                uid: 0,
                gid: 0,
            },
            ReplicaOp::Write {
                path: "/a/f".into(),
                offset: 0,
                data: vec![1].into(),
            },
            ReplicaOp::SetAttr {
                path: "/a/f".into(),
                sattr: WireSetAttr(SetAttr {
                    size: Some(2),
                    ..Default::default()
                }),
            },
            ReplicaOp::Remove {
                path: "/a/f".into(),
            },
            ReplicaOp::Rmdir {
                path: "/a/d".into(),
            },
            ReplicaOp::RemoveSlot {
                anchor: "/a".into(),
            },
            ReplicaOp::Rename {
                from: "/a/x".into(),
                to: "/a/y".into(),
            },
            ReplicaOp::RenameSlot {
                from: "/a".into(),
                to: "/b".into(),
            },
            ReplicaOp::LagMark {
                anchor: "/a".into(),
                bytes: 4096,
            },
        ];
        for op in ops {
            let b = op.encode();
            assert_eq!(ReplicaOp::decode(&b).unwrap(), op);
        }
    }

    #[test]
    fn migrate_items_round_trip() {
        for kind in [
            MigrateKind::Dir,
            MigrateKind::Bytes(vec![1, 2, 3].into()),
            MigrateKind::Sparse(1 << 40),
            MigrateKind::Symlink {
                target: "t#1".into(),
            },
        ] {
            let item = MigrateItem {
                rel_path: "a/b".into(),
                kind,
                mode: 0o755,
                uid: 1,
                gid: 2,
            };
            let b = item.encode();
            assert_eq!(MigrateItem::decode(&b).unwrap(), item);
        }
    }
}
