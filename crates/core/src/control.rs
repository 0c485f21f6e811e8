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
    /// [`ControlRequest::AuditScan`]. The digest is a SHA-1 over the slot
    /// subtree's canonical serialization, so a primary copy and an
    /// up-to-date replica copy hash identically (see
    /// `kosha::audit::tree_digest`); the three flags come from the slot's
    /// record ([`crate::slots::SlotMeta`]).
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
        /// Payload bytes in the slot (file contents + symlink targets).
        pub bytes: u64,
        /// Objects in the slot (files, dirs, symlinks below the slot root).
        pub files: u64,
        /// The record carries lag: the copy is known to be behind an
        /// unflushed write-behind window.
        pub lag_marker: bool,
        /// The record is flagged mid-push: the copy is expected to diverge
        /// until the bracket closes.
        pub migrating: bool,
        /// The record lists hot copies: the slot holds read-only
        /// heat-driven cached copies, not a durable K replica. Hot slots
        /// carry only the hot objects, so their digests are expected to
        /// differ from the primary's; the auditor counts them separately
        /// instead of reporting divergence/over-replication (DESIGN.md §16).
        pub hot: bool,
    }
}

wire_enum! {
    /// Requests a node's control service (`ServiceId::Kosha`) serves:
    /// koshad's mutations and resolution asks, and the asks one primary
    /// makes of another. Every path is a full virtual path (relative to
    /// `/kosha`, normalized). A variant's label (`name()`) names its
    /// journal details and, but for `Mutate`'s, its `kosha:{name}` trace
    /// spans ([`Self::span_name`]). Tag 18, the unsent hosted-anchor
    /// listing, is retired; the replica service's tags are unknown here.
    #[derive(Debug, Clone, PartialEq)]
    pub enum ControlRequest labelled(NAMES, index, name) {
        /// One mutation of replicated state, sent by koshad to the primary
        /// of the slot it lands in, which applies it to its store and
        /// mirrors the same op to its K replica holders (§4.2). Tags 0–12,
        /// a request of its own per kind of mutation, are retired.
        Mutate {
            /// The mutation.
            op: ReplicaOp,
        } = 30 => "mutate",
        /// Resolution/fault handling: make sure this node serves the anchor
        /// at `path`. If the anchor is in the store, a no-op; if it is only in
        /// the replica area, promote it (§4.4); if it is the root anchor and
        /// absent everywhere, create it empty. Replies `Handle` for the
        /// store slot root; fails with `NoEnt` if the anchor cannot be
        /// served.
        EnsureAnchor {
            /// Anchor virtual path.
            path: String,
            /// Routing name the caller used to reach this node.
            routing: String,
        } = 13 => "ensure_anchor",
        /// Ask the primary for the current replica holders of the anchor
        /// covering `path` (read-from-replica optimization, §4.2).
        ReplicaTargets {
            /// Virtual path whose covering anchor's replicas are wanted.
            path: String,
        } = 19 => "replica_targets",
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
        /// Migration (§4.3.1): the receiver is the anchor's owner now. It
        /// merges the items into its store slot, names the slot `routing`
        /// last (so the slot is served only once it is whole) and pushes
        /// the result to its replica targets. Tags 15–17, the three-step
        /// transfer this replaces, are retired.
        TransferAnchor {
            /// Anchor virtual path.
            path: String,
            /// The anchor's routing name, for the slot's record.
            routing: String,
            /// The full subtree, in parent-before-child order.
            items: Vec<MigrateItem>,
        } = 29 => "transfer_anchor",
    }
}

wire_enum! {
    /// Requests a node's replica service (`ServiceId::KoshaReplica`)
    /// serves: what a primary sends the holders of its K replicas and of
    /// its hot copies. Every handler touches only local state (no nested
    /// RPCs), so concurrent fan-outs between primaries cannot form call
    /// cycles. A variant's label names its `replica:{name}` trace spans;
    /// the control service's tags are unknown here.
    #[derive(Debug, Clone, PartialEq)]
    pub enum ReplicaRequest labelled(NAMES, index, name) {
        /// Replace the receiver's replica copy of `path` with the batched
        /// subtree in one round trip, bracketed by the slot record's
        /// `migrating` flag.
        MigrateBatch {
            /// Anchor virtual path.
            path: String,
            /// The anchor's routing name, for the copy's record.
            routing: String,
            /// The full subtree, in parent-before-child order.
            items: Vec<MigrateItem>,
        } = 20 => "migrate_batch",
        /// Apply one mutation to the receiver's replica area. The primary
        /// fans the same op out to all K replica holders concurrently.
        ReplicaApply {
            /// The mutation, mirroring the primary's own store change.
            op: ReplicaOp,
        } = 21 => "replica_apply",
        /// Apply a coalesced batch of mutations in order, in one round
        /// trip — the write-behind pump's flush unit.
        ReplicaApplyBatch {
            /// The mutations, in primary apply order (post-coalescing).
            ops: Vec<ReplicaOp>,
        } = 22 => "replica_apply_batch",
        /// Heat-driven read scaling: place or refresh one read-only cached
        /// copy of a hot object in the receiver's replica area. The lease
        /// on it stays with the primary, which alone decides when it is
        /// read. The request carries the full object payload, so the
        /// handler touches only local state (DESIGN.md §16).
        HotReplicaPush {
            /// Covering anchor virtual path of the hot object.
            anchor: String,
            /// The anchor's routing name (recorded in the slot's record so
            /// replica-slot GC can find the owner).
            routing: String,
            /// Virtual path of the hot object.
            path: String,
            /// The object itself (`rel_path` relative to the anchor root,
            /// parent directories implied).
            item: MigrateItem,
        } = 26 => "hot_replica_push",
        /// Heat-driven read scaling: revoke the receiver's hot copy of
        /// `path` — heat decayed, the object was mutated without a
        /// refresh, or it was removed. A no-op when the receiver's slot
        /// record lists no copy at the path (e.g. the slot became a
        /// durable replica in the meantime).
        HotReplicaDrop {
            /// Covering anchor virtual path.
            anchor: String,
            /// Virtual path of the object whose copy is revoked.
            path: String,
        } = 27 => "hot_replica_drop",
        /// Replica pull: the record and the items of the receiver's
        /// replica slot of `anchor`, read from local state only. `NoEnt`
        /// when there is none.
        SlotRecord {
            /// Anchor virtual path.
            anchor: String,
        } = 28 => "slot_record",
    }
}

wire_enum! {
    /// One mutation of replicated state: what koshad sends the primary
    /// (`ControlRequest::Mutate`), and what the primary, once it has applied
    /// the change to its own store, ships to each replica holder (§4.2).
    /// Paths are full virtual paths; the receiver derives the covering
    /// anchor itself and finds its slot in its slot table. A holder
    /// treats already-done outcomes (`Exist` on creates, `NoEnt` on
    /// removes) as success so replays are idempotent. A variant's label
    /// names a mutation's control-service span (`kosha:write`).
    #[derive(Debug, Clone, PartialEq)]
    pub enum ReplicaOp labelled(NAMES, index, name) {
        /// Make the directory `path`. The store makes it with the given
        /// owner; a holder makes every directory of its replica area
        /// alike, and finds one already there done.
        Mkdir {
            /// Virtual path of the directory.
            path: String,
            /// Permission bits.
            mode: u32,
            /// Owner uid.
            uid: u32,
            /// Owner gid.
            gid: u32,
        } = 0 => "mkdir",
        /// Create an empty regular file.
        Create {
            /// Virtual path of the file.
            path: String,
            /// Permission bits.
            mode: u32,
            /// Owner uid.
            uid: u32,
            /// Owner gid.
            gid: u32,
        } = 1 => "create",
        /// Create a symlink: a special link ([`crate::primary::SPECIAL_LINK_MODE`],
        /// the sticky bit) or a user-level one ([`crate::primary::USER_LINK_MODE`]).
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
        } = 2 => "symlink",
        /// Write data (creating the file if the replica lacks it).
        Write {
            /// Virtual path of the file.
            path: String,
            /// Byte offset.
            offset: u64,
            /// Data (on the holder, a view of the request frame).
            data: Bytes,
        } = 3 => "write",
        /// Update attributes.
        SetAttr {
            /// Virtual path.
            path: String,
            /// Attribute changes.
            sattr: WireSetAttr,
        } = 4 => "setattr",
        /// Remove a file or symlink.
        Remove {
            /// Virtual path.
            path: String,
        } = 5 => "remove",
        /// Remove an empty directory, or the special link that stands for
        /// a distributed one.
        Rmdir {
            /// Virtual path.
            path: String,
        } = 6 => "rmdir",
        /// Drop the whole replica copy of an anchor (anchor teardown).
        RemoveSlot {
            /// Anchor virtual path.
            anchor: String,
        } = 7 => "remove_slot",
        /// Rename an entry (both paths under anchors this replica mirrors).
        Rename {
            /// Source virtual path.
            from: String,
            /// Destination virtual path.
            to: String,
        } = 8 => "rename",
        /// Rename an anchor's replica slot (anchor directory rename).
        RenameSlot {
            /// Current anchor virtual path.
            from: String,
            /// New anchor virtual path.
            to: String,
        } = 9 => "rename_slot",
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
        } = 10 => "lag_mark",
        /// Make a new, empty anchor's slot (`mkdir` of a distributed
        /// directory). The primary makes its store slot with the given
        /// owner; a holder replaces whatever stale copy it held with an
        /// empty slot of its own, as the first full push of the anchor
        /// would have. Both records carry `routing`.
        MakeSlot {
            /// Anchor virtual path.
            anchor: String,
            /// The anchor's routing name, for the slot's record.
            routing: String,
            /// Permission bits of the store slot root.
            mode: u32,
            /// Owner uid.
            uid: u32,
            /// Owner gid.
            gid: u32,
        } = 11 => "make_slot",
    }
}

impl ControlRequest {
    /// The label a request's trace spans carry: a mutation's is its op's
    /// (`write`, `make_slot`), any other request's its own.
    #[must_use]
    pub fn span_name(&self) -> &'static str {
        match self {
            ControlRequest::Mutate { op } => op.name(),
            req => req.name(),
        }
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
            ReplicaOp::Mkdir { path, .. }
            | ReplicaOp::Create { path, .. }
            | ReplicaOp::Symlink { path, .. }
            | ReplicaOp::Write { path, .. }
            | ReplicaOp::SetAttr { path, .. }
            | ReplicaOp::Remove { path }
            | ReplicaOp::Rmdir { path } => Names::Entry(path, None),
            ReplicaOp::Rename { from, to } => Names::Entry(from, Some(to)),
            ReplicaOp::RemoveSlot { anchor }
            | ReplicaOp::LagMark { anchor, .. }
            | ReplicaOp::MakeSlot { anchor, .. } => Names::Slot(anchor, None),
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
        /// A created object's real handle and attributes (a `Mutate` of
        /// `Create`, `Mkdir` or `MakeSlot`), or the slot root an
        /// `EnsureAnchor` serves — saves the caller a LOOKUP round trip,
        /// like NFS CREATE's post-op handle.
        Handle {
            /// Real handle on the replying node.
            fh: Fh,
            /// Attributes at creation.
            attr: WireAttr,
        } = 4,
        /// Node addresses (replica holders).
        Nodes(holders: Vec<kosha_rpc::NodeAddr>) = 5,
        /// Per-slot consistency digests (`AuditScan`), slot order.
        Audit(entries: Vec<AuditEntry>) = 6,
        /// One replica slot's record and items (`SlotRecord`). Tag 7, the
        /// record alone, is retired, as are tags 1 and 3, the unread
        /// promotion flag and the hosted-anchor listing.
        Slot {
            /// The slot's record.
            record: crate::slots::SlotMeta,
            /// The slot's subtree, in parent-before-child order.
            items: Vec<MigrateItem>,
        } = 8,
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
        let write = |offset, data: Vec<u8>| ReplicaOp::Write {
            path: "/a/f".into(),
            offset,
            data: data.into(),
        };
        let item = |rel_path: &str, kind| MigrateItem {
            rel_path: rel_path.into(),
            kind,
            mode: 0o644,
            uid: 1,
            gid: 2,
        };
        for req in [
            ControlRequest::Mutate {
                op: ReplicaOp::Create {
                    path: "/a/f".into(),
                    mode: 0o644,
                    uid: 1,
                    gid: 2,
                },
            },
            ControlRequest::Mutate {
                op: write(9, vec![1, 2]),
            },
            ControlRequest::EnsureAnchor {
                path: "/a".into(),
                routing: "a#3".into(),
            },
            ControlRequest::ReplicaTargets { path: "/a".into() },
            ControlRequest::ReplicaTargetsBySlot {
                slot: "@00c0ffee00c0ffee".into(),
                holder: 7,
            },
            ControlRequest::Flush {
                path: "/a/f".into(),
            },
            ControlRequest::AuditScan,
        ] {
            assert_eq!(ControlRequest::decode(&req.encode()).unwrap(), req);
        }
        for req in [
            ReplicaRequest::MigrateBatch {
                path: "/a".into(),
                routing: "a#4".into(),
                items: vec![
                    item("d", MigrateKind::Dir),
                    item("d/f", MigrateKind::Bytes(vec![5; 3].into())),
                ],
            },
            ReplicaRequest::ReplicaApply {
                op: write(4, vec![9, 8]),
            },
            ReplicaRequest::ReplicaApplyBatch {
                ops: vec![
                    ReplicaOp::Create {
                        path: "/a/f".into(),
                        mode: 0o644,
                        uid: 1,
                        gid: 2,
                    },
                    write(0, vec![3, 4]),
                    ReplicaOp::LagMark {
                        anchor: "/a".into(),
                        bytes: 0,
                    },
                ],
            },
            ReplicaRequest::HotReplicaPush {
                anchor: "/a".into(),
                routing: "a#2".into(),
                path: "/a/hot".into(),
                item: item("hot", MigrateKind::Bytes(vec![6; 5].into())),
            },
            ReplicaRequest::HotReplicaDrop {
                anchor: "/a".into(),
                path: "/a/hot".into(),
            },
        ] {
            assert_eq!(ReplicaRequest::decode(&req.encode()).unwrap(), req);
        }
    }

    #[test]
    fn replies_round_trip() {
        for frame in [
            ReplyFrame(Ok(KoshaReply::Done)),
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
                mode: 0o750,
                uid: 3,
                gid: 4,
            },
            ReplicaOp::Create {
                path: "/a/f".into(),
                mode: 0o644,
                uid: 1,
                gid: 2,
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
            ReplicaOp::MakeSlot {
                anchor: "/a".into(),
                routing: "a#3".into(),
                mode: 0o755,
                uid: 1,
                gid: 2,
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
