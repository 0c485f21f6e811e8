//! Primary-replica duties: executing mutations on the local store,
//! fanning them out to the K replicas (§4.2), promoting replicas after
//! failures (§4.4), and migrating anchors when the key space shifts
//! (§4.3).

use crate::control::{
    KoshaReply, KoshaReplyFrame, KoshaRequest, MigrateItem, MigrateKind, Names, ReplicaOp,
};
use crate::node::{ControlService, KoshaNode, ReplicaService};
use crate::paths::{
    anchor_slot, check_vpath, is_internal_name, slot_local_path, Area, ANCHOR_META, LAG_MARK,
    MIGRATION_FLAG,
};
use kosha_nfs::messages::ReplyFrame;
use kosha_nfs::{Fh, NfsReply, NfsRequest, NfsResult, NfsStatus};
use kosha_pastry::NodeInfo;
use kosha_rpc::{
    Bytes, Frame, NodeAddr, RpcError, RpcHandler, RpcRequest, RpcResponse, ServiceId, WireRead,
};
use kosha_vfs::path::parent_and_name;
use kosha_vfs::SetAttr;
use std::collections::HashMap;

/// Mode bits used for special links (sticky bit marks them).
pub const SPECIAL_LINK_MODE: u32 = 0o1777;
/// Mode bits for user symlinks.
pub const USER_LINK_MODE: u32 = 0o777;

impl KoshaNode {
    // ---- local store addressing ----------------------------------------

    fn hosted(&self, anchor: &str) -> bool {
        self.anchors.lock().contains_key(anchor)
    }

    fn routing_of(&self, anchor: &str) -> Option<String> {
        self.anchors.lock().get(anchor).cloned()
    }

    /// The slot an entry lands in: the covering anchor of its parent
    /// directory, that directory's virtual path, and the entry's name.
    /// Both areas, the write-behind queue and its lag marker derive the
    /// slot here and nowhere else.
    fn entry_slot<'a>(&self, vpath: &'a str) -> Result<(String, &'a str, &'a str), NfsStatus> {
        let (pp, name) = parent_and_name(vpath).ok_or(NfsStatus::Inval)?;
        Ok((self.covering_anchor(pp), pp, name))
    }

    /// The anchor whose slot `op` lands in — the slot a lag marker for
    /// it must stamp.
    pub(crate) fn landing_anchor(&self, op: &ReplicaOp) -> String {
        match op.names() {
            Names::Entry(path, _) => self
                .entry_slot(path)
                .map_or_else(|_| "/".to_string(), |(anchor, _, _)| anchor),
            Names::Slot(anchor, _) => anchor.to_string(),
        }
    }

    /// Handle of what virtual path `vpath` is within `anchor`'s slot.
    /// First of the two policies that tell the areas apart, what is
    /// missing: in the store an anchor this node does not host (the
    /// caller misrouted, or we lost ownership) or a path it lacks is
    /// `NoEnt`; the replica area takes `vpath` for a directory and makes
    /// the chain, since a mirrored op may arrive before, or without, the
    /// push that would have made it.
    pub(crate) fn slot_fh(&self, area: Area, anchor: &str, vpath: &str) -> Result<Fh, NfsStatus> {
        let p = slot_local_path(area, anchor, vpath);
        match area {
            Area::Store if !self.hosted(anchor) => Err(NfsStatus::NoEnt),
            Area::Store => self.fh_of(&p),
            Area::Replica => self
                .store
                .with_store(|v| v.mkdir_p(&p, 0o700))
                .map(Fh::from_file_id)
                .map_err(Into::into),
        }
    }

    /// [`Self::slot_fh`] of an entry's parent directory, plus the
    /// entry's name.
    fn entry_dir(&self, area: Area, vpath: &str) -> Result<(Fh, String), NfsStatus> {
        let (anchor, pp, name) = self.entry_slot(vpath)?;
        Ok((self.slot_fh(area, &anchor, pp)?, name.to_string()))
    }

    /// Handle of the existing object an op names, same policy. The store
    /// resolves it by path: a hosted anchor directory is the root of its
    /// own slot, anything else an entry of its parent's. A holder looks
    /// it up under its made-on-demand parent and, with `create_missing`,
    /// creates it as a plain file.
    fn op_object(&self, area: Area, vpath: &str, create_missing: bool) -> Result<Fh, NfsStatus> {
        if area == Area::Store {
            let anchor = if vpath == "/" || self.hosted(vpath) {
                vpath.to_string()
            } else {
                self.entry_slot(vpath)?.0
            };
            return self.slot_fh(area, &anchor, vpath);
        }
        let (anchor, pp, name) = self.entry_slot(vpath)?;
        let dir = self.slot_fh(area, &anchor, pp)?;
        if create_missing {
            return self.lookup_or_create(dir, name, (0o644, 0, 0));
        }
        let name = name.to_string();
        self.apply(NfsRequest::Lookup { dir, name })
            .and_then(handle_of)
    }

    pub(crate) fn fh_of(&self, store_path: &str) -> Result<Fh, NfsStatus> {
        self.store
            .with_store(|v| v.resolve(store_path))
            .map(|(id, _)| Fh::from_file_id(id))
            .map_err(Into::into)
    }

    pub(crate) fn apply(&self, req: NfsRequest) -> Result<NfsReply, NfsStatus> {
        self.store.apply(req)
    }

    /// Handle of `name` in `dir`, created as a plain file owned by
    /// `(mode, uid, gid)` if it is not there.
    pub(crate) fn lookup_or_create(
        &self,
        dir: Fh,
        name: &str,
        (mode, uid, gid): (u32, u32, u32),
    ) -> Result<Fh, NfsStatus> {
        match self.apply(NfsRequest::Lookup {
            dir,
            name: name.to_string(),
        }) {
            Err(NfsStatus::NoEnt) => self.apply(NfsRequest::Create {
                dir,
                name: name.to_string(),
                mode,
                uid,
                gid,
            }),
            found => found,
        }
        .and_then(handle_of)
    }

    /// Makes `data` the whole content of `name` in `dir`, creating the
    /// file if needed.
    pub(crate) fn replace_file(
        &self,
        dir: Fh,
        name: &str,
        owner: (u32, u32, u32),
        data: Bytes,
    ) -> Result<NfsReply, NfsStatus> {
        let fh = self.lookup_or_create(dir, name, owner)?;
        self.overwrite(fh, data)
    }

    /// Truncates, then writes: shorter content never leaves stale
    /// trailing bytes.
    fn overwrite(&self, fh: Fh, data: Bytes) -> Result<NfsReply, NfsStatus> {
        self.apply(NfsRequest::Setattr {
            fh,
            sattr: kosha_nfs::messages::WireSetAttr(SetAttr {
                size: Some(0),
                ..Default::default()
            }),
        })?;
        self.apply(NfsRequest::Write {
            fh,
            offset: 0,
            data,
        })
    }

    /// Content of the small (marker or metadata) file at `store_path`,
    /// `None` if there is no such file.
    pub(crate) fn read_text(&self, store_path: &str) -> Option<String> {
        self.store.with_store(|v| {
            let (id, attr) = v.resolve(store_path).ok()?;
            let (data, _) = v.read(id, 0, attr.size as u32).ok()?;
            Some(String::from_utf8_lossy(&data).into_owned())
        })
    }

    // ---- anchor metadata ------------------------------------------------

    fn write_anchor_meta(&self, anchor: &str, routing: &str) -> Result<(), NfsStatus> {
        let slot_path = slot_local_path(Area::Store, anchor, anchor);
        let dir = self.fh_of(&slot_path)?;
        let fh = match self.apply(NfsRequest::Create {
            dir,
            name: ANCHOR_META.into(),
            mode: 0o600,
            uid: 0,
            gid: 0,
        }) {
            Err(NfsStatus::Exist) => self.fh_of(&format!("{slot_path}/{ANCHOR_META}")),
            created => created.and_then(handle_of),
        }?;
        self.overwrite(fh, routing.as_bytes().into()).map(|_| ())
    }

    /// Makes a new, empty anchor in the store and starts serving it.
    fn create_anchor(
        &self,
        anchor: &str,
        routing: String,
        (mode, uid, gid): (u32, u32, u32),
    ) -> Result<(), NfsStatus> {
        self.apply(NfsRequest::Mkdir {
            dir: self.fh_of(&Area::Store.local_path("/"))?,
            name: anchor_slot(anchor),
            mode,
            uid,
            gid,
        })?;
        self.write_anchor_meta(anchor, &routing)?;
        self.anchors.lock().insert(anchor.to_string(), routing);
        self.ensure_replicas(anchor);
        Ok(())
    }

    fn read_anchor_meta(&self, anchor: &str) -> Option<String> {
        self.read_text(&format!(
            "{}/{ANCHOR_META}",
            slot_local_path(Area::Store, anchor, anchor)
        ))
    }

    // ---- replication ------------------------------------------------------

    pub(crate) fn replica_addrs(&self) -> Vec<NodeAddr> {
        self.pastry
            .replica_targets(self.cfg.replicas)
            .into_iter()
            .map(|n| n.addr)
            .collect()
    }

    /// Mirrors one mutation the store has taken (§4.2): queued per
    /// target under write-behind (DESIGN.md §11; flush barriers and the
    /// transport pump drain the queues, off the client's critical path),
    /// else fanned out before the mutation is acknowledged.
    fn mirror_op(&self, op: ReplicaOp) {
        let targets = self.replica_addrs();
        if targets.is_empty() {
            return;
        }
        match self.write_behind_queue_ops() {
            Some(queue_ops) => self.enqueue_replica_op(op, &targets, queue_ops),
            None => self.fan_out("kosha:mirror", &targets, op),
        }
    }

    /// Sends `op` to every target concurrently, one `ReplicaApply` each
    /// on the dedicated replica service, under a `span` of the trace.
    /// Every failed target is counted and journaled with its node id
    /// (and, via the journal's ambient-trace stamping, linked to the
    /// active trace) so degraded replication is fully attributable; the
    /// next full push ([`Self::ensure_replicas`]) heals the copy.
    pub(crate) fn fan_out(&self, span: &'static str, targets: &[NodeAddr], op: ReplicaOp) {
        let clock = self.net.clock();
        self.obs.tracer.child(
            || span.to_string(),
            self.info.addr.0,
            || clock.now().0,
            || {
                let req =
                    RpcRequest::split(ServiceId::KoshaReplica, &KoshaRequest::ReplicaApply { op });
                let batch = targets.iter().map(|a| (*a, req.clone())).collect();
                let results = self.net.call_many(self.info.addr, batch);
                for (addr, result) in targets.iter().zip(results) {
                    self.note_mirror_result(*addr, mirror_succeeded(result));
                }
            },
        );
    }

    /// Records one replica target's mirror outcome: every failure bumps
    /// `replica_mirror_failures` and journals the missed target's node
    /// id, so a batch that loses several replicas reports all of them,
    /// not just the first.
    pub(crate) fn note_mirror_result(&self, addr: NodeAddr, ok: bool) {
        if ok {
            return;
        }
        // A missed mutation (or dropped flush batch) leaves some replica
        // behind the primary while the primary's own content digest may
        // not change again — void the full-push memo so the next
        // maintenance pass re-pushes and heals the divergence.
        self.replica_push_memo.lock().clear();
        self.stats.replica_mirror_failures.inc();
        self.journal(
            "mirror_failure",
            format!("replica on node {} missed a mirrored mutation", addr.0),
        );
    }

    /// Pushes a full, fresh copy of `anchor` to every replica target in
    /// parallel, each as one batched `MigrateBatch` RPC bracketed by the
    /// `MIGRATION_NOT_COMPLETE` flag on the receiving side (§4.4).
    ///
    /// The push is skipped when the anchor's content digest and target
    /// set both match the last fully-acknowledged push (the memo on
    /// [`KoshaNode::replica_push_memo`]): a no-op bracket replace would
    /// still destroy and recreate every holder-side file, invalidating
    /// readers' cached replica handles and putting a full-tree transfer
    /// on the wire each maintenance tick. The memo is voided by any
    /// mirror/push failure and by a holder leaving the target set, so
    /// every divergence source still converges through this path.
    pub(crate) fn ensure_replicas(&self, anchor: &str) {
        if self.cfg.replicas == 0 {
            return;
        }
        if self.routing_of(anchor).is_none() {
            return;
        }
        let targets = self.replica_addrs();
        if targets.is_empty() {
            return;
        }
        let slot_path = slot_local_path(Area::Store, anchor, anchor);
        let Ok(exported) = self.store.with_store(|v| v.export_tree(&slot_path)) else {
            return;
        };
        let digest = crate::audit::tree_digest(&exported);
        if self
            .replica_push_memo
            .lock()
            .get(anchor)
            .is_some_and(|(d, t)| *d == digest && *t == targets)
        {
            self.stats.replica_push_skips.inc();
            return;
        }
        let items: Vec<MigrateItem> = exported.into_iter().map(MigrateItem::from).collect();
        let req = RpcRequest::new(
            ServiceId::KoshaReplica,
            &KoshaRequest::MigrateBatch {
                path: anchor.to_string(),
                items,
            },
        );
        let clock = self.net.clock();
        let mut all_ok = true;
        self.obs.tracer.child(
            || "kosha:replica_push".to_string(),
            self.info.addr.0,
            || clock.now().0,
            || {
                let batch = targets.iter().map(|a| (*a, req.clone())).collect();
                let results = self.net.call_many(self.info.addr, batch);
                for (addr, result) in targets.iter().zip(results) {
                    let ok = mirror_succeeded(result);
                    if ok {
                        self.stats.replica_pushes.inc();
                    } else {
                        all_ok = false;
                    }
                    self.note_mirror_result(*addr, ok);
                }
            },
        );
        if all_ok {
            self.replica_push_memo
                .lock()
                .insert(anchor.to_string(), (digest, targets));
        }
    }

    // ---- the replica service (receiving side) -----------------------------

    /// Serves the replica-maintenance service: only replica-area
    /// requests (mirrored ops, full pushes, and hot-copy push/drop) are
    /// valid here, and all of them touch purely local state (no nested
    /// RPCs), preserving the transports' deadlock discipline.
    pub(crate) fn handle_replica(&self, req: KoshaRequest) -> Result<KoshaReply, NfsStatus> {
        match req {
            KoshaRequest::ReplicaApply { op } => self.apply_op(Area::Replica, &op, None).map(drop),
            // Apply in order and stop at the first failure: a partly
            // applied batch must leave the slot's lag marker set (the
            // clears ride at the batch tail), so a later promotion of
            // this copy still reports the divergence.
            KoshaRequest::ReplicaApplyBatch { ops } => ops
                .iter()
                .try_for_each(|op| self.apply_op(Area::Replica, op, None).map(drop)),
            KoshaRequest::MigrateBatch { path, items } => self.receive_migrate_batch(&path, items),
            KoshaRequest::HotReplicaPush {
                anchor,
                routing,
                path,
                seq,
                expires_nanos,
                item,
            } => self.receive_hot_push(&anchor, &routing, &path, seq, expires_nanos, &item),
            KoshaRequest::HotReplicaDrop { anchor, path } => self.receive_hot_drop(&anchor, &path),
            _ => Err(NfsStatus::NotSupp),
        }?;
        Ok(KoshaReply::Done)
    }

    /// Applies one mutation to `area` of the local store: the whole
    /// `ReplicaOp` → `NfsRequest` mapping, run by the primary on its
    /// store and by each holder on its replica area (§4.2: one
    /// operation, K+1 places). The areas differ in two policies only,
    /// what is missing ([`Self::slot_fh`], [`Self::op_object`]) and what
    /// is already done ([`settle`]). `dir_attr` is the mode, uid and gid
    /// of a directory `Mkdir` makes in the store; the wire op carries
    /// none, and the replica area makes all its directories alike.
    pub(crate) fn apply_op(
        &self,
        area: Area,
        op: &ReplicaOp,
        dir_attr: Option<(u32, u32, u32)>,
    ) -> Result<NfsReply, NfsStatus> {
        // The paths are a peer's and are about to be joined into local
        // ones: nothing is touched for one that could climb out of its
        // slot.
        let (Names::Entry(a, b) | Names::Slot(a, b)) = op.names();
        check_vpath(a)?;
        b.map_or(Ok(()), check_vpath)?;
        match op {
            ReplicaOp::Mkdir { path } => {
                let (anchor, pp, name) = self.entry_slot(path)?;
                if area == Area::Replica {
                    // Here the op *is* the missing-directory policy,
                    // applied to `path` itself.
                    return self.slot_fh(area, &anchor, path).map(|_| NfsReply::Void);
                }
                let (mode, uid, gid) = dir_attr.unwrap_or((0o700, 0, 0));
                self.apply(NfsRequest::Mkdir {
                    dir: self.slot_fh(area, &anchor, pp)?,
                    name: name.to_string(),
                    mode,
                    uid,
                    gid,
                })
            }
            ReplicaOp::Create {
                path,
                mode,
                uid,
                gid,
                size,
            } => {
                let (dir, name) = self.entry_dir(area, path)?;
                let (mode, uid, gid) = (*mode, *uid, *gid);
                let req = match *size {
                    None => NfsRequest::Create {
                        dir,
                        name,
                        mode,
                        uid,
                        gid,
                    },
                    Some(size) => NfsRequest::CreateSized {
                        dir,
                        name,
                        size,
                        mode,
                        uid,
                        gid,
                    },
                };
                settle(area, self.apply(req), NfsStatus::Exist)
            }
            ReplicaOp::Symlink {
                path,
                target,
                mode,
                uid,
                gid,
            } => {
                let (dir, name) = self.entry_dir(area, path)?;
                let req = NfsRequest::Symlink {
                    dir,
                    name,
                    target: target.clone(),
                    mode: *mode,
                    uid: *uid,
                    gid: *gid,
                };
                settle(area, self.apply(req), NfsStatus::Exist)
            }
            ReplicaOp::Write { path, offset, data } => {
                let fh = self.op_object(area, path, true)?;
                self.apply(NfsRequest::Write {
                    fh,
                    offset: *offset,
                    data: data.clone(),
                })
            }
            ReplicaOp::SetAttr { path, sattr } => {
                let fh = self.op_object(area, path, false)?;
                self.apply(NfsRequest::Setattr {
                    fh,
                    sattr: sattr.clone(),
                })
            }
            ReplicaOp::Remove { path } => {
                let (dir, name) = self.entry_dir(area, path)?;
                let r = self.apply(NfsRequest::Remove { dir, name });
                settle(area, r, NfsStatus::NoEnt)
            }
            ReplicaOp::Rmdir { path } => {
                let (dir, name) = self.entry_dir(area, path)?;
                let r = self.apply(NfsRequest::Rmdir { dir, name });
                settle(area, r, NfsStatus::NoEnt)
            }
            ReplicaOp::Rename { from, to } => {
                let (sdir, sname) = self.entry_dir(area, from)?;
                let (ddir, dname) = self.entry_dir(area, to)?;
                let r = self.apply(NfsRequest::Rename {
                    sdir,
                    sname,
                    ddir,
                    dname,
                });
                settle(area, r, NfsStatus::NoEnt)
            }
            ReplicaOp::RemoveSlot { anchor } => {
                let r = self.apply(NfsRequest::RemoveTree {
                    dir: self.fh_of(&area.local_path("/"))?,
                    name: anchor_slot(anchor),
                });
                settle(area, r, NfsStatus::NoEnt)
            }
            ReplicaOp::RenameSlot { from, to } => {
                let slots = self.fh_of(&area.local_path("/"))?;
                let r = self.apply(NfsRequest::Rename {
                    sdir: slots,
                    sname: anchor_slot(from),
                    ddir: slots,
                    dname: anchor_slot(to),
                });
                settle(area, r, NfsStatus::NoEnt)
            }
            ReplicaOp::LagMark { anchor, bytes } => {
                let dir = self.slot_fh(area, anchor, anchor)?;
                if *bytes == 0 {
                    // Clear: the flush batch carrying this op brought the
                    // slot up to date.
                    let r = self.apply(NfsRequest::Remove {
                        dir,
                        name: LAG_MARK.into(),
                    });
                    return settle(area, r, NfsStatus::NoEnt);
                }
                let stamp = bytes.to_string().into_bytes();
                self.replace_file(dir, LAG_MARK, (0o600, 0, 0), stamp.into())
            }
        }
    }

    /// Voids the hot-copy leases of what `op` names (DESIGN.md §16). From
    /// here `ReplicaTargets` stops advertising the holders, so a reader
    /// that fetches targets after the mutation's reply is never steered
    /// to pre-mutation data. The match has no wildcard: a new kind of
    /// mutation does not compile until it says what it voids.
    fn void_leases(&self, op: &ReplicaOp) {
        match op {
            // The object lives on with new content: its copies stay but
            // are not advertised until the next sweep re-pushes them.
            ReplicaOp::Write { path, .. } | ReplicaOp::SetAttr { path, .. } => {
                self.hot_invalidate(path);
            }
            // The name stops meaning this object (removed, renamed away,
            // renamed over), and a renamed directory takes every name
            // under it along: their heat slots and their copies go.
            ReplicaOp::Remove { path } => self.hot_forget_object(path),
            ReplicaOp::Rename { from, to } => {
                self.hot_forget_object(from);
                self.hot_forget_object(to);
            }
            // Hot copies are keyed by anchor name: a holder that kept
            // serving a removed or renamed anchor would hand out reads
            // of a directory that no longer exists under that path.
            ReplicaOp::RemoveSlot { anchor } | ReplicaOp::RenameSlot { from: anchor, .. } => {
                self.hot_forget_anchor(anchor);
            }
            // A name that was free has no copies (every way a name dies
            // is above), and only file bodies and anchor slots go hot, so
            // an empty directory has none either. Lag marks are
            // holder-side files the primary never applies to itself.
            ReplicaOp::Mkdir { .. }
            | ReplicaOp::Create { .. }
            | ReplicaOp::Symlink { .. }
            | ReplicaOp::Rmdir { .. }
            | ReplicaOp::LagMark { .. } => {}
        }
    }

    /// The one way the primary changes replicated state, in the one
    /// order that is sound: apply to the store, void the hot leases, and
    /// only then mirror — a mutation that acked its fan-out while a lease
    /// was live could be followed by a stale read. The only caller of
    /// [`Self::mirror_op`]. The reply is the one the requesting koshad
    /// expects: the new handle for a create or mkdir, else `Done`.
    fn mutate(
        &self,
        op: ReplicaOp,
        dir_attr: Option<(u32, u32, u32)>,
    ) -> Result<KoshaReply, NfsStatus> {
        let reply = self.apply_op(Area::Store, &op, dir_attr)?;
        self.void_leases(&op);
        let makes_object = matches!(op, ReplicaOp::Create { .. } | ReplicaOp::Mkdir { .. });
        self.mirror_op(op);
        Ok(match reply {
            NfsReply::Handle { fh, attr } if makes_object => KoshaReply::Handle { fh, attr },
            _ => KoshaReply::Done,
        })
    }

    /// Installs a complete anchor copy shipped in one RPC: drop any stale
    /// replica, materialize the subtree under the migration flag, then
    /// clear the flag (§4.4's consistency bracket).
    fn receive_migrate_batch(
        &self,
        anchor: &str,
        items: Vec<MigrateItem>,
    ) -> Result<(), NfsStatus> {
        let rarea = self.fh_of(&format!("/{}", Area::Replica.dir_name()))?;
        let slot = anchor_slot(anchor);
        let _ = self.apply(NfsRequest::RemoveTree {
            dir: rarea,
            name: slot.clone(),
        });
        let aroot = self
            .apply(NfsRequest::Mkdir {
                dir: rarea,
                name: slot,
                mode: 0o700,
                uid: 0,
                gid: 0,
            })
            .and_then(handle_of)?;
        self.apply(NfsRequest::Create {
            dir: aroot,
            name: MIGRATION_FLAG.into(),
            mode: 0o600,
            uid: 0,
            gid: 0,
        })?;
        let mut dirs: HashMap<String, Fh> = HashMap::new();
        dirs.insert(String::new(), aroot);
        for item in items {
            let MigrateItem {
                rel_path,
                kind,
                mode,
                uid,
                gid,
            } = item;
            if rel_path.is_empty() {
                continue;
            }
            let (prel, name) = rel_path.rsplit_once('/').unwrap_or(("", &rel_path));
            let Some(&pfh) = dirs.get(prel) else {
                continue;
            };
            let is_dir = kind == MigrateKind::Dir;
            let made = self.put_item(pfh, name, kind, (mode, uid, gid), false)?;
            if let (true, NfsReply::Handle { fh, .. }) = (is_dir, made) {
                dirs.insert(rel_path, fh);
            }
        }
        self.apply(NfsRequest::Remove {
            dir: aroot,
            name: MIGRATION_FLAG.into(),
        })?;
        Ok(())
    }

    /// Materialises one migrated item as `name` in `dir`. With `merge` (a
    /// transfer into a store that may hold an interim copy) whatever has
    /// the name makes way for a file or link and a directory already
    /// there is kept; a bracket push into a fresh slot needs neither.
    fn put_item(
        &self,
        dir: Fh,
        name: &str,
        kind: MigrateKind,
        (mode, uid, gid): (u32, u32, u32),
        merge: bool,
    ) -> Result<NfsReply, NfsStatus> {
        let name = name.to_string();
        if merge && kind != MigrateKind::Dir {
            if matches!(kind, MigrateKind::Bytes(_)) {
                let _ = self.apply(NfsRequest::RemoveTree {
                    dir,
                    name: name.clone(),
                });
            }
            let _ = self.apply(NfsRequest::Remove {
                dir,
                name: name.clone(),
            });
        }
        match kind {
            MigrateKind::Dir => match self.apply(NfsRequest::Mkdir {
                dir,
                name,
                mode,
                uid,
                gid,
            }) {
                Err(NfsStatus::Exist) if merge => Ok(NfsReply::Void),
                made => made,
            },
            MigrateKind::Bytes(data) => {
                let made = self.apply(NfsRequest::Create {
                    dir,
                    name,
                    mode,
                    uid,
                    gid,
                });
                self.apply(NfsRequest::Write {
                    fh: made.and_then(handle_of)?,
                    offset: 0,
                    data,
                })
            }
            MigrateKind::Sparse(size) => self.apply(NfsRequest::CreateSized {
                dir,
                name,
                size,
                mode,
                uid,
                gid,
            }),
            MigrateKind::Symlink { target } => self.apply(NfsRequest::Symlink {
                dir,
                name,
                target,
                mode,
                uid,
                gid,
            }),
        }
    }

    // ---- promotion & migration -------------------------------------------

    /// Checks a freshly promoted (or pulled) store copy of `anchor` for
    /// a write-behind lag marker left behind by the failed primary. A
    /// present marker means this copy is missing ops the primary had
    /// queued but never flushed: the divergence is journaled as
    /// `replica_lag` with the stamped payload-byte lower bound — failover
    /// never *silently* serves stale data — and the marker is removed
    /// from the now-authoritative copy.
    fn consume_lag_marker(&self, anchor: &str) {
        let slot_path = slot_local_path(Area::Store, anchor, anchor);
        let Some(stamp) = self.read_text(&format!("{slot_path}/{LAG_MARK}")) else {
            return;
        };
        let bytes = stamp.trim().parse::<u64>().unwrap_or(0);
        if let Ok(dir) = self.fh_of(&slot_path) {
            let _ = self.apply(NfsRequest::Remove {
                dir,
                name: LAG_MARK.into(),
            });
        }
        self.stats.replica_lag_events.inc();
        self.journal(
            "replica_lag",
            format!(
                "promoted copy of {anchor:?} is missing at least {bytes} payload \
                 bytes the failed primary never flushed"
            ),
        );
    }

    /// Moves `anchor` from the replica area into the store and starts
    /// serving it as primary (§4.4's transparent failover end-state).
    fn promote_anchor(&self, anchor: &str) -> Result<(), NfsStatus> {
        let slot = anchor_slot(anchor);
        self.store
            .with_store(|v| {
                let (rparent, _) = v.resolve(&format!("/{}", Area::Replica.dir_name()))?;
                let (sparent, _) = v.resolve(&format!("/{}", Area::Store.dir_name()))?;
                let _ = v.remove_tree(sparent, &slot); // drop any stale store copy
                v.rename(rparent, &slot, sparent, &slot)
            })
            .map_err(NfsStatus::from)?;
        // If the old primary died mid-push, the flag file is present; the
        // content is our best (and only reachable) copy — serve it and
        // refresh the other replicas from it.
        let slot_path = slot_local_path(Area::Store, anchor, anchor);
        if let Ok(dir) = self.fh_of(&slot_path) {
            let _ = self.apply(NfsRequest::Remove {
                dir,
                name: MIGRATION_FLAG.into(),
            });
        }
        self.consume_lag_marker(anchor);
        let routing = self
            .read_anchor_meta(anchor)
            .unwrap_or_else(|| default_routing(anchor));
        self.anchors.lock().insert(anchor.to_string(), routing);
        self.stats.promotions.inc();
        self.journal(
            "promotion",
            format!("replica of {anchor:?} promoted to primary"),
        );
        self.ensure_replicas(anchor);
        Ok(())
    }

    /// Searches the leaf set for a node holding a replica of `anchor`
    /// and copies it into the local store over NFS. Returns true on
    /// success. This covers the corner the paper's §4.4 glosses over:
    /// with few replicas, the node that becomes numerically closest after
    /// a failure is not always one of the replica holders.
    fn pull_anchor_from_neighbors(&self, anchor: &str, routing: &str) -> bool {
        let slot = anchor_slot(anchor);
        for m in self.pastry.leaf_members() {
            let Ok(root) = self.nfs.mount(m.addr) else {
                continue;
            };
            let Ok((rarea, _)) = self.nfs.lookup(m.addr, root, Area::Replica.dir_name()) else {
                continue;
            };
            let Ok((src, _)) = self.nfs.lookup(m.addr, rarea, &slot) else {
                continue;
            };
            // Found a replica holder: materialize into our store.
            let dst = {
                let sarea = match self.fh_of(&format!("/{}", Area::Store.dir_name())) {
                    Ok(fh) => fh,
                    Err(_) => continue,
                };
                let _ = self.apply(NfsRequest::RemoveTree {
                    dir: sarea,
                    name: slot.clone(),
                });
                match self.apply(NfsRequest::Mkdir {
                    dir: sarea,
                    name: slot.clone(),
                    mode: 0o755,
                    uid: 0,
                    gid: 0,
                }) {
                    Ok(NfsReply::Handle { fh, .. }) => fh,
                    _ => continue,
                }
            };
            if self.pull_tree(m.addr, src, dst).is_err() {
                continue;
            }
            // Drop a stale migration flag if the holder's copy had one.
            let _ = self.apply(NfsRequest::Remove {
                dir: dst,
                name: MIGRATION_FLAG.into(),
            });
            self.consume_lag_marker(anchor);
            let routing = self
                .read_anchor_meta(anchor)
                .unwrap_or_else(|| routing.to_string());
            self.anchors.lock().insert(anchor.to_string(), routing);
            self.stats.replica_pulls.inc();
            self.journal(
                "replica_pull",
                format!("pulled {anchor:?} from a neighbor replica"),
            );
            self.ensure_replicas(anchor);
            return true;
        }
        false
    }

    /// Recursively copies a remote directory (by NFS reads) into a local
    /// store directory.
    fn pull_tree(&self, src_addr: NodeAddr, src: Fh, dst: Fh) -> NfsResult<()> {
        for e in self.nfs.readdir(src_addr, src)? {
            let attr = self.nfs.getattr(src_addr, e.fh)?;
            match e.ftype {
                kosha_vfs::FileType::Directory => {
                    let child = match self.apply(NfsRequest::Mkdir {
                        dir: dst,
                        name: e.name.clone(),
                        mode: attr.mode,
                        uid: attr.uid,
                        gid: attr.gid,
                    }) {
                        Ok(NfsReply::Handle { fh, .. }) => fh,
                        Ok(_) => continue,
                        Err(err) => return Err(kosha_nfs::NfsError::Status(err)),
                    };
                    self.pull_tree(src_addr, e.fh, child)?;
                }
                kosha_vfs::FileType::Regular => {
                    let local = match self.apply(NfsRequest::Create {
                        dir: dst,
                        name: e.name.clone(),
                        mode: attr.mode,
                        uid: attr.uid,
                        gid: attr.gid,
                    }) {
                        Ok(NfsReply::Handle { fh, .. }) => fh,
                        Ok(_) => continue,
                        Err(err) => return Err(kosha_nfs::NfsError::Status(err)),
                    };
                    let mut off = 0u64;
                    loop {
                        let (data, eof) = self.nfs.read(src_addr, e.fh, off, self.cfg.io_chunk)?;
                        if !data.is_empty() {
                            self.apply(NfsRequest::Write {
                                fh: local,
                                offset: off,
                                data: data.clone(),
                            })
                            .map_err(kosha_nfs::NfsError::Status)?;
                            off += data.len() as u64;
                        }
                        if eof {
                            break;
                        }
                    }
                }
                kosha_vfs::FileType::Symlink => {
                    let target = self.nfs.readlink(src_addr, e.fh)?;
                    let _ = self.apply(NfsRequest::Symlink {
                        dir: dst,
                        name: e.name.clone(),
                        target,
                        mode: attr.mode,
                        uid: attr.uid,
                        gid: attr.gid,
                    });
                }
            }
        }
        Ok(())
    }

    /// Sends the anchor's subtree to `owner` (the node the key space now
    /// assigns it to) and demotes the local copy to a replica (§4.3.1:
    /// "the files are copied to the new node, and their copy on N becomes
    /// one of the replicas").
    pub(crate) fn transfer_anchor(
        &self,
        anchor: &str,
        routing: &str,
        owner: NodeInfo,
    ) -> NfsResult<()> {
        let slot_path = slot_local_path(Area::Store, anchor, anchor);
        let items: Vec<MigrateItem> = self
            .store
            .with_store(|v| v.export_tree(&slot_path))
            .map_err(|e| kosha_nfs::NfsError::Status(e.into()))?
            .into_iter()
            .map(MigrateItem::from)
            .collect();
        self.control(
            owner.addr,
            &KoshaRequest::BeginTransfer {
                path: anchor.to_string(),
            },
        )?;
        for item in items {
            self.control(
                owner.addr,
                &KoshaRequest::TransferPut {
                    path: anchor.to_string(),
                    item,
                },
            )?;
        }
        self.control(
            owner.addr,
            &KoshaRequest::CommitTransfer {
                path: anchor.to_string(),
                routing_name: routing.to_string(),
            },
        )?;
        self.demote_anchor(anchor);
        self.stats.migrations_out.inc();
        self.journal(
            "migration_out",
            format!("anchor {anchor:?} handed to new owner"),
        );
        Ok(())
    }

    /// Demotes a hosted anchor to a replica copy (after migrating it).
    fn demote_anchor(&self, anchor: &str) {
        // Hot-copy leases die with the primaryship: the new owner tracks
        // its own heat and spawns its own copies if demand persists.
        self.hot_forget_anchor(anchor);
        self.replica_push_memo.lock().remove(anchor);
        self.anchors.lock().remove(anchor);
        let slot = anchor_slot(anchor);
        let _ = self.store.with_store(|v| {
            let (sparent, _) = v.resolve(&format!("/{}", Area::Store.dir_name()))?;
            let (rparent, _) = v.resolve(&format!("/{}", Area::Replica.dir_name()))?;
            let _ = v.remove_tree(rparent, &slot);
            v.rename(sparent, &slot, rparent, &slot)
        });
        self.invalidate_dir_subtree(anchor);
        let mut c = self.client.lock();
        c.dir_cache.remove(anchor);
        drop(c);
    }

    /// Reacts to leaf-set changes: migrate anchors whose keys now map to
    /// another node, refresh replicas for the rest (§4.3).
    pub(crate) fn on_leaf_change(&self, _joined: Option<NodeInfo>) {
        // Flush barrier: migration and replica refresh below must never
        // run against replicas that are behind the write-behind queues.
        self.flush_replication();
        for (path, routing) in self.hosted_anchors() {
            match self.owner_of(&routing) {
                Ok(owner) if owner.id != self.info.id => {
                    let _ = self.transfer_anchor(&path, &routing, owner);
                }
                Ok(_) => self.ensure_replicas(&path),
                Err(_) => {}
            }
        }
    }

    /// Garbage-collects stale replica slots: for every slot in the
    /// replica area, asks the anchor's current owner whether this node
    /// is still one of its replica targets, and drops the copy only on a
    /// positive "no". Leaf-set churn silently shrinks an anchor's target
    /// set, and [`Self::ensure_replicas`] only refreshes *current*
    /// targets — an ex-holder's copy would otherwise diverge forever and
    /// show up as over-replication in every audit. Conservative on every
    /// uncertain answer (owner unreachable, `NoEnt`, missing anchor
    /// meta): a stale copy is an audit nuisance, a wrongly dropped one
    /// is data loss. Returns the number of slots dropped. Called from
    /// [`KoshaNode::maintain`], never from the leaf-change hook, so its
    /// per-slot owner round-trips stay off the failover critical path.
    pub fn gc_replica_slots(&self) -> u64 {
        let root = format!("/{}", Area::Replica.dir_name());
        let slots: Vec<String> = self.store.with_store(|v| {
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
        let mut dropped = 0u64;
        for slot in slots {
            // The anchor meta inside the slot carries the ROUTING name
            // (what the DHT keys on), which is exactly what we need to
            // find the owner. No meta → keep; the copy may still be
            // mid-migration.
            let Some(routing) = self.read_text(&format!("{root}/{slot}/{ANCHOR_META}")) else {
                continue;
            };
            let Ok(owner) = self.owner_of(&routing) else {
                continue;
            };
            if owner.id == self.info.id {
                // We own the anchor ourselves; promotion/demotion paths
                // manage the slot, not GC.
                continue;
            }
            let Ok(KoshaReply::Nodes(targets)) = self.control(
                owner.addr,
                &KoshaRequest::ReplicaTargetsBySlot {
                    slot: slot.clone(),
                    holder: self.info.addr.0,
                },
            ) else {
                continue;
            };
            if targets.contains(&self.info.addr) {
                continue;
            }
            let removed = self
                .store
                .with_store(|v| {
                    let (rparent, _) = v.resolve(&root)?;
                    v.remove_tree(rparent, &slot)
                })
                .is_ok();
            if removed {
                dropped += 1;
                self.stats.replica_gc.inc();
                self.journal(
                    "replica_gc",
                    format!("dropped stale replica slot {slot} (no longer a target)"),
                );
            }
        }
        dropped
    }

    // ---- the control handler ----------------------------------------------

    pub(crate) fn handle_control(&self, req: KoshaRequest) -> Result<KoshaReply, NfsStatus> {
        match req {
            // Mutations of replicated state: each is its `ReplicaOp`, run
            // through `mutate`.
            KoshaRequest::CreateFile {
                path,
                mode,
                uid,
                gid,
                size,
            } => self.mutate(
                ReplicaOp::Create {
                    path,
                    mode,
                    uid,
                    gid,
                    size,
                },
                None,
            ),
            KoshaRequest::MkdirLocal {
                path,
                mode,
                uid,
                gid,
            } => self.mutate(ReplicaOp::Mkdir { path }, Some((mode, uid, gid))),
            KoshaRequest::PlaceLink {
                path,
                target,
                uid,
                gid,
            } => {
                let mode = SPECIAL_LINK_MODE;
                self.mutate(
                    ReplicaOp::Symlink {
                        path,
                        target,
                        mode,
                        uid,
                        gid,
                    },
                    None,
                )
            }
            KoshaRequest::SymlinkFile {
                path,
                target,
                uid,
                gid,
            } => {
                let mode = USER_LINK_MODE;
                self.mutate(
                    ReplicaOp::Symlink {
                        path,
                        target,
                        mode,
                        uid,
                        gid,
                    },
                    None,
                )
            }
            KoshaRequest::Write { path, offset, data } => {
                self.mutate(ReplicaOp::Write { path, offset, data }, None)
            }
            KoshaRequest::SetAttr { path, sattr } => {
                self.mutate(ReplicaOp::SetAttr { path, sattr }, None)
            }
            KoshaRequest::Remove { path } | KoshaRequest::RemoveLink { path } => {
                self.mutate(ReplicaOp::Remove { path }, None)
            }
            KoshaRequest::Rmdir { path } => self.mutate(ReplicaOp::Rmdir { path }, None),
            KoshaRequest::RenameLocal { from, to } => {
                self.mutate(ReplicaOp::Rename { from, to }, None)
            }
            KoshaRequest::RmdirAnchor { path } => {
                if !self.hosted(&path) {
                    return Err(NfsStatus::NoEnt);
                }
                let slot_path = slot_local_path(Area::Store, &path, &path);
                // Empty check, ignoring Kosha-internal metadata.
                let empty = self
                    .store
                    .with_store(|v| {
                        let (id, _) = v.resolve(&slot_path)?;
                        let entries = v.readdir(id)?;
                        Ok::<_, kosha_vfs::VfsError>(
                            entries.iter().all(|e| is_internal_name(&e.name)),
                        )
                    })
                    .map_err(NfsStatus::from)?;
                if !empty {
                    return Err(NfsStatus::NotEmpty);
                }
                let op = ReplicaOp::RemoveSlot {
                    anchor: path.clone(),
                };
                let done = self.mutate(op, None)?;
                self.anchors.lock().remove(&path);
                Ok(done)
            }
            KoshaRequest::RenameAnchorDir { from, to } => {
                let Some(routing) = self.routing_of(&from) else {
                    return Err(NfsStatus::NoEnt);
                };
                let op = ReplicaOp::RenameSlot {
                    from: from.clone(),
                    to: to.clone(),
                };
                let done = self.mutate(op, None)?;
                let mut a = self.anchors.lock();
                a.remove(&from);
                a.insert(to, routing);
                Ok(done)
            }
            KoshaRequest::MkdirAnchor {
                path,
                routing_name,
                mode,
                uid,
                gid,
            } => {
                let slot_path = slot_local_path(Area::Store, &path, &path);
                if self.store.with_store(|v| v.resolve(&slot_path).is_ok()) {
                    return Err(NfsStatus::Exist);
                }
                self.create_anchor(&path, routing_name, (mode, uid, gid))?;
                Ok(KoshaReply::Done)
            }
            KoshaRequest::EnsureAnchor { path, routing } => {
                let slot_path = slot_local_path(Area::Store, &path, &path);
                let in_store = self.store.with_store(|v| v.resolve(&slot_path).is_ok());
                if in_store {
                    if !self.hosted(&path) {
                        let r = self
                            .read_anchor_meta(&path)
                            .unwrap_or_else(|| routing.clone());
                        self.anchors.lock().insert(path, r);
                    }
                    return Ok(KoshaReply::DoneBool(false));
                }
                let rslot_path = slot_local_path(Area::Replica, &path, &path);
                let in_replica = self.store.with_store(|v| v.resolve(&rslot_path).is_ok());
                if in_replica {
                    self.promote_anchor(&path)?;
                    return Ok(KoshaReply::DoneBool(true));
                }
                // We own the key but hold no copy (e.g. K=1 and the sole
                // replica sits on the *other* neighbor of the failed
                // primary). Pull the anchor from whichever leaf-set
                // member still holds a replica, then serve it.
                if self.pull_anchor_from_neighbors(&path, &routing) {
                    return Ok(KoshaReply::DoneBool(true));
                }
                if path == "/" {
                    // Brand-new deployment (or new root owner with no data
                    // yet): create the root anchor empty.
                    self.create_anchor("/", routing, (0o755, 0, 0))?;
                    return Ok(KoshaReply::DoneBool(false));
                }
                Err(NfsStatus::NoEnt)
            }
            KoshaRequest::StoreStats => {
                let (capacity, used, free) = self.store.with_store(|v| v.fsstat());
                Ok(KoshaReply::Stats {
                    capacity,
                    used,
                    free,
                })
            }
            KoshaRequest::BeginTransfer { path } => {
                // Merge semantics: do NOT wipe an existing copy. A
                // recovered node may receive its own anchor back from a
                // node that served (a possibly empty or partial) interim
                // copy during an outage; wiping would lose every entry
                // the interim copy never saw. Transferred items overwrite
                // same-named entries; everything else survives.
                let slot = anchor_slot(&path);
                self.store
                    .with_store(|v| {
                        let sarea = format!("/{}", Area::Store.dir_name());
                        let (sparent, _) = v.resolve(&sarea)?;
                        match v.mkdir(sparent, &slot, 0o755, 0, 0) {
                            Ok(_) | Err(kosha_vfs::VfsError::Exist) => Ok(()),
                            Err(e) => Err(e),
                        }
                    })
                    .map_err(NfsStatus::from)?;
                Ok(KoshaReply::Done)
            }
            KoshaRequest::TransferPut { path, item } => {
                if item.rel_path.is_empty() {
                    return Ok(KoshaReply::Done);
                }
                let base = slot_local_path(Area::Store, &path, &path);
                let full = format!("{base}/{}", item.rel_path);
                check_vpath(&full)?; // a peer's `rel_path` stays inside the slot
                let (pp, name) = parent_and_name(&full).ok_or(NfsStatus::Inval)?;
                let owner = (item.mode, item.uid, item.gid);
                self.put_item(self.fh_of(pp)?, name, item.kind, owner, true)?;
                Ok(KoshaReply::Done)
            }
            KoshaRequest::CommitTransfer { path, routing_name } => {
                self.write_anchor_meta(&path, &routing_name)?;
                self.anchors.lock().insert(path.clone(), routing_name);
                self.stats.migrations_in.inc();
                self.journal(
                    "migration_in",
                    format!("anchor {path:?} received from previous owner"),
                );
                self.ensure_replicas(&path);
                Ok(KoshaReply::Done)
            }
            KoshaRequest::ListAnchors => Ok(KoshaReply::Anchors(self.hosted_anchors())),
            KoshaRequest::AuditScan => {
                // Anti-entropy scan: digest every local slot. Local
                // state only — the auditor fans this out cluster-wide,
                // and a handler that issued nested RPCs could deadlock
                // two nodes auditing each other.
                Ok(KoshaReply::Audit(self.audit_scan()))
            }
            KoshaRequest::Flush { path } => {
                // NFS COMMIT barrier: the client fsynced, so every queued
                // write-behind op must reach the replicas before we ack.
                // A no-op under `Sync` replication (nothing is queued).
                self.journal("flush_barrier", format!("COMMIT barrier for {path:?}"));
                self.flush_replication();
                Ok(KoshaReply::Done)
            }
            // Replica maintenance is served on its own leaf service
            // (`ServiceId::KoshaReplica`), not the control service.
            KoshaRequest::MigrateBatch { .. }
            | KoshaRequest::ReplicaApply { .. }
            | KoshaRequest::ReplicaApplyBatch { .. }
            | KoshaRequest::HotReplicaPush { .. }
            | KoshaRequest::HotReplicaDrop { .. } => Err(NfsStatus::NotSupp),
            KoshaRequest::ReplicaTargets { path } => {
                let anchor = self.covering_anchor(&path);
                if !self.hosted(&anchor) {
                    return Err(NfsStatus::NoEnt);
                }
                // Every replica-assisted read lands here, so this is
                // where the primary measures per-object demand — and,
                // past the heat threshold, where it spawns extra cached
                // copies and advertises their (valid-lease) holders
                // alongside the K durable targets (DESIGN.md §16).
                let mut targets = self.replica_addrs();
                for a in self.hot_read_extras(&path, &anchor) {
                    if !targets.contains(&a) {
                        targets.push(a);
                    }
                }
                Ok(KoshaReply::Nodes(targets))
            }
            KoshaRequest::ReplicaTargetsBySlot { slot, holder } => {
                // GC probe: a replica holder only knows the slot name, so
                // map it back through our hosted-anchor table. `NoEnt`
                // (we don't host it) tells the holder to keep its copy —
                // never to drop anything.
                let anchor = self
                    .anchors
                    .lock()
                    .keys()
                    .find(|p| anchor_slot(p) == slot)
                    .cloned();
                let Some(anchor) = anchor else {
                    return Err(NfsStatus::NoEnt);
                };
                // Vouch for hot-copy holders too: their slots carry our
                // anchor meta, and GC must not collect a copy we still
                // track (orphans — dead or demoted primary — get no such
                // vouching and age out).
                let mut targets = self.replica_addrs();
                for a in self.hot_holders_for_slot(&slot) {
                    if !targets.contains(&a) {
                        targets.push(a);
                    }
                }
                if !targets.contains(&NodeAddr(holder)) {
                    // The probing holder is about to drop its copy: void
                    // the push memo so a later return to the target set
                    // gets a fresh full push even with content unchanged.
                    self.replica_push_memo.lock().remove(&anchor);
                }
                Ok(KoshaReply::Nodes(targets))
            }
        }
    }
}

/// Whether a mirror RPC's outcome means the replica applied the change.
pub(crate) fn mirror_succeeded(result: Result<RpcResponse, RpcError>) -> bool {
    matches!(
        result.and_then(|r| r.decode::<KoshaReplyFrame>()),
        Ok(ReplyFrame(Ok(_)))
    )
}

/// Second of the two policies that tell the areas apart, what is
/// already done: `done` is the status that says the op had happened
/// before (`Exist` on a create, `NoEnt` on a remove or rename). The store
/// reports it, since there it is the caller's error; a holder absorbs it,
/// so replays and re-pushes are idempotent.
pub(crate) fn settle(
    area: Area,
    r: Result<NfsReply, NfsStatus>,
    done: NfsStatus,
) -> Result<NfsReply, NfsStatus> {
    match r {
        Err(e) if area == Area::Replica && e == done => Ok(NfsReply::Void),
        r => r,
    }
}

/// The handle in a LOOKUP or CREATE reply.
fn handle_of(reply: NfsReply) -> Result<Fh, NfsStatus> {
    match reply {
        NfsReply::Handle { fh, .. } => Ok(fh),
        _ => Err(NfsStatus::Io),
    }
}

fn default_routing(anchor: &str) -> String {
    if anchor == "/" {
        "/".to_string()
    } else {
        parent_and_name(anchor)
            .map(|(_, n)| n.to_string())
            .unwrap_or_else(|| "/".to_string())
    }
}

impl RpcHandler for ControlService {
    fn handle(&self, from: NodeAddr, body: &[u8]) -> Result<RpcResponse, RpcError> {
        self.handle_frame(from, Frame::flat(&Bytes::copy_from_slice(body)))
    }

    // lint: allow(L005) designed one-level nesting: the control plane fans out to leaf replica/lease services only, and those handlers are verified RPC-free by this same rule
    fn handle_frame(&self, _from: NodeAddr, frame: Frame<'_>) -> Result<RpcResponse, RpcError> {
        let req = KoshaRequest::decode_frame(frame)?;
        let k = &self.0;
        let name = req.name();
        let clock = k.net.clock();
        let result = k.obs.tracer.child(
            || format!("kosha:{name}"),
            k.info.addr.0,
            || clock.now().0,
            || k.handle_control(req),
        );
        Ok(RpcResponse::split(&ReplyFrame(result)))
    }
}

impl RpcHandler for ReplicaService {
    fn handle(&self, from: NodeAddr, body: &[u8]) -> Result<RpcResponse, RpcError> {
        self.handle_frame(from, Frame::flat(&Bytes::copy_from_slice(body)))
    }

    fn handle_frame(&self, _from: NodeAddr, frame: Frame<'_>) -> Result<RpcResponse, RpcError> {
        let req = KoshaRequest::decode_frame(frame)?;
        let k = &self.0;
        let name = req.name();
        let clock = k.net.clock();
        let result = k.obs.tracer.child(
            || format!("replica:{name}"),
            k.info.addr.0,
            || clock.now().0,
            || k.handle_replica(req),
        );
        Ok(RpcResponse::split(&ReplyFrame(result)))
    }
}
