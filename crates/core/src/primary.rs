//! Primary-replica duties: executing mutations on the local store,
//! fanning them out to the K replicas (§4.2), promoting replicas after
//! failures (§4.4), and migrating anchors when the key space shifts
//! (§4.3).

use crate::config::REDIRECT_UTILIZATION;
use crate::control::{
    ControlRequest, KoshaReply, KoshaReplyFrame, MigrateItem, MigrateKind, Names, ReplicaOp,
    ReplicaRequest,
};
use crate::node::{ControlService, KoshaNode, ReplicaService};
use crate::paths::{anchor_slot, check_vpath, is_distributed_dir, slot_local_path, Area};
use crate::resolve::is_special_link_mode;
use crate::slots::SlotMeta;
use kosha_nfs::messages::{ReplyFrame, WireAttr};
use kosha_nfs::{Fh, NfsReply, NfsRequest, NfsResult, NfsStatus};
use kosha_pastry::NodeInfo;
use kosha_rpc::{
    Bytes, Frame, NodeAddr, RpcError, RpcHandler, RpcRequest, RpcResponse, ServiceId, WireRead,
};
use kosha_vfs::path::parent_and_name;
use kosha_vfs::{ExportItem, FileType, SetAttr};
use std::borrow::Cow;
use std::collections::HashMap;

/// Mode bits used for special links (sticky bit marks them).
pub const SPECIAL_LINK_MODE: u32 = 0o1777;
/// Mode bits for user symlinks.
pub const USER_LINK_MODE: u32 = 0o777;

impl KoshaNode {
    // ---- local store addressing ----------------------------------------

    /// True if this node serves `anchor`: its store slot's record names
    /// a routing name. The store is the one record of what a node serves.
    fn hosted(&self, anchor: &str) -> bool {
        self.slot_table.lock().routing(anchor).is_some()
    }

    /// The routing name `anchor` is served under here, if it is.
    pub(crate) fn routing_of(&self, anchor: &str) -> Option<String> {
        self.slot_table.lock().routing(anchor).cloned()
    }

    /// The slot an entry lands in: the covering anchor of its parent
    /// directory, that directory's virtual path, and the entry's name.
    /// Both areas, the write-behind queue and its lag marker derive the
    /// slot here and nowhere else.
    fn entry_slot<'a>(
        &self,
        vpath: &'a str,
    ) -> Result<(Cow<'a, str>, &'a str, &'a str), NfsStatus> {
        let (pp, name) = parent_and_name(vpath).ok_or(NfsStatus::Inval)?;
        Ok((self.covering_anchor(pp), pp, name))
    }

    /// The anchor whose slot `op` lands in — the slot a lag marker for
    /// it must stamp.
    pub(crate) fn landing_anchor(&self, op: &ReplicaOp) -> String {
        match op.names() {
            Names::Entry(path, _) => self
                .entry_slot(path)
                .map_or_else(|_| "/".to_string(), |(anchor, _, _)| anchor.into_owned()),
            Names::Slot(anchor, _) => anchor.to_string(),
        }
    }

    /// Handle of what virtual path `vpath` is within `anchor`'s slot.
    /// First of the two policies that tell the areas apart, what is
    /// missing: in the store a path it lacks is `NoEnt`, and an anchor
    /// this node does not serve (the caller misrouted, we lost ownership,
    /// or a transfer was cut short) is `Stale`. On a holder a missing
    /// path is `NoEnt` too, unless the op puts something into the slot
    /// (`make`): then the replica area takes `vpath` for a directory and
    /// makes the chain, since a mirrored op may arrive before, or
    /// without, the push that would have made it. An op that takes
    /// something away makes nothing, and finds it already gone.
    pub(crate) fn slot_fh(
        &self,
        area: Area,
        anchor: &str,
        vpath: &str,
        make: bool,
    ) -> Result<Fh, NfsStatus> {
        self.slot_dir(area, anchor, vpath, make && area == Area::Replica)
    }

    /// [`Self::slot_fh`] of an entry's parent directory, plus the
    /// entry's name.
    fn entry_dir(&self, area: Area, vpath: &str, make: bool) -> Result<(Fh, String), NfsStatus> {
        let (anchor, pp, name) = self.entry_slot(vpath)?;
        Ok((self.slot_fh(area, &anchor, pp, make)?, name.to_string()))
    }

    /// Handle of the existing object an op names, same policy. The store
    /// resolves it by path: a hosted anchor directory is the root of its
    /// own slot, anything else an entry of its parent's. A holder looks
    /// it up under its parent and, with `create_missing`, makes the
    /// parent's chain and creates it as a plain file.
    fn op_object(&self, area: Area, vpath: &str, create_missing: bool) -> Result<Fh, NfsStatus> {
        if area == Area::Store {
            let anchor = if vpath == "/" || self.hosted(vpath) {
                Cow::Borrowed(vpath)
            } else {
                self.entry_slot(vpath)?.0
            };
            return self.slot_fh(area, &anchor, vpath, false);
        }
        let (anchor, pp, name) = self.entry_slot(vpath)?;
        let dir = self.slot_fh(area, &anchor, pp, create_missing)?;
        if create_missing {
            return self.lookup_or_create(dir, name, (0o644, 0, 0));
        }
        let name = name.to_string();
        self.apply(NfsRequest::Lookup { dir, name })
            .and_then(handle_of)
    }

    /// True if `name` in `dir` is a special link, which stands for a
    /// distributed directory.
    fn is_special_link(&self, dir: Fh, name: &str) -> bool {
        self.store
            .with_store(|v| v.lookup(dir.to_file_id(), name))
            .is_ok_and(|(_, a)| a.ftype == FileType::Symlink && is_special_link_mode(a.mode))
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

    /// Primes the push memo for a slot a `MakeSlot` just made (and the
    /// node serves, its record routed). Its holders' copies will be the
    /// empty slot the op makes there, exactly what a full push would
    /// send, so the push memo says so before the op goes out and the
    /// next maintenance pass pushes nothing. A mirror that fails, now or
    /// at a later flush, clears the memo as it clears every entry.
    fn prime_push_memo(&self, anchor: &str, targets: &[NodeAddr]) {
        if self.cfg.replicas > 0 && !targets.is_empty() {
            let pushed = (*EMPTY_SLOT_DIGEST, targets.to_vec());
            self.replica_push_memo
                .lock()
                .insert(anchor.to_string(), pushed);
        }
    }

    // ---- replication ------------------------------------------------------

    pub(crate) fn replica_addrs(&self) -> Vec<NodeAddr> {
        self.pastry
            .replica_targets(self.cfg.replicas)
            .into_iter()
            .map(|n| n.addr)
            .collect()
    }

    /// Whether `holder` may serve a read of `path`, whose entry lives in
    /// `anchor`'s slot, at `now`: the one rule by which `ReplicaTargets`
    /// admits every holder it advertises, durable or hot (DESIGN.md §16).
    /// A holder is current when its write-behind window on the anchor is
    /// closed (a durable holder then has every acked op) and, if it keeps
    /// a hot copy of `path`, the primary's lease on that copy is valid
    /// and unexpired (a hot copy gets no mirrored ops, so only the lease
    /// says that no write followed its push).
    pub(crate) fn current(&self, holder: NodeAddr, path: &str, anchor: &str, now: u64) -> bool {
        let leased = self.hot.lock().get(path).and_then(|o| {
            let hot = o.holders.contains(&holder);
            hot.then_some(o.valid && now < o.expires_nanos)
        });
        leased.unwrap_or(true) && !self.lags(holder, anchor)
    }

    /// Mirrors one mutation the store has taken to `targets` (§4.2):
    /// queued per target under write-behind (DESIGN.md §11; flush
    /// barriers and the transport pump drain the queues, off the client's
    /// critical path), else fanned out before the mutation is
    /// acknowledged.
    fn mirror_op(&self, op: ReplicaOp, targets: &[NodeAddr]) {
        if targets.is_empty() {
            return;
        }
        match self.write_behind_queue_ops() {
            Some(queue_ops) => self.enqueue_replica_op(op, targets, queue_ops),
            None => self.fan_out("kosha:mirror", targets, op),
        }
    }

    /// Sends `op` to every target concurrently, one `ReplicaApply` each
    /// on the dedicated replica service, under a `span` of the trace.
    /// Every failed target is counted and journaled with its node id
    /// (and, via the journal's ambient-trace stamping, linked to the
    /// active trace) so degraded replication is fully attributable; the
    /// next full push ([`Self::ensure_replicas`]) heals the copy.
    pub(crate) fn fan_out(&self, span: &'static str, targets: &[NodeAddr], op: ReplicaOp) {
        self.obs.tracer.child(
            || span.to_string(),
            self.info.addr.0,
            || self.clock.now().0,
            || {
                let req = RpcRequest::split(
                    ServiceId::KoshaReplica,
                    &ReplicaRequest::ReplicaApply { op },
                );
                let batch = targets.iter().map(|a| (*a, req.clone())).collect();
                let results = self.net.call_many(self.info.addr, batch);
                for (addr, result) in targets.iter().zip(results) {
                    self.note_mirror_result(*addr, mirror_succeeded(result));
                }
            },
        );
    }

    /// Records one replica target's mirror outcome: every failure
    /// journals the missed target's node id, so a batch that loses
    /// several replicas reports all of them, not just the first.
    pub(crate) fn note_mirror_result(&self, addr: NodeAddr, ok: bool) {
        if ok {
            return;
        }
        // A missed mutation (or dropped flush batch) leaves some replica
        // behind the primary while the primary's own content digest may
        // not change again — void the full-push memo so the next
        // maintenance pass re-pushes and heals the divergence.
        self.replica_push_memo.lock().clear();
        self.journal(
            "mirror_failure",
            format!("replica on node {} missed a mirrored mutation", addr.0),
        );
    }

    /// Pushes a full, fresh copy of `anchor` to every replica target in
    /// parallel, each as one batched `MigrateBatch` RPC bracketed by the
    /// migration flag of the receiving slot's record (§4.4).
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
        let Some(routing) = self.routing_of(anchor) else {
            return;
        };
        let targets = self.replica_addrs();
        if targets.is_empty() {
            return;
        }
        let Ok(exported) = self.export_slot(Area::Store, anchor) else {
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
        let req = RpcRequest::new(
            ServiceId::KoshaReplica,
            &ReplicaRequest::MigrateBatch {
                path: anchor.to_string(),
                routing,
                items: migrate_items(exported),
            },
        );
        let mut all_ok = true;
        self.obs.tracer.child(
            || "kosha:replica_push".to_string(),
            self.info.addr.0,
            || self.clock.now().0,
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

    /// Serves the replica-maintenance service: mirrored ops, full
    /// pushes, hot-copy push/drop, and a slot's record, all of which
    /// touch purely local state (no nested RPCs), preserving the
    /// transports' deadlock discipline.
    pub(crate) fn handle_replica(&self, req: ReplicaRequest) -> Result<KoshaReply, NfsStatus> {
        match req {
            // For a node pulling this copy: the record and the files.
            ReplicaRequest::SlotRecord { anchor } => {
                let record = self
                    .slot_meta(Area::Replica, &anchor)
                    .ok_or(NfsStatus::NoEnt)?;
                let items = migrate_items(self.export_slot(Area::Replica, &anchor)?);
                return Ok(KoshaReply::Slot { record, items });
            }
            ReplicaRequest::ReplicaApply { op } => self.apply_op(Area::Replica, &op).map(drop),
            // Apply in order and stop at the first failure: a partly
            // applied batch must leave the slot's lag marker set (the
            // clears ride at the batch tail), so a later promotion of
            // this copy still reports the divergence.
            ReplicaRequest::ReplicaApplyBatch { ops } => ops
                .iter()
                .try_for_each(|op| self.apply_op(Area::Replica, op).map(drop)),
            // A full push replaces the copy under §4.4's bracket: the
            // record says a push is landing until the last item has.
            ReplicaRequest::MigrateBatch {
                path,
                routing,
                items,
            } => {
                let record = SlotMeta {
                    routing: Some(routing),
                    migrating: true,
                    ..SlotMeta::default()
                };
                self.install(Area::Replica, &path, Some(record), items)?;
                self.slot_update(Area::Replica, &path, |m| m.migrating = false);
                Ok(())
            }
            ReplicaRequest::HotReplicaPush {
                anchor,
                routing,
                path,
                item,
            } => self.receive_hot_push(&anchor, &routing, &path, &item),
            ReplicaRequest::HotReplicaDrop { anchor, path } => {
                self.receive_hot_drop(&anchor, &path)
            }
        }?;
        Ok(KoshaReply::Done)
    }

    /// Applies one mutation to `area` of the local store: the whole
    /// `ReplicaOp` → `NfsRequest` mapping, run by the primary on its
    /// store and by each holder on its replica area (§4.2: one
    /// operation, K+1 places). The areas differ in two policies only,
    /// what is missing ([`Self::slot_fh`], [`Self::op_object`]) and what
    /// is already done ([`settle`]).
    pub(crate) fn apply_op(&self, area: Area, op: &ReplicaOp) -> Result<NfsReply, NfsStatus> {
        // The paths are a peer's and are about to be joined into local
        // ones: nothing is touched for one that could climb out of its
        // slot.
        let (Names::Entry(a, b) | Names::Slot(a, b)) = op.names();
        check_vpath(a)?;
        b.map_or(Ok(()), check_vpath)?;
        match op {
            ReplicaOp::Mkdir {
                path,
                mode,
                uid,
                gid,
            } => {
                let (anchor, pp, name) = self.entry_slot(path)?;
                if area == Area::Replica {
                    // Here the op *is* the missing-directory policy,
                    // applied to `path` itself.
                    return self
                        .slot_fh(area, &anchor, path, true)
                        .map(|_| NfsReply::Void);
                }
                self.apply(NfsRequest::Mkdir {
                    dir: self.slot_fh(area, &anchor, pp, false)?,
                    name: name.to_string(),
                    mode: *mode,
                    uid: *uid,
                    gid: *gid,
                })
            }
            ReplicaOp::Create {
                path,
                mode,
                uid,
                gid,
            } => {
                let (dir, name) = self.entry_dir(area, path, true)?;
                let req = NfsRequest::Create {
                    dir,
                    name,
                    mode: *mode,
                    uid: *uid,
                    gid: *gid,
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
                let (dir, name) = self.entry_dir(area, path, true)?;
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
            // A removal resolves without making: on a holder that lacks
            // the name, or its parent, or the whole slot, it is already
            // done.
            ReplicaOp::Remove { path } => {
                let r = self.entry_dir(area, path, false);
                let r = r.and_then(|(dir, name)| self.apply(NfsRequest::Remove { dir, name }));
                settle(area, r, NfsStatus::NoEnt)
            }
            // A special link stands for a directory: RMDIR takes it.
            ReplicaOp::Rmdir { path } => {
                let r = self.entry_dir(area, path, false).and_then(|(dir, name)| {
                    self.apply(if self.is_special_link(dir, &name) {
                        NfsRequest::Remove { dir, name }
                    } else {
                        NfsRequest::Rmdir { dir, name }
                    })
                });
                settle(area, r, NfsStatus::NoEnt)
            }
            ReplicaOp::Rename { from, to } => {
                let r = self.entry_dir(area, from, false).and_then(|(sdir, sname)| {
                    let (ddir, dname) = self.entry_dir(area, to, true)?;
                    self.apply(NfsRequest::Rename {
                        sdir,
                        sname,
                        ddir,
                        dname,
                    })
                });
                settle(area, r, NfsStatus::NoEnt)
            }
            ReplicaOp::RemoveSlot { anchor } => {
                settle(area, self.slot_remove(area, anchor), NfsStatus::NoEnt)
            }
            ReplicaOp::RenameSlot { from, to } => {
                settle(area, self.slot_rename(area, from, to), NfsStatus::NoEnt)
            }
            ReplicaOp::LagMark { anchor, bytes } => {
                // A stamp makes the slot it stamps: the window's ops are
                // still on their way. A clear (0) says the flush batch
                // carrying it brought the slot up to date; a slot the
                // batch removed stays removed.
                match self.slot_fh(area, anchor, anchor, *bytes > 0) {
                    Err(NfsStatus::NoEnt) if *bytes == 0 => return Ok(NfsReply::Void),
                    found => found?,
                };
                self.slot_update(area, anchor, |m| m.lag_bytes = *bytes);
                Ok(NfsReply::Void)
            }
            ReplicaOp::MakeSlot {
                anchor,
                routing,
                mode,
                uid,
                gid,
            } => {
                let meta = SlotMeta {
                    routing: Some(routing.clone()),
                    ..SlotMeta::default()
                };
                let made = match area {
                    Area::Store => self.slot_make(area, anchor, (*mode, *uid, *gid), meta, false),
                    // A holder makes its directories alike and replaces any
                    // stale copy, as a push did. A lag stamp is the
                    // primary's: only the batch tail that carries its
                    // clear may drop it.
                    Area::Replica => {
                        let lag_bytes = self.slot_update(area, anchor, |m| m.lag_bytes);
                        let meta = SlotMeta {
                            lag_bytes: lag_bytes.unwrap_or(0),
                            ..meta
                        };
                        self.slot_make(area, anchor, (0o700, 0, 0), meta, true)
                    }
                };
                made.map(|(fh, attr)| NfsReply::Handle { fh, attr })
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
            // an empty directory has none either, nor does a slot being
            // made. A lag mark sets a holder's slot record, which the
            // primary never applies to itself.
            ReplicaOp::Mkdir { .. }
            | ReplicaOp::Create { .. }
            | ReplicaOp::Symlink { .. }
            | ReplicaOp::Rmdir { .. }
            | ReplicaOp::LagMark { .. }
            | ReplicaOp::MakeSlot { .. } => {}
        }
    }

    /// What a koshad may ask a primary to do: any mutation but a holder's
    /// lag stamp, under the store's rules for names and slots. REMOVE
    /// refuses a special link, which stands for a directory; a symlink
    /// is a special or a user link; a slot goes only empty, is renamed
    /// only where it is served, and is made only below the redirection
    /// utilization. Every transport runs one handler at a time per
    /// `(node, service)` actor, and the `Sync` mirror runs while that
    /// actor is held, so these checks and the [`Self::mutate`] that
    /// follows cannot interleave with another request to the same
    /// service: a `RemoveSlot` found empty stays empty until it is gone,
    /// and every holder sees the primary's order.
    fn admit(&self, op: &ReplicaOp) -> Result<(), NfsStatus> {
        let (Names::Entry(a, b) | Names::Slot(a, b)) = op.names();
        check_vpath(a)?;
        b.map_or(Ok(()), check_vpath)?;
        match op {
            // Only a name at distributed depth can be a special link, so
            // only there does this cost a lookup.
            ReplicaOp::Remove { path } if is_distributed_dir(path, self.cfg.distribution_level) => {
                match self.entry_dir(Area::Store, path, false) {
                    Ok((dir, name)) if self.is_special_link(dir, &name) => Err(NfsStatus::IsDir),
                    _ => Ok(()),
                }
            }
            ReplicaOp::Symlink { mode, .. }
                if ![SPECIAL_LINK_MODE, USER_LINK_MODE].contains(mode) =>
            {
                Err(NfsStatus::Inval)
            }
            ReplicaOp::RemoveSlot { anchor } => {
                let root = self.slot_fh(Area::Store, anchor, anchor, false)?;
                let empty = self
                    .store
                    .with_store(|v| v.readdir(root.to_file_id()).map(|e| e.is_empty()))
                    .map_err(NfsStatus::from)?;
                if empty {
                    Ok(())
                } else {
                    Err(NfsStatus::NotEmpty)
                }
            }
            ReplicaOp::RenameSlot { from, .. } if !self.hosted(from) => Err(NfsStatus::Stale),
            // Redirection (§3.3): at or above the pre-specified
            // utilization, the owner refuses new directories and the
            // placing koshad salts the name and asks another.
            ReplicaOp::MakeSlot { .. } => {
                let (capacity, used, _) = self.store.with_store(|v| v.fsstat());
                if capacity == 0 || used as f64 / capacity as f64 >= REDIRECT_UTILIZATION {
                    Err(NfsStatus::NoSpc)
                } else {
                    Ok(())
                }
            }
            // The write-behind queue stamps a holder's copy; a store slot
            // carries no lag.
            ReplicaOp::LagMark { .. } => Err(NfsStatus::NotSupp),
            _ => Ok(()),
        }
    }

    /// The one way the primary changes replicated state, in the one
    /// order that is sound: apply to the store, void the hot leases, and
    /// only then mirror — a mutation that acked its fan-out while a lease
    /// was live could be followed by a stale read. The only caller of
    /// [`Self::mirror_op`]. The reply is the one the requesting koshad
    /// expects: the new handle for a create, a mkdir or a user symlink,
    /// else `Done`.
    fn mutate(&self, op: ReplicaOp) -> Result<KoshaReply, NfsStatus> {
        let reply = self.apply_op(Area::Store, &op)?;
        self.void_leases(&op);
        let targets = self.replica_addrs();
        match &op {
            ReplicaOp::MakeSlot { anchor, .. } => self.prime_push_memo(anchor, &targets),
            ReplicaOp::RemoveSlot { anchor } => {
                self.replica_push_memo.lock().remove(anchor);
            }
            _ => {}
        }
        let makes_object = matches!(
            op,
            ReplicaOp::Create { .. }
                | ReplicaOp::Mkdir { .. }
                | ReplicaOp::MakeSlot { .. }
                | ReplicaOp::Symlink {
                    mode: USER_LINK_MODE,
                    ..
                }
        );
        self.mirror_op(op, &targets);
        Ok(match reply {
            NfsReply::Handle { fh, attr } if makes_object => KoshaReply::Handle { fh, attr },
            _ => KoshaReply::Done,
        })
    }

    /// `anchor`'s slot in `area` exported, parents before children: the
    /// one format a slot travels in, for a push, a migration and a pull.
    fn export_slot(&self, area: Area, anchor: &str) -> Result<Vec<ExportItem>, NfsStatus> {
        let root = slot_local_path(area, anchor, anchor);
        let exported = self.store.with_store(|v| v.export_tree(&root));
        exported.map_err(Into::into)
    }

    /// Lands a slot that travelled as items in `anchor`'s slot in `area`:
    /// the one way a push, a migration and a pull land. The paths are a
    /// peer's, so all are checked before anything is touched, and one
    /// that could leave the slot fails the install with `Inval`. With a
    /// `record` the slot is made fresh under it, over any copy there;
    /// without one the items merge into the slot there (made if missing,
    /// with an empty record), where a file or link replaces what has its
    /// name and a directory there is kept. An item whose parent is not a
    /// directory of the list is `Inval` too, the items before it landed.
    fn install(
        &self,
        area: Area,
        anchor: &str,
        record: Option<SlotMeta>,
        items: Vec<MigrateItem>,
    ) -> Result<(), NfsStatus> {
        check_vpath(anchor)?;
        for item in &items {
            check_vpath(&format!("/{}", item.rel_path))?;
        }
        let (merge, mode) = (record.is_none(), (area.slot_mode(), 0, 0));
        let root = match record {
            Some(meta) => self.slot_make(area, anchor, mode, meta, true)?.0,
            None => self.slot_dir(area, anchor, anchor, true)?,
        };
        let mut dirs = HashMap::from([(String::new(), root)]);
        for item in items.into_iter().filter(|i| !i.rel_path.is_empty()) {
            let rel = &item.rel_path;
            let (parent, name) = rel.rsplit_once('/').unwrap_or(("", rel));
            let dir = *dirs.get(parent).ok_or(NfsStatus::Inval)?;
            let is_dir = item.kind == MigrateKind::Dir;
            let owner = (item.mode, item.uid, item.gid);
            let made = self.put_item(dir, name, item.kind, owner, merge)?;
            if is_dir {
                dirs.insert(item.rel_path, handle_of(made)?);
            }
        }
        Ok(())
    }

    /// Materialises one item as `name` in `dir`. With `merge` (a transfer
    /// into a store that may hold an interim copy) whatever has the name
    /// makes way for a file or link, and a directory already there is
    /// kept and looked up; a fresh slot needs neither.
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
                name: name.clone(),
                mode,
                uid,
                gid,
            }) {
                Err(NfsStatus::Exist) if merge => self.apply(NfsRequest::Lookup { dir, name }),
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

    /// Serves a freshly promoted (or pulled) store copy of `anchor`:
    /// names it `routing` unless its record names it already, clears the
    /// holder-side bits of the record (a push the failed primary never
    /// finished leaves our best, and only reachable, copy, which we serve
    /// and refresh the other replicas from; a store slot carries no
    /// lease) and checks it for write-behind lag. Lag means this copy is
    /// missing ops the primary had queued but never flushed: the
    /// divergence is journaled as `replica_lag` with the stamped
    /// payload-byte lower bound — failover never *silently* serves stale
    /// data. A copy whose record lists hot copies holds those files and
    /// no other (§16): that is journaled as `hot_only_copy` with their
    /// number.
    fn adopt_copy(&self, anchor: &str, routing: &str) {
        let adopted = self.slot_update(Area::Store, anchor, |m| {
            m.routing.get_or_insert_with(|| routing.to_string());
            m.migrating = false;
            (
                std::mem::take(&mut m.hot).len(),
                std::mem::take(&mut m.lag_bytes),
            )
        });
        let Some((hot, bytes)) = adopted else {
            return;
        };
        if hot > 0 {
            self.journal(
                "hot_only_copy",
                format!(
                    "adopted copy of {anchor:?} held only {hot} hot file(s); \
                     the anchor's other files are not served"
                ),
            );
        }
        if bytes == 0 {
            return;
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
        self.slot_move(anchor)?;
        self.adopt_copy(anchor, &default_routing(anchor));
        self.stats.promotions.inc();
        self.journal(
            "promotion",
            format!("replica of {anchor:?} promoted to primary"),
        );
        self.ensure_replicas(anchor);
        Ok(())
    }

    /// Makes this node serve `anchor` (§4.4). A store slot is served
    /// under the routing name its record holds; one without (a transfer
    /// cut short) adopts `routing`. Else a full replica copy here is
    /// promoted, or one is pulled from a leaf-set member, or, as a last
    /// resort, a copy holding hot copies only is promoted; the root
    /// anchor, held nowhere, is made empty. `NoEnt` if none of these
    /// serves it.
    fn ensure_anchor(&self, anchor: &str, routing: &str) -> Result<(), NfsStatus> {
        let name = |m: &mut SlotMeta| {
            m.routing.get_or_insert_with(|| routing.to_string());
        };
        if self.slot_update(Area::Store, anchor, name).is_some() {
            return Ok(());
        }
        // A copy whose record lists hot copies holds only the hot files
        // (§16): it is promoted only when no full copy can be pulled.
        let leased = self
            .slot_meta(Area::Replica, anchor)
            .map(|m| !m.hot.is_empty());
        if leased == Some(false) {
            return self.promote_anchor(anchor);
        }
        // We own the key but hold no full copy (e.g. K=1 and the sole
        // replica sits on the *other* neighbor of the failed primary).
        // Pull the anchor from whichever leaf-set member still holds a
        // replica, then serve it.
        if self.pull_anchor_from_neighbors(anchor, routing, leased.is_none()) {
            return Ok(());
        }
        if leased == Some(true) {
            return self.promote_anchor(anchor);
        }
        if anchor == "/" {
            // Brand-new deployment (or new root owner with no data yet):
            // create the root anchor empty.
            let op = ReplicaOp::MakeSlot {
                anchor: anchor.to_string(),
                routing: routing.to_string(),
                mode: 0o755,
                uid: 0,
                gid: 0,
            };
            return self.mutate(op).map(drop);
        }
        Err(NfsStatus::NoEnt)
    }

    /// Searches the leaf set for a node holding a replica of `anchor`,
    /// copies it into the local store and serves it. Returns true on
    /// success. This covers the corner the paper's §4.4 glosses over:
    /// with few replicas, the node that becomes numerically closest after
    /// a failure is not always one of the replica holders. One
    /// `SlotRecord` per member asked brings the holder's record and
    /// items. A copy whose record lists hot copies holds only the hot
    /// files (DESIGN.md §16): it is taken, if `leased_ok`, only when no
    /// member holding a full copy answers.
    fn pull_anchor_from_neighbors(&self, anchor: &str, routing: &str, leased_ok: bool) -> bool {
        let req = ReplicaRequest::SlotRecord {
            anchor: anchor.to_string(),
        };
        let req = RpcRequest::new(ServiceId::KoshaReplica, &req);
        let mut leased = None;
        for m in self.pastry.leaf_members() {
            let reply = self.net.call(self.info.addr, m.addr, req.clone());
            let Ok(ReplyFrame(Ok(KoshaReply::Slot { record, items }))) =
                reply.and_then(|r| r.decode::<KoshaReplyFrame>())
            else {
                continue;
            };
            if record.hot.is_empty() {
                if self.adopt_pulled(anchor, routing, record, items) {
                    return true;
                }
            } else if leased_ok && leased.is_none() {
                leased = Some((record, items));
            }
        }
        leased.is_some_and(|(record, items)| self.adopt_pulled(anchor, routing, record, items))
    }

    /// Installs a pulled copy in the store and serves it. Until its files
    /// are in its record names no routing, so a pull cut short leaves a
    /// slot the next `EnsureAnchor` adopts.
    fn adopt_pulled(
        &self,
        anchor: &str,
        routing: &str,
        mut record: SlotMeta,
        items: Vec<MigrateItem>,
    ) -> bool {
        let named = record.routing.take().unwrap_or_else(|| routing.to_string());
        if self
            .install(Area::Store, anchor, Some(record), items)
            .is_err()
        {
            return false;
        }
        self.adopt_copy(anchor, &named);
        self.stats.replica_pulls.inc();
        self.journal(
            "replica_pull",
            format!("pulled {anchor:?} from a neighbor replica"),
        );
        self.ensure_replicas(anchor);
        true
    }

    /// Sends the anchor's subtree to `owner` (the node the key space now
    /// assigns it to) in one `TransferAnchor` and drops the local copy
    /// (§4.3.1: "the files are copied to the new node, and their copy on
    /// N becomes one of the replicas": the new owner pushes its copy to
    /// its replica targets before it replies, this node among them when
    /// it is one).
    pub(crate) fn transfer_anchor(
        &self,
        anchor: &str,
        routing: &str,
        owner: NodeInfo,
    ) -> NfsResult<()> {
        let items = self
            .export_slot(Area::Store, anchor)
            .map_err(kosha_nfs::NfsError::Status)?;
        self.control(
            owner.addr,
            &ControlRequest::TransferAnchor {
                path: anchor.to_string(),
                routing: routing.to_string(),
                items: migrate_items(items),
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

    /// Stops serving an anchor this node migrated: its store copy goes,
    /// uncharged, so every handle into it answers `Stale` and a koshad
    /// that cached one re-resolves. A copy that cannot be dropped stays
    /// served, and the next leaf change offers it to its owner again.
    fn demote_anchor(&self, anchor: &str) {
        // Hot-copy leases die with the primaryship: the new owner tracks
        // its own heat and spawns its own copies if demand persists.
        self.hot_forget_anchor(anchor);
        self.replica_push_memo.lock().remove(anchor);
        self.slot_discard(Area::Store, &anchor_slot(anchor));
        self.client.lock().handles.clear_subtree(anchor);
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
    /// uncertain answer (owner unreachable, `NoEnt`, no routing name in
    /// the record): a stale copy is an audit nuisance, a wrongly dropped
    /// one is data loss. Returns the number of slots dropped. Called from
    /// [`KoshaNode::maintain`], never from the leaf-change hook, so its
    /// per-slot owner round-trips stay off the failover critical path.
    pub fn gc_replica_slots(&self) -> u64 {
        let mut dropped = 0u64;
        for (slot, meta) in self.slot_records(Area::Replica) {
            // The record carries the ROUTING name (what the DHT keys on),
            // which is exactly what we need to find the owner. None →
            // keep; no push has named the copy yet.
            let Some(routing) = meta.routing else {
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
                &ControlRequest::ReplicaTargetsBySlot {
                    slot: slot.clone(),
                    holder: self.info.addr.0,
                },
            ) else {
                continue;
            };
            if targets.contains(&self.info.addr) {
                continue;
            }
            if self.slot_discard(Area::Replica, &slot) {
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

    pub(crate) fn handle_control(&self, req: ControlRequest) -> Result<KoshaReply, NfsStatus> {
        match req {
            // A mutation of replicated state, once it is one a koshad
            // may ask for.
            ControlRequest::Mutate { op } => {
                self.admit(&op)?;
                self.mutate(op)
            }
            // The slot root, once this node serves it: the caller walks
            // on from it with no LOOKUP of its own.
            ControlRequest::EnsureAnchor { path, routing } => {
                self.ensure_anchor(&path, &routing)?;
                let fh = self.slot_fh(Area::Store, &path, &path, false)?;
                let attr = self.store.with_store(|v| v.getattr(fh.to_file_id()))?;
                Ok(KoshaReply::Handle {
                    fh,
                    attr: WireAttr(attr),
                })
            }
            ControlRequest::TransferAnchor {
                path,
                routing,
                items,
            } => {
                // Merge semantics: do NOT wipe an existing copy. A
                // recovered node may receive its own anchor back from a
                // node that served (a possibly empty or partial) interim
                // copy during an outage; wiping would lose every entry
                // the interim copy never saw. Transferred items overwrite
                // same-named entries; everything else survives. The
                // routing name goes last: the slot is served once whole.
                self.install(Area::Store, &path, None, items)?;
                self.slot_update(Area::Store, &path, |m| m.routing = Some(routing));
                self.journal(
                    "migration_in",
                    format!("anchor {path:?} received from previous owner"),
                );
                self.ensure_replicas(&path);
                Ok(KoshaReply::Done)
            }
            ControlRequest::AuditScan => {
                // Anti-entropy scan: digest every local slot. Local
                // state only — the auditor fans this out cluster-wide,
                // and a handler that issued nested RPCs could deadlock
                // two nodes auditing each other.
                Ok(KoshaReply::Audit(self.audit_scan()))
            }
            ControlRequest::Flush { path } => {
                // NFS COMMIT barrier: the client fsynced, so every queued
                // write-behind op must reach the replicas before we ack.
                // A no-op under `Sync` replication (nothing is queued).
                self.journal("flush_barrier", format!("COMMIT barrier for {path:?}"));
                self.flush_replication();
                Ok(KoshaReply::Done)
            }
            ControlRequest::ReplicaTargets { path } => {
                // The slot the file's entry lives in: its parent's
                // covering anchor, which for a file at or above the
                // distribution level is not the file's own.
                let (anchor, _, _) = self.entry_slot(&path)?;
                if !self.hosted(&anchor) {
                    return Err(NfsStatus::NoEnt);
                }
                // Every replica-assisted read lands here, so this is
                // where the primary measures per-object demand — and,
                // past the heat threshold, where it spawns extra cached
                // copies whose holders join the K durable targets
                // (DESIGN.md §16). Each is advertised only if current.
                let now = self.clock.now().0;
                let mut targets = self.replica_addrs();
                for a in self.hot_read_extras(&path, &anchor, now) {
                    if !targets.contains(&a) {
                        targets.push(a);
                    }
                }
                targets.retain(|t| self.current(*t, &path, &anchor, now));
                Ok(KoshaReply::Nodes(targets))
            }
            ControlRequest::ReplicaTargetsBySlot { slot, holder } => {
                // GC probe: a replica holder only knows the slot name, so
                // map it back through the store's slot index. `NoEnt` (we
                // don't serve it) tells the holder to keep its copy —
                // never to drop anything.
                let anchor = {
                    let table = self.slot_table.lock();
                    let mut names = table.slot_names(Area::Store);
                    let found = names.find(|(_, name)| **name == slot).map(|(a, _)| a);
                    found.filter(|a| table.routing(a).is_some()).cloned()
                };
                let Some(anchor) = anchor else {
                    return Err(NfsStatus::NoEnt);
                };
                // Vouch for hot-copy holders too: their slot records carry
                // our routing name, and GC must not collect a copy we still
                // track (orphans — dead or demoted primary — get no such
                // vouching and age out).
                let mut targets = self.replica_addrs();
                for a in self.hot_holders_for_anchor(&anchor) {
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

/// Exported items as they travel.
fn migrate_items(exported: Vec<ExportItem>) -> Vec<MigrateItem> {
    exported.into_iter().map(MigrateItem::from).collect()
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
pub(crate) fn handle_of(reply: NfsReply) -> Result<Fh, NfsStatus> {
    match reply {
        NfsReply::Handle { fh, .. } => Ok(fh),
        _ => Err(NfsStatus::Io),
    }
}

/// The audit digest of an empty slot: what a holder's copy of an anchor
/// `MakeSlot` just made hashes to.
static EMPTY_SLOT_DIGEST: std::sync::LazyLock<[u8; 20]> = std::sync::LazyLock::new(|| {
    crate::audit::tree_digest(&[kosha_vfs::ExportItem {
        rel_path: String::new(),
        kind: kosha_vfs::ExportKind::Dir,
        mode: 0o700,
        uid: 0,
        gid: 0,
    }])
});

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
        self.handle_frame(from, Frame::flat(&kosha_rpc::wire::copied(body)))
    }

    // lint: allow(L005) designed one-level nesting: the control plane fans out to leaf replica/lease services only, and those handlers are verified RPC-free by this same rule
    fn handle_frame(&self, _from: NodeAddr, frame: Frame<'_>) -> Result<RpcResponse, RpcError> {
        let req = ControlRequest::decode_frame(frame)?;
        let k = &self.0;
        let name = req.span_name();
        let result = k.obs.tracer.child(
            || format!("kosha:{name}"),
            k.info.addr.0,
            || k.clock.now().0,
            || k.handle_control(req),
        );
        Ok(RpcResponse::split(&ReplyFrame(result)))
    }
}

impl RpcHandler for ReplicaService {
    fn handle(&self, from: NodeAddr, body: &[u8]) -> Result<RpcResponse, RpcError> {
        self.handle_frame(from, Frame::flat(&kosha_rpc::wire::copied(body)))
    }

    fn handle_frame(&self, _from: NodeAddr, frame: Frame<'_>) -> Result<RpcResponse, RpcError> {
        let req = ReplicaRequest::decode_frame(frame)?;
        let k = &self.0;
        let name = req.name();
        let result = k.obs.tracer.child(
            || format!("replica:{name}"),
            k.info.addr.0,
            || k.clock.now().0,
            || k.handle_replica(req),
        );
        Ok(RpcResponse::split(&ReplyFrame(result)))
    }
}
