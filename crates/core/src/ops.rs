//! The koshad client-side operations: the virtual `/kosha` file system.
//!
//! These are the operations the loopback NFS server (Figure 4 of the
//! paper) performs for local applications. Handles are *virtual*
//! (§4.1.2); every operation resolves (or reuses) the real location,
//! forwards mutations to the primary via the control protocol, performs
//! reads via direct NFS, and transparently retries through failures
//! (§4.4).

use crate::config::{ReadFrom, REDIRECT_ATTEMPTS};
use crate::control::{ControlRequest, KoshaReply, ReplicaOp};
use crate::handles::Location;
use crate::node::{KoshaNode, VirtualFs};
use crate::paths::is_distributed_dir;
use crate::primary::{SPECIAL_LINK_MODE, USER_LINK_MODE};
use crate::resolve::is_special_link_mode;
use kosha_id::salted_name;
use kosha_nfs::messages::{NfsReplyFrame, ReplyFrame, WireAttr, WireDirEntry, WireSetAttr};
use kosha_nfs::{Fh, NfsError, NfsReply, NfsRequest, NfsResult, NfsStatus};
use kosha_rpc::{Bytes, Frame, NodeAddr, RpcError, RpcHandler, RpcResponse, WireRead};
use kosha_vfs::path::validate_name;
use kosha_vfs::{join_path, Attr, FileType, SetAttr};
use rand::Rng;
use std::sync::Arc;

/// A directory entry of the virtual file system.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KoshaDirEntry {
    /// Entry name.
    pub name: String,
    /// Virtual handle.
    pub fh: Fh,
    /// Entry type as users see it (special links appear as directories).
    pub ftype: FileType,
}

/// Where an object lives and what it is.
type Obj = (Location, FileType);

impl KoshaNode {
    // ---- handle plumbing ---------------------------------------------

    /// The virtual root handle (what MOUNT returns for `/kosha`).
    #[must_use]
    pub fn k_root(&self) -> Fh {
        self.client.lock().handles.root()
    }

    /// A handle's path, and its object's location and type if the table
    /// has them, from one probe under one lock. The path is the table's
    /// own, shared, not copied.
    fn probe(&self, fh: Fh) -> NfsResult<(Arc<str>, Option<Obj>)> {
        let c = self.client.lock();
        let (path, e) = c
            .handles
            .get(fh)
            .ok_or(NfsError::Status(NfsStatus::Stale))?;
        Ok((Arc::clone(path), e.loc.map(|l| (l, e.ftype))))
    }

    fn vh_path(&self, fh: Fh) -> NfsResult<Arc<str>> {
        Ok(self.probe(fh)?.0)
    }

    fn mint(&self, path: &str, ftype: FileType, loc: Option<Location>) -> Fh {
        let mut c = self.client.lock();
        let fh = c.handles.mint(path, ftype);
        if let Some(l) = loc {
            c.handles.set_location(path, ftype, l);
        }
        fh
    }

    /// Where a handle's object lives and what it is: the table's entry,
    /// or else a resolution of the handle's path.
    fn ensure_obj(&self, fh: Fh) -> NfsResult<Obj> {
        let (path, probed) = self.probe(fh)?;
        if let Some(known) = probed {
            return Ok(known);
        }
        let (l, attr) = self.resolve_object(&path)?;
        let mut c = self.client.lock();
        c.handles.set_location(&path, attr.ftype, l);
        Ok((l, attr.ftype))
    }

    /// [`Self::with_retry`] on the object `fh` names: `f` gets its path,
    /// location and type, found by one probe of the table for the first
    /// attempt and re-resolved for a retry.
    fn with_obj<T>(
        &self,
        fh: Fh,
        f: impl FnMut(&Self, &str, Location, FileType) -> NfsResult<T>,
    ) -> NfsResult<T> {
        let (vpath, probed) = self.probe(fh)?;
        self.retry_obj(fh, &vpath, probed, f)
    }

    /// [`Self::with_obj`] for a caller that probed already: the first
    /// attempt takes `probed`, if the table had the object.
    fn retry_obj<T>(
        &self,
        fh: Fh,
        vpath: &str,
        mut probed: Option<Obj>,
        mut f: impl FnMut(&Self, &str, Location, FileType) -> NfsResult<T>,
    ) -> NfsResult<T> {
        self.with_retry(vpath, |s| {
            let (loc, ftype) = match probed.take() {
                Some(known) => known,
                None => s.ensure_obj(fh)?,
            };
            f(s, vpath, loc, ftype)
        })
    }

    /// Sends one mutation to the primary at `addr`, which applies it and
    /// mirrors it to its replica holders (§4.2).
    fn mutate_at(&self, addr: NodeAddr, op: ReplicaOp) -> NfsResult<KoshaReply> {
        self.control(addr, &ControlRequest::Mutate { op })
    }

    // ---- namespace operations -----------------------------------------

    /// LOOKUP: resolve `name` under the directory handle `dir`.
    pub fn k_lookup(&self, dir: Fh, name: &str) -> NfsResult<(Fh, Attr)> {
        validate_name(name).map_err(|e| NfsError::Status(e.into()))?;
        let dpath = self.vh_path(dir)?;
        let vpath = join_path(&dpath, name);
        let (loc, mut attr) = self.with_retry(&vpath, |s| s.resolve_object(&vpath))?;
        if attr.ftype == FileType::Symlink && is_special_link_mode(attr.mode) {
            attr.ftype = FileType::Directory;
        }
        let fh = self.mint(&vpath, attr.ftype, Some(loc));
        Ok((fh, attr))
    }

    /// GETATTR on a virtual handle.
    pub fn k_getattr(&self, fh: Fh) -> NfsResult<Attr> {
        self.with_obj(fh, |s, _, loc, _| s.nfs.getattr(loc.addr, loc.fh))
    }

    /// SETATTR (replicated through the primary).
    pub fn k_setattr(&self, fh: Fh, sattr: SetAttr) -> NfsResult<Attr> {
        self.with_obj(fh, |s, vpath, loc, _| {
            let op = ReplicaOp::SetAttr {
                path: vpath.to_string(),
                sattr: WireSetAttr(sattr.clone()),
            };
            s.mutate_at(loc.addr, op)?;
            s.nfs.getattr(loc.addr, loc.fh)
        })
    }

    /// READ directly from the primary's store over NFS — or, under
    /// [`crate::ReadFrom::Replicas`], round-robined across the primary
    /// and the holders it advertises as current (§4.2's future-work
    /// optimization, DESIGN.md §16), with transparent fallback to the
    /// primary. A holder is advertised only while it has every acked
    /// write, so a replica read is as fresh as the primary's.
    pub fn k_read(&self, fh: Fh, offset: u64, count: u32) -> NfsResult<(Bytes, bool)> {
        let (vpath, probed) = self.probe(fh)?;
        // Feed the read-heat tracker before target selection: heat
        // counts demand for the object regardless of which holder ends
        // up serving it (the signal hot-replica spawning needs).
        self.heat.touch(&vpath, self.clock.now().0);
        let from_replicas = matches!(self.cfg.read_from, ReadFrom::Replicas { .. });
        if from_replicas {
            if let Some(out) = self.try_replica_read(&vpath, offset, count) {
                return Ok(out);
            }
        }
        // A replica read that went first may have changed the table.
        let probed = probed.filter(|_| !from_replicas);
        self.retry_obj(fh, &vpath, probed, |s, _, loc, ftype| {
            if ftype == FileType::Directory {
                return Err(NfsError::Status(NfsStatus::IsDir));
            }
            s.nfs.read(loc.addr, loc.fh, offset, count)
        })
    }

    /// Attempts one replica read; `None` falls back to the primary
    /// (primary's round-robin turn, no replicas, or any failure).
    ///
    /// Target choice is latency-aware: the round-robin is restricted to
    /// targets within 10% of the fastest by this node's own estimate of
    /// its replica READs to each (`ClientState::read_latency`; a
    /// timed-out READ counts, so a dead holder looks slow). Unmeasured
    /// targets always qualify: they need reads to get measured at all.
    /// The replica's real file handle is cached per `(node, path)` in
    /// the handle table, so repeated reads skip the mount + lookup RPCs;
    /// the cache entry is dropped on a failed read and by the same
    /// chain-, node-, and subtree-scoped invalidation as primary
    /// locations.
    fn try_replica_read(&self, vpath: &str, offset: u64, count: u32) -> Option<(Bytes, bool)> {
        use crate::paths::{slot_local_path, Area};
        let (ppath, _) = kosha_vfs::path::parent_and_name(vpath)?;
        let ploc = self.resolve_dir(ppath).ok()?;
        let targets = match self
            .control(
                ploc.addr,
                &ControlRequest::ReplicaTargets {
                    path: vpath.to_string(),
                },
            )
            .ok()?
        {
            KoshaReply::Nodes(v) => v,
            _ => return None,
        };
        if targets.is_empty() {
            return None;
        }
        // Heat-weighted rotor (DESIGN.md §16): a hot object leans harder
        // on its copy holders — each holder slot repeats once per
        // threshold-multiple of the object's locally-observed heat, and
        // at the 4× cap the primary stops taking data-read turns
        // entirely — while a cold object (or the feature being off)
        // degenerates to the plain `turn % (targets + 1)` round-robin
        // this path always used.
        let turn = self
            .read_rr
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let weight = if self.cfg.read_from.hot_copies() > 0 {
            let heat = self
                .heat
                .heat_milli_of(vpath, self.clock.now().0)
                .unwrap_or(0);
            1 + (heat / crate::hot::HOT_THRESHOLD_MILLI).min(4)
        } else {
            1
        };
        let turn = crate::hot::heat_rotor_slot(turn, targets.len(), weight) as u64;
        if turn == 0 {
            return None; // the primary's turn
        }
        let (addr, cached) = {
            let c = self.client.lock();
            let lat = |a: &NodeAddr| c.read_latency.get(a).copied();
            let best = targets.iter().filter_map(lat).min();
            let eligible: Vec<NodeAddr> = targets
                .iter()
                .filter(|a| best.is_none_or(|b| lat(a).is_none_or(|l| l <= b + b / 10)))
                .copied()
                .collect();
            let addr = eligible[(turn - 1) as usize % eligible.len()];
            (addr, c.handles.replica_location(addr, vpath))
        };
        let rfh = match cached {
            Some(fh) => fh,
            None => {
                let anchor = self.covering_anchor(ppath);
                let rpath = slot_local_path(Area::Replica, &anchor, vpath);
                let root = self.nfs.mount(addr).ok()?;
                let (rfh, attr) = self.nfs.lookup_path(addr, root, &rpath).ok()?;
                if attr.ftype != FileType::Regular {
                    return None;
                }
                self.client
                    .lock()
                    .handles
                    .set_replica_location(addr, vpath, rfh);
                rfh
            }
        };
        let start = self.clock.now();
        let read = self.nfs.read(addr, rfh, offset, count);
        let mut c = self.client.lock();
        c.note_read_latency(addr, self.clock.now().since_nanos(start));
        match read {
            Ok(out) => {
                self.stats.replica_reads.inc();
                Some(out)
            }
            Err(_) => {
                c.handles.clear_replica_location(addr, vpath);
                None
            }
        }
    }

    /// COMMIT: an fsync barrier through the virtual mount. Store writes
    /// are synchronous at the primary, so COMMIT's remaining duty is the
    /// write-behind flush barrier — the primary must push every queued
    /// mirrored op to its replicas before acknowledging (a no-op under
    /// `Sync` replication).
    pub fn k_commit(&self, fh: Fh) -> NfsResult<()> {
        self.with_obj(fh, |s, vpath, loc, _| {
            let path = vpath.to_string();
            s.control(loc.addr, &ControlRequest::Flush { path })
                .map(|_| ())
        })
    }

    /// WRITE through the primary (which fans out to replicas). `data`
    /// moves into the control request as it is: on the loopback path it
    /// is still the view of the frame the client sent.
    pub fn k_write(&self, fh: Fh, offset: u64, data: Bytes) -> NfsResult<u32> {
        self.with_obj(fh, |s, vpath, loc, ftype| {
            if ftype == FileType::Directory {
                return Err(NfsError::Status(NfsStatus::IsDir));
            }
            let op = ReplicaOp::Write {
                path: vpath.to_string(),
                offset,
                data: data.clone(),
            };
            s.mutate_at(loc.addr, op)?;
            Ok(data.len() as u32)
        })
    }

    /// CREATE a regular file in the directory `dir`.
    pub fn k_create(
        &self,
        dir: Fh,
        name: &str,
        mode: u32,
        uid: u32,
        gid: u32,
    ) -> NfsResult<(Fh, Attr)> {
        validate_name(name).map_err(|e| NfsError::Status(e.into()))?;
        let dpath = self.vh_path(dir)?;
        let vpath = join_path(&dpath, name);
        let (loc, attr) = self.with_retry(&vpath, |s| {
            let parent = s.resolve_dir(&dpath)?;
            let op = ReplicaOp::Create {
                path: vpath.clone(),
                mode,
                uid,
                gid,
            };
            let (fh, attr) = made(s.mutate_at(parent.addr, op)?)?;
            let addr = parent.addr;
            Ok((Location { addr, fh }, attr))
        })?;
        let fh = self.mint(&vpath, attr.ftype, Some(loc));
        Ok((fh, attr))
    }

    /// MKDIR: distributed placement for directories within the
    /// distribution level (§3.1–3.3), plain creation below it. Either way
    /// the reply carries the new directory's handle and attributes, which
    /// are cached and returned as they are: nothing is re-resolved.
    pub fn k_mkdir(
        &self,
        dir: Fh,
        name: &str,
        mode: u32,
        uid: u32,
        gid: u32,
    ) -> NfsResult<(Fh, Attr)> {
        validate_name(name).map_err(|e| NfsError::Status(e.into()))?;
        let dpath = self.vh_path(dir)?;
        let vpath = join_path(&dpath, name);
        let distributed = is_distributed_dir(&vpath, self.cfg.distribution_level);
        let (loc, attr) = self.with_retry(&vpath, |s| {
            let parent = s.resolve_dir(&dpath)?;
            if distributed {
                return s.mkdir_distributed(parent, &vpath, name, (mode, uid, gid));
            }
            let op = ReplicaOp::Mkdir {
                path: vpath.clone(),
                mode,
                uid,
                gid,
            };
            let (fh, attr) = made(s.mutate_at(parent.addr, op)?)?;
            let addr = parent.addr;
            Ok((Location { addr, fh }, attr))
        })?;
        let fh = self.mint(&vpath, FileType::Directory, Some(loc));
        Ok((fh, attr))
    }

    /// The distributed half of MKDIR: the name must be free in `parent`'s
    /// listing, the anchor is made where its routing name maps, and the
    /// special link is placed in `parent` (§3.1). A link that cannot be
    /// placed (a stale `parent` answers `Stale`) takes its anchor down
    /// again, so a retry of the whole call never meets its own first step.
    fn mkdir_distributed(
        &self,
        parent: Location,
        vpath: &str,
        name: &str,
        (mode, uid, gid): (u32, u32, u32),
    ) -> NfsResult<(Location, Attr)> {
        match self.nfs.lookup(parent.addr, parent.fh, name) {
            Ok(_) => return Err(NfsError::Status(NfsStatus::Exist)),
            Err(NfsError::Status(NfsStatus::NoEnt)) => {}
            Err(e) => return Err(e),
        }
        let (anchor, routing, attr) = self.place_anchor(vpath, name, (mode, uid, gid))?;
        let link = ReplicaOp::Symlink {
            path: vpath.to_string(),
            target: routing,
            mode: SPECIAL_LINK_MODE,
            uid,
            gid,
        };
        if let Err(e) = self.mutate_at(parent.addr, link) {
            let teardown = ReplicaOp::RemoveSlot {
                anchor: vpath.to_string(),
            };
            let _ = self.mutate_at(anchor.addr, teardown);
            return Err(e);
        }
        Ok((anchor, attr))
    }

    /// Makes the anchor of a new distributed directory on the node its
    /// name maps to, salting and re-hashing while that node refuses it as
    /// too full (§3.3). Returns the slot root's location and attributes
    /// and the routing name the link must carry. An owner that cannot be
    /// asked is no full one: its error goes back at once, so the caller
    /// fails over and asks again.
    fn place_anchor(
        &self,
        vpath: &str,
        name: &str,
        (mode, uid, gid): (u32, u32, u32),
    ) -> NfsResult<(Location, String, Attr)> {
        for attempt in 0..=REDIRECT_ATTEMPTS {
            let salt = if attempt == 0 {
                None
            } else {
                self.stats.redirections.inc();
                self.journal(
                    "redirection",
                    format!("placement attempt {attempt} for {name:?} (previous node full)"),
                );
                Some(self.salt_rng.lock().random_range(0..1_000_000u64))
            };
            let routing = salted_name(name, salt);
            let addr = self.owner_of(&routing)?.addr;
            let op = ReplicaOp::MakeSlot {
                anchor: vpath.to_string(),
                routing: routing.clone(),
                mode,
                uid,
                gid,
            };
            match self.mutate_at(addr, op).and_then(made) {
                Err(NfsError::Status(NfsStatus::NoSpc)) => {}
                r => return r.map(|(fh, attr)| (Location { addr, fh }, routing, attr)),
            }
        }
        Err(NfsError::Status(NfsStatus::NoSpc))
    }

    /// SYMLINK (user-level; lives with its parent directory).
    pub fn k_symlink(
        &self,
        dir: Fh,
        name: &str,
        target: &str,
        uid: u32,
        gid: u32,
    ) -> NfsResult<(Fh, Attr)> {
        validate_name(name).map_err(|e| NfsError::Status(e.into()))?;
        let dpath = self.vh_path(dir)?;
        let vpath = join_path(&dpath, name);
        let (loc, attr) = self.with_retry(&vpath, |s| {
            let parent = s.resolve_dir(&dpath)?;
            let op = ReplicaOp::Symlink {
                path: vpath.clone(),
                target: target.to_string(),
                mode: USER_LINK_MODE,
                uid,
                gid,
            };
            let (fh, attr) = made(s.mutate_at(parent.addr, op)?)?;
            let addr = parent.addr;
            Ok((Location { addr, fh }, attr))
        })?;
        let fh = self.mint(&vpath, attr.ftype, Some(loc));
        Ok((fh, attr))
    }

    /// ACCESS (NFSv3): which permission bits `uid`/`gid` hold on the
    /// object. Kosha preserves permissions unchanged, so the check is
    /// simply forwarded to wherever the object lives (§4.1.6: "Security
    /// in Kosha is identical to NFS since files in Kosha maintain their
    /// permissions").
    pub fn k_access(&self, fh: Fh, uid: u32, gid: u32, want: u32) -> NfsResult<u32> {
        self.with_obj(fh, |s, _, loc, _| {
            s.nfs.access(loc.addr, loc.fh, uid, gid, want)
        })
    }

    /// READLINK on a user symlink.
    pub fn k_readlink(&self, fh: Fh) -> NfsResult<String> {
        self.with_obj(fh, |s, _, loc, _| s.nfs.readlink(loc.addr, loc.fh))
    }

    /// REMOVE a file or user symlink.
    pub fn k_remove(&self, dir: Fh, name: &str) -> NfsResult<()> {
        validate_name(name).map_err(|e| NfsError::Status(e.into()))?;
        let dpath = self.vh_path(dir)?;
        let vpath = join_path(&dpath, name);
        // No LOOKUP first: the parent's primary refuses a directory and a
        // special link itself, with `IsDir`.
        self.with_retry(&vpath, |s| {
            let parent = s.resolve_dir(&dpath)?;
            let op = ReplicaOp::Remove {
                path: vpath.clone(),
            };
            s.mutate_at(parent.addr, op).map(drop)
        })?;
        // No directory went, so no subtree did: the table forgets the one
        // key.
        self.client.lock().handles.forget(&vpath);
        // A removed object must not squat in the read-heat sketch: its
        // slot would otherwise pin sketch capacity (and could even keep
        // spawning hot copies) until enough fresh traffic evicts it.
        self.heat.forget(&vpath);
        Ok(())
    }

    /// RMDIR: empty-directory removal, including distributed directories
    /// (anchor teardown plus special-link removal, §4.1.5). Nothing is
    /// looked up first where the answer is known: below the distribution
    /// level `Rmdir` goes to the parent's primary, whose store refuses a
    /// file or a user link with `NotDir`; at distributed depth every
    /// directory is a special link, so a cached anchor location is torn
    /// down as it is, and then the same `Rmdir` takes the link. A stale
    /// anchor location answers `Stale` from its old owner and the retry
    /// re-resolves; only an uncached name costs a LOOKUP. Once the
    /// anchor is gone, a retry (a stale parent refused the link's
    /// removal) only removes the link: it never meets its own first step.
    pub fn k_rmdir(&self, dir: Fh, name: &str) -> NfsResult<()> {
        validate_name(name).map_err(|e| NfsError::Status(e.into()))?;
        let dpath = self.vh_path(dir)?;
        let vpath = join_path(&dpath, name);
        let distributed = is_distributed_dir(&vpath, self.cfg.distribution_level);
        let mut anchor_gone = false;
        self.with_retry(&vpath, |s| {
            let parent = s.resolve_dir(&dpath)?;
            let rmdir = || {
                let op = ReplicaOp::Rmdir {
                    path: vpath.clone(),
                };
                s.mutate_at(parent.addr, op).map(drop)
            };
            if !distributed || anchor_gone {
                return rmdir();
            }
            let cached = s.client.lock().handles.dir_location(&vpath);
            let anchor = match cached {
                Some(anchor) => anchor,
                None => {
                    let (_, attr) = s.nfs.lookup(parent.addr, parent.fh, name)?;
                    match attr.ftype {
                        FileType::Symlink if is_special_link_mode(attr.mode) => {
                            s.resolve_dir(&vpath)?
                        }
                        FileType::Directory => return rmdir(),
                        _ => return Err(NfsError::Status(NfsStatus::NotDir)),
                    }
                }
            };
            let op = ReplicaOp::RemoveSlot {
                anchor: vpath.clone(),
            };
            s.mutate_at(anchor.addr, op)?;
            anchor_gone = true;
            rmdir()
        })?;
        self.client.lock().handles.forget_subtree(&vpath);
        self.heat.forget(&vpath);
        Ok(())
    }

    /// RENAME (§4.1.4). Same-node renames move the entry (and for
    /// distributed directories, rename both the special link and the
    /// materialized directory, leaving the link target untouched).
    /// Cross-node file renames degrade to copy-plus-delete; cross-node
    /// directory renames and renames of distributed directories that
    /// contain nested distributed children return `NotSupp`, the
    /// expensive traversal the paper describes but does not evaluate.
    pub fn k_rename(&self, sdir: Fh, sname: &str, ddir: Fh, dname: &str) -> NfsResult<()> {
        validate_name(sname).map_err(|e| NfsError::Status(e.into()))?;
        validate_name(dname).map_err(|e| NfsError::Status(e.into()))?;
        let sdpath = self.vh_path(sdir)?;
        let ddpath = self.vh_path(ddir)?;
        let spath = join_path(&sdpath, sname);
        let dpath = join_path(&ddpath, dname);
        if spath == dpath {
            return Ok(());
        }
        // A stale location on either side must go: across directories
        // the chain is the root's, every cached location.
        let chain = if sdpath == ddpath {
            spath.as_str()
        } else {
            "/"
        };
        self.with_retry(chain, |s| {
            let sp = s.resolve_dir(&sdpath)?;
            let dp = s.resolve_dir(&ddpath)?;
            let rename_local = || {
                let (from, to) = (spath.clone(), dpath.clone());
                s.mutate_at(sp.addr, ReplicaOp::Rename { from, to })
                    .map(drop)
            };
            let (sefh, sattr) = s.nfs.lookup(sp.addr, sp.fh, sname)?;
            let special = sattr.ftype == FileType::Symlink
                && is_special_link_mode(sattr.mode)
                && is_distributed_dir(&spath, s.cfg.distribution_level);
            if special {
                if sdpath != ddpath {
                    return Err(NfsError::Status(NfsStatus::NotSupp));
                }
                match s.nfs.lookup(dp.addr, dp.fh, dname) {
                    Ok(_) => return Err(NfsError::Status(NfsStatus::Exist)),
                    Err(NfsError::Status(NfsStatus::NoEnt)) => {}
                    Err(e) => return Err(e),
                }
                let anchor = s.resolve_dir(&spath)?;
                // Nested distributed children would need their own slots
                // re-keyed on other nodes — the expensive recursive case.
                let entries = s.nfs.readdir(anchor.addr, anchor.fh)?;
                for e in &entries {
                    if e.ftype == FileType::Symlink {
                        let a = s.nfs.getattr(anchor.addr, e.fh)?;
                        if is_special_link_mode(a.mode) {
                            return Err(NfsError::Status(NfsStatus::NotSupp));
                        }
                    }
                }
                let op = ReplicaOp::RenameSlot {
                    from: spath.clone(),
                    to: dpath.clone(),
                };
                s.mutate_at(anchor.addr, op)?;
                rename_local()
            } else if sp.addr == dp.addr {
                rename_local()
            } else if sattr.ftype == FileType::Directory {
                Err(NfsError::Status(NfsStatus::NotSupp))
            } else {
                // Cross-node move: copy then delete.
                if sattr.ftype == FileType::Symlink {
                    let target = s.nfs.readlink(sp.addr, sefh)?;
                    let op = ReplicaOp::Symlink {
                        path: dpath.clone(),
                        target,
                        mode: USER_LINK_MODE,
                        uid: sattr.uid,
                        gid: sattr.gid,
                    };
                    s.mutate_at(dp.addr, op)?;
                } else {
                    let op = ReplicaOp::Create {
                        path: dpath.clone(),
                        mode: sattr.mode,
                        uid: sattr.uid,
                        gid: sattr.gid,
                    };
                    s.mutate_at(dp.addr, op)?;
                    let chunk = s.cfg.io_chunk;
                    let mut off = 0u64;
                    loop {
                        let (data, eof) = s.nfs.read(sp.addr, sefh, off, chunk)?;
                        if !data.is_empty() {
                            let len = data.len() as u64;
                            let op = ReplicaOp::Write {
                                path: dpath.clone(),
                                offset: off,
                                data,
                            };
                            s.mutate_at(dp.addr, op)?;
                            off += len;
                        }
                        if eof {
                            break;
                        }
                    }
                }
                let op = ReplicaOp::Remove {
                    path: spath.clone(),
                };
                s.mutate_at(sp.addr, op).map(drop)
            }
        })?;
        self.client.lock().handles.rename_subtree(&spath, &dpath);
        // What `dpath` named is gone, exactly as if it had been removed.
        self.heat.forget(&dpath);
        Ok(())
    }

    /// READDIR: the directory's authoritative listing, with special links
    /// shown as directories.
    pub fn k_readdir(&self, dir: Fh) -> NfsResult<Vec<KoshaDirEntry>> {
        let dpath = self.vh_path(dir)?;
        let (loc, entries) = self.with_retry(&dpath, |s| {
            let loc = s.resolve_dir(&dpath)?;
            Ok((loc, s.nfs.readdir(loc.addr, loc.fh)?))
        })?;
        let mut out = Vec::with_capacity(entries.len());
        for e in entries {
            let vpath = join_path(&dpath, &e.name);
            let ftype = if e.ftype == FileType::Symlink
                && is_distributed_dir(&vpath, self.cfg.distribution_level)
            {
                // A symlink at distributed depth is either a Kosha special
                // link (render as directory) or a user symlink; the mode's
                // sticky bit distinguishes them (one GETATTR, as in
                // READDIRPLUS).
                match self.nfs.getattr(loc.addr, e.fh) {
                    Ok(a) if is_special_link_mode(a.mode) => FileType::Directory,
                    _ => FileType::Symlink,
                }
            } else {
                e.ftype
            };
            let fh = self.mint(&vpath, ftype, None);
            out.push(KoshaDirEntry {
                name: e.name,
                fh,
                ftype,
            });
        }
        Ok(out)
    }

    /// Recursive removal of a whole subtree through the virtual
    /// namespace (convenience; the paper's distributed-directory
    /// deletion traversal, §4.1.5).
    pub fn k_remove_tree(&self, dir: Fh, name: &str) -> NfsResult<()> {
        let (fh, attr) = self.k_lookup(dir, name)?;
        if attr.ftype != FileType::Directory {
            return self.k_remove(dir, name);
        }
        let entries = self.k_readdir(fh)?;
        for e in entries {
            if e.ftype == FileType::Directory {
                self.k_remove_tree(fh, &e.name)?;
            } else {
                self.k_remove(fh, &e.name)?;
            }
        }
        self.k_rmdir(dir, name)
    }

    /// FSSTAT aggregated over this node and its leaf set — the visible
    /// "one big disk" the paper's aggregation provides.
    pub fn k_fsstat(&self) -> NfsResult<(u64, u64, u64)> {
        let mut nodes: Vec<NodeAddr> = vec![self.info.addr];
        for m in self.pastry.leaf_members() {
            if !nodes.contains(&m.addr) {
                nodes.push(m.addr);
            }
        }
        let mut cap = 0u64;
        let mut used = 0u64;
        for addr in nodes {
            if let Ok((c, u, _)) = self.nfs.fsstat(addr) {
                cap += c;
                used += u;
            }
        }
        Ok((cap, used, cap.saturating_sub(used)))
    }
}

/// The handle and attributes a `Handle` reply carries: what a CREATE,
/// a MKDIR or a user SYMLINK made, or the slot root an `EnsureAnchor`
/// serves.
pub(crate) fn made(reply: KoshaReply) -> NfsResult<(Fh, Attr)> {
    match reply {
        KoshaReply::Handle { fh, attr } => Ok((fh, attr.0)),
        _ => Err(NfsError::Status(NfsStatus::Io)),
    }
}

fn nfs_error_to_status(e: NfsError) -> NfsStatus {
    match e {
        NfsError::Status(s) => s,
        NfsError::Rpc(_) => NfsStatus::Io,
    }
}

impl RpcHandler for VirtualFs {
    fn handle(&self, from: NodeAddr, body: &[u8]) -> Result<RpcResponse, RpcError> {
        self.handle_frame(from, Frame::flat(&kosha_rpc::wire::copied(body)))
    }

    // lint: allow(L005) client-side loopback facade: the koshad's own NFS interposition executes cluster ops by design and is never invoked from a remote handler context
    fn handle_frame(&self, _from: NodeAddr, frame: Frame<'_>) -> Result<RpcResponse, RpcError> {
        let req = NfsRequest::decode_frame(frame)?;
        let k = &self.0;
        let proc = req.proc_name();
        // Server span for the koshad loopback op: a request that arrives
        // with a caller trace records a child span; an untraced one
        // records nothing.
        let frame = if kosha_obs::trace::current().is_some() {
            k.obs.tracer.child(
                || format!("koshafs:{proc}"),
                k.info.addr.0,
                || k.clock.now().0,
                || self.execute(req),
            )
        } else {
            self.execute(req)
        };
        Ok(RpcResponse::split(&frame))
    }
}

impl VirtualFs {
    fn execute(&self, req: NfsRequest) -> NfsReplyFrame {
        let k = &self.0;
        // Fixed interposition cost of the user-level loopback server
        // (the `I` term of the Section 6.1.2 overhead model).
        k.clock.advance(k.cfg.koshad_op_cost);
        k.stats.fs_ops.inc();
        let result: Result<NfsReply, NfsStatus> = (|| {
            Ok(match req {
                NfsRequest::Null => NfsReply::Void,
                NfsRequest::Mount => NfsReply::Root { fh: k.k_root() },
                NfsRequest::Getattr { fh } => NfsReply::Attr {
                    attr: WireAttr(k.k_getattr(fh).map_err(nfs_error_to_status)?),
                },
                NfsRequest::Setattr { fh, sattr } => NfsReply::Attr {
                    attr: WireAttr(k.k_setattr(fh, sattr.0).map_err(nfs_error_to_status)?),
                },
                NfsRequest::Lookup { dir, name } => {
                    let (fh, attr) = k.k_lookup(dir, &name).map_err(nfs_error_to_status)?;
                    NfsReply::Handle {
                        fh,
                        attr: WireAttr(attr),
                    }
                }
                NfsRequest::Readlink { fh } => NfsReply::Target {
                    target: k.k_readlink(fh).map_err(nfs_error_to_status)?,
                },
                NfsRequest::Read { fh, offset, count } => {
                    let (data, eof) = k.k_read(fh, offset, count).map_err(nfs_error_to_status)?;
                    NfsReply::Data { data, eof }
                }
                NfsRequest::Write { fh, offset, data } => NfsReply::Written {
                    count: k.k_write(fh, offset, data).map_err(nfs_error_to_status)?,
                },
                NfsRequest::Create {
                    dir,
                    name,
                    mode,
                    uid,
                    gid,
                } => {
                    let (fh, attr) = k
                        .k_create(dir, &name, mode, uid, gid)
                        .map_err(nfs_error_to_status)?;
                    NfsReply::Handle {
                        fh,
                        attr: WireAttr(attr),
                    }
                }
                NfsRequest::Mkdir {
                    dir,
                    name,
                    mode,
                    uid,
                    gid,
                } => {
                    let (fh, attr) = k
                        .k_mkdir(dir, &name, mode, uid, gid)
                        .map_err(nfs_error_to_status)?;
                    NfsReply::Handle {
                        fh,
                        attr: WireAttr(attr),
                    }
                }
                NfsRequest::Symlink {
                    dir,
                    name,
                    target,
                    mode: _,
                    uid,
                    gid,
                } => {
                    let (fh, attr) = k
                        .k_symlink(dir, &name, &target, uid, gid)
                        .map_err(nfs_error_to_status)?;
                    NfsReply::Handle {
                        fh,
                        attr: WireAttr(attr),
                    }
                }
                NfsRequest::Remove { dir, name } => {
                    k.k_remove(dir, &name).map_err(nfs_error_to_status)?;
                    NfsReply::Void
                }
                NfsRequest::Rmdir { dir, name } => {
                    k.k_rmdir(dir, &name).map_err(nfs_error_to_status)?;
                    NfsReply::Void
                }
                NfsRequest::RemoveTree { dir, name } => {
                    k.k_remove_tree(dir, &name).map_err(nfs_error_to_status)?;
                    NfsReply::Void
                }
                NfsRequest::Rename {
                    sdir,
                    sname,
                    ddir,
                    dname,
                } => {
                    k.k_rename(sdir, &sname, ddir, &dname)
                        .map_err(nfs_error_to_status)?;
                    NfsReply::Void
                }
                NfsRequest::Readdir { dir } => NfsReply::Entries {
                    entries: k
                        .k_readdir(dir)
                        .map_err(nfs_error_to_status)?
                        .into_iter()
                        .map(|e| WireDirEntry {
                            name: e.name,
                            fh: e.fh,
                            ftype: e.ftype,
                        })
                        .collect(),
                },
                NfsRequest::Access { fh, uid, gid, want } => NfsReply::Granted {
                    granted: k
                        .k_access(fh, uid, gid, want)
                        .map_err(nfs_error_to_status)?,
                },
                NfsRequest::Fsstat => {
                    let (capacity, used, free) = k.k_fsstat().map_err(nfs_error_to_status)?;
                    NfsReply::Stat {
                        capacity,
                        used,
                        free,
                    }
                }
                NfsRequest::Commit { fh } => {
                    k.k_commit(fh).map_err(nfs_error_to_status)?;
                    NfsReply::Void
                }
                // Compound lookup is a server-to-server optimization used
                // by the resolver; the loopback mount keeps NFS semantics
                // (applications walk component-by-component).
                NfsRequest::LookupPath { .. } => return Err(NfsStatus::NotSupp),
            })
        })();
        ReplyFrame(result)
    }
}
