//! The koshad client-side operations: the virtual `/kosha` file system.
//!
//! These are the operations the loopback NFS server (Figure 4 of the
//! paper) performs for local applications. Handles are *virtual*
//! (§4.1.2); every operation resolves (or reuses) the real location,
//! forwards mutations to the primary via the control protocol, performs
//! reads via direct NFS, and transparently retries through failures
//! (§4.4).

use crate::control::{KoshaReply, KoshaRequest};
use crate::handles::Location;
use crate::node::{KoshaNode, VirtualFs};
use crate::paths::{is_distributed_dir, is_internal_name};
use crate::resolve::is_special_link_mode;
use kosha_id::salted_name;
use kosha_nfs::messages::{NfsReplyFrame, ReplyFrame, WireAttr, WireDirEntry, WireSetAttr};
use kosha_nfs::{Fh, NfsError, NfsReply, NfsRequest, NfsResult, NfsStatus};
use kosha_pastry::NodeInfo;
use kosha_rpc::{Bytes, Frame, NodeAddr, RpcError, RpcHandler, RpcResponse, WireRead};
use kosha_vfs::path::validate_name;
use kosha_vfs::{join_path, Attr, FileType, SetAttr};
use rand::Rng;

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

impl KoshaNode {
    // ---- handle plumbing ---------------------------------------------

    /// The virtual root handle (what MOUNT returns for `/kosha`).
    #[must_use]
    pub fn k_root(&self) -> Fh {
        self.client.lock().handles.root()
    }

    fn vh_path(&self, fh: Fh) -> NfsResult<String> {
        self.client
            .lock()
            .handles
            .get(fh)
            .map(|e| e.path.clone())
            .ok_or(NfsError::Status(NfsStatus::Stale))
    }

    fn mint(&self, path: &str, ftype: FileType, loc: Option<Location>) -> Fh {
        let mut c = self.client.lock();
        let fh = c.handles.mint(path, ftype);
        if let Some(l) = loc {
            c.handles.set_location(fh, l);
        }
        fh
    }

    fn ensure_obj(&self, fh: Fh) -> NfsResult<(String, Location, FileType)> {
        let (path, ftype, loc) = {
            let c = self.client.lock();
            let e = c
                .handles
                .get(fh)
                .ok_or(NfsError::Status(NfsStatus::Stale))?;
            (e.path.clone(), e.ftype, e.loc)
        };
        if let Some(l) = loc {
            return Ok((path, l, ftype));
        }
        let (l, attr) = self.resolve_object(&path)?;
        let mut c = self.client.lock();
        c.handles.set_location(fh, l);
        Ok((path, l, attr.ftype))
    }

    // ---- namespace operations -----------------------------------------

    /// LOOKUP: resolve `name` under the directory handle `dir`.
    pub fn k_lookup(&self, dir: Fh, name: &str) -> NfsResult<(Fh, Attr)> {
        validate_name(name).map_err(|e| NfsError::Status(e.into()))?;
        let dpath = self.vh_path(dir)?;
        let vpath = join_path(&dpath, name);
        let (loc, mut attr) = self.with_path_retry(&vpath, |s| s.resolve_object(&vpath))?;
        if attr.ftype == FileType::Symlink && is_special_link_mode(attr.mode) {
            attr.ftype = FileType::Directory;
        }
        let fh = self.mint(&vpath, attr.ftype, Some(loc));
        Ok((fh, attr))
    }

    /// GETATTR on a virtual handle.
    pub fn k_getattr(&self, fh: Fh) -> NfsResult<Attr> {
        let vpath = self.vh_path(fh)?;
        self.with_path_retry(&vpath, |s| {
            let (_, loc, _) = s.ensure_obj(fh)?;
            s.nfs.getattr(loc.addr, loc.fh)
        })
    }

    /// SETATTR (replicated through the primary).
    pub fn k_setattr(&self, fh: Fh, sattr: SetAttr) -> NfsResult<Attr> {
        let vpath = self.vh_path(fh)?;
        self.with_path_retry(&vpath, |s| {
            let (path, loc, _) = s.ensure_obj(fh)?;
            s.control(
                loc.addr,
                &KoshaRequest::SetAttr {
                    path,
                    sattr: WireSetAttr(sattr.clone()),
                },
            )?;
            s.nfs.getattr(loc.addr, loc.fh)
        })
    }

    /// READ directly from the primary's store over NFS — or, when
    /// [`crate::KoshaConfig::read_from_replicas`] is on, round-robined
    /// across the primary and its replica holders (§4.2's future-work
    /// optimization), with transparent fallback to the primary. Replica
    /// reads trade a window of staleness for read scalability, like NFS
    /// client caching does.
    pub fn k_read(&self, fh: Fh, offset: u64, count: u32) -> NfsResult<(Bytes, bool)> {
        let vpath = self.vh_path(fh)?;
        // Feed the read-heat tracker before target selection: heat
        // counts demand for the object regardless of which holder ends
        // up serving it (the signal hot-replica spawning needs).
        self.heat.touch(&vpath, self.net.clock().now().0);
        if self.cfg.read_from_replicas {
            if let Some(out) = self.try_replica_read(&vpath, offset, count) {
                return Ok(out);
            }
        }
        self.with_path_retry(&vpath, |s| {
            let (_, loc, ftype) = s.ensure_obj(fh)?;
            if ftype == FileType::Directory {
                return Err(NfsError::Status(NfsStatus::IsDir));
            }
            s.nfs.read(loc.addr, loc.fh, offset, count)
        })
    }

    /// Attempts one replica read; `None` falls back to the primary
    /// (primary's round-robin turn, no replicas, or any failure).
    ///
    /// Target choice is latency-aware: when the transport exposes
    /// per-peer latency EWMAs, the round-robin is restricted to targets
    /// within 10% of the fastest (unmeasured targets always qualify —
    /// they need traffic to get measured at all). The replica's real
    /// file handle is cached per `(node, path)` in the handle table, so
    /// repeated reads skip the mount + lookup RPCs; the cache entry is
    /// dropped on a failed read and by the same chain-, node-, and
    /// subtree-scoped invalidation as primary locations.
    fn try_replica_read(&self, vpath: &str, offset: u64, count: u32) -> Option<(Bytes, bool)> {
        use crate::paths::{slot_local_path, Area};
        let (ppath, _) = kosha_vfs::path::parent_and_name(vpath)?;
        let ploc = self.resolve_dir(ppath).ok()?;
        let targets = match self
            .control(
                ploc.addr,
                &KoshaRequest::ReplicaTargets {
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
        let weight = if self.cfg.hot_replicas > 0 && self.cfg.hot_threshold_milli > 0 {
            let heat = self
                .heat
                .heat_milli_of(vpath, self.net.clock().now().0)
                .unwrap_or(0);
            1 + (heat / self.cfg.hot_threshold_milli).min(4)
        } else {
            1
        };
        let turn = crate::hot::heat_rotor_slot(turn, targets.len(), weight) as u64;
        if turn == 0 {
            return None; // the primary's turn
        }
        let lats: Vec<Option<u64>> = targets
            .iter()
            .map(|&a| self.net.peer_latency_nanos(self.info.addr, a))
            .collect();
        let eligible: Vec<NodeAddr> = match lats.iter().flatten().min().copied() {
            None => targets.clone(),
            Some(best) => targets
                .iter()
                .zip(&lats)
                .filter(|(_, l)| l.is_none_or(|l| l <= best + best / 10))
                .map(|(&a, _)| a)
                .collect(),
        };
        let addr = eligible[(turn - 1) as usize % eligible.len()];
        let cached = self.client.lock().handles.replica_location(addr, vpath);
        let rfh = match cached {
            Some(fh) => {
                self.stats.replica_handle_hits.inc();
                fh
            }
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
        match self.nfs.read(addr, rfh, offset, count) {
            Ok(out) => {
                self.stats.replica_reads.inc();
                Some(out)
            }
            Err(_) => {
                self.client
                    .lock()
                    .handles
                    .clear_replica_location(addr, vpath);
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
        let vpath = self.vh_path(fh)?;
        self.with_path_retry(&vpath, |s| {
            let (path, loc, _) = s.ensure_obj(fh)?;
            s.control(loc.addr, &KoshaRequest::Flush { path })
                .map(|_| ())
        })
    }

    /// WRITE through the primary (which fans out to replicas). `data`
    /// moves into the control request as it is: on the loopback path it
    /// is still the view of the frame the client sent.
    pub fn k_write(&self, fh: Fh, offset: u64, data: Bytes) -> NfsResult<u32> {
        let vpath = self.vh_path(fh)?;
        self.with_path_retry(&vpath, |s| {
            let (path, loc, ftype) = s.ensure_obj(fh)?;
            if ftype == FileType::Directory {
                return Err(NfsError::Status(NfsStatus::IsDir));
            }
            s.control(
                loc.addr,
                &KoshaRequest::Write {
                    path,
                    offset,
                    data: data.clone(),
                },
            )?;
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
        self.k_create_inner(dir, name, mode, uid, gid, None)
    }

    /// CREATE a quota-charged sparse file (simulation workloads).
    pub fn k_create_sized(
        &self,
        dir: Fh,
        name: &str,
        size: u64,
        mode: u32,
        uid: u32,
        gid: u32,
    ) -> NfsResult<(Fh, Attr)> {
        self.k_create_inner(dir, name, mode, uid, gid, Some(size))
    }

    fn k_create_inner(
        &self,
        dir: Fh,
        name: &str,
        mode: u32,
        uid: u32,
        gid: u32,
        size: Option<u64>,
    ) -> NfsResult<(Fh, Attr)> {
        validate_name(name).map_err(|e| NfsError::Status(e.into()))?;
        let dpath = self.vh_path(dir)?;
        let vpath = join_path(&dpath, name);
        let (loc, attr) = self.with_path_retry(&vpath, |s| {
            let parent = s.resolve_dir(&dpath)?;
            let reply = s.control(
                parent.addr,
                &KoshaRequest::CreateFile {
                    path: vpath.clone(),
                    mode,
                    uid,
                    gid,
                    size,
                },
            )?;
            let (efh, attr) = match reply {
                KoshaReply::Handle { fh, attr } => (fh, attr.0),
                _ => s.nfs.lookup(parent.addr, parent.fh, name)?,
            };
            Ok((
                Location {
                    addr: parent.addr,
                    fh: efh,
                },
                attr,
            ))
        })?;
        let fh = self.mint(&vpath, attr.ftype, Some(loc));
        Ok((fh, attr))
    }

    /// MKDIR: distributed placement for directories within the
    /// distribution level (§3.1–3.3), plain creation below it.
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
        let (loc, attr) = self.with_path_retry(&vpath, |s| {
            let parent = s.resolve_dir(&dpath)?;
            if distributed {
                match s.nfs.lookup(parent.addr, parent.fh, name) {
                    Ok(_) => return Err(NfsError::Status(NfsStatus::Exist)),
                    Err(NfsError::Status(NfsStatus::NoEnt)) => {}
                    Err(e) => return Err(e),
                }
                let (owner, routing) = s.place_with_redirection(name)?;
                s.control(
                    owner.addr,
                    &KoshaRequest::MkdirAnchor {
                        path: vpath.clone(),
                        routing_name: routing.clone(),
                        mode,
                        uid,
                        gid,
                    },
                )?;
                s.control(
                    parent.addr,
                    &KoshaRequest::PlaceLink {
                        path: vpath.clone(),
                        target: routing,
                        uid,
                        gid,
                    },
                )?;
            } else {
                let reply = s.control(
                    parent.addr,
                    &KoshaRequest::MkdirLocal {
                        path: vpath.clone(),
                        mode,
                        uid,
                        gid,
                    },
                )?;
                if let KoshaReply::Handle { fh, attr } = reply {
                    let loc = Location {
                        addr: parent.addr,
                        fh,
                    };
                    s.client.lock().dir_cache.insert(vpath.clone(), loc);
                    return Ok((loc, attr.0));
                }
            }
            let loc = s.resolve_dir(&vpath)?;
            let attr = s.nfs.getattr(loc.addr, loc.fh)?;
            Ok((loc, attr))
        })?;
        let fh = self.mint(&vpath, FileType::Directory, Some(loc));
        Ok((fh, attr))
    }

    /// Chooses the storage node for a new distributed directory, salting
    /// and re-hashing while the mapped node is too full (§3.3).
    fn place_with_redirection(&self, name: &str) -> NfsResult<(NodeInfo, String)> {
        let mut last_err = NfsError::Status(NfsStatus::NoSpc);
        for attempt in 0..=self.cfg.redirect_attempts {
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
            let owner = match self.owner_of(&routing) {
                Ok(o) => o,
                Err(e) => {
                    last_err = e;
                    continue;
                }
            };
            match self.control(owner.addr, &KoshaRequest::StoreStats) {
                Ok(KoshaReply::Stats { capacity, used, .. }) => {
                    let util = if capacity == 0 {
                        1.0
                    } else {
                        used as f64 / capacity as f64
                    };
                    if util < self.cfg.redirect_utilization {
                        return Ok((owner, routing));
                    }
                }
                Ok(_) => {}
                Err(e) => last_err = e,
            }
        }
        let _ = last_err;
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
        let (loc, attr) = self.with_path_retry(&vpath, |s| {
            let parent = s.resolve_dir(&dpath)?;
            s.control(
                parent.addr,
                &KoshaRequest::SymlinkFile {
                    path: vpath.clone(),
                    target: target.to_string(),
                    uid,
                    gid,
                },
            )?;
            let (efh, attr) = s.nfs.lookup(parent.addr, parent.fh, name)?;
            Ok((
                Location {
                    addr: parent.addr,
                    fh: efh,
                },
                attr,
            ))
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
        let vpath = self.vh_path(fh)?;
        self.with_path_retry(&vpath, |s| {
            let (_, loc, _) = s.ensure_obj(fh)?;
            s.nfs.access(loc.addr, loc.fh, uid, gid, want)
        })
    }

    /// READLINK on a user symlink.
    pub fn k_readlink(&self, fh: Fh) -> NfsResult<String> {
        let vpath = self.vh_path(fh)?;
        self.with_path_retry(&vpath, |s| {
            let (_, loc, _) = s.ensure_obj(fh)?;
            s.nfs.readlink(loc.addr, loc.fh)
        })
    }

    /// REMOVE a file or user symlink.
    pub fn k_remove(&self, dir: Fh, name: &str) -> NfsResult<()> {
        validate_name(name).map_err(|e| NfsError::Status(e.into()))?;
        let dpath = self.vh_path(dir)?;
        let vpath = join_path(&dpath, name);
        self.with_path_retry(&vpath, |s| {
            let parent = s.resolve_dir(&dpath)?;
            let (_, attr) = s.nfs.lookup(parent.addr, parent.fh, name)?;
            match attr.ftype {
                FileType::Directory => Err(NfsError::Status(NfsStatus::IsDir)),
                FileType::Symlink
                    if is_special_link_mode(attr.mode)
                        && is_distributed_dir(&vpath, s.cfg.distribution_level) =>
                {
                    Err(NfsError::Status(NfsStatus::IsDir))
                }
                _ => s
                    .control(
                        parent.addr,
                        &KoshaRequest::Remove {
                            path: vpath.clone(),
                        },
                    )
                    .map(|_| ()),
            }
        })?;
        // No directory went, so no subtree did: each table forgets the
        // one key, and scans only if it held `vpath` as a directory.
        let mut c = self.client.lock();
        c.handles.forget(&vpath);
        let cached_as_dir = c.dir_cache.remove(&vpath).is_some();
        drop(c);
        if cached_as_dir {
            self.invalidate_dir_subtree(&vpath);
        }
        // A removed object must not squat in the read-heat sketch: its
        // slot would otherwise pin sketch capacity (and could even keep
        // spawning hot copies) until enough fresh traffic evicts it.
        self.heat.forget(&vpath);
        Ok(())
    }

    /// RMDIR: empty-directory removal, including distributed directories
    /// (anchor teardown plus special-link removal, §4.1.5).
    pub fn k_rmdir(&self, dir: Fh, name: &str) -> NfsResult<()> {
        validate_name(name).map_err(|e| NfsError::Status(e.into()))?;
        let dpath = self.vh_path(dir)?;
        let vpath = join_path(&dpath, name);
        self.with_path_retry(&vpath, |s| {
            let parent = s.resolve_dir(&dpath)?;
            let (_, attr) = s.nfs.lookup(parent.addr, parent.fh, name)?;
            match attr.ftype {
                FileType::Regular => Err(NfsError::Status(NfsStatus::NotDir)),
                FileType::Symlink
                    if is_special_link_mode(attr.mode)
                        && is_distributed_dir(&vpath, s.cfg.distribution_level) =>
                {
                    let anchor = s.resolve_dir(&vpath)?;
                    s.control(
                        anchor.addr,
                        &KoshaRequest::RmdirAnchor {
                            path: vpath.clone(),
                        },
                    )?;
                    s.control(
                        parent.addr,
                        &KoshaRequest::RemoveLink {
                            path: vpath.clone(),
                        },
                    )?;
                    Ok(())
                }
                FileType::Symlink => Err(NfsError::Status(NfsStatus::NotDir)),
                FileType::Directory => s
                    .control(
                        parent.addr,
                        &KoshaRequest::Rmdir {
                            path: vpath.clone(),
                        },
                    )
                    .map(|_| ()),
            }
        })?;
        self.client.lock().handles.forget_subtree(&vpath);
        self.invalidate_dir_subtree(&vpath);
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
        self.with_path_retry(&spath, |s| {
            let sp = s.resolve_dir(&sdpath)?;
            let dp = s.resolve_dir(&ddpath)?;
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
                s.control(
                    anchor.addr,
                    &KoshaRequest::RenameAnchorDir {
                        from: spath.clone(),
                        to: dpath.clone(),
                    },
                )?;
                s.control(
                    sp.addr,
                    &KoshaRequest::RenameLocal {
                        from: spath.clone(),
                        to: dpath.clone(),
                    },
                )?;
                Ok(())
            } else if sattr.ftype == FileType::Directory {
                if sp.addr != dp.addr {
                    return Err(NfsError::Status(NfsStatus::NotSupp));
                }
                s.control(
                    sp.addr,
                    &KoshaRequest::RenameLocal {
                        from: spath.clone(),
                        to: dpath.clone(),
                    },
                )
                .map(|_| ())
            } else if sp.addr == dp.addr {
                s.control(
                    sp.addr,
                    &KoshaRequest::RenameLocal {
                        from: spath.clone(),
                        to: dpath.clone(),
                    },
                )
                .map(|_| ())
            } else {
                // Cross-node move: copy then delete.
                if sattr.ftype == FileType::Symlink {
                    let target = s.nfs.readlink(sp.addr, sefh)?;
                    s.control(
                        dp.addr,
                        &KoshaRequest::SymlinkFile {
                            path: dpath.clone(),
                            target,
                            uid: sattr.uid,
                            gid: sattr.gid,
                        },
                    )?;
                } else {
                    s.control(
                        dp.addr,
                        &KoshaRequest::CreateFile {
                            path: dpath.clone(),
                            mode: sattr.mode,
                            uid: sattr.uid,
                            gid: sattr.gid,
                            size: None,
                        },
                    )?;
                    let chunk = s.cfg.io_chunk;
                    let mut off = 0u64;
                    loop {
                        let (data, eof) = s.nfs.read(sp.addr, sefh, off, chunk)?;
                        if !data.is_empty() {
                            s.control(
                                dp.addr,
                                &KoshaRequest::Write {
                                    path: dpath.clone(),
                                    offset: off,
                                    data: data.clone(),
                                },
                            )?;
                            off += data.len() as u64;
                        }
                        if eof {
                            break;
                        }
                    }
                }
                s.control(
                    sp.addr,
                    &KoshaRequest::Remove {
                        path: spath.clone(),
                    },
                )
                .map(|_| ())
            }
        })?;
        self.client.lock().handles.rename_subtree(&spath, &dpath);
        self.invalidate_dir_subtree(&spath);
        self.invalidate_dir_subtree(&dpath);
        // What `dpath` named is gone, exactly as if it had been removed.
        self.heat.forget(&dpath);
        Ok(())
    }

    /// READDIR: the directory's authoritative listing, with Kosha's
    /// internal names hidden and special links shown as directories.
    pub fn k_readdir(&self, dir: Fh) -> NfsResult<Vec<KoshaDirEntry>> {
        let dpath = self.vh_path(dir)?;
        let (loc, entries) = self.with_path_retry(&dpath, |s| {
            let loc = s.resolve_dir(&dpath)?;
            Ok((loc, s.nfs.readdir(loc.addr, loc.fh)?))
        })?;
        let mut out = Vec::with_capacity(entries.len());
        for e in entries {
            if is_internal_name(&e.name) {
                continue;
            }
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

fn nfs_error_to_status(e: NfsError) -> NfsStatus {
    match e {
        NfsError::Status(s) => s,
        NfsError::Rpc(_) => NfsStatus::Io,
    }
}

impl RpcHandler for VirtualFs {
    fn handle(&self, from: NodeAddr, body: &[u8]) -> Result<RpcResponse, RpcError> {
        self.handle_frame(from, Frame::flat(&Bytes::copy_from_slice(body)))
    }

    // lint: allow(L005) client-side loopback facade: the koshad's own NFS interposition executes cluster ops by design and is never invoked from a remote handler context
    fn handle_frame(&self, _from: NodeAddr, frame: Frame<'_>) -> Result<RpcResponse, RpcError> {
        let req = NfsRequest::decode_frame(frame)?;
        let k = &self.0;
        let proc = req.proc_name();
        let clock = k.net.clock();
        // Server span for the koshad loopback op. Requests arriving with
        // a caller trace always record a child span; untraced requests
        // start a sampled root per [`KoshaConfig::trace_sampling`].
        let frame = if kosha_obs::trace::current().is_some() {
            k.obs.tracer.child(
                || format!("koshafs:{proc}"),
                k.info.addr.0,
                || clock.now().0,
                || self.execute(req),
            )
        } else if k.cfg.trace_sampling > 0
            && k.trace_seq
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed)
                .is_multiple_of(k.cfg.trace_sampling)
        {
            k.obs.tracer.root(
                format!("koshafs:{proc}"),
                k.info.addr.0,
                || clock.now().0,
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
        k.net.clock().advance(k.cfg.koshad_op_cost);
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
                NfsRequest::CreateSized {
                    dir,
                    name,
                    size,
                    mode,
                    uid,
                    gid,
                } => {
                    let (fh, attr) = k
                        .k_create_sized(dir, &name, size, mode, uid, gid)
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
