//! Slots and their records (DESIGN.md §2, §26).
//!
//! A slot is one anchor's materialized subtree on a node: `@` + 16 hex
//! digits under `/kosha_store` (the node is its primary) or under
//! `/kosha_replica` (the node holds a copy). What the node knows about a
//! slot besides its files — the routing name, the write-behind lag, the
//! push-in-progress flag and the hot-copy leases — is one typed
//! [`SlotMeta`] in a table beside the store, not files inside the slot, so
//! every name in the user's tree belongs to the user.
//!
//! This module is the only code that creates, renames or removes a slot
//! directory, and it moves the slot's record in the same step: the table's
//! keys are the slot directories, always ([`KoshaNode::slot_mismatches`]
//! checks it). The table is store state, like a disk: it lives and is
//! wiped with the store, not with the node's memory.

use crate::node::KoshaNode;
use crate::paths::{anchor_slot, slot_local_path, Area};
use kosha_nfs::messages::WireAttr;
use kosha_nfs::{Fh, NfsReply, NfsRequest, NfsStatus};
use kosha_rpc::wire_struct;
use kosha_vfs::VfsError;
use std::collections::BTreeSet;

wire_struct! {
    /// One hot-copy lease a holder carries (DESIGN.md §16).
    #[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
    pub struct HotLease {
        /// Virtual path of the leased object.
        pub path: String,
        /// Primary mutation sequence the copy reflects.
        pub seq: u64,
        /// Lease expiry in virtual nanoseconds.
        pub expires_nanos: u64,
    }
}

wire_struct! {
    /// The record of one slot.
    #[derive(Debug, Clone, Default, PartialEq, Eq)]
    pub struct SlotMeta {
        /// The anchor's routing name, the (possibly salted) key the DHT
        /// places it by: what a promoted copy answers for and what
        /// replica-slot GC asks the owner about. `None` for a replica slot
        /// a mirrored op made before any push named it.
        pub routing: Option<String>,
        /// Lower bound of payload bytes a write-behind primary has queued
        /// for this copy and not flushed (DESIGN.md §11); 0 when current.
        pub lag_bytes: u64,
        /// A full push is materializing this copy (§4.4's bracket).
        pub migrating: bool,
        /// The hot-copy leases this holder carries, sorted by path. Any
        /// lease makes the slot a read cache beyond K, not a replica.
        pub hot: Vec<HotLease>,
    }
}

impl KoshaNode {
    /// The record of `anchor`'s slot in `area`, if the slot is there.
    pub(crate) fn slot_meta(&self, area: Area, anchor: &str) -> Option<SlotMeta> {
        self.slot_update(area, anchor, |m| m.clone())
    }

    /// Changes the record of `anchor`'s slot in `area`, if the slot is
    /// there.
    pub(crate) fn slot_update<R>(
        &self,
        area: Area,
        anchor: &str,
        f: impl FnOnce(&mut SlotMeta) -> R,
    ) -> Option<R> {
        self.slot_table
            .lock()
            .get_mut(&(area, anchor_slot(anchor)))
            .map(f)
    }

    /// The records of `area`'s slots, by slot name.
    #[must_use]
    pub fn slot_records(&self, area: Area) -> Vec<(String, SlotMeta)> {
        let table = self.slot_table.lock();
        let of_area = table.iter().filter(|((a, _), _)| *a == area);
        of_area.map(|((_, s), m)| (s.clone(), m.clone())).collect()
    }

    /// Every `area/name` in an area's root that has no record, and every
    /// record with no such directory. Empty while every slot moves through
    /// this module.
    #[must_use]
    pub fn slot_mismatches(&self) -> Vec<String> {
        let (dirs, keys) = self.store.with_store(|v| {
            let dirs: BTreeSet<_> = [Area::Store, Area::Replica]
                .into_iter()
                .flat_map(|area| {
                    let root = v.resolve(&area.local_path("/"));
                    let entries = root.and_then(|(d, _)| v.readdir(d)).unwrap_or_default();
                    entries.into_iter().map(move |e| (area, e.name))
                })
                .collect();
            let keys: BTreeSet<_> = self.slot_table.lock().keys().cloned().collect();
            (dirs, keys)
        });
        let odd = dirs.symmetric_difference(&keys);
        odd.map(|(a, s)| format!("/{}/{s}", a.dir_name())).collect()
    }

    /// Makes `anchor`'s slot in `area` with record `meta`, as one charged
    /// MKDIR, and returns the slot root's handle and attributes. With
    /// `fresh` a copy already there goes first, else an existing slot is
    /// `Exist`.
    pub(crate) fn slot_make(
        &self,
        area: Area,
        anchor: &str,
        (mode, uid, gid): (u32, u32, u32),
        meta: SlotMeta,
        fresh: bool,
    ) -> Result<(Fh, WireAttr), NfsStatus> {
        let (dir, name) = (self.fh_of(&area.local_path("/"))?, anchor_slot(anchor));
        if fresh {
            let _ = self.slot_remove_at(area, dir, &name);
        }
        let req = NfsRequest::Mkdir {
            dir,
            name: name.clone(),
            mode,
            uid,
            gid,
        };
        let NfsReply::Handle { fh, attr } = self.apply(req)? else {
            return Err(NfsStatus::Io);
        };
        self.slot_table.lock().insert((area, name), meta);
        Ok((fh, attr))
    }

    /// Makes `anchor`'s store slot unless it is there (a transfer merges
    /// into whatever interim copy the receiver served), uncharged.
    pub(crate) fn slot_open_for_transfer(&self, anchor: &str) -> Result<(), NfsStatus> {
        let slot = anchor_slot(anchor);
        self.store.with_store(|v| {
            let (sarea, _) = v.resolve(&Area::Store.local_path("/"))?;
            match v.mkdir(sarea, &slot, 0o755, 0, 0) {
                Ok(_) | Err(VfsError::Exist) => {}
                Err(e) => return Err(e.into()),
            }
            let mut table = self.slot_table.lock();
            table.entry((Area::Store, slot)).or_default();
            Ok(())
        })
    }

    /// The replica-area directory `vpath` of `anchor`, made with its chain
    /// when missing (a holder's missing-directory policy, uncharged); a
    /// slot this makes starts with an empty record.
    pub(crate) fn replica_dir(&self, anchor: &str, vpath: &str) -> Result<Fh, NfsStatus> {
        let p = slot_local_path(Area::Replica, anchor, vpath);
        self.store.with_store(|v| {
            // Only a call that made a directory can have made the slot,
            // so the common call, which makes none, never takes the lock.
            let objects = v.object_count();
            let made = v.mkdir_p(&p, 0o700);
            if v.object_count() != objects {
                let mut table = self.slot_table.lock();
                table
                    .entry((Area::Replica, anchor_slot(anchor)))
                    .or_default();
            }
            made.map(Fh::from_file_id).map_err(Into::into)
        })
    }

    /// Moves `anchor`'s slot and record from one area to the other over
    /// any copy the destination held, uncharged: promotion (replica to
    /// store) and demotion after a transfer (store to replica).
    pub(crate) fn slot_move(&self, anchor: &str, from: Area, to: Area) -> Result<(), NfsStatus> {
        let slot = anchor_slot(anchor);
        self.store.with_store(|v| {
            let (src, _) = v.resolve(&from.local_path("/"))?;
            let (dst, _) = v.resolve(&to.local_path("/"))?;
            let dropped = v.remove_tree(dst, &slot).is_ok();
            let moved = v.rename(src, &slot, dst, &slot);
            let mut table = self.slot_table.lock();
            if dropped {
                table.remove(&(to, slot.clone()));
            }
            if moved.is_ok() {
                let meta = table.remove(&(from, slot.clone())).unwrap_or_default();
                table.insert((to, slot), meta);
            }
            moved.map_err(Into::into)
        })
    }

    /// Removes `anchor`'s slot and record from `area` (`RemoveSlot`), as
    /// one charged REMOVE of the tree.
    pub(crate) fn slot_remove(&self, area: Area, anchor: &str) -> Result<NfsReply, NfsStatus> {
        let dir = self.fh_of(&area.local_path("/"))?;
        self.slot_remove_at(area, dir, &anchor_slot(anchor))
    }

    fn slot_remove_at(&self, area: Area, dir: Fh, slot: &str) -> Result<NfsReply, NfsStatus> {
        let name = slot.to_string();
        let removed = self.apply(NfsRequest::RemoveTree { dir, name })?;
        self.slot_table.lock().remove(&(area, slot.into()));
        Ok(removed)
    }

    /// Renames `from`'s slot in `area` to `to`'s, record along
    /// (`RenameSlot`), as one charged RENAME.
    pub(crate) fn slot_rename(
        &self,
        area: Area,
        from: &str,
        to: &str,
    ) -> Result<NfsReply, NfsStatus> {
        let dir = self.fh_of(&area.local_path("/"))?;
        let (sname, dname) = (anchor_slot(from), anchor_slot(to));
        let renamed = self.apply(NfsRequest::Rename {
            sdir: dir,
            sname: sname.clone(),
            ddir: dir,
            dname: dname.clone(),
        })?;
        let mut table = self.slot_table.lock();
        let meta = table.remove(&(area, sname)).unwrap_or_default();
        table.insert((area, dname), meta);
        Ok(renamed)
    }

    /// Drops replica slot `slot` and its record (replica-slot GC),
    /// uncharged. True if it was there.
    pub(crate) fn slot_discard(&self, slot: &str) -> bool {
        let discarded = self.store.with_store(|v| {
            let (rarea, _) = v.resolve("/kosha_replica").ok()?;
            v.remove_tree(rarea, slot).ok()?;
            self.slot_table.lock().remove(&(Area::Replica, slot.into()));
            Some(())
        });
        discarded.is_some()
    }

    /// Wipes the store, every slot and every record (§4.3's purge).
    pub(crate) fn slot_wipe(&self) {
        self.store.with_store(|v| {
            v.purge();
            v.mkdir_p("/kosha_store", 0o755).expect("store area");
            v.mkdir_p("/kosha_replica", 0o700).expect("replica area");
            self.slot_table.lock().clear();
        });
    }
}
