//! Slots and their records (DESIGN.md §2, §26).
//!
//! A slot is one anchor's materialized subtree on a node: `@` + 16 hex
//! digits under `/kosha_store` (the node is its primary) or under
//! `/kosha_replica` (the node holds a copy). What the node knows about a
//! slot besides its files — the routing name, the write-behind lag, the
//! push-in-progress flag and the hot copies kept — is one typed
//! [`SlotMeta`] in a table beside the store, not files inside the slot, so
//! every name in the user's tree belongs to the user.
//!
//! This module is the only code that creates, renames or removes a slot
//! directory, and it moves the slot's record in the same step: the table's
//! keys are the slot directories, always ([`KoshaNode::slot_mismatches`]
//! checks it). The table is store state, like a disk: it lives and is
//! wiped with the store, not with the node's memory. It is also the one
//! record of what the node serves: an anchor whose store slot's record
//! names a routing name.
//!
//! Beside the records the table keeps an index from each anchor to its
//! slot's name and the file id of the slot root, updated in the same
//! step. A slot is named (one SHA-1 of the anchor path) when it is made;
//! every later op on it finds the root by the anchor and walks only the
//! path below it. A root id that has gone stale (the directory was
//! removed behind koshad's back) falls back to the walk by name.

use crate::node::KoshaNode;
use crate::paths::{anchor_slot, slot_rel, Area};
use kosha_nfs::messages::WireAttr;
use kosha_nfs::{Fh, NfsReply, NfsRequest, NfsStatus};
use kosha_rpc::wire_struct;
use kosha_vfs::path::components;
use kosha_vfs::{FileId, FileType, Vfs, VfsError};
use std::collections::{BTreeMap, BTreeSet};

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
        /// The virtual paths of the hot copies this holder keeps
        /// (DESIGN.md §16), sorted. Any makes the slot a read cache beyond
        /// K, not a replica; their leases are the primary's alone.
        pub hot: Vec<String>,
    }
}

/// Where the index finds one anchor's slot.
#[derive(Debug)]
struct SlotRef {
    /// The slot directory's name, `@` + 16 hex digits.
    name: String,
    /// The slot root's file id in the store.
    root: FileId,
}

/// Every slot's record by name, and the index from anchor to slot, one
/// map of each per area. Both iterate in a fixed order: the store's
/// slots first, each area by key.
#[derive(Debug, Default)]
pub(crate) struct SlotTable {
    records: [BTreeMap<String, SlotMeta>; 2],
    index: [BTreeMap<String, SlotRef>; 2],
}

impl SlotTable {
    /// Every record, the store's first, each area in slot-name order.
    pub(crate) fn records(&self) -> impl Iterator<Item = (Area, &String, &SlotMeta)> {
        [Area::Store, Area::Replica]
            .into_iter()
            .flat_map(|a| self.records[a.idx()].iter().map(move |(s, m)| (a, s, m)))
    }

    fn slot(&self, area: Area, anchor: &str) -> Option<&SlotRef> {
        self.index[area.idx()].get(anchor)
    }

    fn meta_mut(&mut self, area: Area, anchor: &str) -> Option<&mut SlotMeta> {
        let name = &self.index[area.idx()].get(anchor)?.name;
        self.records[area.idx()].get_mut(name)
    }

    /// The routing name of `anchor`'s store slot: `Some` exactly when
    /// this node serves the anchor.
    pub(crate) fn routing(&self, anchor: &str) -> Option<&String> {
        let name = &self.slot(Area::Store, anchor)?.name;
        self.records[Area::Store.idx()].get(name)?.routing.as_ref()
    }

    /// Every anchor with a slot in `area` and the slot's name, in anchor
    /// order.
    pub(crate) fn slot_names(&self, area: Area) -> impl Iterator<Item = (&String, &String)> {
        self.index[area.idx()].iter().map(|(a, s)| (a, &s.name))
    }

    /// Files `anchor`'s slot `name` at `root` with record `meta`.
    fn insert(&mut self, area: Area, anchor: &str, name: String, root: FileId, meta: SlotMeta) {
        self.records[area.idx()].insert(name.clone(), meta);
        self.index[area.idx()].insert(anchor.to_string(), SlotRef { name, root });
    }

    /// Takes `anchor` out of the index and slot `name`'s record out of
    /// the table, and returns the record.
    fn take(&mut self, area: Area, anchor: &str, name: &str) -> Option<SlotMeta> {
        self.index[area.idx()].remove(anchor);
        self.records[area.idx()].remove(name)
    }

    /// Takes slot `name` out of the table and the index, whichever anchor
    /// it is filed under: the one removal that scans.
    fn take_name(&mut self, area: Area, name: &str) {
        self.records[area.idx()].remove(name);
        self.index[area.idx()].retain(|_, s| s.name != name);
    }

    fn clear(&mut self) {
        *self = SlotTable::default();
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
        self.slot_table.lock().meta_mut(area, anchor).map(f)
    }

    /// Anchors hosted on this node as primary: `(path, routing name)`,
    /// in path order. The store says which: a store slot whose record
    /// has a routing name.
    #[must_use]
    pub fn hosted_anchors(&self) -> Vec<(String, String)> {
        let table = self.slot_table.lock();
        let anchors = table.index[Area::Store.idx()].keys();
        let served = anchors.filter_map(|a| Some((a.clone(), table.routing(a)?.clone())));
        served.collect()
    }

    /// The records of `area`'s slots, by slot name.
    #[must_use]
    pub fn slot_records(&self, area: Area) -> Vec<(String, SlotMeta)> {
        let table = self.slot_table.lock();
        let of_area = table.records().filter(|(a, _, _)| *a == area);
        of_area.map(|(_, s, m)| (s.clone(), m.clone())).collect()
    }

    /// Every `area/name` in an area's root that has no record, every
    /// record with no such directory, every way the index disagrees with
    /// a fresh recomputation from the records and the store (an anchor
    /// filed under a name that is not its hash, a record no anchor finds,
    /// a root id that is not the slot directory's), and every store
    /// record with no routing name. Empty while every slot moves through
    /// this module and no transfer is half done.
    #[must_use]
    pub fn slot_mismatches(&self) -> Vec<String> {
        self.store.with_store(|v| {
            let table = self.slot_table.lock();
            let mut odd = Vec::new();
            for area in [Area::Store, Area::Replica] {
                let root = v.lookup(v.root(), area.dir_name()).map(|(d, _)| d);
                let entries = root.and_then(|d| v.readdir(d)).unwrap_or_default();
                let dirs: BTreeMap<_, _> = entries.into_iter().map(|e| (e.name, e.id)).collect();
                let keys: BTreeSet<_> = table.records[area.idx()].keys().cloned().collect();
                let named: BTreeSet<_> = dirs.keys().cloned().collect();
                let area_dir = area.dir_name();
                for s in named.symmetric_difference(&keys) {
                    odd.push(format!("/{area_dir}/{s}"));
                }
                let mut indexed = BTreeSet::new();
                for (anchor, slot) in &table.index[area.idx()] {
                    let name = &slot.name;
                    if *name != anchor_slot(anchor) {
                        odd.push(format!("index /{area_dir}: {anchor} filed as {name}"));
                    }
                    if !indexed.insert(name.clone()) {
                        odd.push(format!("index /{area_dir}: {name} filed twice"));
                    }
                    if dirs.get(name) != Some(&slot.root) {
                        odd.push(format!("index /{area_dir}/{name}: stale root id"));
                    }
                }
                for name in keys.difference(&indexed) {
                    odd.push(format!("index /{area_dir}/{name}: no anchor"));
                }
                for name in indexed.difference(&keys) {
                    odd.push(format!("index /{area_dir}/{name}: no record"));
                }
                if area == Area::Store {
                    let records = table.records[area.idx()].iter();
                    for (name, _) in records.filter(|(_, m)| m.routing.is_none()) {
                        odd.push(format!("/{area_dir}/{name}: no routing name"));
                    }
                }
            }
            odd
        })
    }

    /// Handle of `area`'s root directory, uncharged.
    fn area_root(&self, area: Area) -> Result<Fh, NfsStatus> {
        let root = self
            .store
            .with_store(|v| v.lookup(v.root(), area.dir_name()));
        root.map(|(id, _)| Fh::from_file_id(id)).map_err(Into::into)
    }

    /// The slot name of `anchor` in `area`: the index's, or the hash of
    /// the anchor path for a slot the index does not know.
    fn slot_name(&self, area: Area, anchor: &str) -> String {
        let known = self
            .slot_table
            .lock()
            .slot(area, anchor)
            .map(|s| s.name.clone());
        known.unwrap_or_else(|| anchor_slot(anchor))
    }

    /// Handle of directory (or, without `make`, object) `vpath` in
    /// `anchor`'s slot in `area`, found from the slot root the index
    /// holds, uncharged. With `make` (a holder's missing-directory
    /// policy, or a transfer opening the store slot it fills) what is
    /// missing is made as a directory, the slot itself included, with an
    /// empty record; without it a missing name or replica slot is
    /// `NoEnt`, and a store slot this node does not serve (not there, or
    /// no routing name in its record: a transfer cut short) is `Stale`,
    /// the answer for what the node does not hold.
    pub(crate) fn slot_dir(
        &self,
        area: Area,
        anchor: &str,
        vpath: &str,
        make: bool,
    ) -> Result<Fh, NfsStatus> {
        let rel = slot_rel(anchor, vpath);
        self.store.with_store(|v| {
            let table = self.slot_table.lock();
            let routed = |s: &SlotRef| table.records[area.idx()].get(&s.name)?.routing.as_ref();
            let usable = |s: &&SlotRef| make || area == Area::Replica || routed(s).is_some();
            let known = table.slot(area, anchor).filter(usable).map(|s| s.root);
            drop(table);
            let root = match known {
                Some(root) if v.getattr(root).is_ok() => root,
                // Every slot this module made is indexed, so a miss is a
                // slot that is not there: unless a holder is about to
                // make it, nothing needs its name.
                None if !make && area == Area::Store => return Err(NfsStatus::Stale),
                None if !make => return Err(NfsStatus::NoEnt),
                _ => self.slot_root_by_name(v, area, anchor, make)?,
            };
            let found = walk_below(v, root, rel, make);
            found.map(Fh::from_file_id).map_err(Into::into)
        })
    }

    /// The walk by name a stale or missing index entry falls back to:
    /// finds (or, with `make`, makes) `area/slot` and files it.
    fn slot_root_by_name(
        &self,
        v: &mut Vfs,
        area: Area,
        anchor: &str,
        make: bool,
    ) -> Result<FileId, VfsError> {
        let name = anchor_slot(anchor);
        let (dir, _) = v.lookup(v.root(), area.dir_name())?;
        let root = match v.lookup(dir, &name) {
            Ok((id, _)) => id,
            Err(VfsError::NoEnt) if make => v.mkdir(dir, &name, area.slot_mode(), 0, 0)?.0,
            Err(e) => return Err(e),
        };
        let mut table = self.slot_table.lock();
        let meta = table.take(area, anchor, &name).unwrap_or_default();
        table.insert(area, anchor, name, root, meta);
        Ok(root)
    }

    /// Makes `anchor`'s slot in `area` with record `meta`, as one charged
    /// MKDIR, and returns the slot root's handle and attributes. With
    /// `fresh` a copy already there goes first (one charged REMOVE of the
    /// tree; a slot that is not there costs nothing), else an existing
    /// slot is `Exist`.
    pub(crate) fn slot_make(
        &self,
        area: Area,
        anchor: &str,
        (mode, uid, gid): (u32, u32, u32),
        meta: SlotMeta,
        fresh: bool,
    ) -> Result<(Fh, WireAttr), NfsStatus> {
        let (dir, name) = (self.area_root(area)?, anchor_slot(anchor));
        let there = self
            .store
            .with_store(|v| v.lookup(dir.to_file_id(), &name).is_ok());
        if there && !fresh {
            return Err(NfsStatus::Exist);
        }
        if there {
            let _ = self.slot_remove_at(area, dir, anchor, &name);
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
        let mut table = self.slot_table.lock();
        table.insert(area, anchor, name, fh.to_file_id(), meta);
        Ok((fh, attr))
    }

    /// Moves `anchor`'s slot and record from the replica area into the
    /// store, uncharged: a promotion.
    pub(crate) fn slot_move(&self, anchor: &str) -> Result<(), NfsStatus> {
        let slot = self.slot_name(Area::Replica, anchor);
        self.store.with_store(|v| {
            let (src, _) = v.lookup(v.root(), Area::Replica.dir_name())?;
            let (dst, _) = v.lookup(v.root(), Area::Store.dir_name())?;
            v.rename(src, &slot, dst, &slot)?;
            let (root, _) = v.lookup(dst, &slot)?;
            let mut table = self.slot_table.lock();
            let meta = table.take(Area::Replica, anchor, &slot).unwrap_or_default();
            table.insert(Area::Store, anchor, slot, root, meta);
            Ok(())
        })
    }

    /// Removes `anchor`'s slot and record from `area` (`RemoveSlot`), as
    /// one charged REMOVE of the tree.
    pub(crate) fn slot_remove(&self, area: Area, anchor: &str) -> Result<NfsReply, NfsStatus> {
        let dir = self.area_root(area)?;
        self.slot_remove_at(area, dir, anchor, &self.slot_name(area, anchor))
    }

    fn slot_remove_at(
        &self,
        area: Area,
        dir: Fh,
        anchor: &str,
        slot: &str,
    ) -> Result<NfsReply, NfsStatus> {
        let name = slot.to_string();
        let removed = self.apply(NfsRequest::RemoveTree { dir, name })?;
        self.slot_table.lock().take(area, anchor, slot);
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
        let dir = self.area_root(area)?;
        let (sname, dname) = (self.slot_name(area, from), anchor_slot(to));
        let renamed = self.apply(NfsRequest::Rename {
            sdir: dir,
            sname: sname.clone(),
            ddir: dir,
            dname: dname.clone(),
        })?;
        let root = self
            .store
            .with_store(|v| v.lookup(dir.to_file_id(), &dname));
        let mut table = self.slot_table.lock();
        let meta = table.take(area, from, &sname).unwrap_or_default();
        table.take(area, to, &dname);
        if let Ok((root, _)) = root {
            table.insert(area, to, dname, root, meta);
        }
        Ok(renamed)
    }

    /// Drops slot `slot` of `area` and its record, uncharged: replica-slot
    /// GC, and a demotion's store copy. True if it was there.
    pub(crate) fn slot_discard(&self, area: Area, slot: &str) -> bool {
        let discarded = self.store.with_store(|v| {
            let (dir, _) = v.lookup(v.root(), area.dir_name()).ok()?;
            v.remove_tree(dir, slot).ok()?;
            self.slot_table.lock().take_name(area, slot);
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

/// Walks `rel` below the directory `root`, one lookup a component; with
/// `make` every missing component is made as a directory and every one
/// must be a directory.
fn walk_below(v: &mut Vfs, root: FileId, rel: &str, make: bool) -> Result<FileId, VfsError> {
    let mut cur = root;
    for c in components(rel) {
        cur = match v.lookup(cur, c) {
            Ok((_, attr)) if make && attr.ftype != FileType::Directory => {
                return Err(VfsError::NotDir)
            }
            Ok((id, _)) => id,
            Err(VfsError::NoEnt) if make => v.mkdir(cur, c, 0o700, 0, 0)?.0,
            Err(e) => return Err(e),
        };
    }
    Ok(cur)
}
