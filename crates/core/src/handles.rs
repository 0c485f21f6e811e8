//! The virtual file handle table (§4.1.2): all koshad knows, as a
//! client, about where a path lives.
//!
//! NFS handles are opaque, so koshad hands its clients *virtual* handles
//! and keeps the mapping `virtual handle → (full path, real location)`.
//! The indirection is what buys location transparency: when a primary
//! fails, the path's cached location is dropped and the next use
//! re-resolves the stored path — which now routes to a replica (§4.4).
//! The table also stores the full path of every object because NFSv3
//! lookups only carry `(parent handle, name)` (§4.1.3). Locations are
//! kept by path, with or without a handle: the listing a walk found for
//! a directory and the replica handles a replica read found sit in the
//! entry a handle of that path uses, so an event that makes a location
//! stale clears it in one place.

use crate::pathmap::PathMap;
use kosha_nfs::Fh;
use kosha_obs::fxhash::FxBuild;
use kosha_rpc::NodeAddr;
use kosha_vfs::FileType;
use std::collections::HashMap;
use std::sync::Arc;

/// Where an object currently lives: the node and the real NFS handle on
/// that node's store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Location {
    /// The node holding the primary copy.
    pub addr: NodeAddr,
    /// Real file handle within that node's store export.
    pub fh: Fh,
}

/// What the table knows about one path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathEntry {
    /// The virtual handle minted for the path, if one was.
    pub vh: Option<u64>,
    /// Object type: a handle's at mint time, `Directory` for a listing a
    /// walk cached.
    pub ftype: FileType,
    /// Cached real location, a directory's listing or a file's object;
    /// `None` after a failure until re-resolved.
    pub loc: Option<Location>,
    /// Cached *replica-area* file handles, one per holder a replica read
    /// used: repeated replica reads skip the mount and lookup RPCs.
    pub replicas: Vec<(NodeAddr, Fh)>,
}

impl PathEntry {
    fn new(ftype: FileType) -> Self {
        PathEntry {
            vh: None,
            ftype,
            loc: None,
            replicas: Vec::new(),
        }
    }

    /// Records the object's type; a changed type drops the locations,
    /// which were the old object's.
    fn set_type(&mut self, ftype: FileType) {
        if self.ftype != ftype {
            *self = PathEntry {
                vh: self.vh,
                ..PathEntry::new(ftype)
            };
        }
    }

    /// Drops every cached location; false if nothing is left to keep.
    fn clear(&mut self) -> bool {
        self.loc = None;
        self.replicas.clear();
        self.is_held()
    }

    /// True while the entry holds a handle or a location.
    fn is_held(&self) -> bool {
        self.vh.is_some() || self.loc.is_some() || !self.replicas.is_empty()
    }
}

/// The virtual-handle table. Handles are never reused within a session;
/// looking up the same path returns the same handle (NFS clients rely on
/// handle equality for cache identity).
///
/// Invariants: `handles` and the handles in `by_path` are a bijection,
/// and a handle's number maps to the slot of its path's entry. Every
/// handle's path leads back to it and no two handles share a path, so
/// forgetting one path is two look-ups and a handle whose object was
/// removed or overwritten is `Stale`, never an alias of what replaced it.
/// A handle is one probe of an integer-keyed map and one index: its
/// path (shared, so a caller keeps it without a copy), type and location
/// come from the entry that slot holds. No entry is empty: one without a
/// handle holds a location or a replica handle. `by_path` counts the
/// entries below each directory, so clearing or forgetting a path with
/// nothing below it scans nothing.
#[derive(Debug, Default)]
pub struct HandleTable {
    next: u64,
    /// Handle → slot of its entry in `by_path`.
    handles: HashMap<u64, usize, FxBuild>,
    by_path: PathMap<PathEntry>,
}

/// Generation stamped into virtual handles (they outlive store purges; a
/// virtual handle only dies with the koshad process, §4.4: "virtual
/// handles need not be persistent").
pub const VIRTUAL_GEN: u32 = 0xA0A0;

impl HandleTable {
    /// Empty table. Handle 1 is pre-minted for the virtual root `/`.
    #[must_use]
    pub fn new() -> Self {
        let mut t = HandleTable {
            next: 1,
            ..HandleTable::default()
        };
        t.mint("/", FileType::Directory);
        t
    }

    /// An empty table for a restarted koshad: its handles are numbered
    /// after every one `self` minted, so a client's handle from before
    /// the restart is `Stale`, never an alias of a new object (the root,
    /// handle 1, is the root in every table).
    #[must_use]
    pub(crate) fn restarted(&self) -> Self {
        let mut t = HandleTable::new();
        t.next = self.next;
        t
    }

    /// The virtual root handle.
    #[must_use]
    pub fn root(&self) -> Fh {
        Fh {
            ino: 1,
            gen: VIRTUAL_GEN,
        }
    }

    /// Returns the existing handle for `path` or mints a new one.
    pub fn mint(&mut self, path: &str, ftype: FileType) -> Fh {
        let next = self.next;
        let (slot, e) = self
            .by_path
            .get_or_insert_with(path, || PathEntry::new(ftype));
        e.set_type(ftype);
        let vh = *e.vh.get_or_insert(next);
        if vh == next {
            self.next += 1;
            self.handles.insert(vh, slot);
        }
        Fh {
            ino: vh,
            gen: VIRTUAL_GEN,
        }
    }

    /// Entries strictly below `dir`, at any depth: what the table keeps
    /// so that forgetting an empty subtree scans nothing.
    #[must_use]
    pub fn descendants(&self, dir: &str) -> usize {
        self.by_path.descendants(dir)
    }

    /// Number of directories with an entry below them: the keys of the
    /// counts [`Self::descendants`] reads, none of them zero.
    #[must_use]
    pub fn counted_dirs(&self) -> usize {
        self.by_path.counted_dirs()
    }

    /// The path a handle names; `None` for unknown or non-virtual handles.
    #[must_use]
    pub fn path(&self, fh: Fh) -> Option<&str> {
        self.get(fh).map(|(path, _)| &**path)
    }

    /// A handle's path and its entry, found by one probe; `None` for
    /// unknown or non-virtual handles.
    #[must_use]
    pub fn get(&self, fh: Fh) -> Option<(&Arc<str>, &PathEntry)> {
        if fh.gen != VIRTUAL_GEN {
            return None;
        }
        self.by_path.at(*self.handles.get(&fh.ino)?)
    }

    /// The entry for `path`, handle or not.
    #[must_use]
    pub fn entry(&self, path: &str) -> Option<&PathEntry> {
        self.by_path.get(path)
    }

    /// The cached listing of directory `path`.
    #[must_use]
    pub fn dir_location(&self, path: &str) -> Option<Location> {
        let e = self.by_path.get(path)?;
        e.loc.filter(|_| e.ftype == FileType::Directory)
    }

    /// Caches where `path`'s object lives and what it is: a directory's
    /// listing, which a walk caches without a handle, or a file's object.
    pub fn set_location(&mut self, path: &str, ftype: FileType, loc: Location) {
        let (_, e) = self
            .by_path
            .get_or_insert_with(path, || PathEntry::new(ftype));
        e.set_type(ftype);
        e.loc = Some(loc);
    }

    /// Cached replica file handle on `addr` for `path`, if any.
    #[must_use]
    pub fn replica_location(&self, addr: NodeAddr, path: &str) -> Option<Fh> {
        let e = self.by_path.get(path)?;
        e.replicas
            .iter()
            .find(|(a, _)| *a == addr)
            .map(|&(_, fh)| fh)
    }

    /// Caches the replica file handle `addr` handed out for `path`.
    pub fn set_replica_location(&mut self, addr: NodeAddr, path: &str, fh: Fh) {
        let (_, e) = self
            .by_path
            .get_or_insert_with(path, || PathEntry::new(FileType::Regular));
        match e.replicas.iter_mut().find(|(a, _)| *a == addr) {
            Some(slot) => slot.1 = fh,
            None => e.replicas.push((addr, fh)),
        }
    }

    /// Drops one cached replica handle (after a failed replica read).
    pub fn clear_replica_location(&mut self, addr: NodeAddr, path: &str) {
        if let Some(e) = self.by_path.get_mut(path) {
            e.replicas.retain(|(a, _)| *a != addr);
            if !e.is_held() {
                self.by_path.remove(path);
            }
        }
    }

    /// Drops the cached locations on one path's resolution chain: `path`
    /// itself, its ancestors and its descendants (what a `Stale` answer
    /// distrusts). Entries on other branches keep theirs, and with
    /// nothing below `path` this touches one entry per ancestor, whatever
    /// the size of the table.
    pub fn clear_chain(&mut self, path: &str) {
        self.by_path.retain_subtree(path, true, PathEntry::clear);
    }

    /// Drops the cached locations of `path` and everything below it (an
    /// anchor this node demoted: its slot left the store).
    pub fn clear_subtree(&mut self, path: &str) {
        self.by_path.retain_subtree(path, false, PathEntry::clear);
    }

    /// Drops every cached location on a failed node.
    pub fn clear_node(&mut self, addr: NodeAddr) {
        self.by_path.retain(|e| {
            if e.loc.is_some_and(|l| l.addr == addr) {
                e.loc = None;
            }
            e.replicas.retain(|(a, _)| *a != addr);
            e.is_held()
        });
    }

    /// Drops every cached location in the table (full cache flush).
    /// Handles stay: their paths re-resolve on next use.
    pub fn clear_all(&mut self) {
        self.by_path.retain(PathEntry::clear);
    }

    /// Rewrites paths after a rename: `old` itself and everything under
    /// it move beneath `new`, without their locations (handles on the
    /// destination must re-resolve). Whatever `new` named before is
    /// overwritten, so it is forgotten first: its handles go stale and
    /// the path is free for what moves in.
    pub fn rename_subtree(&mut self, old: &str, new: &str) {
        self.forget_subtree(new);
        let mut moved = Vec::new();
        self.by_path.remove_subtree(old, |p, e| {
            if let Some(vh) = e.vh {
                moved.push((vh, e.ftype, format!("{new}{}", &p[old.len()..])));
            }
        });
        for (vh, ftype, p) in moved {
            let e = PathEntry {
                vh: Some(vh),
                ..PathEntry::new(ftype)
            };
            self.handles.insert(vh, self.by_path.insert(&p, e));
        }
    }

    /// Forgets `path` alone, which is all a REMOVE of a non-directory
    /// makes stale: a remove from each map and a count update per
    /// directory above it. If the table held `path` as a directory (its
    /// type changed behind this koshad's back), the subtree goes as well.
    pub fn forget(&mut self, path: &str) {
        if let Some(e) = self.by_path.remove(path) {
            if let Some(vh) = e.vh {
                self.handles.remove(&vh);
            }
            if e.ftype == FileType::Directory {
                self.forget_subtree(path);
            }
        }
    }

    /// Forgets `path` and its whole subtree (after rmdir/rename). The
    /// handles stay allocated but become dangling, matching NFS stale
    /// handle semantics for deleted objects. With nothing below `path`
    /// (an RMDIR always, since the directory was empty) this is the cost
    /// of [`Self::forget`], whatever the size of the table.
    pub fn forget_subtree(&mut self, path: &str) {
        let handles = &mut self.handles;
        self.by_path.remove_subtree(path, |_, e| {
            if let Some(vh) = e.vh {
                handles.remove(&vh);
            }
        });
    }

    /// Number of live handles.
    #[must_use]
    pub fn len(&self) -> usize {
        self.handles.len()
    }

    /// True if only the root handle exists.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.handles.len() <= 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LOC: Location = Location {
        addr: NodeAddr(3),
        fh: Fh { ino: 9, gen: 1 },
    };

    #[test]
    fn mint_is_stable_per_path() {
        let mut t = HandleTable::new();
        let a = t.mint("/x", FileType::Regular);
        let b = t.mint("/x", FileType::Regular);
        assert_eq!(a, b);
        let c = t.mint("/y", FileType::Directory);
        assert_ne!(a, c);
        assert_eq!(t.path(a), Some("/x"));
    }

    #[test]
    fn root_premade() {
        let t = HandleTable::new();
        assert_eq!(t.path(t.root()), Some("/"));
    }

    #[test]
    fn non_virtual_gen_rejected() {
        let t = HandleTable::new();
        let bogus = Fh { ino: 1, gen: 1 };
        assert!(t.get(bogus).is_none());
    }

    #[test]
    fn location_lifecycle() {
        let mut t = HandleTable::new();
        let fh = t.mint("/f", FileType::Regular);
        t.set_location("/f", FileType::Regular, LOC);
        assert_eq!(t.get(fh).unwrap().1.loc, Some(LOC));
        assert_eq!(t.dir_location("/f"), None, "a file is no listing");
        t.clear_node(NodeAddr(3));
        assert_eq!(t.get(fh).unwrap().1.loc, None);
        // A walk's listing needs no handle; a handle minted later finds it.
        t.set_location("/d", FileType::Directory, LOC);
        let d = t.mint("/d", FileType::Directory);
        assert_eq!(t.get(d).unwrap().1.loc, Some(LOC));
        t.mint("/d", FileType::Regular);
        assert_eq!(t.get(d).unwrap().1.loc, None, "a new type, no location");
    }

    #[test]
    fn clear_locations_chain_spares_unrelated_branches() {
        let mut t = HandleTable::new();
        let root = t.root();
        let ancestor = t.mint("/a", FileType::Directory);
        let target = t.mint("/a/b", FileType::Directory);
        let child = t.mint("/a/b/f", FileType::Regular);
        let sibling = t.mint("/a/c", FileType::Regular);
        let prefix_trap = t.mint("/a/bc", FileType::Regular);
        for fh in [root, ancestor, target, child, sibling, prefix_trap] {
            let (path, e) = t.get(fh).unwrap();
            let (path, ftype) = (path.to_string(), e.ftype);
            t.set_location(&path, ftype, LOC);
        }
        t.set_location("/a/b/d", FileType::Directory, LOC);
        t.clear_chain("/a/b");
        // The chain (root, ancestor, self, descendant) is dropped, and an
        // entry left with nothing in it goes...
        for fh in [root, ancestor, target, child] {
            assert_eq!(t.get(fh).unwrap().1.loc, None);
        }
        assert_eq!(t.entry("/a/b/d"), None);
        // ...while the sibling and the /a/bc prefix trap survive.
        for fh in [sibling, prefix_trap] {
            assert_eq!(t.get(fh).unwrap().1.loc, Some(LOC));
        }
    }

    #[test]
    fn rename_subtree_rewrites_paths() {
        let mut t = HandleTable::new();
        let d = t.mint("/a", FileType::Directory);
        let f = t.mint("/a/f", FileType::Regular);
        let other = t.mint("/ab", FileType::Regular); // prefix trap
        t.set_location("/a/g", FileType::Directory, LOC);
        t.rename_subtree("/a", "/z");
        assert_eq!(t.path(d), Some("/z"));
        assert_eq!(t.path(f), Some("/z/f"));
        assert_eq!(t.path(other), Some("/ab"));
        assert_eq!((t.entry("/a/g"), t.entry("/z/g")), (None, None));
        // Re-minting the new path returns the moved handle.
        assert_eq!(t.mint("/z/f", FileType::Regular), f);
    }

    #[test]
    fn replica_locations_follow_invalidation() {
        let mut t = HandleTable::new();
        let fh = Fh { ino: 9, gen: 1 };
        t.set_replica_location(NodeAddr(1), "/a/b/f", fh);
        t.set_replica_location(NodeAddr(2), "/a/b/f", fh);
        t.set_replica_location(NodeAddr(1), "/other", fh);
        assert_eq!(t.replica_location(NodeAddr(1), "/a/b/f"), Some(fh));
        // Node-scoped invalidation drops only that node's handles.
        t.clear_node(NodeAddr(1));
        assert_eq!(t.replica_location(NodeAddr(1), "/a/b/f"), None);
        assert_eq!(t.replica_location(NodeAddr(2), "/a/b/f"), Some(fh));
        // Chain-scoped invalidation spares unrelated branches.
        t.set_replica_location(NodeAddr(1), "/other", fh);
        t.clear_chain("/a/b");
        assert_eq!(t.replica_location(NodeAddr(2), "/a/b/f"), None);
        assert_eq!(t.replica_location(NodeAddr(1), "/other"), Some(fh));
        // Targeted clear after a failed replica read.
        t.clear_replica_location(NodeAddr(1), "/other");
        assert_eq!(t.replica_location(NodeAddr(1), "/other"), None);
        // Subtree forget sweeps replica handles too.
        t.set_replica_location(NodeAddr(3), "/gone/f", fh);
        t.forget_subtree("/gone");
        assert_eq!(t.replica_location(NodeAddr(3), "/gone/f"), None);
        assert_eq!(t.counted_dirs(), 0, "no entry is left");
    }

    #[test]
    fn forget_subtree_removes_entries() {
        let mut t = HandleTable::new();
        let d = t.mint("/a", FileType::Directory);
        let f = t.mint("/a/f", FileType::Regular);
        let keep = t.mint("/ab", FileType::Regular);
        t.forget_subtree("/a");
        assert!(t.get(d).is_none());
        assert!(t.get(f).is_none());
        assert!(t.get(keep).is_some());
    }
}
