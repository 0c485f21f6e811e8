//! The virtual file handle table (§4.1.2).
//!
//! NFS handles are opaque, so koshad hands its clients *virtual* handles
//! and keeps the mapping `virtual handle → (full path, real location)`.
//! The indirection is what buys location transparency: when a primary
//! fails, the table entry's cached location is dropped and the next use
//! re-resolves the stored path — which now routes to a replica (§4.4).
//! The table also stores the full path of every object because NFSv3
//! lookups only carry `(parent handle, name)` (§4.1.3).

use kosha_nfs::Fh;
use kosha_rpc::NodeAddr;
use kosha_vfs::FileType;
use std::collections::HashMap;

/// Where an object currently lives: the node and the real NFS handle on
/// that node's store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Location {
    /// The node holding the primary copy.
    pub addr: NodeAddr,
    /// Real file handle within that node's store export.
    pub fh: Fh,
}

/// One virtual-handle table entry.
#[derive(Debug, Clone)]
pub struct VhEntry {
    /// Full virtual path (relative to `/kosha`).
    pub path: String,
    /// Object type at mint time.
    pub ftype: FileType,
    /// Cached real location; `None` after a failure until re-resolved.
    pub loc: Option<Location>,
}

/// The virtual-handle table. Handles are never reused within a session;
/// looking up the same path returns the same handle (NFS clients rely on
/// handle equality for cache identity).
///
/// Invariant: `entries` and `by_path` are a bijection. Every entry's path
/// maps back to its handle and no two entries share a path, so forgetting
/// one path is two hash look-ups and a handle whose object was removed or
/// overwritten is `Stale`, never an alias of what replaced it.
#[derive(Debug, Default)]
pub struct HandleTable {
    next: u64,
    entries: HashMap<u64, VhEntry>,
    by_path: HashMap<String, u64>,
    /// Cached *replica-area* file handles per virtual path: which
    /// replica holders have been read from and the real handle each
    /// handed out. Lets repeated replica reads skip the mount +
    /// compound-lookup RPCs; invalidated on the same chain-, node-, and
    /// subtree-scoped events as primary locations.
    replica_locs: HashMap<String, Vec<(NodeAddr, Fh)>>,
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
            entries: HashMap::new(),
            by_path: HashMap::new(),
            replica_locs: HashMap::new(),
        };
        t.mint("/", FileType::Directory);
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
        if let Some(&vh) = self.by_path.get(path) {
            if let Some(e) = self.entries.get_mut(&vh) {
                e.ftype = ftype;
            }
            return Fh {
                ino: vh,
                gen: VIRTUAL_GEN,
            };
        }
        let vh = self.next;
        self.next += 1;
        self.entries.insert(
            vh,
            VhEntry {
                path: path.to_string(),
                ftype,
                loc: None,
            },
        );
        self.by_path.insert(path.to_string(), vh);
        Fh {
            ino: vh,
            gen: VIRTUAL_GEN,
        }
    }

    /// Looks up an entry; `None` for unknown or non-virtual handles.
    #[must_use]
    pub fn get(&self, fh: Fh) -> Option<&VhEntry> {
        if fh.gen != VIRTUAL_GEN {
            return None;
        }
        self.entries.get(&fh.ino)
    }

    /// Caches the real location for a handle's object.
    pub fn set_location(&mut self, fh: Fh, loc: Location) {
        if let Some(e) = self.entries.get_mut(&fh.ino) {
            e.loc = Some(loc);
        }
    }

    /// Drops the cached location of one handle (the §4.4 failure step:
    /// "Kosha detects an RPC error and removes the mapping for the
    /// virtual handle").
    pub fn clear_location(&mut self, fh: Fh) {
        if let Some(e) = self.entries.get_mut(&fh.ino) {
            e.loc = None;
        }
    }

    /// Drops every cached location in the table (full cache flush).
    pub fn clear_locations_everywhere(&mut self) {
        // lint: allow(L002) independent per-entry mutation; no order leaks out
        for e in self.entries.values_mut() {
            e.loc = None;
        }
        self.replica_locs.clear();
    }

    /// Cached replica file handle on `addr` for `path`, if any.
    #[must_use]
    pub fn replica_location(&self, addr: NodeAddr, path: &str) -> Option<Fh> {
        self.replica_locs
            .get(path)?
            .iter()
            .find(|(a, _)| *a == addr)
            .map(|&(_, fh)| fh)
    }

    /// Caches the replica file handle `addr` handed out for `path`.
    pub fn set_replica_location(&mut self, addr: NodeAddr, path: &str, fh: Fh) {
        let v = self.replica_locs.entry(path.to_string()).or_default();
        match v.iter_mut().find(|(a, _)| *a == addr) {
            Some(slot) => slot.1 = fh,
            None => v.push((addr, fh)),
        }
    }

    /// Drops one cached replica handle (after a failed replica read).
    pub fn clear_replica_location(&mut self, addr: NodeAddr, path: &str) {
        if let Some(v) = self.replica_locs.get_mut(path) {
            v.retain(|(a, _)| *a != addr);
            if v.is_empty() {
                self.replica_locs.remove(path);
            }
        }
    }

    /// Drops cached locations along one path's resolution chain: `path`
    /// itself, its ancestors, and its descendants. Entries on unrelated
    /// branches keep their locations, so one poisoned chain does not
    /// force the whole table to re-resolve (contrast
    /// [`HandleTable::clear_locations_everywhere`]).
    pub fn clear_locations_chain(&mut self, path: &str) {
        if path == "/" {
            self.clear_locations_everywhere();
            return;
        }
        // lint: allow(L002) independent per-entry mutation; no order leaks out
        for e in self.entries.values_mut() {
            if on_chain(&e.path, path) {
                e.loc = None;
            }
        }
        self.replica_locs.retain(|p, _| !on_chain(p, path));
    }

    /// Drops every cached location pointing at a failed node.
    pub fn clear_locations_at(&mut self, addr: NodeAddr) {
        // lint: allow(L002) independent per-entry mutation; no order leaks out
        for e in self.entries.values_mut() {
            if e.loc.map(|l| l.addr) == Some(addr) {
                e.loc = None;
            }
        }
        // lint: allow(L002) independent per-entry mutation; no order leaks out
        for v in self.replica_locs.values_mut() {
            v.retain(|(a, _)| *a != addr);
        }
        self.replica_locs.retain(|_, v| !v.is_empty());
    }

    /// Rewrites paths after a rename: `old` itself and everything under
    /// it move beneath `new`. Cached locations of rewritten entries are
    /// dropped (handles on the destination must re-resolve). Whatever
    /// `new` named before is overwritten, so those handles are forgotten
    /// first: they go stale and `by_path[new]` is free for what moves in.
    pub fn rename_subtree(&mut self, old: &str, new: &str) {
        self.forget_subtree(new);
        let prefix = format!("{old}/");
        let affected: Vec<u64> = self
            .entries
            .iter()
            .filter(|(_, e)| e.path == old || e.path.starts_with(&prefix))
            .map(|(&vh, _)| vh)
            .collect();
        for vh in affected {
            let e = self.entries.get_mut(&vh).expect("present");
            let old_path = e.path.clone();
            let new_path = if old_path == old {
                new.to_string()
            } else {
                format!("{new}{}", &old_path[old.len()..])
            };
            e.path = new_path.clone();
            e.loc = None;
            self.by_path.remove(&old_path);
            self.by_path.insert(new_path, vh);
        }
        self.replica_locs
            .retain(|p, _| p != old && !p.starts_with(&prefix));
    }

    /// Forgets `path` alone, which is all a REMOVE of a non-directory
    /// makes stale: one hash remove a map, where [`Self::forget_subtree`]
    /// scans the table. If the table held `path` as a directory (its type
    /// changed behind this koshad's back), the subtree goes as well.
    pub fn forget(&mut self, path: &str) {
        self.replica_locs.remove(path);
        if let Some(vh) = self.by_path.remove(path) {
            let entry = self.entries.remove(&vh);
            if entry.is_some_and(|e| e.ftype == FileType::Directory) {
                self.forget_subtree(path);
            }
        }
    }

    /// Forgets `path` and its whole subtree (after rmdir/rename). The
    /// handles stay allocated but become dangling, matching NFS stale
    /// handle semantics for deleted objects.
    pub fn forget_subtree(&mut self, path: &str) {
        let prefix = format!("{path}/");
        let affected: Vec<u64> = self
            .entries
            .iter()
            .filter(|(_, e)| e.path == path || e.path.starts_with(&prefix))
            .map(|(&vh, _)| vh)
            .collect();
        for vh in affected {
            if let Some(e) = self.entries.remove(&vh) {
                self.by_path.remove(&e.path);
            }
        }
        self.replica_locs
            .retain(|p, _| p != path && !p.starts_with(&prefix));
    }

    /// Number of live entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if only the root entry exists.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.len() <= 1
    }
}

/// True if `p` is on the resolution chain of `path` (not `/`): `path`
/// itself, an ancestor or a descendant. Allocates nothing: every `NoEnt`
/// retry runs it once per table entry.
pub(crate) fn on_chain(p: &str, path: &str) -> bool {
    let below = |p: &str, dir: &str| p.strip_prefix(dir).is_some_and(|r| r.starts_with('/'));
    p == "/" || p == path || below(path, p) || below(p, path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mint_is_stable_per_path() {
        let mut t = HandleTable::new();
        let a = t.mint("/x", FileType::Regular);
        let b = t.mint("/x", FileType::Regular);
        assert_eq!(a, b);
        let c = t.mint("/y", FileType::Directory);
        assert_ne!(a, c);
        assert_eq!(t.get(a).unwrap().path, "/x");
    }

    #[test]
    fn root_premade() {
        let t = HandleTable::new();
        assert_eq!(t.get(t.root()).unwrap().path, "/");
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
        let loc = Location {
            addr: NodeAddr(3),
            fh: Fh { ino: 9, gen: 1 },
        };
        t.set_location(fh, loc);
        assert_eq!(t.get(fh).unwrap().loc, Some(loc));
        t.clear_locations_at(NodeAddr(3));
        assert_eq!(t.get(fh).unwrap().loc, None);
    }

    #[test]
    fn clear_locations_chain_spares_unrelated_branches() {
        let mut t = HandleTable::new();
        let loc = Location {
            addr: NodeAddr(3),
            fh: Fh { ino: 9, gen: 1 },
        };
        let root = t.root();
        let ancestor = t.mint("/a", FileType::Directory);
        let target = t.mint("/a/b", FileType::Directory);
        let child = t.mint("/a/b/f", FileType::Regular);
        let sibling = t.mint("/a/c", FileType::Regular);
        let prefix_trap = t.mint("/a/bc", FileType::Regular);
        for fh in [root, ancestor, target, child, sibling, prefix_trap] {
            t.set_location(fh, loc);
        }
        t.clear_locations_chain("/a/b");
        // The chain (root, ancestor, self, descendant) is dropped...
        for fh in [root, ancestor, target, child] {
            assert_eq!(t.get(fh).unwrap().loc, None);
        }
        // ...while the sibling and the /a/bc prefix trap survive.
        for fh in [sibling, prefix_trap] {
            assert_eq!(t.get(fh).unwrap().loc, Some(loc));
        }
    }

    #[test]
    fn rename_subtree_rewrites_paths() {
        let mut t = HandleTable::new();
        let d = t.mint("/a", FileType::Directory);
        let f = t.mint("/a/f", FileType::Regular);
        let other = t.mint("/ab", FileType::Regular); // prefix trap
        t.rename_subtree("/a", "/z");
        assert_eq!(t.get(d).unwrap().path, "/z");
        assert_eq!(t.get(f).unwrap().path, "/z/f");
        assert_eq!(t.get(other).unwrap().path, "/ab");
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
        t.clear_locations_at(NodeAddr(1));
        assert_eq!(t.replica_location(NodeAddr(1), "/a/b/f"), None);
        assert_eq!(t.replica_location(NodeAddr(2), "/a/b/f"), Some(fh));
        // Chain-scoped invalidation spares unrelated branches.
        t.set_replica_location(NodeAddr(1), "/other", fh);
        t.clear_locations_chain("/a/b");
        assert_eq!(t.replica_location(NodeAddr(2), "/a/b/f"), None);
        assert_eq!(t.replica_location(NodeAddr(1), "/other"), Some(fh));
        // Targeted clear after a failed replica read.
        t.clear_replica_location(NodeAddr(1), "/other");
        assert_eq!(t.replica_location(NodeAddr(1), "/other"), None);
        // Subtree forget sweeps replica handles too.
        t.set_replica_location(NodeAddr(3), "/gone/f", fh);
        t.forget_subtree("/gone");
        assert_eq!(t.replica_location(NodeAddr(3), "/gone/f"), None);
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
