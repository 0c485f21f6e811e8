//! Path semantics of the virtual `/kosha` namespace: anchors, store
//! mapping, and internal (metadata) names.
//!
//! A virtual path like `/alice/src/main.rs` is interpreted relative to the
//! `/kosha` mount point. Its **anchor** is the deepest distributed
//! ancestor directory: with distribution level `L`, a directory at depth
//! `d ≤ L` anchors itself, anything deeper (and every file) anchors at its
//! depth-`L` ancestor — or, for top-level files, at the virtual root,
//! which behaves as an anchor with the fixed routing name `"/"`.

use kosha_id::Sha1;
use kosha_vfs::path::{depth, split_path, validate_name};
use kosha_vfs::VfsError;

/// Area of a node's local store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Area {
    /// Primary data: `/kosha_store/...`.
    Store,
    /// Replica shadow area: `/kosha_replica/...` (inaccessible to users,
    /// §4.2: "The replicas are inaccessible to the local users").
    Replica,
}

impl Area {
    /// The top-level directory name for this area.
    #[must_use]
    pub fn dir_name(self) -> &'static str {
        match self {
            Area::Store => "kosha_store",
            Area::Replica => "kosha_replica",
        }
    }

    /// Maps a virtual path to this node-local area path.
    #[must_use]
    pub fn local_path(self, vpath: &str) -> String {
        if vpath == "/" {
            format!("/{}", self.dir_name())
        } else {
            format!("/{}{}", self.dir_name(), vpath)
        }
    }
}

/// Name of the per-anchor metadata file storing the anchor's routing name
/// (written at the anchor's root; lets a promoted replica recover the
/// salted key it must answer for).
pub const ANCHOR_META: &str = ".kosha_anchor";

/// Name of the migration-in-progress flag file (§4.4).
pub const MIGRATION_FLAG: &str = "MIGRATION_NOT_COMPLETE";

/// Name of the replica-lag marker a write-behind primary drops at a
/// replica slot's root while queued mutations have not yet been flushed
/// to that replica. The file holds the decimal count of payload bytes
/// queued when the marker was written (a lower bound on the lag); a
/// flushed batch clears it, and a promotion that finds one journals a
/// `replica_lag` event instead of silently serving stale data
/// (DESIGN.md §11).
pub const LAG_MARK: &str = ".kosha_lag";

/// Name of the hot-copy lease marker a primary stamps at a replica
/// slot's root when it pushes heat-driven cached copies there. The file
/// holds one line per leased virtual path, sorted: the path, the
/// primary's mutation sequence the copy reflects, and the lease expiry
/// in virtual nanoseconds (DESIGN.md §16). Its presence distinguishes a
/// leased hot copy from a stale over-replicated slot in audits and GC.
pub const HOT_MARK: &str = ".kosha_hot";

/// True for names Kosha manages internally and hides from directory
/// listings.
#[must_use]
pub fn is_internal_name(name: &str) -> bool {
    name == ANCHOR_META || name == MIGRATION_FLAG || name == LAG_MARK || name == HOT_MARK
}

/// Accepts a virtual path a peer supplied only if it is absolute and
/// already normalised (`normalize(p) == p`, checked without building the
/// copy). Such a path is about to be joined into a path in the local
/// store, where `..` resolves: un-normalised, a mirrored op for
/// `/a/../../kosha_store/x` would leave the replica area. `Inval` for
/// anything else.
pub fn check_vpath(vpath: &str) -> Result<(), kosha_nfs::NfsStatus> {
    let normalised = vpath == "/"
        || vpath
            .strip_prefix('/')
            .is_some_and(|rest| rest.split('/').all(|c| validate_name(c).is_ok()));
    if normalised {
        Ok(())
    } else {
        Err(kosha_nfs::NfsStatus::Inval)
    }
}

/// The routing name of the virtual root anchor.
pub const ROOT_ANCHOR: &str = "/";

/// The store directory name ("slot") under which an anchor's subtree is
/// materialized on its home node: `@` + 16 hex digits of
/// `SHA1(anchor virtual path)`.
///
/// **Deviation from the paper**: Figure 3 materializes anchors under
/// their full plain path (`/kosha_store/…/sdir2/sdirm`). That scheme is
/// ambiguous when one node both *hosts the listing* of a directory (which
/// must contain a special link for a distributed child) and *stores the
/// hierarchy* of a deeper anchor (which needs a real directory of the
/// same name). Keying each anchor's materialization by a hash of its
/// virtual path removes the collision while preserving every observable
/// behavior (placement, links, redirection, migration); DESIGN.md
/// records this substitution.
#[must_use]
pub fn anchor_slot(anchor_path: &str) -> String {
    // One SHA-1 block for a path under 56 bytes; only the 8 digest bytes
    // the name keeps are rendered.
    let mut slot = String::with_capacity(17);
    slot.push('@');
    Sha1::push_hex(&mut slot, &Sha1::digest(anchor_path.as_bytes())[..8]);
    slot
}

/// The node-local path of an anchor-relative object: `area/slot` for the
/// anchor root, `area/slot/rel` below it. `vpath` must be the anchor path
/// itself or a descendant.
#[must_use]
pub fn slot_local_path(area: Area, anchor_path: &str, vpath: &str) -> String {
    let rel = if anchor_path == "/" {
        vpath.strip_prefix('/').unwrap_or("")
    } else {
        vpath
            .strip_prefix(anchor_path)
            .map(|r| r.strip_prefix('/').unwrap_or(r))
            .unwrap_or("")
    };
    let (dir, slot) = (area.dir_name(), anchor_slot(anchor_path));
    let mut path = String::with_capacity(dir.len() + slot.len() + rel.len() + 3);
    path.extend(["/", dir, "/", &slot]);
    if !rel.is_empty() {
        path.extend(["/", rel]);
    }
    path
}

/// The anchor (directory whose name is hashed for placement) responsible
/// for the *listing* of directory `path`: `path` itself if it is the root
/// or lies within the distribution levels, otherwise its depth-`level`
/// ancestor.
pub fn anchor_dir_of(path: &str, level: usize) -> Result<String, VfsError> {
    if path == "/" {
        return Ok("/".to_string());
    }
    let comps = split_path(path)?;
    let d = comps.len();
    if d <= level {
        return Ok(path.to_string());
    }
    let mut s = String::new();
    for c in comps.iter().take(level) {
        s.push('/');
        s.push_str(c);
    }
    if s.is_empty() {
        s.push('/');
    }
    Ok(s)
}

/// True if a directory at `path` is itself distributed (hashed to its own
/// node): depth within the distribution level.
#[must_use]
pub fn is_distributed_dir(path: &str, level: usize) -> bool {
    path != "/" && depth(path) <= level
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn area_paths() {
        assert_eq!(Area::Store.local_path("/"), "/kosha_store");
        assert_eq!(Area::Store.local_path("/a/b"), "/kosha_store/a/b");
        assert_eq!(Area::Replica.local_path("/a"), "/kosha_replica/a");
    }

    #[test]
    fn anchors_by_level() {
        assert_eq!(anchor_dir_of("/", 1).unwrap(), "/");
        assert_eq!(anchor_dir_of("/a", 1).unwrap(), "/a");
        assert_eq!(anchor_dir_of("/a/b", 1).unwrap(), "/a");
        assert_eq!(anchor_dir_of("/a/b/c", 1).unwrap(), "/a");
        assert_eq!(anchor_dir_of("/a/b", 2).unwrap(), "/a/b");
        assert_eq!(anchor_dir_of("/a/b/c", 2).unwrap(), "/a/b");
        assert_eq!(anchor_dir_of("/a", 4).unwrap(), "/a");
    }

    #[test]
    fn distributed_dir_test() {
        assert!(!is_distributed_dir("/", 1));
        assert!(is_distributed_dir("/a", 1));
        assert!(!is_distributed_dir("/a/b", 1));
        assert!(is_distributed_dir("/a/b", 2));
    }

    #[test]
    fn slots_are_stable_and_distinct() {
        assert_eq!(anchor_slot("/a"), anchor_slot("/a"));
        assert_ne!(anchor_slot("/a"), anchor_slot("/b"));
        assert_ne!(anchor_slot("/u1/src"), anchor_slot("/u2/src")); // same name, different path
        assert!(anchor_slot("/").starts_with('@'));
        assert_eq!(anchor_slot("/x").len(), 17);
    }

    /// Store layout, derived independently by the primary and every holder.
    #[test]
    fn slot_names_are_pinned() {
        assert_eq!(anchor_slot("/"), "@42099b4af021e53f");
        assert_eq!(anchor_slot("/a"), "@2256c6ac80d3eb26");
        assert_eq!(anchor_slot("/u1/src"), "@155237a31a998a59");
    }

    #[test]
    fn slot_local_paths() {
        let slot = anchor_slot("/a");
        assert_eq!(
            slot_local_path(Area::Store, "/a", "/a"),
            format!("/kosha_store/{slot}")
        );
        assert_eq!(
            slot_local_path(Area::Store, "/a", "/a/b/c"),
            format!("/kosha_store/{slot}/b/c")
        );
        let root_slot = anchor_slot("/");
        assert_eq!(
            slot_local_path(Area::Replica, "/", "/"),
            format!("/kosha_replica/{root_slot}")
        );
        assert_eq!(
            slot_local_path(Area::Replica, "/", "/f.txt"),
            format!("/kosha_replica/{root_slot}/f.txt")
        );
    }

    #[test]
    fn internal_names_recognized() {
        assert!(is_internal_name(".kosha_anchor"));
        assert!(is_internal_name("MIGRATION_NOT_COMPLETE"));
        assert!(is_internal_name(".kosha_lag"));
        assert!(is_internal_name(".kosha_hot"));
        assert!(!is_internal_name("data.txt"));
    }
}
