//! Path semantics of the virtual `/kosha` namespace: anchors and store
//! mapping.
//!
//! A virtual path like `/alice/src/main.rs` is interpreted relative to the
//! `/kosha` mount point. Its **anchor** is the deepest distributed
//! ancestor directory: with distribution level `L`, a directory at depth
//! `d ≤ L` anchors itself, anything deeper (and every file) anchors at its
//! depth-`L` ancestor — or, for top-level files, at the virtual root,
//! which behaves as an anchor with the fixed routing name `"/"`.

use kosha_id::Sha1;
use kosha_vfs::path::{depth, is_normal, normalized};
use kosha_vfs::VfsError;
use std::borrow::Cow;

/// Area of a node's local store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
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

    /// Permission bits of a slot root koshad makes in this area itself.
    #[must_use]
    pub(crate) fn slot_mode(self) -> u32 {
        match self {
            Area::Store => 0o755,
            Area::Replica => 0o700,
        }
    }

    /// The area's position in per-area tables: the store first.
    #[must_use]
    pub(crate) fn idx(self) -> usize {
        self as usize
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

/// Accepts a virtual path a peer supplied only if it is absolute and
/// already normalised ([`is_normal`]). Such a path is about to be joined
/// into a path in the local store, where `..` resolves: un-normalised, a
/// mirrored op for `/a/../../kosha_store/x` would leave the replica area.
/// `Inval` for anything else.
pub fn check_vpath(vpath: &str) -> Result<(), kosha_nfs::NfsStatus> {
    if is_normal(vpath) {
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
    let mut slot = String::with_capacity(SLOT_LEN);
    push_slot(&mut slot, anchor_path);
    slot
}

/// Length of a slot name: `@` and 16 hex digits.
const SLOT_LEN: usize = 17;

/// Appends `anchor_path`'s slot name to `out`. One SHA-1 block for a path
/// under 56 bytes; only the 8 digest bytes the name keeps are rendered.
fn push_slot(out: &mut String, anchor_path: &str) {
    out.push('@');
    Sha1::push_hex(out, &Sha1::digest(anchor_path.as_bytes())[..8]);
}

/// The node-local path of an anchor-relative object: `area/slot` for the
/// anchor root, `area/slot/rel` below it. `vpath` must be the anchor path
/// itself or a descendant. One allocation: the slot name is written
/// straight into the path.
#[must_use]
pub fn slot_local_path(area: Area, anchor_path: &str, vpath: &str) -> String {
    let rel = slot_rel(anchor_path, vpath);
    let dir = area.dir_name();
    let mut path = String::with_capacity(dir.len() + SLOT_LEN + rel.len() + 3);
    path.extend(["/", dir, "/"]);
    push_slot(&mut path, anchor_path);
    if !rel.is_empty() {
        path.extend(["/", rel]);
    }
    path
}

/// The part of `vpath` below its anchor's slot root, without a leading
/// slash: `""` for the anchor itself. `vpath` must be the anchor path or
/// a descendant.
#[must_use]
pub fn slot_rel<'a>(anchor_path: &str, vpath: &'a str) -> &'a str {
    if anchor_path == "/" {
        vpath.strip_prefix('/').unwrap_or("")
    } else {
        vpath
            .strip_prefix(anchor_path)
            .map(|r| r.strip_prefix('/').unwrap_or(r))
            .unwrap_or("")
    }
}

/// The anchor (directory whose name is hashed for placement) responsible
/// for the *listing* of directory `path`: `path` itself if it is the root
/// or lies within the distribution levels, otherwise its depth-`level`
/// ancestor. Of a normal path that is a prefix, borrowed.
pub fn anchor_dir_of(path: &str, level: usize) -> Result<Cow<'_, str>, VfsError> {
    let path = normalized(path)?;
    // A path deeper than `level` ends its anchor at its `level + 1`-th
    // slash; the root's anchor is the first slash itself.
    let end = path
        .bytes()
        .enumerate()
        .filter(|&(_, b)| b == b'/')
        .nth(level)
        .map_or(path.len(), |(i, _)| i)
        .max(1);
    Ok(match path {
        Cow::Borrowed(p) => Cow::Borrowed(&p[..end]),
        Cow::Owned(mut p) => {
            p.truncate(end);
            Cow::Owned(p)
        }
    })
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
        assert_eq!(anchor_dir_of("/a/b", 0).unwrap(), "/");
        assert_eq!(anchor_dir_of("//a/./b/c", 2).unwrap(), "/a/b");
        assert!(anchor_dir_of("a/b", 1).is_err());
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
}
