//! Client-side resolution: mapping virtual paths to `(node, real handle)`
//! locations, following special links, and failing over to replicas.
//!
//! Resolution walks the path component-by-component starting from the
//! virtual root's owner, exactly as koshad issues "a sequence of lookup
//! RPCs" (§4.1.3). A *special link* entry marks a distributed child
//! directory (§3.1/§3.3): the link target — the possibly-salted routing
//! name — is hashed and routed, and the walk continues inside that
//! anchor's materialized subtree ("slot") on the owning node. Results are
//! cached; any RPC failure invalidates the caches touching the dead node
//! and the walk retries — the re-route lands on a leaf-set neighbor that
//! holds a replica, which the `EnsureAnchor` control call promotes to
//! primary (§4.4).

use crate::control::{ControlRequest, KoshaReply, KoshaReplyFrame};
use crate::handles::Location;
use crate::node::KoshaNode;
use crate::paths::{anchor_dir_of, anchor_slot, is_distributed_dir, Area, ROOT_ANCHOR};
use kosha_id::dir_key;
use kosha_nfs::{Fh, NfsError, NfsResult, NfsStatus};
use kosha_pastry::{NodeInfo, OverlayError};
use kosha_rpc::{NodeAddr, RpcError, RpcRequest, ServiceId};
use kosha_vfs::path::parent_and_name;
use kosha_vfs::FileType;
use std::borrow::Cow;

/// Retries a client-side operation makes across failovers and stale
/// handles before it gives up and returns the error it last saw.
pub(crate) const FAILOVER_RETRIES: usize = 4;

/// True if a symlink's mode marks it as a Kosha special link (sticky
/// bit set by [`crate::primary`] when placing links).
#[must_use]
pub fn is_special_link_mode(mode: u32) -> bool {
    mode & 0o1000 != 0
}

pub(crate) fn overlay_to_nfs(e: OverlayError) -> NfsError {
    match e {
        OverlayError::Rpc(r) => NfsError::Rpc(r),
        OverlayError::NoRoute => NfsError::Rpc(RpcError::Remote("no overlay route".into())),
    }
}

impl KoshaNode {
    /// Routes a routing name to its current owner.
    pub(crate) fn owner_of(&self, routing_name: &str) -> NfsResult<NodeInfo> {
        self.pastry
            .route_owner(dir_key(routing_name))
            .map_err(overlay_to_nfs)
    }

    /// Sends a control request to another koshad (or ourselves, over the
    /// loopback).
    pub(crate) fn control(&self, to: NodeAddr, req: &ControlRequest) -> NfsResult<KoshaReply> {
        let resp = self
            .net
            .call(self.info.addr, to, RpcRequest::split(ServiceId::Kosha, req))
            .map_err(NfsError::Rpc)?;
        let frame: KoshaReplyFrame = resp.decode().map_err(NfsError::Rpc)?;
        frame.0.map_err(NfsError::Status)
    }

    /// Reacts to an observed node failure: informs the overlay and drops
    /// every cached mapping through the dead node (§4.4: "Kosha detects
    /// an RPC error and removes the mapping for the virtual handle").
    pub(crate) fn fail_over(&self, addr: NodeAddr) {
        self.stats.failovers.inc();
        self.journal(
            "failover",
            format!("{addr} unreachable; rebinding cached locations"),
        );
        self.pastry.note_failed(addr);
        let mut c = self.client.lock();
        c.root_cache.remove(&addr);
        c.read_latency.remove(&addr);
        c.handles.clear_node(addr);
    }

    /// Drops all resolution caches: an admin knob for benchmarks that
    /// need a cold resolver. Virtual handles stay valid — their paths
    /// re-resolve on next use.
    pub fn flush_caches(&self) {
        let mut c = self.client.lock();
        c.root_cache.clear();
        c.handles.clear_all();
    }

    /// Retry wrapper implementing transparent fault handling for an op on
    /// `vpath` (§4.4): on an unreachable node, fail over and re-run; on a
    /// stale handle, which a node answers for what it no longer holds,
    /// drop the cached locations on `vpath`'s chain (the path, its
    /// ancestors and its descendants) and re-run. Every other answer,
    /// `NoEnt` included, is the op's.
    pub(crate) fn with_retry<T>(
        &self,
        vpath: &str,
        mut f: impl FnMut(&Self) -> NfsResult<T>,
    ) -> NfsResult<T> {
        let mut budget = FAILOVER_RETRIES;
        self.retry_within(vpath, &mut budget, |s, _| f(s))
    }

    /// [`Self::with_retry`] on a `budget` that `f` spends too: a walk's
    /// retries of its own parents share one.
    fn retry_within<T>(
        &self,
        vpath: &str,
        budget: &mut usize,
        mut f: impl FnMut(&Self, &mut usize) -> NfsResult<T>,
    ) -> NfsResult<T> {
        loop {
            match f(self, budget) {
                Err(NfsError::Rpc(RpcError::Unreachable(a))) if *budget > 0 => {
                    *budget -= 1;
                    self.fail_over(a);
                }
                Err(NfsError::Status(NfsStatus::Stale)) if *budget > 0 => {
                    *budget -= 1;
                    self.client.lock().handles.clear_chain(vpath);
                }
                r => return r,
            }
        }
    }

    /// The handle of a node's `/kosha_store` export root, cached.
    pub(crate) fn store_root(&self, addr: NodeAddr) -> NfsResult<Fh> {
        if let Some(&fh) = self.client.lock().root_cache.get(&addr) {
            return Ok(fh);
        }
        let root = self.nfs.mount(addr)?;
        let (fh, _) = self.nfs.lookup(addr, root, Area::Store.dir_name())?;
        self.client.lock().root_cache.insert(addr, fh);
        Ok(fh)
    }

    /// Locates the slot root of `anchor_path` on `owner`, asking the
    /// owner to promote (or, for the virtual root, create) it if its
    /// store lacks it; the owner's answer is the slot root.
    pub(crate) fn locate_anchor(
        &self,
        owner: NodeAddr,
        anchor_path: &str,
        routing: &str,
    ) -> NfsResult<Fh> {
        let slot = anchor_slot(anchor_path);
        let root = self.store_root(owner)?;
        match self.nfs.lookup(owner, root, &slot) {
            Ok((fh, attr)) if attr.ftype == FileType::Directory => return Ok(fh),
            Ok(_) => return Err(NfsError::Status(NfsStatus::NotDir)),
            Err(NfsError::Status(NfsStatus::NoEnt)) => {}
            Err(e) => {
                // A stale export root is a purged store: the retry
                // fetches the new one.
                if matches!(e, NfsError::Status(NfsStatus::Stale)) {
                    self.client.lock().root_cache.remove(&owner);
                }
                return Err(e);
            }
        }
        // Absent: ask the owner to promote from its replica area (§4.4)
        // or, for the root anchor, to create it empty.
        let ensure = ControlRequest::EnsureAnchor {
            path: anchor_path.to_string(),
            routing: routing.to_string(),
        };
        let (fh, _) = crate::ops::made(self.control(owner, &ensure)?)?;
        Ok(fh)
    }

    /// Resolves the authoritative listing of directory `vpath` to a
    /// location, walking from the root owner and following special links.
    pub(crate) fn resolve_dir(&self, vpath: &str) -> NfsResult<Location> {
        let mut budget = FAILOVER_RETRIES;
        self.resolve_dir_budget(vpath, &mut budget)
    }

    fn resolve_dir_budget(&self, vpath: &str, budget: &mut usize) -> NfsResult<Location> {
        self.retry_within(vpath, budget, |s, b| s.resolve_dir_once(vpath, b))
    }

    fn resolve_dir_once(&self, vpath: &str, budget: &mut usize) -> NfsResult<Location> {
        if let Some(l) = self.client.lock().handles.dir_location(vpath) {
            return Ok(l);
        }
        if vpath == "/" {
            return self.resolve_root();
        }
        if self.cfg.compound_lookup {
            self.resolve_dir_compound(vpath, budget)
        } else {
            self.resolve_dir_per_component(vpath, budget)
        }
    }

    /// Resolves the virtual root's listing location.
    fn resolve_root(&self) -> NfsResult<Location> {
        let addr = self.owner_of(ROOT_ANCHOR)?.addr;
        let fh = self.locate_anchor(addr, "/", ROOT_ANCHOR)?;
        Ok(self.cache_dir("/", Location { addr, fh }))
    }

    /// Caches the listing a walk found for directory `vpath`.
    fn cache_dir(&self, vpath: &str, loc: Location) -> Location {
        let mut c = self.client.lock();
        c.handles.set_location(vpath, FileType::Directory, loc);
        loc
    }

    /// The original NFSv3-style walk: recurse to the parent, LOOKUP one
    /// component, follow a special link if it marks a distributed child.
    /// Kept as the [`crate::config::KoshaConfig::compound_lookup`] `=
    /// false` baseline.
    fn resolve_dir_per_component(&self, vpath: &str, budget: &mut usize) -> NfsResult<Location> {
        let (ppath, name) = parent_and_name(vpath).ok_or(NfsError::Status(NfsStatus::Inval))?;
        let name = name.to_string();
        let parent = self.resolve_dir_budget(ppath, budget)?;
        let (fh, attr) = self.nfs.lookup(parent.addr, parent.fh, &name)?;
        let addr = parent.addr;
        let loc = match attr.ftype {
            FileType::Directory => Location { addr, fh },
            FileType::Symlink
                if is_special_link_mode(attr.mode)
                    && is_distributed_dir(vpath, self.cfg.distribution_level) =>
            {
                let target = self.nfs.readlink(addr, fh)?;
                let addr = self.owner_of(&target)?.addr;
                let fh = self.locate_anchor(addr, vpath, &target)?;
                Location { addr, fh }
            }
            _ => return Err(NfsError::Status(NfsStatus::NotDir)),
        };
        Ok(self.cache_dir(vpath, loc))
    }

    /// Compound walk: one LOOKUPPATH RPC per *server* along the path
    /// instead of one LOOKUP per component. Each server resolves as many
    /// components as its store holds; the walk hops to the next server
    /// when it ends on a special link (whose target the server piggybacks
    /// in the reply), and every resolved directory is cached exactly as
    /// the per-component walk would have cached it.
    fn resolve_dir_compound(&self, vpath: &str, budget: &mut usize) -> NfsResult<Location> {
        // Start from the deepest cached ancestor (the root at worst).
        let mut done = "/";
        let mut start = None;
        {
            let c = self.client.lock();
            let mut p = vpath;
            while let Some((pp, _)) = parent_and_name(p) {
                if let Some(l) = c.handles.dir_location(pp) {
                    done = pp;
                    start = Some(l);
                    break;
                }
                p = pp;
            }
        }
        let mut done = done.to_string();
        let mut cur = match start {
            Some(l) => l,
            None => self.resolve_dir_budget("/", budget)?,
        };
        loop {
            let remaining = if done == "/" {
                &vpath[1..]
            } else {
                &vpath[done.len() + 1..]
            };
            let nodes = self.nfs.lookup_path_nodes(cur.addr, cur.fh, remaining)?;
            let comps: Vec<&str> = remaining.split('/').collect();
            let mut hopped = false;
            for (node, name) in nodes.iter().zip(&comps) {
                let child = if done == "/" {
                    format!("/{name}")
                } else {
                    format!("{done}/{name}")
                };
                match node.attr.0.ftype {
                    FileType::Directory => {
                        let (addr, fh) = (cur.addr, node.fh);
                        cur = self.cache_dir(&child, Location { addr, fh });
                        done = child;
                    }
                    FileType::Symlink
                        if is_special_link_mode(node.attr.0.mode)
                            && is_distributed_dir(&child, self.cfg.distribution_level) =>
                    {
                        let target = match &node.link_target {
                            Some(t) => t.clone(),
                            None => self.nfs.readlink(cur.addr, node.fh)?,
                        };
                        let addr = self.owner_of(&target)?.addr;
                        let fh = self.locate_anchor(addr, &child, &target)?;
                        cur = self.cache_dir(&child, Location { addr, fh });
                        done = child;
                        hopped = true;
                        break; // resume the walk on the anchor's owner
                    }
                    _ => return Err(NfsError::Status(NfsStatus::NotDir)),
                }
            }
            if done == vpath {
                return Ok(cur);
            }
            if !hopped {
                // The server's walk ended below the requested depth on a
                // directory whose child it does not hold: missing entry.
                return Err(NfsError::Status(NfsStatus::NoEnt));
            }
        }
    }

    /// Resolves an arbitrary object (file, user symlink, or directory) to
    /// its location and attributes. Directories resolve to their
    /// authoritative listing (following special links).
    pub(crate) fn resolve_object(&self, vpath: &str) -> NfsResult<(Location, kosha_vfs::Attr)> {
        let listing = || {
            let loc = self.resolve_dir(vpath)?;
            Ok((loc, self.nfs.getattr(loc.addr, loc.fh)?))
        };
        if vpath == "/" {
            return listing();
        }
        let (ppath, name) = parent_and_name(vpath).ok_or(NfsError::Status(NfsStatus::Inval))?;
        let name = name.to_string();
        let parent = self.resolve_dir(ppath)?;
        let (efh, attr) = self.nfs.lookup(parent.addr, parent.fh, &name)?;
        if attr.ftype == FileType::Directory
            || (attr.ftype == FileType::Symlink
                && is_special_link_mode(attr.mode)
                && is_distributed_dir(vpath, self.cfg.distribution_level))
        {
            return listing();
        }
        let addr = parent.addr;
        Ok((Location { addr, fh: efh }, attr))
    }

    /// The covering anchor of a path: the anchor whose slot holds its
    /// listing/entry.
    pub(crate) fn covering_anchor<'a>(&self, vpath: &'a str) -> Cow<'a, str> {
        anchor_dir_of(vpath, self.cfg.distribution_level).unwrap_or(Cow::Borrowed("/"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::KoshaConfig;
    use kosha_id::node_id_from_seed;
    use kosha_rpc::{Network, SimNetwork};
    use std::sync::Arc;

    fn solo_node() -> Arc<KoshaNode> {
        let net = SimNetwork::new_zero_latency();
        let (node, mux) = KoshaNode::build(
            KoshaConfig::for_tests(),
            node_id_from_seed("resolve-tests"),
            NodeAddr(0),
            net.clone() as Arc<dyn Network>,
        );
        net.attach(node.addr(), mux);
        node.join(None).unwrap();
        node
    }

    fn fake_loc(n: u64) -> Location {
        Location {
            addr: NodeAddr(n),
            fh: Fh { ino: n, gen: 1 },
        }
    }

    #[test]
    fn invalidate_dir_subtree_is_prefix_exact() {
        let node = solo_node();
        let mut c = node.client.lock();
        for p in ["/a", "/a/x", "/ab", "/ab/y", "/b"] {
            c.handles.set_location(p, FileType::Directory, fake_loc(7));
        }
        c.handles.forget_subtree("/a");
        assert_eq!(c.handles.dir_location("/a"), None);
        assert_eq!(c.handles.dir_location("/a/x"), None);
        for kept in ["/ab", "/ab/y", "/b"] {
            assert!(
                c.handles.dir_location(kept).is_some(),
                "{kept} swept up with /a"
            );
        }
    }

    #[test]
    fn an_unreachable_node_is_retried_until_the_budget_is_spent() {
        let node = solo_node();
        let mut attempts = 0;
        let err = node
            .with_retry("/a/f", |_| {
                attempts += 1;
                Err::<(), _>(NfsError::Rpc(RpcError::Unreachable(NodeAddr(9))))
            })
            .unwrap_err();
        assert_eq!(attempts, FAILOVER_RETRIES + 1);
        assert!(
            matches!(err, NfsError::Rpc(RpcError::Unreachable(NodeAddr(9)))),
            "{err:?}"
        );
        assert_eq!(node.stats().failovers, FAILOVER_RETRIES as u64);
    }

    #[test]
    fn invalidate_chain_spares_unrelated_handles() {
        let node = solo_node();
        let (on_chain, off_chain, prefix_trap);
        {
            let mut c = node.client.lock();
            for p in ["/", "/a", "/a/b", "/ab"] {
                c.handles.set_location(p, FileType::Directory, fake_loc(7));
            }
            [on_chain, off_chain, prefix_trap] = ["/a/b/f", "/other/g", "/a/bc"].map(|p| {
                c.handles.set_location(p, FileType::Regular, fake_loc(9));
                c.handles.mint(p, FileType::Regular)
            });
        }
        // A `Stale` for `/a/b` distrusts its chain before each retry.
        let stale = || Err::<(), _>(NfsError::Status(NfsStatus::Stale));
        assert!(node.with_retry("/a/b", |_| stale()).is_err());
        let c = node.client.lock();
        // Directory listings: the chain is dropped, the /ab sibling stays.
        for gone in ["/", "/a", "/a/b"] {
            assert_eq!(c.handles.dir_location(gone), None, "{gone}");
        }
        assert_eq!(c.handles.dir_location("/ab"), Some(fake_loc(7)));
        // Handles: only locations on the invalidated chain are dropped.
        let loc = |fh| c.handles.get(fh).unwrap().1.loc;
        assert_eq!(loc(on_chain), None);
        assert_eq!(loc(off_chain), Some(fake_loc(9)));
        assert_eq!(loc(prefix_trap), Some(fake_loc(9)));
    }
}
