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

use crate::control::{KoshaReply, KoshaReplyFrame, KoshaRequest};
use crate::handles::{on_chain, Location};
use crate::node::KoshaNode;
use crate::paths::{anchor_dir_of, anchor_slot, is_distributed_dir, Area, ROOT_ANCHOR};
use kosha_id::dir_key;
use kosha_nfs::{Fh, NfsError, NfsResult, NfsStatus};
use kosha_pastry::{NodeInfo, OverlayError};
use kosha_rpc::{NodeAddr, RpcError, RpcRequest, ServiceId};
use kosha_vfs::path::parent_and_name;
use kosha_vfs::FileType;

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
    pub(crate) fn control(&self, to: NodeAddr, req: &KoshaRequest) -> NfsResult<KoshaReply> {
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
        c.dir_cache.retain(|_, l| l.addr != addr);
        c.handles.clear_locations_at(addr);
    }

    /// Drops all resolution caches: the internal reaction to a
    /// stale-handle surprise (e.g. a purged and reincarnated store), and
    /// an admin knob for benchmarks that need a cold resolver. Virtual
    /// handles stay valid — their paths re-resolve on next use.
    pub fn flush_caches(&self) {
        let mut c = self.client.lock();
        c.root_cache.clear();
        c.dir_cache.clear();
        c.handles.clear_locations_everywhere();
    }

    /// Retry wrapper implementing transparent fault handling: on an
    /// unreachable node, fail over and re-run; on a stale handle, flush
    /// caches and re-run.
    pub(crate) fn with_retry<T>(&self, mut f: impl FnMut(&Self) -> NfsResult<T>) -> NfsResult<T> {
        let mut attempts = self.cfg.failover_retries;
        loop {
            match f(self) {
                Err(NfsError::Rpc(RpcError::Unreachable(a))) if attempts > 0 => {
                    attempts -= 1;
                    self.fail_over(a);
                }
                Err(NfsError::Status(NfsStatus::Stale)) if attempts > 0 => {
                    attempts -= 1;
                    self.flush_caches();
                }
                r => return r,
            }
        }
    }

    /// Path-scoped retry wrapper: like [`Self::with_retry`], plus a
    /// single scoped retry on `NoEnt`. A cached directory location may
    /// point at a node that *demoted* the covering anchor (migration to
    /// a newcomer, or an interim owner that served during an outage);
    /// that node answers `NoEnt` for paths it no longer authoritatively
    /// hosts. Invalidating just this path's chain and re-resolving finds
    /// the current primary. Genuinely missing paths still report
    /// `NoEnt`, after one extra resolution of this path only — all other
    /// cached state is untouched.
    pub(crate) fn with_path_retry<T>(
        &self,
        vpath: &str,
        mut f: impl FnMut(&Self) -> NfsResult<T>,
    ) -> NfsResult<T> {
        match self.with_retry(&mut f) {
            Err(NfsError::Status(NfsStatus::NoEnt)) => {
                self.invalidate_chain(vpath);
                self.with_retry(f)
            }
            r => r,
        }
    }

    /// Invalidates cached locations for `vpath`, its ancestors, and its
    /// descendants (the resolution chain a migrated anchor poisons).
    /// Handles on unrelated branches keep their cached locations.
    pub(crate) fn invalidate_chain(&self, vpath: &str) {
        let mut c = self.client.lock();
        c.dir_cache.retain(|p, _| !on_chain(p, vpath));
        c.handles.clear_locations_chain(vpath);
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
    /// store lacks it.
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
            Err(e) => return Err(e),
        }
        // Absent: ask the owner to promote from its replica area (§4.4)
        // or, for the root anchor, to create it empty.
        self.control(
            owner,
            &KoshaRequest::EnsureAnchor {
                path: anchor_path.to_string(),
                routing: routing.to_string(),
            },
        )?;
        let (fh, _) = self.nfs.lookup(owner, root, &slot)?;
        Ok(fh)
    }

    /// Resolves the authoritative listing of directory `vpath` to a
    /// location, walking from the root owner and following special links.
    pub(crate) fn resolve_dir(&self, vpath: &str) -> NfsResult<Location> {
        let mut budget = self.cfg.failover_retries;
        self.resolve_dir_budget(vpath, &mut budget)
    }

    pub(crate) fn resolve_dir_budget(
        &self,
        vpath: &str,
        budget: &mut usize,
    ) -> NfsResult<Location> {
        loop {
            match self.resolve_dir_once(vpath, budget) {
                Err(NfsError::Rpc(RpcError::Unreachable(a))) if *budget > 0 => {
                    *budget -= 1;
                    self.fail_over(a);
                }
                Err(NfsError::Status(NfsStatus::Stale)) if *budget > 0 => {
                    *budget -= 1;
                    self.flush_caches();
                }
                r => return r,
            }
        }
    }

    fn resolve_dir_once(&self, vpath: &str, budget: &mut usize) -> NfsResult<Location> {
        if self.cfg.compound_lookup {
            self.resolve_dir_compound(vpath, budget)
        } else {
            self.resolve_dir_per_component(vpath, budget)
        }
    }

    /// Resolves the virtual root's listing location.
    fn resolve_root(&self) -> NfsResult<Location> {
        let owner = self.owner_of(ROOT_ANCHOR)?;
        let fh = self.locate_anchor(owner.addr, "/", ROOT_ANCHOR)?;
        let loc = Location {
            addr: owner.addr,
            fh,
        };
        self.client.lock().dir_cache.insert("/".to_string(), loc);
        Ok(loc)
    }

    /// The original NFSv3-style walk: recurse to the parent, LOOKUP one
    /// component, follow a special link if it marks a distributed child.
    /// Kept as the [`crate::config::KoshaConfig::compound_lookup`] `=
    /// false` baseline.
    fn resolve_dir_per_component(&self, vpath: &str, budget: &mut usize) -> NfsResult<Location> {
        if let Some(l) = self.client.lock().dir_cache.get(vpath) {
            return Ok(*l);
        }
        if vpath == "/" {
            return self.resolve_root();
        }
        let (ppath, name) = parent_and_name(vpath).ok_or(NfsError::Status(NfsStatus::Inval))?;
        let name = name.to_string();
        let parent = self.resolve_dir_budget(ppath, budget)?;
        let (efh, attr) = self.nfs.lookup(parent.addr, parent.fh, &name)?;
        let loc = match attr.ftype {
            FileType::Directory => Location {
                addr: parent.addr,
                fh: efh,
            },
            FileType::Symlink
                if is_special_link_mode(attr.mode)
                    && is_distributed_dir(vpath, self.cfg.distribution_level) =>
            {
                let target = self.nfs.readlink(parent.addr, efh)?;
                let owner = self.owner_of(&target)?;
                let fh = self.locate_anchor(owner.addr, vpath, &target)?;
                Location {
                    addr: owner.addr,
                    fh,
                }
            }
            _ => return Err(NfsError::Status(NfsStatus::NotDir)),
        };
        self.client.lock().dir_cache.insert(vpath.to_string(), loc);
        Ok(loc)
    }

    /// Compound walk: one LOOKUPPATH RPC per *server* along the path
    /// instead of one LOOKUP per component. Each server resolves as many
    /// components as its store holds; the walk hops to the next server
    /// when it ends on a special link (whose target the server piggybacks
    /// in the reply), and every resolved directory is cached exactly as
    /// the per-component walk would have cached it.
    fn resolve_dir_compound(&self, vpath: &str, budget: &mut usize) -> NfsResult<Location> {
        if let Some(l) = self.client.lock().dir_cache.get(vpath) {
            return Ok(*l);
        }
        if vpath == "/" {
            return self.resolve_root();
        }
        // Start from the deepest cached ancestor (the root at worst).
        let mut done = "/";
        let mut start = None;
        {
            let c = self.client.lock();
            let mut p = vpath;
            while let Some((pp, _)) = parent_and_name(p) {
                if let Some(l) = c.dir_cache.get(pp) {
                    done = pp;
                    start = Some(*l);
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
                        let loc = Location {
                            addr: cur.addr,
                            fh: node.fh,
                        };
                        self.client.lock().dir_cache.insert(child.clone(), loc);
                        cur = loc;
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
                        let owner = self.owner_of(&target)?;
                        let fh = self.locate_anchor(owner.addr, &child, &target)?;
                        let loc = Location {
                            addr: owner.addr,
                            fh,
                        };
                        self.client.lock().dir_cache.insert(child.clone(), loc);
                        cur = loc;
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
        if vpath == "/" {
            let loc = self.resolve_dir("/")?;
            let attr = self.nfs.getattr(loc.addr, loc.fh)?;
            return Ok((loc, attr));
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
            let loc = self.resolve_dir(vpath)?;
            let attr = self.nfs.getattr(loc.addr, loc.fh)?;
            return Ok((loc, attr));
        }
        Ok((
            Location {
                addr: parent.addr,
                fh: efh,
            },
            attr,
        ))
    }

    /// Invalidates cached directory locations for `vpath` and everything
    /// beneath it (after renames and removals).
    pub(crate) fn invalidate_dir_subtree(&self, vpath: &str) {
        let prefix = format!("{vpath}/");
        let mut c = self.client.lock();
        c.dir_cache
            .retain(|p, _| p != vpath && !p.starts_with(&prefix));
    }

    /// The covering anchor of a path: the anchor whose slot holds its
    /// listing/entry.
    pub(crate) fn covering_anchor(&self, vpath: &str) -> String {
        anchor_dir_of(vpath, self.cfg.distribution_level).unwrap_or_else(|_| "/".to_string())
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
        {
            let mut c = node.client.lock();
            for p in ["/a", "/a/x", "/ab", "/ab/y", "/b"] {
                c.dir_cache.insert(p.to_string(), fake_loc(7));
            }
        }
        node.invalidate_dir_subtree("/a");
        let c = node.client.lock();
        assert!(!c.dir_cache.contains_key("/a"));
        assert!(!c.dir_cache.contains_key("/a/x"));
        assert!(
            c.dir_cache.contains_key("/ab"),
            "/ab wrongly swept up with /a"
        );
        assert!(c.dir_cache.contains_key("/ab/y"));
        assert!(c.dir_cache.contains_key("/b"));
    }

    #[test]
    fn invalidate_chain_spares_unrelated_handles() {
        let node = solo_node();
        let (on_chain, off_chain, prefix_trap);
        {
            let mut c = node.client.lock();
            for p in ["/", "/a", "/a/b", "/ab"] {
                c.dir_cache.insert(p.to_string(), fake_loc(7));
            }
            on_chain = c.handles.mint("/a/b/f", FileType::Regular);
            off_chain = c.handles.mint("/other/g", FileType::Regular);
            prefix_trap = c.handles.mint("/a/bc", FileType::Regular);
            for fh in [on_chain, off_chain, prefix_trap] {
                c.handles.set_location(fh, fake_loc(9));
            }
        }
        node.invalidate_chain("/a/b");
        let c = node.client.lock();
        // Directory cache: the chain is dropped, the /ab sibling stays.
        assert!(!c.dir_cache.contains_key("/"));
        assert!(!c.dir_cache.contains_key("/a"));
        assert!(!c.dir_cache.contains_key("/a/b"));
        assert!(c.dir_cache.contains_key("/ab"));
        // Handles: only locations on the invalidated chain are dropped.
        assert_eq!(c.handles.get(on_chain).unwrap().loc, None);
        assert_eq!(c.handles.get(off_chain).unwrap().loc, Some(fake_loc(9)));
        assert_eq!(c.handles.get(prefix_trap).unwrap().loc, Some(fake_loc(9)));
    }
}
