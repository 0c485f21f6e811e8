//! `KoshaMount`: the application-side view of the `/kosha` mount point.
//!
//! In the paper, applications reach Kosha through the kernel's NFS client
//! talking to the koshad loopback server (Figure 4). `KoshaMount` plays
//! the kernel-NFS-client role: it speaks the NFS protocol to the local
//! node's [`kosha_rpc::ServiceId::KoshaFs`] service, caches directory
//! handles exactly as a kernel client caches lookups, and exposes a
//! path-level convenience API that examples and workloads drive.
//!
//! It is the one path walker in the tree. The paper pointed one FreeBSD
//! client at `nfsd` and at koshad (§6.1.1), so what differs between the
//! measured configurations is never the walker: the server is an address
//! ([`KoshaMount::new`] for a koshad, [`KoshaMount::over`] for anything
//! that speaks NFS) and attribute/dentry/data caching is a mount option
//! ([`KoshaMount::cached`]), held by the [`CachingClient`] every call
//! below goes through.

use crate::pathmap::PathMap;
use kosha_nfs::client::ClientDirEntry;
use kosha_nfs::{CacheStats, CachingClient, Fh, NfsClient, NfsError, NfsResult, NfsStatus};
use kosha_rpc::{Bytes, Network, NodeAddr, ServiceId};
use kosha_vfs::path::{components, normalized, parent_and_name};
use kosha_vfs::{Attr, FileType, SetAttr};
use parking_lot::Mutex;
use std::sync::Arc;

/// A mounted view of `/kosha` through one node's koshad.
///
/// ```
/// use kosha::{KoshaConfig, KoshaMount, KoshaNode};
/// use kosha_id::node_id_from_seed;
/// use kosha_rpc::{Network, NodeAddr, SimNetwork};
/// use std::sync::Arc;
///
/// // One-machine deployment for brevity; see the examples/ directory
/// // for multi-node clusters.
/// let net = SimNetwork::new_zero_latency();
/// let (node, mux) = KoshaNode::build(
///     KoshaConfig::for_tests(),
///     node_id_from_seed("doc-host"),
///     NodeAddr(0),
///     net.clone() as Arc<dyn Network>,
/// );
/// net.attach(node.addr(), mux);
/// node.join(None).unwrap();
///
/// let m = KoshaMount::new(net as Arc<dyn Network>, NodeAddr(0), NodeAddr(0)).unwrap();
/// m.mkdir_p("/docs").unwrap();
/// m.write_file("/docs/hello.txt", b"hi").unwrap();
/// assert_eq!(m.read_file("/docs/hello.txt").unwrap(), b"hi");
/// ```
pub struct KoshaMount {
    nfs: CachingClient,
    root: Fh,
    /// Directory-handle cache (the kernel NFS client's dcache analogue).
    dcache: Mutex<PathMap<Fh>>,
    /// Default identity for operations.
    uid: u32,
    /// Default group.
    gid: u32,
    /// Transfer chunk for whole-file helpers.
    chunk: u32,
}

impl KoshaMount {
    /// Mounts the virtual file system exported by the koshad at
    /// `koshad` (normally the caller's own machine — the loopback).
    pub fn new(net: Arc<dyn Network>, client_addr: NodeAddr, koshad: NodeAddr) -> NfsResult<Self> {
        Self::over(
            NfsClient::with_service(net, client_addr, ServiceId::KoshaFs),
            koshad,
        )
    }

    /// Mounts whatever `nfs` reaches at `server`: the koshad loopback
    /// for [`KoshaMount::new`], a plain NFS server for the baseline the
    /// paper measures Kosha against, through this same client (§6.1.1).
    pub fn over(nfs: NfsClient, server: NodeAddr) -> NfsResult<Self> {
        Self::through(CachingClient::plain(nfs, server))
    }

    /// [`KoshaMount::over`] with the kernel client's caches switched on:
    /// attributes and directory entries for 3 s, file data close-to-open
    /// (§4.1.1).
    pub fn cached(nfs: NfsClient, server: NodeAddr) -> NfsResult<Self> {
        Self::through(CachingClient::new(nfs, server))
    }

    fn through(nfs: CachingClient) -> NfsResult<Self> {
        let root = nfs.mount()?;
        Ok(KoshaMount {
            nfs,
            root,
            dcache: Mutex::new(PathMap::default()),
            uid: 0,
            gid: 0,
            chunk: 32 * 1024,
        })
    }

    /// Sets the identity used for subsequent creations.
    pub fn set_identity(&mut self, uid: u32, gid: u32) {
        self.uid = uid;
        self.gid = gid;
    }

    /// The virtual root handle.
    #[must_use]
    pub fn root(&self) -> Fh {
        self.root
    }

    /// Hit and miss counts of the client's caches (all zero unless the
    /// mount is [`KoshaMount::cached`]).
    #[must_use]
    pub fn cache_stats(&self) -> &CacheStats {
        self.nfs.stats()
    }

    fn cached_dir(&self, path: &str) -> Option<Fh> {
        self.dcache.lock().get(path).copied()
    }

    fn cache_dir(&self, path: &str, fh: Fh) {
        self.dcache.lock().insert(path, fh);
    }

    fn drop_cache_subtree(&self, path: &str) {
        self.dcache.lock().remove_subtree(path, |_, _| ());
    }

    /// Resolves a directory path to its (virtual) handle, caching
    /// intermediate directories like a kernel NFS client.
    pub fn dir_handle(&self, path: &str) -> NfsResult<Fh> {
        let path = normalized(path).map_err(|e| NfsError::Status(e.into()))?;
        if path == "/" {
            return Ok(self.root);
        }
        if let Some(fh) = self.cached_dir(&path) {
            return Ok(fh);
        }
        let mut cur = self.root;
        let mut cur_path = String::new();
        for c in components(&path) {
            cur_path.push('/');
            cur_path.push_str(c);
            cur = match self.cached_dir(&cur_path) {
                Some(fh) => fh,
                None => {
                    let (fh, attr) = self.nfs.lookup(cur, c)?;
                    if attr.ftype != FileType::Directory {
                        return Err(NfsError::Status(NfsStatus::NotDir));
                    }
                    self.cache_dir(&cur_path, fh);
                    fh
                }
            };
        }
        Ok(cur)
    }

    /// LOOKUP of an arbitrary path, returning `(handle, attributes)`.
    pub fn stat(&self, path: &str) -> NfsResult<(Fh, Attr)> {
        let path = normalized(path).map_err(|e| NfsError::Status(e.into()))?;
        if path == "/" {
            let attr = self.nfs.getattr(self.root)?;
            return Ok((self.root, attr));
        }
        let (pp, name) = parent_and_name(&path).ok_or(NfsError::Status(NfsStatus::Inval))?;
        let dir = self.dir_handle(pp)?;
        self.nfs.lookup(dir, name)
    }

    /// True if the path resolves.
    #[must_use]
    pub fn exists(&self, path: &str) -> bool {
        self.stat(path).is_ok()
    }

    /// Creates a directory (parents must exist).
    pub fn mkdir(&self, path: &str) -> NfsResult<Fh> {
        let path = normalized(path).map_err(|e| NfsError::Status(e.into()))?;
        let (pp, name) = parent_and_name(&path).ok_or(NfsError::Status(NfsStatus::Inval))?;
        let dir = self.dir_handle(pp)?;
        let (fh, _) = self.nfs.mkdir(dir, name, 0o755, self.uid, self.gid)?;
        self.cache_dir(&path, fh);
        Ok(fh)
    }

    /// Creates a directory and any missing ancestors.
    pub fn mkdir_p(&self, path: &str) -> NfsResult<Fh> {
        let path = normalized(path).map_err(|e| NfsError::Status(e.into()))?;
        if path == "/" {
            return Ok(self.root);
        }
        let mut cur = self.root;
        let mut cur_path = String::new();
        for c in components(&path) {
            cur_path.push('/');
            cur_path.push_str(c);
            cur = match self.nfs.lookup(cur, c) {
                Ok((fh, attr)) => {
                    if attr.ftype != FileType::Directory {
                        return Err(NfsError::Status(NfsStatus::NotDir));
                    }
                    fh
                }
                Err(NfsError::Status(NfsStatus::NoEnt)) => {
                    self.nfs.mkdir(cur, c, 0o755, self.uid, self.gid)?.0
                }
                Err(e) => return Err(e),
            };
            self.cache_dir(&cur_path, cur);
        }
        Ok(cur)
    }

    /// Creates an empty file (parents must exist), returning its handle.
    pub fn create(&self, path: &str) -> NfsResult<Fh> {
        let path = normalized(path).map_err(|e| NfsError::Status(e.into()))?;
        let (pp, name) = parent_and_name(&path).ok_or(NfsError::Status(NfsStatus::Inval))?;
        let dir = self.dir_handle(pp)?;
        Ok(self.nfs.create(dir, name, 0o644, self.uid, self.gid)?.0)
    }

    /// Writes `data` into an existing file at `offset` (one WRITE per
    /// chunk, like an appending NFS client).
    pub fn write_at(&self, path: &str, offset: u64, data: &[u8]) -> NfsResult<()> {
        let (fh, _) = self.stat(path)?;
        self.write_chunks(fh, offset, data)
    }

    fn write_chunks(&self, fh: Fh, offset: u64, data: &[u8]) -> NfsResult<()> {
        let mut at = offset;
        for piece in data.chunks(self.chunk as usize) {
            self.nfs.write(fh, at, piece)?;
            at += piece.len() as u64;
        }
        Ok(())
    }

    /// Writes an entire file (creating it if missing), chunked like an
    /// NFS client. Creation is attempted first — the common case when
    /// populating a tree — falling back to truncate-and-rewrite when the
    /// file already exists.
    pub fn write_file(&self, path: &str, data: &[u8]) -> NfsResult<Fh> {
        let fh = match self.create(path) {
            Ok(fh) => fh,
            Err(NfsError::Status(NfsStatus::Exist)) => {
                let (fh, attr) = self.stat(path)?;
                if attr.ftype != FileType::Regular {
                    return Err(NfsError::Status(NfsStatus::IsDir));
                }
                if attr.size > 0 {
                    self.nfs.setattr(
                        fh,
                        SetAttr {
                            size: Some(0),
                            ..Default::default()
                        },
                    )?;
                }
                fh
            }
            Err(e) => return Err(e),
        };
        self.write_chunks(fh, 0, data)?;
        Ok(fh)
    }

    /// Reads an entire file. A file that fits one transfer chunk comes
    /// back as the view of the reply frame it arrived in.
    pub fn read_file(&self, path: &str) -> NfsResult<Bytes> {
        let (fh, attr) = self.stat(path)?;
        if attr.ftype != FileType::Regular {
            return Err(NfsError::Status(NfsStatus::IsDir));
        }
        self.nfs.read_whole(fh, &attr, self.chunk)
    }

    /// Lists a directory.
    pub fn readdir(&self, path: &str) -> NfsResult<Vec<ClientDirEntry>> {
        let dir = self.dir_handle(path)?;
        self.nfs.readdir(dir)
    }

    /// Removes a file or symlink.
    pub fn remove(&self, path: &str) -> NfsResult<()> {
        let path = normalized(path).map_err(|e| NfsError::Status(e.into()))?;
        let (pp, name) = parent_and_name(&path).ok_or(NfsError::Status(NfsStatus::Inval))?;
        let dir = self.dir_handle(pp)?;
        self.nfs.remove(dir, name)?;
        self.drop_cache_subtree(&path);
        Ok(())
    }

    /// Removes an empty directory.
    pub fn rmdir(&self, path: &str) -> NfsResult<()> {
        let path = normalized(path).map_err(|e| NfsError::Status(e.into()))?;
        let (pp, name) = parent_and_name(&path).ok_or(NfsError::Status(NfsStatus::Inval))?;
        let dir = self.dir_handle(pp)?;
        self.nfs.rmdir(dir, name)?;
        self.drop_cache_subtree(&path);
        Ok(())
    }

    /// Recursively removes a subtree.
    pub fn remove_tree(&self, path: &str) -> NfsResult<()> {
        let path = normalized(path).map_err(|e| NfsError::Status(e.into()))?;
        let (pp, name) = parent_and_name(&path).ok_or(NfsError::Status(NfsStatus::Inval))?;
        let dir = self.dir_handle(pp)?;
        self.nfs.remove_tree(dir, name)?;
        self.drop_cache_subtree(&path);
        Ok(())
    }

    /// Renames a file or directory.
    pub fn rename(&self, from: &str, to: &str) -> NfsResult<()> {
        let from = normalized(from).map_err(|e| NfsError::Status(e.into()))?;
        let to = normalized(to).map_err(|e| NfsError::Status(e.into()))?;
        let (fp, fname) = parent_and_name(&from).ok_or(NfsError::Status(NfsStatus::Inval))?;
        let (tp, tname) = parent_and_name(&to).ok_or(NfsError::Status(NfsStatus::Inval))?;
        let sdir = self.dir_handle(fp)?;
        let ddir = self.dir_handle(tp)?;
        self.nfs.rename(sdir, fname, ddir, tname)?;
        self.drop_cache_subtree(&from);
        self.drop_cache_subtree(&to);
        Ok(())
    }

    /// Creates a symlink.
    pub fn symlink(&self, path: &str, target: &str) -> NfsResult<Fh> {
        let path = normalized(path).map_err(|e| NfsError::Status(e.into()))?;
        let (pp, name) = parent_and_name(&path).ok_or(NfsError::Status(NfsStatus::Inval))?;
        let dir = self.dir_handle(pp)?;
        Ok(self
            .nfs
            .symlink(dir, name, target, 0o777, self.uid, self.gid)?
            .0)
    }

    /// Reads a symlink target.
    pub fn readlink(&self, path: &str) -> NfsResult<String> {
        let (fh, _) = self.stat(path)?;
        self.nfs.readlink(fh)
    }

    /// Updates attributes.
    pub fn setattr(&self, path: &str, sattr: SetAttr) -> NfsResult<Attr> {
        let (fh, _) = self.stat(path)?;
        self.nfs.setattr(fh, sattr)
    }

    /// COMMIT (fsync) on `path`: forces the primary to flush any queued
    /// write-behind replication for the file before returning. A cheap
    /// no-op under synchronous replication.
    pub fn commit(&self, path: &str) -> NfsResult<()> {
        let (fh, _) = self.stat(path)?;
        self.nfs.commit(fh)
    }

    /// ACCESS check for the mount's identity on `path`.
    pub fn access(&self, path: &str, want: u32) -> NfsResult<u32> {
        let (fh, _) = self.stat(path)?;
        self.nfs.access(fh, self.uid, self.gid, want)
    }

    /// Aggregate `(capacity, used, free)` of the visible storage pool.
    pub fn fsstat(&self) -> NfsResult<(u64, u64, u64)> {
        self.nfs.fsstat()
    }
}
