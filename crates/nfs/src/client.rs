//! Typed blocking NFS client.
//!
//! `koshad` acts "as if it is an NFS client of R" toward every storage
//! node R (Section 4.1.3). This client is that building block: every
//! method takes the target server's address, so one client instance serves
//! both the local loopback store and any remote node.

use crate::messages::{Fh, NfsError, NfsReply, NfsReplyFrame, NfsRequest, NfsResult, WireSetAttr};
use kosha_obs::{Counter, Histogram, Obs};
use kosha_rpc::{Bytes, Clock, Network, NodeAddr, RpcRequest, ServiceId};
use kosha_vfs::{Attr, SetAttr};
use std::sync::Arc;

/// Pre-resolved per-procedure client metrics (one latency histogram per
/// NFS procedure, plus a transport-error counter).
struct ProcMetrics {
    latency: Vec<Arc<Histogram>>,
    errors: Arc<Counter>,
}

impl ProcMetrics {
    fn new(obs: &Obs) -> Self {
        ProcMetrics {
            latency: NfsRequest::PROC_NAMES
                .iter()
                .map(|p| {
                    let name = format!("nfs_client_latency_nanos{{proc=\"{p}\"}}");
                    let h = obs.registry.histogram(&name);
                    // Tail latency per procedure as a recorder series.
                    obs.recorder
                        .watch_histogram_pct(&format!("{name}:p99"), &h, 99);
                    h
                })
                .collect(),
            errors: obs.registry.counter("nfs_client_rpc_errors_total"),
        }
    }
}

/// A directory entry as seen by clients.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClientDirEntry {
    /// Entry name.
    pub name: String,
    /// Entry handle on the serving node.
    pub fh: Fh,
    /// Entry type.
    pub ftype: kosha_vfs::FileType,
}

/// Blocking NFS client bound to a source address.
#[derive(Clone)]
pub struct NfsClient {
    net: Arc<dyn Network>,
    from: NodeAddr,
    service: ServiceId,
    metrics: Option<Arc<ProcMetrics>>,
    /// When observed, client spans (`nfsc:{proc}`) are recorded here.
    obs: Option<Arc<Obs>>,
}

impl NfsClient {
    /// Creates a client that issues RPCs from `from` against nodes' real
    /// NFS servers ([`ServiceId::Nfs`]).
    pub fn new(net: Arc<dyn Network>, from: NodeAddr) -> Self {
        Self::with_service(net, from, ServiceId::Nfs)
    }

    /// Creates a client speaking the NFS protocol to a different service
    /// — e.g. [`ServiceId::KoshaFs`], the koshad loopback server
    /// exporting the virtual `/kosha` file system.
    pub fn with_service(net: Arc<dyn Network>, from: NodeAddr, service: ServiceId) -> Self {
        NfsClient {
            net,
            from,
            service,
            metrics: None,
            obs: None,
        }
    }

    /// Enables per-procedure latency metrics
    /// (`nfs_client_latency_nanos{proc=...}`, measured on the transport
    /// clock) and client-side trace spans (`nfsc:{proc}`), both recorded
    /// into `obs`. Chainable after either constructor.
    #[must_use]
    pub fn observed(mut self, obs: &Arc<Obs>) -> Self {
        self.metrics = Some(Arc::new(ProcMetrics::new(obs)));
        self.obs = Some(Arc::clone(obs));
        self
    }

    /// The address RPCs are issued from.
    #[must_use]
    pub fn from_addr(&self) -> NodeAddr {
        self.from
    }

    /// The transport's clock, which a cache over this client ages its
    /// entries by.
    #[must_use]
    pub fn clock(&self) -> Arc<dyn Clock> {
        self.net.clock()
    }

    fn call(&self, to: NodeAddr, req: &NfsRequest) -> NfsResult<NfsReply> {
        match &self.obs {
            None => self.call_inner(to, req),
            Some(obs) => {
                let clock = self.net.clock();
                obs.tracer.child(
                    || format!("nfsc:{}", req.proc_name()),
                    self.from.0,
                    || clock.now().0,
                    || self.call_inner(to, req),
                )
            }
        }
    }

    fn call_inner(&self, to: NodeAddr, req: &NfsRequest) -> NfsResult<NfsReply> {
        let rpc = RpcRequest::split(self.service, req);
        let resp = match &self.metrics {
            None => self.net.call(self.from, to, rpc)?,
            Some(m) => {
                let clock = self.net.clock();
                let t0 = clock.now();
                let result = self.net.call(self.from, to, rpc);
                m.latency[req.proc_index()].record(clock.now().since_nanos(t0));
                if result.is_err() {
                    m.errors.inc();
                }
                result?
            }
        };
        let frame: NfsReplyFrame = resp.decode()?;
        frame.0.map_err(NfsError::Status)
    }

    fn unexpected<T>() -> NfsResult<T> {
        Err(NfsError::Rpc(kosha_rpc::RpcError::Remote(
            "unexpected reply variant".into(),
        )))
    }

    /// NULL: liveness probe.
    pub fn null(&self, to: NodeAddr) -> NfsResult<()> {
        match self.call(to, &NfsRequest::Null)? {
            NfsReply::Void => Ok(()),
            _ => Self::unexpected(),
        }
    }

    /// MOUNT-lite: fetch the export's root handle.
    pub fn mount(&self, to: NodeAddr) -> NfsResult<Fh> {
        match self.call(to, &NfsRequest::Mount)? {
            NfsReply::Root { fh } => Ok(fh),
            _ => Self::unexpected(),
        }
    }

    /// GETATTR.
    pub fn getattr(&self, to: NodeAddr, fh: Fh) -> NfsResult<Attr> {
        match self.call(to, &NfsRequest::Getattr { fh })? {
            NfsReply::Attr { attr } => Ok(attr.0),
            _ => Self::unexpected(),
        }
    }

    /// SETATTR.
    pub fn setattr(&self, to: NodeAddr, fh: Fh, sattr: SetAttr) -> NfsResult<Attr> {
        match self.call(
            to,
            &NfsRequest::Setattr {
                fh,
                sattr: WireSetAttr(sattr),
            },
        )? {
            NfsReply::Attr { attr } => Ok(attr.0),
            _ => Self::unexpected(),
        }
    }

    /// LOOKUP one component under `dir`.
    pub fn lookup(&self, to: NodeAddr, dir: Fh, name: &str) -> NfsResult<(Fh, Attr)> {
        match self.call(
            to,
            &NfsRequest::Lookup {
                dir,
                name: name.into(),
            },
        )? {
            NfsReply::Handle { fh, attr } => Ok((fh, attr.0)),
            _ => Self::unexpected(),
        }
    }

    /// READLINK.
    pub fn readlink(&self, to: NodeAddr, fh: Fh) -> NfsResult<String> {
        match self.call(to, &NfsRequest::Readlink { fh })? {
            NfsReply::Target { target } => Ok(target),
            _ => Self::unexpected(),
        }
    }

    /// READ. The data is a view of the reply frame, not a copy of it.
    pub fn read(&self, to: NodeAddr, fh: Fh, offset: u64, count: u32) -> NfsResult<(Bytes, bool)> {
        match self.call(to, &NfsRequest::Read { fh, offset, count })? {
            NfsReply::Data { data, eof } => Ok((data, eof)),
            _ => Self::unexpected(),
        }
    }

    /// Reads a whole file of (about) `size` bytes in `chunk`-byte READs.
    /// A file that fits one READ comes back as the view that READ
    /// returned; only a longer one is assembled into a new buffer.
    /// `size` is the server's word (`attr.size`) and only a hint: the
    /// buffer is reserved one chunk beyond what has arrived at most and
    /// grows as data comes, so a wrong or hostile size (or a sparse
    /// terabyte) cannot make the client reserve what it never receives.
    pub fn read_whole(&self, to: NodeAddr, fh: Fh, size: u64, chunk: u32) -> NfsResult<Bytes> {
        let (first, eof) = self.read(to, fh, 0, chunk)?;
        if eof || first.is_empty() {
            return Ok(first);
        }
        let arrived_plus_chunk = first.len().saturating_add(chunk as usize);
        let hint = usize::try_from(size).unwrap_or(usize::MAX);
        let mut out = Vec::with_capacity(hint.min(arrived_plus_chunk));
        out.extend_from_slice(&first);
        loop {
            let (data, eof) = self.read(to, fh, out.len() as u64, chunk)?;
            out.extend_from_slice(&data);
            if eof || data.is_empty() {
                return Ok(out.into());
            }
        }
    }

    /// WRITE. Copying the caller's slice is where the payload enters the
    /// system; nothing downstream copies it again until a store does.
    pub fn write(&self, to: NodeAddr, fh: Fh, offset: u64, data: &[u8]) -> NfsResult<u32> {
        let data = Bytes::copy_from_slice(data);
        match self.call(to, &NfsRequest::Write { fh, offset, data })? {
            NfsReply::Written { count } => Ok(count),
            _ => Self::unexpected(),
        }
    }

    /// CREATE.
    pub fn create(
        &self,
        to: NodeAddr,
        dir: Fh,
        name: &str,
        mode: u32,
        uid: u32,
        gid: u32,
    ) -> NfsResult<(Fh, Attr)> {
        match self.call(
            to,
            &NfsRequest::Create {
                dir,
                name: name.into(),
                mode,
                uid,
                gid,
            },
        )? {
            NfsReply::Handle { fh, attr } => Ok((fh, attr.0)),
            _ => Self::unexpected(),
        }
    }

    /// Extension: CREATE of a quota-charged sparse file (simulations).
    #[allow(clippy::too_many_arguments)] // mirrors the NFS procedure arguments
    pub fn create_sized(
        &self,
        to: NodeAddr,
        dir: Fh,
        name: &str,
        size: u64,
        mode: u32,
        uid: u32,
        gid: u32,
    ) -> NfsResult<(Fh, Attr)> {
        match self.call(
            to,
            &NfsRequest::CreateSized {
                dir,
                name: name.into(),
                size,
                mode,
                uid,
                gid,
            },
        )? {
            NfsReply::Handle { fh, attr } => Ok((fh, attr.0)),
            _ => Self::unexpected(),
        }
    }

    /// MKDIR.
    pub fn mkdir(
        &self,
        to: NodeAddr,
        dir: Fh,
        name: &str,
        mode: u32,
        uid: u32,
        gid: u32,
    ) -> NfsResult<(Fh, Attr)> {
        match self.call(
            to,
            &NfsRequest::Mkdir {
                dir,
                name: name.into(),
                mode,
                uid,
                gid,
            },
        )? {
            NfsReply::Handle { fh, attr } => Ok((fh, attr.0)),
            _ => Self::unexpected(),
        }
    }

    /// SYMLINK.
    #[allow(clippy::too_many_arguments)] // mirrors the NFS procedure arguments
    pub fn symlink(
        &self,
        to: NodeAddr,
        dir: Fh,
        name: &str,
        target: &str,
        mode: u32,
        uid: u32,
        gid: u32,
    ) -> NfsResult<(Fh, Attr)> {
        match self.call(
            to,
            &NfsRequest::Symlink {
                dir,
                name: name.into(),
                target: target.into(),
                mode,
                uid,
                gid,
            },
        )? {
            NfsReply::Handle { fh, attr } => Ok((fh, attr.0)),
            _ => Self::unexpected(),
        }
    }

    /// REMOVE.
    pub fn remove(&self, to: NodeAddr, dir: Fh, name: &str) -> NfsResult<()> {
        match self.call(
            to,
            &NfsRequest::Remove {
                dir,
                name: name.into(),
            },
        )? {
            NfsReply::Void => Ok(()),
            _ => Self::unexpected(),
        }
    }

    /// RMDIR.
    pub fn rmdir(&self, to: NodeAddr, dir: Fh, name: &str) -> NfsResult<()> {
        match self.call(
            to,
            &NfsRequest::Rmdir {
                dir,
                name: name.into(),
            },
        )? {
            NfsReply::Void => Ok(()),
            _ => Self::unexpected(),
        }
    }

    /// Extension: recursive subtree removal.
    pub fn remove_tree(&self, to: NodeAddr, dir: Fh, name: &str) -> NfsResult<()> {
        match self.call(
            to,
            &NfsRequest::RemoveTree {
                dir,
                name: name.into(),
            },
        )? {
            NfsReply::Void => Ok(()),
            _ => Self::unexpected(),
        }
    }

    /// RENAME.
    pub fn rename(
        &self,
        to: NodeAddr,
        sdir: Fh,
        sname: &str,
        ddir: Fh,
        dname: &str,
    ) -> NfsResult<()> {
        match self.call(
            to,
            &NfsRequest::Rename {
                sdir,
                sname: sname.into(),
                ddir,
                dname: dname.into(),
            },
        )? {
            NfsReply::Void => Ok(()),
            _ => Self::unexpected(),
        }
    }

    /// READDIR (READDIRPLUS-style).
    pub fn readdir(&self, to: NodeAddr, dir: Fh) -> NfsResult<Vec<ClientDirEntry>> {
        match self.call(to, &NfsRequest::Readdir { dir })? {
            NfsReply::Entries { entries } => Ok(entries
                .into_iter()
                .map(|e| ClientDirEntry {
                    name: e.name,
                    fh: e.fh,
                    ftype: e.ftype,
                })
                .collect()),
            _ => Self::unexpected(),
        }
    }

    /// ACCESS: which of the requested permission bits the identity
    /// holds on the object.
    pub fn access(&self, to: NodeAddr, fh: Fh, uid: u32, gid: u32, want: u32) -> NfsResult<u32> {
        match self.call(to, &NfsRequest::Access { fh, uid, gid, want })? {
            NfsReply::Granted { granted } => Ok(granted),
            _ => Self::unexpected(),
        }
    }

    /// COMMIT: asks the server to make previously written data durable.
    /// The store server acks immediately (writes are synchronous in this
    /// model); the koshad virtual server treats it as a replication
    /// flush barrier.
    pub fn commit(&self, to: NodeAddr, fh: Fh) -> NfsResult<()> {
        match self.call(to, &NfsRequest::Commit { fh })? {
            NfsReply::Void => Ok(()),
            _ => Self::unexpected(),
        }
    }

    /// FSSTAT: `(capacity, used, free)`.
    pub fn fsstat(&self, to: NodeAddr) -> NfsResult<(u64, u64, u64)> {
        match self.call(to, &NfsRequest::Fsstat)? {
            NfsReply::Stat {
                capacity,
                used,
                free,
            } => Ok((capacity, used, free)),
            _ => Self::unexpected(),
        }
    }

    /// LOOKUPPATH (extension): one compound RPC resolving as many
    /// components of `path` under `dir` as the server holds locally.
    /// The returned prefix may be shorter than the requested path; the
    /// caller inspects the last node to tell a stopped walk (symlink or
    /// other non-directory) from a missing entry.
    pub fn lookup_path_nodes(
        &self,
        to: NodeAddr,
        dir: Fh,
        path: &str,
    ) -> NfsResult<Vec<crate::messages::WirePathNode>> {
        match self.call(
            to,
            &NfsRequest::LookupPath {
                dir,
                path: path.into(),
            },
        )? {
            NfsReply::PathNodes { nodes } => Ok(nodes),
            _ => Self::unexpected(),
        }
    }

    /// Resolves `path` under `root` on a single server. Historically this
    /// walked component-by-component with LOOKUP RPCs (Section 4.1.3:
    /// "Looking up the full path by an NFS client requires a sequence of
    /// lookup RPCs"); it now issues one compound LOOKUPPATH and maps a
    /// short walk back to the status the per-component walk would have
    /// hit: a non-directory mid-path is `NotDir`, a missing child is
    /// `NoEnt`.
    pub fn lookup_path(&self, to: NodeAddr, root: Fh, path: &str) -> NfsResult<(Fh, Attr)> {
        let comps = kosha_vfs::split_path(path).map_err(|e| NfsError::Status(e.into()))?;
        if comps.is_empty() {
            return Ok((root, self.getattr(to, root)?));
        }
        let nodes = self.lookup_path_nodes(to, root, &comps.join("/"))?;
        match nodes.last() {
            Some(last) if nodes.len() == comps.len() => Ok((last.fh, last.attr.0.clone())),
            Some(last) if last.attr.0.ftype == kosha_vfs::FileType::Directory => {
                Err(NfsError::Status(crate::messages::NfsStatus::NoEnt))
            }
            Some(_) => Err(NfsError::Status(crate::messages::NfsStatus::NotDir)),
            None => Err(NfsError::Status(crate::messages::NfsStatus::NoEnt)),
        }
    }

    /// Creates every missing directory along `path` with MKDIR RPCs and
    /// returns the final directory handle — how Kosha materializes "all
    /// the missing ancestor directories in the hierarchy on R"
    /// (Section 4.1.4).
    pub fn mkdir_path(
        &self,
        to: NodeAddr,
        root: Fh,
        path: &str,
        mode: u32,
        uid: u32,
        gid: u32,
    ) -> NfsResult<Fh> {
        let comps = kosha_vfs::split_path(path).map_err(|e| NfsError::Status(e.into()))?;
        let mut fh = root;
        for c in comps {
            fh = match self.lookup(to, fh, c) {
                Ok((next, _)) => next,
                Err(NfsError::Status(crate::messages::NfsStatus::NoEnt)) => {
                    self.mkdir(to, fh, c, mode, uid, gid)?.0
                }
                Err(e) => return Err(e),
            };
        }
        Ok(fh)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::messages::{NfsStatus, ReplyFrame};
    use crate::server::{DiskModel, NfsServer};
    use kosha_rpc::{RpcError, ServiceMux, SimNetwork};
    use kosha_vfs::{FileType, Vfs};

    fn setup() -> (Arc<SimNetwork>, NfsClient, NodeAddr) {
        let net = SimNetwork::new_zero_latency();
        let server_addr = NodeAddr(1);
        let server = NfsServer::new(Vfs::new(1 << 20), net.clock(), DiskModel::zero());
        let mux = Arc::new(ServiceMux::new());
        mux.register(ServiceId::Nfs, server);
        net.attach(server_addr, mux);
        let client = NfsClient::new(net.clone() as Arc<dyn Network>, NodeAddr(100));
        (net, client, server_addr)
    }

    #[test]
    fn full_file_lifecycle_over_the_wire() {
        let (_net, c, s) = setup();
        c.null(s).unwrap();
        let root = c.mount(s).unwrap();
        let (dir, _) = c.mkdir(s, root, "docs", 0o755, 5, 5).unwrap();
        let (fh, attr) = c.create(s, dir, "r.txt", 0o644, 5, 5).unwrap();
        assert_eq!(attr.size, 0);
        assert_eq!(c.write(s, fh, 0, b"abcdef").unwrap(), 6);
        let (data, eof) = c.read(s, fh, 2, 3).unwrap();
        assert_eq!(data, b"cde");
        assert!(!eof);
        let (fh2, a2) = c.lookup_path(s, root, "/docs/r.txt").unwrap();
        assert_eq!(fh2, fh);
        assert_eq!(a2.size, 6);
        c.rename(s, dir, "r.txt", root, "top.txt").unwrap();
        assert!(matches!(
            c.lookup(s, dir, "r.txt"),
            Err(NfsError::Status(NfsStatus::NoEnt))
        ));
        c.remove(s, root, "top.txt").unwrap();
        c.rmdir(s, root, "docs").unwrap();
        let (_, used, _) = c.fsstat(s).unwrap();
        assert_eq!(used, 0);
    }

    #[test]
    fn mkdir_path_builds_missing_ancestors() {
        let (_net, c, s) = setup();
        let root = c.mount(s).unwrap();
        let leaf = c.mkdir_path(s, root, "/a/b/c", 0o755, 0, 0).unwrap();
        let (found, attr) = c.lookup_path(s, root, "/a/b/c").unwrap();
        assert_eq!(found, leaf);
        assert_eq!(attr.ftype, FileType::Directory);
        // Idempotent.
        let again = c.mkdir_path(s, root, "/a/b/c", 0o755, 0, 0).unwrap();
        assert_eq!(again, leaf);
    }

    #[test]
    fn lookup_path_maps_short_walks_to_statuses() {
        let (_net, c, s) = setup();
        let root = c.mount(s).unwrap();
        let dir = c.mkdir_path(s, root, "/a/b", 0o755, 0, 0).unwrap();
        c.create(s, dir, "f", 0o644, 0, 0).unwrap();
        // A file mid-path fails the same way the per-component walk did.
        assert!(matches!(
            c.lookup_path(s, root, "/a/b/f/deeper"),
            Err(NfsError::Status(NfsStatus::NotDir))
        ));
        // A missing child of an existing directory.
        assert!(matches!(
            c.lookup_path(s, root, "/a/missing/x"),
            Err(NfsError::Status(NfsStatus::NoEnt))
        ));
        // The export root resolves to itself.
        let (fh, attr) = c.lookup_path(s, root, "/").unwrap();
        assert_eq!(fh, root);
        assert_eq!(attr.ftype, FileType::Directory);
    }

    #[test]
    fn symlink_protocol_round_trip() {
        let (_net, c, s) = setup();
        let root = c.mount(s).unwrap();
        let (lfh, _) = c
            .symlink(s, root, "sdirm", "sdirm#42", 0o1777, 0, 0)
            .unwrap();
        assert_eq!(c.readlink(s, lfh).unwrap(), "sdirm#42");
        let entries = c.readdir(s, root).unwrap();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].ftype, FileType::Symlink);
    }

    /// A server whose GETATTR claims every file is 2^62 bytes long.
    struct Overstating(Arc<NfsServer>);

    impl kosha_rpc::RpcHandler for Overstating {
        fn handle(&self, from: NodeAddr, body: &[u8]) -> Result<kosha_rpc::RpcResponse, RpcError> {
            let resp = self.0.handle(from, body)?;
            Ok(match resp.decode::<NfsReplyFrame>()? {
                ReplyFrame(Ok(NfsReply::Attr { mut attr })) => {
                    attr.0.size = 1 << 62;
                    kosha_rpc::RpcResponse::new(&ReplyFrame(Ok(NfsReply::Attr { attr })))
                }
                _ => resp,
            })
        }
    }

    #[test]
    fn read_whole_does_not_trust_the_servers_size() {
        let net = SimNetwork::new_zero_latency();
        let s = NodeAddr(1);
        let server = NfsServer::new(Vfs::new(1 << 20), net.clock(), DiskModel::zero());
        let mux = Arc::new(ServiceMux::new());
        mux.register(ServiceId::Nfs, Arc::new(Overstating(server)));
        net.attach(s, mux);
        let c = NfsClient::new(net.clone() as Arc<dyn Network>, NodeAddr(100));
        let root = c.mount(s).unwrap();
        let (fh, _) = c.create(s, root, "f", 0o644, 0, 0).unwrap();
        c.write(s, fh, 0, b"0123456789").unwrap();
        let size = c.getattr(s, fh).unwrap().size;
        assert_eq!(size, 1 << 62);
        // Three READs; `Vec::with_capacity(size)` would panic with
        // "capacity overflow" before the second.
        assert_eq!(c.read_whole(s, fh, size, 4).unwrap(), b"0123456789");
        // An understated size only costs growth.
        assert_eq!(c.read_whole(s, fh, 1, 4).unwrap(), b"0123456789");
    }

    #[test]
    fn dead_server_surfaces_rpc_error() {
        let (net, c, s) = setup();
        net.fail_node(s);
        match c.null(s) {
            Err(NfsError::Rpc(RpcError::Unreachable(a))) => assert_eq!(a, s),
            other => panic!("expected unreachable, got {other:?}"),
        }
    }

    #[test]
    fn remove_tree_extension() {
        let (_net, c, s) = setup();
        let root = c.mount(s).unwrap();
        let leaf = c.mkdir_path(s, root, "/t/x/y", 0o755, 0, 0).unwrap();
        let (fh, _) = c.create(s, leaf, "f", 0o644, 0, 0).unwrap();
        c.write(s, fh, 0, &[0u8; 256]).unwrap();
        c.remove_tree(s, root, "t").unwrap();
        assert!(matches!(
            c.lookup(s, root, "t"),
            Err(NfsError::Status(NfsStatus::NoEnt))
        ));
        let (_, used, _) = c.fsstat(s).unwrap();
        assert_eq!(used, 0);
    }
}
