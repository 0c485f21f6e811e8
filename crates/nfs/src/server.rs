//! The per-node NFS server: one export backed by one [`Vfs`] store.

use crate::messages::{NfsReply, NfsReplyFrame, NfsRequest, ReplyFrame, WireAttr};
use kosha_obs::{Counter, Obs};
use kosha_rpc::wire::MAX_LEN;
use kosha_rpc::{Bytes, Clock, Frame, NodeAddr, RpcError, RpcHandler, RpcResponse, WireRead};
use kosha_vfs::Vfs;
use parking_lot::Mutex;
use std::sync::Arc;
use std::time::Duration;

/// Disk cost model: the substitute for the testbed's "40 GB 7200 RPM
/// Barracuda Seagate hard disk". Charged to the shared clock for READ and
/// WRITE payloads, plus a small per-metadata-op cost.
#[derive(Debug, Clone)]
pub struct DiskModel {
    /// Sustained transfer rate, bytes/second (~40 MB/s for that drive).
    pub bandwidth_bps: u64,
    /// Cost of one metadata operation (create/remove/rename/…): average
    /// rotational + seek amortized by the FFS cache.
    pub meta_op_cost: Duration,
}

impl Default for DiskModel {
    fn default() -> Self {
        DiskModel {
            bandwidth_bps: 40_000_000,
            meta_op_cost: Duration::from_micros(120),
        }
    }
}

impl DiskModel {
    /// A free disk (logic-only tests).
    #[must_use]
    pub fn zero() -> Self {
        DiskModel {
            bandwidth_bps: u64::MAX,
            meta_op_cost: Duration::ZERO,
        }
    }

    fn transfer(&self, bytes: usize) -> Duration {
        if self.bandwidth_bps == u64::MAX {
            return Duration::ZERO;
        }
        Duration::from_nanos((bytes as u64).saturating_mul(1_000_000_000) / self.bandwidth_bps)
    }
}

/// NFS server exporting a single store. Registered under
/// [`kosha_rpc::ServiceId::Nfs`] on the node's service mux.
pub struct NfsServer {
    vfs: Mutex<Vfs>,
    clock: Arc<dyn Clock>,
    disk: DiskModel,
    /// Per-procedure op counters (`nfs_server_ops_total{proc=...}`),
    /// indexed by [`NfsRequest::proc_index`]. Empty when unobserved.
    ops: Vec<Arc<Counter>>,
    /// When observed, server spans (`nfs:{proc}`) are recorded here,
    /// attributed to `addr`.
    obs: Option<Arc<Obs>>,
    addr: NodeAddr,
}

impl NfsServer {
    /// Creates a server around `vfs`, charging disk costs to `clock`.
    pub fn new(vfs: Vfs, clock: Arc<dyn Clock>, disk: DiskModel) -> Arc<Self> {
        Arc::new(NfsServer {
            vfs: Mutex::new(vfs),
            clock,
            disk,
            ops: Vec::new(),
            obs: None,
            addr: NodeAddr(0),
        })
    }

    /// Like [`NfsServer::new`], but counting every executed procedure
    /// into `obs` as `nfs_server_ops_total{proc=...}` and, when a trace
    /// is active, recording a server span (`nfs:{proc}`) attributed to
    /// the serving node `addr`.
    pub fn new_with_obs(
        vfs: Vfs,
        clock: Arc<dyn Clock>,
        disk: DiskModel,
        obs: &Arc<Obs>,
        addr: NodeAddr,
    ) -> Arc<Self> {
        let ops: Vec<_> = NfsRequest::PROC_NAMES
            .iter()
            .map(|p| {
                let name = format!("nfs_server_ops_total{{proc=\"{p}\"}}");
                let c = obs.registry.counter(&name);
                // Per-procedure rates become flight-recorder series so a
                // sampler can show how the mix evolves, not just totals.
                obs.recorder.watch_counter(&name, &c);
                c
            })
            .collect();
        Arc::new(NfsServer {
            vfs: Mutex::new(vfs),
            clock,
            disk,
            ops,
            obs: Some(Arc::clone(obs)),
            addr,
        })
    }

    /// Direct access to the store, for node-local administration (purging
    /// on reincarnation, seeding test fixtures, inspecting quotas). Not
    /// part of the NFS protocol surface.
    pub fn with_store<R>(&self, f: impl FnOnce(&mut Vfs) -> R) -> R {
        f(&mut self.vfs.lock())
    }

    /// Executes a request locally, bypassing the network but charging the
    /// same disk costs. This is how the co-located `koshad` performs
    /// operations on its own node's store (the paper's koshad and nfsd
    /// share a machine; their interaction is a local RPC).
    pub fn apply(&self, req: NfsRequest) -> Result<NfsReply, crate::messages::NfsStatus> {
        self.execute(req).0
    }

    fn execute(&self, req: NfsRequest) -> NfsReplyFrame {
        match &self.obs {
            None => self.execute_inner(req),
            Some(obs) => {
                let proc = req.proc_name();
                obs.tracer.child(
                    || format!("nfs:{proc}"),
                    self.addr.0,
                    || self.clock.now().0,
                    || self.execute_inner(req),
                )
            }
        }
    }

    fn execute_inner(&self, req: NfsRequest) -> NfsReplyFrame {
        if let Some(c) = self.ops.get(req.proc_index()) {
            c.inc();
        }
        let mut vfs = self.vfs.lock();
        vfs.set_now(self.clock.now().0);
        let disk = &self.disk;
        let result = match req {
            NfsRequest::Null => Ok(NfsReply::Void),
            NfsRequest::Mount => Ok(NfsReply::Root {
                fh: crate::messages::Fh::from_file_id(vfs.root()),
            }),
            NfsRequest::Getattr { fh } => vfs
                .getattr(fh.to_file_id())
                .map(|attr| NfsReply::Attr {
                    attr: WireAttr(attr),
                })
                .map_err(Into::into),
            NfsRequest::Setattr { fh, sattr } => {
                self.clock.advance(disk.meta_op_cost);
                vfs.setattr(fh.to_file_id(), &sattr.0)
                    .map(|attr| NfsReply::Attr {
                        attr: WireAttr(attr),
                    })
                    .map_err(Into::into)
            }
            NfsRequest::Lookup { dir, name } => vfs
                .lookup(dir.to_file_id(), &name)
                .map(|(id, attr)| NfsReply::Handle {
                    fh: crate::messages::Fh::from_file_id(id),
                    attr: WireAttr(attr),
                })
                .map_err(Into::into),
            NfsRequest::Readlink { fh } => vfs
                .readlink(fh.to_file_id())
                .map(|target| NfsReply::Target { target })
                .map_err(Into::into),
            NfsRequest::Read { fh, offset, count } => vfs
                // `count` is the peer's: a sparse file allocates what it
                // reads, and no reply may carry more than the wire's
                // longest field. A short read without EOF is legal NFS.
                .read(fh.to_file_id(), offset, count.min(MAX_LEN as u32))
                .map(|(data, eof)| {
                    self.clock.advance(disk.transfer(data.len()));
                    // A view of the store's buffer is the reply's payload.
                    NfsReply::Data { data, eof }
                })
                .map_err(Into::into),
            NfsRequest::Write { fh, offset, data } => {
                self.clock.advance(disk.transfer(data.len()));
                vfs.write_bytes(fh.to_file_id(), offset, &data)
                    .map(|count| NfsReply::Written { count })
                    .map_err(Into::into)
            }
            NfsRequest::Create {
                dir,
                name,
                mode,
                uid,
                gid,
            } => {
                self.clock.advance(disk.meta_op_cost);
                vfs.create(dir.to_file_id(), &name, mode, uid, gid)
                    .map(|(id, attr)| NfsReply::Handle {
                        fh: crate::messages::Fh::from_file_id(id),
                        attr: WireAttr(attr),
                    })
                    .map_err(Into::into)
            }
            NfsRequest::CreateSized {
                dir,
                name,
                size,
                mode,
                uid,
                gid,
            } => {
                self.clock.advance(disk.meta_op_cost);
                vfs.create_sized(dir.to_file_id(), &name, size, mode, uid, gid)
                    .map(|(id, attr)| NfsReply::Handle {
                        fh: crate::messages::Fh::from_file_id(id),
                        attr: WireAttr(attr),
                    })
                    .map_err(Into::into)
            }
            NfsRequest::Mkdir {
                dir,
                name,
                mode,
                uid,
                gid,
            } => {
                self.clock.advance(disk.meta_op_cost);
                vfs.mkdir(dir.to_file_id(), &name, mode, uid, gid)
                    .map(|(id, attr)| NfsReply::Handle {
                        fh: crate::messages::Fh::from_file_id(id),
                        attr: WireAttr(attr),
                    })
                    .map_err(Into::into)
            }
            NfsRequest::Symlink {
                dir,
                name,
                target,
                mode,
                uid,
                gid,
            } => {
                self.clock.advance(disk.meta_op_cost);
                vfs.symlink(dir.to_file_id(), &name, &target, mode, uid, gid)
                    .map(|(id, attr)| NfsReply::Handle {
                        fh: crate::messages::Fh::from_file_id(id),
                        attr: WireAttr(attr),
                    })
                    .map_err(Into::into)
            }
            NfsRequest::Remove { dir, name } => {
                self.clock.advance(disk.meta_op_cost);
                vfs.remove(dir.to_file_id(), &name)
                    .map(|()| NfsReply::Void)
                    .map_err(Into::into)
            }
            NfsRequest::Rmdir { dir, name } => {
                self.clock.advance(disk.meta_op_cost);
                vfs.rmdir(dir.to_file_id(), &name)
                    .map(|()| NfsReply::Void)
                    .map_err(Into::into)
            }
            NfsRequest::RemoveTree { dir, name } => {
                self.clock.advance(disk.meta_op_cost);
                vfs.remove_tree(dir.to_file_id(), &name)
                    .map(|_| NfsReply::Void)
                    .map_err(Into::into)
            }
            NfsRequest::Rename {
                sdir,
                sname,
                ddir,
                dname,
            } => {
                self.clock.advance(disk.meta_op_cost);
                vfs.rename(sdir.to_file_id(), &sname, ddir.to_file_id(), &dname)
                    .map(|()| NfsReply::Void)
                    .map_err(Into::into)
            }
            NfsRequest::Readdir { dir } => vfs
                .readdir(dir.to_file_id())
                .map(|entries| NfsReply::Entries {
                    entries: entries.into_iter().map(Into::into).collect(),
                })
                .map_err(Into::into),
            NfsRequest::Access { fh, uid, gid, want } => vfs
                .access(fh.to_file_id(), uid, gid, want)
                .map(|granted| NfsReply::Granted { granted })
                .map_err(Into::into),
            NfsRequest::Commit { fh } => {
                // Writes in this model hit the store synchronously, so a
                // real server has nothing left to stabilize: validate the
                // handle and ack. (The koshad virtual server overrides
                // this with a replication flush barrier.)
                vfs.getattr(fh.to_file_id())
                    .map(|_| NfsReply::Void)
                    .map_err(Into::into)
            }
            NfsRequest::Fsstat => {
                let (capacity, used, free) = vfs.fsstat();
                Ok(NfsReply::Stat {
                    capacity,
                    used,
                    free,
                })
            }
            NfsRequest::LookupPath { dir, path } => {
                // Compound walk: resolve as many components as this store
                // holds. Like LOOKUP, resolution itself is free on the
                // disk model — the win is round trips, not disk time.
                let mut nodes = Vec::new();
                let mut cur = dir.to_file_id();
                let mut failure = None;
                for name in path.split('/').filter(|c| !c.is_empty()) {
                    match vfs.lookup(cur, name) {
                        Ok((id, attr)) => {
                            let link_target = if attr.ftype == kosha_vfs::FileType::Symlink {
                                vfs.readlink(id).ok()
                            } else {
                                None
                            };
                            let stop = attr.ftype != kosha_vfs::FileType::Directory;
                            nodes.push(crate::messages::WirePathNode {
                                fh: crate::messages::Fh::from_file_id(id),
                                attr: WireAttr(attr),
                                link_target,
                            });
                            if stop {
                                break;
                            }
                            cur = id;
                        }
                        Err(e) => {
                            failure = Some(e.into());
                            break;
                        }
                    }
                }
                match failure {
                    // An error on the very first component is the walk's
                    // error; later errors return the resolved prefix and
                    // let the client decide what the partial walk means.
                    Some(status) if nodes.is_empty() => Err(status),
                    _ => Ok(NfsReply::PathNodes { nodes }),
                }
            }
        };
        ReplyFrame(result)
    }
}

impl RpcHandler for NfsServer {
    fn handle(&self, from: NodeAddr, body: &[u8]) -> Result<RpcResponse, RpcError> {
        self.handle_frame(from, Frame::flat(&Bytes::copy_from_slice(body)))
    }

    fn handle_frame(&self, _from: NodeAddr, frame: Frame<'_>) -> Result<RpcResponse, RpcError> {
        let req = NfsRequest::decode_frame(frame)?;
        Ok(RpcResponse::split(&self.execute(req)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::messages::NfsStatus;
    use kosha_rpc::{VirtualClock, WireWrite};

    fn server() -> Arc<NfsServer> {
        NfsServer::new(Vfs::new(1 << 20), VirtualClock::new(), DiskModel::zero())
    }

    fn run(s: &NfsServer, req: NfsRequest) -> Result<NfsReply, NfsStatus> {
        s.execute(req).0
    }

    #[test]
    fn mount_create_write_read() {
        let s = server();
        let NfsReply::Root { fh: root } = run(&s, NfsRequest::Mount).unwrap() else {
            panic!()
        };
        let NfsReply::Handle { fh, .. } = run(
            &s,
            NfsRequest::Create {
                dir: root,
                name: "f".into(),
                mode: 0o644,
                uid: 1,
                gid: 1,
            },
        )
        .unwrap() else {
            panic!()
        };
        let NfsReply::Written { count } = run(
            &s,
            NfsRequest::Write {
                fh,
                offset: 0,
                data: b"payload"[..].into(),
            },
        )
        .unwrap() else {
            panic!()
        };
        assert_eq!(count, 7);
        let NfsReply::Data { data, eof } = run(
            &s,
            NfsRequest::Read {
                fh,
                offset: 0,
                count: 100,
            },
        )
        .unwrap() else {
            panic!()
        };
        assert_eq!(data, b"payload");
        assert!(eof);
    }

    #[test]
    fn a_read_reply_carries_the_stores_copy_beside_its_head() {
        // Served over the wire, a READ's data is the part of a split
        // reply; flattened, the reply is the encoding of what `apply`
        // returns. Errors and empty reads included.
        let s = server();
        let NfsReply::Root { fh: root } = run(&s, NfsRequest::Mount).unwrap() else {
            panic!()
        };
        let fh = s.with_store(|v| {
            let (id, _) = v.create(v.root(), "f", 0o644, 0, 0).unwrap();
            v.write(id, 0, b"hello world").unwrap();
            crate::messages::Fh::from_file_id(id)
        });
        let stale = crate::messages::Fh { ino: 999, gen: 1 };
        for (fh, offset, count) in [
            (fh, 0, 100),
            (fh, 6, 3),
            (fh, 11, 5),
            (root, 0, 1),
            (stale, 0, 1),
        ] {
            let req = NfsRequest::Read { fh, offset, count };
            let served = s.handle(NodeAddr(9), &req.encode()).unwrap();
            let owned = s.execute(req);
            assert_eq!(served.frame().flatten(), owned.encode());
            assert_eq!(served.payload.is_some(), owned.0.is_ok());
            assert_eq!(served.decode::<NfsReplyFrame>().unwrap(), owned);
        }
    }

    #[test]
    fn errors_map_to_status() {
        let s = server();
        let NfsReply::Root { fh: root } = run(&s, NfsRequest::Mount).unwrap() else {
            panic!()
        };
        assert_eq!(
            run(
                &s,
                NfsRequest::Lookup {
                    dir: root,
                    name: "missing".into()
                }
            ),
            Err(NfsStatus::NoEnt)
        );
        let stale = crate::messages::Fh { ino: 999, gen: 1 };
        assert_eq!(
            run(&s, NfsRequest::Getattr { fh: stale }),
            Err(NfsStatus::Stale)
        );
    }

    #[test]
    fn quota_returns_nospc() {
        let s = NfsServer::new(Vfs::new(10), VirtualClock::new(), DiskModel::zero());
        let NfsReply::Root { fh: root } = run(&s, NfsRequest::Mount).unwrap() else {
            panic!()
        };
        let NfsReply::Handle { fh, .. } = run(
            &s,
            NfsRequest::Create {
                dir: root,
                name: "f".into(),
                mode: 0o644,
                uid: 0,
                gid: 0,
            },
        )
        .unwrap() else {
            panic!()
        };
        assert_eq!(
            run(
                &s,
                NfsRequest::Write {
                    fh,
                    offset: 0,
                    data: vec![0u8; 100].into(),
                }
            ),
            Err(NfsStatus::NoSpc)
        );
    }

    #[test]
    fn disk_model_charges_clock() {
        let clock = VirtualClock::new();
        let s = NfsServer::new(
            Vfs::new(1 << 24),
            clock.clone(),
            DiskModel {
                bandwidth_bps: 1_000_000, // 1 MB/s for visible cost
                meta_op_cost: Duration::from_millis(1),
            },
        );
        let NfsReply::Root { fh: root } = run(&s, NfsRequest::Mount).unwrap() else {
            panic!()
        };
        let before = clock.now();
        let NfsReply::Handle { fh, .. } = run(
            &s,
            NfsRequest::Create {
                dir: root,
                name: "f".into(),
                mode: 0o644,
                uid: 0,
                gid: 0,
            },
        )
        .unwrap() else {
            panic!()
        };
        run(
            &s,
            NfsRequest::Write {
                fh,
                offset: 0,
                data: vec![1u8; 1_000_000].into(),
            },
        )
        .unwrap();
        let elapsed = clock.now().since(before);
        // 1 ms metadata + ~1 s transfer.
        assert!(elapsed >= Duration::from_millis(1000), "{elapsed:?}");
    }

    #[test]
    fn rename_and_readdir_via_protocol() {
        let s = server();
        let NfsReply::Root { fh: root } = run(&s, NfsRequest::Mount).unwrap() else {
            panic!()
        };
        run(
            &s,
            NfsRequest::Mkdir {
                dir: root,
                name: "d".into(),
                mode: 0o755,
                uid: 0,
                gid: 0,
            },
        )
        .unwrap();
        run(
            &s,
            NfsRequest::Create {
                dir: root,
                name: "a".into(),
                mode: 0o644,
                uid: 0,
                gid: 0,
            },
        )
        .unwrap();
        run(
            &s,
            NfsRequest::Rename {
                sdir: root,
                sname: "a".into(),
                ddir: root,
                dname: "b".into(),
            },
        )
        .unwrap();
        let NfsReply::Entries { entries } = run(&s, NfsRequest::Readdir { dir: root }).unwrap()
        else {
            panic!()
        };
        let names: Vec<_> = entries.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, vec!["b", "d"]);
    }

    #[test]
    fn lookup_path_walks_and_stops_at_symlink() {
        let s = server();
        let NfsReply::Root { fh: root } = run(&s, NfsRequest::Mount).unwrap() else {
            panic!()
        };
        s.with_store(|v| {
            v.mkdir_p("/a/b", 0o755).unwrap();
            let (b, _) = v.resolve("/a/b").unwrap();
            v.create(b, "f", 0o644, 0, 0).unwrap();
            let (a, _) = v.resolve("/a").unwrap();
            v.symlink(a, "link", "@00ff#2", 0o1777, 0, 0).unwrap();
        });

        // Full walk: every component resolves, file terminates the path.
        let NfsReply::PathNodes { nodes } = run(
            &s,
            NfsRequest::LookupPath {
                dir: root,
                path: "a/b/f".into(),
            },
        )
        .unwrap() else {
            panic!()
        };
        assert_eq!(nodes.len(), 3);
        assert!(nodes[2].link_target.is_none());

        // A symlink mid-path ends the walk with the link target attached,
        // even though more components were requested.
        let NfsReply::PathNodes { nodes } = run(
            &s,
            NfsRequest::LookupPath {
                dir: root,
                path: "a/link/deeper".into(),
            },
        )
        .unwrap() else {
            panic!()
        };
        assert_eq!(nodes.len(), 2);
        assert_eq!(nodes[1].link_target.as_deref(), Some("@00ff#2"));

        // Missing first component is a status; missing later component
        // returns the resolved prefix.
        assert_eq!(
            run(
                &s,
                NfsRequest::LookupPath {
                    dir: root,
                    path: "nope/x".into()
                }
            ),
            Err(NfsStatus::NoEnt)
        );
        let NfsReply::PathNodes { nodes } = run(
            &s,
            NfsRequest::LookupPath {
                dir: root,
                path: "a/nope/x".into(),
            },
        )
        .unwrap() else {
            panic!()
        };
        assert_eq!(nodes.len(), 1);
    }
}
