//! The unmodified-NFS baseline: one client machine, one central NFS
//! server, connected by the same modeled LAN (the paper's "NFS
//! configuration consists of two nodes with one running as a client, and
//! the other running as a server", Section 6.1.1).

use crate::workbench::Workbench;
use kosha_nfs::{DiskModel, Fh, NfsClient, NfsError, NfsResult, NfsServer, NfsStatus};
use kosha_rpc::{
    Bytes, LatencyModel, Network, NodeAddr, ServiceId, ServiceMux, SimNetwork, VirtualClock,
};
use kosha_vfs::path::parent_and_name;
use kosha_vfs::{normalize, split_path, Attr, FileType, Vfs};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

/// Address of the central server in the baseline setup.
pub const SERVER: NodeAddr = NodeAddr(1);
/// Address of the client machine.
pub const CLIENT: NodeAddr = NodeAddr(2);

/// A plain NFS client/server pair over the simulated LAN.
pub struct NfsBaseline {
    net: Arc<SimNetwork>,
    nfs: NfsClient,
    root: Fh,
    // lint: allow(L008) run-scoped sim harness cache: one baseline run's namespace, dropped with the harness
    dcache: Mutex<HashMap<String, Fh>>,
    chunk: u32,
}

impl NfsBaseline {
    /// Boots the two-machine baseline with the given cost models.
    #[must_use]
    pub fn build(latency: LatencyModel, disk: DiskModel, capacity: u64) -> Self {
        let net = SimNetwork::new(latency);
        let server = NfsServer::new(Vfs::new(capacity), net.clock(), disk);
        let mux = Arc::new(ServiceMux::new());
        mux.register(ServiceId::Nfs, server);
        net.attach(SERVER, mux);
        // The client machine needs no services; it only issues calls.
        net.attach(CLIENT, Arc::new(ServiceMux::new()));
        let nfs = NfsClient::new(net.clone() as Arc<dyn Network>, CLIENT);
        let root = nfs.mount(SERVER).expect("mount baseline");
        NfsBaseline {
            net,
            nfs,
            root,
            dcache: Mutex::new(HashMap::new()),
            chunk: 32 * 1024,
        }
    }

    /// The shared virtual clock.
    #[must_use]
    pub fn clock(&self) -> Arc<VirtualClock> {
        self.net.virtual_clock()
    }

    fn dir_handle(&self, path: &str) -> NfsResult<Fh> {
        let path = normalize(path).map_err(|e| NfsError::Status(e.into()))?;
        if path == "/" {
            return Ok(self.root);
        }
        if let Some(&fh) = self.dcache.lock().get(&path) {
            return Ok(fh);
        }
        let comps = split_path(&path).map_err(|e| NfsError::Status(e.into()))?;
        let mut cur = self.root;
        let mut cur_path = String::new();
        for c in comps {
            cur_path.push('/');
            cur_path.push_str(c);
            // Copy the hit out before matching: a guard in the match
            // scrutinee lives through the arms, where the miss path
            // both calls the server and re-locks the cache to insert —
            // a self-deadlock on the first successful miss lookup.
            let cached = self.dcache.lock().get(&cur_path).copied();
            cur = match cached {
                Some(fh) => fh,
                None => {
                    let (fh, _) = self.nfs.lookup(SERVER, cur, c)?;
                    self.dcache.lock().insert(cur_path.clone(), fh);
                    fh
                }
            };
        }
        Ok(cur)
    }
}

impl Workbench for NfsBaseline {
    fn mkdir_p(&self, path: &str) -> NfsResult<()> {
        let path = normalize(path).map_err(|e| NfsError::Status(e.into()))?;
        let comps = split_path(&path).map_err(|e| NfsError::Status(e.into()))?;
        let mut cur = self.root;
        let mut cur_path = String::new();
        for c in comps {
            cur_path.push('/');
            cur_path.push_str(c);
            cur = match self.nfs.lookup(SERVER, cur, c) {
                Ok((fh, _)) => fh,
                Err(NfsError::Status(NfsStatus::NoEnt)) => {
                    self.nfs.mkdir(SERVER, cur, c, 0o755, 0, 0)?.0
                }
                Err(e) => return Err(e),
            };
            self.dcache.lock().insert(cur_path.clone(), cur);
        }
        Ok(())
    }

    fn write_file(&self, path: &str, data: &[u8]) -> NfsResult<()> {
        let path = normalize(path).map_err(|e| NfsError::Status(e.into()))?;
        let (pp, name) = parent_and_name(&path).ok_or(NfsError::Status(NfsStatus::Inval))?;
        let dir = self.dir_handle(pp)?;
        let fh = match self.nfs.lookup(SERVER, dir, name) {
            Ok((fh, attr)) => {
                if attr.size > 0 {
                    // Truncate-on-overwrite, like KoshaMount::write_file.
                    self.nfs.setattr(
                        SERVER,
                        fh,
                        kosha_vfs::SetAttr {
                            size: Some(0),
                            ..Default::default()
                        },
                    )?;
                }
                fh
            }
            Err(NfsError::Status(NfsStatus::NoEnt)) => {
                self.nfs.create(SERVER, dir, name, 0o644, 0, 0)?.0
            }
            Err(e) => return Err(e),
        };
        let mut off = 0usize;
        while off < data.len() {
            let end = (off + self.chunk as usize).min(data.len());
            self.nfs.write(SERVER, fh, off as u64, &data[off..end])?;
            off = end;
        }
        Ok(())
    }

    fn read_file(&self, path: &str) -> NfsResult<Bytes> {
        let path = normalize(path).map_err(|e| NfsError::Status(e.into()))?;
        let (pp, name) = parent_and_name(&path).ok_or(NfsError::Status(NfsStatus::Inval))?;
        let dir = self.dir_handle(pp)?;
        let (fh, attr) = self.nfs.lookup(SERVER, dir, name)?;
        self.nfs.read_whole(SERVER, fh, attr.size, self.chunk)
    }

    fn stat(&self, path: &str) -> NfsResult<Attr> {
        let path = normalize(path).map_err(|e| NfsError::Status(e.into()))?;
        if path == "/" {
            return self.nfs.getattr(SERVER, self.root);
        }
        let (pp, name) = parent_and_name(&path).ok_or(NfsError::Status(NfsStatus::Inval))?;
        let dir = self.dir_handle(pp)?;
        Ok(self.nfs.lookup(SERVER, dir, name)?.1)
    }

    fn readdir(&self, path: &str) -> NfsResult<Vec<(String, FileType)>> {
        let dir = self.dir_handle(path)?;
        Ok(self
            .nfs
            .readdir(SERVER, dir)?
            .into_iter()
            .map(|e| (e.name, e.ftype))
            .collect())
    }

    fn remove(&self, path: &str) -> NfsResult<()> {
        let path = normalize(path).map_err(|e| NfsError::Status(e.into()))?;
        let (pp, name) = parent_and_name(&path).ok_or(NfsError::Status(NfsStatus::Inval))?;
        let dir = self.dir_handle(pp)?;
        self.nfs.remove(SERVER, dir, name)
    }

    fn rmdir(&self, path: &str) -> NfsResult<()> {
        let path = normalize(path).map_err(|e| NfsError::Status(e.into()))?;
        let (pp, name) = parent_and_name(&path).ok_or(NfsError::Status(NfsStatus::Inval))?;
        let dir = self.dir_handle(pp)?;
        self.nfs.rmdir(SERVER, dir, name)?;
        self.dcache.lock().remove(&path);
        let prefix = format!("{path}/");
        self.dcache.lock().retain(|p, _| !p.starts_with(&prefix));
        Ok(())
    }

    fn rename(&self, from: &str, to: &str) -> NfsResult<()> {
        let from = normalize(from).map_err(|e| NfsError::Status(e.into()))?;
        let to = normalize(to).map_err(|e| NfsError::Status(e.into()))?;
        let (fp, fname) = parent_and_name(&from).ok_or(NfsError::Status(NfsStatus::Inval))?;
        let (tp, tname) = parent_and_name(&to).ok_or(NfsError::Status(NfsStatus::Inval))?;
        let sdir = self.dir_handle(fp)?;
        let ddir = self.dir_handle(tp)?;
        self.nfs.rename(SERVER, sdir, fname, ddir, tname)?;
        let mut cache = self.dcache.lock();
        cache.remove(&from);
        let fprefix = format!("{from}/");
        let tprefix = format!("{to}/");
        cache.retain(|p, _| !p.starts_with(&fprefix) && !p.starts_with(&tprefix) && p != &to);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kosha_rpc::Clock;

    #[test]
    fn baseline_round_trip() {
        let b = NfsBaseline::build(LatencyModel::zero(), DiskModel::zero(), 1 << 24);
        b.mkdir_p("/a/b").unwrap();
        b.write_file("/a/b/f.txt", b"baseline").unwrap();
        assert_eq!(b.read_file("/a/b/f.txt").unwrap(), b"baseline");
        assert_eq!(b.stat("/a/b/f.txt").unwrap().size, 8);
        assert_eq!(
            b.readdir("/a/b").unwrap(),
            vec![("f.txt".to_string(), FileType::Regular)]
        );
    }

    #[test]
    fn baseline_pays_network_costs() {
        let b = NfsBaseline::build(LatencyModel::default(), DiskModel::default(), 1 << 24);
        let t0 = b.clock().now();
        b.mkdir_p("/x").unwrap();
        b.write_file("/x/big", &[0u8; 1 << 20]).unwrap();
        let dt = b.clock().now().since(t0);
        // 1 MiB at 12.5 MB/s is at least ~80 ms of wire time.
        assert!(dt.as_millis() >= 80, "{dt:?}");
    }
}
