//! A `/kosha` mount that behaves like a *caching* kernel NFS client.
//!
//! [`crate::cluster::SimCluster::mount`] models a cache-less client so
//! every operation's cost is visible (the Table 1/2 configuration).
//! `CachedKoshaMount` layers [`kosha_nfs::CachingClient`] in front of the
//! koshad loopback server instead, demonstrating the paper's §4.1.1
//! claim that Kosha behaves identically under client caching — and
//! showing, in `ablation_client_cache`, how much of the measured
//! overhead a real deployment's caches would absorb.

use crate::workbench::Workbench;
use kosha_nfs::{CacheConfig, CachingClient, Fh, NfsClient, NfsError, NfsResult, NfsStatus};
use kosha_rpc::{Bytes, Network, NodeAddr, ServiceId};
use kosha_vfs::path::{parent_and_name, split_path};
use kosha_vfs::{normalize, Attr, FileType, SetAttr};
use std::sync::Arc;

/// A caching client of one node's koshad virtual file system.
pub struct CachedKoshaMount {
    cc: CachingClient,
    root: Fh,
}

impl CachedKoshaMount {
    /// Mounts through `koshad` with the given cache configuration.
    pub fn new(
        net: Arc<dyn Network>,
        client_addr: NodeAddr,
        koshad: NodeAddr,
        cache: CacheConfig,
    ) -> NfsResult<Self> {
        let clock = net.clock();
        let inner = NfsClient::with_service(net, client_addr, ServiceId::KoshaFs);
        let cc = CachingClient::new(inner, koshad, clock, cache);
        let root = cc.mount()?;
        Ok(CachedKoshaMount { cc, root })
    }

    /// The underlying caching client (stats inspection).
    #[must_use]
    pub fn cache(&self) -> &CachingClient {
        &self.cc
    }

    fn resolve_dir(&self, path: &str) -> NfsResult<Fh> {
        let path = normalize(path).map_err(|e| NfsError::Status(e.into()))?;
        let mut cur = self.root;
        for c in split_path(&path).map_err(|e| NfsError::Status(e.into()))? {
            let (fh, attr) = self.cc.lookup(cur, c)?;
            if attr.ftype != FileType::Directory {
                return Err(NfsError::Status(NfsStatus::NotDir));
            }
            cur = fh;
        }
        Ok(cur)
    }

    fn resolve_entry(&self, path: &str) -> NfsResult<(Fh, String, Fh, Attr)> {
        let path = normalize(path).map_err(|e| NfsError::Status(e.into()))?;
        let (pp, name) = parent_and_name(&path).ok_or(NfsError::Status(NfsStatus::Inval))?;
        let dir = self.resolve_dir(pp)?;
        let (fh, attr) = self.cc.lookup(dir, name)?;
        Ok((dir, name.to_string(), fh, attr))
    }
}

impl Workbench for CachedKoshaMount {
    fn mkdir_p(&self, path: &str) -> NfsResult<()> {
        let path = normalize(path).map_err(|e| NfsError::Status(e.into()))?;
        let mut cur = self.root;
        for c in split_path(&path).map_err(|e| NfsError::Status(e.into()))? {
            cur = match self.cc.lookup(cur, c) {
                Ok((fh, attr)) => {
                    if attr.ftype != FileType::Directory {
                        return Err(NfsError::Status(NfsStatus::NotDir));
                    }
                    fh
                }
                Err(NfsError::Status(NfsStatus::NoEnt)) => self.cc.mkdir(cur, c, 0o755, 0, 0)?.0,
                Err(e) => return Err(e),
            };
        }
        Ok(())
    }

    fn write_file(&self, path: &str, data: &[u8]) -> NfsResult<()> {
        let path = normalize(path).map_err(|e| NfsError::Status(e.into()))?;
        let (pp, name) = parent_and_name(&path).ok_or(NfsError::Status(NfsStatus::Inval))?;
        let dir = self.resolve_dir(pp)?;
        let fh = match self.cc.create(dir, name, 0o644, 0, 0) {
            Ok((fh, _)) => fh,
            Err(NfsError::Status(NfsStatus::Exist)) => {
                let (fh, attr) = self.cc.lookup(dir, name)?;
                if attr.size > 0 {
                    self.cc.setattr(
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
        let mut off = 0usize;
        while off < data.len() {
            let end = (off + 32 * 1024).min(data.len());
            self.cc.write(fh, off as u64, &data[off..end])?;
            off = end;
        }
        Ok(())
    }

    fn read_file(&self, path: &str) -> NfsResult<Bytes> {
        let (_, _, fh, _) = self.resolve_entry(path)?;
        self.cc.read_file(fh)
    }

    fn stat(&self, path: &str) -> NfsResult<Attr> {
        let path = normalize(path).map_err(|e| NfsError::Status(e.into()))?;
        if path == "/" {
            return self.cc.getattr(self.root);
        }
        let (_, _, _, attr) = self.resolve_entry(&path)?;
        Ok(attr)
    }

    fn readdir(&self, path: &str) -> NfsResult<Vec<(String, FileType)>> {
        let dir = self.resolve_dir(path)?;
        Ok(self
            .cc
            .readdir(dir)?
            .into_iter()
            .map(|e| (e.name, e.ftype))
            .collect())
    }

    fn remove(&self, path: &str) -> NfsResult<()> {
        let (dir, name, _, _) = self.resolve_entry(path)?;
        self.cc.remove(dir, &name)
    }

    fn rmdir(&self, path: &str) -> NfsResult<()> {
        let (dir, name, _, _) = self.resolve_entry(path)?;
        self.cc.rmdir(dir, &name)
    }

    fn rename(&self, from: &str, to: &str) -> NfsResult<()> {
        let from = normalize(from).map_err(|e| NfsError::Status(e.into()))?;
        let to = normalize(to).map_err(|e| NfsError::Status(e.into()))?;
        let (fp, fname) = parent_and_name(&from).ok_or(NfsError::Status(NfsStatus::Inval))?;
        let (tp, tname) = parent_and_name(&to).ok_or(NfsError::Status(NfsStatus::Inval))?;
        let sdir = self.resolve_dir(fp)?;
        let ddir = self.resolve_dir(tp)?;
        self.cc.rename(sdir, fname, ddir, tname)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{ClusterParams, SimCluster};
    use crate::experiments::{mab_lan, table1_kosha_config};
    use crate::mab::{run_mab, MabParams};
    use kosha::KoshaConfig;
    use kosha_rpc::LatencyModel;

    fn cached_mount(c: &SimCluster, idx: usize) -> CachedKoshaMount {
        CachedKoshaMount::new(
            c.net.clone() as Arc<dyn Network>,
            c.nodes[idx].addr(),
            c.nodes[idx].addr(),
            CacheConfig::default(),
        )
        .unwrap()
    }

    #[test]
    fn cached_mount_round_trips() {
        let c = SimCluster::build(&ClusterParams {
            nodes: 4,
            kosha: KoshaConfig::for_tests(),
            latency: LatencyModel::zero(),
            seed: 31,
        });
        let m = cached_mount(&c, 0);
        m.mkdir_p("/cachetest/sub").unwrap();
        m.write_file("/cachetest/sub/f", b"cached bytes").unwrap();
        assert_eq!(m.read_file("/cachetest/sub/f").unwrap(), b"cached bytes");
        assert_eq!(m.read_file("/cachetest/sub/f").unwrap(), b"cached bytes");
        let (_, _, _, _, data_hits, _) = m.cache().stats().snapshot();
        assert!(data_hits >= 1, "repeat read missed the cache");
        assert_eq!(m.stat("/cachetest/sub/f").unwrap().size, 12);
        m.remove("/cachetest/sub/f").unwrap();
        assert!(m.read_file("/cachetest/sub/f").is_err());
    }

    #[test]
    fn client_caching_cuts_mab_time() {
        // §4.1.1: Kosha behaves the same under client caching — and the
        // caches absorb a large share of the interposition cost.
        let params = MabParams::small();
        let uncached = {
            let c = SimCluster::build(&ClusterParams {
                nodes: 4,
                kosha: table1_kosha_config(),
                latency: mab_lan(),
                seed: 32,
            });
            let m = c.mount(0);
            let clock = c.clock();
            clock.reset();
            run_mab(&params, &m, &clock).unwrap().total()
        };
        let cached = {
            let c = SimCluster::build(&ClusterParams {
                nodes: 4,
                kosha: table1_kosha_config(),
                latency: mab_lan(),
                seed: 32,
            });
            let m = cached_mount(&c, 0);
            let clock = c.clock();
            clock.reset();
            run_mab(&params, &m, &clock).unwrap().total()
        };
        assert!(
            cached < uncached,
            "caching did not help: {cached:?} !< {uncached:?}"
        );
    }
}
