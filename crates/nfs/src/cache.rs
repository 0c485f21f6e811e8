//! Client-side NFS caching: attribute, directory-entry, and whole-file
//! data caches with TTL-based revalidation.
//!
//! Kernel NFS clients cache aggressively — attributes for a few seconds,
//! directory entries, and file data validated on open against the
//! server's mtime ("close-to-open" consistency). The paper leans on
//! this: "The behavior of Kosha in the presence of client caching also
//! remains the same as that of NFS" (§4.1.1). [`CachingClient`] wraps
//! any [`NfsClient`] (a real per-node server *or* the koshad virtual
//! server) with exactly those semantics:
//!
//! * **attributes** are served from cache within `attr_ttl` of the last
//!   fetch, then revalidated with one GETATTR;
//! * **directory entries** (LOOKUP results) are cached, including
//!   negative entries, with the same TTL;
//! * **file data** is cached whole-file up to a size cap and revalidated
//!   by mtime comparison whenever the attribute entry is refreshed — the
//!   close-to-open model;
//! * **mutations** write through and invalidate the affected entries.
//!
//! The consistency trade-off is the standard NFS one: a reader may
//! observe data up to `attr_ttl` stale; tests pin down both the hit
//! behavior and the staleness window.

use crate::client::{ClientDirEntry, NfsClient};
use crate::messages::{Fh, NfsError, NfsResult, NfsStatus};
use kosha_obs::{Counter, Obs};
use kosha_rpc::{Bytes, Clock, NodeAddr, SimTime};
use kosha_vfs::{Attr, FileType, SetAttr};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Cache tuning.
#[derive(Debug, Clone)]
pub struct CacheConfig {
    /// How long attributes and directory entries are trusted without
    /// revalidation (Linux's default `acregmin` is 3 s).
    pub attr_ttl: Duration,
    /// Cache file contents (whole-file) up to this size; 0 disables the
    /// data cache.
    pub max_cached_file: usize,
    /// Total bytes of file data kept; oldest entries are evicted first.
    pub data_capacity: usize,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            attr_ttl: Duration::from_secs(3),
            max_cached_file: 1 << 20,
            data_capacity: 32 << 20,
        }
    }
}

/// Cache effectiveness counters.
#[derive(Debug, Default)]
pub struct CacheStats {
    /// GETATTRs answered from cache.
    pub attr_hits: AtomicU64,
    /// GETATTRs that went to the server.
    pub attr_misses: AtomicU64,
    /// LOOKUPs answered from the dentry cache (positive or negative).
    pub dentry_hits: AtomicU64,
    /// LOOKUPs that went to the server.
    pub dentry_misses: AtomicU64,
    /// Reads served from the data cache.
    pub data_hits: AtomicU64,
    /// Reads that fetched from the server.
    pub data_misses: AtomicU64,
}

/// Registry-backed mirrors of [`CacheStats`], named
/// `nfs_cache_hits_total{cache=...}` / `nfs_cache_misses_total{cache=...}`.
struct CacheMetrics {
    attr_hits: Arc<Counter>,
    attr_misses: Arc<Counter>,
    dentry_hits: Arc<Counter>,
    dentry_misses: Arc<Counter>,
    data_hits: Arc<Counter>,
    data_misses: Arc<Counter>,
}

impl CacheMetrics {
    fn new(obs: &Obs) -> Self {
        let c = |name: &str| obs.registry.counter(name);
        CacheMetrics {
            attr_hits: c("nfs_cache_hits_total{cache=\"attr\"}"),
            attr_misses: c("nfs_cache_misses_total{cache=\"attr\"}"),
            dentry_hits: c("nfs_cache_hits_total{cache=\"dentry\"}"),
            dentry_misses: c("nfs_cache_misses_total{cache=\"dentry\"}"),
            data_hits: c("nfs_cache_hits_total{cache=\"data\"}"),
            data_misses: c("nfs_cache_misses_total{cache=\"data\"}"),
        }
    }
}

impl CacheStats {
    /// `(attr_hits, attr_misses, dentry_hits, dentry_misses, data_hits,
    /// data_misses)`.
    #[must_use]
    pub fn snapshot(&self) -> (u64, u64, u64, u64, u64, u64) {
        (
            self.attr_hits.load(Ordering::Relaxed),
            self.attr_misses.load(Ordering::Relaxed),
            self.dentry_hits.load(Ordering::Relaxed),
            self.dentry_misses.load(Ordering::Relaxed),
            self.data_hits.load(Ordering::Relaxed),
            self.data_misses.load(Ordering::Relaxed),
        )
    }
}

struct AttrEntry {
    attr: Attr,
    fetched: SimTime,
}

enum DentryEntry {
    /// Attributes are NOT stored here — they live in the attribute
    /// cache, the single source of truth, so a write that invalidates
    /// the attr entry cannot leave a stale copy behind a dentry.
    Positive(Fh),
    Negative,
}

struct CachedDentry {
    entry: DentryEntry,
    fetched: SimTime,
}

struct DataEntry {
    data: Bytes,
    /// Server mtime when the copy was taken; a different mtime on
    /// revalidation invalidates the copy.
    mtime: u64,
    /// For LRU-ish eviction.
    last_used: SimTime,
}

/// A caching NFS client bound to one server address.
pub struct CachingClient {
    inner: NfsClient,
    server: NodeAddr,
    clock: Arc<dyn Clock>,
    cfg: CacheConfig,
    // lint: allow(L008) client cache: TTL-expired on access and dropped wholesale by clear(); process-scoped, not node state
    attrs: Mutex<HashMap<Fh, AttrEntry>>,
    // lint: allow(L008) client cache: TTL-expired on access and dropped wholesale by clear()
    dentries: Mutex<HashMap<(Fh, String), CachedDentry>>,
    // lint: allow(L008) client cache: capacity-evicted (oldest-first) on insert and dropped wholesale by clear()
    data: Mutex<HashMap<Fh, DataEntry>>,
    data_bytes: AtomicU64,
    stats: CacheStats,
    metrics: Option<CacheMetrics>,
}

impl CachingClient {
    /// Wraps `inner` (bound to `server`) with caches driven by `clock`.
    pub fn new(
        inner: NfsClient,
        server: NodeAddr,
        clock: Arc<dyn Clock>,
        cfg: CacheConfig,
    ) -> Self {
        CachingClient {
            inner,
            server,
            clock,
            cfg,
            attrs: Mutex::new(HashMap::new()),
            dentries: Mutex::new(HashMap::new()),
            data: Mutex::new(HashMap::new()),
            data_bytes: AtomicU64::new(0),
            stats: CacheStats::default(),
            metrics: None,
        }
    }

    /// Mirrors hit/miss counters into `obs` as
    /// `nfs_cache_{hits,misses}_total{cache=...}`. Chainable after
    /// [`CachingClient::new`].
    #[must_use]
    pub fn observed(mut self, obs: &Obs) -> Self {
        self.metrics = Some(CacheMetrics::new(obs));
        self
    }

    /// Cache counters.
    #[must_use]
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Bumps a local stat and, when observed, its registry mirror.
    fn tally(&self, stat: &AtomicU64, mirror: fn(&CacheMetrics) -> &Counter) {
        stat.fetch_add(1, Ordering::Relaxed);
        if let Some(m) = &self.metrics {
            mirror(m).inc();
        }
    }

    /// Drops every cached entry (umount / failover).
    pub fn flush(&self) {
        self.attrs.lock().clear();
        self.dentries.lock().clear();
        self.data.lock().clear();
        self.data_bytes.store(0, Ordering::Relaxed);
    }

    fn fresh(&self, fetched: SimTime) -> bool {
        self.clock.now().since(fetched) < self.cfg.attr_ttl
    }

    fn remember_attr(&self, fh: Fh, attr: &Attr) {
        // If the file changed on the server, the cached data is stale.
        let mut data = self.data.lock();
        if let Some(entry) = data.get(&fh) {
            if entry.mtime != attr.mtime {
                let freed = entry.data.len() as u64;
                data.remove(&fh);
                self.data_bytes.fetch_sub(freed, Ordering::Relaxed);
            }
        }
        drop(data);
        self.attrs.lock().insert(
            fh,
            AttrEntry {
                attr: attr.clone(),
                fetched: self.clock.now(),
            },
        );
    }

    fn invalidate_fh(&self, fh: Fh) {
        self.attrs.lock().remove(&fh);
        if let Some(e) = self.data.lock().remove(&fh) {
            self.data_bytes
                .fetch_sub(e.data.len() as u64, Ordering::Relaxed);
        }
    }

    fn invalidate_dentry(&self, dir: Fh, name: &str) {
        self.dentries.lock().remove(&(dir, name.to_string()));
    }

    // ---- cached operations -------------------------------------------

    /// MOUNT (uncached).
    pub fn mount(&self) -> NfsResult<Fh> {
        self.inner.mount(self.server)
    }

    /// GETATTR with TTL caching.
    pub fn getattr(&self, fh: Fh) -> NfsResult<Attr> {
        if let Some(e) = self.attrs.lock().get(&fh) {
            if self.fresh(e.fetched) {
                self.tally(&self.stats.attr_hits, |m| &m.attr_hits);
                return Ok(e.attr.clone());
            }
        }
        self.tally(&self.stats.attr_misses, |m| &m.attr_misses);
        let attr = self.inner.getattr(self.server, fh)?;
        self.remember_attr(fh, &attr);
        Ok(attr)
    }

    /// LOOKUP with dentry caching (positive and negative entries).
    pub fn lookup(&self, dir: Fh, name: &str) -> NfsResult<(Fh, Attr)> {
        let key = (dir, name.to_string());
        let cached = {
            let dentries = self.dentries.lock();
            dentries.get(&key).and_then(|d| {
                if self.fresh(d.fetched) {
                    Some(match &d.entry {
                        DentryEntry::Positive(fh) => Some(*fh),
                        DentryEntry::Negative => None,
                    })
                } else {
                    None
                }
            })
        };
        if let Some(hit) = cached {
            self.tally(&self.stats.dentry_hits, |m| &m.dentry_hits);
            return match hit {
                Some(fh) => Ok((fh, self.getattr(fh)?)),
                None => Err(NfsError::Status(NfsStatus::NoEnt)),
            };
        }
        self.tally(&self.stats.dentry_misses, |m| &m.dentry_misses);
        match self.inner.lookup(self.server, dir, name) {
            Ok((fh, attr)) => {
                self.remember_attr(fh, &attr);
                self.dentries.lock().insert(
                    key,
                    CachedDentry {
                        entry: DentryEntry::Positive(fh),
                        fetched: self.clock.now(),
                    },
                );
                Ok((fh, attr))
            }
            Err(NfsError::Status(NfsStatus::NoEnt)) => {
                self.dentries.lock().insert(
                    key,
                    CachedDentry {
                        entry: DentryEntry::Negative,
                        fetched: self.clock.now(),
                    },
                );
                Err(NfsError::Status(NfsStatus::NoEnt))
            }
            Err(e) => Err(e),
        }
    }

    /// Whole-file READ through the data cache, with close-to-open
    /// revalidation: the cached copy is served only while the cached
    /// attributes are fresh or revalidate to the same mtime.
    pub fn read_file(&self, fh: Fh) -> NfsResult<Bytes> {
        // Revalidate attributes (cheap if fresh).
        let attr = self.getattr(fh)?;
        if attr.ftype != FileType::Regular {
            return Err(NfsError::Status(NfsStatus::IsDir));
        }
        {
            let mut data = self.data.lock();
            if let Some(e) = data.get_mut(&fh) {
                if e.mtime == attr.mtime {
                    e.last_used = self.clock.now();
                    self.tally(&self.stats.data_hits, |m| &m.data_hits);
                    return Ok(e.data.clone());
                }
            }
        }
        self.tally(&self.stats.data_misses, |m| &m.data_misses);
        let out = self
            .inner
            .read_whole(self.server, fh, attr.size, 32 * 1024)?;
        if out.len() <= self.cfg.max_cached_file {
            self.evict_to_fit(out.len());
            self.data.lock().insert(
                fh,
                DataEntry {
                    data: out.clone(),
                    mtime: attr.mtime,
                    last_used: self.clock.now(),
                },
            );
            self.data_bytes
                .fetch_add(out.len() as u64, Ordering::Relaxed);
        }
        Ok(out)
    }

    fn evict_to_fit(&self, incoming: usize) {
        let cap = self.cfg.data_capacity as u64;
        let mut data = self.data.lock();
        while self.data_bytes.load(Ordering::Relaxed) + incoming as u64 > cap && !data.is_empty() {
            let oldest = data
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(&fh, _)| fh)
                .expect("non-empty");
            if let Some(e) = data.remove(&oldest) {
                self.data_bytes
                    .fetch_sub(e.data.len() as u64, Ordering::Relaxed);
            }
        }
    }

    /// WRITE: write-through, then update caches with the new reality.
    pub fn write(&self, fh: Fh, offset: u64, data: &[u8]) -> NfsResult<u32> {
        let n = self.inner.write(self.server, fh, offset, data)?;
        // The server-side mtime changed; drop cached attr + data.
        self.invalidate_fh(fh);
        Ok(n)
    }

    /// SETATTR: write-through + invalidate.
    pub fn setattr(&self, fh: Fh, sattr: SetAttr) -> NfsResult<Attr> {
        let attr = self.inner.setattr(self.server, fh, sattr)?;
        self.invalidate_fh(fh);
        self.remember_attr(fh, &attr);
        Ok(attr)
    }

    /// CREATE: write-through + prime the caches.
    pub fn create(
        &self,
        dir: Fh,
        name: &str,
        mode: u32,
        uid: u32,
        gid: u32,
    ) -> NfsResult<(Fh, Attr)> {
        let (fh, attr) = self.inner.create(self.server, dir, name, mode, uid, gid)?;
        self.remember_attr(fh, &attr);
        self.dentries.lock().insert(
            (dir, name.to_string()),
            CachedDentry {
                entry: DentryEntry::Positive(fh),
                fetched: self.clock.now(),
            },
        );
        Ok((fh, attr))
    }

    /// MKDIR: write-through + prime.
    pub fn mkdir(
        &self,
        dir: Fh,
        name: &str,
        mode: u32,
        uid: u32,
        gid: u32,
    ) -> NfsResult<(Fh, Attr)> {
        let (fh, attr) = self.inner.mkdir(self.server, dir, name, mode, uid, gid)?;
        self.remember_attr(fh, &attr);
        self.dentries.lock().insert(
            (dir, name.to_string()),
            CachedDentry {
                entry: DentryEntry::Positive(fh),
                fetched: self.clock.now(),
            },
        );
        Ok((fh, attr))
    }

    /// REMOVE: write-through + invalidate the dentry and object.
    pub fn remove(&self, dir: Fh, name: &str) -> NfsResult<()> {
        self.inner.remove(self.server, dir, name)?;
        if let Some(CachedDentry {
            entry: DentryEntry::Positive(fh),
            ..
        }) = self.dentries.lock().remove(&(dir, name.to_string()))
        {
            self.invalidate_fh(fh);
        }
        self.invalidate_dentry(dir, name);
        Ok(())
    }

    /// RMDIR: write-through + invalidate.
    pub fn rmdir(&self, dir: Fh, name: &str) -> NfsResult<()> {
        self.inner.rmdir(self.server, dir, name)?;
        if let Some(CachedDentry {
            entry: DentryEntry::Positive(fh),
            ..
        }) = self.dentries.lock().remove(&(dir, name.to_string()))
        {
            self.invalidate_fh(fh);
        }
        self.invalidate_dentry(dir, name);
        Ok(())
    }

    /// RENAME: write-through; both dentries invalidated (the object's
    /// handle survives a rename, so its attr/data entries stay valid).
    pub fn rename(&self, sdir: Fh, sname: &str, ddir: Fh, dname: &str) -> NfsResult<()> {
        self.inner.rename(self.server, sdir, sname, ddir, dname)?;
        self.invalidate_dentry(sdir, sname);
        self.invalidate_dentry(ddir, dname);
        Ok(())
    }

    /// READDIR (uncached: listings change shape too easily; kernel
    /// clients cache these with separate, shorter TTLs).
    pub fn readdir(&self, dir: Fh) -> NfsResult<Vec<ClientDirEntry>> {
        self.inner.readdir(self.server, dir)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{DiskModel, NfsServer};
    use kosha_rpc::{LatencyModel, Network, ServiceId, ServiceMux, SimNetwork};
    use kosha_vfs::Vfs;

    const SERVER: NodeAddr = NodeAddr(1);
    const CLIENT: NodeAddr = NodeAddr(2);

    fn setup(ttl: Duration) -> (Arc<SimNetwork>, CachingClient) {
        let net = SimNetwork::new(LatencyModel::zero());
        let server = NfsServer::new(Vfs::new(1 << 24), net.clock(), DiskModel::zero());
        let mux = Arc::new(ServiceMux::new());
        mux.register(ServiceId::Nfs, server);
        net.attach(SERVER, mux);
        net.attach(CLIENT, Arc::new(ServiceMux::new()));
        let inner = NfsClient::new(net.clone() as Arc<dyn Network>, CLIENT);
        let cc = CachingClient::new(
            inner,
            SERVER,
            net.clock(),
            CacheConfig {
                attr_ttl: ttl,
                ..Default::default()
            },
        );
        (net, cc)
    }

    #[test]
    fn attr_cache_hits_within_ttl() {
        let (net, cc) = setup(Duration::from_secs(3));
        let root = cc.mount().unwrap();
        let (fh, _) = cc.create(root, "f", 0o644, 0, 0).unwrap();
        cc.getattr(fh).unwrap();
        cc.getattr(fh).unwrap();
        cc.getattr(fh).unwrap();
        let (hits, misses, ..) = cc.stats().snapshot();
        assert!(hits >= 3, "hits {hits}"); // create primed the cache
        assert_eq!(misses, 0);
        // Advance past the TTL: next getattr goes to the server.
        net.virtual_clock().advance(Duration::from_secs(4));
        cc.getattr(fh).unwrap();
        let (_, misses, ..) = cc.stats().snapshot();
        assert_eq!(misses, 1);
    }

    #[test]
    fn dentry_cache_covers_negative_lookups() {
        let (_net, cc) = setup(Duration::from_secs(3));
        let root = cc.mount().unwrap();
        assert!(cc.lookup(root, "ghost").is_err());
        assert!(cc.lookup(root, "ghost").is_err());
        let (.., dhits, dmisses, _, _) = {
            let s = cc.stats().snapshot();
            ((), (), s.2, s.3, s.4, s.5)
        };
        assert_eq!(dmisses, 1);
        assert_eq!(dhits, 1);
    }

    #[test]
    fn data_cache_serves_repeat_reads_and_revalidates() {
        let (net, cc) = setup(Duration::from_secs(3));
        let root = cc.mount().unwrap();
        let (fh, _) = cc.create(root, "f", 0o644, 0, 0).unwrap();
        cc.write(fh, 0, b"version one").unwrap();
        assert_eq!(cc.read_file(fh).unwrap(), b"version one");
        assert_eq!(cc.read_file(fh).unwrap(), b"version one");
        let s = cc.stats().snapshot();
        assert_eq!(s.5, 1, "one data miss");
        assert!(s.4 >= 1, "subsequent read hit the cache");

        // Another client writes behind our back. Advance the clock first
        // so the server's mtime actually differs — the same blind spot
        // real NFS clients have with coarse mtime granularity.
        net.virtual_clock().advance(Duration::from_millis(10));
        let other = NfsClient::new(net.clone() as Arc<dyn Network>, NodeAddr(9));
        other.write(SERVER, fh, 0, b"version TWO").unwrap();
        // Within the TTL we may serve stale (the NFS window)…
        assert_eq!(cc.read_file(fh).unwrap(), b"version one");
        // …after the TTL, revalidation sees the new mtime and refetches.
        net.virtual_clock().advance(Duration::from_secs(4));
        assert_eq!(cc.read_file(fh).unwrap(), b"version TWO");
    }

    #[test]
    fn own_writes_are_read_back_immediately() {
        let (_net, cc) = setup(Duration::from_secs(30));
        let root = cc.mount().unwrap();
        let (fh, _) = cc.create(root, "f", 0o644, 0, 0).unwrap();
        cc.write(fh, 0, b"first").unwrap();
        assert_eq!(cc.read_file(fh).unwrap(), b"first");
        cc.write(fh, 0, b"second").unwrap();
        assert_eq!(cc.read_file(fh).unwrap(), b"second");
    }

    #[test]
    fn remove_invalidates_dentry_and_data() {
        let (_net, cc) = setup(Duration::from_secs(30));
        let root = cc.mount().unwrap();
        let (fh, _) = cc.create(root, "f", 0o644, 0, 0).unwrap();
        cc.write(fh, 0, b"bye").unwrap();
        cc.read_file(fh).unwrap();
        cc.remove(root, "f").unwrap();
        assert!(cc.lookup(root, "f").is_err());
        // The handle is gone server-side; the cache must not resurrect it.
        assert!(cc.read_file(fh).is_err());
    }

    #[test]
    fn eviction_respects_capacity() {
        let (net, _) = setup(Duration::from_secs(30));
        let inner = NfsClient::new(net.clone() as Arc<dyn Network>, CLIENT);
        let cc = CachingClient::new(
            inner,
            SERVER,
            net.clock(),
            CacheConfig {
                attr_ttl: Duration::from_secs(30),
                max_cached_file: 1 << 20,
                data_capacity: 3000, // tiny: forces eviction
            },
        );
        let root = cc.mount().unwrap();
        let mut fhs = Vec::new();
        for i in 0..4 {
            let (fh, _) = cc.create(root, &format!("f{i}"), 0o644, 0, 0).unwrap();
            cc.write(fh, 0, &[i as u8; 1000]).unwrap();
            cc.read_file(fh).unwrap();
            fhs.push(fh);
        }
        assert!(
            cc.data_bytes.load(Ordering::Relaxed) <= 3000,
            "cache exceeded capacity: {}",
            cc.data_bytes.load(Ordering::Relaxed)
        );
        // All files still readable (evicted ones refetch).
        for (i, fh) in fhs.iter().enumerate() {
            assert_eq!(cc.read_file(*fh).unwrap(), vec![i as u8; 1000]);
        }
    }
}
