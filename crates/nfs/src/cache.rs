//! The server-bound NFS client under `kosha::KoshaMount`, with optional
//! client-side caching: attribute, directory-entry, and whole-file data
//! caches with TTL-based revalidation.
//!
//! Kernel NFS clients cache aggressively — attributes for a few seconds,
//! directory entries, and file data validated on open against the
//! server's mtime ("close-to-open" consistency). The paper leans on
//! this: "The behavior of Kosha in the presence of client caching also
//! remains the same as that of NFS" (§4.1.1). [`CachingClient`] binds an
//! [`NfsClient`] to one server (a real per-node server *or* the koshad
//! virtual server). [`CachingClient::plain`] has no cache: every method
//! is the [`NfsClient`] call of the same name and nothing else, so each
//! operation's cost is visible (the Table 1/2 configuration).
//! [`CachingClient::new`] has exactly the kernel client's semantics:
//!
//! * **attributes** are served from cache within 3 s of the last
//!   fetch, then revalidated with one GETATTR;
//! * **directory entries** (LOOKUP results) are cached, including
//!   negative entries, with the same TTL;
//! * **file data** is cached whole-file up to 1 MiB a file and 32 MiB in
//!   all, and revalidated by mtime comparison whenever the attribute
//!   entry is refreshed — the close-to-open model;
//! * **mutations** write through and invalidate the affected entries;
//!   one that adds, removes or renames a name also drops the cached
//!   attributes of the directory (or both directories) it changed,
//!   because the reply carries no post-op attributes for them.
//!
//! The consistency trade-off is the standard NFS one: a reader may
//! observe data up to 3 s stale; tests pin down both the hit
//! behavior and the staleness window.

use crate::client::{ClientDirEntry, NfsClient};
use crate::messages::{Fh, NfsError, NfsResult, NfsStatus};
use kosha_rpc::{Bytes, Clock, NodeAddr, SimTime};
use kosha_vfs::{Attr, SetAttr};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// How long attributes and directory entries are trusted without
/// revalidation (Linux's default `acregmin`).
const ATTR_TTL: Duration = Duration::from_secs(3);

/// File contents are cached whole up to this size.
const MAX_CACHED_FILE: usize = 1 << 20;

/// Total bytes of file data kept; the least recently used entries are
/// evicted first.
const DATA_CAPACITY: usize = 32 << 20;

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

fn tally(stat: &AtomicU64) {
    stat.fetch_add(1, Ordering::Relaxed);
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

/// An NFS client bound to one server address, caching or not.
pub struct CachingClient {
    inner: NfsClient,
    server: NodeAddr,
    clock: Arc<dyn Clock>,
    /// False is the cache-less form: every method tests this once, makes
    /// the plain call, and the tables below stay empty.
    cached: bool,
    // lint: allow(L008) client cache: TTL-expired on access and dropped wholesale by clear(); process-scoped, not node state
    attrs: Mutex<HashMap<Fh, AttrEntry>>,
    // lint: allow(L008) client cache: TTL-expired on access and dropped wholesale by clear()
    dentries: Mutex<HashMap<(Fh, String), CachedDentry>>,
    // lint: allow(L008) client cache: capacity-evicted (oldest-first) on insert and dropped wholesale by clear()
    data: Mutex<HashMap<Fh, DataEntry>>,
    data_bytes: AtomicU64,
    stats: CacheStats,
}

impl CachingClient {
    /// Wraps `inner` (bound to `server`) with caches that age on the
    /// transport's clock.
    pub fn new(inner: NfsClient, server: NodeAddr) -> Self {
        CachingClient {
            cached: true,
            ..Self::plain(inner, server)
        }
    }

    /// Binds `inner` to `server` with no cache at all.
    pub fn plain(inner: NfsClient, server: NodeAddr) -> Self {
        CachingClient {
            clock: inner.clock(),
            inner,
            server,
            cached: false,
            attrs: Mutex::new(HashMap::new()),
            dentries: Mutex::new(HashMap::new()),
            data: Mutex::new(HashMap::new()),
            data_bytes: AtomicU64::new(0),
            stats: CacheStats::default(),
        }
    }

    /// Cache counters (all zero in the cache-less form).
    #[must_use]
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Drops every cached entry (umount / failover).
    pub fn flush(&self) {
        self.attrs.lock().clear();
        self.dentries.lock().clear();
        self.data.lock().clear();
        self.data_bytes.store(0, Ordering::Relaxed);
    }

    fn fresh(&self, fetched: SimTime) -> bool {
        self.clock.now().since(fetched) < ATTR_TTL
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

    fn remember_name(&self, key: (Fh, String), entry: DentryEntry) {
        let fetched = self.clock.now();
        self.dentries
            .lock()
            .insert(key, CachedDentry { entry, fetched });
    }

    /// What every creating procedure leaves behind: the new object's
    /// attributes and a positive dentry, replacing a negative one, and
    /// no attributes for the directory that gained the name.
    fn prime(&self, dir: Fh, name: &str, made: NfsResult<(Fh, Attr)>) -> NfsResult<(Fh, Attr)> {
        if let (true, Ok((fh, attr))) = (self.cached, &made) {
            self.invalidate_fh(dir);
            self.remember_attr(*fh, attr);
            self.remember_name((dir, name.to_string()), DentryEntry::Positive(*fh));
        }
        made
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

    /// Forgets the name, the directory's attributes and, if the cache
    /// knew which object the name named, that object.
    fn invalidate_entry(&self, dir: Fh, name: &str) {
        self.invalidate_fh(dir);
        let gone = self.dentries.lock().remove(&(dir, name.to_string()));
        if let Some(DentryEntry::Positive(fh)) = gone.map(|d| d.entry) {
            self.invalidate_fh(fh);
        }
    }

    // ---- operations ---------------------------------------------------

    /// MOUNT (uncached).
    pub fn mount(&self) -> NfsResult<Fh> {
        self.inner.mount(self.server)
    }

    /// GETATTR with TTL caching.
    pub fn getattr(&self, fh: Fh) -> NfsResult<Attr> {
        if !self.cached {
            return self.inner.getattr(self.server, fh);
        }
        if let Some(e) = self.attrs.lock().get(&fh) {
            if self.fresh(e.fetched) {
                tally(&self.stats.attr_hits);
                return Ok(e.attr.clone());
            }
        }
        tally(&self.stats.attr_misses);
        let attr = self.inner.getattr(self.server, fh)?;
        self.remember_attr(fh, &attr);
        Ok(attr)
    }

    /// LOOKUP with dentry caching (positive and negative entries).
    pub fn lookup(&self, dir: Fh, name: &str) -> NfsResult<(Fh, Attr)> {
        if !self.cached {
            return self.inner.lookup(self.server, dir, name);
        }
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
            tally(&self.stats.dentry_hits);
            return match hit {
                Some(fh) => Ok((fh, self.getattr(fh)?)),
                None => Err(NfsError::Status(NfsStatus::NoEnt)),
            };
        }
        tally(&self.stats.dentry_misses);
        match self.inner.lookup(self.server, dir, name) {
            Ok((fh, attr)) => {
                self.remember_attr(fh, &attr);
                self.remember_name(key, DentryEntry::Positive(fh));
                Ok((fh, attr))
            }
            Err(NfsError::Status(NfsStatus::NoEnt)) => {
                self.remember_name(key, DentryEntry::Negative);
                Err(NfsError::Status(NfsStatus::NoEnt))
            }
            Err(e) => Err(e),
        }
    }

    /// Whole-file READ in `chunk`-byte transfers through the data cache,
    /// with close-to-open revalidation: `attr` is what this client
    /// returned for `fh` just now (the caller's LOOKUP or GETATTR, fresh
    /// or revalidated), and the cached copy is served only if it was
    /// taken at that mtime. The caller has checked the type.
    pub fn read_whole(&self, fh: Fh, attr: &Attr, chunk: u32) -> NfsResult<Bytes> {
        if !self.cached {
            return self.inner.read_whole(self.server, fh, attr.size, chunk);
        }
        {
            let mut data = self.data.lock();
            if let Some(e) = data.get_mut(&fh) {
                if e.mtime == attr.mtime {
                    e.last_used = self.clock.now();
                    tally(&self.stats.data_hits);
                    return Ok(e.data.clone());
                }
            }
        }
        tally(&self.stats.data_misses);
        let out = self.inner.read_whole(self.server, fh, attr.size, chunk)?;
        if out.len() <= MAX_CACHED_FILE {
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
        let cap = DATA_CAPACITY as u64;
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

    /// READ of a byte range (uncached: only whole files are kept).
    pub fn read(&self, fh: Fh, offset: u64, count: u32) -> NfsResult<(Bytes, bool)> {
        self.inner.read(self.server, fh, offset, count)
    }

    /// WRITE: write-through, then update caches with the new reality.
    pub fn write(&self, fh: Fh, offset: u64, data: &[u8]) -> NfsResult<u32> {
        let n = self.inner.write(self.server, fh, offset, data)?;
        if self.cached {
            // The server-side mtime changed; drop cached attr + data.
            self.invalidate_fh(fh);
        }
        Ok(n)
    }

    /// SETATTR: write-through + invalidate.
    pub fn setattr(&self, fh: Fh, sattr: SetAttr) -> NfsResult<Attr> {
        let attr = self.inner.setattr(self.server, fh, sattr)?;
        if self.cached {
            self.invalidate_fh(fh);
            self.remember_attr(fh, &attr);
        }
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
        let made = self.inner.create(self.server, dir, name, mode, uid, gid);
        self.prime(dir, name, made)
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
        let made = self.inner.mkdir(self.server, dir, name, mode, uid, gid);
        self.prime(dir, name, made)
    }

    /// SYMLINK: write-through + prime, so a name that was looked up and
    /// missed is not still missing.
    pub fn symlink(
        &self,
        dir: Fh,
        name: &str,
        target: &str,
        mode: u32,
        uid: u32,
        gid: u32,
    ) -> NfsResult<(Fh, Attr)> {
        let made = self
            .inner
            .symlink(self.server, dir, name, target, mode, uid, gid);
        self.prime(dir, name, made)
    }

    /// READLINK (uncached).
    pub fn readlink(&self, fh: Fh) -> NfsResult<String> {
        self.inner.readlink(self.server, fh)
    }

    /// REMOVE: write-through + invalidate the dentry and object.
    pub fn remove(&self, dir: Fh, name: &str) -> NfsResult<()> {
        self.inner.remove(self.server, dir, name)?;
        if self.cached {
            self.invalidate_entry(dir, name);
        }
        Ok(())
    }

    /// RMDIR: write-through + invalidate.
    pub fn rmdir(&self, dir: Fh, name: &str) -> NfsResult<()> {
        self.inner.rmdir(self.server, dir, name)?;
        if self.cached {
            self.invalidate_entry(dir, name);
        }
        Ok(())
    }

    /// Extension: recursive subtree removal. Write-through. Names are
    /// cached by parent handle, so finding what was below `name` is a
    /// walk that trusts the cache to know the whole subtree; the call is
    /// rare, and dropping everything is right whatever the cache held.
    pub fn remove_tree(&self, dir: Fh, name: &str) -> NfsResult<()> {
        self.inner.remove_tree(self.server, dir, name)?;
        if self.cached {
            self.flush();
        }
        Ok(())
    }

    /// RENAME: write-through; both dentries and both directories'
    /// attributes invalidated (the object's handle survives a rename, so
    /// its attr/data entries stay valid).
    pub fn rename(&self, sdir: Fh, sname: &str, ddir: Fh, dname: &str) -> NfsResult<()> {
        self.inner.rename(self.server, sdir, sname, ddir, dname)?;
        if self.cached {
            for (dir, name) in [(sdir, sname), (ddir, dname)] {
                self.invalidate_fh(dir);
                self.invalidate_dentry(dir, name);
            }
        }
        Ok(())
    }

    /// READDIR (uncached: listings change shape too easily; kernel
    /// clients cache these with separate, shorter TTLs).
    pub fn readdir(&self, dir: Fh) -> NfsResult<Vec<ClientDirEntry>> {
        self.inner.readdir(self.server, dir)
    }

    /// ACCESS (uncached).
    pub fn access(&self, fh: Fh, uid: u32, gid: u32, want: u32) -> NfsResult<u32> {
        self.inner.access(self.server, fh, uid, gid, want)
    }

    /// COMMIT (nothing cached depends on it: writes go through).
    pub fn commit(&self, fh: Fh) -> NfsResult<()> {
        self.inner.commit(self.server, fh)
    }

    /// FSSTAT (uncached).
    pub fn fsstat(&self) -> NfsResult<(u64, u64, u64)> {
        self.inner.fsstat(self.server)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{DiskModel, NfsServer};
    use kosha_rpc::{LatencyModel, Network, ServiceId, ServiceMux, SimNetwork};
    use kosha_vfs::{FileType, Vfs};

    const SERVER: NodeAddr = NodeAddr(1);
    const CLIENT: NodeAddr = NodeAddr(2);

    /// Open-and-read, as the mount does it: revalidate, then the data.
    fn read_file(cc: &CachingClient, fh: Fh) -> NfsResult<Bytes> {
        let attr = cc.getattr(fh)?;
        cc.read_whole(fh, &attr, 4096)
    }

    /// A caching client of a server whose store holds twice the data
    /// cache.
    fn setup() -> (Arc<SimNetwork>, CachingClient) {
        let net = SimNetwork::new(LatencyModel::zero());
        let store = Vfs::new(2 * DATA_CAPACITY as u64);
        let server = NfsServer::new(store, net.clock(), DiskModel::zero());
        let mux = Arc::new(ServiceMux::new());
        mux.register(ServiceId::Nfs, server);
        net.attach(SERVER, mux);
        net.attach(CLIENT, Arc::new(ServiceMux::new()));
        let inner = NfsClient::new(net.clone() as Arc<dyn Network>, CLIENT);
        (net, CachingClient::new(inner, SERVER))
    }

    #[test]
    fn attr_cache_hits_within_ttl() {
        let (net, cc) = setup();
        let root = cc.mount().unwrap();
        let (fh, _) = cc.create(root, "f", 0o644, 0, 0).unwrap();
        cc.getattr(fh).unwrap();
        cc.getattr(fh).unwrap();
        cc.getattr(fh).unwrap();
        let (hits, misses, ..) = cc.stats().snapshot();
        assert!(hits >= 3, "hits {hits}"); // create primed the cache
        assert_eq!(misses, 0);
        // Advance past the TTL: next getattr goes to the server.
        net.virtual_clock()
            .advance(ATTR_TTL + Duration::from_secs(1));
        cc.getattr(fh).unwrap();
        let (_, misses, ..) = cc.stats().snapshot();
        assert_eq!(misses, 1);
    }

    #[test]
    fn dentry_cache_covers_negative_lookups() {
        let (_net, cc) = setup();
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
        let (net, cc) = setup();
        let root = cc.mount().unwrap();
        let (fh, _) = cc.create(root, "f", 0o644, 0, 0).unwrap();
        cc.write(fh, 0, b"version one").unwrap();
        assert_eq!(read_file(&cc, fh).unwrap(), b"version one");
        assert_eq!(read_file(&cc, fh).unwrap(), b"version one");
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
        assert_eq!(read_file(&cc, fh).unwrap(), b"version one");
        // …after the TTL, revalidation sees the new mtime and refetches.
        net.virtual_clock()
            .advance(ATTR_TTL + Duration::from_secs(1));
        assert_eq!(read_file(&cc, fh).unwrap(), b"version TWO");
    }

    #[test]
    fn own_writes_are_read_back_immediately() {
        let (_net, cc) = setup();
        let root = cc.mount().unwrap();
        let (fh, _) = cc.create(root, "f", 0o644, 0, 0).unwrap();
        cc.write(fh, 0, b"first").unwrap();
        assert_eq!(read_file(&cc, fh).unwrap(), b"first");
        cc.write(fh, 0, b"second").unwrap();
        assert_eq!(read_file(&cc, fh).unwrap(), b"second");
    }

    #[test]
    fn remove_invalidates_dentry_and_data() {
        let (_net, cc) = setup();
        let root = cc.mount().unwrap();
        let (fh, _) = cc.create(root, "f", 0o644, 0, 0).unwrap();
        cc.write(fh, 0, b"bye").unwrap();
        read_file(&cc, fh).unwrap();
        cc.remove(root, "f").unwrap();
        assert!(cc.lookup(root, "f").is_err());
        // The handle is gone server-side; the cache must not resurrect it.
        assert!(read_file(&cc, fh).is_err());
    }

    #[test]
    fn eviction_respects_capacity() {
        let (_net, cc) = setup();
        let root = cc.mount().unwrap();
        let files = DATA_CAPACITY / MAX_CACHED_FILE + 2;
        let mut fhs = Vec::new();
        for i in 0..files {
            let (fh, _) = cc.create(root, &format!("f{i}"), 0o644, 0, 0).unwrap();
            cc.write(fh, 0, &vec![i as u8; MAX_CACHED_FILE]).unwrap();
            let attr = cc.getattr(fh).unwrap();
            cc.read_whole(fh, &attr, 1 << 16).unwrap();
            fhs.push(fh);
        }
        let kept = cc.data_bytes.load(Ordering::Relaxed);
        assert!(
            kept <= DATA_CAPACITY as u64,
            "cache exceeded capacity: {kept}"
        );
        assert!(kept > 0, "nothing was cached");
        // All files still readable (evicted ones refetch).
        for (i, fh) in fhs.iter().enumerate() {
            let attr = cc.getattr(*fh).unwrap();
            let data = cc.read_whole(*fh, &attr, 1 << 16).unwrap();
            assert_eq!(data, vec![i as u8; MAX_CACHED_FILE]);
        }
    }

    #[test]
    fn plain_form_keeps_nothing_and_counts_nothing() {
        let (net, _) = setup();
        let inner = NfsClient::new(net.clone() as Arc<dyn Network>, CLIENT);
        let cc = CachingClient::plain(inner, SERVER);
        let root = cc.mount().unwrap();
        let (fh, _) = cc.create(root, "f", 0o644, 0, 0).unwrap();
        cc.write(fh, 0, b"through").unwrap();
        assert!(cc.lookup(root, "ghost").is_err());
        cc.symlink(root, "ghost", "f", 0o777, 0, 0).unwrap();
        assert_eq!(cc.lookup(root, "ghost").unwrap().1.ftype, FileType::Symlink);
        assert_eq!(read_file(&cc, fh).unwrap(), b"through");
        cc.rename(root, "f", root, "g").unwrap();
        cc.remove(root, "g").unwrap();
        assert_eq!(cc.stats().snapshot(), (0, 0, 0, 0, 0, 0));
        assert!(cc.attrs.lock().is_empty() && cc.dentries.lock().is_empty());
        assert!(cc.data.lock().is_empty());
    }
}
