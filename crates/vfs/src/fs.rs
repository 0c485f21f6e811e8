//! The filesystem proper: an inode table with directory tree, quota
//! accounting, and handle-generation management.

use crate::error::VfsError;
use crate::inode::{Attr, FileId, FileType, Ino};
use crate::path::{components, join_path, normalized, validate_name};
use bytes::Bytes;
use kosha_obs::fxhash::FxBuild;
use std::collections::{BTreeMap, HashMap};
use std::mem;

/// File payload: the file's bytes, as one buffer or in parts.
///
/// The bytes are refcounted buffers that readers, exports and WRITEs
/// share with the store, under two conditions every change keeps: each
/// stored buffer, each part included, is whole ([`Bytes::is_whole`]: a
/// file pins its own length, never a larger allocation it is a piece
/// of), and a buffer another handle shares is replaced, never changed.
/// Appends in buffers somebody else holds too are kept as parts (see
/// [`Vfs::write_bytes`]) until a READ, a resize or an export joins them.
#[derive(Debug, Clone)]
enum Payload {
    Bytes(Bytes),
    /// Two to `MAX_PARTS` whole, non-empty buffers, in file order.
    Parts(Vec<Bytes>),
}

/// The most parts a file keeps: the append that would add one more
/// joins them instead, so the length stays a bounded sum.
const MAX_PARTS: usize = 16;

/// `old`'s bytes in a vector of their own, with room for `len`.
fn unshared(old: &[u8], len: usize) -> Vec<u8> {
    let mut v = Vec::with_capacity(len.max(old.len()));
    v.extend_from_slice(old);
    v
}

impl Payload {
    fn len(&self) -> u64 {
        match self {
            Payload::Bytes(b) => b.len() as u64,
            Payload::Parts(parts) => parts.iter().map(|p| p.len() as u64).sum(),
        }
    }

    /// Whether an append may be one more part: there is room for one, and
    /// the last buffer has another holder, so it cannot grow in place.
    fn takes_part(&self) -> bool {
        match self {
            Payload::Bytes(b) => !b.is_unique(),
            Payload::Parts(p) => p.len() < MAX_PARTS && p.last().is_some_and(|b| !b.is_unique()),
        }
    }

    /// The bytes as one buffer, the parts first joined into a vector of
    /// the store's own with room for `room` bytes.
    fn joined(&mut self, room: usize) -> &mut Bytes {
        if let Payload::Parts(parts) = self {
            let mut v = Vec::with_capacity(room.max(parts.iter().map(|p| p.len()).sum()));
            parts.iter().for_each(|p| v.extend_from_slice(p));
            *self = Payload::Bytes(v.into());
        }
        match self {
            Payload::Bytes(b) => b,
            Payload::Parts(_) => unreachable!("parts were just joined"),
        }
    }
}

#[derive(Debug, Clone)]
enum Kind {
    File(Payload),
    Dir(BTreeMap<String, Ino>),
    Symlink(String),
}

#[derive(Debug, Clone)]
struct Inode {
    attr: Attr,
    kind: Kind,
    parent: Ino,
}

/// Payload of one exported object (see [`Vfs::export_tree`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExportKind {
    /// A directory (children follow as separate items).
    Dir,
    /// A regular file with real contents: the stored buffer itself, by
    /// refcount.
    Bytes(Bytes),
    /// A symbolic link.
    Symlink {
        /// Link target.
        target: String,
    },
}

/// One object in a tree export, used for migration and replica pushes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExportItem {
    /// Path relative to the exported root; empty for the root itself.
    pub rel_path: String,
    /// Object payload.
    pub kind: ExportKind,
    /// Permission bits.
    pub mode: u32,
    /// Owner uid.
    pub uid: u32,
    /// Owner gid.
    pub gid: u32,
}

/// ACCESS bit: read the object / list the directory.
pub const ACCESS_READ: u32 = 0x1;
/// ACCESS bit: modify the object / add or remove directory entries.
pub const ACCESS_WRITE: u32 = 0x2;
/// ACCESS bit: execute the file / traverse the directory (LOOKUP).
pub const ACCESS_EXEC: u32 = 0x4;

/// One directory entry as returned by [`Vfs::readdir`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DirEntry {
    /// Entry name.
    pub name: String,
    /// Identity of the object.
    pub id: FileId,
    /// Object type (saves a getattr round trip, like READDIRPLUS).
    pub ftype: FileType,
}

/// Attribute updates for `setattr`, modeled on NFSv3 `sattr3` (each field
/// optional).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SetAttr {
    /// New permission bits.
    pub mode: Option<u32>,
    /// New owner.
    pub uid: Option<u32>,
    /// New group.
    pub gid: Option<u32>,
    /// Truncate/extend to this size (regular files only).
    pub size: Option<u64>,
    /// Set access time.
    pub atime: Option<u64>,
    /// Set modification time.
    pub mtime: Option<u64>,
}

impl SetAttr {
    /// True if no field is set.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.mode.is_none()
            && self.uid.is_none()
            && self.gid.is_none()
            && self.size.is_none()
            && self.atime.is_none()
            && self.mtime.is_none()
    }
}

/// A node's contributed storage partition. Not internally synchronized:
/// the owning server wraps it in a lock.
///
/// ```
/// use kosha_vfs::Vfs;
/// let mut v = Vfs::new(1 << 20); // 1 MiB contributed
/// let dir = v.mkdir_p("/home/alice", 0o755).unwrap();
/// let (f, _) = v.create(dir, "notes.txt", 0o644, 1000, 1000).unwrap();
/// v.write(f, 0, b"hello").unwrap();
/// assert_eq!(v.read(f, 0, 64).unwrap().0, b"hello");
/// assert_eq!(v.used_bytes(), 5);
/// ```
#[derive(Debug)]
pub struct Vfs {
    /// Fx-hashed: every NFS operation probes it at least once.
    inodes: HashMap<Ino, Inode, FxBuild>,
    root: Ino,
    next_ino: Ino,
    generation: u32,
    capacity: u64,
    used: u64,
    now: u64,
}

impl Vfs {
    /// Creates an empty store with a capacity quota in bytes.
    #[must_use]
    pub fn new(capacity: u64) -> Self {
        let mut inodes = HashMap::default();
        let root: Ino = 1;
        inodes.insert(
            root,
            Inode {
                attr: Attr::new(FileType::Directory, 0o755, 0, 0, 0),
                kind: Kind::Dir(BTreeMap::new()),
                parent: root,
            },
        );
        Vfs {
            inodes,
            root,
            next_ino: 2,
            generation: 1,
            capacity,
            used: 0,
            now: 0,
        }
    }

    /// Sets the current time used to stamp subsequent operations.
    pub fn set_now(&mut self, now: u64) {
        self.now = now;
    }

    /// Root directory handle.
    #[must_use]
    pub fn root(&self) -> FileId {
        FileId {
            ino: self.root,
            gen: self.generation,
        }
    }

    /// `(capacity, used, free)` in bytes.
    #[must_use]
    pub fn fsstat(&self) -> (u64, u64, u64) {
        (
            self.capacity,
            self.used,
            self.capacity.saturating_sub(self.used),
        )
    }

    /// Bytes currently charged against the quota.
    #[must_use]
    pub fn used_bytes(&self) -> u64 {
        self.used
    }

    /// The capacity quota.
    #[must_use]
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Adjusts the quota (administrator resizing the contributed partition).
    pub fn set_capacity(&mut self, capacity: u64) {
        self.capacity = capacity;
    }

    /// Fraction of capacity in use, `0.0..=1.0` (0 if capacity is 0).
    #[must_use]
    pub fn utilization(&self) -> f64 {
        if self.capacity == 0 {
            0.0
        } else {
            self.used as f64 / self.capacity as f64
        }
    }

    /// Discards all contents and invalidates every outstanding handle, as
    /// when a reincarnated node purges stale replicas (Section 4.3).
    pub fn purge(&mut self) {
        self.inodes.clear();
        self.generation += 1;
        self.used = 0;
        self.inodes.insert(
            self.root,
            Inode {
                attr: Attr::new(FileType::Directory, 0o755, 0, 0, self.now),
                kind: Kind::Dir(BTreeMap::new()),
                parent: self.root,
            },
        );
    }

    // ---- internal helpers -------------------------------------------------

    fn get(&self, id: FileId) -> Result<&Inode, VfsError> {
        if id.gen != self.generation {
            return Err(VfsError::Stale);
        }
        self.inodes.get(&id.ino).ok_or(VfsError::Stale)
    }

    fn get_mut(&mut self, id: FileId) -> Result<&mut Inode, VfsError> {
        if id.gen != self.generation {
            return Err(VfsError::Stale);
        }
        self.inodes.get_mut(&id.ino).ok_or(VfsError::Stale)
    }

    fn dir_entries(&self, id: FileId) -> Result<&BTreeMap<String, Ino>, VfsError> {
        match &self.get(id)?.kind {
            Kind::Dir(m) => Ok(m),
            _ => Err(VfsError::NotDir),
        }
    }

    fn id_of(&self, ino: Ino) -> FileId {
        FileId {
            ino,
            gen: self.generation,
        }
    }

    fn alloc_ino(&mut self) -> Ino {
        let ino = self.next_ino;
        self.next_ino += 1;
        ino
    }

    fn charge(&mut self, delta: u64) -> Result<(), VfsError> {
        if self.used.saturating_add(delta) > self.capacity {
            return Err(VfsError::NoSpc);
        }
        self.used += delta;
        Ok(())
    }

    fn release(&mut self, delta: u64) {
        self.used = self.used.saturating_sub(delta);
    }

    /// True if `anc` is `ino` or an ancestor of `ino`.
    fn is_ancestor(&self, anc: Ino, mut ino: Ino) -> bool {
        loop {
            if ino == anc {
                return true;
            }
            if ino == self.root {
                return false;
            }
            match self.inodes.get(&ino) {
                Some(n) => ino = n.parent,
                None => return false,
            }
        }
    }

    // ---- lookups ----------------------------------------------------------

    /// Looks up `name` in directory `dir`.
    pub fn lookup(&self, dir: FileId, name: &str) -> Result<(FileId, Attr), VfsError> {
        validate_name(name)?;
        let entries = self.dir_entries(dir)?;
        let ino = *entries.get(name).ok_or(VfsError::NoEnt)?;
        let inode = self.inodes.get(&ino).ok_or(VfsError::Stale)?;
        Ok((self.id_of(ino), inode.attr.clone()))
    }

    /// Resolves an absolute path of directories (no symlink following —
    /// special links are interpreted by the Kosha layer, not here).
    pub fn resolve(&self, path: &str) -> Result<(FileId, Attr), VfsError> {
        let path = normalized(path)?;
        let mut cur = self.root();
        for c in components(&path) {
            let (next, _) = self.lookup(cur, c)?;
            cur = next;
        }
        let attr = self.get(cur)?.attr.clone();
        Ok((cur, attr))
    }

    /// Object attributes.
    pub fn getattr(&self, id: FileId) -> Result<Attr, VfsError> {
        Ok(self.get(id)?.attr.clone())
    }

    /// POSIX-style access check (the NFSv3 ACCESS primitive): which of
    /// the requested permission bits (`ACCESS_READ`/`WRITE`/`EXEC`) the
    /// given identity holds on the object. Root (uid 0) is granted
    /// everything, as in classic NFS servers without root squashing.
    pub fn access(&self, id: FileId, uid: u32, gid: u32, want: u32) -> Result<u32, VfsError> {
        let attr = &self.get(id)?.attr;
        if uid == 0 {
            return Ok(want);
        }
        let class_shift = if uid == attr.uid {
            6
        } else if gid == attr.gid {
            3
        } else {
            0
        };
        let bits = (attr.mode >> class_shift) & 0o7;
        let mut granted = 0;
        if want & ACCESS_READ != 0 && bits & 0o4 != 0 {
            granted |= ACCESS_READ;
        }
        if want & ACCESS_WRITE != 0 && bits & 0o2 != 0 {
            granted |= ACCESS_WRITE;
        }
        if want & ACCESS_EXEC != 0 && bits & 0o1 != 0 {
            granted |= ACCESS_EXEC;
        }
        Ok(granted)
    }

    /// Applies attribute updates; size changes re-charge the quota.
    pub fn setattr(&mut self, id: FileId, set: &SetAttr) -> Result<Attr, VfsError> {
        let now = self.now;
        // Size change first (it can fail on quota).
        if let Some(new_size) = set.size {
            let old_size = {
                let inode = self.get(id)?;
                match &inode.kind {
                    Kind::File(p) => p.len(),
                    Kind::Dir(_) => return Err(VfsError::IsDir),
                    Kind::Symlink(_) => return Err(VfsError::NotFile),
                }
            };
            if new_size > old_size {
                self.charge(new_size - old_size)?;
            } else {
                self.release(old_size - new_size);
            }
            let inode = self.get_mut(id)?;
            if let Kind::File(p) = &mut inode.kind {
                let len = new_size as usize;
                let b = p.joined(len);
                if len < b.len() {
                    // A view of the head would pin the old tail.
                    *b = Bytes::copy_from_slice(&b[..len]);
                } else if len > b.len() && b.with_unique(|v| v.resize(len, 0)).is_none() {
                    let mut v = unshared(b, len);
                    v.resize(len, 0);
                    *b = v.into();
                }
            }
            inode.attr.size = new_size;
            inode.attr.mtime = now;
        }
        let inode = self.get_mut(id)?;
        if let Some(m) = set.mode {
            inode.attr.mode = m & 0o7777;
        }
        if let Some(u) = set.uid {
            inode.attr.uid = u;
        }
        if let Some(g) = set.gid {
            inode.attr.gid = g;
        }
        if let Some(a) = set.atime {
            inode.attr.atime = a;
        }
        if let Some(m) = set.mtime {
            inode.attr.mtime = m;
        }
        inode.attr.ctime = now;
        Ok(inode.attr.clone())
    }

    // ---- creation ---------------------------------------------------------

    fn insert_child(
        &mut self,
        dir: FileId,
        name: &str,
        kind: Kind,
        mode: u32,
        uid: u32,
        gid: u32,
    ) -> Result<(FileId, Attr), VfsError> {
        validate_name(name)?;
        let is_dir = matches!(kind, Kind::Dir(_));
        // Verify parent is a dir and name free, before allocating.
        {
            let entries = self.dir_entries(dir)?;
            if entries.contains_key(name) {
                return Err(VfsError::Exist);
            }
        }
        // A store whose quota was set below its use takes no new object.
        if self.used > self.capacity {
            return Err(VfsError::NoSpc);
        }
        let ino = self.alloc_ino();
        let ftype = match &kind {
            Kind::File(_) => FileType::Regular,
            Kind::Dir(_) => FileType::Directory,
            Kind::Symlink(_) => FileType::Symlink,
        };
        let mut attr = Attr::new(ftype, mode, uid, gid, self.now);
        if let Kind::Symlink(t) = &kind {
            attr.size = t.len() as u64;
        }
        self.inodes.insert(
            ino,
            Inode {
                attr: attr.clone(),
                kind,
                parent: dir.ino,
            },
        );
        let now = self.now;
        let parent = self.inodes.get_mut(&dir.ino).expect("parent exists");
        if let Kind::Dir(entries) = &mut parent.kind {
            entries.insert(name.to_string(), ino);
            parent.attr.mtime = now;
            parent.attr.ctime = now;
            if is_dir {
                parent.attr.nlink += 1;
            }
        }
        Ok((self.id_of(ino), attr))
    }

    /// Creates an empty regular file.
    pub fn create(
        &mut self,
        dir: FileId,
        name: &str,
        mode: u32,
        uid: u32,
        gid: u32,
    ) -> Result<(FileId, Attr), VfsError> {
        self.insert_child(
            dir,
            name,
            Kind::File(Payload::Bytes(Bytes::new())),
            mode,
            uid,
            gid,
        )
    }

    /// Creates a directory.
    pub fn mkdir(
        &mut self,
        dir: FileId,
        name: &str,
        mode: u32,
        uid: u32,
        gid: u32,
    ) -> Result<(FileId, Attr), VfsError> {
        self.insert_child(dir, name, Kind::Dir(BTreeMap::new()), mode, uid, gid)
    }

    /// Creates every missing component of `path` as a directory and
    /// returns the final directory (like `mkdir -p`).
    pub fn mkdir_p(&mut self, path: &str, mode: u32) -> Result<FileId, VfsError> {
        let path = normalized(path)?;
        let mut cur = self.root();
        for c in components(&path) {
            cur = match self.lookup(cur, c) {
                Ok((id, attr)) => {
                    if attr.ftype != FileType::Directory {
                        return Err(VfsError::NotDir);
                    }
                    id
                }
                Err(VfsError::NoEnt) => self.mkdir(cur, c, mode, 0, 0)?.0,
                Err(e) => return Err(e),
            };
        }
        Ok(cur)
    }

    /// Creates a symbolic link whose target is `target`. Kosha special
    /// links store `"{name}#{salt}"` here and set the sticky bit
    /// (`0o1777`) in `mode` to distinguish themselves from user symlinks
    /// (`0o777`).
    pub fn symlink(
        &mut self,
        dir: FileId,
        name: &str,
        target: &str,
        mode: u32,
        uid: u32,
        gid: u32,
    ) -> Result<(FileId, Attr), VfsError> {
        self.insert_child(dir, name, Kind::Symlink(target.to_string()), mode, uid, gid)
    }

    /// Reads a symlink's target.
    pub fn readlink(&self, id: FileId) -> Result<String, VfsError> {
        match &self.get(id)?.kind {
            Kind::Symlink(t) => Ok(t.clone()),
            _ => Err(VfsError::NotSupp),
        }
    }

    // ---- data -------------------------------------------------------------

    /// Reads up to `count` bytes at `offset`; returns the data and an EOF
    /// flag. The data is a view of the stored buffer: nothing is copied
    /// and nothing allocated (but the first READ of a file kept in parts
    /// joins them, once). The view keeps the bytes it was taken over
    /// whatever happens to the file afterwards (see [`Vfs::write_bytes`]),
    /// and until it is dropped it pins the file's whole buffer as of the
    /// read, not only the range asked for.
    pub fn read(&mut self, id: FileId, offset: u64, count: u32) -> Result<(Bytes, bool), VfsError> {
        let now = self.now;
        let inode = self.get_mut(id)?;
        let payload = match &mut inode.kind {
            Kind::File(p) => p,
            Kind::Dir(_) => return Err(VfsError::IsDir),
            Kind::Symlink(_) => return Err(VfsError::NotFile),
        };
        inode.attr.atime = now;
        let size = payload.len();
        let start = offset.min(size);
        let end = offset.saturating_add(u64::from(count)).min(size);
        let eof = end >= size;
        Ok((payload.joined(0).slice(start as usize..end as usize), eof))
    }

    /// Writes `data` at `offset`, extending the file if needed. Growth is
    /// charged against the quota; on `NoSpc` nothing is modified. The
    /// borrowed entry into [`Vfs::write_bytes`]: with no buffer to adopt,
    /// the bytes are copied into the file's own.
    pub fn write(&mut self, id: FileId, offset: u64, data: &[u8]) -> Result<u32, VfsError> {
        self.store(id, offset, data, None)
    }

    /// [`Vfs::write`] of a buffer the store may keep. One rule decides
    /// what happens to the bytes, for every caller, in this order:
    ///
    /// 1. `data` is a whole buffer ([`Bytes::is_whole`]) covering the
    ///    file (a first write, a whole-file overwrite): it becomes the
    ///    file's buffer, whoever else holds it or the old one;
    /// 2. `data` is a whole buffer appended exactly at the end, and the
    ///    file's last buffer has another holder (a reader's view, an
    ///    export, a co-hosted replica that kept the same WRITE): it
    ///    becomes one more part of the file, up to sixteen;
    /// 3. otherwise the parts are joined into one buffer, once, and the
    ///    bytes are copied into it: in place if nobody else holds it (so
    ///    a store that alone holds its file grows it, and never keeps
    ///    parts), else into a fresh buffer that replaces the shared one.
    ///
    /// A view that is a piece of a larger buffer (a field of a flat
    /// frame) is never kept, as the file or as a part: it pins the frame.
    pub fn write_bytes(&mut self, id: FileId, offset: u64, data: &Bytes) -> Result<u32, VfsError> {
        self.store(id, offset, data, data.is_whole().then_some(data))
    }

    fn store(
        &mut self,
        id: FileId,
        offset: u64,
        data: &[u8],
        whole: Option<&Bytes>,
    ) -> Result<u32, VfsError> {
        let old_size = {
            let inode = self.get(id)?;
            match &inode.kind {
                Kind::File(p) => p.len(),
                Kind::Dir(_) => return Err(VfsError::IsDir),
                Kind::Symlink(_) => return Err(VfsError::NotFile),
            }
        };
        let end = offset.saturating_add(data.len() as u64);
        if end > old_size {
            self.charge(end - old_size)?;
        }
        let now = self.now;
        let inode = self.get_mut(id)?;
        if let Kind::File(p) = &mut inode.kind {
            let (at, to, size) = (offset as usize, end as usize, old_size as usize);
            match whole {
                // (1) A whole buffer covering the file becomes it.
                Some(data) if at == 0 && to >= size => *p = Payload::Bytes(data.clone()),
                // (2) One appended onto a shared last buffer is a part.
                Some(data) if at == size && to > at && p.takes_part() => {
                    if let Payload::Bytes(b) = p {
                        *p = Payload::Parts(vec![mem::take(b)]);
                    }
                    if let Payload::Parts(parts) = p {
                        parts.push(data.clone());
                    }
                }
                // (3) Anything else is copied once, into one buffer.
                _ => {
                    let b = p.joined(to);
                    let put = |v: &mut Vec<u8>| {
                        if to > v.len() {
                            v.resize(to, 0);
                        }
                        v[at..to].copy_from_slice(data);
                    };
                    if b.with_unique(put).is_none() {
                        let mut v = unshared(b, to);
                        put(&mut v);
                        *b = v.into();
                    }
                }
            }
            inode.attr.size = inode.attr.size.max(end);
            inode.attr.mtime = now;
            inode.attr.ctime = now;
        }
        Ok(data.len() as u32)
    }

    // ---- removal ----------------------------------------------------------

    /// Removes a file or symlink (NFS `REMOVE`).
    pub fn remove(&mut self, dir: FileId, name: &str) -> Result<(), VfsError> {
        validate_name(name)?;
        let ino = {
            let entries = self.dir_entries(dir)?;
            *entries.get(name).ok_or(VfsError::NoEnt)?
        };
        let size = {
            let inode = self.inodes.get(&ino).ok_or(VfsError::Stale)?;
            match &inode.kind {
                Kind::Dir(_) => return Err(VfsError::IsDir),
                Kind::File(p) => p.len(),
                Kind::Symlink(_) => 0,
            }
        };
        let now = self.now;
        if let Some(parent) = self.inodes.get_mut(&dir.ino) {
            if let Kind::Dir(entries) = &mut parent.kind {
                entries.remove(name);
                parent.attr.mtime = now;
                parent.attr.ctime = now;
            }
        }
        self.inodes.remove(&ino);
        self.release(size);
        Ok(())
    }

    /// Removes an empty directory (NFS `RMDIR`).
    pub fn rmdir(&mut self, dir: FileId, name: &str) -> Result<(), VfsError> {
        validate_name(name)?;
        let ino = {
            let entries = self.dir_entries(dir)?;
            *entries.get(name).ok_or(VfsError::NoEnt)?
        };
        {
            let inode = self.inodes.get(&ino).ok_or(VfsError::Stale)?;
            match &inode.kind {
                Kind::Dir(entries) => {
                    if !entries.is_empty() {
                        return Err(VfsError::NotEmpty);
                    }
                }
                _ => return Err(VfsError::NotDir),
            }
        }
        let now = self.now;
        if let Some(parent) = self.inodes.get_mut(&dir.ino) {
            if let Kind::Dir(entries) = &mut parent.kind {
                entries.remove(name);
                parent.attr.nlink -= 1;
                parent.attr.mtime = now;
                parent.attr.ctime = now;
            }
        }
        self.inodes.remove(&ino);
        Ok(())
    }

    /// Recursively removes a directory tree (used when Kosha deletes a
    /// distributed directory's replicated hierarchy). Returns bytes freed.
    pub fn remove_tree(&mut self, dir: FileId, name: &str) -> Result<u64, VfsError> {
        validate_name(name)?;
        let ino = {
            let entries = self.dir_entries(dir)?;
            *entries.get(name).ok_or(VfsError::NoEnt)?
        };
        let before = self.used;
        let was_dir = matches!(self.inodes.get(&ino).map(|i| &i.kind), Some(Kind::Dir(_)));
        self.remove_tree_ino(ino);
        let now = self.now;
        if let Some(parent) = self.inodes.get_mut(&dir.ino) {
            if let Kind::Dir(entries) = &mut parent.kind {
                entries.remove(name);
                if was_dir {
                    parent.attr.nlink = parent.attr.nlink.saturating_sub(1);
                }
                parent.attr.mtime = now;
                parent.attr.ctime = now;
            }
        }
        Ok(before - self.used)
    }

    fn remove_tree_ino(&mut self, ino: Ino) {
        let children: Vec<Ino> = match self.inodes.get(&ino) {
            Some(Inode {
                kind: Kind::Dir(entries),
                ..
            }) => entries.values().copied().collect(),
            _ => Vec::new(),
        };
        for c in children {
            self.remove_tree_ino(c);
        }
        if let Some(inode) = self.inodes.remove(&ino) {
            if let Kind::File(p) = &inode.kind {
                self.release(p.len());
            }
        }
    }

    // ---- rename -----------------------------------------------------------

    /// Renames `sname` in `sdir` to `dname` in `ddir` (NFS `RENAME`).
    ///
    /// POSIX overwrite semantics: an existing regular-file target is
    /// replaced; an existing empty-directory target is replaced by a
    /// directory source; type mismatches and non-empty targets fail. Moving
    /// a directory into its own subtree fails with `Inval`.
    pub fn rename(
        &mut self,
        sdir: FileId,
        sname: &str,
        ddir: FileId,
        dname: &str,
    ) -> Result<(), VfsError> {
        validate_name(sname)?;
        validate_name(dname)?;
        let src_ino = {
            let entries = self.dir_entries(sdir)?;
            *entries.get(sname).ok_or(VfsError::NoEnt)?
        };
        // Destination must be a directory; capture existing target.
        let dst_existing = { self.dir_entries(ddir)?.get(dname).copied() };
        let src_is_dir = matches!(
            self.inodes.get(&src_ino).map(|i| &i.kind),
            Some(Kind::Dir(_))
        );
        // No-op: renaming onto itself.
        if sdir.ino == ddir.ino && sname == dname {
            return Ok(());
        }
        // A directory must not move under itself.
        if src_is_dir && self.is_ancestor(src_ino, ddir.ino) {
            return Err(VfsError::Inval);
        }
        // Handle an existing destination.
        if let Some(dst_ino) = dst_existing {
            if dst_ino == src_ino {
                return Ok(());
            }
            let dst_is_dir = matches!(
                self.inodes.get(&dst_ino).map(|i| &i.kind),
                Some(Kind::Dir(_))
            );
            match (src_is_dir, dst_is_dir) {
                (true, false) => return Err(VfsError::NotDir),
                (false, true) => return Err(VfsError::IsDir),
                (true, true) => {
                    if let Some(Inode {
                        kind: Kind::Dir(entries),
                        ..
                    }) = self.inodes.get(&dst_ino)
                    {
                        if !entries.is_empty() {
                            return Err(VfsError::NotEmpty);
                        }
                    }
                    self.rmdir(ddir, dname)?;
                }
                (false, false) => {
                    self.remove(ddir, dname)?;
                }
            }
        }
        let now = self.now;
        // Unlink from source directory.
        if let Some(parent) = self.inodes.get_mut(&sdir.ino) {
            if let Kind::Dir(entries) = &mut parent.kind {
                entries.remove(sname);
                if src_is_dir {
                    parent.attr.nlink -= 1;
                }
                parent.attr.mtime = now;
                parent.attr.ctime = now;
            }
        }
        // Link into destination directory.
        if let Some(parent) = self.inodes.get_mut(&ddir.ino) {
            if let Kind::Dir(entries) = &mut parent.kind {
                entries.insert(dname.to_string(), src_ino);
                if src_is_dir {
                    parent.attr.nlink += 1;
                }
                parent.attr.mtime = now;
                parent.attr.ctime = now;
            }
        }
        if let Some(node) = self.inodes.get_mut(&src_ino) {
            node.parent = ddir.ino;
            node.attr.ctime = now;
        }
        Ok(())
    }

    // ---- enumeration ------------------------------------------------------

    /// Lists a directory (NFS `READDIRPLUS`-style: names + ids + types).
    pub fn readdir(&self, dir: FileId) -> Result<Vec<DirEntry>, VfsError> {
        let entries = self.dir_entries(dir)?;
        let mut out = Vec::with_capacity(entries.len());
        for (name, &ino) in entries {
            let inode = self.inodes.get(&ino).ok_or(VfsError::Stale)?;
            out.push(DirEntry {
                name: name.clone(),
                id: self.id_of(ino),
                ftype: inode.attr.ftype,
            });
        }
        Ok(out)
    }

    /// Total objects in the store (including the root directory).
    #[must_use]
    pub fn object_count(&self) -> usize {
        self.inodes.len()
    }

    /// Walks the whole tree, invoking `f(path, attr)` for every object
    /// below the root (used by migration and the experiment harnesses).
    pub fn walk<F: FnMut(&str, &Attr)>(&self, mut f: F) {
        self.walk_ino(self.root, "/", &mut f);
    }

    fn walk_ino<F: FnMut(&str, &Attr)>(&self, ino: Ino, path: &str, f: &mut F) {
        let Some(inode) = self.inodes.get(&ino) else {
            return;
        };
        if let Kind::Dir(entries) = &inode.kind {
            for (name, &child) in entries {
                let child_path = join_path(path, name);
                if let Some(ci) = self.inodes.get(&child) {
                    f(&child_path, &ci.attr);
                    if matches!(ci.kind, Kind::Dir(_)) {
                        self.walk_ino(child, &child_path, f);
                    }
                }
            }
        }
    }

    /// Walks only the subtree rooted at `root_path`, invoking
    /// `f(rel_path, attr)` for every object strictly below it.
    pub fn walk_from<F: FnMut(&str, &Attr)>(
        &self,
        root_path: &str,
        mut f: F,
    ) -> Result<(), VfsError> {
        let (id, attr) = self.resolve(root_path)?;
        if attr.ftype != FileType::Directory {
            return Err(VfsError::NotDir);
        }
        self.walk_ino(id.ino, "", &mut f);
        Ok(())
    }

    /// Exports the subtree rooted at `root_path` in pre-order, for
    /// migration and replica pushes. The root itself is included with an
    /// empty relative path. Files export their stored buffer by refcount (a file kept in parts
    /// is joined into one buffer first, once), which like a [`Vfs::read`]
    /// view keeps its bytes whatever happens to the file.
    pub fn export_tree(&mut self, root_path: &str) -> Result<Vec<ExportItem>, VfsError> {
        let (id, _) = self.resolve(root_path)?;
        let mut out = Vec::new();
        // A directory's children go on the stack last first, so they come
        // off it, each with its subtree, in name order.
        let mut stack = vec![(id.ino, String::new())];
        while let Some((ino, rel)) = stack.pop() {
            let inode = self.inodes.get_mut(&ino).ok_or(VfsError::Stale)?;
            let kind = match &mut inode.kind {
                Kind::Dir(entries) => {
                    for (name, &child) in entries.iter().rev() {
                        let crel = if rel.is_empty() {
                            name.clone()
                        } else {
                            format!("{rel}/{name}")
                        };
                        stack.push((child, crel));
                    }
                    ExportKind::Dir
                }
                Kind::File(p) => ExportKind::Bytes(p.joined(0).clone()),
                Kind::Symlink(t) => ExportKind::Symlink { target: t.clone() },
            };
            out.push(ExportItem {
                rel_path: rel,
                kind,
                mode: inode.attr.mode,
                uid: inode.attr.uid,
                gid: inode.attr.gid,
            });
        }
        Ok(out)
    }

    /// Full path of an object, reconstructed from parent pointers (O(depth);
    /// diagnostic helper for tests).
    pub fn path_of(&self, id: FileId) -> Result<String, VfsError> {
        let _ = self.get(id)?;
        let mut parts = Vec::new();
        let mut ino = id.ino;
        while ino != self.root {
            let inode = self.inodes.get(&ino).ok_or(VfsError::Stale)?;
            let parent = self.inodes.get(&inode.parent).ok_or(VfsError::Stale)?;
            if let Kind::Dir(entries) = &parent.kind {
                let name = entries
                    .iter()
                    .find(|(_, &i)| i == ino)
                    .map(|(n, _)| n.clone())
                    .ok_or(VfsError::Stale)?;
                parts.push(name);
            }
            ino = inode.parent;
        }
        parts.reverse();
        let mut s = String::new();
        for p in &parts {
            s.push('/');
            s.push_str(p);
        }
        if s.is_empty() {
            s.push('/');
        }
        Ok(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fs() -> Vfs {
        Vfs::new(1 << 20) // 1 MiB quota
    }

    #[test]
    fn create_lookup_read_write() {
        let mut v = fs();
        let root = v.root();
        let (f, attr) = v.create(root, "hello.txt", 0o644, 10, 20).unwrap();
        assert_eq!(attr.ftype, FileType::Regular);
        assert_eq!(attr.uid, 10);
        assert_eq!(v.write(f, 0, b"hello world").unwrap(), 11);
        let (data, eof) = v.read(f, 0, 100).unwrap();
        assert_eq!(data, b"hello world");
        assert!(eof);
        let (data, eof) = v.read(f, 6, 5).unwrap();
        assert_eq!(data, b"world");
        assert!(eof);
        let (id2, a2) = v.lookup(root, "hello.txt").unwrap();
        assert_eq!(id2, f);
        assert_eq!(a2.size, 11);
        assert_eq!(v.used_bytes(), 11);
    }

    /// A fresh file holding `len` bytes of `fill` in a buffer of the
    /// store's own.
    fn file_of(v: &mut Vfs, name: &str, fill: u8, len: usize) -> FileId {
        let (f, _) = v.create(v.root(), name, 0o644, 0, 0).unwrap();
        v.write(f, 0, &vec![fill; len]).unwrap();
        f
    }

    #[test]
    fn read_and_export_lend_the_stored_buffer() {
        let mut v = fs();
        let f = file_of(&mut v, "f", 7, 4096);
        let (whole, _) = v.read(f, 0, 4096).unwrap();
        let (mid, eof) = v.read(f, 1000, 24).unwrap();
        assert!(!eof);
        assert_eq!(mid.as_ptr(), whole[1000..].as_ptr());
        let ExportKind::Bytes(exported) = &v.export_tree("/f").unwrap()[0].kind else {
            panic!()
        };
        assert_eq!(exported.as_ptr(), whole.as_ptr());
        assert!(exported.is_whole());
    }

    /// `len` bytes of `fill` in a whole buffer of the caller's.
    fn buf(fill: u8, len: usize) -> Bytes {
        vec![fill; len].into()
    }

    /// Where each buffer `f` is kept in starts, in file order.
    fn buffers(v: &Vfs, f: FileId) -> Vec<*const u8> {
        match &v.get(f).unwrap().kind {
            Kind::File(Payload::Bytes(b)) => vec![b.as_ptr()],
            Kind::File(Payload::Parts(parts)) => parts.iter().map(|p| p.as_ptr()).collect(),
            _ => Vec::new(),
        }
    }

    fn resize(v: &mut Vfs, f: FileId, size: u64) {
        let set = SetAttr {
            size: Some(size),
            ..Default::default()
        };
        v.setattr(f, &set).unwrap();
    }

    #[test]
    fn write_rule_1_a_whole_buffer_covering_the_file_becomes_it() {
        let mut v = fs();
        let (f, _) = v.create(v.root(), "f", 0o644, 0, 0).unwrap();
        // A first write, then overwrites of a buffer nobody else holds
        // (each `incoming` is dropped), longer than the file or not.
        for incoming in [buf(1, 4096), buf(2, 4096), buf(3, 5000)] {
            v.write_bytes(f, 0, &incoming).unwrap();
            assert_eq!(buffers(&v, f), [incoming.as_ptr()]);
        }
        assert_eq!(v.used_bytes(), 5000);
        // A piece of a larger buffer is not adopted, whatever it covers.
        let frame = buf(4, 6000);
        v.write_bytes(f, 0, &frame.slice(..5000)).unwrap();
        let (data, _) = v.read(f, 0, 5000).unwrap();
        assert!(!(frame.as_ptr()..frame[5999..].as_ptr()).contains(&data.as_ptr()));
        assert_eq!(data, vec![4u8; 5000]);
    }

    #[test]
    fn write_rule_2_an_append_onto_a_shared_buffer_is_a_part_up_to_sixteen() {
        let mut v = fs();
        let (f, _) = v.create(v.root(), "f", 0o644, 0, 0).unwrap();
        // The caller keeps every chunk, so the last buffer is shared.
        let chunks: Vec<Bytes> = (0..17).map(|i| buf(i, 100)).collect();
        let ptrs: Vec<_> = chunks.iter().map(|c| c.as_ptr()).collect();
        for (at, chunk) in (0..).step_by(100).zip(&chunks[..MAX_PARTS]) {
            v.write_bytes(f, at, chunk).unwrap();
        }
        assert_eq!(buffers(&v, f), ptrs[..MAX_PARTS]);
        // The 17th joins them into one buffer of the store's own.
        v.write_bytes(f, 1600, &chunks[16]).unwrap();
        let joined = buffers(&v, f);
        assert!(joined.len() == 1 && !ptrs.contains(&joined[0]));
        // A view shares it, so the next append is a part again, and a
        // READ across the two joins them, once.
        let (held, _) = v.read(f, 0, 1700).unwrap();
        assert_eq!(held.as_ptr(), joined[0]);
        v.write_bytes(f, 1700, &chunks[0]).unwrap();
        assert_eq!(buffers(&v, f), [joined[0], ptrs[0]]);
        let (across, _) = v.read(f, 1650, 100).unwrap();
        let (data, _) = v.read(f, 0, 4096).unwrap();
        assert_eq!(
            (buffers(&v, f), across.as_ptr()),
            (vec![data.as_ptr()], data[1650..].as_ptr())
        );
        assert!(data
            .chunks(100)
            .zip((0..17).chain([0]))
            .all(|(c, i)| c == [i; 100]));
        assert_eq!(v.used_bytes(), 1800);
    }

    #[test]
    fn write_rule_3_a_shared_buffer_written_in_part_is_copied_once() {
        let mut v = fs();
        let f = file_of(&mut v, "f", 1, 4096);
        let (reader, _) = v.read(f, 0, 4096).unwrap();
        let incoming = buf(2, 1000);
        v.write_bytes(f, 96, &incoming).unwrap();
        // The reader keeps what it read; the file has a buffer of its
        // own again, so the next write changes it in place.
        assert_eq!(reader, vec![1u8; 4096]);
        let (data, _) = v.read(f, 0, 4096).unwrap();
        assert_ne!(data.as_ptr(), reader.as_ptr());
        assert_eq!(data[..96], [1u8; 96]);
        assert_eq!(data[96..1096], [2u8; 1000]);
        assert_eq!(data[1096..], [1u8; 3000]);
        let own = data.as_ptr();
        drop(data);
        v.write(f, 0, &[4u8; 8]).unwrap();
        assert_eq!(buffers(&v, f), [own]);
        // Growing past the end of a shared buffer is the same copy, and a
        // piece of a flat frame appended there is never a part.
        let (reader, _) = v.read(f, 0, 4096).unwrap();
        let frame = buf(5, 300);
        v.write_bytes(f, 4096, &frame.slice(100..200)).unwrap();
        let copied = buffers(&v, f);
        assert!(copied.len() == 1 && copied != [own] && copied != [frame[100..].as_ptr()]);
        assert_eq!(reader.len(), 4096);
        assert_eq!(v.read(f, 4090, 200).unwrap().0[6..], [5u8; 100]);
    }

    #[test]
    fn an_append_onto_a_buffer_nobody_shares_grows_it_in_place() {
        let mut v = fs();
        let (f, _) = v.create(v.root(), "f", 0o644, 0, 0).unwrap();
        let mut roomy = Vec::with_capacity(4096);
        roomy.resize(100, 1u8);
        v.write_bytes(f, 0, &roomy.into()).unwrap();
        let own = buffers(&v, f);
        v.write_bytes(f, 100, &buf(2, 100)).unwrap();
        assert_eq!(buffers(&v, f), own);
        assert_eq!(v.read(f, 0, 4096).unwrap().0[99..101], [1, 2]);
    }

    #[test]
    fn truncate_copies_and_extend_leaves_readers_alone() {
        let mut v = fs();
        let f = file_of(&mut v, "f", 1, 4096);
        let (reader, _) = v.read(f, 0, 4096).unwrap();
        resize(&mut v, f, 100);
        let ExportKind::Bytes(kept) = &v.export_tree("/f").unwrap()[0].kind else {
            panic!()
        };
        assert!(kept.is_whole(), "a truncated file pins its old tail");
        assert_eq!(kept.len(), 100);
        let (short, _) = v.read(f, 0, 4096).unwrap();
        resize(&mut v, f, 200);
        assert_eq!(short, vec![1u8; 100]);
        let (held, _) = v.read(f, 0, 200).unwrap();
        assert_eq!(held[100..], [0u8; 100]);
        assert_eq!(reader, vec![1u8; 4096]);
        // A file in parts is joined, then extended or truncated.
        let parts = [buf(2, 100), buf(3, 100)];
        v.write_bytes(f, 200, &parts[0]).unwrap();
        v.write_bytes(f, 300, &parts[1]).unwrap();
        assert_eq!(buffers(&v, f).len(), 3);
        resize(&mut v, f, 500);
        let (extended, _) = v.read(f, 0, 4096).unwrap();
        v.write_bytes(f, 500, &parts[0]).unwrap();
        assert_eq!(buffers(&v, f).len(), 2);
        resize(&mut v, f, 250);
        assert_eq!(buffers(&v, f).len(), 1);
        let body = [[1u8; 100], [0; 100], [2; 100], [3; 100], [0; 100]].concat();
        assert_eq!(extended, body);
        assert_eq!(v.read(f, 0, 4096).unwrap().0, body[..250]);
        assert_eq!(v.used_bytes(), 250);
    }

    #[test]
    fn sparse_write_extends_offset() {
        let mut v = fs();
        let root = v.root();
        let (f, _) = v.create(root, "sparse", 0o644, 0, 0).unwrap();
        v.write(f, 100, b"xy").unwrap();
        assert_eq!(v.getattr(f).unwrap().size, 102);
        let (data, _) = v.read(f, 0, 4).unwrap();
        assert_eq!(data, vec![0, 0, 0, 0]);
        assert_eq!(v.used_bytes(), 102);
    }

    #[test]
    fn quota_enforced_and_released() {
        let mut v = Vfs::new(100);
        let root = v.root();
        let (f, _) = v.create(root, "a", 0o644, 0, 0).unwrap();
        assert_eq!(v.write(f, 0, &[7u8; 100]).unwrap(), 100);
        assert_eq!(v.write(f, 100, &[7u8; 1]), Err(VfsError::NoSpc));
        // Nothing was modified by the failed write.
        assert_eq!(v.getattr(f).unwrap().size, 100);
        // Truncation releases space.
        v.setattr(
            f,
            &SetAttr {
                size: Some(40),
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(v.used_bytes(), 40);
        assert_eq!(v.write(f, 40, &[1u8; 60]).unwrap(), 60);
        // Remove releases everything.
        v.remove(root, "a").unwrap();
        assert_eq!(v.used_bytes(), 0);
    }

    #[test]
    fn written_files_charge_quota_for_their_bytes() {
        let mut v = Vfs::new(1000);
        let root = v.root();
        let (f, _) = v.create(root, "big", 0o644, 0, 0).unwrap();
        v.write(f, 0, &[7u8; 900]).unwrap();
        assert_eq!(v.used_bytes(), 900);
        let (g, _) = v.create(root, "big2", 0o644, 0, 0).unwrap();
        assert_eq!(v.write(g, 0, &[7u8; 200]), Err(VfsError::NoSpc));
        assert_eq!(v.getattr(g).unwrap().size, 0);
        let (data, eof) = v.read(f, 890, 100).unwrap();
        assert_eq!(data, vec![7u8; 10]);
        assert!(eof);
    }

    #[test]
    fn mkdir_rmdir_nlink() {
        let mut v = fs();
        let root = v.root();
        assert_eq!(v.getattr(root).unwrap().nlink, 2);
        let (d, _) = v.mkdir(root, "d", 0o755, 0, 0).unwrap();
        assert_eq!(v.getattr(root).unwrap().nlink, 3);
        v.create(d, "f", 0o644, 0, 0).unwrap();
        assert_eq!(v.rmdir(root, "d"), Err(VfsError::NotEmpty));
        v.remove(d, "f").unwrap();
        v.rmdir(root, "d").unwrap();
        assert_eq!(v.getattr(root).unwrap().nlink, 2);
        assert_eq!(v.lookup(root, "d"), Err(VfsError::NoEnt));
    }

    #[test]
    fn mkdir_p_idempotent() {
        let mut v = fs();
        let a = v.mkdir_p("/x/y/z", 0o755).unwrap();
        let b = v.mkdir_p("/x/y/z", 0o755).unwrap();
        assert_eq!(a, b);
        let (id, attr) = v.resolve("/x/y/z").unwrap();
        assert_eq!(id, a);
        assert_eq!(attr.ftype, FileType::Directory);
    }

    #[test]
    fn symlink_round_trip() {
        let mut v = fs();
        let root = v.root();
        let (l, attr) = v
            .symlink(root, "sdirm", "sdirm#1774", 0o1777, 0, 0)
            .unwrap();
        assert_eq!(attr.ftype, FileType::Symlink);
        assert_eq!(v.readlink(l).unwrap(), "sdirm#1774");
        let (f, _) = v.create(root, "plain", 0o644, 0, 0).unwrap();
        assert_eq!(v.readlink(f), Err(VfsError::NotSupp));
        // Symlinks are removed with remove(), not rmdir().
        v.remove(root, "sdirm").unwrap();
    }

    #[test]
    fn rename_file_and_overwrite() {
        let mut v = fs();
        let root = v.root();
        let (f, _) = v.create(root, "a", 0o644, 0, 0).unwrap();
        v.write(f, 0, b"data").unwrap();
        let (g, _) = v.create(root, "b", 0o644, 0, 0).unwrap();
        v.write(g, 0, b"old-target-bytes").unwrap();
        v.rename(root, "a", root, "b").unwrap();
        assert_eq!(v.lookup(root, "a"), Err(VfsError::NoEnt));
        let (id, attr) = v.lookup(root, "b").unwrap();
        assert_eq!(id, f);
        assert_eq!(attr.size, 4);
        // Old target's bytes were released.
        assert_eq!(v.used_bytes(), 4);
    }

    #[test]
    fn rename_dir_into_own_subtree_rejected() {
        let mut v = fs();
        let root = v.root();
        let (d, _) = v.mkdir(root, "d", 0o755, 0, 0).unwrap();
        let (sub, _) = v.mkdir(d, "sub", 0o755, 0, 0).unwrap();
        assert_eq!(v.rename(root, "d", sub, "moved"), Err(VfsError::Inval));
        // Renaming into a sibling is fine.
        let (e, _) = v.mkdir(root, "e", 0o755, 0, 0).unwrap();
        v.rename(root, "d", e, "d2").unwrap();
        assert!(v.resolve("/e/d2/sub").is_ok());
    }

    #[test]
    fn rename_type_mismatches() {
        let mut v = fs();
        let root = v.root();
        v.mkdir(root, "d", 0o755, 0, 0).unwrap();
        v.create(root, "f", 0o644, 0, 0).unwrap();
        assert_eq!(v.rename(root, "d", root, "f"), Err(VfsError::NotDir));
        assert_eq!(v.rename(root, "f", root, "d"), Err(VfsError::IsDir));
        // Dir over empty dir succeeds.
        v.mkdir(root, "empty", 0o755, 0, 0).unwrap();
        v.rename(root, "d", root, "empty").unwrap();
        assert!(v.lookup(root, "d").is_err());
        assert!(v.lookup(root, "empty").is_ok());
    }

    #[test]
    fn rename_noop_and_same_target() {
        let mut v = fs();
        let root = v.root();
        let (f, _) = v.create(root, "a", 0o644, 0, 0).unwrap();
        v.rename(root, "a", root, "a").unwrap();
        assert_eq!(v.lookup(root, "a").unwrap().0, f);
    }

    #[test]
    fn readdir_sorted_with_types() {
        let mut v = fs();
        let root = v.root();
        v.create(root, "zed", 0o644, 0, 0).unwrap();
        v.mkdir(root, "adir", 0o755, 0, 0).unwrap();
        v.symlink(root, "mlink", "t#1", 0o777, 0, 0).unwrap();
        let names: Vec<_> = v
            .readdir(root)
            .unwrap()
            .into_iter()
            .map(|e| (e.name, e.ftype))
            .collect();
        assert_eq!(
            names,
            vec![
                ("adir".into(), FileType::Directory),
                ("mlink".into(), FileType::Symlink),
                ("zed".into(), FileType::Regular),
            ]
        );
    }

    #[test]
    fn remove_tree_frees_space() {
        let mut v = fs();
        let d = v.mkdir_p("/a/b/c", 0o755).unwrap();
        let (f, _) = v.create(d, "f", 0o644, 0, 0).unwrap();
        v.write(f, 0, &[1u8; 500]).unwrap();
        let (a, _) = v.resolve("/a").unwrap();
        let _ = a;
        let freed = v.remove_tree(v.root(), "a").unwrap();
        assert_eq!(freed, 500);
        assert_eq!(v.used_bytes(), 0);
        assert!(v.resolve("/a").is_err());
        assert_eq!(v.object_count(), 1); // only root
    }

    #[test]
    fn purge_invalidates_handles() {
        let mut v = fs();
        let root = v.root();
        let (f, _) = v.create(root, "x", 0o644, 0, 0).unwrap();
        v.write(f, 0, b"abc").unwrap();
        v.purge();
        assert_eq!(v.getattr(f), Err(VfsError::Stale));
        assert_eq!(v.getattr(root), Err(VfsError::Stale));
        assert_eq!(v.used_bytes(), 0);
        // New root handle works.
        let root2 = v.root();
        assert_ne!(root, root2);
        v.create(root2, "y", 0o644, 0, 0).unwrap();
    }

    #[test]
    fn walk_and_path_of() {
        let mut v = fs();
        let d = v.mkdir_p("/u/alice/src", 0o755).unwrap();
        let (f, _) = v.create(d, "main.rs", 0o644, 0, 0).unwrap();
        let mut seen = Vec::new();
        v.walk(|p, a| seen.push((p.to_string(), a.ftype)));
        assert!(seen.contains(&("/u/alice/src/main.rs".to_string(), FileType::Regular)));
        assert!(seen.contains(&("/u".to_string(), FileType::Directory)));
        assert_eq!(v.path_of(f).unwrap(), "/u/alice/src/main.rs");
        assert_eq!(v.path_of(v.root()).unwrap(), "/");
    }

    #[test]
    fn setattr_updates_fields() {
        let mut v = fs();
        let root = v.root();
        let (f, _) = v.create(root, "f", 0o644, 1, 1).unwrap();
        v.set_now(42);
        let attr = v
            .setattr(
                f,
                &SetAttr {
                    mode: Some(0o600),
                    uid: Some(7),
                    mtime: Some(99),
                    ..Default::default()
                },
            )
            .unwrap();
        assert_eq!(attr.mode, 0o600);
        assert_eq!(attr.uid, 7);
        assert_eq!(attr.mtime, 99);
        assert_eq!(attr.ctime, 42);
    }

    #[test]
    fn setattr_size_on_dir_rejected() {
        let mut v = fs();
        let root = v.root();
        assert_eq!(
            v.setattr(
                root,
                &SetAttr {
                    size: Some(10),
                    ..Default::default()
                }
            ),
            Err(VfsError::IsDir)
        );
    }

    #[test]
    fn duplicate_create_rejected() {
        let mut v = fs();
        let root = v.root();
        v.create(root, "f", 0o644, 0, 0).unwrap();
        assert_eq!(v.create(root, "f", 0o644, 0, 0), Err(VfsError::Exist));
        assert_eq!(v.mkdir(root, "f", 0o755, 0, 0), Err(VfsError::Exist));
    }

    #[test]
    fn export_tree_preorders_and_round_trips() {
        let mut v = fs();
        let d = v.mkdir_p("/tree/sub", 0o750).unwrap();
        let (f, _) = v.create(d, "data.bin", 0o640, 3, 4).unwrap();
        v.write(f, 0, b"payload").unwrap();
        v.symlink(d, "link", "data.bin", 0o777, 3, 4).unwrap();
        let (g, _) = v.create(d, "zeros", 0o600, 3, 4).unwrap();
        v.write(g, (1 << 16) - 1, &[0]).unwrap();

        let items = v.export_tree("/tree").unwrap();
        // Root first (pre-order), then children.
        assert_eq!(items[0].rel_path, "");
        assert_eq!(items[0].kind, ExportKind::Dir);
        let by_path: std::collections::HashMap<&str, &ExportItem> =
            items.iter().map(|i| (i.rel_path.as_str(), i)).collect();
        assert_eq!(by_path["sub"].kind, ExportKind::Dir);
        assert_eq!(by_path["sub"].mode, 0o750);
        assert_eq!(
            by_path["sub/data.bin"].kind,
            ExportKind::Bytes(b"payload"[..].into())
        );
        assert_eq!(by_path["sub/data.bin"].uid, 3);
        assert_eq!(
            by_path["sub/link"].kind,
            ExportKind::Symlink {
                target: "data.bin".into()
            }
        );
        assert_eq!(
            by_path["sub/zeros"].kind,
            ExportKind::Bytes(vec![0u8; 1 << 16].into())
        );
        assert_eq!(by_path["sub/zeros"].mode, 0o600);
        // A parent always precedes its children in the stream.
        let pos = |p: &str| items.iter().position(|i| i.rel_path == p).unwrap();
        assert!(pos("sub") < pos("sub/data.bin"));
        // Exporting a file (non-dir root) works as a single item? No:
        // export requires resolving; files export as a one-item stream.
        let single = v.export_tree("/tree/sub");
        assert!(single.is_ok());
    }

    #[test]
    fn walk_from_scopes_to_subtree() {
        let mut v = fs();
        v.mkdir_p("/a/inner", 0o755).unwrap();
        v.mkdir_p("/b", 0o755).unwrap();
        let (d, _) = v.resolve("/a/inner").unwrap();
        v.create(d, "f", 0o644, 0, 0).unwrap();
        let mut seen = Vec::new();
        v.walk_from("/a", |p, _| seen.push(p.to_string())).unwrap();
        assert!(seen.contains(&"/inner".to_string()));
        assert!(seen.contains(&"/inner/f".to_string()));
        assert!(!seen.iter().any(|p| p.contains("/b")), "escaped subtree");
        assert_eq!(v.walk_from("/missing", |_, _| {}), Err(VfsError::NoEnt));
    }

    #[test]
    fn utilization_tracks_quota() {
        let mut v = Vfs::new(1000);
        assert_eq!(v.utilization(), 0.0);
        let root = v.root();
        let (f, _) = v.create(root, "f", 0o644, 0, 0).unwrap();
        v.write(f, 0, &[0u8; 250]).unwrap();
        assert!((v.utilization() - 0.25).abs() < 1e-9);
        let zero_cap = Vfs::new(0);
        assert_eq!(zero_cap.utilization(), 0.0);
    }

    #[test]
    fn access_checks_owner_group_other() {
        let mut v = fs();
        let root = v.root();
        let (f, _) = v.create(root, "f", 0o640, 10, 20).unwrap();
        // Owner: read+write, no exec.
        assert_eq!(
            v.access(f, 10, 20, ACCESS_READ | ACCESS_WRITE | ACCESS_EXEC)
                .unwrap(),
            ACCESS_READ | ACCESS_WRITE
        );
        // Group: read only.
        assert_eq!(
            v.access(f, 11, 20, ACCESS_READ | ACCESS_WRITE).unwrap(),
            ACCESS_READ
        );
        // Other: nothing.
        assert_eq!(v.access(f, 11, 21, ACCESS_READ | ACCESS_WRITE).unwrap(), 0);
        // Root: everything.
        assert_eq!(
            v.access(f, 0, 0, ACCESS_READ | ACCESS_WRITE | ACCESS_EXEC)
                .unwrap(),
            ACCESS_READ | ACCESS_WRITE | ACCESS_EXEC
        );
    }

    #[test]
    fn lookup_on_file_is_notdir() {
        let mut v = fs();
        let root = v.root();
        let (f, _) = v.create(root, "f", 0o644, 0, 0).unwrap();
        assert_eq!(v.lookup(f, "x"), Err(VfsError::NotDir));
    }
}
