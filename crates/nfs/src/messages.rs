//! NFS procedure set and wire encodings.

use kosha_rpc::{Bytes, NodeAddr, Reader, RpcError, WireError, WireRead, WireWrite, Writer};
use kosha_vfs::{Attr, DirEntry, FileId, FileType, SetAttr, VfsError};

/// An opaque NFS file handle. Only the issuing server can interpret it;
/// clients (and Kosha's virtual-handle table) treat it as a token. It is
/// the wire form of a [`kosha_vfs::FileId`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Fh {
    /// Server-side inode number.
    pub ino: u64,
    /// Server-side store generation (stale after a purge).
    pub gen: u32,
}

impl Fh {
    /// Converts from the store's identity type.
    #[must_use]
    pub fn from_file_id(id: FileId) -> Self {
        Fh {
            ino: id.ino,
            gen: id.gen,
        }
    }

    /// Converts back to the store's identity type (server side only).
    #[must_use]
    pub fn to_file_id(self) -> FileId {
        FileId {
            ino: self.ino,
            gen: self.gen,
        }
    }
}

impl WireWrite for Fh {
    fn write(&self, w: &mut Writer) {
        w.u64(self.ino);
        w.u32(self.gen);
    }
}
impl WireRead for Fh {
    fn read(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Fh {
            ino: r.u64()?,
            gen: r.u32()?,
        })
    }
}

/// NFSv3-style status codes (`nfsstat3` subset).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NfsStatus {
    /// `NFS3ERR_NOENT`
    NoEnt,
    /// `NFS3ERR_NOTDIR`
    NotDir,
    /// `NFS3ERR_ISDIR`
    IsDir,
    /// `NFS3ERR_EXIST`
    Exist,
    /// `NFS3ERR_NOTEMPTY`
    NotEmpty,
    /// `NFS3ERR_NOSPC` — triggers Kosha's directory redirection.
    NoSpc,
    /// `NFS3ERR_STALE`
    Stale,
    /// `NFS3ERR_INVAL`
    Inval,
    /// `NFS3ERR_NAMETOOLONG`
    NameTooLong,
    /// `NFS3ERR_NOTSUPP`
    NotSupp,
    /// `NFS3ERR_IO` (catch-all server failure)
    Io,
}

impl NfsStatus {
    fn tag(self) -> u8 {
        match self {
            NfsStatus::NoEnt => 1,
            NfsStatus::NotDir => 2,
            NfsStatus::IsDir => 3,
            NfsStatus::Exist => 4,
            NfsStatus::NotEmpty => 5,
            NfsStatus::NoSpc => 6,
            NfsStatus::Stale => 7,
            NfsStatus::Inval => 8,
            NfsStatus::NameTooLong => 9,
            NfsStatus::NotSupp => 10,
            NfsStatus::Io => 11,
        }
    }

    fn from_tag(t: u8) -> Result<Self, WireError> {
        Ok(match t {
            1 => NfsStatus::NoEnt,
            2 => NfsStatus::NotDir,
            3 => NfsStatus::IsDir,
            4 => NfsStatus::Exist,
            5 => NfsStatus::NotEmpty,
            6 => NfsStatus::NoSpc,
            7 => NfsStatus::Stale,
            8 => NfsStatus::Inval,
            9 => NfsStatus::NameTooLong,
            10 => NfsStatus::NotSupp,
            11 => NfsStatus::Io,
            t => return Err(WireError::BadTag(t)),
        })
    }
}

impl From<VfsError> for NfsStatus {
    fn from(e: VfsError) -> Self {
        match e {
            VfsError::NoEnt => NfsStatus::NoEnt,
            VfsError::NotDir => NfsStatus::NotDir,
            VfsError::IsDir => NfsStatus::IsDir,
            VfsError::Exist => NfsStatus::Exist,
            VfsError::NotEmpty => NfsStatus::NotEmpty,
            VfsError::NoSpc => NfsStatus::NoSpc,
            VfsError::Stale => NfsStatus::Stale,
            VfsError::Inval => NfsStatus::Inval,
            VfsError::NameTooLong => NfsStatus::NameTooLong,
            VfsError::NotSupp => NfsStatus::NotSupp,
            VfsError::NotFile => NfsStatus::Inval,
        }
    }
}

impl std::fmt::Display for NfsStatus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{self:?}")
    }
}

/// A client-visible NFS failure: a protocol status from the server, or a
/// transport-level error (the signal Kosha's fault handling consumes).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NfsError {
    /// Protocol status returned by a live server.
    Status(NfsStatus),
    /// The server could not be reached (node failure).
    Rpc(RpcError),
}

impl std::fmt::Display for NfsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NfsError::Status(s) => write!(f, "nfs status {s}"),
            NfsError::Rpc(e) => write!(f, "nfs transport error: {e}"),
        }
    }
}

impl std::error::Error for NfsError {}

impl From<RpcError> for NfsError {
    fn from(e: RpcError) -> Self {
        NfsError::Rpc(e)
    }
}

impl From<NfsStatus> for NfsError {
    fn from(s: NfsStatus) -> Self {
        NfsError::Status(s)
    }
}

/// Convenience alias for client-side results.
pub type NfsResult<T> = Result<T, NfsError>;

/// Wire form of [`kosha_vfs::Attr`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireAttr(pub Attr);

fn ftype_tag(t: FileType) -> u8 {
    match t {
        FileType::Regular => 0,
        FileType::Directory => 1,
        FileType::Symlink => 2,
    }
}

fn ftype_from_tag(t: u8) -> Result<FileType, WireError> {
    Ok(match t {
        0 => FileType::Regular,
        1 => FileType::Directory,
        2 => FileType::Symlink,
        t => return Err(WireError::BadTag(t)),
    })
}

impl WireWrite for WireAttr {
    fn write(&self, w: &mut Writer) {
        let a = &self.0;
        w.u8(ftype_tag(a.ftype));
        w.u32(a.mode);
        w.u32(a.uid);
        w.u32(a.gid);
        w.u64(a.size);
        w.u32(a.nlink);
        w.u64(a.atime);
        w.u64(a.mtime);
        w.u64(a.ctime);
    }
}
impl WireRead for WireAttr {
    fn read(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(WireAttr(Attr {
            ftype: ftype_from_tag(r.u8()?)?,
            mode: r.u32()?,
            uid: r.u32()?,
            gid: r.u32()?,
            size: r.u64()?,
            nlink: r.u32()?,
            atime: r.u64()?,
            mtime: r.u64()?,
            ctime: r.u64()?,
        }))
    }
}

/// Wire form of [`kosha_vfs::SetAttr`].
#[derive(Debug, Clone, PartialEq)]
pub struct WireSetAttr(pub SetAttr);

impl WireWrite for WireSetAttr {
    fn write(&self, w: &mut Writer) {
        let s = &self.0;
        w.option(&s.mode);
        w.option(&s.uid);
        w.option(&s.gid);
        w.option(&s.size);
        w.option(&s.atime);
        w.option(&s.mtime);
    }
}
impl WireRead for WireSetAttr {
    fn read(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(WireSetAttr(SetAttr {
            mode: r.option()?,
            uid: r.option()?,
            gid: r.option()?,
            size: r.option()?,
            atime: r.option()?,
            mtime: r.option()?,
        }))
    }
}

/// Wire form of a directory entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireDirEntry {
    /// Entry name.
    pub name: String,
    /// Entry handle.
    pub fh: Fh,
    /// Entry type.
    pub ftype: FileType,
}

impl From<DirEntry> for WireDirEntry {
    fn from(e: DirEntry) -> Self {
        WireDirEntry {
            name: e.name,
            fh: Fh::from_file_id(e.id),
            ftype: e.ftype,
        }
    }
}

impl WireWrite for WireDirEntry {
    fn write(&self, w: &mut Writer) {
        w.string(&self.name);
        w.value(&self.fh);
        w.u8(ftype_tag(self.ftype));
    }
}
impl WireRead for WireDirEntry {
    fn read(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(WireDirEntry {
            name: r.string()?,
            fh: r.value()?,
            ftype: ftype_from_tag(r.u8()?)?,
        })
    }
}

/// One resolved step of a compound [`NfsRequest::LookupPath`] walk.
///
/// For symlinks the server piggybacks the link target so the client can
/// decide — without a follow-up READLINK — whether the link is a Kosha
/// special link it must chase to another server.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WirePathNode {
    /// Handle of the resolved component.
    pub fh: Fh,
    /// Attributes of the resolved component.
    pub attr: WireAttr,
    /// The link target, present iff the component is a symlink.
    pub link_target: Option<String>,
}

impl WireWrite for WirePathNode {
    fn write(&self, w: &mut Writer) {
        w.value(&self.fh);
        w.value(&self.attr);
        w.option(&self.link_target);
    }
}
impl WireRead for WirePathNode {
    fn read(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(WirePathNode {
            fh: r.value()?,
            attr: r.value()?,
            link_target: r.option()?,
        })
    }
}

/// The NFS procedure set. `Mount` plays the role of the MOUNT protocol's
/// `MNT` (hand out the export's root handle); `CreateSized` and
/// `RemoveTree` are documented extensions used by the simulation harness
/// and the replica manager respectively.
#[derive(Debug, Clone, PartialEq)]
pub enum NfsRequest {
    /// No-op liveness probe (NFSPROC3_NULL).
    Null,
    /// MOUNT-lite: fetch the export's root handle.
    Mount,
    /// Fetch attributes.
    Getattr {
        /// Object handle.
        fh: Fh,
    },
    /// Update attributes.
    Setattr {
        /// Object handle.
        fh: Fh,
        /// Fields to change.
        sattr: WireSetAttr,
    },
    /// Look up `name` in directory `dir`. As in NFSv3, the RPC carries the
    /// *parent handle* and a single component, never a full path
    /// (Section 4.1.3).
    Lookup {
        /// Parent directory handle.
        dir: Fh,
        /// Child name.
        name: String,
    },
    /// Read a symlink target.
    Readlink {
        /// Symlink handle.
        fh: Fh,
    },
    /// Permission probe (NFSv3 ACCESS): which of the requested bits the
    /// identity holds on the object.
    Access {
        /// Object handle.
        fh: Fh,
        /// Requesting uid (AUTH_UNIX credential).
        uid: u32,
        /// Requesting gid.
        gid: u32,
        /// Requested permission bits (`ACCESS_READ|WRITE|EXEC`).
        want: u32,
    },
    /// Read file data.
    Read {
        /// File handle.
        fh: Fh,
        /// Byte offset.
        offset: u64,
        /// Maximum bytes to return.
        count: u32,
    },
    /// Write file data.
    Write {
        /// File handle.
        fh: Fh,
        /// Byte offset.
        offset: u64,
        /// Data to write (a view of the request frame on the server side).
        data: Bytes,
    },
    /// Create a regular file.
    Create {
        /// Parent directory handle.
        dir: Fh,
        /// New file name.
        name: String,
        /// Permission bits.
        mode: u32,
        /// Owner uid.
        uid: u32,
        /// Owner gid.
        gid: u32,
    },
    /// Extension: create a quota-charged sparse file of `size` bytes
    /// (trace-driven simulations only; see DESIGN.md).
    CreateSized {
        /// Parent directory handle.
        dir: Fh,
        /// New file name.
        name: String,
        /// Logical size in bytes.
        size: u64,
        /// Permission bits.
        mode: u32,
        /// Owner uid.
        uid: u32,
        /// Owner gid.
        gid: u32,
    },
    /// Create a directory.
    Mkdir {
        /// Parent directory handle.
        dir: Fh,
        /// New directory name.
        name: String,
        /// Permission bits.
        mode: u32,
        /// Owner uid.
        uid: u32,
        /// Owner gid.
        gid: u32,
    },
    /// Create a symbolic link (Kosha special links included).
    Symlink {
        /// Parent directory handle.
        dir: Fh,
        /// Link name.
        name: String,
        /// Link target.
        target: String,
        /// Permission bits (`0o1777` marks a Kosha special link).
        mode: u32,
        /// Owner uid.
        uid: u32,
        /// Owner gid.
        gid: u32,
    },
    /// Remove a file or symlink.
    Remove {
        /// Parent directory handle.
        dir: Fh,
        /// Name to remove.
        name: String,
    },
    /// Remove an empty directory.
    Rmdir {
        /// Parent directory handle.
        dir: Fh,
        /// Name to remove.
        name: String,
    },
    /// Extension: recursively remove a subtree (replica teardown and purge
    /// of redirected hierarchies).
    RemoveTree {
        /// Parent directory handle.
        dir: Fh,
        /// Subtree root name.
        name: String,
    },
    /// Rename within the export.
    Rename {
        /// Source directory handle.
        sdir: Fh,
        /// Source name.
        sname: String,
        /// Destination directory handle.
        ddir: Fh,
        /// Destination name.
        dname: String,
    },
    /// List a directory (READDIRPLUS-style: names, handles, types).
    Readdir {
        /// Directory handle.
        dir: Fh,
    },
    /// Filesystem statistics (capacity/used/free), used by Kosha's
    /// redirection to test node fullness.
    Fsstat,
    /// Extension: compound lookup. Walks as many `/`-separated components
    /// of `path` under `dir` as this server can resolve locally and
    /// returns one [`WirePathNode`] per resolved component. The walk
    /// stops early (with the partial prefix) at a symlink or other
    /// non-directory in the middle of the path, leaving the client to
    /// decide whether to chase a special link to another server. An
    /// error on the *first* component is a status reply; errors later
    /// return the successfully resolved prefix.
    LookupPath {
        /// Directory handle the walk starts from.
        dir: Fh,
        /// Relative path, components separated by `/` (no leading slash).
        path: String,
    },
    /// COMMIT (NFSv3): make previously-written data for the file
    /// durable. The plain store server acknowledges immediately (its
    /// writes are synchronous); the koshad loopback server treats it as
    /// a write-behind replication flush barrier (DESIGN.md §11).
    Commit {
        /// File handle.
        fh: Fh,
    },
}

impl NfsRequest {
    /// Stable lower-case procedure labels, indexed by
    /// [`NfsRequest::proc_index`] (used for per-procedure metrics).
    pub const PROC_NAMES: [&'static str; 21] = [
        "null",
        "mount",
        "getattr",
        "setattr",
        "lookup",
        "readlink",
        "access",
        "read",
        "write",
        "create",
        "create_sized",
        "mkdir",
        "symlink",
        "remove",
        "rmdir",
        "remove_tree",
        "rename",
        "readdir",
        "fsstat",
        "lookup_path",
        "commit",
    ];

    /// Dense index of this procedure into [`NfsRequest::PROC_NAMES`].
    #[must_use]
    pub fn proc_index(&self) -> usize {
        match self {
            NfsRequest::Null => 0,
            NfsRequest::Mount => 1,
            NfsRequest::Getattr { .. } => 2,
            NfsRequest::Setattr { .. } => 3,
            NfsRequest::Lookup { .. } => 4,
            NfsRequest::Readlink { .. } => 5,
            NfsRequest::Access { .. } => 6,
            NfsRequest::Read { .. } => 7,
            NfsRequest::Write { .. } => 8,
            NfsRequest::Create { .. } => 9,
            NfsRequest::CreateSized { .. } => 10,
            NfsRequest::Mkdir { .. } => 11,
            NfsRequest::Symlink { .. } => 12,
            NfsRequest::Remove { .. } => 13,
            NfsRequest::Rmdir { .. } => 14,
            NfsRequest::RemoveTree { .. } => 15,
            NfsRequest::Rename { .. } => 16,
            NfsRequest::Readdir { .. } => 17,
            NfsRequest::Fsstat => 18,
            NfsRequest::LookupPath { .. } => 19,
            NfsRequest::Commit { .. } => 20,
        }
    }

    /// Lower-case procedure label, e.g. `"lookup"`.
    #[must_use]
    pub fn proc_name(&self) -> &'static str {
        Self::PROC_NAMES[self.proc_index()]
    }
}

impl WireWrite for NfsRequest {
    fn write(&self, w: &mut Writer) {
        match self {
            NfsRequest::Null => w.u8(0),
            NfsRequest::Mount => w.u8(1),
            NfsRequest::Getattr { fh } => {
                w.u8(2);
                w.value(fh);
            }
            NfsRequest::Setattr { fh, sattr } => {
                w.u8(3);
                w.value(fh);
                w.value(sattr);
            }
            NfsRequest::Lookup { dir, name } => {
                w.u8(4);
                w.value(dir);
                w.string(name);
            }
            NfsRequest::Readlink { fh } => {
                w.u8(5);
                w.value(fh);
            }
            NfsRequest::Read { fh, offset, count } => {
                w.u8(6);
                w.value(fh);
                w.u64(*offset);
                w.u32(*count);
            }
            NfsRequest::Write { fh, offset, data } => {
                w.u8(7);
                w.value(fh);
                w.u64(*offset);
                w.payload(data);
            }
            NfsRequest::Create {
                dir,
                name,
                mode,
                uid,
                gid,
            } => {
                w.u8(8);
                w.value(dir);
                w.string(name);
                w.u32(*mode);
                w.u32(*uid);
                w.u32(*gid);
            }
            NfsRequest::CreateSized {
                dir,
                name,
                size,
                mode,
                uid,
                gid,
            } => {
                w.u8(9);
                w.value(dir);
                w.string(name);
                w.u64(*size);
                w.u32(*mode);
                w.u32(*uid);
                w.u32(*gid);
            }
            NfsRequest::Mkdir {
                dir,
                name,
                mode,
                uid,
                gid,
            } => {
                w.u8(10);
                w.value(dir);
                w.string(name);
                w.u32(*mode);
                w.u32(*uid);
                w.u32(*gid);
            }
            NfsRequest::Symlink {
                dir,
                name,
                target,
                mode,
                uid,
                gid,
            } => {
                w.u8(11);
                w.value(dir);
                w.string(name);
                w.string(target);
                w.u32(*mode);
                w.u32(*uid);
                w.u32(*gid);
            }
            NfsRequest::Remove { dir, name } => {
                w.u8(12);
                w.value(dir);
                w.string(name);
            }
            NfsRequest::Rmdir { dir, name } => {
                w.u8(13);
                w.value(dir);
                w.string(name);
            }
            NfsRequest::RemoveTree { dir, name } => {
                w.u8(14);
                w.value(dir);
                w.string(name);
            }
            NfsRequest::Rename {
                sdir,
                sname,
                ddir,
                dname,
            } => {
                w.u8(15);
                w.value(sdir);
                w.string(sname);
                w.value(ddir);
                w.string(dname);
            }
            NfsRequest::Readdir { dir } => {
                w.u8(16);
                w.value(dir);
            }
            NfsRequest::Fsstat => w.u8(17),
            NfsRequest::Access { fh, uid, gid, want } => {
                w.u8(18);
                w.value(fh);
                w.u32(*uid);
                w.u32(*gid);
                w.u32(*want);
            }
            NfsRequest::LookupPath { dir, path } => {
                w.u8(19);
                w.value(dir);
                w.string(path);
            }
            NfsRequest::Commit { fh } => {
                w.u8(20);
                w.value(fh);
            }
        }
    }
}

impl WireRead for NfsRequest {
    fn read(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(match r.u8()? {
            0 => NfsRequest::Null,
            1 => NfsRequest::Mount,
            2 => NfsRequest::Getattr { fh: r.value()? },
            3 => NfsRequest::Setattr {
                fh: r.value()?,
                sattr: r.value()?,
            },
            4 => NfsRequest::Lookup {
                dir: r.value()?,
                name: r.string()?,
            },
            5 => NfsRequest::Readlink { fh: r.value()? },
            6 => NfsRequest::Read {
                fh: r.value()?,
                offset: r.u64()?,
                count: r.u32()?,
            },
            7 => NfsRequest::Write {
                fh: r.value()?,
                offset: r.u64()?,
                data: r.payload()?,
            },
            8 => NfsRequest::Create {
                dir: r.value()?,
                name: r.string()?,
                mode: r.u32()?,
                uid: r.u32()?,
                gid: r.u32()?,
            },
            9 => NfsRequest::CreateSized {
                dir: r.value()?,
                name: r.string()?,
                size: r.u64()?,
                mode: r.u32()?,
                uid: r.u32()?,
                gid: r.u32()?,
            },
            10 => NfsRequest::Mkdir {
                dir: r.value()?,
                name: r.string()?,
                mode: r.u32()?,
                uid: r.u32()?,
                gid: r.u32()?,
            },
            11 => NfsRequest::Symlink {
                dir: r.value()?,
                name: r.string()?,
                target: r.string()?,
                mode: r.u32()?,
                uid: r.u32()?,
                gid: r.u32()?,
            },
            12 => NfsRequest::Remove {
                dir: r.value()?,
                name: r.string()?,
            },
            13 => NfsRequest::Rmdir {
                dir: r.value()?,
                name: r.string()?,
            },
            14 => NfsRequest::RemoveTree {
                dir: r.value()?,
                name: r.string()?,
            },
            15 => NfsRequest::Rename {
                sdir: r.value()?,
                sname: r.string()?,
                ddir: r.value()?,
                dname: r.string()?,
            },
            16 => NfsRequest::Readdir { dir: r.value()? },
            17 => NfsRequest::Fsstat,
            18 => NfsRequest::Access {
                fh: r.value()?,
                uid: r.u32()?,
                gid: r.u32()?,
                want: r.u32()?,
            },
            19 => NfsRequest::LookupPath {
                dir: r.value()?,
                path: r.string()?,
            },
            20 => NfsRequest::Commit { fh: r.value()? },
            t => return Err(WireError::BadTag(t)),
        })
    }
}

/// Successful procedure results. The full reply on the wire is
/// `Result<NfsReply, NfsStatus>` encoded as a status byte plus body.
#[derive(Debug, Clone, PartialEq)]
pub enum NfsReply {
    /// NULL / acknowledgements (SETATTR piggybacks attrs instead).
    Void,
    /// Root handle from `Mount`.
    Root {
        /// The export's root directory handle.
        fh: Fh,
    },
    /// Attributes (GETATTR, SETATTR).
    Attr {
        /// Current attributes.
        attr: WireAttr,
    },
    /// Handle plus attributes (LOOKUP, CREATE, MKDIR, SYMLINK).
    Handle {
        /// Object handle.
        fh: Fh,
        /// Object attributes.
        attr: WireAttr,
    },
    /// Symlink target (READLINK).
    Target {
        /// The link's target string.
        target: String,
    },
    /// File data (READ).
    Data {
        /// Bytes read (a view of the reply frame on the client side).
        data: Bytes,
        /// True if the read reached end of file.
        eof: bool,
    },
    /// Bytes written (WRITE).
    Written {
        /// Count of bytes accepted.
        count: u32,
    },
    /// Directory listing (READDIR).
    Entries {
        /// Directory entries in name order.
        entries: Vec<WireDirEntry>,
    },
    /// Granted permission bits (ACCESS).
    Granted {
        /// Subset of the requested bits the identity holds.
        granted: u32,
    },
    /// Filesystem statistics (FSSTAT).
    Stat {
        /// Total bytes contributed.
        capacity: u64,
        /// Bytes in use.
        used: u64,
        /// Bytes free.
        free: u64,
    },
    /// Resolved prefix of a compound walk (LOOKUPPATH), one node per
    /// component in walk order. May be shorter than the requested path.
    PathNodes {
        /// Resolved components, outermost first.
        nodes: Vec<WirePathNode>,
    },
}

impl WireWrite for NfsReply {
    fn write(&self, w: &mut Writer) {
        match self {
            NfsReply::Void => w.u8(0),
            NfsReply::Root { fh } => {
                w.u8(1);
                w.value(fh);
            }
            NfsReply::Attr { attr } => {
                w.u8(2);
                w.value(attr);
            }
            NfsReply::Handle { fh, attr } => {
                w.u8(3);
                w.value(fh);
                w.value(attr);
            }
            NfsReply::Target { target } => {
                w.u8(4);
                w.string(target);
            }
            NfsReply::Data { data, eof } => {
                w.u8(5);
                w.payload(data);
                w.boolean(*eof);
            }
            NfsReply::Written { count } => {
                w.u8(6);
                w.u32(*count);
            }
            NfsReply::Entries { entries } => {
                w.u8(7);
                w.seq(entries);
            }
            NfsReply::Stat {
                capacity,
                used,
                free,
            } => {
                w.u8(8);
                w.u64(*capacity);
                w.u64(*used);
                w.u64(*free);
            }
            NfsReply::Granted { granted } => {
                w.u8(9);
                w.u32(*granted);
            }
            NfsReply::PathNodes { nodes } => {
                w.u8(10);
                w.seq(nodes);
            }
        }
    }
}

impl WireRead for NfsReply {
    fn read(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(match r.u8()? {
            0 => NfsReply::Void,
            1 => NfsReply::Root { fh: r.value()? },
            2 => NfsReply::Attr { attr: r.value()? },
            3 => NfsReply::Handle {
                fh: r.value()?,
                attr: r.value()?,
            },
            4 => NfsReply::Target {
                target: r.string()?,
            },
            5 => NfsReply::Data {
                data: r.payload()?,
                eof: r.boolean()?,
            },
            6 => NfsReply::Written { count: r.u32()? },
            7 => NfsReply::Entries { entries: r.seq()? },
            8 => NfsReply::Stat {
                capacity: r.u64()?,
                used: r.u64()?,
                free: r.u64()?,
            },
            9 => NfsReply::Granted { granted: r.u32()? },
            10 => NfsReply::PathNodes { nodes: r.seq()? },
            t => return Err(WireError::BadTag(t)),
        })
    }
}

/// The outermost reply frame: status byte 0 followed by an [`NfsReply`],
/// or a non-zero [`NfsStatus`] tag.
#[derive(Debug, Clone, PartialEq)]
pub struct NfsReplyFrame(pub Result<NfsReply, NfsStatus>);

impl WireWrite for NfsReplyFrame {
    fn write(&self, w: &mut Writer) {
        match &self.0 {
            Ok(reply) => {
                w.u8(0);
                w.value(reply);
            }
            Err(status) => w.u8(status.tag()),
        }
    }
}
impl WireRead for NfsReplyFrame {
    fn read(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let tag = r.u8()?;
        if tag == 0 {
            Ok(NfsReplyFrame(Ok(r.value()?)))
        } else {
            Ok(NfsReplyFrame(Err(NfsStatus::from_tag(tag)?)))
        }
    }
}

/// Identifies an NFS export on the network: which node, for clarity in
/// multi-store tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ExportRef {
    /// Server address.
    pub addr: NodeAddr,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rt(req: NfsRequest) {
        let b = req.encode();
        assert_eq!(NfsRequest::decode(&b).unwrap(), req);
    }

    #[test]
    fn requests_round_trip() {
        let fh = Fh { ino: 42, gen: 3 };
        rt(NfsRequest::Null);
        rt(NfsRequest::Mount);
        rt(NfsRequest::Getattr { fh });
        rt(NfsRequest::Setattr {
            fh,
            sattr: WireSetAttr(SetAttr {
                mode: Some(0o600),
                size: Some(10),
                ..Default::default()
            }),
        });
        rt(NfsRequest::Lookup {
            dir: fh,
            name: "x".into(),
        });
        rt(NfsRequest::Readlink { fh });
        rt(NfsRequest::Read {
            fh,
            offset: 5,
            count: 100,
        });
        rt(NfsRequest::Write {
            fh,
            offset: 0,
            data: vec![1, 2, 3].into(),
        });
        rt(NfsRequest::Create {
            dir: fh,
            name: "f".into(),
            mode: 0o644,
            uid: 1,
            gid: 2,
        });
        rt(NfsRequest::CreateSized {
            dir: fh,
            name: "s".into(),
            size: 1 << 30,
            mode: 0o644,
            uid: 1,
            gid: 2,
        });
        rt(NfsRequest::Mkdir {
            dir: fh,
            name: "d".into(),
            mode: 0o755,
            uid: 0,
            gid: 0,
        });
        rt(NfsRequest::Symlink {
            dir: fh,
            name: "l".into(),
            target: "t#9".into(),
            mode: 0o1777,
            uid: 0,
            gid: 0,
        });
        rt(NfsRequest::Remove {
            dir: fh,
            name: "f".into(),
        });
        rt(NfsRequest::Rmdir {
            dir: fh,
            name: "d".into(),
        });
        rt(NfsRequest::RemoveTree {
            dir: fh,
            name: "d".into(),
        });
        rt(NfsRequest::Rename {
            sdir: fh,
            sname: "a".into(),
            ddir: fh,
            dname: "b".into(),
        });
        rt(NfsRequest::Readdir { dir: fh });
        rt(NfsRequest::Fsstat);
        rt(NfsRequest::Access {
            fh,
            uid: 10,
            gid: 20,
            want: 0x7,
        });
        rt(NfsRequest::LookupPath {
            dir: fh,
            path: "a/b/c".into(),
        });
        rt(NfsRequest::Commit { fh });
    }

    #[test]
    fn reply_frames_round_trip() {
        let fh = Fh { ino: 7, gen: 1 };
        let attr = WireAttr(Attr::new(FileType::Regular, 0o644, 1, 2, 99));
        for frame in [
            NfsReplyFrame(Ok(NfsReply::Void)),
            NfsReplyFrame(Ok(NfsReply::Root { fh })),
            NfsReplyFrame(Ok(NfsReply::Attr { attr: attr.clone() })),
            NfsReplyFrame(Ok(NfsReply::Handle {
                fh,
                attr: attr.clone(),
            })),
            NfsReplyFrame(Ok(NfsReply::Target {
                target: "x#1".into(),
            })),
            NfsReplyFrame(Ok(NfsReply::Data {
                data: vec![9; 10].into(),
                eof: true,
            })),
            NfsReplyFrame(Ok(NfsReply::Written { count: 10 })),
            NfsReplyFrame(Ok(NfsReply::Entries {
                entries: vec![WireDirEntry {
                    name: "e".into(),
                    fh,
                    ftype: FileType::Symlink,
                }],
            })),
            NfsReplyFrame(Ok(NfsReply::Stat {
                capacity: 100,
                used: 10,
                free: 90,
            })),
            NfsReplyFrame(Ok(NfsReply::Granted { granted: 0x5 })),
            NfsReplyFrame(Ok(NfsReply::PathNodes {
                nodes: vec![
                    WirePathNode {
                        fh,
                        attr: attr.clone(),
                        link_target: None,
                    },
                    WirePathNode {
                        fh,
                        attr: attr.clone(),
                        link_target: Some("@1234#5".into()),
                    },
                ],
            })),
            NfsReplyFrame(Err(NfsStatus::NoSpc)),
            NfsReplyFrame(Err(NfsStatus::Stale)),
        ] {
            let b = frame.encode();
            assert_eq!(NfsReplyFrame::decode(&b).unwrap(), frame);
        }
    }

    #[test]
    fn vfs_error_mapping_is_total() {
        use kosha_vfs::VfsError::*;
        for e in [
            NoEnt,
            NotDir,
            IsDir,
            Exist,
            NotEmpty,
            NoSpc,
            Stale,
            Inval,
            NameTooLong,
            NotSupp,
            NotFile,
        ] {
            let s: NfsStatus = e.into();
            // Every status survives a wire round trip.
            let frame = NfsReplyFrame(Err(s));
            let b = frame.encode();
            assert_eq!(NfsReplyFrame::decode(&b).unwrap(), frame);
        }
    }
}
