//! NFS procedure set and wire encodings.

use kosha_rpc::{
    wire_enum, wire_struct, Bytes, NodeAddr, Reader, RpcError, WireError, WireRead, WireWrite,
    Writer,
};
use kosha_vfs::{Attr, DirEntry, FileId, FileType, SetAttr, VfsError};

wire_struct! {
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

wire_enum! {
    /// NFSv3-style status codes (`nfsstat3` subset).
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    pub enum NfsStatus {
        /// `NFS3ERR_NOENT`
        NoEnt = 1,
        /// `NFS3ERR_NOTDIR`
        NotDir = 2,
        /// `NFS3ERR_ISDIR`
        IsDir = 3,
        /// `NFS3ERR_EXIST`
        Exist = 4,
        /// `NFS3ERR_NOTEMPTY`
        NotEmpty = 5,
        /// `NFS3ERR_NOSPC` — triggers Kosha's directory redirection.
        NoSpc = 6,
        /// `NFS3ERR_STALE`
        Stale = 7,
        /// `NFS3ERR_INVAL`
        Inval = 8,
        /// `NFS3ERR_NAMETOOLONG`
        NameTooLong = 9,
        /// `NFS3ERR_NOTSUPP`
        NotSupp = 10,
        /// `NFS3ERR_IO` (catch-all server failure)
        Io = 11,
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

wire_struct! {
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
}

wire_enum! {
    /// The NFS procedure set. `Mount` plays the role of the MOUNT protocol's
    /// `MNT` (hand out the export's root handle); `RemoveTree` is a
    /// documented extension used by the replica manager. The labels
    /// (`PROC_NAMES`, in declaration order, indexed by `proc_index()`) name
    /// the per-procedure metrics and `nfsc:`/`nfs:` spans.
    #[derive(Debug, Clone, PartialEq)]
    pub enum NfsRequest labelled(PROC_NAMES, proc_index, proc_name) {
        /// No-op liveness probe (NFSPROC3_NULL).
        Null = 0 => "null",
        /// MOUNT-lite: fetch the export's root handle.
        Mount = 1 => "mount",
        /// Fetch attributes.
        Getattr {
            /// Object handle.
            fh: Fh,
        } = 2 => "getattr",
        /// Update attributes.
        Setattr {
            /// Object handle.
            fh: Fh,
            /// Fields to change.
            sattr: WireSetAttr,
        } = 3 => "setattr",
        /// Look up `name` in directory `dir`. As in NFSv3, the RPC carries the
        /// *parent handle* and a single component, never a full path
        /// (Section 4.1.3).
        Lookup {
            /// Parent directory handle.
            dir: Fh,
            /// Child name.
            name: String,
        } = 4 => "lookup",
        /// Read a symlink target.
        Readlink {
            /// Symlink handle.
            fh: Fh,
        } = 5 => "readlink",
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
        } = 18 => "access",
        /// Read file data.
        Read {
            /// File handle.
            fh: Fh,
            /// Byte offset.
            offset: u64,
            /// Maximum bytes to return.
            count: u32,
        } = 6 => "read",
        /// Write file data.
        Write {
            /// File handle.
            fh: Fh,
            /// Byte offset.
            offset: u64,
            /// Data to write (a view of the request frame on the server side).
            data: Bytes,
        } = 7 => "write",
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
        } = 8 => "create",
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
        } = 10 => "mkdir",
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
        } = 11 => "symlink",
        /// Remove a file or symlink.
        Remove {
            /// Parent directory handle.
            dir: Fh,
            /// Name to remove.
            name: String,
        } = 12 => "remove",
        /// Remove an empty directory.
        Rmdir {
            /// Parent directory handle.
            dir: Fh,
            /// Name to remove.
            name: String,
        } = 13 => "rmdir",
        /// Extension: recursively remove a subtree (replica teardown and purge
        /// of redirected hierarchies).
        RemoveTree {
            /// Parent directory handle.
            dir: Fh,
            /// Subtree root name.
            name: String,
        } = 14 => "remove_tree",
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
        } = 15 => "rename",
        /// List a directory (READDIRPLUS-style: names, handles, types).
        Readdir {
            /// Directory handle.
            dir: Fh,
        } = 16 => "readdir",
        /// Filesystem statistics (capacity/used/free), used by Kosha's
        /// redirection to test node fullness.
        Fsstat = 17 => "fsstat",
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
        } = 19 => "lookup_path",
        /// COMMIT (NFSv3): make previously-written data for the file
        /// durable. The plain store server acknowledges immediately (its
        /// writes are synchronous); the koshad loopback server treats it as
        /// a write-behind replication flush barrier (DESIGN.md §11).
        Commit {
            /// File handle.
            fh: Fh,
        } = 20 => "commit",
    }
}

wire_enum! {
    /// Successful procedure results. The full reply on the wire is
    /// `Result<NfsReply, NfsStatus>` encoded as a status byte plus body.
    #[derive(Debug, Clone, PartialEq)]
    pub enum NfsReply {
        /// NULL / acknowledgements (SETATTR piggybacks attrs instead).
        Void = 0,
        /// Root handle from `Mount`.
        Root {
            /// The export's root directory handle.
            fh: Fh,
        } = 1,
        /// Attributes (GETATTR, SETATTR).
        Attr {
            /// Current attributes.
            attr: WireAttr,
        } = 2,
        /// Handle plus attributes (LOOKUP, CREATE, MKDIR, SYMLINK).
        Handle {
            /// Object handle.
            fh: Fh,
            /// Object attributes.
            attr: WireAttr,
        } = 3,
        /// Symlink target (READLINK).
        Target {
            /// The link's target string.
            target: String,
        } = 4,
        /// File data (READ).
        Data {
            /// Bytes read (a view of the reply frame on the client side).
            data: Bytes,
            /// True if the read reached end of file.
            eof: bool,
        } = 5,
        /// Bytes written (WRITE).
        Written {
            /// Count of bytes accepted.
            count: u32,
        } = 6,
        /// Directory listing (READDIR).
        Entries {
            /// Directory entries in name order.
            entries: Vec<WireDirEntry>,
        } = 7,
        /// Granted permission bits (ACCESS).
        Granted {
            /// Subset of the requested bits the identity holds.
            granted: u32,
        } = 9,
        /// Filesystem statistics (FSSTAT).
        Stat {
            /// Total bytes contributed.
            capacity: u64,
            /// Bytes in use.
            used: u64,
            /// Bytes free.
            free: u64,
        } = 8,
        /// Resolved prefix of a compound walk (LOOKUPPATH), one node per
        /// component in walk order. May be shorter than the requested path.
        PathNodes {
            /// Resolved components, outermost first.
            nodes: Vec<WirePathNode>,
        } = 10,
    }
}

/// The outermost frame of a reply, for NFS ([`NfsReplyFrame`]) and for
/// the koshad control protocol alike: status byte 0 followed by the
/// reply, or the non-zero tag of an [`NfsStatus`] and nothing more
/// (`nfsstat3`: `NFS3_OK` = 0). Written by hand because the two arms
/// share that one byte: it is the `Ok` tag and the error's own tag.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplyFrame<T>(pub Result<T, NfsStatus>);

/// The reply frame of an NFS procedure.
pub type NfsReplyFrame = ReplyFrame<NfsReply>;

impl<T: WireWrite> WireWrite for ReplyFrame<T> {
    fn write(&self, w: &mut Writer) {
        match &self.0 {
            Ok(reply) => {
                w.u8(0);
                reply.write(w);
            }
            Err(status) => w.u8(status.tag()),
        }
    }
}
impl<T: WireRead> WireRead for ReplyFrame<T> {
    fn read(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(ReplyFrame(match r.u8()? {
            0 => Ok(T::read(r)?),
            tag => Err(NfsStatus::from_tag(tag)?),
        }))
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
            ReplyFrame(Ok(NfsReply::Void)),
            ReplyFrame(Ok(NfsReply::Root { fh })),
            ReplyFrame(Ok(NfsReply::Attr { attr: attr.clone() })),
            ReplyFrame(Ok(NfsReply::Handle {
                fh,
                attr: attr.clone(),
            })),
            ReplyFrame(Ok(NfsReply::Target {
                target: "x#1".into(),
            })),
            ReplyFrame(Ok(NfsReply::Data {
                data: vec![9; 10].into(),
                eof: true,
            })),
            ReplyFrame(Ok(NfsReply::Written { count: 10 })),
            ReplyFrame(Ok(NfsReply::Entries {
                entries: vec![WireDirEntry {
                    name: "e".into(),
                    fh,
                    ftype: FileType::Symlink,
                }],
            })),
            ReplyFrame(Ok(NfsReply::Stat {
                capacity: 100,
                used: 10,
                free: 90,
            })),
            ReplyFrame(Ok(NfsReply::Granted { granted: 0x5 })),
            ReplyFrame(Ok(NfsReply::PathNodes {
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
            ReplyFrame(Err(NfsStatus::NoSpc)),
            ReplyFrame(Err(NfsStatus::Stale)),
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
            let frame = ReplyFrame(Err(s));
            let b = frame.encode();
            assert_eq!(NfsReplyFrame::decode(&b).unwrap(), frame);
        }
    }
}
