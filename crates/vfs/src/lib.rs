//! In-memory per-node filesystem: the substitute for each Kosha node's
//! local disk partition.
//!
//! The paper dedicates "a local disk partition \[...\] for space
//! contribution. The size of the partition provides control over the amount
//! of disk space contributed to Kosha" (Section 5). This crate implements
//! that partition as an inode-based in-memory filesystem with:
//!
//! * regular files, directories, and symbolic links (Kosha's *special
//!   links* that mark redirected subdirectories are ordinary symlinks),
//! * POSIX-ish attributes (mode, uid/gid, size, timestamps) sufficient to
//!   back the NFSv3 attribute model,
//! * a capacity quota with exact used-byte accounting — the mechanism that
//!   triggers Kosha's salt-redirection when a node fills up (Section 3.3),
//! * a generation number that invalidates all outstanding handles when a
//!   node is purged (Section 4.3: "all Kosha data on a revived node is
//!   purged").
//!
//! Errors deliberately mirror NFSv3 status codes so the NFS layer maps them
//! 1:1.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod fs;
pub mod inode;
pub mod path;

pub use error::VfsError;
pub use fs::{
    DirEntry, ExportItem, ExportKind, SetAttr, Vfs, ACCESS_EXEC, ACCESS_READ, ACCESS_WRITE,
};
pub use inode::{Attr, FileId, FileType, Ino};
pub use path::{join_path, normalize, split_path};
