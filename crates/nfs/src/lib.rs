//! NFSv3-like protocol, server, and client.
//!
//! Kosha's nodes "are assumed to run NFS servers, so that their contributed
//! disk space can be accessed via NFS" (Section 4), and `koshad` talks to
//! them with "direct NFS RPCs" (Section 5.1). This crate provides that
//! protocol over the [`kosha_rpc`] transport:
//!
//! * [`messages`] — the procedure set (LOOKUP, CREATE, MKDIR, READ, WRITE,
//!   GETATTR, SETATTR, REMOVE, RMDIR, RENAME, READDIR, SYMLINK, READLINK,
//!   FSSTAT, plus a MOUNT-lite handshake), with opaque file handles and
//!   XDR-style wire encodings;
//! * [`server`] — an NFS server exporting one [`kosha_vfs::Vfs`] store,
//!   with a disk-cost model charged to the shared clock (the substitute
//!   for the testbed's 7200 RPM disk);
//! * [`client`] — a typed blocking client, the building block `koshad`
//!   uses for both local (loopback) and remote stores.
//!
//! File handles are opaque exactly as in NFS: "they only have meaning to
//! the NFS server" (Section 4.1.2) — which is what lets Kosha interpose
//! *virtual* handles in front of them.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod client;
pub mod messages;
pub mod server;

pub use cache::{CacheStats, CachingClient};
pub use client::NfsClient;
pub use messages::{
    Fh, NfsError, NfsReply, NfsRequest, NfsResult, NfsStatus, WireAttr, WirePathNode,
};
pub use server::{DiskModel, NfsServer};
