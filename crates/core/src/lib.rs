//! Kosha: a peer-to-peer enhancement for the Network File System.
//!
//! This crate is the paper's primary contribution (Butt, Johnson, Zheng &
//! Hu, SC 2004): the `koshad` daemon that blends NFS with a Pastry DHT to
//! aggregate the unused disk space of many machines into one shared file
//! system with normal NFS semantics. Each participating machine runs a
//! [`KoshaNode`], which bundles
//!
//! * the node's **real NFS server** exporting its contributed partition
//!   (`/kosha_store` for primary data, `/kosha_replica` for the shadow
//!   replica area users cannot touch),
//! * a **Pastry overlay** endpoint used to map directory names to storage
//!   nodes ([`kosha_pastry`]),
//! * the **koshad loopback NFS server** exporting the virtual `/kosha`
//!   file system with *virtual file handles* that transparently follow
//!   data across node failures and migrations, and
//! * the **Kosha control service** carrying primary-side mutations (with
//!   replica fan-out), promotion, and migration traffic between koshad
//!   instances.
//!
//! Key mechanisms, with their paper sections:
//!
//! * directory-granularity distribution bounded by a **distribution
//!   level** (§3.1–3.2): a directory at depth ≤ L is placed on
//!   `DHT(SHA1(name))`; everything deeper lives with its ancestor;
//! * **capacity redirection** (§3.3): when the mapped node is too full, a
//!   random salt is appended and the name re-hashed (iteratively, up to a
//!   retry bound), leaving a *special link* `name → name#salt` in the
//!   parent directory;
//! * **virtual handles** (§4.1.2): clients hold stable handles; koshad
//!   maps them to `(node, real handle)` pairs and re-binds on failure;
//! * **replication** (§4.2): the primary maintains K replicas on its leaf
//!   set neighbors and fans every mutation out to them;
//! * **transparent fault handling** (§4.4): an RPC error drops the cached
//!   mapping, re-routes the key — which lands on a replica holder — and
//!   promotes that replica to primary;
//! * **migration** (§4.3): when a node joins, anchors whose keys now map
//!   to it are pushed over (guarded by a migration flag, a bit of the
//!   slot's record in [`slots`]), and the old primary's copy becomes a
//!   replica.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod audit;
pub mod config;
pub mod control;
pub mod flight;
pub mod handles;
mod hot;
pub mod mount;
pub mod node;
pub mod ops;
mod pathmap;
pub mod paths;
pub mod primary;
pub mod resolve;
pub mod slots;
pub mod stats;
pub mod writeback;

pub use audit::{audit_cluster, slot_summary, tree_digest, AuditOptions, AuditReport, SlotSummary};
pub use config::{KoshaConfig, ReadFrom, ReplicationMode};
pub use flight::{cluster_flight, FlightReport, NodeRow};
pub use mount::KoshaMount;
pub use node::{boot_cluster, KoshaNode};
pub use stats::{KoshaStats, StatsSnapshot};
