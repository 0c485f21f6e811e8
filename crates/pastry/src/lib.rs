//! Pastry structured peer-to-peer overlay (Rowstron & Druschel, 2001), the
//! DHT substrate Kosha builds on.
//!
//! The paper reimplemented "a simplified version of the Pastry API" for its
//! prototype; this crate implements the full routing structure in safe
//! Rust:
//!
//! * every node has a uniform random 128-bit nodeId in a circular
//!   identifier space;
//! * each node keeps a **routing table** of `⌈128/b⌉` rows × `2^b` columns
//!   whose row-`r` entries share exactly `r` leading digits with the node,
//!   and a **leaf set** of the `l/2` numerically closest nodes on either
//!   side;
//! * a message with key `k` is routed — here *iteratively*, the caller
//!   querying each hop for the next — to the live node whose id is
//!   numerically closest to `k`, in `O(log N)` hops;
//! * node **join** bootstraps the newcomer's tables from the nodes along
//!   the route to its own id and announces it to every node it learned of;
//! * node **failure** is detected on RPC errors and repaired from the
//!   surviving leaf set; leaf-set membership changes are surfaced to the
//!   application through [`OverlayObserver`] callbacks — exactly the hook
//!   Kosha's replica manager uses ("the p2p component \[...\] informs Kosha
//!   on a node N when nodes in N's leaf set are affected", Section 4.3).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod messages;
pub mod node;
pub mod state;

pub use messages::{NodeInfo, PastryReply, PastryRequest};
pub use node::{OverlayError, OverlayObserver, PastryNode, LEAF_HALF};
pub use state::{LeafSet, RoutingTable};
