//! RPC substrate for the Kosha reproduction.
//!
//! The original Kosha prototype ran on real FreeBSD machines: `koshad`
//! forwarded Sun RPC NFS calls over a 100 Mb/s LAN, and the Pastry port
//! exchanged overlay messages over sockets. This crate is the substitution
//! for that hardware testbed (see DESIGN.md §2): it provides
//!
//! * a compact hand-rolled binary **wire codec** ([`wire`]) so every message
//!   has a concrete byte size (the latency model charges per byte),
//! * a [`Network`] abstraction over which all node-to-node communication
//!   flows — nodes never share memory, matching the paper's
//!   message-passing deployment,
//! * [`SimNetwork`] — a deterministic in-process transport with a virtual
//!   clock, a calibrated latency model (per-hop RTT, per-byte bandwidth,
//!   per-operation server cost), failure injection, and an event-driven
//!   core (a binary-heap [`sched::Scheduler`] drives message delivery,
//!   pump ticks, and timer wakeups in O(log n) per event), used by all
//!   experiments, and
//! * [`ThreadedNetwork`] — a real concurrent transport (every request
//!   runs on the thread that issued it, one at a time per node and
//!   service) used by concurrency integration tests, scale smoke runs
//!   and the wall-clock benchmark.
//!
//! Handlers are registered per [`ServiceId`] (Pastry, NFS, Kosha control),
//! mirroring the two-level messaging of the prototype: "node lookup and
//! other p2p messages are relayed using the p2p substrate \[...\] koshad uses
//! direct NFS RPCs to communicate with remote NFS servers" (Section 5.1).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clock;
#[cfg(feature = "lockcheck")]
mod lockcheck_gate;
mod metrics;
pub mod network;
pub mod sched;
pub mod simnet;
pub mod threadnet;
pub mod wire;

/// The refcounted byte view every frame and payload field is made of.
pub use bytes::Bytes;
pub use clock::{Clock, SimTime, VirtualClock, WallClock};
pub use network::{
    Network, NodeAddr, PumpHook, RpcError, RpcHandler, RpcRequest, RpcResponse, ServiceId,
    ServiceMux, TraceHeader,
};
pub use sched::{heap_comparisons, Scheduler};
pub use simnet::{LatencyModel, SimNetwork};
pub use threadnet::ThreadedNetwork;
pub use wire::{Frame, PayloadPart, Reader, WireError, WireRead, WireWrite, Writer};
