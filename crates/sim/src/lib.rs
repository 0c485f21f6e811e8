//! Simulation testbed and experiment drivers for the Kosha reproduction.
//!
//! The paper's evaluation has two halves, and this crate implements both:
//!
//! * **Prototype measurements** (Tables 1–2): the Modified Andrew
//!   Benchmark run against the *full* Kosha stack (overlay + NFS + koshad)
//!   on a simulated LAN with a virtual clock — [`cluster`], [`mab`], with
//!   the unmodified-NFS baseline in [`baseline`].
//! * **Trace-driven simulations** (Figures 5–7): load balance,
//!   redirection, and availability studies driven by synthetic traces
//!   that match the aggregate statistics of the paper's Purdue
//!   file-system trace and Microsoft availability trace — [`fstrace`],
//!   [`placement`], [`availability`]. The paper, too, ran these as
//!   simulations rather than on the 8-node prototype.
//!
//! [`experiments`] exposes one entry point per table/figure; the
//! `kosha-bench` crate prints the paper-style rows, and EXPERIMENTS.md
//! records paper-vs-measured values.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod availability;
pub mod baseline;
pub mod churn;
pub mod cluster;
pub mod experiments;
pub mod fstrace;
pub mod mab;
pub mod model;
pub mod placement;
pub mod replay;

pub use availability::{AvailabilityParams, AvailabilityTrace};
pub use churn::{run_churn, ChurnParams, ChurnReport, ChurnWindow, DivergencePoint};
pub use cluster::{ClusterParams, SimCluster};
pub use fstrace::{FsTrace, TraceFile, TraceParams};
pub use mab::{MabParams, MabTimes};
pub use placement::{PlacementParams, PlacementSim};
