//! One module per report; each exposes the function its row of
//! [`crate::REPORTS`] names.

pub mod ablations;
pub mod churn;
pub mod fanout;
pub mod hotspot;
pub mod obs_report;
pub mod overhead_model;
pub mod paper;
pub mod recorder;
pub mod replay_compare;
pub mod sched;
pub mod trace;
pub mod writeback;
