//! Observability for the Kosha reproduction.
//!
//! The paper evaluates Kosha purely by external wall-clock measurement
//! (Modified Andrew Benchmark, §5/§6); the only internal visibility the
//! prototype had was printf. This crate gives every layer of the
//! reproduction the instrumentation-first tooling the DHT-storage
//! literature uses to attribute cost:
//!
//! * [`Histogram`] — a lock-free log-linear latency histogram (atomic
//!   buckets, ~6% relative error) with p50/p95/p99/max, striped per
//!   thread ([`stripe`]),
//! * [`Registry`] — named counters (one word, or striped per thread
//!   where every RPC bumps them), gauges, and histograms with a
//!   Prometheus-style text exposition ([`Registry::render`]) and a
//!   JSON object ([`Registry::json`]) for benches,
//! * [`Journal`] — a bounded ring buffer of structured events stamped
//!   with the transport clock ([`crate::journal::Event`]) and an op-id
//!   for causality, scoped per node,
//! * [`trace`] — Dapper-style causal tracing: per-node span buffers
//!   ([`Tracer`]) whose ids propagate through the RPC wire header, plus
//!   a collector/analyzer that reconstructs span trees and attributes
//!   critical-path time (parallel fan-out charged as `max`, not sum),
//! * [`json`] — the one JSON writer: a [`json::Value`] tree that every
//!   report and dump builds, printed by one layout rule and one escaper.
//!
//! The crate has zero dependencies (it sits *below* `kosha-rpc` in the
//! dependency graph, so every layer can use it). Time is plain `u64`
//! nanoseconds; callers stamp events from whatever clock their transport
//! uses (`SimTime` under `SimNetwork`, monotonic wall time under
//! `ThreadedNetwork`), keeping output deterministic in simulation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fxhash;
pub mod histogram;
pub mod journal;
pub mod json;
pub mod recorder;
pub mod registry;
pub mod stripe;
pub mod trace;

pub use histogram::Histogram;
pub use journal::{Event, Journal};
pub use recorder::{HeatEntry, ReadHeat, Recorder, Series};
pub use registry::{Counter, Gauge, Registry};
pub use trace::{SpanContext, SpanRecord, Tracer};

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One observability domain: a metrics registry plus an event journal
/// sharing an op-id sequence. Layers within one node (or one transport)
/// share a single `Obs` so their metrics and events correlate.
#[derive(Debug)]
pub struct Obs {
    /// Named metrics.
    pub registry: Registry,
    /// Structured event ring.
    pub journal: Journal,
    /// Causal-trace span buffer (see [`trace`]).
    pub tracer: Tracer,
    /// Flight-recorder time-series store (see [`recorder`]).
    pub recorder: Recorder,
    next_op: AtomicU64,
}

impl Default for Obs {
    fn default() -> Self {
        Obs::with_journal_capacity(Journal::DEFAULT_CAPACITY)
    }
}

impl Obs {
    /// New domain with the default journal capacity.
    #[must_use]
    pub fn new() -> Arc<Self> {
        Arc::new(Obs::default())
    }

    /// New domain whose journal keeps the last `capacity` events.
    #[must_use]
    pub fn with_journal_capacity(capacity: usize) -> Self {
        Obs {
            registry: Registry::new(),
            journal: Journal::new(capacity),
            tracer: Tracer::default(),
            recorder: Recorder::default(),
            next_op: AtomicU64::new(1),
        }
    }

    /// Allocates the next operation id (used to correlate journal events
    /// belonging to one logical operation across layers).
    pub fn next_op_id(&self) -> u64 {
        self.next_op.fetch_add(1, Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_ids_are_unique_and_monotonic() {
        let obs = Obs::new();
        let a = obs.next_op_id();
        let b = obs.next_op_id();
        assert!(b > a);
    }

    #[test]
    fn registry_and_journal_share_a_domain() {
        let obs = Obs::new();
        obs.registry.counter("x_total").inc();
        let op = obs.next_op_id();
        obs.journal.record(0, 7, "test", op, "hello");
        assert_eq!(obs.registry.counter("x_total").get(), 1);
        assert_eq!(obs.journal.len(), 1);
    }
}
