//! Deterministic binary-heap event scheduler — the sim-side half of the
//! event-loop runtime.
//!
//! [`SimNetwork`](crate::SimNetwork) used to advance its virtual clock
//! inline, one `advance()` per modeled cost, which made every delivery a
//! straight-line charge and left no place for timers or pump ticks to
//! interleave. This module replaces that with a classic discrete-event
//! core: a min-heap of `(deadline, seq)`-keyed events popped in O(log n),
//! where `seq` is a monotonically increasing insertion counter that
//! breaks deadline ties. Two properties follow:
//!
//! * **Determinism** — pop order is a pure function of the insert
//!   sequence. Same seed, same inserts ⇒ byte-identical drain, which is
//!   what the CI determinism gates rely on.
//! * **Scale** — a 10k-node churn run schedules millions of pump ticks,
//!   timer wakeups, and the message deliveries that fall due among them;
//!   each costs one heap push and one pop, so total work grows as
//!   `m log n` rather than the `m · n` of scanning per-node state per
//!   step.
//!
//! The scheduler is payload-generic so the transport can queue its own
//! event enum while property tests drive it with plain integers.
//!
//! Self-observability (the `observed` constructor): heap depth and its
//! high-water mark as gauges, a dispatched-event counter, and a
//! dispatch-latency histogram (virtual nanoseconds an event spent queued
//! before its deadline arrived), all registered as flight-recorder
//! sources so `kosha-top` shows runtime health.
//!
//! `kosha_sched_events_total` counts events popped from the heap, no
//! more: it is not a count of RPCs or of clock movements. The transport
//! queues a delivery leg only when something else is due at or before
//! the leg's deadline (see [`SimNetwork`](crate::SimNetwork)'s module
//! docs), so calls made while nothing is armed leave it at zero.

use kosha_obs::{Counter, Gauge, Histogram, Obs};
use parking_lot::Mutex;
use std::cmp::Ordering as CmpOrdering;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Process-wide count of heap-order comparisons, maintained by every
/// scheduler instance. The `sched` bench reads deltas of this to
/// demonstrate the O(log n) per-event claim empirically (comparisons
/// per event ≈ log₂ of heap depth) without depending on wall time,
/// which would break byte-identical bench output.
static HEAP_COMPARISONS: AtomicU64 = AtomicU64::new(0);

/// Total heap-order comparisons performed by all schedulers so far.
#[must_use]
pub fn heap_comparisons() -> u64 {
    HEAP_COMPARISONS.load(Ordering::Relaxed)
}

/// One queued event: fires at `deadline` (nanoseconds on the owning
/// clock), with `seq` breaking ties in insertion order.
struct Entry<T> {
    deadline: u64,
    seq: u64,
    /// Clock reading when the event was scheduled, for the
    /// dispatch-latency histogram.
    enqueued_at: u64,
    payload: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.deadline == other.deadline && self.seq == other.seq
    }
}
impl<T> Eq for Entry<T> {}

impl<T> Ord for Entry<T> {
    /// Reversed `(deadline, seq)` order so `BinaryHeap` (a max-heap)
    /// pops the earliest deadline, earliest insertion first.
    fn cmp(&self, other: &Self) -> CmpOrdering {
        HEAP_COMPARISONS.fetch_add(1, Ordering::Relaxed);
        (other.deadline, other.seq).cmp(&(self.deadline, self.seq))
    }
}
impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<CmpOrdering> {
        Some(self.cmp(other))
    }
}

/// Metric handles for one scheduler (see the module docs).
struct SchedStats {
    depth: Arc<Gauge>,
    depth_hwm: Arc<Gauge>,
    events_total: Arc<Counter>,
    dispatch_latency: Arc<Histogram>,
}

/// Deterministic min-heap event scheduler. See the module docs.
///
/// ```
/// use kosha_rpc::sched::Scheduler;
/// let s: Scheduler<&str> = Scheduler::new();
/// s.schedule_at(20, 0, "late");
/// s.schedule_at(10, 0, "early");
/// s.schedule_at(10, 0, "early-tie");
/// assert_eq!(s.pop_due(25), Some((10, "early")));
/// assert_eq!(s.pop_due(25), Some((10, "early-tie")));
/// assert_eq!(s.pop_due(15), None); // "late" not due yet
/// assert_eq!(s.pop_due(20), Some((20, "late")));
/// ```
pub struct Scheduler<T> {
    heap: Mutex<BinaryHeap<Entry<T>>>,
    seq: AtomicU64,
    hwm: AtomicU64,
    stats: Option<SchedStats>,
}

impl<T> Default for Scheduler<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Scheduler<T> {
    /// New unobserved scheduler (tests, tools).
    #[must_use]
    pub fn new() -> Self {
        Scheduler {
            heap: Mutex::new(BinaryHeap::new()),
            seq: AtomicU64::new(0),
            hwm: AtomicU64::new(0),
            stats: None,
        }
    }

    /// New scheduler publishing `kosha_sched_*` metrics into `obs` and
    /// arming them as flight-recorder sources.
    #[must_use]
    pub fn observed(obs: &Obs) -> Self {
        let depth = obs.registry.gauge("kosha_sched_heap_depth");
        let depth_hwm = obs.registry.gauge("kosha_sched_heap_depth_hwm");
        let events_total = obs.registry.counter("kosha_sched_events_total");
        let dispatch_latency = obs.registry.histogram("kosha_sched_dispatch_latency_nanos");
        obs.recorder.watch_gauge("kosha_sched_heap_depth", &depth);
        obs.recorder
            .watch_counter("kosha_sched_events_total", &events_total);
        obs.recorder.watch_histogram_pct(
            "kosha_sched_dispatch_latency_nanos:p99",
            &dispatch_latency,
            99,
        );
        Scheduler {
            heap: Mutex::new(BinaryHeap::new()),
            seq: AtomicU64::new(0),
            hwm: AtomicU64::new(0),
            stats: Some(SchedStats {
                depth,
                depth_hwm,
                events_total,
                dispatch_latency,
            }),
        }
    }

    /// Schedules `payload` to fire at absolute time `deadline` (nanos).
    /// `now` is the scheduling clock's current reading, recorded for the
    /// dispatch-latency histogram. Returns the event's tie-break
    /// sequence number.
    pub fn schedule_at(&self, deadline: u64, now: u64, payload: T) -> u64 {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let depth = {
            let mut heap = self.heap.lock();
            heap.push(Entry {
                deadline,
                seq,
                enqueued_at: now,
                payload,
            });
            heap.len() as u64
        };
        if depth > self.hwm.load(Ordering::Relaxed) {
            self.hwm.store(depth, Ordering::Relaxed);
        }
        if let Some(s) = &self.stats {
            s.depth.set(depth as i64);
            s.depth_hwm.set(self.hwm.load(Ordering::Relaxed) as i64);
        }
        seq
    }

    /// Pops the earliest event whose deadline is `<= by`, if any,
    /// returning `(deadline, payload)`. Dispatch metrics are charged
    /// here: the latency histogram records how long the event sat queued
    /// (deadline minus schedule time, in virtual nanos).
    pub fn pop_due(&self, by: u64) -> Option<(u64, T)> {
        let entry = {
            let mut heap = self.heap.lock();
            match heap.peek() {
                Some(e) if e.deadline <= by => heap.pop(),
                _ => None,
            }
        }?;
        if let Some(s) = &self.stats {
            s.depth.add(-1);
            s.events_total.inc();
            s.dispatch_latency
                .record(entry.deadline.saturating_sub(entry.enqueued_at));
        }
        Some((entry.deadline, entry.payload))
    }

    /// Deadline of the earliest queued event, if any.
    #[must_use]
    pub fn peek_deadline(&self) -> Option<u64> {
        self.heap.lock().peek().map(|e| e.deadline)
    }

    /// Number of queued events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.heap.lock().len()
    }

    /// True when no events are queued.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.heap.lock().is_empty()
    }

    /// Deepest the heap has ever been (events queued simultaneously).
    #[must_use]
    pub fn high_water(&self) -> u64 {
        self.hwm.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_deadline_then_seq_order() {
        let s: Scheduler<u32> = Scheduler::new();
        s.schedule_at(30, 0, 3);
        s.schedule_at(10, 0, 1);
        s.schedule_at(20, 0, 2);
        s.schedule_at(10, 0, 11); // same deadline, later insert
        let mut out = Vec::new();
        while let Some((dl, v)) = s.pop_due(u64::MAX) {
            out.push((dl, v));
        }
        assert_eq!(out, vec![(10, 1), (10, 11), (20, 2), (30, 3)]);
    }

    #[test]
    fn pop_due_respects_horizon() {
        let s: Scheduler<u8> = Scheduler::new();
        s.schedule_at(100, 0, 1);
        assert_eq!(s.pop_due(99), None);
        assert_eq!(s.len(), 1);
        assert_eq!(s.pop_due(100), Some((100, 1)));
        assert!(s.is_empty());
    }

    #[test]
    fn observed_scheduler_publishes_metrics() {
        let obs = Obs::new();
        let s: Scheduler<u8> = Scheduler::observed(&obs);
        s.schedule_at(5, 0, 1);
        s.schedule_at(9, 2, 2);
        assert_eq!(obs.registry.gauge("kosha_sched_heap_depth").get(), 2);
        assert_eq!(s.high_water(), 2);
        s.pop_due(10);
        s.pop_due(10);
        assert_eq!(obs.registry.gauge("kosha_sched_heap_depth").get(), 0);
        assert_eq!(obs.registry.gauge("kosha_sched_heap_depth_hwm").get(), 2);
        assert_eq!(obs.registry.counter("kosha_sched_events_total").get(), 2);
        let h = obs.registry.histogram("kosha_sched_dispatch_latency_nanos");
        assert_eq!(h.count(), 2); // sojourns 5 and 7
                                  // Scheduler series are flight-recorder sources: one sampler
                                  // tick materializes them.
        obs.recorder.sample_all(11);
        assert!(obs
            .recorder
            .series_names()
            .iter()
            .any(|n| n == "kosha_sched_heap_depth"));
        assert_eq!(obs.recorder.last("kosha_sched_events_total"), Some((11, 2)));
    }

    #[test]
    fn comparisons_are_counted() {
        let before = heap_comparisons();
        let s: Scheduler<u32> = Scheduler::new();
        for i in 0..64 {
            s.schedule_at(i, 0, i as u32);
        }
        while s.pop_due(u64::MAX).is_some() {}
        assert!(heap_comparisons() > before);
    }
}
