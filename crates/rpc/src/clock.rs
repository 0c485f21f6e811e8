//! Simulation and wall clocks.
//!
//! The paper reports Modified Andrew Benchmark times measured on a physical
//! 8-node FreeBSD cluster. Our substitute testbed measures elapsed time on a
//! [`VirtualClock`]: each RPC advances the clock by the modeled network and
//! service latency, so experiment output is deterministic and independent of
//! the host machine. The [`WallClock`] implementation backs the threaded
//! transport used in concurrency tests.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A point in simulated time, in nanoseconds since simulation start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

impl SimTime {
    /// Zero time.
    pub const ZERO: SimTime = SimTime(0);

    /// Time as a `Duration` since simulation start.
    #[must_use]
    pub fn as_duration(self) -> Duration {
        Duration::from_nanos(self.0)
    }

    /// Elapsed duration since `earlier` (saturating).
    #[must_use]
    pub fn since(self, earlier: SimTime) -> Duration {
        Duration::from_nanos(self.0.saturating_sub(earlier.0))
    }

    /// Elapsed nanoseconds since `earlier` (saturating) — the unit
    /// latency histograms record.
    #[must_use]
    pub fn since_nanos(self, earlier: SimTime) -> u64 {
        self.0.saturating_sub(earlier.0)
    }

    /// This time plus `d`.
    #[must_use]
    pub fn plus(self, d: Duration) -> SimTime {
        SimTime(self.0.saturating_add(d.as_nanos() as u64))
    }
}

/// Source of time for a transport. All latency accounting in the simulated
/// experiments flows through this trait.
pub trait Clock: Send + Sync {
    /// Current time.
    fn now(&self) -> SimTime;
    /// Advances the clock by `d` (a no-op for real-time clocks, which
    /// instead sleep).
    fn advance(&self, d: Duration);
}

/// Deterministic logical clock: `advance` adds to an atomic counter.
///
/// Modeled costs accumulate here along the (serial) critical path of the
/// driving workload, exactly like wall time would accumulate for a single
/// client performing blocking RPCs.
#[derive(Debug, Default)]
pub struct VirtualClock {
    nanos: AtomicU64,
}

impl VirtualClock {
    /// New clock at time zero.
    #[must_use]
    pub fn new() -> Arc<Self> {
        Arc::new(VirtualClock::default())
    }

    /// Resets to time zero (between benchmark phases).
    pub fn reset(&self) {
        self.nanos.store(0, Ordering::Relaxed);
    }

    /// Moves the clock to an absolute time (backwards or forwards).
    ///
    /// This exists for the simulated transport's parallel fan-out
    /// (`Network::call_many`): each call in a batch is replayed from the
    /// same start time and the clock is finally set to `start + max`
    /// of the individual elapsed times, so concurrent RPCs cost the
    /// slowest one rather than the sum. Only the single driving thread
    /// of a deterministic simulation may use it.
    pub fn set(&self, t: SimTime) {
        self.nanos.store(t.0, Ordering::Relaxed);
    }
}

impl Clock for VirtualClock {
    fn now(&self) -> SimTime {
        SimTime(self.nanos.load(Ordering::Relaxed))
    }

    fn advance(&self, d: Duration) {
        if !d.is_zero() {
            self.nanos.fetch_add(d.as_nanos() as u64, Ordering::Relaxed);
        }
    }
}

/// Real-time clock used by [`crate::ThreadedNetwork`]: `now` reads a
/// monotonic timer, `advance` sleeps.
#[derive(Debug)]
pub struct WallClock {
    start: std::time::Instant,
}

impl Default for WallClock {
    fn default() -> Self {
        WallClock {
            start: std::time::Instant::now(),
        }
    }
}

impl WallClock {
    /// New clock anchored at the current instant.
    #[must_use]
    pub fn new() -> Arc<Self> {
        Arc::new(WallClock::default())
    }
}

impl Clock for WallClock {
    fn now(&self) -> SimTime {
        SimTime(self.start.elapsed().as_nanos() as u64)
    }

    fn advance(&self, d: Duration) {
        if !d.is_zero() {
            std::thread::sleep(d);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn virtual_clock_accumulates() {
        let c = VirtualClock::new();
        assert_eq!(c.now(), SimTime::ZERO);
        c.advance(Duration::from_micros(250));
        c.advance(Duration::from_micros(750));
        assert_eq!(c.now().as_duration(), Duration::from_millis(1));
        c.reset();
        assert_eq!(c.now(), SimTime::ZERO);
    }

    #[test]
    fn sim_time_arithmetic() {
        let t = SimTime::ZERO.plus(Duration::from_secs(2));
        assert_eq!(t.since(SimTime::ZERO), Duration::from_secs(2));
        assert_eq!(SimTime::ZERO.since(t), Duration::ZERO); // saturates
    }

    #[test]
    fn wall_clock_moves_forward() {
        let c = WallClock::new();
        let a = c.now();
        c.advance(Duration::from_millis(2));
        let b = c.now();
        assert!(b > a);
    }
}
