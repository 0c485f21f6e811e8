//! Lock-free log-linear histogram.
//!
//! Values (typically latencies in nanoseconds) are binned into buckets
//! whose width grows geometrically: each power-of-two octave is split
//! into 16 linear sub-buckets, so the relative error of any recorded
//! value is at most 1/16 (~6%). All state is atomic; recording is three
//! `fetch_add`s, and a `fetch_max` when the sample is a new maximum, safe
//! from any thread without locks.
//!
//! Every histogram is striped per thread ([`crate::stripe`]): a thread
//! records into a shard of its own and readers add the shards up. Every
//! histogram in the tree is a transport's, recorded on each RPC by
//! whichever threads make RPCs; a shard is made on a thread's first
//! sample, so a histogram only one thread records into is one shard.

use crate::stripe::Striped;
use std::sync::atomic::{AtomicU64, Ordering};

/// Sub-bucket resolution: 2^4 = 16 linear bins per octave.
const SUB_BITS: u32 = 4;
const SUBS: usize = 1 << SUB_BITS;
/// Octaves above the linear region: enough for u64::MAX.
const OCTAVES: usize = 64 - SUB_BITS as usize;
/// Total buckets: one linear region of 2*SUBS values, then (OCTAVES-1)
/// log regions of SUBS buckets each.
const BUCKETS: usize = 2 * SUBS + (OCTAVES - 1) * SUBS;

/// Index of the bucket containing `v`.
fn bucket_index(v: u64) -> usize {
    if v < (2 * SUBS) as u64 {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros(); // >= SUB_BITS + 1 here
    let octave = (msb - SUB_BITS) as usize; // >= 1
    let sub = ((v >> (msb - SUB_BITS)) as usize) & (SUBS - 1);
    SUBS + octave * SUBS + sub
}

/// Inclusive upper bound of bucket `i` (the value reported for
/// quantiles, guaranteeing estimates bound true sample quantiles from
/// above).
fn bucket_upper(i: usize) -> u64 {
    if i < 2 * SUBS {
        return i as u64;
    }
    let rel = i - SUBS;
    let octave = rel / SUBS; // >= 1
    let sub = rel % SUBS;
    let base = 1u64 << (octave + SUB_BITS as usize);
    let width = base >> SUB_BITS;
    // The top bucket's exclusive end is 2^64; wrapping yields u64::MAX.
    base.wrapping_add((sub as u64 + 1) * width).wrapping_sub(1)
}

/// One thread stripe's samples.
#[repr(align(128))]
struct Shard {
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
    buckets: [AtomicU64; BUCKETS],
}

impl Default for Shard {
    fn default() -> Self {
        Shard {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

/// Lock-free log-linear histogram of `u64` samples.
pub struct Histogram {
    shards: Striped<Shard>,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count())
            .field("sum", &self.sum())
            .field("max", &self.max())
            .finish()
    }
}

impl Histogram {
    /// New empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Histogram {
            shards: Striped::new(),
        }
    }

    /// Records one sample.
    pub fn record(&self, v: u64) {
        let shard = self.shards.local();
        shard.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        shard.count.fetch_add(1, Ordering::Relaxed);
        shard.sum.fetch_add(v, Ordering::Relaxed);
        // The maximum only grows, and seldom: look before writing, so a
        // sample that does not raise it leaves the word alone.
        if v > shard.max.load(Ordering::Relaxed) {
            shard.max.fetch_max(v, Ordering::Relaxed);
        }
    }

    fn total(&self, word: impl Fn(&Shard) -> &AtomicU64) -> u64 {
        self.shards
            .each()
            .map(|s| word(s).load(Ordering::Relaxed))
            .sum()
    }

    /// Samples per bucket, over every shard.
    fn buckets(&self) -> Vec<u64> {
        let mut out = vec![0; BUCKETS];
        for shard in self.shards.each() {
            for (n, b) in out.iter_mut().zip(&shard.buckets) {
                *n += b.load(Ordering::Relaxed);
            }
        }
        out
    }

    /// Number of recorded samples.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.total(|s| &s.count)
    }

    /// Sum of recorded samples.
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.total(|s| &s.sum)
    }

    /// Largest recorded sample (0 when empty).
    #[must_use]
    pub fn max(&self) -> u64 {
        self.shards
            .each()
            .map(|s| s.max.load(Ordering::Relaxed))
            .max()
            .unwrap_or(0)
    }

    /// Arithmetic mean of recorded samples (0.0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum() as f64 / n as f64
        }
    }

    /// Upper bound on the `q`-quantile (`0.0 ..= 1.0`) of the recorded
    /// samples: the reported value is ≥ the true sample quantile and
    /// within one bucket width (≤ ~6% relative) above it. Returns 0 for
    /// an empty histogram.
    #[must_use]
    pub fn quantile(&self, q: f64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        // Rank of the order statistic (1-based, ceil), e.g. q=0.5 of
        // n=10 is the 5th smallest sample.
        let rank = ((q * n as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, n) in self.buckets().into_iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_upper(i).min(self.max());
            }
        }
        self.max()
    }

    /// `(p50, p95, p99, max)` convenience tuple.
    #[must_use]
    pub fn summary(&self) -> (u64, u64, u64, u64) {
        (
            self.quantile(0.50),
            self.quantile(0.95),
            self.quantile(0.99),
            self.max(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_cover_and_order() {
        // Every value maps to a bucket whose bounds contain it, and
        // bucket uppers are non-decreasing.
        let mut prev = 0;
        for i in 0..BUCKETS {
            let u = bucket_upper(i);
            assert!(u >= prev, "bucket {i} upper {u} < {prev}");
            prev = u;
        }
        for v in [0u64, 1, 15, 16, 31, 32, 33, 100, 1000, 1 << 20, u64::MAX] {
            let i = bucket_index(v);
            assert!(bucket_upper(i) >= v, "v={v} i={i}");
            if i > 0 {
                assert!(bucket_upper(i - 1) < v, "v={v} i={i}");
            }
        }
    }

    #[test]
    fn small_values_are_exact() {
        let h = Histogram::new();
        for v in 0..32u64 {
            h.record(v);
        }
        assert_eq!(h.quantile(0.0), 0);
        assert_eq!(h.quantile(1.0), 31);
        assert_eq!(h.count(), 32);
        assert_eq!(h.sum(), (0..32).sum::<u64>());
    }

    #[test]
    fn quantile_bounds_relative_error() {
        let h = Histogram::new();
        let mut samples: Vec<u64> = (0..1000u64).map(|i| i * i * 37 + 5).collect();
        for &s in &samples {
            h.record(s);
        }
        samples.sort_unstable();
        for q in [0.5, 0.9, 0.95, 0.99, 1.0] {
            let rank = ((q * samples.len() as f64).ceil() as usize).max(1);
            let truth = samples[rank - 1];
            let est = h.quantile(q);
            assert!(est >= truth, "q={q} est={est} truth={truth}");
            assert!(
                est as f64 <= truth as f64 * (1.0 + 1.0 / SUBS as f64) + 1.0,
                "q={q} est={est} truth={truth}"
            );
        }
    }

    #[test]
    fn quantile_of_empty_histogram_is_zero() {
        let h = Histogram::new();
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile(q), 0);
        }
        assert_eq!(h.summary(), (0, 0, 0, 0));
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn single_sample_dominates_every_quantile() {
        let h = Histogram::new();
        h.record(12_345);
        // With one sample every quantile is that sample; the max clamp
        // makes the estimate exact despite ~6% bucket width.
        for q in [0.0, 0.01, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile(q), 12_345, "q={q}");
        }
        assert_eq!(h.summary(), (12_345, 12_345, 12_345, 12_345));
    }

    #[test]
    fn saturating_max_bucket_holds_u64_max() {
        let h = Histogram::new();
        h.record(u64::MAX);
        h.record(u64::MAX - 1);
        h.record(1);
        // The top bucket's wrapped upper bound is u64::MAX — quantiles
        // neither overflow nor under-report the extreme samples.
        assert_eq!(h.quantile(1.0), u64::MAX);
        assert_eq!(h.quantile(0.99), u64::MAX);
        assert_eq!(h.max(), u64::MAX);
        // Quantile below the extremes still resolves the small sample.
        assert_eq!(h.quantile(0.01), 1);
        // Out-of-range q clamps instead of panicking.
        assert_eq!(h.quantile(7.5), u64::MAX);
        assert_eq!(h.quantile(-1.0), 1);
    }

    #[test]
    fn samples_from_many_threads_read_as_one_stream() {
        let striped = Histogram::new();
        let serial = Histogram::new();
        let sample = |t: u64, i: u64| (t * 7_919 + i * i * 31) % 5_000_000;
        std::thread::scope(|s| {
            for t in 0..11u64 {
                let h = &striped;
                s.spawn(move || (0..2_000).for_each(|i| h.record(sample(t, i))));
            }
        });
        for t in 0..11u64 {
            (0..2_000).for_each(|i| serial.record(sample(t, i)));
        }
        let same = striped.count() == serial.count()
            && striped.sum() == serial.sum()
            && striped.max() == serial.max()
            && striped.buckets() == serial.buckets();
        assert!(same, "{striped:?} {serial:?}");
        assert_eq!(striped.summary(), serial.summary());
    }
}
