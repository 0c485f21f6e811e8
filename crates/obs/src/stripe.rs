//! Per-thread stripes for words that every thread writes.
//!
//! A counter bumped by every RPC is one cache line that every core
//! writes: each increment takes the line from whichever core wrote it
//! last. Striping gives each thread a copy of its own to write and sums
//! the copies on read, which is rare (an exposition, a recorder tick, a
//! test). Threads are numbered in the order they first write a striped
//! value and use stripe `number % count()`, so threads that start one
//! after another never share one.
//!
//! There are twice as many stripes as the host has hardware threads (at
//! least 2, at most 64): enough that the threads running at any one
//! moment seldom share, few enough that a stripe each for every thread a
//! process ever ran is not kept. A stripe is allocated by the first
//! thread that writes it, so a value only ever written from one thread
//! (every `SimNetwork` run) costs one stripe.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

static NEXT: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static INDEX: usize = NEXT.fetch_add(1, Ordering::Relaxed) % count();
}

/// How many stripes a striped value has: fixed for the process.
#[must_use]
pub fn count() -> usize {
    static COUNT: OnceLock<usize> = OnceLock::new();
    *COUNT.get_or_init(|| {
        let threads = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        (2 * threads).clamp(2, 64)
    })
}

/// This thread's stripe, in `0..count()`: fixed for the thread's life.
#[must_use]
pub fn index() -> usize {
    INDEX.with(|i| *i)
}

/// A `T` alone on its cache lines: aligned, and so sized, to 128 bytes,
/// the pair of lines the adjacent-line prefetcher fetches together.
#[derive(Default)]
#[repr(align(128))]
pub struct Padded<T>(pub T);

/// One `T` per stripe, each in its own allocation, made when a thread
/// of that stripe first asks for it. `T` should be aligned like
/// [`Padded`], so that two stripes never share a line.
pub(crate) struct Striped<T> {
    cells: Box<[OnceLock<Box<T>>]>,
}

impl<T: Default> Striped<T> {
    pub(crate) fn new() -> Self {
        Striped {
            cells: (0..count()).map(|_| OnceLock::new()).collect(),
        }
    }

    /// The calling thread's stripe.
    pub(crate) fn local(&self) -> &T {
        self.cells[index()].get_or_init(Box::default)
    }

    /// Every stripe a thread has written.
    pub(crate) fn each(&self) -> impl Iterator<Item = &T> {
        self.cells.iter().filter_map(|c| c.get().map(|b| &**b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn a_thread_keeps_its_stripe_and_one_thread_makes_one() {
        let s: Striped<AtomicU64> = Striped::new();
        assert_eq!(s.each().count(), 0);
        s.local().fetch_add(1, Ordering::Relaxed);
        s.local().fetch_add(1, Ordering::Relaxed);
        assert_eq!(index(), index());
        assert!(index() < count() && count() >= 2);
        assert_eq!(s.each().count(), 1);
        assert_eq!(s.each().next().unwrap().load(Ordering::Relaxed), 2);
    }
}
