//! Counting global allocator, installed in the perf binary only.
//!
//! Counting is off during the end-to-end (`--trace 0`) runs, where the
//! allocator costs one relaxed load per call, and on for the whole of a
//! `--trace 1` run, so the traced and the untraced pass of that run pay
//! the same allocator cost and their ratio is the tracing overhead alone.
//! A `realloc` counts as one allocation of the new size.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};

pub struct Counting;

// Statistics only: they publish no other data, so `Relaxed` is enough.
static ON: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static FREED: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters touch no
// allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ON.load(Relaxed) {
            ALLOCS.fetch_add(1, Relaxed);
            BYTES.fetch_add(layout.size() as u64, Relaxed);
        }
        // SAFETY: the caller's obligations are passed through as given.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if ON.load(Relaxed) {
            ALLOCS.fetch_add(1, Relaxed);
            BYTES.fetch_add(layout.size() as u64, Relaxed);
        }
        // SAFETY: as in `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if ON.load(Relaxed) {
            FREED.fetch_add(layout.size() as u64, Relaxed);
        }
        // SAFETY: as in `alloc`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ON.load(Relaxed) {
            ALLOCS.fetch_add(1, Relaxed);
            BYTES.fetch_add(new_size as u64, Relaxed);
            FREED.fetch_add(layout.size() as u64, Relaxed);
        }
        // SAFETY: as in `alloc`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Turns counting on for the rest of the process.
pub fn enable() {
    ON.store(true, Relaxed);
}

/// `(allocations, bytes allocated)` since counting was enabled.
pub fn snapshot() -> (u64, u64) {
    (ALLOCS.load(Relaxed), BYTES.load(Relaxed))
}

/// Bytes allocated and not yet freed since counting was enabled. Signed:
/// memory allocated before `enable` and freed after it counts negative.
pub fn live_bytes() -> i64 {
    BYTES.load(Relaxed) as i64 - FREED.load(Relaxed) as i64
}
