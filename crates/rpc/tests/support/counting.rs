//! The counting global allocator of the allocation tests, written once.
//! A test binary includes this file as a module and installs it with a
//! line of its own:
//!
//! ```ignore
//! #[path = "../../rpc/tests/support/counting.rs"]
//! mod counting;
//! use counting::{allocations_by, Counting};
//!
//! #[global_allocator]
//! static ALLOCATOR: Counting = Counting;
//! ```
//!
//! Each such binary holds a single test, so nothing else allocates while
//! it counts. A binary uses the measures it needs, so some go unused in
//! each of them.
#![allow(dead_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// Forwards to the system allocator and counts the calls, adds up the
/// bytes asked for and keeps the largest single request. A `realloc`
/// counts as one allocation of the new size.
pub struct Counting;

// Statistics only: they publish no other data, so `Relaxed` is enough.
static CALLS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static LARGEST: AtomicU64 = AtomicU64::new(0);

fn count(size: usize) {
    CALLS.fetch_add(1, Relaxed);
    BYTES.fetch_add(size as u64, Relaxed);
    LARGEST.fetch_max(size as u64, Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters touch no
// allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's obligations are passed through as given.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: as in `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as in `alloc`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: as in `alloc`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// `f`'s result and the number of allocations made while it ran.
pub fn allocations_by<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = CALLS.load(Relaxed);
    let result = f();
    (result, CALLS.load(Relaxed) - before)
}

/// `f`'s result and the bytes allocated while it ran.
pub fn allocated_by<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = BYTES.load(Relaxed);
    let result = f();
    (result, BYTES.load(Relaxed) - before)
}

/// `f`'s result and the largest single allocation made while it ran.
pub fn largest_block_of<R>(f: impl FnOnce() -> R) -> (R, u64) {
    LARGEST.store(0, Relaxed);
    let result = f();
    (result, LARGEST.load(Relaxed))
}
