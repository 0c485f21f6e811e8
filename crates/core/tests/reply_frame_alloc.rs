//! What an error reply may allocate, held by `cargo test`: the frame is
//! one status byte, so encoding it allocates what encoding any one-byte
//! message allocates (its buffer and the buffer's `Bytes` owner), under
//! either of the frame's names. The control frame once encoded a whole
//! NFS frame on the side to learn the status byte, and decoded one to
//! get it back: twice the allocations per failed control RPC.
//!
//! This file is a test binary of its own with a single test, so nothing
//! else allocates while it counts.

use kosha::control::KoshaReplyFrame;
use kosha_nfs::messages::{NfsReplyFrame, ReplyFrame};
use kosha_nfs::NfsStatus;
use kosha_rpc::{WireRead, WireWrite};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// Forwards to the system allocator and counts the calls. A `realloc`
/// counts as one allocation.
struct Counting;

// A statistic only: it publishes no other data, so `Relaxed` is enough.
static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter touches no
// allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        // SAFETY: the caller's obligations are passed through as given.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as in `alloc`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        // SAFETY: as in `alloc`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// `f`'s result and the number of allocations made while it ran.
fn allocs_of<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCS.load(Relaxed);
    let result = f();
    (result, ALLOCS.load(Relaxed) - before)
}

#[test]
fn an_error_reply_frame_allocates_its_one_buffer() {
    let (byte, one_buffer) = allocs_of(|| 6u8.encode());
    let control: KoshaReplyFrame = ReplyFrame(Err(NfsStatus::NoSpc));
    let nfs: NfsReplyFrame = ReplyFrame(Err(NfsStatus::NoSpc));

    let (encoded, allocs) = allocs_of(|| control.encode());
    assert_eq!(encoded, byte);
    assert_eq!(allocs, one_buffer);
    assert_eq!(allocs_of(|| nfs.encode()), (byte, one_buffer));

    let (decoded, allocs) = allocs_of(|| KoshaReplyFrame::decode(&encoded));
    assert_eq!(decoded, Ok(control));
    assert_eq!(allocs, 0);
    assert_eq!(allocs_of(|| NfsReplyFrame::decode(&encoded)), (Ok(nfs), 0));
}
