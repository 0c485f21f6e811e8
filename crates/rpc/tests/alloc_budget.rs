//! What a small RPC may allocate, held by `cargo test`: a 16-byte request
//! and its 16-byte reply over `SimNetwork` allocate four times (the two
//! message buffers and their two `Bytes` owners), as the wall-clock
//! benchmark's `rpc.sim_call_allocs` has it. The payload part a frame can
//! carry (DESIGN.md §18) is an inline `Option` and must cost a message
//! without one nothing; an empty `Bytes` allocates nothing at all.
//!
//! This file is a test binary of its own with a single test, so nothing
//! else allocates while it counts, and `SimNetwork` runs the call inline
//! on the calling thread.

use kosha_rpc::{
    Bytes, LatencyModel, Network, NodeAddr, RpcError, RpcHandler, RpcRequest, RpcResponse,
    ServiceId, ServiceMux, SimNetwork,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

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

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        // SAFETY: as in `alloc`.
        unsafe { System.alloc_zeroed(layout) }
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

const ECHO: u128 = 0x0123_4567_89AB_CDEF_0011_2233_4455_6677;

/// Answers every request with the same 16 bytes.
struct Echo;

impl RpcHandler for Echo {
    fn handle(&self, _from: NodeAddr, _body: &[u8]) -> Result<RpcResponse, RpcError> {
        Ok(RpcResponse::new(&ECHO))
    }
}

#[test]
fn a_16_byte_sim_call_allocates_four_times_and_an_empty_buffer_never() {
    let net = SimNetwork::new(LatencyModel::zero());
    let mux = Arc::new(ServiceMux::new());
    mux.register(ServiceId::Nfs, Arc::new(Echo));
    net.attach(NodeAddr(1), mux);
    let call = |req: RpcRequest| {
        let reply = net.call(NodeAddr(0), NodeAddr(1), req).expect("echo call");
        assert_eq!(reply.decode::<u128>().expect("echo reply"), ECHO);
    };
    // Warm: the transport's per-link state is created by the first call.
    call(RpcRequest::new(ServiceId::Nfs, &ECHO));

    let ((), flat) = allocs_of(|| call(RpcRequest::new(ServiceId::Nfs, &ECHO)));
    assert_eq!(flat, 4, "a flat 16-byte call");
    // The splitting constructor finds no payload field and costs the same.
    let ((), split) = allocs_of(|| call(RpcRequest::split(ServiceId::Nfs, &ECHO)));
    assert_eq!(split, 4, "a 16-byte call through the splitting constructor");

    let (empty, allocs) = allocs_of(|| (Bytes::new(), Bytes::from(Vec::new()), Bytes::default()));
    assert_eq!(allocs, 0, "empty buffers");
    assert!(empty.0.is_empty() && empty.1.is_empty() && empty.2.is_empty());
    let (clones, allocs) = allocs_of(|| (empty.0.clone(), empty.1.slice(..)));
    assert_eq!(allocs, 0, "views of an empty buffer");
    assert_eq!(clones.0, clones.1);
}
