//! What a small RPC may allocate, held by `cargo test`: a 16-byte request
//! and its 16-byte reply over `SimNetwork` allocate twice, one buffer per
//! message (the codec encodes into a reused scratch buffer and copies
//! the bytes into one owner, refcount and bytes together), as the
//! wall-clock benchmark's `rpc.sim_call_allocs` has it. The payload part a frame can
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
use std::sync::Arc;

#[path = "support/counting.rs"]
mod counting;
use counting::{allocations_by, Counting};

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const ECHO: u128 = 0x0123_4567_89AB_CDEF_0011_2233_4455_6677;

/// Answers every request with the same 16 bytes.
struct Echo;

impl RpcHandler for Echo {
    fn handle(&self, _from: NodeAddr, _body: &[u8]) -> Result<RpcResponse, RpcError> {
        Ok(RpcResponse::new(&ECHO))
    }
}

#[test]
fn a_16_byte_sim_call_allocates_twice_and_an_empty_buffer_never() {
    let net = SimNetwork::new(LatencyModel::zero());
    let mux = Arc::new(ServiceMux::new());
    mux.register(ServiceId::Nfs, Arc::new(Echo));
    net.attach(NodeAddr(1), mux);
    let call = |req: RpcRequest| {
        let reply = net.call(NodeAddr(0), NodeAddr(1), req).expect("echo call");
        assert_eq!(reply.decode::<u128>().expect("echo reply"), ECHO);
    };
    // Warm: a thread's first call allocates its accounting stripes.
    call(RpcRequest::new(ServiceId::Nfs, &ECHO));

    let ((), flat) = allocations_by(|| call(RpcRequest::new(ServiceId::Nfs, &ECHO)));
    assert_eq!(flat, 2, "a flat 16-byte call");
    // The splitting constructor finds no payload field and costs the same.
    let ((), split) = allocations_by(|| call(RpcRequest::split(ServiceId::Nfs, &ECHO)));
    assert_eq!(split, 2, "a 16-byte call through the splitting constructor");

    let (empty, allocs) =
        allocations_by(|| (Bytes::new(), Bytes::from(Vec::new()), Bytes::default()));
    assert_eq!(allocs, 0, "empty buffers");
    assert!(empty.0.is_empty() && empty.1.is_empty() && empty.2.is_empty());
    let (clones, allocs) = allocations_by(|| (empty.0.clone(), empty.1.slice(..)));
    assert_eq!(allocs, 0, "views of an empty buffer");
    assert_eq!(clones.0, clones.1);
}
