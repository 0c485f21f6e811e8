//! Transport-level lockcheck integration: a lock held across a
//! blocking `Network::call` is flagged, journaled into the transport's
//! observability domain, and stamped with the active trace id.
//!
//! Lives in its own test binary (own process): it flips the global
//! panic-on-violation flag off, which must not leak into the suites
//! that assert the normal panicking behavior by *not* violating.

#![cfg(feature = "lockcheck")]

use std::sync::Arc;

use bytes::Bytes;
use kosha_rpc::network::{
    Network, NodeAddr, RpcError, RpcHandler, RpcRequest, RpcResponse, ServiceId, ServiceMux,
};
use kosha_rpc::SimNetwork;
use parking_lot::{lockcheck, Mutex};

struct Echo;
impl RpcHandler for Echo {
    fn handle(&self, _from: NodeAddr, body: &[u8]) -> Result<RpcResponse, RpcError> {
        Ok(RpcResponse {
            body: Bytes::copy_from_slice(body),
            payload: None,
        })
    }
}

fn net_with_echo() -> Arc<SimNetwork> {
    let net = SimNetwork::new_zero_latency();
    for a in [1, 2] {
        let mux = Arc::new(ServiceMux::new());
        mux.register(ServiceId::Nfs, Arc::new(Echo));
        net.attach(NodeAddr(a), mux);
    }
    net
}

#[test]
fn held_lock_across_call_is_journaled() {
    let _ = lockcheck::set_panic_on_violation(false);
    let net = net_with_echo();
    let obs = net.obs();

    // Clean call: no lock held, no violation event.
    let req = RpcRequest::new(ServiceId::Nfs, &7u32);
    net.call(NodeAddr(1), NodeAddr(2), req.clone()).unwrap();
    assert!(obs.journal.of_kind("lockcheck_held_rpc").is_empty());

    // Same call with a tracked lock held: still succeeds (panic is
    // disabled) but the violation lands in this transport's journal,
    // carrying the ambient trace id.
    let state = Mutex::new(0u32);
    let clock = net.clock();
    let events = {
        let _guard = state.lock();
        obs.tracer.root(
            "held-rpc",
            1,
            || clock.now().0,
            || {
                net.call(NodeAddr(1), NodeAddr(2), req).unwrap();
                obs.journal.of_kind("lockcheck_held_rpc")
            },
        )
    };
    assert_eq!(events.len(), 1, "{events:?}");
    let ev = &events[0];
    assert_eq!(ev.node, 1);
    assert!(
        ev.detail.contains("SimNetwork::call") && ev.detail.contains("mutex"),
        "{}",
        ev.detail
    );
    assert_ne!(ev.trace_id, 0, "violation must carry the active trace id");
}
