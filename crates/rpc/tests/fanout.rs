//! `Network::call_many` on the reactor transport, from outside the
//! crate: a fan-out is a loop of blocking calls on its caller's thread,
//! so it must complete, in batch order, whatever other callers and the
//! cluster's membership do meanwhile.

use kosha_rpc::{
    Network, NodeAddr, RpcError, RpcHandler, RpcRequest, RpcResponse, ServiceId, ServiceMux,
    ThreadedNetwork, WireRead,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, Weak};
use std::time::Duration;

/// Echoes the `u64` id of every request, logs the ids in service order,
/// and counts how many threads are inside it at once.
#[derive(Default)]
struct Logged {
    order: Mutex<Vec<u64>>,
    active: AtomicU64,
    max_active: AtomicU64,
}

impl RpcHandler for Logged {
    fn handle(&self, _from: NodeAddr, body: &[u8]) -> Result<RpcResponse, RpcError> {
        let inside = self.active.fetch_add(1, Ordering::SeqCst) + 1;
        self.max_active.fetch_max(inside, Ordering::SeqCst);
        let id = u64::decode(body)?;
        self.order.lock().expect("no handler panics").push(id);
        self.active.fetch_sub(1, Ordering::SeqCst);
        Ok(RpcResponse::new(&id))
    }
}

fn numbered(id: u64) -> RpcRequest {
    RpcRequest::new(ServiceId::Kosha, &id)
}

fn attach(net: &ThreadedNetwork, addr: u64, handler: Arc<dyn RpcHandler>) {
    let mux = Arc::new(ServiceMux::new());
    mux.register(ServiceId::Kosha, handler);
    net.attach(NodeAddr(addr), mux);
}

/// `kosha_reactor_events_total`: requests dispatched to handlers.
fn served(net: &ThreadedNetwork) -> u64 {
    let reg = &net.obs().registry;
    reg.counter("kosha_reactor_events_total").get()
}

#[test]
fn opposed_fan_outs_and_direct_callers_all_complete_in_order() {
    // Two threads fan out to the same two actors in opposite orders
    // while a third calls each directly. A fan-out holds no actor while
    // it asks for the next, so the opposite orders cannot wedge: nobody
    // times out, replies come back in batch order, and each actor serves
    // each caller's requests in issue order.
    const ROUNDS: u64 = 10_000;
    let net = ThreadedNetwork::new(Duration::from_secs(30));
    let logs = [1u64, 2].map(|to| {
        let log = Arc::new(Logged::default());
        attach(&net, to, log.clone());
        (to, log)
    });
    // A request's id names its caller, its target and its round, so a
    // reply in the wrong slot shows.
    let id = |caller: u64, to: u64, round: u64| (caller * 10 + to) * 1_000_000 + round;
    std::thread::scope(|s| {
        for (caller, order) in [(1u64, [1u64, 2]), (2, [2, 1])] {
            let net = &net;
            s.spawn(move || {
                for round in 0..ROUNDS {
                    let batch = order
                        .iter()
                        .map(|&to| (NodeAddr(to), numbered(id(caller, to, round))))
                        .collect();
                    let out: Vec<u64> = net
                        .call_many(NodeAddr(100 + caller), batch)
                        .into_iter()
                        .map(|reply| reply.expect("no timeout").decode().unwrap())
                        .collect();
                    assert_eq!(out, order.map(|to| id(caller, to, round)));
                }
            });
        }
        let net = &net;
        s.spawn(move || {
            for round in 0..ROUNDS {
                for to in [1, 2] {
                    net.call(NodeAddr(103), NodeAddr(to), numbered(id(3, to, round)))
                        .expect("no timeout");
                }
            }
        });
    });
    for (to, log) in &logs {
        assert_eq!(log.max_active.load(Ordering::SeqCst), 1);
        let order = log.order.lock().unwrap();
        assert_eq!(order.len() as u64, 3 * ROUNDS);
        for caller in 1..=3u64 {
            let mine = order.iter().filter(|id| *id / 10_000_000 == caller);
            assert!(
                mine.copied().eq((0..ROUNDS).map(|r| id(caller, *to, r))),
                "caller {caller} at actor {to}"
            );
        }
    }
    assert_eq!(served(&net), 6 * ROUNDS);
}

#[test]
fn call_many_entry_to_a_node_lost_mid_batch_fails_alone() {
    // The first entry's handler takes node 2 away (failed in one round,
    // detached in the other) before the fan-out reaches it: that slot
    // reads Unreachable and the third entry still runs.
    struct Saboteur(Weak<ThreadedNetwork>, bool);
    impl RpcHandler for Saboteur {
        fn handle(&self, _from: NodeAddr, _body: &[u8]) -> Result<RpcResponse, RpcError> {
            let net = self.0.upgrade().expect("the caller holds the transport");
            if self.1 {
                net.detach(NodeAddr(2));
            } else {
                net.fail_node(NodeAddr(2));
            }
            Ok(RpcResponse::new(&0u64))
        }
    }
    for detach in [false, true] {
        let net = ThreadedNetwork::new(Duration::from_secs(5));
        attach(&net, 1, Arc::new(Saboteur(Arc::downgrade(&net), detach)));
        attach(&net, 2, Arc::new(Logged::default()));
        attach(&net, 3, Arc::new(Logged::default()));
        let batch = [1, 2, 3]
            .into_iter()
            .map(|a| (NodeAddr(a), numbered(7)))
            .collect();
        let out = net.call_many(NodeAddr(9), batch);
        assert!(out[0].is_ok(), "detach={detach}");
        assert_eq!(
            out[1].as_ref().unwrap_err(),
            &RpcError::Unreachable(NodeAddr(2))
        );
        assert_eq!(out[2].as_ref().unwrap().decode::<u64>().unwrap(), 7);
        assert_eq!(served(&net), 2);
        assert!(!net.is_up(NodeAddr(2)));
    }
}
