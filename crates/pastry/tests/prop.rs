//! Property tests: for arbitrary overlay sizes and failure patterns, every
//! surviving node routes every key to the same owner — the live node whose
//! id is numerically closest (the DHT invariant Kosha's file placement
//! relies on).

use kosha_id::id::numerically_closest;
use kosha_id::{node_id_from_seed, Id};
use kosha_pastry::{PastryNode, LEAF_HALF};
use kosha_rpc::{Network, NodeAddr, ServiceId, ServiceMux, SimNetwork};
use proptest::prelude::*;
use std::sync::Arc;

fn build_ring(n: usize, seed: u64) -> (Arc<SimNetwork>, Vec<Arc<PastryNode>>) {
    let net = SimNetwork::new_zero_latency();
    let mut nodes = Vec::new();
    for i in 0..n {
        let id = node_id_from_seed(&format!("ring{seed}-host-{i}"));
        let node = PastryNode::new(
            LEAF_HALF,
            id,
            NodeAddr(i as u64),
            net.clone() as Arc<dyn Network>,
        );
        let mux = Arc::new(ServiceMux::new());
        mux.register(ServiceId::Pastry, node.clone());
        net.attach(node.addr(), mux);
        let boot = if i == 0 { None } else { Some(NodeAddr(0)) };
        node.join(boot).unwrap();
        nodes.push(node);
    }
    (net, nodes)
}

proptest! {
    /// Overlay protocol messages round-trip the wire exactly.
    #[test]
    fn pastry_messages_round_trip(
        key in any::<u128>(),
        exclude in proptest::collection::vec(any::<u64>(), 0..8),
        row in any::<u32>(),
        nodes in proptest::collection::vec((any::<u128>(), any::<u64>()), 0..8),
    ) {
        use kosha_pastry::{NodeInfo, PastryReply, PastryRequest};
        use kosha_rpc::{WireRead, WireWrite};
        let infos: Vec<NodeInfo> = nodes
            .iter()
            .map(|&(id, addr)| NodeInfo { id: Id(id), addr: NodeAddr(addr) })
            .collect();
        let reqs = vec![
            PastryRequest::NextHop {
                key: Id(key),
                exclude: exclude.iter().map(|&a| NodeAddr(a)).collect(),
            },
            PastryRequest::GetRow { row },
            PastryRequest::GetLeafSet,
            PastryRequest::Ping,
        ];
        for req in reqs {
            let b = req.encode();
            prop_assert_eq!(PastryRequest::decode(&b).unwrap(), req);
        }
        let replies = vec![
            PastryReply::Row { entries: infos.clone() },
            PastryReply::NextHop { next: infos.first().copied(), owner: infos.is_empty() },
        ];
        for reply in replies {
            let b = reply.encode();
            prop_assert_eq!(PastryReply::decode(&b).unwrap(), reply);
        }
    }

    /// Arbitrary bytes decode to a message or to an error, never to a
    /// panic.
    #[test]
    fn decoder_is_total(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        use kosha_pastry::{PastryReply, PastryRequest};
        use kosha_rpc::WireRead;
        let _ = PastryRequest::decode(&bytes);
        let _ = PastryReply::decode(&bytes);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn ownership_agreement_under_failures(
        n in 2usize..24,
        seed in 0u64..1000,
        kill_mask in any::<u32>(),
        keys in proptest::collection::vec(any::<u128>(), 1..12),
    ) {
        let (net, nodes) = build_ring(n, seed);
        // Kill up to half the nodes (never node 0's whole ring).
        let mut dead: Vec<u64> = (0..n as u64)
            .filter(|i| kill_mask & (1 << (i % 32)) != 0)
            .collect();
        dead.truncate(n / 2);
        for &d in &dead {
            net.fail_node(NodeAddr(d));
        }
        let survivors: Vec<_> = nodes
            .iter()
            .filter(|nd| !dead.contains(&nd.addr().0))
            .collect();
        // Repair pass (simulates periodic maintenance after failures).
        for nd in &survivors {
            nd.maintain();
        }
        let live_ids: Vec<Id> = survivors.iter().map(|nd| nd.id()).collect();
        for &k in &keys {
            let key = Id(k);
            let expect = numerically_closest(key, &live_ids).unwrap();
            for nd in &survivors {
                let (owner, hops) = nd.route(key).unwrap();
                prop_assert_eq!(owner.id, expect, "node {} key {}", nd.addr(), key);
                prop_assert!(hops <= 6, "{} hops for {} nodes", hops, n);
            }
        }
    }

    #[test]
    fn replica_targets_are_closest_neighbors(n in 4usize..20, seed in 0u64..500, k in 1usize..4) {
        let (_net, nodes) = build_ring(n, seed);
        for node in &nodes {
            let targets = node.replica_targets(k);
            prop_assert_eq!(targets.len(), k.min(n - 1));
            // Targets are distinct and never the node itself.
            let mut ids: Vec<_> = targets.iter().map(|t| t.id).collect();
            ids.sort();
            ids.dedup();
            prop_assert_eq!(ids.len(), targets.len());
            prop_assert!(!ids.contains(&node.id()));
        }
    }
}
