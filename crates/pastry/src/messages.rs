//! Overlay protocol messages and their wire encodings.

use kosha_id::Id;
use kosha_rpc::{wire_enum, wire_struct, NodeAddr};

wire_struct! {
    /// A node's overlay identity: its Pastry id plus its physical address.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    pub struct NodeInfo {
        /// Pastry node identifier (changes if the machine is reincarnated).
        pub id: Id,
        /// Physical address on the transport.
        pub addr: NodeAddr,
    }
}

wire_enum! {
    /// Requests a node's overlay service answers.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum PastryRequest {
        /// "Which node should handle `key` next?" — one step of iterative
        /// routing. `exclude` lists addresses the caller has observed to be
        /// dead so the hop proposes an alternative.
        NextHop {
            /// Routing key.
            key: Id,
            /// Known-dead addresses to route around.
            exclude: Vec<NodeAddr>,
        } = 0,
        /// Fetch routing-table row `row` (used during join: the `i`-th node on
        /// the join route supplies row `i`).
        GetRow {
            /// Row index.
            row: u32,
        } = 1,
        /// Fetch the node's current leaf set (join and repair).
        GetLeafSet = 2,
        /// "I exist; add me to your tables." Sent by a joined node to every
        /// node it learned of, and by maintenance when links are refreshed.
        Announce {
            /// The announcing node.
            node: NodeInfo,
        } = 3,
        /// Liveness probe.
        Ping = 5,
    }
}

wire_enum! {
    /// Replies to [`PastryRequest`]s.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum PastryReply {
        /// Next-hop decision: if `owner` the replying node is the key's owner;
        /// otherwise `next` names a strictly better hop (or `None` if the node
        /// knows no better live candidate, in which case the replier is the
        /// best known owner).
        NextHop {
            /// Better hop toward the key, if one exists.
            next: Option<NodeInfo>,
            /// True if the replying node owns the key.
            owner: bool,
        } = 0,
        /// One routing-table row (non-empty entries only).
        Row {
            /// Entries present in the row.
            entries: Vec<NodeInfo>,
        } = 1,
        /// The node's leaf set members (both sides, deduplicated), plus the
        /// node itself.
        LeafSet {
            /// The replying node.
            me: NodeInfo,
            /// Leaf set members.
            members: Vec<NodeInfo>,
        } = 2,
        /// Generic acknowledgement.
        Ack = 3,
        /// Ping response carrying the node's current identity (a reincarnated
        /// node answers with its *new* id, letting callers detect staleness).
        Pong {
            /// The responding node.
            node: NodeInfo,
        } = 4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kosha_rpc::{WireRead, WireWrite};

    fn rt_req(m: PastryRequest) {
        let b = m.encode();
        assert_eq!(PastryRequest::decode(&b).unwrap(), m);
    }

    fn rt_rep(m: PastryReply) {
        let b = m.encode();
        assert_eq!(PastryReply::decode(&b).unwrap(), m);
    }

    fn ni(id: u128, addr: u64) -> NodeInfo {
        NodeInfo {
            id: Id(id),
            addr: NodeAddr(addr),
        }
    }

    #[test]
    fn requests_round_trip() {
        rt_req(PastryRequest::NextHop {
            key: Id(42),
            exclude: vec![NodeAddr(1), NodeAddr(9)],
        });
        rt_req(PastryRequest::GetRow { row: 7 });
        rt_req(PastryRequest::GetLeafSet);
        rt_req(PastryRequest::Announce { node: ni(5, 3) });
        rt_req(PastryRequest::Ping);
    }

    #[test]
    fn replies_round_trip() {
        rt_rep(PastryReply::NextHop {
            next: Some(ni(1, 2)),
            owner: false,
        });
        rt_rep(PastryReply::NextHop {
            next: None,
            owner: true,
        });
        rt_rep(PastryReply::Row {
            entries: vec![ni(1, 2), ni(3, 4)],
        });
        rt_rep(PastryReply::LeafSet {
            me: ni(9, 9),
            members: vec![ni(1, 2)],
        });
        rt_rep(PastryReply::Ack);
        rt_rep(PastryReply::Pong { node: ni(8, 8) });
    }

    #[test]
    fn bad_tag_rejected() {
        assert!(PastryRequest::decode(&[99]).is_err());
        assert!(PastryReply::decode(&[99]).is_err());
    }
}
