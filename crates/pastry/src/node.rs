//! The Pastry node: iterative prefix routing, join, failure repair, and
//! leaf-set change notifications.

use crate::messages::{NodeInfo, PastryReply, PastryRequest};
use crate::state::{LeafSet, RoutingTable};
use kosha_id::Id;
use kosha_obs::{Gauge, Obs};
use kosha_rpc::network::call_typed;
use kosha_rpc::{
    Clock, Network, NodeAddr, RpcError, RpcHandler, RpcRequest, RpcResponse, ServiceId,
};
use parking_lot::{Mutex, RwLock};
use std::fmt;
use std::sync::Arc;

/// Nodes kept on each side of the leaf set (`l/2`) in the paper's
/// overlay: Pastry's common configuration, `l = 16`.
pub const LEAF_HALF: usize = 8;

/// Safety cap on routing hops before declaring a routing loop.
const MAX_HOPS: usize = 64;

/// Errors surfaced by overlay operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OverlayError {
    /// Transport failure that could not be routed around.
    Rpc(RpcError),
    /// No live route to the key's owner was found within the hop cap.
    NoRoute,
}

impl fmt::Display for OverlayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OverlayError::Rpc(e) => write!(f, "overlay rpc failed: {e}"),
            OverlayError::NoRoute => write!(f, "no route to key owner"),
        }
    }
}

impl std::error::Error for OverlayError {}

impl From<RpcError> for OverlayError {
    fn from(e: RpcError) -> Self {
        OverlayError::Rpc(e)
    }
}

/// Application callback for leaf-set membership changes — the hook Kosha's
/// replica manager registers (Section 4.3: the p2p component "informs
/// Kosha on a node N when nodes in N's leaf set are affected").
///
/// Callbacks are invoked *outside* the node's state lock; they may issue
/// network calls (e.g. to push replicas to a new neighbor) but must not
/// call back into the node that triggered the notification synchronously.
pub trait OverlayObserver: Send + Sync {
    /// A node entered this node's leaf set.
    fn on_leaf_joined(&self, node: NodeInfo) {
        let _ = node;
    }
    /// A node left this node's leaf set (it failed).
    fn on_leaf_left(&self, node: NodeInfo) {
        let _ = node;
    }
}

struct State {
    rt: RoutingTable,
    ls: LeafSet,
    /// Addresses this node currently believes are dead, each tagged with
    /// the insertion sequence number. Entries are added on observed
    /// failures and removed when the address proves itself alive (an
    /// `Announce` or successful ping). Without this suspicion list,
    /// repair would re-learn a dead neighbor from a peer that has not
    /// yet noticed the failure, then re-fail it — forever. The map is
    /// capped at [`DEAD_TOMBSTONE_CAP`]: the oldest tombstone is evicted
    /// on overflow, so lifetime churn cannot grow it without bound.
    dead: std::collections::BTreeMap<NodeAddr, u64>,
    /// Monotonic insertion counter ordering `dead` tombstones for
    /// deterministic oldest-first eviction.
    dead_seq: u64,
}

/// Upper bound on remembered dead-node tombstones. Suspicion only needs
/// to outlive the gossip horizon of a failure; the oldest entries have
/// long since served that purpose.
const DEAD_TOMBSTONE_CAP: usize = 1024;

/// One overlay participant.
///
/// ```
/// use kosha_id::node_id_from_seed;
/// use kosha_pastry::{PastryNode, LEAF_HALF};
/// use kosha_rpc::{Network, NodeAddr, ServiceId, ServiceMux, SimNetwork};
/// use std::sync::Arc;
///
/// let net = SimNetwork::new_zero_latency();
/// let mut nodes = Vec::new();
/// for i in 0..4u64 {
///     let node = PastryNode::new(
///         LEAF_HALF,
///         node_id_from_seed(&format!("doc-{i}")),
///         NodeAddr(i),
///         net.clone() as Arc<dyn Network>,
///     );
///     let mux = Arc::new(ServiceMux::new());
///     mux.register(ServiceId::Pastry, node.clone());
///     net.attach(node.addr(), mux);
///     node.join(if i == 0 { None } else { Some(NodeAddr(0)) }).unwrap();
///     nodes.push(node);
/// }
/// // Every node routes a key to the same owner.
/// let key = kosha_id::dir_key("projects");
/// let owner = nodes[0].route_owner(key).unwrap();
/// for n in &nodes {
///     assert_eq!(n.route_owner(key).unwrap().id, owner.id);
/// }
/// ```
pub struct PastryNode {
    info: NodeInfo,
    net: Arc<dyn Network>,
    /// The transport's clock, taken once: asking `net` clones an `Arc`
    /// that every thread's calls read.
    clock: Arc<dyn Clock>,
    state: Mutex<State>,
    observers: RwLock<Vec<Arc<dyn OverlayObserver>>>,
    obs: Arc<Obs>,
    /// Current distinct leaf-set membership (`pastry_leaf_set_size`, the
    /// `kosha-top` LEAF column), refreshed at every mutation site.
    leaf_size: Arc<Gauge>,
}

impl PastryNode {
    /// Creates a node with identifier `id` at transport address `addr`,
    /// keeping `leaf_half` nodes on each side of its leaf set. The node
    /// participates once [`PastryNode::join`] has been called and the
    /// returned handler is registered for [`ServiceId::Pastry`].
    pub fn new(leaf_half: usize, id: Id, addr: NodeAddr, net: Arc<dyn Network>) -> Arc<Self> {
        Self::new_with_obs(leaf_half, id, addr, net, Obs::new())
    }

    /// Like [`PastryNode::new`], but recording its metric, spans and
    /// journal events into a caller-supplied observability domain (the
    /// hosting `koshad` shares one `Obs` across its layers so events
    /// correlate).
    pub fn new_with_obs(
        leaf_half: usize,
        id: Id,
        addr: NodeAddr,
        net: Arc<dyn Network>,
        obs: Arc<Obs>,
    ) -> Arc<Self> {
        let info = NodeInfo { id, addr };
        Arc::new(PastryNode {
            info,
            state: Mutex::new(State {
                rt: RoutingTable::new(id),
                ls: LeafSet::new(id, leaf_half),
                dead: std::collections::BTreeMap::new(),
                dead_seq: 0,
            }),
            clock: net.clock(),
            net,
            observers: RwLock::new(Vec::new()),
            leaf_size: obs.registry.gauge("pastry_leaf_set_size"),
            obs,
        })
    }

    /// The observability domain this node records into.
    #[must_use]
    pub fn obs(&self) -> Arc<Obs> {
        Arc::clone(&self.obs)
    }

    fn journal(&self, kind: &'static str, op_id: u64, detail: String) {
        self.obs
            .journal
            .record(self.clock.now().0, self.info.addr.0, kind, op_id, detail);
    }

    /// This node's overlay identity.
    #[must_use]
    pub fn info(&self) -> NodeInfo {
        self.info
    }

    /// This node's identifier.
    #[must_use]
    pub fn id(&self) -> Id {
        self.info.id
    }

    /// This node's transport address.
    #[must_use]
    pub fn addr(&self) -> NodeAddr {
        self.info.addr
    }

    /// Registers a leaf-set observer.
    pub fn add_observer(&self, obs: Arc<dyn OverlayObserver>) {
        self.observers.write().push(obs);
    }

    /// Current distinct leaf-set members.
    #[must_use]
    pub fn leaf_members(&self) -> Vec<NodeInfo> {
        self.state.lock().ls.members()
    }

    /// The `k` nearest leaf-set nodes for replica placement (Section 4.2).
    #[must_use]
    pub fn replica_targets(&self, k: usize) -> Vec<NodeInfo> {
        self.state.lock().ls.replica_targets(k)
    }

    /// Every node this node currently knows (leaf set + routing table).
    #[must_use]
    pub fn known_nodes(&self) -> Vec<NodeInfo> {
        let st = self.state.lock();
        let mut out = st.ls.members();
        for n in st.rt.all_entries() {
            if !out.iter().any(|m| m.id == n.id) {
                out.push(n);
            }
        }
        out
    }

    // ---- learning and forgetting -------------------------------------

    /// Absorbs knowledge of `node`; fires `on_leaf_joined` if it entered
    /// the leaf set.
    pub fn learn(&self, node: NodeInfo) {
        if node.id == self.info.id {
            return;
        }
        let entered_ls = {
            let mut st = self.state.lock();
            if st.dead.contains_key(&node.addr) {
                return; // refuse to re-learn a suspected-dead address
            }
            st.rt.insert(node);
            let entered = st.ls.insert(node);
            if entered {
                self.leaf_size.set(st.ls.members().len() as i64);
            }
            entered
        };
        if entered_ls {
            // Snapshot before dispatch: observers run replication RPCs,
            // and holding the registry lock across them would block
            // register_observer (and deadlock if a handler re-enters).
            let observers = self.observers.read().clone();
            for obs in &observers {
                obs.on_leaf_joined(node);
            }
        }
    }

    /// Drops all knowledge of the node at `addr`; fires `on_leaf_left` for
    /// each leaf-set member removed, then repairs the leaf set from the
    /// surviving extremes.
    pub fn note_failed(&self, addr: NodeAddr) {
        if addr == self.info.addr {
            return;
        }
        let removed = {
            let mut st = self.state.lock();
            let seq = st.dead_seq;
            st.dead_seq += 1;
            let newly_dead = st.dead.insert(addr, seq).is_none();
            if st.dead.len() > DEAD_TOMBSTONE_CAP {
                // Deterministic oldest-first eviction keeps the tombstone
                // set bounded across arbitrary churn.
                if let Some(oldest) = st.dead.iter().min_by_key(|&(_, s)| *s).map(|(a, _)| *a) {
                    st.dead.remove(&oldest);
                }
            }
            st.rt.remove_addr(addr);
            let removed = st.ls.remove_addr(addr);
            if !newly_dead && removed.is_empty() {
                return; // already processed this failure
            }
            if !removed.is_empty() {
                self.leaf_size.set(st.ls.members().len() as i64);
            }
            removed
        };
        if removed.is_empty() {
            return;
        }
        // Snapshot before dispatch, as in `learn`: `on_leaf_left`
        // triggers re-replication RPCs.
        let observers = self.observers.read().clone();
        for n in &removed {
            for obs in &observers {
                obs.on_leaf_left(*n);
            }
        }
        let op = self.obs.next_op_id();
        self.journal(
            "leaf_repair",
            op,
            format!("lost {} leaf member(s) at {addr}", removed.len()),
        );
        self.repair_leafset_excluding(&[addr]);
    }

    /// Leaf-set repair that refuses to re-learn `dead` addresses — used
    /// right after a failure, when other nodes may still be
    /// advertising the dead node in their leaf sets.
    fn repair_leafset_excluding(&self, dead: &[NodeAddr]) {
        let sources: Vec<NodeInfo> = {
            let st = self.state.lock();
            let mut s = st.ls.extremes();
            if s.is_empty() {
                s = st.rt.all_entries();
                s.truncate(4);
            }
            s
        };
        for src in sources {
            if dead.contains(&src.addr) {
                continue;
            }
            match self.rpc(src.addr, &PastryRequest::GetLeafSet) {
                Ok(PastryReply::LeafSet { me, members }) => {
                    self.learn(me);
                    for m in members {
                        if !dead.contains(&m.addr) {
                            self.learn(m);
                        }
                    }
                }
                Ok(_) => {}
                Err(_) => {
                    // The repair source itself is dead; recurse (bounded by
                    // ring size since each failure shrinks our tables).
                    self.note_failed(src.addr);
                }
            }
        }
    }

    /// Liveness-probes every leaf-set member, dropping and repairing dead
    /// ones, then re-announces this node to its neighborhood. Called
    /// periodically by the hosting application (simulations call it after
    /// failure events).
    ///
    /// Both rounds are concurrent fan-outs (`call_many`): probing `l`
    /// members costs one RPC round trip of modeled time rather than `l`,
    /// which is what keeps periodic maintenance affordable at 10k-node
    /// scale. Repairs triggered by `note_failed` run between the rounds,
    /// so the announce round already sees the repaired leaf set.
    pub fn maintain(&self) {
        let probed = self.leaf_members();
        if !probed.is_empty() {
            let ping = RpcRequest::new(ServiceId::Pastry, &PastryRequest::Ping);
            let batch = probed.iter().map(|m| (m.addr, ping.clone())).collect();
            let results = self.net.call_many(self.info.addr, batch);
            for (m, result) in probed.into_iter().zip(results) {
                match result.and_then(|resp| resp.decode::<PastryReply>()) {
                    Ok(PastryReply::Pong { node }) if node.id == m.id => {}
                    _ => self.note_failed(m.addr),
                }
            }
        }
        let neighborhood = self.leaf_members();
        if !neighborhood.is_empty() {
            let announce = RpcRequest::new(
                ServiceId::Pastry,
                &PastryRequest::Announce { node: self.info },
            );
            let batch = neighborhood
                .into_iter()
                .map(|m| (m.addr, announce.clone()))
                .collect();
            let _ = self.net.call_many(self.info.addr, batch);
        }
    }

    // ---- joining ------------------------------------------------------

    /// Joins the overlay. `bootstrap = None` starts a new overlay of one
    /// node; otherwise the newcomer routes toward its own id via the
    /// bootstrap node, seeds its tables from every node on the path plus
    /// the owner's leaf set, and announces itself to everyone it learned
    /// of — after which all affected nodes have been informed (and their
    /// observers fired), as required for Kosha's migration (Section 4.3.1).
    pub fn join(&self, bootstrap: Option<NodeAddr>) -> Result<(), OverlayError> {
        let Some(boot) = bootstrap else {
            return Ok(());
        };
        // Identify the bootstrap node.
        let boot_info = match self.rpc(boot, &PastryRequest::Ping)? {
            PastryReply::Pong { node } => node,
            _ => return Err(OverlayError::Rpc(RpcError::Remote("bad pong".into()))),
        };
        self.learn(boot_info);
        // Route toward our own id, collecting the path.
        let mut exclude: Vec<NodeAddr> = vec![self.info.addr];
        let mut current = boot_info;
        let mut path = vec![boot_info];
        let mut hops = 0;
        loop {
            hops += 1;
            if hops > MAX_HOPS {
                return Err(OverlayError::NoRoute);
            }
            let reply = self.rpc(
                current.addr,
                &PastryRequest::NextHop {
                    key: self.info.id,
                    exclude: exclude.clone(),
                },
            );
            match reply {
                Ok(PastryReply::NextHop { next, owner }) => {
                    if owner {
                        break;
                    }
                    let Some(next) = next else { break };
                    if next.id == current.id || path.iter().any(|p| p.id == next.id) {
                        break;
                    }
                    path.push(next);
                    current = next;
                }
                Ok(_) => return Err(OverlayError::Rpc(RpcError::Remote("bad reply".into()))),
                Err(RpcError::Unreachable(a)) => {
                    exclude.push(a);
                    self.note_failed(a);
                    // Fall back to the previous live path node.
                    match path.iter().rev().find(|p| !exclude.contains(&p.addr)) {
                        Some(prev) => current = *prev,
                        None => return Err(OverlayError::NoRoute),
                    }
                }
                Err(e) => return Err(e.into()),
            }
        }
        // Seed state: each path node's relevant routing row + the owner's
        // (and path nodes') leaf sets.
        for (i, p) in path.clone().into_iter().enumerate() {
            self.learn(p);
            let row = self.info.id.shared_prefix_digits(p.id).min(i);
            if let Ok(PastryReply::Row { entries }) =
                self.rpc(p.addr, &PastryRequest::GetRow { row: row as u32 })
            {
                for e in entries {
                    self.learn(e);
                }
            }
            if let Ok(PastryReply::LeafSet { me, members }) =
                self.rpc(p.addr, &PastryRequest::GetLeafSet)
            {
                self.learn(me);
                for m in members {
                    self.learn(m);
                }
            }
        }
        // Announce ourselves to everyone we know, as one concurrent
        // fan-out: join cost stays one announce round trip no matter
        // how many nodes the path taught us about.
        let known = self.known_nodes();
        if !known.is_empty() {
            let announce = RpcRequest::new(
                ServiceId::Pastry,
                &PastryRequest::Announce { node: self.info },
            );
            let batch = known
                .into_iter()
                .map(|n| (n.addr, announce.clone()))
                .collect();
            let _ = self.net.call_many(self.info.addr, batch);
        }
        let op = self.obs.next_op_id();
        self.journal("join", op, format!("joined via {boot} after {hops} hop(s)"));
        Ok(())
    }

    // ---- routing ------------------------------------------------------

    /// Local next-hop decision (one step of Pastry's routing procedure).
    fn local_next_hop(&self, key: Id, exclude: &[NodeAddr]) -> (Option<NodeInfo>, bool) {
        let st = self.state.lock();
        let me = self.info.id;
        if key == me {
            return (None, true);
        }
        if st.ls.covers(key) {
            return match st.ls.closest_to(key, exclude) {
                None => (None, true),
                Some(n) => (Some(n), false),
            };
        }
        // Prefix routing step.
        if let Some(e) = st.rt.entry_for(key) {
            if !exclude.contains(&e.addr) {
                return (Some(e), false);
            }
        }
        // Rare case: any known node with at least as long a prefix that is
        // strictly numerically closer to the key than we are.
        let row = me.shared_prefix_digits(key);
        let mut best: Option<NodeInfo> = None;
        let mut best_d = me.ring_distance(key);
        let candidates = st
            .ls
            .members()
            .into_iter()
            .chain(st.rt.all_entries())
            .collect::<Vec<_>>();
        for c in candidates {
            if exclude.contains(&c.addr) {
                continue;
            }
            if c.id.shared_prefix_digits(key) >= row {
                let d = c.id.ring_distance(key);
                if d < best_d {
                    best_d = d;
                    best = Some(c);
                }
            }
        }
        match best {
            Some(n) => (Some(n), false),
            None => (None, true),
        }
    }

    /// Routes `key` to its owner: the live node whose id is numerically
    /// closest. Returns the owner and the number of overlay hops taken
    /// (0 when this node owns the key).
    pub fn route(&self, key: Id) -> Result<(NodeInfo, usize), OverlayError> {
        self.obs.tracer.child(
            || "pastry:route".to_string(),
            self.info.addr.0,
            || self.clock.now().0,
            || self.route_inner(key),
        )
    }

    fn route_inner(&self, key: Id) -> Result<(NodeInfo, usize), OverlayError> {
        let mut exclude: Vec<NodeAddr> = Vec::new();
        let mut hops = 0usize;
        let mut total = 0usize;
        'restart: loop {
            let mut current = self.info;
            loop {
                total += 1;
                if total > MAX_HOPS * 2 {
                    return Err(OverlayError::NoRoute);
                }
                let (next, owner) = if current.id == self.info.id {
                    self.local_next_hop(key, &exclude)
                } else {
                    match self.rpc(
                        current.addr,
                        &PastryRequest::NextHop {
                            key,
                            exclude: exclude.clone(),
                        },
                    ) {
                        Ok(PastryReply::NextHop { next, owner }) => (next, owner),
                        Ok(_) => {
                            return Err(OverlayError::Rpc(RpcError::Remote("bad reply".into())))
                        }
                        Err(RpcError::Unreachable(a)) => {
                            exclude.push(a);
                            self.note_failed(a);
                            continue 'restart;
                        }
                        Err(e) => return Err(e.into()),
                    }
                };
                if owner {
                    return Ok((current, hops));
                }
                let Some(next) = next else {
                    return Ok((current, hops));
                };
                if next.id == current.id {
                    return Ok((current, hops));
                }
                // Verify the proposed hop is alive before committing: the
                // NextHop RPC to it will be the verification; a dead hop is
                // excluded and routing restarts.
                current = next;
                hops += 1;
            }
        }
    }

    /// Routes `key` and discards the hop count.
    pub fn route_owner(&self, key: Id) -> Result<NodeInfo, OverlayError> {
        self.route(key).map(|(n, _)| n)
    }

    fn rpc(&self, to: NodeAddr, req: &PastryRequest) -> Result<PastryReply, RpcError> {
        call_typed(
            self.net.as_ref(),
            self.info.addr,
            to,
            ServiceId::Pastry,
            req,
        )
    }
}

impl RpcHandler for PastryNode {
    // lint: allow(L005) overlay protocol handler: join/announce/repair perform bounded nested routing and probe RPCs by design; a wait for a busy actor ends at the transport's call_timeout (DESIGN.md §14)
    fn handle(&self, from: NodeAddr, body: &[u8]) -> Result<RpcResponse, RpcError> {
        use kosha_rpc::WireRead;
        let req = PastryRequest::decode(body)?;
        let _ = from;
        let reply = match req {
            PastryRequest::NextHop { key, exclude } => {
                let (next, owner) = self.local_next_hop(key, &exclude);
                PastryReply::NextHop { next, owner }
            }
            PastryRequest::GetRow { row } => PastryReply::Row {
                entries: self.state.lock().rt.row_entries(row as usize),
            },
            PastryRequest::GetLeafSet => PastryReply::LeafSet {
                me: self.info,
                members: self.leaf_members(),
            },
            PastryRequest::Announce { node } => {
                // An announcement is proof of life: clear any suspicion of
                // this address (e.g. a recovered or reincarnated machine).
                self.state.lock().dead.remove(&node.addr);
                self.learn(node);
                PastryReply::Ack
            }
            PastryRequest::Ping => PastryReply::Pong { node: self.info },
        };
        Ok(RpcResponse::new(&reply))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kosha_id::id::numerically_closest;
    use kosha_id::node_id_from_seed;
    use kosha_rpc::{ServiceMux, SimNetwork};

    /// Builds an overlay of `n` nodes joined sequentially through node 0.
    fn build_ring(n: usize) -> (Arc<SimNetwork>, Vec<Arc<PastryNode>>) {
        let net = SimNetwork::new_zero_latency();
        let mut nodes = Vec::new();
        for i in 0..n {
            let id = node_id_from_seed(&format!("host-{i}"));
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

    fn expected_owner(nodes: &[Arc<PastryNode>], key: Id, dead: &[u64]) -> Id {
        let ids: Vec<Id> = nodes
            .iter()
            .filter(|n| !dead.contains(&n.addr().0))
            .map(|n| n.id())
            .collect();
        numerically_closest(key, &ids).unwrap()
    }

    #[test]
    fn single_node_owns_everything() {
        let (_net, nodes) = build_ring(1);
        let (owner, hops) = nodes[0].route(Id(12345)).unwrap();
        assert_eq!(owner.id, nodes[0].id());
        assert_eq!(hops, 0);
    }

    #[test]
    fn all_nodes_agree_on_ownership() {
        let (_net, nodes) = build_ring(12);
        for k in 0..40u32 {
            let key = node_id_from_seed(&format!("key-{k}"));
            let expect = expected_owner(&nodes, key, &[]);
            for n in &nodes {
                let (owner, _) = n.route(key).unwrap();
                assert_eq!(owner.id, expect, "node {} disagrees on key {k}", n.addr());
            }
        }
    }

    #[test]
    fn small_overlay_routes_in_one_hop() {
        // Section 6.1.1: "the DHT lookup is always one hop in the small
        // p2p overlay" — with 8 nodes and l=16 every node knows every
        // other, so routing is at most one hop.
        let (_net, nodes) = build_ring(8);
        for k in 0..20u32 {
            let key = node_id_from_seed(&format!("key-{k}"));
            for n in &nodes {
                let (_, hops) = n.route(key).unwrap();
                assert!(hops <= 1, "{} hops in an 8-node overlay", hops);
            }
        }
    }

    #[test]
    fn routing_survives_failures() {
        let (net, nodes) = build_ring(16);
        // Kill five nodes.
        let dead = [3u64, 5, 8, 11, 13];
        for d in dead {
            net.fail_node(NodeAddr(d));
        }
        for n in nodes.iter().filter(|n| !dead.contains(&n.addr().0)) {
            n.maintain();
        }
        for k in 0..30u32 {
            let key = node_id_from_seed(&format!("key-{k}"));
            let expect = expected_owner(&nodes, key, &dead);
            for n in nodes.iter().filter(|n| !dead.contains(&n.addr().0)) {
                let (owner, _) = n.route(key).unwrap();
                assert_eq!(owner.id, expect, "after failures, node {}", n.addr());
            }
        }
    }

    #[test]
    fn leafset_observer_fires_on_join_and_failure() {
        use std::sync::atomic::{AtomicUsize, Ordering};

        struct Counter {
            joined: AtomicUsize,
            left: AtomicUsize,
        }
        impl OverlayObserver for Counter {
            fn on_leaf_joined(&self, _n: NodeInfo) {
                self.joined.fetch_add(1, Ordering::SeqCst);
            }
            fn on_leaf_left(&self, _n: NodeInfo) {
                self.left.fetch_add(1, Ordering::SeqCst);
            }
        }

        let (net, nodes) = build_ring(6);
        let obs = Arc::new(Counter {
            joined: AtomicUsize::new(0),
            left: AtomicUsize::new(0),
        });
        nodes[0].add_observer(obs.clone());

        // A 7th node joins: observer on node 0 must fire (6 nodes < l, so
        // everyone is in everyone's leaf set).
        let id = node_id_from_seed("host-new");
        let newcomer =
            PastryNode::new(LEAF_HALF, id, NodeAddr(99), net.clone() as Arc<dyn Network>);
        let mux = Arc::new(ServiceMux::new());
        mux.register(ServiceId::Pastry, newcomer.clone());
        net.attach(NodeAddr(99), mux);
        newcomer.join(Some(NodeAddr(0))).unwrap();
        assert_eq!(obs.joined.load(Ordering::SeqCst), 1);

        // It fails: maintenance on node 0 must fire on_leaf_left.
        net.fail_node(NodeAddr(99));
        nodes[0].maintain();
        assert_eq!(obs.left.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn hops_scale_logarithmically() {
        let (_net, nodes) = build_ring(48);
        let mut most = 0;
        for k in 0..60u32 {
            let key = node_id_from_seed(&format!("key-{k}"));
            let (_, hops) = nodes[k as usize % 48].route(key).unwrap();
            most = most.max(hops);
        }
        // With b=4 and 48 nodes, log_16(48) < 2; generous bound of 4
        // accommodates sparse routing tables right after join.
        assert!(most <= 4, "max hops {most} too high for 48 nodes");
    }

    #[test]
    fn route_to_own_id_is_self() {
        let (_net, nodes) = build_ring(10);
        for n in &nodes {
            let (owner, hops) = n.route(n.id()).unwrap();
            assert_eq!(owner.id, n.id());
            assert_eq!(hops, 0);
        }
    }
}
