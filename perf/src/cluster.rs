//! The cluster every workload runs against: 8 koshad nodes with every
//! modelled cost zeroed, on either transport.

use crate::trace::Timed;
use kosha::audit::AuditOptions;
use kosha::{audit_cluster, KoshaConfig, KoshaMount, KoshaNode};
use kosha_id::node_id_from_seed;
use kosha_rpc::{LatencyModel, Network, NodeAddr, ServiceId, SimNetwork, ThreadedNetwork};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub const NODES: usize = 8;
const REPLICAS: usize = 2;

const SERVICES: [ServiceId; 5] = [
    ServiceId::Pastry,
    ServiceId::Nfs,
    ServiceId::Kosha,
    ServiceId::KoshaFs,
    ServiceId::KoshaReplica,
];

/// Modelled disk and interposition costs are zero because on the wall
/// clock `advance()` sleeps; the contribution is large enough that
/// capacity redirection never fires.
fn config() -> KoshaConfig {
    KoshaConfig {
        distribution_level: 2,
        replicas: REPLICAS,
        contributed_bytes: 1 << 40,
        disk_bandwidth_bps: u64::MAX,
        disk_meta_op: Duration::ZERO,
        koshad_op_cost: Duration::ZERO,
        ..KoshaConfig::default()
    }
}

pub enum Transport {
    Sim(Arc<SimNetwork>),
    Threaded(Arc<ThreadedNetwork>),
}

impl Transport {
    pub fn sim() -> Transport {
        Transport::Sim(SimNetwork::new(LatencyModel::zero()))
    }

    pub fn threaded() -> Transport {
        Transport::Threaded(ThreadedNetwork::new(Duration::from_secs(30)))
    }

    pub fn net(&self) -> Arc<dyn Network> {
        match self {
            Transport::Sim(n) => n.clone(),
            Transport::Threaded(n) => n.clone(),
        }
    }

    fn attach(&self, addr: NodeAddr, mux: Arc<kosha_rpc::ServiceMux>) {
        match self {
            Transport::Sim(n) => n.attach(addr, mux),
            Transport::Threaded(n) => n.attach(addr, mux),
        }
    }

    fn detach(&self, addr: NodeAddr) {
        match self {
            Transport::Sim(n) => n.detach(addr),
            Transport::Threaded(n) => n.detach(addr),
        }
    }
}

pub struct Cluster {
    pub transport: Transport,
    pub nodes: Vec<Arc<KoshaNode>>,
}

impl Cluster {
    /// Boots `nodes` machines, joining each through the first. With
    /// `traced`, every service handler of every node is re-registered
    /// behind a span-recording wrapper before the mux is attached.
    pub fn build(transport: Transport, nodes: usize, traced: bool) -> Cluster {
        let net = transport.net();
        let mut built = Vec::with_capacity(nodes);
        for i in 0..nodes {
            let (node, mux) = KoshaNode::build(
                config(),
                node_id_from_seed(&format!("perf-host-{i}")),
                NodeAddr(i as u64),
                Arc::clone(&net),
            );
            if traced {
                for service in SERVICES {
                    let inner = mux.handler(service).expect("node registers every service");
                    mux.register(service, Timed::wrap(service, inner));
                }
            }
            transport.attach(node.addr(), mux);
            node.join((i > 0).then_some(NodeAddr(0)))
                .expect("join overlay");
            built.push(node);
        }
        Cluster {
            transport,
            nodes: built,
        }
    }

    /// Mounts `/kosha` through node `idx`'s koshad, as a client on that
    /// machine.
    pub fn mount(&self, idx: usize) -> KoshaMount {
        let addr = self.nodes[idx].addr();
        KoshaMount::new(self.transport.net(), addr, addr).expect("mount /kosha")
    }

    /// One anti-entropy pass: true when no object's replicas diverge from
    /// its primary and none has fewer than K holders, so a change that
    /// skips the mirror fails the run.
    pub fn audit_clean(&self) -> bool {
        let peers: Vec<NodeAddr> = self.nodes.iter().map(|n| n.addr()).collect();
        let report = audit_cluster(
            &*self.transport.net(),
            peers[0],
            &peers,
            0,
            &AuditOptions {
                replicas: REPLICAS,
                ..AuditOptions::default()
            },
        );
        let clean = report.nodes_scanned == peers.len() as u64
            && report.objects > 0
            && report.objects_divergent == 0
            && report.under_replicated == 0;
        if !clean {
            eprintln!("audit failed: {report:?}");
        }
        clean
    }
}

impl Drop for Cluster {
    /// Breaks the transport → mux → node → transport reference cycle, so
    /// a dropped cluster frees its memory and its reactor threads end.
    fn drop(&mut self) {
        for node in &self.nodes {
            self.transport.detach(node.addr());
        }
        self.nodes.clear();
        if let Transport::Threaded(net) = &self.transport {
            // A reactor worker may still hold the actor it served last,
            // and through it a node and the transport. `ThreadedNetwork`
            // joins its workers when dropped, so the last reference must
            // not be released on one of them: wait for theirs to go.
            let deadline = Instant::now() + Duration::from_secs(5);
            while Arc::strong_count(net) > 1 && Instant::now() < deadline {
                std::thread::yield_now();
            }
        }
    }
}
