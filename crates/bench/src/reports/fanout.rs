//! Deterministic report on the two parallel-RPC hot paths: concurrent
//! replica propagation (`Network::call_many`) and compound path
//! resolution (the LOOKUPPATH procedure).
//!
//! Replication is timed twice on identical clusters — once through a
//! wrapper that strips the transport's `call_many` override back to the
//! serial default, once on the real `SimNetwork` whose virtual clock
//! charges overlapping calls as their `max` — so the speedup of the
//! fan-out is visible in virtual time. Resolution is counted twice via
//! the `compound_lookup` config knob, comparing NFS RPC totals for a
//! cold deep-path walk. Everything runs on the virtual clock with seeded
//! ids, so two runs emit byte-identical output; the JSON summary is the
//! `BENCH_fanout.json` gate.

use crate::{x100, Report};
use kosha::{boot_cluster, KoshaConfig, KoshaMount, KoshaNode};
use kosha_rpc::{
    Clock, LatencyModel, Network, NodeAddr, RpcError, RpcRequest, RpcResponse, SimNetwork,
};
use std::sync::Arc;

const NODES: usize = 8;
const REPLICAS: usize = 3;
const WRITE_OPS: usize = 12;

/// `SimNetwork` with its `call_many` override stripped: delegates every
/// single call but inherits the trait's serial default, so fan-outs are
/// charged as the *sum* of their per-call latencies. This is the
/// pre-`call_many` behavior the replication numbers are measured against.
struct SerialNet(Arc<SimNetwork>);

impl Network for SerialNet {
    fn call(&self, from: NodeAddr, to: NodeAddr, req: RpcRequest) -> Result<RpcResponse, RpcError> {
        self.0.call(from, to, req)
    }
    fn clock(&self) -> Arc<dyn Clock> {
        self.0.clock()
    }
    fn is_up(&self, addr: NodeAddr) -> bool {
        self.0.is_up(addr)
    }
}

struct Cluster {
    sim: Arc<SimNetwork>,
    net: Arc<dyn Network>,
    nodes: Vec<Arc<KoshaNode>>,
}

fn build_cluster(serial: bool, cfg: &KoshaConfig) -> Cluster {
    let sim = SimNetwork::new(LatencyModel::default());
    let net: Arc<dyn Network> = if serial {
        Arc::new(SerialNet(Arc::clone(&sim)))
    } else {
        Arc::clone(&sim) as Arc<dyn Network>
    };
    let attach = |addr, mux| sim.attach(addr, mux);
    let nodes = boot_cluster(&net, attach, cfg, NODES, "kosha-host-", NodeAddr(0)).expect("join");
    Cluster { sim, net, nodes }
}

fn mount(c: &Cluster) -> KoshaMount {
    KoshaMount::new(Arc::clone(&c.net), c.nodes[0].addr(), c.nodes[0].addr()).expect("mount")
}

/// Virtual nanoseconds spent propagating `WRITE_OPS` replicated
/// mutations at K = `REPLICAS`, plus the replica-service RPC count.
fn replication_run(serial: bool) -> (u64, u64) {
    let mut cfg = KoshaConfig::for_tests();
    cfg.distribution_level = 1;
    cfg.replicas = REPLICAS;
    let c = build_cluster(serial, &cfg);
    let m = mount(&c);
    m.mkdir_p("/repl/data").expect("mkdir");

    let clock = c.net.clock();
    let t0 = clock.now();
    for i in 0..WRITE_OPS {
        m.write_file(&format!("/repl/data/f{i}.bin"), &[i as u8; 2048])
            .expect("write");
    }
    let elapsed = clock.now().since_nanos(t0);
    let replica_rpcs = c
        .sim
        .obs()
        .registry
        .counter("rpc_calls_total{service=\"replica\"}")
        .get();
    (elapsed, replica_rpcs)
}

const WALK_DIR: &str = "/walk/a/b/c/d/e/f/g";
const WALK_DEPTH: u64 = 9;

/// NFS RPCs issued re-resolving a deep path on a cold resolver, with
/// the compound LOOKUPPATH walk on or off.
///
/// The mount walks component-by-component either way (loopback NFS
/// semantics), warming the gateway's directory cache incrementally — so
/// the first traversal can't show the compound win. The interesting
/// case is §4.4's: the gateway holds virtual handles with full paths
/// but no cached locations (failover, stale-handle flush) and must
/// re-resolve a deep path in one go. `flush_caches` reproduces exactly
/// that state, and the re-read through the mount's cached handles then
/// costs one LOOKUPPATH per *server* instead of one LOOKUP per
/// component.
fn resolution_run(compound: bool) -> u64 {
    let mut cfg = KoshaConfig::for_tests();
    cfg.distribution_level = 1;
    cfg.replicas = 0;
    cfg.compound_lookup = compound;
    let c = build_cluster(false, &cfg);
    let m = mount(&c);
    m.mkdir_p(WALK_DIR).expect("mkdir");
    m.write_file(&format!("{WALK_DIR}/leaf"), b"payload")
        .expect("write");
    assert_eq!(
        m.read_file(&format!("{WALK_DIR}/leaf")).expect("warm read"),
        b"payload"
    );

    c.nodes[0].flush_caches();
    let counter = c
        .sim
        .obs()
        .registry
        .counter("rpc_calls_total{service=\"nfs\"}");
    let before = counter.get();
    assert_eq!(
        m.read_file(&format!("{WALK_DIR}/leaf")).expect("cold read"),
        b"payload"
    );
    counter.get() - before
}

/// Both comparisons, their assertions, and the summary.
pub fn run(_full: bool) -> Report {
    let (serial_nanos, serial_rpcs) = replication_run(true);
    let (fanout_nanos, fanout_rpcs) = replication_run(false);
    let per_component_rpcs = resolution_run(false);
    let compound_rpcs = resolution_run(true);

    let speedup_x100 = serial_nanos * 100 / fanout_nanos.max(1);
    let (serial_per_op, fanout_per_op) = (
        serial_nanos / WRITE_OPS as u64,
        fanout_nanos / WRITE_OPS as u64,
    );
    assert!(
        speedup_x100 >= 200,
        "replica fan-out speedup below 2x: {speedup_x100}/100"
    );
    assert!(
        compound_rpcs < per_component_rpcs,
        "compound lookup did not reduce resolution RPCs"
    );
    let json = format!(
        r#"{{
  "replication": {{
    "k": {REPLICAS},
    "ops": {WRITE_OPS},
    "serial_total_nanos": {serial_nanos},
    "fanout_total_nanos": {fanout_nanos},
    "serial_per_op_nanos": {serial_per_op},
    "fanout_per_op_nanos": {fanout_per_op},
    "serial_replica_rpcs": {serial_rpcs},
    "fanout_replica_rpcs": {fanout_rpcs},
    "speedup_x100": {speedup_x100}
  }},
  "resolution": {{
    "depth": {WALK_DEPTH},
    "per_component_nfs_rpcs": {per_component_rpcs},
    "compound_nfs_rpcs": {compound_rpcs}
  }}
}}"#
    );
    let speedup = x100(speedup_x100);
    let text = format!(
        "==== parallel RPC fan-out report ====
replication (K={REPLICAS}, {WRITE_OPS} replicated writes, virtual time):
  serial mirror:   {serial_nanos} ns total, {serial_per_op} ns/op, {serial_rpcs} replica RPCs
  call_many:       {fanout_nanos} ns total, {fanout_per_op} ns/op, {fanout_rpcs} replica RPCs
  speedup:         {speedup}x
resolution (cold depth-{WALK_DEPTH} walk, NFS RPC count):
  per-component:   {per_component_rpcs} RPCs
  compound lookup: {compound_rpcs} RPCs
"
    );
    Report {
        text,
        json: Some(json),
    }
}
