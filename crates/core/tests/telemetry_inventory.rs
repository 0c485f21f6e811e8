//! The telemetry a cluster registers, pinned by name. Every metric here
//! has a reader (DESIGN.md §28): a `kosha-top` column, a gate, a
//! decision or a test that observes other behaviour through it. A new
//! registry name or recorder series shows up in review as a line in one
//! of these lists, and has to say who reads it.

use kosha::{
    audit_cluster, boot_cluster, AuditOptions, KoshaConfig, KoshaMount, ReadFrom, ReplicationMode,
};
use kosha_rpc::{LatencyModel, Network, NodeAddr, ServiceId, SimNetwork};
use std::sync::Arc;

/// What one node's domain holds, whatever the workload did.
const NODE_REGISTRY: [&str; 41] = [
    "kosha_failovers_total",
    "kosha_fs_ops_total",
    "kosha_hot_copies",
    "kosha_hot_drops_total",
    "kosha_hot_lease_invalidations_total",
    "kosha_hot_pushes_total",
    "kosha_migrations_out_total",
    "kosha_promotions_total",
    "kosha_redirections_total",
    "kosha_replica_gc_total",
    "kosha_replica_lag_total",
    "kosha_replica_pulls_total",
    "kosha_replica_push_skips_total",
    "kosha_replica_pushes_total",
    "kosha_replica_reads_total",
    "kosha_writeback_coalesced_ops_total",
    "kosha_writeback_enqueued_total",
    "kosha_writeback_flushed_ops_total",
    "kosha_writeback_flushes_total",
    "kosha_writeback_queue_depth",
    "nfs_server_ops_total{proc=\"access\"}",
    "nfs_server_ops_total{proc=\"commit\"}",
    "nfs_server_ops_total{proc=\"create\"}",
    "nfs_server_ops_total{proc=\"fsstat\"}",
    "nfs_server_ops_total{proc=\"getattr\"}",
    "nfs_server_ops_total{proc=\"lookup\"}",
    "nfs_server_ops_total{proc=\"lookup_path\"}",
    "nfs_server_ops_total{proc=\"mkdir\"}",
    "nfs_server_ops_total{proc=\"mount\"}",
    "nfs_server_ops_total{proc=\"null\"}",
    "nfs_server_ops_total{proc=\"read\"}",
    "nfs_server_ops_total{proc=\"readdir\"}",
    "nfs_server_ops_total{proc=\"readlink\"}",
    "nfs_server_ops_total{proc=\"remove\"}",
    "nfs_server_ops_total{proc=\"remove_tree\"}",
    "nfs_server_ops_total{proc=\"rename\"}",
    "nfs_server_ops_total{proc=\"rmdir\"}",
    "nfs_server_ops_total{proc=\"setattr\"}",
    "nfs_server_ops_total{proc=\"symlink\"}",
    "nfs_server_ops_total{proc=\"write\"}",
    "pastry_leaf_set_size",
];

/// The transport's own families, one label per service.
const TRANSPORT_FAMILIES: [&str; 4] = [
    "rpc_bytes_total",
    "rpc_calls_total",
    "rpc_failed_calls_total",
    "rpc_latency_nanos",
];

/// The `SimNetwork` scheduler's metrics (the `sched` gate).
const SCHEDULER: [&str; 3] = [
    "kosha_sched_dispatch_latency_nanos",
    "kosha_sched_events_total",
    "kosha_sched_heap_depth_hwm",
];

#[test]
fn a_busy_cluster_registers_exactly_these_names() {
    let net = SimNetwork::new(LatencyModel::default());
    let cfg = KoshaConfig {
        distribution_level: 1,
        replicas: 2,
        read_from: ReadFrom::Replicas { hot_copies: 2 },
        replication_mode: ReplicationMode::WriteBehind { queue_ops: 64 },
        ..KoshaConfig::for_tests()
    };
    let nodes = boot_cluster(
        &(net.clone() as Arc<dyn Network>),
        |addr, mux| net.attach(addr, mux),
        &cfg,
        6,
        "inventory-",
        NodeAddr(1),
    )
    .expect("join");
    let m = KoshaMount::new(net.clone() as Arc<dyn Network>, NodeAddr(1), NodeAddr(1)).unwrap();

    // Every kind of operation, a hot file, then the background work.
    for d in 0..3 {
        m.mkdir_p(&format!("/dir{d}/sub")).unwrap();
        for f in 0..3 {
            let path = format!("/dir{d}/f{f}");
            m.write_file(&path, &[d as u8; 300]).unwrap();
        }
    }
    for _ in 0..8 {
        m.read_file("/dir0/f0").unwrap();
    }
    m.stat("/dir1/f1").unwrap();
    m.readdir("/dir1").unwrap();
    m.symlink("/dir1/link", "f1").unwrap();
    m.rename("/dir1/f2", "/dir1/g2").unwrap();
    m.remove("/dir2/f0").unwrap();
    m.rmdir("/dir2/sub").unwrap();
    m.commit("/dir0/f1").unwrap();
    net.run_pumps();
    for n in &nodes {
        n.maintain();
    }
    net.run_pumps();
    let peers: Vec<NodeAddr> = nodes.iter().map(|n| n.addr()).collect();
    let now = net.clock().now().0;
    let opts = AuditOptions {
        replicas: 2,
        ..AuditOptions::default()
    };
    let audit = audit_cluster(net.as_ref(), NodeAddr(1), &peers, now, &opts);
    assert_eq!(audit.nodes_scanned, 6, "{audit:?}");
    let hot: u64 = nodes.iter().map(|n| n.stats().hot_pushes).sum();
    assert!(hot > 0, "the script must exercise the hot-copy path");

    for n in &nodes {
        assert_eq!(
            n.obs().registry.names(),
            NODE_REGISTRY,
            "node {:?}",
            n.addr()
        );
        assert_eq!(n.obs().recorder.series_names(), Vec::<String>::new());
    }
    let labelled = |family: &str, suffix: &str| {
        ServiceId::ALL.map(|s| format!("{family}{{service=\"{}\"}}{suffix}", s.name()))
    };
    let mut transport: Vec<String> = TRANSPORT_FAMILIES
        .iter()
        .flat_map(|f| labelled(f, ""))
        .chain(SCHEDULER.map(String::from))
        .collect();
    transport.sort();
    assert_eq!(net.obs().registry.names(), transport);
    // The one recorder family: `kosha-top`'s SLO burn reads the koshafs
    // series, the `recorder` gate probes the nfs one.
    let mut series = labelled("rpc_latency_nanos", ":p99").to_vec();
    series.sort();
    assert_eq!(net.obs().recorder.series_names(), series);
}
