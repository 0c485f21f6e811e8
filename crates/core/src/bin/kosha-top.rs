//! `kosha-top` — the cluster health dashboard, demonstrated against a
//! deterministic simulated deployment.
//!
//! Builds an 8-node `SimNetwork` cluster, runs a short mixed workload
//! (directory churn, a hot read set, replica reads, write-behind
//! flushes), ticks the transport's flight recorder via `run_pumps()`, and
//! prints the assembled [`kosha::FlightReport`]. Everything runs on the
//! virtual clock with seeded ids, so two invocations print byte-for-byte
//! identical output — CI diffs exactly that. Pass `--json` for the JSON
//! snapshot instead of the text dashboard.

use kosha::{
    audit_cluster, boot_cluster, cluster_flight, AuditOptions, KoshaConfig, KoshaMount, KoshaNode,
    ReadFrom, ReplicationMode,
};
use kosha_rpc::{LatencyModel, Network, NodeAddr, SimNetwork};
use std::sync::Arc;

const NODES: usize = 8;

fn main() {
    let json = std::env::args().any(|a| a == "--json");

    let net = SimNetwork::new(LatencyModel::default());
    let mut cfg = KoshaConfig::for_tests();
    cfg.distribution_level = 1;
    cfg.replicas = 2;
    cfg.read_from = ReadFrom::Replicas { hot_copies: 0 };
    cfg.replication_mode = ReplicationMode::WriteBehind { queue_ops: 256 };
    let nodes = boot_cluster(
        &(net.clone() as Arc<dyn Network>),
        |addr, mux| net.attach(addr, mux),
        &cfg,
        NODES,
        "kosha-host-",
        NodeAddr(1),
    )
    .expect("join");

    let mount =
        KoshaMount::new(net.clone() as Arc<dyn Network>, NodeAddr(1), NodeAddr(1)).expect("mount");

    // Mixed workload: several distributed directories, one hot file read
    // in a tight loop, a warm file, and a cold tail — then periodic
    // pump/sample ticks so the recorder sees the workload evolve.
    for d in 0..4 {
        mount.mkdir_p(&format!("/kosha/dir{d}")).expect("mkdir");
    }
    for d in 0..4 {
        for f in 0..4 {
            mount
                .write_file(&format!("/kosha/dir{d}/file{f}"), &[d as u8; 512])
                .expect("write");
        }
    }
    net.run_pumps();
    for round in 0..6 {
        for _ in 0..8 {
            mount.read_file("/kosha/dir0/file0").expect("hot read");
        }
        for _ in 0..2 {
            mount.read_file("/kosha/dir1/file1").expect("warm read");
        }
        mount
            .read_file(&format!("/kosha/dir{}/file2", round % 4))
            .expect("tail read");
        mount
            .write_file(
                &format!("/kosha/dir2/file{}", round % 4),
                &[round as u8; 256],
            )
            .expect("rewrite");
        net.run_pumps();
    }
    mount.commit("/kosha/dir2/file0").expect("commit");
    net.run_pumps();

    let refs: Vec<&KoshaNode> = nodes.iter().map(|n| n.as_ref()).collect();
    let now = net.clock().now().0;
    let mut report = cluster_flight(Some(&net.obs()), &refs, now);

    // Consistency-observatory pass: fan an AuditScan out to every node
    // and attach the joined divergence report to the dashboard.
    let peers: Vec<NodeAddr> = nodes.iter().map(|n| n.addr()).collect();
    let mut audit = audit_cluster(
        net.as_ref(),
        NodeAddr(1),
        &peers,
        now,
        &AuditOptions {
            replicas: 2,
            ..AuditOptions::default()
        },
    );
    audit.enrich_from_journals(&refs, now);
    report.attach_audit(audit);
    if json {
        println!("{}", report.json());
    } else {
        print!("{}", report.render());
    }
}
