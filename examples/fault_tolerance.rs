//! Fault tolerance walkthrough: replication, transparent failover, and
//! migration (Sections 4.2–4.4 of the paper).
//!
//! Run with: `cargo run --example fault_tolerance`

use kosha::{boot_cluster, KoshaConfig, KoshaMount};
use kosha_rpc::{LatencyModel, Network, NodeAddr, SimNetwork};
use std::sync::Arc;

fn main() {
    let net = SimNetwork::new(LatencyModel::zero());
    let cfg = KoshaConfig {
        distribution_level: 1,
        replicas: 2, // K = 2 additional replicas per file
        contributed_bytes: 1 << 30,
        ..KoshaConfig::for_tests()
    };
    let nodes = boot_cluster(
        &(net.clone() as Arc<dyn Network>),
        |addr, mux| net.attach(addr, mux),
        &cfg,
        6,
        "ft-host-",
        NodeAddr(0),
    )
    .unwrap();

    let mount = KoshaMount::new(net.clone() as Arc<dyn Network>, NodeAddr(0), NodeAddr(0)).unwrap();
    mount.mkdir_p("/thesis").unwrap();
    mount
        .write_file("/thesis/chapter1.tex", b"\\section{Introduction} ...")
        .unwrap();

    // Who is the primary, and who holds replicas?
    let primary = nodes
        .iter()
        .find(|n| n.hosted_anchors().iter().any(|(p, _)| p == "/thesis"))
        .expect("someone hosts /thesis");
    println!("primary replica of /thesis: node {}", primary.addr());
    for node in &nodes {
        let mut has_replica = false;
        node.with_store(|v| {
            v.walk(|p, _| {
                if p.starts_with("/kosha_replica") && p.ends_with("chapter1.tex") {
                    has_replica = true;
                }
            })
        });
        if has_replica {
            println!("replica held by:            node {}", node.addr());
        }
    }

    // Crash the primary. The paper's §4.4: the client's next access hits
    // an RPC error, drops the virtual-handle mapping, re-routes the key —
    // which lands on a leaf-set neighbor holding a replica — and promotes
    // it. All invisible to the application.
    let victim = primary.addr();
    println!("\ncrashing node {victim} ...");
    net.fail_node(victim);

    // Read through a surviving machine's koshad.
    let gateway = nodes
        .iter()
        .map(|n| n.addr())
        .find(|a| *a != victim)
        .expect("a survivor exists");
    let reader = KoshaMount::new(net.clone() as Arc<dyn Network>, gateway, gateway).unwrap();
    let content = reader.read_file("/thesis/chapter1.tex").unwrap();
    println!(
        "read after crash still works: {:?}",
        String::from_utf8_lossy(&content)
    );
    reader
        .write_file("/thesis/chapter1.tex", b"\\section{Introduction} v2")
        .unwrap();
    println!("write after crash works too (new primary promoted)");

    let new_primary = nodes
        .iter()
        .filter(|n| n.addr() != victim)
        .find(|n| n.hosted_anchors().iter().any(|(p, _)| p == "/thesis"))
        .expect("a replica was promoted");
    println!("new primary: node {}", new_primary.addr());

    // The crashed machine comes back — its key-space ownership returns
    // and the fresher data migrates back to it.
    println!("\nrecovering node {victim} ...");
    net.recover_node(victim);
    for n in &nodes {
        n.maintain();
    }
    let back = reader.read_file("/thesis/chapter1.tex").unwrap();
    println!(
        "after recovery and maintenance, content is the post-crash version: {:?}",
        String::from_utf8_lossy(&back)
    );
}
