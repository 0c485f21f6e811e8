//! Quickstart: boot a simulated 8-node Kosha deployment, mount `/kosha`,
//! and use it like a normal file system.
//!
//! Run with: `cargo run --example quickstart`

use kosha::{boot_cluster, KoshaConfig, KoshaMount};
use kosha_rpc::{LatencyModel, Network, NodeAddr, SimNetwork};
use std::sync::Arc;

fn main() {
    // 1. A simulated 100 Mb/s LAN.
    let net = SimNetwork::new(LatencyModel::default());

    // 2. Eight desktop machines, each contributing 2 GB of unused disk
    //    space, joining the overlay one at a time.
    let cfg = KoshaConfig {
        distribution_level: 1,
        replicas: 1,
        contributed_bytes: 2 << 30,
        ..KoshaConfig::default()
    };
    let nodes = boot_cluster(
        &(net.clone() as Arc<dyn Network>),
        |addr, mux| net.attach(addr, mux),
        &cfg,
        8,
        "desktop-",
        NodeAddr(0),
    )
    .expect("join overlay");
    println!("booted {} nodes; aggregate pool ready", nodes.len());

    // 3. Mount /kosha through the local koshad (node 0) and use it.
    let mount = KoshaMount::new(net.clone() as Arc<dyn Network>, NodeAddr(0), NodeAddr(0))
        .expect("mount /kosha");
    mount.mkdir_p("/alice/projects/kosha").unwrap();
    mount
        .write_file(
            "/alice/projects/kosha/README.md",
            b"Files live somewhere in the cluster; you never need to know where.",
        )
        .unwrap();

    // 4. Location transparency: a mount on a different machine sees the
    //    same file, served from wherever the DHT placed it.
    let other = KoshaMount::new(net.clone() as Arc<dyn Network>, NodeAddr(5), NodeAddr(5))
        .expect("mount via node 5");
    let content = other.read_file("/alice/projects/kosha/README.md").unwrap();
    println!("read from node 5: {}", String::from_utf8_lossy(&content));

    // 5. Where did the directory actually land?
    for node in &nodes {
        for (path, routing) in node.hosted_anchors() {
            if path != "/" {
                println!(
                    "  anchor {path:<24} (key '{routing}') lives on {}",
                    node.addr()
                );
            }
        }
    }

    // 6. Aggregate view of the pool.
    let (cap, used, free) = mount.fsstat().unwrap();
    println!(
        "pool: {:.1} GB capacity, {} bytes used, {:.1} GB free",
        cap as f64 / 1e9,
        used,
        free as f64 / 1e9
    );
}
