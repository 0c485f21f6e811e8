//! The paper's motivating deployment: an academic lab moves its users'
//! home directories onto Kosha, harvesting unused desktop disk space
//! (Sections 1–2). This example populates many user homes, then shows
//! how directory-level distribution balances files and bytes across the
//! machines — the live-system analogue of Figure 5.
//!
//! Run with: `cargo run --release --example home_directories`

use kosha::{boot_cluster, KoshaConfig, KoshaMount};
use kosha_rpc::{LatencyModel, Network, NodeAddr, SimNetwork};
use kosha_sim::{FsTrace, TraceParams};
use std::sync::Arc;

fn main() {
    let nodes_count = 16;
    let net = SimNetwork::new(LatencyModel::zero());
    let cfg = KoshaConfig {
        distribution_level: 2,
        replicas: 0,
        contributed_bytes: 4 << 30,
        ..KoshaConfig::for_tests()
    };
    let nodes = boot_cluster(
        &(net.clone() as Arc<dyn Network>),
        |addr, mux| net.attach(addr, mux),
        &cfg,
        nodes_count,
        "lab-pc-",
        NodeAddr(0),
    )
    .unwrap();

    // A small synthetic slice of the departmental trace: a few thousand
    // files across user homes, inserted as sparse (size-only) files.
    let trace = FsTrace::generate(&TraceParams::default().scaled(0.008));
    let mount = KoshaMount::new(net.clone() as Arc<dyn Network>, NodeAddr(0), NodeAddr(0)).unwrap();
    for d in &trace.dirs {
        mount.mkdir_p(d).unwrap();
    }
    let mut inserted = 0u64;
    for f in &trace.files {
        if mount.create_sized(&f.path, f.size).is_ok() {
            inserted += 1;
        }
    }
    println!(
        "placed {} files ({:.2} GB) from {} users across {} machines\n",
        inserted,
        trace.total_bytes() as f64 / 1e9,
        TraceParams::default().scaled(0.008).users,
        nodes_count
    );

    // Per-node load report (primary bytes in each node's store).
    println!(
        "{:<10} {:>12} {:>12} {:>8}",
        "machine", "objects", "bytes", "share%"
    );
    let mut totals = Vec::new();
    for node in &nodes {
        let mut bytes = 0u64;
        let mut objects = 0u64;
        node.with_store(|v| {
            v.walk(|p, attr| {
                if p.starts_with("/kosha_store") && attr.ftype == kosha_vfs::FileType::Regular {
                    bytes += attr.size;
                    objects += 1;
                }
            })
        });
        totals.push((node.addr(), objects, bytes));
    }
    let total_bytes: u64 = totals.iter().map(|(_, _, b)| b).sum();
    for (addr, objects, bytes) in &totals {
        println!(
            "{:<10} {:>12} {:>12} {:>7.2}%",
            addr.to_string(),
            objects,
            bytes,
            100.0 * *bytes as f64 / total_bytes.max(1) as f64
        );
    }
    let mean = total_bytes as f64 / totals.len() as f64;
    let std = (totals
        .iter()
        .map(|(_, _, b)| (*b as f64 - mean) * (*b as f64 - mean))
        .sum::<f64>()
        / totals.len() as f64)
        .sqrt();
    println!(
        "\nbyte share: mean {:.2}%, std {:.2}% of total — directory-level hashing\n\
         spreads whole homes, so a node holds entire subtrees, not single files",
        100.0 / totals.len() as f64,
        100.0 * std / total_bytes.max(1) as f64
    );
}
