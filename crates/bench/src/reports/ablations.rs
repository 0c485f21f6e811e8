//! Ablation timings for the design choices DESIGN.md §4 calls out
//! (`cargo run --release -p kosha-bench -- ablations`):
//!
//! * **Replication factor K** — write amplification on the full stack:
//!   every mutation fans out to K replicas (§4.2), so write cost should
//!   grow roughly linearly in K while reads stay flat.
//! * **Distribution granularity** — directory-level placement needs one
//!   hash per *directory*; per-file placement hashes every file. The
//!   paper's central claim is that directory distribution costs less
//!   while balancing almost as well (Fig 5).
//! * **Leaf-set size** — smaller leaf sets mean cheaper maintenance but
//!   less failure slack; measures route() cost after failures.
//! * **Read-from-replicas** and **client caching** — what each absorbs.
//!
//! Wall-clock, stdout only: one warm-up, then `samples` timed runs of
//! each case, mean and minimum printed. `perf/` is the benchmark with a
//! baseline and bounds; these are the comparisons nothing else makes.

use crate::{outln, timed, Report};
use kosha::{KoshaConfig, ReadFrom};
use kosha_id::{dir_key, node_id_from_seed};
use kosha_pastry::PastryNode;
use kosha_rpc::{LatencyModel, Network, NodeAddr, ServiceId, ServiceMux, SimNetwork};
use kosha_sim::cluster::{ClusterParams, SimCluster};
use kosha_sim::experiments::{mab_lan, table1_kosha_config};
use kosha_sim::mab::{run_mab, MabParams};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Duration;

/// Runs `f` once to warm up, then `samples` timed times.
fn time<R>(out: &mut String, label: &str, samples: u32, mut f: impl FnMut() -> R) {
    black_box(f());
    let runs: Vec<Duration> = (0..samples)
        .map(|_| {
            timed(|| {
                black_box(f());
            })
            .1
        })
        .collect();
    let mean = runs.iter().sum::<Duration>() / samples;
    let min = runs.iter().min().copied().unwrap_or_default();
    outln!(
        out,
        "{label:<50} mean {mean:>12.3?}  min {min:>12.3?}  ({samples} samples)"
    );
}

fn replication_write_amplification(out: &mut String) {
    for k in [0usize, 1, 2, 3] {
        time(
            out,
            &format!("ablation_replication/write-k/{k}"),
            10,
            || {
                let mut cfg = KoshaConfig::for_tests();
                cfg.replicas = k;
                cfg.distribution_level = 1;
                let cluster = SimCluster::build(&ClusterParams {
                    nodes: 6,
                    kosha: cfg,
                    latency: LatencyModel::zero(),
                    seed: 42,
                });
                let m = cluster.mount(0);
                m.mkdir_p("/w").unwrap();
                for i in 0..20 {
                    m.write_file(&format!("/w/f{i}"), &[7u8; 2048]).unwrap();
                }
            },
        );
    }
}

fn granularity(out: &mut String) {
    let paths: Vec<String> = (0..64)
        .flat_map(|d| (0..16).map(move |f| format!("/dir{d}/file{f}")))
        .collect();
    time(out, "ablation_granularity/hash-per-directory", 10, || {
        // One hash per directory; files reuse the directory's key.
        let mut last_dir = "";
        let mut key = dir_key("/");
        for p in &paths {
            let (dir, _) = p.rsplit_once('/').unwrap();
            if dir != last_dir {
                key = dir_key(dir.rsplit('/').next().unwrap());
                last_dir = dir;
            }
            black_box(key);
        }
    });
    time(out, "ablation_granularity/hash-per-file", 10, || {
        for p in &paths {
            black_box(dir_key(p));
        }
    });
}

fn leafset(out: &mut String) {
    for half in [2usize, 4, 8] {
        let label = format!("ablation_leafset/route-after-failures/{half}");
        time(out, &label, 10, || {
            let net = SimNetwork::new_zero_latency();
            let mut nodes = Vec::new();
            for i in 0..20u64 {
                let node = PastryNode::new(
                    half,
                    node_id_from_seed(&format!("ab-{i}")),
                    NodeAddr(i),
                    net.clone() as Arc<dyn Network>,
                );
                let mux = Arc::new(ServiceMux::new());
                mux.register(ServiceId::Pastry, node.clone());
                net.attach(node.addr(), mux);
                node.join(if i == 0 { None } else { Some(NodeAddr(0)) })
                    .unwrap();
                nodes.push(node);
            }
            for d in [3u64, 7, 11, 15] {
                net.fail_node(NodeAddr(d));
            }
            for n in nodes.iter().filter(|n| n.addr().0 % 4 != 3) {
                n.maintain();
            }
            for k in 0..30u32 {
                let key = dir_key(&format!("key{k}"));
                black_box(nodes[0].route(key).unwrap());
            }
            // Break the net→mux→node→net reference cycle so each
            // iteration's ring is actually freed.
            for n in &nodes {
                net.detach(n.addr());
            }
        });
    }
}

fn replica_reads(out: &mut String) {
    // §4.2's future-work optimization: measures the end-to-end cost of
    // round-robined replica reads vs primary-only reads.
    for (read_from, label) in [
        (ReadFrom::Primary, "primary-only"),
        (ReadFrom::Replicas { hot_copies: 0 }, "replica-rr"),
    ] {
        let mut cfg = KoshaConfig::for_tests();
        cfg.replicas = 2;
        cfg.distribution_level = 1;
        cfg.read_from = read_from;
        let cluster = SimCluster::build(&ClusterParams {
            nodes: 6,
            kosha: cfg,
            latency: LatencyModel::zero(),
            seed: 77,
        });
        let m = cluster.mount(0);
        m.mkdir_p("/r").unwrap();
        m.write_file("/r/blob", &[3u8; 64 * 1024]).unwrap();
        time(out, &format!("ablation_replica_reads/{label}"), 10, || {
            for _ in 0..6 {
                black_box(m.read_file("/r/blob").unwrap());
            }
        });
    }
}

fn client_cache(out: &mut String) {
    // §4.1.1: Kosha under a caching NFS client. Compares MAB cost with
    // and without attribute/dentry/data caching in front of koshad.
    let build = || {
        SimCluster::build(&ClusterParams {
            nodes: 4,
            kosha: table1_kosha_config(),
            latency: mab_lan(),
            seed: 900,
        })
    };
    time(out, "ablation_client_cache/uncached-client", 10, || {
        let cluster = build();
        let m = cluster.mount(0);
        let clock = cluster.clock();
        clock.reset();
        run_mab(&MabParams::small(), &m, &clock).unwrap()
    });
    time(out, "ablation_client_cache/caching-client", 10, || {
        let cluster = build();
        let m = cluster.cached_mount(0);
        let clock = cluster.clock();
        clock.reset();
        run_mab(&MabParams::small(), &m, &clock).unwrap()
    });
}

/// Every ablation, in DESIGN.md §4's order.
pub fn run(_full: bool) -> Report {
    let mut out = String::new();
    replication_write_amplification(&mut out);
    granularity(&mut out);
    leafset(&mut out);
    replica_reads(&mut out);
    client_cache(&mut out);
    Report::text(out)
}
