//! Runs the Modified Andrew Benchmark against both unmodified NFS and an
//! 8-node Kosha cluster, printing the paper-style phase comparison of
//! Table 1 for a single configuration.
//!
//! Run with: `cargo run --release --example andrew_benchmark`

use kosha_sim::baseline::NfsBaseline;
use kosha_sim::cluster::{ClusterParams, SimCluster};
use kosha_sim::experiments::{mab_disk, mab_lan, table1_kosha_config};
use kosha_sim::mab::{run_mab, MabParams};

fn main() {
    let params = MabParams::default();
    println!(
        "MAB workload: {} files, {} MB, {} dirs (depth {})\n",
        params.files,
        params.total_bytes / (1024 * 1024),
        params.dirs().len(),
        params.depth
    );

    let nfs = {
        let b = NfsBaseline::build(mab_lan(), mab_disk(), 64 << 30);
        let clock = b.clock();
        run_mab(&params, b.mount(), &clock).expect("baseline")
    };
    let kosha = {
        let cluster = SimCluster::build(&ClusterParams {
            nodes: 8,
            kosha: table1_kosha_config(),
            latency: mab_lan(),
            seed: 108,
        });
        let m = cluster.mount(0);
        let clock = cluster.clock();
        clock.reset();
        run_mab(&params, &m, &clock).expect("kosha")
    };

    println!(
        "{:<10} {:>10} {:>12} {:>9}",
        "phase", "NFS (s)", "Kosha-8 (s)", "ovhd %"
    );
    let rows = [
        ("mkdir", nfs.mkdir, kosha.mkdir),
        ("copy", nfs.copy, kosha.copy),
        ("stat", nfs.stat, kosha.stat),
        ("grep", nfs.grep, kosha.grep),
        ("compile", nfs.compile, kosha.compile),
        ("Total", nfs.total(), kosha.total()),
    ];
    for (name, base, k) in rows {
        println!(
            "{:<10} {:>10.2} {:>12.2} {:>8.2}%",
            name,
            base.as_secs_f64(),
            k.as_secs_f64(),
            (k.as_secs_f64() / base.as_secs_f64() - 1.0) * 100.0
        );
    }
    println!("\nPaper: total overhead of 5.6% over eight nodes.");
}
