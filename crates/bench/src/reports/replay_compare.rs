//! Beyond the paper: day-in-the-life operation-trace replay comparing
//! Kosha (at several cluster sizes) with the central-NFS baseline, in
//! modeled (virtual) time. Complements the MAB's compile-burst shape
//! with a sustained, read-heavy, hot-set-skewed stream.

use crate::{outln, Report};
use kosha::KoshaMount;
use kosha_nfs::CacheConfig;
use kosha_rpc::VirtualClock;
use kosha_sim::baseline::NfsBaseline;
use kosha_sim::cluster::{ClusterParams, SimCluster};
use kosha_sim::experiments::{mab_disk, mab_lan, table1_kosha_config};
use kosha_sim::replay::{generate_ops, populate, replay, ReplayParams};
use kosha_sim::{FsTrace, TraceParams};
use std::sync::Arc;

/// Replays one operation stream on the baseline and on Kosha.
pub fn run(_full: bool) -> Report {
    let mut out = String::new();
    let trace = FsTrace::generate(&TraceParams {
        seed: 5,
        ..TraceParams::default().scaled(0.002)
    });
    let params = ReplayParams {
        ops: 4000,
        ..Default::default()
    };
    let ops = generate_ops(&trace, &params);
    outln!(
        out,
        "replay: {} ops over {} files ({}% reads, skew {})\n",
        ops.len(),
        trace.files.len(),
        (params.read_fraction * 100.0) as u32,
        params.skew
    );
    outln!(
        out,
        "{:<16} {:>12} {:>12} {:>14} {:>10}",
        "system",
        "virtual s",
        "ops/vsec",
        "mean latency",
        "errors"
    );

    // Populate, zero the clock, replay, print the row.
    let mut row = |name: &str, fs: &KoshaMount, clock: Arc<VirtualClock>| {
        populate(&trace, fs).expect("populate");
        clock.reset();
        let rep = replay(&ops, fs, &clock);
        let vsec = rep.elapsed_ns as f64 / 1e9;
        outln!(
            out,
            "{:<16} {:>12.3} {:>12.0} {:>14.3?} {:>10}",
            name,
            vsec,
            rep.total_ops() as f64 / vsec.max(1e-9),
            rep.mean_latency(),
            rep.errors
        );
    };
    let kosha = |nodes: usize| {
        SimCluster::build(&ClusterParams {
            nodes,
            kosha: table1_kosha_config(),
            latency: mab_lan(),
            seed: 300 + nodes as u64,
        })
    };

    let b = NfsBaseline::build(mab_lan(), mab_disk(), 64 << 30);
    row("nfs-central", b.mount(), b.clock());
    for nodes in [2usize, 4, 8] {
        let cluster = kosha(nodes);
        row(
            &format!("kosha-{nodes}"),
            &cluster.mount(0),
            cluster.clock(),
        );
    }
    // Both behind a caching kernel-style client (§4.1.1), same
    // `CacheConfig`: the hot-set skew makes attribute/data caches absorb
    // most of the interposition cost, and most of what NFS costs too.
    let b = NfsBaseline::build(mab_lan(), mab_disk(), 64 << 30);
    row(
        "nfs-central+cache",
        &b.cached_mount(CacheConfig::default()),
        b.clock(),
    );
    let cluster = kosha(8);
    row(
        "kosha-8+cache",
        &cluster.cached_mount(0, CacheConfig::default()),
        cluster.clock(),
    );
    outln!(
        out,
        "\nExpected shape: uncached Kosha pays roughly the per-op interposition\n\
         and hop costs visible in Table 1's stat/grep rows; the caching client\n\
         (standard kernel NFS behavior) absorbs most of it; errors must be zero."
    );
    Report::text(out)
}
