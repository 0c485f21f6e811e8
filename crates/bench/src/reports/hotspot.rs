//! Deterministic hot-spot relief bench: the same seeded Zipf read storm
//! run twice — once with heat-driven cached replicas off (the baseline)
//! and once with them on — on a distance-aware simulated LAN.
//!
//! The paper's §6 load analysis worries about exactly this workload: a
//! few Zipf-popular files funnel most reads through one primary and its
//! K replica holders. With the feature on (DESIGN.md §16) primaries
//! spawn leased read-only copies past the heat threshold, the reader's
//! heat-weighted rotor leans on them, and the latency-EWMA filter picks
//! the nearest advertised holder. The bench reports, for both runs:
//!
//! * read latency p50/p99 from virtual-clock deltas around each READ,
//! * store-load skew across nodes (max/mean and Gini over real NFS ops),
//! * hot-copy counters (pushes, drops, lease invalidations),
//!
//! plus, for the hot run, the outstanding-copy count sampled over the
//! storm and after a long idle cool-down — the copies must shed back to
//! exactly K (a final count of zero).
//!
//! Everything runs on the virtual clock with seeded ids and a seeded
//! workload RNG; two invocations emit byte-identical output. The JSON
//! summary is the `BENCH_hotspot.json` gate.

use crate::{bench_cluster, seed_files, Report, Zipf};
use kosha::{cluster_flight, FlightOptions, KoshaConfig, KoshaNode};
use kosha_rpc::{Clock, LatencyModel, Network, NodeAddr, SimNetwork};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Duration;

const NODES: usize = 8;
const FILES: usize = 8;
/// Unmeasured prefix of the same Zipf stream: spawns, first contacts,
/// and handle-cache warm-up happen here, so the measured phase compares
/// the two configurations' steady states.
const WARMUP: usize = 200;
const READS: usize = 900;
const SEED: u64 = 0x401_5eed;
/// Rewrite the rank-1 file this often: the storm exercises the write
/// path's synchronous lease invalidation, not just cold spreading.
const WRITE_EVERY: usize = 250;
/// Pump + sample cadence during the storm.
const TICK_EVERY: usize = 50;
/// Maintenance cadence (lease renewal rides on it).
const MAINTAIN_EVERY: usize = 150;

struct RunOutcome {
    /// READ latency percentiles, virtual nanoseconds.
    p50: u64,
    p99: u64,
    /// Store-load skew across nodes, ×1000: max/mean and Gini.
    skew: u64,
    gini: u64,
    /// `(outstanding copies, pushes, drops, lease invalidations)`.
    hot: (u64, u64, u64, u64),
    /// `(reads_done, outstanding hot copies)` samples over the storm,
    /// ending with the post-cool-down count.
    copies_series: Vec<(usize, i64)>,
}

fn percentile(sorted: &[u64], p: usize) -> u64 {
    sorted[(sorted.len() - 1) * p / 100]
}

fn run_storm(hot: bool) -> RunOutcome {
    // A distance-aware LAN: hosts sit on a line, so the latency to a
    // holder depends on which holder serves — giving the reader's
    // EWMA filter real choices to exploit.
    let model = LatencyModel {
        per_distance_unit: Duration::from_micros(50),
        ..LatencyModel::default()
    };
    let net = SimNetwork::new(model);
    for i in 0..NODES {
        net.set_coord(NodeAddr(i as u64 + 1), i as f64, 0.0);
    }
    let mut cfg = KoshaConfig::for_tests();
    cfg.distribution_level = 1;
    cfg.replicas = 1;
    cfg.read_from_replicas = true;
    if hot {
        cfg.hot_replicas = 5;
        cfg.hot_threshold_milli = 6_000;
        cfg.hot_lease_nanos = 5_000_000_000;
    }
    let cluster = bench_cluster(net, &cfg, NODES, 1);
    let (net, nodes) = (&cluster.net, &cluster.nodes);
    let mount = cluster.mount(0);

    let paths = seed_files(&mount, FILES);
    net.run_pumps();

    let copies_now = |nodes: &[Arc<KoshaNode>]| -> i64 {
        nodes
            .iter()
            .map(|n| n.obs().registry.gauge("kosha_hot_copies").get())
            .sum()
    };

    let zipf = Zipf::new(FILES);
    let mut rng = StdRng::seed_from_u64(SEED);
    let mut lat = Vec::with_capacity(READS);
    let mut copies_series = Vec::new();
    for i in 0..WARMUP + READS {
        let rank = zipf.sample(&mut rng);
        let t0 = net.clock().now().0;
        mount.read_file(&paths[rank]).expect("zipf read");
        if i >= WARMUP {
            lat.push(net.clock().now().0 - t0);
        }
        if (i + 1) % WRITE_EVERY == 0 {
            // A write into the hot set: leases void before the ack.
            mount
                .write_file(&paths[0], &[(i % 251) as u8; 512])
                .expect("hot write");
        }
        if (i + 1) % MAINTAIN_EVERY == 0 {
            for node in nodes {
                node.maintain();
            }
        }
        if (i + 1) % TICK_EVERY == 0 {
            net.run_pumps();
            if i >= WARMUP {
                copies_series.push((i + 1 - WARMUP, copies_now(nodes)));
            }
        }
    }
    net.run_pumps();

    // Long idle cool-down: heat decays far below the shed threshold, so
    // maintenance must revoke every cached copy.
    net.virtual_clock().advance(Duration::from_secs(600));
    for node in nodes {
        node.maintain();
    }
    net.run_pumps();
    copies_series.push((READS, copies_now(nodes)));

    let refs: Vec<&KoshaNode> = nodes.iter().map(|n| n.as_ref()).collect();
    let report = cluster_flight(
        Some(&net.obs()),
        &refs,
        net.clock().now().0,
        &FlightOptions::default(),
    );

    lat.sort_unstable();
    RunOutcome {
        p50: percentile(&lat, 50),
        p99: percentile(&lat, 99),
        skew: report.skew_max_over_mean_x1000,
        gini: report.skew_gini_x1000,
        hot: report.hot,
        copies_series,
    }
}

impl RunOutcome {
    fn json(&self, name: &str) -> String {
        let (p50, p99, skew, gini) = (self.p50, self.p99, self.skew, self.gini);
        let (copies, pushes, drops, voided) = self.hot;
        format!(
            r#"  "{name}": {{
    "read_p50_nanos": {p50},
    "read_p99_nanos": {p99},
    "skew": {{"max_over_mean_x1000": {skew}, "gini_x1000": {gini}}},
    "hot": {{"copies_final": {copies}, "pushes": {pushes}, "drops": {drops}, "lease_invalidations": {voided}}}
  }},"#
        )
    }
}

/// Both storms, the comparison, and its assertions.
pub fn run(_full: bool) -> Report {
    let base = run_storm(false);
    let hot = run_storm(true);
    let peak_copies = hot.copies_series.iter().map(|&(_, c)| c).max().unwrap_or(0);
    let final_copies = hot.copies_series.last().map_or(0, |&(_, c)| c);
    let (_, pushes, drops, voided) = hot.hot;

    // The feature must pay for itself on its target workload...
    assert!(
        hot.p99 <= base.p99,
        "hot copies worsened p99 read latency: {} > {}",
        hot.p99,
        base.p99
    );
    assert!(
        hot.gini <= base.gini,
        "hot copies worsened load skew: gini {} > {}",
        hot.gini,
        base.gini
    );
    // ...by actually spawning copies, which must all shed once cold.
    assert!(peak_copies > 0, "the storm never spawned a hot copy");
    assert_eq!(final_copies, 0, "copies survived the cool-down");
    assert_eq!(
        hot.hot.0, 0,
        "flight report still counts outstanding copies"
    );
    // The baseline run must be genuinely feature-off.
    assert_eq!(base.hot, (0, 0, 0, 0), "baseline spawned hot state");
    // Writes into the hot set voided leases synchronously.
    assert!(voided > 0, "storm writes never invalidated a lease");

    let series_json: Vec<String> = hot
        .copies_series
        .iter()
        .map(|(reads, copies)| format!(r#"    {{"reads": {reads}, "copies": {copies}}}"#))
        .collect();
    let (base_json, hot_json, series_json) = (
        base.json("baseline"),
        hot.json("hot"),
        series_json.join(",\n"),
    );
    let json = format!(
        r#"{{
  "nodes": {NODES},
  "files": {FILES},
  "reads": {READS},
{base_json}
{hot_json}
  "hot_copies_peak": {peak_copies},
  "hot_copies_series": [
{series_json}
  ]
}}"#
    );
    let text = format!(
        "==== hot-spot relief (Zipf reads, baseline vs heat-driven copies) ====
cluster: {NODES} nodes, {FILES} files, {READS} Zipf(s=1) READs, K=1
read latency: p50 {} -> {} ns, p99 {} -> {} ns
store-load skew: max/mean {} -> {} (x1000), gini {} -> {} (x1000)
hot copies: peak {peak_copies}, final {final_copies} (pushes {pushes}, drops {drops}, lease invalidations {voided})
",
        base.p50, hot.p50, base.p99, hot.p99, base.skew, hot.skew, base.gini, hot.gini
    );
    Report {
        text,
        json: Some(json),
    }
}
