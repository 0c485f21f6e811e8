//! Deterministic flight-recorder bench: a Zipf-distributed read
//! workload against an 8-node cluster with replica reads on, reported
//! through the recorder/heat/skew analytics this PR introduces.
//!
//! A seeded Zipf(s=1) stream of READs over 32 files concentrates demand
//! on a few objects — the access pattern the paper's §6 load-balance
//! analysis worries about and the ROADMAP's popularity-aware read
//! scaling will act on. The bench reports:
//!
//! * the read-heat top-N (the hot set, with the sketch's error bounds),
//! * node load skew (max/mean and Gini over real store ops),
//! * the flight recorder's footprint: live series, points, the memory
//!   ceiling, and how many downsample merges bounded it.
//!
//! Everything runs on the virtual clock with seeded ids and a seeded
//! workload RNG; two runs emit byte-identical output. The JSON summary
//! is the `BENCH_recorder.json` gate.

use crate::{bench_cluster, seed_files, Report, Zipf};
use kosha::{cluster_flight, FlightReport, KoshaConfig, KoshaNode, ReadFrom};
use kosha_obs::json::Value;
use kosha_obs::{obj, HeatEntry};
use kosha_rpc::{LatencyModel, Network, SimNetwork};
use rand::rngs::StdRng;
use rand::SeedableRng;

const NODES: usize = 8;
const FILES: usize = 32;
const READS: usize = 600;
const SEED: u64 = 0x5eed_c0de;

/// The Zipf read storm, the flight report over it, and its assertions.
pub fn run(_full: bool) -> Report {
    let mut cfg = KoshaConfig::for_tests();
    cfg.distribution_level = 1;
    cfg.replicas = 2;
    cfg.read_from = ReadFrom::Replicas { hot_copies: 0 };
    let cluster = bench_cluster(SimNetwork::new(LatencyModel::default()), &cfg, NODES, 1);
    let (net, nodes) = (&cluster.net, &cluster.nodes);
    let mount = cluster.mount(0);

    let paths = seed_files(&mount, FILES);
    net.run_pumps();

    // The Zipf read storm, with a recorder tick every 20 reads so the
    // series see the workload evolve rather than one final point.
    let zipf = Zipf::new(FILES);
    let mut rng = StdRng::seed_from_u64(SEED);
    for i in 0..READS {
        let rank = zipf.sample(&mut rng);
        mount.read_file(&paths[rank]).expect("zipf read");
        if i % 20 == 19 {
            net.run_pumps();
        }
    }
    net.run_pumps();

    let refs: Vec<&KoshaNode> = nodes.iter().map(|n| n.as_ref()).collect();
    let FlightReport {
        heat,
        skew_max_over_mean_x1000: skew,
        skew_gini_x1000: gini,
        slo: (burn, over, total),
        telemetry_drops: (_, _, dropped, downsamples),
        total_series: series,
        memory_ceiling_bytes: ceiling,
        ..
    } = cluster_flight(Some(&net.obs()), &refs, net.clock().now().0);

    // Recorder footprint across all domains, plus a depth probe of one
    // known-busy series on the transport.
    let transport_obs = net.obs();
    let probe = "rpc_latency_nanos{service=\"nfs\"}:p99";
    let probe_points = transport_obs.recorder.series(probe).map_or(0, |p| p.len());
    let ticks = transport_obs.recorder.ticks();

    // The hottest object must be the Zipf rank-1 file.
    assert_eq!(
        heat.first().map(|e| e.key.as_str()),
        Some(paths[0].as_str()),
        "rank-1 file is not the hottest"
    );
    // A Zipf workload over a hashed namespace must show real skew.
    assert!(gini > 0, "zipf reads produced perfectly uniform node load");
    assert!(skew > 1000, "max/mean skew should exceed 1.0");
    // Recorder memory stays bounded: every series is capped, so the
    // ceiling is series_count × capacity × 16 bytes at most.
    let cap = kosha_obs::recorder::DEFAULT_SERIES_CAPACITY;
    assert!(
        ceiling <= series * cap * 16,
        "memory ceiling {ceiling} exceeds series bound"
    );
    // The probe series actually accumulated points (the samplers ran)
    // and never exceeded its ring capacity.
    assert!(probe_points > 0, "transport recorder never ticked");
    assert!(probe_points <= cap, "series exceeded its capacity");

    let value = obj! {
        "nodes": NODES,
        "files": FILES,
        "reads": READS,
        "heat_top": Value::Array(heat.iter().map(HeatEntry::json).collect()),
        "skew": obj! {"max_over_mean_x1000": skew, "gini_x1000": gini},
        "slo": obj! {"burn_x1000": burn, "over": over, "total": total},
        "recorder": obj! {
            "series": series, "memory_ceiling_bytes": ceiling, "downsamples": downsamples,
            "dropped": dropped, "transport_ticks": ticks, "probe_series_points": probe_points,
        },
    };
    Report::json(value)
}
