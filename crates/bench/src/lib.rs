//! Benchmark harness for the Kosha reproduction: one runner,
//! `kosha-bench <report>`, over the reports in [`REPORTS`]. A report is
//! a function that computes everything and returns it as a [`Report`];
//! `main` alone decides what is printed, where a gate file is written
//! and how one is checked ([`check`], DESIGN.md "One runner, one boot").

#![forbid(unsafe_code)]

pub mod check;
mod reports;

use kosha::{KoshaConfig, KoshaMount};
use kosha_obs::SpanRecord;
use kosha_rpc::{Clock, LatencyModel, NodeAddr, SimNetwork, WallClock};
use kosha_sim::SimCluster;
use rand::rngs::StdRng;
use rand::Rng;
use std::sync::Arc;
use std::time::Duration;

/// What one report computed.
pub struct Report {
    /// The human-readable form: what a plain run prints.
    pub text: String,
    /// The JSON form, if the report has one: what `--json` prints.
    pub json: Option<String>,
}

impl Report {
    /// A report with a text form only.
    fn text(text: String) -> Self {
        Report { text, json: None }
    }
}

/// One row of [`REPORTS`].
pub struct Entry {
    /// The runner's first argument.
    pub name: &'static str,
    /// The checked-in `BENCH_*.json` that the report's JSON (plus a
    /// final newline) must equal byte for byte, if the report is a
    /// gate. Static, so `list` and `check` know it without a run.
    pub gate: Option<&'static str>,
    /// Computes the report; the flag is `--full` (paper-scale inputs),
    /// which most reports have no use for.
    pub run: fn(bool) -> Report,
}

const fn plain(name: &'static str, run: fn(bool) -> Report) -> Entry {
    Entry {
        name,
        gate: None,
        run,
    }
}

const fn gate(name: &'static str, file: &'static str, run: fn(bool) -> Report) -> Entry {
    Entry {
        name,
        gate: Some(file),
        run,
    }
}

/// Every report, in the order `list` prints them.
pub const REPORTS: &[Entry] = &[
    plain("table1", reports::paper::table1),
    plain("table2", reports::paper::table2),
    plain("fig5", reports::paper::fig5),
    plain("fig6", reports::paper::fig6),
    plain("fig7", reports::paper::fig7),
    plain("overhead_model", reports::overhead_model::run),
    plain("replay_compare", reports::replay_compare::run),
    plain("ablations", reports::ablations::run),
    plain("obs_report", reports::obs_report::run),
    gate("fanout", "BENCH_fanout.json", reports::fanout::run),
    gate("trace", "BENCH_trace.json", reports::trace::run),
    gate("writeback", "BENCH_writeback.json", reports::writeback::run),
    gate("recorder", "BENCH_recorder.json", reports::recorder::run),
    gate("sched", "BENCH_sched.json", reports::sched::run),
    gate("churn", "BENCH_churn.json", reports::churn::run),
    gate("hotspot", "BENCH_hotspot.json", reports::hotspot::run),
];

/// Looks a report up by name.
#[must_use]
pub fn report(name: &str) -> Option<&'static Entry> {
    REPORTS.iter().find(|e| e.name == name)
}

/// Appends one formatted line to a `String`.
macro_rules! outln {
    ($out:expr) => { $out.push('\n') };
    ($out:expr, $($arg:tt)*) => {{
        $out.push_str(&format!($($arg)*));
        $out.push('\n');
    }};
}
pub(crate) use outln;

/// `v` hundredths as `i.ff`.
fn x100(v: u64) -> String {
    format!("{}.{:02}", v / 100, v % 100)
}

/// `v` thousandths as `i.fff`.
fn x1000(v: u64) -> String {
    format!("{}.{:03}", v / 1000, v % 1000)
}

/// Runs `f` and returns its result with the wall time it took. Wall
/// time goes to a report's text only, never to its JSON.
fn timed<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let clock = WallClock::new();
    let r = f();
    (r, clock.now().as_duration())
}

/// The gate reports' cluster: `nodes` koshads named `kosha-host-{i}` on
/// `net`, at addresses `first..`.
fn bench_cluster(net: Arc<SimNetwork>, cfg: &KoshaConfig, nodes: usize, first: u64) -> SimCluster {
    SimCluster::on(net, cfg, nodes, "kosha-host-", NodeAddr(first))
}

/// `bench_cluster` from address 0 on a default-latency LAN.
fn default_cluster(cfg: &KoshaConfig, nodes: usize) -> SimCluster {
    bench_cluster(SimNetwork::new(LatencyModel::default()), cfg, nodes, 0)
}

/// Drains every span buffer in the cluster (transport + all nodes).
fn take_spans(c: &SimCluster) -> Vec<SpanRecord> {
    let mut spans = c.net.obs().tracer.take();
    for n in &c.nodes {
        spans.extend(n.obs().tracer.take());
    }
    spans
}

/// Seeds `files` 512-byte files for a Zipf read storm, spread over four
/// distributed directories so store load has room to skew with
/// popularity; returns their paths, most popular first.
fn seed_files(mount: &KoshaMount, files: usize) -> Vec<String> {
    for d in 0..4 {
        mount.mkdir_p(&format!("/kosha/d{d}")).expect("mkdir");
    }
    let paths: Vec<String> = (0..files)
        .map(|f| format!("/kosha/d{}/f{:02}", f % 4, f))
        .collect();
    for (f, p) in paths.iter().enumerate() {
        mount.write_file(p, &[f as u8; 512]).expect("seed file");
    }
    paths
}

/// Zipf(s=1) sampler over ranks `1..=n`: inverse-CDF over the precomputed
/// cumulative weights `H(k) = Σ 1/r`, scaled to integers so the draw is
/// pure integer comparison (deterministic).
struct Zipf {
    cumulative: Vec<u64>,
}

impl Zipf {
    fn new(n: usize) -> Self {
        let mut acc = 0u64;
        let cumulative = (1..=n as u64)
            .map(|rank| {
                acc += 1_000_000 / rank;
                acc
            })
            .collect();
        Zipf { cumulative }
    }

    fn sample(&self, rng: &mut StdRng) -> usize {
        let total = *self.cumulative.last().expect("non-empty");
        let x = rng.random_range(0..total);
        self.cumulative.partition_point(|&c| c <= x)
    }
}
