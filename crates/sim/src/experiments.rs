//! One entry point per table and figure of the paper's evaluation.
//!
//! Each experiment returns a result struct with a `render()` that prints
//! rows shaped like the paper's (EXPERIMENTS.md records the comparison).
//! `quick` variants shrink workloads for tests; the `kosha-bench`
//! reports run the full configurations.

use crate::availability::{
    simulate_availability, AvailabilityParams, AvailabilitySeries, AvailabilityTrace,
};
use crate::baseline::NfsBaseline;
use crate::cluster::{ClusterParams, SimCluster};
use crate::fstrace::{FsTrace, TraceParams};
use crate::mab::{run_mab, MabParams, MabTimes};
use crate::placement::{BalanceStats, PlacementParams, PlacementSim, UtilSample};
use kosha::KoshaConfig;
use kosha_nfs::DiskModel;
use kosha_rpc::LatencyModel;
use std::fmt::Write as _;
use std::time::Duration;

fn fmt_secs(d: Duration) -> String {
    format!("{:8.2}", d.as_secs_f64())
}

/// LAN cost model for the prototype measurements. Bandwidth is the
/// *effective pipelined* throughput seen by NFS traffic (write-behind and
/// read-ahead overlap wire time with disk and CPU; a strict
/// store-and-forward charge would double-count data-path costs that the
/// real client pipelines). Per-message latency matches a switched
/// 100 Mb/s LAN.
#[must_use]
pub fn mab_lan() -> LatencyModel {
    LatencyModel {
        hop_latency: Duration::from_micros(150),
        per_distance_unit: Duration::ZERO,
        bandwidth_bps: 125_000_000,
        server_op_cost: Duration::from_micros(60),
        loopback_cost: Duration::from_micros(25),
        timeout: Duration::from_millis(800),
    }
}

/// Disk model for the prototype measurements: synchronous FFS metadata
/// operations pay rotational latency; data transfers run at effective
/// (cache-assisted) media speed.
#[must_use]
pub fn mab_disk() -> DiskModel {
    DiskModel {
        bandwidth_bps: 100_000_000,
        meta_op_cost: Duration::from_millis(3),
    }
}

/// The Kosha configuration used for the prototype measurements
/// (Section 6.1: distribution level 1, replication "fixed at 1" — one
/// stored instance, i.e. no additional replicas — 35 GB contributed per
/// node, no redirection pressure).
#[must_use]
pub fn table1_kosha_config() -> KoshaConfig {
    KoshaConfig {
        distribution_level: 1,
        replicas: 0,
        contributed_bytes: 35 * 1_000_000_000,
        disk_bandwidth_bps: 100_000_000,
        disk_meta_op: Duration::from_millis(3),
        koshad_op_cost: Duration::from_micros(520),
        ..KoshaConfig::default()
    }
}

/// Table 1: MAB phase times for NFS and for Kosha at 1–8 nodes.
#[derive(Debug, Clone)]
pub struct Table1 {
    /// Workload used.
    pub params: MabParams,
    /// Unmodified-NFS baseline times.
    pub nfs: MabTimes,
    /// `(node count, times)` for each Kosha configuration.
    pub kosha: Vec<(usize, MabTimes)>,
}

impl Table1 {
    /// Runs the experiment. `quick` shrinks the tree for unit tests.
    #[must_use]
    pub fn run(quick: bool) -> Self {
        let params = if quick {
            MabParams::small()
        } else {
            MabParams::default()
        };
        let nfs = {
            let b = NfsBaseline::build(mab_lan(), mab_disk(), 64 << 30);
            let clock = b.clock();
            run_mab(&params, b.mount(), &clock).expect("baseline MAB")
        };
        let mut kosha = Vec::new();
        for &n in &[1usize, 2, 4, 8] {
            let cluster = SimCluster::build(&ClusterParams {
                nodes: n,
                kosha: table1_kosha_config(),
                latency: mab_lan(),
                seed: 100 + n as u64,
            });
            let m = cluster.mount(0);
            let clock = cluster.clock();
            clock.reset();
            let times = run_mab(&params, &m, &clock).expect("kosha MAB");
            kosha.push((n, times));
        }
        Table1 { params, nfs, kosha }
    }

    /// Paper-style table text.
    #[must_use]
    pub fn render(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "Table 1: Modified Andrew Benchmark, Kosha vs NFS (times in seconds)"
        );
        let _ = writeln!(
            s,
            "{:<10} {:>8} | {}",
            "phase",
            "NFS",
            self.kosha
                .iter()
                .map(|(n, _)| format!("{:>8}N {:>7}%", n, "ovhd"))
                .collect::<Vec<_>>()
                .join(" | ")
        );
        type PhaseGet = fn(&MabTimes) -> Duration;
        let phases: [(&str, PhaseGet); 5] = [
            ("mkdir", |t| t.mkdir),
            ("copy", |t| t.copy),
            ("stat", |t| t.stat),
            ("grep", |t| t.grep),
            ("compile", |t| t.compile),
        ];
        for (name, get) in phases {
            let base = get(&self.nfs);
            let mut row = format!("{:<10} {} |", name, fmt_secs(base));
            for (_, t) in &self.kosha {
                let v = get(t);
                let ov = (v.as_secs_f64() / base.as_secs_f64() - 1.0) * 100.0;
                let _ = write!(row, " {} {:>7.2} |", fmt_secs(v), ov);
            }
            let _ = writeln!(s, "{row}");
        }
        let base = self.nfs.total();
        let mut row = format!("{:<10} {} |", "Total", fmt_secs(base));
        for (_, t) in &self.kosha {
            let v = t.total();
            let ov = (v.as_secs_f64() / base.as_secs_f64() - 1.0) * 100.0;
            let _ = write!(row, " {} {:>7.2} |", fmt_secs(v), ov);
        }
        let _ = writeln!(s, "{row}");
        s
    }

    /// Total-overhead percentages per node count.
    #[must_use]
    pub fn total_overheads(&self) -> Vec<(usize, f64)> {
        self.kosha
            .iter()
            .map(|(n, t)| {
                (
                    *n,
                    (t.total().as_secs_f64() / self.nfs.total().as_secs_f64() - 1.0) * 100.0,
                )
            })
            .collect()
    }
}

/// Table 2: MAB vs distribution level at a fixed node count (4).
#[derive(Debug, Clone)]
pub struct Table2 {
    /// `(level, times)`; level 1 is the baseline column.
    pub levels: Vec<(usize, MabTimes)>,
}

impl Table2 {
    /// Runs the experiment at 4 nodes, distribution levels 1–4.
    #[must_use]
    pub fn run(quick: bool) -> Self {
        let params = if quick {
            MabParams::small()
        } else {
            MabParams::default()
        };
        let mut levels = Vec::new();
        for level in 1..=4usize {
            let mut kosha = table1_kosha_config();
            kosha.distribution_level = level;
            let cluster = SimCluster::build(&ClusterParams {
                nodes: 4,
                kosha,
                latency: mab_lan(),
                seed: 200,
            });
            let m = cluster.mount(0);
            let clock = cluster.clock();
            clock.reset();
            let times = run_mab(&params, &m, &clock).expect("kosha MAB");
            levels.push((level, times));
        }
        Table2 { levels }
    }

    /// Paper-style table text: levels 2–4 shown as overhead relative to
    /// level 1.
    #[must_use]
    pub fn render(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "Table 2: MAB vs distribution level (4 nodes; times in seconds)"
        );
        let base = &self.levels[0].1;
        let _ = writeln!(
            s,
            "{:<10} {:>10} | {}",
            "phase",
            "level 1",
            self.levels[1..]
                .iter()
                .map(|(l, _)| format!("level {l} {:>7}%", "ovhd"))
                .collect::<Vec<_>>()
                .join(" | ")
        );
        type PhaseGet = fn(&MabTimes) -> Duration;
        let phases: [(&str, PhaseGet); 5] = [
            ("mkdir", |t| t.mkdir),
            ("copy", |t| t.copy),
            ("stat", |t| t.stat),
            ("grep", |t| t.grep),
            ("compile", |t| t.compile),
        ];
        for (name, get) in phases {
            let b = get(base);
            let mut row = format!("{:<10} {:>10.2} |", name, b.as_secs_f64());
            for (_, t) in &self.levels[1..] {
                let v = get(t);
                let ov = (v.as_secs_f64() / b.as_secs_f64() - 1.0) * 100.0;
                let _ = write!(row, " {:>8.2} {:>7.2} |", v.as_secs_f64(), ov);
            }
            let _ = writeln!(s, "{row}");
        }
        let b = base.total();
        let mut row = format!("{:<10} {:>10.2} |", "Total", b.as_secs_f64());
        for (_, t) in &self.levels[1..] {
            let v = t.total();
            let ov = (v.as_secs_f64() / b.as_secs_f64() - 1.0) * 100.0;
            let _ = write!(row, " {:>8.2} {:>7.2} |", v.as_secs_f64(), ov);
        }
        let _ = writeln!(s, "{row}");
        s
    }

    /// Total overhead of each level relative to level 1, percent.
    #[must_use]
    pub fn overheads_vs_level1(&self) -> Vec<(usize, f64)> {
        let base = self.levels[0].1.total().as_secs_f64();
        self.levels[1..]
            .iter()
            .map(|(l, t)| (*l, (t.total().as_secs_f64() / base - 1.0) * 100.0))
            .collect()
    }
}

/// Figure 5: load balance vs distribution level.
#[derive(Debug, Clone)]
pub struct Fig5 {
    /// `(distribution level, averaged stats)`.
    pub rows: Vec<(usize, BalanceStats)>,
    /// Per-file-hashing upper bound (the dotted lines).
    pub per_file: BalanceStats,
}

impl Fig5 {
    /// Runs the load-balance study: `runs` seeds per level, trace scaled
    /// by `scale` (1.0 = the full 221 K-file trace).
    #[must_use]
    pub fn run(levels: std::ops::RangeInclusive<usize>, runs: u64, scale: f64) -> Self {
        let trace = FsTrace::generate(&TraceParams::default().scaled(scale));
        let avg = |stats: &[BalanceStats]| BalanceStats {
            files_mean_pct: stats.iter().map(|s| s.files_mean_pct).sum::<f64>()
                / stats.len() as f64,
            files_std_pct: stats.iter().map(|s| s.files_std_pct).sum::<f64>() / stats.len() as f64,
            bytes_mean_pct: stats.iter().map(|s| s.bytes_mean_pct).sum::<f64>()
                / stats.len() as f64,
            bytes_std_pct: stats.iter().map(|s| s.bytes_std_pct).sum::<f64>() / stats.len() as f64,
        };
        let mut rows = Vec::new();
        for level in levels {
            let stats: Vec<BalanceStats> = (0..runs)
                .map(|seed| {
                    let mut sim = PlacementSim::new(PlacementParams::fig5(level, seed));
                    sim.insert_trace(&trace);
                    sim.balance_stats()
                })
                .collect();
            rows.push((level, avg(&stats)));
        }
        let baseline: Vec<BalanceStats> = (0..runs)
            .map(|seed| PlacementSim::per_file_baseline(&PlacementParams::fig5(1, seed), &trace))
            .collect();
        Fig5 {
            rows,
            per_file: avg(&baseline),
        }
    }

    /// Paper-style series text.
    #[must_use]
    pub fn render(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "Figure 5: per-node load share vs distribution level (16 nodes, mean±std %)"
        );
        let _ = writeln!(
            s,
            "{:<6} {:>12} {:>12} {:>12} {:>12}",
            "level", "files mean%", "files std%", "bytes mean%", "bytes std%"
        );
        for (level, b) in &self.rows {
            let _ = writeln!(
                s,
                "{:<6} {:>12.2} {:>12.2} {:>12.2} {:>12.2}",
                level, b.files_mean_pct, b.files_std_pct, b.bytes_mean_pct, b.bytes_std_pct
            );
        }
        let _ = writeln!(
            s,
            "{:<6} {:>12.2} {:>12.2} {:>12.2} {:>12.2}   (per-file hashing bound)",
            "file",
            self.per_file.files_mean_pct,
            self.per_file.files_std_pct,
            self.per_file.bytes_mean_pct,
            self.per_file.bytes_std_pct
        );
        s
    }
}

/// Figure 6: cumulative insertion-failure ratio vs utilization, per
/// redirection-attempt budget.
#[derive(Debug, Clone)]
pub struct Fig6 {
    /// `(redirect attempts, samples)` series.
    pub series: Vec<(usize, Vec<UtilSample>)>,
}

impl Fig6 {
    /// Runs the redirection study. The trace is scaled by `scale` and the
    /// node capacities are scaled proportionally, preserving the paper's
    /// pressure (17.9 GB × 4 copies against 60 GB of raw capacity).
    #[must_use]
    pub fn run(attempt_budgets: &[usize], runs: u64, scale: f64) -> Self {
        let trace = FsTrace::generate(&TraceParams::default().scaled(scale));
        let mut series = Vec::new();
        for &attempts in attempt_budgets {
            // Average the sample curves across runs on a fixed grid.
            let mut grids: Vec<Vec<UtilSample>> = Vec::new();
            for seed in 0..runs {
                let mut p = PlacementParams::fig6(attempts, seed);
                for c in &mut p.capacities {
                    *c = ((*c as f64) * scale) as u64;
                }
                let mut sim = PlacementSim::new(p);
                sim.insert_trace(&trace);
                grids.push(sim.samples().to_vec());
            }
            let len = grids.iter().map(Vec::len).min().unwrap_or(0);
            let avg: Vec<UtilSample> = (0..len)
                .map(|i| UtilSample {
                    utilization: grids.iter().map(|g| g[i].utilization).sum::<f64>()
                        / grids.len() as f64,
                    failure_ratio: grids.iter().map(|g| g[i].failure_ratio).sum::<f64>()
                        / grids.len() as f64,
                })
                .collect();
            series.push((attempts, avg));
        }
        Fig6 { series }
    }

    /// Failure ratio of a series at (closest sample to) a utilization.
    #[must_use]
    pub fn failure_at(&self, attempts: usize, utilization: f64) -> Option<f64> {
        let (_, samples) = self.series.iter().find(|(a, _)| *a == attempts)?;
        samples
            .iter()
            .min_by(|a, b| {
                (a.utilization - utilization)
                    .abs()
                    .partial_cmp(&(b.utilization - utilization).abs())
                    .expect("finite")
            })
            .map(|s| s.failure_ratio)
    }

    /// Paper-style series text at round utilization points.
    #[must_use]
    pub fn render(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "Figure 6: cumulative failure ratio vs utilization (level 4, 3 replicas)"
        );
        let points = [0.2, 0.4, 0.6, 0.8, 0.9, 0.95, 1.0];
        let _ = write!(s, "{:<10}", "redirects");
        for p in points {
            let _ = write!(s, " {:>8.0}%", p * 100.0);
        }
        let _ = writeln!(s);
        for (attempts, _) in &self.series {
            let _ = write!(s, "{:<10}", attempts);
            for p in points {
                match self.failure_at(*attempts, p) {
                    Some(f) => {
                        let _ = write!(s, " {:>9.4}", f);
                    }
                    None => {
                        let _ = write!(s, " {:>9}", "-");
                    }
                }
            }
            let _ = writeln!(s);
        }
        s
    }
}

/// Figure 7: file availability over the trace period per replica count.
#[derive(Debug, Clone)]
pub struct Fig7 {
    /// `(K, series)` for K = 0..=4.
    pub series: Vec<(usize, AvailabilitySeries)>,
    /// The availability-trace parameters used.
    pub params: AvailabilityParams,
}

impl Fig7 {
    /// Runs the availability study with `runs` seeds averaged.
    #[must_use]
    pub fn run(params: AvailabilityParams, trace_scale: f64, runs: u64) -> Self {
        let fstrace = FsTrace::generate(&TraceParams::default().scaled(trace_scale));
        let mut series = Vec::new();
        for k in 0..=4usize {
            let mut agg: Option<AvailabilitySeries> = None;
            for run in 0..runs {
                let mut p = params.clone();
                p.seed = params.seed + run;
                let avail = AvailabilityTrace::generate(&p);
                let s = simulate_availability(&fstrace, &avail, 3, k, run);
                agg = Some(match agg {
                    None => s,
                    Some(prev) => AvailabilitySeries {
                        pct_available: prev
                            .pct_available
                            .iter()
                            .zip(&s.pct_available)
                            .map(|(a, b)| a + b)
                            .collect(),
                        average: prev.average + s.average,
                        minimum: prev.minimum + s.minimum,
                    },
                });
            }
            let mut s = agg.expect("runs >= 1");
            let n = runs as f64;
            for v in &mut s.pct_available {
                *v /= n;
            }
            s.average /= n;
            s.minimum /= n;
            series.push((k, s));
        }
        Fig7 { series, params }
    }

    /// Paper-style summary text.
    #[must_use]
    pub fn render(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "Figure 7: file availability over {} hours (distribution level 3)",
            self.params.hours
        );
        let _ = writeln!(
            s,
            "{:<8} {:>10} {:>10} {:>14}",
            "K", "avg %", "min %", "dip@spike %"
        );
        for (k, series) in &self.series {
            let dip = 100.0
                - series
                    .pct_available
                    .get(self.params.spike_hour)
                    .copied()
                    .unwrap_or(100.0);
            let _ = writeln!(
                s,
                "Kosha-{:<2} {:>10.4} {:>10.4} {:>14.2}",
                k, series.average, series.minimum, dip
            );
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_quick_shapes() {
        let t = Table1::run(true);
        let overheads = t.total_overheads();
        // Kosha's total overhead is positive but modest, and grows (or at
        // least does not shrink dramatically) as nodes increase.
        for (n, ov) in &overheads {
            assert!(*ov > 0.0, "kosha-{n} beats the NFS under it by {ov}%");
            assert!(*ov < 150.0, "kosha-{n} overhead {ov}% out of regime");
        }
        // One client drives both sides (§6.1.1), so each op costs Kosha
        // its interposition on top. Only payload can pay that back: the
        // one-node client never crosses the wire, which is worth more
        // than interposition from about 26 kB a chunk. The quick
        // tree's files are 8 KiB, so no phase may come out ahead.
        let one = &t.kosha[0].1;
        for (phase, kosha, nfs) in [
            ("mkdir", one.mkdir, t.nfs.mkdir),
            ("copy", one.copy, t.nfs.copy),
            ("stat", one.stat, t.nfs.stat),
            ("grep", one.grep, t.nfs.grep),
            ("compile", one.compile, t.nfs.compile),
        ] {
            assert!(kosha >= nfs, "{phase}: kosha-1 {kosha:?} < NFS {nfs:?}");
        }
        let first = overheads.first().unwrap().1;
        let last = overheads.last().unwrap().1;
        assert!(last >= first - 5.0, "overhead fell from {first} to {last}");
        assert!(t.render().contains("Total"));
    }

    #[test]
    fn table2_quick_shapes() {
        let t = Table2::run(true);
        let ovs = t.overheads_vs_level1();
        assert_eq!(ovs.len(), 3);
        for (level, ov) in &ovs {
            assert!(*ov > -15.0 && *ov < 150.0, "level {level} overhead {ov}%");
        }
        assert!(t.render().contains("level 1"));
    }

    #[test]
    fn fig5_quick_shapes() {
        let f = Fig5::run(1..=6, 3, 0.01);
        // Balance improves toward the per-file bound as the level grows.
        let first = f.rows.first().unwrap().1.files_std_pct;
        let last = f.rows.last().unwrap().1.files_std_pct;
        assert!(last < first, "std did not shrink: {first} -> {last}");
        assert!(f.per_file.files_std_pct <= first);
        assert!(f.render().contains("per-file"));
    }

    #[test]
    fn fig6_quick_shapes() {
        let f = Fig6::run(&[0, 4], 2, 0.01);
        let no = f.failure_at(0, 0.9).unwrap();
        let four = f.failure_at(4, 0.9).unwrap();
        assert!(four <= no, "4 redirects worse than none: {four} > {no}");
        assert!(f.render().contains("redirects"));
    }

    #[test]
    fn fig7_quick_shapes() {
        let p = AvailabilityParams {
            machines: 64,
            hours: 100,
            spike_hour: 70,
            ..Default::default()
        };
        let f = Fig7::run(p, 0.003, 1);
        let k0 = &f.series[0].1;
        let k3 = &f.series[3].1;
        assert!(k3.average > k0.average);
        assert!(k3.average > 99.0);
        assert!(f.render().contains("Kosha-3"));
    }
}
