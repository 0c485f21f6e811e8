//! Churn survival driver (DESIGN.md §15): replays an availability
//! trace against a **live** [`SimCluster`] — real koshad nodes, real
//! overlay, real replication — while a seeded mutation workload runs
//! through a `/kosha` mount, and measures what survives.
//!
//! This is the dynamic counterpart of the Figure 7 availability *model*
//! ([`crate::availability`]): instead of an analytic holder-set
//! simulation, machines actually crash ([`kosha_rpc::SimNetwork::fail_node`])
//! and return ([`kosha_rpc::SimNetwork::recover_node`], a fraction with
//! their disks wiped via [`kosha::KoshaNode::purge`], §4.3), write-behind
//! queues really drop batches, failover really promotes replicas, and
//! the consistency observatory ([`kosha::audit_cluster`]) is sampled on
//! a fixed cadence to produce the divergence-over-time series.
//!
//! Everything runs on the virtual clock with seeded randomness, so a
//! given [`ChurnParams`] always yields a byte-identical
//! [`ChurnReport::json`] — the `BENCH_churn.json` CI gate diffs
//! exactly that across double runs.

use crate::availability::{AvailabilityParams, AvailabilityTrace};
use crate::cluster::{ClusterParams, SimCluster};
use kosha::{audit_cluster, AuditOptions, KoshaConfig, ReadFrom, ReplicationMode};
use kosha_obs::json::Value;
use kosha_obs::obj;
use kosha_rpc::{Clock, LatencyModel, NodeAddr};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::time::Duration;

/// Parameters of one churn-survival run.
#[derive(Debug, Clone)]
pub struct ChurnParams {
    /// Cluster size (the trace is generated for exactly this many
    /// machines; node 0 is pinned up as bootstrap and mount gateway).
    pub nodes: usize,
    /// First trace hour to replay (lets a run center on the correlated
    /// failure spike without replaying 600 quiet hours).
    pub start_hour: usize,
    /// Trace hours replayed.
    pub hours: usize,
    /// Virtual time per trace hour. Write-behind flush windows (5 ms)
    /// and samplers tick inside it; it need not be a real hour.
    pub hour_virtual: Duration,
    /// Distinct top-level directories the workload mutates (each is an
    /// anchor at distribution level 1, placed on its own primary).
    pub dirs: usize,
    /// Files per directory the workload cycles through.
    pub files_per_dir: usize,
    /// Mutations attempted per replayed hour.
    pub writes_per_hour: usize,
    /// Audit-pass cadence in hours (also fires on the final hour).
    pub audit_every_hours: usize,
    /// Every Nth recovery comes back with a wiped disk (0 = never).
    pub purge_every_nth_recovery: usize,
    /// Replication factor K.
    pub replicas: usize,
    /// Seed for the trace, node ids, and the workload RNG.
    pub seed: u64,
}

impl Default for ChurnParams {
    fn default() -> Self {
        ChurnParams {
            nodes: 64,
            start_hour: 600,
            hours: 24,
            hour_virtual: Duration::from_millis(40),
            dirs: 8,
            files_per_dir: 4,
            writes_per_hour: 16,
            audit_every_hours: 4,
            purge_every_nth_recovery: 4,
            replicas: 2,
            seed: 7,
        }
    }
}

/// One replayed hour's availability window.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChurnWindow {
    /// Trace hour (absolute, so the spike hour is recognizable).
    pub hour: usize,
    /// Machines up during this hour.
    pub up_nodes: usize,
    /// Mutations attempted through the mount.
    pub attempted: u64,
    /// Mutations acknowledged by koshad.
    pub acked: u64,
}

/// One audit-pass sample in the divergence-over-time series.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DivergencePoint {
    /// Trace hour the pass ran at.
    pub hour: usize,
    /// Objects whose replica digests disagreed with the primary.
    pub objects_divergent: u64,
    /// Bytes at risk in those objects.
    pub bytes_divergent: u64,
    /// Objects below the configured K.
    pub under_replicated: u64,
    /// Replica slots cluster-wide whose record carries write-behind lag.
    pub lag_markers: u64,
    /// Nodes the audit could not reach (crashed).
    pub nodes_unreachable: u64,
}

/// Everything a churn run measured.
#[derive(Debug, Clone)]
pub struct ChurnReport {
    /// Cluster size.
    pub nodes: usize,
    /// Hours replayed.
    pub hours: usize,
    /// Replication factor K.
    pub replicas: usize,
    /// Per-hour availability windows.
    pub windows: Vec<ChurnWindow>,
    /// Divergence-over-time from the periodic audit passes.
    pub divergence: Vec<DivergencePoint>,
    /// Peak of `objects_divergent` over the series.
    pub peak_objects_divergent: u64,
    /// Peak of `bytes_divergent` over the series.
    pub peak_bytes_divergent: u64,
    /// Total mutations attempted / acked across all hours.
    pub mutations_attempted: u64,
    /// Mutations koshad acknowledged.
    pub mutations_acked: u64,
    /// Acked mutations whose effect was readable after final repair.
    pub mutations_survived: u64,
    /// Acked mutations lost to churn (write-behind windows dropped with
    /// their primary, promotions of lagging replicas).
    pub mutations_lost: u64,
    /// Workload objects checked in the final read-back.
    pub objects_total: u64,
    /// Objects whose final content matched no acked write (or were
    /// unreadable even after repair).
    pub objects_lost: u64,
    /// `objects_divergent` after the final repair + audit pass.
    pub final_objects_divergent: u64,
    /// `under_replicated` after the final repair + audit pass.
    pub final_under_replicated: u64,
    /// Copies above K after repair (stale ex-holders churn left behind
    /// — exactly the kind of residue the observatory exists to surface).
    pub final_over_replicated: u64,
    /// Replica slots with no primary after repair.
    pub final_orphaned: u64,
    /// Slots claimed by more than one primary after repair.
    pub final_duplicate_primaries: u64,
    /// Replica slots whose record still carries lag after repair.
    pub final_lag_markers: u64,
    /// RPC calls spent in the final repair phase.
    pub repair_rpc_calls: u64,
    /// RPC bytes moved in the final repair phase.
    pub repair_rpc_bytes: u64,
    /// Final-repair bytes by service, name-sorted.
    pub repair_bytes_by_service: Vec<(String, u64)>,
    /// Full replica-tree pushes over the whole run (repair traffic).
    pub replica_pushes: u64,
    /// Replica promotions over the whole run.
    pub promotions: u64,
    /// Client failovers over the whole run.
    pub failovers: u64,
    /// Recoveries that came back with a purged disk.
    pub purged_recoveries: u64,
    /// Virtual time the whole run spanned.
    pub virtual_elapsed_nanos: u64,
}

/// Sums `rpc_{what}_total{service=...}` counters on the transport,
/// per-service, name-sorted.
fn rpc_totals(net: &kosha_rpc::SimNetwork, what: &str) -> BTreeMap<String, u64> {
    let prefix = format!("rpc_{what}_total{{service=");
    let obs = net.obs();
    let mut out = BTreeMap::new();
    for name in obs.registry.names() {
        if let Some(rest) = name.strip_prefix(&prefix) {
            let service = rest
                .trim_start_matches('"')
                .trim_end_matches("\"}")
                .to_string();
            out.insert(service, obs.registry.counter(&name).get());
        }
    }
    out
}

fn sum_deltas(before: &BTreeMap<String, u64>, after: &BTreeMap<String, u64>) -> u64 {
    after
        .iter()
        .map(|(k, v)| v - before.get(k).copied().unwrap_or(0))
        .sum()
}

/// Runs the churn survival experiment.
///
/// Shape of one replayed hour:
/// 1. apply the trace's up/down transitions (node 0 pinned up) —
///    crashes keep their disks; every Nth recovery purges first;
/// 2. run maintenance on recovered nodes and on every live node hosting
///    an anchor (the paper's background daemon activity);
/// 3. half the hour of virtual time passes (flush pumps tick);
/// 4. the workload attempts its seeded mutations through the gateway;
/// 5. the other half passes;
/// 6. on the audit cadence, an [`audit_cluster`] pass over the live
///    nodes records a [`DivergencePoint`].
///
/// Afterwards everything is recovered, repaired (maintain + flush +
/// settle, with the RPC counters bracketing the phase), audited one
/// last time, and every workload object read back against the acked
/// write history to classify mutations as survived or lost.
#[must_use]
#[allow(clippy::too_many_lines)]
pub fn run_churn(p: &ChurnParams) -> ChurnReport {
    let mut kosha = KoshaConfig::for_tests();
    kosha.distribution_level = 1;
    kosha.replicas = p.replicas;
    kosha.read_from = ReadFrom::Replicas { hot_copies: 0 };
    kosha.replication_mode = ReplicationMode::WriteBehind { queue_ops: 64 };
    let cluster = SimCluster::build(&ClusterParams {
        nodes: p.nodes,
        kosha,
        latency: LatencyModel::zero(),
        seed: p.seed,
    });
    let net = &cluster.net;
    let start_t = cluster.clock().now().0;

    let trace = AvailabilityTrace::generate(&AvailabilityParams {
        machines: p.nodes,
        hours: p.start_hour + p.hours,
        seed: p.seed,
        ..AvailabilityParams::default()
    });

    let mount = cluster.mount(0);
    let mut paths = Vec::new();
    for d in 0..p.dirs {
        mount.mkdir_p(&format!("/churn{d}")).expect("workload dir");
        for f in 0..p.files_per_dir {
            paths.push(format!("/churn{d}/f{f}"));
        }
    }
    cluster.run_for(p.hour_virtual);

    // Acked-write history per path: survival is judged against it after
    // the final repair. Content encodes (hour, write#) so any surviving
    // state identifies exactly which acked write it came from.
    let mut history: BTreeMap<String, Vec<Vec<u8>>> = BTreeMap::new();
    let mut rng = StdRng::seed_from_u64(p.seed ^ 0xC0FF_EE00);
    let mut up: Vec<bool> = vec![true; p.nodes];
    let mut recoveries = 0u64;
    let mut purged_recoveries = 0u64;
    let mut windows = Vec::with_capacity(p.hours);
    let mut divergence: Vec<DivergencePoint> = Vec::new();
    let mut attempted_total = 0u64;
    let mut acked_total = 0u64;

    let audit_pass = |up: &[bool]| -> (kosha::AuditReport, u64) {
        let peers: Vec<NodeAddr> = cluster
            .nodes
            .iter()
            .enumerate()
            .filter(|&(i, _)| up[i])
            .map(|(_, n)| n.addr())
            .collect();
        let down = (p.nodes - peers.len()) as u64;
        let report = audit_cluster(
            net.as_ref(),
            cluster.nodes[0].addr(),
            &peers,
            cluster.clock().now().0,
            &AuditOptions {
                replicas: p.replicas,
                max_examples: 4,
            },
        );
        (report, down)
    };
    let point = |report: &kosha::AuditReport, down: u64, hour: usize| DivergencePoint {
        hour,
        objects_divergent: report.objects_divergent,
        bytes_divergent: report.bytes_divergent,
        under_replicated: report.under_replicated,
        lag_markers: report.lag_markers,
        nodes_unreachable: report.nodes_unreachable + down,
    };

    for h in 0..p.hours {
        let hour = p.start_hour + h;
        let target = &trace.up[hour];
        let mut recovered: Vec<usize> = Vec::new();
        for i in 1..p.nodes {
            // Node 0 stays up: it bootstraps the overlay and fronts the
            // workload mount.
            let want = target[i];
            if up[i] && !want {
                net.fail_node(cluster.nodes[i].addr());
                up[i] = false;
            } else if !up[i] && want {
                recoveries += 1;
                if p.purge_every_nth_recovery != 0
                    && recoveries.is_multiple_of(p.purge_every_nth_recovery as u64)
                {
                    // Disk loss: the machine rejoins empty (§4.3).
                    cluster.nodes[i].purge();
                    purged_recoveries += 1;
                }
                net.recover_node(cluster.nodes[i].addr());
                up[i] = true;
                recovered.push(i);
            }
        }
        for &i in &recovered {
            cluster.nodes[i].maintain();
        }
        for (i, node) in cluster.nodes.iter().enumerate() {
            if up[i] && !node.hosted_anchors().is_empty() {
                node.maintain();
            }
        }
        cluster.run_for(p.hour_virtual / 2);

        let mut acked = 0u64;
        for _ in 0..p.writes_per_hour {
            let path = &paths[rng.random_range(0..paths.len())];
            let fill = rng.random::<u8>();
            let mut content = format!("h{h} {fill:03} ").into_bytes();
            content.extend(std::iter::repeat_n(fill, 64));
            if mount.write_file(path, &content).is_ok() {
                acked += 1;
                history.entry(path.clone()).or_default().push(content);
            }
        }
        attempted_total += p.writes_per_hour as u64;
        acked_total += acked;
        cluster.run_for(p.hour_virtual / 2);

        windows.push(ChurnWindow {
            hour,
            up_nodes: up.iter().filter(|&&b| b).count(),
            attempted: p.writes_per_hour as u64,
            acked,
        });
        if h % p.audit_every_hours == p.audit_every_hours - 1 || h == p.hours - 1 {
            let (report, down) = audit_pass(&up);
            divergence.push(point(&report, down, hour));
        }
    }

    // Final repair: bring every machine back, run maintenance to
    // completion, force flush barriers, and let the cluster settle. The
    // RPC counters bracket the phase so its cost is attributable.
    let calls_before = rpc_totals(net, "calls");
    let bytes_before = rpc_totals(net, "bytes");
    for (i, node) in cluster.nodes.iter().enumerate() {
        if !up[i] {
            net.recover_node(node.addr());
            up[i] = true;
        }
    }
    for _ in 0..2 {
        for node in &cluster.nodes {
            node.maintain();
        }
        for node in &cluster.nodes {
            node.flush_replication();
        }
        cluster.run_for(p.hour_virtual);
    }
    let calls_after = rpc_totals(net, "calls");
    let bytes_after = rpc_totals(net, "bytes");
    let repair_bytes_by_service: Vec<(String, u64)> = bytes_after
        .iter()
        .map(|(k, v)| (k.clone(), v - bytes_before.get(k).copied().unwrap_or(0)))
        .collect();

    let (final_audit, _) = audit_pass(&up);

    // Survival read-back: an object survived if its final content is
    // some acked write; every acked write up to (and including) that one
    // did its job, everything after it was lost.
    let mut survived = 0u64;
    let mut lost = 0u64;
    let mut objects_lost = 0u64;
    for (path, writes) in &history {
        let last_match = mount
            .read_file(path)
            .ok()
            .and_then(|got| writes.iter().rposition(|w| got == *w));
        match last_match {
            Some(idx) => {
                survived += (idx + 1) as u64;
                lost += (writes.len() - idx - 1) as u64;
            }
            None => {
                lost += writes.len() as u64;
                objects_lost += 1;
            }
        }
    }

    let mut report = ChurnReport {
        nodes: p.nodes,
        hours: p.hours,
        replicas: p.replicas,
        peak_objects_divergent: divergence
            .iter()
            .map(|d| d.objects_divergent)
            .max()
            .unwrap_or(0),
        peak_bytes_divergent: divergence
            .iter()
            .map(|d| d.bytes_divergent)
            .max()
            .unwrap_or(0),
        windows,
        divergence,
        mutations_attempted: attempted_total,
        mutations_acked: acked_total,
        mutations_survived: survived,
        mutations_lost: lost,
        objects_total: history.len() as u64,
        objects_lost,
        final_objects_divergent: final_audit.objects_divergent,
        final_under_replicated: final_audit.under_replicated,
        final_over_replicated: final_audit.over_replicated,
        final_orphaned: final_audit.orphaned_replicas,
        final_duplicate_primaries: final_audit.duplicate_primaries,
        final_lag_markers: final_audit.lag_markers,
        repair_rpc_calls: sum_deltas(&calls_before, &calls_after),
        repair_rpc_bytes: sum_deltas(&bytes_before, &bytes_after),
        repair_bytes_by_service,
        replica_pushes: 0,
        promotions: 0,
        failovers: 0,
        purged_recoveries,
        virtual_elapsed_nanos: cluster.clock().now().0 - start_t,
    };
    for node in &cluster.nodes {
        let s = node.stats();
        report.replica_pushes += s.replica_pushes;
        report.promotions += s.promotions;
        report.failovers += s.failovers;
        // Every crash, purge, promotion, transfer and GC of the run moved
        // slots: each one's record must have moved with it.
        let odd = node.slot_mismatches();
        assert!(odd.is_empty(), "node {}: {odd:?}", node.addr());
    }
    report
}

impl ChurnReport {
    /// The report as a JSON object; byte-identical across runs with
    /// equal params.
    #[must_use]
    pub fn json(&self) -> Value {
        let by_service = self
            .repair_bytes_by_service
            .iter()
            .map(|(svc, bytes)| (svc.clone(), Value::from(*bytes)));
        let windows = self.windows.iter().map(|w| {
            obj! {
                "hour": w.hour, "up_nodes": w.up_nodes, "attempted": w.attempted, "acked": w.acked,
            }
        });
        let divergence = self.divergence.iter().map(|d| {
            obj! {
                "hour": d.hour, "objects_divergent": d.objects_divergent,
                "bytes_divergent": d.bytes_divergent, "under_replicated": d.under_replicated,
                "lag_markers": d.lag_markers, "nodes_unreachable": d.nodes_unreachable,
            }
        });
        obj! {
            "cluster": obj! {"nodes": self.nodes, "hours": self.hours, "replicas": self.replicas},
            "mutations": obj! {
                "attempted": self.mutations_attempted, "acked": self.mutations_acked,
                "survived": self.mutations_survived, "lost": self.mutations_lost,
            },
            "objects": obj! {"total": self.objects_total, "lost": self.objects_lost},
            "divergence_peak": obj! {
                "objects": self.peak_objects_divergent,
                "bytes": self.peak_bytes_divergent,
            },
            "final": obj! {
                "objects_divergent": self.final_objects_divergent,
                "under_replicated": self.final_under_replicated,
                "over_replicated": self.final_over_replicated, "orphaned": self.final_orphaned,
                "duplicate_primaries": self.final_duplicate_primaries,
                "lag_markers": self.final_lag_markers,
            },
            "repair": obj! {
                "rpc_calls": self.repair_rpc_calls, "rpc_bytes": self.repair_rpc_bytes,
                "replica_pushes": self.replica_pushes, "promotions": self.promotions,
                "failovers": self.failovers, "purged_recoveries": self.purged_recoveries,
            },
            "repair_bytes_by_service": Value::Object(by_service.collect()),
            "windows": Value::Array(windows.collect()),
            "divergence_series": Value::Array(divergence.collect()),
            "virtual_elapsed_nanos": self.virtual_elapsed_nanos,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_params() -> ChurnParams {
        ChurnParams {
            nodes: 12,
            start_hour: 610,
            hours: 8,
            hour_virtual: Duration::from_millis(30),
            dirs: 3,
            files_per_dir: 2,
            writes_per_hour: 6,
            audit_every_hours: 2,
            purge_every_nth_recovery: 2,
            replicas: 2,
            seed: 11,
        }
    }

    #[test]
    fn churn_run_accounts_for_every_mutation() {
        let p = small_params();
        let r = run_churn(&p);
        assert_eq!(r.windows.len(), p.hours);
        assert_eq!(r.mutations_attempted, (p.hours * p.writes_per_hour) as u64);
        assert!(r.mutations_acked <= r.mutations_attempted);
        assert_eq!(
            r.mutations_survived + r.mutations_lost,
            r.mutations_acked,
            "every acked mutation is classified: {r:?}"
        );
        assert!(!r.divergence.is_empty());
        assert!(
            r.peak_objects_divergent >= r.final_objects_divergent,
            "peak below final: {r:?}"
        );
        assert!(r.repair_rpc_calls > 0, "repair phase issued no RPCs");
    }

    #[test]
    fn churn_report_is_deterministic() {
        let p = small_params();
        let a = run_churn(&p).json().to_string();
        let b = run_churn(&p).json().to_string();
        assert_eq!(a, b, "same params must produce byte-identical reports");
    }

    #[test]
    fn quiet_cluster_loses_nothing() {
        // A window with no churn (all machines up the whole time): every
        // acked mutation must survive and the final audit must be clean.
        let p = ChurnParams {
            nodes: 8,
            start_hour: 0,
            hours: 4,
            purge_every_nth_recovery: 0,
            seed: 3,
            ..small_params()
        };
        // Hour 0..4 of the trace can still contain down machines; force
        // a custom run by retrying seeds is flaky — instead just assert
        // the accounting invariants and that repair converges.
        let r = run_churn(&p);
        assert_eq!(r.final_objects_divergent, 0, "repair must converge: {r:?}");
        assert_eq!(r.objects_lost, 0, "{r:?}");
    }
}
