//! Cluster flight report: the analytics layer over the nodes' telemetry
//! and the transport's flight recorder, rendered as the `kosha-top` text
//! dashboard and as a JSON snapshot for benches.
//!
//! The report is assembled from already-collected state only — node
//! registries, journals, and read-heat trackers, plus the transport's
//! own observability domain. Building it issues no RPCs and
//! takes no node locks beyond the metric/journal mutexes, so it is safe
//! to render at any point of a simulation. Given a deterministic
//! transport (SimNetwork with a fixed seed) both renderings are
//! byte-identical across runs, which CI enforces.

use crate::audit::AuditReport;
use crate::node::KoshaNode;
use kosha_obs::json::Value;
use kosha_obs::recorder::{load_skew_x1000, slo_burn_x1000};
use kosha_obs::{obj, HeatEntry, Obs};
use std::collections::BTreeMap;
use std::sync::Arc;

/// How many heavy-hitter objects the report lists.
const TOP_N: usize = 5;
/// Latency SLO in nanoseconds (2 ms), applied to [`SLO_SERIES`].
const SLO_NANOS: u64 = 2_000_000;
/// The transport-recorder series the SLO burn is computed from: the
/// p99 latency of the koshad loopback service.
const SLO_SERIES: &str = "rpc_latency_nanos{service=\"koshafs\"}:p99";

/// One node's row in the dashboard.
#[derive(Debug, Clone)]
pub struct NodeRow {
    /// Transport address.
    pub addr: u64,
    /// `/kosha` operations served by this koshad.
    pub fs_ops: u64,
    /// Real NFS store operations executed on this node (its share of
    /// cluster load: primaries and replica holders do this work).
    pub store_ops: u64,
    /// READs this node served from a replica instead of the primary.
    pub replica_reads: u64,
    /// Heat-driven cached copies this node currently has outstanding as
    /// a primary (DESIGN.md §16; the `kosha_hot_copies` gauge).
    pub hot_copies: i64,
    /// Write-behind ops currently queued.
    pub wb_depth: i64,
    /// Coalesce ratio ×1000 (coalesced ops / enqueued ops).
    pub wb_coalesce_x1000: u64,
    /// Current distinct leaf-set membership.
    pub leaf_size: i64,
    /// Journal events retained / dropped.
    pub journal_len: usize,
    /// Journal events evicted by the ring.
    pub journal_dropped: u64,
}

/// The assembled cluster report.
#[derive(Debug, Clone)]
pub struct FlightReport {
    /// Virtual (or wall) time the report was taken at.
    pub now_nanos: u64,
    /// Per-node rows, address order.
    pub rows: Vec<NodeRow>,
    /// Store-load skew across nodes: max/mean ×1000.
    pub skew_max_over_mean_x1000: u64,
    /// Store-load Gini coefficient ×1000.
    pub skew_gini_x1000: u64,
    /// Cluster-wide heavy hitters (heat merged across nodes by key).
    pub heat: Vec<HeatEntry>,
    /// Hot-copy read scaling totals across nodes: `(outstanding copies,
    /// pushes, drops, lease invalidations)` — all zero with the feature
    /// off (DESIGN.md §16).
    pub hot: (u64, u64, u64, u64),
    /// `(burn ×1000, points over SLO, points total)` from the transport
    /// latency series; all zero when the series does not exist.
    pub slo: (u64, u64, u64),
    /// Replica-lag journal events across nodes, and the age of the
    /// oldest one still retained (`now - t_event`).
    pub lag_events: u64,
    /// Age in nanoseconds of the oldest retained lag event (0 if none).
    pub lag_max_age_nanos: u64,
    /// Summed telemetry-loss counters across node + transport domains:
    /// `(journal_dropped, trace_dropped, recorder_dropped, downsamples)`.
    pub telemetry_drops: (u64, u64, u64, u64),
    /// Live series across all domains.
    pub total_series: usize,
    /// Worst-case recorder payload bytes across all domains.
    pub memory_ceiling_bytes: usize,
    /// Anti-entropy audit results, when an audit pass was attached via
    /// [`FlightReport::attach_audit`]. `None` keeps the report (and its
    /// rendering) identical to pre-observatory output.
    pub audit: Option<AuditReport>,
}

/// Sums every `nfs_server_ops_total{proc=...}` counter in a registry.
fn store_ops(obs: &Obs) -> u64 {
    obs.registry
        .names()
        .iter()
        .filter(|n| n.starts_with("nfs_server_ops_total{"))
        .map(|n| obs.registry.counter(n).get())
        .sum()
}

/// Assembles the report at `now_nanos` from the nodes' and (optionally)
/// the transport's observability domains.
#[must_use]
pub fn cluster_flight(
    transport: Option<&Obs>,
    nodes: &[&KoshaNode],
    now_nanos: u64,
) -> FlightReport {
    let mut rows = Vec::with_capacity(nodes.len());
    let mut heat_merge: BTreeMap<String, (u64, u64)> = BTreeMap::new();
    let mut lag_events = 0u64;
    let mut lag_max_age = 0u64;
    let mut drops = (0u64, 0u64, 0u64, 0u64);
    let mut hot = (0u64, 0u64, 0u64, 0u64);
    let mut total_series = 0usize;
    let mut mem = 0usize;

    let mut domains: Vec<Arc<Obs>> = Vec::new();
    for node in nodes {
        let obs = node.obs();
        let stats = node.stats();
        let enq = stats.writeback_enqueued;
        let coal = stats.writeback_coalesced_ops;
        let hot_copies = obs.registry.gauge("kosha_hot_copies").get();
        hot.0 += hot_copies.max(0) as u64;
        hot.1 += stats.hot_pushes;
        hot.2 += stats.hot_drops;
        hot.3 += stats.hot_lease_invalidations;
        rows.push(NodeRow {
            addr: node.addr().0,
            fs_ops: stats.fs_ops,
            store_ops: store_ops(&obs),
            replica_reads: stats.replica_reads,
            hot_copies,
            wb_depth: obs.registry.gauge("kosha_writeback_queue_depth").get(),
            wb_coalesce_x1000: (coal * 1000).checked_div(enq).unwrap_or(0),
            leaf_size: obs.registry.gauge("pastry_leaf_set_size").get(),
            journal_len: obs.journal.len(),
            journal_dropped: obs.journal.dropped(),
        });
        for e in node.heat.top(TOP_N, now_nanos) {
            let slot = heat_merge.entry(e.key).or_insert((0, 0));
            slot.0 += e.heat_milli;
            slot.1 += e.err_milli;
        }
        for ev in obs.journal.of_kind("replica_lag") {
            lag_events += 1;
            lag_max_age = lag_max_age.max(now_nanos.saturating_sub(ev.t_nanos));
        }
        domains.push(obs);
    }
    rows.sort_by_key(|r| r.addr);

    if let Some(t) = transport {
        // The transport domain is not Arc-shared here; account it inline.
        drops.0 += t.journal.dropped();
        drops.1 += t.tracer.dropped();
        drops.2 += t.recorder.dropped();
        drops.3 += t.recorder.downsamples();
        total_series += t.recorder.series_count();
        mem += t.recorder.memory_ceiling_bytes();
    }
    for obs in &domains {
        drops.0 += obs.journal.dropped();
        drops.1 += obs.tracer.dropped();
        drops.2 += obs.recorder.dropped();
        drops.3 += obs.recorder.downsamples();
        total_series += obs.recorder.series_count();
        mem += obs.recorder.memory_ceiling_bytes();
    }

    let loads: Vec<u64> = rows.iter().map(|r| r.store_ops).collect();
    let (skew, gini) = load_skew_x1000(&loads);

    let mut heat: Vec<HeatEntry> = heat_merge
        .into_iter()
        .map(|(key, (heat_milli, err_milli))| HeatEntry {
            key,
            heat_milli,
            err_milli,
        })
        .collect();
    heat.sort_by(|a, b| {
        b.heat_milli
            .cmp(&a.heat_milli)
            .then_with(|| a.key.cmp(&b.key))
    });
    heat.truncate(TOP_N);

    let slo = transport
        .and_then(|t| t.recorder.series(SLO_SERIES))
        .map(|pts| slo_burn_x1000(&pts, SLO_NANOS))
        .unwrap_or((0, 0, 0));

    FlightReport {
        now_nanos,
        rows,
        skew_max_over_mean_x1000: skew,
        skew_gini_x1000: gini,
        heat,
        hot,
        slo,
        lag_events,
        lag_max_age_nanos: lag_max_age,
        telemetry_drops: drops,
        total_series,
        memory_ceiling_bytes: mem,
        audit: None,
    }
}

/// `1234` → `"1.234"` (milli-unit fixed point, always three decimals).
fn fmt_milli(v: u64) -> String {
    format!("{}.{:03}", v / 1000, v % 1000)
}

impl FlightReport {
    /// Attaches the result of an [`crate::audit_cluster`] pass taken at
    /// (roughly) the same instant; `render` and `json` then include
    /// the consistency-observatory panel.
    pub fn attach_audit(&mut self, audit: AuditReport) {
        self.audit = Some(audit);
    }

    /// The `kosha-top` text dashboard. Deterministic given deterministic
    /// inputs: fixed column set, address-sorted rows, integer math only.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "KOSHA-TOP  t={}ns  nodes={}\n",
            self.now_nanos,
            self.rows.len()
        ));
        out.push_str(&format!(
            "load skew: max/mean {}x  gini {}  |  slo burn {} ({}/{} over)\n",
            fmt_milli(self.skew_max_over_mean_x1000),
            fmt_milli(self.skew_gini_x1000),
            fmt_milli(self.slo.0),
            self.slo.1,
            self.slo.2,
        ));
        out.push_str(&format!(
            "replica lag: {} event(s), max age {}ns\n",
            self.lag_events, self.lag_max_age_nanos
        ));
        out.push('\n');
        out.push_str(
            "NODE      FSOPS   STOREOPS  REPL.RD  HOT  WB.Q  COAL   LEAF  J.LEN  J.DROP\n",
        );
        for r in &self.rows {
            out.push_str(&format!(
                "n{:<8} {:<7} {:<9} {:<8} {:<4} {:<5} {:<6} {:<5} {:<6} {}\n",
                r.addr,
                r.fs_ops,
                r.store_ops,
                r.replica_reads,
                r.hot_copies,
                r.wb_depth,
                fmt_milli(r.wb_coalesce_x1000),
                r.leaf_size,
                r.journal_len,
                r.journal_dropped,
            ));
        }
        out.push('\n');
        out.push_str(&format!("HOT OBJECTS (top {})\n", self.heat.len()));
        for (i, e) in self.heat.iter().enumerate() {
            out.push_str(&format!(
                "{:>3}. {}  heat={}  err={}\n",
                i + 1,
                e.key,
                fmt_milli(e.heat_milli),
                fmt_milli(e.err_milli),
            ));
        }
        out.push_str(&format!(
            "hot copies: {} outstanding (pushes {}, drops {}, lease invalidations {})\n",
            self.hot.0, self.hot.1, self.hot.2, self.hot.3,
        ));
        out.push('\n');
        out.push_str(&format!(
            "telemetry: journal_drops={} trace_drops={} recorder_drops={} \
             downsamples={} series={} mem_ceiling={}B\n",
            self.telemetry_drops.0,
            self.telemetry_drops.1,
            self.telemetry_drops.2,
            self.telemetry_drops.3,
            self.total_series,
            self.memory_ceiling_bytes,
        ));
        if let Some(audit) = &self.audit {
            out.push('\n');
            out.push_str(&audit.render());
        }
        out
    }

    /// The report as a JSON object.
    #[must_use]
    pub fn json(&self) -> Value {
        let nodes = self.rows.iter().map(|r| {
            obj! {
                "addr": r.addr,
                "fs_ops": r.fs_ops,
                "store_ops": r.store_ops,
                "replica_reads": r.replica_reads,
                "hot_copies": r.hot_copies,
                "wb_depth": r.wb_depth,
                "wb_coalesce_x1000": r.wb_coalesce_x1000,
                "leaf_size": r.leaf_size,
                "journal_len": r.journal_len,
                "journal_dropped": r.journal_dropped,
            }
        });
        let (hot, drops) = (self.hot, self.telemetry_drops);
        let mut out = obj! {
            "t_nanos": self.now_nanos,
            "skew": obj! {
                "max_over_mean_x1000": self.skew_max_over_mean_x1000,
                "gini_x1000": self.skew_gini_x1000,
            },
            "slo": obj! {"burn_x1000": self.slo.0, "over": self.slo.1, "total": self.slo.2},
            "replica_lag": obj! {
                "events": self.lag_events,
                "max_age_nanos": self.lag_max_age_nanos,
            },
            "nodes": Value::Array(nodes.collect()),
            "heat_top": Value::Array(self.heat.iter().map(HeatEntry::json).collect()),
            "hot": obj! {
                "copies": hot.0, "pushes": hot.1, "drops": hot.2, "lease_invalidations": hot.3,
            },
            "telemetry": obj! {
                "journal_drops": drops.0,
                "trace_drops": drops.1,
                "recorder_drops": drops.2,
                "downsamples": drops.3,
                "series": self.total_series,
                "memory_ceiling_bytes": self.memory_ceiling_bytes,
            },
        };
        if let (Some(audit), Value::Object(members)) = (&self.audit, &mut out) {
            members.push(("audit".to_string(), audit.json()));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::KoshaConfig;
    use crate::mount::KoshaMount;
    use kosha_id::node_id_from_seed;
    use kosha_rpc::{Network, NodeAddr, SimNetwork};

    fn build_cluster(n: usize) -> (Arc<SimNetwork>, Vec<Arc<KoshaNode>>) {
        let net = SimNetwork::new_zero_latency();
        let mut nodes = Vec::new();
        for i in 0..n {
            let addr = NodeAddr(i as u64 + 1);
            let id = node_id_from_seed(&format!("kosha-host-{i}"));
            let mut cfg = KoshaConfig::for_tests();
            cfg.distribution_level = 1;
            cfg.read_from = crate::ReadFrom::Replicas { hot_copies: 0 };
            let (node, mux) = KoshaNode::build(cfg, id, addr, net.clone() as _);
            net.attach(addr, mux);
            node.join(if i == 0 { None } else { Some(NodeAddr(1)) })
                .expect("join");
            nodes.push(node);
        }
        (net, nodes)
    }

    #[test]
    fn flight_report_is_deterministic_and_complete() {
        let run = || {
            let (net, nodes) = build_cluster(4);
            let mount = KoshaMount::new(net.clone() as _, NodeAddr(1), NodeAddr(1)).expect("mount");
            mount.mkdir_p("/kosha/proj").expect("mkdir");
            for i in 0..6 {
                mount
                    .write_file(&format!("/kosha/proj/f{i}"), &[7u8; 256])
                    .expect("write");
            }
            for _ in 0..10 {
                mount.read_file("/kosha/proj/f0").expect("read hot");
            }
            mount.read_file("/kosha/proj/f1").expect("read cold");
            net.run_pumps();
            let refs: Vec<&KoshaNode> = nodes.iter().map(|n| n.as_ref()).collect();
            let report = cluster_flight(Some(&net.obs()), &refs, net.clock().now().0);
            (report.render(), report.json().to_string())
        };
        let (text1, json1) = run();
        let (text2, json2) = run();
        assert_eq!(text1, text2, "kosha-top text must be deterministic");
        assert_eq!(json1, json2);
        // The hottest object is the repeatedly-read file.
        assert!(text1.contains("  1. /kosha/proj/f0"), "{text1}");
        assert!(json1.contains("\"key\": \"/kosha/proj/f0\""));
        // Hot-copy read scaling is off in for_tests() config, so the
        // panel and JSON report the feature as all-zero.
        assert!(text1.contains("hot copies: 0 outstanding"), "{text1}");
        assert!(json1.contains(
            "\"hot\": {\"copies\": 0, \"pushes\": 0, \"drops\": 0, \
             \"lease_invalidations\": 0}"
        ));
        // Rows exist for every node, and the transport recorded its one
        // p99 series per service.
        assert_eq!(text1.matches("\nn").count(), 4, "{text1}");
        let series = format!("\"series\": {},", kosha_rpc::ServiceId::ALL.len());
        assert!(json1.contains(&series), "{json1}");
        // Store load is spread over more than one node at level 1
        // distribution, so skew is finite and gini is below 1.
        let report_line = text1.lines().nth(1).unwrap().to_string();
        assert!(report_line.contains("load skew"), "{report_line}");
    }

    #[test]
    fn a_hot_file_name_with_quotes_and_control_characters_is_escaped_in_the_json() {
        let (net, nodes) = build_cluster(3);
        let mount = KoshaMount::new(net.clone() as _, NodeAddr(1), NodeAddr(1)).expect("mount");
        mount.mkdir_p("/kosha/proj").expect("mkdir");
        let path = "/kosha/proj/q\"b\\s\tc\u{1}";
        mount.write_file(path, b"hot").expect("write");
        for _ in 0..10 {
            mount.read_file(path).expect("read hot");
        }
        net.run_pumps();
        let refs: Vec<&KoshaNode> = nodes.iter().map(|n| n.as_ref()).collect();
        let now = net.clock().now().0;
        let json = cluster_flight(Some(&net.obs()), &refs, now)
            .json()
            .to_string();
        assert!(
            json.contains(r#"{"key": "/kosha/proj/q\"b\\s\tc\u0001", "heat_milli": "#),
            "{json}"
        );
    }

    #[test]
    fn flight_report_includes_audit_panel_when_attached() {
        let (net, nodes) = build_cluster(3);
        let mount = KoshaMount::new(net.clone() as _, NodeAddr(1), NodeAddr(1)).expect("mount");
        mount.mkdir_p("/proj").expect("mkdir");
        mount.write_file("/proj/f", b"audited").expect("write");
        net.run_pumps();
        let refs: Vec<&KoshaNode> = nodes.iter().map(|n| n.as_ref()).collect();
        let now = net.clock().now().0;
        let mut report = cluster_flight(Some(&net.obs()), &refs, now);
        let plain = report.json().to_string();
        assert!(!plain.contains("\"audit\""), "audit absent until attached");

        let peers: Vec<NodeAddr> = nodes.iter().map(|n| n.addr()).collect();
        let audit = crate::audit::audit_cluster(
            net.as_ref(),
            NodeAddr(1),
            &peers,
            now,
            &crate::audit::AuditOptions::default(),
        );
        report.attach_audit(audit);
        let text = report.render();
        assert!(text.contains("AUDIT  t="), "{text}");
        let json = report.json().to_string();
        assert!(json.contains("\"audit\": {\"t_nanos\""), "{json}");
        assert!(json.ends_with("}\n}"), "{json}");
    }

    #[test]
    fn fmt_milli_is_fixed_point() {
        assert_eq!(fmt_milli(0), "0.000");
        assert_eq!(fmt_milli(1500), "1.500");
        assert_eq!(fmt_milli(12), "0.012");
    }
}
