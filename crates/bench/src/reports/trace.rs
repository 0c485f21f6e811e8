//! Deterministic causal-trace report over the paper's two hot paths:
//! replicated writes (the K-replica `call_many` fan-out) and cold deep-
//! path resolution. Each operation runs under a client root span on the
//! virtual clock; every NFS procedure, koshad loopback op, control call,
//! Pastry route, and replica RPC joins the same trace via the RPC wire
//! header. The collected span trees are reduced to per-op critical-path
//! breakdowns (parallel replica spans charged as their `max`, not their
//! sum) and folded stacks.
//!
//! Everything runs on seeded ids and the virtual clock, and the report
//! contains no raw span ids, so two runs emit byte-identical output; the
//! JSON summary is the `BENCH_trace.json` gate.

use crate::{default_cluster, take_spans, Report};
use kosha::KoshaConfig;
use kosha_obs::trace::{build_traces, folded_stacks, report_json, TraceTree};
use kosha_obs::SpanRecord;
use kosha_rpc::Network;

const NODES: usize = 8;
const REPLICAS: usize = 3;
const WRITE_OPS: usize = 6;
const WALK_DIR: &str = "/walk/a/b/c/d/e/f";

/// A trace whose replica fan-out ran in parallel: some span has >= 2
/// `rpc:replica` children sharing a start instant.
fn has_parallel_fanout(t: &TraceTree) -> bool {
    t.spans().iter().any(|parent| {
        let kids: Vec<&SpanRecord> = t
            .spans()
            .iter()
            .filter(|s| s.parent_id == parent.span_id && s.name == "rpc:replica")
            .collect();
        kids.len() >= 2 && kids.iter().all(|s| s.start_nanos == kids[0].start_nanos)
    })
}

/// Both traced workloads, their assertions, and the reduced traces.
pub fn run(_full: bool) -> Report {
    let mut cfg = KoshaConfig::for_tests();
    cfg.distribution_level = 1;
    cfg.replicas = REPLICAS;
    let c = default_cluster(&cfg, NODES);
    let m = c.mount(0);
    m.mkdir_p("/repl/data").expect("mkdir");
    m.mkdir_p(WALK_DIR).expect("mkdir walk");
    m.write_file(&format!("{WALK_DIR}/leaf"), b"payload")
        .expect("seed walk file");
    take_spans(&c); // discard setup noise

    let clock = c.net.clock();
    let client = c.nodes[0].addr().0;
    let tracer_root = |name: &str, f: &mut dyn FnMut()| {
        c.net.obs().tracer.root(name, client, || clock.now().0, f);
    };

    // Workload 1: K-replicated writes — the fig-5/fanout hot path.
    for i in 0..WRITE_OPS {
        let path = format!("/repl/data/f{i}.bin");
        tracer_root("write:replicated", &mut || {
            m.write_file(&path, &[i as u8; 4096]).expect("write");
        });
    }

    // Workload 2: cold deep-path resolution (§4.4 failover state): the
    // gateway holds handles but no cached locations.
    c.nodes[0].flush_caches();
    tracer_root("read:deep-cold", &mut || {
        assert_eq!(
            m.read_file(&format!("{WALK_DIR}/leaf")).expect("cold read"),
            b"payload"
        );
    });

    let traces = build_traces(take_spans(&c));
    assert_eq!(
        traces.len(),
        WRITE_OPS + 1,
        "expected one trace per traced operation"
    );
    for t in &traces {
        let accounted: u64 = t.critical_path().iter().map(|(_, n)| n).sum();
        assert_eq!(
            accounted,
            t.total_nanos(),
            "critical path must account for the whole root span"
        );
    }
    assert!(
        traces
            .iter()
            .filter(|t| t.root_span().name == "write:replicated")
            .all(has_parallel_fanout),
        "replicated writes should fan out to parallel replica RPCs"
    );

    let json = report_json(&traces);
    let (ops, stacks) = (traces.len(), folded_stacks(&traces));
    let text = format!(
        "==== causal trace report ====
cluster: {NODES} nodes, K={REPLICAS}; {ops} traced ops

folded stacks (span path -> self nanos):
{stacks}
{json}
"
    );
    Report {
        text,
        json: Some(json),
    }
}
