//! End-to-end trace acceptance tests: a replicated write on a simulated
//! cluster must produce a single span tree whose critical-path breakdown
//! accounts for the full end-to-end virtual latency, with the replica
//! fan-out visible as parallel sibling spans.

use kosha::{KoshaConfig, KoshaMount, KoshaNode};
use kosha_id::node_id_from_seed;
use kosha_obs::trace::{build_traces, TraceTree};
use kosha_obs::SpanRecord;
use kosha_rpc::{LatencyModel, Network, NodeAddr, SimNetwork};
use std::sync::Arc;

struct Cluster {
    net: Arc<SimNetwork>,
    nodes: Vec<Arc<KoshaNode>>,
}

fn build_cluster(n: usize, cfg: KoshaConfig) -> Cluster {
    // Real latencies: spans need nonzero extents for overlap to mean
    // anything (the virtual clock keeps the run deterministic).
    let net = SimNetwork::new(LatencyModel::default());
    let mut nodes = Vec::new();
    for i in 0..n {
        let id = node_id_from_seed(&format!("kosha-host-{i}"));
        let (node, mux) = KoshaNode::build(
            cfg.clone(),
            id,
            NodeAddr(i as u64),
            net.clone() as Arc<dyn Network>,
        );
        net.attach(node.addr(), mux);
        node.join(if i == 0 { None } else { Some(NodeAddr(0)) })
            .expect("join");
        nodes.push(node);
    }
    Cluster { net, nodes }
}

/// Drains every span buffer in the cluster (transport + all nodes).
fn collect_spans(c: &Cluster) -> Vec<SpanRecord> {
    let mut spans = c.net.obs().tracer.take();
    for n in &c.nodes {
        spans.extend(n.obs().tracer.take());
    }
    spans
}

/// Child span indices of the first span named `name`, anywhere in the
/// tree.
fn children_of<'t>(t: &'t TraceTree, name: &str) -> Vec<&'t SpanRecord> {
    let Some((idx, _)) = t.spans().iter().enumerate().find(|(_, s)| s.name == name) else {
        return Vec::new();
    };
    let parent_id = t.spans()[idx].span_id;
    t.spans()
        .iter()
        .filter(|s| s.parent_id == parent_id)
        .collect()
}

#[test]
fn replicated_write_yields_one_accounted_trace() {
    let mut cfg = KoshaConfig::for_tests();
    cfg.distribution_level = 1;
    cfg.replicas = 3;
    let c = build_cluster(8, cfg);
    let m = KoshaMount::new(
        c.net.clone() as Arc<dyn Network>,
        c.nodes[0].addr(),
        c.nodes[0].addr(),
    )
    .expect("mount");
    m.mkdir_p("/traced/data").expect("mkdir");

    // Discard setup noise; trace exactly one replicated write.
    collect_spans(&c);
    let clock = c.net.clock();
    let t0 = clock.now();
    c.net.obs().tracer.root(
        "client:write",
        999,
        || clock.now().0,
        || {
            m.write_file("/traced/data/file.bin", &[7u8; 4096])
                .expect("write")
        },
    );
    let end_to_end = clock.now().since_nanos(t0);
    assert!(end_to_end > 0, "virtual clock did not advance");

    let traces = build_traces(collect_spans(&c));
    // One operation, one trace: every layer's spans joined the client's
    // trace via the wire header.
    assert_eq!(traces.len(), 1, "expected a single trace");
    let t = &traces[0];
    assert_eq!(t.root_span().name, "client:write");
    assert!(
        t.spans().len() > 5,
        "expected spans from several layers, got {:?}",
        t.spans().iter().map(|s| &s.name).collect::<Vec<_>>()
    );

    // The critical-path breakdown accounts for the whole operation
    // (acceptance bound: within 1% of end-to-end virtual latency).
    let breakdown = t.critical_path();
    let accounted: u64 = breakdown.iter().map(|(_, n)| n).sum();
    let root = t.total_nanos();
    assert_eq!(
        accounted, root,
        "critical path must sum exactly to the root span"
    );
    let diff = end_to_end.abs_diff(accounted);
    assert!(
        diff * 100 <= end_to_end,
        "critical path ({accounted} ns) deviates from end-to-end \
         ({end_to_end} ns) by more than 1%"
    );

    // The K=3 mirror fan-out appears as parallel siblings: all three
    // replica RPCs start at the same virtual instant under call_many.
    let kids = children_of(t, "kosha:mirror");
    assert_eq!(kids.len(), 3, "expected one child span per replica");
    assert!(
        kids.iter().all(|s| s.name == "rpc:replica"),
        "mirror children should be replica RPCs: {kids:?}"
    );
    let starts: Vec<u64> = kids.iter().map(|s| s.start_nanos).collect();
    assert!(
        starts.iter().all(|&s| s == starts[0]),
        "replica RPCs should start together (parallel fan-out): {starts:?}"
    );
    // And the layers all contributed to the breakdown.
    for layer in ["rpc:koshafs", "koshafs:write", "kosha:mirror"] {
        assert!(
            t.spans().iter().any(|s| s.name == layer),
            "missing {layer} span in trace"
        );
    }
}

/// One `Mutate` message carries every kind of mutation, and its
/// control-service span is named by the kind: `kosha:write`,
/// `kosha:make_slot` and so on, never `kosha:mutate`.
#[test]
fn a_mutation_span_is_named_by_its_op() {
    let mut cfg = KoshaConfig::for_tests();
    cfg.distribution_level = 1;
    cfg.replicas = 1;
    let c = build_cluster(4, cfg);
    let m = KoshaMount::new(
        c.net.clone() as Arc<dyn Network>,
        c.nodes[0].addr(),
        c.nodes[0].addr(),
    )
    .expect("mount");
    m.mkdir_p("/m").expect("mkdir");
    collect_spans(&c);

    let clock = c.net.clock();
    c.net.obs().tracer.root(
        "client:mutations",
        999,
        || clock.now().0,
        || {
            m.mkdir("/n").expect("distributed mkdir");
            m.rename("/n", "/o").expect("anchor rename");
            m.rmdir("/o").expect("distributed rmdir");
            m.mkdir("/m/d").expect("mkdir");
            m.rmdir("/m/d").expect("rmdir");
            m.write_file("/m/f", b"x").expect("create and write");
            m.symlink("/m/ln", "f").expect("symlink");
            m.rename("/m/f", "/m/g").expect("rename");
            m.remove("/m/g").expect("remove");
        },
    );
    let spans = collect_spans(&c);
    let mut names: Vec<&str> = spans
        .iter()
        .map(|s| s.name.as_str())
        .filter(|n| n.starts_with("kosha:"))
        .collect();
    names.sort_unstable();
    names.dedup();
    assert_eq!(
        names,
        [
            "kosha:create",
            "kosha:make_slot",
            "kosha:mirror",
            "kosha:mkdir",
            "kosha:remove",
            "kosha:remove_slot",
            "kosha:rename",
            "kosha:rename_slot",
            "kosha:rmdir",
            "kosha:symlink",
            "kosha:write",
        ]
    );
}

#[test]
fn untraced_clusters_record_no_spans() {
    // With no client roots, tracing must stay silent: nothing allocates
    // span records on the hot path.
    let c = build_cluster(3, KoshaConfig::for_tests());
    let m = KoshaMount::new(
        c.net.clone() as Arc<dyn Network>,
        c.nodes[0].addr(),
        c.nodes[0].addr(),
    )
    .expect("mount");
    m.mkdir_p("/quiet/dir").expect("mkdir");
    m.write_file("/quiet/dir/f", b"data").expect("write");
    assert!(collect_spans(&c).is_empty());
}
