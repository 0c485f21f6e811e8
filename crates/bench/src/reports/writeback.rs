//! Deterministic report on write-behind replication: per-mutation
//! latency with the K-replica mirror on vs off the client's critical
//! path, replica RPC totals (coalescing must ship *fewer* ops than
//! synchronous mirroring), and the coalesce ratio itself.
//!
//! Two identical clusters run the same sequential-write workload — one
//! with `ReplicationMode::Sync` (every mutation fans out to K replicas
//! before the client's WRITE returns), one with
//! `ReplicationMode::WriteBehind` (mutations enqueue on per-target
//! queues and ship as coalesced batches at the closing COMMIT barrier).
//! Everything runs on the virtual clock with seeded ids, so two runs
//! emit byte-identical output; the JSON summary is the
//! `BENCH_writeback.json` gate.

use crate::{default_cluster, take_spans, Report};
use kosha::{KoshaConfig, ReplicationMode};
use kosha_nfs::NfsClient;
use kosha_obs::obj;
use kosha_obs::trace::build_traces;
use kosha_rpc::{Network, ServiceId};
use std::sync::Arc;

const NODES: usize = 8;
const REPLICAS: usize = 3;
const WRITE_OPS: usize = 64;
const WRITE_BYTES: usize = 256;
const FILE: &str = "/wb/data/stream.bin";

struct RunResult {
    p50_write_nanos: u64,
    total_nanos: u64,
    replica_rpcs: u64,
    enqueued: u64,
    flushed_ops: u64,
    coalesced_ops: u64,
    mirror_on_critical_path: bool,
}

fn run_mode(mode: ReplicationMode) -> RunResult {
    let mut cfg = KoshaConfig::for_tests();
    cfg.distribution_level = 1;
    cfg.replicas = REPLICAS;
    cfg.replication_mode = mode;
    let c = default_cluster(&cfg, NODES);
    c.mount(0).mkdir_p("/wb/data").expect("mkdir");
    // Run the workload on the anchor's primary — the machine whose user
    // owns the data, the paper's common case — so the measured WRITE is
    // a loopback apply plus (under sync) the K-replica mirror.
    let primary = c
        .nodes
        .iter()
        .position(|n| n.hosted_anchors().iter().any(|(p, _)| p == "/wb"))
        .expect("anchor hosted");
    let m = c.mount(primary);
    m.write_file(FILE, b"").expect("create");
    take_spans(&c); // discard setup noise

    let clock = c.net.clock();
    let replica_counter = c
        .net
        .obs()
        .registry
        .counter("rpc_calls_total{service=\"replica\"}");
    let rpcs_before = replica_counter.get();

    // Sequential appends against a pre-resolved handle — each measured
    // op is exactly one WRITE RPC to the koshad, per-op latency on the
    // virtual clock.
    let nfs = NfsClient::with_service(
        c.net.clone() as Arc<dyn Network>,
        c.nodes[primary].addr(),
        ServiceId::KoshaFs,
    );
    let koshad = c.nodes[primary].addr();
    let (fh, _) = m.stat(FILE).expect("stat");
    let mut lat = Vec::with_capacity(WRITE_OPS);
    let t0 = clock.now();
    for i in 0..WRITE_OPS {
        let before = clock.now();
        nfs.write(
            koshad,
            fh,
            (i * WRITE_BYTES) as u64,
            &[i as u8; WRITE_BYTES],
        )
        .expect("write");
        lat.push(clock.now().since_nanos(before));
    }
    // Close the durability window; under write-behind this is the COMMIT
    // barrier that flushes the coalesced queues.
    m.commit(FILE).expect("commit");
    let total_nanos = clock.now().since_nanos(t0);

    // One more traced append to see what the client's WRITE waits on.
    let client = c.nodes[primary].addr().0;
    c.net.obs().tracer.root(
        "write:traced",
        client,
        || clock.now().0,
        || {
            m.write_at(FILE, (WRITE_OPS * WRITE_BYTES) as u64, &[0xAB; WRITE_BYTES])
                .expect("traced write");
        },
    );
    let traces = build_traces(take_spans(&c));
    let mirror_on_critical_path = traces
        .iter()
        .filter(|t| t.root_span().name == "write:traced")
        .any(|t| t.critical_path().iter().any(|(n, _)| n == "kosha:mirror"));
    m.commit(FILE).expect("final commit");

    lat.sort_unstable();
    let (mut enqueued, mut flushed_ops, mut coalesced_ops) = (0, 0, 0);
    for n in &c.nodes {
        let s = n.stats();
        enqueued += s.writeback_enqueued;
        flushed_ops += s.writeback_flushed_ops;
        coalesced_ops += s.writeback_coalesced_ops;
    }
    RunResult {
        p50_write_nanos: lat[WRITE_OPS / 2],
        total_nanos,
        replica_rpcs: replica_counter.get() - rpcs_before,
        enqueued,
        flushed_ops,
        coalesced_ops,
        mirror_on_critical_path,
    }
}

/// Both modes on identical clusters, their assertions, and the summary.
pub fn run(_full: bool) -> Report {
    let RunResult {
        p50_write_nanos: sync_p50,
        total_nanos: sync_total,
        replica_rpcs: sync_rpcs,
        mirror_on_critical_path: sync_mirror,
        ..
    } = run_mode(ReplicationMode::Sync);
    let RunResult {
        p50_write_nanos: wb_p50,
        total_nanos: wb_total,
        replica_rpcs: wb_rpcs,
        enqueued,
        flushed_ops,
        coalesced_ops,
        mirror_on_critical_path: wb_mirror,
    } = run_mode(ReplicationMode::WriteBehind { queue_ops: 256 });

    let speedup_x100 = sync_p50 * 100 / wb_p50.max(1);
    let coalesce_ratio_x100 = enqueued * 100 / flushed_ops.max(1);
    assert!(
        speedup_x100 >= 200,
        "write-behind p50 speedup below 2x: {speedup_x100}/100"
    );
    assert!(
        coalesce_ratio_x100 > 100,
        "coalescing shipped as many ops as were enqueued: {coalesce_ratio_x100}/100"
    );
    assert!(
        wb_rpcs <= sync_rpcs,
        "write-behind issued more replica RPCs ({wb_rpcs}) than sync ({sync_rpcs})"
    );
    assert!(
        sync_mirror,
        "sync mode should mirror on the WRITE critical path"
    );
    assert!(
        !wb_mirror,
        "write-behind left the mirror on the WRITE critical path"
    );
    let value = obj! {
        "k": REPLICAS,
        "ops": WRITE_OPS,
        "write_bytes": WRITE_BYTES,
        "sync": obj! {
            "p50_write_nanos": sync_p50, "total_nanos": sync_total,
            "replica_rpcs": sync_rpcs, "mirror_on_critical_path": sync_mirror,
        },
        "write_behind": obj! {
            "p50_write_nanos": wb_p50, "total_nanos": wb_total, "replica_rpcs": wb_rpcs,
            "enqueued_ops": enqueued, "flushed_ops": flushed_ops, "coalesced_ops": coalesced_ops,
            "mirror_on_critical_path": wb_mirror,
        },
        "p50_speedup_x100": speedup_x100,
        "coalesce_ratio_x100": coalesce_ratio_x100,
    };
    Report::json(value)
}
