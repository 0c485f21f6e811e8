//! Write-behind replication end-to-end: queue/flush convergence, the
//! COMMIT and backpressure barriers, failover lag reporting (no silent
//! stale reads), and the coalescing equivalence property.

use kosha::control::{KoshaReplyFrame, KoshaRequest, MigrateItem, ReplicaOp};
use kosha::paths::{anchor_slot, slot_local_path, Area};
use kosha::{tree_digest, KoshaConfig, KoshaMount, KoshaNode, ReplicationMode};
use kosha_id::node_id_from_seed;
use kosha_nfs::messages::WireSetAttr;
use kosha_rpc::{Bytes, Network, NodeAddr, RpcRequest, ServiceId, SimNetwork};
use kosha_vfs::SetAttr;
use proptest::prelude::*;
use std::sync::Arc;
use std::time::Duration;

struct Cluster {
    net: Arc<SimNetwork>,
    nodes: Vec<Arc<KoshaNode>>,
}

fn build_cluster(n: usize, cfg: KoshaConfig) -> Cluster {
    let net = SimNetwork::new_zero_latency();
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

fn mount(c: &Cluster, node: usize) -> KoshaMount {
    KoshaMount::new(
        c.net.clone() as Arc<dyn Network>,
        c.nodes[node].addr(),
        c.nodes[node].addr(),
    )
    .expect("mount")
}

fn wb_cfg(queue_ops: usize) -> KoshaConfig {
    let mut cfg = KoshaConfig::for_tests();
    cfg.distribution_level = 1;
    cfg.replicas = 2;
    cfg.replication_mode = ReplicationMode::WriteBehind {
        queue_ops,
        flush_interval: Duration::from_millis(5),
    };
    cfg
}

fn primary_of<'a>(c: &'a Cluster, anchor: &str) -> &'a Arc<KoshaNode> {
    c.nodes
        .iter()
        .find(|n| n.hosted_anchors().iter().any(|(p, _)| p == anchor))
        .expect("anchor hosted somewhere")
}

/// Bytes of `vpath` in `node`'s *replica* area, if present.
fn replica_bytes(node: &Arc<KoshaNode>, anchor: &str, vpath: &str) -> Option<Bytes> {
    let rpath = slot_local_path(Area::Replica, anchor, vpath);
    node.with_store(|v| {
        let (id, attr) = v.resolve(&rpath).ok()?;
        v.read(id, 0, attr.size as u32).ok().map(|(data, _)| data)
    })
}

#[test]
fn queued_writes_converge_on_flush_with_coalescing() {
    let c = build_cluster(6, wb_cfg(256));
    let m = mount(&c, 0);
    m.mkdir_p("/wb").unwrap();
    // Sequential appends to one file: adjacent WRITE ranges are classic
    // coalescing fodder (they merge into one replica write per flush).
    m.write_file("/wb/f.dat", b"").unwrap();
    let mut expected = Vec::new();
    for i in 0..16u8 {
        let chunk = [i; 32];
        m.write_at("/wb/f.dat", expected.len() as u64, &chunk)
            .unwrap();
        expected.extend_from_slice(&chunk);
        m.read_file("/wb/f.dat").unwrap(); // interleave reads (no effect)
    }
    let primary = primary_of(&c, "/wb");
    let before = primary.stats();
    assert!(
        before.writeback_enqueued > 0,
        "mutations were not queued: {before:?}"
    );
    // Nothing forced a barrier yet with a 64-op queue; replicas converge
    // once the pump (driven explicitly on the sim transport) runs.
    c.net.run_pumps();
    let after = primary.stats();
    assert!(after.writeback_flushes > 0, "pump did not flush");
    assert!(
        after.writeback_coalesced_ops > 0,
        "sequential writes did not coalesce: {after:?}"
    );
    assert!(
        after.writeback_flushed_ops < after.writeback_enqueued,
        "coalescing shipped as many ops as were enqueued"
    );
    let holders = c
        .nodes
        .iter()
        .filter(|n| replica_bytes(n, "/wb", "/wb/f.dat").as_deref() == Some(&expected[..]))
        .count();
    assert!(
        holders >= 2,
        "only {holders} replicas hold the flushed bytes"
    );
}

#[test]
fn commit_is_a_flush_barrier() {
    let c = build_cluster(6, wb_cfg(1024));
    let m = mount(&c, 0);
    m.mkdir_p("/sync").unwrap();
    m.write_file("/sync/f.dat", &[9u8; 2048]).unwrap();
    let primary = primary_of(&c, "/sync");
    assert_eq!(primary.stats().writeback_flushes, 0);
    m.commit("/sync/f.dat").unwrap();
    let s = primary.stats();
    assert!(s.writeback_flushes > 0, "COMMIT did not flush: {s:?}");
    assert_eq!(
        primary
            .obs()
            .registry
            .gauge("kosha_writeback_queue_depth")
            .get(),
        0,
        "queue not drained after COMMIT"
    );
    assert!(
        !primary.obs().journal.of_kind("flush_barrier").is_empty(),
        "COMMIT barrier not journaled"
    );
    let holders = c
        .nodes
        .iter()
        .filter(|n| replica_bytes(n, "/sync", "/sync/f.dat").as_deref() == Some(&[9u8; 2048][..]))
        .count();
    assert!(holders >= 2, "replicas behind after COMMIT");
}

#[test]
fn full_queue_applies_backpressure() {
    // A 4-op queue overflows quickly; the enqueue that fills it must
    // flush synchronously and journal the event.
    let c = build_cluster(6, wb_cfg(4));
    let m = mount(&c, 0);
    m.mkdir_p("/bp").unwrap();
    for i in 0..12u8 {
        m.write_file(&format!("/bp/f{i}"), &[i; 100]).unwrap();
    }
    let primary = primary_of(&c, "/bp");
    let s = primary.stats();
    assert!(
        s.writeback_flushes > 0,
        "queue overflow never forced a flush: {s:?}"
    );
    assert!(
        !primary
            .obs()
            .journal
            .of_kind("writeback_overflow")
            .is_empty(),
        "overflow not journaled"
    );
}

#[test]
fn failover_after_commit_serves_flushed_data() {
    // The existing failover guarantees must hold under write-behind as
    // long as the client observed a COMMIT barrier.
    let c = build_cluster(6, wb_cfg(1024));
    let m = mount(&c, 0);
    m.mkdir_p("/ha").unwrap();
    m.write_file("/ha/precious.txt", b"do not lose me").unwrap();
    m.commit("/ha/precious.txt").unwrap();
    let victim = primary_of(&c, "/ha").addr();
    let gateway = if victim == c.nodes[0].addr() { 1 } else { 0 };
    let m2 = mount(&c, gateway);
    c.net.fail_node(victim);
    assert_eq!(
        m2.read_file("/ha/precious.txt").unwrap(),
        b"do not lose me",
        "flushed data lost across failover"
    );
    // Writes keep working after failover.
    m2.write_file("/ha/precious.txt", b"updated after failure")
        .unwrap();
    assert_eq!(
        m2.read_file("/ha/precious.txt").unwrap(),
        b"updated after failure"
    );
}

#[test]
fn killing_a_primary_with_queued_writes_reports_replica_lag() {
    let c = build_cluster(6, wb_cfg(1024));
    let m = mount(&c, 0);
    m.mkdir_p("/lag").unwrap();
    m.write_file("/lag/f.dat", b"flushed base").unwrap();
    m.commit("/lag/f.dat").unwrap();
    // A second write window opens (stamping lag markers on the replica
    // slots) and is never flushed.
    m.write_file("/lag/f.dat", b"never flushed update!")
        .unwrap();
    let victim = primary_of(&c, "/lag").addr();
    assert!(
        c.nodes
            .iter()
            .find(|n| n.addr() == victim)
            .unwrap()
            .obs()
            .registry
            .gauge("kosha_writeback_queue_depth")
            .get()
            > 0,
        "update should still be queued on the primary"
    );
    let gateway = if victim == c.nodes[0].addr() { 1 } else { 0 };
    let m2 = mount(&c, gateway);
    c.net.fail_node(victim);
    // The read triggers failover + promotion of a lagging replica.
    let got = m2.read_file("/lag/f.dat").unwrap();
    if got != b"never flushed update!" {
        // Served stale (pre-window) data — allowed only if the lag was
        // reported. The promotion must have consumed a lag marker.
        let lag_events: usize = c
            .nodes
            .iter()
            .filter(|n| n.addr() != victim)
            .map(|n| n.obs().journal.of_kind("replica_lag").len())
            .sum();
        assert!(
            lag_events > 0,
            "stale read served with no replica_lag event journaled"
        );
        let lag_count: u64 = c
            .nodes
            .iter()
            .filter(|n| n.addr() != victim)
            .map(|n| n.stats().replica_lag_events)
            .sum();
        assert!(lag_count > 0, "kosha_replica_lag_total not bumped");
    }
}

#[test]
fn sync_mode_never_queues() {
    let mut cfg = KoshaConfig::for_tests();
    cfg.distribution_level = 1;
    cfg.replicas = 2;
    let c = build_cluster(6, cfg);
    let m = mount(&c, 0);
    m.mkdir_p("/s").unwrap();
    m.write_file("/s/f", &[1u8; 512]).unwrap();
    m.commit("/s/f").unwrap(); // COMMIT is valid (and a no-op) under Sync
    for n in &c.nodes {
        let s = n.stats();
        assert_eq!(s.writeback_enqueued, 0, "sync mode queued a mutation");
        assert_eq!(s.writeback_flushed_ops, 0);
    }
}

// ---- coalescing equivalence property -----------------------------------

/// Applies one replica-service request to `node` and asserts success.
fn apply_replica(net: &Arc<SimNetwork>, node: &Arc<KoshaNode>, req: &KoshaRequest) {
    let resp = net
        .call(
            node.addr(),
            node.addr(),
            RpcRequest::new(ServiceId::KoshaReplica, req),
        )
        .expect("replica rpc");
    let frame = resp.decode::<KoshaReplyFrame>().expect("decode");
    assert!(frame.0.is_ok(), "replica op failed: {:?}", frame.0);
}

/// Turns a random script into a valid replica-op sequence (SetAttr and
/// Remove only target files known to exist, so per-op application never
/// fails and batches never stop early for reasons unrelated to
/// coalescing).
fn ops_from_script(script: &[(u8, u8, u8, u8, u8)]) -> Vec<ReplicaOp> {
    const FILES: [&str; 3] = ["/d/a", "/d/b", "/d/c"];
    let mut live = [false; 3];
    let mut out = Vec::new();
    for &(sel, pi, off, len, val) in script {
        let pi = (pi % 3) as usize;
        let path = FILES[pi].to_string();
        match sel % 6 {
            0 => {
                out.push(ReplicaOp::Create {
                    path,
                    mode: 0o644,
                    uid: 0,
                    gid: 0,
                    size: None,
                });
                live[pi] = true;
            }
            1 | 2 => {
                out.push(ReplicaOp::Write {
                    path,
                    offset: u64::from(off % 48),
                    data: vec![val; usize::from(len % 24) + 1].into(),
                });
                live[pi] = true;
            }
            3 if live[pi] => out.push(ReplicaOp::SetAttr {
                path,
                sattr: WireSetAttr(SetAttr {
                    size: Some(u64::from(off % 40)),
                    ..Default::default()
                }),
            }),
            4 if live[pi] => out.push(ReplicaOp::SetAttr {
                path,
                sattr: WireSetAttr(SetAttr {
                    mode: Some(0o600 + u32::from(val % 8)),
                    ..Default::default()
                }),
            }),
            5 if live[pi] => {
                out.push(ReplicaOp::Remove { path });
                live[pi] = false;
            }
            _ => {}
        }
    }
    out
}

fn replica_tree(node: &Arc<KoshaNode>) -> Vec<MigrateItem> {
    node.with_store(|v| v.export_tree("/kosha_replica"))
        .expect("export")
        .into_iter()
        .map(MigrateItem::from)
        .collect()
}

fn solo_node(seed: &str) -> (Arc<SimNetwork>, Arc<KoshaNode>) {
    let net = SimNetwork::new_zero_latency();
    let (node, mux) = KoshaNode::build(
        KoshaConfig::for_tests(),
        node_id_from_seed(seed),
        NodeAddr(0),
        net.clone() as Arc<dyn Network>,
    );
    net.attach(node.addr(), mux);
    node.join(None).unwrap();
    (net, node)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any split of an op sequence into coalesced `ReplicaApplyBatch`es
    /// leaves a replica store byte-identical to applying the original
    /// ops one by one in order.
    #[test]
    fn coalesced_batches_equal_sequential_application(
        script in proptest::collection::vec(
            (any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>()),
            1..40,
        ),
        chunks in proptest::collection::vec(1usize..8, 1..12),
    ) {
        let ops = ops_from_script(&script);
        prop_assume!(!ops.is_empty());

        // Reference: one ReplicaApply per op, in order.
        let (net_a, node_a) = solo_node("wb-prop-seq");
        for op in &ops {
            apply_replica(&net_a, &node_a, &KoshaRequest::ReplicaApply { op: op.clone() });
        }

        // Candidate: the same sequence cut at arbitrary points, each
        // chunk coalesced and shipped as one batch.
        let (net_b, node_b) = solo_node("wb-prop-seq"); // same id: same layout
        let mut rest = &ops[..];
        let mut ci = 0;
        while !rest.is_empty() {
            let take = chunks[ci % chunks.len()].min(rest.len());
            ci += 1;
            let (chunk, tail) = rest.split_at(take);
            rest = tail;
            let batch = kosha::writeback::coalesce(chunk.to_vec());
            apply_replica(&net_b, &node_b, &KoshaRequest::ReplicaApplyBatch { ops: batch });
        }

        prop_assert_eq!(replica_tree(&node_a), replica_tree(&node_b));
        // The audit digest (DESIGN.md §15) sees them as identical too:
        // digest(seq-apply) == digest(coalesced-apply).
        let digest_a = node_a
            .with_store(|v| v.export_tree("/kosha_replica"))
            .map(|items| tree_digest(&items))
            .expect("export a");
        let digest_b = node_b
            .with_store(|v| v.export_tree("/kosha_replica"))
            .map(|items| tree_digest(&items))
            .expect("export b");
        prop_assert_eq!(digest_a, digest_b);
    }
}

// ---- audit digest after a flush barrier --------------------------------

/// Audit digest of `anchor`'s slot in `area` on `node`, if the slot
/// exists there.
fn slot_digest(node: &Arc<KoshaNode>, area: Area, anchor: &str) -> Option<[u8; 20]> {
    let root = format!("/{}/{}", area.dir_name(), anchor_slot(anchor));
    node.with_store(|v| v.export_tree(&root).ok().map(|items| tree_digest(&items)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// End-to-end version of the same property, through the real
    /// mirror path of either replication mode: whatever random mutation
    /// mix was applied (mirrored op by op under `Sync`; enqueued, and
    /// however it coalesced, under write-behind), after a COMMIT flush
    /// barrier every replica slot's audit digest equals the primary's.
    #[test]
    fn flush_barrier_makes_replica_digests_equal_primary(
        script in proptest::collection::vec(
            (any::<u8>(), any::<u8>(), any::<u8>()),
            1..20,
        ),
        sync in any::<bool>(),
    ) {
        let mut cfg = wb_cfg(256);
        if sync {
            cfg.replication_mode = ReplicationMode::Sync;
        }
        let c = build_cluster(4, cfg);
        let m = mount(&c, 0);
        m.mkdir_p("/prop").unwrap();
        let mut touched = std::collections::BTreeSet::new();
        for &(f, off, val) in &script {
            let path = format!("/prop/f{}", f % 3);
            if touched.insert(path.clone()) {
                m.write_file(&path, &[val; 16]).unwrap();
            } else {
                m.write_at(&path, u64::from(off % 64), &[val; 8]).unwrap();
            }
        }
        let any_file = touched.iter().next().expect("wrote something").clone();
        m.commit(&any_file).unwrap(); // barrier drains the whole queue
        c.net.run_pumps();

        let primary = primary_of(&c, "/prop");
        let pd = slot_digest(primary, Area::Store, "/prop").expect("primary slot");
        let mut matching = 0;
        for n in &c.nodes {
            if let Some(rd) = slot_digest(n, Area::Replica, "/prop") {
                prop_assert_eq!(rd, pd, "replica digest diverges after barrier");
                matching += 1;
            }
        }
        prop_assert!(matching >= 2, "only {} replica slots found", matching);
    }
}
