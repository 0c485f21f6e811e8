//! Resolver cache behavior: directory-cache hits avoid RPCs, the
//! compound LOOKUPPATH walk cuts resolution round trips against the
//! per-component baseline, an exhausted failover retry budget surfaces
//! the underlying transport error instead of masking it, and a removed or
//! overwritten file takes exactly its own handle and cache keys with it,
//! at a cost that does not grow with the handle table.

use kosha::handles::VIRTUAL_GEN;
use kosha::paths::{slot_local_path, Area};
use kosha::{KoshaConfig, KoshaMount, KoshaNode};
use kosha_id::node_id_from_seed;
use kosha_nfs::{Fh, NfsClient, NfsError, NfsStatus};
use kosha_rpc::{Network, NodeAddr, ServiceId, SimNetwork};
use std::sync::Arc;
use std::time::{Duration, Instant};

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

/// GETATTR on a virtual handle, straight at node 0's koshad.
fn getattr_by_handle(c: &Cluster, fh: Fh) -> Result<u64, NfsError> {
    let koshad = c.nodes[0].addr();
    let net = c.net.clone() as Arc<dyn Network>;
    let nfs = NfsClient::with_service(net, koshad, ServiceId::KoshaFs);
    nfs.getattr(koshad, fh).map(|a| a.size)
}

fn nfs_calls(c: &Cluster) -> u64 {
    c.net
        .obs()
        .registry
        .counter("rpc_calls_total{service=\"nfs\"}")
        .get()
}

#[test]
fn dir_cache_hit_avoids_resolution_rpcs() {
    let mut cfg = KoshaConfig::for_tests();
    cfg.distribution_level = 1;
    cfg.replicas = 0;
    let c = build_cluster(4, cfg);
    // Create from node 1 so the gateway's resolution cache stays cold.
    let m1 = mount(&c, 1);
    m1.mkdir_p("/cache/sub/deep").unwrap();
    m1.write_file("/cache/sub/deep/f", b"x").unwrap();

    let m0 = mount(&c, 0);
    let before_first = nfs_calls(&c);
    m0.readdir("/cache/sub/deep").unwrap();
    let first = nfs_calls(&c) - before_first;
    let before_second = nfs_calls(&c);
    m0.readdir("/cache/sub/deep").unwrap();
    let second = nfs_calls(&c) - before_second;
    assert!(
        second < first,
        "cache hit did not reduce RPCs: cold={first} warm={second}"
    );
    assert!(
        second <= 1,
        "cached readdir should cost at most one NFS RPC, took {second}"
    );
}

#[test]
fn compound_lookup_reduces_resolution_rpcs() {
    // Measures the §4.4 re-resolution path: after a cache flush the
    // gateway still holds virtual handles with full paths but no
    // locations, so the next operation must resolve a deep path in one
    // go — one LOOKUPPATH per server (compound) vs one LOOKUP per
    // component (baseline).
    let resolve_cost = |compound: bool| -> u64 {
        let mut cfg = KoshaConfig::for_tests();
        cfg.distribution_level = 1;
        cfg.replicas = 0;
        cfg.compound_lookup = compound;
        let c = build_cluster(4, cfg);
        let m = mount(&c, 0);
        m.mkdir_p("/deep/a/b/c").unwrap();
        m.write_file("/deep/a/b/c/f", b"z").unwrap();
        assert_eq!(m.read_file("/deep/a/b/c/f").unwrap(), b"z");
        c.nodes[0].flush_caches();
        let before = nfs_calls(&c);
        assert_eq!(m.read_file("/deep/a/b/c/f").unwrap(), b"z");
        nfs_calls(&c) - before
    };
    let compound = resolve_cost(true);
    let per_component = resolve_cost(false);
    assert!(
        compound < per_component,
        "compound walk took {compound} NFS RPCs, per-component {per_component}"
    );
}

#[test]
fn per_component_baseline_still_resolves() {
    let mut cfg = KoshaConfig::for_tests();
    cfg.compound_lookup = false;
    let c = build_cluster(4, cfg);
    let m = mount(&c, 0);
    m.mkdir_p("/base/sub").unwrap();
    m.write_file("/base/sub/f", b"old walk").unwrap();
    assert_eq!(m.read_file("/base/sub/f").unwrap(), b"old walk");
    let m2 = mount(&c, 2);
    assert_eq!(m2.read_file("/base/sub/f").unwrap(), b"old walk");
}

#[test]
fn exhausted_retry_budget_returns_underlying_error() {
    let mut cfg = KoshaConfig::for_tests();
    cfg.distribution_level = 1;
    cfg.replicas = 0;
    cfg.failover_retries = 0;
    let c = build_cluster(4, cfg);
    mount(&c, 0).mkdir_p("/retrybox").unwrap();
    mount(&c, 0).write_file("/retrybox/f", b"y").unwrap();
    let primary = c
        .nodes
        .iter()
        .find(|n| n.hosted_anchors().iter().any(|(p, _)| p == "/retrybox"))
        .expect("anchor hosted")
        .addr();
    // Read through a gateway that is not the primary, so the failure is
    // remote; warm its cache first so the read targets the dead node.
    let gateway = (0..c.nodes.len())
        .find(|&i| c.nodes[i].addr() != primary)
        .unwrap();
    let m = mount(&c, gateway);
    assert_eq!(m.read_file("/retrybox/f").unwrap(), b"y");
    c.net.fail_node(primary);
    // With no retry budget the transport failure propagates instead of
    // being retried away: the loopback boundary reports it as IO (the
    // NFS rendering of an unreachable server), and the gateway performed
    // no failover.
    match m.read_file("/retrybox/f") {
        Err(NfsError::Status(NfsStatus::Io)) => {}
        other => panic!("expected the underlying IO error, got {other:?}"),
    }
    assert_eq!(
        c.nodes[gateway].stats().failovers,
        0,
        "a zero budget must not trigger failover retries"
    );
}

#[test]
fn remove_forgets_the_file_and_nothing_else() {
    let mut cfg = KoshaConfig::for_tests();
    cfg.distribution_level = 1;
    let c = build_cluster(4, cfg);
    let m = mount(&c, 0);
    m.mkdir_p("/box/d1").unwrap();
    m.mkdir_p("/far/d2").unwrap();
    for p in ["/box/d1/f", "/box/d1/f2", "/far/d2/h"] {
        m.write_file(p, b"kept").unwrap();
    }
    let cost_of_stat = |p: &str| {
        let before = nfs_calls(&c);
        m.stat(p).unwrap();
        nfs_calls(&c) - before
    };
    // Warm once, then take the steady-state price of each stat.
    let others = ["/box/d1/f2", "/far/d2/h"];
    let _cold = others.map(cost_of_stat);
    let warm = others.map(cost_of_stat);
    let (gone, _) = m.stat("/box/d1/f").unwrap();
    let (sibling, _) = m.stat("/box/d1/f2").unwrap();

    m.remove("/box/d1/f").unwrap();
    // Nothing was over-invalidated: a sibling and a file elsewhere cost
    // what they cost before, and the sibling keeps its handle.
    assert_eq!(cost_of_stat("/box/d1/f2"), warm[0]);
    assert_eq!(cost_of_stat("/far/d2/h"), warm[1]);
    assert_eq!(m.stat("/box/d1/f2").unwrap().0, sibling);
    assert_eq!(getattr_by_handle(&c, sibling).unwrap(), 4);
    // Nothing was under-invalidated: the removed file's handle is dead.
    assert!(matches!(
        getattr_by_handle(&c, gone),
        Err(NfsError::Status(NfsStatus::Stale))
    ));
    assert!(!m.exists("/box/d1/f"));
}

#[test]
fn remove_of_a_path_cached_as_a_directory_still_drops_its_subtree() {
    let mut cfg = KoshaConfig::for_tests();
    cfg.distribution_level = 1;
    let c = build_cluster(4, cfg);
    let (m0, m1) = (mount(&c, 0), mount(&c, 1));
    m0.mkdir_p("/box/d3/sub").unwrap();
    m0.write_file("/box/d3/sub/f", b"first").unwrap();
    assert_eq!(m0.read_file("/box/d3/sub/f").unwrap(), b"first");
    // Behind node 0's back the directory becomes a file...
    m1.remove_tree("/box/d3").unwrap();
    m1.write_file("/box/d3", b"now a file").unwrap();
    // ...which node 0 removes while its mount, its koshad's directory
    // cache and its handle table all still hold `/box/d3` as a directory.
    m0.remove("/box/d3").unwrap();
    m1.mkdir_p("/box/d3/sub").unwrap();
    m1.write_file("/box/d3/sub/f", b"second").unwrap();
    assert_eq!(m0.read_file("/box/d3/sub/f").unwrap(), b"second");
}

#[test]
fn rename_over_an_existing_file_makes_its_old_handle_stale() {
    let mut cfg = KoshaConfig::for_tests();
    cfg.distribution_level = 1;
    let c = build_cluster(4, cfg);
    let m = mount(&c, 0);
    m.mkdir_p("/box/d1").unwrap();
    m.write_file("/box/d1/new", b"new bytes").unwrap();
    m.write_file("/box/d1/old", b"old").unwrap();
    let (moved, _) = m.stat("/box/d1/new").unwrap();
    let (overwritten, _) = m.stat("/box/d1/old").unwrap();

    m.rename("/box/d1/new", "/box/d1/old").unwrap();
    // One handle names the path, and it is the one that moved in; the
    // overwritten file's handle must not resolve to the new object.
    assert_eq!(m.stat("/box/d1/old").unwrap().0, moved);
    assert_eq!(getattr_by_handle(&c, moved).unwrap(), 9);
    assert!(matches!(
        getattr_by_handle(&c, overwritten),
        Err(NfsError::Status(NfsStatus::Stale))
    ));
    assert_eq!(m.read_file("/box/d1/old").unwrap(), b"new bytes");
}

/// Time for 2 000 REMOVEs through a koshad whose handle table holds
/// `held` other handles.
fn time_removes_with_table_of(held: usize) -> Duration {
    const REMOVES: usize = 2_000;
    let mut cfg = KoshaConfig::for_tests();
    cfg.distribution_level = 1;
    cfg.replicas = 0;
    let c = build_cluster(1, cfg);
    let m = mount(&c, 0);
    m.mkdir_p("/bulk/held").unwrap();
    m.mkdir_p("/bulk/work").unwrap();
    // Files put straight into the store, then one READDIR through the
    // koshad: it mints a virtual handle for every entry.
    let dir = slot_local_path(Area::Store, "/bulk", "/bulk/held");
    c.nodes[0].with_store(|v| {
        let (dir, _) = v.resolve(&dir).expect("held dir in the store");
        for i in 0..held {
            v.create(dir, &format!("h{i:06}"), 0o644, 0, 0)
                .expect("create");
        }
    });
    let minted = m.readdir("/bulk/held").unwrap();
    assert_eq!(minted.len(), held);
    assert!(minted.iter().all(|e| e.fh.gen == VIRTUAL_GEN));
    let work: Vec<String> = (0..REMOVES)
        .map(|i| format!("/bulk/work/w{i:04}"))
        .collect();
    for p in &work {
        m.create(p).unwrap();
    }
    let start = Instant::now();
    for p in &work {
        m.remove(p).unwrap();
    }
    let took = start.elapsed();
    assert!(m.readdir("/bulk/work").unwrap().is_empty());
    took
}

/// A REMOVE forgets one key: its cost does not follow the number of
/// handles the koshad holds. When it scanned the table the ratio below
/// was ≈ 100; 5 is generous on purpose, and each side is the better of
/// two runs, so that a loaded machine cannot fail it.
#[test]
fn remove_cost_does_not_grow_with_the_handle_table() {
    let best_of_two = |held| time_removes_with_table_of(held).min(time_removes_with_table_of(held));
    let small = best_of_two(1_000);
    let large = best_of_two(100_000);
    assert!(
        large < small * 5,
        "2 000 removes took {small:?} beside 1 000 handles and {large:?} beside 100 000"
    );
}
