//! Resolver cache behavior: directory-cache hits avoid RPCs, the
//! compound LOOKUPPATH walk cuts resolution round trips against the
//! per-component baseline, an exhausted failover retry budget surfaces
//! the underlying transport error instead of masking it, and a removed or
//! overwritten file takes exactly its own handle and cache keys with it,
//! at a cost that does not grow with the handle table, an RMDIR forgets
//! its directory at a cost that does not grow with the directory caches,
//! and a lookup of a missing name is one NFS call, whatever the table's
//! size.

use kosha::handles::VIRTUAL_GEN;
use kosha::paths::{slot_local_path, Area};
use kosha::{KoshaConfig, KoshaMount, KoshaNode};
use kosha_id::node_id_from_seed;
use kosha_nfs::{Fh, NfsClient, NfsError, NfsStatus};
use kosha_rpc::{Network, NodeAddr, ServiceId, ServiceMux, SimNetwork};
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

/// A transport error other than `Unreachable` is not a failover: the
/// retry wrapper hands it back at once, and the koshad loopback renders
/// it as `Io` (the NFS rendering of a server that did not answer).
#[test]
fn a_transport_error_other_than_unreachable_reaches_the_client_as_io() {
    let mut cfg = KoshaConfig::for_tests();
    cfg.distribution_level = 1;
    cfg.replicas = 0;
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
    // remote; warm its cache first so the read targets the primary.
    let gateway = (0..c.nodes.len())
        .find(|&i| c.nodes[i].addr() != primary)
        .unwrap();
    let m = mount(&c, gateway);
    assert_eq!(m.read_file("/retrybox/f").unwrap(), b"y");
    // The primary's machine is reinstalled with no services running:
    // it answers every call with `NoService`.
    c.net.attach(primary, Arc::new(ServiceMux::new()));
    match m.read_file("/retrybox/f") {
        Err(NfsError::Status(NfsStatus::Io)) => {}
        other => panic!("expected the underlying IO error, got {other:?}"),
    }
    assert_eq!(
        c.nodes[gateway].stats().failovers,
        0,
        "a node that answers is not failed over"
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

/// What a timed round does to its 2 000 names: removes files, removes
/// empty directories below the distribution level, or looks up names
/// that were never made.
#[derive(Clone, Copy)]
enum Victim {
    File,
    Dir,
    Missing,
}

/// Rounds per side of a cost comparison.
const ROUNDS: usize = 5;

/// Each side's fastest of `ROUNDS` rounds, the two sides timed in
/// alternation: a load that comes and goes on the host slows both alike,
/// or spares each in some round.
fn fastest_in_alternation(
    mut small: impl FnMut() -> Duration,
    mut large: impl FnMut() -> Duration,
) -> (Duration, Duration) {
    (0..ROUNDS).fold((Duration::MAX, Duration::MAX), |(s, l), _| {
        (s.min(small()), l.min(large()))
    })
}

/// A one-node cluster whose koshad's handle table holds `held` handles
/// besides the ones its rounds make and drop, and the NFS calls the
/// koshad sent in each round (the same in every round).
struct HeldTable {
    c: Cluster,
    m: KoshaMount,
    victim: Victim,
    rounds: usize,
    calls: Option<u64>,
}

impl HeldTable {
    fn new(held: usize, victim: Victim) -> Self {
        let mut cfg = KoshaConfig::for_tests();
        cfg.distribution_level = 1;
        cfg.replicas = 0;
        let c = build_cluster(1, cfg);
        let m = mount(&c, 0);
        m.mkdir_p("/bulk/held").unwrap();
        m.mkdir_p("/bulk/work").unwrap();
        // Files put straight into the store, then one READDIR through
        // the koshad: it mints a virtual handle for every entry.
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
        HeldTable {
            c,
            m,
            victim,
            rounds: 0,
            calls: None,
        }
    }

    /// Time for 2 000 REMOVEs, RMDIRs or missed LOOKUPs of fresh names.
    fn round(&mut self) -> Duration {
        const REMOVES: usize = 2_000;
        let (m, round) = (&self.m, self.rounds);
        self.rounds += 1;
        let work: Vec<String> = (0..REMOVES)
            .map(|i| format!("/bulk/work/r{round}w{i:04}"))
            .collect();
        for p in &work {
            match self.victim {
                Victim::File => m.create(p).map(drop),
                Victim::Dir => m.mkdir(p).map(drop),
                Victim::Missing => Ok(()),
            }
            .unwrap();
        }
        let calls = nfs_calls(&self.c);
        let start = Instant::now();
        for p in &work {
            match self.victim {
                Victim::File => m.remove(p),
                Victim::Dir => m.rmdir(p),
                Victim::Missing => match m.stat(p) {
                    Err(NfsError::Status(NfsStatus::NoEnt)) => Ok(()),
                    other => panic!("{p}: {other:?}"),
                },
            }
            .unwrap();
        }
        let took = start.elapsed();
        let calls = nfs_calls(&self.c) - calls;
        assert_eq!(*self.calls.get_or_insert(calls), calls, "NFS calls");
        assert!(m.readdir("/bulk/work").unwrap().is_empty());
        took
    }
}

/// Beside 1 000 and beside 100 000 handles: each side's fastest round,
/// and the NFS calls of one round.
fn small_and_large_table(victim: Victim) -> [(Duration, u64); 2] {
    let [mut small, mut large] = [1_000, 100_000].map(|held| HeldTable::new(held, victim));
    let (small_took, large_took) = fastest_in_alternation(|| small.round(), || large.round());
    let calls = |table: &HeldTable| table.calls.expect("timed");
    [(small_took, calls(&small)), (large_took, calls(&large))]
}

/// A REMOVE forgets one key: its cost does not follow the number of
/// handles the koshad holds. When it scanned the table the ratio below
/// was ≈ 100; 5 is generous on purpose, and each side is its fastest of
/// rounds taken in alternation with the other's, so that a loaded machine
/// cannot fail it.
#[test]
fn remove_cost_does_not_grow_with_the_handle_table() {
    let [(small, _), (large, _)] = small_and_large_table(Victim::File);
    assert!(
        large < small * 5,
        "2 000 removes took {small:?} beside 1 000 handles and {large:?} beside 100 000"
    );
}

/// An RMDIR of an empty directory forgets its subtree, and the handle
/// table's descendant counts say it has none: no scan of the table, so
/// the cost does not follow its size either. Same bound as for REMOVE.
#[test]
fn rmdir_cost_does_not_grow_with_the_handle_table() {
    let [(small, _), (large, _)] = small_and_large_table(Victim::Dir);
    assert!(
        large < small * 5,
        "2 000 rmdirs took {small:?} beside 1 000 handles and {large:?} beside 100 000"
    );
}

/// A LOOKUP of a name that is not there answers `NoEnt`, and koshad
/// touches no cached location for it. When it retried every `NoEnt` after
/// distrusting the cached locations on the name's chain, and found that
/// chain by comparing every handle's path with it, the ratio below was
/// ≈ 50 in a debug build; each side is its fastest round. Both sizes
/// send the same NFS calls per miss: the table's size changes no protocol
/// step.
#[test]
fn a_lookup_of_a_missing_name_does_not_grow_with_the_handle_table() {
    let [(small, per_small), (large, per_large)] = small_and_large_table(Victim::Missing);
    assert_eq!(per_small, per_large, "NFS calls for 2 000 misses");
    assert!(
        large < small * 5,
        "2 000 missed lookups took {small:?} beside 1 000 handles and {large:?} beside 100 000"
    );
}

/// A missed LOOKUP is one NFS LOOKUP at the parent's primary, and its
/// `NoEnt` is the answer: koshad retries only `Stale`, what a node answers
/// for what it no longer holds. When it distrusted every `NoEnt` and
/// walked the name's chain again from the root anchor, a miss cost six
/// (12 000 for these 2 000).
#[test]
fn a_missed_lookup_sends_one_nfs_call() {
    let mut table = HeldTable::new(1_000, Victim::Missing);
    table.round();
    assert_eq!(table.calls, Some(2_000));
}

/// A mount whose directory cache, and whose koshad's, hold `cached`
/// directories besides the ones its rounds make and drop.
fn cached_dirs(cached: usize) -> (Cluster, KoshaMount) {
    let mut cfg = KoshaConfig::for_tests();
    cfg.distribution_level = 1;
    cfg.replicas = 0;
    let c = build_cluster(1, cfg);
    let m = mount(&c, 0);
    m.mkdir_p("/bulk/held").unwrap();
    m.mkdir_p("/bulk/work").unwrap();
    // A MKDIR caches the new directory on both sides.
    for i in 0..cached {
        m.mkdir(&format!("/bulk/held/c{i:06}")).unwrap();
    }
    (c, m)
}

/// Time for 2 000 RMDIRs of fresh directories through `m`; `round`
/// names them.
fn time_rmdirs(m: &KoshaMount, round: usize) -> Duration {
    const RMDIRS: usize = 2_000;
    let work: Vec<String> = (0..RMDIRS)
        .map(|i| format!("/bulk/work/r{round}w{i:04}"))
        .collect();
    for p in &work {
        m.mkdir(p).unwrap();
    }
    let start = Instant::now();
    for p in &work {
        m.rmdir(p).unwrap();
    }
    let took = start.elapsed();
    assert!(m.readdir("/bulk/work").unwrap().is_empty());
    took
}

/// An RMDIR of an empty directory forgets it from the mount's directory
/// cache and from the koshad's location cache. Each counts the entries
/// cached below every path, so a path with none below it is forgotten
/// without a scan: the cost does not follow the caches' size. When both
/// scanned every key the ratio below was far past 5; each side is its
/// fastest of rounds taken in alternation with the other's.
#[test]
fn rmdir_cost_does_not_grow_with_the_dir_cache() {
    let sizes = [1_000, 30_000];
    let [(_small_cluster, small), (_large_cluster, large)] = sizes.map(cached_dirs);
    let (mut small_rounds, mut large_rounds) = (0, 0);
    let (small_took, large_took) = fastest_in_alternation(
        || {
            small_rounds += 1;
            time_rmdirs(&small, small_rounds)
        },
        || {
            large_rounds += 1;
            time_rmdirs(&large, large_rounds)
        },
    );
    for (m, cached) in [(&small, sizes[0]), (&large, sizes[1])] {
        assert_eq!(m.readdir("/bulk/held").unwrap().len(), cached);
    }
    assert!(
        large_took < small_took * 5,
        "2 000 rmdirs took {small_took:?} beside 1 000 cached directories and {large_took:?} beside 30 000"
    );
}
