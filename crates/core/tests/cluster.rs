//! End-to-end tests of the full Kosha stack on a simulated cluster:
//! overlay + NFS stores + koshad interposition + replication + failover.

use kosha::control::{ControlRequest, KoshaReply, ReplicaOp, ReplicaRequest};
use kosha::{KoshaConfig, KoshaMount, KoshaNode, ReadFrom};
use kosha_id::node_id_from_seed;
use kosha_nfs::{NfsError, NfsRequest, NfsStatus};
use kosha_rpc::{
    Clock, LatencyModel, Network, NodeAddr, RpcError, RpcHandler, RpcResponse, ServiceId,
    ServiceMux, SimNetwork, WireRead,
};
use kosha_vfs::FileType;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

struct Cluster {
    net: Arc<SimNetwork>,
    nodes: Vec<Arc<KoshaNode>>,
    /// Each node's service table, by index, for a test to swap one
    /// service's handler.
    muxes: Vec<Arc<ServiceMux>>,
}

fn build_cluster(n: usize, cfg: KoshaConfig) -> Cluster {
    build_cluster_on(SimNetwork::new_zero_latency(), n, cfg)
}

fn build_cluster_on(net: Arc<SimNetwork>, n: usize, cfg: KoshaConfig) -> Cluster {
    let mut nodes = Vec::new();
    let mut muxes = Vec::new();
    for i in 0..n {
        let id = node_id_from_seed(&format!("kosha-host-{i}"));
        let (node, mux) = KoshaNode::build(
            cfg.clone(),
            id,
            NodeAddr(i as u64),
            net.clone() as Arc<dyn Network>,
        );
        net.attach(node.addr(), Arc::clone(&mux));
        node.join(if i == 0 { None } else { Some(NodeAddr(0)) })
            .expect("join");
        nodes.push(node);
        muxes.push(mux);
    }
    Cluster { net, nodes, muxes }
}

fn mount(c: &Cluster, node: usize) -> KoshaMount {
    KoshaMount::new(
        c.net.clone() as Arc<dyn Network>,
        c.nodes[node].addr(),
        c.nodes[node].addr(),
    )
    .expect("mount")
}

#[test]
fn single_node_basic_io() {
    let c = build_cluster(1, KoshaConfig::for_tests());
    let m = mount(&c, 0);
    m.mkdir_p("/alice/docs").unwrap();
    m.write_file("/alice/docs/hello.txt", b"hello kosha")
        .unwrap();
    assert_eq!(
        m.read_file("/alice/docs/hello.txt").unwrap(),
        b"hello kosha"
    );
    let names: Vec<String> = m
        .readdir("/alice/docs")
        .unwrap()
        .into_iter()
        .map(|e| e.name)
        .collect();
    assert_eq!(names, vec!["hello.txt"]);
}

#[test]
fn files_visible_from_every_node() {
    // Location transparency: any node's mount sees the same namespace.
    let c = build_cluster(6, KoshaConfig::for_tests());
    let m0 = mount(&c, 0);
    m0.mkdir_p("/proj/src").unwrap();
    m0.write_file("/proj/src/main.rs", b"fn main() {}").unwrap();
    for i in 1..6 {
        let m = mount(&c, i);
        assert_eq!(
            m.read_file("/proj/src/main.rs").unwrap(),
            b"fn main() {}",
            "node {i} sees different content"
        );
    }
    // Writes from another node are visible everywhere (same instance:
    // "every user sees the same instance of a file", §4.1.1).
    let m3 = mount(&c, 3);
    m3.write_file("/proj/src/main.rs", b"fn main() { /*v2*/ }")
        .unwrap();
    assert_eq!(
        m0.read_file("/proj/src/main.rs").unwrap(),
        b"fn main() { /*v2*/ }"
    );
}

#[test]
fn directories_distribute_across_nodes() {
    let mut cfg = KoshaConfig::for_tests();
    cfg.distribution_level = 1;
    cfg.replicas = 0;
    let c = build_cluster(8, cfg);
    let m = mount(&c, 0);
    // Many top-level directories: they must not all land on one node.
    for i in 0..24 {
        m.mkdir_p(&format!("/user{i}")).unwrap();
        m.write_file(&format!("/user{i}/f.dat"), &[i as u8; 64])
            .unwrap();
    }
    let mut hosts = 0;
    for node in &c.nodes {
        let anchors = node.hosted_anchors();
        // Ignore the root anchor.
        if anchors.iter().any(|(p, _)| p != "/") {
            hosts += 1;
        }
    }
    assert!(
        hosts >= 4,
        "24 directories landed on only {hosts} of 8 nodes"
    );
    // All contents still resolve.
    for i in 0..24 {
        assert_eq!(
            m.read_file(&format!("/user{i}/f.dat")).unwrap(),
            vec![i as u8; 64]
        );
    }
}

#[test]
fn distribution_level_controls_granularity() {
    let mut cfg = KoshaConfig::for_tests();
    cfg.distribution_level = 2;
    cfg.replicas = 0;
    let c = build_cluster(8, cfg);
    let m = mount(&c, 0);
    m.mkdir_p("/home").unwrap();
    for u in 0..12 {
        m.mkdir_p(&format!("/home/user{u}/inner")).unwrap();
        m.write_file(&format!("/home/user{u}/inner/file"), b"x")
            .unwrap();
    }
    // Level-2 dirs (/home/userN) are anchors spread across nodes; the
    // level-3 dirs (inner) live with their parents.
    let mut anchor_count = 0;
    for node in &c.nodes {
        for (p, _) in node.hosted_anchors() {
            if p.starts_with("/home/user") {
                anchor_count += 1;
                assert_eq!(p.matches('/').count(), 2, "anchor {p} at wrong depth");
            }
        }
    }
    assert_eq!(anchor_count, 12);
}

#[test]
fn same_directory_keeps_files_together() {
    // §3.1: "files in the same directory are by default stored in the
    // same node as that directory."
    let mut cfg = KoshaConfig::for_tests();
    cfg.distribution_level = 1;
    cfg.replicas = 0;
    let c = build_cluster(6, cfg);
    let m = mount(&c, 0);
    m.mkdir_p("/data").unwrap();
    for i in 0..10 {
        m.write_file(&format!("/data/f{i}"), &[1u8; 128]).unwrap();
    }
    // Exactly one node hosts the /data anchor and all ten files.
    let hosts: Vec<_> = c
        .nodes
        .iter()
        .filter(|n| n.hosted_anchors().iter().any(|(p, _)| p == "/data"))
        .collect();
    assert_eq!(hosts.len(), 1);
    let host = hosts[0];
    let mut file_count = 0;
    host.with_store(|v| {
        v.walk(|p, attr| {
            if p.starts_with("/kosha_store") && attr.ftype == FileType::Regular && p.contains("/f")
            {
                file_count += 1;
            }
        })
    });
    assert!(file_count >= 10, "host stores only {file_count} files");
}

#[test]
fn special_links_mark_remote_directories() {
    let mut cfg = KoshaConfig::for_tests();
    cfg.distribution_level = 1;
    cfg.replicas = 0;
    let c = build_cluster(4, cfg);
    let m = mount(&c, 0);
    for i in 0..8 {
        m.mkdir_p(&format!("/dir{i}")).unwrap();
    }
    // Root listing shows all eight as directories (links are invisible
    // to users).
    let entries = m.readdir("/").unwrap();
    assert_eq!(entries.len(), 8);
    for e in &entries {
        assert_eq!(e.ftype, FileType::Directory, "{} not a dir", e.name);
    }
    // On the root owner's store, remote children are special links.
    let root_host = c
        .nodes
        .iter()
        .find(|n| n.hosted_anchors().iter().any(|(p, _)| p == "/"))
        .expect("root hosted somewhere");
    let mut links = 0;
    root_host.with_store(|v| {
        v.walk(|p, attr| {
            if p.starts_with("/kosha_store") && attr.ftype == FileType::Symlink {
                links += 1;
            }
        })
    });
    assert!(links > 0, "no special links in the root listing");
}

#[test]
fn capacity_redirection_spills_to_other_nodes() {
    let mut cfg = KoshaConfig::for_tests();
    cfg.distribution_level = 1;
    cfg.replicas = 0;
    cfg.contributed_bytes = 6144; // tiny stores force redirection
    let c = build_cluster(6, cfg);
    let m = mount(&c, 0);
    // Fill nodes with directories until redirection must kick in: create
    // many dirs with a file each. With 6 KiB stores refusing directories
    // at 0.95 utilization, a store takes a directory after one 3 000-byte
    // file and refuses one after two.
    let mut created = 0;
    for i in 0..12 {
        let dir = format!("/d{i}");
        if m.mkdir_p(&dir).is_err() {
            continue;
        }
        if m.write_file(&format!("{dir}/blob"), &[9u8; 3000]).is_ok() {
            created += 1;
        }
    }
    assert!(created >= 6, "only {created} directories fit");
    // At least one special link must carry a salt (a '#' in its target).
    let mut salted = 0;
    for node in &c.nodes {
        node.with_store(|v| {
            v.walk(|p, attr| {
                if attr.ftype == FileType::Symlink && p.starts_with("/kosha_store") {
                    if let Ok((id, _)) = v.resolve(p) {
                        if let Ok(t) = v.readlink(id) {
                            if t.contains('#') {
                                salted += 1;
                            }
                        }
                    }
                }
            })
        });
    }
    assert!(salted > 0, "no salted redirection links found");
}

/// The control service of a machine that goes down as it is asked: an
/// owner that answered its route and died before the next call.
struct DiesWhenAsked {
    net: Arc<SimNetwork>,
    addr: NodeAddr,
}

impl RpcHandler for DiesWhenAsked {
    fn handle(&self, _from: NodeAddr, _body: &[u8]) -> Result<RpcResponse, RpcError> {
        self.net.fail_node(self.addr);
        Err(RpcError::Unreachable(self.addr))
    }
}

/// A node's control service behind a switch the whole cluster shares:
/// it answers `Unreachable` to the first `left` placements (`MakeSlot`
/// mutations) asked of any node and hands every other request to the
/// node's own handler.
struct RefusesPlacement {
    inner: Arc<dyn RpcHandler>,
    addr: NodeAddr,
    left: Arc<AtomicUsize>,
}

impl RpcHandler for RefusesPlacement {
    fn handle(&self, from: NodeAddr, body: &[u8]) -> Result<RpcResponse, RpcError> {
        let placing = matches!(
            ControlRequest::decode(body),
            Ok(ControlRequest::Mutate {
                op: ReplicaOp::MakeSlot { .. }
            })
        );
        if placing
            && self
                .left
                .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
                .is_ok()
        {
            return Err(RpcError::Unreachable(self.addr));
        }
        self.inner.handle(from, body)
    }
}

/// Placement that could not ask an owner is not a full disk: a transport
/// error goes back at once, and the retry wrapper fails over and places
/// the directory under its own name. It once made placement salt the name
/// as if the owner were full, and once every salted attempt had met one
/// it came back as `NoSpc`, which nothing retried. Two owners in a row
/// cannot be asked here, so the gateway fails over twice and redirects
/// nothing.
#[test]
fn placement_fails_over_when_the_owner_is_unreachable() {
    let mut cfg = KoshaConfig::for_tests();
    cfg.distribution_level = 1;
    cfg.replicas = 1;
    let c = build_cluster(8, cfg);
    let m = mount(&c, 0);
    m.mkdir_p("/first").unwrap();
    let left = Arc::new(AtomicUsize::new(2));
    for (i, mux) in c.muxes.iter().enumerate() {
        let inner = mux.handler(ServiceId::Kosha).expect("control service");
        let refuses = RefusesPlacement {
            inner,
            addr: NodeAddr(i as u64),
            left: Arc::clone(&left),
        };
        mux.register(ServiceId::Kosha, Arc::new(refuses));
        c.net.attach(NodeAddr(i as u64), Arc::clone(mux));
    }
    let before = c.nodes[0].stats();
    m.mkdir("/placed")
        .expect("placement fails over instead of reporting a full disk");
    let after = c.nodes[0].stats();
    assert_eq!(left.load(Ordering::SeqCst), 0, "every refusal was met");
    assert_eq!(after.failovers - before.failovers, 2);
    assert_eq!(after.redirections, before.redirections, "a salted name");
    m.write_file("/placed/f", b"placed").unwrap();
    assert_eq!(m.read_file("/placed/f").unwrap(), b"placed");
}

/// An owner that dies as placement asks it does not fail the mkdir: the
/// gateway fails over, and the name's next owner takes the anchor under
/// the same, unsalted name.
#[test]
fn placement_moves_past_an_owner_that_dies_when_asked() {
    let mut cfg = KoshaConfig::for_tests();
    cfg.distribution_level = 1;
    cfg.replicas = 1;
    let c = build_cluster(8, cfg);
    let m = mount(&c, 0);
    m.mkdir_p("/first").unwrap();
    let owner = |routing: &str| {
        c.nodes[0]
            .pastry()
            .route_owner(kosha_id::dir_key(routing))
            .expect("owner")
            .addr
    };
    // The root anchor's primary and our gateway stay up.
    let keep = [c.nodes[0].addr(), owner("/")];
    let name = (0..)
        .map(|i| format!("p{i}"))
        .find(|n| !keep.contains(&owner(n)))
        .expect("a name some other node owns");
    let victim = owner(&name);
    let dies = DiesWhenAsked {
        net: Arc::clone(&c.net),
        addr: victim,
    };
    c.muxes[victim.0 as usize].register(ServiceId::Kosha, Arc::new(dies));
    c.net
        .attach(victim, Arc::clone(&c.muxes[victim.0 as usize]));
    let path = format!("/{name}");
    let before = c.nodes[0].stats();
    m.mkdir(&path).expect("placement moves on to a live owner");
    let after = c.nodes[0].stats();
    assert!(!c.net.is_up(victim), "the owner was asked, and died");
    assert!(after.failovers > before.failovers, "no failover");
    assert_eq!(after.redirections, before.redirections, "a salted name");
    m.write_file(&format!("{path}/f"), b"placed").unwrap();
    assert_eq!(m.read_file(&format!("{path}/f")).unwrap(), b"placed");
    let host = c
        .nodes
        .iter()
        .find(|n| n.hosted_anchors().iter().any(|(p, _)| *p == path))
        .expect("anchor hosted");
    assert_ne!(host.addr(), victim);
}

#[test]
fn rename_within_directory() {
    let c = build_cluster(4, KoshaConfig::for_tests());
    let m = mount(&c, 0);
    m.mkdir_p("/work").unwrap();
    m.write_file("/work/draft.txt", b"v1").unwrap();
    m.rename("/work/draft.txt", "/work/final.txt").unwrap();
    assert!(!m.exists("/work/draft.txt"));
    assert_eq!(m.read_file("/work/final.txt").unwrap(), b"v1");
}

#[test]
fn rename_distributed_directory_keeps_contents() {
    // §4.1.4: renaming a redirected directory renames the link and the
    // stored directory, leaving the link target (routing name) alone.
    let mut cfg = KoshaConfig::for_tests();
    cfg.distribution_level = 1;
    cfg.replicas = 0;
    let c = build_cluster(5, cfg);
    let m = mount(&c, 0);
    m.mkdir_p("/olddir").unwrap();
    m.write_file("/olddir/keep.txt", b"payload").unwrap();
    m.rename("/olddir", "/newdir").unwrap();
    assert!(!m.exists("/olddir"));
    assert_eq!(m.read_file("/newdir/keep.txt").unwrap(), b"payload");
    // Another node's fresh mount agrees.
    let m2 = mount(&c, 2);
    assert_eq!(m2.read_file("/newdir/keep.txt").unwrap(), b"payload");
}

#[test]
fn cross_node_file_rename_copies() {
    let mut cfg = KoshaConfig::for_tests();
    cfg.distribution_level = 1;
    cfg.replicas = 0;
    let c = build_cluster(6, cfg);
    let m = mount(&c, 0);
    m.mkdir_p("/srcdir").unwrap();
    m.mkdir_p("/dstdir").unwrap();
    m.write_file("/srcdir/f.bin", &[7u8; 10_000]).unwrap();
    m.rename("/srcdir/f.bin", "/dstdir/g.bin").unwrap();
    assert!(!m.exists("/srcdir/f.bin"));
    assert_eq!(m.read_file("/dstdir/g.bin").unwrap(), vec![7u8; 10_000]);
}

#[test]
fn rmdir_distributed_directory() {
    let mut cfg = KoshaConfig::for_tests();
    cfg.distribution_level = 1;
    cfg.replicas = 0;
    let c = build_cluster(4, cfg);
    let m = mount(&c, 0);
    m.mkdir_p("/temp").unwrap();
    m.write_file("/temp/x", b"1").unwrap();
    // Non-empty: refused.
    assert!(matches!(
        m.rmdir("/temp"),
        Err(NfsError::Status(NfsStatus::NotEmpty))
    ));
    m.remove("/temp/x").unwrap();
    m.rmdir("/temp").unwrap();
    assert!(!m.exists("/temp"));
    // The anchor record is gone everywhere.
    for node in &c.nodes {
        assert!(
            !node.hosted_anchors().iter().any(|(p, _)| p == "/temp"),
            "stale anchor on {}",
            node.addr()
        );
    }
    // Recreating the name works.
    m.mkdir_p("/temp").unwrap();
    assert!(m.exists("/temp"));
}

/// Calls sent so far, per service, in `ServiceId::ALL` order.
fn calls(c: &Cluster) -> [u64; 5] {
    let reg = &c.net.obs().registry;
    ServiceId::ALL.map(|s| {
        reg.counter(&format!("rpc_calls_total{{service=\"{}\"}}", s.name()))
            .get()
    })
}

/// What one level-1 MKDIR and its RMDIR put on the wire, per service
/// (pastry, nfs, kosha, koshafs, replica), on the cluster `meta_sim`
/// runs: 8 nodes, K = 2. The MKDIR routes its name once, checks the name
/// is free, makes the anchor (which answers with its handle: no probe of
/// the owner's space first, no re-resolve after) and places the link,
/// each mutation mirrored to two holders. The RMDIR finds the anchor in
/// the location cache the MKDIR filled and looks nothing up.
#[test]
fn a_distributed_mkdir_and_its_rmdir_send_only_their_mutations() {
    let mut cfg = KoshaConfig::for_tests();
    cfg.distribution_level = 2;
    cfg.replicas = 2;
    let c = build_cluster(8, cfg);
    let m = mount(&c, 0);
    m.mkdir_p("/warm").unwrap();
    m.stat("/").unwrap();
    let sent = |op: &dyn Fn()| {
        let before = calls(&c);
        op();
        let after = calls(&c);
        [0, 1, 2, 3, 4].map(|i| after[i] - before[i])
    };
    let mkdir = sent(&|| m.mkdir("/t1").map(drop).unwrap());
    let rmdir = sent(&|| m.rmdir("/t1").unwrap());
    // 1 route; 1 LOOKUP; the anchor's `MakeSlot` and the link's `Symlink`;
    // the push of the new slot and the link's mirror to 2 holders each.
    // Before: [2, 4, 3, 1, 4].
    assert_eq!(mkdir, [1, 1, 2, 1, 4]);
    // The anchor's `RemoveSlot` and the link's `Rmdir`, each mirrored twice.
    // Before: [0, 1, 2, 1, 4].
    assert_eq!(rmdir, [0, 0, 2, 1, 4]);
    assert!(!m.exists("/t1"));
}

/// Joins nodes `range` of the `kosha-host-` series to `c`'s overlay.
fn join_nodes(
    c: &Cluster,
    cfg: &KoshaConfig,
    range: std::ops::Range<usize>,
) -> Vec<Arc<KoshaNode>> {
    range
        .map(|i| {
            let id = node_id_from_seed(&format!("kosha-host-{i}"));
            let (node, mux) = KoshaNode::build(
                cfg.clone(),
                id,
                NodeAddr(i as u64),
                c.net.clone() as Arc<dyn Network>,
            );
            c.net.attach(node.addr(), mux);
            node.join(Some(NodeAddr(0))).unwrap();
            node
        })
        .collect()
}

/// Where each of `paths` is hosted, by node address.
fn hosts(nodes: &[&Arc<KoshaNode>], paths: &[String]) -> Vec<Option<NodeAddr>> {
    let host = |p: &String| {
        let held = |n: &&&Arc<KoshaNode>| n.hosted_anchors().iter().any(|(a, _)| a == p);
        nodes.iter().find(held).map(|n| n.addr())
    };
    paths.iter().map(host).collect()
}

/// A distributed MKDIR under a parent whose anchor migrated: the parent's
/// cached, old primary no longer holds its slot and answers `Stale`, and
/// the retry runs the MKDIR again against the new one. An anchor a pass
/// made before its link was refused must not meet the retry. It used to,
/// as `Exist` (4 of these 12), and it stayed behind, hosted and listed by
/// no parent.
#[test]
fn mkdir_under_a_migrated_parent_succeeds_and_orphans_no_anchor() {
    let mut cfg = KoshaConfig::for_tests();
    cfg.distribution_level = 2;
    cfg.replicas = 1;
    let c = build_cluster(3, cfg.clone());
    let m = mount(&c, 0);
    let parents: Vec<String> = (0..12).map(|i| format!("/p{i}")).collect();
    for p in &parents {
        m.mkdir_p(p).unwrap();
        m.write_file(&format!("{p}/f"), b"x").unwrap();
        m.stat(p).unwrap();
    }
    let grown = join_nodes(&c, &cfg, 3..8);
    let all: Vec<&Arc<KoshaNode>> = c.nodes.iter().chain(&grown).collect();
    for p in &parents {
        m.mkdir(&format!("{p}/child"))
            .unwrap_or_else(|e| panic!("mkdir {p}/child: {e:?}"));
    }
    let mut anchors = 0;
    for node in &all {
        for (path, _) in node.hosted_anchors() {
            let Some((parent, name)) = path.rsplit_once('/').filter(|_| path != "/") else {
                continue;
            };
            let parent = if parent.is_empty() { "/" } else { parent };
            let listed = m.readdir(parent).unwrap().iter().any(|e| e.name == name);
            assert!(listed, "{path} is hosted on {} but not listed", node.addr());
            anchors += 1;
        }
    }
    assert_eq!(anchors, 2 * parents.len());
}

/// An RMDIR through a stale location cache entry. After the directory's
/// anchor migrated, the old owner answers `Stale` and the retry finds the
/// new one. After only its parent's anchor migrated, the anchor goes and
/// the old parent refuses the link's removal with `Stale`: the retry
/// removes the link alone (it used to look the name up, find the link,
/// fail to resolve the anchor it had just removed, and answer `NoEnt` with
/// the link left behind). K = 0, so that no copy a join left on an old
/// holder brings the removed anchor back for that retry to find. After
/// another koshad replaced the directory with a file, the old owner
/// answers `Stale` for the removed anchor, the retry looks the name up
/// and answers `NotDir`, and the file stays.
#[test]
fn rmdir_through_a_stale_cached_anchor() {
    let mut cfg = KoshaConfig::for_tests();
    cfg.distribution_level = 2;
    cfg.replicas = 0;
    let c = build_cluster(3, cfg.clone());
    let (m0, m1) = (mount(&c, 0), mount(&c, 1));
    let dirs: Vec<String> = (0..12).map(|i| format!("/q{i}")).collect();
    let children: Vec<String> = (0..12).map(|i| format!("/q{i}/c{i}")).collect();
    for (d, child) in dirs.iter().zip(&children) {
        m0.mkdir(d).unwrap();
        m0.mkdir(child).unwrap();
    }
    m0.mkdir_p("/r/x").unwrap();

    let (dirs_were, children_were) = (hosts(&c.nodes.iter().collect::<Vec<_>>(), &dirs), {
        hosts(&c.nodes.iter().collect::<Vec<_>>(), &children)
    });
    let grown = join_nodes(&c, &cfg, 3..8);
    let all: Vec<&Arc<KoshaNode>> = c.nodes.iter().chain(&grown).collect();
    let (dirs_are, children_are) = (hosts(&all, &dirs), hosts(&all, &children));
    let moved = |i: usize| {
        (
            dirs_are[i] != dirs_were[i],
            children_are[i] != children_were[i],
        )
    };
    assert!((0..12).any(|i| moved(i).1), "no child anchor migrated");
    assert!(
        (0..12).any(|i| moved(i) == (true, false)),
        "no parent migrated away from a child that stayed"
    );
    for (d, child) in dirs.iter().zip(&children) {
        m0.rmdir(child)
            .unwrap_or_else(|e| panic!("rmdir {child}: {e:?}"));
        m0.rmdir(d).unwrap_or_else(|e| panic!("rmdir {d}: {e:?}"));
    }
    assert!(hosts(&all, &dirs).iter().all(Option::is_none));
    assert!(hosts(&all, &children).iter().all(Option::is_none));
    let left: Vec<String> = m0
        .readdir("/")
        .unwrap()
        .into_iter()
        .map(|e| e.name)
        .collect();
    assert_eq!(left, ["r"]);

    m1.rmdir("/r/x").unwrap();
    m1.write_file("/r/x", b"a file now").unwrap();
    assert!(matches!(
        m0.rmdir("/r/x"),
        Err(NfsError::Status(NfsStatus::NotDir))
    ));
    assert_eq!(m0.read_file("/r/x").unwrap(), b"a file now");
    assert_eq!(m1.read_file("/r/x").unwrap(), b"a file now");
}

/// A mount reads what a file's new owner acked after a join moved the
/// file's anchor, under every replication setting (§4.3.1: the files are
/// copied to the new node). Node 0's koshad caches every file's
/// location, five nodes join, a mount on a newcomer overwrites each file,
/// and node 0's mount must read the new bytes: the old owner dropped its
/// store copy, so the cached handle answers `Stale` and the retry finds
/// the new owner. The old owner used to move its copy into its replica
/// area, where a cached handle still read it unless the new owner's push
/// had replaced it: at K = 0, 2 of the 4 moved files read the old bytes.
/// Two maintenance rounds later the audit finds each anchor with one
/// primary and K alike copies, and no copy without a primary: the old
/// owner keeps a copy only as the new owner's push put it there.
#[test]
fn a_second_mount_reads_what_the_new_owner_acked_after_a_join() {
    use kosha::{audit_cluster, AuditOptions, ReplicationMode};

    let write_behind = ReplicationMode::WriteBehind { queue_ops: 64 };
    let settings = [
        (0, ReplicationMode::Sync),
        (1, ReplicationMode::Sync),
        (1, write_behind),
        (2, ReplicationMode::Sync),
    ];
    for (replicas, mode) in settings {
        let label = format!("K = {replicas}, {mode:?}");
        let mut cfg = KoshaConfig::for_tests();
        cfg.distribution_level = 1;
        cfg.replicas = replicas;
        cfg.replication_mode = mode;
        let c = build_cluster(3, cfg.clone());
        let m0 = mount(&c, 0);
        let dirs: Vec<String> = (0..12).map(|i| format!("/d{i}")).collect();
        for d in &dirs {
            m0.mkdir(d).unwrap();
            m0.write_file(&format!("{d}/f"), b"before").unwrap();
            assert_eq!(m0.read_file(&format!("{d}/f")).unwrap(), b"before");
        }
        let were = hosts(&c.nodes.iter().collect::<Vec<_>>(), &dirs);
        let grown = join_nodes(&c, &cfg, 3..8);
        let all: Vec<&Arc<KoshaNode>> = c.nodes.iter().chain(&grown).collect();
        let moved = hosts(&all, &dirs)
            .iter()
            .zip(&were)
            .filter(|(a, b)| a != b)
            .count();
        assert!(moved > 0, "{label}: no anchor migrated");

        let net = c.net.clone() as Arc<dyn Network>;
        let newcomer = KoshaMount::new(net, grown[0].addr(), grown[0].addr()).unwrap();
        for d in &dirs {
            newcomer.write_file(&format!("{d}/f"), b"after").unwrap();
        }
        for d in &dirs {
            let read = m0.read_file(&format!("{d}/f")).unwrap();
            assert_eq!(
                read, b"after",
                "{label}: {d}/f read before the join's bytes"
            );
        }

        for _ in 0..2 {
            for n in &all {
                n.maintain();
            }
        }
        let peers: Vec<NodeAddr> = all.iter().map(|n| n.addr()).collect();
        let opts = AuditOptions {
            replicas,
            ..AuditOptions::default()
        };
        let r = audit_cluster(&*c.net, peers[0], &peers, 0, &opts);
        assert_eq!(r.nodes_scanned, peers.len() as u64, "{label}: {r:?}");
        let faults = [
            r.under_replicated,
            r.over_replicated,
            r.objects_divergent,
            r.orphaned_replicas,
            r.duplicate_primaries,
        ];
        assert_eq!(faults, [0; 5], "{label}: {r:?}");
    }
}

/// A rename from a directory that stayed into one whose anchor a join
/// moved: the destination's cached listing answers `Stale` from its old
/// owner, and the retry drops it too, not only the source's chain, so
/// the file lands with the new owner.
#[test]
fn a_rename_into_a_migrated_directory_lands_with_its_new_owner() {
    let mut cfg = KoshaConfig::for_tests();
    cfg.distribution_level = 1;
    cfg.replicas = 0;
    let c = build_cluster(3, cfg.clone());
    let m = mount(&c, 0);
    let dirs: Vec<String> = (0..12).map(|i| format!("/r{i}")).collect();
    for d in &dirs {
        m.mkdir(d).unwrap();
        m.write_file(&format!("{d}/f"), d.as_bytes()).unwrap();
    }
    let were = hosts(&c.nodes.iter().collect::<Vec<_>>(), &dirs);
    let grown = join_nodes(&c, &cfg, 3..8);
    let all: Vec<&Arc<KoshaNode>> = c.nodes.iter().chain(&grown).collect();
    let are = hosts(&all, &dirs);
    let from = (0..12)
        .find(|&i| are[i] == were[i])
        .expect("an anchor that stayed");
    let to = (0..12)
        .find(|&i| are[i] != were[i])
        .expect("an anchor that moved");
    let (src, dst) = (format!("{}/f", dirs[from]), format!("{}/g", dirs[to]));
    m.rename(&src, &dst).unwrap();
    assert_eq!(m.read_file(&dst).unwrap(), dirs[from].as_bytes());
    assert!(!m.exists(&src));
}

/// A store purged while its node stays up: every handle into it, the
/// export root a koshad cached among them, answers `Stale`. The retry
/// drops the stale root with the path's chain and fetches the new one,
/// and the owner's `EnsureAnchor` pulls the anchor back from its holder,
/// so the read succeeds. A `Stale` that left the cached root in place
/// would fail every retry on it.
#[test]
fn a_purged_store_is_found_again_through_a_new_export_root() {
    let mut cfg = KoshaConfig::for_tests();
    cfg.distribution_level = 1;
    cfg.replicas = 1;
    let c = build_cluster(4, cfg);
    let m = mount(&c, 0);
    let dirs: Vec<String> = (0..8).map(|i| format!("/p{i}")).collect();
    for d in &dirs {
        m.mkdir(d).unwrap();
        m.write_file(&format!("{d}/f"), d.as_bytes()).unwrap();
    }
    // Walks from a cold resolver cache every owner's export root.
    c.nodes[0].flush_caches();
    for d in &dirs {
        assert_eq!(m.read_file(&format!("{d}/f")).unwrap(), d.as_bytes());
    }
    // Purging node 0 would restart its koshad too, cache and all.
    let elsewhere = |d: &&String| primary_of(&c, d).addr() != c.nodes[0].addr();
    let d = dirs.iter().find(elsewhere).expect("an anchor off node 0");
    primary_of(&c, d).purge();
    assert_eq!(m.read_file(&format!("{d}/f")).unwrap(), d.as_bytes());
}

#[test]
fn replication_places_copies_on_neighbors() {
    let mut cfg = KoshaConfig::for_tests();
    cfg.distribution_level = 1;
    cfg.replicas = 2;
    let c = build_cluster(6, cfg);
    let m = mount(&c, 0);
    m.mkdir_p("/rep").unwrap();
    m.write_file("/rep/data.bin", &[5u8; 4096]).unwrap();
    // Count nodes holding the bytes in their replica area.
    let mut replica_holders = 0;
    for node in &c.nodes {
        let mut found = false;
        node.with_store(|v| {
            v.walk(|p, attr| {
                if p.starts_with("/kosha_replica") && p.ends_with("data.bin") && attr.size == 4096 {
                    found = true;
                }
            })
        });
        if found {
            replica_holders += 1;
        }
    }
    assert!(
        replica_holders >= 2,
        "only {replica_holders} replica holders for K=2"
    );
}

#[test]
fn failover_to_replica_is_transparent() {
    let mut cfg = KoshaConfig::for_tests();
    cfg.distribution_level = 1;
    cfg.replicas = 2;
    let c = build_cluster(6, cfg);
    let m = mount(&c, 0);
    m.mkdir_p("/ha").unwrap();
    m.write_file("/ha/precious.txt", b"do not lose me").unwrap();

    // Find and kill the primary (but never our own gateway node 0).
    let primary = c
        .nodes
        .iter()
        .find(|n| n.hosted_anchors().iter().any(|(p, _)| p == "/ha"))
        .expect("anchor hosted");
    let victim = primary.addr();
    if victim == c.nodes[0].addr() {
        // Re-target: use a mount on another node so the gateway survives.
        let m2 = mount(&c, 1);
        c.net.fail_node(victim);
        assert_eq!(
            m2.read_file("/ha/precious.txt").unwrap(),
            b"do not lose me",
            "failover read failed"
        );
        return;
    }
    c.net.fail_node(victim);
    // The read must transparently land on a promoted replica (§4.4).
    assert_eq!(
        m.read_file("/ha/precious.txt").unwrap(),
        b"do not lose me",
        "failover read failed"
    );
    // Writes keep working after failover.
    m.write_file("/ha/precious.txt", b"updated after failure")
        .unwrap();
    assert_eq!(
        m.read_file("/ha/precious.txt").unwrap(),
        b"updated after failure"
    );
}

#[test]
fn migration_follows_key_space_on_join() {
    let mut cfg = KoshaConfig::for_tests();
    cfg.distribution_level = 1;
    cfg.replicas = 1;
    let c = build_cluster(3, cfg.clone());
    let m = mount(&c, 0);
    for i in 0..9 {
        m.mkdir_p(&format!("/mig{i}")).unwrap();
        m.write_file(&format!("/mig{i}/payload"), &[i as u8; 256])
            .unwrap();
    }
    // Add five more nodes: anchors whose keys now map to the newcomers
    // must move (§4.3.1: "a new node always has the files for which it
    // is the primary node").
    let new_nodes = join_nodes(&c, &cfg, 3..8);
    // Every anchor is hosted by the node its key routes to.
    let all: Vec<&Arc<KoshaNode>> = c.nodes.iter().chain(new_nodes.iter()).collect();
    for node in &all {
        for (path, routing) in node.hosted_anchors() {
            let owner = node
                .pastry()
                .route_owner(kosha_id::dir_key(&routing))
                .unwrap();
            assert_eq!(
                owner.id,
                node.id(),
                "{path} hosted on {} but owned by {}",
                node.addr(),
                owner.addr
            );
        }
    }
    // Data intact from any mount.
    let m_new = KoshaMount::new(
        c.net.clone() as Arc<dyn Network>,
        new_nodes[0].addr(),
        new_nodes[0].addr(),
    )
    .unwrap();
    for i in 0..9 {
        assert_eq!(
            m_new.read_file(&format!("/mig{i}/payload")).unwrap(),
            vec![i as u8; 256]
        );
    }
}

#[test]
fn setattr_truncate_and_mode() {
    let c = build_cluster(3, KoshaConfig::for_tests());
    let m = mount(&c, 0);
    m.mkdir_p("/attr").unwrap();
    m.write_file("/attr/f", &[1u8; 100]).unwrap();
    let a = m
        .setattr(
            "/attr/f",
            kosha_vfs::SetAttr {
                size: Some(10),
                mode: Some(0o600),
                ..Default::default()
            },
        )
        .unwrap();
    assert_eq!(a.size, 10);
    assert_eq!(a.mode, 0o600);
    assert_eq!(m.read_file("/attr/f").unwrap().len(), 10);
}

#[test]
fn user_symlinks_survive() {
    let c = build_cluster(3, KoshaConfig::for_tests());
    let m = mount(&c, 0);
    m.mkdir_p("/links").unwrap();
    m.write_file("/links/real.txt", b"real").unwrap();
    m.symlink("/links/alias", "real.txt").unwrap();
    assert_eq!(m.readlink("/links/alias").unwrap(), "real.txt");
    let entries = m.readdir("/links").unwrap();
    let link = entries.iter().find(|e| e.name == "alias").unwrap();
    assert_eq!(link.ftype, FileType::Symlink);
}

#[test]
fn deep_trees_below_distribution_level() {
    let mut cfg = KoshaConfig::for_tests();
    cfg.distribution_level = 1;
    let c = build_cluster(4, cfg);
    let m = mount(&c, 0);
    m.mkdir_p("/deep/a/b/c/d/e").unwrap();
    m.write_file("/deep/a/b/c/d/e/leaf.txt", b"deep payload")
        .unwrap();
    assert_eq!(
        m.read_file("/deep/a/b/c/d/e/leaf.txt").unwrap(),
        b"deep payload"
    );
    // The whole subtree lives with the /deep anchor on one node.
    let hosts: Vec<_> = c
        .nodes
        .iter()
        .filter(|n| n.hosted_anchors().iter().any(|(p, _)| p == "/deep"))
        .collect();
    assert_eq!(hosts.len(), 1);
}

#[test]
fn remove_tree_cleans_distributed_subtrees() {
    let mut cfg = KoshaConfig::for_tests();
    cfg.distribution_level = 2;
    cfg.replicas = 1;
    let c = build_cluster(5, cfg);
    let m = mount(&c, 0);
    m.mkdir_p("/prj/sub1/x").unwrap();
    m.mkdir_p("/prj/sub2").unwrap();
    m.write_file("/prj/sub1/x/f1", b"1").unwrap();
    m.write_file("/prj/sub2/f2", b"2").unwrap();
    m.remove_tree("/prj").unwrap();
    assert!(!m.exists("/prj"));
    for node in &c.nodes {
        for (p, _) in node.hosted_anchors() {
            assert!(!p.starts_with("/prj"), "stale anchor {p}");
        }
    }
}

#[test]
fn duplicate_names_rejected() {
    let c = build_cluster(3, KoshaConfig::for_tests());
    let m = mount(&c, 0);
    m.mkdir_p("/dup").unwrap();
    assert!(matches!(
        m.mkdir("/dup"),
        Err(NfsError::Status(NfsStatus::Exist))
    ));
    m.write_file("/dup/f", b"x").unwrap();
    assert!(matches!(
        m.create("/dup/f"),
        Err(NfsError::Status(NfsStatus::Exist))
    ));
}

#[test]
fn stats_record_failover_promotion_and_migration() {
    let mut cfg = KoshaConfig::for_tests();
    cfg.distribution_level = 1;
    cfg.replicas = 2;
    let c = build_cluster(6, cfg.clone());
    let m = mount(&c, 0);
    m.mkdir_p("/obs").unwrap();
    m.write_file("/obs/f", b"watch me").unwrap();

    // Baseline: fs ops counted on the gateway.
    assert!(c.nodes[0].stats().fs_ops > 0);
    // A new anchor's holders get its empty slot by a mirrored op, so the
    // first full push is the maintenance pass after the file landed.
    for n in &c.nodes {
        n.maintain();
    }
    let pushes: u64 = c.nodes.iter().map(|n| n.stats().replica_pushes).sum();
    assert!(pushes > 0, "no replica pushes recorded");

    // Crash the primary (if it isn't the gateway) and read: the gateway
    // records a failover and some survivor records a promotion or pull.
    let primary = c
        .nodes
        .iter()
        .find(|n| n.hosted_anchors().iter().any(|(p, _)| p == "/obs"))
        .unwrap();
    if primary.addr() == c.nodes[0].addr() {
        return;
    }
    c.net.fail_node(primary.addr());
    assert_eq!(m.read_file("/obs/f").unwrap(), b"watch me");
    assert!(c.nodes[0].stats().failovers > 0, "failover not counted");
    let recovered: u64 = c
        .nodes
        .iter()
        .filter(|n| n.addr() != primary.addr())
        .map(|n| n.stats().promotions + n.stats().replica_pulls)
        .sum();
    assert!(recovered > 0, "no promotion/pull recorded");
}

#[test]
fn stats_record_replica_reads() {
    let mut cfg = KoshaConfig::for_tests();
    cfg.distribution_level = 1;
    cfg.replicas = 2;
    cfg.read_from = ReadFrom::Replicas { hot_copies: 0 };
    let c = build_cluster(6, cfg);
    let m = mount(&c, 0);
    m.mkdir_p("/rr").unwrap();
    m.write_file("/rr/f", b"spread me").unwrap();
    for _ in 0..12 {
        m.read_file("/rr/f").unwrap();
    }
    assert!(
        c.nodes[0].stats().replica_reads > 0,
        "round-robin never hit a replica"
    );
}

#[test]
fn a_file_at_or_above_the_distribution_level_is_read_from_replicas_too() {
    // A file's entry lives in the slot of its parent's covering anchor.
    // For `/f` at level 1 and `/a/f` at level 2 that is not the file's own
    // covering anchor, which names the file itself: a primary that looked
    // the file up by its own answered `NoEnt` to every `ReplicaTargets`,
    // and such a file was never read from a replica.
    for (level, path) in [(1, "/f"), (1, "/a/f"), (2, "/a/f"), (2, "/a/b/f")] {
        let mut cfg = KoshaConfig::for_tests();
        cfg.distribution_level = level;
        cfg.replicas = 2;
        cfg.read_from = ReadFrom::Replicas { hot_copies: 0 };
        let c = build_cluster(6, cfg);
        let m = mount(&c, 0);
        if let Some((dir, _)) = path.rsplit_once('/').filter(|(dir, _)| !dir.is_empty()) {
            m.mkdir_p(dir).unwrap();
        }
        m.write_file(path, b"spread me").unwrap();
        for _ in 0..30 {
            assert_eq!(m.read_file(path).unwrap(), b"spread me");
        }
        assert!(
            c.nodes[0].stats().replica_reads > 0,
            "{path} at level {level}: no read went to a replica"
        );
    }
}

#[test]
fn access_checks_travel_with_the_file() {
    // §4.1.6: "files in Kosha maintain their permissions" — an ACCESS
    // probe against /kosha answers from wherever the file ended up.
    use kosha_vfs::{ACCESS_READ, ACCESS_WRITE};
    let c = build_cluster(4, KoshaConfig::for_tests());
    let mut m = mount(&c, 0);
    m.set_identity(42, 42);
    m.mkdir_p("/perm").unwrap();
    m.write_file("/perm/private.txt", b"owner only").unwrap();
    m.setattr(
        "/perm/private.txt",
        kosha_vfs::SetAttr {
            mode: Some(0o600),
            ..Default::default()
        },
    )
    .unwrap();
    // Owner holds read+write.
    assert_eq!(
        m.access("/perm/private.txt", ACCESS_READ | ACCESS_WRITE)
            .unwrap(),
        ACCESS_READ | ACCESS_WRITE
    );
    // Another user holds nothing.
    let mut other = mount(&c, 2);
    other.set_identity(7, 7);
    assert_eq!(
        other
            .access("/perm/private.txt", ACCESS_READ | ACCESS_WRITE)
            .unwrap(),
        0
    );
}

#[test]
fn read_from_replicas_returns_correct_data() {
    // §4.2's future-work optimization: reads round-robin across primary
    // and replicas, transparently falling back on any problem.
    let mut cfg = KoshaConfig::for_tests();
    cfg.distribution_level = 1;
    cfg.replicas = 2;
    cfg.read_from = ReadFrom::Replicas { hot_copies: 0 };
    let c = build_cluster(6, cfg);
    let m = mount(&c, 0);
    m.mkdir_p("/rfr").unwrap();
    m.write_file("/rfr/doc.bin", &[0x5Au8; 10_000]).unwrap();
    // Many reads: every round-robin position (primary, replica 1,
    // replica 2) is exercised and all return identical bytes.
    for _ in 0..9 {
        assert_eq!(m.read_file("/rfr/doc.bin").unwrap(), vec![0x5Au8; 10_000]);
    }
    // Update, then re-read: replicas were refreshed by the write fan-out.
    m.write_file("/rfr/doc.bin", b"fresh content").unwrap();
    for _ in 0..9 {
        assert_eq!(m.read_file("/rfr/doc.bin").unwrap(), b"fresh content");
    }
}

/// A 6-node cluster on a LAN-like network, K = 2, replica reads on, with
/// `LAT_FILE` written: the cluster, the file's two holders, and the index
/// of a node that is neither its primary nor a holder, to read from.
fn replica_read_cluster() -> (Cluster, [NodeAddr; 2], usize) {
    let mut cfg = KoshaConfig::for_tests();
    cfg.distribution_level = 1;
    cfg.replicas = 2;
    cfg.read_from = ReadFrom::Replicas { hot_copies: 0 };
    let c = build_cluster_on(SimNetwork::new(LatencyModel::default()), 6, cfg);
    let m = mount(&c, 0);
    m.mkdir_p("/lat").unwrap();
    m.write_file(LAT_FILE, LAT_DATA).unwrap();
    let primary = primary_of(&c, "/lat").addr();
    let req = ControlRequest::ReplicaTargets {
        path: LAT_FILE.into(),
    };
    let Ok(KoshaReply::Nodes(holders)) = control(&c, &c.nodes[primary.0 as usize], &req) else {
        panic!("no holders of {LAT_FILE}");
    };
    let reader = (0..c.nodes.len())
        .find(|&i| {
            let a = c.nodes[i].addr();
            a != primary && !holders.contains(&a)
        })
        .expect("a node that holds nothing of the file");
    (c, holders.try_into().expect("K = 2 holders"), reader)
}

const LAT_FILE: &str = "/lat/f";
const LAT_DATA: &[u8] = b"read me from anywhere";

/// How many NFS READs `holder` was sent, of those `seen` recorded.
fn reads_at(seen: &std::sync::Mutex<Vec<(NodeAddr, NfsRequest)>>, holder: NodeAddr) -> usize {
    let seen = seen.lock().unwrap();
    seen.iter()
        .filter(|(to, req)| *to == holder && matches!(req, NfsRequest::Read { .. }))
        .count()
}

/// A holder that the reading node reaches by slow calls of another kind
/// still takes its share of replica reads: only the reader's replica
/// READs feed the estimate it picks holders by. Here each control call
/// to one holder does 20 ms of nested work, as a `ReplicaTargets` that
/// spawns hot copies would, and the reader sends it one after each read.
#[test]
fn slow_control_calls_to_a_holder_do_not_steer_reads_away_from_it() {
    struct Slow {
        inner: Arc<dyn RpcHandler>,
        clock: Arc<dyn Clock>,
    }
    impl RpcHandler for Slow {
        fn handle(&self, from: NodeAddr, body: &[u8]) -> Result<RpcResponse, RpcError> {
            self.clock.advance(std::time::Duration::from_millis(20));
            self.inner.handle(from, body)
        }
    }
    let (c, holders, reader) = replica_read_cluster();
    let seen = record_requests::<NfsRequest>(&c, ServiceId::Nfs);
    let slow = holders[0];
    let mux = &c.muxes[slow.0 as usize];
    let inner = mux.handler(ServiceId::Kosha).expect("control service");
    mux.register(
        ServiceId::Kosha,
        Arc::new(Slow {
            inner,
            clock: c.net.clock(),
        }),
    );
    c.net.attach(slow, Arc::clone(mux));

    let m = mount(&c, reader);
    let req = ControlRequest::ReplicaTargets {
        path: LAT_FILE.into(),
    };
    let before = c.net.clock().now();
    for _ in 0..30 {
        assert_eq!(m.read_file(LAT_FILE).unwrap(), LAT_DATA);
        let call = kosha_rpc::RpcRequest::new(ServiceId::Kosha, &req);
        let _ = c.net.call(c.nodes[reader].addr(), slow, call);
    }
    assert!(c.net.clock().now().since(before) >= std::time::Duration::from_millis(600));
    // Primary, holder, holder: a third of the 30 reads each.
    assert_eq!(reads_at(&seen, slow), 10, "the slow-to-call holder's reads");
    assert_eq!(reads_at(&seen, holders[1]), 10);
}

/// A holder whose replica READ timed out looks slow, and takes no turns
/// while that estimate stands, even once it is back. A `maintain` that
/// finds it down drops the estimate, and once back it takes its share.
#[test]
fn a_timed_out_holder_gets_turns_again_once_maintain_saw_it_down() {
    let (c, [dead, live], reader) = replica_read_cluster();
    let seen = record_requests::<NfsRequest>(&c, ServiceId::Nfs);
    let m = mount(&c, reader);
    let read = |n| {
        for _ in 0..n {
            assert_eq!(m.read_file(LAT_FILE).unwrap(), LAT_DATA);
        }
    };
    read(6);
    assert_eq!((reads_at(&seen, dead), reads_at(&seen, live)), (2, 2));

    c.net.fail_node(dead);
    let before = c.net.clock().now();
    read(3);
    assert!(
        c.net.clock().now().since(before) >= c.net.model().timeout,
        "no read reached the failed holder"
    );
    c.net.recover_node(dead);
    read(30);
    assert_eq!(reads_at(&seen, dead), 2, "the timed-out holder took turns");

    c.net.fail_node(dead);
    c.nodes[reader].maintain();
    c.net.recover_node(dead);
    let (dead_before, live_before) = (reads_at(&seen, dead), reads_at(&seen, live));
    read(30);
    assert_eq!(reads_at(&seen, dead) - dead_before, 10);
    assert_eq!(reads_at(&seen, live) - live_before, 10);
}

#[test]
fn replica_reads_fall_back_when_replicas_fail() {
    let mut cfg = KoshaConfig::for_tests();
    cfg.distribution_level = 1;
    cfg.replicas = 2;
    cfg.read_from = ReadFrom::Replicas { hot_copies: 0 };
    let c = build_cluster(6, cfg);
    let m = mount(&c, 0);
    m.mkdir_p("/fb").unwrap();
    m.write_file("/fb/x", b"fallback works").unwrap();
    // Kill every node that holds only a replica (keep primary + gateway).
    let primary = c
        .nodes
        .iter()
        .find(|n| n.hosted_anchors().iter().any(|(p, _)| p == "/fb"))
        .unwrap()
        .addr();
    for node in &c.nodes {
        let mut replica_only = false;
        node.with_store(|v| {
            v.walk(|p, _| {
                if p.starts_with("/kosha_replica") && p.ends_with("/x") {
                    replica_only = true;
                }
            })
        });
        if replica_only && node.addr() != primary && node.addr() != c.nodes[0].addr() {
            c.net.fail_node(node.addr());
        }
    }
    for _ in 0..9 {
        assert_eq!(m.read_file("/fb/x").unwrap(), b"fallback works");
    }
}

/// A replica read never returns bytes older than an acked write, under
/// either replication mode, with or without hot copies. On 6 nodes with
/// K = 2 and replica reads on, a mount overwrites a 64-byte file 50
/// times, and after each write it and a mount on another node each read
/// the file 3 times: no read is stale on either mount. Under write-behind
/// the primary advertises no holder whose window on the anchor is open;
/// after a COMMIT flushes it, reads go to the holders again.
#[test]
fn a_replica_read_never_returns_bytes_older_than_an_acked_write() {
    const PATH: &str = "/rw/f";
    let modes = [
        kosha::ReplicationMode::Sync,
        kosha::ReplicationMode::WriteBehind { queue_ops: 64 },
    ];
    for mode in modes {
        for hot_copies in [0, 3] {
            let mut cfg = KoshaConfig::for_tests();
            cfg.distribution_level = 1;
            cfg.replicas = 2;
            cfg.read_from = ReadFrom::Replicas { hot_copies };
            cfg.replication_mode = mode;
            let c = build_cluster(6, cfg);
            let (writer, other) = (mount(&c, 0), mount(&c, 3));
            writer.mkdir_p("/rw").unwrap();
            let cell = format!("{mode:?}, hot_copies {hot_copies}");
            let mut stale = [0; 2];
            for i in 0..50u8 {
                writer.write_file(PATH, &[i; 64]).unwrap();
                for (m, stale) in [&writer, &other].into_iter().zip(&mut stale) {
                    for _ in 0..3 {
                        if m.read_file(PATH).unwrap() != [i; 64] {
                            *stale += 1;
                        }
                    }
                }
            }
            assert_eq!(
                stale,
                [0, 0],
                "{cell}: stale reads, writer's and other mount"
            );
            let replica_reads =
                || c.nodes[0].stats().replica_reads + c.nodes[3].stats().replica_reads;
            writer.commit(PATH).unwrap();
            let before = replica_reads();
            for m in [&writer, &other] {
                for _ in 0..15 {
                    assert_eq!(m.read_file(PATH).unwrap(), [49; 64], "{cell}");
                }
            }
            assert!(
                replica_reads() > before,
                "{cell}: no replica read after COMMIT"
            );
        }
    }
}

#[test]
fn same_name_directories_colocate_without_conflict() {
    // §3.1: "key collisions due to two or more subdirectories sharing
    // the same name only implies that the colliding directories will be
    // stored on the same node."
    let mut cfg = KoshaConfig::for_tests();
    cfg.distribution_level = 2;
    cfg.replicas = 0;
    let c = build_cluster(6, cfg);
    let m = mount(&c, 0);
    m.mkdir_p("/u1/src").unwrap();
    m.mkdir_p("/u2/src").unwrap();
    m.write_file("/u1/src/a.rs", b"u1 file").unwrap();
    m.write_file("/u2/src/a.rs", b"u2 file").unwrap();
    assert_eq!(m.read_file("/u1/src/a.rs").unwrap(), b"u1 file");
    assert_eq!(m.read_file("/u2/src/a.rs").unwrap(), b"u2 file");
    // Both /u1/src and /u2/src anchors are on the same node (same hash).
    let host_of = |p: &str| {
        c.nodes
            .iter()
            .position(|n| n.hosted_anchors().iter().any(|(a, _)| a == p))
    };
    let h1 = host_of("/u1/src");
    let h2 = host_of("/u2/src");
    assert!(h1.is_some() && h2.is_some());
    assert_eq!(h1, h2, "same-named dirs should share a node");
}

#[test]
fn stats_record_capacity_redirections() {
    // `kosha_redirections_total` only bumps on placement attempt > 0
    // (crates/core/src/ops.rs, place_anchor), so it stays at
    // zero under roomy defaults; this scenario forces the full-node path.
    let mut cfg = KoshaConfig::for_tests();
    cfg.distribution_level = 1;
    cfg.replicas = 0;
    cfg.contributed_bytes = 6144; // tiny stores force redirection
    let c = build_cluster(6, cfg);
    let m = mount(&c, 0);
    for i in 0..12 {
        let dir = format!("/d{i}");
        if m.mkdir_p(&dir).is_err() {
            continue;
        }
        let _ = m.write_file(&format!("{dir}/blob"), &[9u8; 3000]);
    }
    let redirections: u64 = c.nodes.iter().map(|n| n.stats().redirections).sum();
    assert!(redirections > 0, "full nodes never counted a redirection");
    // The same mechanism journals a "redirection" event on the placing
    // node.
    let journaled: usize = c
        .nodes
        .iter()
        .map(|n| n.obs().journal.of_kind("redirection").len())
        .sum();
    assert!(journaled > 0, "no redirection events journaled");
}

#[test]
fn failover_populates_rpc_histograms_and_journal() {
    // Observability acceptance: after a kill/failover scenario, the
    // transport's RPC latency histograms hold samples and the gateway's
    // journal holds the failover event. A real latency model makes the
    // recorded latencies non-zero (and deterministic, under SimTime).
    let mut cfg = KoshaConfig::for_tests();
    cfg.distribution_level = 1;
    cfg.replicas = 2;
    let net = SimNetwork::new(LatencyModel::default());
    let c = build_cluster_on(net, 6, cfg);
    let m = mount(&c, 0);
    m.mkdir_p("/obs2").unwrap();
    m.write_file("/obs2/f", b"instrumented").unwrap();

    let primary = c
        .nodes
        .iter()
        .find(|n| n.hosted_anchors().iter().any(|(p, _)| p == "/obs2"))
        .unwrap();
    if primary.addr() == c.nodes[0].addr() {
        // Deterministic placement makes this branch stable; under the
        // seeded ids the anchor lands off-gateway, so failing here means
        // the seeds changed — pick a different anchor name in that case.
        panic!("/obs2 landed on the gateway; choose another anchor name");
    }
    c.net.fail_node(primary.addr());
    assert_eq!(m.read_file("/obs2/f").unwrap(), b"instrumented");

    // Transport-level RPC metrics: every service that carried traffic
    // has latency samples with non-zero totals.
    let tobs = c.net.obs();
    let reg = &tobs.registry;
    for svc in ["kosha", "nfs", "pastry"] {
        let h = reg.histogram(&format!("rpc_latency_nanos{{service=\"{svc}\"}}"));
        assert!(h.count() > 0, "no rpc latency samples for {svc}");
        assert!(h.sum() > 0, "zero total latency for {svc}");
    }
    assert!(
        reg.counter("rpc_failed_calls_total{service=\"kosha\"}")
            .get()
            + reg.counter("rpc_failed_calls_total{service=\"nfs\"}").get()
            > 0,
        "killing the primary should have failed at least one RPC"
    );

    // Node-level journal: the gateway recorded the failover, and the
    // rendered exposition carries the same counter.
    let gobs = c.nodes[0].obs();
    let failovers = gobs.journal.of_kind("failover");
    assert!(!failovers.is_empty(), "no failover event journaled");
    assert!(
        failovers[0].detail.contains("unreachable"),
        "unexpected detail: {}",
        failovers[0].detail
    );
    let text = gobs.registry.render();
    assert!(
        text.contains("kosha_failovers_total"),
        "exposition missing failover counter:\n{text}"
    );
}

// ---- heat-driven read scaling (DESIGN.md §16) -----------------------------

fn hot_cfg() -> KoshaConfig {
    let mut cfg = KoshaConfig::for_tests();
    cfg.distribution_level = 1;
    cfg.replicas = 1;
    cfg.read_from = ReadFrom::Replicas { hot_copies: 2 };
    cfg
}

fn hot_pushes(c: &Cluster) -> u64 {
    c.nodes.iter().map(|n| n.stats().hot_pushes).sum()
}

fn hot_copies_total(c: &Cluster) -> i64 {
    c.nodes
        .iter()
        .map(|n| n.obs().registry.gauge("kosha_hot_copies").get())
        .sum()
}

/// Nodes with a replica slot whose record holds a hot-copy lease.
fn hot_mark_holders(c: &Cluster) -> usize {
    let leased = |n: &Arc<KoshaNode>| {
        let records = n.slot_records(kosha::paths::Area::Replica);
        records.iter().any(|(_, meta)| !meta.hot.is_empty())
    };
    c.nodes.iter().filter(|n| leased(n)).count()
}

#[test]
fn hot_object_gains_then_sheds_cached_copies() {
    let c = build_cluster(6, hot_cfg());
    let m = mount(&c, 0);
    m.mkdir_p("/zipf").unwrap();
    m.write_file("/zipf/hot.bin", &[9u8; 2048]).unwrap();

    // A Zipf-style hot spot: the same object read over and over. Past
    // the heat threshold the primary pushes leased cached copies onto
    // leaf-set neighbors beyond the K replica targets.
    for _ in 0..24 {
        assert_eq!(m.read_file("/zipf/hot.bin").unwrap(), vec![9u8; 2048]);
    }
    assert!(hot_pushes(&c) > 0, "hot spot never spawned a cached copy");
    assert!(hot_copies_total(&c) > 0, "hot-copy gauge stayed zero");
    assert!(
        hot_mark_holders(&c) > 0,
        "no holder's slot record carries a lease"
    );

    // Leave the object alone far past the heat half-life: maintenance
    // sheds the cooled copies and the cluster returns to exactly K.
    c.net
        .virtual_clock()
        .advance(std::time::Duration::from_secs(600));
    for node in &c.nodes {
        node.maintain();
    }
    assert_eq!(hot_copies_total(&c), 0, "copies must shed after cooling");
    assert_eq!(hot_mark_holders(&c), 0, "lease marker survived shedding");
    let drops: u64 = c.nodes.iter().map(|n| n.stats().hot_drops).sum();
    assert!(drops > 0, "shedding must be an explicit revocation");
    // Re-reads still work (and may heat the object right back up).
    assert_eq!(m.read_file("/zipf/hot.bin").unwrap(), vec![9u8; 2048]);
}

#[test]
fn write_invalidates_hot_leases_and_reads_are_never_stale() {
    let c = build_cluster(6, hot_cfg());
    let m = mount(&c, 0);
    m.mkdir_p("/inv").unwrap();
    m.write_file("/inv/doc", b"version one").unwrap();
    for _ in 0..24 {
        assert_eq!(m.read_file("/inv/doc").unwrap(), b"version one");
    }
    let pushes = hot_pushes(&c);
    assert!(
        pushes > 0,
        "test needs hot copies in place before the write"
    );

    // The write voids the copy leases before it is acknowledged...
    m.write_file("/inv/doc", b"version two").unwrap();
    let invals: u64 = c
        .nodes
        .iter()
        .map(|n| n.stats().hot_lease_invalidations)
        .sum();
    assert!(invals > 0, "write did not void the hot-copy leases");

    // ...so in the window before any refresh, no hot holder is
    // advertised and every rotor position serves the new bytes.
    assert_eq!(advertised_hot_holders(&c, "/inv", "/inv/doc"), 0);
    for _ in 0..24 {
        assert_eq!(m.read_file("/inv/doc").unwrap(), b"version two");
    }

    // The COMMIT barrier re-pushes fresh payload under a new lease: the
    // holders are advertised again, and the reads they serve return the
    // new bytes.
    m.commit("/inv/doc").unwrap();
    assert!(hot_pushes(&c) > pushes, "COMMIT did not re-push the copies");
    assert!(advertised_hot_holders(&c, "/inv", "/inv/doc") > 0);
    let replica_reads = || c.nodes[0].stats().replica_reads;
    let before = replica_reads();
    for _ in 0..24 {
        assert_eq!(m.read_file("/inv/doc").unwrap(), b"version two");
    }
    assert!(replica_reads() > before, "replica reads did not resume");
}

/// The lease clock the primary alone keeps (DESIGN.md §16): a hot copy
/// whose lease (`HOT_LEASE_NANOS`, 5 s) runs out with no sweep is not
/// advertised, and one `maintain()` renews it by re-pushing the copy.
#[test]
fn an_expired_hot_lease_hides_its_holders_until_maintenance_renews_it() {
    let c = build_cluster(6, hot_cfg());
    let m = mount(&c, 0);
    m.mkdir_p("/exp").unwrap();
    m.write_file("/exp/doc", b"leased").unwrap();
    for _ in 0..24 {
        assert_eq!(m.read_file("/exp/doc").unwrap(), b"leased");
    }
    assert!(advertised_hot_holders(&c, "/exp", "/exp/doc") > 0);

    c.net
        .virtual_clock()
        .advance(std::time::Duration::from_secs(6));
    assert_eq!(advertised_hot_holders(&c, "/exp", "/exp/doc"), 0);

    let pushes = hot_pushes(&c);
    primary_of(&c, "/exp").maintain();
    assert!(
        hot_pushes(&c) > pushes,
        "maintenance did not renew the lease"
    );
    assert!(advertised_hot_holders(&c, "/exp", "/exp/doc") > 0);
    assert_eq!(m.read_file("/exp/doc").unwrap(), b"leased");
}

#[test]
fn audit_counts_hot_copies_without_flagging_them() {
    use kosha::{audit_cluster, AuditOptions};
    let c = build_cluster(6, hot_cfg());
    let m = mount(&c, 0);
    m.mkdir_p("/aud").unwrap();
    m.write_file("/aud/popular", b"everyone reads this")
        .unwrap();
    for _ in 0..24 {
        assert_eq!(m.read_file("/aud/popular").unwrap(), b"everyone reads this");
    }
    assert!(hot_copies_total(&c) > 0, "no hot copies to audit");

    let peers: Vec<NodeAddr> = c.nodes.iter().map(|n| n.addr()).collect();
    let report = audit_cluster(
        c.net.as_ref(),
        c.nodes[0].addr(),
        &peers,
        c.net.clock().now().0,
        &AuditOptions::default(),
    );
    assert!(report.hot_copies > 0, "audit failed to see the hot slots");
    assert_eq!(
        report.over_replicated, 0,
        "leased hot copies must not read as over-replication"
    );
    assert_eq!(
        report.orphaned_replicas, 0,
        "leased hot copies must not read as orphans"
    );
    assert_eq!(report.objects_divergent, 0, "hot slots must not diverge");
}

/// Whether `n` holds a replica-area copy of `anchor`, and if so whether
/// its record lists hot copies: a copy of the hot files alone.
fn leased(n: &KoshaNode, anchor: &str) -> Option<bool> {
    slot_record(n, kosha::paths::Area::Replica, anchor).map(|r| !r.hot.is_empty())
}

/// Makes `anchor` with a cold file and a hot one, reads the hot one until
/// its primary copies it, and says whether some node holds a hot copy.
fn heat_anchor(c: &Cluster, m: &KoshaMount, anchor: &str) -> bool {
    m.mkdir_p(anchor).unwrap();
    m.write_file(&format!("{anchor}/cold.txt"), b"cold")
        .unwrap();
    m.write_file(&format!("{anchor}/hot.bin"), &[7u8; 64])
        .unwrap();
    for _ in 0..24 {
        m.read_file(&format!("{anchor}/hot.bin")).unwrap();
    }
    c.nodes.iter().any(|n| leased(n, anchor) == Some(true))
}

/// Whether `n`'s store serves `anchor`'s file `name`.
fn serves(n: &KoshaNode, anchor: &str, name: &str) -> bool {
    use kosha::paths::{slot_local_path, Area};
    let path = slot_local_path(Area::Store, anchor, &format!("{anchor}/{name}"));
    n.with_store(|v| v.resolve(&path).is_ok())
}

fn ensure(anchor: &str) -> ControlRequest {
    ControlRequest::EnsureAnchor {
        path: anchor.into(),
        routing: anchor[1..].into(),
    }
}

/// A hot copy holds only the hot files, so it must not become the store
/// copy while a holder of the full copy answers. With K = 1 and two hot
/// copies, two nodes past the one durable target hold leased slots that
/// lack the cold file. A hot holder asked to serve the anchor after its
/// primary failed pulls the durable holder's copy instead of promoting
/// its own, and a node that holds no copy pulls the durable one even
/// when a hot holder comes first in its leaf set.
#[test]
fn a_hot_copy_is_never_adopted_while_a_full_copy_answers() {
    let c = build_cluster(6, hot_cfg());
    let m = mount(&c, 0);

    // Pull: a node with no copy whose leaf set lists a hot holder before
    // the durable one.
    let mut pull = None;
    for anchor in (0..16).map(|i| format!("/p{i}")) {
        if !heat_anchor(&c, &m, &anchor) {
            continue;
        }
        let durable = c.nodes.iter().find(|n| leased(n, &anchor) == Some(false));
        let Some(durable) = durable.map(|n| n.addr()) else {
            continue;
        };
        let primary = primary_of(&c, &anchor).addr();
        let hot_first = |n: &&Arc<KoshaNode>| {
            let members = n.pastry().leaf_members();
            let rank = |a: NodeAddr| members.iter().position(|m| m.addr == a);
            let first_hot = c.nodes.iter().filter(|h| leased(h, &anchor) == Some(true));
            let first_hot = first_hot.filter_map(|h| rank(h.addr())).min();
            n.addr() != primary
                && leased(n, &anchor).is_none()
                && first_hot.is_some_and(|h| rank(durable).is_some_and(|d| h < d))
        };
        if let Some(puller) = c.nodes.iter().find(hot_first) {
            pull = Some((anchor, Arc::clone(puller)));
            break;
        }
    }
    let (anchor, puller) = pull.expect("a puller that meets a hot holder first");
    assert_eq!(ensured(&c, &puller, &ensure(&anchor)), (0, 1), "pulled");
    assert!(
        serves(&puller, &anchor, "cold.txt"),
        "pulled a hot-only copy of {anchor}"
    );

    // Promotion: a hot holder of an anchor whose primary failed.
    let anchor = (0..16)
        .map(|i| format!("/h{i}"))
        .find(|a| heat_anchor(&c, &m, a) && primary_of(&c, a).addr() != c.nodes[0].addr())
        .expect("a hot anchor hosted away from the mount");
    let holder = c.nodes.iter().find(|n| leased(n, &anchor) == Some(true));
    let holder = Arc::clone(holder.expect("a hot holder"));
    c.net.fail_node(primary_of(&c, &anchor).addr());
    assert_eq!(ensured(&c, &holder, &ensure(&anchor)), (0, 1), "pulled");
    assert!(
        serves(&holder, &anchor, "cold.txt"),
        "promoted a hot-only copy of {anchor}"
    );
}

/// The last resort of DESIGN.md §16: with the primary and every durable
/// holder failed, a hot holder asked to serve the anchor promotes its
/// own copy, which serves the hot file and not the cold one, and says so
/// in its journal.
#[test]
fn a_hot_copy_is_promoted_when_no_full_copy_answers() {
    let c = build_cluster(6, hot_cfg());
    let m = mount(&c, 0);
    let anchor = (0..16)
        .map(|i| format!("/q{i}"))
        .find(|a| {
            heat_anchor(&c, &m, a)
                && primary_of(&c, a).addr() != c.nodes[0].addr()
                && leased(&c.nodes[0], a) != Some(false)
        })
        .expect("a hot anchor whose full copies are away from the mount");
    let holder = c.nodes.iter().find(|n| leased(n, &anchor) == Some(true));
    let holder = Arc::clone(holder.expect("a hot holder"));
    c.net.fail_node(primary_of(&c, &anchor).addr());
    for n in c.nodes.iter().filter(|n| leased(n, &anchor) == Some(false)) {
        c.net.fail_node(n.addr());
    }

    assert_eq!(ensured(&c, &holder, &ensure(&anchor)), (1, 0), "promoted");
    assert!(serves(&holder, &anchor, "hot.bin"));
    assert!(!serves(&holder, &anchor, "cold.txt"));
    let adopted = holder.obs().journal.of_kind("hot_only_copy");
    assert_eq!(adopted.len(), 1, "{adopted:?}");
    assert!(
        adopted[0].detail.contains("held only 1 hot file"),
        "{}",
        adopted[0].detail
    );
}

/// Sends one request to a service of `node` and decodes the reply frame.
fn send(
    c: &Cluster,
    node: &Arc<KoshaNode>,
    service: kosha_rpc::ServiceId,
    req: &impl kosha_rpc::WireWrite,
) -> Result<KoshaReply, NfsStatus> {
    c.net
        .call(
            c.nodes[0].addr(),
            node.addr(),
            kosha_rpc::RpcRequest::new(service, req),
        )
        .expect("rpc")
        .decode::<kosha::control::KoshaReplyFrame>()
        .expect("reply decodes")
        .0
}

/// Sends one request to `node`'s control service, as a peer koshad would.
fn control(
    c: &Cluster,
    node: &Arc<KoshaNode>,
    req: &ControlRequest,
) -> Result<KoshaReply, NfsStatus> {
    send(c, node, kosha_rpc::ServiceId::Kosha, req)
}

/// Sends `node` an `EnsureAnchor`, as a resolving koshad would, and
/// checks that it answers the handle of the store slot root it then
/// serves. Returns the promotions and the pulls `node` made on the way.
fn ensured(c: &Cluster, node: &Arc<KoshaNode>, req: &ControlRequest) -> (u64, u64) {
    use kosha::paths::{slot_local_path, Area};
    let ControlRequest::EnsureAnchor { path, .. } = req else {
        panic!("{req:?} is no EnsureAnchor");
    };
    let before = node.stats();
    let reply = control(c, node, req);
    let root = slot_local_path(Area::Store, path, path);
    let (id, _) = node.with_store(|v| v.resolve(&root)).expect("slot root");
    let root = kosha_nfs::Fh::from_file_id(id);
    assert!(
        matches!(reply, Ok(KoshaReply::Handle { fh, .. }) if fh == root),
        "{reply:?}"
    );
    let after = node.stats();
    (
        after.promotions - before.promotions,
        after.replica_pulls - before.replica_pulls,
    )
}

/// Sends one request to `node`'s replica service, as a primary would.
fn replica(
    c: &Cluster,
    node: &Arc<KoshaNode>,
    req: &ReplicaRequest,
) -> Result<KoshaReply, NfsStatus> {
    send(c, node, kosha_rpc::ServiceId::KoshaReplica, req)
}

fn primary_of<'a>(c: &'a Cluster, anchor: &str) -> &'a Arc<KoshaNode> {
    c.nodes
        .iter()
        .find(|n| n.hosted_anchors().iter().any(|(p, _)| p == anchor))
        .expect("anchor hosted somewhere")
}

/// Hot-copy holders the primary of `anchor` advertises for `path`: what
/// `ReplicaTargets` lists beyond the K durable targets, which is exactly
/// the set of holders with a valid, unexpired lease.
fn advertised_hot_holders(c: &Cluster, anchor: &str, path: &str) -> usize {
    let primary = primary_of(c, anchor);
    match control(
        c,
        primary,
        &ControlRequest::ReplicaTargets { path: path.into() },
    ) {
        Ok(KoshaReply::Nodes(targets)) => targets.len() - primary.config().replicas,
        other => panic!("ReplicaTargets({path}): {other:?}"),
    }
}

/// The lease-void rule (DESIGN.md §16), one row per mutation kind that can
/// name an existing object: the moment the mutation's reply is back, the
/// primary advertises no hot holder for the object's path, and no read
/// returns the bytes the holders were given before the mutation. Rows
/// that leave the path empty first put an empty file there, since a lease
/// that outlives its object is only visible once the name is reused; a
/// bare create is the one way to reuse it that voids nothing itself.
#[test]
fn every_mutation_kind_voids_hot_leases_before_it_replies() {
    use kosha_nfs::messages::WireSetAttr;
    use kosha_vfs::SetAttr;

    const HOT: &str = "/t/hot";
    const DEEP: &str = "/t/d/hot";
    const OLD: &[u8] = b"old bytes";
    let path = |p: &str| p.to_string();
    // A row's hot object, what the row does to it, and what its path
    // must read as afterwards (`None`: the name is gone and is re-created
    // empty).
    enum Do {
        /// Mutations sent straight to the primary's control service.
        Control(Vec<ReplicaOp>),
        /// Anchor-level operations, which also fix up the parent's special
        /// link; koshad sends `RemoveSlot` / `RenameSlot` for them.
        Mount(fn(&KoshaMount)),
    }
    let rows: Vec<(&str, &str, Do, Option<&[u8]>)> = vec![
        (
            "Write",
            HOT,
            Do::Control(vec![ReplicaOp::Write {
                path: path(HOT),
                offset: 0,
                data: b"new".as_slice().into(),
            }]),
            Some(b"new bytes"),
        ),
        (
            "SetAttr (truncate)",
            HOT,
            Do::Control(vec![ReplicaOp::SetAttr {
                path: path(HOT),
                sattr: WireSetAttr(SetAttr {
                    size: Some(3),
                    ..Default::default()
                }),
            }]),
            Some(b"old"),
        ),
        (
            "Remove",
            HOT,
            Do::Control(vec![ReplicaOp::Remove { path: path(HOT) }]),
            None,
        ),
        (
            "Rename, hot object is the source",
            HOT,
            Do::Control(vec![ReplicaOp::Rename {
                from: path(HOT),
                to: path("/t/moved"),
            }]),
            None,
        ),
        (
            "Rename, hot object is overwritten",
            HOT,
            Do::Control(vec![ReplicaOp::Rename {
                from: path("/t/other"),
                to: path(HOT),
            }]),
            Some(b"other"),
        ),
        (
            // The names under a renamed directory stop meaning their
            // objects too: a lease on one outlives the rename unless the
            // whole subtree is forgotten.
            "Rename, a directory above the hot object",
            DEEP,
            Do::Control(vec![ReplicaOp::Rename {
                from: path("/t/d"),
                to: path("/t/e"),
            }]),
            None,
        ),
        (
            // An anchor can only be removed empty, so the Remove that
            // empties it has voided the lease already; the row pins that
            // nothing about the torn-down anchor is advertised when the
            // name comes back.
            "RemoveSlot",
            HOT,
            Do::Mount(|m| {
                m.remove(HOT).unwrap();
                m.remove("/t/other").unwrap();
                m.rmdir("/t").unwrap();
            }),
            None,
        ),
        (
            "RenameSlot",
            HOT,
            Do::Mount(|m| m.rename("/t", "/u").unwrap()),
            None,
        ),
    ];
    for (name, hot, action, expect) in rows {
        let dir = hot.rsplit_once('/').expect("absolute").0;
        let c = build_cluster(6, hot_cfg());
        let m = mount(&c, 0);
        m.mkdir_p(dir).unwrap();
        m.write_file(hot, OLD).unwrap();
        m.write_file("/t/other", b"other").unwrap();
        for _ in 0..24 {
            assert_eq!(m.read_file(hot).unwrap(), OLD);
        }
        assert!(
            advertised_hot_holders(&c, "/t", hot) > 0,
            "{name}: the row needs a valid lease in place before the mutation"
        );

        match action {
            Do::Control(ops) => {
                for op in ops {
                    let req = ControlRequest::Mutate { op };
                    control(&c, primary_of(&c, "/t"), &req)
                        .unwrap_or_else(|e| panic!("{name}: {req:?} failed: {e:?}"));
                }
                // The mutation bypassed this koshad, so drop what it cached.
                c.nodes[0].flush_caches();
            }
            Do::Mount(f) => f(&m),
        }
        let expect = match expect {
            Some(bytes) => bytes,
            None => {
                m.mkdir_p(dir).unwrap();
                m.create(hot).unwrap();
                b""
            }
        };

        assert_eq!(
            advertised_hot_holders(&c, "/t", hot),
            0,
            "{name}: a hot-copy lease survived the mutation's reply"
        );
        for turn in 0..24 {
            assert_eq!(
                m.read_file(hot).unwrap(),
                expect,
                "{name}: read {turn} after the mutation returned other bytes"
            );
        }
    }
}

/// A peer's virtual path is joined into a path in the local store, where
/// `..` resolves. Un-normalised, one mirrored write would leave the
/// replica area and land in the holder's *primary* area (it did: the
/// first request below used to reply `Done` and create
/// `/kosha_store/evil/f`). Every service that takes a path refuses one
/// that is not absolute and normalised, before touching anything.
#[test]
fn peer_supplied_paths_cannot_leave_their_slot() {
    use kosha::control::{MigrateItem, MigrateKind};

    let c = build_cluster(1, KoshaConfig::for_tests());
    let node = &c.nodes[0];
    let m = mount(&c, 0);
    m.mkdir_p("/a/b").unwrap();
    let census = |n: &Arc<KoshaNode>| {
        let mut paths = Vec::new();
        n.with_store(|v| v.walk(|p, _| paths.push(p.to_string())));
        paths
    };
    let before = census(node);

    let write = |path: &str| ReplicaOp::Write {
        path: path.into(),
        offset: 0,
        data: b"x".as_slice().into(),
    };
    let item = |rel_path: &str| MigrateItem {
        rel_path: rel_path.into(),
        kind: MigrateKind::Bytes(b"x"[..].into()),
        mode: 0o644,
        uid: 0,
        gid: 0,
    };
    let hostile_paths = [
        "/a/b/../../../../kosha_store/evil/f",
        "/a/b/../f",
        "/a/./f",
        "/a//f",
        "/a/f/",
        "/..",
        "/a/f\0",
        "a/f",
        "",
    ];
    // The check is `normalize(p) == p`, made without building the copy.
    for p in hostile_paths.into_iter().chain(["/", "/a", "/a/..b/.c"]) {
        let fixed_point = kosha_vfs::path::normalize(p).is_ok_and(|n| n == p);
        assert_eq!(kosha::paths::check_vpath(p).is_ok(), fixed_point, "{p:?}");
    }
    let mut to_holders = Vec::new();
    let mut to_primary = Vec::new();
    for path in hostile_paths {
        to_holders.push(ReplicaRequest::ReplicaApply { op: write(path) });
        to_holders.push(ReplicaRequest::ReplicaApplyBatch {
            ops: vec![write(path)],
        });
        to_primary.push(ControlRequest::Mutate { op: write(path) });
        to_holders.push(ReplicaRequest::HotReplicaPush {
            anchor: "/a".into(),
            routing: "a".into(),
            path: path.into(),
            item: item("f"),
        });
    }
    to_holders.push(ReplicaRequest::ReplicaApply {
        op: ReplicaOp::Rename {
            from: "/a/f".into(),
            to: "/a/../../kosha_store/evil".into(),
        },
    });
    for rel_path in ["../../kosha_replica/evil", "b/../../x", "/x", "b//x", "b/"] {
        to_primary.push(ControlRequest::TransferAnchor {
            path: "/a".into(),
            routing: "a".into(),
            items: vec![item(rel_path)],
        });
    }
    for req in &to_holders {
        assert_eq!(replica(&c, node, req), Err(NfsStatus::Inval), "{req:?}");
    }
    for req in &to_primary {
        assert_eq!(control(&c, node, req), Err(NfsStatus::Inval), "{req:?}");
    }
    assert_eq!(census(node), before, "a refused request touched the store");
}

/// A slot travels as items, and every item's `rel_path` is a peer's: the
/// one installer checks them all before it touches anything. A push
/// (`MigrateBatch`) and a migration (`TransferAnchor`) carrying an item
/// that climbs out of its slot are refused with `Inval`. So is a pulled
/// copy: a holder whose `SlotRecord` reply carries one is passed over,
/// and with no other holder the `EnsureAnchor` finds nothing to serve.
/// In every case the receiver's store is as it was.
#[test]
fn items_from_a_peer_land_in_their_slot_or_nowhere() {
    use kosha::control::{KoshaReplyFrame, MigrateItem, MigrateKind};
    use kosha_rpc::WireRead;
    use std::sync::Mutex;

    /// A replica service whose every slot holds the items it is given.
    struct Liar(Arc<Mutex<Vec<MigrateItem>>>);
    impl RpcHandler for Liar {
        fn handle(&self, _from: NodeAddr, body: &[u8]) -> Result<RpcResponse, RpcError> {
            let reply = match ReplicaRequest::decode(body)? {
                ReplicaRequest::SlotRecord { .. } => Ok(KoshaReply::Slot {
                    record: kosha::slots::SlotMeta::default(),
                    items: self.0.lock().unwrap().clone(),
                }),
                _ => Err(NfsStatus::NotSupp),
            };
            Ok(RpcResponse::new(&KoshaReplyFrame { 0: reply }))
        }
    }

    let mut cfg = KoshaConfig::for_tests();
    cfg.distribution_level = 1;
    let c = build_cluster(2, cfg);
    let node = &c.nodes[0];
    mount(&c, 0).mkdir_p("/a").unwrap();
    let lies = Arc::new(Mutex::new(Vec::new()));
    c.muxes[1].register(ServiceId::KoshaReplica, Arc::new(Liar(Arc::clone(&lies))));
    c.net.attach(c.nodes[1].addr(), Arc::clone(&c.muxes[1]));
    let census = || {
        let mut paths = Vec::new();
        node.with_store(|v| v.walk(|p, _| paths.push(p.to_string())));
        paths
    };
    let before = census();

    let item = |rel_path: &str, kind: MigrateKind| MigrateItem {
        rel_path: rel_path.into(),
        kind,
        mode: 0o644,
        uid: 0,
        gid: 0,
    };
    for hostile in [
        "../x",
        "a/../../b",
        "../../kosha_store/evil",
        "/x",
        "a//b",
        "a/",
    ] {
        let items = vec![
            item("", MigrateKind::Dir),
            item("a", MigrateKind::Dir),
            item(hostile, MigrateKind::Bytes(b"x"[..].into())),
        ];
        let push = ReplicaRequest::MigrateBatch {
            path: "/t".into(),
            routing: "t".into(),
            items: items.clone(),
        };
        assert_eq!(replica(&c, node, &push), Err(NfsStatus::Inval), "{hostile}");
        let migration = ControlRequest::TransferAnchor {
            path: "/t".into(),
            routing: "t".into(),
            items: items.clone(),
        };
        assert_eq!(
            control(&c, node, &migration),
            Err(NfsStatus::Inval),
            "{hostile}"
        );
        *lies.lock().unwrap() = items;
        let pull = ControlRequest::EnsureAnchor {
            path: "/t".into(),
            routing: "t".into(),
        };
        assert_eq!(control(&c, node, &pull), Err(NfsStatus::NoEnt), "{hostile}");
        assert_eq!(census(), before, "{hostile} touched the store");
    }
    assert_eq!(node.stats().replica_pulls, 0);
    assert!(node.slot_mismatches().is_empty());
}

/// `apply_op` is one mapping run in two areas: after every kind of
/// mirrored mutation (all ten `ReplicaOp`s a primary sends under `Sync`)
/// each holder's replica slot has the audit digest of the primary's store
/// slot, and slot-level ops rename and remove the holders' slots too.
#[test]
fn every_op_kind_lands_alike_in_store_and_replica_areas() {
    use kosha::paths::{anchor_slot, Area};
    use kosha_vfs::SetAttr;

    let mut cfg = KoshaConfig::for_tests();
    cfg.distribution_level = 1;
    cfg.replicas = 2;
    let c = build_cluster(5, cfg);
    let m = mount(&c, 0);
    let slot_digests = |area: Area, anchor: &str| -> Vec<[u8; 20]> {
        let root = format!("/{}/{}", area.dir_name(), anchor_slot(anchor));
        c.nodes
            .iter()
            .filter_map(|n| n.with_store(|v| v.export_tree(&root).ok()))
            .map(|items| kosha::tree_digest(&items))
            .collect()
    };
    let assert_mirrored = |anchor: &str| {
        let store = slot_digests(Area::Store, anchor);
        assert_eq!(store.len(), 1, "{anchor}: one primary");
        let replicas = slot_digests(Area::Replica, anchor);
        assert_eq!(replicas, vec![store[0]; 2], "{anchor}: K = 2 equal copies");
    };

    m.mkdir_p("/one").unwrap();
    m.mkdir("/one/d").unwrap(); // Mkdir
    m.create("/one/d/empty").unwrap(); // Create
    m.symlink("/one/ln", "d/empty").unwrap(); // Symlink
    m.write_file("/one/d/f", &[7u8; 300]).unwrap(); // Create + Write
    m.write_at("/one/d/f", 100, &[9u8; 50]).unwrap(); // Write
    let shorter = SetAttr {
        size: Some(120),
        mode: Some(0o600),
        ..Default::default()
    };
    m.setattr("/one/d/f", shorter).unwrap(); // SetAttr
    m.rename("/one/d/f", "/one/d/g").unwrap(); // Rename
    m.remove("/one/d/empty").unwrap(); // Remove
    m.mkdir("/one/gone").unwrap();
    m.rmdir("/one/gone").unwrap(); // Rmdir
    assert_mirrored("/one");

    m.rename("/one", "/two").unwrap(); // RenameSlot
    assert_mirrored("/two");
    assert!(slot_digests(Area::Replica, "/one").is_empty());

    m.remove_tree("/two").unwrap(); // ... and RemoveSlot
    assert!(slot_digests(Area::Store, "/two").is_empty());
    assert!(slot_digests(Area::Replica, "/two").is_empty());
}

/// The first of the two policies that tell the areas apart (DESIGN.md
/// §11): what an op needs and does not find is `NoEnt` in the store (the
/// caller raced a removal), or `Stale` if its anchor is not served there
/// (the caller misrouted or holds a location from before a migration),
/// and is made on demand by a holder (a mirrored op may arrive before the
/// push that would have made it) — except the object of a `SetAttr`,
/// which a holder cannot invent.
#[test]
fn what_is_missing_is_noent_in_the_store_and_made_on_a_holder() {
    use kosha::paths::{slot_local_path, Area};
    use kosha_nfs::messages::WireSetAttr;

    let mut cfg = KoshaConfig::for_tests();
    cfg.distribution_level = 1;
    let c = build_cluster(1, cfg);
    let node = &c.nodes[0];
    mount(&c, 0).mkdir_p("/p").unwrap();
    let write = |path: &str| (path.to_string(), 0u64, b"x".as_slice().into());
    let chmod = || WireSetAttr(kosha_vfs::SetAttr::default());

    // No directory /p/q: the store refuses the create and the write...
    let (path, offset, data) = write("/p/q/f");
    let op = ReplicaOp::Write { path, offset, data };
    assert_eq!(
        control(&c, node, &ControlRequest::Mutate { op }),
        Err(NfsStatus::NoEnt)
    );
    // ...an anchor this node does not host is not its to answer for...
    let (path, offset, data) = write("/elsewhere/f");
    let op = ReplicaOp::Write { path, offset, data };
    assert_eq!(
        control(&c, node, &ControlRequest::Mutate { op }),
        Err(NfsStatus::Stale)
    );
    // ...and a holder makes the chain and the file.
    let (path, offset, data) = write("/p/q/f");
    let op = ReplicaOp::Write { path, offset, data };
    assert_eq!(
        replica(&c, node, &ReplicaRequest::ReplicaApply { op }),
        Ok(KoshaReply::Done)
    );
    let landed = slot_local_path(Area::Replica, "/p", "/p/q/f");
    assert!(node.with_store(|v| v.resolve(&landed).is_ok()), "{landed}");

    let op = ReplicaOp::SetAttr {
        path: "/p/q/absent".into(),
        sattr: chmod(),
    };
    assert_eq!(
        replica(&c, node, &ReplicaRequest::ReplicaApply { op }),
        Err(NfsStatus::NoEnt)
    );
}

/// The second policy: an outcome that says the op had already happened
/// (`Exist` on a create, `NoEnt` on a remove or rename) is the caller's
/// error in the store and is absorbed by a holder, so a replayed or
/// re-pushed op is idempotent there.
#[test]
fn what_is_already_done_fails_in_the_store_and_is_absorbed_by_a_holder() {
    let mut cfg = KoshaConfig::for_tests();
    cfg.distribution_level = 1;
    let c = build_cluster(1, cfg);
    let node = &c.nodes[0];
    mount(&c, 0).mkdir_p("/p").unwrap();
    let path = || "/p/f".to_string();
    let create = || ReplicaOp::Create {
        path: path(),
        mode: 0o644,
        uid: 0,
        gid: 0,
    };
    let moved = || ReplicaOp::Rename {
        from: path(),
        to: "/p/g".into(),
    };
    let replay = |op: ReplicaOp| {
        for round in 0..2 {
            let req = ReplicaRequest::ReplicaApply { op: op.clone() };
            assert_eq!(
                replica(&c, node, &req),
                Ok(KoshaReply::Done),
                "{op:?} #{round}"
            );
        }
    };
    replay(create());
    replay(ReplicaOp::Symlink {
        path: "/p/ln".into(),
        target: "f".into(),
        mode: 0o777,
        uid: 0,
        gid: 0,
    });
    replay(moved());
    replay(ReplicaOp::Remove {
        path: "/p/g".into(),
    });
    replay(ReplicaOp::Rmdir {
        path: "/p/d".into(),
    });
    replay(ReplicaOp::RemoveSlot {
        anchor: "/p".into(),
    });

    let file = ControlRequest::Mutate { op: create() };
    assert!(matches!(
        control(&c, node, &file),
        Ok(KoshaReply::Handle { .. })
    ));
    assert_eq!(control(&c, node, &file), Err(NfsStatus::Exist));
    let gone = ControlRequest::Mutate {
        op: ReplicaOp::Remove { path: path() },
    };
    assert_eq!(control(&c, node, &gone), Ok(KoshaReply::Done));
    assert_eq!(control(&c, node, &gone), Err(NfsStatus::NoEnt));
    let rename = ControlRequest::Mutate { op: moved() };
    assert_eq!(control(&c, node, &rename), Err(NfsStatus::NoEnt));
}

/// A slot's record lives beside its directory, and every way a slot
/// moves takes the record along (DESIGN.md §26): after each step below,
/// on every node and in both areas, the record keys are exactly the
/// `@…` slot directories.
#[test]
fn the_record_follows_its_slot() {
    use kosha::control::MigrateItem;
    use kosha::paths::{anchor_slot, slot_local_path, Area};
    use kosha::slots::SlotMeta;

    let c = build_cluster(6, hot_cfg());
    let m = mount(&c, 0);
    let check = |step: &str| {
        for n in &c.nodes {
            let odd = n.slot_mismatches();
            assert!(odd.is_empty(), "{step}: node {} {odd:?}", n.addr());
        }
    };
    let record = |n: &KoshaNode, area: Area, anchor: &str| -> Option<SlotMeta> {
        let slot = anchor_slot(anchor);
        let records = n.slot_records(area);
        records
            .into_iter()
            .find(|(s, _)| *s == slot)
            .map(|(_, m)| m)
    };
    let held_anywhere =
        |area: Area, anchor: &str| c.nodes.iter().any(|n| record(n, area, anchor).is_some());

    // An anchor under a salted routing name, made on the name's owner:
    // the name a promoted copy answers for can only come from its record.
    const ROUTING: &str = "rec#5";
    let owner_addr = c.nodes[0]
        .pastry()
        .route_owner(kosha_id::dir_key(ROUTING))
        .expect("owner")
        .addr;
    let owner = c
        .nodes
        .iter()
        .find(|n| n.addr() == owner_addr)
        .expect("owner node");
    let mkdir = ReplicaOp::MakeSlot {
        anchor: "/rec".into(),
        routing: ROUTING.into(),
        mode: 0o755,
        uid: 0,
        gid: 0,
    };
    control(&c, owner, &ControlRequest::Mutate { op: mkdir }).expect("mkdir anchor");
    let file = ReplicaOp::Create {
        path: "/rec/f".into(),
        mode: 0o644,
        uid: 0,
        gid: 0,
    };
    control(&c, owner, &ControlRequest::Mutate { op: file }).expect("create");
    check("create_anchor and the push");
    let holder = c
        .nodes
        .iter()
        .find(|n| record(n, Area::Replica, "/rec").is_some())
        .expect("a replica holder");
    let pushed = record(holder, Area::Replica, "/rec").expect("record");
    assert_eq!(pushed.routing.as_deref(), Some(ROUTING));

    // Promotion: the request names the unsalted name, as a stale caller
    // might; the promoted copy answers for the record's.
    let ensure = ControlRequest::EnsureAnchor {
        path: "/rec".into(),
        routing: "rec".into(),
    };
    assert_eq!(ensured(&c, holder, &ensure), (1, 0), "promoted");
    let hosted = ("/rec".to_string(), ROUTING.to_string());
    assert!(
        holder.hosted_anchors().contains(&hosted),
        "{:?}",
        holder.hosted_anchors()
    );
    check("promotion");

    // Transfer and demotion: the key belongs to `owner`, so maintenance
    // hands the anchor back and drops the store copy; the replica left
    // here is the one the owner's push brought, this node being a target.
    holder.maintain();
    assert!(!holder.hosted_anchors().contains(&hosted));
    assert_eq!(holder.stats().migrations_out, 1);
    let demoted = record(holder, Area::Replica, "/rec").expect("demoted record");
    assert_eq!(demoted.routing.as_deref(), Some(ROUTING));
    check("transfer and demotion");

    // Pull: a node holding no copy is asked to serve the anchor, copies
    // a neighbour's replica over NFS and fetches its record.
    let puller = c
        .nodes
        .iter()
        .find(|n| {
            record(n, Area::Store, "/rec").is_none() && record(n, Area::Replica, "/rec").is_none()
        })
        .expect("a node holding no copy");
    assert_eq!(ensured(&c, puller, &ensure), (0, 1), "pulled");
    assert_eq!(puller.stats().replica_pulls, 1);
    assert!(
        puller.hosted_anchors().contains(&hosted),
        "{:?}",
        puller.hosted_anchors()
    );
    check("pull");

    // RenameSlot, then RemoveSlot, in the store and on the holders.
    m.mkdir_p("/ren").unwrap();
    m.write_file("/ren/f", b"x").unwrap();
    m.rename("/ren", "/ren2").unwrap();
    assert!(!held_anywhere(Area::Replica, "/ren") && held_anywhere(Area::Replica, "/ren2"));
    check("RenameSlot");
    m.remove("/ren2/f").unwrap();
    m.rmdir("/ren2").unwrap();
    assert!(!held_anywhere(Area::Store, "/ren2") && !held_anywhere(Area::Replica, "/ren2"));
    check("RemoveSlot");

    // GC: a full copy planted on a node that is no target is dropped.
    m.mkdir_p("/gc").unwrap();
    m.write_file("/gc/f", b"y").unwrap();
    let primary = primary_of(&c, "/gc");
    let stray = c
        .nodes
        .iter()
        .find(|n| n.addr() != primary.addr() && record(n, Area::Replica, "/gc").is_none())
        .expect("a node holding no copy");
    let slot_path = slot_local_path(Area::Store, "/gc", "/gc");
    let exported = primary
        .with_store(|v| v.export_tree(&slot_path))
        .expect("export");
    let plant = ReplicaRequest::MigrateBatch {
        path: "/gc".into(),
        routing: "gc".into(),
        items: exported.into_iter().map(MigrateItem::from).collect(),
    };
    replica(&c, stray, &plant).expect("plant");
    check("MigrateBatch");
    assert_eq!(stray.gc_replica_slots(), 1);
    assert!(record(stray, Area::Replica, "/gc").is_none());
    check("GC");

    // A hot push makes slots with leases; shedding drops them again.
    m.mkdir_p("/zipf").unwrap();
    m.write_file("/zipf/hot.bin", &[9u8; 64]).unwrap();
    for _ in 0..24 {
        m.read_file("/zipf/hot.bin").unwrap();
    }
    assert!(hot_mark_holders(&c) > 0, "no hot copy was pushed");
    check("hot push");
    c.net
        .virtual_clock()
        .advance(std::time::Duration::from_secs(600));
    for node in &c.nodes {
        node.maintain();
    }
    assert_eq!(hot_mark_holders(&c), 0, "a lease survived shedding");
    check("hot drop");

    // Purge wipes the records with the store; repair refills both.
    let victim = c.nodes[1..]
        .iter()
        .find(|n| !n.slot_records(Area::Store).is_empty())
        .expect("a node hosting a slot");
    victim.purge();
    assert!(victim.slot_records(Area::Store).is_empty());
    assert!(victim.slot_records(Area::Replica).is_empty());
    check("purge");
    for node in &c.nodes {
        node.maintain();
    }
    check("repair after the purge");
}

/// A holder that lacks what a removal names, its parent or the whole slot
/// has nothing to remove: the op is already done, and it makes nothing
/// on the way (it once made the slot's directory chain, and so an empty
/// slot with no routing name that replica GC could never drop). Only an
/// op that puts something into the slot makes what is missing.
#[test]
fn a_removal_mirrored_to_a_holder_without_the_slot_makes_nothing() {
    use kosha::paths::Area;
    use kosha_nfs::messages::WireSetAttr;

    let mut cfg = KoshaConfig::for_tests();
    cfg.distribution_level = 1;
    let c = build_cluster(1, cfg);
    let node = &c.nodes[0];
    mount(&c, 0).mkdir_p("/p").unwrap();
    let replica_slots = || {
        node.with_store(|v| {
            let (area, _) = v.resolve("/kosha_replica").expect("replica area");
            v.readdir(area).expect("readdir").len()
        })
    };
    let nothing_made = |what: &str| {
        assert_eq!(replica_slots(), 0, "{what} made a slot");
        assert!(
            node.slot_records(Area::Replica).is_empty(),
            "{what} left a record"
        );
        assert!(node.slot_mismatches().is_empty(), "{what}");
    };
    nothing_made("mkdir of the anchor");
    let removals = [
        ReplicaOp::Remove {
            path: "/p/f".into(),
        },
        ReplicaOp::Rmdir {
            path: "/p/d".into(),
        },
        ReplicaOp::Remove {
            path: "/p/q/deep".into(),
        },
        ReplicaOp::Rename {
            from: "/p/q/f".into(),
            to: "/p/r/g".into(),
        },
        ReplicaOp::RemoveSlot {
            anchor: "/p".into(),
        },
        ReplicaOp::LagMark {
            anchor: "/p".into(),
            bytes: 0,
        },
    ];
    for op in removals {
        let what = format!("{op:?}");
        let req = ReplicaRequest::ReplicaApply { op };
        assert_eq!(replica(&c, node, &req), Ok(KoshaReply::Done), "{what}");
        nothing_made(&what);
    }
    // A SetAttr cannot invent its object, and makes no parent for it.
    let op = ReplicaOp::SetAttr {
        path: "/p/q/f".into(),
        sattr: WireSetAttr(kosha_vfs::SetAttr::default()),
    };
    let req = ReplicaRequest::ReplicaApply { op };
    assert_eq!(replica(&c, node, &req), Err(NfsStatus::NoEnt));
    nothing_made("SetAttr");
}

/// Swaps every node's handler of `service` for one that records each
/// request it receives, with the receiving node, and then serves it
/// (re-attaching the node, which is when a transport takes its handlers).
fn record_requests<R: kosha_rpc::WireRead + Send + 'static>(
    c: &Cluster,
    service: ServiceId,
) -> Arc<std::sync::Mutex<Vec<(NodeAddr, R)>>> {
    struct Recording<R> {
        addr: NodeAddr,
        inner: Arc<dyn RpcHandler>,
        seen: Arc<std::sync::Mutex<Vec<(NodeAddr, R)>>>,
    }
    impl<R: kosha_rpc::WireRead + Send + 'static> RpcHandler for Recording<R> {
        fn handle(&self, from: NodeAddr, body: &[u8]) -> Result<RpcResponse, RpcError> {
            if let Ok(req) = R::decode(body) {
                self.seen.lock().unwrap().push((self.addr, req));
            }
            self.inner.handle(from, body)
        }
    }
    let seen = Arc::default();
    for (node, mux) in c.nodes.iter().zip(&c.muxes) {
        let inner = mux.handler(service).expect("service");
        let recording = Recording {
            addr: node.addr(),
            inner,
            seen: Arc::clone(&seen),
        };
        mux.register(service, Arc::new(recording));
        c.net.attach(node.addr(), Arc::clone(mux));
    }
    seen
}

/// The record of `anchor`'s slot in `area` on `n`.
fn slot_record(
    n: &KoshaNode,
    area: kosha::paths::Area,
    anchor: &str,
) -> Option<kosha::slots::SlotMeta> {
    let slot = kosha::paths::anchor_slot(anchor);
    let records = n.slot_records(area);
    records
        .into_iter()
        .find(|(s, _)| *s == slot)
        .map(|(_, m)| m)
}

/// A distributed MKDIR mirrors `MakeSlot` to the new anchor's holders in
/// place of the full push of an empty slot, and leaves each holder what
/// that push left: the slot root alone, and a record with the routing
/// name, no lag and no push in progress. The audit finds the copies
/// current, and so does the next maintenance pass, which pushes nothing
/// for the new anchor (the primary primed its push memo with the empty
/// slot's digest).
#[test]
fn a_new_anchor_reaches_its_holders_as_the_slot_a_push_made() {
    use kosha::paths::{anchor_slot, Area};
    use kosha::slots::SlotMeta;
    use kosha::{audit_cluster, AuditOptions};
    use kosha_vfs::ExportKind;

    let mut cfg = KoshaConfig::for_tests();
    cfg.distribution_level = 2;
    cfg.replicas = 2;
    let c = build_cluster(8, cfg);
    let m = mount(&c, 0);
    m.mkdir_p("/warm").unwrap();
    let seen = record_requests::<ReplicaRequest>(&c, ServiceId::KoshaReplica);
    m.mkdir("/t1").unwrap();

    let routing = primary_of(&c, "/t1")
        .hosted_anchors()
        .into_iter()
        .find(|(p, _)| p == "/t1")
        .expect("hosted")
        .1;
    let holders: Vec<NodeAddr> = seen
        .lock()
        .unwrap()
        .iter()
        .filter_map(|(to, req)| match req {
            ReplicaRequest::ReplicaApply {
                op: ReplicaOp::MakeSlot { anchor, .. },
            } if anchor == "/t1" => Some(*to),
            _ => None,
        })
        .collect();
    assert_eq!(holders.len(), 2, "one MakeSlot per holder");
    let pushes = |seen: &[(NodeAddr, ReplicaRequest)]| {
        let pushed = |req: &ReplicaRequest| matches!(req, ReplicaRequest::MigrateBatch { path, .. } if path == "/t1");
        seen.iter().filter(|(_, req)| pushed(req)).count()
    };
    assert_eq!(
        pushes(&seen.lock().unwrap()),
        0,
        "no push of the empty slot"
    );

    let pushed_record = SlotMeta {
        routing: Some(routing),
        ..SlotMeta::default()
    };
    let root = format!("/kosha_replica/{}", anchor_slot("/t1"));
    for addr in holders {
        let holder = c.nodes.iter().find(|n| n.addr() == addr).expect("holder");
        assert_eq!(
            slot_record(holder, Area::Replica, "/t1"),
            Some(pushed_record.clone())
        );
        let tree = holder.with_store(|v| v.export_tree(&root)).expect("slot");
        assert_eq!(tree.len(), 1, "the slot root alone");
        let it = &tree[0];
        assert!(matches!(it.kind, ExportKind::Dir));
        assert_eq!((it.mode, it.uid, it.gid), (0o700, 0, 0));
        assert!(holder.slot_mismatches().is_empty());
    }

    let peers: Vec<NodeAddr> = c.nodes.iter().map(|n| n.addr()).collect();
    let opts = AuditOptions {
        replicas: 2,
        ..AuditOptions::default()
    };
    let report = audit_cluster(&*c.net, peers[0], &peers, 0, &opts);
    assert_eq!(report.objects_divergent, 0, "{report:?}");
    assert_eq!(report.under_replicated, 0, "{report:?}");

    seen.lock().unwrap().clear();
    for n in &c.nodes {
        n.maintain();
    }
    assert_eq!(
        pushes(&seen.lock().unwrap()),
        0,
        "maintenance pushed the new anchor"
    );
}

/// True if `op` puts something into, or changes something in, `anchor`'s
/// slot below its root.
fn lands_below(op: &kosha::control::ReplicaOp, anchor: &str) -> bool {
    let path = match op {
        ReplicaOp::Mkdir { path, .. }
        | ReplicaOp::Create { path, .. }
        | ReplicaOp::Symlink { path, .. }
        | ReplicaOp::Write { path, .. }
        | ReplicaOp::SetAttr { path, .. }
        | ReplicaOp::Remove { path }
        | ReplicaOp::Rmdir { path }
        | ReplicaOp::Rename { from: path, .. } => path,
        _ => return false,
    };
    path.strip_prefix(anchor)
        .is_some_and(|rest| rest.starts_with('/'))
}

/// Under write-behind the new anchor's `MakeSlot` is queued like every
/// other mutation, and it reaches each holder before any op that lands
/// in the slot it makes (the only thing ahead of it is the synchronous
/// lag stamp that opens the window). After the COMMIT barrier each
/// holder's copy is the primary's, and its record is what a push left.
#[test]
fn under_write_behind_the_queued_make_slot_arrives_before_what_lands_in_it() {
    use kosha::paths::{anchor_slot, Area};
    use kosha::slots::SlotMeta;

    let mut cfg = KoshaConfig::for_tests();
    cfg.distribution_level = 1;
    cfg.replicas = 2;
    cfg.replication_mode = kosha::ReplicationMode::WriteBehind { queue_ops: 256 };
    let c = build_cluster(6, cfg);
    let m = mount(&c, 0);
    m.stat("/").unwrap();
    let seen = record_requests::<ReplicaRequest>(&c, ServiceId::KoshaReplica);
    m.mkdir("/wb").unwrap();
    m.write_file("/wb/f", b"queued").unwrap();
    m.mkdir("/wb/d").unwrap();
    m.commit("/wb/f").unwrap();

    let primary = primary_of(&c, "/wb");
    let routing = primary
        .hosted_anchors()
        .into_iter()
        .find(|(p, _)| p == "/wb")
        .expect("hosted")
        .1;
    let slot = format!("/{}", anchor_slot("/wb"));
    let digest = |n: &KoshaNode, area: Area| {
        let root = format!("/{}{slot}", area.dir_name());
        n.with_store(|v| v.export_tree(&root).ok().map(|t| kosha::tree_digest(&t)))
    };
    let mut holders = 0;
    for holder in c
        .nodes
        .iter()
        .filter(|n| slot_record(n, Area::Replica, "/wb").is_some())
    {
        holders += 1;
        let ops: Vec<ReplicaOp> = seen
            .lock()
            .unwrap()
            .iter()
            .filter(|(to, _)| *to == holder.addr())
            .flat_map(|(_, req)| match req {
                ReplicaRequest::ReplicaApply { op } => vec![op.clone()],
                ReplicaRequest::ReplicaApplyBatch { ops } => ops.clone(),
                _ => Vec::new(),
            })
            .collect();
        let made = ops
            .iter()
            .position(|op| matches!(op, ReplicaOp::MakeSlot { anchor, .. } if anchor == "/wb"))
            .expect("the MakeSlot reached the holder");
        let first_in = ops
            .iter()
            .position(|op| lands_below(op, "/wb"))
            .expect("the file's ops reached the holder");
        assert!(made < first_in, "{ops:?}");
        assert!(
            ops[..made]
                .iter()
                .all(|op| matches!(op, ReplicaOp::LagMark { .. }) || !lands_below(op, "/wb")),
            "{ops:?}"
        );
        let record = SlotMeta {
            routing: Some(routing.clone()),
            ..SlotMeta::default()
        };
        assert_eq!(slot_record(holder, Area::Replica, "/wb"), Some(record));
        assert_eq!(digest(holder, Area::Replica), digest(primary, Area::Store));
        assert!(holder.slot_mismatches().is_empty());
    }
    assert_eq!(holders, 2);
}

/// The slot index finds every slot through each way a slot moves, and a
/// root id gone stale behind koshad's back falls back to the walk by
/// name. After every step, on every live node, `slot_mismatches` (which
/// recomputes the index from the records and the store) is empty, and
/// the files read back through the mount.
#[test]
fn the_slot_index_follows_every_move_and_survives_a_stale_root() {
    use kosha::control::MigrateItem;
    use kosha::paths::{anchor_slot, slot_local_path, Area};

    let mut cfg = KoshaConfig::for_tests();
    cfg.distribution_level = 1;
    cfg.replicas = 2;
    let c = build_cluster(6, cfg);
    let m = mount(&c, 0);
    let coherent = |step: &str| {
        for n in c.nodes.iter().filter(|n| c.net.is_up(n.addr())) {
            let odd = n.slot_mismatches();
            assert!(odd.is_empty(), "{step}: node {} {odd:?}", n.addr());
        }
    };
    // An anchor whose primary is not the mount's own node, so that node
    // can fail.
    let anchor = (0..16)
        .map(|i| format!("/a{i}"))
        .find(|a| {
            m.mkdir_p(a).unwrap();
            primary_of(&c, a).addr() != c.nodes[0].addr()
        })
        .expect("an anchor hosted elsewhere");
    m.write_file(&format!("{anchor}/f"), b"one").unwrap();
    coherent("mkdir");

    // Promotion (`slot_move`): the primary fails, a holder takes over, and
    // the next write lands in the moved slot.
    c.net.fail_node(primary_of(&c, &anchor).addr());
    assert_eq!(m.read_file(&format!("{anchor}/f")).unwrap(), b"one");
    m.write_file(&format!("{anchor}/g"), b"two").unwrap();
    assert_eq!(m.read_file(&format!("{anchor}/g")).unwrap(), b"two");
    coherent("promotion");

    // RenameSlot: the index moves to the new anchor name.
    m.rename(&anchor, "/b").unwrap();
    m.write_file("/b/h", b"three").unwrap();
    assert_eq!(m.read_file("/b/f").unwrap(), b"one");
    coherent("RenameSlot");

    // RemoveSlot, then a new slot under the same name.
    for f in ["/b/f", "/b/g", "/b/h"] {
        m.remove(f).unwrap();
    }
    m.rmdir("/b").unwrap();
    coherent("RemoveSlot");
    m.mkdir("/b").unwrap();
    m.write_file("/b/new", b"four").unwrap();
    assert_eq!(m.read_file("/b/new").unwrap(), b"four");
    coherent("a new slot under a removed one's name");

    // Replica GC (`slot_discard`) of a copy planted on a node that is no
    // target.
    let primary = primary_of(&c, "/b");
    let stray = c
        .nodes
        .iter()
        .find(|n| {
            c.net.is_up(n.addr())
                && n.addr() != primary.addr()
                && slot_record(n, Area::Replica, "/b").is_none()
        })
        .expect("a node holding no copy");
    let exported = primary
        .with_store(|v| v.export_tree(&slot_local_path(Area::Store, "/b", "/b")))
        .expect("export");
    let plant = ReplicaRequest::MigrateBatch {
        path: "/b".into(),
        routing: "b".into(),
        items: exported.into_iter().map(MigrateItem::from).collect(),
    };
    replica(&c, stray, &plant).expect("plant");
    coherent("MigrateBatch");
    assert!(stray.gc_replica_slots() >= 1);
    assert!(slot_record(stray, Area::Replica, "/b").is_none());
    coherent("GC");

    // A holder's slot root removed behind koshad's back: the index's root
    // id is stale, and the check says so. The next mirrored op falls back
    // to the slot's name and makes it again, and the index follows.
    let holder = c
        .nodes
        .iter()
        .find(|n| c.net.is_up(n.addr()) && slot_record(n, Area::Replica, "/b").is_some())
        .expect("a holder");
    holder.with_store(|v| {
        let (area, _) = v.resolve("/kosha_replica").expect("replica area");
        v.remove_tree(area, &anchor_slot("/b")).expect("slot");
    });
    assert!(!holder.slot_mismatches().is_empty(), "a stale root id");
    m.write_file("/b/after", b"five").unwrap();
    let landed = slot_local_path(Area::Replica, "/b", "/b/after");
    assert!(
        holder.with_store(|v| v.resolve(&landed).is_ok()),
        "{landed}"
    );
    coherent("a stale root, found again by name");

    // The same behind the primary's back: its store has no slot to serve,
    // so the write fails, and nothing panics.
    let primary = primary_of(&c, "/b");
    primary.with_store(|v| {
        let (area, _) = v.resolve("/kosha_store").expect("store area");
        v.remove_tree(area, &anchor_slot("/b")).expect("slot");
    });
    assert!(m.write_file("/b/lost", b"six").is_err());

    // Purge wipes slots, records and index together; repair refills them.
    primary.purge();
    coherent("purge");
    for n in c.nodes.iter().filter(|n| c.net.is_up(n.addr())) {
        n.maintain();
    }
    coherent("repair after the purge");
    assert_eq!(m.read_file("/b/after").unwrap(), b"five");
}

/// Which anchors a node serves is a fact of its store: a store slot whose
/// record names a routing name. A `TransferAnchor` names its slot only
/// once every item has landed, so a transfer the receiver cuts short (an
/// item whose parent is a file: `Inval`, the items before it landed)
/// leaves a store slot whose record names none. The anchor is missing
/// from `hosted_anchors`, a store op on it is `Stale` and
/// `slot_mismatches` reports it. A whole transfer names it and it is
/// served, and an `EnsureAnchor` on a slot left cut short adopts the
/// routing name it is sent.
#[test]
fn a_transfer_cut_short_is_not_served() {
    use kosha::control::{MigrateItem, MigrateKind};

    let mut cfg = KoshaConfig::for_tests();
    cfg.distribution_level = 1;
    let c = build_cluster(1, cfg);
    let node = &c.nodes[0];
    mount(&c, 0).mkdir_p("/").unwrap();
    let served = |anchor: &str| node.hosted_anchors().into_iter().find(|(a, _)| a == anchor);
    let file = |rel_path: &str| MigrateItem {
        rel_path: rel_path.into(),
        kind: MigrateKind::Bytes(b"moved"[..].into()),
        mode: 0o644,
        uid: 0,
        gid: 0,
    };
    let transfer = |anchor: &str, items: Vec<MigrateItem>| {
        let req = ControlRequest::TransferAnchor {
            path: anchor.into(),
            routing: format!("{}#3", &anchor[1..]),
            items,
        };
        control(&c, node, &req)
    };
    let cut_short = |anchor: &str| {
        let refused = transfer(anchor, vec![file("f"), file("f/g")]);
        assert_eq!(refused, Err(NfsStatus::Inval));
    };
    let write = |path: &str| {
        let op = ReplicaOp::Write {
            path: path.into(),
            offset: 0,
            data: b"new"[..].into(),
        };
        control(&c, node, &ControlRequest::Mutate { op })
    };

    cut_short("/t");
    assert_eq!(served("/t"), None);
    assert_eq!(write("/t/f"), Err(NfsStatus::Stale));
    let odd = node.slot_mismatches();
    assert_eq!(odd.len(), 1, "{odd:?}");
    assert!(odd[0].ends_with("no routing name"), "{odd:?}");

    assert_eq!(transfer("/t", vec![file("f")]), Ok(KoshaReply::Done));
    assert_eq!(served("/t"), Some(("/t".into(), "t#3".into())));
    assert_eq!(write("/t/f"), Ok(KoshaReply::Done));
    assert!(node.slot_mismatches().is_empty());

    // Cut short, and never resent. The owner's `EnsureAnchor` names the
    // slot.
    cut_short("/u");
    assert_eq!(served("/u"), None);
    let ensure = ControlRequest::EnsureAnchor {
        path: "/u".into(),
        routing: "u#1".into(),
    };
    assert_eq!(
        ensured(&c, node, &ensure),
        (0, 0),
        "neither promoted nor pulled"
    );
    assert_eq!(served("/u"), Some(("/u".into(), "u#1".into())));
    assert!(node.slot_mismatches().is_empty());
    assert_eq!(write("/u/f"), Ok(KoshaReply::Done));
}

/// What one migration and one pull of an N-item slot put on the wire. A
/// migration is one `TransferAnchor` carrying all N items, then the new
/// owner's push to its K targets. A pull is one `SlotRecord` to each leaf
/// member asked, up to the first that holds a copy, then the puller's
/// push to its K targets. Neither sends an NFS request.
#[test]
fn one_migration_and_one_pull_send_a_pinned_number_of_rpcs() {
    use kosha::paths::Area;

    let mut cfg = KoshaConfig::for_tests();
    cfg.distribution_level = 1;
    cfg.replicas = 2;
    let c = build_cluster(6, cfg);
    let m = mount(&c, 0);
    m.mkdir_p("/mv/d").unwrap();
    for i in 0..3u8 {
        m.write_file(&format!("/mv/d/f{i}"), &[i; 100]).unwrap();
    }
    m.write_file("/mv/g", b"g").unwrap();
    // The slot root, `d`, the three files in it, and `g`.
    const N: usize = 6;
    const K: usize = 2;
    let owner = Arc::clone(primary_of(&c, "/mv"));
    let ensure = ControlRequest::EnsureAnchor {
        path: "/mv".into(),
        routing: "mv".into(),
    };

    // Migration: a holder serves the anchor, and maintenance hands it
    // back to the key's owner.
    let holder = c
        .nodes
        .iter()
        .find(|n| slot_record(n, Area::Replica, "/mv").is_some())
        .expect("a holder");
    assert_eq!(ensured(&c, holder, &ensure), (1, 0), "promoted");
    let control_log = record_requests::<ControlRequest>(&c, ServiceId::Kosha);
    let replica_log = record_requests::<ReplicaRequest>(&c, ServiceId::KoshaReplica);
    let nfs_before = calls(&c)[1];
    holder.maintain();
    assert_eq!(calls(&c)[1], nfs_before, "a migration sends no NFS request");
    let transfers: Vec<usize> = control_log
        .lock()
        .unwrap()
        .iter()
        .filter_map(|(to, req)| match req {
            ControlRequest::TransferAnchor { path, items, .. } if path == "/mv" => {
                assert_eq!(*to, owner.addr());
                Some(items.len())
            }
            _ => None,
        })
        .collect();
    assert_eq!(transfers, [N]);
    let pushes = |log: &[(NodeAddr, ReplicaRequest)]| {
        let pushed = |(_, r): &&(NodeAddr, ReplicaRequest)| matches!(r, ReplicaRequest::MigrateBatch { path, .. } if path == "/mv");
        log.iter().filter(pushed).count()
    };
    assert_eq!(pushes(&replica_log.lock().unwrap()), K);

    // Pull: a node with no copy is asked to serve the anchor.
    let puller = c
        .nodes
        .iter()
        .find(|n| {
            slot_record(n, Area::Store, "/mv").is_none()
                && slot_record(n, Area::Replica, "/mv").is_none()
        })
        .expect("a node holding no copy");
    let holds = |a: NodeAddr| {
        let n = c.nodes.iter().find(|n| n.addr() == a).expect("member");
        slot_record(n, Area::Replica, "/mv").is_some()
    };
    let members = puller.pastry().leaf_members();
    let asked = 1 + members
        .iter()
        .position(|m| holds(m.addr))
        .expect("a holder");
    replica_log.lock().unwrap().clear();
    let before = calls(&c);
    assert_eq!(ensured(&c, puller, &ensure), (0, 1), "pulled");
    let after = calls(&c);
    let sent = [0, 1, 2, 3, 4].map(|i| after[i] - before[i]);
    // pastry, nfs, kosha (the `EnsureAnchor` itself), koshafs, replica.
    assert_eq!(sent, [0, 0, 1, 0, (asked + K) as u64]);
    let log = replica_log.lock().unwrap();
    let records = log
        .iter()
        .filter(|(_, r)| matches!(r, ReplicaRequest::SlotRecord { .. }));
    assert_eq!((records.count(), pushes(&log)), (asked, K));
    assert_eq!(m.read_file("/mv/d/f2").unwrap(), [2u8; 100]);
}

/// The primary takes one `Mutate` for every kind of mutation, so it
/// checks what a koshad may ask of it: each op below, none of which
/// koshad sends, is refused with its status and changes nothing on the
/// primary or on any holder, and the audit then finds every copy whole.
/// A special link stands for a directory: REMOVE refuses it, and the
/// RMDIR of a distributed directory takes it, on the parent's primary
/// and on its K holders.
#[test]
fn the_primary_refuses_what_a_koshad_may_not_ask() {
    use kosha::paths::{slot_local_path, Area};
    use kosha::{audit_cluster, AuditOptions, AuditReport};

    let mut cfg = KoshaConfig::for_tests();
    cfg.distribution_level = 1;
    cfg.replicas = 2;
    let c = build_cluster(5, cfg);
    let m = mount(&c, 0);
    m.mkdir_p("/full").unwrap();
    m.write_file("/full/f", b"kept").unwrap();
    m.mkdir_p("/d").unwrap();
    let census = || -> Vec<Vec<(String, u64)>> {
        let tree = |n: &Arc<KoshaNode>| {
            let mut tree = Vec::new();
            n.with_store(|v| v.walk(|p, a| tree.push((p.to_string(), a.size))));
            tree
        };
        c.nodes.iter().map(tree).collect()
    };
    let before = census();

    let root = primary_of(&c, "/");
    let owner = primary_of(&c, "/full");
    let elsewhere = c.nodes.iter().find(|n| n.addr() != owner.addr()).unwrap();
    // A node at its redirection utilization: its store is as large as
    // what it holds.
    let capacity = owner.with_store(|v| v.capacity());
    owner.with_store(|v| v.set_capacity(v.used_bytes()));
    let cases = [
        (
            owner,
            ReplicaOp::LagMark {
                anchor: "/full".into(),
                bytes: 4096,
            },
            NfsStatus::NotSupp,
        ),
        (
            owner,
            ReplicaOp::Symlink {
                path: "/full/ln".into(),
                target: "f".into(),
                mode: 0o644,
                uid: 0,
                gid: 0,
            },
            NfsStatus::Inval,
        ),
        (
            root,
            ReplicaOp::Remove {
                path: "/full".into(),
            },
            NfsStatus::IsDir,
        ),
        (
            owner,
            ReplicaOp::RemoveSlot {
                anchor: "/full".into(),
            },
            NfsStatus::NotEmpty,
        ),
        (
            elsewhere,
            ReplicaOp::RenameSlot {
                from: "/full".into(),
                to: "/moved".into(),
            },
            NfsStatus::Stale,
        ),
        (
            owner,
            ReplicaOp::MakeSlot {
                anchor: "/new".into(),
                routing: "new".into(),
                mode: 0o755,
                uid: 0,
                gid: 0,
            },
            NfsStatus::NoSpc,
        ),
    ];
    for (node, op, status) in cases {
        let req = ControlRequest::Mutate { op };
        assert_eq!(control(&c, node, &req), Err(status), "{req:?}");
    }
    owner.with_store(|v| v.set_capacity(capacity));
    assert_eq!(census(), before, "a refused mutation changed a store");
    let peers: Vec<NodeAddr> = c.nodes.iter().map(|n| n.addr()).collect();
    let opts = AuditOptions {
        replicas: 2,
        ..AuditOptions::default()
    };
    let report = audit_cluster(&*c.net, peers[0], &peers, 0, &opts);
    let whole = AuditReport {
        nodes_scanned: 5,
        objects: report.objects,
        replica_copies: report.objects * 2,
        ..AuditReport::default()
    };
    assert_eq!(report, whole);

    // The link lives in the root's slot, on its primary and K holders.
    let link = |area: Area, n: &Arc<KoshaNode>| {
        let path = slot_local_path(area, "/", "/d");
        n.with_store(|v| v.resolve(&path).is_ok())
    };
    let holders = || c.nodes.iter().filter(|n| link(Area::Replica, n)).count();
    assert!(link(Area::Store, root));
    assert_eq!(holders(), 2);
    let seen = record_requests::<ControlRequest>(&c, ServiceId::Kosha);
    m.rmdir("/d").unwrap();
    assert!(!link(Area::Store, root), "the primary keeps the link");
    assert_eq!(holders(), 0, "a holder keeps the link");
    let rmdir = ControlRequest::Mutate {
        op: ReplicaOp::Rmdir { path: "/d".into() },
    };
    assert!(seen.lock().unwrap().contains(&(root.addr(), rmdir)));
}
