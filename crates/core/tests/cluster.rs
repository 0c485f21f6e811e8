//! End-to-end tests of the full Kosha stack on a simulated cluster:
//! overlay + NFS stores + koshad interposition + replication + failover.

use kosha::{KoshaConfig, KoshaMount, KoshaNode};
use kosha_id::node_id_from_seed;
use kosha_nfs::{NfsError, NfsStatus};
use kosha_rpc::{Clock, LatencyModel, Network, NodeAddr, SimNetwork};
use kosha_vfs::FileType;
use std::sync::Arc;

struct Cluster {
    net: Arc<SimNetwork>,
    nodes: Vec<Arc<KoshaNode>>,
}

fn build_cluster(n: usize, cfg: KoshaConfig) -> Cluster {
    build_cluster_on(SimNetwork::new_zero_latency(), n, cfg)
}

fn build_cluster_on(net: Arc<SimNetwork>, n: usize, cfg: KoshaConfig) -> Cluster {
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
    cfg.redirect_attempts = 8;
    cfg.redirect_utilization = 0.5;
    cfg.contributed_bytes = 8192; // tiny stores force redirection
    let c = build_cluster(6, cfg);
    let m = mount(&c, 0);
    // Fill nodes with directories until redirection must kick in: create
    // many dirs with a file each; with 8 KiB stores and 3 KiB files,
    // nodes fill after ~1 directory.
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
    let mut new_nodes = Vec::new();
    for i in 3..8 {
        let id = node_id_from_seed(&format!("kosha-host-{i}"));
        let (node, mux) = KoshaNode::build(
            cfg.clone(),
            id,
            NodeAddr(i as u64),
            c.net.clone() as Arc<dyn Network>,
        );
        c.net.attach(node.addr(), mux);
        node.join(Some(NodeAddr(0))).unwrap();
        new_nodes.push(node);
    }
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
    // Replication pushed copies somewhere.
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
    cfg.read_from_replicas = true;
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
    cfg.read_from_replicas = true;
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

#[test]
fn replica_reads_fall_back_when_replicas_fail() {
    let mut cfg = KoshaConfig::for_tests();
    cfg.distribution_level = 1;
    cfg.replicas = 2;
    cfg.read_from_replicas = true;
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
    // (crates/core/src/ops.rs, place_with_redirection), so it stays at
    // zero under roomy defaults; this scenario forces the full-node path.
    let mut cfg = KoshaConfig::for_tests();
    cfg.distribution_level = 1;
    cfg.replicas = 0;
    cfg.redirect_attempts = 8;
    cfg.redirect_utilization = 0.5;
    cfg.contributed_bytes = 8192; // tiny stores force redirection
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
    cfg.read_from_replicas = true;
    cfg.hot_replicas = 2;
    // Three reads of the same object cross the threshold in these tests.
    cfg.hot_threshold_milli = 3000;
    cfg
}

fn hot_copies_total(c: &Cluster) -> i64 {
    c.nodes
        .iter()
        .map(|n| n.obs().registry.gauge("kosha_hot_copies").get())
        .sum()
}

fn hot_mark_holders(c: &Cluster) -> usize {
    let mut holders = 0;
    for node in &c.nodes {
        let mut has_mark = false;
        node.with_store(|v| {
            v.walk(|p, _| {
                if p.starts_with("/kosha_replica") && p.ends_with(".kosha_hot") {
                    has_mark = true;
                }
            })
        });
        if has_mark {
            holders += 1;
        }
    }
    holders
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
    let pushes: u64 = c.nodes.iter().map(|n| n.stats().hot_pushes).sum();
    assert!(pushes > 0, "hot spot never spawned a cached copy");
    assert!(hot_copies_total(&c) > 0, "hot-copy gauge stayed zero");
    assert!(
        hot_mark_holders(&c) > 0,
        "no holder carries a .kosha_hot lease marker"
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
    let pushes: u64 = c.nodes.iter().map(|n| n.stats().hot_pushes).sum();
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

    // ...so in the window before any refresh, every rotor position must
    // already serve the new bytes (stale holders are not advertised).
    for _ in 0..24 {
        assert_eq!(m.read_file("/inv/doc").unwrap(), b"version two");
    }

    // After the flush barrier re-pushes fresh payload under a new
    // lease, reads keep returning the new bytes from every position.
    c.net.run_pumps();
    for _ in 0..24 {
        assert_eq!(m.read_file("/inv/doc").unwrap(), b"version two");
    }
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

/// Sends one request to a service of `node` and decodes the reply frame.
fn send(
    c: &Cluster,
    node: &Arc<KoshaNode>,
    service: kosha_rpc::ServiceId,
    req: &kosha::control::KoshaRequest,
) -> Result<kosha::control::KoshaReply, NfsStatus> {
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
    req: &kosha::control::KoshaRequest,
) -> Result<kosha::control::KoshaReply, NfsStatus> {
    send(c, node, kosha_rpc::ServiceId::Kosha, req)
}

/// Sends one request to `node`'s replica service, as a primary would.
fn replica(
    c: &Cluster,
    node: &Arc<KoshaNode>,
    req: &kosha::control::KoshaRequest,
) -> Result<kosha::control::KoshaReply, NfsStatus> {
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
    use kosha::control::{KoshaReply, KoshaRequest};
    let primary = primary_of(c, anchor);
    match control(
        c,
        primary,
        &KoshaRequest::ReplicaTargets { path: path.into() },
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
    use kosha::control::KoshaRequest;
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
        /// Requests sent straight to the primary's control service.
        Control(Vec<KoshaRequest>),
        /// Anchor-level operations, which also fix up the parent's special
        /// link; koshad sends `RmdirAnchor` / `RenameAnchorDir` for them.
        Mount(fn(&KoshaMount)),
    }
    let rows: Vec<(&str, &str, Do, Option<&[u8]>)> = vec![
        (
            "Write",
            HOT,
            Do::Control(vec![KoshaRequest::Write {
                path: path(HOT),
                offset: 0,
                data: b"new".as_slice().into(),
            }]),
            Some(b"new bytes"),
        ),
        (
            "SetAttr (truncate)",
            HOT,
            Do::Control(vec![KoshaRequest::SetAttr {
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
            Do::Control(vec![KoshaRequest::Remove { path: path(HOT) }]),
            None,
        ),
        (
            "RemoveLink",
            HOT,
            Do::Control(vec![KoshaRequest::RemoveLink { path: path(HOT) }]),
            None,
        ),
        (
            "RenameLocal, hot object is the source",
            HOT,
            Do::Control(vec![KoshaRequest::RenameLocal {
                from: path(HOT),
                to: path("/t/moved"),
            }]),
            None,
        ),
        (
            "RenameLocal, hot object is overwritten",
            HOT,
            Do::Control(vec![KoshaRequest::RenameLocal {
                from: path("/t/other"),
                to: path(HOT),
            }]),
            Some(b"other"),
        ),
        (
            // The names under a renamed directory stop meaning their
            // objects too: a lease on one outlives the rename unless the
            // whole subtree is forgotten.
            "RenameLocal, a directory above the hot object",
            DEEP,
            Do::Control(vec![KoshaRequest::RenameLocal {
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
            "RmdirAnchor",
            HOT,
            Do::Mount(|m| {
                m.remove(HOT).unwrap();
                m.remove("/t/other").unwrap();
                m.rmdir("/t").unwrap();
            }),
            None,
        ),
        (
            "RenameAnchorDir",
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
            Do::Control(reqs) => {
                for req in &reqs {
                    control(&c, primary_of(&c, "/t"), req)
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
    use kosha::control::{KoshaRequest, MigrateItem, MigrateKind, ReplicaOp};
    use kosha_rpc::ServiceId;

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
    let mut hostile: Vec<(ServiceId, KoshaRequest)> = Vec::new();
    for path in hostile_paths {
        hostile.push((
            ServiceId::KoshaReplica,
            KoshaRequest::ReplicaApply { op: write(path) },
        ));
        hostile.push((
            ServiceId::KoshaReplica,
            KoshaRequest::ReplicaApplyBatch {
                ops: vec![write(path)],
            },
        ));
        hostile.push((
            ServiceId::Kosha,
            KoshaRequest::Write {
                path: path.into(),
                offset: 0,
                data: b"x".as_slice().into(),
            },
        ));
        hostile.push((
            ServiceId::KoshaReplica,
            KoshaRequest::HotReplicaPush {
                anchor: "/a".into(),
                routing: "a".into(),
                path: path.into(),
                seq: 1,
                expires_nanos: u64::MAX,
                item: item("f"),
            },
        ));
    }
    hostile.push((
        ServiceId::KoshaReplica,
        KoshaRequest::ReplicaApply {
            op: ReplicaOp::Rename {
                from: "/a/f".into(),
                to: "/a/../../kosha_store/evil".into(),
            },
        },
    ));
    for rel_path in ["../../kosha_replica/evil", "b/../../x", "/x", "b//x", "b/"] {
        hostile.push((
            ServiceId::Kosha,
            KoshaRequest::TransferPut {
                path: "/a".into(),
                item: item(rel_path),
            },
        ));
    }
    for (service, req) in &hostile {
        assert_eq!(
            send(&c, node, *service, req),
            Err(NfsStatus::Inval),
            "{req:?}"
        );
    }
    assert_eq!(census(node), before, "a refused request touched the store");
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
    m.create_sized("/one/sparse", 4096).unwrap(); // Create, sized
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
/// caller misrouted or raced a removal) and is made on demand by a
/// holder (a mirrored op may arrive before the push that would have made
/// it) — except the object of a `SetAttr`, which a holder cannot invent.
#[test]
fn what_is_missing_is_noent_in_the_store_and_made_on_a_holder() {
    use kosha::control::{KoshaReply, KoshaRequest, ReplicaOp};
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
    let req = KoshaRequest::Write { path, offset, data };
    assert_eq!(control(&c, node, &req), Err(NfsStatus::NoEnt));
    // ...an anchor this node does not host is refused the same way...
    let (path, offset, data) = write("/elsewhere/f");
    let req = KoshaRequest::Write { path, offset, data };
    assert_eq!(control(&c, node, &req), Err(NfsStatus::NoEnt));
    // ...and a holder makes the chain and the file.
    let (path, offset, data) = write("/p/q/f");
    let op = ReplicaOp::Write { path, offset, data };
    assert_eq!(
        replica(&c, node, &KoshaRequest::ReplicaApply { op }),
        Ok(KoshaReply::Done)
    );
    let landed = slot_local_path(Area::Replica, "/p", "/p/q/f");
    assert!(node.with_store(|v| v.resolve(&landed).is_ok()), "{landed}");

    let op = ReplicaOp::SetAttr {
        path: "/p/q/absent".into(),
        sattr: chmod(),
    };
    assert_eq!(
        replica(&c, node, &KoshaRequest::ReplicaApply { op }),
        Err(NfsStatus::NoEnt)
    );
}

/// The second policy: an outcome that says the op had already happened
/// (`Exist` on a create, `NoEnt` on a remove or rename) is the caller's
/// error in the store and is absorbed by a holder, so a replayed or
/// re-pushed op is idempotent there.
#[test]
fn what_is_already_done_fails_in_the_store_and_is_absorbed_by_a_holder() {
    use kosha::control::{KoshaReply, KoshaRequest, ReplicaOp};

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
        size: None,
    };
    let moved = || ReplicaOp::Rename {
        from: path(),
        to: "/p/g".into(),
    };
    let replay = |op: ReplicaOp| {
        for round in 0..2 {
            let req = KoshaRequest::ReplicaApply { op: op.clone() };
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

    let file = KoshaRequest::CreateFile {
        path: path(),
        mode: 0o644,
        uid: 0,
        gid: 0,
        size: None,
    };
    assert!(matches!(
        control(&c, node, &file),
        Ok(KoshaReply::Handle { .. })
    ));
    assert_eq!(control(&c, node, &file), Err(NfsStatus::Exist));
    let gone = KoshaRequest::Remove { path: path() };
    assert_eq!(control(&c, node, &gone), Ok(KoshaReply::Done));
    assert_eq!(control(&c, node, &gone), Err(NfsStatus::NoEnt));
    let rename = KoshaRequest::RenameLocal {
        from: path(),
        to: "/p/g".into(),
    };
    assert_eq!(control(&c, node, &rename), Err(NfsStatus::NoEnt));
}
