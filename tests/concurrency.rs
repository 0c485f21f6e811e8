//! Real-thread concurrency tests: the same Kosha stack on the
//! [`ThreadedNetwork`] transport, with multiple client threads mutating
//! the namespace at once. Shakes out locking mistakes a deterministic
//! single-threaded simulation cannot.

use kosha::{audit_cluster, AuditOptions, KoshaConfig, KoshaMount, KoshaNode};
use kosha_id::node_id_from_seed;
use kosha_rpc::{Network, NodeAddr, ThreadedNetwork};
use std::sync::Arc;
use std::time::Duration;

fn threaded_cluster(n: usize) -> (Arc<ThreadedNetwork>, Vec<Arc<KoshaNode>>) {
    threaded_cluster_with_replicas(n, 1)
}

fn threaded_cluster_with_replicas(
    n: usize,
    replicas: usize,
) -> (Arc<ThreadedNetwork>, Vec<Arc<KoshaNode>>) {
    let net = ThreadedNetwork::new(Duration::from_secs(10));
    let cfg = KoshaConfig {
        distribution_level: 1,
        replicas,
        contributed_bytes: 1 << 26,
        ..KoshaConfig::for_tests()
    };
    let mut nodes = Vec::new();
    for i in 0..n {
        let id = node_id_from_seed(&format!("threaded-{i}"));
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
    (net, nodes)
}

#[test]
fn concurrent_writers_in_disjoint_directories() {
    let (net, nodes) = threaded_cluster(4);
    let mut handles = Vec::new();
    for (w, node) in nodes.iter().enumerate() {
        let net = net.clone();
        let addr = node.addr();
        handles.push(std::thread::spawn(move || {
            let m = KoshaMount::new(net as Arc<dyn Network>, addr, addr).expect("mount");
            let dir = format!("/writer{w}");
            m.mkdir_p(&dir).expect("mkdir");
            for i in 0..25 {
                m.write_file(&format!("{dir}/f{i}"), format!("w{w}-i{i}").as_bytes())
                    .expect("write");
            }
        }));
    }
    for h in handles {
        h.join().expect("writer thread");
    }
    // Everything visible from a single fresh mount.
    let m = KoshaMount::new(net.clone() as Arc<dyn Network>, NodeAddr(0), NodeAddr(0)).unwrap();
    for w in 0..4 {
        for i in 0..25 {
            assert_eq!(
                m.read_file(&format!("/writer{w}/f{i}")).unwrap(),
                format!("w{w}-i{i}").as_bytes()
            );
        }
        assert_eq!(m.readdir(&format!("/writer{w}")).unwrap().len(), 25);
    }
}

#[test]
fn concurrent_writers_in_one_directory() {
    let (net, nodes) = threaded_cluster(3);
    let m0 = KoshaMount::new(net.clone() as Arc<dyn Network>, NodeAddr(0), NodeAddr(0)).unwrap();
    m0.mkdir_p("/shared").unwrap();
    let mut handles = Vec::new();
    for (w, node) in nodes.iter().enumerate() {
        let net = net.clone();
        let addr = node.addr();
        handles.push(std::thread::spawn(move || {
            let m = KoshaMount::new(net as Arc<dyn Network>, addr, addr).expect("mount");
            for i in 0..20 {
                m.write_file(&format!("/shared/w{w}-f{i}"), &[w as u8; 64])
                    .expect("write");
            }
        }));
    }
    for h in handles {
        h.join().expect("writer thread");
    }
    assert_eq!(m0.readdir("/shared").unwrap().len(), 60);
}

#[test]
fn readers_and_writers_interleave_safely() {
    let (net, _nodes) = threaded_cluster(3);
    let m0 = KoshaMount::new(net.clone() as Arc<dyn Network>, NodeAddr(0), NodeAddr(0)).unwrap();
    m0.mkdir_p("/hot").unwrap();
    m0.write_file("/hot/counter", b"0").unwrap();

    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let mut handles = Vec::new();
    // One writer continuously replaces content.
    {
        let net = net.clone();
        let stop = stop.clone();
        handles.push(std::thread::spawn(move || {
            let m = KoshaMount::new(net as Arc<dyn Network>, NodeAddr(1), NodeAddr(1)).unwrap();
            let mut i = 0u32;
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                i += 1;
                m.write_file("/hot/counter", format!("{i}").as_bytes())
                    .expect("write");
            }
        }));
    }
    // Two readers observe some valid state each time.
    for r in 0..2u64 {
        let net = net.clone();
        let stop = stop.clone();
        handles.push(std::thread::spawn(move || {
            let m = KoshaMount::new(net as Arc<dyn Network>, NodeAddr(2), NodeAddr(2)).unwrap();
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                let data = m.read_file("/hot/counter").expect("read");
                let text = std::str::from_utf8(&data).expect("utf8 content");
                // NFS offers no atomic whole-file replace: a reader may
                // observe the truncation point (empty) or a valid value,
                // but never garbage.
                assert!(
                    text.is_empty() || text.parse::<u32>().is_ok(),
                    "torn read: {text:?} (r{r})"
                );
            }
        }));
    }
    std::thread::sleep(Duration::from_millis(300));
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    for h in handles {
        h.join().expect("thread");
    }
}

#[test]
fn failover_works_on_the_threaded_transport() {
    let (net, nodes) = threaded_cluster(5);
    let m = KoshaMount::new(net.clone() as Arc<dyn Network>, NodeAddr(0), NodeAddr(0)).unwrap();
    m.mkdir_p("/ha").unwrap();
    m.write_file("/ha/data", b"survives").unwrap();
    // Kill the primary if it is not our gateway.
    let primary = nodes
        .iter()
        .find(|n| n.hosted_anchors().iter().any(|(p, _)| p == "/ha"))
        .expect("hosted");
    if primary.addr() != NodeAddr(0) {
        net.fail_node(primary.addr());
        assert_eq!(m.read_file("/ha/data").unwrap(), b"survives");
    }
}

/// `audit_cluster` over all of a K = 2 cluster's `nodes`, which must come
/// back clean.
fn assert_audit_clean(net: &ThreadedNetwork, nodes: &[Arc<KoshaNode>]) {
    let peers: Vec<NodeAddr> = nodes.iter().map(|n| n.addr()).collect();
    let report = audit_cluster(
        net,
        NodeAddr(0),
        &peers,
        net.clock().now().0,
        &AuditOptions {
            replicas: 2,
            ..AuditOptions::default()
        },
    );
    assert_eq!(report.nodes_scanned, nodes.len() as u64);
    assert!(report.objects > 0);
    assert_eq!(
        (report.objects_divergent, report.under_replicated),
        (0, 0),
        "{report:?}"
    );
}

#[test]
fn one_client_mutating_a_k2_cluster_queues_nothing() {
    // Every RPC of a lone client finds its actor idle, the K = 2 mirror
    // fan-out included: each is served on the client's thread, so the
    // requests the reactor dispatched and the ones it served in place
    // stay equal (nothing was queued, nobody was woken).
    let (net, nodes) = threaded_cluster_with_replicas(8, 2);
    let m = KoshaMount::new(net.clone() as Arc<dyn Network>, NodeAddr(0), NodeAddr(0)).unwrap();
    m.mkdir_p("/solo").unwrap();
    let reg = &net.obs().registry;
    let queued = || {
        let events = reg.counter("kosha_reactor_events_total").get();
        (
            events,
            events - reg.counter("kosha_reactor_inline_total").get(),
        )
    };
    let (events_before, queued_before) = queued();
    for i in 0..1_000 {
        let path = format!("/solo/f{i}");
        m.write_file(&path, &[i as u8; 64]).expect("create + write");
        m.remove(&path).expect("remove");
    }
    let (events_after, queued_after) = queued();
    assert!(
        events_after - events_before >= 3_000,
        "the loop issued RPCs"
    );
    assert_eq!(queued_after, queued_before);
    assert!(m.readdir("/solo").unwrap().is_empty());
    m.write_file("/solo/kept", b"audited").unwrap();
    assert_audit_clean(&net, &nodes);
}

/// The bytes shared file `file` holds for the whole stress run.
fn shared_pattern(file: usize) -> Vec<u8> {
    (0..4096).map(|off| (file * 31 + off) as u8).collect()
}

#[test]
fn mixed_ops_from_four_mounts_leave_a_consistent_cluster() {
    // Every blocking RPC below is served on whichever thread finds its
    // actor idle, so the four clients run each other's koshad, control,
    // replica and nfsd handlers on their own stacks, nested.
    const CLIENTS: usize = 4;
    const SHARED: usize = 8;
    const OPS: usize = 2_000;
    let (net, nodes) = threaded_cluster_with_replicas(6, 2);
    let mount = |addr: NodeAddr| {
        KoshaMount::new(net.clone() as Arc<dyn Network>, addr, addr).expect("mount")
    };
    let m0 = mount(NodeAddr(0));
    m0.mkdir_p("/shared").unwrap();
    for f in 0..SHARED {
        m0.write_file(&format!("/shared/s{f}"), &shared_pattern(f))
            .unwrap();
    }
    std::thread::scope(|s| {
        for (c, node) in nodes.iter().take(CLIENTS).enumerate() {
            let m = mount(node.addr());
            s.spawn(move || {
                let scratch = format!("/scratch{c}");
                m.mkdir_p(&scratch).expect("mkdir");
                for i in 0..OPS {
                    let file = (i * 7 + c) % SHARED;
                    let shared = format!("/shared/s{file}");
                    match i % 4 {
                        0 | 1 => {
                            let (_, attr) = m.stat(&shared).expect("stat");
                            assert_eq!(attr.size, 4096);
                        }
                        2 => {
                            let data = m.read_file(&shared).expect("read");
                            assert_eq!(data[..], shared_pattern(file)[..]);
                        }
                        _ => {
                            let path = format!("{scratch}/f{i}");
                            m.write_file(&path, &[c as u8; 64]).expect("write");
                            m.remove(&path).expect("remove");
                        }
                    }
                }
            });
        }
    });
    for c in 0..CLIENTS {
        assert!(m0.readdir(&format!("/scratch{c}")).unwrap().is_empty());
    }
    for f in 0..SHARED {
        let data = m0.read_file(&format!("/shared/s{f}")).unwrap();
        assert_eq!(data[..], shared_pattern(f)[..]);
    }
    assert_audit_clean(&net, &nodes);
}
