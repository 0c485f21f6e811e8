//! The copy budget of the payload path (DESIGN.md §18), held by
//! `cargo test`: a payload byte is copied where it enters the system,
//! nowhere else. A warm 128 KiB WRITE through the koshad loopback with
//! K = 2 replicas allocates at most 1.1 bytes per payload byte (the
//! client's copy of the caller's slice; the three stores keep that
//! buffer, one buffer between them). So does a new file written in four
//! 32 KiB WRITEs: each store keeps the chunks as parts of the file, and
//! its first export joins them, once. A 128 KiB READ, from the primary
//! or from a replica holder, allocates at most 0.01: the reply's payload
//! is a view of the store's buffer. So is every file body in an
//! `export_tree` after the first, which the
//! maintenance tick and the audit take of every anchor just to digest it.
//! And a READ allocates no more than the wire can carry, whatever
//! `count` the peer names. Naming a slot, which every mutation does K + 1
//! times, allocates the path the name is written into, no more. And
//! a warm `stat`, `remove` and 64-byte `write_file` through the mount,
//! which carry no payload at all, make no more allocations than they do
//! today.
//!
//! This file is a test binary of its own with a single test, so nothing
//! else allocates while it counts, and `SimNetwork` runs the whole op
//! inline on the calling thread.

use kosha::paths::{anchor_slot, slot_local_path, Area};
use kosha::{tree_digest, KoshaConfig, KoshaMount, KoshaNode, ReadFrom};
use kosha_id::node_id_from_seed;
use kosha_nfs::{DiskModel, NfsClient, NfsReply, NfsRequest, NfsServer};
use kosha_rpc::{Bytes, Network, NodeAddr, ServiceId, SimNetwork, VirtualClock};
use kosha_vfs::{ExportKind, Vfs};
use std::sync::Arc;

#[path = "../../rpc/tests/support/counting.rs"]
mod counting;
use counting::{allocated_by, allocations_by, largest_block_of, Counting};

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const BLOCK: usize = 128 * 1024;
const NODES: u64 = 5;
const REPLICAS: usize = 2;

/// The anchor the test files live under: `for_tests` distributes two
/// levels, so the second-level directory is an anchor of its own.
const ANCHOR: &str = "/budget/dir";

/// The body `node` stores for `vpath` under `ANCHOR`, as an export
/// lends it: from its primary area, else from its replica area.
fn stored_body(node: &KoshaNode, vpath: &str) -> Option<Bytes> {
    node.with_store(|v| {
        [Area::Store, Area::Replica].into_iter().find_map(|area| {
            let items = v.export_tree(&slot_local_path(area, ANCHOR, vpath)).ok()?;
            match &items[0].kind {
                ExportKind::Bytes(body) => Some(body.clone()),
                _ => None,
            }
        })
    })
}

/// A joined cluster of `nodes` on a zero-latency `SimNetwork`, a 128 KiB
/// file written through node 0's koshad by a mount of it, and an NFS
/// client of that koshad.
fn cluster(
    tag: &str,
    nodes: u64,
    read_from: ReadFrom,
) -> (Vec<Arc<KoshaNode>>, KoshaMount, NfsClient, kosha_nfs::Fh) {
    let net = SimNetwork::new_zero_latency();
    let cfg = KoshaConfig {
        replicas: REPLICAS,
        read_from,
        ..KoshaConfig::for_tests()
    };
    let nodes: Vec<Arc<KoshaNode>> = (0..nodes)
        .map(|i| {
            let (node, mux) = KoshaNode::build(
                cfg.clone(),
                node_id_from_seed(&format!("{tag}-host-{i}")),
                NodeAddr(i),
                net.clone() as Arc<dyn Network>,
            );
            net.attach(node.addr(), mux);
            node.join((i > 0).then_some(NodeAddr(0))).expect("join");
            node
        })
        .collect();
    let koshad = NodeAddr(0);
    let mount = KoshaMount::new(net.clone() as Arc<dyn Network>, koshad, koshad).expect("mount");
    mount.mkdir_p(ANCHOR).expect("mkdir");
    let fh = mount
        .write_file("/budget/dir/file", &vec![0u8; BLOCK])
        .expect("populate");
    let nfs = NfsClient::with_service(net as Arc<dyn Network>, koshad, ServiceId::KoshaFs);
    (nodes, mount, nfs, fh)
}

#[test]
fn a_payload_byte_is_allocated_for_where_it_enters_the_system_and_nowhere_else() {
    let koshad = NodeAddr(0);
    let payload: Vec<u8> = (0..BLOCK).map(|i| (i * 31 % 251) as u8).collect();
    let budget = |what: &str, bytes: u64, limit: f64| {
        let per_byte = bytes as f64 / BLOCK as f64;
        assert!(
            per_byte <= limit,
            "{what} allocated {per_byte:.3} bytes per payload byte"
        );
    };

    // --- naming a slot: the K + 1 `slot_fh`s of every mutation, the
    // resolver, audit, GC and the hot push all start here.
    let (slot, calls) = allocations_by(|| anchor_slot("/budget"));
    assert_eq!((slot.len(), calls), (17, 1), "anchor_slot");
    for vpath in ["/budget", "/budget/dir/file"] {
        let (path, calls) = allocations_by(|| slot_local_path(Area::Replica, "/budget", vpath));
        assert!(path.starts_with("/kosha_replica/@"), "{path}");
        assert_eq!(calls, 1, "slot_local_path({vpath})");
    }

    // --- the primary path
    let (nodes, mount, nfs, fh) = cluster("budget", NODES, ReadFrom::Primary);
    // Warm: the handle's location and the resolver caches are filled by
    // the first op; only steady-state ops have a budget.
    nfs.write(koshad, fh, 0, &vec![7u8; BLOCK])
        .expect("warm write");
    nfs.read(koshad, fh, 0, BLOCK as u32).expect("warm read");

    let (written, bytes) = allocated_by(|| nfs.write(koshad, fh, 0, &payload).expect("write"));
    assert_eq!(written as usize, BLOCK);
    budget("a 128 KiB write", bytes, 1.1);

    let ((data, eof), bytes) =
        allocated_by(|| nfs.read(koshad, fh, 0, BLOCK as u32).expect("read"));
    assert!(eof);
    assert_eq!(data, payload);
    budget("a 128 KiB read", bytes, 0.01);

    // The budget was not met by skipping work: the primary and both
    // replica holders store the block.
    let holders = nodes
        .iter()
        .filter(|n| n.with_store(|v| v.used_bytes()) >= BLOCK as u64)
        .count();
    assert_eq!(holders, 1 + REPLICAS);
    // And all three keep the one buffer the WRITE brought.
    let bodies: Vec<Bytes> = nodes
        .iter()
        .filter_map(|n| stored_body(n, "/budget/dir/file"))
        .collect();
    assert_eq!(bodies.len(), 1 + REPLICAS);
    assert!(bodies.iter().all(|b| *b == payload));
    assert!(
        bodies.iter().all(|b| b.as_ptr() == bodies[0].as_ptr()),
        "a whole-file overwrite was copied by a store"
    );
    drop(bodies);

    // --- what maintenance and the audit do to every anchor: export it
    // and digest it. The file's body is lent, not copied.
    let primary = nodes
        .iter()
        .find(|n| n.hosted_anchors().iter().any(|(p, _)| p == ANCHOR))
        .expect("anchor hosted somewhere");
    let slot = slot_local_path(Area::Store, ANCHOR, ANCHOR);
    let (exported, bytes) = allocated_by(|| {
        let items = primary
            .with_store(|v| v.export_tree(&slot))
            .expect("export");
        (items.len(), tree_digest(&items))
    });
    assert!(exported.0 >= 2, "anchor and file: {exported:?}");
    assert!(
        bytes < 4096,
        "export + digest of an anchor holding a 128 KiB file allocated {bytes} bytes"
    );

    // --- the maintenance tick whose push is skipped (digest and targets
    // match the memo of the last acknowledged push) moves no file body.
    primary.maintain();
    let skips = primary.stats().replica_push_skips;
    let ((), largest) = largest_block_of(|| primary.maintain());
    assert!(
        primary.stats().replica_push_skips > skips,
        "the tick pushed"
    );
    assert!(
        largest < BLOCK as u64,
        "a skipped push allocated a block of {largest} bytes"
    );

    // --- a new file written in chunks, as `write_file` does: each
    // chunk enters the system once, and each store keeps it as one part
    // of the file beside the others' (they all share the last one).
    let chunked = "/budget/dir/chunked";
    let (written, bytes) = allocated_by(|| mount.write_file(chunked, &payload));
    written.expect("chunked write");
    budget("a 128 KiB file written in four WRITEs", bytes, 1.1);
    // Its first export joins the parts, once; the second lends that.
    let slot = slot_local_path(Area::Store, ANCHOR, chunked);
    let export = || primary.with_store(|v| v.export_tree(&slot).expect("export").len());
    let (_, bytes) = allocated_by(export);
    assert!(
        (BLOCK as u64..BLOCK as u64 + 4096).contains(&bytes),
        "the first export of a chunk-written file allocated {bytes} bytes"
    );
    let (_, bytes) = allocated_by(export);
    assert!(
        bytes < 4096,
        "the second export of a chunk-written file allocated {bytes} bytes"
    );

    // --- a read served by a replica holder (`ReadFrom::Replicas`)
    let (nodes, _, nfs, fh) = cluster("budget-rr", NODES, ReadFrom::Replicas { hot_copies: 0 });
    nfs.write(koshad, fh, 0, &payload).expect("write");
    // One full turn of the rotor warms the replica handle cache.
    for _ in 0..=REPLICAS {
        nfs.read(koshad, fh, 0, BLOCK as u32).expect("warm read");
    }
    let served_by_replicas = || nodes[0].stats().replica_reads;
    let before = served_by_replicas();
    for _ in 0..=REPLICAS {
        let ((data, _), bytes) =
            allocated_by(|| nfs.read(koshad, fh, 0, BLOCK as u32).expect("read"));
        assert_eq!(data, payload);
        budget("a 128 KiB read with replica reads on", bytes, 0.01);
    }
    assert_eq!(served_by_replicas() - before, REPLICAS as u64);

    // --- metadata ops through the mount, warm, on the 8-node K = 2
    // cluster `perf`'s `meta_sim` runs: no payload, so every allocation
    // is per-op overhead.
    let (_, mount, _, _) = cluster("budget-meta", 8, ReadFrom::Primary);
    let [file, warm, gone, new] = ["file", "warm", "gone", "new"].map(|f| format!("{ANCHOR}/{f}"));
    for path in [&warm, &gone] {
        mount.write_file(path, &[1; 64]).expect("warm write_file");
    }
    mount.stat(&file).expect("warm stat");
    mount.remove(&warm).expect("warm remove");
    let (stat, stat_calls) = allocations_by(|| mount.stat(&file));
    assert_eq!(stat.expect("stat").1.size, BLOCK as u64);
    let (removed, remove_calls) = allocations_by(|| mount.remove(&gone));
    removed.expect("remove");
    let (written, write_calls) = allocations_by(|| mount.write_file(&new, &[2; 64]));
    written.expect("write_file");
    // Pinned at what they make today. They made 20, 55 and 96 while a
    // REMOVE looked its name up first and every path walk built a `Vec`.
    for (what, calls, limit) in [
        ("a warm stat", stat_calls, 15),
        ("a remove", remove_calls, 32),
        ("a 64-byte write_file", write_calls, 67),
    ] {
        assert!(
            calls <= limit,
            "{what} made {calls} allocations, budget {limit}"
        );
    }

    // --- `count` is a peer's number. A hostile one reads the file's
    // bytes, a view of the store's buffer, and allocates nothing.
    let server = NfsServer::new(Vfs::new(u64::MAX), VirtualClock::new(), DiskModel::zero());
    let NfsReply::Root { fh: root } = server.apply(NfsRequest::Mount).expect("mount") else {
        panic!("mount reply");
    };
    let NfsReply::Handle { fh, .. } = server
        .apply(NfsRequest::Create {
            dir: root,
            name: "f".into(),
            mode: 0o644,
            uid: 0,
            gid: 0,
        })
        .expect("create")
    else {
        panic!("create reply");
    };
    let body = Bytes::from(vec![5u8; 4096]);
    server
        .apply(NfsRequest::Write {
            fh,
            offset: 0,
            data: body.clone(),
        })
        .expect("write");
    let (reply, bytes) = allocated_by(|| {
        server.apply(NfsRequest::Read {
            fh,
            offset: 0,
            count: u32::MAX,
        })
    });
    let Ok(NfsReply::Data { data, eof }) = reply else {
        panic!("read reply: {reply:?}");
    };
    assert_eq!((data, eof), (body, true));
    assert_eq!(
        bytes, 0,
        "Read {{ count: u32::MAX }} of a 4 KiB file allocated {bytes} bytes"
    );
}
