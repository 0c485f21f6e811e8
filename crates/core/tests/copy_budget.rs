//! The copy budget of the payload path (DESIGN.md §18), held by
//! `cargo test`: a payload byte is copied where it enters the system,
//! nowhere else. A warm 128 KiB WRITE through the koshad loopback with
//! K = 2 replicas allocates at most 1.1 bytes per payload byte (the
//! client's copy of the caller's slice; the three stores overwrite in
//! place). A 128 KiB READ, from the primary or from a replica holder,
//! allocates at most 0.01: the reply's payload is a view of the store's
//! buffer. So is every file body in an `export_tree`, which the
//! maintenance tick and the audit take of every anchor just to digest it.
//! And a READ allocates no more than the wire can carry, whatever
//! `count` the peer names. Naming a slot, which every mutation does K + 1
//! times, allocates the name and the path it is joined into, no more.
//!
//! This file is a test binary of its own with a single test, so nothing
//! else allocates while it counts, and `SimNetwork` runs the whole op
//! inline on the calling thread.

use kosha::paths::{anchor_slot, slot_local_path, Area};
use kosha::{tree_digest, KoshaConfig, KoshaMount, KoshaNode};
use kosha_id::node_id_from_seed;
use kosha_nfs::{DiskModel, NfsClient, NfsReply, NfsRequest, NfsServer};
use kosha_rpc::wire::MAX_LEN;
use kosha_rpc::{Network, NodeAddr, ServiceId, SimNetwork, VirtualClock};
use kosha_vfs::Vfs;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

/// Forwards to the system allocator, adds up the bytes asked for and
/// keeps the largest single request. A `realloc` counts as an
/// allocation of the new size.
struct Counting;

// Statistics only: they publish no other data, so `Relaxed` is enough.
static BYTES: AtomicU64 = AtomicU64::new(0);
static CALLS: AtomicU64 = AtomicU64::new(0);
static LARGEST: AtomicU64 = AtomicU64::new(0);

fn count(size: usize) {
    BYTES.fetch_add(size as u64, Relaxed);
    CALLS.fetch_add(1, Relaxed);
    LARGEST.fetch_max(size as u64, Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter touches no
// allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's obligations are passed through as given.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: as in `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as in `alloc`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: as in `alloc`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// `f`'s result and the bytes allocated while it ran.
fn allocated_by<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = BYTES.load(Relaxed);
    let result = f();
    (result, BYTES.load(Relaxed) - before)
}

/// `f`'s result and the number of allocations made while it ran.
fn allocations_by<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = CALLS.load(Relaxed);
    let result = f();
    (result, CALLS.load(Relaxed) - before)
}

/// `f`'s result and the largest single allocation made while it ran.
fn largest_block_of<R>(f: impl FnOnce() -> R) -> (R, u64) {
    LARGEST.store(0, Relaxed);
    let result = f();
    (result, LARGEST.load(Relaxed))
}

const BLOCK: usize = 128 * 1024;
const NODES: u64 = 5;
const REPLICAS: usize = 2;

/// A joined cluster on a zero-latency `SimNetwork`, a 128 KiB file
/// written through node 0's koshad, and an NFS client of that koshad.
fn cluster(tag: &str, read_from_replicas: bool) -> (Vec<Arc<KoshaNode>>, NfsClient, kosha_nfs::Fh) {
    let net = SimNetwork::new_zero_latency();
    let cfg = KoshaConfig {
        replicas: REPLICAS,
        read_from_replicas,
        ..KoshaConfig::for_tests()
    };
    let nodes: Vec<Arc<KoshaNode>> = (0..NODES)
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
    mount.mkdir_p("/budget/dir").expect("mkdir");
    let fh = mount
        .write_file("/budget/dir/file", &vec![0u8; BLOCK])
        .expect("populate");
    let nfs = NfsClient::with_service(net as Arc<dyn Network>, koshad, ServiceId::KoshaFs);
    (nodes, nfs, fh)
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
        assert!(
            calls <= 2,
            "slot_local_path({vpath}) made {calls} allocations"
        );
    }

    // --- the primary path
    let (nodes, nfs, fh) = cluster("budget", false);
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

    // --- what maintenance and the audit do to every anchor: export it
    // and digest it. The file's body is lent, not copied.
    let primary = nodes
        .iter()
        .find(|n| n.hosted_anchors().iter().any(|(p, _)| p == "/budget"))
        .expect("anchor hosted somewhere");
    let slot = slot_local_path(Area::Store, "/budget", "/budget");
    let (exported, bytes) = allocated_by(|| {
        let items = primary
            .with_store(|v| v.export_tree(&slot))
            .expect("export");
        (items.len(), tree_digest(&items))
    });
    assert!(exported.0 >= 3, "anchor, dir and file: {exported:?}");
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

    // --- a read served by a replica holder (`read_from_replicas`)
    let (nodes, nfs, fh) = cluster("budget-rr", true);
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

    // --- `count` is a peer's number. A sparse file allocates the zeros
    // it reads: the server reads no more than the wire's longest field,
    // and says so with a short read that is not EOF.
    let server = NfsServer::new(Vfs::new(u64::MAX), VirtualClock::new(), DiskModel::zero());
    let NfsReply::Root { fh: root } = server.apply(NfsRequest::Mount).expect("mount") else {
        panic!("mount reply");
    };
    let NfsReply::Handle { fh, .. } = server
        .apply(NfsRequest::CreateSized {
            dir: root,
            name: "sparse".into(),
            size: 1 << 32,
            mode: 0o644,
            uid: 0,
            gid: 0,
        })
        .expect("create_sized")
    else {
        panic!("create reply");
    };
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
    assert_eq!((data.len() as u64, eof), (MAX_LEN, false));
    assert!(
        bytes <= MAX_LEN + 4096,
        "Read {{ count: u32::MAX }} of a sparse file allocated {bytes} bytes"
    );
}
