//! The copy budget of the payload path (DESIGN.md §18), held by
//! `cargo test`: a payload byte is copied where it enters the system and
//! where it enters a store, nowhere else. A warm 128 KiB WRITE through
//! the koshad loopback with K = 2 replicas allocates at most 1.1 bytes
//! per payload byte (the client's copy of the caller's slice; the three
//! stores overwrite in place), a 128 KiB READ at most 1.1 (the store's
//! copy into the reply), from the primary and from a replica holder.
//!
//! This file is a test binary of its own with a single test, so nothing
//! else allocates while it counts, and `SimNetwork` runs the whole op
//! inline on the calling thread.

use kosha::{KoshaConfig, KoshaMount, KoshaNode};
use kosha_id::node_id_from_seed;
use kosha_nfs::NfsClient;
use kosha_rpc::{Network, NodeAddr, ServiceId, SimNetwork};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

/// Forwards to the system allocator and adds up the bytes asked for. A
/// `realloc` counts as an allocation of the new size.
struct Counting;

// A statistic only: it publishes no other data, so `Relaxed` is enough.
static BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter touches no
// allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size() as u64, Relaxed);
        // SAFETY: the caller's obligations are passed through as given.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size() as u64, Relaxed);
        // SAFETY: as in `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as in `alloc`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        BYTES.fetch_add(new_size as u64, Relaxed);
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
fn a_128k_write_and_a_128k_read_allocate_one_byte_per_payload_byte() {
    let koshad = NodeAddr(0);
    let payload: Vec<u8> = (0..BLOCK).map(|i| (i * 31 % 251) as u8).collect();
    let budget = |what: &str, bytes: u64| {
        let per_byte = bytes as f64 / BLOCK as f64;
        assert!(
            per_byte <= 1.1,
            "{what} allocated {per_byte:.3} bytes per payload byte"
        );
    };

    // --- the primary path
    let (nodes, nfs, fh) = cluster("budget", false);
    // Warm: the handle's location and the resolver caches are filled by
    // the first op; only steady-state ops have a budget.
    nfs.write(koshad, fh, 0, &vec![7u8; BLOCK])
        .expect("warm write");
    nfs.read(koshad, fh, 0, BLOCK as u32).expect("warm read");

    let (written, bytes) = allocated_by(|| nfs.write(koshad, fh, 0, &payload).expect("write"));
    assert_eq!(written as usize, BLOCK);
    budget("a 128 KiB write", bytes);

    let ((data, eof), bytes) =
        allocated_by(|| nfs.read(koshad, fh, 0, BLOCK as u32).expect("read"));
    assert!(eof);
    assert_eq!(data, payload);
    budget("a 128 KiB read", bytes);

    // The budget was not met by skipping work: the primary and both
    // replica holders store the block.
    let holders = nodes
        .iter()
        .filter(|n| n.with_store(|v| v.used_bytes()) >= BLOCK as u64)
        .count();
    assert_eq!(holders, 1 + REPLICAS);

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
        budget("a 128 KiB read with replica reads on", bytes);
    }
    assert_eq!(served_by_replicas() - before, REPLICAS as u64);
}
