//! What a READ allocates, held by `cargo test`: a warm 128 KiB READ, sent
//! by an NFS client to a koshad whose primary for the file is another
//! node, makes one allocation per message it takes (the client's
//! request, koshad's request to the primary, the primary's reply and
//! koshad's reply) and none for its payload, its handle or its heat.
//! A newcomer's read that evicts another from a full heat sketch
//! allocates nothing: it writes its key over the evicted one's.
//!
//! This file is a test binary of its own with a single test, so nothing
//! else allocates while it counts, and `SimNetwork` runs the whole op
//! inline on the calling thread.

use kosha::paths::{slot_local_path, Area};
use kosha::{KoshaConfig, KoshaMount, KoshaNode};
use kosha_id::node_id_from_seed;
use kosha_nfs::NfsClient;
use kosha_obs::ReadHeat;
use kosha_rpc::{Network, NodeAddr, ServiceId, SimNetwork};
use std::sync::Arc;

#[path = "../../rpc/tests/support/counting.rs"]
mod counting;
use counting::{allocations_by, Counting};

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const BLOCK: usize = 128 * 1024;

#[test]
fn a_read_allocates_one_buffer_per_message() {
    let net = SimNetwork::new_zero_latency();
    let cfg = KoshaConfig {
        replicas: 2,
        ..KoshaConfig::for_tests()
    };
    let nodes: Vec<Arc<KoshaNode>> = (0..5)
        .map(|i| {
            let (node, mux) = KoshaNode::build(
                cfg.clone(),
                node_id_from_seed(&format!("read-alloc-host-{i}")),
                NodeAddr(i),
                net.clone() as Arc<dyn Network>,
            );
            net.attach(node.addr(), mux);
            node.join((i > 0).then_some(NodeAddr(0))).expect("join");
            node
        })
        .collect();
    let koshad = nodes[0].addr();
    let mount = KoshaMount::new(net.clone() as Arc<dyn Network>, koshad, koshad).expect("mount");
    // The first second-level directory (an anchor of its own) whose
    // primary is not the koshad the client talks to.
    let (_, file) = (0..16)
        .map(|d| (format!("/pin/d{d}"), format!("/pin/d{d}/file")))
        .find(|(anchor, file)| {
            mount.mkdir_p(anchor).expect("mkdir");
            mount.write_file(file, &vec![7u8; BLOCK]).expect("write");
            let local = slot_local_path(Area::Store, anchor, file);
            nodes[0].with_store(|v| v.resolve(&local).is_err())
        })
        .expect("some anchor's primary is another node");
    let fh = mount.stat(&file).expect("stat").0;
    let nfs = NfsClient::with_service(net as Arc<dyn Network>, koshad, ServiceId::KoshaFs);
    // Warm: the handle's location, the resolver caches, the stripes and
    // the thread's encoding buffer are filled by the first reads.
    for _ in 0..2 {
        nfs.read(koshad, fh, 0, BLOCK as u32).expect("warm read");
    }
    let (read, allocs) = allocations_by(|| nfs.read(koshad, fh, 0, BLOCK as u32));
    let (data, eof) = read.expect("read");
    assert!(eof && data.len() == BLOCK);
    // It made 9 while each message was a buffer and an owner for it and
    // koshad copied the handle's path into a `String`.
    assert_eq!(allocs, 4, "a warm 128 KiB READ");

    // A full sketch, every key in it read once, then newcomers.
    let heat = ReadHeat::new(1_000_000_000, 64);
    let keys: Vec<String> = (0..128).map(|i| format!("/pin/d0/f{i:03}")).collect();
    for (t, key) in keys[..64].iter().enumerate() {
        heat.touch(key, t as u64);
    }
    let ((), allocs) = allocations_by(|| {
        for (t, key) in keys[64..].iter().enumerate() {
            heat.touch(key, 64 + t as u64);
        }
    });
    assert_eq!(heat.evictions(), 64);
    assert_eq!(allocs, 0, "64 newcomers to a full sketch");
}
