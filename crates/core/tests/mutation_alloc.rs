//! What a mutation allocates, held by `cargo test`: a warm CREATE, a
//! 64-byte WRITE, a REMOVE and a level-1 MKDIR + RMDIR through a mount of
//! a koshad, on `meta_sim`'s cluster (8 nodes, K = 2, two distribution
//! levels), each at the count it makes now. The primary and both holders
//! find the slot an op lands in by its anchor, with no slot name to hash
//! and no slot path to build, so a per-op `String` that comes back shows
//! here as a count above its pin.
//!
//! This file is a test binary of its own with a single test, so nothing
//! else allocates while it counts, and `SimNetwork` runs the whole op
//! inline on the calling thread.

use kosha::{KoshaConfig, KoshaMount, KoshaNode};
use kosha_id::node_id_from_seed;
use kosha_nfs::NfsClient;
use kosha_rpc::{Network, NodeAddr, ServiceId, SimNetwork};
use std::sync::Arc;

#[path = "../../rpc/tests/support/counting.rs"]
mod counting;
use counting::{allocations_by, Counting};

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// The directory the files live in: a second-level directory, an anchor
/// of its own, as in `meta_sim`'s tree.
const DIR: &str = "/d00/s0";

#[test]
fn a_mutation_allocates_its_pinned_count() {
    let net = SimNetwork::new_zero_latency();
    let cfg = KoshaConfig {
        distribution_level: 2,
        replicas: 2,
        ..KoshaConfig::for_tests()
    };
    let nodes: Vec<Arc<KoshaNode>> = (0..8)
        .map(|i| {
            let (node, mux) = KoshaNode::build(
                cfg.clone(),
                node_id_from_seed(&format!("alloc-host-{i}")),
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
    let nfs = NfsClient::with_service(net as Arc<dyn Network>, koshad, ServiceId::KoshaFs);
    mount.mkdir_p(DIR).expect("mkdir");
    let file = |name: &str| format!("{DIR}/{name}");

    // Each kind once first: the stripes, tables and caches an op's first
    // run fills are not what the pins are about.
    let fh = mount.create(&file("warm")).expect("warm create");
    nfs.write(koshad, fh, 0, &[1; 64]).expect("warm write");
    mount.remove(&file("warm")).expect("warm remove");
    mount.mkdir("/t0").expect("warm mkdir");
    mount.rmdir("/t0").expect("warm rmdir");

    let (created, create) = allocations_by(|| mount.create(&file("f")));
    let fh = created.expect("create");
    let (written, write) = allocations_by(|| nfs.write(koshad, fh, 0, &[2; 64]));
    written.expect("write");
    let (removed, remove) = allocations_by(|| mount.remove(&file("f")));
    removed.expect("remove");
    let (made, mkdir_rmdir) = allocations_by(|| {
        mount.mkdir("/t1")?;
        mount.rmdir("/t1")
    });
    made.expect("mkdir + rmdir");

    // Before the slot index they made 40, 30, 34 and 186: each of the
    // K + 1 stores named the op's slot with a SHA-1 into a path `String`
    // (three a mutation), and a new anchor was pushed to its holders as
    // an exported, digested and encoded empty tree. MKDIR + RMDIR made
    // 158 while the primary kept a map of its anchors beside the store:
    // an entry of two `String`s in, one out. It made 155 while koshad
    // cached the new directory's listing in a map of its own beside the
    // handle table: one more key `String`. It made 154 while the primary
    // turned a request per kind of mutation into its op: the new anchor's
    // path and the torn-down one's were copied into the op once more.
    // They made 37, 27, 31 and 152 while every message was a buffer and
    // an owner for it and koshad copied a handle's path into a `String`
    // on every use.
    assert_eq!(
        [create, write, remove, mkdir_rmdir],
        [28, 19, 23, 121],
        "CREATE, 64-byte WRITE, REMOVE, MKDIR + RMDIR"
    );
}
