//! Cross-crate integration: the full stack (overlay + NFS + koshad +
//! simulation harness) exercised together.

use kosha::KoshaConfig;
use kosha_rpc::{Clock, LatencyModel, ServiceId};
use kosha_sim::cluster::{ClusterParams, SimCluster};
use kosha_sim::mab::{run_mab, MabParams};
use kosha_sim::{FsTrace, TraceParams};
use kosha_vfs::FileType;

fn cluster(nodes: usize, level: usize, replicas: usize) -> SimCluster {
    SimCluster::build(&ClusterParams {
        nodes,
        kosha: KoshaConfig {
            distribution_level: level,
            replicas,
            contributed_bytes: 1 << 28,
            ..KoshaConfig::for_tests()
        },
        latency: LatencyModel::zero(),
        seed: 777,
    })
}

#[test]
fn mab_runs_green_on_the_full_stack() {
    let c = cluster(4, 1, 1);
    let m = c.mount(0);
    let clock = c.clock();
    let times = run_mab(&MabParams::small(), &m, &clock).expect("MAB on kosha");
    assert!(times.total().as_nanos() > 0);
    // The tree is fully readable afterwards from a different node.
    let m2 = c.mount(3);
    let params = MabParams::small();
    for (path, size) in params.files() {
        let (_, attr) = m2.stat(&path).expect("file exists");
        assert_eq!(attr.size, size, "{path}");
    }
}

#[test]
fn trace_slice_round_trips_through_kosha() {
    let c = cluster(8, 2, 0);
    let m = c.mount(0);
    let trace = FsTrace::generate(&TraceParams::default().scaled(0.002));
    for d in &trace.dirs {
        m.mkdir_p(d).unwrap();
    }
    // Real bytes, each file capped at one WRITE.
    let cap = u64::from(KoshaConfig::for_tests().io_chunk);
    for f in &trace.files {
        m.write_file(&f.path, &vec![7u8; f.size.min(cap) as usize])
            .unwrap();
    }
    // Spot-check existence and sizes from another node.
    let m2 = c.mount(5);
    for f in trace.files.iter().step_by(17) {
        let (_, attr) = m2.stat(&f.path).expect("trace file resolves");
        assert_eq!(attr.ftype, FileType::Regular);
        assert_eq!(attr.size, f.size.min(cap));
    }
    // Bytes land on more than one machine.
    let stores_with_data = c
        .nodes
        .iter()
        .filter(|n| n.with_store(|v| v.used_bytes()) > 0)
        .count();
    assert!(stores_with_data >= 4, "only {stores_with_data} stores used");
}

#[test]
fn virtual_time_is_deterministic() {
    let run = || {
        let c = cluster(4, 1, 1);
        let m = c.mount(0);
        let clock = c.clock();
        clock.reset();
        m.mkdir_p("/det/a").unwrap();
        m.write_file("/det/a/f", &[9u8; 100_000]).unwrap();
        let _ = m.read_file("/det/a/f").unwrap();
        clock.now()
    };
    assert_eq!(run(), run(), "same workload, same virtual time");
}

#[test]
fn aggregate_capacity_reflects_all_nodes() {
    let c = cluster(6, 1, 0);
    let m = c.mount(0);
    let (cap, _, _) = m.fsstat().unwrap();
    // 6 nodes × 256 MiB contributed.
    assert_eq!(cap, 6 * (1 << 28));
}

#[test]
fn kosha_mount_is_shareable_across_user_sessions() {
    // Two mounts through the same koshad (two local processes).
    let c = cluster(3, 1, 0);
    let m1 = c.mount(0);
    let m2 = c.mount(0);
    m1.mkdir_p("/shared").unwrap();
    m1.write_file("/shared/note", b"from m1").unwrap();
    assert_eq!(m2.read_file("/shared/note").unwrap(), b"from m1");
    m2.remove("/shared/note").unwrap();
    assert!(!m1.exists("/shared/note"));
}

enum Op {
    MkdirP(&'static str),
    Write(&'static str, usize),
    Stat(&'static str),
    Read(&'static str),
    List(&'static str),
    Rename(&'static str, &'static str),
    Remove(&'static str),
    Rmdir(&'static str),
}

/// What the plain mount puts on the wire, per service, for a fixed
/// session: every kind of call a workload makes through it, new and
/// existing targets, files longer than a transfer chunk, and the errors
/// the walker itself decides (`IsDir`, `NotDir`). The numbers were read
/// off the mount when it held a bare `NfsClient`; the client layer now
/// under the walker may not move one of them.
#[test]
fn plain_mount_sends_a_pinned_number_of_rpcs_per_service() {
    use Op::*;
    const SCRIPT: [Op; 40] = [
        MkdirP("/pin/a/b"),
        MkdirP("/pin/a/c"),
        MkdirP("/other"),
        Write("/pin/a/b/f1", 100),
        Write("/pin/a/b/f2", 40 * 1024),
        Write("/pin/a/c/g", 7),
        Write("/other/h", 1),
        Write("/pin/a/b/f1", 50),
        Write("/pin/a/b/f2", 0),
        Stat("/pin/a/b/f1"),
        Stat("/pin/a"),
        Stat("/"),
        Stat("/pin/missing"),
        Read("/pin/a/b/f1"),
        Read("/pin/a/b/f2"),
        Read("/pin/a/c/g"),
        List("/pin/a/b"),
        List("/"),
        List("/pin/a"),
        Rename("/pin/a/b/f1", "/pin/a/b/f3"),
        Rename("/pin/a/b/f3", "/pin/a/b/f2"),
        Stat("/pin/a/b/f2"),
        Read("/pin/a/b/f2"),
        Write("/pin/a", 3),
        MkdirP("/pin/a/b/f2/x"),
        Remove("/pin/a/c/g"),
        Remove("/pin/a/c/g"),
        Rmdir("/pin/a/c"),
        Rmdir("/pin/a"),
        Write("/other/h2", 70 * 1024),
        Read("/other/h2"),
        Stat("/other/h2"),
        Remove("/other/h"),
        Remove("/other/h2"),
        Rmdir("/other"),
        Remove("/pin/a/b/f2"),
        Rmdir("/pin/a/b"),
        Rmdir("/pin/a"),
        Rmdir("/pin"),
        List("/"),
    ];
    let c = cluster(4, 2, 1);
    let calls = |s: ServiceId| {
        let name = format!("rpc_calls_total{{service=\"{}\"}}", s.name());
        c.net.obs().registry.counter(&name).get()
    };
    let before = ServiceId::ALL.map(calls);
    let m = c.mount(0);
    let outcome: String = SCRIPT
        .iter()
        .map(|op| match *op {
            MkdirP(p) => m.mkdir_p(p).is_ok(),
            Write(p, len) => m.write_file(p, &vec![7; len]).is_ok(),
            Stat(p) => m.stat(p).is_ok(),
            Read(p) => m.read_file(p).is_ok(),
            List(p) => m.readdir(p).is_ok(),
            Rename(from, to) => m.rename(from, to).is_ok(),
            Remove(p) => m.remove(p).is_ok(),
            Rmdir(p) => m.rmdir(p).is_ok(),
        })
        .map(|ok| if ok { '.' } else { 'x' })
        .collect();
    assert_eq!(outcome, "............x..........xx.x.x...........");
    let sent: Vec<_> = ServiceId::ALL
        .iter()
        .zip(before)
        .map(|(&s, b)| (s.name(), calls(s) - b))
        .collect();
    // A REMOVE goes to the parent's primary without a LOOKUP first, which
    // takes six NFS calls off the script (121 before): five REMOVEs, and
    // the retry of the one whose file is already gone. That one now fails
    // at the primary instead, so its try and its `NoEnt` retry are two
    // more control calls (46 before).
    //
    // A distributed MKDIR (`/pin`, `/pin/a`, `/other`) caches the handle
    // its `MakeSlot` returns instead of resolving the new directory
    // again, and an RMDIR looks nothing up first:
    // - pastry 17 -> 15: the name is routed once, to place it; two of the
    //   three re-resolving routes had cost a hop;
    // - nfs 115 -> 100: nine from the three MKDIRs (a LOOKUPPATH at the
    //   parent, the slot LOOKUP at the owner, a GETATTR each), six from
    //   the six RMDIRs: the two below the distribution level go straight
    //   to the parent's primary, the four at distributed depth (one
    //   refused `NotEmpty`) use the anchor location the MKDIR cached;
    // - kosha 48 -> 45: the three `StoreStats` probes; the owner refuses
    //   a `MakeSlot` itself when it is full.
    //
    // The first op makes the root anchor, whose owner first asks its three
    // leaf members for a copy to pull: one `SlotRecord` each on the
    // replica service (39 -> 42), where it sent each a MOUNT and two
    // LOOKUPs (nfs 100 -> 91).
    //
    // The root handle's location and the root's cached listing are one
    // entry of the handle table, so `Stat("/")` finds the listing a walk
    // already cached and sends one GETATTR. The root handle had no
    // location of its own, and resolving it asked for the attributes
    // once more (nfs 91 -> 90).
    //
    // A `NoEnt` is the op's answer and is not retried: only `Stale`, what
    // a node answers for what it no longer holds, is. The retry had
    // distrusted the whole chain and walked it again from the root
    // anchor, route included. Five ops met a `NoEnt`: the five LOOKUPs
    // `mkdir_p` makes of a name before making it (three in the first
    // MkdirP, one in each of the next two), `Stat("/pin/missing")`, and
    // the second `Remove("/pin/a/c/g")`, whose primary answers `NoEnt`.
    // Pastry 15 -> 3, nfs 90 -> 56 and kosha 45 -> 44 (the second
    // REMOVE's repeat).
    //
    // The root's owner answers the `EnsureAnchor` that makes the root
    // anchor with the slot root's handle, which the first walk had looked
    // up over NFS after it (nfs 56 -> 55).
    assert_eq!(
        sent,
        [
            ("pastry", 3),
            ("nfs", 55),
            ("kosha", 44),
            ("koshafs", 74),
            ("replica", 42),
        ]
    );
}

/// A user SYMLINK costs the koshad one `Mutate` to the parent's primary
/// and nothing over NFS: the primary's reply carries the link's handle
/// and attributes, which it had answered with a bare `Done` and the
/// koshad then looked up (one NFS LOOKUP per link).
#[test]
fn a_user_symlink_sends_no_nfs_call_after_its_mutate() {
    let c = cluster(4, 1, 1);
    let calls = |s: ServiceId| {
        let name = format!("rpc_calls_total{{service=\"{}\"}}", s.name());
        c.net.obs().registry.counter(&name).get()
    };
    let m = c.mount(0);
    m.mkdir_p("/links/d").unwrap();
    m.write_file("/links/d/target", b"pointed at").unwrap();
    let before = ServiceId::ALL.map(calls);
    let fh = m.symlink("/links/d/ln", "target").unwrap();
    let sent: Vec<_> = ServiceId::ALL
        .iter()
        .zip(before)
        .map(|(&s, b)| (s.name(), calls(s) - b))
        .collect();
    assert_eq!(
        sent,
        [
            ("pastry", 0),
            ("nfs", 0),
            ("kosha", 1),
            ("koshafs", 1),
            ("replica", 1),
        ]
    );
    let (found, attr) = m.stat("/links/d/ln").unwrap();
    assert_eq!(found, fh);
    assert_eq!(attr.ftype, FileType::Symlink);
    assert_eq!(m.readlink("/links/d/ln").unwrap(), "target");
}
