//! Differential semantics testing: the paper claims "the semantics of
//! Kosha are the same as NFS in the absence of failures" and that "the
//! behavior of Kosha in the presence of client caching also remains the
//! same as that of NFS" (§4.1.1). These tests run identical operation
//! sequences through one client four ways, against a plain central NFS
//! server and against a Kosha cluster, each with and without the kernel
//! client's caches, and require identical observable outcomes (results,
//! errors, listings, attributes). At `LatencyModel::zero()` the clock
//! stands still, so no cached entry ever expires: the hardest case for a
//! stale dentry or attribute.

use kosha::{KoshaConfig, KoshaMount};
use kosha_nfs::{CacheConfig, DiskModel, NfsError, NfsStatus};
use kosha_rpc::LatencyModel;
use kosha_sim::baseline::NfsBaseline;
use kosha_sim::cluster::{ClusterParams, SimCluster};
use proptest::prelude::*;

fn kosha_cluster() -> SimCluster {
    SimCluster::build(&ClusterParams {
        nodes: 5,
        kosha: KoshaConfig {
            distribution_level: 2,
            replicas: 1,
            contributed_bytes: 1 << 26,
            ..KoshaConfig::for_tests()
        },
        latency: LatencyModel::zero(),
        seed: 999,
    })
}

/// One server per mount, so the four see the same history: plain NFS
/// (the reference), cached NFS, Kosha, cached Kosha.
struct FourWays {
    nfs: [NfsBaseline; 2],
    nfs_cached: KoshaMount,
    _clusters: [SimCluster; 2],
    kosha: KoshaMount,
    kosha_cached: KoshaMount,
}

impl FourWays {
    fn new() -> Self {
        let nfs =
            [(); 2].map(|()| NfsBaseline::build(LatencyModel::zero(), DiskModel::zero(), 1 << 26));
        let clusters = [kosha_cluster(), kosha_cluster()];
        FourWays {
            nfs_cached: nfs[1].cached_mount(CacheConfig::default()),
            kosha: clusters[0].mount(0),
            kosha_cached: clusters[1].cached_mount(0, CacheConfig::default()),
            nfs,
            _clusters: clusters,
        }
    }

    /// Runs `step` on all four and requires the other three to answer as
    /// plain NFS does.
    fn agree<T: PartialEq + std::fmt::Debug>(
        &self,
        step: impl Fn(&KoshaMount) -> Result<T, NfsError>,
    ) -> Result<(), String> {
        let expect = norm(step(self.nfs[0].mount()));
        for (name, fs) in [
            ("nfs+cache", &self.nfs_cached),
            ("kosha", &self.kosha),
            ("kosha+cache", &self.kosha_cached),
        ] {
            let got = norm(step(fs));
            if got != expect {
                return Err(format!("{name} answered {got:?}, nfs {expect:?}"));
            }
        }
        Ok(())
    }
}

/// A mutation's outcome, whatever handle it returned.
fn ok<T>(_: T) -> String {
    "ok".to_string()
}

/// Normalizes an outcome for comparison: success payload or the status.
fn norm<T: PartialEq + std::fmt::Debug>(r: Result<T, NfsError>) -> Result<T, Option<NfsStatus>> {
    r.map_err(|e| match e {
        NfsError::Status(s) => Some(s),
        NfsError::Rpc(_) => None,
    })
}

fn bytes(d: kosha_rpc::Bytes) -> String {
    format!("{d:?}")
}

fn names(v: Vec<kosha_nfs::client::ClientDirEntry>) -> String {
    let names: Vec<String> = v.into_iter().map(|e| e.name).collect();
    names.join(",")
}

fn kind(fs: &KoshaMount, path: &str) -> Result<String, NfsError> {
    fs.stat(path).map(|(_, a)| format!("{:?}", a.ftype))
}

#[test]
fn identical_results_for_a_scripted_session() {
    let four = FourWays::new();

    // A session mixing successes and expected failures.
    type Step = fn(&KoshaMount) -> Result<String, NfsError>;
    let steps: Vec<Step> = vec![
        |fs| fs.mkdir_p("/proj/src").map(ok),
        |fs| fs.write_file("/proj/src/a.rs", b"fn a() {}").map(ok),
        |fs| fs.write_file("/proj/src/b.rs", b"fn b() {}").map(ok),
        |fs| fs.read_file("/proj/src/a.rs").map(bytes),
        |fs| fs.read_file("/proj/missing").map(bytes),
        |fs| {
            fs.stat("/proj/src/b.rs")
                .map(|(_, a)| format!("{}:{:?}", a.size, a.ftype))
        },
        |fs| kind(fs, "/proj"),
        |fs| fs.readdir("/proj/src").map(names),
        |fs| fs.read_file("/proj").map(bytes),       // IsDir
        |fs| fs.mkdir_p("/proj/src/a.rs/x").map(ok), // NotDir
        |fs| fs.write_file("/proj/src/a.rs", b"fn a2() {}").map(ok),
        |fs| fs.read_file("/proj/src/a.rs").map(bytes),
        // A whole-file write onto a directory is refused before anything
        // is sent that could change it.
        |fs| fs.write_file("/proj/src", b"not a file").map(ok), // IsDir
        |fs| fs.readdir("/proj/src").map(names),
        // A name that was just looked up and missed, then made a symlink:
        // the miss must not outlive the SYMLINK.
        |fs| kind(fs, "/proj/link"),
        |fs| fs.symlink("/proj/link", "src/a.rs").map(ok),
        |fs| kind(fs, "/proj/link"),
        |fs| fs.readlink("/proj/link"),
        |fs| fs.remove("/proj/link").map(ok),
        |fs| fs.readlink("/proj/link"),
        // A subtree removed in one call takes every cached name and
        // attribute under it along, so the path can be reused at once.
        |fs| fs.mkdir_p("/proj/tmp/deep").map(ok),
        |fs| fs.write_file("/proj/tmp/deep/f", b"first").map(ok),
        |fs| fs.read_file("/proj/tmp/deep/f").map(bytes),
        |fs| fs.remove_tree("/proj/tmp").map(ok),
        |fs| fs.read_file("/proj/tmp/deep/f").map(bytes), // NoEnt
        |fs| kind(fs, "/proj/tmp/deep"),
        |fs| fs.mkdir_p("/proj/tmp/deep/f").map(ok),
        |fs| kind(fs, "/proj/tmp/deep/f"),
    ];

    for (i, step) in steps.iter().enumerate() {
        if let Err(e) = four.agree(step) {
            panic!("step {i} diverged: {e}");
        }
    }
}

#[derive(Debug, Clone)]
enum Op {
    MkdirP(u8, u8),
    Write(u8, u8, u16),
    Read(u8, u8),
    Stat(u8, u8),
    List(u8),
    Remove(u8, u8),
    RmdirSub(u8, u8),
    /// Same-directory rename (cross-node directory moves are NotSupp in
    /// Kosha — the expensive traversal the paper declines to evaluate —
    /// so the differential workload stays within one parent).
    RenameFile(u8, u8, u8),
}

fn dir_name(sel: u8) -> String {
    format!("/zone{}", sel % 4)
}

fn file_path(d: u8, f: u8) -> String {
    format!("{}/file{}", dir_name(d), f % 5)
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (any::<u8>(), any::<u8>()).prop_map(|(d, s)| Op::MkdirP(d, s)),
        (any::<u8>(), any::<u8>(), 1u16..2000).prop_map(|(d, f, n)| Op::Write(d, f, n)),
        (any::<u8>(), any::<u8>()).prop_map(|(d, f)| Op::Read(d, f)),
        (any::<u8>(), any::<u8>()).prop_map(|(d, f)| Op::Stat(d, f)),
        any::<u8>().prop_map(Op::List),
        (any::<u8>(), any::<u8>()).prop_map(|(d, f)| Op::Remove(d, f)),
        (any::<u8>(), any::<u8>()).prop_map(|(d, s)| Op::RmdirSub(d, s)),
        (any::<u8>(), any::<u8>(), any::<u8>()).prop_map(|(d, f, t)| Op::RenameFile(d, f, t)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random sessions behave identically on NFS and on Kosha, cached or
    /// not.
    #[test]
    fn random_sessions_agree(ops in proptest::collection::vec(op_strategy(), 1..40)) {
        let four = FourWays::new();

        for (i, op) in ops.iter().enumerate() {
                    let agreed = four.agree(|fs| match op {
                Op::MkdirP(d, s) => fs
                    .mkdir_p(&format!("{}/sub{}", dir_name(*d), s % 3))
                    .map(ok),
                Op::Write(d, f, n) => {
                    let data = vec![(*f).wrapping_add(1); *n as usize];
                    fs.write_file(&file_path(*d, *f), &data).map(ok)
                }
                Op::Read(d, f) => fs
                    .read_file(&file_path(*d, *f))
                    .map(|v| format!("{}:{:x?}", v.len(), v.first())),
                Op::Stat(d, f) => fs
                    .stat(&file_path(*d, *f))
                    .map(|(_, a)| format!("{}:{:?}", a.size, a.ftype)),
                Op::List(d) => fs.readdir(&dir_name(*d)).map(|v| {
                    v.into_iter()
                        .map(|e| format!("{}:{:?}", e.name, e.ftype))
                        .collect::<Vec<_>>()
                        .join(",")
                }),
                Op::Remove(d, f) => fs.remove(&file_path(*d, *f)).map(ok),
                Op::RmdirSub(d, s) => fs
                    .rmdir(&format!("{}/sub{}", dir_name(*d), s % 3))
                    .map(ok),
                Op::RenameFile(d, f, t) => fs
                    .rename(
                        &file_path(*d, *f),
                        &format!("{}/renamed{}", dir_name(*d), t % 3),
                    )
                    .map(ok),
            });
            prop_assert!(agreed.is_ok(), "op {} ({:?}) diverged: {:?}", i, op, agreed);
        }
    }
}
