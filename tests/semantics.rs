//! Differential semantics testing: the paper claims "the semantics of
//! Kosha are the same as NFS in the absence of failures" (§4.1.1). These
//! tests run identical operation sequences against a plain central NFS
//! server and against a Kosha cluster, and require identical observable
//! outcomes (results, errors, listings, attributes).

use kosha::KoshaConfig;
use kosha_nfs::{DiskModel, NfsError, NfsStatus};
use kosha_rpc::LatencyModel;
use kosha_sim::baseline::NfsBaseline;
use kosha_sim::cluster::{ClusterParams, SimCluster};
use kosha_sim::workbench::Workbench;
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

/// Normalizes an outcome for comparison: success payload or the status.
fn norm<T: PartialEq + std::fmt::Debug>(r: Result<T, NfsError>) -> Result<T, Option<NfsStatus>> {
    r.map_err(|e| match e {
        NfsError::Status(s) => Some(s),
        NfsError::Rpc(_) => None,
    })
}

#[test]
fn identical_results_for_a_scripted_session() {
    let nfs = NfsBaseline::build(LatencyModel::zero(), DiskModel::zero(), 1 << 26);
    let cluster = kosha_cluster();
    let kosha = cluster.mount(0);

    // A session mixing successes and expected failures.
    type Step = fn(&dyn Workbench) -> Result<String, NfsError>;
    let steps: Vec<Step> = vec![
        |fs| fs.mkdir_p("/proj/src").map(|_| "ok".into()),
        |fs| {
            fs.write_file("/proj/src/a.rs", b"fn a() {}")
                .map(|_| "ok".into())
        },
        |fs| {
            fs.write_file("/proj/src/b.rs", b"fn b() {}")
                .map(|_| "ok".into())
        },
        |fs| fs.read_file("/proj/src/a.rs").map(|d| format!("{d:?}")),
        |fs| fs.read_file("/proj/missing").map(|d| format!("{d:?}")),
        |fs| {
            fs.stat("/proj/src/b.rs")
                .map(|a| format!("{}:{:?}", a.size, a.ftype))
        },
        |fs| fs.stat("/proj").map(|a| format!("{:?}", a.ftype)),
        |fs| {
            fs.readdir("/proj/src").map(|v| {
                v.iter()
                    .map(|(n, _)| n.clone())
                    .collect::<Vec<_>>()
                    .join(",")
            })
        },
        |fs| fs.read_file("/proj").map(|d| format!("{d:?}")), // IsDir
        |fs| fs.mkdir_p("/proj/src/a.rs/x").map(|_| "ok".into()), // NotDir
        |fs| {
            fs.write_file("/proj/src/a.rs", b"fn a2() {}")
                .map(|_| "ok".into())
        },
        |fs| fs.read_file("/proj/src/a.rs").map(|d| format!("{d:?}")),
    ];

    for (i, step) in steps.iter().enumerate() {
        let expect = norm(step(nfs.mount()));
        let got = norm(step(&kosha));
        assert_eq!(got, expect, "step {i} diverged");
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

    /// Random sessions behave identically on NFS and on Kosha.
    #[test]
    fn random_sessions_agree(ops in proptest::collection::vec(op_strategy(), 1..40)) {
        let nfs = NfsBaseline::build(LatencyModel::zero(), DiskModel::zero(), 1 << 26);
        let cluster = kosha_cluster();
        let kosha = cluster.mount(0);

        for (i, op) in ops.iter().enumerate() {
            let run = |fs: &dyn Workbench| -> Result<String, _> {
                let ok = |()| "ok".to_string();
                norm(match op {
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
                        .map(|a| format!("{}:{:?}", a.size, a.ftype)),
                    Op::List(d) => fs.readdir(&dir_name(*d)).map(|v| {
                        v.into_iter()
                            .map(|(n, t)| format!("{n}:{t:?}"))
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
                })
            };
            let (a, b) = (run(nfs.mount()), run(&kosha));
            prop_assert_eq!(b, a, "op {} ({:?}) diverged", i, op);
        }
    }
}
