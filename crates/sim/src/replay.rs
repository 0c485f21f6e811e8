//! Operation-trace workloads: day-in-the-life replays through any
//! [`KoshaMount`].
//!
//! The MAB measures a compile-style burst; real NFS servers mostly see
//! long mixed streams of metadata and I/O with a skewed hot set. This
//! module generates such streams deterministically (Zipf-like file
//! popularity, configurable read/write mix, rename/delete churn) and
//! replays them, reporting per-class operation counts and the virtual
//! time consumed — the raw material for throughput-style comparisons
//! between Kosha and the NFS baseline beyond the paper's benchmark.

use crate::fstrace::FsTrace;
use kosha::KoshaMount;
use kosha_rpc::{Clock, VirtualClock};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::Duration;

/// One replayable operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplayOp {
    /// Read a whole file.
    Read(String),
    /// Overwrite a whole file with `len` bytes.
    Write(String, u32),
    /// Stat a path.
    Stat(String),
    /// List a directory.
    List(String),
    /// Rename a file within its directory.
    Rename(String, String),
    /// Delete and immediately recreate a file (temp-file churn).
    Recreate(String, u32),
}

/// Trace-generation parameters.
#[derive(Debug, Clone)]
pub struct ReplayParams {
    /// Number of operations to generate.
    pub ops: usize,
    /// Fraction of operations that are reads (the NFS-typical mix is
    /// read-heavy; Sprite/NFS studies put reads at 70–90 %).
    pub read_fraction: f64,
    /// Fraction that are metadata-only (stat/list) of the non-read rest.
    pub meta_fraction: f64,
    /// Zipf-ish skew exponent for file popularity (0 = uniform).
    pub skew: f64,
    /// Written-file size range.
    pub write_len: std::ops::Range<u32>,
    /// RNG seed.
    pub seed: u64,
}

impl Default for ReplayParams {
    fn default() -> Self {
        ReplayParams {
            ops: 2000,
            read_fraction: 0.7,
            meta_fraction: 0.5,
            skew: 0.9,
            write_len: 256..16384,
            seed: 11,
        }
    }
}

/// Per-class outcome counts and elapsed virtual time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplayReport {
    /// Reads performed.
    pub reads: u64,
    /// Writes performed.
    pub writes: u64,
    /// Metadata operations performed.
    pub metas: u64,
    /// Structural churn operations performed.
    pub churn: u64,
    /// Operations that failed (should be zero on a healthy cluster).
    pub errors: u64,
    /// Virtual nanoseconds consumed by the whole replay.
    pub elapsed_ns: u64,
}

impl ReplayReport {
    /// Total successful operations.
    #[must_use]
    pub fn total_ops(&self) -> u64 {
        self.reads + self.writes + self.metas + self.churn
    }

    /// Mean virtual latency per successful operation.
    #[must_use]
    pub fn mean_latency(&self) -> Duration {
        if self.total_ops() == 0 {
            Duration::ZERO
        } else {
            Duration::from_nanos(self.elapsed_ns / self.total_ops())
        }
    }
}

/// Generates a deterministic operation stream over the files of `trace`.
#[must_use]
pub fn generate_ops(trace: &FsTrace, params: &ReplayParams) -> Vec<ReplayOp> {
    let mut rng = StdRng::seed_from_u64(params.seed);
    let files: Vec<&str> = trace.files.iter().map(|f| f.path.as_str()).collect();
    let dirs: Vec<&str> = trace.dirs.iter().map(|d| d.as_str()).collect();
    assert!(!files.is_empty() && !dirs.is_empty(), "empty trace");

    // Zipf-ish popularity: rank r gets weight 1/(r+1)^skew.
    let weights: Vec<f64> = (0..files.len())
        .map(|r| 1.0 / ((r + 1) as f64).powf(params.skew))
        .collect();
    let wsum: f64 = weights.iter().sum();
    let pick_file = |rng: &mut StdRng| -> &str {
        let mut x: f64 = rng.random::<f64>() * wsum;
        for (i, w) in weights.iter().enumerate() {
            x -= w;
            if x <= 0.0 {
                return files[i];
            }
        }
        files[files.len() - 1]
    };

    let mut ops = Vec::with_capacity(params.ops);
    for i in 0..params.ops {
        let roll: f64 = rng.random();
        if roll < params.read_fraction {
            ops.push(ReplayOp::Read(pick_file(&mut rng).to_string()));
        } else if rng.random::<f64>() < params.meta_fraction {
            if rng.random::<bool>() {
                ops.push(ReplayOp::Stat(pick_file(&mut rng).to_string()));
            } else {
                let d = dirs[rng.random_range(0..dirs.len())];
                ops.push(ReplayOp::List(d.to_string()));
            }
        } else {
            let len = rng.random_range(params.write_len.clone());
            let f = pick_file(&mut rng).to_string();
            match rng.random_range(0..10u32) {
                0 => {
                    let to = format!("{f}.r{i}");
                    ops.push(ReplayOp::Rename(f, to.clone()));
                    // Rename back so later ops still find the file.
                    ops.push(ReplayOp::Rename(to, files_name_of(&ops)));
                }
                1 => ops.push(ReplayOp::Recreate(f, len)),
                _ => ops.push(ReplayOp::Write(f, len)),
            }
        }
    }
    ops
}

/// Helper: recover the original name for the rename-back op (the `from`
/// of the rename two entries earlier).
fn files_name_of(ops: &[ReplayOp]) -> String {
    if let Some(ReplayOp::Rename(from, _)) = ops.last() {
        from.clone()
    } else {
        unreachable!("called right after pushing a rename")
    }
}

/// Replays `ops` against `fs`, timing on `clock`. The target tree (dirs
/// and files of `trace`) must already be populated.
pub fn replay(ops: &[ReplayOp], fs: &KoshaMount, clock: &Arc<VirtualClock>) -> ReplayReport {
    let start = clock.now();
    let mut rep = ReplayReport::default();
    for op in ops {
        let ok = match op {
            ReplayOp::Read(p) => fs.read_file(p).map(|_| &mut rep.reads),
            ReplayOp::Write(p, len) => {
                let data = vec![0xCD; *len as usize];
                fs.write_file(p, &data).map(|_| &mut rep.writes)
            }
            ReplayOp::Stat(p) => fs.stat(p).map(|_| &mut rep.metas),
            ReplayOp::List(d) => fs.readdir(d).map(|_| &mut rep.metas),
            ReplayOp::Rename(from, to) => fs.rename(from, to).map(|()| &mut rep.churn),
            ReplayOp::Recreate(p, len) => fs
                .remove(p)
                .and_then(|()| fs.write_file(p, &vec![0xEF; *len as usize]))
                .map(|_| &mut rep.churn),
        };
        match ok {
            Ok(counter) => *counter += 1,
            Err(_) => rep.errors += 1,
        }
    }
    rep.elapsed_ns = clock.now().since(start).as_nanos() as u64;
    rep
}

/// Populates `fs` with the trace's directories and (zero-filled) files so
/// a replay has its targets.
pub fn populate(trace: &FsTrace, fs: &KoshaMount) -> Result<(), kosha_nfs::NfsError> {
    for d in &trace.dirs {
        fs.mkdir_p(d)?;
    }
    for f in &trace.files {
        // Small real payloads keep the replay cheap while exercising the
        // data path (the byte sizes of the original trace are exercised
        // by the placement experiments instead).
        let len = (f.size as usize).min(4096);
        fs.write_file(&f.path, &vec![0xAA; len])?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{ClusterParams, SimCluster};
    use crate::fstrace::TraceParams;
    use kosha::KoshaConfig;
    use kosha_rpc::LatencyModel;

    fn small_trace() -> FsTrace {
        FsTrace::generate(&TraceParams {
            seed: 5,
            ..TraceParams::default().scaled(0.001)
        })
    }

    #[test]
    fn generation_is_deterministic_and_mixed() {
        let trace = small_trace();
        let p = ReplayParams::default();
        let a = generate_ops(&trace, &p);
        let b = generate_ops(&trace, &p);
        assert_eq!(a, b);
        let reads = a.iter().filter(|o| matches!(o, ReplayOp::Read(_))).count();
        let frac = reads as f64 / a.len() as f64;
        assert!((frac - p.read_fraction).abs() < 0.1, "read mix off: {frac}");
    }

    #[test]
    fn replay_runs_clean_on_kosha() {
        let trace = small_trace();
        let c = SimCluster::build(&ClusterParams {
            nodes: 5,
            kosha: KoshaConfig {
                distribution_level: 2,
                replicas: 1,
                contributed_bytes: 1 << 26,
                ..KoshaConfig::for_tests()
            },
            latency: LatencyModel::zero(),
            seed: 55,
        });
        let m = c.mount(0);
        populate(&trace, &m).unwrap();
        let ops = generate_ops(
            &trace,
            &ReplayParams {
                ops: 400,
                ..Default::default()
            },
        );
        let clock = c.clock();
        let rep = replay(&ops, &m, &clock);
        assert_eq!(rep.errors, 0, "replay errors: {rep:?}");
        assert!(rep.reads > 0 && rep.writes > 0 && rep.metas > 0);
    }

    #[test]
    fn hot_set_is_skewed() {
        let trace = small_trace();
        let ops = generate_ops(
            &trace,
            &ReplayParams {
                ops: 5000,
                skew: 1.2,
                ..Default::default()
            },
        );
        use std::collections::HashMap;
        let mut counts: HashMap<&str, usize> = HashMap::new();
        for op in &ops {
            if let ReplayOp::Read(p) = op {
                *counts.entry(p.as_str()).or_insert(0) += 1;
            }
        }
        let mut freq: Vec<usize> = counts.values().copied().collect();
        freq.sort_unstable_by(|a, b| b.cmp(a));
        // The hottest file should see far more traffic than the median.
        let hot = freq[0];
        let median = freq[freq.len() / 2];
        assert!(hot >= median * 3, "no skew: hot {hot}, median {median}");
    }
}
