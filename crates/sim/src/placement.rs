//! Trace-driven placement simulator for the load-balance and redirection
//! experiments (Figures 5 and 6).
//!
//! This reproduces the paper's own methodology: Sections 6.2's studies
//! were *simulations* of a 16-node Kosha cluster driven by the
//! file-system trace, not runs of the 8-node prototype. The simulator
//! applies exactly the production placement rules — directory-name
//! hashing ([`kosha_id::dir_key`]), distribution level, iterative salt
//! redirection against a utilization threshold, and leaf-set replica
//! charging — over a ring of node identifiers, and records per-node load
//! and insertion failures.

use crate::fstrace::FsTrace;
use kosha::paths::anchor_dir_of;
use kosha_id::id::numerically_closest;
use kosha_id::{node_id_from_seed, salted_dir_key, Id};
use kosha_vfs::path::parent_and_name;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// Simulator parameters.
#[derive(Debug, Clone)]
pub struct PlacementParams {
    /// Per-node capacities in bytes (length = node count).
    pub capacities: Vec<u64>,
    /// Distribution level (paper: 1–10 in Fig 5; 4 in Fig 6).
    pub level: usize,
    /// Additional replicas per file (paper: 3 in both experiments).
    pub replicas: usize,
    /// Directory redirection attempts (0 disables redirection).
    pub redirect_attempts: usize,
    /// Utilization above which a node refuses new directories.
    pub redirect_utilization: f64,
    /// Seed controlling node-id assignment and salts (the paper varies
    /// "the nodeId assignments in the Pastry network" across runs).
    pub seed: u64,
}

impl PlacementParams {
    /// The paper's Fig 5 configuration: 16 homogeneous 10 GB nodes.
    #[must_use]
    pub fn fig5(level: usize, seed: u64) -> Self {
        PlacementParams {
            capacities: vec![10_000_000_000; 16],
            level,
            replicas: 3,
            redirect_attempts: 0,
            redirect_utilization: 1.0,
            seed,
        }
    }

    /// The paper's Fig 6 configuration: 8×3 GB + 4×4 GB + 4×5 GB nodes,
    /// distribution level 4.
    #[must_use]
    pub fn fig6(redirect_attempts: usize, seed: u64) -> Self {
        let mut capacities = vec![3_000_000_000u64; 8];
        capacities.extend(vec![4_000_000_000; 4]);
        capacities.extend(vec![5_000_000_000; 4]);
        PlacementParams {
            capacities,
            level: 4,
            replicas: 3,
            redirect_attempts,
            redirect_utilization: 0.95,
            seed,
        }
    }
}

/// Per-node load tallies after placement.
#[derive(Debug, Clone, Default)]
pub struct NodeLoad {
    /// Primary files stored.
    pub files: u64,
    /// Primary bytes stored.
    pub bytes: u64,
    /// Total bytes charged (primary + replicas).
    pub used: u64,
}

/// One `(utilization, cumulative failure ratio)` sample (Fig 6's axes).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UtilSample {
    /// Total stored bytes / total capacity at this point.
    pub utilization: f64,
    /// Failed insertions / attempted insertions so far.
    pub failure_ratio: f64,
}

/// The placement simulator.
pub struct PlacementSim {
    params: PlacementParams,
    ids: Vec<Id>,
    load: Vec<NodeLoad>,
    /// Cache: anchor directory path → chosen node (after redirection).
    // lint: allow(L008) run-scoped sim harness state: one placement run's anchors, dropped with the harness
    anchor_home: HashMap<String, Option<usize>>,
    rng: StdRng,
    attempts: u64,
    failures: u64,
    /// Periodic samples taken during insertion.
    samples: Vec<UtilSample>,
}

impl PlacementSim {
    /// Builds the ring with seeded node ids.
    #[must_use]
    pub fn new(params: PlacementParams) -> Self {
        let ids: Vec<Id> = (0..params.capacities.len())
            .map(|i| node_id_from_seed(&format!("ring{}-{i}", params.seed)))
            .collect();
        let n = params.capacities.len();
        PlacementSim {
            rng: StdRng::seed_from_u64(params.seed.wrapping_mul(0x9E37_79B9)),
            params,
            ids,
            load: vec![NodeLoad::default(); n],
            anchor_home: HashMap::new(),
            attempts: 0,
            failures: 0,
            samples: Vec::new(),
        }
    }

    fn owner_idx(&self, key: Id) -> usize {
        let owner = numerically_closest(key, &self.ids).expect("non-empty ring");
        self.ids.iter().position(|&i| i == owner).expect("present")
    }

    /// The K ring neighbors of `idx` (alternating clockwise and
    /// counter-clockwise), mirroring leaf-set replica placement.
    fn replica_idxs(&self, idx: usize) -> Vec<usize> {
        let n = self.ids.len();
        let me = self.ids[idx];
        // Order every other node by ring distance to me.
        let mut others: Vec<usize> = (0..n).filter(|&i| i != idx).collect();
        others.sort_by_key(|&i| me.ring_distance(self.ids[i]));
        others.truncate(self.params.replicas);
        others
    }

    /// The anchor (deepest distributed ancestor directory) of a file
    /// path, per §3.1–3.2.
    fn anchor_of(&self, file_path: &str) -> String {
        let (dir, _) = parent_and_name(file_path).unwrap_or(("/", ""));
        anchor_dir_of(dir, self.params.level)
            .expect("trace paths are absolute")
            .into_owned()
    }

    /// Resolves (or decides, with redirection) the home node of an
    /// anchor directory. `None` means no node could host it.
    fn home_of_anchor(&mut self, anchor: &str) -> Option<usize> {
        if let Some(&h) = self.anchor_home.get(anchor) {
            return h;
        }
        let name = if anchor == "/" {
            "/"
        } else {
            parent_and_name(anchor).map(|(_, n)| n).unwrap_or("/")
        };
        let mut chosen = None;
        for attempt in 0..=self.params.redirect_attempts {
            let salt = if attempt == 0 {
                None
            } else {
                Some(self.rng.random_range(0..1_000_000u64))
            };
            let idx = self.owner_idx(salted_dir_key(name, salt));
            let cap = self.params.capacities[idx];
            let util = self.load[idx].used as f64 / cap as f64;
            if util < self.params.redirect_utilization {
                chosen = Some(idx);
                break;
            }
        }
        self.anchor_home.insert(anchor.to_string(), chosen);
        chosen
    }

    /// Inserts one file; returns false if the insertion failed (its
    /// node, or a replica's node, had no room).
    pub fn insert(&mut self, file_path: &str, size: u64) -> bool {
        self.attempts += 1;
        let anchor = self.anchor_of(file_path);
        let ok = (|| {
            let idx = self.home_of_anchor(&anchor)?;
            if self.load[idx].used + size > self.params.capacities[idx] {
                return None;
            }
            // Charge the primary.
            self.load[idx].files += 1;
            self.load[idx].bytes += size;
            self.load[idx].used += size;
            // Charge replicas (best effort: replicas that do not fit are
            // skipped, as a real push would fail, without failing the
            // insertion).
            for r in self.replica_idxs(idx) {
                if self.load[r].used + size <= self.params.capacities[r] {
                    self.load[r].used += size;
                }
            }
            Some(())
        })()
        .is_some();
        if !ok {
            self.failures += 1;
        }
        ok
    }

    /// Inserts an entire trace, sampling utilization/failure curves.
    pub fn insert_trace(&mut self, trace: &FsTrace) {
        let every = (trace.files.len() / 200).max(1);
        for (i, f) in trace.files.iter().enumerate() {
            self.insert(&f.path, f.size);
            if i % every == 0 {
                self.samples.push(self.sample());
            }
        }
        self.samples.push(self.sample());
    }

    /// Current utilization / failure-ratio sample.
    #[must_use]
    pub fn sample(&self) -> UtilSample {
        let cap: u64 = self.params.capacities.iter().sum();
        let used: u64 = self.load.iter().map(|l| l.used).sum();
        UtilSample {
            utilization: used as f64 / cap as f64,
            failure_ratio: if self.attempts == 0 {
                0.0
            } else {
                self.failures as f64 / self.attempts as f64
            },
        }
    }

    /// Per-node load tallies.
    #[must_use]
    pub fn loads(&self) -> &[NodeLoad] {
        &self.load
    }

    /// All samples recorded during [`PlacementSim::insert_trace`].
    #[must_use]
    pub fn samples(&self) -> &[UtilSample] {
        &self.samples
    }

    /// `(mean %, stdev %)` of per-node share of file count and of bytes
    /// (primary copies), the quantities plotted in Fig 5.
    #[must_use]
    pub fn balance_stats(&self) -> BalanceStats {
        let total_files: u64 = self.load.iter().map(|l| l.files).sum();
        let total_bytes: u64 = self.load.iter().map(|l| l.bytes).sum();
        let n = self.load.len() as f64;
        let fpcts: Vec<f64> = self
            .load
            .iter()
            .map(|l| 100.0 * l.files as f64 / total_files.max(1) as f64)
            .collect();
        let bpcts: Vec<f64> = self
            .load
            .iter()
            .map(|l| 100.0 * l.bytes as f64 / total_bytes.max(1) as f64)
            .collect();
        let mean = |v: &[f64]| v.iter().sum::<f64>() / n;
        let std = |v: &[f64], m: f64| (v.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / n).sqrt();
        let fm = mean(&fpcts);
        let bm = mean(&bpcts);
        BalanceStats {
            files_mean_pct: fm,
            files_std_pct: std(&fpcts, fm),
            bytes_mean_pct: bm,
            bytes_std_pct: std(&bpcts, bm),
        }
    }

    /// Places each file *individually* by hashing its full path — the
    /// paper's "hypothetical scheme which distributed individual files",
    /// the finest-grained upper bound in Fig 5.
    #[must_use]
    pub fn per_file_baseline(params: &PlacementParams, trace: &FsTrace) -> BalanceStats {
        let mut sim = PlacementSim::new(params.clone());
        for f in &trace.files {
            let idx = sim.owner_idx(kosha_id::dir_key(&f.path));
            sim.load[idx].files += 1;
            sim.load[idx].bytes += f.size;
            sim.load[idx].used += f.size;
        }
        sim.balance_stats()
    }
}

/// Fig 5's plotted statistics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BalanceStats {
    /// Mean per-node share of file count, percent (≈ 100/N).
    pub files_mean_pct: f64,
    /// Standard deviation of the per-node file-count share.
    pub files_std_pct: f64,
    /// Mean per-node share of bytes, percent.
    pub bytes_mean_pct: f64,
    /// Standard deviation of the per-node byte share.
    pub bytes_std_pct: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fstrace::{FsTrace, TraceParams};

    fn small_trace(seed: u64) -> FsTrace {
        FsTrace::generate(&TraceParams {
            seed,
            ..TraceParams::default().scaled(0.01)
        })
    }

    #[test]
    fn anchor_computation() {
        // A file is placed with its parent directory's anchor.
        let at = |level| PlacementSim::new(PlacementParams::fig5(level, 1));
        assert_eq!(at(1).anchor_of("/a/b/c/f"), "/a");
        assert_eq!(at(2).anchor_of("/a/b/c/f"), "/a/b");
        assert_eq!(at(4).anchor_of("/a/f"), "/a");
        assert_eq!(at(3).anchor_of("/f"), "/");
    }

    #[test]
    fn higher_level_improves_balance() {
        let trace = small_trace(7);
        let coarse = {
            let mut s = PlacementSim::new(PlacementParams::fig5(1, 3));
            s.insert_trace(&trace);
            s.balance_stats()
        };
        let fine = {
            let mut s = PlacementSim::new(PlacementParams::fig5(8, 3));
            s.insert_trace(&trace);
            s.balance_stats()
        };
        assert!(
            fine.files_std_pct < coarse.files_std_pct,
            "level 8 std {} !< level 1 std {}",
            fine.files_std_pct,
            coarse.files_std_pct
        );
    }

    #[test]
    fn mean_share_is_one_over_n() {
        let trace = small_trace(9);
        let mut s = PlacementSim::new(PlacementParams::fig5(4, 1));
        s.insert_trace(&trace);
        let b = s.balance_stats();
        assert!((b.files_mean_pct - 100.0 / 16.0).abs() < 1e-6);
    }

    #[test]
    fn per_file_baseline_is_at_least_as_balanced() {
        let trace = small_trace(11);
        let params = PlacementParams::fig5(2, 5);
        let mut s = PlacementSim::new(params.clone());
        s.insert_trace(&trace);
        let dir_stats = s.balance_stats();
        let file_stats = PlacementSim::per_file_baseline(&params, &trace);
        assert!(file_stats.files_std_pct <= dir_stats.files_std_pct + 0.5);
    }

    #[test]
    fn redirection_reduces_failures() {
        // Tiny nodes so capacity pressure is high.
        let trace = small_trace(13);
        let total = trace.total_bytes();
        let mk = |attempts| {
            let mut p = PlacementParams::fig6(attempts, 3);
            // Scale capacities so the trace fills ~85% of primaries+replicas.
            let scale = (total * 4) as f64 / 0.85 / 60_000_000_000.0;
            for c in &mut p.capacities {
                *c = ((*c as f64) * scale) as u64;
            }
            let mut s = PlacementSim::new(p);
            s.insert_trace(&trace);
            s.sample().failure_ratio
        };
        let no_redir = mk(0);
        let with_redir = mk(8);
        assert!(
            with_redir <= no_redir,
            "redirection made it worse: {with_redir} > {no_redir}"
        );
    }

    #[test]
    fn failure_ratio_grows_with_utilization() {
        let trace = small_trace(17);
        let total = trace.total_bytes();
        let mut p = PlacementParams::fig6(4, 3);
        let scale = (total * 4) as f64 / 1.2 / 60_000_000_000.0; // overfill
        for c in &mut p.capacities {
            *c = ((*c as f64) * scale) as u64;
        }
        let mut s = PlacementSim::new(p);
        s.insert_trace(&trace);
        let samples = s.samples();
        let early = samples[samples.len() / 4];
        let late = *samples.last().unwrap();
        assert!(late.failure_ratio >= early.failure_ratio);
        assert!(late.utilization > 0.5, "utilization {}", late.utilization);
    }

    #[test]
    fn same_directory_files_share_a_node() {
        let mut s = PlacementSim::new(PlacementParams::fig5(2, 3));
        for i in 0..50 {
            assert!(s.insert(&format!("/user/proj/f{i}"), 1000));
        }
        let with_files = s.load.iter().filter(|l| l.files > 0).count();
        assert_eq!(with_files, 1, "one directory spread across nodes");
    }
}
