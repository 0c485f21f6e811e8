//! The Modified Andrew Benchmark (MAB).
//!
//! Section 6.1 measures Kosha with "a modified Andrew benchmark" — the
//! classic five phases (mkdir, copy, stat, grep, compile) "modified to
//! run ... with a larger workload": a 51 MB source tree with a maximum
//! subdirectory level of 5. This module generates such a tree
//! deterministically and drives the phases through a [`KoshaMount`] (of a
//! koshad or of the plain-NFS baseline, cached or not), measuring each
//! phase on the shared virtual clock.

use kosha::KoshaMount;
use kosha_nfs::NfsResult;
use kosha_rpc::{Clock, VirtualClock};
use kosha_vfs::FileType;
use std::sync::Arc;
use std::time::Duration;

/// Workload parameters.
#[derive(Debug, Clone)]
pub struct MabParams {
    /// Top-level directories of the source tree.
    pub top_dirs: usize,
    /// Sub-branching at each deeper level.
    pub branch: usize,
    /// Tree depth (paper: maximum subdirectory level of 5).
    pub depth: usize,
    /// Number of source files.
    pub files: usize,
    /// Total bytes across all files (paper: 51 MB).
    pub total_bytes: u64,
    /// Simulated CPU cost of compiling one KiB of source.
    pub compile_cpu_per_kib: Duration,
    /// Root of the tree inside the target file system.
    pub root: String,
}

impl Default for MabParams {
    fn default() -> Self {
        MabParams {
            top_dirs: 6,
            branch: 2,
            depth: 5,
            files: 240,
            total_bytes: 51 * 1024 * 1024,
            // 2.0 GHz P4-era compiler throughput ≈ a few hundred KB/s of
            // source; 1.5 ms/KiB keeps the compile phase dominant, as in
            // the paper's timings.
            compile_cpu_per_kib: Duration::from_micros(1500),
            // Top-level directories sit directly under /kosha so the
            // level-1 distribution spreads them over the nodes — the
            // (N−1)/N remote fraction of Section 6.1.2.
            root: "/".to_string(),
        }
    }
}

impl MabParams {
    /// A tiny variant for unit tests.
    #[must_use]
    pub fn small() -> Self {
        MabParams {
            top_dirs: 2,
            branch: 2,
            depth: 3,
            files: 12,
            total_bytes: 96 * 1024,
            compile_cpu_per_kib: Duration::from_micros(100),
            root: "/".to_string(),
        }
    }

    /// All directory paths of the tree, shallow-first.
    #[must_use]
    pub fn dirs(&self) -> Vec<String> {
        let mut out: Vec<String> = Vec::new();
        if self.root != "/" {
            out.push(self.root.clone());
        }
        let prefix = if self.root == "/" {
            ""
        } else {
            self.root.as_str()
        };
        let mut frontier: Vec<String> = Vec::new();
        for t in 0..self.top_dirs {
            let d = format!("{prefix}/mabd{t}");
            out.push(d.clone());
            frontier.push(d);
        }
        for level in 2..=self.depth {
            let mut next = Vec::new();
            for parent in &frontier {
                for b in 0..self.branch {
                    let d = format!("{parent}/l{level}b{b}");
                    out.push(d.clone());
                    next.push(d);
                }
            }
            frontier = next;
        }
        out
    }

    /// All `(path, size)` source files, deterministically sized so sizes
    /// vary but sum exactly to `total_bytes`.
    #[must_use]
    pub fn files(&self) -> Vec<(String, u64)> {
        let dirs = self.dirs();
        let mut out = Vec::with_capacity(self.files);
        // Size pattern: a repeating mix of small/medium/large around the
        // mean, adjusted on the last file to hit the exact total.
        let mean = self.total_bytes / self.files as u64;
        let pattern = [3u64, 5, 7, 10, 13, 18, 7, 17]; // tenths of mean
        let mut acc = 0u64;
        for i in 0..self.files {
            let dir = &dirs[i % dirs.len()];
            let size = if i + 1 == self.files {
                self.total_bytes - acc
            } else {
                (mean * pattern[i % pattern.len()] / 10).max(1)
            };
            acc += size;
            out.push((format!("{dir}/src{i}.c"), size));
        }
        out
    }
}

/// Per-phase execution times, in simulated seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MabTimes {
    /// Directory-creation phase.
    pub mkdir: Duration,
    /// File copy-in phase.
    pub copy: Duration,
    /// Recursive stat (`ls -lR`) phase.
    pub stat: Duration,
    /// Full-content scan phase.
    pub grep: Duration,
    /// Compile-and-link phase.
    pub compile: Duration,
}

impl MabTimes {
    /// Sum of all phases.
    #[must_use]
    pub fn total(&self) -> Duration {
        self.mkdir + self.copy + self.stat + self.grep + self.compile
    }

    /// Percentage overhead of `self` relative to a baseline, per phase
    /// and total, as `(mkdir, copy, stat, grep, compile, total)`.
    #[must_use]
    pub fn overhead_vs(&self, base: &MabTimes) -> (f64, f64, f64, f64, f64, f64) {
        fn pct(a: Duration, b: Duration) -> f64 {
            if b.is_zero() {
                0.0
            } else {
                (a.as_secs_f64() / b.as_secs_f64() - 1.0) * 100.0
            }
        }
        (
            pct(self.mkdir, base.mkdir),
            pct(self.copy, base.copy),
            pct(self.stat, base.stat),
            pct(self.grep, base.grep),
            pct(self.compile, base.compile),
            pct(self.total(), base.total()),
        )
    }
}

/// Runs all five phases against `fs`, measuring on `clock`.
pub fn run_mab(
    params: &MabParams,
    fs: &KoshaMount,
    clock: &Arc<VirtualClock>,
) -> NfsResult<MabTimes> {
    let dirs = params.dirs();
    let files = params.files();

    // Phase 1: mkdir.
    let t0 = clock.now();
    for d in &dirs {
        fs.mkdir_p(d)?;
    }
    let mkdir = clock.now().since(t0);

    // Phase 2: copy — write every source file.
    let t0 = clock.now();
    for (path, size) in &files {
        let data = vec![b'x'; *size as usize];
        fs.write_file(path, &data)?;
    }
    let copy = clock.now().since(t0);

    // Phase 3: stat — recursive directory walk with per-entry stats
    // (the benchmark's `ls -lR`).
    let t0 = clock.now();
    let mut stack: Vec<String> = params.dirs().into_iter().take(params.top_dirs).collect();
    while let Some(dir) = stack.pop() {
        for e in fs.readdir(&dir)? {
            let p = format!("{dir}/{}", e.name);
            fs.stat(&p)?;
            if e.ftype == FileType::Directory {
                stack.push(p);
            }
        }
    }
    let stat = clock.now().since(t0);

    // Phase 4: grep — read every file end to end.
    let t0 = clock.now();
    for (path, size) in &files {
        let data = fs.read_file(path)?;
        debug_assert_eq!(data.len() as u64, *size);
    }
    let grep = clock.now().since(t0);

    // Phase 5: compile — read each source, burn CPU, emit an object
    // file, then link everything.
    let t0 = clock.now();
    let mut objects = Vec::with_capacity(files.len());
    for (path, size) in &files {
        let src = fs.read_file(path)?;
        let kib = (src.len() as u64).div_ceil(1024);
        clock.advance(params.compile_cpu_per_kib * kib as u32);
        let obj_path = format!("{path}.o");
        let obj = vec![b'o'; (*size as usize) / 2];
        fs.write_file(&obj_path, &obj)?;
        objects.push((obj_path, obj.len() as u64));
    }
    // Link: read all objects, write the final binary.
    let mut bin_size = 0u64;
    for (path, size) in &objects {
        let _ = fs.read_file(path)?;
        bin_size += size / 2;
    }
    clock.advance(params.compile_cpu_per_kib * (bin_size.div_ceil(1024)) as u32);
    let link_dir = params.dirs().into_iter().next().expect("at least one dir");
    fs.write_file(&format!("{link_dir}/a.out"), &vec![b'b'; bin_size as usize])?;
    let compile = clock.now().since(t0);

    Ok(MabTimes {
        mkdir,
        copy,
        stat,
        grep,
        compile,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::NfsBaseline;
    use kosha_nfs::DiskModel;
    use kosha_rpc::LatencyModel;

    #[test]
    fn tree_spec_is_deterministic_and_sums() {
        let p = MabParams::default();
        let d1 = p.dirs();
        let d2 = p.dirs();
        assert_eq!(d1, d2);
        let mut expect = p.top_dirs + usize::from(p.root != "/");
        let mut level_count = p.top_dirs;
        for _ in 2..=p.depth {
            level_count *= p.branch;
            expect += level_count;
        }
        assert_eq!(d1.len(), expect);
        let files = p.files();
        assert_eq!(files.len(), p.files);
        let total: u64 = files.iter().map(|(_, s)| s).sum();
        assert_eq!(total, p.total_bytes);
    }

    #[test]
    fn mab_runs_on_baseline() {
        let b = NfsBaseline::build(LatencyModel::default(), DiskModel::default(), 1 << 30);
        let clock = b.clock();
        let times = run_mab(&MabParams::small(), b.mount(), &clock).unwrap();
        assert!(times.mkdir > Duration::ZERO);
        assert!(times.copy > Duration::ZERO);
        assert!(times.stat > Duration::ZERO);
        assert!(times.grep > Duration::ZERO);
        assert!(times.compile > times.grep, "compile should dominate grep");
    }

    #[test]
    fn overhead_vs_math() {
        let a = MabTimes {
            mkdir: Duration::from_secs(11),
            copy: Duration::from_secs(22),
            stat: Duration::from_secs(11),
            grep: Duration::from_secs(11),
            compile: Duration::from_secs(11),
        };
        let b = MabTimes {
            mkdir: Duration::from_secs(10),
            copy: Duration::from_secs(20),
            stat: Duration::from_secs(10),
            grep: Duration::from_secs(10),
            compile: Duration::from_secs(10),
        };
        let (mk, cp, _, _, _, total) = a.overhead_vs(&b);
        assert!((mk - 10.0).abs() < 1e-9);
        assert!((cp - 10.0).abs() < 1e-9);
        assert!((total - 10.0).abs() < 1e-9);
    }
}
