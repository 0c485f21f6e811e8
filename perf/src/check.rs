//! `--check`: the whole suite twice, each run a child process exactly as
//! the driver would start it, workloads interleaved (A B C D A B C D) so
//! that a slow phase of the machine does not fall on one workload only.
//! Prints how far the two sets of end-to-end metrics are apart against
//! each metric's bound, names every count metric of a `*_sim` workload
//! that does not repeat exactly, and fails if an RPC count is among them or
//! an allocation count is off by more than 1 %.

use crate::json::Json;
use std::process::{Command, ExitCode};

type Metrics = Vec<(String, f64)>;

fn child(workload: &str, seed: u64, seconds: u64, traced: bool, quick: bool) -> Option<Metrics> {
    let exe = std::env::current_exe().expect("own path");
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }]);
    if quick {
        cmd.arg("--quick");
    }
    let out = cmd.output().expect("start child run");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let result = Json::parse(stdout.lines().last()?).ok()?;
    if !out.status.success() || result.get("correct") != Some(&Json::Bool(true)) {
        return None;
    }
    Some(
        result
            .get("metrics")?
            .members()
            .iter()
            .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.num()?)))
            .collect(),
    )
}

/// Metrics that count the RPCs of a deterministic op stream.
fn is_rpc_count(name: &str) -> bool {
    name.ends_with(".calls_per_op")
        || name.ends_with(".wire_bytes_per_op")
        || name == "trace.rpcs_per_op"
}

/// Metrics that count its allocations. The threaded echo call is left
/// out: it is counted while a worker allocates too.
fn is_alloc_count(name: &str) -> bool {
    (name.contains("allocs") || name.contains("alloc_bytes")) && !name.starts_with("rpc.thr_")
}

/// How far apart two runs' allocation counts may be. The crates keep
/// state in `HashMap`s with the default, randomly seeded hasher, and when
/// a table that has seen removals rehashes or grows depends on where its
/// tombstones fell, so on `meta_sim` a handful of allocations in 60 000
/// ops differ from process to process.
const ALLOC_TOLERANCE: f64 = 0.01;

pub fn run(decl: &Json, seed: u64, seconds: u64, quick: bool) -> ExitCode {
    let workloads = crate::workload_names(decl);
    let mut sets: Vec<Vec<(Metrics, Metrics)>> = Vec::new();
    for set in 0..2 {
        let mut runs = Vec::new();
        for w in &workloads {
            eprintln!("check: set {set}, {w}");
            let (Some(e2e), Some(layers)) = (
                child(w, seed, seconds, false, quick),
                child(w, seed, seconds, true, quick),
            ) else {
                eprintln!("check: a run of {w} failed or was incorrect");
                return ExitCode::FAILURE;
            };
            runs.push((e2e, layers));
        }
        sets.push(runs);
    }

    let mut ok = true;
    println!(
        "{:<10} {:<14} {:>14} {:>14} {:>8} {:>7}",
        "workload", "metric", "first", "second", "worse", "bound"
    );
    for (i, w) in workloads.iter().enumerate() {
        let (first, _) = &sets[0][i];
        let (second, _) = &sets[1][i];
        for m in decl.get("end_to_end").expect("end_to_end").arr() {
            let name = m.get("name").and_then(Json::str).expect("name");
            let bound = m.get("bound").and_then(Json::num).expect("bound");
            let higher = m.get("better").and_then(Json::str) == Some("higher");
            let value = |set: &Metrics| set.iter().find(|(n, _)| n == name).expect("metric").1;
            let (a, b) = (value(first), value(second));
            // How much worse the second run is, as a share of the first.
            let worse = if higher { (a - b) / a } else { (b - a) / a };
            let verdict = if worse.abs() <= bound {
                ""
            } else {
                "  beyond bound"
            };
            println!(
                "{w:<10} {name:<14} {a:>14.3} {b:>14.3} {:>7.1}% {:>6.0}%{verdict}",
                worse * 100.0,
                bound * 100.0
            );
        }
    }
    for (i, w) in workloads.iter().enumerate() {
        if !w.ends_with("_sim") {
            continue;
        }
        let (_, first) = &sets[0][i];
        let (_, second) = &sets[1][i];
        for ((name, a), (_, b)) in first.iter().zip(second) {
            if a == b || !(is_rpc_count(name) || is_alloc_count(name)) {
                continue;
            }
            println!("{w}: count metric {name} does not repeat: {a} then {b}");
            if is_rpc_count(name) || (a - b).abs() > ALLOC_TOLERANCE * a.abs() {
                ok = false;
            }
        }
    }
    if ok {
        println!("the count metrics of the *_sim workloads repeat (any named above: within 1 %)");
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
