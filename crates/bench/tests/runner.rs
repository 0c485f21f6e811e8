//! The runner's own contract: `list` knows every gate file, `check`
//! passes on the tree and catches a changed byte, and a wrong name says
//! what the right ones are. Debug build, so only a cheap report runs.

use kosha_bench::check::compare;
use kosha_bench::REPORTS;
use std::collections::BTreeSet;
use std::process::{Command, Output};

const ROOT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");

fn kosha_bench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_kosha-bench"))
        .args(args)
        .current_dir(ROOT)
        .output()
        .expect("run kosha-bench")
}

fn checked_in(gate: &str) -> String {
    std::fs::read_to_string(format!("{ROOT}/{gate}")).expect("gate file")
}

#[test]
fn list_prints_exactly_the_gate_files_at_the_root() {
    let out = kosha_bench(&["list"]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    let rows: Vec<Vec<&str>> = stdout
        .lines()
        .map(|l| l.split_whitespace().collect())
        .collect();
    let names: Vec<&str> = rows.iter().map(|r| r[0]).collect();
    assert_eq!(names, REPORTS.iter().map(|e| e.name).collect::<Vec<_>>());
    let listed: BTreeSet<String> = rows
        .iter()
        .filter_map(|r| r.get(1).map(|g| g.to_string()))
        .collect();
    let on_disk: BTreeSet<String> = std::fs::read_dir(ROOT)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .filter(|f| f.starts_with("BENCH_") && f.ends_with(".json"))
        .collect();
    assert_eq!(
        listed, on_disk,
        "a gate the runner and the tree disagree on"
    );
}

#[test]
fn check_passes_on_the_tree_and_writes_nothing() {
    let before = checked_in("BENCH_fanout.json");
    let out = kosha_bench(&["check", "fanout"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert_eq!(stdout, "ok   BENCH_fanout.json\n");
    assert_eq!(checked_in("BENCH_fanout.json"), before);
}

#[test]
fn compare_reports_a_one_byte_change() {
    let old = checked_in("BENCH_fanout.json");
    assert_eq!(compare("BENCH_fanout.json", &old, &old), None);
    let new = old.replacen("\"k\": 3", "\"k\": 4", 1);
    assert_ne!(new, old);
    let diff = compare("BENCH_fanout.json", &old, &new).expect("a diff");
    assert!(diff.contains("-    \"k\": 3,\n+    \"k\": 4,\n"), "{diff}");
    assert!(diff.starts_with("--- BENCH_fanout.json (checked in)\n"));
    // A lost final newline is a change too.
    assert!(compare("BENCH_fanout.json", &old, old.trim_end()).is_some());
}

#[test]
fn compare_masks_the_host_fields_of_sched_and_nothing_else() {
    let old = checked_in("BENCH_sched.json");
    let other_host = old
        .replacen("\"cpu_cores\": 1,", "\"cpu_cores\": 16,", 1)
        .replacen("\"worker_threads\": 4,", "\"worker_threads\": 16,", 1)
        .replacen(
            "\"threads_spawned_total\": 4,",
            "\"threads_spawned_total\": 16,",
            1,
        );
    assert_ne!(other_host.matches("16,").count(), 0);
    assert_eq!(compare("BENCH_sched.json", &old, &other_host), None);
    // The same edit is a difference in any other gate file.
    assert!(compare("BENCH_churn.json", &old, &other_host).is_some());

    let events = "\"events_total\": ";
    let at = old.find(events).expect("sim[0].events_total") + events.len();
    let mut moved = old.clone();
    moved.replace_range(at..=at, if &old[at..=at] == "9" { "8" } else { "9" });
    let diff = compare("BENCH_sched.json", &old, &moved).expect("sim half is held");
    assert!(diff.contains("events_total"), "{diff}");
    // `pool_fixed` does not follow from the core count: held as well.
    let unfixed = old.replacen("\"pool_fixed\": true", "\"pool_fixed\": false", 1);
    assert!(compare("BENCH_sched.json", &old, &unfixed).is_some());
}

#[test]
fn an_unknown_report_exits_non_zero_and_lists_the_valid_names() {
    for args in [&["no_such_report"][..], &["check", "no_such_report"], &[]] {
        let out = kosha_bench(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        for e in REPORTS {
            assert!(stderr.contains(e.name), "{} missing from {stderr}", e.name);
        }
    }
}
