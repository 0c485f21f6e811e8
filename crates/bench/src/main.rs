//! `kosha-bench <report> [--json] [--full]`, `kosha-bench list`,
//! `kosha-bench check [report…]`.
//!
//! A plain run prints the report's text and, for a gate report, writes
//! its `BENCH_*.json` into the working directory. `--json` prints the
//! JSON form instead. `check` regenerates each named gate report (all
//! of them by default) twice and compares both runs with the checked-in
//! file in the working directory, writing nothing; on a difference it
//! prints a unified diff and exits 1.

use kosha_bench::{check::compare, report, Entry, REPORTS};
use std::process::ExitCode;

fn usage() -> ExitCode {
    let names: Vec<&str> = REPORTS.iter().map(|e| e.name).collect();
    eprintln!(
        "usage: kosha-bench <report> [--json] [--full] | list | check [report…]\nreports: {}",
        names.join(" ")
    );
    ExitCode::from(2)
}

/// Runs one report and prints it; a gate report also writes its file.
fn run(entry: &Entry, json_only: bool, full: bool) -> ExitCode {
    let r = (entry.run)(full);
    if let (Some(gate), Some(json)) = (entry.gate, &r.json) {
        std::fs::write(gate, format!("{json}\n")).expect("write the gate file");
    }
    match (json_only, r.json) {
        (true, Some(json)) => println!("{json}"),
        (true, None) => {
            eprintln!("kosha-bench: {} has no JSON form", entry.name);
            return ExitCode::from(2);
        }
        (false, _) => {
            print!("{}", r.text);
            if let Some(gate) = entry.gate {
                println!("wrote {gate}");
            }
        }
    }
    ExitCode::SUCCESS
}

/// Two regenerations of each named gate (all, if none is named) against
/// its checked-in file.
fn check(names: &[String]) -> ExitCode {
    let gates = || REPORTS.iter().filter_map(|e| e.gate.map(|g| (e, g)));
    let named: Option<Vec<_>> = names
        .iter()
        .map(|n| gates().find(|(e, _)| e.name == n))
        .collect();
    let chosen = match named {
        Some(v) if v.is_empty() => gates().collect(),
        Some(v) => v,
        None => {
            eprintln!("kosha-bench: check takes gate reports only");
            return usage();
        }
    };
    let mut failed = false;
    for (entry, gate) in chosen {
        // Twice, so a report that differs from itself fails here and
        // not on some later run.
        let outcome = std::fs::read_to_string(gate)
            .map_err(|e| e.to_string())
            .and_then(|checked_in| {
                (1..=2).try_for_each(|pass| {
                    let json = (entry.run)(false).json.unwrap_or_default();
                    match compare(gate, &checked_in, &format!("{json}\n")) {
                        Some(diff) => Err(format!("run {pass} of 2\n{diff}")),
                        None => Ok(()),
                    }
                })
            });
        match outcome {
            Ok(()) => println!("ok   {gate}"),
            Err(why) => {
                println!("FAIL {gate}: {why}");
                failed = true;
            }
        }
    }
    ExitCode::from(u8::from(failed))
}

fn main() -> ExitCode {
    let (flags, words): (Vec<String>, Vec<String>) =
        std::env::args().skip(1).partition(|a| a.starts_with("--"));
    if flags.iter().any(|f| f != "--json" && f != "--full") {
        return usage();
    }
    let json_only = flags.iter().any(|f| f == "--json");
    let full = flags.iter().any(|f| f == "--full");
    match words.split_first() {
        Some((w, [])) if w == "list" => {
            for e in REPORTS {
                match e.gate {
                    Some(gate) => println!("{:<16}{gate}", e.name),
                    None => println!("{}", e.name),
                }
            }
            ExitCode::SUCCESS
        }
        Some((w, names)) if w == "check" => check(names),
        Some((name, [])) => match report(name) {
            Some(entry) => run(entry, json_only, full),
            None => usage(),
        },
        _ => usage(),
    }
}
