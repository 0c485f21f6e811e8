//! `kosha-lint` CLI: scans the workspace's non-test Rust sources and
//! reports rule violations (see the library docs for the rules).
//!
//! ```text
//! kosha-lint [--root PATH] [--json] [--deny] [--deny-unused-allow]
//!            [--baseline PATH] [--write-baseline PATH]
//!            [--explain L00x] [--list-rules]
//! ```
//!
//! * `--root PATH`          workspace root to scan (default `.`)
//! * `--json`               machine-readable output (double-run
//!   byte-identical; gated in CI)
//! * `--deny`               exit 1 when any active finding remains
//! * `--deny-unused-allow`  exit 1 on stale `lint: allow` comments or
//!   stale baseline entries too
//! * `--baseline PATH`      known-findings file (`L00x file:line` per
//!   line); defaults to `<root>/lint-baseline.txt` when present
//! * `--write-baseline PATH` write the current findings as a baseline
//!   and exit
//! * `--explain L00x`       print the long-form rule documentation
//! * `--list-rules`         print the rule table and exit
//!
//! Scanned: `crates/*/src/**/*.rs` and the root `src/`. Skipped:
//! `target/`, vendored `compat/` shims, `tests/` (including the lint
//! fixtures), `benches/`, `examples/`, `perf/` (the wall-clock
//! benchmark: a separate package whose handlers time, allocate-count
//! and `expect` on purpose), and anything inside `#[cfg(test)]` modules.
//! The bench reports under `crates/bench/src/reports/` are scanned on
//! purpose — they feed the BENCH_* determinism gates L002 protects.

use kosha_lint::{baseline_key, parse_baseline, Config, Rule};
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut json = false;
    let mut deny = false;
    let mut deny_unused_allow = false;
    let mut baseline_path: Option<PathBuf> = None;
    let mut write_baseline: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--root" => match args.next() {
                Some(p) => root = PathBuf::from(p),
                None => {
                    eprintln!("kosha-lint: --root needs a path");
                    return ExitCode::from(2);
                }
            },
            "--json" => json = true,
            "--deny" => deny = true,
            "--deny-unused-allow" => deny_unused_allow = true,
            "--baseline" => match args.next() {
                Some(p) => baseline_path = Some(PathBuf::from(p)),
                None => {
                    eprintln!("kosha-lint: --baseline needs a path");
                    return ExitCode::from(2);
                }
            },
            "--write-baseline" => match args.next() {
                Some(p) => write_baseline = Some(PathBuf::from(p)),
                None => {
                    eprintln!("kosha-lint: --write-baseline needs a path");
                    return ExitCode::from(2);
                }
            },
            "--explain" => match args.next().and_then(|id| {
                Rule::ALL
                    .iter()
                    .copied()
                    .find(|r| r.id().eq_ignore_ascii_case(&id))
            }) {
                Some(rule) => {
                    println!("{}", rule.explain());
                    return ExitCode::SUCCESS;
                }
                None => {
                    eprintln!("kosha-lint: --explain needs a rule id (see --list-rules)");
                    return ExitCode::from(2);
                }
            },
            "--list-rules" => {
                for r in Rule::ALL {
                    println!("{}  {}", r.id(), r.summary());
                }
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("kosha-lint: unknown argument `{other}`");
                eprintln!(
                    "usage: kosha-lint [--root PATH] [--json] [--deny] [--deny-unused-allow] \
                     [--baseline PATH] [--write-baseline PATH] [--explain L00x] [--list-rules]"
                );
                return ExitCode::from(2);
            }
        }
    }

    let cfg = Config::default();
    let mut report = match kosha_lint::scan_workspace(&root, &cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("kosha-lint: cannot walk {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };

    if let Some(path) = write_baseline {
        let mut s = String::from(
            "# kosha-lint baseline: known findings carried while being burned down.\n\
             # One `L00x file:line` per line; regenerate with --write-baseline.\n",
        );
        for f in &report.findings {
            s.push_str(&baseline_key(f));
            s.push('\n');
        }
        if let Err(e) = std::fs::write(&path, s) {
            eprintln!("kosha-lint: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
        println!(
            "kosha-lint: wrote {} baseline entr(ies) to {}",
            report.findings.len(),
            path.display()
        );
        return ExitCode::SUCCESS;
    }

    // Baseline filtering: known findings don't fail --deny; baseline
    // entries matching nothing are stale and must be removed.
    let baseline_file = baseline_path.unwrap_or_else(|| root.join("lint-baseline.txt"));
    let baseline = std::fs::read_to_string(&baseline_file)
        .map(|s| parse_baseline(&s))
        .unwrap_or_default();
    let mut baselined = 0usize;
    let mut matched: std::collections::BTreeSet<String> = std::collections::BTreeSet::new();
    report.findings.retain(|f| {
        let key = baseline_key(f);
        if baseline.contains(&key) {
            matched.insert(key);
            baselined += 1;
            false
        } else {
            true
        }
    });
    let stale_baseline: Vec<String> = baseline.difference(&matched).cloned().collect();

    if json {
        print!("{}", report.to_json(baselined, &stale_baseline));
    } else {
        for f in &report.findings {
            println!("{f}");
        }
        for u in &report.unused_allows {
            println!("{u}");
        }
        for k in &stale_baseline {
            println!("lint-baseline: stale entry `{k}` matches no finding — remove it");
        }
        println!(
            "kosha-lint: {} finding(s) ({} baselined), {} unused suppression(s) across {} file(s)",
            report.findings.len(),
            baselined,
            report.unused_allows.len(),
            report.files_scanned
        );
    }

    let fail_findings = deny && !report.findings.is_empty();
    let fail_allows =
        deny_unused_allow && (!report.unused_allows.is_empty() || !stale_baseline.is_empty());
    if fail_findings || fail_allows {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
