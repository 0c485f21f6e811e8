//! Golden tests for the call-graph rules (L005, L008): each rule gets a
//! positive fixture proving it fires, a negative fixture proving it
//! stays quiet, and a suppressed fixture proving an in-place waiver
//! silences it without reading as stale. A final self-scan asserts the
//! live workspace is clean under `--deny --deny-unused-allow` and that
//! the JSON report is run-to-run byte-identical.

use kosha_lint::{lint_files, scan_workspace, Config, LintReport, Rule};

fn run_fixture(name: &str, source: &str, cfg: &Config) -> LintReport {
    lint_files(&[(format!("fixtures/{name}"), source.to_string())], cfg)
}

fn rule_findings(report: &LintReport, rule: Rule) -> Vec<String> {
    report
        .findings
        .iter()
        .filter(|f| f.rule == rule)
        .map(|f| format!("{f}"))
        .collect()
}

#[test]
fn l005_fires_on_transitive_handler_rpc() {
    let report = run_fixture(
        "l005_pos.rs",
        include_str!("fixtures/l005_pos.rs"),
        &Config::default(),
    );
    let hits = rule_findings(&report, Rule::L005);
    assert_eq!(hits.len(), 1, "{hits:?}");
    assert!(hits[0].contains("Relay::handle"), "{hits:?}");
    assert!(hits[0].contains("handle -> chase -> spread"), "{hits:?}");
}

#[test]
fn l005_quiet_on_local_only_helpers() {
    let report = run_fixture(
        "l005_neg.rs",
        include_str!("fixtures/l005_neg.rs"),
        &Config::default(),
    );
    assert!(rule_findings(&report, Rule::L005).is_empty());
}

#[test]
fn l005_entry_waiver_suppresses_and_is_counted_used() {
    let report = run_fixture(
        "l005_sup.rs",
        include_str!("fixtures/l005_sup.rs"),
        &Config::default(),
    );
    assert!(rule_findings(&report, Rule::L005).is_empty());
    assert!(report.unused_allows.is_empty(), "waiver must read as used");
}

#[test]
fn l008_fires_on_unpruned_growable_field() {
    let report = run_fixture(
        "l008_pos.rs",
        include_str!("fixtures/l008_pos.rs"),
        &Config::default(),
    );
    let hits = rule_findings(&report, Rule::L008);
    assert_eq!(hits.len(), 1, "{hits:?}");
    assert!(hits[0].contains("Tracker.sightings"), "{hits:?}");
}

#[test]
fn l008_quiet_when_maintenance_reaches_a_prune() {
    let report = run_fixture(
        "l008_neg.rs",
        include_str!("fixtures/l008_neg.rs"),
        &Config::default(),
    );
    assert!(rule_findings(&report, Rule::L008).is_empty());
}

#[test]
fn l008_waiver_suppresses_justified_field() {
    let report = run_fixture(
        "l008_sup.rs",
        include_str!("fixtures/l008_sup.rs"),
        &Config::default(),
    );
    assert!(rule_findings(&report, Rule::L008).is_empty());
    assert!(report.unused_allows.is_empty(), "waiver must read as used");
}

#[test]
fn unused_suppression_is_reported() {
    let src = "// lint: allow(L005) nothing here ever fires\nfn quiet() {}\n";
    let report = run_fixture("stale.rs", src, &Config::default());
    assert!(report.findings.is_empty());
    assert_eq!(report.unused_allows.len(), 1, "{:?}", report.unused_allows);
    assert_eq!(report.unused_allows[0].rule, Rule::L005);
}

/// The live tree must hold every discipline the analyzer encodes: zero
/// findings and zero stale waivers, exactly what CI enforces with
/// `--deny --deny-unused-allow`.
#[test]
fn workspace_self_scan_is_clean() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let report = scan_workspace(&root, &Config::default()).expect("walk workspace");
    assert!(report.files_scanned > 50, "scan looks truncated");
    let findings: Vec<String> = report.findings.iter().map(|f| format!("{f}")).collect();
    assert!(findings.is_empty(), "{findings:#?}");
    let stale: Vec<String> = report
        .unused_allows
        .iter()
        .map(|u| format!("{u}"))
        .collect();
    assert!(stale.is_empty(), "{stale:#?}");
}

/// `perf/` is a package of its own that later changes may not edit; its
/// handler wrappers time and `expect` by design. The walk never enters
/// it: the same violating file is reported under `crates/` and not under
/// `perf/`, and the live tree's report names no `perf/` path either.
#[test]
fn perf_directory_is_never_reported() {
    let root = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("perf_skip");
    for dir in ["crates/relay/src", "perf/src"] {
        std::fs::create_dir_all(root.join(dir)).expect("temp tree");
        std::fs::write(
            root.join(dir).join("relay.rs"),
            include_str!("fixtures/l005_pos.rs"),
        )
        .expect("temp file");
    }
    let live = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    assert!(live.join("perf/src/trace.rs").is_file(), "perf/ moved?");
    for (root, want_findings) in [(root, 1), (live, 0)] {
        let report = scan_workspace(&root, &Config::default()).expect("walk workspace");
        assert_eq!(
            report.findings.len(),
            want_findings,
            "{:?}",
            report.findings
        );
        let files = report
            .findings
            .iter()
            .map(|f| &f.file)
            .chain(report.unused_allows.iter().map(|u| &u.file));
        for file in files {
            assert!(!file.contains("perf/"), "{file} is in the report");
        }
    }
}

/// The machine-readable report must be deterministic: CI diffs two
/// consecutive `--json` runs byte-for-byte.
#[test]
fn json_report_is_double_run_identical() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let a = scan_workspace(&root, &Config::default()).expect("walk workspace");
    let b = scan_workspace(&root, &Config::default()).expect("walk workspace");
    assert_eq!(a.to_json(0, &[]), b.to_json(0, &[]));
}
