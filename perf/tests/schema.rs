//! `--quick` smoke and schema test: every workload and metric that
//! `BENCHMARK.json` declares is emitted, finite and tagged with its unit.

#[allow(dead_code)]
#[path = "../src/json.rs"]
mod json;

use json::Json;
use std::process::Command;

fn declaration() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).expect("read BENCHMARK.json"))
        .expect("BENCHMARK.json parses")
}

fn names(decl: &Json, section: &str) -> Vec<(String, String)> {
    decl.get(section)
        .unwrap_or_else(|| panic!("{section} missing"))
        .arr()
        .iter()
        .map(|m| {
            let field = |k| {
                m.get(k)
                    .and_then(Json::str)
                    .expect("string field")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn well_formed(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

#[test]
fn declared_names_are_well_formed_and_unique() {
    let decl = declaration();
    let mut all: Vec<String> = decl
        .get("workloads")
        .expect("workloads")
        .arr()
        .iter()
        .map(|w| w.get("name").and_then(Json::str).expect("name").to_string())
        .collect();
    for section in ["end_to_end", "per_layer"] {
        all.extend(names(&decl, section).into_iter().map(|(n, _)| n));
    }
    for name in &all {
        assert!(well_formed(name), "bad name {name:?}");
    }
    let count = all.len();
    all.sort();
    all.dedup();
    assert_eq!(all.len(), count, "a name is used twice");
    assert!(names(&decl, "end_to_end")
        .iter()
        .any(|(n, u)| n == "setup_s" && u == "s"));
}

#[test]
fn quick_run_emits_every_declared_metric() {
    let decl = declaration();
    for workload in decl.get("workloads").expect("workloads").arr() {
        let workload = workload.get("name").and_then(Json::str).expect("name");
        for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
            let out = Command::new(env!("CARGO_BIN_EXE_perf"))
                .args(["--workload", workload, "--seed", "7", "--trace", trace])
                .arg("--quick")
                .output()
                .expect("run perf");
            let context = format!("{workload} --trace {trace}");
            assert!(
                out.status.success(),
                "{context}: {}",
                String::from_utf8_lossy(&out.stderr)
            );
            let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
            let result = Json::parse(stdout.lines().last().expect("a result line"))
                .unwrap_or_else(|e| panic!("{context}: result line: {e}"));
            let keys: Vec<&str> = result.members().iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(
                keys,
                ["correct", "attempted", "failed", "metrics"],
                "{context}"
            );
            assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{context}");
            assert_eq!(result.get("failed"), Some(&Json::Num(0.0)), "{context}");
            assert!(result.get("attempted").and_then(Json::num) >= Some(1.0));

            let emitted = result.get("metrics").expect("metrics").members();
            let declared = names(&decl, section);
            assert_eq!(emitted.len(), declared.len(), "{context}");
            for ((name, metric), (want_name, want_unit)) in emitted.iter().zip(&declared) {
                assert_eq!(name, want_name, "{context}");
                assert_eq!(
                    metric.get("unit").and_then(Json::str),
                    Some(want_unit.as_str()),
                    "{context}: {name}"
                );
                let value = metric.get("value").and_then(Json::num);
                assert!(
                    value.is_some_and(f64::is_finite),
                    "{context}: {name} = {value:?}"
                );
            }
        }
    }
}
