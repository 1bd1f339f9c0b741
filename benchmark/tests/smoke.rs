//! Runs every workload at smoke size through the built binary, untraced
//! and traced, and checks that each run passes its own output checks and
//! emits exactly the metrics `BENCHMARK.json` lists, with the same units.

use dnnperf_benchmark::report::{Json, Report};
use dnnperf_benchmark::{Workload, END_TO_END, PER_LAYER};
use std::process::Command;

fn manifest() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
    Json::parse(&text).expect("BENCHMARK.json is JSON")
}

fn listed(doc: &Json, key: &str) -> Vec<(String, String)> {
    doc.get(key)
        .and_then(Json::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key} list"))
        .iter()
        .map(|m| {
            let field = |f: &str| {
                m.get(f)
                    .and_then(Json::as_str)
                    .unwrap_or_default()
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn pairs(list: &[(&str, &str)]) -> Vec<(String, String)> {
    list.iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

#[test]
fn the_metric_lists_match_benchmark_json() {
    let doc = manifest();
    assert_eq!(listed(&doc, "end_to_end"), pairs(&END_TO_END));
    assert_eq!(listed(&doc, "per_layer"), pairs(&PER_LAYER));
    let workloads: Vec<String> = doc
        .get("workloads")
        .and_then(Json::as_array)
        .expect("a workloads list")
        .iter()
        .filter_map(|w| w.get("name").and_then(Json::as_str).map(str::to_string))
        .collect();
    let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(workloads, ours);
}

#[test]
fn every_workload_passes_its_checks_at_smoke_size() {
    let spans = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke.spans.tsv");
    for w in Workload::ALL {
        for (trace, expected) in [("0", pairs(&END_TO_END)), ("1", pairs(&PER_LAYER))] {
            let out = Command::new(env!("CARGO_BIN_EXE_benchmark"))
                .args(["--workload", w.name(), "--seed", "7", "--seconds", "0.2"])
                .args(["--trace", trace, "--smoke", "--out"])
                .arg(&spans)
                .output()
                .expect("run the benchmark");
            let stdout = String::from_utf8_lossy(&out.stdout);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(
                out.status.success(),
                "{} --trace {trace} failed:\n{stderr}",
                w.name()
            );
            let last = stdout.lines().last().expect("a result line");
            let report = Report::from_json(last).expect("the result line parses");
            assert!(report.attempted > 0 && report.failed == 0, "{last}");
            assert!(report.correct(), "{last}");
            let mut names: Vec<(String, String)> = report
                .metrics
                .iter()
                .map(|m| (m.name.clone(), m.unit.clone()))
                .collect();
            names.sort();
            let mut expected = expected;
            expected.sort();
            assert_eq!(names, expected, "{} --trace {trace}", w.name());
        }
    }
}

#[test]
fn a_bad_command_line_fails_without_a_result() {
    for args in [
        &["--seed", "1"][..],
        &["--workload", "nope"],
        &["--workload", "whatif", "--bogus"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_benchmark"))
            .args(args)
            .output()
            .expect("run the benchmark");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
