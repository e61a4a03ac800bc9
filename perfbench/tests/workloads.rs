//! Every workload, run for a few hundred milliseconds through the suite,
//! must check out and report exactly the metrics `BENCHMARK.json` declares.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use xpdl_perfbench::suite::{self, trace_path, Config, Workload};

/// The `name`s listed in one array section of the root `BENCHMARK.json`.
fn declared(section: &str) -> BTreeSet<String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    let body = &text[text
        .find(&format!("\"{section}\""))
        .expect("section present")..];
    let body = &body[..body.find(']').expect("section is an array")];
    body.split("\"name\"")
        .skip(1)
        .map(|rest| {
            let rest = &rest[rest.find('"').expect("name value") + 1..];
            rest[..rest.find('"').expect("closing quote")].to_string()
        })
        .collect()
}

fn check(workload: Workload) {
    let cfg = Config::quick(PathBuf::from(env!("CARGO_BIN_EXE_xpdl-perfbench")));
    for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
        let out = suite::run(workload, 42, trace, &cfg).expect("run completes");
        assert!(out.correct(), "{}: {:?}", workload.name(), out.errors);
        assert!(out.attempted > 0);
        let emitted: BTreeSet<String> = out.metrics.iter().map(|m| m.name.clone()).collect();
        assert_eq!(
            emitted.len(),
            out.metrics.len(),
            "a metric is reported twice"
        );
        assert_eq!(emitted, declared(section), "{} {section}", workload.name());
        assert!(
            out.metrics.iter().all(|m| m.value.is_finite()),
            "{:?}",
            out.metrics
        );
        if trace {
            let path = trace_path(workload, 42);
            let chrome = std::fs::read_to_string(&path).expect("traced run writes a Chrome trace");
            assert!(chrome.starts_with("{\"displayTimeUnit\"") && chrome.contains("\"ph\":\"X\""));
        }
    }
}

#[test]
fn declared_workloads_are_the_suite_workloads() {
    let names: BTreeSet<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(declared("workloads"), names);
    let e2e: BTreeSet<String> = suite::END_TO_END
        .iter()
        .map(|(n, _)| n.to_string())
        .collect();
    assert_eq!(declared("end_to_end"), e2e);
}

#[test]
fn build_fleet_reports_the_declared_metrics() {
    check(Workload::BuildFleet);
}

#[test]
fn query_json_reports_the_declared_metrics() {
    check(Workload::QueryJson);
}

#[test]
fn query_binary_reports_the_declared_metrics() {
    check(Workload::QueryBinary);
}

#[test]
fn query_reload_reports_the_declared_metrics() {
    check(Workload::QueryReload);
}
