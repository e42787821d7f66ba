//! Keeps the benchmark from rotting: every workload runs at its small size,
//! untraced and traced, with all output checks, and `BENCHMARK.json`
//! declares exactly the metrics the benchmark prints.

use mflb_perfbench::layers::PER_LAYER;
use mflb_perfbench::workloads::{repo_root, NAMES};
use mflb_perfbench::END_TO_END;
use serde_json::Value;

#[test]
fn every_workload_passes_its_checks_untraced_and_traced() {
    let summary =
        mflb_perfbench::self_check(3).unwrap_or_else(|e| panic!("self-check failed: {e}"));
    assert_eq!(summary.len(), NAMES.len());
}

fn field<'v>(v: &'v Value, key: &str) -> &'v Value {
    match v {
        Value::Obj(entries) => {
            &entries.iter().find(|(k, _)| k == key).unwrap_or_else(|| panic!("no `{key}`")).1
        }
        other => panic!("expected an object holding `{key}`, got {}", other.kind()),
    }
}

fn text(v: &Value) -> &str {
    match v {
        Value::Str(s) => s,
        other => panic!("expected a string, got {}", other.kind()),
    }
}

/// `(name, unit)` of each entry of a metric list.
fn declared(bench: &Value, list: &str) -> Vec<(String, String)> {
    let Value::Arr(items) = field(bench, list) else { panic!("`{list}` is not a list") };
    items
        .iter()
        .map(|m| (text(field(m, "name")).to_string(), text(field(m, "unit")).to_string()))
        .collect()
}

#[test]
fn benchmark_json_declares_what_the_benchmark_prints() {
    let path = repo_root().join("BENCHMARK.json");
    let bench = Value::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    let own = |list: Vec<(&str, &str)>| -> Vec<(String, String)> {
        list.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
    };
    assert_eq!(declared(&bench, "end_to_end"), own(END_TO_END.map(|(n, u, _)| (n, u)).to_vec()));
    assert_eq!(declared(&bench, "per_layer"), own(PER_LAYER.to_vec()));
    let Value::Arr(workloads) = field(&bench, "workloads") else {
        panic!("`workloads` is not a list")
    };
    let names: Vec<&str> = workloads.iter().map(|w| text(field(w, "name"))).collect();
    assert_eq!(names, NAMES);
}
