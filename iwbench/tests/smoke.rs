//! The benchmark checked against its own contract, at `--scale smoke`
//! (every space divided by 64): what `BENCHMARK.json` declares is what the
//! binary emits, the correctness gates hold, and the traced run accounts
//! for its own wall clock.

use iwbench::json::{self, Value};
use std::collections::BTreeSet;
use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_iwbench");
const BENCHMARK: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");

fn benchmark() -> Value {
    json::parse(&std::fs::read_to_string(BENCHMARK).expect("BENCHMARK.json")).expect("valid JSON")
}

fn declared(bench: &Value, list: &str) -> BTreeSet<String> {
    let names: Vec<String> = bench
        .get(list)
        .and_then(Value::items)
        .expect("declared list")
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Value::str)
                .expect("name")
                .to_string()
        })
        .collect();
    let set: BTreeSet<String> = names.iter().cloned().collect();
    assert_eq!(set.len(), names.len(), "{list}: a name is declared twice");
    set
}

fn iwbench(args: &[&str]) -> String {
    let out = Command::new(BIN).args(args).output().expect("iwbench runs");
    assert!(
        out.status.success(),
        "iwbench {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("UTF-8 output")
}

/// Names of an object's members, asserting each appears once and holds a
/// finite `value` (or `median`).
fn emitted(metrics: &Value, field: &str) -> BTreeSet<String> {
    let members = metrics.members().expect("metrics object");
    let names: BTreeSet<String> = members.iter().map(|(k, _)| k.clone()).collect();
    assert_eq!(names.len(), members.len(), "a metric is emitted twice");
    for (name, entry) in members {
        let v = entry.get(field).and_then(Value::num);
        assert!(
            v.is_some_and(f64::is_finite),
            "{name}: {field} is not finite"
        );
        assert!(
            entry.get("unit").and_then(Value::str).is_some(),
            "{name}: no unit"
        );
    }
    names
}

fn value(metrics: &Value, name: &str) -> f64 {
    metrics
        .get(name)
        .and_then(|m| m.get("value"))
        .and_then(Value::num)
        .unwrap_or_else(|| panic!("{name} missing"))
}

/// The traced run's layers, plus the clock reads around their calls, add
/// up to its wall: nothing was clamped, no layer was dropped.
fn assert_layers_account_for_the_wall(per_layer: &Value) {
    let layers: f64 = [
        "netsim.self_s",
        "core.scanner_packet_s",
        "core.scanner_timer_s",
        "hoststack.packet_s",
        "hoststack.timer_s",
        "internet.create_s",
    ]
    .iter()
    .map(|n| value(per_layer, n))
    .sum();
    let calls: f64 = [
        "core.scanner_packets",
        "core.scanner_timers",
        "hoststack.packets",
        "hoststack.timers",
        "internet.create_calls",
    ]
    .iter()
    .map(|n| value(per_layer, n))
    .sum();
    let clock = calls * value(per_layer, "trace.clock_ns") / 1e9;
    let share = (layers + clock) / value(per_layer, "trace.wall_s");
    assert!((share - 1.0).abs() <= 0.01, "layer shares sum to {share}");
}

#[test]
fn suite_emits_exactly_what_benchmark_json_declares() {
    let bench = benchmark();
    let out = std::env::temp_dir().join(format!("iwbench-smoke-{}.json", std::process::id()));
    let out_path = out.to_str().expect("UTF-8 temp path");
    let stdout = iwbench(&[
        "suite", "--scale", "smoke", "--reps", "2", "--out", out_path,
    ]);
    assert!(
        stdout.contains("scale=smoke"),
        "output must be stamped smoke"
    );
    let doc = json::parse(&std::fs::read_to_string(&out).expect("result file")).expect("JSON");

    let workloads = doc
        .get("workloads")
        .and_then(Value::members)
        .expect("workloads");
    let names: Vec<&str> = workloads.iter().map(|(k, _)| k.as_str()).collect();
    let declared_workloads: Vec<&str> = bench
        .get("workloads")
        .and_then(Value::items)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Value::str).expect("name"))
        .collect();
    assert_eq!(names, declared_workloads);

    let layers = emitted(doc.get("layers").expect("layers"), "value");
    for (name, section) in workloads {
        let e2e = emitted(section.get("end_to_end").expect("end_to_end"), "median");
        assert_eq!(e2e, declared(&bench, "end_to_end"), "{name}");
        let per_layer = section.get("per_layer").expect("per_layer");
        let traced = emitted(per_layer, "value");
        assert!(
            traced.is_disjoint(&layers),
            "{name}: a row is emitted twice"
        );
        let all: BTreeSet<String> = traced.union(&layers).cloned().collect();
        assert_eq!(all, declared(&bench, "per_layer"), "{name}");
        assert_eq!(
            section.get("failed").and_then(Value::num),
            Some(0.0),
            "{name}"
        );
        assert!(
            section.get("attempted").and_then(Value::num) > Some(0.0),
            "{name}"
        );
        assert_layers_account_for_the_wall(per_layer);
    }

    // Smoke numbers are not comparable to anything.
    let refused = Command::new(BIN)
        .args(["compare", out_path, out_path, "--benchmark", BENCHMARK])
        .output()
        .expect("iwbench runs");
    assert_eq!(refused.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&refused.stderr).contains("smoke"));
    let _ = std::fs::remove_file(out);
}

#[test]
fn contract_runs_print_the_declared_metrics_last() {
    let bench = benchmark();
    for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
        let stdout = iwbench(&[
            "--workload",
            "campaign_2t",
            "--seed",
            "7",
            "--seconds",
            "1",
            "--trace",
            trace,
            "--scale",
            "smoke",
        ]);
        let last = json::parse(stdout.lines().last().expect("output")).expect("result object");
        let keys: Vec<&str> = last
            .members()
            .expect("object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(last.get("correct").and_then(Value::bool), Some(true));
        assert!(last.get("attempted").and_then(Value::num) >= Some(1.0));
        assert_eq!(last.get("failed").and_then(Value::num), Some(0.0));
        let metrics = emitted(last.get("metrics").expect("metrics"), "value");
        assert_eq!(metrics, declared(&bench, list), "--trace {trace}");
    }
}

#[test]
fn unknown_input_is_an_error_without_a_result() {
    for args in [
        &["--workload", "nope"][..],
        &["--workload", "dense_http", "--trace", "2"],
    ] {
        let out = Command::new(BIN).args(args).output().expect("iwbench runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(!String::from_utf8_lossy(&out.stdout).contains("\"metrics\""));
    }
}
