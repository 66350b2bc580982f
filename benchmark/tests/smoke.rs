//! Runs `run --quick` and holds its result, the driver-mode output and the
//! trace files against `BENCHMARK.json`.

#[path = "../src/json.rs"]
mod json;

use json::Value;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_dlrm-benchmark");

/// Both tests that run a traced pass write `out/trace_<workload>.json`;
/// they take turns.
static TRACE_FILES: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn manifest_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn benchmark_json() -> Value {
    let path = manifest_dir().join("../BENCHMARK.json");
    json::parse(&std::fs::read_to_string(&path).expect("BENCHMARK.json is readable"))
        .expect("BENCHMARK.json parses")
}

/// `name` values of one of BENCHMARK.json's lists, with each entry's unit
/// where it has one.
fn declared(spec: &Value, list: &str) -> Vec<(String, Option<String>)> {
    spec.get(list)
        .and_then(Value::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {list}"))
        .iter()
        .map(|entry| {
            (
                entry
                    .get("name")
                    .and_then(Value::as_str)
                    .expect("name")
                    .to_string(),
                entry
                    .get("unit")
                    .and_then(Value::as_str)
                    .map(str::to_string),
            )
        })
        .collect()
}

fn name_ok(name: &str) -> bool {
    !name.is_empty()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

fn assert_metrics(metrics: &Value, want: &[(String, Option<String>)], context: &str) {
    let Value::Obj(pairs) = metrics else {
        panic!("{context}: metrics is not an object");
    };
    let got: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
    let names: Vec<&str> = want.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(got, names, "{context}: metric names");
    for ((name, unit), (_, metric)) in want.iter().zip(pairs) {
        assert!(name_ok(name), "{context}: bad metric name {name}");
        assert_eq!(
            metric.get("unit").and_then(Value::as_str),
            unit.as_deref(),
            "{context}: unit of {name}"
        );
        let value = metric.get("value").and_then(Value::as_f64);
        assert!(
            value.is_some_and(f64::is_finite),
            "{context}: value of {name}"
        );
    }
}

#[test]
fn benchmark_json_is_the_printed_spec_and_within_the_limits() {
    let out = Command::new(BIN).arg("spec").output().expect("spec runs");
    assert!(out.status.success());
    let printed = json::parse(&String::from_utf8(out.stdout).unwrap()).expect("spec parses");
    let spec = benchmark_json();
    assert_eq!(
        printed, spec,
        "BENCHMARK.json differs from `dlrm-benchmark spec`"
    );

    let workloads = declared(&spec, "workloads");
    let end_to_end = declared(&spec, "end_to_end");
    let per_layer = declared(&spec, "per_layer");
    assert!((2..=8).contains(&workloads.len()));
    assert!((1..=16).contains(&end_to_end.len()));
    assert!((1..=128).contains(&per_layer.len()));
    let mut seen = BTreeSet::new();
    for (name, _) in workloads.iter().chain(&end_to_end).chain(&per_layer) {
        assert!(name_ok(name), "bad name {name}");
        assert!(seen.insert(name.clone()), "name {name} used twice");
    }
    assert!(end_to_end
        .iter()
        .any(|(n, u)| n == "setup_s" && u.as_deref() == Some("s")));
}

#[test]
fn quick_run_reports_every_declared_metric_and_a_wellformed_trace() {
    let spec = benchmark_json();
    let workloads = declared(&spec, "workloads");
    let end_to_end = declared(&spec, "end_to_end");
    let per_layer = declared(&spec, "per_layer");

    let _turn = TRACE_FILES.lock().unwrap_or_else(|e| e.into_inner());
    let result_path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("smoke_result.json");
    let out = Command::new(BIN)
        .args(["run", "--quick", "--seed", "7", "--out"])
        .arg(&result_path)
        .output()
        .expect("run --quick runs");
    assert!(
        out.status.success(),
        "run --quick failed:\n{}\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    let result =
        json::parse(&std::fs::read_to_string(&result_path).unwrap()).expect("result parses");
    for key in ["host", "nproc", "git_rev", "seed"] {
        assert!(result.get(key).is_some(), "result lacks {key}");
    }
    let rows = result
        .get("workloads")
        .and_then(Value::as_arr)
        .expect("workload rows");
    let got: Vec<&str> = rows
        .iter()
        .map(|w| w.get("name").and_then(Value::as_str).expect("row name"))
        .collect();
    let want: Vec<&str> = workloads.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(got, want);
    for row in rows {
        let name = row.get("name").and_then(Value::as_str).unwrap();
        assert_eq!(
            row.get("failed").and_then(Value::as_f64),
            Some(0.0),
            "{name}"
        );
        assert!(row.get("attempted").and_then(Value::as_f64).unwrap() >= 1.0);
        assert_metrics(row.get("end_to_end").unwrap(), &end_to_end, name);
        assert_metrics(row.get("per_layer").unwrap(), &per_layer, name);

        // The trace parses, and every span is a root or names a parent that
        // exists.
        let trace_path = manifest_dir().join(format!("out/trace_{name}.json"));
        let trace = json::parse(&std::fs::read_to_string(&trace_path).expect("trace file"))
            .expect("trace parses");
        let events = trace
            .get("traceEvents")
            .and_then(Value::as_arr)
            .expect("events");
        assert!(!events.is_empty());
        let arg = |e: &Value, key: &str| {
            e.get("args")
                .and_then(|a| a.get(key))
                .and_then(Value::as_f64)
        };
        let ids: BTreeSet<u64> = events
            .iter()
            .map(|e| arg(e, "id").expect("id") as u64)
            .collect();
        assert_eq!(ids.len(), events.len(), "{name}: span ids are unique");
        let mut roots = 0;
        for event in events {
            match arg(event, "parent") {
                Some(parent) => assert!(ids.contains(&(parent as u64)), "{name}: dangling parent"),
                None => roots += 1,
            }
            assert!(event.get("dur").and_then(Value::as_f64).unwrap() >= 0.0);
        }
        assert_eq!(roots, 1, "{name}: one root span");
    }
}

#[test]
fn driver_mode_ends_with_exactly_the_contract_object() {
    let _turn = TRACE_FILES.lock().unwrap_or_else(|e| e.into_inner());
    let spec = benchmark_json();
    for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
        let out = Command::new(BIN)
            .args([
                "--workload",
                "train_hier_instant",
                "--seed",
                "3",
                "--seconds",
                "1",
            ])
            .args(["--trace", trace, "--quick"])
            .output()
            .expect("driver mode runs");
        assert!(out.status.success());
        let stdout = String::from_utf8(out.stdout).unwrap();
        let last =
            json::parse(stdout.lines().last().expect("a last line")).expect("last line parses");
        let Value::Obj(pairs) = &last else {
            panic!("last line is not an object");
        };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(last.get("correct").and_then(Value::as_bool), Some(true));
        assert_eq!(last.get("failed").and_then(Value::as_f64), Some(0.0));
        let metrics = last.get("metrics").unwrap();
        assert_metrics(metrics, &declared(&spec, list), list);
        for (_, metric) in match metrics {
            Value::Obj(pairs) => pairs,
            _ => unreachable!(),
        } {
            let Value::Obj(fields) = metric else {
                panic!("metric is not an object");
            };
            let fields: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(fields, ["value", "unit"]);
        }
    }
}
