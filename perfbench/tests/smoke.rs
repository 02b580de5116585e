//! Runs every workload briefly (long enough for the server profiler to
//! sample a trickle request), untraced and traced, and holds the
//! output to `BENCHMARK.json`: every workload emits exactly the metrics
//! it names for that mode, in order, finite, each with its unit; no
//! operation fails; and the run is `correct`, which covers the
//! binary's own check that the load generator kept to its schedule.

use std::process::Command;

use flight_telemetry::json::JsonValue;

const WORKLOADS: [&str; 4] = ["serve_trickle", "serve_closed", "offline_batch", "train_fl"];

/// `(name, unit)` for one metric list of `BENCHMARK.json`, in order.
fn declared(spec: &JsonValue, key: &str) -> Vec<(String, String)> {
    spec.get(key)
        .and_then(JsonValue::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json lacks `{key}`"))
        .iter()
        .map(|m| {
            let field = |f: &str| {
                m.get(f)
                    .and_then(JsonValue::as_str)
                    .unwrap_or_else(|| panic!("{key} entry lacks `{f}`"))
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

/// Runs one workload; returns the result line's metrics as
/// `(name, unit)`, in order, after checking each value is finite.
fn run(workload: &str, trace: u8) -> Vec<(String, String)> {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "6",
            "--trace",
        ])
        .arg(trace.to_string())
        .output()
        .expect("run perfbench");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} trace {trace} exited {:?}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    let result = JsonValue::parse(last).expect("result line is JSON");
    let JsonValue::Object(fields) = &result else {
        panic!("result is not an object: {last}")
    };
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        ["correct", "attempted", "failed", "metrics"],
        "{last}"
    );
    assert_eq!(
        result.get("correct"),
        Some(&JsonValue::Bool(true)),
        "{workload}: {last}"
    );
    assert_eq!(
        result.get("failed").and_then(JsonValue::as_f64),
        Some(0.0),
        "{last}"
    );
    assert!(
        result
            .get("attempted")
            .and_then(JsonValue::as_f64)
            .unwrap_or(0.0)
            >= 1.0
    );
    let JsonValue::Object(metrics) = result.get("metrics").expect("metrics") else {
        panic!("metrics is not an object")
    };
    metrics
        .iter()
        .map(|(name, m)| {
            let value = m
                .get("value")
                .and_then(JsonValue::as_f64)
                .unwrap_or(f64::NAN);
            let unit = m
                .get("unit")
                .and_then(JsonValue::as_str)
                .unwrap_or("")
                .to_string();
            assert!(value.is_finite(), "{workload}: {name} = {value}");
            (name.clone(), unit)
        })
        .collect()
}

#[test]
fn every_workload_emits_every_declared_metric() {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("read BENCHMARK.json");
    let spec = JsonValue::parse(&text).expect("BENCHMARK.json is JSON");
    let names: Vec<String> = spec
        .get("workloads")
        .and_then(JsonValue::as_array)
        .expect("workloads")
        .iter()
        .filter_map(|w| {
            w.get("name")
                .and_then(JsonValue::as_str)
                .map(str::to_string)
        })
        .collect();
    assert_eq!(names, WORKLOADS);

    for (key, trace) in [("end_to_end", 0u8), ("per_layer", 1)] {
        let declared = declared(&spec, key);
        for workload in WORKLOADS {
            assert_eq!(run(workload, trace), declared, "{workload}: {key} metrics");
        }
    }
}
