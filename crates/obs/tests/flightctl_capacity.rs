//! End-to-end tests of `flightctl capacity`: spawn the real binary
//! against a serve manifest on disk and check output and exit codes.

use std::path::PathBuf;
use std::process::Command;

use flight_telemetry::json::JsonValue;

fn manifest_text() -> &'static str {
    r#"{
  "schema_version": 2,
  "exhibit": "serve",
  "env": {"logical_cores": 4, "cpu_model": "CLI Test CPU"},
  "scaling": {
    "network": 1,
    "scheme": "l1",
    "image_dims": [3, 32, 32],
    "reference_batch": 32,
    "reps": 3,
    "configs": [
      {"workers": 1, "batch": 32, "qps": 100.0, "samples": 96,
       "latency_ms": {"min": 300.0, "p50": 310.0, "p90": 318.0, "p95": 319.0,
                      "p99": 320.0, "p999": 321.0, "max": 322.0}},
      {"workers": 2, "batch": 32, "qps": 180.0, "samples": 96,
       "latency_ms": {"min": 80.0, "p50": 150.0, "p90": 170.0, "p95": 172.0,
                      "p99": 174.0, "p999": 176.0, "max": 177.0}}
    ]
  }
}"#
}

fn write_manifest(name: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!(
        "flightctl-capacity-{name}-{}.json",
        std::process::id()
    ));
    std::fs::write(&path, manifest_text()).expect("write manifest");
    path
}

fn run(args: &[&str]) -> (i32, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_flightctl"))
        .args(args)
        .output()
        .expect("spawn flightctl");
    (
        out.status.code().expect("exit code"),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn json_plan_parses_with_finite_deltas() {
    let path = write_manifest("json");
    let (code, stdout, stderr) = run(&[
        "capacity",
        path.to_str().unwrap(),
        "--qps",
        "50000",
        "--p99-ms",
        "200",
        "--json",
    ]);
    std::fs::remove_file(&path).ok();
    assert_eq!(code, 0, "stderr: {stderr}");
    let v = JsonValue::parse(&stdout).expect("stdout is one JSON object");
    assert_eq!(v.get("replicas").and_then(JsonValue::as_f64), Some(348.0));
    // 200 ms bound excludes w1 (p99 320 ms): w2 is chosen.
    assert_eq!(
        v.get("chosen")
            .and_then(|c| c.get("workers"))
            .and_then(JsonValue::as_f64),
        Some(2.0)
    );
    let layers = v
        .get("layers")
        .and_then(JsonValue::as_array)
        .expect("layers");
    assert!(!layers.is_empty());
    for l in layers {
        let delta = l
            .get("analytic_over_measured")
            .and_then(JsonValue::as_f64)
            .expect("finite delta");
        assert!(delta.is_finite() && delta > 0.0);
    }
}

#[test]
fn human_plan_reports_the_sizing() {
    let path = write_manifest("human");
    let (code, stdout, _) = run(&["capacity", path.to_str().unwrap(), "--qps=1000"]);
    std::fs::remove_file(&path).ok();
    assert_eq!(code, 0);
    assert!(stdout.contains("capacity plan: 1000 qps"), "{stdout}");
    assert!(stdout.contains("replica(s)"), "{stdout}");
    assert!(stdout.contains("CLI Test CPU"), "{stdout}");
    assert!(stdout.contains("x measured"), "{stdout}");
}

#[test]
fn infeasible_bound_exits_one_and_bad_input_exits_two() {
    let path = write_manifest("exit");
    let (code, _, stderr) = run(&[
        "capacity",
        path.to_str().unwrap(),
        "--qps",
        "1000",
        "--p99-ms",
        "1",
    ]);
    assert_eq!(code, 1, "infeasible plan exits 1: {stderr}");
    assert!(stderr.contains("infeasible"), "{stderr}");

    let (code, _, _) = run(&["capacity", path.to_str().unwrap()]);
    assert_eq!(code, 2, "missing --qps is a usage error");
    std::fs::remove_file(&path).ok();

    let (code, _, stderr) = run(&["capacity", "/nonexistent/scaling.json", "--qps", "10"]);
    assert_eq!(code, 2, "unreadable manifest exits 2: {stderr}");
}
