//! End-to-end tests of the `flightctl` binary: real process, real
//! files, real exit codes — the same contract CI scripts rely on.

use std::path::PathBuf;
use std::process::{Command, Output};

fn flightctl(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_flightctl"))
        .args(args)
        .output()
        .expect("flightctl runs")
}

fn write_temp(tag: &str, body: &str) -> PathBuf {
    let path =
        std::env::temp_dir().join(format!("flightctl-test-{tag}-{}.tmp", std::process::id()));
    std::fs::write(&path, body).expect("temp file written");
    path
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).to_string()
}

/// A small but representative training trace: two epochs with spans,
/// gauges, counters, and a histogram.
fn trace_body() -> String {
    let mut lines = Vec::new();
    for epoch in 0u64..2 {
        let id = epoch + 1;
        let t0 = 1.0 - 0.4 * epoch as f64;
        lines.push(format!(
            r#"{{"seq":{},"name":"train.epoch","kind":"span_start","value":0,"unit":"s","span":{id}}}"#,
            epoch * 6
        ));
        lines.push(format!(
            r#"{{"seq":{},"name":"train.mean_k","kind":"gauge","value":{},"unit":"shift"}}"#,
            epoch * 6 + 1,
            2.0 - 0.5 * epoch as f64
        ));
        lines.push(format!(
            r#"{{"seq":{},"name":"train.threshold.c0.t0","kind":"gauge","value":{t0},"unit":""}}"#,
            epoch * 6 + 2
        ));
        lines.push(format!(
            r#"{{"seq":{},"name":"kernel.shifts","kind":"counter","value":1000,"unit":"op"}}"#,
            epoch * 6 + 3
        ));
        lines.push(format!(
            r#"{{"seq":{},"name":"train.k_hist","kind":"histogram","value":4,"unit":"count","buckets":{{"1":3,"2":1}}}}"#,
            epoch * 6 + 4
        ));
        lines.push(format!(
            r#"{{"seq":{},"name":"train.epoch","kind":"span_end","value":0.5,"unit":"s","span":{id}}}"#,
            epoch * 6 + 5
        ));
    }
    lines.join("\n") + "\n"
}

#[test]
fn summarize_renders_every_section_and_exits_zero() {
    let path = write_temp("summarize", &trace_body());
    let out = flightctl(&["summarize", path.to_str().unwrap()]);
    assert!(out.status.success(), "{out:?}");
    let text = stdout(&out);
    assert!(
        text.contains("trace: 12 events (0 malformed lines skipped)"),
        "{text}"
    );
    assert!(text.contains("train.epoch"), "{text}");
    assert!(text.contains("kernel.shifts"), "{text}");
    assert!(text.contains("histogram train.k_hist"), "{text}");
    assert!(text.contains("train.threshold.c0.t0"), "{text}");
    std::fs::remove_file(&path).ok();
}

#[test]
fn summarize_skips_and_counts_a_truncated_trace() {
    let body = trace_body();
    // Kill the run mid-write: keep only half of the final line.
    let cut = body.trim_end().rfind('\n').unwrap() + 1;
    let partial = &body[..cut + (body.len() - cut) / 2];
    let path = write_temp("truncated", partial);
    let out = flightctl(&["summarize", path.to_str().unwrap()]);
    assert!(out.status.success(), "truncation must not abort: {out:?}");
    let text = stdout(&out);
    assert!(text.contains("1 malformed lines skipped"), "{text}");
    assert!(text.contains("unclosed span"), "{text}");
    std::fs::remove_file(&path).ok();
}

#[test]
fn health_warns_and_exits_one_on_sick_runs() {
    let healthy = write_temp("health-ok", &trace_body());
    let out = flightctl(&["health", healthy.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0), "{}", stdout(&out));
    assert!(stdout(&out).contains("health: OK"), "{}", stdout(&out));

    let sick_body = concat!(
        r#"{"seq":0,"name":"train.mean_k","kind":"gauge","value":1.0,"unit":"shift"}"#,
        "\n",
        r#"{"seq":1,"name":"train.mean_k","kind":"gauge","value":2.0,"unit":"shift"}"#,
        "\n",
    );
    let sick = write_temp("health-sick", sick_body);
    let out = flightctl(&["health", sick.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1), "{}", stdout(&out));
    assert!(stdout(&out).contains("warning"), "{}", stdout(&out));

    std::fs::remove_file(&healthy).ok();
    std::fs::remove_file(&sick).ok();
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).to_string()
}

/// A timestamped trace with one worker-attributed span next to a
/// main-track span and a gauge.
fn worker_trace_body() -> String {
    concat!(
        r#"{"seq":0,"ts":100.0,"name":"kernel.forward","kind":"span_start","value":0,"unit":"s","span":1}"#,
        "\n",
        r#"{"seq":1,"ts":150.0,"name":"kernel.worker.00.chunk","kind":"span_start","value":0,"unit":"s","span":2}"#,
        "\n",
        r#"{"seq":2,"ts":650.0,"name":"kernel.worker.00.chunk","kind":"span_end","value":0.0005,"unit":"s","span":2}"#,
        "\n",
        r#"{"seq":3,"ts":700.0,"name":"train.epoch.loss","kind":"gauge","value":0.5,"unit":"nats"}"#,
        "\n",
        r#"{"seq":4,"ts":900.0,"name":"kernel.forward","kind":"span_end","value":0.0008,"unit":"s","span":1}"#,
        "\n",
    )
    .to_string()
}

#[test]
fn export_writes_chrome_json_with_worker_tracks() {
    let path = write_temp("export", &worker_trace_body());
    let out = flightctl(&["export", path.to_str().unwrap()]);
    assert!(out.status.success(), "{out:?}");
    let text = stdout(&out);
    let v = flight_telemetry::json::JsonValue::parse(text.trim()).expect("export emits valid JSON");
    let events = v
        .get("traceEvents")
        .and_then(flight_telemetry::json::JsonValue::as_array)
        .expect("traceEvents array");
    assert!(!events.is_empty());
    // The worker span landed on its own named track, off the main tid.
    assert!(text.contains("worker 00"), "{text}");
    assert!(text.contains("\"ph\":\"X\""), "{text}");
    assert!(stderr(&out).contains("export:"), "{}", stderr(&out));
    std::fs::remove_file(&path).ok();
}

#[test]
fn export_honors_out_and_rejects_unknown_formats() {
    let path = write_temp("export-out", &worker_trace_body());
    let dest =
        std::env::temp_dir().join(format!("flightctl-test-export-{}.json", std::process::id()));
    let out = flightctl(&[
        "export",
        path.to_str().unwrap(),
        "--format",
        "chrome",
        "--out",
        dest.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{out:?}");
    let written = std::fs::read_to_string(&dest).expect("--out file written");
    assert!(written.contains("traceEvents"), "{written}");

    let bad = flightctl(&["export", path.to_str().unwrap(), "--format", "yaml"]);
    assert_eq!(bad.status.code(), Some(2), "{bad:?}");

    std::fs::remove_file(&path).ok();
    std::fs::remove_file(&dest).ok();
}

#[test]
fn watch_off_tty_prints_one_plain_report_even_on_a_torn_tail() {
    // Torn tail: the run died mid-write, inside an unclosed epoch.
    let body = format!(
        "{}{}",
        concat!(
            r#"{"seq":0,"name":"train.epoch","kind":"span_start","value":0,"unit":"s","span":1}"#,
            "\n",
            r#"{"seq":1,"name":"train.epoch.loss","kind":"gauge","value":0.9,"unit":"nats"}"#,
            "\n",
        ),
        r#"{"seq":2,"name":"train.epo"#, // no trailing newline
    );
    let path = write_temp("watch-torn", &body);
    // stdout is a pipe here, so watch must degrade to a single plain
    // report and exit instead of entering follow mode.
    let out = flightctl(&["watch", path.to_str().unwrap()]);
    assert!(out.status.success(), "{out:?}");
    let text = stdout(&out);
    assert!(
        !text.contains('\x1b'),
        "plain mode must not use ANSI: {text}"
    );
    assert!(text.contains("unclosed span"), "{text}");
    assert!(text.contains("loss"), "{text}");
    std::fs::remove_file(&path).ok();

    let missing = flightctl(&["watch", "/no/such/trace.jsonl"]);
    assert_eq!(missing.status.code(), Some(2), "{missing:?}");
}

#[test]
fn summarize_and_health_speak_json() {
    use flight_telemetry::json::JsonValue;

    let path = write_temp("json-mode", &trace_body());
    let out = flightctl(&["summarize", path.to_str().unwrap(), "--json"]);
    assert!(out.status.success(), "{out:?}");
    let v = JsonValue::parse(stdout(&out).trim()).expect("summarize --json parses");
    assert_eq!(v.get("events").and_then(JsonValue::as_f64), Some(12.0));
    let spans = v.get("spans").and_then(JsonValue::as_array).expect("spans");
    assert!(spans
        .iter()
        .any(|s| s.get("name").and_then(JsonValue::as_str) == Some("train.epoch")));

    let out = flightctl(&["health", path.to_str().unwrap(), "--json"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let v = JsonValue::parse(stdout(&out).trim()).expect("health --json parses");
    assert!(matches!(v.get("ok"), Some(JsonValue::Bool(true))));

    std::fs::remove_file(&path).ok();
}

#[test]
fn health_flags_exploding_gradients_on_a_divergent_trace() {
    // A crafted divergence: layer c0's quantized-path gradient norm
    // grows 1000x over the run.
    let body = concat!(
        r#"{"seq":0,"name":"train.layer.c0.grad_norm.quant","kind":"gauge","value":1.0,"unit":"l2"}"#,
        "\n",
        r#"{"seq":1,"name":"train.layer.c0.grad_norm.quant","kind":"gauge","value":1000.0,"unit":"l2"}"#,
        "\n",
    );
    let path = write_temp("health-divergent", body);
    let out = flightctl(&["health", path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let text = stdout(&out);
    assert!(text.contains("gradient"), "{text}");

    // The JSON mode carries the same verdict.
    let json = flightctl(&["health", path.to_str().unwrap(), "--json"]);
    assert_eq!(json.status.code(), Some(1), "{json:?}");
    assert!(stdout(&json).contains("\"ok\":false"), "{}", stdout(&json));

    std::fs::remove_file(&path).ok();
}

#[test]
fn usage_and_io_errors_exit_two() {
    assert_eq!(flightctl(&[]).status.code(), Some(2));
    assert_eq!(flightctl(&["frobnicate"]).status.code(), Some(2));
    assert_eq!(flightctl(&["summarize"]).status.code(), Some(2));
    assert_eq!(
        flightctl(&["summarize", "/no/such/trace.jsonl"])
            .status
            .code(),
        Some(2)
    );
    // The retired run comparator, capacity planner and profile
    // dashboard (its table lives in `top`) are unknown subcommands now.
    assert_eq!(flightctl(&["diff", "a", "b"]).status.code(), Some(2));
    assert_eq!(
        flightctl(&["capacity", "m.json", "--qps", "10"])
            .status
            .code(),
        Some(2)
    );
    assert_eq!(
        flightctl(&["profile", "127.0.0.1:1", "--once"])
            .status
            .code(),
        Some(2)
    );
    assert_eq!(flightctl(&["help"]).status.code(), Some(0));
}
