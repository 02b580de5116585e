//! `flightctl summarize` — one readable report per trace.
//!
//! The report answers the questions a trace is usually opened for:
//! where did the wall clock go (span table with self time and
//! quantiles), what did the kernels do (top op counters), what did
//! training converge to (final `k_i` histogram, threshold trajectories,
//! mean-k drift) — and how trustworthy the file is (malformed lines,
//! unclosed spans).
//!
//! The two folds here — [`counter_totals`] and [`gauge_trajectories`] —
//! are shared with `flightctl health`, so both commands read a trace the
//! same way.

use std::fmt::Write as _;

use flight_telemetry::json::{JsonObject, JsonValue};
use flight_telemetry::EventKind;

use crate::trace::{Trace, TraceEvent};
use crate::tree::SpanSummary;

/// How many counter rows the report prints.
const TOP_COUNTERS: usize = 12;
/// How many threshold trajectories the report prints before eliding.
const MAX_TRAJECTORIES: usize = 24;

/// The training signals worth eyeballing over time: per-threshold `t_j`
/// values, the mean shift count, and the per-layer dynamics gauges the
/// trainer emits (gradient norms, residual-norm sums `Σ‖r_j‖`, STE clip
/// rates).
fn is_training_signal(name: &str) -> bool {
    name.contains("train.threshold.")
        || name.ends_with("train.mean_k")
        || name.contains(".grad_norm.")
        || name.contains("train.reg.")
        || name.ends_with(".ste.clip_rate")
}

/// The kernel dispatch path a trace ran with, recovered from the
/// `kernel.dispatch.<path>` gauge the engine emits once per traced
/// forward (`None` for traces that predate the gauge). Worker-prefixed
/// re-emissions match too, so the lookup keys on the substring. The
/// last emission wins, matching the rest of the summary's
/// final-state-per-name convention.
pub fn kernel_dispatch(events: &[TraceEvent]) -> Option<&str> {
    events.iter().rev().find_map(|event| {
        if event.kind != EventKind::Gauge {
            return None;
        }
        let at = event.name.find("kernel.dispatch.")?;
        Some(&event.name[at + "kernel.dispatch.".len()..])
    })
}

/// Counter totals per name, `(name, total, unit)` in first-emission
/// order; non-finite deltas are skipped.
pub fn counter_totals(events: &[TraceEvent]) -> Vec<(&str, f64, &str)> {
    let mut totals: Vec<(&str, f64, &str)> = Vec::new();
    for event in events {
        if event.kind != EventKind::Counter || !event.value.is_finite() {
            continue;
        }
        match totals.iter_mut().find(|(n, _, _)| *n == event.name) {
            Some((_, total, _)) => *total += event.value,
            None => totals.push((&event.name, event.value, &event.unit)),
        }
    }
    totals
}

/// [`counter_totals`] in descending-total order, as the report lists
/// them.
fn counters_by_total(events: &[TraceEvent]) -> Vec<(&str, f64, &str)> {
    let mut totals = counter_totals(events);
    totals.sort_by(|a, b| b.1.total_cmp(&a.1));
    totals
}

/// First→last trajectory of every finite gauge whose name passes
/// `filter`, `(name, first, last)` in first-emission order.
pub fn gauge_trajectories(
    events: &[TraceEvent],
    filter: impl Fn(&str) -> bool,
) -> Vec<(&str, f64, f64)> {
    let mut traj: Vec<(&str, f64, f64)> = Vec::new();
    for event in events {
        if event.kind != EventKind::Gauge || !event.value.is_finite() || !filter(&event.name) {
            continue;
        }
        match traj.iter_mut().find(|(n, _, _)| *n == event.name) {
            Some((_, _, last)) => *last = event.value,
            None => traj.push((&event.name, event.value, event.value)),
        }
    }
    traj
}

fn fmt_secs(s: f64) -> String {
    if s >= 100.0 {
        format!("{s:.1}")
    } else if s >= 0.01 {
        format!("{s:.3}")
    } else {
        format!("{s:.2e}")
    }
}

fn fmt_value(v: f64) -> String {
    if !v.is_finite() {
        "nan".to_string()
    } else if v == v.trunc() && v.abs() < 1e15 {
        format!("{v}")
    } else {
        format!("{v:.4}")
    }
}

/// Renders the full report for a parsed trace.
pub fn summarize(trace: &Trace) -> String {
    let mut out = String::new();
    let spans = SpanSummary::from_events(&trace.events);

    let _ = writeln!(
        out,
        "trace: {} events ({} malformed lines skipped)",
        trace.events.len(),
        trace.malformed
    );
    if let Some(path) = kernel_dispatch(&trace.events) {
        let _ = writeln!(out, "kernel dispatch: {path}");
    }
    if spans.unclosed > 0 {
        let _ = writeln!(
            out,
            "note: {} unclosed span(s) — truncated tail or killed run",
            spans.unclosed
        );
    }

    render_spans(&mut out, &spans);
    render_counters(&mut out, &trace.events);
    render_histograms(&mut out, &trace.events);
    render_log2_histograms(&mut out, &trace.events);
    render_trajectories(&mut out, &trace.events);
    out
}

/// The machine-readable form of [`summarize`]: one JSON object with the
/// same folds (span table, counter totals, training trajectories) under
/// stable keys, so CI gates parse instead of scraping the text report.
/// No top-N elision — consumers filter for themselves.
pub fn summarize_json(trace: &Trace) -> String {
    let spans = SpanSummary::from_events(&trace.events);

    let span_rows: Vec<JsonValue> = spans
        .by_total_time()
        .into_iter()
        .filter(|(_, stats)| stats.count > 0)
        .map(|(name, stats)| {
            JsonObject::new()
                .field("name", name)
                .field("count", stats.count)
                .field("total_s", stats.total_s)
                .field("self_s", stats.self_s)
                .field("p50_s", stats.quantile(0.5))
                .field("p95_s", stats.quantile(0.95))
                .field("max_s", stats.max())
                .build()
        })
        .collect();
    let counter_rows: Vec<JsonValue> = counters_by_total(&trace.events)
        .into_iter()
        .map(|(name, total, unit)| {
            JsonObject::new()
                .field("name", name)
                .field("total", total)
                .field("unit", unit)
                .build()
        })
        .collect();
    let trajectory_rows: Vec<JsonValue> = gauge_trajectories(&trace.events, is_training_signal)
        .into_iter()
        .map(|(name, first, last)| {
            JsonObject::new()
                .field("name", name)
                .field("first", first)
                .field("last", last)
                .build()
        })
        .collect();

    let mut obj = JsonObject::new()
        .field("events", trace.events.len())
        .field("malformed", trace.malformed)
        .field("unclosed_spans", spans.unclosed)
        .field("orphan_ends", spans.orphan_ends);
    if let Some(path) = kernel_dispatch(&trace.events) {
        obj = obj.field("kernel_dispatch", path);
    }
    obj.field("spans", span_rows)
        .field("counters", counter_rows)
        .field("trajectories", trajectory_rows)
        .build()
        .render()
}

fn render_spans(out: &mut String, spans: &SpanSummary) {
    let rows = spans.by_total_time();
    if rows.iter().all(|(_, s)| s.count == 0) {
        return;
    }
    let _ = writeln!(out, "\nspans (by total time):");
    let _ = writeln!(
        out,
        "  {:<44} {:>7} {:>10} {:>10} {:>9} {:>9} {:>9}",
        "name", "count", "total_s", "self_s", "p50_s", "p95_s", "max_s"
    );
    for (name, stats) in rows {
        if stats.count == 0 {
            continue;
        }
        let _ = writeln!(
            out,
            "  {:<44} {:>7} {:>10} {:>10} {:>9} {:>9} {:>9}",
            name,
            stats.count,
            fmt_secs(stats.total_s),
            fmt_secs(stats.self_s),
            fmt_secs(stats.quantile(0.5)),
            fmt_secs(stats.quantile(0.95)),
            fmt_secs(stats.max())
        );
    }
}

fn render_counters(out: &mut String, events: &[TraceEvent]) {
    let totals = counters_by_total(events);
    if totals.is_empty() {
        return;
    }
    let _ = writeln!(
        out,
        "\ncounters (top {} by total):",
        TOP_COUNTERS.min(totals.len())
    );
    for (name, total, unit) in totals.iter().take(TOP_COUNTERS) {
        let _ = writeln!(out, "  {:<52} {:>14} {}", name, fmt_value(*total), unit);
    }
    if totals.len() > TOP_COUNTERS {
        let _ = writeln!(out, "  … and {} more", totals.len() - TOP_COUNTERS);
    }
}

fn render_histograms(out: &mut String, events: &[TraceEvent]) {
    // Final histogram per name (later emissions of the same histogram
    // replace earlier ones — e.g. train.k_hist per epoch).
    let mut finals: Vec<&TraceEvent> = Vec::new();
    for event in events {
        if event.kind != EventKind::Histogram {
            continue;
        }
        match finals.iter_mut().find(|e| e.name == event.name) {
            Some(slot) => *slot = event,
            None => finals.push(event),
        }
    }
    for event in finals {
        let _ = writeln!(
            out,
            "\nhistogram {} (final, {} samples):",
            event.name,
            fmt_value(event.value)
        );
        let total: u64 = event.buckets.iter().map(|(_, c)| *c).sum::<u64>().max(1);
        for (label, count) in &event.buckets {
            let bar = "#".repeat(((*count * 40) / total) as usize);
            let _ = writeln!(out, "  {label:>6}: {count:>8} {bar}");
        }
    }
}

fn render_log2_histograms(out: &mut String, events: &[TraceEvent]) {
    // Final log2 latency histogram per name; the percentile stats ride
    // in the event's text payload, so rendering needs no bucket math.
    let mut finals: Vec<&TraceEvent> = Vec::new();
    for event in events {
        if event.kind != EventKind::Log2Hist {
            continue;
        }
        match finals.iter_mut().find(|e| e.name == event.name) {
            Some(slot) => *slot = event,
            None => finals.push(event),
        }
    }
    if finals.is_empty() {
        return;
    }
    let _ = writeln!(
        out,
        "\nlatency histograms (final):\n  {:<52} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "name", "samples", "min", "p50", "p99", "p999", "max"
    );
    for event in finals {
        let stats = event.text.as_deref().and_then(|t| JsonValue::parse(t).ok());
        let field = |key: &str| -> String {
            match stats
                .as_ref()
                .and_then(|s| s.get(key))
                .and_then(JsonValue::as_f64)
            {
                Some(v) => fmt_value(v),
                None => "-".to_string(),
            }
        };
        let _ = writeln!(
            out,
            "  {:<52} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10}",
            event.name,
            fmt_value(event.value),
            field("min"),
            field("p50"),
            field("p99"),
            field("p999"),
            field("max")
        );
    }
}

fn render_trajectories(out: &mut String, events: &[TraceEvent]) {
    let traj = gauge_trajectories(events, is_training_signal);
    if traj.is_empty() {
        return;
    }
    let _ = writeln!(out, "\ntraining trajectories (first → last):");
    for (name, first, last) in traj.iter().take(MAX_TRAJECTORIES) {
        let _ = writeln!(
            out,
            "  {:<44} {:>10} → {:>10}",
            name,
            fmt_value(*first),
            fmt_value(*last)
        );
    }
    if traj.len() > MAX_TRAJECTORIES {
        let _ = writeln!(out, "  … and {} more", traj.len() - MAX_TRAJECTORIES);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::parse_trace;

    fn synthetic_two_epoch_trace() -> String {
        // A miniature of what the trainer + engine emit over two epochs.
        let mut lines = Vec::new();
        let mut seq = 0u64;
        let mut push = |s: String, seq: &mut u64| {
            lines.push(s);
            *seq += 1;
        };
        for epoch in 0..2 {
            let id = epoch + 1;
            push(
                format!(
                    r#"{{"seq":{seq},"name":"train.epoch","kind":"span_start","value":0,"unit":"s","span":{id}}}"#
                ),
                &mut seq,
            );
            push(
                format!(
                    r#"{{"seq":{seq},"name":"train.epoch.loss","kind":"gauge","value":{},"unit":"nats"}}"#,
                    1.0 / (epoch + 1) as f64
                ),
                &mut seq,
            );
            push(
                format!(
                    r#"{{"seq":{seq},"name":"train.threshold.c0.t0","kind":"gauge","value":{},"unit":""}}"#,
                    1.0 - 0.4 * epoch as f64
                ),
                &mut seq,
            );
            push(
                format!(
                    r#"{{"seq":{seq},"name":"train.mean_k","kind":"gauge","value":{},"unit":"shift"}}"#,
                    2.0 - 0.5 * epoch as f64
                ),
                &mut seq,
            );
            push(
                format!(
                    r#"{{"seq":{seq},"name":"kernel.shifts","kind":"counter","value":1000,"unit":"op"}}"#
                ),
                &mut seq,
            );
            push(
                format!(
                    r#"{{"seq":{seq},"name":"train.k_hist","kind":"histogram","value":4,"unit":"count","buckets":{{"1":{},"2":{}}}}}"#,
                    3 + epoch,
                    1
                ),
                &mut seq,
            );
            push(
                format!(
                    r#"{{"seq":{seq},"name":"train.epoch","kind":"span_end","value":0.5,"unit":"s","span":{id}}}"#
                ),
                &mut seq,
            );
        }
        lines.join("\n") + "\n"
    }

    #[test]
    fn two_epoch_trace_summary_has_every_section() {
        let trace = parse_trace(&synthetic_two_epoch_trace());
        assert_eq!(trace.malformed, 0);
        let report = summarize(&trace);
        assert!(report.contains("trace: 14 events"), "{report}");
        assert!(report.contains("train.epoch"), "{report}");
        assert!(report.contains("kernel.shifts"), "{report}");
        assert!(report.contains("2000 op"), "counter sums: {report}");
        assert!(report.contains("histogram train.k_hist"), "{report}");
        // Final epoch's histogram wins: bucket 1 has 4 samples.
        assert!(report.contains("1:        4"), "{report}");
        assert!(report.contains("train.threshold.c0.t0"), "{report}");
        assert!(report.contains("1 →"), "first value shown: {report}");
        assert!(report.contains("0.6"), "last threshold value: {report}");
        assert!(!report.contains("unclosed"), "clean trace has no warning");
    }

    #[test]
    fn truncated_trace_reports_unclosed_spans() {
        let body = synthetic_two_epoch_trace();
        // Cut the trace mid-run: drop the final span_end line.
        let cut = body.rfind(r#""kind":"span_end""#).unwrap();
        let line_start = body[..cut].rfind('\n').unwrap() + 1;
        let trace = parse_trace(&body[..line_start]);
        let report = summarize(&trace);
        assert!(report.contains("1 unclosed span(s)"), "{report}");
    }

    #[test]
    fn json_summary_parses_and_mirrors_the_text_folds() {
        let trace = parse_trace(&synthetic_two_epoch_trace());
        let v = JsonValue::parse(&summarize_json(&trace)).expect("valid JSON");
        assert_eq!(v.get("events").and_then(JsonValue::as_f64), Some(14.0));
        assert_eq!(v.get("malformed").and_then(JsonValue::as_f64), Some(0.0));
        assert_eq!(
            v.get("unclosed_spans").and_then(JsonValue::as_f64),
            Some(0.0)
        );
        let spans = v.get("spans").and_then(JsonValue::as_array).expect("spans");
        assert_eq!(
            spans[0].get("name").and_then(JsonValue::as_str),
            Some("train.epoch")
        );
        assert_eq!(spans[0].get("count").and_then(JsonValue::as_f64), Some(2.0));
        assert_eq!(
            spans[0].get("total_s").and_then(JsonValue::as_f64),
            Some(1.0)
        );
        let counters = v
            .get("counters")
            .and_then(JsonValue::as_array)
            .expect("counters");
        assert_eq!(
            counters[0].get("name").and_then(JsonValue::as_str),
            Some("kernel.shifts")
        );
        assert_eq!(
            counters[0].get("total").and_then(JsonValue::as_f64),
            Some(2000.0)
        );
        let traj = v
            .get("trajectories")
            .and_then(JsonValue::as_array)
            .expect("trajectories");
        let threshold = traj
            .iter()
            .find(|t| t.get("name").and_then(JsonValue::as_str) == Some("train.threshold.c0.t0"))
            .expect("threshold trajectory");
        assert_eq!(
            threshold.get("first").and_then(JsonValue::as_f64),
            Some(1.0)
        );
        assert_eq!(threshold.get("last").and_then(JsonValue::as_f64), Some(0.6));
    }

    #[test]
    fn trajectories_include_the_dynamics_signals() {
        let body = [
            r#"{"seq":0,"name":"train.layer.c0.grad_norm.quant","kind":"gauge","value":0.5,"unit":""}"#,
            r#"{"seq":1,"name":"train.reg.r1","kind":"gauge","value":12.0,"unit":""}"#,
            r#"{"seq":2,"name":"train.layer.c0.ste.clip_rate","kind":"gauge","value":0.1,"unit":""}"#,
        ]
        .join("\n");
        let trace = parse_trace(&body);
        let traj = gauge_trajectories(&trace.events, is_training_signal);
        let names: Vec<&str> = traj.iter().map(|(n, _, _)| *n).collect();
        assert_eq!(
            names,
            vec![
                "train.layer.c0.grad_norm.quant",
                "train.reg.r1",
                "train.layer.c0.ste.clip_rate",
            ]
        );
        let report = summarize(&trace);
        assert!(report.contains("train.reg.r1"), "{report}");
    }

    #[test]
    fn summaries_surface_the_kernel_dispatch_path() {
        // No dispatch gauge → no line, no JSON field.
        let plain = parse_trace(&synthetic_two_epoch_trace());
        assert!(kernel_dispatch(&plain.events).is_none());
        assert!(!summarize(&plain).contains("kernel dispatch"));
        let v = JsonValue::parse(&summarize_json(&plain)).expect("valid JSON");
        assert!(v.get("kernel_dispatch").is_none());

        // Engine-traced runs carry kernel.dispatch.<path>; the last
        // emission wins (here a re-dispatch after FLIGHT_FORCE_SCALAR).
        let body = [
            r#"{"seq":0,"name":"kernel.dispatch.avx2","kind":"gauge","value":1,"unit":"path"}"#,
            r#"{"seq":1,"name":"kernel.dispatch.scalar","kind":"gauge","value":1,"unit":"path"}"#,
        ]
        .join("\n");
        let trace = parse_trace(&body);
        assert_eq!(kernel_dispatch(&trace.events), Some("scalar"));
        let report = summarize(&trace);
        assert!(report.contains("kernel dispatch: scalar"), "{report}");
        let v = JsonValue::parse(&summarize_json(&trace)).expect("valid JSON");
        assert_eq!(
            v.get("kernel_dispatch").and_then(JsonValue::as_str),
            Some("scalar")
        );
    }
}
