//! `flightctl diff` — compare two runs and gate on regressions.
//!
//! Both sides can be either a JSONL trace or a `BENCH_*.manifest.json`
//! run manifest; each is flattened into named scalar metrics and the
//! pairs are compared under a configurable relative tolerance. The exit
//! code is the contract scripts rely on: `0` within tolerance, `1` on any
//! regression (including a metric the baseline has but the candidate
//! lost), `2` on usage or I/O errors.
//!
//! Metric names:
//!
//! * manifests — the flat `metrics` object (schema v2); v1 manifests
//!   are synthesized into the same shape (`tables.<table>.<label>.
//!   <field>` per row plus numeric/bool top-level extras).
//! * traces — `counter.<name>` (sum), `gauge.<name>` (last reading),
//!   `span.<name>.total_s` (summed span seconds); aggregated traces
//!   contribute through their final snapshot per name.
//!
//! Because throughput-style metrics are machine-dependent, a gate
//! should filter with `--metrics <prefix,...>` down to the stable subset
//! (`parity`, `schema_version`, accuracies) rather than gating a
//! laptop's wall clock against a runner's.

use flight_telemetry::json::JsonValue;
use flight_telemetry::EventKind;

use crate::summarize::last_snapshots;
use crate::trace::{parse_trace, Trace};

/// Default relative tolerance (5%).
pub const DEFAULT_TOLERANCE: f64 = 0.05;

/// Diff configuration.
#[derive(Debug, Clone)]
pub struct DiffOptions {
    /// Maximum allowed `|new - old| / |old|` before a metric regresses.
    pub tolerance: f64,
    /// Keep only metrics whose name starts with one of these prefixes
    /// (empty = keep everything).
    pub prefixes: Vec<String>,
    /// Per-metric tolerance overrides (`--tolerance metric=pct`): an
    /// exact metric name paired with the tolerance that replaces the
    /// global one for it.
    pub overrides: Vec<(String, f64)>,
}

impl Default for DiffOptions {
    fn default() -> Self {
        DiffOptions {
            tolerance: DEFAULT_TOLERANCE,
            prefixes: Vec::new(),
            overrides: Vec::new(),
        }
    }
}

impl DiffOptions {
    /// The tolerance in effect for one metric: its override, or the
    /// global default.
    pub fn tolerance_for(&self, name: &str) -> f64 {
        self.overrides
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, t)| *t)
            .unwrap_or(self.tolerance)
    }
}

/// Metric-name namespaces the diff tool understands. A baseline metric
/// in any *other* namespace that is wholly absent from the candidate is
/// skipped rather than failed: a newer manifest schema (e.g. the
/// `scaling.*` family) must not break diffs against artifacts produced
/// by builds that predate it.
const KNOWN_NAMESPACES: &[&str] = &["tables", "counter", "gauge", "span", "hist"];

/// The namespace of a metric name: the text before the first `.`, or
/// `None` for undotted names (which are always gate-bearing).
fn namespace(name: &str) -> Option<&str> {
    name.split_once('.').map(|(ns, _)| ns)
}

/// Whether a baseline-only metric should be skipped instead of failed:
/// its namespace is unknown to this tool *and* the candidate carries no
/// metric in that namespace at all. A candidate that knows the
/// namespace but lost one of its metrics still fails.
fn skippable(name: &str, candidate: &[(String, f64)]) -> bool {
    let Some(ns) = namespace(name) else {
        return false;
    };
    if KNOWN_NAMESPACES.contains(&ns) {
        return false;
    }
    !candidate.iter().any(|(n, _)| namespace(n) == Some(ns))
}

/// One compared metric.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDelta {
    /// Flattened metric name.
    pub name: String,
    /// Baseline value (`None` for candidate-only metrics).
    pub old: Option<f64>,
    /// Candidate value (`None` when the candidate lost the metric).
    pub new: Option<f64>,
    /// Verdict for this metric.
    pub status: DeltaStatus,
}

/// Verdict for one metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeltaStatus {
    /// Within tolerance.
    Ok,
    /// Moved beyond tolerance.
    Regression,
    /// Present in the baseline, missing from the candidate — always a
    /// regression (a silently dropped gate metric must fail loudly).
    Missing,
    /// Candidate-only metric; informational.
    New,
    /// Baseline metric in a namespace this tool does not know, wholly
    /// absent from the candidate — forward-compat skip, informational.
    Skipped,
}

/// The full comparison.
#[derive(Debug)]
pub struct DiffReport {
    /// Per-metric rows, baseline order then candidate-only rows.
    pub rows: Vec<MetricDelta>,
    /// Tolerance the verdicts used.
    pub tolerance: f64,
}

impl DiffReport {
    /// `true` when CI should fail the gate.
    pub fn has_regressions(&self) -> bool {
        self.rows
            .iter()
            .any(|r| matches!(r.status, DeltaStatus::Regression | DeltaStatus::Missing))
    }

    /// Renders the human-readable table plus the verdict line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<52} {:>14} {:>14} {:>9}  {}\n",
            "metric", "baseline", "candidate", "delta", "status"
        ));
        for row in &self.rows {
            let fmt = |v: Option<f64>| match v {
                Some(x) => format!("{x:.6}"),
                None => "-".to_string(),
            };
            let delta = match (row.old, row.new) {
                (Some(old), Some(new)) if old != 0.0 => {
                    format!("{:+.2}%", (new - old) / old.abs() * 100.0)
                }
                (Some(old), Some(new)) if old == new => "+0.00%".to_string(),
                _ => "-".to_string(),
            };
            let status = match row.status {
                DeltaStatus::Ok => "ok",
                DeltaStatus::Regression => "REGRESSION",
                DeltaStatus::Missing => "MISSING",
                DeltaStatus::New => "new",
                DeltaStatus::Skipped => "skipped",
            };
            out.push_str(&format!(
                "{:<52} {:>14} {:>14} {:>9}  {}\n",
                row.name,
                fmt(row.old),
                fmt(row.new),
                delta,
                status
            ));
        }
        let regressions = self
            .rows
            .iter()
            .filter(|r| matches!(r.status, DeltaStatus::Regression | DeltaStatus::Missing))
            .count();
        if regressions == 0 {
            out.push_str(&format!(
                "all metrics within tolerance ({:.1}%)\n",
                self.tolerance * 100.0
            ));
        } else {
            out.push_str(&format!(
                "{regressions} regression(s) beyond tolerance ({:.1}%)\n",
                self.tolerance * 100.0
            ));
        }
        out
    }
}

/// Compares two flattened metric sets.
pub fn diff(
    baseline: &[(String, f64)],
    candidate: &[(String, f64)],
    options: &DiffOptions,
) -> DiffReport {
    let keep = |name: &str| {
        options.prefixes.is_empty()
            || options
                .prefixes
                .iter()
                .any(|p| name.starts_with(p.as_str()))
    };
    let mut rows = Vec::new();
    for (name, old) in baseline.iter().filter(|(n, _)| keep(n)) {
        match candidate.iter().find(|(n, _)| n == name) {
            Some((_, new)) => {
                let tolerance = options.tolerance_for(name);
                let within = if *old == 0.0 {
                    *new == 0.0
                } else {
                    // NaN deltas compare false and so regress, which is
                    // the safe default for a corrupt metric.
                    ((new - old) / old.abs()).abs() <= tolerance
                };
                rows.push(MetricDelta {
                    name: name.clone(),
                    old: Some(*old),
                    new: Some(*new),
                    status: if within {
                        DeltaStatus::Ok
                    } else {
                        DeltaStatus::Regression
                    },
                });
            }
            None => rows.push(MetricDelta {
                name: name.clone(),
                old: Some(*old),
                new: None,
                status: if skippable(name, candidate) {
                    DeltaStatus::Skipped
                } else {
                    DeltaStatus::Missing
                },
            }),
        }
    }
    for (name, new) in candidate.iter().filter(|(n, _)| keep(n)) {
        if !baseline.iter().any(|(n, _)| n == name) {
            rows.push(MetricDelta {
                name: name.clone(),
                old: None,
                new: Some(*new),
                status: DeltaStatus::New,
            });
        }
    }
    DiffReport {
        rows,
        tolerance: options.tolerance,
    }
}

/// Loads either input format from disk and flattens it to metrics.
///
/// # Errors
///
/// Returns a human-readable message for I/O failures or inputs that are
/// neither a run manifest nor contain a single parseable trace line.
pub fn load_metrics(path: &str) -> Result<Vec<(String, f64)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    if let Ok(v) = JsonValue::parse(text.trim()) {
        // A manifest is one JSON object covering the whole file; a
        // multi-line trace fails this parse.
        if v.get("exhibit").is_some() || v.get("metrics").is_some() {
            return Ok(manifest_metrics(&v));
        }
    }
    let trace = parse_trace(&text);
    if trace.events.is_empty() {
        return Err(format!(
            "{path}: no trace events and not a run manifest ({} malformed lines)",
            trace.malformed
        ));
    }
    Ok(trace_metrics(&trace))
}

/// Flattens a run manifest into `(name, value)` metrics.
pub fn manifest_metrics(manifest: &JsonValue) -> Vec<(String, f64)> {
    // Schema v2: the manifest carries its own flat `metrics` object.
    if let Some(JsonValue::Object(fields)) = manifest.get("metrics") {
        return fields
            .iter()
            .filter_map(|(name, v)| Some((name.clone(), scalar(v)?)))
            .collect();
    }
    // Schema v1 fallback: synthesize the same names from the raw shape.
    let mut metrics = Vec::new();
    if let Some(v) = manifest.get("schema_version").and_then(JsonValue::as_f64) {
        metrics.push(("schema_version".to_string(), v));
    }
    if let Some(v) = manifest.get("elapsed_secs").and_then(JsonValue::as_f64) {
        metrics.push(("elapsed_secs".to_string(), v));
    }
    if let Some(tables) = manifest.get("tables").and_then(JsonValue::as_array) {
        for table in tables {
            let Some(tname) = table.get("name").and_then(JsonValue::as_str) else {
                continue;
            };
            let Some(rows) = table.get("rows").and_then(JsonValue::as_array) else {
                continue;
            };
            for row in rows {
                let Some(label) = row.get("label").and_then(JsonValue::as_str) else {
                    continue;
                };
                let label = sanitize(label);
                if let JsonValue::Object(fields) = row {
                    for (field, v) in fields {
                        if field == "label" {
                            continue;
                        }
                        if let Some(x) = scalar(v) {
                            metrics.push((format!("tables.{tname}.{label}.{field}"), x));
                        }
                    }
                }
            }
        }
    }
    // Exhibit-specific extras (`parity`, `speedup`, …): any remaining
    // numeric/bool top-level field.
    if let JsonValue::Object(fields) = manifest {
        for (key, v) in fields {
            if matches!(
                key.as_str(),
                "schema_version"
                    | "exhibit"
                    | "profile"
                    | "git_describe"
                    | "elapsed_secs"
                    | "tables"
                    | "metrics"
            ) {
                continue;
            }
            if let Some(x) = scalar(v) {
                metrics.push((key.clone(), x));
            }
        }
    }
    metrics
}

/// Flattens a trace into `(name, value)` metrics.
pub fn trace_metrics(trace: &Trace) -> Vec<(String, f64)> {
    let mut metrics: Vec<(String, f64)> = Vec::new();
    let mut set = |name: String, value: f64| match metrics.iter_mut().find(|(n, _)| *n == name) {
        Some((_, v)) => *v = value,
        None => metrics.push((name, value)),
    };
    let mut counter_totals: Vec<(String, f64)> = Vec::new();
    let mut span_totals: Vec<(String, f64)> = Vec::new();
    let add = |acc: &mut Vec<(String, f64)>, name: &str, delta: f64| match acc
        .iter_mut()
        .find(|(n, _)| n == name)
    {
        Some((_, t)) => *t += delta,
        None => acc.push((name.to_string(), delta)),
    };
    for event in &trace.events {
        if !event.value.is_finite() {
            continue;
        }
        match event.kind {
            EventKind::Counter => add(&mut counter_totals, &event.name, event.value),
            EventKind::SpanEnd => add(&mut span_totals, &event.name, event.value),
            EventKind::Gauge => set(format!("gauge.{}", event.name), event.value),
            EventKind::Log2Hist => {
                // Latest histogram per name wins; the percentile stats
                // ride in the text payload.
                if let Some(stats) = event.text.as_deref().and_then(|t| JsonValue::parse(t).ok()) {
                    for key in ["p50", "p99", "p999"] {
                        if let Some(v) = stats.get(key).and_then(JsonValue::as_f64) {
                            if v.is_finite() {
                                set(format!("hist.{}.{key}", event.name), v);
                            }
                        }
                    }
                }
            }
            _ => {}
        }
    }
    // Aggregated traces: the final snapshot per name carries the
    // whole-run summary (sum for counters/spans, last for gauges).
    for (event, stats) in last_snapshots(&trace.events) {
        match stats.agg.as_str() {
            "counter" => add(&mut counter_totals, &event.name, stats.sum),
            "span" => add(&mut span_totals, &event.name, stats.sum),
            "gauge" => set(format!("gauge.{}", event.name), stats.last),
            _ => {}
        }
    }
    for (name, total) in counter_totals {
        set(format!("counter.{name}"), total);
    }
    for (name, total) in span_totals {
        set(format!("span.{name}.total_s"), total);
    }
    metrics
}

fn scalar(v: &JsonValue) -> Option<f64> {
    match v {
        JsonValue::Number(x) => Some(*x),
        JsonValue::Bool(b) => Some(if *b { 1.0 } else { 0.0 }),
        _ => None,
    }
}

/// Manifest row labels become metric-name segments: spaces to `_` so
/// `--metrics` prefixes stay shell-friendly.
pub fn sanitize(label: &str) -> String {
    label
        .chars()
        .map(|c| if c.is_whitespace() { '_' } else { c })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts(tolerance: f64, prefixes: &[&str]) -> DiffOptions {
        DiffOptions {
            tolerance,
            prefixes: prefixes.iter().map(|s| s.to_string()).collect(),
            overrides: Vec::new(),
        }
    }

    #[test]
    fn identical_runs_pass_and_perturbed_runs_fail() {
        let base = vec![
            ("parity".to_string(), 1.0),
            ("throughput".to_string(), 100.0),
        ];
        let same = diff(&base, &base.clone(), &opts(0.0, &[]));
        assert!(!same.has_regressions());
        let mut worse = base.clone();
        worse[1].1 = 90.0; // -10% beyond the 5% tolerance
        let report = diff(&base, &worse, &opts(0.05, &[]));
        assert!(report.has_regressions());
        let row = report.rows.iter().find(|r| r.name == "throughput").unwrap();
        assert_eq!(row.status, DeltaStatus::Regression);
        // Loosening the tolerance absorbs the drift.
        assert!(!diff(&base, &worse, &opts(0.11, &[])).has_regressions());
    }

    #[test]
    fn missing_baseline_metric_is_a_regression_and_new_is_not() {
        let base = vec![("parity".to_string(), 1.0)];
        let cand = vec![("speedup".to_string(), 3.0)];
        let report = diff(&base, &cand, &opts(0.05, &[]));
        assert!(report.has_regressions(), "lost parity must fail the gate");
        assert_eq!(report.rows[0].status, DeltaStatus::Missing);
        assert_eq!(
            report.rows[1].status,
            DeltaStatus::New,
            "new metrics inform only"
        );
    }

    #[test]
    fn prefix_filter_scopes_the_gate() {
        let base = vec![
            ("parity".to_string(), 1.0),
            ("elapsed_secs".to_string(), 10.0),
        ];
        let cand = vec![
            ("parity".to_string(), 1.0),
            ("elapsed_secs".to_string(), 99.0), // machine noise
        ];
        assert!(diff(&base, &cand, &opts(0.0, &[])).has_regressions());
        let gated = diff(&base, &cand, &opts(0.0, &["parity"]));
        assert!(!gated.has_regressions());
        assert_eq!(gated.rows.len(), 1);
    }

    #[test]
    fn zero_baseline_requires_exact_match() {
        let base = vec![("errors".to_string(), 0.0)];
        let ok = vec![("errors".to_string(), 0.0)];
        let bad = vec![("errors".to_string(), 2.0)];
        assert!(!diff(&base, &ok, &opts(0.05, &[])).has_regressions());
        assert!(diff(&base, &bad, &opts(0.05, &[])).has_regressions());
    }

    #[test]
    fn v2_manifest_uses_its_flat_metrics_object() {
        let v = JsonValue::parse(
            r#"{"schema_version":2,"exhibit":"lowering",
                "metrics":{"parity":true,"speedup":2.9,"schema_version":2,"note":"skip me"}}"#,
        )
        .unwrap();
        let m = manifest_metrics(&v);
        assert_eq!(
            m,
            vec![
                ("parity".to_string(), 1.0),
                ("speedup".to_string(), 2.9),
                ("schema_version".to_string(), 2.0),
            ],
            "strings are not metrics"
        );
    }

    #[test]
    fn v1_manifest_synthesizes_table_and_extra_metrics() {
        let v = JsonValue::parse(
            r#"{"schema_version":1,"exhibit":"lowering","profile":null,
                "git_describe":"abc","elapsed_secs":1.5,
                "tables":[{"name":"engine","rows":[
                  {"label":"lowered parallel x4","accuracy":0.9,"throughput":120.5,
                   "mean_k":null}]}],
                "parity":true,"speedup":2.9}"#,
        )
        .unwrap();
        let m = manifest_metrics(&v);
        let get = |n: &str| m.iter().find(|(k, _)| k == n).map(|(_, v)| *v);
        assert_eq!(get("schema_version"), Some(1.0));
        assert_eq!(get("elapsed_secs"), Some(1.5));
        assert_eq!(get("tables.engine.lowered_parallel_x4.accuracy"), Some(0.9));
        assert_eq!(
            get("tables.engine.lowered_parallel_x4.throughput"),
            Some(120.5)
        );
        assert_eq!(
            get("tables.engine.lowered_parallel_x4.mean_k"),
            None,
            "null fields are absent, not zero"
        );
        assert_eq!(get("parity"), Some(1.0));
        assert_eq!(get("speedup"), Some(2.9));
        assert_eq!(get("git_describe"), None, "strings are not metrics");
    }

    #[test]
    fn trace_metrics_fold_counters_gauges_spans_and_snapshots() {
        let trace = parse_trace(
            r#"{"seq":0,"name":"kernel.shifts","kind":"counter","value":100,"unit":"op"}
{"seq":1,"name":"kernel.shifts","kind":"counter","value":50,"unit":"op"}
{"seq":2,"name":"train.epoch.loss","kind":"gauge","value":0.9,"unit":""}
{"seq":3,"name":"train.epoch.loss","kind":"gauge","value":0.4,"unit":""}
{"seq":4,"name":"kernel.forward","kind":"span_end","value":0.25,"unit":"s","span":1}
{"seq":5,"name":"kernel.forward","kind":"span_end","value":0.25,"unit":"s","span":2}
{"seq":6,"name":"kernel.adds","kind":"snapshot","value":70,"unit":"op","text":"{\"agg\":\"counter\",\"count\":7,\"sum\":70,\"min\":10,\"max\":10,\"last\":10}"}
"#,
        );
        let m = trace_metrics(&trace);
        let get = |n: &str| m.iter().find(|(k, _)| k == n).map(|(_, v)| *v);
        assert_eq!(get("counter.kernel.shifts"), Some(150.0));
        assert_eq!(
            get("gauge.train.epoch.loss"),
            Some(0.4),
            "gauges keep the last"
        );
        assert_eq!(get("span.kernel.forward.total_s"), Some(0.5));
        assert_eq!(
            get("counter.kernel.adds"),
            Some(70.0),
            "snapshot sums count"
        );
    }

    #[test]
    fn unknown_namespace_wholly_absent_is_skipped_not_failed() {
        // A baseline written by a newer build carries scaling.* metrics;
        // a candidate from an older build has none of them. The gate
        // must not fail on schema growth.
        let base = vec![
            ("parity".to_string(), 1.0),
            ("scaling.w2.b32.qps".to_string(), 900.0),
            ("scaling.fit.sigma".to_string(), 0.05),
        ];
        let cand = vec![("parity".to_string(), 1.0)];
        let report = diff(&base, &cand, &opts(0.0, &[]));
        assert!(!report.has_regressions(), "{}", report.render());
        let statuses: Vec<DeltaStatus> = report.rows.iter().map(|r| r.status).collect();
        assert_eq!(
            statuses,
            vec![DeltaStatus::Ok, DeltaStatus::Skipped, DeltaStatus::Skipped]
        );
        assert!(report.render().contains("skipped"));
    }

    #[test]
    fn partially_present_unknown_namespace_still_fails() {
        // The candidate knows the scaling namespace but lost one of its
        // metrics — that is a real regression, not schema drift.
        let base = vec![
            ("scaling.w2.b32.qps".to_string(), 900.0),
            ("scaling.fit.sigma".to_string(), 0.05),
        ];
        let cand = vec![("scaling.w2.b32.qps".to_string(), 900.0)];
        let report = diff(&base, &cand, &opts(0.0, &[]));
        assert!(report.has_regressions());
        assert_eq!(report.rows[1].status, DeltaStatus::Missing);
    }

    #[test]
    fn known_namespaces_and_bare_names_never_skip() {
        let base = vec![
            ("tables.network1.Full.accuracy".to_string(), 0.9),
            ("parity".to_string(), 1.0),
        ];
        let report = diff(&base, &[], &opts(0.0, &[]));
        assert!(report.has_regressions());
        assert!(report.rows.iter().all(|r| r.status == DeltaStatus::Missing));
    }

    #[test]
    fn per_metric_tolerance_overrides_the_global() {
        let base = vec![
            ("parity".to_string(), 1.0),
            ("throughput".to_string(), 100.0),
        ];
        let cand = vec![
            ("parity".to_string(), 1.0),
            ("throughput".to_string(), 80.0), // -20%
        ];
        // Globally tight: regression.
        assert!(diff(&base, &cand, &opts(0.0, &[])).has_regressions());
        // Loosening just the noisy metric absorbs it without widening
        // the gate for everything else.
        let mut options = opts(0.0, &[]);
        options.overrides.push(("throughput".to_string(), 0.25));
        assert!(!diff(&base, &cand, &options).has_regressions());
        assert_eq!(options.tolerance_for("throughput"), 0.25);
        assert_eq!(options.tolerance_for("parity"), 0.0);
    }

    #[test]
    fn render_marks_each_status() {
        let base = vec![("a".to_string(), 1.0), ("b".to_string(), 1.0)];
        let cand = vec![("a".to_string(), 2.0), ("c".to_string(), 3.0)];
        let text = diff(&base, &cand, &opts(0.05, &[])).render();
        assert!(text.contains("REGRESSION"), "{text}");
        assert!(text.contains("MISSING"), "{text}");
        assert!(text.contains("new"), "{text}");
        assert!(text.contains("+100.00%"), "{text}");
        assert!(text.contains("2 regression(s)"), "{text}");
    }
}
