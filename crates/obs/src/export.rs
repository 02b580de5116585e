//! Chrome trace-event export: JSONL traces as timelines.
//!
//! `flightctl export <trace> --format chrome` converts a telemetry
//! trace into the Chrome trace-event JSON format, loadable in Perfetto
//! (<https://ui.perfetto.dev>) or `chrome://tracing`. The mapping:
//!
//! * **Spans** become complete (`"ph": "X"`) events. The duration is
//!   the `span_end` elapsed seconds converted to microseconds — the
//!   same number `summarize` folds — so timeline widths agree with the
//!   JSONL trace to well under a microsecond. The start time is the
//!   paired `span_start`'s `ts`; an orphan end (a concatenated trace)
//!   is placed at `end ts − duration`.
//! * **Counters and gauges** become counter
//!   (`"ph": "C"`) events, which Perfetto renders as stepped value
//!   tracks. Non-finite readings are dropped and counted.
//! * **Worker attribution** reuses the `kernel.worker.<ww>.` name
//!   convention ([`flight_telemetry::parse_worker`]): every worker gets
//!   its own thread track (`tid = w + 1`, named `worker <ww>`) and its
//!   events shed the prefix, so track `worker 03` shows plain
//!   `kernel.forward` spans. Everything else lands on the `main` track (`tid = 0`).
//! * **Request attribution** does the same for the serving plane's
//!   `serve.request.<id>.` convention
//!   ([`flight_telemetry::parse_request_track`]): each request id seen
//!   in the trace (`flightq exemplars` output) gets its own track named
//!   `request <id>`, with tids assigned from [`REQUEST_TID_BASE`] in
//!   ascending request-id order — so Perfetto lists requests
//!   numerically and each track reads as a per-request timeline of
//!   `queue` → `batch_form` → `compute` → `reply_write` phase spans.
//! * **Timestamps** come from the write side's monotonic `ts` field.
//!   Traces recorded before that field existed still export: such
//!   events fall back to their sequence number as a synthetic
//!   microsecond clock (ordering survives, durations stay exact) and
//!   the fallback is counted in [`ExportStats::synthetic_ts`].
//!
//! Histograms and manifests have no timeline representation and are
//! skipped. `span_start`s with no matching end carry no duration and
//! are skipped too ([`ExportStats::unmatched_starts`] — the same
//! truncated-tail honesty as `summarize`).

use std::collections::HashMap;

use flight_telemetry::json::{JsonObject, JsonValue};
use flight_telemetry::{parse_request_track, parse_worker, EventKind};

use crate::trace::{Trace, TraceEvent};

/// The single process id every exported event lands under.
pub const EXPORT_PID: u64 = 1;

/// First tid used for `serve.request.<id>.` tracks. Worker tids start
/// at 1, so this leaves room for ~1000 workers before a clash — far
/// beyond anything the kernel pool spawns.
pub const REQUEST_TID_BASE: u64 = 1000;

/// What the exporter did with the trace — rendered by `flightctl
/// export` on stderr so a surprising timeline can be explained.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct ExportStats {
    /// Span pairs exported as complete (`X`) events.
    pub complete_spans: u64,
    /// Counter/gauge readings exported as counter (`C`) events.
    pub counter_events: u64,
    /// `span_start`s with no matching end — truncated tail; skipped.
    pub unmatched_starts: u64,
    /// `span_end`s with no recorded start — still exported, placed at
    /// `end ts − duration`.
    pub orphan_ends: u64,
    /// Events without a usable `ts` field, placed by sequence number.
    pub synthetic_ts: u64,
    /// Non-finite durations/readings dropped from the timeline.
    pub dropped_non_finite: u64,
}

impl std::fmt::Display for ExportStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} spans, {} counter points ({} unmatched starts, {} orphan ends, \
             {} synthetic timestamps, {} non-finite dropped)",
            self.complete_spans,
            self.counter_events,
            self.unmatched_starts,
            self.orphan_ends,
            self.synthetic_ts,
            self.dropped_non_finite,
        )
    }
}

/// The request ids present in the trace, ascending and deduplicated —
/// the rank of an id in this list fixes its tid, so request tracks list
/// in numeric id order regardless of event interleaving.
fn request_ids(trace: &Trace) -> Vec<u64> {
    let mut ids: Vec<u64> = trace
        .events
        .iter()
        .filter_map(|e| parse_request_track(&e.name).map(|(id, _)| id))
        .collect();
    ids.sort_unstable();
    ids.dedup();
    ids
}

/// The thread track an event belongs to and its in-track name:
/// `(tid, bare name)`. Request `id` maps to `REQUEST_TID_BASE + rank`
/// in the trace's ascending id list, worker `w` to `tid = w + 1`;
/// everything else is the `main` track, `tid = 0`.
fn track_of<'a>(name: &'a str, request_ids: &[u64]) -> (u64, &'a str) {
    if let Some((id, bare)) = parse_request_track(name) {
        if let Ok(rank) = request_ids.binary_search(&id) {
            return (REQUEST_TID_BASE + rank as u64, bare);
        }
    }
    match parse_worker(name) {
        Some((w, bare)) => (w as u64 + 1, bare),
        None => (0, name),
    }
}

/// The display name of a track: `main`, `worker <ww>`, or
/// `request <id>`.
fn track_name(tid: u64, request_ids: &[u64]) -> String {
    if tid == 0 {
        "main".to_string()
    } else if tid >= REQUEST_TID_BASE {
        format!("request {}", request_ids[(tid - REQUEST_TID_BASE) as usize])
    } else {
        format!("worker {:02}", tid - 1)
    }
}

/// The event's microsecond timestamp, falling back to the sequence
/// number (and counting the fallback) when the trace predates `ts`.
fn ts_of(event: &TraceEvent, stats: &mut ExportStats) -> f64 {
    match event.ts_us {
        Some(ts) if ts.is_finite() => ts,
        _ => {
            stats.synthetic_ts += 1;
            event.seq as f64
        }
    }
}

/// Converts a parsed trace into the Chrome trace-event JSON value:
/// `{"traceEvents": [...], "displayTimeUnit": "ms"}`.
pub fn export_chrome(trace: &Trace) -> (JsonValue, ExportStats) {
    let mut stats = ExportStats::default();
    let requests = request_ids(trace);
    let mut events: Vec<JsonValue> = Vec::new();
    // Span id → (start ts, start seq) of the pending span_start.
    let mut pending: HashMap<u64, (Option<f64>, u64)> = HashMap::new();
    // Track ids in first-use order, for the metadata pass.
    let mut tracks: Vec<u64> = Vec::new();

    fn use_track(tracks: &mut Vec<u64>, tid: u64) {
        if !tracks.contains(&tid) {
            tracks.push(tid);
        }
    }

    for event in &trace.events {
        let (tid, bare) = track_of(&event.name, &requests);
        match event.kind {
            EventKind::SpanStart => {
                if let Some(id) = event.span {
                    pending.insert(id, (event.ts_us.filter(|t| t.is_finite()), event.seq));
                }
            }
            EventKind::SpanEnd => {
                let opened = event.span.and_then(|id| pending.remove(&id));
                if !event.value.is_finite() {
                    stats.dropped_non_finite += 1;
                    continue;
                }
                let dur_us = event.value * 1e6;
                let ts = match opened {
                    Some((Some(start_ts), _)) => start_ts,
                    Some((None, start_seq)) => {
                        stats.synthetic_ts += 1;
                        start_seq as f64
                    }
                    None => {
                        stats.orphan_ends += 1;
                        ts_of(event, &mut stats) - dur_us
                    }
                };
                use_track(&mut tracks, tid);
                stats.complete_spans += 1;
                let mut obj = JsonObject::new()
                    .field("name", bare)
                    .field("ph", "X")
                    .field("ts", ts)
                    .field("dur", dur_us)
                    .field("pid", EXPORT_PID)
                    .field("tid", tid);
                if let Some(id) = event.span {
                    obj = obj.field("args", JsonObject::new().field("span", id).build());
                }
                events.push(obj.build());
            }
            EventKind::Counter | EventKind::Gauge => {
                if !event.value.is_finite() {
                    stats.dropped_non_finite += 1;
                    continue;
                }
                let ts = ts_of(event, &mut stats);
                use_track(&mut tracks, tid);
                stats.counter_events += 1;
                events.push(
                    JsonObject::new()
                        .field("name", bare)
                        .field("ph", "C")
                        .field("ts", ts)
                        .field("pid", EXPORT_PID)
                        .field("tid", tid)
                        .field(
                            "args",
                            JsonObject::new().field("value", event.value).build(),
                        )
                        .build(),
                );
            }
            // No timeline representation.
            EventKind::Histogram | EventKind::Log2Hist | EventKind::Manifest => {}
        }
    }
    stats.unmatched_starts = pending.len() as u64;

    // Metadata events name the process and each used thread track.
    let mut meta: Vec<JsonValue> = Vec::new();
    meta.push(
        JsonObject::new()
            .field("name", "process_name")
            .field("ph", "M")
            .field("pid", EXPORT_PID)
            .field("tid", 0u64)
            .field("args", JsonObject::new().field("name", "flight").build())
            .build(),
    );
    tracks.sort_unstable();
    for tid in tracks {
        meta.push(
            JsonObject::new()
                .field("name", "thread_name")
                .field("ph", "M")
                .field("pid", EXPORT_PID)
                .field("tid", tid)
                .field(
                    "args",
                    JsonObject::new()
                        .field("name", track_name(tid, &requests))
                        .build(),
                )
                .build(),
        );
    }
    meta.extend(events);

    let root = JsonObject::new()
        .field("traceEvents", meta)
        .field("displayTimeUnit", "ms")
        .build();
    (root, stats)
}

/// Converts a per-layer profile snapshot (the `profile` verb's
/// payload, or the whole `flightq profile` reply — the wrapper is
/// unwrapped automatically) into folded-stack lines for standard
/// flamegraph tools (`flamegraph.pl`, inferno, speedscope):
///
/// ```text
/// serve;forward;stage.0.conv 48213
/// serve;forward;stage.1.requant 912
/// ```
///
/// One line per compiled stage with at least one sample, frame stack
/// `serve;forward;stage.<index>.<kind>`, weight the stage's lifetime
/// wall time in integer microseconds. Stage order follows the compiled
/// layer order, so diffs between two exports line up.
///
/// # Errors
///
/// Returns a message when the value has no `stages` array (not a
/// profile snapshot) or when no stage has samples yet (the flamegraph
/// would be empty — better to say why).
pub fn export_folded(profile: &JsonValue) -> Result<String, String> {
    // Accept either the bare snapshot or the framed server reply.
    let snapshot = profile.get("profile").unwrap_or(profile);
    let stages = snapshot
        .get("stages")
        .and_then(JsonValue::as_array)
        .ok_or_else(|| {
            "no `stages` array — expected a profile snapshot (flightq profile output)".to_string()
        })?;
    let mut out = String::new();
    for stage in stages {
        let samples = stage
            .get("samples")
            .and_then(JsonValue::as_f64)
            .unwrap_or(0.0);
        if samples <= 0.0 {
            continue;
        }
        let index = stage
            .get("index")
            .and_then(JsonValue::as_f64)
            .unwrap_or(0.0) as u64;
        let kind = stage
            .get("kind")
            .and_then(JsonValue::as_str)
            .filter(|k| !k.is_empty())
            .unwrap_or("stage");
        let wall_us = stage
            .get("wall_total_us")
            .and_then(JsonValue::as_f64)
            .unwrap_or(0.0)
            .round() as u64;
        out.push_str(&format!("serve;forward;stage.{index}.{kind} {wall_us}\n"));
    }
    if out.is_empty() {
        return Err("profile has no sampled stages yet — nothing to fold".to_string());
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::parse_trace;

    fn chrome_events(root: &JsonValue) -> &[JsonValue] {
        root.get("traceEvents")
            .and_then(JsonValue::as_array)
            .expect("traceEvents array")
    }

    fn by_ph<'a>(root: &'a JsonValue, ph: &str) -> Vec<&'a JsonValue> {
        chrome_events(root)
            .iter()
            .filter(|e| e.get("ph").and_then(JsonValue::as_str) == Some(ph))
            .collect()
    }

    #[test]
    fn spans_become_complete_events_with_exact_durations() {
        let body = concat!(
            r#"{"seq":0,"ts":100.0,"name":"train.epoch","kind":"span_start","value":0,"unit":"s","span":1}"#,
            "\n",
            r#"{"seq":1,"ts":600.5,"name":"train.epoch","kind":"span_end","value":0.0005,"unit":"s","span":1}"#,
            "\n",
        );
        let (root, stats) = export_chrome(&parse_trace(body));
        assert_eq!(stats.complete_spans, 1);
        assert_eq!(stats.synthetic_ts, 0);
        let spans = by_ph(&root, "X");
        assert_eq!(spans.len(), 1);
        let e = spans[0];
        assert_eq!(
            e.get("name").and_then(JsonValue::as_str),
            Some("train.epoch")
        );
        assert_eq!(e.get("ts").and_then(JsonValue::as_f64), Some(100.0));
        // dur is the span_end's elapsed seconds in µs, exactly.
        assert_eq!(e.get("dur").and_then(JsonValue::as_f64), Some(500.0));
        assert_eq!(e.get("tid").and_then(JsonValue::as_f64), Some(0.0));
        let args = e.get("args").expect("args");
        assert_eq!(args.get("span").and_then(JsonValue::as_f64), Some(1.0));
    }

    #[test]
    fn worker_events_land_on_their_own_named_tracks() {
        let body = concat!(
            r#"{"seq":0,"ts":10.0,"name":"kernel.worker.03.chunk","kind":"span_start","value":0,"unit":"s","span":7}"#,
            "\n",
            r#"{"seq":1,"ts":30.0,"name":"kernel.worker.03.chunk","kind":"span_end","value":2e-5,"unit":"s","span":7}"#,
            "\n",
            r#"{"seq":2,"ts":31.0,"name":"kernel.worker.03.chunk.shifts","kind":"counter","value":128,"unit":"op"}"#,
            "\n",
        );
        let (root, stats) = export_chrome(&parse_trace(body));
        assert_eq!(stats.complete_spans, 1);
        assert_eq!(stats.counter_events, 1);
        let spans = by_ph(&root, "X");
        // Prefix stripped, tid = worker + 1.
        assert_eq!(
            spans[0].get("name").and_then(JsonValue::as_str),
            Some("chunk")
        );
        assert_eq!(spans[0].get("tid").and_then(JsonValue::as_f64), Some(4.0));
        let counters = by_ph(&root, "C");
        assert_eq!(
            counters[0].get("name").and_then(JsonValue::as_str),
            Some("chunk.shifts")
        );
        let meta = by_ph(&root, "M");
        let thread_names: Vec<&str> = meta
            .iter()
            .filter(|e| e.get("name").and_then(JsonValue::as_str) == Some("thread_name"))
            .filter_map(|e| e.get("args")?.get("name")?.as_str())
            .collect();
        assert_eq!(thread_names, vec!["worker 03"]);
    }

    #[test]
    fn gauges_become_counter_tracks_and_non_finite_is_dropped() {
        let body = concat!(
            r#"{"seq":0,"ts":1.0,"name":"train.epoch.loss","kind":"gauge","value":0.7,"unit":"nats"}"#,
            "\n",
            r#"{"seq":1,"ts":2.0,"name":"train.epoch.loss","kind":"gauge","value":null,"unit":"nats"}"#,
            "\n",
        );
        let (root, stats) = export_chrome(&parse_trace(body));
        assert_eq!(stats.counter_events, 1);
        assert_eq!(stats.dropped_non_finite, 1);
        let counters = by_ph(&root, "C");
        assert_eq!(counters.len(), 1);
        assert_eq!(
            counters[0]
                .get("args")
                .and_then(|a| a.get("value"))
                .and_then(JsonValue::as_f64),
            Some(0.7)
        );
    }

    #[test]
    fn truncated_and_orphan_spans_are_counted_not_invented() {
        let body = concat!(
            // A start with no end (killed run)…
            r#"{"seq":0,"ts":5.0,"name":"a","kind":"span_start","value":0,"unit":"s","span":1}"#,
            "\n",
            // …and an end with no start (concatenated trace).
            r#"{"seq":1,"ts":100.0,"name":"b","kind":"span_end","value":1e-5,"unit":"s","span":2}"#,
            "\n",
        );
        let (root, stats) = export_chrome(&parse_trace(body));
        assert_eq!(stats.unmatched_starts, 1);
        assert_eq!(stats.orphan_ends, 1);
        let spans = by_ph(&root, "X");
        assert_eq!(spans.len(), 1, "only the orphan end has a duration");
        // Placed at end ts − duration: 100 − 10 = 90.
        assert_eq!(spans[0].get("ts").and_then(JsonValue::as_f64), Some(90.0));
    }

    #[test]
    fn ts_less_traces_export_on_a_synthetic_seq_clock() {
        let body = concat!(
            r#"{"seq":4,"name":"old.span","kind":"span_start","value":0,"unit":"s","span":1}"#,
            "\n",
            r#"{"seq":9,"name":"old.span","kind":"span_end","value":0.001,"unit":"s","span":1}"#,
            "\n",
            r#"{"seq":11,"name":"old.gauge","kind":"gauge","value":3.0,"unit":""}"#,
            "\n",
        );
        let (root, stats) = export_chrome(&parse_trace(body));
        assert_eq!(stats.synthetic_ts, 2, "span start + gauge fall back");
        let spans = by_ph(&root, "X");
        assert_eq!(spans[0].get("ts").and_then(JsonValue::as_f64), Some(4.0));
        assert_eq!(
            spans[0].get("dur").and_then(JsonValue::as_f64),
            Some(1000.0)
        );
        let counters = by_ph(&root, "C");
        assert_eq!(
            counters[0].get("ts").and_then(JsonValue::as_f64),
            Some(11.0)
        );
    }

    #[test]
    fn metadata_names_the_process_and_every_used_track() {
        let body = concat!(
            r#"{"seq":0,"ts":1.0,"name":"g","kind":"gauge","value":1.0,"unit":""}"#,
            "\n",
            r#"{"seq":1,"ts":2.0,"name":"kernel.worker.00.c","kind":"counter","value":1.0,"unit":""}"#,
            "\n",
        );
        let (root, _) = export_chrome(&parse_trace(body));
        let meta = by_ph(&root, "M");
        let names: Vec<(&str, &str)> = meta
            .iter()
            .filter_map(|e| {
                Some((
                    e.get("name")?.as_str()?,
                    e.get("args")?.get("name")?.as_str()?,
                ))
            })
            .collect();
        assert_eq!(
            names,
            vec![
                ("process_name", "flight"),
                ("thread_name", "main"),
                ("thread_name", "worker 00"),
            ]
        );
    }

    #[test]
    fn request_spans_land_on_their_own_numerically_ordered_tracks() {
        // Two requests' phase spans, deliberately interleaved with the
        // higher id first — the exemplar ring emits slowest-first, not
        // id order.
        let body = concat!(
            r#"{"seq":0,"ts":10.0,"name":"serve.request.42.queue","kind":"span_start","value":0,"unit":"s","span":168}"#,
            "\n",
            r#"{"seq":1,"ts":110.0,"name":"serve.request.42.queue","kind":"span_end","value":1e-4,"unit":"s","span":168}"#,
            "\n",
            r#"{"seq":2,"ts":110.0,"name":"serve.request.42.compute","kind":"span_start","value":0,"unit":"s","span":170}"#,
            "\n",
            r#"{"seq":3,"ts":310.0,"name":"serve.request.42.compute","kind":"span_end","value":2e-4,"unit":"s","span":170}"#,
            "\n",
            r#"{"seq":4,"ts":20.0,"name":"serve.request.7.queue","kind":"span_start","value":0,"unit":"s","span":28}"#,
            "\n",
            r#"{"seq":5,"ts":70.0,"name":"serve.request.7.queue","kind":"span_end","value":5e-5,"unit":"s","span":28}"#,
            "\n",
        );
        let (root, stats) = export_chrome(&parse_trace(body));
        assert_eq!(stats.complete_spans, 3);
        let spans = by_ph(&root, "X");
        // Prefix stripped: bare phase names on the track.
        let mut named: Vec<(f64, &str)> = spans
            .iter()
            .filter_map(|e| Some((e.get("tid")?.as_f64()?, e.get("name")?.as_str()?)))
            .collect();
        named.sort_by(|a, b| a.partial_cmp(b).unwrap());
        // Ascending id order: request 7 → BASE, request 42 → BASE + 1.
        let base = REQUEST_TID_BASE as f64;
        assert_eq!(
            named,
            vec![
                (base, "queue"),
                (base + 1.0, "compute"),
                (base + 1.0, "queue"),
            ]
        );
        let meta = by_ph(&root, "M");
        let thread_names: Vec<&str> = meta
            .iter()
            .filter(|e| e.get("name").and_then(JsonValue::as_str) == Some("thread_name"))
            .filter_map(|e| e.get("args")?.get("name")?.as_str())
            .collect();
        assert_eq!(thread_names, vec!["request 7", "request 42"]);
    }

    #[test]
    fn request_tracks_coexist_with_worker_and_main_tracks() {
        let body = concat!(
            r#"{"seq":0,"ts":1.0,"name":"kernel.worker.00.chunk","kind":"span_start","value":0,"unit":"s","span":1}"#,
            "\n",
            r#"{"seq":1,"ts":2.0,"name":"kernel.worker.00.chunk","kind":"span_end","value":1e-6,"unit":"s","span":1}"#,
            "\n",
            r#"{"seq":2,"ts":3.0,"name":"serve.request.5.compute","kind":"span_start","value":0,"unit":"s","span":22}"#,
            "\n",
            r#"{"seq":3,"ts":4.0,"name":"serve.request.5.compute","kind":"span_end","value":1e-6,"unit":"s","span":22}"#,
            "\n",
            r#"{"seq":4,"ts":5.0,"name":"train.loss","kind":"gauge","value":0.5,"unit":""}"#,
            "\n",
        );
        let (root, _) = export_chrome(&parse_trace(body));
        let meta = by_ph(&root, "M");
        let thread_names: Vec<&str> = meta
            .iter()
            .filter(|e| e.get("name").and_then(JsonValue::as_str) == Some("thread_name"))
            .filter_map(|e| e.get("args")?.get("name")?.as_str())
            .collect();
        assert_eq!(thread_names, vec!["main", "worker 00", "request 5"]);
    }

    #[test]
    fn root_is_the_object_form_with_display_unit() {
        let (root, _) = export_chrome(&parse_trace(""));
        assert_eq!(
            root.get("displayTimeUnit").and_then(JsonValue::as_str),
            Some("ms")
        );
        assert!(root
            .get("traceEvents")
            .and_then(JsonValue::as_array)
            .is_some());
    }

    fn profile_stage(index: u64, kind: &str, samples: u64, wall_us: f64) -> JsonValue {
        JsonObject::new()
            .field("index", index)
            .field("kind", kind)
            .field("samples", samples)
            .field("wall_total_us", wall_us)
            .build()
    }

    #[test]
    fn folded_export_emits_one_line_per_sampled_stage() {
        let snapshot = JsonObject::new()
            .field("sample_every", 16u64)
            .field(
                "stages",
                vec![
                    profile_stage(0, "conv", 4, 48213.4),
                    profile_stage(1, "leaky_relu", 4, 911.6),
                    profile_stage(2, "linear", 0, 0.0), // never sampled → skipped
                ],
            )
            .build();
        let folded = export_folded(&snapshot).unwrap();
        assert_eq!(
            folded,
            "serve;forward;stage.0.conv 48213\nserve;forward;stage.1.leaky_relu 912\n"
        );
    }

    #[test]
    fn folded_export_unwraps_the_framed_server_reply() {
        let reply = JsonObject::new()
            .field("ok", true)
            .field("version", 1u64)
            .field(
                "profile",
                JsonObject::new()
                    .field("stages", vec![profile_stage(0, "conv", 1, 100.0)])
                    .build(),
            )
            .build();
        assert_eq!(
            export_folded(&reply).unwrap(),
            "serve;forward;stage.0.conv 100\n"
        );
    }

    #[test]
    fn folded_export_rejects_non_profile_and_empty_profiles() {
        let err = export_folded(&JsonObject::new().field("x", 1u64).build()).unwrap_err();
        assert!(err.contains("stages"), "{err}");
        let empty = JsonObject::new()
            .field("stages", vec![profile_stage(0, "conv", 0, 0.0)])
            .build();
        let err = export_folded(&empty).unwrap_err();
        assert!(err.contains("no sampled stages"), "{err}");
    }
}
