//! Reading JSONL telemetry traces back off disk.
//!
//! The write side ([`flight_telemetry::JsonlSink`]) guarantees whole
//! lines for every *completed* emit, but a run killed mid-write can
//! still leave one partial trailing line, and a concatenated or
//! hand-edited trace can contain arbitrary garbage. The reader therefore
//! never aborts on a bad line: it skips it and counts it in
//! [`Trace::malformed`], so every report can say how much of the file it
//! actually understood.

use std::path::Path;

use flight_telemetry::json::JsonValue;
use flight_telemetry::EventKind;

/// One parsed trace line — the read-side mirror of
/// [`flight_telemetry::Event`], with an owned `unit` (the write side
/// uses `&'static str`, which a parser cannot produce).
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Emission order within the producing run (runs restart at 0).
    pub seq: u64,
    /// Monotonic microseconds since the producing process's trace epoch
    /// (the write side's `ts` field). `None` for traces recorded before
    /// the field existed, or when the writer rendered a non-finite
    /// clock as JSON `null` — readers that need a timeline (`flightctl
    /// export`) fall back to synthetic ordering and say so.
    pub ts_us: Option<f64>,
    /// Dotted event name.
    pub name: String,
    /// Measurement kind.
    pub kind: EventKind,
    /// The measurement; `NaN` when the writer rendered a non-finite
    /// value as JSON `null`.
    pub value: f64,
    /// Unit of `value` (`""` for dimensionless).
    pub unit: String,
    /// Span id, for span events.
    pub span: Option<u64>,
    /// `(bucket label, count)` pairs, for histogram events.
    pub buckets: Vec<(String, u64)>,
    /// Free-form payload (manifest JSON, log2 histogram stats).
    pub text: Option<String>,
}

/// A parsed trace plus the bookkeeping readers need to stay honest
/// about crash-truncated or corrupted files.
#[derive(Debug, Default)]
pub struct Trace {
    /// Events in file order.
    pub events: Vec<TraceEvent>,
    /// Non-blank lines that failed to parse as trace events (corrupt
    /// JSON, missing schema fields, unknown kinds — and a crash's
    /// partial trailing line).
    pub malformed: u64,
}

impl Trace {
    /// Total lines the reader looked at (events + malformed).
    pub fn lines_seen(&self) -> u64 {
        self.events.len() as u64 + self.malformed
    }
}

/// Parses one JSONL line into a [`TraceEvent`]; `None` when the line is
/// not a complete event object (the caller counts it as malformed).
pub fn parse_event(line: &str) -> Option<TraceEvent> {
    let v = JsonValue::parse(line).ok()?;
    let seq = v.get("seq").and_then(JsonValue::as_f64)? as u64;
    let ts_us = v.get("ts").and_then(JsonValue::as_f64);
    let name = v.get("name").and_then(JsonValue::as_str)?.to_string();
    let kind = EventKind::parse(v.get("kind").and_then(JsonValue::as_str)?)?;
    // Non-finite values render as JSON null; keep the event, mark the
    // value as NaN so downstream folds can ignore it.
    let value = match v.get("value")? {
        JsonValue::Number(x) => *x,
        JsonValue::Null => f64::NAN,
        _ => return None,
    };
    let unit = v
        .get("unit")
        .and_then(JsonValue::as_str)
        .unwrap_or("")
        .to_string();
    let span = v.get("span").and_then(JsonValue::as_f64).map(|s| s as u64);
    let buckets = match v.get("buckets") {
        Some(JsonValue::Object(fields)) => fields
            .iter()
            .filter_map(|(label, count)| Some((label.clone(), count.as_f64()? as u64)))
            .collect(),
        _ => Vec::new(),
    };
    let text = v
        .get("text")
        .and_then(JsonValue::as_str)
        .map(str::to_string);
    Some(TraceEvent {
        seq,
        ts_us,
        name,
        kind,
        value,
        unit,
        span,
        buckets,
        text,
    })
}

/// Parses a whole trace body. Blank lines are ignored; anything else
/// that fails [`parse_event`] increments [`Trace::malformed`].
pub fn parse_trace(text: &str) -> Trace {
    let mut trace = Trace::default();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        match parse_event(line) {
            Some(event) => trace.events.push(event),
            None => trace.malformed += 1,
        }
    }
    trace
}

/// Reads and parses the trace at `path`.
///
/// # Errors
///
/// Only I/O errors (missing file, permissions) are fatal; parse
/// problems are folded into [`Trace::malformed`].
pub fn read_trace(path: impl AsRef<Path>) -> std::io::Result<Trace> {
    Ok(parse_trace(&std::fs::read_to_string(path)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(seq: u64, name: &str, kind: &str, value: f64) -> String {
        format!(r#"{{"seq":{seq},"name":"{name}","kind":"{kind}","value":{value},"unit":"s"}}"#)
    }

    #[test]
    fn round_trips_the_writer_schema() {
        let wire = concat!(
            r#"{"seq":3,"ts":1250.5,"name":"train.k_hist","kind":"histogram","value":4,"#,
            r#""unit":"count","buckets":{"1":3,">2":1},"text":"note"}"#,
        );
        let e = parse_event(wire).expect("parses");
        assert_eq!(e.seq, 3);
        assert_eq!(e.ts_us, Some(1250.5));
        assert_eq!(e.name, "train.k_hist");
        assert_eq!(e.kind, EventKind::Histogram);
        assert_eq!(e.value, 4.0);
        assert_eq!(e.unit, "count");
        assert_eq!(e.span, None);
        assert_eq!(e.buckets, vec![("1".to_string(), 3), (">2".to_string(), 1)]);
        assert_eq!(e.text.as_deref(), Some("note"));
    }

    #[test]
    fn timestamps_are_optional_for_old_traces() {
        // Pre-timestamp traces (and hand-written fixtures) have no
        // `ts` field; a null `ts` (non-finite clock) reads the same.
        let e = parse_event(&line(0, "g", "gauge", 1.0)).expect("parses");
        assert_eq!(e.ts_us, None);
        let e = parse_event(r#"{"seq":0,"ts":null,"name":"g","kind":"gauge","value":1,"unit":""}"#)
            .expect("kept");
        assert_eq!(e.ts_us, None);
    }

    #[test]
    fn null_value_becomes_nan_not_a_parse_failure() {
        let e = parse_event(r#"{"seq":0,"name":"g","kind":"gauge","value":null,"unit":""}"#)
            .expect("kept");
        assert!(e.value.is_nan());
    }

    #[test]
    fn missing_fields_and_unknown_kinds_are_malformed() {
        assert!(parse_event(r#"{"name":"g","kind":"gauge","value":1,"unit":""}"#).is_none());
        assert!(parse_event(r#"{"seq":0,"kind":"gauge","value":1}"#).is_none());
        assert!(parse_event(r#"{"seq":0,"name":"g","kind":"vibe","value":1}"#).is_none());
        assert!(parse_event(r#"{"seq":0,"name":"g","kind":"gauge","value":"high"}"#).is_none());
        assert!(parse_event("not json at all").is_none());
        // The retired `snapshot` kind is just another unknown kind: an
        // old aggregated line is skipped and counted, never folded.
        let body = concat!(
            r#"{"seq":0,"name":"kernel.shifts","kind":"snapshot","value":900,"unit":"op","text":"{\"agg\":\"counter\",\"count\":9,\"sum\":900}"}"#,
            "\n",
            r#"{"seq":1,"name":"kernel.shifts","kind":"counter","value":100,"unit":"op"}"#,
            "\n",
        );
        let trace = parse_trace(body);
        assert_eq!(trace.malformed, 1);
        assert_eq!(trace.events.len(), 1);
        assert_eq!(trace.events[0].kind, EventKind::Counter);
    }

    #[test]
    fn truncated_tail_is_skipped_and_counted() {
        let good = line(0, "a", "gauge", 1.0);
        let partial = &good[..good.len() / 2]; // a crash's torn final write
        let body = format!("{}\n{}\n\n{partial}", good, line(1, "b", "counter", 2.0));
        let trace = parse_trace(&body);
        assert_eq!(trace.events.len(), 2, "whole lines survive");
        assert_eq!(trace.malformed, 1, "the torn line is counted, not fatal");
        assert_eq!(trace.lines_seen(), 3);
        assert_eq!(trace.events[1].name, "b");
    }

    #[test]
    fn read_trace_propagates_io_errors_only() {
        assert!(read_trace("/no/such/flight-obs-trace.jsonl").is_err());
    }
}
