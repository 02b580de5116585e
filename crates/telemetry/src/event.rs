//! The telemetry event record.

use crate::json::{JsonObject, JsonValue};

/// What an [`Event`] measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A scoped timer opened; `value` is 0, `span` is the timer's id.
    SpanStart,
    /// A scoped timer closed; `value` is the elapsed wall-clock seconds,
    /// `span` is the timer's id.
    SpanEnd,
    /// A monotonic count increment; `value` is the delta.
    Counter,
    /// A point-in-time measurement; `value` is the reading.
    Gauge,
    /// A fixed-bucket distribution; `buckets` holds `(label, count)`
    /// pairs, `value` is the total count.
    Histogram,
    /// A mergeable log2-bucketed latency distribution
    /// ([`Log2Histogram`](crate::Log2Histogram)): `buckets` holds
    /// `(b<index>, count)` pairs (plus `lt`/`gt` sentinels), `value` is
    /// the total count, and `text` carries a JSON object with
    /// `min`/`max`/`p50`/`p99`/`p999` in the recorded unit (seconds for
    /// the engine's latency shards).
    Log2Hist,
    /// A run manifest annotation; `text` carries the manifest JSON.
    Manifest,
}

impl EventKind {
    /// The wire name used by the JSONL sink.
    pub fn as_str(&self) -> &'static str {
        match self {
            EventKind::SpanStart => "span_start",
            EventKind::SpanEnd => "span_end",
            EventKind::Counter => "counter",
            EventKind::Gauge => "gauge",
            EventKind::Histogram => "histogram",
            EventKind::Log2Hist => "log2hist",
            EventKind::Manifest => "manifest",
        }
    }

    /// The inverse of [`EventKind::as_str`]; `None` for unknown wire
    /// names. Trace readers use this to map JSONL lines back to kinds.
    pub fn parse(s: &str) -> Option<EventKind> {
        Some(match s {
            "span_start" => EventKind::SpanStart,
            "span_end" => EventKind::SpanEnd,
            "counter" => EventKind::Counter,
            "gauge" => EventKind::Gauge,
            "histogram" => EventKind::Histogram,
            "log2hist" => EventKind::Log2Hist,
            "manifest" => EventKind::Manifest,
            _ => return None,
        })
    }
}

impl std::fmt::Display for EventKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One telemetry record.
///
/// The schema is fixed: `seq` (global emission order), `ts` (monotonic
/// microseconds since the process trace epoch), `name` (dotted event
/// name, e.g. `train.epoch.loss`), `kind`, `value`, `unit` (free-form
/// short string, `""` for dimensionless), optional `span` id, optional
/// histogram `buckets`, optional `text` payload (manifests).
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Global monotonic sequence number (emission order across sinks).
    pub seq: u64,
    /// Microseconds since the process trace epoch (the first telemetry
    /// use in this process; see
    /// [`trace_now_us`](crate::trace_now_us)). Monotonic within a
    /// process, so timeline exporters can place events on a shared
    /// clock; meaningless across processes.
    pub ts_us: f64,
    /// Dotted event name.
    pub name: String,
    /// Measurement kind.
    pub kind: EventKind,
    /// The measurement (see [`EventKind`] for per-kind semantics).
    pub value: f64,
    /// Unit of `value` (`"s"`, `"op"`, `""`, …).
    pub unit: &'static str,
    /// Span id, for span events.
    pub span: Option<u64>,
    /// `(bucket label, count)` pairs, for histogram events.
    pub buckets: Vec<(String, u64)>,
    /// Free-form payload, for manifest events.
    pub text: Option<String>,
}

impl Event {
    /// The event as a JSON object (the JSONL sink's line format).
    /// Optional fields (`span`, `buckets`, `text`) are omitted when
    /// absent.
    pub fn to_json(&self) -> JsonValue {
        let mut obj = JsonObject::new()
            .field("seq", self.seq)
            .field("ts", self.ts_us)
            .field("name", self.name.as_str())
            .field("kind", self.kind.as_str())
            .field("value", self.value)
            .field("unit", self.unit);
        if let Some(span) = self.span {
            obj = obj.field("span", span);
        }
        if !self.buckets.is_empty() {
            let fields = self
                .buckets
                .iter()
                .map(|(label, count)| (label.clone(), JsonValue::from(*count)))
                .collect();
            obj = obj.field("buckets", JsonValue::Object(fields));
        }
        if let Some(text) = &self.text {
            obj = obj.field("text", text.as_str());
        }
        obj.build()
    }
}

impl std::fmt::Display for Event {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "#{} {:<10} {} = {}{}",
            self.seq, self.kind, self.name, self.value, self.unit
        )?;
        if let Some(span) = self.span {
            write!(f, " (span {span})")?;
        }
        if !self.buckets.is_empty() {
            write!(f, " [")?;
            for (i, (label, count)) in self.buckets.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{label}: {count}")?;
            }
            write!(f, "]")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::JsonValue;

    fn sample() -> Event {
        Event {
            seq: 7,
            ts_us: 1250.5,
            name: "train.k_hist".to_string(),
            kind: EventKind::Histogram,
            value: 4.0,
            unit: "count",
            span: Some(2),
            buckets: vec![("1".to_string(), 3), ("2".to_string(), 1)],
            text: None,
        }
    }

    #[test]
    fn json_includes_schema_fields() {
        let v = sample().to_json();
        assert_eq!(v.get("seq").and_then(JsonValue::as_f64), Some(7.0));
        assert_eq!(v.get("ts").and_then(JsonValue::as_f64), Some(1250.5));
        assert_eq!(
            v.get("name").and_then(JsonValue::as_str),
            Some("train.k_hist")
        );
        assert_eq!(v.get("kind").and_then(JsonValue::as_str), Some("histogram"));
        assert_eq!(v.get("value").and_then(JsonValue::as_f64), Some(4.0));
        assert_eq!(v.get("unit").and_then(JsonValue::as_str), Some("count"));
        assert_eq!(v.get("span").and_then(JsonValue::as_f64), Some(2.0));
        let buckets = v.get("buckets").expect("buckets present");
        assert_eq!(buckets.get("1").and_then(JsonValue::as_f64), Some(3.0));
    }

    #[test]
    fn json_omits_absent_optionals() {
        let mut e = sample();
        e.span = None;
        e.buckets.clear();
        let v = e.to_json();
        assert!(v.get("span").is_none());
        assert!(v.get("buckets").is_none());
        assert!(v.get("text").is_none());
    }

    #[test]
    fn kind_wire_names_round_trip() {
        for kind in [
            EventKind::SpanStart,
            EventKind::SpanEnd,
            EventKind::Counter,
            EventKind::Gauge,
            EventKind::Histogram,
            EventKind::Log2Hist,
            EventKind::Manifest,
        ] {
            assert_eq!(EventKind::parse(kind.as_str()), Some(kind));
        }
        assert_eq!(EventKind::parse("spam"), None);
        assert_eq!(EventKind::parse(""), None);
    }

    #[test]
    fn display_is_readable() {
        let text = sample().to_string();
        assert!(text.contains("train.k_hist"));
        assert!(text.contains("histogram"));
        assert!(text.contains("1: 3"));
    }
}
