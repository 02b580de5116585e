//! The `Telemetry` handle and scoped spans.

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use crate::event::{Event, EventKind};
use crate::hist::FixedHistogram;
use crate::jsonl::JsonlSink;
use crate::log2hist::Log2Histogram;
use crate::sink::{NullSink, PrefixSink, StderrSink, TelemetrySink};

/// Global emission order across every handle in the process.
static NEXT_SEQ: AtomicU64 = AtomicU64::new(0);
/// Span ids; 0 is reserved for disabled spans.
static NEXT_SPAN: AtomicU64 = AtomicU64::new(1);

/// The process trace epoch: the instant of the first timestamp request.
static TRACE_EPOCH: OnceLock<Instant> = OnceLock::new();

/// Monotonic microseconds since the process trace epoch.
///
/// The epoch is pinned lazily by the first call (every later reading is
/// relative to it), so traces start near `ts = 0` regardless of process
/// start-up time. Every emitted [`Event`] carries this clock in its
/// `ts_us` field, which is what lets `flightctl export` place spans and
/// counters from many workers on one shared timeline. The clock is
/// monotonic within a process and meaningless across processes.
pub fn trace_now_us() -> f64 {
    let epoch = *TRACE_EPOCH.get_or_init(Instant::now);
    epoch.elapsed().as_secs_f64() * 1e6
}

/// A cheap, clonable handle to a [`TelemetrySink`].
///
/// Configuration structs store one of these (defaulting to the null
/// sink) and instrumentation calls the emitting methods; each method
/// checks [`Telemetry::enabled`] first and returns without allocating
/// when the sink is disabled.
#[derive(Clone)]
pub struct Telemetry {
    sink: Arc<dyn TelemetrySink>,
}

impl Default for Telemetry {
    fn default() -> Self {
        Telemetry::null()
    }
}

// `Arc<dyn TelemetrySink>` has no useful Debug; report only liveness so
// containing structs can keep `#[derive(Debug)]`.
impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Telemetry({})",
            if self.enabled() { "enabled" } else { "null" }
        )
    }
}

impl Telemetry {
    /// The environment variable [`Telemetry::from_env`] reads.
    pub const ENV_VAR: &'static str = "FLIGHT_TELEMETRY";

    /// Wraps an explicit sink.
    pub fn new(sink: Arc<dyn TelemetrySink>) -> Self {
        Telemetry { sink }
    }

    /// The disabled default.
    pub fn null() -> Self {
        static NULL: OnceLock<Arc<NullSink>> = OnceLock::new();
        Telemetry {
            sink: NULL.get_or_init(|| Arc::new(NullSink)).clone(),
        }
    }

    /// Human-readable events on stderr.
    pub fn stderr() -> Self {
        Telemetry::new(Arc::new(StderrSink))
    }

    /// JSON Lines events appended to `path`.
    ///
    /// # Errors
    ///
    /// Propagates the file-open error (see [`JsonlSink::append`]).
    pub fn jsonl(path: impl AsRef<Path>) -> std::io::Result<Self> {
        Ok(Telemetry::new(Arc::new(JsonlSink::append(path)?)))
    }

    /// The sink selected by the `FLIGHT_TELEMETRY` environment variable
    /// (see the [crate docs](crate) for the contract). Never fails: bad
    /// values warn on stderr and fall back to the null sink.
    pub fn from_env() -> Self {
        match std::env::var(Telemetry::ENV_VAR) {
            Ok(spec) => Telemetry::from_spec(&spec),
            Err(_) => Telemetry::null(),
        }
    }

    /// Parses one `FLIGHT_TELEMETRY` value (the testable core of
    /// [`Telemetry::from_env`]).
    pub fn from_spec(spec: &str) -> Self {
        match spec.trim() {
            "" | "null" | "none" | "off" => Telemetry::null(),
            "stderr" => Telemetry::stderr(),
            other => match other.strip_prefix("jsonl:") {
                Some(path) if !path.is_empty() => match Telemetry::jsonl(path) {
                    Ok(t) => t,
                    Err(e) => {
                        eprintln!(
                            "[flight-telemetry] cannot open {path:?} for appending ({e}); \
                             telemetry disabled"
                        );
                        Telemetry::null()
                    }
                },
                _ => {
                    eprintln!(
                        "[flight-telemetry] unknown {}={other:?} (expected \
                         stderr | jsonl:<path> | null); telemetry disabled",
                        Telemetry::ENV_VAR
                    );
                    Telemetry::null()
                }
            },
        }
    }

    /// `true` when events reach a live sink. Hot paths branch on this
    /// once and skip instrumentation entirely when it is `false`.
    pub fn enabled(&self) -> bool {
        self.sink.enabled()
    }

    /// A derived handle that prepends `prefix` to every event name
    /// before forwarding to the same sink (see [`PrefixSink`]).
    ///
    /// The integer engine uses this for per-worker span attribution:
    /// worker `w` gets `with_prefix("kernel.worker.<w>.")` and emits
    /// plain names like `chunk`. Disabled handles (and empty prefixes)
    /// return a plain clone, so the null-sink fast path stays one
    /// virtual call with no wrapper allocation.
    pub fn with_prefix(&self, prefix: &str) -> Telemetry {
        if prefix.is_empty() || !self.enabled() {
            return self.clone();
        }
        Telemetry::new(Arc::new(PrefixSink::new(prefix, self.sink.clone())))
    }

    #[allow(clippy::too_many_arguments)] // mirrors the Event fields one-to-one
    fn emit(
        &self,
        name: &str,
        kind: EventKind,
        value: f64,
        unit: &'static str,
        span: Option<u64>,
        buckets: Vec<(String, u64)>,
        text: Option<String>,
    ) {
        self.sink.emit(Event {
            seq: NEXT_SEQ.fetch_add(1, Ordering::Relaxed),
            ts_us: trace_now_us(),
            name: name.to_string(),
            kind,
            value,
            unit,
            span,
            buckets,
            text,
        });
    }

    /// Emits a counter increment.
    pub fn counter(&self, name: &str, delta: u64, unit: &'static str) {
        if !self.enabled() {
            return;
        }
        self.emit(
            name,
            EventKind::Counter,
            delta as f64,
            unit,
            None,
            Vec::new(),
            None,
        );
    }

    /// Emits a point-in-time reading.
    pub fn gauge(&self, name: &str, value: f64, unit: &'static str) {
        if !self.enabled() {
            return;
        }
        self.emit(name, EventKind::Gauge, value, unit, None, Vec::new(), None);
    }

    /// Emits a histogram snapshot; `value` carries the total count.
    pub fn histogram(&self, name: &str, hist: &FixedHistogram) {
        if !self.enabled() {
            return;
        }
        let buckets = hist
            .buckets()
            .map(|(label, count)| (label.to_string(), count))
            .collect();
        self.emit(
            name,
            EventKind::Histogram,
            hist.total() as f64,
            "count",
            None,
            buckets,
            None,
        );
    }

    /// Emits a log2-bucketed latency histogram; `value` carries the
    /// total count and `text` a JSON stats summary
    /// (min/max/p50/p99/p999). Empty histograms emit nothing — a worker
    /// that processed no images has no distribution to report.
    pub fn log2_histogram(&self, name: &str, hist: &Log2Histogram) {
        if !self.enabled() || hist.is_empty() {
            return;
        }
        self.emit(
            name,
            EventKind::Log2Hist,
            hist.total() as f64,
            "count",
            None,
            hist.bucket_pairs(),
            Some(hist.stats_json()),
        );
    }

    /// Emits a manifest annotation whose `text` carries a JSON payload.
    pub fn manifest(&self, name: &str, text: &str) {
        if !self.enabled() {
            return;
        }
        self.emit(
            name,
            EventKind::Manifest,
            1.0,
            "",
            None,
            Vec::new(),
            Some(text.to_string()),
        );
    }

    /// Opens a scoped wall-clock timer: `span_start` now, `span_end`
    /// with the elapsed seconds when the returned guard drops. Disabled
    /// handles return an inert guard with id 0.
    pub fn span(&self, name: &str) -> Span {
        if !self.enabled() {
            return Span {
                telemetry: None,
                name: String::new(),
                id: 0,
                start: Instant::now(),
            };
        }
        let id = NEXT_SPAN.fetch_add(1, Ordering::Relaxed);
        self.emit(
            name,
            EventKind::SpanStart,
            0.0,
            "s",
            Some(id),
            Vec::new(),
            None,
        );
        Span {
            telemetry: Some(self.clone()),
            name: name.to_string(),
            id,
            start: Instant::now(),
        }
    }
}

/// RAII guard of one [`Telemetry::span`]; emits `span_end` on drop.
#[derive(Debug)]
pub struct Span {
    telemetry: Option<Telemetry>,
    name: String,
    id: u64,
    start: Instant,
}

impl Span {
    /// The span id (0 for inert spans from disabled handles).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Seconds since the span opened.
    pub fn elapsed_secs(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(telemetry) = &self.telemetry {
            telemetry.emit(
                &self.name,
                EventKind::SpanEnd,
                self.start.elapsed().as_secs_f64(),
                "s",
                Some(self.id),
                Vec::new(),
                None,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::CollectingSink;

    #[test]
    fn null_handle_emits_nothing_and_spans_are_inert() {
        let t = Telemetry::null();
        assert!(!t.enabled());
        t.counter("c", 1, "");
        t.gauge("g", 2.0, "");
        let span = t.span("s");
        assert_eq!(span.id(), 0);
        drop(span);
        // Nothing to assert against a null sink beyond "did not panic";
        // the collecting-sink test below checks the emitting path.
    }

    #[test]
    fn span_brackets_inner_events_with_increasing_seq() {
        let sink = Arc::new(CollectingSink::new());
        let t = Telemetry::new(sink.clone());
        {
            let span = t.span("outer");
            assert!(span.id() > 0);
            t.gauge("inner", 1.0, "");
        }
        let events = sink.events();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].kind, EventKind::SpanStart);
        assert_eq!(events[1].kind, EventKind::Gauge);
        assert_eq!(events[2].kind, EventKind::SpanEnd);
        assert_eq!(events[0].span, events[2].span);
        assert!(events[2].value >= 0.0, "elapsed seconds are non-negative");
        assert!(
            events.windows(2).all(|w| w[0].seq < w[1].seq),
            "seq must increase monotonically"
        );
    }

    #[test]
    fn events_carry_monotonic_timestamps() {
        let sink = Arc::new(CollectingSink::new());
        let t = Telemetry::new(sink.clone());
        {
            let _span = t.span("outer");
            t.gauge("inner", 1.0, "");
        }
        let events = sink.events();
        assert!(events.iter().all(|e| e.ts_us >= 0.0 && e.ts_us.is_finite()));
        assert!(
            events.windows(2).all(|w| w[0].ts_us <= w[1].ts_us),
            "timestamps never run backwards within a thread"
        );
        // The span_end timestamp is consistent with the recorded
        // duration: end ts >= start ts + elapsed µs (allowing rounding).
        let elapsed_us = events[2].value * 1e6;
        assert!(events[2].ts_us - events[0].ts_us >= elapsed_us - 1.0);
    }

    #[test]
    fn consecutive_spans_get_increasing_ids() {
        let sink = Arc::new(CollectingSink::new());
        let t = Telemetry::new(sink.clone());
        let first = t.span("a").id();
        let second = t.span("b").id();
        assert!(second > first);
    }

    #[test]
    fn prefixed_handle_attributes_spans_to_workers() {
        let sink = Arc::new(CollectingSink::new());
        let t = Telemetry::new(sink.clone());
        let worker = t.with_prefix("kernel.worker.00.");
        {
            let _span = worker.span("chunk");
            worker.counter("chunk.shifts", 7, "op");
        }
        t.gauge("kernel.forward.workers", 2.0, "worker");
        let names: Vec<_> = sink.events().iter().map(|e| e.name.clone()).collect();
        assert_eq!(
            names,
            vec![
                "kernel.worker.00.chunk",
                "kernel.worker.00.chunk.shifts",
                "kernel.worker.00.chunk",
                "kernel.forward.workers",
            ]
        );
    }

    #[test]
    fn prefixing_a_disabled_handle_stays_null() {
        let t = Telemetry::null().with_prefix("kernel.worker.00.");
        assert!(!t.enabled());
        // Empty prefixes skip the wrapper entirely.
        let sink = Arc::new(CollectingSink::new());
        let live = Telemetry::new(sink.clone()).with_prefix("");
        live.counter("bare", 1, "");
        assert_eq!(sink.events()[0].name, "bare");
    }

    #[test]
    fn histogram_snapshot_carries_buckets() {
        let sink = Arc::new(CollectingSink::new());
        let t = Telemetry::new(sink.clone());
        let mut h = FixedHistogram::integers(2);
        h.record_usize(1);
        h.record_usize(2);
        t.histogram("k_hist", &h);
        let events = sink.events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].kind, EventKind::Histogram);
        assert_eq!(events[0].value, 2.0);
        assert_eq!(events[0].buckets.len(), 4);
    }

    #[test]
    fn spec_parsing_selects_sinks() {
        assert!(!Telemetry::from_spec("").enabled());
        assert!(!Telemetry::from_spec("null").enabled());
        assert!(!Telemetry::from_spec("off").enabled());
        assert!(Telemetry::from_spec("stderr").enabled());
        // Unknown values fall back to disabled instead of failing.
        assert!(!Telemetry::from_spec("sqlite:events.db").enabled());
        assert!(!Telemetry::from_spec("jsonl:").enabled());
        // The retired aggregating wrapper is just another unknown spec:
        // it warns and disables instead of writing a folded trace.
        let path = std::env::temp_dir().join(format!(
            "flight-telemetry-retired-spec-{}.jsonl",
            std::process::id()
        ));
        assert!(!Telemetry::from_spec(&format!("agg:jsonl:{}", path.display())).enabled());
        assert!(!path.exists(), "no trace file is opened");
    }

    #[test]
    fn jsonl_spec_opens_a_live_sink() {
        let path = std::env::temp_dir().join(format!(
            "flight-telemetry-spec-{}.jsonl",
            std::process::id()
        ));
        let t = Telemetry::from_spec(&format!("jsonl:{}", path.display()));
        assert!(t.enabled());
        t.counter("hits", 1, "");
        drop(t);
        let text = std::fs::read_to_string(&path).expect("events written");
        assert!(text.contains("\"hits\""));
        std::fs::remove_file(&path).ok();
    }
}
