//! In-process stream aggregation: the write-side answer to unbounded
//! JSONL traces.
//!
//! A multi-epoch Algorithm-1 training run emits one gauge per threshold
//! per epoch and one span pair per traced stage per forward — O(events)
//! lines on disk for information that is almost always consumed as a
//! summary. [`AggregatingSink`] wraps any inner sink and folds
//! counters, gauges, and span timings into per-name streaming summaries
//! (count / sum / min / max / last plus a magnitude-decade histogram),
//! emitting them as periodic [`EventKind::Snapshot`] events. Trace size
//! becomes O(metric names), not O(events), while `flightctl summarize`
//! still reconstructs totals, rates, and coarse quantiles.
//!
//! Folding rules:
//!
//! * `counter` — deltas are summed; the snapshot headline `value` is the
//!   running sum.
//! * `gauge` — readings are folded; the headline is the last reading.
//! * `span_end` — elapsed seconds are folded; the headline is the total
//!   seconds spent under that span name. `span_start` events are
//!   dropped (the end event carries the duration).
//! * `histogram` — already an aggregate: the latest histogram per name
//!   is kept and re-emitted verbatim with each snapshot flush.
//! * `log2hist` — each event is one shard of a distribution (a
//!   producer may emit a fresh per-worker histogram per run), so
//!   shards *merge* per name — bucket counts sum, min/max fold — and the
//!   flush emits the whole-run distribution, not the latest shard.
//! * `manifest` and nested `snapshot` events pass through immediately.
//!
//! A snapshot flush fires after every [`AggregatingSink::new`]
//! `snapshot_every` folded events, on [`AggregatingSink::flush`], and on
//! drop — so a run that ends cleanly always lands its final summary.

use std::sync::{Arc, Mutex};

use crate::event::{Event, EventKind};
use crate::handle::{next_seq, trace_now_us};
use crate::json::{JsonObject, JsonValue};
use crate::log2hist::Log2Histogram;
use crate::sink::TelemetrySink;

/// Snapshot cadence used by the `FLIGHT_TELEMETRY=agg:<spec>` selector.
pub const DEFAULT_SNAPSHOT_EVERY: u64 = 4096;

/// Magnitude-decade bucket edges for the streaming histograms: one
/// bucket for `v <= 0`, one per decade `(10^{i-1}, 10^i]` for
/// `i ∈ [-9, 9]`, and an overflow bucket. Chosen so span seconds
/// (~1e-6..1e3), op counts (~1e0..1e12 clipped to 1e9), and unit-scale
/// gauges all land on a few informative buckets.
const DECADE_LO: i32 = -9;
const DECADE_HI: i32 = 9;
const BUCKETS: usize = (DECADE_HI - DECADE_LO + 1) as usize + 2;

fn bucket_index(v: f64) -> usize {
    if v <= 0.0 || v.is_nan() {
        return 0;
    }
    let decade = v.log10().ceil() as i32;
    if decade < DECADE_LO {
        1
    } else if decade > DECADE_HI {
        BUCKETS - 1
    } else {
        (decade - DECADE_LO) as usize + 1
    }
}

fn bucket_label(idx: usize) -> String {
    if idx == 0 {
        "<=0".to_string()
    } else if idx == BUCKETS - 1 {
        format!(">1e{DECADE_HI}")
    } else {
        format!("<=1e{}", idx as i32 - 1 + DECADE_LO)
    }
}

/// Rebuilds the distribution shard a `log2hist` event carries: bucket
/// counts from `buckets`, min/max from the stats text. `None` when the
/// labels or stats do not parse (a foreign event dressed as a log2hist).
fn log2_shard(event: &Event) -> Option<Log2Histogram> {
    let stats = JsonValue::parse(event.text.as_deref()?).ok()?;
    let min = stats.get("min").and_then(JsonValue::as_f64)?;
    let max = stats.get("max").and_then(JsonValue::as_f64)?;
    Log2Histogram::from_bucket_pairs(&event.buckets, min, max)
}

/// One metric's streaming summary.
#[derive(Debug, Clone)]
struct MetricAgg {
    kind: EventKind,
    unit: &'static str,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
    last: f64,
    buckets: [u64; BUCKETS],
}

impl MetricAgg {
    fn new(kind: EventKind, unit: &'static str) -> Self {
        MetricAgg {
            kind,
            unit,
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            last: 0.0,
            buckets: [0; BUCKETS],
        }
    }

    fn fold(&mut self, v: f64) {
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        self.last = v;
        self.buckets[bucket_index(v)] += 1;
    }

    /// The snapshot headline: what a reader most likely wants as "the"
    /// value of this metric.
    fn headline(&self) -> f64 {
        match self.kind {
            EventKind::Gauge => self.last,
            _ => self.sum, // counter sum; span_end total seconds
        }
    }

    fn agg_label(&self) -> &'static str {
        match self.kind {
            EventKind::Counter => "counter",
            EventKind::SpanEnd => "span",
            _ => "gauge",
        }
    }
}

#[derive(Debug, Default)]
struct AggState {
    /// Metric summaries in first-seen order (names are bounded, so the
    /// linear index map stays cheap and keeps snapshots deterministic).
    names: Vec<String>,
    metrics: Vec<MetricAgg>,
    /// Latest full histogram per name, re-emitted on flush.
    histograms: Vec<(String, Event)>,
    /// Merged log2 histogram per name: each incoming event is one shard
    /// of the same distribution, so counts sum instead of replacing.
    log2s: Vec<(String, &'static str, Log2Histogram)>,
    folded_since_flush: u64,
}

impl AggState {
    fn metric_mut(&mut self, name: &str, kind: EventKind, unit: &'static str) -> &mut MetricAgg {
        match self.names.iter().position(|n| n == name) {
            Some(i) => &mut self.metrics[i],
            None => {
                self.names.push(name.to_string());
                self.metrics.push(MetricAgg::new(kind, unit));
                self.metrics.last_mut().expect("just pushed")
            }
        }
    }
}

/// Wraps any sink, folding the event stream into periodic snapshots.
///
/// # Example
///
/// ```
/// use flight_telemetry::{AggregatingSink, CollectingSink, EventKind, Telemetry};
/// use std::sync::Arc;
///
/// let inner = Arc::new(CollectingSink::new());
/// let telemetry = Telemetry::new(Arc::new(AggregatingSink::new(
///     inner.clone(),
///     u64::MAX, // flush manually / on drop only
/// )));
/// for epoch in 0..1000 {
///     telemetry.gauge("train.epoch.loss", 1.0 / (epoch + 1) as f64, "nats");
/// }
/// drop(telemetry); // final flush
/// let events = inner.events();
/// assert_eq!(events.len(), 1, "1000 gauges fold into one snapshot");
/// assert_eq!(events[0].kind, EventKind::Snapshot);
/// assert_eq!(events[0].name, "train.epoch.loss");
/// ```
pub struct AggregatingSink {
    inner: Arc<dyn TelemetrySink>,
    snapshot_every: u64,
    state: Mutex<AggState>,
}

impl std::fmt::Debug for AggregatingSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "AggregatingSink(every {})", self.snapshot_every)
    }
}

impl AggregatingSink {
    /// Wraps `inner`; a snapshot flush fires after every
    /// `snapshot_every` folded events (and on [`flush`](Self::flush) /
    /// drop). `snapshot_every == 0` snapshots after every event, which
    /// is only useful in tests.
    pub fn new(inner: Arc<dyn TelemetrySink>, snapshot_every: u64) -> Self {
        AggregatingSink {
            inner,
            snapshot_every: snapshot_every.max(1),
            state: Mutex::new(AggState::default()),
        }
    }

    /// Emits one snapshot event per folded metric name (plus the latest
    /// histogram per histogram name) to the inner sink, and resets the
    /// flush counter. Summaries keep accumulating across flushes — each
    /// snapshot covers the run so far, so the *last* snapshot per name
    /// is the whole-run summary.
    pub fn flush(&self) {
        let mut state = self
            .state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        self.flush_locked(&mut state);
    }

    fn flush_locked(&self, state: &mut AggState) {
        state.folded_since_flush = 0;
        for (name, agg) in state.names.iter().zip(state.metrics.iter()) {
            let buckets: Vec<(String, u64)> = agg
                .buckets
                .iter()
                .enumerate()
                .filter(|(_, &n)| n > 0)
                .map(|(i, &n)| (bucket_label(i), n))
                .collect();
            let text = JsonObject::new()
                .field("agg", agg.agg_label())
                .field("count", agg.count)
                .field("sum", agg.sum)
                .field("min", agg.min)
                .field("max", agg.max)
                .field("last", agg.last)
                .build()
                .render();
            self.inner.emit(Event {
                seq: next_seq(),
                ts_us: trace_now_us(),
                name: name.clone(),
                kind: EventKind::Snapshot,
                value: agg.headline(),
                unit: agg.unit,
                span: None,
                buckets,
                text: Some(text),
            });
        }
        for (_, event) in &state.histograms {
            let mut event = event.clone();
            event.seq = next_seq();
            event.ts_us = trace_now_us();
            self.inner.emit(event);
        }
        for (name, unit, hist) in &state.log2s {
            self.inner.emit(Event {
                seq: next_seq(),
                ts_us: trace_now_us(),
                name: name.clone(),
                kind: EventKind::Log2Hist,
                value: hist.total() as f64,
                unit,
                span: None,
                buckets: hist.bucket_pairs(),
                text: Some(hist.stats_json()),
            });
        }
    }
}

impl TelemetrySink for AggregatingSink {
    fn enabled(&self) -> bool {
        self.inner.enabled()
    }

    fn emit(&self, event: Event) {
        match event.kind {
            // The end event carries the duration; starts carry nothing
            // a summary needs.
            EventKind::SpanStart => return,
            EventKind::Manifest | EventKind::Snapshot => {
                self.inner.emit(event);
                return;
            }
            _ => {}
        }
        let mut state = self
            .state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        match event.kind {
            EventKind::Counter | EventKind::Gauge | EventKind::SpanEnd => {
                state
                    .metric_mut(&event.name, event.kind, event.unit)
                    .fold(event.value);
            }
            EventKind::Histogram => {
                match state.histograms.iter_mut().find(|(n, _)| *n == event.name) {
                    Some((_, slot)) => *slot = event,
                    None => {
                        let name = event.name.clone();
                        state.histograms.push((name, event));
                    }
                }
            }
            EventKind::Log2Hist => {
                let Some(shard) = log2_shard(&event) else {
                    // A shard we cannot reconstruct (foreign labels)
                    // passes through verbatim rather than vanishing.
                    drop(state);
                    self.inner.emit(event);
                    return;
                };
                match state.log2s.iter_mut().find(|(n, _, _)| *n == event.name) {
                    Some((_, _, merged)) => merged.merge(&shard),
                    None => state.log2s.push((event.name, event.unit, shard)),
                }
            }
            _ => unreachable!("handled above"),
        }
        state.folded_since_flush += 1;
        if state.folded_since_flush >= self.snapshot_every {
            self.flush_locked(&mut state);
        }
    }
}

impl Drop for AggregatingSink {
    fn drop(&mut self) {
        // Final summary for clean shutdowns. A killed run loses at most
        // the events since the last periodic flush — the same contract
        // as any buffered writer.
        self.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hist::FixedHistogram;
    use crate::sink::CollectingSink;
    use crate::Telemetry;

    fn harness(snapshot_every: u64) -> (Telemetry, Arc<CollectingSink>, Arc<AggregatingSink>) {
        let inner = Arc::new(CollectingSink::new());
        let agg = Arc::new(AggregatingSink::new(inner.clone(), snapshot_every));
        (Telemetry::new(agg.clone()), inner, agg)
    }

    #[test]
    fn trace_size_is_o_names_not_o_events() {
        let (t, inner, agg) = harness(u64::MAX);
        for i in 0..10_000u64 {
            let _span = t.span("kernel.forward");
            t.gauge("train.epoch.loss", 1.0 / (i + 1) as f64, "nats");
            t.counter("kernel.shifts", 17, "op");
        }
        assert!(inner.is_empty(), "nothing reaches the sink before a flush");
        agg.flush();
        // 3 metric names → exactly 3 snapshot events for 40k raw events.
        let events = inner.events();
        assert_eq!(events.len(), 3);
        assert!(events.iter().all(|e| e.kind == EventKind::Snapshot));
        let names: Vec<&str> = events.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(
            names,
            ["train.epoch.loss", "kernel.shifts", "kernel.forward"],
            "first-seen order (the span folds at guard drop, after the gauge and counter)"
        );
    }

    #[test]
    fn counter_snapshot_sums_and_gauge_snapshot_keeps_last() {
        let (t, inner, agg) = harness(u64::MAX);
        t.counter("hits", 2, "op");
        t.counter("hits", 3, "op");
        t.gauge("loss", 0.5, "nats");
        t.gauge("loss", 0.25, "nats");
        agg.flush();
        let events = inner.events();
        let hits = events.iter().find(|e| e.name == "hits").expect("hits");
        assert_eq!(hits.value, 5.0, "counter headline is the sum");
        assert_eq!(hits.unit, "op");
        let loss = events.iter().find(|e| e.name == "loss").expect("loss");
        assert_eq!(loss.value, 0.25, "gauge headline is the last reading");
        let text = loss.text.as_ref().expect("stats payload");
        let v = crate::json::JsonValue::parse(text).expect("stats parse");
        assert_eq!(v.get("count").and_then(|x| x.as_f64()), Some(2.0));
        assert_eq!(v.get("sum").and_then(|x| x.as_f64()), Some(0.75));
        assert_eq!(v.get("min").and_then(|x| x.as_f64()), Some(0.25));
        assert_eq!(v.get("max").and_then(|x| x.as_f64()), Some(0.5));
        assert_eq!(v.get("agg").and_then(|x| x.as_str()), Some("gauge"));
    }

    #[test]
    fn span_timings_fold_into_total_seconds() {
        let (t, inner, agg) = harness(u64::MAX);
        for _ in 0..5 {
            drop(t.span("train.epoch"));
        }
        agg.flush();
        let events = inner.events();
        assert_eq!(events.len(), 1, "span_start events are dropped");
        let e = &events[0];
        assert_eq!(e.name, "train.epoch");
        assert_eq!(e.unit, "s");
        let v = crate::json::JsonValue::parse(e.text.as_ref().unwrap()).unwrap();
        assert_eq!(v.get("count").and_then(|x| x.as_f64()), Some(5.0));
        assert_eq!(v.get("agg").and_then(|x| x.as_str()), Some("span"));
        assert!(e.value >= 0.0, "headline is total seconds");
    }

    #[test]
    fn periodic_flush_fires_on_the_configured_cadence() {
        let (t, inner, _agg) = harness(4);
        for _ in 0..4 {
            t.counter("c", 1, "");
        }
        assert_eq!(inner.len(), 1, "4 folded events trigger one snapshot");
        for _ in 0..4 {
            t.counter("c", 1, "");
        }
        assert_eq!(inner.len(), 2);
        let events = inner.events();
        assert_eq!(events[0].value, 4.0);
        assert_eq!(events[1].value, 8.0, "summaries accumulate across flushes");
        assert!(
            events[0].seq < events[1].seq,
            "snapshots draw from the global seq counter"
        );
    }

    #[test]
    fn histograms_pass_through_latest_and_manifests_immediately() {
        let (t, inner, agg) = harness(u64::MAX);
        let mut h = FixedHistogram::integers(2);
        h.record_usize(1);
        t.histogram("train.k_hist", &h);
        h.record_usize(2);
        t.histogram("train.k_hist", &h);
        t.manifest("bench.run_manifest", "{}");
        assert_eq!(inner.len(), 1, "manifest passes through unbuffered");
        agg.flush();
        let events = inner.events();
        assert_eq!(events.len(), 2);
        let hist = events
            .iter()
            .find(|e| e.kind == EventKind::Histogram)
            .unwrap();
        assert_eq!(hist.value, 2.0, "only the latest histogram is kept");
    }

    #[test]
    fn log2hist_shards_merge_instead_of_replacing() {
        let (t, inner, agg) = harness(u64::MAX);
        let mut shard = Log2Histogram::new();
        shard.record(0.010);
        shard.record(0.020);
        t.log2_histogram("chunk.latency.e2e", &shard);
        let mut shard2 = Log2Histogram::new();
        shard2.record(0.040);
        t.log2_histogram("chunk.latency.e2e", &shard2);
        agg.flush();
        let events = inner.events();
        assert_eq!(events.len(), 1, "one merged distribution per name");
        let e = &events[0];
        assert_eq!(e.kind, EventKind::Log2Hist);
        assert_eq!(e.value, 3.0, "counts sum across shards");
        let merged = log2_shard(e).expect("flush output round-trips");
        assert_eq!(merged.total(), 3);
        assert_eq!(merged.min(), 0.010);
        assert_eq!(merged.max(), 0.040);
        // The merged result is bit-identical to one whole histogram.
        let mut whole = shard.clone();
        whole.merge(&shard2);
        assert_eq!(merged, whole);
    }

    #[test]
    fn unparseable_log2hist_passes_through_verbatim() {
        let (_, inner, agg) = harness(u64::MAX);
        agg.emit(Event {
            seq: 1,
            ts_us: 0.0,
            name: "weird".into(),
            kind: EventKind::Log2Hist,
            value: 1.0,
            unit: "count",
            span: None,
            buckets: vec![("not-a-bucket".into(), 1)],
            text: None,
        });
        assert_eq!(inner.len(), 1, "foreign shard is forwarded, not dropped");
        agg.flush();
        assert_eq!(inner.len(), 1, "and not duplicated by the flush");
    }

    #[test]
    fn drop_flushes_the_final_summary() {
        let inner = Arc::new(CollectingSink::new());
        {
            let t = Telemetry::new(Arc::new(AggregatingSink::new(inner.clone(), u64::MAX)));
            t.gauge("g", 1.0, "");
        }
        assert_eq!(inner.len(), 1, "drop emits the pending snapshot");
    }

    #[test]
    fn enablement_tracks_the_inner_sink() {
        let agg = AggregatingSink::new(Arc::new(crate::sink::NullSink), 16);
        assert!(!agg.enabled());
        let live = AggregatingSink::new(Arc::new(CollectingSink::new()), 16);
        assert!(live.enabled());
    }

    #[test]
    fn decade_buckets_cover_sign_zero_and_extremes() {
        assert_eq!(bucket_index(-1.0), 0);
        assert_eq!(bucket_index(0.0), 0);
        assert_eq!(bucket_index(f64::NAN), 0);
        assert_eq!(bucket_index(1e-30), 1);
        assert_eq!(bucket_index(1e30), BUCKETS - 1);
        assert_eq!(bucket_label(bucket_index(0.5)), "<=1e0");
        assert_eq!(bucket_label(bucket_index(3.0)), "<=1e1");
        assert_eq!(bucket_label(bucket_index(1e-6)), "<=1e-6");
        // Only nonzero buckets reach the snapshot event.
        let (t, inner, agg) = harness(u64::MAX);
        t.gauge("g", 0.5, "");
        t.gauge("g", 0.5, "");
        agg.flush();
        let e = &inner.events()[0];
        assert_eq!(e.buckets, vec![("<=1e0".to_string(), 2)]);
    }
}
