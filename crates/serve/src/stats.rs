//! Server-side telemetry: sharded per-phase latency accounting with
//! lifetime totals *and* rolling 1 s / 10 s / 60 s windows.
//!
//! # The phase split
//!
//! Each request's life is split into four measured phases whose sum is
//! the server-side end-to-end wall (`e2e`):
//!
//! * `queue` — connection thread enqueued it → a compute worker popped
//!   it. Grows under load; the backpressure signal.
//! * `batch_form` — popped → the dynamic batch sealed. Bounded by the
//!   batcher's `max_wait`.
//! * `compute` — the shared forward call (every batch member reports
//!   the same wall).
//! * `reply_write` — the worker's reply arrived back at the connection
//!   thread → the reply frame was rendered, written, and flushed. This
//!   is the serialization cost the first three phases miss; without it
//!   `e2e` systematically undercounts what clients observe.
//!
//! `e2e` therefore matches the client-observed server residence time up
//! to request parsing (microseconds) and kernel socket delivery.
//!
//! # Shards and windows
//!
//! [`ServeStats`] is a [`Sharded`]`<`[`Tallies`]`>`: every recorder
//! writes into its own shard (workers by worker index, connection
//! threads by `request_id % shards`), each holding a lifetime copy and
//! a rolling window of 60 one-second buckets. Snapshot time merges
//! shards bit-identically, so the merged report equals what a single
//! global recorder would have produced — a property pinned by
//! `tests/shards.rs`.

use std::time::Duration;

use flight_telemetry::json::{JsonObject, JsonValue};
use flight_telemetry::{trace_now_us, Log2Histogram, Sharded, Telemetry, WindowMerge, WINDOWS};

/// The measured phases, in pipeline order, plus the derived `e2e`.
pub const PHASES: [&str; 5] = ["queue", "batch_form", "compute", "reply_write", "e2e"];

/// One request's measured phase durations.
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseSample {
    /// Enqueue → popped by a worker.
    pub queue: Duration,
    /// Popped → batch sealed.
    pub batch_form: Duration,
    /// The batch's forward-call wall (shared by every member).
    pub compute: Duration,
    /// Worker reply received → reply frame rendered, written, flushed.
    pub reply_write: Duration,
}

impl PhaseSample {
    /// Server-side end-to-end wall: the sum of the four phases.
    pub fn e2e(&self) -> Duration {
        self.queue + self.batch_form + self.compute + self.reply_write
    }
}

/// Everything one recorder tallies. Used both as the lifetime
/// accumulator and as the window-bucket payload, so lifetime and
/// windowed reports can never drift in shape.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Tallies {
    /// Per-phase latency histograms, milliseconds, [`PHASES`] order.
    pub phases: [Log2Histogram; 5],
    /// Executed batch sizes.
    pub batch_sizes: Log2Histogram,
    /// Completed (batched and replied) requests.
    pub requests: u64,
    /// Executed batches.
    pub batches: u64,
    /// Requests bounced by the full queue.
    pub rejected: u64,
    /// Requests that failed (bad image, worker timeout, …).
    pub errors: u64,
}

impl WindowMerge for Tallies {
    fn merge_from(&mut self, other: &Self) {
        for (mine, theirs) in self.phases.iter_mut().zip(&other.phases) {
            mine.merge(theirs);
        }
        self.batch_sizes.merge(&other.batch_sizes);
        self.requests += other.requests;
        self.batches += other.batches;
        self.rejected += other.rejected;
        self.errors += other.errors;
    }
}

impl Tallies {
    fn record_request(&mut self, sample: &PhaseSample) {
        self.requests += 1;
        let durations = [
            sample.queue,
            sample.batch_form,
            sample.compute,
            sample.reply_write,
            sample.e2e(),
        ];
        for (hist, d) in self.phases.iter_mut().zip(durations) {
            hist.record(d.as_secs_f64() * 1e3);
        }
    }

    /// Attempted requests: completed plus rejected plus failed. The
    /// denominator of the reject/error rates.
    pub fn attempts(&self) -> u64 {
        self.requests + self.rejected + self.errors
    }

    fn mean_batch(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.requests as f64 / self.batches as f64
        }
    }

    fn latency_json(&self) -> JsonValue {
        let mut latency = JsonObject::new();
        for (name, hist) in PHASES.iter().zip(&self.phases) {
            latency = latency.field(
                name,
                JsonObject::new()
                    .field("p50", hist.percentile(0.50))
                    .field("p99", hist.percentile(0.99))
                    .field("p999", hist.percentile(0.999))
                    .field("max", if hist.is_empty() { 0.0 } else { hist.max() })
                    .build(),
            );
        }
        latency.build()
    }
}

/// Sharded, thread-safe serve statistics. See the module docs for the
/// sharding and window semantics.
#[derive(Debug)]
pub struct ServeStats {
    shards: Sharded<Tallies>,
    /// When recording began, on the window clock (µs): a window younger
    /// than its span reports QPS over the time it has existed.
    start_us: u64,
}

impl Default for ServeStats {
    fn default() -> Self {
        ServeStats::new(1)
    }
}

impl ServeStats {
    /// Fresh stats with `shards` shards (clamped to at least 1) —
    /// typically one per compute worker — whose uptime counts from the
    /// window clock's origin (`trace_now_us() == 0`). A server started
    /// later passes its start through [`new_at`](Self::new_at).
    pub fn new(shards: usize) -> ServeStats {
        ServeStats::new_at(shards, 0)
    }

    /// [`new`](Self::new) started at `start_us` on the window clock.
    pub fn new_at(shards: usize, start_us: u64) -> ServeStats {
        ServeStats {
            shards: Sharded::new(shards),
            start_us,
        }
    }

    /// The per-recorder shards (lifetime plus windowed tallies).
    pub fn sharded(&self) -> &Sharded<Tallies> {
        &self.shards
    }

    /// Records one completed request's phases into shard `shard` (the
    /// connection thread passes `request_id % shards`).
    pub fn record_request(&self, shard: usize, sample: &PhaseSample) {
        self.record_request_at(shard, sample, trace_now_us() as u64);
    }

    /// [`record_request`](Self::record_request) with an explicit window
    /// clock, for deterministic tests.
    pub fn record_request_at(&self, shard: usize, sample: &PhaseSample, now_us: u64) {
        self.shards
            .record_at(shard, now_us, |t| t.record_request(sample));
    }

    /// Records one executed batch of `size` members (the compute worker
    /// passes its own worker index).
    pub fn record_batch(&self, shard: usize, size: usize) {
        self.record_batch_at(shard, size, trace_now_us() as u64);
    }

    /// [`record_batch`](Self::record_batch) with an explicit window clock.
    pub fn record_batch_at(&self, shard: usize, size: usize, now_us: u64) {
        self.shards.record_at(shard, now_us, |t| {
            t.batches += 1;
            t.batch_sizes.record(size as f64);
        });
    }

    /// Records one request bounced by the full queue.
    pub fn record_rejected(&self, shard: usize) {
        self.record_rejected_at(shard, trace_now_us() as u64);
    }

    /// [`record_rejected`](Self::record_rejected) with an explicit clock.
    pub fn record_rejected_at(&self, shard: usize, now_us: u64) {
        self.shards.record_at(shard, now_us, |t| t.rejected += 1);
    }

    /// Records one request that failed (bad image, worker timeout, …).
    pub fn record_error(&self, shard: usize) {
        self.record_error_at(shard, trace_now_us() as u64);
    }

    /// [`record_error`](Self::record_error) with an explicit clock.
    pub fn record_error_at(&self, shard: usize, now_us: u64) {
        self.shards.record_at(shard, now_us, |t| t.errors += 1);
    }

    /// The stats as a JSON object: lifetime counters, mean batch size,
    /// a `latency_ms` block of per-phase percentiles, and a `windows`
    /// block with per-window QPS, reject/error rates, and percentiles.
    /// A window's QPS divides its requests by the window's span or the
    /// uptime, whichever is shorter.
    pub fn snapshot_json(&self) -> JsonValue {
        self.snapshot_json_at(trace_now_us() as u64)
    }

    /// [`snapshot_json`](Self::snapshot_json) with an explicit clock.
    pub fn snapshot_json_at(&self, now_us: u64) -> JsonValue {
        let lifetime = self.shards.merged();
        let uptime_s = now_us.saturating_sub(self.start_us) as f64 / 1e6;
        let mut windows = JsonObject::new();
        for (label, buckets) in WINDOWS {
            let w = self.shards.merged_window_at(now_us, buckets);
            let secs = (buckets as f64).min(uptime_s);
            let qps = if secs > 0.0 {
                w.requests as f64 / secs
            } else {
                0.0
            };
            let attempts = w.attempts();
            let rate = |n: u64| {
                if attempts == 0 {
                    0.0
                } else {
                    n as f64 / attempts as f64
                }
            };
            windows = windows.field(
                label,
                JsonObject::new()
                    .field("qps", qps)
                    .field("requests", w.requests)
                    .field("rejected", w.rejected)
                    .field("errors", w.errors)
                    .field("reject_rate", rate(w.rejected))
                    .field("error_rate", rate(w.errors))
                    .field("mean_batch", w.mean_batch())
                    .field("latency_ms", w.latency_json())
                    .build(),
            );
        }
        JsonObject::new()
            .field("requests", lifetime.requests)
            .field("batches", lifetime.batches)
            .field("rejected", lifetime.rejected)
            .field("errors", lifetime.errors)
            .field("mean_batch", lifetime.mean_batch())
            .field("latency_ms", lifetime.latency_json())
            .field("windows", windows.build())
            .build()
    }

    /// A copy of the merged end-to-end latency histogram (milliseconds).
    pub fn e2e_histogram(&self) -> Log2Histogram {
        self.shards.merged().phases[4].clone()
    }

    /// Emits the merged histograms and counters through a telemetry
    /// handle as `serve.latency.<phase>` / `serve.<counter>` events.
    pub fn emit(&self, telemetry: &Telemetry) {
        if !telemetry.enabled() {
            return;
        }
        let merged = self.shards.merged();
        for (name, hist) in PHASES.iter().zip(&merged.phases) {
            telemetry.log2_histogram(&format!("serve.latency.{name}"), hist);
        }
        telemetry.log2_histogram("serve.batch_size", &merged.batch_sizes);
        telemetry.counter("serve.requests", merged.requests, "requests");
        telemetry.counter("serve.batches", merged.batches, "batches");
        telemetry.counter("serve.rejected", merged.rejected, "requests");
        telemetry.counter("serve.errors", merged.errors, "requests");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(queue_ms: u64) -> PhaseSample {
        PhaseSample {
            queue: Duration::from_millis(queue_ms),
            batch_form: Duration::from_micros(100),
            compute: Duration::from_millis(2),
            reply_write: Duration::from_micros(300),
        }
    }

    #[test]
    fn batches_accumulate_counters_and_percentiles() {
        let stats = ServeStats::new(2);
        let t0 = 1_000_000u64;
        stats.record_batch_at(0, 2, t0);
        stats.record_request_at(0, &sample(1), t0);
        stats.record_request_at(1, &sample(4), t0);
        stats.record_batch_at(1, 1, t0);
        stats.record_request_at(0, &sample(2), t0);
        stats.record_rejected_at(1, t0);
        stats.record_error_at(0, t0);

        let snap = stats.snapshot_json_at(t0);
        assert_eq!(snap.get("requests").and_then(JsonValue::as_f64), Some(3.0));
        assert_eq!(snap.get("batches").and_then(JsonValue::as_f64), Some(2.0));
        assert_eq!(snap.get("rejected").and_then(JsonValue::as_f64), Some(1.0));
        assert_eq!(snap.get("errors").and_then(JsonValue::as_f64), Some(1.0));
        assert_eq!(
            snap.get("mean_batch").and_then(JsonValue::as_f64),
            Some(1.5)
        );
        let queue_p99 = snap
            .get("latency_ms")
            .and_then(|l| l.get("queue"))
            .and_then(|q| q.get("p99"))
            .and_then(JsonValue::as_f64)
            .unwrap();
        assert!(queue_p99 >= 4.0, "p99 {queue_p99} must cover the 4ms tail");
        assert_eq!(stats.e2e_histogram().total(), 3);
        // reply_write is a first-class phase now.
        let rw = snap
            .get("latency_ms")
            .and_then(|l| l.get("reply_write"))
            .and_then(|q| q.get("p50"))
            .and_then(JsonValue::as_f64)
            .unwrap();
        assert!(rw > 0.0, "reply_write recorded: {rw}");
    }

    #[test]
    fn windows_report_qps_and_expire() {
        let stats = ServeStats::new(3);
        let s = 1_000_000u64;
        // 4 requests in epoch 10, one rejection in epoch 12.
        for i in 0..4u64 {
            stats.record_request_at(i as usize, &sample(1), 10 * s + i * 1000);
        }
        stats.record_rejected_at(0, 12 * s);

        let now = 12 * s + s / 2;
        let snap = stats.snapshot_json_at(now);
        let window = |label: &str| {
            snap.get("windows")
                .and_then(|w| w.get(label))
                .unwrap()
                .clone()
        };
        // 1s window: only the rejection is current.
        assert_eq!(
            window("1s").get("qps").and_then(JsonValue::as_f64),
            Some(0.0)
        );
        assert_eq!(
            window("1s").get("reject_rate").and_then(JsonValue::as_f64),
            Some(1.0)
        );
        // 10s window covers epochs 3..=12: the 4 requests at epoch 10 count.
        assert_eq!(
            window("10s").get("qps").and_then(JsonValue::as_f64),
            Some(0.4)
        );
        // Far future: everything expired.
        let later = stats.snapshot_json_at(now + 120 * s);
        let qps60 = later
            .get("windows")
            .and_then(|w| w.get("60s"))
            .and_then(|w| w.get("qps"))
            .and_then(JsonValue::as_f64)
            .unwrap();
        assert_eq!(qps60, 0.0, "windows must expire; lifetime must not");
        assert_eq!(later.get("requests").and_then(JsonValue::as_f64), Some(4.0));
    }

    #[test]
    fn young_windows_divide_by_uptime() {
        let s = 1_000_000u64;
        let start = 100 * s;
        let stats = ServeStats::new_at(2, start);
        // 25 requests over the first 2.5 s of uptime, 10 of them in the
        // last second.
        for i in 0..25u64 {
            stats.record_request_at((i % 2) as usize, &sample(1), start + i * s / 10);
        }
        let qps = |now: u64, label: &str| {
            stats
                .snapshot_json_at(now)
                .get("windows")
                .and_then(|w| w.get(label))
                .and_then(|w| w.get("qps"))
                .and_then(JsonValue::as_f64)
                .unwrap()
        };
        let now = start + 5 * s / 2;
        assert_eq!(qps(now, "1s"), 5.0, "a full 1s window: epoch 102 holds 5");
        assert_eq!(qps(now, "10s"), 10.0, "25 requests over 2.5 s, not 10 s");
        assert_eq!(qps(now, "60s"), 10.0, "25 requests over 2.5 s, not 60 s");
        // Before any time has passed there is no rate to report.
        assert_eq!(qps(start, "10s"), 0.0);
        // Once the server outlives a window, the window's span divides.
        assert_eq!(qps(start + 20 * s, "60s"), 25.0 / 20.0);
    }
}
