//! Mergeable log2-bucketed latency histograms.
//!
//! The server wants per-request latency percentiles without keeping
//! every sample: each worker (or client) records into its own
//! [`Log2Histogram`] shard and the shards [`merge`](Log2Histogram::merge)
//! into a whole-run distribution. Buckets are geometric with
//! [`SUB_BUCKETS_PER_OCTAVE`] sub-buckets per power of two (HDR-style),
//! so every bucket spans a fixed *relative* width of
//! `2^(1/SUB_BUCKETS_PER_OCTAVE) ≈ 9%` and a percentile read is always
//! within one bucket of the exact sorted-sample percentile, whether the
//! sample is a microsecond or a minute.
//!
//! Two properties the tests (and the server's stats windows and
//! loadgen's serve manifest) rely on:
//!
//! * **merge == whole**: bucket counts are plain sums and min/max fold
//!   with `f64::min`/`max`, so merging per-worker shards is bit-identical
//!   to recording every sample into one histogram.
//! * **bounded percentile error**: [`percentile`](Log2Histogram::percentile)
//!   returns the upper edge of the bucket holding the requested rank,
//!   clamped into `[min, max]` — at most one bucket width above the
//!   exact order statistic.

use crate::json::{JsonObject, JsonValue};

/// Sub-buckets per power of two. 8 gives a relative bucket width of
/// `2^(1/8) − 1 ≈ 9.05%` — comfortably tighter than the ±15% noise of a
/// wall-clock latency measurement.
pub const SUB_BUCKETS_PER_OCTAVE: i32 = 8;

/// Smallest representable bucket index: `2^-30 s ≈ 0.93 ns`. Anything
/// smaller (or non-positive, or NaN) lands in the underflow bucket.
const MIN_INDEX: i32 = -30 * SUB_BUCKETS_PER_OCTAVE;
/// One past the largest bucket index: `2^10 s = 1024 s`. Anything larger
/// lands in the overflow bucket.
const MAX_INDEX: i32 = 10 * SUB_BUCKETS_PER_OCTAVE;

/// Regular slots plus one underflow (slot 0) and one overflow (last).
const SLOTS: usize = (MAX_INDEX - MIN_INDEX) as usize + 2;

/// Bucket label for the underflow slot (`v` below the bucketed range).
const UNDERFLOW_LABEL: &str = "lt";
/// Bucket label for the overflow slot (`v` above the bucketed range).
const OVERFLOW_LABEL: &str = "gt";

fn slot_for(v: f64) -> usize {
    if v <= 0.0 || !v.is_finite() {
        return 0; // non-positive and NaN underflow, like FixedHistogram's edge policy
    }
    let index = (v.log2() * SUB_BUCKETS_PER_OCTAVE as f64).floor();
    if index < MIN_INDEX as f64 {
        0
    } else if index >= MAX_INDEX as f64 {
        SLOTS - 1
    } else {
        (index as i32 - MIN_INDEX) as usize + 1
    }
}

/// The signed bucket index a regular slot encodes (`b<index>` labels).
fn slot_index(slot: usize) -> i32 {
    slot as i32 - 1 + MIN_INDEX
}

/// Upper edge of bucket `index`: `2^((index + 1) / SUB_BUCKETS_PER_OCTAVE)`.
pub fn bucket_upper(index: i32) -> f64 {
    ((index + 1) as f64 / SUB_BUCKETS_PER_OCTAVE as f64).exp2()
}

/// A streaming histogram with geometric (log2) buckets.
///
/// # Example
///
/// ```
/// use flight_telemetry::Log2Histogram;
///
/// let mut shard_a = Log2Histogram::new();
/// let mut shard_b = Log2Histogram::new();
/// for ms in 1..=90 {
///     shard_a.record(ms as f64 * 1e-3);
/// }
/// for ms in 91..=100 {
///     shard_b.record(ms as f64 * 1e-3);
/// }
/// let mut whole = shard_a.clone();
/// whole.merge(&shard_b);
/// assert_eq!(whole.total(), 100);
/// let p50 = whole.percentile(0.50);
/// assert!((p50 / 0.050 - 1.0).abs() < 0.10, "p50 within one bucket: {p50}");
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Log2Histogram {
    counts: Vec<u64>,
    total: u64,
    min: f64,
    max: f64,
}

impl Default for Log2Histogram {
    fn default() -> Self {
        Log2Histogram::new()
    }
}

impl Log2Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Log2Histogram {
            counts: vec![0; SLOTS],
            total: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Records one observation. Non-positive, NaN, and sub-nanosecond
    /// values land in the underflow bucket; values above 1024 s in the
    /// overflow bucket.
    pub fn record(&mut self, v: f64) {
        self.counts[slot_for(v)] += 1;
        self.total += 1;
        // f64::min/max ignore a NaN argument, so one bad sample cannot
        // poison the tracked range.
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Folds `other` into `self`. Bucket counts add and min/max fold,
    /// so the result is bit-identical to recording both shards' samples
    /// into one histogram.
    pub fn merge(&mut self, other: &Log2Histogram) {
        for (mine, theirs) in self.counts.iter_mut().zip(other.counts.iter()) {
            *mine += theirs;
        }
        self.total += other.total;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Total number of recorded observations.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// `true` when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Smallest recorded value (`inf` when empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest recorded value (`-inf` when empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// The value at quantile `q ∈ [0, 1]`: the upper edge of the bucket
    /// holding the rank-`ceil(q·n)` observation, clamped into
    /// `[min, max]` — within one bucket width of the exact sorted-sample
    /// percentile. Returns NaN when empty.
    pub fn percentile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return f64::NAN;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut cumulative = 0u64;
        for (slot, &count) in self.counts.iter().enumerate() {
            cumulative += count;
            if cumulative >= rank {
                let estimate = if slot == 0 {
                    self.min // underflow has no finite lower edge
                } else if slot == SLOTS - 1 {
                    self.max
                } else {
                    bucket_upper(slot_index(slot))
                };
                return estimate.clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Nonzero buckets as `(label, count)` event pairs: `b<index>` for
    /// regular buckets (upper edge [`bucket_upper`]`(index)`), plus
    /// [`UNDERFLOW_LABEL`]/[`OVERFLOW_LABEL`] sentinels.
    pub fn bucket_pairs(&self) -> Vec<(String, u64)> {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &count)| count > 0)
            .map(|(slot, &count)| {
                let label = if slot == 0 {
                    UNDERFLOW_LABEL.to_string()
                } else if slot == SLOTS - 1 {
                    OVERFLOW_LABEL.to_string()
                } else {
                    format!("b{}", slot_index(slot))
                };
                (label, count)
            })
            .collect()
    }

    /// Rebuilds a histogram from event `(label, count)` pairs plus the
    /// `min`/`max` carried in the event text. The inverse of
    /// [`bucket_pairs`](Self::bucket_pairs); returns `None` on labels
    /// outside the `b<index>`/`lt`/`gt` scheme or out-of-range indices.
    pub fn from_bucket_pairs(pairs: &[(String, u64)], min: f64, max: f64) -> Option<Self> {
        let mut hist = Log2Histogram::new();
        for (label, count) in pairs {
            let slot = match label.as_str() {
                UNDERFLOW_LABEL => 0,
                OVERFLOW_LABEL => SLOTS - 1,
                other => {
                    let index: i32 = other.strip_prefix('b')?.parse().ok()?;
                    if !(MIN_INDEX..MAX_INDEX).contains(&index) {
                        return None;
                    }
                    (index - MIN_INDEX) as usize + 1
                }
            };
            hist.counts[slot] += count;
            hist.total += count;
        }
        hist.min = min;
        hist.max = max;
        Some(hist)
    }

    /// The event text payload: min/max plus headline percentiles, so
    /// human trace readers get the summary without replaying buckets.
    pub fn stats_json(&self) -> String {
        JsonObject::new()
            .field("min", finite_or_null(self.min))
            .field("max", finite_or_null(self.max))
            .field("p50", finite_or_null(self.percentile(0.50)))
            .field("p99", finite_or_null(self.percentile(0.99)))
            .field("p999", finite_or_null(self.percentile(0.999)))
            .build()
            .render()
    }
}

fn finite_or_null(v: f64) -> JsonValue {
    if v.is_finite() {
        JsonValue::from(v)
    } else {
        JsonValue::Null
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_track_known_distributions() {
        let mut h = Log2Histogram::new();
        for i in 1..=1000 {
            h.record(i as f64 * 1e-3); // 1 ms .. 1 s uniform
        }
        assert_eq!(h.total(), 1000);
        let width = (1.0f64 / SUB_BUCKETS_PER_OCTAVE as f64).exp2();
        for (q, exact) in [(0.50, 0.500), (0.99, 0.990), (0.999, 0.999)] {
            let est = h.percentile(q);
            assert!(
                est >= exact * 0.999 && est <= exact * width * 1.001,
                "p{q}: estimate {est} vs exact {exact}"
            );
        }
    }

    #[test]
    fn empty_histogram_is_inert() {
        let h = Log2Histogram::new();
        assert!(h.is_empty());
        assert!(h.percentile(0.5).is_nan());
        assert!(h.bucket_pairs().is_empty());
    }

    #[test]
    fn extreme_values_fall_into_sentinel_buckets() {
        let mut h = Log2Histogram::new();
        h.record(0.0);
        h.record(-1.0);
        h.record(f64::NAN);
        h.record(1e-12); // below 2^-30
        h.record(1e6); // above 2^10
        let pairs = h.bucket_pairs();
        assert_eq!(
            pairs,
            vec![
                (UNDERFLOW_LABEL.to_string(), 4),
                (OVERFLOW_LABEL.to_string(), 1)
            ]
        );
        assert_eq!(h.total(), 5);
        // Percentiles stay within the recorded range even in sentinels.
        assert_eq!(h.percentile(1.0), 1e6);
    }

    #[test]
    fn merge_is_bit_identical_to_whole() {
        let samples: Vec<f64> = (0..200).map(|i| 1e-4 * (1.07f64).powi(i % 37)).collect();
        let mut whole = Log2Histogram::new();
        let mut a = Log2Histogram::new();
        let mut b = Log2Histogram::new();
        for (i, &s) in samples.iter().enumerate() {
            whole.record(s);
            if i < 80 {
                a.record(s);
            } else {
                b.record(s);
            }
        }
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged, whole);
    }

    #[test]
    fn bucket_pairs_round_trip_through_events() {
        let mut h = Log2Histogram::new();
        for v in [1e-5, 3e-4, 3e-4, 0.02, 1.5, 900.0, 0.0, 1e9] {
            h.record(v);
        }
        let rebuilt =
            Log2Histogram::from_bucket_pairs(&h.bucket_pairs(), h.min(), h.max()).expect("parses");
        assert_eq!(rebuilt, h);
    }

    #[test]
    fn from_bucket_pairs_rejects_foreign_labels() {
        assert!(Log2Histogram::from_bucket_pairs(&[("<=1e0".into(), 1)], 0.0, 1.0).is_none());
        assert!(Log2Histogram::from_bucket_pairs(&[("b99999".into(), 1)], 0.0, 1.0).is_none());
        assert!(Log2Histogram::from_bucket_pairs(&[("bx".into(), 1)], 0.0, 1.0).is_none());
    }

    #[test]
    fn stats_json_carries_headline_percentiles() {
        let mut h = Log2Histogram::new();
        for i in 1..=100 {
            h.record(i as f64 * 1e-3);
        }
        let v = JsonValue::parse(&h.stats_json()).expect("valid json");
        assert_eq!(v.get("min").and_then(JsonValue::as_f64), Some(1e-3));
        assert_eq!(v.get("max").and_then(JsonValue::as_f64), Some(0.1));
        let p99 = v.get("p99").and_then(JsonValue::as_f64).expect("p99");
        assert!((0.099..=0.11).contains(&p99), "p99 = {p99}");
        // An empty histogram renders null stats, not NaN (invalid JSON).
        let empty = Log2Histogram::new().stats_json();
        assert!(JsonValue::parse(&empty)
            .expect("valid")
            .get("p50")
            .unwrap()
            .as_f64()
            .is_none());
    }
}
