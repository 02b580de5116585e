//! Property tests for [`Log2Histogram`]: the two guarantees the
//! latency readers lean on — percentile reads stay within one bucket
//! of the exact order statistic, and merging per-worker shards is
//! bit-identical to recording everything into one histogram.

use flight_telemetry::{Log2Histogram, SUB_BUCKETS_PER_OCTAVE};
use proptest::prelude::*;

/// Relative width of one bucket: `2^(1/8) ≈ 1.0905`.
fn bucket_width() -> f64 {
    (1.0f64 / SUB_BUCKETS_PER_OCTAVE as f64).exp2()
}

/// The exact order statistic the histogram approximates: the
/// rank-`ceil(q·n)` element of the sorted samples.
fn exact_percentile(sorted: &[f64], q: f64) -> f64 {
    let n = sorted.len() as f64;
    let rank = ((q * n).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Samples spanning the bucketed range (microseconds to ~minute).
fn latency() -> std::ops::Range<f64> {
    1e-6..100.0f64
}

/// Latencies plus the degenerate values the engine could conceivably
/// hand a histogram (zero, negative, NaN-free overflow).
fn any_sample() -> proptest::strategy::Union<f64> {
    prop_oneof![
        Just(0.0f64),
        Just(-3.5f64),
        Just(5e8f64),
        Just(1e-15f64),
        1e-12..2000.0f64,
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn percentile_is_within_one_bucket_of_exact(
        samples in proptest::collection::vec(latency(), 1..300)
    ) {
        let mut hist = Log2Histogram::new();
        for &s in &samples {
            hist.record(s);
        }
        let mut sorted = samples.clone();
        sorted.sort_by(f64::total_cmp);
        for q in [0.5, 0.9, 0.99, 0.999] {
            let exact = exact_percentile(&sorted, q);
            let estimate = hist.percentile(q);
            // The estimate is the upper edge of the exact sample's
            // bucket (clamped to the recorded max), so it sits in
            // [exact, exact * bucket_width]; the 1e-3 slack absorbs
            // float error in log2 bucketing near bucket edges.
            prop_assert!(
                estimate >= exact * (1.0 - 1e-3),
                "p{q}: estimate {estimate} below exact {exact}"
            );
            prop_assert!(
                estimate <= exact * bucket_width() * (1.0 + 1e-3),
                "p{q}: estimate {estimate} more than one bucket above exact {exact}"
            );
        }
    }

    #[test]
    fn merging_shards_is_bit_identical_to_the_whole(
        samples in proptest::collection::vec(any_sample(), 0..400),
        shards in 1usize..6
    ) {
        let mut whole = Log2Histogram::new();
        let mut parts = vec![Log2Histogram::new(); shards];
        for (i, &s) in samples.iter().enumerate() {
            whole.record(s);
            parts[i % shards].record(s);
        }
        // Merge in shard order into the first, like the aggregating
        // sink folds per-worker shards.
        let mut merged = parts.remove(0);
        for part in &parts {
            merged.merge(part);
        }
        prop_assert_eq!(&merged, &whole);
        prop_assert_eq!(merged.total(), samples.len() as u64);
    }

    #[test]
    fn bucket_pairs_round_trip_exactly(
        samples in proptest::collection::vec(any_sample(), 0..200)
    ) {
        let mut hist = Log2Histogram::new();
        for &s in &samples {
            hist.record(s);
        }
        let rebuilt = Log2Histogram::from_bucket_pairs(
            &hist.bucket_pairs(),
            hist.min(),
            hist.max(),
        )
        .expect("own bucket labels always parse");
        prop_assert_eq!(&rebuilt, &hist);
    }
}
