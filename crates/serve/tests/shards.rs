//! Sharded recorders must be *indistinguishable* from a single global
//! recorder: merging the per-worker shards at snapshot time has to be
//! bit-identical to having funneled every record through one lock —
//! both for lifetime totals and for every rolling window. This is the
//! property that makes the lock-per-shard hot path safe to trust: if it
//! held only approximately, windowed p99s would drift from the ground
//! truth exactly when load (and therefore sharding) matters most.
//!
//! Both recorders built on [`Sharded`] — [`ServeStats`] over
//! [`Tallies`] and [`StageProf`] over [`StageTallies`] — are checked by
//! one generic property, and both must keep answering snapshots after a
//! writer panics while holding a shard.

use std::fmt::Debug;
use std::sync::Arc;
use std::time::Duration;

use flight_serve::stats::{PhaseSample, ServeStats, Tallies};
use flight_telemetry::{Sharded, StageProf, StageSample, StageTallies, WindowMerge};

/// Spreads event `i` over ~6 one-second window buckets of synthetic
/// clock.
fn clock(i: u64) -> u64 {
    1_000_000 + (i % 6) * 1_000_000 + (i * 239) % 1_000_000
}

/// A recorder built on one [`Sharded`] payload, fed a deterministic
/// pseudo-load by event index.
trait ShardedRecorder: Send + Sync + Sized + 'static {
    type Payload: WindowMerge + Clone + PartialEq + Debug;
    fn with_shards(shards: usize) -> Self;
    fn sharded(&self) -> &Sharded<Self::Payload>;
    /// Records event `id` into shard `shard`.
    fn record(&self, shard: usize, id: u64);
    /// The rendered snapshot as of `now_us`.
    fn render(&self, now_us: u64) -> String;
}

impl ShardedRecorder for ServeStats {
    type Payload = Tallies;

    fn with_shards(shards: usize) -> Self {
        ServeStats::new(shards)
    }

    fn sharded(&self) -> &Sharded<Tallies> {
        ServeStats::sharded(self)
    }

    /// Mixes requests, batches, rejections, and errors.
    fn record(&self, shard: usize, id: u64) {
        let sample = PhaseSample {
            queue: Duration::from_micros(50 + (id * 37) % 4000),
            batch_form: Duration::from_micros(10 + (id * 13) % 400),
            compute: Duration::from_micros(300 + (id * 91) % 9000),
            reply_write: Duration::from_micros(5 + (id * 7) % 120),
        };
        let now_us = clock(id);
        self.record_request_at(shard, &sample, now_us);
        match id % 11 {
            0 => self.record_batch_at(shard, (id % 7 + 1) as usize, now_us),
            1 => self.record_rejected_at(shard, now_us),
            2 => self.record_error_at(shard, now_us),
            _ => {}
        }
    }

    fn render(&self, now_us: u64) -> String {
        self.snapshot_json_at(now_us).render()
    }
}

impl ShardedRecorder for StageProf {
    type Payload = StageTallies;

    fn with_shards(shards: usize) -> Self {
        StageProf::new(shards, 16)
    }

    fn sharded(&self) -> &Sharded<StageTallies> {
        StageProf::sharded(self)
    }

    /// One sampled forward with a varying stage count and dispatch path.
    fn record(&self, shard: usize, id: u64) {
        const KINDS: [&str; 4] = ["conv", "leaky_relu", "maxpool", "linear"];
        let mut sample = StageSample::new();
        sample.set_path(if id.is_multiple_of(5) {
            "portable"
        } else {
            "avx2"
        });
        sample.set_images(1 + id % 4);
        for s in 0..3 + (id % 3) as usize {
            sample.record_stage(
                KINDS[s % KINDS.len()],
                10_000 + (id * 97 + s as u64 * 31) % 900_000,
                1_000 + (id * 53 + s as u64 * 17) % 40_000,
            );
        }
        self.record_at(shard, &sample, clock(id));
    }

    fn render(&self, now_us: u64) -> String {
        self.snapshot_json_at(now_us).render()
    }
}

/// Concurrent writers, one per shard (the deployment shape), against
/// the same events recorded serially through shard 0 of a recorder with
/// the same shard count (the snapshot reports it).
fn sharded_recording_matches_a_single_lock_reference<R: ShardedRecorder>() {
    const SHARDS: usize = 4;
    const PER_SHARD: u64 = 400;

    let sharded = Arc::new(R::with_shards(SHARDS));
    let reference = R::with_shards(SHARDS);

    let handles: Vec<_> = (0..SHARDS as u64)
        .map(|shard| {
            let sharded = Arc::clone(&sharded);
            std::thread::spawn(move || {
                for i in 0..PER_SHARD {
                    sharded.record(shard as usize, shard * PER_SHARD + i);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("writer thread");
    }
    for id in 0..SHARDS as u64 * PER_SHARD {
        reference.record(0, id);
    }

    // Lifetime totals: bit-identical (the payloads are PartialEq over
    // exact histogram buckets, not approximate percentiles).
    assert_eq!(sharded.sharded().merged(), reference.sharded().merged());

    // Every reported window, probed at several clock positions, agrees
    // bucket-for-bucket too, and so does the rendered snapshot.
    for now_us in [1_500_000u64, 3_250_000, 6_900_000, 20_000_000] {
        for window in [1usize, 10, 60] {
            assert_eq!(
                sharded.sharded().merged_window_at(now_us, window),
                reference.sharded().merged_window_at(now_us, window),
                "window {window}s @ {now_us}us"
            );
        }
        assert_eq!(
            sharded.render(now_us),
            reference.render(now_us),
            "rendered snapshot @ {now_us}us"
        );
    }
}

#[test]
fn serve_stats_shards_match_a_single_lock_reference() {
    sharded_recording_matches_a_single_lock_reference::<ServeStats>();
}

#[test]
fn stage_profile_shards_match_a_single_lock_reference() {
    sharded_recording_matches_a_single_lock_reference::<StageProf>();
}

/// Panics a writer thread while it holds shard 0 of `recorder`,
/// poisoning that shard's lock.
fn poison_shard_zero<R: ShardedRecorder>(recorder: &Arc<R>) {
    let recorder = Arc::clone(recorder);
    let writer = std::thread::spawn(move || {
        recorder
            .sharded()
            .record_at(0, clock(2), |_| panic!("writer dies holding a shard"));
    });
    assert!(writer.join().is_err(), "the writer panicked");
}

#[test]
fn snapshots_survive_a_writer_panicking_inside_a_shard() {
    let stats = Arc::new(ServeStats::new(2));
    let prof = Arc::new(StageProf::new(2, 1));
    ShardedRecorder::record(&*stats, 0, 1);
    ShardedRecorder::record(&*prof, 0, 1);
    poison_shard_zero(&stats);
    poison_shard_zero(&prof);

    // The poisoned shards still snapshot, and still record.
    let snap = stats.snapshot_json();
    assert_eq!(snap.get("requests").and_then(|v| v.as_f64()), Some(1.0));
    let profile = prof.snapshot_json();
    assert_eq!(profile.get("forwards").and_then(|v| v.as_f64()), Some(1.0));
    ShardedRecorder::record(&*stats, 0, 3);
    ShardedRecorder::record(&*prof, 0, 3);
    assert_eq!(stats.sharded().merged().requests, 2);
    assert_eq!(prof.sharded().merged().forwards, 2);
}
