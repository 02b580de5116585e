//! Continuous per-stage profiling for the serving hot path.
//!
//! Aggregate serve stats say the `compute` phase took 1.3 ms; they
//! cannot say *which layer* spent it. [`StageProf`] closes that gap with
//! an always-on sampling profiler: for 1-in-N requests (by request id,
//! see [`sampled`]) the engine fills a fixed-size [`StageSample`] —
//! per-stage wall nanoseconds, per-stage op totals, and the resolved
//! kernel dispatch path — and flushes it once per forward into a
//! per-worker shard. The hot path never allocates and never touches a
//! shared lock: the scratch is a plain `[u64; MAX_STAGES]` ring the
//! worker owns, and the flush takes the worker's *own* shard mutex
//! (uncontended except for the occasional snapshot, exactly like
//! `ServeStats`).
//!
//! # Merge semantics
//!
//! The shards are a [`Sharded`]`<StageTallies>`: each keeps a lifetime
//! [`StageTallies`] plus a rolling window of 60 one-second buckets.
//! Snapshot time merges shards bit-identically, so the merged per-layer
//! report equals what one global recorder would have produced. Stage
//! identity is the stage *index*; if two recordings disagree on a
//! stage's kind (a hot swap changed the architecture mid-window) the
//! stat is labelled `mixed` rather than guessing.
//!
//! # Sampling policy
//!
//! [`sampled`]`(request_id, every)` is a pure function of the request
//! id: ids divisible by `every` are sampled (`every == 1` samples all,
//! `every == 0` disables). A dynamic batch is profiled when *any*
//! member is sampled, so sampled requests always get attribution even
//! when coalesced. Deterministic selection makes the profiler testable
//! and replayable — no RNG state, no per-thread counters to drift.
//!
//! # Folded-stack format
//!
//! [`StageTallies::folded`] renders the classic flamegraph collapsed
//! format — one `serve;forward;stage.<i>.<kind> <wall_us>` line per
//! stage — consumable by `flamegraph.pl`, inferno, speedscope, and
//! friends. `flightctl export --format folded` produces the same lines
//! from a `profile` snapshot JSON.

use crate::handle::trace_now_us;
use crate::json::{JsonObject, JsonValue};
use crate::log2hist::Log2Histogram;
use crate::sharded::{Sharded, WINDOWS};
use crate::windowed::WindowMerge;

/// Upper bound on profiled pipeline stages per forward. Far above any
/// compiled network in this repo (residual blocks count as one stage);
/// stages beyond it are dropped and counted in
/// [`StageSample::truncated`].
pub const MAX_STAGES: usize = 64;

/// Default sampling rate: profile one request in 16.
pub const DEFAULT_SAMPLE_EVERY: u32 = 16;

/// Stage kind label for index slots whose recordings disagreed (a hot
/// swap changed the architecture mid-aggregation).
pub const MIXED_KIND: &str = "mixed";

/// Whether a request id is profile-sampled at rate 1-in-`every`.
///
/// Pure and deterministic: ids divisible by `every` are sampled.
/// `every == 1` samples everything; `every == 0` disables sampling.
pub fn sampled(request_id: u64, every: u32) -> bool {
    match every {
        0 => false,
        1 => true,
        n => request_id.is_multiple_of(u64::from(n)),
    }
}

/// The fixed per-forward scratch the engine fills: no allocation, no
/// span machinery — three flat arrays and a length, flushed once per
/// profiled forward via [`StageProf::record`].
#[derive(Debug, Clone)]
pub struct StageSample {
    len: usize,
    /// Stages dropped because the pipeline exceeded [`MAX_STAGES`].
    pub truncated: u64,
    wall_ns: [u64; MAX_STAGES],
    ops: [u64; MAX_STAGES],
    kinds: [&'static str; MAX_STAGES],
    path: &'static str,
    images: u64,
}

impl Default for StageSample {
    fn default() -> Self {
        StageSample {
            len: 0,
            truncated: 0,
            wall_ns: [0; MAX_STAGES],
            ops: [0; MAX_STAGES],
            kinds: [""; MAX_STAGES],
            path: "",
            images: 0,
        }
    }
}

impl StageSample {
    /// A zeroed scratch. Create one per worker and reuse it; the arrays
    /// never reallocate.
    pub fn new() -> Self {
        StageSample::default()
    }

    /// Rewinds for the next forward. O(1): the arrays are left dirty
    /// and guarded by `len`.
    pub fn reset(&mut self) {
        self.len = 0;
        self.truncated = 0;
        self.path = "";
        self.images = 0;
    }

    /// Appends one stage's wall time and op total. Stages past
    /// [`MAX_STAGES`] are dropped and counted in `truncated`.
    pub fn record_stage(&mut self, kind: &'static str, wall_ns: u64, ops: u64) {
        if self.len == MAX_STAGES {
            self.truncated += 1;
            return;
        }
        self.kinds[self.len] = kind;
        self.wall_ns[self.len] = wall_ns;
        self.ops[self.len] = ops;
        self.len += 1;
    }

    /// Tags the resolved kernel dispatch path (`avx2` / `portable` /
    /// `scalar`) this forward ran with.
    pub fn set_path(&mut self, path: &'static str) {
        self.path = path;
    }

    /// Records how many images the profiled forward carried.
    pub fn set_images(&mut self, images: u64) {
        self.images = images;
    }

    /// Number of recorded stages.
    pub fn stages(&self) -> usize {
        self.len
    }

    /// The recorded dispatch path tag.
    pub fn path(&self) -> &'static str {
        self.path
    }

    /// One recorded stage as `(kind, wall_ns, ops)`.
    pub fn stage(&self, i: usize) -> Option<(&'static str, u64, u64)> {
        (i < self.len).then(|| (self.kinds[i], self.wall_ns[i], self.ops[i]))
    }
}

/// One stage's aggregated profile: identity, latency distribution, and
/// op throughput inputs.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct StageStat {
    /// Stage kind (`conv`, `requant`, …); [`MIXED_KIND`] when recordings
    /// disagreed, empty while the slot has never been recorded.
    pub kind: String,
    /// Per-sample stage wall time, milliseconds.
    pub wall_ms: Log2Histogram,
    /// Total stage wall time, nanoseconds (exact sum — histograms only
    /// keep bucketed counts, and time share / ops-per-sec need a sum).
    pub wall_ns: u64,
    /// Total ops this stage executed across samples.
    pub ops: u64,
    /// Profiled forwards that recorded this stage.
    pub samples: u64,
}

impl StageStat {
    fn absorb_kind(&mut self, kind: &str) {
        if self.kind.is_empty() {
            self.kind = kind.to_string();
        } else if self.kind != kind && !kind.is_empty() {
            self.kind = MIXED_KIND.to_string();
        }
    }

    fn merge_from(&mut self, other: &StageStat) {
        self.absorb_kind(&other.kind);
        self.wall_ms.merge(&other.wall_ms);
        self.wall_ns += other.wall_ns;
        self.ops += other.ops;
        self.samples += other.samples;
    }
}

/// Everything one recorder tallies: per-stage stats by stage index,
/// forward/image totals, and the dispatch-path distribution. Used both
/// as the lifetime accumulator and as the window-bucket payload.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct StageTallies {
    /// Per-stage stats, indexed by pipeline stage. Grows to the deepest
    /// pipeline observed.
    pub stages: Vec<StageStat>,
    /// Profiled forward calls.
    pub forwards: u64,
    /// Images those forwards carried.
    pub images: u64,
    /// Stage recordings dropped at [`MAX_STAGES`].
    pub truncated: u64,
    /// Dispatch-path counts, sorted by path name (deterministic merge).
    pub paths: Vec<(String, u64)>,
}

impl WindowMerge for StageTallies {
    fn merge_from(&mut self, other: &Self) {
        if other.stages.len() > self.stages.len() {
            self.stages.resize(other.stages.len(), StageStat::default());
        }
        for (mine, theirs) in self.stages.iter_mut().zip(&other.stages) {
            mine.merge_from(theirs);
        }
        self.forwards += other.forwards;
        self.images += other.images;
        self.truncated += other.truncated;
        for (path, n) in &other.paths {
            bump_path(&mut self.paths, path, *n);
        }
    }
}

/// Adds `n` to `path`'s count, keeping the list sorted by name.
fn bump_path(paths: &mut Vec<(String, u64)>, path: &str, n: u64) {
    match paths.binary_search_by(|(p, _)| p.as_str().cmp(path)) {
        Ok(i) => paths[i].1 += n,
        Err(i) => paths.insert(i, (path.to_string(), n)),
    }
}

impl StageTallies {
    /// Folds one flushed sample in.
    pub fn record(&mut self, sample: &StageSample) {
        if sample.len > self.stages.len() {
            self.stages.resize(sample.len, StageStat::default());
        }
        for i in 0..sample.len {
            let stat = &mut self.stages[i];
            stat.absorb_kind(sample.kinds[i]);
            stat.wall_ms.record(sample.wall_ns[i] as f64 * 1e-6);
            stat.wall_ns += sample.wall_ns[i];
            stat.ops += sample.ops[i];
            stat.samples += 1;
        }
        self.forwards += 1;
        self.images += sample.images;
        self.truncated += sample.truncated;
        if !sample.path.is_empty() {
            bump_path(&mut self.paths, sample.path, 1);
        }
    }

    /// Total wall across all stages, ns — the time-share denominator.
    pub fn total_wall_ns(&self) -> u64 {
        self.stages.iter().map(|s| s.wall_ns).sum()
    }

    /// The dominant dispatch path, if any forward was profiled.
    pub fn dominant_path(&self) -> Option<&str> {
        self.paths
            .iter()
            .max_by_key(|(_, n)| *n)
            .map(|(p, _)| p.as_str())
    }

    /// The tallies as a JSON object: forward/image/truncated counters,
    /// a `paths` object, and a `stages` array of per-layer rows
    /// (`index`, `kind`, `samples`, `time_share`, `wall_total_us`,
    /// `wall_ms` percentiles, `ops`, `ops_per_sec`).
    pub fn json(&self) -> JsonValue {
        let total_ns = self.total_wall_ns();
        let mut paths = JsonObject::new();
        for (path, n) in &self.paths {
            paths = paths.field(path, *n);
        }
        let stages: Vec<JsonValue> = self
            .stages
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let secs = s.wall_ns as f64 * 1e-9;
                JsonObject::new()
                    .field("index", i as u64)
                    .field("kind", s.kind.as_str())
                    .field("samples", s.samples)
                    .field(
                        "time_share",
                        if total_ns == 0 {
                            0.0
                        } else {
                            s.wall_ns as f64 / total_ns as f64
                        },
                    )
                    .field("wall_total_us", s.wall_ns as f64 / 1e3)
                    .field(
                        "wall_ms",
                        JsonObject::new()
                            .field("p50", s.wall_ms.percentile(0.50))
                            .field("p99", s.wall_ms.percentile(0.99))
                            .field(
                                "max",
                                if s.wall_ms.is_empty() {
                                    0.0
                                } else {
                                    s.wall_ms.max()
                                },
                            )
                            .build(),
                    )
                    .field("ops", s.ops)
                    .field(
                        "ops_per_sec",
                        if secs > 0.0 { s.ops as f64 / secs } else { 0.0 },
                    )
                    .build()
            })
            .collect();
        JsonObject::new()
            .field("forwards", self.forwards)
            .field("images", self.images)
            .field("truncated", self.truncated)
            .field("paths", paths.build())
            .field("stages", stages)
            .build()
    }

    /// The folded-stack rendering: one
    /// `serve;forward;stage.<i>.<kind> <wall_us>` line per recorded
    /// stage, ready for standard flamegraph tooling.
    pub fn folded(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.stages.iter().enumerate() {
            if s.samples == 0 {
                continue;
            }
            out.push_str(&format!(
                "serve;forward;stage.{i}.{} {}\n",
                if s.kind.is_empty() { "stage" } else { &s.kind },
                s.wall_ns / 1_000
            ));
        }
        out
    }
}

/// Sharded, thread-safe stage profiler. See the module docs for the
/// sampling policy and merge semantics.
#[derive(Debug)]
pub struct StageProf {
    sample_every: u32,
    shards: Sharded<StageTallies>,
}

impl StageProf {
    /// A profiler with `shards` shards (clamped to at least 1 —
    /// typically one per compute worker) sampling 1-in-`sample_every`
    /// requests (0 disables).
    pub fn new(shards: usize, sample_every: u32) -> StageProf {
        StageProf {
            sample_every,
            shards: Sharded::new(shards),
        }
    }

    /// The configured 1-in-N sampling rate (0 = disabled).
    pub fn sample_every(&self) -> u32 {
        self.sample_every
    }

    /// The per-worker shards (lifetime plus windowed tallies).
    pub fn sharded(&self) -> &Sharded<StageTallies> {
        &self.shards
    }

    /// Whether `request_id` is sampled at this profiler's rate.
    pub fn sampled(&self, request_id: u64) -> bool {
        sampled(request_id, self.sample_every)
    }

    /// Flushes one forward's sample into shard `shard` (the compute
    /// worker passes its own worker index).
    pub fn record(&self, shard: usize, sample: &StageSample) {
        self.record_at(shard, sample, trace_now_us() as u64);
    }

    /// [`record`](Self::record) with an explicit window clock, for
    /// deterministic tests.
    pub fn record_at(&self, shard: usize, sample: &StageSample, now_us: u64) {
        self.shards.record_at(shard, now_us, |t| t.record(sample));
    }

    /// The profile as a JSON object: the sampling rate, the merged
    /// lifetime tallies (inline), and a `windows` block with one
    /// [`StageTallies::json`] per [`WINDOWS`] label.
    pub fn snapshot_json(&self) -> JsonValue {
        self.snapshot_json_at(trace_now_us() as u64)
    }

    /// [`snapshot_json`](Self::snapshot_json) with an explicit clock.
    pub fn snapshot_json_at(&self, now_us: u64) -> JsonValue {
        let lifetime = self.shards.merged();
        let mut windows = JsonObject::new();
        for (label, buckets) in WINDOWS {
            windows = windows.field(label, self.shards.merged_window_at(now_us, buckets).json());
        }
        let JsonValue::Object(mut fields) = lifetime.json() else {
            unreachable!("tallies json is an object")
        };
        let mut root = vec![
            (
                "sample_every".to_string(),
                JsonValue::from(u64::from(self.sample_every)),
            ),
            (
                "shards".to_string(),
                JsonValue::from(self.shards.shards() as u64),
            ),
        ];
        root.append(&mut fields);
        root.push(("windows".to_string(), windows.build()));
        JsonValue::Object(root)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(stages: &[(&'static str, u64, u64)], path: &'static str) -> StageSample {
        let mut s = StageSample::new();
        for &(kind, ns, ops) in stages {
            s.record_stage(kind, ns, ops);
        }
        s.set_path(path);
        s.set_images(2);
        s
    }

    #[test]
    fn sampling_is_a_pure_function_of_the_request_id() {
        assert!(!sampled(0, 0), "0 disables");
        assert!(!sampled(16, 0));
        assert!(sampled(0, 1), "1 samples everything");
        assert!(sampled(7, 1));
        for id in 0..64 {
            assert_eq!(sampled(id, 16), id % 16 == 0, "id {id}");
        }
    }

    #[test]
    fn samples_aggregate_into_per_stage_stats() {
        let prof = StageProf::new(1, 4);
        let t0 = 1_000_000u64;
        prof.record_at(
            0,
            &sample(&[("conv", 800_000, 100), ("linear", 200_000, 10)], "avx2"),
            t0,
        );
        prof.record_at(
            0,
            &sample(&[("conv", 600_000, 100), ("linear", 400_000, 10)], "avx2"),
            t0,
        );
        let merged = prof.sharded().merged();
        assert_eq!(merged.forwards, 2);
        assert_eq!(merged.images, 4);
        assert_eq!(merged.stages.len(), 2);
        assert_eq!(merged.stages[0].kind, "conv");
        assert_eq!(merged.stages[0].samples, 2);
        assert_eq!(merged.stages[0].wall_ns, 1_400_000);
        assert_eq!(merged.stages[0].ops, 200);
        assert_eq!(merged.total_wall_ns(), 2_000_000);
        assert_eq!(merged.paths, vec![("avx2".to_string(), 2)]);
        assert_eq!(merged.dominant_path(), Some("avx2"));

        let snap = prof.snapshot_json_at(t0);
        assert_eq!(
            snap.get("sample_every").and_then(JsonValue::as_f64),
            Some(4.0)
        );
        let stages = snap.get("stages").and_then(JsonValue::as_array).unwrap();
        let share0 = stages[0]
            .get("time_share")
            .and_then(JsonValue::as_f64)
            .unwrap();
        assert!((share0 - 0.7).abs() < 1e-9, "conv share {share0}");
        let w1 = snap
            .get("windows")
            .and_then(|w| w.get("1s"))
            .and_then(|w| w.get("forwards"))
            .and_then(JsonValue::as_f64);
        assert_eq!(w1, Some(2.0), "both records land in the current 1s bucket");
    }

    #[test]
    fn windows_expire_but_lifetime_does_not() {
        let prof = StageProf::new(2, 1);
        let s = 1_000_000u64;
        prof.record_at(0, &sample(&[("conv", 1000, 5)], "scalar"), 10 * s);
        prof.record_at(1, &sample(&[("conv", 1000, 5)], "scalar"), 10 * s);
        assert_eq!(prof.sharded().merged_window_at(10 * s, 1).forwards, 2);
        assert_eq!(
            prof.sharded().merged_window_at(200 * s, 60).forwards,
            0,
            "expired"
        );
        assert_eq!(prof.sharded().merged().forwards, 2, "lifetime survives");
    }

    #[test]
    fn mismatched_kinds_collapse_to_mixed() {
        let mut tallies = StageTallies::default();
        tallies.record(&sample(&[("conv", 100, 1)], "scalar"));
        tallies.record(&sample(&[("linear", 100, 1)], "scalar"));
        assert_eq!(tallies.stages[0].kind, MIXED_KIND);
    }

    #[test]
    fn stage_overflow_is_counted_not_lost() {
        let mut s = StageSample::new();
        for _ in 0..MAX_STAGES + 3 {
            s.record_stage("conv", 10, 1);
        }
        assert_eq!(s.stages(), MAX_STAGES);
        assert_eq!(s.truncated, 3);
        let mut tallies = StageTallies::default();
        tallies.record(&s);
        assert_eq!(tallies.truncated, 3);
    }

    #[test]
    fn folded_lines_follow_the_flamegraph_format() {
        let mut tallies = StageTallies::default();
        tallies.record(&sample(
            &[("conv", 1_234_000, 9), ("linear", 500_000, 3)],
            "avx2",
        ));
        let folded = tallies.folded();
        let lines: Vec<&str> = folded.lines().collect();
        assert_eq!(lines[0], "serve;forward;stage.0.conv 1234");
        assert_eq!(lines[1], "serve;forward;stage.1.linear 500");
    }

    #[test]
    fn scratch_reset_is_cheap_and_complete() {
        let mut s = sample(&[("conv", 100, 1)], "avx2");
        s.truncated = 7;
        s.reset();
        assert_eq!(s.stages(), 0);
        assert_eq!(s.truncated, 0);
        assert_eq!(s.path(), "");
        assert!(s.stage(0).is_none());
    }
}
