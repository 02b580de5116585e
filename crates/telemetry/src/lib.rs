//! Structured telemetry for the FLightNN reproduction — zero
//! dependencies, `std` only.
//!
//! The paper's runtime claims (Algorithm 1 convergence, per-filter `k_i`
//! distributions, shift/add op counts vs fixed-point) are only debuggable
//! when the training loop and the integer kernels can report what they
//! are doing. This crate is the reporting layer:
//!
//! * [`Event`] — one telemetry record: name, kind, value, unit, a
//!   monotonic timestamp (µs since the process trace epoch, see
//!   [`trace_now_us`]), optional span id, optional histogram buckets.
//! * [`TelemetrySink`] — where events go. Three built-in sinks:
//!   [`NullSink`] (default; disabled, zero overhead), [`StderrSink`]
//!   (human-readable lines), and [`JsonlSink`] (append-only JSON Lines
//!   file). [`CollectingSink`] buffers events in memory for tests, and
//!   [`PrefixSink`] renames events for per-worker attribution (built
//!   via [`Telemetry::with_prefix`]).
//! * [`Telemetry`] — a cheap, clonable handle (`Arc<dyn TelemetrySink>`)
//!   threaded through config structs. Every emitting method early-returns
//!   without allocating when the sink is disabled, so instrumented hot
//!   paths cost one virtual call on the null sink.
//! * [`Span`] — a scoped wall-clock timer: emits `span_start` on
//!   creation and `span_end` with the elapsed seconds on drop.
//! * [`FixedHistogram`] — a fixed-bucket histogram (e.g. the per-filter
//!   shift-count distribution `k_i`).
//! * [`Log2Histogram`] — a mergeable log2-bucketed latency histogram
//!   (HDR-style): per-worker shards record independently and merge
//!   bit-identically into the whole-run distribution, with percentile
//!   reads within one bucket (~9%) of exact.
//! * [`Windowed`] — a rolling window over any mergeable payload
//!   ([`WindowMerge`]): a ring of epoch-stamped buckets with exact
//!   expiry and the same bit-identical shard-merge property, so a
//!   server can report 1 s / 10 s / 60 s QPS and percentiles from
//!   per-worker shards.
//! * [`Sharded`] — per-worker `Mutex` shards of a [`WindowMerge`]
//!   payload, each a lifetime total plus a 60 s [`Windowed`] ring, with
//!   bit-identical snapshot merges and poison-tolerant locks. Serve
//!   stats and the stage profiler are both built on it.
//! * [`StageProf`] — an always-on sampling per-layer profiler for the
//!   serving hot path: a fixed allocation-free [`StageSample`] scratch
//!   per worker, deterministic 1-in-N request selection ([`sampled`]),
//!   sharded windowed aggregation, and folded-stack flamegraph export.
//! * [`frame`] — the serve protocol's wire format: the length-prefixed
//!   framing ([`write_frame`] / [`read_frame`]), the `ok`/`error`/`retry`
//!   reply envelope, and the one blocking client ([`frame::WireClient`])
//!   that `flight_serve::ServeClient` and `flightctl top` share.
//! * [`json`] — a minimal JSON value with render *and* parse, shared by
//!   the JSONL sink, the bench run manifests, the serve protocol, and the
//!   tests that validate them; parsing refuses nesting deeper than
//!   [`json::MAX_DEPTH`], so hostile input cannot exhaust the stack.
//! * [`track`] — the `kernel.worker.<ww>.` naming convention that pins
//!   parallel producers to timeline tracks ([`worker_prefix`] on the
//!   write side, [`parse_worker`] in `flightctl export`).
//!
//! # Environment contract
//!
//! [`Telemetry::from_env`] reads `FLIGHT_TELEMETRY`:
//!
//! | Value                | Sink |
//! |----------------------|------|
//! | unset / `""` / `null` / `none` / `off` | [`NullSink`] |
//! | `stderr`             | [`StderrSink`] |
//! | `jsonl:<path>`       | [`JsonlSink`] appending to `<path>` |
//!
//! Unknown values (and unopenable JSONL paths) warn once on stderr and
//! fall back to the null sink, so a typo never aborts a long training
//! run.
//!
//! # Example
//!
//! ```
//! use flight_telemetry::{CollectingSink, EventKind, Telemetry};
//! use std::sync::Arc;
//!
//! let sink = Arc::new(CollectingSink::new());
//! let telemetry = Telemetry::new(sink.clone());
//! {
//!     let _span = telemetry.span("train.epoch");
//!     telemetry.gauge("train.epoch.loss", 0.25, "");
//! }
//! let events = sink.events();
//! assert_eq!(events.len(), 3); // span_start, gauge, span_end
//! assert_eq!(events[2].kind, EventKind::SpanEnd);
//! ```

pub mod event;
pub mod frame;
pub mod hist;
pub mod json;
pub mod jsonl;
pub mod log2hist;
pub mod sharded;
pub mod sink;
pub mod stageprof;
pub mod track;
pub mod windowed;

mod handle;

pub use event::{Event, EventKind};
pub use frame::{read_frame, write_frame, MAX_FRAME};
pub use handle::{trace_now_us, Span, Telemetry};
pub use hist::FixedHistogram;
pub use jsonl::JsonlSink;
pub use log2hist::{bucket_upper, Log2Histogram, SUB_BUCKETS_PER_OCTAVE};
pub use sharded::{Sharded, WINDOWS};
pub use sink::{CollectingSink, NullSink, PrefixSink, StderrSink, TelemetrySink};
pub use stageprof::{
    sampled, StageProf, StageSample, StageStat, StageTallies, DEFAULT_SAMPLE_EVERY, MAX_STAGES,
};
pub use track::{
    parse_request_track, parse_worker, request_prefix, worker_prefix, REQUEST_TRACK_PREFIX,
    WORKER_TRACK_PREFIX,
};
pub use windowed::{WindowMerge, Windowed};
