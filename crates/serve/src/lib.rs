//! flight-serve: an inference service for compiled FLightNN engines.
//!
//! The FLightNN papers optimize single-image latency; this crate turns
//! the compiled engine into something a deployment can actually sit
//! behind: a TCP server speaking a length-framed JSON protocol
//! ([`protocol`]), with
//!
//! - **dynamic batching** ([`batcher`]) — single-image requests arriving
//!   within a short window coalesce into one forward call. Because the
//!   engine quantizes activations with per-image scales, batched answers
//!   are bit-identical to solo answers; batching trades a bounded wait
//!   for throughput, never accuracy.
//! - **hot model swap** ([`swap`]) — a `swap` op builds a new model off
//!   the serving path and publishes it atomically; in-flight batches
//!   finish on the version they started with.
//! - **backpressure** — the request queue is bounded; beyond it the
//!   server answers `overloaded` + `retry` instead of queueing without
//!   limit.
//! - **per-phase latency accounting** ([`stats`]) — queue wait, batch
//!   forming, compute, and reply write are measured per request into
//!   [`Log2Histogram`](flight_telemetry::Log2Histogram)s, sharded per
//!   worker (lock-free hot path, bit-identical snapshot merge) with
//!   lifetime totals *and* rolling 1 s / 10 s / 60 s windows, exposed
//!   over the `stats` op and through telemetry.
//! - **request tracing** ([`exemplar`]) — every request carries a
//!   monotonically increasing `request_id` (echoed to the client); the
//!   slowest-N request timelines are kept as exemplars, fetched via the
//!   `exemplars` op, and exportable as per-request Perfetto tracks
//!   through `flightq exemplars` + `flightctl export`.
//! - **continuous per-layer profiling** — 1-in-N sampled requests run a
//!   profiled forward that fills a fixed allocation-free
//!   [`StageSample`](flight_telemetry::StageSample) with per-stage wall
//!   time, op totals, and the resolved kernel dispatch path, flushed
//!   into a per-worker [`StageProf`](flight_telemetry::StageProf)
//!   shard. The `profile` op returns per-layer p50/p99, time share, and
//!   ops/sec (lifetime + rolling windows); `flightctl top` renders
//!   the chosen window's stage table live and `flightctl export
//!   --format folded` emits flamegraph folded stacks.
//!
//! The server is built directly on the request-first engine API: one
//! shared [`CompiledNet`](flight_kernels::CompiledNet) snapshot per
//! published model, one private [`ExecCtx`](flight_kernels::ExecCtx)
//! per compute worker.
//!
//! Quick tour:
//!
//! ```
//! use flight_serve::{ModelSpec, ServeClient, Server, ServerConfig};
//!
//! let mut server = Server::start(ServerConfig::default(), ModelSpec::default()).unwrap();
//! let mut client = ServeClient::connect(&server.local_addr().to_string()).unwrap();
//! let image = vec![0.5; ModelSpec::default().input_len()];
//! let reply = client.infer(&image).unwrap();
//! assert_eq!(reply.version, 1);
//! assert_eq!(reply.logits.len(), 10);
//! server.stop();
//! ```

pub mod batcher;
pub mod client;
pub mod exemplar;
pub mod model;
pub mod protocol;
pub mod server;
pub mod stats;
pub mod swap;

pub use batcher::BatchPolicy;
pub use client::{InferOk, ServeClient, ServeError};
pub use exemplar::{exemplars_to_jsonl, Exemplar, ExemplarRing};
pub use model::{ModelSpec, ServingModel};
pub use server::{Server, ServerConfig};
pub use stats::ServeStats;
pub use swap::EngineSlot;
