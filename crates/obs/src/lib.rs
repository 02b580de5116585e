//! Trace analysis for the FLightNN reproduction — the read side of
//! [`flight_telemetry`].
//!
//! Every run in this workspace can write a JSONL telemetry trace
//! (`FLIGHT_TELEMETRY=jsonl:run.jsonl`) — one event per line, one shape
//! for every reader below. This crate turns those traces, and a running
//! server's live verbs, back into answers through the `flightctl`
//! binary:
//!
//! * `flightctl summarize <trace>` — span table (count, total/self
//!   time, p50/p95/max), top op counters, final `k_i` histogram, and
//!   threshold trajectories ([`summarize`]).
//! * `flightctl health <trace>` — drift/saturation/clamp-rate and
//!   training-dynamics (gradient-norm, L_reg-stagnation) checks over
//!   the training signals ([`health`]).
//! * `flightctl export <trace> --format chrome` — the trace as Chrome
//!   trace-event JSON for Perfetto / `chrome://tracing`, one track per
//!   parallel worker ([`export`]).
//! * `flightctl watch <trace>` — tail a live trace and render a
//!   terminal dashboard with sparkline trends; degrades to a plain
//!   one-shot report off a TTY ([`watch`]).
//! * `flightctl top <addr>` — live serving dashboard over a running
//!   flight-serve server's `stats`/`exemplars` verbs, with SLO
//!   burn-rate health rules that gate the exit code ([`top`]).
//! * `flightctl profile <addr>` — live per-layer profile of the same
//!   server via its `profile` verb: every compiled stage's share of
//!   forward wall time, p50/p99, ops/sec and the resolved kernel
//!   dispatch path, hottest first ([`profile`]); `flightctl export
//!   --format folded` turns a saved snapshot into flamegraph folded
//!   stacks ([`export::export_folded`]).
//!
//! `watch`, `top`, and `profile` share the follow/once TTY loop in
//! [`tick`].
//!
//! `summarize` and `health` also speak `--json` for CI gates.
//!
//! Readers never trust the file: malformed lines (crash-truncated
//! tails included) are skipped and counted ([`trace`]), and span-tree
//! reconstruction tolerates unclosed spans and interleaved workers
//! ([`tree`]).

pub mod cli;
pub mod export;
pub mod health;
pub mod profile;
pub mod summarize;
pub mod tick;
pub mod top;
pub mod trace;
pub mod tree;
pub mod watch;

pub use cli::{parse_cli, ParsedArgs, EXIT_FAIL, EXIT_OK, EXIT_USAGE};
pub use export::{export_chrome, export_folded, ExportStats};
pub use health::{health, HealthReport};
pub use profile::{profile, ProfileOptions, ProfileState};
pub use summarize::{summarize, summarize_json};
pub use tick::{run_ticks, sparkline, Series, TickOptions, TickStep};
pub use top::{top, TopOptions, TopState};
pub use trace::{parse_trace, read_trace, Trace, TraceEvent};
pub use tree::{SpanStats, SpanSummary};
pub use watch::{watch, TailReader, WatchOptions, WatchState};
