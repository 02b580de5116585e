//! Live serving dashboard: `flightctl top <addr>`.
//!
//! Polls a running flight-serve server over its own wire protocol (the
//! `stats` and `exemplars` verbs) and renders the signals an operator
//! watches during a deploy: windowed QPS and p99 with sparkline trends,
//! reject/error rates, queue depth, batch-size behaviour, the serving
//! model version, and the slowest-request exemplar table. The follow
//! and once modes come from the shared tick loop ([`run_ticks`]) —
//! `top` is `watch` pointed at a server instead of a trace file.
//!
//! # SLO health rules
//!
//! `top` doubles as a deploy gate. Two rules, both optional, both
//! evaluated over the chosen stats window (default 10 s):
//!
//! * **Latency**: `--slo-p99-ms <ms>` breaches when the window's e2e
//!   p99 exceeds the bound.
//! * **Error budget**: `--error-budget <fraction>` breaches when the
//!   window's burn rate — `error_rate / budget`, the multiple of the
//!   allowed error fraction currently being consumed — reaches 1.
//!
//! [`top`] returns the final [`TopState`]; `flightctl` exits nonzero
//! when its `breaches` is non-empty (or the server was unreachable), so
//! `flightctl top --once --slo-p99-ms 50 --error-budget 0.01 <addr>`
//! is a shell-scriptable health check.
//!
//! The protocol client here is deliberately minimal (one frame write,
//! one frame read): flight-serve depends on this crate for its CLI
//! plumbing, so `top` cannot use `flight_serve::ServeClient` without a
//! dependency cycle. Both sides frame through the shared codec in
//! [`flight_telemetry::frame`].

use std::io::Write;
use std::net::TcpStream;
use std::time::Duration;

use flight_telemetry::json::{JsonObject, JsonValue};
use flight_telemetry::{read_frame, write_frame};

use crate::tick::{run_ticks, sparkline, Series, TickOptions, TickStep};

/// Follow mode gives up after this many consecutive failed polls (the
/// server shut down, not a transient hiccup).
const MAX_CONSECUTIVE_FAILURES: u32 = 5;

/// How many exemplar rows the dashboard lists.
const MAX_EXEMPLAR_ROWS: usize = 8;

/// The stats windows a server reports, by label.
pub const WINDOW_LABELS: [&str; 3] = ["1s", "10s", "60s"];

/// What `top` watches and gates on.
#[derive(Debug, Clone)]
pub struct TopOptions {
    /// The shared follow/once + interval + idle-exit knobs.
    pub tick: TickOptions,
    /// Stats window the dashboard headlines and the SLO rules read.
    /// One of [`WINDOW_LABELS`].
    pub window: String,
    /// Breach when the window's e2e p99 exceeds this bound (ms).
    pub slo_p99_ms: Option<f64>,
    /// Allowed error fraction; breach when `error_rate / budget >= 1`.
    pub error_budget: Option<f64>,
}

impl Default for TopOptions {
    fn default() -> Self {
        TopOptions {
            tick: TickOptions::default(),
            window: "10s".to_string(),
            slo_p99_ms: None,
            error_budget: None,
        }
    }
}

/// One poll's worth of server truth, plus the trends folded so far.
#[derive(Debug)]
pub struct TopState {
    /// Successful polls so far.
    pub polls: u64,
    /// Consecutive failed polls (resets on success).
    pub consecutive_failures: u32,
    /// Last poll's error, if it failed.
    pub last_error: Option<String>,
    /// Serving model version from the last successful poll.
    pub version: u64,
    /// Queue depth from the last successful poll.
    pub queue_depth: u64,
    /// The last `stats` payload.
    pub stats: JsonValue,
    /// The last `exemplars` payload (slowest first).
    pub exemplars: JsonValue,
    /// The last `profile` payload (`Null` when the server does not
    /// speak the verb — the dashboard degrades gracefully).
    pub profile: JsonValue,
    /// Windowed QPS trend.
    pub qps: Series,
    /// Windowed e2e p99 trend, ms.
    pub p99_ms: Series,
    /// SLO rules currently breached (empty = healthy). Human-readable,
    /// one line per rule.
    pub breaches: Vec<String>,
}

impl Default for TopState {
    fn default() -> Self {
        TopState {
            polls: 0,
            consecutive_failures: 0,
            last_error: None,
            version: 0,
            queue_depth: 0,
            stats: JsonValue::Null,
            exemplars: JsonValue::Array(Vec::new()),
            profile: JsonValue::Null,
            qps: Series::default(),
            p99_ms: Series::default(),
            breaches: Vec::new(),
        }
    }
}

/// A minimal protocol round-trip: connect, send `{"op": <op>}`, read
/// one reply frame. Reconnects per call — at dashboard poll rates
/// (default 1 s) that costs nothing and survives server restarts.
/// Shared with the `profile` dashboard ([`crate::profile`]).
pub(crate) fn round_trip(addr: &str, op: &str) -> Result<JsonValue, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .map_err(|e| format!("socket: {e}"))?;
    let payload = JsonObject::new().field("op", op).build().render();
    write_frame(&mut stream, payload.as_bytes()).map_err(|e| format!("send: {e}"))?;
    let reply = read_frame(&mut stream)
        .map_err(|e| format!("recv: {e}"))?
        .ok_or_else(|| "recv: connection closed".to_string())?;
    let text = std::str::from_utf8(&reply).map_err(|_| "reply is not UTF-8".to_string())?;
    let root = JsonValue::parse(text).map_err(|e| format!("reply is not JSON: {e}"))?;
    if root.get("ok") != Some(&JsonValue::Bool(true)) {
        return Err(root
            .get("error")
            .and_then(JsonValue::as_str)
            .unwrap_or("server said not-ok")
            .to_string());
    }
    Ok(root)
}

pub(crate) fn num(v: Option<&JsonValue>) -> f64 {
    v.and_then(JsonValue::as_f64).unwrap_or(0.0)
}

impl TopState {
    /// Folds one poll of the server into the state. On failure the old
    /// readings stick around (stale but labelled) and the failure
    /// streak grows. The third element is the optional `profile` reply
    /// — `None` (server predates the verb, or the poll raced a restart)
    /// keeps the dashboard running without the hot-stage line.
    pub fn observe_poll(
        &mut self,
        polled: Result<(JsonValue, JsonValue, Option<JsonValue>), String>,
        opts: &TopOptions,
    ) {
        match polled {
            Ok((stats_reply, exemplars_reply, profile_reply)) => {
                self.polls += 1;
                self.consecutive_failures = 0;
                self.last_error = None;
                self.version = num(stats_reply.get("version")) as u64;
                let stats = stats_reply.get("stats").cloned().unwrap_or(JsonValue::Null);
                self.queue_depth = num(stats.get("queue_depth")) as u64;
                let window = stats.get("windows").and_then(|w| w.get(&opts.window));
                self.qps.push(num(window.and_then(|w| w.get("qps"))));
                self.p99_ms.push(num(window
                    .and_then(|w| w.get("latency_ms"))
                    .and_then(|l| l.get("e2e"))
                    .and_then(|e| e.get("p99"))));
                self.stats = stats;
                self.exemplars = exemplars_reply
                    .get("exemplars")
                    .cloned()
                    .unwrap_or(JsonValue::Array(Vec::new()));
                self.profile = profile_reply
                    .and_then(|p| p.get("profile").cloned())
                    .unwrap_or(JsonValue::Null);
                self.evaluate_slo(opts);
            }
            Err(e) => {
                self.consecutive_failures += 1;
                self.last_error = Some(e);
            }
        }
    }

    /// Re-derives `breaches` from the current window readings.
    fn evaluate_slo(&mut self, opts: &TopOptions) {
        self.breaches.clear();
        let window = self.stats.get("windows").and_then(|w| w.get(&opts.window));
        if let Some(bound) = opts.slo_p99_ms {
            let p99 = num(window
                .and_then(|w| w.get("latency_ms"))
                .and_then(|l| l.get("e2e"))
                .and_then(|e| e.get("p99")));
            if p99 > bound {
                self.breaches.push(format!(
                    "p99 {p99:.3}ms exceeds --slo-p99-ms {bound} over {}",
                    opts.window
                ));
            }
        }
        if let Some(budget) = opts.error_budget {
            let burn = self.burn_rate(opts);
            if burn >= 1.0 {
                self.breaches.push(format!(
                    "burn rate {burn:.2} (error rate {:.4} vs budget {budget}) over {}",
                    num(window.and_then(|w| w.get("error_rate"))),
                    opts.window
                ));
            }
        }
    }

    /// The window's `error_rate / error_budget` — how many times over
    /// budget the server currently is. 0 when no budget is set.
    pub fn burn_rate(&self, opts: &TopOptions) -> f64 {
        let Some(budget) = opts.error_budget else {
            return 0.0;
        };
        if budget <= 0.0 {
            return f64::INFINITY;
        }
        let rate = num(self
            .stats
            .get("windows")
            .and_then(|w| w.get(&opts.window))
            .and_then(|w| w.get("error_rate")));
        rate / budget
    }

    /// True when the dashboard never managed a single successful poll.
    pub fn never_connected(&self) -> bool {
        self.polls == 0
    }
}

/// One line naming the layer the forward pass spends most of its time
/// in, from the `profile` verb's lifetime stages. `None` when the
/// server has no profile (older server, sampling disabled, or no
/// sampled forward yet).
fn hot_stage_line(profile: &JsonValue) -> Option<String> {
    let stages = profile.get("stages").and_then(JsonValue::as_array)?;
    let hottest = stages
        .iter()
        .filter(|s| num(s.get("samples")) > 0.0)
        .max_by(|a, b| {
            num(a.get("time_share"))
                .partial_cmp(&num(b.get("time_share")))
                .unwrap_or(std::cmp::Ordering::Equal)
        })?;
    let kind = hottest
        .get("kind")
        .and_then(JsonValue::as_str)
        .unwrap_or("stage");
    let every = num(profile.get("sample_every")) as u64;
    Some(format!(
        "hot stage: stage.{}.{kind}  {:.1}% of forward  p99 {} ms  (sampled 1/{every}, {} forwards)\n",
        num(hottest.get("index")) as u64,
        num(hottest.get("time_share")) * 100.0,
        fmt_ms(num(hottest.get("wall_ms").and_then(|w| w.get("p99")))),
        num(profile.get("forwards")) as u64,
    ))
}

pub(crate) fn fmt_ms(v: f64) -> String {
    if v >= 100.0 {
        format!("{v:.0}")
    } else if v >= 1.0 {
        format!("{v:.2}")
    } else {
        format!("{v:.3}")
    }
}

/// Renders the dashboard body (no cursor control — the tick loop adds
/// that in follow mode).
pub fn render(addr: &str, state: &TopState, opts: &TopOptions) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "top: {addr}  model v{}  queue {}  polls {}\n",
        state.version, state.queue_depth, state.polls
    ));
    if let Some(e) = &state.last_error {
        out.push_str(&format!(
            "poll failed ({} in a row): {e}\n",
            state.consecutive_failures
        ));
        if state.never_connected() {
            return out;
        }
        out.push_str("showing last good readings:\n");
    }

    let lifetime = &state.stats;
    out.push_str(&format!(
        "lifetime: {} requests / {} batches ({} rejected, {} errors, mean batch {:.2})\n",
        num(lifetime.get("requests")) as u64,
        num(lifetime.get("batches")) as u64,
        num(lifetime.get("rejected")) as u64,
        num(lifetime.get("errors")) as u64,
        num(lifetime.get("mean_batch")),
    ));

    // One line per window; the chosen one carries the latency detail.
    for label in WINDOW_LABELS {
        let Some(w) = state.stats.get("windows").and_then(|ws| ws.get(label)) else {
            continue;
        };
        let marker = if label == opts.window { '*' } else { ' ' };
        let mut line = format!(
            "{marker}{label:>4}: qps {:>8.1}  reject {:>5.2}%  error {:>5.2}%  batch {:.2}",
            num(w.get("qps")),
            num(w.get("reject_rate")) * 100.0,
            num(w.get("error_rate")) * 100.0,
            num(w.get("mean_batch")),
        );
        if label == opts.window {
            let lat = w.get("latency_ms").and_then(|l| l.get("e2e"));
            line.push_str(&format!(
                "  e2e ms p50 {} p99 {} p999 {}",
                fmt_ms(num(lat.and_then(|l| l.get("p50")))),
                fmt_ms(num(lat.and_then(|l| l.get("p99")))),
                fmt_ms(num(lat.and_then(|l| l.get("p999")))),
            ));
        }
        line.push('\n');
        out.push_str(&line);
    }

    if !state.qps.is_empty() {
        out.push_str(&format!(
            "trend qps   {:>8.1}  {}\n",
            state.qps.last().unwrap_or(0.0),
            sparkline(state.qps.values())
        ));
        out.push_str(&format!(
            "trend p99ms {:>8}  {}\n",
            fmt_ms(state.p99_ms.last().unwrap_or(0.0)),
            sparkline(state.p99_ms.values())
        ));
    }

    if let Some(line) = hot_stage_line(&state.profile) {
        out.push_str(&line);
    }

    if let Some(rows) = state.exemplars.as_array() {
        if !rows.is_empty() {
            out.push_str("slowest requests (server exemplars):\n");
            out.push_str("  request       e2e_ms   batch  ver  queue/form/compute/write ms\n");
            for row in rows.iter().take(MAX_EXEMPLAR_ROWS) {
                let phase = |name: &str| num(row.get("phases").and_then(|p| p.get(name))) / 1e3;
                out.push_str(&format!(
                    "  {:>9}  {:>9}  {:>5}  {:>3}  {} / {} / {} / {}\n",
                    num(row.get("request_id")) as u64,
                    fmt_ms(num(row.get("e2e_us")) / 1e3),
                    num(row.get("batch")) as u64,
                    num(row.get("version")) as u64,
                    fmt_ms(phase("queue_us")),
                    fmt_ms(phase("batch_form_us")),
                    fmt_ms(phase("compute_us")),
                    fmt_ms(phase("reply_write_us")),
                ));
            }
        }
    }

    if opts.slo_p99_ms.is_some() || opts.error_budget.is_some() {
        if state.breaches.is_empty() {
            out.push_str(&format!("slo: OK over {}", opts.window));
            if opts.error_budget.is_some() {
                out.push_str(&format!(" (burn rate {:.2})", state.burn_rate(opts)));
            }
            out.push('\n');
        } else {
            for breach in &state.breaches {
                out.push_str(&format!("slo BREACH: {breach}\n"));
            }
        }
    }
    out
}

/// Polls `addr` per `opts`, writing dashboard frames to `out`, and
/// returns the final state — `flightctl` exits nonzero when
/// `breaches` is non-empty or the server was never reachable.
///
/// In follow mode the loop stops on idle-exit or after
/// [`MAX_CONSECUTIVE_FAILURES`] straight failed polls (a stopped server
/// should end the dashboard, not wedge it).
///
/// # Errors
///
/// Propagates I/O errors writing frames. Server unreachability is not
/// an `Err` — it is rendered, counted, and reflected in the returned
/// state so once mode can report it with a breach-style exit.
pub fn top(addr: &str, opts: &TopOptions, out: &mut impl Write) -> std::io::Result<TopState> {
    let mut state = TopState::default();
    run_ticks(&opts.tick, out, || {
        let polled = round_trip(addr, "stats").and_then(|stats| {
            round_trip(addr, "exemplars")
                // The profile verb is optional: older servers (or ones
                // with profiling disabled) still get a full dashboard.
                .map(|ex| (stats, ex, round_trip(addr, "profile").ok()))
        });
        let progressed = polled.is_ok();
        state.observe_poll(polled, opts);
        Ok(TickStep {
            body: render(addr, &state, opts),
            progressed,
            stop: state.consecutive_failures >= MAX_CONSECUTIVE_FAILURES,
        })
    })?;
    Ok(state)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds a plausible `stats` reply for the poll-folding tests.
    fn stats_reply(qps: f64, p99: f64, error_rate: f64) -> JsonValue {
        let window = |q: f64| {
            JsonObject::new()
                .field("qps", q)
                .field("reject_rate", 0.0)
                .field("error_rate", error_rate)
                .field("mean_batch", 3.0)
                .field(
                    "latency_ms",
                    JsonObject::new()
                        .field(
                            "e2e",
                            JsonObject::new()
                                .field("p50", p99 / 2.0)
                                .field("p99", p99)
                                .field("p999", p99 * 1.5)
                                .build(),
                        )
                        .build(),
                )
                .build()
        };
        JsonObject::new()
            .field("ok", true)
            .field("version", 3u64)
            .field(
                "stats",
                JsonObject::new()
                    .field("requests", 100u64)
                    .field("batches", 40u64)
                    .field("rejected", 1u64)
                    .field("errors", 2u64)
                    .field("mean_batch", 2.5)
                    .field("queue_depth", 7u64)
                    .field(
                        "windows",
                        JsonObject::new()
                            .field("1s", window(qps * 1.1))
                            .field("10s", window(qps))
                            .field("60s", window(qps * 0.9))
                            .build(),
                    )
                    .build(),
            )
            .build()
    }

    /// Builds a plausible `profile` reply (two stages, conv hottest).
    fn profile_reply() -> JsonValue {
        let stage = |index: u64, kind: &str, share: f64| {
            JsonObject::new()
                .field("index", index)
                .field("kind", kind)
                .field("samples", 12u64)
                .field("time_share", share)
                .field("wall_total_us", share * 1000.0)
                .field(
                    "wall_ms",
                    JsonObject::new()
                        .field("p50", 0.4)
                        .field("p99", 0.9)
                        .build(),
                )
                .field("ops", 5000u64)
                .field("ops_per_sec", 1e6)
                .build()
        };
        JsonObject::new()
            .field("ok", true)
            .field(
                "profile",
                JsonObject::new()
                    .field("sample_every", 16u64)
                    .field("forwards", 12u64)
                    .field(
                        "stages",
                        vec![stage(0, "conv", 0.7), stage(1, "linear", 0.3)],
                    )
                    .build(),
            )
            .build()
    }

    fn exemplars_reply() -> JsonValue {
        let phases = JsonObject::new()
            .field("queue_us", 1000u64)
            .field("batch_form_us", 200u64)
            .field("compute_us", 5000u64)
            .field("reply_write_us", 300u64)
            .build();
        JsonObject::new()
            .field("ok", true)
            .field(
                "exemplars",
                vec![JsonObject::new()
                    .field("request_id", 42u64)
                    .field("version", 3u64)
                    .field("batch", 4u64)
                    .field("start_us", 0u64)
                    .field("e2e_us", 6500u64)
                    .field("phases", phases)
                    .build()],
            )
            .build()
    }

    #[test]
    fn polls_fold_into_trends_and_render() {
        let opts = TopOptions::default();
        let mut state = TopState::default();
        state.observe_poll(
            Ok((
                stats_reply(100.0, 4.0, 0.0),
                exemplars_reply(),
                Some(profile_reply()),
            )),
            &opts,
        );
        state.observe_poll(
            Ok((
                stats_reply(120.0, 5.0, 0.0),
                exemplars_reply(),
                Some(profile_reply()),
            )),
            &opts,
        );
        assert_eq!(state.polls, 2);
        assert_eq!(state.version, 3);
        assert_eq!(state.queue_depth, 7);
        assert_eq!(state.qps.values(), &[100.0, 120.0]);
        assert_eq!(state.p99_ms.values(), &[4.0, 5.0]);
        assert!(state.breaches.is_empty(), "no rules configured");

        let text = render("127.0.0.1:9", &state, &opts);
        assert!(text.contains("model v3"), "{text}");
        assert!(text.contains("queue 7"), "{text}");
        assert!(text.contains("* 10s:"), "chosen window marked: {text}");
        assert!(text.contains("trend qps"), "{text}");
        assert!(text.contains("slowest requests"), "{text}");
        assert!(text.contains("42"), "exemplar id listed: {text}");
        assert!(
            text.contains("hot stage: stage.0.conv"),
            "profile poll surfaces the hottest layer: {text}"
        );
        assert!(text.contains("sampled 1/16"), "{text}");
        assert!(!text.contains('\x1b'), "plain render has no ANSI escapes");
    }

    #[test]
    fn slo_rules_breach_on_p99_and_burn_rate() {
        let opts = TopOptions {
            slo_p99_ms: Some(3.0),
            error_budget: Some(0.01),
            ..TopOptions::default()
        };
        let mut state = TopState::default();
        // p99 5ms > 3ms bound; error rate 0.05 / budget 0.01 = burn 5.
        state.observe_poll(
            Ok((stats_reply(50.0, 5.0, 0.05), exemplars_reply(), None)),
            &opts,
        );
        assert_eq!(state.breaches.len(), 2, "{:?}", state.breaches);
        assert!((state.burn_rate(&opts) - 5.0).abs() < 1e-9);
        let text = render("x", &state, &opts);
        assert!(text.contains("slo BREACH"), "{text}");

        // Healthy readings clear the breaches.
        state.observe_poll(
            Ok((stats_reply(50.0, 1.0, 0.001), exemplars_reply(), None)),
            &opts,
        );
        assert!(state.breaches.is_empty(), "{:?}", state.breaches);
        assert!(render("x", &state, &opts).contains("slo: OK"));
    }

    #[test]
    fn failed_polls_keep_last_readings_and_count_the_streak() {
        let opts = TopOptions::default();
        let mut state = TopState::default();
        state.observe_poll(
            Ok((stats_reply(100.0, 4.0, 0.0), exemplars_reply(), None)),
            &opts,
        );
        state.observe_poll(Err("connect refused".to_string()), &opts);
        state.observe_poll(Err("connect refused".to_string()), &opts);
        assert_eq!(state.consecutive_failures, 2);
        assert!(!state.never_connected());
        let text = render("x", &state, &opts);
        assert!(text.contains("poll failed (2 in a row)"), "{text}");
        assert!(text.contains("last good readings"), "{text}");
        assert!(text.contains("qps"), "stale readings still shown: {text}");
    }

    #[test]
    fn unreachable_server_ends_follow_mode_and_reports_never_connected() {
        // Port 1 on localhost: connection refused immediately.
        let opts = TopOptions {
            tick: TickOptions {
                follow: true,
                interval_ms: 1,
                idle_exit_ms: None,
            },
            ..TopOptions::default()
        };
        let mut out = Vec::new();
        let state = top("127.0.0.1:1", &opts, &mut out).unwrap();
        assert!(state.never_connected());
        assert_eq!(state.consecutive_failures, MAX_CONSECUTIVE_FAILURES);
        let text = String::from_utf8_lossy(&out);
        assert!(text.contains("poll failed"), "{text}");
    }

    #[test]
    fn zero_error_budget_is_an_immediate_breach_once_configured() {
        let opts = TopOptions {
            error_budget: Some(0.0),
            ..TopOptions::default()
        };
        let mut state = TopState::default();
        state.observe_poll(
            Ok((stats_reply(10.0, 1.0, 0.0), exemplars_reply(), None)),
            &opts,
        );
        assert!(state.burn_rate(&opts).is_infinite());
        assert_eq!(state.breaches.len(), 1);
    }
}
