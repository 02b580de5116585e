//! Live trace watching: `flightctl watch <trace>`.
//!
//! A multi-epoch training run writes its JSONL trace incrementally (one
//! `write_all` per event — see `flight_telemetry::JsonlSink`), so the
//! file can be tailed while the run is in flight. [`TailReader`] polls
//! the file for complete new lines, carrying a torn final line across
//! polls instead of misparsing it; [`WatchState`] folds the lines into
//! the handful of signals a person babysitting a run actually watches
//! (epoch progress, loss/accuracy/mean-k trends, activation clamp rate,
//! the per-layer gradient-norm and residual-norm gauges the trainer
//! emits); and [`render`] draws them with inline sparklines.
//!
//! Two output modes, chosen by the caller (`flightctl` picks by
//! `stdout().is_terminal()`):
//!
//! * **Follow** — redraw in place with ANSI cursor control, poll until
//!   interrupted (or until `--idle-exit` seconds pass without new
//!   data). For humans.
//! * **Once** — fold whatever the file holds right now and print one
//!   plain report, no escape codes, no waiting. For CI and non-TTY
//!   pipes; a truncated tail is skipped and counted exactly like
//!   `summarize`, and in-flight (unclosed) spans are reported, never
//!   hung on.

use std::collections::HashMap;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use flight_telemetry::EventKind;

use crate::tick::{run_ticks, TickStep};
use crate::trace::{parse_event, TraceEvent};

// The tick machinery (trend series, sparklines, the follow/once loop)
// is shared with `flightctl top`; re-exported here because it grew up
// in this module and callers still import it from `watch`.
pub use crate::tick::{sparkline, Series, TickOptions as WatchOptions, ANSI_REDRAW};

/// How many per-layer training signals the dashboard lists before
/// eliding the rest.
const MAX_SIGNALS: usize = 12;

/// Incremental line reader over a growing JSONL file.
///
/// Each [`poll`](TailReader::poll) returns the *complete* lines
/// appended since the last poll; a partial final line (the writer is
/// mid-`write_all`, or the run was killed) stays buffered until its
/// newline arrives, so a torn tail is never parsed. A file that shrank
/// (rotated or rewritten) resets the reader to the new beginning.
#[derive(Debug)]
pub struct TailReader {
    path: PathBuf,
    offset: u64,
    carry: Vec<u8>,
}

impl TailReader {
    /// A reader positioned at the start of `path` (which may not exist
    /// yet — polls simply return nothing until it does).
    pub fn new(path: impl Into<PathBuf>) -> Self {
        TailReader {
            path: path.into(),
            offset: 0,
            carry: Vec::new(),
        }
    }

    /// Reads everything appended since the last poll and returns the
    /// complete lines. A missing file yields no lines (the run has not
    /// started writing yet); other I/O errors propagate.
    pub fn poll(&mut self) -> std::io::Result<Vec<String>> {
        let mut file = match std::fs::File::open(&self.path) {
            Ok(f) => f,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(e),
        };
        let len = file.metadata()?.len();
        if len < self.offset {
            // Truncated or replaced underneath us: start over.
            self.offset = 0;
            self.carry.clear();
        }
        file.seek(SeekFrom::Start(self.offset))?;
        let mut fresh = Vec::new();
        file.read_to_end(&mut fresh)?;
        self.offset += fresh.len() as u64;
        self.carry.extend_from_slice(&fresh);

        let mut lines = Vec::new();
        while let Some(nl) = self.carry.iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = self.carry.drain(..=nl).collect();
            let text = String::from_utf8_lossy(&line[..line.len() - 1]);
            let text = text.trim();
            if !text.is_empty() {
                lines.push(text.to_string());
            }
        }
        Ok(lines)
    }

    /// Bytes still buffered without a terminating newline — a torn tail
    /// (live writer mid-line, or a killed run's final partial write).
    pub fn torn_tail_bytes(&self) -> usize {
        self.carry.len()
    }
}

/// Everything the dashboard knows about the run so far, folded
/// incrementally from trace lines.
#[derive(Debug, Default)]
pub struct WatchState {
    /// Parsed events seen.
    pub events: u64,
    /// Non-blank lines that failed to parse (torn writes, garbage).
    pub malformed: u64,
    /// `train.epoch` spans that closed.
    pub epochs_completed: u64,
    /// Loss per epoch (`train.epoch.loss`).
    pub loss: Series,
    /// Accuracy per epoch (`train.epoch.accuracy`).
    pub accuracy: Series,
    /// Mean shifts per filter (`train.mean_k`).
    pub mean_k: Series,
    /// Summed `kernel.qact.*.saturated` counters.
    pub clamp_saturated: f64,
    /// Summed `kernel.qact.*.quantized` counters.
    pub clamp_quantized: f64,
    /// Last reading per training-dynamics gauge (`*.grad_norm.*`,
    /// `train.reg.r<j>`, `*.ste.clip_rate`), first-seen order.
    pub signals: Vec<(String, f64)>,
    /// Spans currently open: id → name.
    open_spans: HashMap<u64, String>,
}

impl WatchState {
    /// Folds one trace line; unparseable lines count as malformed.
    pub fn observe_line(&mut self, line: &str) {
        match parse_event(line) {
            Some(event) => self.observe(&event),
            None => self.malformed += 1,
        }
    }

    /// Folds one parsed event.
    pub fn observe(&mut self, event: &TraceEvent) {
        self.events += 1;
        match event.kind {
            EventKind::SpanStart => {
                if let Some(id) = event.span {
                    self.open_spans.insert(id, event.name.clone());
                }
            }
            EventKind::SpanEnd => {
                if let Some(id) = event.span {
                    self.open_spans.remove(&id);
                }
                if event.name.ends_with("train.epoch") {
                    self.epochs_completed += 1;
                }
            }
            EventKind::Gauge => self.observe_reading(event),
            EventKind::Counter => {
                self.observe_reading(event);
                let name = &event.name;
                if name.contains("qact.") && event.value.is_finite() {
                    if name.ends_with(".saturated") {
                        self.clamp_saturated += event.value;
                    } else if name.ends_with(".quantized") {
                        self.clamp_quantized += event.value;
                    }
                }
            }
            EventKind::Histogram | EventKind::Log2Hist | EventKind::Manifest => {}
        }
    }

    fn observe_reading(&mut self, event: &TraceEvent) {
        let name = &event.name;
        if name.ends_with("train.epoch.loss") {
            self.loss.push(event.value);
        } else if name.ends_with("train.epoch.accuracy") {
            self.accuracy.push(event.value);
        } else if name.ends_with("train.mean_k") {
            self.mean_k.push(event.value);
        } else if is_dynamics_signal(name) && event.value.is_finite() {
            match self.signals.iter_mut().find(|(n, _)| n == name) {
                Some((_, slot)) => *slot = event.value,
                None => self.signals.push((name.clone(), event.value)),
            }
        }
    }

    /// Spans started but not yet closed — in-flight stages on a live
    /// run, or the truncated tail of a killed one.
    pub fn unclosed_spans(&self) -> usize {
        self.open_spans.len()
    }

    /// Fraction of quantized activations that hit the clamp ceiling,
    /// when the kernels reported any.
    pub fn clamp_rate(&self) -> Option<f64> {
        (self.clamp_quantized > 0.0).then(|| self.clamp_saturated / self.clamp_quantized)
    }
}

/// The training-dynamics gauges the dashboard lists individually.
fn is_dynamics_signal(name: &str) -> bool {
    name.contains(".grad_norm.") || name.contains("train.reg.") || name.ends_with(".ste.clip_rate")
}

fn fmt_signal(v: f64) -> String {
    if v == 0.0 {
        "0".to_string()
    } else if (1e-3..1e4).contains(&v.abs()) {
        format!("{v:.4}")
    } else {
        format!("{v:.3e}")
    }
}

fn trend_line(label: &str, series: &Series) -> Option<String> {
    let (first, last) = (series.first()?, series.last()?);
    Some(format!(
        "  {label:<9} {} -> {}  {}",
        fmt_signal(first),
        fmt_signal(last),
        sparkline(series.values()),
    ))
}

/// Renders the dashboard body (no cursor control — the follow loop
/// adds that around it).
pub fn render(path: &Path, state: &WatchState) -> String {
    let mut out = String::new();
    out.push_str(&format!("watch: {}\n", path.display()));
    out.push_str(&format!(
        "trace: {} events ({} malformed lines skipped)\n",
        state.events, state.malformed
    ));
    out.push_str(&format!(
        "epochs completed: {}{}\n",
        state.epochs_completed,
        if state.unclosed_spans() > 0 {
            " (run in flight)"
        } else {
            ""
        }
    ));
    let trends: Vec<String> = [
        ("loss", &state.loss),
        ("accuracy", &state.accuracy),
        ("mean_k", &state.mean_k),
    ]
    .into_iter()
    .filter_map(|(label, series)| trend_line(label, series))
    .collect();
    if !trends.is_empty() {
        out.push_str("trends (first -> last):\n");
        for line in trends {
            out.push_str(&line);
            out.push('\n');
        }
    }
    if let Some(rate) = state.clamp_rate() {
        out.push_str(&format!("clamp rate: {:.2}%\n", rate * 100.0));
    }
    if !state.signals.is_empty() {
        out.push_str("training dynamics (last reading):\n");
        for (name, value) in state.signals.iter().take(MAX_SIGNALS) {
            out.push_str(&format!("  {name} = {}\n", fmt_signal(*value)));
        }
        if state.signals.len() > MAX_SIGNALS {
            out.push_str(&format!(
                "  … {} more signals (see summarize)\n",
                state.signals.len() - MAX_SIGNALS
            ));
        }
    }
    if state.unclosed_spans() > 0 {
        out.push_str(&format!(
            "note: {} unclosed span(s) — run in flight or truncated tail\n",
            state.unclosed_spans()
        ));
    }
    out
}

/// Tails `path` per `opts`, writing reports to `out`. Returns the final
/// state (tests assert on it; `flightctl` uses it for the exit code).
/// The follow/once loop itself is [`run_ticks`], shared with
/// `flightctl top`.
///
/// # Errors
///
/// Propagates I/O errors from reading the trace or writing the report.
/// A missing file is an error only in once mode — in follow mode the
/// watcher waits for the file to appear.
pub fn watch(
    path: &Path,
    opts: &WatchOptions,
    out: &mut impl Write,
) -> std::io::Result<WatchState> {
    if !opts.follow && !path.exists() {
        return Err(std::io::Error::new(
            std::io::ErrorKind::NotFound,
            format!("no trace at {}", path.display()),
        ));
    }
    let mut reader = TailReader::new(path);
    let mut state = WatchState::default();
    let once = !opts.follow;
    run_ticks(opts, out, || {
        let lines = reader.poll()?;
        for line in &lines {
            state.observe_line(line);
        }
        // In once mode a torn tail with no newline yet is one malformed
        // line, same as summarize's count on the same file; in follow
        // mode it stays buffered for the next poll.
        if once && reader.torn_tail_bytes() > 0 {
            state.malformed += 1;
        }
        Ok(TickStep {
            body: render(path, &state),
            progressed: !lines.is_empty(),
            stop: false,
        })
    })?;
    Ok(state)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(tag: &str) -> PathBuf {
        use std::sync::atomic::{AtomicU64, Ordering};
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "flight-watch-{tag}-{}-{n}.jsonl",
            std::process::id()
        ))
    }

    fn gauge(seq: u64, name: &str, value: f64) -> String {
        format!(
            r#"{{"seq":{seq},"ts":{seq}.0,"name":"{name}","kind":"gauge","value":{value},"unit":""}}"#
        )
    }

    #[test]
    fn tail_reader_returns_only_complete_lines_across_polls() {
        let path = temp_path("tail");
        std::fs::write(&path, "alpha\nbra").unwrap();
        let mut reader = TailReader::new(&path);
        assert_eq!(reader.poll().unwrap(), vec!["alpha"]);
        assert_eq!(reader.torn_tail_bytes(), 3, "torn tail stays buffered");
        // The writer finishes the line and appends another.
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap();
        f.write_all(b"vo\ncharlie\n").unwrap();
        drop(f);
        assert_eq!(reader.poll().unwrap(), vec!["bravo", "charlie"]);
        assert_eq!(reader.torn_tail_bytes(), 0);
        assert!(reader.poll().unwrap().is_empty(), "no new data, no lines");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn tail_reader_survives_missing_and_shrunk_files() {
        let path = temp_path("shrink");
        let mut reader = TailReader::new(&path);
        assert!(reader.poll().unwrap().is_empty(), "missing file is quiet");
        std::fs::write(&path, "one\ntwo\n").unwrap();
        assert_eq!(reader.poll().unwrap().len(), 2);
        // Rotation: the file is rewritten shorter.
        std::fs::write(&path, "new\n").unwrap();
        assert_eq!(reader.poll().unwrap(), vec!["new"]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn state_folds_epochs_trends_and_dynamics_signals() {
        let mut state = WatchState::default();
        let lines = [
            r#"{"seq":0,"name":"train.epoch","kind":"span_start","value":0,"unit":"s","span":1}"#.to_string(),
            gauge(1, "train.epoch.loss", 0.9),
            gauge(2, "train.epoch.accuracy", 0.4),
            gauge(3, "train.mean_k", 2.0),
            gauge(4, "train.layer.c0.grad_norm.quant", 0.5),
            gauge(5, "train.reg.r1", 12.5),
            r#"{"seq":6,"name":"train.epoch","kind":"span_end","value":1.0,"unit":"s","span":1}"#.to_string(),
            gauge(7, "train.epoch.loss", 0.5),
            r#"{"seq":8,"name":"kernel.qact.relu.saturated","kind":"counter","value":5,"unit":"op"}"#.to_string(),
            r#"{"seq":9,"name":"kernel.qact.relu.quantized","kind":"counter","value":100,"unit":"op"}"#.to_string(),
            "not json".to_string(),
        ];
        for line in &lines {
            state.observe_line(line);
        }
        assert_eq!(state.events, 10);
        assert_eq!(state.malformed, 1);
        assert_eq!(state.epochs_completed, 1);
        assert_eq!(state.loss.values(), &[0.9, 0.5]);
        assert_eq!(state.mean_k.last(), Some(2.0));
        assert_eq!(state.unclosed_spans(), 0);
        assert_eq!(state.clamp_rate(), Some(0.05));
        let signals: Vec<&str> = state.signals.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(
            signals,
            vec!["train.layer.c0.grad_norm.quant", "train.reg.r1"]
        );
    }

    #[test]
    fn render_reports_unclosed_spans_and_trends() {
        let mut state = WatchState::default();
        state.observe_line(
            r#"{"seq":0,"name":"train.epoch","kind":"span_start","value":0,"unit":"s","span":1}"#,
        );
        state.observe_line(&gauge(1, "train.epoch.loss", 0.7));
        state.observe_line(&gauge(2, "train.epoch.loss", 0.3));
        let text = render(Path::new("run.jsonl"), &state);
        assert!(text.contains("1 unclosed span(s)"), "{text}");
        assert!(text.contains("loss"), "{text}");
        assert!(text.contains("0.7000 -> 0.3000"), "{text}");
        assert!(!text.contains('\x1b'), "plain render has no ANSI escapes");
    }

    #[test]
    fn once_mode_reports_a_torn_tail_without_hanging() {
        let path = temp_path("once");
        let body = format!(
            "{}\n{}",
            gauge(0, "train.epoch.loss", 0.9),
            "{\"seq\":1,\"na"
        );
        std::fs::write(&path, body).unwrap();
        let mut out = Vec::new();
        let state = watch(&path, &WatchOptions::default(), &mut out).unwrap();
        assert_eq!(state.events, 1);
        assert_eq!(state.malformed, 1, "the torn tail is counted");
        let text = String::from_utf8(out).unwrap();
        assert!(
            text.contains("1 events (1 malformed lines skipped)"),
            "{text}"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn once_mode_errors_on_a_missing_trace() {
        let err = watch(
            Path::new("/no/such/flight-watch-trace.jsonl"),
            &WatchOptions::default(),
            &mut Vec::new(),
        )
        .unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::NotFound);
    }

    #[test]
    fn follow_mode_idle_exit_terminates() {
        let path = temp_path("follow");
        std::fs::write(&path, gauge(0, "train.epoch.loss", 0.9) + "\n").unwrap();
        let opts = WatchOptions {
            follow: true,
            interval_ms: 10,
            idle_exit_ms: Some(20),
        };
        let mut out = Vec::new();
        let state = watch(&path, &opts, &mut out).unwrap();
        assert_eq!(state.events, 1);
        let text = String::from_utf8_lossy(&out);
        assert!(text.contains(ANSI_REDRAW), "follow mode redraws in place");
        std::fs::remove_file(&path).ok();
    }
}
