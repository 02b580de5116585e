//! `flightctl` — trace analysis and live dashboards.
//!
//! ```text
//! flightctl summarize <trace.jsonl> [--json]
//! flightctl health <trace.jsonl> [--json]
//! flightctl export <trace.jsonl> [--format chrome|folded] [--out <path>]
//! flightctl watch <trace.jsonl> [--once|--follow] [--interval <ms>] [--idle-exit <secs>]
//! flightctl top <addr> [--once|--follow] [--interval <ms>] [--window <1s|10s|60s>]
//!               [--slo-p99-ms <ms>] [--error-budget <frac>]
//! flightctl profile <addr> [--once|--follow] [--interval <ms>]
//!                   [--window <life|1s|10s|60s>]
//! ```
//!
//! Exit codes: `0` success, `1` health warnings or SLO breach, `2` usage
//! or I/O errors. Flag parsing is the shared [`flight_obs::cli`]
//! vocabulary parser — every subcommand accepts both `--flag value` and
//! `--flag=value` and rejects unknown flags.

use std::io::IsTerminal;

use flight_obs::cli::{parse_cli, EXIT_FAIL, EXIT_OK, EXIT_USAGE};
use flight_obs::profile::{profile, ProfileOptions, PROFILE_WINDOW_LABELS};
use flight_obs::tick::TickOptions;
use flight_obs::top::{top, TopOptions, WINDOW_LABELS};
use flight_obs::watch::{watch, WatchOptions};
use flight_obs::{export_chrome, export_folded, health, read_trace, summarize, summarize_json};

const USAGE: &str = "usage:
  flightctl summarize <trace.jsonl> [--json]
  flightctl health <trace.jsonl> [--json]
  flightctl export <trace.jsonl> [--format chrome|folded] [--out <path>]
  flightctl watch <trace.jsonl> [--once|--follow] [--interval <ms>] [--idle-exit <secs>]
  flightctl top <addr> [--once|--follow] [--interval <ms>] [--window <1s|10s|60s>]
                [--slo-p99-ms <ms>] [--error-budget <frac>] [--idle-exit <secs>]
  flightctl profile <addr> [--once|--follow] [--interval <ms>]
                [--window <life|1s|10s|60s>] [--idle-exit <secs>]

inputs are JSONL telemetry traces (FLIGHT_TELEMETRY=jsonl:<path>).
export writes Chrome trace-event JSON for Perfetto / chrome://tracing;
--format folded takes a saved `flightq profile` snapshot instead and
writes flamegraph folded stacks (flamegraph.pl / inferno / speedscope).
watch tails a live trace; it follows on a TTY and prints one plain report otherwise.
profile polls the server's per-layer profiler (the `profile` verb) and
renders every compiled stage's share of forward time, hottest first.
top polls a running flight-serve server's stats/exemplars verbs; with
--slo-p99-ms / --error-budget it exits 1 when the SLO is breached over
the chosen window, so `top --once` doubles as a deploy health gate.
exit codes: 0 ok, 1 warnings/SLO breach, 2 usage or I/O error.";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(run(&args));
}

fn run(args: &[String]) -> i32 {
    match args.first().map(String::as_str) {
        Some("summarize") => cmd_summarize(&args[1..]),
        Some("health") => cmd_health(&args[1..]),
        Some("export") => cmd_export(&args[1..]),
        Some("watch") => cmd_watch(&args[1..]),
        Some("top") => cmd_top(&args[1..]),
        Some("profile") => cmd_profile(&args[1..]),
        Some("-h" | "--help" | "help") => {
            println!("{USAGE}");
            EXIT_OK
        }
        _ => usage_error("missing or unknown subcommand"),
    }
}

fn usage_error(message: &str) -> i32 {
    eprintln!("flightctl: {message}\n{USAGE}");
    EXIT_USAGE
}

fn io_error(path: &str, e: impl std::fmt::Display) -> i32 {
    eprintln!("flightctl: cannot read {path}: {e}");
    EXIT_USAGE
}

/// Parses one-trace-path subcommands (`summarize`, `health`): the path
/// plus an optional `--json`.
fn trace_path_and_json(args: &[String], what: &str) -> Result<(String, bool), String> {
    let parsed = parse_cli(args, &[], &["--json"])?;
    let [path] = parsed.positionals() else {
        return Err(format!("{what} takes exactly one trace path"));
    };
    Ok((path.clone(), parsed.switch("--json")))
}

fn cmd_summarize(args: &[String]) -> i32 {
    let (path, json) = match trace_path_and_json(args, "summarize") {
        Ok(parsed) => parsed,
        Err(e) => return usage_error(&e),
    };
    match read_trace(&path) {
        Ok(trace) => {
            if json {
                println!("{}", summarize_json(&trace));
            } else {
                print!("{}", summarize(&trace));
            }
            EXIT_OK
        }
        Err(e) => io_error(&path, e),
    }
}

fn cmd_health(args: &[String]) -> i32 {
    let (path, json) = match trace_path_and_json(args, "health") {
        Ok(parsed) => parsed,
        Err(e) => return usage_error(&e),
    };
    match read_trace(&path) {
        Ok(trace) => {
            let report = health(&trace);
            if json {
                println!("{}", report.render_json());
            } else {
                print!("{}", report.render());
            }
            if report.warnings == 0 {
                EXIT_OK
            } else {
                EXIT_FAIL
            }
        }
        Err(e) => io_error(&path, e),
    }
}

fn cmd_export(args: &[String]) -> i32 {
    let parsed = match parse_cli(args, &["--format", "--out"], &[]) {
        Ok(parsed) => parsed,
        Err(e) => return usage_error(&e),
    };
    let format = parsed.value("--format").unwrap_or("chrome");
    if !matches!(format, "chrome" | "folded") {
        return usage_error(&format!(
            "unknown export format {format:?} (supported: \"chrome\", \"folded\")"
        ));
    }
    let [path] = parsed.positionals() else {
        return usage_error("export takes exactly one input path");
    };
    let (body, note) = if format == "folded" {
        // Folded input is a profile snapshot (flightq profile output),
        // not a JSONL trace.
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => return io_error(path, e),
        };
        let snapshot = match flight_telemetry::json::JsonValue::parse(text.trim()) {
            Ok(v) => v,
            Err(e) => {
                eprintln!("flightctl: {path} is not JSON: {e}");
                return EXIT_USAGE;
            }
        };
        match export_folded(&snapshot) {
            Ok(folded) => {
                let lines = folded.lines().count();
                // The folded body is already newline-terminated.
                (
                    folded.trim_end().to_string(),
                    format!("{lines} folded stacks"),
                )
            }
            Err(e) => {
                eprintln!("flightctl: {e}");
                return EXIT_USAGE;
            }
        }
    } else {
        let trace = match read_trace(path) {
            Ok(t) => t,
            Err(e) => return io_error(path, e),
        };
        let (json, stats) = export_chrome(&trace);
        (json.render(), stats.to_string())
    };
    match parsed.value("--out") {
        Some(out) => {
            if let Err(e) = std::fs::write(out, format!("{body}\n")) {
                eprintln!("flightctl: cannot write {out}: {e}");
                return EXIT_USAGE;
            }
            eprintln!("export: {note} -> {out}");
        }
        None => {
            println!("{body}");
            eprintln!("export: {note}");
        }
    }
    EXIT_OK
}

fn cmd_watch(args: &[String]) -> i32 {
    let parsed = match parse_cli(
        args,
        &["--interval", "--idle-exit"],
        &["--once", "--follow"],
    ) {
        Ok(parsed) => parsed,
        Err(e) => return usage_error(&e),
    };
    let mut opts = WatchOptions {
        follow: std::io::stdout().is_terminal(),
        ..WatchOptions::default()
    };
    if parsed.switch("--once") {
        opts.follow = false;
    }
    if parsed.switch("--follow") {
        opts.follow = true;
    }
    let numbers = (|| -> Result<(Option<u64>, Option<f64>), String> {
        Ok((
            parsed.u64_value("--interval", |v| v > 0, "a positive integer (ms)")?,
            parsed.f64_value("--idle-exit", |v| v >= 0.0, "a non-negative number (s)")?,
        ))
    })();
    match numbers {
        Ok((interval, idle_exit)) => {
            if let Some(ms) = interval {
                opts.interval_ms = ms;
            }
            if let Some(secs) = idle_exit {
                opts.idle_exit_ms = Some((secs * 1000.0) as u64);
            }
        }
        Err(e) => return usage_error(&e),
    }
    let [path] = parsed.positionals() else {
        return usage_error("watch takes exactly one trace path");
    };
    let mut stdout = std::io::stdout();
    match watch(std::path::Path::new(path), &opts, &mut stdout) {
        Ok(_) => EXIT_OK,
        Err(e) => {
            eprintln!("flightctl: cannot watch {path}: {e}");
            EXIT_USAGE
        }
    }
}

fn cmd_top(args: &[String]) -> i32 {
    let parsed = match parse_cli(
        args,
        &[
            "--interval",
            "--idle-exit",
            "--window",
            "--slo-p99-ms",
            "--error-budget",
        ],
        &["--once", "--follow"],
    ) {
        Ok(parsed) => parsed,
        Err(e) => return usage_error(&e),
    };
    let mut opts = TopOptions {
        tick: TickOptions {
            follow: std::io::stdout().is_terminal(),
            interval_ms: 1000,
            idle_exit_ms: None,
        },
        ..TopOptions::default()
    };
    if parsed.switch("--once") {
        opts.tick.follow = false;
    }
    if parsed.switch("--follow") {
        opts.tick.follow = true;
    }
    if let Some(window) = parsed.value("--window") {
        if !WINDOW_LABELS.contains(&window) {
            return usage_error(&format!(
                "--window must be one of {WINDOW_LABELS:?}, got {window:?}"
            ));
        }
        opts.window = window.to_string();
    }
    let numbers = (|| -> Result<(), String> {
        if let Some(ms) = parsed.u64_value("--interval", |v| v > 0, "a positive integer (ms)")? {
            opts.tick.interval_ms = ms;
        }
        if let Some(secs) =
            parsed.f64_value("--idle-exit", |v| v >= 0.0, "a non-negative number (s)")?
        {
            opts.tick.idle_exit_ms = Some((secs * 1000.0) as u64);
        }
        opts.slo_p99_ms =
            parsed.f64_value("--slo-p99-ms", |v| v > 0.0, "a positive number (ms)")?;
        opts.error_budget = parsed.f64_value(
            "--error-budget",
            |v| (0.0..=1.0).contains(&v),
            "a fraction in [0, 1]",
        )?;
        Ok(())
    })();
    if let Err(e) = numbers {
        return usage_error(&e);
    }
    let [addr] = parsed.positionals() else {
        return usage_error("top takes exactly one server address (host:port)");
    };
    let mut stdout = std::io::stdout();
    match top(addr, &opts, &mut stdout) {
        Ok(state) => {
            if state.never_connected() {
                eprintln!("flightctl: could not reach {addr}");
                EXIT_FAIL
            } else if state.breaches.is_empty() {
                EXIT_OK
            } else {
                EXIT_FAIL
            }
        }
        Err(e) => {
            eprintln!("flightctl: top {addr}: {e}");
            EXIT_USAGE
        }
    }
}

fn cmd_profile(args: &[String]) -> i32 {
    let parsed = match parse_cli(
        args,
        &["--interval", "--idle-exit", "--window"],
        &["--once", "--follow"],
    ) {
        Ok(parsed) => parsed,
        Err(e) => return usage_error(&e),
    };
    let mut opts = ProfileOptions {
        tick: TickOptions {
            follow: std::io::stdout().is_terminal(),
            interval_ms: 1000,
            idle_exit_ms: None,
        },
        ..ProfileOptions::default()
    };
    if parsed.switch("--once") {
        opts.tick.follow = false;
    }
    if parsed.switch("--follow") {
        opts.tick.follow = true;
    }
    if let Some(window) = parsed.value("--window") {
        if !PROFILE_WINDOW_LABELS.contains(&window) {
            return usage_error(&format!(
                "--window must be one of {PROFILE_WINDOW_LABELS:?}, got {window:?}"
            ));
        }
        opts.window = window.to_string();
    }
    let numbers = (|| -> Result<(), String> {
        if let Some(ms) = parsed.u64_value("--interval", |v| v > 0, "a positive integer (ms)")? {
            opts.tick.interval_ms = ms;
        }
        if let Some(secs) =
            parsed.f64_value("--idle-exit", |v| v >= 0.0, "a non-negative number (s)")?
        {
            opts.tick.idle_exit_ms = Some((secs * 1000.0) as u64);
        }
        Ok(())
    })();
    if let Err(e) = numbers {
        return usage_error(&e);
    }
    let [addr] = parsed.positionals() else {
        return usage_error("profile takes exactly one server address (host:port)");
    };
    let mut stdout = std::io::stdout();
    match profile(addr, &opts, &mut stdout) {
        Ok(state) => {
            if state.never_connected() {
                eprintln!("flightctl: could not reach {addr}");
                EXIT_FAIL
            } else {
                EXIT_OK
            }
        }
        Err(e) => {
            eprintln!("flightctl: profile {addr}: {e}");
            EXIT_USAGE
        }
    }
}
