//! `flightctl` — trace analysis and live dashboards.
//!
//! ```text
//! flightctl summarize <trace.jsonl> [--json]
//! flightctl health <trace.jsonl> [--json]
//! flightctl export <trace.jsonl> [--format chrome|folded] [--out <path>]
//! flightctl watch <trace.jsonl> [--once|--follow] [--interval <ms>] [--idle-exit <secs>]
//! flightctl top <addr> [--once|--follow] [--interval <ms>] [--window <1s|10s|60s>]
//!               [--slo-p99-ms <ms>] [--error-budget <frac>] [--idle-exit <secs>]
//! ```
//!
//! Exit codes: `0` success, `1` health warnings or SLO breach, `2` usage
//! or I/O errors. Flag parsing is the shared [`flight_obs::cli`]
//! vocabulary parser — every subcommand accepts both `--flag value` and
//! `--flag=value` and rejects unknown flags.

use std::io::IsTerminal;

use flight_obs::cli::{parse_cli, ParsedArgs, EXIT_FAIL, EXIT_OK, EXIT_USAGE};
use flight_obs::tick::TickOptions;
use flight_obs::top::{top, TopOptions, WINDOW_LABELS};
use flight_obs::watch::watch;
use flight_obs::{export_chrome, export_folded, health, read_trace, summarize, summarize_json};

const USAGE: &str = "usage:
  flightctl summarize <trace.jsonl> [--json]
  flightctl health <trace.jsonl> [--json]
  flightctl export <trace.jsonl> [--format chrome|folded] [--out <path>]
  flightctl watch <trace.jsonl> [--once|--follow] [--interval <ms>] [--idle-exit <secs>]
  flightctl top <addr> [--once|--follow] [--interval <ms>] [--window <1s|10s|60s>]
                [--slo-p99-ms <ms>] [--error-budget <frac>] [--idle-exit <secs>]

inputs are JSONL telemetry traces (FLIGHT_TELEMETRY=jsonl:<path>).
export writes Chrome trace-event JSON for Perfetto / chrome://tracing;
--format folded takes a saved `flightq profile` snapshot instead and
writes flamegraph folded stacks (flamegraph.pl / inferno / speedscope).
watch tails a live trace; it follows on a TTY and prints one plain report otherwise.
top polls a running flight-serve server's stats/exemplars/profile verbs
and lists every compiled stage's share of forward time, hottest first;
with --slo-p99-ms / --error-budget it exits 1 when the SLO is breached
over the chosen window, so `top --once` doubles as a deploy health gate.
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

/// Reads the shared `--once`/`--follow`/`--interval`/`--idle-exit`
/// flags. Without `--once` or `--follow`, follows on a TTY.
fn tick_options(parsed: &ParsedArgs, default_interval_ms: u64) -> Result<TickOptions, String> {
    let follow = if parsed.switch("--follow") {
        true
    } else if parsed.switch("--once") {
        false
    } else {
        std::io::stdout().is_terminal()
    };
    Ok(TickOptions {
        follow,
        interval_ms: parsed
            .u64_value("--interval", |v| v > 0, "a positive integer (ms)")?
            .unwrap_or(default_interval_ms),
        idle_exit_ms: parsed
            .f64_value("--idle-exit", |v| v >= 0.0, "a non-negative number (s)")?
            .map(|secs| (secs * 1000.0) as u64),
    })
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
    let opts = match tick_options(&parsed, TickOptions::default().interval_ms) {
        Ok(opts) => opts,
        Err(e) => return usage_error(&e),
    };
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

/// Reads `top`'s window, SLO rules and tick flags.
fn top_options(parsed: &ParsedArgs) -> Result<TopOptions, String> {
    let window = parsed.value("--window").unwrap_or("10s");
    if !WINDOW_LABELS.contains(&window) {
        return Err(format!(
            "--window must be one of {WINDOW_LABELS:?}, got {window:?}"
        ));
    }
    Ok(TopOptions {
        tick: tick_options(parsed, 1000)?,
        window: window.to_string(),
        slo_p99_ms: parsed.f64_value("--slo-p99-ms", |v| v > 0.0, "a positive number (ms)")?,
        error_budget: parsed.f64_value(
            "--error-budget",
            |v| (0.0..=1.0).contains(&v),
            "a fraction in [0, 1]",
        )?,
    })
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
    let opts = match top_options(&parsed) {
        Ok(opts) => opts,
        Err(e) => return usage_error(&e),
    };
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
