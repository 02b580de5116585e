//! `perfbench` — the repository benchmark.
//!
//! ```text
//! perfbench --workload <serve_trickle|serve_closed|offline_batch|train_fl>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every figure is timed from outside the program, around calls into
//! public functions (`flight_serve::{Server, ServeClient}`,
//! `flight_kernels::{CompiledNet, ExecCtx}`, `flightnn::FlightTrainer`,
//! `flight_nn::train::evaluate`); nothing inside the library crates is
//! instrumented for it.
//!
//! With `--trace 0` the run measures for `--seconds` and reports the
//! workload's end-to-end metrics. With `--trace 1` it measures the
//! first third untraced and the rest with the benchmark's own spans
//! around every public call, written through a `flight_telemetry`
//! JSONL sink; the per-layer metrics come from the traced part, and
//! the headline's change between the two parts is reported as
//! `bench.trace.overhead_pct`. The trace is then read back through the
//! same library calls `flightctl summarize` and `flightctl export
//! --format chrome` use, and the Chrome trace is written next to it.
//!
//! The last line of standard output is the result object
//! (`correct`, `attempted`, `failed`, `metrics`); the line before it
//! records the host environment and the sample count behind every
//! figure. Both also go to `.perfbench_out/` in the working directory,
//! with the traces. Exit codes: 0 ran (check `correct`), 2 usage error,
//! 3 the watchdog stopped a hung run.

mod calib;
mod offline;
mod report;
mod serve;
mod train;

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use flight_bench::run::{git_describe, HostEnv};
use flight_telemetry::json::{JsonObject, JsonValue};
use flight_telemetry::Telemetry;

use report::{result_line, Outcome, Workload};

/// Where traces and run records go, relative to the working directory.
const OUT_DIR: &str = ".perfbench_out";

/// No completed operation for this long means a request hung.
const STALL_LIMIT: Duration = Duration::from_secs(30);

/// Hard ceiling on one run, well inside the 180 s budget.
const RUN_LIMIT: Duration = Duration::from_secs(170);

const USAGE: &str =
    "usage: perfbench --workload <serve_trickle|serve_closed|offline_batch|train_fl> \
--seed <n> --seconds <s> --trace <0|1>";

/// Turns a hung run into a failed one: if no operation completes for
/// [`STALL_LIMIT`], or the run outlives [`RUN_LIMIT`], it prints why and
/// exits the process — which also stops the in-process server, since
/// `ServeClient` has no read timeout of its own.
pub struct Watchdog {
    start: Instant,
    last_progress_ms: AtomicU64,
}

impl Watchdog {
    fn spawn() -> Arc<Watchdog> {
        let dog = Arc::new(Watchdog {
            start: Instant::now(),
            last_progress_ms: AtomicU64::new(0),
        });
        let watched = Arc::clone(&dog);
        std::thread::Builder::new()
            .name("perfbench-watchdog".into())
            .spawn(move || loop {
                std::thread::sleep(Duration::from_millis(200));
                let now = watched.start.elapsed();
                let last = Duration::from_millis(watched.last_progress_ms.load(Ordering::Relaxed));
                if now > RUN_LIMIT || now - last.min(now) > STALL_LIMIT {
                    eprintln!(
                        "perfbench: watchdog: no operation completed for {:.1} s \
                         ({:.1} s into the run); a request hung — aborting",
                        (now - last.min(now)).as_secs_f64(),
                        now.as_secs_f64()
                    );
                    std::process::exit(3);
                }
            })
            .expect("spawn watchdog");
        dog
    }

    /// Records that an operation completed.
    pub fn bump(&self) {
        self.last_progress_ms
            .store(self.start.elapsed().as_millis() as u64, Ordering::Relaxed);
    }
}

/// Everything a workload needs from the harness.
pub struct RunCtx {
    pub seed: u64,
    pub seconds: f64,
    /// The JSONL trace sink for the traced part (`--trace 1` only).
    pub tracer: Option<Telemetry>,
    pub watchdog: Arc<Watchdog>,
}

impl RunCtx {
    /// How long the untraced part measures, and the traced part if any.
    pub fn phases(&self) -> (f64, Option<f64>) {
        match self.tracer {
            Some(_) => (self.seconds / 3.0, Some(self.seconds * 2.0 / 3.0)),
            None => (self.seconds, None),
        }
    }
}

/// Runs `setup` `reps` times and records the median wall time as
/// `setup_s`; returns the last setup's product (earlier ones are
/// dropped, which tears them down). With a calibrator, each setup is
/// bracketed by the float reference and its time calibrated (see
/// [`calib`]).
pub fn repeated_setup<T>(
    out: &mut Outcome,
    ctx: &RunCtx,
    reps: usize,
    mut calib: Option<&mut calib::Calibrator>,
    mut setup: impl FnMut() -> T,
) -> T {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..reps {
        drop(last.take());
        let before = calib.as_deref_mut().map(calib::Calibrator::float_factor);
        let start = Instant::now();
        last = Some(setup());
        let secs = start.elapsed().as_secs_f64();
        let after = calib.as_deref_mut().map(calib::Calibrator::float_factor);
        times.push(match (before, after) {
            (Some(b), Some(a)) => secs * (b + a) / 2.0,
            _ => secs,
        });
        ctx.watchdog.bump();
    }
    out.put("setup_s", report::median(&times), times.len());
    last.expect("at least one setup")
}

/// SplitMix64: derives independent seeds from the run seed.
pub fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// `(lower-is-better headline untraced, traced)` → percent slowdown
/// under tracing.
pub fn overhead_pct(untraced: f64, traced: f64, lower_is_better: bool) -> f64 {
    if lower_is_better {
        (traced - untraced) / untraced * 100.0
    } else {
        (untraced - traced) / traced * 100.0
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::by_name(value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| format!("bad seed {value:?}"))?,
                )
            }
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s > 0.0 && *s <= 120.0)
                        .ok_or_else(|| format!("bad --seconds {value:?} (0 < s <= 120)"))?,
                )
            }
            "--trace" => {
                trace = Some(match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value:?} (0 or 1)")),
                })
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

fn env_json(args: &Args) -> JsonValue {
    let JsonValue::Object(mut fields) = HostEnv::detect().json() else {
        unreachable!("env block is an object")
    };
    fields.push(("git_describe".into(), JsonValue::from(git_describe())));
    fields.push(("workload".into(), JsonValue::from(args.workload.name())));
    fields.push(("seed".into(), JsonValue::from(args.seed)));
    fields.push(("seconds".into(), JsonValue::from(args.seconds)));
    fields.push(("trace".into(), JsonValue::from(args.trace)));
    JsonValue::Object(fields)
}

/// Opens a fresh JSONL trace for this run.
fn open_trace(path: &Path) -> Result<Telemetry, String> {
    let _ = std::fs::remove_file(path);
    Telemetry::jsonl(path).map_err(|e| format!("cannot open trace {}: {e}", path.display()))
}

/// Reads the finished trace back the way `flightctl summarize` and
/// `flightctl export --format chrome` do, and writes the summary and
/// the Chrome trace next to it. Returns what was wrong with it, if
/// anything.
fn check_trace(path: &Path) -> Result<(), String> {
    let trace =
        flight_obs::read_trace(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    if trace.malformed > 0 {
        return Err(format!("{} malformed trace lines", trace.malformed));
    }
    let (chrome, stats) = flight_obs::export_chrome(&trace);
    if stats.complete_spans == 0 || stats.unmatched_starts > 0 {
        return Err(format!("chrome export: {stats}"));
    }
    let summary_path = path.with_extension("summary.txt");
    let chrome_path = path.with_extension("chrome.json");
    std::fs::write(&summary_path, flight_obs::summarize(&trace))
        .and_then(|()| std::fs::write(&chrome_path, chrome.render()))
        .map_err(|e| format!("write next to {}: {e}", path.display()))?;
    eprintln!(
        "perfbench: trace {} → {} ({stats})",
        path.display(),
        chrome_path.display()
    );
    Ok(())
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let watchdog = Watchdog::spawn();
    if let Err(e) = std::fs::create_dir_all(OUT_DIR) {
        eprintln!("perfbench: cannot create {OUT_DIR}: {e}");
        std::process::exit(2);
    }
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    );
    let trace_path = PathBuf::from(OUT_DIR).join(format!("{stem}.jsonl"));
    let tracer = if args.trace {
        match open_trace(&trace_path) {
            Ok(t) => Some(t),
            Err(e) => {
                eprintln!("perfbench: {e}");
                std::process::exit(2);
            }
        }
    } else {
        None
    };
    let ctx = RunCtx {
        seed: args.seed,
        seconds: args.seconds,
        tracer,
        watchdog,
    };
    let mut outcome = match args.workload {
        Workload::ServeTrickle => serve::run(&ctx, serve::Mode::Trickle),
        Workload::ServeClosed => serve::run(&ctx, serve::Mode::Closed),
        Workload::OfflineBatch => offline::run(&ctx),
        Workload::TrainFl => train::run(&ctx),
    };
    drop(ctx);
    if args.trace {
        if let Err(e) = check_trace(&trace_path) {
            outcome.problem(format!("trace check: {e}"));
        }
    }
    if outcome.attempted == 0 {
        outcome.problem("no operation was attempted");
        outcome.attempted = 1;
        outcome.failed = 1;
    }
    let metrics = outcome.select(args.workload, args.trace);
    for p in &outcome.problems {
        eprintln!("perfbench: check failed: {p}");
    }
    let correct = outcome.failed == 0 && outcome.problems.is_empty();
    let record = JsonObject::new()
        .field("env", env_json(&args))
        .field("samples", outcome.samples_json())
        .field(
            "problems",
            outcome
                .problems
                .iter()
                .map(|p| JsonValue::from(p.as_str()))
                .collect::<Vec<_>>(),
        )
        .build()
        .render();
    let line = result_line(correct, outcome.attempted, outcome.failed, &metrics);
    let record_path = PathBuf::from(OUT_DIR).join(format!("{stem}.record.json"));
    let _ = std::fs::write(&record_path, format!("{record}\n{line}\n"));
    println!("{record}");
    println!("{line}");
}
