//! `serve` — run the flight-serve inference server.
//!
//! ```text
//! serve [--addr 127.0.0.1:7807] [--workers <n>]
//!       [--max-batch <n>] [--max-wait-us <µs>] [--queue-depth <n>]
//!       [--profile-every <n>]
//!       [--network <1..8>] [--scheme <l1|l2|fp4w8a|full>] [--seed <n>] [--width <scale>]
//! ```
//!
//! Serves the spec'd model until a `shutdown` op arrives. Set
//! `FLIGHT_TELEMETRY=stderr|jsonl:<path>` to capture the serve
//! counters and latency histograms on exit — the same handle reaches
//! the compute workers (prefixed per worker track), so a JSONL trace
//! from a live server includes the kernel-side events.
//! `--profile-every` tunes the per-layer profiler's 1-in-N request
//! sampling (default 16; 0 disables; read it live with `flightctl top`).
//! Exit codes: 0 clean shutdown, 1 startup failure, 2 usage error.

use flight_obs::cli::{parse_cli, ParsedArgs, EXIT_FAIL, EXIT_USAGE};
use flight_serve::{ModelSpec, Server, ServerConfig};
use flight_telemetry::Telemetry;

const USAGE: &str = "usage:
  serve [--addr 127.0.0.1:7807] [--workers <n>]
        [--max-batch <n>] [--max-wait-us <us>] [--queue-depth <n>]
        [--profile-every <n>]
        [--network <1..8>] [--scheme <l1|l2|fp4w8a|full>] [--seed <n>] [--width <scale>]

runs until a shutdown op arrives (e.g. `flightq shutdown --addr <addr>`).
exit codes: 0 clean shutdown, 1 startup failure, 2 usage error.";

/// Reads the model-spec overrides shared with `loadgen`.
pub(crate) fn spec_from_args(parsed: &ParsedArgs) -> Result<ModelSpec, String> {
    let mut spec = ModelSpec::default();
    if let Some(n) = parsed.u64_value(
        "--network",
        |v| (1..=8).contains(&v),
        "a network id in 1..=8",
    )? {
        spec.network = n as u8;
    }
    if let Some(s) = parsed.value("--scheme") {
        spec.scheme = s.to_string();
    }
    if let Some(s) = parsed.u64_value("--seed", |_| true, "a non-negative integer")? {
        spec.seed = s;
    }
    if let Some(w) = parsed.f64_value("--width", |v| v > 0.0, "a positive scale")? {
        spec.width = w as f32;
    }
    Ok(spec)
}

fn main() {
    std::process::exit(run());
}

fn run() -> i32 {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if matches!(
        args.first().map(String::as_str),
        Some("-h" | "--help" | "help")
    ) {
        println!("{USAGE}");
        return 0;
    }
    let parsed = match parse_cli(
        &args,
        &[
            "--addr",
            "--workers",
            "--max-batch",
            "--max-wait-us",
            "--queue-depth",
            "--profile-every",
            "--network",
            "--scheme",
            "--seed",
            "--width",
        ],
        &[],
    ) {
        Ok(parsed) => parsed,
        Err(e) => return usage_error(&e),
    };
    if !parsed.positionals().is_empty() {
        return usage_error("serve takes no positional arguments");
    }
    let build = || -> Result<(ServerConfig, ModelSpec), String> {
        let mut config = ServerConfig {
            telemetry: Telemetry::from_env(),
            ..ServerConfig::default()
        };
        if let Some(addr) = parsed.value("--addr") {
            config.addr = addr.to_string();
        } else {
            config.addr = "127.0.0.1:7807".to_string();
        }
        let positive = |v: usize| v > 0;
        if let Some(n) = parsed.usize_value("--workers", positive, "a positive integer")? {
            config.workers = n;
        }
        if let Some(n) = parsed.usize_value("--max-batch", positive, "a positive integer")? {
            config.max_batch = n;
        }
        if let Some(n) = parsed.u64_value("--max-wait-us", |_| true, "an integer")? {
            config.max_wait_us = n;
        }
        if let Some(n) = parsed.usize_value("--queue-depth", positive, "a positive integer")? {
            config.queue_depth = n;
        }
        if let Some(n) = parsed.u64_value("--profile-every", |_| true, "an integer")? {
            config.profile_every = n as u32;
        }
        Ok((config, spec_from_args(&parsed)?))
    };
    let (config, spec) = match build() {
        Ok(built) => built,
        Err(e) => return usage_error(&e),
    };

    let server = match Server::start(config, spec.clone()) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("serve: {e}");
            return EXIT_FAIL;
        }
    };
    println!(
        "serve: listening on {} (network {}, scheme {}, seed {})",
        server.local_addr(),
        spec.network,
        spec.scheme,
        spec.seed
    );
    server.run_to_shutdown();
    println!("serve: shutdown complete");
    0
}

fn usage_error(message: &str) -> i32 {
    eprintln!("serve: {message}\n{USAGE}");
    EXIT_USAGE
}
