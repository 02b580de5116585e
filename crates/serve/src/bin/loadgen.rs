//! `loadgen` — sustained-load benchmark for flight-serve.
//!
//! ```text
//! loadgen [--addr <host:port>] [--clients <n>] [--duration-secs <s>]
//!         [--warmup <n>] [--workers <n>]
//!         [--max-batch <n>] [--max-wait-us <µs>] [--queue-depth <n>]
//!         [--swap-every <n>]
//!         [--network <1..8>] [--scheme <label>] [--seed <n>] [--width <scale>]
//! ```
//!
//! Without `--addr` it starts an in-process server and hammers it over
//! real TCP; with `--addr` it drives an external server. Closed-loop
//! clients send seeded-random single-image requests for the duration;
//! client-observed end-to-end latency goes into a [`Log2Histogram`] per
//! client and the shards merge into the reported percentiles. Each
//! client's first `--warmup` responses (default 3) are discarded from
//! the histograms — they measure first-touch scratch allocation and
//! cold code paths, not steady state.
//!
//! Writes `BENCH_serve.manifest.json` (under `FLIGHT_BENCH_DIR`) with a
//! `serve` block (QPS, p50/p99/p999, reject/error counts, server-side
//! stats) and no exhibit tables: the manifest holds only what the run
//! measured. The `serve` block distinguishes `offered_qps` (every
//! attempt the closed-loop clients made, including rejections and
//! failures) from `achieved_qps` (successful replies only); a widening
//! gap between the two is the backpressure signal.
//! `--swap-every N` additionally triggers a hot model swap (same spec,
//! bumped seed) every N requests across all clients, exercising the
//! swap path under live traffic; the manifest records the swap count.
//! The manifest also carries `profile_overhead_pct` — the measured
//! throughput cost of the per-layer profiler at its default 1-in-16
//! sampling, benchmarked locally on the run's model — which CI gates
//! below 1%. Set FLIGHT_FIDELITY=smoke to shorten the run for CI.
//!
//! Exit codes: 0 ok, 1 when no request succeeded, 2 usage error.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use flight_bench::BenchRun;
use flight_obs::cli::{parse_cli, ParsedArgs, EXIT_FAIL, EXIT_USAGE};
use flight_serve::{ModelSpec, ServeClient, Server, ServerConfig};
use flight_telemetry::json::{JsonObject, JsonValue};
use flight_telemetry::Log2Histogram;
use flight_tensor::{uniform, TensorRng};

const USAGE: &str = "usage:
  loadgen [--addr <host:port>] [--clients <n>] [--duration-secs <s>]
          [--warmup <n>] [--workers <n>]
          [--max-batch <n>] [--max-wait-us <us>] [--queue-depth <n>]
          [--swap-every <n>]
          [--network <1..8>] [--scheme <l1|l2|fp4w8a|full>] [--seed <n>] [--width <scale>]

without --addr an in-process server is started and driven over TCP.
each client's first --warmup responses (default 3) are discarded from
the latency histograms. --swap-every N hot-swaps the model (bumped
seed) every N requests across all clients. writes
BENCH_serve.manifest.json (FLIGHT_BENCH_DIR sets the directory).
exit codes: 0 ok, 1 no request succeeded, 2 usage error.";

/// One client's tallies.
#[derive(Default)]
struct ClientTally {
    e2e_ms: Log2Histogram,
    ok: u64,
    rejected: u64,
    errors: u64,
    batch_sum: u64,
    max_batch: usize,
}

struct Knobs {
    addr: Option<String>,
    clients: usize,
    duration: Duration,
    warmup: usize,
    workers: usize,
    max_batch: usize,
    max_wait_us: u64,
    queue_depth: usize,
    /// Hot-swap the model every N requests across all clients (0 = off).
    swap_every: u64,
    spec: ModelSpec,
}

fn knobs_from(parsed: &ParsedArgs) -> Result<Knobs, String> {
    let positive = |v: usize| v > 0;
    let smoke = std::env::var("FLIGHT_FIDELITY").as_deref() == Ok("smoke");
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
    Ok(Knobs {
        addr: parsed.value("--addr").map(str::to_string),
        clients: parsed
            .usize_value("--clients", positive, "a positive integer")?
            .unwrap_or(4),
        duration: Duration::from_secs_f64(
            parsed
                .f64_value(
                    "--duration-secs",
                    |v| v > 0.0,
                    "a positive number of seconds",
                )?
                .unwrap_or(if smoke { 1.0 } else { 2.0 }),
        ),
        warmup: parsed
            .usize_value("--warmup", |_| true, "a non-negative integer")?
            .unwrap_or(3),
        workers: parsed
            .usize_value("--workers", positive, "a positive integer")?
            .unwrap_or(2),
        max_batch: parsed
            .usize_value("--max-batch", positive, "a positive integer")?
            .unwrap_or(8),
        max_wait_us: parsed
            .u64_value("--max-wait-us", |_| true, "an integer")?
            .unwrap_or(500),
        queue_depth: parsed
            .usize_value("--queue-depth", positive, "a positive integer")?
            .unwrap_or(256),
        swap_every: parsed
            .u64_value("--swap-every", |_| true, "a non-negative integer")?
            .unwrap_or(0),
        spec,
    })
}

/// Shared swap-storm state: every client reports each attempt; each
/// `every`-th attempt (globally, via the shared counter) triggers a hot
/// swap to the same spec with a bumped seed, so the published version
/// keeps advancing under live traffic.
struct SwapDriver {
    every: u64,
    attempts: AtomicU64,
    swaps: AtomicU64,
    spec: ModelSpec,
}

impl SwapDriver {
    fn new(every: u64, spec: ModelSpec) -> SwapDriver {
        SwapDriver {
            every,
            attempts: AtomicU64::new(0),
            swaps: AtomicU64::new(0),
            spec,
        }
    }

    /// Called by a client after each request attempt; issues the swap on
    /// this client's connection when the global counter says it is due.
    fn after_attempt(&self, client: &mut ServeClient) {
        if self.every == 0 {
            return;
        }
        let n = self.attempts.fetch_add(1, Ordering::Relaxed) + 1;
        if n.is_multiple_of(self.every) {
            let mut spec = self.spec.clone();
            spec.seed = self.spec.seed + n / self.every;
            if client.swap(&spec).is_ok() {
                self.swaps.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    fn swaps(&self) -> u64 {
        self.swaps.load(Ordering::Relaxed)
    }
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
    let knobs = match parse_cli(
        &args,
        &[
            "--addr",
            "--clients",
            "--duration-secs",
            "--warmup",
            "--workers",
            "--max-batch",
            "--max-wait-us",
            "--queue-depth",
            "--swap-every",
            "--network",
            "--scheme",
            "--seed",
            "--width",
        ],
        &[],
    )
    .and_then(|parsed| {
        if parsed.positionals().is_empty() {
            knobs_from(&parsed)
        } else {
            Err("loadgen takes no positional arguments".to_string())
        }
    }) {
        Ok(k) => k,
        Err(e) => {
            eprintln!("loadgen: {e}\n{USAGE}");
            return EXIT_USAGE;
        }
    };

    let run = BenchRun::start("serve");

    // An in-process server unless the caller pointed us at one.
    let mut local = None;
    let addr = match &knobs.addr {
        Some(addr) => addr.clone(),
        None => {
            let config = ServerConfig {
                workers: knobs.workers,
                max_batch: knobs.max_batch,
                max_wait_us: knobs.max_wait_us,
                queue_depth: knobs.queue_depth,
                telemetry: run.telemetry().clone(),
                ..ServerConfig::default()
            };
            match Server::start(config, knobs.spec.clone()) {
                Ok(server) => {
                    let addr = server.local_addr().to_string();
                    local = Some(server);
                    addr
                }
                Err(e) => {
                    eprintln!("loadgen: cannot start server: {e}");
                    return EXIT_FAIL;
                }
            }
        }
    };
    // The server settings are loadgen's to report only when it started
    // the server; an external one (`--addr`) runs with its own flags.
    let server_settings = if local.is_some() {
        format!(
            " (network {}, scheme {}, max_batch {}, max_wait {}us)",
            knobs.spec.network, knobs.spec.scheme, knobs.max_batch, knobs.max_wait_us
        )
    } else {
        String::new()
    };
    println!(
        "loadgen: {} clients x {:.1}s against {addr}{server_settings}",
        knobs.clients,
        knobs.duration.as_secs_f64(),
    );

    let input_len = knobs.spec.input_len();
    let swap_driver = SwapDriver::new(knobs.swap_every, knobs.spec.clone());
    let started = Instant::now();
    let tallies: Vec<ClientTally> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..knobs.clients)
            .map(|c| {
                let addr = addr.clone();
                let duration = knobs.duration;
                let warmup = knobs.warmup;
                let swap_driver = &swap_driver;
                scope.spawn(move || {
                    drive_client(&addr, c as u64, input_len, duration, warmup, swap_driver)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client panicked"))
            .collect()
    });
    let wall = started.elapsed().as_secs_f64();

    let mut e2e_ms = Log2Histogram::new();
    let (mut ok, mut rejected, mut errors, mut batch_sum, mut max_batch) = (0, 0, 0, 0u64, 0usize);
    for t in &tallies {
        e2e_ms.merge(&t.e2e_ms);
        ok += t.ok;
        rejected += t.rejected;
        errors += t.errors;
        batch_sum += t.batch_sum;
        max_batch = max_batch.max(t.max_batch);
    }
    // Closed-loop clients: offered = every attempt they made (including
    // rejections and failures), achieved = successful replies. Under
    // backpressure the two diverge; reporting both keeps the manifest
    // honest about coordinated omission.
    let attempts = ok + rejected + errors;
    let qps = ok as f64 / wall;
    let offered_qps = attempts as f64 / wall;
    let mean_batch = if ok == 0 {
        0.0
    } else {
        batch_sum as f64 / ok as f64
    };

    // Server-side per-phase stats over the protocol (works for both
    // in-process and external servers).
    let server_stats = ServeClient::connect(&addr)
        .and_then(|mut c| c.stats())
        .unwrap_or(JsonValue::Null);
    if let Some(mut server) = local.take() {
        server.stop();
    }

    let smoke = std::env::var("FLIGHT_FIDELITY").as_deref() == Ok("smoke");
    let overhead_pct = profile_overhead_pct(&knobs.spec, smoke);
    println!(
        "loadgen: profiler overhead at 1/{} sampling: {overhead_pct:.3}% (gate < 1%)",
        flight_telemetry::DEFAULT_SAMPLE_EVERY
    );

    let pct = |q: f64| e2e_ms.percentile(q);
    println!(
        "loadgen: {ok} ok ({rejected} rejected, {errors} errors) in {wall:.2}s -> {qps:.1} qps achieved ({offered_qps:.1} offered)"
    );
    println!(
        "loadgen: e2e latency ms p50 {:.3} p99 {:.3} p999 {:.3}; mean observed batch {mean_batch:.2} (max {max_batch})",
        pct(0.50),
        pct(0.99),
        pct(0.999)
    );

    let serve_block = JsonObject::new()
        .field("qps", qps)
        .field("offered_qps", offered_qps)
        .field("achieved_qps", qps)
        .field("clients", knobs.clients)
        .field("warmup_per_client", knobs.warmup)
        .field("duration_secs", wall)
        .field("requests", ok)
        .field("attempts", attempts)
        .field("rejected", rejected)
        .field("errors", errors)
        .field("mean_observed_batch", mean_batch)
        .field("max_observed_batch", max_batch)
        .field("swap_every", knobs.swap_every)
        .field("swaps", swap_driver.swaps())
        .field(
            "profile_sample_every",
            u64::from(flight_telemetry::DEFAULT_SAMPLE_EVERY),
        )
        .field("profile_overhead_pct", overhead_pct)
        .field(
            "latency_ms",
            JsonObject::new()
                .field("p50", pct(0.50))
                .field("p99", pct(0.99))
                .field("p999", pct(0.999))
                .field("max", if e2e_ms.is_empty() { 0.0 } else { e2e_ms.max() })
                .build(),
        )
        .field("server_stats", server_stats)
        .build();
    run.finish_with(None, &[], &[("serve", serve_block)]);

    if ok == 0 {
        eprintln!("loadgen: no request succeeded");
        return EXIT_FAIL;
    }
    0
}

/// One closed-loop client: seeded-random images until the deadline.
/// The first `warmup` responses are discarded from the histograms.
fn drive_client(
    addr: &str,
    id: u64,
    input_len: usize,
    duration: Duration,
    warmup: usize,
    swap_driver: &SwapDriver,
) -> ClientTally {
    let mut tally = ClientTally::default();
    let Ok(mut client) = ServeClient::connect(addr) else {
        tally.errors += 1;
        return tally;
    };
    let mut rng = TensorRng::seed(0x10ad_6e00 + id);

    // Warm up untimed: first-touch scratch allocation and code paths.
    for _ in 0..warmup {
        let image = uniform(&mut rng, &[input_len], -1.0, 1.0);
        let _ = client.infer(image.as_slice());
    }

    let deadline = Instant::now() + duration;
    while Instant::now() < deadline {
        let image = uniform(&mut rng, &[input_len], -1.0, 1.0);
        let sent = Instant::now();
        match client.infer(image.as_slice()) {
            Ok(reply) => {
                tally.e2e_ms.record(sent.elapsed().as_secs_f64() * 1e3);
                tally.ok += 1;
                tally.batch_sum += reply.batch as u64;
                tally.max_batch = tally.max_batch.max(reply.batch);
            }
            Err(e) if e.retry => {
                tally.rejected += 1;
                // Backpressure: yield briefly instead of hammering.
                std::thread::sleep(Duration::from_micros(200));
            }
            Err(_) => {
                tally.errors += 1;
                if tally.errors > 100 {
                    break;
                }
            }
        }
        swap_driver.after_attempt(&mut client);
    }
    tally
}

/// Measures the per-layer profiler's throughput cost at the default
/// 1-in-16 sampling rate on this run's model, off the serving path:
/// interleaved pairs of (plain forwards) vs (forwards where every 16th
/// is profiled and flushed into a [`flight_telemetry::StageProf`]).
/// Reports the *minimum* pair ratio as a percentage — the true overhead
/// is tiny (one `Instant` pair + three stores per stage, 1/16 of the
/// time), so min-over-pairs is the noise-robust estimator; transient
/// scheduler jitter inflates individual pairs, never deflates all of
/// them. Clamped at 0 (the profiled side winning a pair is pure noise).
fn profile_overhead_pct(spec: &ModelSpec, smoke: bool) -> f64 {
    let Ok(net) = spec.build() else {
        return 0.0;
    };
    let every = u64::from(flight_telemetry::DEFAULT_SAMPLE_EVERY);
    let prof = flight_telemetry::StageProf::new(1, flight_telemetry::DEFAULT_SAMPLE_EVERY);
    let mut sample = flight_telemetry::StageSample::new();
    let mut ctx = flight_kernels::ExecCtx::new();
    let [c, h, w] = spec.image_dims;
    let mut rng = TensorRng::seed(0x0f10);
    let input = uniform(&mut rng, &[1, c, h, w], -1.0, 1.0);

    let iters = if smoke { 48u64 } else { 192 };
    let pairs = if smoke { 3 } else { 5 };
    // Warm the scratch arenas and code paths before timing anything.
    for _ in 0..4 {
        let _ = net.forward(&input, &mut ctx);
        let _ = net.forward_profiled(&input, &mut ctx, &mut sample);
    }
    let mut min_ratio = f64::INFINITY;
    for _ in 0..pairs {
        let plain_start = Instant::now();
        for _ in 0..iters {
            let _ = net.forward(&input, &mut ctx);
        }
        let plain = plain_start.elapsed().as_secs_f64();

        let sampled_start = Instant::now();
        for i in 0..iters {
            if i % every == 0 {
                let _ = net.forward_profiled(&input, &mut ctx, &mut sample);
                prof.record(0, &sample);
            } else {
                let _ = net.forward(&input, &mut ctx);
            }
        }
        let sampled = sampled_start.elapsed().as_secs_f64();
        if plain > 0.0 {
            min_ratio = min_ratio.min(sampled / plain);
        }
    }
    if min_ratio.is_finite() {
        ((min_ratio - 1.0) * 100.0).max(0.0)
    } else {
        0.0
    }
}
