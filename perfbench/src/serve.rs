//! `serve_trickle` and `serve_closed`: an in-process `Server` on
//! `127.0.0.1:0` driven over TCP through the unchanged public
//! `ServeClient`, from at most two generator threads with one
//! connection each.
//!
//! - Trickle: open-loop Poisson arrivals at [`TRICKLE_RATE`]; each
//!   request is timed from its intended send time, so a late send
//!   counts against latency.
//! - Closed: both connections send back to back for the whole window,
//!   with a hot `swap`, a `stats` and a `profile` scrape at the start of
//!   every block of [`ADMIN_EVERY`] infers, at fixed operation indices.
//!
//! Every served answer is checked afterwards: its logits must be
//! bit-identical to an in-process `CompiledNet::forward` of the spec of
//! the version that answered.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use flight_kernels::{CompiledNet, ExecCtx};
use flight_serve::{InferOk, ModelSpec, ServeClient, ServeError, Server, ServerConfig};
use flight_telemetry::json::JsonValue;
use flight_telemetry::{worker_prefix, Telemetry};
use flight_tensor::{uniform, Tensor, TensorRng};

use crate::report::{median, quantile, Outcome};
use crate::{overhead_pct, repeated_setup, splitmix, RunCtx};

/// Open-loop arrival rate, requests per second. Low enough that
/// requests arrive alone: at this rate about 4% of arrivals land within
/// the delayed-ACK window of their connection's previous reply and take
/// the ~88 ms slow path, which keeps the p90 steadily on the ~45 ms
/// mode. (At 7 req/s that share is 10-15%, right at the p90, and the
/// p90 flips between the two modes from seed to seed.)
const TRICKLE_RATE: f64 = 3.0;

/// Generator threads, each owning one connection (the host's `nproc`).
const CONNECTIONS: usize = 2;

/// Closed loop: one hot swap and one `stats` + `profile` scrape per
/// this many infers, before infers 0, 200, 400, … of each window (so
/// every window, however short, holds at least one of each). The rate
/// follows the repository's own admin-beside-load precedent, the CI
/// serve smoke's `loadgen --swap-every 200` with a stats and a profile
/// scrape during the burst. At the ≈22 req/s the loop reaches on a
/// 2-vCPU Xeon host, the admin ops are ≈2% of operations and of
/// connection time (see the README).
const ADMIN_EVERY: u64 = 200;

/// Set-ups per run. A set-up takes ~5 ms with ±20% jitter, so the
/// median of many is cheap and steadier. It is not calibrated: thread
/// wake-ups and TCP, not CPU speed, set most of its run-to-run drift.
const SETUP_REPS: usize = 9;

/// Distinct images the requests cycle through.
const IMAGE_POOL: usize = 32;

/// Closed-loop generator health: the gap between one reply and the
/// next send must stay below this, or the run is invalid.
const CLOSED_LAG_LIMIT_MS: f64 = 5.0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Trickle,
    Closed,
}

/// Generator health limit for `mode`: the trickle schedule's mean
/// inter-arrival gap, or [`CLOSED_LAG_LIMIT_MS`].
fn lag_limit_ms(mode: Mode) -> f64 {
    match mode {
        Mode::Trickle => 1e3 / TRICKLE_RATE,
        Mode::Closed => CLOSED_LAG_LIMIT_MS,
    }
}

/// Stops the server on every exit path, panics included.
struct ServerGuard(Server);

impl Drop for ServerGuard {
    fn drop(&mut self) {
        self.0.stop();
    }
}

struct Rig {
    clients: Vec<ServeClient>,
    server: ServerGuard,
}

struct Infer {
    image: usize,
    /// When the schedule wanted it sent (trickle) or when it was sent.
    intended: Instant,
    sent: Instant,
    done: Instant,
    /// Generator lag: late start against the schedule (trickle) or the
    /// gap since the previous reply (closed).
    lag: Duration,
    reply: Result<InferOk, ServeError>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AdminOp {
    Swap,
    Stats,
    Profile,
}

struct Admin {
    op: AdminOp,
    rtt: Duration,
    ok: bool,
    /// The version a successful swap published, with its spec.
    published: Option<(u64, ModelSpec)>,
}

/// One measured window.
#[derive(Default)]
struct Phase {
    infers: Vec<Infer>,
    admins: Vec<Admin>,
    wall: Duration,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

impl Phase {
    /// Client-observed latency from the intended send time; a failed
    /// request counts as taking the whole window.
    fn latencies_ms(&self) -> Vec<f64> {
        self.infers
            .iter()
            .map(|r| match r.reply {
                Ok(_) => ms(r.done - r.intended),
                Err(_) => ms(self.wall),
            })
            .collect()
    }

    fn ok(&self) -> impl Iterator<Item = (&Infer, &InferOk)> {
        self.infers
            .iter()
            .filter_map(|r| r.reply.as_ref().ok().map(|ok| (r, ok)))
    }

    /// Successful infer replies per second, from the window's start to
    /// its last reply.
    fn throughput(&self) -> f64 {
        self.ok().count() as f64 / self.wall.as_secs_f64()
    }

    fn rtts_ms(&self, op: AdminOp) -> Vec<f64> {
        self.admins
            .iter()
            .filter(|a| a.op == op && a.ok)
            .map(|a| ms(a.rtt))
            .collect()
    }
}

fn images(seed: u64) -> Vec<Vec<f32>> {
    let spec = ModelSpec::default();
    let mut dims = vec![IMAGE_POOL];
    dims.extend(spec.image_dims);
    let pool = uniform(&mut TensorRng::seed(seed), &dims, -1.0, 1.0);
    pool.as_slice()
        .chunks(spec.input_len())
        .map(<[f32]>::to_vec)
        .collect()
}

/// Poisson arrival offsets over `seconds`, conditioned on their count:
/// `TRICKLE_RATE × seconds` arrival times drawn uniformly over the
/// window and sorted, which is a Poisson process given its number of
/// arrivals. Every run of a window length thus offers the same number
/// of requests, and `throughput_per_s` reads whether the server kept
/// up, not how many arrivals the seed happened to draw.
fn poisson_schedule(seed: u64, seconds: f64) -> Vec<Duration> {
    let mut rng = TensorRng::seed(splitmix(seed ^ 0x7472_6963_6b6c_6500));
    let n = (TRICKLE_RATE * seconds).round().max(1.0) as usize;
    let mut offsets: Vec<f64> = (0..n)
        .map(|_| f64::from(rng.uniform(0.0, 1.0)) * seconds)
        .collect();
    offsets.sort_by(f64::total_cmp);
    offsets.into_iter().map(Duration::from_secs_f64).collect()
}

fn setup(tel: Option<&Telemetry>, warmup_image: &[f32]) -> Rig {
    let span = tel.map(|t| t.span("serve.server.start"));
    let server = Server::start(ServerConfig::default(), ModelSpec::default())
        .unwrap_or_else(|e| panic!("server start: {e}"));
    drop(span);
    let server = ServerGuard(server);
    let addr = server.0.local_addr().to_string();
    let clients = (0..CONNECTIONS)
        .map(|_| {
            let _span = tel.map(|t| t.span("serve.client.connect"));
            let mut client = ServeClient::connect(&addr).unwrap_or_else(|e| panic!("connect: {e}"));
            // First request on each connection: first-touch costs land
            // in setup, not in the measured window.
            client
                .infer(warmup_image)
                .unwrap_or_else(|e| panic!("warm-up infer: {e}"));
            client
        })
        .collect();
    Rig { clients, server }
}

/// The spec a closed-loop swap at operation `k` of a window publishes.
fn swap_spec(seed: u64, k: u64) -> ModelSpec {
    ModelSpec {
        seed: splitmix(seed.wrapping_add(k.wrapping_mul(0x9e37))) % 1_000_000 + 1,
        ..ModelSpec::default()
    }
}

fn admin(
    client: &mut ServeClient,
    op: AdminOp,
    tel: Option<&Telemetry>,
    spec: Option<ModelSpec>,
) -> Admin {
    let name = match op {
        AdminOp::Swap => "serve.client.swap",
        AdminOp::Stats => "serve.client.stats",
        AdminOp::Profile => "serve.client.profile",
    };
    let span = tel.map(|t| t.span(name));
    let start = Instant::now();
    let (ok, published) = match op {
        AdminOp::Swap => {
            let spec = spec.expect("swap needs a spec");
            match client.swap(&spec) {
                Ok(v) => (true, Some((v, spec))),
                Err(e) => {
                    eprintln!("perfbench: swap failed: {e}");
                    (false, None)
                }
            }
        }
        AdminOp::Stats => (client.stats().is_ok(), None),
        AdminOp::Profile => (client.profile().is_ok(), None),
    };
    let rtt = start.elapsed();
    drop(span);
    Admin {
        op,
        rtt,
        ok,
        published,
    }
}

/// One measured window. `phase_seed` drives its Poisson schedule and
/// its swap specs, so the untraced and traced windows differ.
fn measure(
    rig: &mut Rig,
    ctx: &RunCtx,
    mode: Mode,
    seconds: f64,
    tel: Option<&Telemetry>,
    images: &[Vec<f32>],
    phase_seed: u64,
) -> Phase {
    let schedule = poisson_schedule(phase_seed, seconds);
    let next_arrival = AtomicU64::new(0);
    let t0 = Instant::now();
    let deadline = t0 + Duration::from_secs_f64(seconds);
    // Operation index shared by the closed-loop generators; fixes
    // where the admin ops fall.
    let next_op = &AtomicU64::new(0);
    let per_thread: Vec<Phase> = std::thread::scope(|s| {
        let handles: Vec<_> = rig
            .clients
            .iter_mut()
            .enumerate()
            .map(|(w, client)| {
                let tel = tel.map(|t| t.with_prefix(&worker_prefix(w)));
                let (schedule, next_arrival, watchdog) = (&schedule, &next_arrival, &ctx.watchdog);
                s.spawn(move || {
                    let tel = tel.as_ref();
                    let mut phase = Phase::default();
                    let mut prev_done = t0;
                    loop {
                        let (image, intended) = match mode {
                            Mode::Trickle => {
                                let k = next_arrival.fetch_add(1, Ordering::Relaxed) as usize;
                                let Some(offset) = schedule.get(k) else { break };
                                let intended = t0 + *offset;
                                let now = Instant::now();
                                if intended > now {
                                    std::thread::sleep(intended - now);
                                }
                                (k % images.len(), intended)
                            }
                            Mode::Closed => {
                                if Instant::now() >= deadline {
                                    break;
                                }
                                let k = next_op.fetch_add(1, Ordering::Relaxed);
                                if k.is_multiple_of(ADMIN_EVERY) {
                                    let spec = swap_spec(phase_seed, k);
                                    phase.admins.push(admin(
                                        client,
                                        AdminOp::Swap,
                                        tel,
                                        Some(spec),
                                    ));
                                    phase.admins.push(admin(client, AdminOp::Stats, tel, None));
                                    phase
                                        .admins
                                        .push(admin(client, AdminOp::Profile, tel, None));
                                    // Lag is measured from the last reply of any kind.
                                    prev_done = Instant::now();
                                }
                                (k as usize % images.len(), Instant::now())
                            }
                        };
                        let sent = Instant::now();
                        let lag = match mode {
                            Mode::Trickle => sent - intended,
                            Mode::Closed => sent - prev_done,
                        };
                        let span = tel.map(|t| t.span("serve.client.infer"));
                        let reply = client.infer(&images[image]);
                        let done = Instant::now();
                        drop(span);
                        watchdog.bump();
                        prev_done = done;
                        phase.infers.push(Infer {
                            image,
                            intended,
                            sent,
                            done,
                            lag,
                            reply,
                        });
                    }
                    phase
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("generator thread panicked"))
            .collect()
    });
    let mut phase = Phase::default();
    let mut last = t0;
    for p in per_thread {
        last = p.infers.iter().map(|r| r.done).fold(last, Instant::max);
        phase.infers.extend(p.infers);
        phase.admins.extend(p.admins);
    }
    phase.wall = last - t0;
    phase
}

/// Bit-exact check of every served answer against an in-process
/// forward of the spec of the version that answered. Returns the number
/// of mismatched (or unattributable) replies.
fn verify(phases: &[&Phase], images: &[Vec<f32>], out: &mut Outcome) -> u64 {
    let mut specs: HashMap<u64, ModelSpec> = HashMap::from([(1, ModelSpec::default())]);
    for a in phases.iter().flat_map(|p| &p.admins) {
        if let Some((v, spec)) = &a.published {
            specs.insert(*v, spec.clone());
        }
    }
    let mut nets: HashMap<u64, CompiledNet> = HashMap::new();
    let mut expected: HashMap<(u64, usize), Vec<u32>> = HashMap::new();
    let mut exec = ExecCtx::new();
    let dims = {
        let mut d = vec![1];
        d.extend(ModelSpec::default().image_dims);
        d
    };
    let mut bad = 0;
    for (rec, reply) in phases.iter().flat_map(|p| p.ok()) {
        let Some(spec) = specs.get(&reply.version) else {
            out.problem(format!("reply from unknown version {}", reply.version));
            bad += 1;
            continue;
        };
        let want = expected
            .entry((reply.version, rec.image))
            .or_insert_with(|| {
                let net = nets
                    .entry(reply.version)
                    .or_insert_with(|| spec.build().expect("reference build"));
                let x = Tensor::from_vec(images[rec.image].clone(), &dims);
                net.forward(&x, &mut exec)
                    .0
                    .as_slice()
                    .iter()
                    .map(|v| v.to_bits())
                    .collect()
            });
        let got: Vec<u32> = reply.logits.iter().map(|v| v.to_bits()).collect();
        if &got != want {
            bad += 1;
        }
    }
    if bad > 0 {
        out.problem(format!(
            "{bad} served answers differ from the in-process forward"
        ));
    }
    bad
}

fn stat_at(root: &JsonValue, path: &[&str]) -> Option<f64> {
    path.iter()
        .try_fold(root, |v, key| v.get(key))
        .and_then(JsonValue::as_f64)
}

/// The per-layer breakdown of one (traced) window.
fn per_layer(mode: Mode, phase: &Phase, server: &Server, out: &mut Outcome) {
    let ok: Vec<(&Infer, &InferOk)> = phase.ok().collect();
    let n = ok.len();
    let server_ms = |r: &InferOk| (r.queue_us + r.batch_form_us + r.compute_us) as f64 / 1e3;
    let wire: Vec<f64> = ok
        .iter()
        .map(|(rec, r)| ms(rec.done - rec.sent) - server_ms(r))
        .collect();
    out.put("serve.client.wire_ms.p50", median(&wire), n);
    out.put("serve.client.wire_ms.p90", quantile(&wire, 0.9), n);
    let field = |f: fn(&InferOk) -> f64| ok.iter().map(|(_, r)| f(r)).collect::<Vec<f64>>();
    out.put(
        "serve.batcher.queue_ms.p50",
        median(&field(|r| r.queue_us as f64 / 1e3)),
        n,
    );
    out.put(
        "serve.batcher.batch_form_ms.p50",
        median(&field(|r| r.batch_form_us as f64 / 1e3)),
        n,
    );
    // Every batch member is one of ours, so a batch of size b shows up
    // as b replies each carrying b: Σ 1/b counts batches exactly.
    let batches: f64 = ok.iter().map(|(_, r)| 1.0 / r.batch.max(1) as f64).sum();
    let small: f64 = ok
        .iter()
        .filter(|(_, r)| r.batch < 8)
        .map(|(_, r)| 1.0 / r.batch.max(1) as f64)
        .sum();
    out.put("serve.batcher.batch_mean", n as f64 / batches, n);
    out.put("serve.batcher.batch_lt8_share", small / batches, n);
    out.put(
        "serve.compute_ms.p50",
        median(&field(|r| r.compute_us as f64 / 1e3)),
        n,
    );
    out.put(
        "serve.compute_ms_per_image",
        median(&field(|r| {
            r.compute_us as f64 / 1e3 / r.batch.max(1) as f64
        })),
        n,
    );
    let lags: Vec<f64> = phase.infers.iter().map(|r| ms(r.lag)).collect();
    let lag_p90 = quantile(&lags, 0.9);
    out.put("serve.loadgen.lag_ms.p90", lag_p90, lags.len());
    if lag_p90.is_nan() || lag_p90 > lag_limit_ms(mode) {
        out.problem(format!(
            "generator lag p90 {lag_p90:.3} ms exceeds {:.3} ms: the load was not offered as scheduled",
            lag_limit_ms(mode)
        ));
    }
    if mode == Mode::Closed {
        for (op, name) in [
            (AdminOp::Swap, "serve.swap.rtt_ms.p50"),
            (AdminOp::Stats, "serve.stats.rtt_ms.p50"),
            (AdminOp::Profile, "serve.profile.rtt_ms.p50"),
        ] {
            let rtts = phase.rtts_ms(op);
            out.put(name, median(&rtts), rtts.len());
        }
    }
    // Server-side views, read at the end of the run.
    let stats = server.stats_json();
    let requests = stat_at(&stats, &["requests"]).unwrap_or(0.0) as usize;
    out.put(
        "serve.server.reply_write_ms.p50",
        stat_at(&stats, &["latency_ms", "reply_write", "p50"]).unwrap_or(f64::NAN),
        requests,
    );
    let profile = server.profile_json();
    let stages = profile
        .get("stages")
        .and_then(JsonValue::as_array)
        .unwrap_or(&[]);
    let conv_share: f64 = stages
        .iter()
        .filter(|s| s.get("kind").and_then(JsonValue::as_str) == Some("conv"))
        .filter_map(|s| s.get("time_share").and_then(JsonValue::as_f64))
        .sum();
    let forwards = stat_at(&profile, &["forwards"]).unwrap_or(0.0) as usize;
    out.put(
        "telemetry.stageprof.conv.share",
        if forwards == 0 { f64::NAN } else { conv_share },
        forwards,
    );
}

/// The end-to-end figures of one (untraced) window.
fn end_to_end(phase: &Phase, out: &mut Outcome) {
    let lat = phase.latencies_ms();
    out.put("latency_p50_ms", median(&lat), lat.len());
    out.put("latency_p90_ms", quantile(&lat, 0.9), lat.len());
    out.put("throughput_per_s", phase.throughput(), phase.ok().count());
}

/// The headline tracing overhead is judged on.
fn headline(mode: Mode, phase: &Phase) -> (f64, bool) {
    match mode {
        Mode::Trickle => (median(&phase.latencies_ms()), true),
        Mode::Closed => (phase.throughput(), false),
    }
}

pub fn run(ctx: &RunCtx, mode: Mode) -> Outcome {
    let mut out = Outcome::default();
    let images = images(ctx.seed);
    let tel = ctx.tracer.as_ref();
    let mut rig = repeated_setup(&mut out, ctx, SETUP_REPS, None, || setup(tel, &images[0]));
    let (plain_secs, traced_secs) = ctx.phases();
    let plain = measure(&mut rig, ctx, mode, plain_secs, None, &images, ctx.seed);
    let traced = traced_secs.map(|secs| {
        let span = tel.map(|t| t.span("bench.traced_window"));
        let phase = measure(&mut rig, ctx, mode, secs, tel, &images, splitmix(ctx.seed));
        drop(span);
        phase
    });
    match &traced {
        None => end_to_end(&plain, &mut out),
        Some(traced) => {
            per_layer(mode, traced, &rig.server.0, &mut out);
            let (u, lower) = headline(mode, &plain);
            let (t, _) = headline(mode, traced);
            out.put(
                "bench.trace.overhead_pct",
                overhead_pct(u, t, lower),
                traced.infers.len(),
            );
        }
    }
    drop(rig);

    let phases: Vec<&Phase> = std::iter::once(&plain).chain(traced.as_ref()).collect();
    for p in &phases {
        out.attempted += (p.infers.len() + p.admins.len()) as u64;
        out.failed += p.infers.iter().filter(|r| r.reply.is_err()).count() as u64;
        out.failed += p.admins.iter().filter(|a| !a.ok).count() as u64;
        if let Some(Err(e)) = p.infers.iter().map(|r| &r.reply).find(|r| r.is_err()) {
            out.problem(format!("infer failed: {e}"));
        }
    }
    out.failed += verify(&phases, &images, &mut out);
    out
}
