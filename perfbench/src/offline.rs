//! `offline_batch`: in-process `CompiledNet::forward` through one
//! `ExecCtx` — no wire, batcher, or swap — rotating over L-1, L-2,
//! FP 4W8A and FL_b on network 1 at serve geometry, each at batch 64
//! (full AVX2 lane blocks) and batch 1 (the scalar remnant).
//!
//! Setup trains every scheme briefly, so FL_b's per-filter `k_i` are
//! learned rather than initial. Every timed forward is checked
//! bit-for-bit against the same network compiled with
//! `CompileOptions::force_scalar`.

use std::time::{Duration, Instant};

use flight_bench::suite::flight_b;
use flight_data::{DatasetKind, Fidelity, SyntheticDataset};
use flight_kernels::{CompileOptions, CompiledNet, ExecCtx, IntNetwork, OpCounts};
use flight_serve::ModelSpec;
use flight_telemetry::{StageSample, Telemetry};
use flight_tensor::{Tensor, TensorRng};
use flightnn::configs::NetworkConfig;
use flightnn::{FlightTrainer, QuantScheme};

use crate::calib::Calibrator;
use crate::report::{median, windowed_quantile, Outcome, SCHEMES};
use crate::{overhead_pct, repeated_setup, splitmix, RunCtx};

/// The large batch: eight full AVX2 lane blocks.
const BIG: usize = 64;

/// Set-ups per run (each trains four schemes, ~1.5 s).
const SETUP_REPS: usize = 5;

/// Batch-1 forwards per scheme per rotation.
const SINGLES_PER_ROUND: usize = 8;

/// Setup training epochs (of 5 minibatches) for the fixed-`k` schemes:
/// their cost does not depend on training, only their values do.
const BASELINE_EPOCHS: usize = 4;

/// Setup training epochs for FL_b: enough full-λ steps for the
/// group-lasso to move some filters from `k_i = 2` to 1.
const FL_EPOCHS: usize = 16;

fn scheme(label: &str) -> QuantScheme {
    match label {
        "l1" => QuantScheme::l1(),
        "l2" => QuantScheme::l2(),
        "fp4w8a" => QuantScheme::fp4w8a(),
        "fl_b" => flight_b(),
        other => unreachable!("unknown scheme {other}"),
    }
}

/// One trained, compiled scheme with its scalar-path reference answers.
struct Engine {
    label: &'static str,
    net: CompiledNet,
    compile_ms: f64,
    /// Bit patterns of the `force_scalar` logits for the big batch,
    /// one row per image.
    reference: Vec<Vec<u32>>,
}

struct Rig {
    engines: Vec<Engine>,
    big: Tensor,
    singles: Vec<Tensor>,
}

fn bits(t: &Tensor) -> Vec<Vec<u32>> {
    let n = t.dims()[0];
    t.as_slice()
        .chunks(t.len() / n)
        .map(|row| row.iter().map(|v| v.to_bits()).collect())
        .collect()
}

fn setup(seed: u64, tel: Option<&Telemetry>) -> Rig {
    let spec = ModelSpec::default();
    let data = SyntheticDataset::preset(DatasetKind::Cifar10Like, Fidelity::Smoke, seed);
    assert_eq!(data.image_dims(), spec.image_dims, "serve geometry");
    let train = data.train_batches(32);
    let big = data
        .test_batches(BIG)
        .into_iter()
        .next()
        .expect("a test batch")
        .input;
    assert_eq!(big.dims()[0], BIG, "a full test batch");
    let one: Vec<usize> = std::iter::once(1).chain(spec.image_dims).collect();
    let singles = (0..BIG)
        .map(|i| Tensor::from_vec(big.outer(i).to_vec(), &one))
        .collect();
    let engines = SCHEMES
        .iter()
        .enumerate()
        .map(|(i, &label)| {
            let scheme = scheme(label);
            let mut rng = TensorRng::seed(splitmix(seed ^ i as u64));
            let mut net = NetworkConfig::by_id(spec.network).build(
                &scheme,
                &mut rng,
                spec.classes,
                spec.image_dims,
                spec.width,
            );
            let span = tel.map(|t| t.span(&format!("core.trainer.fit.{label}")));
            let mut trainer = FlightTrainer::new(&scheme, 1e-2);
            let epochs = if matches!(scheme, QuantScheme::FLight { .. }) {
                FL_EPOCHS
            } else {
                BASELINE_EPOCHS
            };
            trainer.fit(&mut net, &train, epochs);
            drop(span);
            let span = tel.map(|t| t.span(&format!("kernels.lower.{label}")));
            let start = Instant::now();
            let compiled = CompiledNet::compile(&mut net, true).expect("compile");
            let compile_ms = start.elapsed().as_secs_f64() * 1e3;
            drop(span);
            let scalar = IntNetwork::compile_with(
                &mut net,
                CompileOptions::new()
                    .fold_batch_norm(true)
                    .sequential()
                    .force_scalar(true),
            )
            .expect("compile the scalar reference");
            Engine {
                label,
                net: compiled,
                compile_ms,
                reference: bits(&scalar.forward(&big).0),
            }
        })
        .collect();
    Rig {
        engines,
        big,
        singles,
    }
}

/// Per-stage-kind totals from profiled forwards, calibrated ns.
#[derive(Default)]
struct Profile {
    conv_ns: f64,
    conv_ops: u64,
    requant_ns: f64,
    total_ns: f64,
    images: u64,
}

impl Profile {
    fn absorb(&mut self, sample: &StageSample, images: usize, factor: f64) {
        for i in 0..sample.stages() {
            let (kind, ns, ops) = sample.stage(i).expect("recorded stage");
            let ns = ns as f64 * factor;
            self.total_ns += ns;
            match kind {
                "conv" => {
                    self.conv_ns += ns;
                    self.conv_ops += ops;
                }
                "requant" => self.requant_ns += ns,
                _ => {}
            }
        }
        self.images += images as u64;
    }
}

/// One scheme's calibrated measurements over a window.
#[derive(Default)]
struct SchemeTimes {
    big_s: Vec<f64>,
    single_s: Vec<f64>,
    ops_per_image: f64,
    profile: Profile,
}

struct Window {
    schemes: Vec<SchemeTimes>,
    /// Per rotation, calibrated seconds of the big forwards of every
    /// scheme.
    rounds: Vec<f64>,
    forwards: u64,
    mismatches: u64,
}

impl Window {
    fn images_per_s(&self) -> f64 {
        let rates: Vec<f64> = self
            .rounds
            .iter()
            .map(|big| (BIG * SCHEMES.len()) as f64 / big)
            .collect();
        median(&rates)
    }

    /// The `q`-quantile of each scheme's calibrated batch-1 forwards
    /// (windowed, see [`windowed_quantile`]), averaged over the schemes,
    /// ms. Pooling the schemes instead would put the median on the gap
    /// between two schemes' costs, where it jumps from one to the other
    /// with the sample.
    fn single_ms(&self, q: f64) -> f64 {
        let per_scheme: Vec<f64> = self
            .schemes
            .iter()
            .map(|t| windowed_quantile(&t.single_s, q) * 1e3)
            .collect();
        per_scheme.iter().sum::<f64>() / per_scheme.len() as f64
    }

    fn singles(&self) -> usize {
        self.schemes.iter().map(|t| t.single_s.len()).sum()
    }
}

/// One forward, timed around the call alone (the span, when tracing,
/// opens before the timer starts and closes after it stops). Traced
/// forwards go through `forward_profiled`, which fills `sample`.
fn timed_forward(
    engine: &Engine,
    x: &Tensor,
    exec: &mut ExecCtx,
    sample: &mut StageSample,
    tel: Option<&Telemetry>,
    batch: &str,
) -> (Tensor, OpCounts, f64) {
    let span = tel.map(|t| t.span(&format!("kernels.forward.{}.{batch}", engine.label)));
    let start = Instant::now();
    let (y, counts) = if tel.is_some() {
        engine.net.forward_profiled(x, exec, sample)
    } else {
        engine.net.forward(x, exec)
    };
    let secs = start.elapsed().as_secs_f64();
    drop(span);
    (y, counts, secs)
}

/// Rotates over the schemes until `seconds` have passed. Each scheme's
/// block runs [`SINGLES_PER_ROUND`] batch-1 forwards between two runs
/// of the integer reference, calibrated by the mean of their factors,
/// then one big forward, calibrated by the second factor (the
/// reference streams a batch of 64 like it, right before it). Batch-1
/// forwards are short enough for a burst of host contention to land
/// inside one block, so they get the closer bracket.
fn measure(
    rig: &Rig,
    ctx: &RunCtx,
    seconds: f64,
    tel: Option<&Telemetry>,
    calib: &mut Calibrator,
) -> Window {
    let mut exec = ExecCtx::new();
    let mut sample = StageSample::new();
    let mut window = Window {
        schemes: rig.engines.iter().map(|_| SchemeTimes::default()).collect(),
        rounds: Vec::new(),
        forwards: 0,
        mismatches: 0,
    };
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut round = 0usize;
    while Instant::now() < deadline || window.rounds.is_empty() {
        let mut big_total = 0.0;
        for (engine, times) in rig.engines.iter().zip(&mut window.schemes) {
            let calibrate = |calib: &mut Calibrator| {
                let _span = tel.map(|t| t.span("bench.calibrate"));
                calib.int_factor()
            };
            let before = calibrate(calib);
            let mut singles = Vec::with_capacity(SINGLES_PER_ROUND);
            for i in 0..SINGLES_PER_ROUND {
                let j = (round * SINGLES_PER_ROUND + i) % BIG;
                let (y, _, secs) =
                    timed_forward(engine, &rig.singles[j], &mut exec, &mut sample, tel, "b1");
                singles.push(secs);
                window.forwards += 1;
                if bits(&y)[0] != engine.reference[j] {
                    window.mismatches += 1;
                }
            }
            let factor = calibrate(calib);
            let single_factor = (before + factor) / 2.0;
            times
                .single_s
                .extend(singles.iter().map(|secs| secs * single_factor));
            let (y, counts, secs) =
                timed_forward(engine, &rig.big, &mut exec, &mut sample, tel, "b64");
            if tel.is_some() {
                times.profile.absorb(&sample, BIG, factor);
            }
            times.big_s.push(secs * factor);
            times.ops_per_image = counts.total() as f64 / BIG as f64;
            big_total += secs * factor;
            window.forwards += 1;
            if bits(&y) != engine.reference {
                window.mismatches += 1;
            }
        }
        window.rounds.push(big_total);
        ctx.watchdog.bump();
        round += 1;
    }
    window
}

pub fn run(ctx: &RunCtx) -> Outcome {
    let mut out = Outcome::default();
    let tel = ctx.tracer.as_ref();
    let mut calib = Calibrator::new();
    let mut compile_ms: Vec<Vec<f64>> = vec![Vec::new(); SCHEMES.len()];
    let rig = repeated_setup(&mut out, ctx, SETUP_REPS, Some(&mut calib), || {
        let rig = setup(ctx.seed, tel);
        for (all, e) in compile_ms.iter_mut().zip(&rig.engines) {
            all.push(e.compile_ms);
        }
        rig
    });
    let (plain_secs, traced_secs) = ctx.phases();
    let plain = measure(&rig, ctx, plain_secs, None, &mut calib);
    let traced = traced_secs.map(|secs| {
        let _span = tel.map(|t| t.span("bench.traced_window"));
        measure(&rig, ctx, secs, tel, &mut calib)
    });
    match &traced {
        None => {
            out.put("latency_p50_ms", plain.single_ms(0.5), plain.singles());
            out.put("latency_p90_ms", plain.single_ms(0.9), plain.singles());
            out.put("throughput_per_s", plain.images_per_s(), plain.rounds.len());
        }
        Some(w) => {
            for ((engine, t), compiles) in rig.engines.iter().zip(&w.schemes).zip(&compile_ms) {
                let e = format!("kernels.engine.{}", engine.label);
                let p = &t.profile;
                let n = t.big_s.len();
                out.put(
                    format!("{e}.us_per_image.b64"),
                    median(&t.big_s) * 1e6 / BIG as f64,
                    n,
                );
                out.put(
                    format!("{e}.us_per_image.b1"),
                    median(&t.single_s) * 1e6,
                    t.single_s.len(),
                );
                out.put(format!("{e}.ops_per_image"), t.ops_per_image, n);
                out.put(
                    format!("{e}.conv.ns_per_op"),
                    p.conv_ns / p.conv_ops as f64,
                    n,
                );
                out.put(format!("{e}.conv.share"), p.conv_ns / p.total_ns, n);
                out.put(
                    format!("{e}.requant.ns_per_image"),
                    p.requant_ns / p.images as f64,
                    n,
                );
                out.put(
                    format!("kernels.lower.{}.compile_ms", engine.label),
                    median(compiles),
                    compiles.len(),
                );
            }
            out.put(
                "bench.trace.overhead_pct",
                overhead_pct(plain.images_per_s(), w.images_per_s(), false),
                w.rounds.len(),
            );
        }
    }
    out.put(
        "bench.host.ref_int_ms",
        median(&calib.int_ms),
        calib.int_ms.len(),
    );
    out.put(
        "bench.host.ref_float_ms",
        median(&calib.float_ms),
        calib.float_ms.len(),
    );
    for w in std::iter::once(&plain).chain(traced.as_ref()) {
        out.attempted += w.forwards;
        out.failed += w.mismatches;
        if w.mismatches > 0 {
            out.problem(format!(
                "{} forwards differ from the force_scalar reference",
                w.mismatches
            ));
        }
    }
    out
}
