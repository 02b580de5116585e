//! `train_fl`: `FlightTrainer` epochs of FL_b on network 1 over the
//! bench-fidelity Cifar10-like synthetic set — the only workload on the
//! training path of `flight-tensor`, `flight-nn`, and `flightnn`.
//!
//! The window runs whole trials back to back: a fresh seeded network,
//! [`EPOCHS_PER_TRIAL`] epochs, then a forward-only
//! `flight_nn::evaluate` over the test set. Training is deterministic,
//! so every trial must end on the bit-identical loss and the same
//! `core.fl.mean_k` as the first; a trial that does not, or whose loss
//! is not finite, is a failed operation.

use std::time::{Duration, Instant};

use flight_bench::suite::flight_b;
use flight_bench::BenchProfile;
use flight_data::{DatasetKind, Fidelity, SyntheticDataset};
use flight_nn::{evaluate, Batch};
use flight_telemetry::Telemetry;
use flight_tensor::TensorRng;
use flightnn::configs::NetworkConfig;
use flightnn::{FlightTrainer, QuantNet};

use crate::calib::Calibrator;
use crate::report::{median, windowed_quantile, Outcome};
use crate::{overhead_pct, repeated_setup, splitmix, RunCtx};

/// Epochs per trial.
const EPOCHS_PER_TRIAL: usize = 3;

/// Set-ups per run (dataset generation, ~0.2 s each).
const SETUP_REPS: usize = 5;

/// Fewest trials a window runs, so the repeat check always has a pair.
const MIN_TRIALS: usize = 2;

struct Rig {
    profile: BenchProfile,
    config: NetworkConfig,
    train: Vec<Batch>,
    test: Vec<Batch>,
    image_dims: [usize; 3],
    classes: usize,
}

fn setup(seed: u64, tel: Option<&Telemetry>) -> Rig {
    let _span = tel.map(|t| t.span("flight_data.generate"));
    let profile = BenchProfile::for_fidelity(Fidelity::Bench);
    let data = SyntheticDataset::generate(&profile.dataset_spec(DatasetKind::Cifar10Like), seed);
    Rig {
        profile,
        config: NetworkConfig::by_id(1),
        train: data.train_batches(profile.batch),
        test: data.test_batches(64),
        image_dims: data.image_dims(),
        classes: data.classes(),
    }
}

fn mean_k(net: &mut QuantNet) -> f64 {
    let counts = net.all_shift_counts();
    counts.iter().sum::<usize>() as f64 / counts.len().max(1) as f64
}

/// What one trial ends on; two trials of the same seed must agree
/// bit for bit.
#[derive(Debug, Clone, Copy, PartialEq)]
struct TrialEnd {
    loss_bits: u32,
    mean_k: f64,
}

#[derive(Default)]
struct Window {
    epoch_s: Vec<f64>,
    epoch_samples: Vec<usize>,
    /// Calibrated time of every minibatch step, ms.
    step_ms: Vec<f64>,
    eval_rates: Vec<f64>,
    ends: Vec<TrialEnd>,
    non_finite: u64,
}

impl Window {
    fn samples_per_s(&self) -> f64 {
        let rates: Vec<f64> = self
            .epoch_s
            .iter()
            .zip(&self.epoch_samples)
            .map(|(s, n)| *n as f64 / s)
            .collect();
        median(&rates)
    }
}

/// The float reference's factor, run under a span when tracing.
fn factor(calib: &mut Calibrator, tel: Option<&Telemetry>) -> f64 {
    let _span = tel.map(|t| t.span("bench.calibrate"));
    calib.float_factor()
}

/// One trial. Every minibatch step is its own `train_epoch` call over
/// that one minibatch — the same updates as one call over the epoch,
/// since `FlightTrainer` steps per minibatch and keeps its optimizer
/// state between calls — so that each step is timed on its own, and
/// the float reference runs between steps: a step's time is calibrated
/// by the mean of the factors before and after it. Host contention on
/// the shared machine comes and goes within a tenth of a second, so
/// coarser brackets leave its bursts in the step times' tail. The
/// evaluation is bracketed the same way.
fn trial(
    rig: &Rig,
    ctx: &RunCtx,
    tel: Option<&Telemetry>,
    window: &mut Window,
    calib: &mut Calibrator,
) {
    let scheme = flight_b();
    let mut rng = TensorRng::seed(splitmix(ctx.seed));
    let mut net = rig.config.build(
        &scheme,
        &mut rng,
        rig.classes,
        rig.image_dims,
        rig.profile.width_scale(rig.config.width),
    );
    let mut trainer = FlightTrainer::new(&scheme, rig.profile.lr);
    let mut loss = f32::NAN;
    let mut before = factor(calib, tel);
    for _ in 0..EPOCHS_PER_TRIAL {
        let epoch_span = tel.map(|t| t.span("bench.epoch"));
        let (mut secs, mut samples, mut loss_sum) = (0.0, 0usize, 0.0f64);
        for batch in &rig.train {
            let span = tel.map(|t| t.span("flightnn.trainer.train_epoch"));
            let start = Instant::now();
            let stats = trainer.train_epoch(&mut net, std::slice::from_ref(batch));
            let raw = start.elapsed().as_secs_f64();
            drop(span);
            let after = factor(calib, tel);
            let step = raw * (before + after) / 2.0;
            before = after;
            secs += step;
            window.step_ms.push(step * 1e3);
            samples += stats.samples;
            loss_sum += f64::from(stats.loss) * stats.samples as f64;
        }
        drop(epoch_span);
        window.epoch_s.push(secs);
        window.epoch_samples.push(samples);
        loss = (loss_sum / samples as f64) as f32;
        if !loss.is_finite() {
            window.non_finite += 1;
        }
        ctx.watchdog.bump();
    }
    let end = TrialEnd {
        loss_bits: loss.to_bits(),
        mean_k: mean_k(&mut net),
    };
    let span = tel.map(|t| t.span("flight_nn.train.evaluate"));
    let start = Instant::now();
    let eval = evaluate(&mut net, &rig.test, 1);
    let secs = start.elapsed().as_secs_f64();
    drop(span);
    let after = factor(calib, tel);
    window
        .eval_rates
        .push(eval.samples as f64 / (secs * (before + after) / 2.0));
    window.ends.push(end);
}

fn measure(
    rig: &Rig,
    ctx: &RunCtx,
    seconds: f64,
    tel: Option<&Telemetry>,
    calib: &mut Calibrator,
) -> Window {
    let mut window = Window::default();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    while window.ends.len() < MIN_TRIALS || Instant::now() < deadline {
        trial(rig, ctx, tel, &mut window, calib);
    }
    window
}

pub fn run(ctx: &RunCtx) -> Outcome {
    let mut out = Outcome::default();
    let tel = ctx.tracer.as_ref();
    let mut calib = Calibrator::new();
    let rig = repeated_setup(&mut out, ctx, SETUP_REPS, Some(&mut calib), || {
        setup(ctx.seed, tel)
    });
    let (plain_secs, traced_secs) = ctx.phases();
    let plain = measure(&rig, ctx, plain_secs, None, &mut calib);
    let traced = traced_secs.map(|secs| {
        let _span = tel.map(|t| t.span("bench.traced_window"));
        measure(&rig, ctx, secs, tel, &mut calib)
    });
    match &traced {
        None => {
            let steps = &plain.step_ms;
            out.put("latency_p50_ms", windowed_quantile(steps, 0.5), steps.len());
            out.put("latency_p90_ms", windowed_quantile(steps, 0.9), steps.len());
            out.put(
                "throughput_per_s",
                plain.samples_per_s(),
                plain.epoch_s.len(),
            );
        }
        Some(w) => {
            out.put("core.fl.mean_k", w.ends[0].mean_k, w.ends.len());
            out.put("core.trainer.epoch_s", median(&w.epoch_s), w.epoch_s.len());
            out.put(
                "nn.train.eval_samples_per_s",
                median(&w.eval_rates),
                w.eval_rates.len(),
            );
            out.put(
                "bench.trace.overhead_pct",
                overhead_pct(plain.samples_per_s(), w.samples_per_s(), false),
                w.epoch_s.len(),
            );
        }
    }
    out.put(
        "bench.host.ref_float_ms",
        median(&calib.float_ms),
        calib.float_ms.len(),
    );
    let windows: Vec<&Window> = std::iter::once(&plain).chain(traced.as_ref()).collect();
    let first = plain.ends[0];
    for w in windows {
        out.attempted += (w.epoch_s.len() + w.eval_rates.len()) as u64;
        out.failed += w.non_finite;
        let diverged = w.ends.iter().filter(|e| **e != first).count() as u64;
        out.failed += diverged;
        if w.non_finite > 0 {
            out.problem(format!(
                "{} epochs ended on a non-finite loss",
                w.non_finite
            ));
        }
        if diverged > 0 {
            out.problem(format!(
                "{diverged} trials did not repeat the first trial's final loss and mean k \
                 ({first:?})"
            ));
        }
    }
    out
}
