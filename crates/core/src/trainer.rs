//! Algorithm 1: the FLightNN training epoch.
//!
//! Per minibatch:
//!
//! 1. quantize weights (`w^q = Q_k(w | t)`; happens inside the quantized
//!    layers' forward pass),
//! 2. forward; compute the cross-entropy loss `L_CE` and the group-lasso
//!    regularization loss `L_reg,k` (total `L = L_CE + L_reg`),
//! 3. backward: `∂L/∂w^q` (applied to the shadow weights via STE),
//!    `∂L/∂b`, and `∂L/∂t` (sigmoid-relaxed rule),
//! 4. update weights, biases and thresholds with Adam.
//!
//! Two deviations from a literal reading of Algorithm 1, both documented
//! in `DESIGN.md` §3 and validated by the `threshold_dynamics`
//! integration tests:
//!
//! * **Threshold projection.** After every step thresholds are clamped to
//!   `[0, ∞)`. A negative threshold is indistinguishable from zero in the
//!   hard forward (residual norms are non-negative), but once negative
//!   the surrogate gradient dies with `R(r_j) → 0` and the threshold
//!   would freeze forever.
//! * **Separate threshold optimizer.** Thresholds are updated with plain
//!   SGD at their own learning rate (`DEFAULT_THRESHOLD_LR_SCALE × lr`)
//!   instead of Adam. Adam normalizes gradients per coordinate, so even
//!   the exponentially sigmoid-suppressed "tension" signal of filters far
//!   from their threshold would be amplified into full-size steps,
//!   marching thresholds indiscriminately; under SGD only filters in the
//!   sigmoid's live zone move their thresholds, which is the paper's
//!   intended selection dynamic.
//!
//! The built-in [`FlightTrainer::fit_two_phase`] recipe implements the
//! gradual-quantization schedule the paper credits for FLightNN's
//! accuracy (§5.2): a *snap* phase with the full group-lasso strength
//! drives per-filter residuals onto the power-of-two grid, then a
//! *release* phase (reduced λ, decayed lr) lets the thresholds rise past
//! the now-tiny residual norms of filters whose second shift no longer
//! pays for itself.

use flight_nn::loss::{softmax_cross_entropy, top_k_accuracy};
use flight_nn::optim::{Adam, Optimizer};
use flight_nn::{Batch, EpochStats, Layer, Param};
use flight_telemetry::{FixedHistogram, Telemetry};
use flight_tensor::Tensor;

use crate::layers::LayerTrainStats;
use crate::net::{QuantLayerMut, QuantNet};
use crate::reg::RegStrength;
use crate::scheme::QuantScheme;

/// Default ratio between the threshold learning rate and the weight
/// learning rate.
pub const DEFAULT_THRESHOLD_LR_SCALE: f32 = 10.0;

/// How the group-lasso regularizer is optimized.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RegMode {
    /// Proximal steps after each weight update (default). The proximal
    /// operator captures residual groups at *exactly* zero, which is what
    /// lets the strict indicator `‖r_j‖ > t_j` gate levels off at the
    /// initial `t_j = 0` — plain subgradient steps leave an oscillation
    /// floor of order `lr·√dim` and never produce exact zeros.
    #[default]
    Proximal,
    /// Subgradient accumulation into the shadow-weight gradients (the
    /// literal reading of Algorithm 1; kept for the ablation bench).
    Gradient,
}

/// Trains quantized networks with Algorithm 1.
///
/// # Example
///
/// ```
/// use flightnn::{FlightTrainer, QuantScheme};
///
/// let trainer = FlightTrainer::new(&QuantScheme::flight(1e-5), 1e-3);
/// assert!(trainer.reg().levels() == 2);
/// ```
pub struct FlightTrainer {
    opt: Adam,
    reg: RegStrength,
    reg_scale: f32,
    threshold_lr: f32,
    allow_pruning: bool,
    reg_mode: RegMode,
    telemetry: Telemetry,
}

impl FlightTrainer {
    /// Creates a trainer for models built with `scheme` (the scheme's
    /// regularization strengths are adopted) and Adam learning rate `lr`.
    ///
    /// # Panics
    ///
    /// Panics if `lr` is not finite and positive.
    pub fn new(scheme: &QuantScheme, lr: f32) -> Self {
        FlightTrainer {
            opt: Adam::new(lr),
            reg: scheme.reg(),
            reg_scale: 1.0,
            threshold_lr: lr * DEFAULT_THRESHOLD_LR_SCALE,
            allow_pruning: false,
            reg_mode: RegMode::default(),
            telemetry: Telemetry::null(),
        }
    }

    /// Attaches a telemetry handle (default: the null sink). Each epoch
    /// then emits a `train.epoch` span, loss/accuracy/throughput gauges,
    /// the threshold trajectories `t_j`, the per-filter `k_i` histogram,
    /// the proximal-capture counter, and the per-layer training-dynamics
    /// signals (`train.layer.*` gradient norms, STE clip rates and
    /// shadow-weight histograms; `train.reg.r{j}`/`lambda{j}` sums).
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// The telemetry handle in use.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Selects how the regularizer is optimized (default
    /// [`RegMode::Proximal`]).
    pub fn with_reg_mode(mut self, mode: RegMode) -> Self {
        self.reg_mode = mode;
        self
    }

    /// Allows the level-0 threshold to train, enabling whole-filter
    /// pruning (`k_i = 0`). Off by default: the paper's FLightNN table
    /// entries sit between LightNN-1 and LightNN-2 (k_i ∈ {1, 2}; their
    /// storage never drops below LightNN-1's), and unconstrained pruning
    /// can gate off an entire early layer on small networks.
    pub fn with_pruning(mut self) -> Self {
        self.allow_pruning = true;
        self
    }

    /// The group-lasso strengths in use (before the phase scale).
    pub fn reg(&self) -> &RegStrength {
        &self.reg
    }

    /// Overrides the threshold learning rate (`threshold_lr_scale × lr`
    /// by default).
    ///
    /// # Panics
    ///
    /// Panics if `lr` is not finite and positive.
    pub fn with_threshold_lr(mut self, lr: f32) -> Self {
        assert!(lr.is_finite() && lr > 0.0, "invalid threshold lr {lr}");
        self.threshold_lr = lr;
        self
    }

    /// Current weight learning rate.
    pub fn learning_rate(&self) -> f32 {
        self.opt.learning_rate()
    }

    /// Replaces the weight learning rate (schedules). The threshold
    /// learning rate is left unchanged.
    pub fn set_learning_rate(&mut self, lr: f32) {
        self.opt.set_learning_rate(lr);
    }

    /// Scales the effective regularization strength (used by the
    /// two-phase schedule; 1.0 = the scheme's λ).
    ///
    /// # Panics
    ///
    /// Panics if `scale` is negative or not finite.
    pub fn set_reg_scale(&mut self, scale: f32) {
        assert!(
            scale.is_finite() && scale >= 0.0,
            "invalid reg scale {scale}"
        );
        self.reg_scale = scale;
    }

    /// Runs one training epoch and returns the epoch statistics (loss
    /// includes the regularization term).
    pub fn train_epoch(&mut self, net: &mut QuantNet, batches: &[Batch]) -> EpochStats {
        let start = std::time::Instant::now();
        let epoch_span = self.telemetry.span("train.epoch");
        let mut total_loss = 0.0f64;
        let mut correct = 0.0f64;
        let mut samples = 0usize;
        let mut prox_captures = 0u64;

        // Effective strengths: phase scale applied; the pruning term λ_0
        // is disabled unless pruning was requested (a zero level-0
        // residual would gate the whole filter off at t_0 = 0).
        let reg = RegStrength::new(
            (0..self.reg.levels())
                .map(|j| {
                    if j == 0 && !self.allow_pruning {
                        0.0
                    } else {
                        self.reg.lambda(j) * self.reg_scale
                    }
                })
                .collect(),
        );

        for batch in batches {
            if batch.is_empty() {
                continue;
            }
            net.zero_grad();
            let logits = net.forward(&batch.input, true);
            let (ce_loss, grad) = softmax_cross_entropy(&logits, &batch.labels);
            net.backward(&grad);

            // Regularization (gradient mode): accumulate subgradients from
            // this batch's quantization traces before the optimizer step.
            let mut reg_loss = 0.0f32;
            if self.reg_mode == RegMode::Gradient && !reg.is_zero() {
                net.visit_quant_layers(&mut |l| reg_loss += l.into_weights().accumulate_reg(&reg));
            }

            // Fold the post-reg shadow-gradient norm into each layer's
            // training-dynamics stats (the quantized-path norm and STE
            // clip counts were recorded inside backward).
            net.visit_quant_layers(&mut |l| l.into_weights().observe_shadow_grad());

            // Thresholds get their own optimizer: stash their gradients and
            // zero them so the weight optimizer skips them.
            let mut stash: Vec<(u64, Tensor)> = Vec::new();
            Self::for_each_threshold(net, &mut |t| {
                stash.push((t.id(), t.grad.clone()));
                t.zero_grad();
            });

            self.opt.step(net);

            // Regularization (proximal mode): shrink residual groups after
            // the weight step, capturing fully-shrunk groups at zero.
            if self.reg_mode == RegMode::Proximal && !reg.is_zero() {
                let step = self.opt.learning_rate();
                net.visit_quant_layers(&mut |l| {
                    prox_captures += l.into_weights().apply_reg_prox(&reg, step) as u64;
                });
            }

            // Threshold step (plain SGD) + projection onto [0, ∞).
            let lr_t = self.threshold_lr;
            let allow_pruning = self.allow_pruning;
            let mut stash_iter = stash.into_iter();
            Self::for_each_threshold(net, &mut |t| {
                let (id, g) = stash_iter.next().expect("stash matches visit order");
                debug_assert_eq!(id, t.id());
                t.value.axpy(-lr_t, &g);
                t.value.map_in_place(|v| v.max(0.0));
                if !allow_pruning && !t.value.is_empty() {
                    // Pin the pruning threshold t_0 at zero.
                    t.value.as_mut_slice()[0] = 0.0;
                }
            });

            let n = batch.len();
            total_loss += (ce_loss + reg_loss) as f64 * n as f64;
            correct += top_k_accuracy(&logits, &batch.labels, 1) as f64 * n as f64;
            samples += n;
        }

        let stats =
            EpochStats::from_totals(total_loss, correct, samples, start.elapsed().as_secs_f32());
        self.record_epoch(net, &stats, prox_captures, &reg);
        drop(epoch_span);
        stats
    }

    /// Emits one epoch's telemetry: loss/accuracy/throughput gauges, the
    /// threshold trajectories `t_j` of every quantized layer, the
    /// per-filter `k_i` histogram, the proximal-capture counter, and the
    /// training-dynamics signals (per-layer gradient norms along both
    /// paths, STE clip rates, shadow-weight magnitude histograms, and
    /// the per-order residual norms `Σ_i ‖r_{i,j}‖₂` next to their
    /// effective `λ_j`). Drains the per-layer accumulators either way so
    /// their per-epoch semantics survive a disabled sink.
    fn record_epoch(
        &self,
        net: &mut QuantNet,
        stats: &EpochStats,
        prox_captures: u64,
        reg: &RegStrength,
    ) {
        if !self.telemetry.enabled() {
            net.visit_quant_layers(&mut |l| {
                l.into_weights().take_train_stats();
            });
            return;
        }
        let telemetry = &self.telemetry;
        telemetry.gauge("train.epoch.loss", stats.loss as f64, "nats");
        telemetry.gauge("train.epoch.accuracy", stats.accuracy as f64, "ratio");
        telemetry.gauge(
            "train.epoch.samples_per_sec",
            stats.samples_per_sec as f64,
            "samples/s",
        );
        telemetry.counter("train.prox_captures", prox_captures, "group");

        // Per-layer signals, named by layer kind and position (`c{n}` for
        // convs, `f{n}` for linears): threshold trajectories, training
        // dynamics, and residual-norm sums (the latter accumulated
        // network-wide per order).
        let mut reg_sums: Vec<f64> = Vec::new();
        let (mut convs, mut linears) = (0usize, 0usize);
        net.visit_quant_layers(&mut |layer| {
            let (kind, n) = match layer {
                QuantLayerMut::Conv(_) => ("c", &mut convs),
                QuantLayerMut::Linear(_) => ("f", &mut linears),
            };
            let label = format!("{kind}{n}");
            *n += 1;
            let w = layer.into_weights();
            if let Some(t) = w.thresholds() {
                for (j, &tj) in t.value.as_slice().iter().enumerate() {
                    telemetry.gauge(&format!("train.threshold.{label}.t{j}"), tj as f64, "norm");
                }
            }
            let dyn_stats = w.take_train_stats();
            record_layer_dynamics(telemetry, &label, &dyn_stats, w.shadow().value.as_slice());
            accumulate_reg_sums(&mut reg_sums, w.residual_norm_sums());
        });

        // The group-lasso objective per order, next to its effective λ_j
        // (flightctl health gates its stagnation check on λ_j > 0).
        if !reg_sums.is_empty() {
            for (j, &sum) in reg_sums.iter().enumerate() {
                telemetry.gauge(&format!("train.reg.r{j}"), sum, "l2");
            }
            for j in 0..reg.levels() {
                telemetry.gauge(
                    &format!("train.reg.lambda{j}"),
                    reg.lambda(j) as f64,
                    "strength",
                );
            }
        }

        // Per-filter shift counts k_i across the whole network.
        let counts = net.all_shift_counts();
        if !counts.is_empty() {
            let mut hist = FixedHistogram::integers(self.reg.levels());
            for &k in &counts {
                hist.record_usize(k);
            }
            telemetry.histogram("train.k_hist", &hist);
            let mean_k = counts.iter().sum::<usize>() as f64 / counts.len() as f64;
            telemetry.gauge("train.mean_k", mean_k, "shifts");
            telemetry.gauge("train.filters", counts.len() as f64, "count");
        }
    }

    /// Trains for `epochs` epochs at the current settings, returning the
    /// stats of the last epoch.
    pub fn fit(&mut self, net: &mut QuantNet, batches: &[Batch], epochs: usize) -> EpochStats {
        let mut last = EpochStats::default();
        for _ in 0..epochs {
            last = self.train_epoch(net, batches);
        }
        last
    }

    /// The gradual-quantization schedule (§5.2: "initially FLightNNs
    /// quantize all the filters with two shifts, and gradually add
    /// constraints"). Three phases in proximal mode:
    ///
    /// 1. **learn** (50% of epochs): regularizer off — the network trains
    ///    with the full `k_max` freedom;
    /// 2. **snap** (30%): learning rate × 0.3, λ ramped from 0 to full —
    ///    residual groups whose cross-entropy defense is weak get
    ///    captured onto the one-shift grid while important filters
    ///    resist;
    /// 3. **settle** (20%): learning rate × 0.1, λ held — shift counts
    ///    freeze (proximal capture is absorbing at matched shrink/noise
    ///    scales) and accuracy recovers.
    ///
    /// Gradient mode keeps the older two-phase snap/release shape (kept
    /// for the reg-mode ablation). Returns the final epoch's stats.
    pub fn fit_two_phase(
        &mut self,
        net: &mut QuantNet,
        batches: &[Batch],
        epochs: usize,
    ) -> EpochStats {
        let base_lr = self.learning_rate();
        let stats = match self.reg_mode {
            RegMode::Proximal => {
                let learn = epochs / 2;
                let snap = (epochs * 3) / 10;
                let settle = epochs - learn - snap;

                self.set_reg_scale(0.0);
                self.fit(net, batches, learn);

                self.set_learning_rate(base_lr * 0.3);
                for e in 0..snap {
                    self.set_reg_scale(if snap > 1 {
                        e as f32 / (snap - 1) as f32
                    } else {
                        1.0
                    });
                    self.train_epoch(net, batches);
                }

                self.set_reg_scale(1.0);
                self.set_learning_rate(base_lr * 0.1);
                self.fit(net, batches, settle)
            }
            RegMode::Gradient => {
                let snap = (epochs * 3).div_ceil(5);
                for e in 0..snap {
                    self.set_reg_scale(if snap > 1 {
                        e as f32 / (snap - 1) as f32
                    } else {
                        1.0
                    });
                    self.train_epoch(net, batches);
                }
                // Release: regularization off so the reg–CE tension stops
                // pinning the thresholds; weights are nearly frozen (the
                // STE loss is piecewise constant in the shadow weights)
                // and the thresholds climb past dead residuals.
                self.set_reg_scale(0.0);
                self.set_learning_rate(base_lr * 0.1);
                self.fit(net, batches, epochs - snap)
            }
        };
        self.set_learning_rate(base_lr);
        self.set_reg_scale(1.0);
        stats
    }

    fn for_each_threshold(net: &mut QuantNet, f: &mut dyn FnMut(&mut Param)) {
        net.visit_quant_layers(&mut |l| {
            if let Some(t) = l.into_weights().thresholds_mut() {
                f(t);
            }
        });
    }
}

/// Emits one layer's per-epoch training-dynamics telemetry: mean
/// gradient norms along the quantized and shadow paths, the STE clip
/// rate (weights the hard forward cannot see but whose shadow values
/// still move), and a log₂-spaced `|w|` histogram of the shadow weights.
fn record_layer_dynamics(
    telemetry: &Telemetry,
    label: &str,
    stats: &LayerTrainStats,
    shadow: &[f32],
) {
    if stats.batches > 0 {
        telemetry.gauge(
            &format!("train.layer.{label}.grad_norm.quant"),
            stats.mean_grad_norm_quant(),
            "l2",
        );
        telemetry.gauge(
            &format!("train.layer.{label}.grad_norm.shadow"),
            stats.mean_grad_norm_shadow(),
            "l2",
        );
        telemetry.gauge(
            &format!("train.layer.{label}.ste.clip_rate"),
            stats.clip_rate(),
            "ratio",
        );
        telemetry.counter(
            &format!("train.layer.{label}.ste.clipped"),
            stats.ste_clipped,
            "element",
        );
    }
    if !shadow.is_empty() {
        let mut hist = FixedHistogram::new((-8..=0).map(|e| f64::powi(2.0, e)).collect());
        for &w in shadow {
            hist.record(w.abs() as f64);
        }
        telemetry.histogram(&format!("train.layer.{label}.shadow_absw"), &hist);
    }
}

/// Elementwise-accumulates one layer's residual-norm sums into the
/// network-wide per-order totals.
fn accumulate_reg_sums(acc: &mut Vec<f64>, sums: Vec<f64>) {
    if sums.len() > acc.len() {
        acc.resize(sums.len(), 0.0);
    }
    for (a, s) in acc.iter_mut().zip(sums) {
        *a += s;
    }
}

impl std::fmt::Debug for FlightTrainer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "FlightTrainer(lr {}, threshold lr {}, reg levels {})",
            self.opt.learning_rate(),
            self.threshold_lr,
            self.reg.levels()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::configs::NetworkConfig;
    use flight_data::{DatasetKind, Fidelity, SyntheticDataset};
    use flight_nn::evaluate;
    use flight_telemetry::CollectingSink;
    use flight_tensor::TensorRng;

    fn train_scheme_with(
        scheme: &QuantScheme,
        epochs: usize,
        seed: u64,
        telemetry: Telemetry,
    ) -> (f32, QuantNet) {
        let data = SyntheticDataset::preset(DatasetKind::Cifar10Like, Fidelity::Smoke, 7);
        let mut rng = TensorRng::seed(seed);
        let cfg = NetworkConfig::by_id(1);
        let mut net = cfg.build(scheme, &mut rng, data.classes(), data.image_dims(), 0.25);
        let mut trainer = FlightTrainer::new(scheme, 1e-2).with_telemetry(telemetry);
        let train = data.train_batches(16);
        trainer.fit_two_phase(&mut net, &train, epochs);
        let test = data.test_batches(32);
        let stats = evaluate(&mut net, &test, 1);
        (stats.accuracy, net)
    }

    fn train_scheme(scheme: &QuantScheme, epochs: usize, seed: u64) -> (f32, QuantNet) {
        train_scheme_with(scheme, epochs, seed, Telemetry::null())
    }

    #[test]
    fn flight_training_learns_above_chance() {
        let (acc, _) = train_scheme(&QuantScheme::flight(1e-4), 6, 1);
        assert!(acc > 0.3, "FLightNN accuracy stuck at {acc} (chance = 0.1)");
    }

    #[test]
    fn lightnn_training_learns_above_chance() {
        let data = SyntheticDataset::preset(DatasetKind::Cifar10Like, Fidelity::Smoke, 7);
        let mut rng = TensorRng::seed(2);
        let scheme = QuantScheme::l2();
        let cfg = NetworkConfig::by_id(1);
        let mut net = cfg.build(&scheme, &mut rng, data.classes(), data.image_dims(), 0.25);
        let mut trainer = FlightTrainer::new(&scheme, 3e-3);
        trainer.fit(&mut net, &data.train_batches(16), 6);
        let stats = evaluate(&mut net, &data.test_batches(32), 1);
        assert!(
            stats.accuracy > 0.3,
            "L-2 accuracy stuck at {}",
            stats.accuracy
        );
    }

    #[test]
    fn strong_regularization_reduces_shift_counts() {
        // With a strong snap λ the release phase must gate some second
        // shifts off: the average k_i drops below the k_max = 2 start.
        let sink = std::sync::Arc::new(CollectingSink::new());
        let (_, mut strong) = train_scheme_with(
            &crate::scheme::QuantScheme::flight_with(RegStrength::new(vec![0.0, 6.0]), 2),
            30,
            3,
            Telemetry::new(sink.clone()),
        );
        let counts = strong.all_shift_counts();
        let mean_k: f32 = counts.iter().sum::<usize>() as f32 / counts.len().max(1) as f32;
        assert!(
            mean_k < 1.5,
            "heavy regularization left mean k_i at {mean_k}"
        );

        // The trainer reports the same trajectory through telemetry: the
        // last train.mean_k gauge matches the post-hoc recount, and the
        // filter count is published alongside it.
        let events = sink.events();
        let reported: Vec<f64> = events
            .iter()
            .filter(|e| e.name == "train.mean_k")
            .map(|e| e.value)
            .collect();
        assert!(
            !reported.is_empty(),
            "train.mean_k must be emitted per epoch"
        );
        assert!(
            (reported.last().unwrap() - mean_k as f64).abs() < 1e-3,
            "telemetry mean_k {} != recount {mean_k}",
            reported.last().unwrap()
        );
        let filters = events
            .iter()
            .rev()
            .find(|e| e.name == "train.filters")
            .expect("train.filters gauge");
        assert_eq!(filters.value as usize, counts.len());
        assert!(
            events
                .iter()
                .any(|e| e.name == "train.prox_captures" && e.value > 0.0),
            "strong λ must capture residual groups through the prox operator"
        );
    }

    #[test]
    fn zero_regularization_keeps_k_max() {
        let (_, mut free) = train_scheme(&QuantScheme::flight(0.0), 4, 4);
        let counts = free.all_shift_counts();
        let mean_k: f32 = counts.iter().sum::<usize>() as f32 / counts.len().max(1) as f32;
        // Thresholds start at 0 and nothing pushes them up aggressively in
        // a few epochs; filters should overwhelmingly stay at two shifts.
        assert!(mean_k > 1.8, "mean k_i {mean_k} without regularization");
    }

    #[test]
    fn epoch_telemetry_carries_training_dynamics() {
        let sink = std::sync::Arc::new(CollectingSink::new());
        train_scheme_with(
            &QuantScheme::flight(1e-4),
            2,
            6,
            Telemetry::new(sink.clone()),
        );
        let events = sink.events();
        let last = |name: &str| {
            events
                .iter()
                .rev()
                .find(|e| e.name == name)
                .unwrap_or_else(|| panic!("missing signal {name}"))
                .value
        };

        // Both gradient paths are tracked per layer and are live.
        assert!(last("train.layer.c0.grad_norm.quant") > 0.0);
        assert!(last("train.layer.c0.grad_norm.shadow") > 0.0);
        let clip = last("train.layer.c0.ste.clip_rate");
        assert!((0.0..=1.0).contains(&clip), "clip rate {clip}");

        // Residual-norm sums per order, with the effective λ next to
        // them: λ0 is zeroed (no pruning), λ1 is the graduated 3λ and
        // the 2-epoch two-phase run ends in the settle phase (scale 1).
        assert!(last("train.reg.r0") > 0.0);
        assert!(last("train.reg.r1") > 0.0);
        assert_eq!(last("train.reg.lambda0"), 0.0);
        let lambda1 = (1e-4f32 * 3.0) as f64;
        assert!((last("train.reg.lambda1") - lambda1).abs() < 1e-12);

        // Shadow-weight histograms are emitted per layer per epoch.
        assert!(
            events
                .iter()
                .any(|e| e.name == "train.layer.f0.shadow_absw"),
            "shadow-weight histogram missing"
        );
    }

    #[test]
    fn empty_batches_are_harmless() {
        let scheme = QuantScheme::l1();
        let mut rng = TensorRng::seed(5);
        let cfg = NetworkConfig::by_id(1);
        let mut net = cfg.build(&scheme, &mut rng, 10, [3, 16, 16], 0.25);
        let mut trainer = FlightTrainer::new(&scheme, 1e-3);
        let stats = trainer.train_epoch(&mut net, &[]);
        assert_eq!(stats.samples, 0);
    }
}
