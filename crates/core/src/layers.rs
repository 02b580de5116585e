//! Quantized network layers.
//!
//! [`QuantWeights`] implements Algorithm 1's data flow once, for both
//! quantized layer types: full-precision *shadow* parameters are
//! quantized on every forward pass, gradients are computed with respect
//! to the quantized values, and the straight-through estimator routes
//! them back onto the shadow weights (plus, for FLightNN, the
//! sigmoid-relaxed rule routes them onto the thresholds). [`QuantConv2d`]
//! and [`QuantLinear`] add only their geometry and float op around that
//! core, reached through `weights()`/`weights_mut()`. [`ActQuant`]
//! quantizes activations to fixed point (the paper uses 8 bits
//! everywhere except the full-precision baseline).

use flight_nn::layers::functional::{
    conv2d_backward, conv2d_forward, linear_backward, linear_forward, Conv2dCache, LinearCache,
};
use flight_nn::{Layer, Param};
use flight_tensor::{kaiming_uniform, Tensor, TensorRng};

use crate::grad::threshold_gradients;
use crate::quant::{
    dequantize, quantize_fixed_point, quantize_lightnn, quantize_per_image, FilterTrace,
    ThresholdQuantizer,
};
use crate::reg::{accumulate_filter_reg_grad, filter_reg_loss, RegStrength};
use crate::scheme::QuantScheme;

/// Per-epoch training-dynamics accumulator for a quantized layer.
///
/// Filled by the backward pass (quantized-path gradient norm, STE clip
/// counts) and by [`FlightTrainer`]'s batch loop (shadow-path gradient
/// norm, after regularization subgradients are folded in), then drained
/// once per epoch with `take_train_stats` and emitted as
/// `train.layer.*` telemetry.
///
/// [`FlightTrainer`]: crate::trainer::FlightTrainer
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LayerTrainStats {
    /// Backward passes folded in.
    pub batches: u64,
    /// Σ over batches of `‖∂L/∂w^q‖₂` (the quantized-path gradient).
    pub grad_norm_quant_sum: f64,
    /// Σ over batches of `‖∂L/∂w‖₂` on the shadow weights after STE
    /// routing and (in gradient reg mode) regularization subgradients.
    pub grad_norm_shadow_sum: f64,
    /// Elements the STE carried a gradient for despite their quantized
    /// value being exactly zero (shadow weight nonzero): the weights
    /// whose updates the hard forward pass cannot see.
    pub ste_clipped: u64,
    /// Total weight elements seen by backward.
    pub ste_total: u64,
}

impl LayerTrainStats {
    /// Mean per-batch quantized-path gradient norm.
    pub fn mean_grad_norm_quant(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.grad_norm_quant_sum / self.batches as f64
        }
    }

    /// Mean per-batch shadow-path gradient norm.
    pub fn mean_grad_norm_shadow(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.grad_norm_shadow_sum / self.batches as f64
        }
    }

    /// Fraction of weight elements whose quantized value was zero while
    /// the shadow weight was not.
    pub fn clip_rate(&self) -> f64 {
        if self.ste_total == 0 {
            0.0
        } else {
            self.ste_clipped as f64 / self.ste_total as f64
        }
    }

    fn observe_backward(&mut self, quant_grad: &[f32], quantized: &[f32], shadow: &[f32]) {
        self.batches += 1;
        self.grad_norm_quant_sum += l2_f64(quant_grad);
        self.ste_total += quantized.len() as u64;
        self.ste_clipped += quantized
            .iter()
            .zip(shadow)
            .filter(|&(&q, &w)| q == 0.0 && w != 0.0)
            .count() as u64;
    }
}

fn l2_f64(v: &[f32]) -> f64 {
    v.iter()
        .map(|&x| (x as f64) * (x as f64))
        .sum::<f64>()
        .sqrt()
}

/// Per-layer weight quantization behaviour derived from a
/// [`QuantScheme`].
#[derive(Debug, Clone)]
enum WeightQuant {
    Float,
    FixedPoint {
        bits: u32,
    },
    LightNn {
        k: usize,
    },
    FLight {
        quantizer: ThresholdQuantizer,
        tau: f32,
    },
}

impl WeightQuant {
    fn from_scheme(scheme: &QuantScheme) -> Self {
        match scheme {
            QuantScheme::Full => WeightQuant::Float,
            QuantScheme::FixedPoint { weight_bits, .. } => {
                WeightQuant::FixedPoint { bits: *weight_bits }
            }
            QuantScheme::LightNn { k, .. } => WeightQuant::LightNn { k: *k },
            QuantScheme::FLight {
                k_max, mode, tau, ..
            } => WeightQuant::FLight {
                quantizer: ThresholdQuantizer::new(*k_max, *mode),
                tau: *tau,
            },
        }
    }
}

/// Fixed-point activation quantization with straight-through gradients.
///
/// Quantizes symmetrically to `bits` with a dynamic scale **per image**
/// (`dims[0]` is the batch at any rank) through
/// [`quantize_per_image`](crate::quant::quantize_per_image), then
/// dequantizes: the same function and the same values as the integer
/// engine's requantization stage, so an image's output never depends on
/// its batchmates. The backward pass is the identity (STE), which is the
/// standard choice the paper inherits from its references [6, 31].
///
/// # Example
///
/// ```
/// use flightnn::layers::ActQuant;
/// use flight_nn::Layer;
/// use flight_tensor::Tensor;
///
/// let mut q = ActQuant::new(8);
/// let x = Tensor::from_vec(vec![1.0, 0.5, -0.26, 4.0, 0.5, -0.26], &[2, 3]);
/// let y = q.forward(&x, false);
/// // Image 0's 8-bit grid spans [-1, 1]: step 1/127.
/// assert!((y.as_slice()[2] + 0.25984251).abs() < 1e-6);
/// // Image 1 has its own grid over [-4, 4]: step 4/127.
/// assert!((y.as_slice()[5] + 0.25196850).abs() < 1e-6);
/// ```
#[derive(Debug, Clone)]
pub struct ActQuant {
    bits: u32,
}

impl ActQuant {
    /// Creates an activation quantizer with the given bit width.
    ///
    /// # Panics
    ///
    /// Panics if `bits < 2`.
    pub fn new(bits: u32) -> Self {
        assert!(bits >= 2, "activation quantization needs at least 2 bits");
        ActQuant { bits }
    }

    /// Bit width.
    pub fn bits(&self) -> u32 {
        self.bits
    }
}

impl Layer for ActQuant {
    fn forward(&mut self, input: &Tensor, _train: bool) -> Tensor {
        let mut values = Vec::new();
        quantize_per_image(input, self.bits, &mut values, &mut Vec::new(), dequantize);
        Tensor::from_vec(values, input.dims())
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        grad_out.clone()
    }

    fn visit_params(&mut self, _visitor: &mut dyn FnMut(&mut Param)) {}

    fn name(&self) -> String {
        format!("act_quant({}b)", self.bits)
    }
}

/// The quantized-weight core of one conv or linear layer: everything
/// Algorithm 1 touches, written once for both layer types.
///
/// Axis 0 of the weight tensor indexes *filters* — a conv's output
/// filters, a linear layer's output rows — and every per-filter quantity
/// (shift counts `k_i`, traces, group-lasso groups) follows it. The core
/// owns the full-precision shadow weights, the bias, the FLightNN
/// threshold vector `t ∈ R^{k_max}`, the scheme's weight quantizer and
/// activation bit width, the most recent quantization with its
/// per-filter traces, and the per-epoch [`LayerTrainStats`].
pub struct QuantWeights {
    shadow: Param,
    bias: Param,
    thresholds: Option<Param>,
    quant: WeightQuant,
    act_bits: u32,
    last_quantized: Option<Tensor>,
    last_traces: Vec<FilterTrace>,
    train_stats: LayerTrainStats,
}

impl QuantWeights {
    /// Wraps `shadow` (axis 0 = filters) with a zero bias and, for
    /// FLightNN, zero thresholds — the paper's initialization, which
    /// starts every filter at `k_i = k_max` and quantizes gradually
    /// (§5.1).
    fn new(shadow: Tensor, scheme: &QuantScheme) -> Self {
        let quant = WeightQuant::from_scheme(scheme);
        let thresholds = match &quant {
            WeightQuant::FLight { quantizer, .. } => {
                Some(Param::new(Tensor::zeros(&[quantizer.k_max])))
            }
            _ => None,
        };
        QuantWeights {
            bias: Param::new(Tensor::zeros(&[shadow.dims()[0]])),
            shadow: Param::new(shadow),
            thresholds,
            quant,
            act_bits: scheme.act_bits(),
            last_quantized: None,
            last_traces: Vec::new(),
            train_stats: LayerTrainStats::default(),
        }
    }

    /// Number of filters (a conv's output filters, a linear layer's
    /// output rows).
    pub fn filters(&self) -> usize {
        self.shadow.value.dims()[0]
    }

    /// The full-precision shadow weight parameter.
    pub fn shadow(&self) -> &Param {
        &self.shadow
    }

    /// Mutable access to the shadow weights (tests, surgery).
    pub fn shadow_mut(&mut self) -> &mut Param {
        &mut self.shadow
    }

    /// The bias parameter.
    pub fn bias(&self) -> &Param {
        &self.bias
    }

    /// The threshold parameter, when the scheme is FLightNN.
    pub fn thresholds(&self) -> Option<&Param> {
        self.thresholds.as_ref()
    }

    /// Mutable threshold access.
    pub fn thresholds_mut(&mut self) -> Option<&mut Param> {
        self.thresholds.as_mut()
    }

    /// The weight bit width of a fixed-point layer
    /// ([`QuantScheme::FixedPoint`]'s `weight_bits`); `None` under every
    /// other scheme.
    pub fn fixed_point_bits(&self) -> Option<u32> {
        match self.quant {
            WeightQuant::FixedPoint { bits } => Some(bits),
            _ => None,
        }
    }

    /// Whether weights are sums of powers of two (LightNN or FLightNN),
    /// i.e. whether the layer has shift counts and a Fig. 3 plan.
    pub fn is_shift_based(&self) -> bool {
        matches!(
            self.quant,
            WeightQuant::LightNn { .. } | WeightQuant::FLight { .. }
        )
    }

    /// The scheme's activation bit width ([`QuantScheme::act_bits`]; 32
    /// under `Full`): the width the layer's input is quantized to.
    pub fn act_bits(&self) -> u32 {
        self.act_bits
    }

    /// Quantizes the current shadow weights, stores the result as the
    /// most recent quantization (refreshing the per-filter traces for
    /// FLightNN) and returns it.
    pub fn quantize(&mut self) -> &Tensor {
        let (q, traces) = match &self.quant {
            WeightQuant::Float => (self.shadow.value.clone(), Vec::new()),
            WeightQuant::FixedPoint { bits } => (
                quantize_fixed_point(&self.shadow.value, *bits).0,
                Vec::new(),
            ),
            WeightQuant::LightNn { k } => (quantize_lightnn(&self.shadow.value, *k), Vec::new()),
            WeightQuant::FLight { quantizer, .. } => {
                let t = self
                    .thresholds
                    .as_ref()
                    .expect("FLightNN layer always has thresholds")
                    .value
                    .as_slice();
                let (q, traces, _) = quantizer.quantize_tensor(&self.shadow.value, t);
                (q, traces)
            }
        };
        self.last_traces = traces;
        self.last_quantized.insert(q)
    }

    /// The most recent quantized weight tensor (quantizing on demand if
    /// none happened yet).
    pub fn quantized(&mut self) -> &Tensor {
        if self.last_quantized.is_none() {
            self.quantize();
        }
        self.last_quantized.as_ref().expect("quantized above")
    }

    /// Per-filter shift counts `k_i` from the most recent quantization
    /// (quantizing on demand if none happened yet).
    ///
    /// Returns `k` for every filter under LightNN-`k`, and an empty vector
    /// for `Full`/`FixedPoint` layers (shift counts are meaningless
    /// there).
    pub fn filter_shift_counts(&mut self) -> Vec<usize> {
        match &self.quant {
            WeightQuant::Float | WeightQuant::FixedPoint { .. } => Vec::new(),
            WeightQuant::LightNn { k } => vec![*k; self.filters()],
            WeightQuant::FLight { .. } => {
                if self.last_traces.is_empty() {
                    self.quantize();
                }
                self.last_traces.iter().map(|t| t.ki).collect()
            }
        }
    }

    /// Accumulates the group-lasso regularization gradient (§4.3) into the
    /// shadow weights and returns the regularization loss value.
    ///
    /// Must be called after a forward pass in the same iteration so the
    /// traces correspond to the current weights. No-op (returns 0) for
    /// non-FLightNN layers or zero strengths.
    pub fn accumulate_reg(&mut self, reg: &RegStrength) -> f32 {
        if self.last_traces.is_empty() || reg.is_zero() {
            return 0.0;
        }
        let mut loss = 0.0;
        for (i, trace) in self.last_traces.iter().enumerate() {
            loss += filter_reg_loss(trace, reg);
            accumulate_filter_reg_grad(trace, reg, self.shadow.grad.outer_mut(i));
        }
        loss
    }

    /// Storage bits of this layer's weights under its scheme (the tables'
    /// "Storage" column; biases and thresholds excluded, as in the paper).
    pub fn storage_bits(&mut self) -> usize {
        let weights = self.shadow.value.len();
        match &self.quant {
            WeightQuant::Float => 32 * weights,
            WeightQuant::FixedPoint { bits } => *bits as usize * weights,
            WeightQuant::LightNn { k } => 4 * k * weights,
            WeightQuant::FLight { .. } => {
                let filter_size = weights / self.filters();
                self.filter_shift_counts()
                    .iter()
                    .map(|&ki| 4 * ki * filter_size)
                    .sum()
            }
        }
    }

    /// Applies one proximal step of the group-lasso regularizer (§4.3) to
    /// the shadow weights: each level-`j` residual group is shrunk by
    /// `step·λ_j` in norm and *captured at exactly zero* once its norm
    /// falls below the shrink amount — the defining property of the
    /// proximal operator that plain (sub)gradient steps lack. A filter
    /// whose level-`j` residual is exactly zero is gated off by the
    /// strict indicator `‖r‖ > t` even at the initial `t_j = 0`, which is
    /// how FLightNN's per-filter `k_i` selection materializes.
    ///
    /// Returns the number of residual groups captured at exactly zero by
    /// this step (the trainer's `train.prox_captures` telemetry counter).
    /// No-op (returning 0) for non-FLightNN layers.
    pub fn apply_reg_prox(&mut self, reg: &RegStrength, step: f32) -> usize {
        if !matches!(self.quant, WeightQuant::FLight { .. }) || reg.is_zero() || step <= 0.0 {
            return 0;
        }
        let window = crate::pow2::ExponentWindow::fit(self.shadow.value.as_slice());
        (0..self.filters())
            .map(|i| group_lasso_prox(self.shadow.value.outer_mut(i), reg, step, &window))
            .sum()
    }

    /// Folds the currently accumulated shadow-weight gradient norm into
    /// the training-dynamics stats. The trainer calls this once per
    /// batch *after* regularization subgradients are applied, so the
    /// shadow-path norm reflects everything the optimizer will see.
    pub fn observe_shadow_grad(&mut self) {
        self.train_stats.grad_norm_shadow_sum += l2_f64(self.shadow.grad.as_slice());
    }

    /// Drains the per-epoch training-dynamics accumulator.
    pub fn take_train_stats(&mut self) -> LayerTrainStats {
        std::mem::take(&mut self.train_stats)
    }

    /// Per-order residual-norm sums `Σ_i ‖r_{i,j}‖₂` from the most
    /// recent quantization (index `j` matches `λ_j`; empty for
    /// non-FLightNN layers or before any quantization).
    pub fn residual_norm_sums(&self) -> Vec<f64> {
        let levels = self
            .last_traces
            .iter()
            .map(|t| t.norms.len())
            .max()
            .unwrap_or(0);
        let mut sums = vec![0.0f64; levels];
        for trace in &self.last_traces {
            for (sum, &norm) in sums.iter_mut().zip(&trace.norms) {
                *sum += norm as f64;
            }
        }
        sums
    }

    /// The forward half of a quantized layer: quantizes the weights, then
    /// runs the layer's float op on `(quantized weights, bias)`.
    fn forward_with<R>(&mut self, op: impl FnOnce(&Tensor, &Tensor) -> R) -> R {
        self.quantize();
        let q = self.last_quantized.as_ref().expect("quantized above");
        op(q, &self.bias.value)
    }

    /// The backward half of a quantized layer: `op` maps the quantized
    /// weights of the last forward to `(∂L/∂x, ∂L/∂w^q, ∂L/∂b)`; the STE
    /// applies `∂L/∂w^q` to the shadow weights and, for FLightNN, the
    /// sigmoid-relaxed rule routes it onto the thresholds (§4.2).
    /// Returns `∂L/∂x`.
    fn backward_with(&mut self, op: impl FnOnce(&Tensor) -> (Tensor, Tensor, Tensor)) -> Tensor {
        let q = self
            .last_quantized
            .as_ref()
            .expect("forward stores the quantized weights");
        let (dx, dwq, db) = op(q);
        self.train_stats.observe_backward(
            dwq.as_slice(),
            q.as_slice(),
            self.shadow.value.as_slice(),
        );

        // STE: apply the quantized-weight gradient to the shadow weights.
        self.shadow.grad.axpy(1.0, &dwq);
        self.bias.grad.axpy(1.0, &db);

        // FLightNN: route gradients onto the thresholds (§4.2).
        if let WeightQuant::FLight { tau, .. } = self.quant {
            if let (Some(tp), false) = (self.thresholds.as_mut(), self.last_traces.is_empty()) {
                let t = tp.value.as_slice().to_vec();
                for (i, trace) in self.last_traces.iter().enumerate() {
                    let tg = threshold_gradients(trace, &t, dwq.outer(i), tau);
                    for (g, tg_j) in tp.grad.as_mut_slice().iter_mut().zip(tg) {
                        *g += tg_j;
                    }
                }
            }
        }
        dx
    }

    /// Visits shadow, bias, then thresholds — the checkpoint order.
    fn visit_params(&mut self, visitor: &mut dyn FnMut(&mut Param)) {
        visitor(&mut self.shadow);
        visitor(&mut self.bias);
        if let Some(t) = self.thresholds.as_mut() {
            visitor(t);
        }
    }
}

/// The sequential proximal operator of `Σ_j λ_j‖r_j(w)‖₂` on one filter:
/// level 0 shrinks the whole filter (pruning pressure), level `j ≥ 1`
/// shrinks the residual `w − Q_j(w)` toward the current `j`-shift grid
/// point, capturing it at exactly zero when `‖r_j‖ ≤ step·λ_j`. Returns
/// how many residual groups this call captured.
fn group_lasso_prox(
    filter: &mut [f32],
    reg: &RegStrength,
    step: f32,
    window: &crate::pow2::ExponentWindow,
) -> usize {
    let mut captures = 0;
    // Level 0: standard group-lasso prox on the whole filter.
    let s0 = step * reg.lambda(0);
    if s0 > 0.0 {
        let norm = filter
            .iter()
            .map(|&x| (x as f64) * (x as f64))
            .sum::<f64>()
            .sqrt() as f32;
        if norm <= s0 {
            filter.iter_mut().for_each(|x| *x = 0.0);
            return captures + 1;
        } else if norm > 0.0 {
            let scale = 1.0 - s0 / norm;
            filter.iter_mut().for_each(|x| *x *= scale);
        }
    }

    // Levels 1..k: shrink the residual toward the greedy j-term
    // power-of-two decomposition of the current weights.
    let mut q_acc = vec![0.0f32; filter.len()];
    for j in 1..reg.levels() {
        // q_acc accumulates the (j)-level greedy quantization.
        for (qa, &w) in q_acc.iter_mut().zip(filter.iter()) {
            *qa += window.round(w - *qa);
        }
        let sj = step * reg.lambda(j);
        if sj == 0.0 {
            continue;
        }
        let mut norm = 0.0f64;
        for (&w, &qa) in filter.iter().zip(&q_acc) {
            let r = (w - qa) as f64;
            norm += r * r;
        }
        let norm = norm.sqrt() as f32;
        if norm <= sj {
            filter.copy_from_slice(&q_acc);
            captures += 1;
        } else if norm > 0.0 {
            let scale = 1.0 - sj / norm;
            for (w, &qa) in filter.iter_mut().zip(&q_acc) {
                *w = qa + scale * (*w - qa);
            }
        }
    }
    captures
}

/// A 2-D convolution whose weights pass through a quantizer on every
/// forward pass.
///
/// Weight layout is `[filters, in_channels, k, k]`. The layer itself holds
/// only its geometry and backward cache; the shadow weights, thresholds,
/// per-filter shift counts `k_i` and everything else Algorithm 1 touches
/// live in its [`QuantWeights`] core ([`QuantConv2d::weights`]).
pub struct QuantConv2d {
    weights: QuantWeights,
    stride: usize,
    padding: usize,
    cache: Option<Conv2dCache>,
}

impl QuantConv2d {
    /// Creates a quantized conv layer with Kaiming-uniform shadow weights,
    /// zero bias, and (for FLightNN) thresholds initialized to zero.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero or `stride == 0`.
    pub fn new(
        rng: &mut TensorRng,
        scheme: &QuantScheme,
        in_channels: usize,
        filters: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
    ) -> Self {
        assert!(
            in_channels > 0 && filters > 0 && kernel > 0,
            "zero-sized conv"
        );
        assert!(stride > 0, "stride must be positive");
        let fan_in = in_channels * kernel * kernel;
        let shadow = kaiming_uniform(rng, &[filters, in_channels, kernel, kernel], fan_in);
        QuantConv2d {
            weights: QuantWeights::new(shadow, scheme),
            stride,
            padding,
            cache: None,
        }
    }

    /// The quantized-weight core.
    pub fn weights(&self) -> &QuantWeights {
        &self.weights
    }

    /// Mutable access to the quantized-weight core.
    pub fn weights_mut(&mut self) -> &mut QuantWeights {
        &mut self.weights
    }

    /// Stride of the convolution.
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Padding of the convolution.
    pub fn padding(&self) -> usize {
        self.padding
    }
}

impl std::fmt::Debug for QuantConv2d {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let d = self.weights.shadow.value.dims();
        write!(
            f,
            "QuantConv2d({}→{}, {}x{}, {:?})",
            d[1], d[0], d[2], d[3], self.weights.quant
        )
    }
}

impl Layer for QuantConv2d {
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        let (stride, padding) = (self.stride, self.padding);
        let (out, cache) = self
            .weights
            .forward_with(|q, bias| conv2d_forward(input, q, bias, stride, padding, train));
        self.cache = cache;
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let cache = self
            .cache
            .take()
            .expect("QuantConv2d::backward called without a training forward pass");
        self.weights
            .backward_with(|q| conv2d_backward(&cache, q, grad_out))
    }

    fn visit_params(&mut self, visitor: &mut dyn FnMut(&mut Param)) {
        self.weights.visit_params(visitor);
    }

    fn name(&self) -> String {
        let d = self.weights.shadow.value.dims();
        format!("quant_conv2d({}→{}, {}x{})", d[1], d[0], d[2], d[3])
    }
}

/// A fully connected layer over the same [`QuantWeights`] core as
/// [`QuantConv2d`]; each output neuron's weight row plays the role of a
/// filter, so the layer is a 1×1 conv on a 1×1 image.
pub struct QuantLinear {
    weights: QuantWeights,
    cache: Option<LinearCache>,
}

impl QuantLinear {
    /// Creates a quantized linear layer.
    ///
    /// # Panics
    ///
    /// Panics if `in_features == 0` or `out_features == 0`.
    pub fn new(
        rng: &mut TensorRng,
        scheme: &QuantScheme,
        in_features: usize,
        out_features: usize,
    ) -> Self {
        assert!(in_features > 0 && out_features > 0, "zero-sized linear");
        let shadow = kaiming_uniform(rng, &[out_features, in_features], in_features);
        QuantLinear {
            weights: QuantWeights::new(shadow, scheme),
            cache: None,
        }
    }

    /// The quantized-weight core.
    pub fn weights(&self) -> &QuantWeights {
        &self.weights
    }

    /// Mutable access to the quantized-weight core.
    pub fn weights_mut(&mut self) -> &mut QuantWeights {
        &mut self.weights
    }
}

impl std::fmt::Debug for QuantLinear {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let d = self.weights.shadow.value.dims();
        write!(
            f,
            "QuantLinear({}→{}, {:?})",
            d[1], d[0], self.weights.quant
        )
    }
}

impl Layer for QuantLinear {
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        let (out, cache) = self
            .weights
            .forward_with(|q, bias| linear_forward(input, q, bias, train));
        self.cache = cache;
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let cache = self
            .cache
            .take()
            .expect("QuantLinear::backward called without a training forward pass");
        self.weights
            .backward_with(|q| linear_backward(&cache, q, grad_out))
    }

    fn visit_params(&mut self, visitor: &mut dyn FnMut(&mut Param)) {
        self.weights.visit_params(visitor);
    }

    fn name(&self) -> String {
        let d = self.weights.shadow.value.dims();
        format!("quant_linear({}→{})", d[1], d[0])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flight_tensor::uniform;

    fn rng() -> TensorRng {
        TensorRng::seed(42)
    }

    #[test]
    fn act_quant_is_idempotent() {
        let mut q = ActQuant::new(8);
        let x = uniform(&mut rng(), &[4, 16], -2.0, 2.0);
        let once = q.forward(&x, false);
        let twice = q.forward(&once, false);
        assert!(once.allclose(&twice, 1e-6));
    }

    #[test]
    fn act_quant_error_bounded() {
        let mut q = ActQuant::new(8);
        let x = uniform(&mut rng(), &[4, 32], -1.0, 1.0);
        let y = q.forward(&x, false);
        // Half a step of each image's own grid.
        for img in 0..4 {
            let step = x.outer(img).iter().fold(0.0f32, |m, v| m.max(v.abs())) / 127.0;
            for (&a, &b) in x.outer(img).iter().zip(y.outer(img)) {
                assert!((a - b).abs() <= step / 2.0 + 1e-6);
            }
        }
    }

    #[test]
    fn full_scheme_is_transparent() {
        let mut r = rng();
        let mut conv = QuantConv2d::new(&mut r, &QuantScheme::full(), 2, 3, 3, 1, 1);
        let q = conv.weights_mut().quantize().clone();
        assert_eq!(q, conv.weights().shadow().value);
        assert!(conv.weights().thresholds().is_none());
        assert!(conv.weights_mut().filter_shift_counts().is_empty());
    }

    #[test]
    fn lightnn_weights_are_pow2_sums() {
        let mut r = rng();
        let mut conv = QuantConv2d::new(&mut r, &QuantScheme::l1(), 2, 3, 3, 1, 1);
        let q = conv.weights_mut().quantize().clone();
        for &v in q.as_slice() {
            assert!(
                v == 0.0 || crate::pow2::round_pow2(v) == v,
                "{v} is not a power of two"
            );
        }
        assert_eq!(conv.weights_mut().filter_shift_counts(), vec![1, 1, 1]);
    }

    #[test]
    fn flight_starts_at_k_max_with_zero_thresholds() {
        let mut r = rng();
        let mut conv = QuantConv2d::new(&mut r, &QuantScheme::flight(1e-5), 2, 4, 3, 1, 1);
        assert_eq!(
            conv.weights().thresholds().unwrap().value.as_slice(),
            &[0.0, 0.0]
        );
        assert_eq!(conv.weights_mut().filter_shift_counts(), vec![2, 2, 2, 2]);
    }

    #[test]
    fn raising_thresholds_lowers_shift_counts_and_storage() {
        let mut r = rng();
        let mut conv = QuantConv2d::new(&mut r, &QuantScheme::flight(1e-5), 2, 4, 3, 1, 1);
        let s0 = conv.weights_mut().storage_bits();
        conv.weights_mut().thresholds_mut().unwrap().value = Tensor::from_slice(&[0.0, 100.0]);
        conv.weights_mut().quantize();
        let counts = conv.weights_mut().filter_shift_counts();
        assert!(counts.iter().all(|&k| k == 1));
        let s1 = conv.weights_mut().storage_bits();
        assert!(s1 < s0, "storage must shrink: {s0} -> {s1}");
        // k=1 per filter at 4 bits/term is exactly half the k=2 storage.
        assert_eq!(s1 * 2, s0);
    }

    #[test]
    fn ste_routes_gradient_to_shadow() {
        let mut r = rng();
        let mut conv = QuantConv2d::new(&mut r, &QuantScheme::l2(), 1, 2, 3, 1, 1);
        let x = uniform(&mut r, &[1, 1, 5, 5], -1.0, 1.0);
        let y = conv.forward(&x, true);
        conv.backward(&Tensor::ones(y.dims()));
        assert!(conv.weights().shadow().grad.abs_max() > 0.0);
    }

    #[test]
    fn flight_backward_populates_threshold_grads() {
        let mut r = rng();
        let mut conv = QuantConv2d::new(&mut r, &QuantScheme::flight(1e-5), 1, 2, 3, 1, 1);
        // Move thresholds near the residual norms so the sigmoid is live.
        conv.weights_mut().quantize();
        let norm0 = conv.weights.last_traces[0].norms[0];
        conv.weights_mut().thresholds_mut().unwrap().value =
            Tensor::from_slice(&[norm0, norm0 * 0.1]);
        let x = uniform(&mut r, &[1, 1, 5, 5], -1.0, 1.0);
        let y = conv.forward(&x, true);
        conv.backward(&Tensor::ones(y.dims()));
        let tg = &conv.weights().thresholds().unwrap().grad;
        assert!(
            tg.abs_max() > 0.0,
            "threshold gradients must flow: {:?}",
            tg.as_slice()
        );
    }

    #[test]
    fn reg_accumulation_requires_forward() {
        let mut r = rng();
        let mut conv = QuantConv2d::new(&mut r, &QuantScheme::l2(), 1, 2, 3, 1, 1);
        // LightNN has no traces -> reg no-op.
        assert_eq!(
            conv.weights_mut()
                .accumulate_reg(&RegStrength::graduated(1e-5, 2)),
            0.0
        );
    }

    #[test]
    fn flight_reg_pulls_weights_down() {
        let mut r = rng();
        let mut conv = QuantConv2d::new(&mut r, &QuantScheme::flight(1e-2), 1, 2, 3, 1, 1);
        conv.weights_mut().quantize();
        // Full graduated regularizer has positive loss.
        let loss = conv
            .weights_mut()
            .accumulate_reg(&RegStrength::graduated(1e-2, 2));
        assert!(loss > 0.0);

        // The λ0 (pruning) term in isolation points exactly along the
        // weights: descent shrinks filters toward zero.
        conv.zero_grad();
        conv.weights_mut()
            .accumulate_reg(&RegStrength::new(vec![1e-2, 0.0]));
        let dot: f32 = conv
            .weights()
            .shadow()
            .grad
            .as_slice()
            .iter()
            .zip(conv.weights().shadow().value.as_slice())
            .map(|(&g, &w)| g * w)
            .sum();
        assert!(dot > 0.0, "λ0 gradient must align with weights, dot {dot}");
    }

    #[test]
    fn quant_linear_trains_end_to_end() {
        let mut r = rng();
        let mut fc = QuantLinear::new(&mut r, &QuantScheme::flight(1e-5), 6, 3);
        let x = uniform(&mut r, &[4, 6], -1.0, 1.0);
        let y = fc.forward(&x, true);
        assert_eq!(y.dims(), &[4, 3]);
        let dx = fc.backward(&Tensor::ones(y.dims()));
        assert_eq!(dx.dims(), &[4, 6]);
        assert!(fc.weights().shadow().grad.abs_max() > 0.0);
        assert_eq!(fc.weights_mut().filter_shift_counts().len(), 3);
    }

    #[test]
    fn backward_accumulates_train_stats() {
        let mut r = rng();
        let mut conv = QuantConv2d::new(&mut r, &QuantScheme::flight(1e-5), 1, 2, 3, 1, 1);
        let x = uniform(&mut r, &[1, 1, 5, 5], -1.0, 1.0);
        let y = conv.forward(&x, true);
        conv.backward(&Tensor::ones(y.dims()));
        conv.weights_mut().observe_shadow_grad();

        let stats = conv.weights_mut().take_train_stats();
        assert_eq!(stats.batches, 1);
        assert_eq!(stats.ste_total, 2 * 3 * 3);
        assert!(stats.grad_norm_quant_sum > 0.0);
        // Identity STE with no reg gradients: both paths see the same
        // per-batch gradient.
        assert!(
            (stats.mean_grad_norm_quant() - stats.mean_grad_norm_shadow()).abs() < 1e-9,
            "quant {} vs shadow {}",
            stats.mean_grad_norm_quant(),
            stats.mean_grad_norm_shadow()
        );
        assert!(stats.clip_rate() >= 0.0 && stats.clip_rate() <= 1.0);

        // Draining resets the accumulator.
        assert_eq!(
            conv.weights_mut().take_train_stats(),
            LayerTrainStats::default()
        );
    }

    #[test]
    fn ste_clip_counts_weights_quantized_to_zero() {
        let mut r = rng();
        let mut fc = QuantLinear::new(&mut r, &QuantScheme::flight(1e-5), 4, 2);
        // An astronomical second threshold plus a first threshold above
        // every row norm forces k_i = 0: all weights quantize to zero.
        fc.weights_mut().thresholds_mut().unwrap().value = Tensor::from_slice(&[1e6, 1e6]);
        let x = uniform(&mut r, &[2, 4], -1.0, 1.0);
        let y = fc.forward(&x, true);
        fc.backward(&Tensor::ones(y.dims()));
        let stats = fc.weights_mut().take_train_stats();
        assert_eq!(stats.ste_clipped, stats.ste_total);
        assert_eq!(stats.clip_rate(), 1.0);
    }

    #[test]
    fn residual_norm_sums_follow_the_traces() {
        let mut r = rng();
        let mut conv = QuantConv2d::new(&mut r, &QuantScheme::flight(1e-5), 1, 3, 3, 1, 1);
        assert!(
            conv.weights().residual_norm_sums().is_empty(),
            "no traces yet"
        );
        conv.weights_mut().quantize();
        let sums = conv.weights().residual_norm_sums();
        assert_eq!(sums.len(), 2, "one sum per level j < k_max");
        // r_0 is the whole filter, so its sum dominates the level-1
        // residual left after the first shift.
        assert!(sums[0] > sums[1] && sums[1] > 0.0, "sums {sums:?}");

        // Full-precision layers have no traces and no sums.
        let mut full = QuantConv2d::new(&mut r, &QuantScheme::full(), 1, 2, 3, 1, 1);
        full.weights_mut().quantize();
        assert!(full.weights().residual_norm_sums().is_empty());
    }

    #[test]
    fn storage_bits_by_scheme() {
        let mut r = rng();
        let weights = 2 * 3 * 3 * 3; // filters × in_ch × k × k
        let cases = [
            (QuantScheme::full(), 32 * weights),
            (QuantScheme::fp4w8a(), 4 * weights),
            (QuantScheme::l1(), 4 * weights),
            (QuantScheme::l2(), 8 * weights),
        ];
        for (scheme, expected) in cases {
            let mut conv = QuantConv2d::new(&mut r, &scheme, 3, 2, 3, 1, 1);
            assert_eq!(
                conv.weights_mut().storage_bits(),
                expected,
                "scheme {}",
                scheme.label()
            );
        }
    }
}
