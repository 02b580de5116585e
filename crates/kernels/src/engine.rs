//! Whole-network integer inference.
//!
//! [`IntNetwork::compile_with`] lowers a trained
//! [`QuantNet`](flightnn::QuantNet) into a deployment pipeline where
//! every convolution and fully connected layer runs on the integer
//! kernels of this crate — shift-add for (F)LightNN weights, integer
//! multiply for fixed-point weights. The compiler reads each layer from
//! its type and fuses conv → batch norm → LeakyReLU into one conv stage:
//! the batch norm's eval affine folds into the conv's per-channel
//! epilogue (the standard deployment transform), which runs as one float
//! pass after the kernel, exactly as an accelerator would keep it in
//! wider fixed point. Pooling and activation requantization stay stages
//! of their own; a linear layer is a conv stage over a 1×1 image.
//!
//! Compilation is configured through [`CompileOptions`]: a telemetry
//! handle and the scalar-path pin. A forward walks the batch on the
//! calling thread; [`IntNetwork::forward`] picks the traced or untraced
//! walk from the telemetry handle.
//!
//! The engine surface is split **request-first**: [`CompiledNet`] is the
//! immutable, `Send + Sync` compile-time half (the lowered stage list)
//! and [`ExecCtx`] is the per-call half (scratch arenas + telemetry).
//! N concurrent callers share one `Arc<CompiledNet>` and bring their own
//! `ExecCtx` — the shape a long-running inference service needs, and
//! what makes hot model swap a plain atomic `Arc` publish. That is also
//! the way to spread one batch over several cores: split it into
//! contiguous chunks and forward each on its own thread with its own
//! `ExecCtx`. [`IntNetwork`] wraps the pair up for single-owner callers.
//!
//! Activations are quantized with one scale **per image**, so each
//! image's integer pipeline is independent of its batchmates: logits
//! are invariant under batch composition, which is what lets a serving
//! batcher merge requests and a caller split a batch across threads
//! without changing any image's quantization grid.
//!
//! The compiled network reports aggregate [`OpCounts`], so a single
//! forward pass measures exactly how many shifts/multiplies/adds the
//! model costs — the numbers the ASIC energy model prices.

use flight_nn::layers::MaxPool2d;
use flight_nn::Layer;
use flight_telemetry::{StageSample, Telemetry};
use flight_tensor::{Conv2dGeometry, Tensor};
use flightnn::convert::shift_plan;
use flightnn::layers::QuantWeights;
use flightnn::net::{NetLayer, QuantNet};
use flightnn::quant::{dequantize_per_image, quantize_per_image};

use crate::counts::OpCounts;
use crate::fixed::FixedWeights;
use crate::lower::{conv_core, TapOp};
use crate::observe::{Null, Profile, StageObserver, Trace};
use crate::shift::ShiftKernel;
use crate::simd::{active_path, KernelPath, LaneCtx};

/// How a compiled conv/linear layer multiplies.
#[derive(Debug, Clone)]
pub(crate) enum IntWeights {
    /// Shift-add taps ((F)LightNN).
    Shift(ShiftKernel),
    /// Integer multiplies (fixed-point baseline).
    Fixed(FixedWeights),
    /// Float fallback (full-precision models; kept so any `QuantNet`
    /// compiles). The bias lives in the epilogue, so the conv's own
    /// bias is zero, built once here rather than per forward.
    Float { weights: Tensor, zero_bias: Tensor },
}

/// One quantized conv (or linear layer) and its fused per-output-channel
/// epilogue, run in place after the kernel: `y = scale·v + shift`, then
/// LeakyReLU when `slope` is set. A folded batch norm `a·x + b` gives
/// `scale = a` and `shift = a·bias + b`; without one, `scale = 1` and
/// `shift = bias` (`1·v` is exact).
#[derive(Debug, Clone)]
pub(crate) struct ConvStage {
    weights: IntWeights,
    stride: usize,
    padding: usize,
    act_bits: u32,
    scale: Vec<f32>,
    shift: Vec<f32>,
    slope: Option<f32>,
    /// A linear layer: a 1×1 conv over its input read as
    /// `[n, f, 1, 1]`, returning `[n, classes]`.
    linear: bool,
}

#[derive(Debug, Clone)]
pub(crate) enum IntLayer {
    Conv(ConvStage),
    MaxPool {
        window: usize,
    },
    GlobalAvgPool,
    Residual {
        main: Vec<IntLayer>,
        shortcut: Option<Vec<IntLayer>>,
        slope: f32,
    },
    /// An activation quantizer: quantizes each image at `bits` and
    /// dequantizes it again, so the next stage sees the values the float
    /// network's `ActQuant` produces. It is a full pass over the
    /// activations, with a cost of its own in every forward.
    Requant {
        bits: u32,
    },
}

/// Errors from [`IntNetwork::compile_with`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompileError {
    /// A layer the integer pipeline cannot place: a batch norm not
    /// directly after a conv, a LeakyReLU not after a conv or its batch
    /// norm, a flatten not directly before a linear layer, or a leading
    /// `ActQuant` whose bits differ from those of the quantized conv
    /// after it.
    UnsupportedLayer(String),
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompileError::UnsupportedLayer(name) => {
                write!(f, "cannot compile layer '{name}' to the integer pipeline")
            }
        }
    }
}

impl std::error::Error for CompileError {}

/// Builder for [`IntNetwork::compile_with`]: the telemetry handle and
/// the scalar-path pin in one place.
///
/// ```
/// use flight_kernels::CompileOptions;
/// use flight_telemetry::Telemetry;
///
/// let options = CompileOptions::new()
///     .telemetry(Telemetry::from_env())
///     .force_scalar(false);
/// ```
#[derive(Debug, Clone, Default)]
pub struct CompileOptions {
    telemetry: Telemetry,
    force_scalar: bool,
}

impl CompileOptions {
    /// The defaults: null telemetry, the detected kernel path.
    pub fn new() -> Self {
        CompileOptions::default()
    }

    /// A no-op kept for source compatibility: batch norms always fold
    /// into the preceding conv's epilogue.
    pub fn fold_batch_norm(self, _fold: bool) -> Self {
        self
    }

    /// Attaches a telemetry handle (default: the null sink).
    pub fn telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// A no-op kept for source compatibility: every forward already
    /// walks the batch on the calling thread. To spread a batch over
    /// several cores, share the [`CompiledNet`] across threads with one
    /// [`ExecCtx`] each.
    pub fn sequential(self) -> Self {
        self
    }

    /// Pins the per-image scalar kernel path, ignoring SIMD detection —
    /// the programmatic form of the
    /// [`FLIGHT_FORCE_SCALAR`](crate::FORCE_SCALAR_ENV) escape hatch
    /// (which also works: the env var wins at detection time).
    pub fn force_scalar(mut self, force: bool) -> Self {
        self.force_scalar = force;
        self
    }
}

/// The immutable, shareable half of a compiled network: the lowered
/// stage list and nothing else.
///
/// A `CompiledNet` is `Send + Sync` — it holds no scratch buffers and
/// no telemetry handle, so any number of threads can run
/// [`CompiledNet::forward`] on one instance concurrently, each with its
/// own [`ExecCtx`]. This is the type a long-running service
/// shares behind an `Arc`: the serve crate's hot-swap slot publishes an
/// `Arc<CompiledNet>` and every server worker clones the `Arc` on its
/// read path.
///
/// [`IntNetwork`] remains the convenient single-owner facade (telemetry
/// and kernel path bundled in); it is a thin wrapper over
/// `Arc<CompiledNet>`.
#[derive(Debug, Clone)]
pub struct CompiledNet {
    layers: Vec<IntLayer>,
}

// The whole point of the split: compiled state must be shareable across
// server workers, per-call state must at least move into a worker.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    const fn assert_send<T: Send>() {}
    assert_send_sync::<CompiledNet>();
    assert_send::<ExecCtx>();
};

/// Reusable buffers for activation quantization — integer codes plus
/// one scale per image — and the lane context (dispatch path plus the
/// batch-blocked SIMD arena). Cleared and refilled by every conv stage,
/// so the backing allocations grow to the largest activation plane once
/// and are reused from then on.
#[derive(Debug, Default)]
pub(crate) struct Scratch {
    /// Integer activation codes, row-major over the whole batch.
    pub codes: Vec<i32>,
    /// One quantization scale per image.
    pub scales: Vec<f32>,
    /// Kernel dispatch path plus the zero-padded buffers the lowered
    /// conv reads.
    pub lanes: LaneCtx,
}

/// Per-call execution state: the reusable activation-quantization
/// scratch arenas plus the telemetry handle events of this call are
/// attributed to.
///
/// An `ExecCtx` is cheap to create but worth keeping: the scratch
/// buffers grow to the largest activation plane once and are reused by
/// every later forward, so a server worker holds one `ExecCtx` for its
/// lifetime while the `CompiledNet` underneath it may be hot-swapped
/// between calls.
#[derive(Debug, Default)]
pub struct ExecCtx {
    scratch: Scratch,
    telemetry: Telemetry,
}

impl ExecCtx {
    /// A fresh context with empty scratch and the null telemetry sink.
    pub fn new() -> Self {
        ExecCtx::default()
    }

    /// A fresh context whose forwards emit through `telemetry`.
    pub fn with_telemetry(telemetry: Telemetry) -> Self {
        ExecCtx {
            scratch: Scratch::default(),
            telemetry,
        }
    }

    /// The kernel dispatch path forwards through this context request
    /// (defaults to the process-wide detected path; individual conv
    /// calls may still fall back to scalar for small batches or
    /// overflow-risky programs).
    pub fn kernel_path(&self) -> KernelPath {
        self.scratch.lanes.path()
    }

    /// Re-pins the kernel dispatch path, keeping the warmed-up scratch
    /// (the engine sets this from [`CompileOptions::force_scalar`]).
    pub fn set_kernel_path(&mut self, path: KernelPath) {
        self.scratch.lanes.set_path(path);
    }
}

impl CompiledNet {
    /// Lowers a trained network to the integer stage list, each batch
    /// norm and LeakyReLU fused into the conv before it. The `bool` is a
    /// no-op kept for source compatibility (it used to switch batch-norm
    /// folding, which is now the only path).
    ///
    /// # Errors
    ///
    /// Returns [`CompileError::UnsupportedLayer`] for a layer the
    /// integer pipeline cannot place (none are produced by
    /// [`NetworkConfig::build`](flightnn::configs::NetworkConfig::build)).
    pub fn compile(net: &mut QuantNet, _fold_batch_norm: bool) -> Result<Self, CompileError> {
        Ok(CompiledNet {
            layers: compile_layers(net)?,
        })
    }

    /// Number of pipeline stages.
    pub fn stages(&self) -> usize {
        self.layers.len()
    }

    /// Runs the pipeline sequentially on a float input batch `[n, …]`
    /// through `ctx`'s scratch arenas. With a live telemetry handle on
    /// the context every stage emits a `kernel.stage.<i>.<kind>` span
    /// plus per-stage op counters; with the null sink this is the
    /// uninstrumented hot loop.
    pub fn forward(&self, input: &Tensor, ctx: &mut ExecCtx) -> (Tensor, OpCounts) {
        let mut counts = OpCounts::default();
        let path = ctx.kernel_path();
        let (layers, scratch, telemetry) = (&self.layers, &mut ctx.scratch, &ctx.telemetry);
        let out = if telemetry.enabled() {
            let _forward = Trace::forward_span(telemetry, path);
            walk(
                layers,
                input,
                &mut counts,
                scratch,
                &mut Trace(telemetry),
                true,
            )
        } else {
            walk(layers, input, &mut counts, scratch, &mut Null, true)
        };
        (out, counts)
    }

    /// Runs the pipeline sequentially while filling `sample` with
    /// per-stage wall nanoseconds and op totals — the
    /// [`StageProf`](flight_telemetry::StageProf) hook the serving
    /// profiler uses for 1-in-N sampled requests.
    ///
    /// Unlike a traced [`forward`](Self::forward), this path emits no
    /// stage spans or stage counters and allocates nothing: each stage
    /// costs one `Instant::now()` pair and three array stores into the
    /// caller-owned scratch. Profiled forwards always take the
    /// sequential stage walk (per-stage attribution requires it); the
    /// logits are bit-identical to every other path because activations
    /// quantize with one scale per image.
    pub fn forward_profiled(
        &self,
        input: &Tensor,
        ctx: &mut ExecCtx,
        sample: &mut StageSample,
    ) -> (Tensor, OpCounts) {
        sample.reset();
        sample.set_path(ctx.kernel_path().name());
        sample.set_images(input.dims().first().copied().unwrap_or(0) as u64);
        let mut counts = OpCounts::default();
        let mut profile = Profile(sample, Trace(&ctx.telemetry));
        let out = walk(
            &self.layers,
            input,
            &mut counts,
            &mut ctx.scratch,
            &mut profile,
            true,
        );
        (out, counts)
    }
}

/// A `QuantNet` lowered to integer execution: an `Arc<CompiledNet>`
/// bundled with a telemetry handle and a kernel path — the convenient
/// single-owner facade over the [`CompiledNet`]/[`ExecCtx`] split.
///
/// # Example
///
/// ```
/// use flight_kernels::{CompileOptions, IntNetwork};
/// use flight_tensor::{Tensor, TensorRng};
/// use flightnn::{configs::NetworkConfig, QuantScheme};
///
/// # fn main() -> Result<(), flight_kernels::engine::CompileError> {
/// let mut rng = TensorRng::seed(0);
/// let mut net = NetworkConfig::by_id(1)
///     .build(&QuantScheme::l1(), &mut rng, 10, [3, 16, 16], 0.25);
/// let engine = IntNetwork::compile_with(&mut net, CompileOptions::new())?;
/// let x = Tensor::zeros(&[1, 3, 16, 16]);
/// let (logits, counts) = engine.forward(&x);
/// assert_eq!(logits.dims(), &[1, 10]);
/// assert_eq!(counts.int_mults, 0); // multiplier-free
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct IntNetwork {
    net: std::sync::Arc<CompiledNet>,
    telemetry: Telemetry,
    kernel_path: KernelPath,
}

impl IntNetwork {
    /// Compiles a trained network according to `options`.
    ///
    /// # Errors
    ///
    /// Returns [`CompileError::UnsupportedLayer`] for a layer the
    /// integer pipeline cannot place (none are produced by
    /// [`NetworkConfig::build`](flightnn::configs::NetworkConfig::build)).
    pub fn compile_with(net: &mut QuantNet, options: CompileOptions) -> Result<Self, CompileError> {
        let compiled = CompiledNet::compile(net, true)?;
        Ok(IntNetwork {
            net: std::sync::Arc::new(compiled),
            telemetry: options.telemetry,
            kernel_path: if options.force_scalar {
                KernelPath::Scalar
            } else {
                active_path()
            },
        })
    }

    /// The kernel dispatch path this network's forwards request
    /// (resolved once at compile time from [`CompileOptions::force_scalar`],
    /// the `FLIGHT_FORCE_SCALAR` environment, and CPU detection).
    pub fn kernel_path(&self) -> KernelPath {
        self.kernel_path
    }

    /// The shared compiled half. Clone the `Arc` to hand the stage list
    /// to other threads (or a hot-swap slot) without duplicating it.
    pub fn compiled(&self) -> std::sync::Arc<CompiledNet> {
        self.net.clone()
    }

    /// Attaches a telemetry handle (default: the null sink). With a live
    /// sink, [`IntNetwork::forward`] emits a `kernel.forward` span plus
    /// per-stage spans.
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Number of pipeline stages.
    pub fn stages(&self) -> usize {
        self.net.stages()
    }

    /// Runs the integer pipeline on a float input batch `[n, …]`,
    /// returning the logits and the aggregate integer-op counts of this
    /// pass.
    ///
    /// With a live sink every pipeline stage `i` emits a
    /// `kernel.stage.<i>.<kind>` span plus one counter per nonzero
    /// [`OpCounts`] field that stage spent, and every activation
    /// quantization reports `kernel.qact.<conv|linear|requant>.saturated`
    /// / `.quantized` counters (codes at the representable rail vs codes
    /// produced), the clamp-rate signal `flightctl health` checks. With
    /// the null sink this is the uninstrumented hot loop; both produce
    /// bit-identical logits and identical op counts.
    pub fn forward(&self, input: &Tensor) -> (Tensor, OpCounts) {
        let mut ctx = ExecCtx::with_telemetry(self.telemetry.clone());
        ctx.set_kernel_path(self.kernel_path);
        self.net.forward(input, &mut ctx)
    }
}

/// Short stage label used in telemetry event names.
fn stage_kind(layer: &IntLayer) -> &'static str {
    match layer {
        IntLayer::Conv(conv) => conv.kind(),
        IntLayer::MaxPool { .. } => "maxpool",
        IntLayer::GlobalAvgPool => "global_avg_pool",
        IntLayer::Residual { .. } => "residual",
        IntLayer::Requant { .. } => "requant",
    }
}

/// What the last conv stage's epilogue can still absorb.
#[derive(Clone, Copy)]
enum Open {
    Nothing,
    BatchNorm,
    Activation,
}

/// Lowers `net` stage by stage, matching on layer types: a batch norm
/// directly after a conv and a LeakyReLU after either fold into that
/// conv's epilogue, a flatten directly before a linear layer is
/// absorbed by it, and a leading `ActQuant` is absorbed by the quantized
/// conv after it when both quantize at the same bits.
fn compile_layers(net: &mut QuantNet) -> Result<Vec<IntLayer>, CompileError> {
    let layers = net.layers_mut();
    let mut out = Vec::new();
    let mut open = Open::Nothing;
    for i in 0..layers.len() {
        let before_linear = matches!(layers.get(i + 1), Some(NetLayer::Linear(_)));
        let next_quantizes_at = match layers.get(i + 1) {
            Some(NetLayer::Conv(conv)) => quantized_input_bits(conv.weights()),
            Some(NetLayer::Linear(lin)) => quantized_input_bits(lin.weights()),
            _ => None,
        };
        open = match (&mut layers[i], open) {
            (NetLayer::Conv(conv), _) => {
                let (stride, padding) = (conv.stride(), conv.padding());
                let stage = ConvStage::new(conv.weights_mut(), stride, padding, false);
                out.push(IntLayer::Conv(stage));
                Open::BatchNorm
            }
            (NetLayer::Linear(lin), _) => {
                let stage = ConvStage::new(lin.weights_mut(), 1, 0, true);
                out.push(IntLayer::Conv(stage));
                Open::Activation
            }
            (NetLayer::BatchNorm2d(bn), Open::BatchNorm)
                if bn.channels() == open_conv(&mut out).scale.len() =>
            {
                let conv = open_conv(&mut out);
                let (a, b) = bn.eval_affine();
                let folded = a.as_slice().iter().zip(b.as_slice());
                for ((scale, shift), (&a, &b)) in
                    conv.scale.iter_mut().zip(&mut conv.shift).zip(folded)
                {
                    *scale = a;
                    *shift = a * *shift + b;
                }
                Open::Activation
            }
            (NetLayer::LeakyRelu(act), Open::BatchNorm | Open::Activation) => {
                open_conv(&mut out).slope = Some(act.slope());
                Open::Nothing
            }
            (NetLayer::Flatten(_), _) if before_linear => Open::Nothing,
            (NetLayer::MaxPool2d(pool), _) => {
                out.push(IntLayer::MaxPool {
                    window: pool.window(),
                });
                Open::Nothing
            }
            (NetLayer::GlobalAvgPool(_), _) => {
                out.push(IntLayer::GlobalAvgPool);
                Open::Nothing
            }
            // A leading marker quantizes exactly what the conv after it
            // quantizes on entry, so it needs no stage of its own.
            (NetLayer::ActQuant(q), _) if i == 0 && next_quantizes_at.is_some() => {
                if next_quantizes_at != Some(q.bits()) {
                    return Err(CompileError::UnsupportedLayer(q.name()));
                }
                Open::Nothing
            }
            (NetLayer::ActQuant(q), _) => {
                out.push(IntLayer::Requant { bits: q.bits() });
                Open::Nothing
            }
            (NetLayer::Residual(block), _) => {
                let slope = block.activation_slope();
                let main = compile_layers(block.main_mut())?;
                let shortcut = match block.shortcut_mut() {
                    Some(sc) => Some(compile_layers(sc)?),
                    None => None,
                };
                out.push(IntLayer::Residual {
                    main,
                    shortcut,
                    slope,
                });
                Open::Nothing
            }
            (layer, _) => {
                return Err(CompileError::UnsupportedLayer(layer.as_layer_mut().name()));
            }
        };
    }
    Ok(out)
}

/// The bit width a conv stage quantizes its input to, or `None` for a
/// full-precision layer, whose stage runs on float activations.
fn quantized_input_bits(w: &QuantWeights) -> Option<u32> {
    (w.fixed_point_bits().is_some() || w.is_shift_based()).then(|| w.act_bits())
}

/// The conv stage `compile_layers` pushed last, whose epilogue is open.
fn open_conv(out: &mut [IntLayer]) -> &mut ConvStage {
    match out.last_mut() {
        Some(IntLayer::Conv(conv)) => conv,
        _ => unreachable!("only a conv stage leaves its epilogue open"),
    }
}

impl ConvStage {
    /// Lowers one quantized layer to the datapath its scheme runs on,
    /// with an epilogue that adds its bias. Fixed-point weights quantize
    /// from the shadow; shift weights expand through [`shift_plan`], the
    /// one quantization of the compile (the layer's last one may be
    /// stale: the shadow weights moved after the last forward pass);
    /// full-precision weights pass through. A linear layer's
    /// `[out, in]` weights lower as `[out, in, 1, 1]`.
    fn new(w: &mut QuantWeights, stride: usize, padding: usize, linear: bool) -> Self {
        let mut dims = w.shadow().value.dims().to_vec();
        dims.resize(4, 1);
        let weights = if let Some(bits) = w.fixed_point_bits() {
            IntWeights::Fixed(FixedWeights::quantize(
                &w.shadow().value.reshape(&dims),
                bits,
            ))
        } else if w.is_shift_based() {
            IntWeights::Shift(ShiftKernel::compile(&shift_plan(w), &dims))
        } else {
            IntWeights::Float {
                weights: w.shadow().value.reshape(&dims),
                zero_bias: Tensor::zeros(&[dims[0]]),
            }
        };
        let shift = w.bias().value.as_slice().to_vec();
        ConvStage {
            weights,
            stride,
            padding,
            act_bits: w.act_bits(),
            scale: vec![1.0; shift.len()],
            shift,
            slope: None,
            linear,
        }
    }

    /// The stage label, also the activation quantization site.
    fn kind(&self) -> &'static str {
        if self.linear {
            "linear"
        } else {
            "conv"
        }
    }

    /// Runs the conv over `x` with whichever datapath the layer compiled
    /// to, then the epilogue in one in-place pass.
    fn run<O: StageObserver>(
        &self,
        x: &Tensor,
        counts: &mut OpCounts,
        scratch: &mut Scratch,
        obs: &mut O,
    ) -> Tensor {
        // A linear stage reads any rank as `[n, f, 1, 1]`: per-image
        // slabs are contiguous either way.
        let dims = match (self.linear, x.dims()) {
            (true, &[n, ..]) => [n, x.len() / n.max(1), 1, 1],
            (false, &[n, c, h, w]) => [n, c, h, w],
            _ => panic!("conv input must be [n, c, h, w]"),
        };
        let n = dims[0];
        let mut out = match &self.weights {
            IntWeights::Shift(k) => self.int_conv(k, x, dims, counts, scratch, obs),
            IntWeights::Fixed(k) => self.int_conv(k, x, dims, counts, scratch, obs),
            IntWeights::Float {
                weights: w,
                zero_bias,
            } => {
                // `conv2d_forward` needs rank 4: lift a linear stage's input.
                let lifted = self.linear.then(|| x.reshape(&dims));
                let (o, _) = flight_nn::layers::functional::conv2d_forward(
                    lifted.as_ref().unwrap_or(x),
                    w,
                    zero_bias,
                    self.stride,
                    self.padding,
                    false,
                );
                // macs = weights × output positions × batch.
                let macs = (w.len() * o.len() / w.dims()[0].max(1)) as u64;
                counts.float_mults += macs;
                counts.float_adds += macs;
                o
            }
        };
        let c = self.scale.len();
        let plane = (out.len() / (n * c).max(1)).max(1);
        for (i, plane) in out.as_mut_slice().chunks_exact_mut(plane).enumerate() {
            let (a, b) = (self.scale[i % c], self.shift[i % c]);
            match self.slope {
                Some(s) => plane.iter_mut().for_each(|v| {
                    let y = a * *v + b;
                    *v = if y > 0.0 { y } else { s * y };
                }),
                None => plane.iter_mut().for_each(|v| *v = a * *v + b),
            }
        }
        if self.linear {
            out.reshape_in_place(&[n, c]);
        }
        out
    }

    /// The integer conv of both datapaths over `x` read as `d`: quantize
    /// activations per image through the scratch buffers (any rank reads
    /// as flat per-image slabs), then run the kernel's lowered program.
    fn int_conv<K: TapOp, O: StageObserver>(
        &self,
        kernel: &K,
        x: &Tensor,
        d: [usize; 4],
        counts: &mut OpCounts,
        scratch: &mut Scratch,
        obs: &mut O,
    ) -> Tensor {
        quantize_per_image(
            x,
            self.act_bits,
            &mut scratch.codes,
            &mut scratch.scales,
            |c, _| c,
        );
        obs.quantized(self.kind(), &scratch.codes, self.act_bits);
        let (filters, _, k) = kernel.shape();
        let geom = Conv2dGeometry::new(d[1], d[2], d[3], k, self.stride, self.padding);
        let mut out = Tensor::zeros(&[d[0], filters, geom.out_h, geom.out_w]);
        obs.lowered(
            || kernel.lowered(&geom).stats(),
            || {
                conv_core(
                    &scratch.codes,
                    &scratch.scales,
                    &geom,
                    kernel,
                    out.as_mut_slice(),
                    counts,
                    &mut scratch.lanes,
                )
            },
        );
        out
    }
}

/// The one stage walk: runs `layers` in order over `input`, borrowed
/// for the first stage (no upfront clone), accumulating op counts and
/// quantizing activations through `scratch`. With `attribute`, every
/// stage is bracketed by the observer's stage hooks; residual branches
/// pass `false`, so only a network's own top-level stages are
/// attributed. The walk itself times nothing.
pub(crate) fn walk<O: StageObserver>(
    layers: &[IntLayer],
    input: &Tensor,
    counts: &mut OpCounts,
    scratch: &mut Scratch,
    obs: &mut O,
    attribute: bool,
) -> Tensor {
    let mut owned: Option<Tensor> = None;
    for (i, layer) in layers.iter().enumerate() {
        let stage = attribute.then(|| obs.stage_begin(i, stage_kind(layer), counts));
        let x = owned.as_ref().unwrap_or(input);
        owned = Some(run_layer(layer, x, counts, scratch, obs));
        if let Some(stage) = stage {
            obs.stage_end(stage, counts);
        }
    }
    owned.unwrap_or_else(|| input.clone())
}

fn run_layer<O: StageObserver>(
    layer: &IntLayer,
    x: &Tensor,
    counts: &mut OpCounts,
    scratch: &mut Scratch,
    obs: &mut O,
) -> Tensor {
    match layer {
        IntLayer::Conv(conv) => conv.run(x, counts, scratch, obs),
        IntLayer::MaxPool { window } => MaxPool2d::new(*window).forward(x, false),
        IntLayer::GlobalAvgPool => flight_nn::layers::GlobalAvgPool::new().forward(x, false),
        IntLayer::Requant { bits } => {
            quantize_per_image(x, *bits, &mut scratch.codes, &mut scratch.scales, |c, _| c);
            obs.quantized("requant", &scratch.codes, *bits);
            Tensor::from_vec(
                dequantize_per_image(&scratch.codes, &scratch.scales),
                x.dims(),
            )
        }
        IntLayer::Residual {
            main,
            shortcut,
            slope,
        } => {
            let main_out = walk(main, x, counts, scratch, obs, false);
            let short_out = match shortcut {
                Some(sc) => walk(sc, x, counts, scratch, obs, false),
                None => x.clone(),
            };
            let sum = &main_out + &short_out;
            let s = *slope;
            sum.map(|v| if v > 0.0 { v } else { s * v })
        }
    }
}

// Tests live in tests/engine.rs, tests/parity.rs and tests/golden.rs
// (they need trained or hand-built networks and are slower than unit
// scale).
