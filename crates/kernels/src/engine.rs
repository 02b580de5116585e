//! Whole-network integer inference.
//!
//! [`IntNetwork::compile_with`] lowers a trained
//! [`QuantNet`](flightnn::QuantNet) into a deployment pipeline where
//! every convolution and fully connected layer runs on the integer
//! kernels of this crate — shift-add for (F)LightNN weights, integer
//! multiply for fixed-point weights — and everything else (batch norm
//! with running statistics, LeakyReLU, pooling) runs as cheap float
//! glue, exactly as an accelerator would keep them in wider fixed point.
//!
//! Compilation is configured through [`CompileOptions`]: batch-norm
//! folding (the standard deployment transform — folded and unfolded
//! pipelines produce identical results), a telemetry handle, and the
//! scalar-path pin. A forward walks the batch on the calling thread;
//! [`IntNetwork::forward`] picks the traced or untraced walk from the
//! telemetry handle.
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
use flight_telemetry::{StageSample, Telemetry};
use flight_tensor::{Conv2dGeometry, Tensor};
use flightnn::convert::shift_plan;
use flightnn::layers::QuantWeights;
use flightnn::net::{NetLayer, QuantNet};

use crate::counts::OpCounts;
use crate::fixed::FixedWeights;
use crate::lower::{conv_core, TapOp};
use crate::observe::{Null, Profile, StageObserver, Trace};
use crate::qact::QuantActivations;
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
    /// compiles).
    Float(Tensor),
}

#[derive(Debug, Clone)]
pub(crate) enum IntLayer {
    Conv {
        weights: IntWeights,
        bias: Tensor,
        stride: usize,
        padding: usize,
        act_bits: u32,
    },
    /// Per-channel `y = scale·x + bias` (a batch norm at inference time,
    /// possibly folded away into the conv epilogue).
    Affine {
        scale: Tensor,
        bias: Tensor,
    },
    LeakyRelu {
        slope: f32,
    },
    MaxPool {
        window: usize,
    },
    GlobalAvgPool,
    Flatten,
    Linear {
        weights: IntWeights,
        bias: Tensor,
        act_bits: u32,
    },
    Residual {
        main: Vec<IntLayer>,
        shortcut: Option<Vec<IntLayer>>,
        slope: f32,
    },
    /// Activation requantization markers are free at run time (the conv
    /// entry quantizes its own input) but kept for shape fidelity.
    Requant,
}

/// Errors from [`IntNetwork::compile_with`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompileError {
    /// A plain layer the compiler does not recognize.
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

/// Builder for [`IntNetwork::compile_with`]: batch-norm folding, the
/// telemetry handle, and the scalar-path pin in one place.
///
/// ```
/// use flight_kernels::CompileOptions;
/// use flight_telemetry::Telemetry;
///
/// let options = CompileOptions::new()
///     .fold_batch_norm(true)
///     .telemetry(Telemetry::from_env())
///     .force_scalar(false);
/// assert!(options.folds_batch_norm());
/// ```
#[derive(Debug, Clone, Default)]
pub struct CompileOptions {
    fold_batch_norm: bool,
    telemetry: Telemetry,
    force_scalar: bool,
}

impl CompileOptions {
    /// The defaults: no batch-norm folding, null telemetry, the
    /// detected kernel path.
    pub fn new() -> Self {
        CompileOptions::default()
    }

    /// Folds batch norms into the preceding conv's affine epilogue
    /// (bit-identical results, fewer stages).
    pub fn fold_batch_norm(mut self, fold: bool) -> Self {
        self.fold_batch_norm = fold;
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

    /// Whether batch-norm folding is enabled.
    pub fn folds_batch_norm(&self) -> bool {
        self.fold_batch_norm
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
    /// Lowers a trained network to the integer stage list; with
    /// `fold_batch_norm`, batch norms fold into the preceding conv's
    /// affine epilogue (bit-identical results, fewer stages).
    ///
    /// # Errors
    ///
    /// Returns [`CompileError::UnsupportedLayer`] for plain layers the
    /// integer pipeline does not know (none are produced by
    /// [`NetworkConfig::build`](flightnn::configs::NetworkConfig::build)).
    pub fn compile(net: &mut QuantNet, fold_batch_norm: bool) -> Result<Self, CompileError> {
        let mut layers = compile_layers(net)?;
        if fold_batch_norm {
            fold_affines(&mut layers);
        }
        Ok(CompiledNet { layers })
    }

    /// Number of pipeline stages (after folding, if any).
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
    /// Returns [`CompileError::UnsupportedLayer`] for plain layers the
    /// integer pipeline does not know (none are produced by
    /// [`NetworkConfig::build`](flightnn::configs::NetworkConfig::build)).
    pub fn compile_with(net: &mut QuantNet, options: CompileOptions) -> Result<Self, CompileError> {
        let compiled = CompiledNet::compile(net, options.fold_batch_norm)?;
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

    /// Number of pipeline stages (after folding, if any).
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
        IntLayer::Conv { .. } => "conv",
        IntLayer::Affine { .. } => "affine",
        IntLayer::LeakyRelu { .. } => "leaky_relu",
        IntLayer::MaxPool { .. } => "maxpool",
        IntLayer::GlobalAvgPool => "global_avg_pool",
        IntLayer::Flatten => "flatten",
        IntLayer::Linear { .. } => "linear",
        IntLayer::Residual { .. } => "residual",
        IntLayer::Requant => "requant",
    }
}

fn compile_layers(net: &mut QuantNet) -> Result<Vec<IntLayer>, CompileError> {
    let mut out = Vec::new();
    for layer in net.layers_mut() {
        match layer {
            NetLayer::Conv(conv) => {
                let (stride, padding) = (conv.stride(), conv.padding());
                let w = conv.weights_mut();
                let dims = w.shadow().value.dims().to_vec();
                out.push(IntLayer::Conv {
                    weights: lower_weights(w, &dims),
                    bias: w.bias().value.clone(),
                    stride,
                    padding,
                    act_bits: w.act_bits(),
                });
            }
            NetLayer::Linear(lin) => {
                // A linear layer is a 1×1 conv on a 1×1 image.
                let w = lin.weights_mut();
                let d = w.shadow().value.dims();
                let dims = [d[0], d[1], 1, 1];
                out.push(IntLayer::Linear {
                    weights: lower_weights(w, &dims),
                    bias: w.bias().value.clone(),
                    act_bits: w.act_bits(),
                });
            }
            NetLayer::Residual(block) => {
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
            }
            NetLayer::Plain(boxed) => {
                let any: &mut dyn flight_nn::Layer = boxed.as_mut();
                let name = any.name();
                if name.starts_with("batchnorm2d") {
                    // Downcast-free extraction: rebuild the affine from a
                    // second forward pass is fragile; instead we re-read
                    // the known concrete types via trait-object name +
                    // unsafe-free re-dispatch below.
                    out.push(compile_batchnorm_by_probe(any, &name)?);
                } else if let Some(slope) = parse_leaky(&name) {
                    out.push(IntLayer::LeakyRelu { slope });
                } else if let Some(win) = parse_pool(&name) {
                    out.push(IntLayer::MaxPool { window: win });
                } else if name == "global_avg_pool" {
                    out.push(IntLayer::GlobalAvgPool);
                } else if name == "flatten" {
                    out.push(IntLayer::Flatten);
                } else if name.starts_with("act_quant") {
                    out.push(IntLayer::Requant);
                } else {
                    return Err(CompileError::UnsupportedLayer(name));
                }
            }
        }
    }
    Ok(out)
}

/// Extracts the inference-time affine of a batch norm by probing it with
/// basis inputs: for eval-mode BN, `y = a·x + b` per channel, so `b =
/// BN(0)` and `a = BN(1) − b`. This keeps the compiler decoupled from the
/// layer's private fields.
fn compile_batchnorm_by_probe(
    layer: &mut dyn flight_nn::Layer,
    name: &str,
) -> Result<IntLayer, CompileError> {
    let channels: usize = name
        .trim_start_matches("batchnorm2d(")
        .trim_end_matches(')')
        .parse()
        .map_err(|_| CompileError::UnsupportedLayer(name.to_string()))?;
    let zeros = Tensor::zeros(&[1, channels, 1, 1]);
    let ones = Tensor::ones(&[1, channels, 1, 1]);
    let b = layer.forward(&zeros, false);
    let a_plus_b = layer.forward(&ones, false);
    let scale = &a_plus_b - &b;
    Ok(IntLayer::Affine {
        scale: scale.reshape(&[channels]),
        bias: b.reshape(&[channels]),
    })
}

fn parse_leaky(name: &str) -> Option<f32> {
    name.strip_prefix("leaky_relu(")?
        .trim_end_matches(')')
        .parse()
        .ok()
}

fn parse_pool(name: &str) -> Option<usize> {
    let inner = name.strip_prefix("maxpool2d(")?.trim_end_matches(')');
    inner.split('x').next()?.parse().ok()
}

/// Lowers one quantized layer's weights to the datapath its scheme runs
/// on, as a conv weight of shape `dims`. Fixed-point weights quantize
/// from the shadow; shift weights expand through [`shift_plan`], the one
/// quantization of the compile (the layer's last one may be stale: the
/// shadow weights moved after the last forward pass); full-precision
/// weights pass through.
fn lower_weights(w: &mut QuantWeights, dims: &[usize]) -> IntWeights {
    if let Some(bits) = w.fixed_point_bits() {
        IntWeights::Fixed(FixedWeights::quantize(
            &w.shadow().value.reshape(dims),
            bits,
        ))
    } else if w.is_shift_based() {
        IntWeights::Shift(ShiftKernel::compile(&shift_plan(w), dims))
    } else {
        IntWeights::Float(w.shadow().value.reshape(dims))
    }
}

/// Folds the bias of every `Conv` directly followed by an `Affine` into
/// that affine: `a·(conv + bias) + b = a·conv + (a·bias + b)`. The conv
/// epilogue then adds nothing (its bias is zeroed), which is the standard
/// batch-norm-folding deployment transform; results are bit-identical.
fn fold_affines(layers: &mut [IntLayer]) {
    let mut i = 0;
    while i + 1 < layers.len() {
        let fold = matches!(
            (&layers[i], &layers[i + 1]),
            (IntLayer::Conv { .. }, IntLayer::Affine { .. })
        );
        if fold {
            // Take the conv bias out, rewrite the affine bias.
            let conv_bias = if let IntLayer::Conv { bias, .. } = &mut layers[i] {
                std::mem::replace(bias, Tensor::zeros(bias.dims()))
            } else {
                unreachable!("checked above")
            };
            if let IntLayer::Affine { scale, bias } = &mut layers[i + 1] {
                let new_bias: Vec<f32> = conv_bias
                    .as_slice()
                    .iter()
                    .zip(scale.as_slice())
                    .zip(bias.as_slice())
                    .map(|((&cb, &a), &b)| a * cb + b)
                    .collect();
                *bias = Tensor::from_slice(&new_bias);
            }
        }
        i += 1;
    }
    // Recurse into residual blocks.
    for layer in layers.iter_mut() {
        if let IntLayer::Residual { main, shortcut, .. } = layer {
            fold_affines(main);
            if let Some(sc) = shortcut {
                fold_affines(sc);
            }
        }
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

/// One conv over `x` with whichever datapath the layer compiled to.
/// `site` labels the activation quantization site (`"conv"` /
/// `"linear"`) for the observer.
#[allow(clippy::too_many_arguments)]
fn conv_stage<O: StageObserver>(
    weights: &IntWeights,
    site: &'static str,
    act_bits: u32,
    x: &Tensor,
    stride: usize,
    padding: usize,
    counts: &mut OpCounts,
    scratch: &mut Scratch,
    obs: &mut O,
) -> Tensor {
    assert_eq!(x.dims().len(), 4, "conv input must be [n, c, h, w]");
    match weights {
        IntWeights::Shift(k) => {
            int_conv(k, site, act_bits, x, stride, padding, counts, scratch, obs)
        }
        IntWeights::Fixed(k) => {
            int_conv(k, site, act_bits, x, stride, padding, counts, scratch, obs)
        }
        IntWeights::Float(w) => {
            let (o, _) = flight_nn::layers::functional::conv2d_forward(
                x,
                w,
                &Tensor::zeros(&[w.dims()[0]]),
                stride,
                padding,
                false,
            );
            // macs = weights × output positions × batch.
            let filters = w.dims()[0];
            let macs = (w.len() * o.len() / filters.max(1)) as u64;
            counts.float_mults += macs;
            counts.float_adds += macs;
            o
        }
    }
}

/// The integer conv stage of both datapaths: quantize activations per
/// image through the scratch buffers, then run the kernel's lowered
/// program.
#[allow(clippy::too_many_arguments)]
fn int_conv<K: TapOp, O: StageObserver>(
    kernel: &K,
    site: &'static str,
    act_bits: u32,
    x: &Tensor,
    stride: usize,
    padding: usize,
    counts: &mut OpCounts,
    scratch: &mut Scratch,
    obs: &mut O,
) -> Tensor {
    let d = x.dims();
    QuantActivations::quantize_per_image_into(x, act_bits, &mut scratch.codes, &mut scratch.scales);
    obs.quantized(site, &scratch.codes, act_bits);
    let (filters, _, k) = kernel.shape();
    let geom = Conv2dGeometry::new(d[1], d[2], d[3], k, stride, padding);
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

fn run_layer<O: StageObserver>(
    layer: &IntLayer,
    x: &Tensor,
    counts: &mut OpCounts,
    scratch: &mut Scratch,
    obs: &mut O,
) -> Tensor {
    match layer {
        IntLayer::Conv {
            weights,
            bias,
            stride,
            padding,
            act_bits,
        } => {
            let mut out = conv_stage(
                weights, "conv", *act_bits, x, *stride, *padding, counts, scratch, obs,
            );
            add_channel_bias(&mut out, bias);
            out
        }
        IntLayer::Linear {
            weights,
            bias,
            act_bits,
        } => {
            // Lift [n, f] to [n, f, 1, 1] and reuse the conv kernels.
            let n = x.dims()[0];
            let f = x.len() / n.max(1);
            let as_img = x.reshape(&[n, f, 1, 1]);
            let mut out = conv_stage(
                weights, "linear", *act_bits, &as_img, 1, 0, counts, scratch, obs,
            );
            add_channel_bias(&mut out, bias);
            let classes = out.len() / n.max(1);
            out.reshape_in_place(&[n, classes]);
            out
        }
        IntLayer::Affine { scale, bias } => {
            let mut out = x.clone();
            scale_channels(&mut out, scale, bias);
            out
        }
        IntLayer::LeakyRelu { slope } => {
            let s = *slope;
            x.map(|v| if v > 0.0 { v } else { s * v })
        }
        IntLayer::MaxPool { window } => {
            let mut pool = MaxPool2d::new(*window);
            flight_nn::Layer::forward(&mut pool, x, false)
        }
        IntLayer::GlobalAvgPool => {
            let mut gap = flight_nn::layers::GlobalAvgPool::new();
            flight_nn::Layer::forward(&mut gap, x, false)
        }
        IntLayer::Flatten => {
            let n = x.dims()[0];
            x.reshape(&[n, x.len() / n.max(1)])
        }
        IntLayer::Requant => {
            QuantActivations::quantize_per_image_into(
                x,
                8,
                &mut scratch.codes,
                &mut scratch.scales,
            );
            obs.quantized("requant", &scratch.codes, 8);
            let n = x.dims()[0];
            let stride = x.len().checked_div(n).unwrap_or(0);
            let mut data = Vec::with_capacity(x.len());
            for (b, &s) in scratch.scales.iter().enumerate() {
                data.extend(
                    scratch.codes[b * stride..(b + 1) * stride]
                        .iter()
                        .map(|&c| c as f32 * s),
                );
            }
            Tensor::from_vec(data, x.dims())
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

fn add_channel_bias(out: &mut Tensor, bias: &Tensor) {
    let (n, c) = (out.dims()[0], out.dims()[1]);
    let plane = out.len() / (n * c).max(1);
    for b in 0..n {
        for ch in 0..c {
            let add = bias.as_slice()[ch];
            let base = (b * c + ch) * plane;
            for v in &mut out.as_mut_slice()[base..base + plane] {
                *v += add;
            }
        }
    }
}

fn scale_channels(out: &mut Tensor, scale: &Tensor, bias: &Tensor) {
    let (n, c) = (out.dims()[0], out.dims()[1]);
    let plane = out.len() / (n * c).max(1);
    for b in 0..n {
        for ch in 0..c {
            let (a, bb) = (scale.as_slice()[ch], bias.as_slice()[ch]);
            let base = (b * c + ch) * plane;
            for v in &mut out.as_mut_slice()[base..base + plane] {
                *v = a * *v + bb;
            }
        }
    }
}

// Tests live in tests/engine.rs and tests/parity.rs (they need trained
// or hand-built networks and are slower than unit scale).
