//! Multiplier-free integer inference kernels.
//!
//! The paper's hardware claim is that a LightNN/FLightNN multiplication
//! is `k` barrel shifts and `k−1` adds instead of a fixed-point multiply.
//! This crate implements both arithmetic styles *in software, over actual
//! integers*, so the claim can be exercised end-to-end:
//!
//! * [`qact`] — 8-bit activation quantization into integer planes,
//! * [`fixed`] — fixed-point convolution with true integer multiplies
//!   (the FP 4W8A baseline's datapath),
//! * [`shift`] — shift-add convolution driven by the
//!   [`ShiftPlan`](flightnn::convert::ShiftPlan) of a quantized layer
//!   (the (F)LightNN datapath),
//! * [`counts`] — operation counting shared with the ASIC energy model
//!   (see [`OpCounts`] for the exact per-datapath conventions),
//! * [`engine`] — whole-network integer inference: compile a trained
//!   `QuantNet` with [`IntNetwork::compile_with`] into a multiplier-free
//!   deployment pipeline, configured by a [`CompileOptions`] builder
//!   (telemetry, scalar-path pin); every conv → batch norm → LeakyReLU
//!   compiles to one conv stage with a fused epilogue. The immutable
//!   [`CompiledNet`] is shared across threads, each bringing its own
//!   [`ExecCtx`] scratch; activations are quantized with one scale per
//!   image, so logits do not depend on how a batch is composed or split.
//!
//! Both integer datapaths run **one lowered tap program** (the `lower`
//! module): the interpreted per-tap loop is compiled once per layer
//! geometry into precomputed flat input offsets plus per-tap codes
//! (shift/sign packed into one `u32` for the shift path, the weight for
//! the fixed path) into a zero-padded input, so one branchless loop
//! covers every output position, and op accounting is hoisted out of
//! the loops entirely. Each datapath supplies only its tap operation. The
//! interpreted loops are retained as
//! [`shift_add_conv_reference`] / [`fixed_point_conv_reference`] — the
//! parity oracles (bit-identical logits *and* counts, enforced by
//! proptests) and the baselines of the `lowering` bench exhibit.
//!
//! Both kernels are validated bit-for-bit against the floating-point
//! reference convolution of the same quantized values.

pub mod counts;
pub mod engine;
pub mod fixed;
mod lower;
mod observe;
pub mod qact;
pub mod shift;
pub mod simd;

pub use counts::OpCounts;
pub use engine::{CompileOptions, CompiledNet, ExecCtx, IntNetwork};
pub use fixed::{fixed_point_conv, fixed_point_conv_reference, fixed_point_conv_with_path};
pub use qact::QuantActivations;
pub use shift::{
    shift_add_conv, shift_add_conv_reference, shift_add_conv_with_path, LoweringStats,
    ShiftCompileError, ShiftKernel,
};
pub use simd::{active_path, cpu_features, CpuFeatures, KernelPath, FORCE_SCALAR_ENV, LANES};
