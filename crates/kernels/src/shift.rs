//! Shift-add convolution — the (F)LightNN datapath.
//!
//! A quantized filter is a [`ShiftPlan`] (Fig. 3): each active level is a
//! subfilter whose taps are single powers of two. The kernel therefore
//! computes every multiply as `±(a << s)` over the integer activation
//! codes, accumulating in `i64`, and rescales once at the end by
//! `2^{e_min} · act_scale`.
//!
//! # Lowered tap programs
//!
//! [`ShiftKernel::compile`] decodes the plan once into a flat tap table
//! sorted by `(channel, kernel row, kernel column)` with the shift amount
//! and sign packed into a single `u32` per tap. Lowering and running
//! that table is the shared lowered program of the `lower` module (per-
//! geometry offsets into a zero-padded input, hoisted op accounting,
//! SIMD lanes); this module supplies only the shift datapath's tap operation
//! — its `TapOp` impl: the signed shift term in i64, i32 lanes and AVX2,
//! the `2^s` lane weight (refusing shifts above `MAX_LANE_SHIFT`), and
//! the `k` shifts / `k − 1` adds convention of [`OpCounts`]. The
//! interpreted loop is retained as [`shift_add_conv_reference`], the
//! parity oracle and the lowering bench baseline.

#[cfg(target_arch = "x86_64")]
use core::arch::x86_64::*;

use flight_tensor::{Conv2dGeometry, Tensor};
use flightnn::convert::ShiftPlan;
use flightnn::pow2::pow2_exponent;

use crate::counts::OpCounts;
pub use crate::lower::LoweringStats;
use crate::lower::{check_core_shapes, conv_core, conv_with, LoweredCache, TapOp};
use crate::qact::QuantActivations;
use crate::simd::{active_path, KernelPath, LaneCtx, MAX_LANE_SHIFT};

/// Packed tap code layout: shift amount in the low 6 bits, sign in the
/// top bit (`1` = subtract).
const SHIFT_MASK: u32 = 0x3f;
const SIGN_BIT: u32 = 1 << 31;

/// One compiled tap: flat kernel-space offset plus the packed shift/sign
/// code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Tap {
    /// Index into the `[c, kh, kw]` filter volume.
    offset: u32,
    /// Shift amount and sign, packed (`SHIFT_MASK` / `SIGN_BIT`).
    code: u32,
}

/// Why a [`ShiftPlan`] cannot compile to shift taps.
#[derive(Debug, Clone, PartialEq)]
pub enum ShiftCompileError {
    /// `weight_dims` is not rank 4.
    BadWeightRank(usize),
    /// The kernel window is not square.
    NonSquareKernel {
        /// Kernel height.
        kh: usize,
        /// Kernel width.
        kw: usize,
    },
    /// The plan's filter count disagrees with the weight shape.
    FilterCountMismatch {
        /// Filters in the plan.
        plan: usize,
        /// Filters in `weight_dims`.
        weights: usize,
    },
    /// The plan's filter length disagrees with `c · kh · kw`.
    FilterLenMismatch {
        /// Coefficients per filter in the plan.
        plan: usize,
        /// `c · kh · kw` from `weight_dims`.
        weights: usize,
    },
    /// A nonzero tap is not `±2^e` — the plan is not a shift program.
    NotPowerOfTwo {
        /// Filter index.
        filter: usize,
        /// Flat coefficient index within the filter volume.
        index: usize,
        /// The offending coefficient.
        value: f32,
    },
    /// A tap's shift relative to the layer minimum exceeds the barrel
    /// shifter's range.
    ShiftOutOfRange {
        /// Filter index.
        filter: usize,
        /// Flat coefficient index within the filter volume.
        index: usize,
        /// The out-of-range shift amount.
        shift: i32,
    },
}

impl std::fmt::Display for ShiftCompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShiftCompileError::BadWeightRank(rank) => {
                write!(f, "weights must be [f, c, k, k], got rank {rank}")
            }
            ShiftCompileError::NonSquareKernel { kh, kw } => {
                write!(f, "kernels must be square, got {kh}x{kw}")
            }
            ShiftCompileError::FilterCountMismatch { plan, weights } => {
                write!(f, "plan has {plan} filters but weights have {weights}")
            }
            ShiftCompileError::FilterLenMismatch { plan, weights } => {
                write!(f, "plan filter length {plan} != weight volume {weights}")
            }
            ShiftCompileError::NotPowerOfTwo {
                filter,
                index,
                value,
            } => write!(
                f,
                "filter {filter} tap {index} is {value}, not a power of two"
            ),
            ShiftCompileError::ShiftOutOfRange {
                filter,
                index,
                shift,
            } => write!(f, "filter {filter} tap {index}: shift {shift} out of range"),
        }
    }
}

impl std::error::Error for ShiftCompileError {}

/// `Some(e)` iff `v == ±2^e` exactly.
fn strict_pow2_exponent(v: f32) -> Option<i32> {
    let e = pow2_exponent(v)?;
    ((e as f32).exp2() == v.abs()).then_some(e)
}

/// A conv layer compiled for shift-add execution.
///
/// # Example
///
/// ```
/// use flight_kernels::ShiftKernel;
/// use flightnn::convert::shift_plan;
/// use flightnn::layers::QuantConv2d;
/// use flightnn::QuantScheme;
/// use flight_tensor::TensorRng;
///
/// let mut rng = TensorRng::seed(0);
/// let mut conv = QuantConv2d::new(&mut rng, &QuantScheme::l1(), 3, 8, 3, 1, 1);
/// let plan = shift_plan(conv.weights_mut());
/// let kernel = ShiftKernel::compile(&plan, &[8, 3, 3, 3]);
/// assert_eq!(kernel.filters(), 8);
/// ```
#[derive(Debug, Clone)]
pub struct ShiftKernel {
    /// All filters' taps, concatenated; within each filter sorted by flat
    /// offset, i.e. by `(channel, kernel row, kernel column)`, so the
    /// lowered inner loop walks input memory forward.
    taps: Vec<Tap>,
    /// Filter `f`'s taps are `taps[bounds[f] as usize..bounds[f+1] as usize]`.
    bounds: Vec<u32>,
    /// Global scale `2^{e_min}` restoring real weight magnitudes.
    base_scale: f32,
    /// Filter volume dims `[c, kh, kw]`.
    in_channels: usize,
    kernel: usize,
    /// Lowered tap programs, one per geometry, shared across clones (and
    /// therefore across threads sharing one `CompiledNet`).
    lowered: LoweredCache<ShiftKernel>,
}

impl ShiftKernel {
    /// Compiles a [`ShiftPlan`] into shift taps. `weight_dims` is the
    /// original weight shape `[f, c, kh, kw]`.
    ///
    /// # Errors
    ///
    /// Returns a [`ShiftCompileError`] if the plan does not match
    /// `weight_dims`, a nonzero tap is not an exact power of two, or a
    /// shift amount exceeds the barrel shifter's range.
    pub fn try_compile(plan: &ShiftPlan, weight_dims: &[usize]) -> Result<Self, ShiftCompileError> {
        if weight_dims.len() != 4 {
            return Err(ShiftCompileError::BadWeightRank(weight_dims.len()));
        }
        let (f, c, kh, kw) = (
            weight_dims[0],
            weight_dims[1],
            weight_dims[2],
            weight_dims[3],
        );
        if kh != kw {
            return Err(ShiftCompileError::NonSquareKernel { kh, kw });
        }
        if plan.filters.len() != f {
            return Err(ShiftCompileError::FilterCountMismatch {
                plan: plan.filters.len(),
                weights: f,
            });
        }
        if plan.filter_len != c * kh * kw {
            return Err(ShiftCompileError::FilterLenMismatch {
                plan: plan.filter_len,
                weights: c * kh * kw,
            });
        }

        // Find the minimum exponent across all taps so shifts are >= 0.
        let mut min_exp = i32::MAX;
        for (fi, fp) in plan.filters.iter().enumerate() {
            for sub in &fp.subfilters {
                for (idx, &v) in sub.coefficients.iter().enumerate() {
                    if v == 0.0 {
                        continue;
                    }
                    let e = strict_pow2_exponent(v).ok_or(ShiftCompileError::NotPowerOfTwo {
                        filter: fi,
                        index: idx,
                        value: v,
                    })?;
                    min_exp = min_exp.min(e);
                }
            }
        }
        if min_exp == i32::MAX {
            min_exp = 0; // all-zero layer
        }

        let mut taps = Vec::new();
        let mut bounds = Vec::with_capacity(f + 1);
        bounds.push(0u32);
        for (fi, fp) in plan.filters.iter().enumerate() {
            let filter_start = taps.len();
            for sub in &fp.subfilters {
                for (idx, &v) in sub.coefficients.iter().enumerate() {
                    if v == 0.0 {
                        continue;
                    }
                    let e = strict_pow2_exponent(v).expect("validated above");
                    let shift = e - min_exp;
                    if !(0..=SHIFT_MASK as i32).contains(&shift) {
                        return Err(ShiftCompileError::ShiftOutOfRange {
                            filter: fi,
                            index: idx,
                            shift,
                        });
                    }
                    let mut code = shift as u32;
                    if v < 0.0 {
                        code |= SIGN_BIT;
                    }
                    taps.push(Tap {
                        offset: idx as u32,
                        code,
                    });
                }
            }
            // Sort this filter's taps by offset == (ch, ki, kj) so the
            // lowered loop reads the input front to back. Integer
            // accumulation is exact, so reordering cannot change results.
            taps[filter_start..].sort_unstable_by_key(|t| t.offset);
            bounds.push(taps.len() as u32);
        }

        Ok(ShiftKernel {
            taps,
            bounds,
            base_scale: (min_exp as f32).exp2(),
            in_channels: c,
            kernel: kh,
            lowered: LoweredCache::default(),
        })
    }

    /// Compiles a [`ShiftPlan`] into shift taps, panicking on invalid
    /// input — the historical API; see [`ShiftKernel::try_compile`] for
    /// the `Result`-returning form.
    ///
    /// # Panics
    ///
    /// Panics if the plan does not match `weight_dims`, or a tap is not a
    /// power of two.
    pub fn compile(plan: &ShiftPlan, weight_dims: &[usize]) -> Self {
        ShiftKernel::try_compile(plan, weight_dims)
            .unwrap_or_else(|e| panic!("ShiftKernel::compile: {e}"))
    }

    /// Number of filters.
    pub fn filters(&self) -> usize {
        self.bounds.len() - 1
    }

    /// Square kernel side the taps were compiled for.
    pub fn kernel_size(&self) -> usize {
        self.kernel
    }

    /// Input channels the taps were compiled for.
    pub fn in_channels(&self) -> usize {
        self.in_channels
    }

    /// Total shift taps (shift operations per output position summed over
    /// filters).
    pub fn total_taps(&self) -> usize {
        self.taps.len()
    }

    /// The shape of the tap program this kernel runs for `geom` (forces
    /// the lowering, which is cached).
    pub fn lowering_stats(&self, geom: &Conv2dGeometry) -> LoweringStats {
        self.lowered(geom).stats()
    }
}

/// The shift-add datapath: `±(a << s)` per tap, packed as `SHIFT_MASK`
/// / `SIGN_BIT` codes.
impl TapOp for ShiftKernel {
    type Code = u32;

    #[inline]
    fn term(a: i64, code: u32) -> i64 {
        // Branchless sign fold: `(term ^ m) - m` with `m = 0` (add) or
        // `m = -1` (subtract).
        let m = ((code as i32) >> 31) as i64;
        ((a << (code & SHIFT_MASK)) ^ m) - m
    }

    #[inline]
    fn lane_term(a: i32, code: u32) -> i32 {
        let m = (code as i32) >> 31;
        ((a << (code & SHIFT_MASK)) ^ m) - m
    }

    #[cfg(target_arch = "x86_64")]
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn avx2_term(v: __m256i, code: u32) -> __m256i {
        // `a << s`, the same shift for every lane, then the sign fold.
        let term = _mm256_sll_epi32(v, _mm_cvtsi32_si128((code & SHIFT_MASK) as i32));
        let m = _mm256_set1_epi32((code as i32) >> 31);
        _mm256_sub_epi32(_mm256_xor_si256(term, m), m)
    }

    /// `2^s`; shifts above [`MAX_LANE_SHIFT`] refuse lanes, which keeps
    /// `a << s` defined (and bounded) in i32.
    fn lane_weight(code: u32) -> Option<u64> {
        let s = code & SHIFT_MASK;
        (s <= MAX_LANE_SHIFT).then(|| 1u64 << s)
    }

    /// `t` shifts and `t − 1` adds.
    fn tally(t: u64) -> OpCounts {
        OpCounts {
            shifts: t,
            int_adds: t.saturating_sub(1),
            ..OpCounts::default()
        }
    }

    fn shape(&self) -> (usize, usize, usize) {
        (self.filters(), self.in_channels, self.kernel)
    }

    fn weight_scale(&self) -> f32 {
        self.base_scale
    }

    fn filter_taps(&self, fi: usize) -> impl Iterator<Item = (usize, u32)> + '_ {
        let taps = &self.taps[self.bounds[fi] as usize..self.bounds[fi + 1] as usize];
        taps.iter().map(|t| (t.offset as usize, t.code))
    }

    fn cache(&self) -> &LoweredCache<Self> {
        &self.lowered
    }
}

/// The interpreted tap loop the lowered core replaced: re-decodes every
/// tap's `(ch, ki, kj)` per output position and checks padding bounds per
/// tap. Retained as the bit-exactness oracle for the lowering (the
/// parity proptests compare against it) and as the baseline of the
/// `lowering` bench exhibit.
pub(crate) fn shift_add_conv_reference_core(
    codes: &[i32],
    scales: &[f32],
    geom: &Conv2dGeometry,
    kernel: &ShiftKernel,
    out: &mut [f32],
    counts: &mut OpCounts,
    _lanes: &mut LaneCtx,
) {
    check_core_shapes(codes, scales, geom, kernel, out);
    let n = scales.len();
    let (c, h, w) = (geom.in_channels, geom.in_h, geom.in_w);
    let k = geom.kernel;
    let (stride, padding) = (geom.stride, geom.padding);
    let f = kernel.filters();

    for b in 0..n {
        let out_scale = scales[b] * kernel.base_scale;
        for fi in 0..f {
            let taps = &kernel.taps[kernel.bounds[fi] as usize..kernel.bounds[fi + 1] as usize];
            for oi in 0..geom.out_h {
                let row = ((b * f + fi) * geom.out_h + oi) * geom.out_w;
                for oj in 0..geom.out_w {
                    let mut acc: i64 = 0;
                    let mut executed: u64 = 0;
                    for tap in taps {
                        // Decode the tap's position in the [c, k, k] volume.
                        let off = tap.offset as usize;
                        let ch = off / (k * k);
                        let ki = (off / k) % k;
                        let kj = off % k;
                        let ii = (oi * stride + ki) as isize - padding as isize;
                        let jj = (oj * stride + kj) as isize - padding as isize;
                        if ii < 0 || jj < 0 || ii as usize >= h || jj as usize >= w {
                            continue;
                        }
                        let a = codes[((b * c + ch) * h + ii as usize) * w + jj as usize] as i64;
                        let term = a << (tap.code & SHIFT_MASK);
                        acc += if tap.code & SIGN_BIT != 0 {
                            -term
                        } else {
                            term
                        };
                        executed += 1;
                    }
                    counts.shifts += executed;
                    counts.int_adds += executed.saturating_sub(1);
                    out[row + oj] = acc as f32 * out_scale;
                }
            }
        }
    }
}

/// Shift-add convolution over integer activation codes (lowered path).
///
/// Returns the float output `[n, f, oh, ow]` and the operation counts
/// (`k` shifts and `k − 1` adds per position under the paper's §3 cost
/// model — see [`OpCounts`]; no multiplies anywhere).
///
/// # Panics
///
/// Panics on activation/kernel shape mismatches.
pub fn shift_add_conv(
    act: &QuantActivations,
    kernel: &ShiftKernel,
    stride: usize,
    padding: usize,
) -> (Tensor, OpCounts) {
    shift_add_conv_with_path(act, kernel, stride, padding, active_path())
}

/// [`shift_add_conv`] pinned to a specific [`KernelPath`] instead of
/// the process-wide dispatch decision — the entry point of the
/// path-matrix parity tests and the `lowering` bench exhibit.
pub fn shift_add_conv_with_path(
    act: &QuantActivations,
    kernel: &ShiftKernel,
    stride: usize,
    padding: usize,
    path: KernelPath,
) -> (Tensor, OpCounts) {
    conv_with(
        act,
        kernel,
        stride,
        padding,
        conv_core,
        LaneCtx::with_path(path),
    )
}

/// [`shift_add_conv`] on the retained interpreted core — the oracle the
/// lowered path is tested against, and the baseline the `lowering` bench
/// exhibit times. Bit-identical outputs and counts to the lowered path,
/// only slower.
pub fn shift_add_conv_reference(
    act: &QuantActivations,
    kernel: &ShiftKernel,
    stride: usize,
    padding: usize,
) -> (Tensor, OpCounts) {
    conv_with(
        act,
        kernel,
        stride,
        padding,
        shift_add_conv_reference_core,
        LaneCtx::with_path(KernelPath::Scalar),
    )
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::simd::LANES;
    use flight_nn::layers::functional::conv2d_forward;
    use flight_tensor::{uniform, TensorRng};
    use flightnn::convert::{shift_plan, FilterPlan, SubFilter};
    use flightnn::layers::QuantConv2d;
    use flightnn::QuantScheme;

    fn check_scheme(scheme: QuantScheme, seed: u64) {
        let mut rng = TensorRng::seed(seed);
        let mut conv = QuantConv2d::new(&mut rng, &scheme, 3, 4, 3, 1, 1);
        let plan = shift_plan(conv.weights_mut());
        let dims = conv.weights().shadow().value.dims().to_vec();
        let kernel = ShiftKernel::compile(&plan, &dims);

        let x = uniform(&mut rng, &[2, 3, 6, 6], -1.0, 1.0);
        let qa = QuantActivations::quantize(&x, 8);
        let qweights = conv.weights_mut().quantized().clone();

        let (reference, _) = conv2d_forward(
            &qa.dequantize(),
            &qweights,
            &Tensor::zeros(&[4]),
            1,
            1,
            false,
        );
        let (out, counts) = shift_add_conv(&qa, &kernel, 1, 1);
        assert!(
            out.allclose(&reference, 1e-3),
            "shift-add diverges from reference for {}",
            scheme.label()
        );
        assert_eq!(counts.int_mults, 0, "shift kernel must not multiply");
        assert!(counts.shifts > 0);

        // The lowered path and the interpreted oracle are bit-identical.
        let (oracle, oracle_counts) = shift_add_conv_reference(&qa, &kernel, 1, 1);
        assert_eq!(out.as_slice(), oracle.as_slice(), "lowered != oracle");
        assert_eq!(counts, oracle_counts, "lowered counts != oracle counts");
    }

    #[test]
    fn lightnn1_matches_reference() {
        check_scheme(QuantScheme::l1(), 11);
    }

    #[test]
    fn lightnn2_matches_reference() {
        check_scheme(QuantScheme::l2(), 12);
    }

    #[test]
    fn flightnn_matches_reference() {
        check_scheme(QuantScheme::flight(1e-5), 13);
    }

    #[test]
    fn tap_count_scales_with_k() {
        let mut rng = TensorRng::seed(14);
        let mut c1 = QuantConv2d::new(&mut rng, &QuantScheme::l1(), 2, 4, 3, 1, 1);
        let mut rng = TensorRng::seed(14);
        let mut c2 = QuantConv2d::new(&mut rng, &QuantScheme::l2(), 2, 4, 3, 1, 1);
        let p1 = shift_plan(c1.weights_mut());
        let p2 = shift_plan(c2.weights_mut());
        let k1 = ShiftKernel::compile(&p1, &[4, 2, 3, 3]);
        let k2 = ShiftKernel::compile(&p2, &[4, 2, 3, 3]);
        assert!(
            k2.total_taps() > k1.total_taps(),
            "L-2 should need more shift taps than L-1"
        );
    }

    #[test]
    fn core_with_per_image_scales_matches_solo_images() {
        let mut rng = TensorRng::seed(16);
        let mut conv = QuantConv2d::new(&mut rng, &QuantScheme::l1(), 2, 3, 3, 1, 1);
        let plan = shift_plan(conv.weights_mut());
        let kernel = ShiftKernel::compile(&plan, &[3, 2, 3, 3]);
        let x = uniform(&mut rng, &[3, 2, 6, 6], -1.0, 1.0);

        let batch = QuantActivations::quantize(&x, 8);
        let geom = Conv2dGeometry::new(2, 6, 6, 3, 1, 1);
        let mut out = vec![0.0f32; 3 * kernel.filters() * geom.out_positions()];
        let mut counts = OpCounts::default();
        conv_core(
            batch.codes(),
            batch.scales(),
            &geom,
            &kernel,
            &mut out,
            &mut counts,
            &mut LaneCtx::new(),
        );

        // Each image must be bit-identical to submitting it alone.
        let img_out = kernel.filters() * geom.out_positions();
        let mut solo_counts = OpCounts::default();
        for b in 0..3 {
            let img = Tensor::from_vec(x.outer(b).to_vec(), &[1, 2, 6, 6]);
            let qa = QuantActivations::quantize(&img, 8);
            let (solo, c) = shift_add_conv(&qa, &kernel, 1, 1);
            solo_counts += c;
            assert_eq!(
                &out[b * img_out..(b + 1) * img_out],
                solo.as_slice(),
                "image {b} diverges from solo inference"
            );
        }
        assert_eq!(counts, solo_counts, "op counts reduce associatively");
    }

    #[test]
    fn stride_two_matches_reference() {
        let mut rng = TensorRng::seed(15);
        let mut conv = QuantConv2d::new(&mut rng, &QuantScheme::l2(), 2, 3, 3, 2, 1);
        let plan = shift_plan(conv.weights_mut());
        let kernel = ShiftKernel::compile(&plan, &[3, 2, 3, 3]);
        let x = uniform(&mut rng, &[1, 2, 8, 8], -1.0, 1.0);
        let qa = QuantActivations::quantize(&x, 8);
        let (reference, _) = conv2d_forward(
            &qa.dequantize(),
            conv.weights_mut().quantized(),
            &Tensor::zeros(&[3]),
            2,
            1,
            false,
        );
        let (out, _) = shift_add_conv(&qa, &kernel, 2, 1);
        assert!(out.allclose(&reference, 1e-3));
    }

    /// A hand-built plan: one filter over a [1, 2, 2] volume.
    fn tiny_plan(coefficients: Vec<f32>) -> ShiftPlan {
        ShiftPlan {
            filters: vec![FilterPlan {
                subfilters: vec![SubFilter { coefficients }],
            }],
            filter_len: 4,
        }
    }

    #[test]
    fn try_compile_rejects_non_power_of_two_taps() {
        let plan = tiny_plan(vec![0.5, 0.0, 0.3, -1.0]);
        let err = ShiftKernel::try_compile(&plan, &[1, 1, 2, 2]).unwrap_err();
        assert_eq!(
            err,
            ShiftCompileError::NotPowerOfTwo {
                filter: 0,
                index: 2,
                value: 0.3
            }
        );
        assert!(err.to_string().contains("not a power of two"));
    }

    #[test]
    fn try_compile_rejects_shape_mismatches() {
        let plan = tiny_plan(vec![0.5, 0.0, 0.25, -1.0]);
        assert_eq!(
            ShiftKernel::try_compile(&plan, &[1, 1, 2]).unwrap_err(),
            ShiftCompileError::BadWeightRank(3)
        );
        assert_eq!(
            ShiftKernel::try_compile(&plan, &[1, 1, 2, 3]).unwrap_err(),
            ShiftCompileError::NonSquareKernel { kh: 2, kw: 3 }
        );
        assert_eq!(
            ShiftKernel::try_compile(&plan, &[2, 1, 2, 2]).unwrap_err(),
            ShiftCompileError::FilterCountMismatch {
                plan: 1,
                weights: 2
            }
        );
        assert_eq!(
            ShiftKernel::try_compile(&plan, &[1, 2, 2, 2]).unwrap_err(),
            ShiftCompileError::FilterLenMismatch {
                plan: 4,
                weights: 8
            }
        );
    }

    #[test]
    #[should_panic(expected = "not a power of two")]
    fn compile_panics_where_try_compile_errors() {
        let plan = tiny_plan(vec![0.3, 0.0, 0.0, 0.0]);
        let _ = ShiftKernel::compile(&plan, &[1, 1, 2, 2]);
    }

    #[test]
    fn taps_are_sorted_for_sequential_access() {
        // Two subfilters whose taps interleave: compile must merge-sort
        // them by flat offset within the filter.
        let plan = ShiftPlan {
            filters: vec![FilterPlan {
                subfilters: vec![
                    SubFilter {
                        coefficients: vec![0.0, 1.0, 0.0, -0.5],
                    },
                    SubFilter {
                        coefficients: vec![2.0, 0.0, 0.25, 0.0],
                    },
                ],
            }],
            filter_len: 4,
        };
        let kernel = ShiftKernel::compile(&plan, &[1, 1, 2, 2]);
        let offsets: Vec<u32> = kernel.taps.iter().map(|t| t.offset).collect();
        assert_eq!(offsets, vec![0, 1, 2, 3]);
    }

    #[test]
    fn cost_convention_k_shifts_k_minus_1_adds() {
        // Padding 0: every window lies inside the input and executes all
        // taps, so the §3 cost model is exact: taps shifts, taps−1 adds
        // per position.
        let plan = tiny_plan(vec![0.5, -1.0, 2.0, 0.0]); // 3 taps
        let kernel = ShiftKernel::compile(&plan, &[1, 1, 2, 2]);
        let mut rng = TensorRng::seed(17);
        let x = uniform(&mut rng, &[2, 1, 5, 5], -1.0, 1.0);
        let qa = QuantActivations::quantize(&x, 8);
        let (_, counts) = shift_add_conv(&qa, &kernel, 1, 0);
        let positions = 4 * 4 * 2; // out 4x4, batch 2
        assert_eq!(counts.shifts, 3 * positions);
        assert_eq!(counts.int_adds, 2 * positions);
        let (_, oracle) = shift_add_conv_reference(&qa, &kernel, 1, 0);
        assert_eq!(counts, oracle);
    }

    #[test]
    fn lowering_stats_split_the_output_map() {
        let plan = tiny_plan(vec![0.5, -1.0, 2.0, 0.25]);
        let kernel = ShiftKernel::compile(&plan, &[1, 1, 2, 2]);
        let geom = Conv2dGeometry::new(1, 6, 6, 2, 1, 1);
        let stats = kernel.lowering_stats(&geom);
        assert_eq!(stats.total_taps, 4);
        assert_eq!(stats.filters, 1);
        assert_eq!(stats.mean_taps_per_filter(), 4.0);
    }

    #[test]
    fn oversized_shifts_fall_back_to_scalar_lanes() {
        // Shift amounts up to 31 exceed MAX_LANE_SHIFT, so a full lane
        // batch must silently take the scalar path — and still match the
        // interpreted oracle bit-for-bit.
        let plan = tiny_plan(vec![1.0, 2147483648.0, 0.0, 0.0]);
        let kernel = ShiftKernel::compile(&plan, &[1, 1, 2, 2]);
        let geom = Conv2dGeometry::new(1, 6, 6, 2, 1, 0);
        let lowered = kernel.lowered(&geom);
        let max_shift = kernel.taps.iter().map(|t| t.code & SHIFT_MASK).max();
        assert!(max_shift.unwrap() > MAX_LANE_SHIFT);
        assert_eq!(
            lowered.lane_path(KernelPath::Portable, &[127; 8 * 36], 8),
            KernelPath::Scalar
        );

        let mut rng = TensorRng::seed(21);
        let x = uniform(&mut rng, &[LANES, 1, 6, 6], -1.0, 1.0);
        let qa = QuantActivations::quantize(&x, 8);
        let (fast, counts) = shift_add_conv(&qa, &kernel, 1, 0);
        let (oracle, oracle_counts) = shift_add_conv_reference(&qa, &kernel, 1, 0);
        assert_eq!(fast.as_slice(), oracle.as_slice());
        assert_eq!(counts, oracle_counts);
    }

    #[test]
    fn lowered_cache_is_shared_across_clones() {
        let plan = tiny_plan(vec![0.5, -1.0, 0.0, 0.25]);
        let kernel = ShiftKernel::compile(&plan, &[1, 1, 2, 2]);
        let geom = Conv2dGeometry::new(1, 6, 6, 2, 1, 1);
        let clone = kernel.clone();
        let a = kernel.lowered(&geom);
        let b = clone.lowered(&geom);
        assert!(Arc::ptr_eq(&a, &b), "clones must share lowered programs");
    }
}
