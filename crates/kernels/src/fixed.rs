//! Fixed-point convolution with true integer multiplies.
//!
//! The FP 4W8A baseline's datapath runs the same lowered program as the
//! shift-add path (the `lower` module): the dense `[f, c, k, k]` weight
//! codes lower to the shared per-filter bounds/offsets/codes layout,
//! every tap kept (zeros included), so only the tap operation differs.
//! This module supplies it as the `TapOp` impl of [`FixedWeights`]: the
//! integer multiply `a · w` in i64, i32 lanes and AVX2 (`vpmulld`), the
//! `|w|` lane weight, and the fixed-point cost convention — one integer
//! multiply and one accumulate per in-bounds tap (see [`OpCounts`]). The
//! interpreted loop is retained as [`fixed_point_conv_reference`] — the
//! parity oracle and bench baseline.

#[cfg(target_arch = "x86_64")]
use core::arch::x86_64::*;

use flight_tensor::{Conv2dGeometry, Tensor};
use flightnn::quant::{dequantize, quantize_slab};

use crate::counts::OpCounts;
use crate::lower::{check_core_shapes, conv_core, conv_with, LoweredCache, LoweringStats, TapOp};
use crate::qact::QuantActivations;
use crate::simd::{active_path, KernelPath, LaneCtx};

/// Fixed-point weights: integer codes plus one per-layer scale,
/// `w ≈ codes · scale`, codes in `±(2^{bits−1} − 1)`.
#[derive(Debug, Clone)]
pub struct FixedWeights {
    codes: Vec<i32>,
    scale: f32,
    dims: Vec<usize>,
    /// Geometry-keyed lowered programs, shared across clones (and
    /// therefore across threads sharing one `CompiledNet`).
    lowered: LoweredCache<FixedWeights>,
}

// The lowering cache is derived state; equality is about the weights.
impl PartialEq for FixedWeights {
    fn eq(&self, other: &Self) -> bool {
        self.codes == other.codes && self.scale == other.scale && self.dims == other.dims
    }
}

impl FixedWeights {
    /// Quantizes float weights symmetrically to `bits` with one
    /// per-tensor scale (`flightnn::quant::quantize_slab`).
    ///
    /// # Panics
    ///
    /// Panics if `bits < 2` or `weights` is not rank 4.
    pub fn quantize(weights: &Tensor, bits: u32) -> Self {
        assert_eq!(weights.shape().rank(), 4, "weights must be [f, c, k, k]");
        let mut codes = Vec::with_capacity(weights.len());
        let scale = quantize_slab(weights.as_slice(), bits, &mut codes, |c, _| c);
        FixedWeights {
            codes,
            scale,
            dims: weights.dims().to_vec(),
            lowered: LoweredCache::default(),
        }
    }

    /// The float weights these codes represent.
    pub fn dequantize(&self) -> Tensor {
        Tensor::from_vec(
            self.codes
                .iter()
                .map(|&c| dequantize(c, self.scale))
                .collect(),
            &self.dims,
        )
    }

    /// Weight tensor dims `[f, c, k, k]`.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// The shape of the tap program these weights run for `geom` (forces
    /// the lowering, which is cached). For the dense fixed-point path
    /// every filter has `c · k · k` taps.
    pub fn lowering_stats(&self, geom: &Conv2dGeometry) -> LoweringStats {
        self.lowered(geom).stats()
    }
}

/// The fixed-point datapath: `a · w` per tap over dense weight codes.
impl TapOp for FixedWeights {
    type Code = i32;

    #[inline]
    fn term(a: i64, w: i32) -> i64 {
        a * w as i64
    }

    #[inline]
    fn lane_term(a: i32, w: i32) -> i32 {
        a * w
    }

    #[cfg(target_arch = "x86_64")]
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn avx2_term(v: __m256i, w: i32) -> __m256i {
        _mm256_mullo_epi32(v, _mm256_set1_epi32(w))
    }

    /// `|w|`: each partial product is bounded by the accumulator bound
    /// too, so the i32 lane multiply cannot wrap either.
    fn lane_weight(w: i32) -> Option<u64> {
        Some(w.unsigned_abs() as u64)
    }

    /// `t` multiplies and `t` accumulates.
    fn tally(t: u64) -> OpCounts {
        OpCounts {
            int_mults: t,
            int_adds: t,
            ..OpCounts::default()
        }
    }

    fn shape(&self) -> (usize, usize, usize) {
        let (f, c, kh, kw) = (self.dims[0], self.dims[1], self.dims[2], self.dims[3]);
        assert_eq!(kh, kw, "kernels must be square");
        (f, c, kh)
    }

    fn weight_scale(&self) -> f32 {
        self.scale
    }

    fn filter_taps(&self, fi: usize) -> impl Iterator<Item = (usize, i32)> + '_ {
        let ckk = self.codes.len() / self.dims[0];
        self.codes[fi * ckk..(fi + 1) * ckk]
            .iter()
            .copied()
            .enumerate()
    }

    fn cache(&self) -> &LoweredCache<Self> {
        &self.lowered
    }
}

/// Integer fixed-point convolution: activations `[n, c, h, w]` (integer
/// codes) convolved with integer weight codes, accumulated in `i64`, then
/// rescaled to float by `act.scale · weights.scale`.
///
/// Returns the float output `[n, f, oh, ow]` and the operation counts
/// (one integer multiply and one accumulate per tap).
///
/// # Panics
///
/// Panics on shape mismatches between activations and weights.
pub fn fixed_point_conv(
    act: &QuantActivations,
    weights: &FixedWeights,
    stride: usize,
    padding: usize,
) -> (Tensor, OpCounts) {
    fixed_point_conv_with_path(act, weights, stride, padding, active_path())
}

/// [`fixed_point_conv`] pinned to a specific [`KernelPath`] instead of
/// the process-wide dispatch decision — the entry point of the
/// path-matrix parity tests and the `lowering` bench exhibit.
pub fn fixed_point_conv_with_path(
    act: &QuantActivations,
    weights: &FixedWeights,
    stride: usize,
    padding: usize,
    path: KernelPath,
) -> (Tensor, OpCounts) {
    conv_with(
        act,
        weights,
        stride,
        padding,
        conv_core,
        LaneCtx::with_path(path),
    )
}

/// [`fixed_point_conv`] on the retained interpreted core — the oracle the
/// lowered path is tested against, and the fixed-point baseline of the
/// `lowering` bench exhibit. Bit-identical outputs and counts to the
/// lowered path.
pub fn fixed_point_conv_reference(
    act: &QuantActivations,
    weights: &FixedWeights,
    stride: usize,
    padding: usize,
) -> (Tensor, OpCounts) {
    conv_with(
        act,
        weights,
        stride,
        padding,
        fixed_point_conv_reference_core,
        LaneCtx::with_path(KernelPath::Scalar),
    )
}

/// The interpreted tap loop the lowered core replaced: per-tap bounds
/// checks and per-tap count bumps. Retained as the parity oracle.
pub(crate) fn fixed_point_conv_reference_core(
    codes: &[i32],
    scales: &[f32],
    geom: &Conv2dGeometry,
    weights: &FixedWeights,
    out: &mut [f32],
    counts: &mut OpCounts,
    _lanes: &mut LaneCtx,
) {
    check_core_shapes(codes, scales, geom, weights, out);
    let n = scales.len();
    let (c, h, w) = (geom.in_channels, geom.in_h, geom.in_w);
    let wd = &weights.dims;
    let (f, kh, kw) = (wd[0], wd[2], wd[3]);
    let (stride, padding) = (geom.stride, geom.padding);
    let wcodes = &weights.codes;

    for b in 0..n {
        let out_scale = scales[b] * weights.scale;
        for fi in 0..f {
            for oi in 0..geom.out_h {
                let row = ((b * f + fi) * geom.out_h + oi) * geom.out_w;
                for oj in 0..geom.out_w {
                    let mut acc: i64 = 0;
                    for ch in 0..c {
                        for ki in 0..kh {
                            let ii = (oi * stride + ki) as isize - padding as isize;
                            if ii < 0 || ii as usize >= h {
                                continue;
                            }
                            for kj in 0..kw {
                                let jj = (oj * stride + kj) as isize - padding as isize;
                                if jj < 0 || jj as usize >= w {
                                    continue;
                                }
                                let a = codes[((b * c + ch) * h + ii as usize) * w + jj as usize];
                                let wv = wcodes[((fi * c + ch) * kh + ki) * kw + kj];
                                acc += (a as i64) * (wv as i64);
                                counts.int_mults += 1;
                                counts.int_adds += 1;
                            }
                        }
                    }
                    out[row + oj] = acc as f32 * out_scale;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flight_nn::layers::functional::conv2d_forward;
    use flight_tensor::{uniform, TensorRng};

    #[test]
    fn integer_conv_matches_float_reference() {
        let mut rng = TensorRng::seed(5);
        let x = uniform(&mut rng, &[2, 3, 6, 6], -1.0, 1.0);
        let w = uniform(&mut rng, &[4, 3, 3, 3], -0.5, 0.5);

        let qa = QuantActivations::quantize(&x, 8);
        let qw = FixedWeights::quantize(&w, 4);

        // Reference: float conv of the dequantized values.
        let (reference, _) = conv2d_forward(
            &qa.dequantize(),
            &qw.dequantize(),
            &Tensor::zeros(&[4]),
            1,
            1,
            false,
        );
        let (out, counts) = fixed_point_conv(&qa, &qw, 1, 1);
        assert!(
            out.allclose(&reference, 1e-4),
            "integer and float paths diverge"
        );
        assert!(counts.int_mults > 0);
        assert_eq!(counts.int_mults, counts.int_adds);

        // The lowered path and the interpreted oracle are bit-identical.
        let (oracle, oracle_counts) = fixed_point_conv_reference(&qa, &qw, 1, 1);
        assert_eq!(out.as_slice(), oracle.as_slice(), "lowered != oracle");
        assert_eq!(counts, oracle_counts, "lowered counts != oracle counts");
    }

    #[test]
    fn stride_and_padding_variants_match() {
        let mut rng = TensorRng::seed(6);
        for &(s, p) in &[(1usize, 0usize), (2, 1), (1, 1)] {
            let x = uniform(&mut rng, &[1, 2, 7, 7], -1.0, 1.0);
            let w = uniform(&mut rng, &[3, 2, 3, 3], -0.5, 0.5);
            let qa = QuantActivations::quantize(&x, 8);
            let qw = FixedWeights::quantize(&w, 4);
            let (reference, _) = conv2d_forward(
                &qa.dequantize(),
                &qw.dequantize(),
                &Tensor::zeros(&[3]),
                s,
                p,
                false,
            );
            let (out, counts) = fixed_point_conv(&qa, &qw, s, p);
            assert!(out.allclose(&reference, 1e-4), "s={s} p={p}");

            let (oracle, oracle_counts) = fixed_point_conv_reference(&qa, &qw, s, p);
            assert_eq!(
                out.as_slice(),
                oracle.as_slice(),
                "s={s} p={p}: lowered != oracle"
            );
            assert_eq!(counts, oracle_counts, "s={s} p={p}: counts diverge");
        }
    }

    #[test]
    fn weight_codes_respect_bit_width() {
        let mut rng = TensorRng::seed(7);
        let w = uniform(&mut rng, &[2, 2, 3, 3], -1.0, 1.0);
        let qw = FixedWeights::quantize(&w, 4);
        assert!(qw.codes.iter().all(|&c| c.abs() <= 7));
    }

    #[test]
    fn lowering_stats_count_dense_taps() {
        let mut rng = TensorRng::seed(8);
        let w = uniform(&mut rng, &[2, 3, 3, 3], -1.0, 1.0);
        let qw = FixedWeights::quantize(&w, 4);
        let geom = Conv2dGeometry::new(3, 8, 8, 3, 1, 1);
        let stats = qw.lowering_stats(&geom);
        assert_eq!(stats.total_taps, 2 * 3 * 3 * 3);
        assert_eq!(stats.filters, 2);
        assert_eq!(stats.mean_taps_per_filter(), 27.0);
    }
}
