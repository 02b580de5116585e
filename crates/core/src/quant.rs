//! The thresholded quantization function `Q_k(w_i | t)` of §4.1.
//!
//! For each convolutional filter `w_i` the quantizer walks up to `k`
//! residual levels (Fig. 2): at level `j` it compares the residual norm
//! `‖r_{i,j}‖₂` to the trainable threshold `t_j`; if the residual is
//! still large, it adds the elementwise power-of-two rounding
//! `R(r_{i,j})` to the output and continues. The number of levels that
//! fire is the filter's shift count `k_i`.

use flight_tensor::Tensor;
use serde::{Deserialize, Serialize};

use crate::pow2::ExponentWindow;

/// How indicator failures interact across levels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum QuantMode {
    /// Stop at the first failing threshold, as drawn in the paper's
    /// Fig. 2 flow chart. This is the primary mode.
    #[default]
    Cascade,
    /// Evaluate every level's indicator independently, as the summation
    /// in the §4.1 formula reads literally. Kept for the ablation bench
    /// (`DESIGN.md` §3).
    IndependentSum,
}

/// Everything the backward pass (and the regularizer) needs to know about
/// how one filter was quantized.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FilterTrace {
    /// Residual vectors `r_{i,j}` entering each level, `j = 0..k`.
    pub residuals: Vec<Vec<f32>>,
    /// Residual L2 norms `‖r_{i,j}‖₂` entering each level.
    pub norms: Vec<f32>,
    /// Elementwise rounding `R(r_{i,j})` at each level.
    pub rounded: Vec<Vec<f32>>,
    /// Hard indicator outcome at each level.
    pub active: Vec<bool>,
    /// Number of levels that fired — the filter's shift count `k_i`.
    pub ki: usize,
}

/// The per-filter thresholded quantizer (`Q_k(w_i | t)`).
///
/// # Example
///
/// ```
/// use flightnn::quant::{QuantMode, ThresholdQuantizer};
/// use flightnn::pow2::ExponentWindow;
///
/// let q = ThresholdQuantizer::new(2, QuantMode::Cascade);
/// let w = [0.75f32, -0.3, 0.1, 0.0];
/// let win = ExponentWindow::fit(&w);
/// // Thresholds at zero: every level fires (norms are positive).
/// let (qw, trace) = q.quantize_filter(&w, &[0.0, 0.0], &win);
/// assert_eq!(trace.ki, 2);
/// assert_eq!(qw.len(), 4);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ThresholdQuantizer {
    /// Maximum shift count `k` (the paper uses 2).
    pub k_max: usize,
    /// Cascade or independent indicators.
    pub mode: QuantMode,
}

impl ThresholdQuantizer {
    /// Creates a quantizer with maximum shift count `k_max`.
    ///
    /// # Panics
    ///
    /// Panics if `k_max == 0`.
    pub fn new(k_max: usize, mode: QuantMode) -> Self {
        assert!(k_max > 0, "k_max must be at least 1");
        ThresholdQuantizer { k_max, mode }
    }

    /// Quantizes one filter given thresholds `t` (`t.len() == k_max`).
    ///
    /// Returns the quantized coefficients and the full trace.
    ///
    /// # Panics
    ///
    /// Panics if `t.len() != k_max`.
    pub fn quantize_filter(
        &self,
        w: &[f32],
        t: &[f32],
        window: &ExponentWindow,
    ) -> (Vec<f32>, FilterTrace) {
        assert_eq!(
            t.len(),
            self.k_max,
            "expected {} thresholds, got {}",
            self.k_max,
            t.len()
        );
        let mut q = vec![0.0f32; w.len()];
        let mut residual: Vec<f32> = w.to_vec();
        let mut trace = FilterTrace {
            residuals: Vec::with_capacity(self.k_max),
            norms: Vec::with_capacity(self.k_max),
            rounded: Vec::with_capacity(self.k_max),
            active: Vec::with_capacity(self.k_max),
            ki: 0,
        };
        let mut stopped = false;

        for &tj in t {
            let norm = l2(&residual);
            let rounded: Vec<f32> = residual.iter().map(|&x| window.round(x)).collect();
            let fires = norm > tj
                && match self.mode {
                    QuantMode::Cascade => !stopped,
                    QuantMode::IndependentSum => true,
                };
            trace.residuals.push(residual.clone());
            trace.norms.push(norm);
            trace.rounded.push(rounded.clone());
            trace.active.push(fires);

            if fires {
                trace.ki += 1;
                for (qi, &ri) in q.iter_mut().zip(&rounded) {
                    *qi += ri;
                }
                for (ri, (&wi, &qi)) in residual.iter_mut().zip(w.iter().zip(q.iter())) {
                    *ri = wi - qi;
                }
            } else if matches!(self.mode, QuantMode::Cascade) {
                stopped = true;
            }
        }
        (q, trace)
    }

    /// Quantizes a weight tensor per filter (axis 0), fitting one exponent
    /// window to the whole tensor (per-layer scaling).
    ///
    /// Returns the quantized tensor, one trace per filter, and the window
    /// used.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is rank 0 or `t.len() != k_max`.
    pub fn quantize_tensor(
        &self,
        weights: &Tensor,
        t: &[f32],
    ) -> (Tensor, Vec<FilterTrace>, ExponentWindow) {
        assert!(weights.shape().rank() >= 1, "weights need a filter axis");
        let window = ExponentWindow::fit(weights.as_slice());
        let filters = weights.dims()[0];
        let mut q = Tensor::zeros(weights.dims());
        let mut traces = Vec::with_capacity(filters);
        for i in 0..filters {
            let (qf, trace) = self.quantize_filter(weights.outer(i), t, &window);
            q.outer_mut(i).copy_from_slice(&qf);
            traces.push(trace);
        }
        (q, traces, window)
    }
}

/// Plain LightNN-`k` quantization: every weight becomes a sum of up to `k`
/// powers of two, no thresholds (§3).
///
/// # Panics
///
/// Panics if `k == 0`.
pub fn quantize_lightnn(weights: &Tensor, k: usize) -> Tensor {
    assert!(k > 0, "k must be at least 1");
    let window = ExponentWindow::fit(weights.as_slice());
    weights.map(|x| {
        let mut q = 0.0f32;
        let mut residual = x;
        for _ in 0..k {
            let r = window.round(residual);
            if r == 0.0 {
                break;
            }
            q += r;
            residual = x - q;
        }
        q
    })
}

/// The largest code of the symmetric `bits`-bit grid (one bit is the
/// sign): `2^{bits−1} − 1`.
///
/// # Panics
///
/// Panics if `bits < 2`.
pub fn fixed_point_qmax(bits: u32) -> i32 {
    assert!(bits >= 2, "fixed point needs at least 2 bits");
    ((1u32 << (bits - 1)) - 1) as i32
}

/// The one symmetric fixed-point quantizer: every weight and activation
/// quantization in the workspace calls it.
///
/// Quantizes `slab` onto the `bits`-bit grid of its own scale
/// `s = max|x| / qmax` (`s = 1` when the slab is all zero): each value
/// becomes the code `clamp(round(x/s), ±qmax)`, and `emit(code, s)`
/// maps it to what is pushed onto `out` — the code itself for an
/// integer kernel, [`dequantize`] for the float path. One scan, one
/// write pass. Returns `s`.
///
/// # Panics
///
/// Panics if `bits < 2`.
pub fn quantize_slab<T>(
    slab: &[f32],
    bits: u32,
    out: &mut Vec<T>,
    emit: impl Fn(i32, f32) -> T,
) -> f32 {
    let qmax = fixed_point_qmax(bits) as f32;
    let max = slab.iter().fold(0.0f32, |m, &v| m.max(v.abs()));
    let scale = if max == 0.0 { 1.0 } else { max / qmax };
    out.extend(
        slab.iter()
            .map(|&v| emit((v / scale).round().clamp(-qmax, qmax) as i32, scale)),
    );
    scale
}

/// The value code `code` stands for on a grid of scale `scale`. Every
/// dequantization, float or engine, goes through it, so a zero code is
/// always `+0.0`.
#[inline]
pub fn dequantize(code: i32, scale: f32) -> f32 {
    code as f32 * scale
}

/// Quantizes each image of a `[n, …]` batch (any rank; `dims[0]` is the
/// batch) with [`quantize_slab`] on its own scale: image `b`'s scale
/// lands in `scales[b]` and its emitted codes in
/// `out[b·stride .. (b+1)·stride]`, `stride = x.len() / n`. Both
/// buffers are cleared first, so a caller can reuse them across calls.
///
/// Per-image scales make each image's quantization independent of its
/// batchmates: an image quantizes the same alone, inside any batch, and
/// in any chunk of a split batch — in training, in float eval and in
/// the integer engine alike.
///
/// # Panics
///
/// Panics if `bits < 2` or `x` has no dims.
pub fn quantize_per_image<T>(
    x: &Tensor,
    bits: u32,
    out: &mut Vec<T>,
    scales: &mut Vec<f32>,
    emit: impl Fn(i32, f32) -> T,
) {
    assert!(!x.dims().is_empty(), "batch tensor needs a leading dim");
    let n = x.dims()[0];
    let stride = x.len().checked_div(n).unwrap_or(0);
    let data = x.as_slice();
    out.clear();
    out.reserve(data.len());
    scales.clear();
    scales.reserve(n);
    for b in 0..n {
        let slab = &data[b * stride..(b + 1) * stride];
        scales.push(quantize_slab(slab, bits, out, &emit));
    }
}

/// The float values of per-image `codes` under `scales` (the inverse
/// layout of [`quantize_per_image`]).
pub fn dequantize_per_image(codes: &[i32], scales: &[f32]) -> Vec<f32> {
    let stride = codes.len().checked_div(scales.len()).unwrap_or(0);
    let mut values = Vec::with_capacity(codes.len());
    for (image, &s) in codes.chunks(stride.max(1)).zip(scales) {
        values.extend(image.iter().map(|&c| dequantize(c, s)));
    }
    values
}

/// Symmetric uniform fixed-point quantization of a weight tensor with
/// `bits` bits (one of them the sign) and one per-tensor scale `s`:
/// `w_q = clamp(round(w/s), ±(2^{bits−1}−1)) · s` ([`quantize_slab`]).
///
/// Returns the quantized tensor and the scale.
///
/// # Panics
///
/// Panics if `bits < 2`.
pub fn quantize_fixed_point(weights: &Tensor, bits: u32) -> (Tensor, f32) {
    let mut q = Vec::with_capacity(weights.len());
    let scale = quantize_slab(weights.as_slice(), bits, &mut q, dequantize);
    (Tensor::from_vec(q, weights.dims()), scale)
}

fn l2(v: &[f32]) -> f32 {
    v.iter()
        .map(|&x| (x as f64) * (x as f64))
        .sum::<f64>()
        .sqrt() as f32
}

#[cfg(test)]
mod tests {
    use super::*;
    use flight_tensor::{uniform, TensorRng};
    use proptest::prelude::*;

    fn quantizer(k: usize) -> ThresholdQuantizer {
        ThresholdQuantizer::new(k, QuantMode::Cascade)
    }

    #[test]
    fn zero_thresholds_fire_all_levels() {
        let w = [0.5f32, -0.25, 0.1];
        let win = ExponentWindow::fit(&w);
        let (_, trace) = quantizer(2).quantize_filter(&w, &[0.0, 0.0], &win);
        assert_eq!(trace.ki, 2);
        assert!(trace.active.iter().all(|&a| a));
    }

    #[test]
    fn huge_t0_prunes_the_filter() {
        let w = [0.5f32, -0.25];
        let win = ExponentWindow::fit(&w);
        let (q, trace) = quantizer(2).quantize_filter(&w, &[100.0, 0.0], &win);
        assert_eq!(trace.ki, 0);
        assert!(q.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn cascade_stops_at_first_failure() {
        // t1 huge: level 1 fails. In cascade mode nothing after it can fire
        // even if we had k=3 with t2 = 0.
        let w = [0.7f32, -0.4, 0.2, 0.05];
        let win = ExponentWindow::fit(&w);
        let q3 = ThresholdQuantizer::new(3, QuantMode::Cascade);
        let (_, trace) = q3.quantize_filter(&w, &[0.0, 100.0, 0.0], &win);
        assert_eq!(trace.active, vec![true, false, false]);
        assert_eq!(trace.ki, 1);
    }

    #[test]
    fn independent_mode_can_skip_levels() {
        let w = [0.7f32, -0.4, 0.2, 0.05];
        let win = ExponentWindow::fit(&w);
        let q3 = ThresholdQuantizer::new(3, QuantMode::IndependentSum);
        let (_, trace) = q3.quantize_filter(&w, &[0.0, 100.0, 0.0], &win);
        // Level 1 fails but level 2 sees the same residual and fires.
        assert_eq!(trace.active, vec![true, false, true]);
        assert_eq!(trace.ki, 2);
    }

    #[test]
    fn quantized_values_are_sums_of_ki_powers() {
        let mut rng = TensorRng::seed(5);
        let w = uniform(&mut rng, &[4, 8], -1.0, 1.0);
        let (q, traces, win) = quantizer(2).quantize_tensor(&w, &[0.0, 0.0]);
        for (i, trace) in traces.iter().enumerate() {
            assert_eq!(trace.ki, 2);
            for &v in q.outer(i) {
                // Every quantized coefficient must be expressible as the sum
                // of at most 2 windowed powers of two.
                let back = crate::pow2::Pow2Weight::decompose(v, 2, &win).value();
                assert!(
                    (back - v).abs() < 1e-6,
                    "{v} is not a 2-term power-of-two sum"
                );
            }
        }
    }

    #[test]
    fn residual_norms_decrease_across_active_levels() {
        let mut rng = TensorRng::seed(6);
        let w = uniform(&mut rng, &[1, 32], -2.0, 2.0);
        let (_, traces, _) = quantizer(2).quantize_tensor(&w, &[0.0, 0.0]);
        let t = &traces[0];
        assert!(
            t.norms[1] < t.norms[0],
            "second-level residual must shrink: {:?}",
            t.norms
        );
    }

    #[test]
    fn lightnn_matches_zero_threshold_quantizer() {
        let mut rng = TensorRng::seed(7);
        let w = uniform(&mut rng, &[3, 16], -1.5, 1.5);
        let l2q = quantize_lightnn(&w, 2);
        let (qt, _, _) = quantizer(2).quantize_tensor(&w, &[0.0, 0.0]);
        assert!(l2q.allclose(&qt, 1e-6));
    }

    #[test]
    fn fixed_point_error_bounded_by_half_step() {
        let mut rng = TensorRng::seed(8);
        let w = uniform(&mut rng, &[64], -1.0, 1.0);
        let (q, scale) = quantize_fixed_point(&w, 4);
        for (&orig, &quant) in w.as_slice().iter().zip(q.as_slice()) {
            assert!(
                (orig - quant).abs() <= scale / 2.0 + 1e-6,
                "|{orig} - {quant}| > {}/2",
                scale
            );
        }
    }

    #[test]
    fn fixed_point_handles_all_zero() {
        let (q, scale) = quantize_fixed_point(&Tensor::zeros(&[4]), 4);
        assert_eq!(q.sum(), 0.0);
        assert_eq!(scale, 1.0);
    }

    #[test]
    fn per_image_quantizer_clears_its_buffers_and_scales_each_image() {
        let x = Tensor::from_vec(vec![1.0, -0.25, 0.0, 0.0, 4.0, -1.0], &[3, 2]);
        let mut codes = vec![9; 7]; // stale codes must go
        let mut scales = vec![0.5];
        quantize_per_image(&x, 8, &mut codes, &mut scales, |c, _| c);
        assert_eq!(codes, [127, -32, 0, 0, 127, -32]);
        assert_eq!(scales, [1.0 / 127.0, 1.0, 4.0 / 127.0]);
        let (s0, s2) = (scales[0], scales[2]);
        assert_eq!(
            dequantize_per_image(&codes, &scales),
            [127.0 * s0, -32.0 * s0, 0.0, 0.0, 127.0 * s2, -32.0 * s2]
        );
    }

    #[test]
    fn dequantized_zeros_are_positive() {
        let mut values = Vec::new();
        quantize_slab(&[-1e-6, 1.0], 8, &mut values, dequantize);
        assert_eq!(values[0].to_bits(), 0.0f32.to_bits());
    }

    #[test]
    #[should_panic(expected = "thresholds")]
    fn rejects_wrong_threshold_count() {
        let w = [1.0f32];
        let win = ExponentWindow::fit(&w);
        quantizer(2).quantize_filter(&w, &[0.0], &win);
    }

    proptest! {
        #[test]
        fn ki_is_monotone_in_t0(seed in 0u64..500, t0 in 0.0f32..5.0) {
            let mut rng = TensorRng::seed(seed);
            let w = uniform(&mut rng, &[1, 12], -1.0, 1.0);
            let q = quantizer(2);
            let (_, a, _) = q.quantize_tensor(&w, &[t0, 0.0]);
            let (_, b, _) = q.quantize_tensor(&w, &[t0 + 0.5, 0.0]);
            // Raising a threshold can only reduce the shift count.
            prop_assert!(b[0].ki <= a[0].ki);
        }

        #[test]
        fn quantization_error_bounded(seed in 0u64..200) {
            let mut rng = TensorRng::seed(seed);
            let w = uniform(&mut rng, &[2, 16], -1.0, 1.0);
            let (q, _, _) = quantizer(2).quantize_tensor(&w, &[0.0, 0.0]);
            // Two active levels leave at most ~(sqrt(2)-1)^2 relative error
            // per coefficient (each level shrinks log-space error), plus
            // window underflow for tiny values. Check a loose global bound.
            let err = q.sq_distance(&w).sqrt();
            let norm = w.norm_l2();
            prop_assert!(err <= norm * 0.25 + 0.05, "err {err} vs norm {norm}");
        }

        #[test]
        fn lightnn_k2_no_worse_than_k1(seed in 0u64..200) {
            let mut rng = TensorRng::seed(seed);
            let w = uniform(&mut rng, &[32], -2.0, 2.0);
            let e1 = quantize_lightnn(&w, 1).sq_distance(&w);
            let e2 = quantize_lightnn(&w, 2).sq_distance(&w);
            prop_assert!(e2 <= e1 + 1e-6);
        }
    }
}
