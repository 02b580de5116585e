//! Integer activation planes.

use flight_tensor::Tensor;

/// A batch of activations quantized to signed integers with one shared
/// scale: `x ≈ data[i] · scale`.
///
/// Matches the semantics of `flightnn::layers::ActQuant` (symmetric,
/// per-tensor dynamic range), but keeps the integer codes so the integer
/// kernels can consume them directly.
///
/// # Example
///
/// ```
/// use flight_kernels::QuantActivations;
/// use flight_tensor::Tensor;
///
/// let x = Tensor::from_slice(&[1.0, -0.5, 0.25]);
/// let q = QuantActivations::quantize(&x, 8);
/// assert_eq!(q.codes()[0], 127);
/// let back = q.dequantize();
/// assert!(back.allclose(&x, 1.0 / 127.0));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct QuantActivations {
    codes: Vec<i32>,
    scale: f32,
    dims: Vec<usize>,
}

impl QuantActivations {
    /// Quantizes a float tensor to `bits` (sign included) with a
    /// per-tensor scale `max|x| / (2^{bits−1} − 1)`.
    ///
    /// # Panics
    ///
    /// Panics if `bits < 2`.
    pub fn quantize(x: &Tensor, bits: u32) -> Self {
        assert!(bits >= 2, "activation quantization needs at least 2 bits");
        let qmax = ((1u32 << (bits - 1)) - 1) as f32;
        let max = x.abs_max();
        let scale = if max == 0.0 { 1.0 } else { max / qmax };
        let codes = x
            .as_slice()
            .iter()
            .map(|&v| (v / scale).round().clamp(-qmax, qmax) as i32)
            .collect();
        QuantActivations {
            codes,
            scale,
            dims: x.dims().to_vec(),
        }
    }

    /// Quantizes one contiguous slab into a caller-owned code buffer and
    /// returns the scale. `codes` is cleared first, so a worker can reuse
    /// one buffer across stages without reallocating — the scratch-arena
    /// path of the batched execution engine.
    ///
    /// # Panics
    ///
    /// Panics if `bits < 2`.
    pub fn quantize_slice_into(x: &[f32], bits: u32, codes: &mut Vec<i32>) -> f32 {
        assert!(bits >= 2, "activation quantization needs at least 2 bits");
        let qmax = ((1u32 << (bits - 1)) - 1) as f32;
        let max = x.iter().fold(0.0f32, |m, &v| m.max(v.abs()));
        let scale = if max == 0.0 { 1.0 } else { max / qmax };
        codes.clear();
        codes.reserve(x.len());
        codes.extend(
            x.iter()
                .map(|&v| (v / scale).round().clamp(-qmax, qmax) as i32),
        );
        scale
    }

    /// Quantizes each image of a `[n, …]` batch independently: image `b`
    /// gets its own scale `max|x_b| / (2^{bits−1} − 1)` in `scales[b]`,
    /// and its codes land in `codes[b·stride .. (b+1)·stride]` where
    /// `stride = x.len() / n`. Both buffers are cleared and refilled.
    ///
    /// Per-image scales make each image's integer pipeline independent of
    /// its batchmates, which is what lets a batch be split into chunks
    /// (or merged from several requests) and still produce logits
    /// bit-identical to the whole batch (and to submitting the image
    /// alone).
    ///
    /// # Panics
    ///
    /// Panics if `bits < 2` or `x` has no dims.
    pub fn quantize_per_image_into(
        x: &Tensor,
        bits: u32,
        codes: &mut Vec<i32>,
        scales: &mut Vec<f32>,
    ) {
        assert!(bits >= 2, "activation quantization needs at least 2 bits");
        assert!(!x.dims().is_empty(), "batch tensor needs a leading dim");
        let n = x.dims()[0];
        let qmax = ((1u32 << (bits - 1)) - 1) as f32;
        let stride = x.len().checked_div(n).unwrap_or(0);
        let data = x.as_slice();
        codes.clear();
        codes.reserve(data.len());
        scales.clear();
        scales.reserve(n);
        for b in 0..n {
            let slab = &data[b * stride..(b + 1) * stride];
            let max = slab.iter().fold(0.0f32, |m, &v| m.max(v.abs()));
            let scale = if max == 0.0 { 1.0 } else { max / qmax };
            scales.push(scale);
            codes.extend(
                slab.iter()
                    .map(|&v| (v / scale).round().clamp(-qmax, qmax) as i32),
            );
        }
    }

    /// The integer codes, row-major.
    pub fn codes(&self) -> &[i32] {
        &self.codes
    }

    /// Counts codes sitting at the representable rail `±(2^{bits−1}−1)`.
    ///
    /// With a dynamic per-image scale the clamp in quantization never
    /// truncates — the max-magnitude value lands exactly on the rail —
    /// so this measures how much of the tensor is pinned at the extreme
    /// code, not how much was cut off. A high rail rate means the
    /// distribution has heavy tails relative to the grid (one outlier is
    /// stretching the scale), which is the activation-quantization
    /// failure mode `flightctl health` watches through the
    /// `kernel.qact.<stage>.saturated` counters.
    ///
    /// # Panics
    ///
    /// Panics if `bits < 2`.
    pub fn saturation_count(codes: &[i32], bits: u32) -> u64 {
        assert!(bits >= 2, "activation quantization needs at least 2 bits");
        let qmax = ((1u32 << (bits - 1)) - 1) as i32;
        codes.iter().filter(|c| c.abs() >= qmax).count() as u64
    }

    /// The shared scale.
    pub fn scale(&self) -> f32 {
        self.scale
    }

    /// Original tensor dims.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Reconstructs the float tensor `codes · scale`.
    pub fn dequantize(&self) -> Tensor {
        Tensor::from_vec(
            self.codes.iter().map(|&c| c as f32 * self.scale).collect(),
            &self.dims,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flight_tensor::{uniform, TensorRng};

    #[test]
    fn round_trip_error_is_within_half_step() {
        let mut rng = TensorRng::seed(1);
        let x = uniform(&mut rng, &[2, 3, 4, 4], -2.0, 2.0);
        let q = QuantActivations::quantize(&x, 8);
        let back = q.dequantize();
        let step = q.scale();
        for (&a, &b) in x.as_slice().iter().zip(back.as_slice()) {
            assert!((a - b).abs() <= step / 2.0 + 1e-6);
        }
    }

    #[test]
    fn codes_stay_in_range() {
        let mut rng = TensorRng::seed(2);
        let x = uniform(&mut rng, &[64], -5.0, 5.0);
        for bits in [2u32, 4, 8] {
            let q = QuantActivations::quantize(&x, bits);
            let qmax = (1i32 << (bits - 1)) - 1;
            assert!(q.codes().iter().all(|&c| c.abs() <= qmax));
        }
    }

    #[test]
    fn matches_flightnn_act_quant() {
        use flight_nn::Layer;
        let mut rng = TensorRng::seed(3);
        let x = uniform(&mut rng, &[32], -1.5, 1.5);
        let mut aq = flightnn::layers::ActQuant::new(8);
        let reference = aq.forward(&x, false);
        let q = QuantActivations::quantize(&x, 8).dequantize();
        assert!(q.allclose(&reference, 1e-6));
    }

    #[test]
    fn zero_tensor_is_stable() {
        let q = QuantActivations::quantize(&Tensor::zeros(&[4]), 8);
        assert!(q.codes().iter().all(|&c| c == 0));
        assert_eq!(q.scale(), 1.0);
    }

    #[test]
    fn slice_into_matches_quantize_and_reuses_buffer() {
        let mut rng = TensorRng::seed(11);
        let x = uniform(&mut rng, &[1, 3, 4, 4], -1.5, 1.5);
        let reference = QuantActivations::quantize(&x, 8);
        let mut codes = vec![99; 3]; // stale garbage must be cleared
        let scale = QuantActivations::quantize_slice_into(x.as_slice(), 8, &mut codes);
        assert_eq!(scale, reference.scale());
        assert_eq!(codes, reference.codes());
    }

    #[test]
    fn per_image_matches_quantizing_each_image_alone() {
        let mut rng = TensorRng::seed(12);
        let x = uniform(&mut rng, &[3, 2, 4, 4], -2.0, 2.0);
        let mut codes = Vec::new();
        let mut scales = Vec::new();
        QuantActivations::quantize_per_image_into(&x, 8, &mut codes, &mut scales);
        assert_eq!(scales.len(), 3);
        assert_eq!(codes.len(), x.len());
        let stride = x.len() / 3;
        for b in 0..3 {
            let img = Tensor::from_vec(x.outer(b).to_vec(), &[1, 2, 4, 4]);
            let solo = QuantActivations::quantize(&img, 8);
            assert_eq!(scales[b], solo.scale(), "image {b} scale");
            assert_eq!(
                &codes[b * stride..(b + 1) * stride],
                solo.codes(),
                "image {b} codes"
            );
        }
    }

    #[test]
    fn saturation_counts_codes_at_the_rail() {
        // Dynamic scale: the max-magnitude element always sits on the
        // rail, so a well-spread tensor has exactly the extremes there.
        let x = Tensor::from_slice(&[1.0, -1.0, 0.5, 0.25, 0.0]);
        let q = QuantActivations::quantize(&x, 8);
        assert_eq!(QuantActivations::saturation_count(q.codes(), 8), 2);
        // A heavy-tailed tensor pins only its outlier.
        let y = Tensor::from_slice(&[100.0, 0.1, 0.2, 0.05]);
        let qy = QuantActivations::quantize(&y, 8);
        assert_eq!(QuantActivations::saturation_count(qy.codes(), 8), 1);
        // All-zero codes never saturate.
        let z = QuantActivations::quantize(&Tensor::zeros(&[4]), 8);
        assert_eq!(QuantActivations::saturation_count(z.codes(), 8), 0);
        // At 2 bits the rail is ±1, so most nonzero codes sit on it.
        let q2 = QuantActivations::quantize(&x, 2);
        assert_eq!(QuantActivations::saturation_count(q2.codes(), 2), 3);
    }

    #[test]
    fn per_image_handles_empty_batch_and_zero_images() {
        let mut codes = vec![1, 2];
        let mut scales = vec![0.5];
        QuantActivations::quantize_per_image_into(
            &Tensor::zeros(&[0, 2, 2]),
            8,
            &mut codes,
            &mut scales,
        );
        assert!(codes.is_empty());
        assert!(scales.is_empty());
        QuantActivations::quantize_per_image_into(
            &Tensor::zeros(&[2, 3]),
            8,
            &mut codes,
            &mut scales,
        );
        assert_eq!(scales, vec![1.0, 1.0], "all-zero images keep scale 1");
        assert!(codes.iter().all(|&c| c == 0));
    }
}
