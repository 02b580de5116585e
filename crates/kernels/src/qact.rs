//! Integer activation planes.

use flight_tensor::Tensor;
use flightnn::quant::{dequantize_per_image, fixed_point_qmax, quantize_per_image};

/// A batch of activations quantized to signed integers with one scale
/// per image: `x ≈ codes[i] · scales[b]` for element `i` of image `b`.
///
/// The same quantization as `flightnn::layers::ActQuant` and the
/// engine's conv inputs — one call of `flightnn::quant::quantize_per_image`
/// (symmetric, per-image dynamic range) — but keeps the integer codes so
/// the integer kernels can consume them directly.
///
/// # Example
///
/// ```
/// use flight_kernels::QuantActivations;
/// use flight_tensor::Tensor;
///
/// let x = Tensor::from_vec(vec![1.0, -0.5, 0.25, 0.0, 1.0, -4.0], &[2, 3]);
/// let q = QuantActivations::quantize(&x, 8);
/// assert_eq!(q.codes()[0], 127);
/// assert_eq!(q.codes()[5], -127);
/// assert_eq!(q.scales(), [1.0 / 127.0, 4.0 / 127.0]);
/// let back = q.dequantize();
/// assert!(back.allclose(&x, 2.0 / 127.0));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct QuantActivations {
    codes: Vec<i32>,
    scales: Vec<f32>,
    dims: Vec<usize>,
}

impl QuantActivations {
    /// Quantizes a `[n, …]` float batch to `bits` (sign included), image
    /// `b` with its own scale `max|x_b| / (2^{bits−1} − 1)`.
    ///
    /// # Panics
    ///
    /// Panics if `bits < 2` or `x` has no dims.
    pub fn quantize(x: &Tensor, bits: u32) -> Self {
        let mut codes = Vec::new();
        let mut scales = Vec::new();
        quantize_per_image(x, bits, &mut codes, &mut scales, |c, _| c);
        QuantActivations {
            codes,
            scales,
            dims: x.dims().to_vec(),
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
        let qmax = fixed_point_qmax(bits);
        codes.iter().filter(|c| c.abs() >= qmax).count() as u64
    }

    /// The per-image scales, one per entry of `dims[0]`.
    pub fn scales(&self) -> &[f32] {
        &self.scales
    }

    /// Original tensor dims.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Reconstructs the float tensor `codes · scales[b]`.
    pub fn dequantize(&self) -> Tensor {
        Tensor::from_vec(dequantize_per_image(&self.codes, &self.scales), &self.dims)
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
        for (b, &step) in q.scales().iter().enumerate() {
            for (&a, &r) in x.outer(b).iter().zip(back.outer(b)) {
                assert!((a - r).abs() <= step / 2.0 + 1e-6);
            }
        }
    }

    #[test]
    fn codes_stay_in_range() {
        let mut rng = TensorRng::seed(2);
        let x = uniform(&mut rng, &[2, 64], -5.0, 5.0);
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
        let x = uniform(&mut rng, &[3, 32], -1.5, 1.5);
        let mut aq = flightnn::layers::ActQuant::new(8);
        let reference = aq.forward(&x, false);
        let q = QuantActivations::quantize(&x, 8).dequantize();
        assert_eq!(q.as_slice(), reference.as_slice());
    }

    #[test]
    fn zero_tensor_is_stable() {
        let q = QuantActivations::quantize(&Tensor::zeros(&[1, 4]), 8);
        assert!(q.codes().iter().all(|&c| c == 0));
        assert_eq!(q.scales(), [1.0]);
    }

    #[test]
    fn per_image_matches_quantizing_each_image_alone() {
        let mut rng = TensorRng::seed(12);
        let x = uniform(&mut rng, &[3, 2, 4, 4], -2.0, 2.0);
        let batch = QuantActivations::quantize(&x, 8);
        assert_eq!(batch.scales().len(), 3);
        assert_eq!(batch.codes().len(), x.len());
        let stride = x.len() / 3;
        for b in 0..3 {
            let img = Tensor::from_vec(x.outer(b).to_vec(), &[1, 2, 4, 4]);
            let solo = QuantActivations::quantize(&img, 8);
            assert_eq!(batch.scales()[b], solo.scales()[0], "image {b} scale");
            assert_eq!(
                &batch.codes()[b * stride..(b + 1) * stride],
                solo.codes(),
                "image {b} codes"
            );
        }
    }

    #[test]
    fn saturation_counts_codes_at_the_rail() {
        // Dynamic scale: the max-magnitude element always sits on the
        // rail, so a well-spread image has exactly the extremes there.
        let x = Tensor::from_vec(vec![1.0, -1.0, 0.5, 0.25, 0.0], &[1, 5]);
        let q = QuantActivations::quantize(&x, 8);
        assert_eq!(QuantActivations::saturation_count(q.codes(), 8), 2);
        // A heavy-tailed image pins only its outlier.
        let y = Tensor::from_vec(vec![100.0, 0.1, 0.2, 0.05], &[1, 4]);
        let qy = QuantActivations::quantize(&y, 8);
        assert_eq!(QuantActivations::saturation_count(qy.codes(), 8), 1);
        // All-zero codes never saturate.
        let z = QuantActivations::quantize(&Tensor::zeros(&[1, 4]), 8);
        assert_eq!(QuantActivations::saturation_count(z.codes(), 8), 0);
        // At 2 bits the rail is ±1, so most nonzero codes sit on it.
        let q2 = QuantActivations::quantize(&x, 2);
        assert_eq!(QuantActivations::saturation_count(q2.codes(), 2), 3);
    }

    #[test]
    fn per_image_handles_empty_batch_and_zero_images() {
        let empty = QuantActivations::quantize(&Tensor::zeros(&[0, 2, 2]), 8);
        assert!(empty.codes().is_empty());
        assert!(empty.scales().is_empty());
        let zeros = QuantActivations::quantize(&Tensor::zeros(&[2, 3]), 8);
        assert_eq!(zeros.scales(), [1.0, 1.0], "all-zero images keep scale 1");
        assert!(zeros.codes().iter().all(|&c| c == 0));
        assert_eq!(zeros.dequantize(), Tensor::zeros(&[2, 3]));
    }
}
