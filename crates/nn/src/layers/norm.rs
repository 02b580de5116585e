//! Batch normalization.

use flight_tensor::Tensor;

use crate::layer::{Layer, Param};

/// 2-D batch normalization over `[n, c, h, w]` activations.
///
/// Normalizes each channel over the batch and spatial axes with learned
/// scale (`gamma`) and shift (`beta`), maintaining running statistics for
/// inference — the paper attaches one of these after every convolution
/// (§5.1).
///
/// # Example
///
/// ```
/// use flight_nn::layers::BatchNorm2d;
/// use flight_nn::Layer;
/// use flight_tensor::{uniform, TensorRng};
///
/// let mut rng = TensorRng::seed(0);
/// let mut bn = BatchNorm2d::new(4);
/// let x = uniform(&mut rng, &[8, 4, 3, 3], -3.0, 5.0);
/// let y = bn.forward(&x, true);
/// // Each channel of the training output is standardized.
/// assert!(y.mean().abs() < 1e-4);
/// ```
#[derive(Debug, Clone)]
pub struct BatchNorm2d {
    gamma: Param,
    beta: Param,
    running_mean: Tensor,
    running_var: Tensor,
    momentum: f32,
    eps: f32,
    cache: Option<BnCache>,
}

#[derive(Debug, Clone)]
struct BnCache {
    xhat: Tensor,
    inv_std: Vec<f32>, // per channel
}

impl BatchNorm2d {
    /// Creates a batch-norm layer for `channels` feature maps.
    ///
    /// # Panics
    ///
    /// Panics if `channels == 0`.
    pub fn new(channels: usize) -> Self {
        assert!(channels > 0, "batchnorm needs at least one channel");
        BatchNorm2d {
            gamma: Param::new(Tensor::ones(&[channels])),
            beta: Param::new(Tensor::zeros(&[channels])),
            running_mean: Tensor::zeros(&[channels]),
            running_var: Tensor::ones(&[channels]),
            momentum: 0.1,
            eps: 1e-5,
            cache: None,
        }
    }

    /// Number of normalized channels.
    pub fn channels(&self) -> usize {
        self.gamma.value.len()
    }

    /// The learned scale (γ) parameter.
    pub fn gamma(&self) -> &Param {
        &self.gamma
    }

    /// The learned shift (β) parameter.
    pub fn beta(&self) -> &Param {
        &self.beta
    }

    /// Running mean used at inference time.
    pub fn running_mean(&self) -> &Tensor {
        &self.running_mean
    }

    /// Running variance used at inference time.
    pub fn running_var(&self) -> &Tensor {
        &self.running_var
    }

    /// Numerical-stability epsilon.
    pub fn eps(&self) -> f32 {
        self.eps
    }

    /// The eval forward as a per-channel affine `y = a·x + b`, returned
    /// as `(a, b)` over `[channels]`: what an integer pipeline folds into
    /// the preceding conv's epilogue.
    ///
    /// Both come from the eval forward's own expression at `x = 0` and
    /// `x = 1` (`b = BN(0)`, `a = BN(1) − b`), so they equal, bit for
    /// bit, what probing the layer with those inputs returns.
    pub fn eval_affine(&self) -> (Tensor, Tensor) {
        let (a, b): (Vec<f32>, Vec<f32>) = (0..self.channels())
            .map(|ch| {
                let mean = self.running_mean.as_slice()[ch];
                let inv_std = 1.0 / (self.running_var.as_slice()[ch] + self.eps).sqrt();
                let (g, b0) = (
                    self.gamma.value.as_slice()[ch],
                    self.beta.value.as_slice()[ch],
                );
                let at = |x: f32| g * ((x - mean) * inv_std) + b0;
                let b = at(0.0);
                (at(1.0) - b, b)
            })
            .unzip();
        (Tensor::from_slice(&a), Tensor::from_slice(&b))
    }

    fn check_input(&self, input: &Tensor) {
        assert_eq!(
            input.shape().rank(),
            4,
            "batchnorm input must be [n, c, h, w]"
        );
        assert_eq!(
            input.dims()[1],
            self.channels(),
            "input channels {} != batchnorm channels {}",
            input.dims()[1],
            self.channels()
        );
    }
}

impl Layer for BatchNorm2d {
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        self.check_input(input);
        let (n, c, h, w) = (
            input.dims()[0],
            input.dims()[1],
            input.dims()[2],
            input.dims()[3],
        );
        let per_channel = n * h * w;
        let plane = h * w;
        let data = input.as_slice();
        let mut out = Tensor::zeros(input.dims());

        let mut xhat = train.then(|| Tensor::zeros(input.dims()));
        let mut inv_stds = vec![0.0f32; c];

        for (ch, inv_std_slot) in inv_stds.iter_mut().enumerate() {
            let (mean, var) = if train {
                let mut sum = 0.0f64;
                let mut sq = 0.0f64;
                for b in 0..n {
                    let base = (b * c + ch) * plane;
                    for &v in &data[base..base + plane] {
                        sum += v as f64;
                        sq += (v as f64) * (v as f64);
                    }
                }
                let mean = (sum / per_channel as f64) as f32;
                let var =
                    ((sq / per_channel as f64) - (mean as f64) * (mean as f64)).max(0.0) as f32;
                // Update running statistics (biased variance, like PyTorch's
                // default track of batch stats scaled by momentum).
                self.running_mean.as_mut_slice()[ch] =
                    (1.0 - self.momentum) * self.running_mean.as_slice()[ch] + self.momentum * mean;
                self.running_var.as_mut_slice()[ch] =
                    (1.0 - self.momentum) * self.running_var.as_slice()[ch] + self.momentum * var;
                (mean, var)
            } else {
                (
                    self.running_mean.as_slice()[ch],
                    self.running_var.as_slice()[ch],
                )
            };

            let inv_std = 1.0 / (var + self.eps).sqrt();
            *inv_std_slot = inv_std;
            let g = self.gamma.value.as_slice()[ch];
            let b0 = self.beta.value.as_slice()[ch];
            for b in 0..n {
                let base = (b * c + ch) * plane;
                for i in 0..plane {
                    let xh = (data[base + i] - mean) * inv_std;
                    out.as_mut_slice()[base + i] = g * xh + b0;
                    if let Some(xh_t) = xhat.as_mut() {
                        xh_t.as_mut_slice()[base + i] = xh;
                    }
                }
            }
        }

        self.cache = xhat.map(|xhat| BnCache {
            xhat,
            inv_std: inv_stds,
        });
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let cache = self
            .cache
            .take()
            .expect("BatchNorm2d::backward called without a training forward pass");
        let (n, c, h, w) = (
            grad_out.dims()[0],
            grad_out.dims()[1],
            grad_out.dims()[2],
            grad_out.dims()[3],
        );
        let plane = h * w;
        let m = (n * plane) as f32;
        let dy = grad_out.as_slice();
        let xh = cache.xhat.as_slice();
        let mut dx = Tensor::zeros(grad_out.dims());

        for ch in 0..c {
            let mut sum_dy = 0.0f64;
            let mut sum_dy_xhat = 0.0f64;
            for b in 0..n {
                let base = (b * c + ch) * plane;
                for i in 0..plane {
                    sum_dy += dy[base + i] as f64;
                    sum_dy_xhat += (dy[base + i] * xh[base + i]) as f64;
                }
            }
            self.gamma.value.len(); // channels sanity (noop)
            self.gamma.grad.as_mut_slice()[ch] += sum_dy_xhat as f32;
            self.beta.grad.as_mut_slice()[ch] += sum_dy as f32;

            let g = self.gamma.value.as_slice()[ch];
            let inv_std = cache.inv_std[ch];
            let mean_dy = sum_dy as f32 / m;
            let mean_dy_xhat = sum_dy_xhat as f32 / m;
            for b in 0..n {
                let base = (b * c + ch) * plane;
                for i in 0..plane {
                    dx.as_mut_slice()[base + i] =
                        g * inv_std * (dy[base + i] - mean_dy - xh[base + i] * mean_dy_xhat);
                }
            }
        }
        dx
    }

    fn visit_params(&mut self, visitor: &mut dyn FnMut(&mut Param)) {
        visitor(&mut self.gamma);
        visitor(&mut self.beta);
    }

    fn visit_state(&mut self, visitor: &mut dyn FnMut(&mut Tensor)) {
        visitor(&mut self.running_mean);
        visitor(&mut self.running_var);
    }

    fn name(&self) -> String {
        format!("batchnorm2d({})", self.channels())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flight_tensor::{numerical_gradient, uniform, TensorRng};

    #[test]
    fn training_output_is_standardized_per_channel() {
        let mut rng = TensorRng::seed(7);
        let mut bn = BatchNorm2d::new(2);
        let x = uniform(&mut rng, &[16, 2, 4, 4], -3.0, 9.0);
        let y = bn.forward(&x, true);
        // Channel 0 statistics.
        let (n, c, plane) = (16, 2, 16);
        for ch in 0..c {
            let mut vals = Vec::new();
            for b in 0..n {
                let base = (b * c + ch) * plane;
                vals.extend_from_slice(&y.as_slice()[base..base + plane]);
            }
            let mean: f32 = vals.iter().sum::<f32>() / vals.len() as f32;
            let var: f32 =
                vals.iter().map(|&v| (v - mean) * (v - mean)).sum::<f32>() / vals.len() as f32;
            assert!(mean.abs() < 1e-3, "channel {ch} mean {mean}");
            assert!((var - 1.0).abs() < 1e-2, "channel {ch} var {var}");
        }
    }

    #[test]
    fn eval_uses_running_statistics() {
        let mut rng = TensorRng::seed(8);
        let mut bn = BatchNorm2d::new(1);
        // Feed shifted data repeatedly so running stats converge near them.
        let x = uniform(&mut rng, &[32, 1, 2, 2], 4.0, 6.0);
        for _ in 0..200 {
            bn.forward(&x, true);
        }
        let y = bn.forward(&x, false);
        // Eval output should be roughly standardized too, since running
        // stats track the (stationary) batch stats.
        assert!(y.mean().abs() < 0.1);
    }

    #[test]
    fn backward_matches_numerical() {
        let mut rng = TensorRng::seed(9);
        let x = uniform(&mut rng, &[3, 2, 2, 2], -1.0, 1.0);
        let mask = uniform(&mut rng, &[3, 2, 2, 2], -1.0, 1.0);

        let mut bn = BatchNorm2d::new(2);
        bn.gamma.value = Tensor::from_slice(&[1.3, 0.7]);
        bn.beta.value = Tensor::from_slice(&[0.2, -0.4]);
        bn.forward(&x, true);
        let dx = bn.backward(&mask);

        let gamma = bn.gamma.value.clone();
        let beta = bn.beta.value.clone();
        let ndx = numerical_gradient(&x, 1e-2, |t| {
            let mut b = BatchNorm2d::new(2);
            b.gamma.value = gamma.clone();
            b.beta.value = beta.clone();
            (&b.forward(t, true) * &mask).sum()
        });
        let err = flight_tensor::grad_check::gradient_relative_error(&dx, &ndx);
        assert!(err < 2e-2, "relative error {err}");
    }

    #[test]
    fn param_gradients_match_numerical() {
        let mut rng = TensorRng::seed(10);
        let x = uniform(&mut rng, &[4, 2, 2, 2], -1.0, 1.0);
        let mask = uniform(&mut rng, &[4, 2, 2, 2], -1.0, 1.0);

        let mut bn = BatchNorm2d::new(2);
        bn.forward(&x, true);
        bn.backward(&mask);

        let ng = numerical_gradient(&Tensor::ones(&[2]), 1e-2, |g| {
            let mut b = BatchNorm2d::new(2);
            b.gamma.value = g.clone();
            (&b.forward(&x, true) * &mask).sum()
        });
        let err = flight_tensor::grad_check::gradient_relative_error(&bn.gamma.grad, &ng);
        assert!(err < 2e-2, "gamma grad error {err}");
    }

    #[test]
    fn eval_affine_equals_the_probe_and_the_eval_forward() {
        let mut rng = TensorRng::seed(11);
        let c = 64;
        let mut bn = BatchNorm2d::new(c);
        bn.gamma.value = uniform(&mut rng, &[c], -2.0, 2.0);
        bn.beta.value = uniform(&mut rng, &[c], -1.0, 1.0);
        bn.running_mean = uniform(&mut rng, &[c], -3.0, 3.0);
        bn.running_var = uniform(&mut rng, &[c], 1e-3, 4.0);
        let (a, b) = bn.eval_affine();

        // The reference: probe the eval forward with basis inputs.
        let probe_b = bn.forward(&Tensor::zeros(&[1, c, 1, 1]), false);
        let probe_a = &bn.forward(&Tensor::ones(&[1, c, 1, 1]), false) - &probe_b;
        assert_eq!(a.as_slice(), probe_a.as_slice());
        assert_eq!(b.as_slice(), probe_b.as_slice());

        let x = uniform(&mut rng, &[2, c, 3, 3], -4.0, 4.0);
        let y = bn.forward(&x, false);
        for (i, (&xv, &yv)) in x.as_slice().iter().zip(y.as_slice()).enumerate() {
            let ch = (i / 9) % c;
            let affine = a.as_slice()[ch] * xv + b.as_slice()[ch];
            assert!(
                (affine - yv).abs() <= 1e-4 * yv.abs().max(1.0),
                "channel {ch}: a·x + b = {affine}, forward {yv}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "channels")]
    fn rejects_wrong_channel_count() {
        let mut bn = BatchNorm2d::new(3);
        bn.forward(&Tensor::zeros(&[1, 2, 2, 2]), false);
    }
}
