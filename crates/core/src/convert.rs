//! The Fig. 3 equivalence: a convolution with a `k_i`-shift filter equals
//! the sum of `k_i` convolutions with one-shift filters.
//!
//! This is how FLightNNs map onto LightNN-1 hardware: level `j` of the
//! quantizer contributes the rounded residual `R(r_{i,j})`, which is a
//! filter whose every coefficient is a single power of two (or zero), and
//! the level outputs are summed per feature map. [`shift_plan`] expands
//! a layer's [`QuantWeights`] core, so a conv and a linear layer (a 1×1
//! conv whose rows are its filters) go through the same call. The
//! [`ShiftPlan`] produced here is also the representation the shift-add
//! inference kernels (`flight-kernels`) and the hardware models consume.

use flight_tensor::Tensor;
use serde::{Deserialize, Serialize};

use crate::layers::{QuantConv2d, QuantWeights};
use crate::pow2::{pow2_exponent, BITS_PER_TERM};

/// One single-shift subfilter: every coefficient is `±2^e` or zero.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SubFilter {
    /// Coefficients (flat, same layout as the original filter).
    pub coefficients: Vec<f32>,
}

impl SubFilter {
    /// Validates that every nonzero coefficient is a pure power of two.
    pub fn is_single_shift(&self) -> bool {
        self.coefficients.iter().all(|&c| {
            c == 0.0 || pow2_exponent(c).map(|e| (e as f32).exp2() == c.abs()) == Some(true)
        })
    }

    /// Number of nonzero taps (shift operations this subfilter costs per
    /// output position).
    pub fn nonzero_taps(&self) -> usize {
        self.coefficients.iter().filter(|&&c| c != 0.0).count()
    }
}

/// The LightNN-1 expansion of one `k_i`-shift filter.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FilterPlan {
    /// One subfilter per active quantization level (`k_i` of them).
    pub subfilters: Vec<SubFilter>,
}

impl FilterPlan {
    /// The filter's shift count `k_i`.
    pub fn ki(&self) -> usize {
        self.subfilters.len()
    }

    /// Reconstructs the quantized filter by summing the subfilters.
    pub fn reconstruct(&self, len: usize) -> Vec<f32> {
        let mut out = vec![0.0f32; len];
        for sub in &self.subfilters {
            for (o, &c) in out.iter_mut().zip(&sub.coefficients) {
                *o += c;
            }
        }
        out
    }
}

/// The Fig. 3 expansion of a whole conv layer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShiftPlan {
    /// One plan per filter, in filter order.
    pub filters: Vec<FilterPlan>,
    /// Original filter coefficient count.
    pub filter_len: usize,
}

impl ShiftPlan {
    /// Total single-shift subfilters (`Σ_i k_i`) — the number of
    /// LightNN-1 convolutions the layer becomes.
    pub fn total_subfilters(&self) -> usize {
        self.filters.iter().map(FilterPlan::ki).sum()
    }

    /// Extra feature-map summations this layer needs relative to
    /// LightNN-1 (`Σ_i (k_i − 1)` over non-pruned filters).
    pub fn extra_feature_map_adds(&self) -> usize {
        self.filters.iter().map(|f| f.ki().saturating_sub(1)).sum()
    }

    /// Weight storage bits of the expanded layer (4 bits per stored
    /// term, zeros in subfilters counted — upper bound; the packed
    /// per-filter count is what [`crate::storage`] reports).
    pub fn storage_bits_upper_bound(&self) -> usize {
        self.total_subfilters() * self.filter_len * BITS_PER_TERM
    }
}

/// Expands the weights of a FLightNN (or LightNN) conv or linear layer
/// into its Fig. 3 plan. A linear layer's rows are its filters, so it
/// expands as a 1×1 conv.
///
/// The weights are quantized afresh (exactly once), so the plan reflects
/// the current shadow weights and thresholds.
///
/// # Panics
///
/// Panics if the layer is not shift-based (Full or FixedPoint layers
/// have no shift structure to expand).
pub fn shift_plan(weights: &mut QuantWeights) -> ShiftPlan {
    assert!(
        weights.is_shift_based(),
        "shift_plan needs a shift-based layer (LightNN or FLightNN)"
    );
    weights.quantize();
    let counts = weights.filter_shift_counts();
    let q = weights.quantized();
    let filters = counts
        .iter()
        .enumerate()
        .map(|(i, &ki)| {
            // Re-derive level contributions greedily from the quantized
            // values: level j takes the power-of-two rounding of the
            // remaining value. This reproduces the trace's R(r_j) because
            // quantization itself was greedy.
            let mut remaining = q.outer(i).to_vec();
            let subfilters = (0..ki)
                .map(|_| {
                    let level: Vec<f32> = remaining
                        .iter()
                        .map(|&c| crate::pow2::round_pow2(c))
                        .collect();
                    for (r, &l) in remaining.iter_mut().zip(&level) {
                        *r -= l;
                    }
                    SubFilter {
                        coefficients: level,
                    }
                })
                .collect();
            FilterPlan { subfilters }
        })
        .collect();
    ShiftPlan {
        filters,
        filter_len: q.len() / q.dims()[0],
    }
}

/// Verifies the Fig. 3 equivalence numerically: convolving with the
/// quantized layer equals summing convolutions with the single-shift
/// subfilters.
///
/// Returns the maximum absolute output discrepancy over the batch.
pub fn verify_equivalence(conv: &mut QuantConv2d, input: &Tensor) -> f32 {
    use flight_nn::layers::functional::conv2d_forward;

    let plan = shift_plan(conv.weights_mut());
    let stride = conv.stride();
    let padding = conv.padding();
    let q = conv.weights_mut().quantized().clone();
    let dims = q.dims().to_vec();
    let bias = Tensor::zeros(&[dims[0]]);

    // Direct quantized convolution (bias excluded from the comparison).
    let (reference, _) = conv2d_forward(input, &q, &bias, stride, padding, false);

    // Expanded: per filter, sum the subfilter convolutions.
    let mut expanded = Tensor::zeros(reference.dims());
    for (fi, fplan) in plan.filters.iter().enumerate() {
        for sub in &fplan.subfilters {
            let mut w = Tensor::zeros(&[1, dims[1], dims[2], dims[3]]);
            w.as_mut_slice().copy_from_slice(&sub.coefficients);
            let (out, _) = conv2d_forward(input, &w, &Tensor::zeros(&[1]), stride, padding, false);
            // Accumulate into filter fi's plane for every batch element.
            let n = input.dims()[0];
            let plane = out.len() / n;
            for b in 0..n {
                let src = out.outer(b);
                let dst = expanded.outer_mut(b);
                for (d, &s) in dst[fi * plane..(fi + 1) * plane].iter_mut().zip(src) {
                    *d += s;
                }
            }
        }
    }

    reference
        .as_slice()
        .iter()
        .zip(expanded.as_slice())
        .fold(0.0f32, |m, (&a, &b)| m.max((a - b).abs()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::QuantScheme;
    use flight_tensor::{uniform, TensorRng};

    #[test]
    fn subfilters_are_single_shift() {
        let mut rng = TensorRng::seed(21);
        let mut conv = QuantConv2d::new(&mut rng, &QuantScheme::flight(1e-5), 2, 4, 3, 1, 1);
        let plan = shift_plan(conv.weights_mut());
        assert_eq!(plan.filters.len(), 4);
        for f in &plan.filters {
            for s in &f.subfilters {
                assert!(s.is_single_shift(), "subfilter not single-shift: {s:?}");
            }
        }
    }

    #[test]
    fn plan_reconstructs_quantized_weights() {
        let mut rng = TensorRng::seed(22);
        let mut conv = QuantConv2d::new(&mut rng, &QuantScheme::l2(), 2, 3, 3, 1, 1);
        let plan = shift_plan(conv.weights_mut());
        let q = conv.weights_mut().quantized();
        for (i, f) in plan.filters.iter().enumerate() {
            let rec = f.reconstruct(plan.filter_len);
            for (&a, &b) in rec.iter().zip(q.outer(i)) {
                assert!((a - b).abs() < 1e-6, "filter {i}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn fig3_equivalence_holds_numerically() {
        let mut rng = TensorRng::seed(23);
        for scheme in [
            QuantScheme::l1(),
            QuantScheme::l2(),
            QuantScheme::flight(1e-5),
        ] {
            let mut conv = QuantConv2d::new(&mut rng, &scheme, 3, 4, 3, 1, 1);
            let x = uniform(&mut rng, &[2, 3, 6, 6], -1.0, 1.0);
            let err = verify_equivalence(&mut conv, &x);
            assert!(err < 1e-4, "scheme {}: max error {err}", scheme.label());
        }
    }

    #[test]
    fn l1_has_no_extra_adds() {
        let mut rng = TensorRng::seed(24);
        let mut conv = QuantConv2d::new(&mut rng, &QuantScheme::l1(), 2, 4, 3, 1, 1);
        let plan = shift_plan(conv.weights_mut());
        assert_eq!(plan.extra_feature_map_adds(), 0);
        assert_eq!(plan.total_subfilters(), 4);
    }

    #[test]
    fn flight_mixed_k_reduces_subfilters_vs_l2() {
        let mut rng = TensorRng::seed(25);
        let mut fl = QuantConv2d::new(&mut rng, &QuantScheme::flight(1e-5), 2, 8, 3, 1, 1);
        // Push level-1 threshold up so some filters drop to one shift.
        fl.weights_mut().thresholds_mut().unwrap().value =
            flight_tensor::Tensor::from_slice(&[0.0, 0.35]);
        let plan = shift_plan(fl.weights_mut());
        assert!(
            plan.total_subfilters() < 16,
            "expected fewer than L-2's 16 subfilters, got {}",
            plan.total_subfilters()
        );
        assert!(plan.total_subfilters() >= 8);
    }
}
