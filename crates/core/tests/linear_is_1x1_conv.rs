//! A quantized linear layer is a 1×1 conv on a 1×1 image: both layer
//! types run the one `QuantWeights` core, so given the same shadow
//! weights, bias and thresholds they agree bit for bit on everything
//! Algorithm 1 computes, under every scheme.

use flight_nn::{Layer, Param};
use flight_tensor::{uniform, Tensor, TensorRng};
use flightnn::layers::{QuantConv2d, QuantLinear};
use flightnn::reg::RegStrength;
use flightnn::QuantScheme;
use proptest::prelude::*;

fn scheme(ix: usize) -> QuantScheme {
    match ix {
        0 => QuantScheme::full(),
        1 => QuantScheme::fp4w8a(),
        2 => QuantScheme::l2(),
        _ => QuantScheme::flight_with(RegStrength::new(vec![0.05, 0.2]), 2),
    }
}

/// Every parameter tensor of `layer`, read through `part`, in
/// `visit_params` order (shadow, bias, thresholds).
fn params(layer: &mut dyn Layer, part: fn(&Param) -> &Tensor) -> Vec<Vec<f32>> {
    let mut out = Vec::new();
    layer.visit_params(&mut |p| out.push(part(p).as_slice().to_vec()));
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn a_linear_layer_is_a_one_by_one_conv(
        scheme_ix in 0usize..4,
        seed in 0u64..10_000,
        batch in 1usize..5,
        features in 1usize..12,
        outputs in 1usize..6,
        t1 in 0.0f32..1.0,
        step in 0.0f32..4.0,
    ) {
        let scheme = scheme(scheme_ix);
        let mut rng = TensorRng::seed(seed);
        let mut lin = QuantLinear::new(&mut rng, &scheme, features, outputs);
        let mut conv = QuantConv2d::new(&mut rng, &scheme, features, outputs, 1, 1, 0);
        let values = [
            uniform(&mut rng, &[outputs * features], -1.0, 1.0),
            uniform(&mut rng, &[outputs], -0.5, 0.5),
            Tensor::from_slice(&[0.0, t1]),
        ];
        for layer in [&mut lin as &mut dyn Layer, &mut conv] {
            let mut next = values.iter();
            layer.visit_params(&mut |p| {
                let v = next.next().expect("at most three parameter tensors");
                p.value.as_mut_slice().copy_from_slice(v.as_slice());
            });
        }

        // Forward and backward.
        let x = uniform(&mut rng, &[batch, features], -1.0, 1.0);
        let y_lin = lin.forward(&x, true);
        let y_conv = conv.forward(&x.reshape(&[batch, features, 1, 1]), true);
        prop_assert_eq!(y_lin.as_slice(), y_conv.as_slice());
        let g = uniform(&mut rng, &[batch, outputs], -1.0, 1.0);
        let dx_lin = lin.backward(&g);
        let dx_conv = conv.backward(&g.reshape(&[batch, outputs, 1, 1]));
        prop_assert_eq!(dx_lin.as_slice(), dx_conv.as_slice());
        prop_assert_eq!(params(&mut lin, |p| &p.grad), params(&mut conv, |p| &p.grad));

        // Regularization subgradients, then the proximal step.
        let reg = scheme.reg();
        let (wl, wc) = (lin.weights_mut(), conv.weights_mut());
        prop_assert_eq!(wl.accumulate_reg(&reg), wc.accumulate_reg(&reg));
        wl.observe_shadow_grad();
        wc.observe_shadow_grad();
        prop_assert_eq!(params(&mut lin, |p| &p.grad), params(&mut conv, |p| &p.grad));
        let (wl, wc) = (lin.weights_mut(), conv.weights_mut());
        prop_assert_eq!(wl.apply_reg_prox(&reg, step), wc.apply_reg_prox(&reg, step));
        prop_assert_eq!(wl.filter_shift_counts(), wc.filter_shift_counts());
        prop_assert_eq!(wl.storage_bits(), wc.storage_bits());
        prop_assert_eq!(wl.residual_norm_sums(), wc.residual_norm_sums());
        prop_assert_eq!(wl.take_train_stats(), wc.take_train_stats());
        prop_assert_eq!(params(&mut lin, |p| &p.value), params(&mut conv, |p| &p.value));
    }
}
