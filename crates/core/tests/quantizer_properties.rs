//! Property-based tests of the quantization core's invariants.

use flight_tensor::{uniform, TensorRng};
use flightnn::pow2::{round_pow2, ExponentWindow, Pow2Weight};
use flightnn::quant::{quantize_fixed_point, quantize_lightnn, QuantMode, ThresholdQuantizer};
use proptest::prelude::*;

proptest! {
    #[test]
    fn lightnn_quantization_is_idempotent(seed in 0u64..500, k in 1usize..4) {
        // Quantizing an already-quantized tensor changes nothing: the
        // values are exact sums of k windowed powers of two.
        let mut rng = TensorRng::seed(seed);
        let w = uniform(&mut rng, &[24], -2.0, 2.0);
        let q1 = quantize_lightnn(&w, k);
        let q2 = quantize_lightnn(&q1, k);
        prop_assert!(q1.allclose(&q2, 1e-6), "k={k}: {:?} vs {:?}", q1, q2);
    }

    #[test]
    fn quantization_commutes_with_sign_flip(seed in 0u64..500) {
        // Q(-w) = -Q(w): the representation is symmetric.
        let mut rng = TensorRng::seed(seed);
        let w = uniform(&mut rng, &[16], -1.5, 1.5);
        let q_pos = quantize_lightnn(&w, 2);
        let q_neg = quantize_lightnn(&w.scale(-1.0), 2);
        prop_assert!(q_neg.allclose(&q_pos.scale(-1.0), 1e-6));
    }

    #[test]
    fn thresholded_ki_never_exceeds_k_max(seed in 0u64..300, t0 in 0.0f32..3.0, t1 in 0.0f32..3.0) {
        let mut rng = TensorRng::seed(seed);
        let w = uniform(&mut rng, &[4, 9], -1.0, 1.0);
        for mode in [QuantMode::Cascade, QuantMode::IndependentSum] {
            let q = ThresholdQuantizer::new(2, mode);
            let (_, traces, _) = q.quantize_tensor(&w, &[t0, t1]);
            for trace in traces {
                prop_assert!(trace.ki <= 2);
                prop_assert_eq!(
                    trace.ki,
                    trace.active.iter().filter(|&&a| a).count()
                );
            }
        }
    }

    #[test]
    fn cascade_ki_never_exceeds_independent(seed in 0u64..300, t0 in 0.0f32..2.0, t1 in 0.0f32..2.0) {
        // The cascade can only stop earlier than the independent sum.
        let mut rng = TensorRng::seed(seed);
        let w = uniform(&mut rng, &[3, 8], -1.0, 1.0);
        let qc = ThresholdQuantizer::new(2, QuantMode::Cascade);
        let qi = ThresholdQuantizer::new(2, QuantMode::IndependentSum);
        let t = [t0, t1];
        let (_, tc, _) = qc.quantize_tensor(&w, &t);
        let (_, ti, _) = qi.quantize_tensor(&w, &t);
        for (c, i) in tc.iter().zip(&ti) {
            prop_assert!(c.ki <= i.ki, "cascade {} > independent {}", c.ki, i.ki);
        }
    }

    #[test]
    fn windowed_round_is_within_window(x in -100.0f32..100.0, max_exp in -4i32..4) {
        let win = ExponentWindow::new(max_exp);
        let r = win.round(x);
        if r != 0.0 {
            let e = r.abs().log2().round() as i32;
            prop_assert!(e <= win.max_exp());
            prop_assert!(e >= win.min_exp());
            prop_assert_eq!(round_pow2(r), r, "windowed output is a power of two");
        }
    }

    #[test]
    fn decompose_value_error_shrinks_geometrically(x in 0.01f32..4.0) {
        // Each additional term divides the worst-case log-space error, so
        // |x - Q_k(x)| <= |x - Q_{k-1}(x)| and Q_3 is within ~3% of x for
        // in-window values.
        let win = ExponentWindow::fit(&[x]);
        let q3 = Pow2Weight::decompose(x, 3, &win).value();
        prop_assert!((q3 - x).abs() <= 0.08 * x.abs() + 1e-4, "Q3({x}) = {q3}");
    }

    #[test]
    fn fixed_point_is_idempotent_and_bounded(seed in 0u64..300, bits in 2u32..9) {
        let mut rng = TensorRng::seed(seed);
        let w = uniform(&mut rng, &[32], -3.0, 3.0);
        let (q1, scale) = quantize_fixed_point(&w, bits);
        let (q2, _) = quantize_fixed_point(&q1, bits);
        prop_assert!(q1.allclose(&q2, 1e-5));
        let qmax = ((1u32 << (bits - 1)) - 1) as f32;
        prop_assert!(q1.abs_max() <= qmax * scale + 1e-5);
    }

    #[test]
    fn storage_bits_scale_with_ki(seed in 0u64..200) {
        use flightnn::layers::QuantConv2d;
        use flightnn::QuantScheme;
        // Forcing every filter to one shift exactly halves the k_max = 2
        // storage.
        let mut rng = TensorRng::seed(seed);
        let mut conv = QuantConv2d::new(&mut rng, &QuantScheme::flight(0.0), 2, 3, 3, 1, 1);
        let full = conv.weights_mut().storage_bits();
        conv.weights_mut().thresholds_mut().unwrap().value =
            flight_tensor::Tensor::from_slice(&[0.0, 1e9]);
        conv.weights_mut().quantize();
        let halved = conv.weights_mut().storage_bits();
        prop_assert_eq!(halved * 2, full);
    }
}
