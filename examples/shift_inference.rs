//! Multiplier-free inference end to end: train a LightNN-style model,
//! compile its first convolution to the shift-add integer kernel, and
//! compare outputs and operation counts against the fixed-point multiply
//! kernel — the software mirror of the paper's hardware argument.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example shift_inference
//! ```

use flight_kernels::fixed::FixedWeights;
use flight_kernels::{fixed_point_conv, shift_add_conv, QuantActivations, ShiftKernel};
use flight_tensor::{uniform, TensorRng};
use flightnn::convert::shift_plan;
use flightnn::layers::QuantConv2d;
use flightnn::QuantScheme;

fn main() {
    let mut rng = TensorRng::seed(3);

    // A quantized conv layer per scheme, same shadow weights for all.
    let shadow = uniform(&mut rng, &[16, 8, 3, 3], -0.6, 0.6);
    let x = uniform(&mut rng, &[4, 8, 12, 12], -1.0, 1.0);
    let qa = QuantActivations::quantize(&x, 8);

    println!("input: {:?}, weights: {:?}\n", x.dims(), shadow.dims());

    // Fixed-point multiply path (the FP 4W8A baseline datapath).
    let fixed = FixedWeights::quantize(&shadow, 4);
    let (out_fixed, counts_fixed) = fixed_point_conv(&qa, &fixed, 1, 1);
    println!("fixed-point 4W8A : {counts_fixed}");

    // Shift-add paths for L-1, L-2 and a FLightNN.
    for scheme in [
        QuantScheme::l1(),
        QuantScheme::l2(),
        QuantScheme::flight(1e-5),
    ] {
        let mut conv = QuantConv2d::new(&mut rng, &scheme, 8, 16, 3, 1, 1);
        conv.weights_mut().shadow_mut().value = shadow.clone();
        if let Some(t) = conv.weights_mut().thresholds_mut() {
            // Give the FLightNN layer a mixed k profile for the demo.
            t.value = flight_tensor::Tensor::from_slice(&[0.0, 0.45]);
        }
        let plan = shift_plan(conv.weights_mut());
        let kernel = ShiftKernel::compile(&plan, &[16, 8, 3, 3]);
        let (out_shift, counts) = shift_add_conv(&qa, &kernel, 1, 1);

        // The shift path must agree with a float reference of the same
        // quantized weights; compare to the fixed path only loosely (they
        // quantize weights differently).
        let drift = out_shift.sq_distance(&out_fixed).sqrt() / out_fixed.norm_l2().max(1e-6);
        println!(
            "{:<18}: {counts}  (total subfilters {}, vs fixed-point drift {:.3})",
            scheme.label(),
            plan.total_subfilters(),
            drift
        );
        assert_eq!(counts.int_mults, 0, "shift path must not multiply");
    }

    println!("\nEvery shift-add row executes zero integer multiplies — the");
    println!("multiplier is gone, exactly as the paper's hardware replaces");
    println!("DSP multipliers with LUT shifts. L-1 halves the shift count of");
    println!("L-2; the FLightNN sits in between according to its mixed k_i.");
}
