//! Full-pipeline kernel equivalence: a *trained* FLightNN's first conv
//! layer, compiled to the integer shift-add kernel, must reproduce the
//! float forward pass bit-for-bit (up to f32 rounding in the float path),
//! and its operation counts must reflect the trained shift counts.

use flight_data::{DatasetKind, Fidelity, SyntheticDataset};
use flight_kernels::fixed::FixedWeights;
use flight_kernels::{fixed_point_conv, shift_add_conv, QuantActivations, ShiftKernel};
use flight_nn::layers::functional::conv2d_forward;
use flight_tensor::{Tensor, TensorRng};
use flightnn::configs::NetworkConfig;
use flightnn::convert::shift_plan;
use flightnn::reg::RegStrength;
use flightnn::{FlightTrainer, QuantScheme};

#[test]
fn trained_flightnn_layer_runs_multiplier_free() {
    // Train a small FLightNN briefly so the weights are "real".
    let data = SyntheticDataset::preset(DatasetKind::Cifar10Like, Fidelity::Smoke, 17);
    let scheme = QuantScheme::flight_with(RegStrength::new(vec![0.0, 4.0]), 2);
    let cfg = NetworkConfig::by_id(1);
    let mut rng = TensorRng::seed(17);
    let mut net = cfg.build(&scheme, &mut rng, data.classes(), data.image_dims(), 0.25);
    let mut trainer = FlightTrainer::new(&scheme, 3e-3);
    trainer.fit_two_phase(&mut net, &data.train_batches(16), 10);

    // Extract the first conv layer and compile it.
    let probe = data.test_batches(8)[0].input.clone();
    let mut checked = false;
    net.visit_quant_convs(&mut |conv| {
        if checked {
            return;
        }
        checked = true;

        let plan = shift_plan(conv.weights_mut());
        let dims = conv.weights().shadow().value.dims().to_vec();
        let kernel = ShiftKernel::compile(&plan, &dims);
        let qa = QuantActivations::quantize(&probe, 8);
        let qweights = conv.weights_mut().quantized().clone();

        // Reference: float conv of quantized activations × quantized weights.
        let (reference, _) = conv2d_forward(
            &qa.dequantize(),
            &qweights,
            &Tensor::zeros(&[dims[0]]),
            conv.stride(),
            conv.padding(),
            false,
        );
        let (integer, counts) = shift_add_conv(&qa, &kernel, conv.stride(), conv.padding());
        assert!(
            integer.allclose(&reference, 1e-3),
            "integer shift-add diverges from the float reference"
        );
        assert_eq!(counts.int_mults, 0, "no multiplies allowed");

        // Op accounting: shift count equals the kernel's nonzero taps ×
        // output positions × batch.
        let geom = flight_tensor::Conv2dGeometry::new(
            dims[1],
            probe.dims()[2],
            probe.dims()[3],
            dims[2],
            conv.stride(),
            conv.padding(),
        );
        let interior_upper = (kernel.total_taps() * geom.out_positions() * probe.dims()[0]) as u64;
        assert!(
            counts.shifts <= interior_upper && counts.shifts > interior_upper / 2,
            "shift count {} inconsistent with taps bound {interior_upper}",
            counts.shifts
        );
    });
    assert!(checked, "network must contain a conv layer");
}

#[test]
fn shift_and_fixed_paths_agree_on_shared_float_weights() {
    // Quantize the same float weights both ways; both integer kernels
    // must match their own float references exactly, and differ from each
    // other only by the weight-quantization difference.
    let mut rng = TensorRng::seed(23);
    let w = flight_tensor::uniform(&mut rng, &[6, 4, 3, 3], -0.7, 0.7);
    let x = flight_tensor::uniform(&mut rng, &[2, 4, 8, 8], -1.0, 1.0);
    let qa = QuantActivations::quantize(&x, 8);

    // Fixed path.
    let fixed = FixedWeights::quantize(&w, 4);
    let (out_fixed, cf) = fixed_point_conv(&qa, &fixed, 1, 1);
    let (ref_fixed, _) = conv2d_forward(
        &qa.dequantize(),
        &fixed.dequantize(),
        &Tensor::zeros(&[6]),
        1,
        1,
        false,
    );
    assert!(out_fixed.allclose(&ref_fixed, 1e-4));

    // Shift path via a LightNN-2 layer with the same shadow weights.
    let mut conv = flightnn::layers::QuantConv2d::new(&mut rng, &QuantScheme::l2(), 4, 6, 3, 1, 1);
    conv.weights_mut().shadow_mut().value = w.clone();
    let plan = shift_plan(conv.weights_mut());
    let kernel = ShiftKernel::compile(&plan, &[6, 4, 3, 3]);
    let (out_shift, cs) = shift_add_conv(&qa, &kernel, 1, 1);
    let (ref_shift, _) = conv2d_forward(
        &qa.dequantize(),
        conv.weights_mut().quantized(),
        &Tensor::zeros(&[6]),
        1,
        1,
        false,
    );
    assert!(out_shift.allclose(&ref_shift, 1e-3));

    // Cross-path agreement is approximate (different weight grids) but
    // must be close in relative terms.
    let rel = out_shift.sq_distance(&out_fixed).sqrt() / ref_fixed.norm_l2().max(1e-9);
    assert!(rel < 0.25, "paths disagree wildly: rel {rel}");

    // The datapath character: one multiplies, the other shifts.
    assert!(cf.int_mults > 0 && cf.shifts == 0);
    assert!(cs.shifts > 0 && cs.int_mults == 0);
}
