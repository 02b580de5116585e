//! Integer-engine integration tests: compiled pipelines must match the
//! float quantized network on real trained models, multiplier-free.

use flight_data::{Fidelity, SyntheticDataset};
use flight_kernels::{CompileOptions, IntNetwork};
use flight_nn::Layer;
use flight_tensor::TensorRng;
use flightnn::configs::NetworkConfig;
use flightnn::{FlightTrainer, QuantNet, QuantScheme};

fn trained(net_id: u8, scheme: &QuantScheme, epochs: usize) -> (QuantNet, SyntheticDataset) {
    let cfg = NetworkConfig::by_id(net_id);
    let data = SyntheticDataset::preset(cfg.dataset, Fidelity::Smoke, 5);
    let mut rng = TensorRng::seed(5);
    let mut net = cfg.build(scheme, &mut rng, data.classes(), data.image_dims(), 0.25);
    let mut trainer = FlightTrainer::new(scheme, 5e-3);
    trainer.fit(&mut net, &data.train_batches(16), epochs);
    (net, data)
}

fn max_logit_gap(a: &flight_tensor::Tensor, b: &flight_tensor::Tensor) -> f32 {
    a.as_slice()
        .iter()
        .zip(b.as_slice())
        .fold(0.0f32, |m, (&x, &y)| m.max((x - y).abs()))
}

#[test]
fn vgg_lightnn_pipeline_matches_float_path() {
    let (mut net, data) = trained(1, &QuantScheme::l2(), 2);
    let engine = IntNetwork::compile_with(&mut net, CompileOptions::new()).expect("compiles");
    let input = data.test_batches(8)[0].input.clone();
    let float_logits = net.forward(&input, false);
    let (int_logits, counts) = engine.forward(&input);

    let gap = max_logit_gap(&float_logits, &int_logits);
    let scale = float_logits.abs_max().max(1.0);
    // Both paths quantize the input and every activation per image
    // through the same function, so what is left is float rounding: the
    // engine folds batch norm into its epilogue and sums integer
    // products. One rounding difference can still move a value across
    // a half-step of the next quantization, so the bound leaves room for
    // a few code flips (~5e-7 relative measured for this stream); top-1
    // agreement is pinned by integer_accuracy_matches_float_accuracy.
    assert!(
        gap < 1e-2 * scale,
        "integer pipeline diverges: gap {gap} at logit scale {scale}"
    );
    assert_eq!(counts.int_mults, 0, "L-2 pipeline must be multiplier-free");
    assert!(counts.shifts > 0);
}

#[test]
fn resnet_flightnn_pipeline_matches_float_path() {
    let (mut net, data) = trained(2, &QuantScheme::flight(0.0), 2);
    let engine = IntNetwork::compile_with(&mut net, CompileOptions::new()).expect("compiles");
    let input = data.test_batches(4)[0].input.clone();
    let float_logits = net.forward(&input, false);
    let (int_logits, counts) = engine.forward(&input);
    let gap = max_logit_gap(&float_logits, &int_logits);
    let scale = float_logits.abs_max().max(1.0);
    // The same rounding residue as the vgg test's note, over many more
    // requantizations (and the engine's linear stage also quantizes the
    // pooled features the float network feeds it unquantized): ~8e-3
    // relative measured for this stream.
    assert!(gap < 5e-2 * scale, "gap {gap} at scale {scale}");
    assert_eq!(counts.int_mults, 0);
}

#[test]
fn fixed_point_pipeline_multiplies_instead_of_shifting() {
    let (mut net, data) = trained(1, &QuantScheme::fp4w8a(), 2);
    let engine = IntNetwork::compile_with(&mut net, CompileOptions::new()).expect("compiles");
    let input = data.test_batches(4)[0].input.clone();
    let float_logits = net.forward(&input, false);
    let (int_logits, counts) = engine.forward(&input);
    let gap = max_logit_gap(&float_logits, &int_logits);
    let scale = float_logits.abs_max().max(1.0);
    // Integer multiplies leave the same rounding residue as shifts (see
    // the vgg test's note; ~8e-7 relative measured for this stream).
    assert!(gap < 1e-2 * scale, "gap {gap} at scale {scale}");
    assert!(counts.int_mults > 0);
    assert_eq!(counts.shifts, 0);
}

/// Each row's top-1 class (the first of equal maxima).
fn top1(logits: &flight_tensor::Tensor) -> Vec<usize> {
    (0..logits.dims()[0])
        .map(|i| {
            let row = logits.outer(i);
            (0..row.len()).fold(0, |best, j| if row[j] > row[best] { j } else { best })
        })
        .collect()
}

#[test]
fn integer_accuracy_matches_float_accuracy() {
    use flight_nn::loss::top_k_accuracy;
    use flightnn::reg::RegStrength;
    let fl_b = QuantScheme::flight_with(RegStrength::new(vec![0.0, 0.9]), 2);
    // Training is seeded, so each scheme's count of test images whose
    // compiled top-1 differs from the float top-1 is exact.
    for (scheme, flips) in [
        (QuantScheme::l1(), 0),
        (QuantScheme::l2(), 0),
        (QuantScheme::fp4w8a(), 0),
        (fl_b, 0),
    ] {
        let (mut net, data) = trained(1, &scheme, 6);
        let engine = IntNetwork::compile_with(&mut net, CompileOptions::new()).expect("compiles");
        let mut float_correct = 0.0;
        let mut int_correct = 0.0;
        let mut n = 0;
        let mut agree = 0;
        let mut gap = 0.0f32;
        for batch in data.test_batches(16) {
            let fl = net.forward(&batch.input, false);
            let (il, _) = engine.forward(&batch.input);
            float_correct += top_k_accuracy(&fl, &batch.labels, 1) * batch.len() as f32;
            int_correct += top_k_accuracy(&il, &batch.labels, 1) * batch.len() as f32;
            agree += top1(&fl)
                .iter()
                .zip(top1(&il))
                .filter(|(f, i)| **f == *i)
                .count();
            gap = gap.max(max_logit_gap(&fl, &il));
            n += batch.len();
        }
        let (fa, ia) = (float_correct / n as f32, int_correct / n as f32);
        let label = scheme.label();
        println!("{label}: float {fa}, integer {ia}, top-1 agree {agree}/{n}, max logit gap {gap}");
        assert!(
            (fa - ia).abs() < 0.03,
            "{label}: integer accuracy {ia} drifted from float accuracy {fa}"
        );
        assert_eq!(
            n - agree,
            flips,
            "{label}: top-1 flips (max logit gap {gap})"
        );
        assert!(
            fa > 0.3,
            "{label}: model should have learned something: {fa}"
        );
    }
}

#[test]
fn op_counts_track_mean_k() {
    // An L-2 model costs ~2x the shifts of an L-1 model of identical
    // architecture on the same input.
    let (mut l1, data) = trained(1, &QuantScheme::l1(), 1);
    let (mut l2, _) = trained(1, &QuantScheme::l2(), 1);
    let e1 = IntNetwork::compile_with(&mut l1, CompileOptions::new()).expect("compiles");
    let e2 = IntNetwork::compile_with(&mut l2, CompileOptions::new()).expect("compiles");
    let batch = &data.test_batches(2)[0];
    let (_, c1) = e1.forward(&batch.input);
    let (_, c2) = e2.forward(&batch.input);
    let ratio = c2.shifts as f64 / c1.shifts as f64;
    assert!(
        (1.5..2.4).contains(&ratio),
        "L-2/L-1 shift ratio {ratio} (got {} vs {})",
        c2.shifts,
        c1.shifts
    );
}

#[test]
fn traced_forward_matches_untraced_and_emits_stage_events() {
    use flight_telemetry::{CollectingSink, EventKind, Telemetry};
    use std::sync::Arc;

    let (mut net, data) = trained(1, &QuantScheme::l1(), 1);
    let engine = IntNetwork::compile_with(&mut net, CompileOptions::new()).expect("compiles");
    let input = data.test_batches(2)[0].input.clone();
    let (plain_logits, plain_counts) = engine.forward(&input);

    let sink = Arc::new(CollectingSink::new());
    let engine = engine.with_telemetry(Telemetry::new(sink.clone()));
    let (traced_logits, traced_counts) = engine.forward(&input);

    assert!(
        plain_logits.allclose(&traced_logits, 0.0),
        "tracing must not change the results"
    );
    assert_eq!(plain_counts, traced_counts);

    let events = sink.events();
    let stage_ends = events
        .iter()
        .filter(|e| e.kind == EventKind::SpanEnd && e.name.starts_with("kernel.stage."))
        .count();
    assert_eq!(stage_ends, engine.stages(), "one latency span per stage");
    let forward_spans = events
        .iter()
        .filter(|e| e.kind == EventKind::SpanEnd && e.name == "kernel.forward")
        .count();
    assert_eq!(forward_spans, 1, "one whole-pass span per forward");
    let shift_total: u64 = events
        .iter()
        .filter(|e| e.kind == EventKind::Counter && e.name.ends_with(".shifts"))
        .map(|e| e.value as u64)
        .sum();
    assert_eq!(
        shift_total, traced_counts.shifts,
        "per-stage shift counters must sum to the aggregate"
    );
}

#[test]
fn quantization_saturation_counters_track_every_quantization_site() {
    use flight_telemetry::{CollectingSink, EventKind, Telemetry};
    use std::sync::Arc;

    let (mut net, data) = trained(1, &QuantScheme::l1(), 1);
    let sink = Arc::new(CollectingSink::new());
    let engine = IntNetwork::compile_with(
        &mut net,
        CompileOptions::new().telemetry(Telemetry::new(sink.clone())),
    )
    .expect("compiles");
    let batch = 3;
    let input = data.test_batches(batch)[0].input.clone();
    engine.forward(&input);

    let events = sink.events();
    let total = |suffix: &str| -> u64 {
        events
            .iter()
            .filter(|e| {
                e.kind == EventKind::Counter
                    && e.name.contains("kernel.qact.")
                    && e.name.ends_with(suffix)
            })
            .map(|e| e.value as u64)
            .sum()
    };
    let saturated = total(".saturated");
    let quantized = total(".quantized");
    assert!(quantized > 0, "conv inputs were quantized");
    assert!(saturated <= quantized);
    // The per-image dynamic scale puts each image's max-magnitude
    // element exactly on the rail, so every quantization of a nonzero
    // batch saturates at least `batch` codes.
    let conv_quantizations = events
        .iter()
        .filter(|e| e.kind == EventKind::Counter && e.name.ends_with(".quantized"))
        .count() as u64;
    assert!(conv_quantizations > 0);
    assert!(
        saturated >= conv_quantizations * batch as u64,
        "≥ batch rail hits per site: {saturated} < {conv_quantizations}×{batch}"
    );
    assert!(
        events
            .iter()
            .any(|e| e.name == "kernel.qact.conv.saturated"),
        "conv stage labelled"
    );
    assert!(
        events
            .iter()
            .any(|e| e.name == "kernel.qact.linear.quantized"),
        "linear stage labelled"
    );
}

#[test]
fn full_precision_network_still_compiles() {
    let (mut net, data) = trained(1, &QuantScheme::full(), 1);
    let engine = IntNetwork::compile_with(&mut net, CompileOptions::new()).expect("compiles");
    let input = data.test_batches(2)[0].input.clone();
    let float_logits = net.forward(&input, false);
    let (logits, counts) = engine.forward(&input);
    let gap = max_logit_gap(&float_logits, &logits);
    let scale = float_logits.abs_max().max(1.0);
    assert!(gap < 1e-2 * scale, "gap {gap} at scale {scale}");
    assert!(counts.float_mults > 0);
    assert_eq!(counts.shifts + counts.int_mults, 0);
}

#[test]
fn profiled_forward_is_bit_identical_and_attributes_every_stage() {
    let (mut net, data) = trained(1, &QuantScheme::l2(), 1);
    let engine = IntNetwork::compile_with(&mut net, CompileOptions::new()).expect("compiles");
    let compiled = engine.compiled();
    let input = data.test_batches(4)[0].input.clone();

    let mut ctx = flight_kernels::ExecCtx::new();
    let (plain_logits, plain_counts) = compiled.forward(&input, &mut ctx);

    let mut sample = flight_telemetry::StageSample::new();
    let (prof_logits, prof_counts) = compiled.forward_profiled(&input, &mut ctx, &mut sample);

    assert_eq!(
        prof_logits.as_slice(),
        plain_logits.as_slice(),
        "profiling must not perturb the logits"
    );
    assert_eq!(
        prof_counts, plain_counts,
        "profiling must not change op counts"
    );

    // Every compiled stage appears once, in order, with the engine's
    // dispatch path tag; the per-stage op totals sum to the whole pass.
    assert_eq!(sample.stages(), compiled.stages());
    assert_eq!(sample.path(), ctx.kernel_path().name());
    let per_stage_ops: u64 = (0..sample.stages())
        .map(|i| sample.stage(i).expect("recorded").2)
        .sum();
    assert_eq!(per_stage_ops, prof_counts.total());
    let (first_kind, _, _) = sample.stage(0).expect("stage 0");
    assert_eq!(first_kind, "conv", "network 1 opens with a conv stage");
}

/// Adds a per-channel bias to a `[n, c, h, w]` conv output.
fn add_bias(out: &mut flight_tensor::Tensor, bias: &flight_tensor::Tensor) {
    let c = bias.len();
    let plane = out.len() / (out.dims()[0] * c);
    for (i, plane) in out.as_mut_slice().chunks_exact_mut(plane).enumerate() {
        let b = bias.as_slice()[i % c];
        plane.iter_mut().for_each(|v| *v += b);
    }
}

#[test]
fn fixed_point_layers_compile_at_their_own_weight_bits() {
    use flight_kernels::fixed::{fixed_point_conv, FixedWeights};
    use flight_kernels::{CompiledNet, ExecCtx, QuantActivations};
    use flight_tensor::{uniform, Tensor};
    use flightnn::layers::QuantConv2d;

    // An 8-bit fixed-point conv must serve 8-bit weights, not 4-bit.
    let scheme = QuantScheme::FixedPoint {
        weight_bits: 8,
        act_bits: 8,
    };
    let mut rng = TensorRng::seed(23);
    let mut conv = QuantConv2d::new(&mut rng, &scheme, 3, 4, 3, 1, 1);
    let bias = Tensor::from_slice(&[0.5, -0.25, 1.0, 0.125]);
    conv.visit_params(&mut |p| {
        if p.value.dims() == [4] {
            p.value = bias.clone();
        }
    });
    let shadow = conv.weights().shadow().value.clone();
    let mut net = QuantNet::new();
    net.push_conv(conv);
    let compiled = CompiledNet::compile(&mut net, false).expect("compiles");

    // Public kernels and engine quantize each image on its own scale.
    let x = uniform(&mut rng, &[3, 3, 6, 6], -1.0, 1.0);
    let (out, counts) = compiled.forward(&x, &mut ExecCtx::new());

    let qa = QuantActivations::quantize(&x, 8);
    let (mut want, want_counts) = fixed_point_conv(&qa, &FixedWeights::quantize(&shadow, 8), 1, 1);
    add_bias(&mut want, &bias);
    assert_eq!(out.as_slice(), want.as_slice());
    assert_eq!(counts, want_counts);
}

#[test]
fn layers_compile_at_the_schemes_activation_bits() {
    use flight_kernels::fixed::{fixed_point_conv, FixedWeights};
    use flight_kernels::{shift_add_conv, CompiledNet, ExecCtx, QuantActivations, ShiftKernel};
    use flight_tensor::{uniform, Tensor};
    use flightnn::convert::shift_plan;
    use flightnn::layers::QuantConv2d;

    // A 4-bit-activation scheme must quantize conv inputs to 4 bits on
    // both datapaths, as the float network's `ActQuant` does.
    for scheme in [
        QuantScheme::FixedPoint {
            weight_bits: 4,
            act_bits: 4,
        },
        QuantScheme::LightNn { k: 1, act_bits: 4 },
    ] {
        let mut rng = TensorRng::seed(29);
        let mut conv = QuantConv2d::new(&mut rng, &scheme, 3, 4, 3, 1, 1);
        let bias = Tensor::from_slice(&[0.5, -0.25, 1.0, 0.125]);
        conv.visit_params(&mut |p| {
            if p.value.dims() == [4] {
                p.value = bias.clone();
            }
        });
        // Public kernels and engine quantize each image on its own scale.
        let x = uniform(&mut rng, &[3, 3, 6, 6], -1.0, 1.0);
        let qa = QuantActivations::quantize(&x, 4);
        let w = conv.weights_mut();
        let (mut want, want_counts) = match w.fixed_point_bits() {
            Some(bits) => {
                fixed_point_conv(&qa, &FixedWeights::quantize(&w.shadow().value, bits), 1, 1)
            }
            None => {
                let kernel = ShiftKernel::compile(&shift_plan(w), &[4, 3, 3, 3]);
                shift_add_conv(&qa, &kernel, 1, 1)
            }
        };
        add_bias(&mut want, &bias);

        let mut net = QuantNet::new();
        net.push_conv(conv);
        let compiled = CompiledNet::compile(&mut net, false).expect("compiles");
        let (out, counts) = compiled.forward(&x, &mut ExecCtx::new());
        assert_eq!(out.as_slice(), want.as_slice(), "{}", scheme.label());
        assert_eq!(counts, want_counts, "{}", scheme.label());
    }
}

#[test]
fn requant_stages_quantize_at_the_markers_bit_width() {
    use flight_kernels::fixed::{fixed_point_conv, FixedWeights};
    use flight_kernels::{CompiledNet, ExecCtx, OpCounts, QuantActivations};
    use flight_tensor::{uniform, Tensor};
    use flightnn::layers::{ActQuant, QuantConv2d};

    // conv → ActQuant(4) → conv on 4-bit weights and activations: the
    // marker must requantize at its own 4 bits, as the float network's
    // `ActQuant` does, not at 8.
    let scheme = QuantScheme::FixedPoint {
        weight_bits: 4,
        act_bits: 4,
    };
    let mut rng = TensorRng::seed(31);
    let first = QuantConv2d::new(&mut rng, &scheme, 3, 8, 3, 1, 1);
    let second = QuantConv2d::new(&mut rng, &scheme, 8, 4, 3, 1, 1);
    let reference = |conv: &QuantConv2d, x: &Tensor| -> (Tensor, OpCounts) {
        let w = conv.weights();
        let qa = QuantActivations::quantize(x, 4);
        let (mut y, counts) =
            fixed_point_conv(&qa, &FixedWeights::quantize(&w.shadow().value, 4), 1, 1);
        add_bias(&mut y, &w.bias().value);
        (y, counts)
    };
    // Public kernels and engine quantize each image on its own scale.
    let x = uniform(&mut rng, &[3, 3, 8, 8], -1.0, 1.0);
    let (hidden, first_counts) = reference(&first, &x);
    let requantized = QuantActivations::quantize(&hidden, 4).dequantize();
    let (want, second_counts) = reference(&second, &requantized);

    let mut net = QuantNet::new();
    net.push_conv(first);
    net.push_plain(ActQuant::new(4));
    net.push_conv(second);
    let compiled = CompiledNet::compile(&mut net, true).expect("compiles");
    let (out, counts) = compiled.forward(&x, &mut ExecCtx::new());
    assert_eq!(out.as_slice(), want.as_slice());
    assert_eq!(counts, first_counts.merged(second_counts));
}

#[test]
fn float_act_quant_is_bitwise_the_compiled_requant_stage() {
    use flight_kernels::{CompiledNet, ExecCtx};
    use flight_tensor::{uniform, Tensor};
    use flightnn::layers::ActQuant;

    // Four images on very different ranges, with values that round to a
    // negative zero code, in every bit width the schemes use.
    let mut rng = TensorRng::seed(43);
    let mut x = uniform(&mut rng, &[4, 3, 5, 5], -1.0, 1.0);
    for (b, gain) in [1e-3f32, 1.0, 7.5, 300.0].into_iter().enumerate() {
        x.outer_mut(b).iter_mut().for_each(|v| *v *= gain);
    }
    x.outer_mut(1)[0] = -1e-4;
    for bits in [2u32, 4, 8, 16] {
        let float = ActQuant::new(bits).forward(&x, false);
        let mut net = QuantNet::new();
        net.push_plain(ActQuant::new(bits));
        let compiled = CompiledNet::compile(&mut net, false).expect("compiles");
        assert_eq!(compiled.stages(), 1, "one requant stage");
        let (engine, _) = compiled.forward(&x, &mut ExecCtx::new());
        let bits_of = |t: &Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits_of(&float), bits_of(&engine), "{bits} bits");
    }
}

#[test]
fn a_leading_act_quant_is_absorbed_by_the_first_conv() {
    use flight_kernels::engine::CompileError::UnsupportedLayer;
    use flight_kernels::{CompiledNet, ExecCtx};
    use flight_tensor::uniform;
    use flightnn::layers::{ActQuant, QuantConv2d};

    let conv = |seed: u64, scheme: &QuantScheme| {
        QuantConv2d::new(&mut TensorRng::seed(seed), scheme, 3, 4, 3, 1, 1)
    };
    let x = uniform(&mut TensorRng::seed(47), &[2, 3, 6, 6], -1.0, 1.0);
    // Same bits: no stage, same logits as the conv alone.
    let mut marked = QuantNet::new();
    marked.push_plain(ActQuant::new(8));
    marked.push_conv(conv(45, &QuantScheme::l1()));
    let mut bare = QuantNet::new();
    bare.push_conv(conv(45, &QuantScheme::l1()));
    let marked = CompiledNet::compile(&mut marked, false).expect("compiles");
    let bare = CompiledNet::compile(&mut bare, false).expect("compiles");
    assert_eq!(marked.stages(), 1);
    assert_eq!(
        marked.forward(&x, &mut ExecCtx::new()),
        bare.forward(&x, &mut ExecCtx::new())
    );
    // Different bits: an error, not a silently dropped marker.
    let mut mismatched = QuantNet::new();
    mismatched.push_plain(ActQuant::new(4));
    mismatched.push_conv(conv(45, &QuantScheme::l1()));
    assert_eq!(
        CompiledNet::compile(&mut mismatched, false).expect_err("4 ≠ 8 bits"),
        UnsupportedLayer("act_quant(4b)".into())
    );
    // A full-precision conv quantizes nothing, so the marker stays a stage.
    let mut float = QuantNet::new();
    float.push_plain(ActQuant::new(8));
    float.push_conv(conv(45, &QuantScheme::full()));
    let float = CompiledNet::compile(&mut float, false).expect("compiles");
    assert_eq!(float.stages(), 2);
}

/// The stage kinds `net` compiles to, in order.
fn stage_kinds(net: &mut QuantNet) -> Vec<&'static str> {
    use flight_kernels::{CompiledNet, ExecCtx};
    let compiled = CompiledNet::compile(net, true).expect("compiles");
    let mut sample = flight_telemetry::StageSample::new();
    let x = flight_tensor::Tensor::zeros(&[1, 3, 16, 16]);
    compiled.forward_profiled(&x, &mut ExecCtx::new(), &mut sample);
    (0..sample.stages())
        .map(|i| sample.stage(i).expect("recorded").0)
        .collect()
}

#[test]
fn conv_batch_norm_and_leaky_relu_compile_to_one_stage() {
    let build = |id: u8, scheme: &QuantScheme| {
        NetworkConfig::by_id(id).build(scheme, &mut TensorRng::seed(3), 10, [3, 16, 16], 0.25)
    };
    let (c, r, p) = ("conv", "requant", "maxpool");
    assert_eq!(
        stage_kinds(&mut build(1, &QuantScheme::l1())),
        [c, r, c, r, p, c, r, c, r, p, c, r, c, r, c, r, p, "linear"],
        "network 1 quantized: 18 stages"
    );
    assert_eq!(
        stage_kinds(&mut build(1, &QuantScheme::full())),
        [c, c, p, c, c, p, c, c, c, p, "linear"],
        "network 1 full precision: 11 stages"
    );
    let res = "residual";
    assert_eq!(
        stage_kinds(&mut build(8, &QuantScheme::l1())),
        [
            c,
            r,
            res,
            r,
            res,
            r,
            res,
            r,
            res,
            r,
            "global_avg_pool",
            "linear"
        ],
        "network 8 quantized: 12 stages"
    );
}

/// Compiles a 4-filter conv followed by `tail` and returns the error.
fn compile_error_after_conv(
    tail: impl FnOnce(&mut QuantNet),
) -> flight_kernels::engine::CompileError {
    use flightnn::layers::QuantConv2d;
    let mut rng = TensorRng::seed(37);
    let mut net = QuantNet::new();
    net.push_conv(QuantConv2d::new(
        &mut rng,
        &QuantScheme::l1(),
        3,
        4,
        3,
        1,
        1,
    ));
    tail(&mut net);
    flight_kernels::CompiledNet::compile(&mut net, true).expect_err("must not compile")
}

#[test]
fn a_batch_norm_not_directly_after_a_conv_is_rejected() {
    use flight_kernels::engine::CompileError::UnsupportedLayer;
    use flight_nn::layers::{BatchNorm2d, LeakyRelu, MaxPool2d};
    let bn = || UnsupportedLayer("batchnorm2d(4)".into());
    let after_pool = compile_error_after_conv(|net| {
        net.push_plain(MaxPool2d::new(2));
        net.push_plain(BatchNorm2d::new(4));
    });
    assert_eq!(after_pool, bn());
    let after_bn = compile_error_after_conv(|net| {
        net.push_plain(BatchNorm2d::new(4));
        net.push_plain(BatchNorm2d::new(4));
    });
    assert_eq!(after_bn, bn());
    let after_act = compile_error_after_conv(|net| {
        net.push_plain(LeakyRelu::default());
        net.push_plain(BatchNorm2d::new(4));
    });
    assert_eq!(after_act, bn());
}

#[test]
fn a_leaky_relu_not_after_a_conv_or_its_batch_norm_is_rejected() {
    use flight_kernels::engine::CompileError::UnsupportedLayer;
    use flight_nn::layers::{BatchNorm2d, LeakyRelu, MaxPool2d};
    let act = || UnsupportedLayer("leaky_relu(0.01)".into());
    let after_pool = compile_error_after_conv(|net| {
        net.push_plain(MaxPool2d::new(2));
        net.push_plain(LeakyRelu::default());
    });
    assert_eq!(after_pool, act());
    let after_act = compile_error_after_conv(|net| {
        net.push_plain(BatchNorm2d::new(4));
        net.push_plain(LeakyRelu::default());
        net.push_plain(LeakyRelu::default());
    });
    assert_eq!(after_act, act());
}

#[test]
fn a_flatten_not_directly_before_a_linear_layer_is_rejected() {
    use flight_kernels::engine::CompileError::UnsupportedLayer;
    use flight_nn::layers::Flatten;
    use flightnn::layers::{ActQuant, QuantLinear};
    let last = compile_error_after_conv(|net| net.push_plain(Flatten::new()));
    assert_eq!(last, UnsupportedLayer("flatten".into()));
    let before_requant = compile_error_after_conv(|net| {
        net.push_plain(Flatten::new());
        net.push_plain(ActQuant::new(8));
        let mut rng = TensorRng::seed(41);
        net.push_linear(QuantLinear::new(&mut rng, &QuantScheme::l1(), 4 * 36, 3));
    });
    assert_eq!(before_requant, UnsupportedLayer("flatten".into()));
}
