//! Parity suite for the lowered tap-program kernels.
//!
//! The lowered cores (precomputed offsets into a zero-padded input,
//! closed-form op accounting) must be **bit-identical** — logits and
//! [`OpCounts`] — to the retained interpreted reference cores across the
//! whole geometry space: every kernel size, stride, padding, and odd
//! input shape, including windows that lie partly or wholly in padding.
//! The reference cores are the oracle; they count ops inside the loop,
//! so agreement also pins the counting conventions documented on
//! [`OpCounts`].

use std::collections::BTreeSet;
use std::sync::Arc;

use flight_kernels::fixed::{
    fixed_point_conv, fixed_point_conv_reference, fixed_point_conv_with_path, FixedWeights,
};
use flight_kernels::shift::{
    shift_add_conv, shift_add_conv_reference, shift_add_conv_with_path, ShiftCompileError,
    ShiftKernel,
};
use flight_kernels::{
    active_path, cpu_features, CompileOptions, ExecCtx, IntNetwork, KernelPath, OpCounts,
    QuantActivations, LANES,
};
use flight_telemetry::{worker_prefix, CollectingSink, EventKind, Telemetry};
use flight_tensor::{uniform, Conv2dGeometry, Tensor, TensorRng};
use flightnn::convert::{shift_plan, FilterPlan, ShiftPlan, SubFilter};
use flightnn::layers::QuantConv2d;
use flightnn::{QuantNet, QuantScheme};
use proptest::prelude::*;

/// Compiles a shift kernel for the given shape from a real quantized
/// conv layer.
fn shift_kernel(seed: u64, scheme: &QuantScheme, c: usize, f: usize, k: usize) -> ShiftKernel {
    let mut rng = TensorRng::seed(seed);
    let mut conv = QuantConv2d::new(&mut rng, scheme, c, f, k, 1, 0);
    let plan = shift_plan(conv.weights_mut());
    ShiftKernel::compile(&plan, &[f, c, k, k])
}

fn activations(seed: u64, n: usize, c: usize, h: usize, w: usize) -> QuantActivations {
    let mut rng = TensorRng::seed(seed);
    let x = uniform(&mut rng, &[n, c, h, w], -1.0, 1.0);
    QuantActivations::quantize(&x, 8)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Lowered shift-add conv == interpreted reference, bitwise, over the
    /// geometry space the padded offsets and the tally have to get right.
    #[test]
    fn lowered_shift_conv_is_bit_identical_to_reference(
        k_idx in 0usize..3,
        stride in 1usize..3,
        padding in 0usize..3,
        h in 3usize..12,
        w in 3usize..12,
        c in 1usize..4,
        f in 1usize..5,
        n in 1usize..4,
        seed in 0u64..1000,
    ) {
        let k = [1, 3, 5][k_idx];
        prop_assume!(h + 2 * padding >= k && w + 2 * padding >= k);

        let kernel = shift_kernel(seed, &QuantScheme::l2(), c, f, k);
        let qa = activations(seed.wrapping_add(1), n, c, h, w);

        let (lowered, lc) = shift_add_conv(&qa, &kernel, stride, padding);
        let (reference, rc) = shift_add_conv_reference(&qa, &kernel, stride, padding);
        prop_assert_eq!(lowered.as_slice(), reference.as_slice(),
            "logits diverge at k={} s={} p={} {}x{}", k, stride, padding, h, w);
        prop_assert_eq!(lc, rc,
            "op counts diverge at k={} s={} p={} {}x{}", k, stride, padding, h, w);
    }

    /// Lowered fixed-point conv == interpreted reference, bitwise.
    #[test]
    fn lowered_fixed_conv_is_bit_identical_to_reference(
        k_idx in 0usize..3,
        stride in 1usize..3,
        padding in 0usize..3,
        h in 3usize..12,
        w in 3usize..12,
        c in 1usize..4,
        f in 1usize..5,
        n in 1usize..4,
        seed in 0u64..1000,
    ) {
        let k = [1, 3, 5][k_idx];
        prop_assume!(h + 2 * padding >= k && w + 2 * padding >= k);

        let mut rng = TensorRng::seed(seed);
        let weights = FixedWeights::quantize(&uniform(&mut rng, &[f, c, k, k], -0.5, 0.5), 4);
        let qa = activations(seed.wrapping_add(1), n, c, h, w);

        let (lowered, lc) = fixed_point_conv(&qa, &weights, stride, padding);
        let (reference, rc) = fixed_point_conv_reference(&qa, &weights, stride, padding);
        prop_assert_eq!(lowered.as_slice(), reference.as_slice(),
            "outputs diverge at k={} s={} p={} {}x{}", k, stride, padding, h, w);
        prop_assert_eq!(lc, rc,
            "op counts diverge at k={} s={} p={} {}x{}", k, stride, padding, h, w);
    }
}

/// The dispatch paths every conv call can take: the detected one (AVX2
/// where the host has it), the portable lane fallback, and the pinned
/// per-image scalar path.
fn all_paths() -> [KernelPath; 3] {
    [active_path(), KernelPath::Portable, KernelPath::Scalar]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every dispatch path of the shift datapath — detected (AVX2 on this
    /// host if present), portable lanes, and scalar — produces logits and
    /// op counts bit-identical to the interpreted reference, across
    /// geometry × batch sizes 1..=33: below one lane, exact lane
    /// multiples, and non-lane-multiple remnants.
    #[test]
    fn every_shift_path_is_bit_identical_across_batches(
        k_idx in 0usize..3,
        stride in 1usize..3,
        padding in 0usize..3,
        h in 3usize..10,
        w in 3usize..10,
        c in 1usize..3,
        f in 1usize..4,
        n in 1usize..=33,
        seed in 0u64..1000,
    ) {
        let k = [1, 3, 5][k_idx];
        prop_assume!(h + 2 * padding >= k && w + 2 * padding >= k);

        let kernel = shift_kernel(seed, &QuantScheme::l2(), c, f, k);
        let qa = activations(seed.wrapping_add(1), n, c, h, w);
        let (reference, rc) = shift_add_conv_reference(&qa, &kernel, stride, padding);

        for path in all_paths() {
            let (out, counts) = shift_add_conv_with_path(&qa, &kernel, stride, padding, path);
            prop_assert_eq!(out.as_slice(), reference.as_slice(),
                "{} logits diverge at k={} s={} p={} {}x{} n={}",
                path, k, stride, padding, h, w, n);
            prop_assert_eq!(counts, rc,
                "{} op counts diverge at k={} s={} p={} {}x{} n={}",
                path, k, stride, padding, h, w, n);
        }
    }

    /// Same path matrix for the fixed-point datapath.
    #[test]
    fn every_fixed_path_is_bit_identical_across_batches(
        k_idx in 0usize..3,
        stride in 1usize..3,
        padding in 0usize..3,
        h in 3usize..10,
        w in 3usize..10,
        c in 1usize..3,
        f in 1usize..4,
        n in 1usize..=33,
        seed in 0u64..1000,
    ) {
        let k = [1, 3, 5][k_idx];
        prop_assume!(h + 2 * padding >= k && w + 2 * padding >= k);

        let mut rng = TensorRng::seed(seed);
        let weights = FixedWeights::quantize(&uniform(&mut rng, &[f, c, k, k], -0.5, 0.5), 4);
        let qa = activations(seed.wrapping_add(1), n, c, h, w);
        let (reference, rc) = fixed_point_conv_reference(&qa, &weights, stride, padding);

        for path in all_paths() {
            let (out, counts) = fixed_point_conv_with_path(&qa, &weights, stride, padding, path);
            prop_assert_eq!(out.as_slice(), reference.as_slice(),
                "{} outputs diverge at k={} s={} p={} {}x{} n={}",
                path, k, stride, padding, h, w, n);
            prop_assert_eq!(counts, rc,
                "{} op counts diverge at k={} s={} p={} {}x{} n={}",
                path, k, stride, padding, h, w, n);
        }
    }
}

#[test]
fn shift_counts_follow_k_shifts_k_minus_1_adds_analytically() {
    // Padding 0: every window lies inside the input and executes every
    // tap, so the totals close in closed form: `taps` shifts per position
    // and `taps − 1` adds per filter with at least one tap.
    let kernel = shift_kernel(3, &QuantScheme::l2(), 2, 3, 3);
    let qa = activations(4, 2, 2, 9, 9);
    let (_, counts) = shift_add_conv(&qa, &kernel, 1, 0);
    let positions = 7 * 7 * 2; // out 7x7, batch 2
    assert_eq!(counts.shifts, kernel.total_taps() as u64 * positions);
    assert!(counts.int_adds < counts.shifts, "k taps cost k−1 adds");
    assert_eq!(counts.int_mults, 0, "shift path never multiplies");
}

#[test]
fn fixed_counts_follow_one_mac_per_tap_analytically() {
    let mut rng = TensorRng::seed(5);
    let weights = FixedWeights::quantize(&uniform(&mut rng, &[3, 2, 3, 3], -0.5, 0.5), 4);
    let qa = activations(6, 2, 2, 9, 9);
    let (_, counts) = fixed_point_conv(&qa, &weights, 1, 0);
    let taps_per_position = 3 * 2 * 3 * 3;
    let positions = 7 * 7 * 2;
    assert_eq!(counts.int_mults, (taps_per_position * positions) as u64);
    assert_eq!(counts.int_mults, counts.int_adds, "one fused MAC per tap");
    assert_eq!(counts.shifts, 0, "fixed path never shifts");
}

#[test]
fn lanes_leave_programs_whose_i32_accumulators_would_wrap() {
    // Constant inputs whose every interior sum exceeds i32::MAX: one full
    // lane block must fall back to the i64 scalar path instead of
    // wrapping, on every lane implementation, for both datapaths.
    let ones = |dims: &[usize]| Tensor::from_vec(vec![1.0; dims.iter().product()], dims);
    // Fixed point: 16-bit codes (32767) times nine 16-bit weights
    // (32767) is ~9.7e9.
    let fixed_act = QuantActivations::quantize(&ones(&[LANES, 1, 6, 6]), 16);
    let fixed = FixedWeights::quantize(&ones(&[2, 1, 3, 3]), 16);
    // Shift-add: 8-bit codes (127) through one tap of 1 and three taps of
    // 2^24 (shift 24, inside the lane shift range) is ~6.4e9.
    let shift_act = QuantActivations::quantize(&ones(&[LANES, 1, 6, 6]), 8);
    let big = 16_777_216.0;
    let plan = ShiftPlan {
        filters: vec![FilterPlan {
            subfilters: vec![SubFilter {
                coefficients: vec![1.0, big, big, big],
            }],
        }],
        filter_len: 4,
    };
    let shift = ShiftKernel::compile(&plan, &[1, 1, 2, 2]);

    let mut paths = vec![KernelPath::Portable];
    if cpu_features().avx2 {
        paths.push(KernelPath::Avx2);
    }
    for path in paths {
        let cases = [
            (
                "fixed",
                fixed_point_conv_with_path(&fixed_act, &fixed, 1, 0, path),
                fixed_point_conv_reference(&fixed_act, &fixed, 1, 0),
            ),
            (
                "shift",
                shift_add_conv_with_path(&shift_act, &shift, 1, 0, path),
                shift_add_conv_reference(&shift_act, &shift, 1, 0),
            ),
        ];
        for (datapath, (out, counts), (want, want_counts)) in cases {
            assert_eq!(out.as_slice(), want.as_slice(), "{datapath} on {path}");
            assert_eq!(counts, want_counts, "{datapath} on {path}");
        }
    }
}

#[test]
fn lowering_stats_partition_every_geometry() {
    // Padding puts no position on a second program: every geometry runs
    // the same taps, so the program shape is geometry-independent.
    let kernel = shift_kernel(7, &QuantScheme::l1(), 2, 3, 3);
    for (h, w, stride, padding) in [(7, 9, 1, 1), (8, 8, 2, 1), (3, 3, 1, 2), (9, 5, 2, 0)] {
        let geom = Conv2dGeometry::new(2, h, w, 3, stride, padding);
        let stats = kernel.lowering_stats(&geom);
        assert_eq!(stats.total_taps, kernel.total_taps(), "{geom:?}");
        assert_eq!(stats.filters, 3, "{geom:?}");
        assert_eq!(
            stats.mean_taps_per_filter(),
            kernel.total_taps() as f64 / 3.0,
            "{geom:?}"
        );
    }
}

#[test]
fn try_compile_surfaces_errors_through_the_public_api() {
    let plan = ShiftPlan {
        filters: vec![FilterPlan {
            subfilters: vec![SubFilter {
                coefficients: vec![0.75, 0.0, 0.5, -1.0],
            }],
        }],
        filter_len: 4,
    };
    let err = ShiftKernel::try_compile(&plan, &[1, 1, 2, 2]).unwrap_err();
    assert!(
        matches!(
            err,
            ShiftCompileError::NotPowerOfTwo {
                filter: 0,
                index: 0,
                ..
            }
        ),
        "0.75 is not ±2^e: {err}"
    );
    // The panicking wrapper and the Result path agree on valid input.
    let good = ShiftPlan {
        filters: vec![FilterPlan {
            subfilters: vec![SubFilter {
                coefficients: vec![0.25, 0.0, 0.5, -1.0],
            }],
        }],
        filter_len: 4,
    };
    let a = ShiftKernel::try_compile(&good, &[1, 1, 2, 2]).expect("valid plan compiles");
    let b = ShiftKernel::compile(&good, &[1, 1, 2, 2]);
    assert_eq!(a.total_taps(), b.total_taps());
}

/// One small shift-datapath net: conv → conv → linear-ish tail kept
/// minimal so traced runs stay fast.
fn tiny_net(seed: u64) -> QuantNet {
    let mut rng = TensorRng::seed(seed);
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
    net.push_conv(QuantConv2d::new(
        &mut rng,
        &QuantScheme::l1(),
        4,
        4,
        3,
        1,
        1,
    ));
    net
}

#[test]
fn sequential_trace_emits_kernel_lowering_events() {
    let sink = Arc::new(CollectingSink::new());
    let engine = IntNetwork::compile_with(
        &mut tiny_net(11),
        CompileOptions::new().telemetry(Telemetry::new(sink.clone())),
    )
    .expect("compiles");
    let mut rng = TensorRng::seed(12);
    let x = uniform(&mut rng, &[2, 3, 6, 6], -1.0, 1.0);
    let _ = engine.forward(&x);

    let events = sink.events();
    let spans = events
        .iter()
        .filter(|e| e.kind == EventKind::SpanEnd && e.name == "kernel.lowering")
        .count();
    assert_eq!(spans, 2, "one lowering span per conv stage");
    // Every position runs the one padded program, so there is no
    // position split to gauge: taps per filter is the only lowering gauge.
    let gauges: BTreeSet<&str> = events
        .iter()
        .filter(|e| e.kind == EventKind::Gauge && e.name.starts_with("kernel.lowering."))
        .map(|e| e.name.as_str())
        .collect();
    assert_eq!(gauges, BTreeSet::from(["kernel.lowering.taps_per_filter"]));
}

#[test]
fn parallel_workers_attribute_lowering_events_through_prefix_sink() {
    // The serving shape: worker threads share one compiled net, each
    // with its own ExecCtx emitting through a worker-prefixed handle.
    let sink = Arc::new(CollectingSink::new());
    let telemetry = Telemetry::new(sink.clone());
    let engine =
        IntNetwork::compile_with(&mut tiny_net(13), CompileOptions::new()).expect("compiles");
    let net = engine.compiled();
    let mut rng = TensorRng::seed(14);
    let x = uniform(&mut rng, &[4, 3, 6, 6], -1.0, 1.0);
    std::thread::scope(|scope| {
        for w in 0..2 {
            let (net, x) = (&net, &x);
            let mut ctx = ExecCtx::with_telemetry(telemetry.with_prefix(&worker_prefix(w)));
            scope.spawn(move || net.forward(x, &mut ctx));
        }
    });

    let events = sink.events();
    for worker in ["kernel.worker.00.", "kernel.worker.01."] {
        let spans = events
            .iter()
            .filter(|e| {
                e.kind == EventKind::SpanEnd && e.name == format!("{worker}kernel.lowering")
            })
            .count();
        assert_eq!(
            spans, 2,
            "{worker} emits one prefixed lowering span per conv"
        );
        assert!(
            events.iter().any(|e| e.kind == EventKind::Gauge
                && e.name == format!("{worker}kernel.lowering.taps_per_filter")),
            "{worker} emits prefixed lowering gauges"
        );
    }
}

#[test]
fn force_scalar_compile_option_matches_the_detected_path_bitwise() {
    let fast =
        IntNetwork::compile_with(&mut tiny_net(21), CompileOptions::new()).expect("compiles");
    let pinned =
        IntNetwork::compile_with(&mut tiny_net(21), CompileOptions::new().force_scalar(true))
            .expect("compiles");
    assert_eq!(pinned.kernel_path(), KernelPath::Scalar);

    // 9 images: one full lane block plus a remnant image.
    let mut rng = TensorRng::seed(22);
    let x = uniform(&mut rng, &[9, 3, 6, 6], -1.0, 1.0);
    let (a, ca) = fast.forward(&x);
    let (b, cb) = pinned.forward(&x);
    assert_eq!(a.as_slice(), b.as_slice(), "forced scalar diverges");
    assert_eq!(ca, cb, "op counts are dispatch-invariant");
}

#[test]
fn traces_record_the_kernel_dispatch_path() {
    let sink = Arc::new(CollectingSink::new());
    let engine = IntNetwork::compile_with(
        &mut tiny_net(23),
        CompileOptions::new().telemetry(Telemetry::new(sink.clone())),
    )
    .expect("compiles");
    let mut rng = TensorRng::seed(24);
    let x = uniform(&mut rng, &[2, 3, 6, 6], -1.0, 1.0);
    let _ = engine.forward(&x);

    let expected = format!("kernel.dispatch.{}", engine.kernel_path().name());
    let events = sink.events();
    assert!(
        events
            .iter()
            .any(|e| e.kind == EventKind::Gauge && e.name == expected && e.value == 1.0),
        "forward must gauge its dispatch path as {expected}"
    );
}

#[test]
fn null_sink_emits_nothing_but_computes_the_same() {
    // The lowered cores must not depend on telemetry being live.
    let traced_sink = Arc::new(CollectingSink::new());
    let traced = IntNetwork::compile_with(
        &mut tiny_net(15),
        CompileOptions::new().telemetry(Telemetry::new(traced_sink)),
    )
    .expect("compiles");
    let silent =
        IntNetwork::compile_with(&mut tiny_net(15), CompileOptions::new()).expect("compiles");
    let mut rng = TensorRng::seed(16);
    let x = uniform(&mut rng, &[3, 3, 6, 6], -1.0, 1.0);
    let (a, ca): (Tensor, OpCounts) = traced.forward(&x);
    let (b, cb) = silent.forward(&x);
    assert_eq!(a.as_slice(), b.as_slice());
    assert_eq!(ca, cb);
}
