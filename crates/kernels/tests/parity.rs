//! Batch-split invariance suite for the execution engine.
//!
//! The engine quantizes activations with one scale per image, so a
//! batch must equal its parts: forwarding a batch whole is
//! **bit-identical** to forwarding contiguous chunks of it in parallel
//! (one thread and one [`ExecCtx`] per chunk over a shared
//! [`CompiledNet`]) and stitching the logits back together, and the
//! chunks' [`OpCounts`] sum to the batch's. The serving batcher relies
//! on the same invariant when it merges requests into one forward. It
//! must hold for every batch size and every compiled datapath
//! (shift-add, fixed-point, float fallback). These tests
//! use small hand-built untrained networks: the invariant is a property
//! of the execution engine, not of the weights, and untrained nets keep
//! the debug-mode test run fast.

use std::sync::Arc;

use flight_kernels::{CompileOptions, CompiledNet, ExecCtx, IntNetwork, OpCounts};
use flight_nn::layers::{BatchNorm2d, Flatten, GlobalAvgPool, LeakyRelu, MaxPool2d};
use flight_telemetry::{CollectingSink, Telemetry};
use flight_tensor::{uniform, Tensor, TensorRng};
use flightnn::layers::{ActQuant, QuantConv2d, QuantLinear};
use flightnn::net::QuantResidualBlock;
use flightnn::{QuantNet, QuantScheme};
use proptest::prelude::*;

const IMG_DIMS: [usize; 3] = [3, 6, 6];

/// conv → BN → LeakyReLU → maxpool → requant → conv → BN → LeakyReLU →
/// GAP → flatten → linear; covers every non-residual stage kind.
fn conv_net(scheme: &QuantScheme, seed: u64) -> QuantNet {
    let mut rng = TensorRng::seed(seed);
    let mut net = QuantNet::new();
    net.push_conv(QuantConv2d::new(&mut rng, scheme, 3, 4, 3, 1, 1));
    net.push_plain(BatchNorm2d::new(4));
    net.push_plain(LeakyRelu::default());
    net.push_plain(MaxPool2d::new(2));
    net.push_plain(ActQuant::new(8));
    net.push_conv(QuantConv2d::new(&mut rng, scheme, 4, 6, 3, 1, 1));
    net.push_plain(BatchNorm2d::new(6));
    net.push_plain(LeakyRelu::default());
    net.push_plain(GlobalAvgPool::new());
    net.push_plain(Flatten::new());
    net.push_linear(QuantLinear::new(&mut rng, scheme, 6, 4));
    net
}

/// conv → residual block (custom joining slope) → GAP → flatten → linear.
fn residual_net(scheme: &QuantScheme, seed: u64) -> QuantNet {
    let mut rng = TensorRng::seed(seed);
    let mut net = QuantNet::new();
    net.push_conv(QuantConv2d::new(&mut rng, scheme, 3, 4, 3, 1, 1));
    let mut main = QuantNet::new();
    main.push_conv(QuantConv2d::new(&mut rng, scheme, 4, 4, 3, 1, 1));
    main.push_plain(BatchNorm2d::new(4));
    net.push_residual(QuantResidualBlock::from_parts_with_slope(main, None, 0.2));
    net.push_plain(GlobalAvgPool::new());
    net.push_plain(Flatten::new());
    net.push_linear(QuantLinear::new(&mut rng, scheme, 4, 4));
    net
}

fn input_batch(n: usize, seed: u64) -> Tensor {
    let mut rng = TensorRng::seed(seed);
    uniform(
        &mut rng,
        &[n, IMG_DIMS[0], IMG_DIMS[1], IMG_DIMS[2]],
        -1.0,
        1.0,
    )
}

/// Forwards `x` as contiguous chunks of `per` images, each on its own
/// thread with its own [`ExecCtx`] over the shared `net`, and stitches
/// the chunk logits back together in batch order. Returns the stitched
/// logits and the sum of the chunks' op counts.
fn forward_split(engine: &IntNetwork, x: &Tensor, per: usize) -> (Tensor, OpCounts) {
    let net = engine.compiled();
    let n = x.dims()[0];
    let img_len = x.len() / n;
    let parts: Vec<(Tensor, OpCounts)> = std::thread::scope(|scope| {
        let handles: Vec<_> = x
            .as_slice()
            .chunks(per * img_len)
            .map(|chunk| {
                let net = &net;
                let mut dims = x.dims().to_vec();
                dims[0] = chunk.len() / img_len;
                let chunk = Tensor::from_vec(chunk.to_vec(), &dims);
                scope.spawn(move || {
                    let mut ctx = ExecCtx::new();
                    ctx.set_kernel_path(engine.kernel_path());
                    net.forward(&chunk, &mut ctx)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("chunk forward panicked"))
            .collect()
    });
    let mut dims = parts[0].0.dims().to_vec();
    dims[0] = n;
    let mut logits = Vec::new();
    let mut counts = OpCounts::default();
    for (out, c) in parts {
        logits.extend_from_slice(out.as_slice());
        counts += c;
    }
    (Tensor::from_vec(logits, &dims), counts)
}

/// Compiles once, then checks at every batch size in `1..=33` that the
/// whole batch equals its parts bitwise: the four-way contiguous split
/// (`ceil(n/4)` images per chunk) and the one-image-per-chunk split.
fn assert_parity(net: &mut QuantNet, label: &str) {
    let engine =
        IntNetwork::compile_with(net, CompileOptions::new()).expect("test network compiles");
    for n in 1..=33usize {
        let x = input_batch(n, 100 + n as u64);
        let (a, ca) = engine.forward(&x);
        for per in [n.div_ceil(4), 1] {
            let (b, cb) = forward_split(&engine, &x, per);
            assert_eq!(
                a.dims(),
                b.dims(),
                "{label}: dims diverge at batch {n}/{per}"
            );
            assert_eq!(
                a.as_slice(),
                b.as_slice(),
                "{label}: logits diverge at batch {n}/{per}"
            );
            assert_eq!(ca, cb, "{label}: op counts diverge at batch {n}/{per}");
        }
    }
}

#[test]
fn shift_l1_net_parallel_matches_sequential() {
    assert_parity(&mut conv_net(&QuantScheme::l1(), 1), "l1");
}

#[test]
fn shift_l2_net_folded_parallel_matches_sequential() {
    assert_parity(&mut conv_net(&QuantScheme::l2(), 2), "l2");
}

#[test]
fn fixed_point_net_parallel_matches_sequential() {
    assert_parity(&mut conv_net(&QuantScheme::fp4w8a(), 3), "fp4w8a");
}

#[test]
fn full_precision_net_parallel_matches_sequential() {
    assert_parity(&mut conv_net(&QuantScheme::full(), 4), "full");
}

#[test]
fn residual_net_parallel_matches_sequential() {
    assert_parity(&mut residual_net(&QuantScheme::flight(1e-5), 5), "residual");
    assert_parity(&mut residual_net(&QuantScheme::l1(), 6), "residual-l1");
}

#[test]
fn residual_slope_is_plumbed_through_compilation() {
    // Two identical nets except for the residual joining slope must
    // compile to engines that disagree — with the old hardcoded 0.01 the
    // slope would be silently ignored.
    let mut rng = TensorRng::seed(10);
    let x = uniform(&mut rng, &[2, 3, 6, 6], -1.0, 1.0);
    let scheme = QuantScheme::l1();

    let run = |slope: f32| {
        let mut rng = TensorRng::seed(21);
        let mut net = QuantNet::new();
        net.push_conv(QuantConv2d::new(&mut rng, &scheme, 3, 4, 3, 1, 1));
        let mut main = QuantNet::new();
        main.push_conv(QuantConv2d::new(&mut rng, &scheme, 4, 4, 3, 1, 1));
        net.push_residual(QuantResidualBlock::from_parts_with_slope(main, None, slope));
        let engine = IntNetwork::compile_with(&mut net, CompileOptions::new()).expect("compiles");
        engine.forward(&x).0
    };

    let steep = run(0.5);
    let default = run(0.01);
    assert!(
        steep.as_slice() != default.as_slice(),
        "changing the residual slope must change the compiled block's output"
    );
}

#[test]
fn compiled_net_matches_int_network_and_both_compile_paths_agree() {
    let x = input_batch(3, 55);

    // CompiledNet::compile + ExecCtx forward equals the IntNetwork
    // facade.
    for seed in [11u64, 12] {
        let facade = IntNetwork::compile_with(
            &mut conv_net(&QuantScheme::l2(), seed),
            CompileOptions::new(),
        )
        .expect("compiles");
        let bare =
            CompiledNet::compile(&mut conv_net(&QuantScheme::l2(), seed), true).expect("compiles");
        assert_eq!(bare.stages(), facade.stages());
        let mut ctx = ExecCtx::new();
        let (bl, bc) = bare.forward(&x, &mut ctx);
        let (fl, fc) = facade.forward(&x);
        assert_eq!(bl.as_slice(), fl.as_slice(), "seed {seed}: logits diverge");
        assert_eq!(bc, fc, "seed {seed}: counts diverge");
    }
}

#[test]
fn shared_compiled_net_serves_concurrent_contexts() {
    // The request-first split: one Arc<CompiledNet>, N threads each with
    // a private ExecCtx, all producing the reference logits bit-exactly.
    // A reused warm context must behave like a fresh one.
    let mut net = conv_net(&QuantScheme::l1(), 13);
    let engine = IntNetwork::compile_with(&mut net, CompileOptions::new()).expect("compiles");
    let shared = engine.compiled();
    let inputs: Vec<Tensor> = (0..6).map(|i| input_batch(2, 300 + i)).collect();
    let expected: Vec<Vec<f32>> = inputs
        .iter()
        .map(|x| engine.forward(x).0.as_slice().to_vec())
        .collect();

    std::thread::scope(|scope| {
        for worker in 0..4 {
            let shared = shared.clone();
            let inputs = &inputs;
            let expected = &expected;
            scope.spawn(move || {
                let mut ctx = ExecCtx::new();
                // Walk the inputs twice: the second pass runs on warmed
                // scratch arenas and must not change a single bit.
                for pass in 0..2 {
                    for (x, want) in inputs.iter().zip(expected) {
                        let (logits, _) = shared.forward(x, &mut ctx);
                        assert_eq!(
                            logits.as_slice(),
                            &want[..],
                            "worker {worker} pass {pass} diverges"
                        );
                    }
                }
            });
        }
    });
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any `CompileOptions` combination must produce the same logits and
    /// counts as the plain null-sink reference — the scalar-path pin and
    /// telemetry are dispatch and observability knobs, never numerics
    /// knobs.
    #[test]
    fn random_compile_options_never_change_the_numbers(
        force_scalar in any::<bool>(),
        trace in any::<bool>(),
        n in 1usize..7,
    ) {
        let mut reference_net = conv_net(&QuantScheme::l2(), 42);
        let reference = IntNetwork::compile_with(&mut reference_net, CompileOptions::new())
            .expect("compiles");

        let telemetry = if trace {
            Telemetry::new(Arc::new(CollectingSink::new()))
        } else {
            Telemetry::null()
        };
        let mut net = conv_net(&QuantScheme::l2(), 42);
        let engine = IntNetwork::compile_with(
            &mut net,
            CompileOptions::new()
                .force_scalar(force_scalar)
                .telemetry(telemetry),
        )
        .expect("compiles");

        let x = input_batch(n, 200 + n as u64);
        let (a, ca): (Tensor, OpCounts) = reference.forward(&x);
        let (b, cb) = engine.forward(&x);
        prop_assert_eq!(a.as_slice(), b.as_slice());
        prop_assert_eq!(ca, cb);
    }
}
