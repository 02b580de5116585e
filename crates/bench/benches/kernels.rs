//! Criterion benches for the integer inference kernels and the
//! quantizer — the software-side counterpart of the paper's
//! "shift-add replaces the multiplier" argument. The interesting output
//! is the op-count ratio (reported by the table bins) plus the relative
//! kernel timings here.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use flight_kernels::fixed::FixedWeights;
use flight_kernels::{
    active_path, fixed_point_conv, shift_add_conv, shift_add_conv_reference,
    shift_add_conv_with_path, KernelPath, QuantActivations, ShiftKernel, LANES,
};
use flight_tensor::{uniform, TensorRng};
use flightnn::convert::shift_plan;
use flightnn::layers::QuantConv2d;
use flightnn::quant::quantize_lightnn;
use flightnn::{QuantScheme, ThresholdQuantizer};

fn conv_inputs() -> (QuantActivations, flight_tensor::Tensor) {
    let mut rng = TensorRng::seed(42);
    let x = uniform(&mut rng, &[1, 16, 16, 16], -1.0, 1.0);
    let w = uniform(&mut rng, &[32, 16, 3, 3], -0.5, 0.5);
    (QuantActivations::quantize(&x, 8), w)
}

fn bench_conv_kernels(c: &mut Criterion) {
    let (qa, w) = conv_inputs();
    let mut group = c.benchmark_group("conv_kernels");

    // Fixed-point multiply datapath (FP 4W8A baseline).
    let qw = FixedWeights::quantize(&w, 4);
    group.bench_function("fixed_point_4w8a", |b| {
        b.iter(|| fixed_point_conv(&qa, &qw, 1, 1))
    });

    // Shift-add datapaths for k = 1 and k = 2.
    for k in [1usize, 2] {
        let scheme = if k == 1 {
            QuantScheme::l1()
        } else {
            QuantScheme::l2()
        };
        let mut rng = TensorRng::seed(42);
        let mut conv = QuantConv2d::new(&mut rng, &scheme, 16, 32, 3, 1, 1);
        conv.weights_mut().shadow_mut().value = w.clone();
        let plan = shift_plan(conv.weights_mut());
        let kernel = ShiftKernel::compile(&plan, &[32, 16, 3, 3]);
        group.bench_with_input(BenchmarkId::new("shift_add", k), &kernel, |b, kern| {
            b.iter(|| shift_add_conv(&qa, kern, 1, 1))
        });
    }
    group.finish();
}

fn bench_kernel_lowering(c: &mut Criterion) {
    // CIFAR-scale shift layer, interpreted tap loop vs lowered tap
    // program vs the batch-major SIMD lanes — the timing counterpart of
    // the `lowering` exhibit bin's single-thread speedup fields. One
    // full lane block (8 images) so the SIMD lanes engage.
    let mut rng = TensorRng::seed(9);
    let x = uniform(&mut rng, &[LANES, 32, 32, 32], -1.0, 1.0);
    let qa = QuantActivations::quantize(&x, 8);
    let mut conv = QuantConv2d::new(&mut rng, &QuantScheme::l2(), 32, 32, 3, 1, 1);
    let plan = shift_plan(conv.weights_mut());
    let kernel = ShiftKernel::compile(&plan, &[32, 32, 3, 3]);

    let mut group = c.benchmark_group("kernel_lowering");
    group.bench_function("naive_shift", |b| {
        b.iter(|| shift_add_conv_reference(&qa, &kernel, 1, 1))
    });
    group.bench_function("lowered_shift_scalar", |b| {
        b.iter(|| shift_add_conv_with_path(&qa, &kernel, 1, 1, KernelPath::Scalar))
    });
    group.bench_function(format!("lowered_shift_{}", active_path().name()), |b| {
        b.iter(|| shift_add_conv(&qa, &kernel, 1, 1))
    });
    group.finish();
}

fn bench_quantizers(c: &mut Criterion) {
    let mut rng = TensorRng::seed(7);
    let w = uniform(&mut rng, &[64, 32, 3, 3], -1.0, 1.0);
    let mut group = c.benchmark_group("quantizers");
    group.bench_function("lightnn_k2", |b| b.iter(|| quantize_lightnn(&w, 2)));
    let q = ThresholdQuantizer::new(2, flightnn::QuantMode::Cascade);
    group.bench_function("flightnn_thresholded", |b| {
        b.iter(|| q.quantize_tensor(&w, &[0.0, 0.1]))
    });
    group.finish();
}

fn bench_training_step(c: &mut Criterion) {
    use flight_data::{DatasetKind, Fidelity, SyntheticDataset};
    use flightnn::configs::NetworkConfig;
    use flightnn::FlightTrainer;

    let data = SyntheticDataset::preset(DatasetKind::Cifar10Like, Fidelity::Smoke, 5);
    let scheme = QuantScheme::flight(1e-5);
    let mut rng = TensorRng::seed(5);
    let mut net =
        NetworkConfig::by_id(1).build(&scheme, &mut rng, data.classes(), data.image_dims(), 0.125);
    let mut trainer = FlightTrainer::new(&scheme, 1e-3);
    let batches = data.train_batches(16);
    let one = &batches[..1];

    c.bench_function("flightnn_train_step_net1", |b| {
        b.iter(|| trainer.train_epoch(&mut net, one))
    });
}

fn bench_telemetry_overhead(c: &mut Criterion) {
    use flight_data::{DatasetKind, Fidelity, SyntheticDataset};
    use flight_kernels::{CompileOptions, IntNetwork};
    use flight_telemetry::{CollectingSink, Telemetry};
    use flightnn::configs::NetworkConfig;
    use flightnn::FlightTrainer;
    use std::sync::Arc;

    let data = SyntheticDataset::preset(DatasetKind::Cifar10Like, Fidelity::Smoke, 5);
    let scheme = QuantScheme::l1();
    let mut rng = TensorRng::seed(5);
    let mut net =
        NetworkConfig::by_id(1).build(&scheme, &mut rng, data.classes(), data.image_dims(), 0.125);
    let mut trainer = FlightTrainer::new(&scheme, 1e-3);
    let batches = data.train_batches(16);
    trainer.train_epoch(&mut net, &batches[..1]);
    let engine =
        IntNetwork::compile_with(&mut net, CompileOptions::new()).expect("network 1 compiles");
    let input = data
        .test_batches(8)
        .first()
        .expect("test data")
        .input
        .clone();

    // The acceptance bar: `forward` on the default null sink must sit
    // within noise of the traced loop's dispatch overhead (<2% — one
    // enablement branch per call; the traced variant pays for real event
    // construction on every stage).
    let mut group = c.benchmark_group("telemetry_overhead");
    group.bench_function("forward_null_sink", |b| b.iter(|| engine.forward(&input)));
    let traced = engine.with_telemetry(Telemetry::new(Arc::new(CollectingSink::new())));
    group.bench_function("forward_traced", |b| b.iter(|| traced.forward(&input)));
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_conv_kernels, bench_kernel_lowering, bench_quantizers, bench_training_step, bench_telemetry_overhead
}
criterion_main!(benches);
