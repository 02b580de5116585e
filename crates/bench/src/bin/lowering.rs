//! Kernel-lowering exhibit: interpreted tap loops vs the lowered tap
//! programs (precomputed offsets into a zero-padded input) vs the
//! batch-major SIMD lanes on a CIFAR-scale shift-add layer. Set
//! FLIGHT_FIDELITY=smoke|bench|full and (optionally)
//! FLIGHT_TELEMETRY=stderr|jsonl:<path>. The manifest carries top-level
//! `parity`, `simd_parity`, `speedup`, and `scalar_vs_simd_speedup`
//! fields so CI can gate on them: the parity fields are the bitwise
//! logits-and-counts agreement of the lowered kernel (`parity`) and of
//! every pinned dispatch path (`simd_parity`) with the interpreted
//! reference, `speedup` is the dispatched kernel over naive (single
//! thread), and `scalar_vs_simd_speedup` is the SIMD lane path over the
//! pinned per-image scalar path on the same lowered program.

use std::time::Instant;

use flight_bench::suite::ModelRow;
use flight_bench::{BenchProfile, BenchRun};
use flight_data::Fidelity;
use flight_kernels::{
    active_path, shift_add_conv, shift_add_conv_reference, shift_add_conv_with_path, KernelPath,
    QuantActivations, ShiftKernel, LANES,
};
use flight_telemetry::json::JsonValue;
use flight_tensor::{uniform, TensorRng};
use flightnn::convert::shift_plan;
use flightnn::layers::QuantConv2d;
use flightnn::QuantScheme;

/// CIFAR-scale layer: 32 input planes at 32x32, 32 filters, 3x3, pad 1.
const CHANNELS: usize = 32;
const FILTERS: usize = 32;
const SIDE: usize = 32;

fn main() {
    let run = BenchRun::start("lowering");
    let profile = BenchProfile::from_env();
    let smoke = profile.fidelity == Fidelity::Smoke;
    // Smoke still fills one SIMD lane block, so the SIMD lane path
    // is exercised (and gated) at every fidelity.
    let batch = if smoke { LANES } else { 16 };
    let reps = if smoke { 3 } else { 10 };
    println!(
        "Kernel lowering: {CHANNELS}ch {SIDE}x{SIDE} k3 L-2, batch {batch}, profile {:?}",
        profile.fidelity
    );

    // One real quantized layer, compiled to a tap program.
    let scheme = QuantScheme::l2();
    let mut rng = TensorRng::seed(profile.seed);
    let mut conv = QuantConv2d::new(&mut rng, &scheme, CHANNELS, FILTERS, 3, 1, 1);
    let plan = shift_plan(conv.weights_mut());
    let kernel = ShiftKernel::compile(&plan, &[FILTERS, CHANNELS, 3, 3]);
    let x = uniform(&mut rng, &[batch, CHANNELS, SIDE, SIDE], -1.0, 1.0);
    let qa = QuantActivations::quantize(&x, 8);

    // Parity gate 1: the dispatched kernel (SIMD where the host has it)
    // vs the interpreted reference, bitwise, logits and op counts both.
    let (lo_out, lo_counts) = shift_add_conv(&qa, &kernel, 1, 1);
    let (re_out, re_counts) = shift_add_conv_reference(&qa, &kernel, 1, 1);
    let parity = lo_out.as_slice() == re_out.as_slice() && lo_counts == re_counts;

    // Parity gate 1b: every pinned dispatch path against the same
    // oracle — AVX2/portable lanes and the per-image scalar path must
    // all produce the reference bits.
    let simd = active_path();
    let simd_parity = [KernelPath::Portable, KernelPath::Scalar, simd]
        .into_iter()
        .all(|path| {
            let (out, counts) = shift_add_conv_with_path(&qa, &kernel, 1, 1, path);
            out.as_slice() == re_out.as_slice() && counts == re_counts
        });

    let time = |f: &dyn Fn()| {
        let start = Instant::now();
        for _ in 0..reps {
            f();
        }
        (reps * batch) as f64 / start.elapsed().as_secs_f64().max(1e-9)
    };
    let naive_ips = time(&|| {
        let _ = shift_add_conv_reference(&qa, &kernel, 1, 1);
    });
    let scalar_ips = time(&|| {
        let _ = shift_add_conv_with_path(&qa, &kernel, 1, 1, KernelPath::Scalar);
    });
    let simd_ips = time(&|| {
        let _ = shift_add_conv_with_path(&qa, &kernel, 1, 1, simd);
    });
    let speedup = simd_ips / naive_ips.max(1e-9);
    let scalar_vs_simd = simd_ips / scalar_ips.max(1e-9);
    println!(
        "single thread: naive {naive_ips:.1} img/s | lowered scalar {scalar_ips:.1} img/s | \
         simd[{simd}] {simd_ips:.1} img/s | {speedup:.2}x over naive, \
         {scalar_vs_simd:.2}x over scalar"
    );

    println!("parity: {parity} (paths {simd_parity})");

    let row = |label: &str, ips: f64, rel: f64| ModelRow {
        label: label.to_string(),
        accuracy: 0.0,
        storage_mb: 0.0,
        throughput: ips,
        speedup: rel,
        energy_uj: 0.0,
        mean_k: None,
    };
    let tables = [(
        "shift_conv".to_string(),
        vec![
            row("naive", naive_ips, 1.0),
            row(
                "lowered scalar",
                scalar_ips,
                scalar_ips / naive_ips.max(1e-9),
            ),
            row(&format!("lowered simd [{simd}]"), simd_ips, speedup),
        ],
    )];
    run.finish_with(
        Some(&profile),
        &tables,
        &[
            ("parity", JsonValue::Bool(parity)),
            ("simd_parity", JsonValue::Bool(simd_parity)),
            ("speedup", JsonValue::Number(speedup)),
            ("scalar_vs_simd_speedup", JsonValue::Number(scalar_vs_simd)),
        ],
    );
    assert!(parity, "lowered kernels diverged from the references");
    assert!(simd_parity, "a dispatch path diverged from the reference");
}
