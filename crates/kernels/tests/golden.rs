//! Golden compiled logits: pins the integer pipeline's logits and
//! [`OpCounts`] bit for bit, so a refactor of the compiler or the stage
//! walk that is meant to change no numbers provably changes none.
//!
//! Each case builds a seeded network 1 (VGG-7) or 8 (ResNet) at width
//! 0.25 on `[3, 16, 16]` images, gives every batch norm seeded
//! non-trivial running statistics and every rank-1 parameter (conv and
//! linear biases, batch-norm γ and β) seeded offsets, compiles it, and
//! forwards one seeded batch of 8 images on the detected kernel path and
//! on the scalar path. The logits hash as FNV-1a over their `to_bits`.
//! The recorded values come from the pipeline that folded batch norms
//! into separate affine stages; the fused conv epilogue must reproduce
//! them exactly.

use flight_kernels::{CompiledNet, ExecCtx, KernelPath, OpCounts};
use flight_nn::Layer;
use flight_tensor::{uniform, Tensor, TensorRng};
use flightnn::configs::NetworkConfig;
use flightnn::{QuantNet, QuantScheme};

/// FNV-1a over the little-endian bytes of every logit's bit pattern.
fn fnv1a(logits: &Tensor) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for v in logits.as_slice() {
        for byte in v.to_bits().to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

fn seeded_net(id: u8, scheme: &QuantScheme) -> QuantNet {
    let mut rng = TensorRng::seed(u64::from(id) * 100 + 7);
    let mut net = NetworkConfig::by_id(id).build(scheme, &mut rng, 10, [3, 16, 16], 0.25);
    // Batch norms visit running mean, then running variance.
    let mut mean_next = true;
    net.visit_state(&mut |t| {
        *t = if mean_next {
            uniform(&mut rng, t.dims(), -0.5, 0.5)
        } else {
            uniform(&mut rng, t.dims(), 0.25, 2.0)
        };
        mean_next = !mean_next;
    });
    net.visit_params(&mut |p| {
        if p.value.dims().len() == 1 {
            p.value = &p.value + &uniform(&mut rng, p.value.dims(), -0.25, 0.25);
        }
    });
    net
}

fn scheme(label: &str) -> QuantScheme {
    match label {
        "L-1" => QuantScheme::l1(),
        "L-2" => QuantScheme::l2(),
        "FP 4W8A" => QuantScheme::fp4w8a(),
        "Full" => QuantScheme::full(),
        other => panic!("no scheme {other}"),
    }
}

/// `(network, scheme, logits hash, op counts as
/// [float_mults, float_adds, int_mults, int_adds, shifts])`.
const GOLDEN: [(u8, &str, u64, [u64; 5]); 8] = [
    (1, "L-1", 0xda394522c41d8033, [0, 0, 0, 1321064, 1351864]),
    (1, "L-2", 0xd66db0806b1a6ade, [0, 0, 0, 2566760, 2597560]),
    (
        1,
        "FP 4W8A",
        0x19295cf125523b36,
        [0, 0, 1362816, 1362816, 0],
    ),
    (1, "Full", 0x6d07cdb12a68457c, [1700864, 1700864, 0, 0, 0]),
    (8, "L-1", 0x2b9395baa03210e2, [0, 0, 0, 6431456, 6523696]),
    (8, "L-2", 0x4feb5775f79fa564, [0, 0, 0, 12477320, 12569560]),
    (
        8,
        "FP 4W8A",
        0xd06de381f2e48169,
        [0, 0, 6556416, 6556416, 0],
    ),
    (8, "Full", 0xf434229130976cd3, [8311808, 8311808, 0, 0, 0]),
];

#[test]
fn compiled_logits_and_op_counts_match_the_golden_record() {
    let x = uniform(&mut TensorRng::seed(4242), &[8, 3, 16, 16], -1.0, 1.0);
    let mut failures = Vec::new();
    for (id, label, want_hash, want_counts) in GOLDEN {
        let mut net = seeded_net(id, &scheme(label));
        // `true` asked earlier versions of the compiler to fold batch
        // norms; folding is now the only path and the flag is ignored.
        let compiled = CompiledNet::compile(&mut net, true).expect("compiles");
        let mut detected = ExecCtx::new();
        let mut scalar = ExecCtx::new();
        scalar.set_kernel_path(KernelPath::Scalar);
        for ctx in [&mut detected, &mut scalar] {
            let (logits, counts) = compiled.forward(&x, ctx);
            let OpCounts {
                float_mults,
                float_adds,
                int_mults,
                int_adds,
                shifts,
            } = counts;
            let got = (
                fnv1a(&logits),
                [float_mults, float_adds, int_mults, int_adds, shifts],
            );
            if got != (want_hash, want_counts) {
                failures.push(format!(
                    "({id}, {label:?}, {:#018x}, {:?}), // path {}",
                    got.0,
                    got.1,
                    ctx.kernel_path().name()
                ));
            }
        }
    }
    assert!(
        failures.is_empty(),
        "golden mismatch:\n{}",
        failures.join("\n")
    );
}
