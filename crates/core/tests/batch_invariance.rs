//! One meaning for activation quantization: every `ActQuant` — including
//! the one in front of the first conv — quantizes each image on its own
//! scale, so a network's float eval logits for an image are bitwise the
//! same alone and inside any batch.

use flight_nn::Layer;
use flight_tensor::{uniform, Tensor, TensorRng};
use flightnn::configs::NetworkConfig;
use flightnn::reg::RegStrength;
use flightnn::QuantScheme;
use proptest::prelude::*;

/// L-1, L-2, FP 4W8A and FL_b: every activation-quantizing scheme the
/// benchmarks serve.
fn schemes() -> [QuantScheme; 4] {
    [
        QuantScheme::l1(),
        QuantScheme::l2(),
        QuantScheme::fp4w8a(),
        QuantScheme::flight_with(RegStrength::new(vec![0.0, 0.9]), 2),
    ]
}

/// A `[n, 3, 16, 16]` batch whose images span very different ranges, so
/// a batch-wide scale would differ from every image's own.
fn spread_batch(rng: &mut TensorRng, n: usize) -> Tensor {
    let mut x = uniform(rng, &[n, 3, 16, 16], -1.0, 1.0);
    let gains = uniform(rng, &[n], -2.0, 2.0);
    for (b, &g) in gains.as_slice().iter().enumerate() {
        let gain = 10f32.powf(g);
        x.outer_mut(b).iter_mut().for_each(|v| *v *= gain);
    }
    x
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn float_eval_logits_of_an_image_ignore_its_batchmates(
        seed in 0u64..10_000,
        n in 2usize..7,
    ) {
        // Network 1 is a VGG-7, network 2 a ResNet-18.
        for id in [1u8, 2] {
            for scheme in schemes() {
                let mut rng = TensorRng::seed(seed);
                let mut net =
                    NetworkConfig::by_id(id).build(&scheme, &mut rng, 10, [3, 16, 16], 0.25);
                let x = spread_batch(&mut rng, n);
                let batched = net.forward(&x, false);
                for b in 0..n {
                    let image = Tensor::from_vec(x.outer(b).to_vec(), &[1, 3, 16, 16]);
                    let alone = net.forward(&image, false);
                    prop_assert_eq!(
                        batched.outer(b),
                        alone.as_slice(),
                        "network {} {}: image {} of {}",
                        id,
                        scheme.label(),
                        b,
                        n
                    );
                }
            }
        }
    }
}
