//! The deployment path end to end: train a FLightNN, save its
//! parameters, reload them into a fresh network, compile the network to
//! the multiplier-free integer pipeline (with batch norms folded), and
//! verify that the reloaded network's float logits equal the trained
//! network's bit for bit, and that the integer pipeline predicts the
//! float network's top-1 class for every test image while executing zero
//! multiplies.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example deploy_int8
//! ```

use flight_data::{DatasetKind, Fidelity, SyntheticDataset};
use flight_kernels::{CompileOptions, IntNetwork};
use flight_nn::loss::top_k_accuracy;
use flight_nn::Layer;
use flight_tensor::TensorRng;
use flightnn::configs::NetworkConfig;
use flightnn::io::{load_params, save_params};
use flightnn::reg::RegStrength;
use flightnn::{FlightTrainer, QuantScheme};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Train.
    let data = SyntheticDataset::preset(DatasetKind::Cifar10Like, Fidelity::Smoke, 7);
    let scheme = QuantScheme::flight_with(RegStrength::new(vec![0.0, 3.0]), 2);
    let cfg = NetworkConfig::by_id(1);
    let mut rng = TensorRng::seed(3);
    let mut net = cfg.build(&scheme, &mut rng, data.classes(), data.image_dims(), 0.25);
    let mut trainer = FlightTrainer::new(&scheme, 3e-3);
    trainer.fit_two_phase(&mut net, &data.train_batches(16), 30);

    // 2. Save → reload into a fresh network (as a deployment step would).
    let mut checkpoint = Vec::new();
    save_params(&mut net, &mut checkpoint)?;
    println!("checkpoint: {} bytes", checkpoint.len());

    let mut rng2 = TensorRng::seed(99);
    let mut deployed = cfg.build(&scheme, &mut rng2, data.classes(), data.image_dims(), 0.25);
    load_params(&mut deployed, &mut checkpoint.as_slice())?;

    // 3. Compile to the integer pipeline: every conv → batch norm →
    //    LeakyReLU becomes one conv stage with a fused epilogue. Each
    //    forward runs its batch on the calling thread.
    let engine = IntNetwork::compile_with(&mut deployed, CompileOptions::new())?;
    println!("compiled integer pipeline: {} stages", engine.stages());

    // 4. Compare float vs integer predictions image by image, and count
    //    operations. Both paths quantize every image on its own scales
    //    through the same function, so they must agree.
    let mut float_correct = 0.0;
    let mut int_correct = 0.0;
    let mut samples = 0usize;
    let mut agree = 0usize;
    let mut max_gap = 0.0f32;
    let mut total_counts = flight_kernels::OpCounts::default();
    for batch in data.test_batches(16) {
        let fl = deployed.forward(&batch.input, false);
        let trained = net.forward(&batch.input, false);
        assert_eq!(
            fl.as_slice(),
            trained.as_slice(),
            "the reloaded network must reproduce the trained logits bitwise"
        );
        let (il, counts) = engine.forward(&batch.input);
        float_correct += top_k_accuracy(&fl, &batch.labels, 1) * batch.len() as f32;
        int_correct += top_k_accuracy(&il, &batch.labels, 1) * batch.len() as f32;
        agree += (0..batch.len())
            .filter(|&i| top1(fl.outer(i)) == top1(il.outer(i)))
            .count();
        max_gap = fl
            .as_slice()
            .iter()
            .zip(il.as_slice())
            .fold(max_gap, |m, (&a, &b)| m.max((a - b).abs()));
        total_counts += counts;
        samples += batch.len();
    }
    println!(
        "float path:   {:.2}% top-1",
        100.0 * float_correct / samples as f32
    );
    println!(
        "integer path: {:.2}% top-1",
        100.0 * int_correct / samples as f32
    );
    println!("top-1 agreement: {agree}/{samples} images, largest logit gap {max_gap:e}");
    assert_eq!(
        agree, samples,
        "the integer pipeline must predict what the float network predicts"
    );
    assert_eq!(float_correct, int_correct);
    println!("integer ops over the test set: {total_counts}");
    assert_eq!(
        total_counts.int_mults, 0,
        "the deployed FLightNN must not multiply"
    );
    println!("zero integer multiplies — the multiplier is gone.");
    Ok(())
}

/// The index of a row's largest logit (the first of equal maxima).
fn top1(row: &[f32]) -> usize {
    (0..row.len()).fold(0, |best, j| if row[j] > row[best] { j } else { best })
}
