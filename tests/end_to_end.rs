//! End-to-end integration: every quantization scheme trains on the
//! synthetic data through the full stack (data → configs → quant layers →
//! Algorithm 1) and the cross-scheme invariants of the paper's tables
//! hold at smoke scale.

use flight_data::{DatasetKind, Fidelity, SyntheticDataset};
use flight_nn::evaluate;
use flight_tensor::TensorRng;
use flightnn::configs::NetworkConfig;
use flightnn::reg::RegStrength;
use flightnn::storage::storage_report;
use flightnn::{FlightTrainer, QuantNet, QuantScheme};

fn train(scheme: &QuantScheme, seed: u64, epochs: usize) -> (QuantNet, f32) {
    let data = SyntheticDataset::preset(DatasetKind::Cifar10Like, Fidelity::Smoke, 7);
    let cfg = NetworkConfig::by_id(1);
    let mut rng = TensorRng::seed(seed);
    let mut net = cfg.build(scheme, &mut rng, data.classes(), data.image_dims(), 0.25);
    let mut trainer = FlightTrainer::new(scheme, 3e-3);
    let batches = data.train_batches(16);
    if matches!(scheme, QuantScheme::FLight { .. }) {
        trainer.fit_two_phase(&mut net, &batches, epochs);
    } else {
        trainer.fit(&mut net, &batches, epochs);
    }
    let acc = evaluate(&mut net, &data.test_batches(40), 1).accuracy;
    (net, acc)
}

#[test]
fn every_scheme_learns_above_chance() {
    for scheme in [
        QuantScheme::full(),
        QuantScheme::l2(),
        QuantScheme::l1(),
        QuantScheme::fp4w8a(),
        QuantScheme::flight_with(RegStrength::new(vec![0.0, 1.0]), 2),
    ] {
        let (_, acc) = train(&scheme, 1, 8);
        assert!(
            acc > 0.3,
            "{} stuck at {acc} (chance = 0.1)",
            scheme.label()
        );
    }
}

#[test]
fn storage_ordering_matches_the_tables() {
    // Full (32b) > L-2 (8b) ≥ FL (4·mean_k) ≥ L-1 (4b) = FP (4b).
    let (mut full, _) = train(&QuantScheme::full(), 2, 2);
    let (mut l2, _) = train(&QuantScheme::l2(), 2, 2);
    let (mut l1, _) = train(&QuantScheme::l1(), 2, 2);
    let (mut fp, _) = train(&QuantScheme::fp4w8a(), 2, 2);
    let (mut fl, _) = train(
        &QuantScheme::flight_with(RegStrength::new(vec![0.0, 3.0]), 2),
        2,
        12,
    );

    let s = |net: &mut QuantNet| storage_report(net).megabytes();
    let (sf, s2, s1, sp, sfl) = (s(&mut full), s(&mut l2), s(&mut l1), s(&mut fp), s(&mut fl));
    assert!(sf > s2, "Full {sf} !> L-2 {s2}");
    assert!(s2 >= sfl - 1e-9, "L-2 {s2} !>= FL {sfl}");
    assert!(sfl >= s1 - 1e-9, "FL {sfl} !>= L-1 {s1}");
    assert!((s1 - sp).abs() < 1e-9, "L-1 {s1} != FP {sp}");
    assert!((sf / s1 - 8.0).abs() < 0.5, "32b/4b ratio should be ~8");
}

#[test]
fn flight_mean_k_tracks_lambda() {
    // The paper's handle: larger λ ⇒ fewer shifts. Smoke-scale epochs
    // are sized so the snap phase has enough proximal steps to capture
    // (shrink-per-step × steps must exceed the residual norms).
    let (mut mild, _) = train(
        &QuantScheme::flight_with(RegStrength::new(vec![0.0, 0.3]), 2),
        3,
        30,
    );
    let (mut strong, _) = train(
        &QuantScheme::flight_with(RegStrength::new(vec![0.0, 10.0]), 2),
        3,
        30,
    );
    let mean = |n: &mut QuantNet| {
        let c = n.all_shift_counts();
        c.iter().sum::<usize>() as f32 / c.len().max(1) as f32
    };
    let (m_mild, m_strong) = (mean(&mut mild), mean(&mut strong));
    assert!(
        m_strong < m_mild,
        "strong λ mean k {m_strong} !< mild λ mean k {m_mild}"
    );
    assert!((1.0..=2.0).contains(&m_strong));
    assert!((1.0..=2.0).contains(&m_mild));
}

#[test]
fn quantized_inference_is_deterministic() {
    let (mut a, acc_a) = train(&QuantScheme::l2(), 5, 3);
    let (mut b, acc_b) = train(&QuantScheme::l2(), 5, 3);
    assert_eq!(acc_a, acc_b, "same seed must give identical accuracy");
    // And identical quantized weights.
    let mut wa = Vec::new();
    a.visit_quant_convs(&mut |c| wa.push(c.weights_mut().quantized().clone()));
    let mut i = 0;
    b.visit_quant_convs(&mut |c| {
        assert_eq!(
            c.weights_mut().quantized(),
            &wa[i],
            "conv {i} weights differ"
        );
        i += 1;
    });
}

#[test]
fn gradual_quantization_beats_direct_l1_from_scratch() {
    // The paper's §5.2 observation: FLightNN trained with gradual
    // quantization down to (nearly) one shift can match or beat a
    // LightNN-1 trained with the hard constraint from scratch. The full
    // effect needs bench-scale budgets (see EXPERIMENTS.md: FL_a beats
    // L-1 by 1.4–4.5 points on networks 2/7/8); at smoke scale (160
    // training images) the proximal snap still costs a few points, so we
    // assert the weaker, stable form: FL stays within 15 points of L-1
    // while using no more storage than L-2.
    let (_, l1_acc) = train(&QuantScheme::l1(), 8, 20);
    let (mut fl, fl_acc) = train(
        &QuantScheme::flight_with(RegStrength::new(vec![0.0, 6.0]), 2),
        8,
        30,
    );
    let counts = fl.all_shift_counts();
    let mean_k = counts.iter().sum::<usize>() as f32 / counts.len() as f32;
    assert!(
        fl_acc >= l1_acc - 0.15,
        "FL {fl_acc} fell more than 15 points below L-1 {l1_acc} (mean k {mean_k})"
    );
    assert!(
        (1.0..2.0).contains(&mean_k),
        "gradual quantization should land between the LightNN anchors: {mean_k}"
    );
}
