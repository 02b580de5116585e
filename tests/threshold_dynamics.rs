//! Integration tests of the differentiable k-selection dynamics and the
//! design decisions documented in DESIGN.md §3 (threshold projection,
//! proximal vs gradient regularization, sigmoid temperature).

use flight_data::{DatasetKind, Fidelity, SyntheticDataset};
use flight_tensor::TensorRng;
use flightnn::configs::NetworkConfig;
use flightnn::reg::RegStrength;
use flightnn::trainer::RegMode;
use flightnn::{FlightTrainer, QuantNet, QuantScheme};

fn setup() -> (SyntheticDataset, NetworkConfig) {
    (
        SyntheticDataset::preset(DatasetKind::Cifar10Like, Fidelity::Smoke, 7),
        NetworkConfig::by_id(1),
    )
}

fn mean_k(net: &mut QuantNet) -> f32 {
    let counts = net.all_shift_counts();
    counts.iter().sum::<usize>() as f32 / counts.len().max(1) as f32
}

#[test]
fn proximal_mode_reduces_k_where_gradient_mode_stalls() {
    // The design note: plain subgradient steps leave an oscillation floor
    // on the residual norms, so the strict indicator never fires at the
    // initial t = 0 and mean k stays at k_max; proximal steps capture
    // residuals at exactly zero and k drops.
    let (data, cfg) = setup();
    let scheme = QuantScheme::flight_with(RegStrength::new(vec![0.0, 5.0]), 2);
    let batches = data.train_batches(16);

    let run = |mode: RegMode| -> f32 {
        let mut rng = TensorRng::seed(31);
        let mut net = cfg.build(&scheme, &mut rng, data.classes(), data.image_dims(), 0.25);
        // Smoke data has few batches per epoch, so the snap phase needs
        // enough epochs (and shrink per step = lr·λ) for the proximal
        // capture to cross the initial residual norms.
        let mut trainer = FlightTrainer::new(&scheme, 1e-2).with_reg_mode(mode);
        trainer.fit_two_phase(&mut net, &batches, 30);
        mean_k(&mut net)
    };

    let prox_k = run(RegMode::Proximal);
    let grad_k = run(RegMode::Gradient);
    assert!(
        prox_k < 1.7,
        "proximal mode should reduce mean k, got {prox_k}"
    );
    assert!(
        grad_k > prox_k,
        "gradient mode ({grad_k}) should stall above proximal ({prox_k})"
    );
}

#[test]
fn thresholds_stay_non_negative_and_t0_stays_pinned() {
    let (data, cfg) = setup();
    let scheme = QuantScheme::flight_with(RegStrength::new(vec![0.0, 2.0]), 2);
    let mut rng = TensorRng::seed(33);
    let mut net = cfg.build(&scheme, &mut rng, data.classes(), data.image_dims(), 0.25);
    let mut trainer = FlightTrainer::new(&scheme, 3e-3);
    trainer.fit(&mut net, &data.train_batches(16), 4);

    net.visit_quant_convs(&mut |c| {
        let t = c
            .weights()
            .thresholds()
            .expect("FLightNN layer has thresholds");
        for &v in t.value.as_slice() {
            assert!(v >= 0.0, "threshold went negative: {v}");
        }
        // Pruning disabled by default: t_0 pinned at zero.
        assert_eq!(t.value.as_slice()[0], 0.0);
    });
}

#[test]
fn pruning_mode_can_zero_filters() {
    // With pruning enabled and a brutal λ_0, the level-0 prox captures
    // whole filters at zero and the strict indicator prunes them.
    let (data, cfg) = setup();
    let scheme = QuantScheme::flight_with(RegStrength::new(vec![30.0, 0.0]), 2);
    let mut rng = TensorRng::seed(35);
    let mut net = cfg.build(&scheme, &mut rng, data.classes(), data.image_dims(), 0.25);
    let mut trainer = FlightTrainer::new(&scheme, 3e-3).with_pruning();
    trainer.fit(&mut net, &data.train_batches(16), 6);

    let counts = net.all_shift_counts();
    let pruned = counts.iter().filter(|&&k| k == 0).count();
    assert!(
        pruned > 0,
        "brutal λ0 with pruning enabled should zero some filters: {counts:?}"
    );
}

#[test]
fn no_pruning_by_default_even_under_brutal_lambda0() {
    let (data, cfg) = setup();
    let scheme = QuantScheme::flight_with(RegStrength::new(vec![30.0, 0.0]), 2);
    let mut rng = TensorRng::seed(35);
    let mut net = cfg.build(&scheme, &mut rng, data.classes(), data.image_dims(), 0.25);
    let mut trainer = FlightTrainer::new(&scheme, 3e-3); // pruning off
    trainer.fit(&mut net, &data.train_batches(16), 4);
    let counts = net.all_shift_counts();
    assert!(
        counts.iter().all(|&k| k >= 1),
        "default trainer must not prune: {counts:?}"
    );
}

#[test]
fn cascade_and_independent_modes_agree_at_zero_thresholds() {
    // With t = 0 every level fires in both modes, so the quantized
    // networks are identical.
    use flightnn::quant::{QuantMode, ThresholdQuantizer};
    let mut rng = TensorRng::seed(37);
    let w = flight_tensor::uniform(&mut rng, &[8, 18], -1.0, 1.0);
    let c = ThresholdQuantizer::new(2, QuantMode::Cascade);
    let i = ThresholdQuantizer::new(2, QuantMode::IndependentSum);
    let (qc, _, _) = c.quantize_tensor(&w, &[0.0, 0.0]);
    let (qi, _, _) = i.quantize_tensor(&w, &[0.0, 0.0]);
    assert_eq!(qc, qi);
}
