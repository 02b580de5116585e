//! The shared experiment pipeline: train → accuracy, storage, FPGA
//! throughput, ASIC energy for every model variant of one network.

use flight_asic::{ComputeStyle, OpEnergy};
use flight_data::{DatasetKind, SyntheticDataset};
use flight_fpga::{implement_layer, Datapath, LayerDesign, ZC706};
use flight_kernels::{CompileOptions, IntNetwork};
use flight_nn::evaluate;
use flight_telemetry::Telemetry;
use flight_tensor::TensorRng;
use flightnn::configs::{ConvSpec, NetworkConfig};
use flightnn::reg::RegStrength;
use flightnn::{FlightTrainer, QuantNet, QuantScheme};

use crate::profile::BenchProfile;

/// Paper-native image geometry per dataset (for the hardware models,
/// which need no training and always run at full scale). ImageNet is
/// evaluated at a documented reduced 64×64 (the paper already reduces
/// network 8's width for resource reasons; DESIGN.md §2).
pub const NATIVE_IMAGE: fn(DatasetKind) -> [usize; 3] = |kind| match kind {
    DatasetKind::ImageNetLike => [3, 64, 64],
    _ => [3, 32, 32],
};

/// One row of a result table.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelRow {
    /// Model label ("Full", "L-2 8W8A", "FL_a", …).
    pub label: String,
    /// Test accuracy (top-1, or top-5 for the ImageNet stand-in) in
    /// `[0, 1]`.
    pub accuracy: f32,
    /// Weight storage at paper-native width, in MB.
    pub storage_mb: f64,
    /// FPGA throughput of the largest conv layer (images/s), paper-native
    /// geometry on the ZC706 model.
    pub throughput: f64,
    /// Throughput relative to the table's baseline row.
    pub speedup: f64,
    /// ASIC computational energy of the largest layer (µJ/image).
    pub energy_uj: f64,
    /// Mean shifts per multiply (shift-based models only).
    pub mean_k: Option<f32>,
}

impl ModelRow {
    /// Formats the row like the paper's tables.
    pub fn formatted(&self) -> String {
        format!(
            "{:<10} {:>7.2}% {:>9.3} MB {:>11.1} img/s {:>7.2}x {:>9.4} uJ{}",
            self.label,
            self.accuracy * 100.0,
            self.storage_mb,
            self.throughput,
            self.speedup,
            self.energy_uj,
            match self.mean_k {
                Some(k) => format!("  (mean k = {k:.2})"),
                None => String::new(),
            }
        )
    }
}

/// The model set of Tables 2–4: Full, L-2, L-1, FP, FL_a (aggressive λ),
/// FL_b (mild λ).
pub fn standard_schemes() -> Vec<(String, QuantScheme)> {
    vec![
        ("Full".to_string(), QuantScheme::full()),
        ("L-2 8W8A".to_string(), QuantScheme::l2()),
        ("L-1 4W8A".to_string(), QuantScheme::l1()),
        ("FP 4W8A".to_string(), QuantScheme::fp4w8a()),
        ("FL_a".to_string(), flight_a()),
        ("FL_b".to_string(), flight_b()),
    ]
}

/// The aggressive FLightNN point (strong residual snap → k_i ≈ 1,
/// storage ≈ LightNN-1).
pub fn flight_a() -> QuantScheme {
    QuantScheme::flight_with(RegStrength::new(vec![0.0, 5.0]), 2)
}

/// The mild FLightNN point (k_i mixes 1 and 2, storage between the two
/// LightNNs).
pub fn flight_b() -> QuantScheme {
    QuantScheme::flight_with(RegStrength::new(vec![0.0, 0.9]), 2)
}

/// Trains one scheme on one network at the profile's scale and returns
/// the trained net plus its test accuracy. `telemetry` is threaded into
/// the trainer (pass [`Telemetry::null`] — or a
/// [`BenchRun`](crate::run::BenchRun)'s handle — from the exhibit
/// binaries).
pub fn train_model(
    cfg: &NetworkConfig,
    scheme: &QuantScheme,
    data: &SyntheticDataset,
    profile: &BenchProfile,
    telemetry: &Telemetry,
) -> (QuantNet, f32) {
    let mut rng = TensorRng::seed(profile.seed ^ (cfg.id.get() as u64) << 8);
    let mut net = cfg.build(
        scheme,
        &mut rng,
        data.classes(),
        data.image_dims(),
        profile.width_scale(cfg.width),
    );
    let mut trainer = FlightTrainer::new(scheme, profile.lr).with_telemetry(telemetry.clone());
    let train = data.train_batches(profile.batch);
    if matches!(scheme, QuantScheme::FLight { .. }) {
        trainer.fit_two_phase(&mut net, &train, profile.epochs);
    } else {
        // Same schedule shape as the FLightNN two-phase recipe so the
        // comparison is lr-schedule-fair.
        let snap = (profile.epochs * 3).div_ceil(5);
        trainer.fit(&mut net, &train, snap);
        trainer.set_learning_rate(profile.lr * 0.1);
        trainer.fit(&mut net, &train, profile.epochs - snap);
    }
    let test = data.test_batches(64);
    let stats = evaluate(&mut net, &test, cfg.dataset.report_top_k());
    (net, stats.accuracy)
}

/// Compiles the trained net to the integer pipeline and runs one test
/// batch with telemetry attached, so traces record per-stage kernel
/// spans and op counters alongside the training events. Skipped (with a
/// stderr note) if the model does not compile.
fn probe_int_engine(net: &mut QuantNet, data: &SyntheticDataset, telemetry: &Telemetry) {
    let options = CompileOptions::new().telemetry(telemetry.clone());
    let engine = match IntNetwork::compile_with(net, options) {
        Ok(engine) => engine,
        Err(e) => {
            eprintln!("skipping integer-engine probe: {e}");
            return;
        }
    };
    if let Some(batch) = data.test_batches(8).first() {
        let _ = engine.forward(&batch.input);
    }
}

/// Per-layer mean shift counts of a trained net's conv layers, in
/// `conv_plan` order (`None` entries for non-shift layers).
fn per_layer_mean_k(net: &mut QuantNet) -> Vec<Option<f32>> {
    let mut out = Vec::new();
    net.visit_quant_convs(&mut |c| {
        let counts = c.weights_mut().filter_shift_counts();
        if counts.is_empty() {
            out.push(None);
        } else {
            out.push(Some(
                counts.iter().sum::<usize>() as f32 / counts.len() as f32,
            ));
        }
    });
    out
}

/// Storage (MB) of the network at paper-native width under `scheme`,
/// using the trained per-layer mean shift counts for FLightNN layers.
fn native_storage_mb(
    cfg: &NetworkConfig,
    scheme: &QuantScheme,
    layer_mean_k: &[Option<f32>],
) -> f64 {
    let native_plan = cfg.conv_plan(NATIVE_IMAGE(cfg.dataset), 1.0);
    if let Some(bits) = scheme.fixed_weight_bits() {
        let conv_bits: usize = native_plan
            .iter()
            .map(|s| s.weights() * bits as usize)
            .sum();
        return conv_bits as f64 / 8.0 / 1e6;
    }
    // FLightNN: scale each native layer by its trained mean k (4 bits per
    // shift term).
    assert_eq!(
        native_plan.len(),
        layer_mean_k.len(),
        "plan/net layer mismatch"
    );
    let mut bits = 0.0f64;
    for (spec, mean_k) in native_plan.iter().zip(layer_mean_k) {
        let k = mean_k.unwrap_or(2.0) as f64;
        bits += spec.weights() as f64 * 4.0 * k;
    }
    bits / 8.0 / 1e6
}

/// Runs the full model suite of one network: train each scheme, then
/// price storage, FPGA throughput, and ASIC energy at paper-native
/// geometry. Speedups are relative to `baseline_label` (the paper uses
/// "Full" for Tables 2–4 and "L-2" for Table 5).
///
/// With a live `telemetry` sink, each model additionally runs one
/// test batch through its compiled integer pipeline so the event stream
/// records the per-stage kernel op counters for the exhibit.
pub fn run_network_suite(
    id: u8,
    profile: &BenchProfile,
    schemes: &[(String, QuantScheme)],
    baseline_label: &str,
    telemetry: &Telemetry,
) -> Vec<ModelRow> {
    let cfg = NetworkConfig::by_id(id);
    let spec = profile.dataset_spec(cfg.dataset);
    let data = SyntheticDataset::generate(&spec, profile.seed);
    let native = NATIVE_IMAGE(cfg.dataset);
    let largest: ConvSpec = cfg.largest_conv(native, 1.0);
    let largest_idx = cfg
        .conv_plan(native, 1.0)
        .iter()
        .enumerate()
        .max_by_key(|(_, s)| s.macs())
        .map(|(i, _)| i)
        .expect("network has conv layers");
    let energy_table = OpEnergy::nm65();

    let mut rows = Vec::new();
    for (label, scheme) in schemes {
        let (mut net, accuracy) = train_model(&cfg, scheme, &data, profile, telemetry);
        if telemetry.enabled() {
            probe_int_engine(&mut net, &data, telemetry);
        }
        let layer_ks = per_layer_mean_k(&mut net);
        let mean_k_largest = layer_ks.get(largest_idx).copied().flatten();
        let mean_k_overall = {
            let ks: Vec<f32> = layer_ks.iter().copied().flatten().collect();
            if ks.is_empty() {
                None
            } else {
                Some(ks.iter().sum::<f32>() / ks.len() as f32)
            }
        };

        let storage_mb = native_storage_mb(&cfg, scheme, &layer_ks);

        let datapath = Datapath::from_scheme(scheme, mean_k_largest.or(Some(2.0)));
        let weight_bits = match scheme.fixed_weight_bits() {
            Some(b) => largest.weights() * b as usize,
            None => {
                (largest.weights() as f64 * 4.0 * mean_k_largest.unwrap_or(2.0) as f64) as usize
            }
        };
        let design = LayerDesign {
            spec: largest,
            datapath,
            weight_bits,
        };
        let throughput = implement_layer(&design, &ZC706)
            .map(|imp| imp.throughput)
            .unwrap_or(0.0);

        let style = ComputeStyle::from_scheme(scheme, mean_k_largest.or(Some(2.0)));
        let energy_uj = flight_asic::layer_energy_uj(&largest, &style, &energy_table);

        rows.push(ModelRow {
            label: label.clone(),
            accuracy,
            storage_mb,
            throughput,
            speedup: 1.0, // filled below
            energy_uj,
            mean_k: mean_k_overall.filter(|_| !matches!(scheme, QuantScheme::Full)),
        });
    }

    let base = rows
        .iter()
        .find(|r| r.label == baseline_label)
        .map(|r| r.throughput)
        .unwrap_or_else(|| rows.first().map(|r| r.throughput).unwrap_or(1.0));
    for row in &mut rows {
        row.speedup = if base > 0.0 {
            row.throughput / base
        } else {
            0.0
        };
    }
    rows
}

/// Prints a table header and rows for one network.
pub fn print_table(network: &NetworkConfig, rows: &[ModelRow]) {
    println!("\n=== Network {network} ===");
    println!(
        "{:<10} {:>8} {:>12} {:>17} {:>8} {:>12}",
        "Model", "Accuracy", "Storage", "Throughput", "Speedup", "Energy"
    );
    for row in rows {
        println!("{}", row.formatted());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flight_data::Fidelity;

    #[test]
    fn schemes_cover_the_table_rows() {
        let schemes = standard_schemes();
        let labels: Vec<&str> = schemes.iter().map(|(l, _)| l.as_str()).collect();
        assert_eq!(
            labels,
            ["Full", "L-2 8W8A", "L-1 4W8A", "FP 4W8A", "FL_a", "FL_b"]
        );
    }

    #[test]
    fn suite_produces_consistent_rows_smoke() {
        // One tiny end-to-end pass: network 1, two cheap schemes.
        let profile = BenchProfile::for_fidelity(Fidelity::Smoke);
        let schemes = vec![
            ("Full".to_string(), QuantScheme::full()),
            ("L-1 4W8A".to_string(), QuantScheme::l1()),
        ];
        let rows = run_network_suite(1, &profile, &schemes, "Full", &Telemetry::null());
        assert_eq!(rows.len(), 2);
        let full = &rows[0];
        let l1 = &rows[1];
        assert!((full.speedup - 1.0).abs() < 1e-9);
        assert!(l1.speedup > 1.0, "L-1 must be faster than Full");
        assert!(l1.storage_mb < full.storage_mb);
        assert!(l1.energy_uj < full.energy_uj);
        assert!(full.accuracy > 0.2 && l1.accuracy > 0.2);
        assert_eq!(l1.mean_k, Some(1.0));
        assert_eq!(full.mean_k, None);
    }

    #[test]
    fn flight_points_sit_between_lightnns_in_storage() {
        let profile = BenchProfile::for_fidelity(Fidelity::Smoke);
        let schemes = vec![
            ("L-2 8W8A".to_string(), QuantScheme::l2()),
            ("L-1 4W8A".to_string(), QuantScheme::l1()),
            ("FL_a".to_string(), flight_a()),
        ];
        let rows = run_network_suite(1, &profile, &schemes, "L-2 8W8A", &Telemetry::null());
        let l2 = rows[0].storage_mb;
        let l1 = rows[1].storage_mb;
        let fl = rows[2].storage_mb;
        assert!(
            fl <= l2 * 1.001 && fl >= l1 * 0.999,
            "FL storage {fl} outside [{l1}, {l2}]"
        );
    }
}
