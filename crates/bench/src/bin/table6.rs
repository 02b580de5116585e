//! Regenerates Table 6: FPGA resource utilization for networks 7 and 8.
//! FLightNN rows use mean shift counts from a quick (smoke-fidelity)
//! training run; the other rows are purely analytical.

use flight_bench::suite::{flight_a, flight_b, train_model};
use flight_bench::{BenchProfile, BenchRun, NATIVE_IMAGE};
use flight_data::{Fidelity, SyntheticDataset};
use flight_fpga::{utilization_row, Datapath, LayerDesign, ZC706};
use flight_telemetry::Telemetry;
use flightnn::configs::NetworkConfig;
use flightnn::QuantScheme;

fn trained_mean_k(id: u8, scheme: &QuantScheme, largest_idx: usize, telemetry: &Telemetry) -> f32 {
    let profile = BenchProfile::for_fidelity(Fidelity::Smoke);
    let cfg = NetworkConfig::by_id(id);
    let data = SyntheticDataset::generate(&profile.dataset_spec(cfg.dataset), profile.seed);
    let (mut net, _) = train_model(&cfg, scheme, &data, &profile, telemetry);
    let mut per_layer = Vec::new();
    net.visit_quant_convs(&mut |c| {
        let counts = c.weights_mut().filter_shift_counts();
        per_layer.push(if counts.is_empty() {
            2.0
        } else {
            counts.iter().sum::<usize>() as f32 / counts.len() as f32
        });
    });
    per_layer.get(largest_idx).copied().unwrap_or(2.0)
}

fn main() {
    let run = BenchRun::start("table6");
    println!("Table 6: FPGA resource utilization (ZC706 model)");
    for id in [7u8, 8] {
        let cfg = NetworkConfig::by_id(id);
        let native = NATIVE_IMAGE(cfg.dataset);
        let plan = cfg.conv_plan(native, 1.0);
        let (largest_idx, largest) = plan
            .iter()
            .enumerate()
            .max_by_key(|(_, s)| s.macs())
            .map(|(i, s)| (i, *s))
            .expect("network has conv layers");

        println!(
            "\n=== Network {id} (largest conv layer: {}→{} {}x{}) ===",
            largest.in_channels, largest.out_channels, largest.kernel, largest.kernel
        );

        let mut models: Vec<(String, Datapath, usize)> = vec![
            ("Full".into(), Datapath::Float32, largest.weights() * 32),
            (
                "L-2 8W8A".into(),
                Datapath::from_scheme(&QuantScheme::l2(), None),
                largest.weights() * 8,
            ),
            (
                "L-1 4W8A".into(),
                Datapath::from_scheme(&QuantScheme::l1(), None),
                largest.weights() * 4,
            ),
            (
                "FP 4W8A".into(),
                Datapath::from_scheme(&QuantScheme::fp4w8a(), None),
                largest.weights() * 4,
            ),
        ];
        for (label, scheme) in [("FL_a", flight_a()), ("FL_b", flight_b())] {
            let mean_k = trained_mean_k(id, &scheme, largest_idx, run.telemetry());
            models.push((
                label.into(),
                Datapath::from_scheme(&scheme, Some(mean_k)),
                (largest.weights() as f64 * 4.0 * mean_k as f64) as usize,
            ));
        }

        for (label, datapath, weight_bits) in models {
            let design = LayerDesign {
                spec: largest,
                datapath,
                weight_bits,
            };
            match utilization_row(&label, &design, &ZC706) {
                Ok(row) => println!("{row}"),
                Err(e) => println!("{label:<10} {e}"),
            }
        }
        println!(
            "{:<10} BRAM {:>5} DSP {:>4} FF {:>7} LUT {:>7}",
            "Available", ZC706.bram, ZC706.dsp, ZC706.ff, ZC706.lut
        );
    }
    run.finish(None, &[]);
}
