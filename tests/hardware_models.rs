//! Cross-crate invariants of the FPGA and ASIC models over all eight
//! paper networks: throughput/energy orderings and binding structure.

use flight_asic::{ComputeStyle, OpEnergy};
use flight_fpga::implement::Binding;
use flight_fpga::{implement_layer, Datapath, LayerDesign, ZC706};
use flightnn::configs::{ConvSpec, NetworkConfig};
use flightnn::QuantScheme;

fn native_image(cfg: &NetworkConfig) -> [usize; 3] {
    match cfg.dataset {
        flight_data::DatasetKind::ImageNetLike => [3, 64, 64],
        _ => [3, 32, 32],
    }
}

fn design(spec: ConvSpec, scheme: &QuantScheme, mean_k: Option<f32>) -> LayerDesign {
    LayerDesign {
        spec,
        datapath: Datapath::from_scheme(scheme, mean_k),
        weight_bits: spec.weights() * scheme.fixed_weight_bits().unwrap_or(6) as usize,
    }
}

#[test]
fn fpga_speedup_shape_holds_on_every_network() {
    for id in 1..=8u8 {
        let cfg = NetworkConfig::by_id(id);
        let spec = cfg.largest_conv(native_image(&cfg), 1.0);

        let full = implement_layer(&design(spec, &QuantScheme::full(), None), &ZC706).unwrap();
        let l2 = implement_layer(&design(spec, &QuantScheme::l2(), None), &ZC706).unwrap();
        let l1 = implement_layer(&design(spec, &QuantScheme::l1(), None), &ZC706).unwrap();
        let fp = implement_layer(&design(spec, &QuantScheme::fp4w8a(), None), &ZC706).unwrap();

        // Every quantized design beats full precision (Tables 2–5).
        for (label, q) in [("L-2", &l2), ("L-1", &l1), ("FP", &fp)] {
            assert!(
                q.throughput > full.throughput,
                "network {id}: {label} not faster than Full"
            );
        }
        // L-1 ≈ 2× L-2 (the k=1 vs k=2 cycle count).
        let r = l1.throughput / l2.throughput;
        assert!((1.4..3.2).contains(&r), "network {id}: L-1/L-2 ratio {r}");
        // L-1 is at least as fast as fixed point ("up to 2× speedup").
        assert!(
            l1.throughput >= fp.throughput * 0.99,
            "network {id}: L-1 slower than FP"
        );
    }
}

#[test]
fn flightnn_throughput_interpolates_on_every_network() {
    for id in [1u8, 3, 7, 8] {
        let cfg = NetworkConfig::by_id(id);
        let spec = cfg.largest_conv(native_image(&cfg), 1.0);
        let l2 = implement_layer(&design(spec, &QuantScheme::l2(), None), &ZC706).unwrap();
        let l1 = implement_layer(&design(spec, &QuantScheme::l1(), None), &ZC706).unwrap();
        let fl =
            implement_layer(&design(spec, &QuantScheme::flight(1e-5), Some(1.5)), &ZC706).unwrap();
        assert!(
            fl.throughput >= l2.throughput && fl.throughput <= l1.throughput,
            "network {id}: FL throughput {} outside [{}, {}]",
            fl.throughput,
            l2.throughput,
            l1.throughput
        );
    }
}

#[test]
fn shift_add_binds_on_bram_for_large_networks() {
    // Table 6 covers networks 7 and 8 (plus the wide network 3); their
    // largest layers have big enough activation buffers that BRAM runs
    // out before LUT fabric. (The narrower networks 2/6 legitimately
    // bind on LUT in the model — Table 6 does not report them.)
    for id in [3u8, 7, 8] {
        let cfg = NetworkConfig::by_id(id);
        let spec = cfg.largest_conv(native_image(&cfg), 1.0);
        let l2 = implement_layer(&design(spec, &QuantScheme::l2(), None), &ZC706).unwrap();
        assert_eq!(
            l2.binding,
            Binding::Bram,
            "network {id}: L-2 binds on {:?}",
            l2.binding
        );
        assert!(
            l2.usage.dsp <= 16,
            "network {id}: L-2 uses {} DSPs",
            l2.usage.dsp
        );
    }
}

#[test]
fn asic_energy_ordering_holds_on_every_network() {
    let table = OpEnergy::nm65();
    for id in 1..=8u8 {
        let cfg = NetworkConfig::by_id(id);
        let spec = cfg.largest_conv(native_image(&cfg), 1.0);
        let e = |style: ComputeStyle| flight_asic::layer_energy_uj(&spec, &style, &table);

        let full = e(ComputeStyle::Float32);
        let fp = e(ComputeStyle::FixedPoint { weight_bits: 4 });
        let l1 = e(ComputeStyle::ShiftAdd { mean_k: 1.0 });
        let l2 = e(ComputeStyle::ShiftAdd { mean_k: 2.0 });
        let fl = e(ComputeStyle::ShiftAdd { mean_k: 1.4 });

        assert!(l1 < fl && fl < l2, "network {id}: FL energy not between");
        assert!(
            l1 < fp && fp < l2,
            "network {id}: FP energy not between L-1 and L-2"
        );
        assert!(full > 10.0 * l2, "network {id}: Full not ≫ quantized");
    }
}

#[test]
fn energy_and_throughput_agree_on_winners() {
    // A model that is faster on the FPGA (fewer cycles/MAC, no DSP need)
    // is also cheaper on the ASIC — the two models must tell one story.
    let cfg = NetworkConfig::by_id(7);
    let spec = cfg.largest_conv([3, 32, 32], 1.0);
    let table = OpEnergy::nm65();

    let styles: Vec<(QuantScheme, ComputeStyle, Option<f32>)> = vec![
        (
            QuantScheme::l1(),
            ComputeStyle::ShiftAdd { mean_k: 1.0 },
            None,
        ),
        (
            QuantScheme::l2(),
            ComputeStyle::ShiftAdd { mean_k: 2.0 },
            None,
        ),
    ];
    let mut results = Vec::new();
    for (scheme, style, mean_k) in styles {
        let imp = implement_layer(&design(spec, &scheme, mean_k), &ZC706).unwrap();
        let energy = flight_asic::layer_energy_uj(&spec, &style, &table);
        results.push((imp.throughput, energy));
    }
    // L-1 (index 0) is both faster and cheaper than L-2 (index 1).
    assert!(results[0].0 > results[1].0);
    assert!(results[0].1 < results[1].1);
}

#[test]
fn every_conv_layer_implements_and_costs_energy_on_every_network() {
    // The whole conv plan, not just the largest layer: every layer of
    // every network fits the ZC706 with a finite, positive throughput
    // and costs finite, positive ASIC energy under each scheme.
    let table = OpEnergy::nm65();
    let schemes = [
        ("Full", QuantScheme::full()),
        ("L-2", QuantScheme::l2()),
        ("L-1", QuantScheme::l1()),
        ("FP 4W8A", QuantScheme::fp4w8a()),
    ];
    for id in 1..=8u8 {
        let cfg = NetworkConfig::by_id(id);
        let plan = cfg.conv_plan(native_image(&cfg), 1.0);
        assert!(!plan.is_empty(), "network {id}: empty conv plan");
        for (label, scheme) in &schemes {
            let style = ComputeStyle::from_scheme(scheme, None);
            for (i, spec) in plan.iter().enumerate() {
                let imp = implement_layer(&design(*spec, scheme, None), &ZC706)
                    .unwrap_or_else(|e| panic!("network {id} {label} layer {i}: {e}"));
                assert!(
                    imp.throughput.is_finite() && imp.throughput > 0.0,
                    "network {id} {label} layer {i}: throughput {}",
                    imp.throughput
                );
                let energy = flight_asic::layer_energy_uj(spec, &style, &table);
                assert!(
                    energy.is_finite() && energy > 0.0,
                    "network {id} {label} layer {i}: energy {energy} µJ"
                );
            }
        }
    }
}
