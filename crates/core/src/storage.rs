//! Model storage accounting — the "Storage (MB)" column of Tables 2–5.
//!
//! The paper counts weight storage only (biases, batch-norm parameters
//! and thresholds are negligible and identical across schemes): 32 bits
//! per weight for full precision, `weight_bits` for fixed point, `4k`
//! bits for LightNN-`k`, and `4·k_i` bits per weight of filter `i` for
//! FLightNN — so pruned filters (`k_i = 0`) cost nothing.

use crate::net::QuantNet;

/// A storage breakdown for one network.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StorageReport {
    /// Total weight storage in bits.
    pub weight_bits: usize,
    /// Total number of weights.
    pub weights: usize,
    /// Number of filters whose shift count is zero (pruned) — only
    /// meaningful for FLightNN models.
    pub pruned_filters: usize,
    /// Total number of (F)LightNN filters.
    pub filters: usize,
}

impl StorageReport {
    /// Storage in megabytes (10^6 bytes, as the paper's tables use).
    pub fn megabytes(&self) -> f64 {
        self.weight_bits as f64 / 8.0 / 1e6
    }

    /// Mean shift count over all filters (FLightNN models; `None` when
    /// the model has no shift-based filters).
    pub fn mean_bits_per_weight(&self) -> f64 {
        if self.weights == 0 {
            0.0
        } else {
            self.weight_bits as f64 / self.weights as f64
        }
    }
}

impl std::fmt::Display for StorageReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:.3} MB ({} weights, {:.2} bits/weight, {}/{} filters pruned)",
            self.megabytes(),
            self.weights,
            self.mean_bits_per_weight(),
            self.pruned_filters,
            self.filters
        )
    }
}

/// Computes the storage report of a quantized network in its current
/// training state (FLightNN shift counts reflect the current thresholds).
pub fn storage_report(net: &mut QuantNet) -> StorageReport {
    let mut report = StorageReport::default();
    net.visit_quant_layers(&mut |layer| {
        let w = layer.into_weights();
        report.weight_bits += w.storage_bits();
        report.weights += w.shadow().value.len();
        let counts = w.filter_shift_counts();
        report.filters += counts.len();
        report.pruned_filters += counts.iter().filter(|&&k| k == 0).count();
    });
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::configs::NetworkConfig;
    use crate::scheme::QuantScheme;
    use flight_tensor::TensorRng;

    fn report_for(scheme: &QuantScheme) -> StorageReport {
        let mut rng = TensorRng::seed(3);
        let cfg = NetworkConfig::by_id(1);
        let mut net = cfg.build(scheme, &mut rng, 10, [3, 16, 16], 0.5);
        storage_report(&mut net)
    }

    #[test]
    fn scheme_storage_ordering_matches_tables() {
        // Full (32b) > L-2 (8b) > L-1 == FP (4b); FLightNN at t=0 equals
        // L-2 (every filter still uses two shifts).
        let full = report_for(&QuantScheme::full());
        let l2 = report_for(&QuantScheme::l2());
        let l1 = report_for(&QuantScheme::l1());
        let fp = report_for(&QuantScheme::fp4w8a());
        let fl = report_for(&QuantScheme::flight(1e-5));

        assert_eq!(full.weight_bits, 32 * full.weights);
        assert_eq!(l2.weight_bits, 8 * l2.weights);
        assert_eq!(l1.weight_bits, 4 * l1.weights);
        assert_eq!(fp.weight_bits, 4 * fp.weights);
        assert_eq!(fl.weight_bits, l2.weight_bits, "t=0 FLightNN == L-2");
        assert!(full.megabytes() > l2.megabytes());
        assert!(l2.megabytes() > l1.megabytes());
    }

    #[test]
    fn report_display_is_informative() {
        let r = report_for(&QuantScheme::l1());
        let text = r.to_string();
        assert!(text.contains("MB"));
        assert!(text.contains("bits/weight"));
    }

    #[test]
    fn full_network_storage_magnitude_matches_paper() {
        // Network 1 full precision: paper reports 0.31 MB. Our
        // reconstruction has the same order of magnitude at width 1.0.
        let mut rng = TensorRng::seed(4);
        let cfg = NetworkConfig::by_id(1);
        let mut net = cfg.build(&QuantScheme::full(), &mut rng, 10, [3, 16, 16], 1.0);
        let mb = storage_report(&mut net).megabytes();
        assert!(
            (0.1..1.2).contains(&mb),
            "network 1 full storage {mb} MB vs paper 0.31 MB"
        );
    }
}
