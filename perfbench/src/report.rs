//! What one run reports: the metric catalog every workload is held to,
//! the sample statistics behind each figure, and the result line.

use flight_telemetry::json::{JsonObject, JsonValue};

/// The four workloads, by their command-line names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ServeTrickle,
    ServeClosed,
    OfflineBatch,
    TrainFl,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::ServeTrickle,
        Workload::ServeClosed,
        Workload::OfflineBatch,
        Workload::TrainFl,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeTrickle => "serve_trickle",
            Workload::ServeClosed => "serve_closed",
            Workload::OfflineBatch => "offline_batch",
            Workload::TrainFl => "train_fl",
        }
    }

    pub fn by_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// The schemes `offline_batch` rotates over, by metric label.
pub const SCHEMES: [&str; 4] = ["l1", "l2", "fp4w8a", "fl_b"];

/// One named figure a workload emits.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDef {
    pub name: String,
    pub unit: &'static str,
    /// `true` for a per-layer figure (traced run), `false` for an
    /// end-to-end one (untraced run).
    pub per_layer: bool,
}

fn def(name: impl Into<String>, unit: &'static str, per_layer: bool) -> MetricDef {
    MetricDef {
        name: name.into(),
        unit,
        per_layer,
    }
}

/// The end-to-end metrics. Every workload measures all of them, each on
/// its own unit operation (see [`catalog`]).
const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("throughput_per_s", "1/s"),
];

/// Every metric `workload` measures, in output order: the end-to-end
/// metrics, then the per-layer metrics of the layers its operations
/// pass through. A run whose measured set differs from this list is
/// reported as incorrect.
///
/// The unit operation behind the end-to-end metrics: one infer request
/// (serve workloads), one batch-1 forward for latency and one image of
/// the batch-64 forwards for throughput (`offline_batch`), one
/// minibatch training step for latency and one trained sample for
/// throughput (`train_fl`).
pub fn catalog(workload: Workload) -> Vec<MetricDef> {
    let mut out: Vec<MetricDef> = END_TO_END
        .iter()
        .map(|&(name, unit)| def(name, unit, false))
        .collect();
    match workload {
        Workload::ServeTrickle | Workload::ServeClosed => {
            for (name, unit) in [
                ("serve.client.wire_ms.p50", "ms"),
                ("serve.client.wire_ms.p90", "ms"),
                ("serve.batcher.queue_ms.p50", "ms"),
                ("serve.batcher.batch_form_ms.p50", "ms"),
                ("serve.batcher.batch_mean", "count"),
                ("serve.batcher.batch_lt8_share", "ratio"),
                ("serve.server.reply_write_ms.p50", "ms"),
                ("serve.compute_ms.p50", "ms"),
                ("serve.compute_ms_per_image", "ms"),
                ("telemetry.stageprof.conv.share", "ratio"),
                ("serve.loadgen.lag_ms.p90", "ms"),
            ] {
                out.push(def(name, unit, true));
            }
            if workload == Workload::ServeClosed {
                for name in [
                    "serve.swap.rtt_ms.p50",
                    "serve.stats.rtt_ms.p50",
                    "serve.profile.rtt_ms.p50",
                ] {
                    out.push(def(name, "ms", true));
                }
            }
        }
        Workload::OfflineBatch => {
            for s in SCHEMES {
                let e = format!("kernels.engine.{s}");
                out.push(def(format!("{e}.us_per_image.b64"), "us", true));
                out.push(def(format!("{e}.us_per_image.b1"), "us", true));
                out.push(def(format!("{e}.ops_per_image"), "count", true));
                out.push(def(format!("{e}.conv.ns_per_op"), "ns", true));
                out.push(def(format!("{e}.conv.share"), "ratio", true));
                out.push(def(format!("{e}.requant.ns_per_image"), "ns", true));
                out.push(def(format!("kernels.lower.{s}.compile_ms"), "ms", true));
            }
            out.push(def("bench.host.ref_int_ms", "ms", true));
            out.push(def("bench.host.ref_float_ms", "ms", true));
        }
        Workload::TrainFl => {
            out.push(def("core.fl.mean_k", "count", true));
            out.push(def("core.trainer.epoch_s", "s", true));
            out.push(def("nn.train.eval_samples_per_s", "1/s", true));
            out.push(def("bench.host.ref_float_ms", "ms", true));
        }
    }
    out.push(def("bench.trace.overhead_pct", "%", true));
    out
}

/// Every metric of one layer, in manifest order: the union of the
/// workloads' catalogs, which `BENCHMARK.json` lists and every workload
/// reports.
pub fn manifest(per_layer: bool) -> Vec<MetricDef> {
    let mut out: Vec<MetricDef> = Vec::new();
    for d in Workload::ALL.into_iter().flat_map(catalog) {
        if d.per_layer == per_layer && !out.iter().any(|o| o.name == d.name) {
            out.push(d);
        }
    }
    out
}

/// Linear-interpolated quantile (`q` in `[0, 1]`) of unsorted samples;
/// `NaN` when there are none.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Consecutive windows [`windowed_quantile`] splits a run's samples into.
pub const WINDOWS: usize = 10;

/// The `q`-quantile of CPU-bound operation times, robust to host
/// contention: the samples (in the order they were taken) are split
/// into [`WINDOWS`] consecutive windows, and the median over windows of
/// each window's `q`-quantile is returned. A burst of contention on the
/// shared host that covers a minority of the run moves the quantiles of
/// the windows it covers, not the median over windows; a program change
/// moves every window. With fewer samples than windows, the plain
/// quantile.
pub fn windowed_quantile(samples: &[f64], q: f64) -> f64 {
    if samples.len() < WINDOWS {
        return quantile(samples, q);
    }
    let per_window: Vec<f64> = (0..WINDOWS)
        .map(|w| {
            let (lo, hi) = (
                w * samples.len() / WINDOWS,
                (w + 1) * samples.len() / WINDOWS,
            );
            quantile(&samples[lo..hi], q)
        })
        .collect();
    median(&per_window)
}

/// The outcome of one workload run: its operation tally, every figure
/// with the number of samples behind it, and the failed checks.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, samples behind it)`.
    pub metrics: Vec<(String, f64, u64)>,
    /// One line per failed correctness check.
    pub problems: Vec<String>,
}

impl Outcome {
    pub fn put(&mut self, name: impl Into<String>, value: f64, samples: usize) {
        self.metrics.push((name.into(), value, samples as u64));
    }

    /// Records a failed check that is not tied to one operation.
    pub fn problem(&mut self, message: impl Into<String>) {
        self.problems.push(message.into());
    }

    /// The metrics of one layer (end-to-end or per-layer) for the result
    /// line: every metric of [`manifest`], checked against `workload`'s
    /// catalog. A metric the workload measures must be present and
    /// finite; a per-layer metric of a layer the workload's operations
    /// bypass reads 0, from 0 samples. A measured metric outside the
    /// catalog is a failed check.
    pub fn select(&mut self, workload: Workload, per_layer: bool) -> Vec<(MetricDef, f64)> {
        let measured = catalog(workload);
        let mut out = Vec::new();
        let mut bypassed = Vec::new();
        for d in manifest(per_layer) {
            if !measured.iter().any(|m| m.name == d.name) {
                bypassed.push((d.name.clone(), 0.0, 0));
                out.push((d, 0.0));
                continue;
            }
            match self.metrics.iter().find(|(n, _, _)| *n == d.name) {
                Some((_, v, _)) if v.is_finite() => out.push((d, *v)),
                Some((_, v, _)) => self.problem(format!("metric {} is not finite ({v})", d.name)),
                None => self.problem(format!("metric {} was not measured", d.name)),
            }
        }
        let extra: Vec<String> = self
            .metrics
            .iter()
            .filter(|(n, _, _)| !measured.iter().any(|d| &d.name == n))
            .map(|(n, _, _)| format!("metric {n} is not in the catalog"))
            .collect();
        self.problems.extend(extra);
        self.metrics.extend(bypassed);
        out
    }

    /// `name → samples` for the record file.
    pub fn samples_json(&self) -> JsonValue {
        let mut obj = JsonObject::new();
        for (n, _, s) in &self.metrics {
            obj = obj.field(n, *s);
        }
        obj.build()
    }
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(MetricDef, f64)],
) -> String {
    let mut m = JsonObject::new();
    for (d, v) in metrics {
        m = m.field(
            &d.name,
            JsonObject::new()
                .field("value", *v)
                .field("unit", d.unit)
                .build(),
        );
    }
    JsonObject::new()
        .field("correct", correct)
        .field("attempted", attempted)
        .field("failed", failed)
        .field("metrics", m.build())
        .build()
        .render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert_eq!(median(&xs), 2.5);
        assert!(quantile(&[], 0.5).is_nan());
    }

    #[test]
    fn windowed_quantile_ignores_a_minority_burst() {
        // 100 samples of 1.0, one window of which is a burst at 9.0.
        let mut xs = vec![1.0; 100];
        xs[30..40].fill(9.0);
        assert_eq!(windowed_quantile(&xs, 0.9), 1.0);
        assert_eq!(quantile(&xs, 0.95), 9.0);
        // A change to every sample moves it.
        let slower: Vec<f64> = xs.iter().map(|x| x * 1.5).collect();
        assert_eq!(windowed_quantile(&slower, 0.9), 1.5);
        assert_eq!(windowed_quantile(&[2.0, 4.0], 0.5), 3.0);
    }

    #[test]
    fn catalog_names_are_unique_per_workload() {
        for w in Workload::ALL {
            let names: Vec<String> = catalog(w).into_iter().map(|d| d.name).collect();
            let mut dedup = names.clone();
            dedup.sort();
            dedup.dedup();
            assert_eq!(dedup.len(), names.len(), "{}", w.name());
        }
    }

    #[test]
    fn every_workload_reports_the_whole_manifest() {
        for per_layer in [false, true] {
            let names: Vec<String> = manifest(per_layer).into_iter().map(|d| d.name).collect();
            for w in Workload::ALL {
                let mut out = Outcome::default();
                for d in catalog(w).into_iter().filter(|d| d.per_layer == per_layer) {
                    out.put(d.name, 1.0, 1);
                }
                let got = out.select(w, per_layer);
                assert!(out.problems.is_empty(), "{}: {:?}", w.name(), out.problems);
                let got_names: Vec<String> = got.iter().map(|(d, _)| d.name.clone()).collect();
                assert_eq!(got_names, names, "{}", w.name());
                let measured = got.iter().filter(|(_, v)| *v == 1.0).count();
                let own = catalog(w)
                    .iter()
                    .filter(|d| d.per_layer == per_layer)
                    .count();
                assert_eq!(measured, own, "{}: bypassed layers read 0", w.name());
            }
        }
    }

    #[test]
    fn a_metric_has_one_unit_across_workloads() {
        for d in Workload::ALL.into_iter().flat_map(catalog) {
            let m = manifest(d.per_layer);
            let first = m
                .iter()
                .find(|o| o.name == d.name)
                .expect("in the manifest");
            assert_eq!(first.unit, d.unit, "{}", d.name);
        }
    }
}
