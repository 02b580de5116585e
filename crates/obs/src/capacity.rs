//! `flightctl capacity` — the serving-capacity planner.
//!
//! Consumes the `BENCH_serve.manifest.json` loadgen writes (measured
//! QPS + latency percentiles per server worker×batch configuration, in
//! its `scaling` block) and answers the operational question
//! "how many replicas and cores do I need for `--qps N` under
//! `--p99-ms B`?". The plan also reconciles the measurement against the
//! analytic accelerator models: for every conv layer of the measured
//! network it reports the ZC706 FPGA model's throughput
//! ([`flight_fpga::implement_layer`]) as a multiple of the measured
//! engine throughput, and the per-image ASIC energy
//! ([`flight_asic::layer_energy_uj`]) — the measured curve says what the
//! software engine does, the analytic columns say what the paper's
//! hardware would buy you.
//!
//! Sizing is deliberately conservative: a replica is only planned to
//! carry `headroom × measured_qps` (default 80%), because a box run at
//! 100% of its benchmarked throughput has no margin for the latency
//! tail the p99 bound is protecting.

use flight_asic::{layer_energy_uj, ComputeStyle, OpEnergy};
use flight_fpga::{implement_layer, Datapath, LayerDesign, ZC706};
use flight_telemetry::json::{JsonObject, JsonValue};
use flightnn::configs::NetworkConfig;
use flightnn::QuantScheme;

/// Fraction of a replica's measured throughput the plan budgets for
/// (see the module docs for why not 1.0).
pub const DEFAULT_HEADROOM: f64 = 0.8;

/// What the operator asked for.
#[derive(Debug, Clone)]
pub struct CapacityRequest {
    /// Aggregate throughput target, images (queries) per second.
    pub target_qps: f64,
    /// Upper bound on acceptable per-image p99 latency, milliseconds.
    /// `None` = any measured configuration qualifies.
    pub p99_bound_ms: Option<f64>,
    /// Planned utilization fraction per replica, `(0, 1]`.
    pub headroom: f64,
}

/// Why a plan could not be produced.
#[derive(Debug, Clone, PartialEq)]
pub enum CapacityError {
    /// The manifest is missing, malformed, or has no `scaling` block.
    Parse(String),
    /// The manifest is fine but no measured configuration satisfies the
    /// request (e.g. every p99 exceeds the bound).
    Infeasible(String),
}

impl std::fmt::Display for CapacityError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CapacityError::Parse(m) => write!(f, "cannot plan: {m}"),
            CapacityError::Infeasible(m) => write!(f, "infeasible: {m}"),
        }
    }
}

impl std::error::Error for CapacityError {}

/// One measured configuration, as read back from the manifest.
#[derive(Debug, Clone, PartialEq)]
pub struct MeasuredConfig {
    /// Server worker threads.
    pub workers: usize,
    /// Images per forward call.
    pub batch: usize,
    /// Measured images/s.
    pub qps: f64,
    /// Measured per-image latency percentiles, milliseconds.
    pub p50_ms: f64,
    /// p99, milliseconds.
    pub p99_ms: f64,
    /// p99.9, milliseconds.
    pub p999_ms: f64,
}

/// Measured-vs-analytic reconciliation for one conv layer.
#[derive(Debug, Clone)]
pub struct LayerDelta {
    /// Index in `conv_plan` order.
    pub index: usize,
    /// Human label: channels, kernel, input plane.
    pub label: String,
    /// ZC706 model throughput for this layer alone, images/s.
    pub analytic_qps: f64,
    /// `analytic_qps / measured_qps` of the chosen configuration.
    pub analytic_over_measured: f64,
    /// 65 nm ASIC computational energy per image, µJ.
    pub energy_uj: f64,
}

/// A complete plan: the sizing answer plus everything needed to audit it.
#[derive(Debug, Clone)]
pub struct CapacityPlan {
    /// The request this plan answers.
    pub target_qps: f64,
    /// Requested p99 bound, if any.
    pub p99_bound_ms: Option<f64>,
    /// Utilization fraction the sizing assumed.
    pub headroom: f64,
    /// Network id the measurement ran.
    pub network: u64,
    /// Quantization scheme label (`l1`, `l2`, …).
    pub scheme: String,
    /// CPU the manifest was measured on, when recorded.
    pub measured_on: Option<String>,
    /// The selected configuration (highest measured QPS within bound).
    pub chosen: MeasuredConfig,
    /// Replicas of the chosen configuration.
    pub replicas: u64,
    /// Total server worker cores (`replicas × workers`).
    pub cores: u64,
    /// Raw capacity of the fleet, images/s (`replicas × qps`).
    pub achieved_qps: f64,
    /// `target / achieved` — stays at or below `headroom` by
    /// construction.
    pub utilization: f64,
    /// Per-layer measured-vs-analytic reconciliation.
    pub layers: Vec<LayerDelta>,
}

/// Reads a manifest's `scaling` block and produces a plan.
///
/// # Errors
///
/// [`CapacityError::Parse`] on malformed input or an invalid request,
/// [`CapacityError::Infeasible`] when no measured configuration meets
/// the p99 bound.
pub fn plan_capacity(manifest: &str, req: &CapacityRequest) -> Result<CapacityPlan, CapacityError> {
    if !(req.target_qps > 0.0 && req.target_qps.is_finite()) {
        return Err(CapacityError::Parse(
            "--qps must be a positive number".into(),
        ));
    }
    if !(req.headroom > 0.0 && req.headroom <= 1.0) {
        return Err(CapacityError::Parse("--headroom must be in (0, 1]".into()));
    }

    let root = JsonValue::parse(manifest)
        .map_err(|e| CapacityError::Parse(format!("manifest is not valid JSON: {e}")))?;
    let scaling = root.get("scaling").ok_or_else(|| {
        CapacityError::Parse(
            "manifest has no `scaling` block — is this BENCH_serve.manifest.json?".into(),
        )
    })?;

    let network = scaling
        .get("network")
        .and_then(JsonValue::as_f64)
        .ok_or_else(|| CapacityError::Parse("scaling block lacks `network`".into()))?
        as u64;
    let scheme_label = scaling
        .get("scheme")
        .and_then(JsonValue::as_str)
        .unwrap_or("l1")
        .to_string();
    let image_dims = parse_dims(scaling.get("image_dims"))?;
    let configs = parse_configs(scaling.get("configs"))?;
    let measured_on = root
        .get("env")
        .and_then(|e| e.get("cpu_model"))
        .and_then(JsonValue::as_str)
        .map(str::to_string);

    // Pick the highest-throughput configuration whose measured p99
    // meets the bound.
    let eligible: Vec<&MeasuredConfig> = configs
        .iter()
        .filter(|c| req.p99_bound_ms.is_none_or(|bound| c.p99_ms <= bound))
        .collect();
    let Some(chosen) = eligible
        .iter()
        .max_by(|a, b| a.qps.total_cmp(&b.qps))
        .map(|c| (*c).clone())
    else {
        let best_p99 = configs
            .iter()
            .map(|c| c.p99_ms)
            .min_by(f64::total_cmp)
            .unwrap_or(f64::NAN);
        return Err(CapacityError::Infeasible(format!(
            "no measured configuration has p99 <= {:.3} ms (best measured: {best_p99:.3} ms)",
            req.p99_bound_ms.unwrap_or(f64::NAN)
        )));
    };

    let per_replica = chosen.qps * req.headroom;
    let replicas = (req.target_qps / per_replica).ceil().max(1.0) as u64;
    let achieved_qps = replicas as f64 * chosen.qps;
    let layers = layer_deltas(network, &scheme_label, image_dims, chosen.qps)?;

    Ok(CapacityPlan {
        target_qps: req.target_qps,
        p99_bound_ms: req.p99_bound_ms,
        headroom: req.headroom,
        network,
        scheme: scheme_label,
        measured_on,
        cores: replicas * chosen.workers as u64,
        utilization: req.target_qps / achieved_qps,
        achieved_qps,
        replicas,
        chosen,
        layers,
    })
}

fn parse_dims(dims: Option<&JsonValue>) -> Result<[usize; 3], CapacityError> {
    let arr = dims
        .and_then(JsonValue::as_array)
        .ok_or_else(|| CapacityError::Parse("scaling block lacks `image_dims`".into()))?;
    let [c, h, w] = arr else {
        return Err(CapacityError::Parse("`image_dims` is not [c, h, w]".into()));
    };
    let to_dim = |v: &JsonValue| {
        v.as_f64()
            .filter(|x| *x >= 1.0)
            .map(|x| x as usize)
            .ok_or_else(|| CapacityError::Parse("`image_dims` entries must be positive".into()))
    };
    Ok([to_dim(c)?, to_dim(h)?, to_dim(w)?])
}

fn parse_configs(configs: Option<&JsonValue>) -> Result<Vec<MeasuredConfig>, CapacityError> {
    let arr = configs
        .and_then(JsonValue::as_array)
        .ok_or_else(|| CapacityError::Parse("scaling block lacks `configs`".into()))?;
    let mut out = Vec::new();
    for (i, cfg) in arr.iter().enumerate() {
        let num = |v: Option<&JsonValue>, what: &str| {
            v.and_then(JsonValue::as_f64)
                .filter(|x| x.is_finite())
                .ok_or_else(|| CapacityError::Parse(format!("config #{i} lacks a finite `{what}`")))
        };
        let latency = cfg.get("latency_ms");
        let lat = |k: &str| num(latency.and_then(|l| l.get(k)), &format!("latency_ms.{k}"));
        out.push(MeasuredConfig {
            workers: num(cfg.get("workers"), "workers")? as usize,
            batch: num(cfg.get("batch"), "batch")? as usize,
            qps: num(cfg.get("qps"), "qps")?,
            p50_ms: lat("p50")?,
            p99_ms: lat("p99")?,
            p999_ms: lat("p999")?,
        });
    }
    if out.is_empty() {
        return Err(CapacityError::Parse("`configs` is empty".into()));
    }
    Ok(out)
}

/// The scheme the manifest labels map onto. Labels come from the
/// exhibit, so unknown ones are a parse error, not a default.
fn scheme_by_label(label: &str) -> Result<QuantScheme, CapacityError> {
    match label {
        "l1" => Ok(QuantScheme::l1()),
        "l2" => Ok(QuantScheme::l2()),
        "fp4w8a" => Ok(QuantScheme::fp4w8a()),
        "full" => Ok(QuantScheme::full()),
        other => Err(CapacityError::Parse(format!(
            "unknown scheme label {other:?} in scaling block"
        ))),
    }
}

/// The analytic columns: per conv layer of the measured network, the
/// ZC706 model throughput and the ASIC per-image energy, anchored to
/// the measured engine throughput.
fn layer_deltas(
    network: u64,
    scheme_label: &str,
    image_dims: [usize; 3],
    measured_qps: f64,
) -> Result<Vec<LayerDelta>, CapacityError> {
    if !(1..=8).contains(&network) {
        return Err(CapacityError::Parse(format!(
            "network id {network} outside the paper's 1..=8"
        )));
    }
    let scheme = scheme_by_label(scheme_label)?;
    let datapath = Datapath::from_scheme(&scheme, None);
    let bits_per_weight = scheme.fixed_weight_bits().unwrap_or(6) as usize;
    let style = ComputeStyle::from_scheme(&scheme, None);
    let table = OpEnergy::nm65();

    let plan = NetworkConfig::by_id(network as u8).conv_plan(image_dims, 1.0);
    let mut layers = Vec::with_capacity(plan.len());
    for (index, spec) in plan.into_iter().enumerate() {
        let design = LayerDesign {
            spec,
            datapath,
            weight_bits: spec.weights() * bits_per_weight,
        };
        let imp = implement_layer(&design, &ZC706).map_err(|e| {
            CapacityError::Parse(format!(
                "conv layer {index} does not fit the ZC706 model: {e}"
            ))
        })?;
        layers.push(LayerDelta {
            index,
            label: format!(
                "conv {}x{}x{} -> {} k{}",
                spec.in_channels, spec.in_h, spec.in_w, spec.out_channels, spec.kernel
            ),
            analytic_qps: imp.throughput,
            analytic_over_measured: imp.throughput / measured_qps.max(1e-12),
            energy_uj: layer_energy_uj(&spec, &style, &table),
        });
    }
    Ok(layers)
}

impl CapacityPlan {
    /// The human-facing table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let bound = match self.p99_bound_ms {
            Some(b) => format!(", p99 <= {b:.3} ms"),
            None => String::new(),
        };
        out.push_str(&format!(
            "capacity plan: {:.0} qps{bound}, headroom {:.2}\n",
            self.target_qps, self.headroom
        ));
        out.push_str(&format!(
            "  measured: network {}, scheme {}{}\n",
            self.network,
            self.scheme,
            self.measured_on
                .as_deref()
                .map(|m| format!(" on {m}"))
                .unwrap_or_default()
        ));
        out.push_str(&format!(
            "  chosen config: {} worker(s) x batch {} -> {:.1} qps/replica \
             (p50 {:.3} ms, p99 {:.3} ms, p999 {:.3} ms)\n",
            self.chosen.workers,
            self.chosen.batch,
            self.chosen.qps,
            self.chosen.p50_ms,
            self.chosen.p99_ms,
            self.chosen.p999_ms
        ));
        out.push_str(&format!(
            "  plan: {} replica(s), {} core(s), {:.1} qps raw capacity, {:.1}% planned utilization\n",
            self.replicas,
            self.cores,
            self.achieved_qps,
            self.utilization * 100.0
        ));
        out.push_str("  layers (analytic ZC706 / 65nm vs measured engine):\n");
        out.push_str(&format!(
            "    {:<3} {:<28} {:>14} {:>12} {:>14}\n",
            "#", "layer", "analytic qps", "x measured", "energy uJ/img"
        ));
        for l in &self.layers {
            out.push_str(&format!(
                "    {:<3} {:<28} {:>14.1} {:>12.2} {:>14.3}\n",
                l.index, l.label, l.analytic_qps, l.analytic_over_measured, l.energy_uj
            ));
        }
        out
    }

    /// The machine-facing JSON (`--json`).
    pub fn render_json(&self) -> String {
        let opt = |v: Option<f64>| match v {
            Some(x) => JsonValue::from(x),
            None => JsonValue::Null,
        };
        let layers: Vec<JsonValue> = self
            .layers
            .iter()
            .map(|l| {
                JsonObject::new()
                    .field("index", l.index)
                    .field("label", l.label.as_str())
                    .field("analytic_qps", l.analytic_qps)
                    .field("analytic_over_measured", l.analytic_over_measured)
                    .field("energy_uj", l.energy_uj)
                    .build()
            })
            .collect();
        JsonObject::new()
            .field("target_qps", self.target_qps)
            .field("p99_bound_ms", opt(self.p99_bound_ms))
            .field("headroom", self.headroom)
            .field("network", self.network)
            .field("scheme", self.scheme.as_str())
            .field(
                "measured_on",
                match &self.measured_on {
                    Some(m) => JsonValue::from(m.as_str()),
                    None => JsonValue::Null,
                },
            )
            .field(
                "chosen",
                JsonObject::new()
                    .field("workers", self.chosen.workers)
                    .field("batch", self.chosen.batch)
                    .field("qps", self.chosen.qps)
                    .field("p50_ms", self.chosen.p50_ms)
                    .field("p99_ms", self.chosen.p99_ms)
                    .field("p999_ms", self.chosen.p999_ms)
                    .build(),
            )
            .field("replicas", self.replicas)
            .field("cores", self.cores)
            .field("achieved_qps", self.achieved_qps)
            .field("utilization", self.utilization)
            .field("layers", layers)
            .build()
            .render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manifest(p99_w2: f64) -> String {
        format!(
            r#"{{
  "schema_version": 2,
  "exhibit": "serve",
  "env": {{"logical_cores": 8, "cpu_model": "Test CPU"}},
  "scaling": {{
    "network": 1,
    "scheme": "l1",
    "image_dims": [3, 32, 32],
    "reference_batch": 32,
    "reps": 3,
    "configs": [
      {{"workers": 1, "batch": 32, "qps": 100.0, "samples": 96,
        "latency_ms": {{"min": 300.0, "p50": 310.0, "p90": 318.0, "p95": 319.0,
                        "p99": 320.0, "p999": 321.0, "max": 322.0}}}},
      {{"workers": 2, "batch": 32, "qps": 180.0, "samples": 96,
        "latency_ms": {{"min": 80.0, "p50": 150.0, "p90": 170.0, "p95": 172.0,
                        "p99": {p99_w2}, "p999": 176.0, "max": 177.0}}}}
    ]
  }}
}}"#
        )
    }

    fn request(qps: f64, p99: Option<f64>) -> CapacityRequest {
        CapacityRequest {
            target_qps: qps,
            p99_bound_ms: p99,
            headroom: DEFAULT_HEADROOM,
        }
    }

    #[test]
    fn plans_against_the_fastest_eligible_config() {
        let plan = plan_capacity(&manifest(174.0), &request(50_000.0, Some(200.0))).expect("plan");
        assert_eq!(plan.chosen.workers, 2);
        assert_eq!(plan.chosen.qps, 180.0);
        // ceil(50000 / (180 * 0.8)) = ceil(347.2) = 348 replicas.
        assert_eq!(plan.replicas, 348);
        assert_eq!(plan.cores, 696);
        assert!(plan.achieved_qps >= 50_000.0);
        assert!(plan.utilization <= DEFAULT_HEADROOM + 1e-9);
        assert_eq!(plan.measured_on.as_deref(), Some("Test CPU"));
    }

    #[test]
    fn p99_bound_excludes_slow_configs() {
        // Bound below the w2 p99: the planner must fall back to w1.
        let plan = plan_capacity(&manifest(400.0), &request(1_000.0, Some(330.0))).expect("plan");
        assert_eq!(plan.chosen.workers, 1);
        assert_eq!(plan.chosen.qps, 100.0);
        // Bound below every config: infeasible, not a panic.
        let err = plan_capacity(&manifest(400.0), &request(1_000.0, Some(10.0))).unwrap_err();
        assert!(matches!(err, CapacityError::Infeasible(_)), "{err}");
        assert!(err.to_string().contains("320"), "names the best p99: {err}");
    }

    #[test]
    fn layer_deltas_are_finite_and_cover_the_network() {
        let plan = plan_capacity(&manifest(174.0), &request(500.0, None)).expect("plan");
        // Network 1 has a known conv stack; at least a handful of layers.
        assert!(plan.layers.len() >= 3, "layers: {}", plan.layers.len());
        for l in &plan.layers {
            assert!(l.analytic_qps.is_finite() && l.analytic_qps > 0.0);
            assert!(l.analytic_over_measured.is_finite() && l.analytic_over_measured > 0.0);
            assert!(l.energy_uj.is_finite() && l.energy_uj > 0.0);
        }
    }

    #[test]
    fn render_json_parses_and_echoes_the_sizing() {
        let plan = plan_capacity(&manifest(174.0), &request(50_000.0, Some(200.0))).expect("plan");
        let v = JsonValue::parse(&plan.render_json()).expect("valid JSON");
        assert_eq!(v.get("replicas").and_then(JsonValue::as_f64), Some(348.0));
        assert_eq!(v.get("cores").and_then(JsonValue::as_f64), Some(696.0));
        let layers = v
            .get("layers")
            .and_then(JsonValue::as_array)
            .expect("layers");
        assert_eq!(layers.len(), plan.layers.len());
        for l in layers {
            let delta = l
                .get("analytic_over_measured")
                .and_then(JsonValue::as_f64)
                .expect("delta present and finite");
            assert!(delta.is_finite());
        }
        // Human rendering mentions the same numbers.
        let text = plan.render();
        assert!(text.contains("348 replica(s)"), "{text}");
    }

    #[test]
    fn malformed_manifests_are_parse_errors() {
        let req = request(100.0, None);
        for (input, needle) in [
            ("not json", "not valid JSON"),
            ("{}", "no `scaling` block"),
            (r#"{"scaling": {}}"#, "lacks `network`"),
            (
                r#"{"scaling": {"network": 1, "image_dims": [3, 32, 32], "configs": []}}"#,
                "empty",
            ),
            (
                r#"{"scaling": {"network": 1, "image_dims": [3, 32, 32],
                    "configs": [{"workers": 1}]}}"#,
                "lacks a finite",
            ),
            (
                r#"{"scaling": {"network": 99, "image_dims": [3, 32, 32],
                    "configs": [{"workers": 1, "batch": 32, "qps": 10.0,
                    "latency_ms": {"p50": 1.0, "p99": 2.0, "p999": 3.0}}]}}"#,
                "outside the paper",
            ),
        ] {
            let err = plan_capacity(input, &req).unwrap_err();
            assert!(matches!(err, CapacityError::Parse(_)), "{input}: {err}");
            assert!(err.to_string().contains(needle), "{input}: {err}");
        }
        // Bad requests are parse errors too.
        let good = manifest(174.0);
        let err = plan_capacity(&good, &request(-5.0, None)).unwrap_err();
        assert!(err.to_string().contains("--qps"), "{err}");
        let mut bad_headroom = request(100.0, None);
        bad_headroom.headroom = 1.5;
        let err = plan_capacity(&good, &bad_headroom).unwrap_err();
        assert!(err.to_string().contains("--headroom"), "{err}");
    }
}
