//! What the server serves: a [`ModelSpec`] (how to build a network) and
//! the [`ServingModel`] it compiles to (an immutable [`CompiledNet`]
//! plus its published version).
//!
//! Specs are deliberately tiny and deterministic — a paper network id, a
//! quantization scheme label, a seed, and the input geometry — so a
//! `swap` request over the wire reproduces the exact same compiled
//! engine as an in-process build of the same spec. (Real deployments
//! would load trained weights from an artifact; the deterministic
//! seeded build keeps the serving machinery testable bit-for-bit
//! without shipping checkpoints.)

use flight_kernels::CompiledNet;
use flight_telemetry::json::{JsonObject, JsonValue};
use flight_tensor::TensorRng;
use flightnn::configs::NetworkConfig;
use flightnn::QuantScheme;

/// A deterministic recipe for one servable model.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelSpec {
    /// Paper network id, `1..=8`.
    pub network: u8,
    /// Quantization scheme label: `l1`, `l2`, `fp4w8a`, or `full`.
    pub scheme: String,
    /// Weight-init seed; two specs differing only in seed are distinct
    /// models with bit-distinct logits.
    pub seed: u64,
    /// Channel width scale.
    pub width: f32,
    /// Output classes.
    pub classes: usize,
    /// Input image `[c, h, w]`.
    pub image_dims: [usize; 3],
}

impl Default for ModelSpec {
    /// Network 1, `l1`, seed 0, quarter width, 10 classes on
    /// `[3, 16, 16]` — the same small-but-real configuration the engine
    /// docs compile.
    fn default() -> Self {
        ModelSpec {
            network: 1,
            scheme: "l1".to_string(),
            seed: 0,
            width: 0.25,
            classes: 10,
            image_dims: [3, 16, 16],
        }
    }
}

/// The scheme a spec label names.
///
/// # Errors
///
/// Unknown labels are an error, not a default — a typo in a swap request
/// must not silently serve the wrong arithmetic.
pub fn scheme_by_label(label: &str) -> Result<QuantScheme, String> {
    match label {
        "l1" => Ok(QuantScheme::l1()),
        "l2" => Ok(QuantScheme::l2()),
        "fp4w8a" => Ok(QuantScheme::fp4w8a()),
        "full" => Ok(QuantScheme::full()),
        other => Err(format!(
            "unknown scheme label {other:?} (expected l1 | l2 | fp4w8a | full)"
        )),
    }
}

impl ModelSpec {
    /// Builds and compiles the spec (batch norms fused into the conv
    /// stages).
    ///
    /// # Errors
    ///
    /// Invalid network id or scheme label, or a compile failure.
    pub fn build(&self) -> Result<CompiledNet, String> {
        if !(1..=8).contains(&self.network) {
            return Err(format!(
                "network id {} outside the paper's 1..=8",
                self.network
            ));
        }
        if self.classes == 0 {
            return Err("need at least one class".to_string());
        }
        let scheme = scheme_by_label(&self.scheme)?;
        let mut rng = TensorRng::seed(self.seed);
        let mut net = NetworkConfig::by_id(self.network).build(
            &scheme,
            &mut rng,
            self.classes,
            self.image_dims,
            self.width,
        );
        CompiledNet::compile(&mut net, true).map_err(|e| e.to_string())
    }

    /// Flattened input length, `c·h·w`.
    pub fn input_len(&self) -> usize {
        self.image_dims.iter().product()
    }

    /// The spec as protocol JSON fields.
    pub fn json(&self) -> JsonValue {
        JsonObject::new()
            .field("network", self.network as u64)
            .field("scheme", self.scheme.as_str())
            .field("seed", self.seed)
            .field("width", self.width)
            .field("classes", self.classes)
            .field(
                "image_dims",
                self.image_dims
                    .iter()
                    .map(|&d| JsonValue::from(d))
                    .collect::<Vec<_>>(),
            )
            .build()
    }

    /// Reads a spec from protocol JSON; absent fields keep the
    /// [`Default`] values, so `{"op":"swap","seed":7}` means "same shape,
    /// new weights".
    ///
    /// # Errors
    ///
    /// Malformed field types or values.
    pub fn from_json(root: &JsonValue) -> Result<ModelSpec, String> {
        let mut spec = ModelSpec::default();
        let uint = |v: &JsonValue, what: &str| {
            v.as_f64()
                .filter(|x| x.is_finite() && *x >= 0.0 && x.fract() == 0.0)
                .map(|x| x as u64)
                .ok_or_else(|| format!("`{what}` must be a non-negative integer"))
        };
        if let Some(v) = root.get("network") {
            spec.network = uint(v, "network")?
                .try_into()
                .map_err(|_| "`network` out of range".to_string())?;
        }
        if let Some(v) = root.get("scheme") {
            spec.scheme = v
                .as_str()
                .ok_or_else(|| "`scheme` must be a string".to_string())?
                .to_string();
        }
        if let Some(v) = root.get("seed") {
            spec.seed = uint(v, "seed")?;
        }
        if let Some(v) = root.get("width") {
            spec.width = v
                .as_f64()
                .filter(|x| x.is_finite() && *x > 0.0)
                .ok_or_else(|| "`width` must be a positive number".to_string())?
                as f32;
        }
        if let Some(v) = root.get("classes") {
            spec.classes = uint(v, "classes")? as usize;
        }
        if let Some(v) = root.get("image_dims") {
            let arr = v
                .as_array()
                .ok_or_else(|| "`image_dims` must be [c, h, w]".to_string())?;
            let [c, h, w] = arr else {
                return Err("`image_dims` must have exactly 3 entries".to_string());
            };
            spec.image_dims = [
                uint(c, "image_dims")? as usize,
                uint(h, "image_dims")? as usize,
                uint(w, "image_dims")? as usize,
            ];
        }
        Ok(spec)
    }
}

/// A published model: the immutable compiled engine every server worker
/// shares, stamped with the version the swap slot assigned it.
#[derive(Debug)]
pub struct ServingModel {
    /// Monotonically increasing publish counter (1 = the boot model).
    pub version: u64,
    /// The recipe this engine was built from.
    pub spec: ModelSpec,
    /// The compiled stage list (`Send + Sync`; workers run it through
    /// their own `ExecCtx`).
    pub net: CompiledNet,
}

impl ServingModel {
    /// Flattened input length one request must provide.
    pub fn input_len(&self) -> usize {
        self.spec.input_len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_spec_builds_and_round_trips_through_json() {
        let spec = ModelSpec::default();
        let net = spec.build().expect("default spec compiles");
        assert!(net.stages() > 0);
        let parsed = ModelSpec::from_json(&JsonValue::parse(&spec.json().render()).unwrap())
            .expect("round trip");
        assert_eq!(parsed, spec);
    }

    #[test]
    fn same_seed_same_bits_different_seed_different_bits() {
        use flight_kernels::ExecCtx;
        use flight_tensor::uniform;
        let spec_a = ModelSpec::default();
        let spec_a2 = ModelSpec::default();
        let spec_b = ModelSpec {
            seed: 1,
            ..ModelSpec::default()
        };
        let x = uniform(&mut TensorRng::seed(7), &[1, 3, 16, 16], -1.0, 1.0);
        let mut ctx = ExecCtx::new();
        let mut run = |spec: &ModelSpec| {
            spec.build()
                .unwrap()
                .forward(&x, &mut ctx)
                .0
                .as_slice()
                .to_vec()
        };
        let (a, a2, b) = (run(&spec_a), run(&spec_a2), run(&spec_b));
        assert_eq!(a, a2, "spec builds are deterministic");
        assert_ne!(a, b, "seeds distinguish models");
    }

    #[test]
    fn bad_specs_are_rejected() {
        for (patch, needle) in [
            (r#"{"network": 9}"#, "1..=8"),
            (r#"{"scheme": "l9"}"#, "unknown scheme"),
            (r#"{"classes": 0}"#, "class"),
        ] {
            let spec = ModelSpec::from_json(&JsonValue::parse(patch).unwrap());
            let err = spec.and_then(|s| s.build().map(|_| ())).unwrap_err();
            assert!(err.contains(needle), "{patch}: {err}");
        }
        assert!(ModelSpec::from_json(&JsonValue::parse(r#"{"width": -1}"#).unwrap()).is_err());
        assert!(
            ModelSpec::from_json(&JsonValue::parse(r#"{"image_dims": [3]}"#).unwrap()).is_err()
        );
    }
}
