//! Run-level observability for the exhibit binaries.
//!
//! Every binary in `src/bin/` opens a [`BenchRun`] at startup. The run
//! installs the sink selected by the `FLIGHT_TELEMETRY` environment
//! variable (see [`Telemetry::from_env`]), brackets the whole
//! regeneration in a `bench.<exhibit>` span, and on [`BenchRun::finish`]
//! writes a machine-readable run manifest
//! (`BENCH_<exhibit>.manifest.json`, in `FLIGHT_BENCH_DIR` or the
//! working directory) recording the profile, the git revision, the
//! elapsed wall clock, and the final [`ModelRow`]s of every table the
//! run produced. The same JSON is also emitted as a single
//! `bench.run_manifest` telemetry event, so a JSONL trace is
//! self-describing.

use flight_telemetry::json::{JsonObject, JsonValue};
use flight_telemetry::{Span, Telemetry};

use crate::profile::BenchProfile;
use crate::suite::ModelRow;

/// Manifest schema version; bump when the JSON layout changes.
///
/// v3 dropped v2's flat `metrics` object (a second copy of the table
/// rows and extras under dotted names); the rows and the top-level
/// extras are the only copy.
pub const MANIFEST_SCHEMA_VERSION: u64 = 3;

/// Environment variable naming the directory manifests are written to
/// (default: the working directory).
pub const BENCH_DIR_ENV: &str = "FLIGHT_BENCH_DIR";

/// The host a manifest's numbers were measured on. Throughput-style
/// metrics are machine-dependent; recording the machine in the manifest
/// makes cross-run comparisons (perfbench's A/B runs, serve manifests
/// from different hosts) interpretable instead of mysterious.
#[derive(Debug, Clone, PartialEq)]
pub struct HostEnv {
    /// Logical core count (`available_parallelism`).
    pub logical_cores: usize,
    /// CPU model string from `/proc/cpuinfo`, or `"unknown"`.
    pub cpu_model: String,
    /// SIMD-relevant CPU features (`"avx2,fma,sse4.2"` style label from
    /// [`flight_kernels::cpu_features`]), so cross-machine perf diffs
    /// can tell a capability gap from a regression.
    pub cpu_features: String,
    /// The kernel dispatch path forwards on this host engage
    /// (`avx2`/`portable`/`scalar`; honors `FLIGHT_FORCE_SCALAR`).
    pub kernel_dispatch: String,
}

impl HostEnv {
    /// Probes the current host.
    pub fn detect() -> Self {
        HostEnv {
            logical_cores: std::thread::available_parallelism().map_or(1, |c| c.get()),
            cpu_model: cpu_model(),
            cpu_features: flight_kernels::cpu_features().label(),
            kernel_dispatch: flight_kernels::active_path().name().to_string(),
        }
    }

    /// The manifest `env` block.
    pub fn json(&self) -> JsonValue {
        JsonObject::new()
            .field("logical_cores", self.logical_cores)
            .field("cpu_model", self.cpu_model.as_str())
            .field("cpu_features", self.cpu_features.as_str())
            .field("kernel_dispatch", self.kernel_dispatch.as_str())
            .build()
    }
}

/// The `model name` line of `/proc/cpuinfo` (first occurrence), or
/// `"unknown"` on platforms without it.
fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, model)| model.trim().to_string())
        })
        .filter(|m| !m.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// One exhibit regeneration: an env-configured telemetry handle, a
/// run-level span, and the manifest writer.
#[derive(Debug)]
pub struct BenchRun {
    exhibit: String,
    telemetry: Telemetry,
    span: Span,
    env: HostEnv,
}

impl BenchRun {
    /// Starts a run for `exhibit` (e.g. `"table2"`), reading
    /// `FLIGHT_TELEMETRY` for the sink.
    pub fn start(exhibit: &str) -> Self {
        let telemetry = Telemetry::from_env();
        let span = telemetry.span(&format!("bench.{exhibit}"));
        BenchRun {
            exhibit: exhibit.to_string(),
            telemetry,
            span,
            env: HostEnv::detect(),
        }
    }

    /// The run's telemetry handle, for threading into
    /// [`train_model`](crate::suite::train_model) and
    /// [`run_network_suite`](crate::suite::run_network_suite).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Ends the run: emits the `bench.run_manifest` event, closes the
    /// run span, and writes `BENCH_<exhibit>.manifest.json`. `tables`
    /// pairs a table name (e.g. `"network1"`) with its final rows;
    /// exhibits without a profile or tables pass `None` / `&[]`.
    pub fn finish(self, profile: Option<&BenchProfile>, tables: &[(String, Vec<ModelRow>)]) {
        self.finish_with(profile, tables, &[]);
    }

    /// [`BenchRun::finish`] with exhibit-specific top-level manifest
    /// fields appended after the shared schema — e.g. the `lowering`
    /// exhibit records `"parity": true` and its measured `"speedup"` so
    /// CI can gate on them with a plain grep.
    pub fn finish_with(
        self,
        profile: Option<&BenchProfile>,
        tables: &[(String, Vec<ModelRow>)],
        extras: &[(&str, JsonValue)],
    ) {
        // Record the companion JSONL trace path (when one is being
        // written) so the manifest says where to point
        // `flightctl export` / `summarize` without shell archaeology.
        let mut extras: Vec<(&str, JsonValue)> = extras.to_vec();
        let spec = std::env::var(Telemetry::ENV_VAR).unwrap_or_default();
        if let Some(path) = trace_path_from_spec(&spec) {
            extras.push(("trace_path", JsonValue::String(path)));
        }
        let manifest = render_manifest(
            &self.exhibit,
            profile,
            tables,
            self.span.elapsed_secs(),
            &git_describe(),
            Some(&self.env),
            &extras,
        );
        self.telemetry.manifest("bench.run_manifest", &manifest);
        drop(self.span);

        let dir = std::env::var(BENCH_DIR_ENV).unwrap_or_else(|_| ".".to_string());
        let path = std::path::Path::new(&dir).join(format!("BENCH_{}.manifest.json", self.exhibit));
        match std::fs::write(&path, format!("{manifest}\n")) {
            Ok(()) => eprintln!("run manifest written to {}", path.display()),
            Err(e) => eprintln!("cannot write run manifest {}: {e}", path.display()),
        }
    }
}

/// Builds the manifest JSON text (separated from [`BenchRun::finish`] so
/// tests can check the schema without touching the filesystem). `extras`
/// are exhibit-specific top-level fields appended after the shared
/// schema; the layout of the shared fields is still schema version
/// [`MANIFEST_SCHEMA_VERSION`] (additions are backward compatible).
pub fn render_manifest(
    exhibit: &str,
    profile: Option<&BenchProfile>,
    tables: &[(String, Vec<ModelRow>)],
    elapsed_secs: f64,
    git_describe: &str,
    env: Option<&HostEnv>,
    extras: &[(&str, JsonValue)],
) -> String {
    let profile_json = match profile {
        Some(p) => JsonObject::new()
            .field("fidelity", format!("{:?}", p.fidelity).to_lowercase())
            .field("epochs", p.epochs)
            .field("batch", p.batch)
            .field("lr", p.lr)
            .field("width_target", p.width_target)
            .field("seed", p.seed)
            .build(),
        None => JsonValue::Null,
    };
    let tables_json: Vec<JsonValue> = tables
        .iter()
        .map(|(name, rows)| {
            JsonObject::new()
                .field("name", name.as_str())
                .field(
                    "rows",
                    rows.iter().map(row_json).collect::<Vec<JsonValue>>(),
                )
                .build()
        })
        .collect();
    let mut obj = JsonObject::new()
        .field("schema_version", MANIFEST_SCHEMA_VERSION)
        .field("exhibit", exhibit)
        .field("profile", profile_json)
        .field("git_describe", git_describe)
        .field("elapsed_secs", elapsed_secs)
        .field("env", env.map_or(JsonValue::Null, HostEnv::json))
        .field("tables", tables_json);
    for (key, value) in extras {
        obj = obj.field(key, value.clone());
    }
    obj.build().render()
}

/// The JSONL trace path a `FLIGHT_TELEMETRY` spec writes to, if any:
/// `jsonl:<path>` resolves to `<path>`; every other spec (stderr, null,
/// typos) resolves to `None`.
pub fn trace_path_from_spec(spec: &str) -> Option<String> {
    spec.trim()
        .strip_prefix("jsonl:")
        .filter(|p| !p.is_empty())
        .map(str::to_string)
}

fn row_json(row: &ModelRow) -> JsonValue {
    JsonObject::new()
        .field("label", row.label.as_str())
        .field("accuracy", row.accuracy)
        .field("storage_mb", row.storage_mb)
        .field("throughput", row.throughput)
        .field("speedup", row.speedup)
        .field("energy_uj", row.energy_uj)
        .field("mean_k", row.mean_k)
        .build()
}

/// `git describe --always --dirty` of the working tree, or `"unknown"`
/// outside a repository / without git.
pub fn git_describe() -> String {
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use flight_data::Fidelity;

    fn row(label: &str) -> ModelRow {
        ModelRow {
            label: label.to_string(),
            accuracy: 0.5,
            storage_mb: 1.25,
            throughput: 100.0,
            speedup: 2.0,
            energy_uj: 0.75,
            mean_k: Some(1.5),
        }
    }

    #[test]
    fn manifest_parses_and_carries_the_schema() {
        let profile = BenchProfile::for_fidelity(Fidelity::Smoke);
        let tables = vec![("network1".to_string(), vec![row("Full"), row("FL_b")])];
        let text = render_manifest(
            "table2",
            Some(&profile),
            &tables,
            3.5,
            "abc123-dirty",
            None,
            &[],
        );
        let v = JsonValue::parse(&text).expect("manifest is valid JSON");
        assert_eq!(
            v.get("schema_version").and_then(JsonValue::as_f64),
            Some(MANIFEST_SCHEMA_VERSION as f64)
        );
        assert_eq!(v.get("exhibit").and_then(JsonValue::as_str), Some("table2"));
        assert_eq!(
            v.get("git_describe").and_then(JsonValue::as_str),
            Some("abc123-dirty")
        );
        let profile = v.get("profile").expect("profile object");
        assert_eq!(
            profile.get("fidelity").and_then(JsonValue::as_str),
            Some("smoke")
        );
        assert_eq!(profile.get("epochs").and_then(JsonValue::as_f64), Some(8.0));
        let tables = v
            .get("tables")
            .and_then(JsonValue::as_array)
            .expect("tables");
        assert_eq!(tables.len(), 1);
        let rows = tables[0]
            .get("rows")
            .and_then(JsonValue::as_array)
            .expect("rows");
        assert_eq!(rows.len(), 2);
        assert_eq!(
            rows[1].get("label").and_then(JsonValue::as_str),
            Some("FL_b")
        );
        assert_eq!(rows[1].get("mean_k").and_then(JsonValue::as_f64), Some(1.5));
        assert!(v.get("metrics").is_none(), "v3 keeps one copy of the rows");
    }

    #[test]
    fn profileless_manifest_has_null_profile() {
        let text = render_manifest("fig4", None, &[], 0.1, "unknown", None, &[]);
        let v = JsonValue::parse(&text).expect("valid JSON");
        assert!(matches!(v.get("profile"), Some(JsonValue::Null)));
        assert_eq!(
            v.get("tables")
                .and_then(JsonValue::as_array)
                .map(|t| t.len()),
            Some(0)
        );
    }

    #[test]
    fn extras_become_top_level_manifest_fields() {
        let extras = [
            ("parity", JsonValue::Bool(true)),
            ("speedup", JsonValue::Number(2.9)),
        ];
        let text = render_manifest("lowering", None, &[], 0.2, "unknown", None, &extras);
        let v = JsonValue::parse(&text).expect("valid JSON");
        assert!(matches!(v.get("parity"), Some(JsonValue::Bool(true))));
        assert_eq!(v.get("speedup").and_then(JsonValue::as_f64), Some(2.9));
        // Shared schema fields survive the append.
        assert_eq!(
            v.get("exhibit").and_then(JsonValue::as_str),
            Some("lowering")
        );
    }

    #[test]
    fn env_block_records_the_measurement_host() {
        let env = HostEnv {
            logical_cores: 12,
            cpu_model: "Imaginary CPU @ 3.0GHz".to_string(),
            cpu_features: "avx2,fma,sse4.2".to_string(),
            kernel_dispatch: "avx2".to_string(),
        };
        let text = render_manifest("serve", None, &[], 0.3, "abc", Some(&env), &[]);
        let v = JsonValue::parse(&text).expect("valid JSON");
        let e = v.get("env").expect("env object");
        assert_eq!(
            e.get("logical_cores").and_then(JsonValue::as_f64),
            Some(12.0)
        );
        assert_eq!(
            e.get("cpu_model").and_then(JsonValue::as_str),
            Some("Imaginary CPU @ 3.0GHz")
        );
        assert_eq!(
            e.get("cpu_features").and_then(JsonValue::as_str),
            Some("avx2,fma,sse4.2")
        );
        assert_eq!(
            e.get("kernel_dispatch").and_then(JsonValue::as_str),
            Some("avx2")
        );
        assert_eq!(e.get("workers"), None, "no per-run worker knob");
        // Without an env the field is explicit null, not absent.
        let bare = render_manifest("serve", None, &[], 0.3, "abc", None, &[]);
        let v = JsonValue::parse(&bare).expect("valid JSON");
        assert!(matches!(v.get("env"), Some(JsonValue::Null)));
    }

    #[test]
    fn detect_probes_a_plausible_host() {
        let env = HostEnv::detect();
        assert!(env.logical_cores >= 1);
        assert!(!env.cpu_model.is_empty());
        assert!(!env.cpu_features.is_empty());
        assert!(["avx2", "portable", "scalar"].contains(&env.kernel_dispatch.as_str()));
    }

    #[test]
    fn trace_path_resolves_jsonl_specs_only() {
        assert_eq!(
            trace_path_from_spec("jsonl:run.jsonl"),
            Some("run.jsonl".to_string())
        );
        assert_eq!(trace_path_from_spec("stderr"), None);
        assert_eq!(trace_path_from_spec("jsonl:"), None);
        assert_eq!(trace_path_from_spec(""), None);
    }

    #[test]
    fn git_describe_never_panics() {
        // In a repo this is a hash; elsewhere "unknown" — either way,
        // non-empty and newline-free.
        let d = git_describe();
        assert!(!d.is_empty());
        assert!(!d.contains('\n'));
    }
}
