//! A small blocking client for the serve protocol. Used by the CLI
//! (`flightq`), the load generator, and the integration tests; the wire
//! format is public, so third-party clients are one frame-writer away.
//!
//! [`ServeClient`] holds only the typed verbs. Framing, the round trip
//! and the reply-envelope check live in
//! [`flight_telemetry::frame::WireClient`], which `flightctl top` uses
//! too; [`ServeError`] is that module's error type.

pub use flight_telemetry::frame::ServeError;
use flight_telemetry::frame::WireClient;
use flight_telemetry::json::{JsonObject, JsonValue};

use crate::model::ModelSpec;

/// A successful inference.
#[derive(Debug, Clone, PartialEq)]
pub struct InferOk {
    /// Server-assigned request id (echoed for cross-referencing with
    /// server-side exemplar timelines; 0 from pre-tracing servers).
    pub request_id: u64,
    /// Class logits.
    pub logits: Vec<f32>,
    /// Version of the model that answered.
    pub version: u64,
    /// Size of the batch this request was coalesced into.
    pub batch: usize,
    /// Server-side queue wait, µs.
    pub queue_us: u64,
    /// Server-side batch-forming wait, µs.
    pub batch_form_us: u64,
    /// Forward-call wall, µs.
    pub compute_us: u64,
}

/// One protocol connection: the typed verbs over the shared
/// [`WireClient`]. It sets no read timeout.
#[derive(Debug)]
pub struct ServeClient {
    wire: WireClient,
}

impl ServeClient {
    /// Connects to a server.
    ///
    /// # Errors
    ///
    /// Connection failures.
    pub fn connect(addr: &str) -> Result<ServeClient, ServeError> {
        WireClient::connect(addr).map(|wire| ServeClient { wire })
    }

    /// Sends one request object and returns the parsed reply, whatever
    /// its `ok` flag says.
    ///
    /// # Errors
    ///
    /// Transport failures, a closed connection, or unparseable replies.
    pub fn round_trip(&mut self, request: &JsonValue) -> Result<JsonValue, ServeError> {
        self.wire.round_trip(request)
    }

    /// Sends `{"op": op}` and returns the reply's `key` field.
    fn fetch(&mut self, op: &str, key: &str) -> Result<JsonValue, ServeError> {
        self.wire
            .op(op)?
            .get(key)
            .cloned()
            .ok_or_else(|| ServeError::fatal(format!("{op} reply lacks `{key}`")))
    }

    /// Runs one image.
    ///
    /// # Errors
    ///
    /// Transport failures and server rejections (`retry: true` when the
    /// server is shedding load).
    pub fn infer(&mut self, image: &[f32]) -> Result<InferOk, ServeError> {
        let request = JsonObject::new()
            .field("op", "infer")
            .field(
                "image",
                image
                    .iter()
                    .map(|&v| JsonValue::from(v))
                    .collect::<Vec<_>>(),
            )
            .build();
        let reply = self.wire.call(&request)?;
        let uint = |key: &str| {
            reply
                .get(key)
                .and_then(JsonValue::as_f64)
                .map(|v| v as u64)
                .ok_or_else(|| ServeError::fatal(format!("reply lacks `{key}`")))
        };
        let timing = |key: &str| {
            reply
                .get("timing_us")
                .and_then(|t| t.get(key))
                .and_then(JsonValue::as_f64)
                .unwrap_or(0.0) as u64
        };
        let logits = reply
            .get("logits")
            .and_then(JsonValue::as_array)
            .ok_or_else(|| ServeError::fatal("reply lacks `logits`"))?
            .iter()
            .map(|v| v.as_f64().map(|x| x as f32))
            .collect::<Option<Vec<f32>>>()
            .ok_or_else(|| ServeError::fatal("non-numeric logits"))?;
        Ok(InferOk {
            request_id: reply
                .get("request_id")
                .and_then(JsonValue::as_f64)
                .unwrap_or(0.0) as u64,
            logits,
            version: uint("version")?,
            batch: uint("batch")? as usize,
            queue_us: timing("queue"),
            batch_form_us: timing("batch_form"),
            compute_us: timing("compute"),
        })
    }

    /// Liveness check; returns the live model version.
    ///
    /// # Errors
    ///
    /// Transport failures.
    pub fn ping(&mut self) -> Result<u64, ServeError> {
        self.fetch("ping", "version")?
            .as_f64()
            .map(|v| v as u64)
            .ok_or_else(|| ServeError::fatal("ping reply lacks `version`"))
    }

    /// Publishes a new model; returns its version.
    ///
    /// # Errors
    ///
    /// Transport failures and build failures on the server.
    pub fn swap(&mut self, spec: &ModelSpec) -> Result<u64, ServeError> {
        let JsonValue::Object(fields) = spec.json() else {
            unreachable!("spec json is an object")
        };
        let mut request = vec![("op".to_string(), JsonValue::String("swap".into()))];
        request.extend(fields);
        self.wire
            .call(&JsonValue::Object(request))?
            .get("version")
            .and_then(JsonValue::as_f64)
            .map(|v| v as u64)
            .ok_or_else(|| ServeError::fatal("swap reply lacks `version`"))
    }

    /// Fetches the server's stats snapshot.
    ///
    /// # Errors
    ///
    /// Transport failures.
    pub fn stats(&mut self) -> Result<JsonValue, ServeError> {
        self.fetch("stats", "stats")
    }

    /// Fetches the server's slowest-request exemplar timelines (the
    /// `exemplars` array; see `flight_serve::exemplar`).
    ///
    /// # Errors
    ///
    /// Transport failures.
    pub fn exemplars(&mut self) -> Result<JsonValue, ServeError> {
        self.fetch("exemplars", "exemplars")
    }

    /// Fetches the server's per-layer profile snapshot (the `profile`
    /// object; see [`StageProf`](flight_telemetry::StageProf)).
    ///
    /// # Errors
    ///
    /// Transport failures.
    pub fn profile(&mut self) -> Result<JsonValue, ServeError> {
        self.fetch("profile", "profile")
    }

    /// Asks the server to shut down.
    ///
    /// # Errors
    ///
    /// Transport failures.
    pub fn shutdown(&mut self) -> Result<(), ServeError> {
        self.wire.op("shutdown").map(|_| ())
    }
}
