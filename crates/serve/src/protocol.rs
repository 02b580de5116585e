//! The wire protocol: length-framed JSON over TCP.
//!
//! Every message — request or response — is one frame: a 4-byte
//! little-endian payload length followed by that many bytes of UTF-8
//! JSON. The codec ([`write_frame`], [`read_frame`], [`MAX_FRAME`])
//! lives in [`flight_telemetry::frame`], shared with `flightctl top`,
//! and is re-exported here.
//!
//! Requests are an object with an `op` discriminator:
//!
//! ```json
//! {"op":"infer","image":[0.1,0.2, …]}
//! {"op":"swap","network":1,"scheme":"l1","seed":7}
//! {"op":"stats"}
//! {"op":"exemplars"}
//! {"op":"profile"}
//! {"op":"ping"}
//! {"op":"shutdown"}
//! ```
//!
//! Responses always carry `"ok"`; failures add `"error"` with a
//! human-readable message, and backpressure adds `"retry": true`. That
//! envelope is written and read only in [`flight_telemetry::frame`]
//! (`ok_response`, `error_response`, `overloaded_response`,
//! `WireClient`). `infer` responses carry the server-assigned
//! `request_id`, the logits, the serving model's version, the batch the
//! request was coalesced into, and the per-phase timing breakdown
//! (`queue` / `batch_form` / `compute` / `total`, microseconds — the
//! fourth phase, `reply_write`, is only observable server-side and
//! appears in `stats` and `exemplars`). `exemplars` responses carry the
//! slowest-request timelines currently held by the server's exemplar
//! ring (see [`crate::exemplar`]).

use flight_telemetry::json::JsonValue;
pub use flight_telemetry::{read_frame, write_frame, MAX_FRAME};

use crate::model::ModelSpec;

/// A parsed client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Run one image through the engine.
    Infer {
        /// Flattened `[c, h, w]` floats; length must match the serving
        /// model's input.
        image: Vec<f32>,
    },
    /// Rebuild and atomically publish a new model.
    Swap {
        /// What to build; omitted fields keep the server's defaults.
        spec: ModelSpec,
    },
    /// Per-phase latency histograms and counters.
    Stats,
    /// The slowest-request exemplar timelines.
    Exemplars,
    /// The sampled per-layer profile (see
    /// [`StageProf`](flight_telemetry::StageProf)).
    Profile,
    /// Liveness + current model version.
    Ping,
    /// Stop the server.
    Shutdown,
}

/// Parses one request payload.
///
/// # Errors
///
/// A human-readable message for malformed JSON, a missing/unknown `op`,
/// or a malformed `image`/spec.
pub fn parse_request(payload: &[u8]) -> Result<Request, String> {
    let text = std::str::from_utf8(payload).map_err(|_| "payload is not UTF-8".to_string())?;
    let root = JsonValue::parse(text).map_err(|e| format!("payload is not JSON: {e}"))?;
    let op = root
        .get("op")
        .and_then(JsonValue::as_str)
        .ok_or_else(|| "request lacks an `op` string".to_string())?;
    match op {
        "infer" => {
            let arr = root
                .get("image")
                .and_then(JsonValue::as_array)
                .ok_or_else(|| "infer needs an `image` number array".to_string())?;
            let mut image = Vec::with_capacity(arr.len());
            for (i, v) in arr.iter().enumerate() {
                let pixel = v
                    .as_f64()
                    .ok_or_else(|| "`image` entries must be numbers".to_string())?
                    as f32;
                // An infinite pixel (`1e999`, or `1e39` once cast to f32)
                // would make the image's quantization scale infinite.
                if !pixel.is_finite() {
                    return Err(format!("`image` entry {i} is not a finite f32"));
                }
                image.push(pixel);
            }
            Ok(Request::Infer { image })
        }
        "swap" => Ok(Request::Swap {
            spec: ModelSpec::from_json(&root)?,
        }),
        "stats" => Ok(Request::Stats),
        "exemplars" => Ok(Request::Exemplars),
        "profile" => Ok(Request::Profile),
        "ping" => Ok(Request::Ping),
        "shutdown" => Ok(Request::Shutdown),
        other => Err(format!("unknown op {other:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_parse_by_op() {
        assert_eq!(parse_request(b"{\"op\":\"ping\"}").unwrap(), Request::Ping);
        assert_eq!(
            parse_request(b"{\"op\":\"stats\"}").unwrap(),
            Request::Stats
        );
        assert_eq!(
            parse_request(b"{\"op\":\"exemplars\"}").unwrap(),
            Request::Exemplars
        );
        assert_eq!(
            parse_request(b"{\"op\":\"profile\"}").unwrap(),
            Request::Profile
        );
        assert_eq!(
            parse_request(b"{\"op\":\"infer\",\"image\":[1,0.5]}").unwrap(),
            Request::Infer {
                image: vec![1.0, 0.5]
            }
        );
        let Request::Swap { spec } =
            parse_request(b"{\"op\":\"swap\",\"seed\":9,\"scheme\":\"l2\"}").unwrap()
        else {
            panic!("swap expected")
        };
        assert_eq!(spec.seed, 9);
        assert_eq!(spec.scheme, "l2");

        for bad in [
            &b"not json"[..],
            b"{}",
            b"{\"op\":\"warp\"}",
            b"{\"op\":\"infer\"}",
            b"{\"op\":\"infer\",\"image\":[\"x\"]}",
            b"{\"op\":\"infer\",\"image\":[1,1e999]}",
            b"{\"op\":\"infer\",\"image\":[1,1e39]}",
        ] {
            assert!(parse_request(bad).is_err(), "{bad:?}");
        }
        let err = parse_request(b"{\"op\":\"infer\",\"image\":[0,1,-1e39]}").unwrap_err();
        assert!(err.contains("entry 2"), "{err}");
    }
}
