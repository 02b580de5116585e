//! The serve protocol's wire format and its one blocking client,
//! shared by `flight_serve`'s client and server and by `flightctl top`.
//!
//! Every message is one frame: a 4-byte little-endian payload length
//! followed by that many payload bytes. Framing keeps the parser
//! trivial (no streaming, no delimiter escaping) and makes partial reads
//! detectable: a connection that dies mid-frame is an error, a
//! connection that closes between frames is a clean EOF.
//!
//! Every reply payload is a JSON object whose first field is `"ok"`.
//! Failures add `"error"` (a human-readable message) and, for
//! backpressure, `"retry": true`. The server writes that envelope with
//! [`ok_response`], [`error_response`] and [`overloaded_response`];
//! clients read it through [`WireClient`], which turns a not-ok reply
//! into a [`ServeError`].

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use crate::json::{JsonObject, JsonValue};

/// Upper bound on one frame's payload, bytes. Large enough for any
/// realistic image or logits array, small enough that a corrupt length
/// prefix cannot trigger a gigabyte allocation.
pub const MAX_FRAME: usize = 1 << 24;

/// Writes one length-prefixed frame.
///
/// # Errors
///
/// Propagates I/O errors; rejects payloads above [`MAX_FRAME`].
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> std::io::Result<()> {
    if payload.len() > MAX_FRAME {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!("frame of {} bytes exceeds MAX_FRAME", payload.len()),
        ));
    }
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Reads one frame. `Ok(None)` is a clean close (EOF exactly at a frame
/// boundary); EOF inside a frame is an error.
///
/// # Errors
///
/// Propagates I/O errors; rejects frames above [`MAX_FRAME`].
pub fn read_frame(r: &mut impl Read) -> std::io::Result<Option<Vec<u8>>> {
    let mut len_bytes = [0u8; 4];
    match r.read(&mut len_bytes)? {
        0 => return Ok(None),
        n => r.read_exact(&mut len_bytes[n..])?,
    }
    let len = u32::from_le_bytes(len_bytes) as usize;
    if len > MAX_FRAME {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds MAX_FRAME"),
        ));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

/// A failed request: transport trouble or a server-side error.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeError {
    /// Human-readable cause.
    pub message: String,
    /// True when the server said "try again" (backpressure rejection).
    pub retry: bool,
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}{}",
            self.message,
            if self.retry { " (retryable)" } else { "" }
        )
    }
}

impl ServeError {
    /// A non-retryable error: transport trouble or a malformed reply.
    pub fn fatal(message: impl Into<String>) -> ServeError {
        ServeError {
            message: message.into(),
            retry: false,
        }
    }
}

/// Renders a success reply: `{"ok":true}` followed by `body`'s fields.
pub fn ok_response(body: JsonObject) -> String {
    let JsonValue::Object(fields) = body.build() else {
        unreachable!("JsonObject builds an object")
    };
    let mut reply = Vec::with_capacity(fields.len() + 1);
    reply.push(("ok".to_string(), JsonValue::Bool(true)));
    reply.extend(fields);
    JsonValue::Object(reply).render()
}

/// Renders an error reply.
pub fn error_response(message: &str) -> String {
    JsonObject::new()
        .field("ok", false)
        .field("error", message)
        .build()
        .render()
}

/// Renders the overload rejection (bounded queue full). `retry: true`
/// tells well-behaved clients this is backpressure, not a bug.
pub fn overloaded_response() -> String {
    JsonObject::new()
        .field("ok", false)
        .field("error", "overloaded")
        .field("retry", true)
        .build()
        .render()
}

/// Reads a reply's envelope: an `ok: true` reply passes through, any
/// other becomes a [`ServeError`] carrying the reply's `error` text and
/// `retry` flag.
fn check_reply(reply: JsonValue) -> Result<JsonValue, ServeError> {
    match reply.get("ok") {
        Some(JsonValue::Bool(true)) => Ok(reply),
        _ => Err(ServeError {
            message: reply
                .get("error")
                .and_then(JsonValue::as_str)
                .unwrap_or("malformed reply")
                .to_string(),
            retry: matches!(reply.get("retry"), Some(JsonValue::Bool(true))),
        }),
    }
}

/// One blocking protocol connection: each call writes one request
/// frame and reads one reply frame. It sets no read timeout unless
/// asked ([`WireClient::set_read_timeout`]).
#[derive(Debug)]
pub struct WireClient {
    stream: TcpStream,
}

impl WireClient {
    /// Connects to a server.
    ///
    /// # Errors
    ///
    /// Connection failures.
    pub fn connect(addr: &str) -> Result<WireClient, ServeError> {
        TcpStream::connect(addr)
            .map(|stream| WireClient { stream })
            .map_err(|e| ServeError::fatal(format!("connect {addr}: {e}")))
    }

    /// Bounds how long a call waits for its reply.
    ///
    /// # Errors
    ///
    /// Socket option failures.
    pub fn set_read_timeout(&self, timeout: Duration) -> Result<(), ServeError> {
        self.stream
            .set_read_timeout(Some(timeout))
            .map_err(|e| ServeError::fatal(format!("socket: {e}")))
    }

    /// Sends one request object and returns the parsed reply, whatever
    /// its `ok` flag says.
    ///
    /// # Errors
    ///
    /// Transport failures, a closed connection, or unparseable replies.
    pub fn round_trip(&mut self, request: &JsonValue) -> Result<JsonValue, ServeError> {
        write_frame(&mut self.stream, request.render().as_bytes())
            .map_err(|e| ServeError::fatal(format!("send: {e}")))?;
        let payload = read_frame(&mut self.stream)
            .map_err(|e| ServeError::fatal(format!("recv: {e}")))?
            .ok_or_else(|| ServeError::fatal("server closed the connection"))?;
        let text =
            std::str::from_utf8(&payload).map_err(|_| ServeError::fatal("reply is not UTF-8"))?;
        JsonValue::parse(text).map_err(|e| ServeError::fatal(format!("reply is not JSON: {e}")))
    }

    /// [`round_trip`](WireClient::round_trip), then the envelope check:
    /// a not-ok reply is an `Err`.
    ///
    /// # Errors
    ///
    /// Transport failures and server rejections (`retry: true` when the
    /// server is shedding load).
    pub fn call(&mut self, request: &JsonValue) -> Result<JsonValue, ServeError> {
        check_reply(self.round_trip(request)?)
    }

    /// [`call`](WireClient::call) with the bare request `{"op": op}`.
    ///
    /// # Errors
    ///
    /// As [`call`](WireClient::call).
    pub fn op(&mut self, op: &str) -> Result<JsonValue, ServeError> {
        self.call(&JsonObject::new().field("op", op).build())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip_and_eof_is_clean_only_at_boundaries() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"{\"op\":\"ping\"}").unwrap();
        write_frame(&mut buf, b"xy").unwrap();
        let mut cursor = std::io::Cursor::new(buf.clone());
        assert_eq!(
            read_frame(&mut cursor).unwrap().as_deref(),
            Some(&b"{\"op\":\"ping\"}"[..])
        );
        assert_eq!(
            read_frame(&mut cursor).unwrap().as_deref(),
            Some(&b"xy"[..])
        );
        assert_eq!(read_frame(&mut cursor).unwrap(), None, "clean EOF");

        // Truncated mid-frame: error, not silent truncation.
        let mut truncated = std::io::Cursor::new(buf[..buf.len() - 1].to_vec());
        read_frame(&mut truncated).unwrap();
        assert!(read_frame(&mut truncated).is_err());
    }

    #[test]
    fn oversized_frames_are_rejected_on_both_sides() {
        let mut sink = Vec::new();
        assert!(write_frame(&mut sink, &vec![0u8; MAX_FRAME + 1]).is_err());
        let mut huge = Vec::from(u32::MAX.to_le_bytes());
        huge.extend_from_slice(b"xx");
        assert!(read_frame(&mut std::io::Cursor::new(huge)).is_err());
    }

    #[test]
    fn reply_envelopes_render_the_exact_wire_bytes() {
        assert_eq!(ok_response(JsonObject::new()), r#"{"ok":true}"#);
        assert_eq!(
            ok_response(JsonObject::new().field("version", 3u64)),
            r#"{"ok":true,"version":3}"#
        );
        assert_eq!(
            ok_response(
                JsonObject::new()
                    .field("version", 2u64)
                    .field("stats", JsonObject::new().field("requests", 5u64).build())
            ),
            r#"{"ok":true,"version":2,"stats":{"requests":5}}"#
        );
        assert_eq!(
            ok_response(
                JsonObject::new()
                    .field("request_id", 7u64)
                    .field("version", 1u64)
                    .field("batch", 2usize)
                    .field(
                        "logits",
                        vec![JsonValue::from(0.5f32), JsonValue::from(-1.0f32)]
                    )
            ),
            r#"{"ok":true,"request_id":7,"version":1,"batch":2,"logits":[0.5,-1]}"#
        );
        assert_eq!(
            error_response("unknown op \"warp\""),
            r#"{"ok":false,"error":"unknown op \"warp\""}"#
        );
        assert_eq!(
            overloaded_response(),
            r#"{"ok":false,"error":"overloaded","retry":true}"#
        );
    }

    #[test]
    fn the_client_reads_the_envelope_into_its_error_type() {
        let parse = |text: &str| JsonValue::parse(text).unwrap();

        let ok = parse(r#"{"ok":true,"version":4}"#);
        assert_eq!(check_reply(ok.clone()), Ok(ok));

        let busy = check_reply(parse(&overloaded_response())).unwrap_err();
        assert_eq!(busy.message, "overloaded");
        assert!(busy.retry, "backpressure is retryable");
        assert_eq!(busy.to_string(), "overloaded (retryable)");

        let failed =
            check_reply(parse(&error_response("swap failed: no such scheme"))).unwrap_err();
        assert_eq!(
            failed,
            ServeError::fatal("swap failed: no such scheme"),
            "a not-ok reply carries the server's own error text"
        );

        for malformed in [
            r#"{"version":1}"#,
            r#"{"ok":false}"#,
            r#"{"ok":"yes"}"#,
            "[]",
        ] {
            assert_eq!(
                check_reply(parse(malformed)),
                Err(ServeError::fatal("malformed reply")),
                "{malformed}"
            );
        }
    }
}
