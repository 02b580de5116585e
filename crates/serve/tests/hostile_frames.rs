//! The request parser is the server's trust boundary: every client
//! frame goes through [`parse_request`] on a connection thread. Hostile
//! payloads — arbitrary bytes, or brackets nested thousands deep — must
//! come back as an `ok: false` reply, never a panic or a stack overflow
//! that takes the whole process down.

use std::net::TcpStream;

use flight_serve::protocol::{parse_request, read_frame, write_frame, Request};
use flight_serve::{ModelSpec, Server, ServerConfig};
use flight_telemetry::json::{JsonValue, MAX_DEPTH};
use proptest::prelude::*;

/// `depth` nested containers around a `ping` request; bit `i % 64` of
/// `kinds` picks array or object at level `i`.
fn nested_ping(depth: usize, kinds: u64) -> String {
    let is_array = |level: usize| kinds >> (level % 64) & 1 == 1;
    let mut text = String::new();
    for level in 0..depth {
        text.push_str(if is_array(level) { "[" } else { "{\"k\":" });
    }
    text.push_str("{\"op\":\"ping\"}");
    for level in (0..depth).rev() {
        text.push(if is_array(level) { ']' } else { '}' });
    }
    text
}

fn round_trip(stream: &mut TcpStream, payload: &[u8]) -> JsonValue {
    write_frame(stream, payload).expect("frame sent");
    let reply = read_frame(stream)
        .expect("reply read")
        .expect("server kept the connection open");
    JsonValue::parse(std::str::from_utf8(&reply).expect("UTF-8 reply")).expect("JSON reply")
}

#[test]
fn a_deeply_nested_frame_is_refused_and_the_server_keeps_serving() {
    let spec = ModelSpec {
        width: 0.1,
        image_dims: [3, 8, 8],
        ..ModelSpec::default()
    };
    let mut server = Server::start(
        ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        },
        spec,
    )
    .expect("server starts");
    let mut stream = TcpStream::connect(server.local_addr()).expect("connects");

    let reply = round_trip(&mut stream, "[".repeat(100_000).as_bytes());
    assert!(
        matches!(reply.get("ok"), Some(JsonValue::Bool(false))),
        "{reply:?}"
    );
    let error = reply.get("error").and_then(JsonValue::as_str).unwrap_or("");
    assert!(error.contains("nesting deeper than"), "{error}");

    // The same connection, and the same process, still answer.
    let pong = round_trip(&mut stream, br#"{"op":"ping"}"#);
    assert!(
        matches!(pong.get("ok"), Some(JsonValue::Bool(true))),
        "{pong:?}"
    );
    server.stop();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_payloads_never_panic(bytes in prop::collection::vec(0u8..=255, 0..512)) {
        let _ = parse_request(&bytes);
    }

    #[test]
    fn nested_payloads_fail_cleanly_past_the_cap(
        depth in prop_oneof![0..2usize, MAX_DEPTH - 3..MAX_DEPTH + 3, 0..10_001usize],
        kinds in 0..u64::MAX,
    ) {
        // Wrapped, the ping has no top-level `op`, so only the bare
        // request parses; the deep ones must fail on the cap (the ping
        // object is one more level), not on the missing `op`.
        let result = parse_request(nested_ping(depth, kinds).as_bytes());
        if depth == 0 {
            prop_assert_eq!(result, Ok(Request::Ping));
        } else {
            let err = result.unwrap_err();
            prop_assert_eq!(err.contains("nesting deeper than"), depth + 1 > MAX_DEPTH, "{}", err);
        }
    }
}
