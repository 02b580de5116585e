//! Property tests for the JSON parser boundary: [`JsonValue::parse`]
//! never panics on arbitrary input, refuses nesting deeper than
//! [`MAX_DEPTH`] however deep the input goes, and parses every rendered
//! value back to itself.

use flight_telemetry::json::{JsonValue, MAX_DEPTH};
use proptest::prelude::*;

/// Bytes that make up JSON, so generated text reaches past the first
/// token far more often than uniform bytes do.
const JSON_BYTES: &[u8] = b"[]{}\":,.-+0123456789eEtrufalsn\\/ \n";

fn json_ish_text() -> impl Strategy<Value = String> {
    prop::collection::vec(0..JSON_BYTES.len(), 0..512)
        .prop_map(|ix| ix.into_iter().map(|i| JSON_BYTES[i] as char).collect())
}

/// `depth` nested containers around a leaf; bit `i % 64` of `kinds`
/// picks array or object at level `i`. Only the innermost `closed`
/// levels are closed, so `closed < depth` is a truncated document.
fn nesting(depth: usize, kinds: u64, closed: usize) -> String {
    let is_array = |level: usize| kinds >> (level % 64) & 1 == 1;
    let mut text = String::new();
    for level in 0..depth {
        text.push_str(if is_array(level) { "[" } else { "{\"k\":" });
    }
    text.push('0');
    for level in (depth - closed.min(depth)..depth).rev() {
        text.push(if is_array(level) { ']' } else { '}' });
    }
    text
}

/// Depths clustered at the cap and spread up to 10k levels.
fn nesting_depth() -> proptest::strategy::Union<usize> {
    prop_oneof![MAX_DEPTH - 3..MAX_DEPTH + 4, 0..10_001usize]
}

/// Characters a renderer has to escape, plus multibyte scalars.
fn arb_string(rng: &mut TestRng) -> String {
    const SPECIAL: &[char] = &[
        '"', '\\', '/', '\n', '\r', '\t', '\u{1}', '\u{1f}', 'é', '漢', '😀',
    ];
    let len = rng.below(8) as usize;
    (0..len)
        .map(|_| match rng.below(3) {
            0 => SPECIAL[rng.below(SPECIAL.len() as u64) as usize],
            1 => (b' ' + rng.below(95) as u8) as char,
            _ => char::from_u32(rng.below(0x11_0000) as u32).unwrap_or('\u{FFFD}'),
        })
        .collect()
}

/// Any finite `f64` bit pattern: subnormals, huge magnitudes, `-0`.
fn arb_number(rng: &mut TestRng) -> f64 {
    loop {
        let v = f64::from_bits(rng.next_u64());
        if v.is_finite() {
            return v;
        }
    }
}

fn arb_value(rng: &mut TestRng, depth: usize) -> JsonValue {
    let kinds = if depth == 0 { 4 } else { 6 };
    match rng.below(kinds) {
        0 => JsonValue::Null,
        1 => JsonValue::Bool(rng.below(2) == 1),
        2 => JsonValue::Number(arb_number(rng)),
        3 => JsonValue::String(arb_string(rng)),
        4 => JsonValue::Array(
            (0..rng.below(4))
                .map(|_| arb_value(rng, depth - 1))
                .collect(),
        ),
        _ => JsonValue::Object(
            (0..rng.below(4))
                .map(|_| (arb_string(rng), arb_value(rng, depth - 1)))
                .collect(),
        ),
    }
}

/// Random JSON trees up to four containers deep.
struct ArbJson;

impl Strategy for ArbJson {
    type Value = JsonValue;

    fn generate(&self, rng: &mut TestRng) -> JsonValue {
        arb_value(rng, 4)
    }
}

fn depth_of(v: &JsonValue) -> usize {
    match v {
        JsonValue::Array(items) => 1 + items.iter().map(depth_of).max().unwrap_or(0),
        JsonValue::Object(fields) => 1 + fields.iter().map(|(_, v)| depth_of(v)).max().unwrap_or(0),
        _ => 0,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_bytes_never_panic(bytes in prop::collection::vec(0u8..=255, 0..512)) {
        let _ = JsonValue::parse(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn json_ish_text_never_panics(text in json_ish_text()) {
        let _ = JsonValue::parse(&text);
    }

    #[test]
    fn nestings_parse_exactly_when_closed_and_within_the_cap(
        depth in nesting_depth(),
        kinds in 0..u64::MAX,
        truncate in any::<bool>(),
    ) {
        let closed = if truncate { depth.saturating_sub(1) } else { depth };
        let parsed = JsonValue::parse(&nesting(depth, kinds, closed));
        prop_assert_eq!(parsed.is_ok(), closed == depth && depth <= MAX_DEPTH);
    }

    #[test]
    fn rendered_values_parse_back_to_themselves(value in ArbJson) {
        let text = value.render();
        let back = JsonValue::parse(&text);
        prop_assert_eq!(back.as_ref(), Ok(&value), "text: {}", text);
    }

    #[test]
    fn wrapped_values_round_trip_at_the_cap_and_fail_one_past_it(
        value in ArbJson,
        past in any::<bool>(),
    ) {
        let target = MAX_DEPTH + usize::from(past);
        let mut wrapped = value;
        while depth_of(&wrapped) < target {
            wrapped = JsonValue::Array(vec![wrapped]);
        }
        let back = JsonValue::parse(&wrapped.render());
        if past {
            prop_assert!(back.is_err());
        } else {
            prop_assert_eq!(back, Ok(wrapped));
        }
    }
}

/// String parsing is linear in the string's length: a 4 MiB string
/// (ASCII plus two- and three-byte scalars) parses in well under the
/// bound, where a parser that rescans the rest of the input per
/// character needs minutes.
#[test]
fn multi_mib_strings_parse_in_linear_time() {
    // 7 bytes per repeat: 4.2 MB of string body.
    let body = "ab\u{e9}\u{20ac}".repeat(600_000);
    let text = JsonValue::String(body.clone()).render();
    let start = std::time::Instant::now();
    let parsed = JsonValue::parse(&text);
    let elapsed = start.elapsed();
    assert_eq!(parsed, Ok(JsonValue::String(body)));
    assert!(
        elapsed < std::time::Duration::from_secs(5),
        "parsing a {} byte string took {elapsed:?}",
        text.len()
    );
}
