//! `flightctl top` against a live server: one poll reads `stats`,
//! `exemplars` and `profile` over one connection and renders the whole
//! dashboard, the per-layer stage table included, and the SLO gate
//! reads the same poll.

use flight_obs::top::{top, TopOptions};
use flight_serve::{ModelSpec, ServeClient, Server, ServerConfig};
use flight_telemetry::json::JsonValue;

#[test]
fn top_renders_every_compiled_stage_of_a_live_server() {
    let spec = ModelSpec::default();
    let config = ServerConfig {
        workers: 2,
        profile_every: 1, // every forward is sampled, so every stage is
        ..ServerConfig::default()
    };
    let mut server = Server::start(config, spec.clone()).expect("server starts");
    let addr = server.local_addr().to_string();

    let mut client = ServeClient::connect(&addr).expect("client connects");
    let image = vec![0.25f32; spec.input_len()];
    for _ in 0..8 {
        client.infer(&image).expect("infer ok");
    }

    // Once mode (the default tick options), with an SLO no server meets.
    let opts = TopOptions {
        slo_p99_ms: Some(0.000001),
        ..TopOptions::default()
    };
    let mut out = Vec::new();
    let state = top(&addr, &opts, &mut out).expect("top renders");
    server.stop();
    let text = String::from_utf8(out).expect("the dashboard is UTF-8");

    assert_eq!(state.polls, 1, "{text}");
    assert!(state.last_error.is_none(), "{text}");

    // The default model (network 1, L-1) compiles to 18 stages: 7 fused
    // conv, 7 requant, 3 maxpool and the linear head. Every one was
    // sampled, so every one has a row.
    let labels: Vec<&str> = text
        .lines()
        .filter(|line| line.starts_with("  stage."))
        .map(|line| line.split_whitespace().next().expect("row label"))
        .collect();
    assert_eq!(labels.len(), 18, "{text}");
    let kinds = |kind: &str| {
        labels
            .iter()
            .filter(|label| label.ends_with(&format!(".{kind}")))
            .count()
    };
    assert_eq!(
        [
            kinds("conv"),
            kinds("requant"),
            kinds("maxpool"),
            kinds("linear")
        ],
        [7, 7, 3, 1],
        "{text}"
    );
    for index in 0..18 {
        let prefix = format!("stage.{index}.");
        assert_eq!(
            labels.iter().filter(|l| l.starts_with(&prefix)).count(),
            1,
            "stage {index} listed once: {text}"
        );
    }
    assert!(text.contains("(sampling 1/1,"), "{text}");

    // The slowest requests of the same poll are listed by id (the
    // dashboard shows at most 8).
    assert!(text.contains("slowest requests"), "{text}");
    let exemplars = state.exemplars.as_array().expect("exemplars array");
    assert!(!exemplars.is_empty(), "{text}");
    for exemplar in exemplars.iter().take(8) {
        let id = exemplar
            .get("request_id")
            .and_then(JsonValue::as_f64)
            .expect("exemplar id") as u64;
        assert!(
            text.lines()
                .any(|line| line.split_whitespace().next() == Some(&id.to_string())),
            "exemplar {id} has a row: {text}"
        );
    }

    assert_eq!(state.breaches.len(), 1, "{:?}", state.breaches);
    assert!(text.contains("slo BREACH: p99"), "{text}");
}
