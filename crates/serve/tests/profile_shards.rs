//! The per-layer profiler's 1-in-N sampling decision must be a pure
//! function of the request id, so two servers under the same request
//! stream profile the same requests. (Its shard merge is pinned
//! together with the serve stats' in `tests/shards.rs`.)
//!
//! The file also covers the end-to-end loop: a live server with
//! sampling at 1/1 answers the `profile` verb with every compiled
//! stage attributed.

use flight_serve::{ModelSpec, ServeClient, Server, ServerConfig};
use flight_telemetry::json::JsonValue;
use flight_telemetry::{sampled, StageProf, MAX_STAGES};

#[test]
fn sampling_is_a_pure_function_of_the_request_id() {
    // 1-in-16: exactly the ids divisible by 16, decided identically by
    // the free function and by any StageProf configured the same way.
    let prof = StageProf::new(3, 16);
    for id in 0..200u64 {
        assert_eq!(sampled(id, 16), id % 16 == 0, "id {id}");
        assert_eq!(prof.sampled(id), sampled(id, 16), "id {id}");
    }
    // every=1 profiles everything; every=0 disables sampling entirely.
    assert!((0..50).all(|id| sampled(id, 1)));
    assert!((0..50).all(|id| !sampled(id, 0)));
    let off = StageProf::new(1, 0);
    assert!(!off.sampled(0), "id 0 is not sampled when disabled");
}

#[test]
fn live_server_attributes_every_compiled_stage_over_the_profile_verb() {
    let spec = ModelSpec::default();
    let expected_stages = spec.build().expect("spec builds").stages();
    assert!(expected_stages > 0 && expected_stages <= MAX_STAGES);

    let config = ServerConfig {
        workers: 2,
        profile_every: 1, // sample every request: the smoke needs determinism
        ..ServerConfig::default()
    };
    let mut server = Server::start(config, spec.clone()).expect("server starts");
    let addr = server.local_addr().to_string();

    let mut client = ServeClient::connect(&addr).expect("client connects");
    let image = vec![0.25f32; spec.input_len()];
    for _ in 0..8 {
        client.infer(&image).expect("infer ok");
    }

    let profile = client.profile().expect("profile verb answers");
    let forwards = profile
        .get("forwards")
        .and_then(JsonValue::as_f64)
        .expect("forwards field") as u64;
    assert!(forwards >= 1, "at least one profiled forward: {forwards}");
    assert_eq!(
        profile.get("sample_every").and_then(JsonValue::as_f64),
        Some(1.0)
    );

    let stages = profile
        .get("stages")
        .and_then(JsonValue::as_array)
        .expect("stages array");
    assert_eq!(
        stages.len(),
        expected_stages,
        "every compiled stage appears in the profile"
    );
    for stage in stages {
        let samples = stage.get("samples").and_then(JsonValue::as_f64).unwrap();
        assert!(samples >= 1.0, "stage has samples: {}", stage.render());
        let kind = stage.get("kind").and_then(JsonValue::as_str).unwrap();
        assert!(!kind.is_empty());
    }

    // The dispatch path of this host was recorded for every forward.
    let JsonValue::Object(paths) = profile.get("paths").expect("paths object") else {
        panic!("paths is an object");
    };
    let path_total: f64 = paths.iter().filter_map(|(_, v)| v.as_f64()).sum();
    assert_eq!(path_total as u64, forwards, "paths partition the forwards");

    server.stop();
}
