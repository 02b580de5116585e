//! Reading a server's per-layer profile snapshot.
//!
//! The server's `profile` verb returns the
//! [`StageProf`](flight_telemetry::StageProf) snapshot it builds from
//! 1-in-N sampled forwards: lifetime tallies inlined at the root, and
//! rolling `1s`/`10s`/`60s` tallies under `windows`. [`tallies`] picks
//! one block by label; [`stage_table`] renders a window as the
//! per-layer table `flightctl top` shows — every sampled stage with its
//! share of forward wall time, p50/p99 stage latency, ops/sec and
//! sample count, hottest first, under a line naming the kernel dispatch
//! paths that ran (avx2 / portable / scalar). `flightctl export
//! --format folded` reads the [`LIFETIME`] block of a saved snapshot
//! (`flightq profile > prof.json`).

use flight_telemetry::json::JsonValue;

use crate::top::{fmt_ms, num};

/// Label of the lifetime tallies, which the snapshot inlines at its root.
pub const LIFETIME: &str = "life";

/// The tallies block `window` selects: the snapshot root for
/// [`LIFETIME`], else `windows.<label>`.
pub fn tallies<'a>(profile: &'a JsonValue, window: &str) -> Option<&'a JsonValue> {
    if window == LIFETIME {
        return Some(profile);
    }
    profile.get("windows").and_then(|w| w.get(window))
}

/// Formats a tallies block's `paths` object (dispatch path →
/// profiled-forward count) as e.g. `avx2 (48)`: dominant first, any
/// minority paths after.
fn paths_line(tallies: &JsonValue) -> String {
    let Some(JsonValue::Object(pairs)) = tallies.get("paths") else {
        return "none".to_string();
    };
    if pairs.is_empty() {
        return "none".to_string();
    }
    let mut sorted: Vec<(&str, u64)> = pairs
        .iter()
        .map(|(k, v)| (k.as_str(), num(Some(v)) as u64))
        .collect();
    sorted.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
    sorted
        .iter()
        .map(|(path, n)| format!("{path} ({n})"))
        .collect::<Vec<_>>()
        .join(", ")
}

/// The per-layer table for `window`: one line of sampling, forward and
/// dispatch-path counts, then one row per sampled stage, hottest first.
/// Empty when the server sent no profile.
pub fn stage_table(profile: &JsonValue, window: &str) -> String {
    if matches!(profile, JsonValue::Null) {
        return String::new();
    }
    let every = num(profile.get("sample_every")) as u64;
    if every == 0 {
        return "profiling disabled on this server (--profile-every 0)\n".to_string();
    }
    let Some(tallies) = tallies(profile, window) else {
        return format!("no `{window}` tallies in the profile snapshot\n");
    };
    let forwards = num(tallies.get("forwards")) as u64;
    let mut out = format!(
        "layers over {window}: {forwards} profiled forwards (sampling 1/{every}, {} images, {} truncated)  dispatch: {}\n",
        num(tallies.get("images")) as u64,
        num(tallies.get("truncated")) as u64,
        paths_line(tallies),
    );
    if forwards == 0 {
        out.push_str("no sampled forwards in this window yet\n");
        return out;
    }

    let mut stages: Vec<&JsonValue> = tallies
        .get("stages")
        .and_then(JsonValue::as_array)
        .map(|rows| {
            rows.iter()
                .filter(|s| num(s.get("samples")) > 0.0)
                .collect()
        })
        .unwrap_or_default();
    stages.sort_by(|a, b| {
        num(b.get("time_share"))
            .partial_cmp(&num(a.get("time_share")))
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    out.push_str("  stage                  share    p50 ms    p99 ms       ops/s  samples\n");
    for stage in stages {
        let wall = stage.get("wall_ms");
        out.push_str(&format!(
            "  {:<20} {:>6.1}%  {:>8}  {:>8}  {:>10.3e}  {:>7}\n",
            format!(
                "stage.{}.{}",
                num(stage.get("index")) as u64,
                stage
                    .get("kind")
                    .and_then(JsonValue::as_str)
                    .unwrap_or("stage"),
            ),
            num(stage.get("time_share")) * 100.0,
            fmt_ms(num(wall.and_then(|w| w.get("p50")))),
            fmt_ms(num(wall.and_then(|w| w.get("p99")))),
            num(stage.get("ops_per_sec")),
            num(stage.get("samples")) as u64,
        ));
    }
    out
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::export::export_folded;
    use crate::top::tests::{exemplars_reply, stats_reply};
    use crate::top::{render, TopOptions, TopState};
    use flight_telemetry::json::JsonObject;

    /// A plausible `profile` reply: two stages, conv hottest over the
    /// lifetime and 60s, linear hottest over 10s, nothing in 1s, and
    /// the dispatch split avx2-dominant.
    pub(crate) fn profile_reply() -> JsonValue {
        let stage = |index: u64, kind: &str, share: f64, samples: u64| {
            JsonObject::new()
                .field("index", index)
                .field("kind", kind)
                .field("samples", samples)
                .field("time_share", share)
                .field("wall_total_us", share * 4000.0)
                .field(
                    "wall_ms",
                    JsonObject::new()
                        .field("p50", 0.5)
                        .field("p99", 1.2)
                        .build(),
                )
                .field("ops", 60_000u64)
                .field("ops_per_sec", 2.5e8)
                .build()
        };
        let tallies = |f: u64, conv_share: f64| {
            JsonObject::new()
                .field("forwards", f)
                .field("images", f * 3)
                .field("truncated", 0u64)
                .field(
                    "paths",
                    JsonObject::new()
                        .field("avx2", f.saturating_sub(1))
                        .field("portable", u64::from(f > 0))
                        .build(),
                )
                .field(
                    "stages",
                    vec![
                        stage(0, "conv", conv_share, f),
                        stage(1, "linear", 1.0 - conv_share, f),
                    ],
                )
                .build()
        };
        let JsonValue::Object(lifetime) = tallies(30, 0.8) else {
            unreachable!()
        };
        let mut root = vec![
            ("sample_every".to_string(), JsonValue::from(16u64)),
            ("shards".to_string(), JsonValue::from(2u64)),
        ];
        root.extend(lifetime);
        root.push((
            "windows".to_string(),
            JsonObject::new()
                .field("1s", tallies(0, 0.5))
                .field("10s", tallies(6, 0.3))
                .field("60s", tallies(24, 0.8))
                .build(),
        ));
        JsonObject::new()
            .field("ok", true)
            .field("version", 3u64)
            .field("profile", JsonValue::Object(root))
            .build()
    }

    /// Folds one `top` poll carrying `profile` and renders the
    /// dashboard under `window`.
    fn render_profile(profile: JsonValue, window: &str) -> String {
        let opts = TopOptions {
            window: window.to_string(),
            ..TopOptions::default()
        };
        let mut state = TopState::default();
        state.observe_poll(
            Ok((
                stats_reply(100.0, 4.0, 0.0),
                exemplars_reply(),
                Some(profile),
            )),
            &opts,
        );
        assert_eq!(state.polls, 1);
        assert_eq!(state.version, 3);
        render("x", &state, &opts)
    }

    #[test]
    fn polls_fold_and_render_the_top_layers_table() {
        // 10s: linear holds 70% of the window's stage time.
        let text = render_profile(profile_reply(), "10s");
        assert!(
            text.contains("layers over 10s: 6 profiled forwards (sampling 1/16, 18 images"),
            "{text}"
        );
        assert!(text.contains("dispatch: avx2 (5), portable (1)"), "{text}");
        let conv = text.find("  stage.0.conv ").expect("conv row");
        let linear = text.find("  stage.1.linear ").expect("linear row");
        assert!(linear < conv, "hottest stage sorts first: {text}");
        assert!(text.contains(" 70.0%"), "{text}");
        assert!(!text.contains('\x1b'), "plain render has no ANSI escapes");

        // 60s: the same snapshot's other window, where conv is hottest.
        let text = render_profile(profile_reply(), "60s");
        assert!(
            text.contains("layers over 60s: 24 profiled forwards"),
            "{text}"
        );
        assert!(text.contains("dispatch: avx2 (23), portable (1)"), "{text}");
        let conv = text.find("  stage.0.conv ").expect("conv row");
        let linear = text.find("  stage.1.linear ").expect("linear row");
        assert!(conv < linear, "hottest stage sorts first: {text}");
    }

    #[test]
    fn life_window_reads_the_inline_lifetime_tallies() {
        let reply = profile_reply();
        let snapshot = reply.get("profile").unwrap();
        let life = tallies(snapshot, LIFETIME).unwrap();
        assert_eq!(num(life.get("forwards")), 30.0);
        let text = stage_table(snapshot, LIFETIME);
        assert!(
            text.contains("layers over life: 30 profiled forwards (sampling 1/16, 90 images"),
            "{text}"
        );
        // The folded export weighs each stage by its lifetime wall time.
        assert_eq!(
            export_folded(&reply).unwrap(),
            "serve;forward;stage.0.conv 3200\nserve;forward;stage.1.linear 800\n"
        );
    }

    #[test]
    fn empty_window_says_so_instead_of_a_zero_table() {
        let text = render_profile(profile_reply(), "1s");
        assert!(
            text.contains("layers over 1s: 0 profiled forwards"),
            "{text}"
        );
        assert!(
            text.contains("no sampled forwards in this window yet"),
            "{text}"
        );
        assert!(!text.contains("stage.0"), "{text}");
    }

    #[test]
    fn failed_polls_keep_the_last_snapshot_and_count_the_streak() {
        let opts = TopOptions::default();
        let mut state = TopState::default();
        state.observe_poll(
            Ok((
                stats_reply(100.0, 4.0, 0.0),
                exemplars_reply(),
                Some(profile_reply()),
            )),
            &opts,
        );
        state.observe_poll(Err("connect refused".to_string()), &opts);
        state.observe_poll(Err("connect refused".to_string()), &opts);
        assert_eq!(state.polls, 1);
        assert_eq!(state.consecutive_failures, 2);
        let text = render("x", &state, &opts);
        assert!(text.contains("poll failed (2 in a row)"), "{text}");
        assert!(
            text.contains("layers over 10s: 6 profiled forwards"),
            "{text}"
        );
        assert!(
            text.contains("  stage.0.conv "),
            "stale table still shown: {text}"
        );
    }

    #[test]
    fn disabled_profiler_renders_a_notice() {
        let disabled = JsonObject::new()
            .field("ok", true)
            .field("version", 3u64)
            .field(
                "profile",
                JsonObject::new().field("sample_every", 0u64).build(),
            )
            .build();
        let text = render_profile(disabled, "10s");
        assert!(text.contains("profiling disabled"), "{text}");
        assert!(!text.contains("stage."), "{text}");
    }
}
