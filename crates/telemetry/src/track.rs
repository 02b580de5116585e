//! The worker-track naming convention.
//!
//! Parallel producers attribute their event streams by name prefix (see
//! [`PrefixSink`](crate::PrefixSink)): worker `w` of a server emits
//! under `kernel.worker.<ww>.`, so its plain `kernel.lowering` span
//! reaches the trace as `kernel.worker.03.kernel.lowering`. This module
//! is the single definition of that convention — the write side
//! ([`worker_prefix`], used by flight-serve when it starts workers)
//! and the read side ([`parse_worker`], used by `flightctl export` to
//! assign each event to a per-worker timeline track) must never drift
//! apart.

/// The name prefix shared by every worker track: `kernel.worker.`.
pub const WORKER_TRACK_PREFIX: &str = "kernel.worker.";

/// The event-name prefix for worker `w`, e.g. `kernel.worker.03.` for
/// `w = 3`. Worker ids are zero-padded to two digits so lexicographic
/// and numeric track order agree for up to 100 workers; larger ids
/// simply grow wider and still parse.
pub fn worker_prefix(w: usize) -> String {
    format!("{WORKER_TRACK_PREFIX}{w:02}.")
}

/// Splits a worker-attributed event name into `(worker id, bare name)`,
/// e.g. `kernel.worker.03.chunk.shifts` → `(3, "chunk.shifts")`.
///
/// Returns `None` for names outside the convention: no
/// [`WORKER_TRACK_PREFIX`], a non-numeric or empty worker segment
/// (every byte must be an ASCII digit — `+3` is not a worker id), or a
/// missing bare name after the worker segment.
pub fn parse_worker(name: &str) -> Option<(usize, &str)> {
    let rest = name.strip_prefix(WORKER_TRACK_PREFIX)?;
    let (id, bare) = rest.split_once('.')?;
    if id.is_empty() || !id.bytes().all(|b| b.is_ascii_digit()) || bare.is_empty() {
        return None;
    }
    Some((id.parse().ok()?, bare))
}

/// The name prefix shared by every per-request track: `serve.request.`.
/// Exemplar timelines dumped by `flightq exemplars --jsonl` name their
/// phase spans `serve.request.<id>.<phase>` so `flightctl export` can
/// give each traced request its own Perfetto track.
pub const REQUEST_TRACK_PREFIX: &str = "serve.request.";

/// The event-name prefix for request `id`, e.g. `serve.request.42.`.
/// Request ids are not zero-padded: they are unbounded monotonic
/// counters, and the export side orders tracks numerically.
pub fn request_prefix(id: u64) -> String {
    format!("{REQUEST_TRACK_PREFIX}{id}.")
}

/// Splits a request-attributed event name into `(request id, bare
/// name)`, e.g. `serve.request.42.compute` → `(42, "compute")`. Same
/// fail-closed rules as [`parse_worker`]: every id byte must be an
/// ASCII digit and the bare name must be non-empty.
pub fn parse_request_track(name: &str) -> Option<(u64, &str)> {
    let rest = name.strip_prefix(REQUEST_TRACK_PREFIX)?;
    let (id, bare) = rest.split_once('.')?;
    if id.is_empty() || !id.bytes().all(|b| b.is_ascii_digit()) || bare.is_empty() {
        return None;
    }
    Some((id.parse().ok()?, bare))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefix_and_parse_round_trip() {
        for w in [0, 3, 17, 99, 100, 12345] {
            let name = format!("{}chunk.shifts", worker_prefix(w));
            assert_eq!(parse_worker(&name), Some((w, "chunk.shifts")));
        }
    }

    #[test]
    fn two_digit_padding_keeps_track_order_lexicographic() {
        assert_eq!(worker_prefix(0), "kernel.worker.00.");
        assert_eq!(worker_prefix(7), "kernel.worker.07.");
        assert_eq!(worker_prefix(42), "kernel.worker.42.");
        assert!(worker_prefix(9) < worker_prefix(10));
    }

    #[test]
    fn non_worker_names_do_not_parse() {
        assert_eq!(parse_worker("train.epoch.loss"), None);
        assert_eq!(parse_worker("kernel.forward.workers"), None);
        assert_eq!(parse_worker("kernel.worker."), None);
        assert_eq!(parse_worker("kernel.worker.03"), None, "no bare name");
        assert_eq!(parse_worker("kernel.worker.03."), None, "empty bare name");
        assert_eq!(parse_worker("kernel.worker..chunk"), None, "empty id");
        assert_eq!(parse_worker("kernel.worker.x3.chunk"), None);
        // `usize::from_str` accepts a leading `+`; the convention does not.
        assert_eq!(parse_worker("kernel.worker.+3.chunk"), None);
    }

    #[test]
    fn overlong_ids_fail_closed() {
        let name = format!("kernel.worker.{}9.chunk", "9".repeat(40));
        assert_eq!(parse_worker(&name), None, "id overflow is not a worker");
    }

    #[test]
    fn request_prefix_and_parse_round_trip() {
        for id in [0u64, 7, 1_000_000_007] {
            let name = format!("{}queue", request_prefix(id));
            assert_eq!(parse_request_track(&name), Some((id, "queue")));
        }
        assert_eq!(
            parse_request_track("serve.request.12.phase.sub"),
            Some((12, "phase.sub"))
        );
    }

    #[test]
    fn non_request_names_do_not_parse_as_request_tracks() {
        assert_eq!(parse_request_track("serve.latency.queue"), None);
        assert_eq!(parse_request_track("serve.request..queue"), None);
        assert_eq!(parse_request_track("serve.request.12"), None);
        assert_eq!(parse_request_track("serve.request.x2.queue"), None);
        assert_eq!(parse_request_track("kernel.worker.03.chunk"), None);
    }
}
