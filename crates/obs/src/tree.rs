//! Span-tree reconstruction from a flat event stream.
//!
//! Spans arrive as `span_start` / `span_end` pairs linked by a span id.
//! Reconstruction must tolerate everything a real trace throws at it:
//!
//! * **Truncated tails** — a killed run leaves `span_start`s with no
//!   matching end; they are counted in [`SpanSummary::unclosed`] and
//!   excluded from the timing stats (their duration is unknown).
//! * **Orphan ends** — concatenated runs restart span ids, so a
//!   `span_end` can arrive with no recorded start; it still folds into
//!   the stats (the end event carries the duration) and is counted in
//!   [`SpanSummary::orphan_ends`].
//! * **Interleaving** — parallel workers emit into one sink, so spans
//!   do not close in stack order. Pairing is by span id, and parentage
//!   is whatever span was innermost *when the child started*, which is
//!   exact for single-threaded sections and a best-effort attribution
//!   for interleaved ones.
//!
//! Self time is a span's own duration minus the summed durations of its
//! direct children — the number that tells you *which* layer of a
//! `kernel.forward` actually burns the wall clock.

use std::collections::HashMap;

use flight_telemetry::EventKind;

use crate::trace::TraceEvent;

/// Timing stats for one span name.
#[derive(Debug, Default, Clone)]
pub struct SpanStats {
    /// Completed spans under this name.
    pub count: u64,
    /// Summed wall-clock seconds.
    pub total_s: f64,
    /// `total_s` minus time spent in direct child spans.
    pub self_s: f64,
    /// Individual durations, sorted ascending (for quantiles).
    pub durations: Vec<f64>,
}

impl SpanStats {
    /// Linearly interpolated quantile on the sorted durations
    /// (Hyndman–Fan type 7, the R/NumPy default): rank
    /// `h = (n−1)·q` splits into `⌊h⌋` and a fraction, and the result
    /// interpolates between the two bracketing order statistics.
    /// Returns 0 when empty.
    ///
    /// Interpolation matters most for the tiny samples a short run
    /// produces: with `n = 2` durations `[a, b]`, `p95` is
    /// `a + 0.95·(b−a)` — close to, but honestly below, the max —
    /// where nearest-rank would report `b` and make a single slow span
    /// look like a plateau. With `n = 1` every quantile is the one
    /// observation; `q ≥ 1` is exactly the max.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.durations.is_empty() {
            return 0.0;
        }
        let h = (self.durations.len() - 1) as f64 * q.clamp(0.0, 1.0);
        let lo = h.floor() as usize;
        let frac = h - lo as f64;
        let low = self.durations[lo];
        if frac == 0.0 {
            return low;
        }
        low + frac * (self.durations[lo + 1] - low)
    }

    /// The longest single span.
    pub fn max(&self) -> f64 {
        self.durations.last().copied().unwrap_or(0.0)
    }
}

/// Per-name span stats for a whole trace.
#[derive(Debug, Default)]
pub struct SpanSummary {
    /// Span names in first-seen order.
    pub names: Vec<String>,
    /// Stats parallel to `names`.
    pub stats: Vec<SpanStats>,
    /// Spans started but never ended — a truncated tail (or a run
    /// killed mid-flight).
    pub unclosed: u64,
    /// Ends with no recorded start — concatenated runs; their durations
    /// still count.
    pub orphan_ends: u64,
}

impl SpanSummary {
    /// Folds the span events out of `events`.
    pub fn from_events(events: &[TraceEvent]) -> SpanSummary {
        let mut summary = SpanSummary::default();
        // Innermost-open stack of span ids, in start order.
        let mut open: Vec<u64> = Vec::new();
        // Span id → (name index, parent span id at start).
        let mut started: HashMap<u64, (usize, Option<u64>)> = HashMap::new();
        // Span id → summed direct-child seconds.
        let mut child_s: HashMap<u64, f64> = HashMap::new();

        for event in events {
            match event.kind {
                EventKind::SpanStart => {
                    let idx = summary.name_index(&event.name);
                    if let Some(id) = event.span {
                        started.insert(id, (idx, open.last().copied()));
                        open.push(id);
                    }
                }
                EventKind::SpanEnd => {
                    let elapsed = event.value;
                    let (idx, parent) = match event.span.and_then(|id| started.remove(&id)) {
                        Some(entry) => entry,
                        None => {
                            summary.orphan_ends += 1;
                            (summary.name_index(&event.name), None)
                        }
                    };
                    if let Some(id) = event.span {
                        // Lazy cleanup: remove wherever it sits, so an
                        // interleaved close does not orphan its peers.
                        if let Some(pos) = open.iter().rposition(|&o| o == id) {
                            open.remove(pos);
                        }
                    }
                    if let Some(parent_id) = parent {
                        *child_s.entry(parent_id).or_insert(0.0) += elapsed;
                    }
                    if elapsed.is_finite() {
                        let child = event.span.and_then(|id| child_s.remove(&id)).unwrap_or(0.0);
                        let stats = &mut summary.stats[idx];
                        stats.count += 1;
                        stats.total_s += elapsed;
                        stats.self_s += (elapsed - child).max(0.0);
                        stats.durations.push(elapsed);
                    }
                }
                _ => {}
            }
        }
        summary.unclosed = started.len() as u64;
        for stats in &mut summary.stats {
            stats.durations.sort_by(f64::total_cmp);
        }
        summary
    }

    fn name_index(&mut self, name: &str) -> usize {
        match self.names.iter().position(|n| n == name) {
            Some(i) => i,
            None => {
                self.names.push(name.to_string());
                self.stats.push(SpanStats::default());
                self.names.len() - 1
            }
        }
    }

    /// `(name, stats)` pairs sorted by total time, descending.
    pub fn by_total_time(&self) -> Vec<(&str, &SpanStats)> {
        let mut rows: Vec<(&str, &SpanStats)> = self
            .names
            .iter()
            .map(String::as_str)
            .zip(self.stats.iter())
            .collect();
        rows.sort_by(|a, b| b.1.total_s.total_cmp(&a.1.total_s));
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn start(seq: u64, name: &str, id: u64) -> TraceEvent {
        TraceEvent {
            seq,
            ts_us: Some(seq as f64),
            name: name.to_string(),
            kind: EventKind::SpanStart,
            value: 0.0,
            unit: "s".to_string(),
            span: Some(id),
            buckets: Vec::new(),
            text: None,
        }
    }

    fn end(seq: u64, name: &str, id: u64, elapsed: f64) -> TraceEvent {
        TraceEvent {
            kind: EventKind::SpanEnd,
            value: elapsed,
            ..start(seq, name, id)
        }
    }

    #[test]
    fn nesting_splits_total_into_self_and_child_time() {
        // forward(1.0s) wrapping two stages (0.3s + 0.5s).
        let events = vec![
            start(0, "kernel.forward", 1),
            start(1, "kernel.stage.00", 2),
            end(2, "kernel.stage.00", 2, 0.3),
            start(3, "kernel.stage.01", 3),
            end(4, "kernel.stage.01", 3, 0.5),
            end(5, "kernel.forward", 1, 1.0),
        ];
        let s = SpanSummary::from_events(&events);
        assert_eq!(s.unclosed, 0);
        assert_eq!(s.orphan_ends, 0);
        let forward = &s.stats[s.names.iter().position(|n| n == "kernel.forward").unwrap()];
        assert_eq!(forward.count, 1);
        assert!((forward.total_s - 1.0).abs() < 1e-12);
        assert!((forward.self_s - 0.2).abs() < 1e-12, "1.0 - 0.3 - 0.5");
        let stage = &s.stats[s.names.iter().position(|n| n == "kernel.stage.00").unwrap()];
        assert!(
            (stage.self_s - 0.3).abs() < 1e-12,
            "leaves keep all their time"
        );
    }

    #[test]
    fn truncated_tail_counts_unclosed_without_fake_durations() {
        let events = vec![
            start(0, "kernel.forward", 1),
            start(1, "kernel.stage.00", 2),
            end(2, "kernel.stage.00", 2, 0.3),
            start(3, "kernel.stage.01", 3),
            // killed here: forward and stage.01 never close
        ];
        let s = SpanSummary::from_events(&events);
        assert_eq!(s.unclosed, 2);
        let forward = &s.stats[s.names.iter().position(|n| n == "kernel.forward").unwrap()];
        assert_eq!(forward.count, 0, "unknown duration is not invented");
        assert_eq!(forward.total_s, 0.0);
    }

    #[test]
    fn orphan_ends_still_fold_their_durations() {
        // The tail of a concatenated trace: ends only, ids unseen.
        let events = vec![end(0, "chunk", 9, 0.25), end(1, "chunk", 11, 0.75)];
        let s = SpanSummary::from_events(&events);
        assert_eq!(s.orphan_ends, 2);
        let chunk = &s.stats[0];
        assert_eq!(chunk.count, 2);
        assert!((chunk.total_s - 1.0).abs() < 1e-12);
        assert!((chunk.self_s - 1.0).abs() < 1e-12);
    }

    #[test]
    fn interleaved_workers_pair_by_id_not_stack_order() {
        // Two workers' chunks overlap: 1 starts, 2 starts, 1 ends, 2 ends.
        let events = vec![
            start(0, "w0.chunk", 1),
            start(1, "w1.chunk", 2),
            end(2, "w0.chunk", 1, 0.4),
            end(3, "w1.chunk", 2, 0.6),
        ];
        let s = SpanSummary::from_events(&events);
        assert_eq!(s.unclosed, 0);
        let w0 = &s.stats[s.names.iter().position(|n| n == "w0.chunk").unwrap()];
        let w1 = &s.stats[s.names.iter().position(|n| n == "w1.chunk").unwrap()];
        assert!((w0.total_s - 0.4).abs() < 1e-12);
        assert!((w1.total_s - 0.6).abs() < 1e-12);
    }

    #[test]
    fn quantiles_read_the_sorted_durations() {
        let events: Vec<TraceEvent> = (0..10)
            .flat_map(|i| {
                let id = i + 1;
                let d = (i + 1) as f64 / 10.0; // 0.1 ..= 1.0
                vec![start(2 * i, "s", id), end(2 * i + 1, "s", id, d)]
            })
            .collect();
        let s = SpanSummary::from_events(&events);
        let stats = &s.stats[0];
        assert_eq!(stats.count, 10);
        // Type-7 median of 0.1..=1.0: h = 4.5 → (0.5 + 0.6) / 2.
        assert!(
            (stats.quantile(0.5) - 0.55).abs() < 1e-12,
            "interpolated median"
        );
        assert!((stats.quantile(1.0) - 1.0).abs() < 1e-12);
        assert!((stats.max() - 1.0).abs() < 1e-12);
        assert_eq!(SpanStats::default().quantile(0.5), 0.0);
    }

    #[test]
    fn tiny_sample_quantiles_interpolate_instead_of_reporting_max() {
        // n = 1: every quantile is the single observation.
        let one = SpanStats {
            count: 1,
            total_s: 0.4,
            self_s: 0.4,
            durations: vec![0.4],
        };
        assert_eq!(one.quantile(0.5), 0.4);
        assert_eq!(one.quantile(0.95), 0.4);
        // n = 2: p95 lands between the two observations, not on the
        // max — a single slow span no longer masquerades as a plateau.
        let two = SpanStats {
            count: 2,
            total_s: 1.2,
            self_s: 1.2,
            durations: vec![0.2, 1.0],
        };
        assert!((two.quantile(0.5) - 0.6).abs() < 1e-12);
        assert!((two.quantile(0.95) - (0.2 + 0.95 * 0.8)).abs() < 1e-12);
        assert!(two.quantile(0.95) < two.max());
        assert_eq!(two.quantile(1.0), two.max());
        // Out-of-range q clamps.
        assert_eq!(two.quantile(-1.0), 0.2);
        assert_eq!(two.quantile(2.0), 1.0);
    }
}
