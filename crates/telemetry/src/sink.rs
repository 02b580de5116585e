//! Sink trait and the in-process sinks.

use std::sync::{Arc, Mutex};

use crate::event::Event;

/// Where telemetry events go.
///
/// Sinks are shared behind `Arc` and may be hit from several threads, so
/// `emit` takes `&self`; sinks that buffer state guard it internally.
pub trait TelemetrySink: Send + Sync {
    /// `false` when emitting is a no-op. Instrumented hot paths check
    /// this once and skip event construction entirely, which is what
    /// keeps the null sink allocation-free.
    fn enabled(&self) -> bool {
        true
    }

    /// Records one event. Must not panic; sinks swallow I/O errors.
    fn emit(&self, event: Event);
}

/// The default sink: disabled, drops everything.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl TelemetrySink for NullSink {
    fn enabled(&self) -> bool {
        false
    }

    fn emit(&self, _event: Event) {}
}

/// Human-readable one-line-per-event output on stderr.
#[derive(Debug, Default, Clone, Copy)]
pub struct StderrSink;

impl TelemetrySink for StderrSink {
    fn emit(&self, event: Event) {
        match &event.text {
            Some(text) => eprintln!("[flight-telemetry] {event} {text}"),
            None => eprintln!("[flight-telemetry] {event}"),
        }
    }
}

/// Renames every event with a fixed prefix before forwarding it to an
/// inner sink.
///
/// This is how concurrent producers attribute their streams without
/// threading names through every emit call: a server hands each worker
/// an execution context whose handle is built with
/// [`Telemetry::with_prefix`](crate::Telemetry::with_prefix), so a
/// worker's `kernel.forward` span reaches the sink as
/// `kernel.worker.<w>.kernel.forward`. Sequence numbers, span ids, and
/// timestamps are untouched — only `name` changes.
pub struct PrefixSink {
    prefix: String,
    inner: Arc<dyn TelemetrySink>,
}

impl PrefixSink {
    /// Wraps `inner`, prepending `prefix` to every event name.
    pub fn new(prefix: impl Into<String>, inner: Arc<dyn TelemetrySink>) -> Self {
        PrefixSink {
            prefix: prefix.into(),
            inner,
        }
    }
}

impl std::fmt::Debug for PrefixSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "PrefixSink({:?})", self.prefix)
    }
}

impl TelemetrySink for PrefixSink {
    fn enabled(&self) -> bool {
        self.inner.enabled()
    }

    fn emit(&self, mut event: Event) {
        event.name.insert_str(0, &self.prefix);
        self.inner.emit(event);
    }
}

/// Buffers events in memory; the test sink.
///
/// Keep a second handle to the `Arc<CollectingSink>` you pass into
/// [`Telemetry::new`](crate::Telemetry::new) and read the buffer back
/// with [`CollectingSink::events`] after the instrumented code ran.
#[derive(Debug, Default)]
pub struct CollectingSink {
    events: Mutex<Vec<Event>>,
}

impl CollectingSink {
    /// An empty buffer.
    pub fn new() -> Self {
        CollectingSink::default()
    }

    /// A snapshot of every event emitted so far, in emission order.
    pub fn events(&self) -> Vec<Event> {
        self.events
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clone()
    }

    /// Number of buffered events.
    pub fn len(&self) -> usize {
        self.events
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .len()
    }

    /// `true` when nothing was emitted.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl TelemetrySink for CollectingSink {
    fn emit(&self, event: Event) {
        self.events
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .push(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;

    fn event(seq: u64, name: &str) -> Event {
        Event {
            seq,
            ts_us: seq as f64,
            name: name.to_string(),
            kind: EventKind::Counter,
            value: 1.0,
            unit: "",
            span: None,
            buckets: Vec::new(),
            text: None,
        }
    }

    #[test]
    fn null_sink_is_disabled() {
        let sink = NullSink;
        assert!(!sink.enabled());
        sink.emit(event(0, "dropped"));
    }

    #[test]
    fn prefix_sink_renames_and_forwards() {
        let inner = Arc::new(CollectingSink::new());
        let sink = PrefixSink::new("kernel.worker.03.", inner.clone());
        assert!(sink.enabled());
        sink.emit(event(0, "chunk"));
        let events = inner.events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].name, "kernel.worker.03.chunk");
        assert_eq!(events[0].seq, 0, "only the name is rewritten");
    }

    #[test]
    fn prefix_sink_tracks_inner_enablement() {
        let sink = PrefixSink::new("w.", Arc::new(NullSink));
        assert!(!sink.enabled());
    }

    #[test]
    fn collecting_sink_preserves_order() {
        let sink = CollectingSink::new();
        assert!(sink.is_empty());
        sink.emit(event(0, "a"));
        sink.emit(event(1, "b"));
        let events = sink.events();
        assert_eq!(sink.len(), 2);
        assert_eq!(events[0].name, "a");
        assert_eq!(events[1].name, "b");
    }
}
