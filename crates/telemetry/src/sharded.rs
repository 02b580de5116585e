//! Per-worker shards, each a lifetime total plus a rolling window.
//!
//! Every writer records into its own `Mutex` (workers by worker index,
//! connection threads by `request_id % shards`), so the hot path never
//! takes a contended lock. Snapshots merge the shards bit-identically
//! (the [`WindowMerge`] / [`Windowed`] guarantees), so the merged report
//! equals what one global recorder would hold. A writer that panics
//! mid-update poisons only its shard's lock, and the lock is recovered
//! on the next access instead of failing every later snapshot. That is
//! sound because payloads are sums — counters and histogram buckets —
//! valid after every single increment, so a recovered shard at worst
//! holds part of the one record that panicked.

use std::sync::{Mutex, MutexGuard, PoisonError};

use crate::windowed::{WindowMerge, Windowed};

/// The reported windows: label and width in one-second buckets.
pub const WINDOWS: [(&str, usize); 3] = [("1s", 1), ("10s", 10), ("60s", 60)];

/// Ring size: enough one-second buckets for the widest window.
const WINDOW_BUCKETS: usize = 60;
/// One second, in the microsecond clock every window operation takes.
const BUCKET_MICROS: u64 = 1_000_000;

/// One shard's two halves.
#[derive(Debug)]
struct Halves<T> {
    lifetime: T,
    window: Windowed<T>,
}

/// Per-worker shards of a [`WindowMerge`] payload, each a lifetime
/// accumulator plus a 60 × 1 s [`Windowed`] ring. See the module docs.
#[derive(Debug)]
pub struct Sharded<T> {
    shards: Vec<Mutex<Halves<T>>>,
}

impl<T: WindowMerge + Clone> Sharded<T> {
    /// `shards` empty shards (clamped to at least 1).
    pub fn new(shards: usize) -> Self {
        Sharded {
            shards: (0..shards.max(1))
                .map(|_| {
                    Mutex::new(Halves {
                        lifetime: T::default(),
                        window: Windowed::new(WINDOW_BUCKETS, BUCKET_MICROS),
                    })
                })
                .collect(),
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Locks shard `idx % shards()`, recovering a poisoned lock.
    fn lock(&self, idx: usize) -> MutexGuard<'_, Halves<T>> {
        self.shards[idx % self.shards.len()]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Applies `record` to shard `shard`'s lifetime accumulator and to
    /// its window bucket covering `now_us`.
    pub fn record_at(&self, shard: usize, now_us: u64, mut record: impl FnMut(&mut T)) {
        let mut halves = self.lock(shard);
        record(&mut halves.lifetime);
        record(halves.window.bucket_at(now_us));
    }

    /// The lifetime payloads, merged across shards — bit-identical to
    /// what one global recorder would hold.
    pub fn merged(&self) -> T {
        let mut merged = T::default();
        for i in 0..self.shards.len() {
            merged.merge_from(&self.lock(i).lifetime);
        }
        merged
    }

    /// The last-`window_buckets`-seconds payload as of `now_us`, merged
    /// across shards.
    pub fn merged_window_at(&self, now_us: u64, window_buckets: usize) -> T {
        let mut merged: Windowed<T> = Windowed::new(WINDOW_BUCKETS, BUCKET_MICROS);
        for i in 0..self.shards.len() {
            merged.merge_at(&self.lock(i).window, now_us);
        }
        merged.fold_last(now_us, window_buckets)
    }
}
