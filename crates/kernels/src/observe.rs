//! Per-stage observers for the engine's one stage walk (crate-internal).
//!
//! `engine::walk` calls a [`StageObserver`] around every top-level stage
//! and at two in-stage sites: each activation quantization and each
//! lowered conv kernel run. The walk times and emits nothing itself;
//! [`Null`] monomorphizes it to the uninstrumented hot loop, [`Trace`]
//! emits spans and counters, and [`Profile`] fills a [`StageSample`].

use std::time::Instant;

use flight_telemetry::{Span, StageSample, Telemetry};

use crate::counts::OpCounts;
use crate::qact::QuantActivations;
use crate::shift::LoweringStats;
use crate::simd::KernelPath;

/// Hooks the stage walk calls. `Stage` carries what a hook pair needs
/// from `stage_begin` to `stage_end`.
pub(crate) trait StageObserver {
    type Stage;

    /// Top-level stage `index` of kind `kind` is about to run; `counts`
    /// are the op totals so far.
    fn stage_begin(&mut self, index: usize, kind: &'static str, counts: &OpCounts) -> Self::Stage;

    /// The stage finished; `counts` include its ops.
    fn stage_end(&mut self, stage: Self::Stage, counts: &OpCounts);

    /// An activation quantization at `site` (`conv` / `linear` /
    /// `requant`) just produced `codes` at `bits` bits.
    #[inline]
    fn quantized(&mut self, _site: &'static str, _codes: &[i32], _bits: u32) {}

    /// Runs one lowered conv kernel; `stats` is only evaluated by
    /// observers that report it.
    #[inline]
    fn lowered<R>(&mut self, _stats: impl FnOnce() -> LoweringStats, run: impl FnOnce() -> R) -> R {
        run()
    }
}

/// Observes nothing: the hot path.
pub(crate) struct Null;

impl StageObserver for Null {
    type Stage = ();

    #[inline]
    fn stage_begin(&mut self, _index: usize, _kind: &'static str, _counts: &OpCounts) {}

    #[inline]
    fn stage_end(&mut self, _stage: (), _counts: &OpCounts) {}
}

/// Emits through a telemetry handle: a `kernel.stage.<i>.<kind>` span
/// plus one counter per nonzero op field per stage,
/// `kernel.qact.<site>.{saturated,quantized}` counters per
/// quantization, and a `kernel.lowering` span plus a `taps_per_filter`
/// gauge per kernel.
pub(crate) struct Trace<'a>(pub(crate) &'a Telemetry);

impl Trace<'_> {
    /// Opens the whole-pass `kernel.forward` span and reports the
    /// `kernel.dispatch.<path>` gauge.
    pub(crate) fn forward_span(telemetry: &Telemetry, path: KernelPath) -> Span {
        let span = telemetry.span("kernel.forward");
        if telemetry.enabled() {
            telemetry.gauge(&format!("kernel.dispatch.{}", path.name()), 1.0, "path");
        }
        span
    }
}

impl StageObserver for Trace<'_> {
    type Stage = (String, Span, OpCounts);

    fn stage_begin(&mut self, index: usize, kind: &'static str, counts: &OpCounts) -> Self::Stage {
        let name = format!("kernel.stage.{index:02}.{kind}");
        let span = self.0.span(&name);
        (name, span, *counts)
    }

    fn stage_end(&mut self, (name, span, before): Self::Stage, counts: &OpCounts) {
        drop(span);
        for (field, n) in counts.delta(before).fields() {
            if n > 0 {
                self.0.counter(&format!("{name}.{field}"), n, "op");
            }
        }
    }

    fn quantized(&mut self, site: &'static str, codes: &[i32], bits: u32) {
        if !self.0.enabled() || codes.is_empty() {
            return;
        }
        let saturated = QuantActivations::saturation_count(codes, bits);
        self.0
            .counter(&format!("kernel.qact.{site}.saturated"), saturated, "op");
        self.0.counter(
            &format!("kernel.qact.{site}.quantized"),
            codes.len() as u64,
            "op",
        );
    }

    fn lowered<R>(&mut self, stats: impl FnOnce() -> LoweringStats, run: impl FnOnce() -> R) -> R {
        if !self.0.enabled() {
            return run();
        }
        self.0.gauge(
            "kernel.lowering.taps_per_filter",
            stats().mean_taps_per_filter(),
            "tap",
        );
        let _span = self.0.span("kernel.lowering");
        run()
    }
}

/// Fills a [`StageSample`] with each top-level stage's wall time and op
/// total; in-stage events go to the wrapped [`Trace`], so a live sink
/// still sees them.
pub(crate) struct Profile<'a>(pub(crate) &'a mut StageSample, pub(crate) Trace<'a>);

impl StageObserver for Profile<'_> {
    type Stage = (&'static str, OpCounts, Instant);

    #[inline]
    fn stage_begin(&mut self, _index: usize, kind: &'static str, counts: &OpCounts) -> Self::Stage {
        (kind, *counts, Instant::now())
    }

    #[inline]
    fn stage_end(&mut self, (kind, before, start): Self::Stage, counts: &OpCounts) {
        let wall_ns = start.elapsed().as_nanos() as u64;
        self.0
            .record_stage(kind, wall_ns, counts.delta(before).total());
    }

    fn quantized(&mut self, site: &'static str, codes: &[i32], bits: u32) {
        self.1.quantized(site, codes, bits);
    }

    fn lowered<R>(&mut self, stats: impl FnOnce() -> LoweringStats, run: impl FnOnce() -> R) -> R {
        self.1.lowered(stats, run)
    }
}
