//! `flightctl health` — sanity checks over training-run traces.
//!
//! Five signals the FLightNN training loop can silently get wrong:
//!
//! * **`k_i` drift** — Algorithm 1 exists to shrink the per-filter
//!   shift count; if `train.mean_k` ends *higher* than it started, the
//!   sparsity regularizer is not biting.
//! * **Threshold saturation** — learned thresholds `t_j` pinned at zero
//!   quantize every weight to the same code; a mostly-saturated
//!   threshold set means the quantizer has collapsed.
//! * **Activation clamping** — `kernel.qact.<stage>.saturated` counts
//!   quantized activation codes at the representable rail; a high rate
//!   relative to `.quantized` means the activation range estimate is
//!   too tight and accuracy claims are suspect.
//! * **Gradient norms** — the trainer's per-layer
//!   `train.layer.*.grad_norm.{quant,shadow}` gauges. STE training
//!   diverges exactly like float training: a norm that explodes
//!   (≥ [`GRAD_EXPLOSION_FACTOR`]× its first reading) or vanishes
//!   (≤ [`GRAD_VANISH_FACTOR`]×) means later epochs are wasted.
//! * **L_reg stagnation** — the per-order residual-norm sums
//!   `train.reg.r<j>` (`Σ_i ‖r_{i,j}‖₂`, §4.3). When `λ_j > 0` (read
//!   from the `train.reg.lambda<j>` gauges) the group-lasso term should
//!   push `r_j` down; a sum that ends ≥
//!   [`REG_STAGNATION_FRACTION`]× its first reading means the
//!   regularizer is configured but not biting.
//!
//! Each check degrades to "no signal in trace" when the run did not
//! emit the relevant events, so the command works on kernel-only traces
//! too.

use std::fmt::Write as _;

use flight_telemetry::json::JsonObject;

use crate::summarize::{counter_totals, gauge_trajectories};
use crate::trace::Trace;

/// Clamp rate above which activation quantization is flagged.
pub const CLAMP_WARN_RATE: f64 = 0.05;
/// Fraction of thresholds pinned at zero above which the quantizer is
/// flagged as collapsed.
pub const SATURATION_WARN_FRACTION: f64 = 0.5;
/// A gradient norm this many times its first reading is an explosion.
pub const GRAD_EXPLOSION_FACTOR: f64 = 100.0;
/// A gradient norm at or below this fraction of its first reading has
/// vanished.
pub const GRAD_VANISH_FACTOR: f64 = 1e-4;
/// With `λ_j > 0`, a residual-norm sum still at or above this fraction
/// of its first reading counts as stagnant.
pub const REG_STAGNATION_FRACTION: f64 = 0.95;

/// One health run: the rendered report plus the warning count.
#[derive(Debug)]
pub struct HealthReport {
    /// Human-readable findings, one per line.
    pub lines: Vec<String>,
    /// Checks that fired a warning.
    pub warnings: usize,
}

impl HealthReport {
    /// The report plus a final verdict line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for line in &self.lines {
            let _ = writeln!(out, "{line}");
        }
        if self.warnings == 0 {
            let _ = writeln!(out, "health: OK");
        } else {
            let _ = writeln!(out, "health: {} warning(s)", self.warnings);
        }
        out
    }

    /// The machine-readable form: `{"ok": bool, "warnings": n,
    /// "lines": [...]}`, for CI gates that parse instead of scraping.
    pub fn render_json(&self) -> String {
        JsonObject::new()
            .field("ok", self.warnings == 0)
            .field("warnings", self.warnings)
            .field(
                "lines",
                self.lines
                    .iter()
                    .map(|l| flight_telemetry::json::JsonValue::from(l.as_str()))
                    .collect::<Vec<_>>(),
            )
            .build()
            .render()
    }
}

/// Runs every check against a parsed trace.
pub fn health(trace: &Trace) -> HealthReport {
    let mut report = HealthReport {
        lines: Vec::new(),
        warnings: 0,
    };
    if trace.malformed > 0 {
        report.lines.push(format!(
            "trace: {} malformed line(s) skipped (crash-truncated tail?)",
            trace.malformed
        ));
    }
    check_mean_k(trace, &mut report);
    check_threshold_saturation(trace, &mut report);
    check_activation_clamping(trace, &mut report);
    check_gradient_norms(trace, &mut report);
    check_reg_stagnation(trace, &mut report);
    report
}

fn check_mean_k(trace: &Trace, report: &mut HealthReport) {
    let traj = gauge_trajectories(&trace.events, |n| n.ends_with("train.mean_k"));
    let Some((_, first, last)) = traj.first() else {
        report.lines.push("mean k: no signal in trace".to_string());
        return;
    };
    let drift = last - first;
    report.lines.push(format!(
        "mean k: {first:.3} → {last:.3} shifts/filter (drift {drift:+.3})"
    ));
    if drift > 1e-9 {
        report.warnings += 1;
        report.lines.push(
            "  warning: mean k grew over training — the sparsity regularizer is not reducing \
             shift counts"
                .to_string(),
        );
    }
}

fn check_threshold_saturation(trace: &Trace, report: &mut HealthReport) {
    let traj = gauge_trajectories(&trace.events, |n| n.contains("train.threshold."));
    if traj.is_empty() {
        report
            .lines
            .push("thresholds: no signal in trace".to_string());
        return;
    }
    let saturated = traj.iter().filter(|(_, _, last)| last.abs() < 1e-6).count();
    report.lines.push(format!(
        "thresholds: {saturated}/{} pinned at zero after training",
        traj.len()
    ));
    if saturated as f64 >= SATURATION_WARN_FRACTION * traj.len() as f64 && saturated > 0 {
        report.warnings += 1;
        report.lines.push(
            "  warning: most thresholds saturated at zero — the quantizer has collapsed and \
             codes carry no information"
                .to_string(),
        );
    }
}

fn check_activation_clamping(trace: &Trace, report: &mut HealthReport) {
    // Fold worker prefixes away: stage = the segment after
    // "kernel.qact.", wherever it sits in the name (worker-prefixed
    // names like `kernel.worker.00.kernel.qact.conv.saturated` count).
    let mut stages: Vec<(String, f64, f64)> = Vec::new(); // (stage, saturated, quantized)
    for (name, total, _) in counter_totals(&trace.events) {
        let Some(at) = name.find("kernel.qact.") else {
            continue;
        };
        let tail = &name[at + "kernel.qact.".len()..];
        let Some((stage, field)) = tail.split_once('.') else {
            continue;
        };
        let entry = match stages.iter_mut().position(|(s, _, _)| s == stage) {
            Some(i) => &mut stages[i],
            None => {
                stages.push((stage.to_string(), 0.0, 0.0));
                stages.last_mut().expect("just pushed")
            }
        };
        match field {
            "saturated" => entry.1 += total,
            "quantized" => entry.2 += total,
            _ => {}
        }
    }
    if stages.is_empty() {
        report
            .lines
            .push("activation clamping: no signal in trace".to_string());
        return;
    }
    for (stage, saturated, quantized) in stages {
        if quantized <= 0.0 {
            continue;
        }
        let rate = saturated / quantized;
        report.lines.push(format!(
            "activation clamping [{stage}]: {rate:.2}% of codes at the rail ({saturated:.0}/{quantized:.0})",
            rate = rate * 100.0
        ));
        if rate > CLAMP_WARN_RATE {
            report.warnings += 1;
            report.lines.push(format!(
                "  warning: {stage} clamp rate above {:.0}% — activation range too tight for \
                 the quantizer",
                CLAMP_WARN_RATE * 100.0
            ));
        }
    }
}

fn check_gradient_norms(trace: &Trace, report: &mut HealthReport) {
    let traj = gauge_trajectories(&trace.events, |n| n.contains(".grad_norm."));
    if traj.is_empty() {
        report
            .lines
            .push("gradient norms: no signal in trace".to_string());
        return;
    }
    report.lines.push(format!(
        "gradient norms: {} layer signal(s) tracked",
        traj.len()
    ));
    for (name, first, last) in traj {
        if first <= 0.0 {
            // A layer that starts at exactly zero gradient has no
            // baseline ratio; the vanishing check below would always
            // fire on it.
            continue;
        }
        if last >= GRAD_EXPLOSION_FACTOR * first {
            report.warnings += 1;
            report.lines.push(format!(
                "  warning: {name} exploded {first:.3e} → {last:.3e} (≥{GRAD_EXPLOSION_FACTOR:.0}×) \
                 — training is diverging"
            ));
        } else if last <= GRAD_VANISH_FACTOR * first {
            report.warnings += 1;
            report.lines.push(format!(
                "  warning: {name} vanished {first:.3e} → {last:.3e} (≤{GRAD_VANISH_FACTOR:.0e}×) \
                 — the layer has stopped learning"
            ));
        }
    }
}

/// The order `j` of a `train.reg.<prefix><j>` gauge name, tolerating
/// sink prefixes in front of the `train.` segment.
fn reg_order(name: &str, prefix: &str) -> Option<usize> {
    let tail = &name[name.find(prefix)? + prefix.len()..];
    if tail.is_empty() || !tail.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    tail.parse().ok()
}

fn check_reg_stagnation(trace: &Trace, report: &mut HealthReport) {
    // Effective λ_j per order, from the trainer's train.reg.lambda<j>
    // gauges (last reading wins). Orders with λ = 0 are exempt: nothing
    // is pushing their residual norms down.
    let lambdas = gauge_trajectories(&trace.events, |n| {
        reg_order(n, "train.reg.lambda").is_some()
    });
    let lambda_of = |j: usize| {
        lambdas
            .iter()
            .find(|(n, _, _)| reg_order(n, "train.reg.lambda") == Some(j))
            .map(|(_, _, last)| *last)
    };
    let traj = gauge_trajectories(&trace.events, |n| reg_order(n, "train.reg.r").is_some());
    if traj.is_empty() {
        report
            .lines
            .push("residual norms: no signal in trace".to_string());
        return;
    }
    report
        .lines
        .push(format!("residual norms: {} order(s) tracked", traj.len()));
    for (name, first, last) in traj {
        let Some(j) = reg_order(name, "train.reg.r") else {
            continue;
        };
        // r_0 = Σ‖w_i‖ is the pruning term; it only shrinks when λ_0 is
        // active, same gate as every other order.
        let lambda = lambda_of(j).unwrap_or(0.0);
        if lambda <= 0.0 || first <= 0.0 {
            continue;
        }
        if last >= REG_STAGNATION_FRACTION * first {
            report.warnings += 1;
            report.lines.push(format!(
                "  warning: {name} stagnant {first:.3e} → {last:.3e} with λ_{j} = {lambda:.3e} \
                 — L_reg is not reducing residual norms"
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::parse_trace;

    fn gauge(seq: u64, name: &str, value: f64) -> String {
        format!(r#"{{"seq":{seq},"name":"{name}","kind":"gauge","value":{value},"unit":""}}"#)
    }

    fn counter(seq: u64, name: &str, value: f64) -> String {
        format!(r#"{{"seq":{seq},"name":"{name}","kind":"counter","value":{value},"unit":"op"}}"#)
    }

    #[test]
    fn healthy_run_reports_ok() {
        let body = [
            gauge(0, "train.mean_k", 2.0),
            gauge(1, "train.threshold.c0.t0", 1.0),
            gauge(2, "train.threshold.c0.t1", 0.5),
            counter(3, "kernel.qact.conv.saturated", 1.0),
            counter(4, "kernel.qact.conv.quantized", 1000.0),
            gauge(5, "train.mean_k", 1.4),
            gauge(6, "train.threshold.c0.t0", 0.8),
            gauge(7, "train.threshold.c0.t1", 0.3),
        ]
        .join("\n");
        let report = health(&parse_trace(&body));
        assert_eq!(report.warnings, 0, "{}", report.render());
        let text = report.render();
        assert!(text.contains("mean k: 2.000 → 1.400"), "{text}");
        assert!(text.contains("0/2 pinned at zero"), "{text}");
        assert!(text.contains("[conv]"), "{text}");
        assert!(text.contains("health: OK"), "{text}");
    }

    #[test]
    fn growing_mean_k_warns() {
        let body = [gauge(0, "train.mean_k", 1.0), gauge(1, "train.mean_k", 2.5)].join("\n");
        let report = health(&parse_trace(&body));
        assert_eq!(report.warnings, 1);
        assert!(
            report.render().contains("mean k grew"),
            "{}",
            report.render()
        );
    }

    #[test]
    fn collapsed_thresholds_warn() {
        let body = [
            gauge(0, "train.threshold.c0.t0", 0.0),
            gauge(1, "train.threshold.c0.t1", 0.0),
            gauge(2, "train.threshold.f0.t0", 0.4),
        ]
        .join("\n");
        let report = health(&parse_trace(&body));
        assert_eq!(report.warnings, 1);
        let text = report.render();
        assert!(text.contains("2/3 pinned at zero"), "{text}");
        assert!(text.contains("collapsed"), "{text}");
    }

    #[test]
    fn high_clamp_rate_warns_even_under_worker_prefixes() {
        let body = [
            counter(0, "kernel.worker.00.kernel.qact.conv.saturated", 60.0),
            counter(1, "kernel.worker.00.kernel.qact.conv.quantized", 500.0),
            counter(2, "kernel.worker.01.kernel.qact.conv.saturated", 40.0),
            counter(3, "kernel.worker.01.kernel.qact.conv.quantized", 500.0),
        ]
        .join("\n");
        let report = health(&parse_trace(&body));
        assert_eq!(report.warnings, 1, "{}", report.render());
        let text = report.render();
        assert!(
            text.contains("10.00% of codes at the rail (100/1000)"),
            "{text}"
        );
    }

    #[test]
    fn empty_trace_degrades_to_no_signal_everywhere() {
        let report = health(&parse_trace(""));
        assert_eq!(report.warnings, 0);
        let text = report.render();
        assert!(text.contains("mean k: no signal"), "{text}");
        assert!(text.contains("thresholds: no signal"), "{text}");
        assert!(text.contains("activation clamping: no signal"), "{text}");
        assert!(text.contains("gradient norms: no signal"), "{text}");
        assert!(text.contains("residual norms: no signal"), "{text}");
        assert!(text.contains("health: OK"), "{text}");
    }

    #[test]
    fn exploding_gradient_norm_warns() {
        let body = [
            gauge(0, "train.layer.c0.grad_norm.quant", 0.5),
            gauge(1, "train.layer.c1.grad_norm.quant", 0.4),
            gauge(2, "train.layer.c0.grad_norm.quant", 80.0),
            gauge(3, "train.layer.c1.grad_norm.quant", 0.3),
        ]
        .join("\n");
        let report = health(&parse_trace(&body));
        assert_eq!(report.warnings, 1, "{}", report.render());
        let text = report.render();
        assert!(text.contains("2 layer signal(s) tracked"), "{text}");
        assert!(
            text.contains("train.layer.c0.grad_norm.quant exploded"),
            "{text}"
        );
        assert!(text.contains("health: 1 warning(s)"), "{text}");
    }

    #[test]
    fn vanishing_gradient_norm_warns_but_zero_baseline_does_not() {
        let body = [
            gauge(0, "train.layer.c0.grad_norm.shadow", 2.0),
            gauge(1, "train.layer.f0.grad_norm.shadow", 0.0),
            gauge(2, "train.layer.c0.grad_norm.shadow", 1e-7),
            gauge(3, "train.layer.f0.grad_norm.shadow", 0.0),
        ]
        .join("\n");
        let report = health(&parse_trace(&body));
        assert_eq!(report.warnings, 1, "{}", report.render());
        assert!(report.render().contains("vanished"), "{}", report.render());
    }

    #[test]
    fn reg_stagnation_warns_only_when_lambda_is_active() {
        // r1 stagnates under λ_1 > 0 → warning. r2 stagnates too, but
        // λ_2 = 0, so nothing is pushing it — no warning.
        let body = [
            gauge(0, "train.reg.lambda1", 1e-3),
            gauge(1, "train.reg.lambda2", 0.0),
            gauge(2, "train.reg.r1", 10.0),
            gauge(3, "train.reg.r2", 5.0),
            gauge(4, "train.reg.r1", 9.9),
            gauge(5, "train.reg.r2", 5.0),
        ]
        .join("\n");
        let report = health(&parse_trace(&body));
        assert_eq!(report.warnings, 1, "{}", report.render());
        let text = report.render();
        assert!(text.contains("train.reg.r1 stagnant"), "{text}");
        assert!(!text.contains("train.reg.r2 stagnant"), "{text}");

        // The same residuals actually shrinking → healthy.
        let improving = [
            gauge(0, "train.reg.lambda1", 1e-3),
            gauge(1, "train.reg.r1", 10.0),
            gauge(2, "train.reg.r1", 6.0),
        ]
        .join("\n");
        assert_eq!(health(&parse_trace(&improving)).warnings, 0);
    }

    #[test]
    fn json_report_carries_verdict_and_lines() {
        let body = [gauge(0, "train.mean_k", 1.0), gauge(1, "train.mean_k", 2.5)].join("\n");
        let report = health(&parse_trace(&body));
        let v =
            flight_telemetry::json::JsonValue::parse(&report.render_json()).expect("valid JSON");
        assert!(matches!(
            v.get("ok"),
            Some(flight_telemetry::json::JsonValue::Bool(false))
        ));
        assert_eq!(v.get("warnings").and_then(|x| x.as_f64()), Some(1.0));
        let lines = v.get("lines").and_then(|x| x.as_array()).expect("lines");
        assert!(
            lines
                .iter()
                .any(|l| l.as_str().is_some_and(|s| s.contains("mean k grew"))),
            "warning line present"
        );
    }
}
