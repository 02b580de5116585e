//! Operation counting shared by the kernels and the ASIC energy model.

use serde::{Deserialize, Serialize};

/// Arithmetic operations executed by a kernel invocation.
///
/// The FPGA/ASIC arguments of the paper reduce to these counts: a
/// fixed-point datapath spends integer multiplies, a (F)LightNN datapath
/// spends barrel shifts and adds, a full-precision datapath spends float
/// multiplies and adds.
///
/// # Counting conventions
///
/// Counts charge only **in-bounds** taps — a tap whose input lies in
/// the padding costs nothing (the lowered kernels run it on a zero, the
/// reference cores skip it), so edge positions are cheaper than interior
/// ones. Per output position and filter with `t` in-bounds taps:
///
/// * **shift-add datapath** (`shifts`/`int_adds`): `t` shifts and
///   `t − 1` adds — the paper's §3 cost model (`k` shifts, `k − 1`
///   adds): an accumulator seeded from the first shifted term needs one
///   add per *additional* term. Positions with `t = 0` charge nothing
///   (`saturating_sub`).
/// * **fixed-point datapath** (`int_mults`/`int_adds`): `t` multiplies
///   and `t` accumulates — a fused MAC per tap, so the two fields are
///   always equal for this path.
///
/// The lowered kernels precompute these totals per geometry in closed
/// form (output rows and columns grouped by which kernel rows and
/// columns land in bounds) and must stay bit-identical to the
/// interpreted reference cores, which count inside the loop; the parity
/// tests in `crates/kernels/tests/lowering.rs` pin both conventions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct OpCounts {
    /// 32-bit float multiplies.
    pub float_mults: u64,
    /// 32-bit float additions.
    pub float_adds: u64,
    /// Integer multiplies (fixed-point datapath).
    pub int_mults: u64,
    /// Integer additions / accumulations.
    pub int_adds: u64,
    /// Barrel shifts ((F)LightNN datapath).
    pub shifts: u64,
}

impl OpCounts {
    /// Elementwise sum of two counts.
    pub fn merged(self, other: OpCounts) -> OpCounts {
        OpCounts {
            float_mults: self.float_mults + other.float_mults,
            float_adds: self.float_adds + other.float_adds,
            int_mults: self.int_mults + other.int_mults,
            int_adds: self.int_adds + other.int_adds,
            shifts: self.shifts + other.shifts,
        }
    }

    /// Every field multiplied by `n` — e.g. a batch of `n` images at a
    /// per-image cost.
    pub(crate) fn times(self, n: u64) -> OpCounts {
        OpCounts {
            float_mults: self.float_mults * n,
            float_adds: self.float_adds * n,
            int_mults: self.int_mults * n,
            int_adds: self.int_adds * n,
            shifts: self.shifts * n,
        }
    }

    /// Total operations of any kind.
    pub fn total(&self) -> u64 {
        self.float_mults + self.float_adds + self.int_mults + self.int_adds + self.shifts
    }

    /// Elementwise difference from an earlier snapshot (saturating, so a
    /// stale snapshot can never underflow). Telemetry uses this to turn
    /// a running accumulator into per-stage costs.
    pub fn delta(self, earlier: OpCounts) -> OpCounts {
        OpCounts {
            float_mults: self.float_mults.saturating_sub(earlier.float_mults),
            float_adds: self.float_adds.saturating_sub(earlier.float_adds),
            int_mults: self.int_mults.saturating_sub(earlier.int_mults),
            int_adds: self.int_adds.saturating_sub(earlier.int_adds),
            shifts: self.shifts.saturating_sub(earlier.shifts),
        }
    }

    /// The counts as `(field name, value)` pairs, in declaration order.
    pub fn fields(&self) -> [(&'static str, u64); 5] {
        [
            ("float_mults", self.float_mults),
            ("float_adds", self.float_adds),
            ("int_mults", self.int_mults),
            ("int_adds", self.int_adds),
            ("shifts", self.shifts),
        ]
    }
}

impl std::ops::Add for OpCounts {
    type Output = OpCounts;
    fn add(self, rhs: OpCounts) -> OpCounts {
        self.merged(rhs)
    }
}

impl std::ops::AddAssign for OpCounts {
    fn add_assign(&mut self, rhs: OpCounts) {
        *self = self.merged(rhs);
    }
}

/// Counts merge associatively, so the accumulators of separately
/// forwarded chunks reduce with a plain `.sum()` in any grouping.
impl std::iter::Sum for OpCounts {
    fn sum<I: Iterator<Item = OpCounts>>(iter: I) -> OpCounts {
        iter.fold(OpCounts::default(), OpCounts::merged)
    }
}

impl std::fmt::Display for OpCounts {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "fmul {} fadd {} imul {} iadd {} shift {}",
            self.float_mults, self.float_adds, self.int_mults, self.int_adds, self.shifts
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_adds_fields() {
        let a = OpCounts {
            int_mults: 2,
            shifts: 3,
            ..OpCounts::default()
        };
        let b = OpCounts {
            int_adds: 5,
            shifts: 1,
            ..OpCounts::default()
        };
        let c = a + b;
        assert_eq!(c.int_mults, 2);
        assert_eq!(c.int_adds, 5);
        assert_eq!(c.shifts, 4);
        assert_eq!(c.total(), 11);
    }

    #[test]
    fn sum_reduces_associatively() {
        let parts = [
            OpCounts {
                shifts: 3,
                int_adds: 2,
                ..OpCounts::default()
            },
            OpCounts {
                shifts: 1,
                float_mults: 9,
                ..OpCounts::default()
            },
            OpCounts {
                int_mults: 4,
                ..OpCounts::default()
            },
        ];
        let all: OpCounts = parts.iter().copied().sum();
        // Reduce in a different grouping (as per-chunk forwards would).
        let mut regrouped = parts[2].merged(parts[0]);
        regrouped += parts[1];
        assert_eq!(all, regrouped);
        assert_eq!(all.total(), 19);
    }

    #[test]
    fn display_is_nonempty() {
        assert!(!OpCounts::default().to_string().is_empty());
    }

    #[test]
    fn delta_subtracts_and_saturates() {
        let before = OpCounts {
            shifts: 10,
            int_adds: 4,
            ..OpCounts::default()
        };
        let after = OpCounts {
            shifts: 25,
            int_adds: 4,
            int_mults: 7,
            ..OpCounts::default()
        };
        let d = after.delta(before);
        assert_eq!(d.shifts, 15);
        assert_eq!(d.int_adds, 0);
        assert_eq!(d.int_mults, 7);
        // A stale (larger) snapshot saturates to zero instead of wrapping.
        assert_eq!(before.delta(after).shifts, 0);
        assert_eq!(
            d.fields().iter().filter(|(_, n)| *n > 0).count(),
            2,
            "only the changed fields are nonzero"
        );
    }
}
