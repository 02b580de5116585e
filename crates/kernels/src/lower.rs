//! The one lowered conv program both integer datapaths run.
//!
//! Shift-add ((F)LightNN) and fixed-point (FP 4W8A) convolution differ
//! only in the per-tap operation: a signed shift `±(a << s)` or an
//! integer multiply `a · w`. Everything else about *how a conv is
//! lowered and run* lives here, once, generic over the crate-private
//! [`TapOp`] trait that each datapath implements on its compiled kernel
//! type (`ShiftKernel` in `shift.rs`, `FixedWeights` in `fixed.rs`).
//!
//! On first contact with a concrete [`Conv2dGeometry`] a kernel's taps
//! are lowered into a [`Lowered`] program, cached per geometry and
//! shared across clones (and so across threads sharing one `CompiledNet`):
//!
//! * every tap gets a precomputed flat input offset relative to the
//!   output position's window origin, so the hot loop is a branchless
//!   load → tap term → accumulate with no index arithmetic;
//! * the output map splits by *where the receptive field lands*: the
//!   **interior** — positions whose full `k × k` window is inside the
//!   input, so no tap can be clipped by padding and the inner loop needs
//!   no bounds checks — and the thin **border** frame that keeps the
//!   checked path. The split depends only on the geometry, not on the
//!   tap pattern (a conservative rectangle: a border position may still
//!   have every tap in bounds);
//! * op accounting is hoisted out of the loops: interior counts are
//!   analytic (`taps × positions`), border counts come from a one-time
//!   per-geometry dry run, and the datapath's [`TapOp::tally`] convention
//!   prices both, so [`OpCounts`] stays bit-identical to the interpreted
//!   reference cores;
//! * the i32 no-wrap lane bound is computed once, from the datapath's
//!   per-tap [`TapOp::lane_weight`], and [`Lowered::lane_path`] is the
//!   single place that decides whether a call may take the SIMD lanes.
//!
//! Fixed-point weights lower to the same per-filter bounds/offsets/codes
//! layout as shift taps, keeping every dense tap (zeros included) so
//! their op counts are unchanged.

use std::fmt::Debug;
use std::ops::Range;
use std::sync::{Arc, Mutex};

#[cfg(target_arch = "x86_64")]
use core::arch::x86_64::__m256i;

use flight_tensor::{Conv2dGeometry, Tensor};

use crate::counts::OpCounts;
use crate::qact::QuantActivations;
use crate::simd::{pack_lane_block, run_rect, BlockGeom, KernelPath, LaneCtx, LANES};

/// One integer conv datapath: the per-tap arithmetic that differs
/// between shift-add and fixed-point, plus the compiled kernel's shape.
/// Implemented by `ShiftKernel` and `FixedWeights`; every loop over taps
/// is monomorphized per implementation.
pub(crate) trait TapOp: Sized {
    /// One tap's operand: packed shift/sign (`u32`) or weight (`i32`).
    type Code: Copy + Debug + Send + Sync;

    /// The tap's term in the scalar path's `i64` accumulator.
    fn term(a: i64, code: Self::Code) -> i64;

    /// The tap's term in one `i32` lane of the portable lane path.
    fn lane_term(a: i32, code: Self::Code) -> i32;

    /// The tap's term across eight `i32` lanes.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2.
    #[cfg(target_arch = "x86_64")]
    unsafe fn avx2_term(v: __m256i, code: Self::Code) -> __m256i;

    /// The tap's worst-case magnitude multiplier in the lane bound
    /// (`|term| ≤ |a| · lane_weight`), or `None` if the tap may never
    /// run in `i32` lanes.
    fn lane_weight(code: Self::Code) -> Option<u64>;

    /// What one filter costs at one output position where `t` taps
    /// executed (see [`OpCounts`] for both conventions).
    fn tally(t: u64) -> OpCounts;

    /// `(filters, in_channels, kernel side)`.
    fn shape(&self) -> (usize, usize, usize);

    /// Scale restoring real weight magnitudes; each image's output
    /// scale is its activation scale times this.
    fn weight_scale(&self) -> f32;

    /// Filter `fi`'s taps as `(index into the [c, k, k] filter volume,
    /// code)`, in ascending index order.
    fn filter_taps(&self, fi: usize) -> impl Iterator<Item = (usize, Self::Code)> + '_;

    /// The kernel's geometry-keyed program cache.
    fn cache(&self) -> &LoweredCache<Self>;

    /// The lowered program for `geom`, building and caching it on first
    /// use. Clones share the cache, so threads sharing a `CompiledNet`
    /// lower each layer geometry exactly once.
    fn lowered(&self, geom: &Conv2dGeometry) -> Arc<Lowered<Self>> {
        let mut cache = self.cache().lock().expect("lowering cache poisoned");
        if let Some((_, program)) = cache.iter().find(|(g, _)| g == geom) {
            return program.clone();
        }
        let program = Arc::new(Lowered::build(self, geom));
        cache.push((*geom, program.clone()));
        program
    }
}

/// Geometry-keyed cache of lowered programs. Networks see one geometry
/// per layer, so the list stays tiny; linear lookup beats hashing.
pub(crate) type LoweredCache<K> = Arc<Mutex<Vec<(Conv2dGeometry, Arc<Lowered<K>>)>>>;

/// How a kernel decomposes one output geometry — surfaced to telemetry
/// (`kernel.lowering.*` gauges) and the lowering bench exhibit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoweringStats {
    /// Output positions on the branchless interior path.
    pub interior_positions: usize,
    /// Output positions on the checked border path.
    pub border_positions: usize,
    /// Total taps across all filters (shift taps, or the dense
    /// `f · c · k · k` fixed-point taps).
    pub total_taps: usize,
    /// Number of filters.
    pub filters: usize,
}

impl LoweringStats {
    /// Mean taps per filter (`0.0` for an empty kernel).
    pub fn mean_taps_per_filter(&self) -> f64 {
        if self.filters == 0 {
            0.0
        } else {
            self.total_taps as f64 / self.filters as f64
        }
    }
}

/// One tap on the checked border path: channel plane base plus the tap's
/// kernel-window deltas (the position loop folds padding into its window
/// origin).
#[derive(Debug, Clone, Copy)]
struct BorderTap {
    /// `ch · h · w` — flat base of the tap's input channel plane.
    plane: u32,
    /// Kernel row `ki`.
    di: i32,
    /// Kernel column `kj`.
    dj: i32,
}

/// A kernel lowered against one concrete [`Conv2dGeometry`]: per-tap
/// interior offsets and border decodings, the op totals hoisted out of
/// the runtime loops, and the lane bound.
#[derive(Debug)]
pub(crate) struct Lowered<K: TapOp> {
    rect: InteriorRect,
    /// Filter `f`'s taps are `bounds[f] as usize..bounds[f + 1] as usize`.
    bounds: Vec<u32>,
    /// Per tap: flat input offset relative to the output position's
    /// window origin (`ch·h·w + ki·w + kj`).
    offsets: Vec<u32>,
    /// Per tap: the datapath's code (parallel to `offsets`).
    codes: Vec<K::Code>,
    /// Per tap: checked-path decoding (parallel to `offsets`).
    border: Vec<BorderTap>,
    /// Ops one image costs (interior analytic + border dry run).
    per_image: OpCounts,
    border_positions: usize,
    /// Worst-case per-filter magnitude multiplier `max_f Σ_taps
    /// lane_weight`: an interior accumulator is bounded by
    /// `max |code| · lane_weight`, which must fit i32 for the lane path
    /// to match the scalar i64 accumulation bit-for-bit (every partial
    /// term is bounded by it too). `None` when a tap refuses lanes.
    lane_weight: Option<u64>,
}

impl<K: TapOp> Lowered<K> {
    fn build(kernel: &K, geom: &Conv2dGeometry) -> Self {
        let (h, w, k) = (geom.in_h, geom.in_w, geom.kernel);
        assert!(
            geom.in_channels * h * w <= u32::MAX as usize,
            "input volume too large for lowered offsets"
        );
        let rect = interior_rect(geom);
        let (filters, _, _) = kernel.shape();

        let mut bounds = vec![0u32];
        let (mut offsets, mut codes, mut border) = (Vec::new(), Vec::new(), Vec::new());
        for fi in 0..filters {
            for (off, code) in kernel.filter_taps(fi) {
                let (ch, ki, kj) = (off / (k * k), (off / k) % k, off % k);
                offsets.push((ch * h * w + ki * w + kj) as u32);
                codes.push(code);
                border.push(BorderTap {
                    plane: (ch * h * w) as u32,
                    di: ki as i32,
                    dj: kj as i32,
                });
            }
            bounds.push(offsets.len() as u32);
        }
        let taps = |fi: usize| bounds[fi] as usize..bounds[fi + 1] as usize;

        // Interior accounting is analytic (every tap executes at every
        // interior position); the lane bound is the worst filter's sum.
        let mut per_image = OpCounts::default();
        let mut lane_weight = Some(0u64);
        for fi in 0..filters {
            per_image += K::tally(taps(fi).len() as u64).times(rect.positions() as u64);
            let filter_weight = codes[taps(fi)].iter().try_fold(0u64, |sum, &code| {
                Some(sum.saturating_add(K::lane_weight(code)?))
            });
            lane_weight = lane_weight.zip(filter_weight).map(|(a, b)| a.max(b));
        }

        // Border accounting is a one-time dry run of the checked path.
        let mut border_positions = 0usize;
        for_each_border_position(geom, &rect, |oi, oj| {
            border_positions += 1;
            let (ii0, jj0) = window_origin(geom, oi, oj);
            for fi in 0..filters {
                let executed = border[taps(fi)]
                    .iter()
                    .filter(|bt| in_bounds(geom, ii0 + bt.di, jj0 + bt.dj))
                    .count();
                per_image += K::tally(executed as u64);
            }
        });

        Lowered {
            rect,
            bounds,
            offsets,
            codes,
            border,
            per_image,
            border_positions,
            lane_weight,
        }
    }

    fn filter(&self, fi: usize) -> Range<usize> {
        self.bounds[fi] as usize..self.bounds[fi + 1] as usize
    }

    /// The interior/border decomposition of this program.
    pub(crate) fn stats(&self) -> LoweringStats {
        LoweringStats {
            interior_positions: self.rect.positions(),
            border_positions: self.border_positions,
            total_taps: self.offsets.len(),
            filters: self.bounds.len() - 1,
        }
    }

    /// The path this call actually runs: the requested lane path only
    /// when the batch fills at least one lane block, the interior is
    /// nonempty, and i32 lane accumulation provably cannot wrap (see
    /// the `lane_weight` field docs); [`KernelPath::Scalar`] otherwise.
    pub(crate) fn lane_path(&self, requested: KernelPath, codes: &[i32], n: usize) -> KernelPath {
        let Some(lane_weight) = self.lane_weight else {
            return KernelPath::Scalar;
        };
        if requested == KernelPath::Scalar || n < LANES || self.rect.positions() == 0 {
            return KernelPath::Scalar;
        }
        let max_abs = codes
            .iter()
            .map(|c| c.unsigned_abs() as u64)
            .max()
            .unwrap_or(0);
        if max_abs.saturating_mul(lane_weight) > i32::MAX as u64 {
            return KernelPath::Scalar;
        }
        requested
    }

    /// Executes the program: lane-blocked SIMD interior where eligible
    /// (full blocks of [`LANES`] images), scalar interior otherwise,
    /// checked scalar border always. Writes outputs only — op accounting
    /// lives in the precomputed per-image totals, which are
    /// dispatch-invariant.
    fn run(
        &self,
        weight_scale: f32,
        codes_in: &[i32],
        scales: &[f32],
        geom: &Conv2dGeometry,
        out: &mut [f32],
        lanes: &mut LaneCtx,
    ) {
        let n = scales.len();
        let path = self.lane_path(lanes.path(), codes_in, n);
        let lane_images = if path == KernelPath::Scalar {
            0
        } else {
            n - n % LANES
        };

        if lane_images > 0 {
            let chw = geom.in_channels * geom.in_h * geom.in_w;
            let f = self.bounds.len() - 1;
            let img_stride = f * geom.out_h * geom.out_w;
            let g = BlockGeom {
                rect: self.rect,
                stride: geom.stride,
                padding: geom.padding,
                in_w: geom.in_w,
                out_w: geom.out_w,
            };
            for b0 in (0..lane_images).step_by(LANES) {
                pack_lane_block(
                    &codes_in[b0 * chw..(b0 + LANES) * chw],
                    chw,
                    &mut lanes.block,
                );
                let mut out_scales = [0f32; LANES];
                for (l, slot) in out_scales.iter_mut().enumerate() {
                    *slot = scales[b0 + l] * weight_scale;
                }
                for fi in 0..f {
                    run_rect::<K>(
                        path,
                        &lanes.block,
                        &self.offsets[self.filter(fi)],
                        &self.codes[self.filter(fi)],
                        &g,
                        out,
                        (b0 * f + fi) * geom.out_h * geom.out_w,
                        img_stride,
                        &out_scales,
                    );
                }
            }
            // The border ring of the lane-covered images stays scalar.
            self.run_scalar(
                weight_scale,
                codes_in,
                scales,
                geom,
                out,
                0..lane_images,
                false,
            );
        }

        // Remnant images (or the whole batch when the lane path is off)
        // run the per-image scalar path, so any batch size produces the
        // same bits as solo inference.
        self.run_scalar(
            weight_scale,
            codes_in,
            scales,
            geom,
            out,
            lane_images..n,
            true,
        );
    }

    /// The per-image scalar path over a range of images: i64-accumulated
    /// interior (when `include_interior`) plus the checked border.
    #[allow(clippy::too_many_arguments)]
    fn run_scalar(
        &self,
        weight_scale: f32,
        codes_in: &[i32],
        scales: &[f32],
        geom: &Conv2dGeometry,
        out: &mut [f32],
        images: Range<usize>,
        include_interior: bool,
    ) {
        let chw = geom.in_channels * geom.in_h * geom.in_w;
        let (w, stride, padding) = (geom.in_w, geom.stride, geom.padding);
        let f = self.bounds.len() - 1;
        let (out_h, out_w) = (geom.out_h, geom.out_w);
        let rect = self.rect;

        for b in images {
            let out_scale = scales[b] * weight_scale;
            let img = &codes_in[b * chw..(b + 1) * chw];
            for fi in 0..f {
                let offs = &self.offsets[self.filter(fi)];
                let tap_codes = &self.codes[self.filter(fi)];

                // Interior: no padding branch, no index decode, no
                // per-tap accounting — load, tap term, add. Skipped when
                // a lane block already wrote these bits.
                if include_interior {
                    for oi in rect.oi_lo..rect.oi_hi {
                        let out_row = ((b * f + fi) * out_h + oi) * out_w;
                        let in_row = (oi * stride - padding) * w;
                        for oj in rect.oj_lo..rect.oj_hi {
                            let base = in_row + oj * stride - padding;
                            let mut acc: i64 = 0;
                            for (&o, &cd) in offs.iter().zip(tap_codes) {
                                acc += K::term(img[base + o as usize] as i64, cd);
                            }
                            out[out_row + oj] = acc as f32 * out_scale;
                        }
                    }
                }

                // Border: the checked path, on the thin frame only.
                let border_taps = &self.border[self.filter(fi)];
                for_each_border_position(geom, &rect, |oi, oj| {
                    let (ii0, jj0) = window_origin(geom, oi, oj);
                    let mut acc: i64 = 0;
                    for (bt, &cd) in border_taps.iter().zip(tap_codes) {
                        let (ii, jj) = (ii0 + bt.di, jj0 + bt.dj);
                        if in_bounds(geom, ii, jj) {
                            let a = img[bt.plane as usize + ii as usize * w + jj as usize];
                            acc += K::term(a as i64, cd);
                        }
                    }
                    out[((b * f + fi) * out_h + oi) * out_w + oj] = acc as f32 * out_scale;
                });
            }
        }
    }
}

/// The input coordinates of output position `(oi, oj)`'s window origin
/// (negative inside the padding).
fn window_origin(geom: &Conv2dGeometry, oi: usize, oj: usize) -> (i32, i32) {
    let p = geom.padding as i32;
    ((oi * geom.stride) as i32 - p, (oj * geom.stride) as i32 - p)
}

/// Whether input coordinate `(ii, jj)` lies inside the (unpadded) input.
fn in_bounds(geom: &Conv2dGeometry, ii: i32, jj: i32) -> bool {
    (0..geom.in_h as i32).contains(&ii) && (0..geom.in_w as i32).contains(&jj)
}

/// Validates the layout contract shared by the lowered and reference
/// cores of both datapaths.
pub(crate) fn check_core_shapes<K: TapOp>(
    codes: &[i32],
    scales: &[f32],
    geom: &Conv2dGeometry,
    kernel: &K,
    out: &[f32],
) {
    let n = scales.len();
    let (f, kc, k) = kernel.shape();
    let (c, h, w) = (geom.in_channels, geom.in_h, geom.in_w);
    assert_eq!(c, kc, "activation channels {c} != kernel channels {kc}");
    assert_eq!(geom.kernel, k, "geometry/kernel size mismatch");
    assert_eq!(codes.len(), n * c * h * w, "codes length mismatch");
    assert_eq!(
        out.len(),
        n * f * geom.out_positions(),
        "output length mismatch"
    );
}

/// Integer convolution over raw codes with one scale per image — the
/// lowered core of both datapaths, and the engine's per-worker scratch
/// entry point.
///
/// `scales.len()` is the batch size `n`; image `b`'s codes occupy
/// `codes[b·chw .. (b+1)·chw]` and its outputs are rescaled by
/// `scales[b] · kernel.weight_scale()`. Results are written into `out`
/// (length `n · filters · out_positions`, row-major `[n, f, oh, ow]`)
/// and op counts accumulate into `counts`.
///
/// Per-image scales are what make each image's pipeline independent of
/// its batchmates — the invariant bit-exact batch-split invariance
/// rests on.
pub(crate) fn conv_core<K: TapOp>(
    codes: &[i32],
    scales: &[f32],
    geom: &Conv2dGeometry,
    kernel: &K,
    out: &mut [f32],
    counts: &mut OpCounts,
    lanes: &mut LaneCtx,
) {
    check_core_shapes(codes, scales, geom, kernel, out);
    let lowered = kernel.lowered(geom);
    lowered.run(kernel.weight_scale(), codes, scales, geom, out, lanes);
    *counts += lowered.per_image.times(scales.len() as u64);
}

/// A conv core: [`conv_core`] or a datapath's interpreted reference.
pub(crate) type Core<K> =
    fn(&[i32], &[f32], &Conv2dGeometry, &K, &mut [f32], &mut OpCounts, &mut LaneCtx);

/// Runs `core` over one tensor of activations sharing a single scale —
/// the body of the public `shift_add_conv*` / `fixed_point_conv*`
/// functions.
pub(crate) fn conv_with<K: TapOp>(
    act: &QuantActivations,
    kernel: &K,
    stride: usize,
    padding: usize,
    core: Core<K>,
    mut lanes: LaneCtx,
) -> (Tensor, OpCounts) {
    let ad = act.dims();
    assert_eq!(ad.len(), 4, "activations must be [n, c, h, w]");
    let (n, c, h, w) = (ad[0], ad[1], ad[2], ad[3]);
    let (filters, _, k) = kernel.shape();
    let geom = Conv2dGeometry::new(c, h, w, k, stride, padding);
    let mut out = Tensor::zeros(&[n, filters, geom.out_h, geom.out_w]);
    let scales = vec![act.scale(); n];
    let mut counts = OpCounts::default();
    core(
        act.codes(),
        &scales,
        &geom,
        kernel,
        out.as_mut_slice(),
        &mut counts,
        &mut lanes,
    );
    (out, counts)
}

/// The half-open interior rectangle `[oi_lo, oi_hi) × [oj_lo, oj_hi)` of
/// output positions whose entire kernel window lies inside the input.
/// Empty rectangles are normalized to `hi == lo`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct InteriorRect {
    pub oi_lo: usize,
    pub oi_hi: usize,
    pub oj_lo: usize,
    pub oj_hi: usize,
}

impl InteriorRect {
    /// Number of interior output positions.
    pub fn positions(&self) -> usize {
        (self.oi_hi - self.oi_lo) * (self.oj_hi - self.oj_lo)
    }

    /// Whether `(oi, oj)` lies in the interior.
    #[cfg(test)]
    pub fn contains(&self, oi: usize, oj: usize) -> bool {
        (self.oi_lo..self.oi_hi).contains(&oi) && (self.oj_lo..self.oj_hi).contains(&oj)
    }
}

/// One axis of the interior: the output coordinates `o` with
/// `0 <= o·stride − padding` and `o·stride + k − 1 − padding < dim`.
fn interior_axis(
    dim: usize,
    k: usize,
    stride: usize,
    padding: usize,
    out: usize,
) -> (usize, usize) {
    let lo = padding.div_ceil(stride).min(out);
    let hi = if dim + padding >= k {
        ((dim + padding - k) / stride + 1).min(out)
    } else {
        0
    };
    (lo, hi.max(lo))
}

/// Computes the interior rectangle of `geom`.
pub(crate) fn interior_rect(geom: &Conv2dGeometry) -> InteriorRect {
    let (oi_lo, oi_hi) = interior_axis(
        geom.in_h,
        geom.kernel,
        geom.stride,
        geom.padding,
        geom.out_h,
    );
    let (oj_lo, oj_hi) = interior_axis(
        geom.in_w,
        geom.kernel,
        geom.stride,
        geom.padding,
        geom.out_w,
    );
    InteriorRect {
        oi_lo,
        oi_hi,
        oj_lo,
        oj_hi,
    }
}

/// Visits every output position *outside* `rect` exactly once, row-major:
/// the full rows above and below the interior band, plus the left/right
/// column strips of the interior rows.
///
/// Kept out of line: inlined into a scalar runner, the border closure's
/// live values crowd the interior tap loop beside it into spilling
/// (about 13 % slower per image on network 1).
#[inline(never)]
pub(crate) fn for_each_border_position(
    geom: &Conv2dGeometry,
    rect: &InteriorRect,
    mut visit: impl FnMut(usize, usize),
) {
    for oi in 0..geom.out_h {
        if (rect.oi_lo..rect.oi_hi).contains(&oi) {
            for oj in 0..rect.oj_lo {
                visit(oi, oj);
            }
            for oj in rect.oj_hi..geom.out_w {
                visit(oi, oj);
            }
        } else {
            for oj in 0..geom.out_w {
                visit(oi, oj);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geoms() -> Vec<Conv2dGeometry> {
        let mut out = Vec::new();
        for k in [1usize, 3, 5] {
            for stride in [1usize, 2] {
                for padding in [0usize, 1, 2] {
                    for (h, w) in [(5usize, 7usize), (7, 5), (9, 9), (6, 11)] {
                        if h + 2 * padding >= k && w + 2 * padding >= k {
                            out.push(Conv2dGeometry::new(2, h, w, k, stride, padding));
                        }
                    }
                }
            }
        }
        out
    }

    /// Brute-force interior definition: every (ki, kj) tap in bounds.
    fn is_interior(geom: &Conv2dGeometry, oi: usize, oj: usize) -> bool {
        let k = geom.kernel;
        (0..k).all(|ki| {
            let ii = (oi * geom.stride + ki) as isize - geom.padding as isize;
            ii >= 0 && (ii as usize) < geom.in_h
        }) && (0..k).all(|kj| {
            let jj = (oj * geom.stride + kj) as isize - geom.padding as isize;
            jj >= 0 && (jj as usize) < geom.in_w
        })
    }

    #[test]
    fn rect_matches_bruteforce_interior() {
        for geom in geoms() {
            let rect = interior_rect(&geom);
            for oi in 0..geom.out_h {
                for oj in 0..geom.out_w {
                    assert_eq!(
                        rect.contains(oi, oj),
                        is_interior(&geom, oi, oj),
                        "geom {geom:?} position ({oi},{oj})"
                    );
                }
            }
        }
    }

    #[test]
    fn border_iteration_is_the_exact_complement() {
        for geom in geoms() {
            let rect = interior_rect(&geom);
            let mut seen = vec![false; geom.out_positions()];
            let mut border = 0usize;
            for_each_border_position(&geom, &rect, |oi, oj| {
                let idx = oi * geom.out_w + oj;
                assert!(!seen[idx], "border position ({oi},{oj}) visited twice");
                assert!(!rect.contains(oi, oj), "interior leaked into the border");
                seen[idx] = true;
                border += 1;
            });
            assert_eq!(
                border + rect.positions(),
                geom.out_positions(),
                "geom {geom:?}: split must partition the output"
            );
        }
    }

    #[test]
    fn zero_padding_stride_one_is_all_interior() {
        let geom = Conv2dGeometry::new(3, 8, 8, 3, 1, 0);
        let rect = interior_rect(&geom);
        assert_eq!(rect.positions(), geom.out_positions());
    }

    #[test]
    fn tiny_input_is_all_border() {
        // 3x3 input, 5x5 kernel, padding 1: no position has the full
        // window inside.
        let geom = Conv2dGeometry::new(1, 3, 3, 5, 1, 1);
        let rect = interior_rect(&geom);
        assert_eq!(rect.positions(), 0);
        let mut border = 0;
        for_each_border_position(&geom, &rect, |_, _| border += 1);
        assert_eq!(border, geom.out_positions());
    }
}
