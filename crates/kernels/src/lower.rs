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
//! * every tap gets a precomputed flat offset into the **zero-padded**
//!   input ([`PaddedLayout`]) relative to the output position's window
//!   origin. Every window is then in bounds, so one branchless loop —
//!   load → tap term → accumulate, no index arithmetic — covers the
//!   whole output map; padding taps add zero on both datapaths;
//! * op accounting is hoisted out of the loops: padding taps must not
//!   be counted, and [`image_tally`] prices the in-bounds taps in closed
//!   form with the datapath's [`TapOp::tally`] convention, so
//!   [`OpCounts`] stays bit-identical to the interpreted reference
//!   cores;
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
use crate::simd::{pack_lane_block, pad_image, run_rect, KernelPath, LaneCtx, PaddedLayout, LANES};

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

    /// What one filter costs at one output position where `t` taps land
    /// in bounds (see [`OpCounts`] for both conventions).
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

/// The shape of a lowered tap program — surfaced to telemetry
/// (`kernel.lowering.*` gauges) and the lowering bench exhibit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoweringStats {
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

/// A kernel lowered against one concrete [`Conv2dGeometry`]: per-tap
/// offsets into the zero-padded input, the op totals hoisted out of the
/// runtime loops, and the lane bound.
#[derive(Debug)]
pub(crate) struct Lowered<K: TapOp> {
    /// Filter `f`'s taps are `bounds[f] as usize..bounds[f + 1] as usize`.
    bounds: Vec<u32>,
    /// Per tap: flat offset into the zero-padded input relative to the
    /// output position's window origin (`ch·ph·pw + ki·pw + kj`, see
    /// [`PaddedLayout`]).
    offsets: Vec<u32>,
    /// Per tap: the datapath's code (parallel to `offsets`).
    codes: Vec<K::Code>,
    /// Ops one image costs ([`image_tally`]).
    per_image: OpCounts,
    /// Worst-case per-filter magnitude multiplier `max_f Σ_taps
    /// lane_weight`: an accumulator is bounded by `max |code| ·
    /// lane_weight` (padding codes are zero), which must fit i32 for the
    /// lane path to match the scalar i64 accumulation bit-for-bit (every
    /// partial term is bounded by it too). `None` when a tap refuses
    /// lanes.
    lane_weight: Option<u64>,
}

impl<K: TapOp> Lowered<K> {
    fn build(kernel: &K, geom: &Conv2dGeometry) -> Self {
        let layout = PaddedLayout { geom: *geom };
        assert!(
            layout.volume() <= u32::MAX as usize,
            "padded input volume too large for lowered offsets"
        );
        let k = geom.kernel;
        let (filters, _, _) = kernel.shape();

        let mut bounds = vec![0u32];
        let (mut offsets, mut codes, mut kernel_ij) = (Vec::new(), Vec::new(), Vec::new());
        for fi in 0..filters {
            for (off, code) in kernel.filter_taps(fi) {
                let (ch, ki, kj) = (off / (k * k), (off / k) % k, off % k);
                offsets.push(layout.offset(ch, ki, kj) as u32);
                codes.push(code);
                kernel_ij.push((ki, kj));
            }
            bounds.push(offsets.len() as u32);
        }
        // The lane bound is the worst filter's sum.
        let mut lane_weight = Some(0u64);
        for taps in bounds.windows(2) {
            let filter_codes = &codes[taps[0] as usize..taps[1] as usize];
            let filter_weight = filter_codes.iter().try_fold(0u64, |sum, &code| {
                Some(sum.saturating_add(K::lane_weight(code)?))
            });
            lane_weight = lane_weight.zip(filter_weight).map(|(a, b)| a.max(b));
        }

        Lowered {
            per_image: image_tally::<K>(geom, &bounds, &kernel_ij),
            bounds,
            offsets,
            codes,
            lane_weight,
        }
    }

    fn filter(&self, fi: usize) -> Range<usize> {
        self.bounds[fi] as usize..self.bounds[fi + 1] as usize
    }

    /// The shape of this program.
    pub(crate) fn stats(&self) -> LoweringStats {
        LoweringStats {
            total_taps: self.offsets.len(),
            filters: self.bounds.len() - 1,
        }
    }

    /// The path this call actually runs: the requested lane path only
    /// when the batch fills at least one lane block and i32 lane
    /// accumulation provably cannot wrap (see the `lane_weight` field
    /// docs); [`KernelPath::Scalar`] otherwise.
    pub(crate) fn lane_path(&self, requested: KernelPath, codes: &[i32], n: usize) -> KernelPath {
        let Some(lane_weight) = self.lane_weight else {
            return KernelPath::Scalar;
        };
        if requested == KernelPath::Scalar || n < LANES {
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

    /// Executes the program over every output position: SIMD lanes over
    /// the padded arena for full blocks of [`LANES`] images where
    /// eligible, the scalar path over each remaining image's padded
    /// plane otherwise. Writes outputs only — op accounting lives in the
    /// precomputed per-image totals, which are dispatch-invariant.
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
        let layout = PaddedLayout { geom: *geom };
        let chw = geom.in_channels * geom.in_h * geom.in_w;
        let f = self.bounds.len() - 1;
        let positions = geom.out_positions();

        for b0 in (0..lane_images).step_by(LANES) {
            pack_lane_block(
                &codes_in[b0 * chw..(b0 + LANES) * chw],
                &layout,
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
                    &layout,
                    out,
                    (b0 * f + fi) * positions,
                    f * positions,
                    &out_scales,
                );
            }
        }

        // Remnant images (or the whole batch when the lane path is off)
        // run the per-image scalar path, so any batch size produces the
        // same bits as solo inference.
        for b in lane_images..n {
            pad_image(&codes_in[b * chw..(b + 1) * chw], &layout, &mut lanes.plane);
            let out_scale = scales[b] * weight_scale;
            let out_img = &mut out[b * f * positions..(b + 1) * f * positions];
            self.run_scalar(&lanes.plane, &layout, out_img, out_scale);
        }
    }

    /// The scalar path over one padded image: i64 accumulation, no
    /// padding branch, no index decode, no per-tap accounting — load,
    /// tap term, add.
    fn run_scalar(&self, img: &[i32], layout: &PaddedLayout, out: &mut [f32], out_scale: f32) {
        let g = &layout.geom;
        for (fi, out_filter) in out.chunks_exact_mut(g.out_positions()).enumerate() {
            let offs = &self.offsets[self.filter(fi)];
            let tap_codes = &self.codes[self.filter(fi)];
            for (oi, out_row) in out_filter.chunks_exact_mut(g.out_w).enumerate() {
                for (oj, slot) in out_row.iter_mut().enumerate() {
                    let base = layout.origin(oi, oj);
                    let mut acc: i64 = 0;
                    for (&o, &cd) in offs.iter().zip(tap_codes) {
                        acc += K::term(img[base + o as usize] as i64, cd);
                    }
                    *slot = acc as f32 * out_scale;
                }
            }
        }
    }
}

/// Ops one image costs under the in-bounds-taps convention of
/// [`OpCounts`], in closed form. `kernel_ij[t]` is tap `t`'s kernel
/// position `(ki, kj)` and filter `f` owns taps `bounds[f]..bounds[f+1]`.
///
/// Padding taps run on zeros but are not counted. Which taps of a filter
/// land in bounds depends only on the output position's in-bounds kernel
/// rows and columns, so output rows group into a few classes (the
/// interior band, plus one per edge row) and columns likewise; each
/// filter costs `K::tally(t)` once per (row class, column class) pair,
/// times the pair's multiplicity. `O(classes² · taps)`.
fn image_tally<K: TapOp>(
    geom: &Conv2dGeometry,
    bounds: &[u32],
    kernel_ij: &[(usize, usize)],
) -> OpCounts {
    let rows = window_classes(geom, geom.in_h, geom.out_h);
    let cols = window_classes(geom, geom.in_w, geom.out_w);
    let mut total = OpCounts::default();
    for filter in bounds.windows(2) {
        let taps = &kernel_ij[filter[0] as usize..filter[1] as usize];
        for (ki_range, row_count) in &rows {
            for (kj_range, col_count) in &cols {
                let t = taps
                    .iter()
                    .filter(|(ki, kj)| ki_range.contains(ki) && kj_range.contains(kj))
                    .count();
                total += K::tally(t as u64).times(row_count * col_count);
            }
        }
    }
    total
}

/// One axis of [`image_tally`]: the `out` output coordinates grouped by
/// the range of kernel indices that land inside the input's `dim`, as
/// `(kernel range, number of output coordinates)`.
fn window_classes(geom: &Conv2dGeometry, dim: usize, out: usize) -> Vec<(Range<usize>, u64)> {
    let (k, p) = (geom.kernel, geom.padding);
    let mut classes: Vec<(Range<usize>, u64)> = Vec::new();
    for o in 0..out {
        // In padded coordinates the window starts at `o · stride` and
        // the input spans `p..p + dim`.
        let origin = o * geom.stride;
        let lo = p.saturating_sub(origin).min(k);
        let hi = (p + dim).saturating_sub(origin).min(k).max(lo);
        match classes.iter_mut().find(|(range, _)| *range == (lo..hi)) {
            Some((_, count)) => *count += 1,
            None => classes.push((lo..hi, 1)),
        }
    }
    classes
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

/// Runs `core` over one batch of per-image quantized activations — the
/// body of the public `shift_add_conv*` / `fixed_point_conv*` functions.
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
    let mut counts = OpCounts::default();
    core(
        act.codes(),
        act.scales(),
        &geom,
        kernel,
        out.as_mut_slice(),
        &mut counts,
        &mut lanes,
    );
    (out, counts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixed::{fixed_point_conv_reference_core, FixedWeights};
    use crate::shift::{shift_add_conv_reference_core, ShiftKernel};
    use crate::simd::cpu_features;
    use flight_tensor::{uniform, TensorRng};
    use flightnn::convert::shift_plan;
    use flightnn::layers::QuantConv2d;
    use flightnn::QuantScheme;

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

    /// Brute-force in-bounds-taps count: every output position, every
    /// filter, every tap checked against the unpadded input.
    fn per_position_tally<K: TapOp>(
        geom: &Conv2dGeometry,
        filters: &[Vec<(usize, usize)>],
    ) -> OpCounts {
        let (s, p) = (geom.stride, geom.padding);
        let inside = |o: usize, kk: usize, dim: usize| (p..p + dim).contains(&(o * s + kk));
        let mut total = OpCounts::default();
        for oi in 0..geom.out_h {
            for oj in 0..geom.out_w {
                for taps in filters {
                    let t = taps
                        .iter()
                        .filter(|&&(ki, kj)| inside(oi, ki, geom.in_h) && inside(oj, kj, geom.in_w))
                        .count();
                    total += K::tally(t as u64);
                }
            }
        }
        total
    }

    #[test]
    fn closed_form_tally_matches_a_per_position_count() {
        for geom in geoms() {
            let k = geom.kernel;
            let dense: Vec<(usize, usize)> = (0..geom.in_channels)
                .flat_map(|_| (0..k).flat_map(move |ki| (0..k).map(move |kj| (ki, kj))))
                .collect();
            // A dense filter, a lone corner tap (t = 0 wherever that
            // corner lies in the padding), an empty (k_i = 0) filter,
            // and a sparse one.
            let filters = [
                dense,
                vec![(k - 1, 0)],
                vec![],
                vec![(0, k / 2), (k / 2, k / 2), (k - 1, k - 1)],
            ];
            let mut bounds = vec![0u32];
            let mut kernel_ij = Vec::new();
            for taps in &filters {
                kernel_ij.extend_from_slice(taps);
                bounds.push(kernel_ij.len() as u32);
            }
            assert_eq!(
                image_tally::<ShiftKernel>(&geom, &bounds, &kernel_ij),
                per_position_tally::<ShiftKernel>(&geom, &filters),
                "shift tally at {geom:?}"
            );
            assert_eq!(
                image_tally::<FixedWeights>(&geom, &bounds, &kernel_ij),
                per_position_tally::<FixedWeights>(&geom, &filters),
                "fixed tally at {geom:?}"
            );
        }
    }

    /// Runs each `(kernel, geometry, codes)` case in order through one
    /// `LaneCtx` on `path`, over `LANES + 1` images (one lane block plus
    /// a scalar remnant), bitwise against `reference`.
    fn run_through_one_ctx<K: TapOp>(
        path: KernelPath,
        cases: &[(K, Conv2dGeometry, Vec<i32>)],
        reference: Core<K>,
    ) {
        let n = LANES + 1;
        let scales: Vec<f32> = (0..n).map(|b| 0.01 * (b + 1) as f32).collect();
        let mut lanes = LaneCtx::with_path(path);
        for (kernel, geom, codes) in cases {
            assert_eq!(kernel.lowered(geom).lane_path(path, codes, n), path);
            let len = n * kernel.shape().0 * geom.out_positions();
            let (mut out, mut want) = (vec![0f32; len], vec![0f32; len]);
            let (mut counts, mut want_counts) = (OpCounts::default(), OpCounts::default());
            conv_core(
                codes,
                &scales,
                geom,
                kernel,
                &mut out,
                &mut counts,
                &mut lanes,
            );
            let mut scratch = LaneCtx::with_path(KernelPath::Scalar);
            reference(
                codes,
                &scales,
                geom,
                kernel,
                &mut want,
                &mut want_counts,
                &mut scratch,
            );
            assert_eq!(out, want, "{path} logits at {geom:?}");
            assert_eq!(counts, want_counts, "{path} counts at {geom:?}");
        }
    }

    #[test]
    fn one_lane_ctx_rezeroes_its_padding_across_geometries() {
        // An unpadded geometry fills the whole arena and plane with rail
        // codes; the smaller padded one after it reads the same buffers
        // and must see zeros in its padding, not stale codes.
        let large = Conv2dGeometry::new(3, 10, 10, 3, 1, 0);
        let small = Conv2dGeometry::new(2, 5, 4, 3, 1, 2);
        let n = LANES + 1;
        let volume = |g: &Conv2dGeometry| n * g.in_channels * g.in_h * g.in_w;
        let rail: Vec<i32> = (0..volume(&large))
            .map(|i| if i % 2 == 0 { 127 } else { -127 })
            .collect();
        let mixed: Vec<i32> = (0..volume(&small))
            .map(|i| (i * 37 % 255) as i32 - 127)
            .collect();

        let mut rng = TensorRng::seed(31);
        let shift = |rng: &mut TensorRng, c: usize| {
            let mut conv = QuantConv2d::new(rng, &QuantScheme::l2(), c, 3, 3, 1, 0);
            ShiftKernel::compile(&shift_plan(conv.weights_mut()), &[3, c, 3, 3])
        };
        let fixed = |rng: &mut TensorRng, c: usize| {
            FixedWeights::quantize(&uniform(rng, &[3, c, 3, 3], -0.5, 0.5), 4)
        };
        let shift_cases = [
            (shift(&mut rng, 3), large, rail.clone()),
            (shift(&mut rng, 2), small, mixed.clone()),
        ];
        let fixed_cases = [
            (fixed(&mut rng, 3), large, rail),
            (fixed(&mut rng, 2), small, mixed),
        ];

        let mut paths = vec![KernelPath::Scalar, KernelPath::Portable];
        if cpu_features().avx2 {
            paths.push(KernelPath::Avx2);
        }
        for path in paths {
            run_through_one_ctx(path, &shift_cases, shift_add_conv_reference_core);
            run_through_one_ctx(path, &fixed_cases, fixed_point_conv_reference_core);
        }
    }
}
