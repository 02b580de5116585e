//! Batch-major SIMD lanes for the lowered tap programs.
//!
//! The lowered program (`lower.rs`) runs branchless over a zero-padded
//! input but scalar: one tap term per tap per output position per
//! image. This module owns that padded layout ([`PaddedLayout`]) and
//! vectorizes the program **batch-major**: a lane holds the *same
//! spatial position across [`LANES`] images*, so the tap program —
//! offsets and codes — is identical for every element of the lane and
//! broadcasts across it with no per-lane control flow. There is one
//! lane loop per implementation (portable and AVX2), generic over the
//! datapath's `TapOp`: the shift path supplies a broadcast shift plus
//! branchless sign fold, the fixed path an `_mm256_mullo_epi32`, each
//! monomorphized into the loop.
//!
//! Activations arrive as per-image NCHW planes (`codes[b · chw ..]`).
//! The scalar path copies each image once into a zero-padded plane
//! ([`pad_image`]); the lane kernels read a **batch-blocked, lane-major,
//! zero-padded arena**, packed per block of [`LANES`] consecutive
//! images ([`pack_lane_block`]):
//!
//! ```text
//! block[padded_off · LANES + l] == image (b0 + l) at padded_off (0 in the padding)
//! ```
//!
//! i.e. the flat padded `(c, h + 2p, w + 2p)` offset is the one the
//! lowered taps use, and the lane index becomes the innermost
//! (unit-stride) dimension, so every tap load is one contiguous
//! 8 × i32 vector. Both buffers live in a [`LaneCtx`] owned by the
//! engine's per-worker scratch; activation quantization and per-image
//! output scales keep their unpadded layouts.
//!
//! # Dispatch
//!
//! Three paths share the contract "bit-identical to the interpreted
//! reference":
//!
//! * [`KernelPath::Avx2`] — `core::arch` AVX2 intrinsics, i32×8 lanes;
//! * [`KernelPath::Portable`] — the same lane loops over `[i32; LANES]`
//!   arrays in safe Rust (auto-vectorizes on whatever the target has);
//! * [`KernelPath::Scalar`] — the per-image path (also the remnant and
//!   overflow fallback inside the lane paths).
//!
//! [`active_path`] picks once per process: AVX2 when the CPU has it,
//! unless `FLIGHT_FORCE_SCALAR` pins the scalar path; Portable
//! otherwise. Batches smaller than [`LANES`] and the remnant images of
//! non-multiple batches run the scalar path per image, so logits are
//! invariant under batch composition on every path.
//!
//! # Exactness
//!
//! The scalar path accumulates in `i64`; the lanes accumulate in
//! `i32`. They agree bit-for-bit iff the i32 accumulation cannot wrap,
//! which the lowering proves *per call*, in one place for both
//! datapaths (`Lowered::lane_path`): each lowered program records the
//! worst-case per-filter magnitude multiplier — the sum of the
//! datapath's per-tap lane weight, `2^s` for a shift tap (taps shifting
//! by more than `MAX_LANE_SHIFT` refuse lanes outright) and `|w|` for
//! a fixed-point tap — and the runner takes the lane path only when
//! `max |code| · multiplier ≤ i32::MAX`. 8-bit activations with
//! realistic tap programs pass by orders of magnitude; adversarial
//! inputs silently fall back to the scalar path instead of wrapping.

use std::sync::OnceLock;

use flight_tensor::Conv2dGeometry;

use crate::lower::TapOp;

/// Images per SIMD lane block (i32×8 — one AVX2 register).
pub const LANES: usize = 8;

/// Largest packed shift amount the lane paths accept. Anything bigger
/// would overflow i32 for every nonzero code anyway; the cap also keeps
/// `<<` defined for all-zero planes.
pub(crate) const MAX_LANE_SHIFT: u32 = 30;

/// Environment variable that pins the portable scalar path when set to
/// anything but `0`/empty — the escape hatch for cross-machine perf
/// diffs and for ruling the vectorizer out of a miscompare.
pub const FORCE_SCALAR_ENV: &str = "FLIGHT_FORCE_SCALAR";

/// Which implementation of the lowered program a conv call runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelPath {
    /// AVX2 i32×8 lanes over the batch-blocked arena.
    Avx2,
    /// The same lane loops in portable safe Rust (`[i32; LANES]`).
    Portable,
    /// Per-image scalar loops with i64 accumulation over the padded
    /// plane — the fallback for remnant images and accumulator-overflow
    /// risks.
    Scalar,
}

impl KernelPath {
    /// Stable label used in telemetry (`kernel.dispatch.<name>`), run
    /// manifests, and `flightctl summarize`.
    pub fn name(&self) -> &'static str {
        match self {
            KernelPath::Avx2 => "avx2",
            KernelPath::Portable => "portable",
            KernelPath::Scalar => "scalar",
        }
    }
}

impl std::fmt::Display for KernelPath {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The SIMD-relevant CPU features of the host, for run-manifest `env`
/// blocks (cross-machine perf diffs need to know what the machine
/// could have dispatched to).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpuFeatures {
    /// AVX2 (the feature the lane kernels dispatch on).
    pub avx2: bool,
    /// FMA (not used by the integer kernels; recorded for context).
    pub fma: bool,
    /// SSE4.2 (baseline-ish; recorded for context).
    pub sse4_2: bool,
}

impl CpuFeatures {
    /// Comma-joined list of detected features (`"avx2,fma,sse4.2"`),
    /// or `"none"`.
    pub fn label(&self) -> String {
        let mut parts = Vec::new();
        if self.avx2 {
            parts.push("avx2");
        }
        if self.fma {
            parts.push("fma");
        }
        if self.sse4_2 {
            parts.push("sse4.2");
        }
        if parts.is_empty() {
            "none".to_string()
        } else {
            parts.join(",")
        }
    }
}

/// Runtime-detected CPU features of this host (all `false` off x86_64).
pub fn cpu_features() -> CpuFeatures {
    #[cfg(target_arch = "x86_64")]
    {
        CpuFeatures {
            avx2: std::arch::is_x86_feature_detected!("avx2"),
            fma: std::arch::is_x86_feature_detected!("fma"),
            sse4_2: std::arch::is_x86_feature_detected!("sse4.2"),
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        CpuFeatures {
            avx2: false,
            fma: false,
            sse4_2: false,
        }
    }
}

/// Whether [`FORCE_SCALAR_ENV`] pins the scalar path (set and not
/// `"0"`).
pub fn force_scalar_env() -> bool {
    force_scalar_value(std::env::var(FORCE_SCALAR_ENV).ok().as_deref())
}

/// The [`FORCE_SCALAR_ENV`] decision for a raw variable value —
/// factored out so tests can pin it without racing on the process
/// environment.
pub fn force_scalar_value(value: Option<&str>) -> bool {
    matches!(value, Some(v) if !v.is_empty() && v != "0")
}

/// One fresh dispatch decision: the environment override, then CPU
/// detection. Prefer [`active_path`], which caches this per process.
pub fn detect_path() -> KernelPath {
    if force_scalar_env() {
        return KernelPath::Scalar;
    }
    if cpu_features().avx2 {
        KernelPath::Avx2
    } else {
        KernelPath::Portable
    }
}

/// The process-wide dispatch decision (detected once, then cached).
pub fn active_path() -> KernelPath {
    static PATH: OnceLock<KernelPath> = OnceLock::new();
    *PATH.get_or_init(detect_path)
}

/// Per-worker lane state: the dispatch decision plus the zero-padded
/// buffers the lowered program reads (the lane arena and one scalar
/// image plane). Owned by the engine's scratch (one per worker /
/// [`ExecCtx`](crate::ExecCtx)) so both grow to the largest conv stage
/// once and are reused from then on.
#[derive(Debug, Clone)]
pub struct LaneCtx {
    path: KernelPath,
    /// Lane-major blocked codes for the block being processed
    /// (padded volume `· LANES` elements; see the module docs).
    pub(crate) block: Vec<i32>,
    /// One image's zero-padded plane, for the scalar path.
    pub(crate) plane: Vec<i32>,
}

impl LaneCtx {
    /// A context on the process-wide [`active_path`].
    pub fn new() -> Self {
        LaneCtx::with_path(active_path())
    }

    /// A context pinned to `path` (tests, benches, and the engine's
    /// `force_scalar` compile option).
    pub fn with_path(path: KernelPath) -> Self {
        LaneCtx {
            path,
            block: Vec::new(),
            plane: Vec::new(),
        }
    }

    /// The dispatch decision this context requests (the lowered runner
    /// may still fall back to [`KernelPath::Scalar`] per call).
    pub fn path(&self) -> KernelPath {
        self.path
    }

    /// Re-pins the dispatch decision.
    pub fn set_path(&mut self, path: KernelPath) {
        self.path = path;
    }
}

impl Default for LaneCtx {
    fn default() -> Self {
        LaneCtx::new()
    }
}

/// The zero-padded input layout every lowered conv reads: each `h × w`
/// channel plane sits at row and column `p` of a `(h + 2p) × (w + 2p)`
/// plane of zeros, so every output position's `k × k` window is in
/// bounds and a tap reads `origin + offset` with no padding branch. The
/// lowered offsets, the lane arena ([`pack_lane_block`]) and the scalar
/// plane ([`pad_image`]) all take their strides from here.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PaddedLayout {
    /// The conv whose input is padded.
    pub geom: Conv2dGeometry,
}

impl PaddedLayout {
    /// Padded row length `w + 2p`.
    fn row(&self) -> usize {
        self.geom.in_w + 2 * self.geom.padding
    }

    /// Padded channel-plane size `(h + 2p)(w + 2p)`.
    fn plane(&self) -> usize {
        (self.geom.in_h + 2 * self.geom.padding) * self.row()
    }

    /// Padded volume `c · (h + 2p)(w + 2p)`.
    pub fn volume(&self) -> usize {
        self.geom.in_channels * self.plane()
    }

    /// Flat offset of padded coordinate `(ch, i, j)`.
    pub fn offset(&self, ch: usize, i: usize, j: usize) -> usize {
        ch * self.plane() + i * self.row() + j
    }

    /// Flat offset of output position `(oi, oj)`'s window origin.
    pub fn origin(&self, oi: usize, oj: usize) -> usize {
        (oi * self.row() + oj) * self.geom.stride
    }

    /// Every input row as `(start in the NCHW image, start in the padded
    /// volume)`; each row is `w` codes long.
    fn rows(self) -> impl Iterator<Item = (usize, usize)> {
        let g = self.geom;
        (0..g.in_channels).flat_map(move |ch| {
            (0..g.in_h).map(move |i| {
                let padded = self.offset(ch, i + g.padding, g.padding);
                ((ch * g.in_h + i) * g.in_w, padded)
            })
        })
    }
}

/// Copies one NCHW image into the zero-padded `plane`, re-zeroing the
/// padding (the buffer is reused across convs of other geometries).
pub(crate) fn pad_image(img: &[i32], layout: &PaddedLayout, plane: &mut Vec<i32>) {
    plane.clear();
    plane.resize(layout.volume(), 0);
    let w = layout.geom.in_w;
    for (src, dst) in layout.rows() {
        plane[dst..dst + w].copy_from_slice(&img[src..src + w]);
    }
}

/// Packs [`LANES`] consecutive NCHW images into the zero-padded,
/// lane-major blocked layout: `block[padded_off · LANES + l]` is image
/// `l`'s code at `padded_off` (zero in the padding, re-zeroed like
/// [`pad_image`]'s). `codes` holds exactly the block's images, planar.
pub(crate) fn pack_lane_block(codes: &[i32], layout: &PaddedLayout, block: &mut Vec<i32>) {
    let g = &layout.geom;
    let chw = g.in_channels * g.in_h * g.in_w;
    debug_assert_eq!(codes.len(), chw * LANES);
    block.clear();
    block.resize(layout.volume() * LANES, 0);
    for (src, dst) in layout.rows() {
        for j in 0..g.in_w {
            let lanes = &mut block[(dst + j) * LANES..(dst + j + 1) * LANES];
            for (l, slot) in lanes.iter_mut().enumerate() {
                *slot = codes[l * chw + src + j];
            }
        }
    }
}

/// Runs one filter's taps over every output position of one lane
/// block, dispatching on `path` ([`KernelPath::Scalar`] is the caller's
/// responsibility and never reaches here). `codes` is parallel to
/// `offs`.
///
/// `filter_base` is the flat output index of `(b0, fi, 0, 0)` and
/// `img_stride` the per-image output stride `f · oh · ow`, so lane `l`
/// of position `(oi, oj)` lands at
/// `filter_base + l · img_stride + oi · out_w + oj`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_rect<K: TapOp>(
    path: KernelPath,
    block: &[i32],
    offs: &[u32],
    codes: &[K::Code],
    layout: &PaddedLayout,
    out: &mut [f32],
    filter_base: usize,
    img_stride: usize,
    out_scales: &[f32; LANES],
) {
    // One release-mode check covers every unchecked AVX2 load: the last
    // window origin plus the largest offset stays inside the arena.
    if let Some(&max_off) = offs.iter().max() {
        let g = &layout.geom;
        let last = layout.origin(g.out_h - 1, g.out_w - 1) + max_off as usize;
        assert!(last < block.len() / LANES, "tap offsets overrun the arena");
    }
    match path {
        // SAFETY: dispatch only selects Avx2 after
        // `is_x86_feature_detected!("avx2")`, and the assert above bounds
        // every load: origins grow with `(oi, oj)`, so the last one plus
        // the largest offset is the furthest lane group read.
        #[cfg(target_arch = "x86_64")]
        KernelPath::Avx2 => unsafe {
            avx2::rect::<K>(
                block,
                offs,
                codes,
                layout,
                out,
                filter_base,
                img_stride,
                out_scales,
            )
        },
        _ => rect_portable::<K>(
            block,
            offs,
            codes,
            layout,
            out,
            filter_base,
            img_stride,
            out_scales,
        ),
    }
}

/// The portable lane implementation: identical loop structure to the
/// AVX2 version, over `[i32; LANES]` arrays the compiler is free to
/// auto-vectorize.
#[allow(clippy::too_many_arguments)]
fn rect_portable<K: TapOp>(
    block: &[i32],
    offs: &[u32],
    codes: &[K::Code],
    layout: &PaddedLayout,
    out: &mut [f32],
    filter_base: usize,
    img_stride: usize,
    out_scales: &[f32; LANES],
) {
    let g = &layout.geom;
    for oi in 0..g.out_h {
        let out_row = filter_base + oi * g.out_w;
        for oj in 0..g.out_w {
            let base = layout.origin(oi, oj);
            let mut acc = [0i32; LANES];
            for (&o, &cd) in offs.iter().zip(codes) {
                let p = (base + o as usize) * LANES;
                let lanes: &[i32; LANES] = block[p..p + LANES].try_into().expect("lane width");
                for l in 0..LANES {
                    acc[l] += K::lane_term(lanes[l], cd);
                }
            }
            for (l, &scale) in out_scales.iter().enumerate() {
                out[out_row + oj + l * img_stride] = acc[l] as f32 * scale;
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    //! The AVX2 lane kernel. It carries
    //! `#[target_feature(enable = "avx2")]` and must only be reached
    //! through the runtime-detected dispatch in the parent module.

    use core::arch::x86_64::*;

    use super::{PaddedLayout, LANES};
    use crate::lower::TapOp;

    /// One filter's taps over every output position, i32×8.
    ///
    /// # Safety
    ///
    /// Caller must have verified AVX2 support and that every window
    /// origin plus offset indexes a lane group inside `block`.
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2")]
    pub(crate) unsafe fn rect<K: TapOp>(
        block: &[i32],
        offs: &[u32],
        codes: &[K::Code],
        layout: &PaddedLayout,
        out: &mut [f32],
        filter_base: usize,
        img_stride: usize,
        out_scales: &[f32; LANES],
    ) {
        let src = block.as_ptr();
        let g = &layout.geom;
        for oi in 0..g.out_h {
            let out_row = filter_base + oi * g.out_w;
            for oj in 0..g.out_w {
                let base = layout.origin(oi, oj);
                let mut acc = _mm256_setzero_si256();
                for (&o, &cd) in offs.iter().zip(codes) {
                    let p = (base + o as usize) * LANES;
                    debug_assert!(p + LANES <= block.len());
                    let v = _mm256_loadu_si256(src.add(p) as *const __m256i);
                    acc = _mm256_add_epi32(acc, K::avx2_term(v, cd));
                }
                let mut lanes = [0i32; LANES];
                _mm256_storeu_si256(lanes.as_mut_ptr() as *mut __m256i, acc);
                for (l, &scale) in out_scales.iter().enumerate() {
                    out[out_row + oj + l * img_stride] = lanes[l] as f32 * scale;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn force_scalar_value_semantics() {
        assert!(!force_scalar_value(None));
        assert!(!force_scalar_value(Some("")));
        assert!(!force_scalar_value(Some("0")));
        assert!(force_scalar_value(Some("1")));
        assert!(force_scalar_value(Some("true")));
    }

    #[test]
    fn detected_path_is_consistent_with_features() {
        // Whatever this host is, the cached decision must agree with a
        // fresh detection and never pick AVX2 without the feature.
        let path = active_path();
        assert_eq!(path, detect_path());
        if path == KernelPath::Avx2 {
            assert!(cpu_features().avx2);
        }
    }

    #[test]
    fn feature_label_is_stable() {
        let all = CpuFeatures {
            avx2: true,
            fma: true,
            sse4_2: true,
        };
        assert_eq!(all.label(), "avx2,fma,sse4.2");
        let none = CpuFeatures {
            avx2: false,
            fma: false,
            sse4_2: false,
        };
        assert_eq!(none.label(), "none");
    }

    #[test]
    fn pack_is_the_lane_major_transpose() {
        // 2 channels of 2×3 codes, padding 1: the block interleaves the
        // images and each lane is that image's zero-padded plane.
        let geom = Conv2dGeometry::new(2, 2, 3, 3, 1, 1);
        let layout = PaddedLayout { geom };
        let chw = 2 * 2 * 3;
        let codes: Vec<i32> = (1..=(LANES * chw) as i32).collect();
        let mut block = Vec::new();
        pack_lane_block(&codes, &layout, &mut block);
        assert_eq!(block.len(), 2 * 4 * 5 * LANES);
        let mut plane = Vec::new();
        for l in 0..LANES {
            pad_image(&codes[l * chw..(l + 1) * chw], &layout, &mut plane);
            let lane: Vec<i32> = block.iter().skip(l).step_by(LANES).copied().collect();
            assert_eq!(lane, plane, "lane {l}");
            for (ch, i, j) in [(0, 0, 0), (1, 1, 2)] {
                assert_eq!(
                    plane[layout.offset(ch, i + 1, j + 1)],
                    codes[l * chw + (ch * 2 + i) * 3 + j]
                );
            }
            assert_eq!(plane.iter().filter(|&&c| c != 0).count(), chw);
        }
    }

    #[test]
    fn path_names_round_trip_through_display() {
        for path in [KernelPath::Avx2, KernelPath::Portable, KernelPath::Scalar] {
            assert_eq!(path.to_string(), path.name());
        }
    }
}
