//! Batch-major SIMD lanes for the lowered tap programs.
//!
//! The lowered program (`lower.rs`) runs its interior loop branchless
//! but scalar: one tap term per tap per output position per image. This
//! module vectorizes it **batch-major**: a lane holds the *same spatial
//! position across [`LANES`] images*, so the tap program — offsets and
//! codes — is identical for every element of the lane and broadcasts
//! across it with no per-lane control flow. There is one rect loop per
//! implementation (portable and AVX2), generic over the datapath's
//! `TapOp`: the shift path supplies a broadcast shift plus branchless
//! sign fold, the fixed path an `_mm256_mullo_epi32`, each
//! monomorphized into the loop.
//!
//! That requires a layout change. Activations arrive as per-image
//! planes (`codes[b · chw ..]`, NCHW); the lane kernels read a
//! **batch-blocked, lane-major arena** instead, packed per block of
//! [`LANES`] consecutive images:
//!
//! ```text
//! block[off · LANES + l] == codes[(b0 + l) · chw + off]
//! ```
//!
//! i.e. the flat `(c, h, w)` offset keeps its meaning and the lane
//! index becomes the innermost (unit-stride) dimension, so every tap
//! load is one contiguous 8 × i32 vector. The arena lives in a
//! [`LaneCtx`] owned by the engine's per-worker scratch, and the
//! pack/unpack shims sit at the conv stage boundary — the border ring,
//! activation quantization, and per-image output scales keep their
//! existing scalar layouts.
//!
//! # Dispatch
//!
//! Three paths share the contract "bit-identical to the interpreted
//! reference":
//!
//! * [`KernelPath::Avx2`] — `core::arch` AVX2 intrinsics, i32×8 lanes;
//! * [`KernelPath::Portable`] — the same lane loops over `[i32; LANES]`
//!   arrays in safe Rust (auto-vectorizes on whatever the target has);
//! * [`KernelPath::Scalar`] — the pre-lane per-image path (also the
//!   border/remnant/overflow fallback inside the lane paths).
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

use crate::lower::{InteriorRect, TapOp};

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

/// Which interior implementation a conv call runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelPath {
    /// AVX2 i32×8 lanes over the batch-blocked arena.
    Avx2,
    /// The same lane loops in portable safe Rust (`[i32; LANES]`).
    Portable,
    /// Per-image scalar loops with i64 accumulation — the pre-SIMD
    /// lowered path, and the fallback for borders, remnant images, and
    /// accumulator-overflow risks.
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

/// Per-worker lane state: the dispatch decision plus the batch-blocked
/// activation arena the lane kernels read. Owned by the engine's
/// scratch (one per worker / [`ExecCtx`](crate::ExecCtx)) so the arena
/// grows to the largest conv stage once and is reused from then on.
#[derive(Debug, Clone)]
pub struct LaneCtx {
    path: KernelPath,
    /// Lane-major blocked codes for the block being processed
    /// (`chw · LANES` elements; see the module docs for the layout).
    pub(crate) block: Vec<i32>,
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

/// Packs [`LANES`] consecutive images' planes into the lane-major
/// blocked layout: `block[off · LANES + l] = codes[l · chw + off]`.
/// `codes` holds exactly the block's images, planar.
pub(crate) fn pack_lane_block(codes: &[i32], chw: usize, block: &mut Vec<i32>) {
    debug_assert_eq!(codes.len(), chw * LANES);
    block.clear();
    block.resize(chw * LANES, 0);
    for off in 0..chw {
        let dst = &mut block[off * LANES..(off + 1) * LANES];
        for (l, slot) in dst.iter_mut().enumerate() {
            *slot = codes[l * chw + off];
        }
    }
}

/// The geometry a lane rect runner needs: the interior rectangle plus
/// the strides that turn an output position into a window origin.
#[derive(Debug, Clone, Copy)]
pub(crate) struct BlockGeom {
    pub rect: InteriorRect,
    pub stride: usize,
    pub padding: usize,
    pub in_w: usize,
    pub out_w: usize,
}

/// Runs one filter's taps over the interior rectangle of one lane
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
    g: &BlockGeom,
    out: &mut [f32],
    filter_base: usize,
    img_stride: usize,
    out_scales: &[f32; LANES],
) {
    match path {
        #[cfg(target_arch = "x86_64")]
        KernelPath::Avx2 => unsafe {
            // Safety: dispatch only selects Avx2 after
            // `is_x86_feature_detected!("avx2")`.
            avx2::rect::<K>(
                block,
                offs,
                codes,
                g,
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
            g,
            out,
            filter_base,
            img_stride,
            out_scales,
        ),
    }
}

/// The portable lane implementation of the interior: identical loop
/// structure to the AVX2 version, over `[i32; LANES]` arrays the
/// compiler is free to auto-vectorize.
#[allow(clippy::too_many_arguments)]
fn rect_portable<K: TapOp>(
    block: &[i32],
    offs: &[u32],
    codes: &[K::Code],
    g: &BlockGeom,
    out: &mut [f32],
    filter_base: usize,
    img_stride: usize,
    out_scales: &[f32; LANES],
) {
    for oi in g.rect.oi_lo..g.rect.oi_hi {
        let in_row = (oi * g.stride - g.padding) * g.in_w;
        let out_row = filter_base + oi * g.out_w;
        for oj in g.rect.oj_lo..g.rect.oj_hi {
            let base = in_row + oj * g.stride - g.padding;
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

    use super::{BlockGeom, LANES};
    use crate::lower::TapOp;

    /// One filter's taps over the interior rect, i32×8.
    ///
    /// # Safety
    ///
    /// Caller must have verified AVX2 support.
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2")]
    pub(crate) unsafe fn rect<K: TapOp>(
        block: &[i32],
        offs: &[u32],
        codes: &[K::Code],
        g: &BlockGeom,
        out: &mut [f32],
        filter_base: usize,
        img_stride: usize,
        out_scales: &[f32; LANES],
    ) {
        let src = block.as_ptr();
        for oi in g.rect.oi_lo..g.rect.oi_hi {
            let in_row = (oi * g.stride - g.padding) * g.in_w;
            let out_row = filter_base + oi * g.out_w;
            for oj in g.rect.oj_lo..g.rect.oj_hi {
                let base = in_row + oj * g.stride - g.padding;
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
        // 2 "pixels" per image: block must interleave images.
        let chw = 2;
        let codes: Vec<i32> = (0..(LANES * chw) as i32).collect();
        let mut block = Vec::new();
        pack_lane_block(&codes, chw, &mut block);
        for off in 0..chw {
            for l in 0..LANES {
                assert_eq!(
                    block[off * LANES + l],
                    codes[l * chw + off],
                    "off {off} lane {l}"
                );
            }
        }
    }

    #[test]
    fn path_names_round_trip_through_display() {
        for path in [KernelPath::Avx2, KernelPath::Portable, KernelPath::Scalar] {
            assert_eq!(path.to_string(), path.name());
        }
    }
}
