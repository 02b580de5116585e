//! Host-speed calibration for the CPU-bound workloads.
//!
//! On a shared host the same binary runs up to ~2× slower for seconds
//! at a time while neighbours contend for the core and its caches, which
//! swamps any bound a benchmark could set. Two frozen reference kernels,
//! written here and never touched by program changes, are timed right
//! next to each measured call: an integer shift-add direct convolution
//! (the shape of the inference kernels) and a float im2col + GEMM
//! convolution (the shape of training). A measured duration is reported
//! as if the reference had taken its nominal time:
//!
//! `calibrated = measured × NOMINAL / reference`.
//!
//! Contention slows the measured call and its neighbouring reference
//! alike, so the ratio holds while the raw figures swing; a program
//! change moves the measured call and not the reference beside it, so
//! the calibrated figure moves with it. Both references were checked
//! against a known program-made effect (see the README). The nominal
//! times are fixed constants near the references' typical times on the
//! host the bounds were set on (2-vCPU KVM guest, Intel Xeon at
//! 2.1 GHz), so calibrated figures read close to that host's wall-clock
//! figures. The raw reference times are reported too.

use std::hint::black_box;
use std::time::Instant;

/// The integer reference's nominal time, ms (see the module docs).
pub const INT_NOMINAL_MS: f64 = 6.5;

/// The float reference's nominal time, ms (see the module docs).
pub const FLOAT_NOMINAL_MS: f64 = 1.75;

/// The integer reference streams 64 images, like a batch-64 forward, so
/// contention for the caches slows it as it slows the kernels; two
/// filters keep its run near 5 ms.
const INT_IMAGES: usize = 64;
const INT_FILTERS: usize = 2;
const FLOAT_IMAGES: usize = 8;
const FLOAT_MAPS: usize = 32;
const CHANNELS: usize = 16;
const SIDE: usize = 16;
const PLANE: usize = SIDE * SIDE;
const TAPS: usize = CHANNELS * 9;

/// The two reference kernels, their buffers, and every reading taken.
pub struct Calibrator {
    codes: Vec<i32>,
    acc: Vec<i32>,
    pixels: Vec<f32>,
    cols: Vec<f32>,
    weights: Vec<f32>,
    out: Vec<f32>,
    /// Raw reference times, ms.
    pub int_ms: Vec<f64>,
    pub float_ms: Vec<f64>,
}

impl Calibrator {
    pub fn new() -> Calibrator {
        Calibrator {
            codes: (0..INT_IMAGES * CHANNELS * PLANE)
                .map(|i| (i % 251) as i32 - 125)
                .collect(),
            acc: vec![0; INT_IMAGES * INT_FILTERS * PLANE],
            pixels: (0..FLOAT_IMAGES * CHANNELS * PLANE)
                .map(|i| (i % 97) as f32 / 97.0 - 0.5)
                .collect(),
            cols: vec![0.0; TAPS * PLANE],
            weights: (0..FLOAT_MAPS * TAPS)
                .map(|i| (i % 89) as f32 / 89.0 - 0.5)
                .collect(),
            out: vec![0.0; FLOAT_MAPS * PLANE],
            int_ms: Vec::new(),
            float_ms: Vec::new(),
        }
    }

    /// Runs the integer reference once; returns the factor that maps a
    /// duration measured next to it onto the nominal host speed.
    pub fn int_factor(&mut self) -> f64 {
        let start = Instant::now();
        black_box(int_conv(black_box(&self.codes), &mut self.acc));
        let ms = start.elapsed().as_secs_f64() * 1e3;
        self.int_ms.push(ms);
        INT_NOMINAL_MS / ms
    }

    /// Runs the float reference twice and keeps the faster run (one
    /// 1.75 ms run is short enough for an interrupt to skew it); see
    /// [`Calibrator::int_factor`].
    pub fn float_factor(&mut self) -> f64 {
        let ms = (0..2)
            .map(|_| {
                let start = Instant::now();
                black_box(float_conv(
                    black_box(&self.pixels),
                    &mut self.cols,
                    &self.weights,
                    &mut self.out,
                ));
                start.elapsed().as_secs_f64() * 1e3
            })
            .fold(f64::INFINITY, f64::min);
        self.float_ms.push(ms);
        FLOAT_NOMINAL_MS / ms
    }
}

/// 3×3 shift-add convolution over `INT_IMAGES × CHANNELS × 16×16`
/// codes, interior positions, with fixed shift/sign patterns per tap.
fn int_conv(codes: &[i32], acc: &mut [i32]) -> i64 {
    let mut sum = 0i64;
    for b in 0..INT_IMAGES {
        for o in 0..INT_FILTERS {
            for y in 1..SIDE - 1 {
                for x in 1..SIDE - 1 {
                    let mut s = 0i32;
                    for c in 0..CHANNELS {
                        let base = (b * CHANNELS + c) * PLANE;
                        for dy in 0..3 {
                            for dx in 0..3 {
                                let v = codes[base + (y + dy - 1) * SIDE + x + dx - 1];
                                let shifted = v << ((o + c + dy * 3 + dx) & 7);
                                s = if (o ^ c ^ dx) & 1 == 0 {
                                    s.wrapping_add(shifted)
                                } else {
                                    s.wrapping_sub(shifted)
                                };
                            }
                        }
                    }
                    acc[(b * INT_FILTERS + o) * PLANE + y * SIDE + x] = s;
                    sum = sum.wrapping_add(i64::from(s));
                }
            }
        }
    }
    sum
}

/// 3×3 float convolution as im2col + GEMM, zero padding, over
/// `FLOAT_IMAGES × CHANNELS × 16×16` pixels into `FLOAT_MAPS` maps.
fn float_conv(pixels: &[f32], cols: &mut [f32], weights: &[f32], out: &mut [f32]) -> f32 {
    let mut sum = 0.0f32;
    for b in 0..FLOAT_IMAGES {
        for c in 0..CHANNELS {
            for dy in 0..3 {
                for dx in 0..3 {
                    let row = ((c * 3 + dy) * 3 + dx) * PLANE;
                    for y in 0..SIDE {
                        for x in 0..SIDE {
                            let (yy, xx) = ((y + dy).wrapping_sub(1), (x + dx).wrapping_sub(1));
                            cols[row + y * SIDE + x] = if yy < SIDE && xx < SIDE {
                                pixels[(b * CHANNELS + c) * PLANE + yy * SIDE + xx]
                            } else {
                                0.0
                            };
                        }
                    }
                }
            }
        }
        for o in 0..FLOAT_MAPS {
            let map = &mut out[o * PLANE..(o + 1) * PLANE];
            map.fill(0.0);
            for t in 0..TAPS {
                let w = weights[o * TAPS + t];
                for (m, v) in map.iter_mut().zip(&cols[t * PLANE..(t + 1) * PLANE]) {
                    *m += w * v;
                }
            }
            sum += map[SIDE + 1];
        }
    }
    sum
}
