//! Batched parallel execution of a compiled [`IntNetwork`]
//! (crate-internal; the public entry point is `IntNetwork::forward`).
//!
//! The batch dimension is the natural work axis: activation scales are
//! per image, so every image's integer pipeline is independent of its
//! batchmates and a contiguous chunk of images can run on its own thread
//! with no synchronization beyond the final stitch. The threading
//! pattern mirrors the crossbeam scoped-thread matmul in
//! `flight-tensor/src/ops.rs`: size the pool, hand each worker a
//! disjoint slice, join, merge.
//!
//! Each worker owns one [`Scratch`] arena, so the activation-quantization
//! buffers inside the conv kernels are allocated once per worker instead
//! of once per stage per image, and one [`OpCounts`] accumulator, merged
//! associatively after the join.
//!
//! [`IntNetwork`]: crate::IntNetwork

use std::time::Instant;

use flight_telemetry::{worker_prefix, Log2Histogram, Telemetry};
use flight_tensor::Tensor;

use crate::counts::OpCounts;
use crate::engine::{walk, IntLayer};
use crate::observe::{Null, Trace};
use crate::simd::{KernelPath, LaneCtx};

/// Per-worker reusable buffers for activation quantization — integer
/// codes plus one scale per image — and the lane context (dispatch
/// path plus the batch-blocked SIMD arena). Cleared and refilled by
/// every conv stage, so the backing allocations grow to the largest
/// activation plane once and are reused from then on.
#[derive(Debug, Default)]
pub(crate) struct Scratch {
    /// Integer activation codes, row-major over the whole chunk.
    pub codes: Vec<i32>,
    /// One quantization scale per image.
    pub scales: Vec<f32>,
    /// Kernel dispatch path plus the lane-major blocked arena the SIMD
    /// interior reads.
    pub lanes: LaneCtx,
}

impl Scratch {
    /// A scratch arena whose lane context is pinned to `path` (the
    /// engine resolves the path once per compile; workers inherit it).
    pub fn with_path(path: KernelPath) -> Self {
        Scratch {
            codes: Vec::new(),
            scales: Vec::new(),
            lanes: LaneCtx::with_path(path),
        }
    }
}

/// Runs `layers` over `input` (`[n, …]`, `n ≥ 2`) split into
/// `workers` contiguous image chunks on scoped threads. Returns the
/// stitched logits and the associatively merged op counts — bit-identical
/// to the sequential path because every image quantizes against its own
/// scale.
///
/// With a live sink each worker `w` emits its events through a
/// `kernel.worker.<w>.` prefixed handle: a `chunk` span, a
/// `chunk.images` gauge, one `chunk.<field>` counter per nonzero
/// op-count field, and three [`Log2Histogram`]s of per-image latency —
/// `chunk.latency.e2e` (dispatch → image done), `chunk.latency.compute`
/// (the image's own pipeline time), and `chunk.latency.queue_wait`
/// (dispatch → worker thread start, the scheduling cost every image of
/// the chunk paid). The traced path walks its chunk image by image to
/// time each one; per-image activation scales make that split
/// bit-identical to the whole-chunk run, so logits and op counts do not
/// change. The untraced path keeps the single whole-chunk call.
pub(crate) fn forward_parallel(
    layers: &[IntLayer],
    telemetry: &Telemetry,
    input: &Tensor,
    workers: usize,
    path: KernelPath,
) -> (Tensor, OpCounts) {
    let dims = input.dims();
    let n = dims[0];
    debug_assert!(workers >= 2 && workers <= n, "dispatcher sizes the pool");
    let img_len = input.len() / n;
    let per = n.div_ceil(workers);
    let chunks = n.div_ceil(per);
    let data = input.as_slice();
    let dispatch = Instant::now();

    let mut results: Vec<Option<(Tensor, OpCounts)>> = Vec::new();
    results.resize_with(chunks, || None);

    crossbeam::scope(|scope| {
        for (w, slot) in results.iter_mut().enumerate() {
            let start = w * per;
            let end = (start + per).min(n);
            let worker_telemetry = telemetry.with_prefix(&worker_prefix(w));
            let mut chunk_dims = dims.to_vec();
            chunk_dims[0] = end - start;
            scope.spawn(move |_| {
                let queue_wait = dispatch.elapsed().as_secs_f64();
                let span = worker_telemetry.span("chunk");
                let mut counts = OpCounts::default();
                let mut scratch = Scratch::with_path(path);
                let chunk = &data[start * img_len..end * img_len];
                let out = if worker_telemetry.enabled() {
                    let out = run_chunk_per_image(
                        layers,
                        &worker_telemetry,
                        chunk,
                        &chunk_dims,
                        dispatch,
                        queue_wait,
                        &mut counts,
                        &mut scratch,
                    );
                    worker_telemetry.gauge("chunk.images", (end - start) as f64, "img");
                    for (field, ops) in counts.fields() {
                        if ops > 0 {
                            worker_telemetry.counter(&format!("chunk.{field}"), ops, "op");
                        }
                    }
                    out
                } else {
                    let chunk = Tensor::from_vec(chunk.to_vec(), &chunk_dims);
                    walk(layers, &chunk, &mut counts, &mut scratch, &mut Null, true)
                };
                drop(span);
                *slot = Some((out, counts));
            });
        }
    })
    .expect("forward worker thread panicked");

    // Stitch chunk outputs back together in batch order and reduce the
    // counts. Merge order does not matter — OpCounts is associative —
    // but we keep chunk order for determinism anyway.
    let mut merged = OpCounts::default();
    let mut outs = Vec::with_capacity(chunks);
    for slot in results {
        let (out, counts) = slot.expect("every spawned chunk reports a result");
        merged += counts;
        outs.push(out);
    }
    (concat(&outs), merged)
}

/// The traced chunk walk: one image at a time through the stage walk
/// with a [`Trace`] observer (in-stage events only — stage spans belong
/// to the sequential path), recording per-image latency into the
/// worker's histograms and emitting them once at the end. Stage outputs
/// are stitched in image order, so the result equals the whole-chunk
/// run bit for bit (per-image activation scales).
#[allow(clippy::too_many_arguments)]
fn run_chunk_per_image(
    layers: &[IntLayer],
    worker_telemetry: &Telemetry,
    chunk_data: &[f32],
    chunk_dims: &[usize],
    dispatch: Instant,
    queue_wait: f64,
    counts: &mut OpCounts,
    scratch: &mut Scratch,
) -> Tensor {
    let images = chunk_dims[0];
    let img_len = chunk_data.len().checked_div(images).unwrap_or(0);
    let mut img_dims = chunk_dims.to_vec();
    img_dims[0] = 1;

    let mut e2e = Log2Histogram::new();
    let mut compute = Log2Histogram::new();
    let mut queue = Log2Histogram::new();
    let mut trace = Trace(worker_telemetry);

    let mut outs = Vec::with_capacity(images);
    for i in 0..images {
        let started = Instant::now();
        let image = Tensor::from_vec(
            chunk_data[i * img_len..(i + 1) * img_len].to_vec(),
            &img_dims,
        );
        outs.push(walk(layers, &image, counts, scratch, &mut trace, false));
        compute.record(started.elapsed().as_secs_f64());
        e2e.record(dispatch.elapsed().as_secs_f64());
        queue.record(queue_wait);
    }
    worker_telemetry.log2_histogram("chunk.latency.e2e", &e2e);
    worker_telemetry.log2_histogram("chunk.latency.compute", &compute);
    worker_telemetry.log2_histogram("chunk.latency.queue_wait", &queue);
    concat(&outs)
}

/// Concatenates non-empty `[n_i, …]` outputs along the batch dimension.
fn concat(parts: &[Tensor]) -> Tensor {
    let mut dims = parts[0].dims().to_vec();
    dims[0] = parts.iter().map(|p| p.dims()[0]).sum();
    let mut data = Vec::with_capacity(parts.iter().map(Tensor::len).sum());
    for part in parts {
        data.extend_from_slice(part.as_slice());
    }
    Tensor::from_vec(data, &dims)
}
