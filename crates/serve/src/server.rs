//! The serving loop: accept thread, per-connection reader threads, a
//! bounded request queue, and compute workers that form dynamic batches.
//!
//! Threading model:
//!
//! ```text
//! accept thread ──► conn thread (1 per client) ──try_send──► bounded queue
//!                                                                │
//!                        reply channel ◄── compute worker ◄──────┘
//!                                          (collect_batch → forward)
//! ```
//!
//! Connection threads never touch the engine; they parse frames, enqueue
//! [`PendingRequest`]s, and render replies. Compute workers each own a
//! private [`ExecCtx`] (scratch reuse across batches) and share the
//! immutable [`CompiledNet`] snapshot they `load()` from the
//! [`EngineSlot`] at batch start — so a swap mid-batch is invisible to
//! that batch. The queue is bounded: a full queue rejects with
//! `overloaded` instead of growing latency without bound.
//!
//! # Request tracing
//!
//! Every accepted `infer` is assigned a monotonically increasing
//! `request_id` at the connection thread, carried through the queue and
//! the worker on its [`PendingRequest`], and echoed back to the client.
//! The id routes stats recording to a shard (`request_id % shards`, so
//! concurrent connection threads rarely collide on a lock) and keys the
//! request's [`Exemplar`] timeline if it turns out to be among the
//! slowest. The fourth phase, `reply_write`, is measured here on the
//! connection thread — around the reply frame's render+write — which is
//! why per-request stats are recorded *after* the frame is on the wire,
//! not by the compute worker.

use std::io::Write as _;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::mpsc::{self, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use flight_kernels::ExecCtx;
use flight_telemetry::frame::{error_response, ok_response, overloaded_response};
use flight_telemetry::json::{JsonObject, JsonValue};
use flight_telemetry::{
    trace_now_us, worker_prefix, StageProf, StageSample, Telemetry, DEFAULT_SAMPLE_EVERY,
};
use flight_tensor::Tensor;

use crate::batcher::{collect_batch, BatchPolicy, PendingRequest};
use crate::exemplar::{Exemplar, ExemplarRing, DEFAULT_EXEMPLARS};
use crate::model::ModelSpec;
use crate::protocol::{parse_request, read_frame, write_frame, Request};
use crate::stats::{PhaseSample, ServeStats};
use crate::swap::EngineSlot;

/// How long a connection thread waits for its reply before giving up.
/// Generous: a full queue is rejected synchronously, so a parked request
/// only waits this long if a worker wedged.
const REPLY_TIMEOUT: Duration = Duration::from_secs(30);

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks a free port (see
    /// [`Server::local_addr`]).
    pub addr: String,
    /// Compute workers (each forms and executes whole batches). The
    /// worker pool is the server's only layer of parallelism: each batch
    /// runs sequentially on its worker.
    pub workers: usize,
    /// Largest coalesced batch.
    pub max_batch: usize,
    /// Longest the first request in a batch waits for company, µs.
    pub max_wait_us: u64,
    /// Bounded queue depth; beyond it requests are rejected.
    pub queue_depth: usize,
    /// How many slowest-request exemplar timelines to keep.
    pub exemplars: usize,
    /// Profile 1-in-N requests through the per-layer
    /// [`StageProf`] (0 disables profiling entirely).
    pub profile_every: u32,
    /// Where serve counters/histograms go on shutdown; also the sink
    /// worker forwards emit through when live (`FLIGHT_TELEMETRY` in
    /// the `serve` bin).
    pub telemetry: Telemetry,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 1,
            max_batch: 8,
            max_wait_us: 500,
            queue_depth: 256,
            exemplars: DEFAULT_EXEMPLARS,
            profile_every: DEFAULT_SAMPLE_EVERY,
            telemetry: Telemetry::null(),
        }
    }
}

/// Reply a compute worker sends back to the connection thread.
#[derive(Debug)]
enum InferReply {
    Done {
        version: u64,
        batch: usize,
        logits: Vec<f32>,
        /// Worker-measured phases; `reply_write` is still zero — the
        /// connection thread fills it in after the frame write.
        phases: PhaseSample,
    },
    Failed(String),
}

/// State shared by every thread in the server.
struct Shared {
    slot: EngineSlot,
    stats: ServeStats,
    exemplars: ExemplarRing,
    profiler: StageProf,
    queue_tx: SyncSender<PendingRequest<InferReply>>,
    /// Next `request_id` to assign; starts at 1 so 0 can mean "none".
    next_request_id: AtomicU64,
    /// Requests currently parked in the bounded queue. Signed because
    /// the enqueue increment (connection thread) and the dequeue
    /// decrement (worker) race benignly; reads clamp at zero.
    queue_depth: AtomicI64,
    stop: AtomicBool,
    telemetry: Telemetry,
}

impl Shared {
    fn queue_depth(&self) -> u64 {
        self.queue_depth.load(Ordering::Relaxed).max(0) as u64
    }

    /// The `stats` payload: the sharded snapshot plus the live queue
    /// depth (which lives on the server, not in the recorders).
    fn stats_payload(&self) -> JsonValue {
        let snapshot = self.stats.snapshot_json();
        let JsonValue::Object(mut fields) = snapshot else {
            unreachable!("stats snapshot is an object")
        };
        fields.push(("queue_depth".into(), JsonValue::from(self.queue_depth())));
        JsonValue::Object(fields)
    }
}

/// A running server. Dropping it without [`Server::stop`] detaches the
/// threads; call `stop` (or send a `shutdown` op) for a clean join.
pub struct Server {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds, builds the boot model from `spec`, and starts the accept
    /// loop plus `config.workers` compute workers.
    ///
    /// # Errors
    ///
    /// Bind failures and model build failures.
    pub fn start(config: ServerConfig, spec: ModelSpec) -> Result<Server, String> {
        let listener =
            TcpListener::bind(&config.addr).map_err(|e| format!("bind {}: {e}", config.addr))?;
        let local_addr = listener
            .local_addr()
            .map_err(|e| format!("local_addr: {e}"))?;
        let slot = EngineSlot::new(spec)?;

        let (queue_tx, queue_rx) = mpsc::sync_channel(config.queue_depth.max(1));
        let shared = Arc::new(Shared {
            slot,
            stats: ServeStats::new_at(config.workers.max(1), trace_now_us() as u64),
            exemplars: ExemplarRing::new(config.exemplars),
            profiler: StageProf::new(config.workers.max(1), config.profile_every),
            queue_tx,
            next_request_id: AtomicU64::new(1),
            queue_depth: AtomicI64::new(0),
            stop: AtomicBool::new(false),
            telemetry: config.telemetry.clone(),
        });

        let policy = BatchPolicy {
            max_batch: config.max_batch.max(1),
            max_wait: Duration::from_micros(config.max_wait_us),
        };
        let queue_rx = Arc::new(Mutex::new(queue_rx));
        let workers = (0..config.workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                let queue_rx = Arc::clone(&queue_rx);
                std::thread::Builder::new()
                    .name(format!("serve-worker-{i}"))
                    .spawn(move || worker_loop(&shared, &queue_rx, policy, i))
                    .expect("spawn worker")
            })
            .collect();

        let accept = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("serve-accept".to_string())
                .spawn(move || accept_loop(&listener, &shared))
                .expect("spawn accept loop")
        };

        Ok(Server {
            shared,
            local_addr,
            accept: Some(accept),
            workers,
        })
    }

    /// The bound address (the real port when the config asked for 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Live model version.
    pub fn version(&self) -> u64 {
        self.shared.slot.version()
    }

    /// Requests served so far.
    pub fn requests_served(&self) -> u64 {
        self.shared.stats.sharded().merged().requests
    }

    /// The stats snapshot (same shape as the `stats` op's `stats`
    /// field, including `queue_depth` and the `windows` block).
    pub fn stats_json(&self) -> JsonValue {
        self.shared.stats_payload()
    }

    /// The current slowest-request exemplars (same shape as the
    /// `exemplars` op's `exemplars` field).
    pub fn exemplars_json(&self) -> JsonValue {
        self.shared.exemplars.json()
    }

    /// The per-layer profile snapshot (same shape as the `profile` op's
    /// `profile` field: sampling rate, merged per-stage stats, windows).
    pub fn profile_json(&self) -> JsonValue {
        self.shared.profiler.snapshot_json()
    }

    /// Signals every thread to stop, wakes the accept loop, joins the
    /// accept thread and workers, and emits final stats through the
    /// configured telemetry. Idempotent.
    pub fn stop(&mut self) {
        self.shared.stop.store(true, Ordering::Release);
        // The accept loop is parked in accept(); poke it awake.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        self.shared.stats.emit(&self.shared.telemetry);
    }

    /// True once a shutdown has been requested (by `stop` or the
    /// `shutdown` op).
    pub fn stopping(&self) -> bool {
        self.shared.stop.load(Ordering::Acquire)
    }

    /// Blocks until a `shutdown` op arrives, then joins everything.
    pub fn run_to_shutdown(mut self) {
        while !self.stopping() {
            std::thread::sleep(Duration::from_millis(50));
        }
        self.stop();
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    for stream in listener.incoming() {
        if shared.stop.load(Ordering::Acquire) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let shared = Arc::clone(shared);
        // Connection threads are detached: they exit when the client
        // closes or the frame stream errors.
        let _ = std::thread::Builder::new()
            .name("serve-conn".to_string())
            .spawn(move || {
                let _ = handle_conn(stream, &shared);
            });
    }
}

/// A completed inference carrying everything the connection thread needs
/// to finish per-request accounting once the reply frame is written.
struct CompletedInfer {
    request_id: u64,
    version: u64,
    batch: usize,
    /// Enqueue time on the process trace clock, µs.
    enqueued_us: u64,
    /// Worker-measured phases; `reply_write` still zero.
    phases: PhaseSample,
}

/// One connection: read frames, dispatch ops, write reply frames.
fn handle_conn(mut stream: TcpStream, shared: &Arc<Shared>) -> std::io::Result<()> {
    let mut reader = stream.try_clone()?;
    while let Some(payload) = read_frame(&mut reader)? {
        let received = Instant::now();
        let reply = match parse_request(&payload) {
            Err(e) => error_response(&e),
            Ok(Request::Ping) => {
                ok_response(JsonObject::new().field("version", shared.slot.version()))
            }
            Ok(Request::Stats) => ok_response(
                JsonObject::new()
                    .field("version", shared.slot.version())
                    .field("stats", shared.stats_payload()),
            ),
            Ok(Request::Exemplars) => ok_response(
                JsonObject::new()
                    .field("version", shared.slot.version())
                    .field("exemplars", shared.exemplars.json()),
            ),
            Ok(Request::Profile) => ok_response(
                JsonObject::new()
                    .field("version", shared.slot.version())
                    .field("profile", shared.profiler.snapshot_json()),
            ),
            Ok(Request::Swap { spec }) => match shared.slot.swap_to(spec) {
                Ok(version) => ok_response(JsonObject::new().field("version", version)),
                Err(e) => error_response(&format!("swap failed: {e}")),
            },
            Ok(Request::Infer { image }) => {
                let (reply, done) = infer(shared, image, received);
                // reply_write: render cost is already spent; time the
                // frame write+flush, then record the full phase set.
                let write_start = Instant::now();
                write_frame(&mut stream, reply.as_bytes())?;
                if let Some(mut done) = done {
                    done.phases.reply_write = write_start.elapsed();
                    finish_infer(shared, &done);
                }
                continue;
            }
            Ok(Request::Shutdown) => {
                write_frame(&mut stream, ok_response(JsonObject::new()).as_bytes())?;
                shared.stop.store(true, Ordering::Release);
                return Ok(());
            }
        };
        write_frame(&mut stream, reply.as_bytes())?;
    }
    stream.flush()
}

/// Records a completed request's four phases into its stats shard and
/// offers its timeline to the exemplar ring. Runs on the connection
/// thread, after the reply frame is on the wire.
fn finish_infer(shared: &Arc<Shared>, done: &CompletedInfer) {
    let shard = (done.request_id % shared.stats.sharded().shards() as u64) as usize;
    shared.stats.record_request(shard, &done.phases);
    let us = |d: Duration| d.as_micros() as u64;
    shared.exemplars.offer(Exemplar {
        request_id: done.request_id,
        version: done.version,
        batch: done.batch,
        start_us: done.enqueued_us,
        phases_us: [
            us(done.phases.queue),
            us(done.phases.batch_form),
            us(done.phases.compute),
            us(done.phases.reply_write),
        ],
    });
}

/// Enqueues one infer request and waits for its reply. Returns the reply
/// payload plus, on success, the [`CompletedInfer`] the caller records
/// after writing the frame (so `reply_write` can be measured).
fn infer(
    shared: &Arc<Shared>,
    image: Vec<f32>,
    received: Instant,
) -> (String, Option<CompletedInfer>) {
    if shared.stop.load(Ordering::Acquire) {
        return (error_response("shutting down"), None);
    }
    let request_id = shared.next_request_id.fetch_add(1, Ordering::Relaxed);
    let shard = (request_id % shared.stats.sharded().shards() as u64) as usize;
    let enqueued_us = trace_now_us() as u64;
    let (reply_tx, reply_rx) = mpsc::channel();
    let now = Instant::now();
    let pending = PendingRequest {
        id: request_id,
        image,
        enqueued: now,
        popped: now,
        reply: reply_tx,
    };
    match shared.queue_tx.try_send(pending) {
        Ok(()) => {
            shared.queue_depth.fetch_add(1, Ordering::Relaxed);
        }
        Err(TrySendError::Full(_)) => {
            shared.stats.record_rejected(shard);
            return (overloaded_response(), None);
        }
        Err(TrySendError::Disconnected(_)) => return (error_response("queue closed"), None),
    }
    match reply_rx.recv_timeout(REPLY_TIMEOUT) {
        Ok(InferReply::Done {
            version,
            batch,
            logits,
            phases,
        }) => {
            let us = |d: Duration| d.as_micros() as u64;
            let reply = ok_response(
                JsonObject::new()
                    .field("request_id", request_id)
                    .field("version", version)
                    .field("batch", batch)
                    .field(
                        "logits",
                        logits
                            .iter()
                            .map(|&l| JsonValue::from(l))
                            .collect::<Vec<_>>(),
                    )
                    .field(
                        "timing_us",
                        JsonObject::new()
                            .field("queue", us(phases.queue))
                            .field("batch_form", us(phases.batch_form))
                            .field("compute", us(phases.compute))
                            .field("total", us(received.elapsed()))
                            .build(),
                    ),
            );
            (
                reply,
                Some(CompletedInfer {
                    request_id,
                    version,
                    batch,
                    enqueued_us,
                    phases,
                }),
            )
        }
        Ok(InferReply::Failed(e)) => (error_response(&e), None),
        Err(_) => {
            shared.stats.record_error(shard);
            (
                error_response("timed out waiting for a compute worker"),
                None,
            )
        }
    }
}

/// One compute worker: form a batch, run it, reply to every member.
/// `worker` is this worker's stats shard.
fn worker_loop(
    shared: &Arc<Shared>,
    queue_rx: &Arc<Mutex<mpsc::Receiver<PendingRequest<InferReply>>>>,
    policy: BatchPolicy,
    worker: usize,
) {
    // Workers emit through the server's telemetry handle on their own
    // `kernel.worker.<ww>.` track, so FLIGHT_TELEMETRY on the serve bin
    // captures a live JSONL trace. With the (default) null sink
    // `with_prefix` returns the same disabled handle and the hot path
    // stays uninstrumented.
    let mut ctx = ExecCtx::with_telemetry(shared.telemetry.with_prefix(&worker_prefix(worker)));
    let mut profile_scratch = StageSample::new();
    loop {
        // Hold the receiver lock only while forming the batch; compute
        // proceeds unlocked so other workers can form the next batch.
        let batch = {
            let rx = queue_rx.lock().expect("queue lock poisoned");
            collect_batch(&rx, policy, &shared.stop)
        };
        let Some(batch) = batch else { break };
        shared
            .queue_depth
            .fetch_sub(batch.len() as i64, Ordering::Relaxed);
        run_batch(shared, batch, &mut ctx, &mut profile_scratch, worker);
    }
}

fn run_batch(
    shared: &Arc<Shared>,
    batch: Vec<PendingRequest<InferReply>>,
    ctx: &mut ExecCtx,
    profile_scratch: &mut StageSample,
    worker: usize,
) {
    let sealed = Instant::now();
    let model = shared.slot.load();
    let expect = model.input_len();

    let mut members = Vec::with_capacity(batch.len());
    for req in batch {
        if req.image.len() == expect {
            members.push(req);
        } else {
            shared.stats.record_error(worker);
            let _ = req.reply.send(InferReply::Failed(format!(
                "image has {} floats, model expects {expect}",
                req.image.len()
            )));
        }
    }
    if members.is_empty() {
        return;
    }

    let n = members.len();
    let [c, h, w] = model.spec.image_dims;
    let mut data = Vec::with_capacity(n * expect);
    for m in &members {
        data.extend_from_slice(&m.image);
    }
    let input = Tensor::from_vec(data, &[n, c, h, w]);

    // A batch is profiled when any member's request id is sampled, so
    // sampled requests keep their per-layer attribution even when
    // coalesced. Logits are bit-identical either way.
    let profiled = members.iter().any(|m| shared.profiler.sampled(m.id));
    let compute_start = Instant::now();
    let (out, _ops) = if profiled {
        model.net.forward_profiled(&input, ctx, profile_scratch)
    } else {
        model.net.forward(&input, ctx)
    };
    let compute = compute_start.elapsed();
    if profiled {
        shared.profiler.record(worker, profile_scratch);
    }

    let logits = out.as_slice();
    let classes = logits.len() / n;
    for (i, m) in members.iter().enumerate() {
        let phases = PhaseSample {
            queue: m.popped.saturating_duration_since(m.enqueued),
            batch_form: sealed.saturating_duration_since(m.popped),
            compute,
            reply_write: Duration::ZERO,
        };
        let _ = m.reply.send(InferReply::Done {
            version: model.version,
            batch: n,
            logits: logits[i * classes..(i + 1) * classes].to_vec(),
            phases,
        });
    }
    // Per-request phases are recorded by the connection threads (they
    // own the reply_write measurement); the worker accounts the batch.
    shared.stats.record_batch(worker, n);
}
