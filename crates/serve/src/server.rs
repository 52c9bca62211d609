//! The concurrent inference server: an event-driven connection core
//! (one thread owning every socket — the `eventloop` module) feeding
//! one compute stage over a bounded hand-off queue, with the live
//! [`ModelBundle`] behind `RwLock<Arc<...>>` so `POST /reload` can
//! hot-swap models while classify traffic keeps flowing.
//!
//! The compute stage is [`ServerConfig::threads`] identical compute
//! threads, all popping the one loop → compute queue. Each takes the
//! first queued request, drains its share of the classifies already
//! queued behind it (split with the threads that are idle, up to
//! [`ServerConfig::max_batch`], never waiting for more), decodes
//! and binarizes them, runs one kernel pass per model over them (the
//! [`crate::batcher`] step), and hands every response back to the loop.
//! Any other request ends the drain and is served after that kernel
//! pass, so a slow `/reload` never holds the classifies queued before it.
//!
//! Endpoints:
//!
//! | route            | purpose                                            |
//! |------------------|----------------------------------------------------|
//! | `GET /health`    | liveness probe                                     |
//! | `GET /model`     | metadata of the currently served bundle            |
//! | `GET /metrics`   | plaintext counters + latency histogram             |
//! | `POST /classify` | classify one vector (`values`) or many (`samples`) |
//! | `POST /reload`   | re-read the bundle file and swap it in             |
//!
//! Every client error is a structured JSON 4xx: `{"error": <machine
//! code>, "detail": <human text>}`.
//!
//! ## Fault tolerance
//!
//! The serving stack is designed so no single request — however hostile
//! — can degrade the compute stage:
//!
//! * **Panic isolation**: each request's decode/route step and the
//!   building of each classify answer run under `catch_unwind`, and so
//!   does each kernel group; a panic becomes a
//!   `500 {"error":"internal_error"}` for the requests it touched and a
//!   `bstc_panics_caught_total` (or `bstc_batch_panics_total`) tick,
//!   never a dead compute thread.
//! * **Bounded admission**: the loop→compute hand-off is a fixed-depth,
//!   poison-free queue, and concurrent connections are capped at
//!   [`ServerConfig::max_connections`]; past either limit the client is
//!   immediately answered `503 {"error":"overloaded"}` with
//!   `Retry-After`, keeping the latency of admitted requests bounded
//!   instead of growing a queue without limit.
//! * **Compute never blocks on clients**: sockets live exclusively with
//!   the event loop; a slow or idle client costs a parser state and an
//!   fd, not a thread. Ten thousand idle keep-alive connections leave
//!   the compute stage fully available.
//! * **Request deadlines**: a wall-clock budget
//!   ([`ServerConfig::request_timeout`]) runs from a request's first
//!   byte through its response; slow-loris clients and stalled reads
//!   become clean 408s via the loop's timer wheel, and a request whose
//!   budget ran out in the queue is answered 408 at pickup. Graceful
//!   shutdown drains in-flight work under [`ServerConfig::drain_timeout`].

use crate::batcher::{self, KernelJob};
use crate::bundle::{ModelBundle, Prediction, FORMAT_VERSION};
use crate::chaos;
use crate::eventloop::{Completions, Done, EventLoop, LoopConfig, WorkItem};
use crate::http::{Request, Response};
use crate::metrics::{Metrics, MetricsSnapshot};
use crate::queue::{BoundedQueue, Pop};
use crate::registry::{ModelRegistry, ModelVersion, RegistryError};
use crate::router::{route_of, Route};
use crate::shadow::{ShadowExecutor, ShadowJob, ShadowRoute, ShadowSpec};
use crate::sys;
use bstc::Scratch;
use microarray::BitSet;
use serde_json::{json, Value};
use std::io;
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How the server is started.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address, e.g. `127.0.0.1:8642` (port 0 picks an ephemeral one).
    pub addr: String,
    /// Compute threads (0 = number of CPUs).
    pub threads: usize,
    /// File `POST /reload` re-reads; `None` disables reloading.
    pub bundle_path: Option<PathBuf>,
    /// Parsed requests that may wait for a compute thread; requests
    /// beyond this are shed with `503` + `Retry-After` instead of queued.
    pub queue_depth: usize,
    /// Concurrent-connection cap (`--max-connections`); arrivals beyond
    /// it are answered `503` + `Retry-After` immediately. Idle
    /// keep-alive connections count — each costs only an fd and a
    /// parser state, so the cap can sit in the tens of thousands.
    pub max_connections: usize,
    /// Response bodies larger than this many bytes stream to HTTP/1.1
    /// clients with `transfer-encoding: chunked` (`--chunk-threshold`);
    /// 0 disables chunked responses.
    pub chunk_threshold: usize,
    /// Wall-clock budget per request, from its first byte through
    /// classification; exceeding it answers `408`. `None` disables the
    /// deadline (not recommended outside tests).
    pub request_timeout: Option<Duration>,
    /// How long a graceful shutdown waits for in-flight connections
    /// before the event loop closes the rest.
    pub drain_timeout: Duration,
    /// Most queued requests one compute thread drains into a batch
    /// (`--max-batch`, at least 1; 1 disables coalescing).
    pub max_batch: usize,
    /// Directory of `*.json` bundles to serve as a fleet
    /// (`--models-dir`); each file registers under its stem. `None`
    /// serves the single bundle passed to [`serve`].
    pub models_dir: Option<PathBuf>,
    /// Which registered model the legacy unnamed routes alias to
    /// (`--default-model`); `None` picks the lexicographically first.
    pub default_model: Option<String>,
    /// Most *compiled* models kept resident at once (`--max-resident`);
    /// past it the registry LRU evicts the coldest compiled form. 0
    /// disables the cap.
    pub max_resident: usize,
    /// Shadow directives (`--shadow primary=candidate:percent`,
    /// repeatable): mirror that share of a primary's traffic onto a
    /// registered candidate and compare server-side.
    pub shadows: Vec<ShadowSpec>,
    /// Seed for the deterministic shadow-sampling stream
    /// (`--shadow-seed`).
    pub shadow_seed: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            threads: 0,
            bundle_path: None,
            queue_depth: 256,
            max_connections: 10_000,
            chunk_threshold: 64 * 1024,
            request_timeout: Some(Duration::from_secs(10)),
            drain_timeout: Duration::from_secs(5),
            max_batch: 32,
            models_dir: None,
            default_model: None,
            max_resident: 0,
            shadows: Vec::new(),
            shadow_seed: 0x5eed_cafe,
        }
    }
}

/// State shared by the event loop and every compute thread.
pub(crate) struct Shared {
    /// The model fleet: every named version, swaps, compiled residency.
    pub(crate) registry: Arc<ModelRegistry>,
    pub(crate) metrics: Arc<Metrics>,
    /// The asynchronous shadow replayer; `None` without `--shadow`.
    pub(crate) shadow: Option<ShadowExecutor>,
    /// Per-primary shadow sampling state, resolved against the registry
    /// at boot (name-ordered, tiny: linear lookup).
    pub(crate) shadow_routes: Vec<ShadowRoute>,
    pub(crate) shutting_down: AtomicBool,
    /// Loop → compute: fully parsed requests awaiting compute. Full
    /// means the loop sheds the request with an immediate `503`.
    pub(crate) queue: BoundedQueue<WorkItem>,
    /// Compute → loop: finished responses plus the wake pipe.
    pub(crate) completions: Completions,
    pub(crate) request_timeout: Option<Duration>,
}

impl Shared {
    /// The shadow route configured for `model`, if any.
    fn shadow_route(&self, model: &str) -> Option<&ShadowRoute> {
        self.shadow_routes.iter().find(|r| r.spec().primary == model)
    }
}

/// A running server; dropping the handle does **not** stop it — call
/// [`ServerHandle::shutdown`] (or [`ServerHandle::wait`] to serve
/// forever).
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    loop_thread: JoinHandle<()>,
    compute_threads: Vec<JoinHandle<()>>,
    shadow_thread: Option<JoinHandle<()>>,
}

/// The compute queue is polled at this cadence so compute threads
/// notice shutdown promptly.
const IDLE_POLL: Duration = Duration::from_millis(250);

/// Binds and starts serving `bundle` in background threads as a
/// single-model fleet: the bundle registers under
/// [`ServerConfig::default_model`] (or `"default"`), and every legacy
/// route and `/v1/models/{name}` route serves it.
///
/// # Errors
/// Propagates socket failures (bind, local_addr), registration
/// failures (invalid model name) and a zero [`ServerConfig::max_batch`].
pub fn serve(config: ServerConfig, bundle: ModelBundle) -> io::Result<ServerHandle> {
    let metrics = Arc::new(Metrics::new());
    let name = config.default_model.clone().unwrap_or_else(|| "default".to_string());
    let registry = ModelRegistry::new(name.clone(), config.max_resident, Arc::clone(&metrics));
    registry
        .insert(&name, bundle, config.bundle_path.clone())
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))?;
    serve_registry(config, Arc::new(registry), metrics)
}

/// Binds and starts serving the fleet found in
/// [`ServerConfig::models_dir`]: every `*.json` bundle in the directory
/// registers under its file stem and is routable at
/// `/v1/models/{stem}/...`.
///
/// # Errors
/// Propagates socket failures and any bundle that fails to load or
/// verify — a fleet that cannot boot completely does not boot at all.
pub fn serve_models(config: ServerConfig) -> io::Result<ServerHandle> {
    let dir = config.models_dir.clone().ok_or_else(|| {
        io::Error::new(io::ErrorKind::InvalidInput, "serve_models requires models_dir")
    })?;
    let metrics = Arc::new(Metrics::new());
    let registry = ModelRegistry::load_dir(
        &dir,
        config.default_model.clone(),
        config.max_resident,
        Arc::clone(&metrics),
    )
    .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    serve_registry(config, Arc::new(registry), metrics)
}

/// The common boot path: bind, validate shadow directives, spawn the
/// shadow executor, event loop and compute threads around an
/// already-built registry.
fn serve_registry(
    config: ServerConfig,
    registry: Arc<ModelRegistry>,
    metrics: Arc<Metrics>,
) -> io::Result<ServerHandle> {
    if config.max_batch == 0 {
        return Err(io::Error::new(io::ErrorKind::InvalidInput, "max_batch must be at least 1"));
    }
    // Lower the default model before the first request arrives; other
    // fleet members compile lazily on first use (the LRU governs them).
    if let Ok(version) = registry.default_version() {
        registry.touch(&version);
    }
    let mut shadow_routes = Vec::with_capacity(config.shadows.len());
    for spec in &config.shadows {
        for name in [&spec.primary, &spec.candidate] {
            registry.get(name).map_err(|e| {
                io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!("--shadow {}={}: {e}", spec.primary, spec.candidate),
                )
            })?;
        }
        // The primary's disagreement series reads 0 from boot on.
        metrics.shadow_disagreements(&spec.primary);
        shadow_routes.push(ShadowRoute::new(spec.clone(), config.shadow_seed));
    }
    let (shadow, shadow_thread) = if shadow_routes.is_empty() {
        (None, None)
    } else {
        let (executor, thread) =
            ShadowExecutor::start((config.queue_depth * 4).max(64), Arc::clone(&metrics));
        (Some(executor), Some(thread))
    };
    let listener =
        TcpListener::bind(
            config.addr.to_socket_addrs()?.next().ok_or_else(|| {
                io::Error::new(io::ErrorKind::InvalidInput, "unresolvable address")
            })?,
        )?;
    let addr = listener.local_addr()?;
    let (wake_rx, waker) = sys::wake_pair()?;
    let shared = Arc::new(Shared {
        registry,
        metrics,
        shadow,
        shadow_routes,
        shutting_down: AtomicBool::new(false),
        queue: BoundedQueue::new(config.queue_depth),
        completions: Completions::new(waker),
        request_timeout: config.request_timeout,
    });

    // The loop is built on this thread so bind/registration failures
    // surface as boot errors, then moves onto its own thread.
    let mut event_loop = EventLoop::new(
        listener,
        wake_rx,
        Arc::clone(&shared),
        LoopConfig {
            max_connections: config.max_connections.max(1),
            request_timeout: config.request_timeout,
            drain_timeout: config.drain_timeout,
            chunk_threshold: config.chunk_threshold,
        },
    )?;
    let loop_thread = std::thread::Builder::new()
        .name("bstc-serve-eventloop".into())
        .spawn(move || event_loop.run())
        .expect("spawn event loop");

    let n_threads = if config.threads == 0 {
        std::thread::available_parallelism().map_or(2, |n| n.get())
    } else {
        config.threads
    };
    shared.metrics.workers_configured.set(n_threads as u64);
    shared.metrics.workers_alive.set(n_threads as u64);
    let compute_threads = (0..n_threads)
        .map(|i| {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name(format!("bstc-serve-compute-{i}"))
                .spawn(move || compute(&shared, config.max_batch))
                .expect("spawn compute thread")
        })
        .collect();

    Ok(ServerHandle { addr, shared, loop_thread, compute_threads, shadow_thread })
}

/// Decrements the alive gauge when a compute thread ends, however it
/// ends, so `bstc_workers{state="alive"}` never counts a dead thread.
struct AliveGauge<'a>(&'a obs::Gauge);

impl Drop for AliveGauge<'_> {
    fn drop(&mut self) {
        self.0.dec();
    }
}

/// One compute thread: take the first queued request, drain its share
/// of what else is already queued, serve the batch, and repeat until
/// the queue closes and drains.
fn compute(shared: &Shared, max_batch: usize) {
    let _alive = AliveGauge(&shared.metrics.workers_alive);
    // One kernel scratch per thread, so steady-state batches allocate
    // nothing in the kernel; it regrows if /reload swaps in a larger
    // model.
    let mut scratch = Scratch::new();
    // Rotates the per-model group order across batches (fair scheduling
    // under mixed load).
    let mut rotation = 0usize;
    loop {
        match shared.queue.pop(IDLE_POLL) {
            Pop::Item(first) => {
                serve_drained(shared, first, max_batch, &mut scratch, rotation);
                rotation = rotation.wrapping_add(1);
            }
            Pop::Empty => continue,
            // Close drains queued items first, so every dispatched
            // request was answered by the time we get here.
            Pop::Closed => return,
        }
    }
}

/// Serves `first` and the classifies drained behind it as one batch,
/// then the request that ended the drain, if any.
fn serve_drained(
    shared: &Shared,
    first: WorkItem,
    max_batch: usize,
    scratch: &mut Scratch,
    rotation: usize,
) {
    let (batch, apart) = drain(&shared.queue, first, max_batch, |item| is_classify(&item.request));
    serve_batch(shared, batch, scratch, rotation);
    // After the batch's kernel pass, so a slow /reload never holds the
    // classifies drained before it.
    if let Some(item) = apart {
        serve_batch(shared, vec![item], scratch, rotation);
    }
}

/// Takes `first` plus its [`share`] of what is already queued and never
/// waits for more. Only items `coalesces` accepts share a batch: the
/// first queued item it refuses ends the drain and comes back apart, and
/// a refused `first` is a batch alone.
fn drain<T>(
    queue: &BoundedQueue<T>,
    first: T,
    max_batch: usize,
    coalesces: impl Fn(&T) -> bool,
) -> (Vec<T>, Option<T>) {
    let (queued, idle) = queue.backlog();
    let take = share(queued + 1, idle, max_batch);
    let joins = coalesces(&first);
    let mut batch = vec![first];
    while joins && batch.len() < take {
        match queue.try_pop() {
            Some(item) if coalesces(&item) => batch.push(item),
            Some(item) => return (batch, Some(item)),
            None => break,
        }
    }
    (batch, None)
}

/// How many of `backlog` requests one compute thread takes: an even
/// split with the `idle` threads blocked in pop (the pushes that filled
/// the queue woke them, and they take the rest), capped at `max_batch`.
/// So one thread never decodes a whole backlog serially while others
/// idle, and never leaves requests behind for threads that are busy.
fn share(backlog: usize, idle: usize, max_batch: usize) -> usize {
    backlog.div_ceil(idle + 1).min(max_batch)
}

/// Whether `request` is a classify, the one route that shares kernel
/// passes.
fn is_classify(request: &Request) -> bool {
    matches!(route_of(request.method.as_str(), request.path.as_str()), Route::Classify(_))
}

/// A `/classify` request decoded and binarized, awaiting its group's
/// kernel pass.
struct Decoded {
    version: Arc<ModelVersion>,
    /// The raw rows, kept for shadow replay.
    rows: Vec<Vec<f64>>,
    queries: Vec<BitSet>,
    /// A `samples` body (answered with a `predictions` array) rather
    /// than a single `values` vector.
    batched: bool,
    /// When decoding began (the `bstc_classify_latency_us` span).
    started: Instant,
}

/// What the decode/route step made of one request.
enum Step {
    /// Answered without the kernel.
    Respond(Response),
    /// Waiting for the batch's kernel pass.
    Classify(Decoded),
}

/// Serves one drained batch: answers every request that needs no kernel
/// pass (expired, malformed or not a classify) at once, runs one kernel
/// pass per model over the decoded classifies, and hands every response
/// back to the event loop.
/// Pure compute: no socket is touched here, so a hostile or slow client
/// can never pin a compute thread.
fn serve_batch(shared: &Shared, items: Vec<WorkItem>, scratch: &mut Scratch, rotation: usize) {
    let mut pending = Vec::new();
    for item in items {
        shared.metrics.batch_wait_us.record(micros(item.dispatched.elapsed()));
        let request_id = accept_or_mint_request_id(&item.request);
        let deadline = shared.request_timeout.map(|budget| item.started + budget);
        let step = match check_deadline(deadline, "queued for compute") {
            Some(timeout) => Step::Respond(timeout),
            None => isolated(shared, || route(shared, &item.request, deadline))
                .unwrap_or_else(Step::Respond),
        };
        match step {
            Step::Respond(response) => finish(shared, item, &request_id, response),
            Step::Classify(decoded) => pending.push((item, request_id, decoded)),
        }
    }
    if pending.is_empty() {
        return;
    }

    let batch_id = obs::log::request_id();
    let mut request_ids = String::new();
    let mut jobs = Vec::with_capacity(pending.len());
    for (_, request_id, decoded) in &mut pending {
        jobs.push(KernelJob {
            bundle: Arc::clone(&decoded.version.bundle),
            queries: std::mem::take(&mut decoded.queries),
        });
        if !request_ids.is_empty() {
            request_ids.push(',');
        }
        request_ids.push_str(request_id);
    }
    // The batch → members join: one line per execution mapping batch_id
    // to every member request id, so a request's log line (which carries
    // batch_id) resolves to the classify_batch span that served it.
    let queries: usize = jobs.iter().map(|job| job.queries.len()).sum();
    obs::log::info(
        "classify_batch",
        &[
            ("batch_id", batch_id.as_str()),
            ("request_ids", request_ids.as_str()),
            ("jobs", &jobs.len().to_string()),
            ("queries", &queries.to_string()),
        ],
    );
    shared.metrics.batch_jobs_submitted.add(jobs.len() as u64);
    let outcomes = batcher::execute(jobs, scratch, &shared.metrics, rotation);
    if outcomes.iter().any(Option::is_none) {
        obs::log::warn("batch_panicked", &[("batch_id", batch_id.as_str())]);
    }

    for ((item, request_id, decoded), predictions) in pending.into_iter().zip(outcomes) {
        shared.metrics.batch_jobs_completed.inc();
        let response = isolated(shared, || classify_response(shared, decoded, predictions))
            .unwrap_or_else(|panicked| panicked);
        finish(shared, item, &request_id, response.with_header("x-batch-id", batch_id.clone()));
    }
}

/// Panic isolation: runs one request's step under `catch_unwind`, so a
/// panic costs that request a structured 500 and ticks
/// `bstc_panics_caught_total`, and the compute thread serves on.
fn isolated<T>(shared: &Shared, step: impl FnOnce() -> T) -> Result<T, Response> {
    catch_unwind(AssertUnwindSafe(step)).map_err(|_| {
        shared.metrics.panics_caught.inc();
        error_response(
            500,
            "internal_error",
            "request handler panicked; the compute thread recovered",
        )
    })
}

/// The response to one decoded classify, from its kernel result (`None`:
/// its group's pass panicked).
fn classify_response(
    shared: &Shared,
    decoded: Decoded,
    predictions: Option<Vec<Prediction>>,
) -> Response {
    // Chaos site: a panic while building the answer, after the kernel.
    chaos::point("respond");
    let response = match predictions {
        Some(predictions) => {
            shared.metrics.samples_classified.add(predictions.len() as u64);
            maybe_shadow(shared, &decoded.version, &decoded.rows, &predictions);
            // `name@vN` on every successful classify: the client can tell
            // exactly which registry version answered, across hot swaps.
            let model_tag = format!("{}@v{}", decoded.version.name, decoded.version.version);
            classification_response(&predictions, decoded.batched).with_header("x-model", model_tag)
        }
        None => error_response(
            500,
            "internal_error",
            "batch execution failed; the compute thread recovered",
        ),
    };
    shared.metrics.classify_latency.record(micros(decoded.started.elapsed()));
    response
}

/// Records, logs and delivers one finished response to the event loop.
fn finish(shared: &Shared, item: WorkItem, request_id: &str, response: Response) {
    let WorkItem { token, gen, request, started, .. } = item;
    let response = response.with_header("x-request-id", request_id.to_string());
    let latency_us = micros(started.elapsed());
    shared.metrics.record_request(&request.path, response.status);
    shared.metrics.endpoint(&request.path).latency.record(latency_us);
    let status = response.status.to_string();
    let latency = latency_us.to_string();
    let mut fields: Vec<(&str, &str)> = vec![
        ("request_id", request_id),
        ("method", request.method.as_str()),
        ("path", request.path.as_str()),
        ("status", status.as_str()),
        ("latency_us", latency.as_str()),
    ];
    // Joins this request to the classify_batch line that names its batch.
    let batch_id = response.headers.iter().find(|(k, _)| *k == "x-batch-id").map(|(_, v)| v);
    if let Some(batch_id) = batch_id {
        fields.push(("batch_id", batch_id.as_str()));
    }
    obs::log::info("request", &fields);
    let keep_alive =
        request.keep_alive && response.status < 500 && !shared.shutting_down.load(Ordering::SeqCst);
    shared.completions.push(Done { token, gen, response, keep_alive });
}

/// Whole microseconds, saturating.
fn micros(elapsed: Duration) -> u64 {
    u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX)
}

impl ServerHandle {
    /// The actually bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// A point-in-time copy of the serving metrics.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.shared.metrics.snapshot()
    }

    /// Stops accepting, drains queued and in-flight connections (up to
    /// the configured drain deadline), and joins every thread. Returns
    /// the final metrics snapshot so callers can audit the settled
    /// ledger after every thread is gone.
    pub fn shutdown(self) -> MetricsSnapshot {
        self.shared.shutting_down.store(true, Ordering::SeqCst);
        // Nudge the poller so the loop observes the flag, begins its
        // drain (stop accepting, finish in-flight work), and exits.
        self.shared.completions.wake();
        let _ = self.loop_thread.join();
        // Closing the queue lets compute threads serve what was
        // dispatched, then exit.
        self.shared.queue.close();
        for thread in self.compute_threads {
            let _ = thread.join();
        }
        // Shadow replays are best-effort; drain what was enqueued so the
        // disagreement counters are complete, then let the thread exit.
        if let Some(shadow) = &self.shared.shadow {
            shadow.close();
        }
        if let Some(thread) = self.shadow_thread {
            let _ = thread.join();
        }
        self.shared.metrics.snapshot()
    }

    /// Blocks until the server stops (i.e. forever, absent a signal).
    pub fn wait(self) {
        let _ = self.loop_thread.join();
        for thread in self.compute_threads {
            let _ = thread.join();
        }
    }
}

/// Echoes the client's `X-Request-Id` when it is sane (non-empty, ≤ 64
/// chars, alphanumeric/`-`/`_` — it gets reflected into a response
/// header and logs), otherwise mints a fresh 16-hex-char ID.
fn accept_or_mint_request_id(request: &Request) -> String {
    request
        .header("x-request-id")
        .filter(|id| {
            !id.is_empty()
                && id.len() <= 64
                && id.bytes().all(|b| b.is_ascii_alphanumeric() || b == b'-' || b == b'_')
        })
        .map(String::from)
        .unwrap_or_else(obs::log::request_id)
}

/// `{"error": code, "detail": detail}` as bytes.
pub(crate) fn error_body(code: &str, detail: &str) -> Vec<u8> {
    serde_json::to_string(&json!({"error": code, "detail": detail}))
        .unwrap_or_else(|_| format!("{{\"error\":\"{code}\"}}"))
        .into_bytes()
}

/// Shorthand for a structured JSON error response.
fn error_response(status: u16, code: &str, detail: &str) -> Response {
    Response::json(status, error_body(code, detail))
}

/// Dispatches one parsed request: classifies are decoded for the
/// batch's kernel pass, every other route is answered here. `deadline`
/// is the wall-clock point at which the whole request's budget expires
/// (None = no deadline).
fn route(shared: &Shared, request: &Request, deadline: Option<Instant>) -> Step {
    let response = match route_of(request.method.as_str(), request.path.as_str()) {
        Route::Classify(name) => {
            return match decode_classify(shared, name, &request.body, deadline) {
                Ok(decoded) => Step::Classify(decoded),
                Err(response) => Step::Respond(response),
            }
        }
        Route::Health => handle_health(shared),
        Route::Model => handle_model(shared, None),
        Route::ModelMeta(name) => handle_model(shared, Some(name)),
        Route::Models => handle_models(shared),
        Route::Metrics => Response::text(200, shared.metrics.render()),
        Route::Reload(name) => handle_reload(shared, name, &request.body),
        Route::MethodNotAllowed => error_response(
            405,
            "method_not_allowed",
            &format!("{} is not supported on {}", request.method, request.path),
        ),
        Route::BadName(name) => error_response(
            400,
            "bad_model_name",
            &RegistryError::BadName(name.to_string()).to_string(),
        ),
        Route::NotFound => {
            error_response(404, "not_found", &format!("no route for '{}'", request.path))
        }
    };
    Step::Respond(response)
}

/// Resolves a model-name segment (`None` = the default model) to its
/// current version, or the structured error response for the caller to
/// return directly.
fn resolve_model(shared: &Shared, name: Option<&str>) -> Result<Arc<ModelVersion>, Response> {
    let result = match name {
        Some(name) => shared.registry.get(name),
        None => shared.registry.default_version(),
    };
    result.map_err(|e| error_response(e.http_status(), e.code(), &e.to_string()))
}

fn handle_health(shared: &Shared) -> Response {
    let body = match shared.registry.default_version() {
        Ok(version) => {
            json!({"status": "ok", "dataset": version.bundle.provenance.dataset.clone()})
        }
        Err(_) => json!({"status": "ok"}),
    };
    Response::json(200, serde_json::to_string(&body).expect("static shape"))
}

/// `GET /model` and `GET /v1/models/{name}`: the served model's
/// metadata, including which registry version and artifact checksum is
/// actually answering — `/model` (the legacy route) reports the default
/// model, so its response now carries `name`/`version`/`checksum` on
/// top of the PR-2 shape.
fn handle_model(shared: &Shared, name: Option<&str>) -> Response {
    let version = match resolve_model(shared, name) {
        Ok(v) => v,
        Err(response) => return response,
    };
    let bundle = &version.bundle;
    let provenance = match serde_json::to_value(&bundle.provenance) {
        Ok(v) => v,
        Err(e) => return error_response(500, "serialize_failed", &e.to_string()),
    };
    let body = json!({
        "format_version": FORMAT_VERSION,
        "name": version.name,
        "version": version.version,
        "checksum": version.checksum,
        "default": version.name == shared.registry.default_name(),
        "source": version.source.as_ref().map(|p| p.display().to_string()),
        "compiled_resident": bundle.compiled_resident(),
        "provenance": provenance,
        "n_genes": bundle.n_genes(),
        "n_items": bundle.item_names.len(),
        "n_classes": bundle.n_classes(),
        "class_names": bundle.class_names.clone()
    });
    match serde_json::to_string(&body) {
        Ok(text) => Response::json(200, text),
        Err(e) => error_response(500, "serialize_failed", &e.to_string()),
    }
}

/// `GET /v1/models`: every registered model's current version, plus
/// which name the legacy routes serve.
fn handle_models(shared: &Shared) -> Response {
    let models: Vec<Value> = shared
        .registry
        .list()
        .iter()
        .map(|v| {
            json!({
                "name": v.name,
                "version": v.version,
                "checksum": v.checksum,
                "dataset": v.bundle.provenance.dataset,
                "n_genes": v.bundle.n_genes(),
                "n_classes": v.bundle.n_classes(),
                "compiled_resident": v.bundle.compiled_resident(),
            })
        })
        .collect();
    let body = json!({"default": shared.registry.default_name(), "models": models});
    match serde_json::to_string(&body) {
        Ok(text) => Response::json(200, text),
        Err(e) => error_response(500, "serialize_failed", &e.to_string()),
    }
}

/// 408 if the request's wall-clock budget has already expired.
fn check_deadline(deadline: Option<Instant>, phase: &str) -> Option<Response> {
    let deadline = deadline?;
    if Instant::now() >= deadline {
        return Some(error_response(
            408,
            "request_timeout",
            &format!("request exceeded its wall-clock budget while {phase}"),
        ));
    }
    None
}

/// Decodes a `POST /classify` body — either `{"values": [..]}` (one
/// vector) or `{"samples": [[..], ..]}` (a batch, answered with one
/// prediction per row, in order) — and binarizes its rows against the
/// resolved model, or returns the structured error response.
fn decode_classify(
    shared: &Shared,
    name: Option<&str>,
    body: &[u8],
    deadline: Option<Instant>,
) -> Result<Decoded, Response> {
    let started = Instant::now();
    // Chaos site: an injected panic here exercises the catch_unwind
    // isolation exactly where real classify bugs would fire.
    chaos::point("classify");
    let text = std::str::from_utf8(body)
        .map_err(|_| error_response(400, "bad_encoding", "body must be UTF-8 JSON"))?;
    let value: Value =
        serde_json::from_str(text).map_err(|e| error_response(400, "bad_json", &e.to_string()))?;
    let version = resolve_model(shared, name)?;
    // LRU touch: marks this model just-used and ensures its compiled
    // form is resident (evicting the coldest past the cap), so the
    // kernel pass reuses the cached slot for free.
    shared.registry.touch(&version);

    let (rows, batched) = if let Some(values) = value.get("values") {
        let row = parse_vector(values).map_err(|d| error_response(400, "bad_vector", &d))?;
        (vec![row], false)
    } else if let Some(samples) = value.get("samples") {
        let Some(elements) = samples.as_array() else {
            return Err(error_response(400, "bad_vector", "'samples' must be an array of arrays"));
        };
        let mut rows = Vec::with_capacity(elements.len());
        for (i, element) in elements.iter().enumerate() {
            let row = parse_vector(element).map_err(|detail| {
                error_response(400, "bad_vector", &format!("samples[{i}]: {detail}"))
            })?;
            rows.push(row);
        }
        (rows, true)
    } else {
        return Err(error_response(400, "bad_request", "body must contain 'values' or 'samples'"));
    };

    let bundle = &version.bundle;
    let mut queries = Vec::with_capacity(rows.len());
    for (i, row) in rows.iter().enumerate() {
        // Large batches honour the same deadline as the reads: check
        // every few rows so a huge batch cannot smuggle in unbounded
        // compute past the admission controls.
        if i % 64 == 0 {
            if let Some(timeout) = check_deadline(deadline, "binarizing the batch") {
                return Err(timeout);
            }
        }
        match bundle.query_for_row(row) {
            Ok(q) => queries.push(q),
            Err(e) => {
                let at = if batched { format!("samples[{i}]: ") } else { String::new() };
                return Err(error_response(400, "wrong_length", &format!("{at}{e}")));
            }
        }
    }
    Ok(Decoded { version, rows, queries, batched, started })
}

/// Mirrors a successfully classified request to its configured shadow
/// candidate, when sampling selects it. Enqueue-only: the candidate
/// replay happens on the shadow thread after this response is already
/// on its way out, so the primary path pays one queue push at most.
fn maybe_shadow(
    shared: &Shared,
    version: &ModelVersion,
    rows: &[Vec<f64>],
    predictions: &[Prediction],
) {
    let Some(executor) = shared.shadow.as_ref() else { return };
    let Some(route) = shared.shadow_route(&version.name) else { return };
    if !route.sample() {
        return;
    }
    // The candidate resolves at request time, so swapping the candidate
    // model mid-run redirects subsequent mirrors to its new version.
    let Ok(candidate) = shared.registry.get(&route.spec().candidate) else { return };
    executor.enqueue(ShadowJob {
        model: version.name.clone(),
        candidate: Arc::clone(&candidate.bundle),
        rows: rows.to_vec(),
        primary_classes: predictions.iter().map(|p| p.class).collect(),
    });
}

/// Serializes predictions into the `/classify` response shape (single
/// `prediction` or `predictions` array, matching the request shape).
fn classification_response(predictions: &[Prediction], batched: bool) -> Response {
    let result = if batched {
        serde_json::to_value(predictions).map(|ps| json!({"predictions": ps}))
    } else {
        serde_json::to_value(&predictions[0]).map(|p| json!({"prediction": p}))
    };
    match result.and_then(|body| serde_json::to_string(&body)) {
        Ok(text) => Response::json(200, text),
        Err(e) => error_response(500, "serialize_failed", &e.to_string()),
    }
}

/// `POST /reload` and `POST /v1/models/{name}/reload`: atomic per-model
/// version swap. Re-reads the model's recorded source artifact (or,
/// with a `{"path": ...}` body, another file), verifies it completely,
/// and swaps it in with a bumped version number. A file that cannot be
/// loaded or validated never interrupts serving: the old version stays
/// live and the failure is a structured 409/500 plus a
/// `bstc_model_reload_failures_total` tick — rollback is the swap never
/// having happened.
fn handle_reload(shared: &Shared, name: Option<&str>, body: &[u8]) -> Response {
    // Chaos site: a slow reload pins this worker, not the server.
    chaos::point("reload");
    let override_path = match std::str::from_utf8(body) {
        Ok(text) if !text.trim().is_empty() => match serde_json::from_str::<Value>(text) {
            Ok(v) => v.get("path").and_then(Value::as_str).map(PathBuf::from),
            Err(e) => return error_response(400, "bad_json", &e.to_string()),
        },
        _ => None,
    };
    let current = match resolve_model(shared, name) {
        Ok(v) => v,
        Err(response) => return response,
    };
    if override_path.is_none() && current.source.is_none() {
        return error_response(
            400,
            "no_bundle_path",
            "server was started without --model file; pass {\"path\": ...}",
        );
    }
    match shared.registry.swap(&current.name, override_path) {
        Ok(next) => {
            shared.metrics.reloads.inc();
            let body = json!({
                "reloaded": true,
                "model": next.name,
                "version": next.version,
                "checksum": next.checksum,
                "path": next.source.as_ref().map(|p| p.display().to_string()),
                "dataset": next.bundle.provenance.dataset
            });
            Response::json(200, serde_json::to_string(&body).expect("static shape"))
        }
        // The old version keeps serving: a bad file must never take the
        // process down or leave it empty-handed.
        Err(e) => {
            shared.metrics.reload_failures.inc();
            error_response(e.http_status(), e.code(), &e.to_string())
        }
    }
}

/// Parses a JSON array of numbers into an `f64` vector.
fn parse_vector(value: &Value) -> Result<Vec<f64>, String> {
    let Some(elements) = value.as_array() else {
        return Err(format!("expected an array of numbers, got {}", value.kind()));
    };
    let mut row = Vec::with_capacity(elements.len());
    for (i, element) in elements.iter().enumerate() {
        match element.as_f64() {
            Some(v) => row.push(v),
            None => return Err(format!("element {i} is {}, not a number", element.kind())),
        }
    }
    Ok(row)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bundle::Provenance;
    use microarray::ContinuousDataset;

    fn toy_bundle() -> ModelBundle {
        let data = ContinuousDataset::new(
            vec!["gA".into(), "gB".into()],
            vec!["neg".into(), "pos".into()],
            vec![
                vec![1.0, 5.0],
                vec![1.2, 3.0],
                vec![0.8, 5.5],
                vec![1.1, 2.9],
                vec![9.0, 5.1],
                vec![9.2, 3.2],
                vec![8.9, 5.2],
                vec![9.1, 3.1],
            ],
            vec![0, 0, 0, 0, 1, 1, 1, 1],
        )
        .unwrap();
        ModelBundle::train(&data, Provenance::new("toy", None)).unwrap()
    }

    fn shared() -> Shared {
        let metrics = Arc::new(Metrics::new());
        let registry = ModelRegistry::new("default", 0, Arc::clone(&metrics));
        registry.insert("default", toy_bundle(), None).unwrap();
        let (_wake_rx, waker) = sys::wake_pair().unwrap();
        Shared {
            registry: Arc::new(registry),
            metrics,
            shadow: None,
            shadow_routes: Vec::new(),
            shutting_down: AtomicBool::new(false),
            queue: BoundedQueue::new(8),
            completions: Completions::new(waker),
            request_timeout: Some(Duration::from_secs(10)),
        }
    }

    fn request(method: &str, path: &str, body: &str) -> Request {
        Request {
            method: method.into(),
            path: path.into(),
            headers: vec![],
            body: body.as_bytes().to_vec(),
            keep_alive: false,
            http11: true,
        }
    }

    /// Queues `requests` (each with its first-byte instant) and serves
    /// them the way a compute thread does, draining batches until the
    /// queue is empty; returns the responses in request order.
    fn serve_all(shared: &Shared, requests: Vec<(Request, Instant)>) -> Vec<Response> {
        let _gate = crate::batcher::chaos_site_gate();
        for (token, (request, started)) in requests.into_iter().enumerate() {
            let item = WorkItem { token, gen: 0, request, started, dispatched: Instant::now() };
            assert!(shared.queue.push(item).is_ok(), "test queue overflow");
        }
        let mut scratch = Scratch::new();
        while let Some(first) = shared.queue.try_pop() {
            serve_drained(shared, first, 32, &mut scratch, 0);
        }
        let mut done = shared.completions.drain();
        done.sort_by_key(|d| d.token);
        done.into_iter().map(|d| d.response).collect()
    }

    fn post(shared: &Shared, path: &str, body: &str) -> Response {
        let mut responses = serve_all(shared, vec![(request("POST", path, body), Instant::now())]);
        responses.pop().expect("one response")
    }

    #[test]
    fn classify_single_and_batch() {
        let s = shared();
        let r = post(&s, "/classify", "{\"values\": [1.0, 4.0]}");
        assert_eq!(r.status, 200);
        let v: Value = serde_json::from_str(std::str::from_utf8(&r.body).unwrap()).unwrap();
        assert_eq!(v.get("prediction").unwrap().get("label").unwrap().as_str(), Some("neg"));

        let r = post(&s, "/classify", "{\"samples\": [[1.0, 4.0], [9.0, 4.0]]}");
        assert_eq!(r.status, 200);
        let v: Value = serde_json::from_str(std::str::from_utf8(&r.body).unwrap()).unwrap();
        let ps = v.get("predictions").unwrap().as_array().unwrap();
        assert_eq!(ps.len(), 2);
        assert_eq!(ps[1].get("label").unwrap().as_str(), Some("pos"));
    }

    #[test]
    fn classify_errors_are_structured_4xx() {
        let s = shared();
        for (body, code) in [
            ("{", "bad_json"),
            ("{\"values\": [1., 4.0]}", "bad_json"),
            ("{\"nope\": 1}", "bad_request"),
            ("{\"values\": \"x\"}", "bad_vector"),
            ("{\"values\": [1.0, \"x\"]}", "bad_vector"),
            ("{\"values\": [1.0]}", "wrong_length"),
            ("{\"samples\": [[1.0, 2.0], [1.0]]}", "wrong_length"),
        ] {
            let r = post(&s, "/classify", body);
            assert_eq!(r.status, 400, "{body}");
            let v: Value = serde_json::from_str(std::str::from_utf8(&r.body).unwrap()).unwrap();
            assert_eq!(v.get("error").unwrap().as_str(), Some(code), "{body}");
            assert!(v.get("detail").is_some(), "{body}");
        }
    }

    #[test]
    fn unknown_routes_and_methods() {
        let s = shared();
        assert_eq!(post(&s, "/nope", "").status, 404);
        assert_eq!(post(&s, "/health", "").status, 405);
    }

    fn get(shared: &Shared, path: &str) -> Response {
        let mut responses = serve_all(shared, vec![(request("GET", path, ""), Instant::now())]);
        responses.pop().expect("one response")
    }

    #[test]
    fn registry_routes_resolve_names_and_404_unknowns() {
        let s = shared();
        s.registry.insert("extra", toy_bundle(), None).unwrap();

        // Named classify answers with the model tag; legacy /classify
        // is an alias for the default model.
        let r = post(&s, "/v1/models/extra/classify", "{\"values\": [1.0, 4.0]}");
        assert_eq!(r.status, 200);
        let tag = r.headers.iter().find(|(k, _)| *k == "x-model").map(|(_, v)| v.as_str());
        assert_eq!(tag, Some("extra@v1"));
        let r = post(&s, "/classify", "{\"values\": [1.0, 4.0]}");
        let tag = r.headers.iter().find(|(k, _)| *k == "x-model").map(|(_, v)| v.as_str());
        assert_eq!(tag, Some("default@v1"));

        // Unknown names are structured 404s, bad names structured 400s.
        let r = post(&s, "/v1/models/ghost/classify", "{\"values\": [1.0, 4.0]}");
        assert_eq!(r.status, 404);
        let v: Value = serde_json::from_str(std::str::from_utf8(&r.body).unwrap()).unwrap();
        assert_eq!(v.get("error").unwrap().as_str(), Some("unknown_model"));
        let r = post(&s, "/v1/models/.bad/classify", "{\"values\": [1.0, 4.0]}");
        assert_eq!(r.status, 400);
        let v: Value = serde_json::from_str(std::str::from_utf8(&r.body).unwrap()).unwrap();
        assert_eq!(v.get("error").unwrap().as_str(), Some("bad_model_name"));

        // Listing and per-model metadata.
        let r = get(&s, "/v1/models");
        assert_eq!(r.status, 200);
        let v: Value = serde_json::from_str(std::str::from_utf8(&r.body).unwrap()).unwrap();
        assert_eq!(v.get("default").unwrap().as_str(), Some("default"));
        assert_eq!(v.get("models").unwrap().as_array().unwrap().len(), 2);
        let r = get(&s, "/v1/models/extra");
        assert_eq!(r.status, 200);
        let v: Value = serde_json::from_str(std::str::from_utf8(&r.body).unwrap()).unwrap();
        assert_eq!(v.get("name").unwrap().as_str(), Some("extra"));
        assert_eq!(v.get("version").unwrap().as_u64(), Some(1));
        assert!(v.get("checksum").unwrap().as_str().unwrap().starts_with("fnv1a64:"));
        assert_eq!(v.get("default").unwrap().as_bool(), Some(false));
        assert_eq!(get(&s, "/v1/models/ghost").status, 404);

        // /model reports the default model's registry identity.
        let r = get(&s, "/model");
        let v: Value = serde_json::from_str(std::str::from_utf8(&r.body).unwrap()).unwrap();
        assert_eq!(v.get("name").unwrap().as_str(), Some("default"));
        assert_eq!(v.get("default").unwrap().as_bool(), Some(true));
    }

    #[test]
    fn shadowed_classifies_enqueue_and_count_disagreements() {
        let mut s = shared();
        // A label-flipped candidate guarantees disagreement on every row.
        let data = ContinuousDataset::new(
            vec!["gA".into(), "gB".into()],
            vec!["neg".into(), "pos".into()],
            vec![
                vec![1.0, 5.0],
                vec![1.2, 3.0],
                vec![0.8, 5.5],
                vec![1.1, 2.9],
                vec![9.0, 5.1],
                vec![9.2, 3.2],
                vec![8.9, 5.2],
                vec![9.1, 3.1],
            ],
            vec![1, 1, 1, 1, 0, 0, 0, 0],
        )
        .unwrap();
        let flipped = ModelBundle::train(&data, Provenance::new("flipped", None)).unwrap();
        s.registry.insert("candidate", flipped, None).unwrap();
        let (executor, thread) = ShadowExecutor::start(64, Arc::clone(&s.metrics));
        s.shadow = Some(executor);
        s.shadow_routes = vec![ShadowRoute::new(
            ShadowSpec { primary: "default".into(), candidate: "candidate".into(), percent: 100.0 },
            7,
        )];
        for _ in 0..3 {
            assert_eq!(post(&s, "/classify", "{\"values\": [1.0, 4.0]}").status, 200);
        }
        s.shadow.as_ref().unwrap().close();
        thread.join().unwrap();
        let snap = s.metrics.snapshot();
        assert_eq!(snap.shadow_requests, 3);
        assert_eq!(snap.shadow_disagreements, 3);
        let text = s.metrics.render();
        assert!(text.contains("bstc_shadow_disagreements_total{model=\"default\"} 3"), "{text}");
    }

    #[test]
    fn reload_without_path_is_a_structured_error() {
        let s = shared();
        let r = post(&s, "/reload", "");
        assert_eq!(r.status, 400);
        assert!(std::str::from_utf8(&r.body).unwrap().contains("no_bundle_path"));
    }

    #[test]
    fn classifies_carry_the_batch_id_and_balance_the_job_ledger() {
        let s = shared();
        let r = post(&s, "/classify", "{\"values\": [1.0, 4.0]}");
        assert_eq!(r.status, 200);
        assert!(
            r.headers.iter().any(|(k, _)| *k == "x-batch-id"),
            "classify responses carry the batch id for log joins"
        );
        assert!(r.headers.iter().any(|(k, _)| *k == "x-request-id"));
        // Multi-sample bodies ride the kernel as one job, too.
        let r = post(&s, "/classify", "{\"samples\": [[1.0, 4.0], [9.0, 4.0]]}");
        assert_eq!(r.status, 200);
        let snap = s.metrics.snapshot();
        assert_eq!(snap.batch_jobs_submitted, 2);
        assert_eq!(snap.batch_jobs_completed, 2);
        assert_eq!(snap.samples_classified, 3);
    }

    #[test]
    fn expired_health_and_classifies_are_answered_with_one_kernel_pass() {
        let mut s = shared();
        s.request_timeout = Some(Duration::from_millis(300));
        let expired = Instant::now();
        std::thread::sleep(Duration::from_millis(350));
        let classify = "{\"values\": [1.0, 4.0]}";
        // The /health ends the first drain; the two live classifies
        // queued behind it form the next batch.
        let responses = serve_all(
            &s,
            vec![
                (request("POST", "/classify", classify), expired),
                (request("GET", "/health", ""), Instant::now()),
                (request("POST", "/classify", classify), Instant::now()),
                (request("POST", "/classify", "{\"values\": [9.0, 4.0]}"), Instant::now()),
            ],
        );
        let statuses: Vec<u16> = responses.iter().map(|r| r.status).collect();
        assert_eq!(statuses, [408, 200, 200, 200]);
        assert!(std::str::from_utf8(&responses[0].body).unwrap().contains("request_timeout"));
        let v: Value =
            serde_json::from_str(std::str::from_utf8(&responses[3].body).unwrap()).unwrap();
        assert_eq!(v.get("prediction").unwrap().get("label").unwrap().as_str(), Some("pos"));
        // Both live classifies shared one kernel pass over one bundle.
        let snap = s.metrics.snapshot();
        assert_eq!(snap.batches_executed, 1);
        assert_eq!(snap.batch_model_switches, 0);
        assert_eq!(snap.batch_jobs_submitted, 2);
        assert_eq!(snap.request_timeouts, 1);
    }

    #[test]
    fn a_panic_building_the_answer_is_a_500_and_the_next_classify_is_served() {
        let s = shared();
        let _gate = crate::batcher::chaos_site_gate();
        chaos::inject("respond", chaos::Fault::Panic, chaos::Trigger::Times(1));
        let items = ["{\"values\": [1.0, 4.0]}", "{\"values\": [9.0, 4.0]}"]
            .into_iter()
            .enumerate()
            .map(|(token, body)| WorkItem {
                token,
                gen: 0,
                request: request("POST", "/classify", body),
                started: Instant::now(),
                dispatched: Instant::now(),
            })
            .collect();
        serve_batch(&s, items, &mut Scratch::new(), 0);
        chaos::clear_site("respond");
        let mut done = s.completions.drain();
        done.sort_by_key(|d| d.token);
        let statuses: Vec<u16> = done.iter().map(|d| d.response.status).collect();
        assert_eq!(statuses, [500, 200], "the panic costs its own request only");
        assert!(done[0].response.headers.iter().any(|(k, _)| *k == "x-batch-id"));
        let snap = s.metrics.snapshot();
        assert_eq!(snap.panics_caught, 1);
        assert_eq!(snap.batch_jobs_submitted, snap.batch_jobs_completed);
    }

    #[test]
    fn drain_stops_at_max_batch_and_leaves_the_rest() {
        let queue = BoundedQueue::new(8);
        for i in 1..=6 {
            queue.push(i).unwrap();
        }
        let first = match queue.pop(Duration::ZERO) {
            Pop::Item(first) => first,
            _ => unreachable!("six items were queued"),
        };
        let (batch, apart) = drain(&queue, first, 4, |_| true);
        assert_eq!(batch, [1, 2, 3, 4]);
        assert_eq!(apart, None);
        assert_eq!(queue.try_pop(), Some(5), "the rest stay queued for the next drain");
        assert_eq!(queue.try_pop(), Some(6));
    }

    #[test]
    fn the_share_splits_the_backlog_with_idle_threads_only() {
        // No thread idle: the others are busy, so take it all.
        assert_eq!(share(7, 0, 32), 7);
        // Seven requests, one idle thread: take four, leave it three.
        assert_eq!(share(7, 1, 32), 4);
        assert_eq!(share(7, 2, 32), 3);
        // Always the first request, and never more than max_batch.
        assert_eq!(share(1, 5, 32), 1);
        assert_eq!(share(100, 1, 32), 32);
    }

    #[test]
    fn drain_of_an_empty_queue_returns_at_once() {
        let queue = BoundedQueue::new(8);
        let started = Instant::now();
        let (batch, apart) = drain(&queue, 7, 32, |_| true);
        assert_eq!(batch, [7]);
        assert_eq!(apart, None);
        assert!(started.elapsed() < IDLE_POLL, "drain must never wait for more work");
    }

    #[test]
    fn a_request_that_does_not_coalesce_ends_the_drain() {
        let even = |n: &u32| n.is_multiple_of(2);
        let queue = BoundedQueue::new(8);
        for n in [4, 5, 6] {
            queue.push(n).unwrap();
        }
        let (batch, apart) = drain(&queue, 2, 32, even);
        assert_eq!((batch, apart), (vec![2, 4], Some(5)));
        assert_eq!(queue.try_pop(), Some(6), "items behind it stay queued");
        // A first item that does not coalesce is a batch of its own.
        queue.push(8).unwrap();
        assert_eq!(drain(&queue, 3, 32, even), (vec![3], None));
        assert_eq!(queue.try_pop(), Some(8));
    }

    #[test]
    fn a_zero_max_batch_is_refused() {
        let config = ServerConfig { max_batch: 0, ..ServerConfig::default() };
        match serve(config, toy_bundle()) {
            Ok(_) => panic!("max_batch 0 must not boot a server"),
            Err(e) => assert_eq!(e.kind(), io::ErrorKind::InvalidInput),
        }
    }
}
