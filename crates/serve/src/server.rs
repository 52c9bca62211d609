//! The concurrent inference server: an event-driven connection core
//! (one thread owning every socket — the `eventloop` module) feeding
//! a fixed pool of compute workers over a bounded hand-off queue, with
//! the live [`ModelBundle`] behind `RwLock<Arc<...>>` so `POST /reload`
//! can hot-swap models while classify traffic keeps flowing.
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
//! — can degrade the pool:
//!
//! * **Panic isolation**: each request handler runs under
//!   `catch_unwind`; a panic becomes a `500 {"error":"internal_error"}`
//!   and a `bstc_panics_caught_total` tick, never a dead worker.
//! * **Self-healing**: a supervisor thread reaps any worker that does
//!   die and spawns a replacement (`bstc_workers_respawned_total`), so
//!   the pool returns to full strength without intervention.
//! * **Bounded admission**: the loop→worker hand-off is a fixed-depth,
//!   poison-free queue, and concurrent connections are capped at
//!   [`ServerConfig::max_connections`]; past either limit the client is
//!   immediately answered `503 {"error":"overloaded"}` with
//!   `Retry-After`, keeping the latency of admitted requests bounded
//!   instead of growing a queue without limit.
//! * **Workers never block on clients**: sockets live exclusively with
//!   the event loop; a slow or idle client costs a parser state and an
//!   fd, not a worker thread. Ten thousand idle keep-alive connections
//!   leave the pool fully available.
//! * **Request deadlines**: a wall-clock budget
//!   ([`ServerConfig::request_timeout`]) runs from a request's first
//!   byte through its response; slow-loris clients and stalled reads
//!   become clean 408s via the loop's timer wheel. Graceful shutdown
//!   drains in-flight work under [`ServerConfig::drain_timeout`].

use crate::batcher::{Batcher, BatcherConfig, Completion, Outcome};
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
use serde_json::{json, Value};
use std::io;
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::RecvTimeoutError;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How the server is started.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address, e.g. `127.0.0.1:8642` (port 0 picks an ephemeral one).
    pub addr: String,
    /// Worker threads handling connections (0 = number of CPUs).
    pub threads: usize,
    /// File `POST /reload` re-reads; `None` disables reloading.
    pub bundle_path: Option<PathBuf>,
    /// Parsed requests that may wait for a worker; requests beyond this
    /// are shed with `503` + `Retry-After` instead of queued.
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
    /// before abandoning the remaining workers.
    pub drain_timeout: Duration,
    /// Most `/classify` jobs coalesced into one batch-kernel execution
    /// (`--max-batch`); 0 disables cross-connection batching entirely.
    pub max_batch: usize,
    /// How long a lone queued job waits for company before the batcher
    /// executes it anyway (`--batch-wait-us`).
    pub batch_wait: Duration,
    /// Column-block budget of the batch-sweep kernel, in bytes of
    /// compiled mask data (`--kernel-block-bytes`); 0 uses the built-in
    /// default (half a typical L2).
    pub kernel_block_bytes: usize,
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
            batch_wait: Duration::from_micros(200),
            kernel_block_bytes: 0,
            models_dir: None,
            default_model: None,
            max_resident: 0,
            shadows: Vec::new(),
            shadow_seed: 0x5eed_cafe,
        }
    }
}

/// State shared by the event loop and every worker.
pub(crate) struct Shared {
    /// The model fleet: every named version, swaps, compiled residency.
    pub(crate) registry: Arc<ModelRegistry>,
    /// Shared with the batcher thread, which records batch metrics.
    pub(crate) metrics: Arc<Metrics>,
    /// The cross-connection micro-batcher; `None` when `max_batch` is 0
    /// (workers then classify inline, the pre-batching behavior).
    pub(crate) batcher: Option<Batcher>,
    /// The asynchronous shadow replayer; `None` without `--shadow`.
    pub(crate) shadow: Option<ShadowExecutor>,
    /// Per-primary shadow sampling state, resolved against the registry
    /// at boot (name-ordered, tiny: linear lookup).
    pub(crate) shadow_routes: Vec<ShadowRoute>,
    pub(crate) shutting_down: AtomicBool,
    /// Loop → workers: fully parsed requests awaiting compute. Full
    /// means the loop sheds the request with an immediate `503`.
    pub(crate) queue: BoundedQueue<WorkItem>,
    /// Workers → loop: finished responses plus the wake pipe.
    pub(crate) completions: Completions,
    pub(crate) request_timeout: Option<Duration>,
    pub(crate) drain_timeout: Duration,
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
    supervisor: JoinHandle<()>,
    batcher_thread: Option<JoinHandle<()>>,
    shadow_thread: Option<JoinHandle<()>>,
}

/// The worker queue is polled at this cadence so workers notice
/// shutdown promptly.
const IDLE_POLL: Duration = Duration::from_millis(250);

/// How often the supervisor checks the pool for dead workers.
const SUPERVISE_POLL: Duration = Duration::from_millis(20);

/// Binds and starts serving `bundle` in background threads as a
/// single-model fleet: the bundle registers under
/// [`ServerConfig::default_model`] (or `"default"`), and every legacy
/// route and `/v1/models/{name}` route serves it.
///
/// # Errors
/// Propagates socket failures (bind, local_addr) and registration
/// failures (invalid model name).
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
/// worker pool, batcher, shadow executor, event loop, and supervisor
/// around an already-built registry.
fn serve_registry(
    config: ServerConfig,
    registry: Arc<ModelRegistry>,
    metrics: Arc<Metrics>,
) -> io::Result<ServerHandle> {
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
    let (batcher, batcher_thread) = if config.max_batch > 0 {
        let (batcher, thread) = Batcher::start(
            BatcherConfig {
                max_batch: config.max_batch,
                batch_wait: config.batch_wait,
                // Roomy enough that every admitted connection can have a
                // job in flight before submissions fall back inline.
                queue_depth: (config.queue_depth * 4).max(64),
                kernel_block_bytes: config.kernel_block_bytes,
            },
            Arc::clone(&metrics),
        );
        (Some(batcher), Some(thread))
    } else {
        (None, None)
    };
    let (wake_rx, waker) = sys::wake_pair()?;
    let shared = Arc::new(Shared {
        registry,
        metrics,
        batcher,
        shadow,
        shadow_routes,
        shutting_down: AtomicBool::new(false),
        queue: BoundedQueue::new(config.queue_depth),
        completions: Completions::new(waker),
        request_timeout: config.request_timeout,
        drain_timeout: config.drain_timeout,
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

    let n_workers = if config.threads == 0 {
        std::thread::available_parallelism().map_or(2, |n| n.get())
    } else {
        config.threads
    };
    shared.metrics.set_workers_configured(n_workers as u64);
    shared.metrics.set_workers_alive(n_workers as u64);
    let workers: Vec<JoinHandle<()>> =
        (0..n_workers).map(|i| spawn_worker(i, Arc::clone(&shared))).collect();

    let supervisor = {
        let shared = Arc::clone(&shared);
        std::thread::Builder::new()
            .name("bstc-serve-supervisor".into())
            .spawn(move || supervise(shared, workers))
            .expect("spawn supervisor")
    };

    Ok(ServerHandle { addr, shared, loop_thread, supervisor, batcher_thread, shadow_thread })
}

/// Spawns one pool worker. `generation` only names the thread.
fn spawn_worker(generation: usize, shared: Arc<Shared>) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name(format!("bstc-serve-worker-{generation}"))
        .spawn(move || {
            // One scratch per worker: the BSTCE kernels under every
            // /classify on this thread reuse it, so steady-state
            // classification allocates nothing. It simply regrows if
            // /reload swaps in a larger model.
            let mut scratch = Scratch::new();
            loop {
                // Chaos site: hard worker death, *before* a request is
                // claimed, so an injected kill never orphans a client.
                chaos::point("worker");
                match shared.queue.pop(IDLE_POLL) {
                    Pop::Item(item) => process(&shared, item, &mut scratch),
                    Pop::Empty => continue,
                    Pop::Closed => break,
                }
            }
        })
        .expect("spawn worker")
}

/// Executes one parsed request and delivers the response back to the
/// event loop. Pure compute: no socket is touched here, so a hostile or
/// slow client can never pin a worker.
fn process(shared: &Shared, item: WorkItem, scratch: &mut Scratch) {
    let WorkItem { token, gen, request, started } = item;
    let request_id = accept_or_mint_request_id(&request);
    let deadline = shared.request_timeout.map(|budget| started + budget);
    // Panic isolation: whatever a handler does, the worker survives and
    // the client gets a structured 500.
    let response = match catch_unwind(AssertUnwindSafe(|| {
        route(shared, &request, scratch, deadline, &request_id)
    })) {
        Ok(response) => response,
        Err(_) => {
            // The unwound handler may have left the scratch
            // mid-mutation; replace it wholesale.
            *scratch = Scratch::new();
            shared.metrics.record_panic_caught();
            error_response(500, "internal_error", "request handler panicked; the worker recovered")
        }
    };
    let response = response.with_header("x-request-id", request_id.clone());
    let latency_us = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
    shared.metrics.record_request(&request.path, response.status);
    shared.metrics.record_route_latency(&request.path, latency_us);
    let status = response.status.to_string();
    let latency = latency_us.to_string();
    let mut fields: Vec<(&str, &str)> = vec![
        ("request_id", request_id.as_str()),
        ("method", request.method.as_str()),
        ("path", request.path.as_str()),
        ("status", status.as_str()),
        ("latency_us", latency.as_str()),
    ];
    // Joins this request to the classify_batch span that served it (the
    // batcher logged batch_id → request_ids).
    let batch_id = response.headers.iter().find(|(k, _)| *k == "x-batch-id").map(|(_, v)| v);
    if let Some(batch_id) = batch_id {
        fields.push(("batch_id", batch_id.as_str()));
    }
    obs::log::info("request", &fields);
    let keep_alive =
        request.keep_alive && response.status < 500 && !shared.shutting_down.load(Ordering::SeqCst);
    shared.completions.push(Done { token, gen, response, keep_alive });
}

/// Reaps dead workers, respawns them while the server is live, and
/// drains the pool (bounded by the drain deadline) during shutdown.
fn supervise(shared: Arc<Shared>, mut workers: Vec<JoinHandle<()>>) {
    let mut generation = workers.len();
    let mut drain_started: Option<Instant> = None;
    loop {
        let draining = shared.queue.is_closed();
        let mut i = 0;
        while i < workers.len() {
            if workers[i].is_finished() {
                let worker = workers.swap_remove(i);
                let died = worker.join().is_err();
                if died && !draining {
                    shared.metrics.record_worker_respawned();
                    workers.push(spawn_worker(generation, Arc::clone(&shared)));
                    generation += 1;
                }
            } else {
                i += 1;
            }
        }
        shared.metrics.set_workers_alive(workers.len() as u64);
        if draining {
            if workers.is_empty() {
                return;
            }
            let started = *drain_started.get_or_insert_with(Instant::now);
            if started.elapsed() >= shared.drain_timeout {
                // The remaining workers are pinned by connections that
                // refuse to finish; abandon them so shutdown completes.
                return;
            }
        }
        std::thread::sleep(SUPERVISE_POLL);
    }
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
        // Closing the queue lets workers drain what was dispatched, then
        // exit; the supervisor stops respawning and joins the workers.
        self.shared.queue.close();
        let _ = self.supervisor.join();
        // Workers are gone, so no further submissions: close the batcher
        // last. Its queue drains admitted jobs before the thread exits,
        // so no job is stranded (their workers already resolved by now,
        // but the ledger still balances).
        if let Some(batcher) = &self.shared.batcher {
            batcher.close();
        }
        if let Some(thread) = self.batcher_thread {
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
        let _ = self.supervisor.join();
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

/// Dispatches one parsed request. `deadline` is the wall-clock point at
/// which the whole request's budget expires (None = no deadline);
/// `request_id` rides along so batched classifies can be joined to
/// their batch execution in the logs.
fn route(
    shared: &Shared,
    request: &Request,
    scratch: &mut Scratch,
    deadline: Option<Instant>,
    request_id: &str,
) -> Response {
    match route_of(request.method.as_str(), request.path.as_str()) {
        Route::Health => handle_health(shared),
        Route::Model => handle_model(shared, None),
        Route::ModelMeta(name) => handle_model(shared, Some(name)),
        Route::Models => handle_models(shared),
        Route::Metrics => {
            // Server metrics plus the process-global stage registry and
            // volume counters, so one scrape covers serving latency and
            // (when this process also trained) the per-stage pipeline
            // cost and the BST builder's work counters.
            let mut text = shared.metrics.render();
            text.push_str(&obs::global().render_prometheus("bstc_stage_duration_us", "stage"));
            text.push_str(&obs::counters().render_prometheus());
            Response::text(200, text)
        }
        Route::Classify(name) => {
            handle_classify(shared, name, &request.body, scratch, deadline, request_id)
        }
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
    }
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

/// Upper bound on how long a worker waits for its batch completion when
/// the server runs without request deadlines (tests, mostly).
const BATCH_RECV_FALLBACK: Duration = Duration::from_secs(30);

/// `POST /classify` body: either `{"values": [..]}` (one vector) or
/// `{"samples": [[..], ..]}` (a batch). Batches answer with one
/// prediction per row, in order.
///
/// With batching enabled the worker binarizes the rows, submits them as
/// one job to the [`Batcher`], and blocks on the completion (bounded by
/// the request deadline); a full batcher queue degrades gracefully to
/// the inline per-query path on this worker.
fn handle_classify(
    shared: &Shared,
    name: Option<&str>,
    body: &[u8],
    scratch: &mut Scratch,
    deadline: Option<Instant>,
    request_id: &str,
) -> Response {
    let started = Instant::now();
    // Chaos site: an injected panic here exercises the catch_unwind
    // isolation exactly where real classify bugs would fire.
    chaos::point("classify");
    let text = match std::str::from_utf8(body) {
        Ok(t) => t,
        Err(_) => return error_response(400, "bad_encoding", "body must be UTF-8 JSON"),
    };
    let value: Value = match serde_json::from_str(text) {
        Ok(v) => v,
        Err(e) => return error_response(400, "bad_json", &e.to_string()),
    };
    let version = match resolve_model(shared, name) {
        Ok(v) => v,
        Err(response) => return response,
    };
    // LRU touch: marks this model just-used and ensures its compiled
    // form is resident (evicting the coldest past the cap), so the
    // classification below reuses the cached slot for free.
    shared.registry.touch(&version);
    let bundle = Arc::clone(&version.bundle);
    // `name@vN` on every successful classify: the client can tell
    // exactly which registry version answered, across hot swaps.
    let model_tag = format!("{}@v{}", version.name, version.version);

    let (rows, batched) = if let Some(values) = value.get("values") {
        match parse_vector(values) {
            Ok(row) => (vec![row], false),
            Err(detail) => return error_response(400, "bad_vector", &detail),
        }
    } else if let Some(samples) = value.get("samples") {
        let Some(elements) = samples.as_array() else {
            return error_response(400, "bad_vector", "'samples' must be an array of arrays");
        };
        let mut rows = Vec::with_capacity(elements.len());
        for (i, element) in elements.iter().enumerate() {
            match parse_vector(element) {
                Ok(row) => rows.push(row),
                Err(detail) => {
                    return error_response(400, "bad_vector", &format!("samples[{i}]: {detail}"))
                }
            }
        }
        (rows, true)
    } else {
        return error_response(400, "bad_request", "body must contain 'values' or 'samples'");
    };

    if let Some(batcher) = shared.batcher.as_ref() {
        // Binarize on the worker (cheap, per-connection) so the batcher
        // thread spends its time exclusively inside the batch kernel.
        let mut queries = Vec::with_capacity(rows.len());
        for (i, row) in rows.iter().enumerate() {
            if i % 64 == 0 {
                if let Some(timeout) = check_deadline(deadline, "binarizing the batch") {
                    return timeout;
                }
            }
            match bundle.query_for_row(row) {
                Ok(q) => queries.push(q),
                Err(e) => {
                    let at = if batched { format!("samples[{i}]: ") } else { String::new() };
                    return error_response(400, "wrong_length", &format!("{at}{e}"));
                }
            }
        }
        match batcher.submit(&bundle, queries, request_id, deadline) {
            Ok(receiver) => {
                shared.metrics.record_batch_job_submitted();
                let budget = deadline
                    .map(|d| d.saturating_duration_since(Instant::now()))
                    .unwrap_or(BATCH_RECV_FALLBACK);
                let completion = receiver.recv_timeout(budget);
                // Resolved one way or another: the submitted/completed
                // ledger balances, so a gap flags a stranded job.
                shared.metrics.record_batch_job_completed();
                let response = match completion {
                    Ok(Completion { batch_id, outcome: Outcome::Predictions(predictions) }) => {
                        shared.metrics.record_samples(predictions.len() as u64);
                        maybe_shadow(shared, &version, &rows, &predictions);
                        classification_response(&predictions, batched)
                            .with_header("x-batch-id", batch_id)
                            .with_header("x-model", model_tag.clone())
                    }
                    Ok(Completion { outcome: Outcome::Expired, .. })
                    | Err(RecvTimeoutError::Timeout) => error_response(
                        408,
                        "request_timeout",
                        "request exceeded its wall-clock budget awaiting batch execution",
                    ),
                    // The batch panicked: its jobs' senders were dropped
                    // in the unwind. The batcher itself recovered.
                    Err(RecvTimeoutError::Disconnected) => error_response(
                        500,
                        "internal_error",
                        "batch execution failed; the batcher recovered",
                    ),
                };
                shared.metrics.record_latency_us(
                    u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX),
                );
                return response;
            }
            // Submission queue full (or closing): degrade gracefully to
            // the inline path below rather than queue without bound.
            Err(_queries) => shared.metrics.record_batch_inline_fallback(),
        }
    }

    let mut predictions = Vec::with_capacity(rows.len());
    for (i, row) in rows.iter().enumerate() {
        // Large batches honour the same deadline as the reads: check
        // every few rows so a huge batch cannot smuggle in unbounded
        // compute past the admission controls.
        if i % 64 == 0 {
            if let Some(timeout) = check_deadline(deadline, "classifying the batch") {
                return timeout;
            }
        }
        match bundle.classify_row_with(row, scratch) {
            Ok(p) => predictions.push(p),
            Err(e) => {
                let at = if batched { format!("samples[{i}]: ") } else { String::new() };
                return error_response(400, "wrong_length", &format!("{at}{e}"));
            }
        }
    }
    shared.metrics.record_samples(predictions.len() as u64);
    maybe_shadow(shared, &version, &rows, &predictions);
    let response = classification_response(&predictions, batched).with_header("x-model", model_tag);
    shared.metrics.record_latency_us(started.elapsed().as_micros().min(u64::MAX as u128) as u64);
    response
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
            shared.metrics.record_reload();
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
            shared.metrics.record_reload_failure();
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
            batcher: None,
            shadow: None,
            shadow_routes: Vec::new(),
            shutting_down: AtomicBool::new(false),
            queue: BoundedQueue::new(4),
            completions: Completions::new(waker),
            request_timeout: Some(Duration::from_secs(10)),
            drain_timeout: Duration::from_secs(1),
        }
    }

    fn post(shared: &Shared, path: &str, body: &str) -> Response {
        let mut scratch = Scratch::new();
        route(
            shared,
            &Request {
                method: "POST".into(),
                path: path.into(),
                headers: vec![],
                body: body.as_bytes().to_vec(),
                keep_alive: false,
                http11: true,
            },
            &mut scratch,
            None,
            "test-req",
        )
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
        let mut scratch = Scratch::new();
        route(
            shared,
            &Request {
                method: "GET".into(),
                path: path.into(),
                headers: vec![],
                body: vec![],
                keep_alive: false,
                http11: true,
            },
            &mut scratch,
            None,
            "test-req",
        )
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
    fn classify_routes_through_batcher_when_enabled() {
        let _gate = crate::batcher::chaos_site_gate();
        let mut s = shared();
        let (batcher, thread) = Batcher::start(BatcherConfig::default(), Arc::clone(&s.metrics));
        s.batcher = Some(batcher);
        let r = post(&s, "/classify", "{\"values\": [1.0, 4.0]}");
        assert_eq!(r.status, 200);
        assert!(
            r.headers.iter().any(|(k, _)| *k == "x-batch-id"),
            "batched responses carry the batch id for log joins"
        );
        let v: Value = serde_json::from_str(std::str::from_utf8(&r.body).unwrap()).unwrap();
        assert_eq!(v.get("prediction").unwrap().get("label").unwrap().as_str(), Some("neg"));
        // Multi-sample bodies ride the batcher as one job, too.
        let r = post(&s, "/classify", "{\"samples\": [[1.0, 4.0], [9.0, 4.0]]}");
        assert_eq!(r.status, 200);
        let snap = s.metrics.snapshot();
        assert_eq!(snap.batch_jobs_submitted, 2);
        assert_eq!(snap.batch_jobs_completed, 2);
        assert_eq!(snap.samples_classified, 3);
        s.batcher.as_ref().unwrap().close();
        thread.join().unwrap();
    }

    #[test]
    fn expired_deadline_answers_408_before_classifying() {
        let s = shared();
        let mut scratch = Scratch::new();
        let request = Request {
            method: "POST".into(),
            path: "/classify".into(),
            headers: vec![],
            body: b"{\"values\": [1.0, 4.0]}".to_vec(),
            keep_alive: false,
            http11: true,
        };
        let expired = Instant::now() - Duration::from_millis(1);
        let r = route(&s, &request, &mut scratch, Some(expired), "test-req");
        assert_eq!(r.status, 408);
        assert!(std::str::from_utf8(&r.body).unwrap().contains("request_timeout"));
    }
}
