//! Model artifacts and a concurrent BSTC inference server.
//!
//! This crate turns the research pipeline into something deployable:
//!
//! * [`bundle`] — [`ModelBundle`], a versioned, checksummed JSON artifact
//!   packaging a trained [`bstc::BstcModel`] with its fitted
//!   [`discretize::Discretizer`], vocabulary, class labels, and
//!   provenance, so one file is sufficient to serve predictions on raw
//!   continuous expression vectors.
//! * [`http`] — a minimal dependency-free HTTP/1.1 implementation built
//!   as an incremental push parser ([`http::RequestParser`]), with
//!   smuggling-safe `Transfer-Encoding: chunked` request decoding and
//!   chunked response framing for large bodies.
//! * [`sys`] — a raw-syscall shim (no `libc` crate): epoll/kqueue
//!   readiness polling, a self-pipe waker, and an fd-limit helper.
//! * `eventloop` (crate-private) — the event-driven connection core:
//!   one thread owns
//!   every socket, parses incrementally, enforces `--max-connections`
//!   admission and per-request deadlines (timer wheel), and streams
//!   responses with nonblocking writes; compute threads never touch a
//!   socket.
//! * [`batcher`] — the compute stage's kernel step: the classifies a
//!   compute thread drained from the queue (its share of what was
//!   already waiting, up to `--max-batch`) run through the batch-sweep
//!   kernel once per model, amortizing the model pass over concurrent
//!   requests.
//! * [`metrics`] — the server's [`obs::Registry`] and the lock-free
//!   handles its call sites record into: request counters and latency
//!   histograms (windowed for the request- and batch-wait families) and
//!   the fault-tolerance and batching counters (shed, panics caught,
//!   timeouts, batch ledger).
//! * [`queue`] — the poison-free bounded loop→compute hand-off;
//!   admission beyond its depth is shed with `503` + `Retry-After`.
//! * [`registry`] — the multi-model fleet: named, versioned bundles
//!   loaded from `--models-dir`, atomic per-model version swaps with
//!   rollback-by-not-swapping, and an LRU cap on how many *compiled*
//!   models stay resident (bundle JSON always stays; the derived
//!   word-parallel form is evicted under pressure and re-lowered
//!   lazily).
//! * [`router`] — typed parsing of the `/v1/models/{name}/...` route
//!   space, with the legacy unnamed routes aliased to a default model.
//! * [`shadow`] — deterministic shadow/canary traffic: a seeded,
//!   reproducible sample of a primary model's requests is replayed
//!   asynchronously against a candidate model and compared server-side
//!   (prediction disagreements and latency, on `/metrics`).
//! * [`server`] — the TCP server exposing `/classify` (single and
//!   batch), `/health`, `/model`, `/metrics`, `/reload`, and the
//!   `/v1/models/*` registry API, with panic isolation (`catch_unwind`
//!   per request step and per kernel group → structured 500); the event loop
//!   owns connections, `--threads` identical compute threads own
//!   compute.
//! * [`chaos`] — deterministic fault injection at named sites (enabled
//!   under `cfg(test)` or the `chaos` feature; compiled out otherwise),
//!   driving the chaos integration test that *measures* the above
//!   instead of assuming it.
//!
//! ```no_run
//! use serve::{serve, ModelBundle, Provenance, ServerConfig};
//!
//! let data = microarray::synth::presets::all_aml(7).scaled_down(40).generate();
//! let bundle = ModelBundle::train(&data, Provenance::new("ALL/AML", Some(7))).unwrap();
//! let handle = serve(ServerConfig::default(), bundle).unwrap();
//! println!("listening on http://{}", handle.addr());
//! handle.wait();
//! ```

pub mod batcher;
pub mod bundle;
pub mod chaos;
pub(crate) mod eventloop;
pub mod http;
pub mod metrics;
pub mod queue;
pub mod registry;
pub mod router;
pub mod server;
pub mod shadow;
pub mod sys;
pub(crate) mod timer;

pub use bundle::{BundleError, ModelBundle, Prediction, Provenance, FORMAT_VERSION};
pub use metrics::{Metrics, MetricsSnapshot};
pub use registry::{ModelRegistry, ModelVersion, RegistryError};
pub use server::{serve, serve_models, ServerConfig, ServerHandle};
pub use shadow::{ShadowExecutor, ShadowJob, ShadowSpec};
