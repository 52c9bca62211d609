//! # obs — observability primitives for the BSTC stack
//!
//! Everything the pipeline and the server use to measure themselves,
//! with **no dependencies beyond std**:
//!
//! * [`hist`] — [`Histogram`], a lock-free log-bucketed value histogram
//!   (relaxed atomics, ~6% relative bucket resolution) with exact
//!   nearest-rank percentile extraction and Prometheus text rendering,
//!   plus the shared nearest-rank helpers ([`nearest_rank_index`],
//!   [`percentile_of_sorted`]) every bench uses so p99 is computed the
//!   same way everywhere;
//! * [`registry`] — [`Registry`], the one metric store and Prometheus
//!   renderer: named counter, gauge, histogram and windowed-histogram
//!   families of labelled series, recorded through lock-free handles
//!   ([`Counter`], [`Gauge`], `Arc<Histogram>`), each family rendered
//!   under one `# TYPE` line; [`global`] is the process-global instance;
//! * [`stage`] — [`Stage`], a drop-guard span timer (`Stage::enter
//!   ("mdl_cuts")` … drop records the elapsed microseconds) into the
//!   global registry's `bstc_stage_duration_us{stage=...}` family, with
//!   per-stage totals ([`Registry::totals`]);
//! * [`counter`] — [`counters`], the by-name view of the global
//!   registry's unlabelled counters (`bstc_bst_pairs_total`, …);
//! * [`window`] — [`WindowedHistogram`], a two-epoch flip variant of
//!   [`Histogram`] whose reports cover only the last 1–2 windows, so
//!   scraped p99s reflect steady state instead of mixing in cold-start
//!   samples;
//! * [`log`] — a structured logger emitting JSON lines (or plain text)
//!   with per-request trace IDs ([`log::request_id`]), a minimum-level
//!   filter plus per-(level, event) token-bucket rate limiting, and
//!   swappable sinks: stderr, an in-memory test buffer, or a
//!   size-rotated file ([`log::set_file_sink`]);
//! * [`trace`] — [`Trace`], parent-span trees with cross-process
//!   joining ([`Trace::adopt`] re-maps a worker's span ids under a
//!   parent span), how the sharded CV driver shows shard → replicate
//!   structure in one tree.
//!
//! The training pipeline records into the global registry (stages
//! `mdl_cuts`, `binarize`, `bst_build`, `compile`, `classify_batch`, and
//! the BST volume counters). The inference server keeps its request,
//! connection and batch families in a registry of its own and renders
//! it followed by the global one on `GET /metrics`, so one scrape
//! decomposes both the paper's per-stage training cost (Tables 4–7) and
//! serving latency, through one renderer.

#![warn(missing_docs)]

pub mod counter;
pub mod hist;
pub mod log;
pub mod registry;
pub mod stage;
pub mod trace;
pub mod window;

pub use counter::{counters, Counters};
pub use hist::{nearest_rank_index, percentile_of_sorted, Histogram};
pub use log::{Level, LogFormat};
pub use registry::{global, Counter, Gauge, Registry};
pub use stage::{Stage, StageTotal};
pub use trace::{Span, SpanRecord, Trace};
pub use window::WindowedHistogram;
