//! Lock-free serving metrics, rendered in a Prometheus-style plaintext
//! format by `GET /metrics`. Everything is relaxed atomics: counters are
//! monotonically increasing and the scrape tolerates torn reads across
//! series.
//!
//! Latency is measured with the shared obs histograms — the same
//! log-bucketed, nearest-rank-percentile buckets the training stages and
//! benches use. The *request*- and *batch*-latency families
//! (`bstc_request_duration_us{route=...}`, `bstc_batch_wait_us`) are
//! [`obs::WindowedHistogram`]s: their scraped percentiles cover only the
//! last 1–2 minutes, so steady-state p99s are not diluted by cold-start
//! history. The `/classify` handler's own `bstc_classify_latency_us` and
//! the batch-size distribution stay cumulative (their totals feed
//! cross-run comparisons).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

use obs::{Histogram, WindowedHistogram};

/// Counters for one endpoint family.
#[derive(Debug, Default)]
pub struct EndpointStats {
    hits: AtomicU64,
    errors: AtomicU64,
    /// Whole-request wall time (read + handle + write), microseconds —
    /// windowed, so scraped p99s reflect recent traffic only.
    latency: WindowedHistogram,
}

impl EndpointStats {
    fn record(&self, status: u16) {
        self.hits.fetch_add(1, Ordering::Relaxed);
        if status >= 400 {
            self.errors.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// All metrics of one server instance.
#[derive(Debug, Default)]
pub struct Metrics {
    classify: EndpointStats,
    health: EndpointStats,
    model: EndpointStats,
    metrics: EndpointStats,
    reload: EndpointStats,
    other: EndpointStats,
    /// Individual expression vectors classified (a batch counts each row).
    samples_classified: AtomicU64,
    /// Completed model hot-swaps.
    reloads: AtomicU64,
    /// Rejected hot-swaps (bad file, failed checksum, ...); the old model
    /// kept serving.
    reload_failures: AtomicU64,
    /// Connections the acceptor took from the listener.
    conns_accepted: AtomicU64,
    /// Connections answered `503 overloaded` because the hand-off queue
    /// was full.
    conns_shed: AtomicU64,
    /// Connections whose first request was dispatched to compute (every
    /// accepted connection ends up exactly once in `shed` or `handled`).
    conns_handled: AtomicU64,
    /// Gauge: connections currently registered with the event loop. A
    /// nonzero value after traffic has fully drained means a leaked
    /// connection slot.
    conns_open: AtomicU64,
    /// Handler panics converted into 500 responses by `catch_unwind`.
    panics_caught: AtomicU64,
    /// Requests that hit their wall-clock deadline (408s).
    request_timeouts: AtomicU64,
    /// Gauge: compute threads currently alive.
    workers_alive: AtomicU64,
    /// Gauge: compute threads the server was configured with.
    workers_configured: AtomicU64,
    /// `/classify` *handler* latency (parse + classify, excluding
    /// request read and response write) — the paper-relevant number.
    classify_latency: Histogram,
    /// Kernel executions: drained batches holding at least one classify.
    batches_executed: AtomicU64,
    /// Decoded classify jobs handed to a kernel execution.
    batch_jobs_submitted: AtomicU64,
    /// Submitted jobs that received a response (answer or 500 after a
    /// kernel panic — a clean ledger: in steady state `submitted ==
    /// completed`, so a gap means a stranded job).
    batch_jobs_completed: AtomicU64,
    /// Kernel groups that panicked (isolated; member jobs answered 500,
    /// the compute thread survived).
    batch_panics: AtomicU64,
    /// Classify jobs per kernel execution (cumulative — the amortization
    /// factor over the whole run).
    batch_size: Histogram,
    /// Time requests spent queued between dispatch and compute-thread
    /// pickup, microseconds (windowed: the queueing tax under *current*
    /// load).
    batch_wait_us: WindowedHistogram,
    /// Bundle-group switches inside batch executions: how often the
    /// batch kernel changed models within one coalesced batch (the cost
    /// of round-robin fairness across a mixed-model fleet).
    batch_model_switches: AtomicU64,
    /// Gauge: compiled models currently resident (LRU-tracked).
    models_resident: AtomicU64,
    /// Compiled forms evicted by the residency LRU.
    compile_evictions: AtomicU64,
    /// Mirrored requests the shadow executor replayed.
    shadow_requests: AtomicU64,
    /// Mirrored requests dropped because the shadow queue was full.
    shadow_dropped: AtomicU64,
    /// Per-primary-model count of replays where the candidate's class
    /// differed on at least one row. Keyed by model name — a `Mutex`
    /// around a map, not an atomic, because the label set is dynamic;
    /// cardinality stays bounded because the registry validates names
    /// at load time and shadowing is configured per registered model.
    shadow_disagreements: Mutex<BTreeMap<String, u64>>,
    /// Candidate classification latency in the shadow executor,
    /// microseconds (cumulative, for direct comparison against
    /// `bstc_classify_latency_us`).
    shadow_latency_us: Histogram,
}

impl Metrics {
    /// Creates zeroed metrics.
    pub fn new() -> Metrics {
        Metrics::default()
    }

    /// Records one handled request by route and response status.
    pub fn record_request(&self, path: &str, status: u16) {
        self.endpoint(path).record(status);
        if status == 408 {
            self.request_timeouts.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records a `/classify` handler latency observation.
    pub fn record_latency_us(&self, us: u64) {
        self.classify_latency.record(us);
    }

    /// Records whole-request wall time against the route's endpoint
    /// histogram (unknown paths pool under `other`).
    pub fn record_route_latency(&self, path: &str, us: u64) {
        self.endpoint(path).latency.record(us);
    }

    /// The `/classify` handler-latency nearest-rank p-quantile, µs
    /// (0 when nothing has been recorded). Used by supervisors and tests;
    /// scrapes read the full histogram from [`render`](Self::render).
    pub fn classify_latency_percentile_us(&self, p: f64) -> u64 {
        self.classify_latency.percentile(p)
    }

    fn endpoint(&self, path: &str) -> &EndpointStats {
        match path {
            "/classify" => &self.classify,
            "/health" => &self.health,
            "/model" => &self.model,
            "/metrics" => &self.metrics,
            "/reload" => &self.reload,
            // Registry routes pool into their unnamed counterparts: the
            // `route` label set stays fixed no matter how many models are
            // registered (bounded label cardinality by construction).
            _ if path.starts_with("/v1/models") => {
                if path.ends_with("/classify") {
                    &self.classify
                } else if path.ends_with("/reload") {
                    &self.reload
                } else {
                    &self.model
                }
            }
            _ => &self.other,
        }
    }

    /// Adds to the classified-samples counter.
    pub fn record_samples(&self, n: u64) {
        self.samples_classified.fetch_add(n, Ordering::Relaxed);
    }

    /// Records a completed hot-swap.
    pub fn record_reload(&self) {
        self.reloads.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a rejected hot-swap (the old model kept serving).
    pub fn record_reload_failure(&self) {
        self.reload_failures.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one connection taken from the listener.
    pub fn record_conn_accepted(&self) {
        self.conns_accepted.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one connection shed with `503 overloaded` at admission.
    pub fn record_conn_shed(&self) {
        self.conns_shed.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one connection whose first request reached compute.
    pub fn record_conn_handled(&self) {
        self.conns_handled.fetch_add(1, Ordering::Relaxed);
    }

    /// Sets the open-connections gauge (event-loop registered sockets).
    pub fn set_conns_open(&self, n: u64) {
        self.conns_open.store(n, Ordering::Relaxed);
    }

    /// Records a handler panic that was isolated into a 500 response.
    pub fn record_panic_caught(&self) {
        self.panics_caught.fetch_add(1, Ordering::Relaxed);
    }

    /// Sets the live compute-thread gauge.
    pub fn set_workers_alive(&self, n: u64) {
        self.workers_alive.store(n, Ordering::Relaxed);
    }

    /// Records one compute thread exiting (decrements the live gauge).
    pub fn record_worker_exit(&self) {
        self.workers_alive.fetch_sub(1, Ordering::Relaxed);
    }

    /// Sets the configured pool-size gauge.
    pub fn set_workers_configured(&self, n: u64) {
        self.workers_configured.store(n, Ordering::Relaxed);
    }

    /// Records one kernel execution of `size` coalesced classify jobs.
    pub fn record_batch(&self, size: u64) {
        self.batches_executed.fetch_add(1, Ordering::Relaxed);
        self.batch_size.record(size);
    }

    /// Records how long one request waited between dispatch and pickup.
    pub fn record_batch_wait_us(&self, us: u64) {
        self.batch_wait_us.record(us);
    }

    /// Records `n` classify jobs handed to one kernel execution.
    pub fn record_batch_jobs_submitted(&self, n: u64) {
        self.batch_jobs_submitted.fetch_add(n, Ordering::Relaxed);
    }

    /// Records one submitted job that received its response.
    pub fn record_batch_job_completed(&self) {
        self.batch_jobs_completed.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one isolated kernel-group panic.
    pub fn record_batch_panic(&self) {
        self.batch_panics.fetch_add(1, Ordering::Relaxed);
    }

    /// Records `n` model switches inside one batch execution.
    pub fn record_batch_model_switches(&self, n: u64) {
        self.batch_model_switches.fetch_add(n, Ordering::Relaxed);
    }

    /// Sets the compiled-models-resident gauge.
    pub fn set_models_resident(&self, n: u64) {
        self.models_resident.store(n, Ordering::Relaxed);
    }

    /// Records one compiled form evicted by the residency LRU.
    pub fn record_compile_eviction(&self) {
        self.compile_evictions.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one replayed shadow request and its candidate latency.
    pub fn record_shadow_request(&self, latency_us: u64) {
        self.shadow_requests.fetch_add(1, Ordering::Relaxed);
        self.shadow_latency_us.record(latency_us);
    }

    /// Records one shadow replay disagreeing with the primary, labeled
    /// by the primary model's name.
    pub fn record_shadow_disagreement(&self, model: &str) {
        let mut map = self.shadow_disagreements.lock().unwrap_or_else(PoisonError::into_inner);
        *map.entry(model.to_string()).or_insert(0) += 1;
    }

    /// Records one shadow job dropped at a full queue.
    pub fn record_shadow_dropped(&self) {
        self.shadow_dropped.fetch_add(1, Ordering::Relaxed);
    }

    /// A consistent-enough point-in-time copy for tests and supervisors
    /// (individual counters are exact; cross-counter skew is possible
    /// while traffic is in flight).
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            conns_accepted: self.conns_accepted.load(Ordering::Relaxed),
            conns_shed: self.conns_shed.load(Ordering::Relaxed),
            conns_handled: self.conns_handled.load(Ordering::Relaxed),
            conns_open: self.conns_open.load(Ordering::Relaxed),
            panics_caught: self.panics_caught.load(Ordering::Relaxed),
            workers_alive: self.workers_alive.load(Ordering::Relaxed),
            workers_configured: self.workers_configured.load(Ordering::Relaxed),
            request_timeouts: self.request_timeouts.load(Ordering::Relaxed),
            reloads: self.reloads.load(Ordering::Relaxed),
            reload_failures: self.reload_failures.load(Ordering::Relaxed),
            samples_classified: self.samples_classified.load(Ordering::Relaxed),
            batches_executed: self.batches_executed.load(Ordering::Relaxed),
            batch_jobs_submitted: self.batch_jobs_submitted.load(Ordering::Relaxed),
            batch_jobs_completed: self.batch_jobs_completed.load(Ordering::Relaxed),
            batch_panics: self.batch_panics.load(Ordering::Relaxed),
            batch_model_switches: self.batch_model_switches.load(Ordering::Relaxed),
            models_resident: self.models_resident.load(Ordering::Relaxed),
            compile_evictions: self.compile_evictions.load(Ordering::Relaxed),
            shadow_requests: self.shadow_requests.load(Ordering::Relaxed),
            shadow_dropped: self.shadow_dropped.load(Ordering::Relaxed),
            shadow_disagreements: self
                .shadow_disagreements
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .values()
                .sum(),
        }
    }

    /// Renders the Prometheus-style plaintext exposition.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::with_capacity(1024);
        let routes = [
            ("/classify", &self.classify),
            ("/health", &self.health),
            ("/model", &self.model),
            ("/metrics", &self.metrics),
            ("/reload", &self.reload),
            ("other", &self.other),
        ];
        // One family at a time: a scraper requires every sample to follow
        // its own # TYPE line (interleaving the two families put the
        // error samples under bstc_requests_total's type).
        out.push_str("# TYPE bstc_requests_total counter\n");
        for (route, stats) in routes {
            let _ = writeln!(
                out,
                "bstc_requests_total{{route=\"{route}\"}} {}",
                stats.hits.load(Ordering::Relaxed)
            );
        }
        out.push_str("# TYPE bstc_request_errors_total counter\n");
        for (route, stats) in routes {
            let _ = writeln!(
                out,
                "bstc_request_errors_total{{route=\"{route}\"}} {}",
                stats.errors.load(Ordering::Relaxed)
            );
        }
        let _ = writeln!(
            out,
            "# TYPE bstc_samples_classified_total counter\nbstc_samples_classified_total {}",
            self.samples_classified.load(Ordering::Relaxed)
        );
        let _ = writeln!(
            out,
            "# TYPE bstc_model_reloads_total counter\nbstc_model_reloads_total {}",
            self.reloads.load(Ordering::Relaxed)
        );
        let _ = writeln!(
            out,
            "# TYPE bstc_model_reload_failures_total counter\nbstc_model_reload_failures_total {}",
            self.reload_failures.load(Ordering::Relaxed)
        );
        out.push_str("# TYPE bstc_connections_total counter\n");
        for (event, counter) in [
            ("accepted", &self.conns_accepted),
            ("shed", &self.conns_shed),
            ("handled", &self.conns_handled),
        ] {
            let _ = writeln!(
                out,
                "bstc_connections_total{{event=\"{event}\"}} {}",
                counter.load(Ordering::Relaxed)
            );
        }
        let _ = writeln!(
            out,
            "# TYPE bstc_connections_open gauge\nbstc_connections_open {}",
            self.conns_open.load(Ordering::Relaxed)
        );
        let _ = writeln!(
            out,
            "# TYPE bstc_panics_caught_total counter\nbstc_panics_caught_total {}",
            self.panics_caught.load(Ordering::Relaxed)
        );
        let _ = writeln!(
            out,
            "# TYPE bstc_request_timeouts_total counter\nbstc_request_timeouts_total {}",
            self.request_timeouts.load(Ordering::Relaxed)
        );
        out.push_str("# TYPE bstc_workers gauge\n");
        let _ = writeln!(
            out,
            "bstc_workers{{state=\"alive\"}} {}",
            self.workers_alive.load(Ordering::Relaxed)
        );
        let _ = writeln!(
            out,
            "bstc_workers{{state=\"configured\"}} {}",
            self.workers_configured.load(Ordering::Relaxed)
        );
        out.push_str("# TYPE bstc_request_duration_us histogram\n");
        for (route, stats) in [
            ("/classify", &self.classify),
            ("/health", &self.health),
            ("/model", &self.model),
            ("/metrics", &self.metrics),
            ("/reload", &self.reload),
            ("other", &self.other),
        ] {
            stats.latency.render_into(&mut out, "bstc_request_duration_us", &[("route", route)]);
        }
        out.push_str("# TYPE bstc_classify_latency_us histogram\n");
        self.classify_latency.render_into(&mut out, "bstc_classify_latency_us", &[]);
        let _ = writeln!(
            out,
            "# TYPE bstc_batches_total counter\nbstc_batches_total {}",
            self.batches_executed.load(Ordering::Relaxed)
        );
        out.push_str("# TYPE bstc_batch_jobs_total counter\n");
        for (state, counter) in
            [("submitted", &self.batch_jobs_submitted), ("completed", &self.batch_jobs_completed)]
        {
            let _ = writeln!(
                out,
                "bstc_batch_jobs_total{{state=\"{state}\"}} {}",
                counter.load(Ordering::Relaxed)
            );
        }
        let _ = writeln!(
            out,
            "# TYPE bstc_batch_panics_total counter\nbstc_batch_panics_total {}",
            self.batch_panics.load(Ordering::Relaxed)
        );
        out.push_str("# TYPE bstc_batch_size histogram\n");
        self.batch_size.render_into(&mut out, "bstc_batch_size", &[]);
        out.push_str("# TYPE bstc_batch_wait_us histogram\n");
        self.batch_wait_us.render_into(&mut out, "bstc_batch_wait_us", &[]);
        let _ = writeln!(
            out,
            "# TYPE bstc_batch_model_switches_total counter\nbstc_batch_model_switches_total {}",
            self.batch_model_switches.load(Ordering::Relaxed)
        );
        let _ = writeln!(
            out,
            "# TYPE bstc_models_resident gauge\nbstc_models_resident {}",
            self.models_resident.load(Ordering::Relaxed)
        );
        let _ = writeln!(
            out,
            "# TYPE bstc_model_compile_evictions_total counter\n\
             bstc_model_compile_evictions_total {}",
            self.compile_evictions.load(Ordering::Relaxed)
        );
        let _ = writeln!(
            out,
            "# TYPE bstc_shadow_requests_total counter\nbstc_shadow_requests_total {}",
            self.shadow_requests.load(Ordering::Relaxed)
        );
        let _ = writeln!(
            out,
            "# TYPE bstc_shadow_dropped_total counter\nbstc_shadow_dropped_total {}",
            self.shadow_dropped.load(Ordering::Relaxed)
        );
        out.push_str("# TYPE bstc_shadow_disagreements_total counter\n");
        for (model, count) in
            self.shadow_disagreements.lock().unwrap_or_else(PoisonError::into_inner).iter()
        {
            let _ = writeln!(out, "bstc_shadow_disagreements_total{{model=\"{model}\"}} {count}");
        }
        out.push_str("# TYPE bstc_shadow_latency_us histogram\n");
        self.shadow_latency_us.render_into(&mut out, "bstc_shadow_latency_us", &[]);
        out
    }
}

/// A point-in-time copy of the fault-tolerance counters (see
/// [`Metrics::snapshot`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Connections taken from the listener.
    pub conns_accepted: u64,
    /// Connections answered `503 overloaded` at admission.
    pub conns_shed: u64,
    /// Connections whose first request reached compute.
    pub conns_handled: u64,
    /// Connections currently registered with the event loop (gauge).
    pub conns_open: u64,
    /// Handler panics isolated into 500s.
    pub panics_caught: u64,
    /// Compute threads currently alive.
    pub workers_alive: u64,
    /// Configured compute threads.
    pub workers_configured: u64,
    /// Requests that hit their wall-clock deadline.
    pub request_timeouts: u64,
    /// Completed hot-swaps.
    pub reloads: u64,
    /// Rejected hot-swaps.
    pub reload_failures: u64,
    /// Expression vectors classified.
    pub samples_classified: u64,
    /// Kernel executions (drained batches holding a classify).
    pub batches_executed: u64,
    /// Classify jobs handed to a kernel execution.
    pub batch_jobs_submitted: u64,
    /// Submitted jobs that received their response.
    pub batch_jobs_completed: u64,
    /// Isolated kernel-group panics.
    pub batch_panics: u64,
    /// Model switches inside batch executions.
    pub batch_model_switches: u64,
    /// Compiled models currently resident.
    pub models_resident: u64,
    /// Compiled forms evicted by the residency LRU.
    pub compile_evictions: u64,
    /// Shadow replays executed.
    pub shadow_requests: u64,
    /// Shadow jobs dropped at a full queue.
    pub shadow_dropped: u64,
    /// Shadow replays that disagreed with the primary (sum over models).
    pub shadow_disagreements: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_count_by_route_and_status() {
        let m = Metrics::new();
        m.record_request("/classify", 200);
        m.record_request("/classify", 400);
        m.record_request("/nope", 404);
        let text = m.render();
        assert!(text.contains("bstc_requests_total{route=\"/classify\"} 2"), "{text}");
        assert!(text.contains("bstc_request_errors_total{route=\"/classify\"} 1"), "{text}");
        assert!(text.contains("bstc_requests_total{route=\"other\"} 1"), "{text}");
    }

    #[test]
    fn classify_latency_uses_shared_histogram() {
        let m = Metrics::new();
        m.record_latency_us(50);
        m.record_latency_us(700);
        m.record_latency_us(10_000_000);
        let text = m.render();
        // Exact sum/count survive the move to log buckets.
        assert!(text.contains("bstc_classify_latency_us_bucket{le=\"+Inf\"} 3"), "{text}");
        assert!(text.contains("bstc_classify_latency_us_count 3"), "{text}");
        assert!(text.contains("bstc_classify_latency_us_sum 10000750"), "{text}");
        // Nearest-rank percentiles come from the shared obs histogram:
        // the bucketed answer may sit up to one bucket (~6%) above the
        // recorded sample, never below it.
        let p99 = m.classify_latency_percentile_us(0.99);
        assert!((10_000_000..=10_700_000).contains(&p99), "p99 {p99}");
        let p0 = m.classify_latency_percentile_us(0.0);
        assert!((50..=54).contains(&p0), "p0 {p0}");
    }

    #[test]
    fn route_latency_renders_per_endpoint_family() {
        let m = Metrics::new();
        m.record_route_latency("/classify", 800);
        m.record_route_latency("/classify", 1_200);
        m.record_route_latency("/health", 30);
        m.record_route_latency("/nope", 5);
        let text = m.render();
        assert!(text.contains("# TYPE bstc_request_duration_us histogram"), "{text}");
        assert!(text.contains("bstc_request_duration_us_count{route=\"/classify\"} 2"), "{text}");
        assert!(text.contains("bstc_request_duration_us_sum{route=\"/classify\"} 2000"), "{text}");
        assert!(text.contains("bstc_request_duration_us_count{route=\"/health\"} 1"), "{text}");
        assert!(text.contains("bstc_request_duration_us_count{route=\"other\"} 1"), "{text}");
        // Every bucket line carries its route label and +Inf closes each.
        assert!(
            text.contains("bstc_request_duration_us_bucket{route=\"/health\",le=\"+Inf\"} 1"),
            "{text}"
        );
    }

    #[test]
    fn fault_tolerance_counters_render_and_snapshot() {
        let m = Metrics::new();
        m.set_workers_configured(4);
        m.set_workers_alive(4);
        m.record_worker_exit();
        for _ in 0..5 {
            m.record_conn_accepted();
        }
        m.record_conn_shed();
        for _ in 0..4 {
            m.record_conn_handled();
        }
        m.record_panic_caught();
        m.record_reload_failure();
        m.record_request("/classify", 408);
        let text = m.render();
        assert!(text.contains("bstc_connections_total{event=\"accepted\"} 5"), "{text}");
        assert!(text.contains("bstc_connections_total{event=\"shed\"} 1"), "{text}");
        assert!(text.contains("bstc_connections_total{event=\"handled\"} 4"), "{text}");
        assert!(text.contains("bstc_panics_caught_total 1"), "{text}");
        assert!(text.contains("bstc_model_reload_failures_total 1"), "{text}");
        assert!(text.contains("bstc_request_timeouts_total 1"), "{text}");
        assert!(text.contains("bstc_workers{state=\"alive\"} 3"), "{text}");
        assert!(text.contains("bstc_workers{state=\"configured\"} 4"), "{text}");
        let snap = m.snapshot();
        assert_eq!(snap.conns_accepted, snap.conns_handled + snap.conns_shed);
        assert_eq!(snap.panics_caught, 1);
        assert_eq!(snap.request_timeouts, 1);
    }

    #[test]
    fn batch_families_render_and_snapshot() {
        let m = Metrics::new();
        m.record_batch(4);
        m.record_batch(1);
        m.record_batch_wait_us(150);
        m.record_batch_jobs_submitted(5);
        for _ in 0..5 {
            m.record_batch_job_completed();
        }
        m.record_batch_panic();
        let text = m.render();
        assert!(text.contains("bstc_batches_total 2"), "{text}");
        assert!(text.contains("bstc_batch_jobs_total{state=\"submitted\"} 5"), "{text}");
        assert!(text.contains("bstc_batch_jobs_total{state=\"completed\"} 5"), "{text}");
        assert!(text.contains("bstc_batch_panics_total 1"), "{text}");
        assert!(text.contains("bstc_batch_size_count 2"), "{text}");
        assert!(text.contains("bstc_batch_size_sum 5"), "{text}");
        assert!(text.contains("bstc_batch_wait_us_count 1"), "{text}");
        let snap = m.snapshot();
        assert_eq!(snap.batch_jobs_submitted, snap.batch_jobs_completed);
        assert_eq!(snap.batches_executed, 2);
        assert_eq!(snap.batch_panics, 1);
    }

    #[test]
    fn registry_and_shadow_families_render_and_snapshot() {
        let m = Metrics::new();
        m.set_models_resident(2);
        m.record_compile_eviction();
        m.record_batch_model_switches(3);
        m.record_shadow_request(120);
        m.record_shadow_request(340);
        m.record_shadow_disagreement("tumor");
        m.record_shadow_disagreement("tumor");
        m.record_shadow_disagreement("leukemia");
        m.record_shadow_dropped();
        let text = m.render();
        assert!(text.contains("bstc_models_resident 2"), "{text}");
        assert!(text.contains("bstc_model_compile_evictions_total 1"), "{text}");
        assert!(text.contains("bstc_batch_model_switches_total 3"), "{text}");
        assert!(text.contains("bstc_shadow_requests_total 2"), "{text}");
        assert!(text.contains("bstc_shadow_dropped_total 1"), "{text}");
        assert!(text.contains("bstc_shadow_disagreements_total{model=\"tumor\"} 2"), "{text}");
        assert!(text.contains("bstc_shadow_disagreements_total{model=\"leukemia\"} 1"), "{text}");
        assert!(text.contains("bstc_shadow_latency_us_count 2"), "{text}");
        assert!(text.contains("bstc_shadow_latency_us_sum 460"), "{text}");
        // The TYPE line precedes the labeled samples (scrape hygiene).
        let type_at = text.find("# TYPE bstc_shadow_disagreements_total").unwrap();
        let sample_at = text.find("bstc_shadow_disagreements_total{").unwrap();
        assert!(type_at < sample_at, "{text}");
        let snap = m.snapshot();
        assert_eq!(snap.models_resident, 2);
        assert_eq!(snap.compile_evictions, 1);
        assert_eq!(snap.batch_model_switches, 3);
        assert_eq!(snap.shadow_requests, 2);
        assert_eq!(snap.shadow_disagreements, 3);
        assert_eq!(snap.shadow_dropped, 1);
    }

    #[test]
    fn samples_and_reloads_accumulate() {
        let m = Metrics::new();
        m.record_samples(3);
        m.record_samples(2);
        m.record_reload();
        let text = m.render();
        assert!(text.contains("bstc_samples_classified_total 5"), "{text}");
        assert!(text.contains("bstc_model_reloads_total 1"), "{text}");
    }
}
