//! The server's metrics: one [`obs::Registry`] per server plus the
//! handles its call sites record into, resolved once at construction.
//!
//! Recording is a relaxed atomic on a held handle — no lock, no map
//! lookup. The per-server registry keeps several servers in one process
//! apart; `GET /metrics` renders it followed by the process-global
//! registry (stage histograms and BST volume counters), through the one
//! renderer, [`obs::Registry::render_into`].
//!
//! Two policies stay here. Route pooling (`Metrics::endpoint`) maps
//! every path onto a fixed `route` label set, and a 408 also counts as
//! a request timeout. The request- and batch-wait latency families
//! (`bstc_request_duration_us{route}`, `bstc_batch_wait_us`) are
//! windowed, so their scraped percentiles cover only the last 1–2
//! minutes; `bstc_classify_latency_us`, `bstc_batch_size` and
//! `bstc_shadow_latency_us` stay cumulative (their totals feed
//! cross-run comparisons).

use std::sync::Arc;

use obs::{Counter, Gauge, Histogram, Registry, WindowedHistogram};

/// The `route` label values; every request path pools into one of them.
const ROUTES: [&str; 6] = ["/classify", "/health", "/model", "/metrics", "/reload", "other"];

const SHADOW_DISAGREEMENTS: &str = "bstc_shadow_disagreements_total";

/// The series of one `route` label value.
#[derive(Debug)]
pub(crate) struct RouteSeries {
    requests: Counter,
    errors: Counter,
    /// Whole-request wall time (read + handle + write), microseconds.
    pub(crate) latency: Arc<WindowedHistogram>,
}

/// All metrics of one server instance.
#[derive(Debug)]
pub struct Metrics {
    registry: Registry,
    routes: [RouteSeries; ROUTES.len()],
    /// Individual expression vectors classified (a batch counts each row).
    pub(crate) samples_classified: Counter,
    /// Completed model hot-swaps.
    pub(crate) reloads: Counter,
    /// Rejected hot-swaps; the old model kept serving.
    pub(crate) reload_failures: Counter,
    /// Connections the event loop took from the listener.
    pub(crate) conns_accepted: Counter,
    /// Connections answered `503 overloaded` at admission or dispatch.
    pub(crate) conns_shed: Counter,
    /// Connections not shed (each accepted one is shed or handled once).
    pub(crate) conns_handled: Counter,
    /// Sockets registered with the event loop; nonzero once drained is a leak.
    pub(crate) conns_open: Gauge,
    /// Handler panics converted into 500 responses by `catch_unwind`.
    pub(crate) panics_caught: Counter,
    /// Requests that hit their wall-clock deadline (408s).
    request_timeouts: Counter,
    /// Compute threads currently alive.
    pub(crate) workers_alive: Gauge,
    /// Compute threads the server was configured with.
    pub(crate) workers_configured: Gauge,
    /// `/classify` handler latency, µs: decode → answer built.
    pub(crate) classify_latency: Arc<Histogram>,
    /// Kernel executions: drained batches holding at least one classify.
    pub(crate) batches: Counter,
    /// Decoded classify jobs handed to a kernel execution.
    pub(crate) batch_jobs_submitted: Counter,
    /// Submitted jobs answered (`submitted == completed` once drained).
    pub(crate) batch_jobs_completed: Counter,
    /// Kernel groups that panicked (member jobs answered 500).
    pub(crate) batch_panics: Counter,
    /// Classify jobs per kernel execution.
    pub(crate) batch_size: Arc<Histogram>,
    /// Dispatch → compute-thread pickup, µs.
    pub(crate) batch_wait_us: Arc<WindowedHistogram>,
    /// Extra per-model groups inside batch executions.
    pub(crate) batch_model_switches: Counter,
    /// Compiled models currently resident (LRU-tracked).
    pub(crate) models_resident: Gauge,
    /// Compiled forms evicted by the residency LRU.
    pub(crate) compile_evictions: Counter,
    /// Mirrored requests the shadow executor replayed.
    pub(crate) shadow_requests: Counter,
    /// Mirrored requests dropped because the shadow queue was full.
    pub(crate) shadow_dropped: Counter,
    /// Candidate classification latency in the shadow executor, µs.
    pub(crate) shadow_latency_us: Arc<Histogram>,
}

impl Default for Metrics {
    fn default() -> Self {
        Metrics::new()
    }
}

impl Metrics {
    /// Registers every series at zero and resolves its handle.
    pub fn new() -> Metrics {
        let registry = Registry::new();
        let counter = |name: &str| registry.counter(name, &[]);
        let labelled = |name: &str, key: &str, value: &str| registry.counter(name, &[(key, value)]);
        let gauge = |name: &str, labels: &[(&str, &str)]| registry.gauge(name, labels);
        let routes = ROUTES.map(|route| RouteSeries {
            requests: labelled("bstc_requests_total", "route", route),
            errors: labelled("bstc_request_errors_total", "route", route),
            latency: registry.windowed("bstc_request_duration_us", &[("route", route)]),
        });
        Metrics {
            routes,
            samples_classified: counter("bstc_samples_classified_total"),
            reloads: counter("bstc_model_reloads_total"),
            reload_failures: counter("bstc_model_reload_failures_total"),
            conns_accepted: labelled("bstc_connections_total", "event", "accepted"),
            conns_shed: labelled("bstc_connections_total", "event", "shed"),
            conns_handled: labelled("bstc_connections_total", "event", "handled"),
            conns_open: gauge("bstc_connections_open", &[]),
            panics_caught: counter("bstc_panics_caught_total"),
            request_timeouts: counter("bstc_request_timeouts_total"),
            workers_alive: gauge("bstc_workers", &[("state", "alive")]),
            workers_configured: gauge("bstc_workers", &[("state", "configured")]),
            classify_latency: registry.histogram("bstc_classify_latency_us", &[]),
            batches: counter("bstc_batches_total"),
            batch_jobs_submitted: labelled("bstc_batch_jobs_total", "state", "submitted"),
            batch_jobs_completed: labelled("bstc_batch_jobs_total", "state", "completed"),
            batch_panics: counter("bstc_batch_panics_total"),
            batch_size: registry.histogram("bstc_batch_size", &[]),
            batch_wait_us: registry.windowed("bstc_batch_wait_us", &[]),
            batch_model_switches: counter("bstc_batch_model_switches_total"),
            models_resident: gauge("bstc_models_resident", &[]),
            compile_evictions: counter("bstc_model_compile_evictions_total"),
            shadow_requests: counter("bstc_shadow_requests_total"),
            shadow_dropped: counter("bstc_shadow_dropped_total"),
            shadow_latency_us: registry.histogram("bstc_shadow_latency_us", &[]),
            registry,
        }
    }

    /// The series of the route `path` pools into: registry routes pool
    /// into their unnamed counterparts and unknown paths into `other`,
    /// so the `route` label set stays fixed however many models are
    /// registered.
    pub(crate) fn endpoint(&self, path: &str) -> &RouteSeries {
        let route = match path {
            "/classify" | "/health" | "/model" | "/metrics" | "/reload" => path,
            _ if path.starts_with("/v1/models") => {
                if path.ends_with("/classify") {
                    "/classify"
                } else if path.ends_with("/reload") {
                    "/reload"
                } else {
                    "/model"
                }
            }
            _ => "other",
        };
        let at = ROUTES.iter().position(|r| *r == route).expect("route label");
        &self.routes[at]
    }

    /// Counts one answered request by route and status; a 408 is also
    /// a request timeout.
    pub fn record_request(&self, path: &str, status: u16) {
        let route = self.endpoint(path);
        route.requests.inc();
        if status >= 400 {
            route.errors.inc();
        }
        if status == 408 {
            self.request_timeouts.inc();
        }
    }

    /// The disagreement counter of shadowed primary `model` (created at
    /// zero on first use; model names are validated at registration, so
    /// the label set stays bounded).
    pub(crate) fn shadow_disagreements(&self, model: &str) -> Counter {
        self.registry.counter(SHADOW_DISAGREEMENTS, &[("model", model)])
    }

    /// A consistent-enough point-in-time copy for tests and callers
    /// (individual counters are exact; cross-counter skew is possible
    /// while traffic is in flight).
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            conns_accepted: self.conns_accepted.get(),
            conns_shed: self.conns_shed.get(),
            conns_handled: self.conns_handled.get(),
            conns_open: self.conns_open.get(),
            panics_caught: self.panics_caught.get(),
            workers_alive: self.workers_alive.get(),
            workers_configured: self.workers_configured.get(),
            request_timeouts: self.request_timeouts.get(),
            reloads: self.reloads.get(),
            reload_failures: self.reload_failures.get(),
            samples_classified: self.samples_classified.get(),
            batches_executed: self.batches.get(),
            batch_jobs_submitted: self.batch_jobs_submitted.get(),
            batch_jobs_completed: self.batch_jobs_completed.get(),
            batch_panics: self.batch_panics.get(),
            batch_model_switches: self.batch_model_switches.get(),
            models_resident: self.models_resident.get(),
            compile_evictions: self.compile_evictions.get(),
            shadow_requests: self.shadow_requests.get(),
            shadow_dropped: self.shadow_dropped.get(),
            shadow_disagreements: self.registry.value_total(SHADOW_DISAGREEMENTS),
        }
    }

    /// The `GET /metrics` exposition: this server's families, then the
    /// process-global registry's.
    pub fn render(&self) -> String {
        let mut out = String::with_capacity(16 * 1024);
        self.registry.render_into(&mut out);
        obs::global().render_into(&mut out);
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
        m.record_request("/v1/models/x/classify", 400);
        m.record_request("/nope", 404);
        let text = m.render();
        assert!(text.contains("bstc_requests_total{route=\"/classify\"} 2"), "{text}");
        assert!(text.contains("bstc_request_errors_total{route=\"/classify\"} 1"), "{text}");
        assert!(text.contains("bstc_requests_total{route=\"other\"} 1"), "{text}");
        assert!(text.contains("bstc_requests_total{route=\"/reload\"} 0"), "{text}");
    }

    #[test]
    fn classify_latency_uses_shared_histogram() {
        let m = Metrics::new();
        for us in [50, 700, 10_000_000] {
            m.classify_latency.record(us);
        }
        let text = m.render();
        // Exact sum/count survive the move to log buckets.
        assert!(text.contains("bstc_classify_latency_us_bucket{le=\"+Inf\"} 3"), "{text}");
        assert!(text.contains("bstc_classify_latency_us_count 3"), "{text}");
        assert!(text.contains("bstc_classify_latency_us_sum 10000750"), "{text}");
        // Nearest-rank percentiles come from the shared obs histogram:
        // the bucketed answer may sit up to one bucket (~6%) above the
        // recorded sample, never below it.
        let p99 = m.classify_latency.percentile(0.99);
        assert!((10_000_000..=10_700_000).contains(&p99), "p99 {p99}");
        let p0 = m.classify_latency.percentile(0.0);
        assert!((50..=54).contains(&p0), "p0 {p0}");
    }

    #[test]
    fn route_latency_renders_per_endpoint_family() {
        let m = Metrics::new();
        for (path, us) in [("/classify", 800), ("/classify", 1_200), ("/health", 30), ("/nope", 5)]
        {
            m.endpoint(path).latency.record(us);
        }
        let text = m.render();
        assert_eq!(text.matches("# TYPE bstc_request_duration_us histogram").count(), 1);
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
        m.workers_configured.set(4);
        m.workers_alive.set(4);
        m.workers_alive.dec();
        m.conns_accepted.add(5);
        m.conns_shed.inc();
        m.conns_handled.add(4);
        m.conns_open.set(2);
        m.panics_caught.inc();
        m.reload_failures.inc();
        m.record_request("/classify", 408);
        let text = m.render();
        assert!(text.contains("bstc_connections_total{event=\"accepted\"} 5"), "{text}");
        assert!(text.contains("bstc_connections_total{event=\"shed\"} 1"), "{text}");
        assert!(text.contains("bstc_connections_total{event=\"handled\"} 4"), "{text}");
        assert!(text.contains("# TYPE bstc_connections_open gauge\nbstc_connections_open 2"));
        assert!(text.contains("bstc_panics_caught_total 1"), "{text}");
        assert!(text.contains("bstc_model_reload_failures_total 1"), "{text}");
        assert!(text.contains("bstc_request_timeouts_total 1"), "{text}");
        assert!(text.contains("bstc_workers{state=\"alive\"} 3"), "{text}");
        assert!(text.contains("bstc_workers{state=\"configured\"} 4"), "{text}");
        let snap = m.snapshot();
        assert_eq!(snap.conns_accepted, snap.conns_handled + snap.conns_shed);
        assert_eq!(snap.panics_caught, 1);
        assert_eq!(snap.request_timeouts, 1);
        assert_eq!(snap.conns_open, 2);
    }

    #[test]
    fn batch_families_render_and_snapshot() {
        let m = Metrics::new();
        for size in [4, 1] {
            m.batches.inc();
            m.batch_size.record(size);
        }
        m.batch_wait_us.record(150);
        m.batch_jobs_submitted.add(5);
        m.batch_jobs_completed.add(5);
        m.batch_panics.inc();
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
        m.models_resident.set(2);
        m.compile_evictions.inc();
        m.batch_model_switches.add(3);
        m.shadow_requests.add(2);
        m.shadow_latency_us.record(120);
        m.shadow_latency_us.record(340);
        m.shadow_disagreements("tumor").add(2);
        m.shadow_disagreements("leukemia").inc();
        m.shadow_dropped.inc();
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
        m.samples_classified.add(3);
        m.samples_classified.add(2);
        m.reloads.inc();
        let text = m.render();
        assert!(text.contains("bstc_samples_classified_total 5"), "{text}");
        assert!(text.contains("bstc_model_reloads_total 1"), "{text}");
    }

    #[test]
    fn every_family_is_typed_once_across_both_registries() {
        let m = Metrics::new();
        m.shadow_disagreements("m").inc();
        drop(obs::Stage::enter("metrics_unit_stage"));
        obs::counters().add("metrics_unit_total", 1);
        let text = m.render();
        let mut typed: Vec<&str> = text.lines().filter(|l| l.starts_with("# TYPE ")).collect();
        let families = typed.len();
        typed.sort_unstable();
        typed.dedup();
        assert_eq!(typed.len(), families, "{text}");
        assert!(text.contains("bstc_stage_duration_us_count{stage=\"metrics_unit_stage\"} 1"));
        assert!(text.contains("# TYPE metrics_unit_total counter\nmetrics_unit_total 1"));
    }
}
