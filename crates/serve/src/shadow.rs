//! Shadow / canary traffic: mirror a deterministic fraction of live
//! `/classify` requests to a candidate model and compare server-side.
//!
//! ## Why on the serving path
//!
//! Offline cross-validation ranks candidate models on historical data;
//! shadowing ranks them on the *actual* traffic distribution, which for
//! gene-expression classifiers is exactly where quantization and
//! cut-point drift bite. The primary's response is never delayed: the
//! compute thread only enqueues a [`ShadowJob`] on a bounded
//! drop-on-full queue; a dedicated shadow thread replays
//! the raw rows through the candidate bundle (its own discretizer, its
//! own compiled form) and compares predicted classes row by row.
//!
//! ## Deterministic sampling
//!
//! Whether request *n* to a shadowed model is mirrored is a pure
//! function of `(seed, n)`: a splitmix64 draw over a per-model request
//! counter, compared against the configured percentage in basis points.
//! Tests pin the seed and know exactly which requests shadow —
//! `percent: 100.0` mirrors everything, `0.0` nothing, and any rate in
//! between reproduces byte-for-byte across runs.
//!
//! ## Accounting
//!
//! * `bstc_shadow_requests_total` — mirrored requests executed;
//! * `bstc_shadow_disagreements_total{model}` — requests where the
//!   candidate's predicted class differed from the primary's on at
//!   least one row;
//! * `bstc_shadow_latency_us` — candidate classification latency
//!   histogram (compare against `bstc_classify_latency_us`);
//! * `bstc_shadow_dropped_total` — jobs shed because the shadow queue
//!   was full (the primary path never blocks on shadowing).

use crate::bundle::ModelBundle;
use crate::metrics::Metrics;
use crate::queue::{BoundedQueue, Pop};
use bstc::Scratch;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// One `--shadow` directive: mirror `percent`% of requests routed to
/// `primary` onto the registered model `candidate`.
#[derive(Clone, Debug, PartialEq)]
pub struct ShadowSpec {
    /// Name of the live model whose traffic is mirrored.
    pub primary: String,
    /// Name of the registered candidate model that replays it.
    pub candidate: String,
    /// Percentage of requests to mirror, `0.0..=100.0`.
    pub percent: f64,
}

impl ShadowSpec {
    /// Parses `primary=candidate:percent` (percent optional, default
    /// 100): `tumor=tumor-next:10`.
    ///
    /// # Errors
    /// Returns a human-readable description of the malformed directive.
    pub fn parse(text: &str) -> Result<ShadowSpec, String> {
        let (primary, rest) = text
            .split_once('=')
            .ok_or_else(|| format!("'{text}' is not of the form primary=candidate[:percent]"))?;
        let (candidate, percent) = match rest.rsplit_once(':') {
            Some((candidate, pct)) => {
                let percent: f64 =
                    pct.parse().map_err(|_| format!("'{pct}' is not a percentage in '{text}'"))?;
                (candidate, percent)
            }
            None => (rest, 100.0),
        };
        if primary.is_empty() || candidate.is_empty() {
            return Err(format!("empty model name in '{text}'"));
        }
        if !(0.0..=100.0).contains(&percent) {
            return Err(format!("percentage {percent} out of [0, 100] in '{text}'"));
        }
        Ok(ShadowSpec { primary: primary.to_string(), candidate: candidate.to_string(), percent })
    }
}

/// The per-primary sampling state: candidate handle, rate, and the
/// request counter the deterministic draw runs over.
#[derive(Debug)]
pub struct ShadowRoute {
    spec: ShadowSpec,
    /// Mirror threshold in basis points (percent × 100), so integer
    /// comparison against a `% 10_000` draw is exact.
    threshold: u64,
    seed: u64,
    requests: AtomicU64,
}

impl ShadowRoute {
    /// Builds the sampling state for one spec.
    pub fn new(spec: ShadowSpec, seed: u64) -> ShadowRoute {
        let threshold = (spec.percent * 100.0).round() as u64;
        ShadowRoute { spec, threshold, seed, requests: AtomicU64::new(0) }
    }

    /// The directive this route implements.
    pub fn spec(&self) -> &ShadowSpec {
        &self.spec
    }

    /// Deterministically decides whether this (next) request mirrors:
    /// request `n`'s draw is `splitmix64(seed ⊕ n) mod 10 000 <
    /// percent·100`, independent of thread interleaving given the
    /// arrival order.
    pub fn sample(&self) -> bool {
        let n = self.requests.fetch_add(1, Ordering::Relaxed);
        if self.threshold >= 10_000 {
            return true;
        }
        if self.threshold == 0 {
            return false;
        }
        splitmix64(self.seed ^ n.wrapping_mul(0x9e37_79b9_7f4a_7c15)) % 10_000 < self.threshold
    }
}

/// SplitMix64: a full-period 64-bit mixer; adjacent inputs produce
/// statistically independent outputs, which is what turns a sequential
/// request counter into an unbiased Bernoulli stream.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One mirrored request, queued for asynchronous candidate replay.
pub struct ShadowJob {
    /// The primary model's name (labels the disagreement counter).
    pub model: String,
    /// The candidate bundle to replay against.
    pub candidate: Arc<ModelBundle>,
    /// The raw rows of the original request (the candidate re-binarizes
    /// with its *own* discretizer — that is the point of the exercise).
    pub rows: Vec<Vec<f64>>,
    /// The classes the primary predicted, one per row.
    pub primary_classes: Vec<usize>,
}

/// Handle for enqueueing shadow jobs; owns the executor's queue.
pub struct ShadowExecutor {
    queue: Arc<BoundedQueue<ShadowJob>>,
    metrics: Arc<Metrics>,
}

/// Cadence at which the idle shadow thread re-checks for work/shutdown.
const IDLE_POLL: Duration = Duration::from_millis(250);

impl ShadowExecutor {
    /// Spawns the shadow replay thread. Join the returned handle after
    /// [`ShadowExecutor::close`] during shutdown.
    pub fn start(queue_depth: usize, metrics: Arc<Metrics>) -> (ShadowExecutor, JoinHandle<()>) {
        let queue = Arc::new(BoundedQueue::new(queue_depth.max(1)));
        let executor = ShadowExecutor { queue: Arc::clone(&queue), metrics: Arc::clone(&metrics) };
        let thread = std::thread::Builder::new()
            .name("bstc-serve-shadow".into())
            .spawn(move || run(&queue, &metrics))
            .expect("spawn shadow executor");
        (executor, thread)
    }

    /// Enqueues one mirrored request. A full queue drops the job (and
    /// ticks `bstc_shadow_dropped_total`) — shadowing is best-effort
    /// and must never apply backpressure to the serving path.
    pub fn enqueue(&self, job: ShadowJob) {
        if self.queue.push(job).is_err() {
            self.metrics.shadow_dropped.inc();
        }
    }

    /// Closes the queue: enqueued jobs still replay, then the thread
    /// exits.
    pub fn close(&self) {
        self.queue.close();
    }
}

/// The shadow thread: replay each mirrored request against its
/// candidate, compare classes, account the result.
fn run(queue: &BoundedQueue<ShadowJob>, metrics: &Metrics) {
    let mut scratch = Scratch::new();
    loop {
        match queue.pop(IDLE_POLL) {
            Pop::Item(job) => replay(&job, &mut scratch, metrics),
            Pop::Empty => continue,
            Pop::Closed => break,
        }
    }
}

/// Replays one job and records shadow metrics. A row the candidate
/// cannot classify (mismatched gene universe) counts as a disagreement:
/// a candidate that cannot even accept the primary's traffic disagrees
/// with it rather more fundamentally than by label.
fn replay(job: &ShadowJob, scratch: &mut Scratch, metrics: &Metrics) {
    let started = Instant::now();
    let mut disagreed = false;
    for (row, &primary_class) in job.rows.iter().zip(&job.primary_classes) {
        match job.candidate.classify_row_with(row, scratch) {
            Ok(prediction) => disagreed |= prediction.class != primary_class,
            Err(_) => disagreed = true,
        }
    }
    let latency_us = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
    metrics.shadow_requests.inc();
    metrics.shadow_latency_us.record(latency_us);
    if disagreed {
        metrics.shadow_disagreements(&job.model).inc();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bundle::Provenance;
    use microarray::ContinuousDataset;

    fn toy(flip: bool) -> ContinuousDataset {
        let labels = if flip { vec![1, 1, 1, 1, 0, 0, 0, 0] } else { vec![0, 0, 0, 0, 1, 1, 1, 1] };
        ContinuousDataset::new(
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
            labels,
        )
        .unwrap()
    }

    #[test]
    fn spec_parses_and_rejects() {
        assert_eq!(
            ShadowSpec::parse("tumor=tumor-next:10").unwrap(),
            ShadowSpec { primary: "tumor".into(), candidate: "tumor-next".into(), percent: 10.0 }
        );
        assert_eq!(ShadowSpec::parse("a=b").unwrap().percent, 100.0);
        assert_eq!(ShadowSpec::parse("a=b:0.5").unwrap().percent, 0.5);
        for bad in ["nope", "=b:10", "a=:10", "a=b:pct", "a=b:101", "a=b:-1"] {
            assert!(ShadowSpec::parse(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn sampling_is_deterministic_and_rate_accurate() {
        let spec = ShadowSpec { primary: "a".into(), candidate: "b".into(), percent: 10.0 };
        let draws = |seed: u64| -> Vec<bool> {
            let route = ShadowRoute::new(spec.clone(), seed);
            (0..4000).map(|_| route.sample()).collect()
        };
        let a = draws(42);
        let b = draws(42);
        assert_eq!(a, b, "same seed, same mirror pattern");
        let rate = a.iter().filter(|&&m| m).count() as f64 / 4000.0;
        assert!((0.07..0.13).contains(&rate), "rate {rate} far from 10%");
        let c = draws(43);
        assert_ne!(a, c, "different seeds diverge");
    }

    #[test]
    fn edge_rates_are_exact() {
        let all = ShadowRoute::new(
            ShadowSpec { primary: "a".into(), candidate: "b".into(), percent: 100.0 },
            7,
        );
        let none = ShadowRoute::new(
            ShadowSpec { primary: "a".into(), candidate: "b".into(), percent: 0.0 },
            7,
        );
        for _ in 0..200 {
            assert!(all.sample());
            assert!(!none.sample());
        }
    }

    #[test]
    fn replay_counts_disagreements_between_label_flipped_models() {
        let agree =
            Arc::new(ModelBundle::train(&toy(false), Provenance::new("same", None)).unwrap());
        let flipped =
            Arc::new(ModelBundle::train(&toy(true), Provenance::new("flipped", None)).unwrap());
        let metrics = Arc::new(Metrics::new());
        let (executor, thread) = ShadowExecutor::start(64, Arc::clone(&metrics));
        let rows = vec![vec![1.0, 4.0], vec![9.0, 4.0]];
        let primary: Vec<usize> =
            rows.iter().map(|r| agree.classify_row(r).unwrap().class).collect();
        // Candidate == primary: no disagreement.
        executor.enqueue(ShadowJob {
            model: "m".into(),
            candidate: Arc::clone(&agree),
            rows: rows.clone(),
            primary_classes: primary.clone(),
        });
        // Label-flipped candidate: guaranteed disagreement on every row.
        executor.enqueue(ShadowJob {
            model: "m".into(),
            candidate: flipped,
            rows,
            primary_classes: primary,
        });
        executor.close();
        thread.join().unwrap();
        let snap = metrics.snapshot();
        assert_eq!(snap.shadow_requests, 2);
        assert_eq!(snap.shadow_disagreements, 1);
        assert_eq!(snap.shadow_dropped, 0);
        let text = metrics.render();
        assert!(text.contains("bstc_shadow_disagreements_total{model=\"m\"} 1"), "{text}");
    }

    #[test]
    fn full_queue_drops_instead_of_blocking() {
        let agree =
            Arc::new(ModelBundle::train(&toy(false), Provenance::new("same", None)).unwrap());
        let metrics = Arc::new(Metrics::new());
        // Depth-1 queue that is never drained: close first so pushes fail.
        let (executor, thread) = ShadowExecutor::start(1, Arc::clone(&metrics));
        executor.close();
        thread.join().unwrap();
        executor.enqueue(ShadowJob {
            model: "m".into(),
            candidate: agree,
            rows: vec![vec![1.0, 4.0]],
            primary_classes: vec![0],
        });
        assert_eq!(metrics.snapshot().shadow_dropped, 1);
    }
}
