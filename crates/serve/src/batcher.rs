//! Cross-connection adaptive micro-batching between the HTTP workers
//! and the compiled kernel.
//!
//! Without batching every `/classify` — even at thousands of requests
//! per second — streams the whole compiled mask table through cache once
//! per query: concurrent traffic pays model-traffic × concurrency. The
//! batcher collapses that to × 1: workers parse and binarize requests,
//! then submit a [`Job`] to a bounded submission queue; a single batcher
//! thread coalesces jobs and runs the batch-sweep kernel
//! ([`bstc::CompiledModel::class_values_batch_into`]) once per batch, so
//! each column's masks are loaded from memory once and serve every
//! member query while cache-hot.
//!
//! ## Adaptive drain policy
//!
//! Jobs coalesce up to `max_batch` or `batch_wait`, whichever comes
//! first — but the wait is *adaptive*: immediately available jobs are
//! drained without blocking, and only a **lone** job idle-waits for
//! company. The moment a batch holds two or more jobs, an empty queue
//! means "go", not "wait" — under load the queue refills while the
//! kernel runs, so coalescing emerges from execution backpressure
//! rather than added latency; at light load a single request pays at
//! most `batch_wait` extra.
//!
//! ## No job left behind
//!
//! Every submitted job gets exactly one completion:
//!
//! * completions travel over a rendezvous channel created per job —
//!   the consumed sender makes double-completion unrepresentable;
//! * jobs whose deadline expired while queued complete as
//!   [`Outcome::Expired`] (the worker answers 408) without costing
//!   kernel time;
//! * batch execution runs under `catch_unwind` (with the `batcher`
//!   chaos site inside): a panic drops the unfinished jobs' senders,
//!   which wakes their workers with a disconnect error (a structured
//!   500), and the batcher thread survives to serve the next batch;
//! * on shutdown the submission queue drains before closing
//!   ([`crate::queue::BoundedQueue::close`] semantics), so admitted
//!   jobs are still executed;
//! * when the submission queue is full, [`Batcher::submit`] hands the
//!   queries straight back and the worker classifies inline — graceful
//!   degradation to the unbatched path instead of queueing without
//!   bound.

use crate::bundle::{ModelBundle, Prediction};
use crate::chaos;
use crate::metrics::Metrics;
use crate::queue::{BoundedQueue, Pop};
use bstc::{pool, ParBatchScratch};
use microarray::BitSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How the batcher is configured (`bstc-cli serve --max-batch /
/// --batch-wait-us`).
#[derive(Clone, Debug)]
pub struct BatcherConfig {
    /// Most jobs coalesced into one kernel execution.
    pub max_batch: usize,
    /// How long a lone job waits for company before executing anyway.
    pub batch_wait: Duration,
    /// Submission-queue depth; submissions beyond it fall back to
    /// inline classification on the worker.
    pub queue_depth: usize,
    /// Column-block budget for the batch-sweep kernel, in bytes of
    /// compiled mask data (`bstc-cli serve --kernel-block-bytes`);
    /// 0 selects [`bstc::compiled::DEFAULT_KERNEL_BLOCK_BYTES`].
    pub kernel_block_bytes: usize,
}

impl Default for BatcherConfig {
    fn default() -> Self {
        BatcherConfig {
            max_batch: 32,
            batch_wait: Duration::from_micros(200),
            queue_depth: 1024,
            kernel_block_bytes: 0,
        }
    }
}

/// One worker's classify request, parsed and binarized, awaiting batch
/// execution.
pub struct Job {
    /// The bundle snapshot the worker parsed against. Carried per job so
    /// a hot `/reload` mid-flight cannot desync query widths; the
    /// batcher groups jobs by bundle identity.
    bundle: Arc<ModelBundle>,
    /// Binarized queries (one per input row; possibly empty).
    queries: Vec<BitSet>,
    /// The request's `X-Request-Id`, logged per batch for span joins.
    request_id: String,
    /// Wall-clock point after which the worker no longer wants the
    /// answer.
    deadline: Option<Instant>,
    submitted: Instant,
    completion: SyncSender<Completion>,
}

/// What batch execution produced for one job.
pub enum Outcome {
    /// One prediction per submitted query, in order.
    Predictions(Vec<Prediction>),
    /// The job's deadline expired while it waited in the queue.
    Expired,
}

/// The answer a worker receives for one submitted [`Job`].
pub struct Completion {
    /// Id of the batch execution that served this job (joins the
    /// request's log line to its `classify_batch` span).
    pub batch_id: String,
    /// The job's result.
    pub outcome: Outcome,
}

/// Handle for submitting jobs to the batcher thread.
pub struct Batcher {
    queue: Arc<BoundedQueue<Job>>,
    max_batch: usize,
    batch_wait: Duration,
}

/// Cadence at which the idle batcher re-checks for work and shutdown.
const IDLE_POLL: Duration = Duration::from_millis(250);

impl Batcher {
    /// Spawns the batcher thread. Join the returned handle after
    /// [`Batcher::close`] during shutdown.
    pub fn start(config: BatcherConfig, metrics: Arc<Metrics>) -> (Batcher, JoinHandle<()>) {
        let queue = Arc::new(BoundedQueue::new(config.queue_depth));
        let batcher = Batcher {
            queue: Arc::clone(&queue),
            max_batch: config.max_batch.max(1),
            batch_wait: config.batch_wait,
        };
        let max_batch = batcher.max_batch;
        let batch_wait = batcher.batch_wait;
        let block_bytes = config.kernel_block_bytes;
        let thread = std::thread::Builder::new()
            .name("bstc-serve-batcher".into())
            .spawn(move || run(&queue, &metrics, max_batch, batch_wait, block_bytes))
            .expect("spawn batcher");
        (batcher, thread)
    }

    /// Submits one job and returns the channel its [`Completion`] will
    /// arrive on. When the submission queue is full (or closing), the
    /// queries are handed back so the worker can classify inline.
    pub fn submit(
        &self,
        bundle: &Arc<ModelBundle>,
        queries: Vec<BitSet>,
        request_id: &str,
        deadline: Option<Instant>,
    ) -> Result<Receiver<Completion>, Vec<BitSet>> {
        // Rendezvous with room for one: the batcher's send never blocks,
        // and an abandoned receiver (worker timed out) never wedges it.
        let (tx, rx) = sync_channel(1);
        let job = Job {
            bundle: Arc::clone(bundle),
            queries,
            request_id: request_id.to_string(),
            deadline,
            submitted: Instant::now(),
            completion: tx,
        };
        self.queue.push(job).map(|()| rx).map_err(|job| job.queries)
    }

    /// Closes the submission queue: queued jobs still execute, further
    /// submissions fall back inline, and the batcher thread exits once
    /// drained.
    pub fn close(&self) {
        self.queue.close();
    }
}

/// The batcher thread: pick up work, coalesce, execute, repeat.
fn run(
    queue: &BoundedQueue<Job>,
    metrics: &Metrics,
    max_batch: usize,
    batch_wait: Duration,
    block_bytes: usize,
) {
    let mut scratch = ParBatchScratch::new();
    scratch.set_block_bytes(block_bytes);
    let mut batch: Vec<Job> = Vec::with_capacity(max_batch);
    let mut flat: Vec<BitSet> = Vec::new();
    // Rotates the per-model group order across executions so no model's
    // jobs systematically run first (fair scheduling under mixed load).
    let mut rotation = 0usize;
    loop {
        match queue.pop(IDLE_POLL) {
            Pop::Item(first) => {
                batch.clear();
                batch.push(first);
                collect_batch(queue, &mut batch, max_batch, batch_wait);
                execute_batch(&mut batch, &mut flat, &mut scratch, metrics, rotation);
                rotation = rotation.wrapping_add(1);
            }
            Pop::Empty => continue,
            // Close drains queued items first, so every admitted job was
            // executed by the time we get here.
            Pop::Closed => break,
        }
    }
}

/// The adaptive drain policy (see the module docs): drain what's there,
/// idle-wait only while the batch holds a single job.
fn collect_batch(
    queue: &BoundedQueue<Job>,
    batch: &mut Vec<Job>,
    max_batch: usize,
    batch_wait: Duration,
) {
    let wait_deadline = Instant::now() + batch_wait;
    while batch.len() < max_batch {
        if let Some(job) = queue.try_pop() {
            batch.push(job);
            continue;
        }
        // Queue momentarily empty. With company already on board,
        // execute now — waiting would trade latency for nothing, the
        // queue refills while the kernel runs.
        if batch.len() > 1 {
            return;
        }
        let now = Instant::now();
        if now >= wait_deadline {
            return;
        }
        match queue.pop(wait_deadline - now) {
            Pop::Item(job) => batch.push(job),
            Pop::Empty | Pop::Closed => return,
        }
    }
}

/// Executes one coalesced batch and completes every member job.
fn execute_batch(
    batch: &mut Vec<Job>,
    flat: &mut Vec<BitSet>,
    scratch: &mut ParBatchScratch,
    metrics: &Metrics,
    rotation: usize,
) {
    let batch_id = obs::log::request_id();
    metrics.record_batch(batch.len() as u64);
    let mut request_ids = String::new();
    let mut n_queries = 0usize;
    for job in batch.iter() {
        let waited = u64::try_from(job.submitted.elapsed().as_micros()).unwrap_or(u64::MAX);
        metrics.record_batch_wait_us(waited);
        if !request_ids.is_empty() {
            request_ids.push(',');
        }
        request_ids.push_str(&job.request_id);
        n_queries += job.queries.len();
    }
    // The batch → members join: one line per execution mapping batch_id
    // to every member request id, so a request's log line (which carries
    // batch_id) resolves to the classify_batch span that served it.
    obs::log::info(
        "classify_batch",
        &[
            ("batch_id", batch_id.as_str()),
            ("request_ids", request_ids.as_str()),
            ("jobs", &batch.len().to_string()),
            ("queries", &n_queries.to_string()),
        ],
    );
    // Panic isolation: an unwinding execution drops the unfinished jobs'
    // senders, which wakes their workers with a disconnect (-> 500), and
    // this thread lives on.
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let _stage = obs::Stage::enter("classify_batch");
        chaos::point("batcher");
        // Partition the whole batch by bundle identity (a registry fleet
        // interleaves models; a hot /reload splits one model mid-stream
        // the same way), preserving arrival order within each group so
        // every job is evaluated against the exact model it was parsed
        // for. Groups then execute in rotated order: over many batches
        // each model's group goes first equally often, so one chatty
        // model cannot systematically add its kernel time ahead of
        // everyone else's completions.
        let mut groups: Vec<Vec<Job>> = Vec::new();
        for job in std::mem::take(batch) {
            match groups.iter_mut().find(|g| Arc::ptr_eq(&g[0].bundle, &job.bundle)) {
                Some(group) => group.push(job),
                None => groups.push(vec![job]),
            }
        }
        metrics.record_batch_model_switches(groups.len().saturating_sub(1) as u64);
        let start = if groups.is_empty() { 0 } else { rotation % groups.len() };
        groups.rotate_left(start);
        for group in groups {
            run_group(group, flat, scratch, &batch_id);
        }
    }));
    if outcome.is_err() {
        // A panic before the take left jobs in `batch`; one mid-stream
        // dropped the closure-local rest in the unwind. Either way, drop
        // every unanswered job now so its sender releases and the worker
        // observes the disconnect immediately.
        batch.clear();
        // The scratch may be mid-mutation; replace it wholesale
        // (preserving the configured block budget).
        let block_bytes = scratch.block_bytes();
        *scratch = ParBatchScratch::new();
        scratch.set_block_bytes(block_bytes);
        metrics.record_batch_panic();
        obs::log::warn("batch_panicked", &[("batch_id", batch_id.as_str())]);
    }
}

/// Runs the batch kernel over one same-bundle group and completes its
/// jobs.
fn run_group(
    group: Vec<Job>,
    flat: &mut Vec<BitSet>,
    scratch: &mut ParBatchScratch,
    batch_id: &str,
) {
    let now = Instant::now();
    let mut live = Vec::with_capacity(group.len());
    for job in group {
        if job.deadline.is_some_and(|d| now >= d) {
            let _ = job
                .completion
                .send(Completion { batch_id: batch_id.to_string(), outcome: Outcome::Expired });
        } else {
            live.push(job);
        }
    }
    if live.is_empty() {
        return;
    }
    let bundle = Arc::clone(&live[0].bundle);
    flat.clear();
    let mut ranges = Vec::with_capacity(live.len());
    for job in live.iter_mut() {
        let start = flat.len();
        flat.append(&mut job.queries);
        ranges.push(start..flat.len());
    }
    // One pass over the compiled masks serves every query of the group,
    // split across the process-wide worker pool when the batch carries
    // enough mask traffic to amortize the fan-out.
    bundle.compiled().class_values_batch_par_into(flat, pool::global(), scratch);
    for (job, range) in live.into_iter().zip(ranges) {
        let predictions: Vec<Prediction> =
            range.map(|qi| bundle.prediction_from_values(scratch.values_of(qi))).collect();
        // A send can only fail if the worker gave up (recv timeout);
        // the job is still accounted for on the worker side.
        let _ = job.completion.send(Completion {
            batch_id: batch_id.to_string(),
            outcome: Outcome::Predictions(predictions),
        });
    }
}

/// Serializes the in-crate tests whose batches pass the process-global
/// `"batcher"` chaos site: one of them arms that site with a panic, and a
/// batch from any test running alongside would consume it. Tests of one
/// binary run on parallel threads, so each such test holds this guard.
#[cfg(test)]
pub(crate) fn chaos_site_gate() -> std::sync::MutexGuard<'static, ()> {
    static GATE: std::sync::Mutex<()> = std::sync::Mutex::new(());
    GATE.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bundle::Provenance;
    use crate::chaos::{Fault, Trigger};
    use microarray::ContinuousDataset;
    use std::sync::mpsc::RecvTimeoutError;

    fn toy_bundle() -> Arc<ModelBundle> {
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
        Arc::new(ModelBundle::train(&data, Provenance::new("toy", None)).unwrap())
    }

    fn job(bundle: &Arc<ModelBundle>, rows: &[&[f64]]) -> (Job, Receiver<Completion>) {
        let (tx, rx) = sync_channel(1);
        let queries = rows.iter().map(|r| bundle.query_for_row(r).unwrap()).collect();
        (
            Job {
                bundle: Arc::clone(bundle),
                queries,
                request_id: obs::log::request_id(),
                deadline: None,
                submitted: Instant::now(),
                completion: tx,
            },
            rx,
        )
    }

    #[test]
    fn collect_stops_at_max_batch_and_leaves_the_rest() {
        let bundle = toy_bundle();
        let queue = BoundedQueue::new(16);
        let mut receivers = Vec::new();
        for _ in 0..6 {
            let (j, rx) = job(&bundle, &[&[1.0, 4.0]]);
            queue.push(j).ok().unwrap();
            receivers.push(rx);
        }
        let mut batch = vec![match queue.pop(Duration::from_millis(10)) {
            Pop::Item(j) => j,
            _ => panic!("expected a job"),
        }];
        collect_batch(&queue, &mut batch, 4, Duration::from_secs(10));
        assert_eq!(batch.len(), 4, "full batch caps at max_batch");
        assert_eq!(queue.len(), 2, "excess jobs stay queued for the next batch");
    }

    #[test]
    fn lone_job_flushes_after_the_wait_timeout() {
        let bundle = toy_bundle();
        let queue: BoundedQueue<Job> = BoundedQueue::new(16);
        let (j, _rx) = job(&bundle, &[&[1.0, 4.0]]);
        let mut batch = vec![j];
        let started = Instant::now();
        collect_batch(&queue, &mut batch, 8, Duration::from_millis(30));
        assert_eq!(batch.len(), 1);
        let waited = started.elapsed();
        assert!(waited >= Duration::from_millis(25), "lone job must wait, waited {waited:?}");
    }

    #[test]
    fn hot_queue_executes_without_idle_waiting() {
        let bundle = toy_bundle();
        let queue = BoundedQueue::new(16);
        let mut receivers = Vec::new();
        for _ in 0..3 {
            let (j, rx) = job(&bundle, &[&[1.0, 4.0]]);
            queue.push(j).ok().unwrap();
            receivers.push(rx);
        }
        let mut batch = vec![match queue.pop(Duration::from_millis(10)) {
            Pop::Item(j) => j,
            _ => panic!("expected a job"),
        }];
        let started = Instant::now();
        // A 10 s wait that is never taken: company on board means an
        // empty queue triggers execution, not idling.
        collect_batch(&queue, &mut batch, 8, Duration::from_secs(10));
        assert_eq!(batch.len(), 3, "drains what's there");
        assert!(started.elapsed() < Duration::from_secs(2), "must not idle-wait while hot");
    }

    #[test]
    fn batch_execution_completes_every_job_with_correct_predictions() {
        let _gate = chaos_site_gate();
        let bundle = toy_bundle();
        let metrics = Arc::new(Metrics::new());
        let (batcher, thread) = Batcher::start(
            BatcherConfig {
                max_batch: 8,
                batch_wait: Duration::from_millis(5),
                queue_depth: 64,
                ..BatcherConfig::default()
            },
            Arc::clone(&metrics),
        );
        let rx_neg = batcher
            .submit(&bundle, vec![bundle.query_for_row(&[1.0, 4.0]).unwrap()], "r1", None)
            .ok()
            .unwrap();
        let rx_pos = batcher
            .submit(&bundle, vec![bundle.query_for_row(&[9.0, 4.0]).unwrap()], "r2", None)
            .ok()
            .unwrap();
        let neg = rx_neg.recv_timeout(Duration::from_secs(5)).unwrap();
        let pos = rx_pos.recv_timeout(Duration::from_secs(5)).unwrap();
        let (Outcome::Predictions(neg), Outcome::Predictions(pos)) = (neg.outcome, pos.outcome)
        else {
            panic!("expected predictions");
        };
        assert_eq!(neg[0].label, "neg");
        assert_eq!(pos[0].label, "pos");
        // Batched predictions are bit-identical to the per-query path.
        let reference = bundle.classify_row(&[1.0, 4.0]).unwrap();
        assert_eq!(neg[0].values, reference.values);
        assert_eq!(neg[0].confidence, reference.confidence);
        batcher.close();
        thread.join().unwrap();
        let snap = metrics.snapshot();
        assert!(snap.batches_executed >= 1);
    }

    #[test]
    fn shutdown_drains_queued_jobs_no_job_stranded() {
        let _gate = chaos_site_gate();
        let bundle = toy_bundle();
        let metrics = Arc::new(Metrics::new());
        // A long wait so jobs pile up behind the first batch.
        let (batcher, thread) = Batcher::start(
            BatcherConfig {
                max_batch: 64,
                batch_wait: Duration::from_millis(1),
                queue_depth: 64,
                ..BatcherConfig::default()
            },
            metrics,
        );
        let receivers: Vec<_> = (0..16)
            .map(|i| {
                let row = if i % 2 == 0 { [1.0, 4.0] } else { [9.0, 4.0] };
                batcher
                    .submit(
                        &bundle,
                        vec![bundle.query_for_row(&row).unwrap()],
                        &format!("r{i}"),
                        None,
                    )
                    .ok()
                    .unwrap()
            })
            .collect();
        // Close immediately: everything admitted must still complete.
        batcher.close();
        for (i, rx) in receivers.into_iter().enumerate() {
            let completion = rx
                .recv_timeout(Duration::from_secs(5))
                .unwrap_or_else(|e| panic!("job {i} stranded: {e:?}"));
            let Outcome::Predictions(ps) = completion.outcome else {
                panic!("job {i}: expected predictions");
            };
            assert_eq!(ps.len(), 1);
        }
        thread.join().unwrap();
    }

    #[test]
    fn expired_jobs_complete_as_expired_not_stranded() {
        let _gate = chaos_site_gate();
        let bundle = toy_bundle();
        let metrics = Arc::new(Metrics::new());
        let (batcher, thread) = Batcher::start(BatcherConfig::default(), metrics);
        let expired = Instant::now() - Duration::from_millis(1);
        let rx = batcher
            .submit(
                &bundle,
                vec![bundle.query_for_row(&[1.0, 4.0]).unwrap()],
                "r-late",
                Some(expired),
            )
            .ok()
            .unwrap();
        let completion = rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert!(matches!(completion.outcome, Outcome::Expired));
        batcher.close();
        thread.join().unwrap();
    }

    #[test]
    fn full_queue_hands_queries_back_for_inline_fallback() {
        let bundle = toy_bundle();
        let metrics = Arc::new(Metrics::new());
        // Depth 1 and a batcher kept busy by a closed-over first job is
        // racy; instead just close the queue so pushes fail immediately.
        let (batcher, thread) =
            Batcher::start(BatcherConfig { queue_depth: 1, ..BatcherConfig::default() }, metrics);
        batcher.close();
        let queries = vec![bundle.query_for_row(&[1.0, 4.0]).unwrap()];
        let returned = batcher.submit(&bundle, queries, "r", None).expect_err("must bounce");
        assert_eq!(returned.len(), 1, "queries come back for the inline path");
        thread.join().unwrap();
    }

    fn wide_bundle() -> Arc<ModelBundle> {
        // Three genes, so queries are a different width than toy_bundle's:
        // mixing them in one kernel pass would be memory-unsafe nonsense.
        let data = ContinuousDataset::new(
            vec!["gA".into(), "gB".into(), "gC".into()],
            vec!["neg".into(), "pos".into()],
            vec![
                vec![1.0, 5.0, 2.0],
                vec![1.2, 3.0, 2.2],
                vec![0.8, 5.5, 1.8],
                vec![1.1, 2.9, 2.1],
                vec![9.0, 5.1, 7.0],
                vec![9.2, 3.2, 7.2],
                vec![8.9, 5.2, 6.8],
                vec![9.1, 3.1, 7.1],
            ],
            vec![0, 0, 0, 0, 1, 1, 1, 1],
        )
        .unwrap();
        Arc::new(ModelBundle::train(&data, Provenance::new("toy-wide", None)).unwrap())
    }

    #[test]
    fn mixed_model_batch_groups_per_bundle_and_counts_switches() {
        let _gate = chaos_site_gate();
        let narrow = toy_bundle();
        let wide = wide_bundle();
        let metrics = Metrics::new();
        let mut scratch = ParBatchScratch::new();
        let mut flat = Vec::new();
        // Jobs interleaved narrow/wide/narrow/wide: the partition must
        // run exactly two kernel groups, never a mixed-width one.
        let mut batch = Vec::new();
        let mut receivers = Vec::new();
        for i in 0..4 {
            let (j, rx) = if i % 2 == 0 {
                job(&narrow, &[&[1.0, 4.0]])
            } else {
                let (tx, rx) = sync_channel(1);
                (
                    Job {
                        bundle: Arc::clone(&wide),
                        queries: vec![wide.query_for_row(&[9.0, 4.0, 7.0]).unwrap()],
                        request_id: format!("w{i}"),
                        deadline: None,
                        submitted: Instant::now(),
                        completion: tx,
                    },
                    rx,
                )
            };
            batch.push(j);
            receivers.push(rx);
        }
        execute_batch(&mut batch, &mut flat, &mut scratch, &metrics, 1);
        for (i, rx) in receivers.into_iter().enumerate() {
            let completion = rx.recv_timeout(Duration::from_secs(5)).unwrap();
            let Outcome::Predictions(ps) = completion.outcome else {
                panic!("job {i}: expected predictions");
            };
            let expected = if i % 2 == 0 {
                narrow.classify_row(&[1.0, 4.0]).unwrap()
            } else {
                wide.classify_row(&[9.0, 4.0, 7.0]).unwrap()
            };
            assert_eq!(ps[0].values, expected.values, "job {i} ran on its own bundle");
        }
        // Two groups in one execution = one model switch.
        assert_eq!(metrics.snapshot().batch_model_switches, 1);
    }

    #[test]
    fn injected_panic_fails_jobs_cleanly_and_batcher_survives() {
        let _gate = chaos_site_gate();
        let bundle = toy_bundle();
        let metrics = Arc::new(Metrics::new());
        let (batcher, thread) = Batcher::start(
            BatcherConfig {
                max_batch: 8,
                batch_wait: Duration::from_millis(50),
                queue_depth: 64,
                ..BatcherConfig::default()
            },
            Arc::clone(&metrics),
        );
        chaos::inject("batcher", Fault::Panic, Trigger::Times(1));
        let rx_a = batcher
            .submit(&bundle, vec![bundle.query_for_row(&[1.0, 4.0]).unwrap()], "a", None)
            .ok()
            .unwrap();
        // The doomed batch: its worker must observe a disconnect, not a
        // hang.
        match rx_a.recv_timeout(Duration::from_secs(5)) {
            Err(RecvTimeoutError::Disconnected) => {}
            Ok(_) => panic!("batch should have panicked"),
            Err(RecvTimeoutError::Timeout) => panic!("job stranded after batch panic"),
        }
        // The batcher thread survived and serves the next job normally.
        let rx_b = batcher
            .submit(&bundle, vec![bundle.query_for_row(&[9.0, 4.0]).unwrap()], "b", None)
            .ok()
            .unwrap();
        let completion = rx_b.recv_timeout(Duration::from_secs(5)).unwrap();
        assert!(matches!(completion.outcome, Outcome::Predictions(_)));
        chaos::clear_site("batcher");
        assert_eq!(metrics.snapshot().batch_panics, 1);
        batcher.close();
        thread.join().unwrap();
    }
}
