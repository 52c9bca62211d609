//! The compute stage's kernel step: one batch-sweep pass per model over
//! the `/classify` requests a compute thread drained from the queue.
//!
//! Without batching every `/classify` streams the whole compiled mask
//! table through cache once per query: concurrent traffic pays
//! model-traffic × concurrency. A compute thread (see [`crate::server`])
//! pops one request, then drains its share of the classifies *already*
//! queued behind it, up to `--max-batch`, and never idle-waits for more.
//! It decodes and binarizes each request and hands the classify jobs to
//! `execute`, which runs
//! [`bstc::CompiledModel::class_values_batch_into`] once per
//! same-bundle group, so each column's masks are loaded once and serve
//! every member query while cache-hot. Coalescing therefore comes from
//! backlog alone: an idle server adds no wait, and a busy one batches
//! what piled up while the previous kernel pass ran.
//!
//! Each group runs under `catch_unwind` with the `batcher` chaos site
//! inside: a panic fails only that group's jobs (the caller answers them
//! 500), the scratch is replaced, and the thread serves the next batch.

use crate::bundle::{ModelBundle, Prediction};
use crate::chaos;
use crate::metrics::Metrics;
use bstc::{pool, Scratch};
use microarray::BitSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// One classify request's binarized queries and the bundle snapshot they
/// were binarized against. Carried per job so a hot `/reload` mid-flight
/// cannot desync query widths: [`execute`] groups jobs by bundle
/// identity.
pub(crate) struct KernelJob {
    pub(crate) bundle: Arc<ModelBundle>,
    pub(crate) queries: Vec<BitSet>,
}

/// Runs the batch kernel once per same-bundle group of `jobs` and returns
/// each job's predictions in input order; `None` marks a job whose
/// group's pass panicked. `rotation` picks which group runs first, so
/// over many batches each model's group goes first equally often and one
/// chatty model cannot systematically run ahead of everyone else.
pub(crate) fn execute(
    mut jobs: Vec<KernelJob>,
    scratch: &mut Scratch,
    metrics: &Metrics,
    rotation: usize,
) -> Vec<Option<Vec<Prediction>>> {
    metrics.batches.inc();
    metrics.batch_size.record(jobs.len() as u64);
    // Partition by bundle identity (a registry fleet interleaves models;
    // a hot /reload splits one model mid-stream the same way), keeping
    // arrival order within each group.
    let mut groups: Vec<Vec<usize>> = Vec::new();
    for (i, job) in jobs.iter().enumerate() {
        match groups.iter_mut().find(|g| Arc::ptr_eq(&jobs[g[0]].bundle, &job.bundle)) {
            Some(group) => group.push(i),
            None => groups.push(vec![i]),
        }
    }
    metrics.batch_model_switches.add(groups.len().saturating_sub(1) as u64);
    let start = rotation % groups.len().max(1);
    groups.rotate_left(start);
    let mut results: Vec<Option<Vec<Prediction>>> = vec![None; jobs.len()];
    let mut flat: Vec<BitSet> = Vec::new();
    for group in groups {
        flat.clear();
        let mut ranges = Vec::with_capacity(group.len());
        for &i in &group {
            let start = flat.len();
            flat.append(&mut jobs[i].queries);
            ranges.push(start..flat.len());
        }
        let bundle = &jobs[group[0]].bundle;
        let ran = catch_unwind(AssertUnwindSafe(|| {
            let _stage = obs::Stage::enter("classify_batch");
            chaos::point("batcher");
            // One pass over the compiled masks serves every query of the
            // group, split across the process-wide worker pool when the
            // batch carries enough mask traffic to amortize the fan-out.
            bundle.compiled().class_values_batch_into(&flat, pool::global(), scratch);
            ranges
                .iter()
                .map(|range| {
                    range.clone().map(|q| bundle.prediction_from_values(scratch.values_of(q)))
                })
                .map(Iterator::collect)
                .collect::<Vec<Vec<Prediction>>>()
        }));
        match ran {
            Ok(per_job) => {
                for (&i, predictions) in group.iter().zip(per_job) {
                    results[i] = Some(predictions);
                }
            }
            Err(_) => {
                // The scratch may be mid-mutation; replace it wholesale.
                *scratch = Scratch::new();
                metrics.batch_panics.inc();
            }
        }
    }
    results
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

    fn bundle(genes: usize, name: &str) -> Arc<ModelBundle> {
        let rows = [
            [1.0, 5.0, 2.0],
            [1.2, 3.0, 2.2],
            [0.8, 5.5, 1.8],
            [1.1, 2.9, 2.1],
            [9.0, 5.1, 7.0],
            [9.2, 3.2, 7.2],
            [8.9, 5.2, 6.8],
            [9.1, 3.1, 7.1],
        ];
        let data = ContinuousDataset::new(
            ["gA", "gB", "gC"][..genes].iter().map(|g| g.to_string()).collect(),
            vec!["neg".into(), "pos".into()],
            rows.iter().map(|r| r[..genes].to_vec()).collect(),
            vec![0, 0, 0, 0, 1, 1, 1, 1],
        )
        .unwrap();
        Arc::new(ModelBundle::train(&data, Provenance::new(name, None)).unwrap())
    }

    fn job(bundle: &Arc<ModelBundle>, rows: &[&[f64]]) -> KernelJob {
        KernelJob {
            bundle: Arc::clone(bundle),
            queries: rows.iter().map(|r| bundle.query_for_row(r).unwrap()).collect(),
        }
    }

    #[test]
    fn batched_predictions_are_bit_identical_to_the_per_query_path() {
        let _gate = chaos_site_gate();
        let toy = bundle(2, "toy");
        let metrics = Metrics::new();
        let rows: [&[f64]; 3] = [&[1.0, 4.0], &[9.0, 4.0], &[5.0, 4.0]];
        let results = execute(
            vec![job(&toy, &rows[..1]), job(&toy, &rows[1..])],
            &mut Scratch::new(),
            &metrics,
            0,
        );
        let served: Vec<Prediction> = results.into_iter().flat_map(Option::unwrap).collect();
        assert_eq!(served.len(), 3);
        assert_eq!(served[0].label, "neg");
        assert_eq!(served[1].label, "pos");
        for (row, prediction) in rows.iter().zip(&served) {
            let reference = toy.classify_row(row).unwrap();
            assert_eq!(prediction.values, reference.values);
            assert_eq!(prediction.confidence, reference.confidence);
        }
        let snap = metrics.snapshot();
        assert_eq!(snap.batches_executed, 1);
        assert_eq!(snap.batch_model_switches, 0);
    }

    #[test]
    fn mixed_model_batch_groups_per_bundle_and_counts_switches() {
        let _gate = chaos_site_gate();
        let narrow = bundle(2, "toy");
        let wide = bundle(3, "toy-wide");
        let metrics = Metrics::new();
        // Jobs interleaved narrow/wide/narrow/wide: the partition must
        // run exactly two kernel groups, never a mixed-width one.
        let jobs = (0..4)
            .map(|i| {
                if i % 2 == 0 {
                    job(&narrow, &[&[1.0, 4.0]])
                } else {
                    job(&wide, &[&[9.0, 4.0, 7.0]])
                }
            })
            .collect();
        let results = execute(jobs, &mut Scratch::new(), &metrics, 1);
        for (i, result) in results.into_iter().enumerate() {
            let expected = if i % 2 == 0 {
                narrow.classify_row(&[1.0, 4.0]).unwrap()
            } else {
                wide.classify_row(&[9.0, 4.0, 7.0]).unwrap()
            };
            assert_eq!(result.unwrap()[0].values, expected.values, "job {i} ran on its own bundle");
        }
        // Two groups in one execution = one model switch.
        assert_eq!(metrics.snapshot().batch_model_switches, 1);
    }

    #[test]
    fn injected_panic_fails_only_that_group_and_the_next_batch_runs() {
        let _gate = chaos_site_gate();
        let narrow = bundle(2, "toy");
        let wide = bundle(3, "toy-wide");
        let metrics = Metrics::new();
        let mut scratch = Scratch::new();
        chaos::inject("batcher", Fault::Panic, Trigger::Times(1));
        // Rotation 0 runs the narrow group first: it takes the panic.
        let results = execute(
            vec![job(&narrow, &[&[1.0, 4.0]]), job(&wide, &[&[9.0, 4.0, 7.0]])],
            &mut scratch,
            &metrics,
            0,
        );
        chaos::clear_site("batcher");
        assert!(results[0].is_none(), "the panicked group's job has no answer");
        assert!(results[1].is_some(), "the other group still ran");
        let results = execute(vec![job(&narrow, &[&[9.0, 4.0]])], &mut scratch, &metrics, 1);
        assert_eq!(results[0].as_ref().unwrap()[0].label, "pos");
        assert_eq!(metrics.snapshot().batch_panics, 1);
    }
}
