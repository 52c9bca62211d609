//! Stage timers: named drop-guard spans recorded into the
//! `bstc_stage_duration_us{stage=...}` histogram family of a
//! [`Registry`].
//!
//! `Stage::enter("mdl_cuts")` starts a span; dropping the guard records
//! the elapsed wall time in microseconds into the series
//! `{stage="mdl_cuts"}` of the process-global registry. The registry
//! lock is taken once at `enter`, to find (or insert) the series;
//! recording itself is lock-free. [`Registry::totals`] gives the raw
//! per-stage count and sum for CLI and bench breakdowns.
//!
//! The stage names used across the BSTC stack are `mdl_cuts`,
//! `binarize`, `bst_build`, `compile` and `classify_batch` — one per
//! pipeline phase, matching the per-stage cost decomposition of the
//! paper's runtime tables.

use std::sync::Arc;
use std::time::Instant;

use crate::hist::Histogram;
use crate::registry::{global, Registry};

/// The histogram family every stage span records into.
const STAGE_FAMILY: &str = "bstc_stage_duration_us";

/// Aggregate view of one stage: how often it ran and for how long.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageTotal {
    /// Stage name (the `stage` label).
    pub name: String,
    /// Number of recorded spans.
    pub count: u64,
    /// Total recorded duration, microseconds.
    pub sum_us: u64,
}

impl Registry {
    /// The histogram of stage `name` (created on first use).
    fn stage(&self, name: &str) -> Arc<Histogram> {
        self.histogram(STAGE_FAMILY, &[("stage", name)])
    }

    /// Count/sum totals for every registered stage, in name order.
    /// Stages that never recorded a span (created but unused) are
    /// included with zero counts.
    pub fn totals(&self) -> Vec<StageTotal> {
        let mut totals: Vec<StageTotal> = self
            .histogram_totals(STAGE_FAMILY)
            .into_iter()
            .filter_map(|(labels, count, sum_us)| {
                let (_, name) = labels.into_iter().find(|(k, _)| k == "stage")?;
                Some(StageTotal { name, count, sum_us })
            })
            .collect();
        totals.sort_by(|a, b| a.name.cmp(&b.name));
        totals
    }
}

/// A drop-guard span timer: created with a stage name, records the
/// elapsed microseconds into that stage's histogram when dropped.
///
/// ```
/// {
///     let _stage = obs::Stage::enter("mdl_cuts");
///     // ... work ...
/// } // drop records elapsed µs into global()'s "mdl_cuts" series
/// ```
#[must_use = "a Stage records on drop; binding it to _ drops it immediately"]
pub struct Stage {
    hist: Arc<Histogram>,
    started: Instant,
}

impl Stage {
    /// Starts a span recording into the global registry.
    pub fn enter(name: &str) -> Stage {
        Stage::enter_in(global(), name)
    }

    /// Starts a span recording into an explicit registry (tests).
    pub fn enter_in(registry: &Registry, name: &str) -> Stage {
        Stage { hist: registry.stage(name), started: Instant::now() }
    }
}

impl Drop for Stage {
    fn drop(&mut self) {
        let us = self.started.elapsed().as_micros();
        self.hist.record(u64::try_from(us).unwrap_or(u64::MAX));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_drop_records_into_named_histogram() {
        let reg = Registry::new();
        {
            let _s = Stage::enter_in(&reg, "unit_stage");
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let h = reg.stage("unit_stage");
        assert_eq!(h.count(), 1);
        assert!(h.sum() >= 1_000, "recorded {} µs", h.sum());
    }

    #[test]
    fn totals_are_sorted_and_accumulate() {
        let reg = Registry::new();
        reg.stage("b_stage").record(5);
        reg.stage("a_stage").record(7);
        reg.stage("a_stage").record(9);
        let totals = reg.totals();
        assert_eq!(
            totals,
            vec![
                StageTotal { name: "a_stage".into(), count: 2, sum_us: 16 },
                StageTotal { name: "b_stage".into(), count: 1, sum_us: 5 },
            ]
        );
    }

    #[test]
    fn stages_render_as_one_labelled_histogram_family() {
        let reg = Registry::new();
        reg.stage("compile").record(42);
        reg.stage("binarize").record(1);
        let mut out = String::new();
        reg.render_into(&mut out);
        assert!(out.starts_with("# TYPE bstc_stage_duration_us histogram\n"), "{out}");
        assert_eq!(out.matches("# TYPE").count(), 1, "{out}");
        assert!(out.contains("bstc_stage_duration_us_count{stage=\"compile\"} 1"), "{out}");
        assert!(out.contains("bstc_stage_duration_us_sum{stage=\"compile\"} 42"), "{out}");
        assert!(out.contains("bstc_stage_duration_us_bucket{stage=\"binarize\",le=\"+Inf\"} 1"));
    }

    #[test]
    fn global_registry_is_shared() {
        global().stage("global_smoke").record(1);
        let totals = global().totals();
        assert!(totals.iter().any(|t| t.name == "global_smoke" && t.count >= 1));
    }
}
