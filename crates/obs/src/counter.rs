//! Named volume counters: a by-name view over the unlabelled counter
//! families of the process-global [`Registry`].
//!
//! Stage histograms ([`crate::stage`]) answer "how long did phase X
//! take"; counters answer "how much work did it do". The BST builder
//! records its volume counters here (`bstc_bst_pairs_total`,
//! `bstc_bst_distinct_lists_total`, `bstc_bst_arena_bytes_total`), the
//! CLI folds them into `BENCH_train.json`, and `/metrics` renders them
//! with the rest of the global registry.

use crate::registry::{global, Registry};

/// Unlabelled counters of a [`Registry`], addressed by family name.
pub struct Counters<'a>(&'a Registry);

impl Counters<'_> {
    /// Adds `delta` to the counter `name` (created if absent). Callers
    /// on a hot path hold a [`crate::Counter`] from
    /// [`Registry::counter`] instead.
    pub fn add(&self, name: &str, delta: u64) {
        self.0.counter(name, &[]).add(delta);
    }

    /// Current value of the counter `name`; 0 if never touched.
    pub fn get(&self, name: &str) -> u64 {
        self.0.value_total(name)
    }

    /// Every counter family's `(name, value)`, in name order.
    pub fn totals(&self) -> Vec<(String, u64)> {
        self.0.counter_totals()
    }
}

/// The counters of the process-global registry. The training pipeline
/// records into them; `/metrics`, `BENCH_train.json`, and the CLI read
/// them.
pub fn counters() -> Counters<'static> {
    Counters(global())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_creates_and_accumulates() {
        let reg = Registry::new();
        let counters = Counters(&reg);
        assert_eq!(counters.get("x_total"), 0);
        counters.add("x_total", 3);
        counters.add("x_total", 4);
        assert_eq!(counters.get("x_total"), 7);
    }

    #[test]
    fn totals_are_name_ordered() {
        let reg = Registry::new();
        let counters = Counters(&reg);
        counters.add("b_total", 2);
        counters.add("a_total", 1);
        assert_eq!(counters.totals(), vec![("a_total".into(), 1), ("b_total".into(), 2)]);
    }

    #[test]
    fn counters_render_as_typed_unlabelled_families() {
        let reg = Registry::new();
        Counters(&reg).add("bstc_bst_pairs_total", 42);
        let mut out = String::new();
        reg.render_into(&mut out);
        assert_eq!(out, "# TYPE bstc_bst_pairs_total counter\nbstc_bst_pairs_total 42\n");
    }

    #[test]
    fn global_counters_are_shared() {
        counters().add("counter_global_smoke_total", 1);
        assert!(counters().get("counter_global_smoke_total") >= 1);
    }
}
