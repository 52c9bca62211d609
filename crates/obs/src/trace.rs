//! Parent-span trace trees — structural timing across process
//! boundaries.
//!
//! [`Stage`](crate::Stage) answers "how long did each stage take in
//! aggregate"; a [`Trace`] answers "which spans ran *under* which" — the
//! shape the sharded CV driver needs, where a parent process fans
//! replicate ranges out to `cv-shard` workers and wants one tree:
//!
//! ```text
//! cv dur_us=...
//!   shard shard_id=0 dur_us=...
//!     replicate rep=0 dur_us=...
//!     replicate rep=1 dur_us=...
//!   shard shard_id=1 dur_us=...
//!     replicate rep=2 dur_us=...
//! ```
//!
//! Spans are recorded into a [`Trace`] (per driver run, not
//! process-global) and exported as plain [`SpanRecord`]s — obs stays
//! std-only, so serialization to the shard JSON protocol lives with the
//! CLI. A parent joins a worker's records with [`Trace::adopt`], which
//! re-maps the child's span ids into the parent's id space and grafts
//! the child's roots under a chosen parent span; ids never collide and
//! the structure is preserved exactly.
//!
//! Span timestamps are relative to their own trace's start (`start_us`),
//! so adopted spans keep the *worker's* timebase: the tree is
//! structural, durations are real, but cross-process `start_us` values
//! are not mutually comparable.

use std::sync::{Mutex, PoisonError};
use std::time::Instant;

/// One completed (or still-open) span in a trace.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanRecord {
    /// Id unique within the owning [`Trace`] (after [`Trace::adopt`],
    /// within the adopting trace).
    pub id: u64,
    /// Enclosing span, `None` for roots.
    pub parent: Option<u64>,
    /// Span name (e.g. `"shard"`, `"replicate"`).
    pub name: String,
    /// Key/value annotations (e.g. `("shard_id", "2")`).
    pub fields: Vec<(String, String)>,
    /// Microseconds from the owning trace's creation to span start.
    pub start_us: u64,
    /// Span duration in microseconds; `0` until the span ends.
    pub dur_us: u64,
}

struct Inner {
    spans: Vec<SpanRecord>,
    next_id: u64,
}

/// A collector of parent-linked spans. Cheap enough for per-replicate
/// granularity; thread-safe so parallel replicates can record
/// concurrently.
pub struct Trace {
    inner: Mutex<Inner>,
    t0: Instant,
}

impl Default for Trace {
    fn default() -> Trace {
        Trace::new()
    }
}

impl Trace {
    /// An empty trace; `start_us` of its spans are relative to now.
    pub fn new() -> Trace {
        Trace { inner: Mutex::new(Inner { spans: Vec::new(), next_id: 0 }), t0: Instant::now() }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Opens a span under `parent` (`None` = root) and returns its id.
    /// The span stays open (`dur_us == 0`) until [`end`](Trace::end).
    pub fn begin(&self, name: &str, parent: Option<u64>) -> u64 {
        let start_us = self.t0.elapsed().as_micros() as u64;
        let mut inner = self.lock();
        let id = inner.next_id;
        inner.next_id += 1;
        inner.spans.push(SpanRecord {
            id,
            parent,
            name: name.to_string(),
            fields: Vec::new(),
            start_us,
            dur_us: 0,
        });
        id
    }

    /// Closes span `id`, fixing its duration. No-op on unknown ids.
    pub fn end(&self, id: u64) {
        let now_us = self.t0.elapsed().as_micros() as u64;
        let mut inner = self.lock();
        if let Some(span) = inner.spans.iter_mut().find(|s| s.id == id) {
            span.dur_us = now_us.saturating_sub(span.start_us);
        }
    }

    /// Attaches a `key=value` annotation to span `id`.
    pub fn add_field(&self, id: u64, key: &str, value: &str) {
        let mut inner = self.lock();
        if let Some(span) = inner.spans.iter_mut().find(|s| s.id == id) {
            span.fields.push((key.to_string(), value.to_string()));
        }
    }

    /// RAII convenience: opens a span that [`end`](Trace::end)s itself
    /// on drop.
    pub fn span(&self, name: &str, parent: Option<u64>) -> Span<'_> {
        Span { trace: self, id: self.begin(name, parent) }
    }

    /// Snapshot of every span recorded so far, in begin order.
    pub fn records(&self) -> Vec<SpanRecord> {
        self.lock().spans.clone()
    }

    /// Grafts another trace's records (typically deserialized from a
    /// worker process) under span `parent` of *this* trace.
    ///
    /// Every adopted span gets a fresh id from this trace's sequence;
    /// internal parent links are re-mapped through the same translation,
    /// and the child's roots become children of `parent`. Records whose
    /// parent id is missing from `records` are grafted under `parent`
    /// too rather than dropped. Returns the new ids, parallel to
    /// `records`.
    pub fn adopt(&self, parent: u64, records: &[SpanRecord]) -> Vec<u64> {
        let mut inner = self.lock();
        let mut remap = std::collections::HashMap::with_capacity(records.len());
        let mut new_ids = Vec::with_capacity(records.len());
        for record in records {
            let id = inner.next_id;
            inner.next_id += 1;
            remap.insert(record.id, id);
            new_ids.push(id);
        }
        for (record, &id) in records.iter().zip(&new_ids) {
            let mapped_parent =
                record.parent.and_then(|p| remap.get(&p).copied()).unwrap_or(parent);
            let mut adopted = record.clone();
            adopted.id = id;
            adopted.parent = Some(mapped_parent);
            inner.spans.push(adopted);
        }
        new_ids
    }

    /// Renders the tree as indented text, two spaces per depth level,
    /// children in begin order: `name key=value dur_us=N`. Spans whose
    /// parent is unknown render as roots so partial traces still print.
    pub fn render_tree(&self) -> String {
        let spans = self.lock().spans.clone();
        let known: std::collections::HashSet<u64> = spans.iter().map(|s| s.id).collect();
        let mut out = String::new();
        // Unknown parents — and the degenerate self-parent an adopt
        // under a nonexistent graft point can produce — render as roots.
        let roots: Vec<&SpanRecord> = spans
            .iter()
            .filter(|s| s.parent.is_none_or(|p| !known.contains(&p) || p == s.id))
            .collect();
        for root in roots {
            render_into(&mut out, &spans, root, 0);
        }
        out
    }
}

fn render_into(out: &mut String, spans: &[SpanRecord], span: &SpanRecord, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
    out.push_str(&span.name);
    for (k, v) in &span.fields {
        out.push(' ');
        out.push_str(k);
        out.push('=');
        out.push_str(v);
    }
    out.push_str(&format!(" dur_us={}\n", span.dur_us));
    for child in spans.iter().filter(|s| s.parent == Some(span.id) && s.id != span.id) {
        render_into(out, spans, child, depth + 1);
    }
}

/// Drop guard returned by [`Trace::span`].
pub struct Span<'a> {
    trace: &'a Trace,
    id: u64,
}

impl Span<'_> {
    /// The underlying span id, for parenting children or annotating.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Attaches a `key=value` annotation to this span.
    pub fn add_field(&self, key: &str, value: &str) {
        self.trace.add_field(self.id, key, value);
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        self.trace.end(self.id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_close_on_drop() {
        let trace = Trace::new();
        {
            let root = trace.span("cv", None);
            let child = trace.span("replicate", Some(root.id()));
            child.add_field("rep", "0");
        }
        let records = trace.records();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].name, "cv");
        assert_eq!(records[0].parent, None);
        assert_eq!(records[1].parent, Some(records[0].id));
        assert_eq!(records[1].fields, vec![("rep".to_string(), "0".to_string())]);
    }

    #[test]
    fn adopt_remaps_ids_and_grafts_roots_under_the_parent() {
        // Worker trace: its own root with two children; ids 0,1,2 will
        // collide with the parent's numbering unless remapped.
        let worker = Trace::new();
        let wroot = worker.begin("shard_work", None);
        let wa = worker.begin("replicate", Some(wroot));
        let wb = worker.begin("replicate", Some(wroot));
        worker.end(wa);
        worker.end(wb);
        worker.end(wroot);

        let parent = Trace::new();
        let cv = parent.begin("cv", None);
        let shard = parent.begin("shard", Some(cv));
        parent.add_field(shard, "shard_id", "0");
        let new_ids = parent.adopt(shard, &worker.records());
        parent.end(shard);
        parent.end(cv);

        assert_eq!(new_ids.len(), 3);
        let records = parent.records();
        // Adopted ids are fresh — no collisions with cv/shard.
        let mut all: Vec<u64> = records.iter().map(|s| s.id).collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), records.len(), "span ids must stay unique after adopt");
        // The worker's root now hangs off the shard span; its children
        // still hang off it.
        let adopted_root = records.iter().find(|s| s.name == "shard_work").unwrap();
        assert_eq!(adopted_root.parent, Some(shard));
        let reps: Vec<&SpanRecord> = records.iter().filter(|s| s.name == "replicate").collect();
        assert_eq!(reps.len(), 2);
        assert!(reps.iter().all(|r| r.parent == Some(adopted_root.id)));
    }

    #[test]
    fn render_tree_indents_by_structure() {
        let trace = Trace::new();
        let cv = trace.begin("cv", None);
        let shard = trace.begin("shard", Some(cv));
        trace.add_field(shard, "shard_id", "1");
        let rep = trace.begin("replicate", Some(shard));
        trace.add_field(rep, "rep", "3");
        trace.end(rep);
        trace.end(shard);
        trace.end(cv);
        let tree = trace.render_tree();
        let lines: Vec<&str> = tree.lines().collect();
        assert_eq!(lines.len(), 3, "{tree}");
        assert!(lines[0].starts_with("cv "), "{tree}");
        assert!(lines[1].starts_with("  shard shard_id=1 "), "{tree}");
        assert!(lines[2].starts_with("    replicate rep=3 "), "{tree}");
    }

    #[test]
    fn orphaned_parents_degrade_to_roots() {
        // A partial record set (e.g. a worker that died mid-run) whose
        // parent ids point outside the set must still render.
        let trace = Trace::new();
        let orphan = SpanRecord {
            id: 99,
            parent: Some(42),
            name: "lost".into(),
            fields: vec![],
            start_us: 0,
            dur_us: 7,
        };
        let root = trace.begin("cv", None);
        trace.adopt(root, std::slice::from_ref(&orphan));
        trace.end(root);
        let tree = trace.render_tree();
        assert!(tree.contains("lost dur_us=7"), "{tree}");
        // Direct render of an un-adopted orphan set also works.
        let lone = Trace::new();
        lone.adopt(0, &[orphan]); // parent 0 doesn't exist in `lone`
        assert!(lone.render_tree().contains("lost"), "{}", lone.render_tree());
    }

    #[test]
    fn durations_are_monotone_with_nesting() {
        let trace = Trace::new();
        let outer = trace.begin("outer", None);
        let inner = trace.begin("inner", Some(outer));
        std::thread::sleep(std::time::Duration::from_millis(2));
        trace.end(inner);
        trace.end(outer);
        let records = trace.records();
        let outer_dur = records.iter().find(|s| s.name == "outer").unwrap().dur_us;
        let inner_dur = records.iter().find(|s| s.name == "inner").unwrap().dur_us;
        assert!(outer_dur >= inner_dur, "outer {outer_dur} < inner {inner_dur}");
        assert!(inner_dur > 0);
    }
}
