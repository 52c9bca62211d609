//! In-memory span recording for the traced run.
//!
//! Spans are recorded from the benchmark's side of each public call:
//! every span carries its name, its start and end, the op that caused it,
//! and its parent. A *replay* span re-runs part of a parent's work after
//! the op has finished (for example the layers inside `ModelBundle::train`,
//! or the decode/binarize/kernel work a server request did on another
//! thread); it is attributed to that parent, so the parent's self time is
//! what the replayed layers do not explain. Spans stay in memory until the
//! run ends. With tracing off every call is a no-op.

use std::collections::BTreeMap;
use std::time::Instant;

/// Name of the root span of every op.
pub const OP: &str = "op";

/// One recorded span. Times are nanoseconds since the tracer started.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle to an open or closed span (`None` when tracing is off).
pub type SpanId = Option<usize>;

/// Records spans when enabled; does nothing otherwise.
pub struct Tracer {
    on: bool,
    t0: Instant,
    op: u64,
    stack: Vec<usize>,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer { on, t0: Instant::now(), op: 0, stack: Vec::new(), spans: Vec::new() }
    }

    /// Whether spans are being recorded (replays run only then).
    pub fn on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens the root span of op number `op`.
    pub fn begin_op(&mut self, op: u64) -> SpanId {
        self.op = op;
        self.enter(OP)
    }

    /// Opens a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> SpanId {
        if !self.on {
            return None;
        }
        let id = self.spans.len();
        let parent = self.stack.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span { name, op: self.op, parent, start_ns, end_ns: start_ns });
        self.stack.push(id);
        Some(id)
    }

    /// Closes `id`, which must be the innermost open span.
    pub fn exit(&mut self, id: SpanId) {
        if let Some(id) = id {
            let end = self.now_ns();
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(id), "spans close innermost first");
            self.spans[id].end_ns = end;
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    /// Runs `f` as a replay attributed to the closed span `parent`.
    /// Without tracing (or without a parent) `f` does not run.
    pub fn replay<T>(
        &mut self,
        parent: SpanId,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> Option<T> {
        let parent = parent?;
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        let op = self.spans[parent].op;
        self.spans.push(Span { name, op, parent: Some(parent), start_ns, end_ns });
        Some(out)
    }

    /// Appends another tracer's spans (another client thread's).
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Per-layer totals over every recorded op.
    pub fn summary(&self) -> Summary {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        let mut summary = Summary::default();
        for (i, s) in self.spans.iter().enumerate() {
            let self_ns = s.dur_ns() as f64 - child_ns[i] as f64;
            let entry = summary.layers.entry(s.name).or_default();
            entry.total_ns += s.dur_ns() as f64;
            entry.self_ns += self_ns;
            if s.name == OP {
                summary.ops += 1;
                summary.op_ns.push(s.dur_ns() as f64);
            }
        }
        summary
    }
}

/// Totals for one span name.
#[derive(Clone, Copy, Debug, Default)]
pub struct LayerTotal {
    pub total_ns: f64,
    pub self_ns: f64,
}

/// Span totals by name, plus each op's root duration.
#[derive(Debug, Default)]
pub struct Summary {
    pub ops: u64,
    pub op_ns: Vec<f64>,
    pub layers: BTreeMap<&'static str, LayerTotal>,
}

impl Summary {
    /// Mean self time of `name` per op, in nanoseconds (0 when absent).
    pub fn self_per_op_ns(&self, name: &str) -> f64 {
        match (self.layers.get(name), self.ops) {
            (Some(l), ops) if ops > 0 => l.self_ns / ops as f64,
            _ => 0.0,
        }
    }

    /// Mean total (self plus children) time of `name` per op, in
    /// nanoseconds (0 when absent).
    pub fn total_per_op_ns(&self, name: &str) -> f64 {
        match (self.layers.get(name), self.ops) {
            (Some(l), ops) if ops > 0 => l.total_ns / ops as f64,
            _ => 0.0,
        }
    }
}

/// Accumulates deltas of the program's own `obs` stage timers and
/// counters over chosen intervals (the ops, not their replays).
pub struct ObsMeter {
    open: Option<(BTreeMap<String, u64>, BTreeMap<String, u64>)>,
    stage_us: BTreeMap<String, u64>,
    counters: BTreeMap<String, u64>,
}

fn stage_sums() -> BTreeMap<String, u64> {
    obs::global().totals().into_iter().map(|t| (t.name, t.sum_us)).collect()
}

fn counter_values() -> BTreeMap<String, u64> {
    obs::counters().totals().into_iter().collect()
}

fn add_delta(
    into: &mut BTreeMap<String, u64>,
    before: &BTreeMap<String, u64>,
    after: BTreeMap<String, u64>,
) {
    for (name, v) in after {
        let d = v.saturating_sub(before.get(&name).copied().unwrap_or(0));
        *into.entry(name).or_default() += d;
    }
}

impl ObsMeter {
    pub fn new() -> ObsMeter {
        ObsMeter { open: None, stage_us: BTreeMap::new(), counters: BTreeMap::new() }
    }

    pub fn start(&mut self) {
        self.open = Some((stage_sums(), counter_values()));
    }

    pub fn stop(&mut self) {
        if let Some((stages, counters)) = self.open.take() {
            add_delta(&mut self.stage_us, &stages, stage_sums());
            add_delta(&mut self.counters, &counters, counter_values());
        }
    }

    pub fn stage(&self, name: &str) -> u64 {
        self.stage_us.get(name).copied().unwrap_or(0)
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// The `stage.*` and BST counter layer metrics, per op.
    pub fn layers(&self, ops: f64) -> Vec<(&'static str, f64)> {
        let stages = [
            ("stage.mdl_cuts_ms", "mdl_cuts"),
            ("stage.binarize_ms", "binarize"),
            ("stage.bst_build_ms", "bst_build"),
            ("stage.compile_ms", "compile"),
            ("stage.classify_batch_ms", "classify_batch"),
        ];
        let counters = [
            ("bst.pairs", "bstc_bst_pairs_total"),
            ("bst.distinct_lists", "bstc_bst_distinct_lists_total"),
            ("bst.arena_bytes", "bstc_bst_arena_bytes_total"),
        ];
        let stages = stages
            .into_iter()
            .map(|(metric, stage)| (metric, self.stage(stage) as f64 / 1e3 / ops));
        let counters =
            counters.into_iter().map(|(metric, c)| (metric, self.counter(c) as f64 / ops));
        stages.chain(counters).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_nested_and_replayed_children() {
        let mut t = Tracer::new(true);
        let root = t.begin_op(7);
        let train = t.enter("train");
        std::thread::sleep(std::time::Duration::from_millis(4));
        t.exit(train);
        t.exit(root);
        t.replay(train, "fit", || std::thread::sleep(std::time::Duration::from_millis(1)));
        assert!(t.spans.iter().all(|s| s.op == 7));
        let s = t.summary();
        assert_eq!(s.ops, 1);
        let root_ns = s.op_ns[0];
        let sum_self: f64 = s.layers.values().map(|l| l.self_ns).sum();
        assert!((sum_self - root_ns).abs() < 1.0, "self times add up to the op");
        let fit = s.self_per_op_ns("fit");
        assert!(fit >= 1_000_000.0, "{fit}");
        let train = s.layers["train"];
        assert_eq!(train.self_ns, train.total_ns - fit, "replays are the parent's children");
    }

    #[test]
    fn disabled_tracer_records_and_replays_nothing() {
        let mut t = Tracer::new(false);
        let root = t.begin_op(1);
        let ran = t.replay(root, "x", || 1);
        t.exit(root);
        assert_eq!(ran, None);
        assert!(t.spans.is_empty());
        assert_eq!(t.summary().ops, 0);
    }

    #[test]
    fn absorb_remaps_parents() {
        let mut a = Tracer::new(true);
        let r = a.begin_op(1);
        a.exit(r);
        let mut b = Tracer::new(true);
        let r = b.begin_op(2);
        let c = b.enter("child");
        b.exit(c);
        b.exit(r);
        a.absorb(b);
        assert_eq!(a.spans[2].parent, Some(1));
        assert_eq!(a.summary().ops, 2);
    }
}
