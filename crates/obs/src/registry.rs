//! The one metric store and Prometheus renderer.
//!
//! A [`Registry`] holds named families. Each family has one kind
//! — counter, gauge, histogram ([`Histogram`]) or windowed histogram
//! ([`WindowedHistogram`]) — and holds series keyed by a label set.
//! Registering a series returns a handle ([`Counter`], [`Gauge`], or an
//! `Arc` of the histogram) that records with relaxed atomics and never
//! touches the registry lock; the lock is taken only to look a series up
//! or insert it. Registering a name again under a different kind is a
//! programming error and panics.
//!
//! [`Registry::render_into`] is the only Prometheus text renderer in the
//! stack: each family's `# TYPE` line once, in name order, then its
//! series in registration order. Histogram samples carry the series
//! labels first and `le` last.
//!
//! The process-global instance ([`global`]) holds the pipeline's stage
//! histograms ([`crate::stage`]) and the BST volume counters
//! ([`crate::counter`]). A server keeps its own instance, so several
//! servers in one process never share series, and renders it followed
//! by the global one.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard};

use crate::hist::{render_labels, Histogram};
use crate::window::WindowedHistogram;

/// What a family's series are.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    /// A monotonic `u64`.
    Counter,
    /// A `u64` that is set, and may go down.
    Gauge,
    /// A cumulative [`Histogram`].
    Histogram,
    /// A [`WindowedHistogram`] (60 s epochs); renders as a histogram.
    Windowed,
}

impl Kind {
    fn exposition_type(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
            Kind::Histogram | Kind::Windowed => "histogram",
        }
    }

    fn new_cell(self) -> Cell {
        match self {
            Kind::Counter | Kind::Gauge => Cell::Value(Arc::new(AtomicU64::new(0))),
            Kind::Histogram => Cell::Histogram(Arc::new(Histogram::new())),
            Kind::Windowed => Cell::Windowed(Arc::new(WindowedHistogram::default())),
        }
    }
}

/// One series' storage.
#[derive(Clone, Debug)]
enum Cell {
    Value(Arc<AtomicU64>),
    Histogram(Arc<Histogram>),
    Windowed(Arc<WindowedHistogram>),
}

type Labels = Vec<(String, String)>;

#[derive(Debug)]
struct Family {
    kind: Kind,
    /// Registration order; families hold few series, so lookup is a
    /// scan that allocates nothing.
    series: Vec<(Labels, Cell)>,
}

impl Family {
    /// The series `labels` of this family `name`, which must be a `kind`.
    fn find(&self, name: &str, kind: Kind, labels: &[(&str, &str)]) -> Option<Cell> {
        assert!(self.kind == kind, "metric family {name} is a {:?}, not a {kind:?}", self.kind);
        self.series.iter().find_map(|(have, cell)| {
            let same = have.len() == labels.len()
                && have.iter().zip(labels).all(|((k, v), (k2, v2))| k == k2 && v == v2);
            same.then(|| cell.clone())
        })
    }

    /// Sum of a counter or gauge family's series (0 for histograms).
    fn total(&self) -> u64 {
        self.series
            .iter()
            .map(|(_, cell)| match cell {
                Cell::Value(v) => v.load(Ordering::Relaxed),
                _ => 0,
            })
            .sum()
    }
}

/// A counter series handle: lock-free relaxed adds.
#[derive(Clone, Debug)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge series handle: lock-free relaxed stores.
#[derive(Clone, Debug)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Sets the value.
    pub fn set(&self, n: u64) {
        self.0.store(n, Ordering::Relaxed);
    }

    /// Subtracts one.
    pub fn dec(&self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Named metric families of labelled series (see the module docs).
///
/// Every series getter creates the series (at zero, or empty) on first
/// use and panics if `name` is registered under another kind.
#[derive(Debug)]
pub struct Registry {
    families: RwLock<BTreeMap<String, Family>>,
}

impl Default for Registry {
    fn default() -> Self {
        Registry::new()
    }
}

impl Registry {
    /// An empty registry (usable in `static` position).
    pub const fn new() -> Registry {
        Registry { families: RwLock::new(BTreeMap::new()) }
    }

    fn read(&self) -> RwLockReadGuard<'_, BTreeMap<String, Family>> {
        self.families.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// The series `name{labels}` of a `kind` family.
    fn cell(&self, name: &str, kind: Kind, labels: &[(&str, &str)]) -> Cell {
        if let Some(cell) = self.read().get(name).and_then(|f| f.find(name, kind, labels)) {
            return cell;
        }
        let mut families = self.families.write().unwrap_or_else(PoisonError::into_inner);
        let family =
            families.entry(name.to_string()).or_insert_with(|| Family { kind, series: Vec::new() });
        if let Some(cell) = family.find(name, kind, labels) {
            return cell;
        }
        let cell = kind.new_cell();
        let key = labels.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect();
        family.series.push((key, cell.clone()));
        cell
    }

    /// The counter series `name{labels}`.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        match self.cell(name, Kind::Counter, labels) {
            Cell::Value(v) => Counter(v),
            _ => unreachable!("counter families hold values"),
        }
    }

    /// The gauge series `name{labels}`.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        match self.cell(name, Kind::Gauge, labels) {
            Cell::Value(v) => Gauge(v),
            _ => unreachable!("gauge families hold values"),
        }
    }

    /// The cumulative histogram series `name{labels}`.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Histogram> {
        match self.cell(name, Kind::Histogram, labels) {
            Cell::Histogram(h) => h,
            _ => unreachable!("histogram families hold histograms"),
        }
    }

    /// The windowed histogram series `name{labels}`.
    pub fn windowed(&self, name: &str, labels: &[(&str, &str)]) -> Arc<WindowedHistogram> {
        match self.cell(name, Kind::Windowed, labels) {
            Cell::Windowed(w) => w,
            _ => unreachable!("windowed families hold windowed histograms"),
        }
    }

    /// The sum over every series of the counter or gauge family `name`;
    /// 0 if it is not registered.
    pub fn value_total(&self, name: &str) -> u64 {
        self.read().get(name).map_or(0, Family::total)
    }

    /// `(name, total over its series)` of every counter family, in name
    /// order.
    pub(crate) fn counter_totals(&self) -> Vec<(String, u64)> {
        self.read()
            .iter()
            .filter(|(_, family)| family.kind == Kind::Counter)
            .map(|(name, family)| (name.clone(), family.total()))
            .collect()
    }

    /// Every series of the histogram family `name` as `(labels, count,
    /// sum)`, in registration order.
    pub(crate) fn histogram_totals(&self, name: &str) -> Vec<(Labels, u64, u64)> {
        let families = self.read();
        let Some(family) = families.get(name) else { return Vec::new() };
        family
            .series
            .iter()
            .filter_map(|(labels, cell)| match cell {
                Cell::Histogram(h) => Some((labels.clone(), h.count(), h.sum())),
                _ => None,
            })
            .collect()
    }

    /// Appends the Prometheus text exposition of every family: one
    /// `# TYPE` line each, in name order, then its series.
    pub fn render_into(&self, out: &mut String) {
        for (name, family) in self.read().iter() {
            let _ = writeln!(out, "# TYPE {name} {}", family.kind.exposition_type());
            for (labels, cell) in &family.series {
                let labels: Vec<(&str, &str)> =
                    labels.iter().map(|(k, v)| (k.as_str(), v.as_str())).collect();
                match cell {
                    Cell::Value(v) => {
                        let value = v.load(Ordering::Relaxed);
                        let _ = writeln!(out, "{name}{} {value}", render_labels(&labels, None));
                    }
                    Cell::Histogram(h) => h.render_into(out, name, &labels),
                    Cell::Windowed(w) => w.render_into(out, name, &labels),
                }
            }
        }
    }
}

static GLOBAL: Registry = Registry::new();

/// The process-global registry: pipeline stage histograms and the BST
/// volume counters. `/metrics`, the CLI and the benches read it.
pub fn global() -> &'static Registry {
    &GLOBAL
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_for_the_same_series_share_storage() {
        let reg = Registry::new();
        let a = reg.counter("x_total", &[("route", "/a")]);
        reg.counter("x_total", &[("route", "/a")]).add(4);
        a.inc();
        assert_eq!(a.get(), 5);
        reg.counter("x_total", &[("route", "/b")]).inc();
        assert_eq!(reg.value_total("x_total"), 6);
        assert!(Arc::ptr_eq(&reg.histogram("h", &[]), &reg.histogram("h", &[])));
    }

    #[test]
    #[should_panic(expected = "metric family dual is a Counter, not a Gauge")]
    fn a_name_registered_under_two_kinds_panics() {
        let reg = Registry::new();
        reg.counter("dual", &[]);
        reg.gauge("dual", &[("other", "labels")]);
    }

    #[test]
    #[should_panic(expected = "not a Windowed")]
    fn histogram_and_windowed_histogram_are_different_kinds() {
        let reg = Registry::new();
        reg.histogram("lat_us", &[]);
        reg.windowed("lat_us", &[]);
    }

    #[test]
    fn render_types_each_family_once_then_its_series() {
        let reg = Registry::new();
        reg.counter("req_total", &[("route", "/b")]).add(2);
        reg.counter("req_total", &[("route", "/a")]).add(1);
        let open = reg.gauge("open", &[]);
        open.set(3);
        open.dec();
        reg.windowed("lat_us", &[("route", "/a")]).record(7);
        let mut out = String::new();
        reg.render_into(&mut out);
        assert_eq!(
            out,
            "# TYPE lat_us histogram\n\
             lat_us_bucket{route=\"/a\",le=\"7\"} 1\n\
             lat_us_bucket{route=\"/a\",le=\"+Inf\"} 1\n\
             lat_us_count{route=\"/a\"} 1\n\
             lat_us_sum{route=\"/a\"} 7\n\
             # TYPE open gauge\n\
             open 2\n\
             # TYPE req_total counter\n\
             req_total{route=\"/b\"} 2\n\
             req_total{route=\"/a\"} 1\n"
        );
    }

    #[test]
    fn an_empty_registry_renders_nothing() {
        let mut out = String::new();
        Registry::new().render_into(&mut out);
        assert_eq!(out, "");
    }

    #[test]
    fn counter_totals_skip_other_kinds_and_sum_labels() {
        let reg = Registry::new();
        reg.counter("b_total", &[("m", "x")]).add(2);
        reg.counter("b_total", &[("m", "y")]).add(3);
        reg.counter("a_total", &[]).inc();
        reg.gauge("g", &[]).set(9);
        reg.histogram("h", &[]).record(1);
        assert_eq!(reg.counter_totals(), vec![("a_total".into(), 1), ("b_total".into(), 5)]);
        assert_eq!(reg.value_total("g"), 9);
        assert_eq!(reg.value_total("absent"), 0);
    }
}
