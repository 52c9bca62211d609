//! A lock-free log-bucketed histogram and the shared nearest-rank
//! percentile helpers.
//!
//! [`Histogram`] buckets non-negative integer values (the stack records
//! microseconds) into logarithmic buckets with 16 linear sub-buckets per
//! power of two, HdrHistogram-style: values below 16 are exact, larger
//! values land in a bucket whose width is at most 1/16 of its lower
//! edge, so any reported quantile is within ~6% of the true value while
//! the whole histogram is a fixed 976 relaxed `AtomicU64`s — recording
//! is two atomic adds, never a lock, never an allocation.
//!
//! Percentiles use the **nearest-rank (rounding up)** convention shared
//! by [`nearest_rank_index`]: the reported p-quantile of `n` samples is
//! the sample at 0-based index `min(floor(p·n), n-1)`, the smallest
//! sample with *more* than a fraction `p` of the data at or below it.
//! Rounding up matters for small samples: the truncating
//! `((n-1) as f64 * p) as usize` this replaces read index 98 for
//! `n = 100, p = 0.99` — under-reporting p99 by one whole sample — where
//! this convention reads index 99. Bucketed extraction additionally
//! reports the bucket's *upper* edge, so [`Histogram::percentile`]
//! never understates a latency.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};

/// Linear sub-bucket bits per power of two (16 sub-buckets).
const SUB_BITS: u32 = 4;
/// First power-of-two boundary; values below it are bucketed exactly.
const SUB: u64 = 1 << SUB_BITS;
/// Total bucket count covering the full `u64` range.
const N_BUCKETS: usize = ((64 - SUB_BITS) as usize + 1) << SUB_BITS;

/// Bucket index of a value (total order preserved across buckets).
#[inline]
fn bucket_index(v: u64) -> usize {
    if v < SUB {
        v as usize
    } else {
        let shift = 63 - v.leading_zeros() - SUB_BITS;
        ((u64::from(shift) + 1) * SUB + ((v >> shift) - SUB)) as usize
    }
}

/// Inclusive upper edge of a bucket (the value quantiles report).
#[inline]
fn bucket_bound(i: usize) -> u64 {
    if i < SUB as usize {
        i as u64
    } else if i == N_BUCKETS - 1 {
        u64::MAX
    } else {
        let shift = (i >> SUB_BITS) as u32 - 1;
        ((SUB + (i as u64 & (SUB - 1)) + 1) << shift) - 1
    }
}

/// 0-based index of the nearest-rank p-quantile in a sorted sample of
/// size `n`: `min(floor(p·n), n-1)`, i.e. the smallest index holding
/// strictly more than a fraction `p` of the samples at or below it.
///
/// This rounds *up* on small samples — `nearest_rank_index(100, 0.99)`
/// is 99, not the 98 a truncating `(n-1)·p` cast reads — so percentiles
/// derived from it never under-report. `p` is clamped to `[0, 1]`;
/// `n = 0` returns 0 (there is no meaningful rank).
pub fn nearest_rank_index(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    let p = if p.is_finite() { p.clamp(0.0, 1.0) } else { 0.0 };
    (((p * n as f64).floor()) as usize).min(n - 1)
}

/// The nearest-rank p-quantile of an already **sorted** slice (see
/// [`nearest_rank_index`]); 0 for an empty slice.
pub fn percentile_of_sorted(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        0
    } else {
        sorted[nearest_rank_index(sorted.len(), p)]
    }
}

/// A lock-free log-bucketed histogram of `u64` values (see the module
/// docs for the bucket layout and quantile semantics).
pub struct Histogram {
    buckets: Box<[AtomicU64]>,
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count())
            .field("sum", &self.sum())
            .finish_non_exhaustive()
    }
}

impl Histogram {
    /// Creates an empty histogram (a fixed ~8 KiB of atomics).
    pub fn new() -> Histogram {
        Histogram {
            buckets: (0..N_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    /// Records one value. Lock-free: three atomic adds, never a lock,
    /// never an allocation; safe to call from any number of threads
    /// concurrently with readers.
    ///
    /// The sum add is a *release*: a reader that acquires the sum (see
    /// `Histogram::snapshot_into`) is guaranteed to also see the
    /// bucket increment that preceded it, so a rendered `_sum` can
    /// never include a sample the rendered buckets lack.
    pub fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Release);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Total number of recorded values.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all recorded values (wrapping at `u64::MAX`).
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Point-in-time copy of the raw bucket counts (index order follows
    /// value order).
    fn load_buckets(&self) -> Vec<u64> {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect()
    }

    /// One coherent (sum, buckets) snapshot: loads the sum with
    /// *acquire* ordering **before** reading any bucket, pairing with
    /// the release sum add in [`Histogram::record`]. Every sample whose
    /// value is in the returned sum therefore also has its bucket
    /// increment in `counts` — the rendered `_sum` can lag the buckets
    /// (a record between the two reads shows up in buckets only) but
    /// never lead them. Bucket counts accumulate into `counts`
    /// (`counts.len()` must be [`BUCKETS_LEN`]) so the windowed variant
    /// can merge its two epochs; returns this histogram's sum.
    pub(crate) fn snapshot_into(&self, counts: &mut [u64]) -> u64 {
        let sum = self.sum.load(Ordering::Acquire);
        for (slot, b) in counts.iter_mut().zip(self.buckets.iter()) {
            *slot += b.load(Ordering::Relaxed);
        }
        sum
    }

    /// Zeroes every bucket plus the count and sum. Not atomic with
    /// respect to concurrent `record` calls — a racing record may land
    /// in a partially cleared histogram — which is acceptable for the
    /// metrics use case (the windowed flip loses at most a sample or
    /// two per window).
    pub fn reset(&self) {
        for b in self.buckets.iter() {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
    }

    /// The nearest-rank p-quantile of the recorded values, reported as
    /// the containing bucket's upper edge (within ~6% above the true
    /// sample; never below it). Returns 0 when nothing was recorded.
    ///
    /// Rank selection is *exact*: the bucket counts are snapshotted
    /// once, the target rank computed by [`nearest_rank_index`] over
    /// that snapshot's total, and the buckets walked cumulatively.
    pub fn percentile(&self, p: f64) -> u64 {
        percentile_from_counts(&self.load_buckets())(p)
    }

    /// Appends this histogram in Prometheus text exposition format:
    /// cumulative `<metric>_bucket{...,le="..."}` samples (non-empty
    /// buckets plus `+Inf`), then `<metric>_count` and `<metric>_sum`.
    /// The caller writes the one `# TYPE <metric> histogram` line per
    /// family. Counts and sum come from one `Histogram::snapshot_into`
    /// snapshot, so the rendered buckets are always monotone, `_count`
    /// equals the `+Inf` bucket, and `_sum` never includes a sample the
    /// buckets lack.
    pub fn render_into(&self, out: &mut String, metric: &str, labels: &[(&str, &str)]) {
        let mut counts = vec![0u64; BUCKETS_LEN];
        let sum = self.snapshot_into(&mut counts);
        render_counts_into(out, metric, labels, &counts, sum);
    }
}

/// Number of buckets a [`Histogram`] snapshot holds.
pub(crate) const BUCKETS_LEN: usize = N_BUCKETS;

/// Nearest-rank quantile extraction over a bucket-count snapshot; returns
/// a closure so one snapshot can serve several quantiles. Semantics match
/// [`Histogram::percentile`].
pub(crate) fn percentile_from_counts(counts: &[u64]) -> impl Fn(f64) -> u64 + '_ {
    move |p: f64| {
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0;
        }
        let rank = nearest_rank_index(total as usize, p) as u64;
        let mut cumulative = 0u64;
        for (i, c) in counts.iter().enumerate() {
            cumulative += c;
            if cumulative > rank {
                return bucket_bound(i);
            }
        }
        bucket_bound(N_BUCKETS - 1)
    }
}

/// Prometheus text exposition of a bucket-count snapshot (the body of
/// [`Histogram::render_into`], shared with the windowed variant).
pub(crate) fn render_counts_into(
    out: &mut String,
    metric: &str,
    labels: &[(&str, &str)],
    counts: &[u64],
    sum: u64,
) {
    let plain = render_labels(labels, None);
    let mut cumulative = 0u64;
    for (i, c) in counts.iter().enumerate() {
        if *c > 0 {
            cumulative += c;
            let le = render_labels(labels, Some(bucket_bound(i)));
            let _ = writeln!(out, "{metric}_bucket{le} {cumulative}");
        }
    }
    let inf = render_labels(labels, Some(u64::MAX));
    let _ = writeln!(out, "{metric}_bucket{inf} {cumulative}");
    let _ = writeln!(out, "{metric}_count{plain} {cumulative}");
    let _ = writeln!(out, "{metric}_sum{plain} {sum}");
}

/// `{k="v",...}` (empty string when no labels), with `le` appended for
/// bucket samples (`u64::MAX` renders as `+Inf`).
pub(crate) fn render_labels(labels: &[(&str, &str)], le: Option<u64>) -> String {
    let mut parts: Vec<String> = labels.iter().map(|(k, v)| format!("{k}=\"{v}\"")).collect();
    match le {
        Some(u64::MAX) => parts.push("le=\"+Inf\"".into()),
        Some(bound) => parts.push(format!("le=\"{bound}\"")),
        None => {}
    }
    if parts.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", parts.join(","))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact_and_buckets_preserve_order() {
        for v in 0..SUB {
            assert_eq!(bucket_bound(bucket_index(v)), v);
        }
        let mut last = 0usize;
        for v in [0u64, 1, 15, 16, 17, 100, 1000, 65_535, 1 << 30, u64::MAX] {
            let i = bucket_index(v);
            assert!(i >= last, "bucket order broken at {v}");
            last = i;
        }
    }

    #[test]
    fn bucket_bound_never_understates_and_bounds_relative_error() {
        for exp in 0..63u32 {
            for off in [0u64, 1, 3] {
                let v = (1u64 << exp) + off;
                let bound = bucket_bound(bucket_index(v));
                assert!(bound >= v, "bound {bound} < value {v}");
                // Width of a log bucket is at most 1/16 of its lower edge.
                assert!(bound - v <= v / 8 + 1, "bound {bound} too far above {v}");
            }
        }
        assert_eq!(bucket_bound(bucket_index(u64::MAX)), u64::MAX);
    }

    #[test]
    fn nearest_rank_rounds_up_for_small_samples() {
        // The exact case from the serve_bench bug: 100 samples, p99 must
        // read the 100th value (index 99), not the truncated index 98.
        assert_eq!(nearest_rank_index(100, 0.99), 99);
        // The buggy expression this replaces: ((n-1) as f64 * p) as usize.
        assert_eq!(((100usize - 1) as f64 * 0.99) as usize, 98);
        assert_eq!(nearest_rank_index(10, 0.99), 9);
        assert_eq!(nearest_rank_index(1000, 0.99), 990);
        assert_eq!(nearest_rank_index(101, 0.5), 50); // true median
        assert_eq!(nearest_rank_index(100, 1.0), 99);
        assert_eq!(nearest_rank_index(100, 0.0), 0);
        assert_eq!(nearest_rank_index(0, 0.5), 0);
        assert_eq!(nearest_rank_index(1, 0.99), 0);
    }

    #[test]
    fn percentile_of_sorted_n100_p99_reads_the_maximum() {
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_of_sorted(&sorted, 0.99), 100);
        assert_eq!(percentile_of_sorted(&sorted, 0.50), 51);
        assert_eq!(percentile_of_sorted(&sorted, 1.0), 100);
        assert_eq!(percentile_of_sorted(&[], 0.99), 0);
    }

    #[test]
    fn histogram_percentiles_track_known_distribution() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 1000);
        assert_eq!(h.sum(), 500_500);
        let p99 = h.percentile(0.99);
        // True nearest-rank p99 is 991; bucketed extraction may report up
        // to one bucket width (~6%) above, never below.
        assert!((991..=1055).contains(&p99), "p99 {p99}");
        let p50 = h.percentile(0.50);
        assert!((501..=543).contains(&p50), "p50 {p50}");
        assert_eq!(h.percentile(0.0), bucket_bound(bucket_index(1)));
    }

    #[test]
    fn reset_clears_everything() {
        let h = Histogram::new();
        for v in [1u64, 70, 9_000] {
            h.record(v);
        }
        assert_eq!(h.count(), 3);
        h.reset();
        assert_eq!(h.count(), 0);
        assert_eq!(h.sum(), 0);
        assert_eq!(h.percentile(0.99), 0);
        h.record(42);
        assert_eq!(h.count(), 1);
        assert_eq!(h.percentile(0.5), bucket_bound(bucket_index(42)));
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.sum(), 0);
        assert_eq!(h.percentile(0.99), 0);
        let mut out = String::new();
        h.render_into(&mut out, "m", &[]);
        assert!(out.contains("m_bucket{le=\"+Inf\"} 0"), "{out}");
        assert!(out.contains("m_count 0"), "{out}");
    }

    #[test]
    fn render_is_cumulative_monotone_and_balances() {
        let h = Histogram::new();
        for v in [3u64, 3, 90, 2_000, 2_000, 2_000, 1 << 40] {
            h.record(v);
        }
        let mut out = String::new();
        h.render_into(&mut out, "lat_us", &[("route", "/classify")]);
        let mut last = 0u64;
        let mut bucket_lines = 0;
        for line in out.lines() {
            if let Some(rest) = line.strip_prefix("lat_us_bucket{") {
                assert!(rest.contains("route=\"/classify\""), "{line}");
                let v: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
                assert!(v >= last, "non-monotone at {line}");
                last = v;
                bucket_lines += 1;
            }
        }
        assert!(bucket_lines >= 5, "{out}"); // 4 distinct buckets + +Inf
        assert!(out.contains("lat_us_count{route=\"/classify\"} 7"), "{out}");
        assert_eq!(last, 7, "+Inf bucket must equal the count");
    }
}
