//! Summary statistics, failure accounting and metric-name rules shared by
//! every workload.

/// Samples a tail percentile needs beyond it before it is reported.
pub const TAIL_BEYOND: usize = 10;

/// Median of `values` (mean of the middle pair for an even count).
///
/// # Panics
/// Panics on an empty slice or a NaN sample.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Arithmetic mean (0 for no samples).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// The highest nearest-rank percentile of a sample that still has at
/// least [`TAIL_BEYOND`] samples above it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The percentile, in `(0, 100)`.
    pub percentile: f64,
    /// The sample at that rank.
    pub value: f64,
    /// Samples in the whole set.
    pub samples: usize,
}

/// Selects the tail of `values`, or `None` when fewer than
/// `TAIL_BEYOND + 1` samples exist (no percentile has ten beyond it).
pub fn tail(values: &[f64]) -> Option<Tail> {
    let n = values.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    // Zero-based index i has n - 1 - i samples above it.
    let i = n - 1 - TAIL_BEYOND;
    Some(Tail { percentile: 100.0 * (i + 1) as f64 / n as f64, value: v[i], samples: n })
}

/// A tail taken per block of consecutive ops, then the median over
/// blocks (a window of fewer than two blocks is one block).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BlockedTail {
    pub percentile: f64,
    pub value: f64,
    /// Samples in each block.
    pub samples: usize,
    pub blocks: usize,
}

/// Ops per block for [`blocked_tail`].
pub const TAIL_BLOCK: usize = 1000;

/// The tail of `lat` (in completion order): with at least two blocks of
/// `block` ops, the median over whole blocks of each block's [`tail`];
/// otherwise the tail of the whole sample.
pub fn blocked_tail(lat: &[f64], block: usize) -> Option<BlockedTail> {
    if lat.len() < 2 * block {
        return tail(lat).map(|t| BlockedTail {
            percentile: t.percentile,
            value: t.value,
            samples: t.samples,
            blocks: 1,
        });
    }
    let tails: Vec<Tail> = lat.chunks_exact(block).filter_map(tail).collect();
    let values: Vec<f64> = tails.iter().map(|t| t.value).collect();
    Some(BlockedTail {
        percentile: tails.first()?.percentile,
        value: median(&values),
        samples: block,
        blocks: tails.len(),
    })
}

/// Ops attempted and ops failed. An op that errors or returns a wrong
/// answer is a failure.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Counts one op; `ok == false` counts it failed as well.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Folds another tally into this one.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// Ops that completed correctly.
    pub fn succeeded(&self) -> u64 {
        self.attempted - self.failed
    }
}

/// Whether `name` is a valid metric or workload name: 1 to 64 characters
/// from `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    let first_ok = name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric());
    first_ok
        && name.len() <= 64
        && name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` is a valid unit string: 1 to 16 characters from
/// `[A-Za-z0-9_/%.-]`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(tail(&ten), None);
        let eleven: Vec<f64> = (1..=11).map(f64::from).collect();
        let t = tail(&eleven).unwrap();
        assert_eq!(t.value, 1.0);
        assert_eq!(t.samples, 11);
        assert!((t.percentile - 100.0 / 11.0).abs() < 1e-12);
    }

    #[test]
    fn tail_leaves_exactly_ten_above() {
        for n in [11usize, 20, 37, 100, 1000, 12_345] {
            // Reverse order: selection must not depend on input order.
            let values: Vec<f64> = (0..n).rev().map(|x| x as f64).collect();
            let t = tail(&values).unwrap();
            let above = values.iter().filter(|&&v| v > t.value).count();
            assert_eq!(above, TAIL_BEYOND, "n = {n}");
        }
        let t = tail(&(0..1000).map(f64::from).collect::<Vec<_>>()).unwrap();
        assert_eq!(t.percentile, 99.0);
        assert_eq!(t.value, 989.0);
    }

    #[test]
    fn blocked_tail_is_the_median_block_tail() {
        // Fewer than two blocks: the whole sample.
        let small: Vec<f64> = (0..30).map(f64::from).collect();
        let t = blocked_tail(&small, 20).unwrap();
        assert_eq!((t.value, t.samples, t.blocks), (19.0, 30, 1));
        // Three blocks of 20 (the partial fourth is dropped); each block's
        // tail is its 10th smallest, the middle block's wins.
        let mut lat: Vec<f64> = Vec::new();
        for base in [100.0, 0.0, 50.0, 1e9] {
            lat.extend((0..20).map(|x| base + f64::from(x)));
        }
        lat.truncate(65);
        let t = blocked_tail(&lat, 20).unwrap();
        assert_eq!((t.value, t.samples, t.blocks), (59.0, 20, 3));
        assert_eq!(t.percentile, 50.0);
        assert_eq!(blocked_tail(&small[..10], 20), None);
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }

    #[test]
    fn tally_counts_failures_as_attempts() {
        let mut t = Tally::default();
        t.record(true);
        t.record(false);
        t.record(true);
        assert_eq!(t, Tally { attempted: 3, failed: 1 });
        assert_eq!(t.succeeded(), 2);
        let mut sum = Tally { attempted: 5, failed: 0 };
        sum.merge(t);
        assert_eq!(sum, Tally { attempted: 8, failed: 1 });
    }

    #[test]
    fn names_and_units() {
        for ok in ["setup_s", "op_p50_ms", "bst.ns_per_pair", "train-wide", "9lives"] {
            assert!(valid_name(ok), "{ok}");
        }
        let long = "a".repeat(65);
        for bad in ["", ".hidden", "-x", "a b", "ops/s", "μs", long.as_str()] {
            assert!(!valid_name(bad), "{bad}");
        }
        for ok in ["ms", "s", "1/s", "%", "count", "MiB"] {
            assert!(valid_unit(ok), "{ok}");
        }
        for bad in ["", "m s", "µs", "abcdefghijklmnopq"] {
            assert!(!valid_unit(bad), "{bad}");
        }
    }
}
