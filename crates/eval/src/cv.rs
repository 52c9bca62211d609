//! The cross-validation driver behind Figures 4–7 and Tables 4–7: draws
//! the 25 seeded splits of each training-set size and fans the independent
//! tests out over the [`bstc::pool::global`] lanes (the runs are
//! embarrassingly parallel). Each replicate's build and classify calls
//! into the pool run inline on its lane, so the machine is never
//! oversubscribed.

use crate::runner::{prepare, Prepared};
use crate::split::{draw_splits, Split, SplitSpec};
use microarray::ContinuousDataset;

/// One cross-validation cell: a split spec plus replicate count.
#[derive(Clone, Debug)]
pub struct CvCell {
    /// How training sets are drawn (40 %, 60 %, 80 %, or 1-x/0-y).
    pub spec: SplitSpec,
    /// Independent tests (paper: 25).
    pub reps: usize,
    /// Base RNG seed for the cell.
    pub base_seed: u64,
}

impl CvCell {
    /// The paper's standard grid for a two-class dataset: 40/60/80 % plus
    /// the 1-x/0-y cell matching the clinically-determined proportions.
    pub fn paper_grid(fixed_counts: Vec<usize>, reps: usize, base_seed: u64) -> Vec<CvCell> {
        vec![
            CvCell { spec: SplitSpec::Fraction(0.4), reps, base_seed },
            CvCell { spec: SplitSpec::Fraction(0.6), reps, base_seed: base_seed ^ 0x40 },
            CvCell { spec: SplitSpec::Fraction(0.8), reps, base_seed: base_seed ^ 0x80 },
            CvCell {
                spec: SplitSpec::FixedCounts(fixed_counts),
                reps,
                base_seed: base_seed ^ 0xF0,
            },
        ]
    }

    /// Materializes the cell's splits.
    pub fn splits(&self, data: &ContinuousDataset) -> Vec<Split> {
        draw_splits(data.labels(), data.n_classes(), &self.spec, self.reps, self.base_seed)
    }
}

/// Runs `f` over every replicate of a cell in parallel; replicates whose
/// discretization selects no genes are skipped (reported as `None`).
///
/// `f` receives the replicate index and the prepared (discretized) split.
pub fn run_cell<R, F>(data: &ContinuousDataset, cell: &CvCell, f: F) -> Vec<Option<R>>
where
    R: Send,
    F: Fn(usize, &Prepared) -> R + Sync,
{
    let splits = cell.splits(data);
    bstc::pool::global().map(splits.len(), |rep| prepare(data, &splits[rep]).map(|p| f(rep, &p)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::run_bstc;
    use microarray::synth::presets;

    #[test]
    fn paper_grid_has_four_cells() {
        let grid = CvCell::paper_grid(vec![50, 52], 25, 7);
        assert_eq!(grid.len(), 4);
        assert_eq!(grid[0].spec, SplitSpec::Fraction(0.4));
        assert_eq!(grid[3].spec.label(), "1-52/0-50");
        // Distinct seeds per cell keep splits independent.
        let seeds: std::collections::HashSet<u64> = grid.iter().map(|c| c.base_seed).collect();
        assert_eq!(seeds.len(), 4);
    }

    #[test]
    fn run_cell_produces_one_result_per_rep() {
        let data = presets::all_aml(11).scaled_down(50).generate();
        let cell = CvCell { spec: SplitSpec::Fraction(0.6), reps: 4, base_seed: 3 };
        let results = run_cell(&data, &cell, |_, p| run_bstc(p).accuracy);
        assert_eq!(results.len(), 4);
        for r in results.into_iter().flatten() {
            assert!((0.0..=1.0).contains(&r));
        }
    }

    #[test]
    fn run_cell_is_deterministic_across_runs() {
        let data = presets::all_aml(11).scaled_down(50).generate();
        let cell = CvCell { spec: SplitSpec::Fraction(0.6), reps: 3, base_seed: 9 };
        let a = run_cell(&data, &cell, |_, p| run_bstc(p).accuracy);
        let b = run_cell(&data, &cell, |_, p| run_bstc(p).accuracy);
        assert_eq!(a, b);
    }
}
