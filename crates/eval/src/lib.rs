//! # eval — the §6 evaluation harness
//!
//! Everything the experiment binaries share:
//!
//! * [`split`] — seeded percent and 1-x/0-y train/test splits;
//! * [`stats`] — accuracy, means, and the Figures 4–7 boxplot summary;
//! * [`runner`] — the per-test pipeline: entropy discretization on the
//!   training side, then timed BSTC / Top-k / RCBT / SVM / forest / tree
//!   runs with cutoff (DNF) accounting;
//! * [`confusion`] — confusion matrices and per-class metrics;
//! * [`cv`] — the 25-replicate cross-validation driver (parallel across
//!   replicates on the shared worker pool);
//! * [`stream`] — the out-of-core replicate runner: splits as
//!   `SubsetView`s over any `ColumnSource`, chunked fit/transform, and
//!   the per-replicate seed schedule that makes sharded runs
//!   bit-identical to single-process ones;
//! * [`report`] — aligned text tables, the paper's "≥"/"-" formatting,
//!   CSV, and JSON artifacts.
//!
//! ```
//! use eval::{draw_split, SplitSpec};
//!
//! let labels = vec![0, 0, 0, 0, 0, 0, 1, 1, 1, 1];
//! let split = draw_split(&labels, 2, &SplitSpec::Fraction(0.6), 42);
//! assert_eq!(split.train.len(), 6);
//! assert_eq!(split.test.len(), 4);
//! ```

#![warn(missing_docs)]

pub mod confusion;
pub mod cv;
pub mod report;
pub mod runner;
pub mod split;
pub mod stats;
pub mod stream;

pub use confusion::ConfusionMatrix;
pub use cv::{run_cell, CvCell};
pub use report::{fmt_accuracy, fmt_runtime, write_json, TextTable};
pub use runner::{
    prepare, run_baselines, run_bstc, run_bstc_with, run_cba, run_mc2, run_rcbt, run_topk,
    BaselineParams, BaselineRun, BstcRun, CbaRun, Mc2Run, Prepared, RcbtRun, TopkRun,
};
pub use split::{draw_split, draw_splits, Split, SplitSpec};
pub use stats::{accuracy, mean, std_dev, BoxplotStats};
pub use stream::{run_replicate_streamed, run_reps_streamed, ReplicateResult};
