//! # bstc — Boolean Structure Table Classification
//!
//! From-scratch implementation of the ICDE 2008 paper *"Scalable Rule-Based
//! Gene Expression Data Classification"* (Iwen, Lang & Patel):
//!
//! * [`bar`] — boolean association rules (BARs): exclusion clauses, the
//!   restricted antecedent shape of §3.2, generalized support/confidence;
//! * [`bst`] — Boolean Structure Tables (Algorithm 1), cells, cell rules;
//! * [`mod@row_bar`] — gene-row BARs (Algorithm 2 / Figure 2);
//! * [`mine`] — (MC)²BAR mining (Algorithms 3 and 4);
//! * [`rule_group`] — interesting boolean rule groups (§4.2) and the
//!   CAR ⇄ BAR correspondence of Theorem 2;
//! * [`classify`] — BSTCE (Algorithm 5), the BSTC classifier
//!   (Algorithm 6), explanations (§5.3.2), and arithmetization ablations
//!   (§8);
//! * [`compiled`] — the word-parallel, allocation-free evaluation form
//!   the trainer lowers into for serving (mask + popcount kernels and one
//!   column-major batch sweep that amortizes one model pass over a whole
//!   batch, behind one reusable [`Scratch`]); bit-identical to the
//!   reference path.
//!
//! The classifier is polynomial time/space (`O(|S|²·|G|)` to train and
//! per-query, §3.1.1/§5.3.1), parameter-free, and multi-class.
//!
//! ```
//! use bstc::BstcModel;
//! use microarray::fixtures::{section54_query, table1};
//!
//! let train = table1();
//! let model = BstcModel::train(&train);
//! // The paper's §5.4 worked example: classified as Cancer (class 0)
//! // with values 3/4 vs 3/8.
//! assert_eq!(model.classify(&section54_query()), 0);
//! let v = model.class_values(&section54_query());
//! assert!((v[0] - 0.75).abs() < 1e-12 && (v[1] - 0.375).abs() < 1e-12);
//! ```

#![warn(missing_docs)]

pub mod bar;
pub mod bst;
pub mod classify;
pub mod classify_mc2;
pub mod compiled;
pub mod mine;
pub mod pool;
pub mod row_bar;
pub mod rule_group;

pub use bar::{display_bar, Bar, BarAntecedent, ExclusionClause, Sign};
pub use bst::{Bst, BstStats, Cell, ColumnLists, ExclusionList, ExclusionListRef, ListArena};
pub use classify::{confidence_gap_of, select_class, Arithmetization, BstcModel, CellExplanation};
pub use classify_mc2::{CompiledMc2Classifier, Mc2Classifier};
pub use compiled::{CompiledBst, CompiledModel, Scratch};
pub use mine::{mine_topk, mine_topk_per_sample, Mc2Bar};
pub use pool::WorkerPool;
pub use row_bar::{all_row_bars, row_bar};
pub use rule_group::{bar_for_car, theorem2_numbers, theorem2_round_trip, Ibrg};
