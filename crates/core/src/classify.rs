//! The BSTC classifier: BST cell-rule quantized evaluation (BSTCE,
//! Algorithm 5) and class selection (Algorithm 6), plus the §5.3.2
//! explanation API and the §8 "alternative arithmetization" ablation.
//!
//! For a query `Q` and a class BST `T(i)`:
//!
//! 1. every (c, h) exclusion list gets `V_e` = fraction of its literals `Q`
//!    satisfies (line 4);
//! 2. every non-empty cell (g, c) with `Q[g] = 1` gets value 1 for a black
//!    dot, otherwise the **min** of its lists' `V_e` (lines 6–12 — the
//!    paper deliberately uses min rather than a product, "we don't assume
//!    independence");
//! 3. the column value `V_s` is the mean of the column's non-blank cell
//!    values (line 14), and the classification value the mean of the
//!    non-blank columns' `V_s` (line 16).
//!
//! BSTC classifies `Q` as the smallest class index maximizing the value
//! (Algorithm 6).

use crate::bst::Bst;
use crate::compiled::CompiledModel;
use microarray::{BitSet, BoolDataset, ClassId, ItemId, SampleId};
use serde::{Deserialize, Serialize};

/// How a cell's exclusion-list satisfactions are combined into the cell
/// value (step 2 above). The paper ships [`Arithmetization::Min`] and names
/// alternatives as future work (§8); the others are our ablation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum Arithmetization {
    /// `min` over the cell's lists — Algorithm 5 as published.
    #[default]
    Min,
    /// Product of the lists' satisfactions — the "assume independence"
    /// variant the paper explicitly declines (line 10's discussion).
    Product,
    /// Arithmetic mean of the lists' satisfactions.
    Mean,
}

impl Arithmetization {
    pub(crate) fn combine(self, values: impl Iterator<Item = f64>) -> f64 {
        match self {
            Arithmetization::Min => values.fold(1.0, f64::min),
            Arithmetization::Product => values.product(),
            Arithmetization::Mean => {
                let mut sum = 0.0;
                let mut n = 0usize;
                for v in values {
                    sum += v;
                    n += 1;
                }
                if n == 0 {
                    1.0
                } else {
                    sum / n as f64
                }
            }
        }
    }
}

/// One satisfied cell rule, for §5.3.2 explanations.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct CellExplanation {
    /// The class whose BST the cell belongs to.
    pub class: ClassId,
    /// The item (gene row).
    pub item: ItemId,
    /// The supporting training sample (original id) of the cell's column.
    pub supporting_sample: SampleId,
    /// The cell's satisfaction level in `[0, 1]` (1 for black dots).
    pub satisfaction: f64,
}

/// A trained BSTC model: one BST per class.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct BstcModel {
    bsts: Vec<Bst>,
    arith: Arithmetization,
}

impl BstcModel {
    /// Trains on a boolean dataset: builds all class BSTs
    /// (`O(|S|²·|G|)`, §3.1.1). Parameter-free, as advertised.
    pub fn train(data: &BoolDataset) -> BstcModel {
        Self::train_with(data, Arithmetization::Min)
    }

    /// Trains with an explicit arithmetization (ablation entry point).
    pub fn train_with(data: &BoolDataset, arith: Arithmetization) -> BstcModel {
        BstcModel { bsts: Bst::build_all(data), arith }
    }

    /// Number of classes.
    pub fn n_classes(&self) -> usize {
        self.bsts.len()
    }

    /// The underlying BST of a class.
    pub fn bst(&self, class: ClassId) -> &Bst {
        &self.bsts[class]
    }

    /// Checks a deserialized model against the item universe it will be
    /// queried in: every class BST is built over `n_items` items, its
    /// item sets have that capacity and no stray bits, every exclusion
    /// list names items below `n_items`, and its (class sample,
    /// out-sample) index table has one in-range entry per pair.
    ///
    /// # Errors
    /// Describes the first violated invariant.
    pub fn check_structure(&self, n_items: usize) -> Result<(), String> {
        for (class, bst) in self.bsts.iter().enumerate() {
            if bst.n_items() != n_items {
                return Err(format!(
                    "class {class}: BST has {} items, expected {n_items}",
                    bst.n_items()
                ));
            }
            bst.check_structure()?;
        }
        Ok(())
    }

    /// The arithmetization the model was trained with.
    pub fn arithmetization(&self) -> Arithmetization {
        self.arith
    }

    /// Lowers the model into its word-parallel evaluation form (masks +
    /// popcount kernels; see [`crate::compiled`]). Predictions and class
    /// values are bit-identical to this reference model's — use the
    /// compiled form on every serving/batch hot path.
    pub fn compile(&self) -> CompiledModel {
        CompiledModel::compile(self)
    }

    /// Streams the model's canonical compact JSON — byte-identical to
    /// `serde_json::to_string(self)` — into an `io::Write` without
    /// building the serializer's in-memory tree. The model is almost
    /// entirely its BSTs, so this rides [`Bst::write_json_to`]; the
    /// bundle's streaming saver uses it to cap model-write memory.
    pub fn write_json_to<W: std::io::Write>(&self, w: &mut W) -> std::io::Result<()> {
        w.write_all(b"{\"bsts\":[")?;
        for (i, bst) in self.bsts.iter().enumerate() {
            if i > 0 {
                w.write_all(b",")?;
            }
            bst.write_json_to(w)?;
        }
        w.write_all(match self.arith {
            Arithmetization::Min => b"],\"arith\":\"Min\"}",
            Arithmetization::Product => b"],\"arith\":\"Product\"}",
            Arithmetization::Mean => b"],\"arith\":\"Mean\"}",
        })
    }

    /// BSTCE (Algorithm 5): the classification value of `query` against one
    /// class BST.
    pub fn class_value(&self, class: ClassId, query: &BitSet) -> f64 {
        bstce(&self.bsts[class], query, self.arith)
    }

    /// Classification values for every class, indexed by [`ClassId`].
    pub fn class_values(&self, query: &BitSet) -> Vec<f64> {
        self.bsts.iter().map(|b| bstce(b, query, self.arith)).collect()
    }

    /// BSTC (Algorithm 6): the smallest class index with maximal value.
    pub fn classify(&self, query: &BitSet) -> ClassId {
        select_class(&self.class_values(query))
    }

    /// Classifies a batch of queries, fanned out over the
    /// [`pool::global`](crate::pool::global) lanes.
    pub fn classify_all(&self, queries: &[BitSet]) -> Vec<ClassId> {
        crate::pool::global().map(queries.len(), |i| self.classify(&queries[i]))
    }

    /// The §8 confidence heuristic: normalized gap between the highest and
    /// second-highest class values (`0` when fewer than two classes or the
    /// top value is 0).
    pub fn confidence_gap(&self, query: &BitSet) -> f64 {
        confidence_gap_of(&self.class_values(query))
    }

    /// §5.3.2: justifies classifying `query` as `class` by returning every
    /// atomic cell rule of that class's BST with satisfaction ≥ `threshold`
    /// ("requires no additional per-query classification time" — we simply
    /// surface the values BSTCE already computes).
    pub fn explain(&self, class: ClassId, query: &BitSet, threshold: f64) -> Vec<CellExplanation> {
        let bst = &self.bsts[class];
        let mut out = Vec::new();
        let sat = CellSatisfactions::compute(bst, query, self.arith);
        for c in 0..bst.n_class_samples() {
            let shared = query.intersection(bst.class_sample_items(c));
            for g in shared.iter() {
                let v = sat.cell_value(bst, g, c);
                if v >= threshold {
                    out.push(CellExplanation {
                        class,
                        item: g,
                        supporting_sample: bst.class_sample_id(c),
                        satisfaction: v,
                    });
                }
            }
        }
        out.sort_by(|a, b| b.satisfaction.total_cmp(&a.satisfaction));
        out
    }
}

/// BSTC class selection (Algorithm 6) over already-computed class values:
/// the smallest class index with maximal value. Every BSTC classify path —
/// reference, compiled, batched and served — selects through this one
/// function, so they agree on ties by construction.
pub fn select_class(values: &[f64]) -> ClassId {
    let mut best = 0;
    for (i, &v) in values.iter().enumerate().skip(1) {
        if v > values[best] {
            best = i;
        }
    }
    best
}

/// Normalized gap between the highest and second-highest entries of a
/// class-value slice — the §8 confidence heuristic, as a single top-2
/// scan (no clone, no sort; the serve hot path calls this per query).
/// Returns 0 for fewer than two values, a non-positive maximum, or a tie
/// at the top.
pub fn confidence_gap_of(values: &[f64]) -> f64 {
    let [first, second, rest @ ..] = values else {
        return 0.0; // zero or one class
    };
    let (mut best, mut runner_up) =
        if first.total_cmp(second).is_ge() { (*first, *second) } else { (*second, *first) };
    for &v in rest {
        if v.total_cmp(&best).is_gt() {
            runner_up = best;
            best = v;
        } else if v.total_cmp(&runner_up).is_gt() {
            runner_up = v;
        }
    }
    if best <= 0.0 {
        return 0.0;
    }
    (best - runner_up) / best
}

/// Per-query memo of exclusion-list satisfactions (`V_e` of line 4):
/// each (c, h) pair's list is evaluated once, not once per cell.
struct CellSatisfactions {
    /// `v[c][h]` = satisfaction of the (c, h) exclusion list.
    v: Vec<Vec<f64>>,
    arith: Arithmetization,
}

impl CellSatisfactions {
    fn compute(bst: &Bst, query: &BitSet, arith: Arithmetization) -> CellSatisfactions {
        // Distinct lists are evaluated once and fanned out to their (c, h)
        // pairs — the lossless form of §8's exclusion-list culling.
        let v = (0..bst.n_class_samples())
            .map(|c| {
                let per_unique: Vec<f64> = bst
                    .unique_exclusion_lists(c)
                    .iter()
                    .map(|list| list.satisfaction(query))
                    .collect();
                (0..bst.n_out_samples())
                    .map(|h| per_unique[bst.exclusion_list_index(c, h)])
                    .collect()
            })
            .collect();
        CellSatisfactions { v, arith }
    }

    /// Cell value of a non-empty (g, c) cell (lines 7–11).
    #[inline]
    fn cell_value(&self, bst: &Bst, g: ItemId, c: usize) -> f64 {
        let out = bst.out_expressing(g);
        if out.is_empty() {
            return 1.0; // black dot
        }
        self.arith.combine(out.iter().map(|h| self.v[c][h]))
    }
}

/// BSTCE (Algorithm 5) against one BST.
fn bstce(bst: &Bst, query: &BitSet, arith: Arithmetization) -> f64 {
    let sat = CellSatisfactions::compute(bst, query, arith);
    let mut col_sum = 0.0;
    let mut cols = 0usize;
    for c in 0..bst.n_class_samples() {
        // Non-blank cells of this column: items expressed by both the query
        // and the column's sample.
        let shared = query.intersection(bst.class_sample_items(c));
        if shared.is_empty() {
            continue; // blank column (line 13's "non-blank" filter)
        }
        let mut sum = 0.0;
        let mut n = 0usize;
        for g in shared.iter() {
            sum += sat.cell_value(bst, g, c);
            n += 1;
        }
        col_sum += sum / n as f64; // V_s (line 14)
        cols += 1;
    }
    if cols == 0 {
        0.0 // the query shares nothing with this class
    } else {
        col_sum / cols as f64 // line 16
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use microarray::fixtures::{section54_query, table1};

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn figure_3_cancer_value_is_three_quarters() {
        // The paper's worked example: BSTCE(T(Cancer), Q) = (0.75+1+0.5)/3 = 0.75.
        let d = table1();
        let model = BstcModel::train(&d);
        let v = model.class_value(0, &section54_query());
        assert!(close(v, 0.75), "got {v}");
    }

    #[test]
    fn section_5_4_healthy_value_is_three_eighths() {
        let d = table1();
        let model = BstcModel::train(&d);
        let v = model.class_value(1, &section54_query());
        assert!(close(v, 0.375), "got {v}");
    }

    #[test]
    fn section_5_4_query_classified_as_cancer() {
        let d = table1();
        let model = BstcModel::train(&d);
        assert_eq!(model.classify(&section54_query()), 0);
        let values = model.class_values(&section54_query());
        assert!(close(values[0], 0.75) && close(values[1], 0.375));
    }

    #[test]
    fn training_samples_classify_correctly() {
        // Every Table 1 training sample should be assigned its own class —
        // each satisfies its own 100%-confident cell rules exactly.
        let d = table1();
        let model = BstcModel::train(&d);
        for s in 0..d.n_samples() {
            assert_eq!(model.classify(d.sample(s)), d.label(s), "sample s{}", s + 1);
        }
    }

    #[test]
    fn empty_query_has_zero_values_and_ties_break_low() {
        let d = table1();
        let model = BstcModel::train(&d);
        let q = BitSet::new(6);
        assert_eq!(model.class_values(&q), vec![0.0, 0.0]);
        // Algorithm 6 returns the smallest maximizing index.
        assert_eq!(model.classify(&q), 0);
        assert_eq!(model.confidence_gap(&q), 0.0);
    }

    #[test]
    fn black_dot_item_boosts_its_class() {
        // A query expressing only g1 (Cancer-exclusive) maxes the Cancer
        // value at 1.0 and zeroes Healthy (no shared items).
        let d = table1();
        let model = BstcModel::train(&d);
        let q = BitSet::from_iter(6, [0]);
        let values = model.class_values(&q);
        assert!(close(values[0], 1.0), "{values:?}");
        assert_eq!(values[1], 0.0);
        assert_eq!(model.classify(&q), 0);
        assert!(close(model.confidence_gap(&q), 1.0));
    }

    #[test]
    fn explain_returns_satisfied_cells_sorted() {
        let d = table1();
        let model = BstcModel::train(&d);
        let q = section54_query();
        let ex = model.explain(0, &q, 0.0);
        // Non-blank cells for Q = {g1,g4,g5}: (g1,s1), (g5,s1), (g1,s2), (g4,s3).
        assert_eq!(ex.len(), 4);
        assert!(ex.windows(2).all(|w| w[0].satisfaction >= w[1].satisfaction));
        // Threshold 1.0 keeps only the two black-dot g1 cells.
        let strong = model.explain(0, &q, 1.0);
        assert_eq!(strong.len(), 2);
        assert!(strong.iter().all(|e| e.item == 0 && e.satisfaction == 1.0));
    }

    #[test]
    fn explain_values_match_figure_3() {
        let d = table1();
        let model = BstcModel::train(&d);
        let ex = model.explain(0, &section54_query(), 0.0);
        let find = |item: usize, sample: usize| {
            ex.iter()
                .find(|e| e.item == item && e.supporting_sample == sample)
                .map(|e| e.satisfaction)
        };
        assert!(close(find(0, 0).unwrap(), 1.0)); // (g1, s1) black dot
        assert!(close(find(4, 0).unwrap(), 0.5)); // (g5, s1) min(1, 1/2)
        assert!(close(find(3, 2).unwrap(), 0.5)); // (g4, s3)
    }

    #[test]
    fn confidence_gap_of_matches_sort_based_reference() {
        // The single-pass top-2 scan must agree with the clone-and-sort
        // formulation it replaced, including on ties and duplicates.
        let reference = |values: &[f64]| -> f64 {
            let mut sorted = values.to_vec();
            sorted.sort_by(|a, b| b.total_cmp(a));
            if sorted.len() < 2 || sorted[0] <= 0.0 {
                return 0.0;
            }
            (sorted[0] - sorted[1]) / sorted[0]
        };
        let cases: &[&[f64]] = &[
            &[],
            &[0.7],
            &[0.75, 0.375],
            &[0.375, 0.75],
            &[0.5, 0.5],            // exact tie at the top → gap 0
            &[0.25, 0.5, 0.5, 0.1], // tie not in first position
            &[0.0, 0.0],
            &[1.0, 0.0, 0.5, 0.99, 0.25],
            &[0.2, 0.4, 0.6, 0.8], // ascending: best arrives last
        ];
        for values in cases {
            assert_eq!(confidence_gap_of(values), reference(values), "{values:?}");
        }
    }

    #[test]
    fn confidence_gap_ties_are_zero() {
        // Two classes with identical values: no confidence whatsoever.
        let items = vec!["g1".into(), "g2".into()];
        let classes = vec!["A".into(), "B".into()];
        let samples = vec![BitSet::from_iter(2, [0]), BitSet::from_iter(2, [1])];
        let d = BoolDataset::new(items, classes, samples, vec![0, 1]).unwrap();
        let model = BstcModel::train(&d);
        let q = BitSet::from_iter(2, [0, 1]); // symmetric w.r.t. both classes
        let values = model.class_values(&q);
        assert_eq!(values[0], values[1]);
        assert!(values[0] > 0.0);
        assert_eq!(model.confidence_gap(&q), 0.0);
    }

    #[test]
    fn arithmetizations_agree_on_single_list_cells() {
        // With at most one exclusion list per relevant cell, min, product
        // and mean coincide.
        let d = table1();
        let q = BitSet::from_iter(6, [3]); // g4: the only non-empty Cancer cell has 1 list
        let v_min = BstcModel::train_with(&d, Arithmetization::Min).class_value(0, &q);
        let v_prod = BstcModel::train_with(&d, Arithmetization::Product).class_value(0, &q);
        let v_mean = BstcModel::train_with(&d, Arithmetization::Mean).class_value(0, &q);
        assert!(close(v_min, v_prod) && close(v_min, v_mean));
    }

    #[test]
    fn product_is_at_most_min_is_at_most_mean() {
        // For values in [0,1]: Π ≤ min ≤ mean, hence the class values obey
        // the same ordering cell-wise and overall.
        let d = table1();
        let q = section54_query();
        for class in 0..2 {
            let v_prod = BstcModel::train_with(&d, Arithmetization::Product).class_value(class, &q);
            let v_min = BstcModel::train_with(&d, Arithmetization::Min).class_value(class, &q);
            let v_mean = BstcModel::train_with(&d, Arithmetization::Mean).class_value(class, &q);
            assert!(v_prod <= v_min + 1e-12);
            assert!(v_min <= v_mean + 1e-12);
        }
    }

    #[test]
    fn multiclass_classification_works() {
        // Three classes, one exclusive marker each.
        let items: Vec<String> = (0..3).map(|i| format!("m{i}")).collect();
        let classes: Vec<String> = (0..3).map(|i| format!("c{i}")).collect();
        let mk = |i: usize| BitSet::from_iter(3, [i]);
        let d = BoolDataset::new(
            items,
            classes,
            vec![mk(0), mk(0), mk(1), mk(1), mk(2), mk(2)],
            vec![0, 0, 1, 1, 2, 2],
        )
        .unwrap();
        let model = BstcModel::train(&d);
        assert_eq!(model.n_classes(), 3);
        for (marker, class) in [(0usize, 0usize), (1, 1), (2, 2)] {
            assert_eq!(model.classify(&mk(marker)), class);
        }
    }

    #[test]
    fn model_serializes() {
        let d = table1();
        let model = BstcModel::train(&d);
        let json = serde_json::to_string(&model).unwrap();
        let back: BstcModel = serde_json::from_str(&json).unwrap();
        assert_eq!(back.classify(&section54_query()), 0);
        assert!(close(back.class_value(0, &section54_query()), 0.75));
    }
}
