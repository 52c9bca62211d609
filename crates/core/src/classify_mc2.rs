//! The (MC)²BAR-based classifier sketched at the end of §4.2.
//!
//! Before settling on the parameter-free BSTC (§5.3), the paper outlines
//! a k-parameterized alternative:
//!
//! 1. mine the top-k supported IBRG upper bounds *per training sample*
//!    for every class (Algorithm 4);
//! 2. for a query, compute a classification number in `[0, 1]` for every
//!    upper bound "by using each BAR's exclusion lists (see section 5.2)";
//! 3. classify as the class of the upper bound with the largest number.
//!
//! The paper forgoes developing this scheme because it depends on the
//! support parameter `k`; we implement it as a faithful reading so the
//! trade-off can actually be measured (see the `ablation_arith` /
//! `multiclass` experiments and the crate tests).
//!
//! Classification number of a BAR for query `Q` (the §5.2 quantization
//! applied to a full rule instead of one cell):
//!
//! * the CAR factor is the fraction of the antecedent's items `Q`
//!   expresses (1.0 when it expresses them all);
//! * each disjunct (one per supporting sample) scores the **min** of its
//!   exclusion clauses' `V_e` (a black-dot-like empty conjunction scores
//!   1), and the boolean part takes the **max** over disjuncts (it is an
//!   OR);
//! * the rule's number is the product of the two factors.

use crate::bar::{Bar, Sign};
use crate::bst::Bst;
use crate::mine::{mine_topk_per_sample, Mc2Bar};
use microarray::{BitSet, BoolDataset, ClassId};
use serde::{Deserialize, Serialize};

/// A trained §4.2 (MC)²BAR classifier.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Mc2Classifier {
    /// Per class: the mined upper-bound rules, materialized as BARs.
    rules: Vec<Vec<Bar>>,
    n_classes: usize,
}

impl Mc2Classifier {
    /// Trains by mining the top-k supported (MC)²BARs per training sample
    /// for every class (Algorithm 4) and materializing their BARs.
    pub fn train(data: &BoolDataset, k: usize) -> Mc2Classifier {
        let mut rules = Vec::with_capacity(data.n_classes());
        for class in 0..data.n_classes() {
            let bst = Bst::build(data, class);
            // The trivial whole-class rule (empty CAR portion) is kept:
            // its exclusion clauses still discriminate, and with small k
            // it can be a class's only mined rule.
            let mined = mine_topk_per_sample(&bst, k);
            rules.push(mined.iter().map(|r: &Mc2Bar| r.to_bar(&bst)).collect());
        }
        Mc2Classifier { rules, n_classes: data.n_classes() }
    }

    /// Number of classes.
    pub fn n_classes(&self) -> usize {
        self.n_classes
    }

    /// Total rules held across classes.
    pub fn n_rules(&self) -> usize {
        self.rules.iter().map(Vec::len).sum()
    }

    /// The §4.2 classification number of one BAR for a query.
    pub fn classification_number(bar: &Bar, query: &BitSet) -> f64 {
        let car = &bar.antecedent.car_items;
        let car_factor = if car.is_empty() {
            1.0
        } else {
            car.iter().filter(|&&g| query.contains(g)).count() as f64 / car.len() as f64
        };
        if car_factor == 0.0 {
            return 0.0;
        }
        let bool_factor = if bar.antecedent.disjuncts.is_empty() {
            1.0
        } else {
            bar.antecedent
                .disjuncts
                .iter()
                .map(|clauses| clauses.iter().map(|c| c.satisfaction(query)).fold(1.0f64, f64::min))
                .fold(0.0f64, f64::max)
        };
        car_factor * bool_factor
    }

    /// The best (rule number, class) for a query, per class.
    pub fn class_scores(&self, query: &BitSet) -> Vec<f64> {
        self.rules
            .iter()
            .map(|class_rules| {
                class_rules
                    .iter()
                    .map(|bar| Self::classification_number(bar, query))
                    .fold(0.0f64, f64::max)
            })
            .collect()
    }

    /// Step (iii): the class of the upper bound with the largest
    /// classification number (smallest class index on ties).
    pub fn classify(&self, query: &BitSet) -> ClassId {
        let scores = self.class_scores(query);
        let mut best = 0;
        for (i, &v) in scores.iter().enumerate().skip(1) {
            if v > scores[best] {
                best = i;
            }
        }
        best
    }

    /// Classifies a batch: the rules are lowered to mask form once
    /// ([`Mc2Classifier::compile`]) and the queries fanned out over the
    /// [`pool::global`](crate::pool::global) lanes. Predictions are
    /// identical to per-query [`Mc2Classifier::classify`].
    pub fn classify_all(&self, queries: &[BitSet]) -> Vec<ClassId> {
        let Some(first) = queries.first() else {
            return Vec::new();
        };
        let compiled = self.compile(first.capacity());
        crate::pool::global().map(queries.len(), |i| compiled.classify(&queries[i]))
    }

    /// Lowers every rule into word-packed masks over an `n_items`-sized
    /// universe (the capacity of the queries to come), replacing the
    /// per-item clause scans with AND+popcount kernels.
    pub fn compile(&self, n_items: usize) -> CompiledMc2Classifier {
        let rules = self
            .rules
            .iter()
            .map(|class_rules| {
                class_rules.iter().map(|bar| CompiledMc2Bar::compile(bar, n_items)).collect()
            })
            .collect();
        CompiledMc2Classifier { rules, n_classes: self.n_classes }
    }
}

/// One mask of a compiled (MC)²BAR: polarity, word-packed items, length.
#[derive(Clone, Debug)]
struct ClauseMask {
    sign: Sign,
    mask: BitSet,
    len: u32,
}

impl ClauseMask {
    /// Fraction of literals satisfied — same counts as
    /// `ExclusionClause::satisfaction`, via popcount.
    #[inline]
    fn satisfaction(&self, query: &BitSet) -> f64 {
        if self.len == 0 {
            return 0.0;
        }
        let sat = match self.sign {
            Sign::Pos => self.mask.intersection_len(query),
            Sign::Neg => self.mask.andnot_len(query),
        };
        sat as f64 / self.len as f64
    }
}

/// A [`Bar`] lowered to mask form for §4.2 scoring.
#[derive(Clone, Debug)]
struct CompiledMc2Bar {
    car_mask: BitSet,
    car_len: u32,
    /// Clause masks of every disjunct, flattened; disjunct `d` owns
    /// `clauses[disjunct_offsets[d]..disjunct_offsets[d + 1]]`.
    clauses: Vec<ClauseMask>,
    disjunct_offsets: Vec<u32>,
}

impl CompiledMc2Bar {
    fn compile(bar: &Bar, n_items: usize) -> CompiledMc2Bar {
        let car = &bar.antecedent.car_items;
        let mut clauses = Vec::new();
        let mut disjunct_offsets = vec![0u32];
        for disjunct in &bar.antecedent.disjuncts {
            for clause in disjunct {
                clauses.push(ClauseMask {
                    sign: clause.sign,
                    mask: BitSet::from_iter(n_items, clause.items.iter().copied()),
                    len: clause.items.len() as u32,
                });
            }
            disjunct_offsets.push(clauses.len() as u32);
        }
        CompiledMc2Bar {
            car_mask: BitSet::from_iter(n_items, car.iter().copied()),
            car_len: car.len() as u32,
            clauses,
            disjunct_offsets,
        }
    }

    /// The §4.2 classification number — identical values to
    /// [`Mc2Classifier::classification_number`].
    fn classification_number(&self, query: &BitSet) -> f64 {
        let car_factor = if self.car_len == 0 {
            1.0
        } else {
            self.car_mask.intersection_len(query) as f64 / self.car_len as f64
        };
        if car_factor == 0.0 {
            return 0.0;
        }
        let n_disjuncts = self.disjunct_offsets.len() - 1;
        let bool_factor = if n_disjuncts == 0 {
            1.0
        } else {
            (0..n_disjuncts)
                .map(|d| {
                    let lo = self.disjunct_offsets[d] as usize;
                    let hi = self.disjunct_offsets[d + 1] as usize;
                    self.clauses[lo..hi]
                        .iter()
                        .map(|c| c.satisfaction(query))
                        .fold(1.0f64, f64::min)
                })
                .fold(0.0f64, f64::max)
        };
        car_factor * bool_factor
    }
}

/// A [`Mc2Classifier`] lowered to word-parallel scoring form.
#[derive(Clone, Debug)]
pub struct CompiledMc2Classifier {
    rules: Vec<Vec<CompiledMc2Bar>>,
    n_classes: usize,
}

impl CompiledMc2Classifier {
    /// Number of classes.
    pub fn n_classes(&self) -> usize {
        self.n_classes
    }

    /// Best rule number per class — same values as
    /// [`Mc2Classifier::class_scores`].
    pub fn class_scores(&self, query: &BitSet) -> Vec<f64> {
        self.rules
            .iter()
            .map(|class_rules| {
                class_rules
                    .iter()
                    .map(|bar| bar.classification_number(query))
                    .fold(0.0f64, f64::max)
            })
            .collect()
    }

    /// The class of the largest classification number (smallest index on
    /// ties).
    pub fn classify(&self, query: &BitSet) -> ClassId {
        let scores = self.class_scores(query);
        let mut best = 0;
        for (i, &v) in scores.iter().enumerate().skip(1) {
            if v > scores[best] {
                best = i;
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use microarray::fixtures::{section54_query, table1};

    #[test]
    fn trains_on_running_example() {
        let d = table1();
        let m = Mc2Classifier::train(&d, 2);
        assert_eq!(m.n_classes(), 2);
        assert!(m.n_rules() > 0);
    }

    #[test]
    fn training_samples_score_their_own_class_perfectly() {
        // Every training sample satisfies at least one of its class's
        // mined 100%-confident rules exactly (Algorithm 4 covers every
        // sample), so its own-class score is 1.
        let d = table1();
        let m = Mc2Classifier::train(&d, 2);
        for s in 0..d.n_samples() {
            let scores = m.class_scores(d.sample(s));
            assert!(
                (scores[d.label(s)] - 1.0).abs() < 1e-12,
                "sample s{} own-class score {:?}",
                s + 1,
                scores
            );
        }
    }

    #[test]
    fn training_samples_classify_correctly() {
        let d = table1();
        let m = Mc2Classifier::train(&d, 2);
        for s in 0..d.n_samples() {
            assert_eq!(m.classify(d.sample(s)), d.label(s), "sample s{}", s + 1);
        }
    }

    #[test]
    fn section_5_4_query_is_cancer_here_too() {
        let d = table1();
        let m = Mc2Classifier::train(&d, 3);
        assert_eq!(m.classify(&section54_query()), 0);
    }

    #[test]
    fn scores_are_bounded() {
        let d = table1();
        let m = Mc2Classifier::train(&d, 3);
        for q in [BitSet::new(6), BitSet::full(6), section54_query()] {
            for v in m.class_scores(&q) {
                assert!((0.0..=1.0).contains(&v), "{v}");
            }
        }
    }

    #[test]
    fn empty_query_ties_to_class_zero() {
        let d = table1();
        let m = Mc2Classifier::train(&d, 2);
        assert_eq!(m.classify(&BitSet::new(6)), 0);
    }

    #[test]
    fn classification_number_components() {
        // A pure-CAR rule scores the expressed fraction of its items.
        let d = table1();
        let bar =
            crate::bar::Bar { antecedent: crate::bar::BarAntecedent::car(vec![0, 2]), class: 0 };
        let q = BitSet::from_iter(6, [0]);
        assert_eq!(Mc2Classifier::classification_number(&bar, &q), 0.5);
        let q = BitSet::from_iter(6, [0, 2]);
        assert_eq!(Mc2Classifier::classification_number(&bar, &q), 1.0);
        let _ = d;
    }

    #[test]
    fn larger_k_never_reduces_rule_count() {
        let d = table1();
        let small = Mc2Classifier::train(&d, 1);
        let large = Mc2Classifier::train(&d, 4);
        assert!(large.n_rules() >= small.n_rules());
    }

    #[test]
    fn compiled_scores_match_reference() {
        let d = table1();
        let m = Mc2Classifier::train(&d, 3);
        let compiled = m.compile(d.n_items());
        let mut queries: Vec<BitSet> = d.samples().to_vec();
        queries.push(section54_query());
        queries.push(BitSet::new(6));
        queries.push(BitSet::full(6));
        for q in &queries {
            assert_eq!(m.class_scores(q), compiled.class_scores(q), "{q:?}");
            assert_eq!(m.classify(q), compiled.classify(q), "{q:?}");
        }
        assert_eq!(
            m.classify_all(&queries),
            queries.iter().map(|q| m.classify(q)).collect::<Vec<_>>()
        );
    }

    #[test]
    fn serializes() {
        let d = table1();
        let m = Mc2Classifier::train(&d, 2);
        let back: Mc2Classifier =
            serde_json::from_str(&serde_json::to_string(&m).unwrap()).unwrap();
        let q = section54_query();
        assert_eq!(back.classify(&q), m.classify(&q));
    }
}
