//! Property tests for the BSTC core on random boolean datasets:
//! the paper's structural invariants must hold for *any* training data.

use bstc::{bar_for_car, mine_topk, mine_topk_per_sample, row_bar, Bst, BstcModel};
use microarray::{BitSet, BoolDataset};
use proptest::prelude::*;

/// Random boolean dataset: 2–3 classes, 3–10 items, every class non-empty.
fn dataset() -> impl Strategy<Value = BoolDataset> {
    (2usize..4, 3usize..10, 2usize..10).prop_flat_map(|(n_classes, n_items, extra)| {
        let n_samples = n_classes + extra;
        (
            prop::collection::vec(prop::collection::vec(0..n_items, 0..n_items), n_samples),
            prop::collection::vec(0..n_classes, n_samples - n_classes),
        )
            .prop_map(move |(sample_items, tail)| {
                let item_names = (0..n_items).map(|i| format!("g{i}")).collect();
                let class_names = (0..n_classes).map(|c| format!("c{c}")).collect();
                let sets: Vec<BitSet> = sample_items
                    .iter()
                    .map(|items| BitSet::from_iter(n_items, items.iter().copied()))
                    .collect();
                let mut labels: Vec<usize> = (0..n_classes).collect();
                labels.extend(tail);
                BoolDataset::new(item_names, class_names, sets, labels).unwrap()
            })
    })
}

/// Datasets with no cross-class duplicate samples (Theorem 2's hypothesis).
fn dataset_no_dups() -> impl Strategy<Value = BoolDataset> {
    dataset().prop_filter("no cross-class duplicates", |d| {
        for i in 0..d.n_samples() {
            for j in i + 1..d.n_samples() {
                if d.label(i) != d.label(j) && d.sample(i) == d.sample(j) {
                    return false;
                }
            }
        }
        true
    })
}

/// Deterministic corner cases for the arena-interned builder: every
/// out-sample empty (all expressed rows are black dots, every pair takes
/// the positive fallback) and identical cross-class samples (degenerate
/// empty lists). Both must intern exactly as the legacy builder stores.
#[test]
fn interned_build_matches_legacy_on_black_dot_and_degenerate_data() {
    let black_dot = BoolDataset::new(
        (0..4).map(|i| format!("g{i}")).collect(),
        vec!["a".into(), "b".into()],
        vec![
            BitSet::from_iter(4, [0, 2]),
            BitSet::from_iter(4, [1, 2, 3]),
            BitSet::new(4),
            BitSet::new(4),
        ],
        vec![0, 0, 1, 1],
    )
    .unwrap();
    let degenerate = BoolDataset::new(
        (0..3).map(|i| format!("g{i}")).collect(),
        vec!["a".into(), "b".into()],
        vec![
            BitSet::from_iter(3, [0, 1]),
            BitSet::from_iter(3, [0, 1]), // identical, other class
            BitSet::from_iter(3, [2]),
        ],
        vec![0, 1, 1],
    )
    .unwrap();
    for d in [black_dot, degenerate] {
        for class in 0..d.n_classes() {
            let new = Bst::build(&d, class);
            let old = Bst::build_legacy(&d, class);
            assert_eq!(new, old, "class {class}");
            assert_eq!(new.stats(), old.stats(), "class {class}");
        }
    }
}

proptest! {
    /// §3.2: every atomic cell rule is 100% confident on the training data
    /// (no out-of-class training sample satisfies it), and — absent
    /// cross-class duplicates — is satisfied by its own supporting sample.
    #[test]
    fn cell_rules_are_100_percent_confident(d in dataset()) {
        for class in 0..d.n_classes() {
            let bst = Bst::build(&d, class);
            let degenerate = bst.degenerate_pairs();
            for g in 0..d.n_items() {
                for c in 0..bst.n_class_samples() {
                    let Some(rule) = bst.cell_rule(g, c) else { continue };
                    // No out-of-class sample may satisfy the rule.
                    for s in 0..d.n_samples() {
                        if d.label(s) != class {
                            prop_assert!(
                                !rule.antecedent.eval(d.sample(s)),
                                "class {class} cell ({g},{c}) matched out-sample {s}"
                            );
                        }
                    }
                    // Its own sample satisfies it unless some (c,h) pair is
                    // degenerate (identical cross-class samples).
                    let own = bst.class_sample_id(c);
                    if degenerate.iter().all(|&(cs, _)| cs != own) {
                        prop_assert!(rule.antecedent.eval(d.sample(own)));
                    }
                }
            }
        }
    }

    /// Algorithm 2: the g-row BAR's support is exactly the class samples
    /// expressing g, and the rule is 100% confident.
    #[test]
    fn row_bars_supports_and_confidence(d in dataset_no_dups()) {
        for class in 0..d.n_classes() {
            let bst = Bst::build(&d, class);
            for g in 0..d.n_items() {
                let Some(bar) = row_bar(&bst, g) else { continue };
                let expected: Vec<usize> = (0..d.n_samples())
                    .filter(|&s| d.label(s) == class && d.sample(s).contains(g))
                    .collect();
                prop_assert_eq!(bar.support_set(&d), expected, "class {} item {}", class, g);
                prop_assert_eq!(bar.confidence(&d), Some(1.0));
            }
        }
    }

    /// Algorithm 3 invariants: unique closed supports, non-increasing
    /// support sizes, 100%-confident materialized BARs.
    #[test]
    fn mined_rules_invariants(d in dataset_no_dups()) {
        for class in 0..d.n_classes() {
            let bst = Bst::build(&d, class);
            let rules = mine_topk(&bst, 8);
            let mut seen = std::collections::HashSet::new();
            for w in rules.windows(2) {
                prop_assert!(w[0].support_len() >= w[1].support_len());
            }
            for r in &rules {
                prop_assert!(seen.insert(r.support.clone()), "duplicate support");
                // Closure check: car = intersection of supports' items and
                // support = all class samples containing car.
                let mut car = BitSet::full(bst.n_items());
                for c in r.support.iter() {
                    car.intersect_with(bst.class_sample_items(c));
                }
                prop_assert_eq!(&car.to_vec(), &r.car_items);
                let supp: Vec<usize> = (0..bst.n_class_samples())
                    .filter(|&c| r.car_items.iter().all(|&g| bst.class_sample_items(c).contains(g)))
                    .collect();
                prop_assert_eq!(supp, r.support.to_vec());
                if !r.car_items.is_empty() {
                    let bar = r.to_bar(&bst);
                    prop_assert_eq!(bar.confidence(&d), Some(1.0));
                }
            }
        }
    }

    /// Algorithm 4: every class sample is covered by some mined rule.
    #[test]
    fn per_sample_mining_covers(d in dataset_no_dups()) {
        for class in 0..d.n_classes() {
            let bst = Bst::build(&d, class);
            let rules = mine_topk_per_sample(&bst, 1);
            for c in 0..bst.n_class_samples() {
                prop_assert!(rules.iter().any(|r| r.support.contains(c)),
                    "class {class} column {c} uncovered");
            }
        }
    }

    /// Theorem 2 round-trip for random small CARs.
    #[test]
    fn theorem2_round_trip_random_cars(d in dataset_no_dups(),
                                       raw_items in prop::collection::vec(0usize..10, 1..4)) {
        for class in 0..d.n_classes() {
            let bst = Bst::build(&d, class);
            let mut items: Vec<usize> =
                raw_items.iter().map(|&g| g % d.n_items()).collect();
            items.sort_unstable();
            items.dedup();
            prop_assert!(bstc::theorem2_round_trip(&d, &bst, &items),
                "round trip failed: class {class} items {items:?}");
        }
    }

    /// BSTCE outputs are always in [0, 1]; classification is deterministic
    /// and ties break to the smallest class.
    #[test]
    fn class_values_bounded_and_deterministic(d in dataset(),
                                              q_items in prop::collection::vec(0usize..10, 0..10)) {
        let model = BstcModel::train(&d);
        let q = BitSet::from_iter(d.n_items(), q_items.iter().map(|&g| g % d.n_items()));
        let values = model.class_values(&q);
        for &v in &values {
            prop_assert!((0.0..=1.0).contains(&v), "value {v} out of range");
        }
        let c1 = model.classify(&q);
        let c2 = model.classify(&q);
        prop_assert_eq!(c1, c2);
        let max = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert_eq!(c1, values.iter().position(|&v| v == max).unwrap());
    }

    /// Training-set resubstitution: on duplicate-free data, every training
    /// sample's own-class value is strictly positive (it satisfies its own
    /// cell rules), so BSTC never assigns a class the sample shares nothing
    /// with.
    #[test]
    fn own_class_value_positive(d in dataset_no_dups()) {
        let model = BstcModel::train(&d);
        for s in 0..d.n_samples() {
            if d.sample(s).is_empty() { continue; }
            let v = model.class_values(d.sample(s));
            prop_assert!(v[d.label(s)] > 0.0,
                "sample {s} has zero affinity to its own class");
        }
    }

    /// Serialization: a model round-trips through JSON with identical
    /// classification behaviour.
    #[test]
    fn model_json_round_trip(d in dataset(),
                             q_items in prop::collection::vec(0usize..10, 0..10)) {
        let model = BstcModel::train(&d);
        let back: BstcModel =
            serde_json::from_str(&serde_json::to_string(&model).unwrap()).unwrap();
        let q = BitSet::from_iter(d.n_items(), q_items.iter().map(|&g| g % d.n_items()));
        prop_assert_eq!(model.classify(&q), back.classify(&q));
        prop_assert_eq!(model.class_values(&q), back.class_values(&q));
    }

    /// §5.3.2: with threshold 0, `explain` surfaces exactly the non-blank
    /// cells — one entry per (expressed-by-query, expressed-by-column) item
    /// per class sample.
    #[test]
    fn explain_covers_exactly_the_nonblank_cells(d in dataset(),
                                                 q_items in prop::collection::vec(0usize..10, 0..10)) {
        let model = BstcModel::train(&d);
        let q = BitSet::from_iter(d.n_items(), q_items.iter().map(|&g| g % d.n_items()));
        for class in 0..d.n_classes() {
            let expected: usize = d
                .class_members(class)
                .iter()
                .map(|&s| q.intersection_len(d.sample(s)))
                .sum();
            let ex = model.explain(class, &q, 0.0);
            prop_assert_eq!(ex.len(), expected, "class {}", class);
            for e in &ex {
                prop_assert!((0.0..=1.0).contains(&e.satisfaction));
                prop_assert!(q.contains(e.item));
                prop_assert!(d.sample(e.supporting_sample).contains(e.item));
                prop_assert_eq!(d.label(e.supporting_sample), class);
            }
        }
    }

    /// The interned arena builder is bit-identical to the frozen legacy
    /// builder: full structural equality (arena contents and entry order,
    /// per-pair indices, out_expr, stats) on random datasets — including
    /// ones with cross-class duplicates, whose degenerate empty lists
    /// must intern identically.
    #[test]
    fn interned_build_matches_legacy(d in dataset()) {
        for class in 0..d.n_classes() {
            let new = Bst::build(&d, class);
            let old = Bst::build_legacy(&d, class);
            prop_assert_eq!(&new, &old, "class {} structure diverged", class);
            prop_assert_eq!(new.stats(), old.stats(), "class {} stats diverged", class);
        }
    }

    /// The compiled lowering and classify outputs of the interned builder
    /// match the legacy builder's bit for bit on random queries, and both
    /// match the reference BSTCE path. The legacy BSTs reach a model
    /// through the model's own JSON form.
    #[test]
    fn interned_build_compiles_and_classifies_like_legacy(
        d in dataset(),
        q_items in prop::collection::vec(0usize..10, 0..10),
    ) {
        use bstc::{Arithmetization, Scratch};
        let q = BitSet::from_iter(d.n_items(), q_items.iter().map(|&g| g % d.n_items()));
        let legacy_bsts: Vec<String> = (0..d.n_classes())
            .map(|class| serde_json::to_string(&Bst::build_legacy(&d, class)).unwrap())
            .collect();
        let mut scratch = Scratch::new();
        for arith in [Arithmetization::Min, Arithmetization::Product, Arithmetization::Mean] {
            let new = BstcModel::train_with(&d, arith);
            let old: BstcModel = serde_json::from_str(&format!(
                "{{\"bsts\":[{}],\"arith\":\"{arith:?}\"}}",
                legacy_bsts.join(",")
            ))
            .unwrap();
            let v_ref = new.class_values(&q);
            let v_new = new.compile().class_values(&q, &mut scratch);
            let v_old = old.compile().class_values(&q, &mut scratch);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(&v_new), bits(&v_old), "{:?}: {:?} vs {:?}", arith, v_new, v_old);
            prop_assert_eq!(bits(&v_new), bits(&v_ref), "{:?}: {:?} vs {:?}", arith, v_new, v_ref);
        }
    }

    /// The streaming BST serializer emits exactly the tree serializer's
    /// bytes for any dataset shape.
    #[test]
    fn streamed_bst_json_matches_tree_json(d in dataset()) {
        for class in 0..d.n_classes() {
            let bst = Bst::build(&d, class);
            let mut streamed = Vec::new();
            bst.write_json_to(&mut streamed).unwrap();
            prop_assert_eq!(
                String::from_utf8(streamed).unwrap(),
                serde_json::to_string(&bst).unwrap(),
                "class {} streamed JSON diverged", class
            );
        }
    }

    /// `bar_for_car` on a random supported conjunction always yields a
    /// 100%-confident rule.
    #[test]
    fn bar_for_car_always_fully_confident(d in dataset_no_dups(), pick in 0usize..1000) {
        let class = pick % d.n_classes();
        let bst = Bst::build(&d, class);
        // Use an actual training sample's items (guaranteed supported).
        let members = d.class_members(class);
        let sample = members[pick % members.len()];
        let items = d.sample(sample).to_vec();
        if items.is_empty() { return Ok(()); }
        let bar = bar_for_car(&bst, &items).expect("supported by its own sample");
        prop_assert_eq!(bar.confidence(&d), Some(1.0));
        prop_assert!(bar.support_set(&d).contains(&sample));
    }
}
