//! Differential property tests for the compiled inference kernels: over
//! random synthetic datasets and random queries, the word-parallel
//! popcount path must be **bit-identical** to the reference scalar BSTCE
//! for every [`Arithmetization`], and the parallel trainer must produce
//! exactly the sequential trainer's output.

use bstc::{Arithmetization, BstcModel, Scratch, WorkerPool};
use microarray::{BitSet, BoolDataset};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Shape of one random dataset case.
#[derive(Clone, Debug)]
struct Case {
    n_items: usize,
    class_sizes: Vec<usize>,
    density: f64,
    seed: u64,
}

fn cases() -> impl Strategy<Value = Case> {
    (2usize..120, 2usize..4, 0u64..1_000_000, 1usize..30).prop_flat_map(
        |(n_items, n_classes, seed, density_pct)| {
            prop::collection::vec(1usize..7, n_classes).prop_map(move |class_sizes| Case {
                n_items,
                class_sizes,
                density: 0.05 + density_pct as f64 * 0.03,
                seed,
            })
        },
    )
}

/// Materializes a random boolean dataset (and an RNG for queries).
fn build_dataset(case: &Case) -> (BoolDataset, StdRng) {
    let mut rng = StdRng::seed_from_u64(case.seed);
    let mut samples = Vec::new();
    let mut labels = Vec::new();
    for (c, &size) in case.class_sizes.iter().enumerate() {
        for _ in 0..size {
            samples.push(random_set(case.n_items, case.density, &mut rng));
            labels.push(c);
        }
    }
    let items = (0..case.n_items).map(|g| format!("g{g}")).collect();
    let classes = (0..case.class_sizes.len()).map(|c| format!("c{c}")).collect();
    let data = BoolDataset::new(items, classes, samples, labels).expect("valid by construction");
    (data, rng)
}

fn random_set(n_items: usize, density: f64, rng: &mut StdRng) -> BitSet {
    BitSet::from_iter(n_items, (0..n_items).filter(|_| rng.random_range(0.0..1.0) < density))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Compiled `class_values`, `classify`, `confidence_gap` and `explain`
    /// are bit-identical to the reference scalar path for all three
    /// arithmetizations, on random queries of every density.
    #[test]
    fn compiled_kernels_are_bit_identical_to_reference(case in cases()) {
        let (data, mut rng) = build_dataset(&case);
        for arith in [Arithmetization::Min, Arithmetization::Product, Arithmetization::Mean] {
            let model = BstcModel::train_with(&data, arith);
            let compiled = model.compile();
            let mut scratch = Scratch::new();
            let mut queries: Vec<BitSet> = data.samples().to_vec();
            queries.push(BitSet::new(case.n_items));
            queries.push(BitSet::full(case.n_items));
            for _ in 0..4 {
                let density = rng.random_range(0.0..1.0);
                queries.push(random_set(case.n_items, density, &mut rng));
            }
            for q in &queries {
                let reference = model.class_values(q);
                let fast = compiled.class_values(q, &mut scratch);
                // Exact equality — the kernels must produce the same bits,
                // not merely close values.
                prop_assert_eq!(&reference, &fast, "{:?} {:?}", arith, q);
                prop_assert_eq!(model.classify(q), compiled.classify(q, &mut scratch));
                prop_assert_eq!(
                    model.confidence_gap(q),
                    compiled.confidence_gap(q, &mut scratch)
                );
                for class in 0..data.n_classes() {
                    prop_assert_eq!(
                        model.explain(class, q, 0.5),
                        compiled.explain(class, q, 0.5, &mut scratch)
                    );
                }
            }
            // Batch classification agrees with the per-query path.
            prop_assert_eq!(
                compiled.classify_all(&queries),
                queries.iter().map(|q| model.classify(q)).collect::<Vec<_>>()
            );
        }
    }

    /// The batch entry (outer columns, inner queries) is bit-identical
    /// to the reference BSTCE path for all three arithmetizations, across
    /// batch sizes including the empty batch.
    #[test]
    fn batch_sweep_is_bit_identical_to_reference(case in cases()) {
        let (data, mut rng) = build_dataset(&case);
        let pool = WorkerPool::new(3);
        for arith in [Arithmetization::Min, Arithmetization::Product, Arithmetization::Mean] {
            let model = BstcModel::train_with(&data, arith);
            let compiled = model.compile();
            let mut scratch = Scratch::new();
            let mut predictions = Vec::new();
            let mut queries: Vec<BitSet> = data.samples().to_vec();
            queries.push(BitSet::new(case.n_items));
            queries.push(BitSet::full(case.n_items));
            for _ in 0..4 {
                let density = rng.random_range(0.0..1.0);
                queries.push(random_set(case.n_items, density, &mut rng));
            }
            // One reused scratch across varying batch sizes, so steady-state
            // buffer reuse is exercised, not just the fresh-allocation path.
            for batch in [queries.len(), 1, 3, 0, queries.len()] {
                let part = &queries[..batch];
                compiled.classify_batch_into(part, &pool, &mut scratch, &mut predictions);
                prop_assert_eq!(predictions.len(), part.len());
                for (qi, q) in part.iter().enumerate() {
                    // Exact equality — loop inversion must not perturb a
                    // single float operation's order.
                    prop_assert_eq!(
                        &model.class_values(q)[..],
                        scratch.values_of(qi),
                        "{:?} batch={} q={}", arith, batch, qi
                    );
                    prop_assert_eq!(model.classify(q), predictions[qi]);
                }
            }
        }
    }

    /// The blocked sweep is bit-identical to the reference path for
    /// every column-block budget — including one-column blocks (the
    /// pre-blocking loop order) and a single all-columns block — the
    /// pooled multi-lane sweep is bit-identical for every lane count,
    /// and the frozen legacy baseline sweep matches as well, all under
    /// both the SIMD dispatch and the forced-portable fallback.
    #[test]
    fn blocked_and_pooled_sweeps_bit_identical_for_all_shapes(case in cases()) {
        let (data, mut rng) = build_dataset(&case);
        let pool = WorkerPool::new(3);
        for arith in [Arithmetization::Min, Arithmetization::Product, Arithmetization::Mean] {
            let model = BstcModel::train_with(&data, arith);
            let compiled = model.compile();
            let mut scratch = Scratch::new();
            let mut queries: Vec<BitSet> = data.samples().to_vec();
            queries.push(BitSet::new(case.n_items));
            queries.push(BitSet::full(case.n_items));
            for _ in 0..3 {
                let density = rng.random_range(0.0..1.0);
                queries.push(random_set(case.n_items, density, &mut rng));
            }
            let reference: Vec<Vec<f64>> = queries.iter().map(|q| model.class_values(q)).collect();
            for portable in [false, true] {
                microarray::simd::force_portable(portable);
                // 1 byte forces one-column blocks; 1 GiB forces a single
                // block spanning every column; the middle sizes exercise
                // partial blocking (scratch reused across block sizes).
                for block_bytes in [1usize, 64, 4096, 1 << 30] {
                    scratch.set_block_bytes(block_bytes);
                    // Pooled path at pinned lane counts (the tiny models
                    // here never cross the work-based cutoff on their
                    // own), including more lanes than queries.
                    for lanes in [1usize, 2, 3, 64] {
                        compiled.class_values_batch_into_lanes(
                            &queries, &pool, &mut scratch, lanes,
                        );
                        for (qi, want) in reference.iter().enumerate() {
                            prop_assert_eq!(
                                &want[..],
                                scratch.values_of(qi),
                                "{:?} portable={} block={} lanes={} q={}",
                                arith, portable, block_bytes, lanes, qi
                            );
                        }
                    }
                    // The frozen pre-SIMD baseline sweep (classify_bench's
                    // kernel_speedup baseline) must stay bit-identical
                    // too, or the benchmark would compare kernels that
                    // don't compute the same thing.
                    compiled.class_values_batch_into_legacy(&queries, &mut scratch);
                    for (qi, want) in reference.iter().enumerate() {
                        prop_assert_eq!(
                            &want[..],
                            scratch.values_of(qi),
                            "legacy {:?} portable={} block={} q={}", arith, portable, block_bytes, qi
                        );
                    }
                }
            }
            microarray::simd::force_portable(false);
        }
    }
}
