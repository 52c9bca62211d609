//! Proves the zero-allocation claim: once a [`Scratch`] has warmed up,
//! per-query (`CompiledModel::classify` / `class_values_into`), batch and
//! pooled classification through that one scratch perform no heap
//! allocation. A counting global allocator wraps the
//! system one; this file holds exactly one test so no concurrent test can
//! pollute the counter.

use bstc::{Arithmetization, BstcModel, Scratch, WorkerPool};
use microarray::synth::BoolSynthConfig;
use microarray::BitSet;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts every allocation and reallocation routed through the global
/// allocator.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn steady_state_classify_does_not_allocate() {
    let data = BoolSynthConfig {
        name: "alloc-free".into(),
        n_items: 257, // crosses word boundaries
        class_sizes: vec![7, 9, 5],
        class_names: vec!["a".into(), "b".into(), "c".into()],
        markers_per_class: 30,
        marker_on: 0.85,
        background_on: 0.15,
        seed: 42,
    }
    .generate();
    let queries: Vec<BitSet> = data.samples().to_vec();

    for arith in [Arithmetization::Min, Arithmetization::Product, Arithmetization::Mean] {
        let model = BstcModel::train_with(&data, arith);
        let compiled = model.compile();
        let mut scratch = Scratch::for_model(&compiled);

        // Warm-up: the first queries may still grow buffers (they should
        // not, given for_model, but the claim is about the steady state).
        for q in &queries {
            let _ = compiled.classify(q, &mut scratch);
            let _ = compiled.confidence_gap(q, &mut scratch);
        }

        let before = ALLOCATIONS.load(Ordering::SeqCst);
        let mut predictions = 0usize;
        for _ in 0..5 {
            for q in &queries {
                predictions += compiled.classify(q, &mut scratch);
                compiled.class_values_into(q, &mut scratch);
                predictions += (compiled.confidence_gap(q, &mut scratch) >= 0.0) as usize;
            }
        }
        let after = ALLOCATIONS.load(Ordering::SeqCst);
        assert_eq!(
            after - before,
            0,
            "{arith:?}: steady-state classification allocated {} times over {} queries",
            after - before,
            5 * queries.len()
        );
        assert!(predictions > 0); // keep the loop observable

        // The batch entry makes the same claim through the same scratch:
        // once it has seen the model shape and batch size, whole-batch
        // classification is allocation-free. A one-lane pool keeps the
        // whole batch on lane 0.
        let one_lane = WorkerPool::new(1);
        let mut batch_out = Vec::with_capacity(queries.len());
        compiled.classify_batch_into(&queries, &one_lane, &mut scratch, &mut batch_out);
        let before = ALLOCATIONS.load(Ordering::SeqCst);
        for _ in 0..5 {
            compiled.classify_batch_into(&queries, &one_lane, &mut scratch, &mut batch_out);
            predictions += batch_out.iter().sum::<usize>();
        }
        let after = ALLOCATIONS.load(Ordering::SeqCst);
        assert_eq!(
            after - before,
            0,
            "{arith:?}: steady-state batch classification allocated {} times",
            after - before,
        );
        assert!(predictions > 0);

        // The blocked + multi-core path: once the scratch has grown its
        // lanes and the values arena, pooled whole-batch classification
        // is allocation-free too — the pool broadcasts a borrowed
        // closure, nothing is boxed per run. Lanes are pinned (the model
        // is far below the work cutoff) so the fan-out path itself is
        // what's measured, with a non-default block size so the blocked
        // sweep runs multi-block. Per-query calls interleave with the
        // pooled ones on the same scratch.
        let pool = WorkerPool::new(3);
        scratch.set_block_bytes(256);
        let mut par_out = Vec::with_capacity(queries.len());
        compiled.classify_batch_into(&queries, &pool, &mut scratch, &mut par_out);
        compiled.class_values_batch_into_lanes(&queries, &pool, &mut scratch, 3);
        let before = ALLOCATIONS.load(Ordering::SeqCst);
        for _ in 0..5 {
            compiled.class_values_batch_into_lanes(&queries, &pool, &mut scratch, 3);
            predictions += (scratch.values_of(0)[0] >= 0.0) as usize;
            predictions += compiled.classify(&queries[0], &mut scratch);
        }
        let after = ALLOCATIONS.load(Ordering::SeqCst);
        assert_eq!(
            after - before,
            0,
            "{arith:?}: steady-state pooled batch classification allocated {} times",
            after - before,
        );
        assert!(predictions > 0);
        assert_eq!(par_out.len(), queries.len());
    }
}
