//! The compiled, word-parallel evaluation form of BSTCE.
//!
//! [`BstcModel`] keeps each exclusion list as a sorted `Vec<ItemId>` and
//! evaluates Algorithm 5 line 4's `V_e` with a per-item `contains` loop,
//! allocating a fresh `Vec<Vec<f64>>` satisfaction table and one
//! intersection `BitSet` per column for every query. That is fine for the
//! paper's worked examples but is exactly the scan-heavy shape §3.1.1
//! criticizes, recreated at inference time.
//!
//! [`CompiledModel`] lowers a trained model into masks once, after
//! training:
//!
//! * every distinct exclusion list becomes a word-packed [`BitSet`] mask
//!   plus its precomputed length, so a `Neg` list's `V_e` is
//!   `andnot_len(mask, query) / len` and a `Pos` list's is
//!   `intersection_len(mask, query) / len` — pure AND(+NOT)+popcount
//!   kernels at a few instructions per 64 items;
//! * per-query working memory lives in a caller-owned [`Scratch`] (flat
//!   `f64` arenas for the per-unique-list satisfactions and their (c, h)
//!   fan-out, reusable bitsets for the shared-items intersection and the
//!   Min coverage sweep), so steady-state classification performs **zero
//!   heap allocations per query**;
//! * for the paper's default Min arithmetization, each column's cell
//!   values are produced by a *coverage sweep* — out-samples visited in
//!   ascending satisfaction order, each claiming its still-unassigned
//!   items in one word-parallel pass — instead of a per-cell reduction
//!   over `out_expr`, with early exit once every shared item is covered.
//!
//! The literal-satisfaction counts produced by the popcount kernels are
//! the same integers the reference scalar loops produce, every division
//! and combine runs in the same order, and blank columns are skipped on
//! both paths — so compiled class values are **bit-identical** to
//! [`BstcModel::class_values`] for all three [`Arithmetization`] variants
//! (enforced by the differential property test in
//! `tests/prop_compiled.rs`). Complexity is unchanged from Algorithm 5;
//! only the constant shrinks.

use crate::bar::Sign;
use crate::bst::Bst;
use crate::classify::{
    confidence_gap_of, select_class, Arithmetization, BstcModel, CellExplanation,
};
use crate::pool::{self, WorkerPool};
use microarray::{BitSet, ClassId, SampleId};

/// Default byte budget of one column block of the batch sweep — sized to
/// half a typical 2 MiB L2 so a block's masks stay L2-resident across the
/// whole query dimension while leaving room for the queries themselves
/// and the per-query scratch. Overridable per scratch
/// ([`BatchScratch::set_block_bytes`], surfaced as `--kernel-block-bytes`
/// on the CLI and benchmarks).
pub const DEFAULT_KERNEL_BLOCK_BYTES: usize = 1 << 20;

/// Minimum mask traffic (model mask bytes × queries) one pool lane must
/// be able to claim before the batch kernel fans out to another lane.
/// This replaces the old fixed query-count cutoff (`≤ 4 stays
/// sequential`), which both paid thread handoffs for tiny models at any
/// batch size and kept enormous models sequential for small batches:
/// the decision now tracks the actual bytes the kernel will stream.
const PARALLEL_GRAIN_BYTES: u64 = 4 << 20;

/// One class BST lowered to word-packed evaluation form.
#[derive(Clone, Debug)]
pub struct CompiledBst {
    class: ClassId,
    n_items: usize,
    n_out: usize,
    /// Original ids of the class samples (BST columns), ascending.
    class_samples: Vec<SampleId>,
    /// Item sets of the class samples (for the shared-items intersection).
    class_expr: Vec<BitSet>,
    /// Flat arena of the distinct exclusion-list masks of every column;
    /// column `c` owns `masks[col_offsets[c]..col_offsets[c + 1]]`.
    masks: Vec<BitSet>,
    /// Polarity of each mask (parallel to `masks`).
    signs: Vec<Sign>,
    /// Literal count of each mask (parallel to `masks`; 0 marks the
    /// unsatisfiable degenerate list).
    lens: Vec<u32>,
    /// Column extents into `masks`/`signs`/`lens`, length `n_cols + 1`.
    col_offsets: Vec<u32>,
    /// `idx[c * n_out + h]` = column-local index of the (c, h) pair's
    /// distinct list.
    idx: Vec<u32>,
    /// `out_expr[g]` = bitset over local out-sample indices expressing `g`
    /// (empty ⇔ black-dot row).
    out_expr: Vec<BitSet>,
    /// Item set of each local out-sample (the transpose of `out_expr`),
    /// used by the legacy Min coverage sweep and kept for it.
    out_items: Vec<BitSet>,
    /// Union of the `out_items` of every out-sample mapped to the same
    /// distinct exclusion list of a column —
    /// `group_items[col_offsets[c] + u]` covers all out-samples `h`
    /// with `idx[c * n_out + h] == u`.
    /// Out-samples that share a list always share a satisfaction
    /// (`vh[h] = per_unique[idx]`), so under Min they are guaranteed sort
    /// ties, and tied out-samples assign the same value to every cell
    /// they carve — carving the whole group in one mask pass is
    /// bit-identical to carving its members one by one, while the
    /// coverage sweep streams one mask per *distinct list* instead of
    /// one per out-sample.
    group_items: Vec<BitSet>,
}

impl CompiledBst {
    /// Lowers one reference BST into mask form.
    pub fn compile(bst: &Bst) -> CompiledBst {
        let n_items = bst.n_items();
        let n_cols = bst.n_class_samples();
        let n_out = bst.n_out_samples();

        let mut masks = Vec::new();
        let mut signs = Vec::new();
        let mut lens = Vec::new();
        let mut col_offsets = Vec::with_capacity(n_cols + 1);
        let mut idx = Vec::with_capacity(n_cols * n_out);
        let mut group_items = Vec::new();
        col_offsets.push(0u32);
        for c in 0..n_cols {
            let lo = masks.len();
            for list in bst.unique_exclusion_lists(c) {
                masks.push(BitSet::from_iter(n_items, list.items.iter().copied()));
                signs.push(list.sign);
                lens.push(list.items.len() as u32);
                group_items.push(BitSet::new(n_items));
            }
            col_offsets.push(masks.len() as u32);
            for h in 0..n_out {
                let u = bst.exclusion_list_index(c, h);
                idx.push(u as u32);
                group_items[lo + u].union_with(bst.out_sample_items(h));
            }
        }

        CompiledBst {
            class: bst.class(),
            n_items,
            n_out,
            class_samples: (0..n_cols).map(|c| bst.class_sample_id(c)).collect(),
            class_expr: (0..n_cols).map(|c| bst.class_sample_items(c).clone()).collect(),
            masks,
            signs,
            lens,
            col_offsets,
            idx,
            out_expr: (0..n_items).map(|g| bst.out_expressing(g).clone()).collect(),
            out_items: (0..n_out).map(|h| bst.out_sample_items(h).clone()).collect(),
            group_items,
        }
    }

    /// The class this table describes.
    pub fn class(&self) -> ClassId {
        self.class
    }

    /// Number of items, `|G|`.
    pub fn n_items(&self) -> usize {
        self.n_items
    }

    /// Number of class samples (columns), `|C_i|`.
    pub fn n_class_samples(&self) -> usize {
        self.class_expr.len()
    }

    /// Largest count of distinct lists in any one column (drives the
    /// scratch arena size).
    fn max_unique(&self) -> usize {
        self.col_offsets.windows(2).map(|w| (w[1] - w[0]) as usize).max().unwrap_or(0)
    }

    /// Bytes of one word-packed mask of this table.
    #[inline]
    fn mask_stride_bytes(&self) -> usize {
        self.n_items.div_ceil(64) * 8
    }

    /// Mask bytes the batch sweep streams for column `c`: its distinct
    /// exclusion-list masks, their group-union item sets (the Min carve
    /// operands), and the column's own item set (the shared-items
    /// intersection operand). This is the unit the column blocking
    /// accumulates toward the block-byte budget.
    #[inline]
    fn col_block_bytes(&self, c: usize) -> usize {
        let masks = (self.col_offsets[c + 1] - self.col_offsets[c]) as usize;
        (2 * masks + 1) * self.mask_stride_bytes()
    }

    /// Total bytes of this table's compiled masks (exclusion-list masks,
    /// their group-union item sets, and per-column item sets) — the
    /// per-query streaming footprint.
    pub fn mask_bytes(&self) -> usize {
        (self.masks.len() + self.group_items.len() + self.class_expr.len())
            * self.mask_stride_bytes()
    }

    /// `V_e` of the `u`-th mask for `query` — the popcount identity for
    /// Algorithm 5 line 4. Produces the exact count the reference per-item
    /// loop produces, hence a bit-identical quotient.
    #[inline]
    fn list_satisfaction(&self, u: usize, query: &BitSet) -> f64 {
        let len = self.lens[u];
        if len == 0 {
            return 0.0; // degenerate duplicate pair: unsatisfiable
        }
        let sat = match self.signs[u] {
            Sign::Pos => self.masks[u].intersection_len(query),
            Sign::Neg => self.masks[u].andnot_len(query),
        };
        sat as f64 / len as f64
    }

    /// BSTCE (Algorithm 5) against this table, using `scratch` for all
    /// per-query working memory. Allocation-free once `scratch` has grown
    /// to this table's shape.
    pub fn class_value(
        &self,
        query: &BitSet,
        arith: Arithmetization,
        scratch: &mut Scratch,
    ) -> f64 {
        scratch.reserve_bst(self);
        let mut col_sum = 0.0;
        let mut cols = 0usize;
        for c in 0..self.class_expr.len() {
            if !self.column_satisfactions(c, query, scratch) {
                continue; // blank column (line 13's "non-blank" filter)
            }
            let v_s = match arith {
                Arithmetization::Min => self.column_value_min(c, query, scratch),
                _ => {
                    let mut sum = 0.0;
                    let mut n = 0usize;
                    for g in scratch.shared.iter() {
                        sum += cell_value(&self.out_expr[g], &scratch.vh, arith);
                        n += 1;
                    }
                    sum / n as f64 // V_s (line 14)
                }
            };
            col_sum += v_s;
            cols += 1;
        }
        if cols == 0 {
            0.0 // the query shares nothing with this class
        } else {
            col_sum / cols as f64 // line 16
        }
    }

    /// `V_s` of a non-blank column under Min, by coverage sweep instead of
    /// per-cell reduction.
    ///
    /// Under Min a cell's value is the *smallest* satisfaction among the
    /// out-samples expressing its item, so visiting distinct-list groups
    /// ([`CompiledBst::group_items`]) in ascending satisfaction order and
    /// assigning each still-unassigned shared item in one word-parallel
    /// `AND`/`ANDNOT` pass yields every cell's exact minimum — and the
    /// sweep stops as soon as all items are covered, which on dense
    /// expression data takes a handful of groups instead of
    /// `|c ∩ q| · |out_expr|` scalar reductions.
    /// Items no out-sample expresses are the black dots (value 1). Summing
    /// the assigned values back in item order reproduces the reference
    /// path's float operations bit for bit.
    fn column_value_min(&self, c: usize, query: &BitSet, scratch: &mut Scratch) -> f64 {
        // The sweep orders *distinct-list groups*, not individual
        // out-samples: every out-sample of a group carries the same
        // satisfaction (`vh[h] = per_unique[idx]`), so the per-out-sample
        // sort could only ever interleave them as ties — and tied
        // out-samples assign the same value to every cell they carve,
        // making the cells independent of tie order. Sorting (total-order
        // key, group) u64/u32 pairs with the derived integer Ord beats
        // `total_cmp` closures measurably at this call rate; the key
        // mapping is exactly `f64::total_cmp`'s order.
        let lo = self.col_offsets[c] as usize;
        let uniq = self.col_offsets[c + 1] as usize - lo;
        scratch.order.clear();
        for u in 0..uniq {
            scratch.order.push((f64_total_order_key(scratch.per_unique[u]), u as u32));
        }
        scratch.order.sort_unstable();

        // Fused kernels keep the sweep at one memory pass per step where
        // the assign / count / difference / scan forms would take four;
        // the counts are integer popcounts and the cell writes are plain
        // stores, so fusion cannot perturb a value.
        let mut left = scratch.remaining.assign_intersection_len(query, &self.class_expr[c]);
        for &(k, u) in scratch.order.iter() {
            if left == 0 {
                break;
            }
            let v = f64_from_total_order_key(k);
            left -= scratch.remaining.carve_scatter(
                &self.group_items[lo + u as usize],
                &mut scratch.cells,
                v,
            );
        }
        if left != 0 {
            for g in scratch.remaining.iter() {
                scratch.cells[g] = 1.0; // black dot: no out-sample expresses g
            }
        }

        // Same adds in the same ascending-g order as the reference path,
        // via the decoupled extract-then-add gather.
        let (sum, n) = scratch.shared.gather_sum(&scratch.cells);
        sum / n as f64
    }

    /// Computes column `c`'s shared-item set into `scratch.shared` and, if
    /// non-blank, its per-out-sample satisfactions into `scratch.vh`.
    /// Returns false for blank columns (nothing computed beyond `shared`).
    fn column_satisfactions(&self, c: usize, query: &BitSet, scratch: &mut Scratch) -> bool {
        if scratch.shared.assign_intersection_len(query, &self.class_expr[c]) == 0 {
            return false;
        }
        // Distinct lists are evaluated once and fanned out to their (c, h)
        // pairs — the lossless form of §8's exclusion-list culling.
        let lo = self.col_offsets[c] as usize;
        let hi = self.col_offsets[c + 1] as usize;
        for u in lo..hi {
            scratch.per_unique[u - lo] = self.list_satisfaction(u, query);
        }
        let idx_row = &self.idx[c * self.n_out..(c + 1) * self.n_out];
        for (h, &u) in idx_row.iter().enumerate() {
            scratch.vh[h] = scratch.per_unique[u as usize];
        }
        true
    }

    /// [`CompiledBst::column_value_min`] frozen at its pre-SIMD form —
    /// float-keyed `total_cmp` sort, separate assign / scan / count /
    /// difference passes per out-sample, unconditional black-dot scan.
    /// Kept verbatim so `classify_bench` can report `kernel_speedup`
    /// against the *actual* previous kernel rather than against a
    /// baseline that quietly inherits the fused kernels; bit-identity
    /// with the live path is enforced by `tests/prop_compiled.rs`.
    /// Not part of the serving API.
    fn column_value_min_legacy(&self, c: usize, query: &BitSet, scratch: &mut Scratch) -> f64 {
        scratch.order_f64.clear();
        for h in 0..self.n_out {
            scratch.order_f64.push((scratch.vh[h], h as u32));
        }
        scratch.order_f64.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));

        scratch.remaining.assign_intersection(query, &self.class_expr[c]);
        let mut left = scratch.remaining.len();
        for &(v, h) in scratch.order_f64.iter() {
            if left == 0 {
                break;
            }
            let expr = &self.out_items[h as usize];
            scratch.newly.assign_intersection(&scratch.remaining, expr);
            for g in scratch.newly.iter() {
                scratch.cells[g] = v;
            }
            left -= scratch.newly.len();
            scratch.remaining.difference_with(expr);
        }
        for g in scratch.remaining.iter() {
            scratch.cells[g] = 1.0; // black dot: no out-sample expresses g
        }

        let mut sum = 0.0;
        let mut n = 0usize;
        for g in scratch.shared.iter() {
            sum += scratch.cells[g];
            n += 1;
        }
        sum / n as f64
    }

    /// [`CompiledBst::column_satisfactions`] with the pre-SIMD two-pass
    /// blank check (assign, then emptiness scan). Baseline counterpart of
    /// [`CompiledBst::column_value_min_legacy`].
    fn column_satisfactions_legacy(&self, c: usize, query: &BitSet, scratch: &mut Scratch) -> bool {
        scratch.shared.assign_intersection(query, &self.class_expr[c]);
        if scratch.shared.is_empty() {
            return false;
        }
        let lo = self.col_offsets[c] as usize;
        let hi = self.col_offsets[c + 1] as usize;
        for u in lo..hi {
            scratch.per_unique[u - lo] = self.list_satisfaction(u, query);
        }
        let idx_row = &self.idx[c * self.n_out..(c + 1) * self.n_out];
        for (h, &u) in idx_row.iter().enumerate() {
            scratch.vh[h] = scratch.per_unique[u as usize];
        }
        true
    }
}

impl CompiledBst {
    /// The batch sweep: evaluates this table against *every* query of a
    /// batch in one pass over the compiled masks, with the loop order
    /// inverted relative to [`CompiledBst::class_value`] — **outer over
    /// compiled columns, inner over queries** — so each column's mask
    /// block is loaded from memory once and stays cache-resident while
    /// it serves the whole batch. Per-query model traffic drops from
    /// `|model|` to `|model| / batch`, which is the whole point of
    /// cross-connection micro-batching: the serving hot path is
    /// memory-bound on the mask tables, not compute-bound.
    ///
    /// Per query the arithmetic is *identical* to the per-query kernel —
    /// the same column computations run in the same ascending column
    /// order, so each query's `col_sum` accumulates in exactly the order
    /// `class_value` uses and the result is **bit-identical** (enforced
    /// by `tests/prop_compiled.rs` across all three arithmetizations).
    ///
    /// ## Column blocking
    ///
    /// Columns are processed in **blocks sized to
    /// [`BatchScratch::set_block_bytes`]** (default
    /// [`DEFAULT_KERNEL_BLOCK_BYTES`], ≈ L2/2): each block's masks are
    /// swept across *all* queries before the next block is touched, so a
    /// model whose total masks spill the LLC still streams every mask
    /// exactly once per batch while the block stays cache-resident for
    /// the whole query dimension. Per-query `col_sum` accumulation still
    /// happens in ascending column order (blocks ascend, columns within
    /// a block ascend), so blocking reorders only *which query* runs
    /// next, never a query's own float operations — bit-identity is
    /// structural, for every block size.
    ///
    /// Fills `scratch.col_sum` / `scratch.cols`, one slot per query.
    /// With `LEGACY` set, every per-column computation routes through the
    /// frozen pre-SIMD kernels (benchmark baseline only); the flag is a
    /// const generic so the live sweep's codegen carries no baseline
    /// branches.
    fn batch_sweep<const LEGACY: bool>(
        &self,
        queries: &[BitSet],
        arith: Arithmetization,
        scratch: &mut BatchScratch,
    ) {
        scratch.inner.reserve_bst(self);
        scratch.col_sum.clear();
        scratch.col_sum.resize(queries.len(), 0.0);
        scratch.cols.clear();
        scratch.cols.resize(queries.len(), 0);
        let block_budget =
            if scratch.block_bytes == 0 { DEFAULT_KERNEL_BLOCK_BYTES } else { scratch.block_bytes };
        let n_cols = self.class_expr.len();
        let mut c0 = 0;
        while c0 < n_cols {
            // Grow the block greedily until the next column would
            // overflow the byte budget; always take at least one column.
            let mut c1 = c0 + 1;
            let mut bytes = self.col_block_bytes(c0);
            while c1 < n_cols {
                let next = self.col_block_bytes(c1);
                if bytes + next > block_budget {
                    break;
                }
                bytes += next;
                c1 += 1;
            }
            for (qi, query) in queries.iter().enumerate() {
                for c in c0..c1 {
                    let nonblank = if LEGACY {
                        self.column_satisfactions_legacy(c, query, &mut scratch.inner)
                    } else {
                        self.column_satisfactions(c, query, &mut scratch.inner)
                    };
                    if !nonblank {
                        continue; // blank column for this query
                    }
                    let v_s = match arith {
                        Arithmetization::Min if LEGACY => {
                            self.column_value_min_legacy(c, query, &mut scratch.inner)
                        }
                        Arithmetization::Min => self.column_value_min(c, query, &mut scratch.inner),
                        _ => {
                            let mut sum = 0.0;
                            let mut n = 0usize;
                            for g in scratch.inner.shared.iter() {
                                sum += cell_value(&self.out_expr[g], &scratch.inner.vh, arith);
                                n += 1;
                            }
                            sum / n as f64
                        }
                    };
                    scratch.col_sum[qi] += v_s;
                    scratch.cols[qi] += 1;
                }
            }
            c0 = c1;
        }
    }
}

/// Reusable working memory for the batch-sweep kernel: the per-(column,
/// query) temporaries of a single [`Scratch`] plus flat per-query
/// accumulator arenas. Like [`Scratch`], buffers grow to the largest
/// (model shape, batch size) seen and are then reused, so steady-state
/// batch classification performs **zero heap allocations** (asserted by
/// `tests/alloc_free.rs`).
#[derive(Clone, Debug, Default)]
pub struct BatchScratch {
    /// Per-(column, query) temporaries, shared across the batch.
    inner: Scratch,
    /// Per-query running sum of non-blank column values (`Σ V_s`).
    col_sum: Vec<f64>,
    /// Per-query count of non-blank columns.
    cols: Vec<u32>,
    /// Class values of the last batch, `values[q * n_classes + class]`.
    values: Vec<f64>,
    /// Stride of `values` (classes of the last model evaluated).
    n_classes: usize,
    /// Column-block byte budget of the sweep; 0 means
    /// [`DEFAULT_KERNEL_BLOCK_BYTES`].
    block_bytes: usize,
}

impl BatchScratch {
    /// An empty batch scratch; buffers are grown on first use.
    pub fn new() -> BatchScratch {
        BatchScratch::default()
    }

    /// Pre-sizes the per-model buffers (the per-batch arenas still grow
    /// on the first batch of each size).
    pub fn for_model(model: &CompiledModel) -> BatchScratch {
        BatchScratch { inner: Scratch::for_model(model), ..BatchScratch::default() }
    }

    /// Sets the column-block byte budget of the batch sweep
    /// (`--kernel-block-bytes`); 0 restores
    /// [`DEFAULT_KERNEL_BLOCK_BYTES`]. Affects cache behavior only —
    /// results are bit-identical for every block size.
    pub fn set_block_bytes(&mut self, bytes: usize) {
        self.block_bytes = bytes;
    }

    /// Class values of query `q` from the most recent
    /// [`CompiledModel::class_values_batch_into`] call, indexed by
    /// `ClassId`.
    pub fn values_of(&self, q: usize) -> &[f64] {
        &self.values[q * self.n_classes..(q + 1) * self.n_classes]
    }
}

/// Reusable working memory for the **multi-core** batch kernel: one
/// [`BatchScratch`] per pool lane plus a shared per-query class-value
/// arena the lanes write disjoint chunks of. Like the other scratches,
/// every buffer grows to the largest (model, batch, lane-count) shape
/// seen and is then reused — steady-state pooled batch classification
/// performs **zero heap allocations** (asserted by
/// `tests/alloc_free.rs`).
#[derive(Debug, Default)]
pub struct ParBatchScratch {
    /// Per-lane sweep scratches; lane `i` of a pooled call owns slot `i`.
    lanes: Vec<BatchScratch>,
    /// Class values of the last batch, `values[q * n_classes + class]`.
    values: Vec<f64>,
    /// Stride of `values` (classes of the last model evaluated).
    n_classes: usize,
    /// Column-block byte budget, propagated to every lane; 0 means
    /// [`DEFAULT_KERNEL_BLOCK_BYTES`].
    block_bytes: usize,
}

impl ParBatchScratch {
    /// An empty scratch; buffers are grown on first use.
    pub fn new() -> ParBatchScratch {
        ParBatchScratch::default()
    }

    /// Pre-sizes `lanes` sweep scratches for `model` (the per-batch
    /// arenas still grow on the first batch of each size).
    pub fn for_model(model: &CompiledModel, lanes: usize) -> ParBatchScratch {
        ParBatchScratch {
            lanes: (0..lanes.max(1)).map(|_| BatchScratch::for_model(model)).collect(),
            ..ParBatchScratch::default()
        }
    }

    /// Sets the column-block byte budget of every lane's sweep
    /// (`--kernel-block-bytes`); 0 restores
    /// [`DEFAULT_KERNEL_BLOCK_BYTES`].
    pub fn set_block_bytes(&mut self, bytes: usize) {
        self.block_bytes = bytes;
    }

    /// The configured column-block byte budget (0 = default).
    pub fn block_bytes(&self) -> usize {
        self.block_bytes
    }

    /// Class values of query `q` from the most recent
    /// [`CompiledModel::class_values_batch_par_into`] call, indexed by
    /// `ClassId`.
    pub fn values_of(&self, q: usize) -> &[f64] {
        &self.values[q * self.n_classes..(q + 1) * self.n_classes]
    }
}

/// A raw pointer the pooled kernel may share across lanes. Safety rests
/// on the caller handing each lane a disjoint region (see the SAFETY
/// notes at the use sites).
#[derive(Clone, Copy)]
struct SendPtr<T>(*mut T);

impl<T> SendPtr<T> {
    /// The wrapped pointer. A method (not field access) so closures
    /// capture the `Sync` wrapper, not the raw pointer.
    fn get(&self) -> *mut T {
        self.0
    }
}

// SAFETY: `SendPtr` is only a capability to *form* references inside
// pool tasks; disjointness of the actual accesses is argued at each use.
unsafe impl<T> Send for SendPtr<T> {}
unsafe impl<T> Sync for SendPtr<T> {}

/// Cell value of a non-empty (g, c) cell (Algorithm 5 lines 7–11) given
/// the column's fanned-out satisfactions.
#[inline]
fn cell_value(out: &BitSet, vh: &[f64], arith: Arithmetization) -> f64 {
    if out.is_empty() {
        return 1.0; // black dot
    }
    arith.combine(out.iter().map(|h| vh[h]))
}

/// Reusable per-thread working memory for compiled classification.
///
/// Create one per worker thread ([`Scratch::new`] is trivially cheap) and
/// pass it to every call; buffers grow to the largest model shape seen and
/// are then reused, so the steady state performs no per-query heap
/// allocation. A scratch may be shared across models — it simply regrows
/// when a larger one arrives (e.g. after a serve-time hot reload).
#[derive(Clone, Debug)]
pub struct Scratch {
    /// Satisfaction per distinct list of the current column.
    per_unique: Vec<f64>,
    /// The column's satisfactions fanned out per local out-sample.
    vh: Vec<f64>,
    /// Reusable `query ∩ column` intersection buffer.
    shared: BitSet,
    /// Per-class classification values of the last query.
    values: Vec<f64>,
    /// Min sweep: per-item cell values of the current column.
    cells: Vec<f64>,
    /// Min sweep: shared items not yet covered by an out-sample.
    remaining: BitSet,
    /// Min sweep: items covered by the current out-sample.
    newly: BitSet,
    /// Min sweep: (total-order satisfaction key, out-sample) pairs,
    /// sorted ascending — see [`f64_total_order_key`].
    order: Vec<(u64, u32)>,
    /// Float-keyed sort buffer of the frozen benchmark baseline
    /// (`column_value_min_legacy`); empty unless the legacy path runs.
    order_f64: Vec<(f64, u32)>,
}

/// Maps an `f64` to a `u64` whose unsigned order is exactly
/// [`f64::total_cmp`]'s order (the IEEE 754 totalOrder trick: flip all
/// bits of negatives, flip only the sign bit of non-negatives), so the
/// Min sweep can sort plain integers.
#[inline]
fn f64_total_order_key(v: f64) -> u64 {
    let b = v.to_bits();
    b ^ ((((b as i64) >> 63) as u64) | 0x8000_0000_0000_0000)
}

/// Inverse of [`f64_total_order_key`], bit-exact.
#[inline]
fn f64_from_total_order_key(k: u64) -> f64 {
    f64::from_bits(k ^ (if k >> 63 == 1 { 0x8000_0000_0000_0000 } else { !0u64 }))
}

impl Default for Scratch {
    fn default() -> Scratch {
        Scratch::new()
    }
}

impl Scratch {
    /// An empty scratch; buffers are grown on first use.
    pub fn new() -> Scratch {
        Scratch {
            per_unique: Vec::new(),
            vh: Vec::new(),
            shared: BitSet::new(0),
            values: Vec::new(),
            cells: Vec::new(),
            remaining: BitSet::new(0),
            newly: BitSet::new(0),
            order: Vec::new(),
            order_f64: Vec::new(),
        }
    }

    /// Pre-sizes every buffer for `model`, so even the first query is
    /// allocation-free.
    pub fn for_model(model: &CompiledModel) -> Scratch {
        let mut s = Scratch::new();
        for bst in &model.bsts {
            s.reserve_bst(bst);
        }
        s.values.resize(model.n_classes(), 0.0);
        s
    }

    /// Grows the per-column buffers to fit `bst` (no-op once large enough).
    fn reserve_bst(&mut self, bst: &CompiledBst) {
        let uniq = bst.max_unique();
        if self.per_unique.len() < uniq {
            self.per_unique.resize(uniq, 0.0);
        }
        if self.vh.len() < bst.n_out {
            self.vh.resize(bst.n_out, 0.0);
        }
        if self.shared.capacity() != bst.n_items {
            self.shared = BitSet::new(bst.n_items);
        }
        if self.cells.len() < bst.n_items {
            self.cells.resize(bst.n_items, 0.0);
        }
        if self.remaining.capacity() != bst.n_items {
            self.remaining = BitSet::new(bst.n_items);
        }
        if self.newly.capacity() != bst.n_items {
            self.newly = BitSet::new(bst.n_items);
        }
        if self.order.capacity() < bst.n_out {
            self.order.clear();
            self.order.reserve(bst.n_out);
        }
        if self.order_f64.capacity() < bst.n_out {
            self.order_f64.clear();
            self.order_f64.reserve(bst.n_out);
        }
    }

    /// Class values of the most recent
    /// [`CompiledModel::class_values_into`] / [`CompiledModel::classify`]
    /// call, indexed by `ClassId`.
    pub fn values(&self) -> &[f64] {
        &self.values
    }
}

/// A trained BSTC model lowered to word-parallel evaluation form: one
/// [`CompiledBst`] per class plus the training-time arithmetization.
///
/// Produced by [`BstcModel::compile`]; predictions and class values are
/// bit-identical to the reference model's.
#[derive(Clone, Debug)]
pub struct CompiledModel {
    bsts: Vec<CompiledBst>,
    arith: Arithmetization,
}

impl CompiledModel {
    /// Lowers every class BST of `model`.
    ///
    /// Records its wall time as stage `compile` in [`obs::global`].
    pub fn compile(model: &BstcModel) -> CompiledModel {
        let _stage = obs::Stage::enter("compile");
        CompiledModel {
            bsts: (0..model.n_classes()).map(|c| CompiledBst::compile(model.bst(c))).collect(),
            arith: model.arithmetization(),
        }
    }

    /// Number of classes.
    pub fn n_classes(&self) -> usize {
        self.bsts.len()
    }

    /// The arithmetization the model was trained with.
    pub fn arithmetization(&self) -> Arithmetization {
        self.arith
    }

    /// The compiled BST of one class.
    pub fn bst(&self, class: ClassId) -> &CompiledBst {
        &self.bsts[class]
    }

    /// BSTCE classification value of `query` against one class.
    pub fn class_value(&self, class: ClassId, query: &BitSet, scratch: &mut Scratch) -> f64 {
        self.bsts[class].class_value(query, self.arith, scratch)
    }

    /// Computes every class value into `scratch` (read them back via
    /// [`Scratch::values`]). Allocation-free in the steady state.
    pub fn class_values_into(&self, query: &BitSet, scratch: &mut Scratch) {
        if scratch.values.len() != self.bsts.len() {
            scratch.values.resize(self.bsts.len(), 0.0);
        }
        for (i, bst) in self.bsts.iter().enumerate() {
            let v = bst.class_value(query, self.arith, scratch);
            scratch.values[i] = v;
        }
    }

    /// Classification values for every class, indexed by `ClassId`
    /// (allocates the returned vector; use
    /// [`CompiledModel::class_values_into`] on hot paths).
    pub fn class_values(&self, query: &BitSet, scratch: &mut Scratch) -> Vec<f64> {
        self.class_values_into(query, scratch);
        scratch.values.clone()
    }

    /// BSTC (Algorithm 6): the smallest class index with maximal value.
    /// Allocation-free in the steady state.
    pub fn classify(&self, query: &BitSet, scratch: &mut Scratch) -> ClassId {
        self.class_values_into(query, scratch);
        select_class(&scratch.values)
    }

    /// The §8 confidence heuristic on the compiled path (single-pass
    /// top-2, no sort, no allocation).
    pub fn confidence_gap(&self, query: &BitSet, scratch: &mut Scratch) -> f64 {
        self.class_values_into(query, scratch);
        confidence_gap_of(&scratch.values)
    }

    /// Computes every class value of every query in `queries` with the
    /// inverted batch-sweep kernel — each class table's masks stream
    /// through cache once for the whole batch instead of once per query.
    /// Read the results back via [`BatchScratch::values_of`].
    /// Allocation-free once `scratch` has grown to this model's shape and
    /// the batch size. Bit-identical to calling
    /// [`CompiledModel::class_values_into`] per query.
    pub fn class_values_batch_into(&self, queries: &[BitSet], scratch: &mut BatchScratch) {
        self.batch_into::<false>(queries, scratch)
    }

    /// [`CompiledModel::class_values_batch_into`] routed through the
    /// frozen pre-SIMD per-column kernels (`*_legacy`): the separate
    /// assign / count / difference passes and `total_cmp` float sort the
    /// sweep used before the fused SIMD kernels landed. This is the
    /// baseline `classify_bench` times for `kernel_speedup` — measuring
    /// the live path with vectorization disabled would still credit the
    /// baseline with the pass-fusion wins and understate the change.
    /// Bit-identical to the live path (`tests/prop_compiled.rs`); not
    /// part of the serving API.
    #[doc(hidden)]
    pub fn class_values_batch_into_legacy(&self, queries: &[BitSet], scratch: &mut BatchScratch) {
        self.batch_into::<true>(queries, scratch)
    }

    fn batch_into<const LEGACY: bool>(&self, queries: &[BitSet], scratch: &mut BatchScratch) {
        scratch.n_classes = self.bsts.len();
        let n = queries.len() * self.bsts.len();
        scratch.values.clear();
        scratch.values.resize(n, 0.0);
        for (class, bst) in self.bsts.iter().enumerate() {
            bst.batch_sweep::<LEGACY>(queries, self.arith, scratch);
            for qi in 0..queries.len() {
                let v = if scratch.cols[qi] == 0 {
                    0.0 // the query shares nothing with this class
                } else {
                    scratch.col_sum[qi] / scratch.cols[qi] as f64
                };
                scratch.values[qi * scratch.n_classes + class] = v;
            }
        }
    }

    /// Batch form of [`CompiledModel::classify`]: predictions for every
    /// query of a batch via one model pass, appended to `out` (cleared
    /// first). Argmax ties break to the smallest class index, exactly as
    /// the per-query path. Allocation-free in the steady state.
    pub fn classify_batch_into(
        &self,
        queries: &[BitSet],
        scratch: &mut BatchScratch,
        out: &mut Vec<ClassId>,
    ) {
        self.class_values_batch_into(queries, scratch);
        out.clear();
        out.extend((0..queries.len()).map(|qi| select_class(scratch.values_of(qi))));
    }

    /// Total bytes of the compiled mask tables across every class — the
    /// traffic one query streams through cache, and (×batch) the work
    /// estimate driving the sequential-vs-parallel decision. Recorded by
    /// `classify_bench` as `mask_working_set_bytes`.
    pub fn mask_bytes(&self) -> usize {
        self.bsts.iter().map(|b| b.mask_bytes()).sum()
    }

    /// How many pool lanes a batch of `n_queries` should fan out to:
    /// one lane per [`PARALLEL_GRAIN_BYTES`] of streamed mask traffic
    /// (`mask_bytes × n_queries`), clamped to the batch size and the
    /// pool width. A tiny model never leaves the calling thread no
    /// matter how many queries arrive; a model whose single pass already
    /// dwarfs the grain parallelizes even a two-query batch.
    fn parallel_lanes(&self, n_queries: usize, pool_lanes: usize) -> usize {
        let work = self.mask_bytes() as u64 * n_queries as u64;
        let by_work = usize::try_from(work / PARALLEL_GRAIN_BYTES).unwrap_or(usize::MAX);
        by_work.clamp(1, pool_lanes.min(n_queries.max(1)))
    }

    /// Multi-core form of [`CompiledModel::class_values_batch_into`]: the
    /// query dimension is split into contiguous chunks across `pool`
    /// lanes, each lane running the blocked column-outer sweep over its
    /// chunk with its own [`BatchScratch`] — so per-lane loop order (and
    /// hence every query's float-operation order) is exactly the
    /// single-threaded kernel's, and results are **bit-identical** to N
    /// per-query calls regardless of lane count. Read results back via
    /// [`ParBatchScratch::values_of`]. Allocation-free once `scratch` has
    /// grown to the model shape, batch size, and lane count. Batches
    /// whose total mask traffic is below the parallel grain stay on the
    /// calling thread.
    pub fn class_values_batch_par_into(
        &self,
        queries: &[BitSet],
        pool: &WorkerPool,
        scratch: &mut ParBatchScratch,
    ) {
        let lanes = self.parallel_lanes(queries.len(), pool.lanes());
        self.class_values_batch_par_into_lanes(queries, pool, scratch, lanes);
    }

    /// [`CompiledModel::class_values_batch_par_into`] with the lane count
    /// pinned instead of derived from mask traffic. Exposed for tests
    /// that need the multi-lane path on models far below the parallel
    /// grain; not part of the public API.
    #[doc(hidden)]
    pub fn class_values_batch_par_into_lanes(
        &self,
        queries: &[BitSet],
        pool: &WorkerPool,
        scratch: &mut ParBatchScratch,
        lanes: usize,
    ) {
        let n_classes = self.bsts.len();
        scratch.n_classes = n_classes;
        scratch.values.clear();
        scratch.values.resize(queries.len() * n_classes, 0.0);
        let lanes = lanes.clamp(1, pool.lanes().min(queries.len().max(1)));
        if scratch.lanes.len() < lanes {
            scratch.lanes.resize_with(lanes, BatchScratch::new);
        }
        for lane in &mut scratch.lanes {
            lane.block_bytes = scratch.block_bytes;
        }
        if lanes <= 1 {
            let lane = &mut scratch.lanes[0];
            self.class_values_batch_into(queries, lane);
            scratch.values.copy_from_slice(&lane.values[..queries.len() * n_classes]);
            return;
        }
        let chunk = queries.len().div_ceil(lanes);
        let lanes_ptr = SendPtr(scratch.lanes.as_mut_ptr());
        let values_ptr = SendPtr(scratch.values.as_mut_ptr());
        pool.run(lanes, &|i| {
            let start = i * chunk;
            let end = ((i + 1) * chunk).min(queries.len());
            if start >= end {
                return;
            }
            // SAFETY: task indices are distinct and executed exactly once
            // (pool contract), so lane `i` exclusively owns
            // `scratch.lanes[i]` and the `values` range of its query
            // chunk; `pool.run` returns only after every task finished.
            let lane = unsafe { &mut *lanes_ptr.get().add(i) };
            self.class_values_batch_into(&queries[start..end], lane);
            let dst = unsafe {
                std::slice::from_raw_parts_mut(
                    values_ptr.get().add(start * n_classes),
                    (end - start) * n_classes,
                )
            };
            dst.copy_from_slice(&lane.values[..(end - start) * n_classes]);
        });
    }

    /// Batch classification over the shared worker pool: predictions for
    /// every query, appended to `out` (cleared first), computed by the
    /// blocked multi-core sweep. Argmax ties break to the smallest class
    /// index, exactly as the per-query path. Allocation-free in the
    /// steady state.
    pub fn classify_batch_par_into(
        &self,
        queries: &[BitSet],
        pool: &WorkerPool,
        scratch: &mut ParBatchScratch,
        out: &mut Vec<ClassId>,
    ) {
        self.class_values_batch_par_into(queries, pool, scratch);
        out.clear();
        out.extend((0..queries.len()).map(|qi| select_class(scratch.values_of(qi))));
    }

    /// Classifies a batch with the blocked batch-sweep kernel, fanned out
    /// across the process-wide worker pool ([`pool::global`]) with one
    /// [`BatchScratch`] per lane. Batches too small to amortize a lane
    /// handoff (by mask traffic, not query count) stay on the calling
    /// thread.
    pub fn classify_all(&self, queries: &[BitSet]) -> Vec<ClassId> {
        let mut scratch = ParBatchScratch::new();
        let mut out = Vec::with_capacity(queries.len());
        self.classify_batch_par_into(queries, pool::global(), &mut scratch, &mut out);
        out
    }

    /// §5.3.2 explanations on the compiled path — same cells, same
    /// satisfactions, same order as [`BstcModel::explain`]. Allocates only
    /// the returned vector.
    pub fn explain(
        &self,
        class: ClassId,
        query: &BitSet,
        threshold: f64,
        scratch: &mut Scratch,
    ) -> Vec<CellExplanation> {
        let bst = &self.bsts[class];
        scratch.reserve_bst(bst);
        let mut out = Vec::new();
        for c in 0..bst.class_expr.len() {
            if !bst.column_satisfactions(c, query, scratch) {
                continue;
            }
            for g in scratch.shared.iter() {
                let v = cell_value(&bst.out_expr[g], &scratch.vh, self.arith);
                if v >= threshold {
                    out.push(CellExplanation {
                        class,
                        item: g,
                        supporting_sample: bst.class_samples[c],
                        satisfaction: v,
                    });
                }
            }
        }
        out.sort_by(|a, b| b.satisfaction.total_cmp(&a.satisfaction));
        out
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
    fn compiled_values_match_figure_3() {
        let d = table1();
        let model = BstcModel::train(&d);
        let compiled = model.compile();
        let mut scratch = Scratch::for_model(&compiled);
        let q = section54_query();
        assert!(close(compiled.class_value(0, &q, &mut scratch), 0.75));
        assert!(close(compiled.class_value(1, &q, &mut scratch), 0.375));
        assert_eq!(compiled.classify(&q, &mut scratch), 0);
    }

    #[test]
    fn compiled_matches_reference_bit_for_bit_on_table1() {
        let d = table1();
        for arith in [Arithmetization::Min, Arithmetization::Product, Arithmetization::Mean] {
            let model = BstcModel::train_with(&d, arith);
            let compiled = model.compile();
            let mut scratch = Scratch::new();
            let mut queries: Vec<BitSet> = d.samples().to_vec();
            queries.push(section54_query());
            queries.push(BitSet::new(6));
            queries.push(BitSet::full(6));
            for q in &queries {
                assert_eq!(
                    model.class_values(q),
                    compiled.class_values(q, &mut scratch),
                    "{arith:?}"
                );
                assert_eq!(model.classify(q), compiled.classify(q, &mut scratch));
                assert_eq!(
                    model.confidence_gap(q),
                    compiled.confidence_gap(q, &mut scratch),
                    "{arith:?}"
                );
            }
        }
    }

    #[test]
    fn compiled_explanations_match_reference() {
        let d = table1();
        let model = BstcModel::train(&d);
        let compiled = model.compile();
        let mut scratch = Scratch::new();
        let q = section54_query();
        for class in 0..2 {
            for threshold in [0.0, 0.5, 1.0] {
                assert_eq!(
                    model.explain(class, &q, threshold),
                    compiled.explain(class, &q, threshold, &mut scratch)
                );
            }
        }
    }

    #[test]
    fn classify_all_matches_sequential_classify() {
        let d = table1();
        let model = BstcModel::train(&d);
        let compiled = model.compile();
        let mut scratch = Scratch::new();
        // Enough queries to cross the batch-parallel cutoff.
        let queries: Vec<BitSet> =
            (0..64).map(|i| BitSet::from_iter(6, (0..6).filter(|g| (i >> g) & 1 == 1))).collect();
        let batch = compiled.classify_all(&queries);
        let one_by_one: Vec<_> =
            queries.iter().map(|q| compiled.classify(q, &mut scratch)).collect();
        assert_eq!(batch, one_by_one);
        assert_eq!(batch, model.classify_all(&queries));
    }

    #[test]
    fn scratch_regrows_across_models() {
        // A scratch sized for one model must transparently serve a larger
        // one (the serve hot-reload case) and a smaller one.
        let d = table1();
        let small = BstcModel::train(&d).compile();
        let big_data = microarray::synth::BoolSynthConfig {
            name: "grow".into(),
            n_items: 300,
            class_sizes: vec![8, 9],
            class_names: vec!["a".into(), "b".into()],
            markers_per_class: 40,
            marker_on: 0.9,
            background_on: 0.2,
            seed: 11,
        }
        .generate();
        let big = BstcModel::train(&big_data).compile();
        let mut scratch = Scratch::for_model(&small);
        assert_eq!(small.classify(&section54_query(), &mut scratch), 0);
        let q = big_data.sample(0).clone();
        assert_eq!(big.classify(&q, &mut scratch), BstcModel::train(&big_data).classify(&q));
        assert_eq!(small.classify(&section54_query(), &mut scratch), 0);
    }

    #[test]
    fn total_order_key_is_total_cmp_and_invertible() {
        let vals = [
            0.0,
            -0.0,
            1.0,
            -1.0,
            0.5,
            2.0 / 3.0,
            f64::MIN_POSITIVE,
            f64::MAX,
            f64::MIN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        for &a in &vals {
            assert_eq!(f64_from_total_order_key(f64_total_order_key(a)).to_bits(), a.to_bits());
            for &b in &vals {
                assert_eq!(
                    f64_total_order_key(a).cmp(&f64_total_order_key(b)),
                    a.total_cmp(&b),
                    "{a} vs {b}"
                );
            }
        }
    }
}
