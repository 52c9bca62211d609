//! Boolean Structure Tables (§3.1, Algorithm 1).
//!
//! A BST for class `C_i` is conceptually a `|G| × |C_i|` table whose
//! (g, c) cell is
//!
//! * **empty** when sample `c` does not express item `g`;
//! * a **black dot** when `c` expresses `g` and *no* out-of-class sample
//!   does (the item alone is 100 % class-pure);
//! * otherwise the set of **exclusion lists** `{E(c,h) : h ∉ C_i, g ∈ h}` —
//!   one canonical list per (c, h) pair, shared across all cells of row
//!   `c`'s column, exactly the list Algorithm 1 memoizes via its pointer
//!   array.
//!
//! We therefore materialize only (a) the per-pair exclusion lists and
//! (b) per-item bitsets of out-of-class samples expressing the item; cells
//! are views assembled on demand. This preserves Algorithm 1's
//! `O((|S|−|C_i|)·|G|·|C_i|)` space/time bound with a much smaller
//! constant.
//!
//! Exclusion lists live in a per-class [`ListArena`]: one flat item
//! buffer plus an `(offset, len, sign)` entry table, grouped by column.
//! Construction interns each (c, h) difference **before** it is ever
//! converted to an item vector — the difference bitset is hashed in
//! place and probed against the column's intern table, so only the
//! first occurrence of a distinct list is materialized. Peak memory
//! therefore scales with distinct list *content*, not with the
//! `|C_i|·(|S|−|C_i|)` pair count that used to allocate one heap `Vec`
//! per pair (see DESIGN.md §13).

use crate::bar::{Bar, BarAntecedent, ExclusionClause, Sign};
use crate::json_enc::{push_dec, push_dec_seq, push_gap_hex, spill, FLUSH_BYTES};
use crate::pool;
use microarray::{BitSet, BoolDataset, ClassId, ItemId, SampleId};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::io;

/// A canonical exclusion list for one (class-sample, out-sample) pair.
///
/// Per Algorithm 1: the list is `{g : g ∈ h, g ∉ c}` with negative sign
/// ("c is distinguished from h by *not* expressing any one of these"), or —
/// only when that set is empty — `{g : g ∈ c, g ∉ h}` with positive sign.
/// Both empty (identical samples across classes) yields an unsatisfiable
/// empty negative list.
///
/// This owned form is the wire type and test vocabulary; inside a built
/// [`Bst`] the lists live in a [`ListArena`] and are handed out as
/// borrowed [`ExclusionListRef`] views.
#[derive(Clone, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ExclusionList {
    /// Polarity of `items`.
    pub sign: Sign,
    /// Items of the list, ascending.
    #[serde(with = "gap_hex")]
    pub items: Vec<ItemId>,
}

/// Compact wire form for the ascending item lists of [`ExclusionList`]:
/// the first id in hex, then the hex gap to each successor,
/// comma-separated — `[3, 10, 11]` → `"3,7,1"`. A trained model is
/// dominated by its exclusion lists (one per (c, h) pair), and encoding
/// each list as one string instead of a JSON array keeps both the file
/// and the serializer's in-memory tree proportional to the *encoded*
/// size — serializing a large model no longer dwarfs the model itself.
///
/// The digits come from `json_enc::push_gap_hex`, the encoder the
/// streaming writer ([`crate::Bst::write_json_to`]) uses, so both
/// serializers share one implementation of the wire form.
mod gap_hex {
    use crate::json_enc::push_gap_hex;
    use microarray::ItemId;
    use serde::{de, Deserialize, Deserializer, Serialize, Serializer};

    pub fn serialize<S: Serializer>(items: &[ItemId], s: S) -> Result<S::Ok, S::Error> {
        let mut out = Vec::with_capacity(items.len() * 3);
        push_gap_hex(&mut out, items);
        String::from_utf8(out).expect("gap-hex is ASCII").serialize(s)
    }

    pub fn deserialize<'de, D: Deserializer<'de>>(d: D) -> Result<Vec<ItemId>, D::Error> {
        let text = String::deserialize(d)?;
        if text.is_empty() {
            return Ok(Vec::new());
        }
        let mut items = Vec::new();
        let mut prev = 0usize;
        for (i, field) in text.split(',').enumerate() {
            let v = usize::from_str_radix(field, 16).map_err(|_| {
                <D::Error as de::Error>::custom(format!("bad gap-hex field `{field}`"))
            })?;
            let id = if i == 0 {
                v
            } else {
                if v == 0 {
                    return Err(<D::Error as de::Error>::custom(
                        "gap-hex gap of 0: item list must be strictly ascending",
                    ));
                }
                prev.checked_add(v).ok_or_else(|| {
                    <D::Error as de::Error>::custom("gap-hex item id overflows usize")
                })?
            };
            items.push(id);
            prev = id;
        }
        Ok(items)
    }
}

impl ExclusionList {
    /// Converts to a [`ExclusionClause`] naming the excluded out-sample.
    pub fn to_clause(&self, out_sample: SampleId) -> ExclusionClause {
        ExclusionClause { out_sample, sign: self.sign, items: self.items.clone() }
    }

    /// Fraction of literals satisfied by `query` — Algorithm 5 line 4's
    /// `V_e`, computed without materializing a clause (the per-query hot
    /// path evaluates every (c, h) list once).
    pub fn satisfaction(&self, query: &BitSet) -> f64 {
        self.as_ref().satisfaction(query)
    }

    /// This list as a borrowed [`ExclusionListRef`] view.
    pub fn as_ref(&self) -> ExclusionListRef<'_> {
        ExclusionListRef { sign: self.sign, items: &self.items }
    }
}

/// A borrowed view of one exclusion list inside a [`ListArena`].
///
/// Same vocabulary as [`ExclusionList`] (`sign`, ascending `items`) but
/// the items borrow the arena's flat buffer — accessors hand these out
/// without cloning, and the compiled lowering reads straight from them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExclusionListRef<'a> {
    /// Polarity of `items`.
    pub sign: Sign,
    /// Items of the list, ascending.
    pub items: &'a [ItemId],
}

impl ExclusionListRef<'_> {
    /// Converts to a [`ExclusionClause`] naming the excluded out-sample.
    pub fn to_clause(&self, out_sample: SampleId) -> ExclusionClause {
        ExclusionClause { out_sample, sign: self.sign, items: self.items.to_vec() }
    }

    /// Fraction of literals satisfied by `query` — Algorithm 5 line 4's
    /// `V_e`, computed without materializing a clause (the per-query hot
    /// path evaluates every (c, h) list once).
    pub fn satisfaction(&self, query: &BitSet) -> f64 {
        if self.items.is_empty() {
            return 0.0; // degenerate duplicate pair: unsatisfiable
        }
        let sat = match self.sign {
            Sign::Pos => self.items.iter().filter(|&&g| query.contains(g)).count(),
            Sign::Neg => self.items.iter().filter(|&&g| !query.contains(g)).count(),
        };
        sat as f64 / self.items.len() as f64
    }

    /// Clones this view into an owned [`ExclusionList`].
    pub fn to_owned(&self) -> ExclusionList {
        ExclusionList { sign: self.sign, items: self.items.to_vec() }
    }
}

impl PartialEq<ExclusionList> for ExclusionListRef<'_> {
    fn eq(&self, other: &ExclusionList) -> bool {
        self.sign == other.sign && self.items == other.items.as_slice()
    }
}

impl PartialEq<ExclusionListRef<'_>> for ExclusionList {
    fn eq(&self, other: &ExclusionListRef<'_>) -> bool {
        other == self
    }
}

/// Flat, interned storage for every distinct exclusion list of one BST.
///
/// One items buffer + one `(offset, sign)` entry table + per-column entry
/// ranges replace the old `Vec<Vec<ExclusionList>>` (one heap allocation
/// per surviving list): three allocations total, contiguous iteration for
/// the compiled lowering, and a memory footprint that scales with
/// distinct list content. Entry `e`'s items are
/// `items[offsets[e]..offsets[e + 1]]`; column `c` owns entries
/// `col_offsets[c]..col_offsets[c + 1]`.
#[derive(Clone, Debug, PartialEq)]
pub struct ListArena {
    /// Concatenated items of every distinct list (ascending per list).
    items: Vec<ItemId>,
    /// Cumulative item offsets, one per entry plus a final sentinel.
    offsets: Vec<usize>,
    /// Sign of each entry.
    signs: Vec<Sign>,
    /// Entry ranges per column (`n_cols + 1` cumulative bounds).
    col_offsets: Vec<u32>,
}

impl ListArena {
    fn new() -> ListArena {
        ListArena { items: Vec::new(), offsets: vec![0], signs: Vec::new(), col_offsets: vec![0] }
    }

    /// Sizes the arena exactly for a known merge, so the big vectors
    /// never carry doubling slack.
    fn reserve_exact(&mut self, total_items: usize, total_entries: usize, n_cols: usize) {
        self.items.reserve_exact(total_items);
        self.offsets.reserve_exact(total_entries);
        self.signs.reserve_exact(total_entries);
        self.col_offsets.reserve_exact(n_cols);
    }

    /// Appends one column's lists (flat form) to the arena.
    fn push_column(&mut self, items: &[ItemId], offsets: &[usize], signs: &[Sign]) {
        let base = self.items.len();
        self.items.extend_from_slice(items);
        // offsets[0] is always 0; skip it and shift the rest.
        self.offsets.extend(offsets[1..].iter().map(|o| base + o));
        self.signs.extend_from_slice(signs);
        self.col_offsets.push(self.signs.len() as u32);
    }

    /// Rebuilds an arena from per-column owned lists (the wire form).
    pub fn from_columns(cols: &[Vec<ExclusionList>]) -> ListArena {
        let mut arena = ListArena::new();
        for col in cols {
            let start = arena.signs.len();
            for list in col {
                arena.items.extend_from_slice(&list.items);
                arena.offsets.push(arena.items.len());
                arena.signs.push(list.sign);
            }
            debug_assert_eq!(start + col.len(), arena.signs.len());
            arena.col_offsets.push(arena.signs.len() as u32);
        }
        arena
    }

    /// Number of columns.
    pub fn n_cols(&self) -> usize {
        self.col_offsets.len() - 1
    }

    /// Total distinct lists across all columns.
    pub fn n_lists(&self) -> usize {
        self.signs.len()
    }

    /// Total items across all distinct lists (the memory driver).
    pub fn total_items(&self) -> usize {
        self.items.len()
    }

    /// Bytes held by the arena's buffers (the storage the intern pass is
    /// accountable for; reported as `bstc_bst_arena_bytes_total`).
    pub fn arena_bytes(&self) -> usize {
        self.items.len() * std::mem::size_of::<ItemId>()
            + self.offsets.len() * std::mem::size_of::<usize>()
            + self.signs.len() * std::mem::size_of::<Sign>()
            + self.col_offsets.len() * std::mem::size_of::<u32>()
    }

    #[inline]
    fn entry(&self, e: usize) -> ExclusionListRef<'_> {
        ExclusionListRef {
            sign: self.signs[e],
            items: &self.items[self.offsets[e]..self.offsets[e + 1]],
        }
    }

    /// The `u`-th distinct list of column `c`.
    #[inline]
    pub fn list(&self, c: usize, u: usize) -> ExclusionListRef<'_> {
        let base = self.col_offsets[c] as usize;
        debug_assert!(
            base + u < self.col_offsets[c + 1] as usize,
            "list index out of column range"
        );
        self.entry(base + u)
    }

    /// The distinct lists of column `c` as an indexable, iterable view.
    pub fn col(&self, c: usize) -> ColumnLists<'_> {
        ColumnLists { arena: self, start: self.col_offsets[c], end: self.col_offsets[c + 1] }
    }
}

/// The distinct exclusion lists of one BST column, borrowed from the
/// arena. Supports `len`, indexed [`ColumnLists::get`], and iteration.
#[derive(Clone, Copy)]
pub struct ColumnLists<'a> {
    arena: &'a ListArena,
    start: u32,
    end: u32,
}

impl<'a> ColumnLists<'a> {
    /// Number of distinct lists in the column.
    pub fn len(&self) -> usize {
        (self.end - self.start) as usize
    }

    /// True if the column has no lists (no out-of-class samples).
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// The `u`-th distinct list.
    pub fn get(&self, u: usize) -> ExclusionListRef<'a> {
        debug_assert!(u < self.len());
        self.arena.entry(self.start as usize + u)
    }

    /// Iterates the column's lists in intern (first-seen) order.
    pub fn iter(&self) -> ColumnIter<'a> {
        ColumnIter { arena: self.arena, cur: self.start, end: self.end }
    }
}

impl<'a> IntoIterator for ColumnLists<'a> {
    type Item = ExclusionListRef<'a>;
    type IntoIter = ColumnIter<'a>;
    fn into_iter(self) -> ColumnIter<'a> {
        self.iter()
    }
}

/// Iterator over one column's distinct lists.
pub struct ColumnIter<'a> {
    arena: &'a ListArena,
    cur: u32,
    end: u32,
}

impl<'a> Iterator for ColumnIter<'a> {
    type Item = ExclusionListRef<'a>;
    fn next(&mut self) -> Option<ExclusionListRef<'a>> {
        if self.cur >= self.end {
            return None;
        }
        let e = self.arena.entry(self.cur as usize);
        self.cur += 1;
        Some(e)
    }
    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = (self.end - self.cur) as usize;
        (n, Some(n))
    }
}

impl ExactSizeIterator for ColumnIter<'_> {}

/// Serde bridge keeping the arena bit-compatible with the historical
/// `Vec<Vec<ExclusionList>>` wire shape (bundle FORMAT_VERSION 2): the
/// arena serializes as per-column sequences of `{sign, items}` maps with
/// gap-hex item strings, exactly what the derive used to emit, and
/// deserializes from the same shape. (The tree-based serializer still
/// materializes owned lists on this path; the streaming serializer —
/// [`Bst::write_json_to`] — writes the same bytes straight from the
/// arena.)
mod arena_serde {
    use super::{ExclusionList, ListArena};
    use serde::{Deserialize, Deserializer, Serialize, Serializer};

    pub fn serialize<S: Serializer>(a: &ListArena, s: S) -> Result<S::Ok, S::Error> {
        let cols: Vec<Vec<ExclusionList>> =
            (0..a.n_cols()).map(|c| a.col(c).iter().map(|l| l.to_owned()).collect()).collect();
        cols.serialize(s)
    }

    pub fn deserialize<'de, D: Deserializer<'de>>(d: D) -> Result<ListArena, D::Error> {
        let cols: Vec<Vec<ExclusionList>> = Deserialize::deserialize(d)?;
        Ok(ListArena::from_columns(&cols))
    }
}

/// Structure statistics of a [`Bst`] (see [`Bst::stats`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct BstStats {
    /// Total (class-sample, out-sample) pairs, `|C_i|·(|S|−|C_i|)`.
    pub pairs: usize,
    /// Distinct exclusion lists stored after per-column deduplication.
    pub unique_lists: usize,
    /// Total items across the distinct lists (the memory driver).
    pub list_items: usize,
    /// Items expressed by no out-of-class sample (all-● rows).
    pub black_dot_rows: usize,
    /// Pairs with an unsatisfiable empty list (cross-class duplicates).
    pub degenerate_pairs: usize,
    /// Bytes held by the interned list arena (items + entry tables).
    #[serde(default)]
    pub arena_bytes: usize,
}

/// A view of one BST cell.
#[derive(Clone, Debug, PartialEq)]
pub enum Cell<'a> {
    /// The sample does not express the item.
    Empty,
    /// The item is expressed only inside the class (● in Figure 1).
    BlackDot,
    /// Exclusion lists, one per out-sample expressing the item; each entry
    /// is `(local out-sample index, list)`.
    Lists(Vec<(usize, ExclusionListRef<'a>)>),
}

/// Byte budget for one block of out-sample bitsets during construction —
/// the PR 7 L2-residency idiom: the pair sweep walks out-samples in
/// blocks this large so a block stays cache-hot while every column of a
/// worker's chunk probes its intern table against it.
const BST_BLOCK_BYTES: usize = 1 << 20;

/// Splits the out-samples into contiguous blocks whose bitset bytes sum
/// to at most [`BST_BLOCK_BYTES`] (always at least one sample per block).
fn out_sample_blocks(out_expr_sets: &[BitSet]) -> Vec<std::ops::Range<usize>> {
    let mut blocks = Vec::new();
    let mut start = 0usize;
    let mut bytes = 0usize;
    for (h, set) in out_expr_sets.iter().enumerate() {
        let b = set.words().len() * 8;
        if h > start && bytes + b > BST_BLOCK_BYTES {
            blocks.push(start..h);
            start = h;
            bytes = 0;
        }
        bytes += b;
    }
    if start < out_expr_sets.len() {
        blocks.push(start..out_expr_sets.len());
    }
    blocks
}

/// FNV-1a over the live (non-zero) words of a difference bitset, with the
/// word index, the element count, and the sign folded in — the
/// materialize-free intern key: hashing happens on the packed words, so
/// no item vector exists unless the list turns out to be first-seen.
fn hash_diff(diff: &BitSet, len: usize, sign: Sign) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for (i, &w) in diff.words().iter().enumerate() {
        if w != 0 {
            h ^= i as u64;
            h = h.wrapping_mul(PRIME);
            h ^= w;
            h = h.wrapping_mul(PRIME);
        }
    }
    h ^= len as u64;
    h = h.wrapping_mul(PRIME);
    h ^= match sign {
        Sign::Neg => 1,
        Sign::Pos => 2,
    };
    h.wrapping_mul(PRIME)
}

/// Per-column intern state during construction: the column's slice of the
/// arena in flat form, plus the hash → entry probe table.
struct ColBuilder {
    items: Vec<ItemId>,
    offsets: Vec<usize>,
    signs: Vec<Sign>,
    /// Intern table: difference hash → candidate entry indices.
    table: HashMap<u64, Vec<u32>>,
    idx_row: Vec<u32>,
    /// Reused difference buffer (one per column, not one per pair).
    diff: BitSet,
}

impl ColBuilder {
    fn new(n_items: usize, n_out: usize) -> ColBuilder {
        ColBuilder {
            items: Vec::new(),
            offsets: vec![0],
            signs: Vec::new(),
            table: HashMap::new(),
            idx_row: Vec::with_capacity(n_out),
            diff: BitSet::new(n_items),
        }
    }

    /// Frees construction-only state (the probe table, the diff buffer)
    /// and trims the growth slack off the column's vectors, so a sealed
    /// column holds only its surviving lists while it queues for the
    /// merge. At sample scale the slack is hundreds of megabytes.
    fn seal(&mut self) {
        self.table = HashMap::new();
        self.diff = BitSet::new(0);
        self.items.shrink_to_fit();
        self.offsets.shrink_to_fit();
        self.signs.shrink_to_fit();
        self.idx_row.shrink_to_fit();
    }

    /// True if entry `e` holds exactly the current `diff` contents.
    /// Lengths are compared first, then stored items are membership-tested
    /// against the difference bitset — equal length + subset ⇒ equal set,
    /// so the test never materializes the difference.
    fn entry_matches(&self, e: usize, sign: Sign, len: usize) -> bool {
        if self.signs[e] != sign {
            return false;
        }
        let range = self.offsets[e]..self.offsets[e + 1];
        range.len() == len && self.items[range].iter().all(|&g| self.diff.contains(g))
    }

    /// Computes the (c, h) canonical list into the difference buffer and
    /// interns it: probe by in-place hash, materialize only on first
    /// sight, record the entry index for the pair.
    fn intern_pair(&mut self, c_set: &BitSet, h_set: &BitSet) {
        self.diff.assign_difference(h_set, c_set); // g ∈ h, g ∉ c
        let sign = if !self.diff.is_empty() {
            Sign::Neg
        } else {
            // The positive list may itself be empty (identical samples):
            // keep the unsatisfiable empty list and let validation warn.
            self.diff.assign_difference(c_set, h_set); // g ∈ c, g ∉ h
            Sign::Pos
        };
        let len = self.diff.len();
        let hash = hash_diff(&self.diff, len, sign);
        let found = self.table.get(&hash).and_then(|cands| {
            cands.iter().copied().find(|&e| self.entry_matches(e as usize, sign, len))
        });
        let idx = match found {
            Some(e) => e,
            None => {
                let e = self.signs.len() as u32;
                self.items.extend(self.diff.iter());
                self.offsets.push(self.items.len());
                self.signs.push(sign);
                self.table.entry(hash).or_default().push(e);
                e
            }
        };
        self.idx_row.push(idx);
    }
}

/// The interned, blocked construction core shared by every class build:
/// columns fan out over the [`pool::global`] lanes in contiguous chunks,
/// one chunk per lane; within a chunk the out-samples stream in
/// cache-sized blocks (block-outer, columns-inner), so one block's
/// bitsets stay hot while every column interns against it.
/// Per column, pairs are still visited in ascending `h` order, so entry
/// numbering (first-seen) is identical to the sequential legacy builder.
fn build_interned(
    class_expr: &[BitSet],
    out_expr_sets: &[BitSet],
    n_items: usize,
) -> (ListArena, Vec<Vec<u32>>) {
    let n_cols = class_expr.len();
    let blocks = out_sample_blocks(out_expr_sets);
    let pool = pool::global();
    let workers = pool.lanes().min(n_cols.max(1));
    let chunk = n_cols.div_ceil(workers);
    let ranges: Vec<std::ops::Range<usize>> = (0..workers)
        .map(|w| (w * chunk)..((w + 1) * chunk).min(n_cols))
        .filter(|r| !r.is_empty())
        .collect();
    let built: Vec<Vec<ColBuilder>> = pool.map(ranges.len(), |w| {
        let range = ranges[w].clone();
        let mut cols: Vec<ColBuilder> =
            range.clone().map(|_| ColBuilder::new(n_items, out_expr_sets.len())).collect();
        for block in &blocks {
            for (ci, c) in range.clone().enumerate() {
                let c_set = &class_expr[c];
                let col = &mut cols[ci];
                for h in block.clone() {
                    col.intern_pair(c_set, &out_expr_sets[h]);
                }
            }
        }
        for col in &mut cols {
            col.seal();
        }
        cols
    });

    let mut arena = ListArena::new();
    arena.reserve_exact(
        built.iter().flatten().map(|c| c.items.len()).sum(),
        built.iter().flatten().map(|c| c.signs.len()).sum(),
        n_cols,
    );
    let mut excl_idx = Vec::with_capacity(n_cols);
    // Columns are consumed (and their buffers freed) one at a time, so
    // the merge peaks at one arena plus a single column, not two arenas.
    for col in built.into_iter().flatten() {
        arena.push_column(&col.items, &col.offsets, &col.signs);
        excl_idx.push(col.idx_row);
    }
    (arena, excl_idx)
}

/// A Boolean Structure Table for one class.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Bst {
    class: ClassId,
    n_items: usize,
    /// Original ids of the class samples (BST columns), ascending.
    class_samples: Vec<SampleId>,
    /// Original ids of the out-of-class samples, ascending.
    out_samples: Vec<SampleId>,
    /// Item sets of the class samples (owned: the BST is self-contained).
    class_expr: Vec<BitSet>,
    /// Item sets of the out-of-class samples.
    out_expr_sets: Vec<BitSet>,
    /// Per class sample `c`: its distinct exclusion lists, interned into
    /// one flat arena. Different out-samples often induce the *same* list
    /// (they miss the same items of `c`); deduplicating them is the §8
    /// "culling" idea in its lossless form — BSTCE evaluates each
    /// distinct list once per query. Serialized in the historical
    /// `Vec<Vec<ExclusionList>>` gap-hex wire shape.
    #[serde(with = "arena_serde")]
    excl_unique: ListArena,
    /// `excl_idx[c][h]` = column-local entry index of the (c, h) list.
    excl_idx: Vec<Vec<u32>>,
    /// `out_expr[g]` = bitset over *local* out-sample indices expressing `g`.
    out_expr: Vec<BitSet>,
}

impl Bst {
    /// Builds the BST for `class` from a training dataset (Algorithm 1).
    ///
    /// Records its wall time as one `bst_build` span per class in
    /// [`obs::global`] (classes build one after another, so one
    /// training's spans sum to its build wall time),
    /// and adds to the `bstc_bst_pairs_total` /
    /// `bstc_bst_distinct_lists_total` / `bstc_bst_arena_bytes_total`
    /// process counters ([`obs::counters`]).
    ///
    /// # Panics
    /// Panics if `class` is out of range or has no samples.
    pub fn build(data: &BoolDataset, class: ClassId) -> Bst {
        let _stage = obs::Stage::enter("bst_build");
        assert!(class < data.n_classes(), "class {class} out of range");
        let class_samples: Vec<SampleId> = data.class_members(class);
        assert!(!class_samples.is_empty(), "class {class} has no samples");
        let out_samples: Vec<SampleId> =
            (0..data.n_samples()).filter(|&s| data.label(s) != class).collect();
        let n_items = data.n_items();

        let class_expr: Vec<BitSet> =
            class_samples.iter().map(|&s| data.sample(s).clone()).collect();
        let out_expr_sets: Vec<BitSet> =
            out_samples.iter().map(|&s| data.sample(s).clone()).collect();

        // Canonical exclusion list per (c, h) pair — Algorithm 1 lines
        // 9-21 — interned per column without materializing per-pair item
        // vectors. Output (entry order, indices) is identical to the
        // sequential legacy builder; see `build_interned`.
        let (excl_unique, excl_idx) = build_interned(&class_expr, &out_expr_sets, n_items);

        obs::counters()
            .add("bstc_bst_pairs_total", (class_samples.len() * out_samples.len()) as u64);
        obs::counters().add("bstc_bst_distinct_lists_total", excl_unique.n_lists() as u64);
        obs::counters().add("bstc_bst_arena_bytes_total", excl_unique.arena_bytes() as u64);

        // out_expr[g]: which out-samples express item g — Algorithm 1
        // line 6's black-dot test is `out_expr[g].is_empty()`.
        let mut out_expr: Vec<BitSet> =
            (0..n_items).map(|_| BitSet::new(out_expr_sets.len())).collect();
        for (h_local, h_set) in out_expr_sets.iter().enumerate() {
            for g in h_set.iter() {
                out_expr[g].insert(h_local);
            }
        }

        Bst {
            class,
            n_items,
            class_samples,
            out_samples,
            class_expr,
            out_expr_sets,
            excl_unique,
            excl_idx,
            out_expr,
        }
    }

    /// The pre-arena builder, frozen verbatim: materializes one item
    /// vector per (c, h) pair and dedups via a `HashMap` keyed by owned
    /// lists. Kept (hidden) as the reference for the differential
    /// property tests pinning [`Bst::build`] bit-identical to it; do not
    /// use it for real training — its peak memory scales with the pair
    /// count.
    #[doc(hidden)]
    pub fn build_legacy(data: &BoolDataset, class: ClassId) -> Bst {
        assert!(class < data.n_classes(), "class {class} out of range");
        let class_samples: Vec<SampleId> = data.class_members(class);
        assert!(!class_samples.is_empty(), "class {class} has no samples");
        let out_samples: Vec<SampleId> =
            (0..data.n_samples()).filter(|&s| data.label(s) != class).collect();
        let n_items = data.n_items();

        let class_expr: Vec<BitSet> =
            class_samples.iter().map(|&s| data.sample(s).clone()).collect();
        let out_expr_sets: Vec<BitSet> =
            out_samples.iter().map(|&s| data.sample(s).clone()).collect();

        let columns: Vec<(Vec<ExclusionList>, Vec<u32>)> = class_expr
            .iter()
            .map(|c_set| {
                let mut unique: Vec<ExclusionList> = Vec::new();
                let mut seen: HashMap<ExclusionList, u32> = HashMap::new();
                let mut idx_row = Vec::with_capacity(out_expr_sets.len());
                let mut diff = BitSet::new(n_items);
                for h_set in &out_expr_sets {
                    diff.assign_difference(h_set, c_set); // g ∈ h, g ∉ c
                    let list = if !diff.is_empty() {
                        ExclusionList { sign: Sign::Neg, items: diff.to_vec() }
                    } else {
                        diff.assign_difference(c_set, h_set); // g ∈ c, g ∉ h
                        ExclusionList { sign: Sign::Pos, items: diff.to_vec() }
                    };
                    let idx = *seen.entry(list.clone()).or_insert_with(|| {
                        unique.push(list);
                        (unique.len() - 1) as u32
                    });
                    idx_row.push(idx);
                }
                (unique, idx_row)
            })
            .collect();
        let (cols, excl_idx): (Vec<_>, Vec<_>) = columns.into_iter().unzip();
        let excl_unique = ListArena::from_columns(&cols);

        let mut out_expr: Vec<BitSet> =
            (0..n_items).map(|_| BitSet::new(out_expr_sets.len())).collect();
        for (h_local, h_set) in out_expr_sets.iter().enumerate() {
            for g in h_set.iter() {
                out_expr[g].insert(h_local);
            }
        }

        Bst {
            class,
            n_items,
            class_samples,
            out_samples,
            class_expr,
            out_expr_sets,
            excl_unique,
            excl_idx,
            out_expr,
        }
    }

    /// Builds BSTs for every class of the dataset (the classifier's
    /// training step). Total cost `O(|S|²·|G|)` per §3.1.1.
    ///
    /// Classes are built one after another; the parallelism lives inside
    /// [`Bst::build`], which spreads each class's columns over the pool.
    pub fn build_all(data: &BoolDataset) -> Vec<Bst> {
        (0..data.n_classes()).map(|c| Bst::build(data, c)).collect()
    }

    /// The class this table describes.
    pub fn class(&self) -> ClassId {
        self.class
    }

    /// Number of items (table rows), `|G|`.
    pub fn n_items(&self) -> usize {
        self.n_items
    }

    /// Number of class samples (table columns), `|C_i|`.
    pub fn n_class_samples(&self) -> usize {
        self.class_samples.len()
    }

    /// Number of out-of-class samples, `|S| − |C_i|`.
    pub fn n_out_samples(&self) -> usize {
        self.out_samples.len()
    }

    /// Original sample id of local class column `c`.
    pub fn class_sample_id(&self, c: usize) -> SampleId {
        self.class_samples[c]
    }

    /// Original sample id of local out-sample index `h`.
    pub fn out_sample_id(&self, h: usize) -> SampleId {
        self.out_samples[h]
    }

    /// Item set of local class column `c`.
    pub fn class_sample_items(&self, c: usize) -> &BitSet {
        &self.class_expr[c]
    }

    /// Item set of local out-sample `h`.
    pub fn out_sample_items(&self, h: usize) -> &BitSet {
        &self.out_expr_sets[h]
    }

    /// True if item `g` is expressed by no out-of-class sample — i.e. every
    /// non-empty (g, ·) cell is a black dot.
    pub fn is_black_dot_row(&self, g: ItemId) -> bool {
        self.out_expr[g].is_empty()
    }

    /// Local out-sample indices expressing item `g`.
    pub fn out_expressing(&self, g: ItemId) -> &BitSet {
        &self.out_expr[g]
    }

    /// The canonical exclusion list of the (c, h) pair (local indices),
    /// borrowed from the arena.
    pub fn exclusion_list(&self, c: usize, h: usize) -> ExclusionListRef<'_> {
        self.excl_unique.list(c, self.excl_idx[c][h] as usize)
    }

    /// The distinct exclusion lists of column `c` (different out-samples
    /// often induce identical lists; BSTCE evaluates each distinct list
    /// once per query).
    pub fn unique_exclusion_lists(&self, c: usize) -> ColumnLists<'_> {
        self.excl_unique.col(c)
    }

    /// Index of the (c, h) pair's list within
    /// [`Bst::unique_exclusion_lists`]`(c)`.
    pub fn exclusion_list_index(&self, c: usize, h: usize) -> usize {
        self.excl_idx[c][h] as usize
    }

    /// The (g, c) cell (local column index).
    pub fn cell(&self, g: ItemId, c: usize) -> Cell<'_> {
        if !self.class_expr[c].contains(g) {
            return Cell::Empty;
        }
        if self.out_expr[g].is_empty() {
            return Cell::BlackDot;
        }
        Cell::Lists(self.out_expr[g].iter().map(|h| (h, self.exclusion_list(c, h))).collect())
    }

    /// The atomic 100 %-confident cell rule of a non-empty (g, c) cell
    /// (§3.2): `g AND (clauses for every h expressing g) ⇒ class`.
    /// Returns `None` for empty cells.
    pub fn cell_rule(&self, g: ItemId, c: usize) -> Option<Bar> {
        match self.cell(g, c) {
            Cell::Empty => None,
            Cell::BlackDot => Some(Bar {
                antecedent: BarAntecedent { car_items: vec![g], disjuncts: vec![vec![]] },
                class: self.class,
            }),
            Cell::Lists(lists) => {
                let clauses: Vec<ExclusionClause> = lists
                    .into_iter()
                    .map(|(h, list)| list.to_clause(self.out_samples[h]))
                    .collect();
                Some(Bar {
                    antecedent: BarAntecedent { car_items: vec![g], disjuncts: vec![clauses] },
                    class: self.class,
                })
            }
        }
    }

    /// Local class-sample indices whose column has a non-empty (g, ·) cell —
    /// the support of the g-row BAR (samples expressing `g`).
    pub fn row_support(&self, g: ItemId) -> BitSet {
        let mut s = BitSet::new(self.class_expr.len());
        for (c, set) in self.class_expr.iter().enumerate() {
            if set.contains(g) {
                s.insert(c);
            }
        }
        s
    }

    /// (c, h) pairs with an unsatisfiable empty exclusion list — i.e. a
    /// class sample identical to an out-of-class sample. Theorem 2 assumes
    /// none exist; classification still works but those pairs can never be
    /// distinguished.
    pub fn degenerate_pairs(&self) -> Vec<(SampleId, SampleId)> {
        let mut v = Vec::new();
        for (c, row) in self.excl_idx.iter().enumerate() {
            for (h, &idx) in row.iter().enumerate() {
                if self.excl_unique.list(c, idx as usize).items.is_empty() {
                    v.push((self.class_samples[c], self.out_samples[h]));
                }
            }
        }
        v
    }

    /// Structure statistics: list counts, dedup ratio, black-dot rows,
    /// arena footprint.
    pub fn stats(&self) -> BstStats {
        let pairs = self.class_samples.len() * self.out_samples.len();
        BstStats {
            pairs,
            unique_lists: self.excl_unique.n_lists(),
            list_items: self.excl_unique.total_items(),
            black_dot_rows: (0..self.n_items).filter(|&g| self.out_expr[g].is_empty()).count(),
            degenerate_pairs: self.degenerate_pairs().len(),
            arena_bytes: self.excl_unique.arena_bytes(),
        }
    }

    /// Checks the shape invariants that [`Bst::build`] guarantees and
    /// every accessor, the compiled lowering and BSTCE rely on, for a
    /// table that arrived by deserialization: set capacities and word
    /// counts, arena item ids below `n_items`, and an `excl_idx` with one
    /// in-range entry per (class sample, out-sample) pair. A table that
    /// fails would panic later, on first use; this turns that into an
    /// error at load.
    ///
    /// # Errors
    /// Describes the first violated invariant.
    pub(crate) fn check_structure(&self) -> Result<(), String> {
        let class = self.class;
        let n_cols = self.class_samples.len();
        let n_out = self.out_samples.len();
        let sets_ok = |sets: &[BitSet], len: usize, capacity: usize| {
            sets.len() == len && sets.iter().all(|s| s.capacity() == capacity && s.is_well_formed())
        };
        if !sets_ok(&self.class_expr, n_cols, self.n_items) {
            return Err(format!(
                "class {class}: class_expr must hold {n_cols} well-formed sets of {} items",
                self.n_items
            ));
        }
        if !sets_ok(&self.out_expr_sets, n_out, self.n_items) {
            return Err(format!(
                "class {class}: out_expr_sets must hold {n_out} well-formed sets of {} items",
                self.n_items
            ));
        }
        if !sets_ok(&self.out_expr, self.n_items, n_out) {
            return Err(format!(
                "class {class}: out_expr must hold {} well-formed sets of {n_out} out-samples",
                self.n_items
            ));
        }
        if self.excl_unique.n_cols() != n_cols {
            return Err(format!(
                "class {class}: {} exclusion-list columns for {n_cols} class samples",
                self.excl_unique.n_cols()
            ));
        }
        if let Some(&id) = self.excl_unique.items.iter().find(|&&id| id >= self.n_items) {
            return Err(format!(
                "class {class}: exclusion-list item {id} is out of range 0..{}",
                self.n_items
            ));
        }
        if self.excl_idx.len() != n_cols {
            return Err(format!(
                "class {class}: excl_idx has {} rows for {n_cols} class samples",
                self.excl_idx.len()
            ));
        }
        for (c, row) in self.excl_idx.iter().enumerate() {
            let n_lists = self.excl_unique.col(c).len();
            if row.len() != n_out {
                return Err(format!(
                    "class {class}: excl_idx row {c} has {} entries for {n_out} out-samples",
                    row.len()
                ));
            }
            if let Some(&u) = row.iter().find(|&&u| u as usize >= n_lists) {
                return Err(format!(
                    "class {class}: excl_idx row {c} names list {u} but the column has {n_lists}"
                ));
            }
        }
        Ok(())
    }

    /// Streams this BST's canonical compact JSON — byte-identical to
    /// `serde_json::to_string(self)` — into an `io::Write` without
    /// building the serde shim's in-memory `Content` tree.
    ///
    /// The bytes are encoded without `core::fmt` by `json_enc`: numbers
    /// and gap-hex lists are appended to one reusable buffer that
    /// reaches `w` in bounded chunks (one `write_all` per ~64 KiB), so no
    /// model-sized buffer is ever held. On the `train-tall` benchmark
    /// shape (`perfbench --workload train-tall --seed 1 --trace 1`, a
    /// 70 MB model, 2-vCPU host) `bst.write_ms` fell from 527 ms per op,
    /// with one `write!` per number, to 79 ms.
    ///
    /// # Errors
    /// Returns the first error `w` reports; what was written before it
    /// is left in `w`.
    pub fn write_json_to<W: io::Write>(&self, w: &mut W) -> io::Result<()> {
        fn bitset_seq<W: io::Write>(
            buf: &mut Vec<u8>,
            w: &mut W,
            sets: &[BitSet],
        ) -> io::Result<()> {
            buf.push(b'[');
            for (i, s) in sets.iter().enumerate() {
                if i > 0 {
                    buf.push(b',');
                }
                buf.extend_from_slice(b"{\"capacity\":");
                push_dec(buf, s.capacity() as u64);
                buf.extend_from_slice(b",\"words\":");
                push_dec_seq(buf, s.words().iter().copied());
                buf.push(b'}');
                spill(buf, w)?;
            }
            buf.push(b']');
            Ok(())
        }

        let mut buf = Vec::with_capacity(FLUSH_BYTES);
        let b = &mut buf;
        b.extend_from_slice(b"{\"class\":");
        push_dec(b, self.class as u64);
        b.extend_from_slice(b",\"n_items\":");
        push_dec(b, self.n_items as u64);
        b.extend_from_slice(b",\"class_samples\":");
        push_dec_seq(b, self.class_samples.iter().map(|&s| s as u64));
        b.extend_from_slice(b",\"out_samples\":");
        push_dec_seq(b, self.out_samples.iter().map(|&s| s as u64));
        b.extend_from_slice(b",\"class_expr\":");
        bitset_seq(b, w, &self.class_expr)?;
        b.extend_from_slice(b",\"out_expr_sets\":");
        bitset_seq(b, w, &self.out_expr_sets)?;
        b.extend_from_slice(b",\"excl_unique\":[");
        for c in 0..self.excl_unique.n_cols() {
            b.extend_from_slice(if c > 0 { b",[" } else { b"[" });
            for (u, list) in self.excl_unique.col(c).iter().enumerate() {
                if u > 0 {
                    b.push(b',');
                }
                b.extend_from_slice(match list.sign {
                    Sign::Neg => b"{\"sign\":\"Neg\",\"items\":\"",
                    Sign::Pos => b"{\"sign\":\"Pos\",\"items\":\"",
                });
                push_gap_hex(b, list.items);
                b.extend_from_slice(b"\"}");
                spill(b, w)?;
            }
            b.push(b']');
        }
        b.extend_from_slice(b"],\"excl_idx\":[");
        for (c, row) in self.excl_idx.iter().enumerate() {
            if c > 0 {
                b.push(b',');
            }
            push_dec_seq(b, row.iter().map(|&u| u as u64));
            spill(b, w)?;
        }
        b.extend_from_slice(b"],\"out_expr\":");
        bitset_seq(b, w, &self.out_expr)?;
        b.push(b'}');
        w.write_all(&buf)
    }

    /// Renders the table in the style of Figure 1 (items as rows, class
    /// samples as columns) for small datasets; intended for examples and
    /// debugging.
    pub fn render(&self, data: &BoolDataset) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "BST for class {} ({} items x {} samples)",
            data.class_names()[self.class],
            self.n_items,
            self.class_samples.len()
        );
        for g in 0..self.n_items {
            let _ = write!(s, "{:>8} |", data.item_names()[g]);
            for c in 0..self.class_samples.len() {
                let cell = match self.cell(g, c) {
                    Cell::Empty => String::new(),
                    Cell::BlackDot => "●".to_string(),
                    Cell::Lists(lists) => lists
                        .iter()
                        .map(|(h, list)| {
                            let names = list
                                .items
                                .iter()
                                .map(|&g| {
                                    let n = &data.item_names()[g];
                                    match list.sign {
                                        Sign::Neg => format!("-{n}"),
                                        Sign::Pos => n.clone(),
                                    }
                                })
                                .collect::<Vec<_>>()
                                .join(",");
                            format!("(s{}:{})", self.out_samples[*h] + 1, names)
                        })
                        .collect::<Vec<_>>()
                        .join(" "),
                };
                let _ = write!(s, " {cell:<28}|");
            }
            let _ = writeln!(s);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use microarray::fixtures::table1;

    /// Builds the Cancer BST of Figure 1.
    fn cancer_bst() -> (BoolDataset, Bst) {
        let d = table1();
        let bst = Bst::build(&d, 0);
        (d, bst)
    }

    #[test]
    fn shape_matches_figure_1() {
        let (_, bst) = cancer_bst();
        assert_eq!(bst.class(), 0);
        assert_eq!(bst.n_items(), 6);
        assert_eq!(bst.n_class_samples(), 3);
        assert_eq!(bst.n_out_samples(), 2);
        assert_eq!(bst.class_sample_id(0), 0); // s1
        assert_eq!(bst.out_sample_id(0), 3); // s4
    }

    #[test]
    fn g1_row_is_black_dots() {
        // Figure 1: g1 is expressed by s1, s2 and by no Healthy sample.
        let (_, bst) = cancer_bst();
        assert!(bst.is_black_dot_row(0));
        assert_eq!(bst.cell(0, 0), Cell::BlackDot);
        assert_eq!(bst.cell(0, 1), Cell::BlackDot);
        assert_eq!(bst.cell(0, 2), Cell::Empty); // s3 does not express g1
    }

    #[test]
    fn exclusion_lists_match_figure_1() {
        let (_, bst) = cancer_bst();
        // (s1, s4): Alg 1 falls through to the positive list {g1}.
        assert_eq!(bst.exclusion_list(0, 0), ExclusionList { sign: Sign::Pos, items: vec![0] });
        // (s1, s5): negative list {-g4, -g6}.
        assert_eq!(bst.exclusion_list(0, 1), ExclusionList { sign: Sign::Neg, items: vec![3, 5] });
        // (s2, s4): {-g2, -g5}.
        assert_eq!(bst.exclusion_list(1, 0), ExclusionList { sign: Sign::Neg, items: vec![1, 4] });
        // (s2, s5): {-g4, -g5}.
        assert_eq!(bst.exclusion_list(1, 1), ExclusionList { sign: Sign::Neg, items: vec![3, 4] });
        // (s3, s4): {-g3, -g5}.
        assert_eq!(bst.exclusion_list(2, 0), ExclusionList { sign: Sign::Neg, items: vec![2, 4] });
        // (s3, s5): {-g3, -g5}.
        assert_eq!(bst.exclusion_list(2, 1), ExclusionList { sign: Sign::Neg, items: vec![2, 4] });
    }

    #[test]
    fn g3_s1_cell_matches_figure_1() {
        // The (g3, s1) cell holds both Healthy exclusion lists:
        // (s4: g1) and (s5: -g4, -g6).
        let (_, bst) = cancer_bst();
        match bst.cell(2, 0) {
            Cell::Lists(lists) => {
                assert_eq!(lists.len(), 2);
                assert_eq!(lists[0].0, 0); // s4
                assert_eq!(lists[0].1, ExclusionList { sign: Sign::Pos, items: vec![0] });
                assert_eq!(lists[1].0, 1); // s5
                assert_eq!(lists[1].1, ExclusionList { sign: Sign::Neg, items: vec![3, 5] });
            }
            other => panic!("expected lists, got {other:?}"),
        }
    }

    #[test]
    fn g3_s1_cell_rule_matches_section_3_2() {
        // "g3 expressed AND g1 expressed AND (either g4 or g6 not
        // expressed) ⇒ Cancer" — 100% confident, supported by s1.
        let (d, bst) = cancer_bst();
        let rule = bst.cell_rule(2, 0).unwrap();
        assert_eq!(rule.confidence(&d), Some(1.0));
        let supp = rule.support_set(&d);
        assert!(supp.contains(&0), "supported by s1: {supp:?}");
        // s1 satisfies it; s4/s5 (Healthy) must not.
        assert!(rule.antecedent.eval(d.sample(0)));
        assert!(!rule.antecedent.eval(d.sample(3)));
        assert!(!rule.antecedent.eval(d.sample(4)));
    }

    #[test]
    fn all_cell_rules_are_100_percent_confident() {
        // §3.2: every atomic cell rule has confidence 1 and is supported by
        // its own sample.
        let d = table1();
        for class in 0..2 {
            let bst = Bst::build(&d, class);
            for g in 0..d.n_items() {
                for c in 0..bst.n_class_samples() {
                    if let Some(rule) = bst.cell_rule(g, c) {
                        assert_eq!(
                            rule.confidence(&d),
                            Some(1.0),
                            "cell ({g},{c}) of class {class} not 100% confident"
                        );
                        assert!(
                            rule.antecedent.eval(d.sample(bst.class_sample_id(c))),
                            "cell ({g},{c}) not supported by its own sample"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn row_support_is_expressing_samples() {
        let (_, bst) = cancer_bst();
        assert_eq!(bst.row_support(0).to_vec(), vec![0, 1]); // g1: s1, s2
        assert_eq!(bst.row_support(1).to_vec(), vec![0, 2]); // g2: s1, s3
        assert_eq!(bst.row_support(2).to_vec(), vec![0, 1]); // g3: s1, s2
        assert_eq!(bst.row_support(3).to_vec(), vec![2]); // g4: s3
        assert_eq!(bst.row_support(5).to_vec(), vec![1, 2]); // g6: s2, s3
    }

    #[test]
    fn healthy_bst_exclusion_lists() {
        let d = table1();
        let bst = Bst::build(&d, 1);
        assert_eq!(bst.n_class_samples(), 2);
        assert_eq!(bst.n_out_samples(), 3);
        // (s4, s1): {g : g ∈ s1, g ∉ s4} = {g1} → negative list.
        assert_eq!(bst.exclusion_list(0, 0), ExclusionList { sign: Sign::Neg, items: vec![0] });
        // (s5, s3): s3 \ s5 = {g2} → negative.
        assert_eq!(bst.exclusion_list(1, 2), ExclusionList { sign: Sign::Neg, items: vec![1] });
        // No black dots in the Healthy BST.
        for g in 0..6 {
            assert!(!bst.is_black_dot_row(g) || bst.row_support(g).is_empty());
        }
    }

    #[test]
    fn identical_lists_are_deduplicated_per_column() {
        // In Figure 1, the (s3, s4) and (s3, s5) pairs both produce
        // (-g3, -g5): column s3 stores one distinct list for two pairs.
        let (_, bst) = cancer_bst();
        assert_eq!(bst.unique_exclusion_lists(2).len(), 1);
        assert_eq!(bst.exclusion_list_index(2, 0), bst.exclusion_list_index(2, 1));
        // Columns s1/s2 have two distinct lists each.
        assert_eq!(bst.unique_exclusion_lists(0).len(), 2);
        assert_eq!(bst.unique_exclusion_lists(1).len(), 2);
        // Accessor equality is unaffected.
        assert_eq!(bst.exclusion_list(2, 0), bst.exclusion_list(2, 1));
    }

    #[test]
    fn degenerate_duplicate_across_classes_is_flagged() {
        let items = vec!["g1".into(), "g2".into()];
        let classes = vec!["A".into(), "B".into()];
        let samples = vec![
            BitSet::from_iter(2, [0, 1]),
            BitSet::from_iter(2, [0, 1]), // identical, different class
            BitSet::from_iter(2, [0]),
        ];
        let d = BoolDataset::new(items, classes, samples, vec![0, 1, 1]).unwrap();
        let bst = Bst::build(&d, 0);
        assert_eq!(bst.degenerate_pairs(), vec![(0, 1)]);
        // The degenerate cell rule exists but is unsatisfiable for any query.
        let rule = bst.cell_rule(0, 0).unwrap();
        assert!(!rule.antecedent.eval(d.sample(0)));
    }

    #[test]
    fn no_degenerate_pairs_in_table1() {
        let (_, bst) = cancer_bst();
        assert!(bst.degenerate_pairs().is_empty());
    }

    #[test]
    fn build_all_covers_every_class() {
        let d = table1();
        let bsts = Bst::build_all(&d);
        assert_eq!(bsts.len(), 2);
        assert_eq!(bsts[0].class(), 0);
        assert_eq!(bsts[1].class(), 1);
    }

    #[test]
    fn stats_reflect_figure_1() {
        let (_, bst) = cancer_bst();
        let st = bst.stats();
        assert_eq!(st.pairs, 6); // 3 class x 2 out samples
        assert_eq!(st.unique_lists, 5); // (s3,*) pair deduped
        assert_eq!(st.black_dot_rows, 1); // g1
        assert_eq!(st.degenerate_pairs, 0);
        assert!(st.list_items >= 5);
        assert!(st.arena_bytes > 0);
        assert!(st.arena_bytes >= st.list_items * std::mem::size_of::<ItemId>());
    }

    #[test]
    fn interned_build_matches_the_frozen_legacy_builder() {
        // Full structural equality — arena contents, entry order, pair
        // indices, out_expr — on both Figure 1 classes.
        let d = table1();
        for class in 0..2 {
            assert_eq!(Bst::build(&d, class), Bst::build_legacy(&d, class), "class {class}");
        }
    }

    #[test]
    fn arena_round_trips_through_from_columns() {
        let (_, bst) = cancer_bst();
        let cols: Vec<Vec<ExclusionList>> = (0..bst.n_class_samples())
            .map(|c| bst.unique_exclusion_lists(c).iter().map(|l| l.to_owned()).collect())
            .collect();
        let rebuilt = ListArena::from_columns(&cols);
        assert_eq!(rebuilt, bst.excl_unique);
        assert_eq!(rebuilt.arena_bytes(), bst.excl_unique.arena_bytes());
    }

    #[test]
    fn render_mentions_black_dot_and_lists() {
        let (d, bst) = cancer_bst();
        let text = bst.render(&d);
        assert!(text.contains('●'));
        assert!(text.contains("(s5:-g4,-g6)"), "{text}");
        assert!(text.contains("(s4:g1)"), "{text}");
    }

    #[test]
    fn exclusion_list_items_use_the_gap_hex_wire_form() {
        let list = ExclusionList { sign: Sign::Neg, items: vec![3, 10, 11, 255] };
        let json = serde_json::to_string(&list).unwrap();
        // [3, 10, 11, 255] → first id 0x3, then gaps 0x7, 0x1, 0xf4.
        assert!(json.contains("\"3,7,1,f4\""), "{json}");
        let back: ExclusionList = serde_json::from_str(&json).unwrap();
        assert_eq!(back, list);
    }

    #[test]
    fn gap_hex_round_trips_empty_and_single_item_lists() {
        for items in [vec![], vec![0], vec![0, 1], vec![4096]] {
            let list = ExclusionList { sign: Sign::Pos, items };
            let json = serde_json::to_string(&list).unwrap();
            let back: ExclusionList = serde_json::from_str(&json).unwrap();
            assert_eq!(back, list, "{json}");
        }
    }

    #[test]
    fn gap_hex_rejects_malformed_and_non_ascending_input() {
        for bad in ["\"zz\"", "\"3,,1\"", "\"3,0\"", "\"3,-1\""] {
            let json = format!("{{\"sign\":\"Neg\",\"items\":{bad}}}");
            assert!(serde_json::from_str::<ExclusionList>(&json).is_err(), "accepted {bad}");
        }
    }

    #[test]
    fn bst_serde_wire_shape_is_the_legacy_nested_list_form() {
        // The arena must serialize exactly as the historical
        // Vec<Vec<ExclusionList>> field did: per-column arrays of
        // {"sign":...,"items":"<gap-hex>"} maps, in intern order.
        let (_, bst) = cancer_bst();
        let json = serde_json::to_string(&bst).unwrap();
        assert!(json.contains("\"excl_unique\":[[{\"sign\":\"Pos\",\"items\":\"0\"}"), "{json}");
        let back: Bst = serde_json::from_str(&json).unwrap();
        assert_eq!(back, bst);
    }

    #[test]
    fn check_structure_refuses_each_kind_of_tampered_table() {
        let (_, bst) = cancer_bst();
        bst.check_structure().unwrap();
        let json = serde_json::to_string(&bst).unwrap();
        // (what, original text, tampered text, expected error fragment)
        let tampers = [
            ("item id", "\"items\":\"0\"", "\"items\":\"6\"", "item 6 is out of range 0..6"),
            ("excl_idx entry", "\"excl_idx\":[[0,1]", "\"excl_idx\":[[0,2]", "names list 2"),
            ("excl_idx row", "\"excl_idx\":[[0,1]", "\"excl_idx\":[[0,1,0]", "has 3 entries"),
            ("stray bit", "\"words\":[23]", "\"words\":[87]", "class_expr must hold"),
            (
                "word count",
                "\"capacity\":6,\"words\":[23]",
                "\"capacity\":65,\"words\":[23]",
                "class_expr",
            ),
            ("n_items", "\"n_items\":6", "\"n_items\":7", "class_expr must hold 3"),
        ];
        for (what, from, to, expected) in tampers {
            assert!(json.contains(from), "{what}: fixture JSON lacks {from}");
            let tampered: Bst = serde_json::from_str(&json.replacen(from, to, 1))
                .unwrap_or_else(|e| panic!("{what}: {e}"));
            let e = tampered.check_structure().expect_err(what);
            assert!(e.contains(expected), "{what}: {e}");
        }
    }

    #[test]
    fn streaming_json_is_byte_identical_to_the_tree_serializer() {
        let d = table1();
        for class in 0..2 {
            let bst = Bst::build(&d, class);
            let mut streamed = Vec::new();
            bst.write_json_to(&mut streamed).unwrap();
            assert_eq!(
                String::from_utf8(streamed).unwrap(),
                serde_json::to_string(&bst).unwrap(),
                "class {class}"
            );
        }
    }

    /// A canonical BST text whose fields sit on the encoder's edges: hex
    /// gaps and first ids at nibble boundaries (`f`/`10`, `ff`/`100`,
    /// `fff`/`1000`), a first id of 0, single-item lists, an empty `Pos`
    /// and the unsatisfiable empty `Neg` list, words of 0 and
    /// `u64::MAX`, and decimals at 9/10 and 99/100.
    const EDGE_BST_JSON: &str = concat!(
        r#"{"class":1,"n_items":8736,"class_samples":[9,10],"out_samples":[0,99,100],"#,
        r#""class_expr":[{"capacity":128,"words":[0,18446744073709551615]},"#,
        r#"{"capacity":64,"words":[9]}],"#,
        r#""out_expr_sets":[{"capacity":64,"words":[10]},{"capacity":64,"words":[99]},"#,
        r#"{"capacity":64,"words":[100]}],"#,
        r#""excl_unique":[[{"sign":"Neg","items":"0,f,10,ff,100,fff,1000"},"#,
        r#"{"sign":"Neg","items":"f"},{"sign":"Pos","items":"10"},{"sign":"Neg","items":"ff"},"#,
        r#"{"sign":"Pos","items":"100"},{"sign":"Neg","items":"fff"},"#,
        r#"{"sign":"Pos","items":"1000"},{"sign":"Pos","items":""},"#,
        r#"{"sign":"Neg","items":""},{"sign":"Pos","items":"5"}],"#,
        r#"[{"sign":"Neg","items":"9,1"},{"sign":"Pos","items":"a,f,10"}]],"#,
        r#""excl_idx":[[9,0,8],[1,0,1]],"#,
        r#""out_expr":[{"capacity":3,"words":[0]},{"capacity":3,"words":[7]}]}"#,
    );

    #[test]
    fn streaming_json_matches_the_tree_serializer_at_encoder_edges() {
        let bst: Bst = serde_json::from_str(EDGE_BST_JSON).unwrap();
        let mut streamed = Vec::new();
        bst.write_json_to(&mut streamed).unwrap();
        let tree = serde_json::to_string(&bst).unwrap();
        assert_eq!(String::from_utf8(streamed).unwrap(), tree);
        // The fixture is canonical, so the shared encoder must also
        // reproduce it: this checks the digits, not just agreement.
        assert_eq!(tree, EDGE_BST_JSON);
    }

    /// Accepts `left` bytes, then fails every write, counting them.
    struct FailAfter {
        left: usize,
        refused: usize,
    }

    impl io::Write for FailAfter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if self.left == 0 {
                self.refused += 1;
                return Err(io::Error::other("sink full"));
            }
            let n = buf.len().min(self.left);
            self.left -= n;
            Ok(n)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn streaming_json_returns_the_sink_error_wherever_it_hits() {
        let data = microarray::synth::BoolSynthConfig {
            name: "failing-sink".into(),
            n_items: 300,
            class_sizes: vec![40, 60],
            class_names: vec!["a".into(), "b".into()],
            markers_per_class: 30,
            marker_on: 0.9,
            background_on: 0.15,
            seed: 3,
        }
        .generate();
        let bst = Bst::build(&data, 0);
        let mut full = Vec::new();
        bst.write_json_to(&mut full).unwrap();
        let total = full.len();
        let flush = crate::json_enc::FLUSH_BYTES;
        assert!(total > 2 * flush, "fixture must span several flushes, got {total} B");
        // 1000 fails inside the first flush's `write_all`.
        for left in [0, 1, 1000, flush - 1, flush, flush + 1, 2 * flush + 7, total - 1] {
            let mut sink = FailAfter { left, refused: 0 };
            let e = bst.write_json_to(&mut sink).expect_err("short sink");
            assert_eq!(e.to_string(), "sink full", "after {left} B");
            // The first refusal ends the write.
            assert_eq!(sink.refused, 1, "after {left} B");
        }
        let mut sink = FailAfter { left: total, refused: 0 };
        bst.write_json_to(&mut sink).expect("exactly enough room");
    }

    #[test]
    fn out_sample_blocks_cover_every_sample_in_order() {
        let sets: Vec<BitSet> = (0..7).map(|_| BitSet::new(64)).collect();
        let blocks = out_sample_blocks(&sets);
        let flat: Vec<usize> = blocks.iter().flat_map(|r| r.clone()).collect();
        assert_eq!(flat, (0..7).collect::<Vec<_>>());
        // Huge sets still get at least one sample per block.
        let big: Vec<BitSet> = (0..3).map(|_| BitSet::new(BST_BLOCK_BYTES * 8 * 2)).collect();
        let blocks = out_sample_blocks(&big);
        assert_eq!(blocks.len(), 3);
    }
}
