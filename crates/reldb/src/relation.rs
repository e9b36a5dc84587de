//! Relations with set semantics, stored columnar-flat.
//!
//! A [`Relation`] is a named set of tuples over a fixed set of attributes.
//! Attributes are hypergraph nodes ([`NodeId`]), so a relation corresponds
//! directly to one "object" (hyperedge) of the paper's universal-relation
//! model.
//!
//! # Storage layout
//!
//! Values are interned once into a shared [`ValuePool`]; a stored tuple is a
//! fixed-width row of `u32` handles laid out in the relation's schema
//! attribute order (ascending [`NodeId`]), and all rows live in one
//! contiguous `Vec<u32>` buffer.  Set semantics are enforced by an
//! open-addressing hash index over the rows that only insertion builds (see
//! *Set semantics* below).  The relational kernels —
//! [`Relation::join`], [`Relation::semijoin`], [`Relation::project`] —
//! resolve attribute positions once per call and then work purely on handle
//! rows: no `Value` is cloned, hashed or compared on the hot path.
//!
//! Every binary kernel sees its two operands in one pool.  An operand from
//! another pool is brought over once, at the kernel's door: a join
//! re-interns it (its output needs the other side's values), a semijoin or
//! a contents comparison reads a translated copy that interns nothing
//! (`Relation::read_in`).  Relations of one [`Database`](crate::Database)
//! share a pool, so no served query takes either path.
//!
//! # Semijoin kernels
//!
//! Every semijoin computes a keep-mask first and moves rows only once the
//! mask is complete.  The inputs alone choose the mask kernel: **dense** — a
//! direct-address bitset over the packed handle key space — whenever that
//! space fits (`pool.len()^k` at most eight bits per input row, i.e. the
//! bitset never outweighs one byte per row it serves; wider or overflowing
//! key spaces would cost more to zero and miss in cache than the sort they
//! replace), else **sort-merge**.  A join has one kernel, hash build + probe.
//!
//! # Set semantics
//!
//! Invariant: stored rows are pairwise distinct; join, semijoin, identity
//! projection, re-interning and snapshot load preserve it by construction;
//! only insertion and proper projection check it.  A join output row
//! determines the pair of input rows it came from, a semijoin keeps a
//! subset, an identity projection keeps everything, re-interning is a
//! bijection on values and a snapshot was written from a live relation — so
//! those kernels append rows without hashing them (`push_distinct_row`).
//!
//! One rule governs the dedup index: only insertion builds it.
//! [`Relation::insert`] and [`Relation::insert_values`] build it, sized for
//! the rows present, when it is absent, and keep it from then on.  Every
//! other way rows come into being or change — a kernel's output, a
//! semijoin's compaction, a snapshot load — leaves it absent; until the
//! next insertion [`Relation::contains`] is a row scan.  A
//! [`Relation::project`] that drops a column, and the cross-pool copy
//! `read_in` makes (a projection too), deduplicate through a table of
//! their own, sized once for their input and dropped with it.
//!
//! [`Tuple`] remains the boundary type for building and reading individual
//! tuples; it is decoded from / encoded into rows only at the edges.

use crate::exec::ExecCtx;
use crate::govern::{unfail, EngineError, Governor, NoopGovernor, CHECK_BATCH};
use crate::metrics::{Kernel, MetricsSink, NoopMetrics, OpKind, OpMetrics};
use crate::pool::{ValuePool, NO_HANDLE};
use crate::value::Value;
use hypergraph::{NodeId, NodeSet, Universe};
use std::borrow::Cow;
use std::fmt;

/// What a semijoin mask kernel did, reported alongside the mask so metered
/// callers can assemble one semijoin [`OpMetrics`] record.
struct MaskStats {
    /// The physical kernel that ran: dense or sort-merge.
    kernel: Kernel,
    /// Build-side structure entries (distinct keys set or deduped).
    built: usize,
    /// Build-side (other relation) input rows.
    build_rows: usize,
}

/// A tuple: an assignment of values to attributes.
///
/// This is the *exchange* representation used to build and inspect
/// relations; inside a [`Relation`] tuples are stored as flat interned rows.
/// Pairs are kept sorted by attribute, matching the relation column order.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Tuple {
    pairs: Vec<(NodeId, Value)>,
}

impl Tuple {
    /// The empty tuple.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a tuple from `(attribute, value)` pairs.  A repeated attribute
    /// keeps the last value given.
    pub fn from_pairs<I, V>(pairs: I) -> Self
    where
        I: IntoIterator<Item = (NodeId, V)>,
        V: Into<Value>,
    {
        let mut t = Tuple::new();
        for (a, v) in pairs {
            t.set(a, v);
        }
        t
    }

    /// The value of attribute `a`, if present.
    pub fn get(&self, a: NodeId) -> Option<&Value> {
        self.pairs
            .binary_search_by_key(&a, |(k, _)| *k)
            .ok()
            .map(|i| &self.pairs[i].1)
    }

    /// Sets the value of attribute `a`.
    pub fn set(&mut self, a: NodeId, v: impl Into<Value>) {
        match self.pairs.binary_search_by_key(&a, |(k, _)| *k) {
            Ok(i) => self.pairs[i].1 = v.into(),
            Err(i) => self.pairs.insert(i, (a, v.into())),
        }
    }

    /// Iterates over `(attribute, value)` pairs in ascending attribute order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &Value)> + '_ {
        self.pairs.iter().map(|(a, v)| (*a, v))
    }

    /// The attributes this tuple assigns.
    pub fn attributes(&self) -> NodeSet {
        self.pairs.iter().map(|(a, _)| *a).collect()
    }

    /// Restriction of the tuple to the attributes in `attrs`.
    pub fn project(&self, attrs: &NodeSet) -> Tuple {
        Tuple {
            pairs: self
                .pairs
                .iter()
                .filter(|(a, _)| attrs.contains(*a))
                .cloned()
                .collect(),
        }
    }

    /// True if the two tuples agree on every attribute they share.
    pub fn joinable(&self, other: &Tuple) -> bool {
        self.pairs
            .iter()
            .all(|(a, v)| other.get(*a).is_none_or(|w| w == v))
    }

    /// The combined tuple, if the two agree on shared attributes.
    pub fn join(&self, other: &Tuple) -> Option<Tuple> {
        if !self.joinable(other) {
            return None;
        }
        let mut out = self.clone();
        for (a, v) in other.iter() {
            out.set(a, v.clone());
        }
        Some(out)
    }

    /// Number of attributes assigned.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// True if the tuple assigns no attribute.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Renders the tuple with attribute names from `universe`.
    pub fn display(&self, universe: &Universe) -> String {
        let parts: Vec<String> = self
            .pairs
            .iter()
            .map(|(a, v)| format!("{}={}", universe.name(*a), v))
            .collect();
        format!("({})", parts.join(", "))
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

#[inline]
fn fnv_step(h: u64, w: u32) -> u64 {
    (h ^ u64::from(w)).wrapping_mul(FNV_PRIME)
}

/// Finalizer mixing the accumulator so the low bits (used as table index)
/// depend on every input word.
#[inline]
fn fnv_finish(mut h: u64) -> u64 {
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^ (h >> 33)
}

#[inline]
fn hash_row(row: &[u32]) -> u64 {
    fnv_finish(row.iter().fold(FNV_OFFSET, |h, &w| fnv_step(h, w)))
}

#[inline]
fn hash_key(row: &[u32], pos: &[usize]) -> u64 {
    fnv_finish(pos.iter().fold(FNV_OFFSET, |h, &p| fnv_step(h, row[p])))
}

/// Open-addressing hash table storing `u32` entry ids.  The caller supplies
/// hashing and equality (entries usually denote rows in some buffer), keeps
/// its own occupancy count, and must call [`RowTable::reserve`] before every
/// insertion so a free slot always exists.
#[derive(Debug, Clone, Default)]
struct RowTable {
    slots: Vec<u32>,
}

impl RowTable {
    /// A table allocated once for `entries` entries: [`RowTable::reserve`]
    /// never grows (and so never re-hashes) it on the way there.
    fn with_capacity(entries: usize) -> Self {
        if entries == 0 {
            return Self::default();
        }
        Self {
            slots: vec![NO_HANDLE; (entries * 2).next_power_of_two().max(8)],
        }
    }

    /// Grows the table if inserting one more entry would exceed a 3/4 load
    /// factor, rehashing existing entries with `hash_of`.
    fn reserve(&mut self, occupied: usize, hash_of: impl Fn(u32) -> u64) {
        if (occupied + 1) * 4 > self.slots.len() * 3 {
            let cap = ((occupied + 1) * 2).next_power_of_two().max(8);
            let mut slots = vec![NO_HANDLE; cap];
            let mask = cap - 1;
            for &id in &self.slots {
                if id == NO_HANDLE {
                    continue;
                }
                let mut i = hash_of(id) as usize & mask;
                while slots[i] != NO_HANDLE {
                    i = (i + 1) & mask;
                }
                slots[i] = id;
            }
            self.slots = slots;
        }
    }

    /// The entry equal (per `eq`) to the probed key, if present.
    fn find(&self, hash: u64, mut eq: impl FnMut(u32) -> bool) -> Option<u32> {
        if self.slots.is_empty() {
            return None;
        }
        let mask = self.slots.len() - 1;
        let mut i = hash as usize & mask;
        loop {
            let id = self.slots[i];
            if id == NO_HANDLE {
                return None;
            }
            if eq(id) {
                return Some(id);
            }
            i = (i + 1) & mask;
        }
    }

    /// Probes for the key: `(slot, true)` if an equal entry occupies `slot`,
    /// `(slot, false)` if `slot` is the free slot where it belongs.  Call
    /// [`RowTable::reserve`] first.
    fn find_slot(&self, hash: u64, mut eq: impl FnMut(u32) -> bool) -> (usize, bool) {
        let mask = self.slots.len() - 1;
        let mut i = hash as usize & mask;
        loop {
            let id = self.slots[i];
            if id == NO_HANDLE {
                return (i, false);
            }
            if eq(id) {
                return (i, true);
            }
            i = (i + 1) & mask;
        }
    }

    fn get(&self, slot: usize) -> u32 {
        self.slots[slot]
    }

    fn set(&mut self, slot: usize, id: u32) {
        self.slots[slot] = id;
    }
}

#[inline]
fn row_of(buf: &[u32], width: usize, id: u32) -> &[u32] {
    &buf[id as usize * width..(id as usize + 1) * width]
}

/// Positions (column indices) of the attributes of `of` within `cols`.
/// Both are in ascending attribute order, so position sequences computed for
/// the same `of` against two relations align column-for-column.
fn positions(of: &NodeSet, cols: &[NodeId]) -> Vec<usize> {
    cols.iter()
        .enumerate()
        .filter(|(_, c)| of.contains(**c))
        .map(|(i, _)| i)
        .collect()
}

/// The key-extraction plan shared by the semijoin mask kernels: the shared
/// attributes' column positions on both sides.  Both relations intern into
/// one pool (a foreign operand is brought over at the kernel's door), so a
/// key is compared as plain handles.  Factoring this out keeps the two
/// kernels byte-for-byte identical in how they see keys.
struct JoinKeys {
    left_pos: Vec<usize>,
    right_pos: Vec<usize>,
}

impl JoinKeys {
    /// The plan for `left` against `right` on their nonempty `shared`
    /// attributes.
    fn new(left: &Relation, right: &Relation, shared: &NodeSet) -> Self {
        Self {
            left_pos: positions(shared, &left.cols),
            right_pos: positions(shared, &right.cols),
        }
    }

    /// Key width.
    fn k(&self) -> usize {
        self.left_pos.len()
    }

    /// Flattened key columns of `rel` at `pos`.
    fn gather(&self, rel: &Relation, pos: &[usize]) -> Vec<u32> {
        let mut keys = Vec::with_capacity(rel.len * pos.len());
        for row in rel.rows_iter() {
            keys.extend(pos.iter().map(|&p| row[p]));
        }
        keys
    }
}

/// The size `radix^k` of the packed key space of a `k`-column key over a
/// pool of `radix` values, when the dense semijoin kernel may use it: the
/// direct-address bitset costs one bit per *possible* key, and it is taken
/// only while that is at most one byte per input row it serves (`rows` =
/// both operands; the 1024-bit floor keeps tiny inputs dense).  Past that a
/// sparse key space would make the bitset — allocation, zeroing and cache
/// misses — outweigh the sort it replaces, so the caller falls back;
/// `radix^k` overflowing `usize` is the same answer.  The bound is derived
/// from the inputs, not tunable.
fn dense_key_space(radix: usize, k: usize, rows: usize) -> Option<usize> {
    let space = radix.checked_pow(u32::try_from(k).ok()?)?;
    (space <= rows.saturating_mul(8).saturating_add(1024)).then_some(space)
}

/// Packs the key columns `pos` of `row` into one mixed-radix number
/// (`Σ hᵢ·radix^(k−1−i)`, every handle below `radix`).
#[inline]
fn pack_key(row: &[u32], pos: &[usize], radix: usize) -> usize {
    pos.iter().fold(0, |key, &p| {
        debug_assert!((row[p] as usize) < radix, "handle outside the pool");
        key * radix + row[p] as usize
    })
}

/// Sorts the ids `0..n` by their flattened `k`-wide keys — id `i` owns
/// `keys[i * k..(i + 1) * k]` — equal keys by ascending id, and returns the
/// permutation.  The key buffer itself is never reordered.
///
/// Keys are interned [`ValuePool`] handles, or ranks of them: dense small
/// integers.  So above the small-input thresholds nothing is compared; the
/// sort is LSD, one stable distribution per key column, last column first,
/// and each column picks its kernel by its own largest key:
///
/// * a **counting** pass when that key is within a small factor of the row
///   count — `O(n + max)` instead of `O(n log n)` comparisons;
/// * two 16-bit **radix** passes when the column is sparse and the input
///   large enough to amortize the fixed 64Ki-entry count arrays.
///
/// Fewer than 64 rows, or a sparse column on fewer than 4096, keep the
/// comparison sort and its single allocation.  All paths return the same
/// permutation, so no caller — the sort-merge semijoin kernel,
/// `same_contents`, [`value_order`](crate::value_order), the snapshot saver,
/// `hyperqd`'s canonical answer frame — can tell which ran.
///
/// # Panics
/// Panics unless `keys` holds exactly `n * k` entries and `n` fits `u32`.
pub fn sort_ids_by_key(keys: &[u32], k: usize, n: usize) -> Vec<u32> {
    assert_eq!(keys.len(), n * k, "one k-wide key per id");
    let ids = 0..u32::try_from(n).expect("row ids are u32");
    let dense = |key: u32| key as usize <= 4 * n;
    if n < SORT_COUNTING_MIN_ROWS || (n < SORT_RADIX_MIN_ROWS && !keys.iter().all(|&h| dense(h))) {
        return comparison_sort(keys, k, ids);
    }
    // From here every column has a kernel, so it is picked pass by pass.
    // An empty `cur` stands for the identity permutation, which the first
    // pass reads without it ever being stored.
    let (mut cur, mut next, mut copy) = (Vec::new(), Vec::new(), Vec::new());
    for col in (0..k).rev() {
        // A pass reads its keys in permutation order, so at random: out of
        // an `n`-word copy of the column rather than the `k·n`-word key
        // buffer — unless the keys are that column already.
        let column: &[u32] = if k == 1 {
            keys
        } else {
            copy.clear();
            copy.extend(keys.iter().skip(col).step_by(k));
            &copy
        };
        let max = column.iter().copied().max().unwrap_or(0);
        if dense(max) {
            let digit = |id: u32| column[id as usize] as usize;
            distribute(&mut cur, &mut next, n, max as usize + 1, digit);
        } else {
            for shift in [0, 16] {
                let digit = |id: u32| (column[id as usize] >> shift) as usize & 0xffff;
                distribute(&mut cur, &mut next, n, 1 << 16, digit);
            }
        }
    }
    if cur.is_empty() {
        return ids.collect(); // zero-width keys: every id ties
    }
    cur
}

/// Inputs below which [`sort_ids_by_key`] keeps the comparison sort:
/// count-array setup would dominate the handful of comparisons.
const SORT_COUNTING_MIN_ROWS: usize = 64;

/// Inputs below which a sparse (non-counting) key column keeps the
/// comparison sort: the radix passes touch two 64Ki-entry count arrays
/// regardless of `n`, so they only pay off once `n log n` comparisons
/// outweigh ~128Ki of fixed bookkeeping.
const SORT_RADIX_MIN_ROWS: usize = 4096;

/// One stable distribution pass over the ids `0..n`: replaces the
/// permutation `cur` (empty: the identity) by itself ordered by `digit(id)`
/// — every digit below `buckets` — ids of equal digit keeping their order.
/// `next` is scratch, swapped with `cur`.  A histogram does not depend on
/// the order, so it is counted over the ids ascending, keys front to back.
fn distribute(
    cur: &mut Vec<u32>,
    next: &mut Vec<u32>,
    n: usize,
    buckets: usize,
    digit: impl Fn(u32) -> usize,
) {
    let ids = 0..n as u32;
    let mut starts = vec![0u32; buckets + 1];
    for id in ids.clone() {
        starts[digit(id) + 1] += 1;
    }
    for i in 1..starts.len() {
        starts[i] += starts[i - 1];
    }
    next.resize(n, 0);
    let mut place = |id: u32| {
        let slot = &mut starts[digit(id)];
        next[*slot as usize] = id;
        *slot += 1;
    };
    if cur.is_empty() {
        ids.for_each(&mut place);
    } else {
        cur.iter().copied().for_each(&mut place);
    }
    std::mem::swap(cur, next);
}

/// The comparison sort behind the small inputs of [`sort_ids_by_key`]:
/// packed `(key, id)` words for a single column, key slices then id for
/// wider keys.
fn comparison_sort(keys: &[u32], k: usize, ids: std::ops::Range<u32>) -> Vec<u32> {
    if k == 1 {
        let mut packed: Vec<u64> = ids
            .map(|i| (u64::from(keys[i as usize]) << 32) | u64::from(i))
            .collect();
        packed.sort_unstable();
        return packed
            .into_iter()
            .map(|p| (p & 0xffff_ffff) as u32)
            .collect();
    }
    let key = |id: u32| &keys[id as usize * k..(id as usize + 1) * k];
    let mut ids: Vec<u32> = ids.collect();
    ids.sort_unstable_by(|&a, &b| key(a).cmp(key(b)).then(a.cmp(&b)));
    ids
}

/// The end (exclusive) of the equal-key run starting at `start` in a
/// key-sorted id permutation.
fn run_end(keys: &[u32], sorted: &[u32], start: usize, k: usize) -> usize {
    let key = &keys[sorted[start] as usize * k..(sorted[start] as usize + 1) * k];
    let mut end = start + 1;
    while end < sorted.len()
        && &keys[sorted[end] as usize * k..(sorted[end] as usize + 1) * k] == key
    {
        end += 1;
    }
    end
}

/// A relation: a named set of tuples over a fixed attribute set, stored as
/// flat interned rows (see the module docs for the layout).
#[derive(Debug, Clone)]
pub struct Relation {
    name: String,
    attributes: NodeSet,
    /// The attributes in ascending id order; column `i` of every row holds
    /// the value of `cols[i]`.
    cols: Box<[NodeId]>,
    pool: ValuePool,
    /// Row-major handle buffer of `len * cols.len()` words.
    rows: Vec<u32>,
    /// Number of rows (kept separately: zero-width relations have rows too).
    len: usize,
    /// Set-semantics index over the rows: built by the first insertion,
    /// absent on everything else (see *Set semantics* in the module docs).
    index: Option<RowTable>,
}

impl Relation {
    /// Creates an empty relation over `attributes` with its own fresh
    /// [`ValuePool`].  Relations meant to be joined together should share a
    /// pool (see [`Relation::with_pool`]); the kernels still work across
    /// pools, at the cost of copying the other operand into this one's pool
    /// per operation (see *Storage layout* in the module docs).
    pub fn new(name: impl Into<String>, attributes: NodeSet) -> Self {
        Self::with_pool(name, attributes, ValuePool::new())
    }

    /// Creates an empty relation over `attributes` interning into `pool`.
    pub fn with_pool(name: impl Into<String>, attributes: NodeSet, pool: ValuePool) -> Self {
        let cols: Box<[NodeId]> = attributes.iter().collect();
        Self {
            name: name.into(),
            attributes,
            cols,
            pool,
            rows: Vec::new(),
            len: 0,
            index: None,
        }
    }

    /// The relation's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Returns the relation renamed to `name`.
    pub fn with_name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// The relation's attribute set.
    pub fn attributes(&self) -> &NodeSet {
        &self.attributes
    }

    /// The attributes in column (ascending id) order — the order in which
    /// [`Relation::insert_values`] expects values.
    pub fn columns(&self) -> &[NodeId] {
        &self.cols
    }

    /// The value pool this relation interns into.
    pub fn pool(&self) -> &ValuePool {
        &self.pool
    }

    /// The stored rows as [`ValuePool`] handles: row-major, one handle per
    /// [`column`](Relation::columns), `len() * columns().len()` in all, in
    /// storage order.  Decode through [`ValuePool::with_values`].
    pub fn handle_rows(&self) -> &[u32] {
        &self.rows
    }

    fn width(&self) -> usize {
        self.cols.len()
    }

    fn col_pos(&self, a: NodeId) -> Option<usize> {
        self.cols.binary_search(&a).ok()
    }

    fn row(&self, i: usize) -> &[u32] {
        let w = self.width();
        &self.rows[i * w..(i + 1) * w]
    }

    fn rows_iter(&self) -> impl Iterator<Item = &[u32]> + '_ {
        let w = self.width();
        (0..self.len).map(move |i| &self.rows[i * w..(i + 1) * w])
    }

    /// Decodes row `i` into a [`Tuple`].
    pub fn tuple_at(&self, i: usize) -> Tuple {
        assert!(i < self.len, "row index out of range");
        Tuple {
            pairs: self
                .cols
                .iter()
                .zip(self.row(i))
                .map(|(&a, &h)| (a, self.decode_cell(&None, h)))
                .collect(),
        }
    }

    /// The dictionary snapshot for decoding `cells` cells, or `None` when
    /// the relation is small enough that per-handle lookups beat cloning
    /// the (shared, possibly much larger) dictionary.
    fn decode_snapshot(&self, cells: usize) -> Option<Vec<Value>> {
        (cells >= self.pool.len()).then(|| self.pool.snapshot())
    }

    /// Decodes one handle, through the snapshot when one was taken.
    fn decode_cell(&self, snapshot: &Option<Vec<Value>>, h: u32) -> Value {
        match snapshot {
            Some(values) => values[h as usize].clone(),
            None => self.pool.value(h),
        }
    }

    /// The tuples, decoded, in storage (first-insertion) order.
    ///
    /// Bulk decodes snapshot the value dictionary once up front (one pool
    /// lock total rather than one per cell); small relations decode via
    /// per-handle lookups instead.
    pub fn tuples(&self) -> impl Iterator<Item = Tuple> + '_ {
        let values = self.decode_snapshot(self.len * self.width());
        (0..self.len).map(move |i| Tuple {
            pairs: self
                .cols
                .iter()
                .zip(self.row(i))
                .map(|(&a, &h)| (a, self.decode_cell(&values, h)))
                .collect(),
        })
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the relation has no tuples.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Inserts an already-encoded row, deduplicating through the relation's
    /// index, which it builds first if absent.  Returns `true` if new.
    fn insert_row(&mut self, row: &[u32]) -> bool {
        let mut index = self.index.take().unwrap_or_else(|| self.build_table());
        let new = self.push_unless_present(&mut index, row);
        self.index = Some(index);
        new
    }

    /// Appends an already-encoded row unless `table`, a dedup table over
    /// this relation's rows, already holds it.  Returns `true` if new.
    fn push_unless_present(&mut self, table: &mut RowTable, row: &[u32]) -> bool {
        debug_assert_eq!(row.len(), self.width());
        let w = self.width();
        let rows = &self.rows;
        let h = hash_row(row);
        table.reserve(self.len, |id| hash_row(row_of(rows, w, id)));
        let (slot, occupied) = table.find_slot(h, |id| row_of(rows, w, id) == row);
        if occupied {
            return false;
        }
        let id = u32::try_from(self.len).expect("relation too large");
        // Row ids share the u32 space with the NO_HANDLE sentinel used by
        // the tables and join chains; the last id must stay below it.
        assert!(id < NO_HANDLE, "relation too large");
        self.rows.extend_from_slice(row);
        table.set(slot, id);
        self.len += 1;
        true
    }

    /// Appends one row known to be distinct from every stored row — how
    /// every kernel whose output is a set by construction emits (see *Set
    /// semantics* in the module docs).  Only a kernel's own output, which
    /// has no dedup index, is appended to this way.  A zero-width relation
    /// holds at most the empty tuple, so a zero-width row makes it hold it.
    #[inline]
    fn push_distinct_row(&mut self, row: &[u32]) {
        debug_assert!(self.index.is_none(), "unchecked append to an index");
        debug_assert_eq!(row.len(), self.width());
        let new_len = if row.is_empty() { 1 } else { self.len + 1 };
        // Row ids share the u32 space with the NO_HANDLE sentinel.
        assert!(
            u32::try_from(new_len).is_ok_and(|v| v < NO_HANDLE),
            "relation too large"
        );
        self.rows.extend_from_slice(row);
        self.len = new_len;
    }

    /// A copy of the relation's rows without its dedup index — for working
    /// copies that are only ever reduced, joined or scanned, like the full
    /// reducer's.
    pub(crate) fn clone_rows(&self) -> Relation {
        self.with_rows(self.rows.clone(), self.len)
    }

    /// This relation's name, schema and pool over `len` other rows, a
    /// subset of its own, without a dedup index.
    fn with_rows(&self, rows: Vec<u32>, len: usize) -> Relation {
        Relation {
            name: self.name.clone(),
            attributes: self.attributes.clone(),
            cols: self.cols.clone(),
            pool: self.pool.clone(),
            rows,
            len,
            index: None,
        }
    }

    /// The flat row buffer (`len * width` handle words, schema column
    /// order) — the snapshot writer's view of the stored rows.
    pub(crate) fn raw_rows(&self) -> &[u32] {
        &self.rows[..self.len * self.width()]
    }

    /// Planning-time selectivity probe: the sampled distinct-key ratio on
    /// the columns shared with `attrs` (`1.0` when nothing is shared — a
    /// ratio, not a key count: a caller sizing a join must still treat
    /// that case as the cross product it is).  Used by bag materialization
    /// to order cover joins smallest-intermediate-first.
    pub(crate) fn estimate_distinct_ratio_on(&self, attrs: &NodeSet) -> f64 {
        let shared = self.attributes.intersection(attrs);
        if shared.is_empty() {
            return 1.0;
        }
        self.estimate_distinct_key_ratio(&positions(&shared, &self.cols))
    }

    /// Assembles a relation directly from a flat handle buffer — the
    /// snapshot loader's entry.  The caller must have proved the rows
    /// distinct (the loader checks them strictly ascending, one neighbour
    /// comparison per row) and the dedup index is left to the first
    /// insertion; handles are validated against `pool` so a corrupt buffer
    /// yields `Err` instead of out-of-bounds panics later.
    pub(crate) fn from_raw_parts(
        name: String,
        attributes: NodeSet,
        pool: ValuePool,
        rows: Vec<u32>,
        len: usize,
    ) -> Result<Self, String> {
        let mut out = Relation::with_pool(name, attributes, pool);
        let w = out.width();
        if rows.len() != len * w {
            return Err(format!(
                "row buffer holds {} words, expected {len} rows × {w} columns",
                rows.len()
            ));
        }
        if !u32::try_from(len).is_ok_and(|v| v < NO_HANDLE) {
            return Err(format!("row count {len} exceeds the engine's row-id space"));
        }
        let pool_len = out.pool.len();
        if let Some(&bad) = rows.iter().find(|&&h| h as usize >= pool_len) {
            return Err(format!(
                "row handle {bad} is outside the value pool ({pool_len} values)"
            ));
        }
        out.rows = rows;
        out.len = len;
        Ok(out)
    }

    /// Builds a fresh dedup table over the current rows (known distinct),
    /// sized for them.
    fn build_table(&self) -> RowTable {
        let w = self.width();
        let rows = &self.rows;
        let mut table = RowTable::with_capacity(self.len);
        for id in 0..self.len as u32 {
            let h = hash_row(row_of(rows, w, id));
            table.reserve(id as usize, |j| hash_row(row_of(rows, w, j)));
            let (slot, occupied) =
                table.find_slot(h, |j| row_of(rows, w, j) == row_of(rows, w, id));
            debug_assert!(!occupied, "build_table requires distinct rows");
            table.set(slot, id);
        }
        table
    }

    /// Inserts a tuple.
    ///
    /// # Panics
    /// Panics if the tuple's attributes differ from the relation's schema —
    /// schema mismatches are programming errors, not data errors.
    pub fn insert(&mut self, t: Tuple) -> bool {
        assert_eq!(
            t.attributes(),
            self.attributes,
            "tuple attributes do not match relation {:?}",
            self.name
        );
        let mut row = Vec::with_capacity(self.width());
        // Tuple pairs are sorted by attribute id == column order.
        self.pool
            .intern_row(t.pairs.iter().map(|(_, v)| v), &mut row);
        self.insert_row(&row)
    }

    /// Inserts a tuple given as values in **column order** (ascending
    /// attribute id, see [`Relation::columns`]) — the allocation-light bulk
    /// loading path used by the data generators and loaders.
    ///
    /// # Panics
    /// Panics if the number of values differs from the relation's arity.
    pub fn insert_values<I, V>(&mut self, values: I) -> bool
    where
        I: IntoIterator<Item = V>,
        V: Into<Value>,
    {
        let vals: Vec<Value> = values.into_iter().map(Into::into).collect();
        assert_eq!(
            vals.len(),
            self.width(),
            "value count does not match relation {:?} arity",
            self.name
        );
        let mut row = Vec::with_capacity(vals.len());
        self.pool.intern_row(vals.iter(), &mut row);
        self.insert_row(&row)
    }

    /// True if the relation contains `t`.
    pub fn contains(&self, t: &Tuple) -> bool {
        if t.attributes() != self.attributes {
            return false;
        }
        let mut row = Vec::with_capacity(self.width());
        for (_, v) in t.iter() {
            match self.pool.get(v) {
                Some(h) => row.push(h),
                // A value never interned here cannot occur in any row.
                None => return false,
            }
        }
        let w = self.width();
        match &self.index {
            Some(index) => index
                .find(hash_row(&row), |id| row_of(&self.rows, w, id) == &row[..])
                .is_some(),
            // No insertion built the index: a scan costs no more than the
            // build this read-only call would otherwise force.
            None => self.rows_iter().any(|r| r == &row[..]),
        }
    }

    /// Projection onto `attrs` (which need not be a subset of the schema;
    /// extra attributes are ignored), with duplicate elimination.  A
    /// projection that keeps every column cannot create duplicates: it
    /// copies the row buffer without hashing a row.  One that drops a
    /// column deduplicates through a table sized once for its input and
    /// dropped on return; the output, like every kernel's, has no index.
    pub fn project(&self, attrs: &NodeSet) -> Relation {
        let name = format!("π({})", self.name);
        if self.attributes.is_subset(attrs) {
            return self.clone_rows().with_name(name);
        }
        let kept = self.attributes.intersection(attrs);
        let mut out = Relation::with_pool(name, kept, self.pool.clone());
        let mut seen = RowTable::with_capacity(self.len);
        let pos: Vec<usize> = out
            .cols
            .iter()
            .map(|c| self.col_pos(*c).expect("kept ⊆ schema"))
            .collect();
        let mut buf = vec![0u32; pos.len()];
        for i in 0..self.len {
            let row = self.row(i);
            for (j, &p) in pos.iter().enumerate() {
                buf[j] = row[p];
            }
            out.push_unless_present(&mut seen, &buf);
        }
        out
    }

    /// [`Relation::project`] of a relation the caller is done with: a
    /// projection that keeps every column moves the rows instead of copying
    /// them.
    pub(crate) fn into_project(self, attrs: &NodeSet) -> Relation {
        if self.attributes.is_subset(attrs) {
            let name = format!("π({})", self.name);
            return self.with_name(name);
        }
        self.project(attrs)
    }

    /// Natural join: the hash kernel indexes the smaller side by its
    /// shared-attribute key columns and probes with the larger (a key-less
    /// join is the cross product, probed the same way).  Runs inline with
    /// nobody watching; [`ExecCtx::join`] is the form that takes sinks.
    pub fn join(&self, other: &Relation) -> Relation {
        unfail(self.join_impl(other, &NoopMetrics, &NoopGovernor))
    }

    fn join_impl<M: MetricsSink, G: Governor>(
        &self,
        other: &Relation,
        sink: &M,
        gov: &G,
    ) -> Result<Relation, EngineError> {
        let attrs = self.attributes.union(&other.attributes);
        let name = format!("({}⋈{})", self.name, other.name);
        let out = Relation::with_pool(name, attrs, self.pool.clone());
        if self.len == 0 || other.len == 0 {
            return Ok(out);
        }
        if G::ENABLED {
            gov.checkpoint()?;
            // Budget the build-side structure before building it: the hash
            // table and its chain hold ~2 words per build row.
            gov.approve_alloc(self.len.min(other.len) as u64, 2)?;
        }
        // Unify pools so handle equality is value equality; output values
        // come from both sides, so unknown values are interned.
        let converted;
        let other = if self.pool.same_pool(&other.pool) {
            other
        } else {
            converted = other.reintern_into(&self.pool);
            &converted
        };
        let shared = self.attributes.intersection(&other.attributes);
        let (mut out, built) = self.hash_join_into(other, &shared, out, gov)?;
        // The kernel appends rows without knowing the output size, so the
        // buffer ends up to twice as large as its rows.  The result lives on
        // (projected, joined again, rendered), so drop the spare capacity
        // now: it would otherwise double this relation's footprint, or not,
        // depending only on where its size falls between two powers of two.
        out.rows.shrink_to_fit();
        if M::ENABLED {
            sink.record_op(OpMetrics {
                kind: OpKind::Join,
                kernel: Kernel::Hash,
                probed: self.len.max(other.len) as u64,
                kept: out.len as u64,
                built: built as u64,
                build_rows: self.len.min(other.len) as u64,
            });
        }
        Ok(out)
    }

    /// The hash-join kernel: build the smaller side, probe the larger.
    /// Pools are already unified.  Also returns the number of distinct keys
    /// the build side contributed (the table's entry count — the "built"
    /// metric).
    fn hash_join_into<G: Governor>(
        &self,
        other: &Relation,
        shared: &NodeSet,
        mut out: Relation,
        gov: &G,
    ) -> Result<(Relation, usize), EngineError> {
        let (build, probe) = if self.len <= other.len {
            (self, other)
        } else {
            (other, self)
        };
        let build_key = positions(shared, &build.cols);
        let probe_key = positions(shared, &probe.cols);
        // Where each output column comes from; prefer the probe side so the
        // shared columns are copied from the row already in hand.
        let sources: Vec<(bool, usize)> = out
            .cols
            .iter()
            .map(|c| match probe.col_pos(*c) {
                Some(p) => (true, p),
                None => (false, build.col_pos(*c).expect("union attr")),
            })
            .collect();
        // Index the build side: one table entry per distinct key, rows with
        // equal keys chained through `next`.
        let bw = build.width();
        let brows = &build.rows;
        let mut next: Vec<u32> = vec![NO_HANDLE; build.len];
        let mut table = RowTable::with_capacity(build.len);
        let mut distinct = 0usize;
        for r in 0..build.len as u32 {
            let h = hash_key(row_of(brows, bw, r), &build_key);
            table.reserve(distinct, |id| hash_key(row_of(brows, bw, id), &build_key));
            let (slot, occupied) = table.find_slot(h, |id| {
                let (a, b) = (row_of(brows, bw, id), row_of(brows, bw, r));
                build_key.iter().all(|&p| a[p] == b[p])
            });
            if occupied {
                next[r as usize] = table.get(slot);
                table.set(slot, r);
            } else {
                table.set(slot, r);
                distinct += 1;
            }
        }
        // Probe and emit — appending unchecked: an output row holds every
        // column of its probe row and of its build row, so it determines
        // the pair and output rows are distinct by construction (see *Set
        // semantics*).  Governance runs at batch granularity: every
        // CHECK_BATCH probed/emitted rows the kernel checkpoints and charges
        // the output growth since the last charge against the budget.
        let mut keybuf = vec![0u32; probe_key.len()];
        let mut rowbuf = vec![0u32; out.width()];
        let mut step = 0usize;
        let mut charged = 0usize;
        for prow in probe.rows_iter() {
            if G::ENABLED {
                step += 1;
                if step >= CHECK_BATCH {
                    step = 0;
                    gov.checkpoint()?;
                    gov.approve_alloc((out.len - charged) as u64, out.width())?;
                    charged = out.len;
                }
            }
            for (j, &p) in probe_key.iter().enumerate() {
                keybuf[j] = prow[p];
            }
            let head = table.find(hash_row(&keybuf), |id| {
                let b = row_of(brows, bw, id);
                build_key.iter().zip(&keybuf).all(|(&p, &v)| b[p] == v)
            });
            let Some(mut cur) = head else { continue };
            loop {
                let brow = row_of(brows, bw, cur);
                for (c, &(from_probe, p)) in sources.iter().enumerate() {
                    rowbuf[c] = if from_probe { prow[p] } else { brow[p] };
                }
                out.push_distinct_row(&rowbuf);
                if G::ENABLED {
                    step += 1;
                }
                if next[cur as usize] == NO_HANDLE {
                    break;
                }
                cur = next[cur as usize];
            }
        }
        if G::ENABLED && out.len > charged {
            gov.approve_alloc((out.len - charged) as u64, out.width())?;
        }
        Ok((out, distinct))
    }

    /// Estimated fraction of distinct keys among the rows, from a sample of
    /// up to 128 evenly spaced rows.  The rows themselves are distinct (see
    /// *Set semantics* in the module docs), so duplication among the
    /// sampled key columns measures genuine key skew rather than duplicate
    /// tuples.
    fn estimate_distinct_key_ratio(&self, pos: &[usize]) -> f64 {
        let k = pos.len();
        if self.len == 0 || k == 0 {
            return 1.0;
        }
        if k == self.width() {
            return 1.0; // keys are whole rows, which are distinct by construction
        }
        let sample = self.len.min(128);
        let mut buf: Vec<u32> = Vec::with_capacity(sample * k);
        for s in 0..sample {
            // Spread the sample across the whole relation (integer-truncated
            // strides would only ever inspect a prefix).
            let row = self.row(s * self.len / sample);
            buf.extend(pos.iter().map(|&p| row[p]));
        }
        let mut ids = sort_ids_by_key(&buf, k, sample);
        ids.dedup_by(|a, b| {
            buf[*a as usize * k..(*a as usize + 1) * k]
                == buf[*b as usize * k..(*b as usize + 1) * k]
        });
        ids.len() as f64 / sample as f64
    }

    /// For each row of `self`, whether some row of `other` matches it on the
    /// shared attributes — the one kernel behind every semijoin.  The inputs
    /// choose its flavor: [`Relation::dense_mask`] where the packed key space
    /// fits, [`Relation::sort_merge_mask`] otherwise.  An `other` from
    /// another pool is read through [`Relation::read_in`] first, so both
    /// flavors see one pool.  Alongside the mask, reports what the kernel
    /// did ([`MaskStats`]) so metered callers can record one semijoin
    /// [`OpMetrics`].
    fn semijoin_mask<G: Governor>(
        &self,
        other: &Relation,
        gov: &G,
    ) -> Result<(Vec<bool>, MaskStats), EngineError> {
        if G::ENABLED {
            gov.at_semijoin()?;
        }
        let build_rows = other.len;
        let shared = self.attributes.intersection(&other.attributes);
        if shared.is_empty() {
            // π_∅(other) is {()} iff other is nonempty; every tuple matches.
            // The key space is a single bit, so this is the dense kernel.
            let mask = vec![!other.is_empty(); self.len];
            let stats = MaskStats {
                kernel: Kernel::Dense,
                built: 0,
                build_rows,
            };
            return Ok((mask, stats));
        }
        let other = other.read_in(&self.pool, &shared);
        let keys = JoinKeys::new(self, &other, &shared);
        let (kernel, (mask, built)) = match self.dense_mask(&other, &keys, gov)? {
            Some(done) => (Kernel::Dense, done),
            None => (Kernel::SortMerge, self.sort_merge_mask(&other, &keys, gov)?),
        };
        let stats = MaskStats {
            kernel,
            built,
            build_rows,
        };
        Ok((mask, stats))
    }

    /// Dense flavor of the semijoin mask: a direct-address bitset over the
    /// packed key space, or `None` when that space is too large (see
    /// [`dense_key_space`]) and the caller must sort instead.
    ///
    /// Handles are dense `u32`s below the pool size `radix`, so a `k`-column
    /// key is the mixed-radix number `Σ hᵢ·radix^(k−1−i)` and "is this key
    /// present in `other`" is one bit.  The build loop sets bits straight
    /// from `other`'s row buffer, the probe loop tests `self`'s rows
    /// against them: no gathered key buffers, no permutations, no hashing.
    /// Returns the mask plus the number of distinct keys set (the "built"
    /// metric).
    fn dense_mask<G: Governor>(
        &self,
        other: &Relation,
        keys: &JoinKeys,
        gov: &G,
    ) -> Result<Option<(Vec<bool>, usize)>, EngineError> {
        // The pool only grows: every handle either side holds was interned
        // before this read.
        let radix = self.pool.len();
        let Some(space) = dense_key_space(radix, keys.k(), self.len + other.len) else {
            return Ok(None);
        };
        let mut bits = vec![0u64; space.div_ceil(64)];
        let mut built = 0usize;
        for batch in other.raw_rows().chunks(CHECK_BATCH * other.width()) {
            if G::ENABLED {
                gov.checkpoint()?;
            }
            for row in batch.chunks_exact(other.width()) {
                let key = pack_key(row, &keys.right_pos, radix);
                let (word, bit) = (key / 64, 1u64 << (key % 64));
                built += usize::from(bits[word] & bit == 0);
                bits[word] |= bit;
            }
        }
        let mut mask = Vec::with_capacity(self.len);
        for batch in self.raw_rows().chunks(CHECK_BATCH * self.width()) {
            if G::ENABLED {
                gov.checkpoint()?;
            }
            mask.extend(batch.chunks_exact(self.width()).map(|row| {
                let key = pack_key(row, &keys.left_pos, radix);
                bits[key / 64] & (1u64 << (key % 64)) != 0
            }));
        }
        Ok(Some((mask, built)))
    }

    /// Sort-merge flavor of the semijoin mask: sort a row-id permutation of
    /// `self` by the key columns (never the rows themselves), sort + dedup
    /// `other`'s keys, and mark equal-key runs in one merge walk.  Returns
    /// the mask plus the number of distinct other-side keys after dedup (the
    /// "built" metric).
    fn sort_merge_mask<G: Governor>(
        &self,
        other: &Relation,
        keys: &JoinKeys,
        gov: &G,
    ) -> Result<(Vec<bool>, usize), EngineError> {
        let k = keys.k();
        let other_keys = &keys.gather(other, &keys.right_pos)[..];
        let mut mask = vec![false; self.len];
        if other_keys.is_empty() || self.len == 0 {
            return Ok((mask, 0));
        }
        if G::ENABLED {
            gov.checkpoint()?;
        }
        let my_keys = keys.gather(self, &keys.left_pos);
        let mine = sort_ids_by_key(&my_keys, k, self.len);
        let mut others = sort_ids_by_key(other_keys, k, other_keys.len() / k);
        others.dedup_by(|a, b| {
            other_keys[*a as usize * k..(*a as usize + 1) * k]
                == other_keys[*b as usize * k..(*b as usize + 1) * k]
        });
        let my_key = |id: u32| &my_keys[id as usize * k..(id as usize + 1) * k];
        let other_key = |id: u32| &other_keys[id as usize * k..(id as usize + 1) * k];
        let mut oi = 0usize;
        let mut i = 0usize;
        let mut step = 0usize;
        while i < mine.len() && oi < others.len() {
            if G::ENABLED && step >= CHECK_BATCH {
                step = 0;
                gov.checkpoint()?;
            }
            let key = my_key(mine[i]);
            let end = run_end(&my_keys, &mine, i, k);
            while oi < others.len() && other_key(others[oi]) < key {
                oi += 1;
                step += 1;
            }
            if oi < others.len() && other_key(others[oi]) == key {
                for &id in &mine[i..end] {
                    mask[id as usize] = true;
                }
            }
            step += end - i;
            i = end;
        }
        Ok((mask, others.len()))
    }

    /// Semijoin: a copy of the tuples of `self` that join with at least one
    /// tuple of `other`, gathered into a buffer sized once.  Like every
    /// kernel's output, the copy has no dedup index.
    ///
    /// The keep-mask comes from the dense kernel (a bitset over the packed
    /// handle key space) whenever `pool.len()^k` is at most eight bits per
    /// input row of the two operands, and from sort-merge otherwise — a
    /// sparser key space makes the bitset dearer than the sort.
    /// [`ExecCtx::retain_semijoin`] is the form that takes sinks and
    /// copies only when a row goes.
    pub fn semijoin(&self, other: &Relation) -> Relation {
        let (mask, _) = unfail(self.semijoin_mask(other, &NoopGovernor));
        let kept = mask.iter().filter(|&&keep| keep).count();
        self.survivors(&mask, kept)
    }

    /// Keeps the rows `mask` marks, moving them down in place.
    fn compact(&mut self, mask: &[bool]) {
        let w = self.width();
        let mut write = 0usize;
        for (i, &keep) in mask.iter().enumerate() {
            if keep {
                if write != i {
                    self.rows.copy_within(i * w..(i + 1) * w, write * w);
                }
                write += 1;
            }
        }
        self.rows.truncate(write * w);
        self.len = write;
        self.index = None;
    }

    /// A copy of the `kept` rows `mask` marks, gathered into a buffer sized
    /// once.
    fn survivors(&self, mask: &[bool], kept: usize) -> Relation {
        let w = self.width();
        let mut rows = vec![0u32; kept * w];
        let mut at = 0;
        for (i, _) in mask.iter().enumerate().filter(|&(_, &keep)| keep) {
            rows[at..at + w].copy_from_slice(&self.rows[i * w..(i + 1) * w]);
            at += w;
        }
        self.with_rows(rows, kept)
    }

    /// A copy of the relation with every value re-interned into `pool`.
    ///
    /// Translation is lazy per distinct handle: only values the rows
    /// actually use enter `pool` (this relation's own pool may be a shared
    /// dictionary far larger than the relation).
    fn reintern_into(&self, pool: &ValuePool) -> Relation {
        let mut cache: Vec<u32> = vec![NO_HANDLE; self.pool.len()];
        let mut out = Relation::with_pool(self.name.clone(), self.attributes.clone(), pool.clone());
        let mut buf = vec![0u32; self.width()];
        for row in self.rows_iter() {
            for (j, &h) in row.iter().enumerate() {
                if cache[h as usize] == NO_HANDLE {
                    cache[h as usize] = pool.intern(&self.pool.value(h));
                }
                buf[j] = cache[h as usize];
            }
            // Interning is a bijection on values: distinct rows stay so.
            out.push_distinct_row(&buf);
        }
        out
    }

    /// This relation's projection onto `attrs`, read in `pool`'s handle
    /// space — how a kernel that only reads its other operand brings one
    /// from a foreign pool to its door.  On `pool` itself, the relation
    /// borrowed, every column kept.  Otherwise a copy over the attributes
    /// in `attrs`, translated through a read-only table: rows holding a
    /// value `pool` has never interned are dropped (no row over `pool` can
    /// match them), and neither pool gains a value.
    fn read_in(&self, pool: &ValuePool, attrs: &NodeSet) -> Cow<'_, Relation> {
        if self.pool.same_pool(pool) {
            return Cow::Borrowed(self);
        }
        let kept = self.attributes.intersection(attrs);
        let pos = positions(&kept, &self.cols);
        let table = self.pool.translation_to(pool, false);
        let mut out = Relation::with_pool(self.name.clone(), kept, pool.clone());
        let mut seen = RowTable::with_capacity(self.len);
        let mut buf = vec![0u32; pos.len()];
        'rows: for row in self.rows_iter() {
            for (slot, &p) in buf.iter_mut().zip(&pos) {
                *slot = table[row[p] as usize];
                if *slot == NO_HANDLE {
                    continue 'rows;
                }
            }
            // A dropped column can make two rows equal: deduplicate.
            out.push_unless_present(&mut seen, &buf);
        }
        Cow::Owned(out)
    }

    /// True if the two relations hold exactly the same tuples over the same
    /// attributes (names are ignored).  Rows are compared as sorted lists in
    /// `self`'s handle space, so a duplicated row on either side (a broken
    /// set invariant) cannot stand in for a missing one.
    pub fn same_contents(&self, other: &Relation) -> bool {
        if self.attributes != other.attributes || self.len != other.len {
            return false;
        }
        let w = self.width();
        if w == 0 {
            return true; // equal row counts of the empty tuple
        }
        // A row of `other` lost to the translation held a value `self`
        // cannot hold, and deduplication only merges a broken set's rows.
        let other = other.read_in(&self.pool, &self.attributes);
        if other.len != self.len {
            return false;
        }
        let mine = sort_ids_by_key(&self.rows, w, self.len);
        let ids = sort_ids_by_key(&other.rows, w, self.len);
        (mine.iter().zip(&ids))
            .all(|(&a, &b)| row_of(&self.rows, w, a) == row_of(&other.rows, w, b))
    }

    /// Renders the relation as a small table using `universe` for names,
    /// rows in ascending value order — so the rendering depends on the
    /// relation's contents, not on the order its rows are stored in.
    pub fn display(&self, universe: &Universe) -> String {
        let mut out = String::new();
        out.push_str(&format!("{} (", self.name));
        out.push_str(
            &self
                .cols
                .iter()
                .map(|a| universe.name(*a).to_owned())
                .collect::<Vec<_>>()
                .join(", "),
        );
        out.push_str(&format!(") — {} tuples\n", self.len));
        let values = self.decode_snapshot(self.len * self.width());
        let mut rows: Vec<Vec<Value>> = self
            .rows_iter()
            .map(|row| row.iter().map(|&h| self.decode_cell(&values, h)).collect())
            .collect();
        rows.sort_unstable();
        for row in rows {
            out.push_str("  ");
            out.push_str(
                &row.iter()
                    .map(Value::to_string)
                    .collect::<Vec<_>>()
                    .join(" | "),
            );
            out.push('\n');
        }
        out
    }
}

/// The single-operator entry points.  They peel the context at the door:
/// the kernels underneath take the sink and the governor.
impl<M: MetricsSink, G: Governor> ExecCtx<'_, M, G> {
    /// Natural join `left ⋈ right` ([`Relation::join`]), recording one
    /// [`OpMetrics`] into the metrics sink.  The join aborts with the
    /// governor's error at the next probe-batch checkpoint after a
    /// cancellation, deadline overrun or budget exhaustion; neither input
    /// relation is ever mutated.
    pub fn join(&self, left: &Relation, right: &Relation) -> Result<Relation, EngineError> {
        left.join_impl(right, self.metrics, self.gov)
    }

    /// Semijoin `target ⋉ other` in place ([`Relation::semijoin`] documents
    /// the kernels), recording one semijoin [`OpMetrics`] into the metrics
    /// sink.  Returns the number of tuples removed.
    ///
    /// An owned `target` is compacted in place.  A borrowed one is replaced
    /// by an owned copy of its survivors at the first semijoin that removes
    /// a row, so a `target` no semijoin shrinks is never copied — how the
    /// Yannakakis reducer works on a database's stored relations.  A target
    /// that loses rows either way ends up without a dedup index.
    ///
    /// All governor checkpoints fire during the read-only mask computation;
    /// the compaction or copy runs unconditionally after the mask is
    /// complete.  An abort therefore returns `Err` with `target` exactly as
    /// it was, still borrowed if it was — the rollback guarantee the
    /// reducer relies on.
    pub fn retain_semijoin(
        &self,
        target: &mut Cow<'_, Relation>,
        other: &Relation,
    ) -> Result<usize, EngineError> {
        let (mask, stats) = target.semijoin_mask(other, self.gov)?;
        let removed = mask.iter().filter(|&&keep| !keep).count();
        if M::ENABLED {
            self.metrics.record_op(OpMetrics {
                kind: OpKind::Semijoin,
                kernel: stats.kernel,
                probed: target.len as u64,
                kept: (target.len - removed) as u64,
                built: stats.built as u64,
                build_rows: stats.build_rows as u64,
            });
        }
        if removed > 0 {
            match target {
                Cow::Owned(owned) => owned.compact(&mask),
                Cow::Borrowed(stored) => {
                    *target = Cow::Owned(stored.survivors(&mask, stored.len - removed));
                }
            }
        }
        Ok(removed)
    }
}

impl PartialEq for Relation {
    /// Equal when name, attributes and tuple contents all agree.
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name && self.same_contents(other)
    }
}

impl Eq for Relation {}

impl fmt::Display for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{} tuples]", self.name, self.len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::NaiveRelation;
    use crate::Database;
    use hypergraph::Hypergraph;

    fn setup() -> (Hypergraph, Relation, Relation) {
        let h = Hypergraph::from_edges([vec!["A", "B"], vec!["B", "C"]]).unwrap();
        let (a, b, c) = (
            h.node("A").unwrap(),
            h.node("B").unwrap(),
            h.node("C").unwrap(),
        );
        let mut r = Relation::new("R", h.node_set(["A", "B"]).unwrap());
        r.insert(Tuple::from_pairs([(a, 1), (b, 10)]));
        r.insert(Tuple::from_pairs([(a, 2), (b, 20)]));
        r.insert(Tuple::from_pairs([(a, 3), (b, 10)]));
        let mut s = Relation::new("S", h.node_set(["B", "C"]).unwrap());
        s.insert(Tuple::from_pairs([(b, 10), (c, 100)]));
        s.insert(Tuple::from_pairs([(b, 10), (c, 200)]));
        s.insert(Tuple::from_pairs([(b, 30), (c, 300)]));
        (h, r, s)
    }

    #[test]
    fn tuple_projection_and_join() {
        let (h, _, _) = setup();
        let (a, b, c) = (
            h.node("A").unwrap(),
            h.node("B").unwrap(),
            h.node("C").unwrap(),
        );
        let t = Tuple::from_pairs([(a, 1), (b, 10)]);
        let u = Tuple::from_pairs([(b, 10), (c, 5)]);
        let v = Tuple::from_pairs([(b, 11), (c, 5)]);
        assert!(t.joinable(&u));
        assert!(!t.joinable(&v));
        let joined = t.join(&u).unwrap();
        assert_eq!(joined.len(), 3);
        assert_eq!(joined.get(c), Some(&Value::Int(5)));
        assert_eq!(t.project(&h.node_set(["A"]).unwrap()).len(), 1);
        assert!(t.join(&v).is_none());
    }

    #[test]
    fn tuple_set_replaces_and_keeps_order() {
        let (h, _, _) = setup();
        let (a, b) = (h.node("A").unwrap(), h.node("B").unwrap());
        let mut t = Tuple::from_pairs([(b, 1), (a, 2), (b, 3)]);
        assert_eq!(t.len(), 2);
        assert_eq!(t.get(b), Some(&Value::Int(3)));
        t.set(a, 9);
        assert_eq!(t.get(a), Some(&Value::Int(9)));
        let attrs: Vec<NodeId> = t.iter().map(|(n, _)| n).collect();
        assert_eq!(attrs, vec![a, b]);
    }

    #[test]
    fn natural_join_matches_shared_attributes() {
        let (h, r, s) = setup();
        let j = r.join(&s);
        // Tuples with B=10 join: (1,10)×2, (3,10)×2 → 4; B=20/30 do not.
        assert_eq!(j.len(), 4);
        assert_eq!(j.attributes(), &h.node_set(["A", "B", "C"]).unwrap());
        for t in j.tuples() {
            assert_eq!(t.get(h.node("B").unwrap()), Some(&Value::Int(10)));
        }
    }

    #[test]
    fn join_is_commutative_on_contents() {
        let (_, r, s) = setup();
        assert!(r.join(&s).same_contents(&s.join(&r)));
    }

    #[test]
    fn projection_eliminates_duplicates() {
        let (h, r, _) = setup();
        let p = r.project(&h.node_set(["B"]).unwrap());
        assert_eq!(p.len(), 2); // values 10 and 20
    }

    #[test]
    fn projection_onto_nothing_yields_one_empty_tuple() {
        let (_, r, _) = setup();
        let p = r.project(&NodeSet::new());
        assert_eq!(p.len(), 1);
        assert!(p.attributes().is_empty());
        assert!(p.tuples().next().unwrap().is_empty());
    }

    #[test]
    fn semijoin_keeps_matching_tuples_only() {
        let (h, r, s) = setup();
        let sj = r.semijoin(&s);
        assert_eq!(sj.len(), 2); // A=1 and A=3 (B=10 matches), A=2 (B=20) dropped
        assert_eq!(sj.attributes(), &h.node_set(["A", "B"]).unwrap());
        // Semijoin against an empty relation empties the result.
        let empty = Relation::new("E", h.node_set(["B", "C"]).unwrap());
        assert!(r.semijoin(&empty).is_empty());
    }

    #[test]
    fn retain_semijoin_matches_semijoin() {
        let (_, r, s) = setup();
        let expected = r.semijoin(&s);
        let mut target = Cow::Owned(r);
        let removed = ExecCtx::new().retain_semijoin(&mut target, &s).unwrap();
        assert_eq!(removed, 1);
        assert!(target.same_contents(&expected));
        // Idempotent afterwards.
        assert_eq!(ExecCtx::new().retain_semijoin(&mut target, &s), Ok(0));
    }

    #[test]
    fn cross_pool_operations_translate_handles() {
        // r and s are built independently, so they intern into different
        // pools; every kernel must still agree with the shared-pool result.
        let (h, r, s) = setup();
        assert!(!r.pool().same_pool(s.pool()));
        let mut s_shared = Relation::with_pool("S", s.attributes().clone(), r.pool().clone());
        for t in s.tuples() {
            s_shared.insert(t);
        }
        assert!(s.same_contents(&s_shared));
        assert!(r.join(&s).same_contents(&r.join(&s_shared)));
        assert!(r.semijoin(&s).same_contents(&r.semijoin(&s_shared)));
        let _ = h;
    }

    #[test]
    fn insert_values_matches_insert() {
        let (h, r, _) = setup();
        let mut v = Relation::new("V", h.node_set(["A", "B"]).unwrap());
        // Column order is ascending attribute id: A then B.
        assert_eq!(v.columns().len(), 2);
        assert!(v.insert_values([1i64, 10]));
        assert!(v.insert_values([2i64, 20]));
        assert!(v.insert_values([3i64, 10]));
        assert!(!v.insert_values([1i64, 10]));
        assert!(v.same_contents(&r));
    }

    #[test]
    #[should_panic(expected = "tuple attributes do not match")]
    fn schema_mismatch_panics() {
        let (h, mut r, _) = setup();
        let c = h.node("C").unwrap();
        r.insert(Tuple::from_pairs([(c, 1)]));
    }

    #[test]
    fn display_contains_rows() {
        let (h, r, _) = setup();
        let s = r.display(h.universe());
        assert!(s.contains("R (A, B)"));
        assert!(s.lines().count() >= 4);
        let t = r.tuples().next().unwrap();
        assert!(t.display(h.universe()).starts_with('('));
    }

    #[test]
    fn contains_and_tuple_roundtrip() {
        let (h, r, _) = setup();
        let (a, b) = (h.node("A").unwrap(), h.node("B").unwrap());
        assert!(r.contains(&Tuple::from_pairs([(a, 1), (b, 10)])));
        assert!(!r.contains(&Tuple::from_pairs([(a, 1), (b, 11)])));
        assert!(!r.contains(&Tuple::from_pairs([(a, 1)])));
        for (i, t) in r.tuples().enumerate() {
            assert_eq!(r.tuple_at(i), t);
            assert!(r.contains(&t));
        }
    }

    #[test]
    fn join_with_disjoint_schemas_is_cross_product() {
        let h = Hypergraph::from_edges([vec!["A"], vec!["B"]]).unwrap();
        let (a, b) = (h.node("A").unwrap(), h.node("B").unwrap());
        let mut r = Relation::new("R", h.node_set(["A"]).unwrap());
        r.insert(Tuple::from_pairs([(a, 1)]));
        r.insert(Tuple::from_pairs([(a, 2)]));
        let mut s = Relation::new("S", h.node_set(["B"]).unwrap());
        s.insert(Tuple::from_pairs([(b, 7)]));
        s.insert(Tuple::from_pairs([(b, 8)]));
        s.insert(Tuple::from_pairs([(b, 9)]));
        assert_eq!(r.join(&s).len(), 6);
    }

    /// The join gives the oracle's tuples, from either side.
    #[test]
    fn join_matches_the_oracle_from_either_side() {
        let (_, r, s) = setup();
        let joined = r.join(&s);
        assert!(naive_join(&r, &s).agrees_with(&joined));
        assert!(s.join(&r).same_contents(&joined));
    }

    /// `r ⋈ s` by the reference oracle.
    fn naive_join(r: &Relation, s: &Relation) -> NaiveRelation {
        NaiveRelation::from_relation(r).join(&NaiveRelation::from_relation(s))
    }

    /// `r ⋉ s` by the reference oracle.
    fn naive_semijoin(r: &Relation, s: &Relation) -> NaiveRelation {
        NaiveRelation::from_relation(r).semijoin(&NaiveRelation::from_relation(s))
    }

    /// Grows `r`'s pool past the dense bound of any semijoin with `s`, so
    /// the sort-merge mask runs.
    fn past_the_dense_bound(r: &Relation, s: &Relation) {
        grow_pool_to(r.pool(), 8 * (r.len() + s.len()) + 1025);
    }

    /// The sort-merge semijoin against the reference oracle: a shared pool,
    /// an empty build side.
    #[test]
    fn sort_merge_semijoin_matches_the_oracle() {
        let (_, r, s) = setup();
        let s = s.reintern_into(r.pool());
        past_the_dense_bound(&r, &s);
        let (out, agg) = metered_semijoin(&r, &s);
        assert_eq!(agg.sortmerge_ops, 1);
        assert!(naive_semijoin(&r, &s).agrees_with(&out));
        let empty = Relation::with_pool("E", s.attributes().clone(), r.pool().clone());
        assert!(r.semijoin(&empty).is_empty());
    }

    #[test]
    fn sort_merge_kernels_translate_across_pools() {
        let (_, r, s) = setup();
        assert!(!r.pool().same_pool(s.pool()));
        assert!(naive_join(&r, &s).agrees_with(&r.join(&s)));
        past_the_dense_bound(&r, &s);
        let (out, agg) = metered_semijoin(&r, &s);
        assert_eq!(agg.sortmerge_ops, 1);
        assert!(naive_semijoin(&r, &s).agrees_with(&out));
    }

    #[test]
    fn multi_column_keys_sort_merge() {
        // Two shared attributes force the general (slice-compare) sort path.
        let h = Hypergraph::from_edges([vec!["A", "B", "C"], vec!["A", "B", "D"]]).unwrap();
        let (a, b, c, d) = (
            h.node("A").unwrap(),
            h.node("B").unwrap(),
            h.node("C").unwrap(),
            h.node("D").unwrap(),
        );
        let mut r = Relation::new("R", h.node_set(["A", "B", "C"]).unwrap());
        let mut s =
            Relation::with_pool("S", h.node_set(["A", "B", "D"]).unwrap(), r.pool().clone());
        for i in 0..20i64 {
            r.insert(Tuple::from_pairs([(a, i % 3), (b, i % 4), (c, i)]));
            s.insert(Tuple::from_pairs([(a, i % 4), (b, i % 3), (d, i)]));
        }
        assert!(naive_join(&r, &s).agrees_with(&r.join(&s)));
        past_the_dense_bound(&r, &s);
        let (out, agg) = metered_semijoin(&r, &s);
        assert_eq!(agg.sortmerge_ops, 1);
        assert!(naive_semijoin(&r, &s).agrees_with(&out));
    }

    /// One index rule: insertion builds the dedup index, and no kernel's
    /// output carries one — not a join's, a semijoin's, either projection's,
    /// a re-interned copy's, a snapshot load's, nor the reducer's survivor
    /// copy or in-place compaction.  Until the first insertion membership is
    /// a scan; that insertion builds the index and rejects a duplicate.
    #[test]
    fn kernel_outputs_are_unindexed_until_their_first_insert() {
        let (h, r, s) = setup();
        let s = s.reintern_into(r.pool());
        assert!(r.index.is_some(), "insertion builds the index");
        let mut db = Database::empty(h.clone());
        for t in r.tuples() {
            db.insert(h.edge_ids().next().unwrap(), t);
        }
        let loaded = Database::from_snapshot_bytes(&db.to_snapshot_bytes()).unwrap();
        let mut survivor = Cow::Borrowed(&r);
        assert_eq!(ExecCtx::new().retain_semijoin(&mut survivor, &s), Ok(1));
        assert!(
            matches!(survivor, Cow::Owned(_)),
            "a shrunk target is copied"
        );
        let mut compacted = Cow::Owned(r.clone());
        assert_eq!(ExecCtx::new().retain_semijoin(&mut compacted, &s), Ok(1));
        let outputs = [
            r.join(&s),
            r.semijoin(&s),
            r.project(&h.node_set(["A", "B", "C"]).unwrap()),
            r.project(&h.node_set(["B"]).unwrap()),
            r.reintern_into(&ValuePool::new()),
            loaded.relations()[0].clone(),
            survivor.into_owned(),
            compacted.into_owned(),
        ];
        for mut out in outputs {
            let name = out.name().to_owned();
            assert!(out.index.is_none(), "{name} carries an index");
            let stored = out.tuple_at(0);
            assert!(out.contains(&stored), "{name}: a scan finds a stored tuple");
            let len = out.len();
            assert!(!out.insert(stored), "{name}: a stored tuple went in twice");
            assert!(out.index.is_some(), "{name}: insertion built no index");
            let fresh = Tuple::from_pairs(out.columns().iter().map(|&c| (c, 999)));
            assert!(out.insert(fresh.clone()) && !out.insert(fresh));
            assert_eq!(out.len(), len + 1, "{name}");
        }
    }

    #[test]
    fn identity_projection_copies_or_moves_without_hashing() {
        let (h, r, _) = setup();
        let all = h.node_set(["A", "B", "C"]).unwrap();
        // By reference: the rows are copied, no index comes along, the name
        // is the projection's.
        let copy = r.project(&all);
        assert_eq!(copy.name(), "π(R)");
        assert_eq!(copy.handle_rows(), r.handle_rows());
        assert!(copy.index.is_none());
        assert!(copy.same_contents(&r));
        // Consuming: the very same row buffer comes back.
        let buffer = copy.rows.as_ptr();
        let moved = copy.into_project(&all);
        assert_eq!(moved.name(), "π(π(R))");
        assert_eq!(moved.rows.as_ptr(), buffer);
        // A projection that drops a column still deduplicates, consuming
        // or not, in a table of its own it does not hand on.
        let b = h.node_set(["B"]).unwrap();
        let proper = moved.clone().into_project(&b);
        assert_eq!(proper.len(), 2);
        assert!(proper.index.is_none());
        assert!(proper.same_contents(&r.project(&b)));
    }

    #[test]
    fn presized_table_never_regrows() {
        let mut table = RowTable::with_capacity(1000);
        let slots = table.slots.len();
        for id in 0..1000u32 {
            table.reserve(id as usize, |j| hash_row(&[j]));
            let (slot, occupied) = table.find_slot(hash_row(&[id]), |j| j == id);
            assert!(!occupied);
            table.set(slot, id);
        }
        assert_eq!(table.slots.len(), slots, "sized once, never re-hashed");
        assert!(RowTable::with_capacity(0).find(0, |_| true).is_none());
    }

    /// `same_contents` reads rows, never the index: a compacted relation,
    /// whose index is gone, compares equal and stays unindexed.
    #[test]
    fn same_contents_works_with_stale_index() {
        let (_, r, s) = setup();
        let expected = r.semijoin(&s);
        let mut target = Cow::Owned(r);
        ExecCtx::new().retain_semijoin(&mut target, &s).unwrap();
        assert!(target.index.is_none());
        assert!(target.same_contents(&expected));
        assert!(expected.same_contents(&target));
        assert!(target.index.is_none(), "same_contents built an index");
    }

    /// A duplicated row displacing a missing one is not the same contents,
    /// whichever side holds it, same pool or not.
    #[test]
    fn same_contents_rejects_a_duplicate_standing_in_for_a_missing_row() {
        let (_, r, _) = setup();
        let two = Relation::from_raw_parts(
            "two".into(),
            r.attributes.clone(),
            r.pool.clone(),
            r.rows[..2 * r.width()].to_vec(),
            2,
        )
        .unwrap();
        let doubled = [row_of(&r.rows, r.width(), 0); 2].concat();
        let dup = Relation::from_raw_parts(
            "dup".into(),
            r.attributes.clone(),
            r.pool.clone(),
            doubled,
            2,
        )
        .unwrap();
        let foreign = two.reintern_into(&ValuePool::new());
        assert!(!foreign.pool.same_pool(&dup.pool) && foreign.same_contents(&two));
        for good in [&two, &foreign] {
            assert!(!good.same_contents(&dup));
            assert!(!dup.same_contents(good));
        }
    }

    #[test]
    fn distinct_key_ratio_reflects_duplication() {
        let h = Hypergraph::from_edges([vec!["A", "B"]]).unwrap();
        let (a, b) = (h.node("A").unwrap(), h.node("B").unwrap());
        let mut dup = Relation::new("D", h.node_set(["A", "B"]).unwrap());
        let mut uniq = Relation::new("U", h.node_set(["A", "B"]).unwrap());
        for i in 0..500i64 {
            dup.insert(Tuple::from_pairs([(a, 7), (b, i)]));
            uniq.insert(Tuple::from_pairs([(a, i), (b, i)]));
        }
        // Column A: constant in `dup`, unique in `uniq`.
        assert!(dup.estimate_distinct_key_ratio(&[0]) < 0.05);
        assert!(uniq.estimate_distinct_key_ratio(&[0]) > 0.9);
        // Whole-row keys are distinct by construction.
        assert_eq!(dup.estimate_distinct_key_ratio(&[0, 1]), 1.0);
    }

    /// `r ⋉ s` with a collecting sink: the reduced relation plus the
    /// semijoin counters (one op, so exactly one of the per-kernel counters
    /// is 1, and it is never hash's).
    fn metered_semijoin(r: &Relation, s: &Relation) -> (Relation, crate::metrics::OpAgg) {
        let sink = crate::metrics::CollectingSink::new();
        let mut out = Cow::Borrowed(r);
        ExecCtx::new()
            .metrics(&sink)
            .retain_semijoin(&mut out, s)
            .unwrap();
        let agg = sink.snapshot().semijoins;
        assert_eq!(agg.ops, 1);
        assert_eq!(agg.hash_ops, 0, "no semijoin hashes");
        (out.into_owned(), agg)
    }

    /// Interns fresh values until `pool` holds exactly `len`.
    fn grow_pool_to(pool: &ValuePool, len: usize) {
        assert!(pool.len() <= len);
        let mut next = 1_000_000i64;
        while pool.len() < len {
            pool.intern(&Value::Int(next));
            next += 1;
        }
    }

    #[test]
    fn dense_key_space_bound_is_eight_bits_per_row_plus_floor() {
        // One column: the radix itself against 8·rows + 1024.
        assert_eq!(dense_key_space(1040, 1, 2), Some(1040));
        assert_eq!(dense_key_space(1041, 1, 2), None);
        assert_eq!(dense_key_space(1024, 1, 0), Some(1024));
        assert_eq!(dense_key_space(1025, 1, 0), None);
        // Two and three columns: the radix raised to the key width.
        assert_eq!(dense_key_space(40, 2, 72), Some(1600));
        assert_eq!(dense_key_space(41, 2, 72), None);
        assert_eq!(dense_key_space(10, 3, 0), Some(1000));
        assert_eq!(dense_key_space(11, 3, 0), None);
        // An empty pool has an empty key space.
        assert_eq!(dense_key_space(0, 2, 0), Some(0));
        // Overflow of radix^k is "does not fit", not a wrapped small number.
        assert_eq!(dense_key_space(1 << 20, 4, 1 << 30), None);
        assert_eq!(dense_key_space(usize::MAX, 2, usize::MAX), None);
        // The bound itself saturates instead of wrapping.
        assert_eq!(dense_key_space(1 << 40, 1, usize::MAX), Some(1 << 40));
    }

    #[test]
    fn dense_kernel_runs_up_to_the_bound_and_sort_merge_past_it() {
        let (_, r, s) = setup();
        let s = s.reintern_into(r.pool());
        let expected = naive_semijoin(&r, &s);
        let rows = r.len() + s.len();
        // Single-column key: the key space is the pool size.  Exactly at
        // 8·rows + 1024 the bitset is taken…
        grow_pool_to(r.pool(), 8 * rows + 1024);
        let (out, agg) = metered_semijoin(&r, &s);
        assert_eq!((agg.dense_ops, agg.sortmerge_ops), (1, 0));
        assert!(expected.agrees_with(&out));
        // …with the counters the other kernels report: distinct build keys
        // (B ∈ {10, 30}), build-side rows, probed and kept.
        assert_eq!(
            (agg.built, agg.build_rows, agg.probed, agg.kept),
            (2, 3, 3, 2)
        );
        // …and one value past it the semijoin sorts, to the same result.
        grow_pool_to(r.pool(), 8 * rows + 1024 + 1);
        let (out, agg) = metered_semijoin(&r, &s);
        assert_eq!((agg.dense_ops, agg.sortmerge_ops), (0, 1));
        assert!(expected.agrees_with(&out));
        assert_eq!((agg.built, agg.build_rows), (2, 3));

        // Two-column key over a 40-value pool: 40² = 1600 = 8·72 + 1024.
        let h = Hypergraph::from_edges([vec!["A", "B", "C"], vec!["B", "C", "D"]]).unwrap();
        let mut r = Relation::new("R", h.node_set(["A", "B", "C"]).unwrap());
        let mut s =
            Relation::with_pool("S", h.node_set(["B", "C", "D"]).unwrap(), r.pool().clone());
        for i in 0..36i64 {
            r.insert_values([i % 40, (i + 1) % 40, (i + 2) % 40]);
            s.insert_values([(i + 3) % 40, (i + 4) % 40, (i + 5) % 40]);
        }
        grow_pool_to(r.pool(), 40);
        assert_eq!((r.len() + s.len(), r.pool().len()), (72, 40));
        let expected = naive_semijoin(&r, &s);
        assert!(!expected.is_empty() && expected.len() < r.len());
        let (out, agg) = metered_semijoin(&r, &s);
        assert_eq!((agg.dense_ops, agg.sortmerge_ops), (1, 0));
        assert!(expected.agrees_with(&out));
        grow_pool_to(r.pool(), 41);
        let (out, agg) = metered_semijoin(&r, &s);
        assert_eq!((agg.dense_ops, agg.sortmerge_ops), (0, 1));
        assert!(expected.agrees_with(&out));
    }

    #[test]
    fn oversized_key_spaces_fall_back_without_allocating() {
        // A 2²⁰-value pool: a 3-column key space is 2⁶⁰ bits (an allocation
        // no machine survives, so passing at all shows none was attempted)
        // and a 4-column one overflows `usize`.
        let pool = ValuePool::from_ascending_values((0..1i64 << 20).map(Value::Int).collect());
        let names = ["A", "B", "C", "D", "L", "R"];
        let h = Hypergraph::from_edges([names.to_vec()]).unwrap();
        for k in [3usize, 4] {
            let attrs = |extra: &'static str| {
                h.node_set(names[..k].iter().copied().chain([extra]))
                    .unwrap()
            };
            let mut r = Relation::with_pool("R", attrs("L"), pool.clone());
            let mut s = Relation::with_pool("S", attrs("R"), pool.clone());
            for i in 0..50i64 {
                let key = (0..k as i64).map(|c| (i * 7 + c) % 1000);
                r.insert_values(key.clone().chain([i]));
                if i % 3 == 0 {
                    s.insert_values(key.chain([i + 1]));
                }
            }
            let (out, agg) = metered_semijoin(&r, &s);
            assert_eq!((agg.dense_ops, agg.sortmerge_ops), (0, 1), "k = {k}");
            assert_eq!(out.len(), 17);
            assert!(naive_semijoin(&r, &s).agrees_with(&out));
        }
    }

    #[test]
    fn dense_kernel_translates_and_skips_unknown_values_across_pools() {
        // `s` interns into its own pool, numbered differently from `r`'s and
        // holding values `r`'s pool has never seen.
        let (h, r, _) = setup();
        let (b, c) = (h.node("B").unwrap(), h.node("C").unwrap());
        let mut s = Relation::new("S", h.node_set(["B", "C"]).unwrap());
        s.insert(Tuple::from_pairs([(b, 777), (c, 888)]));
        s.insert(Tuple::from_pairs([(b, 20), (c, 1)]));
        s.insert(Tuple::from_pairs([(b, 999), (c, 20)]));
        let (out, agg) = metered_semijoin(&r, &s);
        assert_eq!(agg.dense_ops, 1);
        // Only B = 20 translates; the two unknown-B rows are skipped.
        assert_eq!((agg.built, agg.build_rows, agg.kept), (1, 3, 1));
        assert!(naive_semijoin(&r, &s).agrees_with(&out));
    }

    /// The cross-pool boundary only reads: a semijoin or a contents
    /// comparison across pools interns nothing into either pool, and a
    /// value one pool lacks outside the semijoin key costs no row its match.
    #[test]
    fn cross_pool_semijoin_and_same_contents_intern_nothing() {
        let (h, r, _) = setup();
        let (_, twin, _) = setup();
        let (b, c) = (h.node("B").unwrap(), h.node("C").unwrap());
        let mut s = Relation::new("S", h.node_set(["B", "C"]).unwrap());
        s.insert(Tuple::from_pairs([(b, 10), (c, 555)]));
        s.insert(Tuple::from_pairs([(b, 777), (c, 1)]));
        // Over r's pool, (B=10, C=20) holds a C value s's pool never saw.
        let mut t = Relation::with_pool("T", s.attributes().clone(), r.pool().clone());
        t.insert(Tuple::from_pairs([(b, 10), (c, 20)]));
        t.insert(Tuple::from_pairs([(b, 20), (c, 1)]));
        let lens = || (r.pool().len(), s.pool().len(), twin.pool().len());
        let before = lens();
        assert_eq!(r.semijoin(&s).len(), 2, "C = 555 is unknown to r's pool");
        assert!(r.same_contents(&twin) && twin.same_contents(&r));
        assert!(!s.same_contents(&t) && !t.same_contents(&s));
        assert_eq!(lens(), before, "a cross-pool read interned a value");
    }

    #[test]
    fn dedup_survives_many_inserts_and_growth() {
        let h = Hypergraph::from_edges([vec!["A", "B"]]).unwrap();
        let (a, b) = (h.node("A").unwrap(), h.node("B").unwrap());
        let mut r = Relation::new("R", h.node_set(["A", "B"]).unwrap());
        for i in 0..1000i64 {
            assert!(r.insert(Tuple::from_pairs([(a, i), (b, i % 7)])));
        }
        for i in 0..1000i64 {
            assert!(!r.insert(Tuple::from_pairs([(a, i), (b, i % 7)])));
        }
        assert_eq!(r.len(), 1000);
    }

    /// The reference permutation the counting/radix single-key sort must
    /// reproduce bit-for-bit: the packed `(key, id)` comparison sort.
    fn packed_comparison_sort(keys: &[u32]) -> Vec<u32> {
        let mut packed: Vec<u64> = keys
            .iter()
            .enumerate()
            .map(|(i, &key)| (u64::from(key) << 32) | i as u64)
            .collect();
        packed.sort_unstable();
        packed
            .into_iter()
            .map(|p| (p & 0xffff_ffff) as u32)
            .collect()
    }

    /// The reference permutation for wider keys: key slices compared, the
    /// stable sort keeping equal keys in ascending id order.
    fn slice_comparison_sort(keys: &[u32], k: usize, n: usize) -> Vec<u32> {
        let mut ids: Vec<u32> = (0..n as u32).collect();
        ids.sort_by_key(|&id| &keys[id as usize * k..(id as usize + 1) * k]);
        ids
    }

    mod sort_props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            /// Dense keys (the counting-sort regime: handles smaller than a
            /// few times the row count) sort exactly like the comparison
            /// sort, including the ascending-id tie rule.
            #[test]
            fn counting_sort_matches_comparison_sort(
                keys in proptest::collection::vec(0u32..200, 0..400),
            ) {
                let n = keys.len();
                prop_assert_eq!(sort_ids_by_key(&keys, 1, n), packed_comparison_sort(&keys));
            }

            /// Sparse keys below the radix floor (the packed fallback)
            /// agree with the comparison sort too.
            #[test]
            fn sparse_small_sort_matches_comparison_sort(
                keys in proptest::collection::vec(0u32..u32::MAX, 0..300),
            ) {
                let n = keys.len();
                prop_assert_eq!(sort_ids_by_key(&keys, 1, n), packed_comparison_sort(&keys));
            }

            /// The radix regime proper: sparse keys on inputs past the
            /// radix floor (seed-expanded so the case stays cheap to
            /// generate) match the comparison sort.
            #[test]
            fn radix_sort_matches_comparison_sort(seed in 0u64..5_000) {
                let n = SORT_RADIX_MIN_ROWS + (seed as usize % 100);
                let mut x = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
                let keys: Vec<u32> = (0..n)
                    .map(|_| {
                        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                        (x >> 32) as u32
                    })
                    .collect();
                prop_assert_eq!(sort_ids_by_key(&keys, 1, n), packed_comparison_sort(&keys));
            }

            /// Wider keys, the LSD passes: whatever mix of duplicate-heavy,
            /// dense (largest key exactly `4n`), just-sparse (`4n + 1`),
            /// sparse and constant columns, on both sides of both row
            /// thresholds, the permutation is the slice comparison's.
            #[test]
            fn multi_column_sort_matches_slice_comparison(seed in any::<u64>(), k in 2usize..5) {
                let mut x = seed | 1;
                let mut roll = |bound: u64| {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    (x >> 33) % bound
                };
                for n in [
                    0,
                    1,
                    2,
                    SORT_COUNTING_MIN_ROWS - 1,
                    SORT_COUNTING_MIN_ROWS,
                    300,
                    SORT_RADIX_MIN_ROWS - 1,
                    SORT_RADIX_MIN_ROWS,
                    SORT_RADIX_MIN_ROWS + 57,
                ] {
                    let mut keys = vec![0u32; n * k];
                    for c in 0..k {
                        // (keys drawn below, one planted key that sets the maximum)
                        let (bound, planted) = match roll(5) {
                            0 => (5, 4),
                            1 => (n as u64 + 1, 4 * n as u64),
                            2 => (n as u64 + 1, 4 * n as u64 + 1),
                            3 => (1 << 32, u64::from(u32::MAX)),
                            _ => (1, 0),
                        };
                        for i in 0..n {
                            keys[i * k + c] = roll(bound) as u32;
                        }
                        if n > 0 {
                            keys[roll(n as u64) as usize * k + c] = planted as u32;
                        }
                    }
                    prop_assert_eq!(
                        sort_ids_by_key(&keys, k, n),
                        slice_comparison_sort(&keys, k, n),
                        "n = {}, k = {}", n, k
                    );
                }
            }
        }
    }

    #[test]
    fn single_key_sort_covers_all_three_paths() {
        // Tiny input: packed comparison path.
        let tiny = [5u32, 1, 5, 0];
        assert_eq!(sort_ids_by_key(&tiny, 1, 4), vec![3, 1, 0, 2]);
        // Dense input past the tiny threshold: counting path.
        let dense: Vec<u32> = (0..200u32).map(|i| i % 9).collect();
        assert_eq!(
            sort_ids_by_key(&dense, 1, 200),
            packed_comparison_sort(&dense)
        );
        // Sparse input past the radix floor: radix path.
        let n = SORT_RADIX_MIN_ROWS + 13;
        let sparse: Vec<u32> = (0..n as u32)
            .map(|i| i.wrapping_mul(2_654_435_761))
            .collect();
        assert_eq!(
            sort_ids_by_key(&sparse, 1, n),
            packed_comparison_sort(&sparse)
        );
        // Sparse input below the radix floor: packed comparison path.
        let small_sparse: Vec<u32> = sparse[..200].to_vec();
        assert_eq!(
            sort_ids_by_key(&small_sparse, 1, 200),
            packed_comparison_sort(&small_sparse)
        );
        // Empty input.
        assert!(sort_ids_by_key(&[], 1, 0).is_empty());
    }

    #[test]
    fn wide_key_sort_orders_last_column_first_and_keeps_ties_by_id() {
        // Two columns of three values over 90 rows: every key repeats ten
        // times, so a pass that reordered equal digits would show.
        let keys: Vec<u32> = (0..90u32).flat_map(|i| [i % 3, (i / 3) % 3]).collect();
        let sorted = sort_ids_by_key(&keys, 2, 90);
        assert_eq!(sorted, slice_comparison_sort(&keys, 2, 90));
        assert_eq!(sorted[..10], [0, 9, 18, 27, 36, 45, 54, 63, 72, 81]);
        // Zero-width keys all tie: the identity, on either side of the
        // counting threshold.
        assert_eq!(sort_ids_by_key(&[], 0, 3), [0, 1, 2]);
        assert_eq!(sort_ids_by_key(&[], 0, 100), (0..100).collect::<Vec<u32>>());
    }
}
