//! Value interning.
//!
//! The columnar engine stores tuples as fixed-width rows of `u32` *handles*
//! rather than owned [`Value`]s.  A [`ValuePool`] is the dictionary behind
//! those handles: interning the same value twice yields the same handle, so
//! the join/semijoin/projection kernels compare and hash plain integers and
//! never touch a `Value` (or allocate) on the hot path.
//!
//! One pool is shared by every relation of a [`Database`](crate::Database)
//! and by every relation derived from them (joins, projections, reductions),
//! so handle equality *is* value equality within a query.  Relations built
//! independently carry their own pools; a binary kernel detects that via
//! [`ValuePool::same_pool`] and, once at its door, copies the other operand
//! into its own pool, so the kernel itself only ever compares handles of
//! one pool.
//!
//! A pool also knows whether its handle order is still [`Value`] order
//! ([`ValuePool::is_ordered`]): a snapshot load installs its dictionary in
//! value order, and interning in ascending order keeps it so.  Whoever
//! needs values sorted — an answer frame ranking its cells — can then rank
//! handles instead of comparing values; in any other pool [`value_order`]
//! sorts them, the one value sort the snapshot saver uses too.

use crate::relation::sort_ids_by_key;
use crate::value::Value;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::{Arc, Mutex};

/// Handle reserved as "no handle" (used by row tables and translations).
pub(crate) const NO_HANDLE: u32 = u32::MAX;

/// A fast, non-cryptographic hasher for the dedup index (rotate-xor-
/// multiply over 8-byte chunks, the classic FxHash construction).
/// Interning sits on the data-load hot path — 10⁶-value snapshots, bulk
/// text parses — where SipHash's DoS resistance buys nothing: handles are
/// engine-internal, and a pathological dataset degrades one load, not a
/// shared service.
#[derive(Debug, Default)]
struct FxHasher(u64);

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.0 = (self.0.rotate_left(5) ^ u64::from_le_bytes(buf))
                .wrapping_mul(0x517c_c1b7_2722_0a95);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

#[derive(Debug)]
struct PoolInner {
    values: Vec<Value>,
    index: FastMap<Value, u32>,
    /// How many of `values` are reflected in `index`.  A snapshot load
    /// installs the whole dictionary with `indexed == 0` (the loader has
    /// already validated the values distinct), and the first operation
    /// that needs the dedup index folds the tail in — queries that never
    /// intern never pay for the index at all.
    indexed: usize,
    /// True while `values` is strictly ascending, so that handle order is
    /// value order.  An empty pool is; the first intern of a value below
    /// the last one clears the mark, for good.
    ordered: bool,
}

impl Default for PoolInner {
    fn default() -> Self {
        PoolInner {
            values: Vec::new(),
            index: FastMap::default(),
            indexed: 0,
            ordered: true,
        }
    }
}

impl PoolInner {
    /// Folds `values[indexed..]` into the dedup index.  The tail is
    /// distinct by construction (interns go through the index; snapshot
    /// loads validate), so first-handle-wins is only a debug concern.
    fn catch_up(&mut self) {
        if self.indexed == self.values.len() {
            return;
        }
        self.index.reserve(self.values.len() - self.indexed);
        for h in self.indexed..self.values.len() {
            let prev = self.index.insert(
                self.values[h].clone(),
                u32::try_from(h).expect("value pool overflow"),
            );
            debug_assert!(prev.is_none(), "duplicate value in unindexed pool tail");
        }
        self.indexed = self.values.len();
    }
}

/// A shared, thread-safe dictionary interning [`Value`]s to `u32` handles.
///
/// Cloning a `ValuePool` clones the *handle to the same dictionary*; use
/// [`ValuePool::same_pool`] to test identity.
#[derive(Debug, Clone, Default)]
pub struct ValuePool {
    inner: Arc<Mutex<PoolInner>>,
}

impl ValuePool {
    /// Creates an empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// True if the two handles point at the same dictionary, i.e. handles
    /// from one are directly comparable with handles from the other.
    pub fn same_pool(&self, other: &ValuePool) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }

    /// Interns `v`, returning its handle.  Idempotent.
    pub fn intern(&self, v: &Value) -> u32 {
        let mut inner = self.inner.lock().expect("value pool lock");
        Self::intern_locked(&mut inner, v)
    }

    fn intern_locked(inner: &mut PoolInner, v: &Value) -> u32 {
        inner.catch_up();
        if let Some(&h) = inner.index.get(v) {
            return h;
        }
        let h = u32::try_from(inner.values.len()).expect("value pool overflow");
        assert!(h < NO_HANDLE - 1, "value pool overflow");
        if inner.ordered && inner.values.last().is_some_and(|last| last > v) {
            inner.ordered = false;
        }
        inner.values.push(v.clone());
        inner.index.insert(v.clone(), h);
        inner.indexed = inner.values.len();
        h
    }

    /// Interns a whole row of values under a single lock, appending the
    /// handles to `out`.
    pub fn intern_row<'a, I>(&self, values: I, out: &mut Vec<u32>)
    where
        I: IntoIterator<Item = &'a Value>,
    {
        let mut inner = self.inner.lock().expect("value pool lock");
        for v in values {
            out.push(Self::intern_locked(&mut inner, v));
        }
    }

    /// Builds a pool whose dictionary is exactly `values`, `values[h]`
    /// behind handle `h`, *without* building the dedup index — the
    /// snapshot loader's "dedup-index-free" path.  The caller must have
    /// proved `values` strictly ascending (the loader's neighbour
    /// comparison does), so the pool starts ordered with no scan of its
    /// own; the index is rebuilt lazily by the first `intern`/`get`.
    ///
    /// # Panics
    /// Panics if `values` is too large for `u32` handles.
    pub(crate) fn from_ascending_values(values: Vec<Value>) -> Self {
        let n = u32::try_from(values.len()).expect("value pool overflow");
        assert!(n < NO_HANDLE - 1, "value pool overflow");
        debug_assert!(values.windows(2).all(|pair| pair[0] < pair[1]));
        Self {
            inner: Arc::new(Mutex::new(PoolInner {
                values,
                ..PoolInner::default()
            })),
        }
    }

    /// The handle of `v`, if it has been interned.
    pub fn get(&self, v: &Value) -> Option<u32> {
        let mut inner = self.inner.lock().expect("value pool lock");
        inner.catch_up();
        inner.index.get(v).copied()
    }

    /// The value behind `h`.
    ///
    /// # Panics
    /// Panics if `h` was not produced by this pool.
    pub fn value(&self, h: u32) -> Value {
        self.inner.lock().expect("value pool lock").values[h as usize].clone()
    }

    /// Lends the dictionary, indexed by handle, to `f` under the pool lock —
    /// a bulk read of many handles with one lock and no [`Value`] clones —
    /// together with whether handle order is value order there
    /// ([`ValuePool::is_ordered`], read under the same lock).  `f` must not
    /// call back into this pool.
    ///
    /// The lock is the whole database's: every relation of a database, and
    /// every answer derived from them, shares this pool, so whatever `f`
    /// does is serialized against every other connection reading or
    /// interning.  Hold it for the reads, not for the answer: copy out what
    /// the dictionary must supply (ideally in ascending handle order, one
    /// front-to-back pass) and do the rest after `f` returns.
    pub fn with_values<R>(&self, f: impl FnOnce(&[Value], bool) -> R) -> R {
        let inner = self.inner.lock().expect("value pool lock");
        f(&inner.values, inner.ordered)
    }

    /// True when handle order is [`Value`] order: every handle below
    /// another holds the smaller value.  A snapshot-loaded pool starts so
    /// and an empty one is; interning a value below the largest one held
    /// clears the mark, for good.
    pub fn is_ordered(&self) -> bool {
        self.inner.lock().expect("value pool lock").ordered
    }

    /// A snapshot of the whole dictionary, indexed by handle — one lock for
    /// a bulk decode instead of one per [`ValuePool::value`] call.
    pub(crate) fn snapshot(&self) -> Vec<Value> {
        self.inner.lock().expect("value pool lock").values.clone()
    }

    /// Number of distinct values interned.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("value pool lock").values.len()
    }

    /// True if nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A translation table from this pool's handles to `to`'s handles:
    /// `table[h]` is the handle in `to` of the value behind `h` here.
    ///
    /// With `intern == false`, values unknown to `to` map to
    /// [`NO_HANDLE`] (they can never match a row of a relation over `to`);
    /// with `intern == true` they are interned into `to` first, so the table
    /// never contains `NO_HANDLE`.
    pub(crate) fn translation_to(&self, to: &ValuePool, intern: bool) -> Vec<u32> {
        // Snapshot first so the two pool locks are never held together.
        let values: Vec<Value> = self.inner.lock().expect("value pool lock").values.clone();
        let mut to_inner = to.inner.lock().expect("value pool lock");
        to_inner.catch_up();
        values
            .iter()
            .map(|v| {
                if intern {
                    Self::intern_locked(&mut to_inner, v)
                } else {
                    to_inner.index.get(v).copied().unwrap_or(NO_HANDLE)
                }
            })
            .collect()
    }
}

/// `handles`, handles into the dictionary `values`, in ascending [`Value`]
/// order: the one sort behind the two value orders a format fixes — a
/// snapshot's dictionary and an answer frame's cells.  `values` is read
/// once, at `handles` (front to back when they ascend); after that the
/// sorts never read it through an index: integers are ranked by the LSD
/// sorter over their offsets from the least one, as two words each (one
/// counting pass per word when their range is dense), strings by a sort
/// of contiguous `(&str, handle)` pairs.  The handles are expected
/// distinct; a repeated one comes back repeated.
///
/// # Panics
/// Panics if a handle is out of range for `values`.
pub fn value_order(values: &[Value], handles: impl IntoIterator<Item = u32>) -> Vec<u32> {
    let mut ints: Vec<(i64, u32)> = Vec::new();
    let mut strs: Vec<(&str, u32)> = Vec::new();
    for h in handles {
        match &values[h as usize] {
            Value::Int(i) => ints.push((*i, h)),
            Value::Str(s) => strs.push((s, h)),
        }
    }
    let min = ints.iter().map(|&(i, _)| i).min().unwrap_or(0);
    let words = |&(i, _): &(i64, u32)| {
        let offset = i.wrapping_sub(min) as u64;
        [(offset >> 32) as u32, offset as u32]
    };
    let keys: Vec<u32> = ints.iter().flat_map(words).collect();
    let ints = sort_ids_by_key(&keys, 2, ints.len())
        .into_iter()
        .map(|id| ints[id as usize].1);
    strs.sort_unstable();
    // `Value` orders every integer before every string.
    ints.chain(strs.into_iter().map(|(_, h)| h)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent_and_dense() {
        let pool = ValuePool::new();
        let a = pool.intern(&Value::Int(7));
        let b = pool.intern(&Value::str("x"));
        assert_eq!(pool.intern(&Value::Int(7)), a);
        assert_ne!(a, b);
        assert_eq!(pool.len(), 2);
        assert_eq!(pool.value(a), Value::Int(7));
        assert_eq!(pool.get(&Value::str("x")), Some(b));
        assert_eq!(pool.get(&Value::str("y")), None);
        assert!(!pool.is_empty());
    }

    #[test]
    fn intern_row_batches_under_one_lock() {
        let pool = ValuePool::new();
        let vals = [Value::Int(1), Value::Int(2), Value::Int(1)];
        let mut out = Vec::new();
        pool.intern_row(vals.iter(), &mut out);
        assert_eq!(out.len(), 3);
        assert_eq!(out[0], out[2]);
        assert_eq!(pool.len(), 2);
    }

    #[test]
    fn dense_pools_rebuild_their_index_lazily() {
        let pool =
            ValuePool::from_ascending_values(vec![Value::Int(20), Value::Int(30), Value::str("x")]);
        // `value` never needs the index…
        assert_eq!(pool.value(2), Value::str("x"));
        // …but `get` and `intern` fold the tail in on first use.
        assert_eq!(pool.get(&Value::str("x")), Some(2));
        assert_eq!(pool.intern(&Value::Int(30)), 1);
        assert_eq!(pool.intern(&Value::Int(99)), 3);
        assert_eq!(pool.len(), 4);
        // Translations into a dense pool also see the full dictionary.
        let other = ValuePool::new();
        other.intern(&Value::Int(20));
        let dense = ValuePool::from_ascending_values(vec![Value::Int(7), Value::Int(20)]);
        assert_eq!(other.translation_to(&dense, false), vec![1]);
    }

    #[test]
    fn ascending_interns_keep_the_order_mark() {
        let pool = ValuePool::new();
        assert!(pool.is_ordered(), "an empty pool is ordered");
        for v in [
            Value::Int(-3),
            Value::Int(5),
            Value::str("a"),
            Value::str("b"),
        ] {
            pool.intern(&v);
        }
        // Re-interning a value it holds adds nothing, so breaks nothing.
        pool.intern(&Value::Int(-3));
        assert!(pool.is_ordered());
        assert!(pool.with_values(|_, ordered| ordered));
    }

    #[test]
    fn an_out_of_order_intern_clears_the_mark_for_good() {
        let pool = ValuePool::new();
        pool.intern(&Value::str("b"));
        pool.intern(&Value::Int(7));
        assert!(!pool.is_ordered(), "every Int sorts before every Str");
        pool.intern(&Value::str("z"));
        assert!(!pool.is_ordered());
        assert!(!pool.with_values(|_, ordered| ordered));

        // A loaded dictionary starts ordered; a value below its largest
        // clears the mark, one above keeps it.
        let loaded = ValuePool::from_ascending_values(vec![Value::Int(1), Value::Int(4)]);
        assert!(loaded.is_ordered());
        loaded.intern(&Value::Int(9));
        assert!(loaded.is_ordered());
        loaded.intern(&Value::Int(2));
        assert!(!loaded.is_ordered());
    }

    #[test]
    fn a_loaded_snapshots_pools_carry_the_mark() {
        use crate::Database;
        use hypergraph::{EdgeId, Hypergraph};
        let schema = Hypergraph::from_edges([vec!["A", "B"]]).unwrap();
        let mut db = Database::empty(schema);
        db.insert_values(EdgeId(0), [Value::str("late"), Value::Int(3)]);
        db.insert_values(EdgeId(0), [Value::Int(-8), Value::Int(1)]);
        assert!(!db.pool().is_ordered(), "inserted out of value order");
        let loaded = Database::from_snapshot_bytes(&db.to_snapshot_bytes()).unwrap();
        assert!(loaded.pool().is_ordered());
        assert!(loaded.relations().iter().all(|r| r.pool().is_ordered()));
    }

    #[test]
    fn value_order_is_value_ord_across_the_whole_integer_range() {
        let narrow: Vec<Value> = [9, -3, 4, 0].map(Value::Int).to_vec();
        let mut wide = narrow.clone();
        wide.extend([i64::MAX, i64::MIN].map(Value::Int));
        wide.extend(["b", "", "a"].map(Value::str));
        let all = |values: &[Value]| (0..values.len() as u32).collect::<Vec<_>>();
        // A proper subset, out of handle order: integers, strings and both
        // extremes, with values left out between them.
        let some = vec![7, 5, 1, 4, 8, 2];
        for (values, handles) in [(&narrow, all(&narrow)), (&wide, all(&wide)), (&wide, some)] {
            let ordered: Vec<&Value> = value_order(values, handles.iter().copied())
                .into_iter()
                .map(|h| &values[h as usize])
                .collect();
            let mut expected: Vec<&Value> = handles.iter().map(|&h| &values[h as usize]).collect();
            expected.sort();
            assert_eq!(ordered, expected);
        }
    }

    #[test]
    fn clones_share_identity_but_fresh_pools_do_not() {
        let pool = ValuePool::new();
        let twin = pool.clone();
        assert!(pool.same_pool(&twin));
        let h = twin.intern(&Value::Int(3));
        assert_eq!(pool.value(h), Value::Int(3));
        assert!(!pool.same_pool(&ValuePool::new()));
    }

    #[test]
    fn translation_maps_known_values_and_flags_unknown() {
        let a = ValuePool::new();
        let b = ValuePool::new();
        a.intern(&Value::Int(1));
        a.intern(&Value::Int(2));
        let h1 = b.intern(&Value::Int(2));
        let table = a.translation_to(&b, false);
        assert_eq!(table, vec![NO_HANDLE, h1]);
        let table = a.translation_to(&b, true);
        assert_eq!(table[1], h1);
        assert_ne!(table[0], NO_HANDLE);
        assert_eq!(b.value(table[0]), Value::Int(1));
    }
}
