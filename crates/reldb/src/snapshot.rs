//! Versioned binary snapshots of a [`Database`].
//!
//! Text data files re-parse, re-validate and re-intern every tuple on every
//! load; at 10⁶–10⁷ tuples that dominates end-to-end query time.  A
//! snapshot instead stores the engine's in-memory representation in the
//! order a loader wants it — the interning dictionaries and the
//! fixed-width `u32`-handle row buffers — so loading is one sequential pass
//! that pushes every value and row straight into the structure that keeps
//! it.  No dedup index is stored or built: each pool's intern index is
//! left for the first intern or lookup to rebuild, and a loaded
//! [`Relation`] has no row index until something inserts into it (only
//! insertion builds one), so queries that never intern never pay for
//! either.
//!
//! The saver puts everything in order.  A pool's handles are renumbered to
//! the *ranks* of their values, so the dictionary is stored in value order
//! and the value behind handle `h` is simply the `h`-th one read; and each
//! relation's rows, mapped to those ranks, are stored in lexicographic
//! order.  Both orders are strict, and checking them is a neighbour
//! comparison per value and per row: that is how a load proves the
//! dictionary distinct (the invariant handle equality rests on) and every
//! relation a set (the invariant every kernel rests on), with no hash
//! table and no second copy.
//!
//! # Layout (version 2, all integers little-endian)
//!
//! ```text
//! magic      8 B   b"HQSNAP\r\n"   (the \r\n catches text-mode mangling)
//! version    u32   bumped on any incompatible change; readers reject
//!                  other versions with a structured error
//! schema     node_count u32, then node names in id order (u32 len + UTF-8);
//!            edge_count u32, then per edge: label (u32 len + UTF-8),
//!            node_count u32, node ids (u32 each)
//! pools      pool_count u32, then per pool: value_count u32, then the
//!            dictionary in strictly ascending value order (tag u8:
//!            0 = Int + i64, 1 = Str + u32 len + UTF-8); the i-th value
//!            is the value of handle i
//! relations  one per schema edge, in edge order: pool index u32,
//!            row count u64, then row_count × width u32 handles, the rows
//!            in strictly ascending lexicographic order
//! ```
//!
//! Databases whose relations live in different [`ValuePool`]s (cross-pool
//! joins translate lazily) are preserved as-is: each distinct pool is
//! ranked and dumped once and relations reference it by index, so a round
//! trip changes neither contents nor pool sharing structure.
//!
//! # Loading
//!
//! [`Database::load_snapshot`] streams the file through a small buffer —
//! there is never a file-sized copy in memory — and
//! [`Database::from_snapshot_bytes`] runs the same decoder over a slice.
//! Rows move from the read buffer (at most 64 KiB) straight into each
//! relation's row buffer.
//!
//! # Failure semantics
//!
//! Corruption never panics.  Every read is bounds-checked against the
//! input's length, and every structural invariant (value and row order,
//! handle ranges, counts, schema consistency) is validated before a
//! [`Database`] is assembled, so a truncated, bit-flipped, wrong-version
//! or wrong-magic input yields [`EngineError::Parse`] — with the byte
//! offset in the `line` field — or [`EngineError::Io`], and the caller's
//! existing state is untouched (the loader only ever builds a fresh
//! database).

use crate::database::Database;
use crate::govern::EngineError;
use crate::pool::{value_order, ValuePool};
use crate::relation::{sort_ids_by_key, Relation};
use crate::value::Value;
use hypergraph::HypergraphBuilder;
use std::collections::HashSet;
use std::io::{BufRead, BufReader, ErrorKind};
use std::path::Path;

/// The 8-byte file signature. `\r\n` at the end catches accidental newline
/// translation, the same trick as PNG's signature.
pub(crate) const MAGIC: [u8; 8] = *b"HQSNAP\r\n";

/// Current snapshot format version. Bumped on any incompatible layout
/// change; readers reject every other version with a structured error.
pub(crate) const FORMAT_VERSION: u32 = 2;

/// The read buffer of a streamed load: the most snapshot bytes a load
/// holds outside the structures it builds.
const READ_BUFFER: usize = 1 << 16;

/// Whether `bytes` starts with the snapshot signature — the sniff the CLI
/// uses to accept a snapshot anywhere a text data file is accepted.
pub fn is_snapshot(bytes: &[u8]) -> bool {
    bytes.len() >= MAGIC.len() && bytes[..MAGIC.len()] == MAGIC
}

fn corrupt(at: usize, message: impl Into<String>) -> EngineError {
    EngineError::Parse {
        line: at,
        message: message.into(),
    }
}

// ---------------------------------------------------------------- encoding

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

fn put_value(out: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Int(i) => {
            out.push(0);
            out.extend_from_slice(&i.to_le_bytes());
        }
        Value::Str(s) => {
            out.push(1);
            put_str(out, s);
        }
    }
}

/// Serializes `db` into the version-2 snapshot byte layout.
pub(crate) fn encode(db: &Database) -> Vec<u8> {
    let schema = db.schema();
    // Distinct pools in first-use order: the database's own pool first,
    // then any relation pools not identical to one already collected.
    let mut pools: Vec<ValuePool> = vec![db.pool().clone()];
    let pool_index: Vec<u32> = db
        .relations()
        .iter()
        .map(|r| match pools.iter().position(|p| p.same_pool(r.pool())) {
            Some(i) => i as u32,
            None => {
                pools.push(r.pool().clone());
                (pools.len() - 1) as u32
            }
        })
        .collect();

    let mut out = Vec::with_capacity(64 + db.tuple_count() * 16);
    out.extend_from_slice(&MAGIC);
    put_u32(&mut out, FORMAT_VERSION);

    // Schema: node names in id order fix the numbering, then labeled edges.
    put_u32(&mut out, schema.node_count() as u32);
    for n in schema.nodes().iter() {
        put_str(&mut out, schema.universe().name(n));
    }
    put_u32(&mut out, schema.edge_count() as u32);
    for e in schema.edges() {
        put_str(&mut out, &e.label);
        put_u32(&mut out, e.nodes.len() as u32);
        for n in e.nodes.iter() {
            put_u32(&mut out, n.0);
        }
    }

    // Pools: each dictionary in value order, so a handle's stored number
    // is its value's rank; `ranks[p][h]` renumbers pool `p`'s handles.
    put_u32(&mut out, pools.len() as u32);
    let ranks: Vec<Vec<u32>> = pools
        .iter()
        .map(|p| {
            p.with_values(|values, _| {
                put_u32(&mut out, values.len() as u32);
                let mut rank = vec![0u32; values.len()];
                for (r, h) in (0u32..).zip(value_order(values, 0..values.len() as u32)) {
                    put_value(&mut out, &values[h as usize]);
                    rank[h as usize] = r;
                }
                rank
            })
        })
        .collect();

    // Relations, in schema-edge order: rows renumbered to ranks, then
    // written in lexicographic order.
    let mut ranked: Vec<u32> = Vec::new();
    for (r, &pi) in db.relations().iter().zip(&pool_index) {
        put_u32(&mut out, pi);
        put_u64(&mut out, r.len() as u64);
        let rank = &ranks[pi as usize];
        let w = r.attributes().len();
        ranked.clear();
        ranked.extend(r.raw_rows().iter().map(|&h| rank[h as usize]));
        for id in sort_ids_by_key(&ranked, w, r.len()) {
            let at = id as usize * w;
            for &h in &ranked[at..at + w] {
                put_u32(&mut out, h);
            }
        }
    }
    out
}

// ---------------------------------------------------------------- decoding

/// Bounds-checked cursor over a snapshot of known total length `len`;
/// every failure reports the byte offset it happened at.
struct Reader<R> {
    src: R,
    at: usize,
    len: usize,
}

impl<R: BufRead> Reader<R> {
    fn fill(&mut self, buf: &mut [u8], what: &str) -> Result<(), EngineError> {
        let n = buf.len();
        let truncated = |at| {
            corrupt(
                at,
                format!("truncated snapshot: {n} byte(s) of {what} missing"),
            )
        };
        if self.len - self.at < n {
            return Err(truncated(self.at));
        }
        self.src.read_exact(buf).map_err(|e| match e.kind() {
            ErrorKind::UnexpectedEof => truncated(self.at),
            _ => read_failed(self.at, e),
        })?;
        self.at += n;
        Ok(())
    }

    fn bytes<const N: usize>(&mut self, what: &str) -> Result<[u8; N], EngineError> {
        let mut b = [0u8; N];
        self.fill(&mut b, what)?;
        Ok(b)
    }

    fn u8(&mut self, what: &str) -> Result<u8, EngineError> {
        Ok(self.bytes::<1>(what)?[0])
    }

    fn u32(&mut self, what: &str) -> Result<u32, EngineError> {
        Ok(u32::from_le_bytes(self.bytes(what)?))
    }

    fn u64(&mut self, what: &str) -> Result<u64, EngineError> {
        Ok(u64::from_le_bytes(self.bytes(what)?))
    }

    fn i64(&mut self, what: &str) -> Result<i64, EngineError> {
        Ok(i64::from_le_bytes(self.bytes(what)?))
    }

    fn string(&mut self, what: &str) -> Result<String, EngineError> {
        let at = self.at;
        let len = self.u32(what)?;
        let mut bytes = vec![0u8; self.checked_count(len.into(), 1, what)?];
        self.fill(&mut bytes, what)?;
        String::from_utf8(bytes).map_err(|e| corrupt(at, format!("{what} is not UTF-8: {e}")))
    }

    /// Appends `n` words to `out`, straight from the source's buffer (a
    /// word split across the buffer's end is read on its own).
    fn words(&mut self, n: usize, out: &mut Vec<u32>, what: &str) -> Result<(), EngineError> {
        let end = out.len() + n;
        while out.len() < end {
            let at = self.at;
            let buf = self.src.fill_buf().map_err(|e| read_failed(at, e))?;
            let take = buf.len().min((end - out.len()) * 4) / 4 * 4;
            if take == 0 {
                out.push(self.u32(what)?);
                continue;
            }
            let word = |c: &[u8]| u32::from_le_bytes(c.try_into().expect("4-byte chunk"));
            out.extend(buf[..take].chunks_exact(4).map(word));
            self.src.consume(take);
            self.at += take;
        }
        Ok(())
    }

    /// A length prefix for `per`-byte-sized items must leave the remaining
    /// input plausible — this turns absurd (bit-flipped) counts into a
    /// structured error instead of an out-of-memory allocation attempt.
    fn checked_count(&self, n: u64, per: usize, what: &str) -> Result<usize, EngineError> {
        let remaining = (self.len - self.at) as u64;
        if n.saturating_mul(per as u64) > remaining {
            return Err(corrupt(
                self.at,
                format!("{what} count {n} exceeds the remaining {remaining} byte(s)"),
            ));
        }
        Ok(n as usize)
    }

    /// The input must end where the last relation does: nothing left of
    /// the declared length, and nothing more to read.
    fn finish(mut self) -> Result<(), EngineError> {
        let at = self.at;
        let unread = self.src.fill_buf().map_err(|e| read_failed(at, e))?.len();
        let extra = (self.len - at).max(unread);
        if extra > 0 {
            return Err(corrupt(
                at,
                format!("{extra} trailing byte(s) after the last relation"),
            ));
        }
        Ok(())
    }
}

fn read_failed(at: usize, e: std::io::Error) -> EngineError {
    EngineError::Io(format!("cannot read snapshot at byte {at}: {e}"))
}

/// The most node-set words (one `u64` per 64 nodes, per edge) a schema
/// section may need, for an input of `len` bytes: 16 bytes of node sets
/// per input byte, plus 1 MiB.  An edge costs as few as 12 bytes to store
/// but ⌈N/64⌉ words to build, so without this bound a small file could
/// demand gigabytes before any edge is checked.
fn schema_word_bound(len: usize) -> u64 {
    2 * len as u64 + (1 << 17)
}

/// Reassembles a [`Database`] from the `len` snapshot bytes `src` yields.
/// See the module docs for the layout and failure semantics.
fn decode(src: impl BufRead, len: usize) -> Result<Database, EngineError> {
    let mut r = Reader { src, at: 0, len };
    if r.bytes::<8>("magic")? != MAGIC {
        return Err(corrupt(0, "not a snapshot: bad magic bytes"));
    }
    let version = r.u32("format version")?;
    if version == 1 {
        return Err(corrupt(
            MAGIC.len(),
            format!(
                "snapshot format version 1 is no longer read (expected {FORMAT_VERSION}): \
                 re-save the database with `hyperq snapshot save`"
            ),
        ));
    }
    if version != FORMAT_VERSION {
        return Err(corrupt(
            MAGIC.len(),
            format!("unsupported snapshot format version {version} (expected {FORMAT_VERSION})"),
        ));
    }

    // Schema.  Names are checked distinct through a hash set, and the
    // node sets the edges will need are bounded before any is built.
    let schema_err = |at, m: String| corrupt(at, format!("schema section: {m}"));
    let raw_nodes = r.u32("node count")?;
    let node_count = r.checked_count(raw_nodes.into(), 5, "node")?;
    let mut builder = HypergraphBuilder::new();
    let mut names: Vec<String> = Vec::with_capacity(node_count);
    let mut seen: HashSet<String> = HashSet::with_capacity(node_count);
    for _ in 0..node_count {
        let at = r.at;
        let name = r.string("node name")?;
        if !seen.insert(name.clone()) {
            return Err(schema_err(at, format!("duplicate node name {name:?}")));
        }
        builder = builder.node(&name);
        names.push(name);
    }
    let at = r.at;
    let raw_edges = r.u32("edge count")?;
    let edge_count = r.checked_count(raw_edges.into(), 8, "edge")?;
    let words = edge_count as u64 * (node_count as u64).div_ceil(64);
    if words > schema_word_bound(len) {
        return Err(schema_err(
            at,
            format!(
                "{edge_count} edges over {node_count} nodes need {words} node-set words, \
                 more than a {len}-byte snapshot may"
            ),
        ));
    }
    for _ in 0..edge_count {
        let at = r.at;
        let label = r.string("edge label")?;
        let raw_n = r.u32("edge node count")?;
        let n = r.checked_count(raw_n.into(), 4, "edge node")?;
        let mut edge_nodes: Vec<&str> = Vec::with_capacity(n);
        for _ in 0..n {
            let id = r.u32("edge node id")? as usize;
            let name = names
                .get(id)
                .ok_or_else(|| schema_err(at, format!("edge {label:?} references node id {id}")))?;
            edge_nodes.push(name);
        }
        builder = builder.edge(label, edge_nodes);
    }
    let schema = builder
        .build()
        .map_err(|e| schema_err(r.at, format!("invalid schema: {e}")))?;
    if schema.node_count() != node_count {
        return Err(schema_err(r.at, "node numbering is not dense".into()));
    }

    // Pools: values arrive in strictly ascending order — a neighbour
    // comparison per value proves them distinct — and each is pushed
    // straight into the dictionary, in handle order.
    let raw_pools = r.u32("pool count")?;
    let pool_count = r.checked_count(raw_pools.into(), 4, "pool")?;
    if pool_count == 0 {
        return Err(corrupt(r.at, "snapshot declares zero value pools"));
    }
    let mut pools: Vec<ValuePool> = Vec::with_capacity(pool_count);
    for _ in 0..pool_count {
        let raw_n = r.u32("pool value count")?;
        // ≥ 5 bytes per value: a tag, then an i64 or a u32 length.
        let n = r.checked_count(raw_n.into(), 5, "pool value")?;
        let mut values: Vec<Value> = Vec::with_capacity(n);
        for _ in 0..n {
            let at = r.at;
            let v = match r.u8("value tag")? {
                0 => Value::Int(r.i64("integer value")?),
                1 => Value::Str(r.string("string value")?),
                t => return Err(corrupt(at, format!("unknown value tag {t}"))),
            };
            if let Some(prev) = values.last() {
                if *prev >= v {
                    return Err(corrupt(
                        at,
                        format!("pool dictionary not strictly ascending ({prev} then {v})"),
                    ));
                }
            }
            values.push(v);
        }
        pools.push(ValuePool::from_ascending_values(values));
    }

    // Relations, one per schema edge in edge order: rows move from the
    // read buffer into the relation's buffer, then one neighbour scan
    // proves them strictly ascending, hence a set.
    let mut relations: Vec<Relation> = Vec::with_capacity(schema.edge_count());
    for e in schema.edges() {
        let at = r.at;
        let pi = r.u32("relation pool index")? as usize;
        let pool = pools
            .get(pi)
            .ok_or_else(|| corrupt(at, format!("relation {:?} references pool {pi}", e.label)))?
            .clone();
        let width = e.nodes.len();
        let raw_len = r.u64("relation row count")?;
        let len = r.checked_count(raw_len, width * 4, "row")?;
        let rows_at = r.at;
        let mut rows: Vec<u32> = Vec::with_capacity(len * width);
        r.words(len * width, &mut rows, "row data")?;
        if let Some(i) = first_unordered_row(&rows, width) {
            return Err(corrupt(
                rows_at + i * width * 4,
                format!(
                    "relation {:?}: row {i} is not above row {} (rows must be strictly \
                     ascending: repeated or out of order)",
                    e.label,
                    i - 1
                ),
            ));
        }
        let rel = Relation::from_raw_parts(e.label.clone(), e.nodes.clone(), pool, rows, len)
            .map_err(|m| corrupt(at, format!("relation {:?}: {m}", e.label)))?;
        relations.push(rel);
    }
    r.finish()?;
    Database::new(schema, relations).map_err(|e| {
        corrupt(
            0,
            format!("snapshot assembles an inconsistent database: {e}"),
        )
    })
}

/// The index of the first `width`-wide row of `rows` that is not strictly
/// above its predecessor in lexicographic order, if any.  Schema edges are
/// never empty, so `width > 0`.
fn first_unordered_row(rows: &[u32], width: usize) -> Option<usize> {
    let mut pairs = rows
        .chunks_exact(width)
        .zip(rows.chunks_exact(width).skip(1));
    pairs.position(|(prev, row)| prev >= row).map(|i| i + 1)
}

// ------------------------------------------------------------- public API

impl Database {
    /// Serializes the database into the versioned binary snapshot format
    /// (see the [module docs](self) for the layout) and writes it to
    /// `path`.  I/O failures surface as [`EngineError::Io`].
    pub fn save_snapshot(&self, path: impl AsRef<Path>) -> Result<(), EngineError> {
        let path = path.as_ref();
        std::fs::write(path, encode(self))
            .map_err(|e| EngineError::Io(format!("cannot write snapshot {}: {e}", path.display())))
    }

    /// The snapshot byte image [`save_snapshot`](Database::save_snapshot)
    /// writes — for callers managing their own I/O.
    pub fn to_snapshot_bytes(&self) -> Vec<u8> {
        encode(self)
    }

    /// Loads a database from a snapshot file written by
    /// [`save_snapshot`](Database::save_snapshot), streaming it: the load
    /// holds the dictionaries and rows it keeps plus a small buffer, never
    /// a copy of the file.
    ///
    /// Corruption in any form — wrong magic, unsupported version,
    /// truncation, bytes past the last relation, disordered values or
    /// rows, out-of-range handles or counts — yields a structured
    /// [`EngineError::Parse`] (whose `line` field carries the byte offset)
    /// and never panics; I/O failures yield [`EngineError::Io`].  The
    /// loader only ever constructs a fresh database, so a failed load
    /// cannot disturb existing state.
    ///
    /// # Examples
    ///
    /// ```
    /// use hypergraph::{EdgeId, Hypergraph};
    /// use reldb::{Database, Tuple};
    ///
    /// let schema = Hypergraph::from_edges([vec!["A", "B"]]).unwrap();
    /// let (a, b) = (schema.node("A").unwrap(), schema.node("B").unwrap());
    /// let mut db = Database::empty(schema);
    /// db.insert(EdgeId(0), Tuple::from_pairs([(a, 1), (b, 2)]));
    ///
    /// let path = std::env::temp_dir().join("hq-snapshot-doc.hqs");
    /// db.save_snapshot(&path).unwrap();
    /// let loaded = Database::load_snapshot(&path).unwrap();
    /// assert_eq!(loaded.tuple_count(), 1);
    /// # std::fs::remove_file(&path).ok();
    /// ```
    pub fn load_snapshot(path: impl AsRef<Path>) -> Result<Database, EngineError> {
        let path = path.as_ref();
        let io = |e: std::io::Error| {
            EngineError::Io(format!("cannot read snapshot {}: {e}", path.display()))
        };
        let file = std::fs::File::open(path).map_err(io)?;
        let len = file.metadata().map_err(io)?.len();
        let len = usize::try_from(len).unwrap_or(usize::MAX);
        decode(
            BufReader::with_capacity(len.clamp(1, READ_BUFFER), file),
            len,
        )
    }

    /// Reassembles a database from in-memory snapshot bytes — the same
    /// decoder as [`load_snapshot`](Database::load_snapshot), run over a
    /// slice, with the same failure semantics.
    pub fn from_snapshot_bytes(bytes: &[u8]) -> Result<Database, EngineError> {
        decode(bytes, bytes.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relation::Tuple;
    use hypergraph::{EdgeId, Hypergraph};

    fn sample_db() -> Database {
        let h = Hypergraph::from_edges([vec!["A", "B"], vec!["B", "C"]]).unwrap();
        let (a, b, c) = (
            h.node("A").unwrap(),
            h.node("B").unwrap(),
            h.node("C").unwrap(),
        );
        let mut db = Database::empty(h);
        for i in 0..50i64 {
            db.insert(EdgeId(0), Tuple::from_pairs([(a, i), (b, i % 7)]));
            db.insert(
                EdgeId(1),
                Tuple::from_pairs([(b, Value::Int(i % 7)), (c, Value::str(format!("v{i}")))]),
            );
        }
        db
    }

    fn same_database(x: &Database, y: &Database) -> bool {
        x.schema().same_edge_sets(y.schema())
            && x.relations().len() == y.relations().len()
            && x.relations()
                .iter()
                .zip(y.relations())
                .all(|(a, b)| a.same_contents(b))
    }

    #[test]
    fn round_trip_preserves_contents() {
        let db = sample_db();
        let loaded = Database::from_snapshot_bytes(&db.to_snapshot_bytes()).unwrap();
        assert!(same_database(&db, &loaded));
        // One shared pool in, one shared pool out.
        assert!(loaded.relations()[0]
            .pool()
            .same_pool(loaded.relations()[1].pool()));
    }

    #[test]
    fn round_trip_preserves_cross_pool_structure() {
        let h = Hypergraph::from_edges([vec!["A", "B"], vec!["B", "C"]]).unwrap();
        let (a, b, c) = (
            h.node("A").unwrap(),
            h.node("B").unwrap(),
            h.node("C").unwrap(),
        );
        let mut r = Relation::new("e0", h.node_set(["A", "B"]).unwrap());
        let mut s = Relation::new("e1", h.node_set(["B", "C"]).unwrap());
        r.insert(Tuple::from_pairs([(a, 1), (b, 2)]));
        s.insert(Tuple::from_pairs([(b, 2), (c, 3)]));
        let db = Database::new(h, vec![r, s]).unwrap();
        assert!(!db.relations()[0].pool().same_pool(db.relations()[1].pool()));
        let loaded = Database::from_snapshot_bytes(&db.to_snapshot_bytes()).unwrap();
        assert!(same_database(&db, &loaded));
        assert!(!loaded.relations()[0]
            .pool()
            .same_pool(loaded.relations()[1].pool()));
    }

    #[test]
    fn empty_database_round_trips() {
        let h = Hypergraph::from_edges([vec!["A", "B"]]).unwrap();
        let db = Database::empty(h);
        let loaded = Database::from_snapshot_bytes(&db.to_snapshot_bytes()).unwrap();
        assert!(same_database(&db, &loaded));
        assert_eq!(loaded.tuple_count(), 0);
    }

    #[test]
    fn wrong_magic_is_a_structured_error() {
        let mut bytes = sample_db().to_snapshot_bytes();
        bytes[0] = b'X';
        match Database::from_snapshot_bytes(&bytes) {
            Err(EngineError::Parse { line: 0, message }) => {
                assert!(message.contains("magic"), "{message}")
            }
            other => panic!("expected Parse, got {other:?}"),
        }
    }

    #[test]
    fn wrong_version_is_a_structured_error() {
        let mut bytes = sample_db().to_snapshot_bytes();
        bytes[8..12].copy_from_slice(&99u32.to_le_bytes());
        match Database::from_snapshot_bytes(&bytes) {
            Err(EngineError::Parse { message, .. }) => {
                assert!(message.contains("version 99"), "{message}")
            }
            other => panic!("expected Parse, got {other:?}"),
        }
    }

    #[test]
    fn truncation_at_every_prefix_never_panics() {
        let bytes = sample_db().to_snapshot_bytes();
        for cut in 0..bytes.len() {
            assert!(
                matches!(
                    Database::from_snapshot_bytes(&bytes[..cut]),
                    Err(EngineError::Parse { .. })
                ),
                "prefix of {cut} byte(s) must fail structurally"
            );
        }
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut bytes = sample_db().to_snapshot_bytes();
        let end = bytes.len();
        bytes.push(0);
        let (at, message) = parse_error(&bytes);
        assert_eq!(at, end);
        assert!(message.starts_with("1 trailing byte"), "{message}");
    }

    /// A minimal hand-built image — schema `R(A B)`, one pool holding
    /// `values` as written, and `rows` as written — for exercising the
    /// pool- and row-section validators directly.
    fn image(values: &[Value], rows: &[[u32; 2]]) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&MAGIC);
        put_u32(&mut out, FORMAT_VERSION);
        put_u32(&mut out, 2); // node count
        put_str(&mut out, "A");
        put_str(&mut out, "B");
        put_u32(&mut out, 1); // edge count
        put_str(&mut out, "R");
        put_u32(&mut out, 2); // edge width
        put_u32(&mut out, 0); // node ids
        put_u32(&mut out, 1);
        put_u32(&mut out, 1); // pool count
        put_u32(&mut out, values.len() as u32);
        for v in values {
            put_value(&mut out, v);
        }
        put_u32(&mut out, 0); // relation pool index
        put_u64(&mut out, rows.len() as u64);
        for &h in rows.iter().flatten() {
            put_u32(&mut out, h);
        }
        out
    }

    fn parse_error(bytes: &[u8]) -> (usize, String) {
        match Database::from_snapshot_bytes(bytes) {
            Err(EngineError::Parse { line, message }) => (line, message),
            other => panic!("expected Parse, got {other:?}"),
        }
    }

    #[test]
    fn handles_are_value_ranks_and_rows_are_sorted() {
        let h = Hypergraph::builder().edge("R", ["A", "B"]).build().unwrap();
        let (a, b) = (h.node("A").unwrap(), h.node("B").unwrap());
        let mut db = Database::empty(h);
        // Interned out of order: 30, 10, 20, "x".
        for (x, y) in [
            (30, Value::str("x")),
            (10, Value::Int(20)),
            (10, Value::Int(10)),
        ] {
            db.insert(EdgeId(0), Tuple::from_pairs([(a, Value::Int(x)), (b, y)]));
        }
        let bytes = db.to_snapshot_bytes();
        let ranked = [10, 20, 30].map(Value::Int);
        let mut values = ranked.to_vec();
        values.push(Value::str("x"));
        assert_eq!(bytes, image(&values, &[[0, 0], [0, 1], [2, 3]]));
        let loaded = Database::from_snapshot_bytes(&bytes).unwrap();
        let pool = loaded.relations()[0].pool();
        assert_eq!(pool.value(2), Value::Int(30));
        // The lazily rebuilt intern index agrees with the dictionary.
        assert_eq!(pool.get(&Value::str("x")), Some(3));
        assert!(same_database(&db, &loaded));
    }

    #[test]
    fn duplicate_or_disordered_pool_values_are_rejected() {
        for values in [
            [Value::Int(1), Value::Int(1)], // duplicate
            [Value::Int(2), Value::Int(1)], // out of order
        ] {
            let (_, message) = parse_error(&image(&values, &[]));
            assert!(message.contains("ascending"), "{message}");
        }
    }

    #[test]
    fn repeated_or_swapped_rows_are_rejected_at_their_offset() {
        let values = [Value::Int(1), Value::Int(2)];
        let ok = image(&values, &[[0, 1], [1, 0]]);
        let first_row = ok.len() - 16;
        assert_eq!(Database::from_snapshot_bytes(&ok).unwrap().tuple_count(), 2);
        for rows in [[[0, 1], [0, 1]], [[1, 0], [0, 1]]] {
            let (at, message) = parse_error(&image(&values, &rows));
            assert_eq!(at, first_row + 8, "the second row's offset");
            assert!(message.contains("row 1"), "{message}");
            assert!(message.contains("ascending"), "{message}");
        }
    }

    #[test]
    fn version_1_asks_for_a_re_save() {
        let mut bytes = sample_db().to_snapshot_bytes();
        bytes[8..12].copy_from_slice(&1u32.to_le_bytes());
        let (at, message) = parse_error(&bytes);
        assert_eq!(at, MAGIC.len());
        assert!(message.contains("version 1"), "{message}");
        assert!(message.contains("hyperq snapshot save"), "{message}");
    }

    /// A schema section of `names` distinct node names and one one-node
    /// edge per entry of `edge_nodes`, followed by nothing.
    fn crafted_schema(names: usize, edge_nodes: &[u32]) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&MAGIC);
        put_u32(&mut out, FORMAT_VERSION);
        put_u32(&mut out, names as u32);
        for i in 0..names {
            put_str(&mut out, &format!("n{i}"));
        }
        put_u32(&mut out, edge_nodes.len() as u32);
        for (i, &id) in edge_nodes.iter().enumerate() {
            put_str(&mut out, &format!("e{i}"));
            put_u32(&mut out, 1);
            put_u32(&mut out, id);
        }
        out
    }

    #[test]
    fn oversized_schema_sections_fail_before_they_are_built() {
        // 60 000 one-node edges over 60 000 names would need 450 MB of
        // node sets; 50 000 names with no edges is not a dense numbering.
        let many_edges = crafted_schema(60_000, &vec![0; 60_000]);
        let no_edges = crafted_schema(50_000, &[]);
        for (bytes, expect) in [(many_edges, "node-set words"), (no_edges, "not dense")] {
            let (_, message) = parse_error(&bytes);
            assert!(message.starts_with("schema section"), "{message}");
            assert!(message.contains(expect), "{message}");
        }
        let mut dup = crafted_schema(3, &[0, 1, 2]);
        dup[26..28].copy_from_slice(b"n0"); // the second name repeats the first
        let (at, message) = parse_error(&dup);
        assert_eq!(at, 22, "the repeated name's offset");
        assert!(message.contains("duplicate node name"), "{message}");
    }

    #[test]
    fn missing_file_is_io_not_panic() {
        match Database::load_snapshot("/nonexistent/dir/x.hqs") {
            Err(EngineError::Io(m)) => assert!(m.contains("cannot read")),
            other => panic!("expected Io, got {other:?}"),
        }
    }
}
