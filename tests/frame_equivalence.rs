//! The canonical answer frame, held to the implementation it replaced.
//!
//! `answer_frame` + `render_response` build a frame from the answer's
//! `u32` handle rows (handles ranked once by value, rows ordered as rank
//! tuples by counting passes, each distinct value rendered once).  The implementation before
//! it decoded every tuple into owned `Value`s, sorted those, and cloned the
//! result into a `Json` tree; it survives here, as [`oracle_frame`], and
//! the two must agree byte for byte on every relation.
//!
//! Three generators feed the comparison.  [`generate`] draws small relations
//! over awkward values (escapes, extremes, mixed columns).  [`generate_large`]
//! draws relations big enough, over integer domains shaped enough, to reach
//! every ordering path behind `answer_frame`: the bitmap ranking of a dense
//! integer range and the sort it falls back to, numbered and per-handle
//! position slots, and the counting, radix and comparison row sorts.
//! [`generate_chunk_edges`] fills relations of those sizes with values whose
//! rendered text has every length around the 16-byte chunk `render_response`
//! copies a cell by, so that the chunk's end falls after, at and inside the
//! text — and inside one multi-byte character of it.
//!
//! Every relation is served twice: from a pool whose handle order is not
//! value order, where `answer_frame` ranks by comparing values, and from
//! one whose order is (a loaded snapshot's), where it ranks handles.  Both
//! frames must be the oracle's.

use acyclic_hypergraphs::hypergraph::{Edge, Hypergraph, NodeSet};
use acyclic_hypergraphs::hyperqd::json::Json;
use acyclic_hypergraphs::hyperqd::protocol::{parse_response, render_response, Response};
use acyclic_hypergraphs::hyperqd::server::answer_frame;
use acyclic_hypergraphs::reldb::{Database, Relation, Tuple, Value, ValuePool};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// The retired frame builder: decode, sort by `Value`, clone into a `Json`
/// tree, serialize the tree.
fn oracle_frame(
    db: &Database,
    answer: &Relation,
    metrics: Option<&Json>,
    trace: Option<&str>,
) -> String {
    let universe = db.schema().universe();
    let nodes: Vec<_> = answer.attributes().iter().collect();
    let mut rows: Vec<Vec<Value>> = answer
        .tuples()
        .map(|t| {
            nodes
                .iter()
                .map(|&n| t.get(n).expect("tuples cover their attributes").clone())
                .collect()
        })
        .collect();
    rows.sort_unstable();
    let rows: Vec<Json> = rows
        .into_iter()
        .map(|row| {
            Json::Arr(
                row.into_iter()
                    .map(|v| match v {
                        Value::Int(n) => Json::Int(n),
                        Value::Str(s) => Json::Str(s),
                    })
                    .collect(),
            )
        })
        .collect();
    let mut pairs = vec![
        ("ok".to_owned(), Json::Bool(true)),
        ("op".to_owned(), Json::str("answer")),
        (
            "attrs".to_owned(),
            Json::Arr(nodes.iter().map(|&n| Json::str(universe.name(n))).collect()),
        ),
        ("tuples".to_owned(), Json::Int(rows.len() as i64)),
        ("rows".to_owned(), Json::Arr(rows)),
    ];
    if let Some(m) = metrics {
        pairs.push(("metrics".to_owned(), m.clone()));
    }
    if let Some(t) = trace {
        pairs.push(("trace".to_owned(), Json::str(t)));
    }
    Json::Obj(pairs).to_string()
}

/// The frames the server would send for `answer` — `answer_frame`,
/// stamped, rendered — served from a disordered pool and from an ordered
/// one ([`repooled`]).
fn served_frames(
    db: &Database,
    answer: &Relation,
    metrics: Option<&Json>,
    trace: Option<&str>,
) -> [(Response, String); 2] {
    [false, true].map(|ordered| {
        let answer = repooled(db, answer, ordered);
        let mut frame = answer_frame(db, &answer, metrics.cloned());
        if let Response::Answer { trace: slot, .. } = &mut frame {
            *slot = trace.map(str::to_owned);
        }
        let line = render_response(&frame);
        (frame, line)
    })
}

/// `answer`'s rows in a pool whose handle order is value order — a loaded
/// snapshot's, with `db`'s universe (an empty relation over all of it
/// keeps every node in the saved schema) — or in one whose order is
/// broken: its own if the generator already broke it, else a fresh pool
/// that holds two values out of order before the rows'.
fn repooled(db: &Database, answer: &Relation, ordered: bool) -> Relation {
    let attrs = answer.attributes().clone();
    if ordered && !attrs.is_empty() {
        let all = db.schema().nodes();
        let everything = Relation::with_pool("all", all.clone(), answer.pool().clone());
        let edges = vec![Edge::new("answer", attrs), Edge::new("all", all)];
        let schema = Hypergraph::with_universe(db.schema().universe().clone(), edges).unwrap();
        let saved = Database::new(schema, vec![answer.clone(), everything]).unwrap();
        let loaded = Database::from_snapshot_bytes(&saved.to_snapshot_bytes()).unwrap();
        let reloaded = loaded.relations()[0].clone();
        assert!(reloaded.pool().is_ordered());
        return reloaded;
    }
    if !ordered && !answer.pool().is_ordered() {
        return answer.clone();
    }
    // A zero-width answer's empty pool is ordered; it has no value to rank.
    let pool = ValuePool::new();
    if !ordered {
        pool.intern(&Value::str("~"));
        pool.intern(&Value::Int(0));
    }
    let mut copy = Relation::with_pool("answer", attrs, pool);
    for t in answer.tuples() {
        copy.insert(t);
    }
    assert_eq!(copy.pool().is_ordered(), ordered);
    copy
}

/// Attribute names include ones that need escaping.
fn schema() -> Hypergraph {
    Hypergraph::builder()
        .edge("R", ["A", "quo\"te", "Ω", "tab\tbed"])
        .edge("S", ["A", "E"])
        .build()
        .expect("schema builds")
}

const INTS: [i64; 10] = [i64::MIN, i64::MAX, -1, 0, 1, -500, 42, 9, 10, 7_000_000_000];
const STRS: [&str; 16] = [
    "",
    "a",
    "A",
    "9",
    "10",
    "quo\"te",
    "back\\slash",
    "line\nfeed",
    "tab\there",
    "\u{1}",
    "\u{1f}",
    "\u{8}\u{c}\r",
    "π",
    "日本語",
    "😀",
    "a\u{0}b",
];

/// A small deterministic generator, so one `u64` die yields a relation.
struct Dice(u64);

impl Dice {
    fn roll(&mut self, bound: u64) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (self.0 >> 33) % bound
    }
}

/// One cell of a column of the given kind (0 ints, 1 strings, 2 mixed),
/// from a narrow domain (duplicate-heavy) or a wide one (nearly all
/// distinct).
fn cell(dice: &mut Dice, kind: u64, wide: bool) -> Value {
    let as_int = match kind {
        0 => true,
        1 => false,
        _ => dice.roll(2) == 0,
    };
    match (as_int, wide) {
        (true, false) => Value::Int(INTS[dice.roll(3) as usize]),
        (true, true) => match dice.roll(4) {
            0 => Value::Int(INTS[dice.roll(INTS.len() as u64) as usize]),
            _ => Value::Int(dice.roll(1 << 40) as i64 - (1 << 39)),
        },
        (false, false) => Value::str(STRS[dice.roll(3) as usize + 4]),
        (false, true) => match dice.roll(3) {
            0 => Value::str(STRS[dice.roll(STRS.len() as u64) as usize]),
            _ => Value::str(format!(
                "{}{}",
                STRS[dice.roll(STRS.len() as u64) as usize],
                dice.roll(1000)
            )),
        },
    }
}

/// A database over [`schema`] whose pool already holds values, interned in
/// an order unrelated to their sort order, and an answer relation over the
/// attribute subset `mask` — in the database's pool or one of its own.
fn generate(seed: u64, mask: u64, rows: usize, wide: bool, own_pool: bool) -> (Database, Relation) {
    let mut dice = Dice(seed);
    let schema = schema();
    let mut db = Database::empty(schema.clone());
    let edge = schema.edge_ids().next().expect("the schema has edges");
    for _ in 0..8 {
        let row: Vec<Value> = (0..4).map(|_| cell(&mut dice, 2, true)).collect();
        db.insert_values(edge, row);
    }
    let all: Vec<_> = schema.nodes().iter().collect();
    let attrs = NodeSet::from_ids(
        all.iter()
            .enumerate()
            .filter(|(i, _)| mask >> i & 1 == 1)
            .map(|(_, &n)| n),
    );
    let width = attrs.len();
    let mut answer = if own_pool {
        Relation::new("answer", attrs)
    } else {
        Relation::with_pool("answer", attrs, db.pool().clone())
    };
    let kinds: Vec<u64> = (0..width).map(|_| dice.roll(3)).collect();
    for _ in 0..rows {
        if width == 0 {
            answer.insert(Tuple::new());
        } else {
            let row: Vec<Value> = kinds.iter().map(|&k| cell(&mut dice, k, wide)).collect();
            answer.insert_values(row);
        }
    }
    (db, answer)
}

/// The integer domains `answer_frame`'s value ranking has to tell apart.
/// Every integer of an answer is `base + offset` (wrapping), offsets drawn
/// from `1..draw`; a domain with a `top` also plants offset 0 and its top
/// offset, which fixes the answer's `[min, max]` exactly.
#[derive(Debug, Clone, Copy)]
enum IntDomain {
    /// A few values per row: far inside the density bound.
    Dense,
    /// 2³¹ wide: far outside it, so the integers are sorted.
    Sparse,
    /// Dense, and straddling zero.
    NegativeSpanning,
    /// `i64::MIN` and `i64::MAX` both present: `max − min` overflows.
    Extremes,
    /// `max − min + 1` exactly 8 bits per answer cell + 1024: the last
    /// range ranked by bitmap.
    AtBound,
    /// One value wider: the first range that is sorted.
    PastBound,
}

const INT_DOMAINS: [IntDomain; 6] = [
    IntDomain::Dense,
    IntDomain::Sparse,
    IntDomain::NegativeSpanning,
    IntDomain::Extremes,
    IntDomain::AtBound,
    IntDomain::PastBound,
];

impl IntDomain {
    /// `(base, draw, top)`, given how many cells the answer will have.
    fn shape(self, cells: u64) -> (i64, u64, Option<u64>) {
        let bound = 8 * cells + 1024;
        match self {
            IntDomain::Dense => (7_000_000_000, 2_000, None),
            IntDomain::Sparse => (-(1 << 30), 1 << 31, None),
            IntDomain::NegativeSpanning => (-600, 1_200, None),
            IntDomain::Extremes => (i64::MIN, 1_000, Some(u64::MAX)),
            IntDomain::AtBound => (-123, 1_000, Some(bound - 1)),
            IntDomain::PastBound => (-123, 1_000, Some(bound)),
        }
    }
}

/// A cell before it has a value: an integer offset or a string number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Draft {
    Int(u64),
    Str(u64),
}

/// A database over [`schema`] and an answer of up to `rows` distinct rows
/// over its first `width` attributes, integers from `domain`.  Columns are
/// all-integer, all-string, mixed or constant.  The answer interns into its
/// own pool (handles dense, fewer than cells once rows repeat values) or
/// into the database's, which first grows by `pregrown` values — in an order
/// unrelated to their sort order, most of them never used by the answer, so
/// its handles are sparse.
fn generate_large(
    seed: u64,
    width: usize,
    rows: usize,
    domain: IntDomain,
    pregrown: Option<usize>,
) -> (Database, Relation) {
    let mut dice = Dice(seed);
    let kinds: Vec<u64> = (0..width).map(|_| dice.roll(6)).collect();
    let draw = domain.shape(0).1;
    let mut draft = |kind: u64| match kind {
        0..=2 => Draft::Int(1 + dice.roll(draw - 1)),
        3 => Draft::Str(dice.roll(3_000)),
        4 if dice.roll(2) == 0 => Draft::Int(1 + dice.roll(draw - 1)),
        4 => Draft::Str(dice.roll(3_000)),
        _ => Draft::Int(7),
    };
    let mut drafts: BTreeSet<Vec<Draft>> = (0..rows)
        .map(|_| kinds.iter().map(|&k| draft(k)).collect())
        .collect();
    // Plant the domain's extremes in a column that holds integers: two rows
    // no draw can produce, so the final cell count is known beforehand.
    let cells = ((drafts.len() + 2) * width) as u64;
    let (base, _, top) = domain.shape(cells);
    if let (Some(top), Some(c)) = (top, kinds.iter().position(|&k| k != 3)) {
        for offset in [0, top] {
            let mut row: Vec<Draft> = kinds.iter().map(|&k| draft(k)).collect();
            row[c] = Draft::Int(offset);
            drafts.insert(row);
        }
        assert_eq!((drafts.len() * width) as u64, cells);
    }
    let value = |d: Draft| match d {
        Draft::Int(offset) => Value::Int(base.wrapping_add(offset as i64)),
        Draft::Str(n) => Value::str(format!("{}{n}", STRS[n as usize % STRS.len()])),
    };

    let schema = schema();
    let db = Database::empty(schema.clone());
    for i in 0..pregrown.unwrap_or(0) as u64 {
        // A multiplicative scramble of the draws the answer may also make.
        let n = i.wrapping_mul(2_654_435_761);
        db.pool().intern(&value(match i % 4 {
            0 => Draft::Str(n % 3_000),
            _ => Draft::Int(1 + n % (draw - 1)),
        }));
    }
    let attrs = NodeSet::from_ids(schema.nodes().iter().take(width));
    let mut answer = match pregrown {
        None => Relation::new("answer", attrs),
        Some(_) => Relation::with_pool("answer", attrs, db.pool().clone()),
    };
    // Insert in a shuffled order, so new handles are not in value order.
    let mut drafts: Vec<Vec<Draft>> = drafts.into_iter().collect();
    for i in (1..drafts.len()).rev() {
        drafts.swap(i, dice.roll(i as u64 + 1) as usize);
    }
    for row in drafts {
        if width == 0 {
            answer.insert(Tuple::new());
        } else {
            answer.insert_values(row.into_iter().map(value));
        }
    }
    (db, answer)
}

/// `answer_frame` == the oracle on one large relation.
fn assert_large_frame_matches(
    seed: u64,
    width: usize,
    rows: usize,
    domain: IntDomain,
    pregrown: Option<usize>,
) {
    let (db, answer) = generate_large(seed, width, rows, domain, pregrown);
    let want = oracle_frame(&db, &answer, None, None);
    for ((_, got), ordered) in served_frames(&db, &answer, None, None)
        .iter()
        .zip([false, true])
    {
        assert!(
            *got == want,
            "frames differ: seed {seed}, width {width}, {} rows, {domain:?}, \
             pregrown {pregrown:?}, ordered {ordered}",
            answer.len()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// New frame == retired frame on relations large and regular enough
    /// for the counting and radix passes and the dense integer ranking:
    /// every integer domain on each drawn shape.
    #[test]
    fn large_frames_match_the_retired_implementation(
        seed in any::<u64>(),
        width in 0usize..6,
        rows in 0usize..6_000,
        size in 0u64..4,
        pool in 0u64..3,
    ) {
        let rows = match size {
            0 => rows % 70,
            1 => rows % 700,
            _ => rows,
        };
        let pregrown = [None, Some(500), Some(40_000)][pool as usize];
        for domain in INT_DOMAINS {
            assert_large_frame_matches(seed, width, rows, domain, pregrown);
        }
    }
}

/// The shapes the proptest above is least likely to draw, pinned: five
/// all-distinct columns over ≥ 4096 rows (ranks past `4n`: radix passes),
/// the same below the radix floor (comparison), one wide duplicate-heavy
/// answer (counting passes, a position slot per handle), each in its own
/// pool and in a sparse one, at both edges of the density bound.
#[test]
fn large_frames_reach_every_ordering_path() {
    for pregrown in [None, Some(60_000)] {
        for domain in [IntDomain::Sparse, IntDomain::AtBound, IntDomain::PastBound] {
            for rows in [300, 5_000] {
                assert_large_frame_matches(0xC0FFEE, 5, rows, domain, pregrown);
            }
        }
        assert_large_frame_matches(0xBEEF, 2, 5_500, IntDomain::Dense, pregrown);
        assert_large_frame_matches(0xBEEF, 1, 5_500, IntDomain::Extremes, pregrown);
    }
}

/// Value number `k` of [`generate_chunk_edges`]: an integer or a string
/// whose rendered text — digits, or the escaped string in its quotes — is
/// 1 to 40 bytes long, the lengths interleaved so that every row mixes
/// them.  From six bytes up the text carries `k`, so distinct numbers give
/// distinct values.  The strings hold what a byte-wise copy can break: an
/// escape that grows (`"` to two bytes, U+0001 to six), and a character of
/// two, three or four bytes that starts before the 16th byte of the text
/// and ends after it.
fn chunk_edge_value(k: u64) -> Value {
    // `k` as the first digits of a `len`-byte ASCII string.
    let padded = |len: usize| format!("{k:_<len$}");
    let (kind, turn) = (k % 8, k / 8);
    match kind {
        // 6 to 19 digits, and a sign: 6 to 20 bytes.
        0 | 1 => {
            let digits = 6 + (turn % 14) as u32;
            let n = 10i64.pow(digits - 1) + k as i64;
            Value::Int(if kind == 0 { n } else { -n })
        }
        // 1 to 5 bytes, the extremes, and the empty string.
        2 if turn % 8 == 0 => match turn / 8 % 8 {
            0 => Value::Int(i64::MIN),
            1 => Value::Int(i64::MAX),
            2 => Value::str(""),
            3 => Value::str("a"),
            4 => Value::str("ab"),
            5 => Value::str("abc"),
            6 => Value::Int(7),
            _ => Value::Int(-42),
        },
        // Quoted ASCII of 6 to 38 bytes: 8 to 40.
        2 | 3 => Value::str(padded(6 + (turn % 33) as usize)),
        // An escape that expands, with 6 to 19 bytes before it.
        4 => {
            let escaped = ["\"", "\u{1}", "\\", "\n"][(turn % 4) as usize];
            Value::str(format!(
                "{}{escaped}z",
                padded(6 + (turn / 4 % 14) as usize)
            ))
        }
        // A character of `wide` bytes that starts 1 to `wide - 1` bytes
        // before byte 16 of the text (the quote is byte 0), then 0 to 3 more.
        _ => {
            let (wide, scalar) = [(2, "é"), (3, "日"), (4, "😀")][(kind - 5) as usize];
            let before = 15 - 1 - (turn % (wide - 1)) as usize;
            let after = &"xyz"[..(turn / 3 % 4) as usize];
            Value::str(format!("{}{scalar}{after}", padded(before)))
        }
    }
}

/// A database over [`schema`] and an answer of `rows` rows over its first
/// `width` attributes, every cell a [`chunk_edge_value`]: all of them
/// different (`distinct`: ranks past four times the row count on five
/// columns, so the radix row order, or the comparison one below its floor)
/// or drawn from 200 (the counting one).  In its own pool, or the
/// database's after that grew by values the answer never uses.
fn generate_chunk_edges(
    seed: u64,
    width: usize,
    rows: usize,
    distinct: bool,
    own_pool: bool,
) -> (Database, Relation) {
    let mut dice = Dice(seed);
    let schema = schema();
    let db = Database::empty(schema.clone());
    let attrs = NodeSet::from_ids(schema.nodes().iter().take(width));
    let mut answer = if own_pool {
        Relation::new("answer", attrs)
    } else {
        for k in 0..3_000 {
            db.pool().intern(&chunk_edge_value(1_000_000 + 17 * k));
        }
        Relation::with_pool("answer", attrs, db.pool().clone())
    };
    let first = dice.roll(1_000);
    // Rows go in shuffled, so handles are not in value order.
    let mut numbers: Vec<u64> = (0..rows as u64).collect();
    for i in (1..numbers.len()).rev() {
        numbers.swap(i, dice.roll(i as u64 + 1) as usize);
    }
    for i in numbers {
        answer.insert_values((0..width as u64).map(|c| {
            chunk_edge_value(match distinct {
                true => first + i * width as u64 + c,
                false => first + dice.roll(200),
            })
        }));
    }
    (db, answer)
}

/// Tokens shorter than, as long as and longer than the chunk a cell is
/// copied by — in every column and every row, the first and the last among
/// them — under each of the three row orders, in both kinds of pool.
#[test]
fn tokens_around_the_copy_chunk_render_like_the_retired_implementation() {
    let rendered = |k| match chunk_edge_value(k) {
        Value::Int(n) => Json::Int(n).to_string(),
        Value::Str(s) => Json::Str(s).to_string(),
    };
    let lengths: BTreeSet<usize> = (0..4_096).map(|k| rendered(k).len()).collect();
    assert_eq!(lengths, (1..=40).collect(), "every text length is drawn");
    // é, 日 and 😀 across the end of the chunk: bytes 15-16, 14-16, 13-16.
    for (k, straddler) in [(5, "é"), (6 + 8, "日"), (7 + 16, "😀")] {
        let text = rendered(k);
        let at = text.find(straddler).expect("the character is there");
        assert!(
            at < 16 && at + straddler.len() > 16,
            "{text} has it at {at}"
        );
    }

    for own_pool in [true, false] {
        for (width, rows, distinct) in [
            (1, 50, true),
            (3, 300, true),
            (5, 300, true),
            (5, 5_000, true),
            (3, 5_000, false),
            (5, 5_000, false),
        ] {
            let (db, answer) = generate_chunk_edges(0xC4A2, width, rows, distinct, own_pool);
            assert!(
                answer.len() > rows / 2,
                "rows repeat: {} of {rows}",
                answer.len()
            );
            let want = oracle_frame(&db, &answer, None, None);
            for (frame, got) in served_frames(&db, &answer, None, None) {
                assert!(
                    got == want,
                    "frames differ: width {width}, {} rows, distinct {distinct}, \
                     own pool {own_pool}",
                    answer.len()
                );
                assert_eq!(parse_response(&got).unwrap(), frame);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// New frame == retired frame, byte for byte, and the frame still
    /// round-trips through the client's parser.
    #[test]
    fn frames_match_the_retired_implementation(
        seed in any::<u64>(),
        mask in 0u64..32,
        rows in 0usize..60,
        flags in 0u64..16,
    ) {
        let (wide, own_pool) = (flags & 1 == 1, flags & 2 != 0);
        let metrics = (flags & 4 != 0).then(|| {
            Json::Obj(vec![
                ("semijoin".to_owned(), Json::Arr(vec![Json::Int(3), Json::Null])),
                ("note \"q\"".to_owned(), Json::str("multi\nline")),
            ])
        });
        let trace = (flags & 8 != 0).then_some("q-000042");
        let (db, answer) = generate(seed, mask, rows, wide, own_pool);
        let want = oracle_frame(&db, &answer, metrics.as_ref(), trace);
        for (frame, got) in served_frames(&db, &answer, metrics.as_ref(), trace) {
            prop_assert_eq!(&got, &want);
            prop_assert_eq!(parse_response(&got).unwrap(), frame);
        }
    }
}

#[test]
fn the_empty_relation_and_the_unit_relation() {
    let (db, empty) = generate(1, 0b0101, 0, false, false);
    for (_, got) in served_frames(&db, &empty, None, None) {
        assert_eq!(got, oracle_frame(&db, &empty, None, None));
        assert_eq!(
            got,
            r#"{"ok":true,"op":"answer","attrs":["A","Ω"],"tuples":0,"rows":[]}"#
        );
    }

    // The zero-attribute relation {()}: one row, no cells.
    for own_pool in [false, true] {
        let (db, unit) = generate(2, 0, 3, false, own_pool);
        assert_eq!(unit.len(), 1);
        for (frame, got) in served_frames(&db, &unit, None, Some("q-000001")) {
            assert_eq!(got, oracle_frame(&db, &unit, None, Some("q-000001")));
            assert_eq!(
                got,
                r#"{"ok":true,"op":"answer","attrs":[],"tuples":1,"rows":[[]],"trace":"q-000001"}"#
            );
            assert_eq!(parse_response(&got).unwrap(), frame);
        }
    }
}

#[test]
fn extremes_and_escapes_sort_and_render_like_values() {
    let schema = schema();
    let db = Database::empty(schema.clone());
    let attrs = schema.node_set(["A", "quo\"te"]).expect("attributes exist");
    let mut answer = Relation::new("answer", attrs);
    // Interned in an order that is not the sort order.
    for (a, b) in [
        (Value::str("10"), Value::Int(i64::MAX)),
        (Value::Int(i64::MAX), Value::str("\u{1f}")),
        (Value::str("9"), Value::str("quo\"te\\")),
        (Value::Int(i64::MIN), Value::str("😀")),
        (Value::Int(i64::MIN), Value::Int(i64::MIN)),
        (Value::str(""), Value::str("line\nfeed")),
    ] {
        answer.insert_values([a, b]);
    }
    for (frame, got) in served_frames(&db, &answer, None, None) {
        assert_eq!(got, oracle_frame(&db, &answer, None, None));
        assert_eq!(
            got,
            concat!(
                r#"{"ok":true,"op":"answer","attrs":["A","quo\"te"],"tuples":6,"rows":["#,
                r#"[-9223372036854775808,-9223372036854775808],[-9223372036854775808,"😀"],"#,
                r#"[9223372036854775807,"\u001f"],["","line\nfeed"],"#,
                r#"["10",9223372036854775807],["9","quo\"te\\"]]}"#
            )
        );
        assert_eq!(parse_response(&got).unwrap(), frame);
    }
}
