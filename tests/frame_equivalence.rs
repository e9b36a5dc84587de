//! The canonical answer frame, held to the implementation it replaced.
//!
//! `answer_frame` + `render_response` build a frame from the answer's
//! `u32` handle rows (handles ranked once by value, rows sorted as rank
//! tuples, each distinct value rendered once).  The implementation before
//! it decoded every tuple into owned `Value`s, sorted those, and cloned the
//! result into a `Json` tree; it survives here, as [`oracle_frame`], and
//! the two must agree byte for byte on every relation.

use acyclic_hypergraphs::hypergraph::{Hypergraph, NodeSet};
use acyclic_hypergraphs::hyperqd::json::Json;
use acyclic_hypergraphs::hyperqd::protocol::{parse_response, render_response, Response};
use acyclic_hypergraphs::hyperqd::server::answer_frame;
use acyclic_hypergraphs::reldb::{Database, Relation, Tuple, Value};
use proptest::prelude::*;

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

/// The frame the server would send: `answer_frame`, stamped, rendered.
fn served_frame(
    db: &Database,
    answer: &Relation,
    metrics: Option<&Json>,
    trace: Option<&str>,
) -> (Response, String) {
    let mut frame = answer_frame(db, answer, metrics.cloned());
    if let Response::Answer { trace: slot, .. } = &mut frame {
        *slot = trace.map(str::to_owned);
    }
    let line = render_response(&frame);
    (frame, line)
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
        let (frame, got) = served_frame(&db, &answer, metrics.as_ref(), trace);
        prop_assert_eq!(&got, &want);
        prop_assert_eq!(parse_response(&got).unwrap(), frame);
    }
}

#[test]
fn the_empty_relation_and_the_unit_relation() {
    let (db, empty) = generate(1, 0b0101, 0, false, false);
    let (_, got) = served_frame(&db, &empty, None, None);
    assert_eq!(got, oracle_frame(&db, &empty, None, None));
    assert_eq!(
        got,
        r#"{"ok":true,"op":"answer","attrs":["A","Ω"],"tuples":0,"rows":[]}"#
    );

    // The zero-attribute relation {()}: one row, no cells.
    for own_pool in [false, true] {
        let (db, unit) = generate(2, 0, 3, false, own_pool);
        assert_eq!(unit.len(), 1);
        let (frame, got) = served_frame(&db, &unit, None, Some("q-000001"));
        assert_eq!(got, oracle_frame(&db, &unit, None, Some("q-000001")));
        assert_eq!(
            got,
            r#"{"ok":true,"op":"answer","attrs":[],"tuples":1,"rows":[[]],"trace":"q-000001"}"#
        );
        assert_eq!(parse_response(&got).unwrap(), frame);
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
    let (frame, got) = served_frame(&db, &answer, None, None);
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
