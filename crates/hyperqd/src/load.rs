//! Parsers for the on-disk formats, shared by `hyperqd` and the one-shot
//! `hyperq` CLI (which re-exports this module as `hyperq::load` did before
//! the server existed).
//!
//! **Schema files** are edge lists, one hyperedge per line:
//!
//! ```text
//! # Fig. 1 of the paper
//! R1: A B C
//! R2: C D E
//! A E F        # unlabeled edges get e<index> labels
//! ```
//!
//! **Data files** hold one tuple per line, bound to a schema edge by label:
//!
//! ```text
//! R1: A=1 B=2 C=paris
//! ```
//!
//! Values that parse as `i64` become integers; everything else is a string.
//! Binary `.hqs` snapshots (recognized by their [`reldb::is_snapshot`]
//! magic) are accepted anywhere a data file is.

use hypergraph::{EdgeId, Hypergraph, HypergraphBuilder};
use reldb::{Database, EngineError, Tuple, Value};
use std::io::Read;
use std::path::{Path, PathBuf};

/// A parse failure, carrying the 1-based line number and a message.
#[derive(Debug)]
pub struct ParseError {
    /// 1-based line number in the offending file.
    pub line: usize,
    /// Human-readable description of what went wrong.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

fn err(line: usize, message: impl Into<String>) -> ParseError {
    ParseError {
        line,
        message: message.into(),
    }
}

/// Strips a trailing `# comment` and surrounding whitespace.
fn strip_comment(line: &str) -> &str {
    line.split('#').next().unwrap_or("").trim()
}

/// Parses a schema file (see module docs) into a hypergraph.
pub fn parse_schema(text: &str) -> Result<Hypergraph, ParseError> {
    let mut builder = HypergraphBuilder::new();
    let mut edge_index = 0usize;
    let mut labels: Vec<String> = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let line = strip_comment(raw);
        if line.is_empty() {
            continue;
        }
        let (label, rest) = match line.split_once(':') {
            Some((l, r)) => (l.trim().to_owned(), r),
            None => (format!("e{edge_index}"), line),
        };
        if label.is_empty() {
            return Err(err(i + 1, "empty edge label before ':'"));
        }
        if labels.contains(&label) {
            return Err(err(i + 1, format!("duplicate edge label {label:?}")));
        }
        let nodes: Vec<&str> = rest.split_whitespace().collect();
        if nodes.is_empty() {
            return Err(err(i + 1, format!("edge {label:?} has no nodes")));
        }
        builder = builder.edge(label.clone(), nodes);
        labels.push(label);
        edge_index += 1;
    }
    if edge_index == 0 {
        return Err(err(0, "schema file defines no edges"));
    }
    builder
        .build()
        .map_err(|e| err(0, format!("invalid schema: {e}")))
}

/// Parses one `ATTR=value` pair.
fn parse_assignment(s: &str, line: usize) -> Result<(&str, Value), ParseError> {
    let (attr, value) = s
        .split_once('=')
        .ok_or_else(|| err(line, format!("expected ATTR=value, got {s:?}")))?;
    if attr.is_empty() || value.is_empty() {
        return Err(err(line, format!("empty attribute or value in {s:?}")));
    }
    let v = match value.parse::<i64>() {
        Ok(n) => Value::Int(n),
        Err(_) => Value::str(value),
    };
    Ok((attr, v))
}

/// Parses a data file against `schema`, producing a populated database.
pub fn parse_database(schema: &Hypergraph, text: &str) -> Result<Database, ParseError> {
    let mut db = Database::empty(schema.clone());
    for (i, raw) in text.lines().enumerate() {
        let line = strip_comment(raw);
        if line.is_empty() {
            continue;
        }
        let (label, rest) = line
            .split_once(':')
            .ok_or_else(|| err(i + 1, "expected 'EDGE_LABEL: A=1 B=2 ...'"))?;
        let label = label.trim();
        let edge_idx = schema
            .edges()
            .iter()
            .position(|e| e.label == label)
            .ok_or_else(|| err(i + 1, format!("unknown edge label {label:?}")))?;
        let edge = &schema.edges()[edge_idx];
        let mut tuple = Tuple::new();
        for part in rest.split_whitespace() {
            let (attr, value) = parse_assignment(part, i + 1)?;
            let node = schema
                .node(attr)
                .map_err(|_| err(i + 1, format!("unknown attribute {attr:?}")))?;
            if !edge.nodes.contains(node) {
                return Err(err(
                    i + 1,
                    format!("attribute {attr:?} is not in edge {label:?}"),
                ));
            }
            tuple.set(node, value);
        }
        if tuple.attributes() != edge.nodes {
            return Err(err(
                i + 1,
                format!(
                    "tuple for {label:?} must assign exactly the attributes {}",
                    edge.nodes.display(schema.universe())
                ),
            ));
        }
        db.insert(EdgeId(edge_idx as u32), tuple);
    }
    Ok(db)
}

/// Renders a database back into the text data format of
/// [`parse_database`]: one `LABEL: A=1 B=2` line per tuple, attributes in
/// edge order.  The inverse only holds for values the text format carries
/// losslessly — integers, and strings without whitespace, `#` or `=` —
/// which covers everything the workload generators emit; it exists so
/// `hyperq gen` and the scale benchmarks can produce text datasets and
/// compare text parsing against snapshot loading on identical data.
pub fn render_database(db: &Database) -> String {
    use std::fmt::Write as _;
    let schema = db.schema();
    let mut out = String::new();
    for (edge, rel) in schema.edges().iter().zip(db.relations()) {
        for t in rel.tuples() {
            out.push_str(&edge.label);
            out.push(':');
            for node in edge.nodes.iter() {
                let v = t
                    .get(node)
                    .expect("relation tuples assign every edge attribute");
                let name = schema.universe().name(node);
                match v {
                    Value::Int(n) => {
                        let _ = write!(out, " {name}={n}");
                    }
                    Value::Str(s) => {
                        let _ = write!(out, " {name}={s}");
                    }
                }
            }
            out.push('\n');
        }
    }
    out
}

/// Whether two schemas describe the same labeled edges over the same
/// attribute names, irrespective of internal node numbering.
pub(crate) fn same_schema(a: &Hypergraph, b: &Hypergraph) -> bool {
    a.edge_count() == b.edge_count()
        && a.edges().iter().zip(b.edges()).all(|(ea, eb)| {
            let names_a: Vec<&str> = ea.nodes.iter().map(|n| a.universe().name(n)).collect();
            let names_b: Vec<&str> = eb.nodes.iter().map(|n| b.universe().name(n)).collect();
            ea.label == eb.label && {
                let (mut sa, mut sb) = (names_a, names_b);
                sa.sort_unstable();
                sb.sort_unstable();
                sa == sb
            }
        })
}

/// Where a served database comes from: a self-describing binary snapshot,
/// or a schema file plus a data file (which may itself be a snapshot —
/// [`load_source`] sniffs the magic either way).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DbSource {
    /// A `.hqs` snapshot holding schema and data together.
    Snapshot(PathBuf),
    /// A text schema file and a data file interpreted against it.
    Text {
        /// Path to the schema edge-list file.
        schema: PathBuf,
        /// Path to the tuple data file (text or snapshot).
        data: PathBuf,
    },
}

fn read(path: &Path) -> Result<Vec<u8>, EngineError> {
    std::fs::read(path).map_err(|e| EngineError::Io(format!("{}: {e}", path.display())))
}

/// Whether the file at `path` starts with the snapshot signature — read
/// from its first 8 bytes only, so a snapshot is never buffered whole.
fn sniff_snapshot(path: &Path) -> Result<bool, EngineError> {
    let io = |e: std::io::Error| EngineError::Io(format!("{}: {e}", path.display()));
    let mut head = Vec::with_capacity(8);
    std::fs::File::open(path)
        .and_then(|f| f.take(8).read_to_end(&mut head))
        .map_err(io)?;
    Ok(reldb::is_snapshot(&head))
}

fn utf8(path: &Path, bytes: Vec<u8>) -> Result<String, EngineError> {
    String::from_utf8(bytes).map_err(|e| {
        EngineError::Io(format!(
            "{}: not UTF-8 text (and not a snapshot): {e}",
            path.display()
        ))
    })
}

/// Loads the snapshot at `path`, naming the file in a parse error the way
/// text data errors do.
fn load_snapshot(path: &Path) -> Result<Database, EngineError> {
    Database::load_snapshot(path).map_err(|e| match e {
        EngineError::Parse { line, message } => EngineError::Parse {
            line,
            message: format!("{}: {message}", path.display()),
        },
        other => other,
    })
}

/// Loads a database from a [`DbSource`].  Text data is parsed against the
/// schema file; snapshot data streams through [`Database::load_snapshot`]
/// and must carry the same labeled edges as the schema file.
pub fn load_source(source: &DbSource) -> Result<Database, EngineError> {
    match source {
        DbSource::Snapshot(path) => {
            if !sniff_snapshot(path)? {
                return Err(EngineError::Io(format!(
                    "{}: not a snapshot (missing magic); pass schema,data for text files",
                    path.display()
                )));
            }
            load_snapshot(path)
        }
        DbSource::Text { schema, data } => {
            let schema_text = utf8(schema, read(schema)?)?;
            let h = parse_schema(&schema_text).map_err(|e| EngineError::Parse {
                line: e.line,
                message: format!("{}: {}", schema.display(), e.message),
            })?;
            if sniff_snapshot(data)? {
                let db = load_snapshot(data)?;
                if !same_schema(db.schema(), &h) {
                    return Err(EngineError::SchemaMismatch(format!(
                        "{}: snapshot schema does not match the given schema file",
                        data.display()
                    )));
                }
                return Ok(db);
            }
            let text = utf8(data, read(data)?)?;
            parse_database(&h, &text).map_err(|e| EngineError::Parse {
                line: e.line,
                message: format!("{}: {}", data.display(), e.message),
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FIG1: &str = "\
# Fig. 1
R1: A B C
R2: C D E
R3: A E F
R4: A C E
";

    #[test]
    fn schema_roundtrip_with_labels_and_comments() {
        let h = parse_schema(FIG1).unwrap();
        assert_eq!(h.edge_count(), 4);
        assert_eq!(h.node_count(), 6);
        assert_eq!(h.edges()[0].label, "R1");
        assert_eq!(h.edges()[3].label, "R4");
    }

    #[test]
    fn unlabeled_edges_get_generated_labels() {
        let h = parse_schema("A B\nB C\n").unwrap();
        assert_eq!(h.edges()[0].label, "e0");
        assert_eq!(h.edges()[1].label, "e1");
    }

    #[test]
    fn schema_errors_are_reported_with_lines() {
        assert!(parse_schema("").is_err());
        let e = parse_schema("R1: A\nR1: B\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("duplicate"));
        let e = parse_schema("R1:\n").unwrap_err();
        assert!(e.message.contains("no nodes"));
    }

    #[test]
    fn database_parses_ints_and_strings() {
        let h = parse_schema("R: A B\n").unwrap();
        let db = parse_database(&h, "R: A=1 B=x\nR: A=2 B=y\n").unwrap();
        assert_eq!(db.tuple_count(), 2);
    }

    #[test]
    fn render_database_round_trips_through_the_parser() {
        let h = parse_schema("R: A B\nS: B C\n").unwrap();
        let db = parse_database(&h, "R: A=1 B=x\nR: A=-2 B=y\nS: B=x C=3\n").unwrap();
        let text = render_database(&db);
        let back = parse_database(&h, &text).unwrap();
        assert_eq!(back.tuple_count(), db.tuple_count());
        for (a, b) in db.relations().iter().zip(back.relations()) {
            let ta: Vec<_> = a.tuples().collect();
            let tb: Vec<_> = b.tuples().collect();
            assert_eq!(ta, tb);
        }
    }

    #[test]
    fn database_rejects_bad_rows() {
        let h = parse_schema("R: A B\nS: B C\n").unwrap();
        assert!(parse_database(&h, "T: A=1\n").is_err());
        assert!(parse_database(&h, "R: A=1\n").is_err()); // missing B
        assert!(parse_database(&h, "R: A=1 C=2\n").is_err()); // C not in R
        assert!(parse_database(&h, "R A=1\n").is_err()); // no colon
    }

    #[test]
    fn load_source_round_trips_text_and_snapshot() {
        let h = parse_schema("R: A B\n").unwrap();
        let db = parse_database(&h, "R: A=1 B=x\nR: A=2 B=y\n").unwrap();
        let dir = std::env::temp_dir().join("hyperqd-load-source-test");
        std::fs::create_dir_all(&dir).unwrap();
        let schema_path = dir.join("t.hg");
        let data_path = dir.join("t.data");
        let snap_path = dir.join("t.hqs");
        std::fs::write(&schema_path, "R: A B\n").unwrap();
        std::fs::write(&data_path, render_database(&db)).unwrap();
        std::fs::write(&snap_path, db.to_snapshot_bytes()).unwrap();
        let from_text = load_source(&DbSource::Text {
            schema: schema_path.clone(),
            data: data_path,
        })
        .unwrap();
        let from_snap = load_source(&DbSource::Snapshot(snap_path.clone())).unwrap();
        assert_eq!(from_text.tuple_count(), 2);
        assert_eq!(from_snap.tuple_count(), 2);
        // A snapshot is accepted in the data position too.
        let mixed = load_source(&DbSource::Text {
            schema: schema_path,
            data: snap_path,
        })
        .unwrap();
        assert_eq!(mixed.tuple_count(), 2);
    }
}
