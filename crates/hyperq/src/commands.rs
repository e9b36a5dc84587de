//! The `hyperq` subcommands: classify, query, decompose, dot, stats.

use acyclic::{
    classify, degree, is_acyclic_mcs, join_tree, join_tree_with_separators, Classification, Degree,
};
use decomp::{decompose, Heuristic};
use hypergraph::{Hypergraph, NodeSet};
use hyperqd::protocol::{metrics_json, EngineKind, WireError};
use hyperqd::server::run_engine;
use reldb::{
    plan_connection, CollectingSink, Database, EngineError, ExecCtx, QueryGovernor, Relation,
};

/// A CLI failure: the one-line diagnostic printed to stderr plus the
/// process exit code.  The codes are part of the documented interface
/// (scripts and CI branch on them); engine failures get theirs from the
/// protocol's [`hyperqd::protocol::ErrorKind::code`], the one table both
/// front ends exit by:
///
/// | code | meaning |
/// |---|---|
/// | 0 | success |
/// | 2 | usage, parse, schema or I/O error |
/// | 3 | deadline exceeded or query cancelled |
/// | 4 | memory budget exceeded |
/// | 5 | the engine panicked (contained) |
#[derive(Debug)]
pub struct CliError {
    /// Process exit code (see the table above).
    pub code: u8,
    /// One-line diagnostic, printed as `hyperq: {message}`.
    pub message: String,
}

impl From<String> for CliError {
    fn from(message: String) -> Self {
        Self { code: 2, message }
    }
}

impl From<&str> for CliError {
    fn from(message: &str) -> Self {
        Self::from(message.to_owned())
    }
}

impl From<EngineError> for CliError {
    fn from(e: EngineError) -> Self {
        let wire = WireError::from(e);
        Self {
            code: wire.kind.code(),
            message: wire.message,
        }
    }
}

impl CliError {
    /// Wraps a file parse failure, routing it through
    /// [`EngineError::Parse`] so the line number survives into the
    /// diagnostic: `hyperq: <path>: line <n>: <message>`.
    pub fn parse(path: &str, e: crate::load::ParseError) -> Self {
        let engine = EngineError::Parse {
            line: e.line,
            message: e.message,
        };
        Self {
            code: 2,
            message: format!("{path}: {engine}"),
        }
    }
}

/// `hyperq classify`: prints the Theorem 6.1 dichotomy with its certificate.
pub fn run_classify(h: &Hypergraph) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "hypergraph: {} nodes, {} edges, {}connected, {}reduced\n",
        h.node_count(),
        h.edge_count(),
        if h.is_connected() { "" } else { "not " },
        if h.is_reduced() { "" } else { "not " },
    ));
    match classify(h) {
        Classification::Acyclic { join_tree } => {
            out.push_str("classification: ACYCLIC\n");
            out.push_str(&format!("acyclicity degree: {:?}\n", degree_label(h)));
            out.push_str("certificate: join tree (running-intersection verified: ");
            match join_tree {
                Some(tree) => {
                    out.push_str(&format!("{})\n", tree.verify_running_intersection(h)));
                    // Re-derive separators for a readable tree listing.
                    if let Some((_, seps)) = join_tree_with_separators(h) {
                        for (child, parent) in tree.tree_edges() {
                            let sep = seps
                                .get(&child)
                                .map(|s| s.display(h.universe()).to_string())
                                .unwrap_or_default();
                            out.push_str(&format!(
                                "  {} -- {}   separator {}\n",
                                h.edges()[child.index()].label,
                                h.edges()[parent.index()].label,
                                sep,
                            ));
                        }
                    }
                    if tree.tree_edges().is_empty() {
                        out.push_str(&format!(
                            "  (single edge {})\n",
                            h.edges()[tree.root().index()].label
                        ));
                    }
                }
                None => out.push_str("trivially true, no edges)\n"),
            }
        }
        Classification::Cyclic { independent_path } => {
            out.push_str("classification: CYCLIC\n");
            out.push_str(&format!("acyclicity degree: {:?}\n", degree_label(h)));
            out.push_str(&format!(
                "certificate: independent path through {} node sets (verified: {})\n",
                independent_path.len(),
                independent_path.is_connecting_path(h) && independent_path.is_independent(h),
            ));
            out.push_str(&format!("  {}\n", independent_path.display(h)));
        }
    }
    // The MCS test must agree with GYO; surfacing both catches regressions.
    out.push_str(&format!(
        "cross-check: GYO and MCS agree = {}\n",
        is_acyclic_mcs(h) == classify(h).is_acyclic(),
    ));
    out
}

fn degree_label(h: &Hypergraph) -> Degree {
    degree(h)
}

/// How `hyperq query` reports execution metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MetricsMode {
    /// No metering: the engine runs its unmetered (no-op sink) path.
    #[default]
    Off,
    /// `--metrics`: append the human-readable counter table to the report.
    Table,
    /// `--metrics-json`: print *only* the metrics JSON document (one
    /// compact line, the same one a server embeds in an answer), so the
    /// output pipes cleanly into a checker.
    Json,
}

/// `hyperq query`: answers `π_X(⋈ CC(X))` over a loaded database.
pub fn run_query(
    db: &Database,
    attrs: &[&str],
    engine: EngineKind,
    metrics: MetricsMode,
    gov: Option<&QueryGovernor>,
) -> Result<String, CliError> {
    let x: NodeSet = db
        .attributes(attrs.iter().copied())
        .map_err(|e| format!("bad --select: {e:?}"))?;
    let schema = db.schema();
    let plan = plan_connection(db, &x);
    let mut out = String::new();
    out.push_str(&format!(
        "query attributes: {}\n",
        x.display(schema.universe())
    ));
    out.push_str(&format!(
        "canonical connection CC(X): {}\n",
        plan.connection.display()
    ));
    out.push_str(&format!(
        "objects joined: {}\n",
        plan.objects
            .iter()
            .map(|&i| schema.edges()[i].label.clone())
            .collect::<Vec<_>>()
            .join(", ")
    ));
    // No join or semijoin runs before the engine: every one runs under the
    // governor below, so a deadline or budget bounds the whole query.
    out.push_str(&format!("database: {} tuples\n", db.tuple_count()));
    // Governed when a [`QueryGovernor`] is present (deadline / budget /
    // cancellation checkpoints active), metered when a metrics mode asks
    // for the sink; what is absent keeps its no-op default and compiles
    // away.
    let sink = CollectingSink::new();
    let ctx = ExecCtx::new();
    let answer: Relation = match (metrics, gov) {
        (MetricsMode::Off, None) => run_engine(db, engine, &x, &ctx),
        (MetricsMode::Off, Some(g)) => run_engine(db, engine, &x, &ctx.gov(g)),
        (_, None) => run_engine(db, engine, &x, &ctx.metrics(&sink)),
        (_, Some(g)) => run_engine(db, engine, &x, &ctx.metrics(&sink).gov(g)),
    }?;
    if metrics == MetricsMode::Json {
        // JSON mode replaces the report entirely: stdout is the document.
        return Ok(format!("{}\n", metrics_json(&sink.snapshot())));
    }
    out.push_str(&format!("engine: {engine:?}\n"));
    out.push_str(&format!("answer ({} tuples):\n", answer.len()));
    out.push_str(&answer.display(schema.universe()));
    if metrics == MetricsMode::Table {
        out.push_str("metrics:\n");
        out.push_str(&sink.snapshot().render_table());
    }
    Ok(out)
}

/// `hyperq dot`: renders the schema as Graphviz DOT.
pub fn run_dot(h: &Hypergraph, name: &str) -> String {
    h.to_dot(name)
}

/// `hyperq decompose`: hypertree-decomposes a (typically cyclic) schema and
/// reports the bags, width, fill count and verification result — or, with
/// `dot`, renders the bag tree as Graphviz DOT.
pub fn run_decompose(h: &Hypergraph, heuristic: Heuristic, dot: bool) -> Result<String, String> {
    let d = decompose(h, heuristic).map_err(|e| e.to_string())?;
    if dot {
        return Ok(d.to_dot("decomposition", h));
    }
    let u = h.universe();
    let mut out = String::new();
    out.push_str(&format!(
        "hypergraph: {} nodes, {} edges, {}\n",
        h.node_count(),
        h.edge_count(),
        if join_tree(h).is_some() {
            "acyclic (a join tree exists; decomposition is optional)"
        } else {
            "cyclic (no join tree; queries run through this decomposition)"
        },
    ));
    out.push_str(&format!(
        "heuristic: {heuristic:?}, fill edges added: {}\n",
        d.fill_edges()
    ));
    out.push_str(&format!(
        "decomposition: {} bags, width {}\n",
        d.bag_count(),
        d.width()
    ));
    out.push_str(&format!(
        "verified (edge coverage + running intersection): {}\n",
        d.verify(h)
    ));
    for (b, bag) in d.bags().edges().iter().enumerate() {
        let assigned: Vec<&str> = d
            .assigned(b)
            .iter()
            .map(|&e| h.edges()[e.index()].label.as_str())
            .collect();
        let extra: Vec<&str> = d
            .extra_cover(b)
            .iter()
            .map(|&e| h.edges()[e.index()].label.as_str())
            .collect();
        out.push_str(&format!(
            "  {} {{{}}}  covers: {}{}\n",
            bag.label,
            bag.nodes.names(u).join(", "),
            if assigned.is_empty() {
                "-".to_owned()
            } else {
                assigned.join(", ")
            },
            if extra.is_empty() {
                String::new()
            } else {
                format!("  (projected: {})", extra.join(", "))
            },
        ));
    }
    for (c, p) in d.tree().tree_edges() {
        let sep = d.bags().edges()[c.index()]
            .nodes
            .intersection(&d.bags().edges()[p.index()].nodes);
        out.push_str(&format!(
            "  {} -- {}   separator {}\n",
            d.bags().edges()[c.index()].label,
            d.bags().edges()[p.index()].label,
            sep.display(u),
        ));
    }
    Ok(out)
}

/// `hyperq snapshot save`: writes an already-loaded database as a binary
/// snapshot.  The report echoes what was written so scripts can log it.
pub fn run_snapshot_save(db: &Database, out_path: &str) -> Result<String, CliError> {
    db.save_snapshot(out_path).map_err(CliError::from)?;
    let bytes = std::fs::metadata(out_path).map(|m| m.len()).unwrap_or(0);
    Ok(format!(
        "snapshot: wrote {out_path} ({} relations, {} tuples, {bytes} bytes)\n",
        db.relations().len(),
        db.tuple_count(),
    ))
}

/// `hyperq snapshot load`: loads a binary snapshot and prints its summary —
/// the verification half of a save/load round trip, and a quick way to
/// inspect what a snapshot holds without a schema file.
pub fn run_snapshot_load(path: &str) -> Result<String, CliError> {
    let db = Database::load_snapshot(path).map_err(|e| CliError {
        code: 2,
        message: format!("{path}: {e}"),
    })?;
    let schema = db.schema();
    let mut out = String::new();
    out.push_str(&format!(
        "snapshot: {path} ({} nodes, {} relations, {} tuples)\n",
        schema.node_count(),
        schema.edge_count(),
        db.tuple_count(),
    ));
    for (e, r) in schema.edges().iter().zip(db.relations()) {
        out.push_str(&format!(
            "  {} ({})  {} tuples\n",
            e.label,
            e.nodes.names(schema.universe()).join(", "),
            r.len(),
        ));
    }
    Ok(out)
}

/// `hyperq gen`: writes a deterministic random dataset for `schema` —
/// `tuples` per relation, values drawn from `0..domain` with Zipf exponent
/// `skew` — as a text tuple file, or as a binary snapshot with `snapshot`
/// set.  The same seed and parameters always produce the same bytes, so
/// CI scale scenarios are reproducible.
pub fn run_gen(
    schema: &Hypergraph,
    tuples: usize,
    domain: i64,
    skew: f64,
    seed: u64,
    out_path: &str,
    snapshot: bool,
) -> Result<String, CliError> {
    let db = workload::random_database(
        schema,
        workload::DataParams {
            tuples_per_relation: tuples,
            domain,
            skew,
            key_cap: 0,
        },
        seed,
    );
    if snapshot {
        db.save_snapshot(out_path).map_err(CliError::from)?;
    } else {
        std::fs::write(out_path, crate::load::render_database(&db))
            .map_err(|e| CliError::from(format!("cannot write {out_path}: {e}")))?;
    }
    let bytes = std::fs::metadata(out_path).map(|m| m.len()).unwrap_or(0);
    Ok(format!(
        "gen: wrote {out_path} ({} relations, {} tuples, {bytes} bytes, {})\n",
        db.relations().len(),
        db.tuple_count(),
        if snapshot { "snapshot" } else { "text" },
    ))
}

/// `hyperq stats`: structural summary of a schema.
pub fn run_stats(h: &Hypergraph) -> String {
    let u = h.universe();
    let mut out = String::new();
    out.push_str(&format!("nodes: {}\n", h.node_count()));
    out.push_str(&format!("edges: {}\n", h.edge_count()));
    out.push_str(&format!("connected: {}\n", h.is_connected()));
    out.push_str(&format!("reduced: {}\n", h.is_reduced()));
    out.push_str(&format!("components: {}\n", h.components().len()));
    out.push_str(&format!("acyclicity degree: {:?}\n", degree(h)));
    let arts = h.articulation_sets();
    out.push_str(&format!("articulation sets: {}\n", arts.len()));
    for a in arts.iter().take(8) {
        out.push_str(&format!("  {}\n", a.display(u)));
    }
    out.push_str("incidence:\n");
    out.push_str(&h.to_ascii_table());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::load::{parse_database, parse_schema};
    use hyperqd::json::{parse as parse_json, Json};
    use EngineKind::{Connection, Naive, Yannakakis};

    fn fig1() -> Hypergraph {
        parse_schema("R1: A B C\nR2: C D E\nR3: A E F\nR4: A C E\n").unwrap()
    }

    #[test]
    fn classify_fig1_is_acyclic_with_join_tree() {
        let report = run_classify(&fig1());
        assert!(report.contains("classification: ACYCLIC"));
        assert!(report.contains("running-intersection verified: true"));
        assert!(report.contains("cross-check: GYO and MCS agree = true"));
    }

    #[test]
    fn classify_ring_is_cyclic_with_verified_path() {
        let ring = parse_schema("A B\nB C\nC D\nD A\n").unwrap();
        let report = run_classify(&ring);
        assert!(report.contains("classification: CYCLIC"));
        assert!(report.contains("verified: true"));
    }

    #[test]
    fn query_engines_agree_on_consistent_data() {
        let h = fig1();
        let db = parse_database(
            &h,
            "R1: A=1 B=2 C=3\nR2: C=3 D=4 E=5\nR3: A=1 E=5 F=6\nR4: A=1 C=3 E=5\n",
        )
        .unwrap();
        let a = run_query(&db, &["A", "D"], Connection, MetricsMode::Off, None).unwrap();
        let b = run_query(&db, &["A", "D"], Naive, MetricsMode::Off, None).unwrap();
        let c = run_query(&db, &["A", "D"], Yannakakis, MetricsMode::Off, None).unwrap();
        for report in [&a, &b, &c] {
            assert!(report.contains("answer (1 tuples):"), "report: {report}");
        }
        assert!(a.contains("objects joined: R1, R2") || a.contains("objects joined: R2, R4"));
    }

    #[test]
    fn query_rejects_unknown_attributes() {
        let h = fig1();
        let db = parse_database(&h, "").unwrap();
        assert!(run_query(&db, &["Z"], Connection, MetricsMode::Off, None).is_err());
    }

    #[test]
    fn decompose_reports_ring_bags_and_width() {
        let ring = parse_schema("E0: A B\nE1: B C\nE2: C D\nE3: D A\n").unwrap();
        let report = run_decompose(&ring, Heuristic::MinFill, false).unwrap();
        assert!(report.contains("cyclic (no join tree"), "report: {report}");
        assert!(report.contains("2 bags, width 2"), "report: {report}");
        assert!(report.contains("verified (edge coverage + running intersection): true"));
        assert!(report.contains("separator"));
        // The DOT flavor renders the bag tree.
        let dot = run_decompose(&ring, Heuristic::MinDegree, true).unwrap();
        assert!(dot.starts_with("graph decomposition {"));
        assert!(dot.contains("covers:"));
    }

    #[test]
    fn decompose_notes_acyclic_inputs() {
        let report = run_decompose(&fig1(), Heuristic::MinFill, false).unwrap();
        assert!(report.contains("acyclic (a join tree exists"));
        assert!(report.contains("width 2"));
    }

    #[test]
    fn query_yannakakis_answers_cyclic_schemas() {
        // A 4-ring instance whose cycle closes for x=1 only; the yannakakis
        // engine must route through the decomposition and agree with naive.
        let ring = parse_schema("E0: A B\nE1: B C\nE2: C D\nE3: D A\n").unwrap();
        let db = parse_database(
            &ring,
            "E0: A=1 B=1\nE1: B=1 C=1\nE2: C=1 D=1\nE3: D=1 A=1\n\
             E0: A=2 B=2\nE1: B=2 C=2\nE2: C=2 D=2\nE3: D=2 A=9\n",
        )
        .unwrap();
        let yann = run_query(&db, &["A", "C"], Yannakakis, MetricsMode::Off, None).unwrap();
        let naive = run_query(&db, &["A", "C"], Naive, MetricsMode::Off, None).unwrap();
        for report in [&yann, &naive] {
            assert!(report.contains("answer (1 tuples):"), "report: {report}");
        }
    }

    #[test]
    fn query_metrics_table_appends_counters() {
        let h = fig1();
        let db = parse_database(
            &h,
            "R1: A=1 B=2 C=3\nR2: C=3 D=4 E=5\nR3: A=1 E=5 F=6\nR4: A=1 C=3 E=5\n",
        )
        .unwrap();
        let report = run_query(&db, &["A", "D"], Yannakakis, MetricsMode::Table, None).unwrap();
        // The normal report survives, the counter table is appended.
        assert!(report.contains("answer (1 tuples):"), "report: {report}");
        assert!(report.contains("metrics:"), "report: {report}");
        assert!(report.contains("semijoin"), "report: {report}");
        assert!(report.contains("levels:"), "report: {report}");
    }

    #[test]
    fn query_metrics_json_is_the_whole_output() {
        let h = fig1();
        let db = parse_database(
            &h,
            "R1: A=1 B=2 C=3\nR2: C=3 D=4 E=5\nR3: A=1 E=5 F=6\nR4: A=1 C=3 E=5\n",
        )
        .unwrap();
        let json = run_query(&db, &["A", "D"], Yannakakis, MetricsMode::Json, None).unwrap();
        assert!(
            !json.contains("answer ("),
            "json must replace the report: {json}"
        );
        // One compact line, every section present.
        assert_eq!(json.matches('\n').count(), 1, "json: {json}");
        let doc = parse_json(&json).expect("the output is one JSON document");
        for member in ["join", "semijoin", "levels", "bags"] {
            assert!(doc.get(member).is_some(), "missing {member:?} in: {json}");
        }
        // An acyclic schema took no decomposition.
        assert_eq!(doc.get("decomposition"), Some(&Json::Null));
    }

    #[test]
    fn cyclic_query_metrics_report_decomposition_widths() {
        let ring = parse_schema("E0: A B\nE1: B C\nE2: C D\nE3: D A\n").unwrap();
        let db = parse_database(
            &ring,
            "E0: A=1 B=1\nE1: B=1 C=1\nE2: C=1 D=1\nE3: D=1 A=1\n",
        )
        .unwrap();
        let json = run_query(&db, &["A", "C"], Yannakakis, MetricsMode::Json, None).unwrap();
        let doc = parse_json(&json).expect("the output is one JSON document");
        let widths = doc.get("decomposition").expect("decomposition member");
        assert!(widths.get("min_fill_width").is_some(), "json: {json}");
        let bags = doc.get("bags").and_then(|b| b.as_arr());
        assert!(bags.is_some_and(|b| !b.is_empty()), "bags recorded: {json}");
    }

    #[test]
    fn dot_and_stats_render() {
        let h = fig1();
        let dot = run_dot(&h, "fig1");
        assert!(dot.starts_with("graph fig1 {"));
        assert!(dot.contains("\"R1\""));
        let stats = run_stats(&h);
        assert!(stats.contains("nodes: 6"));
        assert!(stats.contains("edges: 4"));
        assert!(stats.contains("connected: true"));
    }

    #[test]
    fn governed_query_matches_ungoverned_and_times_out_with_code_3() {
        let h = fig1();
        let db = parse_database(
            &h,
            "R1: A=1 B=2 C=3\nR2: C=3 D=4 E=5\nR3: A=1 E=5 F=6\nR4: A=1 C=3 E=5\n",
        )
        .unwrap();
        // A roomy governor changes nothing about the report.
        let gov = reldb::QueryGovernor::new()
            .with_deadline(std::time::Duration::from_secs(3600))
            .with_memory_budget(1 << 30);
        let governed =
            run_query(&db, &["A", "D"], Yannakakis, MetricsMode::Off, Some(&gov)).unwrap();
        let plain = run_query(&db, &["A", "D"], Yannakakis, MetricsMode::Off, None).unwrap();
        assert_eq!(governed, plain);
        // A zero deadline trips deterministically, mapped to exit code 3.
        let gov = reldb::QueryGovernor::new().with_deadline(std::time::Duration::ZERO);
        let err =
            run_query(&db, &["A", "D"], Yannakakis, MetricsMode::Off, Some(&gov)).unwrap_err();
        assert_eq!(err.code, 3, "message: {}", err.message);
        assert!(err.message.contains("deadline exceeded"), "{}", err.message);
        // A one-byte budget trips the allocation guard, mapped to code 4.
        let gov = reldb::QueryGovernor::new().with_memory_budget(1);
        let err =
            run_query(&db, &["A", "D"], Yannakakis, MetricsMode::Off, Some(&gov)).unwrap_err();
        assert_eq!(err.code, 4, "message: {}", err.message);
    }

    #[test]
    fn parse_errors_keep_their_line_numbers() {
        let e = parse_schema("R1: A B\nR1: C D\n").unwrap_err();
        let cli = CliError::parse("schema.hg", e);
        assert_eq!(cli.code, 2);
        assert!(
            cli.message.starts_with("schema.hg: line 2:"),
            "message: {}",
            cli.message
        );
    }

    #[test]
    fn engine_parsing() {
        // `--engine` reads through the protocol's one table: `hyperq query`
        // and `hyperq client` take and refuse the same spellings, with the
        // same message.
        for engine in [Connection, Yannakakis, Naive] {
            assert_eq!(EngineKind::parse(engine.as_str()), Ok(engine));
        }
        let err = EngineKind::parse("turbo").unwrap_err();
        assert!(err.contains("expected connection, yannakakis or naive"));
    }
}
