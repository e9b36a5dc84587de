//! `hyperqd` — a long-running universal-relation query server.
//!
//! The paper's model assumes a resident database answering many ad-hoc
//! queries; the one-shot `hyperq` CLI re-loads its data on every
//! invocation.  This crate supplies the missing piece: a server that loads
//! databases (text or `.hqs` snapshot) once at startup and answers
//! concurrent clients over a line-oriented JSON protocol on TCP.
//!
//! | module | contents |
//! |---|---|
//! | [`json`] | dependency-free JSON value, parser and serializer |
//! | [`protocol`] | typed request/response frames, canonical (round-tripping) serialization, the engine vocabulary and the error-kind → exit-code contract, and the JSON document of `reldb`'s metrics report — every wire rendering |
//! | [`load`] | the text schema/data parsers and snapshot loading, shared with the `hyperq` CLI |
//! | [`stats`] | server telemetry: log-bucketed latency [`stats::Histogram`]s, the server's atomic registry, canonical JSON snapshots and Prometheus-style exposition |
//! | [`server`] | the TCP server: thread-per-connection, per-request [`reldb::QueryGovernor`]s, each query on its connection's thread, prepared queries, per-query trace ids, a slow-query log, graceful shutdown |
//!
//! The server is a library first (the differential soak and fault
//! harnesses in `tests/` drive in-process instances on ephemeral ports)
//! and a binary second (`src/main.rs`, exercised by the CI `server` job).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;
pub mod load;
pub mod protocol;
mod rank;
pub mod server;
pub mod stats;

pub use protocol::{
    parse_request, parse_response, render_request, render_response, EngineKind, ErrorKind,
    Overrides, QuerySpec, Request, Response, Rows, WireError, MAX_LINE,
};
pub use server::{answer_frame, ServeStats, Server, ServerConfig, ServerHandle};
pub use stats::Histogram;
