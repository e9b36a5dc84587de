//! Parsers for the `hyperq` on-disk formats.
//!
//! The parsing core (schema edge-lists, `LABEL: A=1 B=x` tuple files,
//! snapshot schema matching) moved to [`hyperqd::load`] when the server
//! grew out of this CLI — both binaries read exactly the same formats,
//! through the same loader.  This module re-exports it and keeps the
//! CLI-flavored [`load_data`] wrapper that maps failures onto exit codes.

pub use hyperqd::load::{parse_database, parse_schema, render_database, ParseError};

use hyperqd::load::{load_source, DbSource};
use reldb::Database;

/// Loads the data file at `data` against the schema file at `schema`,
/// exactly as the server loads a `schema,data` source
/// ([`hyperqd::load::load_source`]): a binary snapshot (recognized by its
/// magic) streams in and must carry the schema file's labeled edges,
/// anything else parses as a text tuple file.  Failures map onto the
/// CLI's exit codes.
pub fn load_data(schema: &str, data: &str) -> Result<Database, crate::commands::CliError> {
    load_source(&DbSource::Text {
        schema: schema.into(),
        data: data.into(),
    })
    .map_err(crate::commands::CliError::from)
}
