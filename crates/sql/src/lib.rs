//! # ironsafe-sql
//!
//! A from-scratch relational engine playing the role SQLite plays in the
//! paper: SQL text in, rows out, with all table data living in 4 KiB pages
//! behind the [`ironsafe_storage::Pager`] abstraction — so the exact same
//! engine runs over plaintext storage (the non-secure baselines) and over
//! the encrypted + Merkle-protected secure store (IronSafe's storage
//! engine), just as the paper swaps SQLCipher under SQLite's pager.
//!
//! Pipeline: [`token`] → [`parser`] → [`ast`] → [`plan`] → [`exec`]
//! (volcano-style iterators) over [`heap`] storage described by the
//! [`catalog`].
//!
//! Supported SQL (chosen to cover the paper's 16 TPC-H queries and the
//! GDPR workloads): `CREATE TABLE`, `INSERT`, `UPDATE`, `DELETE`, and
//! `SELECT` with multi-table joins, `WHERE` (AND/OR/NOT, comparison,
//! `BETWEEN`, `IN`, `LIKE`), arithmetic, `CASE WHEN`, aggregates
//! (`COUNT`/`SUM`/`AVG`/`MIN`/`MAX`), `GROUP BY`, `HAVING`, `ORDER BY`,
//! `LIMIT`. Dates are ISO-8601 strings (lexicographic order is date
//! order), matching how the workload generator emits them.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ast;
pub mod batch;
pub mod catalog;
pub mod db;
pub mod encoded;
pub mod exec;
pub mod expr;
pub mod heap;
pub mod meta;
pub mod parser;
pub mod plan;
pub mod schema;
pub mod token;
pub mod value;

pub use db::{Database, QueryResult};
pub use encoded::{EncodedRows, EncodedSlice};
pub use schema::{Column, Row, Schema};
pub use value::{DataType, Value};

/// Errors raised by the SQL engine.
#[derive(Debug, Clone, PartialEq)]
pub enum SqlError {
    /// Tokenizer rejected the input.
    Lex(String),
    /// Parser rejected the input.
    Parse(String),
    /// Planning failed (unknown table/column, unsupported shape).
    Plan(String),
    /// Runtime evaluation failed (type error, division by zero...).
    Eval(String),
    /// Underlying storage failure.
    Storage(ironsafe_storage::StorageError),
}

impl std::fmt::Display for SqlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SqlError::Lex(m) => write!(f, "lex error: {m}"),
            SqlError::Parse(m) => write!(f, "parse error: {m}"),
            SqlError::Plan(m) => write!(f, "plan error: {m}"),
            SqlError::Eval(m) => write!(f, "eval error: {m}"),
            SqlError::Storage(e) => write!(f, "storage error: {e}"),
        }
    }
}

impl std::error::Error for SqlError {}

impl From<ironsafe_storage::StorageError> for SqlError {
    fn from(e: ironsafe_storage::StorageError) -> Self {
        SqlError::Storage(e)
    }
}

/// Convenience alias.
pub type Result<T> = std::result::Result<T, SqlError>;
