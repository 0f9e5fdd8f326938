//! Schemas and rows.

use crate::value::{DataType, Value};
use crate::{Result, SqlError};

/// A named, typed column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Column {
    /// Column name (lowercase).
    pub name: String,
    /// Declared type.
    pub ty: DataType,
}

impl Column {
    /// Build a column (name is lowercased).
    pub fn new(name: impl Into<String>, ty: DataType) -> Self {
        Column { name: name.into().to_ascii_lowercase(), ty }
    }
}

/// An ordered set of columns.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Schema {
    /// The columns.
    pub columns: Vec<Column>,
}

impl Schema {
    /// Build from columns.
    pub fn new(columns: Vec<Column>) -> Self {
        Schema { columns }
    }

    /// Number of columns.
    pub fn len(&self) -> usize {
        self.columns.len()
    }

    /// True when there are no columns.
    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }

    /// Resolve a (possibly qualified) column name to its index.
    ///
    /// `"t.col"` resolves by its last segment; plain `"col"` matches
    /// directly. TPC-H column names are globally unique so unqualified
    /// resolution is unambiguous; an ambiguous match is an error.
    pub fn resolve(&self, name: &str) -> Result<usize> {
        // Column names are stored lowercase; compare case-insensitively
        // instead of lowercasing the needle into a fresh `String`. Called
        // at plan time only: `expr::bind` turns names into row indexes.
        let needle = name.rsplit('.').next().expect("split yields at least one");
        let mut found = None;
        for (i, c) in self.columns.iter().enumerate() {
            if c.name.eq_ignore_ascii_case(needle) {
                if found.is_some() {
                    return Err(SqlError::Plan(format!("ambiguous column `{name}`")));
                }
                found = Some(i);
            }
        }
        found.ok_or_else(|| SqlError::Plan(format!("unknown column `{name}`")))
    }

    /// Concatenate two schemas (for joins).
    pub fn join(&self, other: &Schema) -> Schema {
        let mut columns = self.columns.clone();
        columns.extend(other.columns.iter().cloned());
        Schema { columns }
    }
}

/// A row of values, positionally matching a [`Schema`].
pub type Row = Vec<Value>;

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Schema {
        Schema::new(vec![
            Column::new("l_orderkey", DataType::Int),
            Column::new("l_quantity", DataType::Float),
            Column::new("l_shipdate", DataType::Text),
        ])
    }

    #[test]
    fn resolve_plain_and_qualified() {
        let s = schema();
        assert_eq!(s.resolve("l_quantity").unwrap(), 1);
        assert_eq!(s.resolve("lineitem.l_quantity").unwrap(), 1);
        assert_eq!(s.resolve("L_QUANTITY").unwrap(), 1);
    }

    #[test]
    fn unknown_column_errors() {
        assert!(schema().resolve("nope").is_err());
    }

    #[test]
    fn ambiguous_column_errors() {
        let dup = Schema::new(vec![
            Column::new("id", DataType::Int),
            Column::new("id", DataType::Int),
        ]);
        assert!(matches!(dup.resolve("id"), Err(SqlError::Plan(_))));
    }

    #[test]
    fn join_concatenates() {
        let a = schema();
        let b = Schema::new(vec![Column::new("o_orderkey", DataType::Int)]);
        let j = a.join(&b);
        assert_eq!(j.len(), 4);
        assert_eq!(j.resolve("o_orderkey").unwrap(), 3);
    }
}
