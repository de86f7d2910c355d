//! Column storage.
//!
//! Every column is a vector of `i64` values. String columns are
//! dictionary-encoded at generation time (the dictionary itself is not
//! needed by the optimizer — only value identity and ordering matter for
//! predicates and joins), so a single physical representation suffices.
//! NULL is represented by [`NULL_SENTINEL`].

use serde::{Deserialize, Serialize};

/// Sentinel value representing SQL NULL inside a column.
pub const NULL_SENTINEL: i64 = i64::MIN;

/// A single column value.
pub type Value = i64;

/// A dictionary-encoded, in-memory column of `i64` values.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Column {
    values: Vec<Value>,
}

impl Column {
    /// Creates a column from raw values.
    pub fn new(values: Vec<Value>) -> Self {
        Self { values }
    }

    /// Number of rows in the column.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Returns `true` when the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Value at `row` (which must be in bounds).
    #[inline]
    pub fn get(&self, row: usize) -> Value {
        self.values[row]
    }

    /// Raw value slice.
    #[inline]
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// Iterator over non-null values.
    pub fn non_null(&self) -> impl Iterator<Item = Value> + '_ {
        self.values.iter().copied().filter(|&v| v != NULL_SENTINEL)
    }
}

impl From<Vec<Value>> for Column {
    fn from(values: Vec<Value>) -> Self {
        Self::new(values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_access() {
        let c = Column::new(vec![1, 2, NULL_SENTINEL, 4]);
        assert_eq!(c.len(), 4);
        assert!(!c.is_empty());
        assert_eq!(c.get(1), 2);
        assert_eq!(c.get(2), NULL_SENTINEL);
        assert_eq!(c.non_null().collect::<Vec<_>>(), vec![1, 2, 4]);
    }

    #[test]
    fn empty_column() {
        let c = Column::new(vec![]);
        assert!(c.is_empty());
        assert_eq!(c.non_null().count(), 0);
    }
}
