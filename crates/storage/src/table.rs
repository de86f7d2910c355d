//! Tables: named collections of equal-length columns.

use crate::column::{Column, Value};

/// An in-memory columnar table.
#[derive(Debug, Clone)]
pub struct Table {
    name: String,
    column_names: Vec<String>,
    columns: Vec<Column>,
    rows: usize,
}

impl Table {
    /// Creates a table from `(name, column)` pairs. All columns must have
    /// the same length.
    ///
    /// # Panics
    /// Panics if column lengths disagree.
    pub fn new(name: impl Into<String>, cols: Vec<(String, Column)>) -> Self {
        let rows = cols.first().map(|(_, c)| c.len()).unwrap_or(0);
        for (cname, c) in &cols {
            assert_eq!(
                c.len(),
                rows,
                "column {cname} has {} rows, expected {rows}",
                c.len()
            );
        }
        let (column_names, columns) = cols.into_iter().unzip();
        Self {
            name: name.into(),
            column_names,
            columns,
            rows,
        }
    }

    /// Table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn num_columns(&self) -> usize {
        self.columns.len()
    }

    /// Column by positional index.
    pub fn column(&self, idx: usize) -> &Column {
        &self.columns[idx]
    }

    /// Column names in declaration order.
    pub fn column_names(&self) -> &[String] {
        &self.column_names
    }

    /// Value at `(row, col)`.
    pub fn value(&self, row: usize, col: usize) -> Value {
        self.columns[col].get(row)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Table {
        /// Column index by name, if present.
        fn column_index(&self, name: &str) -> Option<usize> {
            self.column_names.iter().position(|n| n == name)
        }

        /// Column by name.
        ///
        /// # Panics
        /// Panics if the column does not exist.
        pub(crate) fn column_by_name(&self, name: &str) -> &Column {
            let idx = self
                .column_index(name)
                .unwrap_or_else(|| panic!("table {} has no column {name}", self.name));
            &self.columns[idx]
        }
    }

    fn sample() -> Table {
        Table::new(
            "t",
            vec![
                ("id".to_string(), Column::new(vec![1, 2, 3])),
                ("x".to_string(), Column::new(vec![10, 20, 30])),
            ],
        )
    }

    #[test]
    fn accessors() {
        let t = sample();
        assert_eq!(t.name(), "t");
        assert_eq!(t.num_rows(), 3);
        assert_eq!(t.num_columns(), 2);
        assert_eq!(t.column_index("x"), Some(1));
        assert_eq!(t.column_index("nope"), None);
        assert_eq!(t.column_by_name("x").get(2), 30);
        assert_eq!(t.value(0, 0), 1);
    }

    #[test]
    #[should_panic(expected = "has no column")]
    fn missing_column_panics() {
        sample().column_by_name("nope");
    }

    #[test]
    #[should_panic(expected = "rows, expected")]
    fn mismatched_lengths_panic() {
        Table::new(
            "bad",
            vec![
                ("a".to_string(), Column::new(vec![1])),
                ("b".to_string(), Column::new(vec![1, 2])),
            ],
        );
    }
}
