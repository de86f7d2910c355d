//! Schema metadata: tables, columns, keys, foreign keys, and indexes.

use crate::stats::TableStats;
use crate::table::Table;
use serde::{Deserialize, Serialize};

/// Identifier of a table within a [`Catalog`].
pub type TableId = usize;
/// Identifier of a column within its table.
pub type ColumnId = usize;

/// Metadata for one column.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ColumnMeta {
    /// Column name.
    pub name: String,
    /// Whether an index exists on this column (primary keys and foreign
    /// keys are indexed by the generators, mirroring the paper's setup of
    /// "all primary and foreign key indexes created").
    pub indexed: bool,
}

/// Metadata for one table.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TableMeta {
    /// Table name.
    pub name: String,
    /// Column metadata in declaration order.
    pub columns: Vec<ColumnMeta>,
    /// Index of the primary-key column, if any.
    pub primary_key: Option<ColumnId>,
}

impl TableMeta {
    /// Column id by name.
    pub fn column_id(&self, name: &str) -> Option<ColumnId> {
        self.columns.iter().position(|c| c.name == name)
    }
}

/// A foreign-key edge `child.child_col -> parent.parent_col`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FkEdge {
    /// Referencing (fact) table.
    pub child: TableId,
    /// Referencing column in `child`.
    pub child_col: ColumnId,
    /// Referenced (dimension) table.
    pub parent: TableId,
    /// Referenced column in `parent` (its primary key).
    pub parent_col: ColumnId,
}

/// The schema: table metadata plus the foreign-key join graph.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Catalog {
    tables: Vec<TableMeta>,
    fk_edges: Vec<FkEdge>,
}

impl Catalog {
    /// Creates an empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a table, returning its id.
    pub fn add_table(&mut self, meta: TableMeta) -> TableId {
        self.tables.push(meta);
        self.tables.len() - 1
    }

    /// Registers a foreign-key edge.
    pub fn add_fk(&mut self, edge: FkEdge) {
        self.fk_edges.push(edge);
    }

    /// Number of tables.
    pub fn num_tables(&self) -> usize {
        self.tables.len()
    }

    /// Table metadata by id.
    pub fn table(&self, id: TableId) -> &TableMeta {
        &self.tables[id]
    }

    /// Table id by name.
    pub fn table_id(&self, name: &str) -> Option<TableId> {
        self.tables.iter().position(|t| t.name == name)
    }

    /// All tables.
    pub fn tables(&self) -> &[TableMeta] {
        &self.tables
    }

    /// All foreign-key edges.
    pub fn fk_edges(&self) -> &[FkEdge] {
        &self.fk_edges
    }

    /// Whether `table.col` is indexed.
    pub fn is_indexed(&self, table: TableId, col: ColumnId) -> bool {
        self.tables[table].columns[col].indexed
    }
}

/// A full database: catalog, table data, and per-table statistics.
#[derive(Debug, Clone)]
pub struct Database {
    catalog: Catalog,
    tables: Vec<Table>,
    stats: Vec<TableStats>,
}

impl Database {
    /// Assembles a database from its parts. `tables` and `stats` must be
    /// aligned with catalog table ids.
    ///
    /// # Panics
    /// Panics if the component lengths disagree.
    pub fn new(catalog: Catalog, tables: Vec<Table>, stats: Vec<TableStats>) -> Self {
        assert_eq!(catalog.num_tables(), tables.len());
        assert_eq!(catalog.num_tables(), stats.len());
        Self {
            catalog,
            tables,
            stats,
        }
    }

    /// Schema.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Table data by id.
    pub fn table(&self, id: TableId) -> &Table {
        &self.tables[id]
    }

    /// Table statistics by id.
    pub fn stats(&self, id: TableId) -> &TableStats {
        &self.stats[id]
    }

    /// Total number of rows across all tables.
    pub fn total_rows(&self) -> usize {
        self.tables.iter().map(Table::num_rows).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_roundtrip() {
        let mut c = Catalog::new();
        let a = c.add_table(TableMeta {
            name: "a".into(),
            columns: vec![ColumnMeta {
                name: "id".into(),
                indexed: true,
            }],
            primary_key: Some(0),
        });
        let b = c.add_table(TableMeta {
            name: "b".into(),
            columns: vec![
                ColumnMeta {
                    name: "id".into(),
                    indexed: true,
                },
                ColumnMeta {
                    name: "a_id".into(),
                    indexed: true,
                },
            ],
            primary_key: Some(0),
        });
        c.add_fk(FkEdge {
            child: b,
            child_col: 1,
            parent: a,
            parent_col: 0,
        });
        assert_eq!(c.num_tables(), 2);
        assert_eq!(c.table_id("b"), Some(b));
        assert_eq!(c.table(a).name, "a");
        assert_eq!(c.fk_edges().len(), 1);
        assert_eq!((c.fk_edges()[0].child, c.fk_edges()[0].parent), (b, a));
        assert!(c.is_indexed(b, 1));
        assert_eq!(c.table(b).column_id("a_id"), Some(1));
    }
}
