//! Select-project-join query blocks.
//!
//! Balsa optimizes SPJ blocks (§2, "Assumptions"). A [`Query`] is a set of
//! aliased table references, a connected equi-join graph over them, and a
//! conjunction of base-table filters. Table subsets are manipulated as
//! [`TableMask`] bitmasks (queries join at most 16 tables in JOB, well
//! within a `u32`).

use balsa_storage::{Catalog, ColumnId, TableId};
use serde::{Deserialize, Serialize};

/// Globally unique query identifier within a workload.
pub type QueryId = u32;

/// A bitmask over the tables (by position) of one query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct TableMask(pub u32);

impl TableMask {
    /// The empty set.
    pub const EMPTY: TableMask = TableMask(0);

    /// How many query tables a mask can hold.
    pub const WIDTH: usize = u32::BITS as usize;

    /// Mask containing only query-table `i`.
    #[inline]
    pub fn single(i: usize) -> Self {
        TableMask(1 << i)
    }

    /// Mask containing tables `0..n`.
    #[inline]
    pub fn all(n: usize) -> Self {
        debug_assert!(n <= 32);
        if n == 32 {
            TableMask(u32::MAX)
        } else {
            TableMask((1u32 << n) - 1)
        }
    }

    /// Set union.
    #[inline]
    pub fn union(self, other: Self) -> Self {
        TableMask(self.0 | other.0)
    }

    /// Set intersection.
    #[inline]
    pub fn intersect(self, other: Self) -> Self {
        TableMask(self.0 & other.0)
    }

    /// Membership test.
    #[inline]
    pub fn contains(self, i: usize) -> bool {
        self.0 & (1 << i) != 0
    }

    /// Whether `other` is a subset of `self`.
    #[inline]
    pub fn contains_all(self, other: Self) -> bool {
        self.0 & other.0 == other.0
    }

    /// Whether the two masks share no tables.
    #[inline]
    pub fn disjoint(self, other: Self) -> bool {
        self.0 & other.0 == 0
    }

    /// Number of tables in the set.
    #[inline]
    pub fn count(self) -> u32 {
        self.0.count_ones()
    }

    /// Whether the set is empty.
    #[inline]
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Iterates over member indices, ascending.
    pub fn iter(self) -> impl Iterator<Item = usize> {
        let mut bits = self.0;
        std::iter::from_fn(move || {
            if bits == 0 {
                None
            } else {
                let i = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                Some(i)
            }
        })
    }

    /// Lowest member index (`None` when empty). DPccp's enumeration
    /// order is keyed on this.
    #[inline]
    pub fn lowest(self) -> Option<usize> {
        if self.0 == 0 {
            None
        } else {
            Some(self.0.trailing_zeros() as usize)
        }
    }

    /// Iterates over all **non-empty** subsets of this mask in ascending
    /// numeric order — the `s' = (s' - N) & N` trick driving DPccp's
    /// neighborhood expansion.
    pub fn subsets(self) -> impl Iterator<Item = TableMask> {
        let n = self.0;
        let mut s = 0u32;
        std::iter::from_fn(move || {
            s = s.wrapping_sub(n) & n;
            if s == 0 {
                None
            } else {
                Some(TableMask(s))
            }
        })
    }
}

/// A comparison operator for filter predicates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

/// A filter predicate over one column.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Predicate {
    /// `col OP value`.
    Cmp(CmpOp, i64),
    /// `col BETWEEN lo AND hi` (inclusive).
    Between(i64, i64),
    /// `col IN (values)`.
    InList(Vec<i64>),
}

/// A filter attached to one aliased table reference.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Filter {
    /// Index into [`Query::tables`].
    pub qt: usize,
    /// Column within that table.
    pub col: ColumnId,
    /// The predicate.
    pub pred: Predicate,
}

/// An aliased table reference. The same catalog table may appear several
/// times in one query under different aliases (e.g. `info_type AS it1`,
/// `info_type AS it2` in JOB).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct QueryTable {
    /// The referenced catalog table.
    pub table: TableId,
    /// Alias used in the query text.
    pub alias: String,
}

/// An equi-join edge between two aliased tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct JoinEdge {
    /// Left query-table index.
    pub left_qt: usize,
    /// Column of the left table.
    pub left_col: ColumnId,
    /// Right query-table index.
    pub right_qt: usize,
    /// Column of the right table.
    pub right_col: ColumnId,
}

impl JoinEdge {
    /// Whether this edge connects a table in `a` to a table in `b`.
    pub fn crosses(&self, a: TableMask, b: TableMask) -> bool {
        (a.contains(self.left_qt) && b.contains(self.right_qt))
            || (a.contains(self.right_qt) && b.contains(self.left_qt))
    }

    /// Whether both endpoints fall inside `mask`.
    pub fn within(&self, mask: TableMask) -> bool {
        mask.contains(self.left_qt) && mask.contains(self.right_qt)
    }
}

/// A select-project-join query block.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Query {
    /// Unique id within the workload.
    pub id: QueryId,
    /// Human-readable name, e.g. `"job_07b"`.
    pub name: String,
    /// Template id this query was instantiated from.
    pub template: u32,
    /// Aliased table references.
    pub tables: Vec<QueryTable>,
    /// Equi-join graph edges.
    pub joins: Vec<JoinEdge>,
    /// Conjunctive filters over base tables.
    pub filters: Vec<Filter>,
}

impl Query {
    /// Number of table references.
    pub fn num_tables(&self) -> usize {
        self.tables.len()
    }

    /// Number of joins (edges); the paper counts query complexity this way.
    pub fn num_joins(&self) -> usize {
        self.joins.len()
    }

    /// Mask of all tables in the query.
    pub fn all_mask(&self) -> TableMask {
        TableMask::all(self.tables.len())
    }

    /// Filters attached to query-table `qt`.
    pub fn filters_on(&self, qt: usize) -> impl Iterator<Item = &Filter> {
        self.filters.iter().filter(move |f| f.qt == qt)
    }

    /// All join edges crossing between the disjoint masks `a` and `b`.
    pub fn edges_between(&self, a: TableMask, b: TableMask) -> Vec<JoinEdge> {
        self.joins
            .iter()
            .filter(|e| e.crosses(a, b))
            .copied()
            .collect()
    }

    /// Whether joining `a` and `b` is permitted (at least one edge crosses;
    /// cross products are excluded from the search space, §7).
    pub fn connected(&self, a: TableMask, b: TableMask) -> bool {
        self.joins.iter().any(|e| e.crosses(a, b))
    }

    /// Per-table adjacency: `result[qt]` is the mask of tables sharing a
    /// join edge with `qt`. Precomputed once per query by planners so
    /// neighborhood expansion is a couple of word ops per step.
    pub fn neighbor_masks(&self) -> Vec<TableMask> {
        let mut adj = vec![TableMask::EMPTY; self.tables.len()];
        for e in &self.joins {
            adj[e.left_qt] = adj[e.left_qt].union(TableMask::single(e.right_qt));
            adj[e.right_qt] = adj[e.right_qt].union(TableMask::single(e.left_qt));
        }
        adj
    }

    /// Whether the subset `mask` induces a connected join subgraph.
    pub fn subgraph_connected(&self, mask: TableMask) -> bool {
        let n = mask.count();
        if n <= 1 {
            return !mask.is_empty();
        }
        let start = mask.iter().next().expect("non-empty");
        let mut reached = TableMask::single(start);
        loop {
            let mut grew = false;
            for e in &self.joins {
                if !e.within(mask) {
                    continue;
                }
                let l = reached.contains(e.left_qt);
                let r = reached.contains(e.right_qt);
                if l != r {
                    reached =
                        reached.union(TableMask::single(if l { e.right_qt } else { e.left_qt }));
                    grew = true;
                }
            }
            if !grew {
                break;
            }
        }
        reached.contains_all(mask)
    }

    /// Query-table indices whose alias resolves to `alias`.
    pub fn qt_by_alias(&self, alias: &str) -> Option<usize> {
        self.tables.iter().position(|t| t.alias == alias)
    }

    /// Validates internal consistency against a catalog: table ids, column
    /// ids, edge endpoints, and join-graph connectivity.
    pub fn validate(&self, catalog: &Catalog) -> Result<(), String> {
        if self.tables.is_empty() {
            return Err("query has no tables".into());
        }
        if self.tables.len() > 32 {
            return Err("more than 32 tables".into());
        }
        for (i, t) in self.tables.iter().enumerate() {
            if t.table >= catalog.num_tables() {
                return Err(format!("table ref {i} out of range"));
            }
        }
        for e in &self.joins {
            for (qt, col) in [(e.left_qt, e.left_col), (e.right_qt, e.right_col)] {
                let t = self
                    .tables
                    .get(qt)
                    .ok_or_else(|| format!("edge endpoint {qt} out of range"))?;
                if col >= catalog.table(t.table).columns.len() {
                    return Err(format!("edge column {col} out of range for {}", t.alias));
                }
            }
            if e.left_qt == e.right_qt {
                return Err("self-loop join edge".into());
            }
        }
        for f in &self.filters {
            let t = self
                .tables
                .get(f.qt)
                .ok_or_else(|| format!("filter qt {} out of range", f.qt))?;
            if f.col >= catalog.table(t.table).columns.len() {
                return Err(format!(
                    "filter column {} out of range for {}",
                    f.col, t.alias
                ));
            }
        }
        if !self.subgraph_connected(self.all_mask()) {
            return Err(format!("join graph of {} is not connected", self.name));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_table_query() -> Query {
        Query {
            id: 0,
            name: "q".into(),
            template: 0,
            tables: vec![
                QueryTable {
                    table: 0,
                    alias: "a".into(),
                },
                QueryTable {
                    table: 1,
                    alias: "b".into(),
                },
                QueryTable {
                    table: 1,
                    alias: "b2".into(),
                },
            ],
            joins: vec![
                JoinEdge {
                    left_qt: 0,
                    left_col: 0,
                    right_qt: 1,
                    right_col: 1,
                },
                JoinEdge {
                    left_qt: 0,
                    left_col: 0,
                    right_qt: 2,
                    right_col: 1,
                },
            ],
            filters: vec![Filter {
                qt: 1,
                col: 0,
                pred: Predicate::Cmp(CmpOp::Eq, 5),
            }],
        }
    }

    #[test]
    fn mask_ops() {
        let m = TableMask::single(0).union(TableMask::single(3));
        assert_eq!(m.count(), 2);
        assert!(m.contains(3));
        assert!(!m.contains(1));
        assert_eq!(m.iter().collect::<Vec<_>>(), vec![0, 3]);
        assert!(TableMask::all(4).contains_all(m));
        assert!(m.disjoint(TableMask::single(2)));
        assert!(!m.disjoint(TableMask::single(3)));
        assert_eq!(TableMask::all(32).count(), 32);
        assert!(TableMask::EMPTY.is_empty());
    }

    #[test]
    fn subset_enumeration_and_lowest() {
        let m = TableMask(0b1011);
        let subs: Vec<u32> = m.subsets().map(|s| s.0).collect();
        assert_eq!(
            subs,
            vec![0b0001, 0b0010, 0b0011, 0b1000, 0b1001, 0b1010, 0b1011]
        );
        assert_eq!(TableMask::EMPTY.subsets().count(), 0);
        assert_eq!(m.lowest(), Some(0));
        assert_eq!(TableMask(0b1000).lowest(), Some(3));
        assert_eq!(TableMask::EMPTY.lowest(), None);
    }

    #[test]
    fn neighbor_masks_mirror_edges() {
        let q = two_table_query();
        let adj = q.neighbor_masks();
        assert_eq!(adj.len(), 3);
        assert_eq!(adj[0], TableMask(0b110)); // a -- b, a -- b2
        assert_eq!(adj[1], TableMask(0b001));
        assert_eq!(adj[2], TableMask(0b001));
    }

    #[test]
    fn connectivity() {
        let q = two_table_query();
        assert!(q.connected(TableMask::single(0), TableMask::single(1)));
        assert!(!q.connected(TableMask::single(1), TableMask::single(2)));
        assert!(q.subgraph_connected(q.all_mask()));
        assert!(q.subgraph_connected(TableMask(0b011)));
        assert!(!q.subgraph_connected(TableMask(0b110)));
    }

    #[test]
    fn edges_between_masks() {
        let q = two_table_query();
        let e = q.edges_between(TableMask::single(0), TableMask(0b110));
        assert_eq!(e.len(), 2);
    }

    #[test]
    fn aliases() {
        let q = two_table_query();
        assert_eq!(q.qt_by_alias("b2"), Some(2));
        assert_eq!(q.qt_by_alias("zz"), None);
    }
}
