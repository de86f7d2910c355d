//! The shared candidate-generation core.
//!
//! The DP enumerator, the beam search, and the random sampler all draw
//! their moves from one [`CandidateSpace`]: which scan operators may
//! serve a base table, which join operators exist, which (left, right)
//! orientations the search mode permits, and which table subsets induce
//! connected join subgraphs. Keeping this in one place guarantees the
//! three procedures explore the *same* plan space — the property the
//! paper relies on when comparing the expert enumerator with the
//! learned agent's beam search.
//!
//! The **scored** candidate path ([`CandidateSpace::scored_scan_plans`];
//! joins go to [`QueryScorer::score_join_values`] a level or a step at
//! a time, and the kept ones to [`QueryScorer::score_join_batch`]) pairs
//! every generated move with its [`ScoredTree`] under an
//! arbitrary [`QueryScorer`] session, so search procedures never touch a
//! cost model directly — the expert model, `C_out`, and the learned
//! value model are interchangeable.

use crate::SearchMode;
use balsa_cost::{QueryScorer, ScoredTree};
use balsa_query::{JoinOp, Plan, Query, ScanOp, TableMask};
use balsa_storage::Database;
use std::sync::Arc;

/// The most tables [`CandidateSpace::connected_table`] tabulates (its
/// `2^n` entries are 32 MB at this size).
pub const CONNECTED_TABLE_MAX_TABLES: usize = 25;

/// Candidate moves for one query under one search mode.
pub struct CandidateSpace<'a> {
    db: &'a Database,
    query: &'a Query,
    mode: SearchMode,
}

impl<'a> CandidateSpace<'a> {
    /// Creates the space for `query` on `db`.
    pub fn new(db: &'a Database, query: &'a Query, mode: SearchMode) -> Self {
        Self { db, query, mode }
    }

    /// The query being planned.
    pub fn query(&self) -> &'a Query {
        self.query
    }

    /// The database (for index metadata).
    pub fn db(&self) -> &'a Database {
        self.db
    }

    /// The search mode.
    pub fn mode(&self) -> SearchMode {
        self.mode
    }

    /// Scan candidates for query-table `qt`: a sequential scan always,
    /// and an index scan when the table has at least one indexed column
    /// to drive it.
    pub fn scan_plans(&self, qt: usize) -> Vec<Arc<Plan>> {
        let tid = self.query.tables[qt].table;
        let has_index = self
            .db
            .catalog()
            .table(tid)
            .columns
            .iter()
            .any(|c| c.indexed);
        let mut out = vec![Plan::scan(qt, ScanOp::Seq)];
        if has_index {
            out.push(Plan::scan(qt, ScanOp::Index));
        }
        out
    }

    /// All physical join operators (the paper's {hash, merge, nested-loop}).
    pub fn join_ops(&self) -> &'static [JoinOp] {
        &JoinOp::ALL
    }

    /// Whether joining `left` and `right` in this orientation is allowed:
    /// the inputs must be disjoint, an equi-join edge must cross them
    /// (no cross products), and in left-deep mode the right input must be
    /// a base table.
    pub fn allows_join(&self, left: &Plan, right: &Plan) -> bool {
        left.mask().disjoint(right.mask())
            && self.query.connected(left.mask(), right.mask())
            && match self.mode {
                SearchMode::Bushy => true,
                SearchMode::LeftDeep => right.is_scan(),
            }
    }

    /// Scan candidates for query-table `qt`, each paired with its score
    /// under `scorer` — the shared scoring path of the search layer.
    pub fn scored_scan_plans(
        &self,
        qt: usize,
        scorer: &dyn QueryScorer,
    ) -> Vec<(Arc<Plan>, ScoredTree)> {
        self.scan_plans(qt)
            .into_iter()
            .map(|p| {
                let st = scorer.score_scan(&p);
                (p, st)
            })
            .collect()
    }

    /// Connectivity table over all `2^n` subsets: `table[mask]` is true
    /// iff `mask` induces a connected join subgraph. The DP enumerator
    /// indexes this on its hot path. At most
    /// [`CONNECTED_TABLE_MAX_TABLES`] tables.
    pub fn connected_table(&self) -> Vec<bool> {
        let n = self.query.num_tables();
        assert!(
            n <= CONNECTED_TABLE_MAX_TABLES,
            "connectivity table over {n} tables is too large"
        );
        let mut table = vec![false; 1usize << n];
        for (mask, slot) in table.iter_mut().enumerate().skip(1) {
            *slot = self.query.subgraph_connected(TableMask(mask as u32));
        }
        table
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use balsa_query::workloads::job_workload;
    use balsa_storage::{mini_imdb, DataGenConfig};

    fn fixture() -> (Database, balsa_query::Workload) {
        let db = mini_imdb(DataGenConfig {
            scale: 0.02,
            ..Default::default()
        });
        let w = job_workload(db.catalog(), 7);
        (db, w)
    }

    #[test]
    fn scans_include_index_only_when_available() {
        let (db, w) = fixture();
        let q = &w.queries[0];
        let space = CandidateSpace::new(&db, q, SearchMode::Bushy);
        for qt in 0..q.num_tables() {
            let scans = space.scan_plans(qt);
            assert!(!scans.is_empty());
            assert!(matches!(
                &*scans[0],
                Plan::Scan {
                    op: ScanOp::Seq,
                    ..
                }
            ));
        }
    }

    #[test]
    fn left_deep_mode_restricts_right_to_scans() {
        let (db, w) = fixture();
        let q = w.queries.iter().find(|q| q.num_tables() >= 3).unwrap();
        let bushy = CandidateSpace::new(&db, q, SearchMode::Bushy);
        let ld = CandidateSpace::new(&db, q, SearchMode::LeftDeep);
        // Find two scans joined by an edge, then a third joined to them.
        let e = q.joins[0];
        let a = Plan::scan(e.left_qt, ScanOp::Seq);
        let b = Plan::scan(e.right_qt, ScanOp::Seq);
        assert!(bushy.allows_join(&a, &b));
        assert!(ld.allows_join(&a, &b));
        let ab = Plan::join(JoinOp::Hash, a.clone(), b.clone());
        // A tree on the right is allowed bushy, not left-deep.
        if let Some(t) = (0..q.num_tables())
            .find(|&t| !ab.mask().contains(t) && q.connected(ab.mask(), TableMask::single(t)))
        {
            let c = Plan::scan(t, ScanOp::Seq);
            assert!(bushy.allows_join(&c, &ab));
            assert!(!ld.allows_join(&c, &ab));
            assert!(ld.allows_join(&ab, &c));
        }
    }

    #[test]
    fn cross_products_are_excluded() {
        let (db, w) = fixture();
        let q = w.queries.iter().find(|q| q.num_tables() >= 4).unwrap();
        let space = CandidateSpace::new(&db, q, SearchMode::Bushy);
        // Find two tables with no direct edge.
        for i in 0..q.num_tables() {
            for j in 0..q.num_tables() {
                if i == j {
                    continue;
                }
                let a = Plan::scan(i, ScanOp::Seq);
                let b = Plan::scan(j, ScanOp::Seq);
                let connected = q.connected(TableMask::single(i), TableMask::single(j));
                assert_eq!(space.allows_join(&a, &b), connected);
            }
        }
    }

    #[test]
    fn connected_table_matches_direct_checks() {
        let (db, w) = fixture();
        let q = w.queries.iter().find(|q| q.num_tables() <= 8).unwrap();
        let space = CandidateSpace::new(&db, q, SearchMode::Bushy);
        let table = space.connected_table();
        assert_eq!(table.len(), 1 << q.num_tables());
        for (mask, &conn) in table.iter().enumerate().skip(1) {
            assert_eq!(conn, q.subgraph_connected(TableMask(mask as u32)));
        }
        assert!(!table[0]);
        assert!(table[table.len() - 1], "whole query must be connected");
    }
}
