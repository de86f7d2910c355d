//! The `C_out` minimal cost model (§3.1).
//!
//! ```text
//! C_out(T) = |T|                                 if T is a table/selection
//! C_out(T) = |T| + C_out(T1) + C_out(T2)         if T = T1 ⋈ T2
//! ```
//!
//! `|T|` is the estimated cardinality (filters applied). The model is
//! *logical only*: physical join and scan operators are ignored
//! (footnote 4 of the paper — "Balsa enumerates physical plans for
//! C_out, which will ignore the differences between physical joins/scans
//! and treat them as logical operators").

use crate::{CostModel, SubtreeCost};
use balsa_card::CardEstimator;
use balsa_query::{Plan, Query};

/// The minimal, environment-agnostic simulator cost model.
#[derive(Debug, Clone, Copy, Default)]
pub struct CoutModel;

impl CostModel for CoutModel {
    fn plan_cost(&self, query: &Query, plan: &Plan, est: &dyn CardEstimator) -> f64 {
        let mut total = 0.0;
        plan.visit(&mut |node| {
            total += est.cardinality(query, node.mask()).max(0.0);
        });
        total
    }

    fn name(&self) -> &'static str {
        "C_out"
    }

    fn scan_summary(&self, query: &Query, scan: &Plan, est: &dyn CardEstimator) -> SubtreeCost {
        let rows = est.cardinality(query, scan.mask()).max(0.0);
        SubtreeCost {
            work: rows,
            out_rows: rows,
            sorted_on: Vec::new(),
        }
    }

    fn pair_coster<'c>(
        &'c self,
        query: &Query,
        lmask: balsa_query::TableMask,
        rmask: balsa_query::TableMask,
        est: &dyn CardEstimator,
    ) -> Option<Box<dyn crate::PairCoster + 'c>> {
        Some(Box::new(CoutPairCoster {
            out: est.cardinality(query, lmask.union(rmask)).max(0.0),
        }))
    }
}

/// Pair session for `C_out`: the output cardinality is the whole story.
struct CoutPairCoster {
    out: f64,
}

impl crate::PairCoster for CoutPairCoster {
    fn work_out(
        &self,
        _op: balsa_query::JoinOp,
        lc: &SubtreeCost,
        rc: &SubtreeCost,
        _right_index_scan: bool,
    ) -> (f64, f64) {
        (self.out + lc.work + rc.work, self.out)
    }

    fn order_source(&self, _op: balsa_query::JoinOp) -> crate::OrderSource {
        crate::OrderSource::Empty
    }

    fn pair_sorted_on(&self) -> &[(usize, usize)] {
        &[]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use balsa_query::{JoinEdge, JoinOp, QueryTable, ScanOp, TableMask};

    /// An estimator with fixed per-mask cardinalities.
    struct Fixed;
    impl CardEstimator for Fixed {
        fn cardinality(&self, _q: &Query, m: TableMask) -> f64 {
            match m.0 {
                0b001 => 10.0,
                0b010 => 20.0,
                0b100 => 30.0,
                0b011 => 5.0,
                0b111 => 2.0,
                _ => 100.0,
            }
        }
        fn base_rows(&self, _q: &Query, _qt: usize) -> f64 {
            100.0
        }
    }

    fn query3() -> Query {
        Query {
            id: 0,
            name: "q".into(),
            template: 0,
            tables: (0..3)
                .map(|i| QueryTable {
                    table: 0,
                    alias: format!("t{i}"),
                })
                .collect(),
            joins: vec![
                JoinEdge {
                    left_qt: 0,
                    left_col: 0,
                    right_qt: 1,
                    right_col: 0,
                },
                JoinEdge {
                    left_qt: 1,
                    left_col: 0,
                    right_qt: 2,
                    right_col: 0,
                },
            ],
            filters: vec![],
        }
    }

    #[test]
    fn cout_sums_all_node_cardinalities() {
        let q = query3();
        let p = Plan::join(
            JoinOp::Hash,
            Plan::join(
                JoinOp::Hash,
                Plan::scan(0, ScanOp::Seq),
                Plan::scan(1, ScanOp::Seq),
            ),
            Plan::scan(2, ScanOp::Seq),
        );
        // 10 + 20 + 30 (leaves) + 5 (0b011) + 2 (0b111)
        let c = CoutModel.plan_cost(&q, &p, &Fixed);
        assert!((c - 67.0).abs() < 1e-9, "got {c}");
    }

    #[test]
    fn cout_ignores_physical_operators() {
        let q = query3();
        let mk = |j1: JoinOp, j2: JoinOp, s: ScanOp| {
            Plan::join(
                j1,
                Plan::join(j2, Plan::scan(0, s), Plan::scan(1, s)),
                Plan::scan(2, s),
            )
        };
        let a = CoutModel.plan_cost(&q, &mk(JoinOp::Hash, JoinOp::Hash, ScanOp::Seq), &Fixed);
        let b = CoutModel.plan_cost(
            &q,
            &mk(JoinOp::NestLoop, JoinOp::Merge, ScanOp::Index),
            &Fixed,
        );
        assert_eq!(a, b);
    }

    #[test]
    fn cout_prefers_smaller_intermediates() {
        // Joining (0,1) first (card 5) must beat joining (1,2) first (card 100).
        let q = query3();
        let good = Plan::join(
            JoinOp::Hash,
            Plan::join(
                JoinOp::Hash,
                Plan::scan(0, ScanOp::Seq),
                Plan::scan(1, ScanOp::Seq),
            ),
            Plan::scan(2, ScanOp::Seq),
        );
        let bad = Plan::join(
            JoinOp::Hash,
            Plan::join(
                JoinOp::Hash,
                Plan::scan(1, ScanOp::Seq),
                Plan::scan(2, ScanOp::Seq),
            ),
            Plan::scan(0, ScanOp::Seq),
        );
        let cg = CoutModel.plan_cost(&q, &good, &Fixed);
        let cb = CoutModel.plan_cost(&q, &bad, &Fixed);
        assert!(cg < cb);
    }
}
