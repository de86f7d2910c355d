//! The `C_mm` in-memory cost model (Leis et al. 2015, §3.3 of the paper).
//!
//! `C_mm` refines `C_out` with a little physical knowledge tuned for
//! main-memory settings: hash joins pay for building, index nested loops
//! pay a per-lookup penalty `τ`, and scans are cheap. We implement the
//! published formulas:
//!
//! ```text
//! C_mm(scan T)         = τ·|T|
//! C_mm(HJ)             = |out| + C(T1) + C(T2) + |T2|          (build right)
//! C_mm(INL)            = |out| + C(T1) + τ·|T1|·max(log|T2|,1)
//! C_mm(MJ/NL fallback) = C_out-style |out| + children
//! ```
//!
//! with `τ = 0.2` (the paper's value for the lookup/scan cost ratio).

use crate::{CostModel, SubtreeCost};
use balsa_card::CardEstimator;
use balsa_query::{JoinOp, Plan, Query, TableMask};

/// Lookup/scan cost ratio.
const TAU: f64 = 0.2;

/// The `C_mm` cost model.
#[derive(Debug, Clone, Copy, Default)]
pub struct CmmModel;

impl CmmModel {
    /// The summary of `plan` composed bottom-up from the model's own
    /// scan and join summaries.
    fn summary(&self, query: &Query, plan: &Plan, est: &dyn CardEstimator) -> SubtreeCost {
        match plan {
            Plan::Scan { .. } => self.scan_summary(query, plan, est),
            Plan::Join { left, right, .. } => {
                let lc = self.summary(query, left, est);
                let rc = self.summary(query, right, est);
                self.join_summary(query, plan, &lc, &rc, est)
            }
        }
    }
}

impl CostModel for CmmModel {
    fn plan_cost(&self, query: &Query, plan: &Plan, est: &dyn CardEstimator) -> f64 {
        self.summary(query, plan, est).work
    }

    fn name(&self) -> &'static str {
        "C_mm"
    }

    fn scan_summary(&self, query: &Query, scan: &Plan, est: &dyn CardEstimator) -> SubtreeCost {
        let rows = est.cardinality(query, scan.mask()).max(0.0);
        SubtreeCost {
            work: TAU * rows,
            out_rows: rows,
            sorted_on: Vec::new(),
        }
    }

    fn pair_coster<'c>(
        &'c self,
        query: &Query,
        lmask: TableMask,
        rmask: TableMask,
        est: &dyn CardEstimator,
    ) -> Option<Box<dyn crate::PairCoster + 'c>> {
        Some(Box::new(CmmPairCoster {
            out: est.cardinality(query, lmask.union(rmask)).max(0.0),
        }))
    }
}

/// Pair session for `C_mm`: per-operator formulas over one cardinality.
struct CmmPairCoster {
    out: f64,
}

impl crate::PairCoster for CmmPairCoster {
    fn work_out(
        &self,
        op: JoinOp,
        lc: &SubtreeCost,
        rc: &SubtreeCost,
        _right_index_scan: bool,
    ) -> (f64, f64) {
        let out = self.out;
        let work = match op {
            JoinOp::Hash => out + lc.work + rc.work + rc.out_rows,
            // Treated as an index nested loop on the inner.
            JoinOp::NestLoop => {
                out + lc.work + TAU * lc.out_rows * (rc.out_rows.max(2.0)).log2().max(1.0)
            }
            JoinOp::Merge => out + lc.work + rc.work + lc.out_rows + rc.out_rows,
        };
        (work, out)
    }

    fn order_source(&self, _op: JoinOp) -> crate::OrderSource {
        crate::OrderSource::Empty
    }

    fn pair_sorted_on(&self) -> &[(usize, usize)] {
        &[]
    }

    /// `C_mm`'s nested loop charges the inner side as index lookups —
    /// `rc.work` is absent from the formula — so candidates may cost
    /// *less* than their children's summed work.
    fn child_monotone(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use balsa_query::{JoinEdge, QueryTable, ScanOp};

    struct Fixed;
    impl CardEstimator for Fixed {
        fn cardinality(&self, _q: &Query, m: TableMask) -> f64 {
            match m.count() {
                1 => 100.0,
                2 => 50.0,
                _ => 10.0,
            }
        }
        fn base_rows(&self, _q: &Query, _qt: usize) -> f64 {
            100.0
        }
    }

    fn q2() -> Query {
        Query {
            id: 0,
            name: "q".into(),
            template: 0,
            tables: (0..2)
                .map(|i| QueryTable {
                    table: 0,
                    alias: format!("t{i}"),
                })
                .collect(),
            joins: vec![JoinEdge {
                left_qt: 0,
                left_col: 0,
                right_qt: 1,
                right_col: 0,
            }],
            filters: vec![],
        }
    }

    #[test]
    fn cmm_distinguishes_operators() {
        let q = q2();
        let hj = Plan::join(
            JoinOp::Hash,
            Plan::scan(0, ScanOp::Seq),
            Plan::scan(1, ScanOp::Seq),
        );
        let nl = Plan::join(
            JoinOp::NestLoop,
            Plan::scan(0, ScanOp::Seq),
            Plan::scan(1, ScanOp::Seq),
        );
        let ch = CmmModel.plan_cost(&q, &hj, &Fixed);
        let cn = CmmModel.plan_cost(&q, &nl, &Fixed);
        assert_ne!(ch, cn);
    }

    #[test]
    fn cmm_hash_formula() {
        let q = q2();
        let hj = Plan::join(
            JoinOp::Hash,
            Plan::scan(0, ScanOp::Seq),
            Plan::scan(1, ScanOp::Seq),
        );
        // out(50) + scan(20) + scan(20) + build(100)
        let c = CmmModel.plan_cost(&q, &hj, &Fixed);
        assert!((c - 190.0).abs() < 1e-9, "got {c}");
    }
}
