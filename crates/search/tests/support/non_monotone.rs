//! A cost model whose join work is **not** child-monotone, the test
//! subject of the DP's pruning opt-out ([`PairCoster::child_monotone`]).
//!
//! Shared by `dp.rs`'s unit tests and `planner_integration.rs` through
//! `#[path]` includes, so it is defined once.

use balsa_card::CardEstimator;
use balsa_cost::{CostModel, ExpertCostModel, OrderSource, PairCoster, SubtreeCost};
use balsa_query::{JoinOp, Plan, Query, TableMask};

/// The expert model, except that a nested loop does not charge its
/// inner input's work: it prices the inner side by its row count alone,
/// as lookups. Such a join can cost less than its children's summed
/// work, so its sessions report `child_monotone() == false`.
pub struct NonMonotoneExpert(pub ExpertCostModel);

impl NonMonotoneExpert {
    /// `plan`'s summary, composed bottom-up from scan summaries and the
    /// model's pair sessions.
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

impl CostModel for NonMonotoneExpert {
    fn plan_cost(&self, query: &Query, plan: &Plan, est: &dyn CardEstimator) -> f64 {
        self.summary(query, plan, est).work
    }

    fn name(&self) -> &'static str {
        "expert-nl-lookups"
    }

    fn scan_summary(&self, query: &Query, scan: &Plan, est: &dyn CardEstimator) -> SubtreeCost {
        self.0.scan_summary(query, scan, est)
    }

    fn pair_coster<'c>(
        &'c self,
        query: &Query,
        lmask: TableMask,
        rmask: TableMask,
        est: &dyn CardEstimator,
    ) -> Option<Box<dyn PairCoster + 'c>> {
        let inner = self.0.pair_coster(query, lmask, rmask, est)?;
        Some(Box::new(NonMonotoneSession(inner)))
    }
}

/// The expert session with the inner input's work left out of nested
/// loops.
struct NonMonotoneSession<'c>(Box<dyn PairCoster + 'c>);

impl PairCoster for NonMonotoneSession<'_> {
    fn work_out(
        &self,
        op: JoinOp,
        lc: &SubtreeCost,
        rc: &SubtreeCost,
        right_index_scan: bool,
    ) -> (f64, f64) {
        if op != JoinOp::NestLoop {
            return self.0.work_out(op, lc, rc, right_index_scan);
        }
        // Of the inner side, the expert nested loop then reads only
        // `out_rows`.
        let rows_only = SubtreeCost {
            work: 0.0,
            out_rows: rc.out_rows,
            sorted_on: Vec::new(),
        };
        self.0.work_out(op, lc, &rows_only, right_index_scan)
    }

    fn child_monotone(&self) -> bool {
        false
    }

    fn order_source(&self, op: JoinOp) -> OrderSource {
        self.0.order_source(op)
    }

    fn pair_sorted_on(&self) -> &[(usize, usize)] {
        self.0.pair_sorted_on()
    }
}
