//! # balsa-cost
//!
//! Cost models for balsa-rs.
//!
//! * [`CoutModel`] — the paper's **minimal simulator** (§3.1): the
//!   `C_out` cost model of Cluet & Moerkotte, which sums estimated result
//!   sizes over all operators and is deliberately blind to physical
//!   operators ("fewer tuples lead to better plans").
//! * [`ExpertCostModel`] — a full physical cost model mirroring the
//!   execution engine's per-operator work formulas
//!   ([`physical::OpWeights`]). Driven by *estimated* cardinalities it
//!   plays the role of PostgreSQL's own cost model (the "Expert
//!   Simulator" ablation of §8.3.1 and the classical expert optimizer
//!   baseline); driven by *true* cardinalities inside `balsa-engine` the
//!   very same formulas define the ground-truth latency of a plan.
//!
//! All models implement [`CostModel`] and are parameterized by a
//! [`balsa_card::CardEstimator`], so estimated/true/noisy cardinalities
//! can be swapped freely (used by the §10 noise study). A model writes
//! three things: [`CostModel::plan_cost`], [`CostModel::scan_summary`]
//! and a [`PairCoster`] session ([`CostModel::pair_coster`]), the one
//! place its join formula lives. [`CostModel::join_summary`] is
//! provided on top of the session, so planners, scorers and the
//! engine cannot cost a join two ways.
//!
//! The [`scorer`] module defines [`PlanScorer`], the generic scoring
//! interface the beam search consumes; [`CostScorer`] adapts any
//! `CostModel` to it, and `balsa-learn` plugs its learned value model
//! into the same slot.

#![forbid(unsafe_code)]

pub mod cout;
pub mod expert;
pub mod orders;
pub mod physical;
pub mod scorer;

pub use cout::CoutModel;
pub use expert::ExpertCostModel;
pub use orders::{OrderInterner, OrderMask};
pub use physical::{
    clamp_cost, join_cost, physical_cost, scan_cost, JoinPairCost, NodeCost, OpWeights,
    SubtreeCost, COST_CEILING,
};
pub use scorer::{CostScorer, JoinCandidate, PlanScorer, QueryScorer, ScoredTree, SubtreeExt};

use balsa_card::CardEstimator;
use balsa_query::{JoinOp, Plan, Query, TableMask};
use std::sync::Arc;

/// How a join operator's output-order set derives from its inputs —
/// declared once per `(session, operator)` so enumerator hot loops
/// never compute (or intern) an order list per candidate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OrderSource {
    /// The join emits no interesting order (e.g. hash joins).
    Empty,
    /// The join preserves the left (outer) input's orders (e.g. nested
    /// loops).
    LeftInput,
    /// The join emits the session-constant order list
    /// ([`PairCoster::pair_sorted_on`], e.g. merge-join keys).
    Pair,
}

/// A per-orientation join-costing session: the one place a model writes
/// its join formula.
///
/// A DP enumerator costs every `(left entry, right entry, operator)`
/// candidate of one csg–cmp orientation; everything that depends only
/// on the two masks (output cardinality, crossing-edge keys,
/// index-NL eligibility, merge output orders) is resolved once when
/// [`CostModel::pair_coster`] opens the session, leaving the
/// per-candidate path allocation-free. One-shot callers
/// ([`CostModel::join_summary`], [`crate::physical::join_cost`], the
/// cost scorer) take the whole [`SubtreeCost`] from
/// [`PairCoster::summary`].
pub trait PairCoster {
    /// `(work, out_rows)` of joining children with summaries `lc`/`rc`
    /// under `op` (`work` includes both children). `right_index_scan`:
    /// whether the right child is literally an index-scan leaf — the
    /// one per-candidate fact the masks cannot carry.
    fn work_out(
        &self,
        op: JoinOp,
        lc: &SubtreeCost,
        rc: &SubtreeCost,
        right_index_scan: bool,
    ) -> (f64, f64);

    /// Whether every operator's `work` is **child-monotone**: at least
    /// `lc.work + rc.work`. Only when this holds may a DP enumerator
    /// reject candidates against `lc.work + rc.work` before costing
    /// them. A model whose formula for some operator charges less than
    /// a child's whole work (say, a nested loop that prices its inner
    /// side as per-row lookups instead of a materialized subtree) must
    /// return `false`. Every bundled model is child-monotone.
    fn child_monotone(&self) -> bool {
        true
    }

    /// The output-order semantics of `op` under this model. Together
    /// with [`PairCoster::pair_sorted_on`] it decides the `sorted_on`
    /// of [`PairCoster::summary`].
    fn order_source(&self, op: JoinOp) -> OrderSource;

    /// The session-constant order list of [`OrderSource::Pair`]
    /// operators (for the expert model: the merge keys — left-side
    /// keys then right-side keys, in edge order).
    fn pair_sorted_on(&self) -> &[(usize, usize)];

    /// The summary of joining children `lc`/`rc` under `op`:
    /// [`PairCoster::work_out`] plus the output orders
    /// [`PairCoster::order_source`] names.
    fn summary(
        &self,
        op: JoinOp,
        lc: &SubtreeCost,
        rc: &SubtreeCost,
        right_index_scan: bool,
    ) -> SubtreeCost {
        let (work, out_rows) = self.work_out(op, lc, rc, right_index_scan);
        let sorted_on = match self.order_source(op) {
            OrderSource::Empty => Vec::new(),
            OrderSource::LeftInput => lc.sorted_on.clone(),
            OrderSource::Pair => self.pair_sorted_on().to_vec(),
        };
        SubtreeCost {
            work,
            out_rows,
            sorted_on,
        }
    }
}

/// A cost model scores a (query, plan) pair given a cardinality source.
pub trait CostModel: Send + Sync {
    /// Cost of executing `plan` for `query`. Lower is better. Units are
    /// model-specific (tuples for `C_out`, abstract work for physical
    /// models).
    fn plan_cost(&self, query: &Query, plan: &Plan, est: &dyn CardEstimator) -> f64;

    /// Human-readable model name (used in experiment reports).
    fn name(&self) -> &'static str;

    /// Costed summary of a scan leaf, used compositionally by planners
    /// (the DP enumerator and beam search of `balsa-search`).
    ///
    /// The default recomputes via [`CostModel::plan_cost`] and reports no
    /// output order; models that know about physical orders (the expert
    /// model) override it.
    fn scan_summary(&self, query: &Query, scan: &Plan, est: &dyn CardEstimator) -> SubtreeCost {
        SubtreeCost {
            work: self.plan_cost(query, scan, est),
            out_rows: est.cardinality(query, scan.mask()).max(0.0),
            sorted_on: Vec::new(),
        }
    }

    /// Costed summary of `join` (a [`Plan::Join`]) given its children's
    /// summaries `lc`/`rc`. `work` covers the whole subtree.
    ///
    /// Provided: a join is costed in O(1) by the model's
    /// [`PairCoster`] session for its children's masks; a model with no
    /// session recomputes [`CostModel::plan_cost`] from scratch (O(tree)
    /// per call). A [`Plan::Scan`] is its [`CostModel::scan_summary`].
    /// Either way the result must agree with `plan_cost` on the same
    /// tree.
    fn join_summary(
        &self,
        query: &Query,
        join: &Plan,
        lc: &SubtreeCost,
        rc: &SubtreeCost,
        est: &dyn CardEstimator,
    ) -> SubtreeCost {
        let Plan::Join {
            op, left, right, ..
        } = join
        else {
            return self.scan_summary(query, join, est);
        };
        match self.pair_coster(query, left.mask(), right.mask(), est) {
            Some(coster) => coster.summary(*op, lc, rc, right.is_index_scan()),
            None => SubtreeCost {
                work: self.plan_cost(query, join, est),
                out_rows: est.cardinality(query, join.mask()).max(0.0),
                sorted_on: Vec::new(),
            },
        }
    }

    /// Costed summary of joining `left` and `right` under `op`: builds
    /// the join node and asks [`CostModel::join_summary`].
    ///
    /// Nothing in the workspace calls it, and no bundled model
    /// overrides it. The trait keeps it because the reference
    /// benchmark's tracing decorator (`bench/src/decorate.rs`)
    /// implements it, with this signature.
    #[allow(clippy::too_many_arguments)]
    fn join_summary_parts(
        &self,
        query: &Query,
        op: JoinOp,
        left: &Arc<Plan>,
        lc: &SubtreeCost,
        right: &Arc<Plan>,
        rc: &SubtreeCost,
        est: &dyn CardEstimator,
    ) -> SubtreeCost {
        let join = Plan::join(op, left.clone(), right.clone());
        self.join_summary(query, &join, lc, rc, est)
    }

    /// Opens a [`PairCoster`] session for candidates joining exactly
    /// `(lmask, rmask)` in that orientation, or `None` when the model
    /// has no session. Every bundled model has one; without it
    /// [`CostModel::join_summary`] recomputes `plan_cost` per call and
    /// the DP planner enumerates with the submask oracle instead of
    /// DPccp. A session's summaries must agree with
    /// [`CostModel::plan_cost`] on the same tree.
    fn pair_coster<'c>(
        &'c self,
        query: &Query,
        lmask: TableMask,
        rmask: TableMask,
        est: &dyn CardEstimator,
    ) -> Option<Box<dyn PairCoster + 'c>> {
        let _ = (query, lmask, rmask, est);
        None
    }
}
