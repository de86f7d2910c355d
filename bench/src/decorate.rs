//! Delegating decorators over the program's public trait objects.
//!
//! Each decorator forwards **every** method of its trait to the wrapped
//! object — including the ones with default bodies, which would
//! otherwise silently replace the wrapped object's override with the
//! trait default (a different, slower program) — and records the call
//! in the [`Tracer`]. Nothing else changes: the decorated planners
//! return the same plans, cost bits and `SearchStats` counts
//! (`tests/decorators.rs`).

use crate::trace::{Hot, Tracer};
use balsa_card::CardEstimator;
use balsa_cost::{
    CostModel, JoinCandidate, OrderSource, PairCoster, PlanScorer, QueryScorer, ScoredTree,
    SubtreeCost,
};
use balsa_learn::{
    FeatureEncoding, FitReport, JoinStateItem, ModelState, SgdConfig, TrainSet, ValueModel,
};
use balsa_query::{JoinOp, Plan, Query, TableMask};
use balsa_search::{PlanError, PlannedQuery, Planner};
use rand::rngs::SmallRng;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

pub struct TracedEstimator<'a> {
    pub inner: &'a dyn CardEstimator,
    pub tracer: &'a Tracer,
}

impl CardEstimator for TracedEstimator<'_> {
    fn cardinality(&self, query: &Query, mask: TableMask) -> f64 {
        self.tracer
            .hot(Hot::Card, || self.inner.cardinality(query, mask))
    }

    fn selectivity(&self, query: &Query, qt: usize) -> f64 {
        self.tracer
            .hot(Hot::Card, || self.inner.selectivity(query, qt))
    }

    fn base_rows(&self, query: &Query, qt: usize) -> f64 {
        self.tracer
            .hot(Hot::Card, || self.inner.base_rows(query, qt))
    }
}

pub struct TracedCostModel<'a> {
    pub inner: &'a dyn CostModel,
    pub tracer: &'a Tracer,
}

impl CostModel for TracedCostModel<'_> {
    fn plan_cost(&self, query: &Query, plan: &Plan, est: &dyn CardEstimator) -> f64 {
        self.tracer
            .hot(Hot::CostSummary, || self.inner.plan_cost(query, plan, est))
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn scan_summary(&self, query: &Query, scan: &Plan, est: &dyn CardEstimator) -> SubtreeCost {
        self.tracer.hot(Hot::CostSummary, || {
            self.inner.scan_summary(query, scan, est)
        })
    }

    fn join_summary(
        &self,
        query: &Query,
        join: &Plan,
        lc: &SubtreeCost,
        rc: &SubtreeCost,
        est: &dyn CardEstimator,
    ) -> SubtreeCost {
        self.tracer.hot(Hot::CostSummary, || {
            self.inner.join_summary(query, join, lc, rc, est)
        })
    }

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
        self.tracer.hot(Hot::CostSummary, || {
            self.inner
                .join_summary_parts(query, op, left, lc, right, rc, est)
        })
    }

    fn pair_coster<'c>(
        &'c self,
        query: &Query,
        lmask: TableMask,
        rmask: TableMask,
        est: &dyn CardEstimator,
    ) -> Option<Box<dyn PairCoster + 'c>> {
        let inner = self.tracer.hot(Hot::CostSessionOpen, || {
            self.inner.pair_coster(query, lmask, rmask, est)
        })?;
        Some(Box::new(TracedPairCoster {
            inner,
            tracer: self.tracer,
        }))
    }
}

struct TracedPairCoster<'c> {
    inner: Box<dyn PairCoster + 'c>,
    tracer: &'c Tracer,
}

impl PairCoster for TracedPairCoster<'_> {
    fn work_out(
        &self,
        op: JoinOp,
        lc: &SubtreeCost,
        rc: &SubtreeCost,
        right_index_scan: bool,
    ) -> (f64, f64) {
        self.tracer.hot(Hot::CostWorkOut, || {
            self.inner.work_out(op, lc, rc, right_index_scan)
        })
    }

    // Session constants, read per candidate: forwarded untimed — two
    // clock reads would cost more than the field load they measure.
    fn child_monotone(&self) -> bool {
        self.inner.child_monotone()
    }

    fn order_source(&self, op: JoinOp) -> OrderSource {
        self.inner.order_source(op)
    }

    fn pair_sorted_on(&self) -> &[(usize, usize)] {
        self.inner.pair_sorted_on()
    }
}

/// Span name of one batched scoring call.
pub const SCORER_BATCH: &str = "scorer.batch";

pub struct TracedScorer<'a> {
    pub inner: &'a dyn PlanScorer,
    pub tracer: &'a Tracer,
    /// Candidates submitted to the session's scoring calls.
    pub candidates: AtomicU64,
}

impl<'a> TracedScorer<'a> {
    pub fn new(inner: &'a dyn PlanScorer, tracer: &'a Tracer) -> Self {
        Self {
            inner,
            tracer,
            candidates: AtomicU64::new(0),
        }
    }
}

impl PlanScorer for TracedScorer<'_> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn for_query<'q>(&'q self, query: &'q Query) -> Box<dyn QueryScorer + 'q> {
        let inner = self
            .tracer
            .hot(Hot::ScorerOpen, || self.inner.for_query(query));
        Box::new(TracedQueryScorer {
            inner,
            tracer: self.tracer,
            candidates: &self.candidates,
        })
    }
}

struct TracedQueryScorer<'q> {
    inner: Box<dyn QueryScorer + 'q>,
    tracer: &'q Tracer,
    candidates: &'q AtomicU64,
}

impl QueryScorer for TracedQueryScorer<'_> {
    fn score_scan(&self, scan: &Plan) -> ScoredTree {
        self.candidates.fetch_add(1, Relaxed);
        self.tracer
            .hot(Hot::ScorerSingle, || self.inner.score_scan(scan))
    }

    fn score_join(&self, join: &Plan, lc: &ScoredTree, rc: &ScoredTree) -> ScoredTree {
        self.candidates.fetch_add(1, Relaxed);
        self.tracer
            .hot(Hot::ScorerSingle, || self.inner.score_join(join, lc, rc))
    }

    fn score_join_batch(&self, cands: &[JoinCandidate<'_>], out: &mut Vec<ScoredTree>) {
        self.candidates.fetch_add(cands.len() as u64, Relaxed);
        self.tracer
            .span(SCORER_BATCH, || self.inner.score_join_batch(cands, out))
    }
}

/// Span names of the two fit entry points.
pub const MODEL_FIT: &str = "model.fit";
pub const MODEL_FIT_PER_SAMPLE: &str = "model.fit_per_sample";

/// Owns its tracer handle because `clone_box` must return a `'static`
/// box.
pub struct TracedValueModel {
    pub inner: Box<dyn ValueModel>,
    pub tracer: Arc<Tracer>,
}

impl ValueModel for TracedValueModel {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn encoding(&self) -> FeatureEncoding {
        self.inner.encoding()
    }

    fn is_fitted(&self) -> bool {
        self.inner.is_fitted()
    }

    fn predict(&self, x: &[f64]) -> f64 {
        self.tracer.hot(Hot::ModelInfer, || self.inner.predict(x))
    }

    fn fit(&mut self, data: TrainSet, cfg: &SgdConfig, rng: &mut SmallRng) -> FitReport {
        let inner = &mut self.inner;
        self.tracer.span(MODEL_FIT, || inner.fit(data, cfg, rng))
    }

    fn fit_per_sample(&mut self, data: TrainSet, cfg: &SgdConfig, rng: &mut SmallRng) -> FitReport {
        let inner = &mut self.inner;
        self.tracer.span(MODEL_FIT_PER_SAMPLE, || {
            inner.fit_per_sample(data, cfg, rng)
        })
    }

    fn params(&self) -> Vec<f64> {
        self.inner.params()
    }

    fn state_vec(&self) -> Vec<f64> {
        self.inner.state_vec()
    }

    fn load_state(&mut self, state: &[f64]) -> Result<(), String> {
        self.inner.load_state(state)
    }

    fn clone_box(&self) -> Box<dyn ValueModel> {
        Box::new(TracedValueModel {
            inner: self.inner.clone_box(),
            tracer: self.tracer.clone(),
        })
    }

    fn leaf_state(&self, node_x: &[f64]) -> Option<ModelState> {
        self.tracer
            .hot(Hot::ModelInfer, || self.inner.leaf_state(node_x))
    }

    fn join_state(
        &self,
        node_x: &[f64],
        left: &ModelState,
        right: &ModelState,
    ) -> Option<ModelState> {
        self.tracer.hot(Hot::ModelInfer, || {
            self.inner.join_state(node_x, left, right)
        })
    }

    fn state_value(&self, state: &ModelState) -> Option<f64> {
        self.tracer
            .hot(Hot::ModelInfer, || self.inner.state_value(state))
    }

    fn predict_batch(&self, xs: &[&[f64]]) -> Vec<f64> {
        self.tracer
            .hot(Hot::ModelInfer, || self.inner.predict_batch(xs))
    }

    fn join_state_batch(&self, items: &[JoinStateItem<'_>]) -> Option<Vec<ModelState>> {
        self.tracer
            .hot(Hot::ModelInfer, || self.inner.join_state_batch(items))
    }

    fn state_value_batch(&self, states: &[ModelState]) -> Option<Vec<f64>> {
        self.tracer
            .hot(Hot::ModelInfer, || self.inner.state_value_batch(states))
    }
}

/// Span names of the two planner families.
pub const SEARCH_DP: &str = "search.dp";
pub const SEARCH_BEAM: &str = "search.beam";

pub struct TracedPlanner<'a> {
    pub inner: Box<dyn Planner + 'a>,
    pub tracer: &'a Tracer,
    pub span: &'static str,
}

impl Planner for TracedPlanner<'_> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn try_plan(&self, query: &Query) -> Result<PlannedQuery, PlanError> {
        self.tracer.span(self.span, || self.inner.try_plan(query))
    }

    fn plan(&self, query: &Query) -> PlannedQuery {
        self.tracer.span(self.span, || self.inner.plan(query))
    }
}
