//! The learned value model as a [`PlanScorer`].
//!
//! This is the tentpole hook-up: the beam search in `balsa-search` is
//! generic over `balsa_cost::PlanScorer`, and [`LearnedScorer`] puts the
//! trained [`ValueModel`] into that slot — the paper's agent, where the
//! value network ranks candidate joins during beam inference (§5). The
//! score of a subtree is the model's predicted latency in seconds
//! (`exp` of its log-space prediction), so forest scores add like
//! latencies and are comparable across trees.
//!
//! Scoring is **incremental** and **batched**: every
//! [`balsa_cost::ScoredTree`] this scorer returns carries an opaque
//! per-subtree state in its `ext` child hook, and `score_join_batch` —
//! the one join-scoring path; a single join is the trait's batch of one
//! — composes each joined state from the children's states instead of
//! re-walking the subtree, then predicts the whole batch in one model
//! call —
//!
//! * flat encoding (linear models): the feature channels compose through
//!   [`Featurizer::flat_join_state`] (O(tables + edges) per candidate,
//!   bit-identical to a from-scratch featurization) and go through
//!   [`ValueModel::predict_batch`];
//! * tree encoding (tree convolution): the batch's join nodes are
//!   featurized into one buffer, with the query's per-table
//!   selectivities computed once per query session; the model's own
//!   [`ValueModel::join_state_batch`] carries per-layer root activations
//!   and pooled maxima, and each child subtree's side of the window
//!   (its `Wl·h` / `Wr·h` terms) is computed once per subtree, so a
//!   candidate join costs the node term of one convolution window, read
//!   out by [`ValueModel::state_value_batch`].
//!
//! A candidate missing a child state (e.g. a model without incremental
//! support) falls back to the from-scratch encode
//! ([`Featurizer::featurize_tree`] + a full forward — the reference the
//! tests compare the incremental path against), so correctness never
//! depends on the hooks.

use crate::featurize::{query_selectivities, Featurizer, FlatState};
use crate::model::{FeatureEncoding, JoinStateItem, ValueModel};
use balsa_card::{CardEstimator, MemoEstimator};
use balsa_cost::{JoinCandidate, PlanScorer, QueryScorer, ScoredTree, SubtreeCost, SubtreeExt};
use balsa_query::{Plan, Query};
use std::sync::Arc;

/// Cap on predicted log-latency so `exp` stays finite even for a model
/// mid-training.
const MAX_LOG_PRED: f64 = 60.0;

/// Scores plans by a learned value model over featurized states.
pub struct LearnedScorer<'a> {
    featurizer: &'a Featurizer,
    model: &'a dyn ValueModel,
    est: &'a dyn CardEstimator,
}

impl<'a> LearnedScorer<'a> {
    /// Scores with `model` over `featurizer`'s encoding, reading
    /// cardinality channels from `est`.
    pub fn new(
        featurizer: &'a Featurizer,
        model: &'a dyn ValueModel,
        est: &'a dyn CardEstimator,
    ) -> Self {
        Self {
            featurizer,
            model,
            est,
        }
    }
}

impl PlanScorer for LearnedScorer<'_> {
    fn name(&self) -> String {
        format!("learned-{}", self.model.name())
    }

    fn for_query<'q>(&'q self, query: &'q Query) -> Box<dyn QueryScorer + 'q> {
        let memo = MemoEstimator::new(self.est);
        let sels = match self.model.encoding() {
            FeatureEncoding::Flat => Vec::new(),
            FeatureEncoding::Tree => query_selectivities(query, &memo),
        };
        Box::new(LearnedQueryScorer {
            featurizer: self.featurizer,
            model: self.model,
            memo,
            query,
            sels,
        })
    }
}

struct LearnedQueryScorer<'q> {
    featurizer: &'q Featurizer,
    model: &'q dyn ValueModel,
    memo: MemoEstimator<'q>,
    query: &'q Query,
    /// The query's per-table selectivities through `memo`, the per-node
    /// encoding's query-level inputs (empty for the flat encoding).
    sels: Vec<f64>,
}

impl LearnedQueryScorer<'_> {
    /// Wraps a log-space prediction and its incremental state into the
    /// beam's scored-tree currency.
    fn scored(&self, plan: &Plan, pred: f64, ext: Option<SubtreeExt>) -> ScoredTree {
        let secs = pred.min(MAX_LOG_PRED).exp();
        ScoredTree {
            score: secs,
            sc: SubtreeCost {
                work: secs,
                out_rows: self.memo.cardinality(self.query, plan.mask()).max(0.0),
                sorted_on: Vec::new(),
            },
            ext,
        }
    }

    /// From-scratch scoring (leaves, and the fallback when a child state
    /// is missing).
    fn score_full(&self, plan: &Plan) -> ScoredTree {
        match self.model.encoding() {
            FeatureEncoding::Flat => {
                let st = self.featurizer.flat_state(self.query, plan, &self.memo);
                let pred = self.model.predict(&st.x);
                self.scored(plan, pred, Some(Arc::new(st)))
            }
            FeatureEncoding::Tree => {
                let x = self.featurizer.featurize_tree(self.query, plan, &self.memo);
                let pred = self.model.predict(&x);
                self.scored(plan, pred, None)
            }
        }
    }
}

impl QueryScorer for LearnedQueryScorer<'_> {
    fn score_scan(&self, scan: &Plan) -> ScoredTree {
        if self.model.encoding() == FeatureEncoding::Tree {
            let mut nx = vec![0.0; self.featurizer.node_dim()];
            self.featurizer
                .node_features_into(self.query, scan, &self.memo, &self.sels, &mut nx);
            if let Some(state) = self.model.leaf_state(&nx) {
                let pred = self
                    .model
                    .state_value(&state)
                    .expect("leaf_state implies state_value");
                return self.scored(scan, pred, Some(state));
            }
        }
        // A flat leaf from scratch is its composition chain's start
        // ([`Featurizer::flat_scan_state`]).
        self.score_full(scan)
    }

    /// The inference hot path: one pass composes every candidate's
    /// incremental state, then a single batched model call produces all
    /// predictions — for the tree convolution, the join nodes' encodings
    /// in one `k × node_dim` buffer composed over the children's cached
    /// window terms; for the linear model, a streamed dot-product loop.
    /// Candidates missing a child state are encoded from scratch in
    /// place, so the output order always matches the input.
    fn score_join_batch(&self, cands: &[JoinCandidate<'_>], out: &mut Vec<ScoredTree>) {
        match self.model.encoding() {
            FeatureEncoding::Flat => {
                fn flat(t: &ScoredTree) -> Option<&FlatState> {
                    t.ext.as_deref()?.downcast_ref::<FlatState>()
                }
                let states: Vec<Option<FlatState>> = cands
                    .iter()
                    .map(|c| {
                        let (l, r) = (flat(c.lc)?, flat(c.rc)?);
                        Some(
                            self.featurizer
                                .flat_join_state(self.query, c.join, l, r, &self.memo),
                        )
                    })
                    .collect();
                let xs: Vec<&[f64]> = states.iter().flatten().map(|s| s.x.as_slice()).collect();
                let mut preds = self.model.predict_batch(&xs).into_iter();
                for (c, st) in cands.iter().zip(states) {
                    out.push(match st {
                        Some(st) => {
                            let pred = preds.next().expect("one prediction per state");
                            self.scored(c.join, pred, Some(Arc::new(st)))
                        }
                        None => self.score_full(c.join),
                    });
                }
            }
            FeatureEncoding::Tree => {
                fn kids<'a>(c: &JoinCandidate<'a>) -> Option<(&'a SubtreeExt, &'a SubtreeExt)> {
                    c.lc.ext.as_ref().zip(c.rc.ext.as_ref())
                }
                let d = self.featurizer.node_dim();
                let mut nxs = Vec::with_capacity(cands.len() * d);
                for c in cands.iter().filter(|c| kids(c).is_some()) {
                    let at = nxs.len();
                    nxs.resize(at + d, 0.0);
                    self.featurizer.node_features_into(
                        self.query,
                        c.join,
                        &self.memo,
                        &self.sels,
                        &mut nxs[at..],
                    );
                }
                let items: Vec<JoinStateItem<'_>> = cands
                    .iter()
                    .filter_map(kids)
                    .zip(nxs.chunks_exact(d))
                    .map(|((left, right), node_x)| JoinStateItem {
                        node_x,
                        left,
                        right,
                    })
                    .collect();
                // `None` (a model without incremental states) leaves
                // nothing composed: every candidate goes from scratch.
                let mut composed = self
                    .model
                    .join_state_batch(&items)
                    .map(|states| {
                        let preds = self
                            .model
                            .state_value_batch(&states)
                            .expect("join_state_batch implies state_value_batch");
                        states.into_iter().zip(preds)
                    })
                    .into_iter()
                    .flatten();
                for c in cands {
                    out.push(match kids(c).and_then(|_| composed.next()) {
                        Some((state, pred)) => self.scored(c.join, pred, Some(state)),
                        None => self.score_full(c.join),
                    });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::LinearValueModel;
    use crate::treeconv::{TreeConvConfig, TreeConvValueModel};
    use balsa_card::HistogramEstimator;
    use balsa_cost::OpWeights;
    use balsa_query::workloads::job_workload;
    use balsa_search::{BeamPlanner, Planner, SearchMode};
    use balsa_storage::{mini_imdb, DataGenConfig};
    use std::sync::Arc;

    fn fixture() -> (Arc<balsa_storage::Database>, balsa_query::Workload) {
        let db = Arc::new(mini_imdb(DataGenConfig {
            scale: 0.02,
            ..Default::default()
        }));
        let w = job_workload(db.catalog(), 7);
        (db, w)
    }

    #[test]
    fn untrained_model_still_yields_valid_complete_plans() {
        let (db, w) = fixture();
        let est = HistogramEstimator::new(&db);
        let featurizer = Featurizer::new(db.clone(), OpWeights::postgres_like(), true);
        let model = LinearValueModel::new(featurizer.dim());
        let scorer = LearnedScorer::new(&featurizer, &model, &est);
        let planner = BeamPlanner::new(&db, &scorer, SearchMode::Bushy, 5);
        assert!(planner.name().contains("learned-linear"));
        for q in w.queries.iter().take(3) {
            let out = planner.plan(q);
            assert_eq!(out.plan.mask(), q.all_mask(), "{}", q.name);
            assert!(out.cost.is_finite() && out.cost > 0.0);
        }
    }

    #[test]
    fn tree_conv_beam_plans_are_valid_and_match_full_predictions() {
        let (db, w) = fixture();
        let est = HistogramEstimator::new(&db);
        let featurizer = Featurizer::new(db.clone(), OpWeights::postgres_like(), true);
        let mut model = TreeConvValueModel::new(featurizer.node_dim(), TreeConvConfig::default());
        // Randomize the weights via a one-sample fit so activations are
        // non-trivial.
        {
            use crate::model::{SgdConfig, TrainSet, ValueModel as _};
            use rand::rngs::SmallRng;
            use rand::SeedableRng;
            let q = &w.queries[0];
            let plan = balsa_query::Plan::scan(0, balsa_query::ScanOp::Seq);
            let x = featurizer.featurize_tree(q, &plan, &est);
            let data = TrainSet {
                xs: vec![x],
                ys: vec![1.0],
                censored: vec![false],
            };
            model.fit(
                data,
                &SgdConfig {
                    epochs: 1,
                    ..SgdConfig::default()
                },
                &mut SmallRng::seed_from_u64(5),
            );
        }
        let scorer = LearnedScorer::new(&featurizer, &model, &est);
        let planner = BeamPlanner::new(&db, &scorer, SearchMode::Bushy, 5);
        assert!(planner.name().contains("learned-tree_conv"));
        for q in w.queries.iter().take(4) {
            let out = planner.plan(q);
            assert_eq!(out.plan.mask(), q.all_mask(), "{}", q.name);
            // The incremental beam score equals a from-scratch encode +
            // predict of the final plan.
            let full = crate::model::ValueModel::predict(
                &model,
                &featurizer.featurize_tree(q, &out.plan, &est),
            );
            let expect = full.min(MAX_LOG_PRED).exp();
            assert_eq!(
                out.cost.to_bits(),
                expect.to_bits(),
                "{}: incremental {} vs full {}",
                q.name,
                out.cost,
                expect
            );
        }
    }
}
