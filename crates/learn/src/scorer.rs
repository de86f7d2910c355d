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
//! the composing path; a single join is the trait's batch of one —
//! composes each joined state from the children's states instead of
//! re-walking the subtree, then predicts the whole batch in one model
//! call. `score_join_values`, the path a beam level ranks its
//! candidates by, runs the same composition and keeps only the scores:
//! no `Arc<FlatState>` per flat candidate, and the tree convolution's
//! [`ValueModel::join_value_batch`] in place of a state per candidate.
//! Per encoding:
//!
//! * flat encoding (linear models): each candidate's 17 plan channels
//!   (its [`FlatState::tail`]) compose through
//!   [`Featurizer::flat_join_state`] in O(1), over one expert-cost
//!   session per `(left mask, right mask)` of the batch. The other
//!   channels (the head, 483 of 500 on the JOB catalog) depend only on
//!   the query and the output mask, so the batch is grouped by output
//!   mask in first-use order: each group's head is written once, and
//!   the group goes to [`ValueModel::predict_flat_batch`] as one head
//!   and its tails, which a linear model folds as one prefix sum plus a
//!   17-term sum per candidate;
//! * tree encoding (tree convolution): the batch's join nodes are
//!   featurized into one buffer, with the query's per-table
//!   selectivities computed once per query session; the model's own
//!   [`ValueModel::join_state_batch`] carries per-layer root activations
//!   and pooled maxima, and each child subtree's side of the window
//!   (its `Wl·h` / `Wr·h` terms) is computed once per subtree, so a
//!   candidate join costs the node term of one convolution window, read
//!   out by [`ValueModel::state_value_batch`].
//!
//! **Grouping contract (tree encoding).** A join's per-node row reads
//! nothing of the join but its operator, its two input masks and whether
//! its right input is an index scan — not how either input was built.
//! A beam batch averages about ten candidates per such *join node*
//! (the same `A ⋈ B` over differently built inputs), so the batch is
//! grouped by that key (a multiply-hashed `u128`): each distinct node is
//! featurized once, in first-use order, every candidate of the group
//! reads the same row, and the model receives the group as one run of
//! items on one row slice, which lets it compute the row's layer-0 node
//! product once. Grouping is a layout change only: every candidate
//! scores bit for bit as it would in a batch of one, and outputs return
//! in input order.
//!
//! **Grouping contract (flat encoding).** The output-mask groups and the
//! pair sessions live for one `score_join_batch` call, so no bound needs
//! choosing, and they too are layout only: a pair session's sort cache
//! is keyed by row counts, and `predict_flat_batch` adds each row in
//! `predict_batch`'s order.
//!
//! A candidate missing a child state (e.g. a model without incremental
//! support) falls back to the from-scratch encode
//! ([`Featurizer::featurize_tree`] + a full forward — the reference the
//! tests compare the incremental path against), so correctness never
//! depends on the hooks.

use crate::featurize::{query_selectivities, Featurizer, FlatState, FlatTemplate};
use crate::model::{FeatureEncoding, JoinStateItem, ValueModel};
use balsa_card::{CardEstimator, MemoEstimator};
use balsa_cost::{
    JoinCandidate, JoinPairCost, PlanScorer, QueryScorer, ScoredTree, SubtreeCost, SubtreeExt,
};
use balsa_query::{Plan, Query, TableMask};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

/// Cap on predicted log-latency so `exp` stays finite even for a model
/// mid-training.
const MAX_LOG_PRED: f64 = 60.0;

/// The score of a log-space prediction: its latency, capped.
fn latency(pred: f64) -> f64 {
    pred.min(MAX_LOG_PRED).exp()
}

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
        let (template, sels) = match self.model.encoding() {
            FeatureEncoding::Flat => (self.featurizer.flat_template(query, &memo), Vec::new()),
            FeatureEncoding::Tree => (FlatTemplate::default(), query_selectivities(query, &memo)),
        };
        Box::new(LearnedQueryScorer {
            featurizer: self.featurizer,
            model: self.model,
            memo,
            query,
            template,
            sels,
        })
    }
}

struct LearnedQueryScorer<'q> {
    featurizer: &'q Featurizer,
    model: &'q dyn ValueModel,
    memo: MemoEstimator<'q>,
    query: &'q Query,
    /// The query-level channels of the flat head (empty for the tree
    /// encoding).
    template: FlatTemplate,
    /// The query's per-table selectivities through `memo`, the per-node
    /// encoding's query-level inputs (empty for the flat encoding).
    sels: Vec<f64>,
}

impl LearnedQueryScorer<'_> {
    /// Wraps a log-space prediction and its incremental state into the
    /// beam's scored-tree currency. This scorer composes through `ext`,
    /// so it leaves `sc` at its default.
    fn scored(&self, pred: f64, ext: Option<SubtreeExt>) -> ScoredTree {
        ScoredTree {
            score: latency(pred),
            sc: SubtreeCost::default(),
            ext,
        }
    }

    /// The flat head of `mask`, written into `head` (resized to fit).
    fn flat_head(&self, mask: TableMask, head: &mut Vec<f64>) {
        head.resize(self.featurizer.head_dim(), 0.0);
        self.featurizer
            .flat_head_into(self.query, &self.template, mask, head);
    }

    /// From-scratch scoring (leaves, and the fallback when a child state
    /// is missing).
    fn score_full(&self, plan: &Plan) -> ScoredTree {
        match self.model.encoding() {
            FeatureEncoding::Flat => {
                let st = self.featurizer.flat_state(self.query, plan, &self.memo);
                let mut head = Vec::new();
                self.flat_head(plan.mask(), &mut head);
                let pred = self.model.predict_flat_batch(&head, &[&st.tail])[0];
                self.scored(pred, Some(Arc::new(st)))
            }
            FeatureEncoding::Tree => {
                let x = self.featurizer.featurize_tree(self.query, plan, &self.memo);
                let pred = self.model.predict(&x);
                self.scored(pred, None)
            }
        }
    }
}

/// Hashes the scorer's group keys — a [`node_key`], or one or two table
/// masks packed into a `u64` — with one multiply per 64-bit half, like
/// the DP's mask hasher: the group maps are probed once per candidate,
/// where SipHash's rounds would cost more than the lookup saves.
#[derive(Default)]
struct NodeKeyHasher(u64);

impl Hasher for NodeKeyHasher {
    fn finish(&self) -> u64 {
        // The product's high bits are its well-mixed ones; the table
        // indexes by the low bits.
        self.0.rotate_left(26)
    }

    fn write(&mut self, bytes: &[u8]) {
        // Only reached for keys other than `u128`.
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0 ^ v).wrapping_mul(0xF135_7AEA_2E62_A9C5);
    }

    fn write_u128(&mut self, v: u128) {
        self.write_u64(v as u64);
        self.write_u64((v >> 64) as u64);
    }
}

/// Everything of a node that its [`Featurizer`] per-node row reads,
/// packed into one integer: for a join, the left and right input masks,
/// the operator and whether the right input is an index scan; for a
/// scan, its table and scan operator.
fn node_key(node: &Plan) -> u128 {
    let (low, tag) = match node {
        Plan::Join {
            op, left, right, ..
        } => (
            u128::from(left.mask().0) | u128::from(right.mask().0) << 32,
            2 * *op as u128 + u128::from(right.is_index_scan()),
        ),
        Plan::Scan { qt, op } => (u128::from(*qt), 6 + *op as u128),
    };
    low | tag << 64
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
                return self.scored(pred, Some(state));
            }
        }
        // A flat leaf from scratch is its composition chain's start
        // ([`Featurizer::flat_scan_state`]).
        self.score_full(scan)
    }

    /// The composing path: one pass composes every candidate's
    /// incremental state, then a single batched model call produces all
    /// predictions — for the tree convolution, the batch's distinct join
    /// nodes encoded once each into one buffer and composed over the
    /// children's cached window terms; for the linear model, a streamed
    /// dot-product loop. Candidates missing a child state are encoded
    /// from scratch in place, so the output order always matches the
    /// input.
    fn score_join_batch(&self, cands: &[JoinCandidate<'_>], out: &mut Vec<ScoredTree>) {
        match self.model.encoding() {
            FeatureEncoding::Flat => {
                let mut composed = self.flat_batch(cands).into_iter();
                for c in cands {
                    out.push(match flat_kids(c).and_then(|_| composed.next()) {
                        Some((st, pred)) => self.scored(pred, Some(Arc::new(st))),
                        None => self.score_full(c.join),
                    });
                }
            }
            FeatureEncoding::Tree => {
                let composed = self.tree_batch(cands, |items| {
                    let states = self.model.join_state_batch(items)?;
                    let preds = self
                        .model
                        .state_value_batch(&states)
                        .expect("join_state_batch implies state_value_batch");
                    Some(states.into_iter().zip(preds).collect())
                });
                let mut composed = composed.into_iter();
                for c in cands {
                    out.push(match tree_kids(c).and_then(|_| composed.next()) {
                        Some(Some((state, pred))) => self.scored(pred, Some(state)),
                        _ => self.score_full(c.join),
                    });
                }
            }
        }
    }

    /// The inference hot path: the composing path's scores, bit for bit,
    /// with no state kept — the flat encoding's composed tails are
    /// dropped instead of shared behind an `Arc`, and the tree
    /// convolution's windows go through
    /// [`ValueModel::join_value_batch`], which needs no state per
    /// candidate.
    fn score_join_values(&self, cands: &[JoinCandidate<'_>], out: &mut Vec<f64>) {
        match self.model.encoding() {
            FeatureEncoding::Flat => {
                let mut composed = self.flat_batch(cands).into_iter();
                for c in cands {
                    out.push(match flat_kids(c).and_then(|_| composed.next()) {
                        Some((_, pred)) => latency(pred),
                        None => self.score_full(c.join).score,
                    });
                }
            }
            FeatureEncoding::Tree => {
                let values = self.tree_batch(cands, |items| self.model.join_value_batch(items));
                let mut values = values.into_iter();
                for c in cands {
                    out.push(match tree_kids(c).and_then(|_| values.next()) {
                        Some(Some(pred)) => latency(pred),
                        _ => self.score_full(c.join).score,
                    });
                }
            }
        }
    }
}

/// The flat states of a candidate's children, when both have one.
fn flat_kids<'a>(c: &JoinCandidate<'a>) -> Option<(&'a FlatState, &'a FlatState)> {
    let flat = |t: &'a ScoredTree| t.ext.as_deref()?.downcast_ref::<FlatState>();
    flat(c.lc).zip(flat(c.rc))
}

/// The incremental states of a candidate's children, when both have one.
fn tree_kids<'a>(c: &JoinCandidate<'a>) -> Option<(&'a SubtreeExt, &'a SubtreeExt)> {
    c.lc.ext.as_ref().zip(c.rc.ext.as_ref())
}

impl LearnedQueryScorer<'_> {
    /// The flat encoding's batch: each candidate with both child states
    /// ([`flat_kids`]), in input order, composed to its [`FlatState`]
    /// and predicted (log space). One expert-cost session per `(left
    /// mask, right mask)` and one head per output mask, both in first-use
    /// order; the model folds each head once per group.
    fn flat_batch(&self, cands: &[JoinCandidate<'_>]) -> Vec<(FlatState, f64)> {
        let mut pair_of: HashMap<u64, usize, BuildHasherDefault<NodeKeyHasher>> =
            HashMap::default();
        let mut pairs: Vec<JoinPairCost> = Vec::new();
        let mut group_of: HashMap<u64, usize, BuildHasherDefault<NodeKeyHasher>> =
            HashMap::default();
        let mut masks: Vec<TableMask> = Vec::new();
        let composed: Vec<(usize, FlatState)> = cands
            .iter()
            .filter_map(|c| {
                let (l, r) = flat_kids(c)?;
                let Plan::Join { left, right, .. } = c.join else {
                    panic!("join candidate is a scan");
                };
                let (lmask, rmask) = (left.mask(), right.mask());
                let key = u64::from(lmask.0) | u64::from(rmask.0) << 32;
                let p = *pair_of.entry(key).or_insert_with(|| {
                    pairs.push(
                        self.featurizer
                            .pair_cost(self.query, lmask, rmask, &self.memo),
                    );
                    pairs.len() - 1
                });
                let st = self
                    .featurizer
                    .flat_join_state(self.query, c.join, l, r, &pairs[p]);
                let mask = lmask.union(rmask);
                let g = *group_of.entry(u64::from(mask.0)).or_insert_with(|| {
                    masks.push(mask);
                    masks.len() - 1
                });
                Some((g, st))
            })
            .collect();
        let mut members: Vec<Vec<usize>> = vec![Vec::new(); masks.len()];
        for (k, &(g, _)) in composed.iter().enumerate() {
            members[g].push(k);
        }
        let mut preds = vec![0.0; composed.len()];
        let mut head = Vec::new();
        let mut tails: Vec<&[f64]> = Vec::new();
        for (&mask, members) in masks.iter().zip(&members) {
            self.flat_head(mask, &mut head);
            tails.clear();
            tails.extend(members.iter().map(|&k| &composed[k].1.tail[..]));
            let group_preds = self.model.predict_flat_batch(&head, &tails);
            for (&k, pred) in members.iter().zip(group_preds) {
                preds[k] = pred;
            }
        }
        composed.into_iter().map(|(_, st)| st).zip(preds).collect()
    }

    /// The tree encoding's batch: the candidates with both child states
    /// ([`tree_kids`]) grouped by join node — each distinct node
    /// featurized once, in first-use order, every candidate of its group
    /// reading the same row — and handed to `model` as one run per group,
    /// which computes the row's node term once. Returns `model`'s answer
    /// per such candidate in input order; all `None` when `model`
    /// answers `None` (a model without incremental states).
    fn tree_batch<R>(
        &self,
        cands: &[JoinCandidate<'_>],
        model: impl FnOnce(&[JoinStateItem<'_>]) -> Option<Vec<R>>,
    ) -> Vec<Option<R>> {
        let d = self.featurizer.node_dim();
        let mut group_of: HashMap<u128, usize, BuildHasherDefault<NodeKeyHasher>> =
            HashMap::default();
        let mut nxs: Vec<f64> = Vec::new();
        let composable: Vec<(usize, &SubtreeExt, &SubtreeExt)> = cands
            .iter()
            .filter_map(|c| {
                let (left, right) = tree_kids(c)?;
                let g = *group_of.entry(node_key(c.join)).or_insert_with(|| {
                    nxs.resize(nxs.len() + d, 0.0);
                    let at = nxs.len() - d;
                    self.featurizer.node_features_into(
                        self.query,
                        c.join,
                        &self.memo,
                        &self.sels,
                        &mut nxs[at..],
                    );
                    at / d
                });
                Some((g, left, right))
            })
            .collect();
        let mut order: Vec<usize> = (0..composable.len()).collect();
        order.sort_unstable_by_key(|&i| composable[i].0);
        let items: Vec<JoinStateItem<'_>> = order
            .iter()
            .map(|&i| {
                let (g, left, right) = composable[i];
                JoinStateItem {
                    node_x: &nxs[g * d..(g + 1) * d],
                    left,
                    right,
                }
            })
            .collect();
        let mut out: Vec<Option<R>> = std::iter::repeat_with(|| None)
            .take(composable.len())
            .collect();
        if let Some(answers) = model(&items) {
            for (&i, answer) in order.iter().zip(answers) {
                out[i] = Some(answer);
            }
        }
        out
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

    /// A default tree-conv model over `featurizer`'s node encoding, its
    /// weights randomized by a one-sample fit so activations are
    /// non-trivial.
    fn fitted_tree_conv(
        featurizer: &Featurizer,
        q: &Query,
        est: &dyn CardEstimator,
        seed: u64,
    ) -> TreeConvValueModel {
        use crate::model::{SgdConfig, TrainSet};
        use rand::rngs::SmallRng;
        use rand::SeedableRng;
        let mut model = TreeConvValueModel::new(featurizer.node_dim(), TreeConvConfig::default());
        let plan = balsa_query::Plan::scan(0, balsa_query::ScanOp::Seq);
        let mut data = TrainSet::default();
        data.push(&featurizer.featurize_tree(q, &plan, est), 1.0, false);
        let cfg = SgdConfig {
            epochs: 1,
            ..SgdConfig::default()
        };
        model.fit(data, &cfg, &mut SmallRng::seed_from_u64(seed));
        model
    }

    #[test]
    fn tree_conv_beam_plans_are_valid_and_match_full_predictions() {
        let (db, w) = fixture();
        let est = HistogramEstimator::new(&db);
        let featurizer = Featurizer::new(db.clone(), OpWeights::postgres_like(), true);
        let model = fitted_tree_conv(&featurizer, &w.queries[0], &est, 5);
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

    /// Scores one batch through `model` and asserts that every candidate
    /// scores as it would in a batch of one: score and `state_bits` of
    /// its incremental state, bit for bit. The batch holds every
    /// `(left, right, op)` over three differently built left inputs on
    /// tables `a`, `b` and both scans of a third table `c`, and in its
    /// middle the three `a ⋈ b` joins again: two output masks, and
    /// three candidates per join node `(op, left mask, right mask, right
    /// is an index scan)` and per `(left mask, right mask)` pair with
    /// different children.
    fn assert_batch_scores_like_singles(
        featurizer: &Featurizer,
        q: &Query,
        est: &dyn CardEstimator,
        model: &dyn ValueModel,
        state_bits: impl Fn(&ScoredTree) -> Vec<u64>,
    ) {
        use balsa_query::{JoinOp, ScanOp};
        // Tables a, b joined by an edge, and c joined to either of them.
        let (a, b) = (q.joins[0].left_qt, q.joins[0].right_qt);
        let c = q
            .joins
            .iter()
            .find_map(|e| match (e.left_qt, e.right_qt) {
                (x, y) if [a, b].contains(&x) && ![a, b].contains(&y) => Some(y),
                (y, x) if [a, b].contains(&x) && ![a, b].contains(&y) => Some(y),
                _ => None,
            })
            .expect("a table joined to a or b");
        let scorer = LearnedScorer::new(featurizer, model, est);
        let session = scorer.for_query(q);
        let scan = |qt: usize, op: ScanOp| {
            let p = Plan::scan(qt, op);
            let st = session.score_scan(&p);
            (p, st)
        };
        let (sa, si, sb) = (
            scan(a, ScanOp::Seq),
            scan(a, ScanOp::Index),
            scan(b, ScanOp::Seq),
        );
        let firsts = [
            (JoinOp::Hash, &sa, &sb),
            (JoinOp::Merge, &si, &sb),
            (JoinOp::NestLoop, &sb, &sa),
        ];
        let lefts: Vec<(Arc<Plan>, ScoredTree)> = firsts
            .iter()
            .map(|&(op, l, r)| {
                let p = Plan::join(op, l.0.clone(), r.0.clone());
                let st = session.score_join(&p, &l.1, &r.1);
                (p, st)
            })
            .collect();
        let rights = [scan(c, ScanOp::Seq), scan(c, ScanOp::Index)];
        let mut joins = Vec::new();
        for (lp, lst) in &lefts {
            for (rp, rst) in &rights {
                for op in [JoinOp::Hash, JoinOp::Merge, JoinOp::NestLoop] {
                    joins.push((Plan::join(op, lp.clone(), rp.clone()), lst, rst));
                }
            }
        }
        let middle = joins.len() / 2;
        joins.splice(
            middle..middle,
            firsts
                .iter()
                .map(|&(op, l, r)| (Plan::join(op, l.0.clone(), r.0.clone()), &l.1, &r.1)),
        );
        let cands: Vec<JoinCandidate<'_>> = joins
            .iter()
            .map(|(p, lc, rc)| JoinCandidate { join: p, lc, rc })
            .collect();
        let mut batch = Vec::new();
        session.score_join_batch(&cands, &mut batch);
        assert_eq!(batch.len(), cands.len());
        for (i, (c, got)) in cands.iter().zip(&batch).enumerate() {
            let alone = session.score_join(c.join, c.lc, c.rc);
            let what = format!("{}: candidate {i} ({})", model.name(), c.join);
            assert_eq!(got.score.to_bits(), alone.score.to_bits(), "{what}: score");
            assert_eq!(state_bits(got), state_bits(&alone), "{what}: state");
        }
    }

    /// Grouping candidates by join node is a layout change only: each
    /// candidate's score and state value equal, bit for bit, the same
    /// candidate scored as a batch of one, for a plain and for a residual
    /// tree-conv model.
    #[test]
    fn grouped_join_nodes_score_like_batches_of_one() {
        use crate::model::ResidualValueModel;
        let (db, w) = fixture();
        let est = HistogramEstimator::new(&db);
        let featurizer = Featurizer::new(db.clone(), OpWeights::postgres_like(), true);
        let q = w.queries.iter().find(|q| q.num_tables() >= 3).unwrap();
        let plain = fitted_tree_conv(&featurizer, q, &est, 5);
        let residual = ResidualValueModel::new(
            Box::new(plain.clone()),
            Box::new(fitted_tree_conv(&featurizer, q, &est, 6)),
        );
        for model in [&plain as &dyn ValueModel, &residual] {
            let value = |t: &ScoredTree| {
                let v = model.state_value(t.ext.as_ref().unwrap()).unwrap();
                vec![v.to_bits()]
            };
            assert_batch_scores_like_singles(&featurizer, q, &est, model, value);
        }
    }

    /// A linear model over `featurizer`'s flat encoding, fit on every
    /// scan and two-table join of `q` with arbitrary labels so its
    /// weights are non-trivial.
    fn fitted_linear(
        featurizer: &Featurizer,
        q: &Query,
        est: &dyn CardEstimator,
        seed: u64,
    ) -> LinearValueModel {
        use crate::model::{SgdConfig, TrainSet};
        use balsa_query::{JoinOp, ScanOp};
        use rand::rngs::SmallRng;
        use rand::SeedableRng;
        let mut plans: Vec<Arc<Plan>> = (0..q.num_tables())
            .flat_map(|qt| [Plan::scan(qt, ScanOp::Seq), Plan::scan(qt, ScanOp::Index)])
            .collect();
        for e in &q.joins {
            let (l, r) = (
                Plan::scan(e.left_qt, ScanOp::Seq),
                Plan::scan(e.right_qt, ScanOp::Index),
            );
            plans.push(Plan::join(JoinOp::Hash, l.clone(), r.clone()));
            plans.push(Plan::join(JoinOp::NestLoop, r, l));
        }
        let mut data = TrainSet::default();
        for (i, p) in plans.iter().enumerate() {
            let y = (i % 7) as f64 * 0.4 - 1.0;
            data.push(&featurizer.featurize(q, p, est), y, false);
        }
        let cfg = SgdConfig {
            epochs: 3,
            ..SgdConfig::default()
        };
        let mut model = LinearValueModel::new(featurizer.dim());
        model.fit(data, &cfg, &mut SmallRng::seed_from_u64(seed));
        model
    }

    /// The flat encoding's grouping — one expert-cost session per
    /// `(left mask, right mask)`, one head per output mask — is a layout
    /// change only: each candidate's score and tail equal, bit for bit,
    /// the same candidate scored as a batch of one, for a plain and for a
    /// residual linear model.
    #[test]
    fn grouped_flat_masks_score_like_batches_of_one() {
        use crate::model::ResidualValueModel;
        let (db, w) = fixture();
        let est = HistogramEstimator::new(&db);
        let featurizer = Featurizer::new(db.clone(), OpWeights::postgres_like(), true);
        let q = w.queries.iter().find(|q| q.num_tables() >= 3).unwrap();
        let plain = fitted_linear(&featurizer, q, &est, 5);
        let residual = ResidualValueModel::new(
            Box::new(plain.clone()),
            Box::new(fitted_linear(&featurizer, q, &est, 6)),
        );
        let tail = |t: &ScoredTree| {
            let st = t.ext.as_deref().unwrap().downcast_ref::<FlatState>();
            st.unwrap().tail.iter().map(|v| v.to_bits()).collect()
        };
        for model in [&plain as &dyn ValueModel, &residual] {
            assert_batch_scores_like_singles(&featurizer, q, &est, model, tail);
        }
    }

    /// Floor benchmark of the flat scorer: one `score_join_batch` over a
    /// beam-like level (every two-table join of the widest fixture query,
    /// each extended by both scans of every adjacent table under every
    /// operator), and the model's `predict_flat_batch` alone, against a
    /// hand-written loop that is given each output mask's head and each
    /// candidate's tail and computes only the prefix sum per mask, the
    /// tail sum per candidate and the `exp`. Also times the scorer's
    /// values path (`score_join_values`, no `Arc<FlatState>` per
    /// candidate), which the beam ranks by. Asserts the scorer's (both
    /// paths) and the model's outputs equal the floor's bit for bit and
    /// prints ns/candidate and the ratios. Run with
    /// `cargo test --release -p balsa-learn floor -- --ignored --nocapture`.
    #[test]
    #[ignore]
    fn flat_scorer_floor() {
        use balsa_query::{JoinOp, ScanOp};
        use std::time::Instant;
        const REPS: usize = 200;
        const OPS: [JoinOp; 3] = [JoinOp::Hash, JoinOp::Merge, JoinOp::NestLoop];
        let (db, w) = fixture();
        let est = HistogramEstimator::new(&db);
        let featurizer = Featurizer::new(db.clone(), OpWeights::postgres_like(), true);
        let q = w.queries.iter().max_by_key(|q| q.num_tables()).unwrap();
        let model = fitted_linear(&featurizer, q, &est, 7);
        let scorer = LearnedScorer::new(&featurizer, &model, &est);
        let session = scorer.for_query(q);

        // Scans, then every two-table join, scored as the beam would.
        let scans: Vec<Vec<(Arc<Plan>, ScoredTree)>> = (0..q.num_tables())
            .map(|qt| {
                [ScanOp::Seq, ScanOp::Index]
                    .map(|op| {
                        let p = Plan::scan(qt, op);
                        let st = session.score_scan(&p);
                        (p, st)
                    })
                    .into()
            })
            .collect();
        let joined = |qt: usize, mask: TableMask| {
            q.joins.iter().any(|e| {
                (e.left_qt == qt && mask.contains(e.right_qt))
                    || (e.right_qt == qt && mask.contains(e.left_qt))
            })
        };
        let mut pairs = Vec::new();
        for e in &q.joins {
            for (x, y) in [(e.left_qt, e.right_qt), (e.right_qt, e.left_qt)] {
                for (lp, lst) in &scans[x] {
                    for (rp, rst) in &scans[y] {
                        for op in OPS {
                            let p = Plan::join(op, lp.clone(), rp.clone());
                            let st = session.score_join(&p, lst, rst);
                            pairs.push((p, st));
                        }
                    }
                }
            }
        }
        let mut joins = Vec::new();
        for (lp, lst) in &pairs {
            let mask = lp.mask();
            for c in (0..q.num_tables()).filter(|&c| !mask.contains(c) && joined(c, mask)) {
                for (rp, rst) in &scans[c] {
                    for op in OPS {
                        joins.push((Plan::join(op, lp.clone(), rp.clone()), lst, rst));
                    }
                }
            }
        }
        let cands: Vec<JoinCandidate<'_>> = joins
            .iter()
            .map(|(p, lc, rc)| JoinCandidate { join: p, lc, rc })
            .collect();
        let n = cands.len();

        // The floor's givens: each output mask's head and member
        // candidates, each candidate's tail, and the model's parameters
        // (`state_vec`: fitted flag, w, b, mean, inv_std).
        let mut out = Vec::with_capacity(n);
        session.score_join_batch(&cands, &mut out);
        let tails: Vec<[f64; 17]> = out
            .iter()
            .map(|t| {
                t.ext
                    .as_deref()
                    .unwrap()
                    .downcast_ref::<FlatState>()
                    .unwrap()
                    .tail
            })
            .collect();
        let template = featurizer.flat_template(q, &est);
        let mut groups: Vec<(Vec<f64>, Vec<usize>)> = Vec::new();
        let mut group_of = HashMap::new();
        for (i, c) in cands.iter().enumerate() {
            let g = *group_of.entry(c.join.mask().0).or_insert_with(|| {
                let mut head = vec![0.0; featurizer.head_dim()];
                featurizer.flat_head_into(q, &template, c.join.mask(), &mut head);
                groups.push((head, Vec::new()));
                groups.len() - 1
            });
            groups[g].1.push(i);
        }
        let state = model.state_vec();
        let dim = featurizer.dim();
        let (wt, b) = (&state[1..1 + dim], state[1 + dim]);
        let (mean, inv_std) = (&state[2 + dim..2 + 2 * dim], &state[2 + 2 * dim..]);
        let h = featurizer.head_dim();
        let floor = |out: &mut [f64]| {
            for (head, members) in &groups {
                let mut prefix = -0.0;
                for j in 0..h {
                    prefix += wt[j] * ((head[j] - mean[j]) * inv_std[j]);
                }
                for &i in members {
                    let mut acc = prefix;
                    for (k, &v) in tails[i].iter().enumerate() {
                        let j = h + k;
                        acc += wt[j] * ((v - mean[j]) * inv_std[j]);
                    }
                    out[i] = (acc + b).min(MAX_LOG_PRED).exp();
                }
            }
        };
        let model_only = |out: &mut [f64]| {
            for (head, members) in &groups {
                let ts: Vec<&[f64]> = members.iter().map(|&i| &tails[i][..]).collect();
                for (&i, pred) in members.iter().zip(model.predict_flat_batch(head, &ts)) {
                    out[i] = pred.min(MAX_LOG_PRED).exp();
                }
            }
        };

        // The tail composition's parts, each timed alone over the same
        // candidates: the pair session's `summary` (its `sorted_on`
        // clone included), the whole `flat_join_state`, its five
        // `ln_1p`s, the `Arc<FlatState>` each scored candidate carries,
        // and the `exp` of each prediction.
        use balsa_cost::PairCoster;
        use std::hint::black_box;
        fn flat(t: &ScoredTree) -> &FlatState {
            t.ext.as_deref().unwrap().downcast_ref().unwrap()
        }
        let mut pair_of = HashMap::new();
        let mut sessions = Vec::new();
        let parts: Vec<(JoinOp, bool, usize, &FlatState, &FlatState)> = cands
            .iter()
            .map(|c| {
                let Plan::Join {
                    op, left, right, ..
                } = c.join
                else {
                    panic!("join candidate is a scan");
                };
                let p = *pair_of
                    .entry((left.mask(), right.mask()))
                    .or_insert_with(|| {
                        sessions.push(featurizer.pair_cost(q, left.mask(), right.mask(), &est));
                        sessions.len() - 1
                    });
                (*op, right.is_index_scan(), p, flat(c.lc), flat(c.rc))
            })
            .collect();
        let summary = || {
            for &(op, index, p, l, r) in &parts {
                black_box(sessions[p].summary(op, l.expert(), r.expert(), index));
            }
        };
        let compose = || {
            for (c, &(_, _, p, l, r)) in cands.iter().zip(&parts) {
                black_box(featurizer.flat_join_state(q, c.join, l, r, &sessions[p]));
            }
        };
        let states: Vec<FlatState> = out.iter().map(|t| flat(t).clone()).collect();
        let log_inputs: Vec<[f64; 5]> = states.iter().map(FlatState::log_inputs).collect();
        let ln_1p = || {
            for v in &log_inputs {
                black_box(black_box(v).map(f64::ln_1p));
            }
        };
        let log_preds: Vec<f64> = out.iter().map(|t| t.score.ln()).collect();
        let exp = || {
            for &v in &log_preds {
                black_box(black_box(v).min(MAX_LOG_PRED).exp());
            }
        };

        // Interleave the sides per repetition and report medians, so
        // load from other processes hits all alike.
        let mut ns: [Vec<u128>; 4] = Default::default();
        let [scorer_ns, model_ns, floor_ns, values_ns] = &mut ns;
        let mut values = Vec::with_capacity(n);
        let mut part_ns: [Vec<u128>; 5] = Default::default();
        let (mut want, mut got) = (vec![0.0; n], vec![0.0; n]);
        let time = |ns: &mut Vec<u128>, f: &dyn Fn()| {
            let t = Instant::now();
            f();
            ns.push(t.elapsed().as_nanos());
        };
        for _ in 0..REPS {
            let [summary_ns, compose_ns, ln_ns, arc_ns, exp_ns] = &mut part_ns;
            time(summary_ns, &summary);
            time(compose_ns, &compose);
            time(ln_ns, &ln_1p);
            let owned = states.clone();
            let t = Instant::now();
            let arcs: Vec<Arc<FlatState>> = owned.into_iter().map(Arc::new).collect();
            arc_ns.push(t.elapsed().as_nanos());
            drop(black_box(arcs));
            time(exp_ns, &exp);
            out.clear();
            let t = Instant::now();
            session.score_join_batch(&cands, &mut out);
            scorer_ns.push(t.elapsed().as_nanos());
            values.clear();
            let t = Instant::now();
            session.score_join_values(&cands, &mut values);
            values_ns.push(t.elapsed().as_nanos());
            let t = Instant::now();
            model_only(&mut got);
            model_ns.push(t.elapsed().as_nanos());
            let t = Instant::now();
            floor(&mut want);
            floor_ns.push(t.elapsed().as_nanos());
            let want = std::hint::black_box(&want);
            for (i, (s, (m, f))) in out.iter().zip(got.iter().zip(want)).enumerate() {
                assert_eq!(s.score.to_bits(), f.to_bits(), "scorer, candidate {i}");
                assert_eq!(
                    values[i].to_bits(),
                    f.to_bits(),
                    "values path, candidate {i}"
                );
                assert_eq!(m.to_bits(), f.to_bits(), "model, candidate {i}");
            }
        }
        let per_candidate = |mut ns: Vec<u128>| {
            ns.sort_unstable();
            ns[ns.len() / 2] as f64 / n as f64
        };
        let [s, m, f, v] = ns.map(per_candidate);
        let [summary, compose, ln, arc, exp] = part_ns.map(per_candidate);
        println!(
            "{n} candidates, {} output masks, dim {dim} (head {h}), ns/candidate:\n  \
             scorer {s:.0} (values path {v:.0}), model {m:.0}, floor {f:.0}; \
             ratio scorer {:.2} (values path {:.2}), model {:.2}",
            groups.len(),
            s / f,
            v / f,
            m / f
        );
        println!(
            "  scorer parts: flat_join_state {compose:.0} (pair-session summary {summary:.0}, \
             five ln_1p {ln:.0}), Arc<FlatState> {arc:.0}, exp {exp:.0}"
        );
    }
}
