//! The generic plan-scoring layer.
//!
//! Everything that ranks partial plans — the expert cost model, the
//! `C_out` simulator, and `balsa-learn`'s learned value model — does so
//! through one interface: a [`PlanScorer`] opens a per-query
//! [`QueryScorer`] session, and the session assigns every scan leaf and
//! every candidate join a [`ScoredTree`]. Joins are scored a batch at a
//! time — [`QueryScorer::score_join_batch`] is the method a scorer
//! writes; scoring a single join is a provided batch of one. The
//! planners rank candidates by [`QueryScorer::score_join_values`] (the
//! batch's scores alone) and call `score_join_batch` only on the joins
//! they keep. Beam search (and any other
//! consumer of the shared candidate space) is written against this
//! interface only, so the same inference procedure runs on classical
//! costs, on simulated `C_out`, or on a learned value function — the
//! paper's architecture, where the value network "slots into exactly the
//! position" of the cost model (§5).
//!
//! [`CostScorer`] adapts any [`CostModel`] + [`CardEstimator`] pair to
//! the interface: the beam score is simply the compositional subtree
//! work, memoizing subset cardinalities per query.

use crate::{CostModel, SubtreeCost};
use balsa_card::{CardEstimator, MemoEstimator};
use balsa_query::{Plan, Query};
use std::any::Any;
use std::fmt;
use std::sync::Arc;

/// Opaque per-subtree state a scorer threads through join composition —
/// the child hook that lets incremental scorers (feature-channel
/// composition, tree-convolution activations) score a candidate join in
/// O(1) instead of re-walking the subtree.
pub type SubtreeExt = Arc<dyn Any + Send + Sync>;

/// A scored subtree: the scorer's ranking value plus the state the
/// scorer threads through joins.
#[derive(Clone, Default)]
pub struct ScoredTree {
    /// The beam-ranking score; lower is better. Cost scorers report the
    /// subtree's work, learned scorers a predicted latency.
    pub score: f64,
    /// Scorer-private compositional summary (output rows, orders, work).
    /// [`CostScorer`] composes joins through it, from its own trees only;
    /// scorers that compose through `ext` leave it at its default.
    /// Planners rank on `score` alone.
    pub sc: SubtreeCost,
    /// Scorer-private incremental state, handed back as the `lc`/`rc`
    /// children of [`QueryScorer::score_join_batch`]. `None` for scorers
    /// that score from scratch.
    pub ext: Option<SubtreeExt>,
}

impl fmt::Debug for ScoredTree {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ScoredTree")
            .field("score", &self.score)
            .field("sc", &self.sc)
            .field("ext", &self.ext.as_ref().map(|_| "<opaque>"))
            .finish()
    }
}

/// A source of plan scores. `Send + Sync` so training loops can share
/// one scorer across planner instances.
pub trait PlanScorer: Send + Sync {
    /// Scorer name for planner reports, e.g. `"expert"` or
    /// `"learned/linear"`.
    fn name(&self) -> String;

    /// Opens a scoring session for one query. Sessions own per-query
    /// caches (memoized cardinalities, query-level feature channels).
    fn for_query<'q>(&'q self, query: &'q Query) -> Box<dyn QueryScorer + 'q>;
}

/// One candidate join submitted to a batched scoring call
/// ([`QueryScorer::score_join_batch`]): the join plan plus its
/// children's scored subtrees.
pub struct JoinCandidate<'a> {
    /// The candidate join (a [`Plan::Join`]).
    pub join: &'a Plan,
    /// The left child's scored subtree.
    pub lc: &'a ScoredTree,
    /// The right child's scored subtree.
    pub rc: &'a ScoredTree,
}

/// A per-query scoring session. `Sync`, so a session may be shared by
/// reference across threads; implementations guard their per-query
/// caches.
///
/// Implementors write [`QueryScorer::score_scan`] and
/// [`QueryScorer::score_join_batch`]; [`QueryScorer::score_join`] is a
/// provided batch of one, so "batch ≡ per-candidate" holds by
/// construction, and [`QueryScorer::score_join_values`] is provided as
/// the batch's scores (a scorer may override it with a path that builds
/// no states, never with different bits).
///
/// **Purity contract.** Within one session, the [`ScoredTree`] of a
/// plan is a function of the plan alone: [`QueryScorer::score_scan`]
/// of equal scans, and [`QueryScorer::score_join_batch`] of equal joins
/// over children that were themselves scored by this session, return
/// bit-identical `score` and `sc` and an interchangeable `ext` —
/// whenever, in whatever batch and on whichever thread the call
/// happens. Per-query caches may make a repeat cheaper, never
/// different. The beam relies on it: it scores each distinct join once
/// and hands that one [`ScoredTree`] to every state that contains the
/// join.
pub trait QueryScorer: Sync {
    /// Scores a scan leaf (a [`Plan::Scan`]).
    fn score_scan(&self, scan: &Plan) -> ScoredTree;

    /// Scores a batch of candidate joins (each a [`Plan::Join`] with its
    /// children's scored subtrees) in one pass, appending one
    /// [`ScoredTree`] per candidate to `out` in input order. Each must
    /// agree with what scoring the same tree from its leaves upward
    /// produces, and — the purity contract — must not depend on which
    /// other candidates share the batch: amortizing work across
    /// candidates (one pair session per run, filters × batch matrix
    /// products) is a layout change, never a math change.
    fn score_join_batch(&self, cands: &[JoinCandidate<'_>], out: &mut Vec<ScoredTree>);

    /// Scores a batch of candidate joins like
    /// [`QueryScorer::score_join_batch`], appending only each
    /// candidate's `score` to `out`, in input order, bit for bit the
    /// score that call would return. A planner ranks with this and
    /// composes — calls `score_join_batch` on — only the joins it keeps,
    /// so a scorer that composes incremental state can skip building the
    /// state (and its allocations) for every candidate it is not asked
    /// to keep. The default returns `score_join_batch`'s scores.
    fn score_join_values(&self, cands: &[JoinCandidate<'_>], out: &mut Vec<f64>) {
        let mut trees = Vec::with_capacity(cands.len());
        self.score_join_batch(cands, &mut trees);
        out.extend(trees.iter().map(|t| t.score));
    }

    /// Scores one join: a batch of one.
    fn score_join(&self, join: &Plan, lc: &ScoredTree, rc: &ScoredTree) -> ScoredTree {
        let mut out = Vec::with_capacity(1);
        self.score_join_batch(&[JoinCandidate { join, lc, rc }], &mut out);
        out.pop().expect("one tree per candidate")
    }
}

/// Adapts a [`CostModel`] over a [`CardEstimator`] to the [`PlanScorer`]
/// interface: the score of a subtree is its compositional cost-model
/// work.
pub struct CostScorer<'a> {
    cost: &'a dyn CostModel,
    est: &'a dyn CardEstimator,
}

impl<'a> CostScorer<'a> {
    /// Scores plans by `cost` evaluated on `est`'s cardinalities.
    pub fn new(cost: &'a dyn CostModel, est: &'a dyn CardEstimator) -> Self {
        Self { cost, est }
    }
}

impl PlanScorer for CostScorer<'_> {
    fn name(&self) -> String {
        self.cost.name().to_string()
    }

    fn for_query<'q>(&'q self, query: &'q Query) -> Box<dyn QueryScorer + 'q> {
        Box::new(CostQueryScorer {
            cost: self.cost,
            query,
            memo: MemoEstimator::new(self.est),
        })
    }
}

struct CostQueryScorer<'q> {
    cost: &'q dyn CostModel,
    query: &'q Query,
    memo: MemoEstimator<'q>,
}

impl QueryScorer for CostQueryScorer<'_> {
    fn score_scan(&self, scan: &Plan) -> ScoredTree {
        let sc = self.cost.scan_summary(self.query, scan, &self.memo);
        ScoredTree {
            score: sc.work,
            sc,
            ext: None,
        }
    }

    /// Batched expert costing: the beam's candidate stream arrives in
    /// long runs sharing one `(left mask, right mask)` pair (every
    /// operator and scan variant of one join move is contiguous), so
    /// each run is costed through one [`crate::PairCoster`] session —
    /// the pair's cardinality, join keys, and order semantics are
    /// resolved once per run instead of once per candidate, exactly the
    /// amortization the DP enumerator already enjoys. Each candidate
    /// takes the session's [`crate::PairCoster::summary`], which is what
    /// [`CostModel::join_summary`] computes for one join with a session
    /// of its own; models without a pair session are costed by
    /// `join_summary`.
    fn score_join_batch(&self, cands: &[JoinCandidate<'_>], out: &mut Vec<ScoredTree>) {
        // A scan has no pair: `join_summary` costs it as a scan.
        let pair_of = |c: &JoinCandidate<'_>| match c.join {
            Plan::Join { left, right, .. } => Some((left.mask(), right.mask())),
            Plan::Scan { .. } => None,
        };
        let mut i = 0;
        while i < cands.len() {
            let pair = pair_of(&cands[i]);
            let run = cands[i..].iter().take_while(|c| pair_of(c) == pair).count();
            let coster =
                pair.and_then(|(lm, rm)| self.cost.pair_coster(self.query, lm, rm, &self.memo));
            for c in &cands[i..i + run] {
                let sc = match (&coster, c.join) {
                    (Some(coster), Plan::Join { op, right, .. }) => {
                        coster.summary(*op, &c.lc.sc, &c.rc.sc, right.is_index_scan())
                    }
                    _ => self
                        .cost
                        .join_summary(self.query, c.join, &c.lc.sc, &c.rc.sc, &self.memo),
                };
                out.push(ScoredTree {
                    score: sc.work,
                    sc,
                    ext: None,
                });
            }
            i += run;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CoutModel;
    use balsa_query::{JoinEdge, JoinOp, QueryTable, ScanOp, TableMask};

    struct Fixed;
    impl CardEstimator for Fixed {
        fn cardinality(&self, _q: &Query, m: TableMask) -> f64 {
            match m.0 {
                0b01 => 10.0,
                0b10 => 20.0,
                _ => 5.0,
            }
        }
        fn base_rows(&self, _q: &Query, _qt: usize) -> f64 {
            100.0
        }
    }

    fn query2() -> Query {
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
    fn cost_scorer_matches_plan_cost() {
        let q = query2();
        let model = CoutModel;
        let scorer = CostScorer::new(&model, &Fixed);
        assert_eq!(scorer.name(), "C_out");
        let session = scorer.for_query(&q);
        let a = Plan::scan(0, ScanOp::Seq);
        let b = Plan::scan(1, ScanOp::Seq);
        let sa = session.score_scan(&a);
        let sb = session.score_scan(&b);
        let j = Plan::join(JoinOp::Hash, a, b);
        let sj = session.score_join(&j, &sa, &sb);
        let direct = model.plan_cost(&q, &j, &Fixed);
        assert!((sj.score - direct).abs() < 1e-9, "{} vs {direct}", sj.score);
        assert_eq!(sj.sc.out_rows, 5.0);
    }

    /// The provided `score_join` is a batch of one: a session that
    /// writes only `score_scan` + `score_join_batch` answers it.
    #[test]
    fn score_join_is_a_batch_of_one() {
        struct BatchOnly;
        impl QueryScorer for BatchOnly {
            fn score_scan(&self, _: &Plan) -> ScoredTree {
                ScoredTree {
                    score: 1.0,
                    ..ScoredTree::default()
                }
            }
            fn score_join_batch(&self, cands: &[JoinCandidate<'_>], out: &mut Vec<ScoredTree>) {
                out.extend(cands.iter().map(|c| ScoredTree {
                    score: 10.0 * c.lc.score + c.rc.score,
                    ..ScoredTree::default()
                }));
            }
        }
        let (a, b) = (Plan::scan(0, ScanOp::Seq), Plan::scan(1, ScanOp::Seq));
        let (sa, sb) = (BatchOnly.score_scan(&a), BatchOnly.score_scan(&b));
        let ab = Plan::join(JoinOp::Hash, a, b);
        let sab = BatchOnly.score_join(&ab, &sa, &sb);
        assert_eq!(sab.score, 11.0);
        let abc = Plan::join(JoinOp::Hash, ab, Plan::scan(2, ScanOp::Seq));
        assert_eq!(BatchOnly.score_join(&abc, &sab, &sb).score, 111.0);
    }

    /// The batched expert path (per-run [`crate::PairCoster`] sessions)
    /// must be bit-identical to [`CostModel::join_summary`] per
    /// candidate — the beam relies on this to stay bit-identical under
    /// re-chunking.
    #[test]
    fn batched_expert_scoring_is_bit_identical() {
        use crate::{ExpertCostModel, OpWeights};
        use balsa_card::HistogramEstimator;
        use balsa_query::workloads::job_workload;
        use balsa_query::JoinOp;
        use balsa_storage::{mini_imdb, DataGenConfig};

        let db = Arc::new(mini_imdb(DataGenConfig {
            scale: 0.02,
            ..Default::default()
        }));
        let w = job_workload(db.catalog(), 5);
        let est = HistogramEstimator::new(&db);
        for model in [
            ExpertCostModel::new(db.clone(), OpWeights::postgres_like()),
            ExpertCostModel::new(db.clone(), OpWeights::commdb_like()),
        ] {
            let scorer = CostScorer::new(&model, &est);
            let q = w.queries.iter().find(|q| q.num_tables() >= 3).unwrap();
            let session = scorer.for_query(q);
            // Candidate stream in the beam's layout: for each join edge,
            // both orientations, all operators contiguous — runs of a
            // shared (left mask, right mask) pair with run boundaries
            // between them.
            let mut joins: Vec<(Arc<Plan>, ScoredTree, ScoredTree)> = Vec::new();
            for e in &q.joins {
                for (l, r) in [(e.left_qt, e.right_qt), (e.right_qt, e.left_qt)] {
                    let lp = Plan::scan(l, ScanOp::Seq);
                    let rp = Plan::scan(r, ScanOp::Seq);
                    let (ls, rs) = (session.score_scan(&lp), session.score_scan(&rp));
                    for &op in &JoinOp::ALL {
                        joins.push((
                            Plan::join(op, lp.clone(), rp.clone()),
                            ls.clone(),
                            rs.clone(),
                        ));
                    }
                }
            }
            let cands: Vec<JoinCandidate<'_>> = joins
                .iter()
                .map(|(j, l, r)| JoinCandidate {
                    join: j,
                    lc: l,
                    rc: r,
                })
                .collect();
            let mut batched = Vec::new();
            session.score_join_batch(&cands, &mut batched);
            assert_eq!(batched.len(), cands.len());
            for (c, b) in cands.iter().zip(&batched) {
                let single = model.join_summary(q, c.join, &c.lc.sc, &c.rc.sc, &est);
                assert_eq!(b.score.to_bits(), single.work.to_bits(), "{}", c.join);
                assert_eq!(b.sc.work.to_bits(), single.work.to_bits());
                assert_eq!(b.sc.out_rows.to_bits(), single.out_rows.to_bits());
                assert_eq!(b.sc.sorted_on, single.sorted_on, "{}", c.join);
            }
        }
    }
}
