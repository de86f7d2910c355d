//! Bit-identity of the batched inference hot path (PR 5 acceptance).
//!
//! The beam scores every level's surviving candidates through one
//! [`QueryScorer::score_join_batch`] call — the tree-convolution
//! forward becomes a filters × batch matrix product, the linear model
//! a streamed dot-product loop. The batching contract is that this is
//! a **layout** change, never a math change — any batch layout ≡ N
//! batches of one: these tests run the beam once through whole-level
//! batches and once through a wrapper that resubmits every candidate
//! as a batch of its own, over **all 137 JOB + Ext-JOB queries**, for
//! **both model kinds** (`linear`, `tree_conv`) in **both fitted and
//! unfitted** states, and assert the chosen plans and their scores are
//! bit-identical.
//!
//! Also covered here: the raw model batch hooks must equal their
//! batch-of-one forms on random plans.

use balsa_card::HistogramEstimator;
use balsa_cost::{JoinCandidate, OpWeights, PlanScorer, QueryScorer, ScoredTree};
use balsa_learn::{
    Featurizer, LearnedScorer, LinearValueModel, ModelKind, SgdConfig, TrainSet, TreeConvConfig,
    TreeConvValueModel, ValueModel,
};
use balsa_query::workloads::{ext_job_workload, job_workload};
use balsa_query::{Plan, Query};
use balsa_search::{try_random_plan, BeamPlanner, Planner, SearchMode};
use balsa_storage::{mini_imdb, DataGenConfig, Database};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::sync::Arc;

fn fixture() -> (Arc<Database>, Vec<Query>) {
    let db = Arc::new(mini_imdb(DataGenConfig {
        scale: 0.02,
        ..Default::default()
    }));
    let mut queries = job_workload(db.catalog(), 7).queries;
    queries.extend(ext_job_workload(db.catalog(), 7).queries);
    assert_eq!(queries.len(), 137, "JOB + Ext-JOB must be 137 queries");
    (db, queries)
}

/// Forwards scans, and resubmits every join of a batch as a batch of
/// one — the layout the whole-level batches must match bit-for-bit.
struct PerCandidate<'a>(&'a dyn PlanScorer);

struct PerCandidateSession<'q>(Box<dyn QueryScorer + 'q>);

impl PlanScorer for PerCandidate<'_> {
    fn name(&self) -> String {
        self.0.name()
    }

    fn for_query<'q>(&'q self, query: &'q Query) -> Box<dyn QueryScorer + 'q> {
        Box::new(PerCandidateSession(self.0.for_query(query)))
    }
}

impl QueryScorer for PerCandidateSession<'_> {
    fn score_scan(&self, scan: &Plan) -> ScoredTree {
        self.0.score_scan(scan)
    }

    fn score_join_batch(&self, cands: &[JoinCandidate<'_>], out: &mut Vec<ScoredTree>) {
        for c in cands {
            self.0.score_join_batch(std::slice::from_ref(c), out);
        }
    }
}

/// A deterministic quick fit so the model's weights (and therefore its
/// beam rankings) are non-trivial.
fn fitted_model(
    kind: ModelKind,
    db: &Arc<Database>,
    queries: &[Query],
    featurizer: &Featurizer,
) -> Box<dyn ValueModel> {
    let est = HistogramEstimator::new(db);
    let mut rng = SmallRng::seed_from_u64(0x5EED);
    let mut data = TrainSet::default();
    let mut model: Box<dyn ValueModel> = match kind {
        ModelKind::Linear => Box::new(LinearValueModel::new(featurizer.dim())),
        ModelKind::TreeConv => Box::new(TreeConvValueModel::new(
            featurizer.node_dim(),
            TreeConvConfig::default(),
        )),
    };
    for (qi, q) in queries.iter().take(6).enumerate() {
        let plan = try_random_plan(db, q, SearchMode::Bushy, &mut rng).expect("connected query");
        let x = featurizer.featurize_enc(model.encoding(), q, &plan, &est);
        data.push(&x, 0.3 * qi as f64 - 0.5, qi % 3 == 0);
    }
    model.fit(
        data,
        &SgdConfig {
            epochs: 5,
            ..SgdConfig::default()
        },
        &mut rng,
    );
    assert!(model.is_fitted());
    model
}

fn unfitted_model(kind: ModelKind, featurizer: &Featurizer) -> Box<dyn ValueModel> {
    match kind {
        ModelKind::Linear => Box::new(LinearValueModel::new(featurizer.dim())),
        ModelKind::TreeConv => Box::new(TreeConvValueModel::new(
            featurizer.node_dim(),
            TreeConvConfig::default(),
        )),
    }
}

/// The acceptance property: over all 137 queries, for both model kinds,
/// fitted and unfitted, the batched beam chooses bit-identical plans
/// with bit-identical scores to the beam fed batches of one.
#[test]
fn batched_scoring_is_bit_identical_to_per_candidate() {
    let (db, queries) = fixture();
    let est = HistogramEstimator::new(&db);
    let featurizer = Featurizer::new(db.clone(), OpWeights::postgres_like(), true);
    for kind in [ModelKind::Linear, ModelKind::TreeConv] {
        for fitted in [false, true] {
            let model = if fitted {
                fitted_model(kind, &db, &queries, &featurizer)
            } else {
                unfitted_model(kind, &featurizer)
            };
            let scorer = LearnedScorer::new(&featurizer, &*model, &est);
            let reference = PerCandidate(&scorer);
            for q in &queries {
                let batched = BeamPlanner::new(&db, &scorer, SearchMode::Bushy, 5).plan(q);
                let percand = BeamPlanner::new(&db, &reference, SearchMode::Bushy, 5).plan(q);
                assert_eq!(
                    batched.plan.fingerprint(),
                    percand.plan.fingerprint(),
                    "{} [{:?} fitted={fitted}]: batched chose a different plan",
                    q.name,
                    kind
                );
                assert_eq!(
                    batched.cost.to_bits(),
                    percand.cost.to_bits(),
                    "{} [{:?} fitted={fitted}]: scores diverge",
                    q.name,
                    kind
                );
                assert_eq!(batched.stats.candidates, percand.stats.candidates);
                assert_eq!(batched.stats.states, percand.stats.states);
            }
        }
    }
}

/// The raw batch hooks equal their batch-of-one forms (the provided
/// `predict`) on random candidate sets (direct unit-level check,
/// independent of the beam).
#[test]
fn model_batch_hooks_match_per_item_calls() {
    let (db, queries) = fixture();
    let est = HistogramEstimator::new(&db);
    let featurizer = Featurizer::new(db.clone(), OpWeights::postgres_like(), true);
    let mut rng = SmallRng::seed_from_u64(42);
    for kind in [ModelKind::Linear, ModelKind::TreeConv] {
        let model = fitted_model(kind, &db, &queries, &featurizer);
        let q = queries.iter().find(|q| q.num_tables() >= 6).unwrap();
        let xs: Vec<Vec<f64>> = (0..12)
            .map(|_| {
                let plan =
                    try_random_plan(&db, q, SearchMode::Bushy, &mut rng).expect("connected query");
                featurizer.featurize_enc(model.encoding(), q, &plan, &est)
            })
            .collect();
        let refs: Vec<&[f64]> = xs.iter().map(|x| x.as_slice()).collect();
        let batch = model.predict_batch(&refs);
        for (x, b) in refs.iter().zip(&batch) {
            assert_eq!(model.predict(x).to_bits(), b.to_bits());
        }
    }
}

/// The batched session path itself (outside the beam): scoring a
/// candidate list through one `score_join_batch` call equals a batch of
/// one (the provided `score_join`) per candidate, in order.
#[test]
fn session_batch_equals_per_candidate_scores() {
    let (db, queries) = fixture();
    let est = HistogramEstimator::new(&db);
    let featurizer = Featurizer::new(db.clone(), OpWeights::postgres_like(), true);
    for kind in [ModelKind::Linear, ModelKind::TreeConv] {
        let model = fitted_model(kind, &db, &queries, &featurizer);
        let scorer = LearnedScorer::new(&featurizer, &*model, &est);
        let q = queries.iter().find(|q| q.num_tables() >= 4).unwrap();
        let session = scorer.for_query(q);
        // Build scored scan leaves, then every allowed 2-leaf join.
        let leaves: Vec<(Arc<Plan>, ScoredTree)> = (0..q.num_tables())
            .map(|qt| {
                let p = Plan::scan(qt, balsa_query::ScanOp::Seq);
                let st = session.score_scan(&p);
                (p, st)
            })
            .collect();
        let mut plans: Vec<(usize, usize, Arc<Plan>)> = Vec::new();
        for e in &q.joins {
            for &op in &balsa_query::JoinOp::ALL {
                plans.push((
                    e.left_qt,
                    e.right_qt,
                    Plan::join(
                        op,
                        leaves[e.left_qt].0.clone(),
                        leaves[e.right_qt].0.clone(),
                    ),
                ));
            }
        }
        let cands: Vec<JoinCandidate<'_>> = plans
            .iter()
            .map(|(l, r, p)| JoinCandidate {
                join: p,
                lc: &leaves[*l].1,
                rc: &leaves[*r].1,
            })
            .collect();
        let mut batched = Vec::new();
        session.score_join_batch(&cands, &mut batched);
        assert_eq!(batched.len(), cands.len());
        for (c, b) in cands.iter().zip(&batched) {
            let single = session.score_join(c.join, c.lc, c.rc);
            assert_eq!(single.score.to_bits(), b.score.to_bits());
            assert_eq!(single.sc.out_rows.to_bits(), b.sc.out_rows.to_bits());
        }
    }
}

/// FNV-style order-dependent fold.
fn fold(acc: u64, v: u64) -> u64 {
    (acc ^ v).wrapping_mul(0x0000_0100_0000_01b3)
}

/// Checksums recorded at commit 566d5ae — the parent of the change that
/// made the beam share one score among every state holding the same
/// join subtree. One per model kind, each over `(Plan::canonical_hash,
/// cost bits, states, candidates)` of every 4th of the 137 queries
/// (the full set costs minutes under debug assertions; the search
/// crate's `beam_sharing` suite pins all 137 under `CostScorer`) ×
/// {bushy, left-deep} × width {1, 8, 20} × ε {0, 0.5}. Sharing is sound
/// only because a learned join score is a pure function of the join
/// plan; a mismatch here means it moved a plan, a score bit or an
/// enumeration counter — a regression, not a re-pin.
const PRE_SHARING_PIN: [(ModelKind, u64); 2] = [
    (ModelKind::Linear, 0x1424_d319_ead1_de3c),
    (ModelKind::TreeConv, 0xb777_1a82_9970_aa9e),
];

#[test]
fn learned_beam_matches_the_pre_sharing_pin() {
    let (db, queries) = fixture();
    let est = HistogramEstimator::new(&db);
    let featurizer = Featurizer::new(db.clone(), OpWeights::postgres_like(), true);
    for (kind, pinned) in PRE_SHARING_PIN {
        let model = fitted_model(kind, &db, &queries, &featurizer);
        let scorer = LearnedScorer::new(&featurizer, &*model, &est);
        let mut sum = 0xcbf2_9ce4_8422_2325u64;
        for mode in [SearchMode::Bushy, SearchMode::LeftDeep] {
            for width in [1usize, 8, 20] {
                for eps in [0.0, 0.5] {
                    for q in queries.iter().step_by(4) {
                        let out = BeamPlanner::new(&db, &scorer, mode, width)
                            .with_exploration(eps, 11)
                            .plan(q);
                        for v in [
                            out.plan.canonical_hash(),
                            out.cost.to_bits(),
                            out.stats.states as u64,
                            out.stats.candidates as u64,
                        ] {
                            sum = fold(sum, v);
                        }
                    }
                }
            }
        }
        assert_eq!(sum, pinned, "{kind:?}: actual {sum:#x}");
    }
}
