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
//! batch-of-one forms on random plans, and the values-only paths
//! (`QueryScorer::score_join_values`, `ValueModel::join_value_batch`)
//! must equal the composing paths' scores bit for bit.

use balsa_card::HistogramEstimator;
use balsa_cost::{
    CostScorer, ExpertCostModel, JoinCandidate, OpWeights, PlanScorer, QueryScorer, ScoredTree,
};
use balsa_learn::{
    Featurizer, JoinStateItem, LearnedScorer, LinearValueModel, ModelKind, ResidualValueModel,
    SgdConfig, TrainSet, TreeConvConfig, TreeConvValueModel, ValueModel,
};
use balsa_query::workloads::{ext_job_workload, job_workload};
use balsa_query::{Plan, Query};
use balsa_search::{try_random_plan, BeamPlanner, Planner, SearchMode};
use balsa_storage::{mini_imdb, DataGenConfig, Database};
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};
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
    fitted_model_seeded(kind, db, queries, featurizer, 0x5EED)
}

/// [`fitted_model`] from the RNG seed `seed`.
fn fitted_model_seeded(
    kind: ModelKind,
    db: &Arc<Database>,
    queries: &[Query],
    featurizer: &Featurizer,
    seed: u64,
) -> Box<dyn ValueModel> {
    let est = HistogramEstimator::new(db);
    let mut rng = SmallRng::seed_from_u64(seed);
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

/// Scored leaves, every allowed two-leaf join and every extension of one
/// by an adjacent table's sequential scan, as `(join, left, right)`;
/// then each two-leaf join again with a child that carries no scorer
/// state, which the learned scorer answers from scratch.
fn values_cases(session: &dyn QueryScorer, q: &Query) -> Vec<(Arc<Plan>, ScoredTree, ScoredTree)> {
    use balsa_query::{JoinOp, ScanOp};
    let leaves: Vec<(Arc<Plan>, ScoredTree)> = (0..q.num_tables())
        .map(|qt| {
            let p = Plan::scan(qt, ScanOp::Seq);
            let st = session.score_scan(&p);
            (p, st)
        })
        .collect();
    let mut pairs = Vec::new();
    for e in &q.joins {
        for op in JoinOp::ALL {
            let (l, r) = (&leaves[e.left_qt], &leaves[e.right_qt]);
            let p = Plan::join(op, l.0.clone(), r.0.clone());
            let st = session.score_join(&p, &l.1, &r.1);
            pairs.push((p, st, l.1.clone(), r.1.clone()));
        }
    }
    let mut cases = Vec::new();
    for (p, st, _, _) in &pairs {
        for e in &q.joins {
            for (a, b) in [(e.left_qt, e.right_qt), (e.right_qt, e.left_qt)] {
                if p.mask().contains(a) && !p.mask().contains(b) {
                    let (r, rst) = &leaves[b];
                    cases.push((
                        Plan::join(JoinOp::Hash, p.clone(), r.clone()),
                        st.clone(),
                        rst.clone(),
                    ));
                }
            }
        }
    }
    for (p, _, lst, rst) in pairs {
        cases.push((p.clone(), lst.clone(), rst));
        cases.push((p, ScoredTree::default(), lst));
    }
    cases
}

/// `score_join_values` equals the scores of `score_join_batch`, bit for
/// bit, for the linear, tree-conv, residual-linear and
/// residual-tree-conv scorers — candidates whose children carry no
/// state (scored from scratch) included — and through `CostScorer`,
/// whose values path is the trait's default body.
#[test]
fn score_join_values_equal_the_composed_scores() {
    let (db, queries) = fixture();
    let est = HistogramEstimator::new(&db);
    let featurizer = Featurizer::new(db.clone(), OpWeights::postgres_like(), true);
    let q = queries.iter().find(|q| q.num_tables() >= 5).unwrap();
    let mut models: Vec<Box<dyn ValueModel>> = Vec::new();
    for kind in [ModelKind::Linear, ModelKind::TreeConv] {
        models.push(fitted_model(kind, &db, &queries, &featurizer));
        models.push(Box::new(ResidualValueModel::new(
            fitted_model(kind, &db, &queries, &featurizer),
            fitted_model_seeded(kind, &db, &queries, &featurizer, 0xC0DE),
        )));
    }
    let expert = ExpertCostModel::new(db.clone(), OpWeights::postgres_like());
    let cost = CostScorer::new(&expert, &est);
    let learned: Vec<LearnedScorer<'_>> = models
        .iter()
        .map(|m| LearnedScorer::new(&featurizer, &**m, &est))
        .collect();
    let mut scorers: Vec<&dyn PlanScorer> = learned.iter().map(|s| s as &dyn PlanScorer).collect();
    scorers.push(&cost);
    for scorer in scorers {
        let session = scorer.for_query(q);
        let cases = values_cases(&*session, q);
        let cands: Vec<JoinCandidate<'_>> = cases
            .iter()
            .map(|(p, lc, rc)| JoinCandidate { join: p, lc, rc })
            .collect();
        assert!(cands.iter().any(|c| c.lc.ext.is_none()) && cands.len() > 20);
        let (mut trees, mut values) = (Vec::new(), vec![-1.0]);
        session.score_join_batch(&cands, &mut trees);
        session.score_join_values(&cands, &mut values);
        assert_eq!(values.len(), cands.len() + 1, "{}: appends", scorer.name());
        for (i, (t, v)) in trees.iter().zip(&values[1..]).enumerate() {
            let what = format!("{}: candidate {i} ({})", scorer.name(), cands[i].join);
            assert_eq!(t.score.to_bits(), v.to_bits(), "{what}");
        }
    }
}

/// `ValueModel::join_value_batch` equals `state_value_batch` of
/// `join_state_batch`, bit for bit, for the tree-conv model and its
/// residual form (each item on a node row of its own, then runs of items
/// sharing one row), and is `None` exactly when composing is.
#[test]
fn join_value_batch_equals_the_value_of_composed_states() {
    let (db, queries) = fixture();
    let est = HistogramEstimator::new(&db);
    let featurizer = Featurizer::new(db.clone(), OpWeights::postgres_like(), true);
    let q = queries.iter().find(|q| q.num_tables() >= 5).unwrap();
    let mut rng = SmallRng::seed_from_u64(7);
    let models: Vec<Box<dyn ValueModel>> = vec![
        fitted_model(ModelKind::TreeConv, &db, &queries, &featurizer),
        Box::new(ResidualValueModel::new(
            fitted_model(ModelKind::TreeConv, &db, &queries, &featurizer),
            fitted_model_seeded(ModelKind::TreeConv, &db, &queries, &featurizer, 0xC0DE),
        )),
        fitted_model(ModelKind::Linear, &db, &queries, &featurizer),
    ];
    for model in &models {
        let scorer = LearnedScorer::new(&featurizer, &**model, &est);
        let session = scorer.for_query(q);
        let states: Vec<_> = values_cases(&*session, q)
            .into_iter()
            .filter_map(|(_, st, _)| st.ext)
            .collect();
        let d = featurizer.node_dim();
        let rows: Vec<Vec<f64>> = (0..6)
            .map(|_| (0..d).map(|_| rng.random_normal(0.0, 1.0)).collect())
            .collect();
        let pairs: Vec<(usize, usize)> = (0..60)
            .map(|_| {
                (
                    rng.random_range(0..states.len()),
                    rng.random_range(0..states.len()),
                )
            })
            .collect();
        for shared in [false, true] {
            let items: Vec<JoinStateItem<'_>> = pairs
                .iter()
                .enumerate()
                .map(|(k, &(l, r))| JoinStateItem {
                    node_x: &rows[if shared { k / 10 } else { k % rows.len() }],
                    left: &states[l],
                    right: &states[r],
                })
                .collect();
            let values = model.join_value_batch(&items);
            let composed = model.join_state_batch(&items).map(|s| {
                model
                    .state_value_batch(&s)
                    .expect("composed states have values")
            });
            assert_eq!(
                values.is_some(),
                model.encoding() == balsa_learn::FeatureEncoding::Tree
            );
            let bits =
                |v: Option<Vec<f64>>| v.map(|v| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>());
            assert_eq!(
                bits(values),
                bits(composed),
                "{} shared rows: {shared}",
                model.name()
            );
        }
    }
}
