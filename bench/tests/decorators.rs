//! Each decorator forwards every method of its trait — shown twice:
//! probes whose every method logs its own name see exactly the method
//! that was called on the decorator (a decorator that let a defaulted
//! method fall through to the trait default would show the default's
//! inner call instead), and real planners over decorated objects return
//! the same plans, cost bits and `SearchStats` counts on ten queries.

use balsa_bench::decorate::{
    TracedCostModel, TracedEstimator, TracedPlanner, TracedScorer, TracedValueModel, MODEL_FIT,
    MODEL_FIT_PER_SAMPLE, SCORER_BATCH, SEARCH_BEAM, SEARCH_DP,
};
use balsa_bench::harness::{Base, Sizes};
use balsa_bench::serving::pretrain_config;
use balsa_bench::trace::{Hot, Tracer};
use balsa_card::{CardEstimator, HistogramEstimator};
use balsa_cost::{
    CostModel, ExpertCostModel, JoinCandidate, OrderSource, PairCoster, PlanScorer, QueryScorer,
    ScoredTree, SubtreeCost,
};
use balsa_engine::{EngineProfile, ExecutionEnv};
use balsa_learn::{
    train_loop, FeatureEncoding, Featurizer, FitReport, JoinStateItem, LearnedScorer, ModelState,
    SgdConfig, TrainSet, ValueModel,
};
use balsa_query::{JoinOp, Plan, Query, ScanOp, Split, TableMask};
use balsa_search::{
    BeamPlanner, DpPlanner, PlanError, PlannedQuery, Planner, SearchMode, SearchStats,
};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::sync::{Arc, Mutex};

#[derive(Default)]
struct Log(Mutex<Vec<&'static str>>);

impl Log {
    fn hit(&self, method: &'static str) {
        self.0.lock().unwrap().push(method);
    }

    fn take(&self) -> Vec<&'static str> {
        std::mem::take(&mut self.0.lock().unwrap())
    }
}

fn cost(work: f64) -> SubtreeCost {
    SubtreeCost {
        work,
        out_rows: 1.0,
        sorted_on: Vec::new(),
    }
}

struct ProbeEst<'a>(&'a Log);

impl CardEstimator for ProbeEst<'_> {
    fn cardinality(&self, _: &Query, _: TableMask) -> f64 {
        self.0.hit("cardinality");
        11.0
    }
    fn selectivity(&self, _: &Query, _: usize) -> f64 {
        self.0.hit("selectivity");
        0.25
    }
    fn base_rows(&self, _: &Query, _: usize) -> f64 {
        self.0.hit("base_rows");
        44.0
    }
}

struct ProbeCost<'a>(&'a Log);

impl CostModel for ProbeCost<'_> {
    fn plan_cost(&self, _: &Query, _: &Plan, _: &dyn CardEstimator) -> f64 {
        self.0.hit("plan_cost");
        1.0
    }
    fn name(&self) -> &'static str {
        self.0.hit("name");
        "probe"
    }
    fn scan_summary(&self, _: &Query, _: &Plan, _: &dyn CardEstimator) -> SubtreeCost {
        self.0.hit("scan_summary");
        cost(2.0)
    }
    fn join_summary(
        &self,
        _: &Query,
        _: &Plan,
        _: &SubtreeCost,
        _: &SubtreeCost,
        _: &dyn CardEstimator,
    ) -> SubtreeCost {
        self.0.hit("join_summary");
        cost(3.0)
    }
    fn join_summary_parts(
        &self,
        _: &Query,
        _: JoinOp,
        _: &Arc<Plan>,
        _: &SubtreeCost,
        _: &Arc<Plan>,
        _: &SubtreeCost,
        _: &dyn CardEstimator,
    ) -> SubtreeCost {
        self.0.hit("join_summary_parts");
        cost(4.0)
    }
    fn pair_coster<'c>(
        &'c self,
        _: &Query,
        _: TableMask,
        _: TableMask,
        _: &dyn CardEstimator,
    ) -> Option<Box<dyn PairCoster + 'c>> {
        self.0.hit("pair_coster");
        Some(Box::new(ProbeCoster(self.0)))
    }
}

struct ProbeCoster<'a>(&'a Log);

impl PairCoster for ProbeCoster<'_> {
    fn work_out(&self, _: JoinOp, _: &SubtreeCost, _: &SubtreeCost, _: bool) -> (f64, f64) {
        self.0.hit("work_out");
        (5.0, 6.0)
    }
    fn child_monotone(&self) -> bool {
        self.0.hit("child_monotone");
        false
    }
    fn order_source(&self, _: JoinOp) -> OrderSource {
        self.0.hit("order_source");
        OrderSource::Pair
    }
    fn pair_sorted_on(&self) -> &[(usize, usize)] {
        self.0.hit("pair_sorted_on");
        &[(7, 8)]
    }
}

struct ProbeScorer<'a>(&'a Log);

impl PlanScorer for ProbeScorer<'_> {
    fn name(&self) -> String {
        self.0.hit("name");
        "probe".into()
    }
    fn for_query<'q>(&'q self, _: &'q Query) -> Box<dyn QueryScorer + 'q> {
        self.0.hit("for_query");
        Box::new(ProbeSession(self.0))
    }
}

struct ProbeSession<'a>(&'a Log);

fn scored(score: f64) -> ScoredTree {
    ScoredTree {
        score,
        ..ScoredTree::default()
    }
}

impl QueryScorer for ProbeSession<'_> {
    fn score_scan(&self, _: &Plan) -> ScoredTree {
        self.0.hit("score_scan");
        scored(1.0)
    }
    fn score_join(&self, _: &Plan, _: &ScoredTree, _: &ScoredTree) -> ScoredTree {
        self.0.hit("score_join");
        scored(2.0)
    }
    fn score_join_batch(&self, cands: &[JoinCandidate<'_>], out: &mut Vec<ScoredTree>) {
        self.0.hit("score_join_batch");
        out.extend(cands.iter().map(|_| scored(3.0)));
    }
}

struct ProbeModel(Arc<Log>);

impl ValueModel for ProbeModel {
    fn name(&self) -> String {
        self.0.hit("name");
        "probe".into()
    }
    fn encoding(&self) -> FeatureEncoding {
        self.0.hit("encoding");
        FeatureEncoding::Tree
    }
    fn is_fitted(&self) -> bool {
        self.0.hit("is_fitted");
        true
    }
    fn predict(&self, _: &[f64]) -> f64 {
        self.0.hit("predict");
        1.0
    }
    fn fit(&mut self, _: TrainSet, _: &SgdConfig, _: &mut SmallRng) -> FitReport {
        self.0.hit("fit");
        FitReport {
            steps: 1,
            ..FitReport::default()
        }
    }
    fn fit_per_sample(&mut self, _: TrainSet, _: &SgdConfig, _: &mut SmallRng) -> FitReport {
        self.0.hit("fit_per_sample");
        FitReport {
            steps: 2,
            ..FitReport::default()
        }
    }
    fn params(&self) -> Vec<f64> {
        self.0.hit("params");
        vec![1.0]
    }
    fn state_vec(&self) -> Vec<f64> {
        self.0.hit("state_vec");
        vec![2.0]
    }
    fn load_state(&mut self, _: &[f64]) -> Result<(), String> {
        self.0.hit("load_state");
        Err("probe".into())
    }
    fn clone_box(&self) -> Box<dyn ValueModel> {
        self.0.hit("clone_box");
        Box::new(ProbeModel(self.0.clone()))
    }
    fn leaf_state(&self, _: &[f64]) -> Option<ModelState> {
        self.0.hit("leaf_state");
        Some(Arc::new(1u8))
    }
    fn join_state(&self, _: &[f64], _: &ModelState, _: &ModelState) -> Option<ModelState> {
        self.0.hit("join_state");
        Some(Arc::new(2u8))
    }
    fn state_value(&self, _: &ModelState) -> Option<f64> {
        self.0.hit("state_value");
        Some(3.0)
    }
    fn predict_batch(&self, xs: &[&[f64]]) -> Vec<f64> {
        self.0.hit("predict_batch");
        vec![4.0; xs.len()]
    }
    fn join_state_batch(&self, items: &[JoinStateItem<'_>]) -> Option<Vec<ModelState>> {
        self.0.hit("join_state_batch");
        Some(items.iter().map(|_| Arc::new(5u8) as ModelState).collect())
    }
    fn state_value_batch(&self, states: &[ModelState]) -> Option<Vec<f64>> {
        self.0.hit("state_value_batch");
        Some(vec![6.0; states.len()])
    }
}

struct ProbePlanner<'a>(&'a Log, PlannedQuery);

impl Planner for ProbePlanner<'_> {
    fn name(&self) -> String {
        self.0.hit("name");
        "probe".into()
    }
    fn try_plan(&self, _: &Query) -> Result<PlannedQuery, PlanError> {
        self.0.hit("try_plan");
        Ok(self.1.clone())
    }
    fn plan(&self, _: &Query) -> PlannedQuery {
        self.0.hit("plan");
        self.1.clone()
    }
}

fn smoke_base() -> Base {
    Base::new(7, &Sizes::smoke())
}

#[test]
fn every_trait_method_reaches_the_wrapped_object() {
    let base = smoke_base();
    let q = &base.job.queries[0];
    let (s0, s1) = (Plan::scan(0, ScanOp::Seq), Plan::scan(1, ScanOp::Seq));
    let join = Plan::join(JoinOp::Hash, s0.clone(), s1.clone());
    let (m0, m1) = (TableMask::single(0), TableMask::single(1));
    let log = Log::default();
    let tracer = Arc::new(Tracer::new());

    // CardEstimator.
    let est = TracedEstimator {
        inner: &ProbeEst(&log),
        tracer: &tracer,
    };
    assert_eq!(est.cardinality(q, m0), 11.0);
    assert_eq!(est.selectivity(q, 0), 0.25);
    assert_eq!(est.base_rows(q, 0), 44.0);
    assert_eq!(log.take(), ["cardinality", "selectivity", "base_rows"]);
    assert_eq!(tracer.hot_totals(Hot::Card).calls, 3);

    // CostModel and the PairCoster it hands out.
    let probe = ProbeCost(&log);
    let model = TracedCostModel {
        inner: &probe,
        tracer: &tracer,
    };
    assert_eq!(model.plan_cost(q, &join, &est), 1.0);
    assert_eq!(model.name(), "probe");
    assert_eq!(model.scan_summary(q, &s0, &est).work, 2.0);
    assert_eq!(
        model
            .join_summary(q, &join, &cost(0.0), &cost(0.0), &est)
            .work,
        3.0
    );
    assert_eq!(
        model
            .join_summary_parts(q, JoinOp::Hash, &s0, &cost(0.0), &s1, &cost(0.0), &est)
            .work,
        4.0
    );
    assert_eq!(
        log.take(),
        [
            "plan_cost",
            "name",
            "scan_summary",
            "join_summary",
            "join_summary_parts"
        ]
    );
    assert_eq!(tracer.hot_totals(Hot::CostSummary).calls, 4);
    let session = model
        .pair_coster(q, m0, m1, &est)
        .expect("forwarded, not the default None");
    assert_eq!(
        session.work_out(JoinOp::Hash, &cost(0.0), &cost(0.0), false),
        (5.0, 6.0)
    );
    assert!(!session.child_monotone());
    assert_eq!(session.order_source(JoinOp::Merge), OrderSource::Pair);
    assert_eq!(session.pair_sorted_on(), [(7, 8)]);
    assert_eq!(
        log.take(),
        [
            "pair_coster",
            "work_out",
            "child_monotone",
            "order_source",
            "pair_sorted_on"
        ]
    );
    assert_eq!(tracer.hot_totals(Hot::CostSessionOpen).calls, 1);
    assert_eq!(tracer.hot_totals(Hot::CostWorkOut).calls, 1);
    drop(session);

    // PlanScorer and the QueryScorer it opens.
    let probe = ProbeScorer(&log);
    let scorer = TracedScorer::new(&probe, &tracer);
    assert_eq!(scorer.name(), "probe");
    let session = scorer.for_query(q);
    let leaf = session.score_scan(&s0);
    assert_eq!(leaf.score, 1.0);
    assert_eq!(session.score_join(&join, &leaf, &leaf).score, 2.0);
    let cand = || JoinCandidate {
        join: &join,
        lc: &leaf,
        rc: &leaf,
    };
    let mut out = Vec::new();
    session.score_join_batch(&[cand(), cand()], &mut out);
    assert_eq!(out.iter().map(|t| t.score).collect::<Vec<_>>(), [3.0, 3.0]);
    assert_eq!(
        log.take(),
        [
            "name",
            "for_query",
            "score_scan",
            "score_join",
            "score_join_batch"
        ]
    );
    assert_eq!(tracer.span_totals(SCORER_BATCH).calls, 1);
    assert_eq!(
        scorer.candidates.load(std::sync::atomic::Ordering::Relaxed),
        4
    );
    drop(session);

    // ValueModel.
    let log = Arc::new(Log::default());
    let mut model = TracedValueModel {
        inner: Box::new(ProbeModel(log.clone())),
        tracer: tracer.clone(),
    };
    let mut rng = SmallRng::seed_from_u64(1);
    let sgd = SgdConfig::default();
    assert_eq!(model.name(), "probe");
    assert_eq!(model.encoding(), FeatureEncoding::Tree);
    assert!(model.is_fitted());
    assert_eq!(model.predict(&[0.0]), 1.0);
    assert_eq!(model.fit(TrainSet::default(), &sgd, &mut rng).steps, 1);
    assert_eq!(
        model
            .fit_per_sample(TrainSet::default(), &sgd, &mut rng)
            .steps,
        2
    );
    assert_eq!(model.params(), [1.0]);
    assert_eq!(model.state_vec(), [2.0]);
    assert_eq!(model.load_state(&[]), Err("probe".into()));
    let state = model.leaf_state(&[0.0]).unwrap();
    assert!(model.join_state(&[0.0], &state, &state).is_some());
    assert_eq!(model.state_value(&state), Some(3.0));
    assert_eq!(model.predict_batch(&[&[0.0], &[1.0]]), [4.0, 4.0]);
    let item = JoinStateItem {
        node_x: &[0.0],
        left: &state,
        right: &state,
    };
    assert_eq!(model.join_state_batch(&[item]).unwrap().len(), 1);
    assert_eq!(
        model.state_value_batch(std::slice::from_ref(&state)),
        Some(vec![6.0])
    );
    let clone = model.clone_box();
    assert_eq!(
        log.take(),
        [
            "name",
            "encoding",
            "is_fitted",
            "predict",
            "fit",
            "fit_per_sample",
            "params",
            "state_vec",
            "load_state",
            "leaf_state",
            "join_state",
            "state_value",
            "predict_batch",
            "join_state_batch",
            "state_value_batch",
            "clone_box"
        ]
    );
    assert_eq!(tracer.span_totals(MODEL_FIT).calls, 1);
    assert_eq!(tracer.span_totals(MODEL_FIT_PER_SAMPLE).calls, 1);
    // The clone is decorated too: its calls land in the same tracer.
    let before = tracer.hot_totals(Hot::ModelInfer).calls;
    assert_eq!(clone.predict(&[0.0]), 1.0);
    assert_eq!(tracer.hot_totals(Hot::ModelInfer).calls, before + 1);

    // Planner.
    let log = Log::default();
    let answer = PlannedQuery {
        plan: join.clone(),
        cost: 9.0,
        stats: SearchStats::default(),
        planning_secs: 0.0,
    };
    let planner = TracedPlanner {
        inner: Box::new(ProbePlanner(&log, answer)),
        tracer: &tracer,
        span: SEARCH_DP,
    };
    assert_eq!(planner.name(), "probe");
    assert_eq!(planner.try_plan(q).unwrap().cost, 9.0);
    assert_eq!(planner.plan(q).cost, 9.0);
    assert_eq!(log.take(), ["name", "try_plan", "plan"]);
    assert_eq!(tracer.span_totals(SEARCH_DP).calls, 2);
}

fn same_answers(plain: &[PlannedQuery], traced: &[PlannedQuery]) {
    assert_eq!(plain.len(), traced.len());
    for (a, b) in plain.iter().zip(traced) {
        assert_eq!(a.plan.canonical_hash(), b.plan.canonical_hash());
        assert_eq!(a.cost.to_bits(), b.cost.to_bits());
        assert_eq!(
            (
                a.stats.states,
                a.stats.candidates,
                a.stats.pairs,
                a.stats.cost_calls
            ),
            (
                b.stats.states,
                b.stats.candidates,
                b.stats.pairs,
                b.stats.cost_calls
            )
        );
    }
}

#[test]
fn decorated_planners_answer_exactly_as_undecorated_ones() {
    let base = smoke_base();
    let queries: Vec<&Query> = base.all_queries().into_iter().take(10).collect();
    assert_eq!(queries.len(), 10);
    let profile = EngineProfile::postgres_sim();
    let est = HistogramEstimator::new(&base.db);
    let tracer = Arc::new(Tracer::new());

    // Expert DP, both modes.
    let model = ExpertCostModel::new(base.db.clone(), profile.weights);
    for mode in [SearchMode::Bushy, SearchMode::LeftDeep] {
        tracer.reset();
        let plain = DpPlanner::new(&base.db, &model, &est, mode);
        let traced_est = TracedEstimator {
            inner: &est,
            tracer: &tracer,
        };
        let traced_model = TracedCostModel {
            inner: &model,
            tracer: &tracer,
        };
        let traced = TracedPlanner {
            inner: Box::new(DpPlanner::new(&base.db, &traced_model, &traced_est, mode)),
            tracer: &tracer,
            span: SEARCH_DP,
        };
        let a: Vec<PlannedQuery> = queries.iter().map(|q| plain.plan(q)).collect();
        let b: Vec<PlannedQuery> = queries.iter().map(|q| traced.plan(q)).collect();
        same_answers(&a, &b);
        // Sessions were opened through the decorator (not the default
        // `None`), one per csg-cmp pair, and costed through it.
        let pairs: usize = a.iter().map(|p| p.stats.pairs).sum();
        assert_eq!(tracer.hot_totals(Hot::CostSessionOpen).calls, pairs as u64);
        assert!(tracer.hot_totals(Hot::CostWorkOut).calls > 0);
        assert!(tracer.hot_totals(Hot::Card).calls > 0);
        assert_eq!(tracer.span_totals(SEARCH_DP).calls, 10);
    }

    // Learned beam over a (barely) pretrained tree-conv model.
    let sizes = Sizes::smoke();
    let split = Split::random(base.job.queries.len(), sizes.held_out, 7);
    let env = ExecutionEnv::postgres_sim(base.db.clone());
    let outcome = train_loop(
        &base.db,
        &env,
        &base.job,
        &split,
        &pretrain_config(7, &sizes),
    );
    let featurizer = Featurizer::new(base.db.clone(), profile.weights, profile.bushy_hints);
    let scorer = LearnedScorer::new(&featurizer, &*outcome.model, &est);
    let plain = BeamPlanner::new(&base.db, &scorer, SearchMode::Bushy, 4);
    tracer.reset();
    let traced_model = TracedValueModel {
        inner: outcome.model.clone_box(),
        tracer: tracer.clone(),
    };
    let traced_est = TracedEstimator {
        inner: &est,
        tracer: &tracer,
    };
    let learned = LearnedScorer::new(&featurizer, &traced_model, &traced_est);
    let traced_scorer = TracedScorer::new(&learned, &tracer);
    let traced = TracedPlanner {
        inner: Box::new(BeamPlanner::new(
            &base.db,
            &traced_scorer,
            SearchMode::Bushy,
            4,
        )),
        tracer: &tracer,
        span: SEARCH_BEAM,
    };
    let a: Vec<PlannedQuery> = queries.iter().map(|q| plain.plan(q)).collect();
    let b: Vec<PlannedQuery> = queries.iter().map(|q| traced.plan(q)).collect();
    same_answers(&a, &b);
    assert!(tracer.span_totals(SCORER_BATCH).calls > 0);
    assert!(tracer.hot_totals(Hot::ModelInfer).calls > 0);
    assert_eq!(tracer.hot_totals(Hot::ScorerOpen).calls, 10);
}
