//! Property suite for the resource-governance layer (anytime planning):
//!
//! * **Generous-budget bit-identity** — on all 137 JOB + ext-JOB
//!   queries, in both search modes, a DP run under a budget too large to
//!   fire is **bit-identical** to the unbudgeted run: same plan
//!   fingerprint, same cost bits, same enumeration counters, same
//!   Pareto frontier, zero degradations. Budget checks are pure
//!   comparisons on counters the planner already keeps; this test is
//!   the proof.
//! * **Tight-budget degradation** — every budget level yields a
//!   complete, verifier-clean plan with the degradation honestly
//!   recorded: a `work=0` budget exhausts DP *and* the beam and lands
//!   on the greedy floor (level 2, equal to the greedy planner's own
//!   answer bit-for-bit); a budget sized between the beam's work and
//!   the DP's exhausts only the DP (level 1, equal to the width-8
//!   fallback beam's answer).
//! * **Graceful in executed latency** — under `work=20000,memo=2000`
//!   the DP's median simulated latency over the JOB-like queries stays
//!   within 1.5x of the unbudgeted run's, with the budget seen to fire.
//! * **Greedy sanity** — `GreedyLeftDeepPlanner` is deterministic and
//!   stays within a sanity cost factor of the DP optimum.
//! * **Error taxonomy** — disconnected join graphs surface
//!   [`PlanError::DisconnectedGraph`] from every planner's `try_plan`
//!   and from the random-plan sampler, and the raw chain-free entry
//!   points surface [`PlanError::BudgetExhausted`] with the exhausting
//!   stage named.
//!
//! The independent plan verifier runs inside every planner here (debug
//! assertions are on in tests), so each emitted plan in this file is
//! re-checked structurally by construction.

use balsa_cost::{CostScorer, ExpertCostModel, OpWeights};
use balsa_engine::ExecutionEnv;
use balsa_query::workloads::{ext_job_workload, job_workload};
use balsa_query::Query;
use balsa_search::{
    try_random_plan, BeamPlanner, DpPlanner, GreedyLeftDeepPlanner, PlanBudget, PlanError, Planner,
    SearchMode, SubmaskDpPlanner, FALLBACK_BEAM_WIDTH,
};
use balsa_storage::{mini_imdb, DataGenConfig};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::sync::Arc;

fn small_db() -> Arc<balsa_storage::Database> {
    Arc::new(mini_imdb(DataGenConfig {
        scale: 0.02,
        ..Default::default()
    }))
}

/// The full 137-query property workload (113 JOB + 24 ext-JOB).
fn all_queries(db: &balsa_storage::Database) -> Vec<Query> {
    let job = job_workload(db.catalog(), 7);
    let ext = ext_job_workload(db.catalog(), 7);
    let all: Vec<Query> = job.queries.into_iter().chain(ext.queries).collect();
    assert_eq!(all.len(), 137, "JOB + ext-JOB property universe");
    all
}

/// A budget far beyond any planning run in this workload — large enough
/// to never fire, finite enough that the checking code path runs.
const GENEROUS: PlanBudget = PlanBudget {
    work: 1 << 60,
    memo: 1 << 40,
};

/// Generous-budget runs are bit-identical to unbudgeted runs, and the
/// greedy floor is deterministic and within a sanity factor of the DP
/// optimum — across all 137 queries, both modes.
#[test]
fn generous_budget_is_bit_identical_and_greedy_is_sane() {
    let db = small_db();
    let est = balsa_card::HistogramEstimator::new(&db);
    let model = ExpertCostModel::new(db.clone(), OpWeights::postgres_like());
    let scorer = CostScorer::new(&model, &est);
    for q in &all_queries(&db) {
        for mode in [SearchMode::Bushy, SearchMode::LeftDeep] {
            let (base, base_frontier) = DpPlanner::new(&db, &model, &est, mode)
                .try_plan_with_frontier(q)
                .expect("connected query must plan");
            let (budgeted, budgeted_frontier) = DpPlanner::new(&db, &model, &est, mode)
                .with_budget(GENEROUS)
                .try_plan_with_frontier(q)
                .expect("generous budget must not fire");
            assert_eq!(
                budgeted.plan.fingerprint(),
                base.plan.fingerprint(),
                "{} {mode:?}: generous budget changed the plan",
                q.name
            );
            assert_eq!(
                budgeted.cost.to_bits(),
                base.cost.to_bits(),
                "{} {mode:?}: generous budget changed the cost bits",
                q.name
            );
            assert_eq!(
                budgeted.stats.candidates, base.stats.candidates,
                "{}",
                q.name
            );
            assert_eq!(budgeted.stats.pairs, base.stats.pairs, "{}", q.name);
            assert_eq!(budgeted.stats.states, base.stats.states, "{}", q.name);
            assert_eq!(budgeted_frontier, base_frontier, "{} {mode:?}", q.name);
            for s in [&base.stats, &budgeted.stats] {
                assert_eq!(s.degraded_levels, 0, "{}: phantom degradation", q.name);
                assert!(!s.budget_exhausted, "{}: phantom exhaustion", q.name);
            }

            // Greedy floor: deterministic, complete, sane cost.
            let greedy = GreedyLeftDeepPlanner::new(&db, &scorer, mode);
            let a = greedy.try_plan(q).expect("connected query must plan");
            let b = greedy.try_plan(q).expect("connected query must plan");
            assert_eq!(a.plan.fingerprint(), b.plan.fingerprint(), "{}", q.name);
            assert_eq!(a.cost.to_bits(), b.cost.to_bits(), "{}", q.name);
            assert_eq!(a.plan.mask(), q.all_mask(), "{}", q.name);
            // The DP optimum lower-bounds any plan in its space; the
            // greedy left-deep answer must be no better than the
            // left-deep DP optimum and within a sanity factor of it.
            assert!(
                a.cost.is_finite() && a.cost > 0.0,
                "{}: greedy cost {}",
                q.name,
                a.cost
            );
            if mode == SearchMode::LeftDeep {
                assert!(
                    a.cost >= base.cost * (1.0 - 1e-9),
                    "{}: greedy {} beat the DP optimum {}",
                    q.name,
                    a.cost,
                    base.cost
                );
            }
            assert!(
                a.cost <= base.cost * 1e6,
                "{}: greedy {} catastrophically above DP {}",
                q.name,
                a.cost,
                base.cost
            );
        }
    }
}

/// Every budget tier yields a complete plan with the degradation
/// recorded, and the chain's answers equal the fallback planners' own:
/// `work=0` exhausts every search stage and lands on greedy (level 2);
/// a budget between the beam's total work and the DP's exhausts only
/// the DP (level 1, answer identical to the width-8 fallback beam).
#[test]
fn tight_budgets_degrade_honestly_through_the_chain() {
    let db = small_db();
    let est = balsa_card::HistogramEstimator::new(&db);
    let model = ExpertCostModel::new(db.clone(), OpWeights::postgres_like());
    let scorer = CostScorer::new(&model, &est);
    let queries = all_queries(&db);
    let mut level1 = 0usize;
    let mut level2 = 0usize;
    for q in &queries {
        for mode in [SearchMode::Bushy, SearchMode::LeftDeep] {
            // Tier 1: zero work budget — nothing can search, greedy
            // answers. The plan still verifies (the verifier runs
            // inside try_plan) and the degradation is recorded.
            let zero = PlanBudget {
                work: 0,
                memo: usize::MAX,
            };
            let floor = DpPlanner::new(&db, &model, &est, mode)
                .with_budget(zero)
                .try_plan(q)
                .expect("the greedy floor always answers connected queries");
            assert_eq!(floor.stats.degraded_levels, 2, "{} {mode:?}", q.name);
            assert!(floor.stats.budget_exhausted, "{} {mode:?}", q.name);
            assert_eq!(floor.plan.mask(), q.all_mask(), "{}", q.name);
            let greedy = GreedyLeftDeepPlanner::new(&db, &scorer, mode)
                .try_plan(q)
                .expect("connected");
            assert_eq!(
                floor.plan.fingerprint(),
                greedy.plan.fingerprint(),
                "{} {mode:?}: level-2 answer must be the greedy planner's",
                q.name
            );
            level2 += 1;

            // Tier 2 (sampled; needs an unbudgeted DP run to size the
            // budget): work between the fallback beam's total and the
            // DP's total exhausts exactly one level.
            if q.id % 8 != 0 {
                continue;
            }
            let base = DpPlanner::new(&db, &model, &est, mode).plan(q);
            let dp_work = (base.stats.candidates + base.stats.pairs) as u64;
            let beam = BeamPlanner::new(&db, &scorer, mode, FALLBACK_BEAM_WIDTH)
                .try_plan_raw(q)
                .expect("connected");
            let beam_work = beam.stats.candidates as u64;
            if beam_work >= dp_work {
                continue; // tiny query: the beam does no less work
            }
            let between = PlanBudget {
                work: dp_work - 1,
                memo: usize::MAX,
            };
            let degraded = DpPlanner::new(&db, &model, &est, mode)
                .with_budget(between)
                .try_plan(q)
                .expect("beam fallback must answer");
            assert_eq!(degraded.stats.degraded_levels, 1, "{} {mode:?}", q.name);
            assert!(degraded.stats.budget_exhausted, "{} {mode:?}", q.name);
            assert_eq!(
                degraded.plan.fingerprint(),
                beam.plan.fingerprint(),
                "{} {mode:?}: level-1 answer must be the fallback beam's",
                q.name
            );
            assert_eq!(degraded.cost.to_bits(), beam.cost.to_bits(), "{}", q.name);
            level1 += 1;
        }
    }
    assert_eq!(level2, queries.len() * 2, "level 2 must cover every query");
    assert!(level1 > 0, "no query exercised the DP -> beam degradation");
}

/// Degradation is graceful in *executed* latency too: under
/// `work=20000,memo=2000` the bushy DP over the 113 JOB-like queries
/// exhausts on the big ones, answers through the chain, and its median
/// simulated latency stays within 1.5x of the unbudgeted DP's (1.00 on
/// this fixture: 18 queries exhaust, 21 fallback levels taken).
#[test]
fn tight_budget_keeps_executed_latency_median_within_bound_of_clean() {
    let db = small_db();
    let est = balsa_card::HistogramEstimator::new(&db);
    let model = ExpertCostModel::new(db.clone(), OpWeights::postgres_like());
    let env = ExecutionEnv::postgres_sim(db.clone());
    let job = job_workload(db.catalog(), 7).queries;
    let tight = PlanBudget::parse("work=20000,memo=2000").expect("budget spec");
    let (mut degraded_levels, mut exhausted) = (0, 0);
    let mut median_latency = |budget: PlanBudget| {
        let planner = DpPlanner::new(&db, &model, &est, SearchMode::Bushy).with_budget(budget);
        let mut secs: Vec<f64> = job
            .iter()
            .map(|q| {
                let out = planner.plan(q);
                degraded_levels += out.stats.degraded_levels;
                exhausted += usize::from(out.stats.budget_exhausted);
                env.execute(q, &out.plan, None).unwrap().latency_secs
            })
            .collect();
        secs.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        secs[secs.len() / 2]
    };
    let clean = median_latency(PlanBudget::UNLIMITED);
    let budgeted = median_latency(tight);
    assert!(
        budgeted <= clean * 1.5,
        "budgeted median {budgeted} vs clean {clean}"
    );
    assert!(
        degraded_levels > 0 && exhausted > 0,
        "the budget never fired: {degraded_levels} levels, {exhausted} queries"
    );
}

/// Disconnected join graphs surface [`PlanError::DisconnectedGraph`]
/// from every planner's `try_plan` and from [`try_random_plan`] — never a
/// panic, never a bogus plan.
#[test]
fn disconnected_graphs_error_from_every_planner() {
    let db = small_db();
    let est = balsa_card::HistogramEstimator::new(&db);
    let model = ExpertCostModel::new(db.clone(), OpWeights::postgres_like());
    let scorer = CostScorer::new(&model, &est);
    // A real multi-table query with every join edge removed: n >= 2
    // tables, no edges — the canonical disconnected graph.
    let mut q = all_queries(&db)
        .into_iter()
        .find(|q| q.num_tables() >= 3)
        .expect("multi-table query exists");
    q.joins.clear();
    q.name = "disconnected".into();

    for mode in [SearchMode::Bushy, SearchMode::LeftDeep] {
        let planners: Vec<Box<dyn Planner + '_>> = vec![
            Box::new(DpPlanner::new(&db, &model, &est, mode)),
            Box::new(SubmaskDpPlanner::new(&db, &model, &est, mode)),
            Box::new(BeamPlanner::new(&db, &scorer, mode, 4)),
            Box::new(GreedyLeftDeepPlanner::new(&db, &scorer, mode)),
        ];
        match try_random_plan(&db, &q, mode, &mut SmallRng::seed_from_u64(7)) {
            Err(PlanError::DisconnectedGraph { query }) => assert_eq!(query, "disconnected"),
            other => panic!("random sampler: expected DisconnectedGraph, got {other:?}"),
        }
        for p in &planners {
            match p.try_plan(&q) {
                Err(PlanError::DisconnectedGraph { query }) => {
                    assert_eq!(query, "disconnected", "{}", p.name());
                }
                other => panic!("{}: expected DisconnectedGraph, got {other:?}", p.name()),
            }
            // A finite budget must not change the taxonomy: there is
            // nothing to degrade *to* when no plan exists.
            match DpPlanner::new(&db, &model, &est, mode)
                .with_budget(PlanBudget { work: 0, memo: 0 })
                .try_plan(&q)
            {
                Err(PlanError::DisconnectedGraph { .. }) => {}
                other => panic!("budgeted DP on disconnected graph: {other:?}"),
            }
        }
    }
}

/// The raw, chain-free entry points surface budget exhaustion as a
/// typed error naming the stage — the opt-in for callers that want to
/// observe exhaustion instead of degrading.
#[test]
fn raw_entry_points_surface_budget_exhaustion() {
    let db = small_db();
    let est = balsa_card::HistogramEstimator::new(&db);
    let model = ExpertCostModel::new(db.clone(), OpWeights::postgres_like());
    let scorer = CostScorer::new(&model, &est);
    let q = all_queries(&db)
        .into_iter()
        .find(|q| q.num_tables() >= 4)
        .expect("multi-table query exists");
    let zero = PlanBudget {
        work: 0,
        memo: usize::MAX,
    };
    for mode in [SearchMode::Bushy, SearchMode::LeftDeep] {
        match DpPlanner::new(&db, &model, &est, mode)
            .with_budget(zero)
            .try_plan_with_frontier(&q)
        {
            Err(PlanError::BudgetExhausted { stage, budget, .. }) => {
                assert_eq!(stage, "dp");
                assert_eq!(budget, zero);
            }
            other => panic!("dp: expected BudgetExhausted, got {:?}", other.map(|_| ())),
        }
        match SubmaskDpPlanner::new(&db, &model, &est, mode)
            .with_budget(zero)
            .try_plan_with_frontier(&q)
        {
            Err(PlanError::BudgetExhausted { stage, .. }) => assert_eq!(stage, "submask-dp"),
            other => panic!(
                "submask-dp: expected BudgetExhausted, got {:?}",
                other.map(|_| ())
            ),
        }
        match BeamPlanner::new(&db, &scorer, mode, 4)
            .with_budget(zero)
            .try_plan_raw(&q)
        {
            Err(PlanError::BudgetExhausted { stage, .. }) => assert_eq!(stage, "beam"),
            other => panic!(
                "beam: expected BudgetExhausted, got {:?}",
                other.map(|_| ())
            ),
        }
    }
}
