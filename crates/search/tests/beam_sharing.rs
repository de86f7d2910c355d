//! Cross-state score sharing in [`BeamPlanner`]: each distinct join
//! subtree is scored at most once per beam call, whatever level names
//! it, and composed at most once.
//!
//! * **No repeated scoring** — a counting [`PlanScorer`] decorator
//!   records the fingerprint of every join it is handed, call by call.
//!   A beam level scores its fresh joins in one `score_join_values`
//!   batch, so the record shows directly that no join is scored in two
//!   batches of one beam call, `SearchStats::cost_calls` counts exactly
//!   the scores the decorator saw, and bushy beam-20 sends under four
//!   tenths of its candidates to the scorer. A level then composes the
//!   joins it keeps in one `score_join_batch` batch: at most `width`
//!   joins, each scored earlier in the call, none in two batches.
//! * **Identity pin** — a checksum over `(Plan::canonical_hash, cost
//!   bits, states, candidates)` of every query × mode × width × ε cell,
//!   recorded at the commit *before* sharing landed. Sharing must not
//!   move plans, costs or enumeration counters by one bit.
//! * **One scoring path** — the same decorator counts single-join
//!   `score_join` calls: the beam, the greedy floor and every stage of
//!   the DP → beam-8 → greedy chain score joins through the batch calls
//!   only, and greedy's answers equal a checksum recorded when it still
//!   scored one candidate at a time.

use balsa_card::HistogramEstimator;
use balsa_cost::{
    CostScorer, ExpertCostModel, JoinCandidate, OpWeights, PlanScorer, QueryScorer, ScoredTree,
};
use balsa_query::workloads::{ext_job_workload, job_workload};
use balsa_query::{Plan, Query};
use balsa_search::{
    BeamPlanner, DpPlanner, GreedyLeftDeepPlanner, PlanBudget, PlannedQuery, Planner, SearchMode,
    FALLBACK_BEAM_WIDTH,
};
use balsa_storage::{mini_imdb, DataGenConfig, Database};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::{Arc, Mutex};

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

const MODES: [SearchMode; 2] = [SearchMode::Bushy, SearchMode::LeftDeep];
const WIDTHS: [usize; 3] = [1, 8, 20];
const EPSILONS: [f64; 2] = [0.0, 0.5];
const EXPLORATION_SEED: u64 = 11;

/// Runs `visit` on the beam's answer for every cell of the query × mode
/// × width × ε grid, in a fixed order.
fn for_each_cell(
    db: &Database,
    scorer: &dyn PlanScorer,
    queries: &[Query],
    mut visit: impl FnMut(&Query, SearchMode, usize, f64, PlannedQuery),
) {
    for mode in MODES {
        for width in WIDTHS {
            for eps in EPSILONS {
                for q in queries {
                    let out = BeamPlanner::new(db, scorer, mode, width)
                        .with_exploration(eps, EXPLORATION_SEED)
                        .plan(q);
                    visit(q, mode, width, eps, out);
                }
            }
        }
    }
}

/// Which batch call a recorded fingerprint list came from.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Call {
    /// `score_join_values`: joins scored.
    Score,
    /// `score_join_batch`: kept joins composed.
    Compose,
}

/// Records, per query session, one fingerprint list per batch call, in
/// call order, and counts single-join `score_join` calls.
struct Counting<'a> {
    inner: &'a dyn PlanScorer,
    calls: Mutex<Vec<(Call, Vec<u64>)>>,
    singles: AtomicUsize,
}

impl<'a> Counting<'a> {
    fn new(inner: &'a dyn PlanScorer) -> Self {
        Self {
            inner,
            calls: Mutex::new(Vec::new()),
            singles: AtomicUsize::new(0),
        }
    }

    /// Takes the calls recorded since the last take: the scoring
    /// batches, and each composing batch with the number of scoring
    /// batches recorded before it.
    #[allow(clippy::type_complexity)]
    fn take(&self) -> (Vec<Vec<u64>>, Vec<(usize, Vec<u64>)>) {
        let calls = std::mem::take(&mut *self.calls.lock().expect("no panics under the lock"));
        let (mut scored, mut composed) = (Vec::new(), Vec::new());
        for (call, fps) in calls {
            match call {
                Call::Score => scored.push(fps),
                Call::Compose => composed.push((scored.len(), fps)),
            }
        }
        (scored, composed)
    }
}

struct CountingSession<'q> {
    inner: Box<dyn QueryScorer + 'q>,
    calls: &'q Mutex<Vec<(Call, Vec<u64>)>>,
    singles: &'q AtomicUsize,
}

impl CountingSession<'_> {
    fn record(&self, call: Call, cands: &[JoinCandidate<'_>]) {
        self.calls
            .lock()
            .expect("no panics under the lock")
            .push((call, cands.iter().map(|c| c.join.fingerprint()).collect()));
    }
}

impl PlanScorer for Counting<'_> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn for_query<'q>(&'q self, query: &'q Query) -> Box<dyn QueryScorer + 'q> {
        Box::new(CountingSession {
            inner: self.inner.for_query(query),
            calls: &self.calls,
            singles: &self.singles,
        })
    }
}

impl QueryScorer for CountingSession<'_> {
    fn score_scan(&self, scan: &Plan) -> ScoredTree {
        self.inner.score_scan(scan)
    }

    fn score_join(&self, join: &Plan, lc: &ScoredTree, rc: &ScoredTree) -> ScoredTree {
        self.singles.fetch_add(1, Relaxed);
        self.inner.score_join(join, lc, rc)
    }

    fn score_join_batch(&self, cands: &[JoinCandidate<'_>], out: &mut Vec<ScoredTree>) {
        self.record(Call::Compose, cands);
        self.inner.score_join_batch(cands, out);
    }

    fn score_join_values(&self, cands: &[JoinCandidate<'_>], out: &mut Vec<f64>) {
        self.record(Call::Score, cands);
        self.inner.score_join_values(cands, out);
    }
}

/// On all 137 queries × {bushy, left-deep} × width {1, 8, 20} × ε
/// {0, 0.5}: no join fingerprint is scored twice in one beam call, the
/// beam reports exactly the scores that ran, and on every ≥ 6-table
/// query a beam of width ≥ 8 shares some. A level composes at most
/// `width` joins in at most one call, each scored earlier in the beam
/// call, and no join is composed twice in one beam call.
#[test]
fn no_join_is_scored_or_composed_twice_in_one_beam_call() {
    let (db, queries) = fixture();
    let est = HistogramEstimator::new(&db);
    let model = ExpertCostModel::new(db.clone(), OpWeights::postgres_like());
    let expert = CostScorer::new(&model, &est);
    let counting = Counting::new(&expert);
    let mut placed = 0;
    // Greedy bushy beam-20 over the 113 JOB-like queries.
    let (mut beam20_calls, mut beam20_candidates) = (0, 0);
    for_each_cell(&db, &counting, &queries, |q, mode, width, eps, out| {
        let cell = format!("{} {mode:?} width={width} eps={eps}", q.name);
        if mode == SearchMode::Bushy && width == 20 && eps == 0.0 && !q.name.starts_with("extjob_")
        {
            beam20_calls += out.stats.cost_calls;
            beam20_candidates += out.stats.candidates;
        }
        let (batches, compositions) = counting.take();
        // One batch per level that scored anything. A level whose joins
        // were all scored earlier in the call sends none, so only a
        // full count of `n - 1` batches places each batch at a level.
        let levels_known = batches.len() == q.num_tables() - 1;
        placed += levels_known as usize;
        // The batch that scored each join.
        let mut scored_in: HashMap<u64, usize> = HashMap::new();
        for (b, batch) in batches.iter().enumerate() {
            for &fp in batch {
                if let Some(was) = scored_in.insert(fp, b) {
                    panic!("{cell}: {fp:#x} scored in batch {was} and again in batch {b}");
                }
            }
        }
        let scored = scored_in.len();
        // A level scores, then composes: a composed join was scored in
        // an earlier batch of the call — a join scored at level 0 may be
        // kept at level 4 — and is composed once.
        let mut composed: HashSet<u64> = HashSet::new();
        for (before, batch) in &compositions {
            assert!(batch.len() <= width, "{cell}: {} composed", batch.len());
            for &fp in batch {
                assert!(
                    scored_in.get(&fp).is_some_and(|b| b < before),
                    "{cell}: composed {fp:#x} before scoring it"
                );
                assert!(composed.insert(fp), "{cell}: {fp:#x} composed twice");
            }
        }
        assert!(compositions.len() < q.num_tables(), "{cell}");
        if levels_known {
            let levels: Vec<usize> = compositions.iter().map(|(before, _)| *before).collect();
            assert!(
                levels.windows(2).all(|w| w[0] < w[1]),
                "{cell}: two compositions in one level"
            );
        }
        // `cost_calls` = the scan scores + the join scores that ran;
        // `states` = the initial state + every dedup survivor, each of
        // which was scored on its own before scores were shared.
        let scans = out.stats.cost_calls - scored;
        assert!(
            (q.num_tables()..=2 * q.num_tables()).contains(&scans),
            "{cell}: cost_calls {} vs {scored} scored joins",
            out.stats.cost_calls
        );
        let survivors = out.stats.states - 1;
        assert!(scored <= survivors, "{cell}: {scored} > {survivors}");
        // Bushy states of a wide beam overlap in all but a tree or two.
        // (Left-deep states share nothing — each is its one chain, and
        // every candidate extends it — and neither does a width-1 beam
        // on a star-shaped join graph.)
        if q.num_tables() >= 6 && width >= 8 && mode == SearchMode::Bushy {
            assert!(scored < survivors, "{cell}: no score was shared");
            assert!(out.stats.cost_calls < out.stats.candidates, "{cell}");
        }
    });
    let cells = queries.len() * MODES.len() * WIDTHS.len() * EPSILONS.len();
    assert!(
        placed * 100 >= cells * 99,
        "levels known in {placed}/{cells}"
    );
    assert_eq!(counting.singles.load(Relaxed), 0, "beam called score_join");
    // Under four tenths of beam-20's candidates reach the scorer:
    // 210 554 of 598 778 = 0.352 on this fixture, plus 10 %. Scoring per
    // state again drives the ratio back to ~0.99.
    assert!(
        (beam20_calls as f64) <= 0.39 * beam20_candidates as f64,
        "beam-20 scored {beam20_calls} of {beam20_candidates} candidates"
    );
}

/// FNV-style order-dependent fold.
fn fold(acc: u64, v: u64) -> u64 {
    (acc ^ v).wrapping_mul(0x0000_0100_0000_01b3)
}

/// Checksums recorded at commit 566d5ae (the parent of the sharing
/// change) — one per (mode, width, ε) cell in `for_each_cell` order,
/// each over all 137 queries. A mismatch means sharing changed a plan,
/// a cost bit or an enumeration counter: a regression, not a re-pin.
const PINNED: [u64; 12] = [
    0xa6e0_beea_8586_bff3,
    0x8a4c_be04_ed66_0370,
    0x36e5_21b3_0cf3_69b2,
    0xc81a_c93b_b176_a758,
    0x4a56_b3d7_9c7c_aca4,
    0x344b_cc16_37d3_f5b7,
    0xed3a_93fc_1fc9_63a6,
    0xac3d_45ca_37e3_9ae4,
    0x5625_6562_149a_71e2,
    0x8db6_c0f3_1382_7909,
    0x9913_5dd6_e360_a8b7,
    0x0ede_71b3_713a_7151,
];

#[test]
fn plans_costs_and_counters_match_the_pre_sharing_pin() {
    let (db, queries) = fixture();
    let est = HistogramEstimator::new(&db);
    let model = ExpertCostModel::new(db.clone(), OpWeights::postgres_like());
    let scorer = CostScorer::new(&model, &est);
    let mut sums = [0xcbf2_9ce4_8422_2325u64; 12];
    let mut k = 0;
    for_each_cell(&db, &scorer, &queries, |_q, _mode, _width, _eps, out| {
        let cell = &mut sums[k / queries.len()];
        for v in [
            out.plan.canonical_hash(),
            out.cost.to_bits(),
            out.stats.states as u64,
            out.stats.candidates as u64,
        ] {
            *cell = fold(*cell, v);
        }
        k += 1;
    });
    assert_eq!(sums, PINNED, "actual: {sums:#x?}");
}

/// Checksum over `(Plan::canonical_hash, cost bits, candidates,
/// cost_calls)` of [`GreedyLeftDeepPlanner`] on all 137 queries × both
/// modes under the expert scorer, recorded at commit 1f82e3b — when
/// greedy scored each extension with its own `score_join` call.
const GREEDY_PIN: u64 = 0x8940_68f9_d5a5_2d7d;

/// Greedy scores each extension step as one `score_join_batch` call —
/// never `score_join` — and answers bit-for-bit what it answered one
/// candidate at a time.
#[test]
fn greedy_batches_each_step_and_matches_the_per_candidate_pin() {
    let (db, queries) = fixture();
    let est = HistogramEstimator::new(&db);
    let model = ExpertCostModel::new(db.clone(), OpWeights::postgres_like());
    let expert = CostScorer::new(&model, &est);
    let counting = Counting::new(&expert);
    let mut sum = 0xcbf2_9ce4_8422_2325u64;
    for mode in MODES {
        for q in &queries {
            let out = GreedyLeftDeepPlanner::new(&db, &counting, mode).plan(q);
            for v in [
                out.plan.canonical_hash(),
                out.cost.to_bits(),
                out.stats.candidates as u64,
                out.stats.cost_calls as u64,
            ] {
                sum = fold(sum, v);
            }
            let (batches, compositions) = counting.take();
            assert_eq!(
                batches.len(),
                q.num_tables() - 1,
                "{}: one batch a step",
                q.name
            );
            // Each step composes its winner alone, after scoring it.
            assert_eq!(compositions.len(), batches.len(), "{}", q.name);
            for (step, (before, batch)) in compositions.iter().enumerate() {
                assert_eq!((*before, batch.len()), (step + 1, 1), "{}", q.name);
                assert!(batches[step].contains(&batch[0]), "{}", q.name);
            }
        }
    }
    assert_eq!(sum, GREEDY_PIN, "actual {sum:#x}");
    assert_eq!(
        counting.singles.load(Relaxed),
        0,
        "greedy called score_join"
    );
}

/// Under a tight budget (`work=20000,memo=2000`) the DP degrades
/// through beam-8 to greedy. The chain builds its own [`CostScorer`], so
/// each degraded answer is reproduced by the stage that gave it, run
/// over the counting scorer: same plan, same cost bits, no `score_join`.
#[test]
fn fallback_chain_stages_never_call_score_join() {
    let (db, queries) = fixture();
    let est = HistogramEstimator::new(&db);
    let model = ExpertCostModel::new(db.clone(), OpWeights::postgres_like());
    let expert = CostScorer::new(&model, &est);
    let counting = Counting::new(&expert);
    let budget = PlanBudget::parse("work=20000,memo=2000").expect("budget spec");
    let mut by_level = [0usize; 3];
    for mode in MODES {
        for q in &queries {
            let chain = DpPlanner::new(&db, &model, &est, mode)
                .with_budget(budget)
                .try_plan(q)
                .expect("the chain always answers a connected query");
            by_level[chain.stats.degraded_levels] += 1;
            let stage = match chain.stats.degraded_levels {
                0 => continue,
                1 => BeamPlanner::new(&db, &counting, mode, FALLBACK_BEAM_WIDTH)
                    .with_budget(budget)
                    .try_plan_raw(q),
                _ => GreedyLeftDeepPlanner::new(&db, &counting, mode).try_plan(q),
            }
            .expect("the stage that answered in the chain answers alone");
            assert_eq!(
                chain.plan.fingerprint(),
                stage.plan.fingerprint(),
                "{} {mode:?}",
                q.name
            );
            assert_eq!(
                chain.cost.to_bits(),
                stage.cost.to_bits(),
                "{} {mode:?}",
                q.name
            );
        }
    }
    assert!(
        by_level[1] > 0 && by_level[2] > 0,
        "chain depths reached: {by_level:?}"
    );
    assert_eq!(
        counting.singles.load(Relaxed),
        0,
        "a chain stage called score_join"
    );
}
