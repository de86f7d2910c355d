//! # balsa-search
//!
//! The planning layer of balsa-rs: search procedures that turn a
//! [`balsa_query::Query`] into a physical [`Plan`], scored through the
//! [`balsa_cost::CostModel`] + [`balsa_card::CardEstimator`] traits.
//!
//! * [`DpPlanner`] — an exhaustive System-R-style dynamic program over
//!   [`balsa_query::TableMask`] subsets (connected-subgraph pairs only;
//!   cross products are outside the search space, §7 of the paper). It
//!   keeps a Pareto set of (cost, output-order) entries per subset, so
//!   interesting orders are handled exactly: on compositional cost models
//!   its chosen plan provably matches brute-force enumeration. Driven by
//!   the expert cost model on estimated cardinalities it is the classical
//!   expert optimizer baseline; on true cardinalities it is the oracle
//!   planner.
//! * [`BeamPlanner`] — width-`k` best-first beam search over the same
//!   candidate-generation core ([`CandidateSpace`]), generic over any
//!   [`balsa_cost::PlanScorer`]: the expert cost model (via
//!   [`balsa_cost::CostScorer`]), the `C_out` simulator, or
//!   `balsa-learn`'s learned value model all drive the identical
//!   inference procedure (§5). Epsilon-greedy exploration
//!   ([`BeamPlanner::with_exploration`]) supplies the §5.2 behavior
//!   policy for the training loop.
//! * [`try_random_plan`] — uniform random valid plans, the simulation-data
//!   and sanity baseline.
//!
//! Both search modes of the paper's two engines are supported:
//! [`SearchMode::Bushy`] (PostgresSim hints) and [`SearchMode::LeftDeep`]
//! (CommDbSim's ~1000x smaller hint space, §8.2).
//!
//! Each planner plans one query on the calling thread. Parallelism is
//! across queries: [`WorkerPool`] maps a planning (or execution) call
//! over a batch of queries on scoped threads, results in input order.
//! [`DpPlanner`] and [`BeamPlanner`] reuse their scratch across queries
//! behind a lock, so `plan` calls on one shared planner take turns;
//! [`WorkerPool::map_init`] gives each participant its own planner.

#![forbid(unsafe_code)]

pub mod beam;
pub mod budget;
pub mod candidates;
pub mod dp;
pub mod enumerate;
pub mod greedy;
pub mod pool;
pub mod random;

pub use beam::BeamPlanner;
pub use budget::{verify_plans_enabled, PlanBudget, PlanError, FALLBACK_BEAM_WIDTH};
pub use candidates::CandidateSpace;
pub use dp::{DpPlanner, FrontierEntry, SubmaskDpPlanner};
pub use enumerate::JoinGraph;
pub use greedy::GreedyLeftDeepPlanner;
pub use pool::WorkerPool;
pub use random::try_random_plan;

use balsa_query::{Plan, Query};
use std::sync::Arc;

/// Which plan shapes the search may produce, mirroring the hint spaces
/// of the two engines (§8.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SearchMode {
    /// Arbitrary binary join trees (PostgresSim).
    Bushy,
    /// Every join's right input is a base table (CommDbSim).
    LeftDeep,
}

/// Search effort counters reported by a planner run.
#[derive(Debug, Clone, Copy, Default)]
pub struct SearchStats {
    /// Distinct states retained. For the DP: Pareto entries
    /// (never-populated memo slots for disconnected subsets do not
    /// count). For the beam: states surviving signature dedup at each
    /// level, *before* width truncation — the size of the state space
    /// the beam actually examined, not just the `k` it kept.
    pub states: usize,
    /// Candidate plans generated. In the DP this counts every
    /// (left, right, operator) combination considered — including
    /// candidates the child-monotone early reject prunes *before* their
    /// costing call — so it measures enumeration volume, not cost-call
    /// volume.
    pub candidates: usize,
    /// Ordered csg–cmp pairs combined by a DP enumerator (0 for beam /
    /// random search).
    pub pairs: usize,
    /// Actual cost-model / scorer invocations: scan summaries plus
    /// every `work_out` / `join_summary` / scored join that really
    /// ran. Unlike `candidates` this **excludes** work that was never
    /// done: in the DP, candidates the child-monotone early reject
    /// pruned before costing; in the beam, candidates dropped as
    /// duplicate states and candidates that shared the score of a join
    /// another state — at this level or earlier in the same call — had
    /// already paid for. So
    /// `candidates - cost_calls` is the costing saved (and, for the
    /// beam, joins scored vs. `states - 1` is the sharing alone). The
    /// beam and the greedy floor count each join scored
    /// (`score_join_values`) once; handing a kept join back to the
    /// scorer to compose its state (`score_join_batch`, at most the beam
    /// width a level, one a greedy step) re-derives a score already
    /// paid for and is not counted.
    pub cost_calls: usize,
    /// Seconds spent enumerating pairs (adjacency build + DPccp walk);
    /// 0 where enumeration and costing interleave unmeasurably.
    pub enumerate_secs: f64,
    /// Seconds spent in the costing/Pareto inner loop.
    pub cost_secs: f64,
    /// Seconds the beam spent scoring candidates (the batched
    /// value-model / cost-model calls). 0 for DP, whose analogous
    /// figure is `cost_secs`.
    pub score_secs: f64,
    /// Seconds the beam spent generating candidates, computing state
    /// signatures, deduplicating against the seen-table, mapping
    /// survivors to join-score slots, and assembling/sorting states.
    /// 0 for DP.
    pub dedup_secs: f64,
    /// How many fallback steps the budget chain took to produce this
    /// plan: 0 = the primary planner answered, 1 = degraded one level
    /// (DP → beam, or beam → greedy), 2 = degraded twice (DP → beam →
    /// greedy). Never silent: any nonzero value means the emitted plan
    /// is *not* the primary planner's answer.
    pub degraded_levels: usize,
    /// Whether any stage of this call hit its [`PlanBudget`] boundary
    /// check (true whenever `degraded_levels > 0`, and also when a raw
    /// chain-free entry point surfaced the exhaustion as an error).
    pub budget_exhausted: bool,
    /// Seconds spent in the independent plan verifier
    /// (`balsa_query::verify`) on the emitted plan; 0.0 when
    /// verification is disabled. Reporting-only — never feeds back
    /// into search decisions.
    pub verify_secs: f64,
}

/// A planner's answer for one query.
#[derive(Debug, Clone)]
pub struct PlannedQuery {
    /// The chosen complete plan.
    pub plan: Arc<Plan>,
    /// Its cost under the planner's cost model.
    pub cost: f64,
    /// Search effort spent.
    pub stats: SearchStats,
    /// Measured wall-clock planning time in seconds (feed this to
    /// `SimClock::charge_planning` / `ExecutionEnv::charge_planning`).
    pub planning_secs: f64,
}

/// A planner maps queries to physical plans.
pub trait Planner {
    /// Planner name for reports, e.g. `"dp-bushy"` or `"beam10-leftdeep"`.
    fn name(&self) -> String;

    /// Plans `query`, degrading through the planner's fallback chain
    /// when a [`PlanBudget`] is armed (recorded in
    /// [`SearchStats::degraded_levels`], never silent). Errors only
    /// when no plan exists at all — a disconnected join graph — or
    /// when even the chain's greedy floor cannot answer.
    fn try_plan(&self, query: &Query) -> Result<PlannedQuery, PlanError>;

    /// Plans `query`, panicking on [`PlanError`].
    ///
    /// The convenience entry point for validated workloads (the
    /// generators only produce connected queries, and budget
    /// exhaustion degrades instead of erroring); callers handling
    /// adversarial input use [`Planner::try_plan`].
    ///
    /// # Panics
    /// Panics if [`Planner::try_plan`] returns an error.
    fn plan(&self, query: &Query) -> PlannedQuery {
        match self.try_plan(query) {
            Ok(p) => p,
            Err(e) => panic!("{}: {e}", self.name()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use balsa_card::{CardEstimator, MemoEstimator};
    use balsa_query::TableMask;

    struct Counting(std::sync::atomic::AtomicUsize);
    impl CardEstimator for Counting {
        fn cardinality(&self, _q: &Query, m: TableMask) -> f64 {
            self.0.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            m.count() as f64
        }
        fn base_rows(&self, _q: &Query, _qt: usize) -> f64 {
            1.0
        }
    }

    #[test]
    fn memo_estimator_caches() {
        let inner = Counting(std::sync::atomic::AtomicUsize::new(0));
        let memo = MemoEstimator::new(&inner);
        let q = Query {
            id: 0,
            name: "q".into(),
            template: 0,
            tables: vec![],
            joins: vec![],
            filters: vec![],
        };
        let m = TableMask(0b11);
        assert_eq!(memo.cardinality(&q, m), 2.0);
        assert_eq!(memo.cardinality(&q, m), 2.0);
        assert_eq!(inner.0.load(std::sync::atomic::Ordering::Relaxed), 1);
    }
}
