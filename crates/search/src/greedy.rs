//! The always-terminating greedy floor of the planner fallback chain.
//!
//! [`GreedyLeftDeepPlanner`] builds one left-deep join tree by repeated
//! locally-best extension: start from the cheapest base-table scan,
//! then at each of the `n-1` steps try every (adjacent table × scan
//! variant × join operator) extension and keep the best-scored one —
//! one `score_join_values` call per step ranks the extensions and one
//! `score_join_batch` call composes the winner, the protocol the beam
//! follows. Work is O(n²) scored candidates with no memo, no Pareto sets,
//! and no search frontier — it cannot exceed any [`crate::PlanBudget`]
//! worth arming, which is what makes it the guaranteed-terminating
//! last stage after DPccp and beam search have both exhausted their
//! budgets. Like the beam it is generic over [`PlanScorer`], so the
//! expert cost model and the learned value model degrade through the
//! identical code path.
//!
//! Output is always a left-deep tree (a valid member of both search
//! modes' plan spaces); ties break deterministically on enumeration
//! order (lowest table index, then scan order, then operator order),
//! so the planner is bit-reproducible.

use crate::budget::{check_table_count, verify_emitted};
use crate::{CandidateSpace, PlanError, PlannedQuery, Planner, SearchMode, SearchStats};
use balsa_cost::{JoinCandidate, PlanScorer, ScoredTree};
use balsa_query::{Plan, Query, TableMask};
use balsa_storage::Database;
use std::sync::Arc;
use std::time::Instant;

/// Greedy locally-best left-deep planner; see the module docs.
pub struct GreedyLeftDeepPlanner<'a> {
    db: &'a Database,
    scorer: &'a dyn PlanScorer,
    mode: SearchMode,
}

impl<'a> GreedyLeftDeepPlanner<'a> {
    /// Creates a greedy planner scoring through `scorer`.
    pub fn new(db: &'a Database, scorer: &'a dyn PlanScorer, mode: SearchMode) -> Self {
        Self { db, scorer, mode }
    }

    fn plan_impl(&self, query: &Query) -> Result<PlannedQuery, PlanError> {
        let t0 = Instant::now();
        check_table_count(query, TableMask::WIDTH)?;
        let n = query.num_tables();
        if !query.subgraph_connected(query.all_mask()) {
            return Err(PlanError::DisconnectedGraph {
                query: query.name.clone(),
            });
        }
        let space = CandidateSpace::new(self.db, query, self.mode);
        let session = self.scorer.for_query(query);
        let mut stats = SearchStats::default();

        // Best scan per table (strict-< keeps the first minimum, so
        // ties resolve to the generator's scan order).
        let mut best_scans: Vec<(Arc<Plan>, ScoredTree)> = Vec::with_capacity(n);
        for qt in 0..n {
            let scored = space.scored_scan_plans(qt, &*session);
            stats.candidates += scored.len();
            stats.cost_calls += scored.len();
            let best = scored
                .into_iter()
                .reduce(|best, cand| {
                    if cand.1.score < best.1.score {
                        cand
                    } else {
                        best
                    }
                })
                .expect("every table has at least a sequential scan");
            best_scans.push(best);
        }

        // Start from the cheapest scan (lowest table index on ties).
        let start = (0..n)
            .reduce(|best, t| {
                if best_scans[t].1.score < best_scans[best].1.score {
                    t
                } else {
                    best
                }
            })
            .expect("n >= 1");
        let (mut cur_plan, mut cur_tree) = best_scans[start].clone();
        stats.states = 1;

        // n-1 locally-best extensions: each step's (adjacent table ×
        // operator) candidates, held as join nodes by value, are scored
        // as one batch in enumeration order, and only the winner is
        // composed and shared.
        let mut values = Vec::new();
        while cur_plan.mask() != query.all_mask() {
            let mut joins: Vec<(Plan, &ScoredTree)> = Vec::new();
            for (t, (scan, scan_tree)) in best_scans.iter().enumerate() {
                if cur_plan.mask().contains(t) || !space.allows_join(&cur_plan, scan) {
                    continue;
                }
                for &op in space.join_ops() {
                    joins.push((
                        Plan::join_node(op, cur_plan.clone(), scan.clone()),
                        scan_tree,
                    ));
                }
            }
            let cands: Vec<JoinCandidate<'_>> = joins
                .iter()
                .map(|(join, rc)| JoinCandidate {
                    join,
                    lc: &cur_tree,
                    rc,
                })
                .collect();
            values.clear();
            session.score_join_values(&cands, &mut values);
            stats.candidates += values.len();
            stats.cost_calls += values.len();
            // Strict `<` keeps the first minimum: enumeration order
            // breaks ties.
            let best =
                (0..values.len()).reduce(|best, k| if values[k] < values[best] { k } else { best });
            let Some(best) = best else {
                // Unreachable after the up-front connectivity check,
                // but stay honest rather than panicking.
                return Err(PlanError::DisconnectedGraph {
                    query: query.name.clone(),
                });
            };
            let mut composed = Vec::with_capacity(1);
            session.score_join_batch(&cands[best..=best], &mut composed);
            drop(cands);
            cur_tree = composed.pop().expect("one tree per candidate");
            cur_plan = Arc::new(joins.swap_remove(best).0);
            stats.states += 1;
        }

        Ok(PlannedQuery {
            plan: cur_plan,
            cost: cur_tree.score,
            stats,
            planning_secs: t0.elapsed().as_secs_f64(),
        })
    }
}

impl Planner for GreedyLeftDeepPlanner<'_> {
    fn name(&self) -> String {
        let mode = match self.mode {
            SearchMode::Bushy => "bushy",
            SearchMode::LeftDeep => "leftdeep",
        };
        format!("greedy-{mode}/{}", self.scorer.name())
    }

    fn try_plan(&self, query: &Query) -> Result<PlannedQuery, PlanError> {
        let mut planned = self.plan_impl(query)?;
        // Scorer scores may be learned log-latencies (legitimately
        // negative), so only the structural checks run here.
        verify_emitted(&self.name(), query, &mut planned, None);
        Ok(planned)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use balsa_card::HistogramEstimator;
    use balsa_cost::{CostScorer, ExpertCostModel, OpWeights};
    use balsa_query::workloads::job_workload;
    use balsa_query::PlanShape;
    use balsa_storage::{mini_imdb, DataGenConfig};

    fn shape_of(plan: &Plan) -> PlanShape {
        let mut left_deep = true;
        plan.visit(&mut |p| {
            if let Plan::Join { right, .. } = p {
                if !right.is_scan() {
                    left_deep = false;
                }
            }
        });
        if left_deep {
            PlanShape::LeftDeep
        } else {
            PlanShape::Bushy
        }
    }

    #[test]
    fn greedy_plans_are_left_deep_complete_and_deterministic() {
        let db = Arc::new(mini_imdb(DataGenConfig {
            scale: 0.02,
            ..Default::default()
        }));
        let w = job_workload(db.catalog(), 5);
        let model = ExpertCostModel::new(db.clone(), OpWeights::postgres_like());
        let est = HistogramEstimator::new(&db);
        let scorer = CostScorer::new(&model, &est);
        for mode in [SearchMode::Bushy, SearchMode::LeftDeep] {
            let planner = GreedyLeftDeepPlanner::new(&db, &scorer, mode);
            for q in &w.queries {
                let a = planner.try_plan(q).expect("connected query must plan");
                let b = planner.try_plan(q).expect("connected query must plan");
                assert_eq!(a.plan.mask(), q.all_mask(), "{}", q.name);
                assert_eq!(shape_of(&a.plan), PlanShape::LeftDeep, "{}", q.name);
                assert_eq!(a.plan.fingerprint(), b.plan.fingerprint(), "{}", q.name);
                assert_eq!(a.cost.to_bits(), b.cost.to_bits(), "{}", q.name);
                assert!(a.cost.is_finite() && a.cost > 0.0, "{}", q.name);
                assert_eq!(a.stats.degraded_levels, 0);
                // O(n^2) bound: candidates are at most
                // (levels) x (tables x scans x ops).
                let n = q.num_tables();
                assert!(a.stats.candidates <= n * n * 6 + 2 * n, "{}", q.name);
            }
        }
    }
}
