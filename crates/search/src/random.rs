//! Uniformly random valid plans — the exploration / sanity baseline.
//!
//! The paper's central qualitative claim is that the plan space is
//! dominated by disasters ("random plans are orders of magnitude
//! slower"); this sampler is how the tests and benchmarks draw from
//! that distribution. Moves come from the shared [`CandidateSpace`], so
//! a random plan is always *valid* (connected joins only, mode-legal
//! shape) but its join order and operators are arbitrary.

use crate::candidates::CandidateSpace;
use crate::{PlanError, SearchMode};
use balsa_query::{JoinOp, Plan, Query, TableMask};
use balsa_storage::Database;
use rand::rngs::SmallRng;
use rand::RngExt;
use std::sync::Arc;

/// Samples one uniformly random valid plan for `query`.
///
/// # Panics
/// Panics on a disconnected join graph; adversarial callers use
/// [`try_random_plan`].
pub fn random_plan(
    db: &Database,
    query: &Query,
    mode: SearchMode,
    rng: &mut SmallRng,
) -> Arc<Plan> {
    try_random_plan(db, query, mode, rng).unwrap_or_else(|e| panic!("{e}"))
}

/// Samples one uniformly random valid plan for `query`, or
/// [`PlanError::DisconnectedGraph`] when the sampler gets stuck with no
/// connected pair left to merge.
///
/// In [`SearchMode::Bushy`] the sampler repeatedly merges two random
/// connected trees; in [`SearchMode::LeftDeep`] it grows a single chain
/// from a random starting table (the only shape that cannot get stuck
/// on a connected graph, and the only one the mode admits). On
/// connected queries the RNG stream consumed is identical to what
/// [`random_plan`] always drew — the stuck checks run before any draw.
pub fn try_random_plan(
    db: &Database,
    query: &Query,
    mode: SearchMode,
    rng: &mut SmallRng,
) -> Result<Arc<Plan>, PlanError> {
    let space = CandidateSpace::new(db, query, mode);
    let n = query.num_tables();
    let disconnected = || PlanError::DisconnectedGraph {
        query: query.name.clone(),
    };
    if n == 0 {
        return Err(disconnected());
    }
    let random_scan = |qt: usize, rng: &mut SmallRng| {
        let scans = space.scan_plans(qt);
        scans[rng.random_range(0..scans.len())].clone()
    };
    let random_op = |rng: &mut SmallRng| JoinOp::ALL[rng.random_range(0..JoinOp::ALL.len())];

    match mode {
        SearchMode::Bushy => {
            let mut trees: Vec<Arc<Plan>> = (0..n).map(|qt| random_scan(qt, rng)).collect();
            while trees.len() > 1 {
                let mut pairs = Vec::new();
                for i in 0..trees.len() {
                    for j in 0..trees.len() {
                        if i != j && space.allows_join(&trees[i], &trees[j]) {
                            pairs.push((i, j));
                        }
                    }
                }
                if pairs.is_empty() {
                    return Err(disconnected());
                }
                let (i, j) = pairs[rng.random_range(0..pairs.len())];
                let joined = Plan::join(random_op(rng), trees[i].clone(), trees[j].clone());
                let (hi, lo) = (i.max(j), i.min(j));
                trees.swap_remove(hi);
                trees.swap_remove(lo);
                trees.push(joined);
            }
            Ok(trees.pop().expect("one tree remains"))
        }
        SearchMode::LeftDeep => {
            let start = rng.random_range(0..n);
            let mut plan = random_scan(start, rng);
            let mut remaining: Vec<usize> = (0..n).filter(|&t| t != start).collect();
            while !remaining.is_empty() {
                let joinable: Vec<usize> = remaining
                    .iter()
                    .copied()
                    .filter(|&t| query.connected(plan.mask(), TableMask::single(t)))
                    .collect();
                if joinable.is_empty() {
                    return Err(disconnected());
                }
                let t = joinable[rng.random_range(0..joinable.len())];
                remaining.retain(|&x| x != t);
                plan = Plan::join(random_op(rng), plan, random_scan(t, rng));
            }
            Ok(plan)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use balsa_query::workloads::job_workload;
    use balsa_storage::{mini_imdb, DataGenConfig};
    use rand::SeedableRng;

    fn fixture() -> (Database, balsa_query::Workload) {
        let db = mini_imdb(DataGenConfig {
            scale: 0.02,
            ..Default::default()
        });
        let w = job_workload(db.catalog(), 7);
        (db, w)
    }

    #[test]
    fn random_plans_are_valid_and_diverse() {
        let (db, w) = fixture();
        let q = w.queries.iter().find(|q| q.num_tables() >= 5).unwrap();
        let mut rng = SmallRng::seed_from_u64(1);
        let mut fingerprints = std::collections::HashSet::new();
        for _ in 0..20 {
            let p = random_plan(&db, q, SearchMode::Bushy, &mut rng);
            assert_eq!(p.mask(), q.all_mask());
            p.visit(&mut |node| {
                if let Plan::Join { left, right, .. } = node {
                    assert!(q.connected(left.mask(), right.mask()), "cross product");
                }
            });
            fingerprints.insert(p.fingerprint());
        }
        assert!(fingerprints.len() > 5, "sampler is not diverse");
    }

    #[test]
    fn left_deep_random_plans_are_left_deep() {
        let (db, w) = fixture();
        let q = w.queries.iter().find(|q| q.num_tables() >= 5).unwrap();
        let mut rng = SmallRng::seed_from_u64(2);
        for _ in 0..10 {
            let p = random_plan(&db, q, SearchMode::LeftDeep, &mut rng);
            assert!(p.is_left_deep());
            assert_eq!(p.mask(), q.all_mask());
        }
    }

    #[test]
    fn sampler_is_deterministic_given_seed() {
        let (db, w) = fixture();
        let q = &w.queries[0];
        let p1 = random_plan(&db, q, SearchMode::Bushy, &mut SmallRng::seed_from_u64(9));
        let p2 = random_plan(&db, q, SearchMode::Bushy, &mut SmallRng::seed_from_u64(9));
        assert_eq!(p1.fingerprint(), p2.fingerprint());
    }
}
