//! The expert (physical) cost model.
//!
//! Mirrors the execution engine's per-operator work formulas exactly, but
//! is driven by whatever [`CardEstimator`] the caller supplies — normally
//! the histogram estimator, which makes this the classical
//! "sophisticated model × imperfect estimates" expert optimizer
//! architecture. It plays two roles in the reproduction:
//!
//! * the cost model inside the **expert optimizer baselines**
//!   (PostgresSim's and CommDbSim's own optimizers), and
//! * the **"Expert Simulator"** ablation of §8.3.1, where Balsa
//!   bootstraps from it instead of `C_out`.

use crate::physical::{physical_cost, scan_cost, OpWeights, SubtreeCost};
use crate::CostModel;
use balsa_card::CardEstimator;
use balsa_query::{Plan, Query};
use balsa_storage::Database;
use std::sync::Arc;

/// Full physical cost model over an engine's operator weights.
#[derive(Clone)]
pub struct ExpertCostModel {
    db: Arc<Database>,
    weights: OpWeights,
}

impl ExpertCostModel {
    /// Creates the model for a database and operator-weight profile.
    pub fn new(db: Arc<Database>, weights: OpWeights) -> Self {
        Self { db, weights }
    }

    /// The operator weights in use.
    pub fn weights(&self) -> &OpWeights {
        &self.weights
    }
}

impl CostModel for ExpertCostModel {
    fn plan_cost(&self, query: &Query, plan: &Plan, est: &dyn CardEstimator) -> f64 {
        physical_cost(&self.db, query, plan, est, &self.weights, None)
    }

    fn name(&self) -> &'static str {
        "expert"
    }

    fn scan_summary(&self, query: &Query, scan: &Plan, est: &dyn CardEstimator) -> SubtreeCost {
        match scan {
            Plan::Scan { qt, op } => {
                scan_cost(&self.db, query, *qt as usize, *op, est, &self.weights)
            }
            Plan::Join { .. } => SubtreeCost {
                work: self.plan_cost(query, scan, est),
                out_rows: est.cardinality(query, scan.mask()).max(0.0),
                sorted_on: Vec::new(),
            },
        }
    }

    fn pair_coster<'c>(
        &'c self,
        query: &Query,
        lmask: balsa_query::TableMask,
        rmask: balsa_query::TableMask,
        est: &dyn CardEstimator,
    ) -> Option<Box<dyn crate::PairCoster + 'c>> {
        Some(Box::new(crate::physical::JoinPairCost::new(
            &self.db,
            query,
            lmask,
            rmask,
            est,
            self.weights,
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use balsa_card::HistogramEstimator;
    use balsa_query::{JoinEdge, JoinOp, QueryTable, ScanOp};
    use balsa_storage::{mini_imdb, DataGenConfig};

    #[test]
    fn expert_model_is_physical() {
        let db = Arc::new(mini_imdb(DataGenConfig {
            scale: 0.1,
            ..Default::default()
        }));
        let t = db.catalog().table_id("title").unwrap();
        let ci = db.catalog().table_id("cast_info").unwrap();
        let movie_id = db.catalog().table(ci).column_id("movie_id").unwrap();
        let q = Query {
            id: 0,
            name: "q".into(),
            template: 0,
            tables: vec![
                QueryTable {
                    table: t,
                    alias: "t".into(),
                },
                QueryTable {
                    table: ci,
                    alias: "ci".into(),
                },
            ],
            joins: vec![JoinEdge {
                left_qt: 0,
                left_col: 0,
                right_qt: 1,
                right_col: movie_id,
            }],
            filters: vec![],
        };
        let model = ExpertCostModel::new(db.clone(), OpWeights::postgres_like());
        let est = HistogramEstimator::new(&db);
        let hash = Plan::join(
            JoinOp::Hash,
            Plan::scan(0, ScanOp::Seq),
            Plan::scan(1, ScanOp::Seq),
        );
        let nl = Plan::join(
            JoinOp::NestLoop,
            Plan::scan(1, ScanOp::Seq),
            Plan::scan(0, ScanOp::Seq),
        );
        let ch = model.plan_cost(&q, &hash, &est);
        let cn = model.plan_cost(&q, &nl, &est);
        assert!(ch > 0.0);
        // title on the right via its PK is indexed, so this NL is an index
        // NL; both should be reasonable but differ from hash.
        assert_ne!(ch, cn);
        assert_eq!(model.name(), "expert");
    }
}
