//! The estimator abstraction shared by cost models and the engine.

use balsa_query::{Query, TableMask};
use parking_lot::Mutex;
use std::collections::HashMap;

/// A cardinality for one table subset of one query.
pub type SubsetCard = f64;

/// Estimates the number of rows produced by joining the tables in `mask`
/// (with all applicable filters and join predicates applied).
///
/// Implementations:
/// * [`crate::HistogramEstimator`] — PostgreSQL-style estimates.
/// * `balsa_engine::TrueCards` — the ground-truth oracle backed by actual
///   execution.
pub trait CardEstimator: Send + Sync {
    /// Estimated (or true) cardinality of the join of `mask` within `query`.
    ///
    /// `mask` must be non-empty and a subset of `query.all_mask()`.
    /// Results are clamped to be at least `1e-6` so cost models can take
    /// ratios/logs safely.
    fn cardinality(&self, query: &Query, mask: TableMask) -> SubsetCard;

    /// Estimated selectivity of the base-table filters on query-table
    /// `qt`, as a fraction of the table's rows. Used by Balsa's query
    /// featurization (§7: "a vector [table -> selectivity]").
    fn selectivity(&self, query: &Query, qt: usize) -> f64 {
        let single = self.cardinality(query, TableMask::single(qt));
        let base = self.base_rows(query, qt);
        if base <= 0.0 {
            0.0
        } else {
            (single / base).clamp(0.0, 1.0)
        }
    }

    /// Unfiltered row count of query-table `qt`.
    fn base_rows(&self, query: &Query, qt: usize) -> f64;
}

/// A per-query memoizing wrapper around a [`CardEstimator`].
///
/// Planners and scorers ask for the same subset cardinalities thousands
/// of times; this caches them by [`TableMask`]. The cache is keyed by
/// mask only, so one `MemoEstimator` must serve exactly one query.
pub struct MemoEstimator<'a> {
    inner: &'a dyn CardEstimator,
    cards: Mutex<HashMap<u32, f64>>,
}

impl<'a> MemoEstimator<'a> {
    /// Wraps `inner` for use with a single query.
    pub fn new(inner: &'a dyn CardEstimator) -> Self {
        Self {
            inner,
            cards: Mutex::new(HashMap::new()),
        }
    }
}

impl CardEstimator for MemoEstimator<'_> {
    fn cardinality(&self, query: &Query, mask: TableMask) -> f64 {
        if let Some(&c) = self.cards.lock().get(&mask.0) {
            return c;
        }
        let c = self.inner.cardinality(query, mask);
        self.cards.lock().insert(mask.0, c);
        c
    }

    fn base_rows(&self, query: &Query, qt: usize) -> f64 {
        self.inner.base_rows(query, qt)
    }
}
