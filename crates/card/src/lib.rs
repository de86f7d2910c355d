//! # balsa-card
//!
//! Cardinality estimation for balsa-rs.
//!
//! The paper uses PostgreSQL's estimator — per-column histograms, an
//! independence assumption across predicates and joins, and "magic
//! constants" for complex filters [Leis et al. 2015] — to drive its
//! minimal simulator (§3.3). [`HistogramEstimator`] reimplements that
//! textbook method on top of the statistics collected by
//! `balsa-storage`, and therefore exhibits the same failure mode the
//! paper relies on: orders-of-magnitude errors on correlated predicates.
//!
//! The trait [`CardEstimator`] is also implemented by the execution
//! engine's true-cardinality oracle, so cost models can run on either
//! estimated or true cardinalities.

#![forbid(unsafe_code)]

pub mod estimator;
pub mod histogram;

pub use estimator::{CardEstimator, MemoEstimator, SubsetCard};
pub use histogram::HistogramEstimator;
