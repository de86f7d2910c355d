//! # balsa-query
//!
//! Query intermediate representation, physical plan IR, and workload
//! generators for the balsa-rs reproduction of *Balsa: Learning a Query
//! Optimizer Without Expert Demonstrations* (SIGMOD 2022).
//!
//! * [`ir`] — select-project-join query blocks over a
//!   [`balsa_storage::Catalog`]: aliased table references, equi-join
//!   edges, and base-table filter predicates. Queries expose their join
//!   graph through [`ir::TableMask`] bitmask operations, which the DP
//!   enumerator, beam search, and executor all share.
//! * [`plan`] — physical plan trees: scans (sequential / index) and binary
//!   joins (hash / merge / nested-loop), with structural fingerprints used
//!   by the plan cache, exploration visit counts, and experience buffers.
//! * [`workloads`] — template-based generators reproducing the paper's
//!   JOB workloads (§8.1): a 113-query JOB-like workload over mini-IMDb
//!   with the paper's random and slow-template train/test splits, and a
//!   24-query out-of-distribution Ext-JOB-like workload.

pub mod ir;
pub mod plan;
pub mod verify;
pub mod workloads;

pub use ir::{CmpOp, Filter, JoinEdge, Predicate, Query, QueryId, QueryTable, TableMask};
pub use plan::{JoinOp, Plan, PlanShape, ScanOp, TreeTensor};
pub use verify::{verify_plan, VerifyError};
pub use workloads::{Split, Workload};
