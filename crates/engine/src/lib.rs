//! # balsa-engine
//!
//! The execution environment for balsa-rs — the "real engine" role in the
//! paper's architecture (Fig 1). The paper executes plans on PostgreSQL
//! 12.5 and a commercial DBMS; this crate substitutes a deterministic
//! simulated engine that preserves the property all of Balsa's machinery
//! targets: *plan latency is driven by true cardinalities and physical
//! operator choice, and disastrous plans really are orders of magnitude
//! slower*.
//!
//! How it works:
//!
//! 1. [`TrueCards`] **actually executes** the query's joins over the
//!    synthetic data (vectorized hash joins over row-id tuples) to obtain
//!    the *true* cardinality of every table subset, memoizing both
//!    cardinalities and recently-used intermediates.
//! 2. [`ExecutionEnv`] charges the *requested* physical operators the
//!    analytic work formulas of [`balsa_cost::physical`], evaluated on
//!    those true cardinalities, and converts work to seconds with
//!    per-engine calibration constants plus deterministic log-normal
//!    noise. Because results are computed once via hash joins while cost
//!    is charged for the requested operator, "executing" a disastrous
//!    nested-loop plan is instant for us yet reports the catastrophic
//!    latency the learner must experience.
//! 3. [`EngineProfile`] models the two engines of §8.1: `PostgresSim`
//!    (bushy plan hints allowed) and `CommDbSim` (different operator
//!    economics; only left-deep hints accepted, mirroring §8.2's ~1000x
//!    smaller hint space).
//! 4. Timeouts (§4.3) and the plan cache (§7) are first-class:
//!    [`ExecutionEnv::execute`] early-terminates plans whose latency
//!    exceeds the budget and reuses cached runtimes for reissued plans.
//! 5. [`SimClock`] accounts simulated wall-clock time (execution under a
//!    parallelism factor, planning, and model-update time), providing the
//!    x-axes of the paper's learning-curve figures (Figs 7, 8).
//! 6. [`faults`] injects deterministic chaos — transient errors, engine
//!    crashes, latency spikes, hangs — from a pinned stream keyed on
//!    `(query, plan, attempt)`, and [`ExecutionEnv`] exposes retryable
//!    vs. fatal failures ([`ExecError`]) plus a bounded-retry entry
//!    point so the learning loop can be hardened against all of them
//!    without losing bit-reproducibility.

#![forbid(unsafe_code)]

pub mod env;
pub mod exec;
pub mod faults;
pub mod profile;
pub mod sim_clock;
pub mod truecard;

pub use env::{
    EnvError, EnvSnapshot, ExecError, ExecOutcome, ExecutionEnv, RetryReport, SubtreeObs,
};
pub use faults::{
    ExhaustedPolicy, FaultConfig, FaultInjector, FaultKind, ResilienceStats, RetryPolicy,
};
pub use profile::EngineProfile;
pub use sim_clock::SimClock;
pub use truecard::{query_key, TrueCards};
