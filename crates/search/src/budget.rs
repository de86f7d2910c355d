//! Planner resource governance: deterministic plan budgets and the
//! planner error taxonomy.
//!
//! A [`PlanBudget`] bounds a single planning call in two dimensions:
//!
//! * **work** — a deadline in *planner-work units*: candidates examined
//!   plus csg–cmp pairs enumerated. Both counters are functions of the
//!   query alone, and planners check them only at deterministic
//!   boundaries (DP level starts/ends, beam level starts, submask-DP
//!   mask ends) — so whether a budget fires, and where, is
//!   bit-reproducible and independent of wall clock.
//! * **memo** — a cap on live memo entries / Pareto slots (DP memo
//!   slots for connected subsets, Pareto entries per level, beam
//!   states per level).
//!
//! Exhausting a budget is not an error the caller usually sees:
//! planners degrade through a fallback chain (DPccp → width-k beam →
//! [`crate::GreedyLeftDeepPlanner`]), recording each step in
//! [`crate::SearchStats::degraded_levels`]. A [`PlanError`] only
//! escapes when no planner can answer at all (disconnected join
//! graph, a diverged scorer, a query wider than the planner's table
//! sets), or when a caller opts into the raw, chain-free entry points.

use balsa_query::{splitmix64, Query};
use std::fmt;
use std::sync::OnceLock;

/// Beam width used when DPccp exhausts its budget and degrades to beam
/// search (fallback level 1 of the chain).
pub const FALLBACK_BEAM_WIDTH: usize = 8;

/// Why a planning call failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanError {
    /// The query's join graph is not connected: no cross-product-free
    /// plan exists, so no planner (including the greedy floor of the
    /// fallback chain) can answer.
    DisconnectedGraph {
        /// Name of the offending query.
        query: String,
    },
    /// A planning stage ran out of its [`PlanBudget`] at a
    /// deterministic boundary check. Surfaced to callers only from the
    /// raw (chain-free) entry points; [`crate::Planner::try_plan`]
    /// consumes it by degrading to the next stage.
    BudgetExhausted {
        /// Name of the query being planned.
        query: String,
        /// Which stage exhausted: `"dp"`, `"submask-dp"`, or `"beam"`.
        stage: &'static str,
        /// Work units charged when the check fired.
        work: u64,
        /// Live memo/Pareto entries when the check fired.
        memo: usize,
        /// The budget in force.
        budget: PlanBudget,
    },
    /// The scorer returned NaN for a candidate (a diverged value
    /// model), so the beam cannot rank it.
    NonFiniteScore {
        /// Name of the query being planned.
        query: String,
    },
    /// The query has more tables than the planner can represent: every
    /// planner holds table sets in a [`balsa_query::TableMask`] of
    /// [`balsa_query::TableMask::WIDTH`] tables, and
    /// [`crate::SubmaskDpPlanner`] tabulates all `2^n` subsets, which
    /// caps it lower.
    TooManyTables {
        /// Name of the query being planned.
        query: String,
        /// How many tables it references.
        tables: usize,
        /// The most tables the refusing planner takes.
        limit: usize,
    },
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::DisconnectedGraph { query } => {
                write!(f, "no plan for {query}: join graph is disconnected")
            }
            PlanError::BudgetExhausted {
                query,
                stage,
                work,
                memo,
                budget,
            } => write!(
                f,
                "{stage} budget exhausted planning {query}: work {work}/{}, memo {memo}/{}",
                budget.work, budget.memo
            ),
            PlanError::NonFiniteScore { query } => {
                write!(f, "no plan for {query}: the scorer returned NaN")
            }
            PlanError::TooManyTables {
                query,
                tables,
                limit,
            } => write!(
                f,
                "no plan for {query}: {tables} tables, more than this planner's {limit}"
            ),
        }
    }
}

impl std::error::Error for PlanError {}

/// The check every planner entry makes before it touches `query`: a
/// query without tables has no plan
/// ([`PlanError::DisconnectedGraph`]), and one with more than `limit`
/// tables does not fit the planner's table sets
/// ([`PlanError::TooManyTables`]).
pub(crate) fn check_table_count(query: &Query, limit: usize) -> Result<(), PlanError> {
    match query.num_tables() {
        0 => Err(PlanError::DisconnectedGraph {
            query: query.name.clone(),
        }),
        tables if tables > limit => Err(PlanError::TooManyTables {
            query: query.name.clone(),
            tables,
            limit,
        }),
        _ => Ok(()),
    }
}

/// A per-call planning budget. See the module docs for the charging
/// discipline; [`PlanBudget::UNLIMITED`] (the default) never fires and
/// is **bit-identical** to not checking at all — budget checks are pure
/// integer comparisons on counters the planners already keep.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PlanBudget {
    /// Deadline in planner-work units (candidates + pairs).
    pub work: u64,
    /// Cap on live memo entries / Pareto slots.
    pub memo: usize,
}

impl Default for PlanBudget {
    fn default() -> Self {
        PlanBudget::UNLIMITED
    }
}

impl PlanBudget {
    /// No limits; planners behave exactly as if unbudgeted.
    pub const UNLIMITED: PlanBudget = PlanBudget {
        work: u64::MAX,
        memo: usize::MAX,
    };

    /// Whether this budget can never fire.
    pub fn is_unlimited(&self) -> bool {
        *self == PlanBudget::UNLIMITED
    }

    /// Boundary check: errors when the charged counters exceed the
    /// budget. `work`/`memo` must be deterministic counters (see module
    /// docs) so the decision is bit-reproducible.
    pub(crate) fn check(
        &self,
        stage: &'static str,
        query: &Query,
        work: u64,
        memo: usize,
    ) -> Result<(), PlanError> {
        if work > self.work || memo > self.memo {
            Err(PlanError::BudgetExhausted {
                query: query.name.clone(),
                stage,
                work,
                memo,
                budget: *self,
            })
        } else {
            Ok(())
        }
    }

    /// Parses a `work=<u64>,memo=<usize>` spec (either key optional;
    /// empty spec = unlimited). Mirrors `FaultConfig::parse`'s
    /// key=value grammar.
    pub fn parse(spec: &str) -> Result<PlanBudget, String> {
        let mut budget = PlanBudget::UNLIMITED;
        for part in spec.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("expected key=value, got {part:?}"))?;
            let (key, value) = (key.trim(), value.trim());
            match key {
                "work" => {
                    budget.work = value.parse::<u64>().map_err(|_| {
                        format!("work must be a non-negative integer, got {value:?}")
                    })?
                }
                "memo" => {
                    budget.memo = value.parse::<usize>().map_err(|_| {
                        format!("memo must be a non-negative integer, got {value:?}")
                    })?
                }
                other => return Err(format!("unknown budget key {other:?}")),
            }
        }
        Ok(budget)
    }

    /// Order-sensitive digest of the budget, mixed into training-run
    /// fingerprints (a budget changes which plans come out, so resumed
    /// checkpoints must agree on it).
    pub fn fingerprint(&self) -> u64 {
        let h = splitmix64(0xB0D6E7 ^ self.work);
        splitmix64(h ^ self.memo as u64)
    }
}

/// Whether emitted plans should run through the independent verifier
/// (`balsa_query::verify`). Defaults to on under debug assertions;
/// `BALSA_VERIFY_PLANS` overrides either way (`0`/`false`/empty
/// disable, anything else enables). Read once per process.
pub fn verify_plans_enabled() -> bool {
    static ENABLED: OnceLock<bool> = OnceLock::new();
    *ENABLED.get_or_init(|| match std::env::var("BALSA_VERIFY_PLANS") {
        Ok(v) => {
            let t = v.trim();
            !(t.is_empty() || t == "0" || t.eq_ignore_ascii_case("false"))
        }
        Err(_) => cfg!(debug_assertions),
    })
}

/// Runs the independent verifier over a finished plan (when enabled),
/// panicking on rejection — a planner emitting an invalid plan is a
/// bug, never a recoverable condition. The time spent is recorded in
/// `stats.verify_secs` (reporting-only; never feeds back into search).
/// `cost` carries the model cost for planners whose scores are real
/// costs; scorer-driven planners whose scores may legitimately be
/// negative (learned log-latencies) pass `None` and the structural
/// checks still run.
pub(crate) fn verify_emitted(
    planner: &str,
    query: &Query,
    planned: &mut crate::PlannedQuery,
    cost: Option<f64>,
) {
    if !verify_plans_enabled() {
        return;
    }
    let t0 = std::time::Instant::now();
    if let Err(e) = balsa_query::verify::verify_plan(query, &planned.plan, cost) {
        panic!(
            "plan verifier rejected {planner} plan for {}: {e}\n  plan: {}",
            query.name, planned.plan
        );
    }
    planned.stats.verify_secs += t0.elapsed().as_secs_f64();
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Parse table in the style of `fault_spec_parse_table`.
    #[test]
    fn budget_spec_parse_table() {
        let ok: &[(&str, PlanBudget)] = &[
            ("", PlanBudget::UNLIMITED),
            (
                "work=100000",
                PlanBudget {
                    work: 100_000,
                    memo: usize::MAX,
                },
            ),
            (
                "memo=5000",
                PlanBudget {
                    work: u64::MAX,
                    memo: 5000,
                },
            ),
            ("work=1,memo=2", PlanBudget { work: 1, memo: 2 }),
            // Whitespace tolerated, later keys win.
            (" work = 7 , memo = 9 ", PlanBudget { work: 7, memo: 9 }),
            (
                "work=1,work=3",
                PlanBudget {
                    work: 3,
                    memo: usize::MAX,
                },
            ),
            // Zero is meaningful: immediate exhaustion, straight to the
            // fallback chain.
            (
                "work=0",
                PlanBudget {
                    work: 0,
                    memo: usize::MAX,
                },
            ),
        ];
        for (spec, want) in ok {
            assert_eq!(PlanBudget::parse(spec).as_ref(), Ok(want), "spec {spec:?}");
        }
        let bad = [
            "work",           // no value
            "work=",          // empty value
            "work=abc",       // not a number
            "work=-1",        // negative
            "memo=1.5",       // not an integer
            "budget=5",       // unknown key
            "work=1;memo=2",  // wrong separator
            "work=1,memo=-2", // one good key, one bad
        ];
        for spec in bad {
            assert!(
                PlanBudget::parse(spec).is_err(),
                "spec {spec:?} should be rejected"
            );
        }
    }

    #[test]
    fn unlimited_is_default_and_never_fires() {
        assert_eq!(PlanBudget::default(), PlanBudget::UNLIMITED);
        assert!(PlanBudget::UNLIMITED.is_unlimited());
        assert!(!PlanBudget { work: 5, memo: 5 }.is_unlimited());
    }

    #[test]
    fn fingerprint_separates_budgets() {
        let a = PlanBudget { work: 10, memo: 20 };
        let b = PlanBudget { work: 20, memo: 10 };
        assert_ne!(a.fingerprint(), b.fingerprint());
        assert_ne!(a.fingerprint(), PlanBudget::UNLIMITED.fingerprint());
        assert_eq!(
            a.fingerprint(),
            PlanBudget { work: 10, memo: 20 }.fingerprint()
        );
    }
}
