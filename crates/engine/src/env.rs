//! The execution environment: plans in, latencies out.
//!
//! [`ExecutionEnv::execute`] is the single entry point the learning loop
//! (and today, the planners' evaluation harness) uses to "run" a plan:
//!
//! 1. the plan is validated against the engine's hint space
//!    ([`EngineProfile::bushy_hints`]) and the query's join graph;
//! 2. the **plan cache** (§7 of the paper) is consulted by structural
//!    [`Plan::fingerprint`] — a reissued plan returns its recorded
//!    latency without re-execution and without advancing the clock;
//! 3. otherwise the plan's work is charged via
//!    [`balsa_cost::physical_cost`] evaluated on **true** cardinalities
//!    ([`TrueCards`]), converted to seconds with the profile's
//!    calibration constants plus deterministic log-normal noise;
//! 4. **timeouts** (§4.3) early-terminate: when the latency exceeds the
//!    caller's budget, the outcome reports `timed_out` and only the
//!    budget's worth of simulated time elapses.
//!
//! All simulated time flows into an internal [`SimClock`], providing the
//! x-axis of the paper's learning-curve figures.

use crate::faults::{
    ExhaustedPolicy, FaultConfig, FaultInjector, FaultKind, ResilienceStats, RetryPolicy,
};
use crate::profile::EngineProfile;
use crate::sim_clock::SimClock;
use crate::truecard::{query_key, TrueCards};
use balsa_cost::{join_cost, physical_cost, scan_cost, SubtreeCost};
use balsa_query::{splitmix64, Plan, Query};
use balsa_storage::Database;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

/// Why the environment refused to execute a plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EnvError {
    /// The engine only accepts left-deep hints (CommDbSim, §8.2) and the
    /// plan is bushy.
    BushyHintRejected,
    /// The plan does not cover exactly the query's tables, or joins
    /// disconnected inputs (cross products are outside the search space).
    InvalidPlan(String),
}

impl std::fmt::Display for EnvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EnvError::BushyHintRejected => {
                write!(f, "engine accepts only left-deep plan hints")
            }
            EnvError::InvalidPlan(why) => write!(f, "invalid plan: {why}"),
        }
    }
}

impl std::error::Error for EnvError {}

/// Why an execution failed — the taxonomy callers dispatch recovery on.
///
/// [`ExecError::Env`] failures are **fatal**: the plan itself is
/// unexecutable (wrong table cover, cross product, rejected hint shape)
/// and will fail identically on every retry. [`ExecError::Fault`]
/// failures are **retryable**: an injected engine fault (transient
/// error, crash, watchdog-killed hang) killed this *attempt*, and the
/// same plan may well succeed on the next one — faults are drawn per
/// `(query, plan, attempt)`, exactly like real engine flakiness.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecError {
    /// The environment refused the plan — fatal, never retry.
    Env(EnvError),
    /// An injected fault killed this attempt — retryable.
    Fault {
        /// Which fault class struck.
        kind: FaultKind,
        /// Wall seconds the plan provably ran before being killed — an
        /// honest lower bound on its latency, usable as a §4.3-style
        /// censoring point when retries are exhausted.
        ran_secs: f64,
        /// Extra non-execution wall wasted (engine restart after a
        /// crash); part of the honest makespan but *not* evidence
        /// about the plan's latency.
        overhead_secs: f64,
    },
}

impl ExecError {
    /// Whether retrying the same execution can possibly succeed.
    #[cfg(test)]
    fn is_retryable(&self) -> bool {
        matches!(self, ExecError::Fault { .. })
    }

    /// Total wall seconds this failed attempt wasted.
    pub fn wasted_secs(&self) -> f64 {
        match self {
            ExecError::Env(_) => 0.0,
            ExecError::Fault {
                ran_secs,
                overhead_secs,
                ..
            } => ran_secs + overhead_secs,
        }
    }
}

impl From<EnvError> for ExecError {
    fn from(e: EnvError) -> Self {
        ExecError::Env(e)
    }
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::Env(e) => write!(f, "{e}"),
            ExecError::Fault {
                kind,
                ran_secs,
                overhead_secs,
            } => write!(
                f,
                "injected {kind:?} after {ran_secs:.3}s (+{overhead_secs:.3}s overhead)"
            ),
        }
    }
}

impl std::error::Error for ExecError {}

/// Result of one (possibly cached or timed-out) plan execution.
#[derive(Debug, Clone, Copy)]
pub struct ExecOutcome {
    /// Observed latency in seconds. On timeout this equals the budget
    /// (the execution was killed there).
    pub latency_secs: f64,
    /// Abstract work the plan was charged (true-cardinality physical
    /// cost), independent of noise and timeout.
    pub work: f64,
    /// Whether the execution hit the caller's timeout budget.
    pub timed_out: bool,
    /// Whether the latency came from the plan cache (no time elapsed).
    pub from_cache: bool,
    /// The injected fault this outcome absorbed without failing, if any
    /// (a latency spike, or a hang converted into a budget timeout).
    /// Always `None` when fault injection is off.
    pub fault: Option<FaultKind>,
}

/// A recorded execution in the plan cache.
#[derive(Debug, Clone, Copy)]
struct CachedRun {
    latency_secs: f64,
    work: f64,
}

/// One subtree's observed latency from a labeled execution
/// ([`ExecutionEnv::execute_labeled`]) — the per-subplan experience the
/// learning loop records (§3.2's data augmentation over "each subplan
/// T' of T", with §4.3 timeout censoring).
#[derive(Debug, Clone)]
pub struct SubtreeObs {
    /// The subplan this observation labels.
    pub plan: Arc<Plan>,
    /// Observed subtree latency in seconds. When `censored`, this is the
    /// timeout budget — a *lower bound* on the true latency, because the
    /// execution was killed before the subtree finished.
    pub latency_secs: f64,
    /// Whether the label is a timeout-censored lower bound.
    pub censored: bool,
}

/// What a retried execution ([`ExecutionEnv::execute_labeled_retry_uncharged`])
/// reports back: the surviving outcome (if any), the resilience
/// counters, and the honest wall-clock to charge.
#[derive(Debug, Clone)]
pub struct RetryReport {
    /// The labeled outcome: the first successful attempt's, or the
    /// synthesized censored outcome of an exhausted-but-censored
    /// execution, or `None` when the sample was dropped.
    pub outcome: Option<(ExecOutcome, Vec<SubtreeObs>)>,
    /// Faults absorbed, retries spent, backoff accrued.
    pub stats: ResilienceStats,
    /// Execution wall seconds this query's slot occupied (wasted
    /// attempts + the final attempt; cache hits cost nothing), to be
    /// charged into the batch makespan. Backoff wall is separate, in
    /// [`ResilienceStats::backoff_secs_charged`].
    pub exec_secs: f64,
    /// Attempts made (1 = first try succeeded).
    pub attempts: u32,
}

/// A restorable snapshot of the environment's mutable state (plan
/// cache, cache counters, simulated clock) — what a training checkpoint
/// must carry so a killed-and-resumed run replays cache hits and
/// elapsed simulated time bit-identically. Cache entries are sorted by
/// key, so the snapshot itself is deterministic regardless of hash-map
/// iteration order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EnvSnapshot {
    /// `(query_key, plan_fingerprint, latency_secs, work)` per cached
    /// completed run, sorted by `(query_key, plan_fingerprint)`.
    pub entries: Vec<(u64, u64, f64, f64)>,
    /// Plan-cache hits so far.
    pub hits: u64,
    /// Plan-cache misses so far.
    pub misses: u64,
    /// Elapsed simulated seconds.
    pub clock_secs: f64,
}

/// The simulated execution environment of one engine.
pub struct ExecutionEnv {
    truth: Arc<TrueCards>,
    profile: EngineProfile,
    cache: Mutex<HashMap<(u64, u64), CachedRun>>,
    clock: Mutex<SimClock>,
    hits: Mutex<u64>,
    misses: Mutex<u64>,
    faults: Option<FaultInjector>,
}

impl ExecutionEnv {
    /// Creates an environment over `db` with the given engine profile and
    /// simulated clock.
    pub fn new(db: Arc<Database>, profile: EngineProfile, clock: SimClock) -> Self {
        Self::with_truth(Arc::new(TrueCards::new(db)), profile, clock)
    }

    /// Creates an environment sharing an existing true-cardinality
    /// oracle. Separate environments (e.g. the training env and the
    /// frozen-clock evaluation env, or per-model benchmark envs) keep
    /// independent plan caches and clocks but share the expensive
    /// materialized-join memo — cardinalities are exact ground truth, so
    /// sharing never changes an observed latency.
    pub fn with_truth(truth: Arc<TrueCards>, profile: EngineProfile, clock: SimClock) -> Self {
        Self {
            truth,
            profile,
            cache: Mutex::new(HashMap::new()),
            clock: Mutex::new(clock),
            hits: Mutex::new(0),
            misses: Mutex::new(0),
            faults: None,
        }
    }

    /// Arms deterministic fault injection on this environment. A
    /// config with every rate zero is equivalent to no injector: not a
    /// single latency, label, or clock charge changes.
    pub fn with_faults(mut self, cfg: FaultConfig) -> Self {
        self.faults = if cfg.is_zero() {
            None
        } else {
            Some(FaultInjector::new(cfg))
        };
        self
    }

    /// The armed fault injector, if chaos is on.
    pub fn fault_injector(&self) -> Option<&FaultInjector> {
        self.faults.as_ref()
    }

    /// PostgresSim with the paper's default clock — the common fixture.
    pub fn postgres_sim(db: Arc<Database>) -> Self {
        Self::new(db, EngineProfile::postgres_sim(), SimClock::paper_default())
    }

    /// CommDbSim with the paper's default clock.
    pub fn commdb_sim(db: Arc<Database>) -> Self {
        Self::new(db, EngineProfile::commdb_sim(), SimClock::paper_default())
    }

    /// The engine profile in use.
    pub fn profile(&self) -> &EngineProfile {
        &self.profile
    }

    /// The true-cardinality oracle (usable as a [`balsa_card::CardEstimator`]).
    pub fn truth(&self) -> &TrueCards {
        &self.truth
    }

    /// A shareable handle to the oracle, for building sibling
    /// environments via [`ExecutionEnv::with_truth`].
    pub fn truth_arc(&self) -> Arc<TrueCards> {
        self.truth.clone()
    }

    /// The database being executed against.
    pub fn db(&self) -> &Arc<Database> {
        self.truth.db()
    }

    /// Elapsed simulated seconds on the environment's clock.
    pub fn elapsed_secs(&self) -> f64 {
        self.clock.lock().seconds()
    }

    /// Charges planning time to the clock (measured, in seconds).
    pub fn charge_planning(&self, secs: f64) {
        self.clock.lock().charge_planning(secs);
    }

    /// Charges a batch of per-query planning times run on `workers`
    /// parallel planner threads — the wall-clock a parallel planning
    /// phase actually occupies, not the serial sum (see
    /// [`SimClock::charge_planning_parallel`]).
    pub fn charge_planning_parallel(&self, secs: &[f64], workers: usize) {
        self.clock.lock().charge_planning_parallel(secs, workers);
    }

    /// Charges `steps` SGD steps of model updating to the clock.
    pub fn charge_update(&self, steps: u64) {
        self.clock.lock().charge_update(steps);
    }

    /// `(cache hits, cache misses)` of the plan cache so far.
    pub fn cache_stats(&self) -> (u64, u64) {
        (*self.hits.lock(), *self.misses.lock())
    }

    /// Charges raw wall seconds (e.g. retry backoff) to the clock.
    pub fn charge_raw(&self, secs: f64) {
        self.clock.lock().charge_raw(secs);
    }

    /// Captures the environment's mutable state for a checkpoint.
    pub fn snapshot(&self) -> EnvSnapshot {
        let mut entries: Vec<(u64, u64, f64, f64)> = self
            .cache
            .lock()
            .iter()
            .map(|(&(qk, fp), run)| (qk, fp, run.latency_secs, run.work))
            .collect();
        entries.sort_by_key(|a| (a.0, a.1));
        EnvSnapshot {
            entries,
            hits: *self.hits.lock(),
            misses: *self.misses.lock(),
            clock_secs: self.clock.lock().seconds(),
        }
    }

    /// Restores a [`snapshot`] into this (fresh) environment: the plan
    /// cache, its counters, and the simulated clock all resume exactly
    /// where the snapshot was taken.
    ///
    /// [`snapshot`]: ExecutionEnv::snapshot
    pub fn restore(&self, snap: &EnvSnapshot) {
        let mut cache = self.cache.lock();
        cache.clear();
        for &(qk, fp, latency_secs, work) in &snap.entries {
            cache.insert((qk, fp), CachedRun { latency_secs, work });
        }
        drop(cache);
        *self.hits.lock() = snap.hits;
        *self.misses.lock() = snap.misses;
        let mut clock = self.clock.lock();
        let delta = snap.clock_secs - clock.seconds();
        clock.charge_raw(delta);
    }

    /// Whether the engine's hint space accepts this plan shape.
    pub fn accepts(&self, plan: &Plan) -> bool {
        self.profile.bushy_hints || plan.is_left_deep()
    }

    /// Validates that `plan` is an executable join tree for `query`:
    /// covers exactly the query's tables, joins only connected inputs,
    /// and fits the engine's hint space.
    pub fn validate(&self, query: &Query, plan: &Plan) -> Result<(), EnvError> {
        if plan.mask() != query.all_mask() {
            return Err(EnvError::InvalidPlan(format!(
                "plan covers mask {:b}, query needs {:b}",
                plan.mask().0,
                query.all_mask().0
            )));
        }
        let mut disconnected = None;
        plan.visit(&mut |node| {
            if let Plan::Join { left, right, .. } = node {
                if disconnected.is_none() && !query.connected(left.mask(), right.mask()) {
                    disconnected = Some((left.mask(), right.mask()));
                }
            }
        });
        if let Some((l, r)) = disconnected {
            return Err(EnvError::InvalidPlan(format!(
                "cross product between masks {:b} and {:b}",
                l.0, r.0
            )));
        }
        if !self.accepts(plan) {
            return Err(EnvError::BushyHintRejected);
        }
        Ok(())
    }

    /// Executes `plan` for `query` with an optional timeout budget in
    /// seconds, returning the observed outcome.
    ///
    /// Timing model: `latency = startup + work · time_per_work · noise`,
    /// where `work` is [`balsa_cost::physical_cost`] on true
    /// cardinalities and `noise` is a deterministic mean-one log-normal
    /// keyed by (query, plan fingerprint). Cache hits return the recorded
    /// latency and charge no simulated time; fresh executions charge
    /// `min(latency, budget)` to the clock.
    pub fn execute(
        &self,
        query: &Query,
        plan: &Plan,
        timeout_secs: Option<f64>,
    ) -> Result<ExecOutcome, ExecError> {
        self.charged(self.execute_uncharged(query, plan, timeout_secs))
    }

    /// Charges what one attempt cost to the clock: early termination
    /// means only the budget's worth of time elapses, a cache hit costs
    /// nothing, and a faulted attempt still wasted real wall.
    fn charged(&self, result: Result<ExecOutcome, ExecError>) -> Result<ExecOutcome, ExecError> {
        let secs = match &result {
            Ok(outcome) if outcome.from_cache => 0.0,
            Ok(outcome) => outcome.latency_secs,
            Err(e) => e.wasted_secs(),
        };
        if secs > 0.0 {
            self.clock.lock().charge_executions(&[secs]);
        }
        result
    }

    /// [`ExecutionEnv::execute`] without the clock charge — the building
    /// block for running a batch of executions on worker threads and
    /// then charging the batch's *parallel makespan* in one
    /// [`ExecutionEnv::charge_execution_batch`] call, the way
    /// `charge_planning_parallel` accounts a parallel planning phase.
    /// The caller must charge every non-cached outcome's
    /// `latency_secs`; cache hits cost no simulated time, as in
    /// `execute`.
    pub fn execute_uncharged(
        &self,
        query: &Query,
        plan: &Plan,
        timeout_secs: Option<f64>,
    ) -> Result<ExecOutcome, ExecError> {
        self.validate(query, plan)?;
        self.attempt(query, plan, None, timeout_secs, 0)
    }

    /// One execution attempt of an already-validated plan — the one way
    /// a plan runs: plan cache, timing model, fault draw, timeout.
    /// `work` is the plan's true-cardinality work when the caller has
    /// already walked the plan (labeled runs); otherwise a cache miss
    /// costs it here. `attempt` is the fault-injection key's third
    /// component: 0 is the first try; retries pass 1, 2, … so each
    /// attempt draws an independent (but pinned) fault. With no
    /// injector armed it is inert.
    fn attempt(
        &self,
        query: &Query,
        plan: &Plan,
        work: Option<f64>,
        timeout_secs: Option<f64>,
        attempt: u32,
    ) -> Result<ExecOutcome, ExecError> {
        let key = (query_key(query), plan.fingerprint());

        // Cache hits replay a recorded completed run: no engine work is
        // re-done, so no fault can strike the replay.
        if let Some(run) = self.cache.lock().get(&key).copied() {
            *self.hits.lock() += 1;
            return Ok(self.outcome_of(run, timeout_secs, true));
        }

        let work = work.unwrap_or_else(|| {
            physical_cost(
                self.truth.db(),
                query,
                plan,
                &*self.truth,
                &self.profile.weights,
                None,
            )
        });
        let noise = self.noise_factor((key.0, latency_hash(plan)));
        let latency_secs = self.profile.startup_secs + work * self.profile.time_per_work * noise;
        let run = CachedRun { latency_secs, work };
        *self.misses.lock() += 1;

        if let Some(inj) = &self.faults {
            if let Some(kind) = inj.draw(key.0, latency_hash(plan), attempt) {
                let draw_key = (key.0, latency_hash(plan), attempt);
                return self.apply_fault(inj, kind, draw_key, run, timeout_secs);
            }
        }

        let outcome = self.outcome_of(run, timeout_secs, false);
        // A killed execution only observes that latency exceeded the
        // budget — caching the full latency would let a tiny-budget probe
        // read it for free on reissue. Only completed runs are recorded.
        if !outcome.timed_out {
            self.cache.lock().insert(key, run);
        }
        Ok(outcome)
    }

    /// Resolves an injected fault into its observable effect. Nothing a
    /// fault touches is ever cached: spiked latencies and killed runs
    /// are one-off observations, and the clean latency was never seen.
    fn apply_fault(
        &self,
        inj: &FaultInjector,
        kind: FaultKind,
        draw_key: (u64, u64, u32),
        run: CachedRun,
        timeout_secs: Option<f64>,
    ) -> Result<ExecOutcome, ExecError> {
        let (qk, plan_hash, attempt) = draw_key;
        match kind {
            FaultKind::LatencySpike(factor) => {
                // The run completes, just slower; the spiked latency is
                // subject to the normal timeout policy.
                let spiked = CachedRun {
                    latency_secs: run.latency_secs * factor,
                    work: run.work,
                };
                let mut outcome = self.outcome_of(spiked, timeout_secs, false);
                outcome.fault = Some(kind);
                Ok(outcome)
            }
            FaultKind::Hang => match timeout_secs {
                // The run stops progressing; the budget's watchdog
                // kills it there — a guaranteed timeout.
                Some(b) => Ok(ExecOutcome {
                    latency_secs: b,
                    work: run.work,
                    timed_out: true,
                    from_cache: false,
                    fault: Some(kind),
                }),
                // No budget: the watchdog only fires after the full
                // latency has been wasted, and reports a kill.
                None => Err(ExecError::Fault {
                    kind,
                    ran_secs: run.latency_secs,
                    overhead_secs: 0.0,
                }),
            },
            FaultKind::Transient | FaultKind::Crash => {
                // The engine died partway through the (budget-capped)
                // run, at a pinned keyed fraction.
                let cap = timeout_secs.map_or(run.latency_secs, |b| run.latency_secs.min(b));
                let ran_secs = inj.abort_fraction(qk, plan_hash, attempt) * cap;
                let overhead_secs = if matches!(kind, FaultKind::Crash) {
                    inj.config().crash_restart_secs
                } else {
                    0.0
                };
                Err(ExecError::Fault {
                    kind,
                    ran_secs,
                    overhead_secs,
                })
            }
        }
    }

    /// Charges a batch of execution latencies gathered from
    /// [`ExecutionEnv::execute_uncharged`] runs as one parallel phase:
    /// the engine's intra-query parallelism spreads the total work, but
    /// the phase can never finish before its longest run (see
    /// [`SimClock::charge_executions`]).
    pub fn charge_execution_batch(&self, latencies: &[f64]) {
        self.clock.lock().charge_executions(latencies);
    }

    /// Executes `plan` like [`ExecutionEnv::execute`] and additionally
    /// returns one labeled observation per subtree (post-order, root
    /// last) — the engine-side feedback of the learning loop.
    ///
    /// Each subtree is charged the same timing model as the whole plan
    /// (its true-cardinality work, the profile's calibration, and the
    /// run's noise factor), so the root observation equals the plan's
    /// uncensored latency. When the run times out at budget `b`, every
    /// subtree whose latency exceeds `b` is reported as `latency = b`
    /// with `censored = true` — a lower bound, exactly what the killed
    /// execution observed. Labels are deterministic and cost no extra
    /// simulated time beyond what `execute` charges.
    pub fn execute_labeled(
        &self,
        query: &Query,
        plan: &Arc<Plan>,
        timeout_secs: Option<f64>,
    ) -> Result<(ExecOutcome, Vec<SubtreeObs>), ExecError> {
        self.validate(query, plan)?;
        let mut works = Vec::new();
        let work = self.subtree_works(query, plan, &mut works).work;
        let outcome = self.charged(self.attempt(query, plan, Some(work), timeout_secs, 0))?;
        Ok((
            outcome,
            self.labels_for(query, plan, works, timeout_secs, &outcome),
        ))
    }

    /// Labels an outcome's subtrees, honoring whatever fault the
    /// outcome absorbed. A latency spike scales every observed subtree
    /// time by the spike factor (the engine really ran that slowly). A
    /// hang loses all intermediate instrumentation — the only honest
    /// observation is that the *root* failed to finish within the
    /// budget, so a hang yields exactly one label: the root, censored
    /// at the budget. Claiming uncensored completions for subtrees
    /// whose true completion the hang may have preceded would fabricate
    /// evidence.
    fn labels_for(
        &self,
        query: &Query,
        plan: &Arc<Plan>,
        works: Vec<(Arc<Plan>, f64)>,
        timeout_secs: Option<f64>,
        outcome: &ExecOutcome,
    ) -> Vec<SubtreeObs> {
        let factor = match outcome.fault {
            Some(FaultKind::Hang) => {
                return vec![SubtreeObs {
                    plan: plan.clone(),
                    latency_secs: outcome.latency_secs,
                    censored: true,
                }]
            }
            Some(FaultKind::LatencySpike(f)) => f,
            _ => 1.0,
        };
        self.subtree_labels(query, plan, works, timeout_secs, factor)
    }

    /// Executes with bounded retry under `policy`, labeling the final
    /// outcome — the chaos-hardened entry point `train_loop` uses for
    /// fine-tuning executions. Uncharged like
    /// [`ExecutionEnv::execute_uncharged`]: the caller charges
    /// [`RetryReport::exec_secs`] into its batch makespan and
    /// [`ResilienceStats::backoff_secs_charged`] as raw wall.
    ///
    /// Semantics per attempt:
    /// * success (including absorbed spikes/hangs and ordinary
    ///   timeouts) → done, labels as usual;
    /// * fatal [`ExecError::Env`] → returned immediately, nothing
    ///   retried;
    /// * retryable [`ExecError::Fault`] → wasted wall accumulates into
    ///   `exec_secs`, pinned-jitter backoff accumulates into the stats,
    ///   and the next attempt draws its own fault.
    ///
    /// When every attempt faults, the exhausted policy decides:
    /// [`ExhaustedPolicy::Censor`] synthesizes a timeout-censored
    /// outcome at the last attempt's kill point — the plan provably ran
    /// that long without completing, a valid §4.3 lower bound. Note the
    /// censoring wall is the *observed kill time*, **not** the caller's
    /// budget: when the true latency is below the budget, censoring at
    /// the budget would assert a lower bound the run never evidenced.
    /// Subtrees are labeled against the kill wall like an ordinary
    /// timeout (a transient/crash run progresses normally until it
    /// dies, so completions before the kill are real observations).
    /// [`ExhaustedPolicy::Drop`] returns no outcome and counts the
    /// sample as abandoned.
    ///
    /// With no injector armed this is [`ExecutionEnv::execute_labeled`]
    /// minus the clock charge, bit for bit. The plan is walked once
    /// however many attempts run.
    pub fn execute_labeled_retry_uncharged(
        &self,
        query: &Query,
        plan: &Arc<Plan>,
        timeout_secs: Option<f64>,
        policy: &RetryPolicy,
    ) -> Result<RetryReport, ExecError> {
        let mut stats = ResilienceStats::default();
        let mut exec_secs = 0.0;
        let mut last_ran = 0.0;
        let mut last_kind = FaultKind::Transient;
        let max_attempts = policy.max_attempts.max(1);
        self.validate(query, plan)?;
        let mut works = Vec::new();
        let work = self.subtree_works(query, plan, &mut works).work;
        for attempt in 0..max_attempts {
            match self.attempt(query, plan, Some(work), timeout_secs, attempt) {
                Ok(outcome) => {
                    if let Some(kind) = outcome.fault {
                        stats.count_fault(kind);
                    }
                    if !outcome.from_cache {
                        exec_secs += outcome.latency_secs;
                    }
                    let labels = self.labels_for(query, plan, works, timeout_secs, &outcome);
                    return Ok(RetryReport {
                        outcome: Some((outcome, labels)),
                        stats,
                        exec_secs,
                        attempts: attempt + 1,
                    });
                }
                Err(e @ ExecError::Env(_)) => return Err(e),
                Err(ExecError::Fault {
                    kind,
                    ran_secs,
                    overhead_secs,
                }) => {
                    stats.count_fault(kind);
                    exec_secs += ran_secs + overhead_secs;
                    last_ran = ran_secs;
                    last_kind = kind;
                    if attempt + 1 < max_attempts {
                        stats.retries += 1;
                        stats.backoff_secs_charged +=
                            policy.backoff_secs(query_key(query), attempt);
                    }
                }
            }
        }
        // Every attempt faulted.
        let outcome = match policy.exhausted {
            ExhaustedPolicy::Censor => {
                stats.exhausted_censored += 1;
                // The last attempt provably ran `last_ran` seconds
                // without completing: an honest censoring point.
                let synthetic = ExecOutcome {
                    latency_secs: last_ran,
                    work,
                    timed_out: true,
                    from_cache: false,
                    fault: Some(last_kind),
                };
                let labels = self.subtree_labels(query, plan, works, Some(last_ran), 1.0);
                Some((synthetic, labels))
            }
            ExhaustedPolicy::Drop => {
                stats.abandoned += 1;
                None
            }
        };
        Ok(RetryReport {
            outcome,
            stats,
            exec_secs,
            attempts: max_attempts,
        })
    }

    /// One observation per entry of `works` (`plan`'s subtrees,
    /// post-order, root last), timed with the run's noise factor
    /// (scaled by `factor`, 1.0 for a clean run, the spike factor for a
    /// spiked one) and censored at the budget.
    fn subtree_labels(
        &self,
        query: &Query,
        plan: &Plan,
        works: Vec<(Arc<Plan>, f64)>,
        timeout_secs: Option<f64>,
        factor: f64,
    ) -> Vec<SubtreeObs> {
        let noise = self.noise_factor((query_key(query), latency_hash(plan)));
        works
            .into_iter()
            .map(|(sub, work)| {
                let raw = (self.profile.startup_secs + work * self.profile.time_per_work * noise)
                    * factor;
                let censored = timeout_secs.is_some_and(|b| raw > b);
                SubtreeObs {
                    plan: sub,
                    latency_secs: if censored {
                        timeout_secs.expect("censored implies budget")
                    } else {
                        raw
                    },
                    censored,
                }
            })
            .collect()
    }

    /// Total true-cardinality work of every subtree of `plan`, appended
    /// post-order (children first, root last) — the one costing walk of
    /// a labeled run. Built from the same `scan_cost`/`join_cost`
    /// builders as [`balsa_cost::physical_cost`], so the root's work
    /// (returned, and the last entry) equals the work `execute` charges.
    fn subtree_works(
        &self,
        query: &Query,
        plan: &Arc<Plan>,
        out: &mut Vec<(Arc<Plan>, f64)>,
    ) -> SubtreeCost {
        let db = self.truth.db();
        let sc = match &**plan {
            Plan::Scan { qt, op } => scan_cost(
                db,
                query,
                *qt as usize,
                *op,
                &*self.truth,
                &self.profile.weights,
            ),
            Plan::Join {
                op, left, right, ..
            } => {
                let lc = self.subtree_works(query, left, out);
                let rc = self.subtree_works(query, right, out);
                join_cost(
                    db,
                    query,
                    *op,
                    left,
                    &lc,
                    right,
                    &rc,
                    &*self.truth,
                    &self.profile.weights,
                )
            }
        };
        out.push((plan.clone(), sc.work));
        sc
    }

    /// Applies the timeout policy to a (cached or fresh) run.
    fn outcome_of(
        &self,
        run: CachedRun,
        timeout_secs: Option<f64>,
        from_cache: bool,
    ) -> ExecOutcome {
        let timed_out = timeout_secs.is_some_and(|b| run.latency_secs > b);
        ExecOutcome {
            latency_secs: if timed_out {
                timeout_secs.expect("timed_out implies budget")
            } else {
                run.latency_secs
            },
            work: run.work,
            timed_out,
            from_cache,
            fault: None,
        }
    }

    /// Deterministic mean-one log-normal noise for one (query, plan) key.
    ///
    /// The plan half of the key comes from [`latency_hash`], **not**
    /// [`Plan::fingerprint`]: the noise draw is part of the recorded
    /// simulation (benchmark baselines, learning curves), so it is
    /// pinned to a frozen structural encoding. The planner-facing
    /// fingerprint is free to evolve for hot-path reasons (it became
    /// compositional and construction-cached in PR 5) without
    /// re-rolling every simulated latency in the workload.
    fn noise_factor(&self, key: (u64, u64)) -> f64 {
        let sigma = self.profile.noise_sigma;
        if sigma <= 0.0 {
            return 1.0;
        }
        // Two splitmix64 draws -> Box-Muller standard normal.
        let a = splitmix64(key.0 ^ key.1.rotate_left(17));
        let b = splitmix64(a ^ key.1);
        let to_unit = |x: u64| ((x >> 11) as f64 + 0.5) * (1.0 / (1u64 << 53) as f64);
        let (u1, u2) = (to_unit(a), to_unit(b));
        let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        // Subtract σ²/2 so E[noise] = 1.
        (sigma * z - sigma * sigma / 2.0).exp()
    }
}

/// Frozen structural plan hash feeding the latency-noise key
/// ([`Plan::canonical_hash`] — the original fingerprint encoding, never
/// changed), so every recorded simulated latency (benchmark baselines,
/// learning curves, timeout budgets derived from them) survives
/// fingerprint-algorithm evolution. O(plan) per execution call (cache
/// misses in `execute`, every labeled run in `execute_labeled`) — off
/// the planners' per-candidate hot paths.
fn latency_hash(plan: &Plan) -> u64 {
    plan.canonical_hash()
}

#[cfg(test)]
mod tests {
    use super::*;
    use balsa_query::workloads::job_workload;
    use balsa_query::{JoinOp, ScanOp, TableMask};
    use balsa_storage::{mini_imdb, DataGenConfig};

    fn fixture() -> (Arc<Database>, balsa_query::Workload) {
        let db = Arc::new(mini_imdb(DataGenConfig {
            scale: 0.05,
            ..Default::default()
        }));
        let w = job_workload(db.catalog(), 7);
        (db, w)
    }

    /// A simple valid left-deep plan: greedy connected order, hash joins.
    fn left_deep_hash(q: &Query) -> Arc<Plan> {
        let mut plan = Plan::scan(0, ScanOp::Seq);
        let mut remaining: Vec<usize> = (1..q.num_tables()).collect();
        while !remaining.is_empty() {
            let pos = remaining
                .iter()
                .position(|&t| q.connected(plan.mask(), TableMask::single(t)))
                .expect("connected join graph");
            let t = remaining.remove(pos);
            plan = Plan::join(JoinOp::Hash, plan, Plan::scan(t, ScanOp::Seq));
        }
        plan
    }

    /// Censoring boundary property, across the workload: a budget
    /// *exactly* equal to the true latency completes (censoring is
    /// strictly `latency > budget`), and a budget one ulp below
    /// censors at the budget — with bit-identical verdicts and
    /// latencies on the uncached and cached paths. Guards the replay
    /// path from drifting off the fresh path at the boundary, where a
    /// `>=` vs `>` mismatch would flip labels between cache states.
    #[test]
    fn budget_at_exact_latency_is_consistent_across_cache_paths() {
        let (db, w) = fixture();
        for q in w.queries.iter().take(12) {
            let plan = left_deep_hash(q);
            let l = ExecutionEnv::postgres_sim(db.clone())
                .execute(q, &plan, None)
                .unwrap()
                .latency_secs;

            // budget == L, uncached: completes at exactly L.
            let env = ExecutionEnv::postgres_sim(db.clone());
            let (out, labels) = env.execute_labeled(q, &plan, Some(l)).unwrap();
            assert!(!out.from_cache && !out.timed_out, "{}", q.name);
            assert_eq!(out.latency_secs.to_bits(), l.to_bits());
            let root = |ls: &[SubtreeObs]| {
                ls.iter()
                    .find(|s| s.plan.fingerprint() == plan.fingerprint())
                    .expect("root labeled")
                    .clone()
            };
            assert!(
                !root(&labels).censored,
                "{}: root censored at budget==L",
                q.name
            );

            // budget == L, cached replay: identical verdict and bits.
            let (hit, labels2) = env.execute_labeled(q, &plan, Some(l)).unwrap();
            assert!(hit.from_cache && !hit.timed_out, "{}", q.name);
            assert_eq!(hit.latency_secs.to_bits(), l.to_bits());
            assert!(!root(&labels2).censored);
            assert_eq!(
                root(&labels).latency_secs.to_bits(),
                root(&labels2).latency_secs.to_bits()
            );

            // One ulp below L: both paths censor at the budget.
            let below = f64::from_bits(l.to_bits() - 1);
            let fresh = ExecutionEnv::postgres_sim(db.clone());
            let (cut, cut_labels) = fresh.execute_labeled(q, &plan, Some(below)).unwrap();
            assert!(!cut.from_cache && cut.timed_out, "{}", q.name);
            assert_eq!(cut.latency_secs.to_bits(), below.to_bits());
            assert!(root(&cut_labels).censored);
            // Killed runs are never cached; seed the cache with the
            // completed run, then replay under the same sub-L budget.
            fresh.execute(q, &plan, None).unwrap();
            let (cut2, cut2_labels) = fresh.execute_labeled(q, &plan, Some(below)).unwrap();
            assert!(cut2.from_cache && cut2.timed_out, "{}", q.name);
            assert_eq!(cut2.latency_secs.to_bits(), below.to_bits());
            assert!(root(&cut2_labels).censored);
            assert_eq!(
                root(&cut_labels).latency_secs.to_bits(),
                root(&cut2_labels).latency_secs.to_bits()
            );
        }
    }

    #[test]
    fn execute_returns_finite_positive_latency() {
        let (db, w) = fixture();
        let env = ExecutionEnv::postgres_sim(db);
        let q = &w.queries[0];
        let out = env.execute(q, &left_deep_hash(q), None).unwrap();
        assert!(out.latency_secs.is_finite() && out.latency_secs > 0.0);
        assert!(out.work > 0.0);
        assert!(!out.timed_out && !out.from_cache);
        assert!(env.elapsed_secs() >= out.latency_secs * 0.99);
    }

    #[test]
    fn reissued_fingerprint_hits_cache_and_charges_no_time() {
        let (db, w) = fixture();
        let env = ExecutionEnv::postgres_sim(db);
        let q = &w.queries[0];
        let p = left_deep_hash(q);
        let first = env.execute(q, &p, None).unwrap();
        let elapsed = env.elapsed_secs();
        // Structurally identical plan, fresh allocation: same fingerprint.
        let again = env.execute(q, &left_deep_hash(q), None).unwrap();
        assert!(again.from_cache);
        assert_eq!(again.latency_secs, first.latency_secs);
        assert_eq!(
            env.elapsed_secs(),
            elapsed,
            "cache hit must not advance clock"
        );
        assert_eq!(env.cache_stats(), (1, 1));
    }

    #[test]
    fn over_budget_plan_early_terminates() {
        let (db, w) = fixture();
        let env = ExecutionEnv::postgres_sim(db.clone());
        let q = &w.queries[0];
        let p = left_deep_hash(q);
        let full = env.execute(q, &p, None).unwrap();
        let budget = full.latency_secs / 2.0;
        // Fresh env so the run is not cached.
        let env2 = ExecutionEnv::postgres_sim(db);
        let cut = env2.execute(q, &p, Some(budget)).unwrap();
        assert!(cut.timed_out);
        assert_eq!(cut.latency_secs, budget);
        // Only the budget's worth of time elapsed.
        assert!((env2.elapsed_secs() - budget).abs() < 1e-9);
    }

    #[test]
    fn timed_out_run_is_not_cached() {
        let (db, w) = fixture();
        let env = ExecutionEnv::postgres_sim(db.clone());
        let q = &w.queries[0];
        let p = left_deep_hash(q);
        let full = ExecutionEnv::postgres_sim(db).execute(q, &p, None).unwrap();
        let budget = full.latency_secs / 2.0;
        let cut = env.execute(q, &p, Some(budget)).unwrap();
        assert!(cut.timed_out);
        // The killed run observed nothing beyond the budget: a reissue
        // must re-execute (cache miss) and pay the full latency.
        let redo = env.execute(q, &p, None).unwrap();
        assert!(!redo.from_cache);
        assert_eq!(redo.latency_secs, full.latency_secs);
        assert_eq!(env.cache_stats(), (0, 2));
        assert!((env.elapsed_secs() - (budget + full.latency_secs)).abs() < 1e-9);
    }

    #[test]
    fn generous_budget_does_not_time_out() {
        let (db, w) = fixture();
        let env = ExecutionEnv::postgres_sim(db);
        let q = &w.queries[0];
        let out = env.execute(q, &left_deep_hash(q), Some(1e12)).unwrap();
        assert!(!out.timed_out);
    }

    #[test]
    fn commdb_hint_space_is_left_deep_only() {
        let (db, w) = fixture();
        let env = ExecutionEnv::commdb_sim(db);
        let q = w
            .queries
            .iter()
            .find(|q| q.num_tables() >= 4)
            .expect("JOB-like has 4+ table queries");
        let ld = left_deep_hash(q);
        assert!(env.accepts(&ld));
        // Rotate the top join to make the plan bushy (right subtree is a
        // join), if the graph allows the orientation; the shape test is
        // structural so connectivity does not matter for accepts().
        if let Plan::Join {
            op, left, right, ..
        } = &*ld
        {
            let bushy = Plan::join(*op, right.clone(), left.clone());
            if !bushy.is_left_deep() {
                assert!(!env.accepts(&bushy));
                assert_eq!(
                    env.validate(q, &bushy).unwrap_err(),
                    EnvError::BushyHintRejected
                );
                assert_eq!(
                    env.execute(q, &bushy, None).unwrap_err(),
                    ExecError::Env(EnvError::BushyHintRejected)
                );
            }
        }
    }

    #[test]
    fn invalid_plans_are_rejected() {
        let (db, w) = fixture();
        let env = ExecutionEnv::postgres_sim(db);
        let q = &w.queries[0];
        // Covers only one table.
        let partial = Plan::scan(0, ScanOp::Seq);
        let err = env.execute(q, &partial, None).unwrap_err();
        assert!(matches!(err, ExecError::Env(EnvError::InvalidPlan(_))));
        assert!(!err.is_retryable(), "invalid plans are fatal, not flaky");
    }

    #[test]
    fn labeled_execution_covers_all_subtrees_and_root_matches() {
        let (db, w) = fixture();
        let env = ExecutionEnv::postgres_sim(db);
        let q = &w.queries[0];
        let p = left_deep_hash(q);
        let (out, labels) = env.execute_labeled(q, &p, None).unwrap();
        assert_eq!(labels.len(), p.subplans().len());
        // Post-order: root last, and its label equals the observed latency.
        let root = labels.last().unwrap();
        assert_eq!(root.plan.fingerprint(), p.fingerprint());
        assert!((root.latency_secs - out.latency_secs).abs() < 1e-12);
        assert!(labels.iter().all(|l| !l.censored));
        // Subtree latencies are monotone under containment: every label
        // is at most the root's (work only grows up the tree).
        for l in &labels {
            assert!(l.latency_secs <= root.latency_secs + 1e-12);
            assert!(l.latency_secs > 0.0);
        }
    }

    #[test]
    fn labeled_timeout_censors_expensive_subtrees() {
        let (db, w) = fixture();
        let q = &w.queries[0];
        let p = left_deep_hash(q);
        let full = ExecutionEnv::postgres_sim(db.clone())
            .execute(q, &p, None)
            .unwrap();
        let budget = full.latency_secs * 0.6;
        let env = ExecutionEnv::postgres_sim(db);
        let (out, labels) = env.execute_labeled(q, &p, Some(budget)).unwrap();
        assert!(out.timed_out);
        let root = labels.last().unwrap();
        assert!(root.censored, "root must be censored on timeout");
        assert_eq!(root.latency_secs, budget);
        // Censored labels sit exactly at the budget; uncensored ones below.
        for l in &labels {
            if l.censored {
                assert_eq!(l.latency_secs, budget);
            } else {
                assert!(l.latency_secs <= budget);
            }
        }
        // Cheap subtrees (single scans) finished within the budget.
        assert!(labels.iter().any(|l| !l.censored));
    }

    /// Satellite: the timeout boundary is pinned. A budget **exactly
    /// equal** to the true latency does not censor (`timed_out` uses a
    /// strict `latency > budget`), and the cached path — which
    /// re-derives the outcome from the recorded run — agrees with the
    /// uncached path bit-for-bit at and around the boundary.
    #[test]
    fn budget_equal_to_latency_is_consistent_on_cached_and_uncached_paths() {
        let (db, w) = fixture();
        for q in w.queries.iter().take(5) {
            let p = left_deep_hash(q);
            let full = ExecutionEnv::postgres_sim(db.clone())
                .execute(q, &p, None)
                .unwrap();
            let exact = full.latency_secs;

            // Uncached path, budget exactly the latency: completes.
            let env = ExecutionEnv::postgres_sim(db.clone());
            let at = env.execute(q, &p, Some(exact)).unwrap();
            assert!(!at.timed_out, "budget == latency must not censor");
            assert_eq!(at.latency_secs, exact);
            assert!(!at.from_cache);

            // Completed run is cached; the cached re-derivation at the
            // same boundary must agree exactly.
            let cached_at = env.execute(q, &p, Some(exact)).unwrap();
            assert!(cached_at.from_cache);
            assert!(!cached_at.timed_out);
            assert_eq!(cached_at.latency_secs, exact);

            // One ULP below the latency censors — on both paths.
            let below = f64::from_bits(exact.to_bits() - 1);
            let cached_below = env.execute(q, &p, Some(below)).unwrap();
            assert!(cached_below.from_cache && cached_below.timed_out);
            assert_eq!(cached_below.latency_secs, below);
            let fresh_below = ExecutionEnv::postgres_sim(db.clone())
                .execute(q, &p, Some(below))
                .unwrap();
            assert!(!fresh_below.from_cache && fresh_below.timed_out);
            assert_eq!(fresh_below.latency_secs, below);
        }
    }

    fn chaos_cfg(seed: u64) -> FaultConfig {
        FaultConfig {
            seed,
            transient: 0.15,
            crash: 0.1,
            spike: 0.1,
            hang: 0.1,
            ..FaultConfig::default()
        }
    }

    /// Executes every fixture query on a fresh env with the given fault
    /// config, collecting a signature of each result.
    fn run_all(db: &Arc<Database>, w: &balsa_query::Workload, cfg: FaultConfig) -> Vec<String> {
        let env = ExecutionEnv::postgres_sim(db.clone()).with_faults(cfg);
        w.queries
            .iter()
            .map(|q| {
                let p = left_deep_hash(q);
                match env.execute(q, &p, Some(1.0)) {
                    Ok(o) => format!(
                        "ok {} {} {:?}",
                        o.latency_secs.to_bits(),
                        o.timed_out,
                        o.fault
                    ),
                    Err(e) => format!("err {e}"),
                }
            })
            .collect()
    }

    #[test]
    fn zero_fault_config_is_bit_identical_to_no_injector() {
        let (db, w) = fixture();
        let clean = run_all(&db, &w, FaultConfig::default());
        let env = ExecutionEnv::postgres_sim(db.clone());
        let reference: Vec<String> = w
            .queries
            .iter()
            .map(|q| {
                let p = left_deep_hash(q);
                let o = env.execute(q, &p, Some(1.0)).unwrap();
                format!(
                    "ok {} {} {:?}",
                    o.latency_secs.to_bits(),
                    o.timed_out,
                    o.fault
                )
            })
            .collect();
        assert_eq!(clean, reference);
    }

    #[test]
    fn chaos_is_reproducible_and_seed_sensitive() {
        let (db, w) = fixture();
        let a = run_all(&db, &w, chaos_cfg(7));
        let b = run_all(&db, &w, chaos_cfg(7));
        assert_eq!(a, b, "same chaos seed must reproduce bit-for-bit");
        let c = run_all(&db, &w, chaos_cfg(8));
        assert_ne!(a, c, "different chaos seed must differ somewhere");
        // With these rates over the whole workload, chaos actually bit.
        assert!(
            a.iter().any(|s| s.starts_with("err") || s.contains("Some")),
            "chaos config injected nothing: {a:?}"
        );
    }

    #[test]
    fn hang_with_budget_is_guaranteed_timeout_and_uncached() {
        let (db, w) = fixture();
        let cfg = FaultConfig {
            seed: 1,
            hang: 1.0,
            ..FaultConfig::default()
        };
        let env = ExecutionEnv::postgres_sim(db).with_faults(cfg);
        let q = &w.queries[0];
        let p = left_deep_hash(q);
        let out = env.execute(q, &p, Some(1e12)).unwrap();
        assert!(out.timed_out && out.fault == Some(FaultKind::Hang));
        assert_eq!(out.latency_secs, 1e12);
        // Nothing was cached: a re-execution draws a fresh hang, not a
        // cached replay.
        assert_eq!(env.cache_stats(), (0, 1));
        // Without a budget the watchdog reports a retryable kill after
        // the full latency.
        let err = env.execute(q, &p, None).unwrap_err();
        assert!(err.is_retryable());
        assert!(matches!(
            err,
            ExecError::Fault {
                kind: FaultKind::Hang,
                ..
            }
        ));
    }

    #[test]
    fn spike_scales_latency_and_labels_consistently() {
        let (db, w) = fixture();
        let q = &w.queries[0];
        let p = left_deep_hash(q);
        let clean = ExecutionEnv::postgres_sim(db.clone())
            .execute(q, &p, None)
            .unwrap();
        let cfg = FaultConfig {
            seed: 1,
            spike: 1.0,
            spike_factor: 3.0,
            ..FaultConfig::default()
        };
        let env = ExecutionEnv::postgres_sim(db).with_faults(cfg);
        let (out, labels) = env.execute_labeled(q, &p, None).unwrap();
        assert_eq!(out.fault, Some(FaultKind::LatencySpike(3.0)));
        assert!((out.latency_secs - clean.latency_secs * 3.0).abs() < 1e-12);
        let root = labels.last().unwrap();
        assert!(
            (root.latency_secs - out.latency_secs).abs() < 1e-9,
            "spiked root label must match the spiked outcome"
        );
        // The spiked observation was not cached as truth.
        assert_eq!(env.cache_stats().0, 0);
    }

    #[test]
    fn transient_and_crash_report_honest_wasted_wall() {
        let (db, w) = fixture();
        let q = &w.queries[0];
        let p = left_deep_hash(q);
        let clean = ExecutionEnv::postgres_sim(db.clone())
            .execute(q, &p, None)
            .unwrap();
        for (cfg, expect_overhead) in [
            (
                FaultConfig {
                    seed: 2,
                    transient: 1.0,
                    ..FaultConfig::default()
                },
                false,
            ),
            (
                FaultConfig {
                    seed: 2,
                    crash: 1.0,
                    crash_restart_secs: 0.25,
                    ..FaultConfig::default()
                },
                true,
            ),
        ] {
            let env = ExecutionEnv::postgres_sim(db.clone()).with_faults(cfg);
            let err = env.execute(q, &p, None).unwrap_err();
            let ExecError::Fault {
                ran_secs,
                overhead_secs,
                ..
            } = err
            else {
                panic!("expected fault, got {err:?}");
            };
            assert!(ran_secs > 0.0 && ran_secs < clean.latency_secs);
            assert_eq!(overhead_secs, if expect_overhead { 0.25 } else { 0.0 });
            // The wasted wall was charged to the clock.
            assert!((env.elapsed_secs() - (ran_secs + overhead_secs)).abs() < 1e-12);
        }
    }

    #[test]
    fn retry_recovers_from_transients_within_attempt_budget() {
        let (db, w) = fixture();
        // transient=0.5: over many (query, attempt) draws some first
        // attempts fault and some retries clear.
        let cfg = FaultConfig {
            seed: 5,
            transient: 0.5,
            ..FaultConfig::default()
        };
        let env = ExecutionEnv::postgres_sim(db.clone()).with_faults(cfg);
        let policy = RetryPolicy {
            max_attempts: 6,
            ..RetryPolicy::default()
        };
        let mut recovered = 0;
        for q in &w.queries {
            let p = left_deep_hash(q);
            let report = env
                .execute_labeled_retry_uncharged(q, &p, None, &policy)
                .unwrap();
            let (outcome, labels) = report.outcome.expect("censor policy keeps every sample");
            assert!(!labels.is_empty());
            if report.stats.exhausted_censored == 1 {
                // All six attempts faulted — the sample survives as a
                // censored lower bound, checked in detail elsewhere.
                assert!(outcome.timed_out);
                continue;
            }
            if report.attempts > 1 {
                recovered += 1;
                assert!(report.stats.retries >= 1);
                assert!(report.stats.backoff_secs_charged > 0.0);
                assert!(
                    report.exec_secs > outcome.latency_secs,
                    "wasted attempts must add wall"
                );
            }
            // The surviving outcome is the clean latency — faults never
            // corrupt a successful attempt's observation.
            let clean = ExecutionEnv::postgres_sim(db.clone())
                .execute(q, &p, None)
                .unwrap();
            assert_eq!(outcome.latency_secs, clean.latency_secs);
        }
        assert!(recovered > 0, "no query needed a retry — rates too low");
    }

    #[test]
    fn exhausted_retries_censor_at_kill_point_or_drop() {
        let (db, w) = fixture();
        let cfg = FaultConfig {
            seed: 3,
            transient: 1.0,
            ..FaultConfig::default()
        };
        let env = ExecutionEnv::postgres_sim(db.clone()).with_faults(cfg);
        let q = &w.queries[0];
        let p = left_deep_hash(q);
        let clean = ExecutionEnv::postgres_sim(db.clone())
            .execute(q, &p, None)
            .unwrap();

        let censor = RetryPolicy {
            max_attempts: 3,
            exhausted: ExhaustedPolicy::Censor,
            ..RetryPolicy::default()
        };
        let report = env
            .execute_labeled_retry_uncharged(q, &p, None, &censor)
            .unwrap();
        assert_eq!(report.attempts, 3);
        assert_eq!(report.stats.faults_injected, 3);
        assert_eq!(report.stats.retries, 2);
        assert_eq!(report.stats.exhausted_censored, 1);
        let (outcome, labels) = report.outcome.expect("censor policy keeps the sample");
        assert!(outcome.timed_out, "exhausted sample is timeout-censored");
        // Censored at the observed kill wall — an honest lower bound,
        // strictly below the true latency (never at an unevidenced
        // budget).
        assert!(outcome.latency_secs > 0.0 && outcome.latency_secs < clean.latency_secs);
        let root = labels.last().unwrap();
        assert!(root.censored);
        assert_eq!(root.latency_secs, outcome.latency_secs);

        let drop_policy = RetryPolicy {
            max_attempts: 3,
            exhausted: ExhaustedPolicy::Drop,
            ..RetryPolicy::default()
        };
        let report = env
            .execute_labeled_retry_uncharged(q, &p, None, &drop_policy)
            .unwrap();
        assert!(report.outcome.is_none());
        assert_eq!(report.stats.abandoned, 1);
        assert!(report.exec_secs > 0.0, "dropped attempts still cost wall");
    }

    #[test]
    fn retry_without_injector_matches_plain_labeled_execution() {
        let (db, w) = fixture();
        let q = &w.queries[0];
        let p = left_deep_hash(q);
        let env_a = ExecutionEnv::postgres_sim(db.clone());
        let env_b = ExecutionEnv::postgres_sim(db);
        let (plain, plain_labels) = env_a.execute_labeled(q, &p, Some(1.0)).unwrap();
        let report = env_b
            .execute_labeled_retry_uncharged(q, &p, Some(1.0), &RetryPolicy::default())
            .unwrap();
        let (retried, retry_labels) = report.outcome.unwrap();
        assert_eq!(plain.latency_secs.to_bits(), retried.latency_secs.to_bits());
        assert_eq!(plain.timed_out, retried.timed_out);
        assert_eq!(report.attempts, 1);
        assert_eq!(report.stats, ResilienceStats::default());
        assert_eq!(
            report.exec_secs.to_bits(),
            if retried.from_cache {
                0f64.to_bits()
            } else {
                retried.latency_secs.to_bits()
            }
        );
        assert_eq!(plain_labels.len(), retry_labels.len());
        for (a, b) in plain_labels.iter().zip(&retry_labels) {
            assert_eq!(a.latency_secs.to_bits(), b.latency_secs.to_bits());
            assert_eq!(a.censored, b.censored);
        }
    }

    #[test]
    fn snapshot_restore_roundtrips_cache_counters_and_clock() {
        let (db, w) = fixture();
        let env = ExecutionEnv::postgres_sim(db.clone());
        for q in w.queries.iter().take(4) {
            let p = left_deep_hash(q);
            env.execute(q, &p, None).unwrap();
            env.execute(q, &p, None).unwrap(); // cache hit
        }
        env.charge_raw(1.5);
        let snap = env.snapshot();
        assert_eq!(snap.entries.len(), 4);
        assert_eq!((snap.hits, snap.misses), (4, 4));

        let fresh = ExecutionEnv::postgres_sim(db);
        fresh.restore(&snap);
        assert_eq!(fresh.snapshot(), snap, "restore must round-trip exactly");
        assert_eq!(fresh.elapsed_secs().to_bits(), env.elapsed_secs().to_bits());
        // Restored cache serves hits: re-executing a snapshotted plan
        // charges no time and returns the recorded latency.
        let q = &w.queries[0];
        let p = left_deep_hash(q);
        let before = fresh.elapsed_secs();
        let out = fresh.execute(q, &p, None).unwrap();
        assert!(out.from_cache);
        assert_eq!(fresh.elapsed_secs(), before);
    }

    #[test]
    fn latency_is_deterministic_across_envs() {
        let (db, w) = fixture();
        let q = &w.queries[0];
        let p = left_deep_hash(q);
        let l1 = ExecutionEnv::postgres_sim(db.clone())
            .execute(q, &p, None)
            .unwrap()
            .latency_secs;
        let l2 = ExecutionEnv::postgres_sim(db)
            .execute(q, &p, None)
            .unwrap()
            .latency_secs;
        assert_eq!(l1, l2, "same plan+query must time identically across envs");
    }
}
