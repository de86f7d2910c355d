//! The two-phase training loop (§4–§6).
//!
//! **Phase 1 — simulation pretraining (§4.1).** For every training
//! query, collect plans (the `C_out`-optimal DP plan plus random
//! samples), label *every subplan* with its `C_out` pseudo-latency under
//! the estimator (the minimal simulator needs no execution), and fit the
//! value model. This bootstraps the agent away from disastrous plans
//! without a single real execution and without expert demonstrations.
//!
//! **Phase 2 — real-execution fine-tuning (§4.2–§4.3).** Iterate: plan
//! every training query with the learned-value beam under epsilon-greedy
//! exploration (§5.2), execute on the [`ExecutionEnv`] with a safety
//! timeout relative to the best latency seen for that query, record
//! per-subplan (possibly censored) labels into the
//! [`ExperienceBuffer`], and fine-tune the model on the real population.
//! Planning time, execution time, and SGD steps are all charged to the
//! environment's [`SimClock`], so the trajectory's `sim_hours` is the
//! paper's learning-curve x-axis.
//!
//! **Robustness.** Fine-tuning executions run under a bounded
//! [`RetryPolicy`]: retryable faults (see [`balsa_engine::faults`]) are
//! retried with exponential backoff whose wall is charged to the clock
//! as honest makespan; exhausted retries become timeout-censored labels
//! or dropped samples per the policy. When the recent failure+timeout
//! rate over a sliding window exceeds `fallback_threshold`, the next
//! iteration degrades gracefully to expert DP plans — recorded in the
//! trajectory and [`ResilienceStats`], never silent. With
//! `checkpoint_every > 0` the loop writes an atomic checkpoint each N
//! iterations and `resume_from` restarts mid-run, reproducing the
//! uninterrupted run's remaining iterations bit-for-bit (see
//! [`crate::checkpoint`]). [`try_train_loop`] returns every failure as a
//! [`TrainError`]; [`train_loop`] panics with it.
//!
//! Held-out queries are evaluated each iteration with greedy (ε = 0)
//! inference on a *separate* environment, so evaluation neither warms
//! the training plan cache nor advances the training clock. The
//! training queries' greedy validation plans are kept until the next
//! iteration, whose exploration sweep takes them when its ε is 0.

use crate::buffer::{Experience, ExperienceBuffer, LabelSource, PackedFeatures};
use crate::checkpoint::{BufferEntry, CheckpointData};
use crate::featurize::Featurizer;
use crate::model::{
    FeatureEncoding, FitReport, LinearValueModel, ModelKind, ResidualValueModel, SgdConfig,
    ValueModel,
};
use crate::scorer::LearnedScorer;
use crate::treeconv::{TreeConvConfig, TreeConvValueModel};
use balsa_card::{CardEstimator, HistogramEstimator, MemoEstimator};
use balsa_cost::{CostModel, CoutModel, ExpertCostModel};
use balsa_engine::{
    query_key, ExecError, ExecutionEnv, ResilienceStats, RetryPolicy, SimClock, SubtreeObs,
};
use balsa_query::workloads::Workload;
use balsa_query::{Plan, Query, Split};
use balsa_search::{
    try_random_plan, BeamPlanner, DpPlanner, PlanBudget, PlanError, PlannedQuery, Planner,
    SearchMode, WorkerPool,
};
use balsa_storage::Database;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// Hyperparameters of [`train_loop`].
#[derive(Debug, Clone)]
pub struct TrainConfig {
    /// Which value-model family to train (§6's tree convolution or the
    /// linear baseline).
    pub model: ModelKind,
    /// Plan-shape space (match the engine's hint space).
    pub mode: SearchMode,
    /// Beam width for both training and evaluation inference.
    pub beam_width: usize,
    /// Random plans per training query in simulation pretraining
    /// (besides the `C_out`-optimal DP plan).
    pub sim_random_plans: usize,
    /// Real-execution fine-tuning iterations.
    pub iterations: usize,
    /// Initial epsilon for epsilon-greedy beam exploration during
    /// fine-tuning; decays linearly to 0 across the iterations (§5.2).
    pub epsilon: f64,
    /// Timeout budget as a multiple of the best observed latency per
    /// query (§4.3); the first execution of a query is unbudgeted.
    pub timeout_factor: f64,
    /// SGD settings for the pretraining fit.
    pub pretrain_sgd: SgdConfig,
    /// SGD settings for each fine-tuning fit (fewer epochs: the model
    /// continues from its current parameters).
    pub finetune_sgd: SgdConfig,
    /// Master seed for weight init, shuffling, sampling, exploration.
    pub seed: u64,
    /// Worker threads for the fine-tuning phase's per-query planning
    /// and featurization, and for the per-iteration evaluation sweeps
    /// (1 = serial). Per-query exploration RNGs are seeded by query id
    /// and results merge in split order, so any thread count produces
    /// bit-identical checkpoints; planning wall-clock is charged as the
    /// parallel makespan.
    pub planning_threads: usize,
    /// Worker threads for the fine-tuning phase's plan *executions*
    /// (1 = serial) — first-touch true-cardinality joins materialize
    /// concurrently. Queries within an iteration are distinct and
    /// timeout budgets derive only from prior iterations, so every
    /// observed latency, label, and cache decision is independent of
    /// the thread count; the clock is charged the batch makespan via
    /// [`ExecutionEnv::charge_execution_batch`].
    pub training_threads: usize,
    /// Retry policy for fine-tuning executions. With no fault injector
    /// armed on the env, at most one attempt ever runs and the loop is
    /// bit-identical to a retry-free one.
    pub retry: RetryPolicy,
    /// Resource budget armed on every planner the loop constructs —
    /// pretraining DP, the learned training/evaluation beams, and the
    /// expert-DP fallback. [`PlanBudget::UNLIMITED`] (the default) is
    /// bit-identical to the historical unbudgeted loop; a finite budget
    /// degrades exhausted searches through the fallback chain
    /// (DP → beam → greedy), counted in [`ResilienceStats`].
    pub plan_budget: PlanBudget,
    /// Sliding-window length (iterations) for the graceful-degradation
    /// check.
    pub fallback_window: usize,
    /// When the mean failure+timeout rate over the window exceeds this,
    /// the next iteration plans with expert DP instead of the learned
    /// beam. `f64::INFINITY` (the default) disables fallback.
    pub fallback_threshold: f64,
    /// Write an atomic checkpoint every N fine-tuning iterations
    /// (0 = never). Requires `checkpoint_path`: without one the run is
    /// refused with [`TrainError::NoCheckpointPath`].
    pub checkpoint_every: usize,
    /// Where checkpoints are written.
    pub checkpoint_path: Option<PathBuf>,
    /// Resume from this checkpoint, skipping pretraining and all
    /// completed iterations. A missing file starts a fresh run (first
    /// launch); an unreadable or corrupt file is [`TrainError::Resume`],
    /// one written under another configuration
    /// [`TrainError::ConfigMismatch`] — [`train_loop`] panics with it,
    /// and neither silently trains a different run.
    pub resume_from: Option<PathBuf>,
    /// Test hook: stop right after iteration N's checkpoint is written,
    /// simulating a kill at that boundary. A shortened `iterations`
    /// cannot simulate this because the epsilon decay schedule depends
    /// on the full horizon.
    pub halt_after: Option<usize>,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            model: ModelKind::Linear,
            mode: SearchMode::Bushy,
            beam_width: 20,
            sim_random_plans: 20,
            iterations: 10,
            epsilon: 0.15,
            timeout_factor: 4.0,
            pretrain_sgd: SgdConfig::default(),
            finetune_sgd: SgdConfig {
                epochs: 20,
                lr: 0.02,
                l2: 0.02,
                ..SgdConfig::default()
            },
            seed: 0xBA15A,
            planning_threads: 1,
            training_threads: 1,
            retry: RetryPolicy::default(),
            plan_budget: PlanBudget::UNLIMITED,
            fallback_window: 3,
            fallback_threshold: f64::INFINITY,
            checkpoint_every: 0,
            checkpoint_path: None,
            resume_from: None,
            halt_after: None,
        }
    }
}

/// SplitMix64 finalizer — fingerprint mixing.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

fn mix_str(h: u64, s: &str) -> u64 {
    s.bytes().fold(h, |h, b| mix(h ^ b as u64))
}

impl TrainConfig {
    /// Structural fingerprint of everything that shapes the
    /// deterministic computation: hyperparameters, retry and fallback
    /// policy, and the env's fault configuration. Checkpoints refuse to
    /// resume under a different fingerprint. Thread counts and the
    /// checkpoint/halt plumbing are deliberately excluded — they do not
    /// change any computed bit.
    pub fn fingerprint(&self, env: &ExecutionEnv) -> u64 {
        let mut h = mix(0xBA15A ^ self.seed);
        h = mix_str(h, &format!("{:?}", self.model));
        h = mix_str(h, &format!("{:?}", self.mode));
        for v in [
            self.beam_width as u64,
            self.sim_random_plans as u64,
            self.iterations as u64,
            self.fallback_window as u64,
            self.epsilon.to_bits(),
            self.timeout_factor.to_bits(),
            self.fallback_threshold.to_bits(),
        ] {
            h = mix(h ^ v);
        }
        h = mix_str(h, &format!("{:?}", self.pretrain_sgd));
        h = mix_str(h, &format!("{:?}", self.finetune_sgd));
        h = mix(h ^ self.retry.fingerprint());
        h = mix(h ^ self.plan_budget.fingerprint());
        h = mix(h ^ env.fault_injector().map_or(0, |i| i.config().fingerprint()));
        h
    }
}

/// Why [`try_train_loop`] refused a run or could not finish it.
#[derive(Debug)]
pub enum TrainError {
    /// The split has no training queries.
    EmptySplit,
    /// A split index is past the end of the workload.
    SplitIndex(usize),
    /// `TrainConfig::mode` is bushy, but the named engine accepts only
    /// left-deep plan hints.
    BushyOnLeftDeep(&'static str),
    /// `checkpoint_every > 0` with no `checkpoint_path`.
    NoCheckpointPath,
    /// A hyperparameter outside its domain.
    BadConfig(&'static str),
    /// `resume_from` exists but could not be read or decoded.
    Resume(PathBuf, String),
    /// `resume_from` was written under another
    /// [`TrainConfig::fingerprint`].
    ConfigMismatch(PathBuf),
    /// A checkpointed experience names a query key not in the workload.
    UnknownQuery(u64),
    /// A checkpointed plan does not parse, or does not match its
    /// recorded fingerprint.
    BadPlan(String),
    /// A checkpointed model state does not fit the configured model.
    ModelState(String),
    /// A checkpoint could not be written.
    CheckpointWrite(PathBuf, std::io::Error),
    /// A query the loop must plan (for evaluation, or a random
    /// pretraining plan) has no plan at all.
    Planning(PlanError),
    /// The engine refused a plan the loop made.
    Unexecutable(ExecError),
}

impl fmt::Display for TrainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::EmptySplit => write!(f, "empty training split"),
            Self::SplitIndex(i) => write!(f, "split index {i} is not in the workload"),
            Self::BushyOnLeftDeep(engine) => write!(
                f,
                "unrunnable configuration: {engine} has bushy_hints = false, \
                 TrainConfig::mode = Bushy"
            ),
            Self::NoCheckpointPath => write!(f, "checkpoint_every > 0 needs a checkpoint_path"),
            Self::BadConfig(why) => write!(f, "bad configuration: {why}"),
            Self::Resume(path, e) => write!(f, "resume_from {}: {e}", path.display()),
            Self::ConfigMismatch(path) => write!(
                f,
                "checkpoint {} was written under a different training/fault/retry \
                 configuration; refusing to silently train a different run",
                path.display()
            ),
            Self::UnknownQuery(key) => write!(f, "checkpoint query key {key} not in workload"),
            Self::BadPlan(e) => write!(f, "checkpoint plan {e}"),
            Self::ModelState(e) => write!(f, "checkpoint model state: {e}"),
            Self::CheckpointWrite(path, e) => write!(f, "checkpoint write {}: {e}", path.display()),
            Self::Planning(e) => write!(f, "planning: {e}"),
            Self::Unexecutable(e) => write!(f, "plan must be executable: {e}"),
        }
    }
}

impl std::error::Error for TrainError {}

/// Where the training loop's wall-clock went, per phase. All fields
/// are measured walls for reporting; nothing downstream is keyed on
/// them.
#[derive(Debug, Clone, Copy, Default)]
pub struct TrainBreakdown {
    /// Model-fit forward passes (the batched tree-conv kernels; 0 for
    /// models that do not separate phases).
    pub forward_secs: f64,
    /// Model-fit backprop + parameter updates.
    pub backward_secs: f64,
    /// Subplan featurization (pretraining + fine-tuning), as the
    /// parallel phases' wall-clock.
    pub featurize_secs: f64,
    /// Execution phases' wall-clock — dominated by first-touch
    /// true-cardinality materialization.
    pub truecard_secs: f64,
}

/// One point of the learning trajectory.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IterationStats {
    /// 0 after simulation pretraining, then 1..=iterations.
    pub iteration: usize,
    /// Simulated elapsed hours on the training environment's clock.
    /// Wall-derived (planning charges are measured), so NaN for
    /// iterations replayed from a checkpoint.
    pub sim_hours: f64,
    /// Median latency of the plans executed on the training set this
    /// iteration (NaN for iteration 0, which executes nothing).
    pub train_median_secs: f64,
    /// Median executed latency of greedy inference on the held-out set.
    pub test_median_secs: f64,
    /// Training executions killed by the timeout this iteration
    /// (including exhausted-retry executions recorded as censored).
    pub timeouts: usize,
    /// Real-source experiences in the buffer.
    pub buffer_real: usize,
    /// Simulated-source experiences in the buffer.
    pub buffer_sim: usize,
    /// Training MSE of the last fit.
    pub fit_mse: f64,
    /// Median executed latency of greedy inference on the *training*
    /// workload (held-out queries are never used for selection).
    pub val_median_secs: f64,
    /// Geometric-mean executed latency on the training workload — the
    /// checkpoint-selection signal.
    pub val_geo_mean_secs: f64,
    /// Faults injected into this iteration's executions.
    pub faults: u64,
    /// Retry attempts spent this iteration.
    pub retries: u64,
    /// Samples dropped after exhausting retries this iteration.
    pub abandoned: u64,
    /// Whether this iteration planned with the expert DP fallback
    /// instead of the learned beam.
    pub fallback: bool,
}

/// Result of a [`train_loop`] run.
pub struct TrainOutcome {
    /// The selected value model: the per-iteration checkpoint with the
    /// best validation (training-workload) geometric-mean latency, as
    /// the paper retains the best agent by validation rather than the
    /// last one.
    pub model: Box<dyn ValueModel>,
    /// Per-iteration learning trajectory (first entry is iteration 0,
    /// right after pretraining).
    pub trajectory: Vec<IterationStats>,
    /// The accumulated experience buffer.
    pub buffer: ExperienceBuffer,
    /// Per-phase wall-clock breakdown of the run.
    pub breakdown: TrainBreakdown,
    /// Everything the resilience layer absorbed across the run.
    pub resilience: ResilienceStats,
}

/// Instantiates an untrained model of `kind` sized for `featurizer`.
pub fn make_model(kind: ModelKind, featurizer: &Featurizer) -> Box<dyn ValueModel> {
    match kind {
        ModelKind::Linear => Box::new(LinearValueModel::new(featurizer.dim())),
        ModelKind::TreeConv => Box::new(TreeConvValueModel::new(
            featurizer.node_dim(),
            TreeConvConfig::default(),
        )),
    }
}

/// Geometric mean of a slice of positive latencies (NaN when empty).
/// More sensitive than the median to tail disasters, which makes it the
/// better validation signal for checkpoint selection.
pub fn geo_mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    (xs.iter().map(|&x| x.max(1e-12).ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Median of a slice (NaN when empty). Sorts by [`f64::total_cmp`], so
/// a NaN input yields a value instead of a panic.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

type PlannedOrErr = Result<PlannedQuery, PlanError>;

/// The one evaluation body: plans `idxs` on `pool` (one planner per
/// worker, built by `planner`), then executes every plan uncharged on
/// `eval_env`, returning the latencies and the plans in `idxs` order.
fn eval_latencies<P: Planner>(
    eval_env: &ExecutionEnv,
    workload: &Workload,
    idxs: &[usize],
    pool: &WorkerPool,
    planner: impl Fn() -> P + Sync,
) -> Result<(Vec<f64>, Vec<PlannedQuery>), TrainError> {
    let planned: Vec<PlannedOrErr> =
        pool.map_init(idxs, planner, |p, _, &i| p.try_plan(&workload.queries[i]));
    let planned = planned.into_iter().collect::<Result<Vec<_>, _>>();
    let planned = planned.map_err(TrainError::Planning)?;
    let run = pool.map(&planned, |j, out| {
        eval_env.execute_uncharged(&workload.queries[idxs[j]], &out.plan, None)
    });
    let lats = run
        .into_iter()
        .map(|r| r.map(|o| o.latency_secs).map_err(TrainError::Unexecutable))
        .collect::<Result<_, _>>()?;
    Ok((lats, planned))
}

/// The public evaluators' error: a plan their own planner made that the
/// engine refuses is a planner bug, not an input, and panics.
fn plan_error(e: TrainError) -> PlanError {
    match e {
        TrainError::Planning(e) => e,
        e => panic!("{e}"),
    }
}

/// Executes greedy learned-value inference for `idxs` on `eval_env`,
/// returning the per-query latencies. Planning *and* execution run on
/// `pool` (one planner per worker, results merged in `idxs` order —
/// bit-identical to the serial loop, since greedy inference consumes no
/// randomness, latencies are deterministic per (query, plan), and the
/// indices are distinct so no execution observes another's cache
/// entry). Executions are uncharged: evaluation must not advance any
/// simulated clock.
///
/// A finite `budget` degrades exhausted searches through the fallback
/// chain; the call errors only when some query has no plan at all
/// ([`PlanError::DisconnectedGraph`]) — surfaced, never a panic.
// The argument list is the full evaluation context; a config struct
// would be rebuilt at every call site for no clarity gain.
#[allow(clippy::too_many_arguments)]
pub fn evaluate_learned(
    db: &Arc<Database>,
    eval_env: &ExecutionEnv,
    featurizer: &Featurizer,
    model: &dyn ValueModel,
    est: &dyn CardEstimator,
    workload: &Workload,
    idxs: &[usize],
    mode: SearchMode,
    beam_width: usize,
    budget: PlanBudget,
    pool: &WorkerPool,
) -> Result<Vec<f64>, PlanError> {
    let scorer = LearnedScorer::new(featurizer, model, est);
    eval_latencies(eval_env, workload, idxs, pool, || {
        BeamPlanner::new(db, &scorer, mode, beam_width).with_budget(budget)
    })
    .map(|(lats, _)| lats)
    .map_err(plan_error)
}

/// Executes the expert baseline — DP with the engine's expert cost model
/// on estimated cardinalities — for `idxs` on `pool`, returning
/// latencies (deterministic for any thread count, as in
/// [`evaluate_learned`], and degrading identically under a finite
/// `budget`).
pub fn evaluate_expert_baseline(
    db: &Arc<Database>,
    eval_env: &ExecutionEnv,
    workload: &Workload,
    idxs: &[usize],
    mode: SearchMode,
    budget: PlanBudget,
    pool: &WorkerPool,
) -> Result<Vec<f64>, PlanError> {
    let est = HistogramEstimator::new(db);
    let model = ExpertCostModel::new(db.clone(), eval_env.profile().weights);
    eval_latencies(eval_env, workload, idxs, pool, || {
        DpPlanner::new(db, &model, &est, mode).with_budget(budget)
    })
    .map(|(lats, _)| lats)
    .map_err(plan_error)
}

/// Folds one planner result into `stats`. An error (a query with no
/// plan at all) is counted and reported, and the caller skips the query
/// — surfaced, never silently masked, and never a crash.
fn fold_planned(res: &mut ResilienceStats, p: PlannedOrErr, at: &str) -> Option<PlannedQuery> {
    match p {
        Ok(p) => {
            res.planner_degraded += u64::from(p.stats.degraded_levels > 0);
            res.planner_exhausted += u64::from(p.stats.budget_exhausted);
            Some(p)
        }
        Err(e) => {
            res.planner_errors += 1;
            eprintln!("balsa: {at}: {e}; skipping query");
            None
        }
    }
}

/// Runs simulation pretraining followed by real-execution fine-tuning on
/// `env`, returning the trained model, the learning trajectory, and the
/// experience buffer: [`try_train_loop`], panicking with its
/// [`TrainError`].
pub fn train_loop(
    db: &Arc<Database>,
    env: &ExecutionEnv,
    workload: &Workload,
    split: &Split,
    cfg: &TrainConfig,
) -> TrainOutcome {
    try_train_loop(db, env, workload, split, cfg).unwrap_or_else(|e| panic!("{e}"))
}

/// [`train_loop`], returning every failure as a [`TrainError`]. A
/// configuration that cannot run is refused before any work.
pub fn try_train_loop(
    db: &Arc<Database>,
    env: &ExecutionEnv,
    workload: &Workload,
    split: &Split,
    cfg: &TrainConfig,
) -> Result<TrainOutcome, TrainError> {
    if split.train.is_empty() {
        return Err(TrainError::EmptySplit);
    }
    let n = workload.queries.len();
    if let Some(&i) = split.train.iter().chain(&split.test).find(|&&i| i >= n) {
        return Err(TrainError::SplitIndex(i));
    }
    let profile = env.profile();
    // A left-deep-only engine rejects the bushy plans this loop would
    // go on to make — after minutes of pretraining, inside a worker.
    if !profile.bushy_hints && cfg.mode != SearchMode::LeftDeep {
        return Err(TrainError::BushyOnLeftDeep(profile.name));
    }
    if cfg.checkpoint_every > 0 && cfg.checkpoint_path.is_none() {
        return Err(TrainError::NoCheckpointPath);
    }
    if !(0.0..=1.0).contains(&cfg.epsilon) {
        return Err(TrainError::BadConfig("epsilon must be in [0, 1]"));
    }
    if cfg.beam_width == 0 {
        return Err(TrainError::BadConfig("beam_width must be at least 1"));
    }
    let featurizer = Featurizer::new(db.clone(), profile.weights, profile.bushy_hints);
    let pool = WorkerPool::new(cfg.planning_threads);
    let ctx = Ctx {
        db,
        env,
        workload,
        split,
        cfg,
        est: HistogramEstimator::new(db),
        enc: make_model(cfg.model, &featurizer).encoding(),
        featurizer,
        // Evaluation runs on a twin environment: latencies are
        // deterministic per (query, plan), so results match the training
        // engine without touching its clock or plan cache. The
        // true-cardinality oracle is shared — cardinalities are exact
        // ground truth, so sharing only saves re-materializing the same
        // joins twice. Faults are never armed on it: evaluation measures
        // plans, not luck.
        eval_env: ExecutionEnv::with_truth(env.truth_arc(), *profile, SimClock::paper_default()),
        // The pool is persistent: when the two phases are configured to
        // the same width, share one set of parked workers instead of
        // spawning a second pool (clones share workers).
        exec_pool: if cfg.training_threads == cfg.planning_threads {
            pool.clone()
        } else {
            WorkerPool::new(cfg.training_threads)
        },
        pool,
    };
    let mut st = match ctx.resume()? {
        Some(st) => st,
        None => ctx.pretrain()?,
    };
    while st.iteration < cfg.iterations {
        ctx.iteration(&mut st)?;
        // Test hook: the process "dies" right after this iteration's
        // checkpoint hit disk.
        if cfg.halt_after == Some(st.iteration) {
            break;
        }
    }
    Ok(TrainOutcome {
        model: st.best_model,
        trajectory: st.trajectory,
        buffer: st.buffer,
        breakdown: st.breakdown,
        resilience: st.stats,
    })
}

/// A run's inputs and what is built from them once; no phase mutates it.
struct Ctx<'a> {
    db: &'a Arc<Database>,
    env: &'a ExecutionEnv,
    workload: &'a Workload,
    split: &'a Split,
    cfg: &'a TrainConfig,
    est: HistogramEstimator<'a>,
    featurizer: Featurizer,
    enc: FeatureEncoding,
    eval_env: ExecutionEnv,
    pool: WorkerPool,
    exec_pool: WorkerPool,
}

/// Everything the loop carries across an iteration boundary — exactly
/// what a checkpoint stores (`to_checkpoint` / `from_checkpoint`), plus
/// the measured walls, which a checkpoint leaves out by design.
struct LoopState {
    /// The model being trained: the plain model during pretraining, the
    /// residual wrapper over the frozen pretrained base after.
    model: Box<dyn ValueModel>,
    best_model: Box<dyn ValueModel>,
    best_is_residual: bool,
    best_val: f64,
    /// Per-train-query best observed latency (the timeout budgets).
    best_lat: BTreeMap<usize, f64>,
    rng: SmallRng,
    buffer: ExperienceBuffer,
    /// Recent per-iteration failure+timeout rates, oldest first.
    window: Vec<f64>,
    trajectory: Vec<IterationStats>,
    stats: ResilienceStats,
    /// The current (once done, the last completed) iteration; 0 is
    /// pretraining.
    iteration: usize,
    breakdown: TrainBreakdown,
    /// The last validation sweep's greedy plans of `split.train` by
    /// `model`, in split order: exactly what an ε = 0 exploration sweep
    /// would plan again, so `plan_batch` takes them instead. Derived, so
    /// never checkpointed; a resumed run re-plans to the same bits.
    val_plans: Option<Vec<PlannedQuery>>,
}

/// One iteration's execution facts for its trajectory point (all empty
/// for iteration 0, which executes nothing).
#[derive(Default)]
struct Executed {
    fallback: bool,
    res: ResilienceStats,
    lats: Vec<f64>,
    timeouts: usize,
}

/// A query with its labeled subplans (or the plans to label).
type LabelJob<'a, L> = (&'a Query, L);

impl<'a> Ctx<'a> {
    fn new_model(&self) -> Box<dyn ValueModel> {
        make_model(self.cfg.model, &self.featurizer)
    }

    /// A model restored from `state`: the residual wrapper over two fresh
    /// models of the configured family, or one plain model.
    fn model_from(&self, residual: bool, state: &[f64]) -> Result<Box<dyn ValueModel>, TrainError> {
        let mut m: Box<dyn ValueModel> = if residual {
            Box::new(ResidualValueModel::new(self.new_model(), self.new_model()))
        } else {
            self.new_model()
        };
        m.load_state(state).map_err(TrainError::ModelState)?;
        Ok(m)
    }

    /// The one way an experience is built: a labeled subplan of `q`,
    /// featurized for the model family being trained. The key is
    /// `canonical_hash`, not `fingerprint`: the buffer's training-set
    /// ordering sorts on it, so it must be the frozen encoding, or
    /// fingerprint-algorithm changes would permute every SGD minibatch
    /// and invalidate recorded learning curves.
    fn experience(
        &self,
        q: &Query,
        est: &dyn CardEstimator,
        o: SubtreeObs,
        source: LabelSource,
    ) -> Experience {
        let features = self.featurizer.featurize_enc(self.enc, q, &o.plan, est);
        Experience {
            query_key: query_key(q),
            fingerprint: o.plan.canonical_hash(),
            features: PackedFeatures::pack(&features),
            plan: o.plan,
            label_secs: o.latency_secs,
            censored: o.censored,
            source,
        }
    }

    /// `resume_from`'s iteration boundary, or `None` for a fresh run: no
    /// `resume_from`, or its file does not exist yet (the first launch).
    fn resume(&self) -> Result<Option<LoopState>, TrainError> {
        let Some(path) = &self.cfg.resume_from else {
            return Ok(None);
        };
        if !path.exists() {
            eprintln!(
                "balsa: resume_from {} not found; starting a fresh run",
                path.display()
            );
            return Ok(None);
        }
        let data = CheckpointData::load(path).map_err(|e| TrainError::Resume(path.clone(), e))?;
        if data.cfg_fingerprint != self.cfg.fingerprint(self.env) {
            return Err(TrainError::ConfigMismatch(path.clone()));
        }
        LoopState::from_checkpoint(self, data).map(Some)
    }

    /// Phase 1, simulation pretraining (§4.1); leaves the state at
    /// iteration 0 with the residual wrapper ready to fine-tune.
    fn pretrain(&self) -> Result<LoopState, TrainError> {
        let (cfg, profile) = (self.cfg, self.env.profile());
        let mut st = LoopState {
            model: self.new_model(),
            best_model: self.new_model(),
            best_is_residual: false,
            best_val: f64::NAN,
            best_lat: BTreeMap::new(),
            rng: SmallRng::seed_from_u64(cfg.seed),
            buffer: ExperienceBuffer::new(),
            window: Vec::new(),
            trajectory: Vec::new(),
            stats: ResilienceStats::default(),
            iteration: 0,
            breakdown: TrainBreakdown::default(),
            val_plans: None,
        };
        // Plan collection stays serial: random plans consume the master
        // RNG, whose stream is part of the reproducibility contract. The
        // expensive per-subplan featurization is pure, so it fans out on
        // the pool and the experiences are recorded serially in the same
        // (query, plan, subplan) order as the historical serial loop.
        let mut sim_jobs = Vec::with_capacity(self.split.train.len());
        for &qi in &self.split.train {
            let q = &self.workload.queries[qi];
            let memo = MemoEstimator::new(&self.est);
            // A finite budget degrades through the fallback chain; an
            // Err means the query has no plan at all (disconnected
            // graph) — skip it honestly rather than crash the run. The
            // skip happens before this query's random-plan draws, so it
            // cannot perturb other queries' RNG consumption.
            let dp = DpPlanner::new(self.db, &CoutModel, &memo, cfg.mode)
                .with_budget(cfg.plan_budget)
                .try_plan(q);
            let Some(dp) = fold_planned(&mut st.stats, dp, "pretraining") else {
                continue;
            };
            self.env.charge_planning(dp.planning_secs);
            let mut plans = vec![dp.plan];
            for _ in 0..cfg.sim_random_plans {
                let plan = try_random_plan(self.db, q, cfg.mode, &mut st.rng);
                plans.push(plan.map_err(TrainError::Planning)?);
            }
            sim_jobs.push((q, plans));
        }
        let (startup, per_work) = (profile.startup_secs, profile.time_per_work);
        let sim = |q: &Query, plans: &Vec<Arc<Plan>>, est: &dyn CardEstimator| {
            let label = |plan: Arc<Plan>| SubtreeObs {
                latency_secs: startup + CoutModel.plan_cost(q, &plan, est) * per_work,
                plan,
                censored: false,
            };
            plans.iter().flat_map(|p| p.subplans()).map(label).collect()
        };
        self.label_batch(&mut st, &sim_jobs, LabelSource::Simulated, sim);
        let report = self.fit(&mut st, LabelSource::Simulated, &cfg.pretrain_sgd);
        self.evaluate(&mut st, report.mse, &Executed::default())?;
        // Residual scheme ([`ResidualValueModel`]): the pretrained model
        // is frozen as the base; a correction model of the same family is
        // trained on real-execution residual labels (`ln latency − base
        // prediction`), and the deployed model is their sum. Iteration 1
        // therefore starts exactly at the pretrained policy, and
        // fine-tuning moves it only where real evidence pulls — the
        // stable counterpart of the paper's sim-to-real transfer.
        let pre = std::mem::replace(&mut st.model, self.new_model());
        st.model = Box::new(ResidualValueModel::new(pre, self.new_model()));
        // The swap changed the model the validation plans came from.
        st.val_plans = None;
        Ok(st)
    }

    /// Phase 2 (§4.2–§4.3): one fine-tuning iteration, then its
    /// checkpoint.
    fn iteration(&self, st: &mut LoopState) -> Result<(), TrainError> {
        let cfg = self.cfg;
        st.iteration += 1;
        // Graceful degradation: when the recent failure+timeout rate
        // exceeds the threshold, plan this iteration with expert DP
        // instead of the learned beam — recorded, never silent.
        let rate = st.window.iter().sum::<f64>() / st.window.len() as f64;
        let fallback = cfg.fallback_window > 0
            && st.window.len() >= cfg.fallback_window
            && rate > cfg.fallback_threshold;
        if fallback {
            st.stats.fallback_iterations += 1;
            eprintln!(
                "balsa: iteration {}: failure rate {rate:.3} over the last {} iterations \
                 exceeds {:.3}; planning with the expert DP fallback",
                st.iteration,
                st.window.len(),
                cfg.fallback_threshold
            );
        }
        let mut ex = Executed {
            fallback,
            ..Executed::default()
        };
        let planned = self.plan_batch(st, &mut ex);
        let labels = self.execute_batch(st, &planned, &mut ex)?;
        self.label_batch(st, &labels, LabelSource::Real, |_, obs, _| obs.clone());
        // The residual wrapper subtracts the frozen base's predictions
        // and fits only the correction.
        let report = self.fit(st, LabelSource::Real, &cfg.finetune_sgd);
        st.stats.merge(&ex.res);
        self.evaluate(st, report.mse, &ex)?;
        self.checkpoint(st)
    }

    /// (a) Plans every training query on the pool, with the learned beam
    /// under decaying ε-greedy exploration or, on fallback, expert DP.
    /// Each query's exploration RNG is seeded by (seed, iteration, query
    /// id) inside the beam and results come back in split order, so this
    /// is bit-identical to the serial loop for any thread count — and
    /// neither planner consumes the master RNG stream. A query with no
    /// plan at all is dropped from this iteration (see `fold_planned`);
    /// the rest come back with their split index, in split order. At
    /// ε = 0 the beam is exactly greedy, so the last validation sweep's
    /// plans (same model, queries, width and budget) are taken instead of
    /// planned again; only the wall-measured `planning_secs` differ.
    fn plan_batch(&self, st: &mut LoopState, ex: &mut Executed) -> Vec<(usize, PlannedQuery)> {
        let (cfg, db, iter, train) = (self.cfg, self.db, st.iteration, &self.split.train);
        // Linear epsilon decay: full exploration early, pure greed last.
        let epsilon = if cfg.iterations > 1 {
            cfg.epsilon * (1.0 - (iter - 1) as f64 / (cfg.iterations - 1) as f64)
        } else {
            cfg.epsilon
        };
        let val_plans = st.val_plans.take();
        let planned: Vec<PlannedOrErr> = if ex.fallback {
            let expert = ExpertCostModel::new(db.clone(), self.env.profile().weights);
            self.pool.map_init(
                train,
                || DpPlanner::new(db, &expert, &self.est, cfg.mode).with_budget(cfg.plan_budget),
                |planner, _, &qi| planner.try_plan(&self.workload.queries[qi]),
            )
        } else if let Some(plans) = val_plans.filter(|_| epsilon == 0.0) {
            plans.into_iter().map(Ok).collect()
        } else {
            let model = &*st.model;
            self.pool.map(train, |_, &qi| {
                let scorer = LearnedScorer::new(&self.featurizer, model, &self.est);
                BeamPlanner::new(db, &scorer, cfg.mode, cfg.beam_width)
                    .with_budget(cfg.plan_budget)
                    .with_exploration(epsilon, cfg.seed ^ ((iter as u64) << 44))
                    .try_plan(&self.workload.queries[qi])
            })
        };
        let at = format!("iteration {iter}");
        let planned: Vec<(usize, PlannedQuery)> = train
            .iter()
            .zip(planned)
            .filter_map(|(&qi, p)| Some((qi, fold_planned(&mut ex.res, p, &at)?)))
            .collect();
        // The clock advances by the phase's parallel makespan, not the
        // serial sum — planning wall-clock is what the paper charges.
        let secs: Vec<f64> = planned.iter().map(|(_, p)| p.planning_secs).collect();
        self.env
            .charge_planning_parallel(&secs, self.pool.threads());
        planned
    }

    /// (b) Executes the planned queries on the execution pool, each under
    /// the retry policy, and returns each executed query's subtree
    /// labels. Budgets are precomputed: each query appears once per
    /// iteration, so its budget depends only on prior iterations and
    /// matches the serial loop's. Latencies, labels, fault draws
    /// (stateless, keyed), and cache decisions are deterministic per
    /// (query, plan, attempt) and the keys are distinct within the
    /// batch, so any thread count observes the serial outcomes; results
    /// fold back in split order and the clock is charged the batch's
    /// parallel makespan once.
    fn execute_batch(
        &self,
        st: &mut LoopState,
        planned: &[(usize, PlannedQuery)],
        ex: &mut Executed,
    ) -> Result<Vec<LabelJob<'a, Vec<SubtreeObs>>>, TrainError> {
        let cfg = self.cfg;
        let budgets: Vec<Option<f64>> = planned
            .iter()
            .map(|(qi, _)| st.best_lat.get(qi).map(|b| b * cfg.timeout_factor))
            .collect();
        let t_exec = Instant::now();
        let reports = self.exec_pool.map(planned, |j, (qi, p)| {
            let q = &self.workload.queries[*qi];
            self.env
                .execute_labeled_retry_uncharged(q, &p.plan, budgets[j], &cfg.retry)
        });
        st.breakdown.truecard_secs += t_exec.elapsed().as_secs_f64();
        let (mut charged, mut label_jobs) = (vec![], vec![]);
        for ((qi, _), report) in planned.iter().zip(reports) {
            let report = report.map_err(TrainError::Unexecutable)?;
            ex.res.merge(&report.stats);
            // Wasted attempts + the final attempt occupy this query's
            // execution slot; cache hits cost nothing, exactly as in
            // `execute`. Fault-free this is the fresh latency alone.
            if report.exec_secs > 0.0 {
                charged.push(report.exec_secs);
            }
            // A `None` outcome was dropped after exhausting retries: no
            // label, no latency observation; counted in `abandoned`.
            if let Some((outcome, labels)) = report.outcome {
                if outcome.timed_out {
                    ex.timeouts += 1;
                } else {
                    let best = st.best_lat.entry(*qi).or_insert(f64::INFINITY);
                    *best = best.min(outcome.latency_secs);
                }
                ex.lats.push(outcome.latency_secs);
                label_jobs.push((&self.workload.queries[*qi], labels));
            }
        }
        self.env.charge_execution_batch(&charged);
        // Backoff waits are wall the training run really spends sitting
        // idle before a retry — charged raw (the retrying slot cannot
        // overlap its own backoff). Zero, and bit-neutral, fault-free.
        self.env.charge_raw(ex.res.backoff_secs_charged);
        if cfg.fallback_window > 0 {
            // Planner errors count as failures: a query that could not
            // even plan is as failed as one that timed out.
            let r = &ex.res;
            let failed = ex.timeouts as f64 + r.abandoned as f64 + r.planner_errors as f64;
            st.window.push(failed / self.split.train.len() as f64);
            if st.window.len() > cfg.fallback_window {
                st.window.remove(0);
            }
        }
        Ok(label_jobs)
    }

    /// (c) Labels and featurizes each job's subplans on the pool (a fresh
    /// memo per job: estimates are pure functions of the base estimator)
    /// and (d) records them into the buffer serially, in job order — the
    /// experience stream is order-sensitive (dedup, best-label
    /// retention), the featurization is pure.
    fn label_batch<L: Sync>(
        &self,
        st: &mut LoopState,
        jobs: &[LabelJob<'_, L>],
        source: LabelSource,
        labels: impl Fn(&Query, &L, &dyn CardEstimator) -> Vec<SubtreeObs> + Sync,
    ) {
        let t_feat = Instant::now();
        let featurized = self.pool.map(jobs, |_, (q, job)| {
            let memo = MemoEstimator::new(&self.est);
            let obs = labels(q, job, &memo).into_iter();
            obs.map(|o| self.experience(q, &memo, o, source))
                .collect::<Vec<_>>()
        });
        st.breakdown.featurize_secs += t_feat.elapsed().as_secs_f64();
        for e in featurized.into_iter().flatten() {
            st.buffer.record(e);
        }
    }

    /// Fits the state's model on the buffer's `source` rows, charging the
    /// SGD steps to the clock.
    fn fit(&self, st: &mut LoopState, source: LabelSource, sgd: &SgdConfig) -> FitReport {
        let report = st.model.fit(st.buffer.train_set(source), sgd, &mut st.rng);
        self.env.charge_update(report.steps);
        st.breakdown.forward_secs += report.forward_secs;
        st.breakdown.backward_secs += report.backward_secs;
        report
    }

    /// Greedy inference with the state's model on the held-out and the
    /// training queries; keeps the model as the best when its validation
    /// geometric mean improves, and appends the iteration's trajectory
    /// point. Workload generators only emit connected queries, so this
    /// planning cannot fail (a finite budget degrades instead of
    /// erroring); an error means the workload itself is malformed.
    fn evaluate(&self, st: &mut LoopState, fit_mse: f64, ex: &Executed) -> Result<(), TrainError> {
        let (cfg, model) = (self.cfg, &*st.model);
        let scorer = LearnedScorer::new(&self.featurizer, model, &self.est);
        let run = |idxs: &[usize]| {
            eval_latencies(&self.eval_env, self.workload, idxs, &self.pool, || {
                BeamPlanner::new(self.db, &scorer, cfg.mode, cfg.beam_width)
                    .with_budget(cfg.plan_budget)
            })
        };
        let (test, _) = run(&self.split.test)?;
        let (val, val_plans) = run(&self.split.train)?;
        st.val_plans = Some(val_plans);
        let val_geo = geo_mean(&val);
        if val_geo < st.best_val || st.best_val.is_nan() {
            st.best_val = val_geo;
            st.best_model = st.model.clone_box();
            // Only iteration 0's model is the plain pretrained one.
            st.best_is_residual = st.iteration > 0;
        }
        st.trajectory.push(IterationStats {
            iteration: st.iteration,
            sim_hours: self.env.elapsed_secs() / 3600.0,
            train_median_secs: median(&ex.lats),
            test_median_secs: median(&test),
            timeouts: ex.timeouts,
            buffer_real: st.buffer.count(LabelSource::Real),
            buffer_sim: st.buffer.count(LabelSource::Simulated),
            fit_mse,
            val_median_secs: median(&val),
            val_geo_mean_secs: val_geo,
            faults: ex.res.faults_injected,
            retries: ex.res.retries,
            abandoned: ex.res.abandoned,
            fallback: ex.fallback,
        });
        Ok(())
    }

    /// Writes the state as an atomic checkpoint when this iteration is
    /// due one.
    fn checkpoint(&self, st: &LoopState) -> Result<(), TrainError> {
        let every = self.cfg.checkpoint_every;
        match &self.cfg.checkpoint_path {
            Some(path) if every > 0 && st.iteration.is_multiple_of(every) => {
                let data = st.to_checkpoint(self);
                data.save_atomic(path)
                    .map_err(|e| TrainError::CheckpointWrite(path.clone(), e))
            }
            _ => Ok(()),
        }
    }
}

impl LoopState {
    /// `LoopState → CheckpointData`.
    fn to_checkpoint(&self, ctx: &Ctx) -> CheckpointData {
        let entries = self.buffer.sorted_entries();
        CheckpointData {
            cfg_fingerprint: ctx.cfg.fingerprint(ctx.env),
            iteration: self.iteration,
            rng_state: self.rng.state(),
            model_state: self.model.state_vec(),
            best_is_residual: self.best_is_residual,
            best_model_state: self.best_model.state_vec(),
            best_val: self.best_val,
            best_lat: self.best_lat.iter().map(|(&qi, &lat)| (qi, lat)).collect(),
            fallback_window: self.window.clone(),
            buffer: entries.into_iter().map(BufferEntry::from).collect(),
            env: ctx.env.snapshot(),
            trajectory: self.trajectory.clone(),
            resilience: self.stats,
        }
    }

    /// `CheckpointData → LoopState`, restoring the training env's plan
    /// cache and counters too. Features are a pure function of (query,
    /// plan), so the rebuilt buffer is indistinguishable from the
    /// original.
    fn from_checkpoint(ctx: &Ctx, data: CheckpointData) -> Result<Self, TrainError> {
        let queries = &ctx.workload.queries;
        let by_key: HashMap<u64, &Query> = queries.iter().map(|q| (query_key(q), q)).collect();
        let mut buffer = ExperienceBuffer::new();
        for e in &data.buffer {
            let Some(q) = by_key.get(&e.query_key) else {
                return Err(TrainError::UnknownQuery(e.query_key));
            };
            let plan = Plan::parse_compact(&e.plan)
                .map_err(|err| TrainError::BadPlan(format!("{:?}: {err}", e.plan)))?;
            // Featurizing reads the query's tables at the plan's indices.
            if plan.canonical_hash() != e.fingerprint || !q.all_mask().contains_all(plan.mask()) {
                let why = format!("{:?} does not match its fingerprint and query", e.plan);
                return Err(TrainError::BadPlan(why));
            }
            let obs = SubtreeObs {
                plan,
                latency_secs: e.label_secs,
                censored: e.censored,
            };
            buffer.record(ctx.experience(q, &MemoEstimator::new(&ctx.est), obs, e.source));
        }
        let st = LoopState {
            model: ctx.model_from(true, &data.model_state)?,
            best_model: ctx.model_from(data.best_is_residual, &data.best_model_state)?,
            best_is_residual: data.best_is_residual,
            best_val: data.best_val,
            best_lat: data.best_lat.into_iter().collect(),
            // The vendored xoshiro exposes its word state: the master RNG
            // continues exactly mid-stream, so post-resume fits draw the
            // same shuffles and init the uninterrupted run would have.
            rng: SmallRng::from_state(data.rng_state),
            buffer,
            window: data.fallback_window,
            trajectory: data.trajectory,
            stats: data.resilience,
            iteration: data.iteration,
            breakdown: TrainBreakdown::default(),
            val_plans: None,
        };
        // The clock is wall-derived state and is not checkpointed; pin
        // the snapshot's clock to the live reading so the restore
        // charges nothing.
        let mut snap = data.env;
        snap.clock_secs = ctx.env.elapsed_secs();
        ctx.env.restore(&snap);
        Ok(st)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use balsa_query::workloads::job_workload;
    use balsa_storage::{mini_imdb, DataGenConfig};

    fn smoke_cfg(model: ModelKind, iterations: usize) -> TrainConfig {
        TrainConfig {
            model,
            beam_width: 3,
            sim_random_plans: 2,
            iterations,
            pretrain_sgd: SgdConfig {
                epochs: 2,
                ..SgdConfig::default()
            },
            finetune_sgd: SgdConfig {
                epochs: 1,
                ..SgdConfig::default()
            },
            ..TrainConfig::default()
        }
    }

    /// The oracle: every row `train_set` hands a fit equals a fresh
    /// featurization of its entry's `(query, plan)` — no memo, no packing
    /// — bit for bit, for both label sources.
    fn assert_rows_are_fresh_features(
        db: &Arc<Database>,
        workload: &Workload,
        kind: ModelKind,
        buffer: &ExperienceBuffer,
    ) {
        let profile = *ExecutionEnv::postgres_sim(db.clone()).profile();
        let featurizer = Featurizer::new(db.clone(), profile.weights, profile.bushy_hints);
        let enc = make_model(kind, &featurizer).encoding();
        let est = HistogramEstimator::new(db);
        let queries: HashMap<u64, &Query> =
            workload.queries.iter().map(|q| (query_key(q), q)).collect();
        for source in [LabelSource::Simulated, LabelSource::Real] {
            let set = buffer.train_set(source);
            let entries: Vec<&Experience> = buffer
                .sorted_entries()
                .into_iter()
                .filter(|e| e.source == source)
                .collect();
            assert!(!entries.is_empty(), "{kind:?} {source:?}: no entries");
            assert_eq!(set.len(), entries.len());
            for (x, e) in set.xs.iter().zip(entries) {
                let fresh = featurizer.featurize_enc(enc, queries[&e.query_key], &e.plan, &est);
                let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(x), bits(&fresh), "{kind:?} {source:?}: {}", e.plan);
            }
        }
    }

    #[test]
    fn buffer_rows_equal_fresh_featurization() {
        let db = Arc::new(mini_imdb(DataGenConfig {
            scale: 0.02,
            ..Default::default()
        }));
        let w = job_workload(db.catalog(), 7);
        let split = Split {
            train: (0..5).collect(),
            test: (5..7).collect(),
        };
        for kind in [ModelKind::Linear, ModelKind::TreeConv] {
            let env = ExecutionEnv::postgres_sim(db.clone());
            let o = train_loop(&db, &env, &w, &split, &smoke_cfg(kind, 2));
            assert_rows_are_fresh_features(&db, &w, kind, &o.buffer);
        }

        // Kill after iteration 1, then resume: the rebuilt buffer and the
        // iteration recorded on top of it pass the same oracle.
        let tmp = |tag: &str| {
            std::env::temp_dir().join(format!(
                "balsa_buffer_oracle_{tag}_{}.ckpt",
                std::process::id()
            ))
        };
        let (killed, resumed) = (tmp("killed"), tmp("resumed"));
        let mut cfg = smoke_cfg(ModelKind::Linear, 2);
        cfg.checkpoint_every = 1;
        cfg.checkpoint_path = Some(killed.clone());
        cfg.halt_after = Some(1);
        train_loop(
            &db,
            &ExecutionEnv::postgres_sim(db.clone()),
            &w,
            &split,
            &cfg,
        );
        cfg.checkpoint_path = Some(resumed.clone());
        cfg.halt_after = None;
        cfg.resume_from = Some(killed.clone());
        let o = train_loop(
            &db,
            &ExecutionEnv::postgres_sim(db.clone()),
            &w,
            &split,
            &cfg,
        );
        assert_eq!(o.trajectory.len(), 3, "resumed run finishes iteration 2");
        assert_rows_are_fresh_features(&db, &w, ModelKind::Linear, &o.buffer);
        for p in [killed, resumed] {
            let _ = std::fs::remove_file(p);
        }
    }

    /// Folds every deterministic trajectory field (all but the
    /// wall-derived `sim_hours`) into `h`.
    fn fold_trajectory(mut h: u64, o: &TrainOutcome) -> u64 {
        for t in &o.trajectory {
            for v in [
                t.iteration as u64,
                t.train_median_secs.to_bits(),
                t.test_median_secs.to_bits(),
                t.timeouts as u64,
                t.buffer_real as u64,
                t.buffer_sim as u64,
                t.fit_mse.to_bits(),
                t.val_median_secs.to_bits(),
                t.val_geo_mean_secs.to_bits(),
                t.faults,
                t.retries,
                t.abandoned,
                t.fallback as u64,
            ] {
                h = mix(h ^ v);
            }
        }
        h
    }

    /// Cross-version bit pin. The identity suites compare a run with
    /// itself inside one build; this folds into one `u64` the final
    /// checkpoint bytes of a linear chaos run killed at iteration 1 and
    /// resumed, the final checkpoint bytes of a clean 2-iteration
    /// tree-conv run, the params of a pretrain-only tree-conv run, and
    /// each run's trajectory bits — so a refactor that moves any plan,
    /// label, fit or rng draw fails here. Change the constant only with
    /// a change meant to move those bits, and say so.
    #[test]
    fn training_bits_are_pinned() {
        use balsa_engine::FaultConfig;
        let db = Arc::new(mini_imdb(DataGenConfig {
            scale: 0.02,
            ..Default::default()
        }));
        let w = job_workload(db.catalog(), 7);
        let split = Split {
            train: (0..5).collect(),
            test: (5..7).collect(),
        };
        let tmp = |tag: &str| {
            std::env::temp_dir().join(format!("balsa_pin_{tag}_{}.ckpt", std::process::id()))
        };
        let chaos_env = || {
            ExecutionEnv::postgres_sim(db.clone()).with_faults(FaultConfig {
                seed: 11,
                transient: 0.15,
                crash: 0.05,
                spike: 0.05,
                spike_factor: 3.0,
                hang: 0.05,
                ..FaultConfig::default()
            })
        };
        let read = |p: &PathBuf| std::fs::read_to_string(p).expect("checkpoint written");
        let mut h = mix(0x5EED);

        // Linear under chaos, killed after iteration 1, then resumed.
        let (killed, resumed) = (tmp("killed"), tmp("resumed"));
        let mut cfg = smoke_cfg(ModelKind::Linear, 2);
        cfg.checkpoint_every = 1;
        cfg.checkpoint_path = Some(killed.clone());
        cfg.halt_after = Some(1);
        h = fold_trajectory(h, &train_loop(&db, &chaos_env(), &w, &split, &cfg));
        cfg.checkpoint_path = Some(resumed.clone());
        cfg.halt_after = None;
        cfg.resume_from = Some(killed.clone());
        let o = train_loop(&db, &chaos_env(), &w, &split, &cfg);
        assert!(
            o.resilience.faults_injected > 0,
            "the chaos run injected nothing"
        );
        h = fold_trajectory(h, &o);
        h = mix_str(h, &read(&resumed));

        // Tree-conv, clean, two iterations.
        let clean = tmp("treeconv");
        let mut cfg = smoke_cfg(ModelKind::TreeConv, 2);
        cfg.checkpoint_every = 2;
        cfg.checkpoint_path = Some(clean.clone());
        let env = ExecutionEnv::postgres_sim(db.clone());
        h = fold_trajectory(h, &train_loop(&db, &env, &w, &split, &cfg));
        h = mix_str(h, &read(&clean));

        // Pretrain only (the `beam-learned` path).
        let mut cfg = smoke_cfg(ModelKind::TreeConv, 0);
        cfg.pretrain_sgd.optimizer = crate::model::OptimizerKind::Adam;
        cfg.pretrain_sgd.lr = 0.002;
        let env = ExecutionEnv::postgres_sim(db.clone());
        let o = train_loop(&db, &env, &w, &split, &cfg);
        h = fold_trajectory(h, &o);
        for p in o.model.params() {
            h = mix(h ^ p.to_bits());
        }

        for p in [killed, resumed, clean] {
            let _ = std::fs::remove_file(p);
        }
        assert_eq!(h, 0xa90d0fbeb15423a3, "training bits moved: {h:#018x}");
    }

    /// Bad configurations, splits and checkpoint files come back from
    /// `try_train_loop` as the matching `TrainError` variant, not as a
    /// panic.
    #[test]
    fn try_train_loop_returns_typed_errors() {
        let db = Arc::new(mini_imdb(DataGenConfig {
            scale: 0.02,
            ..Default::default()
        }));
        let w = job_workload(db.catalog(), 7);
        let split = Split {
            train: (0..5).collect(),
            test: (5..7).collect(),
        };
        let run = |env: ExecutionEnv, split: &Split, cfg: &TrainConfig| {
            try_train_loop(&db, &env, &w, split, cfg).err()
        };
        let pg = || ExecutionEnv::postgres_sim(db.clone());
        let cfg = smoke_cfg(ModelKind::Linear, 2);

        let empty = Split {
            train: vec![],
            test: vec![0],
        };
        let e = run(pg(), &empty, &cfg);
        assert!(matches!(e, Some(TrainError::EmptySplit)), "{e:?}");
        let n = w.queries.len();
        let past_end = Split {
            train: vec![0, n],
            test: vec![],
        };
        let e = run(pg(), &past_end, &cfg);
        assert!(
            matches!(e, Some(TrainError::SplitIndex(i)) if i == n),
            "{e:?}"
        );
        let e = run(ExecutionEnv::commdb_sim(db.clone()), &split, &cfg);
        assert!(matches!(e, Some(TrainError::BushyOnLeftDeep(_))), "{e:?}");
        let mut no_path = cfg.clone();
        no_path.checkpoint_every = 1;
        let e = run(pg(), &split, &no_path);
        assert!(matches!(e, Some(TrainError::NoCheckpointPath)), "{e:?}");
        for bad in [
            TrainConfig {
                epsilon: 1.5,
                ..cfg.clone()
            },
            TrainConfig {
                beam_width: 0,
                ..cfg.clone()
            },
        ] {
            let e = run(pg(), &split, &bad);
            assert!(matches!(e, Some(TrainError::BadConfig(_))), "{e:?}");
        }

        // A real checkpoint after iteration 1, then resumes from broken
        // copies of it.
        let tmp = |tag: &str| {
            std::env::temp_dir().join(format!("balsa_typed_{tag}_{}.ckpt", std::process::id()))
        };
        let (good, bad) = (tmp("good"), tmp("bad"));
        let mut cfg = cfg;
        cfg.checkpoint_every = 1;
        cfg.checkpoint_path = Some(good.clone());
        cfg.halt_after = Some(1);
        assert!(run(pg(), &split, &cfg).is_none());
        let text = std::fs::read_to_string(&good).unwrap();
        cfg.checkpoint_path = Some(tmp("unused"));
        cfg.resume_from = Some(bad.clone());
        let resume_from = |text: &str| {
            std::fs::write(&bad, text).unwrap();
            run(pg(), &split, &cfg)
        };
        // Replaces the first line starting with `tag ` by `tag body`.
        let with_line = |tag: &str, body: &dyn Fn(&[&str]) -> String| {
            let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
            let i = lines
                .iter()
                .position(|l| l.starts_with(&format!("{tag} ")))
                .unwrap();
            let words: Vec<&str> = text.lines().nth(i).unwrap().split(' ').skip(1).collect();
            lines[i] = format!("{tag} {}", body(&words));
            lines.join("\n") + "\n"
        };

        let truncated: String = text.lines().take(5).map(|l| format!("{l}\n")).collect();
        let e = resume_from(&truncated);
        assert!(matches!(e, Some(TrainError::Resume(..))), "{e:?}");
        let unknown = with_line("be", &|w| format!("1 {}", w[1..].join(" ")));
        let e = resume_from(&unknown);
        assert!(matches!(e, Some(TrainError::UnknownQuery(1))), "{e:?}");
        let bad_plan = with_line("be", &|w| format!("{} (no such plan)", w[..5].join(" ")));
        let e = resume_from(&bad_plan);
        assert!(matches!(e, Some(TrainError::BadPlan(_))), "{e:?}");
        // Parses and matches its fingerprint, but scans a table the
        // query does not have.
        let fp = Plan::parse_compact("q30").unwrap().canonical_hash();
        let rogue = with_line("be", &|w| {
            format!("{} {fp} {} q30", w[0], w[2..5].join(" "))
        });
        let e = resume_from(&rogue);
        assert!(matches!(e, Some(TrainError::BadPlan(_))), "{e:?}");
        // Matches the fingerprint its scan would have, but no table mask
        // holds table 33.
        let fp = Plan::scan(33, balsa_query::ScanOp::Seq).canonical_hash();
        let rogue = with_line("be", &|w| {
            format!("{} {fp} {} q33", w[0], w[2..5].join(" "))
        });
        let e = resume_from(&rogue);
        assert!(matches!(e, Some(TrainError::BadPlan(_))), "{e:?}");
        let short_model = with_line("model", &|_| "1 0000000000000000".into());
        let e = resume_from(&short_model);
        assert!(matches!(e, Some(TrainError::ModelState(_))), "{e:?}");
        std::fs::write(&bad, &text).unwrap();
        let mut reseeded = cfg.clone();
        reseeded.seed += 1;
        let e = run(pg(), &split, &reseeded);
        assert!(matches!(e, Some(TrainError::ConfigMismatch(_))), "{e:?}");
        // The untouched copy resumes cleanly.
        assert!(resume_from(&text).is_none());
        for p in [good, bad, tmp("unused")] {
            let _ = std::fs::remove_file(p);
        }
    }

    /// `median` sorts by `f64::total_cmp`: a NaN input yields a value
    /// instead of a panic, and finite inputs keep their medians.
    #[test]
    fn median_tolerates_nan() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
        assert_eq!(median(&[1.0, f64::NAN, 2.0]), 2.0);
    }
}
