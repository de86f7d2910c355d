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
//! [`crate::checkpoint`]).
//!
//! Held-out queries are evaluated each iteration with greedy (ε = 0)
//! inference on a *separate* environment, so evaluation neither warms
//! the training plan cache nor advances the training clock.

use crate::buffer::{Experience, ExperienceBuffer, LabelSource, PackedFeatures};
use crate::checkpoint::{BufferEntry, CheckpointData};
use crate::featurize::Featurizer;
use crate::model::{
    FeatureEncoding, LinearValueModel, ModelKind, ResidualValueModel, SgdConfig, ValueModel,
};
use crate::scorer::LearnedScorer;
use crate::treeconv::{TreeConvConfig, TreeConvValueModel};
use balsa_card::{CardEstimator, HistogramEstimator, MemoEstimator};
use balsa_cost::{CostModel, CoutModel, ExpertCostModel};
use balsa_engine::{query_key, ExecutionEnv, ResilienceStats, RetryPolicy, SimClock, SubtreeObs};
use balsa_query::workloads::Workload;
use balsa_query::{Plan, Query, Split};
use balsa_search::{
    random_plan, BeamPlanner, DpPlanner, PlanBudget, PlanError, Planner, SearchMode, WorkerPool,
};
use balsa_storage::Database;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::HashMap;
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
    /// (0 = never). Requires `checkpoint_path`.
    pub checkpoint_every: usize,
    /// Where checkpoints are written.
    pub checkpoint_path: Option<PathBuf>,
    /// Resume from this checkpoint, skipping pretraining and all
    /// completed iterations. A missing file starts a fresh run (first
    /// launch); a corrupt or configuration-mismatched file panics —
    /// never silently trains a different run.
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
        ] {
            h = mix(h ^ v);
        }
        for bits in [
            self.epsilon.to_bits(),
            self.timeout_factor.to_bits(),
            self.fallback_threshold.to_bits(),
        ] {
            h = mix(h ^ bits);
        }
        h = mix_str(h, &format!("{:?}", self.pretrain_sgd));
        h = mix_str(h, &format!("{:?}", self.finetune_sgd));
        h = mix(h ^ self.retry.fingerprint());
        h = mix(h ^ self.plan_budget.fingerprint());
        h = mix(h ^ env.fault_injector().map_or(0, |i| i.config().fingerprint()));
        h
    }
}

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

/// Builds `C_out` pseudo-latency labels for every subplan of `plan`,
/// encoded for the model family being trained. Pure (fresh estimator
/// memos yield identical estimates), so the training loop featurizes on
/// the worker pool and records the returned experiences serially.
// Like `evaluate_learned`, the argument list is the full labeling
// context; a struct would be rebuilt per call site.
#[allow(clippy::too_many_arguments)]
fn sim_labels(
    featurizer: &Featurizer,
    enc: FeatureEncoding,
    query: &Query,
    plan: &Arc<Plan>,
    est: &dyn CardEstimator,
    time_per_work: f64,
    startup_secs: f64,
    out: &mut Vec<Experience>,
) {
    let qk = query_key(query);
    let cout = CoutModel;
    for sub in plan.subplans() {
        let label = startup_secs + cout.plan_cost(query, &sub, est) * time_per_work;
        // `canonical_hash`, not `fingerprint`: the buffer's training-set
        // ordering sorts on this key, so it must be the frozen encoding
        // or fingerprint-algorithm changes would permute every SGD
        // minibatch and invalidate recorded learning curves.
        out.push(Experience {
            query_key: qk,
            fingerprint: sub.canonical_hash(),
            features: PackedFeatures::pack(&featurizer.featurize_enc(enc, query, &sub, est)),
            plan: sub,
            label_secs: label,
            censored: false,
            source: LabelSource::Simulated,
        });
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

/// Median of a slice (NaN when empty).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
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
    let planned: Vec<PlannedOrErr> = pool.map_init(
        idxs,
        || BeamPlanner::new(db, &scorer, mode, beam_width).with_budget(budget),
        |planner, _, &i| planner.try_plan(&workload.queries[i]),
    );
    let planned = planned.into_iter().collect::<Result<Vec<_>, _>>()?;
    Ok(pool.map(&planned, |j, out| {
        eval_env
            .execute_uncharged(&workload.queries[idxs[j]], &out.plan, None)
            .expect("beam plan must be executable")
            .latency_secs
    }))
}

type PlannedOrErr = Result<balsa_search::PlannedQuery, PlanError>;

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
    let planned: Vec<PlannedOrErr> = pool.map_init(
        idxs,
        || DpPlanner::new(db, &model, &est, mode).with_budget(budget),
        |planner, _, &i| planner.try_plan(&workload.queries[i]),
    );
    let planned = planned.into_iter().collect::<Result<Vec<_>, _>>()?;
    Ok(pool.map(&planned, |j, out| {
        eval_env
            .execute_uncharged(&workload.queries[idxs[j]], &out.plan, None)
            .expect("dp plan must be executable")
            .latency_secs
    }))
}

/// Runs simulation pretraining followed by real-execution fine-tuning on
/// `env`, returning the trained model, the learning trajectory, and the
/// experience buffer.
pub fn train_loop(
    db: &Arc<Database>,
    env: &ExecutionEnv,
    workload: &Workload,
    split: &Split,
    cfg: &TrainConfig,
) -> TrainOutcome {
    assert!(!split.train.is_empty(), "empty training split");
    let profile = env.profile();
    // A left-deep-only engine rejects the bushy plans this loop would
    // go on to make — after minutes of pretraining, inside a worker.
    assert!(
        profile.bushy_hints || cfg.mode == SearchMode::LeftDeep,
        "unrunnable configuration: {} has bushy_hints = false, TrainConfig::mode = {:?}",
        profile.name,
        cfg.mode
    );
    let est = HistogramEstimator::new(db);
    let featurizer = Featurizer::new(db.clone(), profile.weights, profile.bushy_hints);
    let mut buffer = ExperienceBuffer::new();
    let probe = make_model(cfg.model, &featurizer);
    let enc = probe.encoding();
    let cfg_fp = cfg.fingerprint(env);
    // Evaluation runs on a twin environment: latencies are deterministic
    // per (query, plan), so results match the training engine without
    // touching its clock or plan cache. The true-cardinality oracle is
    // shared — cardinalities are exact ground truth, so sharing only
    // saves re-materializing the same joins twice. Faults are never
    // armed on it: evaluation measures plans, not luck.
    let eval_env = ExecutionEnv::with_truth(env.truth_arc(), *profile, SimClock::paper_default());

    let mut breakdown = TrainBreakdown::default();
    let pool = WorkerPool::new(cfg.planning_threads);

    // Workload generators only emit connected queries, so evaluation
    // planning cannot fail (a finite budget degrades instead of
    // erroring); an Err here means the workload itself is malformed.
    let eval_point = |model: &dyn ValueModel| {
        let test = evaluate_learned(
            db,
            &eval_env,
            &featurizer,
            model,
            &est,
            workload,
            &split.test,
            cfg.mode,
            cfg.beam_width,
            cfg.plan_budget,
            &pool,
        )
        .unwrap_or_else(|e| panic!("evaluation planning: {e}"));
        let val = evaluate_learned(
            db,
            &eval_env,
            &featurizer,
            model,
            &est,
            workload,
            &split.train,
            cfg.mode,
            cfg.beam_width,
            cfg.plan_budget,
            &pool,
        )
        .unwrap_or_else(|e| panic!("evaluation planning: {e}"));
        (median(&test), median(&val), geo_mean(&val))
    };

    let resume: Option<CheckpointData> = match &cfg.resume_from {
        Some(path) if path.exists() => {
            let data = CheckpointData::load(path)
                .unwrap_or_else(|e| panic!("resume_from {}: {e}", path.display()));
            assert_eq!(
                data.cfg_fingerprint,
                cfg_fp,
                "checkpoint {} was written under a different training/fault/retry \
                 configuration; refusing to silently train a different run",
                path.display()
            );
            Some(data)
        }
        Some(path) => {
            eprintln!(
                "balsa: resume_from {} not found; starting a fresh run",
                path.display()
            );
            None
        }
        None => None,
    };

    let mut model: Box<dyn ValueModel>;
    let mut best_model: Box<dyn ValueModel>;
    let mut best_is_residual: bool;
    let mut best_val: f64;
    let mut best_lat: HashMap<usize, f64>;
    let mut rng: SmallRng;
    let mut trajectory: Vec<IterationStats>;
    let mut stats: ResilienceStats;
    let mut window: Vec<f64>;
    let start_iter: usize;

    if let Some(data) = resume {
        // ---- Resume: rebuild the iteration boundary, skip phase 1 ----
        // Features are a pure function of (query, plan); the checkpoint
        // stores compact plan trees and we recompute features here, so
        // the rebuilt buffer is indistinguishable from the original.
        let qmap: HashMap<u64, &Query> =
            workload.queries.iter().map(|q| (query_key(q), q)).collect();
        for e in &data.buffer {
            let q = qmap
                .get(&e.query_key)
                .unwrap_or_else(|| panic!("checkpoint query key {} not in workload", e.query_key));
            let plan = Plan::parse_compact(&e.plan)
                .unwrap_or_else(|err| panic!("checkpoint plan {:?}: {err}", e.plan));
            assert_eq!(
                plan.canonical_hash(),
                e.fingerprint,
                "checkpoint plan does not match its recorded fingerprint"
            );
            let memo = MemoEstimator::new(&est);
            let features = PackedFeatures::pack(&featurizer.featurize_enc(enc, q, &plan, &memo));
            buffer.record(Experience {
                query_key: e.query_key,
                fingerprint: e.fingerprint,
                features,
                plan,
                label_secs: e.label_secs,
                censored: e.censored,
                source: e.source,
            });
        }
        let mut m: Box<dyn ValueModel> = Box::new(ResidualValueModel::new(
            make_model(cfg.model, &featurizer),
            make_model(cfg.model, &featurizer),
        ));
        m.load_state(&data.model_state)
            .unwrap_or_else(|e| panic!("checkpoint model state: {e}"));
        model = m;
        let mut bm: Box<dyn ValueModel> = if data.best_is_residual {
            Box::new(ResidualValueModel::new(
                make_model(cfg.model, &featurizer),
                make_model(cfg.model, &featurizer),
            ))
        } else {
            make_model(cfg.model, &featurizer)
        };
        bm.load_state(&data.best_model_state)
            .unwrap_or_else(|e| panic!("checkpoint best-model state: {e}"));
        best_model = bm;
        best_is_residual = data.best_is_residual;
        best_val = data.best_val;
        best_lat = data.best_lat.iter().copied().collect();
        // The vendored xoshiro exposes its word state: the master RNG
        // continues exactly mid-stream, so post-resume fits draw the
        // same shuffles and init the uninterrupted run would have.
        rng = SmallRng::from_state(data.rng_state);
        trajectory = data.trajectory;
        stats = data.resilience;
        window = data.fallback_window;
        start_iter = data.iteration + 1;
        // Restore the plan cache and counters. The clock is wall-derived
        // state and is not checkpointed; pin the snapshot's clock to the
        // live reading so the restore charges nothing.
        let mut snap = data.env;
        snap.clock_secs = env.elapsed_secs();
        env.restore(&snap);
    } else {
        // ---- Phase 1: simulation pretraining (§4.1) ----
        // Plan collection stays serial: `random_plan` consumes the master
        // RNG, whose stream is part of the reproducibility contract. The
        // expensive per-subplan featurization is pure, so it fans out on
        // the pool and the experiences are recorded serially in the same
        // (query, plan, subplan) order as the historical serial loop.
        let mut pre = probe;
        rng = SmallRng::seed_from_u64(cfg.seed);
        let cout = CoutModel;
        stats = ResilienceStats::default();
        let mut sim_jobs: Vec<(usize, Vec<Arc<Plan>>)> = Vec::with_capacity(split.train.len());
        for &qi in &split.train {
            let q = &workload.queries[qi];
            let memo = MemoEstimator::new(&est);
            // A finite budget degrades through the fallback chain; an
            // Err means the query has no plan at all (disconnected
            // graph) — skip it honestly rather than crash the run. The
            // skip happens before this query's random-plan draws, so it
            // cannot perturb other queries' RNG consumption.
            let dp = match DpPlanner::new(db, &cout, &memo, cfg.mode)
                .with_budget(cfg.plan_budget)
                .try_plan(q)
            {
                Ok(p) => p,
                Err(e) => {
                    stats.planner_errors += 1;
                    eprintln!("balsa: pretraining: {e}; skipping query");
                    continue;
                }
            };
            if dp.stats.degraded_levels > 0 {
                stats.planner_degraded += 1;
            }
            if dp.stats.budget_exhausted {
                stats.planner_exhausted += 1;
            }
            env.charge_planning(dp.planning_secs);
            let mut plans = vec![dp.plan];
            for _ in 0..cfg.sim_random_plans {
                plans.push(random_plan(db, q, cfg.mode, &mut rng));
            }
            sim_jobs.push((qi, plans));
        }
        let t_feat = Instant::now();
        let featurized = pool.map(&sim_jobs, |_, (qi, plans)| {
            let q = &workload.queries[*qi];
            // A fresh memo per job: estimates are pure functions of the
            // base estimator, so labels match the serial loop exactly.
            let memo = MemoEstimator::new(&est);
            let mut exps = Vec::new();
            for plan in plans {
                sim_labels(
                    &featurizer,
                    enc,
                    q,
                    plan,
                    &memo,
                    profile.time_per_work,
                    profile.startup_secs,
                    &mut exps,
                );
            }
            exps
        });
        breakdown.featurize_secs += t_feat.elapsed().as_secs_f64();
        for exps in featurized {
            for e in exps {
                buffer.record(e);
            }
        }
        let report = pre.fit(
            buffer.train_set(LabelSource::Simulated),
            &cfg.pretrain_sgd,
            &mut rng,
        );
        env.charge_update(report.steps);
        breakdown.forward_secs += report.forward_secs;
        breakdown.backward_secs += report.backward_secs;

        let (test_median, val_median, val_geo) = eval_point(&*pre);
        best_model = pre.clone_box();
        best_is_residual = false;
        best_val = val_geo;
        trajectory = vec![IterationStats {
            iteration: 0,
            sim_hours: env.elapsed_secs() / 3600.0,
            train_median_secs: f64::NAN,
            test_median_secs: test_median,
            timeouts: 0,
            buffer_real: buffer.count(LabelSource::Real),
            buffer_sim: buffer.count(LabelSource::Simulated),
            fit_mse: report.mse,
            val_median_secs: val_median,
            val_geo_mean_secs: val_geo,
            faults: 0,
            retries: 0,
            abandoned: 0,
            fallback: false,
        }];

        // Residual scheme ([`ResidualValueModel`]): the pretrained model
        // is frozen as the base; a correction model of the same family is
        // trained on real-execution residual labels (`ln latency − base
        // prediction`), and the deployed model is their sum. Iteration 1
        // therefore starts exactly at the pretrained policy, and
        // fine-tuning moves it only where real evidence pulls — the
        // stable counterpart of the paper's sim-to-real transfer.
        model = Box::new(ResidualValueModel::new(
            pre,
            make_model(cfg.model, &featurizer),
        ));
        best_lat = HashMap::new();
        window = Vec::new();
        start_iter = 1;
    }

    // ---- Phase 2: real-execution fine-tuning (§4.2–§4.3) ----
    // The pool is persistent: when the two phases are configured to the
    // same width, share one set of parked workers instead of spawning a
    // second pool (clones share workers).
    let exec_pool = if cfg.training_threads == cfg.planning_threads {
        pool.clone()
    } else {
        WorkerPool::new(cfg.training_threads)
    };
    for iter in start_iter..=cfg.iterations {
        // Graceful degradation: when the recent failure+timeout rate
        // exceeds the threshold, plan this iteration with expert DP
        // instead of the learned beam — recorded, never silent.
        let use_fallback = cfg.fallback_window > 0
            && window.len() >= cfg.fallback_window
            && window.iter().sum::<f64>() / window.len() as f64 > cfg.fallback_threshold;
        if use_fallback {
            stats.fallback_iterations += 1;
            eprintln!(
                "balsa: iteration {iter}: failure rate {:.3} over the last {} iterations \
                 exceeds {:.3}; planning with the expert DP fallback",
                window.iter().sum::<f64>() / window.len() as f64,
                window.len(),
                cfg.fallback_threshold
            );
        }
        // Linear epsilon decay: full exploration early, pure greed last.
        let epsilon = if cfg.iterations > 1 {
            cfg.epsilon * (1.0 - (iter - 1) as f64 / (cfg.iterations - 1) as f64)
        } else {
            cfg.epsilon
        };
        // (a) Plan every training query on the worker pool. Each query's
        // exploration RNG is seeded by (seed, iteration, query id) inside
        // the beam, and results come back in split order, so this is
        // bit-identical to the serial loop for any thread count — and
        // swapping the beam for the DP fallback consumes nothing from the
        // master RNG stream either way.
        let model_ref: &dyn ValueModel = &*model;
        let planned_res: Vec<PlannedOrErr> = if use_fallback {
            let expert = ExpertCostModel::new(db.clone(), profile.weights);
            pool.map_init(
                &split.train,
                || DpPlanner::new(db, &expert, &est, cfg.mode).with_budget(cfg.plan_budget),
                |planner, _, &qi| planner.try_plan(&workload.queries[qi]),
            )
        } else {
            pool.map(&split.train, |_, &qi| {
                let q = &workload.queries[qi];
                let scorer = LearnedScorer::new(&featurizer, model_ref, &est);
                BeamPlanner::new(db, &scorer, cfg.mode, cfg.beam_width)
                    .with_budget(cfg.plan_budget)
                    .with_exploration(epsilon, cfg.seed ^ ((iter as u64) << 44))
                    .try_plan(q)
            })
        };
        // Planner errors (only possible for queries with no plan at
        // all) drop the query from this iteration — surfaced on stderr
        // and counted, never silently masked. `train_idx` keeps the
        // surviving (query, plan) pairs aligned in split order.
        let mut iter_res = ResilienceStats::default();
        let mut train_idx: Vec<usize> = Vec::with_capacity(split.train.len());
        let mut planned = Vec::with_capacity(split.train.len());
        for (&qi, res) in split.train.iter().zip(planned_res) {
            match res {
                Ok(p) => {
                    if p.stats.degraded_levels > 0 {
                        iter_res.planner_degraded += 1;
                    }
                    if p.stats.budget_exhausted {
                        iter_res.planner_exhausted += 1;
                    }
                    train_idx.push(qi);
                    planned.push(p);
                }
                Err(e) => {
                    iter_res.planner_errors += 1;
                    eprintln!("balsa: iteration {iter}: {e}; skipping query");
                }
            }
        }
        // The clock advances by the phase's parallel makespan, not the
        // serial sum — planning wall-clock is what the paper charges.
        let plan_secs: Vec<f64> = planned.iter().map(|p| p.planning_secs).collect();
        env.charge_planning_parallel(&plan_secs, pool.threads());

        // (b) Execute on the execution pool, each query under the retry
        // policy. Budgets are precomputed: each query appears once per
        // iteration, so its budget depends only on prior iterations and
        // matches the serial loop's. Latencies, labels, fault draws
        // (stateless, keyed), and cache decisions are deterministic per
        // (query, plan, attempt) and the keys are distinct within the
        // batch, so any thread count observes the serial outcomes;
        // results fold back in split order and the clock is charged the
        // batch's parallel makespan once.
        let budgets: Vec<Option<f64>> = train_idx
            .iter()
            .map(|qi| best_lat.get(qi).map(|b| b * cfg.timeout_factor))
            .collect();
        let jobs: Vec<usize> = (0..train_idx.len()).collect();
        let t_exec = Instant::now();
        let executed = exec_pool.map(&jobs, |_, &j| {
            let q = &workload.queries[train_idx[j]];
            env.execute_labeled_retry_uncharged(q, &planned[j].plan, budgets[j], &cfg.retry)
                .expect("plan must be executable")
        });
        breakdown.truecard_secs += t_exec.elapsed().as_secs_f64();
        let mut lats = Vec::with_capacity(train_idx.len());
        let mut timeouts = 0usize;
        let mut charged = Vec::with_capacity(train_idx.len());
        let mut label_jobs: Vec<(usize, Vec<SubtreeObs>)> = Vec::with_capacity(train_idx.len());
        for (&qi, report) in train_idx.iter().zip(executed) {
            iter_res.merge(&report.stats);
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
                    timeouts += 1;
                } else {
                    let e = best_lat.entry(qi).or_insert(f64::INFINITY);
                    *e = e.min(outcome.latency_secs);
                }
                lats.push(outcome.latency_secs);
                label_jobs.push((qi, labels));
            }
        }
        env.charge_execution_batch(&charged);
        // Backoff waits are wall the training run really spends sitting
        // idle before a retry — charged raw (the retrying slot cannot
        // overlap its own backoff). Zero, and bit-neutral, fault-free.
        env.charge_raw(iter_res.backoff_secs_charged);
        if cfg.fallback_window > 0 {
            // Planner errors count as failures: a query that could not
            // even plan is as failed as one that timed out.
            window.push(
                (timeouts as f64 + iter_res.abandoned as f64 + iter_res.planner_errors as f64)
                    / split.train.len() as f64,
            );
            if window.len() > cfg.fallback_window {
                window.remove(0);
            }
        }

        // (c) Featurize all subtree labels on the pool, (d) record into
        // the buffer serially in the same (query, subtree) order as the
        // serial loop — the experience stream is order-sensitive
        // (dedup/best-label retention), the featurization is pure.
        let t_feat = Instant::now();
        let featurized = pool.map(&label_jobs, |_, (qi, labels)| {
            let q = &workload.queries[*qi];
            let qk = query_key(q);
            let memo = MemoEstimator::new(&est);
            labels
                .iter()
                .map(|l| Experience {
                    query_key: qk,
                    // Frozen key — see `record_sim_labels`.
                    fingerprint: l.plan.canonical_hash(),
                    features: PackedFeatures::pack(
                        &featurizer.featurize_enc(enc, q, &l.plan, &memo),
                    ),
                    plan: l.plan.clone(),
                    label_secs: l.latency_secs,
                    censored: l.censored,
                    source: LabelSource::Real,
                })
                .collect::<Vec<_>>()
        });
        breakdown.featurize_secs += t_feat.elapsed().as_secs_f64();
        for exps in featurized {
            for e in exps {
                buffer.record(e);
            }
        }
        // The residual wrapper subtracts the frozen base's predictions
        // and fits only the correction.
        let report = model.fit(
            buffer.train_set(LabelSource::Real),
            &cfg.finetune_sgd,
            &mut rng,
        );
        env.charge_update(report.steps);
        breakdown.forward_secs += report.forward_secs;
        breakdown.backward_secs += report.backward_secs;

        let (test_median, val_median, val_geo) = eval_point(&*model);
        if val_geo < best_val || best_val.is_nan() {
            best_val = val_geo;
            best_model = model.clone_box();
            best_is_residual = true;
        }
        stats.merge(&iter_res);
        trajectory.push(IterationStats {
            iteration: iter,
            sim_hours: env.elapsed_secs() / 3600.0,
            train_median_secs: median(&lats),
            test_median_secs: test_median,
            timeouts,
            buffer_real: buffer.count(LabelSource::Real),
            buffer_sim: buffer.count(LabelSource::Simulated),
            fit_mse: report.mse,
            val_median_secs: val_median,
            val_geo_mean_secs: val_geo,
            faults: iter_res.faults_injected,
            retries: iter_res.retries,
            abandoned: iter_res.abandoned,
            fallback: use_fallback,
        });

        if cfg.checkpoint_every > 0 && iter % cfg.checkpoint_every == 0 {
            if let Some(path) = &cfg.checkpoint_path {
                let mut best_lat_sorted: Vec<(usize, f64)> =
                    best_lat.iter().map(|(&k, &v)| (k, v)).collect();
                best_lat_sorted.sort_by_key(|&(k, _)| k);
                let data = CheckpointData {
                    cfg_fingerprint: cfg_fp,
                    iteration: iter,
                    rng_state: rng.state(),
                    model_state: model.state_vec(),
                    best_is_residual,
                    best_model_state: best_model.state_vec(),
                    best_val,
                    best_lat: best_lat_sorted,
                    fallback_window: window.clone(),
                    buffer: buffer
                        .sorted_entries()
                        .iter()
                        .map(|e| BufferEntry {
                            query_key: e.query_key,
                            fingerprint: e.fingerprint,
                            plan: e.plan.encode_compact(),
                            label_secs: e.label_secs,
                            censored: e.censored,
                            source: e.source,
                        })
                        .collect(),
                    env: env.snapshot(),
                    trajectory: trajectory.clone(),
                    resilience: stats,
                };
                data.save_atomic(path)
                    .unwrap_or_else(|e| panic!("checkpoint write {}: {e}", path.display()));
            }
        }
        // Test hook: the process "dies" right after this iteration's
        // checkpoint hit disk.
        if cfg.halt_after == Some(iter) {
            break;
        }
    }

    TrainOutcome {
        model: best_model,
        trajectory,
        buffer,
        breakdown,
        resilience: stats,
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
}
