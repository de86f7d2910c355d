//! The two training workloads: `train-treeconv` (time-to-learn for the
//! paper's model on a clean engine) and `train-linear-hostile` (the
//! linear model under faults, plan budgets, a kill and a resume).
//!
//! Both time `train_loop` — fixed work — from cold, twice, and the
//! faster run counts; then they serve the job queries greedily with the
//! selected model. `run_s` is that train wall plus one serve pass.

use crate::harness::{
    expert_reference, hostile_threads, ops_for, run_pass, serve, verify_and_execute, Args, Base,
    Expert, Failures, Measured, Report, Sizes,
};
use crate::metrics::Layers;
use crate::replay;
use crate::serving::{finish_trace, serve_learned_traced, serving_failures};
use crate::stats::{median, undisturbed};
use crate::trace::Tracer;
use balsa_card::HistogramEstimator;
use balsa_engine::{EngineProfile, ExecutionEnv, FaultConfig, RetryPolicy};
use balsa_learn::{
    train_loop, Featurizer, LearnedScorer, ModelKind, OptimizerKind, SgdConfig, TrainBreakdown,
    TrainConfig, TrainOutcome,
};
use balsa_query::{Query, Split};
use balsa_search::{BeamPlanner, PlanBudget, SearchMode};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

const HOSTILE_FAULTS: &str =
    "seed=7,transient=0.05,crash=0.02,spike=0.02,spike_factor=4,hang=0.01,restart=0.05";
const HOSTILE_BUDGET: &str = "work=20000,memo=2000";

/// What distinguishes the two workloads.
struct Spec {
    model: ModelKind,
    threads: usize,
    faults: Option<FaultConfig>,
    budget: PlanBudget,
    /// Kill after this iteration and resume from the checkpoint.
    halt_after: Option<usize>,
}

impl Spec {
    fn treeconv() -> Self {
        Self {
            model: ModelKind::TreeConv,
            threads: 1,
            faults: None,
            budget: PlanBudget::UNLIMITED,
            halt_after: None,
        }
    }

    fn linear_hostile(sizes: &Sizes) -> Self {
        Self {
            model: ModelKind::Linear,
            threads: hostile_threads(),
            faults: Some(FaultConfig::parse(HOSTILE_FAULTS).expect("fault spec parses")),
            budget: PlanBudget::parse(HOSTILE_BUDGET).expect("budget spec parses"),
            halt_after: Some(sizes.linear_halt_after),
        }
    }

    /// Every field set here; nothing is read from the environment.
    fn config(&self, seed: u64, sizes: &Sizes) -> TrainConfig {
        let base = TrainConfig {
            model: self.model,
            mode: SearchMode::Bushy,
            beam_width: sizes.beam_width,
            seed,
            planning_threads: self.threads,
            training_threads: self.threads,
            retry: RetryPolicy::default(),
            plan_budget: self.budget,
            ..TrainConfig::default()
        };
        match self.model {
            // The `bench_learning` Adam rates; pretraining sized as in
            // `beam-learned`.
            ModelKind::TreeConv => TrainConfig {
                iterations: sizes.treeconv_iterations,
                sim_random_plans: sizes.pretrain.0,
                pretrain_sgd: SgdConfig {
                    optimizer: OptimizerKind::Adam,
                    lr: 0.002,
                    epochs: sizes.pretrain.1,
                    ..base.pretrain_sgd
                },
                finetune_sgd: SgdConfig {
                    optimizer: OptimizerKind::Adam,
                    lr: 0.001,
                    epochs: sizes.treeconv_finetune_epochs,
                    ..base.finetune_sgd
                },
                ..base
            },
            // Plain SGD at the library defaults.
            ModelKind::Linear => TrainConfig {
                iterations: sizes.linear_iterations,
                pretrain_sgd: SgdConfig {
                    optimizer: OptimizerKind::Sgd,
                    ..base.pretrain_sgd
                },
                finetune_sgd: SgdConfig {
                    optimizer: OptimizerKind::Sgd,
                    ..base.finetune_sgd
                },
                ..base
            },
        }
    }

    fn env(&self, base: &Base) -> ExecutionEnv {
        let env = ExecutionEnv::postgres_sim(base.db.clone());
        match self.faults {
            Some(faults) => env.with_faults(faults),
            None => env,
        }
    }
}

struct TrainCtx<'a> {
    base: &'a Base,
    queries: Vec<&'a Query>,
    split: Split,
    /// Expert plans and latencies for all job queries.
    expert: Expert,
}

fn train_with_setup<R>(
    args: &Args,
    sizes: &Sizes,
    body: impl FnOnce(&TrainCtx<'_>, f64) -> R,
) -> R {
    let t = Instant::now();
    let base = Base::new(args.seed, sizes);
    let queries: Vec<&Query> = base.job.queries.iter().collect();
    let split = Split::random(queries.len(), sizes.held_out, args.seed);
    let expert = expert_reference(&base.db, &queries, SearchMode::Bushy);
    let ctx = TrainCtx {
        base: &base,
        queries,
        split,
        expert,
    };
    body(&ctx, t.elapsed().as_secs_f64())
}

/// A finished training run and what the harness timed around it.
struct Trained {
    outcome: TrainOutcome,
    cfg: TrainConfig,
    /// One breakdown per `train_loop` call (two when killed and resumed).
    breakdowns: Vec<TrainBreakdown>,
    loop_s: f64,
    sim_clock_s: f64,
    checkpoint: Option<PathBuf>,
}

/// Runs `train_loop` on a cold environment; under `halt_after`, kills
/// it there and resumes from the checkpoint on another cold environment
/// — the process that died took its caches with it.
fn train(spec: &Spec, ctx: &TrainCtx<'_>, args: &Args, sizes: &Sizes) -> Trained {
    let mut cfg = spec.config(args.seed, sizes);
    let checkpoint = spec.halt_after.map(|_| {
        let dir = crate::out_dir();
        let path = dir.join(format!(
            "checkpoint-{}-{}-{}.txt",
            args.workload,
            args.seed,
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        path
    });
    if let Some(path) = &checkpoint {
        cfg.checkpoint_every = 1;
        cfg.checkpoint_path = Some(path.clone());
        cfg.halt_after = spec.halt_after;
    }
    let t = Instant::now();
    let mut env = spec.env(ctx.base);
    let mut outcome = train_loop(&ctx.base.db, &env, &ctx.base.job, &ctx.split, &cfg);
    let mut breakdowns = vec![outcome.breakdown];
    let mut sim_clock_s = env.elapsed_secs();
    if let Some(path) = &checkpoint {
        cfg.halt_after = None;
        cfg.resume_from = Some(path.clone());
        env = spec.env(ctx.base);
        outcome = train_loop(&ctx.base.db, &env, &ctx.base.job, &ctx.split, &cfg);
        breakdowns.push(outcome.breakdown);
        sim_clock_s += env.elapsed_secs();
    }
    Trained {
        outcome,
        cfg,
        breakdowns,
        loop_s: t.elapsed().as_secs_f64(),
        sim_clock_s,
        checkpoint,
    }
}

fn param_bits(outcome: &TrainOutcome) -> Vec<u64> {
    outcome.model.params().iter().map(|p| p.to_bits()).collect()
}

fn measure(spec: &Spec, ctx: &TrainCtx<'_>, args: &Args, sizes: &Sizes, setup_s: &[f64]) -> Report {
    let mut layers = Layers::default();
    let mut failures = Failures::default();
    let tracer = Arc::new(Tracer::new());
    let deadline = Instant::now();
    // Repetitions of the same work, each from cold with the previous
    // run's memory released; a traced run's wall is no end-to-end
    // metric, so it trains once.
    let reps = if args.trace { 1 } else { sizes.loop_reps };
    let mut kept: Option<Trained> = None;
    let mut loop_wall_s = Vec::new();
    let mut params = Vec::new();
    for _ in 0..reps.max(1) {
        drop(kept.take());
        let run = train(spec, ctx, args, sizes);
        loop_wall_s.push(run.loop_s);
        params.push(param_bits(&run.outcome));
        kept = Some(run);
    }
    let trained = kept.expect("train_loop ran at least once");
    failures.add(
        usize::from(params.windows(2).any(|w| w[0] != w[1])),
        "two runs of train_loop selected different models",
    );
    let left_s = args.seconds - deadline.elapsed().as_secs_f64();

    let profile = EngineProfile::postgres_sim();
    let featurizer = Featurizer::new(ctx.base.db.clone(), profile.weights, profile.bushy_hints);
    let est = HistogramEstimator::new(&ctx.base.db);
    let model = &*trained.outcome.model;
    let scorer = LearnedScorer::new(&featurizer, model, &est);
    let planner = BeamPlanner::new(&ctx.base.db, &scorer, SearchMode::Bushy, sizes.beam_width);
    let ops = ops_for(&ctx.queries, &planner);
    run_pass(&ops, None);
    let served = if args.trace {
        let untraced = serve(&ops, sizes.overhead_passes, 0.0, None);
        let traced = serve_learned_traced(
            &ctx.base.db,
            &featurizer,
            &est,
            model,
            &ctx.queries,
            sizes.beam_width,
            sizes.min_passes,
            left_s,
            &tracer,
            &mut layers,
        );
        finish_trace(&mut layers, &mut failures, &traced, &untraced);
        traced
    } else {
        serve(&ops, sizes.min_passes, left_s, None)
    };
    serving_failures(&mut failures, "serve passes", &served);
    let finals = verify_and_execute(&ctx.base.db, &ops, &served.last, false);
    failures.extend(finals.failures.iter().cloned());

    let stats = &trained.outcome.resilience;
    failures.add(
        stats.planner_errors as usize,
        format!("training: {} planner errors", stats.planner_errors),
    );
    failures.add(
        stats.abandoned as usize,
        format!("training: {} abandoned samples", stats.abandoned),
    );
    if spec.halt_after.is_some() {
        let points = trained.outcome.trajectory.len();
        let want = trained.cfg.iterations + 1;
        failures.add(
            usize::from(points != want),
            format!("resumed trajectory has {points} points, not {want}"),
        );
        // A smoke run's dozen executions need not draw a single fault.
        failures.add(
            usize::from(stats.faults_injected == 0 && !args.smoke),
            "no fault was injected",
        );
    }

    if args.trace {
        ctx.base.record(&mut layers);
        layers.set("query.plans_checksum", finals.checksum as f64);
        layers.set("engine.sim_clock_s", trained.sim_clock_s);
        if spec.faults.is_some() {
            layers.set("engine.faults.injected", stats.faults_injected as f64);
            layers.set("engine.retry.attempts", stats.retries as f64);
            layers.set("engine.retry.censored", stats.exhausted_censored as f64);
            layers.set("engine.retry.abandoned", stats.abandoned as f64);
            layers.set("engine.backoff_sim_s", stats.backoff_secs_charged);
        }
        // The paper's protocol: the held-out queries alone.
        let held_out =
            |lat: &[f64]| -> Vec<f64> { ctx.split.test.iter().map(|&i| lat[i]).collect() };
        let (learned, expert) = (held_out(&finals.latency_s), held_out(&ctx.expert.latency_s));
        layers.set("engine.exec.heldout_sum_s", learned.iter().sum());
        layers.set_ratio(
            "learn.eval.heldout_sum_ratio",
            learned.iter().sum(),
            expert.iter().sum(),
        );
        layers.set_ratio("learn.eval.median_ratio", median(&learned), median(&expert));
        replay::plans(&mut layers, &tracer, &ctx.base.db, &ops, &served.last);
        replay::featurize(
            &mut layers,
            &tracer,
            &featurizer,
            &est,
            model,
            &ops,
            &served.last,
        );
        replay::training(
            &mut layers,
            &tracer,
            &featurizer,
            &trained.outcome,
            &trained.cfg,
            &trained.breakdowns,
            trained.loop_s,
        );
        replay::pool_dispatch(&mut layers, &tracer, spec.threads);
        if !spec.budget.is_unlimited() {
            failures.extend(replay::fallback(
                &mut layers,
                &tracer,
                &ctx.base.db,
                &ctx.queries,
                spec.budget,
            ));
        }
        if let Some(path) = &trained.checkpoint {
            if let Err(e) = replay::checkpoint(&mut layers, &tracer, path) {
                failures.add(1, format!("checkpoint replay: {e}"));
            }
        }
        crate::write_trace(&args.workload, &tracer, &mut layers);
    }
    if let Some(path) = &trained.checkpoint {
        let _ = std::fs::remove_file(path);
    }
    let measured = Measured {
        setup_s,
        run_s: undisturbed(&loop_wall_s) + served.pass_s(),
        served: &served,
        finals: &finals,
        expert_latency_s: &ctx.expert.latency_s,
        threads: spec.threads,
    };
    let mut report = Report::new(measured, layers, failures);
    report.loop_wall_s = loop_wall_s;
    report
}

fn run(spec: &Spec, args: &Args, sizes: &Sizes) -> Report {
    let mut setup_s: Vec<f64> = (1..sizes.setup_reps)
        .map(|_| train_with_setup(args, sizes, |_, s| s))
        .collect();
    train_with_setup(args, sizes, |ctx, s| {
        setup_s.push(s);
        measure(spec, ctx, args, sizes, &setup_s)
    })
}

pub fn train_treeconv(args: &Args) -> Report {
    let sizes = Sizes::of(args.smoke);
    run(&Spec::treeconv(), args, &sizes)
}

pub fn train_linear_hostile(args: &Args) -> Report {
    let sizes = Sizes::of(args.smoke);
    run(&Spec::linear_hostile(&sizes), args, &sizes)
}
