//! The two serving workloads — `dp-expert` and `beam-learned` — and the
//! per-layer ledger every traced serving phase (theirs and the training
//! workloads') derives from the tracer.

use crate::decorate::{
    TracedCostModel, TracedEstimator, TracedPlanner, TracedScorer, TracedValueModel, SCORER_BATCH,
    SEARCH_BEAM, SEARCH_DP,
};
use crate::harness::{
    expert_reference, ops_for, run_pass, serve, verify_and_execute, Args, Base, Expert, Failures,
    Measured, Op, Report, Served, Sizes, PASS,
};
use crate::metrics::Layers;
use crate::replay;
use crate::trace::{Hot, Tracer};
use balsa_card::{CardEstimator, HistogramEstimator};
use balsa_cost::{CostScorer, ExpertCostModel};
use balsa_engine::{EngineProfile, ExecutionEnv};
use balsa_learn::{
    train_loop, Featurizer, LearnedScorer, ModelKind, OptimizerKind, SgdConfig, TrainConfig,
    TrainOutcome, ValueModel,
};
use balsa_query::workloads::job_workload;
use balsa_query::{Query, Split};
use balsa_search::{
    BeamPlanner, DpPlanner, GreedyLeftDeepPlanner, Planner, SearchMode, SubmaskDpPlanner,
};
use balsa_storage::Database;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;
use std::time::Instant;

/// Which planner family a serving phase's `SearchStats` belong to.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Family {
    Dp,
    Beam,
}

/// Derives the card / cost / search / scorer / model rows from what the
/// decorators recorded during the traced passes.
///
/// Counts and times are **per pass**: the passes do identical work and
/// `--seconds` decides how many fit, so only per-pass counts repeat
/// exactly from run to run.
pub fn record_ledger(
    layers: &mut Layers,
    tracer: &Tracer,
    family: Family,
    served: &Served,
    scorer_candidates: u64,
) {
    let passes = served.passes() as f64;
    let stats = &served.stats;
    let mut per_pass = |name: &'static str, total: f64| layers.set(name, total / passes);
    let secs = |ns: u64| ns as f64 * 1e-9;
    let pass = tracer.span_totals(PASS);
    per_pass("bench.traced_wall_s", pass.busy_s());
    per_pass("bench.harness_self_s", pass.self_s());

    let card = tracer.hot_totals(Hot::Card);
    if card.calls > 0 {
        per_pass("card.calls", card.calls as f64);
        per_pass("card.busy_s", card.busy_s());
    }

    let open = tracer.hot_totals(Hot::CostSessionOpen);
    let work = tracer.hot_totals(Hot::CostWorkOut);
    let summary = tracer.hot_totals(Hot::CostSummary);
    let costed = open.calls + work.calls + summary.calls > 0;
    if costed {
        per_pass("cost.sessions", open.calls as f64);
        per_pass("cost.session_open_s", open.busy_s());
        per_pass("cost.work_out_calls", work.calls as f64);
        per_pass("cost.work_out_s", work.busy_s());
        per_pass("cost.summary_calls", summary.calls as f64);
        per_pass("cost.summary_s", summary.busy_s());
    }

    match family {
        Family::Dp => {
            let dp = tracer.span_totals(SEARCH_DP);
            per_pass("search.dp.calls", dp.calls as f64);
            per_pass("search.dp.busy_s", dp.busy_s());
            per_pass("search.dp.self_s", dp.self_s());
            per_pass("search.dp.pairs", stats.pairs as f64);
            per_pass("search.dp.states", stats.states as f64);
            per_pass("search.dp.candidates", stats.candidates as f64);
            per_pass("search.dp.cost_calls", stats.cost_calls as f64);
        }
        Family::Beam => {
            let beam = tracer.span_totals(SEARCH_BEAM);
            per_pass("search.beam.calls", beam.calls as f64);
            per_pass("search.beam.busy_s", beam.busy_s());
            per_pass("search.beam.self_s", beam.self_s());
            per_pass("search.beam.candidates", stats.candidates as f64);
            per_pass("search.beam.states", stats.states as f64);
            per_pass("search.beam.score_s", stats.score_secs);
            per_pass("search.beam.dedup_s", stats.dedup_secs);
        }
    }

    let batch = tracer.span_totals(SCORER_BATCH);
    let scorer_ns = batch.busy_ns
        + tracer.hot_totals(Hot::ScorerSingle).busy_ns
        + tracer.hot_totals(Hot::ScorerOpen).busy_ns;
    if scorer_candidates > 0 {
        per_pass("learn.scorer.batch_calls", batch.calls as f64);
        per_pass("learn.scorer.candidates", scorer_candidates as f64);
        per_pass("learn.scorer.busy_s", secs(scorer_ns));
    }
    let infer = tracer.hot_totals(Hot::ModelInfer);
    if infer.calls > 0 {
        per_pass("learn.model.infer_calls", infer.calls as f64);
        per_pass("learn.model.infer_s", infer.busy_s());
    }

    // Ratios need no scaling (`set_ratio` skips a zero base).
    layers.set_ratio("card.ns_per_call", card.busy_ns as f64, card.calls as f64);
    layers.set_ratio(
        "cost.ns_per_work_out",
        work.busy_ns as f64,
        work.calls as f64,
    );
    if costed {
        layers.set_ratio(
            "cost.share",
            secs(open.busy_ns + work.busy_ns + summary.busy_ns),
            pass.busy_s(),
        );
    }
    let (candidates, kept) = (stats.candidates as f64, stats.states as f64);
    match family {
        Family::Dp => layers.set_ratio(
            "search.dp.pruned_ratio",
            candidates - stats.cost_calls as f64,
            candidates,
        ),
        Family::Beam => layers.set_ratio("search.beam.dedup_ratio", kept, candidates),
    }
    layers.set_ratio(
        "learn.scorer.ns_per_candidate",
        scorer_ns as f64,
        scorer_candidates as f64,
    );
}

/// The failures every serving phase checks for.
pub fn serving_failures(failures: &mut Failures, what: &str, served: &Served) {
    failures.add(
        served.planner_errors,
        format!("{what}: {} planner errors", served.planner_errors),
    );
    failures.add(
        served.unstable_ops,
        format!(
            "{what}: {} ops changed plan between passes",
            served.unstable_ops
        ),
    );
}

/// Serves `queries` greedily through a beam over `model`, with every
/// trait object on the path decorated: warm-up pass, reset, traced
/// passes, ledger.
#[allow(clippy::too_many_arguments)]
pub fn serve_learned_traced(
    db: &Database,
    featurizer: &Featurizer,
    est: &dyn CardEstimator,
    model: &dyn ValueModel,
    queries: &[&Query],
    width: usize,
    min_passes: usize,
    seconds: f64,
    tracer: &Arc<Tracer>,
    layers: &mut Layers,
) -> Served {
    let model = TracedValueModel {
        inner: model.clone_box(),
        tracer: tracer.clone(),
    };
    let est = TracedEstimator { inner: est, tracer };
    let learned = LearnedScorer::new(featurizer, &model, &est);
    let scorer = TracedScorer::new(&learned, tracer);
    let planner = TracedPlanner {
        inner: Box::new(BeamPlanner::new(db, &scorer, SearchMode::Bushy, width)),
        tracer,
        span: SEARCH_BEAM,
    };
    let ops = ops_for(queries, &planner);
    run_pass(&ops, None);
    tracer.reset();
    scorer.candidates.store(0, Relaxed);
    let served = serve(&ops, min_passes, seconds, Some(tracer));
    let candidates = scorer.candidates.load(Relaxed);
    record_ledger(layers, tracer, Family::Beam, &served, candidates);
    served
}

/// The shared tail of a traced serving run: overhead against the
/// untraced passes, decorated ≡ undecorated plans, and the trace file.
pub fn finish_trace(
    layers: &mut Layers,
    failures: &mut Failures,
    traced: &Served,
    untraced: &Served,
) {
    layers.set_ratio(
        "bench.trace_overhead_ratio",
        traced.pass_s(),
        untraced.pass_s(),
    );
    serving_failures(failures, "untraced passes", untraced);
    let hashes = |s: &Served| -> Vec<Option<u64>> {
        s.last
            .iter()
            .map(|p| p.as_ref().map(|p| p.plan.canonical_hash()))
            .collect()
    };
    failures.add(
        usize::from(hashes(traced) != hashes(untraced)),
        "decorated and undecorated planners chose different plans",
    );
}

// ---------------------------------------------------------------------
// dp-expert
// ---------------------------------------------------------------------

const MODES: [SearchMode; 2] = [SearchMode::Bushy, SearchMode::LeftDeep];

struct DpCtx<'a> {
    base: &'a Base,
    queries: Vec<&'a Query>,
    est: &'a HistogramEstimator<'a>,
    model: &'a ExpertCostModel,
    /// Bushy then left-deep, each over all queries; already warm.
    ops: Vec<Op<'a>>,
    /// The reference, in the order of `ops`.
    expert: Expert,
}

fn dp_with_setup<R>(args: &Args, sizes: &Sizes, body: impl FnOnce(&DpCtx<'_>, f64) -> R) -> R {
    let t = Instant::now();
    let base = Base::new(args.seed, sizes);
    let queries = base.all_queries();
    let est = HistogramEstimator::new(&base.db);
    let model = ExpertCostModel::new(base.db.clone(), EngineProfile::postgres_sim().weights);
    let mut expert = expert_reference(&base.db, &queries, MODES[0]);
    let left_deep = expert_reference(&base.db, &queries, MODES[1]);
    expert.planned.extend(left_deep.planned);
    expert.latency_s.extend(left_deep.latency_s);
    let planners = MODES.map(|mode| DpPlanner::new(&base.db, &model, &est, mode));
    let ops: Vec<Op<'_>> = planners.iter().flat_map(|p| ops_for(&queries, p)).collect();
    run_pass(&ops, None);
    let ctx = DpCtx {
        base: &base,
        queries,
        est: &est,
        model: &model,
        ops,
        expert,
    };
    body(&ctx, t.elapsed().as_secs_f64())
}

/// DP cost ≤ greedy cost on every op, equal to the submask-scan
/// oracle's cost bits on the small queries, and equal to the set-up
/// reference's. Outside every timer.
fn dp_oracle_failures(ctx: &DpCtx<'_>, served: &Served) -> Vec<String> {
    let mut out = Vec::new();
    let scorer = CostScorer::new(ctx.model, ctx.est);
    let n = ctx.queries.len();
    for (i, (op, dp)) in ctx.ops.iter().zip(&served.last).enumerate() {
        let (q, mode) = (op.query, MODES[i / n]);
        let Some(dp) = dp else { continue };
        if dp.cost.to_bits() != ctx.expert.planned[i].cost.to_bits() {
            out.push(format!(
                "{} {mode:?}: differs from the set-up reference",
                q.name
            ));
        }
        match GreedyLeftDeepPlanner::new(&ctx.base.db, &scorer, mode).try_plan(q) {
            Ok(g) if dp.cost <= g.cost => {}
            Ok(g) => out.push(format!(
                "{} {mode:?}: DP cost {} above greedy cost {}",
                q.name, dp.cost, g.cost
            )),
            Err(e) => out.push(format!("{} {mode:?}: greedy: {e}", q.name)),
        }
        if q.num_tables() <= 8 {
            match SubmaskDpPlanner::new(&ctx.base.db, ctx.model, ctx.est, mode).try_plan(q) {
                Ok(o) if o.cost.to_bits() == dp.cost.to_bits() => {}
                Ok(o) => out.push(format!(
                    "{} {mode:?}: DP cost {} differs from the submask oracle's {}",
                    q.name, dp.cost, o.cost
                )),
                Err(e) => out.push(format!("{} {mode:?}: submask oracle: {e}", q.name)),
            }
        }
    }
    out
}

fn dp_measure(ctx: &DpCtx<'_>, args: &Args, sizes: &Sizes, setup_s: &[f64]) -> Report {
    let mut layers = Layers::default();
    let mut failures = Failures::default();
    let tracer = Tracer::new();
    let served = if args.trace {
        let untraced = serve(&ctx.ops, sizes.overhead_passes, 0.0, None);
        let est = TracedEstimator {
            inner: ctx.est,
            tracer: &tracer,
        };
        let model = TracedCostModel {
            inner: ctx.model,
            tracer: &tracer,
        };
        let planners = MODES.map(|mode| TracedPlanner {
            inner: Box::new(DpPlanner::new(&ctx.base.db, &model, &est, mode)),
            tracer: &tracer,
            span: SEARCH_DP,
        });
        let ops: Vec<Op<'_>> = planners
            .iter()
            .flat_map(|p| ops_for(&ctx.queries, p))
            .collect();
        run_pass(&ops, None);
        tracer.reset();
        let traced = serve(&ops, sizes.min_passes, args.seconds, Some(&tracer));
        record_ledger(&mut layers, &tracer, Family::Dp, &traced, 0);
        finish_trace(&mut layers, &mut failures, &traced, &untraced);
        traced
    } else {
        serve(&ctx.ops, sizes.min_passes, args.seconds, None)
    };
    serving_failures(&mut failures, "timed passes", &served);
    let finals = verify_and_execute(&ctx.base.db, &ctx.ops, &served.last, true);
    failures.extend(finals.failures.iter().cloned());
    failures.extend(dp_oracle_failures(ctx, &served));
    if args.trace {
        ctx.base.record(&mut layers);
        layers.set("query.plans_checksum", finals.checksum as f64);
        layers.set("engine.sim_clock_s", finals.env.elapsed_secs());
        replay::plans(&mut layers, &tracer, &ctx.base.db, &ctx.ops, &served.last);
        crate::write_trace(&args.workload, &tracer, &mut layers);
    }
    let measured = Measured {
        setup_s,
        run_s: served.pass_s(),
        served: &served,
        finals: &finals,
        expert_latency_s: &ctx.expert.latency_s,
        threads: 1,
    };
    Report::new(measured, layers, failures)
}

pub fn dp_expert(args: &Args) -> Report {
    let sizes = Sizes::of(args.smoke);
    let mut setup_s: Vec<f64> = (1..sizes.setup_reps)
        .map(|_| dp_with_setup(args, &sizes, |_, s| s))
        .collect();
    dp_with_setup(args, &sizes, |ctx, s| {
        setup_s.push(s);
        dp_measure(ctx, args, &sizes, &setup_s)
    })
}

// ---------------------------------------------------------------------
// beam-learned
// ---------------------------------------------------------------------

/// Simulation-only pretraining of the tree-conv model: `train_loop`
/// with no fine-tuning iterations, Adam at the `bench_learning` rate.
pub fn pretrain_config(seed: u64, sizes: &Sizes) -> TrainConfig {
    let (sim_random_plans, epochs) = sizes.pretrain;
    TrainConfig {
        model: ModelKind::TreeConv,
        iterations: 0,
        beam_width: sizes.beam_width,
        sim_random_plans,
        pretrain_sgd: SgdConfig {
            optimizer: OptimizerKind::Adam,
            lr: 0.002,
            epochs,
            ..SgdConfig::default()
        },
        seed,
        ..TrainConfig::default()
    }
}

/// `beam-learned` serves `--seed`'s queries with the model as shipped:
/// pretrained on this fixed workload and seed, whatever `--seed` is. A
/// simulation-only model's plan quality swings with its own seed and
/// training constants (1.4x … 2.3x of expert over seeds 1–10, an
/// interquartile spread of 29 %) — wider than any admissible bound —
/// while one shipped model serving fresh constants spreads 7 %.
const SHIPPED_MODEL_SEED: u64 = 7;

struct BeamCtx<'a> {
    base: &'a Base,
    queries: Vec<&'a Query>,
    featurizer: &'a Featurizer,
    est: &'a HistogramEstimator<'a>,
    /// The pretraining run: its model serves, its buffer is replayed.
    pretrained: &'a TrainOutcome,
    pretrain_cfg: &'a TrainConfig,
    pretrain_s: f64,
    /// Beam over the learned scorer, all queries; already warm.
    ops: Vec<Op<'a>>,
    expert: Expert,
}

fn beam_with_setup<R>(args: &Args, sizes: &Sizes, body: impl FnOnce(&BeamCtx<'_>, f64) -> R) -> R {
    let t = Instant::now();
    let base = Base::new(args.seed, sizes);
    let queries = base.all_queries();
    let expert = expert_reference(&base.db, &queries, SearchMode::Bushy);
    let shipped = sizes.strided(job_workload(base.db.catalog(), SHIPPED_MODEL_SEED));
    let split = Split::random(shipped.queries.len(), sizes.held_out, SHIPPED_MODEL_SEED);
    let env = ExecutionEnv::postgres_sim(base.db.clone());
    let cfg = pretrain_config(SHIPPED_MODEL_SEED, sizes);
    let t_pre = Instant::now();
    let pretrained = train_loop(&base.db, &env, &shipped, &split, &cfg);
    let pretrain_s = t_pre.elapsed().as_secs_f64();
    let profile = EngineProfile::postgres_sim();
    let featurizer = Featurizer::new(base.db.clone(), profile.weights, profile.bushy_hints);
    let est = HistogramEstimator::new(&base.db);
    let scorer = LearnedScorer::new(&featurizer, &*pretrained.model, &est);
    let planner = BeamPlanner::new(&base.db, &scorer, SearchMode::Bushy, sizes.beam_width);
    let ops = ops_for(&queries, &planner);
    run_pass(&ops, None);
    let ctx = BeamCtx {
        base: &base,
        queries,
        featurizer: &featurizer,
        est: &est,
        pretrained: &pretrained,
        pretrain_cfg: &cfg,
        pretrain_s,
        ops,
        expert,
    };
    body(&ctx, t.elapsed().as_secs_f64())
}

fn beam_measure(ctx: &BeamCtx<'_>, args: &Args, sizes: &Sizes, setup_s: &[f64]) -> Report {
    let mut layers = Layers::default();
    let mut failures = Failures::default();
    let tracer = Arc::new(Tracer::new());
    let served = if args.trace {
        let untraced = serve(&ctx.ops, sizes.overhead_passes, 0.0, None);
        let traced = serve_learned_traced(
            &ctx.base.db,
            ctx.featurizer,
            ctx.est,
            &*ctx.pretrained.model,
            &ctx.queries,
            sizes.beam_width,
            sizes.min_passes,
            args.seconds,
            &tracer,
            &mut layers,
        );
        finish_trace(&mut layers, &mut failures, &traced, &untraced);
        traced
    } else {
        serve(&ctx.ops, sizes.min_passes, args.seconds, None)
    };
    serving_failures(&mut failures, "timed passes", &served);
    let finals = verify_and_execute(&ctx.base.db, &ctx.ops, &served.last, false);
    failures.extend(finals.failures.iter().cloned());
    if args.trace {
        ctx.base.record(&mut layers);
        layers.set("query.plans_checksum", finals.checksum as f64);
        layers.set("engine.sim_clock_s", finals.env.elapsed_secs());
        replay::plans(&mut layers, &tracer, &ctx.base.db, &ctx.ops, &served.last);
        replay::featurize(
            &mut layers,
            &tracer,
            ctx.featurizer,
            ctx.est,
            &*ctx.pretrained.model,
            &ctx.ops,
            &served.last,
        );
        replay::training(
            &mut layers,
            &tracer,
            ctx.featurizer,
            ctx.pretrained,
            ctx.pretrain_cfg,
            &[ctx.pretrained.breakdown],
            ctx.pretrain_s,
        );
        crate::write_trace(&args.workload, &tracer, &mut layers);
    }
    let measured = Measured {
        setup_s,
        run_s: served.pass_s(),
        served: &served,
        finals: &finals,
        expert_latency_s: &ctx.expert.latency_s,
        threads: 1,
    };
    Report::new(measured, layers, failures)
}

pub fn beam_learned(args: &Args) -> Report {
    let sizes = Sizes::of(args.smoke);
    let mut setup_s: Vec<f64> = (1..sizes.setup_reps)
        .map(|_| beam_with_setup(args, &sizes, |_, s| s))
        .collect();
    beam_with_setup(args, &sizes, |ctx, s| {
        setup_s.push(s);
        beam_measure(ctx, args, &sizes, &setup_s)
    })
}
