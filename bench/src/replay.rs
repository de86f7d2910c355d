//! Replays: layers a traced run cannot reach through a decorator —
//! `train_loop` builds its own model and environment — are timed by
//! calling the same public functions again on the run's own outputs
//! (its final plans, its experience buffer, its checkpoint file). Each
//! replay is one span.

use crate::harness::Op;
use crate::metrics::Layers;
use crate::trace::Tracer;
use balsa_card::{CardEstimator, HistogramEstimator, MemoEstimator};
use balsa_cost::ExpertCostModel;
use balsa_engine::{EngineProfile, ExecutionEnv, SimClock};
use balsa_learn::{
    make_model, CheckpointData, FeatureEncoding, Featurizer, LabelSource, TrainBreakdown,
    TrainConfig, TrainOutcome, ValueModel,
};
use balsa_query::{verify_plan, Plan, Query};
use balsa_search::{DpPlanner, PlanBudget, PlannedQuery, Planner, SearchMode, WorkerPool};
use balsa_storage::Database;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::path::Path;
use std::sync::Arc;

fn pairs<'a>(ops: &[Op<'a>], last: &[Option<PlannedQuery>]) -> Vec<(&'a Query, Arc<Plan>)> {
    ops.iter()
        .zip(last)
        .filter_map(|(op, p)| Some((op.query, p.as_ref()?.plan.clone())))
        .collect()
}

/// Microseconds per plan of the span `name` that covered `n` plans.
fn per_plan_us(tracer: &Tracer, name: &str, n: usize) -> f64 {
    tracer.span_totals(name).busy_s() * 1e6 / n as f64
}

/// `query` and `engine` rows: verifier, compact codec, and execution —
/// cold, from the plan cache, and labeled — of the final plans.
pub fn plans(
    layers: &mut Layers,
    tracer: &Tracer,
    db: &Arc<Database>,
    ops: &[Op<'_>],
    last: &[Option<PlannedQuery>],
) {
    let plans = pairs(ops, last);
    if plans.is_empty() {
        return;
    }
    let n = plans.len();
    tracer.span("replay.verify", || {
        for (q, p) in &plans {
            std::hint::black_box(verify_plan(q, p, None).is_ok());
        }
    });
    layers.set("query.verify_us", per_plan_us(tracer, "replay.verify", n));
    tracer.span("replay.codec", || {
        for (_, p) in &plans {
            std::hint::black_box(Plan::parse_compact(&p.encode_compact()).is_ok());
        }
    });
    layers.set("query.codec_us", per_plan_us(tracer, "replay.codec", n));

    let env = ExecutionEnv::postgres_sim(db.clone());
    let execute = |env: &ExecutionEnv| {
        for (q, p) in &plans {
            std::hint::black_box(env.execute(q, p, None).is_ok());
        }
    };
    tracer.span("replay.exec_cold", || execute(&env));
    tracer.span("replay.exec_cached", || execute(&env));
    layers.set(
        "engine.exec.cold_us",
        per_plan_us(tracer, "replay.exec_cold", n),
    );
    layers.set(
        "engine.exec.cached_us",
        per_plan_us(tracer, "replay.exec_cached", n),
    );
    // Labeled execution on a cold plan cache over warm true
    // cardinalities: what a fine-tuning iteration after the first pays.
    let labeled =
        ExecutionEnv::with_truth(env.truth_arc(), *env.profile(), SimClock::paper_default());
    tracer.span("replay.exec_labeled", || {
        for (q, p) in &plans {
            std::hint::black_box(labeled.execute_labeled(q, p, None).is_ok());
        }
    });
    layers.set(
        "engine.exec.labeled_us",
        per_plan_us(tracer, "replay.exec_labeled", n),
    );
    let (hits, materializations) = env.truth().cache_stats();
    layers.set("engine.truecard.materializations", materializations as f64);
    layers.set_ratio(
        "engine.truecard.hit_ratio",
        hits as f64,
        (hits + materializations) as f64,
    );
    let (hits, misses) = env.cache_stats();
    layers.set_ratio(
        "engine.plan_cache.hit_ratio",
        hits as f64,
        (hits + misses) as f64,
    );
}

/// `learn.featurize.*`: the encoding `model` consumes, over the final
/// plans. The other encoding is never entered and stays absent.
pub fn featurize(
    layers: &mut Layers,
    tracer: &Tracer,
    featurizer: &Featurizer,
    est: &dyn CardEstimator,
    model: &dyn ValueModel,
    ops: &[Op<'_>],
    last: &[Option<PlannedQuery>],
) {
    let plans = pairs(ops, last);
    if plans.is_empty() {
        return;
    }
    let (name, span) = match model.encoding() {
        FeatureEncoding::Flat => ("learn.featurize.flat_us", "replay.featurize_flat"),
        FeatureEncoding::Tree => ("learn.featurize.tree_us", "replay.featurize_tree"),
    };
    tracer.span(span, || {
        for (q, p) in &plans {
            let memo = MemoEstimator::new(est);
            std::hint::black_box(featurizer.featurize_enc(model.encoding(), q, p, &memo));
        }
    });
    layers.set(name, per_plan_us(tracer, span, plans.len()));
}

/// `learn.train.*` from the run's public outputs, and `learn.fit.*` /
/// `learn.buffer.*` from refitting a fresh model on the run's own
/// buffer (real experience when it has any, else the simulated set).
///
/// The train ledger is explicit: `fit + featurize + exec + unaccounted
/// = loop`. `train_loop` reports walls for those three phases only, so
/// planning and per-iteration evaluation inside it land in
/// `unaccounted` — the gap ROADMAP item 1 closes from inside.
pub fn training(
    layers: &mut Layers,
    tracer: &Tracer,
    featurizer: &Featurizer,
    outcome: &TrainOutcome,
    cfg: &TrainConfig,
    breakdowns: &[TrainBreakdown],
    loop_s: f64,
) {
    let sum = |f: fn(&TrainBreakdown) -> f64| breakdowns.iter().map(f).sum::<f64>();
    let fit_s = sum(|b| b.forward_secs + b.backward_secs);
    let featurize_s = sum(|b| b.featurize_secs);
    let exec_s = sum(|b| b.truecard_secs);
    layers.set("learn.train.loop_s", loop_s);
    // A model whose fit does not time its phases reports exactly zero:
    // not measured, so absent.
    if fit_s > 0.0 {
        layers.set("learn.train.fit_s", fit_s);
    }
    layers.set("learn.train.featurize_s", featurize_s);
    if exec_s > 0.0 {
        layers.set("learn.train.exec_s", exec_s);
    }
    layers.set(
        "learn.train.unaccounted_s",
        loop_s - fit_s - featurize_s - exec_s,
    );
    layers.set(
        "learn.train.timeouts",
        outcome
            .trajectory
            .iter()
            .map(|it| it.timeouts)
            .sum::<usize>() as f64,
    );

    let (source, fit_cfg) = if outcome.buffer.count(LabelSource::Real) > 0 {
        (LabelSource::Real, cfg.finetune_sgd)
    } else {
        (LabelSource::Simulated, cfg.pretrain_sgd)
    };
    layers.set("learn.buffer.entries", outcome.buffer.len() as f64);
    let data = tracer.span("replay.train_set", || outcome.buffer.train_set(source));
    layers.set(
        "learn.buffer.train_set_s",
        tracer.span_totals("replay.train_set").busy_s(),
    );
    let samples = data.len();
    let mut fresh = make_model(cfg.model, featurizer);
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    let report = tracer.span("replay.fit", || fresh.fit(data, &fit_cfg, &mut rng));
    let fit_wall = tracer.span_totals("replay.fit").busy_s();
    layers.set("learn.fit.samples", samples as f64);
    layers.set("learn.fit.s", fit_wall);
    if report.forward_secs > 0.0 {
        layers.set("learn.fit.forward_s", report.forward_secs);
        layers.set("learn.fit.backward_s", report.backward_secs);
    }
    layers.set_ratio(
        "learn.fit.samples_per_s",
        (samples * fit_cfg.epochs) as f64,
        fit_wall,
    );
}

/// `learn.checkpoint.*`: decode, encode and atomically save the run's
/// own checkpoint file.
pub fn checkpoint(layers: &mut Layers, tracer: &Tracer, path: &Path) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    layers.set("learn.checkpoint.bytes", text.len() as f64);
    let data = tracer.span("replay.checkpoint_decode", || CheckpointData::decode(&text))?;
    let encoded = tracer.span("replay.checkpoint_encode", || data.encode());
    if encoded != text {
        return Err("checkpoint does not re-encode to its own bytes".into());
    }
    let copy = path.with_extension("replay");
    tracer
        .span("replay.checkpoint_save", || data.save_atomic(&copy))
        .map_err(|e| format!("{}: {e}", copy.display()))?;
    let _ = std::fs::remove_file(&copy);
    for (metric, span) in [
        ("learn.checkpoint.decode_s", "replay.checkpoint_decode"),
        ("learn.checkpoint.encode_s", "replay.checkpoint_encode"),
        ("learn.checkpoint.save_s", "replay.checkpoint_save"),
    ] {
        layers.set(metric, tracer.span_totals(span).busy_s());
    }
    Ok(())
}

/// `search.pool.dispatch_us`: mean wall of one trivial dispatch on a
/// warm pool of `threads` (absent on a serial pool, which never
/// dispatches).
pub fn pool_dispatch(layers: &mut Layers, tracer: &Tracer, threads: usize) {
    if threads < 2 {
        return;
    }
    let pool = WorkerPool::new(threads);
    let items = vec![0u8; 4 * threads];
    let _ = pool.map(&items, |i, _| i);
    let reps = 2048;
    tracer.span("replay.pool_dispatch", || {
        for _ in 0..reps {
            std::hint::black_box(pool.map(&items, |i, _| i));
        }
    });
    layers.set(
        "search.pool.dispatch_us",
        tracer.span_totals("replay.pool_dispatch").busy_s() * 1e6 / reps as f64,
    );
}

/// `search.fallback.*`: the expert DP under the run's budget, so the
/// DPccp → beam → greedy chain is walked where the harness can read its
/// `SearchStats`.
pub fn fallback(
    layers: &mut Layers,
    tracer: &Tracer,
    db: &Arc<Database>,
    queries: &[&Query],
    budget: PlanBudget,
) -> Vec<String> {
    let est = HistogramEstimator::new(db);
    let model = ExpertCostModel::new(db.clone(), EngineProfile::postgres_sim().weights);
    let planner = DpPlanner::new(db, &model, &est, SearchMode::Bushy).with_budget(budget);
    let (mut degraded, mut exhausted, mut failures) = (0usize, 0usize, Vec::new());
    tracer.span("replay.fallback", || {
        for q in queries {
            match planner.try_plan(q) {
                Ok(p) => {
                    degraded += p.stats.degraded_levels;
                    exhausted += usize::from(p.stats.budget_exhausted);
                }
                Err(e) => failures.push(format!("{}: budgeted DP: {e}", q.name)),
            }
        }
    });
    layers.set("search.fallback.degraded_levels", degraded as f64);
    layers.set("search.fallback.exhausted_queries", exhausted as f64);
    failures
}
