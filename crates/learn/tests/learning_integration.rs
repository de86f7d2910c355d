//! End-to-end integration of the learning subsystem:
//! featurization → simulation pretraining → real-execution fine-tuning
//! with epsilon-greedy exploration → validation-selected checkpoint.
//!
//! Covers the PR's satellite test requirements on top of the module unit
//! tests: featurization invariants across the real workload (identical
//! features for fingerprint-equal subplans, stable length, left-deep and
//! bushy coverage), experience-buffer semantics driven by real labeled
//! executions (censored lower bounds, best-label dedup), and smoke runs
//! of `train_loop` on a reduced random split and on the slow-template
//! split.

use balsa_card::HistogramEstimator;
use balsa_cost::OpWeights;
use balsa_engine::{query_key, ExecutionEnv};
use balsa_learn::{
    evaluate_expert_baseline, evaluate_learned, median, train_loop, Experience, ExperienceBuffer,
    Featurizer, LabelSource, ModelKind, SgdConfig, TrainConfig, TrainOutcome,
};
use balsa_query::workloads::job_workload;
use balsa_query::Split;
use balsa_search::{try_random_plan, PlanBudget, SearchMode, WorkerPool};
use balsa_storage::{mini_imdb, DataGenConfig};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::sync::Arc;

fn small_db() -> Arc<balsa_storage::Database> {
    Arc::new(mini_imdb(DataGenConfig {
        scale: 0.02,
        ..Default::default()
    }))
}

/// Held-out learned / expert median latency ratio of `outcome`'s
/// selected checkpoint on `split.test`, both planned with `cfg`'s mode,
/// beam width and budget — simulated latencies, the same on any machine.
fn held_out_ratio(
    db: &Arc<balsa_storage::Database>,
    w: &balsa_query::Workload,
    split: &Split,
    cfg: &TrainConfig,
    outcome: &TrainOutcome,
) -> f64 {
    let eval_env = ExecutionEnv::postgres_sim(db.clone());
    let profile = eval_env.profile();
    let featurizer = Featurizer::new(db.clone(), profile.weights, profile.bushy_hints);
    let pool = WorkerPool::new(1);
    let learned = evaluate_learned(
        db,
        &eval_env,
        &featurizer,
        &*outcome.model,
        &HistogramEstimator::new(db),
        w,
        &split.test,
        cfg.mode,
        cfg.beam_width,
        cfg.plan_budget,
        &pool,
    )
    .expect("connected workload must plan");
    let expert = evaluate_expert_baseline(
        db,
        &eval_env,
        w,
        &split.test,
        cfg.mode,
        cfg.plan_budget,
        &pool,
    )
    .expect("connected workload must plan");
    median(&learned) / median(&expert)
}

/// The quality contract both smoke runs hold their selected checkpoint
/// to, in simulated latencies (the same numbers on any machine):
///
/// * the held-out learned / expert median ratio is at most 1.60 on these
///   tiny two-iteration runs;
/// * the same run under a plan budget tight enough to fire — `work=200`
///   here, where every query has ≤ 5 tables; `work=20000,memo=2000`
///   never fires on them — records its degradations and keeps that
///   ratio (expert planned under the same budget) within 1.5x of the
///   clean one.
fn assert_learned_quality(
    db: &Arc<balsa_storage::Database>,
    w: &balsa_query::Workload,
    split: &Split,
    cfg: &TrainConfig,
    clean: &TrainOutcome,
) {
    let clean_ratio = held_out_ratio(db, w, split, cfg, clean);
    assert!(
        clean_ratio <= 1.60,
        "learned/expert held-out ratio {clean_ratio}"
    );

    let tight = TrainConfig {
        plan_budget: PlanBudget {
            work: 200,
            memo: usize::MAX,
        },
        ..cfg.clone()
    };
    let env = ExecutionEnv::postgres_sim(db.clone());
    let budgeted = train_loop(db, &env, w, split, &tight);
    let r = budgeted.resilience;
    assert!(
        r.planner_degraded > 0 && r.planner_exhausted > 0,
        "the budget never fired: {r:?}"
    );
    let budgeted_ratio = held_out_ratio(db, w, split, &tight, &budgeted);
    assert!(
        budgeted_ratio <= clean_ratio * 1.5,
        "learned/expert {budgeted_ratio} under the budget vs {clean_ratio} clean"
    );
}

/// Featurization invariants over the real workload: fixed length for
/// every subplan of every query, identical vectors for fingerprint-equal
/// subplans, and coverage of both left-deep and bushy shapes.
#[test]
fn featurization_invariants_across_workload() {
    let db = small_db();
    let w = job_workload(db.catalog(), 7);
    let f = Featurizer::new(db.clone(), OpWeights::postgres_like(), true);
    let est = HistogramEstimator::new(&db);
    let d = f.dim();
    let mut rng = SmallRng::seed_from_u64(11);
    let mut saw_left_deep = false;
    let mut saw_bushy = false;
    for q in w.queries.iter().take(20) {
        for mode in [SearchMode::LeftDeep, SearchMode::Bushy] {
            let plan = try_random_plan(&db, q, mode, &mut rng).expect("connected query");
            saw_left_deep |= plan.is_left_deep();
            saw_bushy |= !plan.is_left_deep();
            for sub in plan.subplans() {
                let x = f.featurize(q, &sub, &est);
                assert_eq!(x.len(), d, "{}: unstable feature length", q.name);
                assert!(x.iter().all(|v| v.is_finite()), "{}: non-finite", q.name);
                // Re-featurizing a structurally identical subplan gives
                // identical features.
                let again = f.featurize(q, &sub, &est);
                assert_eq!(x, again);
            }
        }
    }
    assert!(saw_left_deep && saw_bushy, "both shapes must be covered");
}

/// Buffer semantics fed by *real* labeled executions: a timeout-censored
/// root label is kept as a lower bound, then superseded by the completed
/// run; completed reruns keep the best observed latency.
#[test]
fn experience_buffer_with_real_labeled_executions() {
    let db = small_db();
    let w = job_workload(db.catalog(), 7);
    let q = w.queries.iter().find(|q| q.num_tables() >= 5).unwrap();
    let f = Featurizer::new(db.clone(), OpWeights::postgres_like(), true);
    let est = HistogramEstimator::new(&db);
    let mut rng = SmallRng::seed_from_u64(3);
    let plan = try_random_plan(&db, q, SearchMode::Bushy, &mut rng).expect("connected query");
    let full = ExecutionEnv::postgres_sim(db.clone())
        .execute(q, &plan, None)
        .unwrap();

    let mut buffer = ExperienceBuffer::new();
    let record = |buffer: &mut ExperienceBuffer, labels: Vec<balsa_engine::SubtreeObs>| {
        for l in labels {
            buffer.record(Experience {
                query_key: query_key(q),
                fingerprint: l.plan.fingerprint(),
                features: balsa_learn::PackedFeatures::pack(&f.featurize(q, &l.plan, &est)),
                plan: l.plan.clone(),
                label_secs: l.latency_secs,
                censored: l.censored,
                source: LabelSource::Real,
            });
        }
    };

    // 1. Budgeted run: root label is a censored lower bound at the budget.
    let env = ExecutionEnv::postgres_sim(db.clone());
    let budget = full.latency_secs / 2.0;
    let (out, labels) = env.execute_labeled(q, &plan, Some(budget)).unwrap();
    assert!(out.timed_out);
    record(&mut buffer, labels);
    let root = buffer
        .get(query_key(q), plan.fingerprint(), LabelSource::Real)
        .expect("root experience recorded");
    assert!(root.censored, "timeout label must be censored");
    assert_eq!(root.label_secs, budget, "lower bound kept at the budget");

    // 2. Unbudgeted rerun completes: the censored bound is superseded.
    let (out2, labels2) = env.execute_labeled(q, &plan, None).unwrap();
    assert!(!out2.timed_out);
    record(&mut buffer, labels2);
    let root = buffer
        .get(query_key(q), plan.fingerprint(), LabelSource::Real)
        .unwrap();
    assert!(!root.censored);
    assert_eq!(root.label_secs, out2.latency_secs);

    // 3. A worse (hypothetical) completed label does not displace it.
    let mut stale = root.clone();
    stale.label_secs *= 10.0;
    assert!(!buffer.record(stale));
    assert_eq!(
        buffer
            .get(query_key(q), plan.fingerprint(), LabelSource::Real)
            .unwrap()
            .label_secs,
        out2.latency_secs,
        "best observed latency retained"
    );
}

/// A left-deep-only engine with the default bushy search mode is
/// refused at entry, naming both settings — not minutes later inside a
/// pool worker with "plan must be executable".
#[test]
#[should_panic(expected = "CommDbSim has bushy_hints = false, TrainConfig::mode = Bushy")]
fn train_loop_refuses_bushy_search_on_a_left_deep_engine() {
    let db = small_db();
    let w = job_workload(db.catalog(), 7);
    let split = Split::random(w.queries.len(), 19, 42);
    let env = ExecutionEnv::commdb_sim(db.clone());
    train_loop(&db, &env, &w, &split, &TrainConfig::default());
}

/// The linear-model smoke configuration: two fine-tuning iterations over
/// a short pretraining, sized for a two-dozen-query training split.
fn smoke_cfg() -> TrainConfig {
    TrainConfig {
        beam_width: 5,
        sim_random_plans: 4,
        iterations: 2,
        pretrain_sgd: SgdConfig {
            epochs: 15,
            ..SgdConfig::default()
        },
        finetune_sgd: SgdConfig {
            epochs: 8,
            ..SgdConfig::default()
        },
        ..TrainConfig::default()
    }
}

/// Smoke run of the two-phase driver on a reduced split: the trajectory
/// has the right shape, the clock advances monotonically, experiences
/// accumulate, and the selected learned planner meets
/// [`assert_learned_quality`] on held-out queries.
#[test]
fn train_loop_smoke_end_to_end() {
    let db = small_db();
    let w = job_workload(db.catalog(), 7);
    // A reduced split keeps the test fast: 24 train / 6 test queries.
    let full = Split::random(w.queries.len(), 19, 42);
    let split = Split {
        train: full.train.into_iter().take(24).collect(),
        test: full.test.into_iter().take(6).collect(),
    };
    let cfg = smoke_cfg();
    let env = ExecutionEnv::postgres_sim(db.clone());
    let outcome = train_loop(&db, &env, &w, &split, &cfg);

    assert_eq!(outcome.trajectory.len(), cfg.iterations + 1);
    assert!(outcome.model.is_fitted());
    let mut last_hours = 0.0;
    for (i, it) in outcome.trajectory.iter().enumerate() {
        assert_eq!(it.iteration, i);
        assert!(it.sim_hours >= last_hours, "clock must be monotone");
        last_hours = it.sim_hours;
        assert!(it.test_median_secs.is_finite() && it.test_median_secs > 0.0);
        assert!(it.val_median_secs.is_finite() && it.val_median_secs > 0.0);
        if i > 0 {
            assert!(it.train_median_secs.is_finite());
            assert!(it.buffer_real > 0, "fine-tuning must record experience");
        }
    }
    assert!(outcome.buffer.count(LabelSource::Simulated) > 0);
    assert!(outcome.buffer.count(LabelSource::Real) > 0);

    assert_learned_quality(&db, &w, &split, &cfg, &outcome);
}

/// The paper's slow-template generalization split (§8.1): the 2 JOB
/// templates with the largest summed expert latency are held out, the
/// smoke configuration trains on 24 queries of the remaining templates,
/// and the selected checkpoint's held-out learned / expert median stays
/// within 10 % of its measured value (1.093 at scale 0.02, seed 7).
#[test]
fn slow_template_split_holds_out_the_slowest_templates() {
    let db = small_db();
    let w = job_workload(db.catalog(), 7);
    let cfg = smoke_cfg();
    let all: Vec<usize> = (0..w.queries.len()).collect();
    let eval_env = ExecutionEnv::postgres_sim(db.clone());
    let expert = evaluate_expert_baseline(
        &db,
        &eval_env,
        &w,
        &all,
        cfg.mode,
        cfg.plan_budget,
        &WorkerPool::new(1),
    )
    .expect("connected workload must plan");
    let slow = Split::slowest_templates(&w, &expert, 2);
    // Every 4th training query, so the 24 span the fast templates.
    let split = Split {
        train: slow.train.iter().step_by(4).take(24).copied().collect(),
        test: slow.test.clone(),
    };
    assert_eq!(split.train.len(), 24);

    let template = |i: &usize| w.queries[*i].template;
    let held_out: Vec<u32> = split.test.iter().map(template).collect();
    let mut distinct = held_out.clone();
    distinct.sort_unstable();
    distinct.dedup();
    assert_eq!(distinct.len(), 2, "two templates held out: {held_out:?}");
    for i in &slow.train {
        assert!(
            !held_out.contains(&template(i)),
            "held-out template {} leaks into training ({})",
            template(i),
            w.queries[*i].name
        );
    }

    let env = ExecutionEnv::postgres_sim(db.clone());
    let outcome = train_loop(&db, &env, &w, &split, &cfg);
    let ratio = held_out_ratio(&db, &w, &split, &cfg, &outcome);
    assert!(
        ratio <= 1.093 * 1.10,
        "held-out learned/expert ratio {ratio} (measured 1.093)"
    );
}

/// Satellite of the resource-governance PR: a deliberately disconnected
/// query surfaces [`balsa_search::PlanError::DisconnectedGraph`] as an
/// `Err` through `evaluate_learned` — not a panic, not a silent skip.
#[test]
fn disconnected_query_errors_through_evaluate_learned() {
    let db = small_db();
    let w = job_workload(db.catalog(), 7);
    // Strip every join edge off a real multi-table query: n >= 2 tables
    // with no edges is the canonical disconnected join graph.
    let mut q = w
        .queries
        .iter()
        .find(|q| q.num_tables() >= 3)
        .expect("workload has multi-table queries")
        .clone();
    q.joins.clear();
    q.name = "deliberately_disconnected".into();
    let broken = balsa_query::workloads::Workload { queries: vec![q] };

    let eval_env = ExecutionEnv::postgres_sim(db.clone());
    let est = HistogramEstimator::new(&db);
    let featurizer = Featurizer::new(db.clone(), eval_env.profile().weights, true);
    let model = balsa_learn::make_model(ModelKind::Linear, &featurizer);
    for mode in [SearchMode::Bushy, SearchMode::LeftDeep] {
        let res = evaluate_learned(
            &db,
            &eval_env,
            &featurizer,
            &*model,
            &est,
            &broken,
            &[0],
            mode,
            4,
            balsa_search::PlanBudget::UNLIMITED,
            &balsa_search::WorkerPool::new(1),
        );
        match res {
            Err(balsa_search::PlanError::DisconnectedGraph { query }) => {
                assert_eq!(query, "deliberately_disconnected");
            }
            other => panic!("{mode:?}: expected DisconnectedGraph, got {other:?}"),
        }
        let expert = evaluate_expert_baseline(
            &db,
            &eval_env,
            &broken,
            &[0],
            mode,
            balsa_search::PlanBudget::UNLIMITED,
            &balsa_search::WorkerPool::new(1),
        );
        assert!(
            matches!(
                expert,
                Err(balsa_search::PlanError::DisconnectedGraph { .. })
            ),
            "{mode:?}: expert baseline must surface the same error"
        );
    }
}

/// Censored labels distinguish the root from interior subtrees: with a
/// budget between an interior subtree's latency and the root's, the
/// root label is a censored lower bound at the budget while completed
/// interior subtrees keep exact uncensored labels — and the buffer
/// merges both correctly when a later unbudgeted run completes.
#[test]
fn censoring_at_root_vs_interior_subtree() {
    let db = small_db();
    let w = job_workload(db.catalog(), 7);
    let q = w.queries.iter().find(|q| q.num_tables() >= 5).unwrap();
    let f = Featurizer::new(db.clone(), OpWeights::postgres_like(), true);
    let est = HistogramEstimator::new(&db);
    let mut rng = SmallRng::seed_from_u64(17);
    let plan = try_random_plan(&db, q, SearchMode::Bushy, &mut rng).expect("connected query");

    // Uncensored reference labels for every subtree.
    let (full, reference) = ExecutionEnv::postgres_sim(db.clone())
        .execute_labeled(q, &plan, None)
        .unwrap();
    assert!(!full.timed_out);
    // Pick a budget above the cheapest interior subtree but below the
    // root, so the cut lands strictly inside the tree.
    let cheapest_join = reference
        .iter()
        .filter(|l| !l.plan.is_scan() && l.latency_secs < full.latency_secs)
        .map(|l| l.latency_secs)
        .fold(f64::MAX, f64::min);
    let budget = (cheapest_join + full.latency_secs) / 2.0;
    assert!(budget < full.latency_secs);

    let env = ExecutionEnv::postgres_sim(db.clone());
    let (out, labels) = env.execute_labeled(q, &plan, Some(budget)).unwrap();
    assert!(out.timed_out);

    let mut buffer = ExperienceBuffer::new();
    let record = |buffer: &mut ExperienceBuffer, labels: &[balsa_engine::SubtreeObs]| {
        for l in labels {
            buffer.record(Experience {
                query_key: query_key(q),
                fingerprint: l.plan.fingerprint(),
                features: balsa_learn::PackedFeatures::pack(&f.featurize(q, &l.plan, &est)),
                plan: l.plan.clone(),
                label_secs: l.latency_secs,
                censored: l.censored,
                source: LabelSource::Real,
            });
        }
    };
    record(&mut buffer, &labels);

    // Root: censored at the budget.
    let root = buffer
        .get(query_key(q), plan.fingerprint(), LabelSource::Real)
        .unwrap();
    assert!(root.censored, "root must be censored");
    assert_eq!(root.label_secs, budget);
    // Interior: subtrees cheaper than the budget completed with their
    // exact reference labels; ones above it are censored bounds.
    let mut saw_uncensored_interior = false;
    for r in &reference {
        let stored = buffer
            .get(query_key(q), r.plan.fingerprint(), LabelSource::Real)
            .expect("every subtree labeled");
        if r.latency_secs <= budget {
            assert!(!stored.censored, "completed subtree censored: {}", r.plan);
            assert_eq!(stored.label_secs, r.latency_secs);
            saw_uncensored_interior |= !r.plan.is_scan();
        } else {
            assert!(stored.censored);
            assert_eq!(stored.label_secs, budget);
        }
    }
    assert!(
        saw_uncensored_interior,
        "budget must land inside the tree (some join completed)"
    );

    // A later unbudgeted run supersedes every censored bound with the
    // exact label and leaves completed ones at their best values.
    let (_, labels2) = env.execute_labeled(q, &plan, None).unwrap();
    record(&mut buffer, &labels2);
    for r in &reference {
        let stored = buffer
            .get(query_key(q), r.plan.fingerprint(), LabelSource::Real)
            .unwrap();
        assert!(!stored.censored, "bound not superseded: {}", r.plan);
        assert_eq!(stored.label_secs, r.latency_secs);
    }
}

/// Training is deterministic given the seed — for both model families:
/// same config, same database, identical validation curves AND
/// bit-identical checkpoint weights. Guards the vendored rand shim, the
/// buffer's sorted extraction, and SGD ordering.
#[test]
fn train_loop_is_deterministic_with_identical_checkpoints() {
    let db = small_db();
    let w = job_workload(db.catalog(), 7);
    let split = Split {
        train: (0..8).collect(),
        test: (8..11).collect(),
    };
    for kind in [ModelKind::Linear, ModelKind::TreeConv] {
        let cfg = TrainConfig {
            model: kind,
            beam_width: 3,
            sim_random_plans: 2,
            iterations: 1,
            pretrain_sgd: SgdConfig {
                epochs: 4,
                ..SgdConfig::default()
            },
            finetune_sgd: SgdConfig {
                epochs: 2,
                ..SgdConfig::default()
            },
            ..TrainConfig::default()
        };
        let run = || {
            let env = ExecutionEnv::postgres_sim(db.clone());
            let o = train_loop(&db, &env, &w, &split, &cfg);
            let curve: Vec<(f64, f64, f64)> = o
                .trajectory
                .iter()
                .map(|it| (it.test_median_secs, it.val_median_secs, it.fit_mse))
                .collect();
            (curve, o.model.params())
        };
        let (curve_a, params_a) = run();
        let (curve_b, params_b) = run();
        assert_eq!(curve_a, curve_b, "{kind:?}: validation curves diverge");
        assert_eq!(params_a, params_b, "{kind:?}: checkpoint weights diverge");
        assert!(!params_a.is_empty());
    }
}

/// Parallel planning determinism: `train_loop` on the worker pool
/// produces **bit-identical** checkpoint parameters to the serial run,
/// for both model families. Per-query exploration RNGs plus the pool's
/// deterministic merge order make thread count a pure wall-clock knob.
#[test]
fn parallel_train_loop_matches_serial_checkpoints_bitwise() {
    let db = small_db();
    let w = job_workload(db.catalog(), 7);
    let split = Split {
        train: (0..8).collect(),
        test: (8..11).collect(),
    };
    for kind in [ModelKind::Linear, ModelKind::TreeConv] {
        let run = |threads: usize| {
            let cfg = TrainConfig {
                model: kind,
                beam_width: 3,
                sim_random_plans: 2,
                iterations: 2,
                planning_threads: threads,
                training_threads: threads,
                pretrain_sgd: SgdConfig {
                    epochs: 4,
                    ..SgdConfig::default()
                },
                finetune_sgd: SgdConfig {
                    epochs: 2,
                    ..SgdConfig::default()
                },
                ..TrainConfig::default()
            };
            let env = ExecutionEnv::postgres_sim(db.clone());
            let o = train_loop(&db, &env, &w, &split, &cfg);
            let buffer_real = o.buffer.count(LabelSource::Real);
            (o.model.params(), buffer_real)
        };
        let (serial_params, serial_real) = run(1);
        let (pooled_params, pooled_real) = run(3);
        assert_eq!(
            serial_real, pooled_real,
            "{kind:?}: experience streams diverge"
        );
        assert_eq!(
            serial_params, pooled_params,
            "{kind:?}: parallel checkpoint diverges from serial"
        );
        assert!(!serial_params.is_empty());
    }
}

/// The tree-convolution model trains end-to-end through the same
/// two-phase loop: trajectory shape holds and the selected checkpoint
/// meets [`assert_learned_quality`] on held-out queries.
#[test]
fn tree_conv_train_loop_end_to_end() {
    let db = small_db();
    let w = job_workload(db.catalog(), 7);
    let full = Split::random(w.queries.len(), 19, 42);
    let split = Split {
        train: full.train.into_iter().take(12).collect(),
        test: full.test.into_iter().take(4).collect(),
    };
    let cfg = TrainConfig {
        model: ModelKind::TreeConv,
        beam_width: 4,
        sim_random_plans: 3,
        iterations: 2,
        pretrain_sgd: SgdConfig {
            epochs: 10,
            ..SgdConfig::default()
        },
        finetune_sgd: SgdConfig {
            epochs: 5,
            ..SgdConfig::default()
        },
        ..TrainConfig::default()
    };
    let env = ExecutionEnv::postgres_sim(db.clone());
    let outcome = train_loop(&db, &env, &w, &split, &cfg);
    assert_eq!(outcome.trajectory.len(), cfg.iterations + 1);
    assert!(outcome.model.is_fitted());
    assert_eq!(outcome.model.encoding(), balsa_learn::FeatureEncoding::Tree);
    for it in &outcome.trajectory {
        assert!(it.test_median_secs.is_finite() && it.test_median_secs > 0.0);
    }
    assert_learned_quality(&db, &w, &split, &cfg, &outcome);
}
