//! Chaos-engineering contracts of the training loop: seeded fault
//! injection is deterministic and reproducible, the zero-fault path is
//! bit-identical to a run with no retry machinery armed, exhausted
//! retries honor the configured policy, faults cost at most a quarter
//! of held-out plan quality, the expert-DP fallback fires when the
//! failure window trips, and a run killed mid-training resumes from its
//! atomic checkpoint to the *bit-identical* final checkpoint of the
//! uninterrupted run.
//!
//! Everything asserted here is on deterministic state (weights,
//! curves, counters, checkpoint bytes) — never on measured walls,
//! which are excluded from checkpoints by design.

use balsa_card::HistogramEstimator;
use balsa_engine::{ExecutionEnv, ExhaustedPolicy, FaultConfig, RetryPolicy};
use balsa_learn::{
    evaluate_learned, median, train_loop, CheckpointData, Featurizer, ModelKind, SgdConfig,
    TrainConfig,
};
use balsa_query::workloads::job_workload;
use balsa_query::Split;
use balsa_search::WorkerPool;
use balsa_storage::{mini_imdb, DataGenConfig};
use std::path::PathBuf;
use std::sync::Arc;

fn small_db() -> Arc<balsa_storage::Database> {
    Arc::new(mini_imdb(DataGenConfig {
        scale: 0.02,
        ..Default::default()
    }))
}

fn small_split() -> Split {
    Split {
        train: (0..8).collect(),
        test: (8..11).collect(),
    }
}

fn base_cfg(kind: ModelKind, iterations: usize) -> TrainConfig {
    TrainConfig {
        model: kind,
        beam_width: 3,
        sim_random_plans: 2,
        iterations,
        pretrain_sgd: SgdConfig {
            epochs: 4,
            ..SgdConfig::default()
        },
        finetune_sgd: SgdConfig {
            epochs: 2,
            ..SgdConfig::default()
        },
        ..TrainConfig::default()
    }
}

/// Aggressive-but-survivable seeded fault mix (~30% per attempt).
fn chaos() -> FaultConfig {
    FaultConfig {
        seed: 11,
        transient: 0.15,
        crash: 0.05,
        spike: 0.05,
        spike_factor: 3.0,
        hang: 0.05,
        ..FaultConfig::default()
    }
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "balsa_resilience_{name}_{}.ckpt",
        std::process::id()
    ))
}

/// Per-iteration curve bits (no wall-derived values) plus the final
/// model parameters.
type RunDigest = (Vec<(u64, u64, u64, u64)>, Vec<f64>);

/// Deterministic fingerprint of a run.
fn run_digest(o: &balsa_learn::TrainOutcome) -> RunDigest {
    let curve = o
        .trajectory
        .iter()
        .map(|it| {
            (
                it.test_median_secs.to_bits(),
                it.val_median_secs.to_bits(),
                it.val_geo_mean_secs.to_bits(),
                it.fit_mse.to_bits(),
            )
        })
        .collect();
    (curve, o.model.params())
}

/// Fault rate zero is the *identity* configuration: arming a zeroed
/// injector and a multi-attempt retry policy must be bit-identical —
/// curves, labels (via the curves and counters), and weights — to a
/// run with no injector and single-attempt execution, for both model
/// families. Guards the `execute_labeled_retry_uncharged` no-fault
/// fast path and the `exec_secs`/`charge_raw(0.0)` folds.
#[test]
fn zero_fault_rate_is_bit_identical_to_unarmed_run() {
    let db = small_db();
    let w = job_workload(db.catalog(), 7);
    let split = small_split();
    for kind in [ModelKind::Linear, ModelKind::TreeConv] {
        // Reference: no injector, retry machinery reduced to one attempt.
        let mut ref_cfg = base_cfg(kind, 2);
        ref_cfg.retry = RetryPolicy {
            max_attempts: 1,
            ..RetryPolicy::default()
        };
        let env = ExecutionEnv::postgres_sim(db.clone());
        let reference = train_loop(&db, &env, &w, &split, &ref_cfg);

        // Zeroed injector + default (3-attempt) retry policy.
        let cfg = base_cfg(kind, 2);
        let env = ExecutionEnv::postgres_sim(db.clone()).with_faults(FaultConfig::default());
        let armed = train_loop(&db, &env, &w, &split, &cfg);

        assert_eq!(
            run_digest(&reference),
            run_digest(&armed),
            "{kind:?}: zero-fault armed run diverges from unarmed reference"
        );
        assert_eq!(armed.resilience.faults_injected, 0);
        assert_eq!(armed.resilience.retries, 0);
        assert_eq!(armed.resilience.abandoned, 0);
        assert_eq!(armed.resilience.fallback_iterations, 0);
        assert_eq!(armed.resilience.backoff_secs_charged, 0.0);
    }
}

/// Same `FaultConfig` + seed twice → identical fault sequence, labels,
/// curves, weights, and **checkpoint bytes** — and the chaos actually
/// bites (nonzero injected faults and retries), for both families.
#[test]
fn chaos_runs_are_reproducible_with_identical_checkpoints() {
    let db = small_db();
    let w = job_workload(db.catalog(), 7);
    let split = small_split();
    for kind in [ModelKind::Linear, ModelKind::TreeConv] {
        let run = |tag: &str| {
            let path = tmp(&format!("repro_{kind:?}_{tag}"));
            let mut cfg = base_cfg(kind, 2);
            cfg.checkpoint_every = 1;
            cfg.checkpoint_path = Some(path.clone());
            let env = ExecutionEnv::postgres_sim(db.clone()).with_faults(chaos());
            let o = train_loop(&db, &env, &w, &split, &cfg);
            let bytes = std::fs::read_to_string(&path).expect("checkpoint written");
            let _ = std::fs::remove_file(&path);
            (run_digest(&o), o.resilience, bytes)
        };
        let (digest_a, res_a, bytes_a) = run("a");
        let (digest_b, res_b, bytes_b) = run("b");
        assert_eq!(digest_a, digest_b, "{kind:?}: chaos run not reproducible");
        assert_eq!(res_a, res_b, "{kind:?}: fault sequences diverge");
        assert_eq!(bytes_a, bytes_b, "{kind:?}: checkpoint bytes diverge");
        assert!(
            res_a.faults_injected > 0,
            "{kind:?}: chaos config injected nothing — the test exercised no fault path"
        );
        assert!(res_a.retries > 0, "{kind:?}: no retry ever fired");
        assert!(
            res_a.backoff_secs_charged > 0.0,
            "{kind:?}: retries charged no backoff wall"
        );
        // The checkpoint itself decodes and carries the same counters.
        let data = CheckpointData::decode(&bytes_a).expect("valid checkpoint");
        assert_eq!(data.resilience, res_a);
    }
}

/// Retries, honest censoring and the expert fallback keep injected
/// faults from costing plan quality: for both families, the selected
/// checkpoint's held-out median latency (greedy inference on a frozen
/// fault-free environment) after training under the ~30 % fault mix is
/// within 1.25x of the fault-free run's — 0.66x linear, 1.10x tree-conv
/// on this fixture. Simulated latencies over one expert baseline, so
/// this is the learned/expert ratio of ratios, machine-independent.
#[test]
fn chaos_costs_at_most_a_quarter_of_held_out_quality() {
    let db = small_db();
    let w = job_workload(db.catalog(), 7);
    let split = small_split();
    for kind in [ModelKind::Linear, ModelKind::TreeConv] {
        let cfg = base_cfg(kind, 2);
        let held_out_median = |faults: Option<FaultConfig>| {
            let mut env = ExecutionEnv::postgres_sim(db.clone());
            if let Some(fc) = faults {
                env = env.with_faults(fc);
            }
            let o = train_loop(&db, &env, &w, &split, &cfg);
            assert_eq!(o.resilience.faults_injected > 0, faults.is_some());
            let eval_env = ExecutionEnv::postgres_sim(db.clone());
            let profile = eval_env.profile();
            let latencies = evaluate_learned(
                &db,
                &eval_env,
                &Featurizer::new(db.clone(), profile.weights, profile.bushy_hints),
                &*o.model,
                &HistogramEstimator::new(&db),
                &w,
                &split.test,
                cfg.mode,
                cfg.beam_width,
                cfg.plan_budget,
                &WorkerPool::new(1),
            )
            .expect("connected workload must plan");
            median(&latencies)
        };
        let (clean, shaken) = (held_out_median(None), held_out_median(Some(chaos())));
        assert!(
            shaken <= clean * 1.25,
            "{kind:?}: held-out median {shaken} under faults vs {clean} fault-free"
        );
    }
}

/// Kill-and-resume bit identity, under fault injection: a run halted
/// after iteration 1 and resumed from its checkpoint produces the
/// bit-identical final checkpoint (and weights) of the uninterrupted
/// run. Guards RNG-state capture, buffer rebuild from compact plan
/// text, env cache snapshot/restore, and the excluded-walls design
/// (nothing wall-derived may leak into checkpoint bytes).
#[test]
fn kill_and_resume_reproduces_uninterrupted_checkpoint() {
    let db = small_db();
    let w = job_workload(db.catalog(), 7);
    let split = small_split();
    let iterations = 3;

    // Uninterrupted reference run.
    let path_full = tmp("full");
    let mut cfg = base_cfg(ModelKind::Linear, iterations);
    cfg.checkpoint_every = 1;
    cfg.checkpoint_path = Some(path_full.clone());
    let env = ExecutionEnv::postgres_sim(db.clone()).with_faults(chaos());
    let full = train_loop(&db, &env, &w, &split, &cfg);
    let full_bytes = std::fs::read_to_string(&path_full).expect("final checkpoint");

    // Killed run: same config, halted right after iteration 1's
    // checkpoint hits disk.
    let path_kill = tmp("killed");
    let mut cfg_kill = cfg.clone();
    cfg_kill.checkpoint_path = Some(path_kill.clone());
    cfg_kill.halt_after = Some(1);
    let env = ExecutionEnv::postgres_sim(db.clone()).with_faults(chaos());
    let _ = train_loop(&db, &env, &w, &split, &cfg_kill);
    let mid = CheckpointData::load(&path_kill).expect("mid-run checkpoint");
    assert_eq!(mid.iteration, 1, "halt_after=1 must checkpoint iteration 1");

    // Resumed run: fresh process state, same fault config, picks up at
    // iteration 2 and finishes.
    let path_resume = tmp("resumed");
    let mut cfg_resume = cfg.clone();
    cfg_resume.checkpoint_path = Some(path_resume.clone());
    cfg_resume.resume_from = Some(path_kill.clone());
    let env = ExecutionEnv::postgres_sim(db.clone()).with_faults(chaos());
    let resumed = train_loop(&db, &env, &w, &split, &cfg_resume);
    let resumed_bytes = std::fs::read_to_string(&path_resume).expect("final checkpoint");

    assert_eq!(
        full_bytes, resumed_bytes,
        "resumed final checkpoint differs from the uninterrupted run's"
    );
    assert_eq!(
        full.model.params(),
        resumed.model.params(),
        "resumed selected weights diverge"
    );
    assert_eq!(full.resilience, resumed.resilience);
    assert_eq!(full.trajectory.len(), resumed.trajectory.len());
    // Replayed (pre-resume) iterations carry NaN sim-hours — walls are
    // not serialized — while post-resume ones are measured fresh.
    assert!(resumed.trajectory[1].sim_hours.is_nan());
    assert!(!resumed.trajectory[iterations].sim_hours.is_nan());

    for p in [path_full, path_kill, path_resume] {
        let _ = std::fs::remove_file(&p);
    }
}

/// Exhausted retries under [`ExhaustedPolicy::Drop`] abandon the
/// sample (counted, never silently lost) and training still completes.
#[test]
fn exhausted_drop_policy_abandons_samples_and_completes() {
    let db = small_db();
    let w = job_workload(db.catalog(), 7);
    let split = small_split();
    let mut cfg = base_cfg(ModelKind::Linear, 2);
    cfg.retry = RetryPolicy {
        max_attempts: 1,
        exhausted: ExhaustedPolicy::Drop,
        ..RetryPolicy::default()
    };
    let env = ExecutionEnv::postgres_sim(db.clone()).with_faults(chaos());
    let o = train_loop(&db, &env, &w, &split, &cfg);
    assert!(o.model.is_fitted());
    assert_eq!(o.trajectory.len(), cfg.iterations + 1);
    assert!(
        o.resilience.abandoned > 0,
        "single-attempt Drop under ~30% faults must abandon something"
    );
    assert_eq!(
        o.resilience.retries, 0,
        "max_attempts=1 must never count a retry"
    );
    let abandoned: u64 = o.trajectory.iter().map(|it| it.abandoned).sum();
    assert_eq!(
        abandoned, o.resilience.abandoned,
        "per-iteration counters must add up"
    );
}

/// Graceful degradation: once the sliding failure window trips the
/// threshold, the iteration plans with the expert DP planner and the
/// fallback is recorded — in `ResilienceStats` and on the trajectory —
/// never silent. A window of 1 with a threshold below zero trips from
/// the second fine-tuning iteration on.
#[test]
fn fallback_to_expert_planning_fires_and_is_recorded() {
    let db = small_db();
    let w = job_workload(db.catalog(), 7);
    let split = small_split();
    let mut cfg = base_cfg(ModelKind::Linear, 3);
    cfg.fallback_window = 1;
    cfg.fallback_threshold = -1.0;
    let env = ExecutionEnv::postgres_sim(db.clone());
    let o = train_loop(&db, &env, &w, &split, &cfg);
    assert!(o.model.is_fitted());
    assert_eq!(
        o.resilience.fallback_iterations, 2,
        "window fills after iteration 1, so iterations 2 and 3 fall back"
    );
    assert!(!o.trajectory[1].fallback, "no window yet at iteration 1");
    assert!(o.trajectory[2].fallback && o.trajectory[3].fallback);
    // Disabled threshold (the default) never falls back on the same run.
    let cfg_off = base_cfg(ModelKind::Linear, 3);
    let env = ExecutionEnv::postgres_sim(db.clone());
    let off = train_loop(&db, &env, &w, &split, &cfg_off);
    assert_eq!(off.resilience.fallback_iterations, 0);
    assert!(off.trajectory.iter().all(|it| !it.fallback));
}
