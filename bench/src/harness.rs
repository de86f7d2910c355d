//! Machinery shared by the four workloads: run sizes, the seeded
//! inputs, the timed serving loop, and the verify-and-execute step that
//! turns final plans into the plan-quality metrics.

use crate::metrics::Layers;
use crate::stats::{geo_mean, median, percentile, undisturbed};
use crate::trace::Tracer;
use balsa_card::HistogramEstimator;
use balsa_cost::ExpertCostModel;
use balsa_engine::{EngineProfile, ExecutionEnv};
use balsa_query::workloads::{ext_job_workload, job_workload};
use balsa_query::{verify_plan, Query, Workload};
use balsa_search::{DpPlanner, PlanError, PlannedQuery, Planner, SearchMode, SearchStats};
use balsa_storage::{mini_imdb, DataGenConfig, Database};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What the command line asked for.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    /// How long the timed section measures.
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
}

/// Everything that scales a run. `full` is the benchmark; `smoke` is
/// the seconds-long configuration tests drive, whose numbers are
/// stamped and never compared.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    pub data_scale: f64,
    /// Keep every `stride`-th generated query.
    pub query_stride: usize,
    /// Set-ups per run; `setup_s` summarizes them.
    pub setup_reps: usize,
    /// Timed serving passes run until the deadline, and at least this
    /// many.
    pub min_passes: usize,
    /// Untraced passes a traced run times first, as the base of
    /// `bench.trace_overhead_ratio`.
    pub overhead_passes: usize,
    pub beam_width: usize,
    /// Simulation pretraining of the tree-conv model: random plans per
    /// query, epochs.
    pub pretrain: (usize, usize),
    pub treeconv_iterations: usize,
    pub treeconv_finetune_epochs: usize,
    /// Iterations of the hostile run, and the one after which it is
    /// killed and resumed.
    pub linear_iterations: usize,
    pub linear_halt_after: usize,
    /// Times `train_loop` runs from cold; the fastest counts.
    pub loop_reps: usize,
    pub held_out: usize,
}

impl Sizes {
    pub fn full() -> Self {
        Self {
            data_scale: 1.0,
            query_stride: 1,
            setup_reps: 3,
            min_passes: 5,
            overhead_passes: 3,
            beam_width: 20,
            pretrain: (4, 20),
            treeconv_iterations: 2,
            treeconv_finetune_epochs: 30,
            linear_iterations: 10,
            linear_halt_after: 5,
            loop_reps: 2,
            held_out: 19,
        }
    }

    pub fn smoke() -> Self {
        Self {
            data_scale: 0.05,
            query_stride: 8,
            setup_reps: 1,
            min_passes: 1,
            overhead_passes: 1,
            beam_width: 4,
            pretrain: (1, 2),
            treeconv_iterations: 1,
            treeconv_finetune_epochs: 2,
            linear_iterations: 1,
            linear_halt_after: 1,
            loop_reps: 1,
            held_out: 3,
        }
    }

    pub fn of(smoke: bool) -> Self {
        if smoke {
            Self::smoke()
        } else {
            Self::full()
        }
    }

    /// Keeps every `query_stride`-th query of `w`.
    pub fn strided(&self, mut w: Workload) -> Workload {
        let mut i = 0;
        w.queries.retain(|_| {
            i += 1;
            (i - 1) % self.query_stride == 0
        });
        w
    }
}

/// Threads the hostile workload plans and trains with: two, or what
/// the box has.
pub fn hostile_threads() -> usize {
    nproc().min(2)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// `VmHWM` of this process in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The seeded inputs every workload starts from.
pub struct Base {
    pub db: Arc<Database>,
    /// The JOB-like queries (113 at full size).
    pub job: Workload,
    /// The Ext-JOB-like queries (24 at full size).
    pub ext: Workload,
    pub datagen_s: f64,
    pub workload_gen_s: f64,
}

impl Base {
    pub fn new(seed: u64, sizes: &Sizes) -> Self {
        let t = Instant::now();
        let db = Arc::new(mini_imdb(DataGenConfig {
            scale: sizes.data_scale,
            ..DataGenConfig::default()
        }));
        let datagen_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let job = sizes.strided(job_workload(db.catalog(), seed));
        let ext = sizes.strided(ext_job_workload(db.catalog(), seed));
        let workload_gen_s = t.elapsed().as_secs_f64();
        Self {
            db,
            job,
            ext,
            datagen_s,
            workload_gen_s,
        }
    }

    /// JOB-like then Ext-JOB-like queries (137 at full size).
    pub fn all_queries(&self) -> Vec<&Query> {
        self.job.queries.iter().chain(&self.ext.queries).collect()
    }

    pub fn record(&self, layers: &mut Layers) {
        layers.set("storage.datagen_s", self.datagen_s);
        layers.set("storage.rows", self.db.total_rows() as f64);
        layers.set("query.workload_gen_s", self.workload_gen_s);
    }
}

/// One operation: a query and the planner that serves it.
#[derive(Clone, Copy)]
pub struct Op<'a> {
    pub query: &'a Query,
    pub planner: &'a dyn Planner,
}

pub fn ops_for<'a>(queries: &[&'a Query], planner: &'a dyn Planner) -> Vec<Op<'a>> {
    queries.iter().map(|&query| Op { query, planner }).collect()
}

/// One pass over the operations, each call timed from outside.
pub struct Pass {
    pub wall_s: f64,
    pub op_s: Vec<f64>,
    pub planned: Vec<Result<PlannedQuery, PlanError>>,
}

pub const PASS: &str = "bench.pass";

pub fn run_pass(ops: &[Op<'_>], tracer: Option<&Tracer>) -> Pass {
    let body = || {
        let mut op_s = Vec::with_capacity(ops.len());
        let mut planned = Vec::with_capacity(ops.len());
        let t_pass = Instant::now();
        for (i, op) in ops.iter().enumerate() {
            if let Some(t) = tracer {
                t.set_op(Some(i as u32));
            }
            let t0 = Instant::now();
            let r = op.planner.try_plan(op.query);
            op_s.push(t0.elapsed().as_secs_f64());
            planned.push(r);
        }
        let wall_s = t_pass.elapsed().as_secs_f64();
        if let Some(t) = tracer {
            t.set_op(None);
        }
        Pass {
            wall_s,
            op_s,
            planned,
        }
    };
    match tracer {
        Some(t) => t.span(PASS, body),
        None => body(),
    }
}

/// The timed passes of one serving phase.
pub struct Served {
    pub pass_wall_s: Vec<f64>,
    /// Latency of each op in each pass, `[op][pass]`.
    pub op_s: Vec<Vec<f64>>,
    /// The last pass's answers — the final plans.
    pub last: Vec<Option<PlannedQuery>>,
    /// Ops, over all passes, whose planner returned an error.
    pub planner_errors: usize,
    /// Ops whose plan hash was not the same in every pass.
    pub unstable_ops: usize,
    /// `SearchStats` summed over all timed passes.
    pub stats: SearchStats,
}

impl Served {
    pub fn passes(&self) -> usize {
        self.pass_wall_s.len()
    }

    pub fn ops_attempted(&self) -> usize {
        self.passes() * self.op_s.len()
    }

    /// Each op's latency over the passes, in milliseconds.
    fn op_ms(&self) -> Vec<f64> {
        self.op_s.iter().map(|s| undisturbed(s) * 1e3).collect()
    }

    pub fn plan_ms_p50(&self) -> f64 {
        median(&self.op_ms())
    }

    pub fn plan_ms_p90(&self) -> f64 {
        percentile(&self.op_ms(), 90.0)
    }

    /// Wall of one pass.
    pub fn pass_s(&self) -> f64 {
        undisturbed(&self.pass_wall_s)
    }
}

fn add_stats(sum: &mut SearchStats, s: &SearchStats) {
    sum.states += s.states;
    sum.candidates += s.candidates;
    sum.pairs += s.pairs;
    sum.cost_calls += s.cost_calls;
    sum.enumerate_secs += s.enumerate_secs;
    sum.cost_secs += s.cost_secs;
    sum.score_secs += s.score_secs;
    sum.dedup_secs += s.dedup_secs;
    sum.degraded_levels += s.degraded_levels;
    sum.verify_secs += s.verify_secs;
}

/// Runs timed passes over already-warm planners until `seconds` have
/// been measured and at least `min_passes` are in. Plan hashes are
/// compared between passes outside the per-op timers.
pub fn serve(ops: &[Op<'_>], min_passes: usize, seconds: f64, tracer: Option<&Tracer>) -> Served {
    let mut served = Served {
        pass_wall_s: Vec::new(),
        op_s: vec![Vec::new(); ops.len()],
        last: Vec::new(),
        planner_errors: 0,
        unstable_ops: 0,
        stats: SearchStats::default(),
    };
    let mut first_hash: Vec<Option<u64>> = Vec::new();
    let mut unstable = vec![false; ops.len()];
    let deadline = Instant::now() + Duration::from_secs_f64(seconds.max(0.0));
    while served.passes() < min_passes || Instant::now() < deadline {
        let pass = run_pass(ops, tracer);
        served.pass_wall_s.push(pass.wall_s);
        let hashes: Vec<Option<u64>> = pass
            .planned
            .iter()
            .map(|r| r.as_ref().ok().map(|p| p.plan.canonical_hash()))
            .collect();
        if first_hash.is_empty() {
            first_hash = hashes.clone();
        }
        for (i, r) in pass.planned.iter().enumerate() {
            served.op_s[i].push(pass.op_s[i]);
            match r {
                Ok(p) => add_stats(&mut served.stats, &p.stats),
                Err(_) => served.planner_errors += 1,
            }
            unstable[i] |= hashes[i] != first_hash[i];
        }
        served.last = pass.planned.into_iter().map(Result::ok).collect();
    }
    served.unstable_ops = unstable.iter().filter(|&&u| u).count();
    served
}

/// The classical expert's answer for a query set: DPccp over the
/// expert cost model on histogram estimates, executed on its own
/// PostgresSim environment.
pub struct Expert {
    pub planned: Vec<PlannedQuery>,
    pub latency_s: Vec<f64>,
}

pub fn expert_reference(db: &Arc<Database>, queries: &[&Query], mode: SearchMode) -> Expert {
    let est = HistogramEstimator::new(db);
    let model = ExpertCostModel::new(db.clone(), EngineProfile::postgres_sim().weights);
    let planner = DpPlanner::new(db, &model, &est, mode);
    let env = ExecutionEnv::postgres_sim(db.clone());
    let planned: Vec<PlannedQuery> = queries.iter().map(|q| planner.plan(q)).collect();
    let latency_s = queries
        .iter()
        .zip(&planned)
        .map(|(q, p)| {
            env.execute(q, &p.plan, None)
                .expect("expert plans execute")
                .latency_secs
        })
        .collect();
    Expert { planned, latency_s }
}

/// Final plans verified and executed on a fresh PostgresSim
/// environment.
pub struct Finals {
    /// Executed latency per op; NaN where the op failed.
    pub latency_s: Vec<f64>,
    /// Ops that had no plan, failed `verify_plan`, or failed to execute.
    pub failures: Vec<String>,
    /// Wrapping sum of `Plan::canonical_hash` over the final plans, low
    /// 52 bits so it survives a JSON double.
    pub checksum: u64,
    pub env: ExecutionEnv,
}

impl Finals {
    /// Geometric mean of the executed latencies.
    pub fn geo_mean_s(&self) -> f64 {
        let ok: Vec<f64> = self
            .latency_s
            .iter()
            .copied()
            .filter(|x| x.is_finite())
            .collect();
        geo_mean(&ok)
    }
}

/// `check_cost`: whether the planner's `cost` is a model cost the
/// verifier can range-check (learned scores are predicted latencies).
pub fn verify_and_execute(
    db: &Arc<Database>,
    ops: &[Op<'_>],
    plans: &[Option<PlannedQuery>],
    check_cost: bool,
) -> Finals {
    let env = ExecutionEnv::postgres_sim(db.clone());
    let mut finals = Finals {
        latency_s: Vec::with_capacity(ops.len()),
        failures: Vec::new(),
        checksum: 0,
        env,
    };
    for (op, planned) in ops.iter().zip(plans) {
        let name = &op.query.name;
        let outcome = match planned {
            None => Err(format!("{name}: no plan")),
            Some(p) => verify_plan(op.query, &p.plan, check_cost.then_some(p.cost))
                .map_err(|e| format!("{name}: verify: {e}"))
                .and_then(|()| {
                    finals
                        .env
                        .execute(op.query, &p.plan, None)
                        .map_err(|e| format!("{name}: execute: {e}"))
                })
                .map(|out| (out.latency_secs, p.plan.canonical_hash())),
        };
        match outcome {
            Ok((latency, hash)) => {
                finals.latency_s.push(latency);
                finals.checksum = finals.checksum.wrapping_add(hash);
            }
            Err(e) => {
                finals.latency_s.push(f64::NAN);
                finals.failures.push(e);
            }
        }
    }
    finals.checksum &= (1 << 52) - 1;
    finals
}

/// Failed operations and failed checks: how many, and a line for each
/// kind.
#[derive(Debug, Default)]
pub struct Failures {
    pub count: usize,
    pub lines: Vec<String>,
}

impl Failures {
    pub fn add(&mut self, count: usize, line: impl Into<String>) {
        if count > 0 {
            self.count += count;
            self.lines.push(line.into());
        }
    }

    pub fn extend(&mut self, lines: impl IntoIterator<Item = String>) {
        for line in lines {
            self.add(1, line);
        }
    }
}

/// What one workload run reports.
pub struct Report {
    pub ops_total: usize,
    pub failures: Failures,
    /// End-to-end values by name (untraced runs).
    pub end_to_end: Vec<(&'static str, f64)>,
    /// Per-layer values (traced runs).
    pub layers: Layers,
    pub plans_checksum: u64,
    /// Header facts: wall of each timed pass and of each `train_loop`
    /// run (none on the serving workloads), ops per pass, set-ups,
    /// threads.
    pub pass_wall_s: Vec<f64>,
    pub loop_wall_s: Vec<f64>,
    pub ops_per_pass: usize,
    pub setups: usize,
    pub threads: usize,
}

/// What a run measured, before it is folded into a [`Report`].
pub struct Measured<'a> {
    pub setup_s: &'a [f64],
    /// Wall of the workload's fixed work.
    pub run_s: f64,
    pub served: &'a Served,
    pub finals: &'a Finals,
    /// Executed latencies of the expert's plans for the same ops.
    pub expert_latency_s: &'a [f64],
    pub threads: usize,
}

impl Report {
    /// The end-to-end metric called `name`.
    pub fn end_to_end(&self, name: &str) -> f64 {
        let found = self.end_to_end.iter().find(|(n, _)| *n == name);
        found
            .unwrap_or_else(|| panic!("no end-to-end metric {name}"))
            .1
    }

    /// Folds the measurements into the report.
    pub fn new(m: Measured<'_>, layers: Layers, failures: Failures) -> Self {
        let exec_runtime_s = m.finals.geo_mean_s();
        let ops_per_pass = m.served.op_s.len();
        Self {
            ops_total: m.served.ops_attempted() + ops_per_pass,
            failures,
            end_to_end: vec![
                ("setup_s", undisturbed(m.setup_s)),
                ("run_s", m.run_s),
                ("plan_ms_p50", m.served.plan_ms_p50()),
                ("plan_ms_p90", m.served.plan_ms_p90()),
                ("exec_runtime_s", exec_runtime_s),
                (
                    "runtime_ratio_vs_expert",
                    exec_runtime_s / geo_mean(m.expert_latency_s),
                ),
                ("peak_rss_mb", peak_rss_mb()),
            ],
            layers,
            plans_checksum: m.finals.checksum,
            pass_wall_s: m.served.pass_wall_s.clone(),
            loop_wall_s: Vec::new(),
            ops_per_pass,
            setups: m.setup_s.len(),
            threads: m.threads,
        }
    }
}
