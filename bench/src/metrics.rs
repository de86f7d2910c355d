//! The benchmark's metric tables — the single place that names a
//! metric, its unit, its direction and its regression bound. The root
//! `BENCHMARK.json` repeats these tables for the driver;
//! `tests/contract.rs` fails when the two disagree.

use crate::json::Json;
use std::collections::BTreeMap;

/// The four workloads, in run order, each with the reason it exists.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "dp-expert",
        "classical optimizer serving queries: expert DPccp over cost model and histograms; the learn layer is never entered",
    ),
    (
        "beam-learned",
        "learned optimizer serving queries: beam-20 over a sim-pretrained tree-conv scorer; the CostModel trait is never called",
    ),
    (
        "train-treeconv",
        "time-to-learn for the paper's model: whole-tree batched fit beside incremental inference under exploration",
    ),
    (
        "train-linear-hostile",
        "same layers used the other way: flat predict_batch scoring, faults+retry, plan budgets+fallback chain, checkpoint resume, 2 threads",
    ),
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One end-to-end metric. `bound` is the share of the base's median by
/// which it may worsen before a change counts as a regression — sized
/// for the driver's protocol, whose ten runs each use another seed.
/// `same_seed_bound` is the tighter bound `--compare` applies when both
/// sides ran the same seeds (deterministic metrics must then repeat).
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
    pub same_seed_bound: Option<f64>,
}

pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        same_seed_bound: None,
    },
    EndToEnd {
        name: "run_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        same_seed_bound: None,
    },
    EndToEnd {
        name: "plan_ms_p50",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
        same_seed_bound: None,
    },
    EndToEnd {
        name: "plan_ms_p90",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
        same_seed_bound: None,
    },
    EndToEnd {
        name: "exec_runtime_s",
        unit: "sim_s",
        better: Better::Lower,
        bound: 0.25,
        same_seed_bound: Some(0.001),
    },
    EndToEnd {
        name: "runtime_ratio_vs_expert",
        unit: "ratio",
        better: Better::Lower,
        bound: 0.25,
        same_seed_bound: Some(0.001),
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.15,
        same_seed_bound: None,
    },
];

const L: Better = Better::Lower;
const H: Better = Better::Higher;

/// The per-layer metrics `(name, unit, better)`, grouped by layer
/// (crate). They carry no bound.
pub const PER_LAYER: [(&str, &str, Better); 80] = [
    ("storage.datagen_s", "s", L),
    ("storage.rows", "count", L),
    ("query.workload_gen_s", "s", L),
    ("query.verify_us", "us", L),
    ("query.codec_us", "us", L),
    ("query.plans_checksum", "count", L),
    ("card.calls", "count", L),
    ("card.busy_s", "s", L),
    ("card.ns_per_call", "ns", L),
    ("cost.sessions", "count", L),
    ("cost.session_open_s", "s", L),
    ("cost.work_out_calls", "count", L),
    ("cost.work_out_s", "s", L),
    ("cost.ns_per_work_out", "ns", L),
    ("cost.summary_calls", "count", L),
    ("cost.summary_s", "s", L),
    ("cost.share", "ratio", L),
    ("search.dp.calls", "count", L),
    ("search.dp.busy_s", "s", L),
    ("search.dp.self_s", "s", L),
    ("search.dp.pairs", "count", L),
    ("search.dp.states", "count", L),
    ("search.dp.candidates", "count", L),
    ("search.dp.cost_calls", "count", L),
    ("search.dp.pruned_ratio", "ratio", H),
    ("search.beam.calls", "count", L),
    ("search.beam.busy_s", "s", L),
    ("search.beam.self_s", "s", L),
    ("search.beam.candidates", "count", L),
    ("search.beam.states", "count", L),
    ("search.beam.dedup_ratio", "ratio", L),
    ("search.beam.score_s", "s", L),
    ("search.beam.dedup_s", "s", L),
    ("search.fallback.degraded_levels", "count", L),
    ("search.fallback.exhausted_queries", "count", L),
    ("search.pool.dispatch_us", "us", L),
    ("engine.exec.cold_us", "us", L),
    ("engine.exec.cached_us", "us", L),
    ("engine.exec.labeled_us", "us", L),
    ("engine.exec.heldout_sum_s", "sim_s", L),
    ("engine.truecard.materializations", "count", L),
    ("engine.truecard.hit_ratio", "ratio", H),
    ("engine.plan_cache.hit_ratio", "ratio", H),
    ("engine.faults.injected", "count", L),
    ("engine.retry.attempts", "count", L),
    ("engine.retry.censored", "count", L),
    ("engine.retry.abandoned", "count", L),
    ("engine.backoff_sim_s", "sim_s", L),
    ("engine.sim_clock_s", "sim_s", L),
    ("learn.scorer.batch_calls", "count", L),
    ("learn.scorer.candidates", "count", L),
    ("learn.scorer.busy_s", "s", L),
    ("learn.scorer.ns_per_candidate", "ns", L),
    ("learn.model.infer_calls", "count", L),
    ("learn.model.infer_s", "s", L),
    ("learn.featurize.flat_us", "us", L),
    ("learn.featurize.tree_us", "us", L),
    ("learn.fit.samples", "count", L),
    ("learn.fit.s", "s", L),
    ("learn.fit.forward_s", "s", L),
    ("learn.fit.backward_s", "s", L),
    ("learn.fit.samples_per_s", "1/s", H),
    ("learn.buffer.entries", "count", L),
    ("learn.buffer.train_set_s", "s", L),
    ("learn.checkpoint.bytes", "count", L),
    ("learn.checkpoint.encode_s", "s", L),
    ("learn.checkpoint.decode_s", "s", L),
    ("learn.checkpoint.save_s", "s", L),
    ("learn.train.loop_s", "s", L),
    ("learn.train.fit_s", "s", L),
    ("learn.train.featurize_s", "s", L),
    ("learn.train.exec_s", "s", L),
    ("learn.train.unaccounted_s", "s", L),
    ("learn.train.timeouts", "count", L),
    ("learn.eval.median_ratio", "ratio", L),
    ("learn.eval.heldout_sum_ratio", "ratio", L),
    ("bench.trace_overhead_ratio", "ratio", L),
    ("bench.traced_wall_s", "s", L),
    ("bench.harness_self_s", "s", L),
    ("bench.spans", "count", L),
];

/// Per-layer measurements of one run. A metric the workload never
/// entered stays absent and is written as `null`, never `0`.
#[derive(Debug, Default, Clone)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    /// Records `value` under `name`, which must be in [`PER_LAYER`].
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|(n, ..)| *n == name),
            "{name} is not a declared per-layer metric"
        );
        if value.is_finite() {
            self.0.insert(name, value);
        }
    }

    /// Records a ratio only when its base is nonzero.
    pub fn set_ratio(&mut self, name: &'static str, num: f64, den: f64) {
        if den != 0.0 {
            self.set(name, num / den);
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// `{value, unit}` as the driver reads it.
pub fn cell(value: Json, unit: &str) -> Json {
    Json::obj([("value", value), ("unit", Json::str(unit))])
}

/// How the driver invokes the benchmark, from the root of a checkout.
pub const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "bench/Cargo.toml",
    "--",
];

/// How long one run measures, in seconds.
pub const RUN_SECONDS: u32 = 10;

/// The document the root `BENCHMARK.json` holds (`--benchmark-json`
/// prints it; `tests/contract.rs` compares the two).
pub fn benchmark_json() -> Json {
    let strs = |xs: &[&str]| Json::Arr(xs.iter().map(|x| Json::str(*x)).collect());
    Json::obj([
        ("command", strs(&COMMAND)),
        ("paths", strs(&["bench"])),
        ("run_seconds", Json::Num(f64::from(RUN_SECONDS))),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|(name, why)| {
                        Json::obj([("name", Json::str(*name)), ("why", Json::str(*why))])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.as_str())),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|(name, unit, better)| {
                        Json::obj([
                            ("name", Json::str(*name)),
                            ("unit", Json::str(*unit)),
                            ("better", Json::str(better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}
