//! # balsa-bench
//!
//! The repository's reference benchmark: four workloads, seven
//! end-to-end metrics, and a per-layer ledger timed **from outside** —
//! around calls into public functions and through delegating decorators
//! over the public trait objects. See `README.md` for the tables.
//!
//! One invocation runs one workload in this process:
//!
//! ```text
//! balsa-bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! prints every metric by name with its unit, and ends with the one
//! JSON line the driver reads. `--all` runs every workload in a child
//! process of its own, untraced then traced, and writes the result
//! JSON; `--compare a.json b.json` judges two result files; `--smoke`
//! is `--all` at a size tests can afford.

pub mod compare;
pub mod decorate;
pub mod harness;
pub mod json;
pub mod metrics;
pub mod replay;
pub mod run_all;
pub mod serving;
pub mod stats;
pub mod trace;
pub mod training;

use harness::{Args, Report};
use json::Json;
use metrics::{cell, END_TO_END, PER_LAYER, WORKLOADS};
use std::path::PathBuf;
use trace::Tracer;

/// Where the harness writes: `bench/out/`, inside the checkout it was
/// built from.
pub fn out_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).unwrap_or_else(|e| panic!("create {}: {e}", dir.display()));
    dir
}

fn write_json(path: &std::path::Path, doc: &Json) {
    std::fs::write(path, doc.pretty()).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
}

/// Writes the spans held in memory to `bench/out/trace-<workload>.json`.
pub fn write_trace(workload: &str, tracer: &Tracer, layers: &mut metrics::Layers) {
    layers.set("bench.spans", tracer.span_count() as f64);
    let path = out_dir().join(format!("trace-{workload}.json"));
    std::fs::write(&path, tracer.to_json(workload).to_string())
        .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
}

/// The `BALSA_*` variables set in this process's environment. The
/// library reads some of them on its own, so a run with any of them set
/// measures a different program.
pub fn balsa_env_vars() -> Vec<String> {
    let mut names: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("BALSA_"))
        .collect();
    names.sort();
    names
}

/// Runs one workload in this process.
pub fn run_workload(args: &Args) -> Result<Report, String> {
    match args.workload.as_str() {
        "dp-expert" => Ok(serving::dp_expert(args)),
        "beam-learned" => Ok(serving::beam_learned(args)),
        "train-treeconv" => Ok(training::train_treeconv(args)),
        "train-linear-hostile" => Ok(training::train_linear_hostile(args)),
        other => Err(format!(
            "unknown workload {other:?}; expected one of {}",
            WORKLOADS.map(|(n, _)| n).join(", ")
        )),
    }
}

/// The metrics of the run's mode in table order — `(name, value,
/// unit)`, the value absent where the workload never entered the layer.
fn metric_rows(args: &Args, report: &Report) -> Vec<(&'static str, Option<f64>, &'static str)> {
    if args.trace {
        PER_LAYER
            .iter()
            .map(|&(name, unit, _)| (name, report.layers.get(name), unit))
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|m| (m.name, Some(report.end_to_end(m.name)), m.unit))
            .collect()
    }
}

/// One run as a document: header facts, every metric of the run's mode
/// as `{value, unit}` with absent measurements `null`.
pub fn run_document(args: &Args, report: &Report) -> Json {
    let nums = |xs: &[f64]| Json::Arr(xs.iter().map(|&x| Json::Num(x)).collect());
    let metrics = metric_rows(args, report)
        .into_iter()
        .map(|(name, value, unit)| (name, cell(Json::opt(value), unit)));
    Json::obj([
        ("workload", Json::str(&args.workload)),
        ("seed", Json::Num(args.seed as f64)),
        ("trace", Json::Bool(args.trace)),
        ("smoke", Json::Bool(args.smoke)),
        ("seconds", Json::Num(args.seconds)),
        ("threads", Json::Num(report.threads as f64)),
        ("setups", Json::Num(report.setups as f64)),
        ("passes", Json::Num(report.pass_wall_s.len() as f64)),
        ("pass_wall_s", nums(&report.pass_wall_s)),
        ("loop_wall_s", nums(&report.loop_wall_s)),
        ("ops_per_pass", Json::Num(report.ops_per_pass as f64)),
        ("ops_total", Json::Num(report.ops_total as f64)),
        ("ops_failed", Json::Num(report.failures.count as f64)),
        (
            "failures",
            Json::Arr(report.failures.lines.iter().map(Json::str).collect()),
        ),
        ("plans_checksum", Json::Num(report.plans_checksum as f64)),
        ("metrics", Json::obj(metrics)),
    ])
}

/// Prints every metric by name with its unit, then — last — the one
/// line the driver reads. That line cannot carry `null`, so on it (and
/// only there) a layer the workload never entered reads `0`; the run
/// document written to `bench/out/` keeps the `null`.
pub fn emit(args: &Args, report: &Report) {
    let mode = if args.trace { "traced" } else { "untraced" };
    let path = out_dir().join(format!("run-{}-{mode}.json", args.workload));
    write_json(&path, &run_document(args, report));

    println!(
        "# {} seed {} ({mode}): {} set-ups, {} timed passes x {} ops, {} threads",
        args.workload,
        args.seed,
        report.setups,
        report.pass_wall_s.len(),
        report.ops_per_pass,
        report.threads
    );
    let rows = metric_rows(args, report);
    for (name, value, unit) in &rows {
        match value {
            Some(v) => println!("{name:<36} {v:>16.6} {unit}"),
            None => println!("{name:<36} {:>16} {unit}", "n/a"),
        }
    }
    if !args.trace {
        println!(
            "{:<36} {:>16.6} 1/s   ({} ops per pass; p90 has {} ops beyond it)",
            "ops_per_s",
            report.ops_per_pass as f64 / report.end_to_end("run_s"),
            report.ops_per_pass,
            stats::samples_beyond(report.ops_per_pass, 90.0)
        );
    }
    println!(
        "ops_total {}  ops_failed {}",
        report.ops_total, report.failures.count
    );
    for f in &report.failures.lines {
        println!("FAILED {f}");
    }

    let driver_metrics = rows
        .into_iter()
        .map(|(name, value, unit)| (name, cell(Json::Num(value.unwrap_or(0.0)), unit)));
    println!(
        "{}",
        Json::obj([
            ("correct", Json::Bool(report.failures.count == 0)),
            ("attempted", Json::Num(report.ops_total as f64)),
            ("failed", Json::Num(report.failures.count as f64)),
            ("metrics", Json::obj(driver_metrics)),
        ])
    );
}
