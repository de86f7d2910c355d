//! `--all`: every workload in a child process of its own (so
//! `peak_rss_mb` is per workload), untraced for the end-to-end metrics
//! and then traced for the per-layer metrics, gathered into one result
//! document that starts with a header block.

use crate::harness::{hostile_threads, nproc, Sizes};
use crate::json::Json;
use crate::metrics::WORKLOADS;
use std::path::PathBuf;
use std::process::Command;

pub struct AllArgs {
    pub seed: u64,
    pub seconds: f64,
    /// Full runs of all workloads; `--compare` takes medians over them.
    pub runs: usize,
    pub smoke: bool,
    pub out: Option<PathBuf>,
}

/// First line of a command's standard output, or `"unknown"`.
fn first_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".into())
}

fn header(args: &AllArgs) -> Json {
    let sizes = Sizes::of(args.smoke);
    let threads = WORKLOADS.map(|(name, _)| {
        let t = if name == "train-linear-hostile" {
            hostile_threads()
        } else {
            1
        };
        (name, Json::Num(t as f64))
    });
    Json::obj([
        (
            "commit",
            Json::str(first_line("git", &["rev-parse", "HEAD"])),
        ),
        ("seed", Json::Num(args.seed as f64)),
        ("nproc", Json::Num(nproc() as f64)),
        ("threads", Json::obj(threads)),
        (
            "passes",
            Json::obj([
                ("setups", Json::Num(sizes.setup_reps as f64)),
                ("min_timed", Json::Num(sizes.min_passes as f64)),
                ("overhead_base", Json::Num(sizes.overhead_passes as f64)),
                ("train_loops", Json::Num(sizes.loop_reps as f64)),
                ("seconds", Json::Num(args.seconds)),
            ]),
        ),
        ("rustc", Json::str(first_line("rustc", &["--version"]))),
        ("runs", Json::Num(args.runs as f64)),
        ("smoke", Json::Bool(args.smoke)),
        ("debug_assertions", Json::Bool(cfg!(debug_assertions))),
    ])
}

/// Runs one workload in a child process and returns its run document.
fn child(workload: &str, args: &AllArgs, trace: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if args.smoke {
        cmd.arg("--smoke");
    }
    let status = cmd.status().map_err(|e| format!("spawn {workload}: {e}"))?;
    if !status.success() {
        return Err(format!("{workload} (trace {trace}) exited with {status}"));
    }
    let mode = if trace { "traced" } else { "untraced" };
    let path = crate::out_dir().join(format!("run-{workload}-{mode}.json"));
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// One workload's untraced and traced runs merged into one record.
fn merge(untraced: &Json, traced: &Json) -> Json {
    let num = |doc: &Json, key: &str| doc.get(key).and_then(Json::as_f64).unwrap_or(f64::NAN);
    let lines = |doc: &Json| {
        doc.get("failures")
            .and_then(Json::as_arr)
            .unwrap_or(&[])
            .to_vec()
    };
    let mut failures = lines(untraced);
    failures.extend(lines(traced));
    let mut ops_failed = num(untraced, "ops_failed") + num(traced, "ops_failed");
    if num(untraced, "plans_checksum") != num(traced, "plans_checksum") {
        ops_failed += 1.0;
        failures.push(Json::str(
            "traced and untraced runs chose different final plans",
        ));
    }
    Json::obj([
        ("seed", Json::Num(num(untraced, "seed"))),
        ("passes", Json::Num(num(untraced, "passes"))),
        ("traced_passes", Json::Num(num(traced, "passes"))),
        ("ops_per_pass", Json::Num(num(untraced, "ops_per_pass"))),
        (
            "ops_total",
            Json::Num(num(untraced, "ops_total") + num(traced, "ops_total")),
        ),
        ("ops_failed", Json::Num(ops_failed)),
        ("failures", Json::Arr(failures)),
        ("plans_checksum", Json::Num(num(untraced, "plans_checksum"))),
        (
            "end_to_end",
            untraced.get("metrics").cloned().unwrap_or(Json::Null),
        ),
        (
            "per_layer",
            traced.get("metrics").cloned().unwrap_or(Json::Null),
        ),
    ])
}

/// Runs everything, writes the result document, and returns its path
/// and whether every operation of every run succeeded.
pub fn run_all(args: &AllArgs) -> Result<(PathBuf, bool), String> {
    let mut per_workload: Vec<(String, Vec<Json>)> = WORKLOADS
        .iter()
        .map(|(name, _)| (name.to_string(), Vec::new()))
        .collect();
    let mut ok = true;
    for run in 0..args.runs {
        for (name, runs) in &mut per_workload {
            eprintln!("== run {}/{}: {name}", run + 1, args.runs);
            let record = merge(&child(name, args, false)?, &child(name, args, true)?);
            ok &= record.get("ops_failed").and_then(Json::as_f64) == Some(0.0);
            runs.push(record);
        }
    }
    let doc = Json::obj([
        ("header", header(args)),
        (
            "workloads",
            Json::Obj(
                per_workload
                    .into_iter()
                    .map(|(name, runs)| (name, Json::obj([("runs", Json::Arr(runs))])))
                    .collect(),
            ),
        ),
    ]);
    let path = args
        .out
        .clone()
        .unwrap_or_else(|| crate::out_dir().join("result.json"));
    std::fs::write(&path, doc.pretty()).map_err(|e| format!("write {}: {e}", path.display()))?;
    Ok((path, ok))
}
