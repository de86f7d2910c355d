//! CI regression gate over the checked-in benchmark artifacts.
//!
//! Reads `BENCH_planner.json` and `BENCH_learning.json` (as produced by
//! `bench_planner` / `bench_learning` in the same run) and **fails**
//! (exit 1) when a tracked ratio regresses past its threshold, instead
//! of CI merely uploading the JSON:
//!
//! * **planner quality**: the beam-20 / DP executed-latency median
//!   ratio must stay ≤ [`PLANNER_BEAM_DP_MAX`] — beam search with the
//!   expert cost model may not drift away from the DP optimum's real
//!   latency;
//! * **planner speed**: the DPccp DP's total planning time over the
//!   workload (`plan_secs_total`, dominated by the 14-table JOB-like
//!   queries) must stay ≤ [`DP_VS_SUBMASK_PLAN_RATIO`] of the retained
//!   submask enumerator's, measured in the same run. A same-run ratio
//!   is machine-robust (runner speed and pool contention hit both
//!   planners alike) and the 113-query total is noise-robust (a max
//!   would hinge on one scheduler-stall-prone measurement), while a
//!   `3^n`-style enumeration or per-candidate-allocation regression
//!   drives it toward 1.0 (measured: ~0.15 on a laptop core);
//! * **inference speed**: beam-20's total planning time must stay at
//!   or below the DPccp DP's in the same run
//!   (≤ [`BEAM20_VS_DP_PLAN_RATIO`]) — the learned agent's serving
//!   path may not regress back to pre-batching/pre-dedup-overhaul
//!   costs;
//! * **score sharing**: beam-20's `cost_calls_total / candidates_total`
//!   must stay ≤ [`BEAM20_COST_CALLS_PER_CANDIDATE_MAX`] — the beam
//!   scores each distinct join subtree once per level and reuses the
//!   score at the next, so under a third of its candidates reach the
//!   scorer. Both are counts of a deterministic search, identical on
//!   every runner and for every thread count; a change that scores per
//!   state again drives the ratio back to ~0.99;
//! * **parallel planning**: when the benchmark ran with
//!   `planning_threads` > 1, the intra-query-parallel DP row
//!   (`dp-par-bushy/expert`) must exist, must report a non-null
//!   `plan_parallel_speedup`, and its `plan_secs_total` must stay ≤
//!   [`DP_PAR_VS_SERIAL_PLAN_RATIO`] of the serial DP's in the same
//!   run — parallel DPccp is bit-identical to serial, so a fan-out
//!   that costs wall instead of saving it is a pure regression;
//! * **learning**: every trained model's `final_vs_expert_ratio`
//!   (validation-selected checkpoint vs the expert DP baseline on
//!   held-out queries) must stay ≤ [`LEARNED_EXPERT_MAX`] for full runs,
//!   or the looser [`LEARNED_EXPERT_MAX_SMOKE`] for `BALSA_SMOKE` runs
//!   (tiny scale, 2 iterations — noisier by construction);
//! * **chaos resilience**: when the CI chaos leg wrote
//!   `BENCH_learning_chaos.json` (same `bench_learning` smoke with
//!   `BALSA_FAULTS` armed), every model's learned/expert held-out ratio
//!   under injected faults must stay within [`CHAOS_VS_CLEAN_MAX`] of
//!   the same run's fault-free ratio, and the chaos leg must actually
//!   have injected faults (a zero count means the wiring is broken and
//!   the leg proves nothing). Skipped with a message when no chaos
//!   artifact exists or when it predates the resilience block — never
//!   silently treated as passing zeros;
//! * **budget resilience**: when the CI budget leg wrote
//!   `BENCH_planner_budget.json` / `BENCH_learning_budget.json` (same
//!   benchmarks re-run with a tight `BALSA_PLAN_BUDGET` armed), the
//!   degraded plans must stay within [`BUDGET_VS_CLEAN_MAX`] of the
//!   same run's clean artifact — executed-latency median for the DP
//!   planner row, learned/expert held-out ratio per model for the
//!   learning smoke — and the budget leg must actually have degraded
//!   (zero recorded fallbacks/exhaustions means the budget never fired
//!   and the leg proves nothing). Skipped with a message when no
//!   budget artifact exists — never silently treated as passing;
//! * **training speed**: the tree-conv batched fit's same-data wall
//!   (`train_batched_secs`, measured by `bench_learning` against the
//!   per-sample reference path on the run's own experience population)
//!   must stay ≤ [`TRAIN_BATCHED_VS_PER_SAMPLE_MAX`] of
//!   `train_per_sample_secs`. Same-run and same-data, so machine speed
//!   cancels; a regression that de-batches the conv kernels or bloats
//!   the batched backprop drives the ratio past 1.
//!
//! The JSON is the repo's own hand-rolled format (the serde shim does
//! not deserialize), so this reads it with a deliberately small
//! anchor-then-key scanner rather than a parser.
//!
//! Run with: `cargo run --release -p balsa-learn --example bench_gate`

use std::process::exit;

/// Max allowed beam-20 / DP executed-latency median ratio.
const PLANNER_BEAM_DP_MAX: f64 = 1.15;
/// Max allowed DPccp / submask `plan_secs_total` ratio on the
/// 113-query JOB-like workload (same-run measurement, so machine speed
/// and pool contention cancel; the 113-query sum is robust to single
/// scheduler stalls). Measured ~0.15 on a laptop-class core; the
/// acceptance bar of "≥5x faster" corresponds to 0.2.
const DP_VS_SUBMASK_PLAN_RATIO: f64 = 0.35;
/// Max allowed beam-20 / DPccp `plan_secs_total` ratio on the
/// 113-query JOB-like workload. Same-run and summed over the workload,
/// so machine speed, pool contention, and single scheduler stalls all
/// cancel — like [`DP_VS_SUBMASK_PLAN_RATIO`]. The PR-5 inference
/// overhaul (dedup-before-score state signatures, batched scoring)
/// brought beam-20 to at-or-below DP cost (measured ~0.6); a
/// per-candidate-allocation or per-probe-fingerprint regression drives
/// this back toward the pre-overhaul ~2.0.
const BEAM20_VS_DP_PLAN_RATIO: f64 = 1.0;
/// Max allowed beam-20 `cost_calls_total / candidates_total` on the
/// 113-query JOB-like workload: measured 185291 / 603266 = 0.307 with
/// cross-state score sharing (0.990 without it), plus 10 %. A ratio of
/// two counts, so it holds on any runner.
const BEAM20_COST_CALLS_PER_CANDIDATE_MAX: f64 = 0.34;
/// Max allowed parallel-DP / serial-DP `plan_secs_total` ratio when the
/// benchmark ran with more than one planning thread. Parallel DPccp is
/// bit-identical to serial by construction, so its only reason to exist
/// is speed: same-run, the fan-out (minus the [`balsa_search`] level
/// cutoff keeping trivial levels serial) must never cost more wall than
/// it saves. With the persistent pool (parked workers, so a level
/// fan-out costs a condvar wake instead of `thread::spawn`s) the ratio
/// measures ~0.5–0.65 even on a single core, where the dp row's outer
/// 4-way contention is the only "speedup" available — so the bound is
/// tightened below break-even. Checked only when the artifact's
/// `planning_threads` > 1. The companion non-null
/// `plan_parallel_speedup` check is stricter than it looks: the field
/// is suppressed unless `parallel_items_total > 0`, i.e. unless DP
/// levels *actually* fanned out.
const DP_PAR_VS_SERIAL_PLAN_RATIO: f64 = 0.85;
/// Max allowed learned / expert held-out ratio for full benchmark runs.
const LEARNED_EXPERT_MAX: f64 = 1.05;
/// Max allowed learned / expert ratio in the CI smoke configuration.
const LEARNED_EXPERT_MAX_SMOKE: f64 = 1.60;
/// Max allowed batched / per-sample tree-conv training-wall ratio —
/// the batched path must never be slower than the reference it
/// replaces (measured ~0.3–0.5 at the default batch of 64).
const TRAIN_BATCHED_VS_PER_SAMPLE_MAX: f64 = 1.0;
/// Max allowed (chaos learned/expert ratio) / (fault-free ratio):
/// retries, honest censoring, and the expert fallback must keep ~5%
/// injected faults from costing more than 25% of final plan quality.
/// Same-run (both artifacts come from the same CI job on the same
/// machine), so runner speed cancels.
const CHAOS_VS_CLEAN_MAX: f64 = 1.25;
/// Max allowed (budget-leg quality) / (clean-leg quality): the
/// fallback chain under a deliberately tight `BALSA_PLAN_BUDGET` may
/// degrade plans, but gracefully — the DP row's executed-latency
/// median and each model's learned/expert held-out ratio must stay
/// within 1.5x of the same run's unbudgeted artifacts. Same-run, so
/// runner speed cancels.
const BUDGET_VS_CLEAN_MAX: f64 = 1.5;

/// Finds `"key": <value>` at or after `anchor` (the first occurrence of
/// `anchor` in `text`) and parses the value token.
fn number_after(text: &str, anchor: &str, key: &str) -> Option<f64> {
    let start = text.find(anchor)?;
    let needle = format!("\"{key}\":");
    let at = text[start..].find(&needle)? + start + needle.len();
    let rest = text[at..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == '+'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// `true`/`false` value of `"key":` after `anchor`.
fn bool_after(text: &str, anchor: &str, key: &str) -> Option<bool> {
    let start = text.find(anchor)?;
    let needle = format!("\"{key}\":");
    let at = text[start..].find(&needle)? + start + needle.len();
    let rest = text[at..].trim_start();
    if rest.starts_with("true") {
        Some(true)
    } else if rest.starts_with("false") {
        Some(false)
    } else {
        None
    }
}

fn main() {
    let mut failures = Vec::new();

    // ---- Planner gate ----
    match std::fs::read_to_string("BENCH_planner.json") {
        Err(e) => failures.push(format!("cannot read BENCH_planner.json: {e}")),
        Ok(planner) => {
            let dp = number_after(
                &planner,
                "\"name\": \"dp-bushy/expert\"",
                "exec_secs_median",
            );
            let beam = number_after(
                &planner,
                "\"name\": \"beam20-bushy/expert\"",
                "exec_secs_median",
            );
            match (dp, beam) {
                (Some(dp), Some(beam)) if dp > 0.0 => {
                    let ratio = beam / dp;
                    println!(
                        "planner: beam20/dp executed-latency median ratio {ratio:.4} (max {PLANNER_BEAM_DP_MAX})"
                    );
                    if ratio > PLANNER_BEAM_DP_MAX {
                        failures.push(format!(
                            "planner regression: beam20/dp executed ratio {ratio:.4} > {PLANNER_BEAM_DP_MAX}"
                        ));
                    }
                }
                _ => failures.push(
                    "BENCH_planner.json: missing dp-bushy/beam20-bushy exec_secs_median".into(),
                ),
            }
            let dp_total =
                number_after(&planner, "\"name\": \"dp-bushy/expert\"", "plan_secs_total");
            let sub_total = number_after(
                &planner,
                "\"name\": \"dp-submask-bushy/expert\"",
                "plan_secs_total",
            );
            match (dp_total, sub_total) {
                (Some(dp), Some(sub)) if sub > 0.0 => {
                    let ratio = dp / sub;
                    println!(
                        "planner: dp/submask plan_secs_total ratio {ratio:.4} ({dp:.4}s vs {sub:.4}s, max {DP_VS_SUBMASK_PLAN_RATIO})"
                    );
                    if ratio > DP_VS_SUBMASK_PLAN_RATIO {
                        failures.push(format!(
                            "planner plan-time regression: dp/submask plan_secs_total ratio {ratio:.4} > {DP_VS_SUBMASK_PLAN_RATIO}"
                        ));
                    }
                }
                _ => failures
                    .push("BENCH_planner.json: missing dp-bushy/dp-submask plan_secs_total".into()),
            }
            let beam_total = number_after(
                &planner,
                "\"name\": \"beam20-bushy/expert\"",
                "plan_secs_total",
            );
            match (beam_total, dp_total) {
                (Some(beam), Some(dp)) if dp > 0.0 => {
                    let ratio = beam / dp;
                    println!(
                        "planner: beam20/dp plan_secs_total ratio {ratio:.4} ({beam:.4}s vs {dp:.4}s, max {BEAM20_VS_DP_PLAN_RATIO})"
                    );
                    if ratio > BEAM20_VS_DP_PLAN_RATIO {
                        failures.push(format!(
                            "planner inference-path regression: beam20/dp plan_secs_total ratio {ratio:.4} > {BEAM20_VS_DP_PLAN_RATIO}"
                        ));
                    }
                }
                _ => failures.push(
                    "BENCH_planner.json: missing beam20-bushy/dp-bushy plan_secs_total".into(),
                ),
            }
            let beam_anchor = "\"name\": \"beam20-bushy/expert\"";
            let calls = number_after(&planner, beam_anchor, "cost_calls_total");
            let candidates = number_after(&planner, beam_anchor, "candidates_total");
            match (calls, candidates) {
                (Some(calls), Some(candidates)) if candidates > 0.0 => {
                    let ratio = calls / candidates;
                    println!(
                        "planner: beam20 cost_calls/candidates {ratio:.4} ({calls:.0} of {candidates:.0}, max {BEAM20_COST_CALLS_PER_CANDIDATE_MAX})"
                    );
                    if ratio > BEAM20_COST_CALLS_PER_CANDIDATE_MAX {
                        failures.push(format!(
                            "score-sharing regression: beam20 cost_calls/candidates {ratio:.4} > {BEAM20_COST_CALLS_PER_CANDIDATE_MAX}"
                        ));
                    }
                }
                _ => failures.push(
                    "BENCH_planner.json: missing beam20-bushy cost_calls_total/candidates_total"
                        .into(),
                ),
            }
            // Parallel-DP gate: only meaningful when the run itself was
            // parallel (the dp-par row is structurally absent at 1
            // thread, e.g. the CI thread-matrix's serial leg).
            let threads = number_after(&planner, "{", "planning_threads").unwrap_or(1.0);
            if threads > 1.0 {
                let par_anchor = "\"name\": \"dp-par-bushy/expert\"";
                let par_total = number_after(&planner, par_anchor, "plan_secs_total");
                match (par_total, dp_total) {
                    (Some(par), Some(dp)) if dp > 0.0 => {
                        let ratio = par / dp;
                        println!(
                            "planner: dp-par/dp plan_secs_total ratio {ratio:.4} ({par:.4}s vs {dp:.4}s at {threads:.0} threads, max {DP_PAR_VS_SERIAL_PLAN_RATIO})"
                        );
                        if ratio > DP_PAR_VS_SERIAL_PLAN_RATIO {
                            failures.push(format!(
                                "parallel-planning regression: dp-par/dp plan_secs_total ratio {ratio:.4} > {DP_PAR_VS_SERIAL_PLAN_RATIO}"
                            ));
                        }
                        if number_after(&planner, par_anchor, "plan_parallel_speedup").is_none() {
                            failures.push(
                                "BENCH_planner.json: dp-par row lacks a non-null plan_parallel_speedup".into(),
                            );
                        }
                    }
                    _ => failures.push(format!(
                        "BENCH_planner.json: planning_threads={threads:.0} but no dp-par-bushy plan_secs_total"
                    )),
                }
            } else {
                println!("planner: single-threaded run — dp-par gate skipped");
            }
        }
    }

    // ---- Learning gate ----
    match std::fs::read_to_string("BENCH_learning.json") {
        Err(e) => failures.push(format!("cannot read BENCH_learning.json: {e}")),
        Ok(learning) => {
            let smoke = bool_after(&learning, "{", "smoke").unwrap_or(false);
            let max = if smoke {
                LEARNED_EXPERT_MAX_SMOKE
            } else {
                LEARNED_EXPERT_MAX
            };
            let mut checked = 0;
            for model in ["linear", "tree_conv"] {
                let anchor = format!("\"model\": \"{model}\"");
                let Some(ratio) = number_after(&learning, &anchor, "final_vs_expert_ratio") else {
                    continue;
                };
                checked += 1;
                println!(
                    "learning[{model}]: learned/expert held-out ratio {ratio:.4} (max {max}, smoke={smoke})"
                );
                if ratio > max {
                    failures.push(format!(
                        "learning regression: {model} learned/expert ratio {ratio:.4} > {max} (smoke={smoke})"
                    ));
                }
            }
            if checked == 0 {
                failures.push("BENCH_learning.json: no model entries found".into());
            }
            // Batched-vs-per-sample training gate: only the tree-conv
            // model has a distinct batched path, and only when that
            // model ran in this benchmark invocation.
            let tc_anchor = "\"model\": \"tree_conv\"";
            if learning.contains(tc_anchor) {
                let batched = number_after(&learning, tc_anchor, "train_batched_secs");
                let per_sample = number_after(&learning, tc_anchor, "train_per_sample_secs");
                match (batched, per_sample) {
                    (Some(b), Some(p)) if p > 0.0 => {
                        let ratio = b / p;
                        println!(
                            "learning[tree_conv]: batched/per-sample training wall ratio {ratio:.4} ({b:.4}s vs {p:.4}s, max {TRAIN_BATCHED_VS_PER_SAMPLE_MAX})"
                        );
                        if ratio > TRAIN_BATCHED_VS_PER_SAMPLE_MAX {
                            failures.push(format!(
                                "training-speed regression: batched/per-sample wall ratio {ratio:.4} > {TRAIN_BATCHED_VS_PER_SAMPLE_MAX}"
                            ));
                        }
                    }
                    _ => failures.push(
                        "BENCH_learning.json: tree_conv entry lacks train_batched_secs/train_per_sample_secs".into(),
                    ),
                }
            }
        }
    }

    // ---- Chaos gate ----
    // Same-run comparison: the CI chaos leg re-runs the learning smoke
    // with BALSA_FAULTS armed and writes BENCH_learning_chaos.json next
    // to the fault-free BENCH_learning.json, so the two artifacts share
    // workload, seed, and machine — the only variable is the injected
    // faults. A skip is printed, never silently scored as passing.
    match std::fs::read_to_string("BENCH_learning_chaos.json") {
        Err(_) => {
            println!("chaos: no BENCH_learning_chaos.json in this run — chaos gate skipped");
        }
        Ok(chaos) if !chaos.contains("\"resilience\":") => {
            println!(
                "chaos: BENCH_learning_chaos.json lacks a resilience block (artifact predates the robustness layer) — chaos gate skipped"
            );
        }
        Ok(chaos) => match std::fs::read_to_string("BENCH_learning.json") {
            Err(e) => failures.push(format!(
                "chaos gate: BENCH_learning_chaos.json exists but the fault-free BENCH_learning.json is unreadable: {e}"
            )),
            Ok(clean) => {
                let mut checked = 0;
                let mut injected_total = 0.0;
                for model in ["linear", "tree_conv"] {
                    let anchor = format!("\"model\": \"{model}\"");
                    let chaos_ratio = number_after(&chaos, &anchor, "final_vs_expert_ratio");
                    let clean_ratio = number_after(&clean, &anchor, "final_vs_expert_ratio");
                    let (Some(c), Some(f)) = (chaos_ratio, clean_ratio) else {
                        continue;
                    };
                    checked += 1;
                    injected_total +=
                        number_after(&chaos, &anchor, "faults_injected").unwrap_or(0.0);
                    if f <= 0.0 {
                        failures.push(format!(
                            "chaos gate: {model} fault-free ratio {f} is not positive — cannot form a degradation ratio"
                        ));
                        continue;
                    }
                    let rel = c / f;
                    println!(
                        "chaos[{model}]: learned/expert ratio {c:.4} under faults vs {f:.4} fault-free -> {rel:.4}x (max {CHAOS_VS_CLEAN_MAX})"
                    );
                    if rel > CHAOS_VS_CLEAN_MAX {
                        failures.push(format!(
                            "chaos regression: {model} learned/expert ratio degrades {rel:.4}x under injected faults > {CHAOS_VS_CLEAN_MAX} ({c:.4} vs {f:.4})"
                        ));
                    }
                }
                if checked == 0 {
                    failures.push(
                        "chaos gate: chaos and fault-free artifacts share no model entries".into(),
                    );
                } else if injected_total == 0.0 {
                    failures.push(
                        "chaos gate: resilience blocks report zero injected faults — the chaos leg exercised nothing".into(),
                    );
                }
            }
        },
    }

    // ---- Budget gate ----
    // Same-run comparison, like the chaos gate: the CI budget leg
    // re-runs the planner benchmark and the learning smoke with a
    // deliberately tight BALSA_PLAN_BUDGET (and the plan verifier
    // forced on), writing *_budget.json artifacts next to the clean
    // ones. Graceful degradation means bounded quality loss with the
    // fallbacks honestly recorded — a budget leg with zero recorded
    // degradations proves nothing and fails loudly.
    match std::fs::read_to_string("BENCH_planner_budget.json") {
        Err(_) => {
            println!("budget: no BENCH_planner_budget.json in this run — planner budget gate skipped");
        }
        Ok(budgeted) => match std::fs::read_to_string("BENCH_planner.json") {
            Err(e) => failures.push(format!(
                "budget gate: BENCH_planner_budget.json exists but the clean BENCH_planner.json is unreadable: {e}"
            )),
            Ok(clean) => {
                let dp_anchor = "\"name\": \"dp-bushy/expert\"";
                let b = number_after(&budgeted, dp_anchor, "exec_secs_median");
                let c = number_after(&clean, dp_anchor, "exec_secs_median");
                match (b, c) {
                    (Some(b), Some(c)) if c > 0.0 => {
                        let ratio = b / c;
                        println!(
                            "budget[planner]: dp executed-latency median {ratio:.4}x of clean ({b:.6}s vs {c:.6}s, max {BUDGET_VS_CLEAN_MAX})"
                        );
                        if ratio > BUDGET_VS_CLEAN_MAX {
                            failures.push(format!(
                                "budget regression: dp executed-latency median degrades {ratio:.4}x under the budget > {BUDGET_VS_CLEAN_MAX}"
                            ));
                        }
                    }
                    _ => failures.push(
                        "budget gate: dp-bushy exec_secs_median missing from planner artifacts"
                            .into(),
                    ),
                }
                let degraded =
                    number_after(&budgeted, dp_anchor, "degraded_levels_total").unwrap_or(0.0);
                let exhausted =
                    number_after(&budgeted, dp_anchor, "budget_exhausted_queries").unwrap_or(0.0);
                println!(
                    "budget[planner]: dp row degraded_levels_total {degraded:.0}, budget_exhausted_queries {exhausted:.0}"
                );
                if degraded == 0.0 || exhausted == 0.0 {
                    failures.push(
                        "budget gate: planner budget leg recorded no degradations — the budget never fired and the leg proves nothing".into(),
                    );
                }
            }
        },
    }
    match std::fs::read_to_string("BENCH_learning_budget.json") {
        Err(_) => {
            println!("budget: no BENCH_learning_budget.json in this run — learning budget gate skipped");
        }
        Ok(budgeted) => match std::fs::read_to_string("BENCH_learning.json") {
            Err(e) => failures.push(format!(
                "budget gate: BENCH_learning_budget.json exists but the clean BENCH_learning.json is unreadable: {e}"
            )),
            Ok(clean) => {
                let mut checked = 0;
                let mut degraded_total = 0.0;
                for model in ["linear", "tree_conv"] {
                    let anchor = format!("\"model\": \"{model}\"");
                    let b = number_after(&budgeted, &anchor, "final_vs_expert_ratio");
                    let c = number_after(&clean, &anchor, "final_vs_expert_ratio");
                    let (Some(b), Some(c)) = (b, c) else {
                        continue;
                    };
                    checked += 1;
                    degraded_total += number_after(&budgeted, &anchor, "planner_degraded")
                        .unwrap_or(0.0)
                        + number_after(&budgeted, &anchor, "planner_exhausted").unwrap_or(0.0);
                    if c <= 0.0 {
                        failures.push(format!(
                            "budget gate: {model} clean ratio {c} is not positive — cannot form a degradation ratio"
                        ));
                        continue;
                    }
                    let rel = b / c;
                    println!(
                        "budget[{model}]: learned/expert ratio {b:.4} under the budget vs {c:.4} clean -> {rel:.4}x (max {BUDGET_VS_CLEAN_MAX})"
                    );
                    if rel > BUDGET_VS_CLEAN_MAX {
                        failures.push(format!(
                            "budget regression: {model} learned/expert ratio degrades {rel:.4}x under the plan budget > {BUDGET_VS_CLEAN_MAX} ({b:.4} vs {c:.4})"
                        ));
                    }
                }
                if checked == 0 {
                    failures.push(
                        "budget gate: budget and clean learning artifacts share no model entries"
                            .into(),
                    );
                } else if degraded_total == 0.0 {
                    failures.push(
                        "budget gate: resilience blocks report zero planner degradations — the budget never fired and the leg proves nothing".into(),
                    );
                }
            }
        },
    }

    if failures.is_empty() {
        println!("bench gate: all thresholds hold");
    } else {
        for f in &failures {
            eprintln!("bench gate FAILURE: {f}");
        }
        exit(1);
    }
}
