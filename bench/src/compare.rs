//! `--compare a.json b.json`: per workload and end-to-end metric, both
//! medians, the ratio with its base, the bound, and a verdict. `a` is
//! the base (the parent commit, or the first A/A set), `b` the change.
//!
//! * `worse` — `b`'s median is worse than `a`'s by more than the bound.
//! * `unresolved` — not worse, but the run-to-run spread (interquartile
//!   distance over the median, either side) is wider than the bound, so
//!   "unchanged" cannot be claimed — unless every run of `b` reads
//!   better than every run of `a`.
//! * `ok` — otherwise.

use crate::json::Json;
use crate::metrics::{Better, EndToEnd, END_TO_END, WORKLOADS};
use crate::stats::{median, spread};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges one metric from both sides' per-run values.
pub fn judge(better: Better, bound: f64, a: &[f64], b: &[f64]) -> Verdict {
    let (ma, mb) = (median(a), median(b));
    let worse_by = match better {
        Better::Lower => (mb - ma) / ma.abs(),
        Better::Higher => (ma - mb) / ma.abs(),
    };
    if worse_by.is_nan() || worse_by > bound {
        return Verdict::Worse;
    }
    let b_always_better = a.iter().all(|&x| {
        b.iter().all(|&y| match better {
            Better::Lower => y < x,
            Better::Higher => y > x,
        })
    });
    if spread(a).max(spread(b)) > bound && !b_always_better {
        return Verdict::Unresolved;
    }
    Verdict::Ok
}

/// One side's runs of one workload.
struct Side<'a> {
    runs: &'a [Json],
}

impl<'a> Side<'a> {
    fn of(doc: &'a Json, workload: &str) -> Result<Self, String> {
        doc.get("workloads")
            .and_then(|w| w.get(workload))
            .and_then(|w| w.get("runs"))
            .and_then(Json::as_arr)
            .filter(|runs| !runs.is_empty())
            .map(|runs| Side { runs })
            .ok_or_else(|| format!("no runs of {workload}"))
    }

    fn field(&self, key: &str) -> Vec<f64> {
        self.runs
            .iter()
            .filter_map(|r| r.get(key).and_then(Json::as_f64))
            .collect()
    }

    fn metric(&self, name: &str) -> Vec<f64> {
        self.runs
            .iter()
            .filter_map(|r| r.get("end_to_end")?.get(name)?.get("value")?.as_f64())
            .collect()
    }

    fn failed_share(&self) -> f64 {
        self.field("ops_failed").iter().sum::<f64>() / self.field("ops_total").iter().sum::<f64>()
    }
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let header = |key: &str| doc.get("header").and_then(|h| h.get(key));
    if header("smoke").and_then(Json::as_bool) != Some(false) {
        return Err(format!("{path}: a smoke run is never compared"));
    }
    if header("debug_assertions").and_then(Json::as_bool) != Some(false) {
        return Err(format!("{path}: built with debug assertions"));
    }
    Ok(doc)
}

/// The bound a metric is judged by: the tighter one when both sides ran
/// the same seeds and the metric is deterministic for a seed.
fn bound_for(m: &EndToEnd, same_seeds: bool) -> f64 {
    match m.same_seed_bound {
        Some(b) if same_seeds => b,
        _ => m.bound,
    }
}

/// Prints the comparison; `Ok(true)` when nothing is worse.
pub fn compare(path_a: &str, path_b: &str) -> Result<bool, String> {
    let (a, b) = (load(path_a)?, load(path_b)?);
    let mut pass = true;
    println!(
        "{:<22} {:<24} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "a (base)", "b", "b/a", "bound"
    );
    for (workload, _) in WORKLOADS {
        let (sa, sb) = (Side::of(&a, workload)?, Side::of(&b, workload)?);
        let same_seeds = sa.field("seed") == sb.field("seed");
        for m in &END_TO_END {
            let (va, vb) = (sa.metric(m.name), sb.metric(m.name));
            if va.len() != sa.runs.len() || vb.len() != sb.runs.len() {
                return Err(format!("{workload}: {} missing from a run", m.name));
            }
            let bound = bound_for(m, same_seeds);
            let verdict = judge(m.better, bound, &va, &vb);
            pass &= verdict != Verdict::Worse;
            println!(
                "{workload:<22} {:<24} {:>14.6} {:>14.6} {:>9.4} {:>6.1}%  {}  (n={}/{}, spread {:.1}%/{:.1}%, {})",
                m.name,
                median(&va),
                median(&vb),
                median(&vb) / median(&va),
                bound * 100.0,
                verdict.as_str(),
                va.len(),
                vb.len(),
                spread(&va) * 100.0,
                spread(&vb) * 100.0,
                m.unit,
            );
        }
        let (fa, fb) = (sa.failed_share(), sb.failed_share());
        let failed_ok = fb <= fa;
        pass &= failed_ok;
        println!(
            "{workload:<22} {:<24} {:>14.6} {:>14.6} {:>9} {:>7}  {}",
            "ops_failed/ops_total",
            fa,
            fb,
            "",
            "",
            if failed_ok { "ok" } else { "worse" }
        );
        if same_seeds {
            let same = sa.field("plans_checksum") == sb.field("plans_checksum");
            println!(
                "{workload:<22} {:<24} {}",
                "plans_checksum",
                if same {
                    "identical"
                } else {
                    "DIFFERENT: the plans changed"
                }
            );
        }
    }
    Ok(pass)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts() {
        use Better::{Higher, Lower};
        // Within the bound, tight spread.
        assert_eq!(
            judge(Lower, 0.1, &[1.0, 1.01, 0.99], &[1.05, 1.04, 1.06]),
            Verdict::Ok
        );
        // Median beyond the bound.
        assert_eq!(
            judge(Lower, 0.1, &[1.0, 1.0, 1.0], &[1.2, 1.2, 1.2]),
            Verdict::Worse
        );
        assert_eq!(judge(Higher, 0.1, &[1.0; 3], &[0.8; 3]), Verdict::Worse);
        assert_eq!(judge(Higher, 0.1, &[1.0; 3], &[1.5; 3]), Verdict::Ok);
        // Not worse, but the base's own runs spread wider than the bound.
        assert_eq!(
            judge(Lower, 0.1, &[1.0, 1.5, 0.7, 1.2], &[1.0, 1.0, 1.0, 1.0]),
            Verdict::Unresolved
        );
        // ... unless every run of b beats every run of a.
        assert_eq!(
            judge(Lower, 0.1, &[1.0, 1.5, 0.7, 1.2], &[0.5, 0.6, 0.5, 0.6]),
            Verdict::Ok
        );
        // Single runs have no spread.
        assert_eq!(judge(Lower, 0.1, &[1.0], &[1.05]), Verdict::Ok);
        assert_eq!(judge(Lower, 0.001, &[1.0], &[1.0]), Verdict::Ok);
        assert_eq!(judge(Lower, 0.1, &[], &[1.0]), Verdict::Worse);
    }
}
