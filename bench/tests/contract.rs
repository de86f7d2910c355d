//! The root `BENCHMARK.json` is what the driver reads; the tables in
//! `src/metrics.rs` are what the harness emits. The file must be what
//! `--benchmark-json` prints, and must stay inside the driver's limits.

use balsa_bench::json::Json;
use balsa_bench::metrics::{benchmark_json, END_TO_END, PER_LAYER, WORKLOADS};

fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

#[test]
fn benchmark_json_is_the_generated_document() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    assert!(text.len() <= 64 * 1024);
    assert_eq!(
        Json::parse(&text).expect("BENCHMARK.json parses"),
        benchmark_json(),
        "regenerate with `balsa-bench --benchmark-json > BENCHMARK.json`"
    );
}

#[test]
fn tables_stay_inside_the_driver_limits() {
    assert!((2..=8).contains(&WORKLOADS.len()));
    for (name, why) in WORKLOADS {
        assert!(valid_name(name) && why.len() <= 200 && !why.contains('\n'));
    }
    for m in &END_TO_END {
        assert!(valid_name(m.name) && valid_unit(m.unit), "{}", m.name);
        assert!(m.bound > 0.0 && m.bound <= 0.25);
    }
    // Set-up time is declared, lower-is-better, with the largest bound.
    let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
    assert_eq!((setup.unit, setup.better.as_str()), ("s", "lower"));
    assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));

    assert!(PER_LAYER.len() <= 128);
    for (name, unit, _) in PER_LAYER {
        assert!(valid_name(name) && valid_unit(unit), "{name} {unit}");
    }

    // Every name is used once.
    let mut names: Vec<&str> = WORKLOADS
        .iter()
        .map(|(n, _)| *n)
        .chain(END_TO_END.iter().map(|m| m.name))
        .chain(PER_LAYER.iter().map(|(n, ..)| *n))
        .collect();
    names.sort_unstable();
    let total = names.len();
    names.dedup();
    assert_eq!(names.len(), total);
}
