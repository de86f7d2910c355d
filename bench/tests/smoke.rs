//! Drives the built binary: the smoke run end to end, the guards that
//! refuse to measure a different program, and `--compare`'s refusal of
//! smoke results.

use balsa_bench::json::Json;
use balsa_bench::metrics::{END_TO_END, PER_LAYER, WORKLOADS};
use std::path::PathBuf;
use std::process::{Command, Output};
use std::time::Instant;

fn bench() -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_balsa-bench"));
    for (name, _) in std::env::vars_os() {
        if name.to_string_lossy().starts_with("BALSA_") {
            cmd.env_remove(name);
        }
    }
    cmd
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn smoke_run_covers_every_workload_and_is_never_compared() {
    let out_path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("smoke-test-{}.json", std::process::id()));
    let t = Instant::now();
    let out = bench()
        .arg("--smoke")
        .arg("--out")
        .arg(&out_path)
        .output()
        .expect("spawn");
    let wall = t.elapsed().as_secs_f64();
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(wall < 15.0, "smoke took {wall:.1}s");

    let doc = Json::parse(&std::fs::read_to_string(&out_path).unwrap()).unwrap();
    let header = doc.get("header").unwrap();
    assert_eq!(header.get("smoke"), Some(&Json::Bool(true)));
    for key in ["commit", "seed", "nproc", "threads", "passes", "rustc"] {
        assert!(header.get(key).is_some(), "header lacks {key}");
    }
    for (workload, _) in WORKLOADS {
        let runs = doc
            .get("workloads")
            .and_then(|w| w.get(workload))
            .and_then(|w| w.get("runs"))
            .and_then(Json::as_arr)
            .unwrap();
        assert_eq!(runs.len(), 1);
        let run = &runs[0];
        assert_eq!(run.get("ops_failed"), Some(&Json::Num(0.0)), "{run}");
        let e2e = run.get("end_to_end").unwrap();
        for m in &END_TO_END {
            let value = e2e.get(m.name).and_then(|c| c.get("value")).unwrap();
            assert!(
                value.as_f64().is_some_and(|v| v > 0.0),
                "{workload} {}",
                m.name
            );
        }
        // Every per-layer metric is present; a layer the workload never
        // enters is null, not zero.
        let layers = run.get("per_layer").unwrap();
        assert_eq!(layers.as_obj().unwrap().len(), PER_LAYER.len());
        let value = |name: &str| layers.get(name).and_then(|c| c.get("value")).cloned();
        assert!(value("storage.rows").unwrap().as_f64().is_some());
        let (dp, beam) = (value("search.dp.calls"), value("search.beam.calls"));
        if workload == "dp-expert" {
            assert_eq!(beam, Some(Json::Null));
            assert_eq!(value("learn.model.infer_calls"), Some(Json::Null));
            assert!(dp.unwrap().as_f64().is_some());
            assert_eq!(
                e2e.get("runtime_ratio_vs_expert").unwrap().get("value"),
                Some(&Json::Num(1.0))
            );
        } else {
            assert_eq!(dp, Some(Json::Null));
            assert_eq!(value("cost.work_out_calls"), Some(Json::Null));
            assert!(beam.unwrap().as_f64().is_some());
        }
        let injected = value("engine.faults.injected").unwrap();
        assert_eq!(injected == Json::Null, workload != "train-linear-hostile");
    }

    let path = out_path.to_str().unwrap();
    let out = bench().args(["--compare", path, path]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("smoke run is never compared"));
    let _ = std::fs::remove_file(&out_path);
}

#[test]
fn refuses_to_measure_a_different_program() {
    // Any BALSA_* variable: the library reads some on its own.
    let out = bench()
        .args(["--smoke", "--workload", "dp-expert"])
        .env("BALSA_PLAN_THREADS", "4")
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("BALSA_PLAN_THREADS"));
    assert!(out.stdout.is_empty());

    // Debug assertions switch the plan verifier on: only a smoke run
    // may go ahead.
    let out = bench()
        .args(["--workload", "dp-expert", "--seconds", "0"])
        .output()
        .unwrap();
    if cfg!(debug_assertions) {
        assert_eq!(out.status.code(), Some(2));
        assert!(stderr(&out).contains("debug assertions"));
        assert!(out.stdout.is_empty());
    } else {
        assert!(out.status.success(), "{}", stderr(&out));
    }

    let out = bench()
        .args(["--workload", "nope"])
        .arg("--smoke")
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("unknown workload"));
}
