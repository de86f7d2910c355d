//! Command line of the reference benchmark; see the crate docs.

use balsa_bench::harness::Args;
use balsa_bench::run_all::{run_all, AllArgs};
use balsa_bench::{balsa_env_vars, compare, emit, run_workload};
use std::process::ExitCode;

const USAGE: &str = "usage:
  balsa-bench --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--smoke]
  balsa-bench --all [--seed N] [--seconds S] [--runs N] [--out FILE]
  balsa-bench --smoke
  balsa-bench --compare A.json B.json
  balsa-bench --benchmark-json";

struct Cli {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    all: bool,
    runs: usize,
    out: Option<std::path::PathBuf>,
    compare: Option<(String, String)>,
    benchmark_json: bool,
}

fn parse(argv: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: 7,
        seconds: 10.0,
        trace: false,
        smoke: false,
        all: false,
        runs: 1,
        out: None,
        compare: None,
        benchmark_json: false,
    };
    let mut it = argv.iter();
    fn value<'a>(it: &mut std::slice::Iter<'a, String>, flag: &str) -> Result<&'a String, String> {
        it.next().ok_or_else(|| format!("{flag} needs a value"))
    }
    fn number<T: std::str::FromStr>(s: &str, flag: &str) -> Result<T, String> {
        s.parse().map_err(|_| format!("{flag}: bad value {s:?}"))
    }
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => cli.workload = Some(value(&mut it, flag)?.clone()),
            "--seed" => cli.seed = number(value(&mut it, flag)?, flag)?,
            "--seconds" => {
                cli.seconds = number(value(&mut it, flag)?, flag)?;
                if !(0.0..=60.0).contains(&cli.seconds) {
                    return Err("--seconds must be within 0..=60".into());
                }
            }
            "--trace" => {
                cli.trace = match value(&mut it, flag)?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace: bad value {other:?}")),
                }
            }
            "--runs" => {
                cli.runs = number(value(&mut it, flag)?, flag)?;
                if !(1..=32).contains(&cli.runs) {
                    return Err("--runs must be within 1..=32".into());
                }
            }
            "--out" => cli.out = Some(value(&mut it, flag)?.into()),
            "--smoke" => cli.smoke = true,
            "--all" => cli.all = true,
            "--compare" => {
                let a = value(&mut it, flag)?.clone();
                cli.compare = Some((a, value(&mut it, flag)?.clone()));
            }
            "--benchmark-json" => cli.benchmark_json = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(cli)
}

fn run(cli: Cli) -> Result<bool, String> {
    if cli.benchmark_json {
        print!("{}", balsa_bench::metrics::benchmark_json().pretty());
        return Ok(true);
    }
    if let Some((a, b)) = &cli.compare {
        return compare::compare(a, b);
    }
    // Debug assertions switch the plan verifier on inside every planner
    // call: the numbers would measure a different program. A smoke
    // run's numbers are never compared, so tests may drive one.
    if cfg!(debug_assertions) && !cli.smoke {
        return Err("built with debug assertions; build with --release".into());
    }
    let set = balsa_env_vars();
    if !set.is_empty() {
        return Err(format!(
            "refusing to run with {} set: the library reads BALSA_* variables on its own",
            set.join(", ")
        ));
    }
    // A smoke run measures its floor of passes and no longer.
    let seconds = if cli.smoke { 0.0 } else { cli.seconds };
    if let Some(workload) = cli.workload {
        let args = Args {
            workload,
            seed: cli.seed,
            seconds,
            trace: cli.trace,
            smoke: cli.smoke,
        };
        let report = run_workload(&args)?;
        emit(&args, &report);
        return Ok(true);
    }
    if cli.all || cli.smoke {
        let (path, ok) = run_all(&AllArgs {
            seed: cli.seed,
            seconds,
            runs: cli.runs,
            smoke: cli.smoke,
            out: cli.out,
        })?;
        eprintln!("wrote {}", path.display());
        return Ok(ok);
    }
    Err(USAGE.into())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match parse(&argv).and_then(run) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("balsa-bench: {e}");
            ExitCode::from(2)
        }
    }
}
