//! `panorama-benchmark`: end-to-end and per-layer measurements of the
//! divide → scatter → map → execute pipeline. See `benchmark/README.md`.
//!
//! One invocation with `--workload` measures that workload in this
//! process and ends its standard output with one JSON result line.
//! Without `--workload` it runs every workload, each in a process of its
//! own. `--repeat-check` runs two full sets and compares their medians
//! against each metric's own bound.

mod compile;
mod inputs;
mod probes;
mod report;
mod serve;
mod span;
mod spec;
mod staged;
mod stats;

use compile::Suite;
use report::Outcome;
use spec::{END_TO_END, RUN_SECONDS, WORKLOADS};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

/// Everything the harness writes goes under this directory (git-ignored).
const OUT_DIR: &str = "benchmark/out";

const USAGE: &str = "\
usage: benchmark/run.sh [--workload <name>] [--seed <n>] [--seconds <s>] [--trace <0|1> | --traced] [--out <file>]
       benchmark/run.sh --repeat-check [--runs <n>] [--seconds <s>]
       benchmark/run.sh --describe

  --workload   suite8x8-spr | divide16x16-plan | suite4x4-sat | serve8x8-mix (default: all, one process each)
  --seed       input seed: constants, load streams, input and request order (default 1; 2 is the hold-out)
  --seconds    time budget of the measured part (default: run_seconds of BENCHMARK.json)
  --trace 1    traced run: per-layer metrics and benchmark/out/trace-<workload>.json
  --out        where to write the JSON report (default: benchmark/out/<workload>-seed<n>[-traced].json)
  --repeat-check  two sets of <n> runs per workload (seeds 1..n, default 5); prints both medians,
                  their ratio, the quartile spread and the bound; fails when a set disagrees beyond a bound
  --describe   print the workload and metric dictionary and the table of which layer metric
               should move which end-to-end metric on which workload";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    traced: bool,
    out: Option<PathBuf>,
    repeat_check: bool,
    runs: usize,
    describe: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS,
        traced: false,
        out: None,
        repeat_check: false,
        runs: 5,
        describe: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                if !spec::is_workload(name) {
                    return Err(format!("unknown workload `{name}`"));
                }
                args.workload = Some(name.clone());
            }
            "--seed" => {
                args.seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes a whole number")?
            }
            "--seconds" => {
                args.seconds = value()?
                    .parse()
                    .map_err(|_| "--seconds takes a whole number")?;
            }
            "--trace" => {
                args.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--traced" => args.traced = true,
            "--out" => args.out = Some(PathBuf::from(value()?)),
            "--repeat-check" => args.repeat_check = true,
            "--runs" => {
                args.runs = value()?
                    .parse()
                    .map_err(|_| "--runs takes a whole number")?;
                if args.runs < 2 {
                    return Err("--runs must be at least 2".into());
                }
            }
            "--describe" => args.describe = true,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

/// Measures one workload in this process and prints its metrics.
fn run_workload(name: &str, args: &Args) -> Result<bool, String> {
    let out_dir = Path::new(OUT_DIR);
    std::fs::create_dir_all(out_dir).map_err(|e| format!("{OUT_DIR}: {e}"))?;
    let suite = match name {
        "suite8x8-spr" => Some(Suite::SPR),
        "divide16x16-plan" => Some(Suite::PLAN),
        "suite4x4-sat" => Some(Suite::SAT),
        _ => None,
    };
    let outcome: Outcome = if args.traced {
        let (outcome, recorder, inputs) = match suite {
            Some(suite) => compile::run_traced(suite, args.seed),
            None => serve::run_traced(out_dir, args.seed),
        };
        let trace_path = out_dir.join(format!("trace-{name}.json"));
        std::fs::write(&trace_path, recorder.to_json(name, &inputs))
            .map_err(|e| format!("{}: {e}", trace_path.display()))?;
        outcome
    } else {
        match suite {
            Some(suite) => compile::run(suite, args.seed, args.seconds),
            None => serve::run(out_dir, args.seed, args.seconds),
        }
    };

    for problem in &outcome.problems {
        eprintln!("{name}: FAILED CHECK: {problem}");
    }
    let metrics = report::reported(&outcome, args.traced)?;
    for (metric, value, unit) in &metrics {
        println!("{name} {metric} {value} {unit}");
    }
    let default_out = out_dir.join(format!(
        "{name}-seed{}{}.json",
        args.seed,
        if args.traced { "-traced" } else { "" }
    ));
    let out = args.out.as_deref().unwrap_or(&default_out);
    std::fs::write(
        out,
        report::out_file(
            name,
            args.seed,
            args.seconds,
            args.traced,
            &outcome,
            &metrics,
        ),
    )
    .map_err(|e| format!("{}: {e}", out.display()))?;
    println!("{}", report::result_line(&outcome, &metrics));
    Ok(outcome.correct())
}

/// Re-invokes this executable for one workload; returns its stdout.
fn spawn_workload(
    name: &str,
    seed: u64,
    seconds: u64,
    traced: bool,
    quiet: bool,
) -> Result<(bool, String), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", name, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
    if !quiet {
        print!("{stdout}");
    }
    Ok((output.status.success(), stdout))
}

/// The end-to-end values of a run's result line, in table order.
fn end_to_end_values(stdout: &str) -> Result<Vec<f64>, String> {
    use panorama::trace::json::{parse, Json};
    let line = stdout.lines().last().ok_or("no output")?;
    let doc = parse(line)?;
    END_TO_END
        .iter()
        .map(|m| {
            doc.get("metrics")
                .and_then(|ms| ms.get(m.name))
                .and_then(|v| v.get("value"))
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("result line lacks {}", m.name))
        })
        .collect()
}

/// Two sets of `runs` runs per workload; each metric's two medians must
/// agree within the metric's own bound.
fn repeat_check(args: &Args) -> Result<bool, String> {
    let mut ok = true;
    println!("workload metric median_a median_b ratio spread_a spread_b bound verdict");
    for w in &WORKLOADS {
        let mut sets: [Vec<Vec<f64>>; 2] = [Vec::new(), Vec::new()];
        for set in &mut sets {
            for seed in 1..=args.runs as u64 {
                let (success, stdout) = spawn_workload(w.name, seed, args.seconds, false, true)?;
                if !success {
                    return Err(format!("{} failed at seed {seed}", w.name));
                }
                set.push(end_to_end_values(&stdout)?);
            }
        }
        for (i, m) in END_TO_END.iter().enumerate() {
            let column = |set: &Vec<Vec<f64>>| set.iter().map(|run| run[i]).collect::<Vec<f64>>();
            let (a, b) = (column(&sets[0]), column(&sets[1]));
            let (ma, mb) = (stats::median(&a), stats::median(&b));
            let ratio = mb / ma;
            let agrees = (ratio - 1.0).abs() <= m.bound;
            ok &= agrees;
            println!(
                "{} {} {ma} {mb} {ratio:.4} {:.4} {:.4} {} {}",
                w.name,
                m.name,
                stats::quartile_spread(&a),
                stats::quartile_spread(&b),
                m.bound,
                if agrees { "ok" } else { "DISAGREE" }
            );
        }
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(why) => {
            if !why.is_empty() {
                eprintln!("error: {why}");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.describe {
        print!("{}", spec::describe());
        return ExitCode::SUCCESS;
    }
    let verdict = if args.repeat_check {
        repeat_check(&args)
    } else if let Some(name) = &args.workload {
        run_workload(name, &args)
    } else {
        WORKLOADS.iter().try_fold(true, |all_ok, w| {
            let (success, _) = spawn_workload(w.name, args.seed, args.seconds, args.traced, false)?;
            Ok(all_ok && success)
        })
    };
    match verdict {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(why) => {
            eprintln!("error: {why}");
            ExitCode::FAILURE
        }
    }
}
