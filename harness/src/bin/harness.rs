//! `harness`: the repository's benchmark.
//!
//! ```sh
//! harness run --workload snort_hits --seed 2022 --seconds 10 --trace 0
//! harness run --workload snort_hits --trace 1 --trace-out trace.json
//! harness run --out A.json          # every workload, one process each
//! harness compare A.json B.json
//! harness manifest                  # prints BENCHMARK.json
//! ```
//!
//! `run` prints its result as the last line of standard output — one
//! JSON object with `correct`, `attempted`, `failed` and `metrics` — and
//! everything meant for a human on standard error. See the README next
//! to the package manifest.

use recama_harness::report::{compare, manifest_json, result_json, run_document, RUN_SECONDS};
use recama_harness::run::{run, RunConfig};
use recama_harness::spec::{Size, WORKLOADS};
use std::io::Write as _;
use std::process::{Command, ExitCode, Stdio};

const USAGE: &str = "usage:
  harness run [--workload W] [--seed N] [--seconds N] [--trace 0|1] [--trace-out FILE]
              [--smoke] [--out FILE] [--append-history FILE]
  harness compare A.json B.json
  harness manifest
workloads: snort_hits snort_churn spam_hits spam_benign (default: each, in a process of its own)";

struct RunArgs {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: Option<String>,
    smoke: bool,
    out: Option<String>,
    history: Option<String>,
}

fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let mut parsed = RunArgs {
        workload: None,
        seed: 2022,
        seconds: f64::from(RUN_SECONDS),
        trace: false,
        trace_out: None,
        smoke: false,
        out: None,
        history: None,
    };
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        if flag == "--smoke" {
            parsed.smoke = true;
            continue;
        }
        let value = args
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .clone();
        let number = |what: &str| format!("{flag} takes {what}, not `{value}`");
        match flag.as_str() {
            "--workload" => parsed.workload = Some(value),
            "--seed" => parsed.seed = value.parse().map_err(|_| number("a whole number"))?,
            "--seconds" => {
                parsed.seconds = value.parse().map_err(|_| number("a number of seconds"))?
            }
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(number("0 or 1")),
                }
            }
            "--trace-out" => parsed.trace_out = Some(value),
            "--out" => parsed.out = Some(value),
            "--append-history" => parsed.history = Some(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if parsed.trace_out.is_some() && !parsed.trace {
        return Err("--trace-out needs --trace 1".into());
    }
    Ok(parsed)
}

/// Runs one workload in this process; returns its result line and
/// whether it was correct.
fn run_here(args: &RunArgs, workload: &str) -> Result<(String, bool), String> {
    let config = RunConfig {
        workload: workload.to_string(),
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        size: if args.smoke { Size::Smoke } else { Size::Full },
    };
    let outcome = run(&config).ok_or_else(|| format!("unknown workload {workload}"))?;
    eprintln!("== {workload}, seed {}", args.seed);
    eprint!("{}", outcome.notes);
    for (name, value) in outcome.metrics.iter() {
        let unit = recama_harness::metrics::unit_of(name).unwrap_or("");
        eprintln!("{name:<36} {value:>16.6} {unit}");
    }
    eprintln!(
        "attempted {}, failed {}, error rate {}",
        outcome.tally.attempted,
        outcome.tally.failed,
        outcome.tally.error_rate()
    );
    if let Some(path) = &args.trace_out {
        std::fs::write(path, outcome.tracer.chrome_json())
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        let table = format!("{path}.self_time.txt");
        std::fs::write(&table, outcome.tracer.self_time_table())
            .map_err(|e| format!("cannot write {table}: {e}"))?;
    }
    Ok((result_json(&outcome), outcome.correct()))
}

/// Runs one workload in a child process of its own, so that its peak
/// memory is its own; returns the child's result line.
fn run_in_child(args: &RunArgs, workload: &str) -> Result<(String, bool), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find myself: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["run", "--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .stdout(Stdio::piped());
    if args.smoke {
        command.arg("--smoke");
    }
    if let Some(path) = &args.trace_out {
        command.args(["--trace-out", &format!("{path}.{workload}")]);
    }
    let output = command
        .output()
        .map_err(|e| format!("cannot start the {workload} run: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("the {workload} run printed no result ({})", output.status))?;
    Ok((line.to_string(), output.status.success()))
}

fn run_command(args: &[String]) -> Result<bool, String> {
    let args = parse_run_args(args)?;
    let mut results = Vec::new();
    let mut correct = true;
    match &args.workload {
        Some(workload) => {
            let (line, ok) = run_here(&args, workload)?;
            results.push((workload.clone(), line));
            correct &= ok;
        }
        None => {
            for workload in WORKLOADS {
                let (line, ok) = run_in_child(&args, workload)?;
                results.push((workload.to_string(), line));
                correct &= ok;
            }
        }
    }
    let document = run_document(args.seed, args.trace, args.smoke, &results);
    if let Some(path) = &args.out {
        std::fs::write(path, format!("{document}\n"))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    if let Some(path) = &args.history {
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut file| writeln!(file, "{document}"))
            .map_err(|e| format!("cannot append to {path}: {e}"))?;
    }
    // One workload: its result object, as the benchmark contract asks.
    // Several: the run document that holds them all.
    match (&args.workload, results.first()) {
        (Some(_), Some((_, line))) => println!("{line}"),
        _ => println!("{document}"),
    }
    Ok(correct)
}

fn compare_command(args: &[String]) -> Result<bool, String> {
    let [a, b] = args else {
        return Err("compare takes two files".into());
    };
    let read = |path: &String| {
        std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
    };
    let (table, clean) = compare(&read(a)?, &read(b)?)?;
    print!("{table}");
    Ok(clean)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let done = match args.split_first() {
        Some((command, rest)) if command == "run" => run_command(rest),
        Some((command, rest)) if command == "compare" => compare_command(rest),
        Some((command, [])) if command == "manifest" => {
            print!("{}", manifest_json());
            Ok(true)
        }
        _ => Err(USAGE.to_string()),
    };
    match done {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("harness: {message}");
            ExitCode::from(2)
        }
    }
}
