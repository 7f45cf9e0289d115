//! The harness checked at smoke size: KiB-scale inputs, a dozen rules,
//! the same code paths as a full run.

use recama::mnrl::jsonval::Value;
use recama_harness::metrics::{Metrics, END_TO_END, PER_LAYER};
use recama_harness::report::{manifest_json, result_json};
use recama_harness::run::{run, Outcome, RunConfig};
use recama_harness::serve::{build_engine, digest_mismatches, run_pass, Pass, Tally};
use recama_harness::spec::{spec, Inputs, Size, WORKLOADS};
use recama_harness::stats::percentile;
use recama_harness::trace::Tracer;
use std::process::Command;

fn smoke(workload: &str, seed: u64, trace: bool) -> Outcome {
    run(&RunConfig {
        workload: workload.to_string(),
        seed,
        seconds: 0.0,
        trace,
        size: Size::Smoke,
    })
    .expect("a known workload")
}

fn benchmark_json() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root")
}

/// The `field` of every entry of the list `key` in `BENCHMARK.json`.
fn declared(doc: &Value, key: &str, field: &str) -> Vec<String> {
    let entries = doc.get(key).unwrap().as_array().unwrap();
    entries
        .iter()
        .map(|entry| entry.get(field).unwrap().as_str().unwrap().to_string())
        .collect()
}

fn well_formed(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

#[test]
fn benchmark_json_is_what_the_harness_generates() {
    assert_eq!(benchmark_json(), manifest_json());
}

#[test]
fn every_declared_metric_is_printed_once_per_workload_with_its_unit() {
    let doc = Value::parse(&benchmark_json()).unwrap();
    let workloads = declared(&doc, "workloads", "name");
    assert_eq!(workloads, WORKLOADS);
    for workload in WORKLOADS {
        for (trace, key) in [(false, "end_to_end"), (true, "per_layer")] {
            let outcome = smoke(workload, 7, trace);
            assert!(
                outcome.correct(),
                "{workload} trace={trace}: {:?}",
                outcome.tally
            );
            let line = result_json(&outcome);
            assert!(!line.contains('\n'));
            let result = Value::parse(&line).unwrap();
            let Value::Object(fields) = &result else {
                panic!("the result is an object")
            };
            let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert!(result.get("attempted").unwrap().as_u64().unwrap() >= 1);
            let Some(Value::Object(printed)) = result.get("metrics") else {
                panic!("metrics is an object")
            };
            let printed: Vec<(String, String)> = printed
                .iter()
                .map(|(name, m)| {
                    assert!(matches!(m.get("value"), Some(Value::Num(v)) if v.is_finite()));
                    (
                        name.clone(),
                        m.get("unit").unwrap().as_str().unwrap().to_string(),
                    )
                })
                .collect();
            let mut expected: Vec<(String, String)> = declared(&doc, key, "name")
                .into_iter()
                .zip(declared(&doc, key, "unit"))
                .collect();
            expected.sort();
            // Printed in name order, each exactly once, nothing else.
            assert_eq!(printed, expected, "{workload} trace={trace}");
            assert!(printed.iter().all(|(name, _)| well_formed(name)));
        }
    }
}

/// The metrics that must repeat exactly: every count, and the simulated
/// energy and area. `service.queue_depth_peak` is left out: it is a
/// gauge of how far the driver got ahead of the worker, which is timing.
fn exact(metrics: &Metrics) -> Vec<(&'static str, f64)> {
    let counts = PER_LAYER
        .iter()
        .filter(|&&(name, unit, _)| {
            matches!(unit, "count" | "B") && name != "service.queue_depth_peak"
        })
        .map(|&(name, ..)| name);
    let simulated = END_TO_END
        .iter()
        .filter(|&&(name, ..)| name.starts_with("sim_"))
        .map(|&(name, ..)| name);
    counts
        .chain(simulated)
        .filter_map(|name| metrics.get(name).map(|value| (name, value)))
        .collect()
}

#[test]
fn counts_and_simulated_metrics_repeat_with_the_seed_and_move_with_it() {
    for workload in ["snort_hits", "snort_churn", "spam_hits"] {
        for trace in [false, true] {
            let first = exact(&smoke(workload, 11, trace).metrics);
            let again = exact(&smoke(workload, 11, trace).metrics);
            let other = exact(&smoke(workload, 12, trace).metrics);
            assert!(!first.is_empty());
            assert_eq!(first, again, "{workload} trace={trace}");
            // Two KiB of traffic need not wake a counter, so the simulated
            // energy may not move; the traced run's report counts do.
            if trace {
                assert_ne!(first, other, "{workload}");
            }
        }
    }
}

#[test]
fn p99_needs_a_thousand_samples() {
    let samples: Vec<f64> = (0..999).map(f64::from).collect();
    assert_eq!(percentile(&samples, 99.0), None);
    let samples: Vec<f64> = (0..1000).map(f64::from).collect();
    assert_eq!(percentile(&samples, 99.0), Some(989.0));
}

#[test]
fn a_corrupted_digest_shows_in_the_error_rate() {
    let spec = spec("snort_hits", Size::Smoke).unwrap();
    let inputs = Inputs::generate(&spec, 3);
    let engine = build_engine(&inputs.rules, recama::PrefilterMode::On);
    let mut off = Tracer::new(false);
    let reference = run_pass(&engine, &spec, &inputs, Pass::THROUGHPUT, &mut off);
    let mut again = run_pass(&engine, &spec, &inputs, Pass::THROUGHPUT, &mut off);
    assert_eq!(reference.full_digests.len(), spec.total_flows());
    assert!(reference.reports > 0, "the digests cover some reports");
    assert_eq!(
        digest_mismatches(&reference.full_digests, &again.full_digests),
        0
    );

    again.full_digests[1] ^= 1;
    let mut tally = Tally {
        attempted: reference.full_digests.len() as u64,
        failed: digest_mismatches(&reference.full_digests, &again.full_digests),
    };
    assert_eq!(tally.failed, 1);
    assert!(tally.error_rate() > 0.0);
    // A flow that went missing is a mismatch too.
    again.full_digests.pop();
    tally.failed = digest_mismatches(&reference.full_digests, &again.full_digests);
    assert_eq!(tally.failed, 2);
}

#[test]
fn the_command_prints_the_result_as_its_last_line_and_rejects_bad_input() {
    let harness = env!("CARGO_BIN_EXE_harness");
    let output = Command::new(harness)
        .args([
            "run",
            "--workload",
            "spam_benign",
            "--seed",
            "5",
            "--seconds",
            "0",
        ])
        .args(["--trace", "0", "--smoke"])
        .output()
        .unwrap();
    assert!(output.status.success());
    let stdout = String::from_utf8(output.stdout).unwrap();
    let result = Value::parse(stdout.lines().last().unwrap()).unwrap();
    assert_eq!(result.get("correct").unwrap().as_bool(), Some(true));
    assert_eq!(result.get("failed").unwrap().as_u64(), Some(0));

    for bad in [
        &["run", "--workload", "no_such_workload", "--smoke"][..],
        &["run", "--trace", "2"],
        &["run", "--seed"],
        &["frobnicate"],
    ] {
        let output = Command::new(harness).args(bad).output().unwrap();
        assert!(!output.status.success(), "{bad:?}");
        assert!(output.stdout.is_empty(), "{bad:?} printed a result");
    }
}

#[test]
fn compare_reads_what_run_writes() {
    let harness = env!("CARGO_BIN_EXE_harness");
    let dir = std::env::temp_dir().join(format!("recama-harness-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (a, history) = (dir.join("a.json"), dir.join("history.jsonl"));
    for _ in 0..2 {
        let status = Command::new(harness)
            .args(["run", "--smoke", "--seconds", "0", "--out"])
            .arg(&a)
            .arg("--append-history")
            .arg(&history)
            .output()
            .unwrap()
            .status;
        assert!(status.success());
    }
    let lines = |path| std::fs::read_to_string(path).unwrap().lines().count();
    assert_eq!((lines(&a), lines(&history)), (1, 2));
    let output = Command::new(harness)
        .arg("compare")
        .args([&a, &history])
        .output()
        .unwrap();
    let table = String::from_utf8(output.stdout).unwrap();
    // One header and one row per workload × end-to-end metric; the exact
    // metrics compare as unchanged whatever the timings did.
    assert_eq!(
        table.lines().count(),
        1 + WORKLOADS.len() * END_TO_END.len()
    );
    for line in table.lines().filter(|l| l.contains("sim_area_mm2")) {
        assert!(line.contains("unchanged"), "{line}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
