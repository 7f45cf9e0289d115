//! What the harness prints and reads: the one-line result of a run,
//! `BENCHMARK.json`, the run document `--out` / `--append-history`
//! write, and the comparison of two sets of run documents.

use crate::metrics::{unit_of, Better, END_TO_END, PER_LAYER};
use crate::run::Outcome;
use crate::spec::WORKLOADS;
use crate::stats::{median, quartiles};
use recama::mnrl::jsonval::Value;
use std::fmt::Write as _;

/// Seconds one run spends repeating its measuring cycle, as
/// `BENCHMARK.json` states it and as `--seconds` defaults to.
pub const RUN_SECONDS: u32 = 22;

/// Why each workload exists, in [`WORKLOADS`] order.
pub const WHY: [&str; 4] = [
    "Snort scale 0.02, 32 long flows x 2 KiB chunks, 3 MiB/pass: always-on counter rules in every shard, so the prefilter cannot skip and the exact NCA fallback owns scan time; the analysis owns compile.",
    "Same rules, 1024 flows of 2 KiB in 512 B chunks, 64 open at a time, 2 MiB/pass, all timed: every flow pays engine allocation, cold lazy-DFA construction and flow-table open/close.",
    "SpamAssassin scale 0.02, literal-dense traffic, 32 flows x 2 KiB chunks, 32 MiB/pass: shards wake once and stay hot, so the time is lazy-DFA row stepping plus report merge.",
    "Same rules, traffic without a match, 32 MiB/pass: nearly every (flow, shard) unit is skipped, so the time is the Aho-Corasick prefilter inside push plus queue/lock bookkeeping; the engines idle.",
];

/// The result of one run as the one JSON object the benchmark contract
/// asks for: `correct`, `attempted`, `failed`, and each metric's value
/// and unit.
pub fn result_json(outcome: &Outcome) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        outcome.correct(),
        outcome.tally.attempted,
        outcome.tally.failed
    );
    for (i, (name, value)) in outcome.metrics.iter().enumerate() {
        let unit = unit_of(name).expect("Metrics::set checked the name");
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push_str("}}");
    out
}

/// `BENCHMARK.json`, generated from the metric tables and the workload
/// list so that the file cannot name something the harness does not
/// print.
pub fn manifest_json() -> String {
    let mut out = String::from("{\n  \"command\": [");
    let command = [
        "cargo",
        "run",
        "--release",
        "--quiet",
        "--manifest-path",
        "harness/Cargo.toml",
        "--bin",
        "harness",
        "--",
        "run",
    ];
    let quoted: Vec<String> = command.iter().map(|c| format!("\"{c}\"")).collect();
    out.push_str(&quoted.join(", "));
    let _ = write!(
        out,
        "],\n  \"paths\": [\"harness\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n"
    );
    for (i, (name, why)) in WORKLOADS.iter().zip(WHY).enumerate() {
        let sep = if i + 1 == WORKLOADS.len() { "" } else { "," };
        let _ = writeln!(out, "    {{\"name\": \"{name}\", \"why\": \"{why}\"}}{sep}");
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, (name, unit, better, bound)) in END_TO_END.iter().enumerate() {
        let sep = if i + 1 == END_TO_END.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{}\", \"bound\": {bound}}}{sep}",
            better.name()
        );
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, (name, unit, better)) in PER_LAYER.iter().enumerate() {
        let sep = if i + 1 == PER_LAYER.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{}\"}}{sep}",
            better.name()
        );
    }
    out.push_str("  ]\n}\n");
    out
}

/// One run's document: its settings and, per workload, the result
/// object [`result_json`] printed. One line, so that a history file
/// holds one run per line.
pub fn run_document(seed: u64, trace: bool, smoke: bool, results: &[(String, String)]) -> String {
    let mut out = format!(
        "{{\"seed\": {seed}, \"trace\": {}, \"smoke\": {smoke}, \"workloads\": {{",
        u8::from(trace)
    );
    for (i, (workload, result)) in results.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(out, "{sep}\"{workload}\": {result}");
    }
    out.push_str("}}");
    out
}

/// The verdict of one comparison row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound either way.
    Unchanged,
    /// Better by more than the bound.
    Improved,
    /// Worse by more than the bound.
    Regressed,
    /// The runs of one side spread wider than the bound.
    Unresolved,
    /// One side has no value.
    Missing,
}

/// Values of `metric` on `workload` over the run documents of `text`
/// (one document per line), and the `failed` counts next to them.
fn values_of(docs: &[Value], workload: &str, metric: &str) -> (Vec<f64>, u64) {
    let mut values = Vec::new();
    let mut failed = 0;
    for doc in docs {
        let Some(result) = doc.get("workloads").and_then(|w| w.get(workload)) else {
            continue;
        };
        failed += result.get("failed").and_then(Value::as_u64).unwrap_or(0);
        let value = result
            .get("metrics")
            .and_then(|m| m.get(metric))
            .and_then(|m| m.get("value"));
        if let Some(Value::Num(v)) = value {
            values.push(*v);
        }
    }
    (values, failed)
}

fn parse_documents(text: &str) -> Result<Vec<Value>, String> {
    text.lines()
        .filter(|line| !line.trim().is_empty())
        .map(Value::parse)
        .collect()
}

/// `(q3 − q1) ÷ median` of the runs of one side; `None` for one run.
fn spread(values: &[f64]) -> Option<f64> {
    quartiles(values).map(|(q1, q3)| (q3 - q1) / median(values))
}

/// Judges `b` against the base `a` for a metric with direction `better`
/// and regression bound `bound`.
pub fn judge(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    if a.is_empty() || b.is_empty() {
        return Verdict::Missing;
    }
    let (base, new) = (median(a), median(b));
    let worse_by = match better {
        Better::Lower => (new - base) / base,
        Better::Higher => (base - new) / base,
    };
    let is_better = |x: f64, y: f64| match better {
        Better::Lower => x < y,
        Better::Higher => x > y,
    };
    let noisy = [a, b]
        .iter()
        .any(|side| spread(side).is_some_and(|s| s > bound));
    if noisy {
        // Too noisy to call, unless the sides do not even overlap.
        let every_b_better = b.iter().all(|&y| a.iter().all(|&x| is_better(y, x)));
        return if every_b_better {
            Verdict::Improved
        } else {
            Verdict::Unresolved
        };
    }
    if worse_by > bound {
        Verdict::Regressed
    } else if worse_by < -bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

/// Compares two files of run documents, `a` being the base: one row per
/// workload × end-to-end metric, with the ratio and its base. Returns
/// the table and whether no row is regressed, unresolved or missing and
/// no run failed an operation.
///
/// # Errors
///
/// Returns the parse error of a line that is not a JSON document.
pub fn compare(a: &str, b: &str) -> Result<(String, bool), String> {
    let (a, b) = (parse_documents(a)?, parse_documents(b)?);
    let mut table = format!(
        "{:<12} {:<24} {:>12} {:>12} {:>8}  {:<10} {}\n",
        "workload", "metric", "A (base)", "B", "B/A", "verdict", "runs, spread"
    );
    let mut clean = true;
    for workload in WORKLOADS {
        for &(metric, unit, better, bound) in END_TO_END {
            let (va, failed_a) = values_of(&a, workload, metric);
            let (vb, failed_b) = values_of(&b, workload, metric);
            let verdict = judge(&va, &vb, better, bound);
            clean &= matches!(verdict, Verdict::Unchanged | Verdict::Improved);
            clean &= failed_a + failed_b == 0;
            if verdict == Verdict::Missing {
                let _ = writeln!(table, "{workload:<12} {metric:<24} missing on one side");
                continue;
            }
            let (base, new) = (median(&va), median(&vb));
            let percent = |s: Option<f64>| s.map_or("n/a".into(), |s| format!("{:.1}%", s * 100.0));
            let _ = writeln!(
                table,
                "{workload:<12} {metric:<24} {base:>12.4} {new:>12.4} {:>8.3}  {:<10} A n={} {}, B n={} {}; bound {:.0}%, base A in {unit}",
                new / base,
                format!("{verdict:?}").to_lowercase(),
                va.len(),
                percent(spread(&va)),
                vb.len(),
                percent(spread(&vb)),
                bound * 100.0,
            );
        }
    }
    Ok((table, clean))
}

#[cfg(test)]
mod tests {
    use super::*;
    use Better::{Higher, Lower};

    #[test]
    fn judge_applies_the_bound_in_the_worse_direction() {
        assert_eq!(judge(&[100.0], &[104.0], Lower, 0.05), Verdict::Unchanged);
        assert_eq!(judge(&[100.0], &[106.0], Lower, 0.05), Verdict::Regressed);
        assert_eq!(judge(&[100.0], &[94.0], Lower, 0.05), Verdict::Improved);
        assert_eq!(judge(&[100.0], &[94.0], Higher, 0.05), Verdict::Regressed);
        assert_eq!(judge(&[100.0], &[106.0], Higher, 0.05), Verdict::Improved);
        assert_eq!(judge(&[], &[1.0], Lower, 0.05), Verdict::Missing);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_unless_disjoint() {
        let noisy = [80.0, 100.0, 120.0, 90.0, 110.0];
        assert_eq!(
            judge(&noisy, &[101.0, 99.0], Lower, 0.05),
            Verdict::Unresolved
        );
        assert_eq!(judge(&noisy, &[70.0, 75.0], Lower, 0.05), Verdict::Improved);
    }

    #[test]
    fn manifest_is_valid_json_within_the_contract_limits() {
        let text = manifest_json();
        assert!(text.len() < 64 << 10);
        let doc = Value::parse(&text).unwrap();
        let names = |key: &str| -> Vec<String> {
            doc.get(key)
                .unwrap()
                .as_array()
                .unwrap()
                .iter()
                .map(|m| m.get("name").unwrap().as_str().unwrap().to_string())
                .collect()
        };
        assert_eq!(names("workloads"), WORKLOADS);
        assert!(names("end_to_end").contains(&"setup_s".to_string()));
        assert!(names("per_layer").len() <= 128);
        for why in WHY {
            assert!(why.len() <= 200 && !why.contains('\n'));
        }
    }
}
