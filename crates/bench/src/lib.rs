//! Shared knobs and helpers for the table/figure regeneration binaries.
//!
//! Scale knobs (environment variables, so `cargo run --bin table1` works
//! out of the box and full-scale runs remain possible):
//!
//! * `RECAMA_SCALE` — ruleset scale factor (default 0.02; 1.0 = the paper's
//!   ruleset sizes);
//! * `RECAMA_SEED`  — generator seed (default 2022);
//! * `RECAMA_TRAFFIC` — input stream length in bytes (default 16384);
//! * `RECAMA_THREADS` — worker threads for ruleset analysis (default:
//!   available parallelism).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use recama::analysis::{check, CheckConfig, Method, RegexCheck};
use recama::nca::UnfoldPolicy;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// Ruleset scale factor from `RECAMA_SCALE` (default 0.02).
pub fn scale() -> f64 {
    std::env::var("RECAMA_SCALE")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.02)
}

/// Generator seed from `RECAMA_SEED` (default 2022).
pub fn seed() -> u64 {
    std::env::var("RECAMA_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2022)
}

/// Traffic length from `RECAMA_TRAFFIC` (default 16 KiB).
pub fn traffic_len() -> usize {
    std::env::var("RECAMA_TRAFFIC")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(16 * 1024)
}

/// Worker thread count from `RECAMA_THREADS` (default: hardware).
pub fn threads() -> usize {
    std::env::var("RECAMA_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
        })
        .max(1)
}

/// Per-pattern analysis record produced by [`analyze_patterns`].
#[derive(Debug, Clone)]
pub struct PatternAnalysis {
    /// Index into the input pattern list.
    pub index: usize,
    /// μ(r) — max repetition upper bound.
    pub mu: u32,
    /// Whether the pattern has counting.
    pub counting: bool,
    /// The checker result (None when the pattern failed to parse).
    pub check: Option<RegexCheck>,
    /// Wall-clock analysis time.
    pub time: Duration,
}

/// Analyzes a whole pattern list in parallel (std scoped workers) in the
/// streaming form `Σ*r`, with the given checker method.
pub fn analyze_patterns(
    patterns: &[String],
    method: Method,
    config: &CheckConfig,
) -> Vec<PatternAnalysis> {
    let results: Mutex<Vec<Option<PatternAnalysis>>> = Mutex::new(vec![None; patterns.len()]);
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..threads() {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= patterns.len() {
                    break;
                }
                let record = analyze_one(i, &patterns[i], method, config);
                results.lock().expect("no poisoned workers")[i] = Some(record);
            });
        }
    });
    results
        .into_inner()
        .expect("no poisoned workers")
        .into_iter()
        .map(|r| r.expect("all indices filled"))
        .collect()
}

fn analyze_one(
    index: usize,
    pattern: &str,
    method: Method,
    config: &CheckConfig,
) -> PatternAnalysis {
    let start = std::time::Instant::now();
    match recama::syntax::parse(pattern) {
        Ok(parsed) => {
            let stream = parsed.for_stream();
            let mu = stream.mu();
            let counting = stream.has_counting();
            let check = check(&stream, method, config);
            PatternAnalysis {
                index,
                mu,
                counting,
                check: Some(check),
                time: start.elapsed(),
            }
        }
        Err(_) => PatternAnalysis {
            index,
            mu: 0,
            counting: false,
            check: None,
            time: start.elapsed(),
        },
    }
}

/// The label an unfolding threshold is printed under: `none`, the
/// threshold itself, or `all`. Figs. 9 and 10 print it from the policy
/// they compile with, so a label cannot name another threshold.
pub fn threshold_label(policy: UnfoldPolicy) -> String {
    match policy {
        UnfoldPolicy::None => "none".to_string(),
        UnfoldPolicy::UpTo(threshold) => threshold.to_string(),
        UnfoldPolicy::All => "all".to_string(),
    }
}

/// Pretty milliseconds.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Prints a horizontal rule + title for figure binaries.
pub fn banner(title: &str) {
    println!("{}", "=".repeat(78));
    println!("{title}");
    println!("{}", "=".repeat(78));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn knobs_have_defaults() {
        assert!(scale() > 0.0);
        assert!(traffic_len() > 0);
        assert!(threads() >= 1);
    }

    #[test]
    fn parallel_analysis_covers_all_patterns() {
        let patterns: Vec<String> = vec![
            "^a{20}b".into(),
            "x.{30}".into(),
            "notcounting".into(),
            "bad(".into(),
        ];
        let out = analyze_patterns(&patterns, Method::Hybrid, &CheckConfig::default());
        assert_eq!(out.len(), 4);
        assert!(out[0].check.as_ref().unwrap().ambiguous == Some(false));
        assert!(out[1].check.as_ref().unwrap().ambiguous == Some(true));
        assert!(!out[2].counting);
        assert!(out[3].check.is_none());
        assert_eq!(out[1].mu, 30);
    }
}
