//! Helpers shared by the root integration suites (`mod common;`).

// Every suite compiles its own copy of this module and uses a subset.
#![allow(dead_code)]

use recama::hw::{ShardBudget, ShardPolicy};
use recama::workloads::{generate, BenchmarkId, PatternClass};
use recama::{Engine, Pattern, SetMatch, ShardedPatternSet};

/// The parseable patterns of a scaled synthetic ruleset, bounded to keep
/// compile times test-friendly.
pub fn sample_patterns(id: BenchmarkId, scale: f64, seed: u64, max_mu: u32) -> Vec<String> {
    let ruleset = generate(id, scale, seed);
    ruleset
        .patterns
        .iter()
        .filter(|(_, class)| *class != PatternClass::Unsupported)
        .map(|(p, _)| p.clone())
        .filter(|p| {
            recama::syntax::parse(p)
                .map(|parsed| parsed.regex.mu() <= max_mu)
                .unwrap_or(false)
        })
        .collect()
}

/// The independent oracle of every set-level scan: each pattern compiled
/// and scanned alone ([`Pattern::find_ends`], the per-pattern
/// `CompiledEngine`), tagged by pattern index and sorted by
/// `(pattern, end)`.
pub fn union_of_per_pattern_matches<S: AsRef<str>>(patterns: &[S], input: &[u8]) -> Vec<SetMatch> {
    let mut expected = Vec::new();
    for (pi, p) in patterns.iter().enumerate() {
        let p = p.as_ref();
        let pattern = Pattern::compile(p).unwrap_or_else(|e| panic!("{p}: {e}"));
        for end in pattern.find_ends(input) {
            expected.push(SetMatch { pattern: pi, end });
        }
    }
    expected.sort();
    expected
}

/// A budget small enough to force several shards on tiny test rulesets.
pub fn tiny_budget() -> ShardPolicy {
    ShardPolicy::Banked(ShardBudget {
        columns: 24,
        counters: 8,
        bitvector_bits: 4000,
    })
}

/// `patterns` compiled under `policy` with every other knob at its
/// default ([`ShardPolicy::Single`] is the one merged image).
pub fn set_with<S: AsRef<str>>(patterns: &[S], policy: ShardPolicy) -> ShardedPatternSet {
    Engine::builder()
        .patterns(patterns)
        .shard_policy(policy)
        .build()
        .unwrap()
        .into_set()
}
