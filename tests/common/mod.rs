//! Helpers shared by the root integration suites (`mod common;`).

// Every suite compiles its own copy of this module and uses a subset.
#![allow(dead_code)]

use recama::hw::{RuleCost, ShardBudget, ShardPlan, ShardPolicy};
use recama::nca::Engine as _;
use recama::workloads::{generate, BenchmarkId, PatternClass};
use recama::{
    Engine, EngineBuilder, FlowId, Pattern, RuleMatch, ScanMode, ServiceHandle, SetMatch,
    ShardedPatternSet,
};

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

/// `builder`'s engine cut into at least `groups` scan groups — the units
/// of a flow — the way a user gets them: by a hybrid `state_budget` the
/// rules do not fit. A default build weighs the rules, and the budget is
/// the largest under which next-fit, the set's own rule, closes that
/// many groups. (The shard policy only cuts machine images; the twin for
/// `core`'s unit tests is `set::in_scan_groups`.)
pub fn in_scan_groups(builder: EngineBuilder, groups: usize) -> Engine {
    let probe = builder.clone().build().unwrap();
    let weights: Vec<RuleCost> = (probe.outputs().iter())
        .map(|out| RuleCost {
            columns: out.nca.state_count(),
            ..RuleCost::default()
        })
        .collect();
    let cut = |state_budget| {
        let budget = ShardBudget {
            columns: state_budget,
            ..ShardBudget::unbounded()
        };
        ShardPlan::next_fit(&weights, &budget).shard_count()
    };
    let total: usize = weights.iter().map(|w| w.columns).sum();
    let state_budget = (1..=total)
        .rev()
        .find(|&b| cut(b) >= groups)
        .expect("no more groups than rules");
    let engine = (builder.scan_mode(ScanMode::Hybrid { state_budget }))
        .build()
        .unwrap();
    assert!(engine.scan_groups().shard_count() >= groups);
    engine
}

/// A bank budget small enough to force several shards on tiny test
/// rulesets.
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

/// `patterns` scanned as at least `groups` units per flow (one bank
/// image, every other knob at its default); see [`in_scan_groups`].
pub fn set_in_groups<S: AsRef<str>>(patterns: &[S], groups: usize) -> ShardedPatternSet {
    in_scan_groups(Engine::builder().patterns(patterns), groups).into_set()
}

/// The independent oracle of every *streamed* scan of `set` over `data`:
/// each pattern compiled and scanned alone, every candidate end reported
/// (a stream has no end, so a trailing `$` filters nothing), in stream
/// order — ascending end, ascending pattern within one end. No sharding,
/// prefilter, hybrid rows or flow code is involved.
pub fn stream_oracle(set: &ShardedPatternSet, data: &[u8]) -> Vec<SetMatch> {
    let mut expected = Vec::new();
    for pi in 0..set.len() {
        let pattern = Pattern::compile(set.pattern(pi)).unwrap();
        let ends = pattern.engine().match_ends(data);
        expected.extend(
            ends.into_iter()
                .filter(|&end| end > 0)
                .map(|end| SetMatch { pattern: pi, end }),
        );
    }
    expected.sort_by_key(|m| (m.end, m.pattern));
    expected
}

/// [`stream_oracle`] as the service reports it: stable rule ids, ends
/// offset by `base` (where in its flow `data` starts).
pub fn scan_oracle(engine: &Engine, data: &[u8], base: u64) -> Vec<RuleMatch> {
    let rule_match = |m: SetMatch| RuleMatch {
        rule: engine.rule_id(m.pattern),
        end: m.end as u64 + base,
    };
    stream_oracle(engine.set(), data)
        .into_iter()
        .map(rule_match)
        .collect()
}

/// The finishing set of a stream that ends after `data`: what each
/// trailing-`$` pattern, scanned alone, keeps ([`Pattern::find_ends`]) —
/// sorted by pattern, as stable rule ids with ends offset by `base`.
pub fn finish_oracle(engine: &Engine, data: &[u8], base: u64) -> Vec<RuleMatch> {
    let mut expected = Vec::new();
    for pi in 0..engine.len() {
        let pattern = Pattern::compile(engine.pattern(pi)).unwrap();
        if pattern.parsed().anchored_end {
            expected.extend(pattern.find_ends(data).into_iter().map(|end| RuleMatch {
                rule: engine.rule_id(pi),
                end: end as u64 + base,
            }));
        }
    }
    expected
}

/// Splits `data` into uneven deterministic chunks of 1 to `max_len`
/// bytes and pushes them.
pub fn push_chunked(svc: &ServiceHandle, flow: FlowId, data: &[u8], seed: u64, max_len: usize) {
    let mut offset = 0usize;
    let mut state = seed | 1;
    while offset < data.len() {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let len = 1 + (state >> 33) as usize % max_len;
        let end = (offset + len).min(data.len());
        svc.push_checked(flow, &data[offset..end]).unwrap();
        offset = end;
    }
}
