//! Helpers shared by the root integration suites (`mod common;`).

// Every suite compiles its own copy of this module and uses a subset.
#![allow(dead_code)]

pub mod matrix;

use recama::hw::{ShardBudget, ShardPolicy};
use recama::nca::{Nca, TokenSetEngine};
use recama::syntax::Parsed;
use recama::workloads::{generate, BenchmarkId, PatternClass};
use recama::{
    Engine, EngineBuilder, FlowId, RuleMatch, ScanMode, ServeError, ServiceHandle, SetMatch,
    SetSpan,
};
use std::sync::mpsc;
use std::time::Duration;

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

/// `builder`'s engine cut into at least `groups` scan groups — the units
/// of a flow — the way a user gets them: by a hybrid `state_budget` the
/// rules do not fit. A default build weighs the rules by their NCA
/// states, and the budget is the largest under which next-fit, the set's
/// own rule (`scan_partition.rs::assert_next_fit` pins it), closes that
/// many groups. (The shard policy only cuts machine images; the twin for
/// `core`'s unit tests is `set::in_scan_groups`.)
pub fn in_scan_groups(builder: EngineBuilder, groups: usize) -> Engine {
    let probe = builder.clone().build().unwrap();
    let states: Vec<usize> = (probe.outputs().iter())
        .map(|out| out.nca.state_count())
        .collect();
    // Next-fit's group count: a group closes when the next rule would
    // take it past the budget.
    let cut = |state_budget| {
        let (mut groups, mut load) = (1, 0);
        for (rule, &weight) in states.iter().enumerate() {
            if rule > 0 && load + weight > state_budget {
                groups += 1;
                load = 0;
            }
            load += weight;
        }
        groups
    };
    let total: usize = states.iter().sum();
    let state_budget = (1..=total)
        .rev()
        .find(|&b| cut(b) >= groups)
        .expect("no more groups than rules");
    let engine = (builder.scan_mode(ScanMode::Hybrid { state_budget }))
        .build()
        .unwrap();
    assert!(engine.scan_groups().len() >= groups);
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
/// default ([`ShardPolicy::Single`] is the one merged image); its set
/// is [`Engine::set`].
pub fn set_with<S: AsRef<str>>(patterns: &[S], policy: ShardPolicy) -> Engine {
    Engine::builder()
        .patterns(patterns)
        .shard_policy(policy)
        .build()
        .unwrap()
}

/// The independent oracle of every scan: each pattern of a ruleset
/// scanned alone by the reference [`TokenSetEngine`] (Def. 2.1) over
/// the Glushkov automaton of its stream form, and its spans located by
/// the same engine walking the reversed regex's automaton backward
/// ([`Oracle::spans`]). Of the library it uses the parser, the Glushkov
/// construction and that reference engine; no compiler output, storage
/// plan, counter bank, sharding, prefilter, hybrid rows, flow code or
/// span-location code is involved. The patterns parse once and answer
/// any number of inputs.
pub struct Oracle {
    pub parsed: Vec<Parsed>,
    /// Per pattern, the automaton of `Σ*·r` (of `r` when `^`-anchored).
    streams: Vec<Nca>,
}

impl Oracle {
    pub fn new<S: AsRef<str>>(patterns: &[S]) -> Oracle {
        let parse = |p: &S| {
            let p = p.as_ref();
            recama::syntax::parse(p).unwrap_or_else(|e| panic!("{p}: {e}"))
        };
        let parsed: Vec<Parsed> = patterns.iter().map(parse).collect();
        let stream = |p: &Parsed| Nca::from_regex(&p.for_stream());
        let streams = parsed.iter().map(stream).collect();
        Oracle { parsed, streams }
    }

    /// The oracle of `engine`'s rules.
    pub fn of(engine: &Engine) -> Oracle {
        let patterns: Vec<&str> = (0..engine.len()).map(|pi| engine.pattern(pi)).collect();
        Oracle::new(&patterns)
    }

    /// Every candidate end over `data` as a stream reports it (a stream
    /// has no end, so a trailing `$` filters nothing), in stream order:
    /// ascending end, ascending pattern within one end.
    pub fn stream(&self, data: &[u8]) -> Vec<SetMatch> {
        let mut expected = Vec::new();
        for (pi, nca) in self.streams.iter().enumerate() {
            let ends = TokenSetEngine::new(nca).match_ends(data);
            expected.extend(
                ends.into_iter()
                    .filter(|&end| end > 0)
                    .map(|end| SetMatch { pattern: pi, end }),
            );
        }
        expected.sort_by_key(|m| (m.end, m.pattern));
        expected
    }

    /// The finishing set of a stream that ends after `data`: each
    /// trailing-`$` pattern's match ending at `data.len()` (> 0), by
    /// pattern.
    pub fn finish(&self, data: &[u8]) -> Vec<SetMatch> {
        let mut expected = Vec::new();
        for (pi, (parsed, nca)) in self.parsed.iter().zip(&self.streams).enumerate() {
            if parsed.anchored_end && !data.is_empty() && TokenSetEngine::new(nca).matches(data) {
                expected.push(SetMatch {
                    pattern: pi,
                    end: data.len(),
                });
            }
        }
        expected
    }

    /// The located matches of a block scan over `data`, in its order
    /// (ascending end, ascending pattern within one end): each end of
    /// [`stream`](Oracle::stream) — of a trailing-`$` pattern only the
    /// one at `data.len()` — spans back to the earliest start from which
    /// the pattern's reversed automaton, stepped backward from the end,
    /// accepts.
    pub fn spans(&self, data: &[u8]) -> Vec<SetSpan> {
        let ends = self.stream(data).into_iter();
        let ends = ends.filter(|m| !self.parsed[m.pattern].anchored_end || m.end == data.len());
        let mut reversed: Vec<Option<Nca>> = self.parsed.iter().map(|_| None).collect();
        ends.map(|SetMatch { pattern, end }| {
            let nca = reversed[pattern]
                .get_or_insert_with(|| Nca::from_regex(&self.parsed[pattern].regex.reverse()));
            let mut walk = TokenSetEngine::new(nca);
            let mut start = end;
            // No `Σ*` loop in the reversed automaton: once every token
            // has died, none comes back.
            for (k, &b) in data[..end].iter().rev().enumerate() {
                if walk.config().is_empty() {
                    break;
                }
                walk.step(b);
                if walk.is_accepting() {
                    start = end - k - 1;
                }
            }
            SetSpan {
                pattern,
                start,
                end,
            }
        })
        .collect()
    }
}

/// [`Oracle::stream`] over `engine`'s patterns as the service reports
/// it: stable rule ids, ends offset by `base` (where in its flow `data`
/// starts).
pub fn scan_oracle(engine: &Engine, data: &[u8], base: u64) -> Vec<RuleMatch> {
    as_rules(engine, Oracle::of(engine).stream(data), base)
}

/// [`Oracle::finish`] over `engine`'s patterns, as [`scan_oracle`].
pub fn finish_oracle(engine: &Engine, data: &[u8], base: u64) -> Vec<RuleMatch> {
    as_rules(engine, Oracle::of(engine).finish(data), base)
}

fn as_rules(engine: &Engine, matches: Vec<SetMatch>, base: u64) -> Vec<RuleMatch> {
    let rule_match = |m: SetMatch| RuleMatch {
        rule: engine.rule_id(m.pattern),
        end: m.end as u64 + base,
    };
    matches.into_iter().map(rule_match).collect()
}

/// Whether `flow` is quarantined, as its producer learns it: an empty
/// push, which buffers nothing, is refused with the panic's summary.
pub fn quarantined(svc: &ServiceHandle, flow: FlowId) -> bool {
    matches!(
        svc.push_checked(flow, &[]),
        Err(ServeError::Quarantined { .. })
    )
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

/// Runs `body` on a detached thread and returns what it returns, or
/// fails if it has not returned within `limit`: a lost wake-up in the
/// service then fails the calling test instead of hanging it. A panic
/// in `body` is rethrown here.
pub fn within<T: Send + 'static>(limit: Duration, body: impl FnOnce() -> T + Send + 'static) -> T {
    let (done, result) = mpsc::channel();
    // Detached on purpose: a stuck body must fail the caller, not hang a
    // join.
    std::thread::spawn(move || {
        let _ = done.send(std::panic::catch_unwind(std::panic::AssertUnwindSafe(body)));
    });
    match result.recv_timeout(limit) {
        Ok(Ok(value)) => value,
        Ok(Err(payload)) => std::panic::resume_unwind(payload),
        Err(_) => panic!("still running after {limit:?}: a lost wake-up?"),
    }
}
