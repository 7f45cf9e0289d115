//! Differential testing of the hybrid lazy-DFA engine: on random
//! rulesets mixing pure and counting patterns, random inputs, and random
//! chunk boundaries, a [`ScanMode::Hybrid`] engine and the
//! [`ScanMode::Nca`] engine — the same engine without rows, every byte
//! the edge walk of a row fill beside the counter bank — must both
//! report the referee's answer: the union of per-[`Pattern`] `find_ends`
//! results, each pattern scanned alone. The property
//! runs include pathological state budgets (as small as 1 cached DFA
//! state, so the subset cache thrashes through flushes) and
//! counter-heavy rulesets that keep counted tokens live — stepped
//! exactly beside the DFA rows — on nearly every byte. A second property
//! pushes the same rulesets through the serving path
//! ([`Engine::serve_with`]) with the literal prefilter on and off, and a
//! third churns many short flows over the shard caches they share. One
//! count-based test bounds the share of the Snort profile's bytes that
//! counters are live on.

mod common;

use common::union_of_per_pattern_matches;
use proptest::prelude::*;
use recama::{Engine, PrefilterMode, ScanMode, ServeConfig, SetMatch};

/// Pattern pool the properties sample rulesets from: the first group is
/// pure (counter-free after compilation, so every byte is one row load),
/// the second counts (waking, stepping and exiting counted states beside
/// the rows).
const POOL: &[&str] = &[
    // pure
    "abc",
    "x[yz]w",
    ".*ba",
    "q(r|s)t",
    "[0-9][0-9]k",
    // counting
    "ab{2,5}c",
    ".*a.{3}b",
    "k[0-9]{2,4}z",
    "(xy){2,3}",
    "m{3}",
    // sequential counters, a counter exiting into a pure tail that loops
    // back, an anchored counter, an unbounded one
    "a{2,3}c{2,3}",
    "(ab{2,3}c)+d",
    "^ab{2,4}c",
    "a{3,}b",
    // counting sets at a machine word's width: one bit short of it, the
    // full word, straddling it, a register just that long, and a queue
    ".*h.{63}",
    "h.{64}",
    "k.{60,66}z",
    "[^ac][ac]{64}",
    ".*a.{65}b",
];

/// Input bytes biased toward the pool's literals so matches and partial
/// matches actually occur.
const INPUT_BYTES: &[u8] = b"abcdhxyzwqrstkm0123459_";

fn engine(patterns: &[&str], mode: ScanMode) -> Engine {
    Engine::builder()
        .patterns(patterns)
        .scan_mode(mode)
        .build()
        .unwrap()
}

/// Feeds `input` to a fresh stream of `engine` in chunks of `chunk_len`
/// and collects the reports.
fn chunked_reports(engine: &Engine, input: &[u8], chunk_len: usize) -> Vec<SetMatch> {
    let mut stream = engine.stream();
    let mut out = Vec::new();
    for chunk in input.chunks(chunk_len.max(1)) {
        out.extend(stream.feed(chunk));
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 40, ..ProptestConfig::default() })]

    #[test]
    fn hybrid_agrees_with_nca_and_per_pattern_union(
        picks in prop::collection::vec(0usize..POOL.len(), 1..6),
        input in prop::collection::vec(prop::sample::select(INPUT_BYTES.to_vec()), 0..300),
        budget in prop_oneof![Just(1usize), Just(2), Just(7), Just(4096)],
        chunk_len in 1usize..40,
    ) {
        let mut picks = picks;
        picks.sort_unstable();
        picks.dedup();
        let patterns: Vec<&str> = picks.iter().map(|&i| POOL[i]).collect();

        let exact = engine(&patterns, ScanMode::Nca);
        let hybrid = engine(&patterns, ScanMode::Hybrid { state_budget: budget });

        // Block scans agree with each other and with the per-pattern union.
        let mut exact_scan = exact.scan(&input);
        let mut hybrid_scan = hybrid.scan(&input);
        exact_scan.sort();
        hybrid_scan.sort();
        prop_assert_eq!(&hybrid_scan, &exact_scan, "hybrid vs exact, budget {}", budget);
        prop_assert_eq!(
            &hybrid_scan,
            &union_of_per_pattern_matches(&patterns, &input),
            "hybrid vs per-pattern union"
        );

        // Chunked streaming agrees across modes and with a one-shot feed,
        // whatever the chunk boundaries.
        let oneshot = chunked_reports(&hybrid, &input, input.len().max(1));
        let chunked_hybrid = chunked_reports(&hybrid, &input, chunk_len);
        let chunked_exact = chunked_reports(&exact, &input, chunk_len);
        prop_assert_eq!(&chunked_hybrid, &oneshot, "chunk length {} changes reports", chunk_len);
        prop_assert_eq!(&chunked_hybrid, &chunked_exact, "streamed hybrid vs exact");
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// The serving path — `serve_with`, checked push/poll, the literal
    /// prefilter's skip / wake-and-replay on or off — over the exact
    /// engine and hybrid engines of every budget class, kept mid-count
    /// between checkouts on two workers, reports the per-pattern union,
    /// whatever the chunking.
    #[test]
    fn served_hybrid_reports_the_per_pattern_union(
        picks in prop::collection::vec(0usize..POOL.len(), 1..6),
        input in prop::collection::vec(prop::sample::select(INPUT_BYTES.to_vec()), 0..300),
        chunk_lens in prop::collection::vec(1usize..40, 1..8),
    ) {
        let mut picks = picks;
        picks.sort_unstable();
        picks.dedup();
        let patterns: Vec<&str> = picks.iter().map(|&i| POOL[i]).collect();
        let expected = union_of_per_pattern_matches(&patterns, &input);

        let modes = [1usize, 7, 4096].map(|state_budget| ScanMode::Hybrid { state_budget });
        for mode in [ScanMode::Nca].into_iter().chain(modes) {
            for prefilter in [PrefilterMode::On, PrefilterMode::Off] {
                let engine = Engine::builder()
                    .patterns(&patterns)
                    .scan_mode(mode)
                    .prefilter(prefilter)
                    .build()
                    .unwrap();
                let svc = engine.serve_with(2, ServeConfig::default());
                let flow = svc.try_open_flow().unwrap();
                let mut rest = &input[..];
                let mut lens = chunk_lens.iter().cycle();
                while !rest.is_empty() {
                    let (chunk, tail) = rest.split_at(rest.len().min(*lens.next().unwrap()));
                    svc.push_checked(flow, chunk).unwrap();
                    rest = tail;
                }
                svc.barrier();
                // Default rule ids are add-order indices: rule == pattern.
                let mut got: Vec<SetMatch> = svc
                    .poll_checked(flow)
                    .unwrap()
                    .into_iter()
                    .map(|m| SetMatch { pattern: m.rule as usize, end: m.end as usize })
                    .collect();
                svc.close(flow);
                svc.shutdown();
                got.sort();
                prop_assert_eq!(
                    &got, &expected,
                    "{:?}, prefilter {:?}, chunks {:?}", mode, prefilter, &chunk_lens
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    /// Flow churn over shared rows: many two-chunk flows are opened,
    /// scanned and closed while others are in flight, on one and on
    /// three workers. Every flow reports its own per-pattern union; the
    /// rows the service holds stay within `shards × state_budget` at
    /// every point, and serving the same traffic again as new flows adds
    /// none (roomy budget: exactly none).
    #[test]
    fn churned_flows_share_bounded_rows_and_report_the_per_pattern_union(
        picks in prop::collection::vec(0usize..POOL.len(), 1..6),
        inputs in prop::collection::vec(
            prop::collection::vec(prop::sample::select(INPUT_BYTES.to_vec()), 2..120),
            4..8,
        ),
        cut in 1usize..64,
    ) {
        let mut picks = picks;
        picks.sort_unstable();
        picks.dedup();
        let patterns: Vec<&str> = picks.iter().map(|&i| POOL[i]).collect();
        let expected: Vec<Vec<SetMatch>> = inputs
            .iter()
            .map(|input| union_of_per_pattern_matches(&patterns, input))
            .collect();

        for workers in [1usize, 3] {
            for budget in [1usize, 7, 4096] {
                for prefilter in [PrefilterMode::On, PrefilterMode::Off] {
                    let engine = Engine::builder()
                        .patterns(&patterns)
                        .scan_mode(ScanMode::Hybrid { state_budget: budget })
                        .prefilter(prefilter)
                        .build()
                        .unwrap();
                    // One cache per scan group, and the budget cuts
                    // the groups: 1 and 7 make several.
                    let bound = engine.scan_groups().shard_count() * budget;
                    let svc = engine.serve_with(workers, ServeConfig::default());
                    let rows = |at: &str| {
                        let rows = svc.metrics().hybrid.expect("hybrid mode").dfa_states;
                        assert!(rows <= bound, "{rows} rows > {bound} {at}");
                        rows
                    };
                    // One pass serves every input once, three flows in
                    // flight: a flow gets its second chunk and is closed
                    // while its successors are still being scanned.
                    let pass = || {
                        let mut in_flight = std::collections::VecDeque::new();
                        let mut flows = Vec::new();
                        for (k, input) in inputs.iter().enumerate() {
                            let split = cut.min(input.len() - 1);
                            let flow = svc.try_open_flow().unwrap();
                            svc.push_checked(flow, &input[..split]).unwrap();
                            in_flight.push_back((flow, k, split));
                            flows.push(flow);
                            if in_flight.len() == 3 {
                                let (flow, k, split) = in_flight.pop_front().unwrap();
                                svc.push_checked(flow, &inputs[k][split..]).unwrap();
                                svc.close(flow);
                                rows("mid-pass");
                            }
                        }
                        for (flow, k, split) in in_flight {
                            svc.push_checked(flow, &inputs[k][split..]).unwrap();
                            svc.close(flow);
                        }
                        svc.barrier();
                        flows
                    };
                    let mut served = pass();
                    let after_one = rows("after one pass");
                    for _ in 0..3 {
                        served.extend(pass());
                    }
                    let after_four = rows("after four passes");
                    if budget == 4096 {
                        prop_assert_eq!(after_four, after_one, "rows grew with flows served");
                    }
                    for (i, flow) in served.into_iter().enumerate() {
                        // Default rule ids are add-order indices.
                        let mut got: Vec<SetMatch> = svc
                            .poll_checked(flow)
                            .unwrap()
                            .into_iter()
                            .map(|m| SetMatch { pattern: m.rule as usize, end: m.end as usize })
                            .collect();
                        got.sort();
                        prop_assert_eq!(
                            &got, &expected[i % inputs.len()],
                            "flow {} of input {}: workers {}, budget {}, prefilter {:?}, cut {}",
                            i, i % inputs.len(), workers, budget, prefilter, cut
                        );
                    }
                    svc.shutdown();
                }
            }
        }
    }
}

#[test]
fn counter_fallback_survives_every_chunk_boundary() {
    // Counting patterns keep counters live across most of the input, so
    // counted tokens are woken, stepped and retired repeatedly; every cut
    // point must leave the reports identical to the exact engine's.
    let patterns = ["ab{2,5}c", ".*a.{3}b", "m{3}", "abc"];
    let input = b"aabbbc.mmma...b.abbbbbc.mmmm.abcab";
    let exact = engine(&patterns, ScanMode::Nca);
    let hybrid = engine(&patterns, ScanMode::Hybrid { state_budget: 64 });
    let oneshot = chunked_reports(&exact, input, input.len());
    assert!(!oneshot.is_empty(), "test input must contain matches");
    for cut in 1..input.len() {
        let mut stream = hybrid.stream();
        let mut got: Vec<SetMatch> = stream.feed(&input[..cut]).collect();
        got.extend(stream.feed(&input[cut..]));
        assert_eq!(got, oneshot, "cut at {cut}");
    }
}

#[test]
fn word_width_counters_count_through_long_runs() {
    // Runs long enough for every token of the pool's word-width rules to
    // reach its bound: `[ac]` runs of 63 to 66 after a `[^ac]`, and `h`,
    // `k` and `a` followed by 60 to 70 bytes before the next trigger.
    let patterns = [
        ".*h.{63}",
        "h.{64}",
        "k.{60,66}z",
        "[^ac][ac]{64}",
        ".*a.{65}b",
    ];
    let mut input = Vec::new();
    for (i, run) in [63usize, 64, 65, 66, 64].into_iter().enumerate() {
        input.push(b'x');
        input.extend((0..run).map(|j| if (i + j) % 3 == 0 { b'c' } else { b'a' }));
        input.extend(b"hk");
        input.extend(std::iter::repeat_n(b'y', 55 + 3 * i));
        input.extend(b"zbh");
        input.extend(std::iter::repeat_n(b'y', 60 + i));
        input.extend(b"zb");
    }
    let expected = union_of_per_pattern_matches(&patterns, &input);
    for (pattern, source) in patterns.iter().enumerate() {
        assert!(
            expected.iter().any(|m| m.pattern == pattern),
            "{source} must match the test input"
        );
    }
    let modes = [1usize, 7, 4096].map(|state_budget| ScanMode::Hybrid { state_budget });
    for mode in [ScanMode::Nca].into_iter().chain(modes) {
        let engine = engine(&patterns, mode);
        for chunk_len in [1, 7, 64, input.len()] {
            let mut got = chunked_reports(&engine, &input, chunk_len);
            got.sort();
            assert_eq!(got, expected, "{mode:?}, chunks of {chunk_len}");
        }
    }
}

#[test]
fn tiny_budgets_flush_but_stay_exact() {
    // A one-state cache cannot hold even the start state's successor:
    // every byte flushes and re-interns. Correctness must not depend on
    // the cache ever being warm.
    let patterns = ["abc", "x[yz]w", ".*ba", "q(r|s)t"];
    let input = b"xabcyxzwbaqrtqstxywabcba";
    let exact = engine(&patterns, ScanMode::Nca).scan(input);
    for budget in [1usize, 2, 3] {
        let hybrid = engine(
            &patterns,
            ScanMode::Hybrid {
                state_budget: budget,
            },
        );
        assert_eq!(hybrid.scan(input), exact, "budget {budget}");
    }
}

#[test]
fn scan_mode_is_exposed_and_defaults_to_hybrid() {
    let default_mode = Engine::builder()
        .patterns(["abc"])
        .build()
        .unwrap()
        .scan_mode();
    assert_eq!(
        default_mode,
        ScanMode::Hybrid {
            state_budget: recama::DEFAULT_STATE_BUDGET
        }
    );
    let forced = engine(&["abc"], ScanMode::Nca);
    assert_eq!(forced.scan_mode(), ScanMode::Nca);
}

/// The count-based regression for the counted half of the scan (the
/// harness's `snort_hits` rules, one flow, cut into four scan groups by
/// a 400-state budget): counters must be stepped on few bytes — far
/// fewer than they are live on — and few of them when they are. Counts
/// only — they repeat exactly, whatever the machine.
///
/// On these 256 KiB, in four units of equal bank cost, the tree before
/// counters slept stepped the bank on 124 694 of the 1 048 576
/// `(byte, unit)` steps, a share of 0.119: every byte with a counted
/// token live. With `T` asleep from a token's entry to its first due
/// byte the bank is stepped on 13 493 of them (0.013; 12 005 in these
/// four groups) and sleeps through 111 201 more (109 458), 8.2 (9.1) per
/// byte stepped. The share's bound sits midway between the two trees on
/// the log scale, so a tree whose counters never sleep fails it.
#[test]
fn snort_profile_fallback_is_bounded() {
    use recama::workloads::{generate, traffic, BenchmarkId};

    let ruleset = generate(BenchmarkId::Snort, 0.02, 2022);
    let builder = Engine::builder()
        .patterns(ruleset.pattern_strings())
        // The counts must not depend on the `RECAMA_PREFILTER` leg.
        .prefilter(PrefilterMode::Off)
        .lossy(true);
    let engine = common::in_scan_groups(builder, 4);
    let units = engine.scan_groups().shard_count() as u64;
    let input = traffic(&ruleset, 256 << 10, 0.0005, 302);
    let sched = engine.scheduler_with(1);
    for chunk in input.chunks(2 << 10) {
        sched.push(1, chunk);
        sched.run();
    }
    let stats = sched.hybrid_stats().expect("hybrid is the default mode");
    let total = stats.dfa_bytes + stats.fallback_bytes;
    assert_eq!(
        total,
        units * input.len() as u64,
        "every unit scans every byte"
    );
    assert!(
        stats.exact_state_steps <= 4 * stats.fallback_bytes,
        "whole frontiers are being stepped exactly again: {stats:?}"
    );
    assert!(
        stats.fallback_bytes as f64 <= 0.04 * total as f64,
        "counters are stepped on {:.3} of all bytes: {stats:?}",
        stats.fallback_bytes as f64 / total as f64
    );
    assert!(
        stats.slept_bytes >= 5 * stats.fallback_bytes,
        "counters that are live are mostly awake: {stats:?}"
    );
}

#[test]
fn scheduler_reports_hybrid_stats_only_in_hybrid_mode() {
    let patterns = ["abc", "ab{2,3}c"];
    let input = b"zabcz.abbc.abbbc.abc";

    let hybrid = engine(&patterns, ScanMode::Hybrid { state_budget: 128 });
    let sched = hybrid.scheduler();
    sched.push(1, input);
    sched.run();
    let stats = sched.hybrid_stats().expect("hybrid mode exposes stats");
    assert_eq!(
        stats.dfa_bytes + stats.fallback_bytes,
        input.len() as u64,
        "every byte is attributed to exactly one path"
    );
    assert!(stats.dfa_states > 0, "the overlay cached at least q0");
    assert!(
        (1..=stats.fallback_bytes).contains(&stats.exact_state_steps),
        "one counted state at most is stepped exactly: {stats:?}"
    );

    let exact = engine(&patterns, ScanMode::Nca);
    let sched = exact.scheduler();
    sched.push(1, input);
    sched.run();
    assert_eq!(sched.hybrid_stats(), None, "Nca mode has no overlay");
}
