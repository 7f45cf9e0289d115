//! The hybrid lazy-DFA engine's slices of the differential matrix
//! (`common::matrix`): a [`ScanMode::Hybrid`] engine under every budget
//! class — down to one cached DFA state, so the subset cache thrashes
//! through flushes — must report the per-pattern oracle, on random
//! rulesets mixing pure and counting rules, through block scans, chunked
//! streams and the serving path, and at every cut of inputs that keep
//! counters live. Many short flows churn over the shard caches they
//! share within the row bound; word-width counters count through long
//! runs; and one count-based test bounds the share of the Snort
//! profile's bytes that counters are stepped on. The scan mode is
//! exposed, and its stats reach the scheduler's metrics.
//!
//! [`ScanMode::Hybrid`]: recama::ScanMode::Hybrid

mod common;

use common::matrix::{
    cells, grid, knobs, pin, pool_bytes, run_knobs, run_pool, Driver, Flow, Scan, DRIVERS, POOL,
    PREFILTERS, SEED,
};
use common::{in_scan_groups, Oracle};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use recama::hw::ShardPolicy;
use recama::workloads::{generate, traffic, BenchmarkId};
use recama::{Engine, PrefilterMode, ScanMode, ServeConfig, SetMatch};

/// The second block of thirty pool cases, each knob cell at least once —
/// the hybrid at budgets of 1, 7 and 4096 states and in three scan
/// groups — under every driver.
#[test]
fn hybrid_agrees_with_nca_and_per_pattern_union() {
    run_pool(1);
}

/// The third block of thirty pool cases: the serving path — checked
/// push and poll, the literal prefilter's skip / wake-and-replay on or
/// off, units kept mid-count between checkouts — is one driver of each.
#[test]
fn served_hybrid_reports_the_per_pattern_union() {
    run_pool(2);
}

/// Flow churn over shared rows: two-chunk flows are opened, scanned and
/// closed while others are in flight, on one and on three workers.
/// Every flow reports the per-pattern oracle of its own bytes; the rows
/// the service holds stay within `groups × state_budget` at every point,
/// and serving the same traffic again as new flows adds none under a
/// roomy budget.
#[test]
fn churned_flows_share_bounded_rows_and_report_the_per_pattern_union() {
    for index in 0..6u64 {
        let mut rng = StdRng::seed_from_u64(SEED ^ index);
        let rules: Vec<&str> = (0..rng.gen_range(1..6))
            .map(|_| POOL[rng.gen_range(0..POOL.len())])
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .collect();
        let oracle = Oracle::new(&rules);
        let inputs: Vec<Vec<u8>> = (0..rng.gen_range(4..8))
            .map(|_| {
                let len = rng.gen_range(2..120);
                pool_bytes(len, &mut rng)
            })
            .collect();
        let cut = rng.gen_range(1..64);
        for (workers, budget, prefilter) in [1usize, 3]
            .into_iter()
            .flat_map(|w| [1usize, 7, 4096].map(|b| (w, b)))
            .flat_map(|(w, b)| PREFILTERS.map(|p| (w, b, p)))
        {
            let engine = (Engine::builder().patterns(&rules))
                .scan_mode(ScanMode::Hybrid {
                    state_budget: budget,
                })
                .prefilter(prefilter)
                .build()
                .unwrap();
            let what = format!(
                "{rules:?}, cut {cut}: {workers} worker(s), budget {budget}, {prefilter:?}"
            );
            // One cache per scan group, and the budget cuts the groups.
            let bound = engine.scan_groups().len() * budget;
            let svc = engine.serve_with(workers, ServeConfig::default());
            let rows = |at: &str| {
                let rows = svc.metrics().hybrid.expect("hybrid mode").dfa_states;
                assert!(rows <= bound, "{what}: {rows} rows > {bound} {at}");
                rows
            };
            // One pass serves every input once, three flows in flight: a
            // flow gets its second chunk and is closed while its
            // successors are still being scanned.
            let pass = || {
                let mut in_flight = std::collections::VecDeque::new();
                let mut flows = Vec::new();
                for input in &inputs {
                    let split = cut.min(input.len() - 1);
                    let flow = svc.try_open_flow().unwrap();
                    svc.push_checked(flow, &input[..split]).unwrap();
                    in_flight.push_back((flow, &input[split..]));
                    flows.push(flow);
                    if in_flight.len() == 3 {
                        let (flow, rest) = in_flight.pop_front().unwrap();
                        svc.push_checked(flow, rest).unwrap();
                        svc.close(flow);
                        rows("mid-pass");
                    }
                }
                for (flow, rest) in in_flight {
                    svc.push_checked(flow, rest).unwrap();
                    svc.close(flow);
                }
                svc.barrier();
                flows
            };
            let mut served = pass();
            let after_one = rows("after one pass");
            (0..3).for_each(|_| served.extend(pass()));
            let after_four = rows("after four passes");
            if budget == 4096 {
                assert_eq!(after_four, after_one, "{what}: rows grew with flows served");
            }
            for (i, flow) in served.into_iter().enumerate() {
                // Default rule ids are add-order indices: rule == pattern.
                let got: Vec<SetMatch> = (svc.poll_checked(flow).unwrap().into_iter())
                    .map(|m| SetMatch {
                        pattern: m.rule as usize,
                        end: m.end as usize,
                    })
                    .collect();
                let input = &inputs[i % inputs.len()];
                assert_eq!(got, oracle.stream(input), "{what}: flow {i}");
            }
            svc.shutdown();
        }
    }
}

/// Counting rules keep counters live across most of the input, so
/// counted tokens are woken, stepped and retired repeatedly; every cut
/// point must leave every driver's reports the oracle's in the eight
/// cells, and a stream's under a budget of 64 states.
#[test]
fn counter_fallback_survives_every_chunk_boundary() {
    let pin = pin("counting");
    let roomy = [(Scan::Hybrid(64), PrefilterMode::On, ShardPolicy::Single)];
    run_knobs(
        "counting",
        &pin.rules,
        &pin.flows,
        &roomy,
        &[Driver::Stream],
    );
    let expected = run_knobs("counting", &pin.rules, &pin.flows, &cells(), &DRIVERS);
    assert!(
        !expected[0].stream.is_empty(),
        "test input must contain matches"
    );
}

/// Runs long enough for every token of the word-width rules to reach
/// its bound: `[ac]` runs of 63 to 66 after a `[^ac]`, and `h`, `k` and
/// `a` followed by 60 to 70 bytes before the next trigger.
#[test]
fn word_width_counters_count_through_long_runs() {
    let rules: Vec<String> = [
        ".*h.{63}",
        "h.{64}",
        "k.{60,66}z",
        "[^ac][ac]{64}",
        ".*a.{65}b",
    ]
    .map(String::from)
    .into();
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
    // The hybrid at budgets of 1, 7 and 4096 states, and three scan
    // groups, under each bank policy. A stream carries each live word
    // across every byte boundary; every driver takes the coarser chunks.
    let knobs = [8, 17, 2, 11].map(knobs);
    let fine = [1, 5, 7].map(|n| Flow::fixed(&input, n));
    run_knobs("word width", &rules, &fine, &knobs, &[Driver::Stream]);
    let flows = [64, input.len()].map(|n| Flow::fixed(&input, n));
    let expected = run_knobs("word width", &rules, &flows, &knobs, &DRIVERS);
    for (pattern, source) in rules.iter().enumerate() {
        assert!(
            expected[0].stream.iter().any(|m| m.pattern == pattern),
            "{source} must match the test input"
        );
    }
}

/// A one-state cache cannot hold even the start state's successor:
/// every byte flushes and re-interns. Correctness must not depend on the
/// cache ever being warm: pure rules at every cut under every driver in
/// the eight cells, and block-scanned whole under budgets of 2 and 3.
#[test]
fn tiny_budgets_flush_but_stay_exact() {
    let pin = pin("pure");
    run_knobs("pure", &pin.rules, &pin.flows, &cells(), &DRIVERS);
    let data = &pin.flows[0].data;
    let whole = [Flow::fixed(data, data.len())];
    let knobs = grid(
        &[2, 3].map(Scan::Hybrid),
        &PREFILTERS,
        &[ShardPolicy::Single],
    );
    run_knobs("pure", &pin.rules, &whole, &knobs, &[Driver::Block]);
}

/// The hybrid rows are on by default: a served flow's metrics carry
/// their counters.
#[test]
fn scan_mode_is_exposed_and_defaults_to_hybrid() {
    let default = Engine::new(["abc"]).unwrap();
    assert!(default.serve().metrics().hybrid.is_some());
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
    let ruleset = generate(BenchmarkId::Snort, 0.02, 2022);
    let builder = Engine::builder()
        .patterns(ruleset.pattern_strings())
        // The filter off: every unit scans every byte.
        .prefilter(PrefilterMode::Off)
        .lossy(true);
    let engine = in_scan_groups(builder, 4);
    let units = engine.scan_groups().len() as u64;
    let input = traffic(&ruleset, 256 << 10, 0.0005, 302);
    let sched = engine.scheduler_with(1);
    for chunk in input.chunks(2 << 10) {
        sched.push(1, chunk);
        sched.run();
    }
    let stats = sched.metrics().hybrid.expect("hybrid is the default mode");
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
fn scheduler_reports_hybrid_stats() {
    let patterns = ["abc", "ab{2,3}c"];
    let input = b"zabcz.abbc.abbbc.abc";
    let hybrid = (Engine::builder().patterns(patterns))
        .scan_mode(ScanMode::Hybrid { state_budget: 128 })
        .build()
        .unwrap();
    let sched = hybrid.scheduler_with(1);
    sched.push(1, input);
    sched.run();
    let stats = sched.metrics().hybrid.expect("hybrid mode exposes stats");
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
}
