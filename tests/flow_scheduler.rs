//! Differential testing of the many-flow scheduling layer: for ANY
//! interleaving of chunks across flows, any worker-pool size, and any
//! number of scan groups, [`FlowScheduler`](recama::FlowScheduler) must deliver per-flow reports
//! **byte-identical** (same reports, same order) to feeding each flow's
//! chunks through its own independent
//! [`ShardedSetStream`](recama::ShardedSetStream) — plus the
//! edge cases a serving layer meets: zero-length chunks, one flow
//! spread over many workers, many flows on one worker, and flow ids
//! closed and reopened.

mod common;

use common::{in_scan_groups, sample_patterns, stream_oracle};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use recama::workloads::{generate, traffic, BenchmarkId};
use recama::{Engine, FlowMatch, SetMatch, ShardedPatternSet};
use std::collections::HashMap;

/// The only way to a [`FlowScheduler`](recama::FlowScheduler): an
/// [`Engine`], here one whose flows scan at least `groups` units each.
fn engine<S: AsRef<str>>(patterns: &[S], groups: usize) -> Engine {
    in_scan_groups(Engine::builder().patterns(patterns), groups)
}

/// Splits `input` into randomized chunks (including occasional empty
/// ones), so chunk boundaries land everywhere matches can straddle.
fn random_chunks<'i>(input: &'i [u8], rng: &mut StdRng) -> Vec<&'i [u8]> {
    let mut chunks = Vec::new();
    let mut at = 0usize;
    while at < input.len() {
        if rng.gen_bool(0.1) {
            chunks.push(&input[at..at]); // zero-length chunk
        }
        let len = rng.gen_range(1..=64.min(input.len() - at));
        chunks.push(&input[at..at + len]);
        at += len;
    }
    chunks
}

/// What this chunk sequence must report as one stream: the per-pattern
/// oracle over the concatenation.
fn expected_for(set: &ShardedPatternSet, chunks: &[&[u8]]) -> Vec<SetMatch> {
    stream_oracle(set, &chunks.concat())
}

#[test]
fn randomized_interleavings_match_independent_streams() {
    let patterns = sample_patterns(BenchmarkId::Snort, 0.004, 2022, 400);
    assert!(
        patterns.len() >= 10,
        "degenerate sample: {}",
        patterns.len()
    );
    let engine = engine(&patterns, 3);
    let set = engine.set();
    let ruleset = generate(BenchmarkId::Snort, 0.004, 2022);

    for seed in [1u64, 7, 2022] {
        let mut rng = StdRng::seed_from_u64(seed);
        // Per-flow byte streams with planted matches, different per flow.
        let flows: Vec<Vec<u8>> = (0..5)
            .map(|fi| traffic(&ruleset, 2048, 0.002, seed * 31 + fi))
            .collect();
        let chunked: Vec<Vec<&[u8]>> = flows.iter().map(|f| random_chunks(f, &mut rng)).collect();

        // One interleaved event list: (flow, chunk index), shuffled while
        // preserving each flow's own chunk order.
        let mut cursors = vec![0usize; flows.len()];
        let mut events: Vec<usize> = Vec::new();
        loop {
            let live: Vec<usize> = (0..flows.len())
                .filter(|&fi| cursors[fi] < chunked[fi].len())
                .collect();
            if live.is_empty() {
                break;
            }
            let fi = live[rng.gen_range(0..live.len())];
            events.push(fi);
            cursors[fi] += 1;
        }

        for workers in [1usize, 4] {
            let sched = engine.scheduler_with(workers);
            let mut cursors = vec![0usize; flows.len()];
            for (ei, &fi) in events.iter().enumerate() {
                sched.push(fi as u64, chunked[fi][cursors[fi]]);
                cursors[fi] += 1;
                // Run at arbitrary points mid-stream, not just at the end.
                if ei % 17 == 0 {
                    sched.run();
                }
            }
            sched.run();

            let mut global = sched.drain_global();
            for (fi, chunks) in chunked.iter().enumerate() {
                let expected = expected_for(set, chunks);
                assert_eq!(
                    sched.poll(fi as u64),
                    expected,
                    "seed {seed}, {workers} worker(s), flow {fi}: \
                     scheduler output diverges from an independent stream"
                );
                // The global sink holds the same matches, flow-attributed.
                let mut from_sink: Vec<SetMatch> = global
                    .iter()
                    .filter(|m| m.flow == fi as u64)
                    .map(FlowMatch::set_match)
                    .collect();
                from_sink.sort();
                let mut expected_sorted = expected;
                expected_sorted.sort();
                assert_eq!(from_sink, expected_sorted, "global sink, flow {fi}");
            }
            global.clear();
            assert_eq!(sched.pending_bytes(), 0);
        }
    }
}

#[test]
fn single_flow_spreads_over_many_workers() {
    // One flow, eight workers: only unit-level parallelism is available,
    // and the merged output must still be in stream order.
    let patterns = sample_patterns(BenchmarkId::Snort, 0.004, 7, 400);
    let engine = engine(&patterns, 4);
    let set = engine.set();
    let ruleset = generate(BenchmarkId::Snort, 0.004, 7);
    let input = traffic(&ruleset, 8 * 1024, 0.002, 7);

    let sched = engine.scheduler_with(8);
    let mut expected = Vec::new();
    let mut stream = set.stream();
    for chunk in input.chunks(512) {
        sched.push(42, chunk);
        expected.extend(stream.feed(chunk));
    }
    sched.run();
    assert_eq!(sched.poll(42), expected);
}

#[test]
fn many_flows_on_one_worker() {
    let patterns = sample_patterns(BenchmarkId::Suricata, 0.004, 1, 400);
    let engine = engine(&patterns, 2);
    let set = engine.set();
    let ruleset = generate(BenchmarkId::Suricata, 0.004, 1);

    let sched = engine.scheduler_with(1);
    let flows: Vec<Vec<u8>> = (0..32)
        .map(|fi| traffic(&ruleset, 512, 0.002, 100 + fi))
        .collect();
    // Round-robin pushes, single run.
    for chunk_round in 0..4 {
        for (fi, bytes) in flows.iter().enumerate() {
            let quarter = bytes.len() / 4;
            sched.push(
                fi as u64,
                &bytes[chunk_round * quarter..(chunk_round + 1) * quarter],
            );
        }
    }
    sched.run();
    for (fi, bytes) in flows.iter().enumerate() {
        let quarter = bytes.len() / 4;
        let chunks: Vec<&[u8]> = (0..4)
            .map(|r| &bytes[r * quarter..(r + 1) * quarter])
            .collect();
        assert_eq!(
            sched.poll(fi as u64),
            expected_for(set, &chunks),
            "flow {fi}"
        );
    }
}

#[test]
fn close_and_reopen_cycles_keep_flows_independent() {
    let engine = engine(&["ab{2}c", "xyz"], 2);
    let sched = engine.scheduler_with(2);

    // Three incarnations of the same flow id, each a fresh stream: the
    // match must be found at the *incarnation-local* offset every time,
    // proving no engine state leaks across close/reopen.
    for incarnation in 0..3u64 {
        sched.push(9, b"..ab");
        sched.push(9, b"bc");
        sched.close(9);
        sched.run();
        assert_eq!(
            sched.poll(9),
            vec![SetMatch { pattern: 0, end: 6 }],
            "incarnation {incarnation}"
        );
        assert_eq!(sched.flow_count(), 0, "drained flows are forgotten");
    }

    // A flow closed while another stays open: the survivor is unaffected.
    sched.push(1, b"xy");
    sched.push(2, b"..a");
    sched.close(1);
    sched.run();
    sched.push(2, b"bbc");
    sched.run();
    assert!(sched.poll(1).is_empty());
    assert_eq!(sched.poll(2), vec![SetMatch { pattern: 0, end: 6 }]);
}

#[test]
fn closed_flows_finish_like_their_streams() {
    // Patterns 0 and 2 are $-anchored; 1 and 3 are not.
    let patterns = ["ab$", "ab", "a{2,3}$", "cd"];
    let engine = engine(&patterns, 2);
    let set = engine.set();
    let dollar = [true, false, true, false];

    let inputs: [&[u8]; 4] = [b"xx.ab", b"cd.aaa", b"ab.cd.ab", b""];
    let sched = engine.scheduler_with(2);
    for (fi, bytes) in inputs.iter().enumerate() {
        for chunk in bytes.chunks(2) {
            sched.push(fi as u64, chunk);
        }
        sched.close(fi as u64);
    }
    sched.run();
    for (fi, bytes) in inputs.iter().enumerate() {
        // Non-$ polled reports + the finishing set == the one-shot
        // $-filtered scan of the whole flow.
        let mut got: Vec<SetMatch> = sched
            .poll(fi as u64)
            .into_iter()
            .filter(|m| !dollar[m.pattern])
            .collect();
        got.extend(sched.finishing(fi as u64));
        got.sort_by_key(|m| (m.end, m.pattern)); // find_ends' stream order
        assert_eq!(got, set.find_ends(bytes), "flow {fi}");
    }
}

#[test]
fn reports_group_by_flow_consistently_between_queue_and_sink() {
    let engine = engine(&["kk"], 1);
    let sched = engine.scheduler_with(3);
    for flow in 0..10u64 {
        sched.push(flow, b"..kk..kk");
    }
    sched.run();
    let mut by_flow: HashMap<u64, Vec<SetMatch>> = HashMap::new();
    for m in sched.drain_global() {
        by_flow.entry(m.flow).or_default().push(m.set_match());
    }
    for flow in 0..10u64 {
        let polled = sched.poll(flow);
        assert_eq!(polled.len(), 2);
        assert_eq!(by_flow.remove(&flow).unwrap(), polled, "flow {flow}");
    }
    assert!(by_flow.is_empty());
}
