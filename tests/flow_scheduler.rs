//! The many-flow scheduling layer's slices of the differential matrix
//! (`common::matrix`): for a random interleaving of chunks across flows,
//! any worker-pool size, and any number of scan groups,
//! [`FlowScheduler`](recama::FlowScheduler) must deliver each flow the
//! per-pattern oracle of its bytes in stream order — by `poll`, or by
//! `drain_global` attributed to the flow — and its finishing set what
//! the `$` rules keep
//! — plus the edge cases a serving layer meets: zero-length chunks, one
//! flow spread over many workers, many flows on one worker, and flow ids
//! closed and reopened.

mod common;

use common::matrix::{
    cells, expect, in_groups, pin, random_chunks, run_knobs, verify, Case, Driver, Flow, DRIVERS,
};
use common::{in_scan_groups, sample_patterns, Oracle};
use rand::rngs::StdRng;
use rand::SeedableRng;
use recama::workloads::{generate, traffic, BenchmarkId};
use recama::{Engine, SetMatch};
use std::collections::HashSet;

/// Five flows of Snort traffic in random chunks, empty ones mixed in,
/// pushed in a seeded random interleaving with a `run()` every 17
/// pushes, on one and on four workers.
#[test]
fn randomized_interleavings_match_independent_streams() {
    let rules = sample_patterns(BenchmarkId::Snort, 0.004, 2022, 400);
    assert!(rules.len() >= 10, "degenerate sample: {}", rules.len());
    let oracle = Oracle::new(&rules);
    let ruleset = generate(BenchmarkId::Snort, 0.004, 2022);
    for seed in [1u64, 7, 2022] {
        let mut rng = StdRng::seed_from_u64(seed);
        let flows: Vec<Flow> = (0..5)
            .map(|fi| {
                let data = traffic(&ruleset, 2048, 0.002, seed * 31 + fi);
                Flow::split(&data, random_chunks(data.len(), &mut rng))
            })
            .collect();
        let expected = expect(&oracle, &flows);
        let mut case = Case::of(&rules, &flows, in_groups(3));
        case.shuffle = Some(seed);
        let drivers = [Driver::Scheduler(1), Driver::Scheduler(4)];
        let replay = format!("interleaving seed {seed}");
        verify(
            &replay,
            &case,
            &oracle,
            &expected,
            &drivers,
            &mut HashSet::new(),
        );
    }
}

/// One flow, eight workers: only unit-level parallelism is available,
/// and the merged output must still be in stream order.
#[test]
fn single_flow_spreads_over_many_workers() {
    let rules = sample_patterns(BenchmarkId::Snort, 0.004, 7, 400);
    let input = traffic(&generate(BenchmarkId::Snort, 0.004, 7), 8 * 1024, 0.002, 7);
    let flows = [Flow::fixed(&input, 512)];
    let drivers = [Driver::Scheduler(8)];
    run_knobs("Snort seed 7", &rules, &flows, &[in_groups(4)], &drivers);
}

/// 32 flows in four chunks each, pushed round-robin through one worker.
#[test]
fn many_flows_on_one_worker() {
    let rules = sample_patterns(BenchmarkId::Suricata, 0.004, 1, 400);
    let ruleset = generate(BenchmarkId::Suricata, 0.004, 1);
    let flows: Vec<Flow> = (0..32)
        .map(|fi| {
            let bytes = traffic(&ruleset, 512, 0.002, 100 + fi);
            let quarter = bytes.len() / 4;
            Flow::fixed(&bytes[..4 * quarter], quarter)
        })
        .collect();
    let drivers = [Driver::Scheduler(1)];
    run_knobs("Suricata seed 1", &rules, &flows, &[in_groups(2)], &drivers);
}

#[test]
fn close_and_reopen_cycles_keep_flows_independent() {
    let engine = in_scan_groups(Engine::builder().patterns(["ab{2}c", "xyz"]), 2);
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
        assert_eq!(sched.metrics().flows, 0, "drained flows are forgotten");
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

/// Rules 0, 2, 4 and 5 are `$`-anchored, 1 and 3 are not: a closed flow
/// polls every candidate end and finishes with what the `$` rules keep,
/// under every driver in the ten cells.
#[test]
fn closed_flows_finish_like_their_streams() {
    let pin = pin("dollars");
    let expected = run_knobs("dollars", &pin.rules, &pin.flows, &cells(), &DRIVERS);
    assert!(expected.iter().any(|want| !want.finish.is_empty()));
}

/// Ten flows that report on the same ends: the odd ones, read through
/// `drain_global`, each get their own reports, attributed to them once,
/// and the polled even ones theirs, under every driver in the ten cells.
#[test]
fn reports_group_by_flow_consistently_between_queue_and_sink() {
    let pin = pin("sink");
    let expected = run_knobs("sink", &pin.rules, &pin.flows, &cells(), &DRIVERS);
    assert!(expected.iter().all(|want| want.stream.len() == 2));
}
