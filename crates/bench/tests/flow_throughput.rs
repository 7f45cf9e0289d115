//! Guards the many-flow scheduling acceptance claims on a synthetic
//! Snort workload: per-flow [`FlowScheduler`](recama::FlowScheduler) reports must be
//! **byte-identical** to independent per-flow streams regardless of the
//! worker count, and — on machines with at least four cores — aggregate
//! throughput must scale at least 1.5x from one worker to four. The
//! timing half is skipped on smaller machines (a 1-core CI box cannot
//! demonstrate pool speedup); use `cargo run --release -p recama-bench
//! --bin flow_eval` for the full sweep.

use recama::hw::ShardPolicy;
use recama::workloads::{generate, traffic, BenchmarkId, PatternClass};
use recama::{Engine, SetMatch};
use std::time::Instant;

const FLOWS: usize = 16;
const CHUNK: usize = 2048;
const ROUNDS: usize = 8;

/// One full serving pass: round-robin chunk pushes with a run per round,
/// returning (wall time, total hits).
fn serve(engine: &Engine, streams: &[Vec<u8>], workers: usize) -> (std::time::Duration, usize) {
    let sched = engine.scheduler_with(workers);
    let start = Instant::now();
    for round in 0..ROUNDS {
        let at = round * CHUNK;
        for (fi, bytes) in streams.iter().enumerate() {
            sched.push(fi as u64, &bytes[at..at + CHUNK]);
        }
        sched.run();
    }
    let elapsed = start.elapsed();
    let hits = (0..streams.len())
        .map(|fi| sched.poll(fi as u64).len())
        .sum();
    (elapsed, hits)
}

#[test]
fn flow_scheduler_is_byte_identical_and_scales_with_workers() {
    let ruleset = generate(BenchmarkId::Snort, 0.02, 2022);
    let patterns: Vec<String> = ruleset
        .patterns
        .iter()
        .filter(|(_, c)| *c != PatternClass::Unsupported)
        .map(|(p, _)| p.clone())
        .filter(|p| recama::syntax::parse(p).is_ok())
        .collect();
    assert!(
        patterns.len() >= 80,
        "degenerate workload: {}",
        patterns.len()
    );
    let engine = Engine::builder()
        .patterns(&patterns)
        .shard_policy(ShardPolicy::Fixed(4))
        .build()
        .expect("sharded set compiles");

    let streams: Vec<Vec<u8>> = (0..FLOWS)
        .map(|fi| traffic(&ruleset, ROUNDS * CHUNK, 0.0005, 2022 * 31 + fi as u64))
        .collect();

    // Acceptance: per-flow reports equal independent per-flow streams,
    // for 1 worker and 4 workers alike. Serves as warm-up for timing.
    for workers in [1usize, 4] {
        let sched = engine.scheduler_with(workers);
        for round in 0..ROUNDS {
            let at = round * CHUNK;
            for (fi, bytes) in streams.iter().enumerate() {
                sched.push(fi as u64, &bytes[at..at + CHUNK]);
            }
            sched.run();
        }
        for (fi, bytes) in streams.iter().enumerate() {
            let mut stream = engine.stream();
            let mut expected: Vec<SetMatch> = Vec::new();
            for chunk in bytes.chunks(CHUNK) {
                expected.extend(stream.feed(chunk));
            }
            assert_eq!(
                sched.poll(fi as u64),
                expected,
                "{workers} worker(s), flow {fi}: scheduler diverges from its stream"
            );
        }
    }

    // Best of three per pool size: one sample per side would let a
    // scheduler stall on a shared CI machine flip the comparison.
    let best = |workers: usize| {
        (0..3)
            .map(|_| serve(&engine, &streams, workers))
            .min()
            .expect("three samples")
    };
    let (t1, h1) = best(1);
    let (t4, h4) = best(4);
    assert_eq!(h1, h4, "hit counts must not depend on the worker count");

    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let speedup = t1.as_secs_f64() / t4.as_secs_f64().max(1e-9);
    println!(
        "snort 2%, {FLOWS} flows x {ROUNDS} x {CHUNK} B on {cores} cores: \
         1 worker {t1:?} vs 4 workers {t4:?} ({speedup:.2}x)"
    );
    // With 16 flows x 4 shards = 64 independent units, 4 workers have
    // ample parallel slack; 1.5x leaves headroom against CI noise.
    // RECAMA_SKIP_TIMING_ASSERTS=1 keeps the differential half while
    // muting the race on very noisy machines.
    let muted = std::env::var_os("RECAMA_SKIP_TIMING_ASSERTS").is_some();
    if cores >= 4 && !muted {
        assert!(
            speedup >= 1.5,
            "with {cores} cores, 4 workers must beat 1 worker by >= 1.5x \
             (got {speedup:.2}x: {t4:?} vs {t1:?})"
        );
    } else {
        println!("(timing assertion skipped: {cores} core(s), muted = {muted})");
    }
}
