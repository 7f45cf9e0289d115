//! Whole-ruleset streaming: compile a Snort-like ruleset into ONE shared
//! machine image with `Engine::builder()` (single-shard policy), stream
//! traffic through it in MTU-sized chunks, and compare against the
//! baseline that loops over one-rule engines. How many engines the
//! stream runs is not the policy's business: the rules are cut into scan
//! groups by whether their lazy-DFA rows fit the state budget, and these
//! fit one.
//!
//! ```sh
//! cargo run --release --example ruleset_stream
//! ```

use recama::hw::ShardPolicy;
use recama::workloads::{generate, traffic, BenchmarkId, PatternClass};
use recama::Engine;
use std::time::Instant;

fn main() {
    // A 1%-scale Snort-like ruleset and 64 KiB of traffic with planted
    // matches.
    let ruleset = generate(BenchmarkId::Snort, 0.01, 2022);
    let patterns: Vec<String> = ruleset
        .patterns
        .iter()
        .filter(|(_, c)| *c != PatternClass::Unsupported)
        .map(|(p, _)| p.clone())
        .collect();
    let input = traffic(&ruleset, 64 * 1024, 0.0005, 7);

    let start = Instant::now();
    let engine = Engine::builder()
        .patterns(&patterns)
        .shard_policy(ShardPolicy::Single) // ONE merged machine image
        .lossy(true) // skip out-of-fragment rules, queryably
        .build()
        .expect("lossy builds are infallible");
    println!(
        "compiled {} patterns into one image in {:?} ({} rejected)",
        engine.len(),
        start.elapsed(),
        engine.skipped().len()
    );
    println!(
        "{} bank image(s) for the machine, {} scan group(s) for a software flow",
        engine.shard_count(),
        engine.scan_groups().len()
    );
    let (stes, counters, bitvectors) = engine.network(0).counts_by_type();
    println!("merged network: {stes} STEs + {counters} counters + {bitvectors} bit vectors");
    println!(
        "shared alphabet: {} byte classes instead of 256",
        engine.set().multi().alphabet().len()
    );

    // Stream the traffic in MTU-sized chunks, as an IDS tap would.
    let start = Instant::now();
    let mut stream = engine.stream();
    let mut hits = 0usize;
    let mut first: Option<(usize, usize)> = None;
    for chunk in input.chunks(1500) {
        for m in stream.feed(chunk) {
            if first.is_none() {
                first = Some((m.pattern, m.end));
            }
            hits += 1;
        }
    }
    let shared_time = start.elapsed();
    println!(
        "\nshared engine: {hits} reports over {} KiB in {shared_time:?}",
        input.len() / 1024
    );
    if let Some((p, end)) = first {
        println!(
            "first hit: pattern #{p} ({:?}) ending at byte {end}",
            engine.pattern(p)
        );
    }

    // The loop-over-patterns baseline scans the input once per rule.
    let baseline: Vec<Engine> = patterns
        .iter()
        .filter_map(|p| Engine::new([p]).ok())
        .collect();
    let start = Instant::now();
    let loop_hits: usize = baseline.iter().map(|e| e.scan(&input).len()).sum();
    let loop_time = start.elapsed();
    println!("pattern loop:  {loop_hits} reports in {loop_time:?}");
    println!(
        "speedup: {:.1}x",
        loop_time.as_secs_f64() / shared_time.as_secs_f64().max(1e-9)
    );
    assert_eq!(hits, loop_hits, "engines must agree");

    // The same image runs on the simulated accelerator, with reports
    // attributed to rules through the stamped report ids.
    let mut hw = engine.hardware(0);
    let sample = &input[..4096];
    let by_rule = hw.match_ends_by_rule(sample);
    println!(
        "\nhardware sim on the first 4 KiB: {} attributed reports",
        by_rule.len()
    );
    for (rule, end) in by_rule.iter().take(3) {
        println!(
            "  rule #{rule} ({:?}) at byte {end}",
            engine.pattern(*rule as usize)
        );
    }
}
