//! Quickstart: the whole pipeline on one pattern.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use recama::analysis::{check, CheckConfig, Method};
use recama::hw::{run, AreaGranularity};
use recama::Engine;

fn main() {
    // A Snort-style payload rule: a keyword, then 10–40 arbitrary bytes,
    // then a delimiter.
    let source = r"User-Agent:[^\n]{10,40}\n";

    // 1. Parse + static analysis: is the counting counter-ambiguous?
    let parsed = recama::syntax::parse(source).expect("pattern parses");
    let verdict = check(
        &parsed.for_stream(),
        Method::Hybrid,
        &CheckConfig::default(),
    );
    println!("pattern:          {source}");
    println!(
        "counter-ambiguous: {:?} ({} token pairs explored in {:?})",
        verdict.ambiguous, verdict.stats.pairs_created, verdict.stats.duration
    );

    // 2. Compile to the extended MNRL network: a compiled rule is an
    //    engine with one rule, and its machine image is shard 0's.
    let engine = Engine::new([source]).expect("compiles");
    let network = engine.network(0);
    let (stes, counters, bitvectors) = network.counts_by_type();
    println!("network:          {stes} STEs + {counters} counters + {bitvectors} bit vectors");
    println!(
        "vs unfolding:     {} STEs would be needed without modules",
        recama::nca::unfolded_leaves(&parsed.for_stream())
    );

    // 3. Match in software (the counter/bit-vector engine of §3.2.1).
    let haystack: &[u8] = b"GET / HTTP/1.1\nUser-Agent: recama-quickstart/1.0\nHost: x\n";
    let ends: Vec<usize> = engine.scan(haystack).iter().map(|m| m.end).collect();
    println!("match ends:       {ends:?}");

    // 4. Simulate on the augmented CAMA hardware model and price the run.
    let report = run(network, haystack, AreaGranularity::WholeModule);
    assert_eq!(report.match_ends, ends, "hw == sw");
    println!(
        "hardware:         {} PEs, {:.4} nJ/byte, {:.6} mm²",
        report.placement.pe_count,
        report.energy.nj_per_byte(),
        report.area.total_mm2()
    );
    println!("hardware reports: {:?}", report.match_ends);

    // 5. Rulesets scale through the same facade: `Engine::builder()` is
    //    the one entry point for whole-set scanning, spans, streams, and
    //    flow serving (see the ruleset_stream / network_ids examples).
    let ruleset = Engine::builder()
        .rule(1, source)
        .rule(2, r"Host: [a-z.]{1,40}\n")
        .build()
        .expect("ruleset compiles");
    for m in ruleset.scan(haystack) {
        println!(
            "engine:           rule id {} matched ending at {}",
            ruleset.rule_id(m.pattern),
            m.end
        );
    }
}
