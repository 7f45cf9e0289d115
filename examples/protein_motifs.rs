//! Protein motif search: PROSITE-style patterns (the Protomata workload)
//! over a synthetic protein sequence. Motif gaps `x(m,n)` become
//! counter-ambiguous counting — the paper's bit-vector case — and because
//! bounds are small, several motifs share one physical 2000-bit module.
//!
//! ```sh
//! cargo run --release --example protein_motifs
//! ```

use recama::hw::{place, run, AreaGranularity, ShardPolicy};
use recama::workloads::{generate, traffic, BenchmarkId};
use recama::Engine;

fn main() {
    let ruleset = generate(BenchmarkId::Protomata, 0.01, 1309);
    let patterns = ruleset.pattern_strings();
    // A synthetic "proteome": 8 KiB of residues with planted motif hits.
    let sequence = traffic(&ruleset, 8 * 1024, 0.001, 42);

    // One engine: its single machine image is what the accelerator runs,
    // and the same compile scans in software.
    let engine = Engine::builder()
        .patterns(&patterns)
        .shard_policy(ShardPolicy::Single)
        .lossy(true)
        .build()
        .expect("lossy builds are infallible");
    let network = engine.network(0);
    let placement = place(network);
    println!("motifs compiled:       {}", engine.len());
    let (stes, counters, bitvectors) = network.counts_by_type();
    println!(
        "network:               {stes} STEs, {counters} counters, {bitvectors} bit-vector segments"
    );
    println!(
        "bit-vector sharing:    {} segments ({} bits) in {} physical modules ({} bits wasted)",
        placement.bitvector_segments,
        placement.bitvector_bits_used,
        placement.bitvector_modules,
        placement.bitvector_bits_wasted()
    );

    let report = run(network, &sequence, AreaGranularity::WholeModule);
    println!(
        "scan of {} residues:  {} motif hits, {:.4} nJ/byte, {:.5} mm²",
        sequence.len(),
        report.match_ends.len(),
        report.energy.nj_per_byte(),
        report.area.total_mm2()
    );

    // Motif *extents* through the facade: the engine locates full
    // `[start, end)` spans (automata report only ends; the reversed-NCA
    // pass recovers starts), which is what an annotation pipeline wants.
    let spans = engine.scan_spans(&sequence);
    println!("located motif spans:   {}", spans.len());
    for s in spans.iter().take(3) {
        println!(
            "  motif #{} ({}) spans residues {}..{}",
            s.pattern,
            engine.pattern(s.pattern),
            s.start,
            s.end
        );
    }

    // Spot-check one hit against the software reference engine.
    if let Some(rule) = engine.outputs().first() {
        let mut sw = recama::nca::TokenSetEngine::new(&rule.nca);
        let sw_ends: Vec<usize> = sw
            .match_ends(&sequence)
            .into_iter()
            .filter(|&e| e > 0)
            .collect();
        let mut hw = recama::hw::HwSimulator::new(&rule.network);
        assert_eq!(hw.match_ends(&sequence), sw_ends);
        println!(
            "cross-check:           rule 0 hardware == software ({} hits)",
            sw_ends.len()
        );
    }
}
