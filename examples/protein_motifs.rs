//! Protein motif search: PROSITE-style patterns (the Protomata workload)
//! over a synthetic protein sequence. Motif gaps `x(m,n)` become
//! counter-ambiguous counting — the paper's bit-vector case — and because
//! bounds are small, several motifs share one physical 2000-bit module.
//!
//! ```sh
//! cargo run --release --example protein_motifs
//! ```

use recama::compiler::{compile_ruleset, CompileOptions};
use recama::hw::{place, run, AreaGranularity};
use recama::workloads::{generate, traffic, BenchmarkId};

fn main() {
    let ruleset = generate(BenchmarkId::Protomata, 0.01, 1309);
    let patterns = ruleset.pattern_strings();
    // A synthetic "proteome": 8 KiB of residues with planted motif hits.
    let sequence = traffic(&ruleset, 8 * 1024, 0.001, 42);

    let out = compile_ruleset(&patterns, &CompileOptions::default());
    let placement = place(&out.network);
    println!("motifs compiled:       {}", out.rules.len());
    let (stes, counters, bitvectors) = out.network.counts_by_type();
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

    let report = run(&out.network, &sequence, AreaGranularity::WholeModule);
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
    let engine = recama::Engine::builder()
        .patterns(&patterns)
        .lossy(true)
        .build()
        .expect("lossy builds are infallible");
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
    if let Some(rule) = out.rules.first() {
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
