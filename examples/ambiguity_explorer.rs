//! Counter-ambiguity explorer: the paper's worked examples, the four
//! analysis variants side by side, witness replay, and the NP-hardness
//! reduction of Lemma 3.3 solving SUBSET-SUM with the checker.
//!
//! ```sh
//! cargo run --release --example ambiguity_explorer
//! ```

use recama::analysis::hardness::{subset_sum_regex, target_occurrence};
use recama::analysis::{check, check_occurrence, CheckConfig, Method, Verdict};
use recama::nca::{Nca, TokenSetEngine};

fn main() {
    let cfg = CheckConfig::default();

    println!("== Paper examples =======================================");
    let examples = [
        (".*a{2}", "Example 3.2: Σ*σ{2}"),
        (".*[ab][^a]{4}", "Example 2.2 r1: Σ*σ1σ2{n}"),
        ("a{3}.*b{3}", "Example 2.2 r3: σ1{m}Σ*σ2{n}"),
        (
            ".*([^ac][ac]{8}|[^bc][bc]{8})",
            "Example 3.4: Σ*(σ̄1σ1{n}+σ̄2σ2{n})",
        ),
        ("a(bc){1,3}d", "Fig. 4: a(bc){1,3}d"),
    ];
    for (pattern, label) in examples {
        // Surface a bad pattern as a report line, not a crash: the rest
        // of the tour still runs.
        let parsed = match recama::syntax::parse(pattern) {
            Ok(p) => p,
            Err(e) => {
                println!("{label:45} SKIPPED (parse error: {e})");
                continue;
            }
        };
        print!("{label:45} ");
        for method in [Method::Exact, Method::Approximate, Method::Hybrid] {
            let res = check(&parsed.regex, method, &cfg);
            let tag = match (method, res.ambiguous) {
                (_, Some(true)) => "ambig",
                (_, Some(false)) => "unamb",
                (_, None) => "??",
            };
            print!(
                "{}={tag}({} pairs)  ",
                match method {
                    Method::Exact => "E",
                    Method::Approximate => "A",
                    Method::Hybrid => "H",
                    Method::HybridWitness => "HW",
                },
                res.stats.pairs_created
            );
        }
        println!();
    }

    println!("\n== Witness replay =======================================");
    let parsed = recama::syntax::parse(".*a{4}").unwrap_or_else(|e| {
        eprintln!("cannot parse the witness-replay regex: {e}");
        std::process::exit(1);
    });
    let res = check(&parsed.regex, Method::HybridWitness, &cfg);
    let witness = res.witness.expect("ambiguous regex yields a witness");
    println!(
        "witness for Σ*a{{4}}: {:?}",
        String::from_utf8_lossy(&witness)
    );
    let nca = Nca::from_regex(&parsed.regex);
    let mut engine = TokenSetEngine::new(&nca);
    engine.matches(&witness);
    println!(
        "replaying it puts {} tokens on one state (degree ≥ 2 = ambiguous)",
        engine.observed_degree()
    );
    assert!(engine.observed_degree() >= 2);

    println!("\n== Verdicts drive the compiled engine ===================");
    // The same analysis picks the storage module when the patterns are
    // compiled for real: unambiguous counting gets an O(log n) counter,
    // ambiguous single-class counting gets a bit vector.
    // A strict (non-lossy) build rejects unsupported rules with a
    // CompileError naming the offender — report it instead of crashing.
    let engine = match recama::Engine::builder()
        .rule(32, "^head[0-9]{500}tail") // Example-3.2-style, unambiguous
        .rule(22, "k.{500}") // Σ*σ{n}: counter-ambiguous
        .build()
    {
        Ok(engine) => engine,
        Err(e) => {
            eprintln!("engine build failed: {e}");
            eprintln!("  (rule index {})", e.index);
            std::process::exit(1);
        }
    };
    for i in 0..engine.len() {
        println!(
            "  rule {} ({:40}) -> modules {:?}",
            engine.rule_id(i),
            engine.pattern(i),
            engine.outputs()[i].modules
        );
    }

    println!("\n== Lemma 3.3: solving SUBSET-SUM with the checker =======");
    for (set, target) in [
        (vec![2u32, 3, 7], 10u32), // 3 + 7 ✓
        (vec![2, 3, 7], 11),       // ✗ (sums: 2,3,5,7,9,10,12)
        (vec![4, 5, 6], 15),       // 4+5+6 ✓
        (vec![4, 5, 6], 8),        // ✗
    ] {
        let regex = subset_sum_regex(&set, target);
        let verdict = check_occurrence(&regex, target_occurrence(set.len()), Method::Exact, &cfg);
        let solvable = verdict.verdict == Verdict::Ambiguous;
        println!(
            "subset of {set:?} summing to {target}? {}  (b{{2}} occurrence is {:?})",
            if solvable { "YES" } else { "no " },
            verdict.verdict
        );
    }
}
