//! The work of the counting analysis, pinned: how many token pairs and
//! product edges it creates over whole rulesets, which module each
//! occurrence gets, and the witness strings it reconstructs. These count
//! the exploration's order, not only its verdicts, so a rewrite of the
//! product exploration that drifts from the breadth-first order shows
//! here even where every verdict stays the same.

use recama::analysis::{check, CheckConfig, Method};
use recama::compiler::{compile, CompileOptions, ModuleKind};
use recama::syntax::parse;
use recama::workloads::{generate, BenchmarkId};

/// Per generator at scale 0.02, seed 2022, every rule that parses,
/// compiled in its streaming form with default options: summed
/// `(pairs_created, edges_traversed)` and the number of counter and
/// bit-vector modules.
#[test]
fn every_generator_compiles_with_the_pinned_work() {
    let expected = [
        (BenchmarkId::Protomata, (708, 975), (0, 34)),
        (BenchmarkId::Snort, (44_238, 64_600), (45, 6)),
        (BenchmarkId::Suricata, (32_195, 48_149), (35, 5)),
        (BenchmarkId::SpamAssassin, (609, 1_289), (3, 6)),
        (BenchmarkId::ClamAv, (9_288, 15_817), (23, 73)),
    ];
    assert_eq!(expected.len(), BenchmarkId::ALL.len());
    for (id, work, modules) in expected {
        let (mut pairs, mut edges) = (0, 0);
        let (mut counters, mut bitvectors) = (0, 0);
        for pattern in generate(id, 0.02, 2022).pattern_strings() {
            let Ok(parsed) = parse(&pattern) else {
                continue;
            };
            let out = compile(&parsed.for_stream(), &CompileOptions::default());
            pairs += out.report.analysis_stats.pairs_created;
            edges += out.report.analysis_stats.edges_traversed;
            for module in &out.modules {
                match module {
                    ModuleKind::Counter => counters += 1,
                    ModuleKind::BitVector => bitvectors += 1,
                }
            }
        }
        assert_eq!((pairs, edges), work, "{}: pairs and edges", id.name());
        assert_eq!(
            (counters, bitvectors),
            modules,
            "{}: counter and bit-vector modules",
            id.name()
        );
    }
}

/// The first same-state disagreement's witness, byte for byte: which pair
/// is found first and the path back to the initial pair both follow the
/// exploration order.
#[test]
fn witnesses_are_pinned_byte_for_byte() {
    let cases: [(&str, &[u8]); 14] = [
        // Example 3.2.
        (".*a{2}", b"aa"),
        (".*a{3}", b"aa"),
        (".*a{4}", b"aa"),
        (".*a{8}", b"aa"),
        (".*a{64}", b"aa"),
        (".*a{2,5}", b"aa"),
        ("a{3}.*b{2}", b"aaabb"),
        ("a{3}.*b{3}", b"aaabb"),
        (".*[ab][^a]{3}", b"ab\0"),
        (".*a[ab]{3}b", b"aaa"),
        (".*(ab){2,4}", b"aba"),
        (".*[ab]([ab][ab]){2,5}y", b"aaaa"),
        (".*[ab]([ab][ab]){2,50}y", b"aaaa"),
        (".*(b{20}|[^c]c{300})", b"bb"),
    ];
    for (pattern, witness) in cases {
        let regex = parse(pattern).unwrap().regex;
        let res = check(&regex, Method::HybridWitness, &CheckConfig::default());
        assert_eq!(res.ambiguous, Some(true), "{pattern}");
        assert_eq!(res.witness.as_deref(), Some(witness), "{pattern}");
    }
}
