//! The paper's concrete worked examples, checked end to end across crates.

use recama::analysis::hardness::{subset_sum_regex, target_occurrence};
use recama::analysis::{check, check_occurrence, CheckConfig, Method, Verdict};
use recama::compiler::{compile, CompileOptions, ModuleKind};
use recama::hw::HwSimulator;
use recama::nca::{CounterId, Nca, TokenSetEngine};
use recama::syntax::{naive, parse};

fn cfg() -> CheckConfig {
    CheckConfig::default()
}

/// Example 2.2, r1 = Σ*σ1σ2{n}: the automaton shape and its language.
#[test]
fn example_2_2_r1_language() {
    // σ1 = [ab], σ2 = [^a], n = 3 — i.e. `.*[ab][^a]{3}` in POSIX form.
    let r = parse(".*[ab][^a]{3}").unwrap().regex;
    let nca = Nca::from_regex(&r);
    let mut engine = TokenSetEngine::new(&nca);
    assert!(engine.matches(b"xbyyy"));
    assert!(engine.matches(b"azzz"));
    assert!(!engine.matches(b"aazz"));
    assert!(!engine.matches(b"b"));
    // And the matcher agrees with the oracle on a sweep.
    for w in ["abbb", "aabbb", "qbccc", "baaa", "", "bbb"] {
        assert_eq!(
            engine.matches(w.as_bytes()),
            naive::matches(&r, w.as_bytes()),
            "{w}"
        );
    }
}

/// Example 2.2, r3 = σ1{m}Σ*σ2{n}: counter 0 unambiguous, counter 1
/// ambiguous — mixed verdicts in a single pattern.
#[test]
fn example_2_2_r3_mixed_verdicts() {
    let r = parse("a{3}.*b{2}").unwrap().regex;
    let res = check(&r, Method::Exact, &cfg());
    assert_eq!(res.ambiguous, Some(true));
    assert_eq!(res.occurrences[0].verdict, Verdict::Unambiguous);
    assert_eq!(res.occurrences[1].verdict, Verdict::Ambiguous);
    // Hardware: counter for {3}, bit vector for {2}.
    let out = compile(&r, &CompileOptions::default());
    assert_eq!(
        out.modules,
        vec![ModuleKind::Counter, ModuleKind::BitVector]
    );
    let mut hw = HwSimulator::new(&out.network);
    assert_eq!(hw.match_ends(b"aaaxxbb"), vec![7]);
    assert_eq!(hw.match_ends(b"aaabb"), vec![5]);
    assert!(hw.match_ends(b"aabb").is_empty());
}

/// Example 3.2: Σ*σ{2} is counter-ambiguous; the witness replays.
#[test]
fn example_3_2_ambiguity() {
    let r = parse(".*a{2}").unwrap().regex;
    let res = check(&r, Method::HybridWitness, &cfg());
    assert_eq!(res.ambiguous, Some(true));
    let w = res.witness.expect("witness");
    let nca = Nca::from_regex(&r);
    let mut engine = TokenSetEngine::new(&nca);
    engine.matches(&w);
    assert!(engine.observed_degree() >= 2);
}

/// Example 3.4: Σ*(σ̄1σ1{n} + σ̄2σ2{n}) — counter-unambiguous; the
/// approximation is linear while the exact product is quadratic.
#[test]
fn example_3_4_approximation_payoff() {
    let shape = |n: u32| format!(".*([^ac][ac]{{{n}}}|[^bc][bc]{{{n}}})");
    let small = parse(&shape(16)).unwrap().regex;
    let large = parse(&shape(64)).unwrap().regex;
    for r in [&small, &large] {
        let hybrid = check(r, Method::Hybrid, &cfg());
        assert_eq!(hybrid.ambiguous, Some(false));
        for occ in &hybrid.occurrences {
            assert_eq!(occ.verdict, Verdict::Unambiguous);
        }
    }
    let exact_small = check(&small, Method::Exact, &cfg()).stats.pairs_created;
    let exact_large = check(&large, Method::Exact, &cfg()).stats.pairs_created;
    let approx_small = check(&small, Method::Approximate, &cfg())
        .stats
        .pairs_created;
    let approx_large = check(&large, Method::Approximate, &cfg())
        .stats
        .pairs_created;
    let exact_growth = exact_large as f64 / exact_small as f64;
    let approx_growth = approx_large as f64 / approx_small as f64;
    assert!(
        exact_growth > 8.0,
        "exact should grow ~quadratically: {exact_growth:.1}"
    );
    assert!(
        approx_growth < 6.0,
        "approx should grow ~linearly: {approx_growth:.1}"
    );
}

/// Fig. 1: the two-counter NCA for Σ*σ1(σ2(σ3σ4){m,n}σ5){k}σ6.
#[test]
fn figure_1_structure_and_language() {
    let r = parse(".*q(w(er){2,3}t){2}y").unwrap().regex;
    let nca = Nca::from_regex(&r);
    assert_eq!(nca.counters().len(), 2);
    assert_eq!(nca.counter(CounterId(0)).bound(), 2); // outer {k}
    assert_eq!(nca.counter(CounterId(1)).bound(), 3); // inner {m,n}
    let mut engine = TokenSetEngine::new(&nca);
    // k=2 blocks, each w(er){2,3}t.
    assert!(engine.matches(b"qwerertwererty")); // 2+2 repetitions
    assert!(engine.matches(b"qwererertwererty")); // 3+2
    assert!(engine.matches(b"qwerertwerererty")); // 2+3
    assert!(!engine.matches(b"qwererty")); // single block
    assert!(!engine.matches(b"qwertwerty")); // er{1} per block
}

/// Fig. 4 / Fig. 6: a(bc){1,3}d on the hardware counter module.
#[test]
fn figure_4_and_6_hardware() {
    let parsed = parse("^a(bc){1,3}d").unwrap();
    let out = compile(&parsed.for_stream(), &CompileOptions::default());
    assert_eq!(out.modules, vec![ModuleKind::Counter]);
    let mut hw = HwSimulator::new(&out.network);
    assert_eq!(hw.match_ends(b"abcd"), vec![4]);
    assert_eq!(hw.match_ends(b"abcbcd"), vec![6]);
    assert_eq!(hw.match_ends(b"abcbcbcd"), vec![8]);
    assert!(hw.match_ends(b"abcbcbcbcd").is_empty()); // 4 > upper bound
    assert!(hw.match_ends(b"ad").is_empty()); // 0 < lower bound
}

/// Fig. 7: [ab]*a[ab]{m,n}b on the bit-vector module.
#[test]
fn figure_7_hardware() {
    let parsed = parse("^[ab]*a[ab]{2,4}b").unwrap();
    let out = compile(&parsed.for_stream(), &CompileOptions::default());
    assert_eq!(out.modules, vec![ModuleKind::BitVector]);
    let r = parsed.for_stream();
    let mut hw = HwSimulator::new(&out.network);
    // Exhaustive agreement with the oracle over {a,b}^≤8 prefix languages.
    let mut queue: Vec<Vec<u8>> = vec![vec![]];
    while let Some(w) = queue.pop() {
        let hw_ends = hw.match_ends(&w);
        // Oracle: prefix membership at every end position.
        let oracle_ends: Vec<usize> = (1..=w.len())
            .filter(|&e| naive::matches(&r, &w[..e]))
            .collect();
        assert_eq!(hw_ends, oracle_ends, "input {w:?}");
        if w.len() < 8 {
            for &c in b"ab" {
                let mut w2 = w.clone();
                w2.push(c);
                queue.push(w2);
            }
        }
    }
}

/// Lemma 3.3: the checker decides SUBSET-SUM through the reduction.
#[test]
fn lemma_3_3_reduction() {
    let instances: [(&[u32], u32, bool); 6] = [
        (&[2, 3], 5, true),
        (&[2, 3], 4, false),
        (&[3, 5, 7], 12, true),
        (&[3, 5, 7], 11, false),
        (&[2, 4, 6], 12, true),
        (&[2, 4, 6], 5, false),
    ];
    for (set, target, solvable) in instances {
        let regex = subset_sum_regex(set, target);
        let res = check_occurrence(&regex, target_occurrence(set.len()), Method::Exact, &cfg());
        let expected = if solvable {
            Verdict::Ambiguous
        } else {
            Verdict::Unambiguous
        };
        assert_eq!(res.verdict, expected, "subset-sum {set:?} -> {target}");
    }
}

/// §4.2 rewrite rules: upper bounds < 2 unfold; `[a]|[b]` merges.
#[test]
fn section_4_2_rewrites() {
    let r = parse("x(a|b)y{1}z{0,1}q{0}").unwrap().regex;
    let s = recama::syntax::simplify(&r);
    assert_eq!(s.to_string(), "x[ab]yz?");
}
