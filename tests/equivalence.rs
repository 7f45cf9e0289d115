//! Property-based cross-engine equivalence: for random counting regexes and
//! random inputs, all five implementations agree on membership / match
//! ends:
//!
//! 1. the naive membership oracle (substring DP on the AST);
//! 2. the token-set reference engine (Def. 2.1 semantics);
//! 3. the counter bank every scan runs on: the regex compiled, as the
//!    engine compiles a rule — nested and ambiguous multi-state counting
//!    partially unfolded, registers where the analysis proves a counter
//!    single-valued, words and queues for the `σ{m,n}` rest — merged
//!    alone under the engine's plan and stepped without rows;
//! 4. the token-set engine on the unfolded (counter-free) automaton;
//! 5. the hardware simulator on the compiled MNRL network, against the
//!    bank on the same compiled rule.

use proptest::prelude::*;
use recama::compiler::{compile, CompileOptions, CompileOutput};
use recama::hw::HwSimulator;
use recama::nca::{unfold, CompilePlan, HybridEngine, MultiNca, Nca, TokenSetEngine, UnfoldPolicy};
use recama::syntax::{naive, ByteClass, Regex};

/// The compiled rule merged alone under the plan every scan builds: the
/// analysis decides which counted states are single-valued.
fn engine_bank(out: &CompileOutput) -> MultiNca {
    let plan = CompilePlan::optimized(&out.nca, |q| out.analysis.state_unambiguous(q));
    MultiNca::merge(&[(&out.nca, plan)])
}

/// The ends the bank's engine without rows reports on `input`: its
/// membership is the last end being the input's length. A merge never
/// reports at 0, so the empty input is the reference's to decide.
fn bank_ends(engine: &mut HybridEngine, input: &[u8]) -> Vec<usize> {
    let reports = engine.match_reports(input).into_iter();
    reports.map(|r| r.end as usize).collect()
}

/// The single-byte classes the strategies draw from.
fn arb_class() -> BoxedStrategy<Regex> {
    prop::sample::select(vec![
        Regex::byte(b'a'),
        Regex::byte(b'b'),
        Regex::byte(b'c'),
        Regex::Class(ByteClass::from_bytes(b"ab")),
        Regex::Class(ByteClass::from_bytes(b"bc")),
        Regex::Class(ByteClass::singleton(b'a').complement()),
        Regex::any(),
    ])
}

/// Small regexes over {a, b, c} built from every operator. Their
/// repeats are mostly of nullable or nested bodies, which the compiler
/// unfolds, so few of them keep a counter ([`arb_counted`] does).
fn arb_nested() -> BoxedStrategy<Regex> {
    let leaf = prop_oneof![arb_class(), Just(Regex::Empty)];
    leaf.prop_recursive(3, 24, 4, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 1..3).prop_map(Regex::concat),
            prop::collection::vec(inner.clone(), 2..3).prop_map(Regex::alt),
            inner.clone().prop_map(Regex::star),
            inner.clone().prop_map(Regex::plus),
            (inner.clone(), 0u32..3, 2u32..6)
                .prop_map(|(r, m, extra)| { Regex::repeat(r, m, Some(m + extra)) }),
            (inner, 1u32..4).prop_map(|(r, m)| Regex::repeat(r, m, Some(m))),
        ]
    })
}

/// A class or a concatenation of two or three classes — never nullable
/// — under `{m,n}` with `n` up to 8, alone or between two
/// [`arb_nested`] regexes: a counting occurrence the compiler keeps as a
/// register or a bit vector.
fn arb_counted() -> BoxedStrategy<Regex> {
    let body = prop_oneof![
        arb_class(),
        prop::collection::vec(arb_class(), 2..4).prop_map(Regex::concat),
    ];
    let counted = (body, 2u32..9, 0u32..9)
        .prop_map(|(r, n, m)| Regex::repeat(r, m.min(n), Some(n)))
        .boxed();
    prop_oneof![
        counted.clone(),
        (arb_nested(), counted, arb_nested()).prop_map(|(a, r, b)| Regex::concat(vec![a, r, b])),
    ]
}

/// A strategy for small counting regexes over {a, b, c}: half of them
/// [`arb_nested`], half [`arb_counted`].
fn arb_regex() -> BoxedStrategy<Regex> {
    prop_oneof![arb_nested(), arb_counted()]
}

fn arb_input() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(prop::sample::select(b"abcx".to_vec()), 0..12)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    #[test]
    fn all_engines_agree_on_membership(r in arb_regex(), inputs in prop::collection::vec(arb_input(), 1..6)) {
        let nca = Nca::from_regex(&r);
        prop_assume!(nca.state_count() < 200);
        let mut token = TokenSetEngine::new(&nca);
        let mut bank = engine_bank(&compile(&r, &CompileOptions::default())).engine();
        let unfolded_nca = Nca::from_regex(&unfold(&r, UnfoldPolicy::All));
        let mut unfolded = TokenSetEngine::new(&unfolded_nca);
        for input in &inputs {
            let expected = naive::matches(&r, input);
            let mut ends = token.match_ends(input);
            prop_assert_eq!(ends.last() == Some(&input.len()), expected, "token engine on {:?}", input);
            // The bank on every prefix, not only on the whole input: a
            // random input is rarely a member, and a counter rarely at
            // its bound there.
            ends.retain(|&end| end > 0);
            prop_assert_eq!(bank_ends(&mut bank, input), ends, "compiled bank on {:?}", input);
            prop_assert_eq!(bank.conflicts(), 0, "compiled bank on {:?}", input);
            prop_assert_eq!(unfolded.matches(input), expected, "unfolded automaton on {:?}", input);
        }
    }

    #[test]
    fn hardware_agrees_with_software_on_streams(r in arb_regex(), input in arb_input()) {
        // Hardware executes the streaming form Σ*r.
        prop_assume!(!r.nullable() && !r.is_void());
        let stream = Regex::concat(vec![Regex::star(Regex::any()), r]);
        let out = compile(&stream, &CompileOptions::default());
        prop_assume!(out.nca.state_count() < 200);
        let mut hw = HwSimulator::new(&out.network);
        let sw_ends = bank_ends(&mut engine_bank(&out).engine(), &input);
        prop_assert_eq!(hw.match_ends(&input), sw_ends);
    }

    #[test]
    fn unfolding_thresholds_preserve_language(r in arb_regex(), input in arb_input()) {
        let expected = naive::matches(&r, &input);
        for policy in [UnfoldPolicy::UpTo(2), UnfoldPolicy::UpTo(4), UnfoldPolicy::All] {
            let u = unfold(&r, policy);
            prop_assert_eq!(naive::matches(&u, &input), expected, "policy {:?}", policy);
        }
    }

    #[test]
    fn normalization_preserves_language(r in arb_regex(), input in arb_input()) {
        let n = recama::syntax::normalize_for_nca(&r);
        prop_assert_eq!(naive::matches(&n, &input), naive::matches(&r, &input));
    }
}

/// Half the random regexes carry a counting occurrence that survives
/// `compile` (the bank is what the property above drives), on a fixed
/// seed: at least 40 % of 96 draws keep a counter.
#[test]
fn most_random_regexes_keep_a_counter_through_compile() {
    let mut rng = <proptest::TestRng as proptest::SeedableRng>::seed_from_u64(2022);
    let strategy = arb_regex();
    let cases = 96;
    let kept = (0..cases)
        .filter(|_| {
            let r = strategy.generate(&mut rng);
            !compile(&r, &CompileOptions::default())
                .nca
                .counters()
                .is_empty()
        })
        .count();
    assert!(kept * 10 >= cases * 4, "{kept} of {cases} keep a counter");
}

#[test]
fn regression_multi_engine_corpus() {
    // Fixed corpus with tricky shapes, exhaustively over short inputs.
    let patterns = [
        "(a|ab){2}",
        "(a?b){2,3}",
        "((a|b)c){1,2}",
        "a{2,3}a{2,3}",
        "(a+b){2}",
        "(ab?){3}",
        "(a{2}|b){2,4}",
        "(a{2,3})*b",
        "(b?a{1,2})+",
    ];
    for p in patterns {
        let r = recama::syntax::parse(p).unwrap().regex;
        let nca = Nca::from_regex(&r);
        let mut token = TokenSetEngine::new(&nca);
        let mut bank = engine_bank(&compile(&r, &CompileOptions::default())).engine();
        let mut queue: Vec<Vec<u8>> = vec![vec![]];
        while let Some(w) = queue.pop() {
            let expected = naive::matches(&r, &w);
            assert_eq!(token.matches(&w), expected, "{p} on {w:?}");
            // Every word is enumerated, so membership covers every prefix.
            if !w.is_empty() {
                let member = bank_ends(&mut bank, &w).last() == Some(&w.len());
                assert_eq!(member, expected, "compiled bank: {p} on {w:?}");
                assert_eq!(bank.conflicts(), 0, "compiled bank: {p} on {w:?}");
            }
            if w.len() < 7 {
                for &c in b"ab" {
                    let mut w2 = w.clone();
                    w2.push(c);
                    queue.push(w2);
                }
            }
        }
    }
}
