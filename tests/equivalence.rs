//! Property-based cross-engine equivalence: for random counting regexes and
//! random inputs, all five implementations agree on membership / match
//! ends:
//!
//! 1. the naive membership oracle (substring DP on the AST);
//! 2. the token-set reference engine (Def. 2.1 semantics);
//! 3. the compiled counter/bit-vector engine;
//! 4. the token-set engine on the unfolded (counter-free) automaton;
//! 5. the hardware simulator on the compiled MNRL network.

use proptest::prelude::*;
use recama::compiler::{compile, CompileOptions};
use recama::hw::HwSimulator;
use recama::nca::{unfold, CompilePlan, CompiledEngine, Engine, Nca, TokenSetEngine, UnfoldPolicy};
use recama::syntax::{naive, ByteClass, Regex};

/// A strategy for small counting regexes over {a, b, c}.
fn arb_regex() -> impl Strategy<Value = Regex> {
    let leaf = prop_oneof![
        prop::sample::select(vec![
            Regex::byte(b'a'),
            Regex::byte(b'b'),
            Regex::byte(b'c'),
            Regex::Class(ByteClass::from_bytes(b"ab")),
            Regex::Class(ByteClass::from_bytes(b"bc")),
            Regex::Class(ByteClass::singleton(b'a').complement()),
            Regex::any(),
        ]),
        Just(Regex::Empty),
    ];
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
        let mut compiled = CompiledEngine::conservative(&nca);
        let mut queues = CompiledEngine::new(&nca, CompilePlan::optimized(&nca, |_| false));
        let unfolded_nca = Nca::from_regex(&unfold(&r, UnfoldPolicy::All));
        let mut unfolded = TokenSetEngine::new(&unfolded_nca);
        for input in &inputs {
            let expected = naive::matches(&r, input);
            prop_assert_eq!(token.matches(input), expected, "token engine on {:?}", input);
            prop_assert_eq!(compiled.matches(input), expected, "compiled engine on {:?}", input);
            prop_assert_eq!(queues.matches(input), expected, "counting-set engine on {:?}", input);
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
        let mut sw = CompiledEngine::conservative(&out.nca);
        let sw_ends: Vec<usize> = sw.match_ends(&input).into_iter().filter(|&e| e > 0).collect();
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
    ];
    for p in patterns {
        let r = recama::syntax::parse(p).unwrap().regex;
        let nca = Nca::from_regex(&r);
        let mut token = TokenSetEngine::new(&nca);
        let mut compiled = CompiledEngine::conservative(&nca);
        let mut queue: Vec<Vec<u8>> = vec![vec![]];
        while let Some(w) = queue.pop() {
            let expected = naive::matches(&r, &w);
            assert_eq!(token.matches(&w), expected, "{p} on {w:?}");
            assert_eq!(compiled.matches(&w), expected, "{p} on {w:?}");
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
