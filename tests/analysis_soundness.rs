//! Property-based soundness of the static analyses:
//!
//! * a state the exact analysis proves counter-unambiguous never holds two
//!   tokens during any execution (Definition 3.1, dynamic check);
//! * the over-approximation never contradicts the exact analysis;
//! * ambiguity witnesses replay to ≥ 2 tokens on one state;
//! * the naive degree oracle (a BFS over sorted token tuples) flags exactly
//!   the states the product exploration flags;
//! * a state the analysis proves unambiguous never holds two tokens, and
//!   the counter bank of the compiled rule, driven by the analysis
//!   verdicts, never observes a `SingleValue` collision;
//! * the hybrid classifier the compiler runs reports exactly the exact
//!   analysis's verdicts, and `compile()` exactly the networks a
//!   compile driven by the exact analysis would — at a bounded, counted
//!   cost, also under a hostile budget.

use proptest::prelude::*;
use recama::analysis::{
    analyze_nca, approx_occurrence, check, classify, degree, glushkov_build, CheckConfig,
    DecidedBy, ExactConfig, Method, NcaAnalysis, StopPolicy, Verdict,
};
use recama::compiler::{
    compile, emit, CompileOptions, ModuleKind, BITVECTOR_MAX_BOUND, COUNTER_MAX_BOUND,
};
use recama::nca::{
    unfold, unfold_one, CompilePlan, MultiNca, Nca, StateId, TokenSetEngine, UnfoldPolicy,
};
use recama::syntax::{normalize_for_nca, parse, ByteClass, Regex};
use recama::workloads::{generate, BenchmarkId};
use recama::Engine;

fn arb_regex() -> impl Strategy<Value = Regex> {
    let leaf = prop::sample::select(vec![
        Regex::byte(b'a'),
        Regex::byte(b'b'),
        Regex::Class(ByteClass::from_bytes(b"ab")),
        Regex::Class(ByteClass::singleton(b'a').complement()),
        Regex::any(),
    ]);
    leaf.prop_recursive(3, 16, 3, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 1..3).prop_map(Regex::concat),
            prop::collection::vec(inner.clone(), 2..3).prop_map(Regex::alt),
            inner.clone().prop_map(Regex::star),
            (inner, 1u32..3, 0u32..4)
                .prop_map(|(r, m, extra)| { Regex::repeat(r, m, Some((m + extra).max(2))) }),
        ]
    })
}

fn arb_class() -> impl Strategy<Value = Regex> {
    prop::sample::select(vec![
        Regex::byte(b'a'),
        Regex::byte(b'x'),
        Regex::Class(ByteClass::from_bytes(b"ab")),
        Regex::Class(ByteClass::from_bytes(b"bc")),
        Regex::Class(ByteClass::from_bytes(b"ab").complement()),
        Regex::any(),
    ])
}

/// `Σ* g (c₁c₂){m,n} t` and `Σ* (g₁ (c₁c₂){m,n} | g₂ c₃{p,q})`: bodies of
/// two states, where staggered entries disagree at the block level
/// without ever colliding on one state.
fn arb_multi_state_body() -> impl Strategy<Value = Regex> {
    (
        prop::collection::vec(arb_class(), 6..7),
        (1u32..4, 0u32..4),
        2u32..5,
        any::<bool>(),
    )
        .prop_map(|(c, (m, extra), p, two_branches)| {
            let body = Regex::concat(vec![c[1].clone(), c[2].clone()]);
            let first = Regex::concat(vec![
                c[0].clone(),
                Regex::repeat(body, m, Some((m + extra).max(2))),
            ]);
            let counted = if two_branches {
                let second = Regex::concat(vec![
                    c[3].clone(),
                    Regex::repeat(c[4].clone(), p, Some(p + 1)),
                ]);
                Regex::alt(vec![first, second])
            } else {
                first
            };
            Regex::concat(vec![Regex::star(Regex::any()), counted, c[5].clone()])
        })
}

/// `Σ*? g (c₁{m,n} c₂ | c₃){p,q} t`: counting inside counting, so states
/// of the inner body carry two counters and relaxing the inner occurrence
/// makes nothing nullable while relaxing the outer one wraps the inner in
/// a star.
fn arb_nested() -> impl Strategy<Value = Regex> {
    (
        prop::collection::vec(arb_class(), 5..6),
        (2u32..4, 0u32..3),
        (2u32..4, 0u32..3),
        any::<bool>(),
    )
        .prop_map(|(c, (m, extra), (p, outer_extra), streaming)| {
            let inner = Regex::concat(vec![
                Regex::repeat(c[1].clone(), m, Some(m + extra)),
                c[2].clone(),
            ]);
            let body = Regex::alt(vec![inner, c[3].clone()]);
            let mut parts = vec![
                c[0].clone(),
                Regex::repeat(body, p, Some(p + outer_extra)),
                c[4].clone(),
            ];
            if streaming {
                parts.insert(0, Regex::star(Regex::any()));
            }
            Regex::concat(parts)
        })
}

fn inputs_upto(alpha: &[u8], maxlen: usize) -> Vec<Vec<u8>> {
    let mut all: Vec<Vec<u8>> = vec![vec![]];
    let mut frontier: Vec<Vec<u8>> = vec![vec![]];
    for _ in 0..maxlen {
        let mut next = Vec::new();
        for w in &frontier {
            for &c in alpha {
                let mut w2 = w.clone();
                w2.push(c);
                next.push(w2);
            }
        }
        all.extend(next.iter().cloned());
        frontier = next;
    }
    all
}

/// Tuple budget of each degree query: ample for the small automata here.
const DEGREE_BUDGET: u64 = 50_000;

/// Checks the product exploration against the independent degree oracle
/// on `regex`'s normalised automaton: for every counted state `q`,
/// `degree(q) ≥ 2` exactly when the exact analysis flags `q`, wherever both
/// run to completion. Returns the first disagreement.
fn degree_oracle_disagreement(regex: &Regex) -> Option<String> {
    let nca = glushkov_build(&normalize_for_nca(regex));
    let analysis = analyze_nca(&nca, &ExactConfig::default());
    if !analysis.complete {
        return None;
    }
    (0..nca.state_count())
        .map(|i| StateId(i as u32))
        .filter(|&q| !nca.state(q).is_pure())
        .find_map(|q| {
            let flagged = analysis.ambiguous_states[q.index()];
            let degree = degree(&nca, q, 2, DEGREE_BUDGET)?;
            (flagged != (degree == 2))
                .then(|| format!("{regex}: state {q} has degree {degree}, flagged {flagged}"))
        })
}

#[test]
fn the_degree_oracle_agrees_on_the_paper_examples() {
    // Example 3.2, Example 2.2's r1, R3's mixed verdicts and Fig. 7 are
    // ambiguous; Fig. 1 is the unambiguous control.
    for p in [
        ".*a{2}",
        ".*[ab][^a]{3}",
        "a{3}.*b{2}",
        "^[ab]*a[ab]{2,4}b",
        ".*q(w(er){2,3}t){2}y",
    ] {
        let regex = parse(p).unwrap().regex;
        assert_eq!(degree_oracle_disagreement(&regex), None, "{p}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn the_degree_oracle_flags_what_the_exact_analysis_flags(r in arb_regex()) {
        prop_assume!(Nca::from_regex(&r).state_count() < 60);
        let disagreement = degree_oracle_disagreement(&r);
        prop_assert!(disagreement.is_none(), "{}", disagreement.unwrap_or_default());
    }

    #[test]
    fn proven_unambiguous_states_never_hold_two_tokens(r in arb_regex()) {
        let nca = Nca::from_regex(&r);
        prop_assume!(nca.state_count() < 60 && !nca.counters().is_empty());
        let analysis = analyze_nca(&nca, &ExactConfig::default());
        prop_assume!(analysis.complete);
        // Dynamically execute on all short inputs and record per-state
        // token multiplicity.
        let mut engine = TokenSetEngine::new(&nca);
        for w in inputs_upto(b"abx", 6) {
            engine.reset();
            for &b in &w {
                engine.step(b);
                let mut counts = std::collections::HashMap::new();
                for t in engine.config() {
                    *counts.entry(t.state).or_insert(0usize) += 1;
                }
                for (state, n) in counts {
                    if n >= 2 {
                        prop_assert!(
                            analysis.ambiguous_states[state.index()],
                            "state {state} held {n} tokens on {:?} but was proven unambiguous",
                            w
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn approximation_is_sound(r in arb_regex()) {
        let simplified = recama::syntax::simplify(&r);
        prop_assume!(simplified.has_counting());
        for info in simplified.repeats() {
            let (approx, _) = approx_occurrence(&simplified, info.id, 500_000);
            if approx == Verdict::Unambiguous {
                let exact = recama::analysis::check_occurrence(
                    &simplified,
                    info.id,
                    Method::Exact,
                    &CheckConfig::default(),
                );
                prop_assert_eq!(
                    exact.verdict,
                    Verdict::Unambiguous,
                    "approx proved {} unambiguous but exact says {:?} for {}",
                    info.id, exact.verdict, simplified
                );
            }
        }
    }

    #[test]
    fn witnesses_replay(r in arb_regex()) {
        let res = check(&r, Method::HybridWitness, &CheckConfig::default());
        prop_assume!(res.ambiguous == Some(true));
        if let Some(w) = &res.witness {
            let normalized = recama::syntax::normalize_for_nca(&r);
            let nca = recama::analysis::glushkov_build(&normalized);
            let mut engine = TokenSetEngine::new(&nca);
            engine.matches(w);
            prop_assert!(engine.observed_degree() >= 2, "witness {:?} for {}", w, r);
        }
    }

    #[test]
    fn analysis_informed_plan_never_conflicts(r in arb_regex()) {
        let nca = Nca::from_regex(&r);
        prop_assume!(nca.state_count() < 60 && !nca.counters().is_empty());
        // On the raw automaton, nested counting included: a state the
        // analysis would make a register never holds two tokens.
        let analysis = analyze_nca(&nca, &ExactConfig::default());
        let inputs = inputs_upto(b"abx", 6);
        let mut reference = TokenSetEngine::new(&nca);
        for w in &inputs {
            reference.reset();
            for &b in w {
                reference.step(b);
                let mut held = vec![0usize; nca.state_count()];
                for t in reference.config() {
                    held[t.state.index()] += 1;
                }
                for (q, &n) in (0..).map(StateId).zip(&held) {
                    prop_assert!(
                        n < 2 || !analysis.state_unambiguous(q),
                        "{} held {} tokens on {:?} for {}", q, n, w, r
                    );
                }
            }
        }
        // The compiled rule under the plan every scan builds, on the bank
        // without rows: the engine with rows may count fewer.
        let out = compile(&r, &CompileOptions::default());
        let plan = CompilePlan::optimized(&out.nca, |q| out.analysis.state_unambiguous(q));
        let mut engine = MultiNca::merge(&[(&out.nca, plan)]).engine();
        for w in &inputs {
            engine.match_reports(w);
            prop_assert_eq!(engine.conflicts(), 0, "conflict on {:?} for {}", w, r);
        }
    }

    #[test]
    fn stop_policies_agree_on_the_verdict(r in arb_regex()) {
        let nca = Nca::from_regex(&r);
        prop_assume!(nca.state_count() < 80);
        let full = analyze_nca(&nca, &ExactConfig::default());
        let first = analyze_nca(
            &nca,
            &ExactConfig { stop: StopPolicy::FirstAmbiguity, ..ExactConfig::default() },
        );
        // Both must agree whether the NCA is ambiguous (when conclusive).
        if let (Some(a), Some(b)) = (full.nca_ambiguous(), first.nca_ambiguous()) {
            prop_assert_eq!(a, b);
        }
    }
}

#[test]
fn block_ambiguity_is_stronger_than_state_ambiguity() {
    // On a fixed corpus: same-state ambiguity implies block ambiguity, and
    // block-unambiguous counters never show diverging values dynamically.
    for p in [
        ".*a{3}",
        ".*x([ab][ab]){2,4}y",
        "a{2}b{3}",
        ".*[ab]([ab][ab]){2,4}y",
    ] {
        let r = recama::syntax::parse(p).unwrap().regex;
        let nca = Nca::from_regex(&r);
        let analysis = analyze_nca(&nca, &ExactConfig::default());
        if !analysis.complete {
            continue;
        }
        for (k, &state_amb) in analysis.ambiguous_counters.iter().enumerate() {
            if state_amb {
                assert!(analysis.block_ambiguous_counters[k], "{p}: counter {k}");
            }
        }
    }
}

/// The four things the compiler and `CompilePlan::optimized` read off an
/// analysis.
fn verdicts(a: &NcaAnalysis) -> (&[bool], &[bool], &[bool], bool) {
    (
        &a.ambiguous_states,
        &a.ambiguous_counters,
        &a.block_ambiguous_counters,
        a.complete,
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 192, ..ProptestConfig::default() })]

    #[test]
    fn hybrid_classifier_equals_the_exact_analysis(
        r in prop_oneof![arb_regex(), arb_multi_state_body(), arb_nested()]
    ) {
        let normalized = normalize_for_nca(&r);
        let nca = glushkov_build(&normalized);
        prop_assume!(nca.state_count() < 80);
        let exact = analyze_nca(&nca, &ExactConfig::default());
        prop_assume!(exact.complete);
        let hybrid = classify(&normalized, &nca, ExactConfig::default().max_pairs);
        prop_assert_eq!(verdicts(&hybrid.analysis), verdicts(&exact), "{}", normalized);
        // A relaxed proof is only ever claimed for a counter the exact
        // analysis finds block-unambiguous.
        for (k, by) in hybrid.decided_by.iter().enumerate() {
            if *by == DecidedBy::RelaxedProof {
                prop_assert!(!exact.block_ambiguous_counters[k], "{} counter {}", normalized, k);
            }
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Pick {
    Counter,
    BitVector,
    Unfold,
}

/// The compile pipeline with its verdicts taken from the plain exact
/// analysis, as `compile()` ran it before it switched to the hybrid
/// classifier: the reference its output must stay byte-identical to.
/// Returns the modules, the unfolded-occurrence count, the network JSON
/// and the final automaton's exact analysis — or `None` if an exact run
/// exhausted the budget, where the two are allowed to differ.
fn reference_compile(
    regex: &Regex,
    options: &CompileOptions,
) -> Option<(Vec<ModuleKind>, u32, String, NcaAnalysis)> {
    let mut current = unfold(regex, options.unfold);
    let mut unfolded = regex.repeats().len() - current.repeats().len();
    for iteration in 1.. {
        let normalized = normalize_for_nca(&current);
        let nca = glushkov_build(&normalized);
        let config = ExactConfig {
            max_pairs: options.analysis_budget,
            ..ExactConfig::default()
        };
        let exact = analyze_nca(&nca, &config);
        if !exact.complete {
            return None;
        }
        let infos = normalized.repeats();
        let mut picks: Vec<Pick> = infos
            .iter()
            .enumerate()
            .map(|(k, info)| {
                let bound = info.max.unwrap_or(info.min);
                if !exact.block_ambiguous_counters[k] && bound <= COUNTER_MAX_BOUND {
                    Pick::Counter
                } else if info.single_class_body.is_some()
                    && info.max.is_some()
                    && bound <= BITVECTOR_MAX_BOUND
                {
                    Pick::BitVector
                } else {
                    Pick::Unfold
                }
            })
            .collect();
        // A module cannot sit inside a module: of a module-picked
        // ancestor and descendant the lighter one is unfolded.
        let weight = |i: usize| {
            u64::from(infos[i].max.unwrap_or(infos[i].min)) * infos[i].body_leaves.max(1) as u64
        };
        let mut ancestors: Vec<usize> = Vec::new();
        for i in 0..infos.len() {
            while ancestors
                .last()
                .is_some_and(|&top| infos[top].depth >= infos[i].depth)
            {
                ancestors.pop();
            }
            let module_above = ancestors.iter().rev().find(|&&a| picks[a] != Pick::Unfold);
            if let (true, Some(&above)) = (picks[i] != Pick::Unfold, module_above) {
                let lighter = if weight(i) > weight(above) { above } else { i };
                picks[lighter] = Pick::Unfold;
            }
            ancestors.push(i);
        }
        if !picks.contains(&Pick::Unfold) {
            let modules: Vec<ModuleKind> = picks
                .iter()
                .map(|p| match p {
                    Pick::Counter => ModuleKind::Counter,
                    _ => ModuleKind::BitVector,
                })
                .collect();
            let json = emit(&nca, &modules, "regex").to_json();
            return Some((modules, unfolded as u32, json, exact));
        }
        unfolded += picks.iter().filter(|&&pick| pick == Pick::Unfold).count();
        current = normalized.rewrite_repeats(&mut |id, body, min, max| {
            if picks[id.0] == Pick::Unfold {
                unfold_one(body, min, max)
            } else {
                Regex::repeat(body, min, max)
            }
        });
        if iteration >= 12 {
            current = unfold(&current, UnfoldPolicy::All);
        }
    }
    unreachable!("the loop returns")
}

#[test]
fn compile_is_byte_identical_to_the_exact_reference_on_every_profile() {
    // A budget the debug-profile exact runs stay affordable under; the
    // quadratic rules that exceed it are where the hybrid path may (and
    // does) do better than the reference.
    let options = CompileOptions {
        analysis_budget: 100_000,
        ..CompileOptions::default()
    };
    let mut counting_rules = 0;
    for id in BenchmarkId::ALL {
        for pattern in generate(id, 0.01, 2022).pattern_strings() {
            let Ok(parsed) = parse(&pattern) else {
                continue;
            };
            let regex = parsed.for_stream();
            let Some((modules, unfolded, json, exact)) = reference_compile(&regex, &options) else {
                continue;
            };
            let out = compile(&regex, &options);
            assert_eq!(out.modules, modules, "{}: {pattern}", id.name());
            assert_eq!(
                out.report.unfolded_occurrences,
                unfolded,
                "{}: {pattern}",
                id.name()
            );
            assert_eq!(out.network.to_json(), json, "{}: {pattern}", id.name());
            assert_eq!(
                verdicts(&out.analysis),
                verdicts(&exact),
                "{}: {pattern}",
                id.name()
            );
            counting_rules += usize::from(regex.has_counting());
        }
    }
    assert!(
        counting_rules >= 60,
        "only {counting_rules} rules with counting were compared"
    );
}

#[test]
fn snort_compiles_within_a_counted_number_of_pairs() {
    // Counts, not timers: the exact analysis alone created 1.47 M pairs on
    // the seed-2022 ruleset the benchmark uses.
    for seed in [1, 2, 2022] {
        let patterns = generate(BenchmarkId::Snort, 0.02, seed).pattern_strings();
        let engine = Engine::builder()
            .patterns(&patterns)
            .lossy(true)
            .build()
            .expect("lossy builds are infallible");
        let pairs: u64 = (engine.outputs().iter())
            .map(|r| r.report.analysis_stats.pairs_created)
            .sum();
        assert!(pairs <= 100_000, "ruleset seed {seed}: {pairs} pairs");
        assert!((engine.outputs().iter()).all(|r| !r.report.analysis_stats.budget_exhausted));
    }
}

#[test]
fn a_hostile_budget_bounds_the_cost_and_picks_no_counter() {
    // Four occurrences, each needing far more than 48 pairs: every
    // exploration is cut, there are at most K + 1 of them, and nothing
    // unproven gets a counter module.
    let rule = parse(".*([^ac][ac]{300}|[^bc][bc]{300}|[^cd][cd]{300})e.*a{500}").unwrap();
    let options = CompileOptions {
        analysis_budget: 48,
        ..CompileOptions::default()
    };
    let out = compile(&rule.for_stream(), &options);
    let stats = out.report.analysis_stats;
    assert_eq!(out.report.iterations, 1);
    assert_eq!(out.modules, vec![ModuleKind::BitVector; 4]);
    assert_eq!(out.report.decided_by, vec![DecidedBy::BudgetCut; 4]);
    assert!(stats.budget_exhausted);
    assert!(
        stats.explorations <= 5,
        "{} explorations",
        stats.explorations
    );
    assert!(
        stats.pairs_created <= 5 * 48,
        "{} pairs",
        stats.pairs_created
    );
    assert_eq!(
        out.report.relaxed_explorations + out.report.exact_explorations,
        stats.explorations
    );
    assert!(!out.analysis.complete);

    // One occurrence's relaxed pass fits the budget and proves it, the
    // other two's do not, and neither does the exact pass they force:
    // `complete = false`, so not even the proven one is trusted.
    let rule = parse("^x[ab]{3}y.*([^ac][ac]{300}|[^bc][bc]{300})").unwrap();
    let out = compile(&rule.for_stream(), &options);
    assert!(out.report.analysis_stats.budget_exhausted);
    assert_eq!(
        (
            out.report.relaxed_explorations,
            out.report.exact_explorations
        ),
        (3, 1)
    );
    assert!(
        !out.modules.contains(&ModuleKind::Counter),
        "{:?}",
        out.modules
    );
    assert!(!out.analysis.complete);
}

#[test]
fn relaxed_proofs_fit_a_budget_the_exact_product_exceeds() {
    // Example 3.4: Θ(n²) pairs exact, Θ(n) per relaxed pass.
    let rule = parse(".*([^ac][ac]{200}|[^bc][bc]{200})")
        .unwrap()
        .for_stream();
    let options = CompileOptions {
        analysis_budget: 5_000,
        ..CompileOptions::default()
    };
    let nca = Nca::from_regex(&rule);
    let config = ExactConfig {
        max_pairs: options.analysis_budget,
        ..ExactConfig::default()
    };
    assert!(analyze_nca(&nca, &config).stats.budget_exhausted);

    let out = compile(&rule, &options);
    assert_eq!(out.modules, vec![ModuleKind::Counter; 2]);
    assert_eq!(out.report.decided_by, vec![DecidedBy::RelaxedProof; 2]);
    assert_eq!(
        (
            out.report.relaxed_explorations,
            out.report.exact_explorations
        ),
        (2, 0)
    );
    assert!(!out.report.analysis_stats.budget_exhausted);
    assert!(out.analysis.complete);
}
