//! The over-approximate analysis (§3.2 of the paper).
//!
//! To analyze one occurrence of counting, every *other* occurrence `r{m,n}`
//! is relaxed to `r*`. The relaxation only adds paths to the token
//! transition system, so if the relaxed automaton is counter-unambiguous,
//! the original is too; if the relaxed automaton is ambiguous the result is
//! *inconclusive*. The payoff (Example 3.4): the relaxed automaton carries a
//! single counter, so the product exploration shrinks from Θ(n²) token
//! pairs to Θ(n).

use crate::exact::{analyze_nca, ExactConfig, StopPolicy};
use crate::stats::{AnalysisStats, Verdict};
use recama_nca::Nca;
use recama_syntax::{normalize_for_nca, Regex, RepeatId, RepeatRewrite};
use std::time::Instant;

/// Relaxes every counting occurrence except `keep` to `body*`.
pub(crate) fn relax_except(regex: &Regex, keep: RepeatId) -> Regex {
    regex.rewrite_repeats(&mut |id| {
        if id == keep {
            RepeatRewrite::Keep
        } else {
            RepeatRewrite::Star
        }
    })
}

/// Runs the over-approximate analysis for occurrence `occ` of `regex`
/// (occurrence ids refer to [`Regex::repeats`] of the given regex).
///
/// Returns [`Verdict::Unambiguous`] (a proof) or [`Verdict::Unknown`]
/// (inconclusive — the relaxed automaton was ambiguous, does not carry
/// exactly one counter, or the pair budget ran out), plus exploration
/// statistics.
pub fn approx_occurrence(regex: &Regex, occ: RepeatId, max_pairs: u64) -> (Verdict, AnalysisStats) {
    relaxed_pass(regex, occ, max_pairs, StopPolicy::FirstAmbiguity)
}

/// The one per-occurrence routine behind every relaxed analysis: builds
/// the automaton of `regex` with all occurrences but `occ` relaxed and
/// explores it until the first disagreement `stop` halts on —
/// [`StopPolicy::FirstAmbiguity`] for the paper's checker
/// ([`approx_occurrence`], [`crate::check`]),
/// [`StopPolicy::FirstBlockAmbiguity`] for the compiler
/// ([`crate::classify`](fn@crate::classify)). Running to exhaustion is the proof.
///
/// The proof projects every reachable token pair of the original onto
/// `occ`'s counter, which needs the relaxed automaton to carry that
/// counter exactly once. When re-normalizing duplicated it (a relaxed
/// neighbour made an enclosing body nullable) the pass is inconclusive
/// without an exploration. The statistics' duration covers building the
/// relaxed automaton too.
pub(crate) fn relaxed_pass(
    regex: &Regex,
    occ: RepeatId,
    max_pairs: u64,
    stop: StopPolicy,
) -> (Verdict, AnalysisStats) {
    debug_assert_ne!(stop, StopPolicy::FullClassification);
    let start_time = Instant::now();
    let nca = approx_occurrence_nca(regex, occ);
    if nca.counters().len() != 1 {
        let stats = AnalysisStats {
            duration: start_time.elapsed(),
            ..AnalysisStats::default()
        };
        return (Verdict::Unknown, stats);
    }
    let result = analyze_nca(
        &nca,
        &ExactConfig {
            max_pairs,
            witness: false,
            stop,
        },
    );
    // Either first-disagreement policy ends an exploration that met what
    // it looks for — like one the budget cut — with `complete = false`.
    // Ambiguity of the over-approximation proves nothing about the
    // original, and a blown budget proves nothing either.
    let verdict = if result.complete {
        Verdict::Unambiguous
    } else {
        Verdict::Unknown
    };
    let stats = AnalysisStats {
        duration: start_time.elapsed(),
        ..result.stats
    };
    (verdict, stats)
}

/// The relaxed automaton [`approx_occurrence`] explores.
pub(crate) fn approx_occurrence_nca(regex: &Regex, occ: RepeatId) -> Nca {
    crate::glushkov_build(&normalize_for_nca(&relax_except(regex, occ)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use recama_syntax::parse;

    fn ast(p: &str) -> Regex {
        parse(p).unwrap().regex
    }

    #[test]
    fn relax_except_keeps_one_occurrence() {
        let r = ast("a{2,3}b{4,5}");
        assert_eq!(relax_except(&r, RepeatId(0)).to_string(), "a{2,3}b*");
        assert_eq!(relax_except(&r, RepeatId(1)).to_string(), "a*b{4,5}");
    }

    const BUDGET: u64 = 1_000_000;

    #[test]
    fn example_3_4_both_occurrences_proven() {
        // Σ*(σ̄1σ1{n} + σ̄2σ2{n}) with overlapping σ1, σ2 — the exact
        // analysis needs Θ(n²) pairs, the approximation Θ(n) per
        // occurrence, and both occurrences are unambiguous.
        let r = ast(".*([^ac][ac]{6}|[^bc][bc]{6})");
        let (v0, s0) = approx_occurrence(&r, RepeatId(0), BUDGET);
        let (v1, s1) = approx_occurrence(&r, RepeatId(1), BUDGET);
        assert_eq!(v0, Verdict::Unambiguous);
        assert_eq!(v1, Verdict::Unambiguous);
        // Each relaxed exploration is linear-ish in n, far below n².
        assert!(s0.pairs_created < 200, "pairs {}", s0.pairs_created);
        assert!(s1.pairs_created < 200, "pairs {}", s1.pairs_created);
    }

    #[test]
    fn ambiguous_occurrence_is_inconclusive() {
        let r = ast(".*a{4}");
        let (v, _) = approx_occurrence(&r, RepeatId(0), BUDGET);
        assert_eq!(v, Verdict::Unknown);
    }

    #[test]
    fn soundness_on_small_zoo() {
        // Whenever approx says Unambiguous, exact must agree.
        for p in [
            ".*[^a]a{4}",
            "a{3}b{4}",
            ".*a{3}",
            ".*(ab){2,4}",
            "a{2,3}.*b{2,3}",
            ".*([^a]a{3}|[^b]b{3})",
            "(a{2,4}|b{3})c",
        ] {
            let r = ast(p);
            for info in r.repeats() {
                let (approx_v, _) = approx_occurrence(&r, info.id, BUDGET);
                if approx_v == Verdict::Unambiguous {
                    let exact = crate::check_occurrence(
                        &r,
                        info.id,
                        crate::Method::Exact,
                        &crate::CheckConfig::default(),
                    );
                    assert_eq!(
                        exact.verdict,
                        Verdict::Unambiguous,
                        "approx claimed unambiguous but exact disagrees: {p} occurrence {:?}",
                        info.id
                    );
                }
            }
        }
    }

    #[test]
    fn relaxation_is_linear_not_quadratic() {
        // Exact pairs grow ~n²; approx pairs grow ~n on the Example 3.4
        // family.
        let small = ast(".*([^ac][ac]{8}|[^bc][bc]{8})");
        let large = ast(".*([^ac][ac]{32}|[^bc][bc]{32})");
        let (_, s_small) = approx_occurrence(&small, RepeatId(0), BUDGET);
        let (_, s_large) = approx_occurrence(&large, RepeatId(0), BUDGET);
        let ratio = s_large.pairs_created as f64 / s_small.pairs_created as f64;
        assert!(
            ratio < 8.0,
            "approx should scale ~linearly: {} -> {} ({ratio:.1}x)",
            s_small.pairs_created,
            s_large.pairs_created
        );
    }
}
