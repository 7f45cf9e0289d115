//! The counter-ambiguity checker (§3.3): exact, approximate, hybrid, and
//! hybrid-with-witness analysis variants over regexes — the four columns of
//! Fig. 2 of the paper.
//!
//! The hybrid strategy follows the paper exactly: check each counting
//! occurrence with the over-approximation; on the first inconclusive
//! occurrence, abandon the approximation and run the exact algorithm on the
//! whole regex; otherwise declare the regex counter-unambiguous. The
//! compiler's form of the same strategy, which wants a verdict per
//! occurrence rather than per regex, is [`crate::classify`](fn@crate::classify); both run
//! their relaxed passes through one routine.

use crate::approx::approx_occurrence;
use crate::exact::{analyze_nca, ExactConfig, NcaAnalysis, StopPolicy};
use crate::stats::{AnalysisStats, Verdict};
use recama_syntax::{normalize_for_nca, simplify, Regex, RepeatId};

/// Analysis variant (the E/A/H/HW columns of Fig. 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Method {
    /// Exact product exploration of the full automaton.
    Exact,
    /// Over-approximate analysis of every occurrence (never proves
    /// ambiguity — inconclusive results stay [`Verdict::Unknown`]).
    Approximate,
    /// Approximate first; exact fallback on the first inconclusive
    /// occurrence (the production configuration).
    Hybrid,
    /// Hybrid, additionally reconstructing a witness string on ambiguity.
    HybridWitness,
}

/// Checker configuration.
#[derive(Debug, Clone, Copy)]
pub struct CheckConfig {
    /// Token-pair budget per product exploration.
    pub max_pairs: u64,
}

impl Default for CheckConfig {
    fn default() -> Self {
        CheckConfig {
            max_pairs: 2_000_000,
        }
    }
}

/// Verdict for one counting occurrence of the (simplified) regex.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OccurrenceVerdict {
    /// Occurrence id in `simplify(regex).repeats()` numbering.
    pub id: RepeatId,
    /// Lower bound m.
    pub min: u32,
    /// Upper bound n (`None` for `{m,}`).
    pub max: Option<u32>,
    /// The verdict.
    pub verdict: Verdict,
}

/// Result of checking one regex.
#[derive(Debug, Clone)]
pub struct RegexCheck {
    /// Regex-level verdict: `Some(true)` = counter-ambiguous, `Some(false)`
    /// = counter-unambiguous, `None` = unknown (budget exhausted, or the
    /// approximate method was inconclusive).
    pub ambiguous: Option<bool>,
    /// Witness input exhibiting two tokens on one state (HybridWitness on
    /// ambiguous regexes).
    pub witness: Option<Vec<u8>>,
    /// Per-occurrence verdicts where the method produced them.
    pub occurrences: Vec<OccurrenceVerdict>,
    /// Aggregated exploration statistics.
    pub stats: AnalysisStats,
}

/// Result of checking a single occurrence (see [`check_occurrence`]).
#[derive(Debug, Clone)]
pub struct OccurrenceCheck {
    /// The verdict.
    pub verdict: Verdict,
    /// Witness for ambiguity, when available.
    pub witness: Option<Vec<u8>>,
    /// Exploration statistics.
    pub stats: AnalysisStats,
}

/// Checks a regex for counter-ambiguity with the chosen method.
///
/// Occurrence ids in the result refer to `simplify(regex)` (the checker
/// always simplifies first, mirroring the compiler front end).
///
/// # Examples
///
/// ```
/// use recama_analysis::{check, CheckConfig, Method};
/// let r = recama_syntax::parse(".*a{8}").unwrap().regex;
/// let res = check(&r, Method::Hybrid, &CheckConfig::default());
/// assert_eq!(res.ambiguous, Some(true));
///
/// let r = recama_syntax::parse(".*[^a]a{8}").unwrap().regex;
/// let res = check(&r, Method::Hybrid, &CheckConfig::default());
/// assert_eq!(res.ambiguous, Some(false));
/// ```
pub fn check(regex: &Regex, method: Method, config: &CheckConfig) -> RegexCheck {
    let simplified = simplify(regex);
    let occ_infos = simplified.repeats();
    if occ_infos.is_empty() {
        return RegexCheck {
            ambiguous: Some(false),
            witness: None,
            occurrences: Vec::new(),
            stats: AnalysisStats::default(),
        };
    }
    let mut stats = AnalysisStats::default();
    let mut occurrences: Vec<OccurrenceVerdict> = occ_infos
        .iter()
        .map(|i| OccurrenceVerdict {
            id: i.id,
            min: i.min,
            max: i.max,
            verdict: Verdict::Unknown,
        })
        .collect();

    match method {
        Method::Exact => {
            let analysis = exact_whole(&simplified, config, false, &mut stats);
            let ambiguous = analysis.nca_ambiguous();
            fill_from_exact(&simplified, &analysis, &mut occurrences);
            RegexCheck {
                ambiguous,
                witness: None,
                occurrences,
                stats,
            }
        }
        Method::Approximate | Method::Hybrid | Method::HybridWitness => {
            let mut all_proven = true;
            for occ in occurrences.iter_mut() {
                let (v, s) = approx_occurrence(&simplified, occ.id, config.max_pairs);
                stats += s;
                occ.verdict = v;
                if v != Verdict::Unambiguous {
                    all_proven = false;
                    if method != Method::Approximate {
                        break; // halt the approximate pass (paper §3.3)
                    }
                }
            }
            if all_proven || method == Method::Approximate {
                return RegexCheck {
                    ambiguous: all_proven.then_some(false),
                    witness: None,
                    occurrences,
                    stats,
                };
            }
            let want_witness = method == Method::HybridWitness;
            let analysis = exact_whole(&simplified, config, want_witness, &mut stats);
            let ambiguous = analysis.nca_ambiguous();
            let witness = analysis.witness.clone();
            fill_from_exact(&simplified, &analysis, &mut occurrences);
            RegexCheck {
                ambiguous,
                witness,
                occurrences,
                stats,
            }
        }
    }
}

fn exact_whole(
    simplified: &Regex,
    config: &CheckConfig,
    witness: bool,
    stats: &mut AnalysisStats,
) -> NcaAnalysis {
    let normalized = normalize_for_nca(simplified);
    let nca = crate::glushkov_build(&normalized);
    let analysis = analyze_nca(
        &nca,
        &ExactConfig {
            max_pairs: config.max_pairs,
            witness,
            stop: StopPolicy::FullClassification,
        },
    );
    *stats += analysis.stats;
    analysis
}

/// Upgrades occurrence verdicts from the exact whole-regex analysis when the
/// normalization is *occurrence-stable* (the normalized regex has the same
/// counting occurrences in the same preorder — true unless a nullable
/// repetition body forced an ε-stripping rewrite that duplicated
/// occurrences).
fn fill_from_exact(
    simplified: &Regex,
    analysis: &NcaAnalysis,
    occurrences: &mut [OccurrenceVerdict],
) {
    let normalized = normalize_for_nca(simplified);
    let norm_occs = normalized.repeats();
    if norm_occs.len() != occurrences.len() {
        // Unstable mapping: leave the approximate verdicts in place and
        // upgrade only via the regex-level answer below.
        if analysis.nca_ambiguous() == Some(false) {
            for occ in occurrences.iter_mut() {
                occ.verdict = Verdict::Unambiguous;
            }
        }
        return;
    }
    debug_assert_eq!(analysis.ambiguous_counters.len(), norm_occs.len());
    for (k, occ) in occurrences.iter_mut().enumerate() {
        if analysis.ambiguous_counters[k] {
            occ.verdict = Verdict::Ambiguous;
        } else if analysis.complete {
            occ.verdict = Verdict::Unambiguous;
        }
    }
}

/// Checks a single counting occurrence of `regex` (ids refer to
/// `simplify(regex).repeats()`).
///
/// The exact method isolates the occurrence by *unfolding* every other
/// occurrence — a language-preserving rewrite — so the verdict is exact even
/// when occurrence provenance through normalization is ambiguous.
///
/// # Panics
///
/// Panics if `occ` is out of range for the simplified regex.
pub fn check_occurrence(
    regex: &Regex,
    occ: RepeatId,
    method: Method,
    config: &CheckConfig,
) -> OccurrenceCheck {
    let simplified = simplify(regex);
    let n_occs = simplified.repeats().len();
    assert!(
        occ.0 < n_occs,
        "occurrence {occ} out of range (regex has {n_occs})"
    );
    let mut stats = AnalysisStats::default();

    if matches!(
        method,
        Method::Approximate | Method::Hybrid | Method::HybridWitness
    ) {
        let (v, s) = approx_occurrence(&simplified, occ, config.max_pairs);
        stats += s;
        if v == Verdict::Unambiguous || method == Method::Approximate {
            return OccurrenceCheck {
                verdict: v,
                witness: None,
                stats,
            };
        }
    }

    // Exact, isolated: unfold every other occurrence.
    let isolated = unfold_except(&simplified, occ);
    let normalized = normalize_for_nca(&isolated);
    let nca = crate::glushkov_build(&normalized);
    let analysis = analyze_nca(
        &nca,
        &ExactConfig {
            max_pairs: config.max_pairs,
            witness: method == Method::HybridWitness,
            stop: StopPolicy::FirstAmbiguity,
        },
    );
    stats += analysis.stats;
    let verdict = match analysis.nca_ambiguous() {
        Some(true) => Verdict::Ambiguous,
        Some(false) => Verdict::Unambiguous,
        None => Verdict::Unknown,
    };
    OccurrenceCheck {
        verdict,
        witness: analysis.witness,
        stats,
    }
}

/// Unfolds every counting occurrence except `keep` (language-preserving).
fn unfold_except(regex: &Regex, keep: RepeatId) -> Regex {
    regex.rewrite_repeats(&mut |id, body, min, max| {
        if id == keep {
            Regex::repeat(body, min, max)
        } else {
            recama_nca::unfold_one(body, min, max)
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use recama_syntax::parse;

    fn ast(p: &str) -> Regex {
        parse(p).unwrap().regex
    }

    fn cfg() -> CheckConfig {
        CheckConfig::default()
    }

    #[test]
    fn all_methods_agree_on_simple_cases() {
        let cases = [
            (".*a{4}", Some(true)),
            (".*[^a]a{4}", Some(false)),
            ("a{3}b{4}", Some(false)),
            (".*([^a]a{4}|[^b]b{4})", Some(false)),
            ("abc", Some(false)),
        ];
        for (p, expected) in cases {
            let r = ast(p);
            for m in [Method::Exact, Method::Hybrid, Method::HybridWitness] {
                let res = check(&r, m, &cfg());
                assert_eq!(res.ambiguous, expected, "{p} with {m:?}");
            }
            // Approximate can only prove unambiguity.
            let res = check(&r, Method::Approximate, &cfg());
            match expected {
                Some(false) => assert_eq!(res.ambiguous, Some(false), "{p} approx"),
                _ => assert_eq!(res.ambiguous, None, "{p} approx"),
            }
        }
    }

    #[test]
    fn hybrid_avoids_exact_on_easy_regexes() {
        // Example 3.4 family (overlapping classes, so the exact product is
        // quadratic): hybrid should finish with only the linear approximate
        // explorations.
        let r = ast(".*([^ac][ac]{100}|[^bc][bc]{100})");
        let hybrid = check(&r, Method::Hybrid, &cfg());
        let exact = check(&r, Method::Exact, &cfg());
        assert_eq!(hybrid.ambiguous, Some(false));
        assert_eq!(exact.ambiguous, Some(false));
        assert!(
            hybrid.stats.pairs_created * 5 < exact.stats.pairs_created,
            "hybrid {} pairs vs exact {} pairs",
            hybrid.stats.pairs_created,
            exact.stats.pairs_created
        );
    }

    #[test]
    fn per_occurrence_verdicts() {
        // σ1{m}Σ*σ2{n}: occurrence 0 unambiguous, occurrence 1 ambiguous.
        let r = ast("a{3}.*b{3}");
        let res = check(&r, Method::Exact, &cfg());
        assert_eq!(res.ambiguous, Some(true));
        assert_eq!(res.occurrences.len(), 2);
        assert_eq!(res.occurrences[0].verdict, Verdict::Unambiguous);
        assert_eq!(res.occurrences[1].verdict, Verdict::Ambiguous);
        // The dedicated per-occurrence checker agrees.
        let o0 = check_occurrence(&r, RepeatId(0), Method::Exact, &cfg());
        let o1 = check_occurrence(&r, RepeatId(1), Method::Exact, &cfg());
        assert_eq!(o0.verdict, Verdict::Unambiguous);
        assert_eq!(o1.verdict, Verdict::Ambiguous);
    }

    #[test]
    fn witness_replay_exhibits_ambiguity() {
        let r = ast(".*a{2,5}");
        let res = check(&r, Method::HybridWitness, &cfg());
        assert_eq!(res.ambiguous, Some(true));
        let w = res.witness.expect("witness for ambiguous regex");
        let nca = crate::glushkov_build(&normalize_for_nca(&simplify(&r)));
        let mut eng = recama_nca::TokenSetEngine::new(&nca);
        eng.matches(&w);
        assert!(
            eng.observed_degree() >= 2,
            "witness {w:?} failed to show two tokens"
        );
    }

    #[test]
    fn no_counting_is_trivially_unambiguous() {
        let res = check(&ast("ab*c+"), Method::Hybrid, &cfg());
        assert_eq!(res.ambiguous, Some(false));
        assert!(res.occurrences.is_empty());
        assert_eq!(res.stats.pairs_created, 0);
    }

    #[test]
    fn unfold_except_keeps_only_target() {
        let r = ast("a{2}b{3}c{2,4}");
        let iso = unfold_except(&r, RepeatId(1));
        assert_eq!(iso.repeats().len(), 1);
        assert_eq!(iso.to_string(), "aab{3}ccc?c?");
    }

    #[test]
    fn budget_yields_unknown() {
        let r = ast(".*[^a]a{200}");
        let res = check(&r, Method::Exact, &CheckConfig { max_pairs: 50 });
        assert_eq!(res.ambiguous, None);
        assert!(res.stats.budget_exhausted);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn occurrence_bounds_checked() {
        let _ = check_occurrence(&ast("a{2,3}"), RepeatId(7), Method::Exact, &cfg());
    }
}
