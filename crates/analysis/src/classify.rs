//! The hybrid analysis in the form the compiler consumes (§3.2–3.3).
//!
//! The paper's checker ([`crate::check`]) answers one question per regex;
//! the compiler needs a verdict per counter and per state of the automaton
//! it is about to emit, at the *block* level that counter-module selection
//! relies on. [`classify`] produces that [`NcaAnalysis`] the cheap way
//! round: a relaxed pass per occurrence first (Θ(n) pairs each on the
//! Example 3.4 family), and the exact product (Θ(n²)) only over what
//! those passes leave open.

use crate::approx::relaxed_pass;
use crate::exact::{explore, ExactConfig, NcaAnalysis, StopPolicy};
use crate::stats::AnalysisStats;
use recama_nca::Nca;
use recama_syntax::{Regex, RepeatId};

/// How [`classify`] arrived at the verdict the compiler used for one
/// counting occurrence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DecidedBy {
    /// Its relaxed automaton has no block-level disagreement: proven
    /// unambiguous without the exact product.
    RelaxedProof,
    /// The relaxed pass was inconclusive (or skipped: a sole occurrence
    /// is its own relaxation); the exact exploration decided.
    Exact,
    /// The exact exploration the rule needed ran out of budget, so every
    /// occurrence of the rule is treated as ambiguous.
    BudgetCut,
}

/// Result of [`classify`].
#[derive(Debug, Clone)]
pub struct Classification {
    /// The verdicts, equal to what [`crate::analyze_nca`] reports under
    /// [`StopPolicy::FullClassification`] whenever that run is complete;
    /// `stats` accumulates every exploration made here.
    pub analysis: NcaAnalysis,
    /// Per counter, what decided it.
    pub decided_by: Vec<DecidedBy>,
    /// Relaxed single-occurrence explorations run.
    pub relaxed_explorations: u64,
    /// Exact whole-automaton explorations run (0 or 1).
    pub exact_explorations: u64,
}

/// Classifies every state and counter of `nca`, the automaton of the
/// already-normalized `normalized` (so occurrence `k` is counter `k`),
/// with at most `max_pairs` token pairs per exploration.
///
/// Per occurrence, every other one is relaxed to `r*` and the resulting
/// single-counter automaton explored until the first block-level
/// disagreement. Relaxation only adds product paths, and the projection
/// of a reachable token pair onto one counter is reachable in that
/// counter's relaxed automaton, so a pass that finds nothing proves the
/// counter block-unambiguous, and a state is unambiguous when every
/// counter it carries is proven. Unlike [`crate::check`] the passes go on
/// after an inconclusive one: the compiler wants a verdict per
/// occurrence, and each further proof shrinks what the exact run has to
/// flag before it may stop. If every occurrence is proven the product is
/// never built; a counter-free automaton needs no exploration at all,
/// and a sole occurrence goes straight to the exact run.
///
/// A budget-cut relaxed pass is inconclusive; a budget-cut exact run
/// yields `complete = false`, which proves nothing about any counter.
///
/// # Examples
///
/// ```
/// use recama_analysis::{classify, glushkov_build, DecidedBy};
/// use recama_syntax::{normalize_for_nca, parse};
///
/// // Example 3.4: two overlapping guarded runs, both unambiguous.
/// let regex = parse(".*([^ac][ac]{100}|[^bc][bc]{100})").unwrap().regex;
/// let normalized = normalize_for_nca(&regex);
/// let nca = glushkov_build(&normalized);
/// let result = classify(&normalized, &nca, 2_000_000);
/// assert_eq!(result.analysis.nca_ambiguous(), Some(false));
/// assert_eq!(result.decided_by, vec![DecidedBy::RelaxedProof; 2]);
/// assert_eq!(result.exact_explorations, 0);
/// ```
pub fn classify(normalized: &Regex, nca: &Nca, max_pairs: u64) -> Classification {
    let counters = nca.counters().len();
    debug_assert_eq!(normalized.repeats().len(), counters);
    let mut stats = AnalysisStats::default();
    let mut proven = vec![false; counters];
    if counters >= 2 {
        for (k, proven) in proven.iter_mut().enumerate() {
            let (verdict, pass) = relaxed_pass(
                normalized,
                RepeatId(k),
                max_pairs,
                StopPolicy::FirstBlockAmbiguity,
            );
            stats += pass;
            *proven = verdict.is_unambiguous();
        }
    }
    let relaxed_explorations = stats.explorations;

    let mut analysis = if proven.iter().all(|&p| p) {
        NcaAnalysis {
            ambiguous_states: vec![false; nca.state_count()],
            ambiguous_counters: vec![false; counters],
            block_ambiguous_counters: vec![false; counters],
            complete: true,
            witness: None,
            stats: AnalysisStats::default(),
        }
    } else {
        let config = ExactConfig {
            max_pairs,
            witness: false,
            stop: StopPolicy::FullClassification,
        };
        explore(nca, &config, &proven)
    };
    let exact_explorations = analysis.stats.explorations;
    stats += analysis.stats;
    analysis.stats = stats;

    let decided_by = proven
        .iter()
        .map(|&proven| match (analysis.complete, proven) {
            (false, _) => DecidedBy::BudgetCut,
            (true, true) => DecidedBy::RelaxedProof,
            (true, false) => DecidedBy::Exact,
        })
        .collect();
    Classification {
        analysis,
        decided_by,
        relaxed_explorations,
        exact_explorations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::analyze_nca;
    use recama_syntax::{normalize_for_nca, parse};

    fn run(p: &str, max_pairs: u64) -> (Classification, NcaAnalysis) {
        let normalized = normalize_for_nca(&parse(p).unwrap().regex);
        let nca = crate::glushkov_build(&normalized);
        let exact = analyze_nca(
            &nca,
            &ExactConfig {
                max_pairs,
                ..ExactConfig::default()
            },
        );
        (classify(&normalized, &nca, max_pairs), exact)
    }

    fn assert_same_verdicts(hybrid: &NcaAnalysis, exact: &NcaAnalysis, p: &str) {
        assert!(exact.complete, "{p}");
        assert!(hybrid.complete, "{p}");
        assert_eq!(hybrid.ambiguous_states, exact.ambiguous_states, "{p}");
        assert_eq!(hybrid.ambiguous_counters, exact.ambiguous_counters, "{p}");
        assert_eq!(
            hybrid.block_ambiguous_counters, exact.block_ambiguous_counters,
            "{p}"
        );
    }

    #[test]
    fn counter_free_automaton_is_not_explored() {
        let (hybrid, exact) = run("ab*c+", 1_000);
        assert_same_verdicts(&hybrid.analysis, &exact, "ab*c+");
        assert_eq!(hybrid.analysis.stats, AnalysisStats::default());
        assert!(hybrid.decided_by.is_empty());
    }

    #[test]
    fn sole_occurrence_goes_straight_to_the_exact_run() {
        for p in [".*[^a]a{40}", ".*a{40}"] {
            let (hybrid, exact) = run(p, 1_000_000);
            assert_same_verdicts(&hybrid.analysis, &exact, p);
            assert_eq!(hybrid.decided_by, vec![DecidedBy::Exact]);
            assert_eq!(hybrid.analysis.stats.explorations, 1);
            assert_eq!(
                hybrid.analysis.stats.pairs_created,
                exact.stats.pairs_created
            );
        }
    }

    #[test]
    fn proofs_shrink_the_exact_run_that_is_still_needed() {
        // An ambiguous occurrence next to the quadratic Example 3.4 pair:
        // the two proofs settle what the plain run would explore in full.
        let p = ".*(b{20}|[^ac][ac]{300}|[^bc][bc]{300})";
        let (hybrid, exact) = run(p, 1_000_000);
        assert_same_verdicts(&hybrid.analysis, &exact, p);
        assert_eq!(
            hybrid.decided_by,
            vec![
                DecidedBy::Exact,
                DecidedBy::RelaxedProof,
                DecidedBy::RelaxedProof
            ]
        );
        assert_eq!(
            (hybrid.relaxed_explorations, hybrid.exact_explorations),
            (3, 1)
        );
        assert!(
            hybrid.analysis.stats.pairs_created * 20 < exact.stats.pairs_created,
            "hybrid {} pairs vs exact {}",
            hybrid.analysis.stats.pairs_created,
            exact.stats.pairs_created
        );
    }

    #[test]
    fn block_level_disagreement_is_not_proven_away() {
        // Same-state and block level differ only on multi-state bodies;
        // the relaxed pass must stop on either, or the compiler would put
        // one register under tokens that disagree.
        let p = "^x[ab]{9}y.*[ab]([ab][ab]){2,5}y";
        let (hybrid, exact) = run(p, 1_000_000);
        assert_same_verdicts(&hybrid.analysis, &exact, p);
        assert_eq!(
            hybrid.decided_by,
            vec![DecidedBy::RelaxedProof, DecidedBy::Exact]
        );
        assert_eq!(hybrid.analysis.block_ambiguous_counters, vec![false, true]);
    }

    #[test]
    fn budget_cut_exact_run_proves_nothing() {
        let p = "^x[ab]{3}y.*([^ac][ac]{300}|[^bc][bc]{300})";
        let (hybrid, _) = run(p, 48);
        assert!(!hybrid.analysis.complete);
        assert!(hybrid.analysis.stats.budget_exhausted);
        assert_eq!(hybrid.decided_by, vec![DecidedBy::BudgetCut; 3]);
        assert!(hybrid.analysis.stats.pairs_created <= 4 * 48);
    }
}
