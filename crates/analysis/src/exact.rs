//! The exact counter-ambiguity analysis (§3.1 of the paper).
//!
//! A state q is counter-ambiguous iff the product `G² = G × G` of the token
//! transition system contains a reachable pair `⟨(q,β), (q,β′)⟩` with
//! `β ≠ β′`. We explore `G²` lazily by BFS over canonically ordered token
//! pairs; edges are kept symbolic — a product edge exists when the two
//! predicate classes intersect (`σ₁ ∩ σ₂ ≠ ∅`), which also yields a concrete
//! witness byte (`min(σ₁ ∩ σ₂)`). Symmetric pairs are identified, halving
//! the space, exactly as Example 3.2 notes.

use crate::stats::AnalysisStats;
use recama_nca::{Nca, Prepared, StateId, Token};
use std::collections::{HashMap, HashSet, VecDeque};
use std::time::Instant;

/// When the exploration may stop.
///
/// The compiler never picks one of these directly: it calls
/// [`crate::classify`](fn@crate::classify), which runs a relaxed single-occurrence automaton
/// under [`StopPolicy::FirstBlockAmbiguity`] per occurrence and, only for
/// what those passes leave open, the whole automaton under
/// [`StopPolicy::FullClassification`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopPolicy {
    /// Stop at the first ambiguity witness (whole-regex yes/no check; the
    /// paper's checker, [`crate::check`]).
    FirstAmbiguity,
    /// Stop at the first pair of tokens that disagree on a shared counter,
    /// on one state *or on two* — the block-level notion of
    /// [`NcaAnalysis::block_ambiguous_counters`] that counter-module
    /// selection needs. Every same-state disagreement is also a
    /// block-level one, so this never stops later than
    /// [`StopPolicy::FirstAmbiguity`].
    FirstBlockAmbiguity,
    /// Explore until every counted state and every counter is flagged at
    /// both levels (or the space is exhausted) — needed to hand per-state
    /// verdicts to the compiler.
    FullClassification,
}

/// Configuration of the product exploration.
#[derive(Debug, Clone, Copy)]
pub struct ExactConfig {
    /// Budget on created token pairs; exceeded ⇒ `complete = false`
    /// (the NP-hard worst case of Lemma 3.3 degrades gracefully).
    pub max_pairs: u64,
    /// Record parent pointers and reconstruct a witness string for the
    /// first ambiguity found (the "HW" analysis variant of Fig. 2).
    pub witness: bool,
    /// Stop policy.
    pub stop: StopPolicy,
}

impl Default for ExactConfig {
    fn default() -> Self {
        ExactConfig {
            max_pairs: 2_000_000,
            witness: false,
            stop: StopPolicy::FullClassification,
        }
    }
}

/// Result of the exact analysis of one NCA.
#[derive(Debug, Clone)]
pub struct NcaAnalysis {
    /// Per-state ambiguity flag (indexed by `StateId`); meaningful as a
    /// *proof of unambiguity* only when `complete` is true.
    pub ambiguous_states: Vec<bool>,
    /// Per-counter ambiguity flag: counter c is flagged when two tokens on
    /// one state disagree on c's value — the paper's Definition 3.1
    /// attribution, used for reporting (Table 1).
    pub ambiguous_counters: Vec<bool>,
    /// Per-counter *block-level* ambiguity: counter c is flagged when two
    /// tokens on any (possibly different) states carrying c disagree on its
    /// value. A single hardware counter register per module is faithful iff
    /// the counter is block-unambiguous; for single-state repetition bodies
    /// (`σ{m,n}`) this coincides with `ambiguous_counters`, but for
    /// multi-state bodies staggered entries can desynchronize token values
    /// without ever colliding on one state. The compiler selects counter
    /// modules with this stronger test.
    pub block_ambiguous_counters: Vec<bool>,
    /// Whether the exploration ran to completion (not budget-cut and not
    /// stopped at the first witness with counters left unclassified).
    pub complete: bool,
    /// A string witnessing the first ambiguity found, when requested.
    pub witness: Option<Vec<u8>>,
    /// Exploration counters.
    pub stats: AnalysisStats,
}

impl NcaAnalysis {
    /// Regex-level verdict: `Some(true)` if an ambiguity was found,
    /// `Some(false)` if the full space was explored without one, `None` if
    /// the budget cut the exploration short.
    pub fn nca_ambiguous(&self) -> Option<bool> {
        if self.ambiguous_counters.iter().any(|&b| b) {
            Some(true)
        } else if self.complete {
            Some(false)
        } else {
            None
        }
    }

    /// Whether state `q` is *proven* counter-unambiguous, i.e. safe for a
    /// single counter-register (`SingleValue`) in the compiled engine and
    /// for a counter module in hardware.
    pub fn state_unambiguous(&self, q: StateId) -> bool {
        self.complete && !self.ambiguous_states[q.index()]
    }
}

/// Runs the exact product-system analysis on `nca`.
///
/// # Examples
///
/// ```
/// use recama_analysis::{analyze_nca, ExactConfig};
/// use recama_nca::Nca;
///
/// // Σ*σ{2} (Example 3.2): counter-ambiguous.
/// let nca = Nca::from_regex(&recama_syntax::parse(".*a{2}").unwrap().regex);
/// let result = analyze_nca(&nca, &ExactConfig::default());
/// assert_eq!(result.nca_ambiguous(), Some(true));
///
/// // σ{2} anchored: counter-unambiguous.
/// let nca = Nca::from_regex(&recama_syntax::parse("a{2}").unwrap().regex);
/// let result = analyze_nca(&nca, &ExactConfig::default());
/// assert_eq!(result.nca_ambiguous(), Some(false));
/// ```
pub fn analyze_nca(nca: &Nca, config: &ExactConfig) -> NcaAnalysis {
    explore(nca, config, &vec![false; nca.counters().len()])
}

/// [`analyze_nca`] with some counters *settled*: `settled[c]` says counter
/// `c` is already proven block-unambiguous (by a relaxed pass), so no
/// reachable pair disagrees on it, and a state carrying only settled
/// counters can never be flagged. [`StopPolicy::FullClassification`] then
/// stops as soon as everything *else* is flagged instead of waiting for
/// flags that cannot come.
pub(crate) fn explore(nca: &Nca, config: &ExactConfig, settled: &[bool]) -> NcaAnalysis {
    let start_time = Instant::now();
    let prepared = Prepared::new(nca);

    let open_states = nca
        .states()
        .iter()
        .filter(|s| s.counters.iter().any(|c| !settled[c.index()]))
        .count();
    let open_counters = settled.iter().filter(|&&s| !s).count();
    // Flags FullClassification still waits for: one per open state, a
    // same-state and a block-level one per open counter.
    let mut unflagged = open_states + 2 * open_counters;
    let mut ambiguous_states = vec![false; nca.state_count()];
    let mut ambiguous_counters = vec![false; nca.counters().len()];
    let mut block_ambiguous_counters = vec![false; nca.counters().len()];

    let mut visited: HashSet<(Token, Token)> = HashSet::new();
    let mut parents: HashMap<(Token, Token), ((Token, Token), u8)> = HashMap::new();
    let mut queue: VecDeque<(Token, Token)> = VecDeque::new();
    let mut stats = AnalysisStats {
        explorations: 1,
        ..AnalysisStats::default()
    };

    let init = (Token::initial(), Token::initial());
    visited.insert(init.clone());
    stats.pairs_created += 1;
    queue.push_back(init);

    let mut complete = true;
    let mut witness: Option<Vec<u8>> = None;
    let mut first_witness_pair: Option<(Token, Token)> = None;

    // Nothing to classify? (No counters, e.g. after full unfolding, or
    // every counter settled.)
    let nothing_to_classify = unflagged == 0;

    'bfs: while let Some(pair) = queue.pop_front() {
        if nothing_to_classify {
            break;
        }
        // Symbolic successors of each component.
        let mut succ1: Vec<(recama_syntax::ByteClass, Token)> = Vec::new();
        prepared.for_each_symbolic_successor(&pair.0, |_, class, tok| succ1.push((*class, tok)));
        let diagonal = pair.0 == pair.1;
        let succ2: Vec<(recama_syntax::ByteClass, Token)> = if diagonal {
            succ1.clone()
        } else {
            let mut v = Vec::new();
            prepared.for_each_symbolic_successor(&pair.1, |_, class, tok| v.push((*class, tok)));
            v
        };

        for (c1, t1) in &succ1 {
            for (c2, t2) in &succ2 {
                stats.edges_traversed += 1;
                let inter = c1.intersect(c2);
                if inter.is_empty() {
                    continue;
                }
                let key = if t1 <= t2 {
                    (t1.clone(), t2.clone())
                } else {
                    (t2.clone(), t1.clone())
                };
                if !visited.insert(key.clone()) {
                    continue;
                }
                stats.pairs_created += 1;
                if config.witness {
                    let byte = inter.min_byte().expect("nonempty intersection");
                    parents.insert(key.clone(), (pair.clone(), byte));
                }
                // Ambiguity (Definition 3.1): same state, different valuation.
                let same_state_ambiguous =
                    key.0.state == key.1.state && key.0.values != key.1.values;
                let mut block_ambiguous = false;
                if same_state_ambiguous {
                    let q = key.0.state;
                    let state = nca.state(q);
                    let open = state.counters.iter().any(|c| !settled[c.index()]);
                    raise(&mut ambiguous_states[q.index()], open, &mut unflagged);
                    for (slot, (&a, &b)) in key.0.values.iter().zip(&key.1.values).enumerate() {
                        if a != b {
                            let c = state.counters[slot].index();
                            raise(&mut ambiguous_counters[c], !settled[c], &mut unflagged);
                        }
                    }
                    if first_witness_pair.is_none() {
                        first_witness_pair = Some(key.clone());
                    }
                }
                // Block-level ambiguity: two tokens share a counter (on any
                // pair of states) but disagree on its value.
                if key.0 != key.1 {
                    let s0 = nca.state(key.0.state);
                    let s1 = nca.state(key.1.state);
                    for (slot0, c) in s0.counters.iter().enumerate() {
                        if let Some(slot1) = s1.slot(*c) {
                            if key.0.values[slot0] != key.1.values[slot1] {
                                let c = c.index();
                                raise(
                                    &mut block_ambiguous_counters[c],
                                    !settled[c],
                                    &mut unflagged,
                                );
                                block_ambiguous = true;
                            }
                        }
                    }
                }
                let stop = match config.stop {
                    StopPolicy::FirstAmbiguity => same_state_ambiguous,
                    StopPolicy::FirstBlockAmbiguity => block_ambiguous,
                    // A stop here leaves nothing unclassified: `complete`.
                    StopPolicy::FullClassification => {
                        if unflagged == 0 {
                            break 'bfs;
                        }
                        false
                    }
                };
                if stop {
                    // The regex-level question is answered, but per-state
                    // verdicts are not exhaustive — record that.
                    complete = false;
                    break 'bfs;
                }
                if stats.pairs_created >= config.max_pairs {
                    complete = false;
                    stats.budget_exhausted = true;
                    break 'bfs;
                }
                queue.push_back(key);
            }
        }
    }

    if config.witness {
        if let Some(found) = &first_witness_pair {
            witness = Some(reconstruct_witness(&parents, found));
        }
    }

    stats.duration = start_time.elapsed();
    NcaAnalysis {
        ambiguous_states,
        ambiguous_counters,
        block_ambiguous_counters,
        complete,
        witness,
        stats,
    }
}

/// Sets a flag of the exploration; an open (unsettled) one that was still
/// unset is one less for [`StopPolicy::FullClassification`] to wait for.
fn raise(flag: &mut bool, open: bool, unflagged: &mut usize) {
    debug_assert!(open, "a settled counter or state was flagged");
    if open && !*flag {
        *unflagged -= 1;
    }
    *flag = true;
}

/// Predecessor links of the pair exploration: child pair -> (parent pair,
/// input byte), enough to replay the path from the initial pair.
type ParentLinks = HashMap<(Token, Token), ((Token, Token), u8)>;

fn reconstruct_witness(parents: &ParentLinks, found: &(Token, Token)) -> Vec<u8> {
    let mut bytes = Vec::new();
    let mut cur = found.clone();
    while let Some((parent, byte)) = parents.get(&cur) {
        bytes.push(*byte);
        cur = parent.clone();
    }
    bytes.reverse();
    bytes
}

#[cfg(test)]
mod tests {
    use super::*;
    use recama_nca::{Engine, TokenSetEngine};
    use recama_syntax::parse;

    fn nca(p: &str) -> Nca {
        Nca::from_regex(&parse(p).unwrap().regex)
    }

    fn verdict(p: &str) -> Option<bool> {
        analyze_nca(&nca(p), &ExactConfig::default()).nca_ambiguous()
    }

    #[test]
    fn paper_example_3_2() {
        // Σ*σ{2} is counter-ambiguous.
        assert_eq!(verdict(".*a{2}"), Some(true));
    }

    #[test]
    fn anchored_counting_is_unambiguous() {
        assert_eq!(verdict("a{5}"), Some(false));
        assert_eq!(verdict("a{2,7}b"), Some(false));
        assert_eq!(verdict("(ab){3,4}"), Some(false));
    }

    #[test]
    fn example_2_2_r1_is_ambiguous() {
        // Σ*σ1σ2{n} with σ2 ⊇ σ1-overlap: .*[ab][^a]{3} — after the first
        // [ab] match, new attempts can start while counting: ambiguous.
        assert_eq!(verdict(".*[ab][^a]{3}"), Some(true));
    }

    #[test]
    fn guarded_prefix_makes_unambiguous() {
        // Σ*σ̄σ{n}: a new attempt can only start after a non-σ byte, which
        // kills all counting tokens — the Example 3.4 shape (one branch).
        assert_eq!(verdict(".*[^a]a{4}"), Some(false));
    }

    #[test]
    fn example_3_4_two_branches_unambiguous() {
        assert_eq!(verdict(".*([^a]a{3}|[^b]b{3})"), Some(false));
    }

    #[test]
    fn r3_mixed_verdicts_per_counter() {
        // σ1{m}Σ*σ2{n}: first occurrence unambiguous, second ambiguous.
        let a = nca("a{3}.*b{2}");
        let res = analyze_nca(&a, &ExactConfig::default());
        assert_eq!(res.nca_ambiguous(), Some(true));
        assert_eq!(res.ambiguous_counters, vec![false, true]);
    }

    #[test]
    fn per_state_verdicts_match_dynamic_degree() {
        // For several regexes, a state the analysis proves unambiguous must
        // never dynamically hold 2 tokens (checked on exhaustive inputs).
        for p in [".*a{2}", "a{3}.*b{2}", ".*[^a]a{3}", "(a|b){2,3}b"] {
            let a = nca(p);
            let res = analyze_nca(&a, &ExactConfig::default());
            if !res.complete {
                continue;
            }
            let mut eng = TokenSetEngine::new(&a);
            let mut queue: Vec<Vec<u8>> = vec![vec![]];
            while let Some(w) = queue.pop() {
                eng.reset();
                eng.matches(&w);
                if w.len() < 6 {
                    for &c in b"ab" {
                        let mut w2 = w.clone();
                        w2.push(c);
                        queue.push(w2);
                    }
                }
            }
            // Dynamic degree ≥ 2 must imply some state flagged ambiguous.
            let any_flagged = res.ambiguous_states.iter().any(|&b| b);
            let mut e2 = TokenSetEngine::new(&a);
            let mut max_deg = 0;
            let mut queue: Vec<Vec<u8>> = vec![vec![]];
            while let Some(w) = queue.pop() {
                e2.matches(&w);
                max_deg = max_deg.max(e2.observed_degree());
                if w.len() < 6 {
                    for &c in b"ab" {
                        let mut w2 = w.clone();
                        w2.push(c);
                        queue.push(w2);
                    }
                }
            }
            if max_deg >= 2 {
                assert!(
                    any_flagged,
                    "{p}: dynamic degree {max_deg} but no state flagged"
                );
            } else {
                assert!(
                    !any_flagged,
                    "{p}: flagged ambiguous but degree stayed {max_deg}"
                );
            }
        }
    }

    #[test]
    fn witness_is_valid() {
        let a = nca(".*a{3}");
        let res = analyze_nca(
            &a,
            &ExactConfig {
                witness: true,
                stop: StopPolicy::FirstAmbiguity,
                ..Default::default()
            },
        );
        let w = res.witness.expect("ambiguous regex must yield witness");
        // Replaying the witness must put ≥ 2 tokens on some state.
        let mut eng = TokenSetEngine::new(&a);
        eng.matches(&w);
        assert!(
            eng.observed_degree() >= 2,
            "witness {w:?} does not exhibit ambiguity"
        );
    }

    #[test]
    fn budget_degrades_gracefully() {
        let a = nca(".*[^a]a{100}");
        let res = analyze_nca(
            &a,
            &ExactConfig {
                max_pairs: 10,
                ..Default::default()
            },
        );
        assert!(!res.complete);
        assert!(res.stats.budget_exhausted);
        assert_eq!(res.nca_ambiguous(), None);
        // Unambiguity must never be claimed for any state when incomplete.
        for i in 0..a.state_count() {
            if !a.state(StateId(i as u32)).is_pure() {
                assert!(!res.state_unambiguous(StateId(i as u32)));
            }
        }
    }

    #[test]
    fn counter_free_automaton_is_trivially_unambiguous() {
        let a = nca("ab*c");
        let res = analyze_nca(&a, &ExactConfig::default());
        assert_eq!(res.nca_ambiguous(), Some(false));
        assert_eq!(res.stats.pairs_created, 1); // just the initial pair
    }

    #[test]
    fn ambiguity_halts_exploration_early() {
        // The exact analysis halts at the first witness (§3.1), so an
        // obviously ambiguous regex explores few pairs regardless of n.
        let small = analyze_nca(&nca(".*a{8}"), &ExactConfig::default());
        let large = analyze_nca(&nca(".*a{64}"), &ExactConfig::default());
        assert_eq!(small.nca_ambiguous(), Some(true));
        assert_eq!(large.nca_ambiguous(), Some(true));
        assert!(large.stats.pairs_created <= small.stats.pairs_created * 4);
    }

    #[test]
    fn pair_counts_scale_quadratically_on_two_overlapping_branches() {
        // Σ*(σ̄1σ1{n} + σ̄2σ2{n}) with σ1 ∩ σ2 ≠ ∅ (Example 3.4): proving
        // unambiguity explores Θ(n²) cross-branch token pairs, because a
        // token counting [ac]-runs and a token counting [bc]-runs coexist
        // with independently drifting values on shared 'c' input.
        let shape = |n: u32| format!(".*([^ac][ac]{{{n}}}|[^bc][bc]{{{n}}})");
        let small = analyze_nca(&nca(&shape(8)), &ExactConfig::default());
        let large = analyze_nca(&nca(&shape(32)), &ExactConfig::default());
        assert_eq!(small.nca_ambiguous(), Some(false));
        assert_eq!(large.nca_ambiguous(), Some(false));
        let ratio = large.stats.pairs_created as f64 / small.stats.pairs_created as f64;
        assert!(
            (8.0..=40.0).contains(&ratio),
            "expected ~16x pair growth, got {ratio:.1} ({} -> {})",
            small.stats.pairs_created,
            large.stats.pairs_created
        );
    }
}

#[cfg(test)]
mod block_tests {
    use super::*;
    use recama_syntax::parse;

    fn analyze(p: &str) -> NcaAnalysis {
        let nca = Nca::from_regex(&parse(p).unwrap().regex);
        analyze_nca(&nca, &ExactConfig::default())
    }

    #[test]
    fn single_class_bodies_agree_on_both_notions() {
        for p in [".*a{4}", ".*[^a]a{4}", "a{3}.*b{2}"] {
            let res = analyze(p);
            assert_eq!(
                res.ambiguous_counters, res.block_ambiguous_counters,
                "σ-body notions must coincide for {p}"
            );
        }
    }

    #[test]
    fn staggered_multi_state_body_is_block_ambiguous_only() {
        // .*[ab]([ab][ab]){2,5}x — entries can start on consecutive cycles,
        // so two tokens sit on the two body states (phases 0 and 1) with
        // different counts, yet each *state* holds distinct-phase tokens.
        let res = analyze(".*x([ab][ab]){2,5}y");
        // Same-state: unambiguous (entry gated by the disjoint 'x').
        assert!(!res.ambiguous_counters[0]);
        assert!(!res.block_ambiguous_counters[0]);
        // Overlapping gate: both notions may fire; key property: block
        // implies-or-equals same-state strictly.
        let res2 = analyze(".*[ab]([ab][ab]){2,5}y");
        assert!(
            res2.block_ambiguous_counters[0],
            "staggered entries must be flagged at block level"
        );
    }

    #[test]
    fn block_implies_nothing_weaker_is_missed() {
        // Same-state ambiguity always implies block ambiguity.
        for p in [".*a{4}", ".*a[ab]{3}b", ".*(ab){2,4}"] {
            let res = analyze(p);
            for (k, &amb) in res.ambiguous_counters.iter().enumerate() {
                if amb {
                    assert!(
                        res.block_ambiguous_counters[k],
                        "{p}: counter {k} same-state ambiguous but not block ambiguous"
                    );
                }
            }
        }
    }

    #[test]
    fn full_classification_stops_once_both_levels_are_flagged() {
        // A two-state body: flags fall on cross-state (block-level) and
        // same-state pairs alike, and the exploration ends with the pair
        // that raises the last of them — 20 pairs, whatever the bound. (A
        // same-state disagreement raises the counter's block-level flag
        // too, so the last flag to fall is never a block-level one alone.)
        for p in [".*[ab]([ab][ab]){2,5}y", ".*[ab]([ab][ab]){2,50}y"] {
            let res = analyze(p);
            assert!(res.complete);
            assert_eq!(res.ambiguous_counters, vec![true]);
            assert_eq!(res.block_ambiguous_counters, vec![true]);
            assert_eq!(res.stats.pairs_created, 20, "{p}");
        }
    }

    #[test]
    fn first_block_ambiguity_stops_no_later_than_first_ambiguity() {
        let run = |p: &str, stop| {
            let nca = Nca::from_regex(&parse(p).unwrap().regex);
            analyze_nca(
                &nca,
                &ExactConfig {
                    stop,
                    ..ExactConfig::default()
                },
            )
        };
        for p in [".*[ab]([ab][ab]){2,5}y", ".*a{4}", ".*a[ab]{3}b"] {
            let block = run(p, StopPolicy::FirstBlockAmbiguity);
            let state = run(p, StopPolicy::FirstAmbiguity);
            assert!(!block.complete && !state.complete, "{p}");
            assert!(block.block_ambiguous_counters[0], "{p}");
            assert!(
                block.stats.pairs_created <= state.stats.pairs_created,
                "{p}"
            );
        }
        // Nothing to find: both run to exhaustion over the same space.
        let p = ".*x([ab][ab]){2,5}y";
        let block = run(p, StopPolicy::FirstBlockAmbiguity);
        assert!(block.complete && !block.block_ambiguous_counters[0]);
        assert_eq!(
            block.stats.pairs_created,
            run(p, StopPolicy::FullClassification).stats.pairs_created
        );
    }

    #[test]
    fn settled_counters_let_full_classification_stop_early() {
        // The guarded c-run is unambiguous, so the plain run waits for a
        // flag that never comes and exhausts the space; told that counter
        // is settled, it stops at b{20}'s first collision.
        let nca = Nca::from_regex(&parse(".*(b{20}|[^c]c{300})").unwrap().regex);
        let config = ExactConfig::default();
        let plain = analyze_nca(&nca, &config);
        let settled = explore(&nca, &config, &[false, true]);
        assert!(plain.complete && settled.complete);
        assert_eq!(plain.ambiguous_states, settled.ambiguous_states);
        assert_eq!(plain.ambiguous_counters, settled.ambiguous_counters);
        assert_eq!(
            plain.block_ambiguous_counters,
            settled.block_ambiguous_counters
        );
        assert!(settled.stats.pairs_created * 10 < plain.stats.pairs_created);
    }
}
