//! DFA execution via (lazy) subset construction — the classical
//! software baseline of the paper's introduction: DFAs process one byte
//! with a single table lookup but can be **exponentially larger** than the
//! NFA, and unfolded counting makes the blowup Θ(2ⁿ) for patterns like
//! `Σ*a Σ{n}` (Meyer & Fischer [34]). [`full_dfa_size`] demonstrates
//! exactly that blowup; [`DfaEngine`] builds states on demand so it stays
//! usable as a matching baseline.
//!
//! Determinization is shared with the hybrid overlay
//! ([`crate::HybridEngine`]): both intern sorted state subsets in the
//! dense-row [`SubsetCache`], indexed by byte *class* rather than raw
//! byte, so a transition row costs one `u32` per equivalence class
//! instead of 256. Both name a DFA state by its *handle*, the offset of
//! its row, so a cached transition is one add and one load.

use crate::engine::Engine;
use crate::hybrid::{SubsetCache, UNKNOWN};
use crate::nca::{Nca, StateId};
use recama_syntax::{ByteAlphabet, ByteClassSet};

/// Lazy-subset-construction DFA engine over a **counter-free** NCA.
///
/// States are discovered on demand and memoized; each input byte costs one
/// transition-table lookup once the state is cached (the "single memory
/// lookup" behavior of DFA matchers) — one add and one load, since the
/// engine holds the current state as the offset of its row.
///
/// # Examples
///
/// ```
/// use recama_nca::{unfold, DfaEngine, Engine, Nca, UnfoldPolicy};
/// let r = recama_syntax::parse(".*ab{2,3}c").unwrap().regex;
/// let nca = Nca::from_regex(&unfold(&r, UnfoldPolicy::All));
/// let mut dfa = DfaEngine::new(&nca);
/// assert!(dfa.matches(b"xxabbc"));
/// assert!(!dfa.matches(b"xxabc"));
/// ```
pub struct DfaEngine<'a> {
    nca: &'a Nca,
    /// Byte equivalence classes induced by the automaton's state
    /// predicates; row lookups are class-indexed.
    alphabet: ByteAlphabet,
    cache: SubsetCache,
    /// Per DFA state, by dense id: whether it holds a final state.
    accepting: Vec<bool>,
    /// Handles of the current and the start state.
    current: u32,
    start: u32,
}

impl<'a> DfaEngine<'a> {
    /// Builds the engine (start state only; the rest is lazy).
    ///
    /// # Panics
    ///
    /// Panics if `nca` has counters — unfold first ([`crate::unfold`]).
    pub fn new(nca: &'a Nca) -> DfaEngine<'a> {
        assert!(
            nca.counters().is_empty(),
            "DfaEngine requires a counter-free automaton; unfold the regex first"
        );
        let mut class_set = ByteClassSet::new();
        for s in nca.states().iter().skip(1) {
            class_set.add(&s.class);
        }
        let alphabet = class_set.freeze();
        let mut engine = DfaEngine {
            nca,
            cache: SubsetCache::new(alphabet.len()),
            alphabet,
            accepting: Vec::new(),
            current: 0,
            start: 0,
        };
        engine.start = engine.intern(&[0]);
        engine.current = engine.start;
        engine
    }

    fn intern(&mut self, subset: &[u32]) -> u32 {
        let (handle, is_new) = self.cache.intern(subset);
        if is_new {
            self.accepting.push(
                subset
                    .iter()
                    .any(|&q| self.nca.state(StateId(q)).is_final()),
            );
        }
        handle
    }

    /// The handle of the successor of the state with handle `state`.
    fn successor(&mut self, state: u32, byte: u8) -> u32 {
        let class = self.alphabet.class_of(byte);
        let cached = self.cache.get(state, class);
        if cached != UNKNOWN {
            return cached;
        }
        // Membership is decided per class: the alphabet refines every
        // state predicate, so the representative answers for all bytes
        // of the class.
        let rep = self.alphabet.representative(class);
        let src: Box<[u32]> = self.cache.subset(state).into();
        let mut next: Vec<u32> = Vec::new();
        for &q in src.iter() {
            for t in self.nca.transitions_from(StateId(q)) {
                if self.nca.state(t.to).class.contains(rep) {
                    next.push(t.to.0);
                }
            }
        }
        next.sort_unstable();
        next.dedup();
        let handle = self.intern(&next);
        self.cache.set(state, class, handle);
        handle
    }

    /// Number of DFA states materialized so far.
    pub fn discovered_states(&self) -> usize {
        self.cache.len()
    }
}

impl Engine for DfaEngine<'_> {
    fn reset(&mut self) {
        self.current = self.start;
    }

    fn step(&mut self, byte: u8) {
        self.current = self.successor(self.current, byte);
    }

    fn is_accepting(&self) -> bool {
        self.accepting[self.cache.index(self.current)]
    }
}

/// Exhaustive subset construction: the number of *reachable* DFA states, or
/// `None` once more than `cap` states exist — used to demonstrate the
/// memory blowup that motivates NCAs (`Σ*aΣ{n}` reaches 2ⁿ⁺¹ states).
pub fn full_dfa_size(nca: &Nca, cap: usize) -> Option<usize> {
    assert!(
        nca.counters().is_empty(),
        "determinization requires a counter-free automaton"
    );
    let mut engine = DfaEngine::new(nca);
    let classes: Vec<u8> = engine.alphabet.classes().map(|(_, rep)| rep).collect();
    let mut frontier = vec![engine.start];
    while let Some(state) = frontier.pop() {
        // One probe per equivalence class covers all of Σ.
        for &rep in &classes {
            let before = engine.discovered_states();
            let next = engine.successor(state, rep);
            if engine.discovered_states() > before {
                frontier.push(next);
                if engine.discovered_states() > cap {
                    return None;
                }
            }
        }
    }
    Some(engine.discovered_states())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::TokenSetEngine;
    use crate::unfold::{unfold, UnfoldPolicy};
    use recama_syntax::parse;

    fn unfolded(p: &str) -> Nca {
        Nca::from_regex(&unfold(&parse(p).unwrap().regex, UnfoldPolicy::All))
    }

    #[test]
    #[should_panic(expected = "counter-free")]
    fn rejects_counters() {
        let nca = Nca::from_regex(&parse("a{3}").unwrap().regex);
        let _ = DfaEngine::new(&nca);
    }

    #[test]
    fn agrees_with_reference_engine() {
        for p in [
            "a{2,4}b",
            ".*a{3}",
            "(ab){2,3}",
            "x(y|z){2}w",
            ".*[ab][^a]{2}",
        ] {
            let nca = unfolded(p);
            let mut dfa = DfaEngine::new(&nca);
            let mut reference = TokenSetEngine::new(&nca);
            let mut queue: Vec<Vec<u8>> = vec![vec![]];
            while let Some(w) = queue.pop() {
                assert_eq!(dfa.matches(&w), reference.matches(&w), "{p} on {w:?}");
                if w.len() < 6 {
                    for &c in b"abxyzw" {
                        let mut w2 = w.clone();
                        w2.push(c);
                        queue.push(w2);
                    }
                }
            }
        }
    }

    #[test]
    fn lazy_construction_discovers_few_states_on_narrow_inputs() {
        let nca = unfolded(".*a.{12}");
        let mut dfa = DfaEngine::new(&nca);
        dfa.matches(b"bbbbbbbbbbbbbbbbbbbb");
        // Only the all-b path was explored: far fewer than 2^12 states.
        assert!(dfa.discovered_states() < 64, "{}", dfa.discovered_states());
    }

    #[test]
    fn counting_blowup_is_exponential() {
        // Σ*aΣ{n}: the DFA must remember which of the last n+1 positions
        // held an 'a' → 2^n-ish reachable states.
        let size_4 = full_dfa_size(&unfolded(".*a.{4}"), 1 << 14).expect("fits");
        let size_8 = full_dfa_size(&unfolded(".*a.{8}"), 1 << 14).expect("fits");
        assert!(size_4 >= 1 << 4, "n=4: {size_4}");
        assert!(size_8 >= 1 << 8, "n=8: {size_8}");
        let growth = size_8 as f64 / size_4 as f64;
        assert!(
            growth > 8.0,
            "exponential growth expected, got {growth:.1}x"
        );
        // The NCA for the same pattern is constant-size.
        let nca = Nca::from_regex(&parse(".*a.{8}").unwrap().regex);
        assert!(nca.state_count() < 8);
    }

    #[test]
    fn unambiguous_counting_determinizes_linearly() {
        // ^a{n}b: the DFA just counts — size Θ(n), no blowup.
        let size_8 = full_dfa_size(&unfolded("^a{8}b"), 1 << 14).expect("fits");
        let size_16 = full_dfa_size(&unfolded("^a{16}b"), 1 << 14).expect("fits");
        assert!(size_16 < 2 * size_8 + 8, "{size_8} -> {size_16}");
    }

    #[test]
    fn cap_is_respected() {
        assert_eq!(full_dfa_size(&unfolded(".*a.{14}"), 100), None);
    }

    #[test]
    fn class_indexed_rows_agree_across_all_bytes() {
        // Bytes of one equivalence class share a successor row: stepping
        // any member equals stepping the class representative, for every
        // byte of Σ, including ones no pattern literal names.
        let nca = unfolded(".*a[bc]{2}");
        let mut dfa = DfaEngine::new(&nca);
        let mut reference = TokenSetEngine::new(&nca);
        for prefix in [&b""[..], b"a", b"ab", b"zza"] {
            for b in 0..=255u8 {
                let mut input = prefix.to_vec();
                input.push(b);
                assert_eq!(
                    dfa.matches(&input),
                    reference.matches(&input),
                    "byte {b:#04x} after {prefix:?}"
                );
            }
        }
        assert!(dfa.alphabet.len() < 256);
    }
}
