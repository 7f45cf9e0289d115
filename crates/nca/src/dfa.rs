//! Exhaustive subset construction — the classical software baseline of
//! the paper's introduction: DFAs process one byte with a single table
//! lookup but can be **exponentially larger** than the NFA, and unfolded
//! counting makes the blowup Θ(2ⁿ) for patterns like `Σ*a Σ{n}` (Meyer &
//! Fischer [34]). [`full_dfa_size`] counts exactly that blowup.
//!
//! Determinization is shared with the hybrid overlay
//! ([`crate::HybridEngine`]): both intern sorted state subsets in the
//! dense-row [`SubsetCache`], indexed by byte *class* rather than raw
//! byte, so a transition row costs one `u32` per equivalence class
//! instead of 256. Both name a DFA state by its *handle*, the offset of
//! its row.

use crate::hybrid::{SubsetCache, UNKNOWN};
use crate::nca::{Nca, StateId};
use recama_syntax::{ByteAlphabet, ByteClassSet};

/// Subset walk over a **counter-free** NCA: DFA states are interned on
/// first reach, rows filled one class at a time.
struct SubsetWalk<'a> {
    nca: &'a Nca,
    /// Byte equivalence classes induced by the automaton's state
    /// predicates; row lookups are class-indexed.
    alphabet: ByteAlphabet,
    cache: SubsetCache,
    /// Handle of the start state.
    start: u32,
}

impl<'a> SubsetWalk<'a> {
    fn new(nca: &'a Nca) -> SubsetWalk<'a> {
        assert!(
            nca.counters().is_empty(),
            "determinization requires a counter-free automaton"
        );
        let mut class_set = ByteClassSet::new();
        for s in nca.states().iter().skip(1) {
            class_set.add(&s.class);
        }
        let alphabet = class_set.freeze();
        let mut cache = SubsetCache::new(alphabet.len());
        let (start, _) = cache.intern(&[0]);
        SubsetWalk {
            nca,
            alphabet,
            cache,
            start,
        }
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
        let (handle, _) = self.cache.intern(&next);
        self.cache.set(state, class, handle);
        handle
    }
}

/// Exhaustive subset construction: the number of *reachable* DFA states, or
/// `None` once more than `cap` states exist — used to demonstrate the
/// memory blowup that motivates NCAs (`Σ*aΣ{n}` reaches 2ⁿ⁺¹ states).
///
/// # Panics
///
/// Panics if `nca` has counters — unfold first ([`crate::unfold`]).
pub(crate) fn full_dfa_size(nca: &Nca, cap: usize) -> Option<usize> {
    let mut walk = SubsetWalk::new(nca);
    let classes: Vec<u8> = walk.alphabet.classes().map(|(_, rep)| rep).collect();
    let mut frontier = vec![walk.start];
    while let Some(state) = frontier.pop() {
        // One probe per equivalence class covers all of Σ.
        for &rep in &classes {
            let before = walk.cache.len();
            let next = walk.successor(state, rep);
            if walk.cache.len() > before {
                frontier.push(next);
                if walk.cache.len() > cap {
                    return None;
                }
            }
        }
    }
    Some(walk.cache.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::unfold::{unfold, UnfoldPolicy};
    use recama_syntax::parse;

    fn unfolded(p: &str) -> Nca {
        Nca::from_regex(&unfold(&parse(p).unwrap().regex, UnfoldPolicy::All))
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
}
