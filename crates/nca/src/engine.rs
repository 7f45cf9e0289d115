//! The reference engine, [`TokenSetEngine`].
//!
//! Matching discipline: the engine consumes one byte per step (exactly like
//! the hardware consumes one symbol per cycle) and can be queried for
//! acceptance after each step. `matches` decides whole-input membership
//! `w ∈ ⟦A⟧`; `match_ends` reports every prefix length at which the
//! automaton accepts — the "report" events of the in-memory accelerators
//! (run it on the `Σ*r` streaming form to get match-end positions).

use crate::nca::Nca;
use crate::token::{Prepared, Token};

/// The reference engine: maintains the exact configuration (set of tokens)
/// of the nondeterministic semantics of §2 (Definition 2.1). Obviously
/// correct and used as ground truth for the counter bank, with which it
/// shares no storage plan and no counter cell; not fast.
pub struct TokenSetEngine<'a> {
    prepared: Prepared<'a>,
    /// The configuration: the live tokens, sorted, each once.
    config: Vec<Token>,
    scratch: Vec<Token>,
    /// Largest number of simultaneous tokens observed on any single state
    /// since the last reset — a direct dynamic measurement of the
    /// counter-ambiguity *degree* (Definition 3.1).
    max_tokens_per_state: usize,
}

impl<'a> TokenSetEngine<'a> {
    /// Creates an engine over `nca` in the initial configuration.
    pub fn new(nca: &'a Nca) -> TokenSetEngine<'a> {
        let mut e = TokenSetEngine {
            prepared: Prepared::new(nca),
            config: Vec::new(),
            scratch: Vec::new(),
            max_tokens_per_state: 0,
        };
        e.reset();
        e
    }

    /// The current configuration: the set of live tokens, sorted.
    pub fn config(&self) -> &[Token] {
        &self.config
    }

    /// See the `TokenSetEngine::max_tokens_per_state` field docs: a dynamic
    /// lower bound for `degree(q)` maximized over states and inputs seen.
    pub fn observed_degree(&self) -> usize {
        self.max_tokens_per_state
    }

    /// Returns to the initial configuration.
    pub fn reset(&mut self) {
        self.config.clear();
        self.config.push(Token::initial());
        self.max_tokens_per_state = 0;
    }

    /// Consumes one input byte.
    pub fn step(&mut self, byte: u8) {
        self.scratch.clear();
        for t in &self.config {
            let scratch = &mut self.scratch;
            self.prepared
                .for_each_successor(t, byte, |succ| scratch.push(succ));
        }
        self.scratch.sort_unstable();
        self.scratch.dedup();
        std::mem::swap(&mut self.config, &mut self.scratch);
        // Sorted by state first: the tokens of one state are one run.
        let runs = self.config.chunk_by(|a, b| a.state == b.state);
        let degree = runs.map(<[Token]>::len).max().unwrap_or(0);
        self.max_tokens_per_state = self.max_tokens_per_state.max(degree);
    }

    /// Whether the current configuration contains a final token.
    pub fn is_accepting(&self) -> bool {
        self.config.iter().any(|t| self.prepared.token_accepts(t))
    }

    /// Whole-input membership: resets, consumes `input`, tests acceptance.
    ///
    /// # Examples
    ///
    /// ```
    /// use recama_nca::{Nca, TokenSetEngine};
    ///
    /// let nca = Nca::from_regex(&recama_syntax::parse("a{2,4}").unwrap().regex);
    /// let mut engine = TokenSetEngine::new(&nca);
    /// assert!(engine.matches(b"aaa"));
    /// assert!(!engine.matches(b"a"));
    /// ```
    pub fn matches(&mut self, input: &[u8]) -> bool {
        self.reset();
        for &b in input {
            self.step(b);
        }
        self.is_accepting()
    }

    /// Every prefix length (0..=len) after which the engine accepts.
    pub fn match_ends(&mut self, input: &[u8]) -> Vec<usize> {
        self.reset();
        let mut ends = Vec::new();
        if self.is_accepting() {
            ends.push(0);
        }
        for (i, &b) in input.iter().enumerate() {
            self.step(b);
            if self.is_accepting() {
                ends.push(i + 1);
            }
        }
        ends
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use recama_syntax::{naive, parse};

    fn nca(p: &str) -> Nca {
        Nca::from_regex(&parse(p).unwrap().regex)
    }

    #[test]
    fn agrees_with_naive_oracle() {
        let patterns = [
            "a{2,4}",
            "(ab){2,3}",
            ".*a{3}",
            "a{3}.*b{2}",
            "(a|b){2,5}c",
            "((ab){1,2}c){2}",
            "a+b*c?",
            "(a{2,3}){2}",
            ".*[ab][^a]{3}",
            "a{2,}b",
            "(xy|z){3}",
        ];
        let alphabet = b"abcxyz";
        for p in &patterns {
            let r = parse(p).unwrap().regex;
            let a = Nca::from_regex(&r);
            let mut eng = TokenSetEngine::new(&a);
            // All strings up to length 6 over a small alphabet.
            let mut queue: Vec<Vec<u8>> = vec![vec![]];
            while let Some(w) = queue.pop() {
                let expected = naive::matches(&r, &w);
                assert_eq!(
                    eng.matches(&w),
                    expected,
                    "{p} on {:?}",
                    String::from_utf8_lossy(&w)
                );
                if w.len() < 5 {
                    for &c in alphabet {
                        let mut w2 = w.clone();
                        w2.push(c);
                        queue.push(w2);
                    }
                }
            }
        }
    }

    #[test]
    fn match_ends_on_stream_form() {
        let p = parse("ab{2}").unwrap();
        let a = Nca::from_regex(&p.for_stream());
        // "xabbabb": matches of .*ab{2} end at 4 and 7.
        assert_eq!(TokenSetEngine::new(&a).match_ends(b"xabbabb"), vec![4, 7]);
    }

    #[test]
    fn empty_input_and_nullable() {
        let a = nca("(ab)*");
        let mut engine = TokenSetEngine::new(&a);
        assert!(engine.matches(b""));
        assert_eq!(engine.match_ends(b"abab"), vec![0, 2, 4]);
    }

    #[test]
    fn observed_degree_on_ambiguous_regex() {
        // Σ*σ{2} (Example 3.2) is counter-ambiguous: on input "aaa" two
        // tokens with different counter values sit on the counted state.
        let a = nca(".*a{2}");
        let mut e = TokenSetEngine::new(&a);
        e.matches(b"aaaa");
        assert!(e.observed_degree() >= 2, "degree {}", e.observed_degree());
        // a{2} alone is counter-unambiguous.
        let b = nca("a{2}");
        let mut e = TokenSetEngine::new(&b);
        e.matches(b"aa");
        assert_eq!(e.observed_degree(), 1);
    }

    #[test]
    fn unbounded_counting_semantics() {
        let a = nca("a{3,}");
        let mut engine = TokenSetEngine::new(&a);
        assert!(!engine.matches(b"aa"));
        assert!(engine.matches(b"aaa"));
        assert!(engine.matches(b"aaaaaaaa"));
    }
}
