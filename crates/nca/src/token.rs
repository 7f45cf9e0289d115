//! Tokens and fast token stepping.
//!
//! A *token* is a pair `(q, β)` of a control state and a valuation of its
//! counters (§2 of the paper). Both the reference execution engine and the
//! static analysis step tokens millions of times, so [`Prepared`]
//! pre-resolves every transition's guard and action to counter *slots*
//! (positions in the valuation vector) once.

use crate::nca::{ActionOp, GuardAtom, Nca, StateId, Transition};
use recama_syntax::ByteClass;
use std::fmt;

/// A token `(q, β)`: `values[i]` is the value of the `i`-th counter of
/// `R(q)` (sorted order). Pure states have an empty vector.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Token {
    /// The control state q.
    pub state: StateId,
    /// The valuation β, aligned with `State::counters`.
    pub values: Vec<u32>,
}

impl Token {
    /// The initial token `(q0, ∅)`.
    pub fn initial() -> Token {
        Token {
            state: StateId::INIT,
            values: Vec::new(),
        }
    }

    /// A token on a pure state.
    pub fn pure(state: StateId) -> Token {
        Token {
            state,
            values: Vec::new(),
        }
    }
}

impl fmt::Debug for Token {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.values.is_empty() {
            write!(f, "({})", self.state)
        } else {
            write!(f, "({}, {:?})", self.state, self.values)
        }
    }
}

/// Slot-resolved guard test (shared with the counter bank).
#[derive(Debug, Clone, Copy)]
pub(crate) enum SlotTest {
    Lt(usize, u32),
    Range(usize, u32, u32),
    Ge(usize, u32),
    Eq(usize, u32),
}

impl SlotTest {
    pub(crate) fn eval(&self, values: &[u32]) -> bool {
        match *self {
            SlotTest::Lt(s, n) => values[s] < n,
            SlotTest::Range(s, lo, hi) => (lo..=hi).contains(&values[s]),
            SlotTest::Ge(s, m) => values[s] >= m,
            SlotTest::Eq(s, n) => values[s] == n,
        }
    }
}

/// Slot-resolved producer of one destination counter value.
#[derive(Debug, Clone, Copy)]
pub(crate) enum SlotSrc {
    Const(u32),
    Copy(usize),
    Inc(usize),
    IncSat(usize, u32),
}

impl SlotSrc {
    pub(crate) fn eval(&self, src: &[u32]) -> u32 {
        match *self {
            SlotSrc::Const(v) => v,
            SlotSrc::Copy(s) => src[s],
            SlotSrc::Inc(s) => src[s] + 1,
            SlotSrc::IncSat(s, cap) => (src[s] + 1).min(cap),
        }
    }
}

#[derive(Debug, Clone)]
struct Prog {
    to: StateId,
    class: ByteClass,
    guard: Vec<SlotTest>,
    dst: Vec<SlotSrc>,
}

/// An [`Nca`] with slot-resolved transition programs, ready for fast token
/// stepping. Borrowed from the automaton; build once, step many.
///
/// # Examples
///
/// ```
/// use recama_nca::{Nca, Prepared, Token};
/// let nca = Nca::from_regex(&recama_syntax::parse("a{2,3}").unwrap().regex);
/// let prep = Prepared::new(&nca);
/// let mut tokens = vec![Token::initial()];
/// for &b in b"aa" {
///     let mut next = Vec::new();
///     for t in &tokens {
///         prep.for_each_successor(t, b, |succ| next.push(succ));
///     }
///     tokens = next;
/// }
/// assert!(tokens.iter().any(|t| prep.token_accepts(t)));
/// ```
pub struct Prepared<'a> {
    nca: &'a Nca,
    /// Outgoing programs per state.
    progs: Vec<Vec<Prog>>,
    /// Slot-resolved finalization predicates per state (DNF).
    accepts: Vec<Vec<Vec<SlotTest>>>,
}

pub(crate) fn resolve_guard(nca: &Nca, state: StateId, atoms: &[GuardAtom]) -> Vec<SlotTest> {
    atoms
        .iter()
        .map(|a| {
            let slot = nca
                .state(state)
                .slot(a.counter())
                .expect("validated: guard counter in R(state)");
            match *a {
                GuardAtom::Lt(_, n) => SlotTest::Lt(slot, n),
                GuardAtom::Range(_, lo, hi) => SlotTest::Range(slot, lo, hi),
                GuardAtom::Ge(_, m) => SlotTest::Ge(slot, m),
                GuardAtom::Eq(_, n) => SlotTest::Eq(slot, n),
            }
        })
        .collect()
}

/// Resolves one transition's guard and action to slot programs. Shared by
/// [`Prepared`], the pure edge walk and the counter bank.
pub(crate) fn resolve_transition(nca: &Nca, t: &Transition) -> (Vec<SlotTest>, Vec<SlotSrc>) {
    let src_state = nca.state(t.from);
    let dst_state = nca.state(t.to);
    let guard = resolve_guard(nca, t.from, &t.guard);
    let dst = dst_state
        .counters
        .iter()
        .map(|&c| {
            for op in &t.actions {
                if op.counter() == c {
                    return match *op {
                        ActionOp::Set(_, v) => SlotSrc::Const(v),
                        ActionOp::Inc(_) => SlotSrc::Inc(src_state.slot(c).expect("validated")),
                        ActionOp::IncSat(_, cap) => {
                            SlotSrc::IncSat(src_state.slot(c).expect("validated"), cap)
                        }
                    };
                }
            }
            SlotSrc::Copy(src_state.slot(c).expect("validated: retained counter"))
        })
        .collect();
    (guard, dst)
}

impl<'a> Prepared<'a> {
    /// Resolves all transitions of `nca` to slot programs.
    pub fn new(nca: &'a Nca) -> Prepared<'a> {
        let mut progs: Vec<Vec<Prog>> = vec![Vec::new(); nca.state_count()];
        for t in nca.transitions() {
            progs[t.from.index()].push(Self::compile(nca, t));
        }
        let accepts = nca
            .states()
            .iter()
            .enumerate()
            .map(|(qi, s)| {
                s.accepts
                    .iter()
                    .map(|conj| resolve_guard(nca, StateId(qi as u32), conj))
                    .collect()
            })
            .collect();
        Prepared {
            nca,
            progs,
            accepts,
        }
    }

    fn compile(nca: &Nca, t: &Transition) -> Prog {
        let (guard, dst) = resolve_transition(nca, t);
        Prog {
            to: t.to,
            class: nca.state(t.to).class,
            guard,
            dst,
        }
    }

    /// The underlying automaton.
    pub fn nca(&self) -> &Nca {
        self.nca
    }

    /// Calls `f` for every token reachable from `token` on input `byte`
    /// (the token transition relation `→_byte` of §2).
    pub fn for_each_successor(&self, token: &Token, byte: u8, mut f: impl FnMut(Token)) {
        for prog in &self.progs[token.state.index()] {
            if !prog.class.contains(byte) {
                continue;
            }
            if !prog.guard.iter().all(|g| g.eval(&token.values)) {
                continue;
            }
            let values = prog.dst.iter().map(|s| s.eval(&token.values)).collect();
            f(Token {
                state: prog.to,
                values,
            });
        }
    }

    /// Calls `f` with `(σ, q′, β′)` for every *symbolic* successor of the
    /// token `(state, values)`: guards are evaluated on the concrete
    /// valuation, but the input predicate σ (the destination class) is left
    /// symbolic. This is the edge relation the static analysis' product
    /// construction consumes (§3.1). `β′` is built in `scratch`, so a
    /// caller that interns tokens allocates nothing per successor.
    pub fn for_each_symbolic_successor(
        &self,
        state: StateId,
        values: &[u32],
        scratch: &mut Vec<u32>,
        mut f: impl FnMut(&ByteClass, StateId, &[u32]),
    ) {
        for prog in &self.progs[state.index()] {
            if !prog.guard.iter().all(|g| g.eval(values)) {
                continue;
            }
            scratch.clear();
            scratch.extend(prog.dst.iter().map(|s| s.eval(values)));
            f(&prog.class, prog.to, scratch);
        }
    }

    /// Whether `token` is final: its state is final and the valuation
    /// satisfies some disjunct of `F(q)`.
    pub fn token_accepts(&self, token: &Token) -> bool {
        self.accepts[token.state.index()]
            .iter()
            .any(|conj| conj.iter().all(|g| g.eval(&token.values)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recama_syntax::parse;

    fn prep(pattern: &str) -> (Nca, Vec<u8>) {
        let nca = Nca::from_regex(&parse(pattern).unwrap().regex);
        (nca, vec![])
    }

    #[test]
    fn initial_token() {
        let t = Token::initial();
        assert_eq!(t.state, StateId::INIT);
        assert!(t.values.is_empty());
    }

    #[test]
    fn step_counts_up() {
        let (nca, _) = prep("a{2,3}");
        let p = Prepared::new(&nca);
        let mut toks = vec![Token::initial()];
        let step = |toks: &Vec<Token>, b: u8| {
            let mut next = Vec::new();
            for t in toks {
                p.for_each_successor(t, b, |s| next.push(s));
            }
            next
        };
        let t1 = step(&toks, b'a');
        assert_eq!(t1.len(), 1);
        assert_eq!(t1[0].values, vec![1]);
        assert!(!p.token_accepts(&t1[0]));
        let t2 = step(&t1, b'a');
        assert_eq!(t2[0].values, vec![2]);
        assert!(p.token_accepts(&t2[0]));
        let t3 = step(&t2, b'a');
        assert_eq!(t3[0].values, vec![3]);
        assert!(p.token_accepts(&t3[0]));
        // Guard x<3 now blocks the loop.
        let t4 = step(&t3, b'a');
        assert!(t4.is_empty());
        toks.clear();
    }

    #[test]
    fn wrong_byte_kills_tokens() {
        let (nca, _) = prep("a{2,3}");
        let p = Prepared::new(&nca);
        let t0 = Token::initial();
        let mut next = Vec::new();
        p.for_each_successor(&t0, b'z', |s| next.push(s));
        assert!(next.is_empty());
    }

    #[test]
    fn symbolic_successors_expose_classes() {
        let (nca, _) = prep(".*[ab]c{2,4}");
        let p = Prepared::new(&nca);
        let t0 = Token::initial();
        let mut seen = Vec::new();
        p.for_each_symbolic_successor(
            t0.state,
            &t0.values,
            &mut Vec::new(),
            |class, to, values| {
                seen.push((*class, to, values.to_vec()));
            },
        );
        // q0 → Σ-state and q0 → [ab]-state.
        assert_eq!(seen.len(), 2);
        assert!(seen.iter().any(|(c, _, _)| c.is_full()));
        assert!(seen
            .iter()
            .any(|(c, _, _)| *c == ByteClass::from_bytes(b"ab")));
    }
}
