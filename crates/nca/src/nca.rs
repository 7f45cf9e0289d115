//! Nondeterministic counter automata (Definition 2.1 of the paper), in the
//! homogeneous, ε-free form produced by the Glushkov construction.
//!
//! Each state carries its own (possibly empty) set of counters `R(q)`; a
//! transition `(p, σ, φ, q, ϑ)` stores the guard φ over `R(p)`-valuations and
//! the action ϑ mapping `R(p)`-valuations to `R(q)`-valuations. Because the
//! automaton is homogeneous, the predicate σ is the destination state's
//! class and is stored once per state.

use recama_syntax::{ByteClass, RepeatId};
use std::fmt;

/// Index of a control state. State `0` is always the unique initial state
/// `q0` (pure, no incoming transitions).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StateId(pub u32);

impl StateId {
    /// The initial state `q0`.
    pub const INIT: StateId = StateId(0);

    /// The state index as `usize`.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for StateId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "q{}", self.0)
    }
}

impl fmt::Display for StateId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "q{}", self.0)
    }
}

/// Index of a counter register. Counter `k` belongs to the `k`-th counting
/// occurrence (preorder) of the normalized source regex.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CounterId(pub u32);

impl CounterId {
    /// The counter index as `usize`.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for CounterId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.0)
    }
}

impl fmt::Display for CounterId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.0)
    }
}

/// One conjunct of a transition guard φ (or of a finalization predicate).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GuardAtom {
    /// `x < n` — guards the increment of a bounded repetition.
    Lt(CounterId, u32),
    /// `lo ≤ x ≤ hi` — the exit test `m ≤ x ≤ n` of `{m,n}`.
    Range(CounterId, u32, u32),
    /// `x ≥ m` — the exit test of the unbounded `{m,}`.
    Ge(CounterId, u32),
    /// `x = n`.
    Eq(CounterId, u32),
}

impl GuardAtom {
    /// The counter the atom tests.
    pub fn counter(&self) -> CounterId {
        match *self {
            GuardAtom::Lt(c, _)
            | GuardAtom::Range(c, _, _)
            | GuardAtom::Ge(c, _)
            | GuardAtom::Eq(c, _) => c,
        }
    }

    /// Evaluates the atom on a concrete counter value.
    #[cfg(test)]
    pub(crate) fn eval(&self, value: u32) -> bool {
        match *self {
            GuardAtom::Lt(_, n) => value < n,
            GuardAtom::Range(_, lo, hi) => lo <= value && value <= hi,
            GuardAtom::Ge(_, m) => value >= m,
            GuardAtom::Eq(_, n) => value == n,
        }
    }
}

impl fmt::Display for GuardAtom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            GuardAtom::Lt(c, n) => write!(f, "{c}<{n}"),
            GuardAtom::Range(c, lo, hi) => write!(f, "{lo}<={c}<={hi}"),
            GuardAtom::Ge(c, m) => write!(f, "{c}>={m}"),
            GuardAtom::Eq(c, n) => write!(f, "{c}={n}"),
        }
    }
}

/// One assignment of a transition action ϑ. Destination counters without an
/// explicit op retain their source value (`x := x`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ActionOp {
    /// `x := v` — (re-)initialization when entering a repetition.
    Set(CounterId, u32),
    /// `x++` — the guarded increment of a bounded repetition loop.
    Inc(CounterId),
    /// `x := min(x+1, cap)` — saturating increment for unbounded `{m,}`.
    IncSat(CounterId, u32),
}

impl ActionOp {
    /// The counter the op writes.
    pub fn counter(&self) -> CounterId {
        match *self {
            ActionOp::Set(c, _) | ActionOp::Inc(c) | ActionOp::IncSat(c, _) => c,
        }
    }
}

impl fmt::Display for ActionOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            ActionOp::Set(c, v) => write!(f, "{c}:={v}"),
            ActionOp::Inc(c) => write!(f, "{c}++"),
            ActionOp::IncSat(c, cap) => write!(f, "{c}:=min({c}+1,{cap})"),
        }
    }
}

/// A transition `(p, σ, φ, q, ϑ)`; σ is `state(q).class` by homogeneity.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Transition {
    /// Source state p.
    pub from: StateId,
    /// Destination state q.
    pub to: StateId,
    /// Guard φ: conjunction of atoms over `R(p)`.
    pub guard: Vec<GuardAtom>,
    /// Action ϑ: explicit ops; unlisted destination counters are retained.
    pub actions: Vec<ActionOp>,
}

/// A control state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct State {
    /// The predicate labeling all incoming transitions (pushed into the
    /// state by homogeneity; Fig. 4(b) of the paper).
    pub class: ByteClass,
    /// `R(q)`: the counters this state carries, sorted ascending.
    pub counters: Vec<CounterId>,
    /// Finalization predicate `F(q)` in disjunctive form: the state is final
    /// iff this is nonempty, and a token is accepted iff some disjunct's
    /// conjunction of atoms holds. `vec![vec![]]` accepts unconditionally.
    pub accepts: Vec<Vec<GuardAtom>>,
}

impl State {
    /// Whether the state is pure (`R(q) = ∅`).
    pub fn is_pure(&self) -> bool {
        self.counters.is_empty()
    }

    /// Whether the state is final (`q ∈ dom(F)`).
    pub(crate) fn is_final(&self) -> bool {
        !self.accepts.is_empty()
    }

    /// Slot of `counter` in this state's valuation vectors.
    pub fn slot(&self, counter: CounterId) -> Option<usize> {
        self.counters.binary_search(&counter).ok()
    }
}

/// Static description of one counter: which counting occurrence of the
/// (normalized) source regex it implements and that occurrence's bounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterInfo {
    /// The counting occurrence (preorder id in the normalized regex).
    pub repeat: RepeatId,
    /// Lower bound m of `{m,n}` / `{m,}`.
    pub min: u32,
    /// Upper bound n, or `None` for the unbounded `{m,}`.
    pub max: Option<u32>,
}

impl CounterInfo {
    /// The largest value the counter can hold during any run: n for
    /// `{m,n}`, m for the saturating `{m,}`. Values range over `1..=bound()`.
    pub fn bound(&self) -> u32 {
        self.max.unwrap_or(self.min)
    }
}

/// A homogeneous nondeterministic counter automaton.
///
/// Build one from a regex with [`crate::glushkov::build`] (or the
/// convenience [`Nca::from_regex`]); execute it with the engines in
/// the `engine` module.
#[derive(Debug, Clone, PartialEq)]
pub struct Nca {
    states: Vec<State>,
    counters: Vec<CounterInfo>,
    transitions: Vec<Transition>,
    /// Outgoing transition indices per state.
    out: Vec<Vec<u32>>,
    /// Incoming transition indices per state.
    into: Vec<Vec<u32>>,
}

impl Nca {
    /// Assembles an NCA from parts.
    ///
    /// # Panics
    ///
    /// Panics if the automaton violates a structural invariant (see
    /// [`Nca::validate`]); construction sites are all internal, so a panic
    /// here indicates a bug in a builder, not bad user input.
    pub fn new(
        states: Vec<State>,
        counters: Vec<CounterInfo>,
        transitions: Vec<Transition>,
    ) -> Nca {
        let mut out = vec![Vec::new(); states.len()];
        let mut into = vec![Vec::new(); states.len()];
        for (i, t) in transitions.iter().enumerate() {
            out[t.from.index()].push(i as u32);
            into[t.to.index()].push(i as u32);
        }
        let nca = Nca {
            states,
            counters,
            transitions,
            out,
            into,
        };
        if let Err(e) = nca.validate() {
            panic!("malformed NCA: {e}");
        }
        nca
    }

    /// Builds the NCA for a regex: normalizes it (see
    /// [`recama_syntax::normalize_for_nca`]) and runs the Glushkov
    /// construction with counters.
    pub fn from_regex(regex: &recama_syntax::Regex) -> Nca {
        crate::glushkov::build(&recama_syntax::normalize_for_nca(regex))
    }

    /// The states; index with [`StateId::index`]. State 0 is `q0`.
    pub fn states(&self) -> &[State] {
        &self.states
    }

    /// The state record for `q`.
    pub fn state(&self, q: StateId) -> &State {
        &self.states[q.index()]
    }

    /// The counters.
    pub fn counters(&self) -> &[CounterInfo] {
        &self.counters
    }

    /// The counter record for `c`.
    pub fn counter(&self, c: CounterId) -> &CounterInfo {
        &self.counters[c.index()]
    }

    /// All transitions.
    pub fn transitions(&self) -> &[Transition] {
        &self.transitions
    }

    /// Outgoing transitions of `p`.
    pub(crate) fn transitions_from(&self, p: StateId) -> impl Iterator<Item = &Transition> + '_ {
        self.out[p.index()]
            .iter()
            .map(move |&i| &self.transitions[i as usize])
    }

    /// Incoming transitions of `q`.
    pub(crate) fn transitions_into(&self, q: StateId) -> impl Iterator<Item = &Transition> + '_ {
        self.into[q.index()]
            .iter()
            .map(move |&i| &self.transitions[i as usize])
    }

    /// Number of states including `q0`.
    pub fn state_count(&self) -> usize {
        self.states.len()
    }

    /// Checks the structural invariants:
    ///
    /// * state 0 exists, is pure, and has no incoming transitions;
    /// * `R(q)` vectors are sorted and duplicate-free;
    /// * guards test only counters of the source state; finalization
    ///   predicates test only counters of their state;
    /// * each destination counter has at most one action op; `Inc`/`IncSat`
    ///   sources exist in `R(p)`; retained counters exist in `R(p)`;
    /// * action ops never target counters outside `R(q)`;
    /// * counter ids referenced anywhere are in range.
    pub fn validate(&self) -> Result<(), String> {
        if self.states.is_empty() {
            return Err("no states".into());
        }
        if !self.states[0].is_pure() {
            return Err("q0 must be pure".into());
        }
        if !self.into[0].is_empty() {
            return Err("q0 must have no incoming transitions".into());
        }
        for (qi, s) in self.states.iter().enumerate() {
            if !s.counters.windows(2).all(|w| w[0] < w[1]) {
                return Err(format!("q{qi}: R(q) not sorted/unique"));
            }
            for c in &s.counters {
                if c.index() >= self.counters.len() {
                    return Err(format!("q{qi}: counter {c} out of range"));
                }
            }
            for conj in &s.accepts {
                for atom in conj {
                    if s.slot(atom.counter()).is_none() {
                        return Err(format!(
                            "q{qi}: finalization tests {} ∉ R(q)",
                            atom.counter()
                        ));
                    }
                }
            }
        }
        for (ti, t) in self.transitions.iter().enumerate() {
            if t.from.index() >= self.states.len() || t.to.index() >= self.states.len() {
                return Err(format!("t{ti}: state out of range"));
            }
            let src = &self.states[t.from.index()];
            let dst = &self.states[t.to.index()];
            for atom in &t.guard {
                if src.slot(atom.counter()).is_none() {
                    return Err(format!("t{ti}: guard tests {} ∉ R(p)", atom.counter()));
                }
            }
            let mut seen = Vec::new();
            for op in &t.actions {
                let c = op.counter();
                if seen.contains(&c) {
                    return Err(format!("t{ti}: duplicate action for {c}"));
                }
                seen.push(c);
                if dst.slot(c).is_none() {
                    return Err(format!("t{ti}: action writes {c} ∉ R(q)"));
                }
                match op {
                    ActionOp::Inc(c) | ActionOp::IncSat(c, _) => {
                        if src.slot(*c).is_none() {
                            return Err(format!("t{ti}: increment reads {c} ∉ R(p)"));
                        }
                    }
                    ActionOp::Set(..) => {}
                }
            }
            for c in &dst.counters {
                if !seen.contains(c) && src.slot(*c).is_none() {
                    return Err(format!("t{ti}: {c} retained but ∉ R(p)"));
                }
            }
        }
        Ok(())
    }
}

impl fmt::Display for Nca {
    /// A human-readable dump in the notation of the paper's figures:
    /// `q3:x1 [a-c] <- q2 on (x1<5 / x1++)`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "NCA: {} states, {} counters, {} transitions",
            self.states.len(),
            self.counters.len(),
            self.transitions.len()
        )?;
        for (i, s) in self.states.iter().enumerate() {
            write!(f, "  q{i}")?;
            if !s.counters.is_empty() {
                write!(f, ":")?;
                for (k, c) in s.counters.iter().enumerate() {
                    if k > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{c}")?;
                }
            }
            if i > 0 {
                write!(f, " [{}]", s.class)?;
            }
            if s.is_final() {
                write!(f, " FINAL")?;
                for conj in &s.accepts {
                    write!(f, " (")?;
                    for (k, a) in conj.iter().enumerate() {
                        if k > 0 {
                            write!(f, " & ")?;
                        }
                        write!(f, "{a}")?;
                    }
                    write!(f, ")")?;
                }
            }
            writeln!(f)?;
        }
        for t in &self.transitions {
            write!(f, "  {} -> {}", t.from, t.to)?;
            if !t.guard.is_empty() || !t.actions.is_empty() {
                write!(f, " on (")?;
                for (k, a) in t.guard.iter().enumerate() {
                    if k > 0 {
                        write!(f, " & ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, " / ")?;
                for (k, a) in t.actions.iter().enumerate() {
                    if k > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_nca() -> Nca {
        // q0 --a--> q1:x (x:=1); q1 --a--> q1 (x<3 / x++); accept x in [2,3].
        let states = vec![
            State {
                class: ByteClass::EMPTY,
                counters: vec![],
                accepts: vec![],
            },
            State {
                class: ByteClass::singleton(b'a'),
                counters: vec![CounterId(0)],
                accepts: vec![vec![GuardAtom::Range(CounterId(0), 2, 3)]],
            },
        ];
        let counters = vec![CounterInfo {
            repeat: RepeatId(0),
            min: 2,
            max: Some(3),
        }];
        let transitions = vec![
            Transition {
                from: StateId(0),
                to: StateId(1),
                guard: vec![],
                actions: vec![ActionOp::Set(CounterId(0), 1)],
            },
            Transition {
                from: StateId(1),
                to: StateId(1),
                guard: vec![GuardAtom::Lt(CounterId(0), 3)],
                actions: vec![ActionOp::Inc(CounterId(0))],
            },
        ];
        Nca::new(states, counters, transitions)
    }

    #[test]
    fn construction_and_accessors() {
        let nca = tiny_nca();
        assert_eq!(nca.state_count(), 2);
        assert_eq!(nca.transitions().len(), 2);
        assert!(!nca.state(StateId::INIT).is_final());
        assert!(nca.state(StateId(1)).is_final());
        assert!(nca.state(StateId(0)).is_pure());
        assert_eq!(nca.transitions_from(StateId(1)).count(), 1);
        assert_eq!(nca.transitions_into(StateId(1)).count(), 2);
        assert_eq!(nca.counter(CounterId(0)).bound(), 3);
    }

    #[test]
    fn guard_atom_eval() {
        let c = CounterId(0);
        assert!(GuardAtom::Lt(c, 3).eval(2));
        assert!(!GuardAtom::Lt(c, 3).eval(3));
        assert!(GuardAtom::Range(c, 2, 4).eval(2));
        assert!(GuardAtom::Range(c, 2, 4).eval(4));
        assert!(!GuardAtom::Range(c, 2, 4).eval(5));
        assert!(GuardAtom::Ge(c, 2).eval(7));
        assert!(!GuardAtom::Ge(c, 2).eval(1));
        assert!(GuardAtom::Eq(c, 2).eval(2));
        assert!(!GuardAtom::Eq(c, 2).eval(3));
    }

    #[test]
    #[should_panic(expected = "malformed NCA")]
    fn rejects_guard_on_missing_counter() {
        let states = vec![
            State {
                class: ByteClass::EMPTY,
                counters: vec![],
                accepts: vec![],
            },
            State {
                class: ByteClass::ANY,
                counters: vec![],
                accepts: vec![vec![]],
            },
        ];
        let transitions = vec![Transition {
            from: StateId(0),
            to: StateId(1),
            guard: vec![GuardAtom::Lt(CounterId(0), 3)],
            actions: vec![],
        }];
        Nca::new(states, vec![], transitions);
    }

    #[test]
    #[should_panic(expected = "malformed NCA")]
    fn rejects_retained_counter_not_in_source() {
        let states = vec![
            State {
                class: ByteClass::EMPTY,
                counters: vec![],
                accepts: vec![],
            },
            State {
                class: ByteClass::ANY,
                counters: vec![CounterId(0)],
                accepts: vec![],
            },
        ];
        let counters = vec![CounterInfo {
            repeat: RepeatId(0),
            min: 1,
            max: Some(2),
        }];
        // No Set action for x at a pure->counted edge: invalid retain.
        let transitions = vec![Transition {
            from: StateId(0),
            to: StateId(1),
            guard: vec![],
            actions: vec![],
        }];
        Nca::new(states, counters, transitions);
    }

    #[test]
    fn display_is_nonempty_and_mentions_parts() {
        let nca = tiny_nca();
        let dump = nca.to_string();
        assert!(dump.contains("q1"));
        assert!(dump.contains("FINAL"));
        assert!(dump.contains("x0++"));
    }
}
