//! The Glushkov construction extended with counters (§2 of the paper).
//!
//! Positions (predicate leaves) of the regex become states; the automaton is
//! ε-free and homogeneous. Each *counting* occurrence `r{m,n}` (or `{m,}`
//! with m ≥ 2) allocates one counter; a state carries the counters of all
//! counting occurrences enclosing its position (cf. Fig. 1 of the paper).
//!
//! Edge shapes produced here, matching the paper's examples:
//!
//! * entering a repetition ⇒ action `x := 1`;
//! * the loop edge `last(body) → first(body)` ⇒ guard `x < n`, action `x++`
//!   (saturating `x := min(x+1, m)` with no guard for `{m,}`);
//! * leaving a repetition ⇒ guard `m ≤ x ≤ n` (`x ≥ m` for `{m,}`).
//!
//! **Precondition**: the input must be normalized
//! ([`recama_syntax::normalize_for_nca`]): every counting body is
//! non-nullable with `m ≥ 1` (and `n ≥ 2` when bounded, `m ≥ 2` when
//! unbounded). [`crate::Nca::from_regex`] normalizes for you.

use crate::nca::{ActionOp, CounterId, CounterInfo, GuardAtom, Nca, State, StateId, Transition};
use recama_syntax::{ByteClass, Regex, RepeatId};
use std::collections::HashSet;

/// Builds the NCA for a **normalized** regex.
///
/// # Panics
///
/// Panics (in debug builds) if the regex violates the normalization
/// precondition; release builds would produce an automaton for a superset
/// language, so callers must normalize first.
pub fn build(regex: &Regex) -> Nca {
    let mut b = Builder {
        states: vec![State {
            class: ByteClass::EMPTY,
            counters: vec![],
            accepts: vec![],
        }],
        counters: Vec::new(),
        transitions: Vec::new(),
        stack: Vec::new(),
    };
    let frag = b.frag(regex);
    // q0 → first(r), with the entry actions initializing entered counters.
    for entry in &frag.first {
        b.transitions.push(Transition {
            from: StateId::INIT,
            to: entry.pos,
            guard: Vec::new(),
            actions: entry.actions.clone(),
        });
    }
    // F: last(r) positions accept under their accumulated exit guards.
    for exit in &frag.last {
        let accepts = &mut b.states[exit.pos.index()].accepts;
        if !accepts.contains(&exit.guards) {
            accepts.push(exit.guards.clone());
        }
    }
    if frag.nullable {
        b.states[0].accepts.push(Vec::new());
    }
    // Deduplicate parallel identical transitions (they can arise through
    // nullable factors in concatenations).
    let mut seen = HashSet::new();
    let transitions: Vec<Transition> = b
        .transitions
        .into_iter()
        .filter(|t| seen.insert(t.clone()))
        .collect();
    Nca::new(b.states, b.counters, transitions)
}

/// A position with the actions needed to *enter* it from outside the
/// subexpression (initializing every repetition counter crossed on the way).
#[derive(Debug, Clone)]
struct Entry {
    pos: StateId,
    actions: Vec<ActionOp>,
}

/// A position with the guards needed to *exit* the subexpression from it
/// (the exit tests of every repetition left on the way).
#[derive(Debug, Clone)]
struct Exit {
    pos: StateId,
    guards: Vec<GuardAtom>,
}

struct Frag {
    nullable: bool,
    first: Vec<Entry>,
    last: Vec<Exit>,
}

struct Builder {
    states: Vec<State>,
    counters: Vec<CounterInfo>,
    transitions: Vec<Transition>,
    /// Counters of the counting occurrences enclosing the current position.
    stack: Vec<CounterId>,
}

impl Builder {
    fn frag(&mut self, r: &Regex) -> Frag {
        match r {
            Regex::Empty => Frag {
                nullable: true,
                first: vec![],
                last: vec![],
            },
            Regex::Void => Frag {
                nullable: false,
                first: vec![],
                last: vec![],
            },
            Regex::Class(c) => {
                let pos = StateId(self.states.len() as u32);
                self.states.push(State {
                    class: *c,
                    counters: self.stack.clone(),
                    accepts: vec![],
                });
                Frag {
                    nullable: false,
                    first: vec![Entry {
                        pos,
                        actions: vec![],
                    }],
                    last: vec![Exit {
                        pos,
                        guards: vec![],
                    }],
                }
            }
            Regex::Alt(parts) => {
                let mut out = Frag {
                    nullable: false,
                    first: vec![],
                    last: vec![],
                };
                for p in parts {
                    let f = self.frag(p);
                    out.nullable |= f.nullable;
                    out.first.extend(f.first);
                    out.last.extend(f.last);
                }
                out
            }
            Regex::Concat(parts) => {
                let mut iter = parts.iter();
                let mut acc = match iter.next() {
                    Some(p) => self.frag(p),
                    None => {
                        return Frag {
                            nullable: true,
                            first: vec![],
                            last: vec![],
                        }
                    }
                };
                for p in iter {
                    let f = self.frag(p);
                    self.connect(&acc.last, &f.first, &[], &[]);
                    let mut first = acc.first;
                    if acc.nullable {
                        first.extend(f.first.iter().cloned());
                    }
                    let mut last = f.last;
                    if f.nullable {
                        last.extend(acc.last.iter().cloned());
                    }
                    acc = Frag {
                        nullable: acc.nullable && f.nullable,
                        first,
                        last,
                    };
                }
                acc
            }
            Regex::Star(inner) => {
                let f = self.frag(inner);
                self.connect(&f.last, &f.first, &[], &[]);
                Frag {
                    nullable: true,
                    first: f.first,
                    last: f.last,
                }
            }
            Regex::Repeat { inner, min, max } => {
                if Regex::is_plain_iteration(*min, *max) {
                    // `+` (or a defensive `*`): loop without a counter.
                    let f = self.frag(inner);
                    self.connect(&f.last, &f.first, &[], &[]);
                    return Frag {
                        nullable: f.nullable || *min == 0,
                        first: f.first,
                        last: f.last,
                    };
                }
                debug_assert!(
                    !inner.nullable() && *min >= 1,
                    "Glushkov precondition violated: non-normalized repeat {r}"
                );
                let cid = CounterId(self.counters.len() as u32);
                self.counters.push(CounterInfo {
                    repeat: RepeatId(cid.index()),
                    min: *min,
                    max: *max,
                });
                self.stack.push(cid);
                let f = self.frag(inner);
                self.stack.pop();
                let (loop_guard, loop_action, exit_guard) = match *max {
                    Some(n) => (
                        vec![GuardAtom::Lt(cid, n)],
                        vec![ActionOp::Inc(cid)],
                        GuardAtom::Range(cid, *min, n),
                    ),
                    None => (
                        vec![],
                        vec![ActionOp::IncSat(cid, *min)],
                        GuardAtom::Ge(cid, *min),
                    ),
                };
                self.connect(&f.last, &f.first, &loop_guard, &loop_action);
                let first = f
                    .first
                    .into_iter()
                    .map(|mut e| {
                        e.actions.insert(0, ActionOp::Set(cid, 1));
                        e
                    })
                    .collect();
                let last = f
                    .last
                    .into_iter()
                    .map(|mut e| {
                        e.guards.push(exit_guard);
                        e
                    })
                    .collect();
                Frag {
                    nullable: false,
                    first,
                    last,
                }
            }
        }
    }

    /// Emits the follow edges `lasts × firsts`, conjoining the exit guards
    /// of the source with `extra_guard` and prefixing `extra_actions`
    /// (the loop increment) to the destination's entry actions.
    fn connect(
        &mut self,
        lasts: &[Exit],
        firsts: &[Entry],
        extra_guard: &[GuardAtom],
        extra_actions: &[ActionOp],
    ) {
        for e in lasts {
            for f in firsts {
                let mut guard = e.guards.clone();
                guard.extend_from_slice(extra_guard);
                let mut actions = extra_actions.to_vec();
                actions.extend(f.actions.iter().cloned());
                self.transitions.push(Transition {
                    from: e.pos,
                    to: f.pos,
                    guard,
                    actions,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recama_syntax::{normalize_for_nca, parse};

    fn nca(pattern: &str) -> Nca {
        let r = parse(pattern).expect("parse").regex;
        build(&normalize_for_nca(&r))
    }

    /// Example 2.2, r1 = Σ*σ1σ2{n}: states q1(Σ), q2(σ1), q3(σ2):x.
    #[test]
    fn example_2_2_r1() {
        let a = nca(".*[ab][^a]{4}");
        // q0 + 3 positions.
        assert_eq!(a.state_count(), 4);
        assert_eq!(a.counters().len(), 1);
        assert_eq!(a.counter(CounterId(0)).bound(), 4);
        // The σ2 position carries the counter; others are pure.
        let counted: Vec<_> = a.states().iter().filter(|s| !s.is_pure()).collect();
        assert_eq!(counted.len(), 1);
        assert_eq!(counted[0].class, ByteClass::singleton(b'a').complement());
        // Exactly one final state, accepting at x = 4 (Range(4,4)).
        let finals: Vec<_> = a.states().iter().filter(|s| s.is_final()).collect();
        assert_eq!(finals.len(), 1);
        assert_eq!(
            finals[0].accepts,
            vec![vec![GuardAtom::Range(CounterId(0), 4, 4)]]
        );
        // The counted state has a self-loop guarded by x < 4 that increments.
        let self_loop = a
            .transitions()
            .iter()
            .find(|t| t.from == t.to && !a.state(t.from).is_pure())
            .expect("self loop");
        assert_eq!(self_loop.guard, vec![GuardAtom::Lt(CounterId(0), 4)]);
        assert_eq!(self_loop.actions, vec![ActionOp::Inc(CounterId(0))]);
    }

    /// Example 2.2, r2 = Σ*σ1(σ2σ3){m,n}σ4: five states, one counter on the
    /// two body positions.
    #[test]
    fn example_2_2_r2() {
        let a = nca(".*a(bc){2,3}d");
        assert_eq!(a.state_count(), 6); // q0, Σ, a, b, c, d
        assert_eq!(a.counters().len(), 1);
        let counted: Vec<_> = (0..a.state_count())
            .filter(|&i| !a.states()[i].is_pure())
            .collect();
        assert_eq!(counted.len(), 2); // b and c positions
                                      // Loop edge c→b with x<3 / x++.
        let loop_edge = a
            .transitions()
            .iter()
            .find(|t| t.guard == vec![GuardAtom::Lt(CounterId(0), 3)])
            .expect("loop edge");
        assert_eq!(loop_edge.actions, vec![ActionOp::Inc(CounterId(0))]);
        // Exit edge to d guarded by 2 ≤ x ≤ 3.
        let exit_edge = a
            .transitions()
            .iter()
            .find(|t| t.guard == vec![GuardAtom::Range(CounterId(0), 2, 3)])
            .expect("exit edge");
        assert_eq!(a.state(exit_edge.to).class, ByteClass::singleton(b'd'));
        // Entry edge a→b sets x := 1.
        let entry = a
            .transitions()
            .iter()
            .find(|t| t.actions == vec![ActionOp::Set(CounterId(0), 1)])
            .expect("entry edge");
        assert_eq!(a.state(entry.to).class, ByteClass::singleton(b'b'));
    }

    /// Fig. 1: Σ*σ1(σ2(σ3σ4){m,n}σ5){k}σ6 — two counters, nested scopes.
    #[test]
    fn figure_1_nested_counters() {
        let a = nca(".*q(w(er){2,3}t){4}y");
        assert_eq!(a.counters().len(), 2);
        // Outer counter x0 ({4}) on all body positions w,e,r,t;
        // inner x1 ({2,3}) only on e,r.
        let with_both: Vec<_> = a
            .states()
            .iter()
            .filter(|s| s.counters.len() == 2)
            .collect();
        assert_eq!(with_both.len(), 2);
        let with_outer_only: Vec<_> = a
            .states()
            .iter()
            .filter(|s| s.counters == vec![CounterId(0)])
            .collect();
        assert_eq!(with_outer_only.len(), 2);
        // Outer loop edge t→w: guard x0<4, action x0++ (x1 dropped).
        let outer_loop = a
            .transitions()
            .iter()
            .find(|t| t.guard == vec![GuardAtom::Lt(CounterId(0), 4)])
            .expect("outer loop");
        assert_eq!(outer_loop.actions, vec![ActionOp::Inc(CounterId(0))]);
        // Inner loop edge r→e: guard x1<3, action x1++ (x0 retained).
        let inner_loop = a
            .transitions()
            .iter()
            .find(|t| t.guard == vec![GuardAtom::Lt(CounterId(1), 3)])
            .expect("inner loop");
        assert_eq!(inner_loop.actions, vec![ActionOp::Inc(CounterId(1))]);
        // Exit edge to y: guard x0 = 4 (Range(4,4)).
        let final_exit = a
            .transitions()
            .iter()
            .find(|t| a.state(t.to).class == ByteClass::singleton(b'y'))
            .expect("exit edge");
        assert_eq!(final_exit.guard, vec![GuardAtom::Range(CounterId(0), 4, 4)]);
        // Crossing edge t→w′? No: w is entered from σ1 with x0:=1 and from t
        // via the loop; entering e from w sets x1:=1.
        let e_entry = a
            .transitions()
            .iter()
            .filter(|t| t.actions == vec![ActionOp::Set(CounterId(1), 1)])
            .count();
        assert!(e_entry >= 1, "inner entry must initialize x1");
    }

    /// r3 = σ1{m}Σ*σ2{n} (Example 2.2): two independent counters — and after
    /// the Σ* in the middle, the first counter is dropped.
    #[test]
    fn example_2_2_r3_counters_dropped_across_gap() {
        let a = nca("a{3}.*b{2}");
        assert_eq!(a.counters().len(), 2);
        // Σ position is pure.
        let sigma_state = a
            .states()
            .iter()
            .find(|s| s.class == ByteClass::ANY)
            .expect("gap state");
        assert!(sigma_state.is_pure());
    }

    #[test]
    fn unbounded_repetition_uses_saturating_counter() {
        let a = nca("a{3,}b");
        assert_eq!(a.counters().len(), 1);
        assert_eq!(a.counter(CounterId(0)).max, None);
        assert_eq!(a.counter(CounterId(0)).bound(), 3);
        let sat = a
            .transitions()
            .iter()
            .find(|t| t.actions == vec![ActionOp::IncSat(CounterId(0), 3)])
            .expect("saturating loop edge");
        assert!(sat.guard.is_empty());
        let exit = a
            .transitions()
            .iter()
            .find(|t| t.guard == vec![GuardAtom::Ge(CounterId(0), 3)])
            .expect("exit edge");
        assert_eq!(a.state(exit.to).class, ByteClass::singleton(b'b'));
    }

    #[test]
    fn plus_allocates_no_counter() {
        let a = nca("a+b");
        assert!(a.counters().is_empty());
        assert_eq!(a.state_count(), 3);
        // a has a guard-free self loop.
        assert!(a
            .transitions()
            .iter()
            .any(|t| t.from == t.to && t.guard.is_empty()));
    }

    #[test]
    fn alternation_of_counted_branches() {
        // Example 3.4 shape: Σ*(σ̄1 σ1{n} + σ̄2 σ2{n}).
        let a = nca(".*([^a]a{3}|[^b]b{3})");
        assert_eq!(a.counters().len(), 2);
        let finals: Vec<_> = a.states().iter().filter(|s| s.is_final()).collect();
        assert_eq!(finals.len(), 2);
    }

    #[test]
    fn nullable_regex_accepts_at_q0() {
        let a = nca("(ab)*");
        assert!(a.state(StateId::INIT).is_final());
        let a2 = nca("ab");
        assert!(!a2.state(StateId::INIT).is_final());
    }

    #[test]
    fn q0_edges_carry_entry_actions() {
        let a = nca("a{2,5}");
        let q0_edges: Vec<_> = a.transitions_from(StateId::INIT).collect();
        assert_eq!(q0_edges.len(), 1);
        assert_eq!(q0_edges[0].actions, vec![ActionOp::Set(CounterId(0), 1)]);
    }

    #[test]
    fn double_loop_produces_parallel_edges() {
        // (a{2,3}){4,5}: position a loops both as the inner increment and as
        // the outer increment (with inner exit + reset).
        let a = nca("(a{2,3}){4,5}");
        assert_eq!(a.counters().len(), 2);
        let self_loops: Vec<_> = a.transitions().iter().filter(|t| t.from == t.to).collect();
        assert_eq!(self_loops.len(), 2);
        // One of them exits the inner repetition and re-enters it while
        // incrementing the outer counter.
        let outer = self_loops
            .iter()
            .find(|t| t.actions.contains(&ActionOp::Set(CounterId(1), 1)))
            .expect("outer loop edge");
        assert!(outer.guard.contains(&GuardAtom::Range(CounterId(1), 2, 3)));
        assert!(outer.guard.contains(&GuardAtom::Lt(CounterId(0), 5)));
        assert!(outer.actions.contains(&ActionOp::Inc(CounterId(0))));
    }

    #[test]
    fn homogeneity_all_transitions_enter_via_state_class() {
        // Structural homogeneity holds by construction: predicates live on
        // states. Check transitions' predicates are the destination classes.
        let a = nca("(ab|cd){2,4}e*f");
        for t in a.transitions() {
            // Every incoming edge of `to` uses class(to) — trivially true in
            // our representation; assert classes are nonempty (no dead edge).
            assert!(!a.state(t.to).class.is_empty());
        }
    }

    #[test]
    fn validates_internally() {
        for p in [
            "a{2,3}",
            "(ab){2,}c",
            "((ab){2,3}c){4,6}",
            ".*a{5}",
            "x(y|z){3,9}w",
            "(a|bc){2,4}(d{3}|e)*",
            "a{2,3}b{4,5}c{6,7}",
        ] {
            let a = nca(p);
            assert!(a.validate().is_ok(), "invalid NCA for {p}");
        }
    }
}
