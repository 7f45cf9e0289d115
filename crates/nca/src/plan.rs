//! Storage plans: which counter or bit-vector module each state of an
//! automaton gets — the software side of the paper's module choice
//! (§3.2.1, §4). The counter bank (`bank.rs`) builds its cells from a
//! plan, and holds exactly the paper's two modules:
//!
//! * pure states get one activity bit (an STE state bit);
//! * counter-**unambiguous** states get a single counter value — the
//!   O(log M) memory win the static analysis unlocks (counter module);
//! * counter-**ambiguous** states of the `σ{m,n}` shape get a counting
//!   set of their live counter values (bit-vector module).
//!
//! Everything else the compiler partially unfolds before a plan is made,
//! so a state with two counters, or an ambiguous one of another shape,
//! has no cell: [`CompilePlan::optimized`] refuses it.
//!
//! A plan that declares a state `SingleValue` on the strength of the
//! static analysis is *checked* as it runs: every collision of two
//! distinct values is counted in [`crate::HybridEngine::conflicts`]
//! (tests assert it stays 0), so each scan is a runtime cross-check of
//! the analysis.

use crate::nca::{ActionOp, Nca, StateId};

/// Storage discipline for one state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StorageMode {
    /// Pure state: a single activity bit.
    PureBit,
    /// Counter-unambiguous state: at most one token; stores one value.
    SingleValue,
    /// Counter-ambiguous state whose only counter-edges are a self-loop
    /// increment and `x := 1` entries (the `σ{m,n}` shape): a *counting
    /// set* — a word of bits up to bound 64, else a sorted offset queue,
    /// the representation of Turoňová et al. [OOPSLA'20] that the
    /// paper's related work discusses: increments cost O(1) (a shared
    /// offset bump) instead of a shift over n bits.
    CountingSet,
}

/// Per-state storage assignment: what [`crate::MultiNca::merge`] builds
/// each counted state's counter module from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompilePlan {
    modes: Vec<StorageMode>,
}

impl CompilePlan {
    /// A plan informed by the static analysis: counted states for which
    /// `unambiguous(q)` holds store a single value (the counter-module
    /// case), the others a counting set. With `|_| true` it is the plan
    /// that claims every counted state single-valued, with `|_| false`
    /// the analysis-free queue plan of `σ{m,n}`-shaped rules.
    ///
    /// # Panics
    ///
    /// Panics on a counted state that carries more than one counter, or
    /// that is neither `unambiguous` nor of the `σ{m,n}` shape: compile
    /// the rule first, which unfolds every such occurrence.
    pub fn optimized(nca: &Nca, mut unambiguous: impl FnMut(StateId) -> bool) -> CompilePlan {
        let modes = nca
            .states()
            .iter()
            .enumerate()
            .map(|(qi, s)| {
                let q = StateId(qi as u32);
                match s.counters.len() {
                    0 => StorageMode::PureBit,
                    1 if unambiguous(q) => StorageMode::SingleValue,
                    1 if counting_set_eligible(nca, q) => StorageMode::CountingSet,
                    n => panic!(
                        "state {q} carries {n} counter(s) and is neither proven \
                         single-valued nor a counting set: compile the rule first"
                    ),
                }
            })
            .collect();
        CompilePlan { modes }
    }

    /// Assembles a plan from explicit per-state modes (used when merging
    /// several automata's plans into one).
    pub(crate) fn from_modes(modes: Vec<StorageMode>) -> CompilePlan {
        CompilePlan { modes }
    }

    /// The storage mode of `q`.
    pub fn mode(&self, q: StateId) -> StorageMode {
        self.modes[q.index()]
    }

    /// Number of states covered by the plan.
    pub fn len(&self) -> usize {
        self.modes.len()
    }

    /// Whether the plan covers no states.
    pub fn is_empty(&self) -> bool {
        self.modes.is_empty()
    }

    /// Iterates over all (state, mode) pairs.
    pub fn iter(&self) -> impl Iterator<Item = (StateId, StorageMode)> + '_ {
        self.modes
            .iter()
            .enumerate()
            .map(|(i, &m)| (StateId(i as u32), m))
    }
}

/// The analysis-free queue plan of the unit tests: a counting set on
/// every counted state, for `σ{m,n}`-shaped rules.
#[cfg(test)]
pub(crate) fn queues(nca: &Nca) -> CompilePlan {
    CompilePlan::optimized(nca, |_| false)
}

/// The unit tests' plan that claims every counted state single-valued:
/// sound on anchored rules only.
#[cfg(test)]
pub(crate) fn single(nca: &Nca) -> CompilePlan {
    CompilePlan::optimized(nca, |_| true)
}

/// Whether a counted state fits the counting-set representation: every
/// incoming edge is either the self-loop `x<n / x++` or an entry
/// `x := 1` — from another state, or from the state itself where a star
/// around the repeat starts it over (the `σ{m,n}` shape after Glushkov).
pub(crate) fn counting_set_eligible(nca: &Nca, q: StateId) -> bool {
    let counter = match nca.state(q).counters.as_slice() {
        [c] => *c,
        _ => return false,
    };
    if nca.counter(counter).max.is_none() {
        return false; // saturating {m,} queues would lose sortedness
    }
    nca.transitions_into(q).all(|t| {
        t.actions == [ActionOp::Set(counter, 1)]
            || t.from == q && t.actions == [ActionOp::Inc(counter)]
    })
}
