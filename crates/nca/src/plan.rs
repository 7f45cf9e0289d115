//! Storage plans: which counter or bit-vector module each state of an
//! automaton gets — the software side of the paper's module choice
//! (§3.2.1, §4). The counter bank (`bank.rs`) builds its cells from a
//! plan:
//!
//! * pure states get one activity bit (an STE state bit);
//! * counter-**unambiguous** states get a single counter valuation — the
//!   O(log M) memory win the static analysis unlocks (counter module);
//! * counter-**ambiguous** single-counter states get a bit vector indexed
//!   by counter value, manipulated with set-first/shift/disjunct exactly as
//!   §3.2.1 describes (bit-vector module), or a counting set where the
//!   state has the `σ{m,n}` shape;
//! * anything else (ambiguous nested counting) falls back to an explicit
//!   token set, which is always sound — the paper handles these residual
//!   cases by partial unfolding in the compiler.
//!
//! A plan that declares a state `SingleValue` on the strength of the
//! static analysis is *checked* as it runs: every collision of two
//! distinct valuations is counted in [`crate::HybridEngine::conflicts`]
//! (tests assert it stays 0), so each scan is a runtime cross-check of
//! the analysis.

use crate::nca::{Nca, StateId};

/// Storage discipline for one state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StorageMode {
    /// Pure state: a single activity bit.
    PureBit,
    /// Counter-unambiguous state: at most one token; stores one valuation.
    SingleValue,
    /// Counter-ambiguous state with exactly one counter of bound `n`:
    /// a bit vector `v` with `v[i] = 1` iff token `(q, i)` is live.
    BitVector,
    /// Counter-ambiguous single-counter state whose only counter-edges are
    /// a self-loop increment and `x := 1` entries (the `σ{m,n}` shape): a
    /// *counting set* — a word of bits up to bound 64, else a sorted
    /// offset queue, the representation of Turoňová et al. [OOPSLA'20]
    /// that the paper's related work discusses: increments cost O(1) (a
    /// shared offset bump) instead of a shift over n bits.
    CountingSet,
    /// General fallback: explicit set of valuations.
    TokenSet,
}

/// Per-state storage assignment: what [`crate::MultiNca::merge`] builds
/// each counted state's counter module from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompilePlan {
    modes: Vec<StorageMode>,
}

impl CompilePlan {
    /// A plan that is sound without any static analysis: pure states get a
    /// bit, single-counter states a bit vector, multi-counter states a
    /// token set. (Bit vectors are always sound for single-counter states;
    /// it is `SingleValue` that needs the unambiguity proof.)
    pub fn conservative(nca: &Nca) -> CompilePlan {
        let modes = nca
            .states()
            .iter()
            .map(|s| match s.counters.len() {
                0 => StorageMode::PureBit,
                1 => StorageMode::BitVector,
                _ => StorageMode::TokenSet,
            })
            .collect();
        CompilePlan { modes }
    }

    /// A plan informed by the static analysis: counted states for which
    /// `unambiguous(q)` holds store a single valuation (the counter-module
    /// case); ambiguous states get a counting set wherever they qualify
    /// (single counter; the only counter-carrying incoming edges are the
    /// self-loop increment and `x := 1` entries), else a bit vector (one
    /// counter) or a token set. With `|_| false` it is the analysis-free
    /// queue plan, with `|_| true` the plan that claims every counted
    /// state single-valued.
    pub fn optimized(nca: &Nca, mut unambiguous: impl FnMut(StateId) -> bool) -> CompilePlan {
        let modes = nca
            .states()
            .iter()
            .enumerate()
            .map(|(qi, s)| {
                let q = StateId(qi as u32);
                if s.counters.is_empty() {
                    StorageMode::PureBit
                } else if unambiguous(q) {
                    StorageMode::SingleValue
                } else if s.counters.len() == 1 && counting_set_eligible(nca, q) {
                    StorageMode::CountingSet
                } else if s.counters.len() == 1 {
                    StorageMode::BitVector
                } else {
                    StorageMode::TokenSet
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

/// Whether a counted state fits the counting-set representation: all
/// counter-carrying incoming edges are either the self-loop `x<n / x++` or
/// an entry `x := 1` (the `σ{m,n}` shape after Glushkov).
pub(crate) fn counting_set_eligible(nca: &Nca, q: StateId) -> bool {
    let counter = match nca.state(q).counters.as_slice() {
        [c] => *c,
        _ => return false,
    };
    if nca.counter(counter).max.is_none() {
        return false; // saturating {m,} queues would lose sortedness
    }
    nca.transitions_into(q).all(|t| {
        if t.from == q {
            t.actions == vec![crate::nca::ActionOp::Inc(counter)]
        } else {
            t.actions == vec![crate::nca::ActionOp::Set(counter, 1)]
        }
    })
}
