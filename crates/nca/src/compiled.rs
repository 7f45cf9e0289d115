//! The counter/bit-vector execution engine — the software twin of the
//! paper's augmented hardware (§3.2.1, §4).
//!
//! Per-state storage is chosen by a [`CompilePlan`]:
//!
//! * pure states get one activity bit (an STE state bit);
//! * counter-**unambiguous** states get a single counter valuation — the
//!   O(log M) memory win the static analysis unlocks (counter module);
//! * counter-**ambiguous** single-counter states get a bit vector indexed
//!   by counter value, manipulated with set-first/shift/disjunct exactly as
//!   §3.2.1 describes (bit-vector module);
//! * anything else (ambiguous nested counting) falls back to an explicit
//!   token set, which is always sound — the paper handles these residual
//!   cases by partial unfolding in the compiler.
//!
//! When a plan declares a state `SingleValue` on the strength of the static
//! analysis, the engine *dynamically verifies* the claim: any collision of
//! two distinct valuations is counted in [`CompiledEngine::conflicts`]
//! (tests assert it stays 0), making the engine a runtime cross-check of
//! the analysis.

use crate::engine::Engine;
use crate::nca::{Nca, StateId};
use crate::token::{resolve_guard, resolve_transition, SlotSrc, SlotTest};
use std::collections::HashSet;

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
    /// *counting set* stored as a sorted offset queue, the representation
    /// of Turoňová et al. [OOPSLA'20] that the paper's related work
    /// discusses — increments cost O(1) (a shared offset bump) instead of
    /// a shift over n bits.
    CountingSet,
    /// General fallback: explicit set of valuations.
    TokenSet,
}

/// Per-state storage assignment for a [`CompiledEngine`].
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

    /// A plan informed by the static analysis: states for which
    /// `unambiguous(q)` holds store a single valuation (the counter-module
    /// case); ambiguous single-counter states get bit vectors; ambiguous
    /// multi-counter states fall back to token sets.
    pub fn with_unambiguous_states(
        nca: &Nca,
        mut unambiguous: impl FnMut(StateId) -> bool,
    ) -> CompilePlan {
        let modes = nca
            .states()
            .iter()
            .enumerate()
            .map(|(qi, s)| {
                if s.counters.is_empty() {
                    StorageMode::PureBit
                } else if unambiguous(StateId(qi as u32)) {
                    StorageMode::SingleValue
                } else if s.counters.len() == 1 {
                    StorageMode::BitVector
                } else {
                    StorageMode::TokenSet
                }
            })
            .collect();
        CompilePlan { modes }
    }

    /// The best statically-known plan: combines the analysis-informed
    /// [`CompilePlan::with_unambiguous_states`] selection with counting-set
    /// queues wherever a state qualifies (single counter; the only
    /// counter-carrying incoming edges are the self-loop increment and
    /// `x := 1` entries) — unambiguous counted states store a single
    /// valuation, ambiguous eligible states get O(1)-increment queues, the
    /// rest keep bit vectors / token sets. With `|_| false` it is the
    /// analysis-free queue plan.
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

/// A counting set as a sorted queue of token *birth clocks*: the token's
/// counter value is `clock - birth + 1`, so incrementing every live token
/// is one clock bump and expiry is popping from the front.
#[derive(Debug, Clone, Default)]
pub(crate) struct CountingQueue {
    clock: u64,
    /// Birth clocks, oldest (largest value) first.
    births: std::collections::VecDeque<u64>,
}

impl CountingQueue {
    fn value_of(&self, birth: u64) -> u32 {
        (self.clock - birth + 1) as u32
    }

    /// All tokens increment; tokens past `bound` die.
    pub(crate) fn shift(&mut self, bound: u32) {
        self.clock += 1;
        while let Some(&front) = self.births.front() {
            if self.value_of(front) > bound {
                self.births.pop_front();
            } else {
                break;
            }
        }
    }

    /// `k` increments at once, for a caller that knows no token passes
    /// the bound on the way: the whole of [`CountingQueue::shift`] is then
    /// the clock.
    pub(crate) fn advance(&mut self, k: u32) {
        self.clock += u64::from(k);
    }

    /// Insert a fresh token with value 1 (deduplicated).
    pub(crate) fn set_first(&mut self) {
        if self.births.back() != Some(&self.clock) {
            self.births.push_back(self.clock);
        }
    }

    pub(crate) fn clear(&mut self) {
        self.births.clear();
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.births.is_empty()
    }

    /// Live counter values, largest (oldest token) first.
    pub(crate) fn values(&self) -> impl Iterator<Item = u32> + '_ {
        self.births.iter().map(|&b| self.value_of(b))
    }

    /// Whether some token's value lies in `lo..=hi`. Values descend, so
    /// the first one not above `hi` decides: O(1) for an exit test
    /// `m ≤ x ≤ n` against the bound.
    pub(crate) fn any_in(&self, lo: u32, hi: u32) -> bool {
        self.values().find(|&v| v <= hi).is_some_and(|v| v >= lo)
    }
}

#[derive(Debug, Clone)]
pub(crate) enum Storage {
    PureBit(bool),
    /// At most one valuation. The buffer outlives the token (`live` says
    /// whether it holds one), so stepping never allocates or frees.
    Single {
        live: bool,
        values: Vec<u32>,
    },
    /// Bit `v` (1-based; bit 0 unused) set iff token with counter value `v`
    /// is live. Length `bound + 1` bits, word-packed.
    Bits {
        words: Vec<u64>,
        bound: u32,
    },
    /// Counting-set queue (see [`StorageMode::CountingSet`]).
    Queue {
        queue: CountingQueue,
        bound: u32,
    },
    Tokens(HashSet<Vec<u32>>),
}

impl Storage {
    pub(crate) fn new(mode: StorageMode, bound: u32) -> Storage {
        match mode {
            StorageMode::PureBit => Storage::PureBit(false),
            StorageMode::SingleValue => Storage::Single {
                live: false,
                values: Vec::new(),
            },
            StorageMode::BitVector => Storage::Bits {
                words: vec![0; ((bound as usize + 1).div_ceil(64)).max(1)],
                bound,
            },
            StorageMode::CountingSet => Storage::Queue {
                queue: CountingQueue::default(),
                bound,
            },
            StorageMode::TokenSet => Storage::Tokens(HashSet::new()),
        }
    }

    pub(crate) fn clear(&mut self) {
        match self {
            Storage::PureBit(b) => *b = false,
            Storage::Single { live, .. } => *live = false,
            Storage::Bits { words, .. } => words.iter_mut().for_each(|w| *w = 0),
            Storage::Queue { queue, .. } => queue.clear(),
            Storage::Tokens(set) => set.clear(),
        }
    }

    pub(crate) fn is_empty(&self) -> bool {
        match self {
            Storage::PureBit(b) => !*b,
            Storage::Single { live, .. } => !*live,
            Storage::Bits { words, .. } => words.iter().all(|&w| w == 0),
            Storage::Queue { queue, .. } => queue.is_empty(),
            Storage::Tokens(set) => set.is_empty(),
        }
    }

    /// Calls `f` with every live valuation.
    pub(crate) fn for_each(&self, mut f: impl FnMut(&[u32])) {
        match self {
            Storage::PureBit(true) => f(&[]),
            Storage::PureBit(false) => {}
            Storage::Single { live: true, values } => f(values),
            Storage::Single { live: false, .. } => {}
            Storage::Bits { words, .. } => {
                for (wi, &w) in words.iter().enumerate() {
                    let mut w = w;
                    while w != 0 {
                        let b = w.trailing_zeros() as usize;
                        w &= w - 1;
                        f(&[(wi * 64 + b) as u32]);
                    }
                }
            }
            Storage::Queue { queue, .. } => {
                for v in queue.values() {
                    f(&[v]);
                }
            }
            Storage::Tokens(set) => {
                for v in set {
                    f(v);
                }
            }
        }
    }

    /// Inserts a valuation; returns `true` on a SingleValue conflict (two
    /// distinct valuations on a state the plan claims unambiguous).
    pub(crate) fn insert(&mut self, values: &[u32]) -> bool {
        match self {
            Storage::PureBit(b) => {
                debug_assert!(values.is_empty());
                *b = true;
                false
            }
            Storage::Single {
                live,
                values: existing,
            } => {
                if *live && existing.as_slice() == values {
                    return false;
                }
                let conflict = *live;
                // On a conflict keep the smaller valuation for
                // determinism; the caller counts it.
                if !conflict || values < existing.as_slice() {
                    existing.clear();
                    existing.extend_from_slice(values);
                }
                *live = true;
                conflict
            }
            Storage::Bits { words, bound } => {
                let v = values[0];
                debug_assert!(
                    v >= 1 && v <= *bound,
                    "counter value {v} out of 1..={bound}"
                );
                words[(v / 64) as usize] |= 1 << (v % 64);
                false
            }
            Storage::Queue { .. } => {
                unreachable!("counting-set states are updated by the specialized path")
            }
            Storage::Tokens(set) => {
                set.insert(values.to_vec());
                false
            }
        }
    }
}

struct EdgeProg {
    from: StateId,
    guard: Vec<SlotTest>,
    dst: Vec<SlotSrc>,
}

/// Precomputed structure of a counting-set state's incoming edges.
struct QueueInfo {
    has_self_loop: bool,
    /// (source state, slot-resolved guard) of each entry edge.
    entry_sources: Vec<(usize, Vec<SlotTest>)>,
}

/// The compiled engine. See the module docs.
pub struct CompiledEngine<'a> {
    nca: &'a Nca,
    plan: CompilePlan,
    incoming: Vec<Vec<EdgeProg>>,
    accepts: Vec<Vec<Vec<SlotTest>>>,
    queue_info: Vec<Option<QueueInfo>>,
    /// Scratch: entry activity per counting-set state.
    queue_entry_scratch: Vec<bool>,
    /// Scratch: destination valuation under construction (reused across
    /// edges so the hot loop never allocates).
    value_scratch: Vec<u32>,
    cur: Vec<Storage>,
    nxt: Vec<Storage>,
    conflicts: u64,
}

impl<'a> CompiledEngine<'a> {
    /// Builds the engine with the given storage plan.
    pub fn new(nca: &'a Nca, plan: CompilePlan) -> CompiledEngine<'a> {
        assert_eq!(
            plan.modes.len(),
            nca.state_count(),
            "plan/automaton mismatch"
        );
        let incoming = (0..nca.state_count())
            .map(|qi| {
                nca.transitions_into(StateId(qi as u32))
                    .map(|t| {
                        let (guard, dst) = resolve_transition(nca, t);
                        EdgeProg {
                            from: t.from,
                            guard,
                            dst,
                        }
                    })
                    .collect()
            })
            .collect();
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
        let queue_info: Vec<Option<QueueInfo>> = (0..nca.state_count())
            .map(|qi| {
                if plan.modes[qi] != StorageMode::CountingSet {
                    return None;
                }
                debug_assert!(
                    counting_set_eligible(nca, StateId(qi as u32)),
                    "plan assigned CountingSet to an ineligible state q{qi}"
                );
                let mut has_self_loop = false;
                let mut entry_sources = Vec::new();
                for t in nca.transitions_into(StateId(qi as u32)) {
                    if t.from.index() == qi {
                        has_self_loop = true;
                    } else {
                        entry_sources.push((t.from.index(), resolve_guard(nca, t.from, &t.guard)));
                    }
                }
                Some(QueueInfo {
                    has_self_loop,
                    entry_sources,
                })
            })
            .collect();
        let storage_for = |qi: usize| {
            let s = &nca.states()[qi];
            let bound = s
                .counters
                .first()
                .map(|&c| nca.counter(c).bound())
                .unwrap_or(0);
            Storage::new(plan.modes[qi], bound)
        };
        let cur = (0..nca.state_count()).map(storage_for).collect();
        let nxt = (0..nca.state_count()).map(storage_for).collect();
        let n = nca.state_count();
        let mut e = CompiledEngine {
            nca,
            plan,
            incoming,
            accepts,
            queue_info,
            queue_entry_scratch: vec![false; n],
            value_scratch: Vec::new(),
            cur,
            nxt,
            conflicts: 0,
        };
        e.reset();
        e
    }

    /// Builds the engine with the analysis-free conservative plan.
    pub fn conservative(nca: &'a Nca) -> CompiledEngine<'a> {
        CompiledEngine::new(nca, CompilePlan::conservative(nca))
    }

    /// Number of SingleValue collisions observed — a nonzero value means a
    /// state the plan declared counter-unambiguous received two distinct
    /// tokens, i.e. the plan (or the analysis that produced it) is wrong.
    pub fn conflicts(&self) -> u64 {
        self.conflicts
    }

    /// The storage plan in use.
    pub fn plan(&self) -> &CompilePlan {
        &self.plan
    }
}

impl Engine for CompiledEngine<'_> {
    fn reset(&mut self) {
        for s in &mut self.cur {
            s.clear();
        }
        self.cur[0] = Storage::PureBit(true);
        self.conflicts = 0;
    }

    fn step(&mut self, byte: u8) {
        // Two-phase, like the hardware: "state matching" = does the input
        // satisfy the destination's class; "state transition" = move
        // tokens along the switch network / counter / bit-vector modules.
        for qi in 0..self.nca.state_count() {
            self.nxt[qi].clear();
            if self.queue_info[qi].is_some() {
                continue; // counting-set states use the specialized pass
            }
            if !self.nca.states()[qi].class.contains(byte) {
                continue;
            }
            // Split borrow: nxt[qi] mutated while cur is read.
            let nxt_q = &mut self.nxt[qi];
            let cur = &self.cur;
            let value_scratch = &mut self.value_scratch;
            let mut conflicts = 0u64;
            for edge in &self.incoming[qi] {
                let src = &cur[edge.from.index()];
                if src.is_empty() {
                    continue;
                }
                src.for_each(|values| {
                    if edge.guard.iter().all(|g| g.eval(values)) {
                        value_scratch.clear();
                        value_scratch.extend(edge.dst.iter().map(|s| s.eval(values)));
                        if nxt_q.insert(value_scratch) {
                            conflicts += 1;
                        }
                    }
                });
            }
            self.conflicts += conflicts;
        }
        // Counting-set pass. First read all entry activities (before any
        // queue is consumed — queue states may feed each other), then
        // update each queue in place: one clock bump instead of an O(n)
        // shift.
        for qi in 0..self.nca.state_count() {
            let Some(info) = &self.queue_info[qi] else {
                continue;
            };
            self.queue_entry_scratch[qi] = info.entry_sources.iter().any(|(src, guard)| {
                let mut hit = false;
                self.cur[*src].for_each(|values| {
                    hit = hit || guard.iter().all(|g| g.eval(values));
                });
                hit
            });
        }
        for qi in 0..self.nca.state_count() {
            let Some(info) = &self.queue_info[qi] else {
                continue;
            };
            let matched = self.nca.states()[qi].class.contains(byte);
            // Move the queue to the next buffer (keeps the buffers typed).
            let mut storage = std::mem::replace(&mut self.cur[qi], Storage::PureBit(false));
            match &mut storage {
                Storage::Queue { queue, bound } => {
                    if !matched {
                        queue.clear(); // the body predicate failed: all died
                    } else {
                        if info.has_self_loop {
                            queue.shift(*bound);
                        } else {
                            queue.clear();
                        }
                        if self.queue_entry_scratch[qi] {
                            queue.set_first();
                        }
                    }
                }
                _ => unreachable!("queue_info only set for Queue storage"),
            }
            self.nxt[qi] = storage;
        }
        std::mem::swap(&mut self.cur, &mut self.nxt);
        // q0 never reactivates (no incoming transitions).
    }

    fn is_accepting(&self) -> bool {
        for (qi, disjuncts) in self.accepts.iter().enumerate() {
            if disjuncts.is_empty() {
                continue;
            }
            let mut hit = false;
            self.cur[qi].for_each(|values| {
                if !hit {
                    hit = disjuncts
                        .iter()
                        .any(|conj| conj.iter().all(|g| g.eval(values)));
                }
            });
            if hit {
                return true;
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::TokenSetEngine;
    use recama_syntax::parse;

    fn nca(p: &str) -> Nca {
        Nca::from_regex(&parse(p).unwrap().regex)
    }

    fn exhaustive_inputs(alpha: &[u8], maxlen: usize) -> Vec<Vec<u8>> {
        let mut all: Vec<Vec<u8>> = vec![vec![]];
        let mut frontier: Vec<Vec<u8>> = vec![vec![]];
        for _ in 0..maxlen {
            let mut next = Vec::new();
            for w in &frontier {
                for &c in alpha {
                    let mut w2 = w.clone();
                    w2.push(c);
                    next.push(w2);
                }
            }
            all.extend(next.iter().cloned());
            frontier = next;
        }
        all
    }

    #[test]
    fn conservative_plan_matches_reference() {
        for p in [
            "a{2,4}",
            ".*a{3}",
            "(ab){2,3}c",
            "(a{2,3}){2,3}",
            "a{2,}b",
            ".*[ab][^a]{3}",
            "(a|b){2,4}",
        ] {
            let a = nca(p);
            let mut fast = CompiledEngine::conservative(&a);
            let mut slow = TokenSetEngine::new(&a);
            for w in exhaustive_inputs(b"ab", 6) {
                assert_eq!(fast.matches(&w), slow.matches(&w), "{p} on {w:?}");
            }
            assert_eq!(fast.conflicts(), 0);
        }
    }

    #[test]
    fn conservative_plan_modes() {
        let a = nca(".*a{3}");
        let plan = CompilePlan::conservative(&a);
        let n_bitvec = plan
            .iter()
            .filter(|(_, m)| *m == StorageMode::BitVector)
            .count();
        let n_pure = plan
            .iter()
            .filter(|(_, m)| *m == StorageMode::PureBit)
            .count();
        assert_eq!(n_bitvec, 1);
        assert_eq!(n_pure, a.state_count() - 1);
        // Nested counting yields a TokenSet fallback for two-counter states.
        let b = nca("(a{2,3}b){2,3}");
        let planb = CompilePlan::conservative(&b);
        assert!(planb.iter().any(|(_, m)| m == StorageMode::TokenSet));
    }

    #[test]
    fn single_value_plan_on_unambiguous_regex() {
        // a{4} anchored: counter-unambiguous, so SingleValue everywhere.
        let a = nca("a{4}b");
        let plan = CompilePlan::with_unambiguous_states(&a, |_| true);
        let mut fast = CompiledEngine::new(&a, plan);
        let mut slow = TokenSetEngine::new(&a);
        for w in exhaustive_inputs(b"ab", 7) {
            assert_eq!(fast.matches(&w), slow.matches(&w), "on {w:?}");
        }
        assert_eq!(fast.conflicts(), 0, "a{{4}}b is counter-unambiguous");
    }

    #[test]
    fn single_value_plan_detects_bad_claims() {
        // .*a{2} is counter-ambiguous (Example 3.2): claiming SingleValue
        // everywhere must produce conflicts on input aaa.
        let a = nca(".*a{2}");
        let plan = CompilePlan::with_unambiguous_states(&a, |_| true);
        let mut e = CompiledEngine::new(&a, plan);
        e.matches(b"aaa");
        assert!(e.conflicts() > 0);
    }

    #[test]
    fn bitvector_mirrors_paper_ops() {
        // Σ*σ1σ2{n} from Example 2.2 — the bit-vector case.
        let a = nca(".*[ab][^a]{3}");
        let mut fast = CompiledEngine::conservative(&a);
        let mut slow = TokenSetEngine::new(&a);
        for w in exhaustive_inputs(b"abx", 5) {
            assert_eq!(fast.matches(&w), slow.matches(&w), "on {w:?}");
        }
    }

    #[test]
    fn single_value_storage_reuses_its_buffer() {
        let mut s = Storage::new(StorageMode::SingleValue, 0);
        assert!(!s.insert(&[3, 1]));
        let Storage::Single { values, .. } = &s else {
            unreachable!()
        };
        let buffer = values.as_ptr();
        for step in 0..4u32 {
            s.clear();
            assert!(s.is_empty());
            let mut seen = 0;
            s.for_each(|_| seen += 1);
            assert_eq!(seen, 0, "a cleared slot yields no valuation");
            assert!(!s.insert(&[step, 7]), "first valuation after a clear");
            assert!(!s.insert(&[step, 7]), "same valuation again");
            assert!(s.insert(&[step, 9]), "a second valuation is a conflict");
            assert!(
                s.insert(&[step, 2]),
                "and so is a third; the smallest stays"
            );
            s.for_each(|v| assert_eq!(v, [step, 2]));
        }
        let Storage::Single { values, .. } = &s else {
            unreachable!()
        };
        assert_eq!(values.as_ptr(), buffer, "no reallocation while stepping");
    }

    #[test]
    fn match_ends_agree() {
        let p = parse("ab{2,3}").unwrap();
        let a = Nca::from_regex(&p.for_stream());
        let mut fast = CompiledEngine::conservative(&a);
        let mut slow = TokenSetEngine::new(&a);
        let input = b"zabbbabbx";
        assert_eq!(fast.match_ends(input), slow.match_ends(input));
    }
}

#[cfg(test)]
mod counting_set_tests {
    use super::*;
    use crate::engine::{Engine, TokenSetEngine};
    use recama_syntax::parse;

    fn nca(p: &str) -> Nca {
        Nca::from_regex(&parse(p).unwrap().regex)
    }

    fn exhaustive_inputs(alpha: &[u8], maxlen: usize) -> Vec<Vec<u8>> {
        let mut all: Vec<Vec<u8>> = vec![vec![]];
        let mut frontier: Vec<Vec<u8>> = vec![vec![]];
        for _ in 0..maxlen {
            let mut next = Vec::new();
            for w in &frontier {
                for &c in alpha {
                    let mut w2 = w.clone();
                    w2.push(c);
                    next.push(w2);
                }
            }
            all.extend(next.iter().cloned());
            frontier = next;
        }
        all
    }

    #[test]
    fn queue_plan_assigns_counting_sets_to_sigma_bodies() {
        let a = nca(".*a{5}");
        let plan = CompilePlan::optimized(&a, |_| false);
        assert!(plan.iter().any(|(_, m)| m == StorageMode::CountingSet));
        // Multi-state bodies are not eligible.
        let b = nca(".*(ab){3,5}");
        let planb = CompilePlan::optimized(&b, |_| false);
        assert!(planb
            .iter()
            .all(|(_, m)| m != StorageMode::CountingSet || matches!(m, StorageMode::CountingSet)));
        // (ab) body states loop to each other, not to themselves.
        assert!(!planb.iter().any(|(_, m)| m == StorageMode::CountingSet));
        // Unbounded {m,} is excluded (saturation breaks the queue).
        let c = nca(".*a{3,}b");
        assert!(!CompilePlan::optimized(&c, |_| false)
            .iter()
            .any(|(_, m)| m == StorageMode::CountingSet));
    }

    #[test]
    fn counting_set_engine_matches_reference() {
        for p in [
            ".*a{3}",
            ".*a{2,4}b",
            "x[ab]{2,5}y",
            ".*[ab][^a]{3}",
            "a{2,3}c{2,3}", // chained: entry of the second is guarded
            "(x|y)a{2,4}z",
        ] {
            let a = nca(p);
            let mut fast = CompiledEngine::new(&a, CompilePlan::optimized(&a, |_| false));
            let mut slow = TokenSetEngine::new(&a);
            for w in exhaustive_inputs(b"abxyz", 5) {
                assert_eq!(fast.matches(&w), slow.matches(&w), "{p} on {w:?}");
            }
            assert_eq!(fast.conflicts(), 0);
        }
    }

    #[test]
    fn counting_queue_semantics() {
        let mut q = CountingQueue::default();
        q.set_first();
        assert_eq!(q.values().collect::<Vec<_>>(), vec![1]);
        q.shift(5);
        q.set_first();
        assert_eq!(q.values().collect::<Vec<_>>(), vec![2, 1]);
        q.shift(5);
        q.shift(5);
        assert_eq!(q.values().collect::<Vec<_>>(), vec![4, 3]);
        // Expiry past the bound pops the oldest.
        q.shift(4);
        assert_eq!(q.values().collect::<Vec<_>>(), vec![4]);
        q.shift(4);
        assert!(q.values().next().is_none());
        // Dedup of same-cycle inserts.
        q.set_first();
        q.set_first();
        assert_eq!(q.values().count(), 1);
    }

    #[test]
    fn counting_set_match_ends_agree_with_bitvector_plan() {
        let p = parse("k.{3,9}").unwrap();
        let a = Nca::from_regex(&p.for_stream());
        let input = b"akzzzzk_zzzzzzzzzzk";
        let mut queue_engine = CompiledEngine::new(&a, CompilePlan::optimized(&a, |_| false));
        let mut bits_engine = CompiledEngine::conservative(&a);
        assert_eq!(
            queue_engine.match_ends(input),
            bits_engine.match_ends(input)
        );
    }
}
