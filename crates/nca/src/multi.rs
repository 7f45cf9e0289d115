//! Multi-pattern execution: many per-pattern NCAs merged into **one**
//! shared automaton, stepped by a batched engine over dense state
//! frontiers.
//!
//! This is the software twin of a whole machine image: production
//! deployments of automata accelerators compile the entire ruleset into
//! one network and stream traffic through it once, instead of running one
//! engine per rule. The merge keeps each pattern's states and counters
//! disjoint (they only share the input stream and the initial state), so
//! per-pattern semantics — including the storage plans chosen by the
//! static analysis — carry over unchanged, and every accepting state
//! remembers which pattern it reports for.
//!
//! Two batching effects make [`MultiEngine`] faster than a loop over
//! single-pattern engines:
//!
//! * **shared byte-class alphabet** — the union of all patterns'
//!   predicates partitions Σ into equivalence classes
//!   ([`recama_syntax::ByteClassSet`]); each input byte is classified
//!   once, and destination-class tests become one bit probe instead of a
//!   256-bit membership test per state;
//! * **dense activity frontiers** — one bitset marks the live states of
//!   the whole set, so per-byte work scales with the number of *active*
//!   states (typically a few per pattern on benign traffic), not with the
//!   total automaton size the way `N × CompiledEngine` does.

use crate::bank::CounterBank;
use crate::compiled::{counting_set_eligible, CompilePlan, Storage, StorageMode};
use crate::hybrid::{HybridCache, HybridEngine, HybridStats};
use crate::nca::{ActionOp, GuardAtom, Nca, State, StateId, Transition};
use crate::token::{resolve_guard, resolve_transition, SlotSrc, SlotTest};
use recama_syntax::{ByteAlphabet, ByteClassSet};
use std::sync::Arc;

/// A report of the multi-pattern engine: pattern `pattern` matched with
/// its last byte at 1-based offset `end`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MultiReport {
    /// Index of the pattern in the merged set.
    pub pattern: u32,
    /// 1-based end offset (stream position after the matching byte).
    pub end: u64,
}

/// Several per-pattern NCAs merged into one shared automaton.
///
/// State 0 is the single merged `q0`; states and counters of pattern `i`
/// occupy contiguous id ranges, recorded so reports can be attributed.
/// The merged `q0` never accepts: like the hardware (which cannot report
/// "before the first symbol"), the multi-pattern machinery only reports
/// matches ending at offset ≥ 1.
///
/// The value is a cheap `Clone` handle on the immutable image — automaton,
/// plan, alphabet and the tables built from them — which every engine of
/// it keeps a clone of, so an engine borrows nothing.
#[derive(Debug, Clone)]
pub struct MultiNca(Arc<Image>);

/// What a [`MultiNca`] handle shares: built once by the merge, never
/// written again.
#[derive(Debug)]
struct Image {
    nca: Nca,
    plan: CompilePlan,
    alphabet: ByteAlphabet,
    /// Pattern owning each state; `u32::MAX` for the merged `q0`.
    pattern_of_state: Vec<u32>,
    pattern_count: usize,
    /// Immutable engine tables, built once here so every
    /// [`MultiNca::engine`] call only allocates mutable state.
    tables: EngineTables,
    /// The counted states as counter modules, built once here for every
    /// [`HybridEngine`] of this automaton.
    bank: CounterBank,
}

impl MultiNca {
    /// Merges per-pattern automata (with their storage plans) into one,
    /// computing the shared byte-class alphabet from the union of the
    /// parts' predicates.
    ///
    /// Per-pattern storage modes — including
    /// [`StorageMode::CountingSet`] queues — carry over unchanged: the
    /// merge maps states and transitions 1:1 into disjoint id ranges, so
    /// counting-set eligibility of a state is preserved.
    ///
    /// # Panics
    ///
    /// Panics if a plan's length does not match its automaton.
    pub fn merge(parts: &[(&Nca, CompilePlan)]) -> MultiNca {
        MultiNca::merge_with_alphabet(parts, union_alphabet(parts))
    }

    /// Like [`MultiNca::merge`], but with an externally supplied
    /// byte-class alphabet — the sharded configuration, where one
    /// alphabet is computed once over the *whole* pattern set and shared
    /// by every per-shard automaton, so the input decoder classifies
    /// each byte once for all shards.
    ///
    /// `alphabet` must *refine* every state predicate of `parts`: each
    /// equivalence class is either fully inside or disjoint from every
    /// state's class. Any alphabet built from a [`ByteClassSet`] that saw
    /// (at least) all the parts' predicates satisfies this.
    ///
    /// # Panics
    ///
    /// Same as [`MultiNca::merge`].
    pub fn merge_with_alphabet(parts: &[(&Nca, CompilePlan)], alphabet: ByteAlphabet) -> MultiNca {
        let mut states: Vec<State> = vec![State {
            class: recama_syntax::ByteClass::EMPTY,
            counters: Vec::new(),
            accepts: Vec::new(),
        }];
        let mut counters = Vec::new();
        let mut transitions: Vec<Transition> = Vec::new();
        let mut modes: Vec<StorageMode> = vec![StorageMode::PureBit];
        let mut pattern_of_state: Vec<u32> = vec![u32::MAX];

        for (pi, (nca, plan)) in parts.iter().enumerate() {
            assert_eq!(plan.len(), nca.state_count(), "plan/automaton mismatch");
            // Local state j (j ≥ 1) lands at state_base + j - 1; local
            // counter k lands at counter_base + k.
            let state_base = states.len() as u32;
            let counter_base = counters.len() as u32;
            let map_state = |q: StateId| -> StateId {
                if q == StateId::INIT {
                    StateId::INIT
                } else {
                    StateId(state_base + q.0 - 1)
                }
            };
            let map_counter = |c: crate::nca::CounterId| crate::nca::CounterId(counter_base + c.0);
            let map_guard = |g: &GuardAtom| match *g {
                GuardAtom::Lt(c, n) => GuardAtom::Lt(map_counter(c), n),
                GuardAtom::Range(c, lo, hi) => GuardAtom::Range(map_counter(c), lo, hi),
                GuardAtom::Ge(c, m) => GuardAtom::Ge(map_counter(c), m),
                GuardAtom::Eq(c, n) => GuardAtom::Eq(map_counter(c), n),
            };
            for (qi, s) in nca.states().iter().enumerate().skip(1) {
                debug_assert!(
                    (0..=255u8).all(|b| s.class.contains(b)
                        == s.class
                            .contains(alphabet.representative(alphabet.class_of(b)))),
                    "alphabet does not refine a state predicate of pattern {pi}"
                );
                states.push(State {
                    class: s.class,
                    counters: s.counters.iter().map(|&c| map_counter(c)).collect(),
                    accepts: s
                        .accepts
                        .iter()
                        .map(|conj| conj.iter().map(map_guard).collect())
                        .collect(),
                });
                modes.push(plan.mode(StateId(qi as u32)));
                pattern_of_state.push(pi as u32);
            }
            counters.extend_from_slice(nca.counters());
            for t in nca.transitions() {
                transitions.push(Transition {
                    from: map_state(t.from),
                    to: map_state(t.to),
                    guard: t.guard.iter().map(map_guard).collect(),
                    actions: t
                        .actions
                        .iter()
                        .map(|op| match *op {
                            ActionOp::Set(c, v) => ActionOp::Set(map_counter(c), v),
                            ActionOp::Inc(c) => ActionOp::Inc(map_counter(c)),
                            ActionOp::IncSat(c, cap) => ActionOp::IncSat(map_counter(c), cap),
                        })
                        .collect(),
                });
            }
        }

        let nca = Nca::new(states, counters, transitions);
        // The merge maps per-pattern states/transitions 1:1 with no
        // cross-pattern edges, so the `σ{m,n}` shape that justifies a
        // queue survives it.
        debug_assert!(
            modes
                .iter()
                .enumerate()
                .all(|(qi, &m)| m != StorageMode::CountingSet
                    || counting_set_eligible(&nca, StateId(qi as u32))),
            "merge must preserve counting-set eligibility"
        );
        let plan = CompilePlan::from_modes(modes);
        let tables = EngineTables::build(&nca, &plan, &alphabet);
        let bank = CounterBank::build(&nca, &plan, &alphabet, &pattern_of_state);
        MultiNca(Arc::new(Image {
            nca,
            plan,
            alphabet,
            pattern_of_state,
            pattern_count: parts.len(),
            tables,
            bank,
        }))
    }

    /// The merged automaton.
    pub fn nca(&self) -> &Nca {
        &self.0.nca
    }

    /// The merged storage plan.
    pub fn plan(&self) -> &CompilePlan {
        &self.0.plan
    }

    /// The shared byte-class alphabet of the whole set.
    pub fn alphabet(&self) -> &ByteAlphabet {
        &self.0.alphabet
    }

    /// Number of merged patterns.
    pub fn pattern_count(&self) -> usize {
        self.0.pattern_count
    }

    /// The pattern owning state `q` (`None` for the merged `q0`).
    pub fn pattern_of(&self, q: StateId) -> Option<u32> {
        match self.0.pattern_of_state[q.index()] {
            u32::MAX => None,
            p => Some(p),
        }
    }

    /// Creates a batched engine over the merged automaton.
    pub fn engine(&self) -> MultiEngine {
        MultiEngine::new(self)
    }

    /// Creates a hybrid lazy-DFA overlay engine (see
    /// [`crate::HybridEngine`]): determinized byte-class rows for the
    /// pure part of the frontier, a bank of counter modules stepped
    /// exactly for the live counter-carrying states only, at most
    /// `state_budget` cached DFA states.
    /// The engine gets a [`HybridCache`] of its own; engines that should
    /// share their rows are made with [`MultiNca::hybrid_engine_on`].
    pub fn hybrid_engine(&self, state_budget: usize) -> HybridEngine {
        HybridEngine::new(self, state_budget)
    }

    /// An empty [`HybridCache`] for this automaton: the determinized
    /// rows every [`MultiNca::hybrid_engine_on`] engine of it can share,
    /// at most `state_budget` states at a time.
    pub fn hybrid_cache(&self, state_budget: usize) -> HybridCache {
        HybridCache::new(self, state_budget)
    }

    /// Creates a hybrid engine that reads and fills the shared `cache`
    /// (made by [`MultiNca::hybrid_cache`] **of this automaton**) — one
    /// flow of many scanning the same rows.
    ///
    /// # Panics
    ///
    /// Panics if `cache` was made for an automaton of a different size.
    pub fn hybrid_engine_on(&self, cache: &HybridCache) -> HybridEngine {
        HybridEngine::on(self, cache)
    }

    /// The immutable engine tables (shared by every engine instance).
    pub(crate) fn tables(&self) -> &EngineTables {
        &self.0.tables
    }

    /// The counter modules (shared by every hybrid engine instance).
    pub(crate) fn bank(&self) -> &CounterBank {
        &self.0.bank
    }
}

/// A pattern set partitioned into shards: one [`MultiNca`] per shard,
/// all sharing a single [`ByteAlphabet`] computed once over the union of
/// every pattern's predicates.
///
/// A shard here is whatever part of the partition the caller hands to
/// [`ShardedMulti::merge`]: `recama` passes its *scan groups* — the rules
/// whose lazy-DFA rows are expected to fit one cache — not the bank plan
/// of the hardware images, and a flow runs one engine per part. Because
/// the alphabet is shared, every part classifies an input byte
/// identically, mirroring the single input decoder that feeds all banks.
///
/// Per-shard reports carry *local* pattern indices; translate them with
/// [`ShardedMulti::global_pattern`].
#[derive(Debug)]
pub struct ShardedMulti {
    shards: Vec<MultiNca>,
    /// Global pattern index per (shard, local pattern index); each
    /// [`ShardStream`] of a shard shares its slice.
    members: Vec<Arc<[u32]>>,
    alphabet: ByteAlphabet,
    pattern_count: usize,
}

impl ShardedMulti {
    /// Merges `parts` (indexed globally) into one automaton per shard.
    /// `shards` must partition `0..parts.len()` with strictly ascending
    /// members per shard, so that per-shard report order (ascending local
    /// index within a step) translates to ascending global order.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is not such a partition, or under the
    /// [`MultiNca::merge`] conditions.
    pub fn merge(parts: &[(&Nca, CompilePlan)], shards: &[Vec<usize>]) -> ShardedMulti {
        let mut seen = vec![false; parts.len()];
        for members in shards {
            for window in members.windows(2) {
                assert!(window[0] < window[1], "shard members must be ascending");
            }
            for &i in members {
                assert!(
                    i < parts.len() && !std::mem::replace(&mut seen[i], true),
                    "shards must partition the pattern indices (bad index {i})"
                );
            }
        }
        assert!(
            seen.iter().all(|&s| s),
            "shards must cover every pattern exactly once"
        );

        let alphabet = union_alphabet(parts);
        let built: Vec<MultiNca> = shards
            .iter()
            .map(|members| {
                let sub: Vec<(&Nca, CompilePlan)> = members
                    .iter()
                    .map(|&i| (parts[i].0, parts[i].1.clone()))
                    .collect();
                MultiNca::merge_with_alphabet(&sub, alphabet.clone())
            })
            .collect();
        ShardedMulti {
            shards: built,
            members: shards
                .iter()
                .map(|m| m.iter().map(|&i| i as u32).collect())
                .collect(),
            alphabet,
            pattern_count: parts.len(),
        }
    }

    /// Number of shards (≥ 1 whenever built from a `ShardPlan`-style
    /// partition; 0 only if `shards` was empty).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The per-shard merged automata.
    pub fn shards(&self) -> &[MultiNca] {
        &self.shards
    }

    /// The merged automaton of shard `i`.
    pub fn shard(&self, i: usize) -> &MultiNca {
        &self.shards[i]
    }

    /// The alphabet shared by every shard.
    pub fn alphabet(&self) -> &ByteAlphabet {
        &self.alphabet
    }

    /// Total number of patterns across all shards.
    pub fn pattern_count(&self) -> usize {
        self.pattern_count
    }

    /// Global pattern indices of shard `i` (ascending), indexed by the
    /// shard's local pattern index.
    pub fn shard_members(&self, i: usize) -> &[u32] {
        &self.members[i]
    }

    /// Translates a shard-local pattern index to the global index.
    pub fn global_pattern(&self, shard: usize, local: u32) -> u32 {
        self.members[shard][local as usize]
    }

    /// One empty [`HybridCache`] per shard, each bounded by
    /// `state_budget` — the rows the hybrid [`ShardedMulti::shard_stream`]s
    /// of a shard share. Whoever owns the set keeps them for as long as
    /// the rows should stay warm.
    pub fn hybrid_caches(&self, state_budget: usize) -> Vec<HybridCache> {
        self.shards
            .iter()
            .map(|m| m.hybrid_cache(state_budget))
            .collect()
    }

    /// A fresh scanning state for shard `i`, reporting **global** pattern
    /// indices — the unit a many-flow scheduler checks out. On `cache` —
    /// shard `i`'s entry of [`ShardedMulti::hybrid_caches`], shared with
    /// every other stream of that shard — it scans with the hybrid
    /// lazy-DFA overlay (see [`crate::HybridEngine`]); without one, with
    /// the exact NCA engine.
    pub fn shard_stream(&self, i: usize, cache: Option<&HybridCache>) -> ShardStream {
        let multi = &self.shards[i];
        ShardStream {
            members: Arc::clone(&self.members[i]),
            shard: i,
            engine: match cache {
                Some(cache) => StreamEngine::Hybrid(Box::new(multi.hybrid_engine_on(cache))),
                None => StreamEngine::Nca(Box::new(multi.engine())),
            },
        }
    }
}

/// A resumable per-shard scanning state: ONE shard's batched engine plus
/// the shard-local → global report translation, independent of its
/// sibling shards so each can be advanced on its own.
///
/// All shards of a [`ShardedMulti`] scan the *same* logical byte stream;
/// a `ShardStream` tracks its own position in that stream, so a scheduler
/// can hand different shards of one flow to different workers and let
/// them progress at different rates. The stream owns everything it
/// scans with — its mutable engine state, a handle on the shard's
/// immutable [`MultiNca`] (and, for a hybrid stream, on the shard's
/// [`HybridCache`]: the rows stay there, shared, as warm as the shard's
/// other flows have made them) and the shard's slice of global pattern
/// indices — so it is `'static + Send`: a serving layer parks it in a
/// flow table between scans as it is, and it outlives the
/// [`ShardedMulti`] it came from.
pub struct ShardStream {
    members: Arc<[u32]>,
    shard: usize,
    engine: StreamEngine,
}

/// The execution strategy behind one [`ShardStream`]: the exact batched
/// NCA engine, or the lazy-DFA hybrid overlay. Both variants are boxed:
/// streams move between workers at every checkout/check-in, and the
/// engines are hundreds of bytes of inline state.
enum StreamEngine {
    Nca(Box<MultiEngine>),
    Hybrid(Box<HybridEngine>),
}

impl ShardStream {
    /// The shard index this stream advances.
    pub fn shard(&self) -> usize {
        self.shard
    }

    /// Bytes of the logical stream this shard has consumed.
    pub fn position(&self) -> u64 {
        match &self.engine {
            StreamEngine::Nca(e) => e.position(),
            StreamEngine::Hybrid(e) => e.position(),
        }
    }

    /// This stream's **own** hybrid-overlay counters — the byte counters;
    /// `dfa_states` and `flushes` are 0 because they belong to the
    /// shard's cache ([`HybridCache::stats`]), which an aggregate counts
    /// once per shard, not once per flow. `None` for an exact-NCA stream.
    pub fn hybrid_stats(&self) -> Option<HybridStats> {
        match &self.engine {
            StreamEngine::Nca(_) => None,
            StreamEngine::Hybrid(e) => Some(e.byte_counters()),
        }
    }

    /// Returns this shard to the start of the stream.
    pub fn reset(&mut self) {
        self.restart_at(0);
    }

    /// Resets this shard's frontier and resumes counting bytes from
    /// absolute offset `position` — the literal-prefilter wake-up
    /// primitive (a cold shard's engine skips ahead without scanning the
    /// skipped bytes).
    pub fn restart_at(&mut self, position: u64) {
        match &mut self.engine {
            StreamEngine::Nca(e) => e.restart_at(position),
            StreamEngine::Hybrid(e) => e.restart_at(position),
        }
    }

    /// Consumes `chunk`, appending reports with **global** pattern
    /// indices and absolute 1-based end offsets to `out`. Appended
    /// reports are sorted by `(end, pattern)`: ends ascend with the
    /// stream position, and within one step the engine emits ascending
    /// local indices, which ascending shard members keep ascending
    /// globally.
    pub fn feed_into(&mut self, chunk: &[u8], out: &mut Vec<MultiReport>) {
        let start = out.len();
        match &mut self.engine {
            StreamEngine::Nca(e) => e.feed_into(chunk, out),
            StreamEngine::Hybrid(e) => e.feed_into(chunk, out),
        }
        for r in &mut out[start..] {
            r.pattern = self.members[r.pattern as usize];
        }
    }
}

impl std::fmt::Debug for ShardStream {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "ShardStream(shard = {}, position = {})",
            self.shard,
            self.position()
        )
    }
}

/// The byte-class alphabet induced by the union of all parts' state
/// predicates — the partition every merged engine (single or sharded)
/// classifies input bytes with.
fn union_alphabet(parts: &[(&Nca, CompilePlan)]) -> ByteAlphabet {
    let mut class_set = ByteClassSet::new();
    for (nca, _) in parts {
        for s in nca.states().iter().skip(1) {
            class_set.add(&s.class);
        }
    }
    class_set.freeze()
}

/// One outgoing transition, slot-resolved and class-indexed.
#[derive(Debug)]
pub(crate) struct OutEdge {
    pub(crate) to: u32,
    pub(crate) guard: Vec<SlotTest>,
    pub(crate) dst: Vec<SlotSrc>,
}

/// The immutable, shareable part of the batched engine: edge programs,
/// finalization predicates, and class-membership bitsets. Built once per
/// [`MultiNca`]; every engine instance reads it through its handle.
#[derive(Debug)]
pub(crate) struct EngineTables {
    /// Outgoing edge programs per state.
    pub(crate) out_edges: Vec<Vec<OutEdge>>,
    /// Slot-resolved finalization DNF per state.
    pub(crate) accepts: Vec<Vec<Vec<SlotTest>>>,
    /// `class_member[c]` is a bitset over states: bit `q` set iff the
    /// equivalence class `c` is inside `class(q)`.
    pub(crate) class_member: Vec<Vec<u64>>,
    /// Bitset over states: bit `q` set iff state `q` carries a counter.
    counted_mask: Vec<u64>,
    /// Whether each state uses the counting-set queue representation.
    is_queue: Vec<bool>,
    /// For queue states: whether the state has the self-loop increment
    /// edge (its tokens survive a matching byte).
    queue_self_loop: Vec<bool>,
}

impl EngineTables {
    fn build(nca: &Nca, plan: &CompilePlan, alphabet: &ByteAlphabet) -> EngineTables {
        let n = nca.state_count();
        let words = n.div_ceil(64);
        let out_edges = (0..n)
            .map(|qi| {
                nca.transitions_from(StateId(qi as u32))
                    .map(|t| {
                        let (guard, dst) = resolve_transition(nca, t);
                        OutEdge {
                            to: t.to.0,
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
        let class_member = alphabet
            .classes()
            .map(|(_, rep)| {
                let mut row = vec![0u64; words];
                for (qi, s) in nca.states().iter().enumerate().skip(1) {
                    if s.class.contains(rep) {
                        row[qi / 64] |= 1 << (qi % 64);
                    }
                }
                row
            })
            .collect();
        let mut counted_mask = vec![0u64; words];
        for (qi, s) in nca.states().iter().enumerate() {
            if !s.counters.is_empty() {
                counted_mask[qi / 64] |= 1 << (qi % 64);
            }
        }
        let is_queue: Vec<bool> = (0..n)
            .map(|qi| plan.mode(StateId(qi as u32)) == StorageMode::CountingSet)
            .collect();
        let queue_self_loop = (0..n)
            .map(|qi| {
                is_queue[qi]
                    && nca
                        .transitions_into(StateId(qi as u32))
                        .any(|t| t.from.index() == qi)
            })
            .collect();
        EngineTables {
            out_edges,
            accepts,
            class_member,
            counted_mask,
            is_queue,
            queue_self_loop,
        }
    }
}

/// The batched multi-pattern engine. See the module docs.
///
/// It owns its mutable state and a handle on the [`MultiNca`] it steps,
/// so it is `'static + Send` and can be kept wherever a scan left it.
pub struct MultiEngine {
    multi: MultiNca,
    /// Per-state token storage for the current / next configuration.
    cur: Vec<Storage>,
    nxt: Vec<Storage>,
    /// Bitset over states: `cur[q]` holds at least one token.
    active: Vec<u64>,
    next_active: Vec<u64>,
    /// Generation stamps for lazy clearing of `nxt`.
    stamp: Vec<u64>,
    generation: u64,
    /// Reusable destination-valuation buffer.
    value_scratch: Vec<u32>,
    /// Per-pattern stamp deduplicating reports within one step.
    report_stamp: Vec<u64>,
    /// Counting-set scratch: queue states reached by this step's frontier.
    touched_queues: Vec<u32>,
    /// Generation stamp marking queue states already in `touched_queues`.
    queue_touch_stamp: Vec<u64>,
    /// Whether a guarded entry edge fired into each touched queue state.
    queue_entry_hit: Vec<bool>,
    /// Stream position (bytes consumed since reset).
    position: u64,
    conflicts: u64,
}

impl MultiEngine {
    /// Builds an engine over `multi`'s shared tables; only the mutable
    /// per-engine state (token storage, frontiers, stamps) is allocated.
    pub fn new(multi: &MultiNca) -> MultiEngine {
        let nca = multi.nca();
        let n = nca.state_count();
        let words = n.div_ceil(64);
        let storage_for = |qi: usize| {
            let s = &nca.states()[qi];
            let bound = s
                .counters
                .first()
                .map(|&c| nca.counter(c).bound())
                .unwrap_or(0);
            Storage::new(multi.plan().mode(StateId(qi as u32)), bound)
        };
        let mut e = MultiEngine {
            multi: multi.clone(),
            cur: (0..n).map(storage_for).collect(),
            nxt: (0..n).map(storage_for).collect(),
            active: vec![0; words],
            next_active: vec![0; words],
            stamp: vec![0; n],
            generation: 0,
            value_scratch: Vec::new(),
            report_stamp: vec![0; multi.pattern_count()],
            touched_queues: Vec::new(),
            queue_touch_stamp: vec![0; n],
            queue_entry_hit: vec![false; n],
            position: 0,
            conflicts: 0,
        };
        e.reset();
        e
    }

    /// Returns to the initial configuration (stream position 0).
    pub fn reset(&mut self) {
        self.restart_at(0);
    }

    /// Bytes consumed since the last reset.
    pub fn position(&self) -> u64 {
        self.position
    }

    /// Returns to the initial configuration (only `q0` live, stamps and
    /// conflict count rewound) but reports subsequent matches as if the
    /// stream started at absolute offset `position` — the primitive
    /// behind prefilter wake-up, where a cold shard's engine teleports
    /// past skipped bytes and resumes with a fresh `Σ*` frontier (sound
    /// because a fresh frontier at any offset is a subset of the true
    /// frontier there, and over-approximates nothing the search form
    /// `Σ*·r` would not restart anyway).
    pub fn restart_at(&mut self, position: u64) {
        for w in &mut self.active {
            *w = 0;
        }
        for s in &mut self.cur {
            s.clear();
        }
        self.stamp.iter_mut().for_each(|s| *s = 0);
        self.report_stamp.iter_mut().for_each(|s| *s = 0);
        self.queue_touch_stamp.iter_mut().for_each(|s| *s = 0);
        self.generation = 0;
        self.conflicts = 0;
        self.cur[0] = Storage::PureBit(true);
        self.active[0] = 1;
        self.position = position;
    }

    /// Number of `SingleValue` collisions observed (must stay 0 when the
    /// plans came from a sound analysis; see [`crate::CompiledEngine`]).
    pub fn conflicts(&self) -> u64 {
        self.conflicts
    }

    /// Number of live (token-holding) states — the frontier size the
    /// per-byte work scales with.
    pub fn active_states(&self) -> usize {
        self.active.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether any counter-carrying state is live. O(state words): one
    /// AND against the precomputed counted-state mask.
    pub fn counting_active(&self) -> bool {
        self.active
            .iter()
            .zip(&self.multi.tables().counted_mask)
            .any(|(a, m)| a & m != 0)
    }

    /// Consumes one byte, appending `(pattern, end)` reports to `out`.
    ///
    /// Reports are deduplicated per pattern and appended in merged state
    /// order. Because [`MultiNca::merge`] lays out each pattern's states
    /// contiguously in pattern order and the frontier is walked in state
    /// order, this is **ascending pattern order within one step** — a
    /// guaranteed contract: the sharded ordered merge
    /// (`ShardedPatternSet` in `recama`) relies on it to recombine
    /// per-shard reports byte-identically. `end` is the current 1-based
    /// stream offset.
    pub fn step_into(&mut self, byte: u8, out: &mut Vec<MultiReport>) {
        self.position += 1;
        let class = self.multi.alphabet().class_of(byte);
        self.advance(class);
        self.collect_reports(out);
    }

    /// Moves every live token over one byte of `class` and swaps the
    /// configuration buffers.
    fn advance(&mut self, class: usize) {
        self.generation = self.generation.wrapping_add(1);
        let generation = self.generation;
        let tables = self.multi.tables();
        let member_row = &tables.class_member[class];
        for w in &mut self.next_active {
            *w = 0;
        }
        let cur = &self.cur;
        let nxt = &mut self.nxt;
        let stamp = &mut self.stamp;
        let next_active = &mut self.next_active;
        let value_scratch = &mut self.value_scratch;
        let touched_queues = &mut self.touched_queues;
        let queue_touch_stamp = &mut self.queue_touch_stamp;
        let queue_entry_hit = &mut self.queue_entry_hit;
        touched_queues.clear();
        let mut conflicts = 0u64;
        let mut fire = |p: usize, src: &Storage, edge: &OutEdge| {
            let q = edge.to as usize;
            if member_row[q / 64] & (1 << (q % 64)) == 0 {
                return;
            }
            if tables.is_queue[q] {
                // Counting-set destinations are advanced by the
                // specialized pass below; here only record that the state
                // was reached and whether a (guarded) entry edge fired
                // against the *current* configuration — queues must not
                // mutate before every entry guard has been read (queue
                // states may feed each other).
                if queue_touch_stamp[q] != generation {
                    queue_touch_stamp[q] = generation;
                    queue_entry_hit[q] = false;
                    touched_queues.push(q as u32);
                }
                if p != q && !queue_entry_hit[q] {
                    let mut hit = false;
                    src.for_each(|values| {
                        hit = hit || edge.guard.iter().all(|g| g.eval(values));
                    });
                    queue_entry_hit[q] = hit;
                }
                return;
            }
            if stamp[q] != generation {
                stamp[q] = generation;
                nxt[q].clear();
            }
            let nxt_q = &mut nxt[q];
            src.for_each(|values| {
                if edge.guard.iter().all(|g| g.eval(values)) {
                    value_scratch.clear();
                    value_scratch.extend(edge.dst.iter().map(|s| s.eval(values)));
                    if nxt_q.insert(value_scratch) {
                        conflicts += 1;
                    }
                }
            });
            if !nxt_q.is_empty() {
                next_active[q / 64] |= 1 << (q % 64);
            }
        };
        for (wi, &word) in self.active.iter().enumerate() {
            let mut word = word;
            while word != 0 {
                let bit = word.trailing_zeros() as usize;
                word &= word - 1;
                let p = wi * 64 + bit;
                for edge in &tables.out_edges[p] {
                    fire(p, &cur[p], edge);
                }
            }
        }
        // Counting-set pass: each touched queue advances with one clock
        // bump (`shift`) and at most one fresh value-1 token instead of an
        // O(bound) bit-vector walk. Untouched queues (their class did not
        // match the byte, or no live predecessor reached them) simply stay
        // inactive; their stale storage is stamp-cleared on next touch.
        let cur = &mut self.cur;
        let queue_self_loop = &tables.queue_self_loop;
        for &q in touched_queues.iter() {
            let qi = q as usize;
            if stamp[qi] != generation {
                stamp[qi] = generation;
                nxt[qi].clear();
            }
            let live = self.active[qi / 64] & (1 << (qi % 64)) != 0;
            let survives = live && queue_self_loop[qi];
            if survives {
                // Move the live queue into the next buffer; the cleared
                // one swaps back and is reused on a later step.
                std::mem::swap(&mut cur[qi], &mut nxt[qi]);
            }
            match &mut nxt[qi] {
                Storage::Queue { queue, bound } => {
                    if survives {
                        queue.shift(*bound);
                    }
                    if queue_entry_hit[qi] {
                        queue.set_first();
                    }
                }
                _ => unreachable!("counting-set states use Queue storage"),
            }
            if !nxt[qi].is_empty() {
                next_active[qi / 64] |= 1 << (qi % 64);
            }
        }
        self.conflicts += conflicts;
        std::mem::swap(&mut self.cur, &mut self.nxt);
        std::mem::swap(&mut self.active, &mut self.next_active);
    }

    /// Appends one report at the current offset per pattern with a live
    /// accepting token, in ascending pattern order.
    fn collect_reports(&mut self, out: &mut Vec<MultiReport>) {
        let generation = self.generation;
        let end = self.position;
        let tables = self.multi.tables();
        for (wi, &word) in self.active.iter().enumerate() {
            let mut word = word;
            while word != 0 {
                let bit = word.trailing_zeros() as usize;
                word &= word - 1;
                let q = wi * 64 + bit;
                let disjuncts = &tables.accepts[q];
                if disjuncts.is_empty() {
                    continue;
                }
                let pattern = self.multi.0.pattern_of_state[q];
                debug_assert_ne!(pattern, u32::MAX, "merged q0 never accepts");
                if self.report_stamp[pattern as usize] == generation {
                    continue; // this pattern already reported at this offset
                }
                let mut hit = false;
                self.cur[q].for_each(|values| {
                    if !hit {
                        hit = disjuncts
                            .iter()
                            .any(|conj| conj.iter().all(|g| g.eval(values)));
                    }
                });
                if hit {
                    self.report_stamp[pattern as usize] = generation;
                    out.push(MultiReport { pattern, end });
                }
            }
        }
    }

    /// Feeds a whole chunk, appending reports to `out`. Stream position
    /// persists across calls, so chunked feeding is equivalent to one
    /// contiguous scan.
    pub fn feed_into(&mut self, chunk: &[u8], out: &mut Vec<MultiReport>) {
        for &b in chunk {
            self.step_into(b, out);
        }
    }

    /// One-shot scan: resets, consumes `input`, returns all reports in
    /// stream order.
    pub fn match_reports(&mut self, input: &[u8]) -> Vec<MultiReport> {
        self.reset();
        let mut out = Vec::new();
        self.feed_into(input, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use crate::CompiledEngine;
    use recama_syntax::parse;

    fn stream_nca(pattern: &str) -> Nca {
        Nca::from_regex(&parse(pattern).unwrap().for_stream())
    }

    fn multi(patterns: &[&str]) -> MultiNca {
        let ncas: Vec<Nca> = patterns.iter().map(|p| stream_nca(p)).collect();
        let parts: Vec<(&Nca, CompilePlan)> = ncas
            .iter()
            .map(|n| (n, CompilePlan::conservative(n)))
            .collect();
        let m = MultiNca::merge(&parts);
        // `parts` borrows ncas, which drop here; MultiNca owns its copy.
        m
    }

    fn per_pattern_reports(patterns: &[&str], input: &[u8]) -> Vec<MultiReport> {
        let mut expected = Vec::new();
        for (pi, p) in patterns.iter().enumerate() {
            let nca = stream_nca(p);
            let mut engine = CompiledEngine::conservative(&nca);
            for end in engine.match_ends(input) {
                if end > 0 {
                    expected.push(MultiReport {
                        pattern: pi as u32,
                        end: end as u64,
                    });
                }
            }
        }
        expected.sort();
        expected
    }

    fn assert_agrees(patterns: &[&str], input: &[u8]) {
        let m = multi(patterns);
        let mut got = m.engine().match_reports(input);
        got.sort();
        assert_eq!(
            got,
            per_pattern_reports(patterns, input),
            "{patterns:?} on {:?}",
            String::from_utf8_lossy(input)
        );
    }

    #[test]
    fn merged_reports_equal_per_pattern_union() {
        let patterns = ["ab{2,3}c", "a{3}", "x[yz]{2}", "cab"];
        for input in [
            &b"abbc.aaa.xyz.cab"[..],
            b"abbbcabbc",
            b"aaaaaa",
            b"xzy xyy xzz",
            b"",
            b"no matches here",
        ] {
            assert_agrees(&patterns, input);
        }
    }

    #[test]
    fn overlapping_patterns_report_independently() {
        // Same trigger, different tails; plus a pattern equal to another's
        // prefix.
        let patterns = ["ka{2}", "ka{2}b", "k"];
        assert_agrees(&patterns, b"kaab kaa");
    }

    #[test]
    fn anchored_and_counting_mix() {
        let patterns = ["^a{2}b", "b{2}", "^x"];
        assert_agrees(&patterns, b"aab bb x");
        assert_agrees(&patterns, b"xaabbb");
    }

    #[test]
    fn shared_alphabet_is_smaller_than_sigma() {
        let m = multi(&["a{3}", "[ab]{2}x", "\\d{4}"]);
        // Classes: {a}, {b}, {x}, digits, rest — far fewer than 256.
        assert_eq!(m.alphabet().len(), 5);
    }

    #[test]
    fn state_attribution_covers_all_patterns() {
        let patterns = ["ab", "cd{2}"];
        let m = multi(&patterns);
        assert_eq!(m.pattern_count(), 2);
        assert_eq!(m.pattern_of(StateId::INIT), None);
        let mut seen = vec![false; patterns.len()];
        for qi in 1..m.nca().state_count() {
            let p = m
                .pattern_of(StateId(qi as u32))
                .expect("non-q0 states are owned");
            seen[p as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn chunked_feeding_matches_oneshot() {
        let patterns = ["ab{2,4}c", "x{3}", "q[rs]{2}t"];
        let m = multi(&patterns);
        let input = b"zabbbc_xxx_qrst_abbc_xxxx".to_vec();
        let mut engine = m.engine();
        let oneshot = engine.match_reports(&input);
        for chunk_len in [1usize, 2, 3, 7, input.len()] {
            let mut engine = m.engine();
            let mut chunked = Vec::new();
            for chunk in input.chunks(chunk_len) {
                engine.feed_into(chunk, &mut chunked);
            }
            assert_eq!(chunked, oneshot, "chunk length {chunk_len}");
            assert_eq!(engine.position(), input.len() as u64);
        }
    }

    #[test]
    fn frontier_stays_sparse_on_benign_input() {
        let patterns = ["needle{2}x", "spike[ab]{3}", "^anchored{2}"];
        let m = multi(&patterns);
        let mut engine = m.engine();
        let mut out = Vec::new();
        for &b in b"purely unrelated traffic ........." {
            engine.step_into(b, &mut out);
        }
        // Only the Σ* self-loop states (one per unanchored pattern) and
        // occasional literal heads stay live.
        assert!(engine.active_states() <= 8, "{}", engine.active_states());
        assert!(out.is_empty());
    }

    #[test]
    fn empty_set_matches_nothing() {
        let m = MultiNca::merge(&[]);
        let mut engine = m.engine();
        assert!(engine.match_reports(b"anything").is_empty());
        assert_eq!(m.pattern_count(), 0);
    }

    fn sharded(patterns: &[&str], shards: &[Vec<usize>]) -> ShardedMulti {
        let ncas: Vec<Nca> = patterns.iter().map(|p| stream_nca(p)).collect();
        let parts: Vec<(&Nca, CompilePlan)> = ncas
            .iter()
            .map(|n| (n, CompilePlan::conservative(n)))
            .collect();
        ShardedMulti::merge(&parts, shards)
    }

    #[test]
    fn sharded_union_equals_single_merge() {
        let patterns = ["ab{2,3}c", "a{3}", "x[yz]{2}", "cab", "k\\d{2}"];
        let input = b"abbc.aaa.xyz.cab.k42.abbbc";
        let single = multi(&patterns);
        let mut expected = single.engine().match_reports(input);
        expected.sort();
        for shards in [
            vec![vec![0, 1, 2, 3, 4]],
            vec![vec![0, 1], vec![2, 3], vec![4]],
            vec![vec![0], vec![1], vec![2], vec![3], vec![4]],
            vec![vec![0, 1, 2], vec![3, 4]],
        ] {
            let sm = sharded(&patterns, &shards);
            let mut got = Vec::new();
            for (si, shard) in sm.shards().iter().enumerate() {
                for r in shard.engine().match_reports(input) {
                    got.push(MultiReport {
                        pattern: sm.global_pattern(si, r.pattern),
                        end: r.end,
                    });
                }
            }
            got.sort();
            assert_eq!(got, expected, "shards {shards:?}");
        }
    }

    #[test]
    fn shards_share_the_union_alphabet() {
        let sm = sharded(&["a{3}", "[ab]{2}x", "\\d{4}"], &[vec![0, 1], vec![2]]);
        // Union classes: {a}, {b}, {x}, digits, rest — even though shard 1
        // alone would only need {digits, rest}.
        assert_eq!(sm.alphabet().len(), 5);
        for shard in sm.shards() {
            assert_eq!(shard.alphabet().len(), 5, "every shard sees the union");
        }
        assert_eq!(sm.pattern_count(), 3);
        assert_eq!(sm.shard_members(1), &[2]);
    }

    #[test]
    fn merge_with_alphabet_accepts_finer_partitions() {
        // An alphabet refined by predicates the pattern never uses is fine.
        let nca = stream_nca("a{2}b");
        let mut class_set = ByteClassSet::new();
        for s in nca.states().iter().skip(1) {
            class_set.add(&s.class);
        }
        class_set.add(&recama_syntax::ByteClass::digit()); // extra refinement
        let parts = [(&nca, CompilePlan::conservative(&nca))];
        let m = MultiNca::merge_with_alphabet(&parts, class_set.freeze());
        let reports = m.engine().match_reports(b"xaab aab");
        assert_eq!(reports.len(), 2);
    }

    #[test]
    #[should_panic(expected = "cover every pattern")]
    fn sharded_merge_rejects_incomplete_partitions() {
        sharded(&["ab", "cd"], &[vec![0]]);
    }

    #[test]
    #[should_panic(expected = "partition the pattern indices")]
    fn sharded_merge_rejects_duplicates() {
        sharded(&["ab", "cd"], &[vec![0, 1], vec![1]]);
    }

    #[test]
    fn shard_streams_translate_and_resume_independently() {
        let patterns = ["ab{2,3}c", "a{3}", "x[yz]{2}", "cab", "k\\d{2}"];
        let input = b"abbc.aaa.xyz.cab.k42.abbbc";
        let mut expected = multi(&patterns).engine().match_reports(input);
        expected.sort();

        let sm = sharded(&patterns, &[vec![0, 1], vec![2, 3], vec![4]]);
        let mut streams: Vec<ShardStream> = (0..sm.shard_count())
            .map(|si| sm.shard_stream(si, None))
            .collect();
        let mut got = Vec::new();
        // Advance shards at *different* rates and in arbitrary order —
        // each keeps its own position in the logical stream.
        for (si, stream) in streams.iter_mut().enumerate() {
            assert_eq!(stream.shard(), si);
            for chunk in input.chunks(si + 1) {
                stream.feed_into(chunk, &mut got);
            }
            assert_eq!(stream.position(), input.len() as u64);
        }
        got.sort();
        assert_eq!(got, expected, "reports carry global pattern ids");
    }

    /// What owning the handle promises, checked by the compiler.
    #[test]
    fn engines_are_static_and_send() {
        fn assert_static_send<T: Send + 'static>() {}
        fn assert_shared<T: Clone + Send + Sync>() {}
        assert_static_send::<HybridEngine>();
        assert_static_send::<MultiEngine>();
        assert_static_send::<ShardStream>();
        assert_shared::<MultiNca>();
    }

    #[test]
    fn a_stream_outlives_the_set_it_came_from() {
        let patterns = ["k.{4}z", "x[ab]{2,5}y", "plain"];
        let input = b"plain k.xabz xbby plain k....z";
        let cut = 10; // "k.xa": both counters are counting
        let mut exact = multi(&patterns).engine();
        let mut expected = Vec::new();
        exact.feed_into(&input[..cut], &mut expected);
        assert!(exact.counting_active(), "the cut is mid-count");
        exact.feed_into(&input[cut..], &mut expected);
        assert_eq!(expected.len(), 5);
        expected.sort();
        for hybrid in [false, true] {
            let sm = sharded(&patterns, &[vec![0], vec![1, 2]]);
            let caches = sm.hybrid_caches(crate::DEFAULT_STATE_BUDGET);
            let mut streams: Vec<ShardStream> = (0..sm.shard_count())
                .map(|si| sm.shard_stream(si, hybrid.then(|| &caches[si])))
                .collect();
            let mut got = Vec::new();
            for stream in &mut streams {
                assert_eq!(stream.hybrid_stats().is_some(), hybrid);
                stream.feed_into(&input[..cut], &mut got);
            }
            drop((sm, caches));
            for stream in &mut streams {
                stream.feed_into(&input[cut..], &mut got);
                assert_eq!(stream.position(), input.len() as u64);
            }
            got.sort();
            assert_eq!(got, expected, "hybrid: {hybrid}");
        }
    }

    #[test]
    fn conflicts_stay_zero_with_sound_plans() {
        let patterns = [".*a{3}", "k.{2,5}z"];
        let m = multi(&patterns);
        let mut engine = m.engine();
        engine.match_reports(b"aaaa k..z aaa kzzzzz");
        assert_eq!(engine.conflicts(), 0);
    }

    /// Differential: the ported counting-set queue pass must be
    /// byte-identical to the bit-vector plan on bounded-repeat rulesets,
    /// across chunk boundaries.
    #[test]
    fn counting_set_multi_engine_matches_bitvector_plan() {
        let rulesets: [&[&str]; 3] = [
            &[".*a{3}", "k.{2,5}z", "ab{2,3}c"],
            &["x[ab]{2,5}y", "a{2,3}c{2,3}", "plain"],
            &[".*[ab][^a]{3}", "b{4}", "^q{2,4}t"],
        ];
        for patterns in rulesets {
            let ncas: Vec<Nca> = patterns.iter().map(|p| stream_nca(p)).collect();
            let queue_parts: Vec<(&Nca, CompilePlan)> = ncas
                .iter()
                .map(|n| (n, CompilePlan::counting_sets(n)))
                .collect();
            let bits_parts: Vec<(&Nca, CompilePlan)> = ncas
                .iter()
                .map(|n| (n, CompilePlan::conservative(n)))
                .collect();
            let queues = MultiNca::merge(&queue_parts);
            assert!(
                queues
                    .plan()
                    .iter()
                    .any(|(_, m)| m == StorageMode::CountingSet),
                "{patterns:?}: ruleset must exercise the queue pass"
            );
            let bits = MultiNca::merge(&bits_parts);
            for input in [
                &b"aaaa k..z abbc kzzzzz"[..],
                b"xaby xabababy aacc aaccc plain",
                b"bbbb qqt abxxx kaaz",
                b"",
            ] {
                let expected = bits.engine().match_reports(input);
                assert_eq!(
                    queues.engine().match_reports(input),
                    expected,
                    "{patterns:?} on {:?}",
                    String::from_utf8_lossy(input)
                );
                // Chunked feeding hits the stamp-based lazy clears too.
                for chunk_len in [1usize, 2, 5] {
                    let mut engine = queues.engine();
                    let mut got = Vec::new();
                    for chunk in input.chunks(chunk_len) {
                        engine.feed_into(chunk, &mut got);
                    }
                    assert_eq!(got, expected, "chunk length {chunk_len}");
                }
            }
        }
    }

    /// Live counter-carrying states of `engine`.
    fn counted_live(engine: &MultiEngine) -> u64 {
        engine
            .active
            .iter()
            .zip(&engine.multi.tables().counted_mask)
            .map(|(a, m)| u64::from((a & m).count_ones()))
            .sum()
    }

    /// The hybrid overlay's stat definitions
    /// ([`HybridStats::fallback_bytes`](crate::HybridStats::fallback_bytes)),
    /// against a reference exact engine over the same bytes — the
    /// count-based, timer-free check that only counted states are stepped
    /// exactly, and only on bytes where one can be seen. The one counting
    /// rule here is the counting set `.{55}`: every wake of it is taken
    /// (it loops on `.`, so its token survives any next byte); it is due
    /// when its oldest token goes from 54 to 55, and stepped once more to
    /// drop that token; on every other byte it is live before, it sleeps.
    /// The exact work on a fallback byte is the counted states live
    /// before it, however many pure states the frontier holds. None of it
    /// depends on the chunking. (Wakes that die at once, whose count
    /// does, are pinned by the look-ahead tests in `hybrid.rs`.)
    #[test]
    fn hybrid_steps_only_counted_states_exactly() {
        let mut patterns: Vec<String> = (0..24)
            .map(|i| format!(".*w{}[a-f]x{}", i % 7, i / 7))
            .collect();
        patterns.push("h.{55}".into());
        let patterns: Vec<&str> = patterns.iter().map(String::as_str).collect();
        let ncas: Vec<Nca> = patterns.iter().map(|p| stream_nca(p)).collect();
        let parts: Vec<(&Nca, CompilePlan)> = ncas
            .iter()
            .map(|n| (n, CompilePlan::optimized(n, |_| false)))
            .collect();
        let m = MultiNca::merge(&parts);
        let mut input = Vec::new();
        for i in 0..40u32 {
            input.extend_from_slice(format!("w{}ax{} ", i % 7, i % 4).as_bytes());
            if i % 5 == 0 {
                input.extend_from_slice(b"h");
            }
            input.extend(std::iter::repeat_n(b'.', (i * 7 % 31) as usize));
        }

        let counting = m.nca().states().iter().position(|s| !s.is_pure()).unwrap();
        // The values of the counting set's tokens.
        let values = |engine: &MultiEngine| {
            let mut values = Vec::new();
            if counted_live(engine) > 0 {
                engine.cur[counting].for_each(|v| values.push(v[0]));
            }
            values
        };
        let mut reference = m.engine();
        let mut expected = Vec::new();
        let (mut fallback_bytes, mut slept_bytes, mut counted_steps) = (0u64, 0u64, 0u64);
        let mut frontier = 0u64;
        for &b in &input {
            let before = counted_live(&reference);
            let due = values(&reference).iter().any(|&v| v >= 54);
            frontier += reference.active_states() as u64;
            reference.step_into(b, &mut expected);
            let woken = values(&reference).contains(&1);
            if woken || due {
                fallback_bytes += 1;
                counted_steps += before;
            } else {
                slept_bytes += before;
            }
        }
        assert!(fallback_bytes > 0 && slept_bytes > 5 * fallback_bytes);

        for chunk_len in [1usize, 3, 7, input.len()] {
            let mut hybrid = m.hybrid_engine(crate::DEFAULT_STATE_BUDGET);
            let mut got = Vec::new();
            for chunk in input.chunks(chunk_len) {
                hybrid.feed_into(chunk, &mut got);
            }
            assert_eq!(got, expected, "chunk length {chunk_len}");
            let stats = hybrid.stats();
            assert_eq!(stats.fallback_bytes, fallback_bytes);
            assert_eq!(stats.slept_bytes, slept_bytes);
            assert_eq!(stats.dfa_bytes + stats.fallback_bytes, input.len() as u64);
            assert_eq!(stats.exact_state_steps, counted_steps);
            assert!(stats.exact_state_steps <= 2 * stats.fallback_bytes);
        }
        // The whole frontier is an order of magnitude more than that.
        assert!(
            frontier > 10 * counted_steps,
            "{frontier} vs {counted_steps}"
        );
    }

    /// The optimized plan (analysis + counting sets) stays exact on the
    /// merged engine.
    #[test]
    fn optimized_plan_agrees_with_conservative() {
        let patterns = [".*a{3}", "ab{2,3}c", "x[yz]{2}", "k.{2,5}z"];
        let ncas: Vec<Nca> = patterns.iter().map(|p| stream_nca(p)).collect();
        let opt_parts: Vec<(&Nca, CompilePlan)> = ncas
            .iter()
            .map(|n| (n, CompilePlan::optimized(n, |_| false)))
            .collect();
        let opt = MultiNca::merge(&opt_parts);
        let baseline = multi(&patterns);
        for input in [&b"aaaa abbc xyz kxxz"[..], b"abbbc k....z aaa"] {
            assert_eq!(
                opt.engine().match_reports(input),
                baseline.engine().match_reports(input)
            );
        }
    }
}
