//! Hybrid lazy-DFA overlay over the batched multi-pattern engine: pure
//! rows beside counter modules.
//!
//! The exact [`MultiEngine`] walks outgoing edges over an activity bitset
//! — faithful to the paper's hardware step, but tens of instructions per
//! live state per input byte in software. A classical DFA costs **one
//! table row per byte**, yet determinizing a counting automaton can blow
//! up exponentially ([`crate::full_dfa_size`]). The paper's hardware does
//! neither: the STE array keeps running as a plain NFA processor while
//! the counter and bit-vector modules *beside* it count, and only
//! `en`/`out` signals cross between the two (§3.2.1, §4). This module is
//! wired the same way. The live configuration is a pair `(S, T)`:
//!
//! * **`S`, the pure part of the frontier, always rides DFA rows.** The
//!   set of live counter-free states is interned as a DFA state with a
//!   dense `byte_class → next_state` row filled on demand; it advances by
//!   one indexed load per byte whether or not anything is counting.
//! * **`T`, the tokens on counter-carrying states, is the only thing
//!   stepped exactly** — by [`MultiEngine::step_counted`], and only while
//!   `T` is non-empty. Typically that is one to three states, against the
//!   tens of pure states a frontier holds.
//! * **The cache is bounded** — at most `state_budget` determinized
//!   states exist at once; on overflow the cache is flushed and rebuilt
//!   from the traffic that is actually hot, so adversarial state blowup
//!   degrades throughput instead of memory.
//!
//! # Why the step factors
//!
//! Every transition guard and acceptance condition resolves against
//! **source-state counters only** ([`crate::nca`] invariant), so edges
//! leaving pure states are unguarded, pure accepting states accept
//! unconditionally, and a pure source has no counter slots to copy — the
//! valuation it hands a counted target is a constant. One byte of class
//! `c` therefore factors as
//!
//! ```text
//! S' = succ_pure(S, c) ∪ exits(T, c)      T' = entries(S, c) ∪ step(T, c)
//! ```
//!
//! where `succ_pure` (the pure targets of `S`) and `entries` (the edges
//! from `S` into counted states) are functions of `(S, c)` alone and are
//! cached with the row, while `step` and `exits` (counted and pure
//! targets of `T`) walk only the out-edges of the live counted states.
//!
//! # What a marked row means
//!
//! A row entry below [`WAKES`] is the id of `succ_pure(S, c)` and nothing
//! else happens on that byte. An entry with the [`WAKES`] bit set says
//! *this row also wakes counters*: its low bits index a side table
//! holding the same successor id plus the entry edges to fire. The byte
//! loop sends exactly the marked (and the still-[`UNKNOWN`]) entries to
//! the slow path; a token leaving `T` for a pure state rejoins `S` by set
//! union — one cache probe per exit, and none when the row's subset
//! already holds the state.

use crate::multi::{EntryEdge, MultiEngine, MultiEngineState, MultiNca, MultiReport};
use crate::nca::StateId;
use std::collections::HashMap;
use std::sync::Arc;

/// Default bound on cached determinized states per hybrid engine.
pub const DEFAULT_STATE_BUDGET: usize = 4096;

/// How a pattern-set engine walks input bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScanMode {
    /// Exact batched NCA stepping: per-byte edge walks over the activity
    /// frontier — the software twin of the paper's hardware step.
    Nca,
    /// Lazy-DFA overlay over the exact engine (see [`HybridEngine`]):
    /// the pure frontier advances by one dense table row per byte, and
    /// only live counter-carrying states are stepped exactly.
    Hybrid {
        /// Maximum number of cached determinized states per engine;
        /// the cache flushes and rebuilds when exceeded. Tiny budgets
        /// stay correct but thrash.
        state_budget: usize,
    },
}

impl Default for ScanMode {
    /// [`ScanMode::Hybrid`] with [`DEFAULT_STATE_BUDGET`].
    fn default() -> Self {
        ScanMode::Hybrid {
            state_budget: DEFAULT_STATE_BUDGET,
        }
    }
}

/// Row entry: transition not yet computed.
pub(crate) const UNKNOWN: u32 = u32::MAX;
/// Row flag: the transition also wakes counters — the remaining bits
/// index the overlay's side table of (successor id, entry edges). Plain
/// successor ids stay below it, so one compare (`entry >= WAKES`) picks
/// out every byte that needs more than a row load, [`UNKNOWN`] included.
pub(crate) const WAKES: u32 = 1 << 31;

/// Shared dense-row subset interner: maps sorted NCA state sets to dense
/// DFA ids and stores one flat `byte_class → next` row per id. Used by
/// both [`HybridEngine`] and [`crate::DfaEngine`].
#[derive(Debug)]
pub(crate) struct SubsetCache {
    stride: usize,
    /// Subset → id; each key shares its allocation with `subsets[id]`.
    ids: HashMap<Arc<[u32]>, u32>,
    subsets: Vec<Arc<[u32]>>,
    /// `rows[id * stride + class]`; [`UNKNOWN`] until filled.
    rows: Vec<u32>,
}

impl SubsetCache {
    pub(crate) fn new(stride: usize) -> SubsetCache {
        SubsetCache {
            stride,
            ids: HashMap::new(),
            subsets: Vec::new(),
            rows: Vec::new(),
        }
    }

    /// Number of interned subsets (= discovered DFA states).
    pub(crate) fn len(&self) -> usize {
        self.subsets.len()
    }

    /// The sorted NCA state set behind DFA state `id`.
    pub(crate) fn subset(&self, id: u32) -> &[u32] {
        &self.subsets[id as usize]
    }

    /// The cached transition of `(id, class)` ([`UNKNOWN`] if unfilled).
    #[inline]
    pub(crate) fn get(&self, id: u32, class: usize) -> u32 {
        self.rows[id as usize * self.stride + class]
    }

    /// Fills the transition of `(id, class)`.
    pub(crate) fn set(&mut self, id: u32, class: usize, next: u32) {
        self.rows[id as usize * self.stride + class] = next;
    }

    /// Interns `subset` (must be sorted, deduplicated); returns its id
    /// and whether it is new.
    pub(crate) fn intern(&mut self, subset: &[u32]) -> (u32, bool) {
        if let Some(&id) = self.ids.get(subset) {
            return (id, false);
        }
        let id = self.subsets.len() as u32;
        let shared: Arc<[u32]> = subset.into();
        self.ids.insert(Arc::clone(&shared), id);
        self.subsets.push(shared);
        let filled = self.rows.len() + self.stride;
        self.rows.resize(filled, UNKNOWN);
        (id, true)
    }

    /// Drops every interned subset and row (the overflow flush).
    pub(crate) fn clear(&mut self) {
        self.ids.clear();
        self.subsets.clear();
        self.rows.clear();
    }
}

/// Cumulative counters of one [`HybridEngine`] (or an aggregate over
/// several — see [`HybridStats::merge`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HybridStats {
    /// Bytes that cost one row load and nothing else: no counted token
    /// was live before the byte and its row wakes none.
    /// `dfa_bytes + fallback_bytes` is every byte consumed.
    pub dfa_bytes: u64,
    /// Bytes on which the exact engine ran: a counted token was live
    /// before the byte, or the byte's row wakes one. (The pure frontier
    /// still advances by its row on these bytes.)
    pub fallback_bytes: u64,
    /// Live states whose out-edges the exact engine walked, summed over
    /// the fallback bytes. `exact_state_steps / fallback_bytes` is the
    /// exact work per fallback byte — the live *counted* states, since
    /// the pure ones ride rows.
    pub exact_state_steps: u64,
    /// Determinized states currently cached (discovered since the last
    /// flush).
    pub dfa_states: usize,
    /// Cache flushes forced by the state budget.
    pub flushes: u64,
}

impl HybridStats {
    /// Fraction of bytes that cost a row load only (1.0 on an empty
    /// stream).
    pub fn dfa_hit_rate(&self) -> f64 {
        let total = self.dfa_bytes + self.fallback_bytes;
        if total == 0 {
            1.0
        } else {
            self.dfa_bytes as f64 / total as f64
        }
    }

    /// Accumulates another engine's counters (summing states).
    pub fn merge(&mut self, other: &HybridStats) {
        self.dfa_bytes += other.dfa_bytes;
        self.fallback_bytes += other.fallback_bytes;
        self.exact_state_steps += other.exact_state_steps;
        self.dfa_states += other.dfa_states;
        self.flushes += other.flushes;
    }
}

/// What a row marked [`WAKES`] stands for.
#[derive(Debug)]
struct Wake {
    /// The pure successor the row would hold if it woke nothing.
    next: u32,
    /// Edges from the row's subset into counted states on its class.
    entries: Box<[EntryEdge]>,
}

impl Wake {
    /// Splits a filled row entry into the pure successor id and the
    /// entry edges the row wakes (none for an unmarked entry).
    fn resolve(wakes: &[Wake], entry: u32) -> (u32, &[EntryEdge]) {
        if entry < WAKES {
            (entry, &[])
        } else {
            let wake = &wakes[(entry & !WAKES) as usize];
            (wake.next, &wake.entries)
        }
    }
}

/// The hybrid lazy-DFA engine. See the module docs.
///
/// Report-for-report identical to [`MultiEngine`] on the same merged
/// automaton — same `(pattern, end)` pairs in the same order, across any
/// chunking — which the differential suites pin.
///
/// # Examples
///
/// ```
/// use recama_nca::{CompilePlan, MultiNca, Nca};
/// let a = Nca::from_regex(&recama_syntax::parse("ab").unwrap().for_stream());
/// let parts = [(&a, CompilePlan::conservative(&a))];
/// let multi = MultiNca::merge(&parts);
/// let reports = multi.hybrid_engine(64).match_reports(b"xabab");
/// assert_eq!(reports.len(), 2);
/// assert!(multi.hybrid_engine(64).stats().dfa_hit_rate() >= 0.0);
/// ```
pub struct HybridEngine<'a> {
    multi: &'a MultiNca,
    /// The counter modules: holds `T`, the tokens on counter-carrying
    /// states, and never a pure one.
    exact: MultiEngine<'a>,
    cache: SubsetCache,
    /// Patterns accepted in each DFA state (ascending, deduplicated) —
    /// parallel to the cache's subsets.
    accepts: Vec<Box<[u32]>>,
    /// Side table of the rows marked [`WAKES`]; flushed with the cache.
    wakes: Vec<Wake>,
    /// Flat byte → class table (u16 so an 8-byte lane of lookups
    /// vectorizes without widening).
    class_map: Box<[u16; 256]>,
    state_budget: usize,
    /// `S`: the pure part of the frontier, as a DFA state.
    cur: u32,
    /// Bytes consumed since the last reset.
    position: u64,
    stats: HybridStats,
    succ_scratch: Vec<u32>,
    entry_scratch: Vec<EntryEdge>,
    /// Pure states the last counted step exited into.
    exits: Vec<u32>,
}

/// The owned mutable half of a [`HybridEngine`]: the counted tokens (the
/// exact engine's detached state) plus the overlay's interned DFA cache,
/// accept sets, wake table, byte-class table, and counters — everything
/// but the `&MultiNca` borrow. Detaching preserves the warm cache, so a
/// flow parked between chunks resumes on hot rows, mid-count if need be.
pub(crate) struct HybridEngineState {
    exact: MultiEngineState,
    cache: SubsetCache,
    accepts: Vec<Box<[u32]>>,
    wakes: Vec<Wake>,
    class_map: Box<[u16; 256]>,
    state_budget: usize,
    cur: u32,
    position: u64,
    stats: HybridStats,
    succ_scratch: Vec<u32>,
    entry_scratch: Vec<EntryEdge>,
    exits: Vec<u32>,
}

impl HybridEngineState {
    /// Bytes consumed when the state was detached.
    pub(crate) fn position(&self) -> u64 {
        self.position
    }

    /// Cumulative overlay counters as of the detach.
    pub(crate) fn stats(&self) -> HybridStats {
        HybridStats {
            dfa_states: self.cache.len(),
            ..self.stats
        }
    }
}

impl<'a> HybridEngine<'a> {
    /// Builds an overlay engine over `multi` caching at most
    /// `state_budget` determinized states.
    pub fn new(multi: &'a MultiNca, state_budget: usize) -> HybridEngine<'a> {
        let alphabet = multi.alphabet();
        let mut class_map = Box::new([0u16; 256]);
        for b in 0..=255u8 {
            class_map[b as usize] = alphabet.class_of(b) as u16;
        }
        let mut e = HybridEngine {
            multi,
            exact: multi.engine(),
            cache: SubsetCache::new(alphabet.len()),
            accepts: Vec::new(),
            wakes: Vec::new(),
            class_map,
            // State ids must stay below the `WAKES` flag bit.
            state_budget: state_budget.clamp(1, WAKES as usize),
            cur: 0,
            position: 0,
            stats: HybridStats::default(),
            succ_scratch: Vec::new(),
            entry_scratch: Vec::new(),
            exits: Vec::new(),
        };
        e.reset();
        e
    }

    /// Detaches the overlay's mutable state (including the warm DFA
    /// cache and any live counted tokens) from the automaton borrow. The
    /// inverse of [`HybridEngine::resume`].
    pub(crate) fn into_state(self) -> HybridEngineState {
        HybridEngineState {
            exact: self.exact.into_state(),
            cache: self.cache,
            accepts: self.accepts,
            wakes: self.wakes,
            class_map: self.class_map,
            state_budget: self.state_budget,
            cur: self.cur,
            position: self.position,
            stats: self.stats,
            succ_scratch: self.succ_scratch,
            entry_scratch: self.entry_scratch,
            exits: self.exits,
        }
    }

    /// Reattaches a state detached by [`HybridEngine::into_state`] to
    /// `multi`, resuming mid-stream with the cache intact.
    ///
    /// # Panics
    ///
    /// Panics under the [`MultiEngine::resume`] shape checks if `multi`
    /// does not match the automaton the state was detached from.
    pub(crate) fn resume(multi: &'a MultiNca, state: HybridEngineState) -> HybridEngine<'a> {
        HybridEngine {
            multi,
            exact: MultiEngine::resume(multi, state.exact),
            cache: state.cache,
            accepts: state.accepts,
            wakes: state.wakes,
            class_map: state.class_map,
            state_budget: state.state_budget,
            cur: state.cur,
            position: state.position,
            stats: state.stats,
            succ_scratch: state.succ_scratch,
            entry_scratch: state.entry_scratch,
            exits: state.exits,
        }
    }

    /// Returns to the initial configuration (stream position 0, no
    /// counted token live). The state cache and cumulative
    /// [`HybridEngine::stats`] persist across resets — a reused engine
    /// keeps its hot rows.
    pub fn reset(&mut self) {
        self.exact.clear_tokens();
        self.position = 0;
        self.cur = self.intern_subset_at(0);
    }

    /// Bytes consumed since the last reset.
    pub fn position(&self) -> u64 {
        self.position
    }

    /// Returns to the initial configuration but continues the byte count
    /// from absolute offset `position` (see
    /// [`MultiEngine::restart_at`](crate::MultiEngine::restart_at)). The
    /// cache and cumulative stats persist, exactly as with
    /// [`reset`](HybridEngine::reset).
    pub fn restart_at(&mut self, position: u64) {
        self.reset();
        self.position = position;
    }

    /// Number of live NCA states behind the current configuration: the
    /// pure frontier's subset plus the live counted states.
    pub fn active_states(&self) -> usize {
        self.cache.subset(self.cur).len() + self.exact.active_states()
    }

    /// Determinized states discovered since the last flush.
    pub fn discovered_states(&self) -> usize {
        self.cache.len()
    }

    /// Cumulative overlay counters ([`HybridStats::dfa_states`] reflects
    /// the cache as of this call).
    pub fn stats(&self) -> HybridStats {
        HybridStats {
            dfa_states: self.cache.len(),
            ..self.stats
        }
    }

    /// Interns the singleton subset `{q}` (used for the start state).
    fn intern_subset_at(&mut self, q: u32) -> u32 {
        let mut scratch = std::mem::take(&mut self.succ_scratch);
        scratch.clear();
        scratch.push(q);
        let id = self.intern_subset(&scratch);
        self.succ_scratch = scratch;
        id
    }

    /// Interns `subset`, flushing the cache (rows, accept sets and wake
    /// table) first if the budget is exhausted. Any previously returned
    /// id or row entry is invalid after a flush; only the returned id is
    /// guaranteed current.
    fn intern_subset(&mut self, subset: &[u32]) -> u32 {
        if let Some(&id) = self.cache.ids.get(subset) {
            return id;
        }
        if self.cache.len() >= self.state_budget {
            self.cache.clear();
            self.accepts.clear();
            self.wakes.clear();
            self.stats.flushes += 1;
        }
        let (id, is_new) = self.cache.intern(subset);
        if is_new {
            self.accepts.push(self.accept_patterns(subset));
        }
        id
    }

    /// Patterns accepted by a pure frontier, ascending and deduplicated.
    /// Pure accepting states accept unconditionally, and the merge lays
    /// patterns out in ascending contiguous state ranges, so a sorted
    /// subset yields ascending patterns — preserving the per-step report
    /// order contract of [`MultiEngine::step_into`].
    fn accept_patterns(&self, subset: &[u32]) -> Box<[u32]> {
        let tables = self.multi.tables();
        let mut out: Vec<u32> = Vec::new();
        for &q in subset {
            if tables.accepts[q as usize].is_empty() {
                continue;
            }
            let p = self
                .multi
                .pattern_of(StateId(q))
                .expect("the merged q0 never accepts");
            if out.last() != Some(&p) {
                out.push(p);
            }
        }
        out.into_boxed_slice()
    }

    /// Computes (and caches) the row entry of DFA state `state` on
    /// `class`: the id of the pure successor subset, or — if `state` has
    /// edges into counted states on `class` — a [`WAKES`]-marked index
    /// of the side-table slot holding that id and those edges.
    fn successor(&mut self, state: u32, class: usize) -> u32 {
        let multi: &'a MultiNca = self.multi;
        let tables = multi.tables();
        let member_row = &tables.class_member[class];
        let mut next = std::mem::take(&mut self.succ_scratch);
        let mut entries = std::mem::take(&mut self.entry_scratch);
        next.clear();
        entries.clear();
        for &p in self.cache.subset(state) {
            for (ei, edge) in tables.out_edges[p as usize].iter().enumerate() {
                let q = edge.to as usize;
                if member_row[q / 64] & (1 << (q % 64)) == 0 {
                    continue;
                }
                debug_assert!(
                    edge.guard.is_empty(),
                    "edges out of pure states are unguarded"
                );
                if tables.counted_mask[q / 64] & (1 << (q % 64)) != 0 {
                    entries.push(EntryEdge {
                        from: p,
                        edge: ei as u32,
                    });
                } else {
                    next.push(q as u32);
                }
            }
        }
        next.sort_unstable();
        next.dedup();
        let flushes = self.stats.flushes;
        let id = self.intern_subset(&next);
        let entry = if entries.is_empty() {
            id
        } else {
            let slot = self.wakes.len() as u32;
            assert!(slot < WAKES - 1, "wake table outgrew its index bits");
            self.wakes.push(Wake {
                next: id,
                entries: entries.as_slice().into(),
            });
            WAKES | slot
        };
        self.succ_scratch = next;
        self.entry_scratch = entries;
        // A flush invalidated `state`; only then is the row write wrong.
        if self.stats.flushes == flushes {
            self.cache.set(state, class, entry);
        }
        entry
    }

    /// Consumes one byte, appending `(pattern, end)` reports to `out`
    /// with the same dedup and ordering contract as
    /// [`MultiEngine::step_into`].
    pub fn step_into(&mut self, byte: u8, out: &mut Vec<MultiReport>) {
        self.step_byte(byte, self.exact.counting_active(), out);
    }

    /// One byte through the full `(S, T)` step. `counting` says whether
    /// `T` is non-empty before the byte; returns whether it is after.
    fn step_byte(&mut self, byte: u8, counting: bool, out: &mut Vec<MultiReport>) -> bool {
        let class = self.class_map[byte as usize] as usize;
        let mut entry = self.cache.get(self.cur, class);
        if entry == UNKNOWN {
            entry = self.successor(self.cur, class);
        }
        if entry < WAKES && !counting {
            self.advance_dfa(entry, out);
            return false;
        }
        let (next, entries) = Wake::resolve(&self.wakes, entry);
        self.position += 1;
        self.stats.fallback_bytes += 1;
        let first = out.len();
        self.exits.clear();
        let walked = self
            .exact
            .step_counted(class, entries, &mut self.exits, self.position, out);
        self.stats.exact_state_steps += walked as u64;
        self.cur = self.join_exits(next);
        let counted = out.len() - first;
        self.push_accepts(out);
        if counted > 0 && out.len() - first > counted {
            merge_step_reports(out, first);
        }
        self.exact.counting_active()
    }

    /// `next ∪ exits` as a DFA state: `next` itself when its subset
    /// already holds every state the counted step exited into.
    fn join_exits(&mut self, next: u32) -> u32 {
        let subset = self.cache.subset(next);
        if self.exits.iter().all(|q| subset.binary_search(q).is_ok()) {
            return next;
        }
        let mut joined = std::mem::take(&mut self.succ_scratch);
        joined.clear();
        joined.extend_from_slice(subset);
        joined.extend_from_slice(&self.exits);
        joined.sort_unstable();
        joined.dedup();
        let id = self.intern_subset(&joined);
        self.succ_scratch = joined;
        id
    }

    /// Reports the patterns the current DFA state accepts.
    #[inline]
    fn push_accepts(&self, out: &mut Vec<MultiReport>) {
        for &pattern in self.accepts[self.cur as usize].iter() {
            out.push(MultiReport {
                pattern,
                end: self.position,
            });
        }
    }

    /// A byte that is one row load and nothing else: move to `next`,
    /// report its accepts.
    #[inline]
    fn advance_dfa(&mut self, next: u32, out: &mut Vec<MultiReport>) {
        self.cur = next;
        self.position += 1;
        self.stats.dfa_bytes += 1;
        self.push_accepts(out);
    }

    /// Feeds a whole chunk, appending reports to `out`. Stream position
    /// persists across calls, so chunked feeding is equivalent to one
    /// contiguous scan.
    ///
    /// While no counted token is live, bytes are classified in 8-byte
    /// lanes through the flat `u16` class table (a vectorizable gather)
    /// before the row-walk consumes the lane; a marked or unfilled row
    /// entry sends its byte through the full step. While counted tokens
    /// are live every byte takes the full step: one row load plus one
    /// counted step.
    pub fn feed_into(&mut self, chunk: &[u8], out: &mut Vec<MultiReport>) {
        let mut counting = self.exact.counting_active();
        let mut i = 0;
        'outer: while i < chunk.len() {
            if counting {
                counting = self.step_byte(chunk[i], true, out);
                i += 1;
                continue;
            }
            let lane = &chunk[i..chunk.len().min(i + 8)];
            let mut classes = [0u16; 8];
            for (slot, &b) in classes.iter_mut().zip(lane) {
                *slot = self.class_map[b as usize];
            }
            for k in 0..lane.len() {
                let next = self.cache.get(self.cur, classes[k] as usize);
                if next >= WAKES {
                    // Unfilled, or the row wakes a counter: this byte
                    // takes the full step, then the lane loop restarts.
                    counting = self.step_byte(lane[k], false, out);
                    i += k + 1;
                    continue 'outer;
                }
                self.advance_dfa(next, out);
            }
            i += lane.len();
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

/// Restores the per-step report contract (ascending patterns, one report
/// per pattern) on `out[first..]`, which holds one step's counted reports
/// followed by its pure ones — each run ascending, all at one offset. A
/// pattern in both runs accepted from a counted state and from its pure
/// tail at once.
fn merge_step_reports(out: &mut Vec<MultiReport>, first: usize) {
    out[first..].sort_unstable();
    let mut kept = first;
    for i in first..out.len() {
        if kept == first || out[kept - 1] != out[i] {
            out[kept] = out[i];
            kept += 1;
        }
    }
    out.truncate(kept);
}

impl std::fmt::Debug for HybridEngine<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "HybridEngine(dfa_states = {}, counted_states = {}, position = {})",
            self.cache.len(),
            self.exact.active_states(),
            self.position
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiled::CompilePlan;
    use crate::dfa::full_dfa_size;
    use crate::nca::Nca;
    use recama_syntax::parse;

    /// Queues where eligible, bit vectors / token sets elsewhere.
    fn queues(n: &Nca) -> CompilePlan {
        CompilePlan::optimized(n, |_| false)
    }

    /// One valuation per counted state: sound on anchored rules only.
    fn single(n: &Nca) -> CompilePlan {
        CompilePlan::with_unambiguous_states(n, |_| true)
    }

    fn merged_with(patterns: &[&str], plan: fn(&Nca) -> CompilePlan) -> MultiNca {
        let ncas: Vec<Nca> = patterns
            .iter()
            .map(|p| Nca::from_regex(&parse(p).unwrap().for_stream()))
            .collect();
        let parts: Vec<(&Nca, CompilePlan)> = ncas.iter().map(|n| (n, plan(n))).collect();
        MultiNca::merge(&parts)
    }

    fn merged(patterns: &[&str]) -> MultiNca {
        merged_with(patterns, queues)
    }

    /// One-shot and chunked (1/3/7) hybrid scans of `input` against the
    /// exact engine on the same merge.
    fn assert_matches_exact(m: &MultiNca, input: &[u8], budget: usize) {
        let expected = m.engine().match_reports(input);
        let mut hybrid = m.hybrid_engine(budget);
        assert_eq!(
            hybrid.match_reports(input),
            expected,
            "budget {budget} on {:?}",
            String::from_utf8_lossy(input)
        );
        // Chunked feeding agrees too, including mid-count boundaries.
        for chunk_len in [1usize, 3, 7] {
            let mut engine = m.hybrid_engine(budget);
            let mut got = Vec::new();
            for chunk in input.chunks(chunk_len) {
                engine.feed_into(chunk, &mut got);
            }
            assert_eq!(got, expected, "chunk length {chunk_len}");
            assert_eq!(engine.position(), input.len() as u64);
        }
    }

    fn assert_hybrid_matches_exact(patterns: &[&str], input: &[u8], budget: usize) {
        assert_matches_exact(&merged(patterns), input, budget);
    }

    /// What one byte did to the `(S, T)` configuration.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    struct Event {
        /// The byte's row is marked [`WAKES`].
        wakes: bool,
        /// Pure states the counted step exited into.
        exits: usize,
        /// An exit added a state the row's subset did not hold.
        joined: bool,
    }

    /// Steps `input` byte by byte through a warm-enough cache (no flush)
    /// and records each byte's [`Event`].
    fn events(m: &MultiNca, input: &[u8]) -> Vec<Event> {
        let mut h = m.hybrid_engine(DEFAULT_STATE_BUDGET);
        let mut out = Vec::new();
        let mut events = Vec::new();
        for &b in input {
            let class = h.class_map[b as usize] as usize;
            let mut entry = h.cache.get(h.cur, class);
            if entry == UNKNOWN {
                entry = h.successor(h.cur, class);
            }
            let wakes = entry >= WAKES;
            let next = Wake::resolve(&h.wakes, entry).0;
            let fallback_bytes = h.stats.fallback_bytes;
            h.step_into(b, &mut out);
            let stepped = h.stats.fallback_bytes > fallback_bytes;
            events.push(Event {
                wakes,
                exits: if stepped { h.exits.len() } else { 0 },
                joined: h.cur != next,
            });
        }
        assert_eq!(h.stats.flushes, 0);
        events
    }

    #[test]
    fn pure_patterns_cost_row_loads_only() {
        let m = merged(&["abc", "x[yz]", "q"]);
        let mut hybrid = m.hybrid_engine(DEFAULT_STATE_BUDGET);
        let reports = hybrid.match_reports(b"abcxzqq abc");
        assert_eq!(reports, m.engine().match_reports(b"abcxzqq abc"));
        let stats = hybrid.stats();
        assert_eq!(stats.fallback_bytes, 0, "no counters, no exact steps");
        assert_eq!(stats.dfa_bytes, 11);
        assert!((stats.dfa_hit_rate() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn counters_fall_back_and_reenter() {
        let patterns = ["ka{2,3}b", "xyz"];
        let input = b"kaab..xyz..kaaab..kab.kaaaab";
        assert_hybrid_matches_exact(&patterns, input, DEFAULT_STATE_BUDGET);
        let m = merged(&patterns);
        let mut hybrid = m.hybrid_engine(DEFAULT_STATE_BUDGET);
        hybrid.match_reports(input);
        let stats = hybrid.stats();
        assert!(stats.fallback_bytes > 0, "counting runs the exact engine");
        assert!(stats.dfa_bytes > 0, "benign bytes are row loads only");
    }

    #[test]
    fn mixed_rulesets_agree_with_exact_engine() {
        let sets: [&[&str]; 3] = [
            &["ab{2,3}c", "a{3}", "x[yz]{2}", "cab"],
            &[".*a{3}", "k.{2,5}z"],
            &["^a{2}b", "b{2}", "^x", "needle"],
        ];
        for patterns in sets {
            for input in [
                &b"abbc.aaa.xyz.cab.k42z"[..],
                b"aaaaaa kxxz kxxxxxz",
                b"aab bb x needle",
                b"",
                b"completely benign traffic, nothing matches",
            ] {
                assert_hybrid_matches_exact(patterns, input, DEFAULT_STATE_BUDGET);
            }
        }
    }

    #[test]
    fn tiny_budgets_thrash_but_stay_exact() {
        let patterns = ["ab{2,3}c", "a{3}", "x[yz]{2}"];
        let input = b"abbc.aaa.xyz.abbbc.xyy.aaaa";
        for budget in [1usize, 2, 3] {
            assert_hybrid_matches_exact(&patterns, input, budget);
            let m = merged(&patterns);
            let mut hybrid = m.hybrid_engine(budget);
            hybrid.match_reports(input);
            let stats = hybrid.stats();
            assert!(stats.flushes > 0, "budget {budget} must overflow");
            assert!(stats.dfa_states <= budget);
        }
    }

    #[test]
    fn cache_persists_across_resets() {
        let m = merged(&["abc", "xy"]);
        let mut hybrid = m.hybrid_engine(DEFAULT_STATE_BUDGET);
        hybrid.match_reports(b"abcxyabc");
        let discovered = hybrid.discovered_states();
        assert!(discovered > 1);
        hybrid.match_reports(b"abcxyabc");
        assert_eq!(
            hybrid.discovered_states(),
            discovered,
            "second scan rides the warm cache"
        );
    }

    #[test]
    fn one_byte_can_wake_one_counter_and_exit_another() {
        // 'y' leaves `[ab]{2,5}` for the pure `y` state of rule 1 and, on
        // the same byte, enters rule 2's `y{2,3}` from its `Σ*` state.
        let patterns = ["a{2,3}c{2,3}", "x[ab]{2,5}y", "y{2,3}z"];
        let input = b"xabyyz.aacc.xaayz.xbbbbbyy.aaaccc";
        for plan in [queues, CompilePlan::conservative] {
            let m = merged_with(&patterns, plan);
            assert_matches_exact(&m, input, DEFAULT_STATE_BUDGET);
            let events = events(&m, input);
            assert!(events.iter().any(|e| e.wakes && e.exits > 0), "{events:?}");
        }
    }

    #[test]
    fn exits_join_the_row_subset_only_when_they_add_a_state() {
        // After "aa" both the counted `[ab]` state (value 2) and the pure
        // `a` alternative are live; on 'c' the row already leads to the
        // `c` state, so the exit adds nothing. After "ab" only the
        // counter reaches `c`: the exit joins it in.
        let m = merged(&["([ab]{2,3}|a)c", "plain"]);
        for input in [&b"aac.abc.bbbc.ac"[..], b"abcaacabbc", b"aab"] {
            assert_matches_exact(&m, input, DEFAULT_STATE_BUDGET);
        }
        let adds_nothing = events(&m, b"aac")[2];
        assert!(adds_nothing.exits > 0 && !adds_nothing.joined);
        let joins = events(&m, b"abc")[2];
        assert!(joins.exits > 0 && joins.joined);
        // `(ab{2,3}c)+d`: the exit target loops back into the rule.
        let m = merged(&["(ab{2,3}c)+d", "cab"]);
        for input in [&b"abbcabbbcd.abbcd.abcd.abbbbcd"[..], b"abbcabbcabbcd"] {
            assert_matches_exact(&m, input, DEFAULT_STATE_BUDGET);
        }
    }

    #[test]
    fn a_pattern_accepting_from_both_halves_reports_once_in_order() {
        // At "ab" rule 1 accepts from its counted `[ab]` state (value 2)
        // and from its pure `b` alternative; rules 0 and 2 accept from
        // pure states either side of it.
        let patterns = ["b", "([ab]{2,3}|b)", "[ab]b"];
        let m = merged(&patterns);
        let mut hybrid = m.hybrid_engine(DEFAULT_STATE_BUDGET);
        let reports = hybrid.match_reports(b"ab");
        let at_two: Vec<u32> = reports
            .iter()
            .filter(|r| r.end == 2)
            .map(|r| r.pattern)
            .collect();
        assert_eq!(at_two, [0, 1, 2]);
        for input in [&b"ab"[..], b"abab.bb.aab.b", b"bbbbbb"] {
            assert_matches_exact(&m, input, DEFAULT_STATE_BUDGET);
        }
    }

    #[test]
    fn merge_step_reports_sorts_and_dedups_the_tail_only() {
        let r = |pattern, end| MultiReport { pattern, end };
        let mut out = vec![
            r(5, 1),
            r(5, 1),
            r(1, 2),
            r(4, 2),
            r(0, 2),
            r(1, 2),
            r(7, 2),
        ];
        merge_step_reports(&mut out, 2);
        assert_eq!(
            out,
            [r(5, 1), r(5, 1), r(0, 2), r(1, 2), r(4, 2), r(7, 2)],
            "earlier steps are left alone"
        );
    }

    #[test]
    fn every_storage_kind_steps_beside_the_rows() {
        // Nested / multi-counter states (token sets), bit vectors, and
        // counting-set queues fed from a pure source.
        let patterns = [
            "(a{2}b){3}",
            "(a{2,3}b){2,3}",
            "k.{2,5}z",
            ".*a{3}",
            "q[ab]{2,4}",
        ];
        let inputs: [&[u8]; 4] = [
            b"aabaabaab.aaabaab.kxxz.aaaa.qab",
            b"aabaaabaabaaab kzzzzzzz qabab aaaaaa",
            b"kkkzzz.aabaabaabaab.qaaaa",
            b"",
        ];
        for plan in [
            queues,
            CompilePlan::conservative,
            CompilePlan::counting_sets,
        ] {
            let m = merged_with(&patterns, plan);
            for input in inputs {
                assert_matches_exact(&m, input, DEFAULT_STATE_BUDGET);
            }
        }
        // Single-valuation storage: anchored, so unambiguous.
        let m = merged_with(&["^x[ab]{2,5}y", "^(a{2}b){3}", "^xa{3,}b"], single);
        for input in [
            &b"xababy"[..],
            b"aabaabaab",
            b"xaaaab",
            b"xay",
            b"xaaaaaaay",
        ] {
            assert_matches_exact(&m, input, DEFAULT_STATE_BUDGET);
            let mut exact = m.engine();
            exact.match_reports(input);
            assert_eq!(exact.conflicts(), 0);
        }
    }

    #[test]
    fn a_flush_mid_count_rebuilds_rows_and_wake_table() {
        let patterns = ["x[ab]{2,5}y", "a{2,3}c{2,3}", "k.{4}z", "plain"];
        let input = b"xababy.aaccc.k....z.xabplainaby.kxaacz.xbbbbby";
        for budget in [1usize, 2, 3] {
            assert_hybrid_matches_exact(&patterns, input, budget);
            let m = merged(&patterns);
            let mut hybrid = m.hybrid_engine(budget);
            hybrid.match_reports(input);
            let stats = hybrid.stats();
            assert!(stats.flushes > 0, "budget {budget} must overflow");
            assert!(stats.fallback_bytes > 0);
            assert!(stats.dfa_states <= budget);
            assert!(hybrid.wakes.len() <= budget * m.alphabet().len());
        }
    }

    #[test]
    fn detach_and_restart_with_counted_tokens_live() {
        let patterns = ["x[ab]{2,5}y", "k.{4}z", "(a{2}b){3}", "plain"];
        let m = merged(&patterns);
        let input = b"xabkab.zaby.aabaabaab.k...z";
        let expected = m.engine().match_reports(input);
        for cut in 1..input.len() {
            // Park the engine at `cut` and resume it from the owned state.
            let mut hybrid = m.hybrid_engine(DEFAULT_STATE_BUDGET);
            let mut got = Vec::new();
            hybrid.feed_into(&input[..cut], &mut got);
            let counting = hybrid.exact.counting_active();
            let live = hybrid.active_states();
            let state = hybrid.into_state();
            assert_eq!(state.position(), cut as u64);
            let mut hybrid = HybridEngine::resume(&m, state);
            assert_eq!(hybrid.exact.counting_active(), counting);
            assert_eq!(hybrid.active_states(), live);
            hybrid.feed_into(&input[cut..], &mut got);
            assert_eq!(got, expected, "cut at {cut}");

            // Restart at `cut`: counted tokens must not leak across it.
            let mut exact = m.engine();
            exact.restart_at(cut as u64);
            let mut fresh = Vec::new();
            exact.feed_into(&input[cut..], &mut fresh);
            let mut hybrid = m.hybrid_engine(DEFAULT_STATE_BUDGET);
            hybrid.feed_into(&input[..cut], &mut Vec::new());
            hybrid.restart_at(cut as u64);
            assert_eq!(hybrid.active_states(), 1, "only q0 survives a restart");
            let mut got = Vec::new();
            hybrid.feed_into(&input[cut..], &mut got);
            assert_eq!(got, fresh, "restart at {cut}");
            assert_eq!(hybrid.position(), input.len() as u64);
        }
        let mut mid_count = m.hybrid_engine(DEFAULT_STATE_BUDGET);
        mid_count.feed_into(b"xab", &mut Vec::new());
        assert!(
            mid_count.exact.counting_active(),
            "the cuts above do park mid-count"
        );
    }

    #[test]
    fn active_states_counts_both_halves() {
        let m = merged(&["x[ab]{2,5}y", "k.{4}z", "abc"]);
        let input = b"xabk.ab.zabcy";
        let mut exact = m.engine();
        let mut hybrid = m.hybrid_engine(DEFAULT_STATE_BUDGET);
        let mut sink = Vec::new();
        for &b in input {
            exact.step_into(b, &mut sink);
            hybrid.step_into(b, &mut sink);
            assert_eq!(hybrid.active_states(), exact.active_states());
        }
    }

    /// Regression (satellite of the DfaEngine rewrite): driving the
    /// hybrid cache to saturation discovers exactly the reachable DFA
    /// states [`full_dfa_size`] counts on the same merged automaton.
    #[test]
    fn saturated_cache_agrees_with_full_dfa_size() {
        let m = merged(&["abc", "x[yz]x", ".*ba"]);
        assert!(
            m.nca().counters().is_empty(),
            "saturation comparison needs a counter-free merge"
        );
        let expected = full_dfa_size(m.nca(), 1 << 12).expect("small DFA");
        let mut hybrid = m.hybrid_engine(1 << 12);
        // Fixpoint: expand every (state, class) row until no new state
        // appears.
        let mut done = 0;
        while done < hybrid.cache.len() {
            let state = done as u32;
            for class in 0..m.alphabet().len() {
                let next = hybrid.successor(state, class);
                assert!(next < WAKES, "counter-free sets wake nothing");
            }
            done += 1;
        }
        assert_eq!(hybrid.discovered_states(), expected);
    }
}
