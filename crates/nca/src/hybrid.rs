//! Hybrid lazy-DFA engine over a merged multi-pattern automaton: pure
//! rows beside counter modules, the rows shared by every flow of a shard.
//!
//! Stepping the automaton walks the outgoing edges of every live state —
//! faithful to the paper's hardware step, but tens of instructions per
//! live state per input byte in software. A classical DFA costs **one
//! table row per byte**, yet determinizing a counting automaton can blow
//! up exponentially (the test-only oracle `dfa::full_dfa_size` counts
//! by how much). The paper's hardware does neither: the STE array keeps
//! running as a plain NFA processor while the counter and bit-vector
//! modules *beside* it count, and only
//! `en`/`out` signals cross between the two (§3.2.1, §4). This module is
//! wired the same way. The live configuration is a pair `(S, T)`:
//!
//! * **`S`, the pure part of the frontier, always rides DFA rows.** The
//!   set of live counter-free states is interned as a DFA state with a
//!   dense `byte_class → next_state` row filled on demand; it advances by
//!   one add and one load per byte whether or not anything is counting.
//! * **`T`, the tokens on counter-carrying states, is the only thing
//!   stepped exactly** — by the shard's bank of counter modules
//!   ([`crate::bank`]), and only on the bytes where a module can be seen
//!   from outside: a wake, a value some guard can hold at, a byte that
//!   ends the count. In between `T` *sleeps* (below) and the rows carry
//!   the bytes alone. Awake, it is typically one to three modules,
//!   against the tens of pure states a frontier holds.
//!
//! # Who owns what
//!
//! The hardware programs the STE array **once per ruleset**; every input
//! stream runs through the same image, and only the activity bits and the
//! counter contents are per stream. Here the image is a [`HybridCache`]:
//! the interned subsets, their rows and accept sets, the wake table and
//! the byte → class map are a pure function of the shard's [`MultiNca`],
//! so one cache serves every [`HybridEngine`] of that shard, on any
//! thread. The counter modules are programmed once per ruleset too: the
//! [`MultiNca`] owns a [`crate::bank::CounterBank`] — the counted states
//! indexed densely, their out-edges compiled flat — beside its engine
//! tables. A flow's engine is what is left: a handle on each of the two
//! images, the generation it reads, its DFA state `S`, its stream
//! position, its byte counters, and `T` as a [`BankState`] — a live mask
//! and, per counted state of the shard, a `u64` value (a register's
//! count, or a counting set of bound at most 64 as a word) beside a
//! cell that holds a counting queue or bit-vector / token-set storage
//! where the value cannot; never anything per pure state. It borrows
//! nothing, so a serving layer keeps it in its flow table between
//! chunks as it is.
//!
//! * **The cache is bounded per shard.** At most `state_budget`
//!   determinized states are cached for a shard at once, however many
//!   flows scan it, so adversarial state blowup degrades throughput
//!   instead of memory.
//! * **A flush is a generation change.** State handles mean something only
//!   within one *generation* of the cache. When the budget is hit the
//!   full generation is *retired* — nothing is ever written to it again —
//!   and a fresh one, holding just the subset that did not fit, takes its
//!   place. Rows already filled are immutable facts, so an engine in the
//!   middle of a chunk keeps reading its retired generation; it notices
//!   at its next unfilled row and at either end of a chunk, copies the
//!   subset behind `S` out and interns it in the current generation. A
//!   retired generation is freed with its last reader, and an engine
//!   that rests between chunks never pins one retired before it came to
//!   rest. `T` and the wake records (module indices of the immutable
//!   bank) are generation-free.
//! * **Reading is one lock per chunk.** [`HybridEngine::feed_into`] takes
//!   its generation's read lock once and walks plain `&[u32]` rows under
//!   it. Only an unfilled row (or an unseen `S ∪ exits`) leaves the
//!   guard, takes the current generation's write lock, re-checks, fills,
//!   and goes back to reading.
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
//! A DFA state is named by its *handle*, the offset of its row in the
//! generation's flat row table (dense id × number of classes), so a row
//! entry is the handle of its target and a byte is one add and one load,
//! `rows[S + c]`. Two high bits mark the entries after which more happens
//! than moving to the target:
//!
//! * **below [`ACCEPTS`]**: the entry is the handle of `succ_pure(S, c)`,
//!   which accepts no pattern, and nothing else happens on that byte;
//! * **[`ACCEPTS`] set** (bit 30): the same handle in the low bits, and
//!   the target accepts a pattern — the byte reports;
//! * **[`WAKES`] set** (bit 31): *this row also wakes counters*: the low
//!   bits index a side table holding the successor's handle (unflagged)
//!   plus the entries to fire, precompiled — their source is pure — as
//!   `(module, constant valuation)` records.
//!
//! So the byte loops test one compare, `entry >= ACCEPTS`, and send
//! exactly the flagged (and the still-[`UNKNOWN`]) entries to the slow
//! path, which reports the target's accepts; `S` itself never carries a
//! flag. A token leaving `T` for a pure state rejoins `S` by set union —
//! one cache probe per exit, and none when the row's subset already holds
//! the state. Handles stay below [`ACCEPTS`] because the state budget is
//! clamped to `ACCEPTS / classes` (4 Mi states at 256 classes).
//!
//! A wake also carries its **quiet mask**, computed once when the row is
//! filled: the byte classes of the *next* byte on which every token the
//! wake puts in is provably dead — no out-edge of its module, guards
//! ignored, leads to a state whose predicate holds that class. Most
//! wakes of a rule like `[^ac][ac]{316}` are of this kind: the token dies
//! on the very next byte, and taking the wake costs two counted steps
//! for nothing. So the byte loop looks one byte ahead before waking a
//! counter (the two-character transitions of PALEALE, SNIPPETS.md §1),
//! and a marked row is taken as a plain row byte — successor handle, nothing
//! else — under two exactness conditions:
//!
//! * **nothing is owed on the wake byte**: no entry's module accepts
//!   under its entry valuation (such a wake has an empty mask), and no
//!   counted token is being stepped on it — `T` is empty or asleep.
//!   (The argument does not need `T` empty: when the next byte is in the
//!   mask, *every* token of the entry modules is dead after it, old ones
//!   included; that byte is outside the body of any of them that sleeps,
//!   so it is stepped and clears them. A register the skipped entry
//!   would have overwritten with the smaller valuation dies there too,
//!   having accepted under neither.) While a module is awake every wake
//!   is taken;
//! * **the next byte is in sight and in the mask**: it is the next byte
//!   of the *same chunk*. The last byte of a chunk, and so every byte of
//!   a chunk of one byte, always takes the wake — the engine never waits
//!   for input to decide.
//!
//! Reports are therefore identical under every chunking. The byte
//! counters [`HybridStats::dfa_bytes`] and [`HybridStats::fallback_bytes`]
//! are not: a wake that dies at once is a fallback byte (and its kill
//! another) exactly when it falls on the last byte of a chunk.
//!
//! # When `T` sleeps
//!
//! In the hardware a module that is counting is invisible to the array
//! until its count reaches a guard. A token of `h.{55}` is seen twice in
//! 56 bytes — when it enters and when it is due — and the counted body
//! of `[^ac][ac]{394}` not at all until the run of `[ac]` ends or the
//! count is full. So `T` non-empty does not by itself send a byte to the
//! bank. Before a run of bytes the engine asks the bank for `T`'s *sleep
//! horizon* ([`BankState::horizon`]): a number of bytes `h` and a class
//! set `body`. A byte is slept through — it rides its row exactly as if
//! `T` were empty, and the bank is not stepped — under three conditions:
//!
//! * **every live module is a sleeper**: a register, a counting-set word
//!   or a counting-set queue with range guards and exactly one
//!   incrementing self-edge
//!   (bit vectors, token sets, multi-counter states and saturating
//!   `{m,}` counters never are — `h` is 0 while one is live);
//! * **no module is due**: before the byte no guard but the self-edge's
//!   can hold of any live token, and after it no accept can. The oldest
//!   token of a module decides, so `h` is a minimum of subtractions;
//! * **the byte is in every live body**: its class is in the self-edge's
//!   class set of every live module (`body`, their intersection).
//!
//! On such a byte every live token takes its self-edge and nothing else
//! happens: no exit, no hand-off, no report, the live mask unchanged. `k`
//! of them are [`BankState::skip`]`(k)` — an add per register, a shift
//! per word, a clock bump per queue, which the bank makes when it next
//! reads the cells. Every other byte takes the full `(S, T)` step: a wake
//! that is taken, the first due byte, the byte that leaves `body`, any
//! byte with a module live that cannot sleep. A marked row met asleep
//! gets the same one-byte look-ahead as with `T` empty.
//!
//! **No timer is kept to sleep.** The horizon is a function of the
//! cells: every bank step reads it off the cells it has just written
//! and keeps it beside them, and a skip takes its bytes off. A flow
//! holds no due list and no timer, so a chunk boundary, a flush, a park
//! or a restart in the middle of a sleep needs no care. A counting-set
//! word or queue already *is* the sorted list of due offsets a timer
//! wheel would keep — bits by value, or birth clocks, oldest first.
//!
//! # Many flows at once
//!
//! A pure byte is one add and one *dependent* load: the next row offset
//! comes out of the load before it, so one engine walks its rows only as
//! fast as memory answers. Engines of different flows depend on nothing
//! of each other, and the hardware steps every stream's activity against
//! the one programmed array at once (§3.2.1, §4) — the one-thread-per-
//! packet setting of GPU pattern matchers. [`HybridEngine::feed_lockstep`]
//! does the same for up to [`LOCKSTEP_LANES`] engines on the rows of one
//! [`HybridCache`], each with a chunk of its own: a round loads every
//! lane's `rows[S_l + c_l]` — four loads in flight instead of one — and
//! tests the OR of the entries with the one compare, `>= ACCEPTS`. A lane
//! whose entry is flagged, or whose `T` is live, takes its bytes through
//! the path a single engine takes — the full `(S, T)` step, the sleeping
//! loop, the look-ahead inside its own chunk — until `T` is empty again,
//! and then rejoins the group; the others wait. Nothing is guessed, so
//! every engine's reports, position and byte counters are what its own
//! [`HybridEngine::feed_into`] leaves, and `feed_into` is the one-lane
//! case of the same loop. A lane that a flush moves to a new generation
//! ends the group: its handles and the others' name rows of different
//! tables, so the lanes finish their chunks one after another.
//!
//! # Without rows
//!
//! [`MultiNca::engine`] makes the same engine with no cache, the
//! reference the tests and the plan checks hold the rows to; no scan of
//! a pattern set runs it. `S` is then the sorted subset itself, and
//! every byte is what a row miss computes — the edge walk out of `S`
//! that fills a row, the bank step with the entries that walk found,
//! `S ∪ exits`, the pure accepts. Nothing is looked ahead at and nothing
//! sleeps; the reports are the same. So the counting semantics have one
//! implementation with rows and without, the bank, and
//! [`HybridEngine::conflicts`] counts on it in both.

use crate::bank::{has_class, BankState, ClassSet, PURE};
use crate::multi::{MultiNca, MultiReport, NO_PATTERN};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Default bound on the determinized states cached per shard.
pub const DEFAULT_STATE_BUDGET: usize = 4096;

/// How a pattern-set engine walks input bytes: always on its scan
/// groups' lazily determinized rows. The one variant carries the row
/// budget, which also draws the scan groups.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScanMode {
    /// The hybrid engine on lazily determinized rows (see
    /// [`HybridEngine`]): the pure frontier advances by one dense table
    /// row per byte, and only live counter-carrying states are stepped
    /// exactly.
    Hybrid {
        /// Maximum number of determinized states cached **per shard**,
        /// shared by every flow scanning that shard (see
        /// [`HybridCache`]); when a shard exceeds it, its cache is
        /// flushed and rebuilt from the traffic that is hot. Tiny
        /// budgets stay correct but thrash.
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
/// index the generation's side table of (successor handle, entry edges).
pub(crate) const WAKES: u32 = 1 << 31;
/// Row flag: the pure successor accepts a pattern — the remaining bits
/// are its handle. Plain handles stay below it (the state budget is
/// clamped so), so one compare (`entry >= ACCEPTS`) picks out every byte
/// that needs more than a row load: an accept, a wake, [`UNKNOWN`].
pub(crate) const ACCEPTS: u32 = 1 << 30;

/// Shared dense-row subset interner: maps sorted NCA state sets to DFA
/// states and stores one flat `byte_class → next` row per state. Used by
/// both [`HybridCache`] and the subset walk behind `dfa::full_dfa_size`,
/// the full-DFA count the tests hold the cache to.
///
/// A state is named by its *handle*: its dense id times `stride`, which
/// is the offset of its row. So a row entry holds the handle of its
/// target, and stepping a byte is one add and one load,
/// `rows[handle + class]`, with no multiply on the dependency chain. The
/// dense id (`handle / stride`) indexes whatever runs parallel to the
/// subsets; only the slow paths — a fill, a join, a catch-up — ask for it.
#[derive(Debug)]
pub(crate) struct SubsetCache {
    stride: usize,
    /// Subset → handle; each key shares its allocation with
    /// `subsets[handle / stride]`.
    handles: HashMap<Arc<[u32]>, u32>,
    subsets: Vec<Arc<[u32]>>,
    /// `rows[handle + class]`; [`UNKNOWN`] until filled.
    rows: Vec<u32>,
}

impl SubsetCache {
    pub(crate) fn new(stride: usize) -> SubsetCache {
        SubsetCache {
            stride,
            handles: HashMap::new(),
            subsets: Vec::new(),
            rows: Vec::new(),
        }
    }

    /// Number of interned subsets (= discovered DFA states).
    pub(crate) fn len(&self) -> usize {
        self.subsets.len()
    }

    /// The dense id of the state with handle `handle`.
    pub(crate) fn index(&self, handle: u32) -> usize {
        handle as usize / self.stride
    }

    /// The sorted NCA state set behind the state with handle `handle`.
    pub(crate) fn subset(&self, handle: u32) -> &[u32] {
        &self.subsets[self.index(handle)]
    }

    /// The handle of `subset` (sorted, deduplicated), if it is interned.
    pub(crate) fn lookup(&self, subset: &[u32]) -> Option<u32> {
        self.handles.get(subset).copied()
    }

    /// The cached transition of `(handle, class)` ([`UNKNOWN`] if
    /// unfilled).
    #[inline]
    pub(crate) fn get(&self, handle: u32, class: usize) -> u32 {
        self.rows[handle as usize + class]
    }

    /// Fills the transition of `(handle, class)`.
    pub(crate) fn set(&mut self, handle: u32, class: usize, next: u32) {
        self.rows[handle as usize + class] = next;
    }

    /// Interns `subset` (must be sorted, deduplicated); returns its
    /// handle and whether it is new. The map entry goes in last, so a
    /// handle can be looked up only once its subset and row exist.
    pub(crate) fn intern(&mut self, subset: &[u32]) -> (u32, bool) {
        if let Some(handle) = self.lookup(subset) {
            return (handle, false);
        }
        let handle = u32::try_from(self.rows.len()).expect("row offsets outgrew u32");
        let shared: Arc<[u32]> = subset.into();
        self.subsets.push(Arc::clone(&shared));
        self.rows.resize(self.rows.len() + self.stride, UNKNOWN);
        self.handles.insert(shared, handle);
        (handle, true)
    }
}

/// Counters of the hybrid overlay. An engine owns the three byte
/// counters; the shard's [`HybridCache`] owns `dfa_states` and `flushes`
/// ([`HybridCache::stats`]). [`HybridEngine::stats`] shows both halves of
/// one engine; an aggregate is built with [`HybridStats::merge`].
///
/// The reports of a stream never depend on how it was cut into chunks;
/// `dfa_bytes`, `slept_bytes` and `fallback_bytes` may, by the wakes that
/// fall on a chunk's last byte (see `fallback_bytes`). The sum of the
/// first and the last does not.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HybridStats {
    /// Bytes that cost one row load and nothing else: every byte that is
    /// not a fallback byte. `dfa_bytes + fallback_bytes` is every byte
    /// consumed.
    pub dfa_bytes: u64,
    /// Bytes on which the counter modules were stepped:
    ///
    /// * a wake that is taken — the byte's row wakes a counter that
    ///   reports on it, may survive the next byte, or sits on the last
    ///   byte of its chunk (where the next byte is not in sight), or a
    ///   live module is awake on it anyway. A wake whose every token
    ///   provably dies on the next byte of the same chunk, having
    ///   reported nothing, is not taken;
    /// * a byte with a module live that cannot sleep (a bit vector, a
    ///   token set, a saturating counter);
    /// * a byte at or past a live module's first due value: one before
    ///   which a guard other than the counting loop's can hold of its
    ///   oldest token, or after which an accept can;
    /// * a byte outside the body of a live module.
    ///
    /// Every other byte is a `dfa_byte`, also while counted tokens are
    /// live (`slept_bytes`). (The pure frontier advances by its row on
    /// fallback bytes too.)
    pub fallback_bytes: u64,
    /// The `dfa_bytes` that rode a row while a counted token was live:
    /// every live counter was between a token's entry and its first due
    /// value, the byte inside its body, so none was stepped.
    pub slept_bytes: u64,
    /// Live counter modules stepped, counted before each fallback byte
    /// (live counted states, summed over the fallback bytes).
    /// `exact_state_steps / fallback_bytes` is the exact work per
    /// fallback byte — the pure states ride rows.
    pub exact_state_steps: u64,
    /// Determinized states cached right now: the size of the shard
    /// cache's current generation (at most the state budget). A property
    /// of the **shard**, not of the flows that scanned it — an aggregate
    /// sums it over shard caches, each counted once.
    pub dfa_states: usize,
    /// Cache flushes forced by the state budget, per shard cache like
    /// `dfa_states`.
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

    /// Adds `other` field by field. To aggregate a serving system, merge
    /// every engine's own counters (`dfa_states` and `flushes` are 0
    /// there) and every shard cache's [`HybridCache::stats`] **once** —
    /// merging [`HybridEngine::stats`] of two engines on one cache would
    /// count that cache's states twice.
    pub fn merge(&mut self, other: &HybridStats) {
        self.dfa_bytes += other.dfa_bytes;
        self.fallback_bytes += other.fallback_bytes;
        self.slept_bytes += other.slept_bytes;
        self.exact_state_steps += other.exact_state_steps;
        self.dfa_states += other.dfa_states;
        self.flushes += other.flushes;
    }
}

/// What a row marked [`WAKES`] stands for.
struct Wake {
    /// The handle of the pure successor the row would hold if it woke
    /// nothing (never flagged [`ACCEPTS`]).
    next: u32,
    /// The edges from the row's subset into counted states on its class,
    /// precompiled — their source is pure — as flat
    /// `[module, constant valuation…]` records for [`BankState::step`].
    entries: Box<[u32]>,
    /// Classes of the *next* byte on which every token `entries` puts in
    /// is provably dead, having reported nothing
    /// ([`crate::bank::CounterBank::quiet_classes`]).
    quiet: ClassSet,
}

impl Wake {
    /// Splits a filled row entry into the pure successor's handle, its
    /// [`ACCEPTS`] flag stripped, and the wake the row is marked with
    /// (none for an entry below [`WAKES`]).
    fn resolve(wakes: &[Wake], entry: u32) -> (u32, Option<&Wake>) {
        if entry < WAKES {
            (entry & !ACCEPTS, None)
        } else {
            let wake = &wakes[(entry & !WAKES) as usize];
            (wake.next, Some(wake))
        }
    }
}

/// The contents of one generation: everything a state handle indexes.
struct Tables {
    cache: SubsetCache,
    /// Patterns accepted in each DFA state (ascending, deduplicated) —
    /// parallel to the cache's subsets.
    accepts: Vec<Box<[u32]>>,
    /// Side table of the rows marked [`WAKES`].
    wakes: Vec<Wake>,
}

impl Tables {
    /// The handle of `subset` (sorted, deduplicated), interned if new.
    ///
    /// Write order is the invariant the poison recovery rests on: a
    /// handle becomes visible — in the interner's map here, in a row or
    /// a wake slot later — only after its subset, its row and its accept
    /// set exist, and a row is only ever written after its target is
    /// interned. A writer that panics half-way therefore leaves nothing
    /// a reader could follow into a missing entry.
    fn intern(&mut self, subset: &[u32], accepting: &[u32]) -> u32 {
        if let Some(handle) = self.cache.lookup(subset) {
            return handle;
        }
        self.accepts.push(accepted(accepting, subset).collect());
        self.cache.intern(subset).0
    }

    /// The patterns the state with handle `handle` accepts.
    fn accepts(&self, handle: u32) -> &[u32] {
        &self.accepts[self.cache.index(handle)]
    }
}

/// The patterns the pure states of the sorted `subset` accept, ascending
/// and once each. Pure accepting states accept unconditionally, and the
/// merge lays patterns out in ascending contiguous state ranges, so a
/// sorted subset yields ascending patterns — the per-byte report order
/// contract of [`HybridEngine::feed_into`] — and a repeat is the last one.
fn accepted<'a>(accepting: &'a [u32], subset: &'a [u32]) -> impl Iterator<Item = u32> + 'a {
    let mut last = NO_PATTERN;
    subset
        .iter()
        .map(|&q| accepting[q as usize])
        .filter(move |&p| p != NO_PATTERN && std::mem::replace(&mut last, p) != p)
}

/// One generation of a shard's rows: the tables behind a lock, and
/// whether they are still being added to.
struct Generation {
    tables: RwLock<Tables>,
    /// Set once, when the generation stops being the one new states go
    /// to: under its own write lock by the flush that replaces it, or by
    /// whoever finds its lock poisoned. Publishes nothing by itself (the
    /// replacement travels through [`Shared::current`]'s mutex); Release
    /// / Acquire so that an engine which sees it set also sees every row
    /// written before.
    retired: AtomicBool,
}

impl Generation {
    fn new(stride: usize) -> Generation {
        Generation {
            tables: RwLock::new(Tables {
                cache: SubsetCache::new(stride),
                accepts: Vec::new(),
                wakes: Vec::new(),
            }),
            retired: AtomicBool::new(false),
        }
    }

    fn is_retired(&self) -> bool {
        self.retired.load(Ordering::Acquire)
    }

    fn retire(&self) {
        self.retired.store(true, Ordering::Release);
    }

    /// The tables for reading. A lock poisoned by a panicking writer is
    /// recovered, never propagated to the other flows of the shard: by
    /// the write order of [`Tables::intern`] everything reachable from a
    /// state handle is complete, so readers go on; the generation is retired
    /// so that nothing is added to tables that may be short an entry.
    fn read(&self) -> RwLockReadGuard<'_, Tables> {
        self.tables.read().unwrap_or_else(|poisoned| {
            self.retire();
            poisoned.into_inner()
        })
    }

    /// The tables for writing; poison is handled as in
    /// [`Generation::read`]. Callers check [`Generation::is_retired`]
    /// under the guard before adding anything.
    fn write(&self) -> RwLockWriteGuard<'_, Tables> {
        self.tables.write().unwrap_or_else(|poisoned| {
            self.retire();
            poisoned.into_inner()
        })
    }
}

/// What every engine of one shard shares.
struct Shared {
    /// Flat byte → class table (u16 so an 8-byte lane of lookups
    /// vectorizes without widening).
    class_map: Box<[u16; 256]>,
    /// Per automaton state: the pattern it accepts for, or
    /// [`NO_PATTERN`] — the [`MultiNca`]'s own table.
    accepting: Arc<[u32]>,
    /// Row width: the number of byte classes.
    stride: usize,
    state_budget: usize,
    /// The generation new states are interned in. Replaced under this
    /// mutex only; taken after a generation's write lock, never before.
    current: Mutex<Arc<Generation>>,
    /// Generations retired because the budget was hit (a statistic).
    flushes: AtomicU64,
}

/// The lazily determinized rows of one shard, shared by all its flows:
/// interned pure frontiers with their `byte class → next` rows and accept
/// sets, the wake table, and the byte → class map — the software twin of
/// an STE array programmed once per ruleset. Cloning the handle shares the
/// cache; it is `Send + Sync`, and engines on any number of threads may
/// scan on it at once.
///
/// At most `state_budget` states are cached at a time. When an unseen
/// state does not fit, the cache is flushed: the full *generation* of
/// tables is retired — engines in the middle of a chunk finish on it and
/// then carry their one live state over — and an empty one takes its
/// place, so the bound holds however many flows share the cache. The
/// cache is a pure function of the [`MultiNca`] it was made for and must
/// only be used with engines over that automaton.
///
/// # Examples
///
/// ```
/// use recama_nca::{CompilePlan, MultiNca, Nca};
/// let a = Nca::from_regex(&recama_syntax::parse("ab").unwrap().for_stream());
/// let parts = [(&a, CompilePlan::conservative(&a))];
/// let multi = MultiNca::merge(&parts);
/// let cache = multi.hybrid_cache(64);
/// multi.hybrid_engine_on(&cache).match_reports(b"xabab");
/// let warm = cache.stats().dfa_states;
/// // A second flow finds the rows already there.
/// let mut second = multi.hybrid_engine_on(&cache);
/// assert_eq!(second.match_reports(b"xabab").len(), 2);
/// assert_eq!(cache.stats().dfa_states, warm);
/// ```
#[derive(Clone)]
pub struct HybridCache(Arc<Shared>);

impl std::fmt::Debug for HybridCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        write!(
            f,
            "HybridCache(dfa_states = {}, flushes = {}, state_budget = {})",
            stats.dfa_states, stats.flushes, self.0.state_budget
        )
    }
}

impl HybridCache {
    /// An empty cache for engines over `multi`, holding at most
    /// `state_budget` determinized states at a time
    /// ([`MultiNca::hybrid_cache`]).
    pub(crate) fn new(multi: &MultiNca, state_budget: usize) -> HybridCache {
        let alphabet = multi.alphabet();
        let mut class_map = Box::new([0u16; 256]);
        for b in 0..=255u8 {
            class_map[b as usize] = alphabet.class_of(b) as u16;
        }
        let stride = alphabet.len();
        HybridCache(Arc::new(Shared {
            class_map,
            accepting: Arc::clone(multi.accepting()),
            stride,
            // Handles must stay below the `ACCEPTS` flag bit.
            state_budget: state_budget.clamp(1, ACCEPTS as usize / stride),
            current: Mutex::new(Arc::new(Generation::new(stride))),
            flushes: AtomicU64::new(0),
        }))
    }

    /// The cache's half of [`HybridStats`]: `dfa_states` (the current
    /// generation's size) and `flushes`; the byte counters are 0.
    pub fn stats(&self) -> HybridStats {
        HybridStats {
            dfa_states: self.current().read().cache.len(),
            flushes: self.0.flushes.load(Ordering::Relaxed),
            ..HybridStats::default()
        }
    }

    /// The generation new states go to. Never a retired one: a flush
    /// swaps in its replacement under this mutex, so the only retired
    /// generation that can be found here is one whose lock was found
    /// poisoned, and it is replaced by an empty one on the spot.
    fn current(&self) -> Arc<Generation> {
        let mut current = self
            .0
            .current
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if current.is_retired() {
            *current = Arc::new(Generation::new(self.0.stride));
        }
        Arc::clone(&current)
    }

    /// Interns `subset` in the current generation — flushing first if it
    /// is full — and runs `then(generation, tables, handle)` under that
    /// generation's write lock. Returns the generation with `then`'s
    /// result; handles from before the call mean nothing in it unless it
    /// is the generation they came from.
    fn intern_with<R>(
        &self,
        subset: &[u32],
        then: impl FnOnce(&Arc<Generation>, &mut Tables, u32) -> R,
    ) -> (Arc<Generation>, R) {
        let shared = &*self.0;
        let run = |home: &Arc<Generation>, tables: &mut Tables| {
            let handle = tables.intern(subset, &shared.accepting);
            then(home, tables, handle)
        };
        loop {
            let home = self.current();
            let mut tables = home.write();
            if home.is_retired() {
                continue; // flushed (or found poisoned) since `current()`
            }
            if tables.cache.len() < shared.state_budget || tables.cache.lookup(subset).is_some() {
                let result = run(&home, &mut tables);
                drop(tables);
                return (home, result);
            }
            // The flush: `home` is retired as it stands and a fresh
            // generation takes over. The fresh one is written before any
            // other engine can reach it and installed while `home` is
            // still locked, so exactly one flush replaces `home`.
            let fresh = Arc::new(Generation::new(shared.stride));
            let mut fresh_tables = fresh.write();
            {
                let mut current = shared
                    .current
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner);
                home.retire();
                *current = Arc::clone(&fresh);
            }
            shared.flushes.fetch_add(1, Ordering::Relaxed);
            drop(tables);
            let result = run(&fresh, &mut fresh_tables);
            drop(fresh_tables);
            return (fresh, result);
        }
    }
}

/// A flow's place in its shard's rows — what is left of the overlay once
/// the rows are shared.
struct Cursor {
    cache: HybridCache,
    /// The generation `cur` is a handle in. Retired at worst since the
    /// last [`Cursor::catch_up`].
    generation: Arc<Generation>,
    /// `S`: the pure part of the frontier, as the handle of a DFA state
    /// (never flagged [`ACCEPTS`]).
    cur: u32,
    /// Bytes consumed since the last reset.
    position: u64,
    /// This engine's byte counters (`dfa_states`, `flushes` stay 0).
    stats: HybridStats,
    succ_scratch: Vec<u32>,
    entry_scratch: Vec<u32>,
    /// Pure states the last counted step exited into.
    exits: Vec<u32>,
}

impl Cursor {
    /// A cursor on the start state at stream position 0.
    fn new(cache: HybridCache) -> Cursor {
        let mut cursor = Cursor {
            generation: cache.current(),
            cache,
            cur: 0,
            position: 0,
            stats: HybridStats::default(),
            succ_scratch: Vec::new(),
            entry_scratch: Vec::new(),
            exits: Vec::new(),
        };
        cursor.restart_at(0);
        cursor
    }

    /// Moves to the DFA state of `subset` (sorted, deduplicated) in the
    /// shard's current generation, interning it there if need be.
    fn enter(&mut self, subset: &[u32]) {
        let current = self.cache.current();
        let found = current.read().cache.lookup(subset);
        (self.generation, self.cur) = match found {
            Some(handle) => (current, handle),
            None => self.cache.intern_with(subset, |_, _, handle| handle),
        };
    }

    /// Leaves a retired generation: carries the subset behind `cur` over
    /// to the current one, so the retired tables can be freed.
    fn catch_up(&mut self) {
        if self.generation.is_retired() {
            let mut subset = std::mem::take(&mut self.succ_scratch);
            subset.clear();
            subset.extend_from_slice(self.generation.read().cache.subset(self.cur));
            self.enter(&subset);
            self.succ_scratch = subset;
        }
    }

    /// The start state, counting bytes from absolute offset `position`.
    /// (The caller empties `T`.)
    fn restart_at(&mut self, position: u64) {
        self.position = position;
        self.enter(&[0]);
    }

    /// A byte that rides its row but left the row loops — it accepts,
    /// or its wake is not taken: move to `next`, report its accepts.
    #[inline]
    fn advance_dfa(&mut self, rows: &Tables, next: u32, out: &mut Vec<MultiReport>) {
        self.cur = next;
        self.position += 1;
        self.stats.dfa_bytes += 1;
        self.push_accepts(rows, out);
    }

    /// Reports the patterns the current DFA state accepts.
    #[inline]
    fn push_accepts(&self, rows: &Tables, out: &mut Vec<MultiReport>) {
        for &pattern in rows.accepts(self.cur) {
            out.push(MultiReport {
                pattern,
                end: self.position,
            });
        }
    }

    /// `next ∪ exits` as the handle of a DFA state of `rows`: `next`
    /// itself when its subset already holds every state the counted step
    /// exited into; `None` — with the union left in `succ_scratch` — when
    /// the union is not interned in `rows`.
    fn joined(&mut self, rows: &Tables, next: u32) -> Option<u32> {
        let subset = rows.cache.subset(next);
        if self.exits.iter().all(|q| subset.binary_search(q).is_ok()) {
            return Some(next);
        }
        let joined = &mut self.succ_scratch;
        joined.clear();
        joined.extend_from_slice(subset);
        joined.extend_from_slice(&self.exits);
        joined.sort_unstable();
        joined.dedup();
        rows.cache.lookup(joined)
    }
}

/// The hybrid lazy-DFA engine. See the module docs.
///
/// An engine from [`MultiNca::hybrid_engine`] or
/// [`MultiNca::hybrid_engine_on`] keeps `S` on the rows of a
/// [`HybridCache`]; one from [`MultiNca::engine`] caches no rows and
/// keeps `S` as the subset itself ("Without rows" in the module docs).
/// Either reports what the merged patterns report when each is scanned
/// alone — the same `(pattern, end)` pairs in the same order, across any
/// chunking, state budget, and number of engines sharing a cache — which
/// the differential suites pin.
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
/// assert_eq!(multi.engine().match_reports(b"xabab"), reports);
/// assert!(multi.hybrid_engine(64).stats().dfa_hit_rate() >= 0.0);
/// ```
pub struct HybridEngine {
    multi: MultiNca,
    config: Config,
}

/// A flow's configuration `(S, T)` and its place in the stream, with `S`
/// kept one of two ways.
enum Config {
    Rows(OnRows),
    Rowless(Rowless),
}

/// `S` as a DFA state of the shard's rows.
struct OnRows {
    /// `T`: this flow's cells of the counter bank.
    counters: BankState,
    at: Cursor,
}

/// `S` as the sorted subset itself: each byte is what a row miss
/// computes, and nothing is cached.
struct Rowless {
    /// `T`: this flow's cells of the counter bank.
    counters: BankState,
    /// `S`, sorted.
    pure: Vec<u32>,
    /// Bytes consumed since the last reset.
    position: u64,
    /// Scratch: `S` after the byte being stepped.
    next: Vec<u32>,
    /// Scratch: the wake records of the byte being stepped.
    entries: Vec<u32>,
    /// Scratch: pure states the counted step exited into.
    exits: Vec<u32>,
}

impl HybridEngine {
    /// Builds an overlay engine over `multi` on the shared `cache`.
    ///
    /// # Panics
    ///
    /// Panics if `cache` was made for an automaton with a different
    /// number of states — the cheap structural check against pairing an
    /// engine with another shard's rows.
    pub(crate) fn on(multi: &MultiNca, cache: &HybridCache) -> HybridEngine {
        assert_eq!(
            cache.0.accepting.len(),
            multi.nca().state_count(),
            "hybrid cache used with an automaton it was not made for"
        );
        HybridEngine {
            multi: multi.clone(),
            config: Config::Rows(OnRows {
                counters: BankState::new(multi.bank()),
                at: Cursor::new(cache.clone()),
            }),
        }
    }

    /// Builds an engine over `multi` without rows ([`MultiNca::engine`]).
    pub(crate) fn rowless(multi: &MultiNca) -> HybridEngine {
        HybridEngine {
            multi: multi.clone(),
            config: Config::Rowless(Rowless {
                counters: BankState::new(multi.bank()),
                pure: vec![0],
                position: 0,
                next: Vec::new(),
                entries: Vec::new(),
                exits: Vec::new(),
            }),
        }
    }

    /// Returns to the initial configuration (stream position 0, no
    /// counted token live). The shard's rows and this engine's
    /// cumulative byte counters persist across resets.
    pub fn reset(&mut self) {
        self.restart_at(0);
    }

    /// Bytes consumed since the last reset.
    pub fn position(&self) -> u64 {
        match &self.config {
            Config::Rows(rows) => rows.at.position,
            Config::Rowless(rowless) => rowless.position,
        }
    }

    /// Returns to the initial configuration (only `q0` live, no counted
    /// token, the conflict count rewound) but reports subsequent matches
    /// as if the stream started at absolute offset `position` — the
    /// primitive behind prefilter wake-up, where a cold group's first
    /// engine starts at the replay point, after bytes no engine saw, with
    /// a fresh `Σ*` frontier (sound because a fresh frontier at any
    /// offset is a subset of the true frontier there, and
    /// over-approximates nothing the search form `Σ*·r` would not
    /// restart anyway). The rows and cumulative byte counters persist,
    /// exactly as with [`reset`](HybridEngine::reset).
    pub fn restart_at(&mut self, position: u64) {
        match &mut self.config {
            Config::Rows(rows) => {
                rows.counters.clear();
                rows.at.restart_at(position);
            }
            Config::Rowless(rowless) => {
                rowless.counters.clear();
                rowless.pure.clear();
                rowless.pure.push(0);
                rowless.position = position;
            }
        }
    }

    /// Number of live NCA states behind the current configuration: the
    /// pure frontier's subset plus the live counted states.
    #[cfg(test)]
    pub(crate) fn active_states(&self) -> usize {
        let pure = match &self.config {
            Config::Rows(rows) => rows.at.generation.read().cache.subset(rows.at.cur).len(),
            Config::Rowless(rowless) => rowless.pure.len(),
        };
        pure + self.counters().live_count()
    }

    /// Determinized states the shard's cache holds right now (discovered
    /// since its last flush, by any engine on it); 0 without rows.
    pub(crate) fn discovered_states(&self) -> usize {
        self.stats().dfa_states
    }

    /// This engine's cumulative byte counters together with its cache's
    /// [`HybridStats::dfa_states`] and [`HybridStats::flushes`] as of
    /// this call. An engine without rows counts nothing: all 0.
    pub fn stats(&self) -> HybridStats {
        let mut stats = HybridStats::default();
        if let Config::Rows(rows) = &self.config {
            stats = rows.at.cache.stats();
            stats.merge(&rows.at.stats);
        }
        stats
    }

    /// This engine's own half of [`HybridEngine::stats`]: the byte
    /// counters. `dfa_states` and `flushes` are 0 — they belong to the
    /// shard's cache ([`HybridCache::stats`]), which an aggregate counts
    /// once per shard, not once per flow. `None` without rows.
    pub fn byte_counters(&self) -> Option<HybridStats> {
        match &self.config {
            Config::Rows(rows) => Some(rows.at.stats),
            Config::Rowless(_) => None,
        }
    }

    /// Number of valuations a counter module the plan declared
    /// single-valued was handed beside the one it kept, since the last
    /// reset — a nonzero value means the plan (or the analysis that
    /// produced it) is wrong: the runtime cross-check of the static
    /// analysis, counted by the counter bank.
    /// The engine with rows may count fewer than the one without: a wake
    /// it does not take (module docs, "What a marked row means") hands
    /// over nothing; a check of a plan reads the engine without rows
    /// ([`MultiNca::engine`]).
    pub fn conflicts(&self) -> u64 {
        self.counters().conflicts()
    }

    /// `T`: this flow's cells of the counter bank.
    pub(crate) fn counters(&self) -> &BankState {
        match &self.config {
            Config::Rows(rows) => &rows.counters,
            Config::Rowless(rowless) => &rowless.counters,
        }
    }

    /// Computes the row entry of the current DFA state on `class` — the
    /// handle of the pure successor subset, flagged [`ACCEPTS`] if that
    /// accepts a pattern, or, if the state has edges into counted states
    /// on `class`, a [`WAKES`]-marked index of the side-table slot
    /// holding that handle, those edges as wake records and their quiet
    /// mask — and caches it.
    ///
    /// The successor is interned in the shard's *current* generation.
    /// When that is the engine's own, the row is written (unless another
    /// flow filled it first); otherwise — the engine's generation was
    /// retired, or this very call flushed it — the engine moves, the row
    /// that asked is left behind with its generation, and only the
    /// returned entry, which indexes the generation the engine is now
    /// on, says where the byte leads.
    fn successor(multi: &MultiNca, at: &mut Cursor, class: usize) -> u32 {
        let bank = multi.bank();
        let mut next = std::mem::take(&mut at.succ_scratch);
        let mut entries = std::mem::take(&mut at.entry_scratch);
        let rows = at.generation.read();
        walk_pure(
            multi,
            rows.cache.subset(at.cur),
            class,
            &mut next,
            &mut entries,
        );
        drop(rows); // before the write lock below
        let (own, cur) = (&at.generation, at.cur);
        let (home, entry) = at.cache.intern_with(&next, |home, rows, handle| {
            let stayed = Arc::ptr_eq(home, own);
            if stayed {
                let filled = rows.cache.get(cur, class);
                if filled != UNKNOWN {
                    return filled; // another flow got here first
                }
            }
            let entry = if !entries.is_empty() {
                let slot = rows.wakes.len() as u32;
                assert!(slot < WAKES - 1, "wake table outgrew its index bits");
                rows.wakes.push(Wake {
                    next: handle,
                    entries: entries.as_slice().into(),
                    quiet: bank.quiet_classes(&entries),
                });
                WAKES | slot
            } else if rows.accepts(handle).is_empty() {
                handle
            } else {
                handle | ACCEPTS
            };
            if stayed {
                rows.cache.set(cur, class, entry);
            }
            entry
        });
        at.generation = home;
        at.succ_scratch = next;
        at.entry_scratch = entries;
        entry
    }

    /// Feeds a whole chunk, appending reports to `out`. Stream position
    /// persists across calls, so chunked feeding is equivalent to one
    /// contiguous scan.
    ///
    /// Each byte appends one `(pattern, end)` report per pattern that
    /// accepts at its offset `end`, in ascending pattern order, so `out`
    /// is sorted by `(end, pattern)`. That order is a guaranteed
    /// contract: the merge lays each pattern's states out contiguously in
    /// pattern order, and the ordered merge of a flow's scan groups
    /// (`Flow` in `recama`) relies on it to recombine per-group reports
    /// byte-identically.
    ///
    /// The engine's generation is read-locked once for the call. While
    /// no counted token is live, bytes are classified in 8-byte lanes
    /// through the flat `u16` class table (a vectorizable gather) before
    /// the row-walk consumes the lane: one add and one load per byte
    /// (module docs, "What a marked row means"), the position and the
    /// byte counter moved once per lane. An entry flagged `ACCEPTS` or
    /// `WAKES`, or unfilled, leaves the lane loop. While the counted
    /// tokens sleep (module docs, "When `T` sleeps") the rows carry the
    /// bytes too, in a loop of their own — the first one measurably pays
    /// for anything put in it — that the same entries, the end of the
    /// sleep or a byte outside its body leave as well. An accepting byte
    /// that wakes nothing then rides its row and reports. A marked row
    /// first looks one byte ahead — within this chunk only — and stays a
    /// plain row byte when the wake cannot outlive that byte; otherwise
    /// the byte goes through the full `(S, T)` step, as does every byte
    /// on which a counted token is awake: one row load plus one step of
    /// the counter bank. Only the two misses — an unfilled row, an
    /// `S ∪ exits` not yet interned — let go of the read lock, and take
    /// it again (on the generation the engine is on by then) once the
    /// tables have the entry. Without rows every byte is a full step
    /// (module docs, "Without rows").
    pub fn feed_into(&mut self, chunk: &[u8], out: &mut Vec<MultiReport>) {
        match &mut self.config {
            Config::Rows(rows) => rows.feed_into(&self.multi, chunk, out),
            Config::Rowless(rowless) => rowless.feed_into(&self.multi, chunk, out),
        }
    }

    /// Feeds each engine its own chunk, appending to its own reports —
    /// exactly what one [`feed_into`](HybridEngine::feed_into) per engine
    /// would do, down to its position and its byte counters — with the
    /// row walks of the engines interleaved (module docs, "Many flows at
    /// once"). Engines on the rows of one [`HybridCache`] go in lockstep,
    /// [`LOCKSTEP_LANES`] at a time in the order given; a group of them
    /// that holds an engine without rows, or one on another cache, is fed
    /// one engine after another.
    pub fn feed_lockstep(lanes: &mut [(&mut HybridEngine, &[u8], &mut Vec<MultiReport>)]) {
        let cache = |engine: &HybridEngine| match &engine.config {
            Config::Rows(on) => Some(Arc::as_ptr(&on.at.cache.0)),
            Config::Rowless(_) => None,
        };
        for group in lanes.chunks_mut(LOCKSTEP_LANES) {
            let first = cache(group[0].0);
            if group.len() == 1 || first.is_none() || group.iter().any(|(e, ..)| cache(e) != first)
            {
                for (engine, chunk, out) in group.iter_mut() {
                    engine.feed_into(chunk, out);
                }
                continue;
            }
            let mut rows: Vec<Lane<'_>> = (group.iter_mut())
                .map(|(engine, chunk, out)| {
                    let HybridEngine {
                        multi,
                        config: Config::Rows(on),
                    } = &mut **engine
                    else {
                        unreachable!("every engine of the group is on rows");
                    };
                    Lane {
                        multi,
                        on,
                        chunk,
                        i: 0,
                        out,
                    }
                })
                .collect();
            feed_lanes(&mut rows);
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

impl OnRows {
    /// [`HybridEngine::feed_into`] on the rows: [`feed_lanes`] with one
    /// lane.
    fn feed_into(&mut self, multi: &MultiNca, chunk: &[u8], out: &mut Vec<MultiReport>) {
        feed_lanes(&mut [Lane {
            multi,
            on: self,
            chunk,
            i: 0,
            out,
        }]);
    }
}

/// Engines whose row walks one [`HybridEngine::feed_lockstep`] call
/// interleaves at most (module docs, "Many flows at once"): four loads in
/// flight at once. Eight were slower than four.
pub const LOCKSTEP_LANES: usize = 4;

/// One engine's part of a [`feed_lanes`] call: its rows, its chunk and
/// how far into it it is, and where its reports go.
struct Lane<'a> {
    multi: &'a MultiNca,
    on: &'a mut OnRows,
    chunk: &'a [u8],
    /// Bytes of `chunk` consumed.
    i: usize,
    out: &'a mut Vec<MultiReport>,
}

/// Feeds each lane its chunk — at most [`LOCKSTEP_LANES`] engines on
/// the rows of one cache — exactly as one [`HybridEngine::feed_into`]
/// per lane would (module docs, "Many flows at once").
///
/// While two or more lanes have bytes left, `T` empty, on one
/// generation, their row walks go in lockstep ([`walk_group`]). A lane
/// whose entry asks for more than a row load, or whose `T` is live,
/// leaves the group for the *slow path*: the per-lane loop below, which
/// takes the byte through the full `(S, T)` step and goes on — sleeping
/// loop, full steps, look-ahead inside the lane's own chunk — until `T`
/// is empty again, and then returns the lane to the group. Without a
/// group (one lane left with bytes, or a flush moved a lane to another
/// generation than the others') the same loop takes one lane at a time
/// to the end of its chunk, and its `T`-empty branch is the single-lane
/// row walk: bytes classified in 8-byte lanes through the flat `u16`
/// class table, then one add and one load each.
fn feed_lanes(lanes: &mut [Lane<'_>]) {
    for lane in lanes.iter_mut() {
        lane.on.at.catch_up();
    }
    // A copy (512 B) rather than a borrow of the shared handle: the
    // miss paths below need the whole cursor.
    let class_map: [u16; 256] = *lanes[0].on.at.cache.0.class_map;
    let mut generation = Arc::clone(&lanes[0].on.at.generation);
    let mut rows = generation.read();
    let mut lockstep = lanes.len() > 1
        && (lanes.iter()).all(|lane| Arc::ptr_eq(&lane.on.at.generation, &generation));
    // Lanes owed a trip through the slow path before the next walk.
    let mut stopped = 0u32;
    if lockstep {
        for (l, lane) in lanes.iter().enumerate() {
            stopped |= u32::from(lane.on.counters.any_live()) << l;
        }
    }
    loop {
        let (l, rejoin) = if stopped != 0 {
            let l = stopped.trailing_zeros() as usize;
            stopped &= stopped - 1;
            (l, lockstep)
        } else if lockstep {
            match walk_group(lanes, &rows, &class_map) {
                Some(halted) => stopped = halted,
                None => lockstep = false,
            }
            continue;
        } else if let Some(l) = lanes.iter().position(|lane| lane.i < lane.chunk.len()) {
            (l, false)
        } else {
            break;
        };
        let Lane {
            multi,
            on,
            chunk,
            i: consumed,
            out,
        } = &mut lanes[l];
        let (multi, chunk, on, out): (&MultiNca, &[u8], &mut OnRows, &mut Vec<_>) =
            (multi, chunk, on, out);
        let bank = multi.bank();
        if !Arc::ptr_eq(&generation, &on.at.generation) {
            drop(rows);
            generation = Arc::clone(&on.at.generation);
            rows = generation.read();
        }
        let home = Arc::as_ptr(&generation);
        let mut counting = on.counters.any_live();
        let mut i = *consumed;
        while i < chunk.len() {
            // The bytes the rows carry alone: all of them while `T` is
            // empty, and while it sleeps the next `nap`, as long as
            // their class is in `body`. Each is one add and one load:
            // `cur` is a row offset, and an entry that asks for anything
            // more is at or above `ACCEPTS`.
            let (mut nap, mut body) = (0, ClassSet::default());
            let mut cur = on.at.cur;
            if !counting {
                let lane = &chunk[i..chunk.len().min(i + 8)];
                let mut classes = [0u16; 8];
                for (slot, &b) in classes.iter_mut().zip(lane) {
                    *slot = class_map[b as usize];
                }
                let mut k = 0;
                while k < lane.len() {
                    let next = rows.cache.get(cur, classes[k] as usize);
                    if next >= ACCEPTS {
                        break; // unfilled, accepting, or waking a counter
                    }
                    cur = next;
                    k += 1;
                }
                on.at.cur = cur;
                on.at.position += k as u64;
                on.at.stats.dfa_bytes += k as u64;
                i += k;
                if k == lane.len() {
                    continue;
                }
            } else {
                (nap, body) = on.counters.horizon();
                let woken = chunk.len().min(i.saturating_add(nap as usize));
                let fell_asleep = i;
                while i < woken {
                    let class = class_map[chunk[i] as usize] as usize;
                    let next = rows.cache.get(cur, class);
                    if next >= ACCEPTS || !has_class(&body, class) {
                        break;
                    }
                    cur = next;
                    i += 1;
                }
                let slept = (i - fell_asleep) as u32;
                if slept > 0 {
                    on.at.cur = cur;
                    on.at.position += u64::from(slept);
                    on.at.stats.dfa_bytes += u64::from(slept);
                    on.counters.skip(slept);
                    on.at.stats.slept_bytes += u64::from(slept);
                    nap -= slept;
                }
                if i == chunk.len() {
                    break;
                }
            }
            // One byte through the full `(S, T)` step.
            let class = class_map[chunk[i] as usize] as usize;
            i += 1;
            let mut entry = rows.cache.get(on.at.cur, class);
            if entry == UNKNOWN {
                drop(rows);
                entry = HybridEngine::successor(multi, &mut on.at, class);
                generation = Arc::clone(&on.at.generation);
                rows = generation.read();
            }
            let (next, wake) = Wake::resolve(&rows.wakes, entry);
            let sleeping = nap > 0 && has_class(&body, class);
            if !counting || sleeping {
                // A wake is not taken when nothing would come of it: its
                // tokens report nothing on this byte and are dead after
                // the next one, which must be in sight.
                let ahead = chunk.get(i).map(|&b| class_map[b as usize] as usize);
                let taken = wake
                    .is_some_and(|wake| !ahead.is_some_and(|class| has_class(&wake.quiet, class)));
                if !taken {
                    on.at.advance_dfa(&rows, next, out);
                    if sleeping {
                        on.counters.skip(1);
                        on.at.stats.slept_bytes += 1;
                    } else if rejoin {
                        break; // `T` is still empty: back to the group
                    }
                    continue;
                }
            }
            let entries = wake.map_or(&[][..], |wake| &wake.entries);
            on.at.position += 1;
            on.at.stats.fallback_bytes += 1;
            let first = out.len();
            on.at.exits.clear();
            let (exits, end) = (&mut on.at.exits, on.at.position);
            let walked = on.counters.step(bank, class, entries, exits, end, out);
            on.at.stats.exact_state_steps += walked as u64;
            let counted = out.len() - first;
            match on.at.joined(&rows, next) {
                Some(handle) => on.at.cur = handle,
                None => {
                    drop(rows);
                    let union = std::mem::take(&mut on.at.succ_scratch);
                    on.at.enter(&union);
                    on.at.succ_scratch = union;
                    generation = Arc::clone(&on.at.generation);
                    rows = generation.read();
                }
            }
            on.at.push_accepts(&rows, out);
            if counted > 0 && out.len() - first > counted {
                merge_step_reports(out, first);
            }
            counting = on.counters.any_live();
            if rejoin && !counting {
                break;
            }
        }
        *consumed = i;
        // The other lanes' handles name rows of the generation this one
        // has just left.
        lockstep &= std::ptr::eq(home, Arc::as_ptr(&generation));
    }
    // At rest an engine is on a generation that is still written to:
    // kept between chunks, it never pins rows retired under it here.
    drop(rows);
    for lane in lanes.iter_mut() {
        lane.on.at.catch_up();
    }
}

/// One walk of the group: every lane with bytes left steps its rows in
/// lockstep with the others until one meets an entry at or above
/// [`ACCEPTS`] or one runs out of chunk. Returns the lanes stopped at
/// such an entry, a bit each; `None` when fewer than two lanes have
/// bytes left. Every lane of the group reads `rows`' generation.
fn walk_group(lanes: &mut [Lane<'_>], rows: &Tables, class_map: &[u16; 256]) -> Option<u32> {
    let mut members = [0usize; LOCKSTEP_LANES];
    let mut n = 0;
    for (l, lane) in lanes.iter().enumerate() {
        if lane.i < lane.chunk.len() {
            members[n] = l;
            n += 1;
        }
    }
    Some(match n {
        0 | 1 => return None,
        2 => walk_rounds::<2>(lanes, &members, rows, class_map),
        3 => walk_rounds::<3>(lanes, &members, rows, class_map),
        _ => walk_rounds::<4>(lanes, &members, rows, class_map),
    })
}

/// [`walk_group`] over `N` members. A round loads each lane's next entry,
/// `rows[cur_l + class_l]` — `N` independent loads — and tests the OR of
/// the `N` entries once; the round in which any of them is flagged is
/// not taken.
fn walk_rounds<const N: usize>(
    lanes: &mut [Lane<'_>],
    members: &[usize; LOCKSTEP_LANES],
    rows: &Tables,
    class_map: &[u16; 256],
) -> u32 {
    let table = &rows.cache.rows[..];
    let len = (members[..N].iter())
        .map(|&l| lanes[l].chunk.len() - lanes[l].i)
        .min()
        .unwrap_or(0);
    let mut curs = [0u32; N];
    let mut bytes: [&[u8]; N] = [&[]; N];
    for k in 0..N {
        let lane = &lanes[members[k]];
        let chunk = lane.chunk;
        curs[k] = lane.on.at.cur;
        bytes[k] = &chunk[lane.i..lane.i + len];
    }
    let mut r = 0;
    while r < len {
        let mut next = [0u32; N];
        let mut any = 0;
        for k in 0..N {
            next[k] = table[curs[k] as usize + class_map[bytes[k][r] as usize] as usize];
            any |= next[k];
        }
        if any >= ACCEPTS {
            break; // unfilled, accepting, or waking a counter
        }
        curs = next;
        r += 1;
    }
    let mut stopped = 0;
    for k in 0..N {
        let l = members[k];
        let lane = &mut lanes[l];
        lane.on.at.cur = curs[k];
        lane.on.at.position += r as u64;
        lane.on.at.stats.dfa_bytes += r as u64;
        lane.i += r;
        if r < len {
            let class = class_map[lane.chunk[lane.i] as usize] as usize;
            stopped |= u32::from(rows.cache.get(curs[k], class) >= ACCEPTS) << l;
        }
    }
    stopped
}

impl Rowless {
    /// [`HybridEngine::feed_into`] without rows: per byte, the pure edge
    /// walk, the bank step, `S ∪ exits` and the pure accepts.
    fn feed_into(&mut self, multi: &MultiNca, chunk: &[u8], out: &mut Vec<MultiReport>) {
        let (alphabet, bank, accepting) = (multi.alphabet(), multi.bank(), multi.accepting());
        for &byte in chunk {
            let class = alphabet.class_of(byte);
            self.position += 1;
            let end = self.position;
            walk_pure(multi, &self.pure, class, &mut self.next, &mut self.entries);
            let first = out.len();
            if !self.entries.is_empty() || self.counters.any_live() {
                self.exits.clear();
                let (entries, exits) = (&self.entries, &mut self.exits);
                self.counters.step(bank, class, entries, exits, end, out);
                if !self.exits.is_empty() {
                    self.next.extend_from_slice(&self.exits);
                    self.next.sort_unstable();
                    self.next.dedup();
                }
            }
            std::mem::swap(&mut self.pure, &mut self.next);
            let counted = out.len() - first;
            out.extend(accepted(accepting, &self.pure).map(|pattern| MultiReport { pattern, end }));
            if counted > 0 && out.len() - first > counted {
                merge_step_reports(out, first);
            }
        }
    }
}

/// The pure half of one byte of `class` out of the pure frontier
/// `subset` — the edge walk of a row fill, and of every byte without
/// rows: the pure targets go to `next` (sorted, deduplicated), the edges
/// into counted states to `entries` as wake records
/// `[module, constant valuation…]`.
fn walk_pure(
    multi: &MultiNca,
    subset: &[u32],
    class: usize,
    next: &mut Vec<u32>,
    entries: &mut Vec<u32>,
) {
    let (tables, bank) = (multi.tables(), multi.bank());
    let member_row = &tables.class_member[class];
    next.clear();
    entries.clear();
    for &p in subset {
        for edge in &tables.out_edges[p as usize] {
            let q = edge.to as usize;
            if member_row[q / 64] & (1 << (q % 64)) == 0 {
                continue;
            }
            debug_assert!(
                edge.guard.is_empty(),
                "edges out of pure states are unguarded"
            );
            match bank.module_of[q] {
                PURE => next.push(q as u32),
                module => {
                    // A pure source has no counters to copy: the
                    // valuation it hands over is a constant.
                    entries.push(module);
                    entries.extend(edge.dst.iter().map(|value| value.eval(&[])));
                }
            }
        }
    }
    next.sort_unstable();
    next.dedup();
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

impl std::fmt::Debug for HybridEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "HybridEngine(dfa_states = {}, counted_states = {}, position = {})",
            self.discovered_states(),
            self.counters().live_count(),
            self.position()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dfa::full_dfa_size;
    use crate::multi::per_pattern_reports;
    use crate::nca::Nca;
    use crate::plan::{CompilePlan, StorageMode};
    use recama_syntax::parse;

    impl HybridEngine {
        /// The cursor of an engine on rows.
        fn at(&mut self) -> &mut Cursor {
            match &mut self.config {
                Config::Rows(rows) => &mut rows.at,
                Config::Rowless(_) => panic!("an engine without rows has no cursor"),
            }
        }
    }

    /// Queues where eligible, bit vectors / token sets elsewhere.
    fn queues(n: &Nca) -> CompilePlan {
        CompilePlan::optimized(n, |_| false)
    }

    /// One valuation per counted state: sound on anchored rules only.
    fn single(n: &Nca) -> CompilePlan {
        CompilePlan::optimized(n, |_| true)
    }

    /// A merge, and the patterns it was merged from.
    struct Merged {
        multi: MultiNca,
        patterns: Vec<String>,
    }

    impl std::ops::Deref for Merged {
        type Target = MultiNca;

        fn deref(&self) -> &MultiNca {
            &self.multi
        }
    }

    impl Merged {
        /// The referee: what the patterns report scanned one by one.
        fn oracle(&self, input: &[u8]) -> Vec<MultiReport> {
            self.oracle_from(0, input)
        }

        /// [`Merged::oracle`] of a stream restarted at `position`.
        fn oracle_from(&self, position: u64, input: &[u8]) -> Vec<MultiReport> {
            let mut reports = per_pattern_reports(&self.patterns, input);
            reports.iter_mut().for_each(|r| r.end += position);
            reports
        }
    }

    fn merged_with(patterns: &[&str], plan: fn(&Nca) -> CompilePlan) -> Merged {
        let ncas: Vec<Nca> = patterns
            .iter()
            .map(|p| Nca::from_regex(&parse(p).unwrap().for_stream()))
            .collect();
        let parts: Vec<(&Nca, CompilePlan)> = ncas.iter().map(|n| (n, plan(n))).collect();
        Merged {
            multi: MultiNca::merge(&parts),
            patterns: patterns.iter().map(|p| p.to_string()).collect(),
        }
    }

    fn merged(patterns: &[&str]) -> Merged {
        merged_with(patterns, queues)
    }

    /// One-shot and chunked (1/3/7) hybrid scans of `input`, and a scan
    /// without rows, against the per-pattern oracle.
    fn assert_matches_exact(m: &Merged, input: &[u8], budget: usize) {
        let expected = m.oracle(input);
        assert_eq!(m.engine().match_reports(input), expected, "without rows");
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
            let at = h.at();
            let class = at.cache.0.class_map[b as usize] as usize;
            let mut entry = at.generation.read().cache.get(at.cur, class);
            if entry == UNKNOWN {
                entry = HybridEngine::successor(m, at, class);
            }
            let wakes = entry >= WAKES;
            let next = Wake::resolve(&at.generation.read().wakes, entry).0;
            let fallback_bytes = at.stats.fallback_bytes;
            h.feed_into(&[b], &mut out);
            let at = h.at();
            let stepped = at.stats.fallback_bytes > fallback_bytes;
            events.push(Event {
                wakes,
                exits: if stepped { at.exits.len() } else { 0 },
                joined: at.cur != next,
            });
        }
        assert_eq!(h.stats().flushes, 0);
        events
    }

    #[test]
    fn pure_patterns_cost_row_loads_only() {
        let m = merged(&["abc", "x[yz]", "q"]);
        let mut hybrid = m.hybrid_engine(DEFAULT_STATE_BUDGET);
        let reports = hybrid.match_reports(b"abcxzqq abc");
        assert_eq!(reports, m.oracle(b"abcxzqq abc"));
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
        assert!(stats.fallback_bytes > 0, "counting steps the counter bank");
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
    fn class_indexed_rows_agree_across_all_bytes() {
        // Bytes of one equivalence class share a row entry: a row filled
        // from any member answers for every other, for every byte of Σ,
        // including ones no pattern literal names.
        let m = merged(&[".*a[bc]{2}", "zz", "x[ab]{2,4}c"]);
        assert!(m.alphabet().len() < 256, "the sweep must cross classes");
        let mut rowless = m.engine();
        let mut hybrids = [m.hybrid_engine(1), m.hybrid_engine(4096)];
        for prefix in [&b""[..], b"a", b"ab", b"zza"] {
            for b in 0..=255u8 {
                let mut input = prefix.to_vec();
                input.push(b);
                let expected = m.oracle(&input);
                let at = format!("byte {b:#04x} after {prefix:?}");
                assert_eq!(
                    rowless.match_reports(&input),
                    expected,
                    "without rows, {at}"
                );
                for hybrid in &mut hybrids {
                    assert_eq!(hybrid.match_reports(&input), expected, "{at}");
                }
            }
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
        for plan in [queues, CompilePlan::conservative] {
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
            for mut engine in [m.engine(), m.hybrid_engine(DEFAULT_STATE_BUDGET)] {
                engine.match_reports(input);
                assert_eq!(engine.conflicts(), 0);
            }
        }
        // A queue that feeds a queue (the second's entry is guarded by
        // the first's count), and a two-counter token set entered
        // straight from a pure state.
        let patterns = ["a{2,3}c{2,3}", "z(a{2,3}b){2,3}", "plain"];
        let m = merged_with(&patterns, queues);
        let modes = |mode| m.plan().iter().filter(|&(_, m)| m == mode).count();
        assert_eq!(modes(StorageMode::CountingSet), 2);
        assert!(modes(StorageMode::TokenSet) > 0);
        for plan in [queues, CompilePlan::conservative] {
            let m = merged_with(&patterns, plan);
            for input in [
                &b"aacc.aaaccc.acc.aac.aaacccc"[..],
                b"zaabaab.zaaabaabaaab.zaab.zabaab",
                b"aaccaacc zaabaaccaab plain",
            ] {
                assert_matches_exact(&m, input, DEFAULT_STATE_BUDGET);
            }
        }
        // A register whose token exits to a pure state and comes back in
        // through it.
        let m = merged_with(&["^(ab{2,3}c)+d", "bc"], single);
        for input in [
            &b"abbcabbbcd"[..],
            b"abbcd",
            b"abbcabcd",
            b"abbbcabbcabbbcdd",
        ] {
            assert_matches_exact(&m, input, DEFAULT_STATE_BUDGET);
            assert!(!m.oracle(input).is_empty());
        }
    }

    /// The count-based footprint check: a flow holds one storage cell per
    /// *counted* state of its shard, however many pure states there are.
    #[test]
    fn a_flow_holds_one_cell_per_counted_state() {
        let mut patterns: Vec<String> = (0..24).map(|i| format!("w{i}[a-f]x")).collect();
        patterns.push("h.{55}".into());
        let patterns: Vec<&str> = patterns.iter().map(String::as_str).collect();
        let m = merged(&patterns);
        let counted = m.nca().states().iter().filter(|s| !s.is_pure()).count();
        assert_eq!(counted, 1, "only `.{{55}}` counts");
        assert!(m.nca().state_count() > 24 * 3);
        let mut hybrid = m.hybrid_engine(DEFAULT_STATE_BUDGET);
        hybrid.feed_into(b"w3ax h w17fx", &mut Vec::new());
        assert_eq!(hybrid.counters().cells(), counted);
    }

    // ---- the look-ahead ----------------------------------------------

    /// Hybrid scans of `input` cut into chunks of 1/2/3/7 bytes and in
    /// one piece, each against the per-pattern oracle; returns the five
    /// runs' counters in that order.
    fn lookahead_stats(m: &Merged, input: &[u8], budget: usize) -> [HybridStats; 5] {
        chunked_stats(m, &m.oracle(input), input, budget)
    }

    /// [`lookahead_stats`] against `expected`. The row loops move the
    /// position and `dfa_bytes` once per run of bytes, so after every
    /// chunk the byte counters must still add up to the position, and
    /// to the same sum under every chunking.
    fn chunked_stats(
        m: &MultiNca,
        expected: &[MultiReport],
        input: &[u8],
        budget: usize,
    ) -> [HybridStats; 5] {
        [1, 2, 3, 7, input.len()].map(|chunk_len| {
            let mut engine = m.hybrid_engine(budget);
            let mut got = Vec::new();
            for chunk in input.chunks(chunk_len) {
                engine.feed_into(chunk, &mut got);
                let stats = engine.stats();
                assert_eq!(stats.dfa_bytes + stats.fallback_bytes, engine.position());
            }
            assert_eq!(got, expected, "chunk length {chunk_len}, budget {budget}");
            let stats = engine.stats();
            assert_eq!(stats.dfa_bytes + stats.fallback_bytes, input.len() as u64);
            assert!(stats.slept_bytes <= stats.dfa_bytes);
            stats
        })
    }

    /// Budgets that flush on nearly every row fill — so one lands
    /// between a wake byte and the byte looked ahead at — and a roomy one.
    const LOOKAHEAD_BUDGETS: [usize; 4] = [1, 2, 3, DEFAULT_STATE_BUDGET];

    #[test]
    fn a_wake_the_next_byte_kills_is_taken_only_on_a_chunks_last_byte() {
        // 'a' after 'x' wakes `[ac]{3}` at value 1; 'b' kills it.
        for plan in [single, queues, CompilePlan::conservative] {
            let m = merged_with(&["[^ac][ac]{3}", "plain"], plan);
            for budget in LOOKAHEAD_BUDGETS {
                let [ones, twos, threes, sevens, whole] = lookahead_stats(&m, b"xab", budget);
                assert_eq!(whole.fallback_bytes, 0, "the wake dies in sight");
                assert_eq!(threes, whole);
                assert_eq!(sevens, whole);
                // "xa" | "b": the wake byte ends its chunk, so the wake
                // is taken and its token dies on the next chunk's first.
                assert_eq!(twos.fallback_bytes, 2);
                assert_eq!(ones.fallback_bytes, 2);
                assert_eq!(ones.exact_state_steps, 1);
                // Dying and surviving wakes, all chunkings, reports only.
                lookahead_stats(&m, b"xab.xaca.xacc.bcab plain xccab", budget);
            }
        }
    }

    #[test]
    fn a_wake_that_reports_at_once_is_never_skipped() {
        // `a{1,3}` accepts on its entry valuation, and 'b' would kill it.
        let m = merged(&["xa{1,3}", "plain"]);
        assert!(!m.nca().counters().is_empty());
        for budget in LOOKAHEAD_BUDGETS {
            for stats in lookahead_stats(&m, b"xab", budget) {
                assert_eq!(stats.fallback_bytes, 2, "the wake byte and the kill");
            }
            lookahead_stats(&m, b"xab.xaab.xaaaab.xb.xa", budget);
        }
    }

    #[test]
    fn a_wake_while_counting_is_taken() {
        let m = merged(&["k.{4}z", "[^ac][ac]{3}"]);
        for budget in LOOKAHEAD_BUDGETS {
            // `.{4}` is at its bound when `[ac]{3}` wakes on 'a': it is
            // stepped (and dies), so the wake is taken although 'b' kills
            // it. Before that `.{4}` slept three bytes.
            for stats in lookahead_stats(&m, b"k...xab", budget) {
                assert_eq!(stats.fallback_bytes, 3, "`.{{4}}` wakes; 'a'; 'b'");
                assert_eq!(stats.slept_bytes, 3);
                assert_eq!(stats.exact_state_steps, 1 + 1);
            }
            // Asleep it is not in the way: the same wake, while `.{4}` is
            // at 1, gets its look-ahead, and only `.{4}`'s own wake and
            // its due byte 'z' are stepped — unless 'a' ends a chunk.
            let [ones, twos, threes, sevens, whole] = lookahead_stats(&m, b"kxab.z", budget);
            assert_eq!((whole.fallback_bytes, whole.slept_bytes), (2, 3));
            assert_eq!(whole.exact_state_steps, 1, "`.{{4}}` on 'z'");
            assert_eq!([twos, sevens], [whole; 2]);
            assert_eq!((ones.fallback_bytes, ones.slept_bytes), (4, 1));
            assert_eq!(ones.exact_state_steps, 1 + 2 + 1, "'a', 'b', 'z'");
            assert_eq!(threes, ones, "\"kxa\" | \"b.z\"");
            lookahead_stats(&m, b"kxab.z.xab.kxacc.z", budget);
        }
    }

    #[test]
    fn of_two_entries_of_one_wake_only_one_need_die() {
        // After 'x', 'a' wakes both counters; 'd' kills the first only,
        // 'b' both.
        for plan in [single, queues, CompilePlan::conservative] {
            let m = merged_with(&["[^ac][ac]{3}", "[^ad][ad]{3}"], plan);
            for budget in LOOKAHEAD_BUDGETS {
                let [.., whole] = lookahead_stats(&m, b"xab", budget);
                assert_eq!(whole.fallback_bytes, 0, "both die in sight");
                let [.., whole] = lookahead_stats(&m, b"xadab", budget);
                // 'a' wakes both; 'd' kills the first, which the second
                // 'a' wakes again; 'b' kills both.
                assert_eq!(whole.fallback_bytes, 4);
                assert_eq!(whole.exact_state_steps, 2 + 1 + 2);
                lookahead_stats(&m, b"xadd.xacc.xaca.xada.xab.xdab", budget);
            }
        }
    }

    // ---- sleeping ----------------------------------------------------

    /// `(fallback_bytes, slept_bytes, exact_state_steps)` of each run of
    /// [`lookahead_stats`].
    fn sleep_stats(m: &Merged, input: &[u8], budget: usize) -> [(u64, u64, u64); 5] {
        lookahead_stats(m, input, budget)
            .map(|s| (s.fallback_bytes, s.slept_bytes, s.exact_state_steps))
    }

    /// `len` bytes of '.', but for the `(index, byte)` pairs of `at`.
    fn dots(len: usize, at: &[(usize, u8)]) -> Vec<u8> {
        let mut input = vec![b'.'; len];
        for &(i, b) in at {
            input[i] = b;
        }
        input
    }

    #[test]
    fn a_wake_lands_while_an_older_token_of_the_set_sleeps() {
        // An 'h' every 7 bytes, six of them: the token of each enters on
        // the byte after, at 1, 8, .., 36.
        let hs: Vec<(usize, u8)> = (0..6).map(|k| (7 * k, b'h')).collect();
        let input = dots(120, &hs);
        for budget in LOOKAHEAD_BUDGETS {
            // A counting set holds all six. Of each, three bytes are
            // stepped — its wake, the byte it is due on (54 later) and
            // the one that drops it — and no two of the eighteen
            // coincide; the set is live before bytes 2..=91.
            let m = merged_with(&["h.{55}", "plain"], queues);
            assert_eq!(m.oracle(&input).len(), 6);
            assert_eq!(sleep_stats(&m, &input, budget), [(18, 90 - 17, 17); 5]);
            // One valuation, which the rule is too ambiguous for: every
            // wake overwrites it with the younger token — a conflict — so
            // only the last one comes due. Only the engine without rows
            // knows that answer.
            let m = merged_with(&["h.{55}", "plain"], single);
            let mut rowless = m.engine();
            let expected = rowless.match_reports(&input);
            assert_eq!(expected.len(), 1);
            assert_eq!(rowless.conflicts(), 5);
            let stats = chunked_stats(&m, &expected, &input, budget)
                .map(|s| (s.fallback_bytes, s.slept_bytes, s.exact_state_steps));
            assert_eq!(stats, [(6 + 2, 90 - 7, 7); 5]);
            // A bit vector is stepped on every byte it is live before.
            let m = merged_with(&["h.{55}", "plain"], CompilePlan::conservative);
            assert_eq!(sleep_stats(&m, &input, budget), [(1 + 90, 0, 90); 5]);
        }
    }

    #[test]
    fn a_range_exit_sleeps_to_its_lower_end_and_is_awake_to_its_upper() {
        // The first token enters at byte 1, sleeps through 2..=9 (value
        // 9: it may leave on the next byte) and is stepped on 10..=15,
        // where it leaves on the 'z' and is dropped at last. The second
        // enters at 12 — the set is awake, so nothing new — is at 4 when
        // the first goes, sleeps 16..=20 and is stepped on 21..=26.
        let input = dots(30, &[(0, b'k'), (10, b'z'), (11, b'k'), (22, b'z')]);
        for budget in LOOKAHEAD_BUDGETS {
            let m = merged_with(&["k.{9,14}z", "plain"], queues);
            assert_eq!(m.oracle(&input).len(), 2);
            assert_eq!(sleep_stats(&m, &input, budget), [(1 + 6 + 6, 8 + 5, 12); 5]);
            // One valuation: the second wake overwrites the first token
            // at byte 12, and the register sleeps 13..=20.
            let m = merged_with(&["k.{9,14}z", "plain"], single);
            assert_eq!(m.oracle(&input).len(), 2);
            assert_eq!(sleep_stats(&m, &input, budget), [(1 + 3 + 6, 8 + 8, 9); 5]);
            let m = merged_with(&["k.{9,14}z", "plain"], CompilePlan::conservative);
            assert!(sleep_stats(&m, &input, budget).iter().all(|s| s.1 == 0));
        }
    }

    #[test]
    fn a_class_body_is_slept_through_until_a_byte_leaves_it() {
        // 'x', 20 × 'a', 'x': the token sleeps 19 bytes and is killed by
        // the second 'x', which wakes the next one; that one sleeps 38 of
        // its 40 × 'a', reports on the last and dies on the '.'.
        let mut input = b"x".to_vec();
        input.extend([b'a'; 20]);
        input.push(b'x');
        input.extend([b'a'; 40]);
        input.extend(b"..");
        for plan in [single, queues] {
            let m = merged_with(&["[^ac][ac]{40}", "plain"], plan);
            assert_eq!(m.oracle(&input).len(), 1);
            for budget in LOOKAHEAD_BUDGETS {
                assert_eq!(sleep_stats(&m, &input, budget), [(5, 19 + 38, 3); 5]);
            }
        }
        let m = merged_with(&["[^ac][ac]{40}", "plain"], CompilePlan::conservative);
        assert!(sleep_stats(&m, &input, 2).iter().all(|s| s.1 == 0));
    }

    #[test]
    fn two_sleepers_sleep_the_shorter_time_through_the_narrower_body() {
        let digits = |n: usize| (0..n).map(|i| (2 + i, b'0' + (i % 10) as u8));
        // `.{55}` enters on the 'x' (byte 1), `\d{30}` on the first digit
        // (byte 2). Both sleep the 29 digits `\d{30}` has left; the 'q'
        // is its due byte; `.{55}`, at 32, sleeps the 22 bytes to its
        // own, and is dropped on the byte after.
        let mut at = vec![(0, b'h'), (1, b'x'), (32, b'q')];
        at.extend(digits(30));
        let matched = dots(58, &at);
        // Ten digits only: the '.' after them is in `.{55}`'s body but
        // not in `\d{30}`'s, so it is stepped, and kills the latter.
        let mut at = vec![(0, b'h'), (1, b'x')];
        at.extend(digits(10));
        let cut_short = dots(58, &at);
        for plan in [single, queues] {
            let m = merged_with(&["h.{55}", "x\\d{30}q"], plan);
            assert_eq!(m.oracle(&matched).len(), 2);
            assert_eq!(m.oracle(&cut_short).len(), 1);
            for budget in LOOKAHEAD_BUDGETS {
                assert_eq!(sleep_stats(&m, &matched, budget), [(5, 29 + 22, 5); 5]);
                assert_eq!(sleep_stats(&m, &cut_short, budget), [(5, 9 + 42, 5); 5]);
            }
        }
        // Unanchored, every digit wakes `\d{30}` again: it never sleeps,
        // and nothing beside it does while it lives.
        let m = merged(&["h.{55}", "\\d{30}q"]);
        let mut at = vec![(0, b'h'), (1, b'x'), (42, b'q')];
        at.extend(digits(40));
        for budget in LOOKAHEAD_BUDGETS {
            let [.., whole] = sleep_stats(&m, &dots(70, &at), budget);
            assert_eq!(whole, (1 + 40 + 1 + 2, 55 - 41 - 2, 40 + 39 + 2 + 2));
        }
    }

    #[test]
    fn nothing_sleeps_beside_a_module_that_cannot() {
        // 'z' starts both rules; the token set of the second is live on
        // every byte the counting set of the first is.
        let patterns = ["z.{6}", "z(a{2,3}b){2,3}"];
        let m = merged(&patterns);
        assert_eq!(m.oracle(b"zaabaabx").len(), 2);
        for budget in LOOKAHEAD_BUDGETS {
            assert_eq!(sleep_stats(&m, b"zaabaabx", budget), [(7, 0, 6 + 6); 5]);
            // Alone it sleeps from 1 to 5.
            assert_eq!(sleep_stats(&m, b"zxxxxxx.", budget), [(3, 4, 2); 5]);
        }
        // Bit vectors never do.
        let m = merged_with(&patterns, CompilePlan::conservative);
        for input in [&b"zaabaabx"[..], b"zxxxxxx."] {
            assert!(sleep_stats(&m, input, 3).iter().all(|s| s.1 == 0));
        }
    }

    #[test]
    fn a_wake_met_asleep_is_looked_ahead_of_like_any_other() {
        // `.{20}` sleeps from byte 2 on. 'a' after 'x' wakes `[ac]{3}`,
        // 'b' kills it: in sight of each other the wake is not taken and
        // both bytes are slept through; when 'a' ends a chunk it is, and
        // 'b', outside `[ac]{3}`'s body, is stepped to kill it.
        let input = dots(24, &[(0, b'h'), (2, b'x'), (3, b'a'), (4, b'b')]);
        for plan in [single, queues] {
            let m = merged_with(&["h.{20}", "[^ac][ac]{3}"], plan);
            assert_eq!(m.oracle(&input).len(), 1);
            for budget in LOOKAHEAD_BUDGETS {
                let [ones, twos, threes, sevens, whole] = sleep_stats(&m, &input, budget);
                assert_eq!(whole, (3, 18, 2), "the wake, the due byte, the drop");
                assert_eq!([threes, sevens], [whole; 2]);
                assert_eq!(twos, (3 + 2, 18 - 2, 2 + 1 + 2), "\"hx\" | \"xa\" | \"b.\"");
                assert_eq!(ones, twos);
            }
        }
    }

    #[test]
    fn a_pure_accept_met_asleep_is_slept_through() {
        // 'a' accepts a pure rule, so its row entry is flagged and leaves
        // the sleeping loop; it reports and is still a slept byte. The
        // bank does exactly what it does on the same input without them.
        let accepts = [(2, b'a'), (5, b'a'), (6, b'a'), (12, b'a'), (23, b'a')];
        let mut at = vec![(0, b'h')];
        at.extend(accepts);
        let with_accepts = dots(24, &at);
        let without = dots(24, &[(0, b'h')]);
        for plan in [single, queues] {
            let m = merged_with(&["h.{20}", "a", "plain"], plan);
            assert_eq!(m.oracle(&with_accepts).len(), 1 + accepts.len());
            for budget in LOOKAHEAD_BUDGETS {
                let counts = sleep_stats(&m, &with_accepts, budget);
                assert_eq!(counts, sleep_stats(&m, &without, budget));
                assert_eq!(counts[4], (3, 18, 2), "the wake, the due byte, the drop");
            }
        }
    }

    #[test]
    fn restarting_an_untouched_engine_moves_only_its_position() {
        let m = merged(&FLEET_RULES);
        let stream = &fleet_streams(1)[0];
        let cache = m.hybrid_cache(2);
        let mut idle = m.hybrid_engine_on(&cache);
        let home = Arc::downgrade(&idle.at().generation);
        for position in [7, 4096] {
            idle.restart_at(position);
            assert_eq!(idle.position(), position);
            assert!(home.ptr_eq(&Arc::downgrade(&idle.at().generation)));
        }
        // Once its generation is retired a restart moves it on ...
        m.hybrid_engine_on(&cache)
            .feed_into(stream, &mut Vec::new());
        assert!(idle.at().generation.is_retired());
        idle.restart_at(9);
        assert!(!idle.at().generation.is_retired());
        // ... and it scans from there like a stream started at 9.
        let mut got = Vec::new();
        idle.feed_into(stream, &mut got);
        assert_eq!(got, m.oracle_from(9, stream));
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
            let wakes = hybrid.at().generation.read().wakes.len();
            assert!(wakes <= budget * m.alphabet().len());
        }
        // A flush in the middle of a sleep: `.{4}` is at 2 when 'p' asks
        // for a row the one-state cache has no room for.
        let m = merged(&patterns);
        let mut hybrid = m.hybrid_engine(1);
        let mut got = Vec::new();
        hybrid.feed_into(b"k..", &mut got);
        let before = hybrid.stats();
        hybrid.feed_into(b"p", &mut got);
        let after = hybrid.stats();
        assert!(after.flushes > before.flushes);
        assert_eq!(after.slept_bytes, before.slept_bytes + 1);
        assert_eq!(after.fallback_bytes, before.fallback_bytes);
        hybrid.feed_into(b".z", &mut got);
        assert_eq!(got, m.oracle(b"k..p.z"));
        assert_eq!(got.len(), 1);
    }

    #[test]
    fn detach_and_restart_with_counted_tokens_live() {
        let patterns = ["x[ab]{2,5}y", "k.{4}z", "(a{2}b){3}", "plain", "h.{12}"];
        let m = merged(&patterns);
        let input = b"xabkab.zaby.aabaabaab.k...z.h.....k......z";
        let expected = m.oracle(input);
        let mut asleep = 0;
        for cut in 1..input.len() {
            // Park the engine at `cut`: at rest between two feeds.
            let mut hybrid = m.hybrid_engine(DEFAULT_STATE_BUDGET);
            let mut got = Vec::new();
            hybrid.feed_into(&input[..cut], &mut got);
            let counting = hybrid.counters().any_live();
            asleep += usize::from(counting && hybrid.counters().horizon().0 > 0);
            let live = hybrid.active_states();
            assert_eq!(hybrid.position(), cut as u64);
            assert_eq!(hybrid.counters().any_live(), counting);
            assert_eq!(hybrid.active_states(), live);
            hybrid.feed_into(&input[cut..], &mut got);
            assert_eq!(got, expected, "cut at {cut}");

            // Restart at `cut`: counted tokens must not leak across it.
            let fresh = m.oracle_from(cut as u64, &input[cut..]);
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
            mid_count.counters().any_live(),
            "the cuts above do park mid-count"
        );
        assert!(asleep >= 10, "and in the middle of a sleep: {asleep}");
    }

    /// What an engine holds between chunks, whatever it keeps `S` in: its
    /// position, `S`, and the live modules of `T` with their tokens.
    type Configuration = (u64, Vec<u32>, Vec<(usize, Vec<u32>)>);

    fn configuration(h: &HybridEngine) -> Configuration {
        let pure = match &h.config {
            Config::Rows(rows) => rows.at.generation.read().cache.subset(rows.at.cur).to_vec(),
            Config::Rowless(rowless) => rowless.pure.clone(),
        };
        (h.position(), pure, h.counters().tokens())
    }

    /// The hand-over that lets an engine leave its rows in the middle of
    /// a stream and come back: after every chunk, the engine without rows
    /// and engines on a thrashing and on a roomy cache hold one
    /// configuration — nothing is converted between the two ways of
    /// keeping `S` — on counter-heavy input that is mid-count at every
    /// cut.
    #[test]
    fn engines_with_and_without_rows_agree_at_every_cut() {
        let patterns = [
            "h.{55}",
            "x[ab]{2,5}y",
            "(a{2}b){3}",
            "k.{4,9}z",
            "[^ac][ac]{3}",
            "plain",
        ];
        let input = b"hxabaybaabaabaab.k....zxacab.plain.".repeat(8);
        for plan in [queues, CompilePlan::conservative] {
            let m = merged_with(&patterns, plan);
            let mut engines = [m.engine(), m.hybrid_engine(1), m.hybrid_engine(4096)];
            let mut got = [Vec::new(), Vec::new(), Vec::new()];
            let (mut rest, mut lens) = (&input[..], [2usize, 3, 5, 7, 11].iter().cycle());
            while !rest.is_empty() {
                let (chunk, tail) = rest.split_at(rest.len().min(*lens.next().unwrap()));
                rest = tail;
                for (engine, got) in engines.iter_mut().zip(&mut got) {
                    engine.feed_into(chunk, got);
                }
                let rowless = configuration(&engines[0]);
                assert!(!rowless.2.is_empty(), "mid-count at {}", rowless.0);
                for engine in &engines[1..] {
                    assert_eq!(configuration(engine), rowless, "{engine:?}");
                }
            }
            assert!(engines[1].stats().flushes > 0);
            for got in got {
                assert_eq!(got, m.oracle(&input));
            }
        }
    }

    #[test]
    fn active_states_counts_both_halves() {
        let m = merged(&["x[ab]{2,5}y", "k.{4}z", "abc"]);
        let input = b"xabk.ab.zabcy";
        let mut exact = m.engine();
        let mut hybrid = m.hybrid_engine(DEFAULT_STATE_BUDGET);
        let mut sink = Vec::new();
        for &b in input {
            exact.feed_into(&[b], &mut sink);
            hybrid.feed_into(&[b], &mut sink);
            assert_eq!(hybrid.active_states(), exact.active_states());
        }
    }

    /// Driving the hybrid cache to saturation discovers exactly the
    /// reachable DFA states [`full_dfa_size`] counts on the same merged
    /// automaton.
    #[test]
    fn saturated_cache_agrees_with_full_dfa_size() {
        let m = merged(&["abc", "x[yz]x", ".*ba"]);
        assert!(
            m.nca().counters().is_empty(),
            "saturation comparison needs a counter-free merge"
        );
        let expected = full_dfa_size(m.nca(), 1 << 12).expect("small DFA");
        let mut hybrid = m.hybrid_engine(1 << 12);
        saturate(&m, &mut hybrid);
        assert_eq!(hybrid.discovered_states(), expected);
        let rows = hybrid.at().generation.read();
        assert!((0..rows.cache.len() * m.alphabet().len())
            .all(|offset| rows.cache.rows[offset] < WAKES));
    }

    /// Fixpoint: expands every `(state, class)` row of the engine's
    /// generation — states are numbered densely, so the `k`th has handle
    /// `k × classes` — until no new state appears. Leaves the engine on
    /// the last state expanded; the budget must hold every state.
    fn saturate(m: &MultiNca, hybrid: &mut HybridEngine) {
        let stride = m.alphabet().len();
        let mut done = 0;
        while done < hybrid.discovered_states() {
            for class in 0..stride {
                hybrid.at().cur = (done * stride) as u32;
                HybridEngine::successor(m, hybrid.at(), class);
            }
            done += 1;
        }
        assert_eq!(hybrid.stats().flushes, 0);
    }

    /// The invariant the row loops rest on: every filled entry is a row
    /// offset, flagged [`ACCEPTS`] exactly when its target accepts a
    /// pattern and [`WAKES`] exactly when the byte enters a counted state.
    #[test]
    fn row_flags_match_the_tables() {
        // Counters, pure accepts, and rule 1 accepting from both halves.
        let patterns = [
            "b",
            "([ab]{2,3}|b)",
            "[ab]b",
            "x[ab]{2,5}y",
            "k.{4}z",
            "plain",
        ];
        let m = merged(&patterns);
        let mut hybrid = m.hybrid_engine(DEFAULT_STATE_BUDGET);
        // A scan first, so that states only `S ∪ exits` reaches are in.
        let input = b"xababy.abab.bb.k....z.plain.xaby.kab..z";
        assert_eq!(hybrid.match_reports(input), m.oracle(input));
        saturate(&m, &mut hybrid);
        let stride = m.alphabet().len();
        let rows = hybrid.at().generation.read();
        let (mut next, mut entries) = (Vec::new(), Vec::new());
        let mut seen = [0usize; 3]; // plain, accepting, waking
        for id in 0..rows.cache.len() {
            let handle = (id * stride) as u32;
            for class in 0..stride {
                let entry = rows.cache.get(handle, class);
                assert_ne!(entry, UNKNOWN, "saturated");
                let (target, wake) = Wake::resolve(&rows.wakes, entry);
                assert_eq!(target as usize % stride, 0, "a handle is a row offset");
                assert!(target < ACCEPTS);
                walk_pure(
                    &m,
                    rows.cache.subset(handle),
                    class,
                    &mut next,
                    &mut entries,
                );
                assert_eq!(rows.cache.subset(target), next);
                let accepts: Vec<u32> = accepted(m.accepting(), &next).collect();
                assert_eq!(rows.accepts(target), accepts);
                match wake {
                    Some(wake) => {
                        assert_eq!(*wake.entries, *entries);
                        seen[2] += 1;
                    }
                    None => {
                        assert!(entries.is_empty(), "a byte into a counter wakes it");
                        assert_eq!(entry >= ACCEPTS, !accepts.is_empty());
                        seen[usize::from(entry >= ACCEPTS)] += 1;
                    }
                }
            }
        }
        assert!(seen.iter().all(|&n| n > 0), "{seen:?}");
    }

    #[test]
    fn handles_stay_below_the_accepts_flag_at_any_budget() {
        let bytes: Vec<String> = (0..=255u8).map(|b| format!("\\x{b:02x}")).collect();
        let bytes: Vec<&str> = bytes.iter().map(String::as_str).collect();
        let m = merged(&bytes);
        assert_eq!(m.alphabet().len(), 256);
        let shared = &*m.hybrid_cache(usize::MAX).0;
        // Every handle is below `state_budget × stride`.
        assert!(shared.state_budget * shared.stride <= ACCEPTS as usize);
        assert_eq!(shared.state_budget, 1 << 22);
    }

    // ---- one cache, many engines -------------------------------------

    /// The counting rules the shared-cache tests exercise, beside more
    /// than twenty pure ones.
    const FLEET_RULES: [&str; 27] = [
        "x[ab]{2,5}y",
        "(ab{2,3}c)+d",
        "h.{55}",
        "\\d{30}q",
        "abc",
        "x[yz]",
        "q",
        "cab",
        "needle",
        "hay",
        "foo",
        "ba[rz]",
        "hello",
        "yx",
        "dd",
        "cd",
        "bca",
        "xa",
        "yb",
        "ha",
        "hx",
        "zz",
        "[xy]a",
        "k",
        "plain",
        "bb",
        "o[ol]",
    ];

    /// `n` streams over the fleet rules' alphabet, all different: stream
    /// `k` is the base text rotated by `13 k`.
    fn fleet_streams(n: usize) -> Vec<Vec<u8>> {
        let base: &[u8] = b"xabaay.abbcabbbcd.hello needle in the hay, plain foo bar baz qq \
            xbby yx dd cd bca.habcabcabcabcabcabcabcabcabcabcabcabcabcabcabcabcabcabcab\
            zz xa yb k.xababy abbcd hx ha ool 012345678901234567890123456789q 12q";
        (0..n)
            .map(|k| {
                let mut s = base.to_vec();
                s.rotate_left((13 * k) % base.len());
                s
            })
            .collect()
    }

    /// What a fleet run saw besides the reports.
    #[derive(Debug, Default)]
    struct FleetTrace {
        flushes: u64,
        /// Feeds that began on a retired generation with `T` non-empty:
        /// another engine's flush landed while this one was mid-count.
        moved_mid_count: usize,
    }

    /// One engine per stream, all on ONE cache of `budget` states, fed
    /// round-robin one chunk of `chunk_len` bytes at a time; every
    /// stream's reports must equal its own oracle's. Also checks,
    /// after every feed, the cache's bound and that no more generations
    /// are alive than engines + 1.
    fn assert_fleet_matches_exact(
        m: &Merged,
        streams: &[Vec<u8>],
        budget: usize,
        chunk_len: usize,
    ) -> FleetTrace {
        let cache = m.hybrid_cache(budget);
        let mut engines: Vec<HybridEngine> =
            streams.iter().map(|_| m.hybrid_engine_on(&cache)).collect();
        let mut got: Vec<Vec<MultiReport>> = vec![Vec::new(); streams.len()];
        let mut generations: Vec<std::sync::Weak<Generation>> = Vec::new();
        let mut trace = FleetTrace::default();
        let longest = streams.iter().map(Vec::len).max().unwrap_or(0);
        for start in (0..longest).step_by(chunk_len) {
            for (k, engine) in engines.iter_mut().enumerate() {
                let stream = &streams[k];
                if start >= stream.len() {
                    continue;
                }
                if engine.at().generation.is_retired() && engine.counters().any_live() {
                    trace.moved_mid_count += 1;
                }
                let end = stream.len().min(start + chunk_len);
                engine.feed_into(&stream[start..end], &mut got[k]);
                assert!(
                    engine.discovered_states() <= budget,
                    "{} states cached under budget {budget}",
                    engine.discovered_states()
                );
                let seen = Arc::downgrade(&engine.at().generation);
                if !generations.iter().any(|g| g.ptr_eq(&seen)) {
                    generations.push(seen);
                }
                let alive = generations.iter().filter(|g| g.strong_count() > 0).count();
                assert!(alive <= streams.len() + 1, "{alive} generations alive");
            }
        }
        for (k, stream) in streams.iter().enumerate() {
            assert_eq!(
                got[k],
                m.oracle(stream),
                "stream {k}, budget {budget}, chunks of {chunk_len}"
            );
            assert_eq!(engines[k].position(), stream.len() as u64);
        }
        trace.flushes = cache.stats().flushes;
        trace
    }

    #[test]
    fn engines_sharing_a_cache_agree_with_exact_under_any_interleaving() {
        let m = merged(&FLEET_RULES);
        for fleet in [2usize, 5] {
            let streams = fleet_streams(fleet);
            for budget in [1usize, 2, 3, DEFAULT_STATE_BUDGET] {
                for chunk_len in [1usize, 3, 7] {
                    let trace = assert_fleet_matches_exact(&m, &streams, budget, chunk_len);
                    if budget <= 3 {
                        assert!(trace.flushes > 0, "budget {budget} must overflow");
                        assert!(
                            trace.moved_mid_count > 0,
                            "no engine was flushed under mid-count: {trace:?}"
                        );
                    } else {
                        assert_eq!(trace.flushes, 0);
                    }
                }
            }
        }
    }

    #[test]
    fn a_parked_engine_resumes_after_the_cache_was_flushed_under_it() {
        let m = merged(&FLEET_RULES);
        let streams = fleet_streams(2);
        let expected = m.oracle(&streams[0]);
        for cut in [1usize, 5, 17, 90, 130] {
            let cache = m.hybrid_cache(2);
            let mut parked = m.hybrid_engine_on(&cache);
            let mut got = Vec::new();
            parked.feed_into(&streams[0][..cut], &mut got);
            assert!(
                !parked.at().generation.is_retired(),
                "a parked flow must not pin a generation retired before it parked"
            );
            // Another flow of the shard flushes the cache at least twice.
            let before = cache.stats().flushes;
            let mut other = m.hybrid_engine_on(&cache);
            other.feed_into(&streams[1], &mut Vec::new());
            assert!(cache.stats().flushes >= before + 2);
            assert!(parked.at().generation.is_retired());
            parked.feed_into(&streams[0][cut..], &mut got);
            assert_eq!(got, expected, "cut at {cut}");
        }
    }

    #[test]
    fn a_retired_generation_is_freed_with_its_last_engine() {
        let m = merged(&["abc", "xy"]);
        let cache = m.hybrid_cache(2);
        let mut a = m.hybrid_engine_on(&cache);
        let mut b = m.hybrid_engine_on(&cache);
        let dropped = m.hybrid_engine_on(&cache);
        let first = Arc::downgrade(&a.at().generation);
        assert!(first.ptr_eq(&Arc::downgrade(&b.at().generation)));
        // `a` outgrows the budget: the first generation is retired, and
        // only the engines still on it keep it alive.
        a.feed_into(b"abcxy", &mut Vec::new());
        assert!(cache.stats().flushes > 0);
        assert!(!first.ptr_eq(&Arc::downgrade(&a.at().generation)));
        assert!(first.upgrade().is_some_and(|g| g.is_retired()));
        drop(dropped);
        assert!(first.upgrade().is_some(), "`b` still reads it");
        // `b` migrates at its next feed (an empty one will do).
        b.feed_into(b"", &mut Vec::new());
        assert!(first.upgrade().is_none(), "freed with its last reader");
        assert_eq!(b.match_reports(b"abcxyabc"), m.oracle(b"abcxyabc"));
    }

    /// The count-based regression for sharing the rows: flows with the
    /// traffic of an earlier flow intern nothing.
    #[test]
    fn identical_flows_intern_only_what_the_first_one_did() {
        let m = merged(&FLEET_RULES);
        let stream = &fleet_streams(1)[0];
        let expected = m.oracle(stream);
        let cache = m.hybrid_cache(DEFAULT_STATE_BUDGET);
        let mut first = m.hybrid_engine_on(&cache);
        assert_eq!(first.match_reports(stream), expected);
        let interned = cache.stats().dfa_states;
        assert!(interned > 10);
        let own = first.stats();
        for _ in 1..256 {
            let mut flow = m.hybrid_engine_on(&cache);
            let mut got = Vec::new();
            for chunk in stream.chunks(64) {
                flow.feed_into(chunk, &mut got);
            }
            assert_eq!(got, expected);
            // Same bytes, same path: the rows were just already there.
            assert_eq!(flow.stats(), own);
        }
        assert_eq!(cache.stats().dfa_states, interned);
        assert_eq!(cache.stats().flushes, 0);
    }

    #[test]
    fn a_poisoned_generation_is_retired_and_its_readers_go_on() {
        let m = merged(&FLEET_RULES);
        let streams = fleet_streams(2);
        let cache = m.hybrid_cache(DEFAULT_STATE_BUDGET);
        let mut reader = m.hybrid_engine_on(&cache);
        let mut got = Vec::new();
        reader.feed_into(&streams[0][..40], &mut got);
        // A writer panics with the generation's write lock held.
        let poisoned = Arc::clone(&reader.at().generation);
        let writer = std::thread::spawn({
            let poisoned = Arc::clone(&poisoned);
            move || {
                let _guard = poisoned.tables.write().unwrap();
                panic!("injected: writer dies mid-update");
            }
        });
        assert!(writer.join().is_err());
        assert!(poisoned.tables.is_poisoned());
        // The flow that was on it finishes byte-identically ...
        reader.feed_into(&streams[0][40..], &mut got);
        assert_eq!(got, m.oracle(&streams[0]));
        // ... on a fresh generation: the poisoned one takes no more
        // writes and is freed once nothing reads it.
        assert!(poisoned.is_retired());
        assert!(!Arc::ptr_eq(&poisoned, &reader.at().generation));
        assert!(!cache.current().is_retired());
        let freed = Arc::downgrade(&poisoned);
        drop(poisoned);
        assert!(freed.upgrade().is_none());
        // New flows of the shard are unaffected.
        let mut sibling = m.hybrid_engine_on(&cache);
        assert_eq!(sibling.match_reports(&streams[1]), m.oracle(&streams[1]));
    }

    /// Bounded stress (run it with `--release` too: debug builds barely
    /// race): 4 threads × 64 short flows over one cache, thrashing and
    /// roomy, each flow against its own oracle.
    #[test]
    fn threads_sharing_a_cache_agree_with_exact() {
        let m = merged(&FLEET_RULES);
        let streams = fleet_streams(64);
        let expected: Vec<Vec<MultiReport>> = streams.iter().map(|s| m.oracle(s)).collect();
        for budget in [3usize, DEFAULT_STATE_BUDGET] {
            let cache = m.hybrid_cache(budget);
            let start = std::sync::Barrier::new(4);
            std::thread::scope(|scope| {
                for t in 0..4usize {
                    let (m, cache, start) = (&m, &cache, &start);
                    let (streams, expected) = (&streams, &expected);
                    scope.spawn(move || {
                        start.wait();
                        for k in 0..64 {
                            // Each thread walks the flows from its own
                            // offset; a flow rests between its chunks
                            // while the other threads flush the cache.
                            let k = (k + 16 * t) % 64;
                            let mut engine = m.hybrid_engine_on(cache);
                            let mut got = Vec::new();
                            for chunk in streams[k].chunks(5 + t) {
                                engine.feed_into(chunk, &mut got);
                                assert!(engine.discovered_states() <= budget);
                            }
                            assert_eq!(got, expected[k], "thread {t}, flow {k}, budget {budget}");
                        }
                    });
                }
            });
            let stats = cache.stats();
            assert!(stats.dfa_states <= budget);
            assert_eq!(stats.flushes > 0, budget == 3, "{stats:?}");
        }
    }

    // ---- many flows at once ------------------------------------------

    /// Lockstep ≡ serial: batches of 1–4 engines on one cache, each fed a
    /// chunk of its own stream, of random length, by
    /// [`HybridEngine::feed_lockstep`], against twins on a cache of their
    /// own fed the same chunks one [`HybridEngine::feed_into`] at a time.
    /// The streams are the fleet's, cut into random pieces with runs of
    /// dots between them, so lanes ride the group for a while and then
    /// leave it, and a batch finds its engines cold, hot, counting or
    /// asleep. After every batch each engine's reports, position and byte
    /// counters are its twin's; at budget 2 generations are flushed in
    /// the middle of batches.
    #[test]
    fn lockstep_equals_serial() {
        let m = merged(&FLEET_RULES);
        let mut lcg = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move |n: usize| {
            lcg = (lcg.wrapping_mul(6364136223846793005)).wrapping_add(1442695040888963407);
            (lcg >> 33) as usize % n
        };
        let streams: Vec<Vec<u8>> = (fleet_streams(8).iter())
            .map(|fleet| {
                let mut stream = Vec::new();
                for piece in fleet.chunks(1 + next(40)) {
                    stream.extend_from_slice(piece);
                    stream.resize(stream.len() + next(200), b'.');
                }
                stream
            })
            .collect();
        let oracles: Vec<Vec<MultiReport>> = streams.iter().map(|s| m.oracle(s)).collect();
        let (mut counting, mut asleep, mut flushed) = (0, 0, 0);
        for budget in [2usize, 3, DEFAULT_STATE_BUDGET] {
            let (shared, own) = (m.hybrid_cache(budget), m.hybrid_cache(budget));
            let mut engines: Vec<HybridEngine> = streams
                .iter()
                .map(|_| m.hybrid_engine_on(&shared))
                .collect();
            let mut twins: Vec<HybridEngine> =
                streams.iter().map(|_| m.hybrid_engine_on(&own)).collect();
            let mut got = vec![Vec::new(); streams.len()];
            let mut want = vec![Vec::new(); streams.len()];
            let mut at = vec![0usize; streams.len()];
            loop {
                let mut live: Vec<usize> = (0..streams.len())
                    .filter(|&s| at[s] < streams[s].len())
                    .collect();
                if live.is_empty() {
                    break;
                }
                let mut batch = Vec::new();
                for _ in 0..1 + next(LOCKSTEP_LANES.min(live.len())) {
                    let s = live.swap_remove(next(live.len()));
                    batch.push((s, (1 + next(600)).min(streams[s].len() - at[s])));
                }
                for &(s, _) in &batch {
                    let counters = engines[s].counters();
                    counting += usize::from(counters.any_live());
                    asleep += usize::from(counters.any_live() && counters.horizon().0 > 0);
                }
                let flushes = shared.stats().flushes;
                let mut slots: Vec<Option<(&mut HybridEngine, &mut Vec<MultiReport>)>> =
                    engines.iter_mut().zip(&mut got).map(Some).collect();
                let mut lanes: Vec<(&mut HybridEngine, &[u8], &mut Vec<MultiReport>)> = (batch
                    .iter())
                .map(|&(s, len)| {
                    let (engine, out) = slots[s].take().expect("a stream is in a batch once");
                    (engine, &streams[s][at[s]..at[s] + len], out)
                })
                .collect();
                HybridEngine::feed_lockstep(&mut lanes);
                flushed += usize::from(batch.len() > 1 && shared.stats().flushes > flushes);
                for &(s, len) in &batch {
                    twins[s].feed_into(&streams[s][at[s]..at[s] + len], &mut want[s]);
                    at[s] += len;
                    assert_eq!(got[s], want[s], "stream {s}, budget {budget}");
                    assert_eq!(engines[s].position(), twins[s].position());
                    assert_eq!(engines[s].byte_counters(), twins[s].byte_counters());
                }
            }
            assert_eq!(got, oracles, "budget {budget}");
        }
        assert!(
            counting > 0 && asleep > 0,
            "{counting} counting, {asleep} asleep"
        );
        assert!(flushed > 0, "no generation was flushed in a batch");
    }
}
