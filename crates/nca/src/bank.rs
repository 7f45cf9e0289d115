//! The counter bank: a shard's counter-carrying states as a dense array
//! of counter modules — the software twin of the counter and bit-vector
//! modules the paper puts *beside* the STE array (§3.2.1, §4).
//!
//! [`crate::HybridEngine`] keeps the pure part of the frontier on DFA
//! rows, or without rows as a subset; what is left to step exactly is
//! `T`, the tokens on counted states — this bank, with rows or without,
//! the one implementation of the counting semantics outside the reference
//! engine, [`crate::TokenSetEngine`], which shares no plan and no cell
//! with it. A [`CounterBank`] is built once per [`crate::MultiNca`] and
//! indexes those states densely `0..k` **in state order**, so ascending
//! module index is ascending pattern — the per-step report order
//! contract. Each module's out-edges are compiled flat: the guard of a
//! single-counter source is one `lo..=hi` range, the value handed to a
//! single-counter destination is one [`SlotSrc`], and the destination is
//! tagged by what it is — a pure state (the token leaves the bank), a
//! register, a counting set, or general storage.
//!
//! A flow's share is a [`BankState`], O(k): a live mask, one [`Cell`]
//! and one `u64` value per module. The value is a register's count, for
//! a single-valuation counter, or a word, for a counting set whose bound
//! is at most 64: bit `v − 1` is set exactly when a token has value `v`,
//! and the word is 0 whenever its module is not live, so that an entry
//! cannot bring a stale token back. A larger counting set keeps a
//! [`CountingQueue`] in its cell, and only the bit-vector and token-set
//! modules that conservative plans and nested counting produce — and a
//! single valuation of several counters — keep [`Storage`].
//!
//! # Sleeping
//!
//! Between the byte a token enters on and the first value at which a
//! guard of its module can hold, nothing the module does is observable:
//! it counts. A module is a *sleeper* when that stretch can be read off
//! its cell — a register, a word or a queue, every guard a range, exactly
//! one self-edge that increments (taken from value 0 up; for a counting
//! set the one [`BankState::step`] takes in place). What is kept per
//! sleeper is its body — the self-edge's class set — and `first_due`, the
//! smallest value a token can have after a byte on which, or right after
//! which, something else can happen: an accept, an exit, a hand-off, the
//! loop guard giving out. With `front` the oldest value in the cell (a
//! word's highest set bit), the module sleeps `first_due − front − 1`
//! bytes as long as they are in its body, and `T` sleeps the least of its
//! live modules' horizons through the intersection of their bodies
//! ([`BankState::horizon`]) — 0 as soon as a module is live that is no
//! sleeper. Each step reads the horizon off the cells it has just
//! written and leaves it beside them. [`BankState::skip`]`(k)` is then
//! the whole effect of `k` bytes: it takes `k` off the horizon and adds
//! `k` to a count of skipped bytes, which the next step adds to every
//! live token as it reads it — an add per register, a shift per word, a
//! clock bump per queue. No due list is kept: the cell *is* the sorted
//! list of due times.
//!
//! # Stepping
//!
//! Most modules are *flat*: a register or a word whose guards are
//! ranges, with exactly one incrementing self-loop, no edge into another
//! module and at most one accept range. Such a module's whole step is a
//! few fixed fields (a [`Flat`] record) and two bits per byte class (in
//! its body; with an exit on it), all built once, and it is stepped in
//! place: a register adds one if the byte is in its body and the value
//! in its loop range, a word shifts left under its bound mask. The exits
//! are walked only for the modules with an exit on the byte's class, and
//! the accept is one range or mask test. While every live module and
//! every wake record is flat — read off the live mask on each byte — one
//! byte is that one pass, then the wake records as `[module, value]`
//! pairs, then the reports.
//!
//! Otherwise one byte is two passes over edge lists, the only path for
//! general storage and for hand-offs between modules. The *walk* visits
//! the live modules in order; each reads only its **own** cell (guards
//! resolve against source-state counters, a [`crate::nca`] invariant),
//! stages what it hands to other modules as flat `[module, values…]`
//! records, and — being the last reader of its cell — takes a counting
//! set's self-loop in place. The *apply* pass then writes the staged
//! records, the wake entries first. Both paths give the same tokens,
//! exits, reports, horizon and conflict count: where a register both
//! survives and is entered, the flat pass puts the entries in first, as
//! the apply pass does.

use crate::multi::MultiReport;
use crate::nca::{Nca, StateId};
use crate::plan::{CompilePlan, StorageMode};
use crate::token::{resolve_guard, resolve_transition, SlotSrc, SlotTest};
use recama_syntax::ByteAlphabet;
use std::collections::HashSet;

/// [`CounterBank::module_of`] entry of a pure state.
pub(crate) const PURE: u32 = u32::MAX;

/// A set of byte classes (an alphabet has at most 256).
pub(crate) type ClassSet = [u64; 4];

pub(crate) fn has_class(set: &ClassSet, class: usize) -> bool {
    set[class / 64] & (1 << (class % 64)) != 0
}

/// The horizon of an empty `T`: nothing to wait for, no class excluded.
const NO_NAP: (u32, ClassSet) = (u32::MAX, [u64::MAX; 4]);

/// The largest counting-set bound a word cell holds.
const WORD_BITS: u32 = u64::BITS;

/// The bits of a word cell that stand for the values `lo..=hi`.
fn value_mask(lo: u32, hi: u32) -> u64 {
    let (lo, hi) = (lo.max(1), hi.min(WORD_BITS));
    if lo > hi {
        0
    } else {
        (u64::MAX >> (WORD_BITS - (hi - lo + 1))) << (lo - 1)
    }
}

/// A conjunction of counter tests over a source valuation.
#[derive(Debug)]
enum Guard {
    /// Single-counter source: the whole conjunction is `lo ≤ x ≤ hi`
    /// (`lo > hi` when it cannot hold).
    Range(u32, u32),
    General(Box<[SlotTest]>),
}

impl Guard {
    fn compile(tests: Vec<SlotTest>, single_counter: bool) -> Guard {
        if !single_counter {
            return Guard::General(tests.into());
        }
        let (mut lo, mut hi) = (0, u32::MAX);
        for test in tests {
            let (l, h) = match test {
                SlotTest::Lt(_, 0) => (1, 0),
                SlotTest::Lt(_, n) => (0, n - 1),
                SlotTest::Range(_, l, h) => (l, h),
                SlotTest::Ge(_, m) => (m, u32::MAX),
                SlotTest::Eq(_, n) => (n, n),
            };
            (lo, hi) = (lo.max(l), hi.min(h));
        }
        Guard::Range(lo, hi)
    }

    fn eval(&self, values: &[u32]) -> bool {
        match self {
            Guard::Range(lo, hi) => (*lo..=*hi).contains(&values[0]),
            Guard::General(tests) => tests.iter().all(|t| t.eval(values)),
        }
    }
}

/// Where an edge out of a module leads.
#[derive(Debug)]
enum Dest {
    /// A pure state: the token leaves the bank for the DFA rows.
    Exit(u32),
    Register {
        module: u32,
        value: SlotSrc,
    },
    /// An `x := 1` entry into a counting set.
    Queue {
        module: u32,
    },
    /// The `x++` self-loop of a counting set.
    QueueLoop,
    General {
        module: u32,
        values: Box<[SlotSrc]>,
    },
}

#[derive(Debug)]
struct Edge {
    /// Byte classes inside the destination state's predicate.
    classes: ClassSet,
    guard: Guard,
    dest: Dest,
}

/// What a module keeps per flow.
#[derive(Debug, Clone, Copy)]
enum CellKind {
    Register,
    /// A counting set of bound at most [`WORD_BITS`].
    Word,
    /// A larger counting set.
    Queue,
    General(StorageMode),
}

#[derive(Debug)]
struct Module {
    /// The pattern the state reports for.
    pattern: u32,
    kind: CellKind,
    /// Largest value of the state's first counter.
    bound: u32,
    /// Counters the state carries: the width of its records.
    width: usize,
    /// Finalization predicate, a disjunction (empty: never accepts).
    accept: Box<[Guard]>,
    edges: Box<[Edge]>,
    /// Byte classes on which some out-edge can fire, guards ignored.
    successor_classes: ClassSet,
    /// Set when the module can count unobserved.
    sleeper: Option<Sleeper>,
}

/// What lets a module count unobserved: see "Sleeping" in the module
/// docs.
#[derive(Debug)]
struct Sleeper {
    /// The body predicate: the class set of the incrementing self-edge.
    loop_classes: ClassSet,
    /// The smallest value a token can have *after* a byte on which, or
    /// right after which, anything but that self-edge can happen: the
    /// least `lo` over the accept guards (read after the byte), `lo + 1`
    /// over every other edge's guard (read before the next one), and two
    /// past the self-edge guard's upper end (one past it the token is
    /// still there, at the counter's bound, and dies on the next byte).
    first_due: u32,
}

impl Sleeper {
    /// The sleeper in module `own`, if it is one: a register or a
    /// counting set with exactly one incrementing self-edge, taken from
    /// value 0 up.
    fn of(
        own: u32,
        kind: CellKind,
        bound: u32,
        edges: &[Edge],
        accept: &[Guard],
    ) -> Option<Sleeper> {
        if let CellKind::General(_) = kind {
            return None;
        }
        let mut body = None;
        let mut first_due = u32::MAX;
        for edge in edges {
            let Guard::Range(lo, hi) = edge.guard else {
                return None;
            };
            let loop_hi = match edge.dest {
                // `BankState::step` replaces this guard by the bound.
                Dest::QueueLoop => Some(bound - 1),
                Dest::Register {
                    module,
                    value: SlotSrc::Inc(_),
                } if module == own && lo == 0 => Some(hi),
                _ => None,
            };
            match loop_hi {
                Some(_) if body.is_some() => return None,
                Some(hi) => body = Some((edge.classes, hi)),
                // A guard reads the value before the byte, an accept
                // (below) the one after it.
                None => first_due = first_due.min(lo.saturating_add(1)),
            }
        }
        for guard in accept {
            let Guard::Range(lo, _) = *guard else {
                return None;
            };
            first_due = first_due.min(lo);
        }
        let (loop_classes, loop_hi) = body?;
        Some(Sleeper {
            loop_classes,
            first_due: first_due.min(loop_hi.saturating_add(2)),
        })
    }
}

/// A flat module's scalars: see "Stepping" in the module docs. A
/// register reads the loop and accept ranges, a word the masks. One
/// cache line each.
#[derive(Debug, Default, Clone, Copy)]
#[repr(align(64))]
struct Flat {
    /// The body's classes, for the horizon.
    loop_classes: ClassSet,
    /// A register's self-loop guard.
    loop_lo: u32,
    loop_hi: u32,
    /// A word's values `1..=bound`: what survives a shift.
    bound_mask: u64,
    /// The accept range (`lo > hi`: never accepts), and its bits.
    accept_lo: u32,
    accept_hi: u32,
    accept_mask: u64,
    pattern: u32,
    /// The sleeper's `first_due`; 0 when the module is no sleeper, so
    /// that its horizon is 0.
    first_due: u32,
}

impl Flat {
    /// Whether the value `v` accepts.
    fn accepts(&self, word: bool, v: u64) -> bool {
        if word {
            v & self.accept_mask != 0
        } else {
            (u64::from(self.accept_lo)..=u64::from(self.accept_hi)).contains(&v)
        }
    }
}

/// An edge of a flat module into a pure state, guarded by `lo..=hi`
/// (`mask` on a word).
#[derive(Debug)]
struct FlatExit {
    classes: ClassSet,
    lo: u32,
    hi: u32,
    mask: u64,
    state: u32,
}

/// The flat modules, laid out for the one pass: bitsets over modules,
/// and per module a [`Flat`] (the default for a module that is not flat).
#[derive(Debug)]
struct FlatBank {
    /// The flat modules, and the words among them.
    mask: Vec<u64>,
    word: Vec<u64>,
    /// Per class, `mask.len()` pairs: the flat modules whose body holds
    /// the class, and those with an exit on it.
    body: Vec<[u64; 2]>,
    records: Vec<Flat>,
    exits: Vec<Box<[FlatExit]>>,
}

impl FlatBank {
    fn build(modules: &[Module], classes: usize) -> FlatBank {
        let words = modules.len().div_ceil(64);
        let mut flat = FlatBank {
            mask: vec![0; words],
            word: vec![0; words],
            body: vec![[0; 2]; classes * words],
            records: vec![Flat::default(); modules.len()],
            exits: modules.iter().map(|_| Box::default()).collect(),
        };
        for (m, module) in modules.iter().enumerate() {
            flat.add(m, module);
        }
        flat
    }

    /// Records module `m` if it is flat; leaves everything as it was if
    /// not.
    fn add(&mut self, m: usize, module: &Module) -> Option<()> {
        let word = match module.kind {
            CellKind::Register => false,
            CellKind::Word => true,
            _ => return None,
        };
        if module.width != 1 {
            return None;
        }
        let mut body = None;
        let mut exits = Vec::new();
        for edge in module.edges.iter() {
            let Guard::Range(lo, hi) = edge.guard else {
                return None;
            };
            match edge.dest {
                Dest::Exit(state) => exits.push(FlatExit {
                    classes: edge.classes,
                    lo,
                    hi,
                    mask: value_mask(lo, hi),
                    state,
                }),
                Dest::QueueLoop if body.is_none() => body = Some((edge.classes, lo, hi)),
                Dest::Register {
                    module: to,
                    value: SlotSrc::Inc(_),
                } if to as usize == m && body.is_none() => body = Some((edge.classes, lo, hi)),
                _ => return None,
            }
        }
        let (loop_classes, loop_lo, loop_hi) = body?;
        let (accept_lo, accept_hi) = match *module.accept {
            [] => (1, 0),
            [Guard::Range(lo, hi)] => (lo, hi),
            _ => return None,
        };
        self.records[m] = Flat {
            loop_classes,
            loop_lo,
            loop_hi,
            bound_mask: value_mask(1, module.bound),
            accept_lo,
            accept_hi,
            accept_mask: value_mask(accept_lo, accept_hi),
            pattern: module.pattern,
            first_due: module.sleeper.as_ref().map_or(0, |s| s.first_due),
        };
        let (wi, bit, words) = (m / 64, 1 << (m % 64), self.mask.len());
        self.mask[wi] |= bit;
        if word {
            self.word[wi] |= bit;
        }
        for class in 0..self.body.len() / words {
            if has_class(&loop_classes, class) {
                self.body[class * words + wi][0] |= bit;
            }
            if exits.iter().any(|e| has_class(&e.classes, class)) {
                self.body[class * words + wi][1] |= bit;
            }
        }
        self.exits[m] = exits.into();
        Some(())
    }

    fn is_flat(&self, m: usize) -> bool {
        self.mask[m / 64] >> (m % 64) & 1 != 0
    }

    fn is_word(&self, m: usize) -> bool {
        self.word[m / 64] >> (m % 64) & 1 != 0
    }

    /// Appends the exits that module `m`'s value `v` takes on a byte of
    /// `class`.
    fn exit(&self, m: usize, v: u64, class: usize, exits: &mut Vec<u32>) {
        let word = self.is_word(m);
        for exit in self.exits[m].iter() {
            let guard = if word {
                v & exit.mask != 0
            } else {
                (u64::from(exit.lo)..=u64::from(exit.hi)).contains(&v)
            };
            if guard && has_class(&exit.classes, class) {
                exits.push(exit.state);
            }
        }
    }
}

/// The immutable half: see the module docs.
#[derive(Debug)]
pub(crate) struct CounterBank {
    /// Module index per automaton state, [`PURE`] for a pure one.
    pub(crate) module_of: Vec<u32>,
    modules: Vec<Module>,
    flat: FlatBank,
}

impl CounterBank {
    pub(crate) fn build(
        nca: &Nca,
        plan: &CompilePlan,
        alphabet: &ByteAlphabet,
        pattern_of_state: &[u32],
    ) -> CounterBank {
        let mut module_of = vec![PURE; nca.state_count()];
        let counted = nca
            .states()
            .iter()
            .enumerate()
            .filter(|(_, s)| !s.is_pure());
        for (module, (qi, _)) in (0..).zip(counted) {
            module_of[qi] = module;
        }
        let bound_of = |q: StateId| nca.counter(nca.state(q).counters[0]).bound();
        let kind_of = |q: StateId| match plan.mode(q) {
            StorageMode::SingleValue if nca.state(q).counters.len() == 1 => CellKind::Register,
            StorageMode::CountingSet if bound_of(q) <= WORD_BITS => CellKind::Word,
            StorageMode::CountingSet => CellKind::Queue,
            mode => CellKind::General(mode),
        };
        let classes_of = |q: StateId| {
            let mut set = ClassSet::default();
            for (class, representative) in alphabet.classes() {
                if nca.state(q).class.contains(representative) {
                    set[class / 64] |= 1 << (class % 64);
                }
            }
            set
        };
        let modules: Vec<Module> = (0..nca.state_count() as u32)
            .map(StateId)
            .filter(|&q| !nca.state(q).is_pure())
            .map(|q| {
                let state = nca.state(q);
                let (kind, bound) = (kind_of(q), bound_of(q));
                let single_counter = state.counters.len() == 1;
                let edges: Box<[Edge]> = nca
                    .transitions_from(q)
                    .map(|t| {
                        let (guard, values) = resolve_transition(nca, t);
                        let module = module_of[t.to.index()];
                        let dest = match (module, kind_of(t.to)) {
                            (PURE, _) => Dest::Exit(t.to.0),
                            (_, CellKind::Register) => Dest::Register {
                                module,
                                value: values[0],
                            },
                            (_, CellKind::Word | CellKind::Queue) if t.to == q => Dest::QueueLoop,
                            (_, CellKind::Word | CellKind::Queue) => Dest::Queue { module },
                            (_, CellKind::General(_)) => Dest::General {
                                module,
                                values: values.into(),
                            },
                        };
                        Edge {
                            classes: classes_of(t.to),
                            guard: Guard::compile(guard, single_counter),
                            dest,
                        }
                    })
                    .collect();
                let mut successor_classes = ClassSet::default();
                for edge in edges.iter() {
                    for (word, more) in successor_classes.iter_mut().zip(&edge.classes) {
                        *word |= more;
                    }
                }
                let accept: Box<[Guard]> = state
                    .accepts
                    .iter()
                    .map(|conj| Guard::compile(resolve_guard(nca, q, conj), single_counter))
                    .collect();
                Module {
                    pattern: pattern_of_state[q.index()],
                    kind,
                    bound,
                    width: state.counters.len(),
                    sleeper: Sleeper::of(module_of[q.index()], kind, bound, &edges, &accept),
                    accept,
                    edges,
                    successor_classes,
                }
            })
            .collect();
        let flat = FlatBank::build(&modules, alphabet.len());
        CounterBank {
            module_of,
            modules,
            flat,
        }
    }

    /// Number of modules: the automaton's counted states.
    pub(crate) fn len(&self) -> usize {
        self.modules.len()
    }

    /// What the cell of the module on automaton state `state` is, for a
    /// reader: `a 55-bit word (flat)`, `a register`, … `None` for a pure
    /// state.
    pub(crate) fn describe(&self, state: StateId) -> Option<String> {
        let m = self.module_of[state.index()];
        let module = self.modules.get(m as usize)?;
        let cell = match module.kind {
            CellKind::Register => "a register".to_string(),
            CellKind::Word => format!("a {}-bit word", module.bound),
            CellKind::Queue => "a counting-set queue".to_string(),
            CellKind::General(StorageMode::BitVector) => "a bit vector".to_string(),
            CellKind::General(StorageMode::TokenSet) => "a token set".to_string(),
            CellKind::General(_) => "a multi-counter register".to_string(),
        };
        let flat = if self.flat.is_flat(m as usize) {
            " (flat)"
        } else {
            ""
        };
        Some(cell + flat)
    }

    /// Splits flat `[module, values…]` records.
    fn records<'r>(&'r self, mut flat: &'r [u32]) -> impl Iterator<Item = (usize, &'r [u32])> {
        std::iter::from_fn(move || {
            let (&module, rest) = flat.split_first()?;
            let (values, rest) = rest.split_at(self.modules[module as usize].width);
            flat = rest;
            Some((module as usize, values))
        })
    }

    /// The classes of the *next* byte on which every token that the wake
    /// records `entries` put in is provably dead without a trace: its
    /// module does not accept under the entry valuation, and no out-edge
    /// of it leads to a state whose predicate holds the class. Guards are
    /// ignored, which only shrinks the set. (Bits past the alphabet's
    /// last class are set and never probed.)
    pub(crate) fn quiet_classes(&self, entries: &[u32]) -> ClassSet {
        let mut may_survive = ClassSet::default();
        for (m, values) in self.records(entries) {
            let module = &self.modules[m];
            if module.accept.iter().any(|g| g.eval(values)) {
                return ClassSet::default();
            }
            for (word, more) in may_survive.iter_mut().zip(&module.successor_classes) {
                *word |= more;
            }
        }
        may_survive.map(|word| !word)
    }
}

/// What a module keeps per flow beside its entry in
/// [`BankState::values`].
#[derive(Clone)]
enum Cell {
    /// The one valuation of a single-counter, single-valuation state is
    /// its value.
    Register,
    /// A counting set of bound at most [`WORD_BITS`]: bit `v − 1` of its
    /// value is set exactly when a token has value `v`. The value is 0
    /// whenever the module is not live, so that an entry cannot bring a
    /// stale token back.
    Word,
    /// A larger counting set; empty whenever the module is not live.
    Queue(CountingQueue),
    /// Bit vector, token set or multi-counter single valuation; holds
    /// stale tokens while the module is not live.
    General(Storage),
}

impl Cell {
    /// Calls `f` on every token of the cell whose value is `value`.
    #[inline(always)]
    fn for_each(&self, value: u64, mut f: impl FnMut(&[u32])) {
        match self {
            Cell::Register => f(&[value as u32]),
            Cell::Word => bits(value).for_each(|bit| f(&[bit as u32 + 1])),
            Cell::Queue(queue) => queue.values().for_each(|v| f(&[v])),
            Cell::General(storage) => storage.for_each(f),
        }
    }

    /// Whether some token satisfies `guard`.
    #[inline(always)]
    fn any(&self, value: u64, guard: &Guard) -> bool {
        match (self, guard) {
            (Cell::Word, Guard::Range(lo, hi)) => value & value_mask(*lo, *hi) != 0,
            (Cell::Queue(queue), Guard::Range(lo, hi)) => queue.any_in(*lo, *hi),
            _ => {
                let mut hit = false;
                self.for_each(value, |values| hit = hit || guard.eval(values));
                hit
            }
        }
    }

    /// The oldest token's value, of a live sleeper's cell.
    #[inline(always)]
    fn front(&self, value: u64) -> u32 {
        match self {
            Cell::Register => value as u32,
            Cell::Word => WORD_BITS - value.leading_zeros(),
            Cell::Queue(queue) => queue.values().next().expect("live queues hold a token"),
            Cell::General(_) => unreachable!("general cells are never sleepers"),
        }
    }
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
    fn advance(&mut self, k: u32) {
        self.clock += u64::from(k);
    }

    /// Insert a fresh token with value 1 (deduplicated).
    pub(crate) fn set_first(&mut self) {
        if self.births.back() != Some(&self.clock) {
            self.births.push_back(self.clock);
        }
    }

    fn clear(&mut self) {
        self.births.clear();
    }

    fn is_empty(&self) -> bool {
        self.births.is_empty()
    }

    /// Live counter values, largest (oldest token) first.
    pub(crate) fn values(&self) -> impl Iterator<Item = u32> + '_ {
        self.births.iter().map(|&b| self.value_of(b))
    }

    /// Whether some token's value lies in `lo..=hi`. Values descend, so
    /// the first one not above `hi` decides: O(1) for an exit test
    /// `m ≤ x ≤ n` against the bound.
    fn any_in(&self, lo: u32, hi: u32) -> bool {
        self.values().find(|&v| v <= hi).is_some_and(|v| v >= lo)
    }
}

/// The cell of a module that is neither a register nor a counting set:
/// a bit vector, a token set or a multi-counter single valuation.
#[derive(Debug, Clone)]
pub(crate) enum Storage {
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
    Tokens(HashSet<Vec<u32>>),
}

impl Storage {
    /// The cell of `mode`, for a counter of `bound` (a bit vector's).
    pub(crate) fn new(mode: StorageMode, bound: u32) -> Storage {
        match mode {
            StorageMode::SingleValue => Storage::Single {
                live: false,
                values: Vec::new(),
            },
            StorageMode::BitVector => Storage::Bits {
                words: vec![0; ((bound as usize + 1).div_ceil(64)).max(1)],
                bound,
            },
            StorageMode::TokenSet => Storage::Tokens(HashSet::new()),
            StorageMode::PureBit | StorageMode::CountingSet => {
                unreachable!("{mode:?} keeps no storage cell")
            }
        }
    }

    pub(crate) fn clear(&mut self) {
        match self {
            Storage::Single { live, .. } => *live = false,
            Storage::Bits { words, .. } => words.iter_mut().for_each(|w| *w = 0),
            Storage::Tokens(set) => set.clear(),
        }
    }

    /// Calls `f` with every live valuation.
    pub(crate) fn for_each(&self, mut f: impl FnMut(&[u32])) {
        match self {
            Storage::Single { live: true, values } => f(values),
            Storage::Single { live: false, .. } => {}
            Storage::Bits { words, .. } => {
                for (wi, &w) in words.iter().enumerate() {
                    bits(w).for_each(|b| f(&[(wi * 64 + b) as u32]));
                }
            }
            Storage::Tokens(set) => set.iter().for_each(|v| f(v)),
        }
    }

    /// Inserts a valuation; returns `true` on a SingleValue conflict (two
    /// distinct valuations on a state the plan claims unambiguous).
    pub(crate) fn insert(&mut self, values: &[u32]) -> bool {
        match self {
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
            Storage::Tokens(set) => {
                set.insert(values.to_vec());
                false
            }
        }
    }
}

/// The value of a register (`word` false) or a word `k` bytes older,
/// inside the horizon: no token of a word passes its bound there, so `k`
/// is below its width.
fn aged(value: u64, word: bool, k: u32) -> u64 {
    if word {
        value << k
    } else {
        value + u64::from(k)
    }
}

/// Puts the entry value `e` into a register or a word holding `value`;
/// `first` when nothing was put in on this byte yet. Two valuations on
/// a register the plan calls unambiguous keep the smaller, as
/// [`Storage::insert`] does, and count a conflict.
fn put_value(value: &mut u64, word: bool, e: u64, first: bool, conflicts: &mut u64) {
    if word {
        debug_assert!(!first || *value == 0, "a word is 0 while not live");
        *value |= 1;
    } else if first {
        *value = e;
    } else {
        *conflicts += u64::from(*value != e);
        *value = (*value).min(e);
    }
}

/// A flow's counted tokens `T`: see the module docs.
#[derive(Clone)]
pub(crate) struct BankState {
    cells: Vec<Cell>,
    /// Per module, the value of a register or a word (unused by other
    /// cells): a flat module's whole state, stepped in place.
    values: Vec<u64>,
    /// Bitset over modules: the cell holds at least one token.
    live: Vec<u64>,
    /// Scratch: the live mask after the byte being stepped.
    next_live: Vec<u64>,
    /// Scratch: the records staged by the byte being stepped.
    staged: Vec<u32>,
    /// Scratch: the modules that accept after the byte being stepped.
    accepting: Vec<u64>,
    /// [`BankState::horizon`]: what the last step read off the cells,
    /// and `skip` keeps.
    nap: (u32, ClassSet),
    /// Bytes skipped since the last step: every live token is that much
    /// older than its cell says.
    pending: u32,
    /// Valuations a single-valued cell was handed beside the one it kept
    /// ([`BankState::conflicts`]).
    conflicts: u64,
}

impl BankState {
    /// No token live.
    pub(crate) fn new(bank: &CounterBank) -> BankState {
        let cells = bank.modules.iter().map(|module| match module.kind {
            CellKind::Register => Cell::Register,
            CellKind::Word => Cell::Word,
            CellKind::Queue => Cell::Queue(CountingQueue::default()),
            CellKind::General(mode) => Cell::General(Storage::new(mode, module.bound)),
        });
        let words = bank.len().div_ceil(64);
        BankState {
            cells: cells.collect(),
            values: vec![0; bank.len()],
            live: vec![0; words],
            next_live: vec![0; words],
            staged: Vec::new(),
            accepting: vec![0; words],
            nap: NO_NAP,
            pending: 0,
            conflicts: 0,
        }
    }

    /// Per-flow storage cells: one per module.
    #[cfg(test)]
    pub(crate) fn cells(&self) -> usize {
        self.cells.len()
    }

    /// Every live token as `(module, valuation)`, sorted.
    #[cfg(test)]
    pub(crate) fn tokens(&self) -> Vec<(usize, Vec<u32>)> {
        let mut aged = self.clone();
        aged.catch_up();
        let mut tokens = Vec::new();
        for m in live_modules(&aged.live) {
            (aged.cells[m]).for_each(aged.values[m], |values| tokens.push((m, values.to_vec())));
        }
        tokens.sort();
        tokens
    }

    /// How many times, since the last [`BankState::clear`], a cell the
    /// plan declared single-valued was handed a second, different
    /// valuation on one byte — a register, or a multi-counter
    /// single-valuation cell. Both keep the smaller. It stays 0 when the
    /// plan came from a sound analysis: the runtime cross-check of the
    /// analysis that [`crate::HybridEngine::conflicts`] reports.
    pub(crate) fn conflicts(&self) -> u64 {
        self.conflicts
    }

    /// Whether `T` is non-empty.
    pub(crate) fn any_live(&self) -> bool {
        self.live.iter().any(|&w| w != 0)
    }

    /// Live modules, i.e. live counted states.
    pub(crate) fn live_count(&self) -> usize {
        self.live.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Drops every token, and rewinds the conflict count.
    pub(crate) fn clear(&mut self) {
        self.conflicts = 0;
        self.nap = NO_NAP;
        self.pending = 0;
        for (wi, word) in self.live.iter_mut().enumerate() {
            for bit in bits(std::mem::take(word)) {
                let m = wi * 64 + bit;
                match &mut self.cells[m] {
                    Cell::Word => self.values[m] = 0,
                    Cell::Queue(queue) => queue.clear(),
                    _ => {}
                }
            }
        }
    }

    /// How long `T` can go unobserved: `(h, body)` such that on each of
    /// the next `h` bytes, as long as they are all of a class in `body`,
    /// every live token takes its module's incrementing self-edge and
    /// nothing else happens — [`BankState::skip`] is then the whole
    /// effect. `h` is 0 as soon as one live module is not a sleeper or is
    /// due. Each step reads it off the cells it leaves, and `skip` takes
    /// its bytes off. (With `T` empty there is nothing to look at: `h` is
    /// `u32::MAX`.)
    pub(crate) fn horizon(&self) -> (u32, ClassSet) {
        self.nap
    }

    /// The effect of `k` bytes inside the [`BankState::horizon`]: every
    /// live token is `k` older. The cells learn it on the next step.
    pub(crate) fn skip(&mut self, k: u32) {
        // Every live module's own horizon shrinks by `k`.
        if self.nap.0 != NO_NAP.0 {
            self.nap.0 -= k;
        }
        self.pending += k;
    }

    /// Whether every word cell of a module that is not live is 0.
    fn words_are_clean(&self) -> bool {
        (self.cells.iter().zip(&self.values).enumerate()).all(|(m, (cell, &value))| {
            !matches!(cell, Cell::Word) || self.live[m / 64] >> (m % 64) & 1 != 0 || value == 0
        })
    }

    /// Ages every live token by the bytes skipped since the last step.
    fn catch_up(&mut self) {
        let k = std::mem::take(&mut self.pending);
        if k == 0 {
            return;
        }
        for (wi, &live) in self.live.iter().enumerate() {
            for bit in bits(live) {
                let m = wi * 64 + bit;
                match &mut self.cells[m] {
                    Cell::Register => self.values[m] = aged(self.values[m], false, k),
                    Cell::Word => self.values[m] = aged(self.values[m], true, k),
                    Cell::Queue(queue) => queue.advance(k),
                    Cell::General(_) => unreachable!("general cells are never sleepers"),
                }
            }
        }
    }

    /// Advances `T` over one byte of `class` — the counter and bit-vector
    /// modules' half of one hybrid step:
    ///
    /// * every out-edge of a live module fires — guard against the
    ///   module's own cell, class against the destination's predicate —
    ///   and a token reaching a *pure* state leaves the bank: the state
    ///   is appended to `exits` (unsorted, possibly repeated) for the
    ///   caller to union into its pure frontier;
    /// * `entries` — the wake records of the caller's row: the edges
    ///   from its pure frontier into counted states on this class, as
    ///   `[module, constant valuation…]` — are put in;
    /// * modules accepting after the byte report at offset `end`,
    ///   ascending by pattern, one report per pattern.
    ///
    /// Returns the number of modules live before the byte: the modules
    /// stepped.
    pub(crate) fn step(
        &mut self,
        bank: &CounterBank,
        class: usize,
        entries: &[u32],
        exits: &mut Vec<u32>,
        end: u64,
        out: &mut Vec<MultiReport>,
    ) -> usize {
        // A flat record is `[module, value]`: up to the first record that
        // is not flat, pairs are records.
        let flat = &bank.flat;
        let all_flat = (self.live.iter().zip(&flat.mask)).all(|(live, flat)| live & !flat == 0)
            && (entries.chunks_exact(2)).all(|record| flat.is_flat(record[0] as usize));
        if all_flat {
            self.step_flat(flat, class, entries, exits, end, out)
        } else {
            self.step_edges(bank, class, entries, exits, end, out)
        }
    }

    /// [`BankState::step`] when every live module and every entry is
    /// flat: one pass over the values, in place, with a module's body and
    /// exits read off the class's bitsets.
    #[inline(never)]
    fn step_flat(
        &mut self,
        flat: &FlatBank,
        class: usize,
        entries: &[u32],
        exits: &mut Vec<u32>,
        end: u64,
        out: &mut Vec<MultiReport>,
    ) -> usize {
        let words = self.live.len();
        let body = &flat.body[class * words..][..words];
        // The edge walk puts a byte's entries in before the self-loops:
        // a register's survivor that an entry targets too waits in
        // `staged`, so that the conflict count sees them in that order.
        self.staged.clear();
        // The bytes skipped since the last step, which every live value
        // takes on as it is read.
        let pending = std::mem::take(&mut self.pending);
        let mut stepped = 0;
        // The horizon after the byte, a module at a time; an entry's
        // target waits until its value is final.
        let (mut h, mut nap_body) = NO_NAP;
        let mut nap = |m: usize, is_word: bool, v: u64| {
            let front = if is_word {
                WORD_BITS - v.leading_zeros()
            } else {
                v as u32
            };
            h = h.min(
                flat.records[m]
                    .first_due
                    .saturating_sub(front.saturating_add(1)),
            );
            for (word, more) in nap_body.iter_mut().zip(&flat.records[m].loop_classes) {
                *word &= more;
            }
        };
        for wi in 0..words {
            let (live, word) = (self.live[wi], flat.word[wi]);
            stepped += live.count_ones() as usize;
            // The exits read the values before the byte.
            let [body, exiting] = body[wi];
            for bit in bits(live & exiting) {
                let m = wi * 64 + bit;
                let v = aged(self.values[m], word >> bit & 1 != 0, pending);
                flat.exit(m, v, class, exits);
            }
            // A word whose body misses the byte loses every token; a
            // register keeps a stale value, which the next entry
            // overwrites.
            for bit in bits(live & !body & word) {
                self.values[wi * 64 + bit] = 0;
            }
            let targets = entry_targets(entries, wi);
            let (mut next, mut accepting) = (0, 0);
            for bit in bits(live & body) {
                let m = wi * 64 + bit;
                let is_word = word >> bit & 1 != 0;
                let (record, v) = (&flat.records[m], aged(self.values[m], is_word, pending));
                let (new, alive) = if is_word {
                    debug_assert!(v != 0, "a live word holds a token");
                    let shifted = (v << 1) & record.bound_mask;
                    (shifted, shifted != 0)
                } else {
                    debug_assert!(
                        v <= u64::from(record.loop_hi) + 1,
                        "a register stays inside its loop range"
                    );
                    let range = u64::from(record.loop_lo)..=u64::from(record.loop_hi);
                    (v + 1, range.contains(&v))
                };
                self.values[m] = new;
                let held = alive & !is_word & (targets >> bit & 1 != 0);
                if held {
                    self.staged.extend([m as u32, new as u32]);
                }
                next |= u64::from(alive & !held) << bit;
                accepting |= u64::from(alive & !held & record.accepts(is_word, new)) << bit;
                if alive & (targets >> bit & 1 == 0) {
                    nap(m, is_word, new);
                }
            }
            self.next_live[wi] = next;
            self.accepting[wi] = accepting;
        }
        let staged = std::mem::take(&mut self.staged);
        for record in entries.chunks_exact(2).chain(staged.chunks_exact(2)) {
            let (m, e) = (record[0] as usize, u64::from(record[1]));
            let (wi, bit) = (m / 64, 1 << (m % 64));
            let first = self.next_live[wi] & bit == 0;
            self.next_live[wi] |= bit;
            let is_word = flat.word[wi] & bit != 0;
            put_value(&mut self.values[m], is_word, e, first, &mut self.conflicts);
            let accepts = flat.records[m].accepts(is_word, self.values[m]);
            self.accepting[wi] = self.accepting[wi] & !bit | u64::from(accepts) << (m % 64);
        }
        self.staged = staged;
        if !entries.is_empty() {
            for wi in 0..words {
                for bit in bits(entry_targets(entries, wi)) {
                    let m = wi * 64 + bit;
                    nap(m, flat.word[wi] >> bit & 1 != 0, self.values[m]);
                }
            }
        }
        self.nap = (h, nap_body);
        std::mem::swap(&mut self.live, &mut self.next_live);
        debug_assert!(self.words_are_clean(), "a word is 0 while not live");
        let first_report = out.len();
        for (wi, &accepting) in self.accepting.iter().enumerate() {
            for bit in bits(accepting) {
                let pattern = flat.records[wi * 64 + bit].pattern;
                // Modules ascend by pattern: a repeat is the last report.
                if out[first_report..]
                    .last()
                    .is_none_or(|r| r.pattern != pattern)
                {
                    out.push(MultiReport { pattern, end });
                }
            }
        }
        stepped
    }

    /// [`BankState::step`] by the edge lists: the walk, then the apply
    /// pass.
    #[inline(always)]
    fn step_edges(
        &mut self,
        bank: &CounterBank,
        class: usize,
        entries: &[u32],
        exits: &mut Vec<u32>,
        end: u64,
        out: &mut Vec<MultiReport>,
    ) -> usize {
        self.catch_up();
        let staged = &mut self.staged;
        staged.clear();
        staged.extend_from_slice(entries);
        self.next_live.fill(0);
        let mut walked = 0;
        for (wi, &word) in self.live.iter().enumerate() {
            for bit in bits(word) {
                let m = wi * 64 + bit;
                let module = &bank.modules[m];
                walked += 1;
                let mut self_loop = false;
                for edge in module.edges.iter().filter(|e| has_class(&e.classes, class)) {
                    let (cell, value) = (&self.cells[m], self.values[m]);
                    match &edge.dest {
                        Dest::Exit(state) => {
                            if cell.any(value, &edge.guard) {
                                exits.push(*state);
                            }
                        }
                        Dest::QueueLoop => self_loop = true,
                        Dest::Queue { module } => {
                            if cell.any(value, &edge.guard) {
                                staged.extend([*module, 1]);
                            }
                        }
                        Dest::Register { module, value: src } => cell.for_each(value, |values| {
                            if edge.guard.eval(values) {
                                staged.extend([*module, src.eval(values)]);
                            }
                        }),
                        Dest::General {
                            module,
                            values: sources,
                        } => cell.for_each(value, |values| {
                            if edge.guard.eval(values) {
                                staged.push(*module);
                                staged.extend(sources.iter().map(|s| s.eval(values)));
                            }
                        }),
                    }
                }
                // Nothing reads this cell again before the next byte, so
                // a counting set takes its self-loop in place: a clock
                // bump or a shift, or — the byte missed its predicate —
                // none left.
                match &mut self.cells[m] {
                    Cell::Queue(queue) => {
                        if self_loop {
                            queue.shift(module.bound);
                        } else {
                            queue.clear();
                        }
                        if !queue.is_empty() {
                            self.next_live[wi] |= 1 << bit;
                        }
                    }
                    Cell::Word => {
                        let word = &mut self.values[m];
                        *word = if self_loop {
                            (*word << 1) & value_mask(1, module.bound)
                        } else {
                            0
                        };
                        if *word != 0 {
                            self.next_live[wi] |= 1 << bit;
                        }
                    }
                    _ => {}
                }
            }
        }
        for (m, values) in bank.records(staged) {
            let (word, bit) = (&mut self.next_live[m / 64], 1 << (m % 64));
            let first = *word & bit == 0;
            *word |= bit;
            match &mut self.cells[m] {
                cell @ (Cell::Register | Cell::Word) => {
                    let word = matches!(cell, Cell::Word);
                    let e = u64::from(values[0]);
                    put_value(&mut self.values[m], word, e, first, &mut self.conflicts);
                }
                Cell::Queue(queue) => queue.set_first(),
                Cell::General(storage) => {
                    if first {
                        storage.clear();
                    }
                    self.conflicts += u64::from(storage.insert(values));
                }
            }
        }
        std::mem::swap(&mut self.live, &mut self.next_live);
        debug_assert!(self.words_are_clean(), "a word is 0 while not live");
        // The reports, and the horizon after the byte: a module that is no
        // sleeper makes it 0.
        let first_report = out.len();
        let (mut h, mut nap_body) = NO_NAP;
        for (wi, &word) in self.live.iter().enumerate() {
            for bit in bits(word) {
                let m = wi * 64 + bit;
                let module = &bank.modules[m];
                // Modules ascend by pattern: a repeat is the last report.
                let reported =
                    out.len() > first_report && out[out.len() - 1].pattern == module.pattern;
                let (cell, value) = (&self.cells[m], self.values[m]);
                if !reported && module.accept.iter().any(|g| cell.any(value, g)) {
                    out.push(MultiReport {
                        pattern: module.pattern,
                        end,
                    });
                }
                match &module.sleeper {
                    Some(sleeper) => {
                        // The oldest token is the first one due.
                        let front = cell.front(value);
                        h = h.min(sleeper.first_due.saturating_sub(front.saturating_add(1)));
                        for (word, more) in nap_body.iter_mut().zip(&sleeper.loop_classes) {
                            *word &= more;
                        }
                    }
                    None => h = 0,
                }
            }
        }
        self.nap = (h, nap_body);
        walked
    }
}

/// The modules among `[module, value]` records `entries` in word `wi` of
/// a mask over modules.
fn entry_targets(entries: &[u32], wi: usize) -> u64 {
    (entries.chunks_exact(2))
        .filter(|record| record[0] as usize / 64 == wi)
        .fold(0, |mask, record| mask | 1 << (record[0] % 64))
}

/// The modules of a live mask, ascending.
#[cfg(test)]
fn live_modules(live: &[u64]) -> impl Iterator<Item = usize> + '_ {
    (live.iter().enumerate()).flat_map(|(wi, &word)| bits(word).map(move |bit| wi * 64 + bit))
}

/// The set bits of `word`, ascending.
fn bits(mut word: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (word != 0).then(|| {
            let bit = word.trailing_zeros() as usize;
            word &= word - 1;
            bit
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::multi::MultiNca;

    /// `pattern` in stream form, merged alone under `plan`.
    fn merged(pattern: &str, plan: fn(&Nca) -> CompilePlan) -> MultiNca {
        let nca = Nca::from_regex(&recama_syntax::parse(pattern).unwrap().for_stream());
        MultiNca::merge(&[(&nca, plan(&nca))])
    }

    /// Steps `state` over one byte of `class` with no entry and says
    /// whether nothing could be seen of it: no report, no exit, the live
    /// mask unchanged, every token one older.
    fn steps_unseen(state: &mut BankState, bank: &CounterBank, class: usize) -> bool {
        let (live, mut older) = (state.live.clone(), state.tokens());
        older.iter_mut().for_each(|(_, values)| values[0] += 1);
        let (mut exits, mut out) = (Vec::new(), Vec::new());
        state.step(bank, class, &[], &mut exits, 0, &mut out);
        exits.is_empty() && out.is_empty() && state.live == live && state.tokens() == older
    }

    /// From every cell the one module of `pattern` reaches within nine
    /// bytes of `byte` — an entry on any subset of them — the horizon
    /// `h` is exact: `skip(h)` is `h` unseen steps, and step `h + 1` is
    /// seen, or stopped by the loop guard.
    fn assert_horizon_is_tight(pattern: &str, plan: fn(&Nca) -> CompilePlan, byte: u8) {
        const LEN: usize = 9;
        let multi = merged(pattern, plan);
        let bank = multi.bank();
        assert_eq!(bank.len(), 1, "{pattern} has one counted state");
        assert!(bank.modules[0].sleeper.is_some(), "{pattern} can sleep");
        let class = multi.alphabet().class_of(byte);
        let replay = |schedule: usize, len: usize| {
            let mut state = BankState::new(bank);
            for t in 0..len {
                let entries: &[u32] = if schedule >> t & 1 == 1 { &[0, 1] } else { &[] };
                state.step(bank, class, entries, &mut Vec::new(), 0, &mut Vec::new());
            }
            state
        };
        let mut slept = 0;
        for schedule in 0..1usize << LEN {
            // A prefix is a shorter schedule's whole: take each once.
            let len = (usize::BITS - schedule.leading_zeros()) as usize;
            for len in len.max(1)..=LEN {
                let mut stepped = replay(schedule, len);
                if !stepped.any_live() {
                    continue;
                }
                let (h, body) = stepped.horizon();
                assert!(has_class(&body, class), "{pattern}: {byte} is in the body");
                let mut skipped = replay(schedule, len);
                skipped.skip(h);
                for k in 0..h {
                    assert!(
                        steps_unseen(&mut stepped, bank, class),
                        "{pattern}, entries {schedule:#b} + {len}: the horizon {h} is too long at {k}"
                    );
                }
                assert_eq!(skipped.tokens(), stepped.tokens(), "{pattern}");
                assert_eq!(skipped.live, stepped.live);
                assert!(
                    !steps_unseen(&mut stepped, bank, class),
                    "{pattern}, entries {schedule:#b} + {len}: the horizon {h} is too short"
                );
                slept += h;
            }
        }
        assert!(slept > 0, "{pattern} never slept");
    }

    #[test]
    fn the_horizon_is_tight_and_skip_is_that_many_steps() {
        let single: fn(&Nca) -> CompilePlan = |n| CompilePlan::optimized(n, |_| true);
        let queues: fn(&Nca) -> CompilePlan = |n| CompilePlan::optimized(n, |_| false);
        // A register: asleep to the bound, then stopped by the loop guard
        // (its exit is on 'z', outside the body).
        assert_horizon_is_tight("k[ab]{6}z", single, b'a');
        // A counting set: due when its oldest token reaches the count.
        assert_horizon_is_tight("h.{6}", queues, b'x');
        // A range exit: awake from the first value that may leave on 'z'
        // until the last token is gone.
        assert_horizon_is_tight("k.{3,6}z", queues, b'z');
        assert_horizon_is_tight("k.{3,6}", queues, b'x');
        // At a word's width: one bit short, the full mask, and a queue.
        assert_horizon_is_tight("h.{63}", queues, b'x');
        assert_horizon_is_tight("h.{64}", queues, b'x');
        assert_horizon_is_tight("h.{65}", queues, b'x');
    }

    /// A counting set of bound at most 64 is a word, a larger one a
    /// queue; both are sleepers.
    #[test]
    fn a_counting_set_up_to_64_is_a_flat_word() {
        let queues: fn(&Nca) -> CompilePlan = |n| CompilePlan::optimized(n, |_| false);
        for (pattern, cell) in [
            ("h.{63}", "a 63-bit word (flat)"),
            ("h.{64}", "a 64-bit word (flat)"),
            ("h.{65}", "a counting-set queue"),
        ] {
            let multi = merged(pattern, queues);
            let q = (0..multi.nca().state_count() as u32)
                .map(StateId)
                .find(|&q| !multi.nca().state(q).is_pure())
                .unwrap();
            assert_eq!(multi.scan_cell(q).as_deref(), Some(cell), "{pattern}");
        }
    }

    /// Rules whose every module is flat, each with the plan that makes
    /// it so: registers where the plan says single-valued, words where it
    /// keeps a counting set. `.*a{2}` under a single-valued plan is
    /// counter-ambiguous, so its register sees conflicts.
    const FLAT_RULES: &[(&str, bool)] = &[
        ("k[ab]{6}z", true),
        ("[^ac][ac]{5}", true),
        ("x[ab]{3,5}y", true),
        (".*a{2}", true),
        ("h.{6}", false),
        ("k.{3,6}z", false),
        ("h.{63}", false),
        ("h.{64}", false),
        (".*a.{3}b", false),
        ("b.{2,9}", false),
    ];

    /// On random mixes of flat rules, random bytes, random wake records
    /// and skips inside the horizon, the flat pass and the edge walk
    /// leave equal tokens, live masks, exits, reports, horizons and
    /// conflict counts on every byte.
    #[test]
    fn the_flat_pass_is_the_edge_walk() {
        let mut lcg = 0x2545_f491_4f6c_dd1du64;
        let mut next = |n: usize| {
            lcg = lcg
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (lcg >> 33) as usize % n
        };
        // (exits, reports, conflicts, skipped bytes, most modules) seen
        let mut seen = (0, 0, 0, 0, 0);
        for round in 0..60 {
            // Every tenth mix is large enough for more than one word of
            // modules.
            let rules = if round % 10 == 0 { 60 } else { 1 + next(4) };
            let picks: Vec<usize> = (0..rules).map(|_| next(FLAT_RULES.len())).collect();
            let ncas: Vec<Nca> = (picks.iter())
                .map(|&i| {
                    Nca::from_regex(&recama_syntax::parse(FLAT_RULES[i].0).unwrap().for_stream())
                })
                .collect();
            let parts: Vec<(&Nca, CompilePlan)> = (picks.iter().zip(&ncas))
                .map(|(&i, nca)| match FLAT_RULES[i].1 {
                    true => (nca, CompilePlan::optimized(nca, |_| true)),
                    false => (nca, CompilePlan::optimized(nca, |_| false)),
                })
                .collect();
            let multi = MultiNca::merge(&parts);
            let bank = multi.bank();
            let modules = bank.len();
            assert!((0..modules).all(|m| bank.flat.is_flat(m)), "{picks:?}");
            seen.4 = seen.4.max(modules);
            let (mut flat, mut edges) = (BankState::new(bank), BankState::new(bank));
            for end in 1..400 {
                let class = multi.alphabet().class_of(b"abchkxyz\n"[next(9)]);
                // Two values, so that the order in which a register takes
                // its survivor and its entries shows in the conflicts.
                let entries: Vec<u32> = (0..next(3))
                    .flat_map(|_| [next(modules) as u32, 1 + next(2) as u32])
                    .collect();
                let (mut flat_out, mut edges_out) =
                    ((Vec::new(), Vec::new()), (Vec::new(), Vec::new()));
                let stepped = flat.step_flat(
                    &bank.flat,
                    class,
                    &entries,
                    &mut flat_out.0,
                    end,
                    &mut flat_out.1,
                );
                let walked = edges.step_edges(
                    bank,
                    class,
                    &entries,
                    &mut edges_out.0,
                    end,
                    &mut edges_out.1,
                );
                let context = format!("{picks:?}, byte {end}, class {class}, entries {entries:?}");
                assert_eq!(stepped, walked, "{context}");
                assert_eq!(flat_out, edges_out, "{context}");
                assert_eq!(flat.tokens(), edges.tokens(), "{context}");
                assert_eq!(flat.live, edges.live, "{context}");
                assert_eq!(flat.horizon(), edges.horizon(), "{context}");
                assert_eq!(flat.conflicts(), edges.conflicts(), "{context}");
                let h = flat.horizon().0;
                if h != u32::MAX && h > 0 && next(2) == 0 {
                    let k = 1 + next(h as usize) as u32;
                    flat.skip(k);
                    edges.skip(k);
                    seen.3 += k;
                }
                seen.0 += flat_out.0.len();
                seen.1 += flat_out.1.len();
            }
            seen.2 += flat.conflicts();
        }
        assert!(
            seen.0 > 0 && seen.1 > 0 && seen.2 > 0 && seen.3 > 0,
            "{seen:?}"
        );
    }

    /// A word is 0 once its module has died, after `clear` and across
    /// `restart_at`, so a later entry holds the one fresh token.
    #[test]
    fn a_word_is_zero_while_its_module_is_not_live() {
        let multi = merged("h[a-z]{6}", |n| CompilePlan::optimized(n, |_| false));
        let bank = multi.bank();
        let (x, digit) = (
            multi.alphabet().class_of(b'x'),
            multi.alphabet().class_of(b'0'),
        );
        let step = |state: &mut BankState, class, entries: &[u32]| {
            state.step(bank, class, entries, &mut Vec::new(), 0, &mut Vec::new());
        };
        let fresh = |state: &mut BankState| {
            assert!(!state.any_live());
            assert!(state.values.iter().all(|&v| v == 0), "a stale bit is left");
            step(state, x, &[0, 1]);
            assert_eq!(state.tokens(), vec![(0, vec![1])]);
        };
        let mut state = BankState::new(bank);
        assert!(matches!(state.cells[0], Cell::Word));
        step(&mut state, x, &[0, 1]);
        step(&mut state, x, &[0, 1]);
        // A byte outside the body: every token dies at once.
        step(&mut state, digit, &[]);
        fresh(&mut state);
        // Tokens age out at the bound: 1 → 6, then gone.
        for _ in 0..6 {
            step(&mut state, x, &[]);
        }
        fresh(&mut state);
        step(&mut state, x, &[0, 1]);
        state.skip(2);
        state.clear();
        fresh(&mut state);
        let mut engine = multi.engine();
        engine.match_reports(b"hxxhx");
        assert!(engine.counters().values.iter().any(|&v| v != 0));
        assert!(engine.counters().any_live());
        engine.restart_at(9);
        let mut state = engine.counters().clone();
        fresh(&mut state);
    }

    #[test]
    fn only_registers_and_queues_with_one_counting_loop_sleep() {
        let queues: fn(&Nca) -> CompilePlan = |n| CompilePlan::optimized(n, |_| false);
        // (modules, those that can sleep)
        let sleepers = |pattern, plan| {
            let multi = merged(pattern, plan);
            let modules = &multi.bank().modules;
            let sleepers = modules.iter().filter(|m| m.sleeper.is_some()).count();
            (modules.len(), sleepers)
        };
        assert_eq!(sleepers("h.{6}", queues), (1, 1));
        // Bit vectors, token sets and saturating `{m,}` counters do not.
        assert_eq!(sleepers("h.{6}", CompilePlan::conservative), (1, 0));
        assert_eq!(sleepers("z(a{2,3}b){2,3}", queues), (2, 0));
        assert_eq!(sleepers("ka{3,}b", queues), (1, 0));
        // Nor does a counter two states hand back and forth.
        let single: fn(&Nca) -> CompilePlan = |n| CompilePlan::optimized(n, |_| true);
        assert_eq!(sleepers("^k(ab){6}z", single), (2, 0));
        assert_eq!(sleepers("^k[ab]{6}z", single), (1, 1));
    }

    /// The report-for-report checks of the bank — both engines, against
    /// the per-pattern oracle — live with the engine that owns it
    /// (`hybrid.rs`); this pins the one step of the compilation that
    /// rewrites a predicate.
    #[test]
    fn a_single_counter_guard_compiles_to_one_range() {
        use SlotTest::{Eq, Ge, Lt, Range};
        for tests in [
            vec![],
            vec![Lt(0, 5)],
            vec![Ge(0, 3), Lt(0, 5)],
            vec![Eq(0, 4), Range(0, 2, 9)],
            vec![Range(0, 2, 6), Range(0, 4, 9)],
            vec![Lt(0, 0)],
            vec![Ge(0, 7), Lt(0, 5)],
        ] {
            let guard = Guard::compile(tests.clone(), true);
            assert!(matches!(guard, Guard::Range(..)));
            for value in 0..12 {
                let expected = tests.iter().all(|t| t.eval(&[value]));
                assert_eq!(guard.eval(&[value]), expected, "{tests:?} on {value}");
            }
        }
    }

    /// `.*a{2}` is counter-ambiguous (Example 3.2), so a plan that calls
    /// every state single-valued must conflict on `aaa` — with rows and
    /// without.
    #[test]
    fn single_value_plan_detects_bad_claims() {
        let multi = merged(".*a{2}", |n| CompilePlan::optimized(n, |_| true));
        for mut engine in [multi.engine(), multi.hybrid_engine(64)] {
            engine.match_reports(b"aaa");
            assert!(engine.conflicts() > 0, "{engine:?}");
            engine.reset();
            assert_eq!(engine.conflicts(), 0, "a reset rewinds the count");
        }
    }
}
