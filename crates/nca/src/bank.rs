//! The counter bank: a shard's counter-carrying states as a dense array
//! of counter modules — the software twin of the counter and bit-vector
//! modules the paper puts *beside* the STE array (§3.2.1, §4).
//!
//! [`crate::HybridEngine`] keeps the pure part of the frontier on DFA
//! rows, or without rows as a subset; what is left to step exactly is
//! `T`, the tokens on counted states — this bank, under both modes the
//! one implementation of the counting semantics outside the reference
//! engines. A [`CounterBank`] is built once per [`crate::MultiNca`] and
//! indexes those states densely `0..k` **in state order**, so ascending
//! module index is ascending pattern — the per-step report order
//! contract. Each module's out-edges are compiled flat: the guard of a
//! single-counter source is one `lo..=hi` range, the value handed to a
//! single-counter destination is one [`SlotSrc`], and the destination is
//! tagged by what it is — a pure state (the token leaves the bank), a
//! register, a counting-set queue, or general storage.
//!
//! A flow's share is a [`BankState`], O(k): a live mask and one [`Cell`]
//! per module — a `u32` register for a single-valuation counter, a
//! [`CountingQueue`] for a counting set, and [`Storage`] only for the
//! bit-vector and token-set modules that conservative plans and nested
//! counting produce.
//!
//! # Sleeping
//!
//! Between the byte a token enters on and the first value at which a
//! guard of its module can hold, nothing the module does is observable:
//! it counts. A module is a *sleeper* when that stretch can be read off
//! its cell — a register or a queue, every guard a range, exactly one
//! self-edge that increments (taken from value 0 up; for a queue the one
//! [`BankState::step`] takes in place). What is kept per sleeper is its
//! body — the self-edge's class set — and `first_due`, the smallest value
//! a token can have after a byte on which, or right after which, something
//! else can happen: an accept, an exit, a hand-off, the loop guard giving
//! out. With `front` the oldest value in the cell, the module sleeps
//! `first_due − front − 1` bytes as long as they are in its body, and
//! `T` sleeps the least of its live modules' horizons through the
//! intersection of their bodies ([`BankState::horizon`]) — 0 as soon as a
//! module is live that is no sleeper. [`BankState::skip`]`(k)` is then the
//! whole effect of `k` bytes. Nothing of it is per-flow state: the queue
//! *is* the sorted list of due times.
//!
//! # Stepping
//!
//! One byte is two passes. The *walk* visits the live modules in order;
//! each reads only its **own** cell (guards resolve against source-state
//! counters, a [`crate::nca`] invariant), stages what it hands to other
//! modules as flat `[module, values…]` records, and — being the last
//! reader of its cell — advances its own queue in place. The *apply* pass
//! then writes the staged records, the wake entries among them.

use crate::compiled::{CompilePlan, CountingQueue, Storage, StorageMode};
use crate::multi::MultiReport;
use crate::nca::{Nca, StateId};
use crate::token::{resolve_guard, resolve_transition, SlotSrc, SlotTest};
use recama_syntax::ByteAlphabet;

/// [`CounterBank::module_of`] entry of a pure state.
pub(crate) const PURE: u32 = u32::MAX;

/// A set of byte classes (an alphabet has at most 256).
pub(crate) type ClassSet = [u64; 4];

pub(crate) fn has_class(set: &ClassSet, class: usize) -> bool {
    set[class / 64] & (1 << (class % 64)) != 0
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
    /// The sleeper in module `own`, if it is one: a register or a queue
    /// with exactly one incrementing self-edge, taken from value 0 up.
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

/// The immutable half: see the module docs.
#[derive(Debug)]
pub(crate) struct CounterBank {
    /// Module index per automaton state, [`PURE`] for a pure one.
    pub(crate) module_of: Vec<u32>,
    modules: Vec<Module>,
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
        let kind_of = |q: StateId| match plan.mode(q) {
            StorageMode::SingleValue if nca.state(q).counters.len() == 1 => CellKind::Register,
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
        let modules = (0..nca.state_count() as u32)
            .map(StateId)
            .filter(|&q| !nca.state(q).is_pure())
            .map(|q| {
                let state = nca.state(q);
                let (kind, bound) = (kind_of(q), nca.counter(state.counters[0]).bound());
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
                            (_, CellKind::Queue) if t.to == q => Dest::QueueLoop,
                            (_, CellKind::Queue) => Dest::Queue { module },
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
        CounterBank { module_of, modules }
    }

    /// Number of modules: the automaton's counted states.
    pub(crate) fn len(&self) -> usize {
        self.modules.len()
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

/// One module's tokens.
enum Cell {
    /// The one valuation of a single-counter, single-valuation state.
    Register(u32),
    /// A counting set; empty whenever the module is not live.
    Queue(CountingQueue),
    /// Bit vector, token set or multi-counter single valuation; holds
    /// stale tokens while the module is not live.
    General(Storage),
}

impl Cell {
    fn for_each(&self, mut f: impl FnMut(&[u32])) {
        match self {
            Cell::Register(value) => f(std::slice::from_ref(value)),
            Cell::Queue(queue) => queue.values().for_each(|v| f(&[v])),
            Cell::General(storage) => storage.for_each(f),
        }
    }

    /// Whether some token satisfies `guard`.
    fn any(&self, guard: &Guard) -> bool {
        match (self, guard) {
            (Cell::Queue(queue), Guard::Range(lo, hi)) => queue.any_in(*lo, *hi),
            _ => {
                let mut hit = false;
                self.for_each(|values| hit = hit || guard.eval(values));
                hit
            }
        }
    }
}

/// A flow's counted tokens `T`: see the module docs.
pub(crate) struct BankState {
    cells: Vec<Cell>,
    /// Bitset over modules: the cell holds at least one token.
    live: Vec<u64>,
    /// Scratch: the live mask after the byte being stepped.
    next_live: Vec<u64>,
    /// Scratch: the records staged by the byte being stepped.
    staged: Vec<u32>,
    /// Valuations a single-valued cell was handed beside the one it kept
    /// ([`BankState::conflicts`]).
    conflicts: u64,
}

impl BankState {
    /// No token live.
    pub(crate) fn new(bank: &CounterBank) -> BankState {
        let cells = bank.modules.iter().map(|module| match module.kind {
            CellKind::Register => Cell::Register(0),
            CellKind::Queue => Cell::Queue(CountingQueue::default()),
            CellKind::General(mode) => Cell::General(Storage::new(mode, module.bound)),
        });
        let words = bank.len().div_ceil(64);
        BankState {
            cells: cells.collect(),
            live: vec![0; words],
            next_live: vec![0; words],
            staged: Vec::new(),
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
        let mut tokens = Vec::new();
        for m in live_modules(&self.live) {
            self.cells[m].for_each(|values| tokens.push((m, values.to_vec())));
        }
        tokens.sort();
        tokens
    }

    /// How many times, since the last [`BankState::clear`], a cell the
    /// plan declared single-valued was handed a second, different
    /// valuation on one byte — a register, or a multi-counter
    /// single-valuation cell. Both keep the smaller. It stays 0 when the
    /// plan came from a sound analysis: the runtime cross-check of the
    /// analysis, as in [`crate::CompiledEngine::conflicts`].
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
        for (wi, word) in self.live.iter_mut().enumerate() {
            for bit in bits(std::mem::take(word)) {
                if let Cell::Queue(queue) = &mut self.cells[wi * 64 + bit] {
                    queue.clear();
                }
            }
        }
    }

    /// How long `T` can go unobserved: `(h, body)` such that on each of
    /// the next `h` bytes, as long as they are all of a class in `body`,
    /// every live token takes its module's incrementing self-edge and
    /// nothing else happens — [`BankState::skip`] is then the whole
    /// effect. `h` is 0 as soon as one live module is not a sleeper or is
    /// due. Nothing of this is stored: it is read off the cells. (With
    /// `T` empty there is nothing to look at: `h` is `u32::MAX`.)
    pub(crate) fn horizon(&self, bank: &CounterBank) -> (u32, ClassSet) {
        let (mut h, mut body) = (u32::MAX, [u64::MAX; 4]);
        for m in live_modules(&self.live) {
            let Some(sleeper) = &bank.modules[m].sleeper else {
                return (0, body);
            };
            // The oldest token is the first one due.
            let front = match &self.cells[m] {
                Cell::Register(value) => *value,
                Cell::Queue(queue) => queue.values().next().expect("live queues hold a token"),
                Cell::General(_) => unreachable!("general cells are never sleepers"),
            };
            h = h.min(sleeper.first_due.saturating_sub(front.saturating_add(1)));
            for (word, more) in body.iter_mut().zip(&sleeper.loop_classes) {
                *word &= more;
            }
        }
        (h, body)
    }

    /// The effect of `k` bytes inside the [`BankState::horizon`]: every
    /// live token is `k` older.
    pub(crate) fn skip(&mut self, k: u32) {
        for m in live_modules(&self.live) {
            match &mut self.cells[m] {
                Cell::Register(value) => *value += k,
                Cell::Queue(queue) => queue.advance(k),
                Cell::General(_) => unreachable!("general cells are never sleepers"),
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
    /// Returns the number of modules whose out-edges were walked.
    pub(crate) fn step(
        &mut self,
        bank: &CounterBank,
        class: usize,
        entries: &[u32],
        exits: &mut Vec<u32>,
        end: u64,
        out: &mut Vec<MultiReport>,
    ) -> usize {
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
                    let cell = &self.cells[m];
                    match &edge.dest {
                        Dest::Exit(state) => {
                            if cell.any(&edge.guard) {
                                exits.push(*state);
                            }
                        }
                        Dest::QueueLoop => self_loop = true,
                        Dest::Queue { module } => {
                            if cell.any(&edge.guard) {
                                staged.extend([*module, 1]);
                            }
                        }
                        Dest::Register { module, value } => cell.for_each(|values| {
                            if edge.guard.eval(values) {
                                staged.extend([*module, value.eval(values)]);
                            }
                        }),
                        Dest::General {
                            module,
                            values: sources,
                        } => cell.for_each(|values| {
                            if edge.guard.eval(values) {
                                staged.push(*module);
                                staged.extend(sources.iter().map(|s| s.eval(values)));
                            }
                        }),
                    }
                }
                // Nothing reads this cell again before the next byte, so
                // a counting set takes its self-loop in place: one clock
                // bump, or — the byte missed its predicate — none left.
                if let Cell::Queue(queue) = &mut self.cells[m] {
                    if self_loop {
                        queue.shift(module.bound);
                    } else {
                        queue.clear();
                    }
                    if !queue.is_empty() {
                        self.next_live[wi] |= 1 << bit;
                    }
                }
            }
        }
        for (m, values) in bank.records(staged) {
            let (word, bit) = (&mut self.next_live[m / 64], 1 << (m % 64));
            let first = *word & bit == 0;
            *word |= bit;
            match &mut self.cells[m] {
                // Two valuations on a state the plan calls unambiguous:
                // keep the smaller, as `Storage::insert` does, and count
                // the conflict.
                Cell::Register(value) if first => *value = values[0],
                Cell::Register(value) => {
                    self.conflicts += u64::from(*value != values[0]);
                    *value = (*value).min(values[0]);
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
        let first_report = out.len();
        for (wi, &word) in self.live.iter().enumerate() {
            for bit in bits(word) {
                let module = &bank.modules[wi * 64 + bit];
                // Modules ascend by pattern: a repeat is the last report.
                let reported =
                    out.len() > first_report && out[out.len() - 1].pattern == module.pattern;
                let cell = &self.cells[wi * 64 + bit];
                if !reported && module.accept.iter().any(|g| cell.any(g)) {
                    out.push(MultiReport {
                        pattern: module.pattern,
                        end,
                    });
                }
            }
        }
        walked
    }
}

/// The modules of a live mask, ascending.
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
                let (h, body) = stepped.horizon(bank);
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
        let single: fn(&Nca) -> CompilePlan = |n| CompilePlan::with_unambiguous_states(n, |_| true);
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
        let single: fn(&Nca) -> CompilePlan = |n| CompilePlan::with_unambiguous_states(n, |_| true);
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

    /// The twin of `compiled.rs`'s test of the same name, on the bank:
    /// `.*a{2}` is counter-ambiguous (Example 3.2), so a plan that calls
    /// every state single-valued must conflict on `aaa` — with rows and
    /// without.
    #[test]
    fn single_value_plan_detects_bad_claims() {
        let multi = merged(".*a{2}", |n| {
            CompilePlan::with_unambiguous_states(n, |_| true)
        });
        for mut engine in [multi.engine(), multi.hybrid_engine(64)] {
            engine.match_reports(b"aaa");
            assert!(engine.conflicts() > 0, "{engine:?}");
            engine.reset();
            assert_eq!(engine.conflicts(), 0, "a reset rewinds the count");
        }
    }
}
