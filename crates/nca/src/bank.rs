//! The counter bank: a shard's counter-carrying states as a dense array
//! of counter modules — the software twin of the counter and bit-vector
//! modules the paper puts *beside* the STE array (§3.2.1, §4).
//!
//! [`crate::HybridEngine`] keeps the pure part of the frontier on DFA
//! rows; what is left to step exactly is `T`, the tokens on counted
//! states. A [`CounterBank`] is built once per [`crate::MultiNca`] and
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
                Module {
                    pattern: pattern_of_state[q.index()],
                    kind: kind_of(q),
                    bound: nca.counter(state.counters[0]).bound(),
                    width: state.counters.len(),
                    accept: state
                        .accepts
                        .iter()
                        .map(|conj| Guard::compile(resolve_guard(nca, q, conj), single_counter))
                        .collect(),
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
        }
    }

    /// Per-flow storage cells: one per module.
    pub(crate) fn cells(&self) -> usize {
        self.cells.len()
    }

    /// Whether `T` is non-empty.
    pub(crate) fn any_live(&self) -> bool {
        self.live.iter().any(|&w| w != 0)
    }

    /// Live modules, i.e. live counted states.
    pub(crate) fn live_count(&self) -> usize {
        self.live.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Drops every token.
    pub(crate) fn clear(&mut self) {
        for (wi, word) in self.live.iter_mut().enumerate() {
            for bit in bits(std::mem::take(word)) {
                if let Cell::Queue(queue) = &mut self.cells[wi * 64 + bit] {
                    queue.clear();
                }
            }
        }
    }

    /// Advances `T` over one byte of `class` — the counter and bit-vector
    /// modules' half of one hybrid step:
    ///
    /// * every out-edge of a live module fires exactly as in
    ///   [`crate::MultiEngine::step_into`], except that a token reaching
    ///   a *pure* state leaves the bank — the state is appended to
    ///   `exits` (unsorted, possibly repeated) for the caller to union
    ///   into its pure frontier;
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
                // keep the smaller, as `Storage::insert` does.
                Cell::Register(value) if first => *value = values[0],
                Cell::Register(value) => *value = (*value).min(values[0]),
                Cell::Queue(queue) => queue.set_first(),
                Cell::General(storage) => {
                    if first {
                        storage.clear();
                    }
                    storage.insert(values);
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

    /// The report-for-report checks against [`crate::MultiEngine`] live
    /// with the engine that owns the bank (`hybrid.rs`); this pins the
    /// one step of the compilation that rewrites a predicate.
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
}
