//! Multi-pattern execution: many per-pattern NCAs merged into **one**
//! shared automaton, scanned in one pass by one engine.
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
//! The union of all patterns' predicates partitions Σ into equivalence
//! classes ([`recama_syntax::ByteClassSet`]), so each input byte is
//! classified once for the whole set. Every engine over a [`MultiNca`] is
//! a [`HybridEngine`]: the pure part of the frontier beside the counter
//! bank, on the lazily determinized rows of a [`HybridCache`] or — from
//! [`MultiNca::engine`] — without rows, stepped through the same edge
//! walk a row fill makes.

use crate::bank::CounterBank;
use crate::hybrid::{HybridCache, HybridEngine};
use crate::nca::{ActionOp, GuardAtom, Nca, State, StateId, Transition};
use crate::plan::{counting_set_eligible, CompilePlan, StorageMode};
use crate::token::{resolve_transition, SlotSrc, SlotTest};
use recama_syntax::{ByteAlphabet, ByteClassSet};
use std::sync::Arc;

/// [`MultiNca::accepting`] entry of a state that does not accept.
pub(crate) const NO_PATTERN: u32 = u32::MAX;

/// A report of the multi-pattern engine: pattern `pattern` matched with
/// its last byte at 1-based offset `end`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MultiReport {
    /// Index of the pattern among the parts of the merge
    /// ([`MultiNca::merge`], [`ShardedMulti::merge`]).
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
    /// Per state: the pattern it accepts for, or [`NO_PATTERN`]. Shared
    /// with every [`HybridCache`] of the automaton.
    accepting: Arc<[u32]>,
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
        let all: Vec<usize> = (0..parts.len()).collect();
        MultiNca::merge_with_alphabet(parts, &all, union_alphabet(parts))
    }

    /// Like [`MultiNca::merge`], but over the parts named by `members`
    /// only, each reporting its index in `parts`, and with an externally
    /// supplied byte-class alphabet — the sharded configuration, where
    /// one alphabet is computed once over the *whole* pattern set and
    /// shared by every per-shard automaton, so the input decoder
    /// classifies each byte once for all shards.
    ///
    /// `members` must ascend, so that the ascending report order within
    /// one step is the order of the indices. `alphabet` must *refine*
    /// every state predicate of the members: each equivalence class is
    /// either fully inside or disjoint from every state's class. Any
    /// alphabet built from a [`ByteClassSet`] that saw (at least) all
    /// their predicates satisfies this.
    ///
    /// # Panics
    ///
    /// Same as [`MultiNca::merge`].
    pub(crate) fn merge_with_alphabet(
        parts: &[(&Nca, CompilePlan)],
        members: &[usize],
        alphabet: ByteAlphabet,
    ) -> MultiNca {
        let mut states: Vec<State> = vec![State {
            class: recama_syntax::ByteClass::EMPTY,
            counters: Vec::new(),
            accepts: Vec::new(),
        }];
        let mut counters = Vec::new();
        let mut transitions: Vec<Transition> = Vec::new();
        let mut modes: Vec<StorageMode> = vec![StorageMode::PureBit];
        let mut pattern_of_state: Vec<u32> = vec![u32::MAX];

        for &pi in members {
            let (nca, plan) = &parts[pi];
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
        let tables = EngineTables::build(&nca, &alphabet);
        let bank = CounterBank::build(&nca, &plan, &alphabet, &pattern_of_state);
        let accepting = (nca.states().iter().zip(&pattern_of_state))
            .map(|(s, &pattern)| {
                if s.accepts.is_empty() {
                    NO_PATTERN
                } else {
                    pattern
                }
            })
            .collect();
        MultiNca(Arc::new(Image {
            nca,
            plan,
            alphabet,
            accepting,
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

    /// How the counter bank of the engines scans counted state `q`, for a
    /// reader: the cell it keeps per flow — `a register`, `a 55-bit
    /// word` (a counting set of bound at most 64) or `a counting-set
    /// queue` — followed by ` (flat)` when one fixed record steps it in
    /// place. `None` for a pure state.
    pub fn scan_cell(&self, q: StateId) -> Option<String> {
        self.0.bank.describe(q)
    }

    /// Creates an engine over the merged automaton that caches no rows
    /// (see [`crate::HybridEngine`]): every byte steps the pure part of
    /// the frontier through the edge walk a row fill makes, beside the
    /// bank of counter modules. The reference the tests and the plan
    /// checks hold the rows to; a pattern set always scans on rows.
    pub fn engine(&self) -> HybridEngine {
        HybridEngine::rowless(self)
    }

    /// Creates a hybrid lazy-DFA overlay engine (see
    /// [`crate::HybridEngine`]): determinized byte-class rows for the
    /// pure part of the frontier, a bank of counter modules stepped
    /// exactly for the live counter-carrying states only, at most
    /// `state_budget` cached DFA states.
    /// The engine gets a [`HybridCache`] of its own; engines that should
    /// share their rows are made with [`MultiNca::hybrid_engine_on`].
    pub fn hybrid_engine(&self, state_budget: usize) -> HybridEngine {
        self.hybrid_engine_on(&self.hybrid_cache(state_budget))
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

    /// Per state: the pattern it accepts for, or [`NO_PATTERN`].
    pub(crate) fn accepting(&self) -> &Arc<[u32]> {
        &self.0.accepting
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
/// Every shard reports the *global* pattern indices of its members, like
/// the report ids a machine image stamps on its reporting elements, so an
/// engine of any shard needs no translation.
#[derive(Debug)]
pub struct ShardedMulti {
    shards: Vec<MultiNca>,
    alphabet: ByteAlphabet,
}

impl ShardedMulti {
    /// Merges `parts` (indexed globally) into one automaton per shard,
    /// each reporting the global indices of its members. `shards` must
    /// partition `0..parts.len()` with strictly ascending members per
    /// shard, so that per-shard reports stay in ascending pattern order
    /// within a step.
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
        let shards = (shards.iter())
            .map(|members| MultiNca::merge_with_alphabet(parts, members, alphabet.clone()))
            .collect();
        ShardedMulti { shards, alphabet }
    }

    /// The per-shard merged automata.
    pub fn shards(&self) -> &[MultiNca] {
        &self.shards
    }

    /// The alphabet shared by every shard.
    pub fn alphabet(&self) -> &ByteAlphabet {
        &self.alphabet
    }

    /// One empty [`HybridCache`] per shard, each bounded by
    /// `state_budget` — the rows the hybrid engines of a shard share
    /// ([`MultiNca::hybrid_engine_on`]). Whoever owns the set keeps them
    /// for as long as the rows should stay warm.
    pub fn hybrid_caches(&self, state_budget: usize) -> Vec<HybridCache> {
        self.shards
            .iter()
            .map(|m| m.hybrid_cache(state_budget))
            .collect()
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

/// The immutable tables of the pure edge walk: edge programs and
/// class-membership bitsets. Built once per [`MultiNca`]; every engine
/// instance reads it through its handle.
#[derive(Debug)]
pub(crate) struct EngineTables {
    /// Outgoing edge programs per state.
    pub(crate) out_edges: Vec<Vec<OutEdge>>,
    /// `class_member[c]` is a bitset over states: bit `q` set iff the
    /// equivalence class `c` is inside `class(q)`.
    pub(crate) class_member: Vec<Vec<u64>>,
}

impl EngineTables {
    fn build(nca: &Nca, alphabet: &ByteAlphabet) -> EngineTables {
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
        EngineTables {
            out_edges,
            class_member,
        }
    }
}

/// The referee of the unit tests that scan a merge: each of `patterns`
/// in stream form, scanned alone by the reference
/// [`crate::TokenSetEngine`], its ends > 0 tagged with its index, in
/// stream order — ascending end, ascending pattern within one end. No
/// merge, plan, row or counter module is involved.
#[cfg(test)]
pub(crate) fn per_pattern_reports<S: AsRef<str>>(patterns: &[S], input: &[u8]) -> Vec<MultiReport> {
    let mut expected = Vec::new();
    for (pi, p) in patterns.iter().enumerate() {
        let nca = Nca::from_regex(&recama_syntax::parse(p.as_ref()).unwrap().for_stream());
        let mut engine = crate::TokenSetEngine::new(&nca);
        for end in engine.match_ends(input) {
            if end > 0 {
                expected.push(MultiReport {
                    pattern: pi as u32,
                    end: end as u64,
                });
            }
        }
    }
    expected.sort_by_key(|r| (r.end, r.pattern));
    expected
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{queues, single};
    use recama_syntax::parse;

    fn stream_nca(pattern: &str) -> Nca {
        Nca::from_regex(&parse(pattern).unwrap().for_stream())
    }

    fn multi(patterns: &[&str]) -> MultiNca {
        let ncas: Vec<Nca> = patterns.iter().map(|p| stream_nca(p)).collect();
        let parts: Vec<(&Nca, CompilePlan)> = ncas.iter().map(|n| (n, queues(n))).collect();
        let m = MultiNca::merge(&parts);
        // `parts` borrows ncas, which drop here; MultiNca owns its copy.
        m
    }

    fn assert_agrees(patterns: &[&str], input: &[u8]) {
        let m = multi(patterns);
        assert_eq!(
            m.engine().match_reports(input),
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
        let accepting = &m.0.accepting;
        assert_eq!(accepting[StateId::INIT.index()], NO_PATTERN);
        for p in 0..patterns.len() as u32 {
            assert!(accepting.contains(&p), "pattern {p} owns no final state");
        }
    }

    #[test]
    fn chunked_feeding_matches_oneshot() {
        let patterns = ["ab{2,4}c", "x{3}", "q[rs]{2}t"];
        let m = multi(&patterns);
        let input = b"zabbbc_xxx_qrst_abbc_xxxx".to_vec();
        let mut engine = m.engine();
        let oneshot = engine.match_reports(&input);
        assert_eq!(oneshot, per_pattern_reports(&patterns, &input));
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
            engine.feed_into(&[b], &mut out);
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
    }

    fn sharded(patterns: &[&str], shards: &[Vec<usize>]) -> ShardedMulti {
        let ncas: Vec<Nca> = patterns.iter().map(|p| stream_nca(p)).collect();
        let parts: Vec<(&Nca, CompilePlan)> = ncas.iter().map(|n| (n, queues(n))).collect();
        ShardedMulti::merge(&parts, shards)
    }

    #[test]
    fn sharded_union_equals_single_merge() {
        let patterns = ["ab{2,3}c", "a{3}", "x[yz]{2}", "cab", "k\\d{2}"];
        let input = b"abbc.aaa.xyz.cab.k42.abbbc";
        let expected = per_pattern_reports(&patterns, input);
        for shards in [
            vec![vec![0, 1, 2, 3, 4]],
            vec![vec![0, 1], vec![2, 3], vec![4]],
            vec![vec![0], vec![1], vec![2], vec![3], vec![4]],
            vec![vec![0, 1, 2], vec![3, 4]],
        ] {
            let sm = sharded(&patterns, &shards);
            let mut got = Vec::new();
            for shard in sm.shards() {
                got.extend(shard.engine().match_reports(input));
            }
            got.sort_by_key(|r| (r.end, r.pattern));
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
        // A shard reports its members' global indices: shard 1's one rule
        // is rule 2.
        let reports = sm.shards()[1].engine().match_reports(b"1234");
        assert_eq!(reports, [MultiReport { pattern: 2, end: 4 }]);
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
        let parts = [(&nca, queues(&nca))];
        let m = MultiNca::merge_with_alphabet(&parts, &[0], class_set.freeze());
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
        let expected = per_pattern_reports(&patterns, input);
        let sm = sharded(&patterns, &[vec![0, 1], vec![2, 3], vec![4]]);
        let mut engines: Vec<HybridEngine> = sm.shards().iter().map(MultiNca::engine).collect();
        let mut got = Vec::new();
        // Advance shards at *different* rates and in arbitrary order —
        // each keeps its own position in the logical stream.
        for (si, engine) in engines.iter_mut().enumerate() {
            for chunk in input.chunks(si + 1) {
                engine.feed_into(chunk, &mut got);
            }
            assert_eq!(engine.position(), input.len() as u64);
        }
        got.sort_by_key(|r| (r.end, r.pattern));
        assert_eq!(got, expected, "reports carry global pattern ids");
    }

    /// What owning the handle promises, checked by the compiler.
    #[test]
    fn engines_are_static_and_send() {
        fn assert_static_send<T: Send + 'static>() {}
        fn assert_shared<T: Clone + Send + Sync>() {}
        assert_static_send::<HybridEngine>();
        assert_shared::<MultiNca>();
    }

    #[test]
    fn a_stream_outlives_the_set_it_came_from() {
        let patterns = ["k.{4}z", "x[ab]{2,5}y", "plain"];
        let input = b"plain k.xabz xbby plain k....z";
        let cut = 10; // "k.xa": both counters are counting
        let mut exact = multi(&patterns).engine();
        exact.feed_into(&input[..cut], &mut Vec::new());
        assert!(exact.counters().any_live(), "the cut is mid-count");
        let expected = per_pattern_reports(&patterns, input);
        assert_eq!(expected.len(), 5);
        for hybrid in [false, true] {
            let sm = sharded(&patterns, &[vec![0], vec![1, 2]]);
            let caches = sm.hybrid_caches(crate::DEFAULT_STATE_BUDGET);
            let mut engines: Vec<HybridEngine> = (sm.shards().iter().zip(&caches))
                .map(|(shard, cache)| match hybrid {
                    true => shard.hybrid_engine_on(cache),
                    false => shard.engine(),
                })
                .collect();
            let mut got = Vec::new();
            for engine in &mut engines {
                assert_eq!(engine.byte_counters().is_some(), hybrid);
                engine.feed_into(&input[..cut], &mut got);
            }
            drop((sm, caches));
            for engine in &mut engines {
                engine.feed_into(&input[cut..], &mut got);
                assert_eq!(engine.position(), input.len() as u64);
            }
            got.sort_by_key(|r| (r.end, r.pattern));
            assert_eq!(got, expected, "hybrid: {hybrid}");
        }
    }

    #[test]
    fn conflicts_stay_zero_with_sound_plans() {
        let patterns = [".*a{3}", "k.{2,5}z"];
        // One value per counted state: sound on these anchored rules.
        let anchored = ["^k.{2,5}z", "^k(ab){3}z", "^a{3}"];
        for (patterns, plan) in [
            (&patterns[..], queues as fn(&Nca) -> CompilePlan),
            (&anchored, single),
        ] {
            let ncas: Vec<Nca> = patterns.iter().map(|p| stream_nca(p)).collect();
            let parts: Vec<(&Nca, CompilePlan)> = ncas.iter().map(|n| (n, plan(n))).collect();
            let m = MultiNca::merge(&parts);
            for input in [
                &b"aaaa k..z aaa kzzzzz"[..],
                b"k...z",
                b"aabaabaab",
                b"kabababz",
                b"aaab",
            ] {
                for mut engine in [m.engine(), m.hybrid_engine(crate::DEFAULT_STATE_BUDGET)] {
                    let reports = engine.match_reports(input);
                    assert_eq!(reports, per_pattern_reports(patterns, input));
                    assert_eq!(engine.conflicts(), 0, "{patterns:?}, {engine:?}");
                }
            }
        }
    }

    /// Differential: the counting-set cells must report what the
    /// per-pattern oracle does on bounded-repeat rulesets, across chunk
    /// boundaries.
    #[test]
    fn counting_set_multi_engine_matches_the_oracle() {
        let rulesets: [&[&str]; 3] = [
            &[".*a{3}", "k.{2,5}z", "ab{2,3}c"],
            &["x[ab]{2,5}y", "a{2,3}c{2,3}", "plain"],
            &[".*[ab][^a]{3}", "b{4}", "^q{2,4}t"],
        ];
        for patterns in rulesets {
            let ncas: Vec<Nca> = patterns.iter().map(|p| stream_nca(p)).collect();
            let queue_parts: Vec<(&Nca, CompilePlan)> =
                ncas.iter().map(|n| (n, queues(n))).collect();
            let queues = MultiNca::merge(&queue_parts);
            assert!(
                queues
                    .plan()
                    .iter()
                    .any(|(_, m)| m == StorageMode::CountingSet),
                "{patterns:?}: ruleset must exercise the queue pass"
            );
            for input in [
                &b"aaaa k..z abbc kzzzzz"[..],
                b"xaby xabababy aacc aaccc plain",
                b"bbbb qqt abxxx kaaz",
                b"",
            ] {
                let expected = per_pattern_reports(patterns, input);
                assert_eq!(
                    queues.engine().match_reports(input),
                    expected,
                    "{patterns:?} on {:?}",
                    String::from_utf8_lossy(input)
                );
                // Chunked feeding too.
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

    /// The hybrid overlay's stat definitions
    /// ([`HybridStats::fallback_bytes`](crate::HybridStats::fallback_bytes)),
    /// against the engine without rows over the same bytes — the
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
        let parts: Vec<(&Nca, CompilePlan)> = ncas.iter().map(|n| (n, queues(n))).collect();
        let m = MultiNca::merge(&parts);
        let mut input = Vec::new();
        for i in 0..40u32 {
            input.extend_from_slice(format!("w{}ax{} ", i % 7, i % 4).as_bytes());
            if i % 5 == 0 {
                input.extend_from_slice(b"h");
            }
            input.extend(std::iter::repeat_n(b'.', (i * 7 % 31) as usize));
        }

        assert_eq!(m.bank().len(), 1, "only `.{{55}}` counts");
        // Live counted states, and the values of the counting set's tokens.
        let counted_live = |engine: &HybridEngine| engine.counters().live_count() as u64;
        let values = |engine: &HybridEngine| {
            let tokens = engine.counters().tokens();
            tokens.into_iter().map(|(_, v)| v).collect::<Vec<u32>>()
        };
        let mut reference = m.engine();
        let mut expected = Vec::new();
        let (mut fallback_bytes, mut slept_bytes, mut counted_steps) = (0u64, 0u64, 0u64);
        let mut frontier = 0u64;
        for &b in &input {
            let before = counted_live(&reference);
            let due = values(&reference).iter().any(|&v| v >= 54);
            frontier += reference.active_states() as u64;
            reference.feed_into(&[b], &mut expected);
            let woken = values(&reference).contains(&1);
            if woken || due {
                fallback_bytes += 1;
                counted_steps += before;
            } else {
                slept_bytes += before;
            }
        }
        assert!(fallback_bytes > 0 && slept_bytes > 5 * fallback_bytes);
        assert_eq!(expected, per_pattern_reports(&patterns, &input));

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
}
