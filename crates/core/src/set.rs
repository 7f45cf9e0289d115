//! [`ShardedPatternSet`]: the scan half of a compiled ruleset — what a
//! flow scans, and nothing else.
//!
//! The paper's evaluation operates on rulesets (Snort, Suricata,
//! Protomata, SpamAssassin, ClamAV — Table 1), and deployments of this
//! class of matcher always compile the full set into shared automata
//! scanned once per input stream. An [`Engine`](crate::Engine) holds two
//! partitions of its rules:
//!
//! * the **bank plan** cuts the rules into *shards* whose sub-networks
//!   each fit one bank ([`ShardPolicy`](crate::hw::ShardPolicy), default
//!   = one bank's capacity). It decides the machine images —
//!   [`Engine::network`](crate::Engine::network), `hardware`,
//!   placement, energy and area — and nothing else, and it lives on the
//!   `Engine` with the rule texts and the per-rule compiler outputs;
//! * the **scan plan** (`ScanPlan`) cuts them into *scan groups*
//!   ([`Engine::scan_groups`](crate::Engine::scan_groups)), the units a
//!   software flow scans, and it lives here. In the machine a bank is
//!   free parallelism (one decoder shows a symbol to every bank), in
//!   software every group is one more table walk over the same byte, so
//!   the partition is the coarsest order-preserving one whose lazy-DFA
//!   rows can be expected to fit: next-fit over the rules, a rule
//!   weighing its NCA's states, a group closing when the next rule would
//!   pass the [`ScanMode::Hybrid`] `state_budget`. The shard policy
//!   never reaches it.
//!
//! The set is what a serving epoch pins through its `Arc`, so it holds
//! only what a flow scans: the scan plan, one
//! [`MultiNca`](recama_nca::MultiNca) per scan group with its lazy-DFA
//! cache, the literal filter, the trailing-`$` flags, and the engines
//! finished flows left for the next ones. A retired epoch takes no
//! machine image, rule text or per-rule automaton with it.
//!
//! The group automata share one byte-class alphabet computed over the
//! whole set and report global rule indices. A [`ShardedSetStream`]
//! feeds each chunk to every group engine that scans it, one after the
//! other, on the calling thread (many flows at once are
//! [`Engine::serve_with`](crate::Engine::serve_with)'s job). What the
//! stream does with a chunk (the literal prefilter's skip / wake /
//! replay, the ordered merge that keeps the output **byte-identical**
//! for any partition, the trailing-`$` bookkeeping) is one flow's
//! (`flow.rs`), the value the serving core schedules; the stream is its
//! synchronous driver. A block scan ([`Engine::scan`](crate::Engine::scan))
//! is a fresh stream fed the haystack once, so there is one scan loop.

use crate::flow::Flow;
use crate::prefilter::{extract, ChunkAction, Extraction, PrefilterMode, SetPrefilter};
use recama_compiler::CompileOutput;
use recama_nca::{
    CompilePlan, HybridCache, HybridEngine, HybridStats, MultiReport, Nca, ShardedMulti, StateId,
    DEFAULT_STATE_BUDGET,
};
use recama_syntax::Parsed;
use std::fmt;
use std::sync::Mutex;

/// How a pattern-set engine walks input bytes: always on its scan
/// groups' lazily determinized rows. The one variant carries the row
/// budget, which also draws the scan groups.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScanMode {
    /// The hybrid engine ([`HybridEngine`]): the pure frontier advances
    /// by one table row per byte, and only live counter-carrying states
    /// are stepped exactly.
    Hybrid {
        /// Determinized states cached per scan group ([`HybridCache`]),
        /// shared by every flow scanning it; a group that outgrows it is
        /// flushed. Tiny budgets stay correct but thrash.
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

/// A match reported by a pattern set: pattern `pattern` (index into the
/// compiled set) matched ending at 1-based byte offset `end`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SetMatch {
    /// Index of the matching pattern in the set.
    pub pattern: usize,
    /// 1-based end offset of the match.
    pub end: usize,
}

/// A located match, as [`Engine::scan_spans`](crate::Engine::scan_spans)
/// reports it: pattern `pattern` matched the byte span `[start, end)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SetSpan {
    /// Index of the matching pattern in the set.
    pub pattern: usize,
    /// Start offset (inclusive), earliest-start (leftmost-longest flavor).
    pub start: usize,
    /// End offset (exclusive).
    pub end: usize,
}

/// The scan half of a compiled ruleset: one shared software automaton
/// **per scan group** (see the module docs for the partition) over a
/// single byte-class alphabet, each reporting global rule indices, with
/// what every flow consults beside them.
///
/// The set is the inside of an [`Engine`](crate::Engine), which answers
/// every question about it; the one thing the set itself lends out is
/// its software automata.
///
/// # Examples
///
/// ```
/// use recama::{Engine, ScanMode};
///
/// let engine = Engine::builder()
///     .patterns(["ab{2,3}c", "xyz", "k\\d{4}"])
///     .scan_mode(ScanMode::Hybrid { state_budget: 4 })
///     .build()
///     .unwrap();
/// // A budget of four states puts each rule in a scan group of its own,
/// // and every group reports the global index of its rule.
/// let groups = engine.set().multi().shards();
/// assert_eq!(groups.len(), 3);
/// let reports = groups[2].engine().match_reports(b"k1234");
/// assert_eq!((reports[0].pattern, reports[0].end), (2, 5));
/// ```
#[derive(Debug)]
pub struct ShardedPatternSet {
    anchored_end: Vec<bool>,
    /// What a flow scans, group by group.
    pub(crate) plan: ScanPlan,
    /// One merged automaton per scan group.
    multi: ShardedMulti,
    /// The lazily determinized rows of each scan group: one cache per
    /// group, shared by every scan, stream and served flow of this set
    /// on any thread, and freed with the set — so an epoch of a serving
    /// handle owns its rows by pinning its `Arc<ShardedPatternSet>`.
    caches: Vec<HybridCache>,
    /// The literal prefilter (`None` under [`PrefilterMode::Off`]): one
    /// Aho-Corasick automaton over the shared alphabet, with group-set
    /// outputs, that scans, streams, and the serving layers consult
    /// before running the automata.
    prefilter: Option<SetPrefilter>,
    /// Engines that finished flows gave up, back at the start state with
    /// their byte counters taken: one list per scan group, which
    /// [`group_engine`](ShardedPatternSet::group_engine) takes from first.
    /// Boxed as a flow holds them, so parking and taking one moves a
    /// pointer and allocates nothing.
    #[allow(clippy::vec_box)]
    spares: Vec<Mutex<Vec<Box<HybridEngine>>>>,
}

impl ShardedPatternSet {
    /// The scan half of the rules `parsed`, compiled to `outputs`, cut
    /// by `plan`, filtering on `literals` (`None`: no filter).
    pub(crate) fn build(
        outputs: &[CompileOutput],
        parsed: &[Parsed],
        plan: ScanPlan,
        literals: Option<&[Option<Extraction>]>,
    ) -> ShardedPatternSet {
        // One shared automaton per scan group, over one union alphabet.
        let parts: Vec<(&Nca, CompilePlan)> = (outputs.iter())
            .map(|out| (&out.nca, storage_plan(out)))
            .collect();
        let multi = ShardedMulti::merge(&parts, &plan.groups);
        let caches = multi.hybrid_caches(plan.state_budget);

        // One AC filter for the set, over the same alphabet the engines
        // index with (singleton predicates get singleton classes, so the
        // class-indexed filter is exact on extracted literals).
        let prefilter =
            literals.map(|lits| SetPrefilter::build(lits, &plan, multi.alphabet().clone()));

        ShardedPatternSet {
            anchored_end: parsed.iter().map(|p| p.anchored_end).collect(),
            spares: plan.groups.iter().map(|_| Mutex::default()).collect(),
            plan,
            multi,
            caches,
            prefilter,
        }
    }

    /// The software automata: one merged `MultiNca` per **scan group**
    /// (`multi().shards()[g]` holds the rules of `scan_groups()[g]` and
    /// reports their global indices),
    /// shared byte-class alphabet.
    pub fn multi(&self) -> &ShardedMulti {
        &self.multi
    }

    /// The compiled literal prefilter, if the set was built with one.
    pub(crate) fn prefilter(&self) -> Option<&SetPrefilter> {
        self.prefilter.as_ref()
    }

    /// A fresh engine for scan group `group`, on the group's shared rows
    /// — a hot unit of a flow, `'static + Send` so a flow table keeps it
    /// between scans as it is (see
    /// [`ServiceHandle`](crate::ServiceHandle)). Boxed: engines move
    /// between workers at every checkout and check-in, and an engine is
    /// hundreds of bytes of inline state.
    ///
    /// A spare [`park`](ShardedPatternSet::park)ed by a finished flow is
    /// taken before one is built: it stands where a built one would, and
    /// its buffers are already grown. An engine is built only when no
    /// spare is left, so the group's engines — live and spare — never
    /// outnumber the most the set's flows ever held at once; the spares go
    /// with the set.
    pub(crate) fn group_engine(&self, group: usize) -> Box<HybridEngine> {
        let spare = lock(&self.spares[group]).pop();
        spare.unwrap_or_else(|| {
            Box::new(self.multi.shards()[group].hybrid_engine_on(&self.caches[group]))
        })
    }

    /// Takes the engine of group `group` that a finished flow gave up:
    /// resets it to the start state, keeps it as a spare for the next
    /// [`group_engine`](ShardedPatternSet::group_engine), and returns the
    /// byte counters it had, which the caller counts from now on.
    pub(crate) fn park(&self, group: usize, mut engine: Box<HybridEngine>) -> HybridStats {
        let counters = engine.recycle().unwrap_or_default();
        lock(&self.spares[group]).push(engine);
        counters
    }

    /// The group caches' half of the hybrid counters — `dfa_states` and
    /// `flushes` summed over this set's scan groups, each cache once.
    pub(crate) fn hybrid_cache_stats(&self) -> HybridStats {
        let mut total = HybridStats::default();
        for cache in &self.caches {
            total.merge(&cache.stats());
        }
        total
    }

    /// Whether pattern `i` carries a trailing-`$` anchor (one-shot scans
    /// keep only its matches ending at the end of the haystack).
    pub(crate) fn anchored_end(&self) -> &[bool] {
        &self.anchored_end
    }
}

/// Locks a spare list. A push or a pop leaves the list whole at every
/// step, so a lock poisoned by a panic elsewhere still guards it.
fn lock<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|poison| poison.into_inner())
}

/// The counter modules of one compiled rule, as every scan builds them:
/// the optimized plan keeps the analysis-informed SingleValue selection
/// and adds counting sets for eligible ambiguous bounded repeats (O(1)
/// increments and O(1) quiescence for the hybrid overlay).
fn storage_plan(out: &CompileOutput) -> CompilePlan {
    let analysis = &out.analysis;
    CompilePlan::optimized(&out.nca, |q: StateId| analysis.state_unambiguous(q))
}

/// What a flow scans together, from the rules alone: how many banks the
/// machine would need says nothing about whether a table-driven
/// engine's rows fit.
#[derive(Debug)]
pub(crate) struct ScanPlan {
    /// The scan groups, each its rules' ascending global indices (one
    /// empty group for no rule).
    pub(crate) groups: Vec<Vec<usize>>,
    /// The budget the groups were drawn under, which bounds each cache.
    pub(crate) state_budget: usize,
    /// The groups that start cold, one bit each: with the filter on,
    /// those whose every rule has a literal; empty with it off.
    pub(crate) cold: Vec<u64>,
}

impl ScanPlan {
    /// The plan of the rules `parsed`, compiled to `outputs`, with their
    /// required literals (`None` under [`PrefilterMode::Off`]).
    pub(crate) fn new(
        outputs: &[CompileOutput],
        parsed: &[Parsed],
        scan_mode: ScanMode,
        prefilter: PrefilterMode,
    ) -> (ScanPlan, Option<Vec<Option<Extraction>>>) {
        let ScanMode::Hybrid { state_budget } = scan_mode;
        let states = outputs.iter().map(|out| out.nca.state_count());
        let groups = next_fit(states, state_budget);
        let literals = (prefilter == PrefilterMode::On)
            .then(|| parsed.iter().map(extract).collect::<Vec<_>>());
        let cold = (literals.as_deref()).map_or(Vec::new(), |lits| cold_groups(&groups, lits));
        let plan = ScanPlan {
            groups,
            state_budget,
            cold,
        };
        (plan, literals)
    }
}

/// The groups whose every rule has a literal, one bit each.
pub(crate) fn cold_groups(groups: &[Vec<usize>], literals: &[Option<Extraction>]) -> Vec<u64> {
    let mut cold = vec![0u64; groups.len().div_ceil(64)];
    for (g, members) in groups.iter().enumerate() {
        if members.iter().all(|&rule| literals[rule].is_some()) {
            cold[g / 64] |= 1 << (g % 64);
        }
    }
    cold
}

/// Next-fit over the rules in index order, a rule weighing its NCA's
/// `states` (which bound its determinized rows from above on every
/// generator in `workloads`): a group closes when the next rule would
/// take it past `state_budget`, and a heavier rule gets one of its own.
fn next_fit(states: impl Iterator<Item = usize>, state_budget: usize) -> Vec<Vec<usize>> {
    let mut groups = Vec::new();
    let (mut group, mut load) = (Vec::new(), 0);
    for (rule, weight) in states.enumerate() {
        if !group.is_empty() && load + weight > state_budget {
            groups.push(std::mem::take(&mut group));
            load = 0;
        }
        group.push(rule);
        load += weight;
    }
    groups.push(group);
    groups
}

/// A resumable chunk-at-a-time matcher over a [`ShardedPatternSet`];
/// create one with [`Engine::stream`](crate::Engine::stream). It is the synchronous
/// driver of one flow (`flow.rs`): every chunk is admitted, scanned by
/// the group engines the literal prefilter did not skip, one after the
/// other on the calling thread, and merged before
/// [`feed`](ShardedSetStream::feed) returns, so the chunk stays borrowed.
/// The stream is `Send`, so per-flow states can move onto worker
/// threads. The `'a` is the set, which the stream borrows.
pub struct ShardedSetStream<'a> {
    set: &'a ShardedPatternSet,
    flow: Flow,
    /// The last chunk's verdicts, reports and merged matches, kept for
    /// their capacity: a chunk every unit skips allocates nothing.
    verdicts: Vec<ChunkAction>,
    reports: Vec<MultiReport>,
    merged: Vec<SetMatch>,
}

impl<'a> ShardedSetStream<'a> {
    /// A fresh stream over `set`, at position 0.
    pub(crate) fn new(set: &'a ShardedPatternSet) -> ShardedSetStream<'a> {
        ShardedSetStream {
            set,
            flow: Flow::new(set, 0),
            verdicts: Vec::new(),
            reports: Vec::new(),
            merged: Vec::new(),
        }
    }

    /// Consumes `chunk` and returns the matches it completed, in stream
    /// order. End offsets are 1-based and *absolute* (counted from the
    /// start of the stream, across all chunks fed so far).
    pub fn feed(&mut self, chunk: &[u8]) -> impl Iterator<Item = SetMatch> + '_ {
        let chunk_start = self.position();
        // A woken unit stands at its replay point, before the chunk: the
        // bytes in between are the end of `replay`, which starts at
        // `replay_from` (and is empty for a unit at the chunk's start).
        let (mut replay_from, mut replay) = (chunk_start, Vec::new());
        self.flow
            .admit(self.set, chunk, &mut self.verdicts, |start, bytes| {
                replay_from = start;
                replay.extend_from_slice(bytes);
            });
        for (si, verdict) in self.verdicts.iter().enumerate() {
            if *verdict == ChunkAction::Skip {
                continue;
            }
            // A stream counts from 0, so engine positions are absolute.
            let (mut engine, from) = self.flow.checkout(si);
            engine.feed_into(&replay[(from - replay_from) as usize..], &mut self.reports);
            engine.feed_into(chunk, &mut self.reports);
            self.flow.check_in(si, engine, self.reports.drain(..));
        }
        self.merged.clear();
        let merged = &mut self.merged;
        self.flow.merge(self.set, |r| merged.push(set_match(r)));
        self.merged.iter().copied()
    }

    /// Declares end-of-stream and returns, sorted by pattern, the
    /// `$`-anchored matches that end **exactly at the final byte** — the
    /// ones a one-shot [`Engine::scan`](crate::Engine::scan) over the whole
    /// stream would keep. (`feed` reports every candidate end of a
    /// `$`-anchored pattern, because mid-stream the end is unknown; the
    /// non-`$` reports of `feed` plus this finishing set are together
    /// byte-identical to the one-shot scan.)
    ///
    /// The finishing set survives trailing empty chunks: a candidate end
    /// on the final byte is reported even if the last `feed` before
    /// `finish` consumed zero bytes.
    pub fn finish(self) -> Vec<SetMatch> {
        self.flow.finishing().into_iter().map(set_match).collect()
    }

    /// Number of units this stream feeds, one after the other: one per
    /// scan group of its set.
    pub fn group_count(&self) -> usize {
        self.flow.unit_count()
    }

    /// Total bytes consumed since creation.
    pub fn position(&self) -> u64 {
        self.flow.total()
    }
}

fn set_match(r: MultiReport) -> SetMatch {
    SetMatch {
        pattern: r.pattern as usize,
        end: r.end as usize,
    }
}

impl fmt::Debug for ShardedSetStream<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ShardedSetStream({} scan groups, position = {})",
            self.group_count(),
            self.position()
        )
    }
}

/// `builder`'s engine cut into at least `groups` scan groups by the
/// largest hybrid `state_budget` under which next-fit closes that many
/// (`tests/common/mod.rs` holds the twin for the integration suites).
#[cfg(test)]
pub(crate) fn in_scan_groups(builder: crate::EngineBuilder, groups: usize) -> crate::Engine {
    let probe = builder.clone().build().unwrap();
    let states = || probe.outputs().iter().map(|out| out.nca.state_count());
    let state_budget = (1..=states().sum())
        .rev()
        .find(|&b| next_fit(states(), b).len() >= groups)
        .expect("no more groups than rules");
    let engine = (builder.scan_mode(ScanMode::Hybrid { state_budget }))
        .build()
        .unwrap();
    assert!(engine.scan_groups().len() >= groups);
    engine
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hw::{ShardBudget, ShardPolicy};
    use crate::prefilter::has;
    use crate::Engine;

    /// `patterns` in `groups` scan groups, one bank.
    fn grouped(patterns: &[&str], groups: usize) -> Engine {
        let engine = in_scan_groups(Engine::builder().patterns(patterns), groups);
        assert_eq!(engine.scan_groups().len(), groups);
        engine
    }

    fn set_with(patterns: &[&str], policy: ShardPolicy) -> Engine {
        Engine::builder()
            .patterns(patterns)
            .shard_policy(policy)
            .build()
            .unwrap()
    }

    #[test]
    fn mirrors_per_pattern_find_ends() {
        let patterns = ["ab{2,3}c", "a{3}", "cab", "x[yz]{2}"];
        let engine = set_with(&patterns, ShardPolicy::Single);
        let haystack = b"abbc.aaa.cab.xyz.abbbc";
        let mut expected: Vec<SetMatch> = Vec::new();
        for (pi, p) in patterns.iter().enumerate() {
            for m in Engine::new([p]).unwrap().scan(haystack) {
                expected.push(SetMatch { pattern: pi, ..m });
            }
        }
        expected.sort();
        let mut got = engine.scan(haystack);
        got.sort();
        assert_eq!(got, expected);
    }

    #[test]
    fn network_is_merged_and_valid_with_report_ids() {
        let engine = set_with(&["^a{30}", "[xy]{5}z"], ShardPolicy::Single);
        assert_eq!(engine.shard_count(), 1);
        assert!(
            engine.network(0).validate().is_empty(),
            "{:?}",
            engine.network(0).validate()
        );
        assert_eq!(engine.network(0).report_ids(), vec![0, 1]);
        // Module decisions surface per pattern.
        assert_eq!(engine.outputs().len(), 2);
    }

    #[test]
    fn dollar_anchor_filters_set_matches() {
        let engine = set_with(&["ab$", "ab"], ShardPolicy::Single);
        let got = engine.scan(b"ab.ab");
        // "ab$" only at the final position; "ab" at both.
        assert_eq!(
            got,
            vec![
                SetMatch { pattern: 1, end: 2 },
                SetMatch { pattern: 0, end: 5 },
                SetMatch { pattern: 1, end: 5 },
            ]
        );
    }

    #[test]
    fn stream_positions_are_absolute() {
        let engine = set_with(&["kk"], ShardPolicy::Single);
        let mut stream = engine.stream();
        assert_eq!(stream.feed(b"....").count(), 0);
        let hits: Vec<SetMatch> = stream.feed(b"kk").collect();
        assert_eq!(hits, vec![SetMatch { pattern: 0, end: 6 }]);
        assert_eq!(stream.position(), 6);
        // A fresh stream starts again at position 0.
        let hits: Vec<SetMatch> = engine.stream().feed(b"kk").collect();
        assert_eq!(hits, vec![SetMatch { pattern: 0, end: 2 }]);
    }

    /// Regression pin: the finishing set must come from state that lives
    /// across `feed` calls, not from the last chunk's report buffer — an
    /// empty final chunk clears that buffer, and a match ending exactly
    /// on the final byte must still be reported by `finish()`.
    #[test]
    fn stream_finish_survives_empty_final_chunk() {
        let patterns = ["ab$", "ab", "cd$"];
        let input: &[u8] = b"ab.cd";
        // What the $-filtered one-shot scan keeps.
        let expected = vec![
            SetMatch { pattern: 1, end: 2 },
            SetMatch { pattern: 2, end: 5 },
        ];

        // One engine or two: non-$ feed reports + finish == scan.
        for groups in [1, 2] {
            let engine = grouped(&patterns, groups);
            assert_eq!(engine.scan(input), expected, "{groups} groups");
            let mut stream = engine.stream();
            let mut got = Vec::new();
            for chunk in [&b"ab"[..], b".c", b"d", b""] {
                got.extend(
                    stream
                        .feed(chunk)
                        .filter(|m| !["ab$", "cd$"].contains(&patterns[m.pattern])),
                );
            }
            let finishing = stream.finish();
            assert_eq!(
                finishing,
                vec![SetMatch { pattern: 2, end: 5 }],
                "the cd$ candidate arrived two feeds before the empty final chunk"
            );
            got.extend(finishing);
            got.sort();
            assert_eq!(got, expected, "{groups} groups");
        }
    }

    #[test]
    fn stream_finish_is_empty_when_no_dollar_match_ends_the_stream() {
        let engine = set_with(&["ab$", "xy"], ShardPolicy::Single);
        // Candidate at 2, but the stream continues past it.
        let mut stream = engine.stream();
        assert_eq!(stream.feed(b"ab").count(), 1);
        assert_eq!(stream.feed(b"xy").count(), 1);
        assert!(stream.finish().is_empty());
        // A never-fed stream finishes empty too.
        assert!(engine.stream().finish().is_empty());
    }

    #[test]
    fn hardware_simulator_attributes_reports() {
        let engine = set_with(&["^ab{2}c", "xyz"], ShardPolicy::Single);
        let mut hw = engine.hardware(0);
        let ends = hw.match_ends(b"abbc..xyz");
        assert_eq!(ends, vec![4, 9]);
    }

    /// `patterns` under the hybrid `state_budget`.
    fn budgeted(patterns: &[&str], state_budget: usize) -> Engine {
        let mode = ScanMode::Hybrid { state_budget };
        Engine::builder()
            .patterns(patterns)
            .scan_mode(mode)
            .build()
            .unwrap()
    }

    #[test]
    fn a_zero_budget_is_a_group_per_rule_on_one_row_each() {
        let patterns = ["ab{2,3}c", "a{3}", "cab", "x[yz]{2}"];
        let (zero, one) = (budgeted(&patterns, 0), budgeted(&patterns, 1));
        assert_eq!(zero.scan_groups(), [[0], [1], [2], [3]]);
        assert_eq!(zero.scan_groups(), one.scan_groups());
        // The caches clamp the budget to one row, as at budget 1.
        for cache in &zero.set().caches {
            assert!(
                format!("{cache:?}").ends_with("state_budget = 1)"),
                "{cache:?}"
            );
        }
        let haystack = b"abbc.aaa.cab.xyz.abbbc";
        assert_eq!(zero.scan(haystack), one.scan(haystack));
        assert_eq!(zero.scan(haystack).len(), 5);
        assert!(zero.set().hybrid_cache_stats().dfa_states <= 4);
    }

    #[test]
    fn a_rule_heavier_than_the_budget_gets_a_group_of_its_own() {
        let patterns = ["ab", "abcdefghijklmnopqrstuvwxyz", "cd", "ef"];
        let probe = Engine::new(patterns).unwrap();
        let states: Vec<usize> = (probe.outputs().iter())
            .map(|out| out.nca.state_count())
            .collect();
        // Room for two short rules, not for the long one.
        let state_budget = states[0] + states[2];
        assert!(states[1] > state_budget && states[3] <= states[0]);
        let engine = budgeted(&patterns, state_budget);
        assert_eq!(engine.scan_groups(), [vec![0], vec![1], vec![2, 3]]);
        let haystack = b"..abcdefghijklmnopqrstuvwxyz.cdef";
        assert_eq!(engine.scan(haystack), probe.scan(haystack));
        assert_eq!(engine.scan(haystack).len(), 6);
    }

    #[test]
    fn the_empty_ruleset_is_one_empty_group() {
        for state_budget in [0, DEFAULT_STATE_BUDGET] {
            let engine = budgeted(&[], state_budget);
            assert_eq!(engine.scan_groups(), [Vec::<usize>::new()]);
            assert_eq!(engine.set().multi().shards().len(), 1);
            assert_eq!(engine.stream().group_count(), 1);
        }
    }

    #[test]
    fn a_group_starts_cold_when_the_filter_is_on_and_every_rule_has_a_literal() {
        // `[ab]{3}` has no literal: the group it joins always scans.
        let patterns = ["abc", "xyz", "[ab]{3}"];
        for mode in [PrefilterMode::On, PrefilterMode::Off] {
            let builder = Engine::builder().patterns(patterns).prefilter(mode);
            let engine = in_scan_groups(builder, 2);
            assert_eq!(engine.scan_groups(), [vec![0, 1], vec![2]]);
            let plan = &engine.set().plan;
            let cold = [has(&plan.cold, 0), has(&plan.cold, 1)];
            let on = mode == PrefilterMode::On;
            assert_eq!(cold, [on, false], "{mode:?}");
            assert_eq!(engine.set().prefilter().is_some(), on, "{mode:?}");
            assert_eq!(
                engine.scan(b"..xyz.bab"),
                [(1, 5), (2, 9)].map(|(pattern, end)| SetMatch { pattern, end })
            );
        }
    }

    #[test]
    fn empty_set_is_well_formed() {
        // Under any policy the empty set compiles to one empty shard.
        for policy in [ShardPolicy::Single, ShardPolicy::default()] {
            let engine = set_with(&[], policy);
            assert!(engine.is_empty());
            assert_eq!(engine.shard_count(), 1);
            assert!(engine.network(0).validate().is_empty());
            assert!(engine.scan(b"anything").is_empty());
            assert_eq!(engine.stream().feed(b"xy").count(), 0);
        }
    }

    #[test]
    fn sharded_reports_are_byte_identical_to_unsharded() {
        let patterns = ["ab{2,3}c", "a{3}", "cab", "x[yz]{2}", "k\\d{2}"];
        let single = set_with(&patterns, ShardPolicy::Single);
        assert_eq!(single.scan_groups().len(), 1);
        let haystack = b"abbc.aaa.cab.xyz.k42.abbbc";
        let expected = single.scan(haystack);
        // Neither partition moves a report, together or apart.
        let tight = ShardPolicy::Banked(ShardBudget {
            columns: 4,
            counters: 8,
            bitvector_bits: 2000,
        });
        for (policy, groups) in [
            (ShardPolicy::Fixed(2), 2),
            (ShardPolicy::Fixed(3), 3),
            (ShardPolicy::Fixed(5), 5),
            (tight, 2),
            (ShardPolicy::Single, 5),
            (ShardPolicy::Fixed(5), 1),
        ] {
            let builder = Engine::builder().patterns(patterns).shard_policy(policy);
            let sharded = in_scan_groups(builder, groups);
            assert_eq!(sharded.scan_groups().len(), groups);
            // No sort: the order must match too.
            assert_eq!(
                sharded.scan(haystack),
                expected,
                "policy {policy:?}, {groups} groups"
            );
        }
    }

    #[test]
    fn sharded_networks_carry_global_report_ids() {
        let patterns = ["^a{30}", "[xy]{5}z", "k\\d{2}"];
        let engine = set_with(&patterns, ShardPolicy::Fixed(2));
        assert_eq!(engine.shard_count(), 2);
        let mut all_ids = Vec::new();
        for si in 0..engine.shard_count() {
            assert!(engine.network(si).validate().is_empty());
            all_ids.extend(engine.network(si).report_ids());
        }
        all_ids.sort();
        assert_eq!(all_ids, vec![0, 1, 2]);
    }

    #[test]
    fn sharded_stream_agrees_with_oneshot() {
        let patterns = ["ab{2,4}c", "x{3}", "q[rs]{2}t"];
        let engine = grouped(&patterns, 3);
        let input = b"zabbbc_xxx_qrst_abbc_xxxx";
        let oneshot = engine.scan(input);
        for chunk_len in [1usize, 2, 7, input.len()] {
            let mut stream = engine.stream();
            let mut got = Vec::new();
            for chunk in input.chunks(chunk_len) {
                got.extend(stream.feed(chunk));
            }
            assert_eq!(got, oneshot, "chunk length {chunk_len}");
            assert_eq!(stream.position(), input.len() as u64);
        }
    }

    #[test]
    fn find_spans_locates_starts_per_pattern() {
        let patterns = ["ab{2,3}c", "xyz"];
        let engine = set_with(&patterns, ShardPolicy::Single);
        let spans = engine.scan_spans(b"zzabbc..xyz..abbbc");
        assert_eq!(
            spans,
            vec![
                SetSpan {
                    pattern: 0,
                    start: 2,
                    end: 6
                },
                SetSpan {
                    pattern: 1,
                    start: 8,
                    end: 11
                },
                SetSpan {
                    pattern: 0,
                    start: 13,
                    end: 18
                },
            ]
        );
        // Agreement with each pattern's engine alone.
        for (pi, p) in patterns.iter().enumerate() {
            let alone = Engine::new([p]).unwrap().scan_spans(b"zzabbc..xyz..abbbc");
            let expected: Vec<SetSpan> = (alone.into_iter())
                .map(|s| SetSpan { pattern: pi, ..s })
                .collect();
            let got: Vec<SetSpan> = spans.iter().filter(|s| s.pattern == pi).copied().collect();
            assert_eq!(got, expected, "pattern {p}");
        }
    }

    #[test]
    fn streams_are_send_and_debug() {
        fn assert_send<T: Send>() {}
        assert_send::<ShardedSetStream<'static>>();
        assert_send::<SetMatch>();
        assert_send::<SetSpan>();
        assert_send::<ShardedPatternSet>();

        // Engines really do move onto worker threads.
        let engine = set_with(&["kk"], ShardPolicy::Single);
        let mut stream = engine.stream();
        let hits = std::thread::scope(|scope| {
            scope
                .spawn(move || stream.feed(b"..kk").count())
                .join()
                .unwrap()
        });
        assert_eq!(hits, 1);
        let debug = format!("{:?}", engine.stream());
        assert!(debug.contains("1 scan groups") && debug.contains("position = 0"));
    }
}
