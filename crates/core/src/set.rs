//! [`ShardedPatternSet`]: a whole ruleset compiled into bank-sized
//! machine images and shared software engines.
//!
//! The paper's evaluation operates on rulesets (Snort, Suricata,
//! Protomata, SpamAssassin, ClamAV — Table 1), and deployments of this
//! class of matcher always compile the full set into shared automata
//! scanned once per input stream. There is one ruleset type, and it
//! holds two partitions of its rules, both [`ShardPlan`]s:
//!
//! * the **bank plan** ([`ShardedPatternSet::plan`]) cuts the rules into
//!   *shards* whose sub-networks each fit one bank
//!   ([`ShardPolicy`](recama_hw::ShardPolicy), default = one bank's
//!   capacity). It decides the machine images — `network`, `hardware`,
//!   placement, energy and area — and nothing else;
//! * the **scan partition** ([`ShardedPatternSet::scan_groups`]) cuts
//!   them into *scan groups*, the units a software flow scans. In the
//!   machine a bank is free parallelism (one decoder shows a symbol to
//!   every bank), in software every group is one more table walk over
//!   the same byte, so the partition is the coarsest order-preserving
//!   one whose lazy-DFA rows can be expected to fit: next-fit over the
//!   rules, a rule weighing its NCA's states, a group closing when the
//!   next rule would pass the [`ScanMode::Hybrid`] `state_budget`.
//!   [`ScanMode::Nca`] has no rows to fit and scans one group. The
//!   shard policy never reaches it.
//!
//! One [`MultiNca`](recama_nca::MultiNca) per scan group shares a single
//! byte-class alphabet computed once over the whole set, and a
//! [`ShardedSetStream`] feeds each chunk to every group engine that
//! scans it, one after the other — large chunks in parallel on scoped
//! threads. What the stream does with a chunk (the literal prefilter's
//! skip / wake / replay, the ordered merge that keeps the output
//! **byte-identical** for any partition, the trailing-`$` bookkeeping)
//! is one flow's (`flow.rs`), the same value the serving core
//! schedules; the stream is its synchronous driver.
//!
//! One merged network for the whole set (the shape that fits a single
//! CAMA bank) is the one-bank plan, `ShardPolicy::Single`. A block scan
//! ([`ShardedPatternSet::find_ends`]) is a fresh stream fed the haystack
//! once, so there is one scan loop.

use crate::flow::Flow;
use crate::prefilter::{ChunkAction, PrefilterMode, SetPrefilter};
use crate::MatchSpan;
use recama_compiler::{compile, CompileOptions, CompileOutput};
use recama_hw::{RuleCost, ShardBudget, ShardPlan, ShardPolicy};
use recama_mnrl::MnrlNetwork;
use recama_nca::{
    CompilePlan, HybridCache, HybridStats, MultiReport, Nca, ScanMode, ShardStream, ShardedMulti,
    StateId, TokenSetEngine,
};
use recama_syntax::Parsed;
use std::collections::HashMap;
use std::fmt;
use std::sync::OnceLock;

/// A match reported by a pattern set: pattern `pattern` (index into the
/// compiled set) matched ending at 1-based byte offset `end`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SetMatch {
    /// Index of the matching pattern in the set.
    pub pattern: usize,
    /// 1-based end offset of the match.
    pub end: usize,
}

/// A located match of a pattern set: pattern `pattern` matched the byte
/// span `[start, end)` — the set-level analogue of [`MatchSpan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SetSpan {
    /// Index of the matching pattern in the set.
    pub pattern: usize,
    /// Start offset (inclusive), earliest-start (leftmost-longest flavor).
    pub start: usize,
    /// End offset (exclusive).
    pub end: usize,
}

impl SetSpan {
    /// The span as a [`MatchSpan`].
    pub fn span(&self) -> MatchSpan {
        MatchSpan {
            start: self.start,
            end: self.end,
        }
    }
}

/// A compiled ruleset: one merged extended-MNRL network **per bank-sized
/// shard**, one shared software automaton **per scan group** (see the
/// module docs for the two partitions), and a single byte-class alphabet
/// shared by every automaton.
///
/// Mirrors [`Pattern`](crate::Pattern)'s API at set granularity —
/// [`find_ends`] / [`find_spans`] / [`stream`] / [`hardware`] — and its
/// report semantics exactly: for any bank plan (including the one-bank
/// `ShardPolicy::Single`) and any scan partition, [`find_ends`] returns
/// the union of the per-pattern reports in the same order.
///
/// [`find_ends`]: ShardedPatternSet::find_ends
/// [`find_spans`]: ShardedPatternSet::find_spans
/// [`stream`]: ShardedPatternSet::stream
/// [`hardware`]: ShardedPatternSet::hardware
///
/// The only way to compile one is
/// [`Engine::builder`](crate::Engine::builder) (every compile knob lives
/// there), then [`Engine::set`](crate::Engine::set).
///
/// # Examples
///
/// ```
/// use recama::hw::ShardPolicy;
/// use recama::Engine;
///
/// let engine = Engine::builder()
///     .patterns(["ab{2,3}c", "xyz", "k\\d{4}"])
///     .shard_policy(ShardPolicy::Fixed(2))
///     .build()
///     .unwrap();
/// let set = engine.set();
/// assert_eq!(set.shard_count(), 2);
/// // Three small rules fit one group of lazy-DFA rows: a flow scans once.
/// assert_eq!(set.scan_groups().shard_count(), 1);
/// // Reports are identical for any partition, in the same order.
/// let matches = set.find_ends(b"zabbc..xyz..k1234");
/// let hits: Vec<(usize, usize)> = matches.iter().map(|m| (m.pattern, m.end)).collect();
/// assert_eq!(hits, vec![(0, 5), (1, 10), (2, 17)]);
/// // Each shard is its own machine image with global report ids.
/// assert_eq!(set.network(0).report_ids(), vec![0, 1]);
/// assert_eq!(set.network(1).report_ids(), vec![2]);
/// ```
#[derive(Debug)]
pub struct ShardedPatternSet {
    sources: Vec<String>,
    parsed: Vec<Parsed>,
    outputs: Vec<CompileOutput>,
    anchored_end: Vec<bool>,
    /// The bank plan: which rule lives in which machine image.
    plan: ShardPlan,
    /// One merged machine image per shard (reporting nodes carry global
    /// pattern ids).
    networks: Vec<MnrlNetwork>,
    /// The scan partition: which rule a flow scans in which group.
    scan: ShardPlan,
    /// One merged automaton per scan group.
    multi: ShardedMulti,
    /// How scans and streams walk input bytes (the hybrid engine with or
    /// without lazy-DFA rows).
    scan_mode: ScanMode,
    /// Under [`ScanMode::Hybrid`], the lazily determinized rows of each
    /// scan group (empty under [`ScanMode::Nca`]): one cache per group,
    /// shared by every scan, stream and served flow of this set on any
    /// thread, and freed with the set — so an epoch of a serving handle
    /// owns its rows by pinning its `Arc<ShardedPatternSet>`.
    caches: Vec<HybridCache>,
    /// The literal prefilter (`None` under [`PrefilterMode::Off`]): one
    /// Aho-Corasick automaton over the shared alphabet, with group-set
    /// outputs, that scans, streams, and the serving layers consult
    /// before running the automata.
    prefilter: Option<SetPrefilter>,
    /// Reversed automata for span location, built per pattern on first
    /// use (repeated `find_spans` calls must not re-run Glushkov).
    reversed: Vec<OnceLock<Nca>>,
}

impl ShardedPatternSet {
    pub(crate) fn build(
        accepted: Vec<(String, Parsed)>,
        options: &CompileOptions,
        policy: ShardPolicy,
        scan_mode: ScanMode,
        prefilter_mode: PrefilterMode,
    ) -> ShardedPatternSet {
        let mut sources = Vec::with_capacity(accepted.len());
        let mut parsed_list = Vec::with_capacity(accepted.len());
        let mut outputs = Vec::with_capacity(accepted.len());
        let mut anchored_end = Vec::with_capacity(accepted.len());
        for (source, parsed) in accepted {
            let out = compile(&parsed.for_stream(), options);
            sources.push(source);
            anchored_end.push(parsed.anchored_end);
            parsed_list.push(parsed);
            outputs.push(out);
        }

        // The bank plan, costed with the mapper's own estimates. The
        // trivial policy never looks at costs, so skip the per-rule
        // placements there.
        let plan = if policy == ShardPolicy::Single {
            ShardPlan::single(outputs.len())
        } else {
            let costs: Vec<RuleCost> = outputs
                .iter()
                .map(|out| RuleCost::of_network(&out.network))
                .collect();
            ShardPlan::plan(&costs, policy)
        };

        // One machine image per shard; reporting nodes carry the *global*
        // pattern index, so hardware reports attribute without remapping.
        let networks: Vec<MnrlNetwork> = plan
            .shards()
            .iter()
            .enumerate()
            .map(|(si, members)| {
                let name = if plan.shard_count() == 1 {
                    "pattern-set".to_string()
                } else {
                    format!("pattern-set-shard{si}")
                };
                recama_compiler::merge_rule_networks(
                    &name,
                    members.iter().map(|&g| (g, g as u32, &outputs[g].network)),
                )
            })
            .collect();

        // The scan partition, from the rules alone: how many banks the
        // machine would need says nothing about whether a table-driven
        // engine's rows fit. NCA states bound the determinized rows from
        // above on every generator in `workloads`, so a group closes
        // when the next rule's states would pass the budget.
        let scan = match scan_mode {
            ScanMode::Nca => ShardPlan::single(outputs.len()),
            ScanMode::Hybrid { state_budget } => scan_partition(&outputs, state_budget),
        };

        // One shared automaton per scan group over a single union
        // alphabet.
        // The optimized plan keeps the analysis-informed SingleValue
        // selection and adds counting-set queues for eligible ambiguous
        // bounded repeats (O(1) increments + O(1) quiescence for the
        // hybrid overlay).
        let parts: Vec<(&Nca, CompilePlan)> = outputs
            .iter()
            .map(|out| {
                let analysis = &out.analysis;
                let plan =
                    CompilePlan::optimized(&out.nca, |q: StateId| analysis.state_unambiguous(q));
                (&out.nca, plan)
            })
            .collect();
        let multi = ShardedMulti::merge(&parts, scan.shards());
        let caches = match scan_mode {
            ScanMode::Nca => Vec::new(),
            ScanMode::Hybrid { state_budget } => multi.hybrid_caches(state_budget),
        };

        // Required-literal extraction over the raw rule ASTs, one AC
        // filter for the set, over the same alphabet the engines index
        // with (singleton predicates get singleton classes, so the
        // class-indexed filter is exact on extracted literals).
        let prefilter = match prefilter_mode {
            PrefilterMode::On => Some(SetPrefilter::build(
                &parsed_list,
                scan.shards(),
                multi.alphabet().clone(),
            )),
            PrefilterMode::Off => None,
        };

        let reversed = (0..sources.len()).map(|_| OnceLock::new()).collect();
        ShardedPatternSet {
            sources,
            parsed: parsed_list,
            outputs,
            anchored_end,
            plan,
            networks,
            scan,
            multi,
            scan_mode,
            caches,
            prefilter,
            reversed,
        }
    }

    /// Number of compiled patterns.
    pub fn len(&self) -> usize {
        self.sources.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.sources.is_empty()
    }

    /// The source text of pattern `i`.
    pub fn pattern(&self, i: usize) -> &str {
        &self.sources[i]
    }

    /// Per-pattern compiler outputs (module decisions, analyses, NCAs),
    /// indexed like the patterns.
    pub fn outputs(&self) -> &[CompileOutput] {
        &self.outputs
    }

    /// Number of bank-sized shards, i.e. machine images (≥ 1; the empty
    /// set compiles to one empty shard). Not the number of engines a
    /// flow runs: that is [`scan_groups`](ShardedPatternSet::scan_groups).
    pub fn shard_count(&self) -> usize {
        self.networks.len()
    }

    /// The bank plan (which pattern lives in which shard's image).
    pub fn plan(&self) -> &ShardPlan {
        &self.plan
    }

    /// Global pattern indices of shard `shard`'s image, ascending.
    pub fn shard_members(&self, shard: usize) -> &[usize] {
        self.plan.members(shard)
    }

    /// The scan partition (which pattern a flow scans in which group):
    /// what [`multi`](ShardedPatternSet::multi), the prefilter, a
    /// stream's engines, the serving units and every per-unit metric are
    /// indexed by. It follows from the rules and the [`ScanMode`] alone
    /// (see the module docs), never from the
    /// [`ShardPolicy`](recama_hw::ShardPolicy).
    pub fn scan_groups(&self) -> &ShardPlan {
        &self.scan
    }

    /// The merged extended-MNRL network of shard `shard`. Reporting nodes
    /// of pattern `i` carry `report_id = i` (global numbering).
    pub fn network(&self, shard: usize) -> &MnrlNetwork {
        &self.networks[shard]
    }

    /// All per-shard machine images.
    pub fn networks(&self) -> &[MnrlNetwork] {
        &self.networks
    }

    /// The software automata: one merged `MultiNca` per **scan group**
    /// (`multi().shards()[g]` holds the rules of
    /// `scan_groups().members(g)`), shared byte-class alphabet.
    pub fn multi(&self) -> &ShardedMulti {
        &self.multi
    }

    /// How this set's scans and streams walk input bytes (set at build
    /// time via [`EngineBuilder::scan_mode`](crate::EngineBuilder)).
    pub fn scan_mode(&self) -> ScanMode {
        self.scan_mode
    }

    /// Whether this set consults the literal prefilter (set at build
    /// time via [`EngineBuilder::prefilter`](crate::EngineBuilder)).
    pub(crate) fn prefilter_mode(&self) -> PrefilterMode {
        if self.prefilter.is_some() {
            PrefilterMode::On
        } else {
            PrefilterMode::Off
        }
    }

    /// Number of rules with no usable required literal (their scan
    /// groups scan every byte). 0 under [`PrefilterMode::Off`].
    pub fn always_on_rules(&self) -> usize {
        self.prefilter
            .as_ref()
            .map_or(0, SetPrefilter::always_on_rules)
    }

    /// The compiled literal prefilter, if the set was built with one.
    pub(crate) fn prefilter(&self) -> Option<&SetPrefilter> {
        self.prefilter.as_ref()
    }

    /// One fresh [`ShardStream`] per scan group in this set's
    /// [`ScanMode`] — the unit the flow scheduler checks out, and what a
    /// `'static` flow table keeps between scans (see
    /// [`ServiceHandle`](crate::ServiceHandle)). A hybrid stream scans on
    /// the group's shared rows.
    pub(crate) fn group_streams(&self) -> Vec<ShardStream> {
        (0..self.multi.shard_count())
            .map(|group| self.multi.shard_stream(group, self.caches.get(group)))
            .collect()
    }

    /// The group caches' half of the hybrid counters — `dfa_states` and
    /// `flushes` summed over this set's scan groups, each cache once
    /// (all zero under [`ScanMode::Nca`]).
    pub(crate) fn hybrid_cache_stats(&self) -> HybridStats {
        let mut total = HybridStats::default();
        for cache in &self.caches {
            total.merge(&cache.stats());
        }
        total
    }

    /// All matches in `haystack`, in stream order (ascending end offset,
    /// ascending pattern within one offset) — byte-identical for any
    /// partition. A block scan is a fresh [`stream`] fed the haystack
    /// once: the stream's one loop consults the prefilter (a fresh
    /// filter state on the only chunk is the block gate — a haystack
    /// without any required literal of a scan group cannot contain one
    /// of its matches), fans large haystacks out to one scoped thread
    /// per group, and merges the reports in order.
    ///
    /// Semantics per pattern match
    /// [`Pattern::find_ends`](crate::Pattern::find_ends): search form
    /// `Σ*·r` unless `^`-anchored, one report per (pattern, end), and a
    /// trailing `$` keeps only that pattern's matches ending at the end
    /// of the haystack.
    ///
    /// [`stream`]: ShardedPatternSet::stream
    pub fn find_ends(&self, haystack: &[u8]) -> Vec<SetMatch> {
        self.stream()
            .feed(haystack)
            .filter(|m| !self.anchored_end[m.pattern] || m.end == haystack.len())
            .collect()
    }

    /// Whether any pattern matches in `haystack`.
    pub fn is_match(&self, haystack: &[u8]) -> bool {
        !self.find_ends(haystack).is_empty()
    }

    /// Locates full match spans per pattern: for every reported match
    /// end, the matching pattern's *reversed* automaton runs backward
    /// from the end to the earliest start (leftmost-longest flavor), as
    /// in [`Pattern::find_spans`](crate::Pattern::find_spans). Reversed
    /// automata are built lazily per pattern and cached for the set's
    /// lifetime.
    pub fn find_spans(&self, haystack: &[u8]) -> Vec<SetSpan> {
        let matches = self.find_ends(haystack);
        if matches.is_empty() {
            return Vec::new();
        }
        // One backward engine per distinct pattern, reused across ends.
        let mut engines: HashMap<usize, TokenSetEngine<'_>> = HashMap::new();
        matches
            .into_iter()
            .map(|m| {
                let engine = engines
                    .entry(m.pattern)
                    .or_insert_with(|| TokenSetEngine::new(self.reversed_nca(m.pattern)));
                SetSpan {
                    pattern: m.pattern,
                    start: crate::earliest_start(engine, haystack, m.end).0,
                    end: m.end,
                }
            })
            .collect()
    }

    /// The reversed automaton of pattern `i`, built on first use.
    fn reversed_nca(&self, i: usize) -> &Nca {
        self.reversed[i].get_or_init(|| Nca::from_regex(&self.parsed[i].regex.reverse()))
    }

    /// A resumable streaming matcher holding one engine state per scan
    /// group: feed traffic in chunks and drain reports incrementally,
    /// without re-scanning previous chunks. Large chunks are fanned out
    /// to the group engines on scoped threads.
    ///
    /// Note that a stream has no "end" until [`finish`] declares one, so
    /// trailing-`$` anchors are not applied during [`feed`]: `$`-anchored
    /// patterns report every candidate end offset. Call [`finish`] at
    /// end-of-stream to learn which `$`-anchored matches actually end on
    /// the final byte.
    ///
    /// [`feed`]: ShardedSetStream::feed
    /// [`finish`]: ShardedSetStream::finish
    pub fn stream(&self) -> ShardedSetStream<'_> {
        ShardedSetStream {
            set: self,
            flow: Flow::new(self, 0),
            verdicts: Vec::new(),
            merged: Vec::new(),
        }
    }

    /// Whether pattern `i` carries a trailing-`$` anchor (one-shot scans
    /// keep only its matches ending at the end of the haystack).
    pub(crate) fn anchored_end(&self) -> &[bool] {
        &self.anchored_end
    }

    /// A hardware simulator for shard `shard`'s machine image; its report
    /// vector attributes events to patterns via the stamped (global)
    /// report ids.
    pub fn hardware(&self, shard: usize) -> recama_hw::HwSimulator<'_> {
        recama_hw::HwSimulator::new(&self.networks[shard])
    }
}

/// Next-fit over the rules in index order, a rule weighing its NCA's
/// states and a group holding `state_budget` of them: the bank plan's
/// packing, with states for columns.
fn scan_partition(outputs: &[CompileOutput], state_budget: usize) -> ShardPlan {
    let states = |out: &CompileOutput| RuleCost {
        columns: out.nca.state_count(),
        ..RuleCost::default()
    };
    let budget = ShardBudget {
        columns: state_budget,
        ..ShardBudget::unbounded()
    };
    ShardPlan::next_fit(&outputs.iter().map(states).collect::<Vec<_>>(), &budget)
}

/// A resumable chunk-at-a-time matcher over a [`ShardedPatternSet`];
/// create one with [`ShardedPatternSet::stream`]. It is the synchronous
/// driver of one flow (`flow.rs`): every chunk is admitted, scanned by
/// the group engines the literal prefilter did not skip — on scoped
/// threads when the chunk is large — and merged before
/// [`feed`](ShardedSetStream::feed) returns, so the chunk stays borrowed.
/// The stream is `Send`, so per-flow states can move onto worker
/// threads. The `'a` is the set, which the stream borrows.
pub struct ShardedSetStream<'a> {
    set: &'a ShardedPatternSet,
    flow: Flow,
    /// The last chunk's verdicts and merged matches, kept for their
    /// capacity: a chunk every unit skips allocates nothing.
    verdicts: Vec<ChunkAction>,
    merged: Vec<SetMatch>,
}

/// Inputs at least this large are fanned out to group engines on scoped
/// threads; smaller ones are processed sequentially (thread spawn would
/// cost more than the scan).
const PARALLEL_MIN_BYTES: usize = 4096;

impl ShardedSetStream<'_> {
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
        let mut scans: Vec<(usize, ShardStream, u64, Vec<MultiReport>)> = Vec::new();
        for (si, verdict) in self.verdicts.iter().enumerate() {
            if *verdict != ChunkAction::Skip {
                let (engine, from) = self.flow.checkout(si);
                scans.push((si, engine, from, Vec::new()));
            }
        }
        // A stream counts from 0, so engine positions are absolute.
        let scan = |(_, engine, from, reports): &mut (usize, ShardStream, u64, Vec<_>)| {
            engine.feed_into(&replay[(*from - replay_from) as usize..], reports);
            engine.feed_into(chunk, reports);
        };
        if scans.len() > 1 && chunk.len() >= PARALLEL_MIN_BYTES {
            std::thread::scope(|scope| {
                for unit in &mut scans {
                    scope.spawn(|| scan(unit));
                }
            });
        } else {
            scans.iter_mut().for_each(scan);
        }
        for (si, engine, _, reports) in scans {
            self.flow.check_in(si, engine, reports);
        }
        self.merged.clear();
        let merged = &mut self.merged;
        self.flow.merge(self.set, |r| merged.push(set_match(r)));
        self.merged.iter().copied()
    }

    /// Declares end-of-stream and returns, sorted by pattern, the
    /// `$`-anchored matches that end **exactly at the final byte** — the
    /// ones a one-shot [`ShardedPatternSet::find_ends`] over the whole
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

    /// Number of engines this stream advances in lockstep: one per scan
    /// group of its set.
    pub fn group_count(&self) -> usize {
        self.flow.unit_count()
    }

    /// Total bytes consumed since creation (or the last reset).
    pub fn position(&self) -> u64 {
        self.flow.total()
    }

    /// Restarts the stream at position 0.
    pub fn reset(&mut self) {
        self.flow = Flow::new(self.set, 0);
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

/// `builder`'s engine cut into at least `groups` scan groups the way a
/// user gets them: by a hybrid `state_budget` the rules do not fit. A
/// default build weighs the rules, and the budget is the largest under
/// which next-fit — the set's own rule — closes that many groups.
/// (`tests/common/mod.rs` holds the twin for the integration suites.)
#[cfg(test)]
pub(crate) fn in_scan_groups(builder: crate::EngineBuilder, groups: usize) -> crate::Engine {
    let probe = builder.clone().build().unwrap();
    let total: usize = (probe.outputs().iter())
        .map(|out| out.nca.state_count())
        .sum();
    let state_budget = (1..=total)
        .rev()
        .find(|&b| scan_partition(probe.outputs(), b).shard_count() >= groups)
        .expect("no more groups than rules");
    let engine = (builder.scan_mode(ScanMode::Hybrid { state_budget }))
        .build()
        .unwrap();
    assert!(engine.scan_groups().shard_count() >= groups);
    engine
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Engine, Pattern};
    use std::sync::Arc;

    /// `patterns` in `groups` scan groups, one bank.
    fn grouped(patterns: &[&str], groups: usize) -> Arc<ShardedPatternSet> {
        let set = in_scan_groups(Engine::builder().patterns(patterns), groups).set_arc();
        assert_eq!(set.scan_groups().shard_count(), groups);
        set
    }

    fn set_with(patterns: &[&str], policy: ShardPolicy) -> Arc<ShardedPatternSet> {
        Engine::builder()
            .patterns(patterns)
            .shard_policy(policy)
            .build()
            .unwrap()
            .set_arc()
    }

    #[test]
    fn mirrors_per_pattern_find_ends() {
        let patterns = ["ab{2,3}c", "a{3}", "cab", "x[yz]{2}"];
        let set = set_with(&patterns, ShardPolicy::Single);
        let haystack = b"abbc.aaa.cab.xyz.abbbc";
        let mut expected: Vec<SetMatch> = Vec::new();
        for (pi, p) in patterns.iter().enumerate() {
            for end in Pattern::compile(p).unwrap().find_ends(haystack) {
                expected.push(SetMatch { pattern: pi, end });
            }
        }
        expected.sort();
        let mut got = set.find_ends(haystack);
        got.sort();
        assert_eq!(got, expected);
    }

    #[test]
    fn network_is_merged_and_valid_with_report_ids() {
        let set = set_with(&["^a{30}", "[xy]{5}z"], ShardPolicy::Single);
        assert_eq!(set.shard_count(), 1);
        assert!(
            set.network(0).validate().is_empty(),
            "{:?}",
            set.network(0).validate()
        );
        assert_eq!(set.network(0).report_ids(), vec![0, 1]);
        // Module decisions surface per pattern.
        assert_eq!(set.outputs().len(), 2);
    }

    #[test]
    fn dollar_anchor_filters_set_matches() {
        let set = set_with(&["ab$", "ab"], ShardPolicy::Single);
        let got = set.find_ends(b"ab.ab");
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
        let set = set_with(&["kk"], ShardPolicy::Single);
        let mut stream = set.stream();
        assert_eq!(stream.feed(b"....").count(), 0);
        let hits: Vec<SetMatch> = stream.feed(b"kk").collect();
        assert_eq!(hits, vec![SetMatch { pattern: 0, end: 6 }]);
        assert_eq!(stream.position(), 6);
        stream.reset();
        let hits: Vec<SetMatch> = stream.feed(b"kk").collect();
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

        // One engine or two: non-$ feed reports + finish == find_ends.
        for groups in [1, 2] {
            let set = grouped(&patterns, groups);
            assert_eq!(set.find_ends(input), expected, "{groups} groups");
            let mut stream = set.stream();
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
        let set = set_with(&["ab$", "xy"], ShardPolicy::Single);
        // Candidate at 2, but the stream continues past it.
        let mut stream = set.stream();
        assert_eq!(stream.feed(b"ab").count(), 1);
        assert_eq!(stream.feed(b"xy").count(), 1);
        assert!(stream.finish().is_empty());
        // A never-fed stream finishes empty too.
        assert!(set.stream().finish().is_empty());
    }

    #[test]
    fn hardware_simulator_attributes_reports() {
        let set = set_with(&["^ab{2}c", "xyz"], ShardPolicy::Single);
        let mut hw = set.hardware(0);
        let ends = hw.match_ends(b"abbc..xyz");
        assert_eq!(ends, vec![4, 9]);
    }

    #[test]
    fn empty_set_is_well_formed() {
        // Under any policy the empty set compiles to one empty shard.
        for policy in [ShardPolicy::Single, ShardPolicy::default()] {
            let set = set_with(&[], policy);
            assert!(set.is_empty());
            assert_eq!(set.shard_count(), 1);
            assert!(set.network(0).validate().is_empty());
            assert!(set.find_ends(b"anything").is_empty());
            assert_eq!(set.stream().feed(b"xy").count(), 0);
        }
    }

    #[test]
    fn sharded_reports_are_byte_identical_to_unsharded() {
        let patterns = ["ab{2,3}c", "a{3}", "cab", "x[yz]{2}", "k\\d{2}"];
        let single = set_with(&patterns, ShardPolicy::Single);
        assert_eq!(single.scan_groups().shard_count(), 1);
        let haystack = b"abbc.aaa.cab.xyz.k42.abbbc";
        let expected = single.find_ends(haystack);
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
            let sharded = in_scan_groups(builder, groups).set_arc();
            assert_eq!(sharded.scan_groups().shard_count(), groups);
            // No sort: the order must match too.
            assert_eq!(
                sharded.find_ends(haystack),
                expected,
                "policy {policy:?}, {groups} groups"
            );
        }
    }

    #[test]
    fn sharded_networks_carry_global_report_ids() {
        let patterns = ["^a{30}", "[xy]{5}z", "k\\d{2}"];
        let set = set_with(&patterns, ShardPolicy::Fixed(2));
        assert_eq!(set.shard_count(), 2);
        let mut all_ids = Vec::new();
        for si in 0..set.shard_count() {
            assert!(set.network(si).validate().is_empty());
            all_ids.extend(set.network(si).report_ids());
        }
        all_ids.sort();
        assert_eq!(all_ids, vec![0, 1, 2]);
    }

    #[test]
    fn sharded_stream_agrees_with_oneshot() {
        let patterns = ["ab{2,4}c", "x{3}", "q[rs]{2}t"];
        let set = grouped(&patterns, 3);
        let input = b"zabbbc_xxx_qrst_abbc_xxxx";
        let oneshot = set.find_ends(input);
        for chunk_len in [1usize, 2, 7, input.len()] {
            let mut stream = set.stream();
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
        let set = set_with(&patterns, ShardPolicy::Single);
        let spans = set.find_spans(b"zzabbc..xyz..abbbc");
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
        // Agreement with the per-pattern API.
        for (pi, p) in patterns.iter().enumerate() {
            let pattern = Pattern::compile(p).unwrap();
            let expected: Vec<MatchSpan> = pattern.find_spans(b"zzabbc..xyz..abbbc");
            let got: Vec<MatchSpan> = spans
                .iter()
                .filter(|s| s.pattern == pi)
                .map(|s| s.span())
                .collect();
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
        let set = set_with(&["kk"], ShardPolicy::Single);
        let mut stream = set.stream();
        let hits = std::thread::scope(|scope| {
            scope
                .spawn(move || stream.feed(b"..kk").count())
                .join()
                .unwrap()
        });
        assert_eq!(hits, 1);
        let debug = format!("{:?}", set.stream());
        assert!(debug.contains("1 scan groups") && debug.contains("position = 0"));
    }
}
