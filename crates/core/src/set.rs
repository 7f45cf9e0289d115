//! [`PatternSet`] / [`ShardedPatternSet`]: whole rulesets compiled into
//! shared machine images and software engines.
//!
//! The paper's evaluation operates on rulesets (Snort, Suricata,
//! Protomata, SpamAssassin, ClamAV — Table 1), and deployments of this
//! class of matcher always compile the full set into shared automata
//! scanned once per input stream. Two deployment shapes live here:
//!
//! * [`PatternSet`] — ONE merged network + ONE batched engine, the shape
//!   that fits a single CAMA bank;
//! * [`ShardedPatternSet`] — the banked shape: a
//!   [`ShardPlan`](recama_hw::ShardPlan) partitions the rules into shards
//!   whose sub-networks each fit one bank
//!   ([`ShardPolicy`](recama_hw::ShardPolicy), default = one bank's
//!   capacity), one [`MultiNca`](recama_nca::MultiNca) per shard shares a
//!   single byte-class alphabet computed once over the whole set, and
//!   [`ShardedPatternSet::find_ends`] scans the shards in parallel with
//!   scoped threads, recombining reports with an ordered merge that keeps
//!   the output **byte-identical** to the unsharded scan.
//!
//! `PatternSet` is simply the single-shard (`N = 1`) case of the sharded
//! machinery — same compile front-end, same per-pattern pipeline (parse →
//! analysis → module selection), same report semantics.

use crate::engine::{CompileError, CompilePhase};
use crate::prefilter::{ChunkAction, PrefilterMode, PrefilterState, SetPrefilter};
use crate::{Engine, MatchSpan, Pattern};
use recama_compiler::{compile, CompileOptions, CompileOutput};
use recama_hw::{RuleCost, ShardPlan, ShardPolicy};
use recama_mnrl::MnrlNetwork;
use recama_nca::{
    CompilePlan, HybridCache, HybridStats, MultiNca, MultiReport, Nca, ScanMode, ShardStream,
    ShardedMulti, StateId, TokenSetEngine,
};
use recama_syntax::{ParseError, Parsed};
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

/// The old name of the ruleset compile failure type. [`CompileError`]
/// additionally carries the failing rule's source text and the pipeline
/// phase; the `index` and `error` fields this name always had are still
/// there.
#[deprecated(
    since = "0.2.0",
    note = "use recama::CompileError (from Engine::builder)"
)]
pub type SetCompileError = CompileError;

/// A compiled ruleset partitioned into bank-sized shards: one merged
/// extended-MNRL network and one shared software automaton **per shard**,
/// with a single byte-class alphabet shared by every shard.
///
/// Mirrors [`PatternSet`]'s API at set granularity — [`compile_many`] /
/// [`find_ends`] / [`find_spans`] / [`stream`] / [`hardware`] — and its
/// report semantics exactly: for any shard plan (including the trivial
/// one), [`find_ends`] returns the same reports in the same order as the
/// unsharded [`PatternSet::find_ends`].
///
/// [`compile_many`]: ShardedPatternSet::compile_many
/// [`find_ends`]: ShardedPatternSet::find_ends
/// [`find_spans`]: ShardedPatternSet::find_spans
/// [`stream`]: ShardedPatternSet::stream
/// [`hardware`]: ShardedPatternSet::hardware
///
/// New code should reach this type through
/// [`Engine::builder`](crate::Engine::builder) (every compile knob lives
/// there); the `compile_*` constructors here are deprecated wrappers.
///
/// # Examples
///
/// ```
/// use recama::hw::ShardPolicy;
/// use recama::Engine;
///
/// let set = Engine::builder()
///     .patterns(["ab{2,3}c", "xyz", "k\\d{4}"])
///     .shard_policy(ShardPolicy::Fixed(2))
///     .build()
///     .unwrap()
///     .into_set();
/// assert_eq!(set.shard_count(), 2);
/// // Reports are identical to the unsharded PatternSet, in the same order.
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
    plan: ShardPlan,
    /// One merged machine image per shard (reporting nodes carry global
    /// pattern ids).
    networks: Vec<MnrlNetwork>,
    multi: ShardedMulti,
    /// How scans and streams walk input bytes (exact NCA vs. hybrid
    /// lazy-DFA overlay).
    scan_mode: ScanMode,
    /// Under [`ScanMode::Hybrid`], the lazily determinized rows of each
    /// shard (empty under [`ScanMode::Nca`]): one cache per shard,
    /// shared by every scan, stream and served flow of this set on any
    /// thread, and freed with the set — so an epoch of a serving handle
    /// owns its rows by pinning its `Arc<ShardedPatternSet>`.
    caches: Vec<HybridCache>,
    /// The literal prefilter (`None` under [`PrefilterMode::Off`]):
    /// per-shard Aho-Corasick filters over the shared alphabet that
    /// scans, streams, and the serving layers consult before running
    /// the automata.
    prefilter: Option<SetPrefilter>,
    /// Reversed automata for span location, built per pattern on first
    /// use (repeated `find_spans` calls must not re-run Glushkov).
    reversed: Vec<OnceLock<Nca>>,
}

impl ShardedPatternSet {
    /// Compiles all `patterns` with default options under the default
    /// policy (one CAMA bank per shard).
    ///
    /// # Errors
    ///
    /// Fails on the first pattern that does not parse (or is outside the
    /// supported fragment), identifying its index. Use
    /// [`ShardedPatternSet::compile_filtered`] to skip bad patterns.
    #[deprecated(since = "0.2.0", note = "use Engine::builder().patterns(..).build()")]
    pub fn compile_many<S: AsRef<str>>(patterns: &[S]) -> Result<ShardedPatternSet, CompileError> {
        Engine::builder()
            .patterns(patterns)
            .build()
            .map(Engine::into_set)
    }

    /// Compiles all `patterns` with explicit [`CompileOptions`] and
    /// [`ShardPolicy`].
    ///
    /// # Errors
    ///
    /// Same as [`ShardedPatternSet::compile_many`].
    #[deprecated(
        since = "0.2.0",
        note = "use Engine::builder().patterns(..).options(..).shard_policy(..).build()"
    )]
    pub fn compile_many_with<S: AsRef<str>>(
        patterns: &[S],
        options: &CompileOptions,
        policy: ShardPolicy,
    ) -> Result<ShardedPatternSet, CompileError> {
        Engine::builder()
            .patterns(patterns)
            .options(*options)
            .shard_policy(policy)
            .build()
            .map(Engine::into_set)
    }

    /// Compiles the parseable subset of `patterns`, returning the set and
    /// the rejected `(index, error)` pairs — the tolerant entry point for
    /// real rulesets, which always contain out-of-fragment rules
    /// (Table 1's unsupported rows).
    #[deprecated(
        since = "0.2.0",
        note = "use Engine::builder().lossy(true) and Engine::skipped()"
    )]
    pub fn compile_filtered<S: AsRef<str>>(
        patterns: &[S],
        options: &CompileOptions,
        policy: ShardPolicy,
    ) -> (ShardedPatternSet, Vec<(usize, ParseError)>) {
        let engine = Engine::builder()
            .patterns(patterns)
            .options(*options)
            .shard_policy(policy)
            .lossy(true)
            .build()
            .expect("lossy builds are infallible");
        let rejected = engine
            .skipped()
            .iter()
            .map(|s| (s.index, s.error.clone()))
            .collect();
        (engine.into_set(), rejected)
    }

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

        // Bank-aware partition, costed with the mapper's own estimates.
        // The trivial policy never looks at costs, so skip the per-rule
        // placements there (PatternSet compiles route through it).
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

        // One shared automaton per shard over a single union alphabet.
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
        let multi = ShardedMulti::merge(&parts, plan.shards());
        let caches = match scan_mode {
            ScanMode::Nca => Vec::new(),
            ScanMode::Hybrid { state_budget } => multi.hybrid_caches(state_budget),
        };

        // Required-literal extraction over the raw rule ASTs, one AC
        // filter per shard, over the same alphabet the engines index
        // with (singleton predicates get singleton classes, so the
        // class-indexed filter is exact on extracted literals).
        let prefilter = match prefilter_mode {
            PrefilterMode::On => Some(SetPrefilter::build(
                &parsed_list,
                plan.shards(),
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

    /// Number of shards (≥ 1; the empty set compiles to one empty shard).
    pub fn shard_count(&self) -> usize {
        self.networks.len()
    }

    /// The shard plan (which pattern lives in which shard).
    pub fn plan(&self) -> &ShardPlan {
        &self.plan
    }

    /// Global pattern indices of shard `shard`, ascending.
    pub fn shard_members(&self, shard: usize) -> &[usize] {
        self.plan.members(shard)
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

    /// The sharded automata (one merged `MultiNca` per shard, shared
    /// byte-class alphabet).
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
    pub fn prefilter_mode(&self) -> PrefilterMode {
        if self.prefilter.is_some() {
            PrefilterMode::On
        } else {
            PrefilterMode::Off
        }
    }

    /// Number of rules with no usable required literal (their shards
    /// scan every byte). 0 under [`PrefilterMode::Off`].
    pub fn always_on_rules(&self) -> usize {
        self.prefilter
            .as_ref()
            .map_or(0, SetPrefilter::always_on_rules)
    }

    /// The compiled literal prefilter, if the set was built with one.
    pub(crate) fn prefilter(&self) -> Option<&SetPrefilter> {
        self.prefilter.as_ref()
    }

    /// A fresh [`ShardStream`] over `shard` in this set's [`ScanMode`] —
    /// the unit the flow scheduler checks out. A hybrid stream scans on
    /// the shard's shared rows.
    pub(crate) fn shard_stream(&self, shard: usize) -> ShardStream<'_> {
        match self.caches.get(shard) {
            Some(cache) => self.multi.shard_stream_on(shard, cache),
            None => self.multi.shard_stream(shard),
        }
    }

    /// One [`ShardedPatternSet::shard_stream`] per shard.
    pub(crate) fn shard_streams(&self) -> Vec<ShardStream<'_>> {
        (0..self.multi.shard_count())
            .map(|shard| self.shard_stream(shard))
            .collect()
    }

    /// One detached [`ShardStreamState`] per shard — the owned form a
    /// `'static` flow table parks between scans (see
    /// [`ServiceHandle`](crate::ServiceHandle)).
    pub(crate) fn shard_stream_states(&self) -> Vec<recama_nca::ShardStreamState> {
        self.shard_streams()
            .into_iter()
            .map(ShardStream::into_state)
            .collect()
    }

    /// The shard caches' half of the hybrid counters — `dfa_states` and
    /// `flushes` summed over this set's shards, each cache once (all
    /// zero under [`ScanMode::Nca`]).
    pub(crate) fn hybrid_cache_stats(&self) -> HybridStats {
        let mut total = HybridStats::default();
        for cache in &self.caches {
            total.merge(&cache.stats());
        }
        total
    }

    /// Reattaches a detached per-shard scan state to this set's automata
    /// (the inverse of [`ShardStream::into_state`]).
    pub(crate) fn resume_shard_stream(
        &self,
        state: recama_nca::ShardStreamState,
    ) -> ShardStream<'_> {
        self.multi.resume_shard_stream(state)
    }

    /// All matches in `haystack`, in stream order (ascending end offset,
    /// ascending pattern within one offset) — byte-identical to
    /// [`PatternSet::find_ends`] on the same patterns, for any shard
    /// plan. Large haystacks are scanned one scoped thread per shard;
    /// small ones sequentially (thread spawn would cost more than the
    /// scan).
    ///
    /// Semantics per pattern match [`Pattern::find_ends`]: search form
    /// `Σ*·r` unless `^`-anchored, one report per (pattern, end), and a
    /// trailing `$` keeps only that pattern's matches ending at the end
    /// of the haystack.
    pub fn find_ends(&self, haystack: &[u8]) -> Vec<SetMatch> {
        let n = self.multi.shard_count();
        if n <= 1 {
            return self.scan_shard(0, haystack);
        }
        let per_shard: Vec<Vec<SetMatch>> = if haystack.len() >= PARALLEL_MIN_BYTES {
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..n)
                    .map(|si| scope.spawn(move || self.scan_shard(si, haystack)))
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("shard scan panicked"))
                    .collect()
            })
        } else {
            (0..n).map(|si| self.scan_shard(si, haystack)).collect()
        };
        let mut out = Vec::with_capacity(per_shard.iter().map(|v| v.len()).sum());
        merge_ordered_by(&per_shard, |_, m| m, &mut out);
        out
    }

    /// Scans one shard sequentially on a fresh stream of the shard (in
    /// hybrid mode: on the shard's shared, possibly warm rows) and
    /// applies the `$`-anchor filter. The stream emits reports sorted by
    /// `(end, global pattern)`.
    fn scan_shard(&self, shard: usize, haystack: &[u8]) -> Vec<SetMatch> {
        // Block-mode prefilter gate: a match is contained in the
        // haystack, so a haystack without any required literal cannot
        // contain one.
        if let Some(filter) = self.prefilter.as_ref().and_then(|p| p.shard(shard)) {
            let alphabet = self.prefilter.as_ref().expect("checked above").alphabet();
            if !filter.contains(alphabet, haystack) {
                return Vec::new();
            }
        }
        let mut reports = Vec::new();
        self.shard_stream(shard).feed_into(haystack, &mut reports);
        reports
            .into_iter()
            .map(|r| SetMatch {
                pattern: r.pattern as usize,
                end: r.end as usize,
            })
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
    /// in [`Pattern::find_spans`]. Reversed automata are built lazily per
    /// pattern and cached for the set's lifetime.
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
                    start: crate::earliest_start(engine, haystack, m.end),
                    end: m.end,
                }
            })
            .collect()
    }

    /// The reversed automaton of pattern `i`, built on first use.
    fn reversed_nca(&self, i: usize) -> &Nca {
        self.reversed[i].get_or_init(|| Nca::from_regex(&self.parsed[i].regex.reverse()))
    }

    /// A resumable streaming matcher holding one engine state per shard:
    /// feed traffic in chunks and drain reports incrementally, without
    /// re-scanning previous chunks. Large chunks are fanned out to the
    /// shard engines on scoped threads.
    ///
    /// Note that a stream has no "end" until [`finish`] declares one, so
    /// trailing-`$` anchors are not applied during [`feed`]: `$`-anchored
    /// patterns report every candidate end offset (same contract as
    /// [`PatternSet::stream`]). Call [`finish`] at end-of-stream to learn
    /// which `$`-anchored matches actually end on the final byte.
    ///
    /// [`feed`]: ShardedSetStream::feed
    /// [`finish`]: ShardedSetStream::finish
    pub fn stream(&self) -> ShardedSetStream<'_> {
        ShardedSetStream {
            shards: self.shard_streams(),
            bufs: vec![Vec::new(); self.multi.shard_count()],
            merged: Vec::new(),
            dollar: DollarTracker::new(&self.anchored_end),
            prefilter: self.prefilter.as_ref(),
            pre: vec![PrefilterState::default(); self.multi.shard_count()],
            tail: Vec::new(),
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

/// Merges per-shard report lists into one list sorted by `(end,
/// pattern)` — the order the unsharded engine emits. `translate` maps a
/// shard-local entry to its global report; translated lists must arrive
/// already sorted by `(end, pattern)` (guaranteed by
/// [`MultiEngine`](recama_nca::MultiEngine)'s within-step ordering
/// contract plus ascending shard members).
fn merge_ordered_by<T: Copy>(
    per_shard: &[Vec<T>],
    translate: impl Fn(usize, T) -> SetMatch,
    out: &mut Vec<SetMatch>,
) {
    debug_assert!(
        per_shard.iter().enumerate().all(|(si, reports)| {
            reports.windows(2).all(|w| {
                let (a, b) = (translate(si, w[0]), translate(si, w[1]));
                (a.end, a.pattern) < (b.end, b.pattern)
            })
        }),
        "per-shard reports must arrive sorted by (end, pattern) — \
         see MultiEngine::step_into's ordering contract"
    );
    let total: usize = per_shard.iter().map(|v| v.len()).sum();
    let mut cursors = vec![0usize; per_shard.len()];
    for _ in 0..total {
        let mut best: Option<(usize, SetMatch)> = None;
        for (si, reports) in per_shard.iter().enumerate() {
            if let Some(&r) = reports.get(cursors[si]) {
                let m = translate(si, r);
                if best.is_none_or(|(_, b)| (m.end, m.pattern) < (b.end, b.pattern)) {
                    best = Some((si, m));
                }
            }
        }
        let (si, m) = best.expect("total counted a remaining report");
        out.push(m);
        cursors[si] += 1;
    }
}

/// Tracks the last candidate end per trailing-`$` pattern. Streams (and
/// the flow scheduler) report every candidate end of a `$`-anchored
/// pattern because mid-stream the end is unknown; this records the most
/// recent one so declaring end-of-stream can resolve which candidates
/// actually land on the final byte. State lives across feeds —
/// including zero-byte ones — so a candidate two chunks old still
/// finishes correctly when the stream ends on an empty chunk.
#[derive(Debug)]
pub(crate) struct DollarTracker<'a> {
    /// Trailing-`$` flags per (global) pattern.
    anchored_end: &'a [bool],
    last: HashMap<usize, u64>,
}

impl<'a> DollarTracker<'a> {
    pub(crate) fn new(anchored_end: &'a [bool]) -> DollarTracker<'a> {
        DollarTracker {
            anchored_end,
            last: HashMap::new(),
        }
    }

    /// Records a reported candidate `(pattern, end)`; non-`$` patterns
    /// are ignored.
    pub(crate) fn observe(&mut self, pattern: usize, end: u64) {
        if self.anchored_end[pattern] {
            self.last.insert(pattern, end);
        }
    }

    /// The finishing set for a stream ending at `position`: `$`-anchored
    /// matches whose last candidate ends exactly there, sorted by
    /// pattern — what a one-shot `find_ends` would have kept of them.
    pub(crate) fn finish(&self, position: u64) -> Vec<SetMatch> {
        let mut out: Vec<SetMatch> = self
            .last
            .iter()
            .filter(|&(_, &end)| end == position)
            .map(|(&pattern, &end)| SetMatch {
                pattern,
                end: end as usize,
            })
            .collect();
        out.sort();
        out
    }

    pub(crate) fn clear(&mut self) {
        self.last.clear();
    }
}

/// A resumable chunk-at-a-time matcher over a [`ShardedPatternSet`] (one
/// [`ShardStream`] per shard); create one with
/// [`ShardedPatternSet::stream`]. The stream is `Send`, so per-flow
/// states can move onto worker threads — and its per-shard states are
/// individually detachable ([`ShardedMulti::shard_stream`]), which is
/// what [`FlowScheduler`](crate::sched::FlowScheduler) builds on to let
/// two workers advance different shards of the same flow.
pub struct ShardedSetStream<'a> {
    shards: Vec<ShardStream<'a>>,
    bufs: Vec<Vec<MultiReport>>,
    merged: Vec<SetMatch>,
    dollar: DollarTracker<'a>,
    /// The set's literal prefilter (`None` under
    /// [`PrefilterMode`](crate::PrefilterMode)`::Off`): cold shards
    /// skip the engines entirely until a literal candidate appears.
    prefilter: Option<&'a SetPrefilter>,
    /// Per-shard streaming filter state (AC node + sticky hot flag).
    pre: Vec<PrefilterState>,
    /// Last `window` bytes fed, for cold→hot wake-up replay.
    tail: Vec<u8>,
}

/// Inputs at least this large are fanned out to shard engines on scoped
/// threads; smaller ones are processed sequentially (thread spawn would
/// cost more than the scan).
const PARALLEL_MIN_BYTES: usize = 4096;

impl ShardedSetStream<'_> {
    /// Consumes `chunk` and returns the matches it completed, in stream
    /// order. End offsets are 1-based and *absolute* (counted from the
    /// start of the stream, across all chunks fed so far).
    pub fn feed(&mut self, chunk: &[u8]) -> impl Iterator<Item = SetMatch> + '_ {
        let chunk_start = self.position();
        // Consult the prefilter per shard before any engine runs. Cold
        // shards skip the scan (their engines stay fresh and teleport
        // via restart_at); a first candidate wakes the shard with a
        // bounded tail replay. Empty chunks scan (a no-op) so the
        // filter state never advances past bytes that were never fed.
        let actions: Vec<ChunkAction> = match self.prefilter {
            Some(pf) if !chunk.is_empty() => self
                .pre
                .iter_mut()
                .enumerate()
                .map(|(si, st)| pf.chunk_action(si, st, chunk, chunk_start, 0))
                .collect(),
            _ => vec![ChunkAction::Scan; self.shards.len()],
        };
        let tail = &self.tail;
        let run = |shard: &mut ShardStream<'_>, buf: &mut Vec<MultiReport>, action: ChunkAction| {
            buf.clear();
            match action {
                ChunkAction::Scan => shard.feed_into(chunk, buf),
                ChunkAction::Skip => shard.restart_at(chunk_start + chunk.len() as u64),
                ChunkAction::Wake { replay_start } => {
                    shard.restart_at(replay_start);
                    let need = (chunk_start - replay_start) as usize;
                    if need > 0 {
                        shard.feed_into(&tail[tail.len() - need..], buf);
                    }
                    shard.feed_into(chunk, buf);
                }
            }
        };
        if self.shards.len() > 1 && chunk.len() >= PARALLEL_MIN_BYTES {
            std::thread::scope(|scope| {
                let run = &run;
                for ((shard, buf), action) in self
                    .shards
                    .iter_mut()
                    .zip(self.bufs.iter_mut())
                    .zip(actions.iter().copied())
                {
                    scope.spawn(move || run(shard, buf, action));
                }
            });
        } else {
            for ((shard, buf), action) in self
                .shards
                .iter_mut()
                .zip(self.bufs.iter_mut())
                .zip(actions.iter().copied())
            {
                run(shard, buf, action);
            }
        }
        if let Some(pf) = self.prefilter {
            pf.extend_tail(&mut self.tail, chunk);
        }
        self.merged.clear();
        merge_ordered_by(
            &self.bufs,
            |_, r: MultiReport| SetMatch {
                pattern: r.pattern as usize,
                end: r.end as usize,
            },
            &mut self.merged,
        );
        for m in &self.merged {
            self.dollar.observe(m.pattern, m.end as u64);
        }
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
        self.dollar.finish(self.position())
    }

    /// Number of shard engines this stream advances in lockstep.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Total bytes consumed since creation (or the last reset).
    pub fn position(&self) -> u64 {
        self.shards.first().map(|s| s.position()).unwrap_or(0)
    }

    /// Restarts the stream at position 0.
    pub fn reset(&mut self) {
        for shard in &mut self.shards {
            shard.reset();
        }
        for st in &mut self.pre {
            st.reset();
        }
        self.tail.clear();
        self.dollar.clear();
    }
}

impl fmt::Debug for ShardedSetStream<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ShardedSetStream({} shards, position = {})",
            self.shard_count(),
            self.position()
        )
    }
}

/// A compiled ruleset: one merged extended-MNRL network and one shared
/// software engine for the entire set — the single-shard (`N = 1`) case
/// of [`ShardedPatternSet`], which it wraps.
///
/// Mirrors [`Pattern`]'s API at set granularity: [`compile_many`] /
/// [`find_ends`] / [`stream`] / [`network`] / [`hardware`].
///
/// [`compile_many`]: PatternSet::compile_many
/// [`find_ends`]: PatternSet::find_ends
/// [`stream`]: PatternSet::stream
/// [`network`]: PatternSet::network
/// [`hardware`]: PatternSet::hardware
///
/// New code should use [`Engine::builder`](crate::Engine::builder) with
/// [`ShardPolicy::Single`](recama_hw::ShardPolicy::Single); the
/// `compile_*` constructors here are deprecated wrappers.
///
/// # Examples
///
/// ```
/// # #![allow(deprecated)]
/// use recama::PatternSet;
///
/// let set = PatternSet::compile_many(&["ab{2,3}c", "xyz", "k\\d{4}"]).unwrap();
/// let matches = set.find_ends(b"zabbc..xyz..k1234");
/// let hits: Vec<(usize, usize)> = matches.iter().map(|m| (m.pattern, m.end)).collect();
/// assert_eq!(hits, vec![(0, 5), (1, 10), (2, 17)]);
/// // One merged network with per-pattern report ids:
/// assert_eq!(set.network().report_ids(), vec![0, 1, 2]);
/// ```
#[derive(Debug)]
pub struct PatternSet {
    inner: ShardedPatternSet,
}

impl PatternSet {
    /// Compiles all `patterns` with default options.
    ///
    /// # Errors
    ///
    /// Fails on the first pattern that does not parse (or is outside the
    /// supported fragment), identifying its index. Use
    /// [`PatternSet::compile_filtered`] to skip bad patterns instead.
    #[deprecated(
        since = "0.2.0",
        note = "use Engine::builder().patterns(..).shard_policy(ShardPolicy::Single).build()"
    )]
    pub fn compile_many<S: AsRef<str>>(patterns: &[S]) -> Result<PatternSet, CompileError> {
        Engine::builder()
            .patterns(patterns)
            .shard_policy(ShardPolicy::Single)
            .build()
            .map(|e| PatternSet {
                inner: e.into_set(),
            })
    }

    /// Compiles all `patterns` with explicit [`CompileOptions`].
    ///
    /// # Errors
    ///
    /// Same as [`PatternSet::compile_many`].
    #[deprecated(
        since = "0.2.0",
        note = "use Engine::builder().patterns(..).options(..).shard_policy(ShardPolicy::Single).build()"
    )]
    pub fn compile_many_with<S: AsRef<str>>(
        patterns: &[S],
        options: &CompileOptions,
    ) -> Result<PatternSet, CompileError> {
        Engine::builder()
            .patterns(patterns)
            .options(*options)
            .shard_policy(ShardPolicy::Single)
            .build()
            .map(|e| PatternSet {
                inner: e.into_set(),
            })
    }

    /// Compiles the parseable subset of `patterns`, returning the set and
    /// the rejected `(index, error)` pairs — the tolerant entry point for
    /// real rulesets, which always contain out-of-fragment rules
    /// (Table 1's unsupported rows).
    #[deprecated(
        since = "0.2.0",
        note = "use Engine::builder().lossy(true) and Engine::skipped()"
    )]
    pub fn compile_filtered<S: AsRef<str>>(
        patterns: &[S],
        options: &CompileOptions,
    ) -> (PatternSet, Vec<(usize, ParseError)>) {
        let engine = Engine::builder()
            .patterns(patterns)
            .options(*options)
            .shard_policy(ShardPolicy::Single)
            .lossy(true)
            .build()
            .expect("lossy builds are infallible");
        let rejected = engine
            .skipped()
            .iter()
            .map(|s| (s.index, s.error.clone()))
            .collect();
        (
            PatternSet {
                inner: engine.into_set(),
            },
            rejected,
        )
    }

    /// Number of compiled patterns.
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    /// The source text of pattern `i`.
    pub fn pattern(&self, i: usize) -> &str {
        self.inner.pattern(i)
    }

    /// Per-pattern compiler outputs (module decisions, analyses, NCAs),
    /// indexed like the patterns.
    pub fn outputs(&self) -> &[CompileOutput] {
        self.inner.outputs()
    }

    /// The merged extended-MNRL network for the whole set. Reporting
    /// nodes of pattern `i` carry `report_id = i`.
    pub fn network(&self) -> &MnrlNetwork {
        self.inner.network(0)
    }

    /// The merged shared automaton (one `q0`, shared byte-class
    /// alphabet, per-pattern state ranges).
    pub fn multi(&self) -> &MultiNca {
        self.inner.multi().shard(0)
    }

    /// The sharded view of this set (a single shard holding every
    /// pattern).
    pub fn sharded(&self) -> &ShardedPatternSet {
        &self.inner
    }

    /// All matches in `haystack`, in stream order (ascending end offset).
    ///
    /// Semantics per pattern match [`Pattern::find_ends`]: search form
    /// `Σ*·r` unless `^`-anchored, one report per (pattern, end), and a
    /// trailing `$` keeps only that pattern's matches ending at the end
    /// of the haystack.
    pub fn find_ends(&self, haystack: &[u8]) -> Vec<SetMatch> {
        self.inner.find_ends(haystack)
    }

    /// Whether any pattern matches in `haystack`.
    pub fn is_match(&self, haystack: &[u8]) -> bool {
        self.inner.is_match(haystack)
    }

    /// Locates full match spans per pattern — the set-level analogue of
    /// [`Pattern::find_spans`], reusing cached reversed automata.
    ///
    /// # Examples
    ///
    /// ```
    /// # #![allow(deprecated)]
    /// use recama::{PatternSet, SetSpan};
    ///
    /// let set = PatternSet::compile_many(&["ab{2,3}c", "xyz"]).unwrap();
    /// let spans = set.find_spans(b"zzabbc.xyz");
    /// assert_eq!(
    ///     spans,
    ///     vec![
    ///         SetSpan { pattern: 0, start: 2, end: 6 },
    ///         SetSpan { pattern: 1, start: 7, end: 10 },
    ///     ]
    /// );
    /// ```
    pub fn find_spans(&self, haystack: &[u8]) -> Vec<SetSpan> {
        self.inner.find_spans(haystack)
    }

    /// A resumable streaming matcher: feed traffic in chunks and drain
    /// reports incrementally, without re-scanning previous chunks.
    ///
    /// Note that a stream has no "end", so trailing-`$` anchors are not
    /// applied: `$`-anchored patterns report every candidate end offset.
    ///
    /// # Examples
    ///
    /// ```
    /// # #![allow(deprecated)]
    /// use recama::PatternSet;
    ///
    /// let set = PatternSet::compile_many(&["ab{2}c"]).unwrap();
    /// let mut stream = set.stream();
    /// // The match straddles the chunk boundary.
    /// assert!(stream.feed(b"..ab").next().is_none());
    /// let hits: Vec<_> = stream.feed(b"bc..").collect();
    /// assert_eq!(hits.len(), 1);
    /// assert_eq!((hits[0].pattern, hits[0].end), (0, 6));
    /// ```
    pub fn stream(&self) -> SetStream<'_> {
        SetStream {
            engine: self.inner.shard_stream(0),
            buf: Vec::new(),
            dollar: DollarTracker::new(self.inner.anchored_end()),
            prefilter: self.inner.prefilter(),
            pre: PrefilterState::default(),
            tail: Vec::new(),
        }
    }

    /// A hardware simulator for the merged network; its report vector
    /// attributes events to patterns via the stamped report ids.
    pub fn hardware(&self) -> recama_hw::HwSimulator<'_> {
        self.inner.hardware(0)
    }
}

/// A resumable chunk-at-a-time matcher over a [`PatternSet`]; create one
/// with [`PatternSet::stream`]. The stream is `Send`, so per-flow engine
/// states can move onto worker threads.
pub struct SetStream<'a> {
    engine: ShardStream<'a>,
    buf: Vec<recama_nca::MultiReport>,
    dollar: DollarTracker<'a>,
    /// The set's literal prefilter (`None` under
    /// [`PrefilterMode`](crate::PrefilterMode)`::Off`).
    prefilter: Option<&'a SetPrefilter>,
    /// Streaming filter state of the single shard.
    pre: PrefilterState,
    /// Last `window` bytes fed, for cold→hot wake-up replay.
    tail: Vec<u8>,
}

impl SetStream<'_> {
    /// Consumes `chunk` and returns the matches it completed, in stream
    /// order. End offsets are 1-based and *absolute* (counted from the
    /// start of the stream, across all chunks fed so far).
    pub fn feed(&mut self, chunk: &[u8]) -> impl Iterator<Item = SetMatch> + '_ {
        let chunk_start = self.engine.position();
        let action = match self.prefilter {
            Some(pf) if !chunk.is_empty() => {
                pf.chunk_action(0, &mut self.pre, chunk, chunk_start, 0)
            }
            _ => ChunkAction::Scan,
        };
        self.buf.clear();
        match action {
            ChunkAction::Scan => self.engine.feed_into(chunk, &mut self.buf),
            ChunkAction::Skip => self.engine.restart_at(chunk_start + chunk.len() as u64),
            ChunkAction::Wake { replay_start } => {
                self.engine.restart_at(replay_start);
                let need = (chunk_start - replay_start) as usize;
                if need > 0 {
                    let from = self.tail.len() - need;
                    self.engine.feed_into(&self.tail[from..], &mut self.buf);
                }
                self.engine.feed_into(chunk, &mut self.buf);
            }
        }
        if let Some(pf) = self.prefilter {
            pf.extend_tail(&mut self.tail, chunk);
        }
        for r in &self.buf {
            self.dollar.observe(r.pattern as usize, r.end);
        }
        self.buf.iter().map(|r| SetMatch {
            pattern: r.pattern as usize,
            end: r.end as usize,
        })
    }

    /// Declares end-of-stream and returns the `$`-anchored matches that
    /// end exactly at the final byte — same contract as
    /// [`ShardedSetStream::finish`].
    pub fn finish(self) -> Vec<SetMatch> {
        self.dollar.finish(self.engine.position())
    }

    /// Total bytes consumed since creation (or the last reset).
    pub fn position(&self) -> u64 {
        self.engine.position()
    }

    /// Restarts the stream at position 0.
    pub fn reset(&mut self) {
        self.engine.reset();
        self.pre.reset();
        self.tail.clear();
        self.dollar.clear();
    }
}

impl fmt::Debug for SetStream<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SetStream(position = {})", self.position())
    }
}

/// [`Pattern`]-compatibility helpers on the set.
impl PatternSet {
    /// Compiles each pattern independently (the loop-over-patterns
    /// baseline the shared engine is benchmarked against).
    ///
    /// # Errors
    ///
    /// Fails like [`PatternSet::compile_many`] on the first bad pattern.
    pub fn compile_baseline<S: AsRef<str>>(patterns: &[S]) -> Result<Vec<Pattern>, CompileError> {
        patterns
            .iter()
            .enumerate()
            .map(|(index, p)| {
                Pattern::compile(p.as_ref()).map_err(|error| CompileError {
                    index,
                    pattern: p.as_ref().to_string(),
                    phase: CompilePhase::Parse,
                    error,
                })
            })
            .collect()
    }
}

// The deprecated wrappers stay covered on purpose: their contract is
// byte-identical delegation to the builder.
#[allow(deprecated)]
#[cfg(test)]
mod tests {
    use super::*;
    use recama_hw::ShardBudget;

    #[test]
    fn mirrors_per_pattern_find_ends() {
        let patterns = ["ab{2,3}c", "a{3}", "cab", "x[yz]{2}"];
        let set = PatternSet::compile_many(&patterns).unwrap();
        let baseline = PatternSet::compile_baseline(&patterns).unwrap();
        let haystack = b"abbc.aaa.cab.xyz.abbbc";
        let mut expected: Vec<SetMatch> = Vec::new();
        for (pi, p) in baseline.iter().enumerate() {
            for end in p.find_ends(haystack) {
                expected.push(SetMatch { pattern: pi, end });
            }
        }
        expected.sort();
        let mut got = set.find_ends(haystack);
        got.sort();
        assert_eq!(got, expected);
    }

    #[test]
    fn compile_many_reports_offending_index() {
        let err = PatternSet::compile_many(&["ok", "bad(", "ok2"]).unwrap_err();
        assert_eq!(err.index, 1);
        assert!(err.to_string().contains("#1"));
    }

    #[test]
    fn compile_filtered_skips_bad_patterns() {
        let (set, rejected) =
            PatternSet::compile_filtered(&["a{2}", r"(x)\1", "b{3}"], &CompileOptions::default());
        assert_eq!(set.len(), 2);
        assert_eq!(rejected.len(), 1);
        assert_eq!(rejected[0].0, 1);
        assert!(set.is_match(b"bbb"));
    }

    #[test]
    fn network_is_merged_and_valid_with_report_ids() {
        let set = PatternSet::compile_many(&["^a{30}", "[xy]{5}z"]).unwrap();
        assert!(
            set.network().validate().is_empty(),
            "{:?}",
            set.network().validate()
        );
        assert_eq!(set.network().report_ids(), vec![0, 1]);
        // Module decisions surface per pattern.
        assert_eq!(set.outputs().len(), 2);
    }

    #[test]
    fn dollar_anchor_filters_set_matches() {
        let set = PatternSet::compile_many(&["ab$", "ab"]).unwrap();
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
        let set = PatternSet::compile_many(&["kk"]).unwrap();
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
        let single = PatternSet::compile_many(&patterns).unwrap();
        let expected = single.find_ends(input); // the $-filtered one-shot scan

        // Unsharded stream: non-$ feed reports + finish == find_ends.
        let mut stream = single.stream();
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
        assert_eq!(got, expected);

        // Sharded stream, same chunking, same contract.
        let sharded = ShardedPatternSet::compile_many_with(
            &patterns,
            &CompileOptions::default(),
            ShardPolicy::Fixed(2),
        )
        .unwrap();
        let mut stream = sharded.stream();
        let mut got = Vec::new();
        for chunk in [&b"ab"[..], b".c", b"d", b""] {
            got.extend(
                stream
                    .feed(chunk)
                    .filter(|m| !["ab$", "cd$"].contains(&patterns[m.pattern])),
            );
        }
        got.extend(stream.finish());
        got.sort();
        assert_eq!(got, expected);
    }

    #[test]
    fn stream_finish_is_empty_when_no_dollar_match_ends_the_stream() {
        let set = PatternSet::compile_many(&["ab$", "xy"]).unwrap();
        // Candidate at 2, but the stream continues past it.
        let mut stream = set.stream();
        assert_eq!(stream.feed(b"ab").count(), 1);
        assert_eq!(stream.feed(b"xy").count(), 1);
        assert!(stream.finish().is_empty());
        // A never-fed stream finishes empty too.
        assert!(set.stream().finish().is_empty());
        assert!(set.sharded().stream().finish().is_empty());
    }

    #[test]
    fn hardware_simulator_attributes_reports() {
        let set = PatternSet::compile_many(&["^ab{2}c", "xyz"]).unwrap();
        let mut hw = set.hardware();
        let ends = hw.match_ends(b"abbc..xyz");
        assert_eq!(ends, vec![4, 9]);
    }

    #[test]
    fn empty_set_is_well_formed() {
        let set = PatternSet::compile_many::<&str>(&[]).unwrap();
        assert!(set.is_empty());
        assert!(set.find_ends(b"anything").is_empty());
        assert!(set.network().validate().is_empty());
        // The sharded view compiles to one empty shard.
        assert_eq!(set.sharded().shard_count(), 1);
        let sharded = ShardedPatternSet::compile_many::<&str>(&[]).unwrap();
        assert!(sharded.find_ends(b"anything").is_empty());
        assert_eq!(sharded.stream().feed(b"xy").count(), 0);
    }

    #[test]
    fn sharded_reports_are_byte_identical_to_unsharded() {
        let patterns = ["ab{2,3}c", "a{3}", "cab", "x[yz]{2}", "k\\d{2}"];
        let single = PatternSet::compile_many(&patterns).unwrap();
        let haystack = b"abbc.aaa.cab.xyz.k42.abbbc";
        let expected = single.find_ends(haystack);
        for policy in [
            ShardPolicy::Single,
            ShardPolicy::Fixed(2),
            ShardPolicy::Fixed(3),
            ShardPolicy::Fixed(5),
            ShardPolicy::Banked(ShardBudget {
                columns: 4,
                counters: 8,
                bitvector_bits: 2000,
            }),
        ] {
            let sharded =
                ShardedPatternSet::compile_many_with(&patterns, &CompileOptions::default(), policy)
                    .unwrap();
            // No sort: the order must match too.
            assert_eq!(sharded.find_ends(haystack), expected, "policy {policy:?}");
        }
    }

    #[test]
    fn sharded_networks_carry_global_report_ids() {
        let patterns = ["^a{30}", "[xy]{5}z", "k\\d{2}"];
        let set = ShardedPatternSet::compile_many_with(
            &patterns,
            &CompileOptions::default(),
            ShardPolicy::Fixed(2),
        )
        .unwrap();
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
        let set = ShardedPatternSet::compile_many_with(
            &patterns,
            &CompileOptions::default(),
            ShardPolicy::Fixed(3),
        )
        .unwrap();
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
        let set = PatternSet::compile_many(&patterns).unwrap();
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
        assert_send::<SetStream<'static>>();
        assert_send::<ShardedSetStream<'static>>();
        assert_send::<SetMatch>();
        assert_send::<SetSpan>();
        assert_send::<ShardedPatternSet>();
        assert_send::<PatternSet>();

        // Engines really do move onto worker threads.
        let set = PatternSet::compile_many(&["kk"]).unwrap();
        let mut stream = set.stream();
        let hits = std::thread::scope(|scope| {
            scope
                .spawn(move || stream.feed(b"..kk").count())
                .join()
                .unwrap()
        });
        assert_eq!(hits, 1);
        assert!(format!("{:?}", set.stream()).contains("position = 0"));
        assert!(format!("{:?}", set.sharded().stream()).contains("1 shards"));
    }
}
