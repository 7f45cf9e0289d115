//! [`Engine`]: the one builder-based facade over compile, scan, stream,
//! and flow serving.
//!
//! The paper's pipeline is a single conceptual object — regexes in, a
//! CAMA-mapped multi-pattern machine out — and this module gives it a
//! single API shape, mirroring the design that scaled for software
//! matchers (Hyperscan's `hs_compile_multi` + scratch/stream handles):
//! one compile-time builder, one compiled artifact, cheap per-use
//! handles.
//!
//! * [`Engine::builder`] collects rules (with optional per-rule ids), a
//!   [`ShardPolicy`], [`CompileOptions`], the scan and prefilter modes;
//! * [`EngineBuilder::build`] compiles everything into an [`Engine`] —
//!   or a structured [`CompileError`] naming the failing rule's index
//!   and source text;
//! * the `Engine` then hands out the per-use handles:
//!   [`scan`](Engine::scan) / [`scan_spans`](Engine::scan_spans) for
//!   block mode, [`stream`](Engine::stream) for one resumable flow,
//!   [`scheduler_with`](Engine::scheduler_with) for batch many-flow
//!   scanning, and [`serve_with`](Engine::serve_with) for long-lived
//!   serving with backpressure and idle-flow eviction — two drivers
//!   over one serving core, each given its worker count (and the
//!   service its [`ServeConfig`]) where it is started.
//!
//! The builder is the only way to compile a ruleset, in one loop: parse
//! every rule (strictly, or skipping failures under
//! [`EngineBuilder::lossy`]), [`compile`] each, cut the bank plan and
//! merge each shard's machine image, then build the scan half from the
//! per-rule outputs. One merged machine image is [`ShardPolicy::Single`].
//! The `Engine` keeps the compile-time half — rule texts, parsed rules,
//! per-rule outputs, machine images, the span automata — and the
//! [`ShardedPatternSet`] it shares with its streams and serving epochs
//! holds only what a flow scans.

use crate::prefilter::PrefilterMode;
#[cfg(feature = "fault-inject")]
use crate::service::FaultPlan;
use crate::service::ServiceHandle;
use crate::set::{SetMatch, SetSpan, ShardedPatternSet, ShardedSetStream};
use crate::FlowScheduler;
use recama_compiler::{compile, merge_rule_networks, CompileOptions, CompileOutput};
use recama_hw::{RuleCost, ShardPlan, ShardPolicy};
use recama_mnrl::MnrlNetwork;
use recama_nca::{Nca, ScanMode, TokenSetEngine};
use recama_syntax::{ParseError, Parsed};
use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// A structured ruleset-compile failure: which rule (by input index)
/// failed to parse, its source text, and the underlying error. Parsing
/// is the only step that can fail — compiling, mapping and sharding are
/// total.
///
/// ```
/// use recama::Engine;
///
/// let err = Engine::builder()
///     .patterns(["ok", "bad(", "ok2"])
///     .build()
///     .unwrap_err();
/// assert_eq!(err.index, 1);
/// assert_eq!(err.pattern, "bad(");
/// ```
#[derive(Debug, Clone)]
pub struct CompileError {
    /// Index of the offending rule in the order it was added.
    pub index: usize,
    /// The rule's source text.
    pub pattern: String,
    /// The underlying parse/support error.
    pub error: ParseError,
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "pattern #{} (`{}`) failed to parse: {}",
            self.index, self.pattern, self.error
        )
    }
}

impl std::error::Error for CompileError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.error)
    }
}

/// A rule a lossy ([`EngineBuilder::lossy`]) build skipped, queryable
/// via [`Engine::skipped`]: real rulesets always contain
/// out-of-fragment rules (Table 1's unsupported rows), and deployments
/// need to report *which* rules are not being enforced.
#[derive(Debug, Clone)]
pub struct SkippedRule {
    /// Index of the rule in the order it was added to the builder.
    pub index: usize,
    /// The rule's id (explicit from [`EngineBuilder::rule`], or the
    /// add-order index).
    pub id: u64,
    /// The rule's source text.
    pub pattern: String,
    /// Why it was skipped.
    pub error: ParseError,
}

/// Configuration of an owned [`ServiceHandle`] (see
/// [`Engine::serve_with`]): the per-flow byte budget and idle timeout,
/// plus the bounded-flow-table, fault-tolerance, and overload-shedding
/// controls the long-lived serving shape needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeConfig {
    /// Per-flow input budget in bytes — the admission rule of
    /// [`ServiceHandle::try_push`]: a chunk is accepted if the flow
    /// currently buffers **nothing** (so chunks larger than the whole
    /// budget still make progress), or if `buffered + chunk.len()`
    /// stays within this budget; otherwise `Poll::Pending`.
    pub flow_budget: usize,
    /// Evict (close) flows that have seen no push *attempt* for this
    /// long — a backpressured producer whose `try_push` keeps returning
    /// `Pending` still counts as activity. `None` disables idle
    /// eviction. Eviction still scans every buffered byte and resolves
    /// `$`-anchored finishing matches, exactly like an explicit close.
    /// The idle sweep runs once per `idle_timeout`, so a flow is evicted
    /// between one and two timeouts after its last push attempt.
    pub idle_timeout: Option<Duration>,
    /// Flow-table budget: opening a flow beyond this many live flows
    /// first evicts the least-recently-pushed *drained* open flow
    /// (recorded in [`ServiceMetrics::budget_evictions`]). Sized toward
    /// the ~10⁶-concurrent-flow serving target by default. If nothing
    /// is evictable the table overshoots and the overshoot is counted
    /// in [`ServiceMetrics::backpressure`].
    ///
    /// [`ServiceMetrics::budget_evictions`]: crate::ServiceMetrics::budget_evictions
    /// [`ServiceMetrics::backpressure`]: crate::ServiceMetrics::backpressure
    pub max_flows: usize,
    /// Global buffered-byte budget across all flows: `try_push` returns
    /// `Poll::Pending` (and counts backpressure) once accepting the
    /// chunk would push the service's total buffered bytes past this.
    pub max_buffered_bytes: u64,
    /// High watermark of buffered-but-unscanned bytes (the service-wide
    /// [`pending_bytes`](crate::ServiceMetrics::pending_bytes)) at or
    /// above which [`try_open_flow`](ServiceHandle::try_open_flow) sheds
    /// new opens: it returns
    /// [`ServeError::Overloaded`](crate::ServeError::Overloaded) and
    /// counts [`shed_opens`](crate::FaultMetrics::shed_opens) instead of
    /// admitting a flow the backlog cannot serve. Shedding closes no
    /// flow. `None` (default) disables the watermark.
    pub max_pending_bytes: Option<u64>,
    /// How many scan panics the service absorbs. A scan panic
    /// **quarantines only the offending flow** (its engines are freed
    /// with its hold on their epoch, its already-merged reports stay pollable,
    /// and [`push_checked`](ServiceHandle::push_checked) /
    /// [`poll_checked`](ServiceHandle::poll_checked) on it return a
    /// [`ServeError::Quarantined`](crate::ServeError::Quarantined)
    /// carrying the panic message) while every other flow keeps
    /// flowing. Each panic costs one restart: the worker that caught it
    /// re-enters its loop at once, a
    /// [`barrier`](crate::ServiceHandle::barrier) caller steps on. Once
    /// the budget is spent the service fails stop: it is
    /// poisoned and every later call reports it (counted in
    /// [`fail_stops`](crate::FaultMetrics::fail_stops)). Default `8`.
    /// `0` is fail-stop: the first panic quarantines its flow, then
    /// poisons the service.
    pub restart_budget: u32,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            flow_budget: 1 << 20, // 1 MiB per flow
            idle_timeout: None,
            max_flows: 1 << 20, // ~10^6 concurrent flows
            max_buffered_bytes: 1 << 30,
            max_pending_bytes: None,
            restart_budget: 8,
        }
    }
}

/// Builder for an [`Engine`] — the single place every compile-time knob
/// lives. Created by [`Engine::builder`].
#[derive(Debug, Clone, Default)]
pub struct EngineBuilder {
    rules: Vec<(u64, String)>,
    options: CompileOptions,
    policy: ShardPolicy,
    lossy: bool,
    scan_mode: ScanMode,
    prefilter: PrefilterMode,
    #[cfg(feature = "fault-inject")]
    faults: FaultPlan,
}

impl EngineBuilder {
    /// Adds one pattern; its rule id defaults to its add-order index.
    pub fn pattern(mut self, pattern: impl AsRef<str>) -> EngineBuilder {
        let id = self.rules.len() as u64;
        self.rules.push((id, pattern.as_ref().to_string()));
        self
    }

    /// Adds one pattern with an explicit rule id (e.g. a Snort SID).
    /// Ids are opaque to the engine — matches report the rule *index*,
    /// and [`Engine::rule_id`] translates.
    pub fn rule(mut self, id: u64, pattern: impl AsRef<str>) -> EngineBuilder {
        self.rules.push((id, pattern.as_ref().to_string()));
        self
    }

    /// Adds many patterns, ids defaulting to their add-order indices.
    pub fn patterns<I>(mut self, patterns: I) -> EngineBuilder
    where
        I: IntoIterator,
        I::Item: AsRef<str>,
    {
        for p in patterns {
            self = self.pattern(p);
        }
        self
    }

    /// Sets the [`CompileOptions`] (unfolding threshold, analysis
    /// budget).
    pub fn options(mut self, options: CompileOptions) -> EngineBuilder {
        self.options = options;
        self
    }

    /// Sets the [`ShardPolicy`] partitioning rules into bank-sized
    /// shards: the machine images behind [`Engine::network`],
    /// [`Engine::hardware`] and the cost model. Default: one CAMA bank
    /// per shard. [`ShardPolicy::Single`] collapses to the unsharded
    /// (`N = 1`) machine image. The policy does not change what a flow
    /// scans — software groups the rules by whether their lazy-DFA rows
    /// fit (see [`scan_mode`](EngineBuilder::scan_mode)) — so it moves
    /// no report and no scan-time number.
    pub fn shard_policy(mut self, policy: ShardPolicy) -> EngineBuilder {
        self.policy = policy;
        self
    }

    /// Sets the [`ScanMode`] every scan, stream, scheduler, and service
    /// handle of the built engine walks bytes with: its one variant,
    /// [`ScanMode::Hybrid`], carries the row budget, by default
    /// [`DEFAULT_STATE_BUDGET`](recama_nca::DEFAULT_STATE_BUDGET)
    /// cached DFA states per scan group. The engine overlays a lazy DFA
    /// on the pure (counter-free) part of the frontier and steps exactly
    /// only the counter-carrying states that are live. The rows of a
    /// group are built once and shared by everything the engine scans —
    /// block scans, streams, every flow of a scheduler or service handle
    /// — so the budget bounds the group, not each flow.
    ///
    /// The budget also draws the groups ([`Engine::scan_groups`]): rules
    /// are packed in index order, a rule weighing its NCA's states, and
    /// a group closes when the next rule would pass the budget (a
    /// heavier rule gets a group of its own), so a ruleset whose rows
    /// fit one cache is scanned once per byte and a larger one is cut
    /// before its cache starts flushing. Every budget is differentially
    /// tested against the patterns scanned one by one.
    pub fn scan_mode(mut self, mode: ScanMode) -> EngineBuilder {
        self.scan_mode = mode;
        self
    }

    /// Sets the [`PrefilterMode`]. The default, [`PrefilterMode::On`],
    /// extracts a required literal per rule at compile time and builds
    /// one Aho-Corasick filter for the set, whose hits name the scan
    /// groups they belong to; scans, streams, schedulers, and service
    /// handles then skip any `(flow, group)` unit for which the filter has seen
    /// no candidate — with output byte-identical to
    /// [`PrefilterMode::Off`], which disables the filter entirely (the
    /// measuring stick for the filter's effect).
    pub fn prefilter(mut self, mode: PrefilterMode) -> EngineBuilder {
        self.prefilter = mode;
        self
    }

    /// Sets the deterministic [`FaultPlan`] every [`ServiceHandle`] and
    /// [`FlowScheduler`] of the built engine injects into its scan step —
    /// panics and artificial delays at the k-th scan of a chosen
    /// `(flow, group)`, for chaos-testing the fault-tolerance layer.
    /// Only compiled in under the `fault-inject` cargo feature; release
    /// builds carry no injection hook at all.
    #[cfg(feature = "fault-inject")]
    pub fn fault_plan(mut self, plan: FaultPlan) -> EngineBuilder {
        self.faults = plan;
        self
    }

    /// Makes the build lossy: rules that fail to compile are skipped
    /// (recorded queryably in [`Engine::skipped`]) instead of failing
    /// the build — the tolerant mode real rulesets need.
    pub fn lossy(mut self, lossy: bool) -> EngineBuilder {
        self.lossy = lossy;
        self
    }

    /// Compiles every added rule into an [`Engine`].
    ///
    /// # Errors
    ///
    /// On a strict (default) build, the first rule that fails to parse
    /// aborts the build with a [`CompileError`] carrying its index and
    /// source text. A [`lossy`](EngineBuilder::lossy) build never fails:
    /// failing rules land in [`Engine::skipped`].
    pub fn build(self) -> Result<Engine, CompileError> {
        let mut sources = Vec::with_capacity(self.rules.len());
        let mut parsed = Vec::with_capacity(self.rules.len());
        let mut ids = Vec::with_capacity(self.rules.len());
        let mut skipped = Vec::new();
        for (index, (id, source)) in self.rules.into_iter().enumerate() {
            match recama_syntax::parse(&source) {
                Ok(rule) => {
                    sources.push(source);
                    parsed.push(rule);
                    ids.push(id);
                }
                Err(error) if self.lossy => skipped.push(SkippedRule {
                    index,
                    id,
                    pattern: source,
                    error,
                }),
                Err(error) => {
                    return Err(CompileError {
                        index,
                        pattern: source,
                        error,
                    })
                }
            }
        }
        let outputs: Vec<CompileOutput> = (parsed.iter())
            .map(|rule| compile(&rule.for_stream(), &self.options))
            .collect();
        let networks = machine_images(&outputs, self.policy);
        let set = ShardedPatternSet::build(&outputs, &parsed, self.scan_mode, self.prefilter);
        Ok(Engine {
            set: Arc::new(set),
            ids: ids.into(),
            reversed: parsed.iter().map(|_| OnceLock::new()).collect(),
            sources,
            parsed,
            outputs,
            networks,
            skipped,
            #[cfg(feature = "fault-inject")]
            faults: self.faults,
        })
    }
}

/// The bank plan's machine images: `policy` cuts the rules into shards,
/// costed with the mapper's own estimates, and each shard's rule
/// networks merge into one image whose reporting nodes carry the
/// *global* rule index, so hardware reports attribute without remapping.
fn machine_images(outputs: &[CompileOutput], policy: ShardPolicy) -> Vec<MnrlNetwork> {
    // The trivial policy never looks at costs, so skip the per-rule
    // placements there.
    let plan = if policy == ShardPolicy::Single {
        ShardPlan::single(outputs.len())
    } else {
        let costs: Vec<RuleCost> = (outputs.iter())
            .map(|out| RuleCost::of_network(&out.network))
            .collect();
        ShardPlan::plan(&costs, policy)
    };
    (plan.shards().iter().enumerate())
        .map(|(si, members)| {
            let name = if plan.shard_count() == 1 {
                "pattern-set".to_string()
            } else {
                format!("pattern-set-shard{si}")
            };
            merge_rule_networks(
                &name,
                members.iter().map(|&g| (g, g as u32, &outputs[g].network)),
            )
        })
        .collect()
}

/// A compiled ruleset behind one facade: block scans, span location,
/// resumable streams, batch many-flow scheduling, and long-lived flow
/// serving — all from a single [`builder`](Engine::builder)-built
/// artifact.
///
/// ```
/// use recama::Engine;
///
/// let engine = Engine::builder()
///     .patterns(["ab{2,3}c", "xyz", "k\\d{4}"])
///     .build()
///     .unwrap();
///
/// // Block mode: (rule index, end offset) reports, stream order.
/// let hits: Vec<_> = engine
///     .scan(b"zabbc..xyz..k1234")
///     .iter()
///     .map(|m| (m.pattern, m.end))
///     .collect();
/// assert_eq!(hits, vec![(0, 5), (1, 10), (2, 17)]);
///
/// // Streaming: matches may straddle chunk boundaries.
/// let mut stream = engine.stream();
/// assert!(stream.feed(b"..ab").next().is_none());
/// assert_eq!(stream.feed(b"bc").next().unwrap().end, 6);
/// ```
#[derive(Debug)]
pub struct Engine {
    /// The scan half, shared so owned [`ServiceHandle`]s can keep it
    /// alive past the `Engine` (the epoch unit of hot reload).
    set: Arc<ShardedPatternSet>,
    /// Rule ids by compiled index (shared with serving epochs, which
    /// translate match reports to stable rule ids).
    ids: Arc<[u64]>,
    /// Source text of each compiled rule.
    sources: Vec<String>,
    /// The parsed rules, kept for span location.
    parsed: Vec<Parsed>,
    /// Reversed automata for span location, built per rule on first use
    /// (repeated span scans must not re-run Glushkov).
    reversed: Vec<OnceLock<Nca>>,
    /// The per-rule compiler outputs the machine images and the scan
    /// half were built from.
    outputs: Vec<CompileOutput>,
    /// One merged machine image per bank-plan shard.
    networks: Vec<MnrlNetwork>,
    skipped: Vec<SkippedRule>,
    /// The deterministic fault-injection plan every served handle
    /// inherits (chaos testing only — absent from normal builds).
    #[cfg(feature = "fault-inject")]
    faults: FaultPlan,
}

impl Engine {
    /// Starts a builder with default options (default [`ShardPolicy`]
    /// — one CAMA bank per shard, strict compile).
    pub fn builder() -> EngineBuilder {
        EngineBuilder::default()
    }

    /// Compiles `patterns` with every default — the one-liner for the
    /// common case.
    ///
    /// # Errors
    ///
    /// Same as [`EngineBuilder::build`].
    pub fn new<I>(patterns: I) -> Result<Engine, CompileError>
    where
        I: IntoIterator,
        I::Item: AsRef<str>,
    {
        Engine::builder().patterns(patterns).build()
    }

    // ---- compiled artifact ------------------------------------------

    /// Number of compiled rules (skipped rules not counted).
    pub fn len(&self) -> usize {
        self.sources.len()
    }

    /// Whether the engine has no compiled rules.
    pub fn is_empty(&self) -> bool {
        self.sources.is_empty()
    }

    /// The source text of compiled rule `i` (the index reported in
    /// [`SetMatch::pattern`]).
    pub fn pattern(&self, i: usize) -> &str {
        &self.sources[i]
    }

    /// The id of compiled rule `i` (explicit via
    /// [`EngineBuilder::rule`], or its builder add-order index).
    pub fn rule_id(&self, i: usize) -> u64 {
        self.ids[i]
    }

    /// Rules a [`lossy`](EngineBuilder::lossy) build skipped, in add
    /// order. Empty on strict builds.
    pub fn skipped(&self) -> &[SkippedRule] {
        &self.skipped
    }

    /// Per-rule compiler outputs (module decisions, analyses, NCAs),
    /// indexed like the compiled rules.
    pub fn outputs(&self) -> &[CompileOutput] {
        &self.outputs
    }

    /// Number of bank-sized shards — machine images — the ruleset
    /// compiled into (≥ 1; no rules compile to one empty shard). Not the
    /// number of engines a flow runs: that is
    /// [`scan_groups`](Engine::scan_groups).
    pub fn shard_count(&self) -> usize {
        self.networks.len()
    }

    /// The scan partition (which rule a flow scans in which group): the
    /// units of a stream, a scheduler or a service handle, and the index
    /// of every per-unit metric. It follows from the rules and the
    /// [`ScanMode`] alone — next-fit over the rules' NCA states under
    /// the hybrid `state_budget` — and the [`ShardPolicy`] has no say in
    /// it.
    pub fn scan_groups(&self) -> &ShardPlan {
        &self.set.scan
    }

    /// The merged extended-MNRL machine image of shard `shard`;
    /// reporting nodes of rule `i` carry `report_id = i`.
    pub fn network(&self, shard: usize) -> &MnrlNetwork {
        &self.networks[shard]
    }

    /// All per-shard machine images.
    pub fn networks(&self) -> &[MnrlNetwork] {
        &self.networks
    }

    /// A hardware simulator for shard `shard`'s machine image; its
    /// report vector attributes events to rules by the stamped report
    /// ids.
    pub fn hardware(&self, shard: usize) -> recama_hw::HwSimulator {
        recama_hw::HwSimulator::new(&self.networks[shard])
    }

    /// The scan half of the compiled ruleset. It exists only so the
    /// benchmark harness (`harness/`) can reach the per-group automata
    /// through `set().multi()`; once the harness reads them elsewhere,
    /// ROADMAP item 21 un-exports the type and deletes this method.
    pub fn set(&self) -> &ShardedPatternSet {
        &self.set
    }

    // ---- block mode -------------------------------------------------

    /// All matches in `haystack`, in stream order (ascending end,
    /// ascending rule index within one end): a fresh
    /// [`stream`](Engine::stream) fed the haystack once — the stream's
    /// one loop consults the prefilter, scans each scan group in turn on
    /// the calling thread and merges the reports in order —
    /// keeping of each trailing-`$` rule only the matches that end the
    /// haystack. Reports are byte-identical for any bank plan and any
    /// scan partition, and per rule they are what an engine of that rule
    /// alone reports: search form `Σ*·r` unless `^`-anchored, one report
    /// per (rule, end).
    pub fn scan(&self, haystack: &[u8]) -> Vec<SetMatch> {
        let anchored_end = self.set.anchored_end();
        self.stream()
            .feed(haystack)
            .filter(|m| !anchored_end[m.pattern] || m.end == haystack.len())
            .collect()
    }

    /// Located match spans, one per report of [`scan`](Engine::scan) and
    /// in its order: for every match end, the rule's reversed automaton
    /// runs backward to the earliest start (leftmost-longest flavor).
    /// Automata processors natively report only ends; this is the
    /// software post-processing step deployments use. Reversed automata
    /// are built lazily per rule and kept for the engine's lifetime.
    pub fn scan_spans(&self, haystack: &[u8]) -> Vec<SetSpan> {
        // One backward engine per distinct rule, reused across ends.
        let mut engines: HashMap<usize, TokenSetEngine<'_>> = HashMap::new();
        (self.scan(haystack).into_iter())
            .map(|m| {
                let engine = (engines.entry(m.pattern))
                    .or_insert_with(|| TokenSetEngine::new(self.reversed_nca(m.pattern)));
                SetSpan {
                    pattern: m.pattern,
                    start: earliest_start(engine, haystack, m.end).0,
                    end: m.end,
                }
            })
            .collect()
    }

    // ---- per-use handles --------------------------------------------

    /// A resumable streaming matcher for ONE flow, holding one engine
    /// state per scan group: feed chunks and drain reports incrementally,
    /// without re-scanning previous chunks. The group engines scan each
    /// chunk one after the other on the calling thread; many flows at
    /// once are [`serve_with`](Engine::serve_with)'s.
    ///
    /// A stream has no "end" until [`finish`](ShardedSetStream::finish)
    /// declares one, so trailing-`$` anchors are not applied during
    /// [`feed`](ShardedSetStream::feed): `$`-anchored rules report every
    /// candidate end offset, and `finish` says which of them end on the
    /// final byte.
    pub fn stream(&self) -> ShardedSetStream<'_> {
        ShardedSetStream::new(&self.set)
    }

    /// A batch many-flow scheduler (`push`/`run`/`poll` cycles) over
    /// this engine, scanning with `workers` threads (at least one): the
    /// same serving core as [`serve_with`](Engine::serve_with), stepped
    /// by `run()` on the caller instead of by resident workers, with
    /// flows addressed by caller-chosen `u64` ids and matches by
    /// compiled pattern index. An id maps to one flow from its first
    /// push until a read finds that flow freed (closed, run and read
    /// out, or quarantined and closed); pushing to an id still held by a
    /// closed or quarantined flow panics.
    pub fn scheduler_with(&self, workers: usize) -> FlowScheduler {
        FlowScheduler::new(self, workers)
    }

    /// Spawns an owned, `'static` flow-serving handle over this engine
    /// with `workers` resident worker threads (at least one) and
    /// `config`: the threads start (condvar-parked) immediately, live
    /// for the handle's whole life, and are joined on
    /// [`shutdown`](ServiceHandle::shutdown) / `Drop` — no enclosing
    /// scope required, so the service embeds directly in a server's
    /// state. The engine stays usable (and reusable) afterwards; the
    /// handle shares its scan half as serving epoch 0 and swaps in
    /// later engines via [`reload`](ServiceHandle::reload).
    pub fn serve_with(&self, workers: usize, config: ServeConfig) -> ServiceHandle {
        ServiceHandle::spawn(self, self.ids_arc(), workers.max(1), config)
    }

    /// [`serve_with`](Engine::serve_with) one worker and
    /// [`ServeConfig::default`].
    pub fn serve(&self) -> ServiceHandle {
        self.serve_with(1, ServeConfig::default())
    }

    /// The reversed automaton of rule `i`, built on first use.
    pub(crate) fn reversed_nca(&self, i: usize) -> &Nca {
        self.reversed[i].get_or_init(|| Nca::from_regex(&self.parsed[i].regex.reverse()))
    }

    /// The shared scan half (the epoch unit of hot reload).
    pub(crate) fn set_arc(&self) -> Arc<ShardedPatternSet> {
        Arc::clone(&self.set)
    }

    /// The shared rule-id table (compiled index → stable rule id).
    pub(crate) fn ids_arc(&self) -> Arc<[u64]> {
        Arc::clone(&self.ids)
    }

    /// The fault-injection plan serving cores inherit (chaos testing).
    #[cfg(feature = "fault-inject")]
    pub(crate) fn fault_plan_clone(&self) -> FaultPlan {
        self.faults.clone()
    }
}

/// Runs `engine` — an engine over a *reversed* automaton — backward over
/// `haystack[..end]` and returns the earliest start of a match ending at
/// `end` (leftmost-longest flavor), with the number of reversed bytes it
/// stepped: accepting after `k` reversed bytes means a match starts at
/// `end - k`, and the largest `k` wins. The reversed automaton is built
/// from the raw regex (no `Σ*` prefix), so a configuration that has died
/// cannot revive and the walk stops there.
pub(crate) fn earliest_start(
    engine: &mut TokenSetEngine<'_>,
    haystack: &[u8],
    end: usize,
) -> (usize, usize) {
    engine.reset();
    let mut start = end; // empty-match fallback
    let mut stepped = 0;
    for &b in haystack[..end].iter().rev() {
        if engine.config().is_empty() {
            break;
        }
        engine.step(b);
        stepped += 1;
        if engine.is_accepting() {
            start = end - stepped;
        }
    }
    (start, stepped)
}
