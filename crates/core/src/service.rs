//! [`ServiceHandle`]: the owned, long-lived, backpressured many-flow
//! serving loop over an [`Engine`] — with epoch-based
//! hot rule reload, a generational flow table, and a metrics snapshot.
//!
//! This module is the crate's **one serving core**. It owns what many
//! flows share, on `ServeState` (everything the service lock protects):
//! the flow table (`open` / `free_slot`), admission and buffering
//! (`try_push_at` → `buffer_chunk`), the readiness queue, `checkout` and
//! `check_in` around an unlocked scan, `close_flow`, quarantine,
//! eviction and the epochs. What *one* flow does with a chunk — the
//! literal prefilter's skip / wake / replay, the watermark-ordered
//! report merge, `$`-finishing — is the flow's own (`flow.rs`), the same
//! code [`ShardedSetStream`](crate::ShardedSetStream) drives
//! synchronously; this module only says where the bytes wait (segments)
//! and where the reports go: the flow's own queue, each report once,
//! which [`poll_checked`](ServiceHandle::poll_checked) drains for one
//! flow and [`drain_global`](ServiceHandle::drain_global) for all.
//! `ServiceCore::step` strings checkout → caught scan → check-in (or
//! quarantine / fail-stop) together — for a *batch* of up to four units
//! of one scan group, whose rows it steps in lockstep
//! ([`HybridEngine::feed_lockstep`]) — and three callers run it:
//!
//! * the resident workers of a [`ServiceHandle`], which park on the
//!   readiness condvar between bursts and step forever;
//! * [`ServiceHandle::barrier`], whose caller steps until the service
//!   has settled instead of sleeping while the workers scan;
//! * [`FlowScheduler::run`](crate::FlowScheduler::run), the *batch*
//!   driver in [`sched`](crate::sched), which steps until the readiness
//!   queue is empty and returns.
//!
//! The last two are one loop (`ServiceCore::settle`); they differ only
//! in what they do with a scan panic they caught.
//!
//! A serving deployment wants the first lifecycle — producers that are
//! pushed back when a flow buffers faster than it scans, and flows that
//! go quiet getting evicted instead of leaking engine state:
//!
//! * [`Engine::serve_with`](crate::Engine::serve_with) returns a `'static`
//!   [`ServiceHandle`] that owns its worker threads: they spawn on
//!   construction, park on the readiness condvar while idle, and are
//!   joined on [`shutdown`](ServiceHandle::shutdown) / `Drop` — no
//!   enclosing scope required, so the service embeds directly in a
//!   server's state;
//! * flows are addressed by generational [`FlowId`]s from
//!   [`try_open_flow`](ServiceHandle::try_open_flow): slot reuse bumps
//!   the generation, so a stale id held after its flow drained can never
//!   observe (or pollute) the slot's next tenant;
//! * [`reload`](ServiceHandle::reload) installs a new
//!   compiled engine behind an **epoch** counter, without restarting
//!   the service: new flows start on the new epoch, existing flows
//!   migrate at their next chunk boundary once drained, in-flight
//!   scans drain against the engine they started on, and an old
//!   epoch's machine image goes with the last flow that holds it: the
//!   service holds only the current epoch, each flow the epoch its
//!   engines came from, until they are freed.
//!   Reports carry **stable rule ids** ([`RuleMatch::rule`]) so
//!   consumers are insulated from the reshuffled pattern indices of a
//!   reloaded set;
//! * the flow table is bounded: idle flows are evicted by a sweep that
//!   runs once per [`idle_timeout`](crate::ServeConfig::idle_timeout),
//!   and opening a flow past
//!   [`max_flows`](crate::ServeConfig::max_flows) evicts the
//!   least-recently-pushed drained flow first;
//! * [`metrics`](ServiceHandle::metrics) snapshots the service
//!   ([`ServiceMetrics`]): per-group scan time and volume, queue
//!   depth, eviction / backpressure / reload counters, per-epoch flow
//!   counts, the hybrid lazy-DFA hit-rate roll-up, and the
//!   literal-prefilter block (per-group skipped units/bytes, candidate
//!   wake-ups, bytes the filter walked, always-on rule count).
//!
//! Per-flow reports are byte-identical to one independent
//! [`ShardedSetStream`](crate::ShardedSetStream) per flow — it is the
//! same flow: reports are merged by `(end, pattern)` up to the
//! *watermark*, the least position any group of the flow has consumed,
//! so ordering never depends on which worker ran first (the suites
//! compare against per-pattern engines, which share none of this).
//! Across a reload, a migrated
//! flow's stream is **cut at the migration boundary**: bytes before the
//! boundary were scanned by the old engine, bytes after it by the new
//! engine starting fresh — exactly a fresh per-flow stream over the
//! post-boundary suffix, which `tests/service_reload.rs` pins
//! differentially.

use crate::engine::{Engine, ServeConfig};
use crate::flow::Flow;
use crate::prefilter::{ChunkAction, PerGroup, PrefilterCounters, PrefilterMetrics};
use crate::ShardedPatternSet;
use recama_nca::{HybridEngine, HybridStats, MultiReport, LOCKSTEP_LANES};
use std::any::Any;
use std::collections::{BTreeMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::task::Poll;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

// ---- public value types ---------------------------------------------

/// A generational flow handle from [`ServiceHandle::try_open_flow`].
///
/// The service stores flows in a slab; a `FlowId` is the slot index
/// plus the slot's **generation** at open time. Freeing a flow bumps
/// the generation, so a stale id held after its flow fully drained can
/// never read (or write) the slot's next tenant — lookups with a stale
/// id simply miss (ABA-safe).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FlowId {
    index: u32,
    generation: u32,
}

impl FlowId {
    /// The slab slot index (recycled across flows).
    pub fn index(&self) -> u32 {
        self.index
    }

    /// The slot generation this id was opened at.
    pub fn generation(&self) -> u32 {
        self.generation
    }
}

impl std::fmt::Display for FlowId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}v{}", self.index, self.generation)
    }
}

/// One match from the owned service: the **stable rule id** (explicit
/// from [`EngineBuilder::rule`](crate::EngineBuilder::rule), or the
/// add-order index) and the absolute end offset in the flow.
///
/// Rule ids — not compiled pattern indices — survive
/// [`ServiceHandle::reload`]: a rule kept across a reload reports the
/// same id even though the recompiled set may place it at a different
/// index (or group).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RuleMatch {
    /// Stable rule id.
    pub rule: u64,
    /// End offset (1-based byte position in the flow).
    pub end: u64,
}

/// A [`RuleMatch`] attributed to its flow, from
/// [`ServiceHandle::drain_global`]. A report leaves the service once:
/// as an event here or from [`ServiceHandle::poll_checked`], never both.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ServiceEvent {
    /// The flow the match belongs to.
    pub flow: FlowId,
    /// Stable rule id.
    pub rule: u64,
    /// End offset (1-based byte position in the flow).
    pub end: u64,
}

/// A point-in-time snapshot of the service, from
/// [`ServiceHandle::metrics`]. Counters are cumulative since the
/// handle spawned; gauges reflect the moment of the snapshot.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServiceMetrics {
    /// The current serving epoch (0 until the first reload).
    pub epoch: u64,
    /// Number of [`reload`](ServiceHandle::reload)s installed.
    pub reloads: u64,
    /// Flows currently tracked (open, or closed with undrained
    /// reports).
    pub flows: usize,
    /// Flows holding each epoch, ascending by epoch: the current one
    /// (listed even when no flow holds it) and every older one a flow
    /// still holds. A flow lets go of its epoch when its engines are
    /// freed, so an old epoch leaves this list with its machine image.
    pub epoch_flows: Vec<(u64, usize)>,
    /// Bytes buffered but not yet consumed by every group.
    pub pending_bytes: u64,
    /// Current readiness-queue depth (`(flow, group)` units awaiting a
    /// worker).
    pub queue_depth: usize,
    /// High-water mark of the readiness queue since spawn.
    pub queue_depth_peak: usize,
    /// Units currently checked out by workers (or a
    /// [`barrier`](ServiceHandle::barrier) caller).
    pub in_flight: usize,
    /// Units scanned on a thread inside
    /// [`barrier`](ServiceHandle::barrier): the caller that waits for the
    /// service to settle scans ready units itself. The resident workers
    /// scanned the rest.
    pub caller_units: u64,
    /// Units scanned in a batch of two or more. A worker checks out up to
    /// [`LOCKSTEP_LANES`] ready units of one
    /// scan group and epoch at once and steps their rows in lockstep;
    /// this says whether such batches form.
    pub batched_units: u64,
    /// Cumulative unlocked scan time per scan group, in nanoseconds:
    /// one entry per group of
    /// [`Engine::scan_groups`](crate::Engine::scan_groups), whatever the
    /// bank count (the field predates the split of the two partitions
    /// and keeps its name). A batch's scan is counted once, against its
    /// group, however many units it held.
    pub shard_scan_ns: Vec<u64>,
    /// Cumulative bytes scanned per scan group, indexed like
    /// [`shard_scan_ns`](ServiceMetrics::shard_scan_ns).
    pub shard_scan_bytes: Vec<u64>,
    /// Flows closed by the idle sweep.
    pub idle_evictions: u64,
    /// Flows closed to stay under
    /// [`max_flows`](crate::ServeConfig::max_flows).
    pub budget_evictions: u64,
    /// Pushes rejected (`Poll::Pending`) by the per-flow or global byte
    /// budget, plus flow-table overshoots with nothing evictable.
    pub backpressure: u64,
    /// Aggregate hybrid lazy-DFA counters: always `Some`, since every
    /// engine scans on rows. It stays an `Option` only while the
    /// benchmark harness (`harness/src/run.rs`) unwraps it. The byte
    /// counters are cumulative over every engine that ever scanned
    /// (retired engines plus the live flow table); `dfa_states` and
    /// `flushes` are read from the per-group caches of the current epoch
    /// and of every epoch a flow holds when the snapshot is taken, each
    /// distinct set's caches counted once — so `dfa_states` is what is
    /// cached *now* (at most groups × `state_budget` per set), not what
    /// flows long gone once built. The interesting roll-up is
    /// [`HybridStats::dfa_hit_rate`].
    pub hybrid: Option<HybridStats>,
    /// Literal-prefilter counters — per-group skipped `(flow, group)`
    /// chunk scans and bytes, cold→hot wake-ups, the bytes the one
    /// literal automaton walked, always-on rules — when
    /// the current epoch was built with
    /// [`PrefilterMode::On`](crate::PrefilterMode::On); `None` under
    /// [`PrefilterMode::Off`](crate::PrefilterMode::Off). The
    /// interesting roll-ups are
    /// [`PrefilterMetrics::total_skipped_bytes`] against
    /// [`shard_scan_bytes`](ServiceMetrics::shard_scan_bytes).
    pub prefilter: Option<PrefilterMetrics>,
    /// Fault-tolerance counters: quarantined flows, worker restarts,
    /// shed opens, fail-stop transitions. All zero on clean traffic.
    pub faults: FaultMetrics,
}

impl ServiceMetrics {
    /// Total evicted flows (idle + budget).
    pub fn total_evictions(&self) -> u64 {
        self.idle_evictions + self.budget_evictions
    }
}

/// Cumulative fault-tolerance counters, in [`ServiceMetrics::faults`].
/// On clean traffic every field stays 0 (the benchmark harness reports
/// their sum as `service.faults_total`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultMetrics {
    /// Flows quarantined after a panic inside one of their scans.
    pub quarantined_flows: u64,
    /// Scan panics absorbed within
    /// [`restart_budget`](crate::ServeConfig::restart_budget): a worker
    /// that re-entered its loop, or a [`barrier`](ServiceHandle::barrier)
    /// caller whose own scan panicked stepped on.
    pub worker_restarts: u64,
    /// [`try_open_flow`](ServiceHandle::try_open_flow) calls shed at the
    /// [`max_pending_bytes`](crate::ServeConfig::max_pending_bytes)
    /// watermark.
    pub shed_opens: u64,
    /// Transitions into fail-stop poisoning: a scan panic past the
    /// [`restart_budget`](crate::ServeConfig::restart_budget). 0 or 1:
    /// at 1 the service is poisoned for good, and every blocking call
    /// fails with [`ServeError::Poisoned`] or panics.
    pub fail_stops: u64,
}

/// Why a [`ServiceHandle`] call could not proceed: the conditions
/// [`try_open_flow`](ServiceHandle::try_open_flow),
/// [`push_checked`](ServiceHandle::push_checked) and
/// [`poll_checked`](ServiceHandle::poll_checked) surface as values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The flow is quarantined: a scan over its bytes panicked, its
    /// engines were freed, and it accepts no more input. Carries a
    /// summary of the panic payload. Reports merged before the fault
    /// stay available via [`poll_checked`](ServiceHandle::poll_checked);
    /// [`close`](ServiceHandle::close) acknowledges the quarantine and
    /// reclaims the slot.
    Quarantined {
        /// Summary of the panic payload that quarantined the flow.
        message: String,
    },
    /// The whole service fail-stopped: a scan panicked past the
    /// [`restart_budget`](crate::ServeConfig::restart_budget). Carries
    /// the first panic's payload summary, the same text on every call.
    Poisoned {
        /// Summary of the first worker panic payload.
        message: String,
    },
    /// The open was shed at the
    /// [`max_pending_bytes`](crate::ServeConfig::max_pending_bytes)
    /// high watermark.
    Overloaded,
    /// The flow id is closed, stale, or unknown.
    Closed,
    /// The service has no consuming workers (it is shutting down).
    Stopped,
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Quarantined { message } => {
                write!(f, "flow quarantined after a scan panic: {message}")
            }
            ServeError::Poisoned { message } => {
                write!(f, "service poisoned by a worker panic: {message}")
            }
            ServeError::Overloaded => write!(f, "open shed at the pending-bytes watermark"),
            ServeError::Closed => write!(f, "flow is closed, stale, or unknown"),
            ServeError::Stopped => write!(f, "service has no consuming workers"),
        }
    }
}

impl std::error::Error for ServeError {}

/// A deterministic fault-injection plan for chaos testing, compiled in
/// under the `fault-inject` cargo feature and installed with
/// [`EngineBuilder::fault_plan`](crate::EngineBuilder::fault_plan)
/// before the engine is served.
///
/// Faults address the **k-th scan** (1-based) of a given group of a
/// given flow, flows numbered in open order (0-based, across reopens).
/// With a [`barrier`](ServiceHandle::barrier) between pushes, every
/// non-empty push triggers exactly one scan per scan group, so the scan
/// number equals the chunk number — `tests/service_faults.rs` leans on
/// that to place faults deterministically.
#[cfg(feature = "fault-inject")]
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    faults: Vec<InjectedFault>,
}

#[cfg(feature = "fault-inject")]
#[derive(Debug, Clone)]
struct InjectedFault {
    flow_seq: u64,
    group: usize,
    scan: u64,
    action: FaultAction,
}

#[cfg(feature = "fault-inject")]
#[derive(Debug, Clone)]
enum FaultAction {
    Panic(String),
    Delay(std::time::Duration),
}

#[cfg(feature = "fault-inject")]
impl FaultPlan {
    /// An empty plan (injects nothing).
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Whether the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Panics with `message` at the `scan`-th scan (1-based) of
    /// `group` of the `flow_seq`-th opened flow (0-based).
    pub fn panic_at(
        mut self,
        flow_seq: u64,
        group: usize,
        scan: u64,
        message: impl Into<String>,
    ) -> FaultPlan {
        self.faults.push(InjectedFault {
            flow_seq,
            group,
            scan,
            action: FaultAction::Panic(message.into()),
        });
        self
    }

    /// Sleeps for `delay` before the `scan`-th scan (1-based) of
    /// `group` of the `flow_seq`-th opened flow (0-based), then scans
    /// normally — for racing slow scans against reloads and closes.
    pub fn delay_at(
        mut self,
        flow_seq: u64,
        group: usize,
        scan: u64,
        delay: std::time::Duration,
    ) -> FaultPlan {
        self.faults.push(InjectedFault {
            flow_seq,
            group,
            scan,
            action: FaultAction::Delay(delay),
        });
        self
    }

    /// Fires the matching fault, if any: sleeps through delays, panics
    /// with the configured message. Runs on the thread that scans,
    /// outside the service lock, inside its panic protection.
    pub(crate) fn trigger(&self, flow_seq: u64, group: usize, scan: u64) {
        for fault in &self.faults {
            if fault.flow_seq == flow_seq && fault.group == group && fault.scan == scan {
                match &fault.action {
                    FaultAction::Delay(delay) => std::thread::sleep(*delay),
                    FaultAction::Panic(message) => panic!("{message}"),
                }
            }
        }
    }
}

// ---- internal state -------------------------------------------------

/// How many queue entries past the first a checkout looks through for
/// units of the same scan group and epoch to batch with it: enough to
/// reach the same group of the next few flows on a set of several groups,
/// while a checkout stays O(1) under any queue depth.
const BATCH_WINDOW: usize = 64;

/// A buffered input chunk: `bytes` starts at absolute stream offset
/// `start` within its flow. Chunks are `Arc`-shared so workers can scan
/// them outside the service lock while slower groups still reference
/// them.
#[derive(Clone)]
struct Segment {
    start: u64,
    bytes: Arc<[u8]>,
}

impl Segment {
    fn end(&self) -> u64 {
        self.start + self.bytes.len() as u64
    }
}

/// One engine installed behind the epoch counter. The `Arc`ed machine
/// image is shared with the [`Engine`] that was reloaded (and any other
/// handle serving it). The service holds the current epoch, and each flow
/// the epoch its engines came from, so a reloaded epoch — and the
/// service's share of its image — goes with the last flow that holds it.
struct EpochEngine {
    epoch: u64,
    set: Arc<ShardedPatternSet>,
    ids: Arc<[u64]>,
}

/// A served flow in the slab: its [`Flow`] — engines, positions, pending
/// reports, replay tail, `$` candidates — plus what only a served flow
/// has: buffered input, scheduling bits, the report queue and the table's
/// bookkeeping.
struct OwnedFlow {
    /// The epoch whose engines this flow holds: set at open and at
    /// migration, taken when the engines are freed (finished or
    /// quarantined) — reports still waiting to be polled hold no epoch.
    epoch: Option<Arc<EpochEngine>>,
    /// Freed once a closed flow has fully drained, or on quarantine.
    /// Restarted at migration, at `base` = the flow's length: old `$`
    /// candidates cannot end at the final byte once more bytes arrive,
    /// and the filterable units start cold again.
    flow: Flow,
    segments: VecDeque<Segment>,
    closed: bool,
    /// Per unit: whether it is in the ready queue *or* checked out. A
    /// cold unit is never queued: it has no engine to check out.
    busy: Vec<bool>,
    /// Per unit: scans checked out so far — the fault-injection address.
    /// Resets when the flow migrates to a new epoch.
    #[cfg(feature = "fault-inject")]
    scans: Vec<u64>,
    reports: VecDeque<RuleMatch>,
    /// The resolved finishing set of a finished flow, until drained.
    finishing: Vec<RuleMatch>,
    /// The panic payload summary that quarantined this flow, when a
    /// scan over its bytes panicked. A
    /// quarantined flow is closed, engine-free, and kept addressable
    /// (so pushes/polls can report the condition) until explicitly
    /// closed.
    quarantined: Option<String>,
    /// Open-order sequence number — the fault-injection address.
    #[cfg(feature = "fault-inject")]
    seq: u64,
    /// Last push attempt (or scan progress), for idle eviction.
    last_activity: Instant,
    /// Monotone LRU stamp, for flow-table budget eviction.
    last_touch: u64,
}

impl OwnedFlow {
    /// The number of the epoch this flow holds, while it holds one.
    fn epoch_no(&self) -> Option<u64> {
        self.epoch.as_ref().map(|e| e.epoch)
    }

    /// Swaps in `flow` with every unit idle, returning the old one.
    fn rebind(&mut self, flow: Flow) -> Flow {
        self.busy = vec![false; flow.unit_count()];
        #[cfg(feature = "fault-inject")]
        {
            self.scans = vec![0; flow.unit_count()];
        }
        std::mem::replace(&mut self.flow, flow)
    }

    /// Whether the flow is closed and its engines have been freed.
    fn finished(&self) -> bool {
        self.closed && self.flow.is_freed()
    }
}

/// One slab slot: the generation counts how many tenants the slot has
/// had, making recycled [`FlowId`]s detectably stale.
struct Slot {
    generation: u32,
    flow: Option<Box<OwnedFlow>>,
}

/// Cumulative service counters (the mutable half of
/// [`ServiceMetrics`]).
#[derive(Default)]
struct MetricsAcc {
    reloads: u64,
    idle_evictions: u64,
    budget_evictions: u64,
    backpressure: u64,
    queue_peak: usize,
    caller_units: u64,
    batched_units: u64,
    shard_scan_ns: PerGroup,
    shard_scan_bytes: PerGroup,
    prefilter: PrefilterCounters,
    quarantined: u64,
    worker_restarts: u64,
    shed_opens: u64,
    fail_stops: u64,
    /// Notifies of [`ServiceCore::wake`].
    wakeups: u64,
    /// Notifies of [`ServiceCore::space`] for a waiting producer (the
    /// fault paths notify uncounted).
    space_wakeups: u64,
}

/// Everything the service lock protects.
struct ServeState {
    slots: Vec<Slot>,
    free: Vec<u32>,
    /// Open (not yet closed/evicted) flows — the quantity
    /// [`ServeConfig::max_flows`](crate::ServeConfig::max_flows)
    /// bounds.
    open_count: usize,
    /// The serving epoch: what new flows open on and drained flows
    /// migrate to.
    current: Arc<EpochEngine>,
    /// Readiness queue of `(flow, group)` units with unconsumed bytes.
    ready: VecDeque<(FlowId, usize)>,
    /// Units currently checked out by workers.
    in_flight: usize,
    /// Maintained sum of every flow's `buffered()` — O(1)
    /// `pending_bytes` under a million-flow table.
    buffered_total: u64,
    /// Workers drain and exit instead of parking.
    shutdown: bool,
    /// Threads inside a wait on [`ServiceCore::wake`]: idle workers and
    /// settling callers. Counted under the lock around each wait, so
    /// whoever changes what a waiter waits for — under the same lock —
    /// knows whether a notify (a futex syscall, waiter or not) has
    /// anyone to reach.
    parked: usize,
    /// The settling callers among `parked`: they alone wait for
    /// `in_flight` to reach 0.
    settlers: usize,
    /// How many of `parked` a notify of `wake` has already reached:
    /// every notify sets it to `parked`, every return from a wait —
    /// notified, timed out or spurious — takes one off, saturating. So
    /// `parked − signalled` never undercounts the threads still waiting
    /// unwoken, and a burst of pushes before a worker runs costs one
    /// notify, not one per push.
    signalled: usize,
    /// Producers inside a wait on [`ServiceCore::space`] in
    /// `push_checked`.
    push_waiters: usize,
    /// Set when a worker panicked mid-scan: its `(flow, group)` engine
    /// unit is lost, so that flow can never drain — blocking producers
    /// must panic out instead of waiting forever.
    poisoned: bool,
    /// Human-readable summary of the first fail-stop panic payload.
    panic_message: Option<String>,
    /// Worker restarts consumed from
    /// [`ServeConfig::restart_budget`](crate::ServeConfig::restart_budget),
    /// shared across the pool.
    restarts: u32,
    /// Flows opened so far — assigns `OwnedFlow::seq` fault-injection
    /// addresses.
    #[cfg(feature = "fault-inject")]
    opened: u64,
    /// When the next idle sweep is due.
    next_sweep: Option<Instant>,
    /// Monotone counter behind `OwnedFlow::last_touch`.
    touch: u64,
    /// The last push's verdicts, kept for their capacity.
    verdicts: Vec<ChunkAction>,
    metrics: MetricsAcc,
    /// Hybrid byte counters of engines that no longer exist (finished,
    /// migrated or quarantined flows), so the roll-up survives flow
    /// churn. `dfa_states` and `flushes` stay 0 here: they are read from
    /// the group caches at snapshot time.
    hybrid_retired: HybridStats,
}

impl ServeState {
    /// An empty flow table serving `set` as epoch 0, reporting compiled
    /// pattern `i` as rule `ids[i]`.
    fn new(set: Arc<ShardedPatternSet>, ids: Arc<[u64]>) -> ServeState {
        ServeState {
            slots: Vec::new(),
            free: Vec::new(),
            open_count: 0,
            current: Arc::new(EpochEngine { epoch: 0, set, ids }),
            ready: VecDeque::new(),
            in_flight: 0,
            buffered_total: 0,
            shutdown: false,
            parked: 0,
            settlers: 0,
            signalled: 0,
            push_waiters: 0,
            poisoned: false,
            panic_message: None,
            restarts: 0,
            #[cfg(feature = "fault-inject")]
            opened: 0,
            next_sweep: None,
            touch: 0,
            verdicts: Vec::new(),
            metrics: MetricsAcc::default(),
            hybrid_retired: HybridStats::default(),
        }
    }

    // ---- slab -------------------------------------------------------

    fn flow(&self, id: FlowId) -> Option<&OwnedFlow> {
        let slot = self.slots.get(id.index as usize)?;
        if slot.generation != id.generation {
            return None;
        }
        slot.flow.as_deref()
    }

    fn flow_mut(&mut self, id: FlowId) -> Option<&mut OwnedFlow> {
        flow_in(&mut self.slots, id)
    }

    fn occupied(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// Opens a fresh flow on the current epoch, evicting the LRU
    /// drained flow first when the table is at its budget.
    fn open(&mut self, cfg: &ServeConfig) -> FlowId {
        if self.open_count >= cfg.max_flows && !self.evict_lru() {
            // Nothing evictable: the table overshoots, visibly.
            self.metrics.backpressure += 1;
        }
        let flow = Flow::new(&self.current.set, 0);
        self.touch += 1;
        #[cfg(feature = "fault-inject")]
        let seq = {
            let seq = self.opened;
            self.opened += 1;
            seq
        };
        let flow = Box::new(OwnedFlow {
            epoch: Some(Arc::clone(&self.current)),
            busy: vec![false; flow.unit_count()],
            #[cfg(feature = "fault-inject")]
            scans: vec![0; flow.unit_count()],
            flow,
            segments: VecDeque::new(),
            closed: false,
            reports: VecDeque::new(),
            finishing: Vec::new(),
            quarantined: None,
            #[cfg(feature = "fault-inject")]
            seq,
            last_activity: Instant::now(),
            last_touch: self.touch,
        });
        let index = match self.free.pop() {
            Some(index) => {
                self.slots[index as usize].flow = Some(flow);
                index
            }
            None => {
                self.slots.push(Slot {
                    generation: 0,
                    flow: Some(flow),
                });
                (self.slots.len() - 1) as u32
            }
        };
        let id = FlowId {
            index,
            generation: self.slots[index as usize].generation,
        };
        self.open_count += 1;
        id
    }

    /// Frees a fully-drained finished flow's slot, bumping the
    /// generation so outstanding [`FlowId`]s go stale.
    fn free_slot(&mut self, id: FlowId) {
        let slot = &mut self.slots[id.index as usize];
        debug_assert_eq!(slot.generation, id.generation);
        let flow = slot.flow.take().expect("freeing an occupied slot");
        slot.generation = slot.generation.wrapping_add(1);
        self.free.push(id.index);
        if !flow.closed {
            self.open_count -= 1;
        }
    }

    /// Frees the slot once the flow is finished with both report
    /// queues drained. Quarantined flows are exempt: they stay
    /// addressable (so pushes and polls keep reporting the condition)
    /// until explicitly closed.
    fn free_if_drained(&mut self, id: FlowId) {
        if self.flow(id).is_some_and(|f| {
            f.quarantined.is_none()
                && f.finished()
                && f.reports.is_empty()
                && f.finishing.is_empty()
        }) {
            self.free_slot(id);
        }
    }

    // ---- fault handling ---------------------------------------------

    /// Poisons the whole service — the fail-stop path of an exhausted
    /// restart budget: every blocking call panics from now on. Records the transition
    /// and the first panic's payload summary.
    fn fail_stop(&mut self, payload: &(dyn Any + Send)) {
        if !self.poisoned {
            self.poisoned = true;
            self.metrics.fail_stops += 1;
            self.panic_message = Some(payload_summary(payload));
        }
    }

    /// Quarantines `id` after a panic inside one of its scans: its
    /// queued units leave the
    /// readiness queue, its remaining engines are freed (hybrid
    /// counters retired), its buffered bytes leave the global gauge,
    /// and it lets go of its epoch — so every *other* flow keeps
    /// flowing and a blocked `barrier` still drains. Reports merged
    /// before the fault stay pollable.
    fn quarantine(&mut self, id: FlowId, summary: &str) {
        let Some(f) = self.flow(id) else { return };
        if f.quarantined.is_some() {
            return; // a sibling group already quarantined this flow
        }
        self.metrics.quarantined += 1;
        self.ready.retain(|&(rid, _)| rid != id);
        let f = self.flow_mut(id).expect("quarantining a live flow");
        let before = f.flow.buffered();
        let was_open = !f.closed;
        f.closed = true;
        f.quarantined = Some(summary.to_string());
        let retired = f.flow.free();
        f.segments.clear();
        f.epoch = None;
        self.buffered_total -= before;
        if was_open {
            self.open_count -= 1;
        }
        self.hybrid_retired.merge(&retired);
    }

    /// The panic summary for poisoned-path messages.
    fn panic_summary(&self) -> &str {
        self.panic_message
            .as_deref()
            .unwrap_or("payload unavailable")
    }

    // ---- the scheduling moves ---------------------------------------

    /// Admission + buffering for an already-resolved open flow.
    /// Returns `Pending` for dead/closed ids and over-budget pushes.
    fn try_push_at(&mut self, id: FlowId, chunk: &[u8], cfg: &ServeConfig) -> Poll<u64> {
        self.touch += 1;
        let touch = self.touch;
        let buffered_total = self.buffered_total;
        let refresh_activity = cfg.idle_timeout.is_some();
        let Some(f) = self.flow_mut(id) else {
            return Poll::Pending; // stale id
        };
        if f.closed {
            return Poll::Pending;
        }
        // A rejected attempt still proves the producer is alive:
        // refresh activity either way, so a flow pinned at its budget
        // by slow consumers is not mistaken for an idle one and evicted
        // mid-stream. (The LRU stamp refreshes for the same reason.)
        if refresh_activity {
            f.last_activity = Instant::now();
        }
        f.last_touch = touch;
        let buffered = f.flow.buffered();
        // Empty chunks buffer nothing and are accepted unconditionally;
        // a chunk is otherwise accepted when the flow buffers nothing
        // (so chunks larger than the whole budget still make progress)
        // or fits in the per-flow and global byte budgets.
        if !chunk.is_empty() {
            let over_flow_budget =
                buffered > 0 && (buffered as usize).saturating_add(chunk.len()) > cfg.flow_budget;
            let over_global_budget = buffered_total > 0
                && buffered_total.saturating_add(chunk.len() as u64) > cfg.max_buffered_bytes;
            if over_flow_budget || over_global_budget {
                self.metrics.backpressure += 1;
                return Poll::Pending;
            }
            self.maybe_migrate(id);
        }
        Poll::Ready(self.buffer_chunk(id, chunk))
    }

    /// Migrates a drained flow onto the current epoch at this chunk
    /// boundary: a fresh [`Flow`] whose engines start at `base` = the
    /// flow's length; the old engines go, and with them the flow's hold on
    /// their epoch. Called only for a non-empty accepted push, so dropping
    /// the `$` candidates is safe — more bytes are coming. A literal
    /// straddling the boundary is cut like any match there: the filter
    /// restarts with the engines.
    fn maybe_migrate(&mut self, id: FlowId) {
        let Some(f) = self.flow(id) else { return };
        if f.epoch_no() == Some(self.current.epoch) || f.closed || !f.flow.drained() {
            return;
        }
        let fresh = Flow::new(&self.current.set, f.flow.total());
        let current = Arc::clone(&self.current);
        let f = self.flow_mut(id).expect("migrating a live flow");
        let retired = f.rebind(fresh).hybrid_stats();
        f.segments.clear(); // drained ⇒ already empty
        f.epoch = Some(current);
        self.hybrid_retired.merge(&retired);
    }

    /// Buffers `chunk` for an open flow and marks its idle units ready —
    /// except units the literal prefilter proves cold, whose position
    /// advances past the chunk without a scan. Returns the flow's new
    /// total length.
    fn buffer_chunk(&mut self, id: FlowId, chunk: &[u8]) -> u64 {
        let ServeState {
            slots,
            ready,
            verdicts,
            metrics,
            buffered_total,
            ..
        } = self;
        let f = flow_in(slots, id).expect("buffer_chunk: open flow");
        if chunk.is_empty() {
            return f.flow.total();
        }
        let set = &f.epoch.as_ref().expect("an open flow holds its epoch").set;
        let before = f.flow.buffered();
        let chunk_start = f.flow.total();
        // A woken unit replays bytes before the chunk; where those
        // already fell off the segment queue, re-cover them with a
        // synthetic segment (keeping the queue contiguous for
        // `ServeUnit::scan`'s skip math).
        let segments = &mut f.segments;
        let walked = f.flow.admit(set, chunk, verdicts, |start, bytes| {
            let front_start = segments.front().map_or(chunk_start, |s| s.start);
            if start < front_start {
                segments.push_front(Segment {
                    start,
                    bytes: Arc::from(&bytes[..(front_start - start) as usize]),
                });
            }
        });
        metrics.prefilter.filter_bytes += walked as u64;
        for (si, verdict) in verdicts.iter().enumerate() {
            debug_assert!(
                *verdict == ChunkAction::Scan || !f.busy[si],
                "cold units are never busy"
            );
            let enqueue = match verdict {
                ChunkAction::Scan => !f.busy[si],
                ChunkAction::Skip => {
                    metrics.prefilter.skipped_units.add(si, 1);
                    let bytes = chunk.len() as u64;
                    metrics.prefilter.skipped_bytes.add(si, bytes);
                    false
                }
                ChunkAction::Wake { .. } => {
                    metrics.prefilter.candidate_hits += 1;
                    true
                }
            };
            if enqueue {
                f.busy[si] = true;
                ready.push_back((id, si));
            }
        }
        // A chunk every unit skipped is consumed already: cold units hold
        // no reports and no earlier segment, so there is nothing to keep,
        // merge or drop.
        let buffered = f.flow.buffered();
        if buffered > 0 {
            f.segments.push_back(Segment {
                start: chunk_start,
                bytes: Arc::from(chunk),
            });
        }
        *buffered_total += buffered - before;
        metrics.queue_peak = metrics.queue_peak.max(ready.len());
        f.flow.total()
    }

    /// Pops a ready `(flow, group)` unit, and up to
    /// [`LOCKSTEP_LANES`] − 1 more of the same scan group and epoch from
    /// the next [`BATCH_WINDOW`] queue entries, and checks their engines
    /// out with the segments each has yet to consume: a batch of
    /// distinct flows whose engines read one group's rows, which
    /// [`ServiceCore::step`] scans in lockstep. The engines own their
    /// handles on the epoch's automaton and rows, so the scan runs
    /// unlocked and survives a concurrent reload. Empty when nothing is
    /// ready.
    fn checkout(&mut self) -> Vec<ServeUnit> {
        let Some((id, group)) = self.ready.pop_front() else {
            return Vec::new();
        };
        let epoch = self.flow(id).and_then(OwnedFlow::epoch_no);
        let mut batch = vec![self.check_out(id, group)];
        let mut at = 0;
        while batch.len() < LOCKSTEP_LANES && at < self.ready.len().min(BATCH_WINDOW) {
            let (other, g) = self.ready[at];
            if g == group && self.flow(other).and_then(OwnedFlow::epoch_no) == epoch {
                self.ready.remove(at);
                batch.push(self.check_out(other, g));
            } else {
                at += 1;
            }
        }
        batch
    }

    /// Checks the engine of the dequeued unit `(id, si)` out, along with
    /// the segments it has yet to consume.
    fn check_out(&mut self, id: FlowId, si: usize) -> ServeUnit {
        let f = self
            .flow_mut(id)
            .expect("ready unit belongs to a live flow");
        #[cfg(feature = "fault-inject")]
        let seq = f.seq;
        debug_assert!(f.busy[si], "queued units are marked busy");
        #[cfg(feature = "fault-inject")]
        let scan_no = {
            f.scans[si] += 1;
            f.scans[si]
        };
        let (state, from) = f.flow.checkout(si);
        let segments: Vec<Segment> = f
            .segments
            .iter()
            .filter(|seg| seg.end() > from)
            .cloned()
            .collect();
        self.in_flight += 1;
        ServeUnit {
            id,
            group: si,
            from,
            state,
            segments,
            #[cfg(feature = "fault-inject")]
            seq,
            #[cfg(feature = "fault-inject")]
            scan_no,
        }
    }

    /// Checks a scanned unit back in: publishes its reports, requeues
    /// it if more bytes arrived while it was out,
    /// merges what became final, and settles `in_flight`.
    fn check_in(
        &mut self,
        id: FlowId,
        si: usize,
        state: Box<HybridEngine>,
        reports: Vec<MultiReport>,
    ) {
        // A sibling group's panic may have quarantined the flow — and
        // an acknowledging `close` may even have freed its slot —
        // while this unit was out scanning. Retire the late engine's
        // hybrid counters, drop its now-unmergeable reports, settle.
        if self.flow(id).is_none_or(|f| f.flow.is_freed()) {
            if let Some(stats) = state.byte_counters() {
                self.hybrid_retired.merge(&stats);
            }
            self.in_flight -= 1;
            return;
        }
        let f = self.slots[id.index as usize]
            .flow
            .as_deref_mut()
            .expect("flows persist while checked out");
        let before = f.flow.buffered();
        if f.flow.check_in(si, state, reports) < f.flow.total() {
            self.ready.push_back((id, si)); // more bytes arrived meanwhile
        } else {
            f.busy[si] = false;
        }
        // Scan progress counts as activity: a flow whose backlog is
        // still draining is not idle.
        f.last_activity = Instant::now();
        self.buffered_total -= before - f.flow.buffered();
        self.merge_ready(id);
        self.try_finish(id);
        self.in_flight -= 1;
    }

    /// Merges what the flow's units have finalized into the flow queue
    /// (as stable rule ids), then drops input segments every unit has
    /// consumed.
    fn merge_ready(&mut self, id: FlowId) {
        let Some(f) = self.flow_mut(id) else { return };
        let (false, Some(e)) = (f.flow.is_freed(), &f.epoch) else {
            // Already finished (engines and epoch let go) or a
            // zero-group set: nothing pending to merge. A second
            // `close` on a finished flow lands here.
            return;
        };
        let reports = &mut f.reports;
        let watermark = f.flow.merge(&e.set, |r| {
            let rule = e.ids[r.pattern as usize];
            reports.push_back(RuleMatch { rule, end: r.end });
        });
        while f.segments.front().is_some_and(|seg| seg.end() <= watermark) {
            f.segments.pop_front();
        }
    }

    /// Frees the engines of a closed, fully-consumed flow, resolves its
    /// `$`-anchored finishing set (as stable rule ids), retires its
    /// hybrid counters, and lets go of its epoch.
    fn try_finish(&mut self, id: FlowId) {
        let Some(f) = flow_in(&mut self.slots, id) else {
            return;
        };
        if f.flow.is_freed() || !(f.closed && f.flow.drained()) {
            return; // already finished, a zero-group set, or not yet due
        }
        let Some(epoch) = f.epoch.take() else { return };
        let ids = &epoch.ids;
        let finals = f.flow.finishing().into_iter().map(|r| RuleMatch {
            rule: ids[r.pattern as usize],
            end: r.end,
        });
        f.finishing.extend(finals);
        let retired = f.flow.free();
        f.segments.clear();
        self.hybrid_retired.merge(&retired);
    }

    /// Marks a flow closed and finishes it if already drained. Closing
    /// a quarantined flow acknowledges the quarantine: the slot is
    /// reclaimed (undrained reports included).
    fn close_flow(&mut self, id: FlowId) {
        let Some(f) = self.flow_mut(id) else { return };
        if f.quarantined.is_some() {
            self.free_slot(id);
            return;
        }
        if !f.closed {
            f.closed = true;
            self.open_count -= 1;
        }
        self.merge_ready(id);
        self.try_finish(id);
    }

    // ---- who is woken -----------------------------------------------
    //
    // The hand-off rules of `ServiceCore::wake` and `ServiceCore::space`,
    // decided under the lock; the caller notifies when told to.

    /// A push (rule 1): buffers `chunk` as [`try_push_at`](Self::try_push_at)
    /// does, and also returns whether to notify `wake` — only when the
    /// push queued a unit and a parked thread has not been signalled.
    /// A chunk every unit skipped wakes nobody.
    fn push(&mut self, id: FlowId, chunk: &[u8], cfg: &ServeConfig) -> (Poll<u64>, bool) {
        let queued = self.ready.len();
        let result = self.try_push_at(id, chunk, cfg);
        (result, self.ready.len() > queued && self.signal())
    }

    /// After a step's check-ins (rule 2): whether to notify `wake`.
    /// Everyone on a fault or poisoning; otherwise the unsignalled parked
    /// threads, and only when one of them may now proceed — a unit is
    /// ready, the service is shutting down, or `in_flight` reached 0
    /// while a settling caller waits it out. An idle worker does not
    /// wait for a settle.
    fn wake_after_step(&mut self, faulted: bool) -> bool {
        if faulted {
            self.signal_all();
            return true;
        }
        let settled = self.in_flight == 0 && self.settlers > 0;
        (settled || self.shutdown || !self.ready.is_empty()) && self.signal()
    }

    /// Claims a notify of `wake` for the parked threads that no notify
    /// has reached yet (rule 3); `false` when there are none.
    fn signal(&mut self) -> bool {
        debug_assert!(self.signalled <= self.parked);
        if self.parked == self.signalled {
            return false;
        }
        self.signal_all();
        true
    }

    /// Claims a notify of `wake` that reaches every parked thread.
    fn signal_all(&mut self) {
        self.signalled = self.parked;
        self.metrics.wakeups += 1;
    }

    /// Books a return from a wait on `wake`, whatever ended it.
    fn unpark(&mut self) {
        self.parked -= 1;
        self.signalled = self.signalled.saturating_sub(1);
        debug_assert!(self.signalled <= self.parked);
    }

    /// Whether to notify `space`: only while a producer waits on it.
    fn signal_space(&mut self) -> bool {
        let waiting = self.push_waiters > 0;
        self.metrics.space_wakeups += u64::from(waiting);
        waiting
    }

    // ---- eviction ---------------------------------------------------

    /// Closes every open, drained flow whose last push attempt is older
    /// than the idle timeout. Due-gated at the timeout. Returns
    /// whether any flow was evicted (the caller frees space).
    fn evict_idle(&mut self, cfg: &ServeConfig) -> bool {
        let Some(timeout) = cfg.idle_timeout else {
            return false;
        };
        let now = Instant::now();
        match self.next_sweep {
            Some(due) if now < due => return false,
            _ => self.next_sweep = Some(now + timeout),
        }
        // Only fully-drained open flows are idle: a flow with buffered
        // bytes is still being scanned (and check-in refreshes its
        // activity anyway), and a backpressured producer refreshes
        // activity on every rejected attempt — so eviction never splits
        // a live stream in two.
        let expired: Vec<FlowId> = self
            .slots
            .iter()
            .enumerate()
            .filter_map(|(i, slot)| {
                let f = slot.flow.as_deref()?;
                (!f.closed
                    && f.flow.buffered() == 0
                    && now.duration_since(f.last_activity) >= timeout)
                    .then_some(FlowId {
                        index: i as u32,
                        generation: slot.generation,
                    })
            })
            .collect();
        let any = !expired.is_empty();
        for id in expired {
            self.close_flow(id);
            self.metrics.idle_evictions += 1;
        }
        any
    }

    /// Evicts the least-recently-pushed open drained flow to make room
    /// in the flow table. Returns `false` when nothing is evictable.
    fn evict_lru(&mut self) -> bool {
        let mut lru: Option<(u64, FlowId)> = None;
        for (i, slot) in self.slots.iter().enumerate() {
            let Some(f) = slot.flow.as_deref() else {
                continue;
            };
            if f.closed || f.flow.buffered() != 0 {
                continue;
            }
            if lru.is_none_or(|(touch, _)| f.last_touch < touch) {
                lru = Some((
                    f.last_touch,
                    FlowId {
                        index: i as u32,
                        generation: slot.generation,
                    },
                ));
            }
        }
        let Some((_, id)) = lru else { return false };
        self.close_flow(id);
        self.metrics.budget_evictions += 1;
        true
    }

    // ---- metrics ----------------------------------------------------

    fn snapshot(&self) -> ServiceMetrics {
        // Byte counters: every engine that ever scanned, gone or parked.
        // The installed epochs are the current one and those flows hold;
        // `dfa_states` / `flushes` are what their group caches hold right
        // now, each set counted once (reloading a clone of the serving
        // engine installs the same set twice).
        let mut hybrid = self.hybrid_retired;
        let mut epochs = BTreeMap::from([(self.current.epoch, (&*self.current, 0))]);
        for f in self.slots.iter().filter_map(|slot| slot.flow.as_deref()) {
            hybrid.merge(&f.flow.hybrid_stats());
            if let Some(e) = &f.epoch {
                epochs.entry(e.epoch).or_insert((e, 0)).1 += 1;
            }
        }
        let mut sets: Vec<&Arc<ShardedPatternSet>> = Vec::new();
        for (e, _) in epochs.values() {
            if !sets.iter().any(|&set| Arc::ptr_eq(set, &e.set)) {
                hybrid.merge(&e.set.hybrid_cache_stats());
                sets.push(&e.set);
            }
        }
        // Per-unit vectors are as long as the scan partition, whatever
        // the bank count.
        let groups = self.current.set.scan.shard_count();
        let prefilter = self.current.set.prefilter().map(|pf| {
            self.metrics
                .prefilter
                .snapshot(groups, pf.always_on_rules())
        });
        ServiceMetrics {
            epoch: self.current.epoch,
            reloads: self.metrics.reloads,
            flows: self.occupied(),
            epoch_flows: epochs.iter().map(|(&no, &(_, n))| (no, n)).collect(),
            pending_bytes: self.buffered_total,
            queue_depth: self.ready.len(),
            queue_depth_peak: self.metrics.queue_peak,
            in_flight: self.in_flight,
            caller_units: self.metrics.caller_units,
            batched_units: self.metrics.batched_units,
            shard_scan_ns: self.metrics.shard_scan_ns.snapshot(groups),
            shard_scan_bytes: self.metrics.shard_scan_bytes.snapshot(groups),
            idle_evictions: self.metrics.idle_evictions,
            budget_evictions: self.metrics.budget_evictions,
            backpressure: self.metrics.backpressure,
            hybrid: Some(hybrid),
            prefilter,
            faults: FaultMetrics {
                quarantined_flows: self.metrics.quarantined,
                worker_restarts: self.metrics.worker_restarts,
                shed_opens: self.metrics.shed_opens,
                fail_stops: self.metrics.fail_stops,
            },
        }
    }
}

/// The flow `id` addresses, borrowing only the slab — so a caller can
/// write the queues beside it.
fn flow_in(slots: &mut [Slot], id: FlowId) -> Option<&mut OwnedFlow> {
    let slot = slots.get_mut(id.index as usize)?;
    if slot.generation != id.generation {
        return None;
    }
    slot.flow.as_deref_mut()
}

/// A human-readable summary of a panic payload: `&str` and `String`
/// payloads verbatim, anything else opaquely.
fn payload_summary(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// A `(flow, group)` unit checked out of the readiness queue: the
/// group's engine and the input segments it still has to consume —
/// fully owned, so the scan runs unlocked and survives a concurrent
/// reload (in-flight units always drain against the engine they
/// started on).
struct ServeUnit {
    id: FlowId,
    group: usize,
    /// Absolute flow offset the engine stands at.
    from: u64,
    state: Box<HybridEngine>,
    segments: Vec<Segment>,
    /// The flow's open-order sequence number (fault-injection address).
    #[cfg(feature = "fault-inject")]
    seq: u64,
    /// Which scan of this `(flow, group)` unit this checkout is
    /// (1-based; fault-injection address).
    #[cfg(feature = "fault-inject")]
    scan_no: u64,
}

impl ServeUnit {
    /// Scans every unconsumed byte of a batch's checked-out segments: the
    /// first segment of every unit in lockstep
    /// ([`HybridEngine::feed_lockstep`]), any later ones unit by unit.
    /// Returns, per unit, the reports its engine appended and the bytes
    /// it walked. Runs WITHOUT the lock held.
    fn scan(units: &mut [ServeUnit]) -> Vec<(Vec<MultiReport>, u64)> {
        let mut reports = vec![Vec::new(); units.len()];
        let mut firsts: Vec<(&mut HybridEngine, &[u8], &mut Vec<MultiReport>)> = (units.iter_mut())
            .zip(&mut reports)
            .map(|(unit, out)| {
                let first = (unit.segments.first()).map_or(&[][..], |seg| {
                    &seg.bytes[(unit.from - seg.start) as usize..]
                });
                (&mut *unit.state, first, out)
            })
            .collect();
        HybridEngine::feed_lockstep(&mut firsts);
        (units.iter_mut().zip(reports))
            .map(|(unit, mut out)| {
                let mut at = unit.segments.first().map_or(unit.from, Segment::end);
                for seg in unit.segments.iter().skip(1) {
                    unit.state
                        .feed_into(&seg.bytes[(at - seg.start) as usize..], &mut out);
                    at = seg.end();
                }
                (out, at - unit.from)
            })
            .collect()
    }
}

/// The shared synchronization core: the state mutex plus the two
/// condvars. `Arc`ed between a [`ServiceHandle`] and its worker
/// threads; borrowed by the batch driver's scoped workers.
pub(crate) struct ServiceCore {
    config: ServeConfig,
    state: Mutex<ServeState>,
    /// Who waits here ([`ServiceCore::park`]): idle workers, for a ready
    /// unit, shutdown or their sweep timer; and settling callers
    /// ([`settle`](Self::settle): `barrier()` and the batch driver),
    /// for a ready unit or for `in_flight` to reach 0. Every notify has
    /// a parked waiter whose predicate just changed:
    ///
    /// 1. a push notifies only if it queued a unit and a parked thread
    ///    is unsignalled — a chunk every unit skipped wakes nobody;
    /// 2. a check-in notifies if a unit is ready, if `in_flight` reached
    ///    0 while a settling caller waits, or on shutdown — again only
    ///    for an unsignalled parked thread — and on every fault;
    /// 3. a notify marks every parked thread signalled, and every
    ///    return from the wait takes one off, so no thread is notified
    ///    twice in one idle spell.
    ///
    /// Nothing else notifies it: an open, a close, a reload or an
    /// eviction makes no unit ready and settles none.
    wake: Condvar,
    /// Producers blocked in `push_checked` wait here for their flow's
    /// bytes to be consumed (or for it to close); notified on shutdown
    /// and every fault, and — only while a producer waits — when a unit
    /// is checked in or an eviction closes a flow.
    space: Condvar,
    /// Deterministic fault-injection plan, from
    /// [`EngineBuilder::fault_plan`](crate::EngineBuilder::fault_plan).
    #[cfg(feature = "fault-inject")]
    fault_plan: FaultPlan,
}

/// What one [`ServiceCore::step`] did. The guard-carrying outcomes hand
/// the state lock back so the driver decides, still under it, whether
/// to step again, park, or stop.
enum Step<'g> {
    /// Nothing was ready; no unit was checked out.
    Idle(MutexGuard<'g, ServeState>),
    /// A batch was scanned and checked back in.
    Ran(MutexGuard<'g, ServeState>),
    /// Part of the batch panicked: the flows it lost are quarantined, the rest checked in, the lock
    /// released, and the payloads — one per panic, never none — are the
    /// driver's to charge or rethrow.
    Faulted(Vec<Box<dyn Any + Send>>),
}

impl ServiceCore {
    /// Locks the state, recovering from mutex poisoning: every mutation
    /// sequence under the lock is panic-free (producer-side asserts
    /// fire before any mutation, worker panics are caught outside the
    /// lock), so a poisoned mutex still guards consistent state.
    fn lock(&self) -> MutexGuard<'_, ServeState> {
        self.state
            .lock()
            .unwrap_or_else(|poison| poison.into_inner())
    }

    /// Parks an idle thread on `wake` — for at most `timeout`, if given —
    /// counted in `parked` for as long as it waits, and booked out by
    /// [`ServeState::unpark`] however the wait ends.
    fn park<'g>(
        &self,
        mut guard: MutexGuard<'g, ServeState>,
        timeout: Option<Duration>,
    ) -> MutexGuard<'g, ServeState> {
        guard.parked += 1;
        let mut guard = match timeout {
            Some(timeout) => match self.wake.wait_timeout(guard, timeout) {
                Ok((guard, _)) => guard,
                Err(poison) => poison.into_inner().0,
            },
            None => self
                .wake
                .wait(guard)
                .unwrap_or_else(|poison| poison.into_inner()),
        };
        guard.unpark();
        guard
    }

    /// The one scheduling step every driver runs: check a batch of ready
    /// units out — up to [`LOCKSTEP_LANES`] of one scan group and epoch,
    /// under one lock acquisition (`ServeState::checkout`) — scan them
    /// **without** the lock, the first segment of each in lockstep and
    /// any later ones unit by unit, and check them all back in under one
    /// acquisition, waking whoever waits on the readiness or space
    /// condvars. The scan time is counted once per batch, against its
    /// group; the units of a `caller`'s batch count as
    /// [`caller_units`](ServiceMetrics::caller_units).
    ///
    /// Panic protection: each unit's planted fault fires alone, before
    /// the lockstep, so a panic there loses that unit's engine only and
    /// quarantines its flow alone; the batch's other flows scan as if
    /// nothing happened. The lockstep itself runs caught too, but its
    /// lanes share one loop: a panic inside it loses every engine of the
    /// batch, and every flow of the batch is quarantined with its
    /// payload. Never is the lock's consistency lost. Each payload goes
    /// back to the driver: the resident worker rethrows them into its
    /// supervisor and a barrier caller charges them itself, a restart
    /// per panic either way — [`charge_restart`](Self::charge_restart),
    /// which poisons the whole service once the budget is spent, so
    /// blocked producers panic out of their waits instead of re-blocking
    /// on a backlog that will never clear; the batch driver rethrows the
    /// first out of `run()`.
    fn step<'g>(&'g self, mut st: MutexGuard<'g, ServeState>, caller: bool) -> Step<'g> {
        let mut batch = st.checkout();
        let Some(group) = batch.first().map(|unit| unit.group) else {
            return Step::Idle(st);
        };
        drop(st);
        let started = Instant::now();
        // The flows each panic took down, with its payload.
        let mut lost: Vec<(Vec<FlowId>, Box<dyn Any + Send>)> = Vec::new();
        #[cfg(feature = "fault-inject")]
        batch.retain(|unit| {
            let fired = catch_unwind(AssertUnwindSafe(|| {
                (self.fault_plan).trigger(unit.seq, unit.group, unit.scan_no)
            }));
            fired
                .map_err(|payload| lost.push((vec![unit.id], payload)))
                .is_ok()
        });
        let scanned = catch_unwind(AssertUnwindSafe(|| ServeUnit::scan(&mut batch)));
        let ns = started.elapsed().as_nanos() as u64;
        let mut st = self.lock();
        match scanned {
            Ok(results) => {
                if !batch.is_empty() {
                    st.metrics.shard_scan_ns.add(group, ns);
                }
                if batch.len() > 1 {
                    st.metrics.batched_units += batch.len() as u64;
                }
                if caller {
                    st.metrics.caller_units += batch.len() as u64;
                }
                for (unit, (reports, bytes)) in batch.into_iter().zip(results) {
                    st.metrics.shard_scan_bytes.add(group, bytes);
                    st.check_in(unit.id, unit.group, unit.state, reports);
                }
            }
            Err(payload) => lost.push((batch.iter().map(|unit| unit.id).collect(), payload)),
        }
        let mut payloads = Vec::new();
        for (flows, payload) in lost {
            st.in_flight -= flows.len();
            let summary = payload_summary(payload.as_ref());
            for id in flows {
                st.quarantine(id, &summary);
            }
            payloads.push(payload);
        }
        // Notify only a waiter whose predicate can have changed (rule 2):
        // a parked thread not yet signalled has a unit to take, or the
        // units a settling caller waits out have settled; a pusher may
        // fit now. A fault changes more than that — a quarantine frees
        // buffers, a fail-stop must reach every blocked producer — and
        // is rare: it notifies everyone.
        let faulted = !payloads.is_empty() || st.poisoned;
        if st.wake_after_step(faulted) {
            self.wake.notify_all();
        }
        if st.signal_space() || faulted {
            self.space.notify_all();
        }
        if payloads.is_empty() {
            Step::Ran(st)
        } else {
            Step::Faulted(payloads)
        }
    }

    /// The stepping loop of a thread that waits for the service to
    /// settle — the batch driver's worker ([`drain`](Self::drain)) and a
    /// [`barrier`](ServiceHandle::barrier) caller: step until nothing is
    /// ready and nothing is in flight. A thread that finds the queue
    /// empty while others still hold units parks on `wake`, counted in
    /// `settlers`: a checked-in unit may requeue, and the check-in that
    /// settles the last one wakes it. `check` runs under the lock before
    /// every step; each scan panic a step caught goes to `absorb`, under
    /// the lock. The units it scans count as
    /// [`caller_units`](ServiceMetrics::caller_units).
    fn settle(
        &self,
        check: impl Fn(&ServeState),
        mut absorb: impl FnMut(&mut ServeState, Box<dyn Any + Send>),
    ) {
        let mut st = self.lock();
        loop {
            check(&st);
            st = match self.step(st, true) {
                Step::Ran(st) => st,
                Step::Faulted(payloads) => {
                    let mut st = self.lock();
                    for payload in payloads {
                        absorb(&mut st, payload);
                    }
                    st
                }
                Step::Idle(st) if st.in_flight == 0 => {
                    debug_assert_eq!(
                        st.buffered_total, 0,
                        "every unconsumed byte belongs to a queued or checked-out unit"
                    );
                    return;
                }
                Step::Idle(mut st) => {
                    st.settlers += 1;
                    let mut st = self.park(st, None);
                    st.settlers -= 1;
                    st
                }
            };
        }
    }

    /// The batch driver's worker ([`FlowScheduler::run`]): settles the
    /// batch and returns the first scan panic it absorbed on the way,
    /// if any.
    ///
    /// [`FlowScheduler::run`]: crate::FlowScheduler::run
    pub(crate) fn drain(&self) -> Option<Box<dyn Any + Send>> {
        let mut fault = None;
        self.settle(
            |_| {},
            |_, payload| {
                fault.get_or_insert(payload);
            },
        );
        fault
    }

    /// Charges a caught panic to the pool-wide
    /// [`restart_budget`](ServeConfig::restart_budget): one restart while
    /// it lasts. Once it is spent — or while shutting down — the
    /// payload fail-stops the service and every waiter is woken. Returns
    /// whether the budget absorbed it. The resident worker's supervisor
    /// and a [`barrier`](ServiceHandle::barrier) caller whose own scan
    /// panicked both charge here.
    fn charge_restart(&self, st: &mut ServeState, payload: &(dyn Any + Send)) -> bool {
        if st.restarts >= self.config.restart_budget || st.shutdown {
            st.fail_stop(payload);
            st.signal_all();
            self.wake.notify_all();
            self.space.notify_all();
            return false;
        }
        st.restarts += 1;
        st.metrics.worker_restarts += 1;
        true
    }
}

/// One supervised pass of the resident worker loop: sweep, step, park
/// when idle, return on shutdown. The scan panics a step isolated (the
/// offending flows are already quarantined) end the pass and go back to
/// [`supervised_worker`], which re-enters the loop under the restart
/// budget; a clean shutdown returns none.
fn worker_loop(core: &ServiceCore) -> Vec<Box<dyn Any + Send>> {
    let cfg = core.config;
    let mut st = core.lock();
    loop {
        // Idle sweeps are due-gated at the idle timeout and run on
        // EVERY loop iteration, so sustained load (workers that always
        // find ready work) cannot starve eviction.
        if st.evict_idle(&cfg) && st.signal_space() {
            core.space.notify_all();
        }
        let idle = match core.step(st, false) {
            Step::Ran(guard) => {
                st = guard;
                continue;
            }
            Step::Faulted(payloads) => return payloads,
            Step::Idle(guard) => guard,
        };
        if idle.shutdown && idle.in_flight == 0 {
            return Vec::new();
        }
        // Periodic wake so the due-gated sweep keeps running while the
        // service sits fully idle.
        st = core.park(idle, cfg.idle_timeout);
    }
}

/// The worker thread body: reruns [`worker_loop`] across panics, on the
/// same thread.
///
/// Each panic of a pass (a batch may hold several, each already
/// quarantined) is charged to the restart budget
/// ([`ServiceCore::charge_restart`]). While the budget absorbs it, the
/// loop is re-entered at once: the flows the panic touched are already
/// quarantined, so a pause would only stall the flows that did not
/// fault. Otherwise the service has fail-stopped and the thread exits.
fn supervised_worker(core: &ServiceCore) {
    loop {
        let payloads = match catch_unwind(AssertUnwindSafe(|| worker_loop(core))) {
            Ok(payloads) if payloads.is_empty() => return, // clean shutdown
            Ok(payloads) => payloads,
            Err(payload) => vec![payload],
        };
        for payload in payloads {
            if !core.charge_restart(&mut core.lock(), payload.as_ref()) {
                return;
            }
        }
    }
}

// ---- the owned handle -----------------------------------------------

/// An owned, `'static` many-flow scanning service; create one with
/// [`Engine::serve_with`](crate::Engine::serve_with). See the module
/// docs for the lifecycle.
///
/// The handle owns its worker threads: they spawn on construction,
/// park on the readiness condvar while idle, and are joined on
/// [`shutdown`](ServiceHandle::shutdown) / `Drop`. It is `Send + Sync`,
/// so one handle embeds in a server's shared state and takes pushes
/// from many producer threads.
///
/// ```
/// use recama::{Engine, ServeConfig};
///
/// let engine = Engine::new(["ab{2}c", "xyz"]).unwrap();
///
/// let svc = engine.serve_with(2, ServeConfig::default()); // workers spawn now, parked
/// let flow = svc.try_open_flow().unwrap();
/// svc.push_checked(flow, b"..ab").unwrap(); // blocks only while over budget
/// svc.push_checked(flow, b"bc!").unwrap(); // match straddles the chunks
/// svc.barrier(); // every pushed byte scanned
/// let hits = svc.poll_checked(flow).unwrap();
/// assert_eq!(hits.len(), 1);
/// assert_eq!((hits[0].rule, hits[0].end), (0, 6));
/// svc.close(flow);
/// svc.shutdown(); // joins the workers (Drop would too)
/// ```
pub struct ServiceHandle {
    /// Shared with the resident workers; the batch driver's `run()`
    /// steps it directly.
    pub(crate) core: Arc<ServiceCore>,
    threads: Vec<JoinHandle<()>>,
}

impl ServiceHandle {
    /// The core the batch driver ([`FlowScheduler`](crate::FlowScheduler))
    /// steps by hand: no resident workers, so pushes only buffer until
    /// [`ServiceCore::drain`] runs; nothing bounds or evicts (a batch
    /// caller owns its own pacing); and rule ids are the compiled
    /// pattern indices, so `rule == pattern`.
    pub(crate) fn batch(engine: &Engine) -> ServiceHandle {
        let config = ServeConfig {
            flow_budget: usize::MAX,
            idle_timeout: None,
            max_flows: usize::MAX,
            max_buffered_bytes: u64::MAX,
            ..ServeConfig::default()
        };
        let identity = (0..engine.len() as u64).collect();
        ServiceHandle::spawn(engine, identity, 0, config)
    }

    /// A handle over `engine` with `workers` resident worker threads,
    /// reporting compiled pattern `i` as rule `ids[i]`.
    pub(crate) fn spawn(
        engine: &Engine,
        ids: Arc<[u64]>,
        workers: usize,
        config: ServeConfig,
    ) -> ServiceHandle {
        let core = Arc::new(ServiceCore {
            config,
            state: Mutex::new(ServeState::new(engine.set_arc(), ids)),
            wake: Condvar::new(),
            space: Condvar::new(),
            #[cfg(feature = "fault-inject")]
            fault_plan: engine.fault_plan_clone(),
        });
        let threads = (0..workers)
            .map(|i| {
                let core = Arc::clone(&core);
                std::thread::Builder::new()
                    .name(format!("recama-serve-{i}"))
                    .spawn(move || supervised_worker(&core))
                    .expect("spawn service worker thread")
            })
            .collect();
        ServiceHandle { core, threads }
    }

    // ---- lifecycle --------------------------------------------------

    /// Shuts the service down: parked workers exit (after draining the
    /// readiness queue) and are joined. Equivalent to dropping the
    /// handle, but explicit about where the join happens.
    pub fn shutdown(mut self) {
        self.shutdown_join();
    }

    fn shutdown_join(&mut self) {
        if self.threads.is_empty() {
            return;
        }
        {
            let mut st = self.core.lock();
            st.shutdown = true;
            st.signal_all();
        }
        self.core.wake.notify_all();
        self.core.space.notify_all();
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
    }

    // ---- hot reload -------------------------------------------------

    /// Installs `engine` as the new serving epoch, **without**
    /// restarting the service, and returns the new epoch number.
    ///
    /// Semantics of the swap:
    ///
    /// * flows opened after the reload start on the new engine;
    /// * an existing flow migrates at its **next accepted non-empty
    ///   push** once drained: bytes before that chunk boundary were
    ///   scanned by the old engine, bytes after it by the new engine
    ///   starting fresh (the stream is *cut* at the boundary — exactly
    ///   a fresh stream over the post-boundary suffix);
    /// * `(flow, group)` units already checked out keep scanning
    ///   against the engine they started on — the reload never blocks
    ///   on them, and they never see a half-installed set;
    /// * each flow holds the epoch its engines came from until they
    ///   are freed, so an old epoch's machine image goes with the last
    ///   flow that holds it — when that flow finishes, is quarantined
    ///   or migrates, whether or not its reports were polled;
    /// * reports carry stable rule ids ([`RuleMatch::rule`]), so a
    ///   rule kept across the reload keeps its identity even though
    ///   the recompiled set reshuffles pattern indices.
    ///
    /// ```
    /// use recama::Engine;
    ///
    /// let v1 = Engine::builder().rule(7, "ab{2}c").build().unwrap();
    /// let v2 = Engine::builder().rule(7, "ab{2}c").rule(9, "xyz").build().unwrap();
    ///
    /// let svc = v1.serve();
    /// let flow = svc.try_open_flow().unwrap();
    /// svc.push_checked(flow, b".abbc").unwrap(); // scanned by v1
    /// svc.barrier(); // drain the flow: migration needs a drained boundary
    /// assert_eq!(svc.reload(&v2), 1);
    /// svc.push_checked(flow, b".xyz").unwrap(); // flow migrates here; scanned by v2
    /// svc.close(flow);
    /// svc.barrier();
    /// let hits = svc.poll_checked(flow).unwrap();
    /// let rules: Vec<u64> = hits.iter().map(|m| m.rule).collect();
    /// assert_eq!(rules, vec![7, 9]);
    /// ```
    pub fn reload(&self, engine: &Engine) -> u64 {
        let mut st = self.core.lock();
        let epoch = st.current.epoch + 1;
        st.current = Arc::new(EpochEngine {
            epoch,
            set: engine.set_arc(),
            ids: engine.ids_arc(),
        });
        st.metrics.reloads += 1;
        epoch
    }

    // ---- producing --------------------------------------------------

    /// Opens a fresh flow on the current epoch and returns its
    /// generational [`FlowId`]. When the flow table is at
    /// [`max_flows`](crate::ServeConfig::max_flows), the
    /// least-recently-pushed drained flow is evicted first.
    ///
    /// # Errors
    ///
    /// The open is shed — [`ServeError::Overloaded`] — while the
    /// service's pending bytes are at or past the
    /// [`max_pending_bytes`](crate::ServeConfig::max_pending_bytes)
    /// high watermark, instead of admitting a flow the backlog cannot
    /// serve. A shed open closes no flow. Poisoning surfaces as
    /// [`ServeError::Poisoned`].
    pub fn try_open_flow(&self) -> Result<FlowId, ServeError> {
        let mut st = self.core.lock();
        if st.poisoned {
            return Err(ServeError::Poisoned {
                message: st.panic_summary().to_string(),
            });
        }
        let watermark = self.core.config.max_pending_bytes;
        if watermark.is_some_and(|hw| st.buffered_total >= hw) {
            st.metrics.shed_opens += 1;
            return Err(ServeError::Overloaded);
        }
        // A budget eviction may close a blocked producer's flow.
        let id = st.open(&self.core.config);
        if st.signal_space() {
            drop(st);
            self.core.space.notify_all();
        }
        Ok(id)
    }

    /// Attempts to buffer `chunk` for `flow`. Returns
    /// `Poll::Ready(total)` — the flow's new byte length — on
    /// acceptance, or `Poll::Pending` when accepting the chunk would
    /// break the per-flow or global byte budget, or when the id is
    /// closed or stale (a [`FlowId`] is never reopened; open a new
    /// flow). On `Pending`, retry after the workers have consumed — or
    /// use the blocking [`push_checked`](ServiceHandle::push_checked).
    ///
    /// A chunk is always accepted when the flow buffers nothing, so a
    /// chunk larger than the whole budget still makes progress.
    ///
    /// # Panics
    ///
    /// Panics if the service is poisoned (a worker panicked mid-scan).
    pub fn try_push(&self, flow: FlowId, chunk: &[u8]) -> Poll<u64> {
        let mut st = self.core.lock();
        if st.poisoned {
            panic!(
                "ServiceHandle is poisoned: a worker panicked mid-scan ({}), \
                 so pending flows can never drain",
                st.panic_summary()
            );
        }
        let (result, wake) = st.push(flow, chunk, &self.core.config);
        drop(st);
        if wake {
            self.core.wake.notify_all();
        }
        result
    }

    /// Buffers `chunk` for `flow`, blocking while the byte budgets are
    /// exceeded until the workers free space. Returns the flow's new
    /// byte length.
    ///
    /// # Errors
    ///
    /// Every cannot-proceed condition is a [`ServeError`] value:
    /// [`Quarantined`](ServeError::Quarantined) (with the panic
    /// summary) for a quarantined flow,
    /// [`Poisoned`](ServeError::Poisoned) for a fail-stopped service,
    /// [`Closed`](ServeError::Closed) for a closed/stale id (a
    /// [`FlowId`] is never reopened — open a new flow), and
    /// [`Stopped`](ServeError::Stopped) when the push would wait with
    /// no workers consuming.
    pub fn push_checked(&self, flow: FlowId, chunk: &[u8]) -> Result<u64, ServeError> {
        let mut st = self.core.lock();
        loop {
            if let Some(message) = st.flow(flow).and_then(|f| f.quarantined.clone()) {
                return Err(ServeError::Quarantined { message });
            }
            if st.poisoned {
                return Err(ServeError::Poisoned {
                    message: st.panic_summary().to_string(),
                });
            }
            if let (Poll::Ready(total), wake) = st.push(flow, chunk, &self.core.config) {
                drop(st);
                if wake {
                    self.core.wake.notify_all();
                }
                return Ok(total);
            }
            if st.flow(flow).is_none_or(|f| f.closed) {
                return Err(ServeError::Closed);
            }
            if st.shutdown {
                return Err(ServeError::Stopped);
            }
            st.push_waiters += 1;
            st = (self.core.space.wait(st)).unwrap_or_else(|poison| poison.into_inner());
            st.push_waiters -= 1;
        }
    }

    /// Marks `flow` closed: buffered bytes are still scanned, after
    /// which the flow's engines are freed and its `$`-anchored
    /// [`finishing`](ServiceHandle::finishing) set resolves. Reports
    /// stay pollable until drained; the slot is then recycled (the id
    /// goes stale). Closing an unknown or stale id is a no-op.
    pub fn close(&self, flow: FlowId) {
        self.core.lock().close_flow(flow);
    }

    /// Returns once every pushed byte has been consumed by every group
    /// — a producer-side flush point before polling for a batch of
    /// results.
    ///
    /// The caller does not sleep while there is work: it scans ready
    /// units on its own thread, with the step the workers run, and
    /// parks only when nothing is ready and units are still out on
    /// workers ([`ServiceMetrics::caller_units`] counts its share). A
    /// scan panic on the caller is handled as a worker's would be: the
    /// flow is quarantined and the panic costs one restart of the
    /// [`restart_budget`](crate::ServeConfig::restart_budget) — or
    /// fail-stops the service once the budget is spent.
    ///
    /// # Panics
    ///
    /// Panics if the service is poisoned, or if it is shutting down
    /// (no consuming workers) while work is pending.
    pub fn barrier(&self) {
        let core = &*self.core;
        core.settle(
            |st| {
                if st.buffered_total > 0 || st.in_flight > 0 {
                    if st.poisoned {
                        panic!(
                            "ServiceHandle is poisoned: a worker panicked mid-scan ({}), \
                             so the backlog can never drain",
                            st.panic_summary()
                        );
                    }
                    assert!(
                        !st.shutdown,
                        "ServiceHandle::barrier would block forever with no workers consuming"
                    );
                }
            },
            |st, payload| {
                core.charge_restart(st, payload.as_ref());
            },
        );
    }

    // ---- consuming --------------------------------------------------

    /// Drains `flow`'s ordered report queue (stream order: ascending
    /// end; within one end, the compiled pattern order of the flow's
    /// epoch) — whatever has been merged so far; see
    /// [`barrier`](ServiceHandle::barrier) for a flush point. Once a
    /// finished flow is fully drained its slot is recycled and the id
    /// goes stale. A report polled here is gone from
    /// [`drain_global`](ServiceHandle::drain_global) too.
    ///
    /// # Errors
    ///
    /// The empty cases are told apart: a stale/unknown id returns
    /// [`Closed`](ServeError::Closed), and a quarantined flow with
    /// nothing left to drain returns
    /// [`Quarantined`](ServeError::Quarantined) with the panic summary
    /// — instead of an indistinguishable empty vec.
    pub fn poll_checked(&self, flow: FlowId) -> Result<Vec<RuleMatch>, ServeError> {
        let mut st = self.core.lock();
        let Some(f) = st.flow_mut(flow) else {
            return Err(ServeError::Closed);
        };
        if f.reports.is_empty() {
            if let Some(message) = f.quarantined.clone() {
                return Err(ServeError::Quarantined { message });
            }
        }
        let out = f.reports.drain(..).collect();
        st.free_if_drained(flow);
        Ok(out)
    }

    /// Drains `flow`'s finishing set: the `$`-anchored matches ending
    /// exactly at the flow's final byte, resolved when the closed (or
    /// evicted) flow finished draining.
    pub fn finishing(&self, flow: FlowId) -> Vec<RuleMatch> {
        let mut st = self.core.lock();
        let Some(f) = st.flow_mut(flow) else {
            return Vec::new();
        };
        let out = std::mem::take(&mut f.finishing);
        st.free_if_drained(flow);
        out
    }

    /// Polls every flow at once: drains each flow's report queue as
    /// [`ServiceEvent`]s attributed to it, and frees the flows it leaves
    /// finished and drained, as [`poll_checked`](ServiceHandle::poll_checked)
    /// does. A `$`-anchored [`finishing`](ServiceHandle::finishing) set
    /// is not a queued report and stays behind.
    ///
    /// # Ordering contract
    ///
    /// Within one flow, events appear in stream order (ascending end;
    /// within one end, the epoch's compiled pattern order) — the order
    /// [`poll_checked`](ServiceHandle::poll_checked) yields; flows follow
    /// one another in slab-slot order. Every merged match leaves the
    /// service **exactly once**, through this call or through
    /// `poll_checked`: the service keeps no copy, so a client that only
    /// polls leaves nothing here. The same contract holds for
    /// [`FlowScheduler::drain_global`](crate::FlowScheduler::drain_global),
    /// which yields `(u64, SetMatch)` pairs in ascending `u64` id instead
    /// of slot order; `tests/service_reload.rs` pins it.
    pub fn drain_global(&self) -> Vec<ServiceEvent> {
        let mut st = self.core.lock();
        let mut out = Vec::new();
        for index in 0..st.slots.len() as u32 {
            let slot = &mut st.slots[index as usize];
            let flow = FlowId {
                index,
                generation: slot.generation,
            };
            let Some(f) = slot.flow.as_deref_mut() else {
                continue;
            };
            out.extend(f.reports.drain(..).map(|m| ServiceEvent {
                flow,
                rule: m.rule,
                end: m.end,
            }));
            st.free_if_drained(flow);
        }
        out
    }

    // ---- observability ----------------------------------------------

    /// A point-in-time [`ServiceMetrics`] snapshot.
    ///
    /// ```
    /// use recama::{Engine, PrefilterMode};
    ///
    /// let engine = Engine::builder()
    ///     .patterns(["needle[0-9]z"])
    ///     .prefilter(PrefilterMode::On) // the default
    ///     .build()
    ///     .unwrap();
    /// let svc = engine.serve();
    /// let flow = svc.try_open_flow().unwrap();
    /// svc.push_checked(flow, b".......").unwrap(); // no literal: skipped, not scanned
    /// svc.push_checked(flow, b"needle7z").unwrap(); // literal: wakes the group
    /// svc.barrier();
    ///
    /// let m = svc.metrics();
    /// let pf = m.prefilter.expect("built with the filter on");
    /// assert_eq!(pf.total_skipped_units(), 1);
    /// assert_eq!(pf.total_skipped_bytes(), 7);
    /// assert_eq!(pf.candidate_hits, 1);
    /// assert_eq!(pf.always_on_rules, 0);
    /// assert_eq!(svc.poll_checked(flow).unwrap().len(), 1);
    /// svc.shutdown();
    /// ```
    pub fn metrics(&self) -> ServiceMetrics {
        self.core.lock().snapshot()
    }

    /// Whether `flow` still addresses a live (tracked) flow — `false`
    /// once the slot was recycled (the ABA guard; the batch scheduler's
    /// `u64` table forgets an id on it).
    pub(crate) fn is_live(&self, flow: FlowId) -> bool {
        self.core.lock().flow(flow).is_some()
    }
}

impl Drop for ServiceHandle {
    fn drop(&mut self) {
        self.shutdown_join();
    }
}

impl std::fmt::Debug for ServiceHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = self.core.lock();
        write!(
            f,
            "ServiceHandle(epoch {}, {} flows, {} scan groups, {} workers, budget = {} B)",
            st.current.epoch,
            st.occupied(),
            st.current.set.scan.shard_count(),
            self.threads.len(),
            self.core.config.flow_budget
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PrefilterMode;

    /// A flow table with no worker anywhere near it: nothing consumes
    /// unless the test steps it, so the budget math is deterministic.
    fn state(pattern: &str, mode: PrefilterMode) -> ServeState {
        let engine = Engine::builder()
            .patterns([pattern])
            .prefilter(mode)
            .build()
            .unwrap();
        ServeState::new(engine.set_arc(), engine.ids_arc())
    }

    /// What a worker does, on the test's thread: scan every ready unit.
    fn drain(st: &mut ServeState) {
        loop {
            let mut batch = st.checkout();
            if batch.is_empty() {
                return;
            }
            let scanned = ServeUnit::scan(&mut batch);
            for (unit, (reports, _)) in batch.into_iter().zip(scanned) {
                st.check_in(unit.id, unit.group, unit.state, reports);
            }
        }
    }

    #[test]
    fn try_push_applies_backpressure_at_the_budget() {
        let cfg = ServeConfig {
            flow_budget: 8,
            ..ServeConfig::default()
        };
        let mut st = state("ab", PrefilterMode::Off);
        let one = st.open(&cfg);
        // First chunk: empty buffer, always accepted.
        assert_eq!(st.try_push_at(one, b"123456", &cfg), Poll::Ready(6));
        // 6 buffered + 6 > 8: pushed back.
        assert_eq!(st.try_push_at(one, b"abcdef", &cfg), Poll::Pending);
        // A small chunk still fits under the budget.
        assert_eq!(st.try_push_at(one, b"78", &cfg), Poll::Ready(8));
        // Exactly at budget: the next byte is pushed back.
        assert_eq!(st.try_push_at(one, b"9", &cfg), Poll::Pending);
        // An empty chunk buffers nothing: accepted even over budget.
        assert_eq!(st.try_push_at(one, b"", &cfg), Poll::Ready(8));
        // Another flow has its own budget.
        let two = st.open(&cfg);
        assert_eq!(st.try_push_at(two, b"ab", &cfg), Poll::Ready(2));
        assert_eq!(st.buffered_total, 10);
        assert_eq!(st.metrics.backpressure, 2);

        // The backlog drains, space frees, pushes resume.
        drain(&mut st);
        assert_eq!(st.buffered_total, 0);
        assert_eq!(st.try_push_at(one, b"9ab", &cfg), Poll::Ready(11));
        // A chunk larger than the whole budget waits for an empty
        // buffer, then is accepted whole.
        assert_eq!(st.try_push_at(one, &[b'a'; 64], &cfg), Poll::Pending);
        drain(&mut st);
        assert_eq!(st.try_push_at(one, &[b'a'; 64], &cfg), Poll::Ready(75));
        // Flow two's "ab" was scanned on the way.
        let two = st.flow(two).expect("still open");
        assert_eq!(two.reports, [RuleMatch { rule: 0, end: 2 }]);

        // With the filter on, every shard skips a chunk without a
        // candidate: its bytes are consumed at push time, so nothing is
        // buffered (not even for the length of the call), nothing is
        // queued, and a budget-sized chunk fits every time.
        let mut st = state("needle", PrefilterMode::On);
        let flow = st.open(&cfg);
        for round in 1..=4u64 {
            assert_eq!(
                st.try_push_at(flow, b"........", &cfg),
                Poll::Ready(8 * round)
            );
            assert_eq!(st.buffered_total, 0);
            assert!(st.ready.is_empty());
            assert!(st.flow(flow).expect("still open").segments.is_empty());
        }
        assert_eq!(st.metrics.backpressure, 0);
        assert_eq!(st.snapshot().prefilter.unwrap().total_skipped_bytes(), 32);

        // A candidate wakes the unit: now the bytes wait for a scan and
        // the budget applies again.
        assert_eq!(st.try_push_at(flow, b".needle.", &cfg), Poll::Ready(40));
        assert!(st.buffered_total >= 8, "the woken chunk is buffered");
        assert_eq!(st.try_push_at(flow, b"x", &cfg), Poll::Pending);
        drain(&mut st);
        assert_eq!(st.buffered_total, 0);
        let flow = st.flow(flow).expect("still open");
        assert_eq!(flow.reports, [RuleMatch { rule: 0, end: 39 }]);

        // The service-wide budget binds across flows: a flow that
        // buffers nothing is refused once the total would pass it, and
        // accepted again once the other flow's bytes are scanned.
        let cfg = ServeConfig {
            max_buffered_bytes: 8,
            ..ServeConfig::default()
        };
        let mut st = state("ab", PrefilterMode::Off);
        let (one, two) = (st.open(&cfg), st.open(&cfg));
        assert_eq!(st.try_push_at(one, b"123456", &cfg), Poll::Ready(6));
        assert_eq!(st.try_push_at(two, b"abc", &cfg), Poll::Pending);
        assert_eq!(st.metrics.backpressure, 1);
        assert_eq!(st.buffered_total, 6);
        drain(&mut st);
        assert_eq!(st.try_push_at(two, b"abc", &cfg), Poll::Ready(3));
        assert_eq!(st.metrics.backpressure, 1);
    }

    #[test]
    fn a_push_wakes_a_parked_thread_only_for_a_queued_unit() {
        let cfg = ServeConfig::default();
        let mut st = state("needle", PrefilterMode::On);
        let (one, two, three) = (st.open(&cfg), st.open(&cfg), st.open(&cfg));
        // Nobody parked: a queued unit wakes nobody.
        assert_eq!(st.push(one, b"needle", &cfg), (Poll::Ready(6), false));
        drain(&mut st);
        // An idle worker parks. Every unit skips the chunk: nothing to
        // hand off.
        st.parked = 1;
        assert_eq!(st.push(two, b"........", &cfg), (Poll::Ready(8), false));
        assert!(st.ready.is_empty());
        // A candidate queues a unit: one notify.
        assert_eq!(st.push(two, b".needle.", &cfg), (Poll::Ready(16), true));
        // Another queued before the worker returns: no second notify.
        assert_eq!(st.push(three, b"needle", &cfg), (Poll::Ready(6), false));
        assert_eq!((st.parked, st.signalled, st.metrics.wakeups), (1, 1, 1));
        // The worker returns, drains, parks again: the next unit wakes it.
        st.unpark();
        drain(&mut st);
        st.parked += 1;
        assert_eq!(st.push(one, b"x", &cfg), (Poll::Ready(7), true));
        assert_eq!(st.metrics.wakeups, 2);
    }

    #[test]
    fn a_check_in_wakes_an_idle_worker_only_for_a_ready_unit() {
        let cfg = ServeConfig::default();
        let mut st = state("ab", PrefilterMode::Off);
        let flow = st.open(&cfg);
        // One step: a unit checked out, `meanwhile` pushed while it is
        // out, the unit checked in with `parked` threads parked, of which
        // `settlers` settle; whether the step notifies.
        let step = |st: &mut ServeState, meanwhile: &[u8], parked, settlers| {
            let mut batch = st.checkout();
            assert!(st.push(flow, meanwhile, &cfg).0.is_ready());
            (st.parked, st.settlers, st.signalled) = (parked, settlers, 0);
            let scanned = ServeUnit::scan(&mut batch);
            for (unit, (reports, _)) in batch.into_iter().zip(scanned) {
                st.check_in(unit.id, unit.group, unit.state, reports);
            }
            let wake = st.wake_after_step(false);
            (st.parked, st.settlers, st.signalled) = (0, 0, 0);
            wake
        };
        // The check-in settles: only a settling caller waits for that.
        assert_eq!(st.push(flow, b"..ab", &cfg), (Poll::Ready(4), false));
        assert!(
            !step(&mut st, b"", 1, 0),
            "an idle worker does not wait out a settle"
        );
        assert_eq!(st.metrics.wakeups, 0);
        assert!(!st.push(flow, b"..ab", &cfg).1);
        assert!(step(&mut st, b"", 1, 1), "a settling caller does");
        assert_eq!(st.metrics.wakeups, 1);
        // Bytes arrived while the unit was out: it requeues, and an idle
        // worker may take it.
        assert!(!st.push(flow, b"..ab", &cfg).1);
        assert!(step(&mut st, b"ab", 1, 0));
        assert_eq!(st.ready.len(), 1);
        // Signalled already: not twice in one idle spell.
        (st.parked, st.signalled) = (1, 1);
        assert!(!st.wake_after_step(false));
        // A fault notifies everyone, signalled or not.
        assert!(st.wake_after_step(true));
        assert_eq!(st.metrics.wakeups, 3);
    }

    /// An open, a close and a reload make no unit ready and settle none:
    /// they never notify `wake`. An open may evict a blocked producer's
    /// flow, so it notifies `space` — but only while a producer waits.
    #[test]
    fn opens_closes_and_reloads_wake_nobody_who_waits_for_something_else() {
        let engine = Engine::builder()
            .patterns(["ab"])
            .prefilter(PrefilterMode::Off)
            .build()
            .unwrap();
        let config = ServeConfig {
            max_flows: 1,
            ..ServeConfig::default()
        };
        let svc = ServiceHandle::spawn(&engine, engine.ids_arc(), 0, config);
        let one = svc.try_open_flow().unwrap();
        assert!(svc.try_push(one, b"ab").is_ready());
        assert!(svc.core.drain().is_none());
        svc.core.lock().parked = 1; // an idle worker, never signalled
        svc.reload(&engine);
        let two = svc.try_open_flow().unwrap(); // evicts `one`
        svc.close(two);
        svc.core.lock().push_waiters = 1; // a blocked producer
        let three = svc.try_open_flow().unwrap();
        svc.close(three);
        let st = svc.core.lock();
        assert_eq!(st.metrics.budget_evictions, 1);
        assert_eq!((st.metrics.wakeups, st.metrics.space_wakeups), (0, 1));
    }

    #[test]
    fn a_checkout_batches_ready_units_of_one_group_and_epoch() {
        let builder = Engine::builder()
            .patterns(["ab{2,3}c", "xyz"])
            .prefilter(PrefilterMode::Off);
        let engine = crate::set::in_scan_groups(builder, 2);
        // No resident worker: the units wait in the queue until `drain`.
        let handle = ServiceHandle::batch(&engine);
        let flows: Vec<FlowId> = (0..6).map(|_| handle.try_open_flow().unwrap()).collect();
        for &flow in &flows {
            assert!(handle.try_push(flow, b"..abbc..xyz..").is_ready());
        }
        {
            // The queue holds each flow's two units in turn; a checkout
            // skips the other group's.
            let mut st = handle.core.lock();
            let batch = st.checkout();
            let units: Vec<(FlowId, usize)> = batch.iter().map(|u| (u.id, u.group)).collect();
            let first_four: Vec<(FlowId, usize)> = flows[..4].iter().map(|&f| (f, 0)).collect();
            assert_eq!(units, first_four);
            assert_eq!(st.in_flight, 4);
            let mut batch = batch;
            let scanned = ServeUnit::scan(&mut batch);
            for (unit, (reports, bytes)) in batch.into_iter().zip(scanned) {
                assert_eq!(bytes, 13);
                st.check_in(unit.id, unit.group, unit.state, reports);
            }
            assert_eq!(st.in_flight, 0);
        }
        // The rest go through the step: (four of group 1), (two of each).
        assert!(handle.core.drain().is_none());
        let m = handle.metrics();
        assert_eq!(m.batched_units, 4 + 2 + 2);
        assert_eq!(m.shard_scan_bytes, [2 * 13, 6 * 13]);
        for &flow in &flows {
            let hits = [
                RuleMatch { rule: 0, end: 6 },
                RuleMatch { rule: 1, end: 11 },
            ];
            assert_eq!(handle.poll_checked(flow).unwrap(), hits);
        }
        // Epochs never share a batch: `old` still has bytes buffered on
        // epoch 0 when the reload lands, `new` opens on epoch 1.
        let old = flows[0];
        assert!(handle.try_push(old, b"abbc").is_ready());
        handle.reload(&engine);
        let new = handle.try_open_flow().unwrap();
        assert!(handle.try_push(new, b"abbc").is_ready());
        assert!(handle.core.drain().is_none());
        assert_eq!(handle.metrics().batched_units, 4 + 2 + 2);
        assert_eq!(handle.poll_checked(old).unwrap().len(), 1);
        assert_eq!(handle.poll_checked(new).unwrap().len(), 1);
    }

    /// A retired epoch lets go of its machine image: once the last flow
    /// that held it has closed, no epoch entry, flow engine or shard
    /// cache of the service still holds the old set — even while that
    /// flow's reports wait unpolled.
    #[test]
    fn a_retired_epoch_releases_its_set() {
        let build = |rules: [(u64, &str); 2]| {
            let mut builder = Engine::builder().prefilter(PrefilterMode::Off);
            for (id, rule) in rules {
                builder = builder.rule(id, rule);
            }
            let engine = crate::set::in_scan_groups(builder, 2);
            assert_eq!(engine.scan_groups().shard_count(), 2);
            engine
        };
        let a = build([(10, "ab{2,3}c"), (30, "k[0-9]{2,4}m")]);
        let b = build([(40, "ab{2,3}c"), (50, "q{2,4}w")]);
        let svc = a.serve_with(2, ServeConfig::default());
        let migrator = svc.try_open_flow().unwrap();
        let holdout = svc.try_open_flow().unwrap();
        svc.push_checked(migrator, b"abbc.k12m.").unwrap();
        svc.push_checked(holdout, b"abbc.k12m.").unwrap();
        svc.barrier();
        a.scan(b"abbc.k12m.");

        svc.reload(&b);
        svc.push_checked(migrator, b"qqw.abbc").unwrap();
        svc.barrier();
        assert_eq!(svc.poll_checked(migrator).unwrap().len(), 4);
        // `a`, this count's own clone and the holdout's epoch.
        assert!(Arc::strong_count(&a.set_arc()) > 2);

        svc.close(holdout);
        svc.barrier();
        assert_eq!(svc.metrics().epoch_flows, vec![(1, 1)]);
        let old = Arc::downgrade(&a.set_arc());
        drop(a);
        assert!(old.upgrade().is_none(), "the service still holds epoch 0");
        assert_eq!(svc.poll_checked(holdout).unwrap().len(), 2);
        svc.shutdown();
    }
}
