//! Snapshot of `recama`'s exported public surface (the crate root, not
//! the re-exported sub-crates), without macros or rustdoc JSON:
//!
//! * `ROOT_EXPORTS` is the checked-in listing of every name exported
//!   from the crate root — reviewed like a lockfile, so adding or
//!   removing an export is a visible diff in this file;
//! * the `signature pins` below coerce each important method to an
//!   explicit `fn` pointer type, so changing an exported signature
//!   fails to *compile* this test rather than silently drifting.
//!
//! When an intentional API change lands, update the listing/pins in the
//! same commit — that is the review hook.

use recama::compiler::CompileOptions;
use recama::hw::{RuleCost, ShardBudget, ShardPlan, ShardPolicy};
use recama::syntax::ParseError;
use recama::{
    CompileError, CompilePhase, Engine, EngineBuilder, FaultMetrics, FaultPolicy, FlowId,
    FlowMatch, FlowScheduler, HybridStats, MatchSpan, OverloadPolicy, PrefilterMetrics,
    PrefilterMode, RuleMatch, ServeConfig, ServeError, ServiceEvent, ServiceHandle, ServiceMetrics,
    SetMatch, SetSpan, ShardedPatternSet, ShardedSetStream, SkippedRule,
};
use std::task::Poll;
use std::time::Duration;

/// Every name exported from the `recama` crate root, sorted. Module
/// re-exports of the sub-crates (`analysis`, `compiler`, `hw`, `mnrl`,
/// `nca`, `syntax`, `workloads`) and the `sched` module are listed as
/// modules, not expanded.
const ROOT_EXPORTS: &[&str] = &[
    "CompileError",
    "CompilePhase",
    "DEFAULT_STATE_BUDGET",
    "Engine",
    "EngineBuilder",
    "FaultMetrics",
    "FaultPlan (feature fault-inject only)",
    "FaultPolicy",
    "FlowId",
    "FlowMatch",
    "FlowScheduler",
    "HybridStats",
    "MatchSpan",
    "OverloadPolicy",
    "Pattern",
    "PrefilterMetrics",
    "PrefilterMode",
    "RuleMatch",
    "ScanMode",
    "ServeConfig",
    "ServeError",
    "ServiceEvent",
    "ServiceHandle",
    "ServiceMetrics",
    "SetMatch",
    "SetSpan",
    "ShardedPatternSet",
    "ShardedSetStream",
    "SkippedRule",
    "mod analysis",
    "mod compiler",
    "mod hw",
    "mod mnrl",
    "mod nca",
    "mod sched",
    "mod syntax",
    "mod workloads",
];

#[test]
fn export_listing_is_sorted_and_unique() {
    assert!(
        ROOT_EXPORTS.windows(2).all(|w| w[0] < w[1]),
        "keep ROOT_EXPORTS sorted so diffs stay reviewable"
    );
}

// ---- signature pins ----------------------------------------------------
// Each binding coerces a public method to an explicit fn-pointer type.
// A drifted signature is a compile error in this file.

#[test]
fn engine_builder_signatures() {
    let _: fn() -> EngineBuilder = Engine::builder;
    let _: fn(Vec<String>) -> Result<Engine, CompileError> = |p| Engine::new(p);
    let _: fn(EngineBuilder, &str) -> EngineBuilder = |b, p| b.pattern(p);
    let _: fn(EngineBuilder, u64, &str) -> EngineBuilder = |b, id, p| b.rule(id, p);
    let _: fn(EngineBuilder, Vec<String>) -> EngineBuilder = |b, ps| b.patterns(ps);
    let _: fn(EngineBuilder, CompileOptions) -> EngineBuilder = EngineBuilder::options;
    let _: fn(EngineBuilder, ShardPolicy) -> EngineBuilder = EngineBuilder::shard_policy;
    let _: fn(EngineBuilder, usize) -> EngineBuilder = EngineBuilder::workers;
    let _: fn(EngineBuilder, ServeConfig) -> EngineBuilder = EngineBuilder::serve_config;
    let _: fn(EngineBuilder, bool) -> EngineBuilder = EngineBuilder::lossy;
    let _: fn(EngineBuilder, PrefilterMode) -> EngineBuilder = EngineBuilder::prefilter;
    let _: fn(EngineBuilder) -> Result<Engine, CompileError> = EngineBuilder::build;
}

#[test]
fn engine_signatures() {
    let _: fn(&Engine, &[u8]) -> Vec<SetMatch> = |e, h| e.scan(h);
    let _: fn(&Engine, &[u8]) -> Vec<SetSpan> = |e, h| e.scan_spans(h);
    let _: fn(&Engine, &[u8]) -> bool = |e, h| e.is_match(h);
    let _: for<'a> fn(&'a Engine) -> ShardedSetStream<'a> = |e| e.stream();
    let _: fn(&Engine) -> FlowScheduler = |e| e.scheduler();
    let _: fn(&Engine, usize) -> FlowScheduler = |e, w| e.scheduler_with(w);
    let _: fn(&Engine) -> ServiceHandle = |e| e.serve();
    let _: fn(&Engine, usize, ServeConfig) -> ServiceHandle = |e, w, c| e.serve_with(w, c);
    let _: fn(Engine) -> ServiceHandle = Engine::into_service;
    let _: fn(&Engine) -> ServeConfig = Engine::serve_config;
    let _: fn(&Engine) -> usize = Engine::len;
    let _: fn(&Engine) -> bool = Engine::is_empty;
    let _: for<'a> fn(&'a Engine, usize) -> &'a str = |e, i| e.pattern(i);
    let _: fn(&Engine, usize) -> u64 = Engine::rule_id;
    let _: fn(&Engine, usize) -> usize = Engine::source_index;
    let _: for<'a> fn(&'a Engine) -> &'a [SkippedRule] = |e| e.skipped();
    let _: fn(&Engine) -> usize = Engine::shard_count;
    // Two partitions, one type: the bank plan and the scan partition.
    let _: for<'a> fn(&'a Engine) -> &'a ShardPlan = |e| e.plan();
    let _: for<'a> fn(&'a Engine) -> &'a ShardPlan = |e| e.scan_groups();
    let _: for<'a> fn(&'a ShardedPatternSet) -> &'a ShardPlan = |s| s.scan_groups();
    let _: fn(&[RuleCost], &ShardBudget) -> ShardPlan = ShardPlan::next_fit;
    let _: fn(&Engine) -> PrefilterMode = Engine::prefilter;
    let _: fn(&Engine) -> usize = Engine::workers;
    let _: for<'a> fn(&'a Engine) -> &'a ShardedPatternSet = |e| e.set();
    let _: fn(Engine) -> ShardedPatternSet = Engine::into_set;
}

#[test]
fn service_handle_signatures() {
    // The handle is owned: 'static, Send + Sync, no engine borrow.
    fn assert_owned<T: Send + Sync + 'static>() {}
    assert_owned::<ServiceHandle>();

    let _: fn(&ServiceHandle, FlowId, &[u8]) -> Poll<u64> = |s, f, c| s.try_push(f, c);
    let _: fn(&ServiceHandle, FlowId) = |s, f| s.close(f);
    let _: fn(&ServiceHandle) = |s| s.barrier();
    let _: fn(&ServiceHandle, FlowId) -> Vec<RuleMatch> = |s, f| s.finishing(f);
    let _: fn(&ServiceHandle) -> Vec<ServiceEvent> = |s| s.drain_global();
    let _: fn(&ServiceHandle) -> Vec<FlowId> = |s| s.evictions();
    let _: fn(&ServiceHandle) -> ServiceMetrics = |s| s.metrics();
    let _: fn(&ServiceHandle, &Engine) -> u64 = |s, e| s.reload(e);
    let _: fn(&ServiceHandle, Vec<String>) -> Result<u64, CompileError> = |s, r| s.reload_rules(r);
    let _: fn(&ServiceHandle) -> u64 = |s| s.epoch();
    let _: fn(&ServiceHandle) -> usize = |s| s.flow_count();
    let _: fn(&ServiceHandle, FlowId) -> Option<u64> = |s, f| s.flow_len(f);
    let _: fn(&ServiceHandle) -> u64 = |s| s.pending_bytes();
    let _: fn(&ServiceHandle, FlowId) -> bool = |s, f| s.is_live(f);
    let _: fn(&ServiceHandle) -> bool = |s| s.is_poisoned();

    // One error convention: open, push and poll return ServeError
    // values.
    let _: fn(&ServiceHandle) -> Result<FlowId, ServeError> = |s| s.try_open_flow();
    let _: fn(&ServiceHandle, FlowId, &[u8]) -> Result<u64, ServeError> =
        |s, f, c| s.push_checked(f, c);
    let _: fn(&ServiceHandle, FlowId) -> Result<Vec<RuleMatch>, ServeError> =
        |s, f| s.poll_checked(f);
    let _: fn(&ServiceHandle, FlowId) -> bool = |s, f| s.is_quarantined(f);
    let _: fn(&ServiceHandle) -> Option<String> = |s| s.panic_message();
    let _: fn(&ServiceHandle) -> usize = |s| s.workers();
    let _: fn(&ServiceHandle) -> ServeConfig = |s| s.config();
    let _: fn(ServiceHandle) = ServiceHandle::shutdown;

    // FlowId is an opaque generational handle.
    let _: fn(&FlowId) -> u32 = FlowId::index;
    let _: fn(&FlowId) -> u32 = FlowId::generation;
}

#[test]
fn flow_scheduler_signatures() {
    // Owned like the handle it drives: no engine borrow, and no public
    // constructor — `Engine::scheduler{,_with}` is the way in.
    fn assert_owned<T: Send + Sync + 'static>() {}
    assert_owned::<FlowScheduler>();

    let _: fn(&FlowScheduler, u64, &[u8]) = |s, f, c| s.push(f, c);
    let _: fn(&FlowScheduler) = |s| s.run();
    let _: fn(&FlowScheduler, u64) = |s, f| s.close(f);
    let _: fn(&FlowScheduler, u64) -> Vec<SetMatch> = |s, f| s.poll(f);
    let _: fn(&FlowScheduler, u64) -> Vec<SetMatch> = |s, f| s.finishing(f);
    let _: fn(&FlowScheduler) -> Vec<FlowMatch> = |s| s.drain_global();
    let _: fn(&FlowScheduler) -> usize = |s| s.flow_count();
    let _: fn(&FlowScheduler, u64) -> Option<u64> = |s, f| s.flow_len(f);
    let _: fn(&FlowScheduler) -> u64 = |s| s.pending_bytes();
    let _: fn(&FlowScheduler) -> usize = |s| s.workers();
    let _: fn(&FlowScheduler) -> Option<HybridStats> = |s| s.hybrid_stats();
    let _: fn(&FlowScheduler) -> Option<PrefilterMetrics> = |s| s.prefilter_stats();
}

#[test]
fn stream_signatures() {
    let _: fn(&mut ShardedSetStream<'_>, &[u8]) -> Vec<SetMatch> = |s, c| s.feed(c).collect();
    let _: fn(&ShardedSetStream<'_>) -> u64 = |s| s.position();
    let _: fn(&ShardedSetStream<'_>) -> usize = |s| s.group_count();
    let _: fn(&mut ShardedSetStream<'_>) = |s| s.reset();
    let _: fn(ShardedSetStream<'_>) -> Vec<SetMatch> = |s| s.finish();
}

// ---- field pins (struct shapes) ---------------------------------------
// Destructuring fails to compile if public fields change name or type.

#[allow(dead_code)]
fn pin_compile_error(e: CompileError) -> (usize, String, CompilePhase, ParseError) {
    let CompileError {
        index,
        pattern,
        phase,
        error,
    } = e;
    (index, pattern, phase, error)
}

#[allow(dead_code)]
fn pin_skipped_rule(s: SkippedRule) -> (usize, u64, String, ParseError) {
    let SkippedRule {
        index,
        id,
        pattern,
        error,
    } = s;
    (index, id, pattern, error)
}

#[allow(dead_code)]
#[allow(clippy::type_complexity)] // the pin IS the explicit shape
fn pin_serve_config(
    c: ServeConfig,
) -> (
    usize,
    Option<Duration>,
    Option<Duration>,
    usize,
    u64,
    FaultPolicy,
    u32,
    Duration,
    OverloadPolicy,
) {
    let ServeConfig {
        flow_budget,
        idle_timeout,
        sweep_interval,
        max_flows,
        max_buffered_bytes,
        fault_policy,
        restart_budget,
        restart_backoff,
        overload,
    } = c;
    (
        flow_budget,
        idle_timeout,
        sweep_interval,
        max_flows,
        max_buffered_bytes,
        fault_policy,
        restart_budget,
        restart_backoff,
        overload,
    )
}

#[allow(dead_code)]
fn pin_overload_policy(o: OverloadPolicy) -> (Option<usize>, Option<u64>, bool) {
    let OverloadPolicy {
        max_queue_depth,
        max_pending_bytes,
        evict_on_shed,
    } = o;
    (max_queue_depth, max_pending_bytes, evict_on_shed)
}

#[allow(dead_code)]
fn pin_fault_metrics(f: FaultMetrics) -> (u64, u64, u64, u64) {
    let FaultMetrics {
        quarantined_flows,
        worker_restarts,
        shed_opens,
        fail_stops,
    } = f;
    (quarantined_flows, worker_restarts, shed_opens, fail_stops)
}

#[allow(dead_code)]
fn pin_service_types(m: RuleMatch, e: ServiceEvent) -> (u64, u64, FlowId, u64, u64) {
    let RuleMatch { rule, end } = m;
    let ServiceEvent {
        flow,
        rule: ev_rule,
        end: ev_end,
    } = e;
    (rule, end, flow, ev_rule, ev_end)
}

#[allow(dead_code)]
fn pin_service_metrics(m: ServiceMetrics) {
    let ServiceMetrics {
        epoch,
        reloads,
        flows,
        epoch_flows,
        pending_bytes,
        queue_depth,
        queue_depth_peak,
        in_flight,
        caller_units,
        batched_units,
        shard_scan_ns,
        shard_scan_bytes,
        idle_evictions,
        budget_evictions,
        backpressure,
        hybrid,
        prefilter,
        faults,
    } = m;
    let _: (u64, u64, usize, Vec<(u64, usize)>, u64) =
        (epoch, reloads, flows, epoch_flows, pending_bytes);
    let _: (usize, usize, usize) = (queue_depth, queue_depth_peak, in_flight);
    let _: (u64, u64) = (caller_units, batched_units);
    let _: (Vec<u64>, Vec<u64>) = (shard_scan_ns, shard_scan_bytes);
    let _: (u64, u64, u64) = (idle_evictions, budget_evictions, backpressure);
    let _: Option<HybridStats> = hybrid;
    let _: Option<PrefilterMetrics> = prefilter;
    let _: FaultMetrics = faults;
}

#[allow(dead_code)]
fn pin_hybrid_stats(h: HybridStats) {
    let HybridStats {
        dfa_bytes,
        fallback_bytes,
        slept_bytes,
        exact_state_steps,
        dfa_states,
        flushes,
    } = h;
    let _: (u64, u64, u64, u64, usize, u64) = (
        dfa_bytes,
        fallback_bytes,
        slept_bytes,
        exact_state_steps,
        dfa_states,
        flushes,
    );
}

#[allow(dead_code)]
fn pin_prefilter_metrics(p: PrefilterMetrics) {
    let PrefilterMetrics {
        skipped_units,
        skipped_bytes,
        candidate_hits,
        filter_bytes,
        always_on_rules,
    } = p;
    let _: (Vec<u64>, Vec<u64>) = (skipped_units, skipped_bytes);
    let _: (u64, u64, usize) = (candidate_hits, filter_bytes, always_on_rules);
    let _: fn(&PrefilterMetrics) -> u64 = PrefilterMetrics::total_skipped_units;
    let _: fn(&PrefilterMetrics) -> u64 = PrefilterMetrics::total_skipped_bytes;
}

#[test]
fn prefilter_mode_variants_are_stable() {
    // Exhaustive match: a new mode must be added here (and to the
    // EngineBuilder docs) deliberately. On is the default.
    assert_eq!(PrefilterMode::default(), PrefilterMode::On);
    for mode in [PrefilterMode::On, PrefilterMode::Off] {
        match mode {
            PrefilterMode::On => {}
            PrefilterMode::Off => {}
        }
    }
}

#[allow(dead_code)]
fn pin_match_types(m: SetMatch, s: SetSpan, f: FlowMatch, p: MatchSpan) -> [usize; 8] {
    [
        m.pattern, m.end, s.pattern, s.start, s.end, f.pattern, f.end, p.start,
    ]
}

#[test]
fn fault_policy_variants_are_stable() {
    // Exhaustive match: a new policy variant must be added here (and
    // documented on ServeConfig) deliberately. Isolate is the default.
    assert_eq!(FaultPolicy::default(), FaultPolicy::Isolate);
    for policy in [FaultPolicy::Isolate, FaultPolicy::FailStop] {
        match policy {
            FaultPolicy::Isolate => {}
            FaultPolicy::FailStop => {}
        }
    }
}

#[allow(dead_code)]
fn pin_serve_error(e: ServeError) -> Option<String> {
    // Exhaustive match pins the variant set and payload shapes.
    match e {
        ServeError::Quarantined { message } => Some(message),
        ServeError::Poisoned { message } => Some(message),
        ServeError::Overloaded | ServeError::Closed | ServeError::Stopped => None,
    }
}

#[test]
fn compile_phase_variants_are_stable() {
    // Matching is exhaustive: a new phase variant must be added here
    // (and to the docs) deliberately.
    for phase in [CompilePhase::Parse, CompilePhase::Map, CompilePhase::Shard] {
        let label = match phase {
            CompilePhase::Parse => "parse",
            CompilePhase::Map => "map",
            CompilePhase::Shard => "shard",
        };
        assert_eq!(phase.to_string(), label);
    }
}
