//! Snapshot of the exported public surface of `recama` and of its seven
//! sub-crates, without macros or rustdoc JSON:
//!
//! * one listing per crate (`ROOT_EXPORTS`, `ANALYSIS_EXPORTS`, …) names
//!   every item its `lib.rs` exports: the names in its `pub use` lists
//!   (the alias after `as`, otherwise the last path segment), its
//!   `pub mod`s, its top-level `pub` items and its exported macros.
//!   `export_listings_match_lib_rs`
//!   reads each `lib.rs` and fails when the two differ, so adding or
//!   removing an export is a visible diff in this file — reviewed like
//!   a lockfile;
//! * the `signature pins` below coerce each important method to an
//!   explicit `fn` pointer type, so changing an exported signature
//!   fails to *compile* this test rather than silently drifting.
//!
//! When an intentional API change lands, update the listing/pins in the
//! same commit — that is the review hook.

use recama::compiler::{CompileOptions, CompileOutput};
use recama::hw::{HwSimulator, ShardPolicy};
use recama::mnrl::MnrlNetwork;
use recama::nca::{
    CompilePlan, HybridCache, HybridEngine, MultiNca, MultiReport, Nca, ShardedMulti, UnfoldPolicy,
};
use recama::syntax::{ByteAlphabet, ParseError};
use recama::{
    CompileError, Engine, EngineBuilder, FaultMetrics, FlowId, FlowScheduler, HybridStats,
    PrefilterMetrics, PrefilterMode, RuleMatch, ServeConfig, ServeError, ServiceEvent,
    ServiceHandle, ServiceMetrics, SetMatch, SetSpan, ShardedPatternSet, ShardedSetStream,
    SkippedRule,
};
use std::task::Poll;
use std::time::Duration;

/// Every name exported from the `recama` crate root, sorted. Module
/// re-exports of the sub-crates (`analysis`, `compiler`, `hw`, `mnrl`,
/// `nca`, `syntax`, `workloads`) and the `sched` module are listed as
/// modules, not expanded: each sub-crate has a listing of its own.
const ROOT_EXPORTS: &[&str] = &[
    "CompileError",
    "DEFAULT_STATE_BUDGET",
    "Engine",
    "EngineBuilder",
    "FaultMetrics",
    "FaultPlan (feature fault-inject only)",
    "FlowId",
    "FlowScheduler",
    "HybridStats",
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

const ANALYSIS_EXPORTS: &[&str] = &[
    "AnalysisStats",
    "CheckConfig",
    "Classification",
    "DecidedBy",
    "ExactConfig",
    "Method",
    "NcaAnalysis",
    "OccurrenceCheck",
    "OccurrenceVerdict",
    "RegexCheck",
    "StopPolicy",
    "Verdict",
    "analyze_nca",
    "approx_occurrence",
    "check",
    "check_occurrence",
    "classify",
    "degree",
    "glushkov_build",
    "mod hardness",
];

const COMPILER_EXPORTS: &[&str] = &[
    "BITVECTOR_MAX_BOUND",
    "COUNTER_MAX_BOUND",
    "CompileOptions",
    "CompileOutput",
    "CompileReport",
    "DecidedBy",
    "ModuleKind",
    "compile",
    "emit",
    "merge_rule_networks",
];

const HW_EXPORTS: &[&str] = &[
    "AreaGranularity",
    "AreaReport",
    "EdgeStats",
    "EnergyReport",
    "HwRun",
    "HwSimulator",
    "Loc",
    "Placement",
    "RuleCost",
    "ShardBudget",
    "ShardPlan",
    "ShardPolicy",
    "area_report",
    "energy_report",
    "mod params",
    "place",
    "run",
];

const MNRL_EXPORTS: &[&str] = &[
    "Connection",
    "Enable",
    "MnrlError",
    "MnrlNetwork",
    "Node",
    "NodeKind",
    "Port",
    "mod jsonval",
];

const NCA_EXPORTS: &[&str] = &[
    "ActionOp",
    "CompilePlan",
    "CounterId",
    "CounterInfo",
    "DEFAULT_STATE_BUDGET",
    "GuardAtom",
    "HybridCache",
    "HybridEngine",
    "HybridStats",
    "LOCKSTEP_LANES",
    "MultiNca",
    "MultiReport",
    "Nca",
    "Prepared",
    "ShardedMulti",
    "State",
    "StateId",
    "StorageMode",
    "Token",
    "TokenSetEngine",
    "Transition",
    "UnfoldPolicy",
    "mod glushkov",
    "unfold",
    "unfold_one",
    "unfolded_leaves",
];

const SYNTAX_EXPORTS: &[&str] = &[
    "ByteAlphabet",
    "ByteClass",
    "ByteClassIter",
    "ByteClassSet",
    "ErrorKind",
    "ParseError",
    "Parsed",
    "Regex",
    "RepeatId",
    "RepeatInfo",
    "Unsupported",
    "mod naive",
    "normalize_for_nca",
    "parse",
    "simplify",
];

const WORKLOADS_EXPORTS: &[&str] = &[
    "BenchmarkId",
    "PatternClass",
    "Profile",
    "Ruleset",
    "Table1Row",
    "generate",
    "paper_table1",
    "profile",
    "traffic",
];

/// Each crate's `lib.rs` beside the listing it must match.
const LISTINGS: &[(&str, &str, &[&str])] = &[
    (
        "recama",
        include_str!("../crates/core/src/lib.rs"),
        ROOT_EXPORTS,
    ),
    (
        "recama-analysis",
        include_str!("../crates/analysis/src/lib.rs"),
        ANALYSIS_EXPORTS,
    ),
    (
        "recama-compiler",
        include_str!("../crates/compiler/src/lib.rs"),
        COMPILER_EXPORTS,
    ),
    (
        "recama-hw",
        include_str!("../crates/hw/src/lib.rs"),
        HW_EXPORTS,
    ),
    (
        "recama-mnrl",
        include_str!("../crates/mnrl/src/lib.rs"),
        MNRL_EXPORTS,
    ),
    (
        "recama-nca",
        include_str!("../crates/nca/src/lib.rs"),
        NCA_EXPORTS,
    ),
    (
        "recama-syntax",
        include_str!("../crates/syntax/src/lib.rs"),
        SYNTAX_EXPORTS,
    ),
    (
        "recama-workloads",
        include_str!("../crates/workloads/src/lib.rs"),
        WORKLOADS_EXPORTS,
    ),
];

/// The names a `lib.rs` exports, sorted: every `pub use` list entry
/// (its alias after `as`, otherwise its last path segment; a whole
/// crate re-exported under an alias is `mod alias`), every `pub mod` as
/// `mod name`, every other top-level `pub` item by its name (see
/// [`item_name`]) and every `#[macro_export]` macro as `name!`. An
/// export behind `#[cfg(feature = "f")]` is suffixed
/// ` (feature f only)`. A top-level `pub` line of any other form panics,
/// so no export slips past the listings unread.
fn exports(lib_rs: &str) -> Vec<String> {
    let mut names = Vec::new();
    let mut feature: Option<&str> = None;
    let mut macro_export = false;
    let mut lines = lib_rs.lines();
    while let Some(line) = lines.next() {
        if let Some(rest) = line.strip_prefix("#[cfg(feature = \"") {
            feature = rest.split('"').next();
            continue;
        }
        if line == "#[macro_export]" {
            macro_export = true;
            continue;
        }
        if line.starts_with("#[") || line.starts_with("///") {
            continue;
        }
        let mut found = Vec::new();
        if let Some(tree) = line.strip_prefix("pub use ") {
            let mut tree = tree.to_string();
            while !tree.trim_end().ends_with(';') {
                tree.push_str(lines.next().expect("`pub use` ends with `;`"));
            }
            use_tree_names(tree.trim_end().trim_end_matches(';'), true, &mut found);
        } else if let Some(rest) = line.strip_prefix("pub mod ") {
            found.push(format!("mod {}", ident(rest)));
        } else if let Some(item) = line.strip_prefix("pub ") {
            let name = item_name(item).unwrap_or_else(|| panic!("unread export form: {line}"));
            found.push(name.to_string());
        } else if let Some(rest) = line.strip_prefix("macro_rules! ") {
            if macro_export {
                found.push(format!("{}!", ident(rest)));
            }
        }
        for name in found {
            names.push(match feature {
                Some(f) => format!("{name} (feature {f} only)"),
                None => name,
            });
        }
        feature = None;
        macro_export = false;
    }
    names.sort();
    names
}

/// The name a top-level `pub` item (without its `pub `) declares: a
/// `fn`, `struct`, `enum`, `union`, `trait`, `type`, `const` or
/// `static` (also `static mut`), the `fn` or `trait` with any of the
/// `const`/`async`/`unsafe`/`auto`/`extern "abi"` qualifiers. `None`
/// for any other form.
fn item_name(item: &str) -> Option<&str> {
    let mut words = item.split_whitespace();
    let mut last = "";
    for word in words.by_ref() {
        match word {
            "fn" | "struct" | "enum" | "union" | "trait" | "type" => break,
            "static" => return words.find(|w| *w != "mut").map(ident),
            "const" | "async" | "unsafe" | "auto" | "extern" => {}
            abi if abi.starts_with('"') && last == "extern" => {}
            name if last == "const" => return Some(ident(name)),
            _ => return None,
        }
        last = word;
    }
    words.next().map(ident).filter(|name| !name.is_empty())
}

/// The leading identifier of `text`.
fn ident(text: &str) -> &str {
    let end = (text.find(|c: char| !c.is_alphanumeric() && c != '_')).unwrap_or(text.len());
    &text[..end]
}

/// The names one use tree (`a::b`, `a::{b, c as d}`, `a as b`) brings
/// in; a `top` tree of one path segment names a crate.
fn use_tree_names(tree: &str, top: bool, out: &mut Vec<String>) {
    let tree = tree.trim();
    if let Some(open) = tree.find('{') {
        let inner = &tree[open + 1..tree.rfind('}').expect("balanced braces")];
        let mut depth = 0;
        let mut start = 0;
        for (i, c) in inner.char_indices() {
            match c {
                '{' => depth += 1,
                '}' => depth -= 1,
                ',' if depth == 0 => {
                    use_tree_names(&inner[start..i], false, out);
                    start = i + 1;
                }
                _ => {}
            }
        }
        use_tree_names(&inner[start..], false, out);
    } else if let Some((path, alias)) = tree.split_once(" as ") {
        out.push(match top && !path.contains("::") {
            true => format!("mod {}", alias.trim()),
            false => alias.trim().to_string(),
        });
    } else if !tree.is_empty() {
        out.push(tree.rsplit("::").next().unwrap().to_string());
    }
}

#[test]
fn export_listing_is_sorted_and_unique() {
    for (krate, _, listing) in LISTINGS {
        assert!(
            listing.windows(2).all(|w| w[0] < w[1]),
            "keep the {krate} listing sorted so diffs stay reviewable"
        );
    }
}

#[test]
fn export_listings_match_lib_rs() {
    let mut drift = Vec::new();
    for (krate, lib_rs, listing) in LISTINGS {
        let found = exports(lib_rs);
        let added: Vec<_> = (found.iter())
            .filter(|n| !listing.contains(&n.as_str()))
            .collect();
        let gone: Vec<_> = (listing.iter())
            .filter(|n| !found.iter().any(|f| f == *n))
            .collect();
        if !added.is_empty() || !gone.is_empty() {
            drift.push(format!(
                "{krate}: lib.rs exports {added:?} beyond its listing, and no longer {gone:?}"
            ));
        }
    }
    assert!(drift.is_empty(), "{}", drift.join("\n"));
}

/// The extraction the listing check relies on, on a `lib.rs` of every
/// shape the crates use.
#[test]
fn exports_reads_every_export_form() {
    let lib_rs = "//! pub use docs::Ignored;\n\
                  pub mod sched;\n\
                  mod private;\n\
                  pub use recama_nca as nca;\n\
                  pub use a::{\n    B, c::D as E, I as J,\n    f::{G, H},\n};\n\
                  #[cfg(feature = \"fault-inject\")]\n\
                  pub use service::FaultPlan;\n\
                  pub(crate) fn hidden() {}\n\
                  pub fn shown(x: u8) {}\n\
                  pub struct Pattern {\n    pub field: u8,\n}\n\
                  pub enum Mode { A }\n\
                  pub union Word { a: u32 }\n\
                  pub trait Scan {}\n\
                  pub unsafe auto trait Marker {}\n\
                  pub type Id = u64;\n\
                  pub const LIMIT: usize = 3;\n\
                  pub static TABLE: [u8; 2] = [0; 2];\n\
                  pub static mut COUNT: u32 = 0;\n\
                  pub const fn konst() {}\n\
                  pub async fn later() {}\n\
                  pub unsafe fn raw() {}\n\
                  pub unsafe extern \"C\" fn ffi() {}\n\
                  macro_rules! local { () => {} }\n\
                  #[macro_export]\n\
                  /// Doc.\n\
                  macro_rules! shout { () => {} }\n";
    assert_eq!(
        exports(lib_rs),
        [
            "B",
            "COUNT",
            "E",
            "FaultPlan (feature fault-inject only)",
            "G",
            "H",
            "Id",
            "J",
            "LIMIT",
            "Marker",
            "Mode",
            "Pattern",
            "Scan",
            "TABLE",
            "Word",
            "ffi",
            "konst",
            "later",
            "mod nca",
            "mod sched",
            "raw",
            "shout!",
            "shown",
        ]
    );
}

/// A top-level `pub` line the reader does not know fails the listing
/// check instead of passing unseen.
#[test]
#[should_panic(expected = "unread export form: pub extern crate alloc;")]
fn exports_rejects_an_unread_export_form() {
    exports("pub fn shown() {}\npub extern crate alloc;\n");
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
    let _: fn(EngineBuilder, bool) -> EngineBuilder = EngineBuilder::lossy;
    let _: fn(EngineBuilder, PrefilterMode) -> EngineBuilder = EngineBuilder::prefilter;
    let _: fn(EngineBuilder) -> Result<Engine, CompileError> = EngineBuilder::build;
}

#[test]
fn engine_signatures() {
    let _: fn(&Engine, &[u8]) -> Vec<SetMatch> = |e, h| e.scan(h);
    let _: fn(&Engine, &[u8]) -> Vec<SetSpan> = |e, h| e.scan_spans(h);
    let _: for<'a> fn(&'a Engine) -> ShardedSetStream<'a> = |e| e.stream();
    let _: fn(&Engine, usize) -> FlowScheduler = |e, w| e.scheduler_with(w);
    let _: fn(&Engine) -> ServiceHandle = |e| e.serve();
    let _: fn(&Engine, usize, ServeConfig) -> ServiceHandle = |e, w, c| e.serve_with(w, c);
    let _: fn(&Engine) -> usize = Engine::len;
    let _: fn(&Engine) -> bool = Engine::is_empty;
    let _: for<'a> fn(&'a Engine, usize) -> &'a str = |e, i| e.pattern(i);
    let _: fn(&Engine, usize) -> u64 = Engine::rule_id;
    let _: for<'a> fn(&'a Engine) -> &'a [SkippedRule] = |e| e.skipped();
    let _: fn(&Engine) -> usize = Engine::shard_count;
    // The scan partition; the bank plan shows as the machine images.
    let _: for<'a> fn(&'a Engine) -> &'a [Vec<usize>] = |e| e.scan_groups();
    // What the benchmark harness reads of the compiled ruleset.
    let _: for<'a> fn(&'a Engine) -> &'a [CompileOutput] = |e| e.outputs();
    let _: for<'a> fn(&'a Engine, usize) -> &'a MnrlNetwork = |e, i| e.network(i);
    let _: for<'a> fn(&'a Engine) -> &'a [MnrlNetwork] = |e| e.networks();
    let _: fn(&Engine, usize) -> HwSimulator = |e, i| e.hardware(i);
    let _: for<'a> fn(&'a Engine) -> &'a ShardedPatternSet = |e| e.set();
    let _: for<'a> fn(&'a Engine) -> &'a ShardedMulti = |e| e.set().multi();
}

/// The `nca` calls the benchmark harness makes, and the engine calls a
/// flow's units make: one engine per scan group, fed alone or in
/// lockstep.
#[test]
#[allow(clippy::type_complexity)] // the pin IS the explicit shape
fn nca_signatures() {
    let _: fn(&[(&Nca, CompilePlan)], &[Vec<usize>]) -> ShardedMulti = ShardedMulti::merge;
    let _: fn(&ShardedMulti) -> &[MultiNca] = ShardedMulti::shards;
    let _: fn(&ShardedMulti) -> &ByteAlphabet = ShardedMulti::alphabet;
    let _: fn(&MultiNca) -> HybridEngine = MultiNca::engine;
    let _: fn(&MultiNca, usize) -> HybridEngine = MultiNca::hybrid_engine;
    let _: fn(&MultiNca, &HybridCache) -> HybridEngine = MultiNca::hybrid_engine_on;
    let _: fn(&mut HybridEngine, &[u8]) -> Vec<MultiReport> = HybridEngine::match_reports;
    let _: fn(&mut HybridEngine, &[u8], &mut Vec<MultiReport>) = HybridEngine::feed_into;
    let _: fn(&mut [(&mut HybridEngine, &[u8], &mut Vec<MultiReport>)]) =
        HybridEngine::feed_lockstep;
    let _: fn(&mut HybridEngine, u64) = HybridEngine::restart_at;
    let _: fn(&HybridEngine) -> Option<HybridStats> = HybridEngine::byte_counters;
    let _: fn(&mut HybridEngine) -> Option<HybridStats> = HybridEngine::recycle;
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
    let _: fn(&ServiceHandle) -> ServiceMetrics = |s| s.metrics();
    let _: fn(&ServiceHandle, &Engine) -> u64 = |s, e| s.reload(e);

    // One error convention: open, push and poll return ServeError
    // values.
    let _: fn(&ServiceHandle) -> Result<FlowId, ServeError> = |s| s.try_open_flow();
    let _: fn(&ServiceHandle, FlowId, &[u8]) -> Result<u64, ServeError> =
        |s, f, c| s.push_checked(f, c);
    let _: fn(&ServiceHandle, FlowId) -> Result<Vec<RuleMatch>, ServeError> =
        |s, f| s.poll_checked(f);
    let _: fn(ServiceHandle) = ServiceHandle::shutdown;

    // FlowId is an opaque generational handle.
    let _: fn(&FlowId) -> u32 = FlowId::index;
    let _: fn(&FlowId) -> u32 = FlowId::generation;
}

#[test]
fn flow_scheduler_signatures() {
    // Owned like the handle it drives: no engine borrow, and no public
    // constructor — `Engine::scheduler_with` is the way in.
    fn assert_owned<T: Send + Sync + 'static>() {}
    assert_owned::<FlowScheduler>();

    let _: fn(&FlowScheduler, u64, &[u8]) = |s, f, c| s.push(f, c);
    let _: fn(&FlowScheduler) = |s| s.run();
    let _: fn(&FlowScheduler, u64) = |s, f| s.close(f);
    let _: fn(&FlowScheduler, u64) -> Vec<SetMatch> = |s, f| s.poll(f);
    let _: fn(&FlowScheduler, u64) -> Vec<SetMatch> = |s, f| s.finishing(f);
    let _: fn(&FlowScheduler) -> Vec<(u64, SetMatch)> = |s| s.drain_global();
    let _: fn(&FlowScheduler) -> ServiceMetrics = |s| s.metrics();
}

#[test]
fn stream_signatures() {
    let _: fn(&mut ShardedSetStream<'_>, &[u8]) -> Vec<SetMatch> = |s, c| s.feed(c).collect();
    let _: fn(&ShardedSetStream<'_>) -> u64 = |s| s.position();
    let _: fn(&ShardedSetStream<'_>) -> usize = |s| s.group_count();
    let _: fn(ShardedSetStream<'_>) -> Vec<SetMatch> = |s| s.finish();
}

// ---- field pins (struct shapes) ---------------------------------------
// Destructuring fails to compile if public fields change name or type.

#[allow(dead_code)]
fn pin_compile_error(e: CompileError) -> (usize, String, ParseError) {
    let CompileError {
        index,
        pattern,
        error,
    } = e;
    (index, pattern, error)
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

/// The six settable values of a service.
#[allow(dead_code)]
#[allow(clippy::type_complexity)] // the pin IS the explicit shape
fn pin_serve_config(c: ServeConfig) -> (usize, Option<Duration>, usize, u64, Option<u64>, u32) {
    let ServeConfig {
        flow_budget,
        idle_timeout,
        max_flows,
        max_buffered_bytes,
        max_pending_bytes,
        restart_budget,
    } = c;
    (
        flow_budget,
        idle_timeout,
        max_flows,
        max_buffered_bytes,
        max_pending_bytes,
        restart_budget,
    )
}

/// The two settable values of a compile; the module sizes are
/// constants.
#[allow(dead_code)]
fn pin_compile_options(o: CompileOptions) -> (UnfoldPolicy, u64) {
    let CompileOptions {
        unfold,
        analysis_budget,
    } = o;
    (unfold, analysis_budget)
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
fn pin_match_types(m: SetMatch, s: SetSpan) -> [usize; 5] {
    [m.pattern, m.end, s.pattern, s.start, s.end]
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
