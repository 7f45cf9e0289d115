//! One run of one workload: the untraced run that yields the end-to-end
//! metrics, and the traced run that yields the per-layer ones.

use crate::layers::{compile_phases, micro, sched_pass};
use crate::metrics::Metrics;
use crate::oracle::{run_oracle, OracleResult};
use crate::serve::{
    build_engine, digest_mismatches, mib_s, run_pass, timed_setup, Pass, PassResult, Tally, SHARDS,
};
use crate::spec::{spec, Inputs, Size, Spec};
use crate::stats::{median, percentile, quartiles};
use crate::trace::{durations_us, total_s, Tracer};
use recama::{Engine, PrefilterMode};
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// What to run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Workload name.
    pub workload: String,
    /// Traffic seed.
    pub seed: u64,
    /// How long the measuring cycles may go on being repeated.
    pub seconds: f64,
    /// The traced run (per-layer metrics) instead of the untraced one.
    pub trace: bool,
    /// Full or smoke sizes.
    pub size: Size,
}

/// What a run found.
#[derive(Debug)]
pub struct Outcome {
    /// Operations attempted and failed, over every pass of the run.
    pub tally: Tally,
    /// The end-to-end metrics (untraced) or the per-layer ones (traced).
    pub metrics: Metrics,
    /// The spans of a traced run.
    pub tracer: Tracer,
    /// Samples behind the headline numbers, for a human reader.
    pub notes: String,
}

impl Outcome {
    /// Whether every operation succeeded and every output was right.
    pub fn correct(&self) -> bool {
        self.tally.failed == 0
    }
}

/// Set-up is repeated at least this often …
const SETUPS_MIN: usize = 5;
/// … and then until this much time has gone into it, up to `SETUPS_MAX`
/// times: a 5 ms set-up needs more samples than a 1 s one, over a longer
/// stretch of time than fifteen of them fill, and can afford them.
const SETUP_BUDGET: Duration = Duration::from_millis(2500);
const SETUPS_MAX: usize = 200;
/// Measuring cycles (one throughput pass, then one latency pass) per
/// run, however short `--seconds` is.
const CYCLES_MIN: usize = 2;

/// Runs `config.workload` once. `None` for an unknown workload.
pub fn run(config: &RunConfig) -> Option<Outcome> {
    let spec = spec(&config.workload, config.size)?;
    Some(if config.trace {
        run_traced(&spec, config)
    } else {
        run_untraced(&spec, config)
    })
}

/// Folds a pass into the run's tally: its own errors, plus one check per
/// flow of its report digests against the reference pass.
fn account(tally: &mut Tally, what: &str, reference: &PassResult, pass: &PassResult) {
    tally.add(pass.tally);
    let mut differing = digest_mismatches(&reference.prefix_digests, &pass.prefix_digests);
    tally.attempted += reference.prefix_digests.len() as u64;
    if !pass.full_digests.is_empty() {
        differing += digest_mismatches(&reference.full_digests, &pass.full_digests);
        tally.attempted += reference.full_digests.len() as u64;
    }
    if differing > 0 {
        eprintln!("harness: {what}: {differing} flow digest(s) differ from the reference pass");
    }
    tally.failed += differing;
}

fn account_oracle(tally: &mut Tally, oracle: &OracleResult) {
    tally.attempted += oracle.flows_checked;
    tally.failed += oracle.mismatches;
    if oracle.mismatches > 0 {
        eprintln!(
            "harness: {} of {} flows disagree with the hardware simulator",
            oracle.mismatches, oracle.flows_checked
        );
    }
}

/// Folds one more measurement of the same units of work into their
/// element-wise minimum. The sandbox slows down by 10–40 % for seconds
/// at a time; the fastest observation of each unit is what the code
/// costs when it is left alone, and it is the only statistic of a 20 s
/// window that repeats from run to run.
fn keep_fastest(best: &mut Vec<f64>, repeat: &[f64]) {
    if best.is_empty() {
        best.extend_from_slice(repeat);
    }
    for (b, &r) in best.iter_mut().zip(repeat) {
        *b = b.min(r);
    }
}

/// Peak resident set size of this process so far, MiB (`VmHWM`).
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is mounted");
    let kib: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kib| kib.trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kib / 1024.0
}

fn describe(notes: &mut String, what: &str, unit: &str, samples: &[f64]) {
    let _ = write!(
        notes,
        "{what}: median {:.4} {unit}, n {}",
        median(samples),
        samples.len()
    );
    if let Some((q1, q3)) = quartiles(samples) {
        let _ = write!(notes, ", quartiles {q1:.4}..{q3:.4}");
    }
    notes.push('\n');
}

fn run_untraced(spec: &Spec, config: &RunConfig) -> Outcome {
    let mut off = Tracer::new(false);
    let inputs = Inputs::generate(spec, config.seed);
    let mut notes = String::new();

    // A user's process sets up once and then serves, so that is what
    // happens before the peak memory is read; the repeats of the set-up,
    // which only its timing needs, come afterwards.
    let (engine, first_setup) = timed_setup(spec, &inputs);

    // One discarded pass: it pays the process's first-touch costs, fixes
    // the reference digests, and keeps the oracle flows' reports.
    let capture = Pass {
        capture: true,
        ..Pass::THROUGHPUT
    };
    let reference = run_pass(&engine, spec, &inputs, capture, &mut off);
    let mut tally = reference.tally;

    // The passes are short and the two kinds alternate for the whole of
    // `--seconds`, so that every step and every chunk is observed at
    // many moments of the run and a slow spell of the sandbox cannot
    // cover them all.
    let latency = Pass {
        latency: true,
        ..Pass::THROUGHPUT
    };
    let clock = Instant::now();
    let mut rep_mib_s = Vec::new();
    let (mut steps_s, mut chunk_us) = (Vec::new(), Vec::new());
    while rep_mib_s.len() < CYCLES_MIN || clock.elapsed().as_secs_f64() < config.seconds {
        let pass = run_pass(&engine, spec, &inputs, Pass::THROUGHPUT, &mut off);
        account(&mut tally, "throughput pass", &reference, &pass);
        rep_mib_s.push(pass.mib_s(spec));
        keep_fastest(&mut steps_s, &pass.steps_s);
        let pass = run_pass(&engine, spec, &inputs, latency, &mut off);
        account(&mut tally, "latency pass", &reference, &pass);
        keep_fastest(&mut chunk_us, &pass.chunk_us);
    }
    let peak_rss_mib = peak_rss_mib();

    let oracle = run_oracle(&engine, spec, &inputs, &reference.captured, &mut off);
    account_oracle(&mut tally, &oracle);

    let clock = Instant::now();
    let mut setups = vec![first_setup];
    while setups.len() < SETUPS_MIN || (setups.len() < SETUPS_MAX && clock.elapsed() < SETUP_BUDGET)
    {
        setups.push(timed_setup(spec, &inputs).1);
    }
    describe(&mut notes, "setup_s", "s", &setups);

    describe(&mut notes, "whole-pass MiB/s", "MiB/s", &rep_mib_s);
    let _ = writeln!(
        notes,
        "chunk latency over {} chunks: p50 {:.1} us, p90 {}, p99 {}",
        chunk_us.len(),
        median(&chunk_us),
        percentile(&chunk_us, 90.0).map_or("n/a".into(), |v| format!("{v:.1} us")),
        percentile(&chunk_us, 99.0).map_or("n/a".into(), |v| format!("{v:.1} us")),
    );

    let mut metrics = Metrics::default();
    metrics.set("setup_s", median(&setups));
    metrics.set(
        "scan_mib_s",
        mib_s(spec.timed_bytes(), steps_s.iter().sum()),
    );
    metrics.set("chunk_p50_us", median(&chunk_us));
    metrics.set("sim_energy_nj_per_byte", oracle.energy_nj_per_byte);
    metrics.set("sim_area_mm2", oracle.area_mm2);
    metrics.set("peak_rss_mib", peak_rss_mib);
    Outcome {
        tally,
        metrics,
        tracer: off,
        notes,
    }
}

fn run_traced(spec: &Spec, config: &RunConfig) -> Outcome {
    let mut tracer = Tracer::new(true);
    let mut off = Tracer::new(false);
    let mut m = Metrics::default();
    let mut notes = String::new();

    let inputs = tracer.leaf("bench.traffic_gen", None, || {
        Inputs::generate(spec, config.seed)
    });
    m.set(
        "bench.traffic_gen_s",
        total_s(tracer.spans(), "bench.traffic_gen"),
    );

    // ---- compile, whole and phase by phase ---------------------------
    // Everything is done twice and the faster of the two is kept: a 1 s
    // compile measured once moves by ±15 % with the sandbox's mood, more
    // than any phase but the analysis is worth.
    let rules = &inputs.rules;
    let build = |tracer: &mut Tracer, name, mode| -> Engine {
        tracer.leaf(name, None, || build_engine(rules, mode))
    };
    let engine = build(&mut tracer, "engine.build", PrefilterMode::On);
    let engine_off = build(&mut tracer, "engine.build_off", PrefilterMode::Off);
    let engine_again = build(&mut tracer, "engine.build", PrefilterMode::On);
    build(&mut tracer, "engine.build_off", PrefilterMode::Off);
    let first_replay = tracer.spans().len();
    let counts = compile_phases(rules, SHARDS, &mut tracer);
    let second_replay = tracer.spans().len();
    let again = compile_phases(rules, SHARDS, &mut tracer);
    let analysis_s = counts.analysis_s.min(again.analysis_s);

    let spans = tracer.spans();
    let replays = [&spans[first_replay..second_replay], &spans[second_replay..]];
    let phase = |name| {
        let totals = replays.map(|replay| total_s(replay, name));
        totals[0].min(totals[1])
    };
    let fastest_s = |name| {
        durations_us(spans, name)
            .into_iter()
            .fold(f64::INFINITY, f64::min)
            / 1e6
    };
    let phases_s = phase("syntax.parse")
        + phase("compiler.compile")
        + phase("hw.cost_plan")
        + phase("compiler.merge_networks")
        + phase("nca.merge");
    let (build_s, build_off_s) = (fastest_s("engine.build"), fastest_s("engine.build_off"));
    m.set("engine.build_s", build_s);
    // The prefilter's build has no public entry point; it is what a
    // build with the filter costs more than one without.
    m.set("prefilter.build_s", build_s - build_off_s);
    // = build_s − phases − prefilter.build_s.
    m.set("engine.build_unattributed_s", build_off_s - phases_s);
    m.set("syntax.parse_s", phase("syntax.parse"));
    m.set("syntax.normalize_s", phase("syntax.normalize"));
    m.set("syntax.rules_accepted", counts.rules_accepted as f64);
    m.set("syntax.rules_rejected", counts.rules_rejected as f64);
    m.set(
        "syntax.byte_classes",
        engine.set().multi().alphabet().len() as f64,
    );
    m.set("analysis.analyze_nca_s", analysis_s);
    m.set(
        "analysis.slowest_rule_s",
        counts.slowest_rule_s.min(again.slowest_rule_s),
    );
    m.set("analysis.pairs_created", counts.pairs_created as f64);
    m.set(
        "analysis.budget_exhausted_rules",
        counts.budget_exhausted_rules as f64,
    );
    m.set("analysis.check_hybrid_s", phase("analysis.check_hybrid"));
    m.set("nca.glushkov_s", phase("nca.glushkov"));
    m.set("nca.merge_s", phase("nca.merge"));
    m.set("nca.states", counts.nca_states as f64);
    m.set("nca.counters", counts.nca_counters as f64);
    m.set("compiler.compile_s", phase("compiler.compile"));
    m.set("compiler.emit_s", phase("compiler.emit"));
    m.set(
        "compiler.merge_networks_s",
        phase("compiler.merge_networks"),
    );
    m.set(
        "compiler.other_s",
        phase("compiler.compile")
            - phase("syntax.normalize")
            - phase("nca.glushkov")
            - analysis_s
            - phase("compiler.emit"),
    );
    m.set("compiler.iterations", counts.iterations as f64);
    m.set(
        "compiler.unfolded_occurrences",
        counts.unfolded_occurrences as f64,
    );
    m.set("compiler.modules_counter", counts.modules_counter as f64);
    m.set(
        "compiler.modules_bitvector",
        counts.modules_bitvector as f64,
    );
    m.set("hw.cost_plan_s", phase("hw.cost_plan"));

    let mut nodes = 0;
    let mut json_bytes = 0;
    for network in engine.networks() {
        nodes += network.node_count();
        json_bytes += tracer
            .leaf("mnrl.to_json", None, || network.to_json())
            .len();
    }
    m.set("mnrl.nodes", nodes as f64);
    m.set("mnrl.json_bytes", json_bytes as f64);
    m.set("mnrl.to_json_s", total_s(tracer.spans(), "mnrl.to_json"));

    // ---- the serving path ----------------------------------------------
    // The untraced pass is the reference for digests, ratios and the
    // tracing overhead; the traced pass right after it does the same work
    // with a span around every call.
    let capture = Pass {
        capture: true,
        ..Pass::THROUGHPUT
    };
    let reference = run_pass(&engine, spec, &inputs, capture, &mut off);
    let mut tally = reference.tally;

    let traced_from = tracer.spans().len();
    let traced = run_pass(&engine, spec, &inputs, Pass::THROUGHPUT, &mut tracer);
    let traced_spans = traced_from..tracer.spans().len();
    account(&mut tally, "traced pass", &reference, &traced);

    let latency = Pass {
        latency: true,
        ..Pass::THROUGHPUT
    };
    let latency = run_pass(&engine, spec, &inputs, latency, &mut tracer);
    account(&mut tally, "latency pass", &reference, &latency);

    let filter_off = run_pass(&engine_off, spec, &inputs, Pass::THROUGHPUT, &mut off);
    account(&mut tally, "prefilter-off pass", &reference, &filter_off);

    let two_workers = Pass {
        workers: 2,
        ..Pass::THROUGHPUT
    };
    let two_workers = run_pass(&engine, spec, &inputs, two_workers, &mut off);
    account(&mut tally, "2-worker pass", &reference, &two_workers);

    // A reload cuts every open flow's stream at the chunk boundary, so a
    // match that straddles it is lost by design: the digests are
    // compared, but a difference is a number, not a failure.
    let reload = Pass {
        reload: Some(&engine_again),
        ..Pass::THROUGHPUT
    };
    let reload = run_pass(&engine, spec, &inputs, reload, &mut off);
    tally.add(reload.tally);
    let lossless = digest_mismatches(&reference.full_digests, &reload.full_digests) == 0;

    let (batch_mib_s, batch_digests) = sched_pass(&engine, spec, &inputs, &mut tracer);
    tally.attempted += batch_digests.len() as u64;
    tally.failed += digest_mismatches(&reference.full_digests, &batch_digests);

    let oracle = run_oracle(&engine, spec, &inputs, &reference.captured, &mut tracer);
    account_oracle(&mut tally, &oracle);
    let engines = micro(&engine, spec, &inputs, &mut tracer);

    // ---- per-layer numbers of the serving path --------------------------
    let spans = &tracer.spans()[traced_spans];
    let pass_s = total_s(spans, "bench.pass");
    let calls_s: f64 = [
        "service.open",
        "service.push",
        "service.barrier",
        "service.poll",
        "service.drain_global",
        "service.close",
        "service.finishing",
    ]
    .iter()
    .map(|name| total_s(spans, name))
    .sum();
    let busy_s = traced.metrics.shard_scan_ns.iter().sum::<u64>() as f64 / 1e9;
    let median_us = |name| median(&durations_us(spans, name));
    m.set("service.spawn_s", total_s(spans, "service.spawn"));
    m.set("service.shutdown_s", total_s(spans, "service.shutdown"));
    m.set("service.open_us", median_us("service.open"));
    m.set("service.close_us", median_us("service.close"));
    m.set("service.push_us", median_us("service.push"));
    m.set("service.poll_us", median_us("service.poll"));
    m.set("service.barrier_wait_s", total_s(spans, "service.barrier"));
    m.set("service.scan_busy_s", busy_s);
    m.set("service.overhead_share", 1.0 - busy_s / pass_s);
    m.set("service.driver_unattributed_s", pass_s - calls_s);
    let _ = writeln!(
        notes,
        "traced pass: {pass_s:.3} s, of which {:.1} % outside the service's calls",
        (pass_s - calls_s) / pass_s * 100.0
    );

    // A tail percentile the sample cannot support is reported as the
    // highest one it can.
    let tail = |p| {
        percentile(&latency.chunk_us, p)
            .or_else(|| percentile(&latency.chunk_us, 90.0))
            .unwrap_or_else(|| median(&latency.chunk_us))
    };
    m.set("service.chunk_p90_us", tail(90.0));
    m.set("service.chunk_p99_us", tail(99.0));
    m.set("service.w2_mib_s", two_workers.mib_s(spec));
    m.set(
        "service.w2_speedup",
        two_workers.mib_s(spec) / reference.mib_s(spec),
    );
    m.set(
        "service.reload_ms",
        reload.reload_ms.expect("the pass reloaded"),
    );
    m.set("service.reload_lossless", f64::from(u8::from(lossless)));
    let sm = &traced.metrics;
    m.set("service.queue_depth_peak", sm.queue_depth_peak as f64);
    m.set("service.backpressure", sm.backpressure as f64);
    let faults = sm.faults;
    m.set(
        "service.faults_total",
        (faults.quarantined_flows + faults.worker_restarts + faults.shed_opens + faults.fail_stops)
            as f64,
    );
    m.set("service.reports", traced.reports as f64);
    m.set("sched.batch_mib_s", batch_mib_s);

    let hybrid = sm.hybrid.expect("every workload scans in hybrid mode");
    m.set("nca.hybrid.dfa_hit_rate", hybrid.dfa_hit_rate());
    m.set("nca.hybrid.fallback_bytes", hybrid.fallback_bytes as f64);
    m.set("nca.hybrid.dfa_states", hybrid.dfa_states as f64);
    m.set("nca.hybrid.flushes", hybrid.flushes as f64);
    m.set("nca.exact_mib_s", engines.exact_mib_s);
    m.set("nca.hybrid_mib_s", engines.hybrid_mib_s);
    m.set("nca.hybrid_cold_mib_s", engines.hybrid_cold_mib_s);
    m.set("set.stream_mib_s", engines.stream_mib_s);
    m.set("set.block_scan_mib_s", engines.block_scan_mib_s);

    let prefilter = sm
        .prefilter
        .as_ref()
        .expect("every workload serves with the prefilter on");
    let units = prefilter.total_skipped_units() as f64;
    let scanned_units = sm.shard_scan_bytes.iter().sum::<u64>() as f64 / spec.chunk as f64;
    m.set("prefilter.skip_rate", units / (units + scanned_units));
    m.set("prefilter.skipped_units", units);
    m.set("prefilter.candidate_hits", prefilter.candidate_hits as f64);
    m.set(
        "prefilter.always_on_rules",
        prefilter.always_on_rules as f64,
    );
    m.set("prefilter.off_mib_s", filter_off.mib_s(spec));
    m.set(
        "prefilter.speedup",
        reference.mib_s(spec) / filter_off.mib_s(spec),
    );

    let all = tracer.spans();
    m.set("hw.place_s", total_s(all, "hw.place"));
    m.set(
        "hw.sim_kib_s",
        oracle.sample_bytes as f64 / 1024.0 / total_s(all, "hw.sim"),
    );
    m.set("hw.banks", oracle.banks as f64);
    m.set("hw.columns", oracle.columns as f64);
    m.set("hw.counters", oracle.counters as f64);
    m.set("hw.bitvector_bits", oracle.bitvector_bits as f64);
    m.set(
        "hw.energy_match_fj_per_byte",
        oracle.energy_match_fj_per_byte,
    );
    m.set(
        "hw.energy_counter_fj_per_byte",
        oracle.energy_counter_fj_per_byte,
    );
    m.set(
        "hw.energy_bitvector_fj_per_byte",
        oracle.energy_bitvector_fj_per_byte,
    );
    m.set("hw.area_waste_mm2", oracle.area_waste_mm2);
    m.set("hw.oracle_mismatches", oracle.mismatches as f64);
    m.set("bench.oracle_s", total_s(all, "bench.oracle"));
    m.set(
        "bench.trace_overhead_pct",
        (reference.mib_s(spec) - traced.mib_s(spec)) / reference.mib_s(spec) * 100.0,
    );
    m.set("bench.error_rate", tally.error_rate());

    notes.push_str(&tracer.self_time_table());
    Outcome {
        tally,
        metrics: m,
        tracer,
        notes,
    }
}
