//! Per-layer measurements of the traced run that do not go through the
//! service: the compile pipeline phase by phase, single engines over a
//! flat buffer, and the batch scheduler on the service's arrival pattern.
//!
//! Everything here calls the layers' public functions from outside, the
//! way [`recama::EngineBuilder::build`] does inside, with a span around
//! each call.

use crate::serve::{fold, mib_s, DIGEST_SEED, FINISHING_MARK};
use crate::spec::{Inputs, Spec};
use crate::trace::Tracer;
use recama::analysis::{check, glushkov_build, CheckConfig, Method};
use recama::compiler::{compile, emit, merge_rule_networks, CompileOptions, ModuleKind};
use recama::hw::{RuleCost, ShardPlan, ShardPolicy};
use recama::nca::{CompilePlan, Nca, ShardedMulti, StateId};
use recama::syntax::{normalize_for_nca, parse};
use recama::{Engine, RuleMatch, DEFAULT_STATE_BUDGET};
use std::hint::black_box;
use std::time::Instant;

/// Counts the compile pipeline produced; its times are in the tracer,
/// but for the analysis.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CompileCounts {
    /// Σ time `compile` spent in its analysis runs, by the library's own
    /// timer (`CompileReport.analysis_stats.duration`), seconds. Calling
    /// `analyze_nca` again from outside on the finished automaton takes
    /// 15–20 % longer than the same call took inside `compile`, so the
    /// replay would overstate the phase that owns the compile time.
    pub analysis_s: f64,
    /// The largest single rule's share of `analysis_s`, seconds.
    pub slowest_rule_s: f64,
    /// Rules the parser accepted.
    pub rules_accepted: u64,
    /// Rules outside the supported fragment.
    pub rules_rejected: u64,
    /// Σ token pairs the compiler's analysis runs created.
    pub pairs_created: u64,
    /// Rules whose analysis ran out of budget.
    pub budget_exhausted_rules: u64,
    /// Σ analyze→decide→unfold iterations.
    pub iterations: u64,
    /// Σ counting occurrences removed by unfolding.
    pub unfolded_occurrences: u64,
    /// Counting occurrences given a counter module.
    pub modules_counter: u64,
    /// Counting occurrences given a bit-vector module.
    pub modules_bitvector: u64,
    /// Σ states of the per-rule NCAs.
    pub nca_states: u64,
    /// Σ counters of the per-rule NCAs.
    pub nca_counters: u64,
}

/// Replays `EngineBuilder::build` over `rules` one public call at a
/// time: parse, compile (and its normalize / Glushkov / emit parts again
/// on their own), the paper's hybrid checker, cost and shard planning,
/// network merge, and the sharded automaton merge.
pub fn compile_phases(rules: &[String], shards: usize, tracer: &mut Tracer) -> CompileCounts {
    let options = CompileOptions::default();
    let mut counts = CompileCounts::default();
    let mut outputs = Vec::new();
    // First exactly what `build` does — parse and compile, rule after
    // rule, keeping every output — so that the replayed compile time is
    // the one `build` pays; the parts of `compile` are called on their
    // own afterwards. (Interleaving them changes what the allocator has
    // to hand when the next rule's analysis asks for its tables, and
    // moved the compile total by 10 %.)
    let mut regexes = Vec::new();
    for rule in rules {
        let Ok(parsed) = tracer.leaf("syntax.parse", None, || parse(rule)) else {
            counts.rules_rejected += 1;
            continue;
        };
        counts.rules_accepted += 1;
        let regex = parsed.for_stream();
        let out = tracer.leaf("compiler.compile", None, || compile(&regex, &options));

        let stats = out.report.analysis_stats;
        counts.analysis_s += stats.duration.as_secs_f64();
        counts.slowest_rule_s = counts.slowest_rule_s.max(stats.duration.as_secs_f64());
        counts.pairs_created += stats.pairs_created;
        counts.budget_exhausted_rules += u64::from(stats.budget_exhausted);
        counts.iterations += u64::from(out.report.iterations);
        counts.unfolded_occurrences += u64::from(out.report.unfolded_occurrences);
        for module in &out.modules {
            match module {
                ModuleKind::Counter => counts.modules_counter += 1,
                ModuleKind::BitVector => counts.modules_bitvector += 1,
            }
        }
        counts.nca_states += out.nca.state_count() as u64;
        counts.nca_counters += out.nca.counters().len() as u64;
        regexes.push(regex);
        outputs.push(out);
    }
    for (regex, out) in regexes.iter().zip(&outputs) {
        black_box(tracer.leaf("syntax.normalize", None, || normalize_for_nca(regex)));
        black_box(tracer.leaf("nca.glushkov", None, || glushkov_build(&out.normalized)));
        black_box(tracer.leaf("compiler.emit", None, || {
            emit(&out.nca, &out.modules, "regex")
        }));
        black_box(tracer.leaf("analysis.check_hybrid", None, || {
            check(regex, Method::Hybrid, &CheckConfig::default())
        }));
    }

    let plan = tracer.leaf("hw.cost_plan", None, || {
        let costs: Vec<RuleCost> = outputs
            .iter()
            .map(|out| RuleCost::of_network(&out.network))
            .collect();
        ShardPlan::plan(&costs, ShardPolicy::Fixed(shards))
    });
    for (si, members) in plan.shards().iter().enumerate() {
        black_box(tracer.leaf("compiler.merge_networks", None, || {
            merge_rule_networks(
                &format!("pattern-set-shard{si}"),
                members.iter().map(|&g| (g, g as u32, &outputs[g].network)),
            )
        }));
    }
    black_box(tracer.leaf("nca.merge", None, || {
        let parts: Vec<(&Nca, CompilePlan)> = outputs
            .iter()
            .map(|out| {
                let plan = CompilePlan::optimized(&out.nca, |q: StateId| {
                    out.analysis.state_unambiguous(q)
                });
                (&out.nca, plan)
            })
            .collect();
        ShardedMulti::merge(&parts, plan.shards())
    }));
    counts
}

/// Throughput of single engines over a flat buffer, MiB/s.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Micro {
    /// Exact NCA engines, shard after shard, over the oracle sample.
    pub exact_mib_s: f64,
    /// Hybrid engines with a filled cache, shard after shard.
    pub hybrid_mib_s: f64,
    /// Fresh hybrid engines over 2 KiB each, construction included.
    pub hybrid_cold_mib_s: f64,
    /// One flow through `Engine::stream().feed` in 2 KiB chunks.
    pub stream_mib_s: f64,
    /// `Engine::scan` over the whole buffer at once.
    pub block_scan_mib_s: f64,
}

/// Chunk size of the streaming and cold-start micro measurements.
const MICRO_CHUNK: usize = 2048;

/// Times single engines of `engine` over the start of the traffic.
pub fn micro(engine: &Engine, spec: &Spec, inputs: &Inputs, tracer: &mut Tracer) -> Micro {
    let multi = engine.set().multi();
    let sample = inputs.prefix(spec.oracle_flows * spec.oracle_bytes);
    let buffer = inputs.prefix(spec.micro_bytes);
    let timed = |tracer: &mut Tracer, name, bytes: usize, work: &mut dyn FnMut()| {
        let t = Instant::now();
        tracer.leaf(name, None, work);
        mib_s(bytes as u64, t.elapsed().as_secs_f64())
    };

    let exact_mib_s = timed(tracer, "nca.exact", sample.len(), &mut || {
        for shard in multi.shards() {
            black_box(shard.engine().match_reports(sample));
        }
    });

    let mut warm: Vec<_> = multi
        .shards()
        .iter()
        .map(|shard| shard.hybrid_engine(DEFAULT_STATE_BUDGET))
        .collect();
    for engine in &mut warm {
        black_box(engine.match_reports(sample));
    }
    let hybrid_mib_s = timed(tracer, "nca.hybrid", buffer.len(), &mut || {
        for engine in &mut warm {
            black_box(engine.match_reports(buffer));
        }
    });

    let cold_flows = (buffer.len() / MICRO_CHUNK).min(256);
    let cold_bytes = cold_flows * MICRO_CHUNK;
    let hybrid_cold_mib_s = timed(tracer, "nca.hybrid_cold", cold_bytes, &mut || {
        for chunk in buffer[..cold_bytes].chunks(MICRO_CHUNK) {
            for shard in multi.shards() {
                let mut fresh = shard.hybrid_engine(DEFAULT_STATE_BUDGET);
                black_box(fresh.match_reports(chunk));
            }
        }
    });

    let stream_mib_s = timed(tracer, "set.stream", buffer.len(), &mut || {
        let mut stream = engine.stream();
        for chunk in buffer.chunks(MICRO_CHUNK) {
            black_box(stream.feed(chunk).count());
        }
    });

    let block_scan_mib_s = timed(tracer, "set.block_scan", buffer.len(), &mut || {
        black_box(engine.scan(buffer));
    });

    Micro {
        exact_mib_s,
        hybrid_mib_s,
        hybrid_cold_mib_s,
        stream_mib_s,
        block_scan_mib_s,
    }
}

/// One throughput pass of `spec` through the batch scheduler
/// (`Engine::scheduler_with(1)`: `push` / `run` / `poll`) instead of the
/// service: same flows, same chunks, same rounds, same timed window.
/// Returns MiB/s and the per-flow report digests, which must equal the
/// service's.
pub fn sched_pass(
    engine: &Engine,
    spec: &Spec,
    inputs: &Inputs,
    tracer: &mut Tracer,
) -> (f64, Vec<u64>) {
    let sched = engine.scheduler_with(1);
    let whole = tracer.enter("sched.pass", None);
    let rule_match = |m: recama::SetMatch| RuleMatch {
        rule: engine.rule_id(m.pattern),
        end: m.end as u64,
    };
    let mut digests = Vec::with_capacity(spec.total_flows());
    let mut started: Option<Instant> = None;
    let mut wall_s = 0.0;
    for wave in 0..spec.waves {
        if spec.churn {
            started.get_or_insert_with(Instant::now);
        }
        let first = wave * spec.flows_per_wave;
        let mut live = vec![DIGEST_SEED; spec.flows_per_wave];
        for round in 0..spec.rounds {
            if round == spec.warm_rounds {
                started.get_or_insert_with(Instant::now);
            }
            for i in 0..live.len() {
                sched.push(
                    (first + i) as u64,
                    inputs.chunk(first + i, round, spec.chunk),
                );
            }
            tracer.leaf("sched.run", None, || sched.run());
            for (i, digest) in live.iter_mut().enumerate() {
                let reports = sched.poll((first + i) as u64);
                *digest = reports
                    .into_iter()
                    .fold(*digest, |d, m| fold(d, &rule_match(m)));
            }
            sched.drain_global();
        }
        if !spec.churn {
            wall_s = started.expect("timed rounds ran").elapsed().as_secs_f64();
        }
        for i in 0..live.len() {
            sched.close((first + i) as u64);
        }
        tracer.leaf("sched.run", None, || sched.run());
        for (i, digest) in live.iter_mut().enumerate() {
            let flow = (first + i) as u64;
            let polled = sched.poll(flow);
            let finishing = sched.finishing(flow);
            *digest = polled
                .into_iter()
                .map(rule_match)
                .chain(std::iter::once(FINISHING_MARK))
                .chain(finishing.into_iter().map(rule_match))
                .fold(*digest, |d, m| fold(d, &m));
        }
        sched.drain_global();
        if spec.churn {
            wall_s = started.expect("timed waves ran").elapsed().as_secs_f64();
        }
        digests.extend(live);
    }
    tracer.exit(whole);
    (mib_s(spec.timed_bytes(), wall_s), digests)
}
