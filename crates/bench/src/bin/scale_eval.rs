//! scale-eval: compile a benchmark ruleset at scale with bank-aware
//! sharding and print the full-scale evaluation numbers the paper's
//! Table 1 / Fig. 9 discussion turns on — shard count, per-shard image
//! size, compile time, and aggregate scan throughput (parallel over
//! shards vs one thread over the same engines).
//!
//! ```sh
//! # Full-scale Snort (Table 1: 5839 rules), one CAMA bank per shard:
//! cargo run --release -p recama-bench --bin scale_eval
//! # Software-parallelism sweep at 10% scale on an 8-core box:
//! RECAMA_SCALE=0.1 RECAMA_SHARDS=8 cargo run --release -p recama-bench --bin scale_eval
//! # CI smoke (tiny scale, exercises the multi-shard path end to end):
//! RECAMA_SCALE=0.01 RECAMA_SHARDS=3 RECAMA_TRAFFIC=8192 \
//!     cargo run --release -p recama-bench --bin scale_eval
//! ```
//!
//! Knobs: `RECAMA_SCALE` (default **1.0** here, unlike the figure
//! binaries), `RECAMA_SHARDS` (override the bank policy with a fixed
//! shard count), `RECAMA_SEED`, `RECAMA_TRAFFIC`. With `--json`, stdout
//! carries ONLY a machine-readable record (for the CI perf-tracking
//! artifact) and the human-readable report moves to stderr.

use recama::hw::{place, RuleCost, ShardPolicy};
use recama::workloads::{generate, traffic, BenchmarkId};
use recama::{Engine, HybridStats, DEFAULT_STATE_BUDGET};
use recama_bench::{banner, ms, seed, traffic_len};
use std::time::Instant;

fn main() {
    let json = std::env::args().skip(1).any(|a| a == "--json");
    macro_rules! say {
        ($($arg:tt)*) => {
            if json { eprintln!($($arg)*) } else { println!($($arg)*) }
        };
    }
    // This binary defaults to the paper's full scale.
    let scale: f64 = std::env::var("RECAMA_SCALE")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1.0);
    let policy = match std::env::var("RECAMA_SHARDS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
    {
        Some(n) => ShardPolicy::Fixed(n),
        None => ShardPolicy::default(),
    };
    let id = BenchmarkId::Snort;
    if json {
        eprintln!(
            "scale-eval: {} at scale {scale}, policy {policy:?}",
            id.name()
        );
    } else {
        banner(&format!(
            "scale-eval: {} at scale {scale}, policy {policy:?}",
            id.name()
        ));
    }

    let ruleset = generate(id, scale, seed());
    let patterns = ruleset.pattern_strings();
    let start = Instant::now();
    let engine = Engine::builder()
        .patterns(&patterns)
        .shard_policy(policy)
        .lossy(true)
        .build()
        .expect("lossy builds are infallible");
    let compile_time = start.elapsed();
    say!(
        "{} patterns ({} accepted, {} rejected), compiled+sharded in {:.0} ms",
        patterns.len(),
        engine.len(),
        engine.skipped().len(),
        ms(compile_time)
    );
    say!(
        "{} shard(s), shared alphabet: {} byte classes\n",
        engine.shard_count(),
        engine.set().multi().alphabet().len()
    );

    say!(
        "{:<6} {:>6} {:>7} {:>9} {:>9} {:>9} {:>6}",
        "shard",
        "rules",
        "nodes",
        "columns",
        "counters",
        "bv-bits",
        "banks"
    );
    let shown = engine.shard_count().min(16);
    for si in 0..shown {
        let network = engine.network(si);
        let cost = RuleCost::of_network(network);
        let placement = place(network);
        say!(
            "{:<6} {:>6} {:>7} {:>9} {:>9} {:>9} {:>6}",
            si,
            engine.set().shard_members(si).len(),
            network.node_count(),
            cost.columns,
            cost.counters,
            cost.bitvector_bits,
            placement.bank_count
        );
    }
    if shown < engine.shard_count() {
        say!("... ({} more shards)", engine.shard_count() - shown);
    }

    let input = traffic(&ruleset, traffic_len(), 0.0005, seed());
    // Warm-up + hit count.
    let hits = engine.scan(&input).len();

    // One thread over all shard engines, both scan modes: the exact
    // per-byte NCA engine (the paper-faithful baseline) vs the hybrid
    // lazy-DFA overlay the engine defaults to. Same total automaton
    // work, no parallelism — the mode comparison the overlay's speedup
    // claim rests on.
    let start = Instant::now();
    let mut nca_hits = 0usize;
    for shard in engine.set().multi().shards() {
        nca_hits += shard.engine().match_reports(&input).len();
    }
    let sequential_nca = start.elapsed();

    let start = Instant::now();
    let mut hybrid_hits = 0usize;
    let mut overlay = HybridStats::default();
    for shard in engine.set().multi().shards() {
        let mut hybrid = shard.hybrid_engine(DEFAULT_STATE_BUDGET);
        hybrid_hits += hybrid.match_reports(&input).len();
        overlay.merge(&hybrid.stats());
    }
    let sequential_hybrid = start.elapsed();

    // Parallel scan (one scoped thread per shard, engine-default mode).
    let start = Instant::now();
    let parallel_hits = engine.scan(&input).len();
    let parallel = start.elapsed();

    let mib = input.len() as f64 / (1024.0 * 1024.0);
    let nca_mib_s = mib / sequential_nca.as_secs_f64();
    let hybrid_mib_s = mib / sequential_hybrid.as_secs_f64();
    say!(
        "\nscan of {} bytes: {hits} reports \
         \n  sequential, exact NCA:  {:>8.1} ms ({:.3} MiB/s)\
         \n  sequential, hybrid:     {:>8.1} ms ({:.3} MiB/s) \
         [{:.2}x, {} DFA states over the shard caches, {:.1}% DFA bytes, {} fallback bytes]\
         \n  parallel over shards:   {:>8.1} ms ({:.3} MiB/s)\
         \n  speedup: {:.2}x on {} core(s)",
        input.len(),
        ms(sequential_nca),
        nca_mib_s,
        ms(sequential_hybrid),
        hybrid_mib_s,
        hybrid_mib_s / nca_mib_s.max(1e-9),
        overlay.dfa_states,
        overlay.dfa_hit_rate() * 100.0,
        overlay.fallback_bytes,
        ms(parallel),
        mib / parallel.as_secs_f64(),
        sequential_hybrid.as_secs_f64() / parallel.as_secs_f64().max(1e-9),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );
    assert_eq!(
        parallel_hits, hits,
        "parallel scan must be deterministic across runs"
    );
    assert_eq!(
        hybrid_hits, nca_hits,
        "hybrid overlay must report exactly what the exact engine reports"
    );
    assert!(
        nca_hits >= hits,
        "per-shard engines must cover every report (streams skip the $-filter)"
    );

    if json {
        // Machine-readable record for the CI perf-tracking artifact.
        // `sequential_mib_per_s` keeps its historical meaning (the exact
        // NCA baseline); the `modes` rows carry the per-mode breakdown.
        println!(
            "{{\"bench\":\"scale_eval\",\"scale\":{scale},\"patterns\":{},\"accepted\":{},\
             \"shards\":{},\"byte_classes\":{},\"compile_ms\":{:.1},\"traffic_bytes\":{},\
             \"hits\":{hits},\"sequential_mib_per_s\":{:.3},\"parallel_mib_per_s\":{:.3},\
             \"speedup\":{:.3},\"modes\":[\
             {{\"scan_mode\":\"nca\",\"sequential_mib_per_s\":{:.3}}},\
             {{\"scan_mode\":\"hybrid\",\"sequential_mib_per_s\":{:.3},\
             \"state_budget\":{DEFAULT_STATE_BUDGET},\"dfa_states\":{},\
             \"dfa_hit_rate\":{:.4},\"fallback_bytes\":{},\
             \"exact_state_steps\":{}}}]}}",
            patterns.len(),
            engine.len(),
            engine.shard_count(),
            engine.set().multi().alphabet().len(),
            ms(compile_time),
            input.len(),
            nca_mib_s,
            mib / parallel.as_secs_f64(),
            sequential_nca.as_secs_f64() / parallel.as_secs_f64().max(1e-9),
            nca_mib_s,
            hybrid_mib_s,
            overlay.dfa_states,
            overlay.dfa_hit_rate(),
            overlay.fallback_bytes,
            overlay.exact_state_steps,
        );
    }
}
