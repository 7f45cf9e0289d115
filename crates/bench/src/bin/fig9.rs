//! Fig. 9: total number of MNRL nodes of the compiled machine image as a
//! function of the unfolding threshold, for the four hardware benchmarks
//! (Snort, Suricata, SpamAssassin, Protomata). The rightmost point of each
//! curve is full unfolding.
//!
//! ```sh
//! RECAMA_SCALE=0.02 cargo run --release -p recama-bench --bin fig9
//! ```

use recama::compiler::CompileOptions;
use recama::hw::ShardPolicy;
use recama::nca::UnfoldPolicy;
use recama::workloads::{generate, BenchmarkId};
use recama::Engine;
use recama_bench::{banner, scale, seed};

fn main() {
    let scale = scale();
    banner(&format!(
        "Fig. 9: # MNRL nodes vs unfolding threshold (scale {scale})"
    ));
    let thresholds: [(&str, UnfoldPolicy); 9] = [
        ("none", UnfoldPolicy::None),
        ("5", UnfoldPolicy::UpTo(5)),
        ("10", UnfoldPolicy::UpTo(10)),
        ("25", UnfoldPolicy::UpTo(25)),
        ("50", UnfoldPolicy::UpTo(50)),
        ("100", UnfoldPolicy::UpTo(100)),
        ("250", UnfoldPolicy::UpTo(250)),
        ("1000", UnfoldPolicy::UpTo(1000)),
        ("all", UnfoldPolicy::All),
    ];
    print!("{:<14}", "benchmark");
    for (label, _) in &thresholds {
        print!(" {label:>9}");
    }
    println!();
    for id in BenchmarkId::HARDWARE {
        let ruleset = generate(id, scale, seed());
        let patterns = ruleset.pattern_strings();
        print!("{:<14}", id.name());
        for (_, policy) in &thresholds {
            // The whole ruleset as one machine image; rules outside the
            // fragment are skipped.
            let engine = Engine::builder()
                .patterns(&patterns)
                .options(CompileOptions {
                    unfold: *policy,
                    ..Default::default()
                })
                .shard_policy(ShardPolicy::Single)
                .lossy(true)
                .build()
                .expect("lossy builds are infallible");
            let network = engine.network(0);
            print!(" {:>9}", network.node_count());
        }
        println!();
    }
    println!("\n(Each row is one curve of Fig. 9; node counts are linear in STE counts.)");
}
