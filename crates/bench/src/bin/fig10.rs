//! Fig. 10: per-input-byte energy (left) and total area with waste (right)
//! of the augmented CAMA across unfolding thresholds, for the four
//! hardware benchmarks on synthetic traffic.
//!
//! ```sh
//! RECAMA_SCALE=0.02 RECAMA_TRAFFIC=16384 cargo run --release -p recama-bench --bin fig10
//! ```

use recama::compiler::CompileOptions;
use recama::hw::{run, AreaGranularity, ShardPolicy};
use recama::nca::UnfoldPolicy;
use recama::workloads::{generate, traffic, BenchmarkId};
use recama::Engine;
use recama_bench::{banner, scale, seed, threshold_label, traffic_len};

fn main() {
    let scale = scale();
    let input_len = traffic_len();
    banner(&format!(
        "Fig. 10: augmented-CAMA energy and area per unfolding threshold (scale {scale}, {input_len} B traffic)"
    ));
    let thresholds = [
        UnfoldPolicy::UpTo(5),
        UnfoldPolicy::UpTo(10),
        UnfoldPolicy::UpTo(25),
        UnfoldPolicy::UpTo(50),
        UnfoldPolicy::UpTo(100),
        UnfoldPolicy::All,
    ];
    println!(
        "{:<14} {:<12} {:>12} {:>11} {:>11} {:>9} {:>9}",
        "benchmark", "threshold", "energy nJ/B", "area mm2", "waste mm2", "nodes", "reports"
    );
    for id in BenchmarkId::HARDWARE {
        let ruleset = generate(id, scale, seed());
        let patterns = ruleset.pattern_strings();
        let input = traffic(&ruleset, input_len, 0.0005, seed());
        let mut best_energy = f64::INFINITY;
        let mut unfold_all_energy = 0.0;
        let mut best_area = f64::INFINITY;
        let mut unfold_all_area = 0.0;
        for &policy in &thresholds {
            // The whole ruleset as one machine image; rules outside the
            // fragment are skipped.
            let engine = Engine::builder()
                .patterns(&patterns)
                .options(CompileOptions {
                    unfold: policy,
                    ..Default::default()
                })
                .shard_policy(ShardPolicy::Single)
                .lossy(true)
                .build()
                .expect("lossy builds are infallible");
            let network = engine.network(0);
            let report = run(network, &input, AreaGranularity::WholeModule);
            let energy = report.energy.nj_per_byte();
            let area = report.area.total_mm2();
            println!(
                "{:<14} {:<12} {:>12.5} {:>11.6} {:>11.6} {:>9} {:>9}",
                id.name(),
                format!("unfold {}", threshold_label(policy)),
                energy,
                area,
                report.area.waste_um2 / 1e6,
                network.node_count(),
                report.match_ends.len()
            );
            best_energy = best_energy.min(energy);
            best_area = best_area.min(area);
            if policy == UnfoldPolicy::All {
                unfold_all_energy = energy;
                unfold_all_area = area;
            }
        }
        println!(
            "{:<14} => energy reduction vs unfold-all: {:.0}%   area reduction: {:.0}%\n",
            id.name(),
            100.0 * (1.0 - best_energy / unfold_all_energy),
            100.0 * (1.0 - best_area / unfold_all_area)
        );
    }
    println!("(Paper: up to 76% energy / 58% area reduction for Snort & Suricata;");
    println!(" little to no overhead for Protomata & SpamAssassin.)");
}
