//! Network intrusion detection: scan synthetic traffic with a Snort-like
//! ruleset and compare the augmented design against pure unfolding —
//! the workload family where the paper reports up to 76% energy and 58%
//! area reduction (§4.3).
//!
//! ```sh
//! cargo run --release --example network_ids
//! ```

use recama::compiler::CompileOptions;
use recama::hw::{run, AreaGranularity, ShardPolicy};
use recama::nca::UnfoldPolicy;
use recama::workloads::{generate, traffic, BenchmarkId};
use recama::Engine;

fn main() {
    // A 1%-scale Snort-like ruleset (58 rules) and 16 KiB of traffic with
    // planted matches.
    let ruleset = generate(BenchmarkId::Snort, 0.01, 2022);
    let patterns = ruleset.pattern_strings();
    let input = traffic(&ruleset, 16 * 1024, 0.0005, 7);
    println!(
        "ruleset: {} patterns ({} with counting)",
        patterns.len(),
        ruleset.intended_table1().counting
    );

    let mut results = Vec::new();
    for (label, unfold) in [
        ("augmented (counters + bit vectors)", UnfoldPolicy::None),
        ("unfold ≤ 50", UnfoldPolicy::UpTo(50)),
        ("unfold all (CAMA baseline)", UnfoldPolicy::All),
    ] {
        // One machine image for the whole ruleset (one bank plan shard).
        let design = Engine::builder()
            .patterns(&patterns)
            .options(CompileOptions {
                unfold,
                ..Default::default()
            })
            .shard_policy(ShardPolicy::Single)
            .lossy(true)
            .build()
            .expect("lossy builds are infallible");
        let network = design.network(0);
        let report = run(network, &input, AreaGranularity::WholeModule);
        println!(
            "{label:38} {:>7} nodes  {:>9.4} nJ/B  {:>8.5} mm²  {} reports",
            network.node_count(),
            report.energy.nj_per_byte(),
            report.area.total_mm2(),
            report.match_ends.len()
        );
        results.push((label, report.energy.nj_per_byte(), report.match_ends));
    }

    // All three configurations implement the same rules: reports agree.
    assert_eq!(
        results[0].2, results[2].2,
        "designs must report identically"
    );
    let reduction = 100.0 * (1.0 - results[0].1 / results[2].1);
    println!("\nenergy reduction of the augmented design vs unfolding: {reduction:.1}%");

    // The software twin of the same deployment: the whole ruleset behind
    // the `Engine` facade, attributing hits to rules. The bank plan cuts
    // the machine images; what a flow scans is cut by whether the
    // lazy-DFA rows fit, so the two counts need not agree.
    let engine = Engine::builder()
        .patterns(&patterns)
        .lossy(true)
        .build()
        .expect("lossy builds are infallible");
    let hits = engine.scan(&input);
    let mut per_rule = vec![0usize; engine.len()];
    for m in &hits {
        per_rule[m.pattern] += 1;
    }
    if let Some((rule, count)) = per_rule.iter().enumerate().max_by_key(|&(_, n)| n) {
        println!(
            "software engine: {} bank image(s), {} scan group(s), {} reports; \
             hottest rule {:?} with {} hits",
            engine.shard_count(),
            engine.scan_groups().len(),
            hits.len(),
            engine.pattern(rule),
            count
        );
    }

    // An IDS tap serves many concurrent connections, not one buffer:
    // the owned service hands MTU-sized chunks to per-connection flows
    // and scans them on its own worker pool. Each flow carries the same
    // traffic here, so all flows must agree with each other.
    let svc = engine.serve();
    let flows: Vec<_> = (0..4)
        .map(|_| svc.try_open_flow().expect("nothing sheds by default"))
        .collect();
    for chunk in input.chunks(1500) {
        for flow in &flows {
            svc.push_checked(*flow, chunk)
                .expect("open flow, healthy service");
        }
    }
    for flow in &flows {
        svc.close(*flow);
    }
    svc.barrier();
    let per_flow: Vec<usize> = flows
        .iter()
        .map(|f| svc.poll_checked(*f).expect("live flow").len())
        .collect();
    let metrics = svc.metrics();
    println!(
        "served {} flows: {per_flow:?} reports; {} B scanned across {} scan group(s), queue peak {}",
        flows.len(),
        metrics.shard_scan_bytes.iter().sum::<u64>(),
        metrics.shard_scan_bytes.len(),
        metrics.queue_depth_peak
    );
    assert!(
        per_flow.iter().all(|&n| n == per_flow[0]),
        "identical flows must report identically"
    );

    // The literal-prefilter block: per-(flow, group) chunks skipped
    // because no required literal appeared, and how many rules opted
    // out of filtering. Snort-profile sets carry Σ*-family counting
    // rules (no extractable literal), and a scan group that holds one
    // stays always-on — the counters make that cost visible per
    // deployment.
    if let Some(pf) = &metrics.prefilter {
        println!(
            "prefilter: skipped units per scan group {:?} ({} B total), {} candidate wakes, \
             {} always-on rules",
            pf.skipped_units,
            pf.total_skipped_bytes(),
            pf.candidate_hits,
            pf.always_on_rules
        );
    }
    // Every report left through its flow's poll, and the service keeps
    // no second copy: nothing is left for a global drain.
    assert!(
        svc.drain_global().is_empty(),
        "polled reports must not linger in the service"
    );
    svc.shutdown();
}
