//! The two partitions' slices of the differential matrix
//! (`common::matrix`): for any bank plan — bank-budget next-fit, fixed
//! shard counts, and the one-bank plan — and any number of scan groups
//! (the units a flow scans, cut by the hybrid `state_budget`, never by
//! the policy), the set must report the per-pattern oracle in the same
//! order on Snort/Suricata-profile rulesets across seeds; multi-group
//! chunked streaming must report it at every chunk boundary, on the
//! scoped-thread path too; set-level spans must equal the per-pattern
//! reversed-automaton results; the per-bank hardware images must report
//! every candidate end between them; per-bank images must validate and
//! respect the bank budget; and a stream per flow moves across threads.

mod common;

use common::matrix::{
    cells, grid, pin, profile_traffic, run_knobs, Driver, Flow, Scan, DRIVERS, PREFILTERS,
};
use common::{in_scan_groups, sample_patterns};
use recama::hw::{RuleCost, ShardBudget, ShardPolicy};
use recama::workloads::BenchmarkId;
use recama::{Engine, PrefilterMode, DEFAULT_STATE_BUDGET};

/// Banks and scan groups cut apart — one bank beside seven scan groups,
/// seven banks beside one — on Snort and Suricata samples: the block
/// scan reports the per-pattern oracle. (Banks and groups cut alike, and
/// the bank images, are the pattern-set suite's samples.)
#[test]
fn sharded_reports_equal_unsharded_across_policies_and_seeds() {
    for id in [BenchmarkId::Snort, BenchmarkId::Suricata] {
        for seed in [1u64, 7, 2022] {
            let (rules, input) = profile_traffic(id, 0.004, seed, 400, 4096, 0.002);
            let flows = [Flow::fixed(&input, input.len())];
            let knobs = [(ShardPolicy::Fixed(1), 7), (ShardPolicy::Fixed(7), 1)]
                .map(|(policy, groups)| (Scan::Groups(groups), PrefilterMode::On, policy));
            let what = format!("{id:?} seed {seed}");
            run_knobs(&what, &rules, &flows, &knobs, &[Driver::Block]);
        }
    }
}

#[test]
fn bank_budget_produces_contiguous_shards_within_budget() {
    let patterns = sample_patterns(BenchmarkId::Snort, 0.004, 2022, 400);
    let budget = ShardBudget {
        columns: 24,
        counters: 8,
        bitvector_bits: 4000,
    };
    // Three scan groups beside the banks, for the alphabet check below.
    let builder = Engine::builder().patterns(&patterns);
    let engine = in_scan_groups(builder.shard_policy(ShardPolicy::Banked(budget)), 3);
    assert!(
        engine.shard_count() > 1,
        "tiny budget must force several shards"
    );
    let mut next = 0usize;
    for si in 0..engine.shard_count() {
        // Contiguous, ordered members (the invariant the ordered report
        // merge relies on).
        let members = engine.network(si).report_ids();
        for &m in &members {
            assert_eq!(m as usize, next, "shard members must be contiguous");
            next += 1;
        }
        // Each shard's merged image validates, and — since merging is a
        // disjoint union — its footprint respects the budget unless a
        // single oversize rule got its own shard.
        let network = engine.network(si);
        assert!(network.validate().is_empty(), "{:?}", network.validate());
        let cost = RuleCost::of_network(network);
        assert!(
            cost.fits(&budget) || members.len() == 1,
            "shard {si} overflows the budget with multiple rules: {cost:?}"
        );
    }
    assert_eq!(next, engine.len(), "every pattern must land in some shard");

    // The shared alphabet really is shared: every scan group's automaton
    // indexes the same number of byte classes.
    let multi = engine.set().multi();
    let class_count = multi.alphabet().len();
    assert!(multi.shards().len() >= 3);
    for group in multi.shards() {
        assert_eq!(group.alphabet().len(), class_count);
    }
}

#[test]
fn sharded_chunked_streaming_agrees_with_oneshot_at_every_boundary() {
    for (id, seed) in [(BenchmarkId::Snort, 3u64), (BenchmarkId::Suricata, 11)] {
        let (rules, input) = profile_traffic(id, 0.003, seed, 300, 2048, 0.003);
        let flows = [1, 2, 13, 64, 1000, input.len()].map(|n| Flow::fixed(&input, n));
        let knobs = grid(&[Scan::Groups(4)], &PREFILTERS, &[ShardPolicy::Single]);
        let what = format!("{id:?} seed {seed}");
        run_knobs(&what, &rules, &flows, &knobs, &[Driver::Stream]);
    }
}

/// Chunks above the parallel-feed threshold take the scoped-thread
/// fan-out path of a three-group stream; a one-group stream feeds them
/// in place.
#[test]
fn sharded_stream_agrees_with_unsharded_stream_on_large_chunks() {
    let (rules, input) = profile_traffic(BenchmarkId::Snort, 0.004, 5, 400, 3 * 8192, 0.002);
    let flows = [Flow::fixed(&input, 8192)];
    let scans = [Scan::Groups(1), Scan::Groups(3)];
    let knobs = grid(&scans, &[PrefilterMode::On], &[ShardPolicy::Single]);
    run_knobs("Snort seed 5", &rules, &flows, &knobs, &[Driver::Stream]);
}

/// Boundaries placed inside every match: each rule's planted match is
/// split across two feeds, under every driver on a three-group set, the
/// filter on and off (the one-group cells are the pattern-set suite's).
#[test]
fn streaming_matches_survive_pathological_boundaries_under_sharding() {
    let pin = pin("split");
    let knobs: Vec<_> = (cells().into_iter())
        .filter(|&(scan, ..)| scan == Scan::Groups(3))
        .collect();
    let expected = run_knobs("split", &pin.rules, &pin.flows, &knobs, &DRIVERS);
    assert!(
        !expected[0].stream.is_empty(),
        "test input must contain matches"
    );
}

/// Spans of a four-group set and of the one-group set (same code path,
/// N = 1). One more rule, `a{2,4}`, and one more flow, a run of `a`s,
/// give ends with several accepting starts: only the earliest is the
/// span's.
#[test]
fn set_spans_equal_per_pattern_spans() {
    let (mut rules, input) = profile_traffic(BenchmarkId::Suricata, 0.002, 13, 120, 2048, 0.004);
    rules.push("a{2,4}".into());
    let run = b"..aaaaaa.aaa.";
    let flows = [
        Flow::fixed(&input, input.len()),
        Flow::fixed(run, run.len()),
    ];
    for scan in [Scan::Groups(4), Scan::Hybrid(DEFAULT_STATE_BUDGET)] {
        let knobs = [(scan, PrefilterMode::On, ShardPolicy::Single)];
        run_knobs("Suricata seed 13", &rules, &flows, &knobs, &[Driver::Spans]);
    }
}

#[test]
fn sharded_hardware_images_agree_with_software() {
    let (rules, input) = profile_traffic(BenchmarkId::Suricata, 0.002, 13, 120, 1024, 0.004);
    let flows = [Flow::fixed(&input, input.len())];
    let knobs = [(
        Scan::Hybrid(DEFAULT_STATE_BUDGET),
        PrefilterMode::On,
        ShardPolicy::Fixed(3),
    )];
    // The block scan is the same as on the merged image: the bank
    // policy cuts images, not what a flow scans.
    let drivers = [Driver::Hardware];
    run_knobs("Suricata seed 13", &rules, &flows, &knobs, &drivers);
}

#[test]
fn sharded_streams_move_across_threads() {
    // One resumable engine state per scan group per flow, with flows
    // owned by worker threads — the multi-stream scheduler shape.
    let patterns = ["flow[0-9]{2}end", "k[ab]{2,5}z"];
    let engine = in_scan_groups(Engine::builder().patterns(patterns), 2);
    assert_eq!(engine.stream().group_count(), 2);
    let flows: [&[u8]; 2] = [b"..flow42end..", b"..kabz..flow07end"];
    let counts: Vec<usize> = std::thread::scope(|scope| {
        let handles: Vec<_> = flows
            .iter()
            .map(|flow| {
                let mut stream = engine.stream();
                scope.spawn(move || stream.feed(flow).count())
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert_eq!(counts, vec![1, 2]);
}
