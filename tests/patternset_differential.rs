//! The multi-pattern subsystem's slices of the differential matrix
//! (`common::matrix`): on synthetic Snort- and Suricata-profile rulesets
//! (several seeds, small scale), every driver — block scan, spans,
//! stream, scheduler, service and each bank's hardware simulator — must
//! report the per-pattern oracle, for every bank policy, with the
//! literal prefilter on and off, in one and in many scan groups;
//! chunked streaming must report it at every chunk boundary; the merged
//! image's hardware simulator must report every candidate end; and the
//! merged MNRL network must validate, place, carry per-pattern report
//! ids and keep each pattern's compile decisions.

mod common;

use common::matrix::{
    cells, grid, knobs, pin, profile_sample, profile_traffic, random_chunks, run_knobs, Driver,
    Flow, Scan, DRIVERS, PREFILTERS,
};
use common::{sample_patterns, set_with};
use rand::rngs::StdRng;
use rand::SeedableRng;
use recama::compiler::CompileOptions;
use recama::hw::ShardPolicy;
use recama::workloads::{generate, traffic, BenchmarkId};
use recama::{Engine, PrefilterMode, SetMatch, DEFAULT_STATE_BUDGET};

/// What a default build scans with.
const DEFAULT: Scan = Scan::Hybrid(DEFAULT_STATE_BUDGET);

/// A Snort or Suricata sample at scale 0.004, seeds 1, 7 and 2022, plus
/// a trailing-`$` rule (one candidate inside the haystack, one on its
/// final byte) and a rule without a required literal (always-on: its
/// scan group scans every byte), on its generator's traffic: a flow of
/// 4 KiB pushed as one large chunk and a short one, two shorter flows in
/// random and fixed chunks, and an empty one. Every driver but spans
/// runs each sample in three scan groups and under a budget of 7 or 4096
/// states, with one (prefilter, bank policy) pair; the six samples take
/// each pair once. (A budget of 1 flushes on every byte of
/// these rules; the pool and the pins take it.)
#[test]
fn snort_and_suricata_sets_match_per_pattern_union() {
    // Spans walk each pattern back on its own: the sharded suite's
    // `set_spans_equal_per_pattern_spans` takes them on these profiles.
    let drivers: Vec<Driver> = (DRIVERS.into_iter())
        .filter(|&d| d != Driver::Spans)
        .collect();
    for (r, (id, seed)) in [BenchmarkId::Snort, BenchmarkId::Suricata]
        .into_iter()
        .flat_map(|id| [1u64, 7, 2022].map(|seed| (id, seed)))
        .enumerate()
    {
        let (rules, main) = profile_sample(id, seed);
        let filtered = Engine::builder()
            .patterns(&rules)
            .prefilter(PrefilterMode::On);
        let filtered = filtered.build().unwrap();
        let metrics = filtered.serve().metrics();
        let always_on = metrics.prefilter.expect("the filter is on").always_on_rules;
        assert!(always_on >= 1, "{id:?}/{seed}");
        let ruleset = generate(id, 0.004, seed);
        let shorter = traffic(&ruleset, 1024, 0.002, seed * 31 + 1);
        let chunks = random_chunks(shorter.len(), &mut StdRng::seed_from_u64(seed));
        let flows = [
            Flow::fixed(&main, 4096),
            Flow::split(&shorter, chunks),
            Flow::fixed(&traffic(&ruleset, 512, 0.004, seed * 31 + 2), 13),
            Flow::fixed(b"", 1),
        ];
        let pair = 4 * (r % 2) + 8 * (r / 2);
        let knobs = [3, 1 + r % 2].map(|scan| knobs(pair + scan));
        let what = format!("{id:?} seed {seed}");
        let expected = run_knobs(&what, &rules, &flows, &knobs, &drivers);
        let dollar = rules.len() - 2;
        let kept: Vec<_> = (expected[0].finish.iter())
            .filter(|m| m.pattern == dollar)
            .collect();
        let last = SetMatch {
            pattern: dollar,
            end: main.len(),
        };
        assert_eq!(
            kept,
            [&last],
            "{what}: the `$` rule keeps only the match that ends the haystack"
        );
    }
}

#[test]
fn one_percent_snort_acceptance() {
    // The acceptance-criteria configuration: 1%-scale Snort, one merged
    // network, valid and placed, with per-pattern report ids, reporting
    // the per-pattern oracle on generated traffic.
    let (patterns, input) = profile_traffic(BenchmarkId::Snort, 0.01, 2022, 600, 4096, 0.001);
    let engine = set_with(&patterns, ShardPolicy::Single);
    assert!(
        engine.network(0).validate().is_empty(),
        "{:?}",
        engine.network(0).validate()
    );
    let expected_ids: Vec<u32> = (0..patterns.len() as u32).collect();
    assert_eq!(engine.network(0).report_ids(), expected_ids);

    // Placement covers the merged image.
    let placement = recama::hw::place(engine.network(0));
    assert_eq!(placement.per_node.len(), engine.network(0).node_count());

    let flows = [Flow::fixed(&input, input.len())];
    let knobs = [(DEFAULT, PrefilterMode::On, ShardPolicy::Single)];
    run_knobs("Snort 0.01", &patterns, &flows, &knobs, &[Driver::Block]);
}

#[test]
fn chunked_streaming_agrees_with_oneshot_at_every_boundary() {
    for (id, seed) in [(BenchmarkId::Snort, 3u64), (BenchmarkId::Suricata, 11)] {
        let (rules, input) = profile_traffic(id, 0.003, seed, 300, 2048, 0.003);
        let flows = [1, 2, 13, 64, 1000, input.len()].map(|n| Flow::fixed(&input, n));
        let knobs = grid(&[DEFAULT], &PREFILTERS, &[ShardPolicy::Single]);
        let what = format!("{id:?} seed {seed}");
        run_knobs(&what, &rules, &flows, &knobs, &[Driver::Stream]);
    }
}

/// Boundaries placed inside every match: each rule's planted match is
/// split across two feeds, under every driver in the one-group cells of
/// the eight (the three-group ones are the sharded suite's).
#[test]
fn streaming_matches_survive_pathological_boundaries() {
    let pin = pin("split");
    let knobs: Vec<_> = (cells().into_iter())
        .filter(|&(scan, ..)| scan != Scan::Groups(3))
        .collect();
    let expected = run_knobs("split", &pin.rules, &pin.flows, &knobs, &DRIVERS);
    assert!(
        !expected[0].stream.is_empty(),
        "test input must contain matches"
    );
}

#[test]
fn module_decisions_are_preserved_per_pattern() {
    // Merging must not change what the compiler decided per pattern:
    // compile the same patterns alone and as a set and compare modules.
    let patterns = sample_patterns(BenchmarkId::Snort, 0.004, 5, 400);
    let engine = set_with(&patterns, ShardPolicy::Single);
    for (i, p) in patterns.iter().enumerate() {
        let alone = recama::compiler::compile(
            &recama::syntax::parse(p).unwrap().for_stream(),
            &CompileOptions::default(),
        );
        assert_eq!(
            alone.modules,
            engine.outputs()[i].modules,
            "pattern {p}: module decisions changed under merging"
        );
    }
}

#[test]
fn hardware_reports_agree_with_software_on_the_merged_image() {
    let (rules, input) = profile_traffic(BenchmarkId::Suricata, 0.002, 13, 120, 1024, 0.004);
    let flows = [Flow::fixed(&input, input.len())];
    let knobs = [(DEFAULT, PrefilterMode::On, ShardPolicy::Single)];
    let drivers = [Driver::Hardware, Driver::Block];
    run_knobs("Suricata seed 13", &rules, &flows, &knobs, &drivers);
}
