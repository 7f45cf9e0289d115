//! The literal prefilter (MPM) on its own terms. Whether a prefiltered
//! engine reports what every other driver does is the differential
//! matrix (`common::matrix`; the filter is one axis of it); this suite
//! runs three slices of that matrix — a block of random pool cases with
//! the filter on and off, required literals split at every chunk
//! boundary, and a wake that replays the tail on the stream's parallel
//! path — and referees what the filter decides. Every `(group, chunk)` verdict — skip, or wake at the first
//! literal end — and the bytes the filter walks are checked against
//! a naive substring search, on short chunks and on chunks long enough
//! for its lanes; a chunk is walked once whatever the number of scan
//! groups; rulesets where every rule is always-on never skip, benign
//! traffic skips every unit; the two drivers read the same counters; a
//! hot reload that changes the literal set mid-flow recompiles the
//! filter; and — under `--features fault-inject` — a quarantined flow
//! leaves every other flow's filter state intact.

mod common;

use common::in_scan_groups;
use common::matrix::{cells, knobs, pin, run_knobs, run_pool, Flow, DRIVERS, POOL, PREFILTERS};
use proptest::prelude::*;
use recama::{Engine, PrefilterMode, ServeConfig};

fn engine(patterns: &[&str], mode: PrefilterMode) -> Engine {
    Engine::builder()
        .patterns(patterns)
        .prefilter(mode)
        .build()
        .unwrap()
}

/// The last block of thirty pool cases — literal-bearing, always-on and
/// `$` rules mixed, each knob cell at least once, with the filter on and
/// off — under every driver: the filtered and unfiltered engines
/// both report the oracle. A build keeps the mode it was given.
#[test]
fn prefiltered_agrees_with_unfiltered_and_per_pattern_union() {
    for mode in PREFILTERS {
        let built = Engine::builder().patterns(POOL).prefilter(mode);
        let filtered = built.build().unwrap().serve().metrics().prefilter.is_some();
        assert_eq!(filtered, mode == PrefilterMode::On);
    }
    run_pool(3);
}

/// Boundaries placed inside every required literal: the filter's
/// automaton state and the replay tail must reassemble matches the
/// skipped chunks began, under every driver in the eight cells — in the
/// scheduler and the service, the cold-unit skip rewinds the parked
/// engine rather than feeding it.
#[test]
fn literals_split_across_every_chunk_boundary() {
    let pin = pin("literals");
    let expected = run_knobs("literals", &pin.rules, &pin.flows, &cells(), &DRIVERS);
    assert!(
        !expected[0].stream.is_empty(),
        "test input must contain matches"
    );
}

/// Chunks of 4 KiB on a multi-group set. Each rule's literal sits behind
/// a bounded lead, and the first chunk — benign until its last bytes —
/// ends inside that lead: both units skip it, then wake on the second
/// chunk and replay the match's start from the tail. Purely benign
/// 4 KiB flows report nothing.
#[test]
fn a_wake_replays_the_tail_on_the_stream_path() {
    const LARGE: usize = 4096;
    let rules: Vec<String> = ["k\\d{4}needle", "q\\d{3}magic", "magic", "hdr[0-9]{2}end"]
        .map(String::from)
        .into();
    let mut first = vec![b'.'; LARGE];
    first.extend_from_slice(b"q123mk12");
    let mut second = b"34needle..q456magic".to_vec();
    second.resize(LARGE + 7, b'.');
    second.extend_from_slice(b"k9876needle");
    let flows = [
        Flow {
            data: [&first[..], &second[..]].concat(),
            chunks: vec![first.len(), second.len()],
        },
        Flow::fixed(&[b'.'; LARGE], 256),
        Flow::fixed(&[b'.'; 2 * LARGE], LARGE),
    ];
    // The multi-group cells, the filter on and off.
    let knobs = [3, 7, 0, 4].map(knobs);
    let expected = run_knobs("wake", &rules, &flows, &knobs, &DRIVERS);
    assert_eq!(
        expected[0].stream.len(),
        4,
        "one match straddles the chunks, three lie in the second"
    );
    assert!(expected[1].stream.is_empty() && expected[2].stream.is_empty());
}

#[test]
fn always_on_only_rulesets_never_skip_and_never_miss() {
    // No rule yields a usable literal, so the filter compiles to
    // nothing: every chunk scans and nothing is skipped. (That the
    // reports equal the oracle's is the differential suite's
    // `always-on` pin.)
    let patterns = [".*ba", "[xy]{2,5}", "[0-9][0-9][xy]"];
    let on = engine(&patterns, PrefilterMode::On);
    assert!(on.serve().metrics().prefilter.is_some());

    let input = b"..ba..xyxy..42x..ba";
    let sched = on.scheduler_with(2);
    for chunk in input.chunks(3) {
        sched.push(1, chunk);
    }
    sched.run();

    let stats = sched
        .metrics()
        .prefilter
        .expect("prefilter is on, so stats exist");
    assert_eq!(stats.always_on_rules, patterns.len());
    assert_eq!(
        stats.total_skipped_units(),
        0,
        "always-on groups never skip"
    );
    assert_eq!(stats.total_skipped_bytes(), 0);
    assert_eq!(stats.candidate_hits, 0, "no filter, no candidates");
}

#[test]
fn benign_traffic_skips_while_reports_stay_empty_and_identical() {
    // Purely benign bytes on a literal-only ruleset: every (flow, group)
    // unit stays cold and every chunk is skipped. (That the reports stay
    // empty on and off is the benign half of
    // `a_wake_replays_the_tail_on_the_parallel_stream_path`.)
    let patterns = ["magic", "hdr[0-9]{2}end"];
    let on = engine(&patterns, PrefilterMode::On);
    let input = vec![b'.'; 4096];

    let sched = on.scheduler_with(2);
    for chunk in input.chunks(256) {
        sched.push(1, chunk);
        sched.push(2, chunk);
    }
    sched.run();

    let stats = sched.metrics().prefilter.expect("prefilter is on");
    assert_eq!(stats.always_on_rules, 0);
    assert!(
        stats.total_skipped_units() > 0,
        "benign chunks on cold units must be skipped, got {stats:?}"
    );
    assert_eq!(
        stats.total_skipped_bytes(),
        2 * input.len() as u64 * on.scan_groups().shard_count() as u64,
        "every chunk of both flows must be skipped on every unit"
    );
    assert_eq!(stats.candidate_hits, 0);
}

/// Pushes `input`, cut into `chunk_lens` (cycled), through a one-flow
/// scheduler over `literals` — plain literal rules, so each rule's
/// required literal is itself — cut into at least `groups` scan groups
/// (as many as there are rules, if fewer), and after every push checks
/// the filter's counters against a reference that knows no automaton:
/// per cold group, a naive substring search for the first end of any of
/// its literals in the stream so far. Per-group `skipped_units` say
/// which units skipped the chunk, `candidate_hits` how many woke, and a
/// unit is cold exactly until it wakes, so together they are every
/// `(group, chunk)` verdict; `filter_bytes` is the one pass, cut short
/// where the last cold unit woke. The reports pin the replay windows.
fn check_verdicts(literals: &[String], groups: usize, input: &[u8], chunk_lens: &[usize]) {
    let groups = groups.min(literals.len());
    let build = |mode| in_scan_groups(Engine::builder().patterns(literals).prefilter(mode), groups);
    let (on, off) = (build(PrefilterMode::On), build(PrefilterMode::Off));
    let what = format!("{literals:?} / {:?} / {chunk_lens:?}", on.scan_groups());
    // The first offset past `from` at which a literal of `group` ends.
    let first_end = |group: usize, from: usize, upto: usize| {
        (from + 1..=upto).find(|&end| {
            let members = on.scan_groups().members(group);
            (members.iter()).any(|&g| input[..end].ends_with(literals[g].as_bytes()))
        })
    };

    let sched = on.scheduler_with(1);
    let mut cold = vec![true; on.scan_groups().shard_count()];
    let (mut units, mut bytes) = (vec![0u64; cold.len()], vec![0u64; cold.len()]);
    let (mut hits, mut walked) = (0u64, 0u64);
    let (mut at, mut lens) = (0usize, chunk_lens.iter().cycle());
    while at < input.len() {
        let end = (at + lens.next().unwrap()).min(input.len());
        let mut pass = if cold.contains(&true) { 0 } else { at };
        for group in 0..cold.len() {
            if !cold[group] {
                continue;
            }
            match first_end(group, at, end) {
                Some(woke_at) => {
                    cold[group] = false;
                    hits += 1;
                    pass = pass.max(woke_at);
                }
                None => {
                    units[group] += 1;
                    bytes[group] += (end - at) as u64;
                    pass = end;
                }
            }
        }
        walked += (pass - at) as u64;
        sched.push(1, &input[at..end]);
        let got = sched.metrics().prefilter.expect("the filter is on");
        assert_eq!(
            (
                got.skipped_units,
                got.skipped_bytes,
                got.candidate_hits,
                got.filter_bytes
            ),
            (units.clone(), bytes.clone(), hits, walked),
            "{what}: after the chunk {at}..{end}"
        );
        at = end;
    }
    sched.run();
    assert_eq!(sched.poll(1), off.scan(input), "{what}: reports");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Literals over three letters share prefixes and suffixes, contain
    /// one another and repeat across groups; the input is mostly those
    /// letters; chunks run from one byte up.
    #[test]
    fn every_verdict_agrees_with_a_naive_substring_search(
        literals in prop::collection::vec(
            prop::collection::vec(prop::sample::select(b"abc".to_vec()), 1..5),
            1..9,
        ),
        groups in 1usize..6,
        input in prop::collection::vec(prop::sample::select(b"abcabc.".to_vec()), 0..160),
        chunk_lens in prop::collection::vec(1usize..12, 1..6),
    ) {
        let literals: Vec<String> =
            literals.into_iter().map(|l| String::from_utf8(l).unwrap()).collect();
        check_verdicts(&literals, groups, &input, &chunk_lens);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// The same referee on chunks long enough for the filter's lanes:
    /// a mostly benign input, so some chunks are clean and proved so by
    /// the lanes, and others end a literal and go to the exact walk.
    #[test]
    fn every_verdict_agrees_on_chunks_the_lanes_walk(
        literals in prop::collection::vec(
            prop::collection::vec(prop::sample::select(b"abc".to_vec()), 1..9),
            1..9,
        ),
        groups in 1usize..6,
        input in prop::collection::vec(
            prop::sample::select(b"abc.....................".to_vec()),
            0..4096,
        ),
        chunk_lens in prop::collection::vec(100usize..1500, 1..6),
    ) {
        let literals: Vec<String> =
            literals.into_iter().map(|l| String::from_utf8(l).unwrap()).collect();
        check_verdicts(&literals, groups, &input, &chunk_lens);
    }
}

#[test]
fn verdicts_hold_for_one_byte_chunks_and_a_cut_at_every_boundary() {
    // "dle" ends where "needle" ends, "need" where "nee" did a byte ago,
    // and "magic" stands alone: five groups, of which the walk must wake
    // two on one byte and keep going for the rest.
    let literals = ["needle", "dle", "nee", "need", "magic"].map(String::from);
    let input = b"..nee.needle..magi.magic..dle";
    check_verdicts(&literals, 5, input, &[1]);
    check_verdicts(&literals, 2, input, &[1]);
    for cut in 1..input.len() {
        check_verdicts(&literals, 5, input, &[cut, input.len()]);
    }
}

#[test]
fn the_filter_walks_a_chunk_once_whatever_the_shard_count() {
    let literals = ["alpha", "bravo", "charlie", "delta"];
    let builder = Engine::builder().patterns(literals);
    let on = in_scan_groups(builder.prefilter(PrefilterMode::On), 4);
    let groups = on.scan_groups().shard_count();
    let sched = on.scheduler_with(1);
    let stats = || sched.metrics().prefilter.expect("the filter is on");
    assert_eq!((groups, stats().always_on_rules), (4, 0));

    // Benign chunks: four cold units, one pass.
    let benign = [b'.'; 512];
    for _ in 0..8 {
        sched.push(1, &benign);
    }
    assert_eq!(stats().filter_bytes, 8 * 512, "not once per unit");
    assert_eq!(stats().skipped_units, [8; 4]);

    // Every chunk ends a literal of every group: the pass stops on the
    // byte that wakes the flow's last cold unit — the "o" of "bravo" —
    // and a flow without a cold unit never consults the filter again.
    let dense = b"..delta.alpha.charlie.bravo.delta.alpha.charlie.bravo.";
    let last_first_end = 27;
    assert!(dense[..last_first_end].ends_with(b"bravo"));
    for round in 0..6 {
        sched.push(1, dense);
        assert_eq!(
            stats().filter_bytes,
            8 * 512 + last_first_end as u64,
            "round {round}"
        );
        assert_eq!(stats().candidate_hits, 4);
    }
    // The same on a flow of its own, dense from its first byte: what the
    // filter costs literal-dense traffic is bounded by where the chunk
    // first completes the set, not by the chunk.
    for round in 0..6 {
        sched.push(2, dense);
        assert_eq!(
            stats().filter_bytes,
            8 * 512 + 2 * last_first_end as u64,
            "round {round}"
        );
    }
    sched.run();
    assert_eq!(sched.poll(1).len(), 6 * 8);
    assert_eq!(sched.poll(2).len(), 6 * 8);
}

/// Two drivers, one core: the batch scheduler and the owned service
/// step the same core, so the same ruleset, flows and chunking leave
/// the same counters behind — for one worker and several, with the
/// filter on and off: the scheduler's stats accessors read what the
/// service's metrics snapshot reads. (That both report the oracle's
/// matches is `tests/differential.rs`, whose `mixed` pin holds these
/// rules and flows.)
#[test]
fn scheduler_and_service_agree_for_every_worker_count_and_filter_mode() {
    // Literal-bearing, `$`-anchored and always-on rules over three scan
    // groups, so filtered and filterless units serve every flow.
    let patterns = [
        "hdr[0-9]{2}end",
        "magic$",
        "nn[ab]{2,4}mm",
        ".*ba",
        "x[yz]w$",
    ];
    let flows: [&[u8]; 3] = [
        b"..hdr42end..magic..nnababmm..xyw",
        b"................................",
        b"ba.xzw.magic",
    ];
    const CHUNK: usize = 5;
    let rounds = flows.iter().map(|f| f.len().div_ceil(CHUNK)).max().unwrap();
    let chunk_of = |fi: usize, round: usize| flows[fi].chunks(CHUNK).nth(round);

    for mode in [PrefilterMode::On, PrefilterMode::Off] {
        for workers in [1usize, 3] {
            let engine = in_scan_groups(Engine::builder().patterns(patterns).prefilter(mode), 3);
            let what = format!("{mode:?}, {workers} worker(s)");

            // Batch driver: push a round, run().
            let sched = engine.scheduler_with(workers);
            for round in 0..rounds {
                for fi in 0..flows.len() {
                    if let Some(chunk) = chunk_of(fi, round) {
                        sched.push(fi as u64, chunk);
                    }
                }
                sched.run();
            }
            for fi in 0..flows.len() {
                sched.close(fi as u64);
            }
            sched.run();
            let batch = sched.metrics();
            for fi in 0..flows.len() {
                sched.poll(fi as u64);
                sched.finishing(fi as u64);
            }
            assert_eq!(
                sched.metrics().flows,
                0,
                "{what}: drained flows are forgotten"
            );

            // Resident workers: push the same round, barrier().
            let svc = engine.serve_with(workers, ServeConfig::default());
            let ids: Vec<_> = flows.iter().map(|_| svc.try_open_flow().unwrap()).collect();
            for round in 0..rounds {
                for (fi, id) in ids.iter().enumerate() {
                    if let Some(chunk) = chunk_of(fi, round) {
                        svc.push_checked(*id, chunk).unwrap();
                    }
                }
                svc.barrier();
            }
            for id in &ids {
                svc.close(*id);
            }
            svc.barrier();
            let metrics = svc.metrics();
            svc.shutdown();

            assert_eq!(batch.hybrid, metrics.hybrid, "{what}: hybrid block");
            assert_eq!(
                batch.prefilter, metrics.prefilter,
                "{what}: prefilter block"
            );
            assert_eq!(batch.prefilter.is_some(), mode == PrefilterMode::On);
        }
    }
}

mod service {
    //! The owned-service half of the contract: hot reload with a changed
    //! literal set, and the metrics block.

    use crate::common::{push_chunked, scan_oracle};
    use recama::{Engine, PrefilterMode, ServeConfig};

    fn build(rules: &[(u64, &str)], mode: PrefilterMode) -> Engine {
        let mut b = Engine::builder().prefilter(mode);
        for (id, p) in rules {
            b = b.rule(*id, *p);
        }
        b.build().unwrap()
    }

    #[test]
    fn reload_with_a_changed_literal_set_recompiles_the_filter() {
        // Engine A requires "alpha"; engine B requires "delta". A flow
        // that migrates across the reload must be cut at the boundary:
        // old literals stop mattering, new literals start mattering, and
        // a literal straddling the cut ("del" | "ta9") must neither
        // match nor confuse the fresh filter state.
        let a_rules: &[(u64, &str)] = &[(10, "alpha[0-9]"), (20, "omega$")];
        let b_rules: &[(u64, &str)] = &[(20, "omega$"), (30, "delta[0-9]")];
        let a = build(a_rules, PrefilterMode::On);
        let b = build(b_rules, PrefilterMode::On);
        let a_oracle = build(a_rules, PrefilterMode::Off);
        let b_oracle = build(b_rules, PrefilterMode::Off);

        let pre: &[u8] = b"..alpha7..omega..del";
        let post: &[u8] = b"ta9..delta5..omega";

        let svc = a.serve_with(2, ServeConfig::default());
        let flow = svc.try_open_flow().unwrap();
        push_chunked(&svc, flow, pre, 0x9e37, 5);
        svc.barrier(); // drained: the cut lands at the pre/post boundary
        assert_eq!(svc.reload(&b), 1);
        push_chunked(&svc, flow, post, 0x5bd1, 5);
        svc.close(flow);
        svc.barrier();

        let boundary = pre.len() as u64;
        let mut expected = scan_oracle(&a_oracle, pre, 0);
        expected.extend(scan_oracle(&b_oracle, post, boundary));
        assert_eq!(
            svc.poll_checked(flow).unwrap(),
            expected,
            "reports must equal old-filter(pre) ++ fresh-new-filter(post)"
        );

        let m = svc.metrics();
        let pf = m.prefilter.expect("both epochs were built with the filter");
        assert_eq!(
            pf.always_on_rules, 0,
            "every rule carries a usable literal (omega$ is anchored, not empty)"
        );
        assert!(
            pf.candidate_hits > 0,
            "alpha/delta hits must wake their shards: {pf:?}"
        );
        svc.shutdown();
    }

    #[test]
    fn metrics_block_absent_when_the_filter_is_off() {
        let eng = build(&[(1, "magic")], PrefilterMode::Off);
        let svc = eng.serve_with(2, ServeConfig::default());
        let flow = svc.try_open_flow().unwrap();
        svc.push_checked(flow, b"..magic..").unwrap();
        svc.close(flow);
        svc.barrier();
        assert_eq!(svc.poll_checked(flow).unwrap().len(), 1);
        assert!(svc.metrics().prefilter.is_none());
        svc.shutdown();
    }
}

#[cfg(feature = "fault-inject")]
mod quarantine {
    //! A faulted flow's quarantine must leave every *other* flow's
    //! filter state intact — including an Aho–Corasick automaton parked
    //! mid-literal across the fault.

    use crate::common::scan_oracle;
    use recama::{Engine, FaultPlan, FlowId, PrefilterMode, ServeConfig, ServeError};

    fn rules() -> [(u64, &'static str); 2] {
        [(1, "needle[0-9]z"), (2, "magicword")]
    }

    #[test]
    fn quarantined_flow_leaves_sibling_filter_state_intact() {
        // Flow 1 wakes its shard with a full literal and the injected
        // panic kills that very scan. Flows 0 and 2 meanwhile carry a
        // literal split across three chunks — all skipped until the
        // final fragment completes it — so their AC state and replay
        // tails must survive the quarantine and the worker restart.
        let plan = FaultPlan::new().panic_at(1, 0, 1, "injected: flow 1 dies");
        let engine = {
            let [(ra, pa), (rb, pb)] = rules();
            Engine::builder()
                .rule(ra, pa)
                .rule(rb, pb)
                .prefilter(PrefilterMode::On)
                .fault_plan(plan)
                .build()
                .unwrap()
        };
        let oracle = {
            let [(ra, pa), (rb, pb)] = rules();
            Engine::builder()
                .rule(ra, pa)
                .rule(rb, pb)
                .prefilter(PrefilterMode::Off)
                .build()
                .unwrap()
        };

        let svc = engine.serve_with(2, ServeConfig::default());
        let flows: Vec<FlowId> = (0..3).map(|_| svc.try_open_flow().unwrap()).collect();

        // Sibling rounds: benign, then a literal cut mid-word twice.
        let sibling_chunks: &[&[u8]] = &[b"........", b"....need", b"le7z...."];

        // Round 1: siblings skip; flow 1 wakes and dies mid-scan.
        for (i, flow) in flows.iter().enumerate() {
            let chunk: &[u8] = if i == 1 {
                b".needle5z."
            } else {
                sibling_chunks[0]
            };
            match svc.push_checked(*flow, chunk) {
                Ok(_) | Err(ServeError::Quarantined { .. }) => {}
                Err(e) => panic!("unexpected push error: {e}"),
            }
        }
        svc.barrier();
        assert!(crate::common::quarantined(&svc, flows[1]));
        assert_eq!(svc.metrics().faults.fail_stops, 0);

        // Rounds 2–3: only the siblings; their parked mid-literal state
        // must complete the straddled match.
        for chunk in &sibling_chunks[1..] {
            for &fi in &[0usize, 2] {
                svc.push_checked(flows[fi], chunk).unwrap();
            }
            svc.barrier();
        }

        let full: Vec<u8> = sibling_chunks.concat();
        for &fi in &[0usize, 2] {
            svc.close(flows[fi]);
            assert_eq!(
                svc.poll_checked(flows[fi]).unwrap(),
                scan_oracle(&oracle, &full, 0),
                "sibling flow {fi} must not notice the fault"
            );
        }

        let m = svc.metrics();
        assert_eq!(m.faults.quarantined_flows, 1);
        let pf = m.prefilter.expect("filter is on by default");
        assert!(
            pf.total_skipped_units() > 0,
            "benign sibling chunks must be skipped: {pf:?}"
        );
        assert!(pf.candidate_hits > 0, "wakes must be counted: {pf:?}");
        svc.shutdown();
    }
}
