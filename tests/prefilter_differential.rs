//! Differential testing of the literal-prefilter (MPM) subsystem: a
//! prefiltered engine must be **byte-identical** (same reports, same
//! order) to the same engine built with [`PrefilterMode::Off`] — which
//! in turn must equal the union of per-[`Pattern`] results — on random
//! rulesets mixing literal-bearing and always-on rules, random inputs,
//! and random chunk boundaries. Dedicated pins cover the pathological
//! cases the filter's streaming design exists for: required literals
//! split across chunk boundaries (the Aho–Corasick state and the
//! replay tail both carry over), rulesets where every rule is
//! always-on (the filter must never skip and never miss), a hot reload
//! that changes the literal set mid-flow, and — under
//! `--features fault-inject` — a quarantined flow leaving every other
//! flow's filter state intact.

mod common;

use common::{in_scan_groups, union_of_per_pattern_matches};
use proptest::prelude::*;
use recama::{Engine, PrefilterMode, RuleMatch, ServeConfig, SetMatch};

/// Pattern pool the properties sample rulesets from: the left column
/// carries a usable required literal (contiguous singleton-byte run at
/// a bounded lead), the right column defeats extraction — unbounded
/// lead (`.*`), class-only bytes, or nullability — and must compile to
/// always-on rules that every chunk scans.
const POOL: &[&str] = &[
    // literal-bearing
    "abc",
    "x[yz]w",
    "hdr[0-9]{2}end",
    "nn[ab]{2,4}mm",
    "magic",
    "(xy){2,3}",
    // always-on
    ".*ba",
    "[xy]{2,5}",
    "[0-9][0-9][xy]",
];

/// Input bytes biased toward the pool's literals so hits, near-misses,
/// and partial literals at chunk boundaries all occur.
const INPUT_BYTES: &[u8] = b"abcxyzwhdrendmagicn0123459_";

fn engine(patterns: &[&str], mode: PrefilterMode) -> Engine {
    Engine::builder()
        .patterns(patterns)
        .prefilter(mode)
        .build()
        .unwrap()
}

/// Feeds `input` to a fresh stream of `engine` in chunks of `chunk_len`
/// and collects the reports.
fn chunked_reports(engine: &Engine, input: &[u8], chunk_len: usize) -> Vec<SetMatch> {
    let mut stream = engine.stream();
    let mut out = Vec::new();
    for chunk in input.chunks(chunk_len.max(1)) {
        out.extend(stream.feed(chunk));
    }
    out
}

/// Pushes `input` through a one-flow scheduler in `chunk_len` chunks —
/// the checkout-skipping path, as opposed to the in-stream gate.
fn scheduled_reports(engine: &Engine, input: &[u8], chunk_len: usize) -> Vec<SetMatch> {
    let sched = engine.scheduler_with(2);
    for chunk in input.chunks(chunk_len.max(1)) {
        sched.push(7, chunk);
    }
    sched.run();
    sched.poll(7)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 40, ..ProptestConfig::default() })]

    #[test]
    fn prefiltered_agrees_with_unfiltered_and_per_pattern_union(
        picks in prop::collection::vec(0usize..POOL.len(), 1..6),
        input in prop::collection::vec(prop::sample::select(INPUT_BYTES.to_vec()), 0..200),
        chunk_len in 1usize..40,
    ) {
        let mut picks = picks;
        picks.sort_unstable();
        picks.dedup();
        let patterns: Vec<&str> = picks.iter().map(|&i| POOL[i]).collect();

        let on = engine(&patterns, PrefilterMode::On);
        let off = engine(&patterns, PrefilterMode::Off);
        prop_assert_eq!(on.prefilter(), PrefilterMode::On);
        prop_assert_eq!(off.prefilter(), PrefilterMode::Off);

        // Block scans: byte-identical, and both equal the oracle.
        let got_on = on.scan(&input);
        let got_off = off.scan(&input);
        prop_assert_eq!(&got_on, &got_off, "block scan diverges");
        let mut sorted = got_on.clone();
        sorted.sort();
        prop_assert_eq!(sorted, union_of_per_pattern_matches(&patterns, &input));

        // Chunked streams: the filter's resumable state must make every
        // boundary invisible.
        let streamed_on = chunked_reports(&on, &input, chunk_len);
        let streamed_off = chunked_reports(&off, &input, chunk_len);
        prop_assert_eq!(&streamed_on, &streamed_off, "stream diverges");
        prop_assert_eq!(&streamed_on, &got_on, "stream diverges from block scan");

        // Scheduler checkout skipping: same contract once more.
        prop_assert_eq!(
            scheduled_reports(&on, &input, chunk_len),
            streamed_on,
            "scheduler diverges"
        );
    }
}

#[test]
fn literals_split_across_every_chunk_boundary() {
    // Boundaries placed inside every required literal: the AC state and
    // the replay tail must reassemble matches the skipped chunks began.
    let patterns = ["hdr[0-9]{2}end", "magic", "nn[ab]{2,4}mm"];
    let on = engine(&patterns, PrefilterMode::On);
    let off = engine(&patterns, PrefilterMode::Off);
    let input = b"..hdr42end..magic..nnababmm..hdr9";
    let oneshot = off.scan(input);
    assert!(!oneshot.is_empty(), "test input must contain matches");
    for cut in 1..input.len() {
        for eng in [&on, &off] {
            let mut stream = eng.stream();
            let mut got: Vec<SetMatch> = stream.feed(&input[..cut]).collect();
            got.extend(stream.feed(&input[cut..]));
            assert_eq!(got, oneshot, "cut at {cut}");
        }
        // And through the scheduler, where the cold-unit skip rewinds
        // the parked engine rather than feeding it.
        let sched = on.scheduler_with(2);
        sched.push(1, &input[..cut]);
        sched.push(1, &input[cut..]);
        sched.run();
        assert_eq!(sched.poll(1), oneshot, "scheduler cut at {cut}");
    }
}

#[test]
fn a_wake_replays_the_tail_on_the_parallel_stream_path() {
    // Chunks this large fan the units that scan out to scoped threads
    // (`PARALLEL_MIN_BYTES` in set.rs). Each rule's literal sits behind
    // a bounded lead, and the first chunk — benign until its last bytes —
    // ends inside that lead: both units skip it, then wake on the second
    // chunk and replay the match's start from the tail, in parallel.
    const LARGE: usize = 4096;
    let patterns = ["k\\d{4}needle", "q\\d{3}magic"];
    let build = |mode| in_scan_groups(Engine::builder().patterns(patterns).prefilter(mode), 2);
    let (on, off) = (build(PrefilterMode::On), build(PrefilterMode::Off));
    assert_eq!(on.scan_groups().shard_count(), 2);

    let mut first = vec![b'.'; LARGE];
    first.extend_from_slice(b"q123mk12");
    let mut second = b"34needle..q456magic".to_vec();
    second.resize(LARGE + 7, b'.');
    second.extend_from_slice(b"k9876needle");
    let input = [&first[..], &second[..]].concat();

    let mut expected = union_of_per_pattern_matches(&patterns, &input);
    expected.sort_by_key(|m| (m.end, m.pattern));
    assert_eq!(
        expected.len(),
        3,
        "one match straddles the chunks, two lie in the second"
    );
    for eng in [&on, &off] {
        let mut stream = eng.stream();
        assert_eq!(stream.feed(&first).count(), 0);
        let got: Vec<SetMatch> = stream.feed(&second).collect();
        assert_eq!(got, expected, "{:?}", eng.prefilter());
    }
}

#[test]
fn always_on_only_rulesets_never_skip_and_never_miss() {
    // No rule yields a usable literal, so the filter compiles to
    // nothing: every chunk scans, nothing is skipped, and the output
    // still matches the unfiltered engine.
    let patterns = [".*ba", "[xy]{2,5}", "[0-9][0-9][xy]"];
    let on = engine(&patterns, PrefilterMode::On);
    let off = engine(&patterns, PrefilterMode::Off);
    assert_eq!(on.prefilter(), PrefilterMode::On);

    let input = b"..ba..xyxy..42x..ba";
    assert_eq!(on.scan(input), off.scan(input));

    let sched = on.scheduler_with(2);
    for chunk in input.chunks(3) {
        sched.push(1, chunk);
    }
    sched.run();
    assert_eq!(sched.poll(1), off.scan(input));

    let stats = sched
        .prefilter_stats()
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
    // unit stays cold, every chunk is skipped, and the output is empty —
    // exactly what the unfiltered engine says.
    let patterns = ["magic", "hdr[0-9]{2}end"];
    let on = engine(&patterns, PrefilterMode::On);
    let off = engine(&patterns, PrefilterMode::Off);
    let input = vec![b'.'; 4096];
    assert_eq!(on.scan(&input), off.scan(&input));
    assert!(on.scan(&input).is_empty());

    let sched = on.scheduler_with(2);
    for chunk in input.chunks(256) {
        sched.push(1, chunk);
        sched.push(2, chunk);
    }
    sched.run();
    assert!(sched.poll(1).is_empty());
    assert!(sched.poll(2).is_empty());

    let stats = sched.prefilter_stats().expect("prefilter is on");
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
        let got = sched.prefilter_stats().expect("the filter is on");
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
    assert_eq!((groups, on.set().always_on_rules()), (4, 0));
    let sched = on.scheduler_with(1);
    let stats = || sched.prefilter_stats().expect("the filter is on");

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

/// Two drivers, one answer: the batch scheduler and the owned service
/// step the same core, so the same ruleset, flows and chunking must
/// give identical per-flow `(rule, end)` sequences and finishing sets
/// through `scheduler_with(w)` and `serve_with(w)` — for one worker and
/// several, with the filter on and off — and the scheduler's stats
/// accessors must read what the service's metrics snapshot reads.
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
    let flows: [&[u8]; 4] = [
        b"..hdr42end..magic..nnababmm..xyw",
        b"................................",
        b"ba.xzw.magic",
        b"",
    ];
    const CHUNK: usize = 5;
    let rounds = flows.iter().map(|f| f.len().div_ceil(CHUNK)).max().unwrap();
    let chunk_of = |fi: usize, round: usize| flows[fi].chunks(CHUNK).nth(round);

    let mut answers = Vec::new();
    for mode in [PrefilterMode::On, PrefilterMode::Off] {
        for workers in [1usize, 3] {
            let engine = in_scan_groups(Engine::builder().patterns(patterns).prefilter(mode), 3);
            let what = format!("{mode:?}, {workers} worker(s)");

            // Batch driver: push a round, run(), poll.
            let sched = engine.scheduler_with(workers);
            let mut batch = vec![(Vec::new(), Vec::new()); flows.len()];
            for round in 0..rounds {
                for fi in 0..flows.len() {
                    if let Some(chunk) = chunk_of(fi, round) {
                        sched.push(fi as u64, chunk);
                    }
                }
                sched.run();
                for (fi, (polled, _)) in batch.iter_mut().enumerate() {
                    polled.extend(sched.poll(fi as u64));
                }
            }
            for fi in 0..flows.len() {
                sched.close(fi as u64);
            }
            sched.run();
            let batch_stats = (sched.hybrid_stats(), sched.prefilter_stats());
            for (fi, (polled, finishing)) in batch.iter_mut().enumerate() {
                polled.extend(sched.poll(fi as u64));
                finishing.extend(sched.finishing(fi as u64));
            }
            assert_eq!(sched.flow_count(), 0, "{what}: drained flows are forgotten");

            // Resident workers: push the same round, barrier(), poll.
            let svc = engine.serve_with(workers, ServeConfig::default());
            let ids: Vec<_> = flows
                .iter()
                .map(|f| (!f.is_empty()).then(|| svc.try_open_flow().unwrap()))
                .collect();
            let mut served = vec![(Vec::new(), Vec::new()); flows.len()];
            for round in 0..rounds {
                for (fi, id) in ids.iter().enumerate() {
                    if let (Some(id), Some(chunk)) = (id, chunk_of(fi, round)) {
                        svc.push_checked(*id, chunk).unwrap();
                    }
                }
                svc.barrier();
                for (id, (polled, _)) in ids.iter().zip(&mut served) {
                    if let Some(id) = id {
                        polled.extend(svc.poll_checked(*id).unwrap());
                    }
                }
            }
            for id in ids.iter().flatten() {
                svc.close(*id);
            }
            svc.barrier();
            let metrics = svc.metrics();
            for (id, (polled, finishing)) in ids.iter().zip(&mut served) {
                if let Some(id) = id {
                    // poll before finishing: a drained id goes stale.
                    polled.extend(svc.poll_checked(*id).unwrap());
                    finishing.extend(svc.finishing(*id));
                }
            }
            svc.shutdown();

            // Default rule ids are add-order indices: rule == pattern.
            let as_rules = |ms: &[SetMatch]| -> Vec<RuleMatch> {
                ms.iter()
                    .map(|m| RuleMatch {
                        rule: m.pattern as u64,
                        end: m.end as u64,
                    })
                    .collect()
            };
            for (fi, ((polled, finishing), served)) in batch.iter().zip(&served).enumerate() {
                assert_eq!(as_rules(polled), served.0, "{what}: flow {fi} reports");
                assert_eq!(as_rules(finishing), served.1, "{what}: flow {fi} finishing");
            }
            assert_eq!(batch_stats.0, metrics.hybrid, "{what}: hybrid block");
            assert_eq!(batch_stats.1, metrics.prefilter, "{what}: prefilter block");
            assert_eq!(batch_stats.1.is_some(), mode == PrefilterMode::On);
            answers.push(served);
        }
    }
    // ... and the answer is the same in every cell of the table.
    assert!(answers.iter().all(|a| *a == answers[0]));
    assert!(!answers[0][0].0.is_empty() && !answers[0][2].1.is_empty());
    assert!(
        answers[0][1].0.is_empty(),
        "the benign flow reports nothing"
    );
}

mod service {
    //! The owned-service half of the contract: hot reload with a changed
    //! literal set, and the metrics block.

    use crate::common::{push_chunked, scan_oracle};
    use recama::{Engine, PrefilterMode};

    fn build(rules: &[(u64, &str)], mode: PrefilterMode) -> Engine {
        let mut b = Engine::builder().workers(2).prefilter(mode);
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

        let svc = a.serve();
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
        let svc = eng.serve();
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
    use recama::{Engine, FaultPlan, FlowId, PrefilterMode, ServeError};

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
                .workers(2)
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

        let svc = engine.serve();
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
        assert!(svc.is_quarantined(flows[1]));
        assert!(!svc.is_poisoned());

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
