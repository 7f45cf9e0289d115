//! The `Engine` facade, end to end: builder → scan / spans / stream /
//! scheduler / service, structured compile errors, lossy builds,
//! batched units counting their scans, blocking pushes through a small
//! budget, idle-flow eviction, closed and stale ids as `ServeError`
//! values, and the stream-reuse regression (a stream started after
//! another one of the same engine must equal a fresh scan, `finish()`
//! included). The scan, spans, stream and service tests are slices of
//! the differential matrix (`common::matrix`).

mod common;

use common::matrix::{cells, run_knobs, Driver, Flow, Scan, DRIVERS};
use common::{in_scan_groups, scan_oracle, within};
use recama::hw::ShardPolicy;
use recama::syntax::ErrorKind;
use recama::{
    Engine, PrefilterMode, RuleMatch, ServeConfig, ServeError, SetMatch, DEFAULT_STATE_BUDGET,
};
use std::task::Poll;
use std::time::Duration;

const PATTERNS: [&str; 4] = ["ab{2,3}c", "a{3}", "x[yz]{2}", "k\\d{2}$"];
const HAYSTACK: &[u8] = b"abbc.aaa.xyz.abbbc_k42";

#[test]
fn builder_scan_matches_per_pattern_baseline() {
    // Banks and scan groups are cut independently; neither moves a report.
    let cuts = [
        (ShardPolicy::Single, 1),
        (ShardPolicy::Fixed(2), 2),
        (ShardPolicy::default(), 3),
    ];
    for (policy, groups) in cuts {
        let builder = Engine::builder().patterns(PATTERNS).shard_policy(policy);
        let engine = in_scan_groups(builder, groups);
        assert_eq!(engine.scan_groups().shard_count(), groups);
    }
    let knobs = cuts.map(|(policy, groups)| (Scan::Groups(groups), PrefilterMode::On, policy));
    let flows = [Flow::fixed(HAYSTACK, HAYSTACK.len())];
    run_knobs("haystack", &PATTERNS, &flows, &knobs, &[Driver::Block]);
}

/// `a{2,4}` over a run of `a`s ends at bytes with several accepting
/// starts: only the earliest is the span's.
#[test]
fn scan_spans_agree_with_per_pattern_spans() {
    let haystack = b"zzabbc..xyz..abbbc..aaaaaa.";
    let flows = [Flow::fixed(haystack, haystack.len())];
    let default = Scan::Hybrid(DEFAULT_STATE_BUDGET);
    let knobs = [(default, PrefilterMode::On, ShardPolicy::default())];
    run_knobs(
        "spans",
        &["ab{2,3}c", "xyz", "a{2,4}"],
        &flows,
        &knobs,
        &[Driver::Spans],
    );
}

#[test]
fn rules_carry_explicit_ids() {
    let engine = Engine::builder()
        .rule(2009, "ab")
        .rule(404, "cd")
        .pattern("ef") // id defaults to the add-order index
        .build()
        .unwrap();
    assert_eq!(engine.len(), 3);
    assert_eq!(engine.rule_id(0), 2009);
    assert_eq!(engine.rule_id(1), 404);
    assert_eq!(engine.rule_id(2), 2);
    assert_eq!(engine.pattern(1), "cd");
    // Matches report the rule index; ids translate.
    let hits = engine.scan(b"cd");
    assert_eq!(hits, vec![SetMatch { pattern: 1, end: 2 }]);
    assert_eq!(engine.rule_id(hits[0].pattern), 404);
}

#[test]
fn strict_build_reports_index_pattern_and_phase() {
    let err = Engine::builder()
        .patterns(["ok", "bad(", "ok2"])
        .build()
        .unwrap_err();
    assert_eq!(err.index, 1);
    assert_eq!(err.pattern, "bad(");
    let msg = err.to_string();
    assert!(
        msg.contains("#1") && msg.contains("bad(") && msg.contains("failed to parse"),
        "{msg}"
    );
    // The underlying ParseError chains as the source.
    assert!(std::error::Error::source(&err).is_some());
}

#[test]
fn lossy_build_records_skipped_rules_queryably() {
    let engine = Engine::builder()
        .rule(10, "a{2}")
        .rule(11, r"(x)\1") // out of fragment: skipped
        .rule(12, "b{3}")
        .lossy(true)
        .build()
        .unwrap();
    assert_eq!(engine.len(), 2);
    let skipped = engine.skipped();
    assert_eq!(skipped.len(), 1);
    assert_eq!(skipped[0].index, 1);
    assert_eq!(skipped[0].id, 11);
    assert_eq!(skipped[0].pattern, r"(x)\1");
    assert!(matches!(skipped[0].error.kind, ErrorKind::Unsupported(_)));
    // Compiled indices remap onto the original rules and ids.
    assert_eq!((engine.rule_id(0), engine.pattern(0)), (10, "a{2}"));
    assert_eq!((engine.rule_id(1), engine.pattern(1)), (12, "b{3}"));
    assert!(!engine.scan(b"bbb").is_empty());
}

#[test]
fn strict_build_is_lossless_or_fails() {
    // A lossy build of only-good rules skips nothing.
    let engine = Engine::builder()
        .patterns(PATTERNS)
        .lossy(true)
        .build()
        .unwrap();
    assert!(engine.skipped().is_empty());
    assert_eq!(engine.len(), PATTERNS.len());
}

/// One input in chunks of 1, 3 and 9 bytes and whole, under every driver
/// in the eight cells.
#[test]
fn stream_agrees_with_scan_across_chunkings() {
    let input = b"zabbbc_xxx_qrst_abbc_xxxx";
    let flows = [1, 3, 9, input.len()].map(|n| Flow::fixed(input, n));
    let rules = ["ab{2,4}c", "x{3}", "q[rs]{2}t"];
    run_knobs("chunkings", &rules, &flows, &cells(), &DRIVERS);
}

/// Regression pin (reset bug): a stream started after another stream of
/// the same engine has fed input must behave exactly like a fresh one —
/// `feed` reports AND the `$`-anchor `finish()` set. Stale `$`
/// candidates would resurrect the earlier stream's ends or report them
/// at stale offsets.
#[test]
fn reset_stream_equals_fresh_stream_including_finish() {
    let patterns = ["ab$", "ab", "cd$"];
    for groups in [1, 2] {
        let engine = in_scan_groups(Engine::builder().patterns(patterns), groups);
        assert_eq!(engine.stream().group_count(), groups);

        // Fresh stream over the second input: the reference behavior.
        let second: &[&[u8]] = &[b"zz", b"a", b"b"];
        let mut fresh = engine.stream();
        let mut fresh_feed = Vec::new();
        for chunk in second {
            fresh_feed.extend(fresh.feed(chunk));
        }
        let fresh_finish = fresh.finish();
        assert_eq!(
            fresh_finish,
            vec![SetMatch { pattern: 0, end: 4 }],
            "ab$ ends on the final byte of the second input"
        );

        // One stream over the first input (with its own $ candidates,
        // ending on a DIFFERENT offset), still live, then a new stream
        // over the second input: the new one must match the fresh run.
        let mut first = engine.stream();
        for chunk in [&b"ab.c"[..], b"d"] {
            first.feed(chunk).count(); // ab$ candidate at 2, cd$ at 5
        }
        let mut reused = engine.stream();
        assert_eq!(reused.position(), 0, "a new stream starts at position 0");
        let mut reused_feed = Vec::new();
        for chunk in second {
            reused_feed.extend(reused.feed(chunk));
        }
        assert_eq!(reused_feed, fresh_feed, "{groups} groups");
        assert_eq!(reused.finish(), fresh_finish, "{groups} groups");
        assert_eq!(first.position(), 5, "the first stream is untouched");
    }
}

#[test]
fn scheduler_from_engine_serves_flows() {
    let builder = Engine::builder().patterns(["ab{2}c", "xyz"]);
    let engine = in_scan_groups(builder, 2);
    let sched = engine.scheduler_with(2);
    sched.push(7, b"..ab");
    sched.push(9, b"xy");
    sched.run();
    sched.push(9, b"z");
    sched.push(7, b"bc!");
    sched.run();
    let hits: Vec<_> = sched.poll(7).iter().map(|m| (m.pattern, m.end)).collect();
    assert_eq!(hits, vec![(0, 6)]);
    let hits: Vec<_> = sched.poll(9).iter().map(|m| (m.pattern, m.end)).collect();
    assert_eq!(hits, vec![(1, 3)]);
}

/// A serving handle holds the scan half of its engine and nothing else
/// it needs: dropping the `Engine` (its rule texts, per-rule outputs and
/// machine images) leaves a handle that still reports what the engine's
/// scan did, `$` included, under stable rule ids.
#[test]
fn a_service_outlives_its_engine() {
    let input: &[u8] = b"zabbc..xyz..k42";
    let engine = Engine::builder()
        .rule(10, "ab{2,3}c")
        .rule(20, "xyz")
        .rule(30, "k\\d{2}$")
        .build()
        .unwrap();
    let expected: Vec<RuleMatch> = (engine.scan(input).iter())
        .map(|m| RuleMatch {
            rule: engine.rule_id(m.pattern),
            end: m.end as u64,
        })
        .collect();
    assert_eq!(expected.len(), 3);
    let svc = engine.serve();
    drop(engine);
    let flow = svc.try_open_flow().unwrap();
    for chunk in input.chunks(4) {
        svc.push_checked(flow, chunk).unwrap();
    }
    svc.close(flow);
    svc.barrier();
    assert_eq!(svc.poll_checked(flow).unwrap(), expected);
    svc.shutdown();
}

/// Two flows, one with an empty chunk, pushed interleaved into the
/// service (and every other driver, in the eight cells): the first polls
/// its own stream's reports, and `drain_global` gives the second its
/// own and nothing else.
#[test]
fn service_reports_match_independent_streams() {
    let flows = [
        Flow::split(b"zabbbc_xxx", vec![3, 5, 2]),
        Flow::split(b"qrst_abbc", vec![4, 0, 5]),
    ];
    let rules = ["ab{2,4}c", "x{3}", "q[rs]{2}t"];
    run_knobs("two flows", &rules, &flows, &cells(), &DRIVERS);
}

/// Many flows pushed, then one barrier: a worker checks out up to four
/// ready units of one scan group at a time and steps their rows in
/// lockstep. Each flow still reports what its own stream does, every
/// byte is counted once per group, and a batch's scan time is counted
/// once, so the groups' scan time fits in the scanning threads' wall
/// time.
#[test]
fn batched_units_report_like_streams_and_count_their_scan_once() {
    let patterns = ["ab{2,4}c", "x{3}", "q[rs]{2}t", "hello"];
    let flows: Vec<Vec<u8>> = (0..24)
        .map(|i| {
            let mut data = b"..... ".repeat(100 + 40 * (i % 5));
            for (k, planted) in [&b"abbbc"[..], b"xxx", b"qrst", b"hello"]
                .iter()
                .enumerate()
            {
                let at = (97 * (i + 1) * (k + 1)) % (data.len() - 8);
                data[at..at + planted.len()].copy_from_slice(planted);
            }
            data
        })
        .collect();
    let scanned: u64 = flows.iter().map(|f| f.len() as u64).sum();
    for workers in [1usize, 2] {
        let builder = Engine::builder()
            .patterns(patterns)
            .prefilter(recama::PrefilterMode::Off);
        let engine = in_scan_groups(builder, 2);
        let svc = engine.serve_with(workers, ServeConfig::default());
        let ids: Vec<_> = flows.iter().map(|_| svc.try_open_flow().unwrap()).collect();
        let started = std::time::Instant::now();
        for (id, data) in ids.iter().zip(&flows) {
            svc.push_checked(*id, data).unwrap();
        }
        svc.barrier();
        let wall = started.elapsed().as_nanos() as u64;
        let m = svc.metrics();
        for (id, data) in ids.iter().zip(&flows) {
            svc.close(*id);
            assert_eq!(
                svc.poll_checked(*id).unwrap(),
                scan_oracle(&engine, data, 0)
            );
        }
        assert_eq!(
            m.shard_scan_bytes,
            [scanned, scanned],
            "{workers} worker(s)"
        );
        // The barrier's caller scans ready units beside the workers, so
        // `workers + 1` threads scan during `wall`.
        let scan_ns: u64 = m.shard_scan_ns.iter().sum();
        assert!(
            scan_ns <= wall * (workers as u64 + 1),
            "{workers} worker(s): {scan_ns} ns of scans in {wall} ns"
        );
        assert!(m.batched_units <= 2 * flows.len() as u64);
        assert_eq!(m.in_flight, 0);
        svc.shutdown();
    }
}

#[test]
fn blocking_push_streams_a_large_flow_through_a_small_budget() {
    within(Duration::from_secs(60), || {
        let engine = Engine::new(["kk"]).unwrap();
        // 100 chunks of 48 bytes through a 64-byte budget: producers must
        // repeatedly block on the space condvar and be woken by check-ins.
        let chunk = {
            let mut c = vec![b'.'; 48];
            c[20] = b'k';
            c[21] = b'k';
            c
        };
        let svc = engine.serve_with(
            2,
            ServeConfig {
                flow_budget: 64,
                ..ServeConfig::default()
            },
        );
        let flow = svc.try_open_flow().unwrap();
        for _ in 0..100 {
            svc.push_checked(flow, &chunk).unwrap();
        }
        svc.close(flow);
        svc.barrier();
        let hits = svc.poll_checked(flow).unwrap();
        assert_eq!(hits.len(), 100);
        assert_eq!(hits[0], RuleMatch { rule: 0, end: 22 });
    });
}

/// An idle flow is closed by the sweep like an explicit close, with
/// the filter on (its unit skips the quiet bytes) and off (every byte
/// waits for a scan).
#[test]
fn service_evicts_idle_flows() {
    for mode in [PrefilterMode::On, PrefilterMode::Off] {
        let builder = Engine::builder().patterns(["ab$", "ab"]).prefilter(mode);
        let engine = builder.build().unwrap();
        let svc = engine.serve_with(
            1,
            ServeConfig {
                idle_timeout: Some(Duration::from_millis(20)),
                ..ServeConfig::default()
            },
        );
        let flow = svc.try_open_flow().unwrap();
        assert_eq!(svc.try_push(flow, b"..ab"), Poll::Ready(4));
        svc.barrier();
        // Go quiet: the parked worker's periodic sweep must close the
        // flow. Wait generously for slow CI machines.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while svc.metrics().idle_evictions == 0 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(svc.metrics().idle_evictions, 1, "{mode:?}");
        // The sweep closed this flow (nobody called close()); it stays
        // tracked while it has reports to poll.
        assert_eq!(svc.metrics().flows, 1);
        assert_eq!(svc.push_checked(flow, b"ab"), Err(ServeError::Closed));
        // Eviction behaves exactly like close(): reports stay pollable and
        // the $-anchored finishing set resolves at the flow's final byte.
        assert_eq!(
            svc.poll_checked(flow).unwrap(),
            vec![RuleMatch { rule: 0, end: 4 }, RuleMatch { rule: 1, end: 4 }]
        );
        assert_eq!(svc.finishing(flow), vec![RuleMatch { rule: 0, end: 4 }]);
        // Fully drained: the flow entry is gone and its id went stale.
        assert_eq!(svc.metrics().flows, 0);
        assert_eq!(svc.push_checked(flow, b"ab"), Err(ServeError::Closed));
    }
}

/// Regression pin: the idle sweep is due-gated inside the worker loop,
/// not only on the park branch — a worker kept busy by one hot flow
/// must still evict a quiet one.
#[test]
fn service_evicts_idle_flows_under_sustained_load() {
    within(Duration::from_secs(60), || {
        let engine = Engine::new(["ab"]).unwrap();
        let svc = engine.serve_with(
            1,
            ServeConfig {
                idle_timeout: Some(Duration::from_millis(20)),
                ..ServeConfig::default()
            },
        );
        let mut busy = svc.try_open_flow().unwrap();
        let quiet = svc.try_open_flow().unwrap();
        assert_eq!(svc.try_push(quiet, b"..ab"), Poll::Ready(4)); // then silent
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        // Keep the single worker continuously busy with one flow while the
        // other sits idle past the timeout. Probing the quiet flow with a
        // push would refresh its activity, so the counter tells: on a
        // starved 1-core box the producer itself can stall past the
        // timeout, legitimately evicting the busy flow too — carry on with
        // a fresh one and count it. The count is read before the push that
        // would notice a busy eviction, so more evictions than noticed
        // busy ones means the quiet flow went.
        let mut busy_evicted = 0;
        loop {
            let evicted = svc.metrics().idle_evictions;
            if svc.push_checked(busy, &[b'a'; 4096]) == Err(ServeError::Closed) {
                busy_evicted += 1;
                busy = svc.try_open_flow().unwrap();
            }
            if evicted > busy_evicted || std::time::Instant::now() >= deadline {
                break;
            }
        }
        svc.close(busy);
        svc.barrier();
        assert_eq!(
            svc.push_checked(quiet, b"ab"),
            Err(ServeError::Closed),
            "the busy worker must still sweep the quiet flow"
        );
        assert_eq!(
            svc.poll_checked(quiet).unwrap(),
            vec![RuleMatch { rule: 0, end: 4 }],
            "the evicted flow's reports stay pollable"
        );
    });
}

/// A `FlowId` is never reopened: closed, it rejects pushes as a value
/// while it drains, and once drained it goes stale. Reopening means a
/// new flow — possibly in the same slot, under the next generation,
/// starting at position 0. (`u64` ids that *do* reopen, once read out,
/// are the batch scheduler's; `tests/flow_scheduler.rs` pins those.)
#[test]
fn closed_flows_reject_pushes_until_drained_then_reopen() {
    let engine = Engine::builder().patterns(["ab"]).build().unwrap();
    let svc = engine.serve();
    let first = svc.try_open_flow().unwrap();
    assert_eq!(svc.push_checked(first, b"ab"), Ok(2));
    svc.close(first);
    // Closed, drained or not: pushed back, and nothing was buffered.
    assert_eq!(svc.push_checked(first, b"cd"), Err(ServeError::Closed));
    assert_eq!(svc.try_push(first, b"cd"), Poll::Pending);
    svc.barrier();
    assert_eq!(
        svc.poll_checked(first).unwrap(),
        vec![RuleMatch { rule: 0, end: 2 }]
    );
    // Drained: the id is stale for pushes and polls alike.
    assert_eq!(svc.metrics().flows, 0);
    assert_eq!(svc.push_checked(first, b"ab"), Err(ServeError::Closed));
    assert_eq!(svc.poll_checked(first), Err(ServeError::Closed));
    // The slot reopens for a fresh flow at position 0.
    let second = svc.try_open_flow().unwrap();
    assert_eq!(second.index(), first.index());
    assert_ne!(second.generation(), first.generation());
    assert_eq!(svc.push_checked(second, b"ab"), Ok(2));
    svc.barrier();
    assert_eq!(
        svc.poll_checked(second).unwrap(),
        vec![RuleMatch { rule: 0, end: 2 }]
    );
}

#[test]
fn empty_engine_is_well_formed() {
    let engine = Engine::new(Vec::<String>::new()).unwrap();
    assert!(engine.is_empty());
    assert_eq!(engine.shard_count(), 1);
    assert_eq!(engine.scan_groups().shard_count(), 1);
    assert!(engine.scan(b"anything").is_empty());
    assert!(engine.network(0).validate().is_empty());
    let svc = engine.serve();
    let flow = svc.try_open_flow().unwrap();
    svc.push_checked(flow, b"anything").unwrap();
    svc.barrier();
    assert!(svc.poll_checked(flow).unwrap().is_empty());
}

#[test]
fn engine_and_service_are_send_sync() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Engine>();
    assert_send_sync::<recama::ServiceHandle>();
    assert_send_sync::<ServeConfig>();

    // Producers really can fan out over one shared handle.
    let engine = Engine::new(["kk"]).unwrap();
    let svc = engine.serve_with(2, ServeConfig::default());
    let flows: Vec<_> = (0..4).map(|_| svc.try_open_flow().unwrap()).collect();
    std::thread::scope(|scope| {
        let svc = &svc;
        let handles: Vec<_> = flows
            .iter()
            .map(|&flow| scope.spawn(move || svc.push_checked(flow, b"..kk..")))
            .collect();
        for h in handles {
            h.join().unwrap().unwrap();
        }
    });
    svc.barrier();
    let total: usize = flows
        .iter()
        .map(|&flow| svc.poll_checked(flow).unwrap().len())
        .sum();
    assert_eq!(total, 4);
}
