//! Differential pins for the owned [`ServiceHandle`]: hot reload,
//! epoch retirement, generational flow-table safety, and the
//! `drain_global` contract: each report leaves the service once, by
//! poll or by drain, in stream order per flow.
//!
//! The reload contract under test: a flow that migrates across
//! [`ServiceHandle::reload`] is **cut at the migration boundary** —
//! bytes before the boundary are scanned by the old engine, bytes after
//! it by the new engine starting fresh. So the service's reports must
//! be byte-identical to two independent per-flow streams: the old
//! engine's [`ShardedSetStream`] over the pre-boundary bytes, then a
//! fresh stream of the new engine over the post-boundary suffix (ends
//! offset by the boundary). Counter rules (`ab{2,3}c`) pin that
//! counting state does NOT leak across the cut; `$`-anchored rules pin
//! that the finishing set resolves against the new engine only.

mod common;

use common::{finish_oracle, in_scan_groups, scan_oracle};
use recama::{Engine, FlowId, PrefilterMode, RuleMatch, ServeConfig, ServeError};
use std::task::Poll;

fn v1(mode: PrefilterMode) -> Engine {
    Engine::builder()
        .rule(10, "ab{2,3}c")
        .rule(20, "xyz$")
        .rule(30, "k[0-9]{2,4}m")
        .prefilter(mode)
        .build()
        .unwrap()
}

fn v2(mode: PrefilterMode) -> Engine {
    // Rule 20 survives the reload (same stable id, different compiled
    // index); 10 and 30 are dropped; 40 and 50 are new.
    Engine::builder()
        .rule(40, "ab{2,3}c")
        .rule(20, "xyz$")
        .rule(50, "q{2,4}w")
        .prefilter(mode)
        .build()
        .unwrap()
}

#[test]
fn reload_at_flow_boundary_is_byte_identical_to_fresh_engine_scans() {
    for mode in [PrefilterMode::On, PrefilterMode::Off] {
        reload_at_flow_boundary(mode);
    }
}

/// With the filter on, cold units skip and wake on both sides of the
/// cut; with it off, every unit scans every byte on both sides.
fn reload_at_flow_boundary(mode: PrefilterMode) {
    let a = v1(mode);
    let b = v2(mode);
    let svc = a.serve_with(2, ServeConfig::default());

    // Per-flow (pre, post) halves. The first flow parks a counter rule
    // mid-count at the cut: "..abb" + "bc." concatenated would match
    // ab{2,3}c at the seam, but the cut must prevent exactly that.
    let halves: &[(&[u8], &[u8])] = &[
        (b"..abb", b"bc.abbc.qqw"),
        (b"k12m.xyz", b"xyz.abbbc"),
        (b"abbc.k1234m", b"qqqw..xyz"),
        (b"xyz", b"xyz"),
    ];

    let flows: Vec<FlowId> = halves
        .iter()
        .map(|_| svc.try_open_flow().unwrap())
        .collect();
    for (flow, (pre, _)) in flows.iter().zip(halves) {
        common::push_chunked(&svc, *flow, pre, 0x9e37 + flow.index() as u64, 7);
    }
    svc.barrier(); // every flow drained: the cut lands at the pre/post boundary
    assert_eq!(svc.reload(&b), 1);
    assert_eq!(svc.metrics().epoch, 1);
    for (flow, (_, post)) in flows.iter().zip(halves) {
        // The first accepted non-empty push migrates the drained flow.
        common::push_chunked(&svc, *flow, post, 0x5bd1 + flow.index() as u64, 7);
        svc.close(*flow);
    }
    svc.barrier();

    for (flow, (pre, post)) in flows.iter().zip(halves) {
        let boundary = pre.len() as u64;
        let mut expected = scan_oracle(&a, pre, 0);
        expected.extend(scan_oracle(&b, post, boundary));
        assert_eq!(
            svc.poll_checked(*flow).unwrap(),
            expected,
            "{mode:?} flow {flow}: reports must equal old-engine(pre) ++ fresh-new-engine(post)"
        );
        assert_eq!(
            svc.finishing(*flow),
            finish_oracle(&b, post, boundary),
            "{mode:?} flow {flow}: finishing must resolve against the new engine only"
        );
    }
    svc.shutdown();
}

#[test]
fn reports_keep_stable_rule_ids_across_the_swap() {
    let a = v1(PrefilterMode::On);
    let b = v2(PrefilterMode::On);
    let svc = a.serve_with(2, ServeConfig::default());
    let flow = svc.try_open_flow().unwrap();

    svc.push_checked(flow, b".xyz").unwrap(); // rule 20 under engine A (pattern index 1)
    svc.barrier();
    svc.reload(&b);
    svc.push_checked(flow, b".xyz").unwrap(); // rule 20 under engine B (pattern index 1 of a different set)
    svc.close(flow);
    svc.barrier();

    let rules: Vec<(u64, u64)> = svc
        .poll_checked(flow)
        .unwrap()
        .iter()
        .map(|m| (m.rule, m.end))
        .collect();
    assert_eq!(rules, vec![(20, 4), (20, 8)]);
    assert_eq!(
        svc.finishing(flow)
            .iter()
            .map(|m| (m.rule, m.end))
            .collect::<Vec<_>>(),
        vec![(20, 8)]
    );
    svc.shutdown();
}

#[test]
fn retired_epochs_free_when_their_last_flow_lets_go() {
    let a = v1(PrefilterMode::On);
    let b = v2(PrefilterMode::On);
    let svc = a.serve_with(2, ServeConfig::default());

    let migrator = svc.try_open_flow().unwrap();
    let holdout = svc.try_open_flow().unwrap();
    svc.push_checked(migrator, b"abbc.").unwrap();
    svc.push_checked(holdout, b"k12m.").unwrap();
    svc.barrier();

    svc.reload(&b);
    let m = svc.metrics();
    assert_eq!(m.epoch, 1);
    assert_eq!(m.reloads, 1);
    // Both flows still pin epoch 0; the new epoch serves no flow yet.
    assert_eq!(m.epoch_flows, vec![(0, 2), (1, 0)]);

    // The migrator's next push moves it onto epoch 1.
    svc.push_checked(migrator, b"qqw").unwrap();
    svc.barrier();
    assert_eq!(svc.metrics().epoch_flows, vec![(0, 1), (1, 1)]);

    // Closing (and draining) the holdout releases the last pin on the
    // retired epoch: its machine image is freed.
    svc.close(holdout);
    svc.barrier();
    assert_eq!(svc.metrics().epoch_flows, vec![(1, 1)]);

    // New flows open on the current epoch.
    let fresh = svc.try_open_flow().unwrap();
    assert_eq!(svc.metrics().epoch_flows, vec![(1, 2)]);

    // Drain everything; the service ends on the new epoch alone.
    for flow in [migrator, fresh] {
        svc.close(flow);
    }
    svc.barrier();
    for flow in [migrator, holdout, fresh] {
        svc.poll_checked(flow).unwrap();
        svc.finishing(flow);
    }
    let m = svc.metrics();
    assert_eq!(m.epoch_flows, vec![(1, 0)]);
    assert_eq!(m.flows, 0);
    svc.shutdown();
}

/// The determinized rows live and die with the epoch's set: the new
/// epoch starts on empty caches of its own, a flow that migrates
/// mid-stream builds rows there, and retiring the old epoch takes its
/// rows out of the gauge and lets go of its set.
#[test]
fn shard_rows_belong_to_their_epoch() {
    // Prefilter off, so a served flow and a block scan of the same
    // bytes walk the same DFA states. Two scan groups, so two caches
    // per epoch.
    let build = |rules: [(u64, &str); 2]| {
        let mut builder = Engine::builder().prefilter(PrefilterMode::Off);
        for (id, rule) in rules {
            builder = builder.rule(id, rule);
        }
        let engine = in_scan_groups(builder, 2);
        assert_eq!(engine.scan_groups().len(), 2);
        engine
    };
    let a = build([(10, "ab{2,3}c"), (30, "k[0-9]{2,4}m")]);
    let b = build([(40, "ab{2,3}c"), (50, "q{2,4}w")]);
    let svc = a.serve_with(2, ServeConfig::default());
    let rows = || svc.metrics().hybrid.expect("hybrid by default").dfa_states;

    let migrator = svc.try_open_flow().unwrap();
    let holdout = svc.try_open_flow().unwrap();
    svc.push_checked(migrator, b"abbc.k12m.").unwrap();
    svc.push_checked(holdout, b"abbc.k12m.").unwrap();
    svc.barrier();
    let rows_a = rows();
    assert!(rows_a > 2, "more than the start states");
    // Block scans of the serving engine ride the same rows.
    a.scan(b"abbc.k12m.");
    assert_eq!(rows(), rows_a);

    svc.reload(&b);
    assert_eq!(rows(), rows_a, "the new epoch's caches start empty");
    // The migrating flow starts on the new epoch's rows, and builds them.
    svc.push_checked(migrator, b"qqw.abbc").unwrap();
    svc.barrier();
    let rows_b = rows() - rows_a;
    assert!(rows_b > 2);
    assert_eq!(
        svc.poll_checked(migrator).unwrap(),
        [
            scan_oracle(&a, b"abbc.k12m.", 0),
            scan_oracle(&b, b"qqw.abbc", 10)
        ]
        .concat()
    );
    assert_eq!(rows(), rows_a + rows_b, "the oracle streams rode warm rows");

    // The holdout was the last pin on epoch 0: its rows go with it.
    let scanned = svc.metrics().hybrid.unwrap();
    svc.close(holdout);
    svc.barrier();
    let after = svc.metrics().hybrid.unwrap();
    // Epoch 0 is gone. That the service then holds no share of its
    // set is `service::tests::a_retired_epoch_releases_its_set`.
    assert_eq!(svc.metrics().epoch_flows, vec![(1, 1)]);
    assert_eq!(after.dfa_states, rows_b);
    assert_eq!(
        (after.dfa_bytes, after.fallback_bytes),
        (scanned.dfa_bytes, scanned.fallback_bytes),
        "the byte counters of retired engines stay"
    );
    svc.shutdown();
}

/// Reloading the serving engine itself installs its set a second time:
/// the two epochs ride one set's group caches, so `dfa_states` counts
/// those rows once, whichever epochs the flows hold.
#[test]
fn reloading_the_serving_engine_counts_its_rows_once() {
    let a = v1(PrefilterMode::On);
    let svc = a.serve_with(2, ServeConfig::default());
    let rows = || svc.metrics().hybrid.expect("hybrid by default").dfa_states;
    let bytes = b"abbc.k12m.xyz";

    let holdout = svc.try_open_flow().unwrap();
    svc.push_checked(holdout, bytes).unwrap();
    svc.barrier();
    let rows_a = rows();
    assert!(rows_a > 1, "more than the start state");

    assert_eq!(svc.reload(&a), 1);
    let fresh = svc.try_open_flow().unwrap();
    svc.push_checked(fresh, bytes).unwrap();
    svc.barrier();
    assert_eq!(svc.metrics().epoch_flows, vec![(0, 1), (1, 1)]);
    assert_eq!(rows(), rows_a, "the fresh flow rode the holdout's rows");
    let hits = svc.poll_checked(fresh).unwrap();
    assert_eq!(hits, scan_oracle(&a, bytes, 0));
    assert_eq!(svc.poll_checked(holdout).unwrap(), hits);

    svc.close(holdout);
    svc.barrier();
    assert_eq!(svc.metrics().epoch_flows, vec![(1, 1)]);
    assert_eq!(rows(), rows_a, "the set and its rows stay installed");
    svc.shutdown();
}

/// The generational ABA guard: a recycled slot must never deliver the
/// previous tenant's matches to the new tenant, and a stale id must
/// observe nothing — across many reuse cycles, with matches left
/// deliberately undrained at close time so they are pending exactly
/// when the slot is reused.
#[test]
fn slot_reuse_never_leaks_a_stale_flows_matches() {
    let engine = Engine::builder()
        .rule(1, "ab{2,3}c")
        .rule(2, "xyz$")
        .build()
        .unwrap();
    let svc = engine.serve_with(2, ServeConfig::default());

    let mut stale: Vec<FlowId> = Vec::new();
    for round in 0u64..50 {
        let flow = svc.try_open_flow().unwrap();
        // Every prior incarnation's id must be dead and silent, even
        // though some share this flow's slot index.
        for old in &stale {
            assert_eq!(
                svc.poll_checked(*old),
                Err(ServeError::Closed),
                "stale id {old} resurrected or delivered matches"
            );
            assert!(svc.finishing(*old).is_empty());
            assert!(matches!(svc.try_push(*old, b"abbc"), Poll::Pending));
        }
        // Alternate payloads so a leak is visible as a wrong-rule or
        // wrong-end report, not a harmless duplicate.
        let data: &[u8] = if round % 2 == 0 { b".abbc." } else { b"..xyz" };
        common::push_chunked(&svc, flow, data, round + 1, 7);
        svc.close(flow);
        svc.barrier();
        let expected = scan_oracle(&engine, data, 0);
        assert_eq!(svc.poll_checked(flow).unwrap(), expected, "round {round}");
        assert_eq!(svc.finishing(flow), finish_oracle(&engine, data, 0));
        // Fully drained: the slot recycles and this id goes stale.
        assert_eq!(svc.poll_checked(flow), Err(ServeError::Closed));
        stale.push(flow);
    }
    // 50 incarnations fit in a handful of recycled slots.
    assert!(stale.iter().map(|id| id.index()).max().unwrap() < 4);
    svc.shutdown();
}

/// Pins the documented `drain_global` contract: per flow, its events
/// are exactly that flow's stream-order report sequence, flows follow in
/// slot order, and a report a poll took never comes out again.
#[test]
fn drain_global_yields_each_flow_in_stream_order_exactly_once() {
    let engine = Engine::builder()
        .rule(7, "ab{2,3}c")
        .rule(8, "k[0-9]{2,4}m")
        .build()
        .unwrap();
    let svc = engine.serve_with(3, ServeConfig::default());

    let payloads: &[&[u8]] = &[
        b".abbc.k12m.abbbc",
        b"k1234m..abbc",
        b"no matches here",
        b"abbcabbc.k99m",
    ];
    let flows: Vec<FlowId> = payloads
        .iter()
        .map(|_| svc.try_open_flow().unwrap())
        .collect();
    for (flow, data) in flows.iter().zip(payloads) {
        common::push_chunked(&svc, *flow, data, 0xfeed + flow.index() as u64, 7);
        svc.close(*flow);
    }
    svc.barrier();

    // The first flow is polled: its reports leave through the poll.
    let polled = svc.poll_checked(flows[0]).unwrap();
    assert_eq!(polled, scan_oracle(&engine, payloads[0], 0));
    let events = svc.drain_global();
    assert!(
        (events.windows(2)).all(|w| w[0].flow.index() <= w[1].flow.index()),
        "flows follow in slot order"
    );
    let mut total = 0;
    for (flow, data) in flows.iter().zip(payloads).skip(1) {
        let expected = scan_oracle(&engine, data, 0);
        let seen: Vec<RuleMatch> = events
            .iter()
            .filter(|ev| ev.flow == *flow)
            .map(|ev| RuleMatch {
                rule: ev.rule,
                end: ev.end,
            })
            .collect();
        assert_eq!(seen, expected, "flow {flow}: its events");
        total += expected.len();
    }
    assert_eq!(events.len(), total, "every unpolled match exactly once");
    assert!(svc.drain_global().is_empty(), "each report leaves once");
    // Finished and drained: freed, as poll_checked frees them.
    assert!((flows.iter()).all(|flow| svc.poll_checked(*flow) == Err(ServeError::Closed)));
    assert_eq!(svc.metrics().flows, 0);
    svc.shutdown();
}

/// A client that polls every flow finds nothing left for
/// `drain_global`, on both drivers: the service keeps no second copy of
/// a report.
#[test]
fn drain_global_is_empty_once_every_flow_is_polled() {
    let engine = v1(PrefilterMode::On);
    let payloads: &[&[u8]] = &[b".abbc.k12m.xyz", b"k1234m..abbbc", b"xyz.xyz"];

    let svc = engine.serve_with(2, ServeConfig::default());
    let flows: Vec<FlowId> = payloads
        .iter()
        .map(|_| svc.try_open_flow().unwrap())
        .collect();
    let mut polled = 0;
    for (round, seed) in [0x51u64, 0x52].into_iter().enumerate() {
        for (flow, data) in flows.iter().zip(payloads) {
            common::push_chunked(&svc, *flow, data, seed + flow.index() as u64, 5);
        }
        if round == 1 {
            flows.iter().for_each(|flow| svc.close(*flow));
        }
        svc.barrier();
        for flow in &flows {
            polled += svc.poll_checked(*flow).unwrap().len();
        }
        assert!(svc.drain_global().is_empty(), "service, round {round}");
    }
    assert!(polled > 0);
    for flow in &flows {
        svc.finishing(*flow);
    }
    assert!(svc.drain_global().is_empty());
    assert_eq!(svc.metrics().flows, 0);
    svc.shutdown();

    let sched = engine.scheduler_with(1);
    let mut polled = 0;
    for round in 0..2 {
        for (flow, data) in (0u64..).zip(payloads) {
            sched.push(flow, data);
            if round == 1 {
                sched.close(flow);
            }
        }
        sched.run();
        for flow in 0..payloads.len() as u64 {
            polled += sched.poll(flow).len();
        }
        assert!(sched.drain_global().is_empty(), "scheduler, round {round}");
    }
    assert!(polled > 0);
}

/// A client that never polls — it reads every flow through
/// `drain_global` and `finishing` — gets every report exactly once, in
/// stream order per flow, and leaves the service with no flow behind.
#[test]
fn a_drain_only_client_gets_every_report_once_and_leaves_no_flow() {
    let engine = v1(PrefilterMode::On);
    let payloads: &[&[u8]] = &[b".abbc.k12m.xyz", b"xyz..abbbc", b"nothing", b"k99m.xyz"];
    let svc = engine.serve_with(2, ServeConfig::default());
    let flows: Vec<FlowId> = payloads
        .iter()
        .map(|_| svc.try_open_flow().unwrap())
        .collect();
    let mut got = vec![Vec::new(); flows.len()];
    // Two halves per flow, drained between them and after close.
    for half in 0..2 {
        for (flow, data) in flows.iter().zip(payloads) {
            let (head, tail) = data.split_at(data.len() / 2);
            let part = [head, tail][half];
            common::push_chunked(&svc, *flow, part, 0x77 + flow.index() as u64, 3);
            if half == 1 {
                svc.close(*flow);
            }
        }
        svc.barrier();
        for ev in svc.drain_global() {
            let fi = flows.iter().position(|&flow| flow == ev.flow).unwrap();
            got[fi].push(RuleMatch {
                rule: ev.rule,
                end: ev.end,
            });
        }
    }
    for ((flow, data), got) in flows.iter().zip(payloads).zip(&got) {
        assert_eq!(*got, scan_oracle(&engine, data, 0), "flow {flow}");
        assert_eq!(svc.finishing(*flow), finish_oracle(&engine, data, 0));
    }
    assert!(svc.drain_global().is_empty(), "each report leaves once");
    assert_eq!(svc.metrics().flows, 0, "no flow outlives its reports");
    svc.shutdown();
}

/// Reload while bytes are still in flight: the service may only migrate
/// a flow at a drained chunk boundary, so every report still lands on
/// exactly one side of the cut and nothing is lost — pinned by count
/// and by per-epoch rule identity.
#[test]
fn mid_traffic_reload_loses_no_matches() {
    let a = Engine::builder().rule(1, "ab{2}c").build().unwrap();
    let b = Engine::builder().rule(1, "ab{2}c").build().unwrap();
    let svc = a.serve_with(
        2,
        ServeConfig {
            flow_budget: 1 << 20,
            ..ServeConfig::default()
        },
    );

    let flows: Vec<FlowId> = (0..8).map(|_| svc.try_open_flow().unwrap()).collect();
    let unit = b".abbc."; // one match per repetition, never straddling
    let mut pushed = 0u64;
    for round in 0..40 {
        for flow in &flows {
            svc.push_checked(*flow, unit).unwrap();
            pushed += 1;
        }
        if round == 20 {
            // No barrier: flows migrate (or not) wherever their next
            // accepted push finds them drained.
            svc.reload(&b);
        }
    }
    for flow in &flows {
        svc.close(*flow);
    }
    svc.barrier();

    let mut matches = 0u64;
    for flow in &flows {
        for m in svc.poll_checked(*flow).unwrap() {
            assert_eq!(m.rule, 1);
            assert_eq!(m.end % unit.len() as u64, 5, "match ends stay on the grid");
            matches += 1;
        }
    }
    assert_eq!(matches, pushed, "one match per pushed unit, none lost");
    assert_eq!(svc.metrics().reloads, 1);
    svc.shutdown();
}

/// Regression (folded in from the PR-8 review probe): closing an
/// already-finished flow a second time — after a reload retired its
/// epoch — must neither panic nor disturb its undrained reports.
#[test]
fn double_close_after_reload() {
    let v1 = Engine::builder().rule(7, "abc").build().unwrap();
    let v2 = Engine::builder()
        .rule(7, "abc")
        .rule(9, "xyz")
        .build()
        .unwrap();
    let svc = v1.serve();
    let flow = svc.try_open_flow().unwrap();
    svc.push_checked(flow, b".abc.").unwrap();
    svc.close(flow);
    svc.barrier();
    // flow is finished (engines freed, epoch pin released) but its
    // reports are still undrained, so the slot stays occupied.
    let _ = svc.reload(&v2); // epoch 0 now has zero pins -> retired
    svc.close(flow); // second close on a live-but-finished id
    let hits = svc.poll_checked(flow).unwrap();
    assert_eq!(hits.len(), 1);
}

/// A [`ServiceHandle::metrics`] snapshot taken while reloads race
/// pushes must still be internally coherent: the epoch counter is
/// monotone, the reported current epoch always appears in
/// `epoch_flows`, no listed epoch exceeds the current one, and the
/// per-epoch flow counts never sum past the tracked-flow gauge.
#[test]
fn metrics_snapshot_stays_coherent_while_reload_races_pushes() {
    let a = Engine::builder().rule(1, "ab{2}c").build().unwrap();
    let svc = a.serve_with(2, ServeConfig::default());

    std::thread::scope(|scope| {
        // Producer: steady traffic over a rotating set of flows.
        scope.spawn(|| {
            for round in 0u64..30 {
                let flows: Vec<FlowId> = (0..4).map(|_| svc.try_open_flow().unwrap()).collect();
                for flow in &flows {
                    common::push_chunked(&svc, *flow, b".abbc.abbc.", round + 1, 7);
                }
                for flow in &flows {
                    svc.close(*flow);
                    svc.poll_checked(*flow).unwrap();
                }
            }
        });
        // Reloader: installs a new epoch as fast as it can compile one.
        scope.spawn(|| {
            for _ in 0..10 {
                let b = Engine::builder().rule(1, "ab{2}c").build().unwrap();
                svc.reload(&b);
            }
        });
        // Sampler: every snapshot must be coherent mid-race.
        let mut last_epoch = 0u64;
        for _ in 0..200 {
            let m = svc.metrics();
            assert!(m.epoch >= last_epoch, "epoch counter is monotone");
            last_epoch = m.epoch;
            assert!(
                m.epoch_flows.iter().any(|&(e, _)| e == m.epoch),
                "current epoch {} missing from epoch_flows {:?}",
                m.epoch,
                m.epoch_flows
            );
            assert!(
                m.epoch_flows.iter().all(|&(e, _)| e <= m.epoch),
                "epoch_flows lists a future epoch: {:?}",
                m.epoch_flows
            );
            assert!(
                m.epoch_flows.windows(2).all(|w| w[0].0 < w[1].0),
                "epoch_flows is ascending and duplicate-free: {:?}",
                m.epoch_flows
            );
            let pinned: usize = m.epoch_flows.iter().map(|&(_, n)| n).sum();
            assert!(
                pinned <= m.flows,
                "{pinned} pinned flows exceed {} tracked",
                m.flows
            );
        }
    });
    svc.barrier();
    assert_eq!(svc.metrics().reloads, 10);
    svc.shutdown();
}
