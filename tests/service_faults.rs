//! Chaos suite for the fault-tolerance layer (`--features
//! fault-inject`): deterministic panics and delays injected into
//! chosen `(flow, shard, k-th scan)` positions via [`FaultPlan`],
//! differentially pinning the isolation contract:
//!
//! * every **non-faulted** flow's output is byte-identical to a
//!   fault-free run — across randomized fault placements, a hot
//!   reload, and worker counts;
//! * the service never globally poisons while the restart budget
//!   lasts, and fail-stops exactly when it is exhausted;
//! * [`ServiceMetrics::faults`] counts exactly the injected faults.
//!
//! Determinism lever: with a `barrier()` between rounds, every
//! non-empty push triggers exactly one scan per `(flow, shard)` unit,
//! so the 1-based scan number a fault addresses equals the round
//! number the chunk was pushed in.

mod common;

use common::scan_oracle;
use recama::{
    Engine, FaultPlan, FlowId, PrefilterMode, RuleMatch, ServeConfig, ServeError, ServiceHandle,
    ServiceMetrics,
};
use std::time::Duration;

fn engine_with(plan: FaultPlan, mode: PrefilterMode) -> Engine {
    Engine::builder()
        .rule(10, "ab{2,3}c")
        .rule(20, "xyz$")
        .rule(30, "k[0-9]{2,4}m")
        .prefilter(mode)
        .fault_plan(plan)
        .build()
        .unwrap()
}

/// The round-robin driver: pushes `chunks[round]` to every flow per
/// round (quarantined flows skipped via `push_checked`), with a
/// barrier between rounds so scan numbers equal round numbers.
fn drive(svc: &ServiceHandle, flows: &[FlowId], chunks: &[&[u8]]) {
    for chunk in chunks {
        for flow in flows {
            match svc.push_checked(*flow, chunk) {
                Ok(_) | Err(ServeError::Quarantined { .. }) => {}
                Err(e) => panic!("unexpected push error: {e}"),
            }
        }
        svc.barrier();
    }
}

fn assert_clean(m: &ServiceMetrics) {
    assert_eq!(m.faults.quarantined_flows, 0);
    assert_eq!(m.faults.worker_restarts, 0);
    assert_eq!(m.faults.shed_opens, 0);
    assert_eq!(m.faults.fail_stops, 0);
}

/// One injected panic quarantines exactly its flow: siblings stay
/// byte-identical to the oracle, the worker re-enters its loop, the
/// service never poisons, and the faulted flow's error carries the
/// payload. With the filter off the faulted flow still buffers bytes
/// when it is quarantined.
#[test]
fn one_panic_quarantines_one_flow_and_the_rest_keep_flowing() {
    for mode in [PrefilterMode::On, PrefilterMode::Off] {
        one_panic_quarantines_one_flow(mode);
    }
}

fn one_panic_quarantines_one_flow(mode: PrefilterMode) {
    let chunks: &[&[u8]] = &[b".abbc.", b"k12m..", b"xyz.ab", b"bc.xyz"];
    let plan = FaultPlan::new().panic_at(1, 0, 2, "injected: flow 1 dies at scan 2");
    let engine = engine_with(plan, mode);
    let svc = engine.serve_with(2, ServeConfig::default());

    let flows: Vec<FlowId> = (0..4).map(|_| svc.try_open_flow().unwrap()).collect();
    drive(&svc, &flows, chunks);

    // The faulted flow (open order 1) is quarantined; nothing else is.
    assert!(common::quarantined(&svc, flows[1]));
    assert_eq!(svc.metrics().faults.fail_stops, 0);
    assert!(
        svc.push_checked(flows[0], &[]).is_ok(),
        "quarantine is not a fail-stop"
    );

    let m = svc.metrics();
    assert_eq!(m.faults.quarantined_flows, 1);
    assert_eq!(m.faults.worker_restarts, 1);
    assert_eq!(m.faults.fail_stops, 0);

    // Every non-faulted flow: byte-identical to a fault-free stream.
    let full: Vec<u8> = chunks.concat();
    for (i, flow) in flows.iter().enumerate() {
        if i == 1 {
            continue;
        }
        svc.close(*flow);
        assert_eq!(
            svc.poll_checked(*flow).unwrap(),
            scan_oracle(&engine, &full, 0),
            "non-faulted flow {i} must not notice the fault"
        );
    }

    // The faulted flow: reports merged before the fault (scan 1 = chunk
    // 1) stay pollable, then the checked calls surface the payload.
    let pre = svc.poll_checked(flows[1]).unwrap();
    assert_eq!(pre, scan_oracle(&engine, chunks[0], 0));
    match svc.poll_checked(flows[1]) {
        Err(ServeError::Quarantined { message }) => {
            assert!(
                message.contains("injected: flow 1 dies at scan 2"),
                "{message}"
            );
        }
        other => panic!("expected Quarantined, got {other:?}"),
    }
    match svc.push_checked(flows[1], b"more") {
        Err(ServeError::Quarantined { .. }) => {}
        other => panic!("expected Quarantined, got {other:?}"),
    }
    // Close acknowledges the quarantine and reclaims the slot.
    svc.close(flows[1]);
    assert_eq!(svc.poll_checked(flows[1]), Err(ServeError::Closed));

    // The pool still serves fresh traffic.
    let fresh = svc.try_open_flow().unwrap();
    svc.push_checked(fresh, b".abbc.").unwrap();
    svc.close(fresh);
    svc.barrier();
    assert_eq!(
        svc.poll_checked(fresh).unwrap(),
        scan_oracle(&engine, b".abbc.", 0)
    );
    svc.shutdown();
}

/// The chaos differential: randomized fault placements × worker counts
/// × a mid-schedule reload. Each configuration runs twice — fault-free
/// and faulted — and every non-faulted flow must be byte-identical
/// between the runs, while the fault counters equal exactly what was
/// injected.
#[test]
fn randomized_faults_never_leak_into_sibling_flows() {
    const FLOWS: usize = 6;
    const PRE_ROUNDS: u64 = 3; // rounds before the reload (= faultable scans)
    const POST_ROUNDS: u64 = 3;

    // Deterministic per-(flow, round) payloads.
    fn chunk(flow: usize, round: u64) -> Vec<u8> {
        let menu: [&[u8]; 5] = [b".abbc.", b"k12m", b"xyz.", b"abbbc", b"qq.ab"];
        menu[(flow as u64 * 7 + round * 3) as usize % menu.len()].to_vec()
    }

    /// Runs the fixed schedule and returns each flow's full drained
    /// output, or `None` for a quarantined flow.
    fn run(workers: usize, plan: FaultPlan, reload_to: &Engine) -> Vec<Option<Vec<RuleMatch>>> {
        let engine = engine_with(plan, PrefilterMode::On);
        let svc = engine.serve_with(
            workers,
            ServeConfig {
                restart_budget: 64,
                ..ServeConfig::default()
            },
        );
        let flows: Vec<FlowId> = (0..FLOWS).map(|_| svc.try_open_flow().unwrap()).collect();
        let mut out: Vec<Vec<RuleMatch>> = vec![Vec::new(); FLOWS];
        for round in 1..=(PRE_ROUNDS + POST_ROUNDS) {
            if round == PRE_ROUNDS + 1 {
                svc.reload(reload_to);
            }
            for (i, flow) in flows.iter().enumerate() {
                match svc.push_checked(*flow, &chunk(i, round)) {
                    Ok(_) | Err(ServeError::Quarantined { .. }) => {}
                    Err(e) => panic!("unexpected push error: {e}"),
                }
            }
            svc.barrier();
            for (i, flow) in flows.iter().enumerate() {
                out[i].extend(svc.poll_checked(*flow).unwrap_or_default());
            }
        }
        let quarantined: Vec<bool> = (flows.iter())
            .map(|f| common::quarantined(&svc, *f))
            .collect();
        for (i, flow) in flows.iter().enumerate() {
            svc.close(*flow);
            svc.barrier();
            out[i].extend(svc.poll_checked(*flow).unwrap_or_default());
            out[i].extend(svc.finishing(*flow));
        }
        assert_eq!(
            svc.metrics().faults.fail_stops,
            0,
            "the budget lasts: never globally poisoned"
        );
        svc.shutdown();
        out.into_iter()
            .zip(quarantined)
            .map(|(o, q)| if q { None } else { Some(o) })
            .collect()
    }

    let mut lcg = 0x243f6a8885a308d3u64;
    let mut next = move || {
        lcg = lcg
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        lcg >> 33
    };

    for workers in [1, 2, 4] {
        for _trial in 0..2 {
            // 1–2 distinct faulted flows, each panicking once at a
            // pre-reload scan (post-migration scan counters reset, so
            // pre-reload addresses are the deterministic ones).
            let mut faulted: Vec<(u64, u64)> = Vec::new();
            let count = 1 + (next() as usize % 2);
            while faulted.len() < count {
                let flow = next() % FLOWS as u64;
                let scan = 1 + next() % PRE_ROUNDS;
                if !faulted.iter().any(|&(f, _)| f == flow) {
                    faulted.push((flow, scan));
                }
            }
            let mut plan = FaultPlan::new();
            for &(flow, scan) in &faulted {
                plan = plan.panic_at(flow, 0, scan, format!("chaos f{flow}s{scan}"));
            }

            let reload_to = engine_with(FaultPlan::new(), PrefilterMode::On);
            let baseline = run(workers, FaultPlan::new(), &reload_to);
            let chaotic = run(workers, plan, &reload_to);

            for i in 0..FLOWS {
                let was_faulted = faulted.iter().any(|&(f, _)| f == i as u64);
                if was_faulted {
                    assert!(
                        chaotic[i].is_none(),
                        "workers={workers} faults={faulted:?}: flow {i} must quarantine"
                    );
                } else {
                    assert_eq!(
                        chaotic[i], baseline[i],
                        "workers={workers} faults={faulted:?}: non-faulted flow {i} \
                         must be byte-identical to the fault-free run"
                    );
                }
            }
        }
    }
}

/// Fault-counter exactness: budget + 1 injected panics ⇒ exactly that
/// many quarantines and `budget` restarts — and once the budget is
/// exhausted, the service fail-stops with the panic payload surfaced.
/// A budget of 0 is the fail-stop service: its first worker-side panic
/// quarantines the flow and poisons the service.
#[test]
fn exhausted_restart_budget_falls_back_to_fail_stop() {
    for budget in [2u32, 0] {
        fail_stop_after(budget);
    }
}

fn fail_stop_after(budget: u32) {
    let plan = (0..=u64::from(budget)).fold(FaultPlan::new(), |plan, flow| {
        plan.panic_at(flow, 0, 1, format!("boom-{flow}"))
    });
    let engine = engine_with(plan, PrefilterMode::On);
    let svc = engine.serve_with(
        2,
        ServeConfig {
            restart_budget: budget,
            ..ServeConfig::default()
        },
    );

    let flows: Vec<FlowId> = (0..4).map(|_| svc.try_open_flow().unwrap()).collect();
    for flow in &flows {
        // A plain push: budgets are clear, so this never blocks; the
        // poisoning races behind it are irrelevant to admission.
        match svc.push_checked(*flow, b".abbc.") {
            Ok(_) | Err(ServeError::Quarantined { .. }) | Err(ServeError::Poisoned { .. }) => {}
            Err(e) => panic!("unexpected push error: {e}"),
        }
    }

    // The first `budget` panics consume the budget (restart), the last
    // fail-stops. No barrier — it would panic mid-drain — so spin on
    // the metrics instead.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while svc.metrics().faults.fail_stops == 0 {
        assert!(
            std::time::Instant::now() < deadline,
            "service never fail-stopped; metrics: {:?}",
            svc.metrics()
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    let m = svc.metrics();
    assert_eq!(
        m.faults.quarantined_flows,
        u64::from(budget) + 1,
        "budget {budget}: every injected panic quarantined its flow"
    );
    assert_eq!(
        m.faults.worker_restarts,
        u64::from(budget),
        "budget {budget} consumed"
    );
    assert_eq!(
        m.faults.fail_stops, 1,
        "budget {budget}: the last panic fail-stopped"
    );

    let Err(ServeError::Poisoned { message }) = svc.try_open_flow() else {
        panic!("budget {budget}: a fail-stopped service opens nothing");
    };
    assert!(message.starts_with("boom-"), "{message}");
    match svc.push_checked(flows[3], b"more") {
        Err(ServeError::Poisoned { message: again }) => assert_eq!(again, message),
        other => panic!("budget {budget}: expected Poisoned, got {other:?}"),
    }
    match svc.try_open_flow() {
        Err(ServeError::Poisoned { .. }) => {}
        other => panic!("expected Poisoned, got {other:?}"),
    }
    svc.shutdown();
}

/// Injected delays perturb timing only: output stays byte-identical
/// and the fault counters stay zero (a slow scan is not a fault).
#[test]
fn injected_delays_change_timing_but_not_output() {
    let chunks: &[&[u8]] = &[b".abbc.", b"k12m.xyz", b"abbbc..."];
    let plan = FaultPlan::new()
        .delay_at(0, 0, 1, Duration::from_millis(30))
        .delay_at(2, 0, 2, Duration::from_millis(30));
    assert!(!plan.is_empty());
    let engine = engine_with(plan, PrefilterMode::On);
    let svc = engine.serve_with(2, ServeConfig::default());

    let flows: Vec<FlowId> = (0..3).map(|_| svc.try_open_flow().unwrap()).collect();
    drive(&svc, &flows, chunks);

    let full: Vec<u8> = chunks.concat();
    for flow in &flows {
        svc.close(*flow);
        assert_eq!(
            svc.poll_checked(*flow).unwrap(),
            scan_oracle(&engine, &full, 0)
        );
    }
    assert_clean(&svc.metrics());
    svc.shutdown();
}

/// Overload shedding: while a (delay-pinned) backlog keeps
/// `pending_bytes` above the high watermark, `try_open_flow` sheds, and
/// a shed open closes no flow: a drained flow buffers no bytes, so
/// closing it could not lower the watermark. Once the backlog drains,
/// opens are admitted again.
#[test]
fn overload_high_watermark_sheds_opens_and_evicts_per_policy() {
    let plan = FaultPlan::new().delay_at(1, 0, 1, Duration::from_millis(300));
    let engine = engine_with(plan, PrefilterMode::On);
    let svc = engine.serve_with(
        2,
        ServeConfig {
            max_pending_bytes: Some(1),
            ..ServeConfig::default()
        },
    );

    let idle = svc.try_open_flow().unwrap(); // seq 0: drained, the least recently pushed
    let busy = svc.try_open_flow().unwrap(); // seq 1: its first scan stalls 300ms
    svc.push_checked(busy, b".abbc.").unwrap();

    // The delayed scan holds pending_bytes > 0 well past these calls.
    match svc.try_open_flow() {
        Err(ServeError::Overloaded) => {}
        other => panic!("expected Overloaded, got {other:?}"),
    }
    let m = svc.metrics();
    assert_eq!(m.faults.shed_opens, 1);
    assert_eq!(m.budget_evictions, 0, "a shed open evicts nothing");
    // The idle drained flow is still open and takes input.
    assert_eq!(
        svc.push_checked(idle, b"x"),
        Ok(1),
        "the idle drained flow survives the shed"
    );

    svc.barrier(); // the delayed scan completes; backlog drains
    let admitted = svc.try_open_flow().expect("under the watermark again");
    assert_eq!(svc.push_checked(admitted, &[]), Ok(0));
    let m = svc.metrics();
    assert_eq!(m.faults.shed_opens, 1, "no further sheds");
    assert_eq!(m.faults.quarantined_flows, 0);
    svc.close(busy);
    svc.barrier();
    assert_eq!(
        svc.poll_checked(busy).unwrap().len(),
        1,
        "the delayed flow still scanned correctly"
    );
    svc.shutdown();
}

/// A worker checks out up to four ready units of one group as a batch,
/// and each unit's planted fault fires alone before the lockstep: a
/// panic on one unit quarantines that flow only, and the batch's other
/// flows are byte-identical to a fault-free run. The batch driver with
/// one worker holds all four flows' units until `run()`, so they are one
/// batch, whichever of them is faulted; the resident service settles
/// `in_flight` whatever batches its workers formed.
#[test]
fn a_panic_on_one_unit_of_a_batch_quarantines_that_flow_alone() {
    let chunks: &[&[u8]] = &[b".abbc.k12m", b"xyz.abbbc.", b"k1234m.xyz"];
    let full: Vec<u8> = chunks.concat();
    let stream_oracle = |engine: &Engine, data: &[u8]| {
        let mut stream = engine.stream();
        let hits: Vec<_> = stream.feed(data).collect();
        (hits, stream.finish())
    };
    for faulted in 0..4u64 {
        let plan = FaultPlan::new().panic_at(faulted, 0, 2, "injected: one unit of a batch");
        let engine = engine_with(plan, PrefilterMode::On);
        let sched = engine.scheduler_with(1);
        for (round, chunk) in chunks.iter().enumerate() {
            for flow in 0..4u64 {
                if flow != faulted || round < 2 {
                    sched.push(flow, chunk);
                }
            }
            let ran = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| sched.run()));
            assert_eq!(
                ran.is_err(),
                round == 1,
                "flow {faulted} faulted, round {round}"
            );
            assert_eq!(sched.metrics().pending_bytes, 0);
        }
        for flow in (0..4u64).filter(|&flow| flow != faulted) {
            sched.close(flow);
            assert_eq!(
                (sched.poll(flow), sched.finishing(flow)),
                stream_oracle(&engine, &full),
                "flow {faulted} faulted: flow {flow} must not notice"
            );
        }
        assert_eq!(sched.poll(faulted), stream_oracle(&engine, chunks[0]).0);
    }
    for workers in [1, 2] {
        let plan = FaultPlan::new().panic_at(2, 0, 2, "injected: flow 2 dies at scan 2");
        let engine = engine_with(plan, PrefilterMode::On);
        let svc = engine.serve_with(workers, ServeConfig::default());
        let flows: Vec<FlowId> = (0..4).map(|_| svc.try_open_flow().unwrap()).collect();
        drive(&svc, &flows, chunks);
        let m = svc.metrics();
        assert_eq!(m.in_flight, 0, "{workers} worker(s)");
        assert_eq!(m.faults.quarantined_flows, 1);
        assert_eq!(m.faults.worker_restarts, 1);
        assert!(common::quarantined(&svc, flows[2]));
        for (i, flow) in flows.iter().enumerate().filter(|&(i, _)| i != 2) {
            svc.close(*flow);
            assert_eq!(
                svc.poll_checked(*flow).unwrap(),
                scan_oracle(&engine, &full, 0),
                "{workers} worker(s): flow {i} must not notice the fault"
            );
        }
        svc.shutdown();
    }
}

/// A quarantined flow's engines are dropped, never parked for the next
/// flow: the flows opened after a scan panic on the same service — which
/// take the spares the finished flows left, and build the rest — report
/// exactly what the same flows report on a fresh service that never
/// faulted, `$` finishing sets included.
#[test]
fn flows_opened_after_a_quarantine_report_like_a_fresh_services() {
    let chunks: &[&[u8]] = &[b".abbc.k12", b"m.xyz.abb", b"bc.k1234m", b".abxyz"];
    for mode in [PrefilterMode::On, PrefilterMode::Off] {
        let plan = FaultPlan::new().panic_at(1, 0, 2, "injected: flow 1 dies at scan 2");
        let engine = engine_with(plan, mode);
        let svc = engine.serve_with(1, ServeConfig::default());
        let first: Vec<FlowId> = (0..3).map(|_| svc.try_open_flow().unwrap()).collect();
        drive(&svc, &first, &chunks[..2]);
        assert!(common::quarantined(&svc, first[1]), "{mode:?}");
        for flow in &first {
            svc.close(*flow);
        }
        svc.barrier();

        let fresh = engine_with(FaultPlan::new(), mode);
        let reference = fresh.serve_with(1, ServeConfig::default());
        let run = |svc: &ServiceHandle| {
            let flows: Vec<FlowId> = (0..4).map(|_| svc.try_open_flow().unwrap()).collect();
            drive(svc, &flows, &chunks[2..]);
            drive(svc, &flows[..2], chunks);
            for flow in &flows {
                svc.close(*flow);
            }
            svc.barrier();
            (flows.iter())
                .map(|&flow| (svc.poll_checked(flow).unwrap(), svc.finishing(flow)))
                .collect::<Vec<_>>()
        };
        let (got, want) = (run(&svc), run(&reference));
        assert_eq!(got, want, "{mode:?}");
        assert!(want.iter().any(|(_, finishing)| !finishing.is_empty()));
        let m = svc.metrics();
        assert_eq!((m.faults.quarantined_flows, m.faults.fail_stops), (1, 0));
        svc.shutdown();
        reference.shutdown();
    }
}

/// The batch scheduler runs the same step as the service, so a scan
/// panic quarantines its flow instead of dropping it: reports merged
/// before the fault stay pollable, sibling flows are byte-identical to
/// a fault-free stream, and `run()` rethrows the payload only once the
/// rest of the batch has settled — for the inline single worker and the
/// scoped pool alike.
#[test]
fn batch_scheduler_quarantines_the_faulted_flow_and_rethrows_once_settled() {
    let chunks: &[&[u8]] = &[b".abbc.", b"k12m..", b"xyz.ab", b"bc.xyz"];
    // (reports, finishing set) of one fault-free stream over `data`.
    let stream_oracle = |engine: &Engine, data: &[u8]| {
        let mut stream = engine.stream();
        let hits: Vec<_> = stream.feed(data).collect();
        (hits, stream.finish())
    };
    for workers in [1usize, 3] {
        let plan = FaultPlan::new().panic_at(1, 0, 2, "injected: batch flow 1 dies at scan 2");
        let engine = engine_with(plan, PrefilterMode::On);
        let sched = engine.scheduler_with(workers);

        for (round, chunk) in chunks.iter().enumerate() {
            for flow in 0..4u64 {
                if flow != 1 || round < 2 {
                    sched.push(flow, chunk);
                }
            }
            let ran = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| sched.run()));
            if round == 1 {
                let payload = ran.expect_err("run() rethrows the scan panic");
                let text = payload.downcast::<String>().expect("formatted panic");
                assert!(text.contains("batch flow 1 dies at scan 2"), "{text}");
            } else {
                ran.expect("only the faulted round rethrows");
            }
            // Settled either way: the siblings' units all ran, and the
            // quarantined flow's bytes left the gauge.
            assert_eq!(
                sched.metrics().pending_bytes,
                0,
                "{workers} worker(s), round {round}"
            );
        }

        // Every non-faulted flow: byte-identical to a fault-free stream.
        let full: Vec<u8> = chunks.concat();
        for flow in [0u64, 2, 3] {
            sched.close(flow);
            assert_eq!(
                (sched.poll(flow), sched.finishing(flow)),
                stream_oracle(&engine, &full),
                "{workers} worker(s): flow {flow} must not notice the fault"
            );
        }

        // The faulted flow is still there — not an unknown id: its
        // pre-fault reports poll, it takes no more input, and closing it
        // acknowledges the fault and frees the id for reuse.
        assert_eq!(sched.metrics().flows, 1);
        assert_eq!(sched.poll(1), stream_oracle(&engine, chunks[0]).0);
        assert!(sched.poll(1).is_empty());
        assert_eq!(sched.metrics().flows, 1, "quarantined flows wait for close");
        let pushed =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| sched.push(1, b"more")));
        assert!(pushed.is_err(), "a quarantined flow takes no more input");
        sched.close(1);
        assert_eq!(sched.metrics().flows, 0);
        sched.push(1, b".abbc.");
        sched.run();
        assert_eq!(sched.poll(1), stream_oracle(&engine, b".abbc.").0);
    }
}

/// `barrier()` scans ready units on its own thread, so a scan panic can
/// land on the caller. It is charged like a worker's: the flow is
/// quarantined and the panic costs one restart of the budget — or,
/// with the budget spent, fail-stops the service and the barrier panics
/// with the poisoned message. The one worker is held in a delayed scan
/// of flow 0 while flows 1 and 2 are pushed, so the caller scans them.
#[test]
fn a_panic_in_a_barrier_callers_scan_is_charged_like_a_workers() {
    let chunk: &[u8] = b".abbc.k12m.xyz";
    for restart_budget in [8, 0] {
        let plan = FaultPlan::new()
            .delay_at(0, 0, 1, Duration::from_millis(300))
            .panic_at(1, 0, 1, "injected: caller scan");
        let engine = engine_with(plan, PrefilterMode::On);
        let svc = engine.serve_with(
            1,
            ServeConfig {
                restart_budget,
                ..ServeConfig::default()
            },
        );
        let flows: Vec<FlowId> = (0..3).map(|_| svc.try_open_flow().unwrap()).collect();
        svc.push_checked(flows[0], chunk).unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while svc.metrics().in_flight != 1 {
            assert!(
                std::time::Instant::now() < deadline,
                "flow 0 never checked out"
            );
            std::thread::yield_now();
        }
        svc.push_checked(flows[1], chunk).unwrap();
        svc.push_checked(flows[2], chunk).unwrap();
        let settled = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| svc.barrier()));
        let m = svc.metrics();
        assert!(
            common::quarantined(&svc, flows[1]),
            "budget {restart_budget}"
        );
        assert_eq!(m.faults.quarantined_flows, 1);
        assert!(m.caller_units >= 1, "the caller scanned flow 2: {m:?}");
        if restart_budget == 0 {
            let payload = settled.expect_err("a fail-stop panics the barrier");
            let text = payload.downcast::<String>().expect("formatted panic");
            assert!(text.contains("poisoned"), "{text}");
            assert!(text.contains("injected: caller scan"), "{text}");
            assert_eq!(m.faults.fail_stops, 1);
            assert_eq!(m.faults.worker_restarts, 0);
            continue;
        }
        settled.expect("the budget absorbs the caller's panic");
        assert_eq!(m.faults.worker_restarts, 1);
        assert_eq!(m.faults.fail_stops, 0);
        for i in [0, 2] {
            svc.close(flows[i]);
            assert_eq!(
                svc.poll_checked(flows[i]).unwrap(),
                scan_oracle(&engine, chunk, 0),
                "flow {i} must not notice the fault"
            );
        }
        svc.shutdown();
    }
}
