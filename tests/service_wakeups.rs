//! Wake-up stress for the serving core's two condvars.
//!
//! `ServiceCore::step` notifies a condvar only when somebody waits on it
//! *and* what they wait for can have changed (`parked`, `push_waiters`,
//! counted under the lock). A mistake there is a lost wake-up: a
//! producer blocked in `push_checked`, a `barrier` caller parked while
//! workers hold the last units, or a worker parked with work queued,
//! that nobody ever wakes. So: two
//! workers, four producer threads that really block (a flow budget of a
//! few bytes), every blocking call in the loop, a watchdog instead of a
//! hang, and the reports of every flow against a single-threaded scan.
//! A second run calls no `barrier` at all — since a barrier caller scans
//! any flow's ready units, it would rescue a push that failed to wake a
//! worker — so every byte there reaches a worker through a push's wake.
//! With `--features fault-inject` the first run takes one injected panic,
//! so the fault path's wake-ups — a quarantine frees buffers a barrier
//! may be waiting on, and the panic may land on a barrier's own scan —
//! are covered too, and a delayed scan pins the wake a settling
//! `barrier` caller waits for.

mod common;

use recama::{
    Engine, EngineBuilder, PrefilterMode, RuleMatch, ServeConfig, ServeError, ServiceHandle,
};
use std::sync::{mpsc, Arc, Barrier};
use std::time::Duration;

/// What one producer thread polled, per flow: `None` for a flow that was
/// quarantined under it.
type Polled = Vec<Option<Vec<RuleMatch>>>;

const PRODUCERS: usize = 4;
const FLOWS_PER_PRODUCER: usize = 6;
const PUSHES_PER_FLOW: usize = 40;

fn builder() -> EngineBuilder {
    Engine::builder()
        .rule(10, "ab{2,3}c")
        .rule(20, "k[0-9]{2,4}m")
        .rule(30, "xyz")
        .rule(40, "h.{9}")
}

/// Two scan groups, so two workers can hold units of one flow at once.
fn two_units(builder: EngineBuilder) -> Engine {
    let engine = common::in_scan_groups(builder, 2);
    assert_eq!(engine.scan_groups().len(), 2);
    engine
}

/// The chunks producer `p` pushes to its `f`-th flow: 5 bytes each, cut
/// out of a text that matches every rule across chunk boundaries.
fn chunks(p: usize, f: usize) -> Vec<Vec<u8>> {
    let text = b"..abbc.k123m.xyz.h.........abbbc.k7m.xy.zk42m";
    let mut stream = text.to_vec();
    stream.rotate_left((7 * p + 3 * f) % text.len());
    stream
        .iter()
        .copied()
        .cycle()
        .take(5 * PUSHES_PER_FLOW)
        .collect::<Vec<u8>>()
        .chunks(5)
        .map(<[u8]>::to_vec)
        .collect()
}

/// What one single-threaded stream reports on the same bytes.
fn oracle(engine: &Engine, chunks: &[Vec<u8>]) -> Vec<RuleMatch> {
    let data = chunks.concat();
    let mut stream = engine.stream();
    let hits: Vec<_> = stream.feed(&data).collect();
    hits.into_iter()
        .map(|m| RuleMatch {
            rule: engine.rule_id(m.pattern),
            end: m.end as u64,
        })
        .collect()
}

/// One producer: its flows one after another, every blocking call of the
/// handle in the loop.
fn produce(svc: &ServiceHandle, p: usize) -> Polled {
    (0..FLOWS_PER_PRODUCER)
        .map(|f| {
            let flow = svc.try_open_flow().expect("nothing sheds");
            let mut got = Vec::new();
            let mut quarantined = false;
            for (i, chunk) in chunks(p, f).iter().enumerate() {
                match svc.push_checked(flow, chunk) {
                    Ok(_) => {}
                    Err(ServeError::Quarantined { .. }) => {
                        quarantined = true;
                        break;
                    }
                    Err(e) => panic!("push: {e}"),
                }
                if i % 8 == (p + f) % 8 {
                    svc.barrier();
                }
                if i % 3 == 0 {
                    match svc.poll_checked(flow) {
                        Ok(hits) => got.extend(hits),
                        Err(ServeError::Quarantined { .. }) => {}
                        Err(e) => panic!("poll: {e}"),
                    }
                }
            }
            svc.close(flow);
            svc.barrier();
            quarantined |= common::quarantined(svc, flow);
            if let Ok(hits) = svc.poll_checked(flow) {
                got.extend(hits);
            }
            if quarantined {
                svc.close(flow); // acknowledge: the slot is reclaimed
            }
            (!quarantined).then_some(got)
        })
        .collect()
}

/// A producer that never calls `barrier`: it pushes, polls now and then,
/// and after its last push polls until the flow reports what the oracle
/// does; then it closes the flow and polls until the finished flow's
/// slot is recycled. Only the workers scan, so every unit a push queued
/// reached one through that push's wake or a check-in's.
fn produce_without_barriers(svc: &ServiceHandle, p: usize, engine: &Engine) -> Polled {
    (0..FLOWS_PER_PRODUCER)
        .map(|f| {
            let flow = svc.try_open_flow().expect("nothing sheds");
            let chunks = chunks(p, f);
            let want = oracle(engine, &chunks);
            let mut got = Vec::new();
            for (i, chunk) in chunks.iter().enumerate() {
                svc.push_checked(flow, chunk).expect("push");
                if i % 3 == 0 {
                    got.extend(svc.poll_checked(flow).expect("poll"));
                }
            }
            while got.len() < want.len() {
                got.extend(svc.poll_checked(flow).expect("poll"));
                std::thread::yield_now();
            }
            svc.close(flow);
            loop {
                match svc.poll_checked(flow) {
                    Ok(hits) => got.extend(hits),
                    Err(ServeError::Closed) => break,
                    Err(e) => panic!("poll: {e}"),
                }
                std::thread::yield_now();
            }
            Some(got)
        })
        .collect()
}

/// Runs the producers against `engine`'s service with `workers` workers
/// under a watchdog and checks every flow that was not quarantined;
/// returns how many were.
fn stress(
    engine: Engine,
    workers: usize,
    produce: fn(&ServiceHandle, usize, &Engine) -> Polled,
) -> usize {
    let engine = Arc::new(engine);
    let svc = Arc::new(engine.serve_with(
        workers,
        ServeConfig {
            // Two 5-byte chunks do not fit: the second push of a pair
            // blocks until a worker has consumed the first.
            flow_budget: 8,
            ..ServeConfig::default()
        },
    ));
    let start = Arc::new(Barrier::new(PRODUCERS));
    let (done, results) = mpsc::channel();
    for p in 0..PRODUCERS {
        let (svc, start, done) = (Arc::clone(&svc), Arc::clone(&start), done.clone());
        let engine = Arc::clone(&engine);
        // Detached on purpose: a lost wake-up must fail the test below,
        // not hang a join.
        std::thread::spawn(move || {
            start.wait();
            let polled = produce(&svc, p, &engine);
            drop(svc); // before the report: its receiver takes the handle back
            let _ = done.send((p, polled));
        });
    }
    drop(done);
    let mut quarantined = 0;
    for _ in 0..PRODUCERS {
        let (p, polled) = results
            .recv_timeout(Duration::from_secs(120))
            .expect("a producer is stuck (or panicked): lost wake-up?");
        for (f, got) in polled.into_iter().enumerate() {
            match got {
                Some(got) => assert_eq!(got, oracle(&engine, &chunks(p, f)), "flow {f} of {p}"),
                None => quarantined += 1,
            }
        }
    }
    let metrics = svc.metrics();
    assert_eq!(metrics.pending_bytes, 0);
    assert_eq!(metrics.in_flight, 0);
    assert!(metrics.backpressure > 0, "no push ever blocked");
    assert_eq!(metrics.faults.quarantined_flows, quarantined as u64);
    assert_eq!(metrics.faults.fail_stops, 0);
    match Arc::try_unwrap(svc) {
        Ok(svc) => svc.shutdown(),
        Err(_) => panic!("every producer has finished"),
    }
    quarantined
}

#[test]
fn blocked_producers_and_parked_workers_are_always_woken() {
    for _ in 0..10 {
        assert_eq!(
            stress(two_units(builder()), 2, |svc, p, _| produce(svc, p)),
            0
        );
    }
}

/// No `barrier` anywhere: a push that queued a unit and woke no worker
/// leaves its flow's reports short forever, and the watchdog fires.
/// With the filter off every push queues a unit of both groups.
#[test]
fn without_barriers_every_queued_unit_reaches_a_worker() {
    for mode in [PrefilterMode::On, PrefilterMode::Off] {
        for workers in [1, 2] {
            for _ in 0..5 {
                let engine = two_units(builder().prefilter(mode));
                assert_eq!(stress(engine, workers, produce_without_barriers), 0);
            }
        }
    }
}

/// The same run with the second scan of the fourth flow opened panicking
/// on unit 1: that flow is quarantined — its buffers leave the gauge a
/// `barrier` may be waiting on — the worker re-enters its loop, and
/// everybody else finishes byte-identically.
#[cfg(feature = "fault-inject")]
#[test]
fn and_across_an_injected_panic() {
    use recama::FaultPlan;
    for _ in 0..10 {
        let plan = FaultPlan::new().panic_at(3, 1, 2, "injected: flow 3 dies at scan 2");
        let engine = two_units(builder().fault_plan(plan));
        assert_eq!(stress(engine, 2, |svc, p, _| produce(svc, p)), 1);
    }
}

/// A `barrier` caller that finds nothing ready while a worker holds the
/// last unit parks as a settling caller, and the worker's check-in of
/// that unit — which settles the service — must wake it: the first scan
/// is held for 50 ms so that the worker, not the caller, has it.
#[cfg(feature = "fault-inject")]
#[test]
fn a_settling_barrier_is_woken_by_the_check_in() {
    use recama::FaultPlan;
    let plan = FaultPlan::new().delay_at(0, 0, 1, Duration::from_millis(50));
    let engine = builder().fault_plan(plan).build().unwrap();
    assert_eq!(engine.scan_groups().len(), 1);
    let data = chunks(0, 0).concat();
    let want = oracle(&engine, std::slice::from_ref(&data));
    let svc = engine.serve_with(1, ServeConfig::default());
    let (done, result) = mpsc::channel();
    // Detached on purpose, as in `stress`.
    std::thread::spawn(move || {
        let flow = svc.try_open_flow().unwrap();
        svc.push_checked(flow, &data).unwrap();
        while svc.metrics().in_flight == 0 {
            std::thread::yield_now();
        }
        svc.barrier();
        let _ = done.send(svc.poll_checked(flow).unwrap());
    });
    let got = result
        .recv_timeout(Duration::from_secs(10))
        .expect("the barrier caller is stuck: lost settle wake-up?");
    assert_eq!(got, want);
}
