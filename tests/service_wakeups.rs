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
//! With `--features fault-inject` the same run takes one injected panic,
//! so the fault path's wake-ups — a quarantine frees buffers a barrier
//! may be waiting on, and the panic may land on a barrier's own scan —
//! are covered too.

mod common;

use recama::{Engine, EngineBuilder, RuleMatch, ServeConfig, ServeError, ServiceHandle};
use std::sync::{mpsc, Arc, Barrier};
use std::time::Duration;

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
    assert_eq!(engine.scan_groups().shard_count(), 2);
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
/// handle in the loop. Returns per flow what it polled — `None` for a
/// flow that was quarantined under it.
fn produce(svc: &ServiceHandle, p: usize) -> Vec<Option<Vec<RuleMatch>>> {
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
            quarantined |= svc.is_quarantined(flow);
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

/// Runs the producers against `engine`'s service under a watchdog and
/// checks every flow that was not quarantined; returns how many were.
fn stress(engine: Engine) -> usize {
    let svc = Arc::new(engine.serve_with(
        2,
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
        // Detached on purpose: a lost wake-up must fail the test below,
        // not hang a join.
        std::thread::spawn(move || {
            start.wait();
            let polled = produce(&svc, p);
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
    assert!(!svc.is_poisoned());
    match Arc::try_unwrap(svc) {
        Ok(svc) => svc.shutdown(),
        Err(_) => panic!("every producer has finished"),
    }
    quarantined
}

#[test]
fn blocked_producers_and_parked_workers_are_always_woken() {
    for _ in 0..10 {
        assert_eq!(stress(two_units(builder())), 0);
    }
}

/// The same run with the second scan of the fourth flow opened panicking
/// on unit 1: that flow is quarantined — its buffers leave the gauge a
/// `barrier` may be waiting on — the worker respawns, and everybody else
/// finishes byte-identically.
#[cfg(feature = "fault-inject")]
#[test]
fn and_across_an_injected_panic() {
    use recama::FaultPlan;
    for _ in 0..10 {
        let plan = FaultPlan::new().panic_at(3, 1, 2, "injected: flow 3 dies at scan 2");
        assert_eq!(stress(two_units(builder().fault_plan(plan))), 1);
    }
}
