//! Runtime verification: bounded-response monitoring with counting regexes.
//!
//! §3.2.1 of the paper notes that its bit-vector operations (set-first,
//! shift, disjunction of high-order bits) are exactly the sliding-window
//! machinery of metric temporal logic (MTL) monitors: the MTL interval
//! `[m,n]` is the bounded repetition `{m,n}`. This example monitors a
//! bounded-response property over an event trace:
//!
//! > "every `R` (request) is followed by a `G` (grant) within 3 to 8
//! > ticks"
//!
//! by matching the *violation* pattern — a request followed by 8 non-grant
//! ticks — and a *satisfaction* pattern that reports grants landing inside
//! the window.
//!
//! ```sh
//! cargo run --example runtime_monitor
//! ```

use recama::hw::HwSimulator;
use recama::Engine;

/// Stable property ids for the monitor's rules (the ids an alert
/// pipeline would key on).
const VIOLATION: u64 = 901;
const GRANTED: u64 = 902;

fn main() {
    // Alphabet: R = request, G = grant, '.' = idle tick. Both
    // properties compile into ONE monitoring engine, each with an
    // explicit rule id:
    //   violation — an R with no G in the next 8 ticks;
    //   granted   — an R, 3–8 non-grant ticks, then a G (response
    //               within the deadline but not too early).
    let monitor = Engine::builder()
        .rule(VIOLATION, r"R[^G]{8}")
        .rule(GRANTED, r"R[^G]{3,8}G")
        .build()
        .expect("compiles");

    let trace = b"...R....G.....R.........G...R..G......R....G";
    //               ^req  ^grant    ^req (late!)   ^too early  ^ok

    println!("trace:   {}", String::from_utf8_lossy(trace));
    let mut violations = Vec::new();
    let mut grants = Vec::new();
    for m in monitor.scan(trace) {
        match monitor.rule_id(m.pattern) {
            VIOLATION => violations.push(m.end),
            GRANTED => grants.push(m.end),
            _ => unreachable!(),
        }
    }
    println!("violations detected at offsets: {violations:?}");
    println!("in-window grants at offsets:    {grants:?}");

    // The monitor hardware: one STE + one module per property, no
    // unfolding of the window.
    for (name, i, ends) in [("violation", 0usize, &violations), ("granted", 1, &grants)] {
        let out = &monitor.outputs()[i];
        let (stes, counters, bitvectors) = out.network.counts_by_type();
        let modules = &out.modules;
        println!(
            "{name:10} -> {stes} STEs, {counters} counters, {bitvectors} bit vectors ({modules:?})"
        );
        // Cross-check the property's own image against the software scan.
        let mut hw = HwSimulator::new(&out.network);
        assert_eq!(&hw.match_ends(trace), ends);
    }

    // A monitor is a stream consumer: ticks arrive one at a time, and
    // the engine's resumable stream raises the same alerts online.
    let mut online = Vec::new();
    let mut stream = monitor.stream();
    for tick in trace {
        for m in stream.feed(&[*tick]) {
            if monitor.rule_id(m.pattern) == VIOLATION {
                online.push(m.end);
            }
        }
    }
    assert_eq!(online, violations, "online monitoring agrees with batch");

    // Sanity: the second request (offset 14) is violated — 9+ idle ticks
    // before its grant.
    assert!(!violations.is_empty(), "the late grant must be flagged");
    assert!(!grants.is_empty(), "the compliant grants must be seen");
    println!("\nbatch, online, and hardware monitors agree on both properties");

    // ---- live deployment: the owned service -------------------------
    //
    // A deployed monitor serves many traces at once and upgrades its
    // properties without restarting. `Engine::serve()` returns an
    // owned handle — the worker threads live inside `svc`, parked on a
    // condvar between ticks — and `reload` installs a recompiled
    // monitor behind an epoch counter while traffic keeps flowing.
    let svc = monitor.serve();
    let flow = svc.try_open_flow().expect("nothing sheds by default");
    for tick in &trace[..20] {
        svc.push_checked(flow, &[*tick])
            .expect("open flow, healthy service");
    }
    svc.barrier();

    // Tighten the response deadline from 8 to 6 ticks — a hot property
    // upgrade. The rules keep their stable ids (901/902), so the alert
    // pipeline reading `RuleMatch::rule` needs no change; the flow
    // migrates to the new monitor at its next pushed tick.
    let tightened = Engine::builder()
        .rule(VIOLATION, r"R[^G]{6}")
        .rule(GRANTED, r"R[^G]{3,6}G")
        .build()
        .expect("compiles");
    let epoch = svc.reload(&tightened);
    println!("\nhot-reloaded the monitor (deadline 8 -> 6 ticks), epoch {epoch}");
    for tick in &trace[20..] {
        svc.push_checked(flow, &[*tick])
            .expect("open flow, healthy service");
    }
    svc.close(flow);
    svc.barrier();

    let alerts = svc.poll_checked(flow).expect("live flow");
    assert!(alerts
        .iter()
        .all(|m| m.rule == VIOLATION || m.rule == GRANTED));
    println!(
        "alerts across both monitor versions: {:?}",
        alerts.iter().map(|m| (m.rule, m.end)).collect::<Vec<_>>()
    );

    // The metrics snapshot a dashboard would export, still without a
    // restart: epochs, scan volume, queue depth, eviction counters.
    let metrics = svc.metrics();
    assert_eq!(metrics.reloads, 1);
    assert_eq!(metrics.epoch, epoch);
    println!(
        "service metrics: epoch {}, {} reload(s), {} flow(s), {} B scanned \
         over {} shard(s), queue peak {}, {} eviction(s)",
        metrics.epoch,
        metrics.reloads,
        metrics.flows,
        metrics.shard_scan_bytes.iter().sum::<u64>(),
        metrics.shard_scan_bytes.len(),
        metrics.queue_depth_peak,
        metrics.total_evictions(),
    );
    // The literal-prefilter block: `R` is a required literal of both
    // properties, so idle-only stretches of a trace never check the
    // monitor engines out — the counters show how many tick chunks the
    // filter absorbed and how many woke a scan.
    if let Some(pf) = &metrics.prefilter {
        println!(
            "prefilter: {} unit-chunks skipped ({} B), {} candidate wake(s), \
             {} always-on rule(s)",
            pf.total_skipped_units(),
            pf.total_skipped_bytes(),
            pf.candidate_hits,
            pf.always_on_rules,
        );
    }
    // The fault-tolerance counters a pager would alarm on. A healthy
    // deployment shows zeros: no flow quarantined by a scan panic, no
    // worker restart, no open shed at the pending-bytes watermark, and
    // no fail-stop transition.
    let faults = metrics.faults;
    println!(
        "fault counters: {} quarantined flow(s), {} worker restart(s), \
         {} shed open(s), {} fail-stop(s)",
        faults.quarantined_flows, faults.worker_restarts, faults.shed_opens, faults.fail_stops,
    );
    assert_eq!(
        faults.quarantined_flows, 0,
        "clean traffic quarantines nothing"
    );
    assert_eq!(faults.fail_stops, 0, "the monitor never fail-stopped");
    svc.shutdown(); // joins the workers; Drop would do the same
}
