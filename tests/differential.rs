//! The one differential suite. Every way a ruleset is scanned — a block
//! scan, spans, a chunked stream, the batch scheduler and the resident
//! service at one and at three workers, and each bank's hardware
//! simulator — must report what one oracle says: each pattern compiled
//! and scanned alone (`common::Oracle`). The matrix (`common::matrix`)
//! crosses those drivers with the scan partition (hybrid rows under
//! budgets of 1, 7 and 4096 states, and three scan groups), the literal
//! prefilter on and off, and three bank policies. The chunk lengths of
//! every flow are part of its case: fixed, random with empty chunks
//! mixed in, one cut per flow, or 4 KiB and more.
//!
//! Each rules-and-inputs pair runs in one test only. This suite runs the
//! first block of thirty random pool cases and the pins that belong to
//! no other suite; the other pool blocks, pins and profile samples are
//! the slices named after what they pin, in the hybrid, pattern-set,
//! sharded, flow-scheduler, engine-API and prefilter suites.
//!
//! A pool case is a function of `(seed, index)` alone, and a failure
//! prints that pair (or the pin and its knobs) and the case shrunk to
//! what still fails.

mod common;

use common::matrix::{cells, minimise, pin, pool_case, run_knobs, run_pool, Case, Flow};
use common::matrix::{DRIVERS, SEED};

/// Thirty pool cases, each knob cell at least once, under every driver.
#[test]
fn every_driver_reports_the_oracle_on_random_pool_cases() {
    run_pool(0);
}

/// The hand-written rules and inputs no other suite owns, each in the
/// eight cells of scan × prefilter (the policy turning with them): no
/// literal at all, literal-bearing rules beside `$`-anchored and
/// always-on ones, a wake that replays, the API's rules, and many flows
/// batched before one barrier.
#[test]
fn every_driver_reports_the_oracle_on_pinned_inputs() {
    for what in ["always-on", "mixed", "replay", "api", "batched"] {
        let pin = pin(what);
        let expected = run_knobs(what, &pin.rules, &pin.flows, &cells(), &DRIVERS);
        assert!(
            !expected[0].stream.is_empty(),
            "{what}: the input must contain matches"
        );
    }
}

#[test]
fn a_shrunk_case_keeps_exactly_its_culprits() {
    let mut case = pool_case(SEED, 7);
    case.rules = ["abc", "magic", "x[yz]w", "omega$", "m{3}"]
        .map(String::from)
        .into();
    case.flows = vec![
        Flow::fixed(b"......abc..", 3),
        Flow::fixed(b"0123456789..xy..0123456789..xy.....", 4),
        Flow::fixed(b"", 1),
    ];
    // Fails while it holds "magic" and "omega$" and a flow holds "xy".
    let fails = |c: &Case| {
        let has = |r: &str| c.rules.iter().any(|rule| rule == r);
        has("magic")
            && has("omega$")
            && c.flows
                .iter()
                .any(|f| f.data.windows(2).any(|w| w == b"xy"))
    };
    let small = minimise(&case, fails);
    assert_eq!(small.rules, ["magic", "omega$"]);
    assert_eq!(small.flows.len(), 1);
    assert_eq!(small.flows[0].data, b"xy");
    assert_eq!(small.flows[0].chunks.iter().sum::<usize>(), 2);
}
