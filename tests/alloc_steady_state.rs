//! What serving costs the allocator once it is warm. A counting global
//! allocator reads every allocation and reallocation of the process,
//! every thread's, so this binary holds ONE test: nothing else allocates
//! beside it.
//!
//! * **Steady flows.** Once the flows, the lazy-DFA rows and the
//!   scanning threads' buffers have grown, a round of push / `barrier` /
//!   poll allocates the pushed segment and the `Vec` a non-empty poll
//!   returns, and nothing per scan, per report or per batch: the report
//!   buffers and the batch belong to the scanning thread
//!   (`service.rs`, `Scratch`), the lockstep lanes sit on the stack.
//! * **Churn.** A finished flow's engines go back to the set as spares
//!   and the next flow takes them (`ShardedPatternSet::group_engine`):
//!   after the first wave no engine is built, so a wave costs its flows'
//!   own bookkeeping and nothing of an engine's.

use recama::workloads::{generate, traffic, BenchmarkId};
use recama::{Engine, FlowId, PrefilterMode, ServeConfig, ServiceHandle};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// The system allocator, counting every allocation and reallocation.
struct Counting;

/// A statistic: it publishes no other data, so `Relaxed` suffices.
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`,
// whose contract is the one `GlobalAlloc` asks of this allocator; the
// counter touches no memory the allocator hands out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations() -> u64 {
    ALLOCATIONS.load(Relaxed)
}

const FLOWS: usize = 8;
const CHUNK: usize = 512;
/// Chunks per flow input; the steady flows push theirs round after round.
const PERIOD: usize = 8;

/// Allocations the steady rounds may make beyond one per push and one
/// per non-empty poll (none were seen).
const STEADY_SLACK: u64 = 8;

/// Allocations opening a flow may make once the set has spares: the
/// flow's slot box and its unit, busy-flag and cold-group vectors (4
/// were seen), and under the `fault-inject` feature its scan counters.
/// Building an engine would add its box and the five vectors of its
/// counter cells.
const PER_OPEN: u64 = 4 + cfg!(feature = "fault-inject") as u64;

/// Allocations a flow's own bookkeeping may make over a churn wave
/// beyond its pushes and polls: its opening, its segment, report and
/// pending-report queues and their growth (about 17 were seen on this
/// traffic). The engine a wave builds per flow and the scratch its first
/// bytes grow cost about 11 more.
const PER_FLOW: u64 = 20;

/// Pushes `round`'s chunk to every flow, settles, polls them all;
/// returns (pushes, non-empty polls, reports).
fn round(svc: &ServiceHandle, flows: &[FlowId], inputs: &[Vec<u8>], round: usize) -> [u64; 3] {
    let at = (round % PERIOD) * CHUNK;
    for (flow, input) in flows.iter().zip(inputs) {
        svc.push_checked(*flow, &input[at..at + CHUNK]).unwrap();
    }
    svc.barrier();
    let (mut polls, mut reports) = (0, 0);
    for flow in flows {
        let polled = svc.poll_checked(*flow).unwrap().len() as u64;
        polls += u64::from(polled > 0);
        reports += polled;
    }
    [flows.len() as u64, polls, reports]
}

/// `rounds` rounds from `first` on, summed.
fn rounds(
    svc: &ServiceHandle,
    flows: &[FlowId],
    inputs: &[Vec<u8>],
    first: usize,
    rounds: usize,
) -> [u64; 3] {
    let mut seen = [0; 3];
    for r in first..first + rounds {
        let done = round(svc, flows, inputs, r);
        seen = std::array::from_fn(|i| seen[i] + done[i]);
    }
    seen
}

fn open(svc: &ServiceHandle) -> Vec<FlowId> {
    let mut flows = Vec::with_capacity(FLOWS);
    for _ in 0..FLOWS {
        flows.push(svc.try_open_flow().unwrap());
    }
    flows
}

#[test]
fn a_warm_service_allocates_nothing_per_scan_and_builds_no_engine_per_flow() {
    let ruleset = generate(BenchmarkId::Snort, 0.004, 2022);
    let engine = Engine::builder()
        .patterns(ruleset.pattern_strings())
        .prefilter(PrefilterMode::On)
        .lossy(true)
        .build()
        .unwrap();
    let counted = engine
        .outputs()
        .iter()
        .filter(|o| !o.nca.counters().is_empty());
    assert!(counted.count() > 0, "the ruleset carries counters");
    let inputs: Vec<Vec<u8>> = (0..FLOWS as u64)
        .map(|seed| traffic(&ruleset, PERIOD * CHUNK, 0.002, seed))
        .collect();
    let svc = engine.serve_with(1, ServeConfig::default());

    // Churn: a wave opens FLOWS flows, feeds them a period, closes them
    // and drains them. The first wave builds the engines; each later one
    // takes the spares the one before it left.
    let mut waves = Vec::new();
    for _ in 0..4 {
        let before = allocations();
        let flows = open(&svc);
        let opened = allocations() - before;
        let [pushes, mut polls, _] = rounds(&svc, &flows, &inputs, 0, PERIOD);
        for &flow in &flows {
            svc.close(flow);
        }
        svc.barrier();
        let mut finishing = 0;
        for &flow in &flows {
            polls += u64::from(!svc.poll_checked(flow).unwrap().is_empty());
            finishing += u64::from(!svc.finishing(flow).is_empty());
        }
        let spent = allocations() - before;
        waves.push((opened, spent, pushes + polls + finishing));
    }
    let (first_open, ..) = waves[0];
    for (wave, &(opened, spent, handed_out)) in waves.iter().enumerate().skip(1) {
        assert!(
            opened < first_open && opened <= PER_OPEN * FLOWS as u64 + 1,
            "wave {wave}: opening {FLOWS} flows took {opened} allocations \
             (the first wave, which built the engines, {first_open})"
        );
        let bound = handed_out + PER_FLOW * FLOWS as u64;
        assert!(
            spent <= bound,
            "wave {wave}: {spent} allocations, bound {bound} \
             ({handed_out} segments, polls and finishing sets, {FLOWS} flows)"
        );
    }

    // Steady flows: warm up over four periods, then count eight.
    let flows = open(&svc);
    rounds(&svc, &flows, &inputs, 0, 4 * PERIOD);
    let before = allocations();
    let [pushes, polls, reports] = rounds(&svc, &flows, &inputs, 0, 8 * PERIOD);
    let spent = allocations() - before;
    assert!(reports > 0, "the traffic matches");
    assert!(
        spent <= pushes + polls + STEADY_SLACK,
        "{spent} allocations over {pushes} pushes and {polls} non-empty polls"
    );
    svc.shutdown();
}
