//! [`FlowScheduler`]: the batch driver over the crate's one serving
//! core.
//!
//! The paper evaluates CAMA as an IDS-class engine (Snort/Suricata
//! rulesets), and the workload such an engine serves is not one byte
//! stream but **thousands of concurrent flows**, each delivering bytes in
//! interleaved chunks — the shape of Suricata's flow-worker pipeline.
//! What matters at deployment scale is aggregate multi-flow throughput,
//! so the scheduling layer must keep every core busy with whatever flow
//! has bytes pending instead of binding workers to flows.
//!
//! A flow has three drivers. What a flow does with a chunk — the
//! literal-prefilter skip/wake decision, the watermark-ordered report
//! merge, `$`-finishing — is written once, in `flow.rs`;
//! [`ShardedSetStream`](crate::ShardedSetStream) drives one flow
//! synchronously. What many flows share — the flow table, the
//! `(flow, group)` readiness queue, checkout / unlocked scan / check-in,
//! quarantine, the metrics snapshot — lives once, in the
//! [`ServiceHandle`]'s module; the long-lived (resident) service steps
//! that core from worker threads. This module adds only what a *batch*
//! caller needs on top of it:
//!
//! * flows are addressed by caller-chosen `u64` ids — a `u64 → FlowId`
//!   table kept here. An id maps to one core flow: the first
//!   [`push`](FlowScheduler::push) opens it, and a read that finds the
//!   core flow freed (closed, scanned and read out, or a quarantine
//!   acknowledged by [`close`](FlowScheduler::close)) forgets the id, so
//!   the next push opens a fresh flow;
//! * [`run`](FlowScheduler::run) steps the core until the readiness
//!   queue is empty, then returns — inline on the caller for one
//!   worker, on scoped threads otherwise. The work unit is a
//!   **(flow, group)** pair, so two workers can advance *different
//!   groups of the same flow* concurrently;
//! * [`poll`](FlowScheduler::poll) drains a flow's ordered report queue;
//!   [`drain_global`](FlowScheduler::drain_global) polls every flow at
//!   once, as `(flow, match)` pairs — both as compiled pattern indices
//!   ([`SetMatch`]), since a batch scheduler never reloads its rules.
//!   A report is delivered once, by whichever of the two reads it
//!   first;
//! * [`metrics`](FlowScheduler::metrics) is the core's snapshot.
//!
//! Per-flow reports are **byte-identical** (same reports, same order) to
//! feeding that flow's chunks through its own independent
//! [`ShardedSetStream`](crate::ShardedSetStream), and to pushing them
//! through a [`ServiceHandle`]: it is the same flow on the same core.
//! Like the streams, the scheduler applies no trailing-`$` filter
//! mid-flow (a flow has no end until it is
//! [`close`](FlowScheduler::close)d); once a closed flow drains,
//! [`finishing`](FlowScheduler::finishing) resolves which `$`-anchored
//! candidates actually landed on the final byte, mirroring
//! [`ShardedSetStream::finish`](crate::ShardedSetStream::finish).

use crate::service::{FlowId, RuleMatch, ServiceHandle, ServiceMetrics};
use crate::{Engine, SetMatch};
use std::collections::HashMap;
use std::fmt;
use std::sync::{Mutex, MutexGuard};

/// The batch core reports identity rule ids, so a rule *is* a compiled
/// pattern index.
fn set_matches(reports: Vec<RuleMatch>) -> Vec<SetMatch> {
    reports
        .into_iter()
        .map(|m| SetMatch {
            pattern: m.rule as usize,
            end: m.end as usize,
        })
        .collect()
}

/// The `u64` addressing layer: each id's core flow. Reports stay in the
/// core's flow queues until a poll takes them.
type Table = HashMap<u64, FlowId>;

/// Forgets `flow` once the core has freed its flow: finished and read
/// out, or a quarantine acknowledged.
fn forget_if_freed(table: &mut Table, core: &ServiceHandle, flow: u64) {
    if table.get(&flow).is_some_and(|&id| !core.is_live(id)) {
        table.remove(&flow);
    }
}

/// Takes what `take` drains from `flow`'s core flow, and forgets the id
/// if that freed the flow.
fn read(
    table: &mut Table,
    core: &ServiceHandle,
    flow: u64,
    take: impl FnOnce(FlowId) -> Vec<RuleMatch>,
) -> Vec<SetMatch> {
    let Some(&id) = table.get(&flow) else {
        return Vec::new();
    };
    let out = set_matches(take(id));
    forget_if_freed(table, core, flow);
    out
}

/// Drains `flow`'s queued reports. A quarantined flow with nothing left
/// polls empty like any drained flow; it stays held until `close`.
fn poll(table: &mut Table, core: &ServiceHandle, flow: u64) -> Vec<SetMatch> {
    read(table, core, flow, |id| {
        core.poll_checked(id).unwrap_or_default()
    })
}

/// A batch scanning scheduler for many concurrent flows over an
/// [`Engine`]; create one with [`Engine::scheduler_with`]. See the
/// [module docs](self) for the
/// architecture.
///
/// # Examples
///
/// ```
/// use recama::{Engine, SetMatch};
///
/// let engine = Engine::builder().patterns(["ab{2}c", "xyz"]).build().unwrap();
/// let sched = engine.scheduler_with(2);
///
/// // Interleaved chunks from two flows; matches straddle the chunks.
/// sched.push(7, b"..ab");
/// sched.push(9, b"xy");
/// sched.run();
/// sched.push(9, b"z");
/// sched.push(7, b"bc!");
/// sched.run();
///
/// let hits: Vec<_> = sched.poll(7).iter().map(|m| (m.pattern, m.end)).collect();
/// assert_eq!(hits, vec![(0, 6)]); // "abbc" ends at flow-7 offset 6
/// let hits: Vec<_> = sched.poll(9).iter().map(|m| (m.pattern, m.end)).collect();
/// assert_eq!(hits, vec![(1, 3)]); // "xyz" ends at flow-9 offset 3
/// // Each report leaves once: the polls took both.
/// assert!(sched.drain_global().is_empty());
///
/// // drain_global polls every flow at once, attributing each match.
/// sched.push(9, b"xyz");
/// sched.run();
/// assert_eq!(sched.drain_global(), vec![(9, SetMatch { pattern: 1, end: 6 })]);
/// assert_eq!(sched.metrics().flows, 2);
/// ```
pub struct FlowScheduler {
    /// The serving core, without resident workers: pushes only buffer,
    /// and [`run`](FlowScheduler::run) steps it.
    handle: ServiceHandle,
    workers: usize,
    table: Mutex<Table>,
}

impl FlowScheduler {
    /// A scheduler over `engine` with a pool of `workers` threads (at
    /// least one) for [`run`](FlowScheduler::run).
    pub(crate) fn new(engine: &Engine, workers: usize) -> FlowScheduler {
        FlowScheduler {
            handle: ServiceHandle::batch(engine),
            workers: workers.max(1),
            table: Mutex::new(Table::new()),
        }
    }

    /// Locks the `u64` table — always *before* the core's lock.
    fn table(&self) -> MutexGuard<'_, Table> {
        self.table
            .lock()
            .expect("no scheduler call panics while holding the table lock")
    }

    /// Buffers `chunk` for `flow`, opening a fresh flow (new engine
    /// states, positions from 0) when the id is not held. A zero-length
    /// chunk opens the flow but schedules no work.
    ///
    /// An id is held from its first push until a
    /// [`poll`](FlowScheduler::poll), [`finishing`](FlowScheduler::finishing),
    /// [`close`](FlowScheduler::close) or
    /// [`drain_global`](FlowScheduler::drain_global) finds its flow freed:
    /// closed, [`run`](FlowScheduler::run) and read out, or quarantined
    /// and closed.
    ///
    /// # Panics
    ///
    /// Panics if `flow` is held but takes no more bytes: it is closed —
    /// close is a promise that no more bytes come; `run()` + `poll()` it
    /// to free the id — or quarantined (a scan over its bytes panicked;
    /// `close()` it to acknowledge the fault).
    pub fn push(&self, flow: u64, chunk: &[u8]) {
        let mut table = self.table();
        let id = *table.entry(flow).or_insert_with(|| {
            self.handle
                .try_open_flow()
                .expect("the batch core neither sheds opens nor fail-stops")
        });
        // The batch core has no byte budget: it only turns a push away
        // from a closed or quarantined flow.
        if self.handle.try_push(id, chunk).is_pending() {
            drop(table);
            panic!(
                "push to closed or quarantined flow {flow}: run() + poll() it first, \
                 or close() it if it is quarantined"
            );
        }
    }

    /// Marks `flow` closed: already-buffered bytes are still scanned by
    /// the next [`run`](FlowScheduler::run), after which the flow's
    /// engine states are freed. Its reports stay pollable, and the id
    /// stays held until they are read (see
    /// [`push`](FlowScheduler::push)). Closing an unknown id is a no-op;
    /// closing a quarantined flow acknowledges the fault and forgets the
    /// id.
    pub fn close(&self, flow: u64) {
        let mut table = self.table();
        if let Some(&id) = table.get(&flow) {
            self.handle.close(id);
            forget_if_freed(&mut table, &self.handle, flow);
        }
    }

    /// Scans everything buffered so far on the worker pool, returning
    /// once every flow's groups have consumed every pushed byte. Workers
    /// pull `(flow, group)` units off the readiness queue, scan outside
    /// the lock, and check the engine back in; a unit that received more
    /// bytes while checked out goes straight back on the queue.
    ///
    /// Engine states persist across calls — `push`/`run`/`poll` cycles
    /// can repeat forever, which is the serving loop.
    ///
    /// # Panics
    ///
    /// A panic inside a scan quarantines only the flow it hit: the
    /// flow's engines are freed and it accepts no more input, reports
    /// merged before the fault stay [`poll`](FlowScheduler::poll)able,
    /// and every other flow's batch completes untouched. Once the batch
    /// has settled, `run` rethrows the (first) panic payload; a caller
    /// that catches it can keep scheduling the other flows.
    pub fn run(&self) {
        let core = &*self.handle.core;
        let fault = if self.workers == 1 {
            core.drain()
        } else {
            std::thread::scope(|scope| {
                let pool: Vec<_> = (0..self.workers)
                    .map(|_| scope.spawn(|| core.drain()))
                    .collect();
                pool.into_iter()
                    .filter_map(|worker| worker.join().expect("drain catches scan panics"))
                    .next()
            })
        };
        if let Some(payload) = fault {
            std::panic::resume_unwind(payload);
        }
    }

    /// Drains `flow`'s ordered report queue (stream order: ascending end,
    /// ascending pattern within an end). Forgets the id once this frees
    /// a closed flow: every report and the finishing set read.
    pub fn poll(&self, flow: u64) -> Vec<SetMatch> {
        poll(&mut self.table(), &self.handle, flow)
    }

    /// Drains `flow`'s **finishing set**: the `$`-anchored matches that
    /// end exactly at the flow's final byte, resolved when the
    /// [`close`](FlowScheduler::close)d flow finished draining — the
    /// per-flow analogue of [`ShardedSetStream::finish`]. Empty for
    /// open or still-draining flows ([`poll`](FlowScheduler::poll)
    /// reports every `$` candidate mid-flow, because the end is unknown
    /// until close; the non-`$` polled reports plus this set are
    /// together what a one-shot [`Engine::scan`](crate::Engine::scan)
    /// over the whole flow returns). [`drain_global`](FlowScheduler::drain_global) leaves
    /// the finishing set here. Forgets the id once this frees the flow,
    /// as `poll` does.
    ///
    /// [`ShardedSetStream::finish`]: crate::ShardedSetStream::finish
    pub fn finishing(&self, flow: u64) -> Vec<SetMatch> {
        let core = &self.handle;
        read(&mut self.table(), core, flow, |id| core.finishing(id))
    }

    /// Polls every flow at once: drains each flow's reports as
    /// `(flow, match)` pairs and forgets the ids whose flows that frees,
    /// as [`poll`](FlowScheduler::poll) does.
    ///
    /// # Ordering contract
    ///
    /// Pinned by `tests/service_reload.rs` (and shared with
    /// [`ServiceHandle::drain_global`](crate::ServiceHandle::drain_global)):
    ///
    /// * **within one flow**, pairs appear in stream order — ascending
    ///   end offset, ascending pattern index within one end — exactly
    ///   the order [`poll`](FlowScheduler::poll) returns them;
    /// * **across flows**, in ascending `u64` id;
    /// * each report is delivered **exactly once**, by this call or by
    ///   `poll`: the scheduler keeps no copy, so after every flow is
    ///   polled there is nothing left to drain.
    pub fn drain_global(&self) -> Vec<(u64, SetMatch)> {
        let mut table = self.table();
        let mut flows: Vec<u64> = table.keys().copied().collect();
        flows.sort_unstable();
        let mut out = Vec::new();
        for flow in flows {
            let reports = poll(&mut table, &self.handle, flow);
            out.extend(reports.into_iter().map(|m| (flow, m)));
        }
        out
    }

    /// A point-in-time [`ServiceMetrics`] snapshot of the core, as
    /// [`ServiceHandle::metrics`] returns it: `flows` counts the held
    /// ids, `pending_bytes` is the scan debt the next
    /// [`run`](FlowScheduler::run) clears, and `hybrid` / `prefilter`
    /// are the overlay's and the literal filter's counters. The byte
    /// counters of engines checked out by workers are not counted —
    /// sample between `run`s.
    pub fn metrics(&self) -> ServiceMetrics {
        self.handle.metrics()
    }
}

impl fmt::Debug for FlowScheduler {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let metrics = self.metrics();
        write!(
            f,
            "FlowScheduler({} flows, {} workers, {} B pending)",
            metrics.flows, self.workers, metrics.pending_bytes
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Engine;
    use std::panic::AssertUnwindSafe;

    /// `patterns` as `groups` units per flow.
    fn sharded(patterns: &[&str], groups: usize) -> Engine {
        let engine = crate::set::in_scan_groups(Engine::builder().patterns(patterns), groups);
        assert_eq!(engine.scan_groups().len(), groups);
        engine
    }

    /// Per-flow scheduler output must equal an independent stream fed the
    /// same chunks.
    fn expected_stream(engine: &Engine, chunks: &[&[u8]]) -> Vec<SetMatch> {
        let mut stream = engine.stream();
        let mut out = Vec::new();
        for chunk in chunks {
            out.extend(stream.feed(chunk));
        }
        out
    }

    #[test]
    fn interleaved_flows_match_independent_streams() {
        let engine = sharded(&["ab{2,4}c", "x{3}", "q[rs]{2}t"], 3);
        let flow_a: Vec<&[u8]> = vec![b"zab", b"bbc_x", b"xx"];
        let flow_b: Vec<&[u8]> = vec![b"qrst", b"", b"_abbc"];
        for workers in [1, 2, 5] {
            let sched = engine.scheduler_with(workers);
            // Interleave pushes; run mid-way and at the end.
            sched.push(1, flow_a[0]);
            sched.push(2, flow_b[0]);
            sched.run();
            sched.push(2, flow_b[1]);
            sched.push(1, flow_a[1]);
            sched.push(2, flow_b[2]);
            sched.push(1, flow_a[2]);
            sched.run();
            assert_eq!(sched.poll(1), expected_stream(&engine, &flow_a));
            assert_eq!(sched.poll(2), expected_stream(&engine, &flow_b));
            assert_eq!(sched.metrics().pending_bytes, 0);
        }
    }

    #[test]
    fn global_sink_attributes_every_match() {
        let engine = sharded(&["kk", "zz"], 2);
        let sched = engine.scheduler_with(2);
        let at = |flow, pattern, end| (flow, SetMatch { pattern, end });
        sched.push(10, b"akka");
        sched.push(20, b"zz");
        sched.push(30, b"kk");
        sched.run();
        // A polled report is gone; drain_global takes the rest, flows in
        // id order.
        assert_eq!(sched.poll(30), vec![SetMatch { pattern: 0, end: 2 }]);
        let global = sched.drain_global();
        assert_eq!(global, vec![at(10, 0, 3), at(20, 1, 2)]);
        // Each report leaves once: neither a drain nor a poll sees it again.
        assert!(sched.drain_global().is_empty());
        assert!(sched.poll(10).is_empty());
        assert!(sched.poll(20).is_empty());

        // Finished and read out by a drain: forgotten, like a polled flow.
        assert_eq!(sched.metrics().flows, 3);
        sched.close(10);
        sched.close(20);
        sched.close(30);
        sched.run();
        assert!(sched.drain_global().is_empty());
        assert_eq!(sched.metrics().flows, 0);
    }

    #[test]
    fn close_frees_engines_and_id_reuse_starts_fresh() {
        let engine = sharded(&["ab"], 1);
        let sched = engine.scheduler_with(1);
        sched.push(5, b"..ab");
        sched.close(5); // close with bytes still pending
        sched.run();
        assert_eq!(sched.poll(5), vec![SetMatch { pattern: 0, end: 4 }]);
        // Finished + drained: the flow entry is gone.
        assert_eq!(sched.metrics().flows, 0);
        // Same id again: a fresh stream, positions restart at 1.
        sched.push(5, b"ab");
        sched.run();
        assert_eq!(sched.poll(5), vec![SetMatch { pattern: 0, end: 2 }]);
    }

    #[test]
    fn push_to_a_closed_id_before_its_reports_are_read_panics() {
        let engine = sharded(&["ab"], 1);
        let sched = engine.scheduler_with(1);
        sched.push(5, b"ab");
        sched.close(5);
        sched.run();
        // Closed, scanned, but its report unread: the id is still held.
        let pushed = std::panic::catch_unwind(AssertUnwindSafe(|| sched.push(5, b"xab")));
        let payload = pushed.expect_err("a held closed id takes no more bytes");
        let text = payload.downcast::<String>().expect("formatted panic");
        assert!(
            text.contains("flow 5") && text.contains("run() + poll()"),
            "{text}"
        );
        // Reading it out frees the id; the next push opens a fresh flow.
        assert_eq!(sched.poll(5), vec![SetMatch { pattern: 0, end: 2 }]);
        sched.push(5, b"xab");
        sched.run();
        assert_eq!(sched.poll(5), vec![SetMatch { pattern: 0, end: 3 }]);
    }

    #[test]
    fn finishing_resolves_dollar_anchors_at_flow_end() {
        let engine = sharded(&["ab$", "ab", "cd$"], 2);
        let sched = engine.scheduler_with(2);
        sched.push(1, b"ab.c");
        sched.push(1, b"d");
        sched.close(1);
        sched.run();
        // Mid-flow, every candidate end is reported (stream contract)...
        assert_eq!(
            sched.poll(1),
            vec![
                SetMatch { pattern: 0, end: 2 },
                SetMatch { pattern: 1, end: 2 },
                SetMatch { pattern: 2, end: 5 },
            ]
        );
        // ...and the finishing set keeps only the $-match on the final
        // byte — exactly what the flow's own stream would finish with.
        let mut stream = engine.stream();
        stream.feed(b"ab.c").count();
        stream.feed(b"d").count();
        assert_eq!(sched.finishing(1), stream.finish());
        assert_eq!(sched.finishing(1), vec![], "finishing drains once");
        assert_eq!(
            sched.metrics().flows,
            0,
            "fully drained flows are forgotten"
        );

        // A flow whose $-candidate is NOT on the final byte finishes empty.
        sched.push(2, b"ab.");
        sched.close(2);
        sched.run();
        assert_eq!(sched.poll(2).len(), 2);
        assert!(sched.finishing(2).is_empty());
    }

    #[test]
    fn zero_length_chunks_open_flows_but_schedule_nothing() {
        let engine = sharded(&["ab"], 1);
        let sched = engine.scheduler_with(2);
        sched.push(1, b"");
        let metrics = sched.metrics();
        assert_eq!((metrics.flows, metrics.pending_bytes), (1, 0));
        sched.run(); // no ready units: returns immediately
        assert!(sched.poll(1).is_empty());
        // Empty chunks interleaved with real ones change nothing.
        sched.push(1, b"a");
        sched.push(1, b"");
        sched.push(1, b"b");
        sched.run();
        assert_eq!(sched.poll(1), vec![SetMatch { pattern: 0, end: 2 }]);
    }

    #[test]
    fn empty_set_and_unknown_flows_are_harmless() {
        let engine = Engine::new(Vec::<String>::new()).unwrap();
        let sched = engine.scheduler_with(2);
        sched.push(1, b"anything");
        sched.run();
        assert!(sched.poll(1).is_empty());
        assert!(sched.poll(999).is_empty()); // never-opened flow
        sched.close(999); // no-op
        assert!(sched.drain_global().is_empty()); // nothing ever matched
        assert!(format!("{sched:?}").contains("2 workers"));
    }

    #[test]
    fn scheduler_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<FlowScheduler>();
    }
}
