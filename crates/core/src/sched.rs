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
//! quarantine — lives once, in the [`ServiceHandle`]'s module; the
//! long-lived (resident) service steps that core from worker threads.
//! This module adds only what a *batch* caller needs on top of it:
//!
//! * flows are addressed by caller-chosen `u64` ids, opened on first
//!   [`push`](FlowScheduler::push) and reusable after they close and
//!   drain — a small `u64 → FlowId` table kept here;
//! * [`run`](FlowScheduler::run) steps the core until the readiness
//!   queue is empty, then returns — inline on the caller for one
//!   worker, on scoped threads otherwise. The work unit is a
//!   **(flow, group)** pair, so two workers can advance *different
//!   groups of the same flow* concurrently;
//! * [`poll`](FlowScheduler::poll) drains a flow's ordered report queue;
//!   [`drain_global`](FlowScheduler::drain_global) drains the global
//!   sink of `(flow, match)` events — both as compiled pattern indices
//!   ([`SetMatch`]), since a batch scheduler never reloads its rules.
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

use crate::prefilter::PrefilterMetrics;
use crate::service::{FlowId, RuleMatch, ServiceHandle};
use crate::{Engine, SetMatch};
use recama_nca::HybridStats;
use std::collections::HashMap;
use std::fmt;
use std::sync::{Mutex, MutexGuard};

/// A match attributed to a flow — the global-sink event type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FlowMatch {
    /// The flow the match occurred on.
    pub flow: u64,
    /// Index of the matching pattern in the set.
    pub pattern: usize,
    /// 1-based end offset, absolute within the flow's byte stream.
    pub end: usize,
}

impl FlowMatch {
    /// The match without its flow attribution.
    pub fn set_match(&self) -> SetMatch {
        SetMatch {
            pattern: self.pattern,
            end: self.end,
        }
    }
}

/// The batch core reports identity rule ids, so a rule *is* a compiled
/// pattern index.
fn set_matches(reports: Vec<RuleMatch>) -> impl Iterator<Item = SetMatch> {
    reports.into_iter().map(|m| SetMatch {
        pattern: m.rule as usize,
        end: m.end as usize,
    })
}

/// One `u64`-addressed flow: its current incarnation in the core, plus
/// what earlier incarnations of the id left undrained — a reopened id
/// keeps those pollable, ahead of the new incarnation's reports.
struct Incarnation {
    id: FlowId,
    reports: Vec<SetMatch>,
    finishing: Vec<SetMatch>,
}

/// The `u64` addressing layer: everything [`FlowScheduler`] keeps beside
/// the core.
#[derive(Default)]
struct Table {
    flows: HashMap<u64, Incarnation>,
    /// Slab slot index → the `u64` of the slot's latest tenant. The core
    /// recycles a slot once its flow has drained, so a sink event must
    /// be attributed before the slot can change hands: [`Table::open`]
    /// is the only place a slot gets a new tenant, and it absorbs the
    /// core's sink first.
    tenants: Vec<u64>,
    /// Sink events already attributed to their `u64` flow.
    sink: Vec<FlowMatch>,
}

impl Table {
    /// Moves the core's sink into ours, attributing every event to the
    /// `u64` id of its flow.
    fn absorb(&mut self, core: &ServiceHandle) {
        let tenants = &self.tenants;
        self.sink
            .extend(core.drain_global().into_iter().map(|ev| FlowMatch {
                flow: tenants[ev.flow.index() as usize],
                pattern: ev.rule as usize,
                end: ev.end as usize,
            }));
    }

    /// Opens a fresh core flow as `flow`'s current incarnation.
    fn open(&mut self, core: &ServiceHandle, flow: u64) -> FlowId {
        self.absorb(core);
        let id = core
            .try_open_flow()
            .expect("the batch core neither sheds opens nor fail-stops");
        let slot = id.index() as usize;
        if self.tenants.len() <= slot {
            self.tenants.resize(slot + 1, flow);
        }
        self.tenants[slot] = flow;
        let fresh = Incarnation {
            id,
            reports: Vec::new(),
            finishing: Vec::new(),
        };
        self.flows.entry(flow).or_insert(fresh).id = id;
        id
    }

    /// Forgets `flow` once the core has (its slot was freed: finished
    /// and drained, or a quarantine acknowledged) and nothing carried
    /// over from earlier incarnations is left to poll.
    fn forget_if_drained(&mut self, core: &ServiceHandle, flow: u64) {
        if self.flows.get(&flow).is_some_and(|inc| {
            inc.reports.is_empty() && inc.finishing.is_empty() && !core.is_live(inc.id)
        }) {
            self.flows.remove(&flow);
        }
    }
}

/// A batch scanning scheduler for many concurrent flows over an
/// [`Engine`]; create one with [`Engine::scheduler_with`]. See the
/// [module docs](self) for the
/// architecture.
///
/// # Examples
///
/// ```
/// use recama::Engine;
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
/// // The global sink saw both, attributed to their flows.
/// assert_eq!(sched.drain_global().len(), 2);
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
            table: Mutex::new(Table::default()),
        }
    }

    /// Locks the `u64` table — always *before* the core's lock.
    fn table(&self) -> MutexGuard<'_, Table> {
        self.table
            .lock()
            .expect("no scheduler call panics while holding the table lock")
    }

    /// The worker-pool size [`run`](FlowScheduler::run) uses.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Buffers `chunk` for `flow`, opening the flow on first use. A
    /// zero-length chunk opens the flow but schedules no work. Pushing to
    /// a [`close`](FlowScheduler::close)d-and-drained id reopens it as a
    /// **fresh** flow (new engine states, positions restarting at 0);
    /// undrained reports of the previous incarnation stay pollable.
    ///
    /// # Panics
    ///
    /// Panics if `flow` is closed but has not drained yet — close is a
    /// promise that no more bytes come — or if it is quarantined (a scan
    /// over its bytes panicked; [`close`](FlowScheduler::close) it to
    /// acknowledge, after which the id is reusable).
    pub fn push(&self, flow: u64, chunk: &[u8]) {
        let mut table = self.table();
        let id = match table.flows.get(&flow) {
            Some(inc) => inc.id,
            None => table.open(&self.handle, flow),
        };
        if self.handle.try_push(id, chunk).is_ready() {
            return;
        }
        // The core only turns a batch push away from a closed flow. One
        // that has finished draining reopens as a fresh incarnation,
        // carrying what the old one left unpolled.
        if !self.handle.is_finished(id) {
            let quarantined = self.handle.is_quarantined(id);
            drop(table);
            if quarantined {
                panic!("push to quarantined flow {flow}: close() it to acknowledge the fault");
            }
            panic!("push to closed flow {flow}: run() + poll() it first, or use a new id");
        }
        let inc = table.flows.get_mut(&flow).expect("looked up above");
        inc.reports.extend(set_matches(
            self.handle.poll_checked(id).unwrap_or_default(),
        ));
        inc.finishing.extend(set_matches(self.handle.finishing(id)));
        let id = table.open(&self.handle, flow);
        let reopened = self.handle.try_push(id, chunk);
        debug_assert!(reopened.is_ready(), "a fresh flow accepts any chunk");
    }

    /// Marks `flow` closed: already-buffered bytes are still scanned by
    /// the next [`run`](FlowScheduler::run), after which the flow's
    /// engine states are freed. Its reports stay pollable; the id can be
    /// reused afterwards (see [`push`](FlowScheduler::push)). Closing an
    /// unknown id is a no-op; closing a quarantined flow acknowledges
    /// the fault and forgets the flow.
    ///
    /// # Panics
    ///
    /// [`push`](FlowScheduler::push)ing to a closed flow that has not
    /// drained yet panics — close is a promise that no more bytes come.
    pub fn close(&self, flow: u64) {
        let mut table = self.table();
        if let Some(inc) = table.flows.get(&flow) {
            self.handle.close(inc.id);
            table.forget_if_drained(&self.handle, flow);
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
    /// ascending pattern within an end). A finished flow whose reports
    /// and finishing set have all been drained is forgotten, freeing its
    /// table entry.
    pub fn poll(&self, flow: u64) -> Vec<SetMatch> {
        let mut table = self.table();
        let Some(inc) = table.flows.get_mut(&flow) else {
            return Vec::new();
        };
        let mut out = std::mem::take(&mut inc.reports);
        // A stale id, or a quarantined flow with nothing left, polls
        // empty like any drained flow.
        out.extend(set_matches(
            self.handle.poll_checked(inc.id).unwrap_or_default(),
        ));
        table.forget_if_drained(&self.handle, flow);
        out
    }

    /// Drains `flow`'s **finishing set**: the `$`-anchored matches that
    /// end exactly at the flow's final byte, resolved when the
    /// [`close`](FlowScheduler::close)d flow finished draining — the
    /// per-flow analogue of [`ShardedSetStream::finish`]. Empty for
    /// open or still-draining flows ([`poll`](FlowScheduler::poll)
    /// reports every `$` candidate mid-flow, because the end is unknown
    /// until close; the non-`$` polled reports plus this set are
    /// together what a one-shot `find_ends` over the whole flow
    /// returns). Finishing matches do not appear in the global sink.
    ///
    /// [`ShardedSetStream::finish`]: crate::ShardedSetStream::finish
    pub fn finishing(&self, flow: u64) -> Vec<SetMatch> {
        let mut table = self.table();
        let Some(inc) = table.flows.get_mut(&flow) else {
            return Vec::new();
        };
        let mut out = std::mem::take(&mut inc.finishing);
        out.extend(set_matches(self.handle.finishing(inc.id)));
        table.forget_if_drained(&self.handle, flow);
        out
    }

    /// Drains the global sink: every merged match of every flow, in the
    /// order the scheduler finalized them.
    ///
    /// # Ordering contract
    ///
    /// Pinned by `tests/service_reload.rs` (and shared with
    /// [`ServiceHandle::drain_global`](crate::ServiceHandle::drain_global)
    /// — it is the same sink):
    ///
    /// * **within one flow**, events appear in stream order — ascending
    ///   end offset, ascending pattern index within one end — exactly
    ///   the order [`poll`](FlowScheduler::poll) returns them;
    /// * **across flows**, events interleave in merge-completion order,
    ///   which follows worker scheduling and is *not* deterministic;
    /// * each event is delivered **exactly once**: the sink is emptied
    ///   by the call, and an event is never in both an earlier and a
    ///   later drain.
    pub fn drain_global(&self) -> Vec<FlowMatch> {
        let mut table = self.table();
        table.absorb(&self.handle);
        std::mem::take(&mut table.sink)
    }

    /// Number of flows currently tracked (open, or closed with undrained
    /// reports).
    pub fn flow_count(&self) -> usize {
        self.table().flows.len()
    }

    /// Bytes pushed to `flow` so far (`None` for unknown flows). After a
    /// close + reopen this restarts from the new incarnation's bytes.
    pub fn flow_len(&self, flow: u64) -> Option<u64> {
        let id = self.table().flows.get(&flow)?.id;
        self.handle.flow_len(id)
    }

    /// Total bytes buffered but not yet consumed by every group — the
    /// scan debt the next [`run`](FlowScheduler::run) clears.
    pub fn pending_bytes(&self) -> u64 {
        self.handle.pending_bytes()
    }

    /// Aggregated hybrid-overlay statistics — byte counters across
    /// every flow's group engines, live ones and those already freed at
    /// close + drain, plus the cached states and flushes of the group
    /// caches the flows share, each counted once — or `None` when the
    /// engine scans without rows
    /// ([`ScanMode::Nca`](crate::ScanMode::Nca)), where there is nothing
    /// to split between rows and counter modules: the
    /// [`hybrid`](crate::ServiceMetrics::hybrid) block of the core's
    /// metrics snapshot. The byte counters of engines currently checked
    /// out by workers are not counted — sample between
    /// [`run`](FlowScheduler::run)s.
    pub fn hybrid_stats(&self) -> Option<HybridStats> {
        self.handle.metrics().hybrid
    }

    /// Aggregated literal-prefilter counters — skipped `(flow, group)`
    /// chunk scans per scan group, skipped bytes, cold→hot wake-ups — or
    /// `None` when the engine was built with
    /// [`PrefilterMode::Off`](crate::PrefilterMode::Off): the
    /// [`prefilter`](crate::ServiceMetrics::prefilter) block of the
    /// core's metrics snapshot. Counters accumulate across
    /// [`push`](FlowScheduler::push)es for the scheduler's lifetime.
    pub fn prefilter_stats(&self) -> Option<PrefilterMetrics> {
        self.handle.metrics().prefilter
    }
}

impl fmt::Debug for FlowScheduler {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "FlowScheduler({} flows, {} workers, {} B pending)",
            self.flow_count(),
            self.workers,
            self.pending_bytes()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Engine;

    /// `patterns` as `groups` units per flow.
    fn sharded(patterns: &[&str], groups: usize) -> Engine {
        let engine = crate::set::in_scan_groups(Engine::builder().patterns(patterns), groups);
        assert_eq!(engine.scan_groups().shard_count(), groups);
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
            assert_eq!(sched.pending_bytes(), 0);
        }
    }

    #[test]
    fn global_sink_attributes_every_match() {
        let engine = sharded(&["kk", "zz"], 2);
        let sched = engine.scheduler_with(2);
        sched.push(10, b"akka");
        sched.push(20, b"zz");
        sched.run();
        let mut global = sched.drain_global();
        global.sort();
        assert_eq!(
            global,
            vec![
                FlowMatch {
                    flow: 10,
                    pattern: 0,
                    end: 3
                },
                FlowMatch {
                    flow: 20,
                    pattern: 1,
                    end: 2
                },
            ]
        );
        assert_eq!(global[0].set_match(), SetMatch { pattern: 0, end: 3 });
        // The sink drains once.
        assert!(sched.drain_global().is_empty());
        // Per-flow queues are independent of the sink.
        assert_eq!(sched.poll(10).len(), 1);
        assert_eq!(sched.poll(20).len(), 1);
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
        assert_eq!(sched.flow_count(), 0);
        // Same id again: a fresh stream, positions restart at 1.
        sched.push(5, b"ab");
        sched.run();
        assert_eq!(sched.poll(5), vec![SetMatch { pattern: 0, end: 2 }]);
        assert_eq!(sched.flow_len(5), Some(2));
    }

    #[test]
    fn close_then_reopen_before_poll_keeps_old_reports() {
        let engine = sharded(&["ab"], 1);
        let sched = engine.scheduler_with(1);
        sched.push(5, b"ab");
        sched.close(5);
        sched.run();
        // Reopen before polling: the undrained report survives, and the
        // new incarnation's reports queue up behind it.
        sched.push(5, b"xab");
        sched.run();
        assert_eq!(
            sched.poll(5),
            vec![
                SetMatch { pattern: 0, end: 2 },
                SetMatch { pattern: 0, end: 3 },
            ]
        );
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
        assert_eq!(sched.flow_count(), 0, "fully drained flows are forgotten");

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
        assert_eq!(sched.flow_count(), 1);
        assert_eq!(sched.pending_bytes(), 0);
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
        assert!(sched.drain_global().is_empty());
        assert!(format!("{sched:?}").contains("2 workers"));
    }

    #[test]
    fn scheduler_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<FlowScheduler>();
        assert_send_sync::<FlowMatch>();
    }
}
