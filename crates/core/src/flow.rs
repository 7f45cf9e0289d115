//! [`Flow`]: what one byte stream does with a chunk, written once.
//!
//! A flow is one unit per shard of its set — the shard's engine, its
//! literal-filter state, the position it has consumed and the reports it
//! has produced — plus what the units share: where the engines started
//! (`base`), how many bytes arrived (`total`), the replay tail and the
//! `$` candidates. It borrows nothing (the set is an argument) and makes
//! the four decisions every driver of a flow needs:
//!
//! 1. **admit** — what each unit does with a chunk on the filter's
//!    verdict: scan it, skip it (`restart_at(end)`), or wake
//!    (`restart_at(replay_start)`, replaying the tail first);
//! 2. **the replay tail** — the last window of bytes, kept exactly as
//!    long as a unit is cold (a hot unit never wakes again);
//! 3. **the merge** — one k-way merge of the units' reports by
//!    `(end, pattern)`, up to the *watermark*, the least position any
//!    unit has consumed;
//! 4. **`$`** — the last candidate end per trailing-`$` pattern, so the
//!    end of the stream can say which landed on the final byte.
//!
//! Where the bytes wait and where reports go is the driver's business:
//! [`ShardedSetStream`](crate::ShardedSetStream) scans the borrowed
//! chunk at once, the serving core (`service.rs`) buffers segments and
//! scans `(flow, shard)` units on workers. Both check an engine out,
//! feed it, and check it back in.
//!
//! Two invariants make the merge order independent of who scanned what
//! first. Each unit's reports arrive sorted by `(end, pattern)`
//! ([`ShardStream::feed_into`]'s contract), so the k-way merge is a
//! merge. And no match of a cold unit ends before its first literal end,
//! so a cold unit has nothing pending and its position is a formality:
//! the watermark may step *back* to `replay_start` on a wake without
//! un-finalizing anything already merged.

use crate::prefilter::{ChunkAction, PrefilterState};
use crate::ShardedPatternSet;
use recama_nca::{HybridStats, MultiReport, ShardStream};
use std::collections::{HashMap, VecDeque};

/// One `(flow, shard)` unit.
struct Unit {
    /// `None` while a driver has the engine checked out.
    engine: Option<ShardStream>,
    /// The unit is skipped while cold; cold units are never checked out.
    pre: PrefilterState,
    /// Absolute bytes of the flow this unit has consumed (as of its last
    /// check-in, skip or wake).
    pos: u64,
    /// Reports not yet merged: absolute ends, sorted by `(end, pattern)`.
    pending: VecDeque<MultiReport>,
}

/// Per-stream matching state over a [`ShardedPatternSet`]; see the
/// module docs. Every method that takes a set must be given the one the
/// flow was created on.
pub(crate) struct Flow {
    /// Empty once [`free`](Flow::free)d.
    units: Vec<Unit>,
    /// Absolute offset the engines count from: engine-relative positions
    /// + `base` = absolute.
    base: u64,
    /// Absolute length of the stream so far.
    total: u64,
    /// Last window of bytes admitted since `base`, while any unit is cold.
    tail: Vec<u8>,
    /// Last merged candidate end per trailing-`$` pattern.
    dollar: HashMap<u32, u64>,
}

impl Flow {
    /// Fresh engines and cold units of `set`, for a stream whose bytes
    /// from absolute offset `base` on they will see.
    pub(crate) fn new(set: &ShardedPatternSet, base: u64) -> Flow {
        let units = set.shard_streams().into_iter().map(|engine| Unit {
            engine: Some(engine),
            pre: PrefilterState::default(),
            pos: base,
            pending: VecDeque::new(),
        });
        Flow {
            units: units.collect(),
            base,
            total: base,
            tail: Vec::new(),
            dollar: HashMap::new(),
        }
    }

    pub(crate) fn unit_count(&self) -> usize {
        self.units.len()
    }

    pub(crate) fn total(&self) -> u64 {
        self.total
    }

    /// The least position any unit has consumed: reports ending at or
    /// below it are final.
    pub(crate) fn watermark(&self) -> u64 {
        (self.units.iter().map(|u| u.pos).min()).unwrap_or(self.total)
    }

    /// Bytes admitted but not yet consumed by every unit.
    pub(crate) fn buffered(&self) -> u64 {
        self.total - self.watermark()
    }

    /// Whether every engine is parked and caught up — the only state in
    /// which the stream can end or move to another set.
    pub(crate) fn drained(&self) -> bool {
        (self.units.iter()).all(|u| u.engine.is_some() && u.pos == self.total)
    }

    /// Admits `chunk` as the next bytes of the stream and returns each
    /// unit's verdict. A skipped unit is already past the chunk. A woken
    /// unit is repositioned at its `replay_start`; when any of those lies
    /// before the chunk, `replay(start, bytes)` is handed the bytes
    /// `[start, chunk start)` from the earliest of them on, to put in
    /// front of the chunk. Units told to scan consume the chunk through
    /// [`checkout`](Flow::checkout) / [`check_in`](Flow::check_in).
    ///
    /// An empty chunk admits nothing, so the filter state never runs
    /// ahead of bytes that were fed.
    pub(crate) fn admit(
        &mut self,
        set: &ShardedPatternSet,
        chunk: &[u8],
        replay: impl FnOnce(u64, &[u8]),
    ) -> Vec<ChunkAction> {
        if chunk.is_empty() {
            return Vec::new();
        }
        let (base, chunk_start) = (self.base, self.total);
        let end = chunk_start + chunk.len() as u64;
        self.total = end;
        let mut replay_from = chunk_start;
        let mut any_cold = false;
        let verdicts = (self.units.iter_mut().enumerate())
            .map(|(si, unit)| {
                let verdict = set.prefilter().map_or(ChunkAction::Scan, |pf| {
                    pf.chunk_action(si, &mut unit.pre, chunk, chunk_start, base)
                });
                let restart = match verdict {
                    ChunkAction::Scan => return verdict,
                    ChunkAction::Skip => {
                        any_cold = true;
                        end
                    }
                    ChunkAction::Wake { replay_start } => {
                        replay_from = replay_from.min(replay_start);
                        replay_start
                    }
                };
                let engine = unit.engine.as_mut().expect("cold units hold their engine");
                engine.restart_at(restart - base);
                unit.pos = restart;
                verdict
            })
            .collect();
        if replay_from < chunk_start {
            let tail_start = chunk_start - self.tail.len() as u64;
            debug_assert!(replay_from >= tail_start, "tail covers every replay window");
            replay(replay_from, &self.tail[(replay_from - tail_start) as usize..]);
        }
        match set.prefilter() {
            Some(pf) if any_cold => pf.extend_tail(&mut self.tail, chunk),
            // `hot` is sticky: nothing is left that could wake.
            _ => self.tail = Vec::new(),
        }
        verdicts
    }

    /// Takes unit `si`'s engine for a scan, with the absolute position it
    /// stands at.
    pub(crate) fn checkout(&mut self, si: usize) -> (ShardStream, u64) {
        let unit = &mut self.units[si];
        let engine = unit.engine.take().expect("a unit is checked out once");
        (engine, unit.pos)
    }

    /// Puts unit `si`'s engine back after a scan, with the reports the
    /// scan appended (engine-relative ends). Returns the unit's position.
    pub(crate) fn check_in(
        &mut self,
        si: usize,
        engine: ShardStream,
        reports: impl IntoIterator<Item = MultiReport>,
    ) -> u64 {
        let base = self.base;
        let unit = &mut self.units[si];
        unit.pos = base + engine.position();
        unit.engine = Some(engine);
        unit.pending.extend(reports.into_iter().map(|r| MultiReport {
            end: r.end + base,
            ..r
        }));
        unit.pos
    }

    /// Merges the units' pending reports up to the watermark into `emit`,
    /// in stream order: ascending end, ascending pattern within one end.
    pub(crate) fn merge(&mut self, set: &ShardedPatternSet, mut emit: impl FnMut(MultiReport)) {
        let watermark = self.watermark();
        let anchored = set.anchored_end();
        loop {
            let mut best: Option<(usize, (u64, u32))> = None;
            for (si, unit) in self.units.iter().enumerate() {
                if let Some(r) = unit.pending.front() {
                    if r.end <= watermark && best.is_none_or(|(_, key)| (r.end, r.pattern) < key) {
                        best = Some((si, (r.end, r.pattern)));
                    }
                }
            }
            let Some((si, key)) = best else { break };
            let pending = &mut self.units[si].pending;
            let r = pending.pop_front().expect("best exists");
            debug_assert!(
                pending.front().is_none_or(|n| key < (n.end, n.pattern)),
                "per-shard reports must arrive sorted by (end, pattern) — \
                 see MultiEngine::step_into's ordering contract"
            );
            if anchored[r.pattern as usize] {
                self.dollar.insert(r.pattern, r.end);
            }
            emit(r);
        }
    }

    /// The finishing set of a stream that ends here: the `$`-anchored
    /// candidates that end exactly on the final byte, sorted by pattern —
    /// what a one-shot scan would have kept of them. Candidates live
    /// across chunks, empty ones included.
    pub(crate) fn finishing(&self) -> Vec<MultiReport> {
        let mut out: Vec<MultiReport> = (self.dollar.iter())
            .filter(|&(_, &end)| end == self.total)
            .map(|(&pattern, &end)| MultiReport { pattern, end })
            .collect();
        out.sort_unstable();
        out
    }

    /// The hybrid byte counters of the parked engines (a checked-out
    /// engine reports when it is back).
    pub(crate) fn hybrid_stats(&self) -> HybridStats {
        let mut total = HybridStats::default();
        for unit in &self.units {
            if let Some(stats) = unit.engine.as_ref().and_then(ShardStream::hybrid_stats) {
                total.merge(&stats);
            }
        }
        total
    }

    /// Whether the engines were freed.
    pub(crate) fn is_freed(&self) -> bool {
        self.units.is_empty()
    }

    /// Frees the engines and everything kept for them, returning their
    /// hybrid counters. `total` stays.
    pub(crate) fn free(&mut self) -> HybridStats {
        let retired = self.hybrid_stats();
        self.units = Vec::new();
        self.tail = Vec::new();
        self.dollar = HashMap::new();
        retired
    }
}
