//! [`Flow`]: what one byte stream does with a chunk, written once.
//!
//! A flow is one unit per scan group of its set — the group's engine
//! (none while the unit is cold), the position it has consumed and the
//! reports it has produced — plus what the units share: where the
//! engines started (`base`), how many bytes arrived (`total`), the
//! filter's one node and the set of units still cold, the replay tail
//! and the `$` candidates. It borrows nothing (the set is an argument)
//! and makes the four decisions every driver needs:
//!
//! 1. **admit** — one filter pass over the chunk for every cold unit,
//!    and what each unit does on its verdict: scan the chunk, skip it
//!    (a cold unit is its bit in `cold` and its position, which moves
//!    past the chunk; it has no engine), or wake (the group's first
//!    engine, restarted at `replay_start`, replaying the tail first);
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
//! scans `(flow, group)` units on workers. Both check an engine out,
//! feed it, and check it back in.
//!
//! Two invariants make the merge order independent of who scanned what
//! first. Each unit's reports arrive sorted by `(end, pattern)` — an
//! engine reports ascending ends, and within one end the ascending
//! global rule indices of its scan group — so the k-way merge is a
//! merge. And no match of a cold unit ends before its first literal end,
//! so a cold unit has nothing pending and its position is a formality:
//! the watermark may step *back* to `replay_start` on a wake without
//! un-finalizing anything already merged.

use crate::prefilter::{has, ChunkAction};
use crate::ShardedPatternSet;
use recama_nca::{HybridEngine, HybridStats, MultiReport};
use std::collections::{HashMap, VecDeque};

/// One `(flow, group)` unit.
struct Unit {
    /// `None` while the unit is cold — it gets its engine at its wake —
    /// or while a driver has the engine checked out; a cold unit is
    /// skipped, never checked out.
    engine: Option<Box<HybridEngine>>,
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
    /// The literal filter's node after the bytes admitted since `base`,
    /// advanced while any unit is cold.
    node: u32,
    /// The units still cold, one bit per scan group: no literal of the group
    /// has ended in the flow's bytes, so no match of its rules has.
    cold: Vec<u64>,
    /// Last window of bytes admitted since `base`, while any unit is cold.
    tail: Vec<u8>,
    /// Last merged candidate end per trailing-`$` pattern.
    dollar: HashMap<u32, u64>,
}

impl Flow {
    /// The units of `set` for a stream whose bytes from absolute offset
    /// `base` on they will see: a filterable group's unit starts cold,
    /// every other group's with a fresh engine.
    pub(crate) fn new(set: &ShardedPatternSet, base: u64) -> Flow {
        let cold = (set.prefilter()).map_or(Vec::new(), |pf| pf.filterable().to_vec());
        let units = (0..set.scan.shard_count()).map(|si| Unit {
            engine: (!has(&cold, si)).then(|| set.group_engine(si)),
            pos: base,
            pending: VecDeque::new(),
        });
        Flow {
            units: units.collect(),
            base,
            total: base,
            node: 0,
            cold,
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

    /// Whether every unit is parked (or cold) and caught up — the only
    /// state in which the stream can end or move to another set.
    pub(crate) fn drained(&self) -> bool {
        let parked = |si, u: &Unit| u.engine.is_some() || has(&self.cold, si);
        (self.units.iter().enumerate()).all(|(si, u)| parked(si, u) && u.pos == self.total)
    }

    /// Admits `chunk` as the next bytes of the stream, leaves each unit's
    /// verdict in `verdicts` (the caller's, so a push allocates nothing)
    /// and returns the bytes the literal filter walked: one pass for all
    /// the cold units. A skipped unit is already past the chunk. A woken
    /// unit gets its engine, at its `replay_start`; when any of those lies
    /// before the chunk, `replay(start, bytes)` is handed the bytes
    /// `[start, chunk start)` from the earliest of them on, to put in
    /// front of the chunk. Units told to scan consume the chunk through
    /// [`checkout`](Flow::checkout) / [`check_in`](Flow::check_in).
    ///
    /// An empty chunk admits nothing (no verdicts), so the filter state
    /// never runs ahead of bytes that were fed.
    pub(crate) fn admit(
        &mut self,
        set: &ShardedPatternSet,
        chunk: &[u8],
        verdicts: &mut Vec<ChunkAction>,
        replay: impl FnOnce(u64, &[u8]),
    ) -> usize {
        use ChunkAction::{Scan, Skip, Wake};
        verdicts.clear();
        if chunk.is_empty() {
            return 0;
        }
        let (base, chunk_start) = (self.base, self.total);
        let end = chunk_start + chunk.len() as u64;
        self.total = end;
        let cold_or_hot = |si| if has(&self.cold, si) { Skip } else { Scan };
        verdicts.extend((0..self.units.len()).map(cold_or_hot));
        let Some(pf) = set.prefilter().filter(|_| verdicts.contains(&Skip)) else {
            // `hot` is sticky: nothing is left that could wake.
            self.tail = Vec::new();
            return 0;
        };
        let walked = pf.advance(&mut self.node, chunk, &mut self.cold);
        let mut replay_from = chunk_start;
        for (si, (unit, verdict)) in self.units.iter_mut().zip(&mut *verdicts).enumerate() {
            if *verdict == Scan {
                continue;
            }
            debug_assert!(unit.engine.is_none(), "a cold unit holds no engine");
            if has(&self.cold, si) {
                unit.pos = end;
                continue;
            }
            // The first literal end in the flow is at or after
            // chunk_start + 1, so every match ending from here on starts
            // at or after chunk_start + 1 − window.
            let replay_start = (chunk_start + 1).saturating_sub(pf.window(si)).max(base);
            replay_from = replay_from.min(replay_start);
            *verdict = Wake { replay_start };
            let mut engine = set.group_engine(si);
            engine.restart_at(replay_start - base);
            unit.engine = Some(engine);
            unit.pos = replay_start;
        }
        if replay_from < chunk_start {
            let tail_start = chunk_start - self.tail.len() as u64;
            debug_assert!(replay_from >= tail_start, "tail covers every replay window");
            replay(
                replay_from,
                &self.tail[(replay_from - tail_start) as usize..],
            );
        }
        if verdicts.contains(&Skip) {
            pf.extend_tail(&mut self.tail, chunk);
        } else {
            self.tail = Vec::new();
        }
        walked
    }

    /// Takes unit `si`'s engine for a scan, with the absolute position it
    /// stands at.
    pub(crate) fn checkout(&mut self, si: usize) -> (Box<HybridEngine>, u64) {
        debug_assert!(!has(&self.cold, si), "only a hot unit is checked out");
        let unit = &mut self.units[si];
        let engine = unit.engine.take().expect("a unit is checked out once");
        (engine, unit.pos)
    }

    /// Puts unit `si`'s engine back after a scan, with the reports the
    /// scan appended (engine-relative ends). Returns the unit's position.
    pub(crate) fn check_in(
        &mut self,
        si: usize,
        engine: Box<HybridEngine>,
        reports: impl IntoIterator<Item = MultiReport>,
    ) -> u64 {
        let base = self.base;
        let unit = &mut self.units[si];
        unit.pos = base + engine.position();
        unit.engine = Some(engine);
        unit.pending
            .extend(reports.into_iter().map(|r| MultiReport {
                end: r.end + base,
                ..r
            }));
        unit.pos
    }

    /// Merges the units' pending reports up to the watermark into `emit`,
    /// in stream order: ascending end, ascending pattern within one end.
    /// Returns the watermark.
    pub(crate) fn merge(
        &mut self,
        set: &ShardedPatternSet,
        mut emit: impl FnMut(MultiReport),
    ) -> u64 {
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
            let Some((si, key)) = best else {
                return watermark;
            };
            let pending = &mut self.units[si].pending;
            let r = pending.pop_front().expect("best exists");
            debug_assert!(
                pending.front().is_none_or(|n| key < (n.end, n.pattern)),
                "per-group reports must arrive sorted by (end, pattern) — \
                 see HybridEngine::feed_into's ordering contract"
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
        debug_assert!(
            self.drained() && self.units.iter().all(|u| u.pending.is_empty()),
            "a stream ends with every byte scanned and every report merged"
        );
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
            if let Some(stats) = unit.engine.as_ref().and_then(|e| e.byte_counters()) {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::set::in_scan_groups;
    use crate::{Engine, PrefilterMode};
    use std::sync::Arc;

    /// `patterns` as `groups` units per flow.
    fn set_with(patterns: &[&str], groups: usize, mode: PrefilterMode) -> Arc<ShardedPatternSet> {
        let builder = Engine::builder().patterns(patterns).prefilter(mode);
        let set = in_scan_groups(builder, groups).set_arc();
        assert_eq!(set.scan.shard_count(), groups);
        set
    }

    impl Flow {
        /// The engines the flow holds while none is checked out.
        fn engines(&self) -> usize {
            self.units.iter().filter(|u| u.engine.is_some()).count()
        }
    }

    /// Everything final right now, as `(end, pattern)`.
    fn merged(flow: &mut Flow, set: &ShardedPatternSet) -> Vec<(u64, u32)> {
        let mut out = Vec::new();
        flow.merge(set, |r| out.push((r.end, r.pattern)));
        out
    }

    /// What a worker does with unit `si`: scan `stream[position..upto]`
    /// (`stream` holds the flow's bytes since its base).
    fn scan(flow: &mut Flow, si: usize, stream: &[u8], upto: usize) {
        let base = flow.base;
        let (mut engine, from) = flow.checkout(si);
        let mut reports = Vec::new();
        engine.feed_into(&stream[(from - base) as usize..upto], &mut reports);
        flow.check_in(si, engine, reports);
    }

    /// `Flow::admit` with verdicts of its own.
    fn admit(
        flow: &mut Flow,
        set: &ShardedPatternSet,
        chunk: &[u8],
        replay: impl FnOnce(u64, &[u8]),
    ) -> (Vec<ChunkAction>, usize) {
        let mut verdicts = Vec::new();
        let walked = flow.admit(set, chunk, &mut verdicts, replay);
        (verdicts, walked)
    }

    /// What `admit` handed to `replay`, if it called it.
    type Replayed = Option<(u64, Vec<u8>)>;

    /// The synchronous driver: admit, scan what was not skipped, merge.
    fn feed(flow: &mut Flow, set: &ShardedPatternSet, chunk: &[u8]) -> (Vec<(u64, u32)>, Replayed) {
        let mut replayed = None;
        let (verdicts, _) = admit(flow, set, chunk, |start, bytes| {
            replayed = Some((start, bytes.to_vec()));
        });
        let chunk_start = flow.total() - chunk.len() as u64;
        let (replay_from, replay) = replayed.clone().unwrap_or((chunk_start, Vec::new()));
        for (si, verdict) in verdicts.into_iter().enumerate() {
            if verdict != ChunkAction::Skip {
                let (mut engine, from) = flow.checkout(si);
                let mut reports = Vec::new();
                engine.feed_into(&replay[(from - replay_from) as usize..], &mut reports);
                engine.feed_into(chunk, &mut reports);
                flow.check_in(si, engine, reports);
            }
        }
        (merged(flow, set), replayed)
    }

    #[test]
    fn merge_orders_by_end_then_pattern_and_stops_at_the_watermark() {
        let set = set_with(&["xab", "ab"], 2, PrefilterMode::Off);
        let groups = &set.scan;
        assert_eq!((groups.members(0), groups.members(1)), (&[0][..], &[1][..]));
        let stream = b"xab.ab";
        let mut flow = Flow::new(&set, 0);
        admit(&mut flow, &set, &stream[..4], |_, _| {
            unreachable!("nothing wakes")
        });
        admit(&mut flow, &set, &stream[4..], |_, _| {
            unreachable!("nothing wakes")
        });
        assert_eq!((flow.watermark(), flow.buffered()), (0, 6));

        // Unit 1 runs ahead over both chunks: its reports wait for unit 0.
        scan(&mut flow, 1, stream, 6);
        assert_eq!(flow.watermark(), 0);
        assert!(merged(&mut flow, &set).is_empty() && !flow.drained());
        // Unit 0 passes the first chunk: the equal ends come out in
        // ascending pattern order, the end above the watermark stays.
        scan(&mut flow, 0, stream, 4);
        assert_eq!(flow.watermark(), 4);
        assert_eq!(merged(&mut flow, &set), [(3, 0), (3, 1)]);
        assert!(merged(&mut flow, &set).is_empty());
        // The lagging unit's later check-in releases the rest.
        scan(&mut flow, 0, stream, 6);
        assert_eq!(merged(&mut flow, &set), [(6, 1)]);
        assert!(flow.drained() && flow.buffered() == 0);
    }

    /// The `$` candidates live across chunks, not in the last chunk's
    /// reports: an empty final chunk must not lose a candidate that ended
    /// on the final byte two chunks ago.
    #[test]
    fn finishing_survives_an_empty_final_chunk() {
        for groups in [1, 2] {
            let set = set_with(&["ab$", "ab", "cd$"], groups, PrefilterMode::On);
            let mut flow = Flow::new(&set, 0);
            let mut got = Vec::new();
            for chunk in [&b"ab"[..], b".c", b"d", b""] {
                got.extend(feed(&mut flow, &set, chunk).0);
            }
            assert_eq!(got, [(2, 0), (2, 1), (5, 2)], "{groups} groups");
            let finishing = flow.finishing();
            assert_eq!(finishing, [MultiReport { pattern: 2, end: 5 }]);
        }
    }

    #[test]
    fn finishing_is_empty_when_no_dollar_match_ends_the_stream() {
        let set = set_with(&["ab$", "xy"], 1, PrefilterMode::On);
        let mut flow = Flow::new(&set, 0);
        assert_eq!(feed(&mut flow, &set, b"ab").0, [(2, 0)]);
        assert_eq!(feed(&mut flow, &set, b"xy").0, [(4, 1)]);
        assert!(flow.finishing().is_empty(), "the stream went on past 2");
        assert!(Flow::new(&set, 0).finishing().is_empty());
    }

    /// Two groups, two windows: "needle" behind `k` and four digits
    /// leads 11 bytes, "magic" behind `q` and one digit leads 7.
    fn two_windows() -> Arc<ShardedPatternSet> {
        let set = set_with(&["k\\d{4}needle", "q\\dmagic"], 2, PrefilterMode::On);
        let pf = set.prefilter().unwrap();
        assert_eq!((pf.window(0), pf.window(1)), (11, 7));
        set
    }

    #[test]
    fn a_wake_replays_the_window_and_the_tail_dies_with_the_last_cold_unit() {
        let set = two_windows();
        let mut flow = Flow::new(&set, 0);
        let mut stream = Vec::new();
        for _ in 0..40 {
            let (hits, replayed) = feed(&mut flow, &set, b"................");
            stream.extend_from_slice(b"................");
            assert!(hits.is_empty() && replayed.is_none());
            // The tail is the longer window, whoever wakes first.
            assert_eq!((flow.buffered(), flow.tail.len()), (0, 11));
        }
        // Unit 0's match starts in one chunk, its literal ends two later.
        for chunk in [&b".......k12"[..], b"34nee"] {
            assert_eq!(feed(&mut flow, &set, chunk), (Vec::new(), None));
            stream.extend_from_slice(chunk);
        }
        let chunk_start = stream.len() as u64;
        let (hits, replayed) = feed(&mut flow, &set, b"dle..q");
        stream.extend_from_slice(b"dle..q");
        let replay_start = chunk_start + 1 - 11;
        let window = stream[replay_start as usize..chunk_start as usize].to_vec();
        assert_eq!(replayed, Some((replay_start, window)));
        assert_eq!(hits, [(chunk_start + 3, 0)]);
        // Unit 1 is still cold: it skipped that chunk, and the tail lives.
        assert_eq!((flow.cold.as_slice(), flow.tail.len()), (&[0b10][..], 11));

        // It wakes from its own window: six bytes back, not unit 0's ten.
        let chunk_start = stream.len() as u64;
        let (hits, replayed) = feed(&mut flow, &set, b"7magic");
        assert_eq!(replayed, Some((chunk_start + 1 - 7, b"dle..q".to_vec())));
        assert_eq!(hits, [(chunk_start + 6, 1)]);

        // Every unit is hot: nothing can wake, so nothing is kept.
        for _ in 0..8 {
            feed(&mut flow, &set, b"k1234needle.....");
            assert_eq!(flow.tail.capacity(), 0);
        }

        // Hot from the first chunk (no usable literal): never a tail.
        let set = set_with(&["[ab]{3}"], 1, PrefilterMode::On);
        let mut flow = Flow::new(&set, 0);
        for _ in 0..8 {
            feed(&mut flow, &set, b"..abab..");
            assert_eq!(flow.tail.capacity(), 0);
        }
    }

    /// A cold unit is its bit and its position: a flow builds a group's
    /// engine at the group's first candidate, and reports what a flow
    /// without the filter reports.
    #[test]
    fn a_cold_unit_holds_no_engine_until_its_wake() {
        let set = two_windows();
        let unfiltered = set_with(&["k\\d{4}needle", "q\\dmagic"], 2, PrefilterMode::Off);
        let (mut flow, mut reference) = (Flow::new(&set, 0), Flow::new(&unfiltered, 0));
        assert_eq!((flow.engines(), reference.engines()), (0, 2));
        let chunks: [&[u8]; 4] = [b"........", b"k1234nee", b"dle.q3mag", b"ic.q1magic"];
        let (mut got, mut want) = (Vec::new(), Vec::new());
        for (i, chunk) in chunks.into_iter().enumerate() {
            got.extend(feed(&mut flow, &set, chunk).0);
            want.extend(feed(&mut reference, &unfiltered, chunk).0);
            let engines = [0, 0, 1, 2][i];
            assert_eq!(flow.engines(), engines, "after chunk {i}");
            if engines == 1 {
                // The needle woke its group, and only it.
                assert!(flow.units[0].engine.is_some() && flow.cold == [0b10]);
            }
        }
        assert_eq!(got, want);
        assert_eq!(got, [(19, 0), (27, 1), (35, 1)]);
        assert!(flow.drained() && reference.drained());
    }

    /// After a migration the engines count from `base`: a wake in the
    /// first bytes must not replay (or restart) before it, and the filter
    /// starts over with them — at the root, every filterable unit cold.
    #[test]
    fn a_wake_right_after_the_base_is_clamped_to_it() {
        let set = two_windows();
        let mut flow = Flow::new(&set, 100);
        assert_eq!((flow.total(), flow.watermark()), (100, 100));
        assert_eq!((flow.node, flow.cold.as_slice()), (0, &[0b11][..]));
        // Both literals end in the first chunk after the base: both
        // windows reach before it, both replays are clamped.
        let chunk = b"magicneedle";
        let (verdicts, walked) = admit(&mut flow, &set, chunk, |_, _| {
            unreachable!("nothing before base")
        });
        let wake = ChunkAction::Wake { replay_start: 100 };
        assert_eq!((verdicts, walked), (vec![wake, wake], chunk.len()));
        assert_eq!((flow.total(), flow.watermark()), (111, 100));
        scan(&mut flow, 0, chunk, chunk.len());
        scan(&mut flow, 1, chunk, chunk.len());
        assert!(merged(&mut flow, &set).is_empty() && flow.drained());

        // Each unit replays from its own window, clamped or not: at 108
        // unit 1's reaches back to 102, unit 0's to the base.
        let mut flow = Flow::new(&set, 100);
        assert_eq!(feed(&mut flow, &set, b"k98"), (Vec::new(), None));
        assert_eq!(feed(&mut flow, &set, b"76nee"), (Vec::new(), None));
        let (verdicts, _) = admit(&mut flow, &set, b"dle.q5magic", |start, bytes| {
            assert_eq!((start, bytes), (100, &b"k9876nee"[..]));
        });
        let woken = [100, 102].map(|replay_start| ChunkAction::Wake { replay_start });
        assert_eq!(verdicts, woken);
        assert_eq!((flow.units[0].pos, flow.units[1].pos), (100, 102));
        assert!(flow.cold == [0] && flow.tail.capacity() == 0);
        let stream = b"k9876needle.q5magic";
        scan(&mut flow, 0, stream, stream.len());
        scan(&mut flow, 1, stream, stream.len());
        assert_eq!(merged(&mut flow, &set), [(111, 0), (119, 1)]);
    }
}
