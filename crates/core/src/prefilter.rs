//! Literal prefiltering (multi-pattern matching): compile-time required-
//! literal extraction plus one set-level Aho-Corasick filter that lets
//! the serving layers skip scanning cold `(flow, group)` units entirely.
//!
//! Production IDS engines never run the full automaton over benign
//! bytes: Suricata routes every rule through a prefilter/MPM stage (one
//! MPM context per signature group, whose hits carry rule sets), and the
//! hardware literature (Wu-Manber, Aho-Corasick codesign) scales literal
//! filtering to malware-grade rulesets. This module is that stage:
//!
//! * **Extraction** ([`extract`]) is a conservative analysis over the
//!   parsed [`Regex`]: a rule contributes a literal only if *every*
//!   match must contain it, with a bounded **lead** — an upper bound on
//!   the number of bytes from the start of a match to the end of the
//!   literal occurrence. Rules with no usable literal (alternations,
//!   classes, unbounded repetition before every literal, nullable
//!   rules) are marked **always-on**.
//! * **Filtering** ([`SetPrefilter`]) is **one** Aho-Corasick automaton
//!   over every literal of every group without an always-on rule. A
//!   node's output is the *set of scan groups* with a literal ending there,
//!   and a flow keeps one node for all its units: a byte is looked at
//!   once whatever the group count, as the paper's machine shows a
//!   symbol to every STE in the same cycle. The node survives chunk
//!   boundaries, so a literal split across chunks is still found.
//!
//!   Four lanes prove a clean chunk; the exact walk decides the rest. A
//!   long chunk is cut into four segments walked as interleaved chains,
//!   each started `depth` (the longest literal) bytes early, and when no
//!   literal of a cold group ends in it that walk is the whole pass:
//!   ≈ 0.7 ns/B on SpamAssassin 0.02 benign traffic (2-core Xeon VM),
//!   against ≈ 2.2 for the exact walk's one add and one dependent load
//!   per byte. Any other chunk gets the exact walk, so every verdict is
//!   its verdict, and the lanes' failed proofs are at most
//!   `candidate_hits`.
//! * **Skipping** is *sticky-cold → sticky-hot*: a `(flow, group)` unit
//!   is **cold** until a literal of its group ends in the flow's bytes.
//!   While cold, no match of the group's rules can end anywhere (every
//!   match needs a literal that has not occurred), so the chunk is
//!   skipped — it still advances the flow's node and the unit's offset.
//!   On the first candidate the unit turns hot **forever** and its
//!   engine teleports to `chunk_start + 1 − window` (the group's largest
//!   lead) via [`HybridEngine::restart_at`](recama_nca::HybridEngine::restart_at),
//!   replaying at most `window` tail bytes: any true match ending at or
//!   after the candidate chunk starts inside the replayed window, and a
//!   fresh `Σ*` frontier finds all such matches identically — so
//!   filtered output is **byte-identical** to unfiltered, pinned by
//!   `tests/prefilter_differential.rs`.

use recama_syntax::{ByteAlphabet, Parsed, Regex};

/// Whether compiled sets consult the literal prefilter; set at build
/// time via [`EngineBuilder::prefilter`](crate::EngineBuilder::prefilter).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PrefilterMode {
    /// Extract literals and skip cold `(flow, group)` units (the
    /// default). Output is byte-identical to [`PrefilterMode::Off`].
    #[default]
    On,
    /// Never consult the filter: every unit scans every byte. The
    /// escape hatch for measuring the filter's effect (and the mode CI
    /// exercises to pin the identity).
    Off,
}

/// Prefilter counters, reported beside
/// [`HybridStats`](crate::HybridStats) by
/// [`ServiceMetrics`](crate::ServiceMetrics) and
/// [`FlowScheduler::prefilter_stats`](crate::FlowScheduler::prefilter_stats)
/// (`None` under [`PrefilterMode::Off`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PrefilterMetrics {
    /// Per scan group: `(flow, group)` chunk scans skipped because the unit
    /// was cold.
    pub skipped_units: Vec<u64>,
    /// Per scan group: bytes those skipped scans would have walked.
    pub skipped_bytes: Vec<u64>,
    /// Cold units woken by a literal candidate (each wake is the unit's
    /// single cold→hot transition; hot units scan everything).
    pub candidate_hits: u64,
    /// Bytes the literal automaton walked: one pass over a chunk serves
    /// every cold unit of its flow, ends on the byte that wakes the last
    /// of them, and is not made for a flow without a cold unit.
    pub filter_bytes: u64,
    /// Rules with no usable required literal; a group containing one
    /// always scans.
    pub always_on_rules: usize,
}

impl PrefilterMetrics {
    /// Sum of [`skipped_units`](PrefilterMetrics::skipped_units) across
    /// groups.
    pub fn total_skipped_units(&self) -> u64 {
        self.skipped_units.iter().sum()
    }

    /// Sum of [`skipped_bytes`](PrefilterMetrics::skipped_bytes) across
    /// groups.
    pub fn total_skipped_bytes(&self) -> u64 {
        self.skipped_bytes.iter().sum()
    }
}

/// Auto-resizing per-group counter vector — the one accumulation
/// primitive shared by the scheduler's and the service's metrics paths
/// (scan counts, scan bytes, and both prefilter counters all use it).
#[derive(Debug, Default, Clone)]
pub(crate) struct PerGroup(Vec<u64>);

impl PerGroup {
    pub(crate) fn add(&mut self, group: usize, n: u64) {
        if self.0.len() <= group {
            self.0.resize(group + 1, 0);
        }
        self.0[group] += n;
    }

    /// The counters, padded with zeros to at least `groups` entries.
    pub(crate) fn snapshot(&self, groups: usize) -> Vec<u64> {
        let mut v = self.0.clone();
        if v.len() < groups {
            v.resize(groups, 0);
        }
        v
    }
}

/// Mutable prefilter counters for one serving layer (scheduler or
/// service); snapshotted into [`PrefilterMetrics`].
#[derive(Debug, Default)]
pub(crate) struct PrefilterCounters {
    pub(crate) skipped_units: PerGroup,
    pub(crate) skipped_bytes: PerGroup,
    pub(crate) candidate_hits: u64,
    pub(crate) filter_bytes: u64,
}

impl PrefilterCounters {
    pub(crate) fn snapshot(&self, groups: usize, always_on_rules: usize) -> PrefilterMetrics {
        PrefilterMetrics {
            skipped_units: self.skipped_units.snapshot(groups),
            skipped_bytes: self.skipped_bytes.snapshot(groups),
            candidate_hits: self.candidate_hits,
            filter_bytes: self.filter_bytes,
            always_on_rules,
        }
    }
}

/// A required literal extracted from one rule: every match of the rule
/// contains `lit` as a contiguous substring, and the literal's last
/// byte is at most `lead` bytes after the start of the match.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Extraction {
    pub(crate) lit: Vec<u8>,
    pub(crate) lead: u64,
}

/// Leads beyond this make a literal unusable (the wake-up replay window
/// — and the per-flow tail buffer — would grow without bound).
const MAX_LEAD: u64 = 256;

/// Bounded singleton repeats up to this count are expanded into the
/// literal run (`ab{2,3}c` contributes `abb`).
const REPEAT_EXPAND_CAP: u32 = 64;

/// Extracts a required literal with bounded lead from a parsed rule, or
/// `None` if the rule must be always-on. Conservative in both
/// directions that matter: a returned literal really is contained in
/// every match (so skipping cold units loses nothing), and its lead
/// really bounds the match start (so the wake-up replay window
/// suffices).
pub(crate) fn extract(parsed: &Parsed) -> Option<Extraction> {
    let r = &parsed.regex;
    // A nullable rule matches the empty string at every position: no
    // literal is required. A void rule never matches; always-on is a
    // harmless (and simplest) classification.
    if r.nullable() || r.is_void() {
        return None;
    }
    let mut w = Walk {
        prefix: Some(0), // a match starts 0 bytes before its own start
        ..Walk::default()
    };
    w.walk(r);
    w.flush();
    w.best
}

/// Upper bound on the number of bytes a match of `r` can span (`None`
/// if unbounded).
fn max_len(r: &Regex) -> Option<u64> {
    match r {
        Regex::Empty | Regex::Void => Some(0),
        Regex::Class(_) => Some(1),
        Regex::Concat(parts) => parts.iter().try_fold(0u64, |a, p| Some(a + max_len(p)?)),
        Regex::Alt(parts) => parts.iter().try_fold(0u64, |a, p| Some(a.max(max_len(p)?))),
        Regex::Star(inner) => match max_len(inner) {
            Some(0) => Some(0),
            _ => None,
        },
        Regex::Repeat { inner, max, .. } => match (max, max_len(inner)) {
            (_, Some(0)) => Some(0),
            (Some(m), Some(l)) => Some(u64::from(*m) * l),
            _ => None,
        },
    }
}

/// The left-to-right extraction walk: accumulates the current literal
/// run of contiguous single-byte atoms while tracking `prefix`, an
/// upper bound on the bytes from the match start to the current point
/// (`None` once unbounded — a later literal's lead cannot be bounded).
#[derive(Default)]
struct Walk {
    prefix: Option<u64>,
    run: Vec<u8>,
    /// `prefix` when the current run began.
    run_start: Option<u64>,
    best: Option<Extraction>,
}

impl Walk {
    fn walk(&mut self, r: &Regex) {
        match r {
            Regex::Empty | Regex::Void => {}
            Regex::Class(c) => {
                if c.len() == 1 {
                    self.push_byte(c.min_byte().expect("nonempty class"));
                } else {
                    self.flush();
                    self.advance(Some(1));
                }
            }
            Regex::Concat(parts) => {
                for p in parts {
                    self.walk(p);
                }
            }
            // Alternations are opaque: no arm's literal is required by
            // the others, and intersecting arm literals is not worth the
            // complexity for the rulesets at hand.
            Regex::Alt(parts) => {
                self.flush();
                self.advance(parts.iter().try_fold(0u64, |a, p| Some(a.max(max_len(p)?))));
            }
            Regex::Star(inner) => {
                self.flush();
                self.advance(match max_len(inner) {
                    Some(0) => Some(0),
                    _ => None,
                });
            }
            Regex::Repeat { inner, min, max } => self.repeat(inner, *min, *max),
        }
    }

    fn repeat(&mut self, inner: &Regex, min: u32, max: Option<u32>) {
        let singleton = match inner {
            Regex::Class(c) if c.len() == 1 => c.min_byte(),
            _ => None,
        };
        match singleton {
            // σ{m,n} with a single byte: the first m copies are
            // contiguous with whatever literal run precedes them.
            Some(b) if (1..=REPEAT_EXPAND_CAP).contains(&min) => {
                for _ in 0..min {
                    self.push_byte(b);
                }
                if max != Some(min) {
                    // The boundary after the m-th copy is variable.
                    self.flush();
                    self.advance(max.map(|mx| u64::from(mx - min)));
                }
            }
            // A non-singleton body occurring at least once: its first
            // iteration is required and contiguous, so recurse into it;
            // further iterations only stretch the prefix.
            None if min >= 1 => {
                self.walk(inner);
                if max != Some(1) {
                    self.flush();
                    self.advance(max.and_then(|mx| Some(u64::from(mx - 1) * max_len(inner)?)));
                }
            }
            // min == 0 (nothing required) or an over-cap singleton run.
            _ => {
                self.flush();
                self.advance(max.and_then(|mx| Some(u64::from(mx) * max_len(inner)?)));
            }
        }
    }

    fn push_byte(&mut self, b: u8) {
        if self.run.is_empty() {
            self.run_start = self.prefix;
        }
        self.run.push(b);
        self.prefix = self.prefix.map(|p| p + 1);
    }

    /// Adds `bytes` (an upper bound, `None` = unbounded) to the prefix.
    fn advance(&mut self, bytes: Option<u64>) {
        self.prefix = match (self.prefix, bytes) {
            (Some(p), Some(b)) => Some(p + b),
            _ => None,
        };
    }

    /// Ends the current literal run and keeps it if it beats the best
    /// candidate so far (longer wins; shorter lead breaks ties).
    fn flush(&mut self) {
        if !self.run.is_empty() {
            if let Some(start) = self.run_start {
                let lead = start + self.run.len() as u64;
                if lead <= MAX_LEAD {
                    let better = match &self.best {
                        None => true,
                        Some(best) => {
                            self.run.len() > best.lit.len()
                                || (self.run.len() == best.lit.len() && lead < best.lead)
                        }
                    };
                    if better {
                        self.best = Some(Extraction {
                            lit: std::mem::take(&mut self.run),
                            lead,
                        });
                    }
                }
            }
            self.run.clear();
        }
        self.run_start = None;
    }
}

/// The compiled prefilter of a whole set: a flat goto table over the
/// set's shared byte-class alphabet, fully determinized at build time
/// (failure links are folded in, so advancing is one lookup per byte),
/// whose outputs are group sets. Matching over classes instead of raw
/// bytes can only *over*-report (two bytes sharing a class are
/// indistinguishable), which wakes a unit early but never skips a real
/// candidate — and singleton predicates get singleton classes from the
/// set's alphabet anyway, so in practice the filter is exact.
#[derive(Debug)]
pub(crate) struct SetPrefilter {
    alphabet: ByteAlphabet,
    /// `table[row + class]` is the next node's row offset. Empty when no
    /// filterable group has a literal: nothing to walk.
    table: Vec<u32>,
    stride: usize,
    /// The least row offset of a node where a literal ends.
    first_hit: usize,
    /// Per node from `first_hit` on, `words` mask words: the groups with
    /// a literal ending there (one bit per scan group: as wide as the plan).
    out: Vec<u64>,
    words: usize,
    /// The groups without an always-on rule — the units that start cold.
    filterable: Vec<u64>,
    /// Per scan group, its wake-up replay window: the max lead of its literals.
    windows: Vec<u64>,
    always_on_rules: usize,
    /// Max window over all groups: how many trailing bytes a flow's tail
    /// buffer must retain for wake-up replay.
    max_window: u64,
    /// The longest literal: no node lies deeper, so a walk started from
    /// the root this many bytes early is on the exact walk's node.
    depth: usize,
}

/// Independent walks the clean-chunk proof keeps in flight (eight ran
/// slower than four).
const LANES: usize = 4;

/// Whether `group`'s bit is set in `mask` (one bit per scan group, 64 a word).
pub(crate) fn has(mask: &[u64], group: usize) -> bool {
    (mask.get(group / 64)).is_some_and(|word| word >> (group % 64) & 1 != 0)
}

impl SetPrefilter {
    /// Builds the set's automaton from the rules' parse trees and the
    /// scan partition, over the set's shared byte-class `alphabet`. A group
    /// with an always-on rule contributes no literal and is never cold.
    pub(crate) fn build(
        parsed: &[Parsed],
        groups: &[Vec<usize>],
        alphabet: ByteAlphabet,
    ) -> SetPrefilter {
        const NONE: u32 = u32::MAX;
        let extractions: Vec<Option<Extraction>> = parsed.iter().map(extract).collect();
        let always_on_rules = extractions.iter().filter(|e| e.is_none()).count();
        let stride = alphabet.len().max(1);
        let words = groups.len().div_ceil(64);
        let mut filterable = vec![0u64; words];
        let mut windows = vec![0u64; groups.len()];
        let mut table: Vec<u32> = vec![NONE; stride];
        let mut out = vec![0u64; words];
        let mut depth = 0;
        for (si, members) in groups.iter().enumerate() {
            let lits: Option<Vec<&Extraction>> =
                members.iter().map(|&g| extractions[g].as_ref()).collect();
            let Some(lits) = lits else { continue };
            filterable[si / 64] |= 1 << (si % 64);
            for ex in lits {
                windows[si] = windows[si].max(ex.lead);
                depth = depth.max(ex.lit.len());
                let mut node = 0usize;
                for &b in &ex.lit {
                    let c = alphabet.class_of(b);
                    let next = table[node * stride + c];
                    node = if next == NONE {
                        let fresh = table.len() / stride;
                        table[node * stride + c] = fresh as u32;
                        table.extend(std::iter::repeat_n(NONE, stride));
                        out.extend(std::iter::repeat_n(0, words));
                        fresh
                    } else {
                        next as usize
                    };
                }
                out[node * words + si / 64] |= 1 << (si % 64);
            }
        }
        let nodes = table.len() / stride;
        // BFS determinization: missing root edges self-loop, missing
        // deeper edges inherit the failure node's (already determinized)
        // edge, and group sets propagate along failure links.
        let mut fail = vec![0u32; nodes];
        let mut queue = std::collections::VecDeque::new();
        for slot in table.iter_mut().take(stride) {
            if *slot == NONE {
                *slot = 0;
            } else {
                queue.push_back(*slot as usize);
            }
        }
        while let Some(u) = queue.pop_front() {
            let f = fail[u] as usize;
            for w in 0..words {
                out[u * words + w] |= out[f * words + w];
            }
            for c in 0..stride {
                let v = table[u * stride + c];
                if v == NONE {
                    table[u * stride + c] = table[f * stride + c];
                } else {
                    fail[v as usize] = table[f * stride + c];
                    queue.push_back(v as usize);
                }
            }
        }
        // Nodes with an output go last (the root has none and stays first)
        // and a transition word is its target's row offset: a step is one
        // add and one load, and whether a literal ended is a compare on
        // the word just read. Only those nodes keep a group set.
        let set = |v: &usize| &out[v * words..][..words];
        let has_out = |v: &usize| set(v).iter().any(|&w| w != 0);
        let mut order: Vec<usize> = (0..nodes).collect();
        order.sort_by_key(has_out);
        let first_hit = order.partition_point(|v| !has_out(v));
        let mut offset = vec![0u32; nodes];
        for (new, &old) in order.iter().enumerate() {
            offset[old] = u32::try_from(new * stride).expect("the filter's table fits u32 offsets");
        }
        let row = |v: &usize| &table[v * stride..][..stride];
        let table = (order.iter().flat_map(row).map(|&v| offset[v as usize])).collect();
        let out = order[first_hit..].iter().flat_map(set).copied().collect();
        SetPrefilter {
            alphabet,
            // Extracted literals are never empty, so a lone root means
            // no literal at all: there is no automaton.
            table: if nodes == 1 { Vec::new() } else { table },
            stride,
            first_hit: first_hit * stride,
            out,
            words,
            filterable,
            max_window: windows.iter().copied().max().unwrap_or(0),
            windows,
            always_on_rules,
            depth,
        }
    }

    /// The groups whose units start cold, as mask words.
    pub(crate) fn filterable(&self) -> &[u64] {
        &self.filterable
    }

    /// Group `si`'s wake-up replay window: no match ending at or after a
    /// cold unit's first candidate starts more than this many bytes
    /// before the candidate chunk's first literal end.
    pub(crate) fn window(&self, si: usize) -> u64 {
        self.windows[si]
    }

    /// Rules with no usable literal.
    pub(crate) fn always_on_rules(&self) -> usize {
        self.always_on_rules
    }

    /// Advances a flow's `node` over `chunk`, removing from `cold` each
    /// group that has a literal ending in it; the walk stops once `cold`
    /// is empty — no unit is left that could consult the filter again.
    /// Returns the bytes walked.
    ///
    /// Four lanes prove a clean chunk; the exact walk decides the rest. A
    /// chunk long enough to cut is first walked as [`LANES`] interleaved
    /// chains ([`clean`](SetPrefilter::clean)): if no literal of a `cold`
    /// group ends in it, the node they end on is the answer, and the
    /// chunk costs ≈ 0.7 ns/B instead of ≈ 2.2 (SpamAssassin 0.02, 2-core
    /// Xeon VM). Otherwise (a short chunk, or a cold literal in it) the
    /// exact walk runs from the chunk's start, so every verdict, node and
    /// byte count is the exact walk's, and a failed proof costs one extra
    /// pass over a chunk that wakes a unit: extra passes ≤ `candidate_hits`.
    pub(crate) fn advance(&self, node: &mut u32, chunk: &[u8], cold: &mut [u64]) -> usize {
        if self.table.is_empty() {
            return 0;
        }
        if let Some(end) = self.clean(*node, chunk, cold) {
            *node = end;
            return chunk.len();
        }
        self.walk_exact(node, chunk, cold)
    }

    /// The exact walk: one add and one dependent load per byte, stopping
    /// on the byte that leaves `cold` empty.
    fn walk_exact(&self, node: &mut u32, chunk: &[u8], cold: &mut [u64]) -> usize {
        let mut at = *node as usize;
        for (i, &b) in chunk.iter().enumerate() {
            at = self.table[at + self.alphabet.class_of(b)] as usize;
            if at >= self.first_hit {
                let mut left = 0;
                for (cold, set) in cold.iter_mut().zip(self.groups(at)) {
                    *cold &= !set;
                    left |= *cold;
                }
                if left == 0 {
                    *node = at as u32;
                    return i + 1;
                }
            }
        }
        *node = at as u32;
        chunk.len()
    }

    /// The clean-chunk proof: the node the exact walk ends `chunk` on, if
    /// no literal of a `cold` group ends in it; `None` if one may, if
    /// `cold` is empty, or if `chunk` is too short to cut.
    ///
    /// The chunk is cut into [`LANES`] segments of at least
    /// `4 × max(depth, 8)` bytes (so the head start below costs at most a
    /// quarter more steps), one walk each, stepped in lockstep so their
    /// loads are in flight together. Lane 0 starts from `node`; lane k
    /// starts from the root `depth` bytes before its segment, so from the
    /// segment's first byte on it is on the exact walk's node (no node is
    /// deeper). Before that its node spells a suffix of the exact walk's,
    /// so its groups are a subset: it fails the proof only where the exact
    /// walk wakes a unit too. The lanes run equally long, so the last one
    /// ends on the chunk's last byte.
    fn clean(&self, node: u32, chunk: &[u8], cold: &[u64]) -> Option<u32> {
        let seg = chunk.len() / LANES;
        if seg < 4 * self.depth.max(8) || cold.iter().all(|&w| w == 0) {
            return None;
        }
        let len = chunk.len() - (LANES - 1) * seg + self.depth;
        let lanes: [&[u8]; LANES] =
            std::array::from_fn(|k| &chunk[(k * seg).saturating_sub(self.depth)..][..len]);
        let wakes = |at: usize| {
            at >= self.first_hit && (self.groups(at).iter().zip(cold)).any(|(g, c)| g & c != 0)
        };
        let mut at = [0usize; LANES];
        at[0] = node as usize;
        for i in 0..len {
            for (at, lane) in at.iter_mut().zip(&lanes) {
                *at = self.table[*at + self.alphabet.class_of(lane[i])] as usize;
            }
            if at.iter().max() >= Some(&self.first_hit) && at.into_iter().any(wakes) {
                return None;
            }
        }
        Some(at[LANES - 1] as u32)
    }

    /// The groups with a literal ending at the output node `at`.
    fn groups(&self, at: usize) -> &[u64] {
        &self.out[(at - self.first_hit) / self.stride * self.words..][..self.words]
    }

    /// Appends `chunk` to a flow's tail buffer, keeping only the last
    /// `max_window` bytes (all any wake-up can replay).
    pub(crate) fn extend_tail(&self, tail: &mut Vec<u8>, chunk: &[u8]) {
        let w = self.max_window as usize;
        let keep = w.saturating_sub(chunk.len()).min(tail.len());
        tail.drain(..tail.len() - keep);
        tail.extend_from_slice(&chunk[chunk.len().saturating_sub(w)..]);
    }
}

/// What a unit does with one buffered chunk: `Flow::admit`'s verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ChunkAction {
    /// Scan normally (hot unit, filterless group, or prefilter off).
    Scan,
    /// Cold and no candidate: advance the unit's position past the
    /// chunk without scanning (the engine stays fresh).
    Skip,
    /// Cold unit saw its first candidate: restart the engine at
    /// `replay_start`, replay the tail bytes `[replay_start,
    /// chunk_start)`, then scan the chunk. The unit is hot from now on.
    Wake {
        /// Absolute offset the engine restarts at.
        replay_start: u64,
    },
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use recama_syntax::parse;

    fn ex(pattern: &str) -> Option<Extraction> {
        extract(&parse(pattern).unwrap())
    }

    #[test]
    fn extraction_finds_required_literals() {
        let e = ex("ab{2,3}c").unwrap();
        assert_eq!((e.lit.as_slice(), e.lead), (&b"abb"[..], 3));
        let e = ex("xyz").unwrap();
        assert_eq!((e.lit.as_slice(), e.lead), (&b"xyz"[..], 3));
        let e = ex("k[0-9]{2,4}m").unwrap();
        assert_eq!((e.lit.as_slice(), e.lead), (&b"k"[..], 1));
        let e = ex("foo\\d+bar").unwrap();
        assert_eq!(e.lit, b"foo", "literal after \\d+ has unbounded lead");
        let e = ex("ab{3}cd").unwrap();
        assert_eq!((e.lit.as_slice(), e.lead), (&b"abbbcd"[..], 6));
        let e = ex("(abc){2,4}").unwrap();
        assert_eq!((e.lit.as_slice(), e.lead), (&b"abc"[..], 3));
    }

    #[test]
    fn extraction_marks_always_on() {
        assert_eq!(ex("[ab]{3}"), None, "classes defeat extraction");
        assert_eq!(ex("a*"), None, "nullable");
        assert_eq!(ex("(ab|cd)"), None, "alternation is opaque");
        assert_eq!(ex(".*"), None);
        // A literal *after* unbounded repetition is required but its
        // lead is unbounded; with nothing before, the rule is always-on.
        assert_eq!(ex(".*xyz"), None);
        // ... but a bounded-lead literal before it is still usable.
        let e = ex("ab.*xyz").unwrap();
        assert_eq!((e.lit.as_slice(), e.lead), (&b"ab"[..], 2));
    }

    #[test]
    fn anchors_do_not_change_extraction() {
        let e = ex("^xyz$").unwrap();
        assert_eq!((e.lit.as_slice(), e.lead), (&b"xyz"[..], 3));
    }

    /// The filter of `rules` under the plan `shards`, over an alphabet
    /// with a singleton class per byte `rules` mention — as the NCA
    /// alphabet would see their singleton predicates.
    fn filter(rules: &[&str], shards: &[Vec<usize>]) -> SetPrefilter {
        let parsed: Vec<Parsed> = rules.iter().map(|r| parse(r).unwrap()).collect();
        let mut classes = recama_syntax::ByteClassSet::new();
        for byte in rules.iter().flat_map(|r| r.bytes()) {
            classes.add(&recama_syntax::ByteClass::singleton(byte));
        }
        SetPrefilter::build(&parsed, shards, classes.freeze())
    }

    /// Walks `chunk` from `node` for the shards of `cold`: who is still
    /// cold after it, and how many bytes it took.
    fn walk(pf: &SetPrefilter, node: &mut u32, cold: &[u64], chunk: &[u8]) -> (Vec<u64>, usize) {
        let mut cold = cold.to_vec();
        let walked = pf.advance(node, chunk, &mut cold);
        (cold, walked)
    }

    #[test]
    fn ac_filter_finds_literals_across_chunks() {
        let pf = filter(&["abbc", "xyz"], &[vec![0, 1]]);
        assert_eq!(pf.filterable(), [1], "both rules have literals");
        // From a fresh node, advancing over a whole buffer is the block
        // gate: does any literal occur in it? The walk ends on the byte
        // that woke the last cold shard.
        assert_eq!(walk(&pf, &mut 0, &[1], b"..abbc.."), (vec![0], 6));
        assert_eq!(walk(&pf, &mut 0, &[1], b"xyz"), (vec![0], 3));
        assert_eq!(walk(&pf, &mut 0, &[1], b"ab bc xy z"), (vec![1], 10));
        // Streaming: "xy|z" split across an advance boundary.
        let mut node = 0;
        assert_eq!(walk(&pf, &mut node, &[1], b"..xy"), (vec![1], 4));
        assert_eq!(walk(&pf, &mut node, &[1], b"z.."), (vec![0], 1));
    }

    #[test]
    fn a_shared_suffix_wakes_both_shards_on_one_byte() {
        // "dle" is a proper suffix of "needle": the node that spells
        // "needle" inherits shard 1 along its failure link.
        let pf = filter(&["needle", "dle"], &[vec![0], vec![1]]);
        assert_eq!((pf.window(0), pf.window(1)), (6, 3));
        let mut node = 0;
        assert_eq!(walk(&pf, &mut node, &[0b11], b"..nee"), (vec![0b11], 5));
        assert_eq!(walk(&pf, &mut node, &[0b11], b"dle.."), (vec![0], 3));
        // Alone, the suffix wakes only its own shard, and the walk goes on.
        assert_eq!(walk(&pf, &mut 0, &[0b11], b"..dle.."), (vec![0b01], 7));
    }

    #[test]
    fn a_hot_shard_neither_stops_the_walk_nor_wakes_again() {
        let pf = filter(&["abc", "xyz"], &[vec![0], vec![1]]);
        // Shard 0 is hot already: its literal ends at byte 3, the walk
        // goes on to shard 1's at byte 8 and its bit stays clear.
        assert_eq!(walk(&pf, &mut 0, &[0b10], b"abc..xyz.."), (vec![0], 8));
        // While shard 1 stays cold, shard 0's literals change nothing.
        assert_eq!(walk(&pf, &mut 0, &[0b10], b"abcabc"), (vec![0b10], 6));
    }

    #[test]
    fn shard_sets_are_as_wide_as_the_plan() {
        // Equal rules under a budget that holds one: a group each, and
        // the mask spills into a second word.
        let rules: Vec<String> = (0..72).map(|i| format!("lit{i:02}x")).collect();
        let builder = (crate::Engine::builder().patterns(&rules)).prefilter(PrefilterMode::On);
        let engine = crate::set::in_scan_groups(builder, 70);
        let set = engine.set();
        assert_eq!(engine.scan_groups().shard_count(), 72);
        let pf = set.prefilter().unwrap();
        assert_eq!(pf.filterable(), [u64::MAX, (1 << 8) - 1]);
        let last = &rules[*engine.scan_groups().members(71).last().unwrap()];
        let chunk = format!("..{last}..");
        let (cold, walked) = walk(pf, &mut 0, pf.filterable(), chunk.as_bytes());
        assert_eq!((cold, walked), (vec![u64::MAX, (1 << 7) - 1], chunk.len()));
        assert!(has(pf.filterable(), 71) && !has(pf.filterable(), 72));

        // The same through a flow: 71 units skip, the last one wakes.
        let mut flow = crate::flow::Flow::new(set, 0);
        let mut verdicts = Vec::new();
        let walked = flow.admit(set, chunk.as_bytes(), &mut verdicts, |_, _| {});
        assert_eq!(walked, chunk.len());
        assert!(verdicts[..71].iter().all(|v| *v == ChunkAction::Skip));
        assert_eq!(verdicts[71], ChunkAction::Wake { replay_start: 0 });
    }

    #[test]
    fn no_literal_means_no_automaton() {
        // Every shard always-on, no rule at all, one empty shard, and an
        // empty shard beside an always-on one: nothing to walk, and the
        // empty shard — cold, with nothing that could wake it — stays so.
        let cases: [(&[&str], &[Vec<usize>]); 4] = [
            (&["[ab]{3}", ".*xyz"], &[vec![0], vec![1]]),
            (&[], &[]),
            (&[], &[vec![]]),
            (&["a*"], &[vec![], vec![0]]),
        ];
        for (rules, shards) in cases {
            let pf = filter(rules, shards);
            assert!(pf.table.is_empty(), "{rules:?} over {shards:?}");
            assert_eq!(pf.always_on_rules(), rules.len());
            let cold = pf.filterable();
            assert_eq!(walk(&pf, &mut 0, cold, b"abxyz"), (cold.to_vec(), 0));
            let mut tail = Vec::new();
            pf.extend_tail(&mut tail, b"abxyz");
            assert!(tail.is_empty(), "window 0 keeps nothing");
        }
    }

    #[test]
    fn chunk_action_wakes_with_bounded_replay() {
        let engine = (crate::Engine::builder().patterns(["ab{2,3}c"]))
            .prefilter(PrefilterMode::On)
            .build()
            .unwrap();
        let set = engine.set();
        let mut flow = crate::flow::Flow::new(set, 0);
        let mut admit = |chunk: &[u8]| {
            let mut verdicts = Vec::new();
            let walked = flow.admit(set, chunk, &mut verdicts, |_, _| {});
            (verdicts, walked)
        };
        assert_eq!(admit(b"...."), (vec![ChunkAction::Skip], 4));
        // "ab" then "b" across the boundary: the literal "abb" ends in
        // the second chunk, with lead 3 ⇒ replay from 8 + 1 − 3 = 6.
        assert_eq!(admit(b"..ab"), (vec![ChunkAction::Skip], 4));
        let wake = ChunkAction::Wake { replay_start: 6 };
        assert_eq!(admit(b"bc"), (vec![wake], 1));
        // Hot units scan unconditionally, and nothing walks the filter.
        assert_eq!(admit(b"...."), (vec![ChunkAction::Scan], 0));
    }

    /// Runs `advance` and the exact walk from the same `node` and `cold`
    /// over `chunk`, asserts that they agree on `(cold, walked, node)`,
    /// leaves that state behind and says whether the lanes proved the
    /// chunk clean.
    fn agree(pf: &SetPrefilter, node: &mut u32, cold: &mut Vec<u64>, chunk: &[u8]) -> bool {
        let proved = pf.clean(*node, chunk, cold).is_some();
        let (mut exact_node, mut exact_cold) = (*node, cold.clone());
        let exact = pf.walk_exact(&mut exact_node, chunk, &mut exact_cold);
        let walked = pf.advance(node, chunk, cold);
        let what = String::from_utf8_lossy(chunk);
        assert_eq!(
            (&*cold, walked, *node),
            (&exact_cold, exact, exact_node),
            "{what}"
        );
        proved
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

        /// Literals over three letters in one to five groups, some hot
        /// from the start, and a letter density that ranges from none to
        /// every byte. The longest literal (the one the lanes' head start
        /// is sized for) is planted, and `n`-byte chunks are cut so that its
        /// last byte lands on each lane start `k·seg − 1 ..= k·seg + 1` and
        /// on either end of the chunk; the whole input is then walked in
        /// chunks of `n` bytes.
        #[test]
        fn the_lanes_agree_with_the_exact_walk(
            literals in prop::collection::vec(
                prop::collection::vec(prop::sample::select(b"abc".to_vec()), 1..13),
                1..9,
            ),
            groups in 1usize..6,
            hot in 0usize..32,
            letters in 0usize..64,
            input in prop::collection::vec(0usize..64, 0..4096),
            n in 1usize..1500,
            plant in 0usize..4096,
        ) {
            let rules: Vec<String> =
                literals.iter().map(|l| String::from_utf8(l.clone()).unwrap()).collect();
            let groups = groups.min(rules.len());
            let shards: Vec<Vec<usize>> =
                (0..groups).map(|g| (g..rules.len()).step_by(groups).collect()).collect();
            let pf = filter(&rules.iter().map(String::as_str).collect::<Vec<_>>(), &shards);
            let start = vec![pf.filterable()[0] & !(hot as u64)];
            let mut input: Vec<u8> = (input.iter())
                .map(|&x| if x < letters { b"abc"[x % 3] } else { b'.' })
                .collect();
            let lit = literals.iter().max_by_key(|l| l.len()).unwrap();
            let n = n.min(input.len() / 2);
            prop_assume!(n >= lit.len());
            let end = n - 1 + plant % (input.len() - 2 * n + 2);
            input[end + 1 - lit.len()..=end].copy_from_slice(lit);

            let seg = n / LANES;
            let lane_starts = (1..LANES).flat_map(|k| [(k * seg).saturating_sub(1), k * seg, k * seg + 1]);
            for at in lane_starts.chain([0, n - 1]).filter(|&at| at < n) {
                let (mut node, mut cold) = (0, start.clone());
                let from = end - at;
                pf.walk_exact(&mut node, &input[..from], &mut cold);
                agree(&pf, &mut node, &mut cold, &input[from..from + n]);
            }
            let (mut node, mut cold) = (0, start.clone());
            for chunk in input.chunks(n) {
                agree(&pf, &mut node, &mut cold, chunk);
            }
        }
    }

    #[test]
    fn a_hot_groups_literal_alone_passes_the_proof() {
        let pf = filter(&["abc", "xyz"], &[vec![0], vec![1]]);
        let mut chunk = [b'.'; 256];
        for at in [10, 63, 64, 130, 200, 253] {
            chunk[at..at + 3].copy_from_slice(b"abc");
        }
        // Group 0 is hot: its literal in every lane changes nothing.
        let (mut node, mut cold) = (0, vec![0b10]);
        assert!(agree(&pf, &mut node, &mut cold, &chunk));
        assert_eq!(cold, [0b10]);
        // Cold, the same literal fails the proof and the exact walk wakes it.
        let (mut node, mut cold) = (0, vec![0b11]);
        assert!(!agree(&pf, &mut node, &mut cold, &chunk));
        assert_eq!(cold, [0b10]);
    }

    #[test]
    fn a_cold_literal_ending_in_lane_zeros_carried_prefix_fails_the_proof() {
        let pf = filter(&["abc", "xyz"], &[vec![0], vec![1]]);
        let mut chunk = vec![b'c'];
        chunk.resize(256, b'.');
        // From the root the chunk is clean ...
        assert!(agree(&pf, &mut 0, &mut vec![0b11], &chunk));
        // ... but after "ab" its first byte ends "abc": the walk goes on
        // for the still-cold group 1, to the end of the chunk.
        let (mut node, mut cold) = (0, vec![0b11]);
        assert!(!agree(&pf, &mut node, &mut cold, b"..ab"));
        assert!(!agree(&pf, &mut node, &mut cold, &chunk));
        assert_eq!(cold, [0b10]);
    }

    #[test]
    fn a_benign_spamassassin_chunk_passes_the_proof() {
        use recama_workloads::{generate, traffic, BenchmarkId};
        let ruleset = generate(BenchmarkId::SpamAssassin, 0.02, 2022);
        let builder = crate::Engine::builder().patterns(ruleset.pattern_strings());
        let engine = builder
            .prefilter(PrefilterMode::On)
            .lossy(true)
            .build()
            .unwrap();
        let pf = engine.set().prefilter().unwrap();
        let chunk = traffic(&ruleset, 2048, 0.0, 2022);
        let (mut node, mut cold) = (0, pf.filterable().to_vec());
        assert!(
            agree(pf, &mut node, &mut cold, &chunk),
            "depth {}",
            pf.depth
        );
        assert_eq!(cold, pf.filterable(), "benign: nothing woke");
    }

    #[test]
    fn tail_buffer_keeps_the_window() {
        let pf = filter(&["ab{2,3}c"], &[vec![0]]); // window 3
        let mut tail = Vec::new();
        pf.extend_tail(&mut tail, b"xy");
        assert_eq!(tail, b"xy");
        pf.extend_tail(&mut tail, b"z");
        assert_eq!(tail, b"xyz");
        pf.extend_tail(&mut tail, b"w");
        assert_eq!(tail, b"yzw");
        pf.extend_tail(&mut tail, b"longchunk");
        assert_eq!(tail, b"unk");
    }
}
