//! The differential matrix: one oracle (`Oracle`, each pattern parsed
//! and scanned alone by the reference engine), one `Case` type, and one
//! runner per way a ruleset is scanned — a block scan, spans, a chunked
//! stream, the batch scheduler and the resident service at any number
//! of workers, and each bank's hardware simulator. Each suite runs its
//! own slice of it, and no two run the same rules, inputs and knobs:
//! `tests/differential.rs` crosses every driver with every knob on a
//! share of the pool cases and on the pins no other suite owns.
//!
//! The hardware simulator has no end of input, so it is held to the
//! stream oracle: every candidate end, `$` included.

use super::{in_scan_groups, sample_patterns, tiny_budget, Oracle};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use recama::hw::ShardPolicy;
use recama::workloads::{generate, traffic, BenchmarkId};
use recama::{Engine, PrefilterMode, ScanMode, ServeConfig, SetMatch};
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::panic::{self, AssertUnwindSafe};

/// The rules pool cases pick from: pure ones (one row load a byte),
/// counting ones (woken, stepped and retired beside the rows; the last
/// five at a machine word's width), literal-bearing ones the prefilter
/// can skip for, always-on ones it cannot, and `$`-anchored ones.
pub const POOL: &[&str] = &[
    "abc",
    "x[yz]w",
    ".*ba",
    "q(r|s)t",
    "[0-9][0-9]k",
    "ab{2,5}c",
    ".*a.{3}b",
    "k[0-9]{2,4}z",
    "(xy){2,3}",
    "m{3}",
    "a{2,3}c{2,3}",
    "(ab{2,3}c)+d",
    "^ab{2,4}c",
    "a{3,}b",
    "hdr[0-9]{2}end",
    "nn[ab]{2,4}mm",
    "magic",
    "[xy]{2,5}",
    "[0-9][0-9][xy]",
    "k\\d{4}needle",
    "magic$",
    "omega$",
    "ab$",
    "cd$",
    "a{2,3}$",
    "tail[0-9]{2}$",
    ".*h.{63}",
    "h.{64}",
    "k.{60,66}z",
    "[^ac][ac]{64}",
    ".*a.{65}b",
];

/// Bytes of pool inputs, biased toward the pool's literals, and whole
/// words planted among them so that long literals match too.
const INPUT_BYTES: &[u8] = b"abcdeghiklmnoqrstwxyz0123459_.";
const WORDS: &[&str] = &[
    "magic",
    "omega",
    "hdr42end",
    "k1234needle",
    "nnababmm",
    "tail07",
    "abbbc",
    "xyxy",
    "qrt",
];

/// How a case's engine scans: `Groups(k)` is the hybrid under a budget
/// that cuts the rules into `k` scan groups (fewer if there are fewer
/// rules).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Scan {
    Nca,
    Hybrid(usize),
    Groups(usize),
}

pub const SCANS: [Scan; 5] = [
    Scan::Nca,
    Scan::Hybrid(1),
    Scan::Hybrid(7),
    Scan::Hybrid(4096),
    Scan::Groups(3),
];
pub const PREFILTERS: [PrefilterMode; 2] = [PrefilterMode::On, PrefilterMode::Off];

pub fn policies() -> [ShardPolicy; 3] {
    [ShardPolicy::Single, ShardPolicy::Fixed(3), tiny_budget()]
}

/// A case's knobs: scan mode, prefilter and bank policy.
pub type Knobs = (Scan, PrefilterMode, ShardPolicy);

/// Knob cell `k` of the `5 × 2 × 3` grid.
pub fn knobs(k: usize) -> Knobs {
    (SCANS[k % 5], PREFILTERS[k / 5 % 2], policies()[k / 10 % 3])
}

/// `groups` scan groups with the prefilter on, one bank image.
pub fn in_groups(groups: usize) -> Knobs {
    (Scan::Groups(groups), PrefilterMode::On, ShardPolicy::Single)
}

/// Every combination of `scans`, `prefilters` and `policies`.
pub fn grid(scans: &[Scan], prefilters: &[PrefilterMode], policies: &[ShardPolicy]) -> Vec<Knobs> {
    let mut grid = Vec::new();
    for &scan in scans {
        for &prefilter in prefilters {
            grid.extend(policies.iter().map(|&policy| (scan, prefilter, policy)));
        }
    }
    grid
}

/// The ten cells of scan × prefilter, the bank policy turning with them:
/// every scan, and every bank image once policy by policy.
pub fn cells() -> Vec<Knobs> {
    (0..10).map(|k| knobs(k + 10 * (k % 3))).collect()
}

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Driver {
    Block,
    Spans,
    Stream,
    Scheduler(usize),
    Service(usize),
    Hardware,
}

pub const DRIVERS: [Driver; 8] = [
    Driver::Block,
    Driver::Spans,
    Driver::Stream,
    Driver::Scheduler(1),
    Driver::Scheduler(3),
    Driver::Service(1),
    Driver::Service(3),
    Driver::Hardware,
];

/// One flow: its bytes, and the lengths of the chunks it is pushed in
/// (they sum to its length; a zero is an empty push).
#[derive(Clone)]
pub struct Flow {
    pub data: Vec<u8>,
    pub chunks: Vec<usize>,
}

impl fmt::Debug for Flow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b\"{}\" in {:?}", self.data.escape_ascii(), self.chunks)
    }
}

impl Flow {
    fn chunks(&self) -> Vec<&[u8]> {
        let mut at = 0;
        (self.chunks.iter())
            .map(|&len| {
                at += len;
                &self.data[at - len..at]
            })
            .collect()
    }

    /// `data` in chunks of `len` bytes (the last one shorter).
    pub fn fixed(data: &[u8], len: usize) -> Flow {
        let chunks = data.chunks(len).map(<[u8]>::len).collect();
        Flow {
            data: data.to_vec(),
            chunks,
        }
    }

    /// `data` pushed as the chunks `chunks`.
    pub fn split(data: &[u8], chunks: Vec<usize>) -> Flow {
        assert_eq!(chunks.iter().sum::<usize>(), data.len());
        Flow {
            data: data.to_vec(),
            chunks,
        }
    }

    /// One flow per cut of `data` into two non-empty chunks.
    pub fn every_cut(data: &[u8]) -> Vec<Flow> {
        (1..data.len())
            .map(|cut| Flow::split(data, vec![cut, data.len() - cut]))
            .collect()
    }
}

/// One run of the matrix: a ruleset, its knobs and its flows. The flow
/// drivers push the flows' chunks round by round, or — given `shuffle`
/// — in a seeded random interleaving that keeps each flow's own order.
#[derive(Clone, Debug)]
pub struct Case {
    pub rules: Vec<String>,
    pub scan: Scan,
    pub prefilter: PrefilterMode,
    pub policy: ShardPolicy,
    pub flows: Vec<Flow>,
    pub shuffle: Option<u64>,
}

impl Case {
    /// `rules` and `flows` under `knobs`.
    pub fn of<S: AsRef<str>>(rules: &[S], flows: &[Flow], knobs: Knobs) -> Case {
        let (scan, prefilter, policy) = knobs;
        Case {
            rules: rules.iter().map(|r| r.as_ref().to_string()).collect(),
            scan,
            prefilter,
            policy,
            flows: flows.to_vec(),
            shuffle: None,
        }
    }

    pub fn build(&self) -> Engine {
        let builder = (Engine::builder().patterns(&self.rules))
            .prefilter(self.prefilter)
            .shard_policy(self.policy);
        let mode = match self.scan {
            Scan::Nca => ScanMode::Nca,
            Scan::Hybrid(state_budget) => ScanMode::Hybrid { state_budget },
            Scan::Groups(groups) => return in_scan_groups(builder, groups.min(self.rules.len())),
        };
        builder.scan_mode(mode).build().unwrap()
    }

    /// The cell of the coverage grid that `driver` ran in on this case.
    /// The bank images depend on the bank policy alone.
    pub fn cell(&self, driver: Driver) -> String {
        if driver == Driver::Hardware {
            return format!("{:?} {driver:?}", self.policy);
        }
        format!(
            "{:?} {:?} {:?} {driver:?}",
            self.scan, self.prefilter, self.policy
        )
    }
}

pub const SEED: u64 = 0x5eed_d1ff;

/// Pool case `index` of run `seed`: knob cell `index % 30`, one to six
/// rules (three or more for scan groups), one to three flows of up to
/// 300 bytes in fixed or random chunks.
pub fn pool_case(seed: u64, index: usize) -> Case {
    let mut rng = StdRng::seed_from_u64(seed ^ (index as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let (scan, ..) = knobs(index);
    let count = rng.gen_range(if scan == Scan::Groups(3) { 3 } else { 1 }..7);
    let mut picks = Vec::new();
    while picks.len() < count {
        let pick = rng.gen_range(0..POOL.len());
        if !picks.contains(&pick) {
            picks.push(pick);
        }
    }
    picks.sort_unstable();
    let rules: Vec<String> = picks.iter().map(|&i| POOL[i].to_string()).collect();
    let flows: Vec<Flow> = (0..rng.gen_range(1..4))
        .map(|_| {
            let len = rng.gen_range(0..300);
            let data = pool_bytes(len, &mut rng);
            if rng.gen_bool(0.5) {
                return Flow::fixed(&data, rng.gen_range(1..40));
            }
            let chunks = random_chunks(data.len(), &mut rng);
            Flow { data, chunks }
        })
        .collect();
    Case::of(&rules, &flows, knobs(index))
}

/// Runs every driver on pool cases `30 × block` to `30 × block + 29` of
/// [`SEED`] — each knob cell once — and asserts that every cell of scan ×
/// prefilter × policy × driver ran (the hardware one per policy). Each
/// pool test takes its own block.
pub fn run_pool(block: usize) {
    let mut ran = HashSet::new();
    for index in 30 * block..30 * block + 30 {
        let case = pool_case(SEED, index);
        let oracle = Oracle::new(&case.rules);
        let expected = expect(&oracle, &case.flows);
        let replay = format!("pool_case({SEED:#x}, {index})");
        verify(&replay, &case, &oracle, &expected, &DRIVERS, &mut ran);
    }
    let flow_drivers = DRIVERS.len() - 1;
    let cells = SCANS.len() * PREFILTERS.len() * policies().len() * flow_drivers;
    assert_eq!(ran.len(), cells + policies().len(), "cells that ran");
}

/// At least `len` random bytes, biased toward the pool's literals.
pub fn pool_bytes(len: usize, rng: &mut StdRng) -> Vec<u8> {
    let mut data = Vec::with_capacity(len + 16);
    while data.len() < len {
        if rng.gen_bool(0.04) {
            data.extend(WORDS[rng.gen_range(0..WORDS.len())].bytes());
        } else {
            data.push(INPUT_BYTES[rng.gen_range(0..INPUT_BYTES.len())]);
        }
    }
    data
}

/// Random chunk lengths of 1 to 64 bytes summing to `len`, with empty
/// chunks mixed in.
pub fn random_chunks(len: usize, rng: &mut StdRng) -> Vec<usize> {
    let mut chunks = Vec::new();
    let mut rest = len;
    while rest > 0 {
        if rng.gen_bool(0.1) {
            chunks.push(0);
        }
        let len = rng.gen_range(1..=rest.min(64));
        chunks.push(len);
        rest -= len;
    }
    chunks
}

/// A profile sample's parseable rules of `μ ≤ max_mu` and `len` bytes of
/// its generator's traffic at match `density`, both from `seed`.
pub fn profile_traffic(
    id: BenchmarkId,
    scale: f64,
    seed: u64,
    max_mu: u32,
    len: usize,
    density: f64,
) -> (Vec<String>, Vec<u8>) {
    let rules = sample_patterns(id, scale, seed, max_mu);
    (
        rules,
        traffic(&generate(id, scale, seed), len, density, seed),
    )
}

/// A Snort or Suricata sample at scale 0.004 plus a trailing-`$` rule
/// and an always-on one, and 4 KiB of its generator's traffic that ends
/// in the `$` rule's last match.
pub fn profile_sample(id: BenchmarkId, seed: u64) -> (Vec<String>, Vec<u8>) {
    let (mut rules, mut main) = profile_traffic(id, 0.004, seed, 400, 4096, 0.002);
    assert!(rules.len() >= 10, "{id:?}/{seed}: degenerate sample");
    rules.extend(["tail[0-9]{2}$".into(), "[xy]{3}[0-9]".into()]);
    main.extend_from_slice(b"tail07..xyx4..tail42");
    (rules, main)
}

/// A hand-written ruleset and the flows it runs on.
pub struct Pin {
    pub rules: Vec<String>,
    pub flows: Vec<Flow>,
}

/// The pinned input `name`. Each pin is run by one test: the five no
/// other suite owns by `tests/differential.rs`, the rest by the test of
/// the behaviour it pins.
pub fn pin(name: &str) -> Pin {
    let fixed = |data: &[&[u8]], len| data.iter().map(|d| Flow::fixed(d, len)).collect();
    let (rules, flows): (&[&str], Vec<Flow>) = match name {
        // Counters woken, stepped and retired over most of the input.
        "counting" => (
            &["ab{2,5}c", ".*a.{3}b", "m{3}", "abc"],
            Flow::every_cut(b"aabbbc.mmma...b.abbbbbc.mmmm.abcab"),
        ),
        // Under a budget of 1 the cache cannot hold q0's successor.
        "pure" => (
            &["abc", "x[yz]w", ".*ba", "q(r|s)t"],
            Flow::every_cut(b"xabcyxzwbaqrtqstxywabcba"),
        ),
        // Each rule's match split across two feeds.
        "split" => (
            &["header[0-9]{4}end", "k[ab]{3,9}z", "exact{2}"],
            Flow::every_cut(b"..header1234end..kabababz..exactexact.."),
        ),
        // Required literals split inside: the filter's automaton state
        // and its replay tail carry over.
        "literals" => (
            &["hdr[0-9]{2}end", "magic", "nn[ab]{2,4}mm"],
            Flow::every_cut(b"..hdr42end..magic..nnababmm..hdr9"),
        ),
        // No rule yields a literal: the filter must never skip.
        "always-on" => (
            &[".*ba", "[xy]{2,5}", "[0-9][0-9][xy]"],
            fixed(&[b"..ba..xyxy..42x..ba"], 3),
        ),
        // Literal-bearing, `$`-anchored and always-on rules; one flow
        // benign, one empty.
        "mixed" => (
            &[
                "hdr[0-9]{2}end",
                "magic$",
                "nn[ab]{2,4}mm",
                ".*ba",
                "x[yz]w$",
            ],
            fixed(
                &[
                    b"..hdr42end..magic..nnababmm..xyw",
                    &[b'.'; 32],
                    b"ba.xzw.magic",
                    b"",
                ],
                5,
            ),
        ),
        // Cut every 4 bytes, "k1234needle" starts in the first chunk and
        // its literal ends in the fourth: the unit wakes and replays.
        "replay" => (
            &[
                "k\\d{4}needle",
                "magic$",
                "hdr[0-9]{2}end",
                "[xy]{3}[0-9]",
                "nn[ab]{2,4}mm",
                "omega$",
            ],
            fixed(
                &[b"...k1234needle..magic.hdr42end.xyx7.nnababmm..magic.k99needle.omega"],
                4,
            ),
        ),
        "dollars" => (
            &["ab$", "ab", "a{2,3}$", "cd", "cd$", "k\\d{2}$"],
            fixed(
                &[b"xx.ab", b"cd.aaa", b"ab.cd.ab", b"", b"abbc.aaa.xyz.k42"],
                2,
            ),
        ),
        "api" => (
            &["ab{2,3}c", "a{3}", "cab", "x[yz]{2}", "k\\d{2}", "xyz"],
            fixed(&[b"abbc.aaa.cab.xyz.k42.abbbc", b"zzabbc..xyz..abbbc"], 2),
        ),
        // Many flows pushed whole before one barrier: the service scans
        // them in batches of up to four units of one scan group.
        "batched" => (
            &["ab{2,4}c", "x{3}", "q[rs]{2}t", "hello"],
            (0..24)
                .map(|i| {
                    let mut data = b"..... ".repeat(20 + 8 * (i % 5));
                    for (k, planted) in [&b"abbbc"[..], b"xxx", b"qrst", b"hello"]
                        .iter()
                        .enumerate()
                    {
                        let at = (97 * (i + 1) * (k + 1)) % (data.len() - 8);
                        data[at..at + planted.len()].copy_from_slice(planted);
                    }
                    Flow::fixed(&data, data.len())
                })
                .collect(),
        ),
        // Ten flows that each report on the same ends: `drain_global`
        // must still tell them apart.
        "sink" => (&["kk"], vec![Flow::fixed(b"..kk..kk", 8); 10]),
        _ => panic!("no pin {name}"),
    };
    Pin {
        rules: rules.iter().map(|r| r.to_string()).collect(),
        flows,
    }
}

/// What every driver must report for one flow.
#[derive(Clone)]
pub struct Expected {
    /// Every candidate end, in stream order.
    pub stream: Vec<SetMatch>,
    /// What the `$`-anchored rules keep at the flow's end, by pattern.
    pub finish: Vec<SetMatch>,
}

/// The oracle's answer for each flow, computed once per distinct input.
pub fn expect(oracle: &Oracle, flows: &[Flow]) -> Vec<Expected> {
    let mut known: HashMap<&[u8], Expected> = HashMap::new();
    (flows.iter())
        .map(|flow| {
            let data = &flow.data[..];
            let answer = known.entry(data).or_insert_with(|| Expected {
                stream: oracle.stream(data),
                finish: oracle.finish(data),
            });
            answer.clone()
        })
        .collect()
}

fn same<T: PartialEq + fmt::Debug>(got: T, want: T, what: &str) -> Result<(), String> {
    if got == want {
        return Ok(());
    }
    Err(format!("{what}:\n  got  {got:?}\n  want {want:?}"))
}

/// Runs `drivers` on `case` against `expected` (one per flow), marking
/// each driver's cell in `ran` once it agreed on every flow.
fn check(
    case: &Case,
    oracle: &Oracle,
    expected: &[Expected],
    drivers: &[Driver],
    ran: &mut HashSet<String>,
) -> Result<(), String> {
    let engine = case.build();
    // The whole-input drivers see a flow's bytes, not its chunks: they
    // run once per distinct input.
    let mut seen = HashSet::new();
    let distinct: Vec<usize> = (0..case.flows.len())
        .filter(|&fi| seen.insert(&case.flows[fi].data))
        .collect();
    for &driver in drivers {
        let what = |fi: usize, part: &str| format!("{driver:?}, flow {fi}: {part}");
        match driver {
            Driver::Block => {
                for &fi in &distinct {
                    let (flow, want) = (&case.flows[fi], &expected[fi]);
                    let dollar = |m: &&SetMatch| oracle.parsed[m.pattern].anchored_end;
                    let mut block: Vec<SetMatch> =
                        want.stream.iter().filter(|m| !dollar(m)).copied().collect();
                    block.extend(&want.finish);
                    block.sort_by_key(|m| (m.end, m.pattern));
                    same(engine.scan(&flow.data), block, &what(fi, "scan"))?;
                }
            }
            Driver::Spans => {
                for &fi in &distinct {
                    let data = &case.flows[fi].data;
                    same(
                        engine.scan_spans(data),
                        oracle.spans(data),
                        &what(fi, "spans"),
                    )?;
                }
            }
            Driver::Stream => {
                for (fi, (flow, want)) in case.flows.iter().zip(expected).enumerate() {
                    let mut stream = engine.stream();
                    let mut got = Vec::new();
                    for chunk in flow.chunks() {
                        got.extend(stream.feed(chunk));
                    }
                    same(
                        stream.position(),
                        flow.data.len() as u64,
                        &what(fi, "position"),
                    )?;
                    same(got, want.stream.clone(), &what(fi, "feed"))?;
                    same(stream.finish(), want.finish.clone(), &what(fi, "finish"))?;
                }
            }
            Driver::Scheduler(workers) => {
                let sched = engine.scheduler_with(workers);
                let polled = drive(
                    case,
                    workers,
                    |fi, chunk| sched.push(fi as u64, chunk),
                    || sched.run(),
                    |polled| {
                        for (fi, out) in polled.iter_mut().enumerate().step_by(2) {
                            out.extend(sched.poll(fi as u64));
                        }
                        for (flow, m) in sched.drain_global() {
                            polled[flow as usize].push(m);
                        }
                    },
                    |fi| sched.close(fi as u64),
                );
                let finishing = (0..polled.len())
                    .map(|fi| sched.finishing(fi as u64))
                    .collect();
                agree(polled, finishing, expected, what)?;
                let metrics = sched.metrics();
                same(metrics.pending_bytes, 0, "every pushed byte is scanned")?;
                same(metrics.flows, 0, "drained flows are forgotten")?;
            }
            Driver::Service(workers) => {
                let svc = engine.serve_with(workers, ServeConfig::default());
                let ids: Vec<_> = (case.flows.iter())
                    .map(|_| svc.try_open_flow().unwrap())
                    .collect();
                // Default rule ids are add-order indices: rule == pattern.
                let set_match = |rule: u64, end: u64| SetMatch {
                    pattern: rule as usize,
                    end: end as usize,
                };
                let as_set = |ms: Vec<recama::RuleMatch>| -> Vec<SetMatch> {
                    ms.into_iter().map(|m| set_match(m.rule, m.end)).collect()
                };
                let polled = drive(
                    case,
                    workers,
                    |fi, chunk| {
                        svc.push_checked(ids[fi], chunk).unwrap();
                    },
                    || svc.barrier(),
                    |polled| {
                        for (fi, out) in polled.iter_mut().enumerate().step_by(2) {
                            out.extend(as_set(svc.poll_checked(ids[fi]).unwrap()));
                        }
                        for ev in svc.drain_global() {
                            let fi = ids.iter().position(|&id| id == ev.flow).unwrap();
                            polled[fi].push(set_match(ev.rule, ev.end));
                        }
                    },
                    |fi| svc.close(ids[fi]),
                );
                let finishing = ids.iter().map(|&id| as_set(svc.finishing(id))).collect();
                let flows = svc.metrics().flows;
                svc.shutdown();
                agree(polled, finishing, expected, what)?;
                same(flows, 0, "drained flows are freed")?;
            }
            Driver::Hardware => {
                for &fi in &distinct {
                    let (flow, want) = (&case.flows[fi], &expected[fi]);
                    let mut got = Vec::new();
                    for bank in 0..engine.shard_count() {
                        let reports = engine.hardware(bank).match_ends_by_rule(&flow.data);
                        got.extend(reports.into_iter().map(|(rule, end)| SetMatch {
                            pattern: rule as usize,
                            end,
                        }));
                    }
                    got.sort_by_key(|m| (m.end, m.pattern));
                    same(got, want.stream.clone(), &what(fi, "bank images"))?;
                }
            }
        }
        ran.insert(case.cell(driver));
    }
    Ok(())
}

/// Pushes every flow's chunks through a flow driver, then closes every
/// flow, syncs and reads once more; returns what each flow read. The
/// pushes go round by round — chunk `r` of each flow in round `r` —
/// with `sync` (`run` or `barrier`) and a `read` of every flow after
/// every `every`-th round; or, if the case shuffles, in its seeded
/// interleaving with a sync and read after every 17th push. `read`
/// appends each flow's new reports to its list: the flow drivers poll
/// the even-numbered flows and take the odd ones from `drain_global`,
/// so the oracle holds both ways out to every case.
fn drive(
    case: &Case,
    every: usize,
    push: impl Fn(usize, &[u8]),
    sync: impl Fn(),
    read: impl Fn(&mut [Vec<SetMatch>]),
    close: impl Fn(usize),
) -> Vec<Vec<SetMatch>> {
    let flows = &case.flows;
    let chunks: Vec<_> = flows.iter().map(Flow::chunks).collect();
    // (flow, sync after this push), in push order.
    let mut pushes = Vec::new();
    match case.shuffle {
        None => {
            let rounds = chunks.iter().map(Vec::len).max().unwrap_or(0);
            for round in 0..rounds {
                let live = (0..flows.len()).filter(|&fi| round < chunks[fi].len());
                pushes.extend(live.map(|fi| (fi, false)));
                pushes.last_mut().unwrap().1 = round % every == 0;
            }
        }
        Some(seed) => {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut left: Vec<usize> = chunks.iter().map(Vec::len).collect();
            loop {
                let live: Vec<usize> = (0..flows.len()).filter(|&fi| left[fi] > 0).collect();
                if live.is_empty() {
                    break;
                }
                let fi = live[rng.gen_range(0..live.len())];
                pushes.push((fi, pushes.len() % 17 == 0));
                left[fi] -= 1;
            }
        }
    }
    let mut polled = vec![Vec::new(); flows.len()];
    let mut sync_and_read = || {
        sync();
        read(&mut polled);
    };
    let mut next = vec![0; flows.len()];
    for (fi, sync_after) in pushes {
        push(fi, chunks[fi][next[fi]]);
        next[fi] += 1;
        if sync_after {
            sync_and_read();
        }
    }
    (0..flows.len()).for_each(close);
    sync_and_read();
    polled
}

/// A flow driver's answer — per flow what it read (polled or drained)
/// and its finishing set — against the oracle.
fn agree(
    polled: Vec<Vec<SetMatch>>,
    finishing: Vec<Vec<SetMatch>>,
    expected: &[Expected],
    what: impl Fn(usize, &str) -> String,
) -> Result<(), String> {
    let flows = polled.into_iter().zip(finishing).zip(expected);
    for (fi, ((polled, finishing), want)) in flows.enumerate() {
        let read = if fi % 2 == 0 { "poll" } else { "drain_global" };
        same(&polled, &want.stream, &what(fi, read))?;
        same(&finishing, &want.finish, &what(fi, "finishing"))?;
    }
    Ok(())
}

/// `check`, with a driver's panic taken as its failure.
fn try_check(
    case: &Case,
    oracle: &Oracle,
    expected: &[Expected],
    drivers: &[Driver],
    ran: &mut HashSet<String>,
) -> Result<(), String> {
    panic::catch_unwind(AssertUnwindSafe(|| {
        check(case, oracle, expected, drivers, ran)
    }))
    .unwrap_or_else(|panic| {
        let message = (panic.downcast_ref::<String>().map(String::as_str))
            .or_else(|| panic.downcast_ref::<&str>().copied())
            .unwrap_or("a panic");
        Err(format!("panicked: {message}"))
    })
}

/// Runs `case` and, when a driver disagrees or panics, panics with
/// `replay`, the case shrunk to what still fails, and both failures.
pub fn verify(
    replay: &str,
    case: &Case,
    oracle: &Oracle,
    expected: &[Expected],
    drivers: &[Driver],
    ran: &mut HashSet<String>,
) {
    let Err(failure) = try_check(case, oracle, expected, drivers, ran) else {
        return;
    };
    let rerun = |case: &Case| {
        let oracle = Oracle::new(&case.rules);
        let expected = expect(&oracle, &case.flows);
        try_check(case, &oracle, &expected, drivers, &mut HashSet::new())
    };
    let small = minimise(case, |c| rerun(c).is_err());
    let small_failure = rerun(&small).unwrap_err();
    panic!("{replay}: {failure}\n\nshrunk to {small:#?}\n{small_failure}");
}

/// Shrinks a failing case: drops rules one at a time, then flows, then
/// halves and trims each flow's bytes, keeping every step that still
/// `fails`. Chunk lengths are cut to fit the bytes that are left.
pub fn minimise(case: &Case, fails: impl Fn(&Case) -> bool) -> Case {
    let mut best = case.clone();
    let try_take = |best: &mut Case, candidate: Case| {
        let better = fails(&candidate);
        if better {
            *best = candidate;
        }
        better
    };
    let mut i = 0;
    while best.rules.len() > 1 && i < best.rules.len() {
        let mut candidate = best.clone();
        candidate.rules.remove(i);
        i += usize::from(!try_take(&mut best, candidate));
    }
    let mut i = 0;
    while best.flows.len() > 1 && i < best.flows.len() {
        let mut candidate = best.clone();
        candidate.flows.remove(i);
        i += usize::from(!try_take(&mut best, candidate));
    }
    for fi in 0..best.flows.len() {
        loop {
            let n = best.flows[fi].data.len();
            let cuts = [(0, n / 2), (n / 2, n), (1, n), (0, n.saturating_sub(1))];
            let shrunk = cuts
                .into_iter()
                .filter(|&(a, b)| a <= b && b - a < n)
                .any(|(a, b)| {
                    let mut candidate = best.clone();
                    let flow = &mut candidate.flows[fi];
                    flow.data = flow.data[a..b].to_vec();
                    let mut rest = flow.data.len();
                    flow.chunks = (flow.chunks.iter())
                        .map(|&len| {
                            let len = len.min(rest);
                            rest -= len;
                            len
                        })
                        .collect();
                    flow.chunks.retain(|&len| len > 0);
                    if rest > 0 {
                        flow.chunks.push(rest);
                    }
                    try_take(&mut best, candidate)
                });
            if !shrunk {
                break;
            }
        }
    }
    best
}

/// Runs `drivers` on `rules` and `flows` under each of `knobs` — one
/// slice of the matrix — and returns what the oracle expected of each
/// flow. The hardware runs once per bank policy, the one knob its
/// images depend on. Spans are a block scan's ends, which every knob's
/// block scan checks, walked back per pattern: they run under the first
/// knob only.
pub fn run_knobs<S: AsRef<str>>(
    what: &str,
    rules: &[S],
    flows: &[Flow],
    knobs: &[Knobs],
    drivers: &[Driver],
) -> Vec<Expected> {
    let oracle = Oracle::new(rules);
    let expected = expect(&oracle, flows);
    let mut imaged = Vec::new();
    for (i, &knobs) in knobs.iter().enumerate() {
        let case = Case::of(rules, flows, knobs);
        let drivers: Vec<Driver> = (drivers.iter().copied())
            .filter(|&d| d != Driver::Spans || i == 0)
            .filter(|&d| d != Driver::Hardware || !imaged.contains(&case.policy))
            .collect();
        imaged.push(case.policy);
        let replay = format!("{what}, {knobs:?}");
        verify(
            &replay,
            &case,
            &oracle,
            &expected,
            &drivers,
            &mut HashSet::new(),
        );
    }
    expected
}
