//! The four workloads: which rules, which traffic, which load shape —
//! and the seeded inputs built from them.
//!
//! Every workload is a closed loop of *waves*: a wave opens
//! `flows_per_wave` flows, runs `rounds` rounds (one `chunk`-byte push
//! per open flow, then `barrier`, then one poll per flow), and closes
//! them. The steady-state workloads are one long wave; `snort_churn` is
//! many short ones.

use recama::workloads::{generate, traffic, BenchmarkId};

/// The ruleset seed is part of a workload's definition, not of a run:
/// `--seed` varies the traffic only. A Snort ruleset's compile time is
/// owned by whichever rules of the `Σ*(σ̄σ{m}|…)` family the generator
/// happens to draw — between seeds 1, 2 and 2022 the same scale compiles
/// in 0.1 s, 0.9 s or 2.8 s — so with a per-run ruleset no bound on
/// `setup_s` could hold.
pub const RULESET_SEED: u64 = 2022;

/// Ruleset scale of the full-size workloads (2 % of Table 1's sizes).
const FULL_SCALE: f64 = 0.02;
/// Ruleset scale of the smoke sizes: 12 Snort rules that compile in
/// 50 ms.
const SMOKE_SCALE: f64 = 0.002;

/// How much work a run does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The sizes `BENCHMARK.json` states.
    Full,
    /// KiB-scale inputs for the test suite.
    Smoke,
}

/// One workload's definition.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Ruleset profile.
    pub ruleset: BenchmarkId,
    /// Ruleset scale.
    pub scale: f64,
    /// Planted matches per byte of traffic.
    pub plant_rate: f64,
    /// Waves per pass.
    pub waves: usize,
    /// Flows opened (and later closed) by each wave.
    pub flows_per_wave: usize,
    /// Rounds per wave, warm rounds included.
    pub rounds: usize,
    /// Bytes per push.
    pub chunk: usize,
    /// Rounds at the start of a pass left untimed, so the lazy DFAs are
    /// filled when the clock starts. Zero where cold start is the point.
    pub warm_rounds: usize,
    /// Whether open and close are inside the timed window.
    pub churn: bool,
    /// The latency pass covers the first `latency_waves` waves …
    pub latency_waves: usize,
    /// … and, of each, the first `latency_rounds` rounds.
    pub latency_rounds: usize,
    /// Bytes generated per flow; a flow that needs more cycles over them.
    pub corpus_per_flow: usize,
    /// The oracle checks the first `oracle_flows` flows …
    pub oracle_flows: usize,
    /// … over their first `oracle_bytes` bytes each.
    pub oracle_bytes: usize,
    /// Bytes the single-engine micro measurements of the traced run scan.
    pub micro_bytes: usize,
}

impl Spec {
    /// Flows a pass opens in total.
    pub fn total_flows(&self) -> usize {
        self.waves * self.flows_per_wave
    }

    /// Bytes a pass pushes inside its timed window.
    pub fn timed_bytes(&self) -> u64 {
        (self.total_flows() * (self.rounds - self.warm_rounds) * self.chunk) as u64
    }
}

/// Names of the workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 4] = ["snort_hits", "snort_churn", "spam_hits", "spam_benign"];

/// The definition of workload `name` at `size`.
pub fn spec(name: &str, size: Size) -> Option<Spec> {
    let full = size == Size::Full;
    // One long wave of 32 flows fed 2 KiB at a time; `rounds` counts
    // the 8 warm rounds. The latency pass is the pass's first
    // 8 + `latency_rounds` rounds.
    let steady = |ruleset, plant_rate, timed_rounds: usize, latency_rounds: usize| Spec {
        ruleset,
        scale: if full { FULL_SCALE } else { SMOKE_SCALE },
        plant_rate,
        waves: 1,
        flows_per_wave: if full { 32 } else { 4 },
        rounds: if full { 8 + timed_rounds } else { 2 + 12 },
        chunk: if full { 2048 } else { 256 },
        warm_rounds: if full { 8 } else { 2 },
        churn: false,
        latency_waves: 1,
        latency_rounds: if full { 8 + latency_rounds } else { 2 + 6 },
        corpus_per_flow: if full { 512 << 10 } else { 2 << 10 },
        oracle_flows: if full { 4 } else { 2 },
        oracle_bytes: if full { 64 << 10 } else { 1 << 10 },
        micro_bytes: if full { 4 << 20 } else { 8 << 10 },
    };
    Some(match name {
        "snort_hits" => Spec {
            // A pass takes 1.5 s and a latency pass 1.1 s, so a 22 s
            // run alternates them eight times. The 56 rounds fit the
            // corpus without cycling.
            corpus_per_flow: if full { 56 * 2048 } else { 2 << 10 },
            micro_bytes: if full { 2 << 20 } else { 8 << 10 },
            ..steady(BenchmarkId::Snort, 0.0005, 48, 32)
        },
        "snort_churn" => Spec {
            waves: if full { 16 } else { 3 },
            flows_per_wave: if full { 64 } else { 4 },
            rounds: if full { 4 } else { 2 },
            chunk: if full { 512 } else { 128 },
            warm_rounds: 0,
            churn: true,
            latency_waves: if full { 6 } else { 2 },
            latency_rounds: if full { 4 } else { 2 },
            corpus_per_flow: if full { 4 * 512 } else { 2 * 128 },
            oracle_flows: if full { 128 } else { 4 },
            oracle_bytes: if full { 4 * 512 } else { 2 * 128 },
            micro_bytes: if full { 2 << 20 } else { 8 << 10 },
            ..steady(BenchmarkId::Snort, 0.0005, 0, 0)
        },
        "spam_hits" => steady(BenchmarkId::SpamAssassin, 0.002, 512, 96),
        "spam_benign" => Spec {
            // A shard whose filter sees one literal candidate stays hot
            // for the rest of its flow, and random bytes hold a short
            // literal about once per MiB: 512 KiB per flow left 8–19 of
            // the 128 (flow, shard) pairs hot, a different count with
            // every seed. 64 KiB per flow leaves 0–3, so the workload
            // is the skip path and its speed does not ride on the draw.
            corpus_per_flow: if full { 64 << 10 } else { 2 << 10 },
            ..steady(BenchmarkId::SpamAssassin, 0.0, 512, 96)
        },
        _ => return None,
    })
}

/// A workload's seeded inputs: the rules and one byte corpus per flow.
#[derive(Debug)]
pub struct Inputs {
    /// Rule sources of the generated ruleset (fixed by [`RULESET_SEED`]),
    /// in its order; a rule's index here is its rule id.
    pub rules: Vec<String>,
    /// All flows' bytes, flow after flow, `corpus_per_flow` each.
    bytes: Vec<u8>,
    corpus_per_flow: usize,
}

impl Inputs {
    /// Generates the workload's rules and, from `seed`, its traffic.
    pub fn generate(spec: &Spec, seed: u64) -> Inputs {
        let ruleset = generate(spec.ruleset, spec.scale, RULESET_SEED);
        let rules = ruleset.pattern_strings();
        let total = spec.total_flows() * spec.corpus_per_flow;
        let bytes = traffic(&ruleset, total, spec.plant_rate, seed);
        Inputs {
            rules,
            bytes,
            corpus_per_flow: spec.corpus_per_flow,
        }
    }

    /// Flow `flow`'s whole corpus.
    pub fn flow(&self, flow: usize) -> &[u8] {
        &self.bytes[flow * self.corpus_per_flow..(flow + 1) * self.corpus_per_flow]
    }

    /// The `chunk` bytes flow `flow` receives in round `round`, cycling
    /// over the flow's corpus (`chunk` divides `corpus_per_flow`).
    pub fn chunk(&self, flow: usize, round: usize, chunk: usize) -> &[u8] {
        let at = round * chunk % self.corpus_per_flow;
        &self.flow(flow)[at..at + chunk]
    }

    /// The first `len` bytes of all corpora laid end to end (the input of
    /// the single-engine micro measurements).
    pub fn prefix(&self, len: usize) -> &[u8] {
        &self.bytes[..len.min(self.bytes.len())]
    }
}
