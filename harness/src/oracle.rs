//! The independent oracle: the paper's hardware model.
//!
//! The service scans with sharded, prefiltered, lazily determinized
//! software engines; the oracle runs the same bytes through the
//! cycle-level simulator of each shard's MNRL machine image
//! ([`recama::hw::HwSimulator`]) and requires the same `(rule, end)`
//! reports. The simulator run also prices the sample with the paper's
//! energy and area model, which gives the two `sim_*` metrics.

use crate::serve::Captured;
use crate::spec::{Inputs, Spec};
use crate::trace::Tracer;
use recama::hw::{area_report, energy_report, place, AreaGranularity};
use recama::{Engine, RuleMatch};
use std::collections::HashSet;

/// What the simulator runs produced.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OracleResult {
    /// Flows whose service reports were compared with the simulator's.
    pub flows_checked: u64,
    /// Flows whose reports differ.
    pub mismatches: u64,
    /// Bytes each shard's simulator consumed.
    pub sample_bytes: u64,
    /// Σ over shards of simulated energy per byte, nJ/B.
    pub energy_nj_per_byte: f64,
    /// Its CAM state-matching part, fJ/B.
    pub energy_match_fj_per_byte: f64,
    /// Its counter-module part, fJ/B.
    pub energy_counter_fj_per_byte: f64,
    /// Its bit-vector-module part, fJ/B.
    pub energy_bitvector_fj_per_byte: f64,
    /// Σ over shards of whole-module area, mm².
    pub area_mm2: f64,
    /// The provisioned-but-unused bit-vector part of it, mm².
    pub area_waste_mm2: f64,
    /// Σ over shards of banks the placement uses.
    pub banks: u64,
    /// Σ over shards of CAM columns.
    pub columns: u64,
    /// Σ over shards of counter modules.
    pub counters: u64,
    /// Σ over shards of bit-vector bits in use.
    pub bitvector_bits: u64,
}

fn by_end_then_rule(m: &RuleMatch) -> (u64, u64) {
    (m.end, m.rule)
}

/// Runs the first `oracle_bytes` bytes of the first `oracle_flows` flows
/// through every shard's simulator and compares with `captured`, the
/// reports the service gave for those flows.
pub fn run_oracle(
    engine: &Engine,
    spec: &Spec,
    inputs: &Inputs,
    captured: &[Captured],
    tracer: &mut Tracer,
) -> OracleResult {
    assert_eq!(captured.len(), spec.oracle_flows, "one capture per flow");
    let whole = tracer.enter("bench.oracle", None);
    let mut out = OracleResult::default();
    let flow_len = (spec.rounds * spec.chunk) as u64;
    let sample_len = spec.oracle_bytes;
    // `$` is not in the machine image: the simulator reports every
    // candidate end, as `poll` does, and the finishing set is the
    // candidates of `$`-anchored rules that land on the flow's last byte.
    let anchored_end: HashSet<u64> = (0..engine.len())
        .filter(|&i| recama::syntax::parse(engine.pattern(i)).is_ok_and(|p| p.anchored_end))
        .map(|i| engine.rule_id(i))
        .collect();

    let mut expected: Vec<Vec<RuleMatch>> = vec![Vec::new(); spec.oracle_flows];
    for shard in 0..engine.shard_count() {
        let network = engine.network(shard);
        let placement = tracer.leaf("hw.place", None, || place(network));
        let area = area_report(&placement, AreaGranularity::WholeModule);
        out.area_mm2 += area.total_mm2();
        out.area_waste_mm2 += area.waste_um2 / 1e6;
        out.banks += placement.bank_count as u64;
        out.columns += placement.total_columns as u64;
        out.counters += placement.counter_count as u64;
        out.bitvector_bits += placement.bitvector_bits_used;

        let mut sim = engine.hardware(shard);
        let (mut cycles, mut match_fj, mut counter_fj, mut bitvector_fj) = (0u64, 0.0, 0.0, 0.0);
        for (flow, expected) in expected.iter_mut().enumerate() {
            let sample = &inputs.flow(flow)[..sample_len];
            let reports = tracer.leaf("hw.sim", Some((flow as u32, 0)), || {
                sim.match_ends_by_rule(sample)
            });
            // The simulator's counters restart with every flow.
            let energy = energy_report(&placement, &sim);
            cycles += energy.cycles;
            match_fj += energy.match_fj;
            counter_fj += energy.counter_fj;
            bitvector_fj += energy.bitvector_fj;
            expected.extend(reports.into_iter().map(|(rule, end)| RuleMatch {
                rule: engine.rule_id(rule as usize),
                end: end as u64,
            }));
        }
        let per_byte = |fj: f64| if cycles == 0 { 0.0 } else { fj / cycles as f64 };
        out.sample_bytes = cycles;
        out.energy_match_fj_per_byte += per_byte(match_fj);
        out.energy_counter_fj_per_byte += per_byte(counter_fj);
        out.energy_bitvector_fj_per_byte += per_byte(bitvector_fj);
        out.energy_nj_per_byte += per_byte(match_fj + counter_fj + bitvector_fj) / 1e6;
    }

    for (mut expected, got) in expected.into_iter().zip(captured) {
        expected.sort_by_key(by_end_then_rule);
        let mut polled: Vec<RuleMatch> = got
            .polled
            .iter()
            .copied()
            .filter(|m| m.end <= sample_len as u64)
            .collect();
        polled.sort_by_key(by_end_then_rule);
        let mut same = polled == expected;
        if sample_len as u64 == flow_len {
            let mut finishing = got.finishing.clone();
            finishing.sort_by_key(by_end_then_rule);
            let expected_finishing: Vec<RuleMatch> = expected
                .iter()
                .copied()
                .filter(|m| m.end == flow_len && anchored_end.contains(&m.rule))
                .collect();
            same &= finishing == expected_finishing;
        }
        out.flows_checked += 1;
        out.mismatches += u64::from(!same);
    }
    tracer.exit(whole);
    out
}
