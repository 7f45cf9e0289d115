//! Every metric the benchmark prints: name, unit, direction, and — for
//! the end-to-end ones — the regression bound. `BENCHMARK.json` is
//! generated from these tables (`harness manifest`), and a run refuses
//! to report a name that is not in them.

use std::collections::BTreeMap;

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better.
    Lower,
    /// Larger values are better.
    Higher,
}

impl Better {
    /// As written in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

use Better::{Higher, Lower};

/// An end-to-end metric: `(name, unit, direction, bound)`. The bound is
/// the share of the parent's median by which the metric may get worse.
pub type EndToEnd = (&'static str, &'static str, Better, f64);

/// What a user of the serving path sees. Reported by the untraced run.
///
/// The failure count is not in this table because it is 0 on a healthy
/// tree and a bound is a share of the parent's value: it travels as the
/// `attempted` / `failed` / `correct` keys of every result instead.
pub const END_TO_END: &[EndToEnd] = &[
    ("setup_s", "s", Lower, 0.25),
    ("scan_mib_s", "MiB/s", Higher, 0.20),
    ("chunk_p50_us", "us", Lower, 0.25),
    ("peak_rss_mib", "MiB", Lower, 0.05),
    ("sim_energy_nj_per_byte", "nJ/B", Lower, 0.01),
    ("sim_area_mm2", "mm2", Lower, 0.01),
];

/// A per-layer metric: `(name, unit, direction)`. The name's prefix is
/// the module of this repository it measures.
pub type PerLayer = (&'static str, &'static str, Better);

/// Single layers, timed from outside or read off the library's own
/// counters. Reported by the traced run.
pub const PER_LAYER: &[PerLayer] = &[
    ("syntax.parse_s", "s", Lower),
    ("syntax.normalize_s", "s", Lower),
    ("syntax.rules_accepted", "count", Higher),
    ("syntax.rules_rejected", "count", Lower),
    ("syntax.byte_classes", "count", Lower),
    ("analysis.analyze_nca_s", "s", Lower),
    ("analysis.slowest_rule_s", "s", Lower),
    ("analysis.pairs_created", "count", Lower),
    ("analysis.budget_exhausted_rules", "count", Lower),
    ("analysis.check_hybrid_s", "s", Lower),
    ("nca.glushkov_s", "s", Lower),
    ("nca.merge_s", "s", Lower),
    ("nca.states", "count", Lower),
    ("nca.counters", "count", Lower),
    ("nca.exact_mib_s", "MiB/s", Higher),
    ("nca.hybrid_mib_s", "MiB/s", Higher),
    ("nca.hybrid_cold_mib_s", "MiB/s", Higher),
    ("nca.hybrid.dfa_hit_rate", "ratio", Higher),
    ("nca.hybrid.fallback_bytes", "B", Lower),
    ("nca.hybrid.dfa_states", "count", Lower),
    ("nca.hybrid.flushes", "count", Lower),
    ("compiler.compile_s", "s", Lower),
    ("compiler.emit_s", "s", Lower),
    ("compiler.merge_networks_s", "s", Lower),
    ("compiler.other_s", "s", Lower),
    ("compiler.iterations", "count", Lower),
    ("compiler.unfolded_occurrences", "count", Lower),
    ("compiler.modules_counter", "count", Higher),
    ("compiler.modules_bitvector", "count", Lower),
    ("mnrl.nodes", "count", Lower),
    ("mnrl.json_bytes", "B", Lower),
    ("mnrl.to_json_s", "s", Lower),
    ("hw.cost_plan_s", "s", Lower),
    ("hw.place_s", "s", Lower),
    ("hw.sim_kib_s", "KiB/s", Higher),
    ("hw.banks", "count", Lower),
    ("hw.columns", "count", Lower),
    ("hw.counters", "count", Lower),
    ("hw.bitvector_bits", "count", Lower),
    ("hw.energy_match_fj_per_byte", "fJ/B", Lower),
    ("hw.energy_counter_fj_per_byte", "fJ/B", Lower),
    ("hw.energy_bitvector_fj_per_byte", "fJ/B", Lower),
    ("hw.area_waste_mm2", "mm2", Lower),
    ("hw.oracle_mismatches", "count", Lower),
    ("engine.build_s", "s", Lower),
    ("engine.build_unattributed_s", "s", Lower),
    ("set.stream_mib_s", "MiB/s", Higher),
    ("set.block_scan_mib_s", "MiB/s", Higher),
    ("prefilter.build_s", "s", Lower),
    ("prefilter.skip_rate", "ratio", Higher),
    ("prefilter.skipped_units", "count", Higher),
    ("prefilter.candidate_hits", "count", Lower),
    ("prefilter.always_on_rules", "count", Lower),
    ("prefilter.off_mib_s", "MiB/s", Higher),
    ("prefilter.speedup", "ratio", Higher),
    ("sched.batch_mib_s", "MiB/s", Higher),
    ("service.spawn_s", "s", Lower),
    ("service.shutdown_s", "s", Lower),
    ("service.open_us", "us", Lower),
    ("service.close_us", "us", Lower),
    ("service.push_us", "us", Lower),
    ("service.poll_us", "us", Lower),
    ("service.barrier_wait_s", "s", Lower),
    ("service.scan_busy_s", "s", Lower),
    ("service.overhead_share", "ratio", Lower),
    ("service.driver_unattributed_s", "s", Lower),
    ("service.chunk_p90_us", "us", Lower),
    ("service.chunk_p99_us", "us", Lower),
    ("service.w2_mib_s", "MiB/s", Higher),
    ("service.w2_speedup", "ratio", Higher),
    ("service.reload_ms", "ms", Lower),
    ("service.reload_lossless", "count", Higher),
    ("service.queue_depth_peak", "count", Lower),
    ("service.backpressure", "count", Lower),
    ("service.faults_total", "count", Lower),
    ("service.reports", "count", Higher),
    ("bench.traffic_gen_s", "s", Lower),
    ("bench.oracle_s", "s", Lower),
    ("bench.trace_overhead_pct", "%", Lower),
    ("bench.error_rate", "ratio", Lower),
];

/// The unit of metric `name`, end-to-end or per-layer.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .map(|&(n, unit, ..)| (n, unit))
        .chain(PER_LAYER.iter().map(|&(n, unit, _)| (n, unit)))
        .find(|&(n, _)| n == name)
        .map(|(_, unit)| unit)
}

/// The values one run reports, by metric name.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    /// Records `value` under `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not in [`END_TO_END`] or [`PER_LAYER`], is
    /// recorded twice, or `value` is not finite — each of them a bug in
    /// the harness, not a property of the program under test.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(unit_of(name).is_some(), "metric {name} is not declared");
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        let previous = self.0.insert(name, value);
        assert!(previous.is_none(), "metric {name} recorded twice");
    }

    /// The value recorded under `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// `(name, value)` in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, f64)> + '_ {
        self.0.iter().map(|(&name, &value)| (name, value))
    }
}
