//! The energy/area model combining Table 2 scalars with placement and
//! simulated activity — what regenerates Fig. 8 and Fig. 10.
//!
//! Energy per input byte:
//!
//! * every mapped CAM column takes part in the search each cycle
//!   (16 780 fJ per 256-column block access, prorated per column);
//! * a counter module costs 288 fJ in each cycle any of its ports is
//!   active;
//! * a bit-vector module costs 3 340 fJ per active cycle, prorated to the
//!   segment length (the Fig. 8 micro-benchmark provisions length-n
//!   vectors).
//!
//! Switch-network energy is no separate term: Table 2 folds it into the
//! CAM block access figure.
//!
//! Area comes in two granularities: `WholeModule` (provisioned hardware:
//! whole CAM-block pairs per PE, whole 2000-bit bit-vector modules with an
//! explicit **waste** term for unused bits — the Fig. 10 accounting) and
//! `ProRata` (per-column / per-bit — the Fig. 8 micro-benchmark sweep).

use crate::params::{
    area_per_column_um2, bitvector_area_um2, bitvector_energy_fj, match_energy_per_column_fj,
    BITS_PER_BITVECTOR, BITVECTOR_MODULE, CAM_BLOCK, CAM_BLOCKS_PER_PE, COUNTER_MODULE,
};
use crate::place::{place, Placement};
use crate::sim::HwSimulator;
use recama_mnrl::MnrlNetwork;

/// Area accounting granularity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AreaGranularity {
    /// Whole provisioned modules (chip floorplan; Fig. 10, incl. waste).
    WholeModule,
    /// Per used column / bit (micro-benchmark sweeps; Fig. 8).
    ProRata,
}

/// Energy breakdown of one simulated run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyReport {
    /// Input bytes processed.
    pub cycles: u64,
    /// CAM state-matching energy (fJ).
    pub match_fj: f64,
    /// Counter-module energy (fJ).
    pub counter_fj: f64,
    /// Bit-vector-module energy (fJ).
    pub bitvector_fj: f64,
}

impl EnergyReport {
    /// Total energy in femtojoules.
    pub(crate) fn total_fj(&self) -> f64 {
        self.match_fj + self.counter_fj + self.bitvector_fj
    }

    /// Average energy per input byte in nanojoules — the Fig. 8/Fig. 10
    /// y-axis unit.
    pub fn nj_per_byte(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.total_fj() / self.cycles as f64 / 1.0e6
        }
    }
}

/// Area breakdown of one placed network.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AreaReport {
    /// CAM (state matching) area, µm².
    pub cam_um2: f64,
    /// Counter-module area, µm².
    pub counter_um2: f64,
    /// Bit-vector area actually used by segments, µm².
    pub bitvector_um2: f64,
    /// Bit-vector area provisioned but unused (the Fig. 10 "waste"), µm².
    pub waste_um2: f64,
}

impl AreaReport {
    /// Total area in µm² (including waste).
    pub(crate) fn total_um2(&self) -> f64 {
        self.cam_um2 + self.counter_um2 + self.bitvector_um2 + self.waste_um2
    }

    /// Total area in mm² — the Fig. 10 y-axis unit.
    pub fn total_mm2(&self) -> f64 {
        self.total_um2() / 1.0e6
    }
}

/// Computes the energy of a finished simulator run on a placed network.
pub fn energy_report(placement: &Placement, sim: &HwSimulator) -> EnergyReport {
    let cycles = sim.activity().cycles;
    let match_fj = cycles as f64 * placement.total_columns as f64 * match_energy_per_column_fj();
    let mut counter_fj = 0.0;
    let mut bitvector_fj = 0.0;
    for (is_counter, active_cycles, bits) in sim.module_activity() {
        if is_counter {
            counter_fj += active_cycles as f64 * COUNTER_MODULE.energy_fj;
        } else {
            bitvector_fj += active_cycles as f64 * bitvector_energy_fj(bits as usize);
        }
    }
    EnergyReport {
        cycles,
        match_fj,
        counter_fj,
        bitvector_fj,
    }
}

/// Computes the area of a placed network.
pub fn area_report(placement: &Placement, granularity: AreaGranularity) -> AreaReport {
    match granularity {
        AreaGranularity::WholeModule => {
            let cam_um2 = placement.pe_count as f64 * CAM_BLOCKS_PER_PE as f64 * CAM_BLOCK.area_um2;
            let counter_um2 = placement.counter_count as f64 * COUNTER_MODULE.area_um2;
            let allocated = placement.bitvector_modules as f64 * BITVECTOR_MODULE.area_um2;
            let used_fraction = if placement.bitvector_modules == 0 {
                0.0
            } else {
                placement.bitvector_bits_used as f64
                    / (placement.bitvector_modules as f64 * BITS_PER_BITVECTOR as f64)
            };
            AreaReport {
                cam_um2,
                counter_um2,
                bitvector_um2: allocated * used_fraction,
                waste_um2: allocated * (1.0 - used_fraction),
            }
        }
        AreaGranularity::ProRata => AreaReport {
            cam_um2: placement.total_columns as f64 * area_per_column_um2(),
            counter_um2: placement.counter_count as f64 * COUNTER_MODULE.area_um2,
            bitvector_um2: bitvector_area_um2(placement.bitvector_bits_used as usize),
            waste_um2: 0.0,
        },
    }
}

/// End-to-end: place, simulate `input`, and report cost — the harness the
/// figure generators call.
#[derive(Debug)]
pub struct HwRun {
    /// The placement used.
    pub placement: Placement,
    /// Energy of the run.
    pub energy: EnergyReport,
    /// Area of the placed design.
    pub area: AreaReport,
    /// Report positions (1-based end offsets).
    pub match_ends: Vec<usize>,
}

/// Places `network`, runs `input` through the simulator, and prices the
/// run with `granularity` area accounting.
pub fn run(network: &MnrlNetwork, input: &[u8], granularity: AreaGranularity) -> HwRun {
    let placement = place(network);
    let mut sim = HwSimulator::new(network);
    let match_ends = sim.match_ends(input);
    let energy = energy_report(&placement, &sim);
    let area = area_report(&placement, granularity);
    HwRun {
        placement,
        energy,
        area,
        match_ends,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recama_compiler::{compile, CompileOptions};
    use recama_nca::UnfoldPolicy;
    use recama_syntax::parse;

    fn network(pattern: &str, unfold: UnfoldPolicy) -> recama_mnrl::MnrlNetwork {
        let parsed = parse(pattern).unwrap();
        compile(
            &parsed.for_stream(),
            &CompileOptions {
                unfold,
                ..Default::default()
            },
        )
        .network
    }

    #[test]
    fn counter_beats_unfolding_by_orders_of_magnitude() {
        // Fig. 8 left: a{n} (anchored ⇒ counter-unambiguous) vs unfolding.
        let n = 1000;
        let input: Vec<u8> = std::iter::repeat_n(b'a', 4096).collect();
        let counter = run(
            &network(&format!("^a{{{n}}}"), UnfoldPolicy::None),
            &input,
            AreaGranularity::ProRata,
        );
        let unfolded = run(
            &network(&format!("^a{{{n}}}"), UnfoldPolicy::All),
            &input,
            AreaGranularity::ProRata,
        );
        let e_ratio = unfolded.energy.nj_per_byte() / counter.energy.nj_per_byte();
        assert!(e_ratio > 50.0, "energy ratio only {e_ratio:.1}");
        let a_ratio = unfolded.area.total_um2() / counter.area.total_um2();
        assert!(a_ratio > 10.0, "area ratio only {a_ratio:.1}");
    }

    #[test]
    fn bitvector_beats_unfolding() {
        // Fig. 8 right: Σ*a{n} (ambiguous ⇒ bit vector) vs unfolding.
        let n = 1000;
        let input: Vec<u8> = std::iter::repeat_n(b'a', 4096).collect();
        let bv = run(
            &network(&format!("a{{{n}}}"), UnfoldPolicy::None),
            &input,
            AreaGranularity::ProRata,
        );
        let unfolded = run(
            &network(&format!("a{{{n}}}"), UnfoldPolicy::All),
            &input,
            AreaGranularity::ProRata,
        );
        assert!(bv.placement.bitvector_segments == 1);
        let e_ratio = unfolded.energy.nj_per_byte() / bv.energy.nj_per_byte();
        assert!(e_ratio > 10.0, "energy ratio only {e_ratio:.1}");
        assert!(unfolded.area.total_um2() > bv.area.total_um2());
        // Both designs must agree on reports.
        assert_eq!(bv.match_ends, unfolded.match_ends);
    }

    #[test]
    fn energy_components_add_up() {
        let net = network("^a{10}b", UnfoldPolicy::None);
        let r = run(&net, b"aaaaaaaaaab", AreaGranularity::WholeModule);
        let e = r.energy;
        assert!(e.match_fj > 0.0);
        assert!(e.counter_fj > 0.0);
        assert_eq!(e.bitvector_fj, 0.0);
        assert!((e.total_fj() - (e.match_fj + e.counter_fj)).abs() < 1e-9);
        assert!(e.nj_per_byte() > 0.0);
        assert_eq!(r.match_ends, vec![11]);
    }

    #[test]
    fn whole_module_area_includes_waste() {
        let net = network("a{100}", UnfoldPolicy::None); // bit vector of 100 bits
        let r = run(&net, b"aaa", AreaGranularity::WholeModule);
        assert!(r.area.waste_um2 > 0.0);
        let used_share = r.area.bitvector_um2 / (r.area.bitvector_um2 + r.area.waste_um2);
        assert!((used_share - 100.0 / 2000.0).abs() < 1e-9);
        // ProRata has no waste.
        let r2 = run(&net, b"aaa", AreaGranularity::ProRata);
        assert_eq!(r2.area.waste_um2, 0.0);
        assert!(r2.area.total_um2() < r.area.total_um2());
    }

    #[test]
    fn zero_cycles_zero_energy() {
        let net = network("^abc", UnfoldPolicy::None);
        let r = run(&net, b"", AreaGranularity::WholeModule);
        assert_eq!(r.energy.nj_per_byte(), 0.0);
        assert_eq!(r.energy.total_fj(), 0.0);
    }
}
