//! Circuit parameters and architectural constants of the augmented CAMA
//! design (Table 2 and Fig. 5 of the paper).
//!
//! The paper obtains the per-component energy/delay/area scalars from SPICE
//! simulation of a TSMC 28 nm implementation; we reproduce the evaluation
//! starting from the same scalars (arXiv 2209.05686, Table 2).
//! Interpretation used throughout: the Table 2 "CAMA Bank" row describes
//! one 256-STE CAM block access — the reading consistent with the per-STE
//! energies visible in Fig. 8 (~65 fJ/STE/byte) and the chip areas of
//! Fig. 10 (single-digit mm² for ~10⁵ STEs).

/// Energy/delay/area triple of one hardware component (from SPICE, 28 nm).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ComponentParams {
    /// Dynamic energy per access, femtojoules.
    pub energy_fj: f64,
    /// Critical-path delay, picoseconds.
    pub delay_ps: f64,
    /// Layout area, square micrometers.
    pub area_um2: f64,
}

/// One 256-STE CAM block (Table 2, "CAMA Bank" row): energy per search
/// access, delay of the search, area of the block.
pub const CAM_BLOCK: ComponentParams = ComponentParams {
    energy_fj: 16780.0,
    delay_ps: 325.0,
    area_um2: 3919.0,
};

/// The 17-bit counter module (Table 2).
pub const COUNTER_MODULE: ComponentParams = ComponentParams {
    energy_fj: 288.0,
    delay_ps: 101.0,
    area_um2: 237.0,
};

/// The 2000-bit bit-vector module (Table 2).
pub const BITVECTOR_MODULE: ComponentParams = ComponentParams {
    energy_fj: 3340.0,
    delay_ps: 71.0,
    area_um2: 6382.0,
};

/// Clock frequency of CAMA-T, which the augmented design preserves (§4.3).
pub const CLOCK_GHZ: f64 = 2.14;

/// Clock period in picoseconds (≈ 467 ps).
pub const CYCLE_PS: f64 = 1000.0 / CLOCK_GHZ;

/// STE columns per CAM block.
pub(crate) const STES_PER_CAM_BLOCK: usize = 256;

/// CAM blocks per processing element (Fig. 5: "two 256-STE CAM arrays").
pub(crate) const CAM_BLOCKS_PER_PE: usize = 2;

/// STE columns per PE.
pub(crate) const STES_PER_PE: usize = STES_PER_CAM_BLOCK * CAM_BLOCKS_PER_PE;

/// Counter modules per PE (Fig. 5: "8 counters").
pub(crate) const COUNTERS_PER_PE: usize = 8;

/// Physical bit-vector modules per PE (Fig. 5: "may contain a bit vector").
pub(crate) const BITVECTORS_PER_PE: usize = 1;

/// Bits per physical bit-vector module; segments of several small
/// repetitions can share one module (§4.3).
pub(crate) const BITS_PER_BITVECTOR: usize = 2000;

/// Processing elements per processing array (Fig. 5).
pub(crate) const PES_PER_ARRAY: usize = 8;

/// Processing arrays per bank (Fig. 5).
pub(crate) const ARRAYS_PER_BANK: usize = 16;

/// STE capacity of a full bank.
pub(crate) const STES_PER_BANK: usize = STES_PER_PE * PES_PER_ARRAY * ARRAYS_PER_BANK;

/// Energy charged per mapped STE column per input byte: every mapped
/// column participates in the CAM search each cycle.
pub fn match_energy_per_column_fj() -> f64 {
    CAM_BLOCK.energy_fj / STES_PER_CAM_BLOCK as f64
}

/// Area of one STE column when prorating CAM blocks (micro-benchmarks).
pub fn area_per_column_um2() -> f64 {
    CAM_BLOCK.area_um2 / STES_PER_CAM_BLOCK as f64
}

/// Energy of one bit-vector module access prorated to `bits` allocated
/// bits (the Fig. 8 micro-benchmark sets the vector length to n).
pub(crate) fn bitvector_energy_fj(bits: usize) -> f64 {
    BITVECTOR_MODULE.energy_fj * bits as f64 / BITS_PER_BITVECTOR as f64
}

/// Area of `bits` bit-vector bits when prorating (micro-benchmarks).
pub(crate) fn bitvector_area_um2(bits: usize) -> f64 {
    BITVECTOR_MODULE.area_um2 * bits as f64 / BITS_PER_BITVECTOR as f64
}

/// Whether all components fit in one cycle at [`CLOCK_GHZ`] — the paper's
/// claim that counters and bit vectors add no performance penalty (§4.3:
/// matching and counter/bit-vector operations complete within one cycle
/// next to the 325 ps CAM access).
pub fn single_cycle_feasible() -> bool {
    // Worst case: CAM search followed by a module update in the same cycle.
    let module_delay = COUNTER_MODULE.delay_ps.max(BITVECTOR_MODULE.delay_ps);
    CAM_BLOCK.delay_ps + module_delay <= CYCLE_PS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_2_values() {
        assert_eq!(CAM_BLOCK.energy_fj, 16780.0);
        assert_eq!(CAM_BLOCK.delay_ps, 325.0);
        assert_eq!(CAM_BLOCK.area_um2, 3919.0);
        assert_eq!(COUNTER_MODULE.energy_fj, 288.0);
        assert_eq!(COUNTER_MODULE.delay_ps, 101.0);
        assert_eq!(COUNTER_MODULE.area_um2, 237.0);
        assert_eq!(BITVECTOR_MODULE.energy_fj, 3340.0);
        assert_eq!(BITVECTOR_MODULE.delay_ps, 71.0);
        assert_eq!(BITVECTOR_MODULE.area_um2, 6382.0);
    }

    #[test]
    fn hierarchy_capacities() {
        assert_eq!(STES_PER_PE, 512);
        assert_eq!(STES_PER_BANK, 65536);
    }

    #[test]
    #[allow(clippy::assertions_on_constants)] // deliberate checks of Table 2 constants
    fn timing_closure_at_cama_clock() {
        // 2.14 GHz → 467 ps cycle; all module delays fit.
        assert!((CYCLE_PS - 467.29).abs() < 0.1);
        assert!(single_cycle_feasible());
        assert!(COUNTER_MODULE.delay_ps < CYCLE_PS);
        assert!(BITVECTOR_MODULE.delay_ps < CYCLE_PS);
        assert!(CAM_BLOCK.delay_ps < CYCLE_PS);
    }

    #[test]
    fn derived_energies() {
        // ≈ 65.5 fJ per column per byte — the per-STE match energy that
        // makes the Fig. 8 unfolding line land at ~10⁻¹ nJ/B for n = 1500.
        let per_col = match_energy_per_column_fj();
        assert!((per_col - 65.55).abs() < 0.1, "{per_col}");
        assert!((bitvector_energy_fj(2000) - 3340.0).abs() < 1e-9);
        assert!((bitvector_energy_fj(1000) - 1670.0).abs() < 1e-9);
    }
}
