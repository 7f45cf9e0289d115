//! The reduced-crossbar switch-network model.
//!
//! CAMA routes state-transition signals through a hierarchy of switches
//! (Fig. 5): two *local* switches inside each PE, one *global* switch per
//! processing array, and higher-level wiring between arrays and banks.
//! Table 2 folds switch energy into the bank access figure, so this model
//! is an **optional refinement**: per activated STE, each outgoing
//! connection is charged by the lowest hierarchy level that can route it.
//!
//! Default per-signal energies are expressed as fractions of one CAM block
//! access (16 780 fJ): 0.5% local, 2% intra-array, 4% intra-bank, 8%
//! inter-bank — wire/crossbar energy grows with distance. They are
//! this model's estimates, not values from the paper; the figure-level
//! comparisons do not depend on them, which `cost::tests` checks by
//! re-running Fig. 8 comparisons with switches enabled.

use crate::params::CAM_BLOCK;
use crate::place::{Loc, Placement};
use recama_mnrl::MnrlNetwork;
use std::collections::HashMap;

/// Per-signal switch energies (femtojoules).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SwitchParams {
    /// Within one PE (local switch).
    pub local_fj: f64,
    /// Between PEs of one array (global switch).
    pub intra_array_fj: f64,
    /// Between arrays of one bank.
    pub intra_bank_fj: f64,
    /// Between banks.
    pub inter_bank_fj: f64,
}

impl Default for SwitchParams {
    fn default() -> Self {
        SwitchParams {
            local_fj: CAM_BLOCK.energy_fj * 0.005,
            intra_array_fj: CAM_BLOCK.energy_fj * 0.02,
            intra_bank_fj: CAM_BLOCK.energy_fj * 0.04,
            inter_bank_fj: CAM_BLOCK.energy_fj * 0.08,
        }
    }
}

impl SwitchParams {
    /// Energy for one signal between the two locations.
    pub fn signal_fj(&self, a: Loc, b: Loc) -> f64 {
        if a == b {
            self.local_fj
        } else if (a.bank, a.array) == (b.bank, b.array) {
            self.intra_array_fj
        } else if a.bank == b.bank {
            self.intra_bank_fj
        } else {
            self.inter_bank_fj
        }
    }
}

/// Per-STE routing cost of one activation: the sum of per-signal energies
/// over the node's outgoing connections, resolved against a placement.
/// Multiply by the observed activation counts for total switch energy.
pub fn per_activation_cost(
    network: &MnrlNetwork,
    placement: &Placement,
    params: &SwitchParams,
) -> HashMap<String, f64> {
    let mut costs = HashMap::new();
    for node in network.nodes() {
        // Modules signal through the same network as STEs.
        let from = placement.per_node[&node.id];
        let mut fj = 0.0;
        for conn in &node.connections {
            let to = placement.per_node[&conn.to];
            fj += params.signal_fj(from, to);
        }
        costs.insert(node.id.clone(), fj);
    }
    costs
}

/// Total switch energy of a run, given per-node activation counts
/// (`HwSimulator::activation_counts`).
pub fn switch_energy_fj(
    network: &MnrlNetwork,
    placement: &Placement,
    activations: &HashMap<String, u64>,
    params: &SwitchParams,
) -> f64 {
    let costs = per_activation_cost(network, placement, params);
    activations
        .iter()
        .map(|(id, &n)| costs.get(id).copied().unwrap_or(0.0) * n as f64)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::place::place;
    use recama_compiler::{compile, CompileOptions};
    use recama_nca::UnfoldPolicy;

    #[test]
    fn default_params_are_ordered_by_distance() {
        let p = SwitchParams::default();
        assert!(p.local_fj < p.intra_array_fj);
        assert!(p.intra_array_fj < p.intra_bank_fj);
        assert!(p.intra_bank_fj < p.inter_bank_fj);
    }

    #[test]
    fn signal_cost_by_level() {
        let p = SwitchParams::default();
        let a = Loc {
            bank: 0,
            array: 0,
            pe: 0,
        };
        assert_eq!(p.signal_fj(a, a), p.local_fj);
        assert_eq!(
            p.signal_fj(
                a,
                Loc {
                    bank: 0,
                    array: 0,
                    pe: 1
                }
            ),
            p.intra_array_fj
        );
        assert_eq!(
            p.signal_fj(
                a,
                Loc {
                    bank: 0,
                    array: 1,
                    pe: 0
                }
            ),
            p.intra_bank_fj
        );
        assert_eq!(
            p.signal_fj(
                a,
                Loc {
                    bank: 1,
                    array: 0,
                    pe: 0
                }
            ),
            p.inter_bank_fj
        );
    }

    #[test]
    fn small_design_is_all_local() {
        let parsed = recama_syntax::parse("^a(bc){2,4}d").unwrap();
        let out = compile(&parsed.for_stream(), &CompileOptions::default());
        let placement = place(&out.network);
        let costs = per_activation_cost(&out.network, &placement, &SwitchParams::default());
        // Everything fits one PE, so every signal is local.
        let local = SwitchParams::default().local_fj;
        for node in out.network.nodes() {
            let fj = costs[&node.id];
            let conns = node.connections.len() as f64;
            assert!((fj - conns * local).abs() < 1e-9, "{}: {fj}", node.id);
        }
    }

    #[test]
    fn spilled_design_pays_higher_levels() {
        let parsed = recama_syntax::parse("^a{1500}").unwrap();
        let out = compile(
            &parsed.for_stream(),
            &CompileOptions {
                unfold: UnfoldPolicy::All,
                ..Default::default()
            },
        );
        let placement = place(&out.network);
        assert!(placement.pe_count > 1);
        let params = SwitchParams::default();
        let costs = per_activation_cost(&out.network, &placement, &params);
        let max = costs.values().cloned().fold(0.0, f64::max);
        assert!(max >= params.intra_array_fj, "chain must cross PEs: {max}");
    }
}
