//! Cycle-level functional simulation of the augmented CAMA (the modified
//! VASim of §4.3).
//!
//! Each cycle processes one input byte in the accelerator's two phases:
//!
//! 1. **state matching** — an STE is *active* iff it was enabled by the
//!    previous cycle (or is start-enabled at cycle 0) and the input byte is
//!    in its class;
//! 2. **state transition** — active STEs enable their successors through
//!    the switch network, and drive the counter/bit-vector module ports;
//!    module outputs (`en_fst`/`en_body`/`en_out`) enable further STEs for
//!    the next cycle.
//!
//! Reports fire on active reporting STEs and on reporting modules whose
//! `en_out` condition holds — one report stream per cycle, exactly what the
//! reference NCA engines produce for the same pattern, which the
//! integration tests exploit.

use crate::modules::{BitVectorModule, CounterModule};
use recama_mnrl::{Enable, MnrlNetwork, NodeKind, Port};
use recama_syntax::ByteClass;
use std::collections::HashMap;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum InPort {
    Pre,
    Fst,
    Lst,
    Body,
}

struct SteInfo {
    class: ByteClass,
    start: bool,
    report: bool,
    ste_targets: Vec<usize>,
    module_inputs: Vec<(usize, InPort)>,
}

enum ModuleState {
    Counter(CounterModule),
    BitVector(BitVectorModule),
}

struct ModInfo {
    start: bool,
    report: bool,
    loop_targets: Vec<usize>,
    out_targets: Vec<usize>,
}

/// Per-run activity counters for the energy model.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Activity {
    /// Input bytes processed.
    pub cycles: u64,
    /// Total STE activations.
    pub ste_activations: u64,
    /// Reports raised.
    pub reports: u64,
}

/// The augmented-CAMA simulator for one MNRL network.
///
/// # Examples
///
/// ```
/// use recama_compiler::{compile, CompileOptions};
/// use recama_hw::HwSimulator;
///
/// let parsed = recama_syntax::parse("ab{2,3}c").unwrap();
/// let out = compile(&parsed.for_stream(), &CompileOptions::default());
/// let mut hw = HwSimulator::new(&out.network);
/// assert_eq!(hw.match_ends(b"xabbc_abbbc"), vec![5, 11]);
/// ```
pub struct HwSimulator {
    stes: Vec<SteInfo>,
    modules: Vec<ModuleState>,
    mod_info: Vec<ModInfo>,
    enabled: Vec<bool>,
    active: Vec<bool>,
    activity: Activity,
    /// Per-module active-cycle counts are read from the module models.
    bv_sizes: Vec<u32>,
    /// MNRL report codes parallel to `stes` / `modules` (rule ids in
    /// multi-pattern images).
    ste_report_ids: Vec<Option<u32>>,
    mod_report_ids: Vec<Option<u32>>,
    /// Report node indices of the most recent cycle (STE-index space and
    /// module-index space respectively).
    last_ste_reports: Vec<usize>,
    last_mod_reports: Vec<usize>,
}

impl HwSimulator {
    /// Builds a simulator for `network`.
    ///
    /// # Panics
    ///
    /// Panics if the network fails [`MnrlNetwork::validate`].
    pub fn new(network: &MnrlNetwork) -> HwSimulator {
        let problems = network.validate();
        assert!(problems.is_empty(), "invalid network: {problems:?}");

        let mut ste_index: HashMap<&str, usize> = HashMap::new();
        let mut mod_index: HashMap<&str, usize> = HashMap::new();
        let mut ste_report_ids: Vec<Option<u32>> = Vec::new();
        let mut mod_report_ids: Vec<Option<u32>> = Vec::new();
        for node in network.nodes() {
            match node.kind {
                NodeKind::State { .. } => {
                    let i = ste_index.len();
                    ste_index.insert(node.id.as_str(), i);
                    ste_report_ids.push(node.report_id);
                }
                _ => {
                    let i = mod_index.len();
                    mod_index.insert(node.id.as_str(), i);
                    mod_report_ids.push(node.report_id);
                }
            }
        }

        let mut stes: Vec<SteInfo> = Vec::with_capacity(ste_index.len());
        let mut modules: Vec<ModuleState> = Vec::with_capacity(mod_index.len());
        let mut mod_info: Vec<ModInfo> = Vec::with_capacity(mod_index.len());
        let mut bv_sizes = Vec::new();
        for node in network.nodes() {
            match &node.kind {
                NodeKind::State { symbol_set } => {
                    let mut info = SteInfo {
                        class: *symbol_set,
                        start: node.enable == Enable::OnStartAndActivateIn,
                        report: node.report,
                        ste_targets: Vec::new(),
                        module_inputs: Vec::new(),
                    };
                    for conn in &node.connections {
                        match conn.to_port {
                            Port::Main => info.ste_targets.push(ste_index[conn.to.as_str()]),
                            Port::Pre => info
                                .module_inputs
                                .push((mod_index[conn.to.as_str()], InPort::Pre)),
                            Port::Fst => info
                                .module_inputs
                                .push((mod_index[conn.to.as_str()], InPort::Fst)),
                            Port::Lst => info
                                .module_inputs
                                .push((mod_index[conn.to.as_str()], InPort::Lst)),
                            Port::Body => info
                                .module_inputs
                                .push((mod_index[conn.to.as_str()], InPort::Body)),
                            other => panic!("STE output wired to {other}"),
                        }
                    }
                    stes.push(info);
                }
                NodeKind::Counter { min, max } => {
                    let start = node.enable == Enable::OnStartAndActivateIn;
                    modules.push(ModuleState::Counter(CounterModule::new(*min, *max, start)));
                    mod_info.push(Self::collect_mod_info(node, &ste_index));
                }
                NodeKind::BitVector { size, lo, hi } => {
                    let start = node.enable == Enable::OnStartAndActivateIn;
                    modules.push(ModuleState::BitVector(BitVectorModule::new(
                        *size, *lo, *hi, start,
                    )));
                    bv_sizes.push(*size);
                    mod_info.push(Self::collect_mod_info(node, &ste_index));
                }
            }
        }
        let n = stes.len();
        let mut sim = HwSimulator {
            stes,
            modules,
            mod_info,
            enabled: vec![false; n],
            active: vec![false; n],
            activity: Activity::default(),
            bv_sizes,
            ste_report_ids,
            mod_report_ids,
            last_ste_reports: Vec::new(),
            last_mod_reports: Vec::new(),
        };
        sim.reset();
        sim
    }

    fn collect_mod_info(node: &recama_mnrl::Node, ste_index: &HashMap<&str, usize>) -> ModInfo {
        let mut info = ModInfo {
            start: node.enable == Enable::OnStartAndActivateIn,
            report: node.report,
            loop_targets: Vec::new(),
            out_targets: Vec::new(),
        };
        for conn in &node.connections {
            match conn.from_port {
                Port::EnFst | Port::EnBody => info.loop_targets.push(ste_index[conn.to.as_str()]),
                Port::EnOut => info.out_targets.push(ste_index[conn.to.as_str()]),
                other => panic!("module output on port {other}"),
            }
        }
        info
    }

    /// Returns to the power-on configuration.
    pub fn reset(&mut self) {
        for (i, ste) in self.stes.iter().enumerate() {
            self.enabled[i] = ste.start;
            self.active[i] = false;
        }
        for (m, info) in self.modules.iter_mut().zip(&self.mod_info) {
            match m {
                ModuleState::Counter(c) => c.reset(info.start),
                ModuleState::BitVector(b) => b.reset(info.start),
            }
        }
        self.activity = Activity::default();
        self.last_ste_reports.clear();
        self.last_mod_reports.clear();
    }

    /// Processes one byte; returns whether any report fired this cycle.
    pub fn step(&mut self, byte: u8) -> bool {
        self.activity.cycles += 1;
        let n = self.stes.len();
        let m = self.modules.len();

        // Phase 1: state matching.
        self.last_ste_reports.clear();
        self.last_mod_reports.clear();
        let mut report = false;
        for i in 0..n {
            let a = self.enabled[i] && self.stes[i].class.contains(byte);
            self.active[i] = a;
            if a {
                self.activity.ste_activations += 1;
                if self.stes[i].report {
                    report = true;
                    self.last_ste_reports.push(i);
                }
            }
        }

        // Phase 2: state transition.
        let mut next_enabled = vec![false; n];
        let mut pre_now = vec![false; m];
        let mut fst_now = vec![false; m];
        let mut lst_now = vec![false; m];
        let mut body_now = vec![false; m];
        for i in 0..n {
            if !self.active[i] {
                continue;
            }
            for &t in &self.stes[i].ste_targets {
                next_enabled[t] = true;
            }
            for &(mi, port) in &self.stes[i].module_inputs {
                match port {
                    InPort::Pre => pre_now[mi] = true,
                    InPort::Fst => fst_now[mi] = true,
                    InPort::Lst => lst_now[mi] = true,
                    InPort::Body => body_now[mi] = true,
                }
            }
        }
        for mi in 0..m {
            let outputs = match &mut self.modules[mi] {
                ModuleState::Counter(c) => c.cycle(pre_now[mi], fst_now[mi], lst_now[mi]),
                ModuleState::BitVector(b) => b.cycle(pre_now[mi], body_now[mi]),
            };
            if outputs.en_loop {
                for &t in &self.mod_info[mi].loop_targets {
                    next_enabled[t] = true;
                }
            }
            if outputs.en_out {
                for &t in &self.mod_info[mi].out_targets {
                    next_enabled[t] = true;
                }
                if self.mod_info[mi].report {
                    report = true;
                    self.last_mod_reports.push(mi);
                }
            }
        }
        self.enabled = next_enabled;
        if report {
            self.activity.reports += 1;
        }
        report
    }

    /// Runs the whole input; returns the 1-based end positions of reports
    /// (the accelerator's report stream). Note that, unlike the software
    /// engines, hardware cannot report "before the first symbol", so an
    /// empty-string match is not represented.
    pub fn match_ends(&mut self, input: &[u8]) -> Vec<usize> {
        self.reset();
        let mut ends = Vec::new();
        for (i, &b) in input.iter().enumerate() {
            if self.step(b) {
                ends.push(i + 1);
            }
        }
        ends
    }

    /// Activity counters for the current run.
    pub(crate) fn activity(&self) -> Activity {
        self.activity
    }

    /// The MNRL report codes (rule ids) that fired in the most recent
    /// cycle, deduplicated and ascending — the accelerator's report
    /// vector for multi-pattern machine images, whose reporting nodes are
    /// stamped with their rule id at merge time.
    fn last_report_ids(&self) -> Vec<u32> {
        let mut out: Vec<u32> = self
            .last_ste_reports
            .iter()
            .filter_map(|&i| self.ste_report_ids[i])
            .chain(
                self.last_mod_reports
                    .iter()
                    .filter_map(|&i| self.mod_report_ids[i]),
            )
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Runs `input` and returns `(rule id, end offset)` report events in
    /// stream order — the per-rule view of the report stream.
    pub fn match_ends_by_rule(&mut self, input: &[u8]) -> Vec<(u32, usize)> {
        self.reset();
        let mut out = Vec::new();
        for (i, &b) in input.iter().enumerate() {
            if self.step(b) {
                out.extend(self.last_report_ids().into_iter().map(|rid| (rid, i + 1)));
            }
        }
        out
    }

    /// Per-module (kind, active cycles, bit width) for the energy model:
    /// counters report width 0; bit vectors their segment size.
    pub(crate) fn module_activity(&self) -> Vec<(bool, u64, u32)> {
        let mut bv_i = 0;
        self.modules
            .iter()
            .map(|m| match m {
                ModuleState::Counter(c) => (true, c.active_cycles(), 0),
                ModuleState::BitVector(b) => {
                    let size = self.bv_sizes[bv_i];
                    bv_i += 1;
                    (false, b.active_cycles(), size.max(b.bits_used()))
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recama_compiler::{compile, merge_rule_networks, CompileOptions};
    use recama_nca::TokenSetEngine;
    use recama_syntax::parse;

    /// The rules `patterns` merged into one machine image, rule `i`'s
    /// reporting nodes stamped `i`.
    fn merged(patterns: &[&str]) -> MnrlNetwork {
        let networks: Vec<MnrlNetwork> = (patterns.iter())
            .map(|p| compile(&parse(p).unwrap().for_stream(), &CompileOptions::default()).network)
            .collect();
        merge_rule_networks(
            "ruleset",
            (networks.iter().enumerate()).map(|(i, net)| (i, i as u32, net)),
        )
    }

    fn check_equivalence(pattern: &str, inputs: &[&[u8]]) {
        let parsed = parse(pattern).unwrap();
        let stream = parsed.for_stream();
        let out = compile(&stream, &CompileOptions::default());
        let mut hw = HwSimulator::new(&out.network);
        let mut sw = TokenSetEngine::new(&out.nca);
        for input in inputs {
            let hw_ends = hw.match_ends(input);
            let sw_ends: Vec<usize> = sw
                .match_ends(input)
                .into_iter()
                .filter(|&e| e > 0)
                .collect();
            assert_eq!(
                hw_ends,
                sw_ends,
                "{pattern} diverges on {:?}",
                String::from_utf8_lossy(input)
            );
        }
    }

    #[test]
    fn counter_module_path_matches_reference() {
        check_equivalence(
            "^a(bc){2,3}d",
            &[b"abcbcd", b"abcd", b"abcbcbcd", b"abcbcbcbcd", b"abcbc"],
        );
    }

    #[test]
    fn bitvector_path_matches_reference() {
        check_equivalence(
            "a{3,5}",
            &[
                b"aaa",
                b"aaaa",
                b"aaaaaa",
                b"xxaaa",
                b"aaxaaa",
                b"aaaaaaaaaa",
            ],
        );
    }

    #[test]
    fn fig7_shape_matches_reference() {
        check_equivalence(
            "^[ab]*a[ab]{2,4}b",
            &[b"aabb", b"ababab", b"babbab", b"aaaabbbb", b"abbbbb", b"bb"],
        );
    }

    #[test]
    fn unfolded_path_matches_reference() {
        use recama_nca::UnfoldPolicy;
        let parsed = parse("a{3,5}").unwrap();
        let out = compile(
            &parsed.for_stream(),
            &CompileOptions {
                unfold: UnfoldPolicy::All,
                ..Default::default()
            },
        );
        let mut hw = HwSimulator::new(&out.network);
        let mut sw = TokenSetEngine::new(&out.nca);
        for input in [&b"aaa"[..], b"aaaaa", b"xaaaax", b"aa"] {
            let sw_ends: Vec<usize> = sw
                .match_ends(input)
                .into_iter()
                .filter(|&e| e > 0)
                .collect();
            assert_eq!(hw.match_ends(input), sw_ends);
        }
    }

    #[test]
    fn unbounded_counter_module() {
        check_equivalence("^x[ab]{3,}y", &[b"xabay", b"xaby", b"xababababy", b"xy"]);
    }

    #[test]
    fn multiple_rules_report_independently() {
        let network = merged(&["^ab{2}c", "xyz"]);
        let mut hw = HwSimulator::new(&network);
        let ends = hw.match_ends(b"abbc..xyz");
        assert_eq!(ends, vec![4, 9]);
    }

    #[test]
    fn report_ids_attribute_rules() {
        let network = merged(&["^ab{2}c", "xyz", "a{10}", "c..x"]);
        let mut hw = HwSimulator::new(&network);
        let by_rule = hw.match_ends_by_rule(b"abbc..xyz");
        // Rule 0 at 4 (counter module report); rule 3 spans the boundary
        // (c..x at 7); rule 1 at 9.
        assert_eq!(by_rule, vec![(0, 4), (3, 7), (1, 9)]);
    }

    #[test]
    fn activity_counters_populate() {
        let parsed = parse("^a{3}b").unwrap();
        let out = compile(&parsed.for_stream(), &CompileOptions::default());
        let mut hw = HwSimulator::new(&out.network);
        hw.match_ends(b"aaab");
        let act = hw.activity();
        assert_eq!(act.cycles, 4);
        assert!(act.ste_activations >= 4);
        assert_eq!(act.reports, 1);
        let mods = hw.module_activity();
        assert_eq!(mods.len(), 1);
        assert!(mods[0].1 > 0, "counter must show activity");
    }
}
