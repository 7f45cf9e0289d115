//! The regex-to-hardware compilation pipeline (§4.2 of the paper):
//!
//! 1. rewrite/simplify (upper bounds < 2 unfolded, classes merged);
//! 2. unfold counting occurrences up to the configured threshold (the knob
//!    swept in Fig. 9/Fig. 10);
//! 3. run the counter-ambiguity analysis — the paper's hybrid strategy
//!    ([`recama_analysis::classify`]): a relaxed proof per occurrence, the
//!    exact product exploration only for what those leave open;
//! 4. pick a module per surviving occurrence: **counter** for
//!    (block-)unambiguous occurrences, **bit vector** for ambiguous
//!    single-class bounded `σ{m,n}`, **partial unfolding** for everything
//!    else — then iterate, because unfolding exposes fresh occurrences;
//! 5. emit the MNRL network.

use crate::codegen;
use recama_analysis::{classify, AnalysisStats, Classification, DecidedBy, NcaAnalysis};
use recama_mnrl::MnrlNetwork;
use recama_nca::{unfold, unfold_one, Nca, UnfoldPolicy};
use recama_syntax::{normalize_for_nca, Regex};

/// Largest value the 17-bit hardware counter module can hold (Table 2).
pub const COUNTER_MAX_BOUND: u32 = (1 << 17) - 1;

/// Largest repetition bound the 2000-bit bit-vector module supports
/// (Table 2).
pub const BITVECTOR_MAX_BOUND: u32 = 2000;

/// Compiler configuration: what a caller chooses. The module sizes are
/// the hardware's (Table 2), [`COUNTER_MAX_BOUND`] and
/// [`BITVECTOR_MAX_BOUND`], not options.
#[derive(Debug, Clone, Copy)]
pub struct CompileOptions {
    /// Which counting occurrences to unfold eagerly (the Fig. 9 threshold).
    /// `None` (the default) unfolds nothing beyond the `< 2` rewrites.
    pub unfold: UnfoldPolicy,
    /// Token-pair budget of *each* product exploration the analysis runs:
    /// per analyze→decide→unfold iteration, one relaxed pass per counting
    /// occurrence (none for a sole occurrence) and at most one exact pass,
    /// so a rule with K occurrences creates at most `(K + 1) ×
    /// analysis_budget` pairs per iteration. A relaxed pass the budget
    /// cuts is merely inconclusive; a cut exact pass proves nothing, and
    /// the rule then gets no counter module (bit vectors or unfolding
    /// instead). A rule whose occurrences are all proven by their relaxed
    /// passes never runs the exact pass and cannot exhaust it.
    pub analysis_budget: u64,
}

impl Default for CompileOptions {
    fn default() -> Self {
        CompileOptions {
            unfold: UnfoldPolicy::None,
            analysis_budget: 2_000_000,
        }
    }
}

/// Hardware realization chosen for one surviving counting occurrence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModuleKind {
    /// Counter module (Fig. 6): one `O(log n)`-bit register.
    Counter,
    /// Bit-vector module (Fig. 7): `n` bits with set-first/shift/disjunct.
    BitVector,
}

/// Result of compiling one regex.
#[derive(Debug)]
pub struct CompileOutput {
    /// The emitted network.
    pub network: MnrlNetwork,
    /// The final normalized regex the network implements.
    pub normalized: Regex,
    /// The final NCA (reference model for simulation cross-checks).
    pub nca: Nca,
    /// Module selection per final counter (indexed like `nca.counters()`).
    pub modules: Vec<ModuleKind>,
    /// Analysis result of the final automaton.
    pub analysis: NcaAnalysis,
    /// Pipeline telemetry.
    pub report: CompileReport,
}

/// Pipeline telemetry.
#[derive(Debug, Clone, Default)]
pub struct CompileReport {
    /// Number of analyze→decide→unfold iterations.
    pub iterations: u32,
    /// Counting occurrences removed by (threshold or fallback) unfolding.
    pub unfolded_occurrences: u32,
    /// Aggregated analysis statistics across iterations.
    pub analysis_stats: AnalysisStats,
    /// What decided each counting occurrence of the final regex (indexed
    /// like [`CompileOutput::modules`]): its relaxed proof, the exact
    /// exploration, or neither because the budget cut that exploration.
    pub decided_by: Vec<DecidedBy>,
    /// Relaxed single-occurrence explorations run, across iterations.
    pub relaxed_explorations: u64,
    /// Exact whole-automaton explorations run, across iterations.
    pub exact_explorations: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Decision {
    Counter,
    BitVector,
    Unfold,
}

/// Compiles a regex to an MNRL network.
///
/// The caller chooses the matching discipline first (e.g.
/// [`recama_syntax::Parsed::for_stream`] for the streaming `Σ*r` form the
/// accelerators execute).
///
/// There is one analysis path, [`recama_analysis::classify`]: every
/// counting occurrence is first tried with a relaxed, linear-size proof
/// of block-unambiguity, and the exact (quadratic) exploration runs only
/// when some occurrence is left open, stopping once those are flagged. A
/// counter-free automaton is not explored at all.
/// [`CompileOptions::analysis_budget`] bounds each exploration;
/// [`CompileReport`] says what decided each occurrence.
///
/// # Examples
///
/// ```
/// use recama_compiler::{compile, CompileOptions, ModuleKind};
/// let parsed = recama_syntax::parse("a(bc){10,20}d").unwrap();
/// let out = compile(&parsed.for_stream(), &CompileOptions::default());
/// // Counter-unambiguous: implemented with one counter module.
/// assert_eq!(out.modules, vec![ModuleKind::Counter]);
/// assert!(out.network.validate().is_empty());
/// ```
pub fn compile(regex: &Regex, options: &CompileOptions) -> CompileOutput {
    let mut report = CompileReport::default();
    // Step 2: eager threshold unfolding.
    let pre_unfold_occs = regex.repeats().len() as u32;
    let mut current = unfold(regex, options.unfold);
    report.unfolded_occurrences += pre_unfold_occs - current.repeats().len() as u32;

    let max_iterations = 12;
    loop {
        report.iterations += 1;
        let normalized = normalize_for_nca(&current);
        let nca = recama_analysis::glushkov_build(&normalized);
        let Classification {
            analysis,
            decided_by,
            relaxed_explorations,
            exact_explorations,
        } = classify(&normalized, &nca, options.analysis_budget);
        report.analysis_stats += analysis.stats;
        report.relaxed_explorations += relaxed_explorations;
        report.exact_explorations += exact_explorations;

        let infos = normalized.repeats();
        debug_assert_eq!(infos.len(), nca.counters().len());
        let mut decisions: Vec<Decision> = infos
            .iter()
            .enumerate()
            .map(|(k, info)| {
                let bound = info.max.unwrap_or(info.min);
                let block_unambiguous = analysis.complete && !analysis.block_ambiguous_counters[k];
                if block_unambiguous && bound <= COUNTER_MAX_BOUND {
                    Decision::Counter
                } else if info.single_class_body.is_some()
                    && info.max.is_some()
                    && bound <= BITVECTOR_MAX_BOUND
                {
                    Decision::BitVector
                } else {
                    Decision::Unfold
                }
            })
            .collect();
        resolve_nesting(&infos, &mut decisions);

        let unfolds = decisions.iter().filter(|&&d| d == Decision::Unfold).count();
        if unfolds == 0 {
            let modules = decisions
                .iter()
                .map(|d| match d {
                    Decision::Counter => ModuleKind::Counter,
                    Decision::BitVector => ModuleKind::BitVector,
                    Decision::Unfold => unreachable!("unfold set is empty"),
                })
                .collect::<Vec<_>>();
            let network = codegen::emit(&nca, &modules, "regex");
            report.decided_by = decided_by;
            return CompileOutput {
                network,
                normalized,
                nca,
                modules,
                analysis,
                report,
            };
        }
        report.unfolded_occurrences += unfolds as u32;
        current = normalized.rewrite_repeats(&mut |id, body, min, max| {
            if decisions[id.0] == Decision::Unfold {
                unfold_one(body, min, max)
            } else {
                Regex::repeat(body, min, max)
            }
        });
        if report.iterations >= max_iterations {
            // Safety valve: unfold everything that is left.
            current = unfold(&current, UnfoldPolicy::All);
        }
    }
}

/// Resolves nested module conflicts: a counter/bit-vector module cannot
/// contain another module in its body (ports connect STEs), so for every
/// module-decided ancestor/descendant pair the lighter one (smaller
/// unfolding cost `bound × body_leaves`) is demoted to unfolding.
fn resolve_nesting(infos: &[recama_syntax::RepeatInfo], decisions: &mut [Decision]) {
    let weight = |i: usize| -> u64 {
        let info = &infos[i];
        u64::from(info.max.unwrap_or(info.min)) * info.body_leaves.max(1) as u64
    };
    let mut stack: Vec<usize> = Vec::new();
    for i in 0..infos.len() {
        while let Some(&top) = stack.last() {
            if infos[top].depth >= infos[i].depth {
                stack.pop();
            } else {
                break;
            }
        }
        if decisions[i] != Decision::Unfold {
            if let Some(&anc) = stack
                .iter()
                .rev()
                .find(|&&a| decisions[a] != Decision::Unfold)
            {
                if weight(i) > weight(anc) {
                    decisions[anc] = Decision::Unfold;
                } else {
                    decisions[i] = Decision::Unfold;
                }
            }
        }
        stack.push(i);
    }
}

/// Merges rule networks into one machine image: each `(prefix_id,
/// report_id, network)` entry contributes its nodes under the id prefix
/// `r{prefix_id}_` with reporting nodes stamped `report_id`, so simulator
/// reports attribute to rules without node-id parsing. The `recama`
/// engine builder — the one ruleset compile — merges each shard's
/// machine image with it, passing the global rule index for both roles.
///
/// # Examples
///
/// ```
/// use recama_compiler::{compile, merge_rule_networks, CompileOptions};
/// let outputs: Vec<_> = ["^a{30}", "^[xy]{5}z"]
///     .iter()
///     .map(|p| compile(&recama_syntax::parse(p).unwrap().for_stream(), &CompileOptions::default()))
///     .collect();
/// let merged = merge_rule_networks(
///     "ruleset",
///     outputs.iter().enumerate().map(|(i, out)| (i, i as u32, &out.network)),
/// );
/// assert!(merged.validate().is_empty());
/// assert_eq!(merged.report_ids(), vec![0, 1]);
/// ```
pub fn merge_rule_networks<'a>(
    name: &str,
    parts: impl IntoIterator<Item = (usize, u32, &'a MnrlNetwork)>,
) -> MnrlNetwork {
    let mut network = MnrlNetwork::new(name);
    for (prefix_id, report_id, part) in parts {
        network.merge_as_rule(part, &format!("r{prefix_id}_"), report_id);
    }
    network
}

#[cfg(test)]
mod tests {
    use super::*;
    use recama_syntax::parse;

    fn stream(p: &str) -> Regex {
        parse(p).unwrap().for_stream()
    }

    #[test]
    fn unambiguous_gets_counter() {
        let out = compile(&stream("^a(bc){5,9}d"), &CompileOptions::default());
        assert_eq!(out.modules, vec![ModuleKind::Counter]);
        let (states, counters, bvs) = out.network.counts_by_type();
        assert_eq!(counters, 1);
        assert_eq!(bvs, 0);
        // a, b, c, d STEs only — no unfolding.
        assert_eq!(states, 4);
        assert!(
            out.network.validate().is_empty(),
            "{:?}",
            out.network.validate()
        );
    }

    #[test]
    fn ambiguous_single_class_gets_bitvector() {
        let out = compile(&stream("a{50}"), &CompileOptions::default());
        // Streaming form Σ*a{50} is ambiguous with a single-class body.
        assert_eq!(out.modules, vec![ModuleKind::BitVector]);
        let (states, counters, bvs) = out.network.counts_by_type();
        assert_eq!((counters, bvs), (0, 1));
        // Σ self-loop STE + one a STE.
        assert_eq!(states, 2);
        assert!(
            out.network.validate().is_empty(),
            "{:?}",
            out.network.validate()
        );
    }

    #[test]
    fn ambiguous_multi_class_body_unfolds() {
        // Σ*(ab){3}: ambiguous, body not a single class → unfolded.
        let out = compile(&stream("(ab){3}"), &CompileOptions::default());
        assert!(out.modules.is_empty());
        let (states, counters, bvs) = out.network.counts_by_type();
        assert_eq!((counters, bvs), (0, 0));
        assert_eq!(states, 1 + 6); // Σ + ababab
        assert!(out.report.unfolded_occurrences >= 1);
    }

    #[test]
    fn threshold_unfolds_small_bounds() {
        let out = compile(
            &stream("^x[ab]{3}y[cd]{100}z"),
            &CompileOptions {
                unfold: UnfoldPolicy::UpTo(10),
                ..Default::default()
            },
        );
        // [ab]{3} unfolded by threshold; [cd]{100} counter (anchored, no Σ*).
        assert_eq!(out.modules, vec![ModuleKind::Counter]);
        let (states, _, _) = out.network.counts_by_type();
        // x + three [ab] copies + y + one [cd] body STE + z.
        assert_eq!(states, 7);
    }

    #[test]
    fn unfold_all_produces_pure_nfa() {
        let out = compile(
            &stream("a{20}b{4,7}"),
            &CompileOptions {
                unfold: UnfoldPolicy::All,
                ..Default::default()
            },
        );
        assert!(out.modules.is_empty());
        assert!(out.nca.counters().is_empty());
        let (states, counters, bvs) = out.network.counts_by_type();
        assert_eq!((counters, bvs), (0, 0));
        assert_eq!(states, 1 + 20 + 7);
    }

    #[test]
    fn nested_counting_resolves_to_inner_module() {
        // ^((ab){50}c){2}: outer weight 2×2=4... inner weight 50×2=100 —
        // inner kept as module, outer unfolded (2 copies).
        let out = compile(&stream("^((ab){50}c){2}"), &CompileOptions::default());
        assert!(!out.modules.is_empty());
        assert!(out.report.unfolded_occurrences >= 1);
        // No state carries two counters in the final automaton.
        for s in out.nca.states() {
            assert!(s.counters.len() <= 1, "multi-counter state survived");
        }
        assert!(out.network.validate().is_empty());
    }

    #[test]
    fn fig9_monotonicity_nodes_grow_with_threshold() {
        let patterns = ["^a[bc]{200}d", "^e{64}f"];
        let mut last = 0usize;
        for k in [0u32, 10, 100, 1000] {
            let policy = if k == 0 {
                UnfoldPolicy::None
            } else {
                UnfoldPolicy::UpTo(k)
            };
            let options = CompileOptions {
                unfold: policy,
                ..Default::default()
            };
            let outputs: Vec<CompileOutput> = patterns
                .iter()
                .map(|p| compile(&stream(p), &options))
                .collect();
            let merged = merge_rule_networks(
                "ruleset",
                (outputs.iter().enumerate()).map(|(i, out)| (i, i as u32, &out.network)),
            );
            let n = merged.node_count();
            assert!(
                n >= last,
                "node count must not shrink: {last} -> {n} at k={k}"
            );
            last = n;
        }
        assert!(last >= 264, "full unfolding must dominate: {last}");
    }
}
