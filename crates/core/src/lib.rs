//! # recama
//!
//! **RE**gexes with **C**ounters on an in-memory **A**utomata **MA**chine —
//! a full-system Rust reproduction of *Software-Hardware Codesign for
//! Efficient In-Memory Regular Pattern Matching* (PLDI 2022).
//!
//! The paper's pipeline, end to end:
//!
//! 1. parse a POSIX/PCRE-style pattern with counting (`r{m,n}`)
//!    — [`syntax`];
//! 2. build a nondeterministic counter automaton via the Glushkov
//!    construction with counters — [`nca`];
//! 3. statically analyze **counter-(un)ambiguity** (exact, approximate,
//!    hybrid) — [`analysis`];
//! 4. compile to an extended-MNRL network, choosing **counter modules**
//!    for unambiguous occurrences, **bit-vector modules** for ambiguous
//!    `σ{m,n}`, and partial unfolding otherwise — [`compiler`] / [`mnrl`];
//! 5. place and simulate on the augmented CAMA in-memory accelerator and
//!    price the run with the TSMC 28 nm SPICE scalars — [`hw`];
//! 6. reproduce the paper's ruleset statistics with synthetic workloads
//!    — [`workloads`].
//!
//! ## Quick start
//!
//! A compiled rule is an [`Engine`] with one rule:
//!
//! ```
//! use recama::Engine;
//!
//! let engine = Engine::new([r"ab{10,20}c"]).unwrap();
//! assert!(!engine.scan(b"....abbbbbbbbbbbc...").is_empty());
//! let ends: Vec<usize> = engine.scan(b"xxabbbbbbbbbbc").iter().map(|m| m.end).collect();
//! assert_eq!(ends, vec![14]);
//! // One counter module instead of 20 unfolded STEs:
//! assert_eq!(engine.network(0).counts_by_type().1, 1);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use recama_analysis as analysis;
pub use recama_compiler as compiler;
pub use recama_hw as hw;
pub use recama_mnrl as mnrl;
pub use recama_nca as nca;
pub use recama_syntax as syntax;
pub use recama_workloads as workloads;

mod engine;
mod flow;
mod prefilter;
pub mod sched;
mod service;
mod set;

pub use engine::{CompileError, Engine, EngineBuilder, ServeConfig, SkippedRule};
pub use prefilter::{PrefilterMetrics, PrefilterMode};
pub use recama_nca::{HybridStats, DEFAULT_STATE_BUDGET};
pub use sched::FlowScheduler;
#[cfg(feature = "fault-inject")]
pub use service::FaultPlan;
pub use service::{
    FaultMetrics, FlowId, RuleMatch, ServeError, ServiceEvent, ServiceHandle, ServiceMetrics,
};
pub use set::{ScanMode, SetMatch, SetSpan, ShardedPatternSet, ShardedSetStream};

#[cfg(test)]
mod tests {
    use super::*;

    /// The ends `engine` reports over `haystack`.
    fn ends(engine: &Engine, haystack: &[u8]) -> Vec<usize> {
        engine.scan(haystack).iter().map(|m| m.end).collect()
    }

    #[test]
    fn pattern_end_to_end() {
        let p = Engine::new(["a{3,5}b"]).unwrap();
        assert!(!ends(&p, b"xxaaaabyy").is_empty());
        assert!(ends(&p, b"aab").is_empty());
        assert_eq!(ends(&p, b"aaab.aaaaab"), vec![4, 11]);
    }

    #[test]
    fn anchored_patterns_respect_anchor() {
        let p = Engine::new(["^ab{2}"]).unwrap();
        assert!(!ends(&p, b"abb...").is_empty());
        assert!(ends(&p, b"xabb").is_empty());
    }

    #[test]
    fn software_engine_matches_hardware() {
        let p = Engine::new(["x[ab]{2,6}y"]).unwrap();
        let input = b"zzxabababyzz_xay_xaby";
        let mut hw = p.hardware(0);
        assert_eq!(ends(&p, input), hw.match_ends(input));
    }

    #[test]
    fn unsupported_patterns_error() {
        let err = Engine::new([r"(a)\1"]).unwrap_err();
        assert!(matches!(
            err.error.kind,
            recama_syntax::ErrorKind::Unsupported(_)
        ));
    }

    #[test]
    fn module_choice_is_visible() {
        use recama_compiler::ModuleKind;
        let unambiguous = Engine::new(["^head[0-9]{500}tail"]).unwrap();
        assert_eq!(unambiguous.outputs()[0].modules, vec![ModuleKind::Counter]);
        let ambiguous = Engine::new(["k.{500}"]).unwrap();
        assert_eq!(ambiguous.outputs()[0].modules, vec![ModuleKind::BitVector]);
    }
}

#[cfg(test)]
mod span_tests {
    use super::*;
    use crate::engine::earliest_start;

    #[test]
    fn spans_locate_starts() {
        let p = Engine::new(["ab{2,3}c"]).unwrap();
        let spans = p.scan_spans(b"zzabbc..abbbc");
        assert_eq!(
            spans,
            vec![
                SetSpan {
                    pattern: 0,
                    start: 2,
                    end: 6
                },
                SetSpan {
                    pattern: 0,
                    start: 8,
                    end: 13
                }
            ]
        );
    }

    #[test]
    fn spans_prefer_earliest_start() {
        // aa{1,3}: the longest extent backward from the end is taken.
        let p = Engine::new(["a{2,4}"]).unwrap();
        let spans = p.scan_spans(b"xaaax");
        assert_eq!(spans.len(), 2); // ends at 3 (aa) and 4 (aaa)
        assert_eq!((spans[0].start, spans[0].end), (1, 3));
        assert_eq!((spans[1].start, spans[1].end), (1, 4));
    }

    /// Locating a span costs the match, not the haystack before it: the
    /// backward walk ends one byte after the reversed automaton dies.
    #[test]
    fn earliest_start_stops_when_the_reversed_automaton_dies() {
        let p = Engine::new(["ab{2,3}c"]).unwrap();
        let mut hay = vec![b'z'; 64 << 10];
        hay.extend_from_slice(b"abbbc");
        let mut engine = recama_nca::TokenSetEngine::new(p.reversed_nca(0));
        let (start, stepped) = earliest_start(&mut engine, &hay, hay.len());
        assert_eq!(start, hay.len() - 5);
        assert!(stepped <= 5 + 1, "stepped {stepped} reversed bytes");
    }

    #[test]
    fn span_contents_rematch() {
        let source = "k[ab]{2,5}z";
        let regex = recama_syntax::parse(source).unwrap().regex;
        let hay = b"..kabz..kababz..";
        for span in Engine::new([source]).unwrap().scan_spans(hay) {
            let slice = &hay[span.start..span.end];
            assert!(
                recama_syntax::naive::matches(&regex, slice),
                "span {:?} does not rematch: {:?}",
                span,
                String::from_utf8_lossy(slice)
            );
        }
    }
}
