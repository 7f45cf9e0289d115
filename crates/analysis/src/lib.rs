//! # recama-analysis
//!
//! Static analysis for **counter-(un)ambiguity** of regexes with counting
//! and their counter automata — §3 of *Software-Hardware Codesign for
//! Efficient In-Memory Regular Pattern Matching* (PLDI 2022).
//!
//! A state q of an NCA is *counter-unambiguous* when at most one token can
//! sit on it after reading any input (`degree(q) ≤ 1`, Definition 3.1), in
//! which case a repetition `{m,n}` can be implemented with `O(log n)` bits
//! (a counter register / counter module) instead of the `O(n)` bits of a
//! bit vector or the `Θ(n)` STEs of unfolding.
//!
//! The crate provides the three analyses of the paper plus the hardness
//! construction:
//!
//! * [`analyze_nca`] — exact product-system exploration with per-state and
//!   per-counter verdicts, witness reconstruction, and pair-count stats;
//! * [`approx_occurrence`] — the `{m,n}` → `*`
//!   over-approximation (§3.2);
//! * [`check`] / [`check_occurrence`] — the checker front end with the
//!   Exact / Approximate / Hybrid / HybridWitness variants of Fig. 2;
//! * [`classify`](fn@classify) — the hybrid strategy producing the per-state,
//!   per-counter, block-level verdicts the compiler selects modules on:
//!   relaxed per-occurrence proofs first, the exact exploration only for
//!   what they leave open. It is the only analysis `recama-compiler` runs;
//! * [`hardness`] — the subset-sum reduction of Lemma 3.3.
//!
//! ## Example
//!
//! ```
//! use recama_analysis::{check, CheckConfig, Method, Verdict};
//!
//! // The Fig. 7 shape: counting [ab] while 'a' can start new attempts.
//! let regex = recama_syntax::parse(r".*a[ab]{10}b").unwrap().regex;
//! let result = check(&regex, Method::Hybrid, &CheckConfig::default());
//! assert_eq!(result.ambiguous, Some(true));
//!
//! // Counting runs delimited by a disjoint predicate: unambiguous.
//! let regex = recama_syntax::parse(r".*\d[a-z]{10}").unwrap().regex;
//! let result = check(&regex, Method::Hybrid, &CheckConfig::default());
//! assert_eq!(result.ambiguous, Some(false));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod approx;
mod checker;
mod classify;
mod degree;
mod exact;
pub mod hardness;
mod stats;

pub use approx::approx_occurrence;
pub use checker::{
    check, check_occurrence, CheckConfig, Method, OccurrenceCheck, OccurrenceVerdict, RegexCheck,
};
pub use classify::{classify, Classification, DecidedBy};
pub use degree::degree;
pub use exact::{analyze_nca, ExactConfig, NcaAnalysis, StopPolicy};
pub use stats::{AnalysisStats, Verdict};

/// Builds the NCA for an already-normalized regex (thin wrapper used across
/// the crate so every call site constructs automata the same way).
pub fn glushkov_build(normalized: &recama_syntax::Regex) -> recama_nca::Nca {
    recama_nca::glushkov::build(normalized)
}
