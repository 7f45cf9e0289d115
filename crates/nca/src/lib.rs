//! # recama-nca
//!
//! Nondeterministic counter automata (NCAs) with bounded counters — the
//! execution model behind the `recama` reproduction of *Software-Hardware
//! Codesign for Efficient In-Memory Regular Pattern Matching* (PLDI 2022).
//!
//! The crate provides:
//!
//! * [`Nca`] — homogeneous NCAs per Definition 2.1 of the paper, with
//!   per-state counter sets, guards, and actions;
//! * [`glushkov`] — the Glushkov construction with counters (one counter
//!   per counting occurrence; states carry enclosing counters, Fig. 1);
//! * [`Token`]/[`Prepared`] — fast token stepping shared by the reference
//!   engine and the static analysis;
//! * [`CompilePlan`] — which of the paper's two modules each counted
//!   state gets ([`StorageMode`]): a counter (one register) where the
//!   analysis proves it single-valued, a bit vector (a counting set)
//!   where it has the `σ{m,n}` shape; a rule needs compiling first for
//!   anything else;
//! * two execution engines: [`TokenSetEngine`], the reference semantics
//!   of Definition 2.1 and the oracle of the tests, and [`HybridEngine`]
//!   over a [`MultiNca`] — one or many automata merged, their counted
//!   states a bank of counter modules (the software twin of the augmented
//!   hardware), their pure states lazily determinized rows or, from
//!   [`MultiNca::engine`], the subset itself;
//! * [`unfold`](fn@unfold) — the unfolding rewrite with the threshold knob of Fig. 9.
//!
//! ## Example
//!
//! ```
//! use recama_nca::{CompilePlan, MultiNca, Nca, TokenSetEngine};
//!
//! let parsed = recama_syntax::parse(".*ab{3,5}c").unwrap();
//! let nca = Nca::from_regex(&parsed.regex);
//! let mut reference = TokenSetEngine::new(&nca);
//! assert!(reference.matches(b"xxabbbbc"));
//! assert!(!reference.matches(b"xxabbc"));
//! // The same automaton on the counter bank: a report at every end.
//! // `b{3,5}` is a counting set: `|_| false` claims no state single-valued.
//! let multi = MultiNca::merge(&[(&nca, CompilePlan::optimized(&nca, |_| false))]);
//! let ends: Vec<u64> = multi.engine().match_reports(b"xxabbbbc").iter().map(|r| r.end).collect();
//! assert_eq!(ends, [8]);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod bank;
#[cfg(test)]
mod compiled;
#[cfg(test)]
mod dfa;
mod engine;
pub mod glushkov;
mod hybrid;
mod multi;
mod nca;
mod plan;
mod token;
mod unfold;

pub use engine::TokenSetEngine;
pub use hybrid::{HybridCache, HybridEngine, HybridStats, DEFAULT_STATE_BUDGET, LOCKSTEP_LANES};
pub use multi::{MultiNca, MultiReport, ShardedMulti};
pub use nca::{ActionOp, CounterId, CounterInfo, GuardAtom, Nca, State, StateId, Transition};
pub use plan::{CompilePlan, StorageMode};
pub use token::{Prepared, Token};
pub use unfold::{unfold, unfold_one, unfolded_leaves, UnfoldPolicy};
