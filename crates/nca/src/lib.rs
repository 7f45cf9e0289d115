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
//! * [`Token`]/[`Prepared`] — fast token stepping shared by the engines and
//!   the static analysis;
//! * two execution engines behind the [`Engine`] trait:
//!   [`TokenSetEngine`] (reference semantics) and [`CompiledEngine`]
//!   (counter registers + bit vectors, the software twin of the augmented
//!   hardware);
//! * [`unfold`](fn@unfold) — the unfolding rewrite with the threshold knob of Fig. 9.
//!
//! ## Example
//!
//! ```
//! use recama_nca::{CompiledEngine, Engine, Nca};
//!
//! let parsed = recama_syntax::parse(".*ab{3,5}c").unwrap();
//! let nca = Nca::from_regex(&parsed.regex);
//! let mut engine = CompiledEngine::conservative(&nca);
//! assert!(engine.matches(b"xxabbbbc"));
//! assert!(!engine.matches(b"xxabbc"));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod bank;
mod compiled;
#[cfg(test)]
mod dfa;
mod engine;
pub mod glushkov;
mod hybrid;
mod multi;
mod nca;
mod token;
mod unfold;

pub use compiled::{CompilePlan, CompiledEngine, StorageMode};
pub use engine::{Engine, TokenSetEngine};
pub use hybrid::{
    HybridCache, HybridEngine, HybridStats, ScanMode, DEFAULT_STATE_BUDGET, LOCKSTEP_LANES,
};
pub use multi::{MultiNca, MultiReport, ShardedMulti};
pub use nca::{ActionOp, CounterId, CounterInfo, GuardAtom, Nca, State, StateId, Transition};
pub use token::{Prepared, Token};
pub use unfold::{unfold, unfold_one, unfolded_leaves, UnfoldPolicy};
