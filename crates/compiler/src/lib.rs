//! # recama-compiler
//!
//! The regex-to-hardware compiler of *Software-Hardware Codesign for
//! Efficient In-Memory Regular Pattern Matching* (PLDI 2022), §4.2: it
//! parses/simplifies a pattern, runs the counter-ambiguity analysis, picks
//! a hardware realization for every counting occurrence — **counter
//! module** (counter-unambiguous), **bit-vector module** (counter-ambiguous
//! `σ{m,n}`), or **partial unfolding** (everything else) — and emits an
//! MNRL network that `recama-hw` can place and simulate.
//!
//! ## Example
//!
//! ```
//! use recama_compiler::{compile, CompileOptions, ModuleKind};
//!
//! let parsed = recama_syntax::parse(r"^foo[^\n]{100}bar").unwrap();
//! let out = compile(&parsed.for_stream(), &CompileOptions::default());
//! assert_eq!(out.modules, vec![ModuleKind::Counter]);
//! println!("{}", out.network.to_json());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod codegen;
mod pipeline;

pub use codegen::emit;
pub use pipeline::{
    compile, merge_rule_networks, CompileOptions, CompileOutput, CompileReport, ModuleKind,
    BITVECTOR_MAX_BOUND, COUNTER_MAX_BOUND,
};
pub use recama_analysis::DecidedBy;
