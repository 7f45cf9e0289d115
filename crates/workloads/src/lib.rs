//! # recama-workloads
//!
//! Seeded synthetic stand-ins for the paper's five evaluation rulesets
//! (Snort, Suricata, Protomata, SpamAssassin, ClamAV) and their input
//! streams. Every experiment of the paper consumes only the rulesets'
//! *distributional* properties — pattern counts, counting fraction,
//! ambiguity fraction, bound distribution (arXiv 2209.05686, Table 1 and
//! Fig. 9) — which the generators reproduce by construction.
//!
//! ## Example
//!
//! ```
//! use recama_workloads::{generate, traffic, BenchmarkId};
//!
//! let ruleset = generate(BenchmarkId::Snort, 0.01, 42); // 1% scale
//! let input = traffic(&ruleset, 4096, 0.001, 42);
//! assert_eq!(input.len(), 4096);
//! assert_eq!(ruleset.patterns.len(), 58); // 1% of Snort's 5839 rules
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod generator;
mod profiles;
mod sample;

pub use generator::{generate, traffic, PatternClass, Ruleset};
pub use profiles::{paper_table1, profile, BenchmarkId, Profile, Table1Row};
