//! # recama-hw
//!
//! The augmented CAMA in-memory automata accelerator of *Software-Hardware
//! Codesign for Efficient In-Memory Regular Pattern Matching* (PLDI 2022),
//! §4 — as a placement + cycle-level simulation + cost model over the
//! extended MNRL networks emitted by `recama-compiler`:
//!
//! * [`params`] — the Table 2 SPICE scalars (TSMC 28 nm) and the clock;
//! * [`place()`] — the mapper over the Fig. 5 bank/array/PE hierarchy
//!   (module port groups stay within one PE; bit-vector segments share
//!   physical 2000-bit modules; character classes cost their two-nibble
//!   CAM product columns);
//! * [`ShardPlan`] — bank-aware ruleset sharding: order-preserving
//!   partition of compiled rules into shards that each fit one bank's
//!   capacity;
//! * [`HwSimulator`] — the two-phase cycle simulator (the modified VASim),
//!   with functional models of the counter module (Fig. 6) and the
//!   bit-vector module (Fig. 7);
//! * [`energy_report`] / [`area_report`] — energy/area reports, with the
//!   waste accounting of Fig. 10 and the pro-rata accounting of Fig. 8.
//!
//! ## Example
//!
//! ```
//! use recama_compiler::{compile, CompileOptions};
//! use recama_hw::{run, AreaGranularity};
//!
//! let parsed = recama_syntax::parse("ab{10,20}c").unwrap();
//! let out = compile(&parsed.for_stream(), &CompileOptions::default());
//! let report = run(&out.network, b"xxabbbbbbbbbbbc", AreaGranularity::WholeModule);
//! assert_eq!(report.match_ends, vec![15]);
//! println!("{:.3} nJ/B, {:.4} mm2", report.energy.nj_per_byte(), report.area.total_mm2());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod cam;
mod cost;
mod modules;
pub mod params;
mod place;
mod shard;
mod sim;

pub use cost::{area_report, energy_report, run, AreaGranularity, AreaReport, EnergyReport, HwRun};
pub use place::{place, EdgeStats, Loc, Placement};
pub use shard::{RuleCost, ShardBudget, ShardPlan, ShardPolicy};
pub use sim::HwSimulator;
