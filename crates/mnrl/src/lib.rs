//! # recama-mnrl
//!
//! An MNRL-style automata interchange format, extended per §4.2 of
//! *Software-Hardware Codesign for Efficient In-Memory Regular Pattern
//! Matching* (PLDI 2022) with `counter` nodes (for counter-unambiguous
//! bounded repetition, Fig. 6) and `bitVector` nodes (for counter-ambiguous
//! `σ{m,n}`, Fig. 7).
//!
//! The compiler (`recama-compiler`) emits these networks; the hardware
//! mapper/simulator (`recama-hw`) consumes them; [`MnrlNetwork::to_json`] /
//! [`MnrlNetwork::from_json`] read and write the JSON encoding.
//!
//! ## Example
//!
//! ```
//! use recama_mnrl::{Enable, MnrlNetwork, Node, NodeKind};
//! use recama_syntax::ByteClass;
//!
//! let mut net = MnrlNetwork::new("hello");
//! net.add_node(Node {
//!     id: "s0".into(),
//!     kind: NodeKind::State { symbol_set: ByteClass::digit() },
//!     enable: Enable::OnStartAndActivateIn,
//!     report: true,
//!     report_id: None,
//!     connections: vec![],
//! });
//! let json = net.to_json();
//! assert_eq!(MnrlNetwork::from_json(&json).unwrap(), net);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod json;
pub mod jsonval;
mod network;

pub use json::MnrlError;
pub use network::{Connection, Enable, MnrlNetwork, Node, NodeKind, Port};
