//! # recama-syntax
//!
//! Regular expressions with counting (bounded repetition `r{m,n}`) over the
//! byte alphabet — the front end of the `recama` reproduction of
//! *Software-Hardware Codesign for Efficient In-Memory Regular Pattern
//! Matching* (PLDI 2022).
//!
//! The crate provides:
//!
//! * [`ByteClass`] — 256-bit predicates σ ⊆ Σ with the boolean algebra the
//!   static analysis and the CAM encoder need;
//! * [`Regex`] — the counting-regex AST of §2 of the paper;
//! * [`parse`] — a POSIX/PCRE-style parser that classifies
//!   out-of-fragment constructs (backreferences, lookaround, …) as
//!   [`ErrorKind::Unsupported`], which is what Table 1's "# supported"
//!   column counts;
//! * [`simplify`](fn@simplify) — the compiler front-end rewrites (§4.2 step 1);
//! * [`normalize_for_nca`] — establishes the Glushkov-with-counters
//!   precondition (non-nullable repetition bodies);
//! * [`naive`] — a slow membership oracle used as ground truth in tests.
//!
//! ## Example
//!
//! ```
//! # fn main() -> Result<(), recama_syntax::ParseError> {
//! use recama_syntax::{parse, simplify};
//!
//! let parsed = parse(r".*[ab][^a]{8}")?;
//! let regex = simplify(&parsed.regex);
//! assert!(regex.has_counting());
//! assert_eq!(regex.mu(), 8); // μ(r): max repetition upper bound
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod alphabet;
mod ast;
mod class;
pub mod naive;
mod parser;
mod simplify;

pub use alphabet::{ByteAlphabet, ByteClassSet};
pub use ast::{Regex, RepeatId, RepeatInfo};
pub use class::{ByteClass, Iter as ByteClassIter};
pub use parser::{parse, ErrorKind, ParseError, Parsed, Unsupported};
pub use simplify::{normalize_for_nca, simplify};
