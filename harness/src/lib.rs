//! # recama-harness
//!
//! The repository's benchmark. One binary, `harness`, drives the real
//! serving path of [`recama`] — `Engine::builder()…build()` →
//! `Engine::serve_with` → `try_open_flow` / `push_checked` / `barrier` /
//! `poll_checked` / `close` / `finishing` — with seeded
//! `recama::workloads` rulesets and traffic, checks what comes out
//! against the paper's hardware model, and prints every metric by name
//! and unit as one JSON object.
//!
//! * [`spec`] — the four workloads and their seeded inputs;
//! * [`serve`] — the closed-loop driver (one pass of a workload);
//! * [`oracle`] — `HwSimulator` as the independent oracle, and the
//!   simulated energy and area;
//! * [`layers`] — compile phases, single engines and the batch
//!   scheduler, each called from outside through its public functions;
//! * [`trace`] — spans around those calls, self times, Chrome trace JSON;
//! * [`run`] — the untraced run (end-to-end metrics) and the traced run
//!   (per-layer metrics);
//! * [`metrics`] / [`report`] — the metric tables, `BENCHMARK.json`, the
//!   result line, and `harness compare`;
//! * [`stats`] — medians, quartiles, nearest-rank percentiles.
//!
//! The package is deliberately not a member of the repository's
//! workspace: it has its own manifest and depends on `recama` by path,
//! so it measures the library without being part of it.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod layers;
pub mod metrics;
pub mod oracle;
pub mod report;
pub mod run;
pub mod serve;
pub mod spec;
pub mod stats;
pub mod trace;
