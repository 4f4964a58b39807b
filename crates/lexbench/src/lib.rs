//! `lexbench` — the repository's benchmark.
//!
//! One generator process drives the real `lexequald` over TCP through
//! four workloads (`scan_hot`, `qgram_hot`, `phonidx_cold`, `write_mix`),
//! checks every reply against an in-process oracle and reports named
//! end-to-end metrics ([`e2e`]); a second, traced mode replays the same
//! seeded request streams in-process with spans around each layer's
//! public functions and dissects the kernels and the write path
//! ([`trace`]). The names, units, bounds and frozen rates live in
//! [`spec`]; `BENCHMARK.json` at the repository root is rendered from it.
//!
//! See `crates/lexbench/README.md` for the glossary and how to read the
//! output.

pub mod daemon;
pub mod e2e;
pub mod net;
pub mod oracle;
pub mod reply;
pub mod report;
pub mod rng;
pub mod spec;
pub mod stats;
pub mod trace;
pub mod workload;
