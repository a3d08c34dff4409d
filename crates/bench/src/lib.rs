//! The FLICK benchmark harness.
//!
//! One experiment runner per figure of the paper's evaluation (§6). The
//! `fig4`, `fig5`, `fig6`, `fig7` and `fig_webserver` binaries call these
//! runners at a configurable scale and print the same series the paper
//! reports, next to the paper's reference values; the `bench_guard` binary
//! runs reduced versions of the same runners against
//! `benches/baseline.json`.
//!
//! All experiments run on the simulated substrate: absolute numbers are not
//! comparable with the paper's 16-core 10 GbE testbed, but the *shape*
//! (which system wins, how throughput scales with cores or concurrency,
//! where the scheduling policies differ) is, and `EXPERIMENTS.md` records
//! both.

pub mod experiments;
pub mod report;

pub use experiments::*;
pub use report::{print_table, Row};
