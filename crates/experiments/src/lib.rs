//! # comap-experiments — regenerating the paper's evaluation
//!
//! One module per figure/table of the paper, each exposing a `run`
//! function that produces the figure's data series, plus a binary of the
//! same name that prints them (`cargo run --release -p comap-experiments
//! --bin fig08`). The experiment index lives in `DESIGN.md`; measured
//! results against the paper's numbers live in `EXPERIMENTS.md`.
//!
//! All experiments accept a `quick` flag that shrinks durations and seed
//! counts so the whole suite stays runnable in CI and in Criterion
//! benches.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod bench_diff;
pub mod fig01;
pub mod fig02;
pub mod fig07;
pub mod fig08;
pub mod fig09;
pub mod fig10;
pub mod fig_scale;
pub mod instrument;
pub mod report;
pub mod runner;
pub mod table1;
pub mod topology;

pub use runner::{empirical_cdf, sweep, Cdf};
