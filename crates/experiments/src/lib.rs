//! # comap-experiments — regenerating the paper's evaluation
//!
//! One module per figure/table of the paper, each exposing a `run`
//! function that produces the figure's data and a `Display` that prints
//! it: the tables and summary lines of the binary of the same name
//! (`cargo run --release -p comap-experiments --bin fig08`). The `all`
//! binary prints the same text for every experiment, and its full-mode
//! stdout is checked in as `results/figures.txt`. The experiment index
//! lives in `DESIGN.md`; measured results against the paper's numbers
//! live in `EXPERIMENTS.md`.
//!
//! Every simulated experiment but `fig_scale`, whose timed runs stay
//! sequential, runs its grid of points × seeds through
//! [`runner::sweep`]. All experiments but `table1` and `ablation` accept
//! a `quick` flag that shrinks durations and seed counts so the whole
//! suite stays runnable in CI and in the benchmark.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![cfg_attr(
    not(test),
    warn(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::todo,
        clippy::float_cmp,
        clippy::allow_attributes,
        clippy::allow_attributes_without_reason,
        clippy::wildcard_enum_match_arm,
        clippy::match_wildcard_for_single_variants
    )
)]

pub mod ablation;
pub mod bench_diff;
pub mod fig01;
pub mod fig02;
pub mod fig07;
pub mod fig08;
pub mod fig09;
pub mod fig10;
pub mod fig_scale;
pub mod instrument;
mod report;
pub mod rtscts;
pub mod runner;
pub mod table1;
pub mod topology;

pub use runner::{empirical_cdf, sweep, Cdf};
