//! Ablation study: each CO-MAP feature toggled individually on the
//! exposed-terminal testbed, as called out in DESIGN.md. Shows where the
//! gains (ET concurrency, adaptation) and the costs (discovery headers)
//! come from.

use comap_experiments::instrument::{run_if_requested, Args};

fn main() {
    let args = Args::from_env("ablation", &[]);
    print!("{}", comap_experiments::ablation::run());
    run_if_requested("ablation", &args.instrumentation);
}
