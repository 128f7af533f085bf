//! Prints Table I (parameter settings) from the canonical preset.

use comap_experiments::instrument::{run_if_requested, Args};

fn main() {
    let args = Args::from_env("table1", &[]);
    print!("{}", comap_experiments::table1::build());
    run_if_requested("table1", &args.instrumentation);
}
