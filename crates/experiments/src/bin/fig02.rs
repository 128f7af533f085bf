//! Regenerates Fig. 2: HT motivation, goodput vs payload size with no,
//! one and three hidden terminals.

use comap_experiments::instrument::{run_if_requested, Args, Flag};

fn main() {
    let args = Args::from_env("fig02", &[Flag::Quick]);
    print!("{}", comap_experiments::fig02::run(args.quick));
    run_if_requested("fig02", &args.instrumentation);
}
