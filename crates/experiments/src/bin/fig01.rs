//! Regenerates Fig. 1: ET motivation, goodput of C1→AP1 vs C2 position
//! under basic DCF.

use comap_experiments::instrument::{run_if_requested, Args, Flag};

fn main() {
    let args = Args::from_env("fig01", &[Flag::Quick]);
    print!("{}", comap_experiments::fig01::run(args.quick));
    run_if_requested("fig01", &args.instrumentation);
}
