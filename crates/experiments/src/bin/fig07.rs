//! Regenerates Fig. 7: analytical model vs simulation for
//! W ∈ {63, 255, 1023} and 0/3/5 hidden terminals.

use comap_experiments::instrument::{run_if_requested, Args, Flag};

fn main() {
    let args = Args::from_env("fig07", &[Flag::Quick]);
    print!("{}", comap_experiments::fig07::run(args.quick));
    run_if_requested("fig07", &args.instrumentation);
}
