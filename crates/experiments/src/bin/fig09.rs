//! Regenerates Fig. 9: CDF of C1→AP1 goodput over ten HT topologies,
//! CO-MAP vs DCF.

use comap_experiments::instrument::{run_if_requested, Args, Flag};

fn main() {
    let args = Args::from_env("fig09", &[Flag::Quick]);
    print!("{}", comap_experiments::fig09::run(args.quick));
    run_if_requested("fig09", &args.instrumentation);
}
