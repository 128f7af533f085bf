//! Regenerates Fig. 10: large-scale CDFs of per-link goodput for DCF,
//! CO-MAP with perfect positions, and CO-MAP under position error.

use comap_experiments::instrument::{run_if_requested, Args, Flag};

fn main() {
    let args = Args::from_env("fig10", &[Flag::Quick]);
    print!("{}", comap_experiments::fig10::run(args.quick));
    run_if_requested("fig10", &args.instrumentation);
}
