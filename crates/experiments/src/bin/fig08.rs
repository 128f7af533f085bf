//! Regenerates Fig. 8: CO-MAP vs basic DCF in the ET testbed.

use comap_experiments::instrument::{run_if_requested, Args, Flag};

fn main() {
    let args = Args::from_env("fig08", &[Flag::Quick]);
    print!("{}", comap_experiments::fig08::run(args.quick));
    run_if_requested("fig08", &args.instrumentation);
}
