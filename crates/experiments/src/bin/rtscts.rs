//! Quantifies the paper's reasons for disabling RTS/CTS (Section VI-A):
//! the handshake serializes exposed terminals that could have been
//! concurrent (aggravating the ET problem) while fixing hidden-terminal
//! collisions only at a steep overhead — CO-MAP beats it on both fronts.

use comap_experiments::instrument::{run_if_requested, Args, Flag};

fn main() {
    let args = Args::from_env("rtscts", &[Flag::Quick]);
    print!("{}", comap_experiments::rtscts::run(args.quick));
    run_if_requested("rtscts", &args.instrumentation);
}
