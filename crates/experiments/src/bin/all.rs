//! Runs every experiment in sequence (pass --quick for a fast pass),
//! printing each one's text under a `########## <name> ##########`
//! header: the stdout of that experiment's own binary, byte for byte.
//! The full-mode output is checked in as `results/figures.txt`.

use comap_experiments::instrument::{run_if_requested, Args, Flag};
use comap_experiments::{ablation, fig01, fig02, fig07, fig08, fig09, fig10, rtscts, table1};

fn main() {
    let args = Args::from_env("all", &[Flag::Quick]);
    let experiments = [
        (
            "table1",
            (|_| table1::build().to_string()) as fn(bool) -> String,
        ),
        ("fig01", |quick| fig01::run(quick).to_string()),
        ("fig02", |quick| fig02::run(quick).to_string()),
        ("fig07", |quick| fig07::run(quick).to_string()),
        ("fig08", |quick| fig08::run(quick).to_string()),
        ("fig09", |quick| fig09::run(quick).to_string()),
        ("fig10", |quick| fig10::run(quick).to_string()),
        ("rtscts", |quick| rtscts::run(quick).to_string()),
        ("ablation", |_| ablation::run().to_string()),
    ];
    for (name, text) in experiments {
        println!("\n########## {name} ##########");
        print!("{}", text(args.quick));
    }
    run_if_requested("all", &args.instrumentation);
}
