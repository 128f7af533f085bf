//! Regenerates Fig. 7: analytical model vs simulation for
//! W ∈ {63, 255, 1023} and 0/3/5 hidden terminals.

use comap_experiments::fig07::{HT_COUNTS, WINDOWS};
use comap_experiments::instrument::{run_if_requested, Args, Flag};
use comap_experiments::report::{mbps, Table};

fn main() {
    let args = Args::from_env("fig07", &[Flag::Quick]);
    let fig = comap_experiments::fig07::run(args.quick);
    for &n_ht in &HT_COUNTS {
        let mut t = Table::new(
            format!("Fig. 7 — {n_ht} hidden terminal(s): per-node goodput (Mbps)"),
            &[
                "Payload (B)",
                "W=63 model",
                "W=63 sim",
                "W=255 model",
                "W=255 sim",
                "W=1023 model",
                "W=1023 sim",
            ],
        );
        let panels: Vec<_> = WINDOWS.iter().map(|&w| fig.panel(w.get(), n_ht)).collect();
        for ((p63, p255), p1023) in panels[0].iter().zip(&panels[1]).zip(&panels[2]) {
            t.row(&[
                p63.payload.to_string(),
                mbps(p63.model),
                mbps(p63.sim),
                mbps(p255.model),
                mbps(p255.sim),
                mbps(p1023.model),
                mbps(p1023.sim),
            ]);
        }
        t.print();
    }
    println!(
        "mean relative model-vs-sim error: {:.1}%",
        fig.mean_relative_error() * 100.0
    );
    run_if_requested("fig07", &args.instrumentation);
}
