//! Regenerates Fig. 2: HT motivation, goodput vs payload size with and
//! without one hidden terminal.

use comap_experiments::instrument::{run_if_requested, Args, Flag};
use comap_experiments::report::{mbps, Table};

fn main() {
    let args = Args::from_env("fig02", &[Flag::Quick]);
    let fig = comap_experiments::fig02::run(args.quick);
    let mut t = Table::new(
        "Fig. 2 — goodput of C1→AP1 vs payload size",
        &[
            "Payload (B)",
            "N_ht = 0 (Mbps)",
            "N_ht = 1 (Mbps)",
            "N_ht = 3 (Mbps)",
        ],
    );
    for p in &fig.points {
        t.row(&[
            p.payload.to_string(),
            mbps(p.no_ht),
            mbps(p.one_ht),
            mbps(p.three_ht),
        ]);
    }
    t.print();
    println!(
        "best payload: {} B without HT, {} B with one HT, {} B with three HTs",
        fig.best_payload_without_ht(),
        fig.best_payload_with_ht(),
        fig.best_payload_with_three_hts()
    );
    run_if_requested("fig02", &args.instrumentation);
}
