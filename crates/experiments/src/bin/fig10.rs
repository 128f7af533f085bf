//! Regenerates Fig. 10: large-scale CDFs of per-link goodput for DCF,
//! CO-MAP with perfect positions, and CO-MAP under position error.

use comap_experiments::fig10::Variant;
use comap_experiments::instrument::{run_if_requested, Args, Flag};
use comap_experiments::report::{mbps, Table};

fn main() {
    let args = Args::from_env("fig10", &[Flag::Quick]);
    let fig = comap_experiments::fig10::run(args.quick);
    let mut t = Table::new(
        "Fig. 10 — per-link goodput distribution (Mbps) and aggregate gain",
        &[
            "Variant",
            "p10",
            "median",
            "p90",
            "mean",
            "aggregate gain vs DCF",
        ],
    );
    for v in &fig.variants {
        let cdf = v.cdf();
        let gain = match v.variant {
            Variant::Dcf => "—".to_string(),
            other => format!("{:+.1}%", fig.gain_over_dcf(other) * 100.0),
        };
        t.row(&[
            v.variant.label(),
            mbps(cdf.quantile(0.1)),
            mbps(cdf.quantile(0.5)),
            mbps(cdf.quantile(0.9)),
            mbps(cdf.mean()),
            gain,
        ]);
    }
    t.print();
    println!(
        "paper: CO-MAP(perfect) = 1.385x aggregated goodput (+38.5%); with position error the gain shrinks but stays positive"
    );
    run_if_requested("fig10", &args.instrumentation);
}
