//! Large-scale floor with position errors — a miniature of the paper's
//! Fig. 10 study: three co-channel APs, nine random clients, two-way CBR,
//! CO-MAP fed increasingly wrong coordinates.
//!
//! Run with `cargo run --release --example large_floor`.

use comap::experiments::fig10::{run_variants, Variant};
use comap::mac::SimDuration;

fn main() {
    let duration = SimDuration::from_secs(1);
    println!("Three co-channel APs, nine CBR clients, {duration} per run\n");
    println!(
        "{:>18} {:>12} {:>12} {:>12}",
        "variant", "p25 (Mbps)", "median", "aggregate"
    );

    let labels = [
        "basic DCF",
        "CO-MAP (exact)",
        "CO-MAP (5 m err)",
        "CO-MAP (10 m err)",
    ];
    let variants = [
        Variant::Dcf,
        Variant::CoMap(0.0),
        Variant::CoMap(5.0),
        Variant::CoMap(10.0),
    ];
    for (label, result) in labels
        .iter()
        .zip(run_variants(&variants, 3, &[1, 2], duration))
    {
        let cdf = result.cdf();
        println!(
            "{label:>18} {:>12.2} {:>12.2} {:>12.2}",
            cdf.quantile(0.25) / 1e6,
            cdf.quantile(0.5) / 1e6,
            result.mean_aggregate / 1e6
        );
    }
    println!("\nPositions only steer CO-MAP's decisions — the radio truth is unchanged,");
    println!("so position errors degrade the protocol's choices, not the physics.");
}
