//! Quickstart: the paper's Fig. 3 → Fig. 5 pipeline.
//!
//! Builds node C11's view of the example WLAN — neighbor table, pairwise
//! PRR table, co-occurrence map — and prints each stage, reproducing the
//! tables of the paper's Fig. 5.
//!
//! Run with `cargo run --release --example quickstart`.

use comap::core::{Protocol, ProtocolConfig};
use comap::radio::Position;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The Fig. 3 network, scaled to the testbed channel: two cells, C11
    // in the right-hand cell wanting to talk to AP1.
    let cfg = ProtocolConfig::testbed();
    let mut c11 = Protocol::new("C11", cfg);
    c11.set_own_position(Position::new(6.0, 0.0));

    let neighbors = [
        ("C0", Position::new(-36.0, 4.0)),
        ("C1", Position::new(-33.0, 2.0)),
        ("C2", Position::new(-30.0, 0.0)),
        ("C10", Position::new(9.0, 3.0)),
        ("C12", Position::new(11.0, -2.0)),
        ("AP0", Position::new(-34.0, 0.0)),
        ("AP1", Position::new(10.0, 0.0)),
    ];
    for (name, pos) in neighbors {
        c11.on_position_report(name, pos);
    }

    println!("Neighbor table of C11 (paper Fig. 3):");
    println!("{:>6} {:>8} {:>8}", "node", "X (m)", "Y (m)");
    for (addr, entry) in c11.neighbors().iter() {
        println!(
            "{addr:>6} {:>8.1} {:>8.1}",
            entry.position.x, entry.position.y
        );
    }

    // The PRR table (paper Fig. 5): for each left-cell client sending to
    // AP0, the PRR of their link and of C11's own link to AP1 if both
    // transmit at once.
    println!("\nPRR table of C11 vs. link C11→AP1 (paper Fig. 5):");
    println!(
        "{:>6} {:>16} {:>16}",
        "node", "PRR of neighbor", "PRR of C11"
    );
    for peer in ["C0", "C1", "C2"] {
        let d = c11.concurrency_decision((peer, "AP0"), "AP1")?;
        println!(
            "{peer:>6} {:>15.1}% {:>15.1}%",
            d.prr_ongoing * 100.0,
            d.prr_mine * 100.0
        );
    }

    // Populate the co-occurrence map by consulting it, as the MAC would
    // on each discovery header.
    for peer in ["C0", "C1", "C2"] {
        let _ = c11.concurrency_allowed((peer, "AP0"), "AP1")?;
    }

    println!("\nCo-occurrence map of C11:");
    for (link, receivers) in c11.cooccurrence().iter(c11.neighbors()) {
        println!(
            "  while {} → {} is on the air: may transmit to {receivers:?}",
            link.0, link.1
        );
    }
    let (hits, misses) = c11.cooccurrence().stats();
    println!("  cache: {hits} hits, {misses} misses");

    // And the hidden-terminal side: transmission settings for C11→AP1.
    let census = c11.ht_census("AP1")?;
    let setting = c11.tx_setting("AP1")?;
    println!(
        "\nCensus of link C11→AP1: {} hidden, {} contending, {} independent",
        census.n_ht(),
        census.n_contenders(),
        census.independent.len()
    );
    println!(
        "Installed setting: CW = {}, payload = {} B (model predicts {:.2} Mbps)",
        setting.cw,
        setting.payload_bytes,
        setting.predicted_goodput / 1e6
    );
    Ok(())
}
