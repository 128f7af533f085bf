//! Mobility: the paper's Section V update rule in action. A contender
//! walks out of the cell mid-run; the position directory accepts one
//! position report (movement above the 5 m threshold), CO-MAP's caches
//! are invalidated, and the measured link speeds up.
//!
//! Run with `cargo run --release --example mobility`.

use comap::mac::SimDuration;
use comap::radio::Position;
use comap::sim::config::{MacFeatures, NodeSpec, Traffic};
use comap::sim::{SimConfig, Simulator};

fn main() {
    let windows = [
        (
            "0–400 ms (contender at 10 m)",
            SimDuration::from_millis(395),
        ),
        (
            "0–1200 ms (leaves at 400 ms)",
            SimDuration::from_millis(1200),
        ),
    ];
    println!("C1 and C2 share AP1; C2 walks 300 m away at t = 400 ms\n");
    for features in [MacFeatures::DCF, MacFeatures::COMAP] {
        let label = if features.any() { "CO-MAP" } else { "DCF" };
        for (window, duration) in windows {
            let mut cfg = SimConfig::testbed(9);
            cfg.default_features = features;
            let c1 = cfg.add_node(NodeSpec::client("C1", Position::new(0.0, 0.0)));
            let ap1 = cfg.add_node(NodeSpec::ap("AP1", Position::new(8.0, 0.0)));
            let c2 = cfg.add_node(
                NodeSpec::client("C2", Position::new(10.0, 0.0))
                    .with_move(SimDuration::from_millis(400), Position::new(300.0, 0.0)),
            );
            cfg.add_flow(c1, ap1, Traffic::Saturated);
            cfg.add_flow(c2, ap1, Traffic::Saturated);
            let report = Simulator::new(cfg).run(duration);
            println!(
                "{label:>7} | {window}: C1→AP1 {:.2} Mbps, {} position report(s)",
                report.link_goodput_bps(c1, ap1) / 1e6,
                report.position_reports
            );
        }
    }
    println!(
        "\nThe single report is the whole protocol overhead of the move —\n\
         the mobility threshold (half the tolerated inaccuracy) absorbs jitter."
    );
}
