//! Ablation study: each CO-MAP feature toggled individually on the
//! exposed-terminal testbed, as called out in DESIGN.md. Shows where the
//! gains (ET concurrency, adaptation) and the costs (discovery headers)
//! come from.

use comap_experiments::instrument::{run_if_requested, Args};
use comap_experiments::topology::et_testbed;
use comap_mac::time::SimDuration;
use comap_sim::config::MacFeatures;
use comap_sim::sim::Simulator;

fn main() {
    let args = Args::from_env("ablation", &[]);
    for x in [12.0, 20.0, 26.0, 32.0] {
        println!("== C2 at {x} m ==");
        for (name, f) in [
            ("dcf", MacFeatures::DCF),
            ("dcf+rts/cts", MacFeatures::DCF_RTS_CTS),
            (
                "hdr",
                MacFeatures {
                    discovery_header: true,
                    ..MacFeatures::DCF
                },
            ),
            (
                "hdr+et",
                MacFeatures {
                    discovery_header: true,
                    et_concurrency: true,
                    ..MacFeatures::DCF
                },
            ),
            (
                "hdr+et+arq",
                MacFeatures {
                    discovery_header: true,
                    et_concurrency: true,
                    selective_repeat: true,
                    ..MacFeatures::DCF
                },
            ),
            ("full", MacFeatures::COMAP),
        ] {
            let (cfg, ids) = et_testbed(x, f, 1);
            let r = Simulator::new(cfg).run(SimDuration::from_secs(2));
            let g1 = r.link_goodput_bps(ids.c1, ids.ap1) / 1e6;
            let g2 = r.link_goodput_bps(ids.c2, ids.ap2) / 1e6;
            let l1 = r.links[&(ids.c1, ids.ap1)];
            let n1 = r.nodes.get(&ids.c1).copied().unwrap_or_default();
            println!(
                "{name:>12}: C1 {g1:.2} Mbps (tx {} to {} ackTO {} drop {}) C2 {g2:.2} Mbps | conc {} aband {} hdrs {} | phy cap {} hzd {}",
                l1.data_tx, l1.delivered_frames, l1.ack_timeouts, l1.drops,
                n1.concurrent_tx, n1.et_abandons, n1.headers_heard,
                r.medium.captures, r.medium.hazard_drops
            );
        }
    }
    run_if_requested("ablation", &args.instrumentation);
}
