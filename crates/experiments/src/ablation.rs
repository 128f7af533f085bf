//! **Ablation** — each CO-MAP feature switched on in turn on the
//! exposed-terminal testbed of Figs. 1 and 8, with C2 at four positions.
//! Shows where the gains (ET concurrency, adaptation) and the costs
//! (discovery headers) come from. Not a figure of the paper: one seed,
//! 2 s per run.

use std::fmt;

use comap_mac::time::SimDuration;
use comap_sim::config::MacFeatures;
use comap_sim::stats::{LinkStats, NodeStats};

use crate::runner::sweep;
use crate::topology::et_testbed;

/// C2's positions, meters from AP1.
const POSITIONS: [f64; 4] = [12.0, 20.0, 26.0, 32.0];

/// The MACs compared, each adding one feature to the one before it
/// (except RTS/CTS, a DCF variant).
const MACS: [(&str, MacFeatures); 6] = [
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
];

/// One MAC's run with C2 at one position.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Row {
    /// C2's position, meters from AP1.
    pub c2_x: f64,
    /// The MAC's label.
    pub mac: &'static str,
    /// C1→AP1 goodput, bits/s.
    pub c1: f64,
    /// C2→AP2 goodput, bits/s.
    pub c2: f64,
    /// The C1→AP1 link's counters.
    pub link: LinkStats,
    /// C1's node counters.
    pub node: NodeStats,
    /// Receiver locks the medium saw stolen by preamble capture.
    pub captures: u64,
    /// Frames the medium saw killed by the bit-error hazard.
    pub hazard_drops: u64,
}

/// The experiment's data.
#[derive(Debug, Clone)]
pub struct Ablation {
    /// Position-major: every MAC at the first position, then the next.
    pub rows: Vec<Row>,
}

/// Runs every MAC at every position on one [`sweep`].
pub fn run() -> Ablation {
    let grid: Vec<_> = POSITIONS
        .iter()
        .flat_map(|&x| MACS.map(|mac| (x, mac)))
        .collect();
    let rows = sweep(
        &grid,
        &[1],
        SimDuration::from_secs(2),
        |&(x, (_, features)), seed| et_testbed(x, features, seed),
        |&(c2_x, (mac, _)), ids, r| {
            let (c1, c2) = ids.goodputs(r);
            Row {
                c2_x,
                mac,
                c1,
                c2,
                link: r.links.get(&(ids.c1, ids.ap1)).copied().unwrap_or_default(),
                node: r.nodes.get(&ids.c1).copied().unwrap_or_default(),
                captures: r.medium.captures,
                hazard_drops: r.medium.hazard_drops,
            }
        },
    );
    Ablation { rows }
}

/// One block per position: a `== C2 at x m ==` header, then one line
/// per MAC.
impl fmt::Display for Ablation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, r) in self.rows.iter().enumerate() {
            if i % MACS.len() == 0 {
                writeln!(f, "== C2 at {} m ==", r.c2_x)?;
            }
            let (l, n) = (&r.link, &r.node);
            writeln!(
                f,
                "{:>12}: C1 {:.2} Mbps (tx {} to {} ackTO {} drop {}) C2 {:.2} Mbps | conc {} aband {} hdrs {} | phy cap {} hzd {}",
                r.mac, r.c1 / 1e6, l.data_tx, l.delivered_frames, l.ack_timeouts, l.drops,
                r.c2 / 1e6, n.concurrent_tx, n.et_abandons, n.headers_heard,
                r.captures, r.hazard_drops
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{debug_digest, digest};

    #[test]
    fn et_concurrency_and_adaptation_each_add_goodput() {
        let fig = run();
        // Pins every f64 and counter of the run and the text `--bin
        // ablation` prints.
        assert_eq!(debug_digest(&fig), "b5995f9226e1b944");
        assert_eq!(digest(&fig.to_string()), "caba9fabee09213f");
        assert_eq!(fig.rows.len(), POSITIONS.len() * MACS.len());
        // In the exposed region (26 m), concurrency lifts C1 over the
        // header-only MAC, and adaptation lifts it further.
        let at_26 = |mac| {
            fig.rows
                .iter()
                .find(|r| r.c2_x >= 26.0 && r.mac == mac)
                .map_or(f64::NAN, |r| r.c1)
        };
        assert!(at_26("hdr+et") > at_26("hdr"), "{fig:?}");
        assert!(at_26("full") > at_26("hdr+et+arq"), "{fig:?}");
    }
}
