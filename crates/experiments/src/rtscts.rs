//! **RTS/CTS** — quantifies the paper's reasons for disabling RTS/CTS
//! (Section VI-A): the handshake serializes exposed terminals that could
//! have been concurrent (aggravating the ET problem) while fixing
//! hidden-terminal collisions only at a steep overhead — CO-MAP beats it
//! on both fronts. Not a figure of the paper: basic DCF, DCF with
//! RTS/CTS and CO-MAP each run the Fig. 1 testbed with C2 at 26 m and
//! the Fig. 2 testbed with one hidden terminal.

use std::fmt;

use comap_mac::time::SimDuration;
use comap_sim::config::MacFeatures;

use crate::report::{mbps, Table};
use crate::runner::sweep;
use crate::topology::{et_testbed, ht_testbed};

/// One MAC's outcome in both testbeds, averaged or summed over seeds.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Row {
    /// The MAC's label.
    pub mac: &'static str,
    /// Mean C1→AP1 goodput in the exposed-terminal testbed, bits/s.
    pub et_c1: f64,
    /// Mean C2→AP2 goodput in the exposed-terminal testbed, bits/s.
    pub et_c2: f64,
    /// Mean C1→AP1 goodput in the hidden-terminal testbed, bits/s.
    pub ht_c1: f64,
    /// ACK timeouts of C1→AP1 in the hidden-terminal testbed.
    pub ack_timeouts: u64,
    /// Data transmissions of C1→AP1 in the hidden-terminal testbed.
    pub data_tx: u64,
    /// PHY captures in the hidden-terminal testbed.
    pub captures: u64,
    /// Frames killed by the PHY's BER hazard in the hidden-terminal
    /// testbed.
    pub hazard_drops: u64,
}

/// The experiment's data: one row per MAC.
#[derive(Debug, Clone)]
pub struct RtsCts {
    /// DCF, DCF + RTS/CTS and CO-MAP, in that order.
    pub rows: Vec<Row>,
}

/// Runs the three MACs through both testbeds, one [`sweep`] each.
pub fn run(quick: bool) -> RtsCts {
    let (seeds, duration): (&[u64], _) = if quick {
        (&[1], SimDuration::from_millis(400))
    } else {
        (&[1, 2, 3, 4], SimDuration::from_secs(2))
    };
    let macs = [
        ("DCF", MacFeatures::DCF),
        ("DCF + RTS/CTS", MacFeatures::DCF_RTS_CTS),
        ("CO-MAP", MacFeatures::COMAP),
    ];
    let et = sweep(
        &macs,
        seeds,
        duration,
        |&(_, features), seed| et_testbed(26.0, features, seed),
        |_, ids, r| ids.goodputs(r),
    );
    let ht = sweep(
        &macs,
        seeds,
        duration,
        |&(_, features), seed| ht_testbed(1000, 1, features, seed),
        |_, ids, r| {
            let link = r.links.get(&(ids.c1, ids.ap1)).copied().unwrap_or_default();
            (r.link_goodput_bps(ids.c1, ids.ap1), link, r.medium)
        },
    );
    // Fold each MAC's seeds in seed order, as a per-seed loop would.
    let n = seeds.len() as f64;
    let rows = macs
        .iter()
        .zip(et.chunks(seeds.len()).zip(ht.chunks(seeds.len())))
        .map(|(&(mac, _), (et, ht))| {
            let mut row = Row {
                mac,
                ..Row::default()
            };
            for &(c1, c2) in et {
                row.et_c1 += c1 / n;
                row.et_c2 += c2 / n;
            }
            for (c1, link, medium) in ht {
                row.ht_c1 += c1 / n;
                row.ack_timeouts += link.ack_timeouts;
                row.data_tx += link.data_tx;
                row.captures += medium.captures;
                row.hazard_drops += medium.hazard_drops;
            }
            row
        })
        .collect();
    RtsCts { rows }
}

/// The exposed-terminal table, the hidden-terminal table and the
/// conclusion.
impl fmt::Display for RtsCts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut t = Table::new(
            "Exposed-terminal testbed (C2 at 26 m): total two-link goodput",
            &["MAC", "C1→AP1 (Mbps)", "C2→AP2 (Mbps)", "sum (Mbps)"],
        );
        for r in &self.rows {
            t.row(&[
                r.mac.into(),
                mbps(r.et_c1),
                mbps(r.et_c2),
                mbps(r.et_c1 + r.et_c2),
            ]);
        }
        write!(f, "{t}")?;
        let mut t = Table::new(
            "Hidden-terminal testbed (one HT): measured link",
            &[
                "MAC",
                "C1→AP1 (Mbps)",
                "ACK timeouts / data tx",
                "phy captures / hazard kills",
            ],
        );
        for r in &self.rows {
            t.row(&[
                r.mac.into(),
                mbps(r.ht_c1),
                format!("{} / {}", r.ack_timeouts, r.data_tx),
                format!("{} / {}", r.captures, r.hazard_drops),
            ]);
        }
        write!(f, "{t}")?;
        writeln!(
            f,
            "RTS/CTS removes hidden-terminal collisions but serializes the exposed pair;\n\
             CO-MAP keeps the collision protection *and* the concurrency."
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{debug_digest, digest};

    #[test]
    fn rts_cts_serializes_the_exposed_pair() {
        let fig = run(true);
        // Pins every f64 of the quick run and the text `--bin rtscts
        // --quick` prints.
        assert_eq!(debug_digest(&fig), "7744f34a9a4b3a5f");
        assert_eq!(digest(&fig.to_string()), "498e41c9d1b59734");
        let [dcf, rts, comap] = [0, 1, 2].map(|i| &fig.rows[i]);
        let pair = |r: &Row| r.et_c1 + r.et_c2;
        assert!(pair(rts) < pair(dcf) && pair(dcf) < pair(comap), "{fig:?}");
        assert!(
            rts.ht_c1 < dcf.ht_c1,
            "the handshake costs goodput: {fig:?}"
        );
    }
}
