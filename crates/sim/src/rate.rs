//! Data-rate selection.
//!
//! The testbed runs Minstrel; its role in the paper's results is simple —
//! links pick higher rates when the SINR headroom allows (Fig. 8's rising
//! goodput as the interferer recedes). Two stateless controllers cover
//! that, so a rate is a pure function of geometry:
//!
//! * [`RateController::Fixed`] — the NS-2 experiments' fixed 6 Mbps,
//! * [`RateController::IdealSinr`] — a converged-Minstrel stand-in that
//!   picks the fastest rate whose minimum SINR clears the link's mean SNR
//!   (and, for CO-MAP concurrent transmissions, the mean SIR against the
//!   known ongoing interferer) by a configurable margin.

use comap_radio::pathloss::LogNormalShadowing;
use comap_radio::rates::{PhyStandard, Rate};
use comap_radio::units::{Db, Meters};
use comap_radio::{Position, NOISE_FLOOR};

/// How senders choose their modulation rate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RateController {
    /// Always use one rate.
    Fixed(Rate),
    /// Pick the fastest decodable rate from the link's mean SNR/SIR.
    IdealSinr {
        /// Safety margin subtracted from the estimated SINR before the
        /// table lookup (absorbs shadowing spread).
        margin: Db,
    },
}

impl RateController {
    /// Whether the controller reads node positions. Only the
    /// [`RateController::IdealSinr`] genie does, so only it needs the
    /// true-position table and its updates on every move.
    pub fn reads_positions(&self) -> bool {
        matches!(self, RateController::IdealSinr { .. })
    }

    /// The rate for a transmission from `src` to `dst`, optionally
    /// accounting for a concurrent interferer at `interferer` (CO-MAP
    /// exposed-terminal transmissions know who else is on the air).
    ///
    /// Falls back to the base rate when even that cannot be decoded —
    /// the MAC will try, and the PHY will sort out the loss.
    pub fn select(
        &self,
        channel: &LogNormalShadowing,
        standard: PhyStandard,
        src: Position,
        dst: Position,
        interferer: Option<Position>,
    ) -> Rate {
        match *self {
            RateController::Fixed(rate) => rate,
            RateController::IdealSinr { margin } => {
                let signal = channel.mean_power(src.distance_to(dst));
                let mut floor_mw = NOISE_FLOOR.to_milliwatts();
                if let Some(i) = interferer {
                    let d = i.distance_to(dst).max(Meters::new(1.0));
                    floor_mw += channel.mean_power(d).to_milliwatts();
                }
                let sinr = (signal - floor_mw.to_dbm()) - margin;
                Rate::best_for_sinr(standard, sinr).unwrap_or(match standard {
                    PhyStandard::Dsss => Rate::Mbps1,
                    PhyStandard::ErpOfdm => Rate::Mbps6,
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use comap_radio::units::Dbm;

    fn chan() -> LogNormalShadowing {
        LogNormalShadowing::testbed(Dbm::new(0.0))
    }

    #[test]
    fn fixed_is_fixed() {
        let rc = RateController::Fixed(Rate::Mbps6);
        let r = rc.select(
            &chan(),
            PhyStandard::ErpOfdm,
            Position::ORIGIN,
            Position::new(500.0, 0.0),
            None,
        );
        assert_eq!(r, Rate::Mbps6);
    }

    #[test]
    fn ideal_rate_decreases_with_distance() {
        let rc = RateController::IdealSinr {
            margin: Db::new(5.0),
        };
        let mut prev = Rate::Mbps11;
        for d in [5.0, 20.0, 40.0, 60.0, 90.0] {
            let r = rc.select(
                &chan(),
                PhyStandard::Dsss,
                Position::ORIGIN,
                Position::new(d, 0.0),
                None,
            );
            assert!(r <= prev, "rate must not increase with distance (d = {d})");
            prev = r;
        }
        assert_eq!(prev, Rate::Mbps1, "very long links fall to the base rate");
    }

    #[test]
    fn close_links_use_top_rate() {
        let rc = RateController::IdealSinr {
            margin: Db::new(5.0),
        };
        let r = rc.select(
            &chan(),
            PhyStandard::Dsss,
            Position::ORIGIN,
            Position::new(3.0, 0.0),
            None,
        );
        assert_eq!(r, Rate::Mbps11);
    }

    #[test]
    fn known_interferer_lowers_the_rate() {
        let rc = RateController::IdealSinr {
            margin: Db::new(3.0),
        };
        let clean = rc.select(
            &chan(),
            PhyStandard::Dsss,
            Position::ORIGIN,
            Position::new(8.0, 0.0),
            None,
        );
        let jammed = rc.select(
            &chan(),
            PhyStandard::Dsss,
            Position::ORIGIN,
            Position::new(8.0, 0.0),
            Some(Position::new(20.0, 0.0)),
        );
        assert!(jammed < clean, "{jammed} vs {clean}");
    }

    #[test]
    fn receding_interferer_restores_the_rate() {
        let rc = RateController::IdealSinr {
            margin: Db::new(3.0),
        };
        let mut prev = Rate::Mbps1;
        for d in [15.0, 30.0, 60.0, 120.0, 400.0] {
            let r = rc.select(
                &chan(),
                PhyStandard::Dsss,
                Position::ORIGIN,
                Position::new(8.0, 0.0),
                Some(Position::new(d, 0.0)),
            );
            assert!(r >= prev, "rate must not drop as interferer recedes");
            prev = r;
        }
    }
}
