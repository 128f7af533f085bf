//! PHY timing: interframe spaces and frame airtimes.
//!
//! Two PHY profiles cover the paper's experiments:
//!
//! * **DSSS / HR-DSSS** (802.11b, the testbed's 2.4 GHz band, and the
//!   "HR/DSSS PHY specifications" of Table I): 20 µs slots, 10 µs SIFS,
//!   192 µs long PLCP preamble + header transmitted at 1 Mbps.
//! * **ERP-OFDM** (802.11g, used for the 6 Mbps NS-2 data rate): long
//!   (b/g-compatible) 20 µs slots, 10 µs SIFS, 20 µs preamble + SIGNAL,
//!   payload packed into 4 µs symbols with 16 SERVICE + 6 tail bits and a
//!   6 µs signal extension.
//!
//! `DIFS = SIFS + 2 × slot` in both cases.

use serde::{Deserialize, Serialize};

use comap_radio::rates::{PhyStandard, Rate};

use crate::time::SimDuration;

/// Interframe spacing and preamble profile of a PHY.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PhyTiming {
    standard: PhyStandard,
    slot: SimDuration,
    sifs: SimDuration,
    plcp_overhead: SimDuration,
}

impl PhyTiming {
    /// DSSS / HR-DSSS (802.11b) timing with the long PLCP preamble.
    pub fn dsss() -> Self {
        PhyTiming {
            standard: PhyStandard::Dsss,
            slot: SimDuration::from_micros(20),
            sifs: SimDuration::from_micros(10),
            plcp_overhead: SimDuration::from_micros(192),
        }
    }

    /// ERP-OFDM (802.11g) timing with the 20 µs preamble+SIGNAL and long
    /// (compatibility) 20 µs slots, as used when b/g coexistence is
    /// assumed.
    pub fn erp_ofdm() -> Self {
        PhyTiming {
            standard: PhyStandard::ErpOfdm,
            slot: SimDuration::from_micros(20),
            sifs: SimDuration::from_micros(10),
            plcp_overhead: SimDuration::from_micros(20),
        }
    }

    /// The PHY family this profile describes.
    pub fn standard(&self) -> PhyStandard {
        self.standard
    }

    /// One backoff slot.
    pub fn slot(&self) -> SimDuration {
        self.slot
    }

    /// Short interframe space (data → ACK turnaround).
    pub fn sifs(&self) -> SimDuration {
        self.sifs
    }

    /// DCF interframe space: `SIFS + 2 × slot`.
    pub fn difs(&self) -> SimDuration {
        self.sifs + self.slot * 2
    }

    /// PLCP preamble + PHY header overhead preceding the MPDU bits.
    pub fn plcp_overhead(&self) -> SimDuration {
        self.plcp_overhead
    }

    /// Airtime of an MPDU of `mpdu_bytes` at `rate`, including the PLCP
    /// overhead.
    ///
    /// # Panics
    ///
    /// Panics if `rate` does not belong to this PHY family.
    pub fn frame_duration(&self, mpdu_bytes: u32, rate: Rate) -> SimDuration {
        assert_eq!(
            rate.standard(),
            self.standard,
            "rate {rate} does not belong to {:?}",
            self.standard
        );
        let bits = u64::from(mpdu_bytes) * 8;
        let payload_time = match rate.bits_per_ofdm_symbol() {
            None => {
                // DSSS: bits go out serially at the nominal rate.
                let nanos = (bits as f64 * 1e9 / rate.bits_per_second()).ceil() as u64;
                SimDuration::from_nanos(nanos)
            }
            Some(ndbps) => {
                // OFDM: 16 SERVICE bits + MPDU + 6 tail bits, packed into
                // 4 µs symbols, plus the 6 µs ERP signal extension.
                let symbols = (16 + bits + 6).div_ceil(u64::from(ndbps));
                SimDuration::from_micros(symbols * 4 + 6)
            }
        };
        self.plcp_overhead + payload_time
    }

    /// Airtime of an ACK at the control rate of this PHY.
    pub fn ack_duration(&self) -> SimDuration {
        self.frame_duration(crate::frames::ACK_BYTES, self.control_rate())
    }

    /// The rate used for ACKs and other control responses: the base
    /// (most robust) rate of the family.
    pub fn control_rate(&self) -> Rate {
        match self.standard {
            PhyStandard::Dsss => Rate::Mbps1,
            PhyStandard::ErpOfdm => Rate::Mbps6,
        }
    }

    /// The rate used for CO-MAP discovery headers. Headers only need to
    /// reach *potential exposed/hidden terminals* — nodes within roughly
    /// the interference range — not the extreme edge of carrier sense, so
    /// DSSS uses 2 Mbps instead of 1 Mbps to keep the per-frame overhead
    /// tolerable (280 µs instead of 368 µs with the long preamble).
    pub fn header_rate(&self) -> Rate {
        match self.standard {
            PhyStandard::Dsss => Rate::Mbps2,
            PhyStandard::ErpOfdm => Rate::Mbps6,
        }
    }

    /// ACK timeout used by a sender: SIFS + ACK airtime + one slot of
    /// scheduling slack.
    pub fn ack_timeout(&self) -> SimDuration {
        self.sifs + self.ack_duration() + self.slot
    }

    /// Duration of a *successful* data exchange for the analytical model
    /// (paper eq. 8): `T_s = T_HDR + T_payload + SIFS + T_ACK + DIFS`.
    pub fn success_duration(&self, payload_bytes: u32, rate: Rate) -> SimDuration {
        self.frame_duration(crate::frames::DATA_HEADER_BYTES + payload_bytes, rate)
            + self.sifs
            + self.ack_duration()
            + self.difs()
    }

    /// Duration wasted by a *collision* for the analytical model (paper
    /// eq. 8): `T_c = T_HDR + T_payload + DIFS` (no ACK follows).
    pub fn collision_duration(&self, payload_bytes: u32, rate: Rate) -> SimDuration {
        self.frame_duration(crate::frames::DATA_HEADER_BYTES + payload_bytes, rate) + self.difs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frames::{ACK_BYTES, DATA_HEADER_BYTES};

    #[test]
    fn difs_is_sifs_plus_two_slots() {
        assert_eq!(PhyTiming::dsss().difs(), SimDuration::from_micros(50));
        assert_eq!(PhyTiming::erp_ofdm().difs(), SimDuration::from_micros(50));
    }

    #[test]
    fn dsss_frame_duration_reference() {
        // Classic value: 1500 B payload + 28 B MAC overhead at 11 Mbps with
        // long preamble = 192 + 1528*8/11 ≈ 1303.3 µs.
        let phy = PhyTiming::dsss();
        let d = phy.frame_duration(DATA_HEADER_BYTES + 1500, Rate::Mbps11);
        assert_eq!(d.as_micros_round(), 1303);
        // ACK at 1 Mbps: 192 + 14*8 = 304 µs.
        assert_eq!(phy.ack_duration(), SimDuration::from_micros(192 + 112));
    }

    #[test]
    fn ofdm_frame_duration_reference() {
        // 1500 B + 28 B at 54 Mbps: ceil((16+12224+6)/216) = 57 symbols
        // → 20 + 228 + 6 = 254 µs.
        let phy = PhyTiming::erp_ofdm();
        let d = phy.frame_duration(DATA_HEADER_BYTES + 1500, Rate::Mbps54);
        assert_eq!(d.as_micros_round(), 254);
        // ACK at 6 Mbps: ceil((16+112+6)/24) = 6 symbols → 20+24+6 = 50 µs.
        assert_eq!(
            phy.frame_duration(ACK_BYTES, Rate::Mbps6),
            SimDuration::from_micros(50)
        );
    }

    #[test]
    fn duration_grows_with_size_and_shrinks_with_rate() {
        let phy = PhyTiming::dsss();
        let small = phy.frame_duration(100, Rate::Mbps11);
        let large = phy.frame_duration(1000, Rate::Mbps11);
        assert!(small < large);
        let slow = phy.frame_duration(1000, Rate::Mbps1);
        assert!(large < slow);
    }

    #[test]
    fn success_exceeds_collision_duration() {
        let phy = PhyTiming::dsss();
        let s = phy.success_duration(500, Rate::Mbps11);
        let c = phy.collision_duration(500, Rate::Mbps11);
        assert_eq!(s - c, phy.sifs() + phy.ack_duration());
    }

    #[test]
    #[should_panic(expected = "does not belong")]
    fn cross_family_rate_panics() {
        let _ = PhyTiming::dsss().frame_duration(100, Rate::Mbps6);
    }

    #[test]
    fn ack_timeout_covers_ack() {
        let phy = PhyTiming::dsss();
        assert!(phy.ack_timeout() > phy.sifs() + phy.ack_duration());
    }
}
