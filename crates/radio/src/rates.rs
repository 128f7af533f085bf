//! 802.11 bit rates and their decoding requirements.
//!
//! The testbed experiments run 802.11b/g hardware (Intel 4965AGN) with
//! Minstrel rate adaptation; the NS-2 experiments fix 6 Mbps (Table I).
//! Rates matter to CO-MAP twice: transmission *durations* scale with the
//! rate, and each rate has a minimum SINR below which frames are lost —
//! the paper quotes "10 dB for 11 Mbps down to 4 dB for 1 Mbps".

use std::fmt;
use std::sync::OnceLock;

use serde::{Deserialize, Serialize};

use crate::units::Db;

/// The PHY family a rate belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PhyStandard {
    /// DSSS / HR-DSSS (802.11b): 1–11 Mbps.
    Dsss,
    /// ERP-OFDM (802.11g): 6–54 Mbps.
    ErpOfdm,
}

/// An 802.11 b/g bit rate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Rate {
    /// DSSS 1 Mbps (DBPSK).
    Mbps1,
    /// DSSS 2 Mbps (DQPSK).
    Mbps2,
    /// HR-DSSS 5.5 Mbps (CCK).
    Mbps5_5,
    /// HR-DSSS 11 Mbps (CCK).
    Mbps11,
    /// ERP-OFDM 6 Mbps (BPSK 1/2).
    Mbps6,
    /// ERP-OFDM 9 Mbps (BPSK 3/4).
    Mbps9,
    /// ERP-OFDM 12 Mbps (QPSK 1/2).
    Mbps12,
    /// ERP-OFDM 18 Mbps (QPSK 3/4).
    Mbps18,
    /// ERP-OFDM 24 Mbps (16-QAM 1/2).
    Mbps24,
    /// ERP-OFDM 36 Mbps (16-QAM 3/4).
    Mbps36,
    /// ERP-OFDM 48 Mbps (64-QAM 2/3).
    Mbps48,
    /// ERP-OFDM 54 Mbps (64-QAM 3/4).
    Mbps54,
}

impl Rate {
    /// All DSSS/HR-DSSS (802.11b) rates, slowest first.
    pub const DSSS_ALL: [Rate; 4] = [Rate::Mbps1, Rate::Mbps2, Rate::Mbps5_5, Rate::Mbps11];

    /// All ERP-OFDM (802.11g) rates, slowest first.
    pub const OFDM_ALL: [Rate; 8] = [
        Rate::Mbps6,
        Rate::Mbps9,
        Rate::Mbps12,
        Rate::Mbps18,
        Rate::Mbps24,
        Rate::Mbps36,
        Rate::Mbps48,
        Rate::Mbps54,
    ];

    /// Every rate in declaration order, so `Rate::ALL[r as usize] == r`.
    pub const ALL: [Rate; 12] = [
        Rate::Mbps1,
        Rate::Mbps2,
        Rate::Mbps5_5,
        Rate::Mbps11,
        Rate::Mbps6,
        Rate::Mbps9,
        Rate::Mbps12,
        Rate::Mbps18,
        Rate::Mbps24,
        Rate::Mbps36,
        Rate::Mbps48,
        Rate::Mbps54,
    ];

    /// The rate set of a PHY standard, slowest first.
    pub fn all(standard: PhyStandard) -> &'static [Rate] {
        match standard {
            PhyStandard::Dsss => &Self::DSSS_ALL,
            PhyStandard::ErpOfdm => &Self::OFDM_ALL,
        }
    }

    /// Nominal bit rate in bits per second.
    pub fn bits_per_second(self) -> f64 {
        match self {
            Rate::Mbps1 => 1e6,
            Rate::Mbps2 => 2e6,
            Rate::Mbps5_5 => 5.5e6,
            Rate::Mbps11 => 11e6,
            Rate::Mbps6 => 6e6,
            Rate::Mbps9 => 9e6,
            Rate::Mbps12 => 12e6,
            Rate::Mbps18 => 18e6,
            Rate::Mbps24 => 24e6,
            Rate::Mbps36 => 36e6,
            Rate::Mbps48 => 48e6,
            Rate::Mbps54 => 54e6,
        }
    }

    /// The PHY family this rate belongs to.
    pub fn standard(self) -> PhyStandard {
        match self {
            Rate::Mbps1 | Rate::Mbps2 | Rate::Mbps5_5 | Rate::Mbps11 => PhyStandard::Dsss,
            _ => PhyStandard::ErpOfdm,
        }
    }

    /// Minimum SINR required to decode this rate.
    ///
    /// DSSS numbers follow the paper ("10 dB for 11 Mbps down to 4 dB for
    /// 1 Mbps"); ERP-OFDM numbers are standard receiver-sensitivity-derived
    /// values.
    pub fn min_sinr(self) -> Db {
        Db::new(match self {
            Rate::Mbps1 => 4.0,
            Rate::Mbps2 => 7.0,
            Rate::Mbps5_5 => 9.0,
            Rate::Mbps11 => 10.0,
            Rate::Mbps6 => 6.0,
            Rate::Mbps9 => 8.0,
            Rate::Mbps12 => 10.0,
            Rate::Mbps18 => 12.0,
            Rate::Mbps24 => 17.0,
            Rate::Mbps36 => 21.0,
            Rate::Mbps48 => 25.0,
            Rate::Mbps54 => 27.0,
        })
    }

    /// [`Rate::min_sinr`] as a linear power ratio: exactly
    /// `min_sinr().to_linear()`, evaluated once per rate on first use
    /// and read from a table after that, so a per-receiver decodability
    /// test costs no `powf`.
    pub fn min_sinr_linear(self) -> f64 {
        static LINEAR: OnceLock<[f64; 12]> = OnceLock::new();
        LINEAR.get_or_init(|| Rate::ALL.map(|r| r.min_sinr().to_linear()))[self as usize]
    }

    /// Data bits per OFDM symbol (`N_DBPS`), for ERP-OFDM duration math.
    /// Returns `None` for DSSS rates, which are not symbol-blocked.
    pub fn bits_per_ofdm_symbol(self) -> Option<u32> {
        match self {
            Rate::Mbps6 => Some(24),
            Rate::Mbps9 => Some(36),
            Rate::Mbps12 => Some(48),
            Rate::Mbps18 => Some(72),
            Rate::Mbps24 => Some(96),
            Rate::Mbps36 => Some(144),
            Rate::Mbps48 => Some(192),
            Rate::Mbps54 => Some(216),
            _ => None,
        }
    }

    /// The highest rate of the family whose minimum SINR is at most `sinr`,
    /// or `None` if even the base rate cannot be decoded. This is the
    /// "ideal" rate-selection rule used by the simulator's auto-rate.
    pub fn best_for_sinr(standard: PhyStandard, sinr: Db) -> Option<Rate> {
        Rate::all(standard)
            .iter()
            .rev()
            .find(|r| r.min_sinr() <= sinr)
            .copied()
    }
}

impl fmt::Display for Rate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} Mbps", self.bits_per_second() / 1e6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rate_sets_are_sorted_by_speed() {
        for std in [PhyStandard::Dsss, PhyStandard::ErpOfdm] {
            let rates = Rate::all(std);
            for w in rates.windows(2) {
                assert!(w[0].bits_per_second() < w[1].bits_per_second());
            }
        }
    }

    #[test]
    fn min_sinr_is_monotone_in_rate() {
        for std in [PhyStandard::Dsss, PhyStandard::ErpOfdm] {
            let rates = Rate::all(std);
            for w in rates.windows(2) {
                assert!(w[0].min_sinr() < w[1].min_sinr(), "{} vs {}", w[0], w[1]);
            }
        }
    }

    #[test]
    fn all_lists_every_rate_at_its_index() {
        for (i, r) in Rate::ALL.into_iter().enumerate() {
            assert_eq!(r as usize, i, "{r}");
        }
        let families: Vec<Rate> = Rate::DSSS_ALL.into_iter().chain(Rate::OFDM_ALL).collect();
        assert_eq!(families, Rate::ALL);
    }

    #[test]
    fn min_sinr_table_is_bit_identical_to_the_conversion() {
        for r in Rate::ALL {
            assert_eq!(
                r.min_sinr_linear().to_bits(),
                r.min_sinr().to_linear().to_bits(),
                "{r}"
            );
        }
    }

    #[test]
    fn paper_quoted_dsss_thresholds() {
        assert_eq!(Rate::Mbps1.min_sinr(), Db::new(4.0));
        assert_eq!(Rate::Mbps11.min_sinr(), Db::new(10.0));
    }

    #[test]
    fn best_for_sinr_picks_fastest_decodable() {
        assert_eq!(
            Rate::best_for_sinr(PhyStandard::Dsss, Db::new(30.0)),
            Some(Rate::Mbps11)
        );
        assert_eq!(
            Rate::best_for_sinr(PhyStandard::Dsss, Db::new(9.5)),
            Some(Rate::Mbps5_5)
        );
        assert_eq!(
            Rate::best_for_sinr(PhyStandard::Dsss, Db::new(4.0)),
            Some(Rate::Mbps1)
        );
        assert_eq!(Rate::best_for_sinr(PhyStandard::Dsss, Db::new(3.9)), None);
        assert_eq!(
            Rate::best_for_sinr(PhyStandard::ErpOfdm, Db::new(22.0)),
            Some(Rate::Mbps36)
        );
    }

    #[test]
    fn ofdm_symbol_bits_match_rate() {
        // N_DBPS * 250k symbols/s == bit rate
        for r in Rate::OFDM_ALL {
            let ndbps = r.bits_per_ofdm_symbol().unwrap();
            assert_eq!(ndbps as f64 * 250_000.0, r.bits_per_second(), "{r}");
        }
        assert_eq!(Rate::Mbps11.bits_per_ofdm_symbol(), None);
    }
}
