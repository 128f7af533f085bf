//! Packet-size / contention-window adaptation (paper Section IV-D3).
//!
//! "To reduce the computation overhead on mobile devices, we calculate the
//! best packet configurations for different number of HTs and contending
//! nodes beforehand. The results are recorded in a 2-dimension array."
//!
//! [`AdaptationTable::precompute`] grid-searches the analytical model over
//! candidate windows and payload sizes for every `(h, c)` cell; lookups
//! clamp out-of-range counts to the table edge.

use std::num::NonZeroU32;

use serde::{Deserialize, Serialize};

use comap_mac::timing::PhyTiming;
use comap_radio::rates::Rate;

use crate::config::HIDDEN_PROFILE;
use crate::model::{DcfModel, ModelInput};

/// One precomputed best setting.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TxSetting {
    /// Contention window to install.
    pub cw: u32,
    /// Payload size in bytes.
    pub payload_bytes: u32,
    /// The model-predicted per-node goodput at this setting (bits/s).
    pub predicted_goodput: f64,
}

/// The 2-D array of best `(CW, payload)` settings, indexed by
/// `(hidden terminals, contenders)`.
///
/// ```rust
/// use comap_core::AdaptationTable;
/// use comap_mac::timing::PhyTiming;
/// use comap_radio::rates::Rate;
///
/// let table = AdaptationTable::precompute(PhyTiming::dsss(), Rate::Mbps11, 1500, true);
/// let calm = table.setting(0, 4);
/// let noisy = table.setting(5, 4);
/// // More hidden terminals ⇒ shorter packets.
/// assert!(noisy.payload_bytes <= calm.payload_bytes);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AdaptationTable {
    /// Row-major `[h][c]`, `h ∈ 0..=TABLE_MAX_HIDDEN`,
    /// `c ∈ 0..=TABLE_MAX_CONTENDERS`.
    settings: Vec<TxSetting>,
}

/// Candidate contention windows (the `2^k − 1` ladder the paper sweeps in
/// Fig. 7).
pub const CW_CANDIDATES: [NonZeroU32; 6] = [
    NonZeroU32::new(31).unwrap(),
    NonZeroU32::new(63).unwrap(),
    NonZeroU32::new(127).unwrap(),
    NonZeroU32::new(255).unwrap(),
    NonZeroU32::new(511).unwrap(),
    NonZeroU32::new(1023).unwrap(),
];

/// Candidate payload sizes in bytes (100 B steps up to the Ethernet-ish
/// 2200 B the paper sweeps).
pub fn payload_candidates() -> impl Iterator<Item = u32> {
    (1..=22).map(|i| i * 100)
}

/// MTU-ish ceiling installed by the protocol's own table: real stacks do
/// not send 2200-byte MPDUs.
pub const DEFAULT_MAX_PAYLOAD: u32 = 1500;

/// Hidden-terminal counts the table materializes: the paper's Fig. 7
/// explores up to 5 HTs; the table keeps a margin beyond that.
const TABLE_MAX_HIDDEN: usize = 8;

/// Contender counts the table materializes.
const TABLE_MAX_CONTENDERS: usize = 8;

impl AdaptationTable {
    /// Precomputes best settings for `h ∈ 0..=8` and `c ∈ 0..=8`, with
    /// payload candidates capped at `max_payload` and hidden terminals
    /// behaving as [`HIDDEN_PROFILE`] — they keep *their* window whatever
    /// we install for ourselves. With `adapt_cw` off the window stays at
    /// 31 and only the payload adapts.
    pub fn precompute(phy: PhyTiming, rate: Rate, max_payload: u32, adapt_cw: bool) -> Self {
        let cw_choices: &[NonZeroU32] = if adapt_cw {
            &CW_CANDIDATES
        } else {
            &CW_CANDIDATES[..1]
        };
        let mut settings = Vec::with_capacity((TABLE_MAX_HIDDEN + 1) * (TABLE_MAX_CONTENDERS + 1));
        for h in 0..=TABLE_MAX_HIDDEN {
            for c in 0..=TABLE_MAX_CONTENDERS {
                settings.push(Self::optimize(phy, rate, h, c, max_payload, cw_choices));
            }
        }
        AdaptationTable { settings }
    }

    /// Grid-argmax of the analytical model for one `(h, c)` cell.
    fn optimize(
        phy: PhyTiming,
        rate: Rate,
        hidden: usize,
        contenders: usize,
        max_payload: u32,
        cw_choices: &[NonZeroU32],
    ) -> TxSetting {
        let mut best = TxSetting {
            cw: cw_choices[0].get(),
            payload_bytes: 100,
            predicted_goodput: f64::MIN,
        };
        for &cw in cw_choices {
            for payload_bytes in payload_candidates().filter(|&p| p <= max_payload) {
                let input = ModelInput {
                    phy,
                    rate,
                    cw,
                    contenders,
                    hidden,
                    payload_bytes,
                    hidden_profile: Some(HIDDEN_PROFILE),
                };
                let goodput = DcfModel::per_node_goodput(&input);
                if goodput > best.predicted_goodput {
                    best = TxSetting {
                        cw: cw.get(),
                        payload_bytes,
                        predicted_goodput: goodput,
                    };
                }
            }
        }
        best
    }

    /// The best setting for `hidden` HTs and `contenders` contending
    /// nodes; out-of-range counts clamp to the table edge.
    pub fn setting(&self, hidden: usize, contenders: usize) -> TxSetting {
        let h = hidden.min(TABLE_MAX_HIDDEN);
        let c = contenders.min(TABLE_MAX_CONTENDERS);
        self.settings[h * (TABLE_MAX_CONTENDERS + 1) + c]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> AdaptationTable {
        AdaptationTable::precompute(PhyTiming::dsss(), Rate::Mbps11, DEFAULT_MAX_PAYLOAD, true)
    }

    #[test]
    fn no_ht_prefers_large_payload_small_window() {
        // Section VI-B: "the highest goodput of a link without HT is
        // achieved with the largest payload length and a small CW size".
        let t = table();
        let s = t.setting(0, 4);
        assert_eq!(
            s.payload_bytes, DEFAULT_MAX_PAYLOAD,
            "largest payload, got {s:?}"
        );
        assert!(s.cw <= 127, "small window, got {s:?}");
    }

    #[test]
    fn many_hts_prefer_short_payload() {
        let t = table();
        let calm = t.setting(0, 4);
        let noisy = t.setting(5, 4);
        assert!(
            noisy.payload_bytes < calm.payload_bytes,
            "payload must shrink with HTs: {calm:?} vs {noisy:?}"
        );
        // Under the heterogeneous model, growing our own window cannot
        // slow down the hidden terminals, so the optimizer must not pick
        // a pointlessly passive window either.
        assert!(
            noisy.cw <= 255,
            "window should stay reactive, got {noisy:?}"
        );
    }

    #[test]
    fn payload_is_monotone_nonincreasing_in_hidden_count() {
        let t = table();
        for c in 0..=5 {
            let mut prev = u32::MAX;
            for h in 0..=5 {
                let s = t.setting(h, c);
                assert!(
                    s.payload_bytes <= prev,
                    "payload grew from {prev} to {} at h={h}, c={c}",
                    s.payload_bytes
                );
                prev = s.payload_bytes;
            }
        }
    }

    #[test]
    fn lookups_clamp_to_edges() {
        let t = table();
        let (h, c) = (TABLE_MAX_HIDDEN, TABLE_MAX_CONTENDERS);
        assert_eq!(t.setting(50, 50), t.setting(h, c));
        assert_eq!(t.setting(0, 99), t.setting(0, c));
    }

    #[test]
    fn predicted_goodput_is_positive_and_consistent() {
        let t = table();
        for h in 0..=5 {
            for c in 0..=5 {
                let s = t.setting(h, c);
                assert!(s.predicted_goodput > 0.0);
                let input = ModelInput {
                    phy: PhyTiming::dsss(),
                    rate: Rate::Mbps11,
                    cw: NonZeroU32::new(s.cw).unwrap(),
                    contenders: c,
                    hidden: h,
                    payload_bytes: s.payload_bytes,
                    hidden_profile: Some(HIDDEN_PROFILE),
                };
                let re = DcfModel::per_node_goodput(&input);
                assert!((re - s.predicted_goodput).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn stored_setting_beats_alternatives() {
        let t = table();
        let s = t.setting(3, 4);
        for &cw in &CW_CANDIDATES {
            for payload_bytes in payload_candidates().filter(|&p| p <= DEFAULT_MAX_PAYLOAD) {
                let input = ModelInput {
                    phy: PhyTiming::dsss(),
                    rate: Rate::Mbps11,
                    cw,
                    contenders: 4,
                    hidden: 3,
                    payload_bytes,
                    hidden_profile: Some(HIDDEN_PROFILE),
                };
                assert!(DcfModel::per_node_goodput(&input) <= s.predicted_goodput + 1e-9);
            }
        }
    }
}
