//! Protocol configuration: the paper's fixed protocol parameters as
//! named constants, and its two canonical parameter sets.
//!
//! A parameter that the paper fixes and no experiment varies is a
//! constant here ([`T_PRR`], [`HT_MISS_PROBABILITY`],
//! [`CENSUS_INTERFERENCE_PRR`], [`HIDDEN_PROFILE`],
//! [`UPDATE_THRESHOLD_M`]); [`ProtocolConfig`] holds only what the two
//! presets or the experiments set differently.

use serde::{Deserialize, Serialize};

use comap_mac::timing::PhyTiming;
use comap_radio::pathloss::LogNormalShadowing;

use crate::adapt::AdaptationTable;
use crate::model::HiddenProfile;
use comap_radio::prr::ReceptionModel;
use comap_radio::rates::Rate;
use comap_radio::units::{Db, Dbm};
use comap_radio::NOISE_FLOOR;

/// Concurrency-validation threshold `T_PRR` (Table I): a transmission
/// pair is compatible when both directional PRRs reach it.
pub const T_PRR: f64 = 0.95;

/// A node is a *potential hidden terminal* when its probability of
/// missing carrier sense exceeds this (Section IV-D1: "> 90 %").
pub const HT_MISS_PROBABILITY: f64 = 0.9;

/// PRR threshold below which a neighbor counts as *interfering* for the
/// hidden-terminal census (Section IV-D1, condition 1). Stricter than
/// [`T_PRR`] (which guards concurrency): only neighbors that actually
/// corrupt a meaningful share of frames should trigger payload shrinking.
pub const CENSUS_INTERFERENCE_PRR: f64 = 0.75;

/// Behaviour assumed of hidden terminals by the adaptation table
/// (Section IV-D3). The equivalent window is calibrated to a
/// *loss-throttled* (TCP-like) interferer whose overlaps are further
/// thinned by capture — a stock saturated-DCF profile would overstate
/// the pressure and shrink payloads too aggressively.
pub const HIDDEN_PROFILE: HiddenProfile = HiddenProfile {
    cw: 511,
    payload_bytes: 1000,
};

/// Movement, in metres, beyond which a position is re-reported and a
/// neighbor's table entry replaced (Section V, "Mobility management":
/// "half of the highest position inaccuracy we can tolerate", which is
/// 10 m).
pub const UPDATE_THRESHOLD_M: f64 = 5.0;

/// Everything CO-MAP needs to turn positions into decisions that the
/// presets or the experiments set.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ProtocolConfig {
    /// Transmit power assumed for every node (the paper assumes equal
    /// transmit powers in eq. 2).
    pub tx_power: Dbm,
    /// Propagation environment (eq. 1 parameters).
    pub channel: LogNormalShadowing,
    /// SIR decoding threshold `T_SIR` used in eq. (3).
    pub t_sir: Db,
    /// Carrier-sense (CCA) threshold `T_cs`.
    pub t_cs: Dbm,
    /// PHY timing profile for the analytical model and duration math.
    pub phy: PhyTiming,
    /// Data rate assumed by the analytical model.
    pub model_rate: Rate,
    /// Selective-repeat ARQ send-window size `W_send`.
    pub arq_window: usize,
    /// Ceiling on the payload sizes the adaptation table may install.
    /// Bounded by the application's datagram size: a CBR/VoIP source
    /// cannot be coalesced into bigger MPDUs without violating latency.
    pub max_adapted_payload: u32,
    /// Whether the adaptation table may change the contention window as
    /// well as the payload. The window dimension is only beneficial in
    /// isolated cells (the model's world, Fig. 7); in multi-cell
    /// deployments with partial carrier sense it backfires, so the
    /// large-scale preset adapts payload only.
    pub adapt_cw: bool,
}

impl ProtocolConfig {
    /// The paper's **testbed** configuration (Section VI-A): 0 dBm transmit
    /// power, `α = 2.9`, `σ = 4 dB`, `T_SIR = 4` (lowest rate), DSSS PHY.
    /// The CCA threshold is −80 dBm: with the measured `α = 2.9`,
    /// `σ = 4 dB` office channel this puts the 90 % CS-miss boundary at
    /// ≈ 36 m — just inside the paper's 37 m hidden-terminal placement
    /// (Fig. 2), which is how the authors' geometry classifies correctly.
    pub fn testbed() -> Self {
        let tx_power = Dbm::new(0.0);
        ProtocolConfig {
            tx_power,
            channel: LogNormalShadowing::testbed(tx_power),
            t_sir: Db::new(4.0),
            t_cs: Dbm::new(-80.0),
            phy: PhyTiming::dsss(),
            model_rate: Rate::Mbps11,
            arq_window: 8,
            max_adapted_payload: crate::adapt::DEFAULT_MAX_PAYLOAD,
            adapt_cw: true,
        }
    }

    /// The paper's **large-scale NS-2** configuration (Table I): 6 Mbps,
    /// 20 dBm, `T_PRR = 95 %`, `T_cs = −80 dBm`, `α = 3.3`, `σ = 5 dB`,
    /// `T_SIR = 10`.
    pub fn large_scale() -> Self {
        let tx_power = Dbm::new(20.0);
        ProtocolConfig {
            tx_power,
            channel: LogNormalShadowing::large_scale(tx_power),
            t_sir: Db::new(10.0),
            t_cs: Dbm::new(-80.0),
            phy: PhyTiming::erp_ofdm(),
            model_rate: Rate::Mbps6,
            arq_window: 8,
            max_adapted_payload: 1000,
            adapt_cw: false,
        }
    }

    /// The reception model (channel + `T_SIR`) used by every eq. (3) / (4)
    /// computation.
    pub fn reception(&self) -> ReceptionModel {
        ReceptionModel::new(self.channel, self.t_sir)
    }

    /// `T'_cs`: the part of `T_cs` not containing the noise floor, used
    /// by the enhanced ET scheduler's RSSI-delta rule.
    pub fn t_cs_delta(&self) -> Dbm {
        subtract_noise_floor(self.t_cs)
    }

    /// The adaptation table this configuration installs: a pure function
    /// of the configuration, so nodes sharing one configuration can share
    /// one table.
    pub fn adaptation_table(&self) -> AdaptationTable {
        AdaptationTable::precompute(
            self.phy,
            self.model_rate,
            self.max_adapted_payload,
            self.adapt_cw,
        )
    }
}

/// `T'_cs` — removes the noise-floor power from a CCA threshold, leaving
/// the pure signal component (Table I lists `T_cs = −80 dBm` alongside
/// `T'_cs = −80.14 dBm`, which is exactly this subtraction).
fn subtract_noise_floor(t_cs: Dbm) -> Dbm {
    (t_cs.to_milliwatts() - NOISE_FLOOR.to_milliwatts()).to_dbm()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_t_cs_delta_matches_paper() {
        // Table I: T_cs = −80 dBm, T'_cs = −80.14 dBm.
        let cfg = ProtocolConfig::large_scale();
        assert!(
            (cfg.t_cs_delta().value() - (-80.14)).abs() < 0.01,
            "T'_cs = {}",
            cfg.t_cs_delta()
        );
    }

    #[test]
    fn presets_match_paper_sections() {
        let tb = ProtocolConfig::testbed();
        assert_eq!(tb.channel.alpha(), 2.9);
        assert_eq!(tb.channel.sigma(), Db::new(4.0));
        assert_eq!(tb.t_sir, Db::new(4.0));

        let ls = ProtocolConfig::large_scale();
        assert_eq!(ls.channel.alpha(), 3.3);
        assert_eq!(ls.channel.sigma(), Db::new(5.0));
        assert_eq!(ls.t_sir, Db::new(10.0));
        assert_eq!(ls.tx_power, Dbm::new(20.0));
        assert_eq!(ls.model_rate, Rate::Mbps6);
    }

    #[test]
    fn noise_subtraction_is_small_for_high_thresholds() {
        let t = subtract_noise_floor(Dbm::new(-60.0));
        assert!((t.value() - (-60.0)).abs() < 0.01);
    }

    #[test]
    fn reception_model_uses_config_threshold() {
        let cfg = ProtocolConfig::testbed();
        assert_eq!(cfg.reception().t_sir(), cfg.t_sir);
    }
}
