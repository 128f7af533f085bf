//! Protocol configuration and the paper's two canonical parameter sets.

use serde::{Deserialize, Serialize};

use comap_mac::timing::PhyTiming;
use comap_radio::pathloss::LogNormalShadowing;

use crate::adapt::{AdaptationTable, CW_CANDIDATES};
use crate::model::HiddenProfile;
use comap_radio::prr::ReceptionModel;
use comap_radio::rates::Rate;
use comap_radio::units::{Db, Dbm, Meters};
use comap_radio::NOISE_FLOOR;

/// Default table extents: the paper's Fig. 7 explores up to 5 HTs; we
/// precompute a margin beyond that.
const TABLE_MAX_HIDDEN: usize = 8;
const TABLE_MAX_CONTENDERS: usize = 8;

/// Position-update policy (paper Section V, "Mobility management").
///
/// A node re-broadcasts its position only after moving more than
/// `update_threshold`, set to half of the highest position inaccuracy the
/// protocol is expected to tolerate.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MobilityConfig {
    /// Movement (in meters) beyond which the position is re-reported.
    pub update_threshold: Meters,
}

impl MobilityConfig {
    /// Derives the threshold from the highest tolerated inaccuracy, as the
    /// paper prescribes ("we set it to the half of the highest position
    /// inaccuracy we can tolerate").
    pub fn for_tolerated_inaccuracy(inaccuracy: Meters) -> Self {
        MobilityConfig {
            update_threshold: inaccuracy * 0.5,
        }
    }
}

impl Default for MobilityConfig {
    fn default() -> Self {
        Self::for_tolerated_inaccuracy(Meters::new(10.0))
    }
}

/// Everything CO-MAP needs to turn positions into decisions.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ProtocolConfig {
    /// Transmit power assumed for every node (the paper assumes equal
    /// transmit powers in eq. 2).
    pub tx_power: Dbm,
    /// Propagation environment (eq. 1 parameters).
    pub channel: LogNormalShadowing,
    /// SIR decoding threshold `T_SIR` used in eq. (3).
    pub t_sir: Db,
    /// Concurrency-validation threshold `T_PRR`: a transmission pair is
    /// compatible when both directional PRRs exceed this (95 % in Table I).
    pub t_prr: f64,
    /// Carrier-sense (CCA) threshold `T_cs`.
    pub t_cs: Dbm,
    /// `T'_cs`: the part of `T_cs` not containing the noise floor, used by
    /// the enhanced ET scheduler's RSSI-delta rule.
    pub t_cs_delta: Dbm,
    /// A node is a *potential hidden terminal* when its probability of
    /// missing carrier sense exceeds this (90 % in Section IV-D1).
    pub ht_miss_probability: f64,
    /// PRR threshold below which a neighbor counts as *interfering* for
    /// the census. Stricter than `t_prr` (which guards concurrency):
    /// only neighbors that actually corrupt a meaningful share of frames
    /// should trigger payload shrinking.
    pub census_interference_prr: f64,
    /// PHY timing profile for the analytical model and duration math.
    pub phy: PhyTiming,
    /// Data rate assumed by the analytical model.
    pub model_rate: Rate,
    /// Selective-repeat ARQ send-window size `W_send`.
    pub arq_window: usize,
    /// Position-update policy.
    pub mobility: MobilityConfig,
    /// Behaviour assumed of hidden terminals by the adaptation table.
    /// The equivalent window is calibrated to a *loss-throttled* (TCP-
    /// like) interferer whose overlaps are further thinned by capture —
    /// a stock saturated-DCF profile would overstate the pressure and
    /// shrink payloads too aggressively.
    pub hidden_profile: HiddenProfile,
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
        let t_cs = Dbm::new(-80.0);
        ProtocolConfig {
            tx_power,
            channel: LogNormalShadowing::testbed(tx_power),
            t_sir: Db::new(4.0),
            t_prr: 0.95,
            t_cs,
            t_cs_delta: subtract_noise_floor(t_cs),
            ht_miss_probability: 0.9,
            census_interference_prr: 0.75,
            phy: PhyTiming::dsss(),
            model_rate: Rate::Mbps11,
            arq_window: 8,
            mobility: MobilityConfig::default(),
            hidden_profile: HiddenProfile {
                cw: 511,
                payload_bytes: 1000,
            },
            max_adapted_payload: crate::adapt::DEFAULT_MAX_PAYLOAD,
            adapt_cw: true,
        }
    }

    /// The paper's **large-scale NS-2** configuration (Table I): 6 Mbps,
    /// 20 dBm, `T_PRR = 95 %`, `T_cs = −80 dBm`, `α = 3.3`, `σ = 5 dB`,
    /// `T_SIR = 10`.
    pub fn large_scale() -> Self {
        let tx_power = Dbm::new(20.0);
        let t_cs = Dbm::new(-80.0);
        ProtocolConfig {
            tx_power,
            channel: LogNormalShadowing::large_scale(tx_power),
            t_sir: Db::new(10.0),
            t_prr: 0.95,
            t_cs,
            t_cs_delta: subtract_noise_floor(t_cs),
            ht_miss_probability: 0.9,
            census_interference_prr: 0.75,
            phy: PhyTiming::erp_ofdm(false),
            model_rate: Rate::Mbps6,
            arq_window: 8,
            mobility: MobilityConfig::default(),
            hidden_profile: HiddenProfile {
                cw: 511,
                payload_bytes: 1000,
            },
            max_adapted_payload: 1000,
            adapt_cw: false,
        }
    }

    /// The reception model (channel + `T_SIR`) used by every eq. (3) / (4)
    /// computation.
    pub fn reception(&self) -> ReceptionModel {
        ReceptionModel::new(self.channel, self.t_sir)
    }

    /// The adaptation table this configuration installs: a pure function
    /// of the configuration, so nodes sharing one configuration can share
    /// one table.
    pub fn adaptation_table(&self) -> AdaptationTable {
        AdaptationTable::precompute_with(
            self.phy,
            self.model_rate,
            TABLE_MAX_HIDDEN,
            TABLE_MAX_CONTENDERS,
            self.max_adapted_payload,
            Some(self.hidden_profile),
            if self.adapt_cw { &CW_CANDIDATES } else { &[31] },
        )
    }

    /// Replaces the carrier-sense threshold, keeping `T'_cs` consistent.
    /// Used to calibrate per-site CS sensitivity (the paper's two testbed
    /// floors behave differently).
    pub fn set_t_cs(&mut self, t_cs: Dbm) {
        self.t_cs = t_cs;
        self.t_cs_delta = subtract_noise_floor(t_cs);
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
            (cfg.t_cs_delta.value() - (-80.14)).abs() < 0.01,
            "T'_cs = {}",
            cfg.t_cs_delta
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
        assert_eq!(ls.t_prr, 0.95);
    }

    #[test]
    fn mobility_threshold_is_half_inaccuracy() {
        let m = MobilityConfig::for_tolerated_inaccuracy(Meters::new(10.0));
        assert_eq!(m.update_threshold, Meters::new(5.0));
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
