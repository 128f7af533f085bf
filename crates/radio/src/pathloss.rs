//! Radio propagation models.
//!
//! The paper (Section IV-B, eq. 1) uses the **log-normal shadowing** model:
//!
//! ```text
//! P(d) [dBm] = P(d₀) [dBm] − 10 α log₁₀(d/d₀) + X_σ
//! ```
//!
//! where `P(d₀)` is the received power at a reference distance `d₀`
//! (measured in the field or computed from the free-space Friis equation),
//! `α` is the path-loss exponent and `X_σ` a zero-mean Gaussian with
//! standard deviation `σ` capturing shadowing by environmental artifacts.

use serde::{Deserialize, Serialize};

use crate::units::{Db, Dbm, Meters};

/// Free-space (Friis) propagation at a given carrier frequency.
///
/// Used to derive the reference power `P(d₀)` when no field measurement is
/// available, exactly as the paper suggests ("calculated using the free
/// space Friis equation").
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FreeSpace {
    /// Carrier frequency in Hz.
    frequency_hz: f64,
}

impl FreeSpace {
    /// Free space at the 2.4 GHz ISM band used by 802.11b/g.
    pub const WIFI_2_4GHZ: FreeSpace = FreeSpace {
        frequency_hz: 2.4e9,
    };

    /// Creates a free-space model for an arbitrary carrier frequency.
    ///
    /// # Panics
    ///
    /// Panics if `frequency_hz` is not strictly positive.
    pub fn new(frequency_hz: f64) -> Self {
        assert!(frequency_hz > 0.0, "carrier frequency must be positive");
        FreeSpace { frequency_hz }
    }

    /// The carrier wavelength in meters.
    pub fn wavelength(self) -> Meters {
        const C: f64 = 299_792_458.0;
        Meters::new(C / self.frequency_hz)
    }

    /// Free-space path loss over `distance` with unity antenna gains:
    /// `20 log₁₀(4πd/λ)`.
    ///
    /// # Panics
    ///
    /// Panics if `distance` is zero.
    pub fn path_loss(self, distance: Meters) -> Db {
        assert!(distance.value() > 0.0, "free-space loss needs d > 0");
        let ratio = 4.0 * std::f64::consts::PI * distance.value() / self.wavelength().value();
        Db::new(20.0 * ratio.log10())
    }

    /// Received power at `distance` for a transmitter at `tx_power`.
    pub fn received_power(self, tx_power: Dbm, distance: Meters) -> Dbm {
        tx_power - self.path_loss(distance)
    }
}

/// The log-normal shadowing propagation model of paper eq. (1).
///
/// The model is fully described by the mean received power at the reference
/// distance (`p_d0`, which already folds in the transmit power), the
/// path-loss exponent `alpha` and the shadowing deviation `sigma`.
///
/// ```rust
/// use comap_radio::{pathloss::LogNormalShadowing, units::{Dbm, Meters}};
/// let chan = LogNormalShadowing::testbed(Dbm::new(0.0));
/// // Mean power decays monotonically with distance.
/// let near = chan.mean_power(Meters::new(5.0));
/// let far = chan.mean_power(Meters::new(50.0));
/// assert!(near > far);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LogNormalShadowing {
    p_d0: Dbm,
    d0: Meters,
    alpha: f64,
    sigma: Db,
}

impl LogNormalShadowing {
    /// Creates a model from an explicit reference power at `d0`.
    ///
    /// # Panics
    ///
    /// Panics if `d0` is zero, `alpha` is not positive, or `sigma` is
    /// negative.
    pub fn new(p_d0: Dbm, d0: Meters, alpha: f64, sigma: Db) -> Self {
        assert!(d0.value() > 0.0, "reference distance must be positive");
        assert!(alpha > 0.0, "path-loss exponent must be positive");
        assert!(
            sigma.value() >= 0.0,
            "shadowing deviation cannot be negative"
        );
        LogNormalShadowing {
            p_d0,
            d0,
            alpha,
            sigma,
        }
    }

    /// Creates a model whose reference power at 1 m comes from the Friis
    /// equation at 2.4 GHz for the given transmit power.
    pub fn from_friis(tx_power: Dbm, alpha: f64, sigma: Db) -> Self {
        let d0 = Meters::new(1.0);
        let p_d0 = FreeSpace::WIFI_2_4GHZ.received_power(tx_power, d0);
        Self::new(p_d0, d0, alpha, sigma)
    }

    /// The paper's **testbed** environment: an 800 m² office with hard
    /// partition panels, measured `α = 2.9` and `σ = 4 dB` (Section VI-A).
    pub fn testbed(tx_power: Dbm) -> Self {
        Self::from_friis(tx_power, 2.9, Db::new(4.0))
    }

    /// The paper's **large-scale** NS-2 environment: an office floor with a
    /// larger area and richer multipath, `α = 3.3` and `σ = 5 dB`
    /// (Table I).
    pub fn large_scale(tx_power: Dbm) -> Self {
        Self::from_friis(tx_power, 3.3, Db::new(5.0))
    }

    /// Mean (median) received power at `distance`, i.e. eq. (1) without the
    /// shadowing term. Distances below the reference distance are clamped
    /// to it, which keeps near-field powers finite.
    pub fn mean_power(&self, distance: Meters) -> Dbm {
        let d = distance.max(self.d0);
        self.p_d0 - Db::new(10.0 * self.alpha * (d / self.d0).log10())
    }

    /// Mean received power of a *link* at `distance`: [`mean_power`]
    /// behind the 1 m near-field clamp every link-cache fill applies.
    /// Two radios cannot be closer than about a meter of usable path,
    /// so the clamp keeps co-located test topologies finite — hoisted
    /// here so the clamp cannot drift between call sites.
    ///
    /// [`mean_power`]: LogNormalShadowing::mean_power
    pub fn link_mean_at(&self, distance: Meters) -> Dbm {
        self.mean_power(distance.max(Meters::new(1.0)))
    }

    /// Mean received power at the reference distance.
    pub fn reference_power(&self) -> Dbm {
        self.p_d0
    }

    /// The reference distance `d₀`.
    pub fn reference_distance(&self) -> Meters {
        self.d0
    }

    /// The path-loss exponent `α`.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// The shadowing standard deviation `σ`.
    pub fn sigma(&self) -> Db {
        self.sigma
    }

    /// The distance at which the *mean* received power falls to `threshold`
    /// — e.g. the nominal carrier-sense or communication range. Returns the
    /// reference distance if the threshold is already exceeded there.
    pub fn range_for_threshold(&self, threshold: Dbm) -> Meters {
        let margin = (self.p_d0 - threshold).value();
        if margin <= 0.0 {
            return self.d0;
        }
        Meters::new(self.d0.value() * 10f64.powf(margin / (10.0 * self.alpha)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn friis_loss_at_one_meter_2_4ghz() {
        // 20 log10(4π/0.1249) ≈ 40.05 dB
        let loss = FreeSpace::WIFI_2_4GHZ.path_loss(Meters::new(1.0));
        assert!((loss.value() - 40.05).abs() < 0.05, "loss = {loss}");
    }

    #[test]
    fn friis_loss_grows_20db_per_decade() {
        let fs = FreeSpace::WIFI_2_4GHZ;
        let l10 = fs.path_loss(Meters::new(10.0));
        let l100 = fs.path_loss(Meters::new(100.0));
        assert!(((l100 - l10).value() - 20.0).abs() < 1e-9);
    }

    #[test]
    fn mean_power_decays_alpha_decibels_per_decade() {
        let chan = LogNormalShadowing::from_friis(Dbm::new(0.0), 2.9, Db::new(0.0));
        let p10 = chan.mean_power(Meters::new(10.0));
        let p100 = chan.mean_power(Meters::new(100.0));
        assert!(((p10 - p100).value() - 29.0).abs() < 1e-9);
    }

    #[test]
    fn distances_below_reference_are_clamped() {
        let chan = LogNormalShadowing::testbed(Dbm::new(0.0));
        assert_eq!(chan.mean_power(Meters::ZERO), chan.reference_power());
        assert_eq!(chan.mean_power(Meters::new(0.5)), chan.reference_power());
    }

    #[test]
    fn link_mean_clamps_the_near_field_to_one_meter() {
        let chan = LogNormalShadowing::testbed(Dbm::new(0.0));
        let at_1m = chan.link_mean_at(Meters::new(1.0));
        assert_eq!(chan.link_mean_at(Meters::ZERO), at_1m);
        assert_eq!(chan.link_mean_at(Meters::new(0.2)), at_1m);
        // Beyond the clamp the helper is plain mean_power.
        assert_eq!(
            chan.link_mean_at(Meters::new(35.0)),
            chan.mean_power(Meters::new(35.0))
        );
    }

    #[test]
    fn range_inverts_mean_power() {
        let chan = LogNormalShadowing::large_scale(Dbm::new(20.0));
        let range = chan.range_for_threshold(Dbm::new(-80.0));
        let power = chan.mean_power(range);
        assert!(
            (power.value() - (-80.0)).abs() < 1e-9,
            "power at range = {power}"
        );
    }

    #[test]
    fn testbed_cs_range_is_plausible() {
        // 0 dBm tx, α = 2.9: the mean CS range at −82 dBm should be tens of
        // meters — the scale at which the paper's ET region (20–34 m) lives.
        let chan = LogNormalShadowing::testbed(Dbm::new(0.0));
        let r = chan.range_for_threshold(Dbm::new(-82.0)).value();
        assert!(r > 15.0 && r < 50.0, "CS range = {r} m");
    }

    #[test]
    #[should_panic(expected = "exponent must be positive")]
    fn invalid_alpha_panics() {
        let _ = LogNormalShadowing::from_friis(Dbm::new(0.0), 0.0, Db::ZERO);
    }
}
