//! Packet-reception and carrier-sense probabilities (paper eqs. 2–4).
//!
//! These closed forms are the analytical heart of CO-MAP: a node converts
//! the *positions* of its neighbors into *interference relations* without
//! any trial transmissions.
//!
//! With both senders at equal transmit power and log-normal shadowing, the
//! SIR at a receiver `d` meters from its sender and `r` meters from an
//! interferer is `−10 α log₁₀(d/r) + (X_σ − X'_σ)`, where the two shadowing
//! draws are independent. The composed variable is Gaussian with deviation
//! `√2 σ`, giving eq. (3):
//!
//! ```text
//! PRR = 1 − Φ( (T_SIR + 10 α log₁₀(d/r)) / (√2 σ) )
//! ```
//!
//! and eq. (4) for the probability that a neighbor at distance `r` *cannot*
//! carrier-sense a sender:
//!
//! ```text
//! Pr{P_r < T_cs} = Φ( (T_cs − P_d₀ + 10 α log₁₀(r/d₀)) / σ )
//! ```

use serde::{Deserialize, Serialize};

use crate::math::std_normal_cdf;
use crate::pathloss::LogNormalShadowing;
use crate::units::{Db, Dbm, Meters};

/// The probabilistic reception model of paper Section IV-B.
///
/// Bundles a propagation environment with the SIR decoding threshold
/// `T_SIR`, and exposes eq. (3) / eq. (4) as methods.
///
/// ```rust
/// use comap_radio::{ReceptionModel, LogNormalShadowing,
///                   units::{Db, Dbm, Meters}};
/// let model = ReceptionModel::new(
///     LogNormalShadowing::testbed(Dbm::new(0.0)), Db::new(4.0));
/// // An interferer much closer to the receiver than the sender is fatal…
/// assert!(model.prr(Meters::new(30.0), Meters::new(3.0)) < 0.05);
/// // …while a remote one is harmless.
/// assert!(model.prr(Meters::new(3.0), Meters::new(200.0)) > 0.99);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ReceptionModel {
    channel: LogNormalShadowing,
    t_sir: Db,
}

impl ReceptionModel {
    /// Creates a reception model over `channel` with decoding threshold
    /// `t_sir` (the paper uses 4 dB for the lowest 802.11b rate and 10 for
    /// the NS-2 experiments, Table I).
    pub fn new(channel: LogNormalShadowing, t_sir: Db) -> Self {
        ReceptionModel { channel, t_sir }
    }

    /// The underlying propagation model.
    pub fn channel(&self) -> &LogNormalShadowing {
        &self.channel
    }

    /// The SIR decoding threshold `T_SIR`.
    pub fn t_sir(&self) -> Db {
        self.t_sir
    }

    /// Eq. (3): probability that a packet over a link of length `d` is
    /// received despite one concurrent interferer `r` meters from the
    /// receiver (equal transmit powers).
    ///
    /// # Panics
    ///
    /// Panics if `r` is zero (an interferer colocated with the receiver).
    pub fn prr(&self, d: Meters, r: Meters) -> f64 {
        assert!(r.value() > 0.0, "interferer distance must be positive");
        let d = d.max(self.channel.reference_distance());
        let r = r.max(self.channel.reference_distance());
        let sigma = self.channel.sigma().value();
        let arg = self.t_sir.value() + 10.0 * self.channel.alpha() * (d / r).log10();
        // A standard deviation is non-negative; zero means deterministic.
        if sigma <= 0.0 {
            // Deterministic channel: step function.
            return if arg > 0.0 { 0.0 } else { 1.0 };
        }
        1.0 - std_normal_cdf(arg / (std::f64::consts::SQRT_2 * sigma))
    }

    /// Eq. (4): probability that a node `r` meters from a sender receives
    /// its signal below the carrier-sense threshold `t_cs` — i.e. *fails*
    /// to detect the transmission.
    pub fn cs_miss_probability(&self, r: Meters, t_cs: Dbm) -> f64 {
        let r = r.max(self.channel.reference_distance());
        let sigma = self.channel.sigma().value();
        let mean = self.channel.mean_power(r); // P_d0 − 10 α log10(r/d0)
        let arg = (t_cs - mean).value();
        // A standard deviation is non-negative; zero means deterministic.
        if sigma <= 0.0 {
            return if arg > 0.0 { 1.0 } else { 0.0 };
        }
        std_normal_cdf(arg / sigma)
    }

    /// The distance beyond which [`Self::cs_miss_probability`] exceeds
    /// `p` — the paper's probabilistic carrier-sense range (a node is a
    /// *potential hidden terminal* when `Pr{P_r < T_cs} > 90 %`).
    ///
    /// Solved in closed form: the miss probability is monotonically
    /// increasing in `r`, so invert eq. (4) at `Φ⁻¹(p)`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < p < 1`.
    pub fn cs_range_for_miss_probability(&self, t_cs: Dbm, p: f64) -> Meters {
        let z = crate::math::std_normal_quantile(p);
        // T_cs − P(d0) + 10 α log10(r/d0) = z σ
        let margin =
            (self.channel.reference_power() - t_cs).value() + z * self.channel.sigma().value();
        if margin <= 0.0 {
            return self.channel.reference_distance();
        }
        Meters::new(
            self.channel.reference_distance().value()
                * 10f64.powf(margin / (10.0 * self.channel.alpha())),
        )
    }

    /// The distance inside which an interferer drives PRR on a `d`-meter
    /// link below `threshold` — the paper's *interference range* used when
    /// enumerating potential hidden terminals.
    ///
    /// Solved in closed form from eq. (3).
    ///
    /// # Panics
    ///
    /// Panics unless `0 < threshold < 1`.
    pub fn interference_range(&self, d: Meters, threshold: f64) -> Meters {
        assert!(
            threshold > 0.0 && threshold < 1.0,
            "PRR threshold must be in (0, 1)"
        );
        let d = d.max(self.channel.reference_distance());
        let sigma = self.channel.sigma().value();
        // PRR = threshold  ⇔  (T_sir + 10α log10(d/r)) / (√2 σ) = Φ⁻¹(1 − threshold)
        let z = crate::math::std_normal_quantile(1.0 - threshold);
        let log_ratio = (z * std::f64::consts::SQRT_2 * sigma - self.t_sir.value())
            / (10.0 * self.channel.alpha());
        // log10(d/r) = log_ratio  ⇒  r = d / 10^log_ratio
        Meters::new(d.value() / 10f64.powf(log_ratio))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> ReceptionModel {
        ReceptionModel::new(LogNormalShadowing::testbed(Dbm::new(0.0)), Db::new(4.0))
    }

    #[test]
    fn prr_is_a_probability() {
        let m = model();
        for d in [1.0, 5.0, 15.0, 40.0] {
            for r in [1.0, 5.0, 15.0, 40.0, 100.0] {
                let p = m.prr(Meters::new(d), Meters::new(r));
                assert!((0.0..=1.0).contains(&p), "prr({d},{r}) = {p}");
            }
        }
    }

    #[test]
    fn prr_improves_as_interferer_recedes() {
        let m = model();
        let d = Meters::new(15.0);
        let mut prev = 0.0;
        for r in [2.0, 5.0, 10.0, 20.0, 40.0, 80.0, 160.0] {
            let p = m.prr(d, Meters::new(r));
            assert!(p >= prev, "PRR not monotone at r = {r}");
            prev = p;
        }
    }

    #[test]
    fn prr_degrades_with_longer_links() {
        let m = model();
        let r = Meters::new(30.0);
        let near = m.prr(Meters::new(5.0), r);
        let far = m.prr(Meters::new(25.0), r);
        assert!(near > far);
    }

    #[test]
    fn equal_distances_give_fixed_quantile() {
        // d == r ⇒ PRR = 1 − Φ(T_sir / (√2 σ)); for T_sir = 4, σ = 4:
        // 1 − Φ(0.7071) ≈ 0.2398.
        let m = model();
        let p = m.prr(Meters::new(20.0), Meters::new(20.0));
        assert!((p - 0.2398).abs() < 1e-3, "p = {p}");
    }

    #[test]
    fn deterministic_channel_is_a_step() {
        let chan = LogNormalShadowing::from_friis(Dbm::new(0.0), 3.0, Db::ZERO);
        let m = ReceptionModel::new(chan, Db::new(4.0));
        // d/r small (strong signal): success; d/r large: failure.
        assert_eq!(m.prr(Meters::new(5.0), Meters::new(50.0)), 1.0);
        assert_eq!(m.prr(Meters::new(50.0), Meters::new(5.0)), 0.0);
    }

    #[test]
    fn cs_miss_probability_grows_with_distance() {
        let m = model();
        let t_cs = Dbm::new(-82.0);
        let mut prev = 0.0;
        for r in [5.0, 10.0, 20.0, 30.0, 50.0, 80.0] {
            let p = m.cs_miss_probability(Meters::new(r), t_cs);
            assert!(p >= prev, "not monotone at {r}");
            prev = p;
        }
        assert!(m.cs_miss_probability(Meters::new(5.0), t_cs) < 0.01);
        assert!(m.cs_miss_probability(Meters::new(200.0), t_cs) > 0.99);
    }

    #[test]
    fn cs_range_inverts_miss_probability() {
        let m = model();
        let t_cs = Dbm::new(-82.0);
        for p in [0.1, 0.5, 0.9] {
            let r = m.cs_range_for_miss_probability(t_cs, p);
            let back = m.cs_miss_probability(r, t_cs);
            assert!((back - p).abs() < 1e-9, "p = {p}: r = {r}, back = {back}");
        }
    }

    #[test]
    fn cs_range_at_half_matches_mean_range() {
        // At p = 0.5 the probabilistic range equals the mean-power range.
        let m = model();
        let t_cs = Dbm::new(-82.0);
        let r = m.cs_range_for_miss_probability(t_cs, 0.5);
        let mean_range = m.channel().range_for_threshold(t_cs);
        assert!((r.value() - mean_range.value()).abs() < 1e-6);
    }

    #[test]
    fn interference_range_inverts_prr() {
        let m = model();
        let d = Meters::new(15.0);
        for threshold in [0.5, 0.9, 0.95] {
            let r = m.interference_range(d, threshold);
            let back = m.prr(d, r);
            assert!(
                (back - threshold).abs() < 1e-9,
                "threshold {threshold}: r = {r}"
            );
        }
    }

    #[test]
    fn interference_range_grows_with_stricter_threshold() {
        let m = model();
        let d = Meters::new(15.0);
        let loose = m.interference_range(d, 0.5);
        let strict = m.interference_range(d, 0.95);
        assert!(strict > loose);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn colocated_interferer_panics() {
        let _ = model().prr(Meters::new(10.0), Meters::ZERO);
    }
}
