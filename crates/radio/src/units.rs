//! Strongly-typed radio units.
//!
//! Power levels ([`Dbm`]), power ratios ([`Db`]), linear power
//! ([`MilliWatts`]) and distances ([`Meters`]) are kept apart by the type
//! system so that, e.g., an SIR threshold can never be passed where an
//! absolute power level is expected (C-NEWTYPE).

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

use serde::{Deserialize, Serialize};

/// An absolute radio power level in decibel-milliwatts.
///
/// ```rust
/// use comap_radio::units::{Db, Dbm};
/// let tx = Dbm::new(20.0);
/// let loss = Db::new(60.0);
/// assert_eq!(tx - loss, Dbm::new(-40.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
pub struct Dbm(f64);

/// A relative power ratio (gain or loss) in decibels.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
pub struct Db(f64);

/// A linear power in milliwatts; used when summing interference from
/// several concurrent transmitters, which is only meaningful in the linear
/// domain.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
pub struct MilliWatts(f64);

/// A planar distance in meters.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
pub struct Meters(f64);

impl Dbm {
    /// The smallest representable power, used as "no signal at all".
    pub const MIN: Dbm = Dbm(f64::NEG_INFINITY);

    /// Creates a power level from a raw dBm value.
    pub const fn new(value: f64) -> Self {
        Dbm(value)
    }

    /// Returns the raw dBm value.
    pub const fn value(self) -> f64 {
        self.0
    }

    /// Converts to linear milliwatts.
    ///
    /// ```rust
    /// use comap_radio::units::Dbm;
    /// assert!((Dbm::new(0.0).to_milliwatts().value() - 1.0).abs() < 1e-12);
    /// assert!((Dbm::new(20.0).to_milliwatts().value() - 100.0).abs() < 1e-9);
    /// ```
    pub fn to_milliwatts(self) -> MilliWatts {
        MilliWatts(10f64.powf(self.0 / 10.0))
    }

    /// Returns `true` if this is an actual (finite) power level.
    pub fn is_finite(self) -> bool {
        self.0.is_finite()
    }
}

impl Db {
    /// A zero (unity-gain) ratio.
    pub const ZERO: Db = Db(0.0);

    /// Creates a ratio from a raw dB value.
    pub const fn new(value: f64) -> Self {
        Db(value)
    }

    /// Returns the raw dB value.
    pub const fn value(self) -> f64 {
        self.0
    }

    /// Converts the ratio to a linear factor (`10^(dB/10)`).
    pub fn to_linear(self) -> f64 {
        10f64.powf(self.0 / 10.0)
    }

    /// Builds a ratio from a linear factor.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not strictly positive.
    pub fn from_linear(factor: f64) -> Self {
        assert!(factor > 0.0, "linear ratio must be positive, got {factor}");
        Db(10.0 * factor.log10())
    }
}

impl MilliWatts {
    /// Zero power.
    pub const ZERO: MilliWatts = MilliWatts(0.0);

    /// Creates a linear power from a raw milliwatt value.
    ///
    /// # Panics
    ///
    /// Panics if `value` is negative or NaN.
    pub fn new(value: f64) -> Self {
        assert!(value >= 0.0, "power cannot be negative, got {value}");
        MilliWatts(value)
    }

    /// Returns the raw milliwatt value.
    pub const fn value(self) -> f64 {
        self.0
    }

    /// Converts back to dBm. Zero power maps to [`Dbm::MIN`].
    pub fn to_dbm(self) -> Dbm {
        if self.0 <= 0.0 {
            Dbm::MIN
        } else {
            Dbm(10.0 * self.0.log10())
        }
    }
}

/// A linear power snapped onto an exact integer grid, for drift-free
/// interference ledgers.
///
/// Summing many [`MilliWatts`] with `+=`/`-=` accumulates floating-point
/// residue: after millions of add/remove cycles the running total of a
/// node's ambient power no longer equals the sum over the currently
/// active transmitters. `QuantizedPower` fixes this by quantizing each
/// power once — onto a grid of [`QuantizedPower::STEP_MILLIWATTS`] — and
/// doing all ledger arithmetic in `u128`, where addition and subtraction
/// cancel exactly. A ledger built on grains is a *pure function of the
/// active set*: removing what was added restores the previous value bit
/// for bit.
///
/// The grid step of 1e-30 mW is ~17 orders of magnitude below the
/// faintest power the simulator distinguishes (thermal noise sits near
/// 3e-10 mW), and a u128 holds ~3.4e6 concurrent 100 mW transmitters
/// before saturating — far beyond any simulated scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct QuantizedPower(u128);

impl QuantizedPower {
    /// Zero power.
    pub const ZERO: QuantizedPower = QuantizedPower(0);

    /// Milliwatts represented by one grain of the grid.
    pub const STEP_MILLIWATTS: f64 = 1e-30;

    /// Quantizes a linear power onto the grid (round to nearest grain).
    pub fn from_milliwatts(p: MilliWatts) -> Self {
        QuantizedPower((p.value() / Self::STEP_MILLIWATTS).round() as u128)
    }

    /// The represented power, as the nearest `f64` milliwatt value. This
    /// is a pure function of the grain count, so two ledgers holding the
    /// same active set convert to bit-identical milliwatts.
    pub fn to_milliwatts(self) -> MilliWatts {
        MilliWatts(self.0 as f64 * Self::STEP_MILLIWATTS)
    }

    /// The raw grain count.
    pub const fn grains(self) -> u128 {
        self.0
    }

    /// `true` when no power is recorded.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Absolute difference between two ledger values, in grains.
    pub fn abs_diff(self, other: QuantizedPower) -> u128 {
        self.0.abs_diff(other.0)
    }
}

impl Add for QuantizedPower {
    type Output = QuantizedPower;
    #[expect(
        clippy::expect_used,
        reason = "u128 grains cannot overflow from physical powers; aborting beats a corrupt ledger"
    )]
    fn add(self, rhs: QuantizedPower) -> QuantizedPower {
        QuantizedPower(self.0.checked_add(rhs.0).expect("power ledger overflow"))
    }
}

impl AddAssign for QuantizedPower {
    fn add_assign(&mut self, rhs: QuantizedPower) {
        *self = *self + rhs;
    }
}

impl Sub for QuantizedPower {
    type Output = QuantizedPower;
    /// Exact subtraction. Unlike [`MilliWatts`]'s clamped subtraction,
    /// removing more than was added is a ledger bug, not residue.
    ///
    /// # Panics
    ///
    /// Panics on underflow.
    #[expect(
        clippy::expect_used,
        reason = "underflow means the exact ledger is corrupt; aborting beats silent drift"
    )]
    fn sub(self, rhs: QuantizedPower) -> QuantizedPower {
        QuantizedPower(self.0.checked_sub(rhs.0).expect("power ledger underflow"))
    }
}

impl SubAssign for QuantizedPower {
    fn sub_assign(&mut self, rhs: QuantizedPower) {
        *self = *self - rhs;
    }
}

impl Sum for QuantizedPower {
    fn sum<I: Iterator<Item = QuantizedPower>>(iter: I) -> QuantizedPower {
        iter.fold(QuantizedPower::ZERO, |acc, p| acc + p)
    }
}

impl fmt::Display for QuantizedPower {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({} grains)", self.to_milliwatts(), self.0)
    }
}

impl Meters {
    /// Zero distance.
    pub const ZERO: Meters = Meters(0.0);

    /// Creates a distance from a raw meter value.
    ///
    /// # Panics
    ///
    /// Panics if `value` is negative or NaN.
    pub fn new(value: f64) -> Self {
        assert!(value >= 0.0, "distance cannot be negative, got {value}");
        Meters(value)
    }

    /// Returns the raw meter value.
    pub const fn value(self) -> f64 {
        self.0
    }

    /// Returns the larger of two distances.
    pub fn max(self, other: Meters) -> Meters {
        Meters(self.0.max(other.0))
    }
}

impl Sub for Dbm {
    type Output = Db;
    /// The ratio between two power levels, e.g. a signal-to-interference
    /// ratio.
    fn sub(self, rhs: Dbm) -> Db {
        Db(self.0 - rhs.0)
    }
}

impl Add<Db> for Dbm {
    type Output = Dbm;
    fn add(self, rhs: Db) -> Dbm {
        Dbm(self.0 + rhs.0)
    }
}

impl Sub<Db> for Dbm {
    type Output = Dbm;
    fn sub(self, rhs: Db) -> Dbm {
        Dbm(self.0 - rhs.0)
    }
}

impl Add for Db {
    type Output = Db;
    fn add(self, rhs: Db) -> Db {
        Db(self.0 + rhs.0)
    }
}

impl Sub for Db {
    type Output = Db;
    fn sub(self, rhs: Db) -> Db {
        Db(self.0 - rhs.0)
    }
}

impl Neg for Db {
    type Output = Db;
    fn neg(self) -> Db {
        Db(-self.0)
    }
}

impl Add for MilliWatts {
    type Output = MilliWatts;
    fn add(self, rhs: MilliWatts) -> MilliWatts {
        MilliWatts(self.0 + rhs.0)
    }
}

impl AddAssign for MilliWatts {
    fn add_assign(&mut self, rhs: MilliWatts) {
        self.0 += rhs.0;
    }
}

impl Sub for MilliWatts {
    type Output = MilliWatts;
    /// Clamped subtraction: interference bookkeeping can accumulate tiny
    /// floating-point residue, so differences never go below zero.
    fn sub(self, rhs: MilliWatts) -> MilliWatts {
        MilliWatts((self.0 - rhs.0).max(0.0))
    }
}

impl Sum for MilliWatts {
    fn sum<I: Iterator<Item = MilliWatts>>(iter: I) -> MilliWatts {
        MilliWatts(iter.map(|p| p.0).sum())
    }
}

impl Mul<f64> for Meters {
    type Output = Meters;
    fn mul(self, rhs: f64) -> Meters {
        Meters::new(self.0 * rhs)
    }
}

impl Div for Meters {
    type Output = f64;
    fn div(self, rhs: Meters) -> f64 {
        self.0 / rhs.0
    }
}

impl fmt::Display for Dbm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2} dBm", self.0)
    }
}

impl fmt::Display for Db {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2} dB", self.0)
    }
}

impl fmt::Display for MilliWatts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6} mW", self.0)
    }
}

impl fmt::Display for Meters {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2} m", self.0)
    }
}

impl From<f64> for Meters {
    fn from(value: f64) -> Self {
        Meters::new(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dbm_to_milliwatts_round_trip() {
        for v in [-95.0, -40.0, 0.0, 17.5, 20.0] {
            let p = Dbm::new(v);
            let back = p.to_milliwatts().to_dbm();
            assert!(
                (back.value() - v).abs() < 1e-9,
                "{v} round-tripped to {back}"
            );
        }
    }

    #[test]
    fn zero_milliwatts_is_min_dbm() {
        assert_eq!(MilliWatts::ZERO.to_dbm(), Dbm::MIN);
        assert!(!Dbm::MIN.is_finite());
    }

    #[test]
    fn power_difference_is_a_ratio() {
        let sir = Dbm::new(-60.0) - Dbm::new(-70.0);
        assert_eq!(sir, Db::new(10.0));
        assert!((sir.to_linear() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn db_from_linear_round_trip() {
        for f in [0.01, 0.5, 1.0, 2.0, 1000.0] {
            let db = Db::from_linear(f);
            assert!((db.to_linear() - f).abs() / f < 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn db_from_nonpositive_linear_panics() {
        let _ = Db::from_linear(0.0);
    }

    #[test]
    fn interference_sums_in_linear_domain() {
        // Two equal interferers are +3 dB, not +2x dBm.
        let one = Dbm::new(-80.0).to_milliwatts();
        let sum = one + one;
        assert!((sum.to_dbm().value() - (-80.0 + 3.0103)).abs() < 1e-3);
    }

    #[test]
    fn milliwatt_sum_iterator() {
        let total: MilliWatts = (0..4).map(|_| MilliWatts::new(0.25)).sum();
        assert!((total.value() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn milliwatt_subtraction_clamps_at_zero() {
        let tiny = MilliWatts::new(1.0) - MilliWatts::new(1.0 + 1e-18);
        assert_eq!(tiny.value(), 0.0);
    }

    #[test]
    #[should_panic(expected = "cannot be negative")]
    fn negative_distance_panics() {
        let _ = Meters::new(-1.0);
    }

    #[test]
    fn quantized_add_remove_cycles_cancel_exactly() {
        // The float ledger this type replaces drifts here: repeatedly
        // adding and removing powers of very different magnitudes leaves
        // residue. Grains must cancel bit for bit.
        let strong = QuantizedPower::from_milliwatts(Dbm::new(-40.0).to_milliwatts());
        let faint = QuantizedPower::from_milliwatts(Dbm::new(-120.0).to_milliwatts());
        let mut ledger = QuantizedPower::ZERO;
        ledger += faint;
        for _ in 0..1_000_000 {
            ledger += strong;
            ledger -= strong;
        }
        assert_eq!(ledger, faint);
        assert_eq!(ledger.to_milliwatts(), faint.to_milliwatts());
    }

    #[test]
    fn quantized_round_trip_is_exact_at_radio_scales() {
        for dbm in [-130.0, -95.0, -60.0, -30.0, 0.0, 20.0] {
            let p = Dbm::new(dbm).to_milliwatts();
            let q = QuantizedPower::from_milliwatts(p);
            let back = q.to_milliwatts().value();
            assert!(
                (back - p.value()).abs() <= p.value() * 1e-12,
                "{dbm} dBm: {} vs {back}",
                p.value()
            );
        }
    }

    #[test]
    fn quantized_sum_matches_fold() {
        let parts: Vec<QuantizedPower> = (1..=5)
            .map(|i| QuantizedPower::from_milliwatts(MilliWatts::new(i as f64 * 1e-9)))
            .collect();
        let total: QuantizedPower = parts.iter().copied().sum();
        assert_eq!(
            total.grains(),
            parts.iter().map(|p| p.grains()).sum::<u128>()
        );
        assert!(!total.is_zero() && QuantizedPower::ZERO.is_zero());
    }

    #[test]
    #[should_panic(expected = "ledger underflow")]
    fn quantized_underflow_panics() {
        let a = QuantizedPower::from_milliwatts(MilliWatts::new(1e-10));
        let b = QuantizedPower::from_milliwatts(MilliWatts::new(2e-10));
        let _ = a - b;
    }

    #[test]
    fn display_formats() {
        assert_eq!(Dbm::new(-80.0).to_string(), "-80.00 dBm");
        assert_eq!(Db::new(4.0).to_string(), "4.00 dB");
        assert_eq!(Meters::new(36.0).to_string(), "36.00 m");
    }
}
