//! Integer-nanosecond simulation time.
//!
//! All MAC timing (slots, interframe spaces, frame airtimes) is expressed
//! as integral nanoseconds, which keeps event ordering exact — two events
//! scheduled at the same instant compare equal instead of drifting apart by
//! floating-point residue.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

use serde::{Deserialize, Serialize};

/// An absolute instant on the simulation clock, in nanoseconds since the
/// start of the run.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimTime(u64);

/// A span of simulated time, in nanoseconds.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimDuration(u64);

impl SimTime {
    /// The start of the simulation.
    pub const ZERO: SimTime = SimTime(0);

    /// Creates an instant from raw nanoseconds.
    pub const fn from_nanos(nanos: u64) -> Self {
        SimTime(nanos)
    }

    /// Raw nanoseconds since simulation start.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds since simulation start, as a float (for reporting only).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// The time elapsed since `earlier`, clamped at zero when `earlier`
    /// is in the future.
    pub fn saturating_duration_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Creates a duration from raw nanoseconds.
    pub const fn from_nanos(nanos: u64) -> Self {
        SimDuration(nanos)
    }

    /// Creates a duration from microseconds.
    pub const fn from_micros(micros: u64) -> Self {
        SimDuration(micros * 1_000)
    }

    /// Creates a duration from milliseconds.
    pub const fn from_millis(millis: u64) -> Self {
        SimDuration(millis * 1_000_000)
    }

    /// Creates a duration from whole seconds.
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration(secs * 1_000_000_000)
    }

    /// Creates a duration from fractional seconds, rounding to nanoseconds.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative or not finite.
    pub fn from_secs_f64(secs: f64) -> Self {
        assert!(secs.is_finite() && secs >= 0.0, "invalid duration {secs}");
        SimDuration((secs * 1e9).round() as u64)
    }

    /// Raw nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Whole microseconds, rounding to nearest.
    pub const fn as_micros_round(self) -> u64 {
        (self.0 + 500) / 1_000
    }

    /// Seconds as a float (for reporting only).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// `true` if this is the zero duration.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Integer division with ceiling, e.g. "how many whole slots cover this
    /// span".
    ///
    /// # Panics
    ///
    /// Panics if `unit` is zero.
    pub fn div_ceil(self, unit: SimDuration) -> u64 {
        assert!(unit.0 > 0, "division by zero duration");
        self.0.div_ceil(unit.0)
    }

    /// The larger of two durations.
    pub fn max(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.max(other.0))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    /// Saturating subtraction: durations never go negative.
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Div<SimDuration> for SimDuration {
    type Output = u64;
    /// Truncating division: how many whole `rhs` fit in `self`.
    fn div(self, rhs: SimDuration) -> u64 {
        assert!(rhs.0 > 0, "division by zero duration");
        self.0 / rhs.0
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        SimDuration(iter.map(|d| d.0).sum())
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.0 as f64 / 1e6)
        } else {
            write!(f, "{}µs", self.0 as f64 / 1e3)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_units_agree() {
        assert_eq!(SimDuration::from_micros(1), SimDuration::from_nanos(1_000));
        assert_eq!(SimDuration::from_millis(1), SimDuration::from_micros(1_000));
        assert_eq!(SimDuration::from_secs(1), SimDuration::from_millis(1_000));
        assert_eq!(
            SimDuration::from_secs_f64(0.5),
            SimDuration::from_millis(500)
        );
    }

    #[test]
    fn time_arithmetic() {
        let t = SimTime::ZERO + SimDuration::from_micros(50);
        assert_eq!(t.as_nanos(), 50_000);
        assert_eq!(
            t.saturating_duration_since(SimTime::ZERO),
            SimDuration::from_micros(50)
        );
        assert_eq!(
            SimTime::ZERO.saturating_duration_since(t),
            SimDuration::ZERO
        );
    }

    #[test]
    fn duration_subtraction_saturates() {
        let a = SimDuration::from_micros(10);
        let b = SimDuration::from_micros(20);
        assert_eq!(a - b, SimDuration::ZERO);
        assert_eq!(b - a, SimDuration::from_micros(10));
    }

    #[test]
    fn slot_division() {
        let slot = SimDuration::from_micros(20);
        assert_eq!(SimDuration::from_micros(100) / slot, 5);
        assert_eq!(SimDuration::from_micros(119) / slot, 5);
        assert_eq!(SimDuration::from_micros(119).div_ceil(slot), 6);
        assert_eq!(SimDuration::from_micros(100).div_ceil(slot), 5);
    }

    #[test]
    fn micros_rounding() {
        assert_eq!(SimDuration::from_nanos(1_499).as_micros_round(), 1);
        assert_eq!(SimDuration::from_nanos(1_500).as_micros_round(), 2);
    }

    #[test]
    fn display_is_readable() {
        assert_eq!(SimDuration::from_micros(50).to_string(), "50µs");
        assert_eq!(SimDuration::from_millis(2).to_string(), "2.000ms");
    }
}
