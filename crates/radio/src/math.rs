//! Special functions used by the reception model.
//!
//! The paper's eqs. (3) and (4) are stated in terms of `Φ`, the cumulative
//! distribution function of the standard normal distribution. `f64` has no
//! built-in `erf`, so we implement one from two classical, individually
//! verifiable pieces: the Maclaurin series of `erf` for small arguments and
//! the Legendre continued fraction of `erfc` for the tails (evaluated with
//! the modified Lentz algorithm). Both converge to full `f64` precision in
//! the ranges where they are used.

/// Crossover point between the series and the continued fraction.
const SPLIT: f64 = 1.5;

/// The error function `erf(x) = 2/√π ∫₀ˣ e^(−t²) dt`.
///
/// ```rust
/// use comap_radio::math::erf;
/// assert!((erf(0.0)).abs() < 1e-15);
/// assert!((erf(1.0) - 0.8427007929497149).abs() < 1e-12);
/// ```
pub fn erf(x: f64) -> f64 {
    if x.is_nan() {
        return f64::NAN;
    }
    if x.abs() <= SPLIT {
        erf_series(x)
    } else if x > 0.0 {
        1.0 - erfc_cf(x)
    } else {
        erfc_cf(-x) - 1.0
    }
}

/// The complementary error function `erfc(x) = 1 − erf(x)`, accurate for
/// large positive arguments where `1 − erf(x)` would lose all precision.
///
/// ```rust
/// use comap_radio::math::erfc;
/// assert!(erfc(6.0) > 0.0 && erfc(6.0) < 1e-15);
/// ```
pub fn erfc(x: f64) -> f64 {
    if x.is_nan() {
        return f64::NAN;
    }
    if x > SPLIT {
        erfc_cf(x)
    } else if x >= -SPLIT {
        1.0 - erf_series(x)
    } else {
        2.0 - erfc_cf(-x)
    }
}

/// Maclaurin series `erf(x) = 2/√π Σ (−1)ⁿ x^(2n+1) / (n! (2n+1))`.
///
/// For `|x| ≤ 1.5` the terms shrink fast enough that 40 terms reach full
/// precision; we stop once a term no longer changes the sum.
#[expect(
    clippy::float_cmp,
    reason = "convergence is exactly the point where adding a term no longer changes the sum"
)]
fn erf_series(x: f64) -> f64 {
    let x2 = x * x;
    let mut term = x; // x^(2n+1) / n!
    let mut sum = x; // accumulates term / (2n+1)
    for n in 1..200 {
        term *= -x2 / n as f64;
        let contribution = term / (2 * n + 1) as f64;
        let new_sum = sum + contribution;
        if new_sum == sum {
            break;
        }
        sum = new_sum;
    }
    sum * 2.0 / std::f64::consts::PI.sqrt()
}

/// Legendre continued fraction
/// `erfc(x) = e^(−x²)/√π · 1/(x + (1/2)/(x + (2/2)/(x + (3/2)/(x + …))))`
/// for `x > 0`, evaluated with the modified Lentz algorithm.
fn erfc_cf(x: f64) -> f64 {
    debug_assert!(x > 0.0);
    if x > 27.0 {
        // exp(-x^2) underflows to 0 well before this point.
        return 0.0;
    }
    const TINY: f64 = 1e-300;
    let mut f = x;
    let mut c = x;
    let mut d = 0.0;
    for n in 1..500 {
        let a = n as f64 / 2.0;
        // b coefficients alternate x, x, x... in this form: each level is
        // x + a_n / (next). Modified Lentz with b = x, a = n/2.
        d = x + a * d;
        if d.abs() < TINY {
            d = TINY;
        }
        c = x + a / c;
        if c.abs() < TINY {
            c = TINY;
        }
        d = 1.0 / d;
        let delta = c * d;
        f *= delta;
        if (delta - 1.0).abs() < 1e-17 {
            break;
        }
    }
    (-x * x).exp() / (std::f64::consts::PI.sqrt() * f)
}

/// The standard normal cumulative distribution function
/// `Φ(x) = (1/√2π) ∫_{−∞}^{x} e^(−t²/2) dt`.
///
/// ```rust
/// use comap_radio::math::std_normal_cdf;
/// assert!((std_normal_cdf(0.0) - 0.5).abs() < 1e-15);
/// assert!((std_normal_cdf(1.96) - 0.975).abs() < 1e-3);
/// ```
pub fn std_normal_cdf(x: f64) -> f64 {
    0.5 * erfc(-x / std::f64::consts::SQRT_2)
}

/// The inverse of [`std_normal_cdf`] (the probit function), an initial
/// rational guess refined with Newton steps. Used to convert probability
/// thresholds such as the paper's "`Pr{P_r < T_cs} > 90 %`" hidden-terminal
/// criterion into equivalent power margins.
///
/// # Panics
///
/// Panics unless `0 < p < 1`.
pub fn std_normal_quantile(p: f64) -> f64 {
    assert!(p > 0.0 && p < 1.0, "quantile requires 0 < p < 1, got {p}");
    let mut x = {
        let q = p - 0.5;
        if q.abs() <= 0.425 {
            let r = 0.180625 - q * q;
            q * (2.5066282388 + 30.0 * r) / (1.0 + 10.0 * r)
        } else {
            let r = if q < 0.0 { p } else { 1.0 - p };
            let t = (-2.0 * r.ln()).sqrt();
            let sign = if q < 0.0 { -1.0 } else { 1.0 };
            sign * (t - (2.30753 + 0.27061 * t) / (1.0 + 0.99229 * t + 0.04481 * t * t))
        }
    };
    for _ in 0..60 {
        let f = std_normal_cdf(x) - p;
        let pdf = (-0.5 * x * x).exp() / (2.0 * std::f64::consts::PI).sqrt();
        if pdf < 1e-300 {
            break;
        }
        let step = f / pdf;
        x -= step;
        if step.abs() < 1e-14 {
            break;
        }
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;

    // Reference values from Abramowitz & Stegun table 7.1 and scipy.
    const ERF_TABLE: &[(f64, f64)] = &[
        (0.0, 0.0),
        (0.1, 0.1124629160182849),
        (0.5, 0.5204998778130465),
        (1.0, 0.8427007929497149),
        (1.5, 0.9661051464753107),
        (2.0, 0.9953222650189527),
        (3.0, 0.9999779095030014),
        (4.0, 0.9999999845827421),
    ];

    #[test]
    fn erf_matches_reference_values() {
        for &(x, want) in ERF_TABLE {
            let got = erf(x);
            assert!((got - want).abs() < 1e-12, "erf({x}) = {got}, want {want}");
            assert!((erf(-x) + want).abs() < 1e-12, "erf is odd at {x}");
        }
    }

    #[test]
    fn erfc_complements_erf() {
        for x in [
            -3.0, -1.6, -1.0, -0.2, 0.0, 0.3, 1.4, 1.5, 1.6, 1.7, 3.9, 5.0,
        ] {
            assert!((erf(x) + erfc(x) - 1.0).abs() < 1e-12, "at {x}");
        }
    }

    #[test]
    fn erfc_tail_is_accurate() {
        // scipy: erfc(6) = 2.1519736712498913e-17
        let v = erfc(6.0);
        assert!((v - 2.1519736712498913e-17).abs() < 1e-28, "erfc(6) = {v}");
        // scipy: erfc(10) = 2.0884875837625446e-45
        let v = erfc(10.0);
        assert!((v - 2.0884875837625446e-45).abs() < 1e-56, "erfc(10) = {v}");
        assert_eq!(erfc(30.0), 0.0);
    }

    #[test]
    fn erfc_is_continuous_at_split() {
        let below = erfc(SPLIT - 1e-9);
        let above = erfc(SPLIT + 1e-9);
        assert!((below - above).abs() < 1e-8);
    }

    #[test]
    fn cdf_matches_reference_values() {
        // scipy.stats.norm.cdf
        let table = [
            (-3.0, 0.0013498980316300933),
            (-1.0, 0.15865525393145707),
            (0.0, 0.5),
            (1.0, 0.8413447460685429),
            (1.6448536269514722, 0.95),
            (3.0, 0.9986501019683699),
        ];
        for (x, want) in table {
            let got = std_normal_cdf(x);
            assert!((got - want).abs() < 1e-12, "Φ({x}) = {got}, want {want}");
        }
    }

    #[test]
    fn cdf_is_monotone() {
        let mut prev = 0.0;
        let mut x = -8.0;
        while x <= 8.0 {
            let v = std_normal_cdf(x);
            assert!(v >= prev, "Φ not monotone at {x}");
            prev = v;
            x += 0.01;
        }
    }

    #[test]
    fn quantile_inverts_cdf() {
        for p in [0.001, 0.05, 0.1, 0.5, 0.9, 0.95, 0.999] {
            let x = std_normal_quantile(p);
            assert!((std_normal_cdf(x) - p).abs() < 1e-10, "p = {p}, x = {x}");
        }
    }

    #[test]
    fn quantile_of_90_percent_is_1_2816() {
        assert!((std_normal_quantile(0.9) - 1.2815515655446004).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "requires 0 < p < 1")]
    fn quantile_rejects_unit_probability() {
        let _ = std_normal_quantile(1.0);
    }
}
