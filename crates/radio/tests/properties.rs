//! Property-based tests for the radio math.

use comap_radio::math::{erf, erfc, std_normal_cdf, std_normal_quantile};
use comap_radio::pathloss::LogNormalShadowing;
use comap_radio::prr::ReceptionModel;
use comap_radio::units::{Db, Dbm, Meters};
use proptest::prelude::*;

fn arb_model() -> impl Strategy<Value = ReceptionModel> {
    (
        (-10.0..25.0f64),
        (2.0..4.5f64),
        (1.0..8.0f64),
        (2.0..12.0f64),
    )
        .prop_map(|(tx, alpha, sigma, t_sir)| {
            ReceptionModel::new(
                LogNormalShadowing::from_friis(Dbm::new(tx), alpha, Db::new(sigma)),
                Db::new(t_sir),
            )
        })
}

proptest! {
    #[test]
    fn erf_is_odd_and_bounded(x in -30.0..30.0f64) {
        let v = erf(x);
        prop_assert!((-1.0..=1.0).contains(&v));
        prop_assert!((erf(-x) + v).abs() < 1e-12);
    }

    #[test]
    fn erf_plus_erfc_is_one(x in -20.0..20.0f64) {
        prop_assert!((erf(x) + erfc(x) - 1.0).abs() < 1e-11);
    }

    #[test]
    fn cdf_bounded_and_symmetric(x in -12.0..12.0f64) {
        let p = std_normal_cdf(x);
        prop_assert!((0.0..=1.0).contains(&p));
        prop_assert!((p + std_normal_cdf(-x) - 1.0).abs() < 1e-11);
    }

    #[test]
    fn quantile_round_trips(p in 1e-6..(1.0 - 1e-6)) {
        let x = std_normal_quantile(p);
        prop_assert!((std_normal_cdf(x) - p).abs() < 1e-8);
    }

    #[test]
    fn prr_is_probability_and_monotone_in_r(
        model in arb_model(),
        d in 1.0..80.0f64,
        r in 1.0..200.0f64,
    ) {
        let p = model.prr(Meters::new(d), Meters::new(r));
        prop_assert!((0.0..=1.0).contains(&p));
        let p_farther = model.prr(Meters::new(d), Meters::new(r * 1.5));
        prop_assert!(p_farther >= p - 1e-12);
    }

    #[test]
    fn prr_antimonotone_in_d(
        model in arb_model(),
        d in 1.0..80.0f64,
        r in 1.0..200.0f64,
    ) {
        let p = model.prr(Meters::new(d), Meters::new(r));
        let p_longer = model.prr(Meters::new(d * 1.5), Meters::new(r));
        prop_assert!(p_longer <= p + 1e-12);
    }

    #[test]
    fn cs_miss_monotone_in_distance(
        model in arb_model(),
        r in 1.0..300.0f64,
        t_cs in -95.0..-60.0f64,
    ) {
        let t = Dbm::new(t_cs);
        let near = model.cs_miss_probability(Meters::new(r), t);
        let far = model.cs_miss_probability(Meters::new(r * 1.3), t);
        prop_assert!((0.0..=1.0).contains(&near));
        prop_assert!(far >= near - 1e-12);
    }

    #[test]
    fn interference_range_is_consistent(
        model in arb_model(),
        d in 1.0..60.0f64,
        threshold in 0.05..0.95f64,
    ) {
        let r = model.interference_range(Meters::new(d), threshold);
        // Inside the range, the interferer drives PRR below the threshold.
        let inside = model.prr(Meters::new(d), Meters::new((r.value() * 0.8).max(0.1)));
        let outside = model.prr(Meters::new(d), r * 1.2);
        prop_assert!(inside <= threshold + 1e-9);
        prop_assert!(outside >= threshold - 1e-9);
    }
}
