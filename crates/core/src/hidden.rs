//! Hidden-terminal census (paper Section IV-D1).
//!
//! For a link `S → R`, a neighbor is a **potential hidden terminal** when
//! it satisfies both conditions:
//!
//! 1. it lies inside the link's *interference range* — a concurrent
//!    transmission from it would drive the link's PRR (eq. 3) below a
//!    threshold, and
//! 2. it (probably) cannot carrier-sense `S`: by eq. (4),
//!    `Pr{P_r < T_cs} > 90 %`.
//!
//! Neighbors that *can* sense `S` and interfere are **contenders** — they
//! share the channel through CSMA rather than colliding blindly. Both
//! counts feed the analytical model's `(h, c)` lookup.
//!
//! The census decides by distance wherever it can: eq. (3) PRR rises
//! monotonically with the interferer's distance to `R` and eq. (4) miss
//! probability with the sense distance to `S`, so each condition holds
//! exactly inside a closed-form range. A neighbor more than a 5 % margin
//! outside a range surely fails its condition, and one more than 5 %
//! inside surely meets it; only a neighbor in the thin band between
//! costs an `erf` (DESIGN.md §12). The inner side matters for long
//! links: a roamer far from its AP has an interference range that
//! covers most of a campus, and on the 1000-node campus such links were
//! a tenth of all censuses but 84 % of the census time.

use comap_radio::prr::ReceptionModel;
use comap_radio::units::{Dbm, Meters};
use comap_radio::Position;

use crate::config::{CENSUS_INTERFERENCE_PRR, HT_MISS_PROBABILITY};
use crate::neighbor::NeighborTable;
use crate::Addr;

/// How a neighbor relates to a given link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NeighborClass {
    /// Interferes with the link and cannot sense its sender: collides
    /// blindly.
    Hidden,
    /// Interferes (or shares airtime) but defers via carrier sense.
    Contender,
    /// Too far to matter: concurrent transmissions are harmless.
    Independent,
}

/// The censused neighborhood of one link.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HtCensus<A> {
    /// Potential hidden terminals (paper's `N_ht`).
    pub hidden: Vec<A>,
    /// Contending nodes visible to carrier sense (paper's `c`).
    pub contenders: Vec<A>,
    /// Neighbors with no impact on the link.
    pub independent: Vec<A>,
}

impl<A> HtCensus<A> {
    /// `N_ht`, the count the adaptation table is indexed by.
    pub fn n_ht(&self) -> usize {
        self.hidden.len()
    }

    /// `c`, the number of contending nodes.
    pub fn n_contenders(&self) -> usize {
        self.contenders.len()
    }
}

/// Relative half-width of the band around each closed-form range. A 5 %
/// longer or shorter distance moves eq. (3) and eq. (4) by
/// `10 α log₁₀ 1.05 ≈ 0.2 α` dB — orders of magnitude above the `erf` and
/// Newton-quantile rounding, so rounding can never flip a neighbor the
/// census decides by distance alone.
const PREFILTER_MARGIN: f64 = 1.05;

/// Census engine applying the thresholds of Section IV-D1
/// ([`CENSUS_INTERFERENCE_PRR`], [`HT_MISS_PROBABILITY`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HtCensusEngine {
    reception: ReceptionModel,
    t_cs: Dbm,
    /// The band around `k`, where `interference_range(d) = max(d, d₀)·k`.
    interference_factor: Band,
    /// The band around the 90 %-miss carrier-sense range.
    cs_radius: Band,
}

/// A closed-form range narrowed and widened by [`PREFILTER_MARGIN`]: a
/// clamped distance below `inner` surely meets the range's condition, one
/// beyond `outer` surely fails it, and only the band between needs the
/// `erf`.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Band {
    inner: f64,
    outer: f64,
}

impl Band {
    /// The band around `exact`. A degenerate channel can make a range
    /// infinite or NaN. Either turns both sure zones off (`inner = 0`,
    /// `outer = ∞`), so every neighbor takes the full path.
    fn around(exact: f64) -> Band {
        if exact.is_finite() {
            Band {
                inner: exact / PREFILTER_MARGIN,
                outer: PREFILTER_MARGIN * exact,
            }
        } else {
            Band {
                inner: 0.0,
                outer: f64::INFINITY,
            }
        }
    }

    /// Both edges scaled by `factor`, then squared.
    fn scaled_sq(self, factor: f64) -> Band {
        let (inner, outer) = (self.inner * factor, self.outer * factor);
        Band {
            inner: inner * inner,
            outer: outer * outer,
        }
    }

    /// Decides the range's condition from a squared distance when it lies
    /// outside the (squared) band, and leaves it to the caller inside.
    fn decide(self, dist_sq: f64) -> Option<bool> {
        if dist_sq > self.outer {
            Some(false)
        } else if dist_sq < self.inner {
            Some(true)
        } else {
            None
        }
    }
}

impl HtCensusEngine {
    /// Creates a census engine for carrier-sense threshold `t_cs`.
    pub fn new(reception: ReceptionModel, t_cs: Dbm) -> Self {
        let d0 = reception.channel().reference_distance();
        HtCensusEngine {
            reception,
            t_cs,
            interference_factor: Band::around(
                reception.interference_range(d0, CENSUS_INTERFERENCE_PRR) / d0,
            ),
            cs_radius: Band::around(
                reception
                    .cs_range_for_miss_probability(t_cs, HT_MISS_PROBABILITY)
                    .value(),
            ),
        }
    }

    /// The pre-filter radii of a link of length `link_length`:
    /// `(interference, carrier sense)`. A neighbor farther than the first
    /// from the receiver *and* farther than the second from the sender is
    /// `Independent`, and the census records it so without evaluating
    /// eq. (3) or eq. (4). Both radii lie a fixed margin outside the
    /// closed-form ranges they bound. The same margin inside each range
    /// gives its sure zone, of radius `exact² / prefilter`: a neighbor
    /// there surely interferes, or surely senses the sender, again with
    /// no `erf`. An infinite radius (a degenerate channel) disables both
    /// sides of its band: every neighbor is classified.
    pub fn prefilter_radii(&self, link_length: Meters) -> (Meters, Meters) {
        let d0 = self.reception.channel().reference_distance();
        (
            link_length.max(d0) * self.interference_factor.outer,
            Meters::new(self.cs_radius.outer),
        )
    }

    /// Classifies a single neighbor with respect to the link `s → r`: the
    /// composition of [`Self::interferes`] and [`Self::senses`], and the
    /// brute-force reference of the census.
    pub fn classify(&self, s: Position, r: Position, neighbor: Position) -> NeighborClass {
        match (self.interferes(s, r, neighbor), self.senses(s, neighbor)) {
            (true, false) => NeighborClass::Hidden,
            (_, true) => NeighborClass::Contender,
            (false, false) => NeighborClass::Independent,
        }
    }

    /// Eq. (3): a concurrent transmission from `neighbor` drives the PRR
    /// of the link `s → r` below [`CENSUS_INTERFERENCE_PRR`].
    fn interferes(&self, s: Position, r: Position, neighbor: Position) -> bool {
        let eps = self.reception.channel().reference_distance();
        let interferer_dist = neighbor.distance_to(r).max(eps);
        self.reception.prr(s.distance_to(r), interferer_dist) < CENSUS_INTERFERENCE_PRR
    }

    /// Eq. (4): `neighbor` misses the carrier of `s` with probability at
    /// most [`HT_MISS_PROBABILITY`].
    fn senses(&self, s: Position, neighbor: Position) -> bool {
        let eps = self.reception.channel().reference_distance();
        let sense_dist = neighbor.distance_to(s).max(eps);
        self.reception.cs_miss_probability(sense_dist, self.t_cs) <= HT_MISS_PROBABILITY
    }

    /// Runs the census of the link `s → r` over a neighbor table,
    /// excluding the link's own endpoints.
    pub fn census<A: Addr>(
        &self,
        table: &NeighborTable<A>,
        s_addr: A,
        s: Position,
        r_addr: A,
        r: Position,
    ) -> HtCensus<A> {
        let mut census = HtCensus {
            hidden: Vec::new(),
            contenders: Vec::new(),
            independent: Vec::new(),
        };
        self.each_class(table, s_addr, s, r_addr, r, |addr, class| match class {
            NeighborClass::Hidden => census.hidden.push(addr),
            NeighborClass::Contender => census.contenders.push(addr),
            NeighborClass::Independent => census.independent.push(addr),
        });
        census
    }

    /// `(N_ht, c)` of the link `s → r`: the counts of [`Self::census`]
    /// without collecting any address.
    pub(crate) fn counts<A: Addr>(
        &self,
        table: &NeighborTable<A>,
        s_addr: A,
        s: Position,
        r_addr: A,
        r: Position,
    ) -> (usize, usize) {
        let (mut hidden, mut contenders) = (0, 0);
        self.each_class(table, s_addr, s, r_addr, r, |_, class| match class {
            NeighborClass::Hidden => hidden += 1,
            NeighborClass::Contender => contenders += 1,
            NeighborClass::Independent => {}
        });
        (hidden, contenders)
    }

    /// The census loop: classifies every neighbor except the link's
    /// endpoints, in address order, and hands each verdict to `visit`.
    /// Each condition is decided by the neighbor's clamped squared
    /// distance unless that distance lies in the condition's band; only
    /// then is eq. (4) [`Self::senses`] or eq. (3) [`Self::interferes`]
    /// evaluated. Sensing is decided first: a neighbor that senses the
    /// sender is a `Contender` whether or not it interferes.
    fn each_class<A: Addr>(
        &self,
        table: &NeighborTable<A>,
        s_addr: A,
        s: Position,
        r_addr: A,
        r: Position,
        mut visit: impl FnMut(A, NeighborClass),
    ) {
        let d0 = self.reception.channel().reference_distance().value();
        let d0_sq = d0 * d0;
        let interference = self
            .interference_factor
            .scaled_sq(s.distance_to(r).value().max(d0));
        let cs = self.cs_radius.scaled_sq(1.0);
        for (addr, entry) in table.iter() {
            if addr == s_addr || addr == r_addr {
                continue;
            }
            let n = entry.position;
            let senses = cs
                .decide(distance_sq(n, s).max(d0_sq))
                .unwrap_or_else(|| self.senses(s, n));
            let class = if senses {
                NeighborClass::Contender
            } else if interference
                .decide(distance_sq(n, r).max(d0_sq))
                .unwrap_or_else(|| self.interferes(s, r, n))
            {
                NeighborClass::Hidden
            } else {
                NeighborClass::Independent
            };
            visit(addr, class);
        }
    }
}

fn distance_sq(a: Position, b: Position) -> f64 {
    let (dx, dy) = (a.x - b.x, a.y - b.y);
    dx * dx + dy * dy
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ProtocolConfig;

    fn engine() -> HtCensusEngine {
        let cfg = ProtocolConfig::testbed();
        HtCensusEngine::new(cfg.reception(), cfg.t_cs)
    }

    #[test]
    fn nearby_node_is_a_contender() {
        // 10 m from the sender: surely senses it, counted as contender.
        let e = engine();
        let class = e.classify(
            Position::new(0.0, 0.0),
            Position::new(15.0, 0.0),
            Position::new(10.0, 0.0),
        );
        assert_eq!(class, NeighborClass::Contender);
    }

    #[test]
    fn paper_fig2_geometry_is_hidden() {
        // C1 at 0, AP1 at 15 m, C2 at 37 m: C2 cannot sense C1 (37 m is
        // beyond the ~28 m mean CS range) but its signal corrupts AP1
        // (22 m from AP1, close to the 15 m link length).
        let e = engine();
        let class = e.classify(
            Position::new(0.0, 0.0),
            Position::new(15.0, 0.0),
            Position::new(37.0, 0.0),
        );
        assert_eq!(class, NeighborClass::Hidden);
    }

    #[test]
    fn remote_node_is_independent() {
        let e = engine();
        let class = e.classify(
            Position::new(0.0, 0.0),
            Position::new(10.0, 0.0),
            Position::new(400.0, 0.0),
        );
        assert_eq!(class, NeighborClass::Independent);
    }

    #[test]
    fn census_excludes_link_endpoints() {
        let e = engine();
        let mut t = NeighborTable::new();
        t.insert("S", Position::new(0.0, 0.0));
        t.insert("R", Position::new(15.0, 0.0));
        t.insert("H", Position::new(37.0, 0.0));
        t.insert("C", Position::new(10.0, 0.0));
        t.insert("I", Position::new(400.0, 0.0));
        let census = e.census(
            &t,
            "S",
            Position::new(0.0, 0.0),
            "R",
            Position::new(15.0, 0.0),
        );
        assert_eq!(census.hidden, vec!["H"]);
        assert_eq!(census.contenders, vec!["C"]);
        assert_eq!(census.independent, vec!["I"]);
        assert_eq!(census.n_ht(), 1);
        assert_eq!(census.n_contenders(), 1);
    }

    #[test]
    fn class_transitions_with_distance_are_ordered() {
        // Sweeping a neighbor away from the sender along the link axis:
        // contender region, then hidden region, then independent.
        let e = engine();
        let s = Position::new(0.0, 0.0);
        let r = Position::new(15.0, 0.0);
        let mut seen = Vec::new();
        for x in (16..500).step_by(2) {
            let class = e.classify(s, r, Position::new(x as f64, 0.0));
            if seen.last() != Some(&class) {
                seen.push(class);
            }
        }
        assert_eq!(
            seen,
            vec![
                NeighborClass::Contender,
                NeighborClass::Hidden,
                NeighborClass::Independent
            ]
        );
    }

    #[test]
    fn prefilter_radii_sit_a_margin_outside_the_closed_form_ranges() {
        let cfg = ProtocolConfig::testbed();
        let e = engine();
        let model = cfg.reception();
        let cs = model.cs_range_for_miss_probability(cfg.t_cs, HT_MISS_PROBABILITY);
        // Sub-reference links clamp to d₀ exactly as eq. (3) does.
        for d in [0.5, 1.0, 15.0, 60.0] {
            let d = Meters::new(d);
            let (interference, sense) = e.prefilter_radii(d);
            let exact = model.interference_range(d, CENSUS_INTERFERENCE_PRR);
            let ratio = interference / exact;
            assert!((ratio - PREFILTER_MARGIN).abs() < 1e-12, "d = {d}: {ratio}");
            assert!((sense / cs - PREFILTER_MARGIN).abs() < 1e-12);
        }
    }

    #[test]
    fn bands_straddle_the_range_and_vanish_when_it_is_degenerate() {
        let band = Band::around(30.0);
        assert!((band.inner * band.outer - 900.0).abs() < 1e-9);
        assert!((band.outer / 30.0 - PREFILTER_MARGIN).abs() < 1e-12);
        let sq = band.scaled_sq(2.0);
        assert_eq!(sq.decide(55.0 * 55.0), Some(true));
        assert_eq!(sq.decide(60.0 * 60.0), None);
        assert_eq!(sq.decide(65.0 * 65.0), Some(false));
        for exact in [f64::INFINITY, f64::NAN] {
            let off = Band::around(exact).scaled_sq(2.0);
            assert_eq!(off.decide(f64::MIN_POSITIVE), None);
            assert_eq!(off.decide(f64::MAX), None);
        }
    }

    #[test]
    fn counts_agree_with_the_census() {
        let e = engine();
        let mut t = NeighborTable::new();
        // A 5 m grid over a 200 m square around the link.
        for i in 0..41 * 41u32 {
            let (x, y) = (f64::from(i % 41), f64::from(i / 41));
            t.insert(i, Position::new(5.0 * x - 100.0, 5.0 * y - 100.0));
        }
        let (s, r) = (Position::new(0.0, 0.0), Position::new(15.0, 0.0));
        let census = e.census(&t, 100, s, 101, r);
        assert!(census.n_ht() > 0 && census.n_contenders() > 0);
        assert!(!census.independent.is_empty());
        assert_eq!(
            e.counts(&t, 100, s, 101, r),
            (census.n_ht(), census.n_contenders())
        );
    }
}
