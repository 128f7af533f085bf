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
//! The census is neighbourhood-local: eq. (3) PRR rises monotonically
//! with the interferer's distance to `R` and eq. (4) miss probability
//! with the sense distance to `S`, so a neighbor beyond both closed-form
//! ranges is `Independent` without evaluating either `erf` (DESIGN.md
//! §12).

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

/// Relative widening of both pre-filter radii. A 5 % longer distance
/// moves eq. (3) and eq. (4) by `10 α log₁₀ 1.05 ≈ 0.2 α` dB — orders of
/// magnitude above the `erf` and Newton-quantile rounding, so rounding
/// can never flip a neighbor the pre-filter skips.
const PREFILTER_MARGIN: f64 = 1.05;

/// Census engine applying the thresholds of Section IV-D1
/// ([`CENSUS_INTERFERENCE_PRR`], [`HT_MISS_PROBABILITY`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HtCensusEngine {
    reception: ReceptionModel,
    t_cs: Dbm,
    /// `k` with `interference_range(d) = max(d, d₀)·k`, widened by
    /// [`PREFILTER_MARGIN`].
    interference_factor: f64,
    /// The 90 %-miss carrier-sense range, widened by [`PREFILTER_MARGIN`].
    cs_radius: f64,
}

impl HtCensusEngine {
    /// Creates a census engine for carrier-sense threshold `t_cs`.
    pub fn new(reception: ReceptionModel, t_cs: Dbm) -> Self {
        // A degenerate channel can make a range infinite or NaN. Either
        // becomes an infinite radius, which fails every pre-filter
        // comparison, so all neighbors then take the full path.
        let widen = |x: f64| {
            if x.is_finite() {
                PREFILTER_MARGIN * x
            } else {
                f64::INFINITY
            }
        };
        let d0 = reception.channel().reference_distance();
        HtCensusEngine {
            reception,
            t_cs,
            interference_factor: widen(
                reception.interference_range(d0, CENSUS_INTERFERENCE_PRR) / d0,
            ),
            cs_radius: widen(
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
    /// closed-form ranges they bound. An infinite radius (a degenerate
    /// channel) disables the pre-filter: every neighbor is classified.
    pub fn prefilter_radii(&self, link_length: Meters) -> (Meters, Meters) {
        let d0 = self.reception.channel().reference_distance();
        (
            link_length.max(d0) * self.interference_factor,
            Meters::new(self.cs_radius),
        )
    }

    /// Classifies a single neighbor with respect to the link `s → r`.
    pub fn classify(&self, s: Position, r: Position, neighbor: Position) -> NeighborClass {
        let d = s.distance_to(r);
        let eps = self.reception.channel().reference_distance();
        let interferer_dist = neighbor.distance_to(r).max(eps);
        let interferes = self.reception.prr(d, interferer_dist) < CENSUS_INTERFERENCE_PRR;
        let sense_dist = neighbor.distance_to(s).max(eps);
        let senses =
            self.reception.cs_miss_probability(sense_dist, self.t_cs) <= HT_MISS_PROBABILITY;
        match (interferes, senses) {
            (true, false) => NeighborClass::Hidden,
            (_, true) => NeighborClass::Contender,
            (false, false) => NeighborClass::Independent,
        }
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
    /// Neighbors outside both pre-filter radii skip [`Self::classify`].
    fn each_class<A: Addr>(
        &self,
        table: &NeighborTable<A>,
        s_addr: A,
        s: Position,
        r_addr: A,
        r: Position,
        mut visit: impl FnMut(A, NeighborClass),
    ) {
        let (interference, cs) = self.prefilter_radii(s.distance_to(r));
        let interference_sq = interference.value() * interference.value();
        let cs_sq = cs.value() * cs.value();
        for (addr, entry) in table.iter() {
            if addr == s_addr || addr == r_addr {
                continue;
            }
            let n = entry.position;
            let class = if distance_sq(n, r) > interference_sq && distance_sq(n, s) > cs_sq {
                NeighborClass::Independent
            } else {
                self.classify(s, r, n)
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
