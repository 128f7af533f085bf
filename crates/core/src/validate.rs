//! Concurrency validation (paper Section IV-C1, Fig. 4).
//!
//! On discovering an ongoing transmission `src → dst`, a candidate exposed
//! terminal `me` wanting to send to `rx` checks **both directions** of
//! eq. (3):
//!
//! 1. *its own impact on the ongoing link*: `PRR(d₁ = |src−dst|,
//!    r₁ = |me−dst|)` — will the ongoing receiver still decode?
//! 2. *the ongoing link's impact on it*: `PRR(d₂ = |me−rx|,
//!    r₂ = |rx−src|)` — will my receiver decode despite the ongoing
//!    sender?
//!
//! The transmission pair is compatible when both PRRs reach
//! [`T_PRR`].

use comap_radio::prr::ReceptionModel;
use comap_radio::Position;

use crate::config::T_PRR;

/// Outcome of validating one candidate concurrent transmission.
///
/// Both intermediate PRRs are exposed (C-INTERMEDIATE): the protocol uses
/// them to populate the PRR table of Fig. 5, and a node whose *receiver*
/// side fails may try another receiver (an AP picking a different client).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConcurrencyDecision {
    /// PRR of the ongoing link under my interference (direction 1).
    pub prr_ongoing: f64,
    /// PRR of my link under the ongoing sender's interference
    /// (direction 2).
    pub prr_mine: f64,
}

impl ConcurrencyDecision {
    /// `true` when the concurrent transmission is safe in both directions.
    pub fn allowed(&self) -> bool {
        self.harmless_to_ongoing() && self.viable_for_me()
    }

    /// Direction 1 passed: I do not break the ongoing reception.
    pub fn harmless_to_ongoing(&self) -> bool {
        self.prr_ongoing >= T_PRR
    }

    /// Direction 2 passed: my own receiver survives the ongoing sender.
    /// When this is the only failing direction, the paper suggests trying
    /// "another receiver further away from the current transmitter".
    pub fn viable_for_me(&self) -> bool {
        self.prr_mine >= T_PRR
    }
}

/// Stateless validator over a reception model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConcurrencyValidator {
    reception: ReceptionModel,
}

impl ConcurrencyValidator {
    /// Creates a validator.
    pub fn new(reception: ReceptionModel) -> Self {
        ConcurrencyValidator { reception }
    }

    /// Validates `me → rx` against the ongoing `src → dst` using the four
    /// node positions (Fig. 4 geometry).
    pub fn validate(
        &self,
        me: Position,
        rx: Position,
        src: Position,
        dst: Position,
    ) -> ConcurrencyDecision {
        let d1 = src.distance_to(dst);
        let r1 = me.distance_to(dst);
        let d2 = me.distance_to(rx);
        let r2 = rx.distance_to(src);
        let eps = self.reception.channel().reference_distance();
        ConcurrencyDecision {
            prr_ongoing: self.reception.prr(d1, r1.max(eps)),
            prr_mine: self.reception.prr(d2, r2.max(eps)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use comap_radio::pathloss::LogNormalShadowing;
    use comap_radio::units::{Db, Dbm, Meters};

    fn validator() -> ConcurrencyValidator {
        ConcurrencyValidator::new(ReceptionModel::new(
            LogNormalShadowing::testbed(Dbm::new(0.0)),
            Db::new(4.0),
        ))
    }

    #[test]
    fn well_separated_cells_are_compatible() {
        // Two short links 120 m apart: clearly concurrent.
        let v = validator();
        let d = v.validate(
            Position::new(0.0, 0.0),
            Position::new(4.0, 0.0),
            Position::new(120.0, 0.0),
            Position::new(124.0, 0.0),
        );
        assert!(d.allowed(), "{d:?}");
        assert!(d.prr_ongoing > 0.99 && d.prr_mine > 0.99);
    }

    #[test]
    fn interfering_with_ongoing_receiver_is_rejected() {
        // I sit right next to the ongoing receiver: direction 1 fails.
        let v = validator();
        let d = v.validate(
            Position::new(31.0, 0.0), // me, 1 m from dst
            Position::new(80.0, 0.0), // my rx, far away
            Position::new(0.0, 0.0),  // ongoing src
            Position::new(30.0, 0.0), // ongoing dst
        );
        assert!(!d.harmless_to_ongoing(), "{d:?}");
        assert!(!d.allowed());
    }

    #[test]
    fn receiver_too_close_to_ongoing_sender_is_rejected() {
        // My receiver sits next to the ongoing transmitter: direction 2
        // fails even though I am harmless to the ongoing link.
        let v = validator();
        let d = v.validate(
            Position::new(100.0, 0.0), // me, far from ongoing dst
            Position::new(2.0, 0.0),   // my rx, 2 m from ongoing src
            Position::new(0.0, 0.0),   // ongoing src
            Position::new(-30.0, 0.0), // ongoing dst (away from me)
        );
        assert!(d.harmless_to_ongoing(), "{d:?}");
        assert!(!d.viable_for_me(), "{d:?}");
        assert!(!d.allowed());
    }

    #[test]
    fn moving_the_exposed_node_away_flips_the_decision() {
        // Sweep my distance from the ongoing receiver; the decision must
        // flip exactly once, from rejected to allowed.
        let v = validator();
        let src = Position::new(0.0, 0.0);
        let dst = Position::new(10.0, 0.0);
        let mut last = false;
        let mut flips = 0;
        for x in (12..400).step_by(4) {
            let me = Position::new(x as f64, 0.0);
            let rx = me.offset(4.0, 0.0);
            let now = v.validate(me, rx, src, dst).allowed();
            if now != last {
                flips += 1;
                last = now;
            }
        }
        assert!(last, "far away must be allowed");
        assert_eq!(flips, 1, "decision must be monotone in distance");
    }

    #[test]
    fn colocated_nodes_do_not_panic() {
        // me == dst: the epsilon clamp keeps eq. (3) well-defined.
        let v = validator();
        let p = Position::new(5.0, 5.0);
        let d = v.validate(p, Position::new(9.0, 5.0), Position::new(0.0, 5.0), p);
        assert!(!d.allowed());
        let _ = Meters::ZERO; // type sanity
    }

    #[test]
    fn pairwise_is_symmetric_in_geometry() {
        // Swapping the two links swaps the PRR pair.
        let v = validator();
        let d1 = v.validate(
            Position::new(0.0, 0.0),
            Position::new(5.0, 0.0),
            Position::new(40.0, 0.0),
            Position::new(45.0, 0.0),
        );
        let d2 = v.validate(
            Position::new(40.0, 0.0),
            Position::new(45.0, 0.0),
            Position::new(0.0, 0.0),
            Position::new(5.0, 0.0),
        );
        assert!((d1.prr_ongoing - d2.prr_mine).abs() < 1e-12);
        assert!((d1.prr_mine - d2.prr_ongoing).abs() < 1e-12);
    }
}
