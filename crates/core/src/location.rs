//! Location sharing (paper Section IV-A and Section V).
//!
//! Clients report their positions to their AP; APs piggyback the reports
//! onto ordinary traffic so that every node learns its 2-hop
//! neighborhood. [`LocationService`] implements the *sender* side: it
//! decides when a movement is large enough to justify a fresh report
//! (the mobility-management rule: more than [`UPDATE_THRESHOLD_M`] from
//! the last report).

use comap_radio::Position;

use crate::config::UPDATE_THRESHOLD_M;

/// Decides when this node's own position must be re-broadcast.
///
/// ```rust
/// use comap_core::LocationService;
/// use comap_radio::Position;
///
/// let mut svc = LocationService::new();
/// assert!(svc.observe(Position::new(0.0, 0.0)).is_some()); // first fix
/// assert!(svc.observe(Position::new(2.0, 0.0)).is_none()); // < 5 m: quiet
/// assert!(svc.observe(Position::new(7.0, 0.0)).is_some()); // > 5 m: report
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LocationService {
    last_reported: Option<Position>,
}

impl LocationService {
    /// Creates a service that has not yet obtained a position fix.
    pub fn new() -> Self {
        Self::default()
    }

    /// Feeds a new localization fix. Returns `Some(position)` when the fix
    /// should be reported to the AP (first fix, or moved beyond the
    /// threshold), `None` when it is absorbed.
    pub fn observe(&mut self, fix: Position) -> Option<Position> {
        let must_report = match self.last_reported {
            None => true,
            Some(prev) => fix.distance_to(prev).value() > UPDATE_THRESHOLD_M,
        };
        if must_report {
            self.last_reported = Some(fix);
            Some(fix)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn service() -> LocationService {
        LocationService::new()
    }

    #[test]
    fn first_fix_is_always_reported() {
        let mut s = service();
        assert_eq!(
            s.observe(Position::new(1.0, 1.0)),
            Some(Position::new(1.0, 1.0))
        );
    }

    #[test]
    fn jitter_is_suppressed() {
        let mut s = service();
        s.observe(Position::ORIGIN);
        for i in 0..10 {
            let wiggle = Position::new((i % 3) as f64, (i % 2) as f64);
            assert_eq!(s.observe(wiggle), None);
        }
        // The reference stayed at the origin: 5.5 m from it reports.
        assert!(s.observe(Position::new(5.5, 0.0)).is_some());
    }

    #[test]
    fn long_walks_report_per_threshold_crossing() {
        // Walk 25 m in 1 m steps with a 5 m threshold: the first fix plus
        // a report each time the accumulated displacement exceeds 5 m.
        let mut s = service();
        let mut reports = 0;
        for x in 0..=25 {
            if s.observe(Position::new(x as f64, 0.0)).is_some() {
                reports += 1;
            }
        }
        assert_eq!(
            reports,
            1 + 4,
            "1 initial + 4 threshold crossings (6,12,18,24)"
        );
    }

    #[test]
    fn report_updates_reference_point() {
        let mut s = service();
        s.observe(Position::ORIGIN);
        s.observe(Position::new(6.0, 0.0));
        // Moving back within 5 m of the new reference stays quiet.
        assert_eq!(s.observe(Position::new(2.0, 0.0)), None);
        // 0.5 m from the old reference, 5.5 m from the new one: reported.
        assert!(s.observe(Position::new(0.5, 0.0)).is_some());
    }
}
