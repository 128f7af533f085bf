//! The neighbor table: positions of nodes within two hops.
//!
//! Every node reports its position to its associated AP; APs disseminate
//! the reports, so each node learns the coordinates of its relative
//! neighbors "within 2-hop" (paper Fig. 3 and Section V). The table also
//! implements the paper's mobility-management rule, the one place it
//! runs: an update that moves a node by no more than
//! [`UPDATE_THRESHOLD_M`] from its last accepted report is absorbed
//! without signalling a change, so the node broadcasts nothing and
//! downstream caches are not needlessly invalidated. A node's own
//! position is one more entry, so the table that decides whether a
//! neighbor's report is news also decides whether the node's own is.

use comap_radio::units::Meters;
use comap_radio::Position;

use crate::config::UPDATE_THRESHOLD_M;
use crate::Addr;

/// One row of the neighbor table.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NeighborEntry {
    /// Last accepted position.
    pub position: Position,
    /// How many position reports were accepted for this neighbor. It
    /// only ever grows: derived state stamped with it goes stale exactly
    /// when a later report is accepted ([`NeighborTable::updates`]).
    pub updates: u64,
}

/// A node's view of the positions of its 2-hop neighborhood.
///
/// ```rust
/// use comap_core::NeighborTable;
/// use comap_radio::Position;
///
/// let mut t = NeighborTable::new();
/// assert!(t.update("C2", Position::new(4.0, -10.0)));
/// // A 1 m wiggle is below the 5 m threshold: absorbed.
/// assert!(!t.update("C2", Position::new(4.5, -10.0)));
/// assert_eq!(t.len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct NeighborTable<A: Addr> {
    /// Sorted by address, one entry per address: a lookup is a binary
    /// search and the census walks contiguous memory.
    entries: Vec<(A, NeighborEntry)>,
    /// Reports accepted over all entries: the sum of their `updates`.
    revision: u64,
}

impl<A: Addr> Default for NeighborTable<A> {
    fn default() -> Self {
        Self::new()
    }
}

impl<A: Addr> NeighborTable<A> {
    /// Creates an empty table.
    pub fn new() -> Self {
        NeighborTable {
            entries: Vec::new(),
            revision: 0,
        }
    }

    /// Where `addr`'s entry is, or where it would be inserted.
    fn find(&self, addr: A) -> Result<usize, usize> {
        self.entries.binary_search_by(|(a, _)| a.cmp(&addr))
    }

    /// `addr`'s entry, if known.
    fn entry(&self, addr: A) -> Option<&NeighborEntry> {
        self.find(addr).ok().map(|at| &self.entries[at].1)
    }

    /// Records a position report. Returns `true` when the table content
    /// *changed* — a new neighbor, or a move beyond the mobility
    /// threshold — so the caller knows to invalidate derived state.
    ///
    /// A node's own fixes go through here too: an accepted one is a
    /// report it must broadcast.
    ///
    /// ```rust
    /// use comap_core::NeighborTable;
    /// use comap_radio::Position;
    ///
    /// let mut t = NeighborTable::new();
    /// assert!(t.update("C0", Position::new(0.0, 0.0))); // first fix
    /// assert!(!t.update("C0", Position::new(2.0, 0.0))); // < 5 m: quiet
    /// assert!(t.update("C0", Position::new(7.0, 0.0))); // > 5 m: report
    /// ```
    pub fn update(&mut self, addr: A, position: Position) -> bool {
        let changed = self
            .position(addr)
            .is_none_or(|last| last.distance_to(position).value() > UPDATE_THRESHOLD_M);
        if changed {
            self.insert(addr, position);
        }
        changed
    }

    /// Forces a position in, bypassing the movement threshold (used when
    /// bootstrapping from a topology description).
    pub fn insert(&mut self, addr: A, position: Position) {
        self.revision += 1;
        match self.find(addr) {
            Ok(at) => {
                let entry = &mut self.entries[at].1;
                entry.position = position;
                entry.updates += 1;
            }
            Err(at) => self.entries.insert(
                at,
                (
                    addr,
                    NeighborEntry {
                        position,
                        updates: 1,
                    },
                ),
            ),
        }
    }

    /// The last accepted position of `addr`, if known.
    pub fn position(&self, addr: A) -> Option<Position> {
        self.entry(addr).map(|e| e.position)
    }

    /// How many position reports were accepted for `addr` — 0 while it
    /// is unknown. A cache that records this count next to what it
    /// derived from `addr`'s position knows that entry is stale exactly
    /// when the count has moved: the table never drops an address, so
    /// the count never repeats.
    pub fn updates(&self, addr: A) -> u64 {
        self.entry(addr).map_or(0, |e| e.updates)
    }

    /// How many reports the table accepted in all — the sum of every
    /// entry's count. While it stands still no [`Self::updates`] count
    /// moved, so a cache can skip the per-address comparisons.
    pub fn revision(&self) -> u64 {
        self.revision
    }

    /// Distance between two known neighbors.
    pub fn distance(&self, a: A, b: A) -> Option<Meters> {
        Some(self.position(a)?.distance_to(self.position(b)?))
    }

    /// Number of known neighbors.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` if no neighbor has reported yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether `addr` is in the table.
    pub fn contains(&self, addr: A) -> bool {
        self.find(addr).is_ok()
    }

    /// Iterates over `(addr, entry)` in address order.
    pub fn iter(&self) -> impl Iterator<Item = (A, &NeighborEntry)> + '_ {
        self.entries.iter().map(|(a, e)| (*a, e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> NeighborTable<&'static str> {
        NeighborTable::new()
    }

    #[test]
    fn first_report_always_changes() {
        let mut t = table();
        assert!(t.update("C0", Position::ORIGIN));
        assert_eq!(t.len(), 1);
        assert_eq!(t.position("C0"), Some(Position::ORIGIN));
    }

    #[test]
    fn first_fix_is_always_reported() {
        let mut t = table();
        assert!(t.update("C0", Position::new(1.0, 1.0)));
        assert_eq!(t.position("C0"), Some(Position::new(1.0, 1.0)));
        // Wherever the first fix lands, even where an earlier node sits.
        assert!(t.update("C1", Position::new(1.0, 1.0)));
    }

    #[test]
    fn jitter_is_suppressed() {
        let mut t = table();
        t.update("C0", Position::ORIGIN);
        for i in 0..10 {
            let wiggle = Position::new((i % 3) as f64, (i % 2) as f64);
            assert!(!t.update("C0", wiggle));
        }
        // The reference stayed at the origin: 5.5 m from it is accepted.
        assert!(t.update("C0", Position::new(5.5, 0.0)));
    }

    #[test]
    fn long_walks_report_per_threshold_crossing() {
        // Walk 25 m in 1 m steps with a 5 m threshold: the first fix plus
        // a report each time the accumulated displacement exceeds 5 m.
        let mut t = table();
        let reports = (0..=25)
            .filter(|&x| t.update("C0", Position::new(f64::from(x), 0.0)))
            .count();
        assert_eq!(
            reports,
            1 + 4,
            "1 initial + 4 threshold crossings (6,12,18,24)"
        );
        assert_eq!(t.updates("C0"), 5);
    }

    #[test]
    fn report_updates_reference_point() {
        let mut t = table();
        t.update("C0", Position::ORIGIN);
        t.update("C0", Position::new(6.0, 0.0));
        // Moving back within 5 m of the new reference stays quiet.
        assert!(!t.update("C0", Position::new(2.0, 0.0)));
        // 0.5 m from the old reference, 5.5 m from the new one: accepted.
        assert!(t.update("C0", Position::new(0.5, 0.0)));
    }

    #[test]
    fn small_moves_are_absorbed() {
        let mut t = table();
        t.update("C0", Position::ORIGIN);
        assert!(!t.update("C0", Position::new(3.0, 0.0)));
        // Position stays at the previously accepted value.
        assert_eq!(t.position("C0"), Some(Position::ORIGIN));
    }

    #[test]
    fn large_moves_are_applied() {
        let mut t = table();
        t.update("C0", Position::ORIGIN);
        assert!(t.update("C0", Position::new(6.0, 0.0)));
        assert_eq!(t.position("C0"), Some(Position::new(6.0, 0.0)));
    }

    #[test]
    fn absorbed_moves_do_not_accumulate_silently_forever() {
        // Repeated sub-threshold reports relative to the *accepted*
        // position eventually cross the threshold and are applied.
        let mut t = table();
        t.update("C0", Position::ORIGIN);
        assert!(!t.update("C0", Position::new(4.0, 0.0)));
        assert!(t.update("C0", Position::new(8.0, 0.0)));
    }

    #[test]
    fn insert_bypasses_threshold() {
        let mut t = table();
        t.insert("C0", Position::ORIGIN);
        t.insert("C0", Position::new(1.0, 0.0));
        assert_eq!(t.position("C0"), Some(Position::new(1.0, 0.0)));
        assert_eq!(t.updates("C0"), 2);
    }

    #[test]
    fn distance_between_neighbors() {
        let mut t = table();
        t.insert("A", Position::ORIGIN);
        t.insert("B", Position::new(3.0, 4.0));
        assert_eq!(t.distance("A", "B"), Some(Meters::new(5.0)));
        assert_eq!(t.distance("A", "Z"), None);
    }

    #[test]
    fn updates_count_accepted_reports_from_zero() {
        let mut t = table();
        assert_eq!(t.updates("A"), 0, "unknown");
        t.update("A", Position::ORIGIN);
        assert_eq!(t.updates("A"), 1);
        t.update("A", Position::new(1.0, 0.0));
        assert_eq!(t.updates("A"), 1, "absorbed report");
        t.update("A", Position::new(9.0, 0.0));
        t.insert("A", Position::ORIGIN);
        assert_eq!(t.updates("A"), 3);
        t.update("B", Position::ORIGIN);
        assert_eq!(t.revision(), 4, "every accepted report, over all entries");
        assert!(!t.is_empty() && t.contains("B") && !t.contains("C"));
    }

    #[test]
    fn iteration_is_ordered() {
        let mut t = table();
        t.insert("C", Position::ORIGIN);
        t.insert("A", Position::ORIGIN);
        t.insert("B", Position::ORIGIN);
        let order: Vec<_> = t.iter().map(|(a, _)| a).collect();
        assert_eq!(order, vec!["A", "B", "C"]);
    }
}
