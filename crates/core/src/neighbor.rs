//! The neighbor table: positions of nodes within two hops.
//!
//! Every node reports its position to its associated AP; APs disseminate
//! the reports, so each node learns the coordinates of its relative
//! neighbors "within 2-hop" (paper Fig. 3 and Section V). The table also
//! implements the paper's mobility-management rule: an update that moves a
//! neighbor by no more than [`UPDATE_THRESHOLD_M`] is absorbed without
//! signalling a change, so downstream caches are not needlessly
//! invalidated.

use std::collections::BTreeMap;

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
    entries: BTreeMap<A, NeighborEntry>,
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
            entries: BTreeMap::new(),
            revision: 0,
        }
    }

    /// Records a position report. Returns `true` when the table content
    /// *changed* — a new neighbor, or a move beyond the mobility
    /// threshold — so the caller knows to invalidate derived state.
    pub fn update(&mut self, addr: A, position: Position) -> bool {
        let changed = match self.entries.get_mut(&addr) {
            None => {
                self.entries.insert(
                    addr,
                    NeighborEntry {
                        position,
                        updates: 1,
                    },
                );
                true
            }
            Some(entry) => {
                let moved = entry.position.distance_to(position);
                if moved.value() > UPDATE_THRESHOLD_M {
                    entry.position = position;
                    entry.updates += 1;
                    true
                } else {
                    false
                }
            }
        };
        self.revision += u64::from(changed);
        changed
    }

    /// Forces a position in, bypassing the movement threshold (used when
    /// bootstrapping from a topology description).
    pub fn insert(&mut self, addr: A, position: Position) {
        self.revision += 1;
        self.entries
            .entry(addr)
            .and_modify(|e| {
                e.position = position;
                e.updates += 1;
            })
            .or_insert(NeighborEntry {
                position,
                updates: 1,
            });
    }

    /// The last accepted position of `addr`, if known.
    pub fn position(&self, addr: A) -> Option<Position> {
        self.entries.get(&addr).map(|e| e.position)
    }

    /// How many position reports were accepted for `addr` — 0 while it
    /// is unknown. A cache that records this count next to what it
    /// derived from `addr`'s position knows that entry is stale exactly
    /// when the count has moved: the table never drops an address, so
    /// the count never repeats.
    pub fn updates(&self, addr: A) -> u64 {
        self.entries.get(&addr).map_or(0, |e| e.updates)
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
        self.entries.contains_key(&addr)
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
        assert_eq!(t.entries.get("C0").unwrap().updates, 2);
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
