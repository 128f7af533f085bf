//! The co-occurrence map (paper Section IV-C2, Fig. 5).
//!
//! Each entry records one ongoing link together with the receivers this
//! node may transmit to concurrently with it. A mobile client has a single
//! receiver (its AP), so its entries degenerate to "link → yes"; an AP's
//! entries enumerate every client it could serve concurrently.
//!
//! The map is a *cache* over [`crate::validate`]: it starts empty, is
//! populated as transmissions are discovered and validated ("built
//! gradually as the network operates" — no site survey, no initialization
//! losses), and is invalidated per node when the neighbor table accepts a
//! significant position change. The invalidation is lazy: each verdict
//! carries the [`NeighborTable::updates`] count of its three nodes when it
//! was recorded, and a lookup that finds any count moved treats the
//! verdict as absent — exactly the verdicts an eager purge of every
//! entry involving the mover would have dropped. A move costs nothing
//! here until a verdict involving the mover is read again, and while the
//! table accepts no report at all ([`NeighborTable::revision`]) a lookup
//! compares no count.

use std::collections::BTreeMap;

use crate::neighbor::NeighborTable;
use crate::{Addr, Link};

/// One cached verdict and the report counts it was derived under.
#[derive(Debug, Clone, Copy)]
struct Verdict {
    allowed: bool,
    /// [`NeighborTable::updates`] of the ongoing link's source and
    /// destination and of the receiver, in that order.
    stamps: [u64; 3],
    /// The table's [`NeighborTable::revision`] when the stamps were last
    /// found current: while it stands, they still are.
    revision: u64,
}

impl Verdict {
    /// Whether no report about the verdict's three nodes was accepted
    /// since it was recorded.
    fn is_fresh<A: Addr>(&self, table: &NeighborTable<A>, link: Link<A>, receiver: A) -> bool {
        self.revision == table.revision() || self.stamps == stamps(table, link, receiver)
    }
}

/// Cached concurrency knowledge: ongoing link → receivers this node can
/// use concurrently (and the receivers known to be unusable).
///
/// One flat map holds every verdict, keyed by `(ongoing link, receiver)`,
/// so a receiver is allowed or denied by construction, never both. Every
/// query names the neighbor table the verdicts are stamped against, and
/// it must be the same table each time.
///
/// ```rust
/// use comap_core::{CoOccurrenceMap, NeighborTable};
/// use comap_radio::Position;
///
/// let mut table = NeighborTable::new();
/// let mut map: CoOccurrenceMap<&str> = CoOccurrenceMap::new();
/// map.record(&table, ("C2", "AP0"), "AP1", true);
/// assert_eq!(map.lookup(&table, ("C2", "AP0"), "AP1"), Some(true));
/// assert_eq!(map.lookup(&table, ("C2", "AP0"), "C12"), None); // not yet validated
/// // C2's report is accepted: every verdict involving C2 goes stale.
/// table.update("C2", Position::new(4.0, -10.0));
/// assert_eq!(map.lookup(&table, ("C2", "AP0"), "AP1"), None);
/// ```
#[derive(Debug, Clone, Default)]
pub struct CoOccurrenceMap<A: Addr> {
    verdicts: BTreeMap<(Link<A>, A), Verdict>,
    hits: u64,
    misses: u64,
}

/// The report counts in `table` of the nodes a verdict involves.
fn stamps<A: Addr>(table: &NeighborTable<A>, (src, dst): Link<A>, receiver: A) -> [u64; 3] {
    [
        table.updates(src),
        table.updates(dst),
        table.updates(receiver),
    ]
}

impl<A: Addr> CoOccurrenceMap<A> {
    /// Creates an empty map (the paper's cold-start state).
    pub fn new() -> Self {
        CoOccurrenceMap {
            verdicts: BTreeMap::new(),
            hits: 0,
            misses: 0,
        }
    }

    /// Looks up a cached verdict for transmitting to `receiver` while
    /// `ongoing` is on the air. `None` means "never validated, or
    /// validated before `table` accepted a report from one of the three
    /// nodes", and the caller should fall back to computation (and then
    /// [`record`] it).
    ///
    /// [`record`]: Self::record
    pub fn lookup(
        &mut self,
        table: &NeighborTable<A>,
        ongoing: Link<A>,
        receiver: A,
    ) -> Option<bool> {
        let verdict = match self.verdicts.get_mut(&(ongoing, receiver)) {
            Some(v) if v.is_fresh(table, ongoing, receiver) => {
                v.revision = table.revision();
                Some(v.allowed)
            }
            _ => None,
        };
        match verdict {
            Some(_) => self.hits += 1,
            None => self.misses += 1,
        }
        verdict
    }

    /// Caches a validation outcome for (`ongoing`, `receiver`), stamped
    /// with the three nodes' report counts in `table`.
    pub fn record(
        &mut self,
        table: &NeighborTable<A>,
        ongoing: Link<A>,
        receiver: A,
        allowed: bool,
    ) {
        let verdict = Verdict {
            allowed,
            stamps: stamps(table, ongoing, receiver),
            revision: table.revision(),
        };
        self.verdicts.insert((ongoing, receiver), verdict);
    }

    /// The fresh verdicts against `table`, in key order.
    fn fresh_verdicts<'a>(
        &'a self,
        table: &'a NeighborTable<A>,
    ) -> impl Iterator<Item = (Link<A>, A, bool)> + 'a {
        self.verdicts
            .iter()
            .filter_map(move |(&(link, receiver), v)| {
                v.is_fresh(table, link, receiver)
                    .then_some((link, receiver, v.allowed))
            })
    }

    /// Number of ongoing links with at least one verdict still fresh
    /// against `table`.
    pub fn len(&self, table: &NeighborTable<A>) -> usize {
        let mut prev = None;
        self.fresh_verdicts(table)
            .filter(|&(link, _, _)| prev.replace(link) != Some(link))
            .count()
    }

    /// `true` when no verdict is fresh against `table`.
    pub fn is_empty(&self, table: &NeighborTable<A>) -> bool {
        self.fresh_verdicts(table).next().is_none()
    }

    /// Clears the whole cache (e.g. when this node itself moves).
    pub fn clear(&mut self) {
        self.verdicts.clear();
    }

    /// `(hits, misses)` of [`Self::lookup`] since construction — the
    /// paper's motivation for the cache is saving repeated eq. (3)
    /// computations, so the ratio is worth reporting. A stale verdict
    /// counts as a miss.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Iterates over `(ongoing link, allowed receivers)` for display, in
    /// deterministic order: one item per link with at least one verdict
    /// still fresh against `table`.
    pub fn iter(&self, table: &NeighborTable<A>) -> impl Iterator<Item = (Link<A>, Vec<A>)> {
        let mut groups: Vec<(Link<A>, Vec<A>)> = Vec::new();
        for (link, receiver, allowed) in self.fresh_verdicts(table) {
            let receiver = allowed.then_some(receiver);
            match groups.last_mut() {
                Some((last, receivers)) if *last == link => receivers.extend(receiver),
                _ => groups.push((link, receiver.into_iter().collect())),
            }
        }
        groups.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use comap_radio::Position;

    #[test]
    fn starts_empty_and_misses() {
        let t = NeighborTable::new();
        let mut m: CoOccurrenceMap<u32> = CoOccurrenceMap::new();
        assert!(m.is_empty(&t));
        assert_eq!(m.lookup(&t, (1, 2), 3), None);
        assert_eq!(m.stats(), (0, 1));
    }

    #[test]
    fn records_both_verdicts() {
        let t = NeighborTable::new();
        let mut m = CoOccurrenceMap::new();
        m.record(&t, (1, 2), 3, true);
        m.record(&t, (1, 2), 4, false);
        assert_eq!(m.lookup(&t, (1, 2), 3), Some(true));
        assert_eq!(m.lookup(&t, (1, 2), 4), Some(false));
        assert_eq!(m.stats(), (2, 0));
        assert_eq!(m.iter(&t).collect::<Vec<_>>(), vec![((1, 2), vec![3])]);
    }

    #[test]
    fn re_recording_flips_verdict() {
        let t = NeighborTable::new();
        let mut m = CoOccurrenceMap::new();
        m.record(&t, (1, 2), 3, true);
        m.record(&t, (1, 2), 3, false);
        assert_eq!(m.lookup(&t, (1, 2), 3), Some(false));
        m.record(&t, (1, 2), 3, true);
        assert_eq!(m.lookup(&t, (1, 2), 3), Some(true));
    }

    #[test]
    fn ap_entries_hold_multiple_receivers() {
        let t = NeighborTable::new();
        let mut m = CoOccurrenceMap::new();
        m.record(&t, (10, 20), 1, true);
        m.record(&t, (10, 20), 2, true);
        m.record(&t, (10, 20), 3, false);
        assert_eq!(m.iter(&t).collect::<Vec<_>>(), vec![((10, 20), vec![1, 2])]);
        assert_eq!(m.len(&t), 1);
    }

    #[test]
    fn invalidation_drops_links_and_receivers() {
        let mut t = NeighborTable::new();
        let mut m = CoOccurrenceMap::new();
        m.record(&t, (1, 2), 3, true);
        m.record(&t, (4, 5), 1, true); // node 1 as receiver
        m.record(&t, (4, 5), 6, true);
        m.record(&t, (7, 8), 9, true);
        // Node 1's first accepted report: every verdict involving it
        // goes stale, as a link end or as a receiver.
        t.update(1, Position::ORIGIN);
        assert_eq!(m.lookup(&t, (1, 2), 3), None, "link with 1 dropped");
        assert_eq!(m.lookup(&t, (4, 5), 1), None, "receiver 1 dropped");
        assert_eq!(m.lookup(&t, (4, 5), 6), Some(true), "others kept");
        assert_eq!(m.lookup(&t, (7, 8), 9), Some(true));
    }

    #[test]
    fn invalidation_removes_emptied_entries() {
        let mut t = NeighborTable::new();
        let mut m = CoOccurrenceMap::new();
        t.update(1, Position::ORIGIN);
        m.record(&t, (4, 5), 1, true);
        // Below the mobility threshold: nothing goes stale.
        t.update(1, Position::new(1.0, 0.0));
        assert_eq!(m.len(&t), 1);
        t.update(1, Position::new(20.0, 0.0));
        assert!(m.is_empty(&t));
        assert_eq!(m.len(&t), 0);
    }

    #[test]
    fn clear_resets_entries_not_stats() {
        let t = NeighborTable::new();
        let mut m = CoOccurrenceMap::new();
        m.record(&t, (1, 2), 3, true);
        let _ = m.lookup(&t, (1, 2), 3);
        m.clear();
        assert!(m.is_empty(&t));
        assert_eq!(m.stats(), (1, 0));
    }

    #[test]
    fn iteration_is_deterministic() {
        let t = NeighborTable::new();
        let mut m = CoOccurrenceMap::new();
        m.record(&t, (2, 1), 5, true);
        m.record(&t, (1, 2), 4, true);
        let links: Vec<_> = m.iter(&t).map(|(l, _)| l).collect();
        assert_eq!(links, vec![(1, 2), (2, 1)]);
    }
}
