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
//! losses), and is invalidated per-node when the neighbor table reports a
//! significant position change.

use std::collections::BTreeMap;

use crate::{Addr, Link};

/// Cached concurrency knowledge: ongoing link → receivers this node can
/// use concurrently (and the receivers known to be unusable).
///
/// One flat map holds every verdict, keyed by `(ongoing link, receiver)`,
/// so a receiver is allowed or denied by construction, never both.
///
/// ```rust
/// use comap_core::CoOccurrenceMap;
///
/// let mut map: CoOccurrenceMap<&str> = CoOccurrenceMap::new();
/// map.record(("C2", "AP0"), "AP1", true);
/// assert_eq!(map.lookup(("C2", "AP0"), "AP1"), Some(true));
/// assert_eq!(map.lookup(("C2", "AP0"), "C12"), None); // not yet validated
/// ```
#[derive(Debug, Clone, Default)]
pub struct CoOccurrenceMap<A: Addr> {
    verdicts: BTreeMap<(Link<A>, A), bool>,
    hits: u64,
    misses: u64,
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
    /// `ongoing` is on the air. `None` means "never validated" and the
    /// caller should fall back to computation (and then [`record`] it).
    ///
    /// [`record`]: Self::record
    pub fn lookup(&mut self, ongoing: Link<A>, receiver: A) -> Option<bool> {
        let verdict = self.verdicts.get(&(ongoing, receiver)).copied();
        match verdict {
            Some(_) => self.hits += 1,
            None => self.misses += 1,
        }
        verdict
    }

    /// Caches a validation outcome for (`ongoing`, `receiver`).
    pub fn record(&mut self, ongoing: Link<A>, receiver: A, allowed: bool) {
        self.verdicts.insert((ongoing, receiver), allowed);
    }

    /// Number of ongoing links with at least one cached verdict.
    pub fn len(&self) -> usize {
        let mut prev = None;
        self.verdicts
            .keys()
            .filter(|&&(link, _)| prev.replace(link) != Some(link))
            .count()
    }

    /// `true` when nothing has been cached yet.
    pub fn is_empty(&self) -> bool {
        self.verdicts.is_empty()
    }

    /// Drops every entry that involves `addr` — as an endpoint of the
    /// ongoing link or as a cached receiver. Called when `addr` moves
    /// beyond the mobility threshold.
    pub fn invalidate_involving(&mut self, addr: A) {
        self.verdicts
            .retain(|&((src, dst), receiver), _| src != addr && dst != addr && receiver != addr);
    }

    /// Clears the whole cache (e.g. when this node itself moves).
    pub fn clear(&mut self) {
        self.verdicts.clear();
    }

    /// `(hits, misses)` of [`Self::lookup`] since construction — the
    /// paper's motivation for the cache is saving repeated eq. (3)
    /// computations, so the ratio is worth reporting.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Iterates over `(ongoing link, allowed receivers)` for display, in
    /// deterministic order: one item per link with at least one verdict.
    pub fn iter(&self) -> impl Iterator<Item = (Link<A>, Vec<A>)> + '_ {
        let mut groups: Vec<(Link<A>, Vec<A>)> = Vec::new();
        for (&(link, receiver), &allowed) in &self.verdicts {
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

    #[test]
    fn starts_empty_and_misses() {
        let mut m: CoOccurrenceMap<u32> = CoOccurrenceMap::new();
        assert!(m.is_empty());
        assert_eq!(m.lookup((1, 2), 3), None);
        assert_eq!(m.stats(), (0, 1));
    }

    #[test]
    fn records_both_verdicts() {
        let mut m = CoOccurrenceMap::new();
        m.record((1, 2), 3, true);
        m.record((1, 2), 4, false);
        assert_eq!(m.lookup((1, 2), 3), Some(true));
        assert_eq!(m.lookup((1, 2), 4), Some(false));
        assert_eq!(m.stats(), (2, 0));
        assert_eq!(m.iter().collect::<Vec<_>>(), vec![((1, 2), vec![3])]);
    }

    #[test]
    fn re_recording_flips_verdict() {
        let mut m = CoOccurrenceMap::new();
        m.record((1, 2), 3, true);
        m.record((1, 2), 3, false);
        assert_eq!(m.lookup((1, 2), 3), Some(false));
        m.record((1, 2), 3, true);
        assert_eq!(m.lookup((1, 2), 3), Some(true));
    }

    #[test]
    fn ap_entries_hold_multiple_receivers() {
        let mut m = CoOccurrenceMap::new();
        m.record((10, 20), 1, true);
        m.record((10, 20), 2, true);
        m.record((10, 20), 3, false);
        assert_eq!(m.iter().collect::<Vec<_>>(), vec![((10, 20), vec![1, 2])]);
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn invalidation_drops_links_and_receivers() {
        let mut m = CoOccurrenceMap::new();
        m.record((1, 2), 3, true);
        m.record((4, 5), 1, true); // node 1 as receiver
        m.record((4, 5), 6, true);
        m.record((7, 8), 9, true);
        m.invalidate_involving(1);
        assert_eq!(m.lookup((1, 2), 3), None, "link with 1 dropped");
        assert_eq!(m.lookup((4, 5), 1), None, "receiver 1 dropped");
        assert_eq!(m.lookup((4, 5), 6), Some(true), "others kept");
        assert_eq!(m.lookup((7, 8), 9), Some(true));
    }

    #[test]
    fn invalidation_removes_emptied_entries() {
        let mut m = CoOccurrenceMap::new();
        m.record((4, 5), 1, true);
        m.invalidate_involving(1);
        assert!(m.is_empty());
    }

    #[test]
    fn clear_resets_entries_not_stats() {
        let mut m = CoOccurrenceMap::new();
        m.record((1, 2), 3, true);
        let _ = m.lookup((1, 2), 3);
        m.clear();
        assert!(m.is_empty());
        assert_eq!(m.stats(), (1, 0));
    }

    #[test]
    fn iteration_is_deterministic() {
        let mut m = CoOccurrenceMap::new();
        m.record((2, 1), 5, true);
        m.record((1, 2), 4, true);
        let links: Vec<_> = m.iter().map(|(l, _)| l).collect();
        assert_eq!(links, vec![(1, 2), (2, 1)]);
    }
}
