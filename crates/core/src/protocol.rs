//! The CO-MAP protocol façade.
//!
//! [`Protocol`] is the per-node object tying the pipeline of paper Fig. 5
//! together: position reports flow into a [`NeighborTable`], concurrency
//! queries flow through the [`CoOccurrenceMap`] cache backed by eq.-(3)
//! validation, and transmission parameters come from the hidden-terminal
//! census plus the precomputed [`AdaptationTable`].
//!
//! The neighbor table can live in two places. A standalone protocol owns
//! a private one, fed by [`Protocol::on_position_report`] and read by
//! [`Protocol::tx_setting`] and its siblings. Since the APs disseminate
//! every accepted report to every node (paper Section V), all nodes of a
//! network hold the same table, so a simulator keeps one shared position
//! directory instead: it applies each report once and passes the
//! directory to the `_in` queries ([`Protocol::tx_setting_in`] and its
//! siblings). Each query has one implementation, over whichever table it
//! is given, and reads this node's own position from that table too: the
//! private one holds the node's own report next to its neighbors', and
//! the shared directory holds every node's. Neither holder tells the
//! protocol about a neighbor's move: the co-occurrence verdicts are
//! stamped with the table's report counts and go stale on their own (see
//! [`CoOccurrenceMap`]). A move of the node itself drops every verdict
//! ([`Protocol::own_report_accepted`]).

use std::sync::Arc;

use comap_radio::units::Dbm;
use comap_radio::Position;

use crate::adapt::{AdaptationTable, TxSetting};
use crate::config::ProtocolConfig;
use crate::cooccurrence::CoOccurrenceMap;
use crate::error::CoMapError;
use crate::hidden::{HtCensus, HtCensusEngine};
use crate::neighbor::NeighborTable;
use crate::scheduler::EtScheduler;
use crate::validate::{ConcurrencyDecision, ConcurrencyValidator};
use crate::{Addr, Link};

/// Per-node CO-MAP state and decision logic.
///
/// See the crate-level example for the typical flow.
#[derive(Debug, Clone)]
pub struct Protocol<A: Addr> {
    addr: A,
    config: ProtocolConfig,
    neighbors: NeighborTable<A>,
    map: CoOccurrenceMap<A>,
    validator: ConcurrencyValidator,
    census: HtCensusEngine,
    adaptation: Arc<AdaptationTable>,
}

impl<A: Addr> Protocol<A> {
    /// Creates the protocol instance for node `addr`, precomputing the
    /// adaptation table for the configured PHY and model rate.
    pub fn new(addr: A, config: ProtocolConfig) -> Self {
        Self::with_adaptation(addr, config, Arc::new(config.adaptation_table()))
    }

    /// Creates the protocol instance for node `addr` around an already
    /// computed adaptation table, which must be
    /// [`ProtocolConfig::adaptation_table`] of `config`. A simulator
    /// builds the table once and shares it between all its nodes.
    pub fn with_adaptation(
        addr: A,
        config: ProtocolConfig,
        adaptation: Arc<AdaptationTable>,
    ) -> Self {
        let reception = config.reception();
        Protocol {
            addr,
            config,
            neighbors: NeighborTable::new(),
            map: CoOccurrenceMap::new(),
            validator: ConcurrencyValidator::new(reception),
            census: HtCensusEngine::new(reception, config.t_cs),
            adaptation,
        }
    }

    /// This node's address.
    pub fn addr(&self) -> A {
        self.addr
    }

    /// The active configuration.
    pub fn config(&self) -> &ProtocolConfig {
        &self.config
    }

    /// Writes this node's own position into the private neighbor table
    /// unconditionally (bootstrap), dropping every cached verdict.
    pub fn set_own_position(&mut self, position: Position) {
        self.neighbors.insert(self.addr, position);
        self.own_report_accepted();
    }

    /// This node's own report was accepted into the table its queries
    /// read: its geometry underlies every cached verdict, so all go.
    pub fn own_report_accepted(&mut self) {
        self.map.clear();
    }

    /// Ingests a position report into the private neighbor table.
    /// Returns `true` when the neighborhood actually changed, which also
    /// turns every cached verdict involving `addr` stale. A report about
    /// this node itself is [`Self::set_own_position`].
    pub fn on_position_report(&mut self, addr: A, position: Position) -> bool {
        if addr == self.addr {
            self.set_own_position(position);
            return true;
        }
        self.neighbors.update(addr, position)
    }

    /// Full eq.-(3) validation of "may I transmit to `receiver` while
    /// `ongoing` is on the air", bypassing the cache.
    ///
    /// # Errors
    ///
    /// Fails when any involved position is unknown or the query references
    /// this node as part of the ongoing link.
    pub fn concurrency_decision(
        &self,
        ongoing: Link<A>,
        receiver: A,
    ) -> Result<ConcurrencyDecision, CoMapError<A>> {
        self.concurrency_decision_in(&self.neighbors, ongoing, receiver)
    }

    /// [`Self::concurrency_decision`] over the shared position directory
    /// `table` instead of the private neighbor table.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Self::concurrency_decision`].
    pub fn concurrency_decision_in(
        &self,
        table: &NeighborTable<A>,
        ongoing: Link<A>,
        receiver: A,
    ) -> Result<ConcurrencyDecision, CoMapError<A>> {
        let me = self.position_in(table, self.addr)?;
        let (src, dst) = ongoing;
        if src == self.addr || dst == self.addr {
            return Err(CoMapError::SelfReference(self.addr));
        }
        let rx = self.position_in(table, receiver)?;
        let src_pos = self.position_in(table, src)?;
        let dst_pos = self.position_in(table, dst)?;
        Ok(self.validator.validate(me, rx, src_pos, dst_pos))
    }

    /// Cached concurrency check — the hot path a MAC calls on every
    /// discovery header. Consults the co-occurrence map first and falls
    /// back to computation, recording the verdict.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Self::concurrency_decision`].
    pub fn concurrency_allowed(
        &mut self,
        ongoing: Link<A>,
        receiver: A,
    ) -> Result<bool, CoMapError<A>> {
        self.cached_verdict(None, ongoing, receiver)
    }

    /// [`Self::concurrency_allowed`] over the shared position directory
    /// `table` instead of the private neighbor table.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Self::concurrency_decision`].
    pub fn concurrency_allowed_in(
        &mut self,
        table: &NeighborTable<A>,
        ongoing: Link<A>,
        receiver: A,
    ) -> Result<bool, CoMapError<A>> {
        self.cached_verdict(Some(table), ongoing, receiver)
    }

    /// Hidden-terminal census for the link `self → receiver`.
    ///
    /// # Errors
    ///
    /// Fails when positions are missing.
    pub fn ht_census(&self, receiver: A) -> Result<HtCensus<A>, CoMapError<A>> {
        let (me, rx) = self.link_ends(&self.neighbors, receiver)?;
        Ok(self
            .census
            .census(&self.neighbors, self.addr, me, receiver, rx))
    }

    /// The transmission parameters CO-MAP installs for the link
    /// `self → receiver`: the adaptation-table entry for the censused
    /// `(N_ht, c)`.
    ///
    /// # Errors
    ///
    /// Fails when positions are missing.
    pub fn tx_setting(&self, receiver: A) -> Result<TxSetting, CoMapError<A>> {
        self.tx_setting_in(&self.neighbors, receiver)
    }

    /// [`Self::tx_setting`] censused over the shared position directory
    /// `table` instead of the private neighbor table. This node's own
    /// entry in `table` is its position, not a neighbor to census, like
    /// the link's other end.
    ///
    /// # Errors
    ///
    /// Fails when positions are missing.
    pub fn tx_setting_in(
        &self,
        table: &NeighborTable<A>,
        receiver: A,
    ) -> Result<TxSetting, CoMapError<A>> {
        let (me, rx) = self.link_ends(table, receiver)?;
        let (n_ht, c) = self.census.counts(table, self.addr, me, receiver, rx);
        Ok(self.adaptation.setting(n_ht, c))
    }

    /// Records the observed outcome of a *concurrent* transmission: a
    /// success confirms the cached verdict, a failure blacklists the
    /// (ongoing link, receiver) pair. With static (per-link) shadowing a
    /// geometry that the mean-field eq. (3) admits can be persistently
    /// bad; feeding MAC outcomes back into the co-occurrence map stops
    /// the protocol from re-trying such pairs forever.
    pub fn record_concurrency_outcome(&mut self, ongoing: Link<A>, receiver: A, success: bool) {
        self.map.record(&self.neighbors, ongoing, receiver, success);
    }

    /// [`Self::record_concurrency_outcome`] stamped against the shared
    /// position directory `table`, the one its lookups read.
    pub fn record_concurrency_outcome_in(
        &mut self,
        table: &NeighborTable<A>,
        ongoing: Link<A>,
        receiver: A,
        success: bool,
    ) {
        self.map.record(table, ongoing, receiver, success);
    }

    /// Arms the enhanced-scheduling RSSI watchdog with the power observed
    /// at discovery time.
    pub fn arm_scheduler(&self, rssi1: Dbm) -> EtScheduler {
        EtScheduler::arm(rssi1, self.config.t_cs_delta())
    }

    /// Read access to the private neighbor table of a standalone
    /// protocol, this node's own position included. A protocol queried
    /// through a shared position directory (the `_in` methods) is never
    /// fed a position, so its table stays empty.
    pub fn neighbors(&self) -> &NeighborTable<A> {
        &self.neighbors
    }

    /// Read access to the co-occurrence map.
    pub fn cooccurrence(&self) -> &CoOccurrenceMap<A> {
        &self.map
    }

    /// Read access to the adaptation table.
    pub fn adaptation(&self) -> &AdaptationTable {
        &self.adaptation
    }

    /// The co-occurrence lookup behind both `concurrency_allowed` forms,
    /// validating over `shared`, or over the private table when `None`.
    fn cached_verdict(
        &mut self,
        shared: Option<&NeighborTable<A>>,
        ongoing: Link<A>,
        receiver: A,
    ) -> Result<bool, CoMapError<A>> {
        let table = shared.unwrap_or(&self.neighbors);
        if let Some(cached) = self.map.lookup(table, ongoing, receiver) {
            return Ok(cached);
        }
        let allowed = self
            .concurrency_decision_in(table, ongoing, receiver)?
            .allowed();
        self.map.record(table, ongoing, receiver, allowed);
        Ok(allowed)
    }

    /// Positions of this node and `receiver`, the ends of the link
    /// `self → receiver`.
    fn link_ends(
        &self,
        table: &NeighborTable<A>,
        receiver: A,
    ) -> Result<(Position, Position), CoMapError<A>> {
        Ok((
            self.position_in(table, self.addr)?,
            self.position_in(table, receiver)?,
        ))
    }

    /// `addr`'s position in `table`, this node's own included: the
    /// table holds every position a query reads.
    fn position_in(&self, table: &NeighborTable<A>, addr: A) -> Result<Position, CoMapError<A>> {
        table.position(addr).ok_or(if addr == self.addr {
            CoMapError::OwnPositionUnknown
        } else {
            CoMapError::UnknownNeighbor(addr)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's Fig. 3 example network, scaled so the distances suit the
    /// testbed channel: C2 → AP0 ongoing on the left, C11 → AP1 candidate
    /// on the right, C1 close to AP0.
    fn fig3() -> Protocol<&'static str> {
        let mut p = Protocol::new("C11", ProtocolConfig::testbed());
        p.set_own_position(Position::new(6.0, 0.0));
        p.on_position_report("AP1", Position::new(10.0, 0.0));
        p.on_position_report("C2", Position::new(-30.0, 0.0));
        p.on_position_report("AP0", Position::new(-34.0, 0.0));
        p.on_position_report("C1", Position::new(-33.0, 2.0));
        p
    }

    #[test]
    fn fig3_c11_can_ride_alongside_c2() {
        let mut p = fig3();
        assert!(p.concurrency_allowed(("C2", "AP0"), "AP1").unwrap());
        // Second query hits the cache.
        assert!(p.concurrency_allowed(("C2", "AP0"), "AP1").unwrap());
        let (hits, misses) = p.cooccurrence().stats();
        assert_eq!((hits, misses), (1, 1));
    }

    #[test]
    fn missing_positions_error_cleanly() {
        let mut p: Protocol<&str> = Protocol::new("X", ProtocolConfig::testbed());
        assert_eq!(
            p.concurrency_allowed(("A", "B"), "C"),
            Err(CoMapError::OwnPositionUnknown)
        );
        p.set_own_position(Position::ORIGIN);
        assert_eq!(
            p.concurrency_allowed(("A", "B"), "C"),
            Err(CoMapError::UnknownNeighbor("C"))
        );
    }

    #[test]
    fn own_link_is_rejected_as_ongoing() {
        let mut p = fig3();
        assert_eq!(
            p.concurrency_allowed(("C11", "AP1"), "AP1"),
            Err(CoMapError::SelfReference("C11"))
        );
    }

    #[test]
    fn neighbor_motion_invalidates_cache() {
        let mut p = fig3();
        assert!(p.concurrency_allowed(("C2", "AP0"), "AP1").unwrap());
        assert_eq!(p.cooccurrence().len(p.neighbors()), 1);
        // C2 walks 20 m: every cached verdict involving it must go.
        assert!(p.on_position_report("C2", Position::new(-10.0, 0.0)));
        assert_eq!(p.cooccurrence().len(p.neighbors()), 0);
    }

    #[test]
    fn sub_threshold_motion_keeps_cache() {
        let mut p = fig3();
        let _ = p.concurrency_allowed(("C2", "AP0"), "AP1").unwrap();
        assert!(!p.on_position_report("C2", Position::new(-29.0, 0.0)));
        assert_eq!(p.cooccurrence().len(p.neighbors()), 1);
    }

    #[test]
    fn own_motion_clears_cache() {
        let mut p = fig3();
        let _ = p.concurrency_allowed(("C2", "AP0"), "AP1").unwrap();
        p.set_own_position(Position::new(7.0, 0.0));
        assert!(p.cooccurrence().is_empty(p.neighbors()));
    }

    #[test]
    fn census_and_setting_flow() {
        // A 20 m link with a node 42 m from the sender (past the ~36 m
        // 90 %-miss boundary) and 22 m from the receiver (inside the
        // interference range of a 20 m link): a textbook hidden terminal.
        let mut p = Protocol::new("me", ProtocolConfig::testbed());
        p.set_own_position(Position::new(0.0, 0.0));
        p.on_position_report("AP", Position::new(20.0, 0.0));
        p.on_position_report("H", Position::new(42.0, 0.0));
        let census = p.ht_census("AP").unwrap();
        assert_eq!(census.hidden, vec!["H"], "census = {census:?}");
        let setting = p.tx_setting("AP").unwrap();
        let calm = p.adaptation().setting(0, census.n_contenders());
        assert!(setting.payload_bytes <= calm.payload_bytes);
    }

    #[test]
    fn shared_adaptation_table_equals_the_own_one() {
        for cfg in [ProtocolConfig::testbed(), ProtocolConfig::large_scale()] {
            let shared = Arc::new(cfg.adaptation_table());
            let a = Protocol::with_adaptation("a", cfg, Arc::clone(&shared));
            let b = Protocol::with_adaptation("b", cfg, Arc::clone(&shared));
            assert_eq!(a.adaptation(), Protocol::new("c", cfg).adaptation());
            assert!(std::ptr::eq(a.adaptation(), b.adaptation()));
        }
    }

    #[test]
    fn position_report_about_self_sets_own() {
        let mut p: Protocol<&str> = Protocol::new("me", ProtocolConfig::testbed());
        assert!(p.on_position_report("me", Position::new(1.0, 2.0)));
        assert_eq!(p.neighbors().position("me"), Some(Position::new(1.0, 2.0)));
        // Unconditional, unlike a neighbor's report: a 1 m step is taken.
        assert!(p.on_position_report("me", Position::new(2.0, 2.0)));
        assert_eq!(p.neighbors().position("me"), Some(Position::new(2.0, 2.0)));
    }

    #[test]
    fn a_shared_protocol_reads_its_own_position_from_the_directory() {
        let mut p: Protocol<&str> = Protocol::new("me", ProtocolConfig::testbed());
        let mut directory = NeighborTable::new();
        directory.insert("AP", Position::new(20.0, 0.0));
        assert_eq!(
            p.tx_setting_in(&directory, "AP"),
            Err(CoMapError::OwnPositionUnknown)
        );
        directory.insert("me", Position::ORIGIN);
        directory.insert("C2", Position::new(-30.0, 0.0));
        directory.insert("AP0", Position::new(-34.0, 0.0));
        assert!(p.tx_setting_in(&directory, "AP").is_ok());
        assert!(p
            .concurrency_allowed_in(&directory, ("C2", "AP0"), "AP")
            .is_ok());
        assert_eq!(p.cooccurrence().len(&directory), 1);
        // The directory accepts the node's own report: every verdict goes.
        assert!(directory.update("me", Position::new(9.0, 0.0)));
        p.own_report_accepted();
        assert!(p.cooccurrence().is_empty(&directory));
        assert!(p.neighbors().is_empty(), "the protocol holds no position");
    }
}
