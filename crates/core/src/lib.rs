//! # comap-core — the CO-MAP protocol
//!
//! CO-MAP (*Co-Occurrence MAP*) is the primary contribution of the paper
//! being reproduced: a unified, distributed framework that converts device
//! **positions** into **interference relations** to handle both exposed-
//! and hidden-terminal problems in mobile WLANs.
//!
//! The crate mirrors the paper's Section IV design:
//!
//! * [`neighbor`] — the neighbor table of 2-hop positions, the node's
//!   own included, with the movement-threshold update rule of Section V
//!   (mobility management): a report is accepted, and disseminated, only
//!   when the node moved more than 5 m from its last accepted one; a
//!   standalone [`Protocol`] owns one table, a simulator shares one
//!   between all nodes (see [`protocol`]),
//! * [`validate`] — concurrency validation of an exposed transmission
//!   against an ongoing one via eq. (3), in both directions (Fig. 4),
//! * [`cooccurrence`] — the co-occurrence map itself: per-link caches of
//!   validated concurrent receivers (Fig. 5),
//! * [`hidden`] — the hidden-terminal census of Section IV-D1
//!   (interference range ∩ `Pr{P_r < T_cs} > 90 %`),
//! * [`model`] — the analytical goodput model of Section IV-D2 extending
//!   Bianchi's DCF analysis with hidden terminals (eqs. 5–9),
//! * [`adapt`] — the precomputed best-(CW, payload) table indexed by
//!   hidden-terminal and contender counts (Section IV-D3),
//! * [`scheduler`] — the enhanced multiple-ET scheduling rule
//!   (`RSSI₂ ≥ RSSI₁ + T'_cs` ⇒ abandon, Section IV-C3),
//! * [`config`] — the paper's fixed protocol parameters as constants, and
//!   the two [`ProtocolConfig`] presets,
//! * [`protocol`] — [`Protocol`], the façade tying the pieces together.
//!
//! # Example
//!
//! Validate a concurrent transmission in the paper's Fig. 4 geometry:
//!
//! ```rust
//! use comap_core::{ProtocolConfig, Protocol};
//! use comap_radio::Position;
//!
//! # fn main() -> Result<(), comap_core::CoMapError<&'static str>> {
//! let mut proto = Protocol::new("C11", ProtocolConfig::testbed());
//! proto.set_own_position(Position::new(6.0, 0.0));
//! proto.on_position_report("AP1", Position::new(10.0, 0.0));
//! proto.on_position_report("C2", Position::new(-30.0, 0.0));
//! proto.on_position_report("AP0", Position::new(-34.0, 0.0));
//!
//! // While C2 → AP0 is on the air, may C11 transmit to AP1?
//! let decision = proto.concurrency_decision(("C2", "AP0"), "AP1")?;
//! assert!(decision.allowed());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![cfg_attr(
    not(test),
    warn(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::todo,
        clippy::float_cmp,
        clippy::allow_attributes,
        clippy::allow_attributes_without_reason
    )
)]

pub mod adapt;
pub mod config;
pub mod cooccurrence;
pub mod error;
pub mod hidden;
pub mod model;
pub mod neighbor;
pub mod protocol;
pub mod scheduler;
pub mod validate;

pub use adapt::{AdaptationTable, TxSetting};
pub use config::ProtocolConfig;
pub use cooccurrence::CoOccurrenceMap;
pub use error::CoMapError;
pub use hidden::{HtCensus, NeighborClass};
pub use model::{DcfModel, ModelInput};
pub use neighbor::NeighborTable;
pub use protocol::Protocol;
pub use scheduler::{EtAction, EtScheduler};
pub use validate::{ConcurrencyDecision, ConcurrencyValidator};

/// The address bound required of node identifiers throughout the crate.
///
/// Implemented automatically for anything cheap to copy, hashable and
/// orderable — `&'static str` in the examples, small integer ids in the
/// simulator.
pub trait Addr: Copy + Eq + std::hash::Hash + Ord + std::fmt::Debug {}

impl<T: Copy + Eq + std::hash::Hash + Ord + std::fmt::Debug> Addr for T {}

/// A directed link `src → dst`.
pub type Link<A> = (A, A);
