//! # CO-MAP — location-aided multiple access for mobile WLANs
//!
//! This is the umbrella crate of a full reproduction of *"Harnessing Mobile
//! Multiple Access Efficiency with Location Input"* (IEEE ICDCS 2013), the
//! CO-MAP system. It re-exports the workspace crates:
//!
//! * [`radio`] — propagation, interference and packet-reception math,
//! * [`mac`] — IEEE 802.11 timing, frames and backoff primitives,
//! * [`core`] — the CO-MAP protocol itself (co-occurrence map, hidden
//!   terminal census, analytical model, packet-size adaptation),
//! * [`sim`] — a discrete-event wireless network simulator,
//! * [`experiments`] — topologies and runners reproducing every figure and
//!   table of the paper's evaluation.
//!
//! # Quickstart
//!
//! Build the co-occurrence map of the paper's Fig. 3 example network:
//!
//! ```rust
//! use comap::core::NeighborTable;
//! use comap::radio::Position;
//!
//! # fn main() {
//! let mut table = NeighborTable::new();
//! table.update("C2", Position::new(4.0, -10.0));
//! table.update("AP0", Position::new(4.0, 8.0));
//! assert_eq!(table.len(), 2);
//! # }
//! ```
//!
//! See `examples/quickstart.rs` for the complete pipeline (neighbor table →
//! PRR table → co-occurrence map) and the `comap-experiments` binaries for
//! the paper's evaluation scenarios.

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

pub use comap_core as core;
pub use comap_experiments as experiments;
pub use comap_mac as mac;
pub use comap_radio as radio;
pub use comap_sim as sim;
