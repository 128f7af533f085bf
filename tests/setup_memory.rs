//! `Simulator::new` keeps no `n²` state when no rate genie reads true
//! positions: under a fixed rate every MAC gets an empty position
//! table, so a 1,000-node campus sets up in a few MiB. One 16-byte
//! position per node per MAC would be 1000² · 16 B = 15.3 MiB alone.
//!
//! The counting global allocator of `counting_alloc` (shared with the
//! simulator crate's heap-budget tests) tracks the live-byte high-water
//! mark per thread.

#![expect(
    clippy::disallowed_macros,
    reason = "the allocation counter must be per thread: the harness runs tests in parallel"
)]

#[path = "../crates/sim/tests/counting_alloc/mod.rs"]
mod counting_alloc;

use comap::experiments::topology::scale_campus;
use comap::sim::config::MacFeatures;
use comap::sim::{RateController, Simulator};
use counting_alloc::{live_bytes, peak_bytes, reset_peak};

/// Nodes of the campus.
const NODES: usize = 1_000;

/// Peak heap of `Simulator::new` on the campus below.
const SETUP_BUDGET_BYTES: i64 = 4 << 20;

#[test]
fn fixed_rate_setup_holds_no_position_table_per_mac() {
    let (cfg, _) = scale_campus(NODES, 1, MacFeatures::COMAP, 1);
    assert!(matches!(cfg.rate_controller, RateController::Fixed(_)));
    let before = live_bytes();
    reset_peak();
    let sim = Simulator::new(cfg);
    let peak = peak_bytes() - before;
    drop(sim);
    assert!(
        peak <= SETUP_BUDGET_BYTES,
        "Simulator::new peaked at {peak} B over {NODES} nodes; at most {SETUP_BUDGET_BYTES} B \
         are allowed"
    );
}
