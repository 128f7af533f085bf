//! # comap-sim — a discrete-event wireless network simulator
//!
//! The NS-2 substitute of this reproduction: an event-driven simulation of
//! 802.11 DCF cells over a log-normal-shadowing channel, with the CO-MAP
//! protocol switchable per node.
//!
//! ## Physics
//!
//! * Per-transmission, per-receiver shadowing draws (paper eq. 1) — the
//!   same draw governs carrier sensing and reception of a frame, so the
//!   channel is self-consistent.
//! * SINR-threshold reception with capture: a receiver locks onto the
//!   first decodable preamble and the frame survives iff its SINR against
//!   the *worst* overlapping interference stays above the rate's
//!   threshold. A stronger late frame can steal the lock (preamble
//!   capture), as commodity 802.11 receivers do.
//! * Carrier sense compares total ambient power (noise floor + every
//!   active transmission) against the CCA threshold.
//!
//! ## MAC
//!
//! One state machine ([`mac::Mac`]) implements plain DCF and, behind
//! [`config::MacFeatures`] toggles, every CO-MAP extension: discovery
//! headers, co-occurrence-map concurrency, the enhanced multi-ET
//! scheduler, selective-repeat ARQ and packet-size/CW adaptation. This
//! mirrors the paper's implementation, which extends a driver's DCF path.
//!
//! ## Determinism
//!
//! Integer-nanosecond clock, a tie-broken binary-heap event queue and
//! seed-derived RNG streams make every run bit-reproducible; see
//! `tests/determinism.rs`.
//!
//! ## Observability
//!
//! Attach [`observe::Observer`] sinks via [`Simulator::attach_sink`] to
//! receive typed, timestamped [`observe::SimEvent`]s from the medium,
//! the MAC and the CO-MAP logic — a JSONL exporter, an in-memory
//! metrics aggregator and a human-readable timeline ship with the
//! crate, and [`Simulator::run_profiled`] times the event loop itself.
//! The [`SimReport`] counters are a fold of the same events; with no
//! sink attached only those report-counted events are constructed, and
//! sinks can never perturb results (see `tests/observability.rs`). With
//! sinks attached, the event loop runs on a scoped worker thread while
//! the calling thread feeds the sinks, in emission order.
//!
//! # Example
//!
//! Two nodes, one saturated link, one second of air time:
//!
//! ```rust
//! use comap_sim::{NodeSpec, SimConfig, Simulator, Traffic};
//! use comap_radio::Position;
//! use comap_mac::SimDuration;
//!
//! let mut cfg = SimConfig::testbed(42);
//! let a = cfg.add_node(NodeSpec::client("A", Position::new(0.0, 0.0)));
//! let b = cfg.add_node(NodeSpec::ap("B", Position::new(10.0, 0.0)));
//! cfg.add_flow(a, b, Traffic::Saturated);
//!
//! let report = Simulator::new(cfg).run(SimDuration::from_millis(500));
//! assert!(report.link_goodput_bps(a, b) > 1e6);
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
        clippy::allow_attributes_without_reason,
        clippy::wildcard_enum_match_arm,
        clippy::match_wildcard_for_single_variants
    )
)]

pub mod config;
pub mod event;
pub mod frame;
pub mod json;
pub mod latency;
pub mod mac;
pub mod medium;
pub mod metrics;
pub mod observe;
pub mod profile;
pub mod rate;
pub mod sim;
pub mod stats;

pub use config::{ConfigError, MacFeatures, NodeSpec, SimConfig, Traffic};
pub use frame::{Frame, NodeId};
pub use json::Json;
pub use latency::{Latency, LatencyHistogram, LatencySink, NodeLatency};
pub use medium::{MediumBackend, MediumCounters};
pub use metrics::{Metrics, MetricsSink};
pub use observe::{JsonlSink, NoopSink, Observer, SimEvent, TimelineHandle, TimelineSink};
pub use profile::RunProfile;
pub use rate::RateController;
pub use sim::Simulator;
pub use stats::SimReport;

// Compile-time thread safety: an observed run moves the simulator's
// engine to a worker thread, and a sharded engine would hand these
// parts to worker shards, so they must be `Send`. A non-`Send` field
// anywhere inside these types (an `Rc`, a raw pointer) fails the build
// here.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<sim::Engine>();
    assert_send::<medium::Medium>();
    assert_send::<mac::Mac>();
    assert_send::<event::EventQueue>();
    assert_send::<comap_core::NeighborTable<NodeId>>();
    assert_send::<SimReport>();
};
