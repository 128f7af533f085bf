//! Simulation configuration: nodes, flows, MAC features and presets.

use std::collections::BTreeSet;
use std::error::Error;
use std::fmt;

use comap_core::config::ProtocolConfig;
use comap_mac::backoff::BackoffPolicy;
use comap_radio::rates::Rate;
use comap_radio::units::Meters;
use comap_radio::Position;

use crate::frame::NodeId;
use crate::medium::MediumBackend;
use crate::rate::RateController;

/// Which CO-MAP extensions a node's MAC runs. All off = plain DCF.
///
/// Each toggle isolates one contribution for ablation benches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MacFeatures {
    /// Send a discovery header before every data frame so neighbors learn
    /// about ongoing transmissions (Section V).
    pub discovery_header: bool,
    /// Act on discovered transmissions: validate concurrency through the
    /// co-occurrence map and run the enhanced ET scheduler (Section IV-C).
    pub et_concurrency: bool,
    /// Adapt payload size and contention window to the hidden-terminal
    /// census (Section IV-D).
    pub ht_adaptation: bool,
    /// Replace stop-and-wait ACKs with selective-repeat ARQ
    /// (Section IV-C4).
    pub selective_repeat: bool,
    /// RTS/CTS virtual carrier sense — the optional 802.11 baseline the
    /// paper disables ("overhead, inefficiency of detecting all HTs, and
    /// aggravation of the ET problem"); implemented so those claims can
    /// be measured.
    pub rts_cts: bool,
}

impl MacFeatures {
    /// Plain 802.11 DCF — the paper's baseline.
    pub const DCF: MacFeatures = MacFeatures {
        discovery_header: false,
        et_concurrency: false,
        ht_adaptation: false,
        selective_repeat: false,
        rts_cts: false,
    };

    /// Full CO-MAP.
    pub const COMAP: MacFeatures = MacFeatures {
        discovery_header: true,
        et_concurrency: true,
        ht_adaptation: true,
        selective_repeat: true,
        rts_cts: false,
    };

    /// Plain DCF with RTS/CTS virtual carrier sense.
    pub const DCF_RTS_CTS: MacFeatures = MacFeatures {
        rts_cts: true,
        ..MacFeatures::DCF
    };

    /// `true` if any CO-MAP feature is on (RTS/CTS is a baseline
    /// feature, not a CO-MAP one).
    pub fn any(self) -> bool {
        self.discovery_header || self.et_concurrency || self.ht_adaptation || self.selective_repeat
    }
}

/// Offered traffic of one flow.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Traffic {
    /// Always backlogged (the testbed's Iperf behaviour).
    Saturated,
    /// Constant bit rate in payload bits per second (Table I uses 3 Mbps).
    Cbr {
        /// Offered payload rate.
        bps: f64,
    },
}

/// One node to instantiate.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeSpec {
    /// Human-readable label used in reports and traces.
    pub name: String,
    /// True position on the floor plan.
    pub position: Position,
    /// Per-node payload-size override; `None` inherits
    /// [`SimConfig::payload_bytes`].
    pub payload: Option<u32>,
    /// Scheduled movements (step motion): at each instant the node jumps
    /// to the given position and the physics follow the new geometry. A
    /// node that runs CO-MAP also reports its localization fix, which
    /// the simulator's position directory accepts, and disseminates,
    /// only when it lies more than 5 m from the node's last accepted
    /// report.
    pub moves: Vec<Move>,
}

/// One scheduled movement of a node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Move {
    /// When the movement happens (simulation time from start).
    pub at: comap_mac::time::SimDuration,
    /// Where the node ends up.
    pub to: Position,
}

impl NodeSpec {
    /// A client station.
    pub fn client(name: impl Into<String>, position: Position) -> Self {
        NodeSpec {
            name: name.into(),
            position,
            payload: None,
            moves: Vec::new(),
        }
    }

    /// An access point. The simulator treats it as any other node: the
    /// role lives only in the topology's flows and the node's name.
    pub fn ap(name: impl Into<String>, position: Position) -> Self {
        Self::client(name, position)
    }

    /// Overrides the payload size of this node's frames.
    pub fn with_payload(mut self, payload_bytes: u32) -> Self {
        self.payload = Some(payload_bytes);
        self
    }

    /// Schedules a movement.
    pub fn with_move(mut self, at: comap_mac::time::SimDuration, to: Position) -> Self {
        self.moves.push(Move { at, to });
        self
    }
}

/// A unidirectional traffic flow.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowSpec {
    /// Sending node.
    pub src: NodeId,
    /// Receiving node.
    pub dst: NodeId,
    /// Offered load.
    pub traffic: Traffic,
}

/// Why a [`SimConfig`] does not describe a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigError {
    /// There are no nodes.
    NoNodes,
    /// A flow names a node that does not exist.
    UnknownEndpoint(NodeId),
    /// A flow's source is also its destination.
    SelfFlow(NodeId),
    /// Two flows share one `(src, dst)` pair.
    DuplicateFlow {
        /// Sending node.
        src: NodeId,
        /// Receiving node.
        dst: NodeId,
    },
    /// A CBR flow's rate is not a finite, positive number of bits per
    /// second.
    InvalidCbrRate {
        /// Sending node.
        src: NodeId,
        /// Receiving node.
        dst: NodeId,
    },
    /// A node's position, or the target of one of its moves, has a
    /// non-finite coordinate.
    NonFinitePosition(NodeId),
    /// [`SimConfig::position_error`] is not a finite radius.
    NonFinitePositionError,
    /// [`SimConfig::position_quantum`] is not a finite grid step.
    NonFinitePositionQuantum,
    /// A node's position, or the target of one of its moves, lies 2⁶³
    /// or more position quanta from the origin on some axis: its cell
    /// index does not fit the medium's `i64` snap.
    BeyondQuantumGrid(NodeId),
    /// A [`RateController::Fixed`] rate is not of the PHY standard of
    /// [`ProtocolConfig::phy`]: no frame can be timed at it.
    ForeignFixedRate(Rate),
    /// [`ProtocolConfig::arq_window`] lies outside `1..=64`, the
    /// selective-repeat ACK bitmap's width.
    InvalidArqWindow(usize),
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::NoNodes => write!(f, "a simulation needs at least one node"),
            ConfigError::UnknownEndpoint(node) => write!(f, "flow endpoint {node} is not a node"),
            ConfigError::SelfFlow(node) => write!(f, "flow from {node} to itself"),
            ConfigError::DuplicateFlow { src, dst } => {
                write!(f, "more than one flow from {src} to {dst}")
            }
            ConfigError::InvalidCbrRate { src, dst } => {
                write!(
                    f,
                    "flow {src} to {dst}: CBR rate is not finite and positive"
                )
            }
            ConfigError::NonFinitePosition(node) => {
                write!(f, "node {node} has a non-finite position or move target")
            }
            ConfigError::NonFinitePositionError => write!(f, "position error is not finite"),
            ConfigError::NonFinitePositionQuantum => write!(f, "position quantum is not finite"),
            ConfigError::BeyondQuantumGrid(node) => write!(
                f,
                "node {node} has a position or move target 2^63 or more position quanta out"
            ),
            ConfigError::ForeignFixedRate(rate) => {
                write!(f, "fixed rate {rate} is not of the protocol's PHY standard")
            }
            ConfigError::InvalidArqWindow(window) => {
                write!(f, "ARQ window {window} is outside 1..=64")
            }
        }
    }
}

impl Error for ConfigError {}

/// Full description of one simulation run.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Master seed; every RNG stream derives from it.
    pub seed: u64,
    /// Protocol/channel parameters (shared by physics and CO-MAP logic).
    pub protocol: ProtocolConfig,
    /// MAC features of every node.
    pub default_features: MacFeatures,
    /// Data-rate selection policy.
    pub rate_controller: RateController,
    /// Backoff policy of non-adapted nodes.
    pub backoff: BackoffPolicy,
    /// Payload size of non-adapted frames, in bytes.
    pub payload_bytes: u32,
    /// Retry limit before a frame is dropped.
    pub retry_limit: u32,
    /// Radius of the synthetic position error added to every *reported*
    /// position (the true position still governs the physics).
    pub position_error: Meters,
    /// Preamble capture: allow a stronger late frame to steal the
    /// receiver lock. On by default (commodity behaviour), and every
    /// driver, including the ablation bench, leaves it on; only the
    /// medium's own unit tests build a medium without capture.
    pub capture: bool,
    /// Preamble-based carrier sense: the channel also counts as busy
    /// while the receiver is locked onto a decodable frame, mirroring
    /// 802.11 preamble detection (NS-2's wide CS range). Off restores
    /// pure energy detection — the analytical model's world.
    pub preamble_cs: bool,
    /// In-band discovery headers (the paper's Section V method 1): the
    /// link announcement rides inside every data frame's MAC header
    /// instead of a separate header packet, costing 4 bytes instead of
    /// a whole frame. Used by the NS-2-style large-scale experiments.
    pub inband_header: bool,
    /// How the medium enumerates receivers. Both backends are
    /// bit-identical (the differential harness pins it); `Culled` is
    /// only faster, so it is the default.
    pub backend: MediumBackend,
    /// Grid resolution the physics snap *true* positions onto: moves
    /// that stay inside one quantum cell coalesce into no-ops instead of
    /// invalidating the mover's link cache. The default (1 m) sits far
    /// below the shadowing deviation, so the snap is physically
    /// invisible; [`Meters::ZERO`] disables quantization entirely.
    pub position_quantum: Meters,
    /// Nodes, indexed by [`NodeId`].
    pub nodes: Vec<NodeSpec>,
    /// Traffic matrix.
    pub flows: Vec<FlowSpec>,
}

impl SimConfig {
    /// A configuration over the paper's testbed channel (Section VI-A).
    pub fn testbed(seed: u64) -> Self {
        Self::with_protocol(seed, ProtocolConfig::testbed())
    }

    /// A configuration over the paper's large-scale Table I channel.
    pub fn large_scale(seed: u64) -> Self {
        Self::with_protocol(seed, ProtocolConfig::large_scale())
    }

    /// A configuration over an arbitrary protocol preset.
    pub fn with_protocol(seed: u64, protocol: ProtocolConfig) -> Self {
        SimConfig {
            seed,
            protocol,
            default_features: MacFeatures::DCF,
            rate_controller: RateController::Fixed(protocol.model_rate),
            backoff: BackoffPolicy::DSSS_DEFAULT,
            payload_bytes: 1000,
            retry_limit: 7,
            position_error: Meters::ZERO,
            capture: true,
            preamble_cs: true,
            inband_header: false,
            backend: MediumBackend::Culled,
            position_quantum: Meters::new(crate::medium::DEFAULT_POSITION_QUANTUM_M),
            nodes: Vec::new(),
            flows: Vec::new(),
        }
    }

    /// Adds a node, returning its id.
    pub fn add_node(&mut self, spec: NodeSpec) -> NodeId {
        let id = NodeId(self.nodes.len());
        self.nodes.push(spec);
        id
    }

    /// Adds a unidirectional flow. [`validate`](Self::validate) checks
    /// its endpoints.
    pub fn add_flow(&mut self, src: NodeId, dst: NodeId, traffic: Traffic) {
        self.flows.push(FlowSpec { src, dst, traffic });
    }

    /// Checks that the configuration describes a run: at least one node,
    /// a fixed rate, if any, of the protocol's PHY standard, an ARQ
    /// window in `1..=64`, a finite position error and position quantum,
    /// every position and
    /// move target finite and less than 2⁶³ quanta from the origin on
    /// each axis, and flows between distinct existing nodes, at most one
    /// per `(src, dst)` pair (a MAC keeps one sender record per
    /// destination), each CBR rate finite and positive. Returns the
    /// first problem found.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.nodes.is_empty() {
            return Err(ConfigError::NoNodes);
        }
        if let RateController::Fixed(rate) = self.rate_controller {
            if rate.standard() != self.protocol.phy.standard() {
                return Err(ConfigError::ForeignFixedRate(rate));
            }
        }
        if !(1..=64).contains(&self.protocol.arq_window) {
            return Err(ConfigError::InvalidArqWindow(self.protocol.arq_window));
        }
        // `Meters::new` refuses a negative or NaN value, so finiteness
        // is all that is left to check.
        if !self.position_error.value().is_finite() {
            return Err(ConfigError::NonFinitePositionError);
        }
        let q = self.position_quantum.value();
        if !q.is_finite() {
            return Err(ConfigError::NonFinitePositionQuantum);
        }
        let finite = |p: &Position| p.x.is_finite() && p.y.is_finite();
        // The medium snaps each coordinate to `(c / q).round() as i64`
        // (a zero quantum snaps nothing), which saturates from 2⁶³ on.
        let snaps = |p: &Position| {
            q <= 0.0
                || [p.x, p.y]
                    .iter()
                    .all(|c| (c / q).round().abs() < -(i64::MIN as f64))
        };
        for (i, node) in self.nodes.iter().enumerate() {
            let points = || std::iter::once(&node.position).chain(node.moves.iter().map(|m| &m.to));
            if !points().all(finite) {
                return Err(ConfigError::NonFinitePosition(NodeId(i)));
            }
            if !points().all(snaps) {
                return Err(ConfigError::BeyondQuantumGrid(NodeId(i)));
            }
        }
        let mut pairs = BTreeSet::new();
        for &FlowSpec { src, dst, traffic } in &self.flows {
            if let Some(&node) = [src, dst].iter().find(|n| n.0 >= self.nodes.len()) {
                return Err(ConfigError::UnknownEndpoint(node));
            }
            if src == dst {
                return Err(ConfigError::SelfFlow(src));
            }
            if !pairs.insert((src, dst)) {
                return Err(ConfigError::DuplicateFlow { src, dst });
            }
            if let Traffic::Cbr { bps } = traffic {
                if !(bps.is_finite() && bps > 0.0) {
                    return Err(ConfigError::InvalidCbrRate { src, dst });
                }
            }
        }
        Ok(())
    }

    /// The MAC features of `node`: every node runs
    /// [`SimConfig::default_features`].
    pub fn features_of(&self, _node: NodeId) -> MacFeatures {
        self.default_features
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use comap_mac::time::SimDuration;

    #[test]
    fn node_and_flow_registration() {
        let mut cfg = SimConfig::testbed(1);
        let a = cfg.add_node(NodeSpec::client("a", Position::ORIGIN));
        let b = cfg.add_node(NodeSpec::ap("b", Position::new(5.0, 0.0)));
        cfg.add_flow(a, b, Traffic::Saturated);
        assert_eq!(
            cfg.flows,
            vec![FlowSpec {
                src: a,
                dst: b,
                traffic: Traffic::Saturated
            }]
        );
        assert_eq!((a, b), (NodeId(0), NodeId(1)));
    }

    /// Two nodes, no flows: valid until a test adds a bad flow.
    fn pair() -> (SimConfig, NodeId, NodeId) {
        let mut cfg = SimConfig::testbed(1);
        let a = cfg.add_node(NodeSpec::client("a", Position::ORIGIN));
        let b = cfg.add_node(NodeSpec::ap("b", Position::new(5.0, 0.0)));
        assert_eq!(cfg.validate(), Ok(()));
        (cfg, a, b)
    }

    #[test]
    fn no_nodes_is_rejected() {
        assert_eq!(SimConfig::testbed(1).validate(), Err(ConfigError::NoNodes));
    }

    #[test]
    fn unknown_endpoint_is_rejected() {
        let (mut cfg, a, _) = pair();
        cfg.add_flow(a, NodeId(7), Traffic::Saturated);
        assert_eq!(cfg.validate(), Err(ConfigError::UnknownEndpoint(NodeId(7))));
    }

    #[test]
    fn self_flow_is_rejected() {
        let (mut cfg, a, _) = pair();
        cfg.add_flow(a, a, Traffic::Saturated);
        assert_eq!(cfg.validate(), Err(ConfigError::SelfFlow(a)));
    }

    #[test]
    fn duplicate_flow_is_rejected() {
        let (mut cfg, a, b) = pair();
        cfg.add_flow(a, b, Traffic::Saturated);
        cfg.add_flow(b, a, Traffic::Saturated);
        assert_eq!(cfg.validate(), Ok(()), "the reverse flow is a new pair");
        cfg.add_flow(a, b, Traffic::Cbr { bps: 1e6 });
        assert_eq!(
            cfg.validate(),
            Err(ConfigError::DuplicateFlow { src: a, dst: b })
        );
    }

    #[test]
    fn malformed_numbers_are_rejected() {
        for bps in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let (mut cfg, a, b) = pair();
            cfg.add_flow(a, b, Traffic::Cbr { bps });
            assert_eq!(
                crate::Simulator::try_new(cfg).err(),
                Some(ConfigError::InvalidCbrRate { src: a, dst: b }),
                "bps = {bps}"
            );
        }
        let nan = Position::new(f64::NAN, 0.0);
        let (mut cfg, _, b) = pair();
        cfg.nodes[b.0].position = nan;
        assert_eq!(cfg.validate(), Err(ConfigError::NonFinitePosition(b)));
        let (mut cfg, a, _) = pair();
        cfg.nodes[a.0] = NodeSpec::client("a", Position::ORIGIN)
            .with_move(SimDuration::from_secs(1), Position::new(0.0, f64::INFINITY));
        assert_eq!(
            crate::Simulator::try_new(cfg).err(),
            Some(ConfigError::NonFinitePosition(a))
        );
        let (mut cfg, _, _) = pair();
        cfg.position_error = Meters::new(f64::INFINITY);
        assert_eq!(
            crate::Simulator::try_new(cfg).err(),
            Some(ConfigError::NonFinitePositionError)
        );
        let (mut cfg, _, _) = pair();
        cfg.position_quantum = Meters::new(f64::INFINITY);
        assert_eq!(
            crate::Simulator::try_new(cfg).err(),
            Some(ConfigError::NonFinitePositionQuantum)
        );
        // Zero is the documented "off" for both; a negative `Meters`
        // cannot be built (`Meters::new` panics on one).
        let (mut cfg, _, _) = pair();
        cfg.position_error = Meters::ZERO;
        cfg.position_quantum = Meters::ZERO;
        assert_eq!(cfg.validate(), Ok(()));
        // At 1e-300 m, b's 5 m is far past 2⁶³ cells; a stays at the origin.
        let (mut cfg, _, b) = pair();
        cfg.position_quantum = Meters::new(1e-300);
        assert_eq!(
            crate::Simulator::try_new(cfg).err(),
            Some(ConfigError::BeyondQuantumGrid(b))
        );
        // At 1e-18 m, 5 m is 5e18 cells (fits), a move to 10 m is 1e19.
        let (mut cfg, a, _) = pair();
        cfg.position_quantum = Meters::new(1e-18);
        assert_eq!(cfg.validate(), Ok(()));
        cfg.nodes[a.0] = NodeSpec::client("a", Position::ORIGIN)
            .with_move(SimDuration::from_secs(1), Position::new(-10.0, 0.0));
        assert_eq!(cfg.validate(), Err(ConfigError::BeyondQuantumGrid(a)));
        // The bound itself: 2⁶³ quanta is out, the next float below is in.
        let edge = -(i64::MIN as f64);
        for (y, expected) in [
            (edge, Err(ConfigError::BeyondQuantumGrid(b))),
            (edge - 1024.0, Ok(())),
        ] {
            let (mut cfg, _, b) = pair();
            cfg.position_quantum = Meters::new(1.0);
            cfg.nodes[b.0].position = Position::new(0.0, y);
            assert_eq!(cfg.validate(), expected, "y = {y}");
        }
    }

    #[test]
    fn a_fixed_rate_of_another_phy_is_rejected() {
        let (mut cfg, a, b) = pair();
        cfg.add_flow(a, b, Traffic::Saturated);
        cfg.rate_controller = RateController::Fixed(Rate::Mbps54);
        assert_eq!(
            crate::Simulator::try_new(cfg.clone()).err(),
            Some(ConfigError::ForeignFixedRate(Rate::Mbps54))
        );
        cfg.rate_controller = RateController::Fixed(Rate::Mbps1);
        assert!(crate::Simulator::try_new(cfg).is_ok());
        let mut cfg = SimConfig::large_scale(1);
        cfg.add_node(NodeSpec::client("a", Position::ORIGIN));
        cfg.rate_controller = RateController::Fixed(Rate::Mbps11);
        assert_eq!(
            cfg.validate(),
            Err(ConfigError::ForeignFixedRate(Rate::Mbps11))
        );
    }

    #[test]
    fn an_arq_window_outside_the_ack_bitmap_is_rejected() {
        for (window, expected) in [
            (0, Some(ConfigError::InvalidArqWindow(0))),
            (1, None),
            (64, None),
            (65, Some(ConfigError::InvalidArqWindow(65))),
        ] {
            let (mut cfg, a, b) = pair();
            cfg.default_features = MacFeatures::COMAP;
            cfg.add_flow(a, b, Traffic::Saturated);
            cfg.protocol.arq_window = window;
            assert_eq!(
                crate::Simulator::try_new(cfg).err(),
                expected,
                "window {window}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "DuplicateFlow")]
    fn simulator_refuses_an_invalid_config() {
        let (mut cfg, a, b) = pair();
        cfg.add_flow(a, b, Traffic::Saturated);
        cfg.add_flow(a, b, Traffic::Saturated);
        let _ = crate::Simulator::new(cfg);
    }

    #[test]
    fn try_new_returns_the_typed_error() {
        let (mut cfg, a, b) = pair();
        cfg.add_flow(a, b, Traffic::Saturated);
        assert!(crate::Simulator::try_new(cfg.clone()).is_ok());
        cfg.add_flow(a, b, Traffic::Saturated);
        assert_eq!(
            crate::Simulator::try_new(cfg).err(),
            Some(ConfigError::DuplicateFlow { src: a, dst: b })
        );
        assert_eq!(
            crate::Simulator::try_new(SimConfig::testbed(1)).err(),
            Some(ConfigError::NoNodes)
        );
    }

    #[test]
    fn dcf_has_no_features() {
        assert!(!MacFeatures::DCF.any());
        assert!(MacFeatures::COMAP.any());
    }
}
