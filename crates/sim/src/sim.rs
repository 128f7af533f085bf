//! The simulation engine: event loop, wiring and reporting.

use std::collections::VecDeque;
use std::fmt;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use comap_core::protocol::Protocol;
use comap_core::{AdaptationTable, NeighborTable};
use comap_mac::time::{SimDuration, SimTime};
use comap_radio::stream::CounterRng;
use comap_radio::Position;

use crate::config::{ConfigError, SimConfig};
use crate::event::{Event, EventQueue};
use crate::frame::NodeId;
use crate::mac::{Mac, MacAction, MacConfig, MacCtx, MacEvent};
use crate::medium::Medium;
use crate::observe::{Observer, SimEvent};
use crate::profile::{Profiler, RunProfile};
use crate::stats::SimReport;

/// A configured, runnable simulation.
pub struct Simulator {
    cfg: SimConfig,
    medium: Medium,
    queue: EventQueue,
    now: SimTime,
    macs: Vec<Mac>,
    /// The position directory: every node's last accepted position
    /// report. The APs disseminate each report to every node, so all
    /// nodes' neighbor tables would be this one table; the protocols
    /// read it through [`MacCtx::directory`].
    directory: NeighborTable<NodeId>,
    /// Per node, the sources of the flows toward it: the only MACs that
    /// cache an adapted setting derived from its position.
    senders_to: Vec<Vec<NodeId>>,
    flow_gen: Vec<u64>,
    resp_gen: Vec<u64>,
    report: SimReport,
    /// Attached observers; events fan out to each in order. Whether any
    /// is attached is the single gate every emission site checks, bar
    /// the seven report-counted events.
    sinks: Vec<Box<dyn Observer>>,
    /// Seed of the counter-keyed localization-noise streams.
    move_seed: u64,
    /// Per-node move-epoch counters: the counter half of the
    /// localization-noise key, bumped once per applied move.
    move_epoch: Vec<u64>,
}

impl fmt::Debug for Simulator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Simulator")
            .field("now", &self.now)
            .field("events", &self.report.events)
            .field("sinks", &self.sinks.len())
            .finish_non_exhaustive()
    }
}

impl Simulator {
    /// Builds the simulation: medium, position directory (filled with
    /// *reported* positions — true positions plus the configured error),
    /// protocols, MACs and the initial traffic kicks.
    ///
    /// # Panics
    ///
    /// Panics, naming the [`ConfigError`], if `cfg` fails
    /// [`SimConfig::validate`]. [`Self::try_new`] returns the error
    /// instead.
    pub fn new(cfg: SimConfig) -> Self {
        assert_eq!(cfg.validate(), Ok(()), "invalid simulation config");
        Self::with_valid_config(cfg)
    }

    /// Builds the simulation as [`Self::new`] does.
    ///
    /// # Errors
    ///
    /// Returns the [`ConfigError`] of [`SimConfig::validate`] when `cfg`
    /// is invalid.
    pub fn try_new(cfg: SimConfig) -> Result<Self, ConfigError> {
        cfg.validate()?;
        Ok(Self::with_valid_config(cfg))
    }

    /// Builds a simulation from a validated config.
    fn with_valid_config(cfg: SimConfig) -> Self {
        let n = cfg.nodes.len();
        let true_positions: Vec<Position> = cfg.nodes.iter().map(|s| s.position).collect();

        // Independent, seed-derived RNG streams.
        let medium_rng = StdRng::seed_from_u64(cfg.seed ^ 0x9E37_79B9_7F4A_7C15);
        let mut error_rng = StdRng::seed_from_u64(cfg.seed ^ 0x6A09_E667_F3BC_C909);

        let reported: Vec<Position> = true_positions
            .iter()
            .map(|p| p.with_error(cfg.position_error, &mut error_rng))
            .collect();
        let mut directory = NeighborTable::new();
        for (i, &pos) in reported.iter().enumerate() {
            directory.insert(NodeId(i), pos);
        }

        // Each MAC holds its own copy of the true positions, but only
        // for a rate genie that reads them: a fixed rate gets an empty
        // table, and moves skip the fan-out.
        let genie_positions = if cfg.rate_controller.reads_positions() {
            true_positions.clone()
        } else {
            Vec::new()
        };

        let mut medium = Medium::with_quantization(
            cfg.protocol.channel,
            true_positions,
            cfg.capture,
            medium_rng,
            cfg.backend,
            cfg.position_quantum,
        );
        medium.set_inband_announce(cfg.inband_header);

        // The adaptation table depends on the protocol configuration
        // alone: built on first use and shared by every node.
        let mut adaptation: Option<Arc<AdaptationTable>> = None;
        let mut macs = Vec::with_capacity(n);
        for (i, &own_report) in reported.iter().enumerate() {
            let id = NodeId(i);
            let features = cfg.features_of(id);
            let proto = if features.any() {
                let table =
                    adaptation.get_or_insert_with(|| Arc::new(cfg.protocol.adaptation_table()));
                let mut p = Protocol::with_adaptation(id, cfg.protocol, Arc::clone(table));
                p.set_own_position(own_report);
                Some(p)
            } else {
                None
            };
            let mac_cfg = MacConfig {
                id,
                features,
                phy: cfg.protocol.phy,
                rate_ctl: cfg.rate_controller,
                channel: cfg.protocol.channel,
                true_positions: genie_positions.clone(),
                t_cs: cfg.protocol.t_cs,
                backoff: cfg.backoff,
                payload_bytes: cfg.nodes[i].payload.unwrap_or(cfg.payload_bytes),
                retry_limit: cfg.retry_limit,
                arq_window: cfg.protocol.arq_window,
                preamble_cs: cfg.preamble_cs,
            };
            // Every MAC shares one backoff seed: per-node streams are
            // separated by the identity half of the key (the node id),
            // not by per-node seed arithmetic.
            macs.push(Mac::new(mac_cfg, proto, cfg.seed ^ 0x243F_6A88_85A3_08D3));
        }
        // One pass over the flows: each MAC gets its own in list order.
        let mut senders_to = vec![Vec::new(); n];
        for flow in &cfg.flows {
            macs[flow.src.0].add_flow(flow.dst, flow.traffic);
            senders_to[flow.dst.0].push(flow.src);
        }

        let mut queue = EventQueue::new();
        for i in 0..n {
            queue.schedule(SimTime::ZERO, Event::TrafficWakeup { node: NodeId(i) });
            for (step, mv) in cfg.nodes[i].moves.iter().enumerate() {
                queue.schedule(
                    SimTime::ZERO + mv.at,
                    Event::Mobility {
                        node: NodeId(i),
                        step,
                    },
                );
            }
        }

        let move_seed = cfg.seed ^ 0xBB67_AE85_84CA_A73B;
        Simulator {
            cfg,
            medium,
            queue,
            now: SimTime::ZERO,
            macs,
            directory,
            senders_to,
            flow_gen: vec![0; n],
            resp_gen: vec![0; n],
            report: SimReport::default(),
            sinks: Vec::new(),
            move_seed,
            move_epoch: vec![0; n],
        }
    }

    /// Attaches an observer. Events start flowing to it from the next
    /// `run`; attaching any sink enables event emission in the medium
    /// and every MAC, but never changes simulation results (sinks have
    /// no channel back, and no emission touches an RNG stream).
    pub fn attach_sink(&mut self, sink: Box<dyn Observer>) {
        self.medium.enable_observation(self.cfg.protocol.t_cs);
        self.sinks.push(sink);
    }

    /// Pre-warms every node's link-cache row before the run: the links
    /// to its candidate receivers, which its first `begin` would fill
    /// (see [`Medium::warm_links`]). Purely an evaluation-order change:
    /// cache fills are deterministic functions of the positions and
    /// epochs, so a warmed run is bit-identical to a lazy one — the
    /// differential harness drives both fill orders through this hook.
    pub fn warm_link_cache(&mut self) {
        for i in 0..self.macs.len() {
            self.medium.warm_links(NodeId(i));
        }
    }

    /// Runs the simulation for `duration` of simulated time and returns
    /// the report.
    pub fn run(self, duration: SimDuration) -> SimReport {
        self.run_core(duration, false).0
    }

    /// Runs with the event-loop profiler enabled, returning the report
    /// alongside the wall-clock profile. Profiling only *times* the
    /// loop, so the report is identical to an unprofiled run.
    pub fn run_profiled(self, duration: SimDuration) -> (SimReport, RunProfile) {
        let (report, profile) = self.run_core(duration, true);
        #[expect(
            clippy::expect_used,
            reason = "run_core(.., true) always builds a profile; a None is a wiring bug"
        )]
        let profile = profile.expect("profiling was enabled");
        (report, profile)
    }

    fn run_core(mut self, duration: SimDuration, profile: bool) -> (SimReport, Option<RunProfile>) {
        let end = SimTime::ZERO + duration;
        let mut profiler = profile.then(Profiler::new);
        while let Some(t) = self.queue.peek_time() {
            if t > end {
                break;
            }
            if let Some(p) = &mut profiler {
                p.observe_queue(&self.queue);
            }
            let Some((t, event)) = self.queue.pop() else {
                break; // unreachable: peek_time just returned Some
            };
            self.now = t;
            self.report.events += 1;
            let started = profiler.as_ref().map(Profiler::dispatch_start);
            match event {
                Event::TxEnd(tx) => {
                    let events = self.medium.end(tx, self.now);
                    self.forward_medium_events();
                    self.drain(events.into());
                }
                Event::FlowTimer { node, gen } => {
                    if self.flow_gen[node.0] == gen {
                        self.dispatch(node, MacEvent::FlowTimer);
                    }
                }
                Event::ResponderTimer { node, gen } => {
                    if self.resp_gen[node.0] == gen {
                        self.dispatch(node, MacEvent::ResponderTimer);
                    }
                }
                Event::TrafficWakeup { node } => {
                    self.dispatch(node, MacEvent::Traffic);
                }
                Event::Mobility { node, step } => self.apply_move(node, step),
            }
            if let (Some(p), Some(s)) = (&mut profiler, started) {
                p.dispatch_end(event.kind_index(), s);
            }
        }
        self.report.duration = duration;
        self.report.medium = self.medium.stats();
        for sink in &mut self.sinks {
            sink.finish(&mut self.report);
        }
        let profile = profiler.map(|p| {
            p.finish(
                duration,
                self.report.medium.ledger_checks,
                self.medium.ledger_check_nanos(),
                self.medium.counters(),
            )
        });
        (self.report, profile)
    }

    /// Fans one event out to every attached sink.
    fn emit(&mut self, event: SimEvent) {
        for sink in &mut self.sinks {
            sink.on_event(self.now, &event);
        }
    }

    /// Drains the medium's pending events into the sinks. Called right
    /// after every `Medium::begin`/`Medium::end` so physical-layer
    /// events precede the MAC reactions they trigger.
    fn forward_medium_events(&mut self) {
        for event in self.medium.drain_events() {
            for sink in &mut self.sinks {
                sink.on_event(self.now, &event);
            }
        }
    }

    /// Executes a scheduled movement: physics first, then the location
    /// service decides whether to broadcast. The APs disseminate a report
    /// to every node, as in the paper, so it is applied once, to the
    /// position directory. The protocols are not told: each
    /// co-occurrence verdict carries its nodes' report counts in the
    /// directory, which the acceptance bumps, so the verdicts involving
    /// the mover go stale on their own. Only the MACs with a flow toward
    /// the mover drop that flow's adapted setting, and only a rate
    /// genie, which reads true positions, needs the move fanned out to
    /// every MAC.
    fn apply_move(&mut self, node: NodeId, step: usize) {
        let mv = self.cfg.nodes[node.0].moves[step];
        self.medium.set_position(node, mv.to);
        // The mover's localization fix carries the configured error,
        // drawn from a stream keyed `(move_seed, node, move epoch)` —
        // independent of every other node's mobility schedule.
        let truth = mv.to;
        self.move_epoch[node.0] += 1;
        let mut noise =
            CounterRng::from_key(self.move_seed, node.0 as u64, self.move_epoch[node.0]);
        let fix = truth.with_error(self.cfg.position_error, &mut noise);
        let report = self.macs[node.0].on_moved(mv.to, fix);
        self.report.position_reports += u64::from(report.is_some());
        if report.is_some_and(|pos| self.directory.update(node, pos)) {
            for &src in &self.senders_to[node.0] {
                self.macs[src.0].drop_setting_toward(node);
            }
        }
        if self.cfg.rate_controller.reads_positions() {
            for (i, mac) in self.macs.iter_mut().enumerate() {
                if i != node.0 {
                    mac.on_neighbor_moved(node, mv.to);
                }
            }
        }
        // No Sense dispatch: a move changes no ambient power (active
        // transmissions keep the powers they were drawn with), so no
        // carrier-sense or RSSI-watchdog comparison can flip. Geometry-
        // dependent decisions pick up the new positions at the next
        // event that actually evaluates them. See DESIGN.md §8.
    }

    fn dispatch(&mut self, node: NodeId, event: MacEvent) {
        self.drain(VecDeque::from([(node, event)]));
    }

    fn drain(&mut self, mut work: VecDeque<(NodeId, MacEvent)>) {
        while let Some((node, event)) = work.pop_front() {
            let ctx = MacCtx {
                now: self.now,
                sensed: self.medium.sensed(node),
                transmitting: self.medium.is_transmitting(node),
                locked: self.medium.is_locked(node),
                observing: !self.sinks.is_empty(),
                directory: &self.directory,
            };
            let actions = self.macs[node.0].handle(event, ctx);
            for action in actions {
                self.apply(node, action, &mut work);
            }
        }
    }

    fn apply(&mut self, node: NodeId, action: MacAction, work: &mut VecDeque<(NodeId, MacEvent)>) {
        match action {
            MacAction::ArmFlowTimer(at) => {
                self.flow_gen[node.0] += 1;
                self.queue.schedule(
                    at,
                    Event::FlowTimer {
                        node,
                        gen: self.flow_gen[node.0],
                    },
                );
            }
            MacAction::CancelFlowTimer => {
                self.flow_gen[node.0] += 1;
            }
            MacAction::ArmResponderTimer(at) => {
                self.resp_gen[node.0] += 1;
                self.queue.schedule(
                    at,
                    Event::ResponderTimer {
                        node,
                        gen: self.resp_gen[node.0],
                    },
                );
            }
            MacAction::ScheduleTraffic(at) => {
                self.queue.schedule(at, Event::TrafficWakeup { node });
            }
            MacAction::Transmit(frame) => {
                let duration = self
                    .cfg
                    .protocol
                    .phy
                    .frame_duration(frame.on_air_bytes(), frame.rate);
                let end = self.now + duration;
                let (tx, events) = self.medium.begin(frame, self.now, end);
                self.forward_medium_events();
                self.queue.schedule(end, Event::TxEnd(tx));
                self.report.node_mut(node).airtime += duration;
                work.extend(events);
            }
            MacAction::Emit(event) => {
                self.account(&event);
                self.emit(event);
            }
        }
    }

    /// Folds one event into the report: the per-link and per-node
    /// counters are exactly a projection of the event stream.
    fn account(&mut self, event: &SimEvent) {
        match *event {
            SimEvent::FrameTx { node, dst, .. } => {
                self.report.link_mut(node, dst).data_tx += 1;
            }
            SimEvent::Delivered { node, from, bytes } => {
                let link = self.report.link_mut(from, node);
                link.delivered_bytes += u64::from(bytes);
                link.delivered_frames += 1;
            }
            SimEvent::AckTimeout { node, dst } => {
                self.report.link_mut(node, dst).ack_timeouts += 1;
            }
            SimEvent::FrameDropped { node, dst, .. } => {
                self.report.link_mut(node, dst).drops += 1;
            }
            SimEvent::ConcurrentTx { node, .. } => {
                self.report.node_mut(node).concurrent_tx += 1;
            }
            SimEvent::EtAbandon { node } => {
                self.report.node_mut(node).et_abandons += 1;
            }
            SimEvent::HeaderHeard { node, .. } => {
                self.report.node_mut(node).headers_heard += 1;
            }
            SimEvent::TxBegin { .. }
            | SimEvent::TxEnd { .. }
            | SimEvent::Capture { .. }
            | SimEvent::HazardDrop { .. }
            | SimEvent::RxResolved { .. }
            | SimEvent::CsBusy { .. }
            | SimEvent::CsIdle { .. }
            | SimEvent::Enqueue { .. }
            | SimEvent::Dequeue { .. }
            | SimEvent::BackoffDraw { .. }
            | SimEvent::Defer { .. }
            | SimEvent::Resume { .. }
            | SimEvent::Retry { .. }
            | SimEvent::FrameQueued { .. }
            | SimEvent::FrameAcked { .. }
            | SimEvent::EtOpportunity { .. }
            | SimEvent::Adapt { .. } => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{MacFeatures, NodeSpec, Traffic};
    use comap_radio::rates::Rate;

    fn two_node_cfg(seed: u64) -> SimConfig {
        let mut cfg = SimConfig::testbed(seed);
        cfg.rate_controller = crate::rate::RateController::Fixed(Rate::Mbps11);
        let a = cfg.add_node(NodeSpec::client("C1", Position::new(0.0, 0.0)));
        let b = cfg.add_node(NodeSpec::ap("AP1", Position::new(8.0, 0.0)));
        cfg.add_flow(a, b, Traffic::Saturated);
        cfg
    }

    #[test]
    fn lone_saturated_link_reaches_expected_goodput() {
        let report = Simulator::new(two_node_cfg(1)).run(SimDuration::from_millis(500));
        let goodput = report.link_goodput_bps(NodeId(0), NodeId(1));
        // 1000-byte frames at 11 Mbps, long preamble, CW 31:
        // cycle ≈ 310 + 939.6 + 10 + 304 + 50 µs ≈ 1.61 ms → ≈ 5 Mbps.
        assert!(goodput > 4.0e6 && goodput < 6.5e6, "goodput = {goodput}");
    }

    #[test]
    fn cbr_flow_is_paced() {
        let mut cfg = two_node_cfg(2);
        cfg.flows.clear();
        cfg.add_flow(NodeId(0), NodeId(1), Traffic::Cbr { bps: 1.0e6 });
        let report = Simulator::new(cfg).run(SimDuration::from_secs(1));
        let goodput = report.link_goodput_bps(NodeId(0), NodeId(1));
        assert!(
            (goodput - 1.0e6).abs() < 0.12e6,
            "CBR goodput should track the offered 1 Mbps, got {goodput}"
        );
    }

    #[test]
    fn contenders_share_the_channel() {
        let mut cfg = SimConfig::testbed(3);
        cfg.rate_controller = crate::rate::RateController::Fixed(Rate::Mbps11);
        let a = cfg.add_node(NodeSpec::client("C1", Position::new(0.0, 0.0)));
        let b = cfg.add_node(NodeSpec::client("C2", Position::new(2.0, 0.0)));
        let ap = cfg.add_node(NodeSpec::ap("AP", Position::new(5.0, 0.0)));
        cfg.add_flow(a, ap, Traffic::Saturated);
        cfg.add_flow(b, ap, Traffic::Saturated);
        let report = Simulator::new(cfg).run(SimDuration::from_millis(500));
        let ga = report.link_goodput_bps(a, ap);
        let gb = report.link_goodput_bps(b, ap);
        assert!(
            ga > 1.5e6 && gb > 1.5e6,
            "both links must progress: {ga} / {gb}"
        );
        let ratio = ga / gb;
        assert!(
            ratio > 0.6 && ratio < 1.67,
            "roughly fair sharing, ratio = {ratio}"
        );
    }

    #[test]
    fn hidden_terminal_degrades_goodput() {
        // Fig. 2 geometry: C1 at 0, AP1 at 15 m, C2 (hidden) at 37 m
        // transmitting to AP2 at 49 m.
        let mut cfg = SimConfig::testbed(4);
        cfg.rate_controller = crate::rate::RateController::Fixed(Rate::Mbps11);
        let c1 = cfg.add_node(NodeSpec::client("C1", Position::new(0.0, 0.0)));
        let ap1 = cfg.add_node(NodeSpec::ap("AP1", Position::new(15.0, 0.0)));
        let c2 = cfg.add_node(NodeSpec::client("C2", Position::new(37.0, 0.0)));
        let ap2 = cfg.add_node(NodeSpec::ap("AP2", Position::new(49.0, 0.0)));
        cfg.add_flow(c1, ap1, Traffic::Saturated);
        cfg.add_flow(c2, ap2, Traffic::Saturated);
        let report = Simulator::new(cfg).run(SimDuration::from_millis(500));
        let with_ht = report.link_goodput_bps(c1, ap1);

        let clean = Simulator::new(two_node_cfg(4)).run(SimDuration::from_millis(500));
        let alone = clean.link_goodput_bps(NodeId(0), NodeId(1));
        assert!(
            with_ht < 0.75 * alone,
            "hidden terminal must hurt: {with_ht} vs clean {alone}"
        );
        let stats = report.links[&(c1, ap1)];
        assert!(
            stats.ack_timeouts > 0,
            "collisions must show up as ACK timeouts"
        );
    }

    #[test]
    fn runs_are_deterministic() {
        let r1 = Simulator::new(two_node_cfg(7)).run(SimDuration::from_millis(300));
        let r2 = Simulator::new(two_node_cfg(7)).run(SimDuration::from_millis(300));
        assert_eq!(r1.links, r2.links);
        assert_eq!(r1.events, r2.events);
    }

    #[test]
    fn different_seeds_differ() {
        let r1 = Simulator::new(two_node_cfg(8)).run(SimDuration::from_millis(300));
        let r2 = Simulator::new(two_node_cfg(9)).run(SimDuration::from_millis(300));
        assert_ne!(r1.events, r2.events);
    }

    #[test]
    fn comap_features_do_not_break_a_lone_link() {
        let mut cfg = two_node_cfg(10);
        cfg.default_features = MacFeatures::COMAP;
        let report = Simulator::new(cfg).run(SimDuration::from_millis(500));
        let goodput = report.link_goodput_bps(NodeId(0), NodeId(1));
        // Headers cost airtime but the link must still run well.
        assert!(goodput > 2.5e6, "CO-MAP lone-link goodput = {goodput}");
    }

    #[test]
    fn rts_cts_baseline_still_delivers() {
        let mut cfg = two_node_cfg(12);
        cfg.default_features = MacFeatures::DCF_RTS_CTS;
        let report = Simulator::new(cfg).run(SimDuration::from_millis(500));
        let goodput = report.link_goodput_bps(NodeId(0), NodeId(1));
        // The handshake costs two control frames per exchange but the
        // link must still run well.
        assert!(goodput > 2.0e6, "RTS/CTS goodput = {goodput}");
        let plain = Simulator::new(two_node_cfg(12)).run(SimDuration::from_millis(500));
        assert!(
            goodput < plain.link_goodput_bps(NodeId(0), NodeId(1)),
            "the handshake is pure overhead on a lone link"
        );
    }

    #[test]
    fn rts_cts_protects_against_hidden_terminals() {
        // Fig. 2 geometry: the HT hears AP1's CTS even though it cannot
        // hear C1, so collisions drop relative to plain DCF.
        let build = |features: MacFeatures, seed: u64| {
            let mut cfg = SimConfig::testbed(seed);
            cfg.rate_controller = crate::rate::RateController::Fixed(Rate::Mbps11);
            cfg.default_features = features;
            let c1 = cfg.add_node(NodeSpec::client("C1", Position::new(0.0, 0.0)));
            let ap1 = cfg.add_node(NodeSpec::ap("AP1", Position::new(15.0, 0.0)));
            let c2 = cfg.add_node(NodeSpec::client("C2", Position::new(37.0, 0.0)));
            let ap2 = cfg.add_node(NodeSpec::ap("AP2", Position::new(49.0, 0.0)));
            cfg.add_flow(c1, ap1, Traffic::Saturated);
            cfg.add_flow(c2, ap2, Traffic::Saturated);
            cfg
        };
        let mut plain_timeouts = 0;
        let mut rts_timeouts = 0;
        for seed in [21, 22, 23] {
            let plain =
                Simulator::new(build(MacFeatures::DCF, seed)).run(SimDuration::from_millis(800));
            plain_timeouts += plain.links[&(NodeId(0), NodeId(1))].ack_timeouts;
            let rts = Simulator::new(build(MacFeatures::DCF_RTS_CTS, seed))
                .run(SimDuration::from_millis(800));
            rts_timeouts += rts.links[&(NodeId(0), NodeId(1))].ack_timeouts;
        }
        assert!(
            rts_timeouts < plain_timeouts,
            "virtual carrier sense must reduce HT collisions: {rts_timeouts} vs {plain_timeouts}"
        );
    }

    #[test]
    fn protocols_share_one_adaptation_table() {
        let mut cfg = two_node_cfg(1);
        cfg.default_features = MacFeatures::COMAP;
        let sim = Simulator::new(cfg);
        let tables: Vec<_> = sim
            .macs
            .iter()
            .map(|m| m.protocol().expect("CO-MAP node").adaptation())
            .collect();
        assert!(std::ptr::eq(tables[0], tables[1]));
        assert_eq!(
            tables[0],
            Protocol::new(NodeId(0), sim.cfg.protocol).adaptation()
        );
    }

    #[test]
    fn the_simulator_holds_the_only_position_table() {
        let mut cfg = SimConfig::testbed(1);
        cfg.default_features = MacFeatures::COMAP;
        for i in 0..6 {
            cfg.add_node(NodeSpec::client(
                format!("C{i}"),
                Position::new(4.0 * i as f64, 0.0),
            ));
        }
        let sim = Simulator::new(cfg);
        assert_eq!(
            sim.directory.len(),
            6,
            "every node's report, its own included"
        );
        for mac in &sim.macs {
            let proto = mac.protocol().expect("CO-MAP node");
            assert!(proto.neighbors().is_empty(), "no protocol keeps a replica");
            assert_eq!(
                proto.own_position(),
                sim.directory.position(proto.addr()),
                "each node knows its own report"
            );
        }
    }
}
