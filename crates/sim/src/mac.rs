//! The MAC state machine: 802.11 DCF with CO-MAP extensions.
//!
//! One implementation serves both the baseline and CO-MAP — exactly like
//! the paper's artifact, which extends the driver's DCF path — with each
//! CO-MAP behaviour behind a [`MacFeatures`] toggle:
//!
//! * **discovery headers**: a 22-byte announcement frame precedes every
//!   data frame back-to-back, carrying the link and the data airtime;
//! * **ET concurrency**: on decoding a header, a contending node asks its
//!   [`Protocol`] whether a concurrent transmission is safe; if so it
//!   *resumes* its backoff under the RSSI-delta watchdog instead of
//!   deferring (Fig. 6);
//! * **selective-repeat ARQ**: the stop-and-wait retransmission path is
//!   replaced by the sliding window of [`comap_mac::arq`];
//! * **HT adaptation**: payload size and (constant) contention window are
//!   installed from the protocol's adaptation table.
//!
//! The MAC is a pure state machine: the simulator feeds it [`MacEvent`]s
//! (timers and traffic from the event queue; `Sense`, `Rx`, `TxDone` and
//! `Announce` straight from the medium) plus a context snapshot that
//! also lends it the simulator's position directory, and applies the
//! returned [`MacAction`]s.
//!
//! Everything the MAC reports leaves as a [`MacAction::Emit`] of a
//! [`SimEvent`]. The seven events the [`SimReport`](crate::SimReport)
//! counts — `FrameTx`, `Delivered`, `AckTimeout`, `FrameDropped`,
//! `ConcurrentTx`, `EtAbandon` and `HeaderHeard` — are always emitted;
//! every other event only when [`MacCtx::observing`] is set.
//!
//! Sender state is per link, as in the paper: each outgoing flow is one
//! record that owns its traffic bucket, its selective-repeat window, its
//! consecutive-timeout count and its installed adaptation setting. The
//! window is present exactly when the MAC runs selective repeat, so its
//! presence *is* the ARQ mode. A MAC has at most one flow per destination
//! ([`SimConfig::validate`] rejects duplicates), and the frame in service
//! always belongs to the flow `current_flow` names. No flow carries rate
//! state: the [`RateController`] is stateless, so a frame's rate is a
//! pure function of geometry. Receiver-side state (duplicate filter,
//! reorder window) is keyed by source.
//!
//! [`SimConfig::validate`]: crate::SimConfig::validate

use std::collections::BTreeMap;

use comap_radio::stream::CounterRng;

use comap_core::adapt::TxSetting;
use comap_core::neighbor::NeighborTable;
use comap_core::protocol::Protocol;
use comap_core::scheduler::{EtAction, EtScheduler};
use comap_mac::arq::{Ack, SelectiveRepeatReceiver, SelectiveRepeatSender};
use comap_mac::backoff::{Backoff, BackoffPolicy};
use comap_mac::frames::FrameKind;
use comap_mac::time::{SimDuration, SimTime};
use comap_mac::timing::PhyTiming;
use comap_radio::rates::Rate;
use comap_radio::units::{Dbm, MilliWatts};
use comap_radio::Position;

use crate::config::{MacFeatures, Traffic};
use crate::frame::{Frame, FrameBody, NodeId};
use crate::observe::SimEvent;
use crate::rate::RateController;

/// Snapshot of the node's radio environment, passed with every event,
/// plus the network's shared position directory.
#[derive(Debug, Clone, Copy)]
pub struct MacCtx<'a> {
    /// Current simulation time.
    pub now: SimTime,
    /// Total ambient power (noise floor + active transmissions).
    pub sensed: MilliWatts,
    /// Whether this node's radio is transmitting right now.
    pub transmitting: bool,
    /// Whether this node's receiver is locked onto a decodable frame
    /// (preamble carrier sense).
    pub locked: bool,
    /// Whether an observer is attached — gates every [`MacAction::Emit`]
    /// except the seven report-counted ones, so an unobserved run builds
    /// only the events the report needs.
    pub observing: bool,
    /// Every node's last accepted position report: the one table the
    /// protocol's census and concurrency checks read.
    pub directory: &'a NeighborTable<NodeId>,
}

/// Events delivered to the MAC. The medium hands `Sense`, `Rx`, `TxDone`
/// and `Announce` straight to the affected nodes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MacEvent {
    /// Ambient power changed: re-evaluate carrier sense and any armed
    /// RSSI watchdog.
    Sense,
    /// A frame was decoded (any kind, any addressee): the lock held to
    /// the end with sufficient SINR.
    Rx {
        /// The decoded frame.
        frame: Frame,
        /// Its received signal strength.
        rssi: Dbm,
    },
    /// Own transmission finished.
    TxDone {
        /// The frame that finished.
        frame: Frame,
    },
    /// The flow timer fired (DIFS elapsed / backoff expired / ACK timed
    /// out — meaning depends on the current state).
    FlowTimer,
    /// The responder (SIFS) timer fired: time to send a pending ACK.
    ResponderTimer,
    /// New traffic bytes are available.
    Traffic,
    /// In-band announcement: the node locked onto a data frame whose MAC
    /// header (the paper's 4-byte-FCS variant) reveals the link and the
    /// remaining airtime.
    Announce {
        /// The announced link.
        link: (NodeId, NodeId),
        /// When the announced data frame ends.
        data_end: SimTime,
    },
}

/// Side effects requested by the MAC.
#[derive(Debug, Clone, Copy)]
pub enum MacAction {
    /// (Re-)arm the flow timer at the given instant, invalidating any
    /// previously armed one.
    ArmFlowTimer(SimTime),
    /// Cancel the flow timer.
    CancelFlowTimer,
    /// Arm the responder timer.
    ArmResponderTimer(SimTime),
    /// Schedule a traffic wakeup.
    ScheduleTraffic(SimTime),
    /// Put a frame on the air.
    Transmit(Frame),
    /// An event for the report and the attached observers (see the
    /// module docs for which events are always emitted).
    Emit(SimEvent),
}

/// The frame currently in service.
#[derive(Debug, Clone, Copy)]
struct PendingFrame {
    dst: NodeId,
    seq: u64,
    payload: u32,
    /// Zero-based transmission attempt this service round corresponds
    /// to — carried so [`SimEvent::FrameTx`] can label the on-air try.
    /// Any attempt after the first sets the frame's retry bit. Under
    /// stop-and-wait it is also the frame's retry count.
    attempt: u32,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FlowState {
    /// No frame admitted.
    Idle,
    /// Contending for the channel with `pending`.
    Contend,
    /// Transmitting an RTS (RTS/CTS baseline).
    TxRts,
    /// Waiting for the CTS answering our RTS.
    WaitCts,
    /// Transmitting the discovery header (data follows back-to-back).
    TxHeader,
    /// Transmitting the data frame.
    TxData,
    /// Waiting for the ACK of the last data frame.
    WaitAck,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WaitPhase {
    /// Channel busy: backoff frozen.
    NeedIdle,
    /// Channel idle: waiting out DIFS (flow timer armed).
    Difs,
    /// Counting down backoff slots since the stored instant (flow timer
    /// armed at expiry).
    Counting(SimTime),
}

/// Exposed-terminal opportunity state.
#[derive(Debug, Clone, Copy)]
struct Opportunity {
    /// The ongoing link we validated against.
    link: (NodeId, NodeId),
    /// When the ongoing data transmission ends.
    until: SimTime,
    /// Ambient power at entry (before the announced data frame is on the
    /// air); the watchdog arms on the first clear rise above this.
    baseline: MilliWatts,
    /// RSSI watchdog; `None` until the data frame's power is observed.
    sched: Option<EtScheduler>,
}

#[derive(Debug)]
struct TrafficState {
    pattern: Traffic,
    /// Accumulated CBR bytes.
    bucket: f64,
    last: SimTime,
}

impl TrafficState {
    fn new(pattern: Traffic) -> Self {
        TrafficState {
            pattern,
            bucket: 0.0,
            last: SimTime::ZERO,
        }
    }

    fn refresh(&mut self, now: SimTime) {
        if let Traffic::Cbr { bps } = self.pattern {
            let dt = now.saturating_duration_since(self.last).as_secs_f64();
            self.bucket += dt * bps / 8.0;
        }
        self.last = now;
    }

    fn available(&self) -> f64 {
        match self.pattern {
            Traffic::Saturated => f64::INFINITY,
            Traffic::Cbr { .. } => self.bucket,
        }
    }

    fn take(&mut self, bytes: u32) {
        if let Traffic::Cbr { .. } = self.pattern {
            self.bucket -= f64::from(bytes);
        }
    }

    /// Time until `bytes` are available, `None` if they already are.
    fn eta(&self, bytes: u32) -> Option<SimDuration> {
        match self.pattern {
            Traffic::Saturated => None,
            Traffic::Cbr { bps } => {
                let missing = f64::from(bytes) - self.bucket;
                if missing <= 0.0 {
                    None
                } else {
                    Some(SimDuration::from_secs_f64(missing * 8.0 / bps))
                }
            }
        }
    }
}

/// One outgoing flow and the sender state it owns.
#[derive(Debug)]
struct Flow {
    dst: NodeId,
    traffic: TrafficState,
    /// Next stop-and-wait sequence number.
    next_seq: u64,
    /// The selective-repeat window: `Some` exactly when the MAC runs
    /// selective repeat, `None` under stop-and-wait.
    arq: Option<SelectiveRepeatSender>,
    /// Consecutive ACK timeouts (selective repeat keeps the DCF
    /// collision-recovery escalation through this count).
    timeouts: u32,
    /// The installed adaptation setting; `None` until the census runs
    /// and again once a move may have changed it.
    setting: Option<TxSetting>,
}

/// Static wiring the MAC needs from the simulation.
#[derive(Debug)]
pub struct MacConfig {
    /// This node's id.
    pub id: NodeId,
    /// Feature toggles.
    pub features: MacFeatures,
    /// PHY timing profile.
    pub phy: PhyTiming,
    /// Rate-selection policy.
    pub rate_ctl: RateController,
    /// Propagation channel (for the rate genie's mean estimates).
    pub channel: comap_radio::pathloss::LogNormalShadowing,
    /// True node positions, indexed by node (rate genie only; CO-MAP
    /// decisions use the *reported* positions of [`MacCtx::directory`]).
    /// May be empty when the rate controller reads no positions
    /// ([`RateController::reads_positions`]): moves then update nothing.
    pub true_positions: Vec<Position>,
    /// CCA threshold.
    pub t_cs: Dbm,
    /// Backoff policy when adaptation is off.
    pub backoff: BackoffPolicy,
    /// Payload size when adaptation is off.
    pub payload_bytes: u32,
    /// Per-frame retry limit.
    pub retry_limit: u32,
    /// ARQ window size.
    pub arq_window: usize,
    /// Whether a decodable frame counts as a busy channel.
    pub preamble_cs: bool,
}

/// The MAC instance of one node.
#[derive(Debug)]
pub struct Mac {
    cfg: MacConfig,
    /// Seed of this MAC's counter-keyed backoff streams: every draw is
    /// a pure function of `(seed, node id, attempt counter)`.
    seed: u64,
    /// Monotone count of backoff draws taken — the counter half of the
    /// stream key. Never reset, so no key is ever reused.
    backoff_ctr: u64,
    proto: Option<Protocol<NodeId>>,

    flows: Vec<Flow>,
    flow_rr: usize,

    state: FlowState,
    wait: WaitPhase,
    backoff: Backoff,
    pending: Option<PendingFrame>,
    /// Index into `flows` of the pending frame's flow.
    current_flow: usize,

    pending_ack: Option<(NodeId, FrameBody)>,
    traffic_armed: bool,
    /// Virtual carrier sense: channel counts busy until this instant
    /// (set by overheard RTS/CTS NAVs).
    nav_until: SimTime,

    // Receiver-side state.
    rx_dedup: BTreeMap<NodeId, u64>,
    arq_rx: BTreeMap<NodeId, SelectiveRepeatReceiver>,

    // CO-MAP runtime.
    opportunity: Option<Opportunity>,
    /// The ongoing link the in-flight data frame rode alongside, if it
    /// was sent concurrently (for outcome feedback).
    concurrent_sent: Option<(NodeId, NodeId)>,
    /// Last discovered ongoing transmission: `(link, data start, data
    /// end)` — consulted when a frame is admitted mid-transmission.
    ongoing: Option<((NodeId, NodeId), SimTime, SimTime)>,
}

impl Mac {
    /// Creates the MAC. `proto` must be `Some` when any CO-MAP feature
    /// needing positions is enabled. `seed` roots the counter-keyed
    /// backoff streams.
    pub fn new(cfg: MacConfig, proto: Option<Protocol<NodeId>>, seed: u64) -> Self {
        Mac {
            cfg,
            seed,
            backoff_ctr: 0,
            proto,
            flows: Vec::new(),
            flow_rr: 0,
            state: FlowState::Idle,
            wait: WaitPhase::NeedIdle,
            backoff: Backoff::from_slots(0),
            pending: None,
            current_flow: 0,
            pending_ack: None,
            traffic_armed: false,
            nav_until: SimTime::ZERO,
            rx_dedup: BTreeMap::new(),
            arq_rx: BTreeMap::new(),
            opportunity: None,
            concurrent_sent: None,
            ongoing: None,
        }
    }

    /// Registers an outgoing flow.
    pub fn add_flow(&mut self, dst: NodeId, traffic: Traffic) {
        let sr = self.cfg.features.selective_repeat;
        self.flows.push(Flow {
            dst,
            traffic: TrafficState::new(traffic),
            next_seq: 0,
            arq: sr.then(|| SelectiveRepeatSender::new(self.cfg.arq_window)),
            timeouts: 0,
            setting: None,
        });
    }

    /// Read access to the protocol instance (reports, examples).
    pub fn protocol(&self) -> Option<&Protocol<NodeId>> {
        self.proto.as_ref()
    }

    /// This node moved: the true-position table (rate genie), where
    /// there is one, always follows, while the *reported* position goes
    /// through the location service's mobility threshold. Returns the
    /// position to broadcast, if a report is due.
    pub fn on_moved(&mut self, true_pos: Position, reported_fix: Position) -> Option<Position> {
        self.set_true_position(self.cfg.id, true_pos);
        let proto = self.proto.as_mut()?;
        let report = proto.observe_position(reported_fix)?;
        // Our geometry changed: adapted settings must be re-censused.
        for flow in &mut self.flows {
            flow.setting = None;
        }
        Some(report)
    }

    /// Feeds a neighbor's position report into the protocol's private
    /// neighbor table and, if the report is accepted, drops the setting
    /// of the flow toward the reporter. No MAC query reads that table:
    /// each passes [`MacCtx::directory`], to which the simulator applies
    /// every report once before telling only the MACs with a flow toward
    /// the mover ([`Self::drop_setting_toward`]). Only the per-layer
    /// benchmark's `mac.position_report_ns` probe calls this method.
    pub fn on_position_report(&mut self, from: NodeId, position: Position) {
        let Some(proto) = &mut self.proto else { return };
        if proto.on_position_report(from, position) {
            self.drop_setting_toward(from);
        }
    }

    /// `node`'s accepted report moved it: drops the adapted setting of
    /// the flow toward it, if any, so the next frame re-censuses the
    /// link from the new position.
    pub(crate) fn drop_setting_toward(&mut self, node: NodeId) {
        if let Some(flow) = self.flows.iter_mut().find(|f| f.dst == node) {
            flow.setting = None;
        }
    }

    /// Keeps the rate genie's view of a *neighbor's* true position fresh.
    pub fn on_neighbor_moved(&mut self, node: NodeId, true_pos: Position) {
        self.set_true_position(node, true_pos);
    }

    /// Writes `node`'s slot of the true-position table, if the table
    /// has one (it is empty when no genie reads it).
    fn set_true_position(&mut self, node: NodeId, true_pos: Position) {
        if let Some(slot) = self.cfg.true_positions.get_mut(node.0) {
            *slot = true_pos;
        }
    }

    /// Handles one event, returning the actions to apply.
    pub fn handle(&mut self, event: MacEvent, ctx: MacCtx) -> Vec<MacAction> {
        let mut out = Vec::new();
        match event {
            MacEvent::Sense => self.on_sense(ctx, &mut out),
            MacEvent::Rx { frame, .. } => self.on_rx(frame, ctx, &mut out),
            MacEvent::TxDone { frame } => self.on_tx_done(frame, ctx, &mut out),
            MacEvent::FlowTimer => self.on_flow_timer(ctx, &mut out),
            MacEvent::ResponderTimer => self.on_responder(ctx, &mut out),
            MacEvent::Traffic => self.traffic_armed = false,
            MacEvent::Announce { link, data_end } => {
                self.header_heard(link, data_end, ctx, &mut out)
            }
        }
        self.sync(ctx, &mut out);
        out
    }

    // ------------------------------------------------------------------
    // Event handlers
    // ------------------------------------------------------------------

    fn on_sense(&mut self, ctx: MacCtx, out: &mut Vec<MacAction>) {
        // Feed the RSSI watchdog of an armed opportunity; sync() takes
        // care of freeze/resume transitions.
        let Some(op) = &mut self.opportunity else {
            return;
        };
        if ctx.now >= op.until {
            self.opportunity = None;
            return;
        }
        match &mut op.sched {
            None => {
                // The entry instant also carries the header's power
                // *drop*; RSSI₁ must be the ongoing data frame, i.e. the
                // first clear rise over the entry baseline.
                if let Some(proto) = &self.proto {
                    if ctx.sensed.value() > op.baseline.value() * 1.5 {
                        op.sched = Some(proto.arm_scheduler(ctx.sensed.to_dbm()));
                    }
                }
            }
            Some(sched) => {
                if sched.on_rssi(ctx.sensed.to_dbm()) == EtAction::Abandon {
                    self.opportunity = None;
                    out.push(MacAction::Emit(SimEvent::EtAbandon { node: self.cfg.id }));
                }
            }
        }
    }

    fn on_rx(&mut self, frame: Frame, ctx: MacCtx, out: &mut Vec<MacAction>) {
        match frame.body {
            FrameBody::Discovery { data_duration } => {
                let link = (frame.src, frame.dst);
                self.header_heard(link, ctx.now + data_duration, ctx, out);
            }
            FrameBody::Data {
                seq,
                payload_bytes,
                retry,
            } => {
                if frame.dst != self.cfg.id {
                    return;
                }
                let (is_new, ack_body) = if self.cfg.features.selective_repeat {
                    let rx = self.arq_rx.entry(frame.src).or_default();
                    let new = rx.on_frame(seq);
                    (
                        new,
                        FrameBody::Ack {
                            seq,
                            sr: Some(rx.ack()),
                        },
                    )
                } else {
                    let new = !retry || self.rx_dedup.get(&frame.src) != Some(&seq);
                    self.rx_dedup.insert(frame.src, seq);
                    (new, FrameBody::Ack { seq, sr: None })
                };
                if is_new {
                    out.push(MacAction::Emit(SimEvent::Delivered {
                        node: self.cfg.id,
                        from: frame.src,
                        bytes: payload_bytes,
                    }));
                }
                self.pending_ack = Some((frame.src, ack_body));
                out.push(MacAction::ArmResponderTimer(ctx.now + self.cfg.phy.sifs()));
            }
            FrameBody::Ack { seq, sr } => {
                if frame.dst != self.cfg.id {
                    return;
                }
                self.on_ack(frame.src, seq, sr, ctx, out);
            }
            FrameBody::Rts { nav } => {
                if frame.dst == self.cfg.id {
                    // Answer with a CTS after SIFS; its NAV covers the
                    // rest of the exchange.
                    let cts_nav = nav - self.cfg.phy.sifs() - self.cts_air();
                    self.pending_ack = Some((frame.src, FrameBody::Cts { nav: cts_nav }));
                    out.push(MacAction::ArmResponderTimer(ctx.now + self.cfg.phy.sifs()));
                } else {
                    self.set_nav(ctx.now + nav, out);
                }
            }
            FrameBody::Cts { nav } => {
                if frame.dst == self.cfg.id {
                    if self.state == FlowState::WaitCts {
                        if let Some(p) = self.pending {
                            out.push(MacAction::CancelFlowTimer);
                            self.send_data(p, out);
                        }
                    }
                } else {
                    self.set_nav(ctx.now + nav, out);
                }
            }
        }
    }

    /// Airtime of a CTS at the control rate.
    fn cts_air(&self) -> SimDuration {
        self.cfg
            .phy
            .frame_duration(comap_mac::frames::CTS_BYTES, self.cfg.phy.control_rate())
    }

    /// Extends the NAV and schedules a re-evaluation at its expiry —
    /// NAV expiry produces no medium event, so without the wakeup a node
    /// whose channel is otherwise quiet would stay frozen forever.
    fn set_nav(&mut self, until: SimTime, out: &mut Vec<MacAction>) {
        if until > self.nav_until {
            self.nav_until = until;
            out.push(MacAction::ScheduleTraffic(
                until + SimDuration::from_nanos(1),
            ));
        }
    }

    fn on_ack(
        &mut self,
        from: NodeId,
        seq: u64,
        sr: Option<Ack>,
        ctx: MacCtx,
        out: &mut Vec<MacAction>,
    ) {
        // Only an ACK from one of our flows' destinations changes state.
        let Some(idx) = self.flows.iter().position(|f| f.dst == from) else {
            return;
        };
        let awaited =
            self.state == FlowState::WaitAck && self.pending.is_some_and(|p| p.dst == from);
        if awaited {
            if let Some(link) = self.concurrent_sent.take() {
                if let Some(proto) = &mut self.proto {
                    proto.record_concurrency_outcome_in(ctx.directory, link, from, true);
                }
            }
        }
        let node = self.cfg.id;
        let flow = &mut self.flows[idx];
        if let Some(window) = &mut flow.arq {
            flow.timeouts = 0;
            if let Some(sr) = sr {
                // Goodput is accounted at the receiver; the window only
                // needs the ACK to slide.
                let observing = ctx.observing;
                let acked = window.on_ack_with(sr, |seq| {
                    if observing {
                        out.push(MacAction::Emit(SimEvent::FrameAcked {
                            node,
                            dst: from,
                            seq,
                        }));
                    }
                });
                if observing && acked > 0 {
                    out.push(MacAction::Emit(SimEvent::Dequeue {
                        node,
                        dst: from,
                        depth: window.outstanding() as u32,
                    }));
                }
            }
            if awaited {
                self.finish_frame();
                out.push(MacAction::CancelFlowTimer);
            }
        } else if awaited && self.pending.is_some_and(|p| p.seq == seq) {
            self.finish_frame();
            out.push(MacAction::CancelFlowTimer);
            if ctx.observing {
                out.push(MacAction::Emit(SimEvent::FrameAcked {
                    node,
                    dst: from,
                    seq,
                }));
                out.push(MacAction::Emit(SimEvent::Dequeue {
                    node,
                    dst: from,
                    depth: 0,
                }));
            }
        }
    }

    /// The frame in service is done (acked, dropped, or handed back to
    /// the selective-repeat window): the flow goes idle.
    fn finish_frame(&mut self) {
        self.state = FlowState::Idle;
        self.pending = None;
    }

    fn on_tx_done(&mut self, frame: Frame, ctx: MacCtx, out: &mut Vec<MacAction>) {
        match frame.kind() {
            FrameKind::DiscoveryHeader => {
                // Data follows back-to-back.
                if let Some(p) = self.pending {
                    self.send_data(p, out);
                } else {
                    self.state = FlowState::Idle;
                }
            }
            FrameKind::Data => {
                self.state = FlowState::WaitAck;
                out.push(MacAction::ArmFlowTimer(
                    ctx.now + self.cfg.phy.ack_timeout(),
                ));
            }
            FrameKind::Rts => {
                self.state = FlowState::WaitCts;
                let timeout = self.cfg.phy.sifs() + self.cts_air() + self.cfg.phy.slot();
                out.push(MacAction::ArmFlowTimer(ctx.now + timeout));
            }
            FrameKind::Ack | FrameKind::Cts => {
                // Responder duty done; flow state untouched.
            }
        }
    }

    fn on_flow_timer(&mut self, ctx: MacCtx, out: &mut Vec<MacAction>) {
        match self.state {
            FlowState::WaitAck | FlowState::WaitCts => self.on_ack_timeout(ctx, out),
            FlowState::Contend => match self.wait {
                WaitPhase::Difs => {
                    if self.effective_busy(ctx) {
                        self.wait = WaitPhase::NeedIdle;
                    } else if self.backoff.is_expired() {
                        self.start_transmission(out);
                    } else {
                        self.begin_counting(ctx, out);
                    }
                }
                WaitPhase::Counting(since) => {
                    if self.effective_busy(ctx) {
                        // The channel (possibly our own responder ACK)
                        // went busy after the timer was armed: freeze
                        // instead of transmitting blind.
                        self.freeze(since, ctx.now);
                    } else {
                        self.backoff.consume(self.backoff.slots_remaining());
                        self.start_transmission(out);
                    }
                }
                WaitPhase::NeedIdle => {
                    // Stale timer that raced a freeze; ignore.
                }
            },
            // No flow timer is armed while idle or on the air.
            FlowState::Idle | FlowState::TxRts | FlowState::TxHeader | FlowState::TxData => {}
        }
    }

    fn on_ack_timeout(&mut self, ctx: MacCtx, out: &mut Vec<MacAction>) {
        let Some(p) = self.pending else {
            self.state = FlowState::Idle;
            return;
        };
        out.push(MacAction::Emit(SimEvent::AckTimeout {
            node: self.cfg.id,
            dst: p.dst,
        }));
        if let Some(link) = self.concurrent_sent.take() {
            if let Some(proto) = &mut self.proto {
                proto.record_concurrency_outcome_in(ctx.directory, link, p.dst, false);
            }
        }
        let flow = &mut self.flows[self.current_flow];
        if flow.arq.is_some() {
            // Selective repeat: move on; the window decides what to send
            // next, retransmitting swept losses. Keep DCF's collision
            // recovery: consecutive timeouts escalate the next backoff.
            flow.timeouts += 1;
            self.finish_frame();
        } else {
            let attempt = p.attempt + 1;
            if attempt > self.cfg.retry_limit {
                out.push(MacAction::Emit(SimEvent::FrameDropped {
                    node: self.cfg.id,
                    dst: p.dst,
                    seq: p.seq,
                }));
                if ctx.observing {
                    out.push(MacAction::Emit(SimEvent::Dequeue {
                        node: self.cfg.id,
                        dst: p.dst,
                        depth: 0,
                    }));
                }
                self.finish_frame();
            } else {
                self.pending = Some(PendingFrame { attempt, ..p });
                if ctx.observing {
                    out.push(MacAction::Emit(SimEvent::Retry {
                        node: self.cfg.id,
                        dst: p.dst,
                        attempt,
                    }));
                }
                self.contend(attempt, ctx, out);
            }
        }
    }

    fn on_responder(&mut self, ctx: MacCtx, out: &mut Vec<MacAction>) {
        let Some((to, body)) = self.pending_ack.take() else {
            return;
        };
        if ctx.transmitting {
            // Radio occupied (rare): the ACK is lost, as on real hardware.
            return;
        }
        let ack = Frame {
            src: self.cfg.id,
            dst: to,
            body,
            rate: self.cfg.phy.control_rate(),
        };
        out.push(MacAction::Transmit(ack));
    }

    // ------------------------------------------------------------------
    // The catch-all synchronizer
    // ------------------------------------------------------------------

    /// Reconciles the flow state with the channel after any event.
    fn sync(&mut self, ctx: MacCtx, out: &mut Vec<MacAction>) {
        // Expire a stale opportunity.
        if self.opportunity.is_some_and(|op| ctx.now >= op.until) {
            self.opportunity = None;
        }
        if ctx.transmitting {
            return;
        }
        if self.state == FlowState::Idle {
            self.admit_frame(ctx, out);
        }
        if self.state != FlowState::Contend {
            return;
        }
        let busy = self.effective_busy(ctx);
        match self.wait {
            WaitPhase::NeedIdle => {
                if !busy {
                    if self.opportunity.is_some() {
                        // Resume backoff straight away (paper Fig. 6):
                        // the "idle" verdict comes from the watchdog.
                        self.begin_counting(ctx, out);
                    } else {
                        self.wait = WaitPhase::Difs;
                        out.push(MacAction::ArmFlowTimer(ctx.now + self.cfg.phy.difs()));
                    }
                }
            }
            WaitPhase::Difs => {
                if busy {
                    self.wait = WaitPhase::NeedIdle;
                    out.push(MacAction::CancelFlowTimer);
                }
            }
            WaitPhase::Counting(since) => {
                if busy {
                    self.freeze(since, ctx.now);
                    out.push(MacAction::CancelFlowTimer);
                    if ctx.observing {
                        out.push(MacAction::Emit(SimEvent::Defer { node: self.cfg.id }));
                    }
                }
            }
        }
    }

    /// The channel went busy mid-countdown: bank the whole slots counted
    /// since `since` and wait for an idle channel again.
    fn freeze(&mut self, since: SimTime, now: SimTime) {
        let slots = (now.saturating_duration_since(since) / self.cfg.phy.slot()) as u32;
        self.backoff.consume(slots);
        self.wait = WaitPhase::NeedIdle;
    }

    fn begin_counting(&mut self, ctx: MacCtx, out: &mut Vec<MacAction>) {
        self.wait = WaitPhase::Counting(ctx.now);
        if ctx.observing {
            out.push(MacAction::Emit(SimEvent::Resume { node: self.cfg.id }));
        }
        out.push(MacAction::ArmFlowTimer(
            ctx.now + self.cfg.phy.slot() * u64::from(self.backoff.slots_remaining()),
        ));
    }

    // ------------------------------------------------------------------
    // Frame admission and transmission
    // ------------------------------------------------------------------

    /// Picks the next frame to serve, if any traffic is ready.
    fn admit_frame(&mut self, ctx: MacCtx, out: &mut Vec<MacAction>) {
        let n = self.flows.len();
        for probe in 0..n {
            let idx = (self.flow_rr + probe) % n;
            if let Some(p) = self.try_flow(idx, ctx, out) {
                self.flow_rr = (idx + 1) % n;
                self.current_flow = idx;
                self.pending = Some(p);
                self.contend(self.flows[idx].timeouts, ctx, out);
                self.try_enter_opportunity(ctx, out);
                return;
            }
        }
        // Nothing ready: schedule the earliest CBR wakeup.
        if !self.traffic_armed {
            let mut min_eta: Option<SimDuration> = None;
            for idx in 0..n {
                let payload = self.payload_for(idx, ctx, out);
                if let Some(eta) = self.flows[idx].traffic.eta(payload) {
                    min_eta = Some(min_eta.map_or(eta, |m: SimDuration| m.min(eta)));
                }
            }
            if let Some(min) = min_eta {
                self.traffic_armed = true;
                out.push(MacAction::ScheduleTraffic(
                    ctx.now + min.max(SimDuration::from_micros(1)),
                ));
            }
        }
    }

    /// The pending frame starts contending: a fresh backoff draw at
    /// escalation `stage`, frozen until the channel is idle.
    fn contend(&mut self, stage: u32, ctx: MacCtx, out: &mut Vec<MacAction>) {
        self.backoff = self.draw_backoff(stage);
        if ctx.observing {
            out.push(MacAction::Emit(SimEvent::BackoffDraw {
                node: self.cfg.id,
                stage,
                slots: self.backoff.slots_remaining(),
            }));
        }
        self.state = FlowState::Contend;
        self.wait = WaitPhase::NeedIdle;
    }

    fn try_flow(
        &mut self,
        idx: usize,
        ctx: MacCtx,
        out: &mut Vec<MacAction>,
    ) -> Option<PendingFrame> {
        let payload = self.payload_for(idx, ctx, out);
        let node = self.cfg.id;
        let flow = &mut self.flows[idx];
        let dst = flow.dst;
        flow.traffic.refresh(ctx.now);

        if let Some(window) = &mut flow.arq {
            // Keep the window full.
            while window.has_room() && flow.traffic.available() >= f64::from(payload) {
                flow.traffic.take(payload);
                let seq = window.enqueue(payload);
                if ctx.observing {
                    out.push(MacAction::Emit(SimEvent::Enqueue {
                        node,
                        dst,
                        depth: window.outstanding() as u32,
                    }));
                    if let Some(seq) = seq {
                        out.push(MacAction::Emit(SimEvent::FrameQueued { node, dst, seq }));
                    }
                }
            }
            loop {
                let seq = window.next_to_send()?;
                let attempts = window.attempts_of(seq).unwrap_or(0);
                if attempts > self.cfg.retry_limit {
                    window.abandon(seq);
                    out.push(MacAction::Emit(SimEvent::FrameDropped { node, dst, seq }));
                    if ctx.observing {
                        out.push(MacAction::Emit(SimEvent::Dequeue {
                            node,
                            dst,
                            depth: window.outstanding() as u32,
                        }));
                    }
                    continue;
                }
                let payload = window.payload_of(seq).unwrap_or(payload);
                if ctx.observing && attempts > 0 {
                    out.push(MacAction::Emit(SimEvent::Retry {
                        node,
                        dst,
                        attempt: attempts,
                    }));
                }
                return Some(PendingFrame {
                    dst,
                    seq,
                    payload,
                    attempt: attempts,
                });
            }
        } else if flow.traffic.available() >= f64::from(payload) {
            flow.traffic.take(payload);
            let seq = flow.next_seq;
            flow.next_seq += 1;
            if ctx.observing {
                out.push(MacAction::Emit(SimEvent::Enqueue {
                    node,
                    dst,
                    depth: 1,
                }));
                out.push(MacAction::Emit(SimEvent::FrameQueued { node, dst, seq }));
            }
            Some(PendingFrame {
                dst,
                seq,
                payload,
                attempt: 0,
            })
        } else {
            None
        }
    }

    /// Payload size for flow `idx`: adapted when the census says so.
    /// A fresh census result is announced as an [`SimEvent::Adapt`].
    fn payload_for(&mut self, idx: usize, ctx: MacCtx, out: &mut Vec<MacAction>) -> u32 {
        if !self.cfg.features.ht_adaptation {
            return self.cfg.payload_bytes;
        }
        let flow = &mut self.flows[idx];
        if let Some(s) = flow.setting {
            return s.payload_bytes;
        }
        if let Some(proto) = &self.proto {
            if let Ok(setting) = proto.tx_setting_in(ctx.directory, flow.dst) {
                flow.setting = Some(setting);
                if ctx.observing {
                    out.push(MacAction::Emit(SimEvent::Adapt {
                        node: self.cfg.id,
                        dst: flow.dst,
                        cw: setting.cw,
                        payload_bytes: setting.payload_bytes,
                    }));
                }
                return setting.payload_bytes;
            }
        }
        self.cfg.payload_bytes
    }

    /// One backoff draw for the pending frame from this MAC's
    /// counter-keyed stream: a pure function of `(seed, node id, draw
    /// counter)`, so the slot count is independent of anything another
    /// node — or the medium — draws.
    fn draw_backoff(&mut self, stage: u32) -> Backoff {
        let rng = &mut CounterRng::from_key(self.seed, self.cfg.id.0 as u64, self.backoff_ctr);
        self.backoff_ctr += 1;
        Backoff::draw(self.effective_policy(), stage, rng)
    }

    /// Backoff policy of the pending frame's flow: the adaptation table's
    /// window once a setting is installed (only HT adaptation installs
    /// one).
    fn effective_policy(&self) -> BackoffPolicy {
        match self.flows[self.current_flow].setting {
            // The adaptation table's window is installed as the
            // *initial* window; collisions still escalate it, as 802.11
            // requires.
            Some(s) => BackoffPolicy::Beb {
                cw_min: s.cw,
                cw_max: 1023,
            },
            None => self.cfg.backoff,
        }
    }

    fn start_transmission(&mut self, out: &mut Vec<MacAction>) {
        let Some(p) = self.pending else {
            self.state = FlowState::Idle;
            return;
        };
        self.concurrent_sent = self.opportunity.map(|op| op.link);
        if let Some(link) = self.concurrent_sent {
            out.push(MacAction::Emit(SimEvent::ConcurrentTx {
                node: self.cfg.id,
                src: link.0,
                dst: link.1,
            }));
        }
        if let Some(w) = &mut self.flows[self.current_flow].arq {
            // A frame acked or abandoned between queueing and airtime
            // has left the window; it needs no attempt bookkeeping.
            let _ = w.mark_sent(p.seq);
        }
        let phy = self.cfg.phy;
        if !self.cfg.features.rts_cts && !self.cfg.features.discovery_header {
            self.send_data(p, out);
            return;
        }
        // RTS and discovery header both announce the data's airtime.
        let data_rate = self.rate_for();
        let data_air =
            phy.frame_duration(comap_mac::frames::DATA_HEADER_BYTES + p.payload, data_rate);
        let (state, body, rate) = if self.cfg.features.rts_cts {
            // NAV from the end of the RTS: SIFS + CTS + SIFS + data +
            // SIFS + ACK.
            let nav = phy.sifs()
                + self.cts_air()
                + phy.sifs()
                + data_air
                + phy.sifs()
                + phy.ack_duration();
            (FlowState::TxRts, FrameBody::Rts { nav }, phy.control_rate())
        } else {
            let body = FrameBody::Discovery {
                data_duration: data_air,
            };
            (FlowState::TxHeader, body, phy.header_rate())
        };
        self.state = state;
        out.push(MacAction::Transmit(Frame {
            src: self.cfg.id,
            dst: p.dst,
            body,
            rate,
        }));
    }

    /// Puts the pending frame's data on the air.
    fn send_data(&mut self, p: PendingFrame, out: &mut Vec<MacAction>) {
        self.state = FlowState::TxData;
        out.push(MacAction::Emit(SimEvent::FrameTx {
            node: self.cfg.id,
            dst: p.dst,
            seq: p.seq,
            attempt: p.attempt,
        }));
        let rate = self.rate_for();
        out.push(MacAction::Transmit(Frame {
            src: self.cfg.id,
            dst: p.dst,
            body: FrameBody::Data {
                seq: p.seq,
                payload_bytes: p.payload,
                retry: p.attempt > 0,
            },
            rate,
        }));
    }

    /// Data rate for the pending frame's flow. A fixed rate reads no
    /// position, so it never touches the (then empty) true-position
    /// table.
    fn rate_for(&self) -> Rate {
        if let RateController::Fixed(rate) = self.cfg.rate_ctl {
            return rate;
        }
        let dst = self.flows[self.current_flow].dst;
        let interferer = self
            .opportunity
            .map(|op| self.cfg.true_positions[op.link.0 .0]);
        self.cfg.rate_ctl.select(
            &self.cfg.channel,
            self.cfg.phy.standard(),
            self.cfg.true_positions[self.cfg.id.0],
            self.cfg.true_positions[dst.0],
            interferer,
        )
    }

    // ------------------------------------------------------------------
    // Exposed-terminal logic
    // ------------------------------------------------------------------

    /// A discovery header or an in-band announcement revealed `link`,
    /// whose data ends at `data_end`. The data starts now: right after a
    /// separate header, or already on the air for an in-band one.
    fn header_heard(
        &mut self,
        link: (NodeId, NodeId),
        data_end: SimTime,
        ctx: MacCtx,
        out: &mut Vec<MacAction>,
    ) {
        out.push(MacAction::Emit(SimEvent::HeaderHeard {
            node: self.cfg.id,
            src: link.0,
            dst: link.1,
        }));
        if self.cfg.features.et_concurrency {
            // Remember the discovery even when we cannot act on it right
            // now: a frame admitted mid-transmission re-checks it.
            self.ongoing = Some((link, ctx.now, data_end));
            self.try_enter_opportunity(ctx, out);
        }
    }

    /// Attempts to convert the last discovered ongoing transmission into
    /// an exposed-terminal opportunity for the pending frame.
    fn try_enter_opportunity(&mut self, ctx: MacCtx, out: &mut Vec<MacAction>) {
        if !self.cfg.features.et_concurrency
            || self.opportunity.is_some()
            || self.state != FlowState::Contend
        {
            return;
        }
        let Some(((src, dst), data_start, until)) = self.ongoing else {
            return;
        };
        if ctx.now >= until {
            self.ongoing = None;
            return;
        }
        let Some(p) = self.pending else { return };
        // The announced data is addressed to us: we are its receiver, not
        // an exposed terminal.
        if dst == self.cfg.id || src == self.cfg.id {
            return;
        }
        let Some(proto) = &mut self.proto else { return };
        let allowed = proto
            .concurrency_allowed_in(ctx.directory, (src, dst), p.dst)
            .unwrap_or(false);
        if !allowed {
            return;
        }
        // Joining after the data frame is already on the air: the current
        // ambient power *is* RSSI₁. Joining at discovery time: the data
        // has not started, so the watchdog arms on the first clear rise.
        let sched = (ctx.now > data_start).then(|| proto.arm_scheduler(ctx.sensed.to_dbm()));
        self.opportunity = Some(Opportunity {
            link: (src, dst),
            until,
            baseline: ctx.sensed,
            sched,
        });
        if ctx.observing {
            out.push(MacAction::Emit(SimEvent::EtOpportunity {
                node: self.cfg.id,
                src,
                dst,
            }));
        }
        // sync() will resume the backoff under the watchdog.
    }

    /// Whether the channel blocks this node's countdown.
    fn effective_busy(&self, ctx: MacCtx) -> bool {
        if ctx.transmitting {
            return true;
        }
        // Inside an opportunity the channel counts as clear: before the
        // announced data is on the air trivially, and once the watchdog
        // is armed because it alone decides (on_sense handles abandon).
        self.opportunity.is_none()
            && (ctx.now < self.nav_until
                || ctx.sensed.to_dbm() >= self.cfg.t_cs
                || (self.cfg.preamble_cs && ctx.locked))
    }
}
