//! The simulation engine: event loop, wiring and reporting.

use std::collections::VecDeque;
use std::fmt;
use std::mem;
use std::panic;
use std::sync::mpsc::{self, Receiver, SyncSender};
use std::sync::Arc;
use std::thread;

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
use crate::medium::{Medium, Note};
use crate::observe::{Observer, SimEvent};
use crate::profile::{Profiler, RunProfile};
use crate::stats::{SimReport, Tally};

/// A configured, runnable simulation: the engine and the sinks that
/// observe it.
pub struct Simulator {
    engine: Engine,
    /// Attached observers; events fan out to each in attach order. They
    /// never leave the thread that calls `run`, so they need not be
    /// `Send`.
    sinks: Vec<Box<dyn Observer>>,
}

/// Everything of a simulation but its sinks: the state the event loop
/// reads and writes. It is `Send` (checked at the crate root), so an
/// observed run can move it to a worker thread.
pub(crate) struct Engine {
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
    /// The report's per-link and per-node counters while the run is
    /// under way, written into the report when it ends.
    tally: Tally,
    /// Where emitted events go during an observed run. Whether it is
    /// open is the single gate every emission site checks, bar the
    /// seven report-counted events.
    outlet: Option<Outlet>,
    /// Set when the sinks' thread hung up mid-run (a sink panicked):
    /// the loop stops at its next event, and the report is never read.
    hung_up: bool,
    /// The dispatch work queue: events awaiting their MAC, the medium's
    /// notes pushed straight onto it. Empty between events. Sized at
    /// construction for the most it can hold, so it never grows during
    /// a run, and debug builds, which keep the left-out `Sense` notes in
    /// it, allocate what release builds do: a frame's notes are at most
    /// two per receiver and the sender's `TxDone`, and only a CTS `Rx`
    /// puts a second frame on the air before its batch drains.
    work: VecDeque<Note>,
    /// The actions of the MAC being dispatched, reused the same way.
    actions: Vec<MacAction>,
    /// Seed of the counter-keyed localization-noise streams.
    move_seed: u64,
    /// Per-node move-epoch counters: the counter half of the
    /// localization-noise key, bumped once per applied move.
    move_epoch: Vec<u64>,
    /// Debug builds: per node, the digest of its MAC's `Debug` text as
    /// the last audit of a left-out `Sense` found it, until the MAC next
    /// handles an event or hears of a move.
    #[cfg(debug_assertions)]
    audited: Vec<Option<u64>>,
}

/// Events per batch on their way from the engine to the sinks.
const BATCH: usize = 1024;

/// Batches an observed run allocates: one the engine fills, the rest
/// queued for the sinks or returned empty.
const BATCHES: usize = 4;

/// A batch of emitted events, in emission order.
type Batch = Vec<(SimTime, SimEvent)>;

/// The engine's end of an observed run's two channels: it fills
/// `batch`, sends it full, and takes the next empty one the sinks'
/// thread returned.
struct Outlet {
    batch: Batch,
    full: SyncSender<Batch>,
    empty: Receiver<Batch>,
}

impl Outlet {
    /// Queues `event` for the sinks. Returns `false` once the sinks'
    /// thread has hung up.
    fn push(&mut self, now: SimTime, event: SimEvent) -> bool {
        self.batch.push((now, event));
        if self.batch.len() < BATCH {
            return true;
        }
        if self.full.send(mem::take(&mut self.batch)).is_err() {
            return false;
        }
        match self.empty.recv() {
            Ok(batch) => {
                self.batch = batch;
                true
            }
            Err(_) => false,
        }
    }

    /// Sends the last, partial batch.
    fn close(self) {
        if !self.batch.is_empty() {
            // A failed send means the sinks' thread is unwinding.
            let _ = self.full.send(self.batch);
        }
    }
}

impl fmt::Debug for Simulator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Simulator")
            .field("now", &self.engine.now)
            .field("events", &self.engine.report.events)
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
        Simulator {
            engine: Engine::new(cfg),
            sinks: Vec::new(),
        }
    }

    /// Attaches an observer. Events start flowing to it from the next
    /// `run`; attaching any sink enables event emission in the medium
    /// and every MAC, but never changes simulation results (sinks have
    /// no channel back, and no emission touches an RNG stream).
    pub fn attach_sink(&mut self, sink: Box<dyn Observer>) {
        self.engine.medium.enable_observation();
        self.sinks.push(sink);
    }

    /// Pre-warms every node's link-cache row before the run: the links
    /// to its candidate receivers, which its first `begin` would fill
    /// (see [`Medium::warm_links`]). Purely an evaluation-order change:
    /// cache fills are deterministic functions of the positions and
    /// epochs, so a warmed run is bit-identical to a lazy one — the
    /// differential harness drives both fill orders through this hook.
    pub fn warm_link_cache(&mut self) {
        for i in 0..self.engine.macs.len() {
            self.engine.medium.warm_links(NodeId(i));
        }
    }

    /// Runs the simulation for `duration` of simulated time and returns
    /// the report.
    ///
    /// With no sink attached the event loop runs on the calling thread.
    /// With sinks it runs on a scoped worker thread, while the calling
    /// thread hands each event to every sink in attach order, so sinks
    /// see the stream they would see inline, and no thread outlives the
    /// call. A panic in the loop or in a sink resumes here with its own
    /// payload.
    pub fn run(self, duration: SimDuration) -> SimReport {
        self.run_core(duration, false).0
    }

    /// Runs with the event-loop profiler enabled, returning the report
    /// alongside the wall-clock profile. Profiling only *times* the
    /// loop, so the report is identical to an unprofiled run; in an
    /// observed run the sinks' work happens on the calling thread, off
    /// the timed dispatches.
    pub fn run_profiled(self, duration: SimDuration) -> (SimReport, RunProfile) {
        let (report, profile) = self.run_core(duration, true);
        #[expect(
            clippy::expect_used,
            reason = "run_core(.., true) always builds a profile; a None is a wiring bug"
        )]
        let profile = profile.expect("profiling was enabled");
        (report, profile)
    }

    fn run_core(self, duration: SimDuration, profile: bool) -> (SimReport, Option<RunProfile>) {
        let Simulator {
            mut engine,
            mut sinks,
        } = self;
        let end = SimTime::ZERO + duration;
        let mut profiler = profile.then(Profiler::new);
        if sinks.is_empty() {
            engine.run_until(end, profiler.as_mut());
        } else {
            engine = engine.run_beside(&mut sinks, end, profiler.as_mut());
        }
        engine.report.duration = duration;
        engine.tally.write_into(&mut engine.report);
        engine.report.medium = engine.medium.stats();
        for sink in &mut sinks {
            sink.finish(&mut engine.report);
        }
        let profile = profiler.map(|p| {
            p.finish(
                duration,
                engine.report.medium.ledger_checks,
                engine.medium.ledger_check_nanos(),
                engine.medium.counters(),
            )
        });
        (engine.report, profile)
    }
}

/// Hands every event of each batch from `full` to every sink in attach
/// order, and returns the emptied batch over `empty`. Returns when the
/// engine's end of `full` is gone. If a sink panics, unwinding drops
/// both channel ends, which tells the engine to stop.
fn feed(sinks: &mut [Box<dyn Observer>], full: Receiver<Batch>, empty: SyncSender<Batch>) {
    for mut batch in full {
        for (now, event) in &batch {
            for sink in sinks.iter_mut() {
                sink.on_event(*now, event);
            }
        }
        batch.clear();
        // A failed send means the engine is done and needs no more.
        let _ = empty.send(batch);
    }
}

impl Engine {
    fn new(cfg: SimConfig) -> Self {
        let n = cfg.nodes.len();
        let true_positions: Vec<Position> = cfg.nodes.iter().map(|s| s.position).collect();

        // Independent, seed-derived RNG streams.
        let medium_rng = StdRng::seed_from_u64(cfg.seed ^ 0x9E37_79B9_7F4A_7C15);
        let mut error_rng = StdRng::seed_from_u64(cfg.seed ^ 0x6A09_E667_F3BC_C909);

        let mut directory = NeighborTable::new();
        for (i, pos) in true_positions.iter().enumerate() {
            let report = pos.with_error(cfg.position_error, &mut error_rng);
            directory.insert(NodeId(i), report);
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
        medium.set_cca_threshold(cfg.protocol.t_cs);

        // The adaptation table depends on the protocol configuration
        // alone: built on first use and shared by every node.
        let mut adaptation: Option<Arc<AdaptationTable>> = None;
        let mut macs = Vec::with_capacity(n);
        for i in 0..n {
            let id = NodeId(i);
            let features = cfg.features_of(id);
            let proto = features.any().then(|| {
                let table =
                    adaptation.get_or_insert_with(|| Arc::new(cfg.protocol.adaptation_table()));
                Protocol::with_adaptation(id, cfg.protocol, Arc::clone(table))
            });
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
        for (mac, senders) in macs.iter_mut().zip(&senders_to) {
            mac.set_senders(senders);
        }
        let tally = Tally::new(n, &cfg.flows);

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
        Engine {
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
            tally,
            outlet: None,
            hung_up: false,
            work: VecDeque::with_capacity(4 * n),
            actions: Vec::new(),
            move_seed,
            move_epoch: vec![0; n],
            #[cfg(debug_assertions)]
            audited: vec![None; n],
        }
    }

    /// Runs the event loop on a scoped worker thread while this thread
    /// feeds the sinks, and returns the engine once every event has
    /// reached every sink. The batches are allocated here, before the
    /// loop starts, and then go round between the two threads.
    fn run_beside(
        mut self,
        sinks: &mut [Box<dyn Observer>],
        end: SimTime,
        profiler: Option<&mut Profiler>,
    ) -> Self {
        let (full_tx, full_rx) = mpsc::sync_channel(BATCHES);
        let (empty_tx, empty_rx) = mpsc::sync_channel(BATCHES);
        for _ in 1..BATCHES {
            // Cannot fail: the receiver is in hand and the channel has
            // room for every batch.
            let _ = empty_tx.send(Batch::with_capacity(BATCH));
        }
        self.outlet = Some(Outlet {
            batch: Batch::with_capacity(BATCH),
            full: full_tx,
            empty: empty_rx,
        });
        thread::scope(|scope| {
            // The worker owns the engine, so a panic in the loop drops
            // the outlet, which ends `feed`.
            let worker = scope.spawn(move || {
                self.run_until(end, profiler);
                if let Some(outlet) = self.outlet.take() {
                    outlet.close();
                }
                self
            });
            feed(sinks, full_rx, empty_tx);
            worker
                .join()
                .unwrap_or_else(|payload| panic::resume_unwind(payload))
        })
    }

    /// Pops and dispatches every event up to `end`.
    fn run_until(&mut self, end: SimTime, mut profiler: Option<&mut Profiler>) {
        while let Some(t) = self.queue.peek_time() {
            if t > end || self.hung_up {
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
            let started = profiler.as_deref().map(Profiler::dispatch_start);
            match event {
                Event::TxEnd(tx) => {
                    self.medium.end_into(tx, self.now, &mut self.work);
                    self.forward_medium_events();
                    self.drain();
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
    }

    /// Queues one event for the sinks, if any are attached.
    fn emit(&mut self, event: SimEvent) {
        if let Some(outlet) = &mut self.outlet {
            if !outlet.push(self.now, event) {
                self.hang_up();
            }
        }
    }

    /// Queues the medium's pending events for the sinks. Called right
    /// after every `Medium::begin`/`Medium::end` so physical-layer
    /// events precede the MAC reactions they trigger.
    fn forward_medium_events(&mut self) {
        let Some(outlet) = &mut self.outlet else {
            return;
        };
        let now = self.now;
        if !self
            .medium
            .drain_events()
            .all(|event| outlet.push(now, event))
        {
            self.hang_up();
        }
    }

    /// Stops emitting and ends the run at its next event: the sinks'
    /// thread is unwinding from a sink's panic.
    fn hang_up(&mut self) {
        self.outlet = None;
        self.hung_up = true;
    }

    /// Executes a scheduled movement: physics first, then the position
    /// directory decides whether the mover broadcasts. The directory
    /// holds the mover's own last accepted report, so its mobility
    /// threshold is the one report decision, taken once and only for a
    /// node that runs a protocol. The APs disseminate an accepted report
    /// to every node, as in the paper, so it is applied once, there. The
    /// other protocols are not told: each co-occurrence verdict carries
    /// its nodes' report counts in the directory, which the acceptance
    /// bumps, so the verdicts involving the mover go stale on their own.
    /// The mover's own MAC drops every verdict and adapted setting, the
    /// MACs with a flow toward the mover drop that flow's setting, and
    /// only a rate genie, which reads true positions, needs the move
    /// fanned out to every MAC.
    fn apply_move(&mut self, node: NodeId, step: usize) {
        #[cfg(debug_assertions)]
        self.audited.fill(None);
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
        if self.macs[node.0].protocol().is_some() && self.directory.update(node, fix) {
            self.report.position_reports += 1;
            self.macs[node.0].own_report_accepted();
            for &src in &self.senders_to[node.0] {
                self.macs[src.0].drop_setting_toward(node);
            }
        }
        if self.cfg.rate_controller.reads_positions() {
            for mac in &mut self.macs {
                mac.on_neighbor_moved(node, mv.to);
            }
        }
        // No Sense dispatch: a move changes no ambient power (active
        // transmissions keep the powers they were drawn with), so no
        // carrier-sense or RSSI-watchdog comparison can flip. Geometry-
        // dependent decisions pick up the new positions at the next
        // event that actually evaluates them. See DESIGN.md §8.
    }

    fn dispatch(&mut self, node: NodeId, event: MacEvent) {
        self.work.push_back(Note::Mac(node, event));
        self.drain();
    }

    /// Hands the work queue's events to their MACs in order, applying
    /// each MAC's actions before the next event; a transmission the
    /// actions start queues the medium's events behind the rest. After
    /// each dispatch the MAC's sense watch goes to the medium.
    fn drain(&mut self) {
        let mut actions = std::mem::take(&mut self.actions);
        while let Some(note) = self.work.pop_front() {
            let (node, event) = match note {
                Note::Mac(node, event) => (node, event),
                #[cfg(debug_assertions)]
                Note::LeftOut(node) => {
                    self.audit_left_out(node, &mut actions);
                    continue;
                }
            };
            let observing = self.outlet.is_some();
            let ctx = mac_ctx(self.now, &self.medium, node, observing, &self.directory);
            let mac = &mut self.macs[node.0];
            mac.handle(event, ctx, &mut actions);
            self.medium.set_sense_watch(node, mac.sense_watch(self.now));
            #[cfg(debug_assertions)]
            {
                self.audited[node.0] = None;
            }
            for action in actions.drain(..) {
                self.apply(node, action);
            }
        }
        // Clearing the drained queue restarts its ring at the front of
        // the buffer, so a run touches only as much of the buffer as its
        // longest batch needs.
        self.work.clear();
        self.actions = actions;
    }

    /// Debug-build audit of a `Sense` note the medium left out: replays
    /// it where it would have popped and asserts that it appends no
    /// action and leaves the MAC's `Debug` text unchanged. The text is
    /// compared by digest, so the audit allocates nothing and debug runs
    /// allocate what release runs do; a failed audit stops the run, so a
    /// run that goes on has the MAC release builds have.
    #[cfg(debug_assertions)]
    fn audit_left_out(&mut self, node: NodeId, actions: &mut Vec<MacAction>) {
        let observing = self.outlet.is_some();
        let ctx = mac_ctx(self.now, &self.medium, node, observing, &self.directory);
        let mac = &mut self.macs[node.0];
        let before = self.audited[node.0].unwrap_or_else(|| debug_digest(mac));
        mac.handle(MacEvent::Sense, ctx, actions);
        debug_assert!(
            actions.is_empty(),
            "{node}: a left-out Sense at {} acts: {actions:?}",
            self.now
        );
        let after = debug_digest(mac);
        debug_assert_eq!(
            after, before,
            "{node}: a left-out Sense at {} changes the MAC",
            self.now
        );
        self.audited[node.0] = Some(after);
    }

    fn apply(&mut self, node: NodeId, action: MacAction) {
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
                let tx = self.medium.begin_into(frame, self.now, end, &mut self.work);
                self.forward_medium_events();
                self.queue.schedule(end, Event::TxEnd(tx));
                self.tally.node_mut(node).airtime += duration;
            }
            MacAction::Emit(event) => {
                self.account(&event);
                self.emit(event);
            }
        }
    }

    /// Folds one event into the report's counters: the per-link and
    /// per-node counters are exactly a projection of the event stream.
    fn account(&mut self, event: &SimEvent) {
        match *event {
            SimEvent::FrameTx { node, dst, .. } => {
                self.tally.link_mut(node, dst).data_tx += 1;
            }
            SimEvent::Delivered { node, from, bytes } => {
                let link = self.tally.link_mut(from, node);
                link.delivered_bytes += u64::from(bytes);
                link.delivered_frames += 1;
            }
            SimEvent::AckTimeout { node, dst } => {
                self.tally.link_mut(node, dst).ack_timeouts += 1;
            }
            SimEvent::FrameDropped { node, dst, .. } => {
                self.tally.link_mut(node, dst).drops += 1;
            }
            SimEvent::ConcurrentTx { node, .. } => {
                self.tally.node_mut(node).concurrent_tx += 1;
            }
            SimEvent::EtAbandon { node } => {
                self.tally.node_mut(node).et_abandons += 1;
            }
            SimEvent::HeaderHeard { node, .. } => {
                self.tally.node_mut(node).headers_heard += 1;
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

/// The context `node`'s MAC handles an event in: its radio state as the
/// medium reads it now, and the shared position directory.
fn mac_ctx<'a>(
    now: SimTime,
    medium: &Medium,
    node: NodeId,
    observing: bool,
    directory: &'a NeighborTable<NodeId>,
) -> MacCtx<'a> {
    MacCtx {
        now,
        incoming: medium.incoming(node),
        cca_busy: medium.cca_busy(node),
        transmitting: medium.is_transmitting(node),
        locked: medium.is_locked(node),
        observing,
        directory,
    }
}

/// FNV-1a digest of `value`'s `Debug` text, streamed through the
/// formatter so that nothing is allocated.
#[cfg(debug_assertions)]
fn debug_digest(value: &impl fmt::Debug) -> u64 {
    struct Fnv(u64);
    impl fmt::Write for Fnv {
        fn write_str(&mut self, s: &str) -> fmt::Result {
            for &b in s.as_bytes() {
                self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
            }
            Ok(())
        }
    }
    let mut fnv = Fnv(0xCBF2_9CE4_8422_2325);
    // Writing to `Fnv` cannot fail, nor can a derived `Debug`.
    let _ = fmt::Write::write_fmt(&mut fnv, format_args!("{value:?}"));
    fnv.0
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

    /// Three saturated RTS/CTS flows among eight nodes. At 49.4 ms node
    /// 6 counts down, idle, while a CTS it cannot decode ends; the RTS
    /// sender's data, sent when its `Rx` of that CTS pops, makes node 6's
    /// channel busy before its `Sense` from the same batch pops. So the
    /// medium must keep every `Sense` of a CTS's end: debug builds, whose
    /// audit replays each left-out note, stop here if it does not.
    #[test]
    fn the_data_a_cts_sends_overtakes_its_batch() {
        let mut cfg = SimConfig::testbed(3);
        cfg.default_features = MacFeatures::DCF_RTS_CTS;
        cfg.rate_controller = crate::rate::RateController::Fixed(Rate::Mbps11);
        let spots = [
            (3.0, 36.0),
            (15.0, 4.0),
            (32.0, 5.0),
            (22.0, 8.0),
            (11.0, 57.0),
            (8.0, 7.0),
            (48.0, 35.0),
            (26.0, 59.0),
        ];
        for (i, &(x, y)) in spots.iter().enumerate() {
            cfg.add_node(NodeSpec::client(format!("N{i}"), Position::new(x, y)));
        }
        for (src, dst) in [(2, 3), (4, 7), (6, 1)] {
            cfg.add_flow(NodeId(src), NodeId(dst), Traffic::Saturated);
        }
        let report = Simulator::new(cfg).run(SimDuration::from_millis(60));
        assert!(report.link_goodput_bps(NodeId(2), NodeId(3)) > 0.0);
    }

    #[test]
    fn protocols_share_one_adaptation_table() {
        let mut cfg = two_node_cfg(1);
        cfg.default_features = MacFeatures::COMAP;
        let sim = Simulator::new(cfg);
        let tables: Vec<_> = sim
            .engine
            .macs
            .iter()
            .map(|m| m.protocol().expect("CO-MAP node").adaptation())
            .collect();
        assert!(std::ptr::eq(tables[0], tables[1]));
        assert_eq!(
            tables[0],
            Protocol::new(NodeId(0), sim.engine.cfg.protocol).adaptation()
        );
    }

    /// The exposed-terminal testbed's C2 rides alongside C1 → AP1 until
    /// it walks up to AP1, where its frames would drown C1's. The
    /// directory accepts its own report, so its verdicts go and it stops
    /// riding along, though none of the three nodes a verdict is stamped
    /// with moved.
    #[test]
    fn a_movers_own_report_drops_its_verdicts() {
        let moved_at = SimDuration::from_millis(100);
        let moved = SimTime::ZERO + moved_at;
        let mut cfg = SimConfig::testbed(1);
        cfg.default_features = MacFeatures::COMAP;
        cfg.protocol.t_cs = comap_radio::units::Dbm::new(-89.0);
        let ap1 = cfg.add_node(NodeSpec::ap("AP1", Position::ORIGIN));
        let c1 = cfg.add_node(NodeSpec::client("C1", Position::new(-8.0, 0.0)));
        let ap2 = cfg.add_node(NodeSpec::ap("AP2", Position::new(36.0, 0.0)));
        let c2 = cfg.add_node(
            NodeSpec::client("C2", Position::new(26.0, 0.0))
                .with_move(moved_at, Position::new(6.0, 0.0)),
        );
        cfg.add_flow(c1, ap1, Traffic::Saturated);
        cfg.add_flow(c2, ap2, Traffic::Saturated);
        let (timeline, handle) = crate::TimelineSink::new();
        let mut sim = Simulator::new(cfg);
        sim.attach_sink(Box::new(timeline));
        assert_eq!(sim.run(SimDuration::from_millis(200)).position_reports, 1);
        let rides = |after: bool| {
            handle
                .events()
                .iter()
                .filter(|&&(t, e)| {
                    (t >= moved) == after
                        && matches!(e, SimEvent::ConcurrentTx { node, .. } if node == c2)
                })
                .count()
        };
        assert!(rides(false) > 0, "C2 rides alongside C1 before its move");
        assert_eq!(rides(true), 0, "and never after it");
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
            sim.engine.directory.len(),
            6,
            "every node's report, its own included"
        );
        for mac in &sim.engine.macs {
            let proto = mac.protocol().expect("CO-MAP node");
            assert!(
                proto.neighbors().is_empty(),
                "no protocol holds a position, its own included"
            );
            assert_eq!(
                sim.engine.directory.position(proto.addr()),
                Some(sim.engine.cfg.nodes[proto.addr().0].position),
                "each node's own report is in the directory"
            );
        }
    }
}
