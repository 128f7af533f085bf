//! The unified instrumentation layer: typed simulation events and the
//! observer (sink) contract.
//!
//! The medium, the MAC and the CO-MAP protocol logic emit [`SimEvent`]s
//! describing everything the paper *watches*: transmissions on the air,
//! capture and collision outcomes, carrier-sense transitions, queue and
//! backoff dynamics, and every CO-MAP decision. The same vocabulary
//! feeds the report: the per-link and per-node counters of
//! [`SimReport`] are a projection of seven variants (`FrameTx`,
//! `Delivered`, `AckTimeout`, `FrameDropped`, `ConcurrentTx`,
//! `EtAbandon`, `HeaderHeard`), which the simulator folds in before
//! handing each event on to whatever [`Observer`]s are attached to the
//! [`crate::Simulator`]. Those seven are always built; every other
//! emission site is gated on a single bool, so with no sink attached an
//! unobserved run builds only what the report counts.
//!
//! Sinks are strictly one-way: they see events and may fold summaries
//! into the final [`SimReport`](crate::stats::SimReport), but nothing
//! they do feeds back into the simulation, and no emission touches an
//! RNG stream. A run with every sink attached is therefore bit-identical
//! to the same seed with none (enforced by `tests/observability.rs`).
//!
//! Four sinks ship with the crate: [`JsonlSink`] (one JSON object per
//! event, for offline analysis), [`TimelineSink`] (the typed events in
//! memory), [`MetricsSink`](crate::metrics::MetricsSink) (per-node time
//! series and histograms surfaced through the report) and
//! [`LatencySink`](crate::latency::LatencySink) (frame-lifecycle
//! spans). An event has one text form, its JSONL line, which
//! [`JsonlSink`] writes. The trace is write-only: no program here reads
//! it back, and its bytes are pinned by the golden traces.

use std::io;
use std::sync::{Arc, Mutex, MutexGuard};

use comap_mac::frames::FrameKind;
use comap_mac::time::SimTime;
use comap_radio::rates::Rate;

use crate::frame::NodeId;
use crate::json;
use crate::stats::SimReport;

/// One typed, timestamped instrumentation event.
///
/// Timestamps are not part of the event — the simulator passes the
/// current [`SimTime`] alongside each event to [`Observer::on_event`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SimEvent {
    // --- Medium (physical layer) -------------------------------------
    /// A frame went on the air.
    TxBegin {
        /// Transmitting node.
        src: NodeId,
        /// Intended receiver.
        dst: NodeId,
        /// Frame kind on the air.
        kind: FrameKind,
        /// Modulation rate.
        rate: Rate,
    },
    /// A frame left the air (receptions resolve at this instant).
    TxEnd {
        /// The node whose transmission ended.
        src: NodeId,
        /// Frame kind that was on the air.
        kind: FrameKind,
    },
    /// A receiver's lock was stolen by a stronger late frame.
    Capture {
        /// The capturing receiver.
        node: NodeId,
        /// Source of the frame that stole the lock.
        src: NodeId,
    },
    /// A frame was held to the end of its lock but killed by the accrued
    /// bit-error hazard (collision / interference loss).
    HazardDrop {
        /// The receiver that lost the frame.
        node: NodeId,
        /// Source of the lost frame.
        src: NodeId,
    },
    /// A frame was decoded successfully at a receiver.
    RxResolved {
        /// The successful receiver.
        node: NodeId,
        /// Source of the decoded frame.
        src: NodeId,
        /// Received signal strength, in dBm.
        rssi_dbm: f64,
        /// SINR over the final exposure span, in dB.
        sinr_db: f64,
    },
    /// A node's sensed power crossed the CCA threshold upward.
    CsBusy {
        /// The node whose channel went busy.
        node: NodeId,
    },
    /// A node's sensed power crossed the CCA threshold downward.
    CsIdle {
        /// The node whose channel went idle.
        node: NodeId,
    },

    // --- MAC ----------------------------------------------------------
    /// A frame entered the transmit queue (the ARQ window under
    /// selective repeat, the single service slot otherwise).
    Enqueue {
        /// The queueing node.
        node: NodeId,
        /// Flow destination.
        dst: NodeId,
        /// Queue depth after the operation.
        depth: u32,
    },
    /// A frame left the transmit queue (acknowledged or abandoned).
    Dequeue {
        /// The dequeueing node.
        node: NodeId,
        /// Flow destination.
        dst: NodeId,
        /// Queue depth after the operation.
        depth: u32,
    },
    /// A fresh backoff was drawn.
    BackoffDraw {
        /// The drawing node.
        node: NodeId,
        /// Escalation stage (0 = initial window).
        stage: u32,
        /// Slots drawn.
        slots: u32,
    },
    /// A counting-down node froze its backoff because the channel went
    /// busy.
    Defer {
        /// The deferring node.
        node: NodeId,
    },
    /// A node resumed counting down its (frozen) backoff.
    Resume {
        /// The resuming node.
        node: NodeId,
    },
    /// An ACK timeout expired.
    AckTimeout {
        /// The waiting sender.
        node: NodeId,
        /// Flow destination.
        dst: NodeId,
    },
    /// A frame is being retransmitted.
    Retry {
        /// The retransmitting node.
        node: NodeId,
        /// Flow destination.
        dst: NodeId,
        /// Attempt number (1 = first retransmission).
        attempt: u32,
    },
    /// Unique payload bytes were delivered.
    Delivered {
        /// The receiving node.
        node: NodeId,
        /// The originating node.
        from: NodeId,
        /// Payload bytes of the frame.
        bytes: u32,
    },

    // --- Frame lifecycle (latency spans) ------------------------------
    /// A specific frame (identified by sequence number) was admitted to
    /// the sender's transmit queue — the start of its end-to-end span.
    FrameQueued {
        /// The queueing sender.
        node: NodeId,
        /// Flow destination.
        dst: NodeId,
        /// ARQ sequence number of the frame.
        seq: u64,
    },
    /// A transmission attempt for a specific frame started (the DATA
    /// frame went on the air; `attempt` 0 is the first try).
    FrameTx {
        /// The transmitting sender.
        node: NodeId,
        /// Flow destination.
        dst: NodeId,
        /// ARQ sequence number of the frame.
        seq: u64,
        /// Attempt number (0 = first transmission).
        attempt: u32,
    },
    /// A specific frame was acknowledged — the successful end of its
    /// end-to-end span.
    FrameAcked {
        /// The sender whose frame was acknowledged.
        node: NodeId,
        /// Flow destination.
        dst: NodeId,
        /// ARQ sequence number of the frame.
        seq: u64,
    },
    /// A specific frame was abandoned at the retry limit — the failed
    /// end of its end-to-end span.
    FrameDropped {
        /// The sender that gave up.
        node: NodeId,
        /// Flow destination.
        dst: NodeId,
        /// ARQ sequence number of the frame.
        seq: u64,
    },

    // --- CO-MAP -------------------------------------------------------
    /// A discovery header (or in-band announcement) was decoded.
    HeaderHeard {
        /// The overhearing node.
        node: NodeId,
        /// Sender of the announced link.
        src: NodeId,
        /// Receiver of the announced link.
        dst: NodeId,
    },
    /// A node entered the exposed-terminal opportunity window against
    /// the announced link.
    EtOpportunity {
        /// The exposed terminal.
        node: NodeId,
        /// Sender of the ongoing link.
        src: NodeId,
        /// Receiver of the ongoing link.
        dst: NodeId,
    },
    /// A node abandoned its opportunity (RSSI watchdog).
    EtAbandon {
        /// The abandoning node.
        node: NodeId,
    },
    /// A concurrent (exposed-terminal) transmission started alongside
    /// the ongoing link.
    ConcurrentTx {
        /// The concurrently transmitting node.
        node: NodeId,
        /// Sender of the ongoing link.
        src: NodeId,
        /// Receiver of the ongoing link.
        dst: NodeId,
    },
    /// The hidden-terminal census installed an adapted transmit setting.
    Adapt {
        /// The adapting node.
        node: NodeId,
        /// Flow destination the setting applies to.
        dst: NodeId,
        /// Installed (constant) contention window.
        cw: u32,
        /// Installed payload size in bytes.
        payload_bytes: u32,
    },
}

/// Short on-air label of a frame kind ("HDR", "DATA", ...).
pub fn kind_label(kind: FrameKind) -> &'static str {
    match kind {
        FrameKind::DiscoveryHeader => "HDR",
        FrameKind::Data => "DATA",
        FrameKind::Ack => "ACK",
        FrameKind::Rts => "RTS",
        FrameKind::Cts => "CTS",
    }
}

/// Compact label of a modulation rate ("5.5", "11", ...).
fn rate_label(rate: Rate) -> &'static str {
    match rate {
        Rate::Mbps1 => "1",
        Rate::Mbps2 => "2",
        Rate::Mbps5_5 => "5.5",
        Rate::Mbps11 => "11",
        Rate::Mbps6 => "6",
        Rate::Mbps9 => "9",
        Rate::Mbps12 => "12",
        Rate::Mbps18 => "18",
        Rate::Mbps24 => "24",
        Rate::Mbps36 => "36",
        Rate::Mbps48 => "48",
        Rate::Mbps54 => "54",
    }
}

impl SimEvent {
    /// Stable snake_case name of the variant — the JSONL `type` field.
    pub fn type_name(&self) -> &'static str {
        match self {
            SimEvent::TxBegin { .. } => "tx_begin",
            SimEvent::TxEnd { .. } => "tx_end",
            SimEvent::Capture { .. } => "capture",
            SimEvent::HazardDrop { .. } => "hazard_drop",
            SimEvent::RxResolved { .. } => "rx_resolved",
            SimEvent::CsBusy { .. } => "cs_busy",
            SimEvent::CsIdle { .. } => "cs_idle",
            SimEvent::Enqueue { .. } => "enqueue",
            SimEvent::Dequeue { .. } => "dequeue",
            SimEvent::BackoffDraw { .. } => "backoff_draw",
            SimEvent::Defer { .. } => "defer",
            SimEvent::Resume { .. } => "resume",
            SimEvent::AckTimeout { .. } => "ack_timeout",
            SimEvent::Retry { .. } => "retry",
            SimEvent::Delivered { .. } => "delivered",
            SimEvent::FrameQueued { .. } => "frame_queued",
            SimEvent::FrameTx { .. } => "frame_tx",
            SimEvent::FrameAcked { .. } => "frame_acked",
            SimEvent::FrameDropped { .. } => "frame_dropped",
            SimEvent::HeaderHeard { .. } => "header_heard",
            SimEvent::EtOpportunity { .. } => "et_opportunity",
            SimEvent::EtAbandon { .. } => "et_abandon",
            SimEvent::ConcurrentTx { .. } => "concurrent_tx",
            SimEvent::Adapt { .. } => "adapt",
        }
    }
}

/// A sink for instrumentation events.
///
/// The contract: `on_event` is called for every event in simulation
/// order, each event handed to every attached sink in attach order
/// before the next; `finish` is called once, after the run, with the
/// final report (a sink may fold aggregates into it — e.g. the metrics
/// section), again in attach order. A sink must never influence the
/// simulation; it has no channel back.
///
/// Both are called on the thread that calls
/// [`Simulator::run`](crate::Simulator::run): with a sink attached the
/// event loop runs on a worker thread and sends its events over in
/// batches, but sinks never leave the calling thread, so an observer
/// need not be `Send`.
pub trait Observer {
    /// Receives one event at simulation time `now`.
    fn on_event(&mut self, now: SimTime, event: &SimEvent);

    /// Called once after the run; sinks may install summaries into the
    /// report. The default does nothing.
    fn finish(&mut self, report: &mut SimReport) {
        let _ = report;
    }
}

/// A sink that discards everything — measures the pure event-dispatch
/// overhead in benches.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopSink;

impl Observer for NoopSink {
    fn on_event(&mut self, _now: SimTime, _event: &SimEvent) {}
}

/// Writes one JSON object per event (JSON Lines) to any writer.
///
/// Schema per line: `{"t_ns": <u64>, "type": "<variant>", ...fields}`.
/// Each line is formatted straight into one buffer the sink owns and
/// reuses — `&'static str` keys and labels, numbers rendered in place —
/// and goes to the writer in one `write_all`, so a run's events cost no
/// allocation once the buffer has grown to the longest line.
///
/// I/O errors (a failed write, or the flush in [`Observer::finish`]) are
/// recorded, writing stops, and the simulation continues —
/// observability must never abort a run. Whoever owns the writer decides
/// what a recorded error means; the experiment binaries exit 1.
#[derive(Debug)]
pub struct JsonlSink<W: io::Write> {
    out: W,
    line: String,
    written: u64,
    error: Option<io::Error>,
}

impl<W: io::Write> JsonlSink<W> {
    /// Wraps an arbitrary writer.
    pub fn new(out: W) -> Self {
        JsonlSink {
            out,
            line: String::new(),
            written: 0,
            error: None,
        }
    }

    /// Number of lines written so far.
    pub fn written(&self) -> u64 {
        self.written
    }

    /// The first I/O error encountered, if any.
    pub fn error(&self) -> Option<&io::Error> {
        self.error.as_ref()
    }
}

impl<W: io::Write> Observer for JsonlSink<W> {
    fn on_event(&mut self, now: SimTime, event: &SimEvent) {
        if self.error.is_some() {
            return;
        }
        encode_line(&mut self.line, now, event);
        match self.out.write_all(self.line.as_bytes()) {
            Ok(()) => self.written += 1,
            Err(e) => self.error = Some(e),
        }
    }

    fn finish(&mut self, _report: &mut SimReport) {
        if let Err(e) = self.out.flush() {
            self.error.get_or_insert(e);
        }
    }
}

/// Replaces `line` with the JSONL line of `event` at `now`, newline
/// included.
fn encode_line(line: &mut String, now: SimTime, event: &SimEvent) {
    line.clear();
    line.push_str("{\"t_ns\":");
    json::write_u64(line, now.as_nanos());
    let mut fields = Fields(line);
    fields.label("type", event.type_name());
    match *event {
        SimEvent::TxBegin {
            src,
            dst,
            kind,
            rate,
        } => fields
            .node("src", src)
            .node("dst", dst)
            .label("kind", kind_label(kind))
            .label("rate", rate_label(rate)),
        SimEvent::TxEnd { src, kind } => fields.node("src", src).label("kind", kind_label(kind)),
        SimEvent::Capture { node, src } | SimEvent::HazardDrop { node, src } => {
            fields.node("node", node).node("src", src)
        }
        SimEvent::RxResolved {
            node,
            src,
            rssi_dbm,
            sinr_db,
        } => fields
            .node("node", node)
            .node("src", src)
            .num("rssi_dbm", rssi_dbm)
            .num("sinr_db", sinr_db),
        SimEvent::CsBusy { node }
        | SimEvent::CsIdle { node }
        | SimEvent::Defer { node }
        | SimEvent::Resume { node }
        | SimEvent::EtAbandon { node } => fields.node("node", node),
        SimEvent::Enqueue { node, dst, depth } | SimEvent::Dequeue { node, dst, depth } => fields
            .node("node", node)
            .node("dst", dst)
            .uint("depth", u64::from(depth)),
        SimEvent::BackoffDraw { node, stage, slots } => fields
            .node("node", node)
            .uint("stage", u64::from(stage))
            .uint("slots", u64::from(slots)),
        SimEvent::AckTimeout { node, dst } => fields.node("node", node).node("dst", dst),
        SimEvent::Retry { node, dst, attempt } => fields
            .node("node", node)
            .node("dst", dst)
            .uint("attempt", u64::from(attempt)),
        SimEvent::Delivered { node, from, bytes } => fields
            .node("node", node)
            .node("from", from)
            .uint("bytes", u64::from(bytes)),
        SimEvent::FrameQueued { node, dst, seq }
        | SimEvent::FrameAcked { node, dst, seq }
        | SimEvent::FrameDropped { node, dst, seq } => {
            fields.node("node", node).node("dst", dst).uint("seq", seq)
        }
        SimEvent::FrameTx {
            node,
            dst,
            seq,
            attempt,
        } => fields
            .node("node", node)
            .node("dst", dst)
            .uint("seq", seq)
            .uint("attempt", u64::from(attempt)),
        SimEvent::HeaderHeard { node, src, dst }
        | SimEvent::EtOpportunity { node, src, dst }
        | SimEvent::ConcurrentTx { node, src, dst } => {
            fields.node("node", node).node("src", src).node("dst", dst)
        }
        SimEvent::Adapt {
            node,
            dst,
            cw,
            payload_bytes,
        } => fields
            .node("node", node)
            .node("dst", dst)
            .uint("cw", u64::from(cw))
            .uint("payload_bytes", u64::from(payload_bytes)),
    };
    line.push_str("}\n");
}

/// Appends `,"key":value` fields to a JSONL line. Keys and labels are
/// `&'static str`s of the schema, none of which needs escaping.
struct Fields<'a>(&'a mut String);

impl Fields<'_> {
    fn key(&mut self, key: &'static str) -> &mut String {
        self.0.push_str(",\"");
        self.0.push_str(key);
        self.0.push_str("\":");
        self.0
    }

    fn uint(&mut self, key: &'static str, value: u64) -> &mut Self {
        json::write_u64(self.key(key), value);
        self
    }

    fn node(&mut self, key: &'static str, node: NodeId) -> &mut Self {
        self.uint(key, node.0 as u64)
    }

    fn num(&mut self, key: &'static str, value: f64) -> &mut Self {
        json::write_f64(self.key(key), value);
        self
    }

    fn label(&mut self, key: &'static str, label: &'static str) -> &mut Self {
        let out = self.key(key);
        out.push('"');
        out.push_str(label);
        out.push('"');
        self
    }
}

// `Arc<Mutex<..>>` rather than `Rc<RefCell<..>>`: the workspace
// `clippy.toml` bans the single-thread pair. Sinks themselves need not
// be `Send` (they stay on the thread that calls `run`), but the handle
// may be read from any thread.
type SharedEvents = Arc<Mutex<Vec<(SimTime, SimEvent)>>>;

/// Locks a shared-event buffer, recovering the data from a poisoned
/// mutex (a panicking observer must not wedge the read side).
fn lock_events(events: &SharedEvents) -> MutexGuard<'_, Vec<(SimTime, SimEvent)>> {
    events
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Records the typed events in memory, for a caller that formats its
/// own timeline (`examples/timeline.rs`) or compares streams in tests.
///
/// Because [`crate::Simulator::run`] consumes the simulator (and the
/// boxed sinks with it), construction returns a [`TimelineHandle`]
/// sharing the same buffer, through which the recording is read after
/// the run.
#[derive(Debug)]
pub struct TimelineSink {
    events: SharedEvents,
}

impl TimelineSink {
    /// Creates a sink and the handle that outlives it.
    pub fn new() -> (TimelineSink, TimelineHandle) {
        let events: SharedEvents = Arc::new(Mutex::new(Vec::new()));
        (
            TimelineSink {
                events: Arc::clone(&events),
            },
            TimelineHandle { events },
        )
    }
}

impl Observer for TimelineSink {
    fn on_event(&mut self, now: SimTime, event: &SimEvent) {
        lock_events(&self.events).push((now, *event));
    }
}

/// Read side of a [`TimelineSink`].
#[derive(Debug, Clone)]
pub struct TimelineHandle {
    events: SharedEvents,
}

impl TimelineHandle {
    /// All recorded events in simulation order.
    pub fn events(&self) -> Vec<(SimTime, SimEvent)> {
        lock_events(&self.events).clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    /// The time every pinned line is written at.
    const T: SimTime = SimTime::from_nanos(1_234_567);

    /// One sample of every variant, each with the exact line the sink
    /// writes for it at [`T`]. The lines were captured from the
    /// `Json`-tree encoder this streaming one replaced. `RxResolved`
    /// comes three times for the float rule (non-integral, integral and
    /// non-finite), `FrameDropped` twice for `seq = u64::MAX`.
    fn pinned() -> Vec<(SimEvent, &'static str)> {
        vec![
            (
                SimEvent::TxBegin {
                    src: NodeId(0),
                    dst: NodeId(1),
                    kind: FrameKind::Data,
                    rate: Rate::Mbps5_5,
                },
                r#"{"t_ns":1234567,"type":"tx_begin","src":0,"dst":1,"kind":"DATA","rate":"5.5"}"#,
            ),
            (
                SimEvent::TxEnd {
                    src: NodeId(0),
                    kind: FrameKind::Ack,
                },
                r#"{"t_ns":1234567,"type":"tx_end","src":0,"kind":"ACK"}"#,
            ),
            (
                SimEvent::Capture {
                    node: NodeId(1),
                    src: NodeId(2),
                },
                r#"{"t_ns":1234567,"type":"capture","node":1,"src":2}"#,
            ),
            (
                SimEvent::HazardDrop {
                    node: NodeId(1),
                    src: NodeId(2),
                },
                r#"{"t_ns":1234567,"type":"hazard_drop","node":1,"src":2}"#,
            ),
            (
                SimEvent::RxResolved {
                    node: NodeId(1),
                    src: NodeId(0),
                    rssi_dbm: -63.25,
                    sinr_db: 31.5,
                },
                r#"{"t_ns":1234567,"type":"rx_resolved","node":1,"src":0,"rssi_dbm":-63.25,"sinr_db":31.5}"#,
            ),
            (
                SimEvent::CsBusy { node: NodeId(3) },
                r#"{"t_ns":1234567,"type":"cs_busy","node":3}"#,
            ),
            (
                SimEvent::CsIdle { node: NodeId(3) },
                r#"{"t_ns":1234567,"type":"cs_idle","node":3}"#,
            ),
            (
                SimEvent::Enqueue {
                    node: NodeId(0),
                    dst: NodeId(1),
                    depth: 4,
                },
                r#"{"t_ns":1234567,"type":"enqueue","node":0,"dst":1,"depth":4}"#,
            ),
            (
                SimEvent::Dequeue {
                    node: NodeId(0),
                    dst: NodeId(1),
                    depth: 3,
                },
                r#"{"t_ns":1234567,"type":"dequeue","node":0,"dst":1,"depth":3}"#,
            ),
            (
                SimEvent::BackoffDraw {
                    node: NodeId(0),
                    stage: 2,
                    slots: 17,
                },
                r#"{"t_ns":1234567,"type":"backoff_draw","node":0,"stage":2,"slots":17}"#,
            ),
            (
                SimEvent::Defer { node: NodeId(0) },
                r#"{"t_ns":1234567,"type":"defer","node":0}"#,
            ),
            (
                SimEvent::Resume { node: NodeId(0) },
                r#"{"t_ns":1234567,"type":"resume","node":0}"#,
            ),
            (
                SimEvent::AckTimeout {
                    node: NodeId(0),
                    dst: NodeId(1),
                },
                r#"{"t_ns":1234567,"type":"ack_timeout","node":0,"dst":1}"#,
            ),
            (
                SimEvent::Retry {
                    node: NodeId(0),
                    dst: NodeId(1),
                    attempt: 3,
                },
                r#"{"t_ns":1234567,"type":"retry","node":0,"dst":1,"attempt":3}"#,
            ),
            (
                SimEvent::Delivered {
                    node: NodeId(1),
                    from: NodeId(0),
                    bytes: 1000,
                },
                r#"{"t_ns":1234567,"type":"delivered","node":1,"from":0,"bytes":1000}"#,
            ),
            (
                SimEvent::FrameQueued {
                    node: NodeId(0),
                    dst: NodeId(1),
                    seq: 42,
                },
                r#"{"t_ns":1234567,"type":"frame_queued","node":0,"dst":1,"seq":42}"#,
            ),
            (
                SimEvent::FrameTx {
                    node: NodeId(0),
                    dst: NodeId(1),
                    seq: 42,
                    attempt: 2,
                },
                r#"{"t_ns":1234567,"type":"frame_tx","node":0,"dst":1,"seq":42,"attempt":2}"#,
            ),
            (
                SimEvent::FrameAcked {
                    node: NodeId(0),
                    dst: NodeId(1),
                    seq: 42,
                },
                r#"{"t_ns":1234567,"type":"frame_acked","node":0,"dst":1,"seq":42}"#,
            ),
            (
                SimEvent::FrameDropped {
                    node: NodeId(0),
                    dst: NodeId(1),
                    seq: 43,
                },
                r#"{"t_ns":1234567,"type":"frame_dropped","node":0,"dst":1,"seq":43}"#,
            ),
            (
                SimEvent::HeaderHeard {
                    node: NodeId(3),
                    src: NodeId(0),
                    dst: NodeId(1),
                },
                r#"{"t_ns":1234567,"type":"header_heard","node":3,"src":0,"dst":1}"#,
            ),
            (
                SimEvent::EtOpportunity {
                    node: NodeId(3),
                    src: NodeId(0),
                    dst: NodeId(1),
                },
                r#"{"t_ns":1234567,"type":"et_opportunity","node":3,"src":0,"dst":1}"#,
            ),
            (
                SimEvent::EtAbandon { node: NodeId(3) },
                r#"{"t_ns":1234567,"type":"et_abandon","node":3}"#,
            ),
            (
                SimEvent::ConcurrentTx {
                    node: NodeId(3),
                    src: NodeId(0),
                    dst: NodeId(1),
                },
                r#"{"t_ns":1234567,"type":"concurrent_tx","node":3,"src":0,"dst":1}"#,
            ),
            (
                SimEvent::Adapt {
                    node: NodeId(0),
                    dst: NodeId(1),
                    cw: 255,
                    payload_bytes: 700,
                },
                r#"{"t_ns":1234567,"type":"adapt","node":0,"dst":1,"cw":255,"payload_bytes":700}"#,
            ),
            (
                SimEvent::RxResolved {
                    node: NodeId(7),
                    src: NodeId(999),
                    rssi_dbm: -63.0,
                    sinr_db: 0.1,
                },
                r#"{"t_ns":1234567,"type":"rx_resolved","node":7,"src":999,"rssi_dbm":-63.0,"sinr_db":0.1}"#,
            ),
            (
                SimEvent::RxResolved {
                    node: NodeId(7),
                    src: NodeId(999),
                    rssi_dbm: f64::NAN,
                    sinr_db: f64::NEG_INFINITY,
                },
                r#"{"t_ns":1234567,"type":"rx_resolved","node":7,"src":999,"rssi_dbm":null,"sinr_db":null}"#,
            ),
            (
                SimEvent::FrameDropped {
                    node: NodeId(0),
                    dst: NodeId(1),
                    seq: u64::MAX,
                },
                r#"{"t_ns":1234567,"type":"frame_dropped","node":0,"dst":1,"seq":18446744073709551615}"#,
            ),
        ]
    }

    /// How many `SimEvent` variants there are.
    const VARIANTS: usize = 24;

    /// The index of `event`'s variant. The match is exhaustive, so a new
    /// variant does not compile until it is listed here, and then
    /// [`every_variant_has_a_pinned_line`] asks for a sample of it.
    fn variant_slot(event: &SimEvent) -> usize {
        match event {
            SimEvent::TxBegin { .. } => 0,
            SimEvent::TxEnd { .. } => 1,
            SimEvent::Capture { .. } => 2,
            SimEvent::HazardDrop { .. } => 3,
            SimEvent::RxResolved { .. } => 4,
            SimEvent::CsBusy { .. } => 5,
            SimEvent::CsIdle { .. } => 6,
            SimEvent::Enqueue { .. } => 7,
            SimEvent::Dequeue { .. } => 8,
            SimEvent::BackoffDraw { .. } => 9,
            SimEvent::Defer { .. } => 10,
            SimEvent::Resume { .. } => 11,
            SimEvent::AckTimeout { .. } => 12,
            SimEvent::Retry { .. } => 13,
            SimEvent::Delivered { .. } => 14,
            SimEvent::FrameQueued { .. } => 15,
            SimEvent::FrameTx { .. } => 16,
            SimEvent::FrameAcked { .. } => 17,
            SimEvent::FrameDropped { .. } => 18,
            SimEvent::HeaderHeard { .. } => 19,
            SimEvent::EtOpportunity { .. } => 20,
            SimEvent::EtAbandon { .. } => 21,
            SimEvent::ConcurrentTx { .. } => 22,
            SimEvent::Adapt { .. } => 23,
        }
    }

    #[test]
    fn every_variant_has_a_pinned_line() {
        let mut seen = [false; VARIANTS];
        for (e, _) in pinned() {
            seen[variant_slot(&e)] = true;
        }
        for (slot, seen) in seen.iter().enumerate() {
            assert!(seen, "variant #{slot} has no pinned sample");
        }
    }

    #[test]
    fn the_sink_writes_each_pinned_line() {
        for (e, line) in pinned() {
            let mut sink = JsonlSink::new(Vec::new());
            sink.on_event(T, &e);
            assert_eq!(String::from_utf8(sink.out).unwrap(), format!("{line}\n"));
        }
    }

    #[test]
    fn jsonl_sink_writes_parseable_lines() {
        let pinned = pinned();
        let mut sink = JsonlSink::new(Vec::new());
        for (e, _) in &pinned {
            sink.on_event(T, e);
        }
        assert_eq!(sink.written(), pinned.len() as u64);
        assert!(sink.error().is_none());
        let text = String::from_utf8(sink.out).unwrap();
        let expected: String = pinned.iter().map(|(_, line)| format!("{line}\n")).collect();
        assert_eq!(text, expected);
        for line in text.lines() {
            assert!(Json::parse(line).is_ok(), "{line}");
        }
    }

    /// A writer that takes every byte but cannot flush.
    struct FailingFlush;

    impl io::Write for FailingFlush {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Err(io::Error::other("flush failed"))
        }
    }

    #[test]
    fn a_failed_flush_is_recorded() {
        let mut sink = JsonlSink::new(FailingFlush);
        sink.on_event(T, &SimEvent::Defer { node: NodeId(0) });
        assert!(sink.error().is_none());
        sink.finish(&mut SimReport::default());
        assert_eq!(sink.written(), 1);
        assert_eq!(
            sink.error().map(io::Error::to_string).as_deref(),
            Some("flush failed")
        );
    }

    #[test]
    fn timeline_handle_outlives_the_sink() {
        let (mut sink, handle) = TimelineSink::new();
        sink.on_event(
            SimTime::from_nanos(1_500_000),
            &SimEvent::Defer { node: NodeId(2) },
        );
        drop(sink);
        assert_eq!(
            handle.events(),
            vec![(
                SimTime::from_nanos(1_500_000),
                SimEvent::Defer { node: NodeId(2) }
            )]
        );
    }
}
