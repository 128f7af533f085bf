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
//! fanning each event out to whatever [`Observer`]s are attached to the
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
//! Three sinks ship with the crate: [`JsonlSink`] (one JSON object per
//! event, for offline analysis), [`TimelineSink`] (human-readable
//! timeline, replacing the old ad-hoc `TraceLog`), and
//! [`MetricsSink`](crate::metrics::MetricsSink) (per-node time series
//! and histograms surfaced through the report).

use std::fmt;
use std::fs::File;
use std::io;
use std::path::Path;
use std::sync::{Arc, Mutex, MutexGuard};

use comap_mac::frames::FrameKind;
use comap_mac::time::SimTime;
use comap_radio::rates::Rate;

use crate::frame::NodeId;
use crate::json::Json;
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

fn kind_from_label(label: &str) -> Option<FrameKind> {
    Some(match label {
        "HDR" => FrameKind::DiscoveryHeader,
        "DATA" => FrameKind::Data,
        "ACK" => FrameKind::Ack,
        "RTS" => FrameKind::Rts,
        "CTS" => FrameKind::Cts,
        _ => return None,
    })
}

/// Compact label of a modulation rate ("5.5", "11", ...).
pub fn rate_label(rate: Rate) -> &'static str {
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

fn rate_from_label(label: &str) -> Option<Rate> {
    Some(match label {
        "1" => Rate::Mbps1,
        "2" => Rate::Mbps2,
        "5.5" => Rate::Mbps5_5,
        "11" => Rate::Mbps11,
        "6" => Rate::Mbps6,
        "9" => Rate::Mbps9,
        "12" => Rate::Mbps12,
        "18" => Rate::Mbps18,
        "24" => Rate::Mbps24,
        "36" => Rate::Mbps36,
        "48" => Rate::Mbps48,
        "54" => Rate::Mbps54,
        _ => return None,
    })
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

    /// Serializes the event as a JSON object (`type` plus fields).
    pub fn to_json(&self) -> Json {
        let node = |n: NodeId| Json::Uint(n.0 as u64);
        let mut fields: Vec<(&str, Json)> = vec![("type", Json::str(self.type_name()))];
        match *self {
            SimEvent::TxBegin {
                src,
                dst,
                kind,
                rate,
            } => {
                fields.push(("src", node(src)));
                fields.push(("dst", node(dst)));
                fields.push(("kind", Json::str(kind_label(kind))));
                fields.push(("rate", Json::str(rate_label(rate))));
            }
            SimEvent::TxEnd { src, kind } => {
                fields.push(("src", node(src)));
                fields.push(("kind", Json::str(kind_label(kind))));
            }
            SimEvent::Capture { node: n, src } | SimEvent::HazardDrop { node: n, src } => {
                fields.push(("node", node(n)));
                fields.push(("src", node(src)));
            }
            SimEvent::RxResolved {
                node: n,
                src,
                rssi_dbm,
                sinr_db,
            } => {
                fields.push(("node", node(n)));
                fields.push(("src", node(src)));
                fields.push(("rssi_dbm", Json::Num(rssi_dbm)));
                fields.push(("sinr_db", Json::Num(sinr_db)));
            }
            SimEvent::CsBusy { node: n }
            | SimEvent::CsIdle { node: n }
            | SimEvent::Defer { node: n }
            | SimEvent::Resume { node: n }
            | SimEvent::EtAbandon { node: n } => {
                fields.push(("node", node(n)));
            }
            SimEvent::Enqueue {
                node: n,
                dst,
                depth,
            }
            | SimEvent::Dequeue {
                node: n,
                dst,
                depth,
            } => {
                fields.push(("node", node(n)));
                fields.push(("dst", node(dst)));
                fields.push(("depth", Json::Uint(u64::from(depth))));
            }
            SimEvent::BackoffDraw {
                node: n,
                stage,
                slots,
            } => {
                fields.push(("node", node(n)));
                fields.push(("stage", Json::Uint(u64::from(stage))));
                fields.push(("slots", Json::Uint(u64::from(slots))));
            }
            SimEvent::AckTimeout { node: n, dst } => {
                fields.push(("node", node(n)));
                fields.push(("dst", node(dst)));
            }
            SimEvent::Retry {
                node: n,
                dst,
                attempt,
            } => {
                fields.push(("node", node(n)));
                fields.push(("dst", node(dst)));
                fields.push(("attempt", Json::Uint(u64::from(attempt))));
            }
            SimEvent::Delivered {
                node: n,
                from,
                bytes,
            } => {
                fields.push(("node", node(n)));
                fields.push(("from", node(from)));
                fields.push(("bytes", Json::Uint(u64::from(bytes))));
            }
            SimEvent::FrameQueued { node: n, dst, seq }
            | SimEvent::FrameAcked { node: n, dst, seq }
            | SimEvent::FrameDropped { node: n, dst, seq } => {
                fields.push(("node", node(n)));
                fields.push(("dst", node(dst)));
                fields.push(("seq", Json::Uint(seq)));
            }
            SimEvent::FrameTx {
                node: n,
                dst,
                seq,
                attempt,
            } => {
                fields.push(("node", node(n)));
                fields.push(("dst", node(dst)));
                fields.push(("seq", Json::Uint(seq)));
                fields.push(("attempt", Json::Uint(u64::from(attempt))));
            }
            SimEvent::HeaderHeard { node: n, src, dst }
            | SimEvent::EtOpportunity { node: n, src, dst }
            | SimEvent::ConcurrentTx { node: n, src, dst } => {
                fields.push(("node", node(n)));
                fields.push(("src", node(src)));
                fields.push(("dst", node(dst)));
            }
            SimEvent::Adapt {
                node: n,
                dst,
                cw,
                payload_bytes,
            } => {
                fields.push(("node", node(n)));
                fields.push(("dst", node(dst)));
                fields.push(("cw", Json::Uint(u64::from(cw))));
                fields.push(("payload_bytes", Json::Uint(u64::from(payload_bytes))));
            }
        }
        Json::obj(fields)
    }

    /// Parses an event from its [`SimEvent::to_json`] object form.
    ///
    /// Returns `None` when the `type` is unknown or a field is missing —
    /// the schema guard the round-trip test leans on.
    pub fn from_json(value: &Json) -> Option<SimEvent> {
        let node =
            |key: &str| -> Option<NodeId> { value.get(key)?.as_u64().map(|u| NodeId(u as usize)) };
        let uint = |key: &str| -> Option<u32> {
            value.get(key)?.as_u64().and_then(|u| u32::try_from(u).ok())
        };
        let num = |key: &str| -> Option<f64> { value.get(key)?.as_f64() };
        Some(match value.get("type")?.as_str()? {
            "tx_begin" => SimEvent::TxBegin {
                src: node("src")?,
                dst: node("dst")?,
                kind: kind_from_label(value.get("kind")?.as_str()?)?,
                rate: rate_from_label(value.get("rate")?.as_str()?)?,
            },
            "tx_end" => SimEvent::TxEnd {
                src: node("src")?,
                kind: kind_from_label(value.get("kind")?.as_str()?)?,
            },
            "capture" => SimEvent::Capture {
                node: node("node")?,
                src: node("src")?,
            },
            "hazard_drop" => SimEvent::HazardDrop {
                node: node("node")?,
                src: node("src")?,
            },
            "rx_resolved" => SimEvent::RxResolved {
                node: node("node")?,
                src: node("src")?,
                rssi_dbm: num("rssi_dbm")?,
                sinr_db: num("sinr_db")?,
            },
            "cs_busy" => SimEvent::CsBusy {
                node: node("node")?,
            },
            "cs_idle" => SimEvent::CsIdle {
                node: node("node")?,
            },
            "enqueue" => SimEvent::Enqueue {
                node: node("node")?,
                dst: node("dst")?,
                depth: uint("depth")?,
            },
            "dequeue" => SimEvent::Dequeue {
                node: node("node")?,
                dst: node("dst")?,
                depth: uint("depth")?,
            },
            "backoff_draw" => SimEvent::BackoffDraw {
                node: node("node")?,
                stage: uint("stage")?,
                slots: uint("slots")?,
            },
            "defer" => SimEvent::Defer {
                node: node("node")?,
            },
            "resume" => SimEvent::Resume {
                node: node("node")?,
            },
            "ack_timeout" => SimEvent::AckTimeout {
                node: node("node")?,
                dst: node("dst")?,
            },
            "retry" => SimEvent::Retry {
                node: node("node")?,
                dst: node("dst")?,
                attempt: uint("attempt")?,
            },
            "delivered" => SimEvent::Delivered {
                node: node("node")?,
                from: node("from")?,
                bytes: uint("bytes")?,
            },
            "frame_queued" => SimEvent::FrameQueued {
                node: node("node")?,
                dst: node("dst")?,
                seq: value.get("seq")?.as_u64()?,
            },
            "frame_tx" => SimEvent::FrameTx {
                node: node("node")?,
                dst: node("dst")?,
                seq: value.get("seq")?.as_u64()?,
                attempt: uint("attempt")?,
            },
            "frame_acked" => SimEvent::FrameAcked {
                node: node("node")?,
                dst: node("dst")?,
                seq: value.get("seq")?.as_u64()?,
            },
            "frame_dropped" => SimEvent::FrameDropped {
                node: node("node")?,
                dst: node("dst")?,
                seq: value.get("seq")?.as_u64()?,
            },
            "header_heard" => SimEvent::HeaderHeard {
                node: node("node")?,
                src: node("src")?,
                dst: node("dst")?,
            },
            "et_opportunity" => SimEvent::EtOpportunity {
                node: node("node")?,
                src: node("src")?,
                dst: node("dst")?,
            },
            "et_abandon" => SimEvent::EtAbandon {
                node: node("node")?,
            },
            "concurrent_tx" => SimEvent::ConcurrentTx {
                node: node("node")?,
                src: node("src")?,
                dst: node("dst")?,
            },
            "adapt" => SimEvent::Adapt {
                node: node("node")?,
                dst: node("dst")?,
                cw: uint("cw")?,
                payload_bytes: uint("payload_bytes")?,
            },
            _ => return None,
        })
    }
}

impl fmt::Display for SimEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            SimEvent::TxBegin {
                src,
                dst,
                kind,
                rate,
            } => write!(
                f,
                "{src} ── {} ──▶ {dst} @ {} Mbps",
                kind_label(kind),
                rate_label(rate)
            ),
            SimEvent::TxEnd { src, kind } => write!(f, "{src} {} tx end", kind_label(kind)),
            SimEvent::Capture { node, src } => {
                write!(f, "{node} captures onto {src}'s stronger frame")
            }
            SimEvent::HazardDrop { node, src } => {
                write!(f, "{node} loses {src}'s frame to interference")
            }
            SimEvent::RxResolved {
                node,
                src,
                rssi_dbm,
                sinr_db,
            } => write!(
                f,
                "{node} decodes {src}'s frame ({rssi_dbm:.1} dBm, SINR {sinr_db:.1} dB)"
            ),
            SimEvent::CsBusy { node } => write!(f, "{node} channel busy"),
            SimEvent::CsIdle { node } => write!(f, "{node} channel idle"),
            SimEvent::Enqueue { node, dst, depth } => {
                write!(f, "{node} enqueues toward {dst} (depth {depth})")
            }
            SimEvent::Dequeue { node, dst, depth } => {
                write!(f, "{node} dequeues toward {dst} (depth {depth})")
            }
            SimEvent::BackoffDraw { node, stage, slots } => {
                write!(f, "{node} draws backoff of {slots} slots (stage {stage})")
            }
            SimEvent::Defer { node } => write!(f, "{node} defers (channel busy)"),
            SimEvent::Resume { node } => write!(f, "{node} resumes backoff"),
            SimEvent::AckTimeout { node, dst } => write!(f, "{node} ACK timeout toward {dst}"),
            SimEvent::Retry { node, dst, attempt } => {
                write!(f, "{node} retry #{attempt} toward {dst}")
            }
            SimEvent::Delivered { node, from, bytes } => {
                write!(f, "{node} delivered {bytes} B from {from}")
            }
            SimEvent::FrameQueued { node, dst, seq } => {
                write!(f, "{node} queues frame #{seq} toward {dst}")
            }
            SimEvent::FrameTx {
                node,
                dst,
                seq,
                attempt,
            } => write!(
                f,
                "{node} sends frame #{seq} toward {dst} (attempt {attempt})"
            ),
            SimEvent::FrameAcked { node, dst, seq } => {
                write!(f, "{node} frame #{seq} toward {dst} ACKed")
            }
            SimEvent::FrameDropped { node, dst, seq } => {
                write!(f, "{node} frame #{seq} toward {dst} dropped (retry limit)")
            }
            SimEvent::HeaderHeard { node, src, dst } => {
                write!(f, "{node} hears header announcing {src} → {dst}")
            }
            SimEvent::EtOpportunity { node, src, dst } => write!(
                f,
                "{node} ENTERS exposed-terminal opportunity beside {src} → {dst}"
            ),
            SimEvent::EtAbandon { node } => {
                write!(f, "{node} abandons opportunity (RSSI watchdog)")
            }
            SimEvent::ConcurrentTx { node, src, dst } => {
                write!(f, "{node} transmits concurrently beside {src} → {dst}")
            }
            SimEvent::Adapt {
                node,
                dst,
                cw,
                payload_bytes,
            } => write!(
                f,
                "{node} adapts toward {dst}: CW {cw}, payload {payload_bytes} B"
            ),
        }
    }
}

/// A sink for instrumentation events.
///
/// The contract: `on_event` is called for every event in simulation
/// order; `finish` is called once, after the run, with the final report
/// (a sink may fold aggregates into it — e.g. the metrics section). A
/// sink must never influence the simulation; it has no channel back.
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
/// I/O errors are recorded, writing stops, and the simulation continues
/// — observability must never abort a run.
#[derive(Debug)]
pub struct JsonlSink<W: io::Write> {
    out: W,
    written: u64,
    error: Option<io::Error>,
}

impl JsonlSink<io::BufWriter<File>> {
    /// Creates a sink writing to a buffered file at `path`.
    ///
    /// # Errors
    ///
    /// Returns the error of [`File::create`].
    pub fn create(path: impl AsRef<Path>) -> io::Result<Self> {
        Ok(JsonlSink::new(io::BufWriter::new(File::create(path)?)))
    }
}

impl<W: io::Write> JsonlSink<W> {
    /// Wraps an arbitrary writer.
    pub fn new(out: W) -> Self {
        JsonlSink {
            out,
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
        let mut fields = vec![("t_ns".to_string(), Json::Uint(now.as_nanos()))];
        if let Json::Obj(event_fields) = event.to_json() {
            fields.extend(event_fields);
        }
        let line = Json::Obj(fields).to_string_compact();
        if let Err(e) = writeln!(self.out, "{line}") {
            self.error = Some(e);
        } else {
            self.written += 1;
        }
    }

    fn finish(&mut self, _report: &mut SimReport) {
        let _ = self.out.flush();
    }
}

/// Parses one JSONL line back into `(time, event)` — the inverse of
/// [`JsonlSink`]'s writer, used by round-trip tests and offline tools.
pub fn parse_jsonl_line(line: &str) -> Option<(SimTime, SimEvent)> {
    let value = Json::parse(line).ok()?;
    let t = SimTime::from_nanos(value.get("t_ns")?.as_u64()?);
    Some((t, SimEvent::from_json(&value)?))
}

// `Arc<Mutex<..>>` rather than `Rc<RefCell<..>>`: the sink must stay
// `Send` so a sharded engine can hand observers to worker shards, and
// the workspace `clippy.toml` bans the single-thread pair.
type SharedEvents = Arc<Mutex<Vec<(SimTime, SimEvent)>>>;

/// Locks a shared-event buffer, recovering the data from a poisoned
/// mutex (a panicking observer must not wedge the read side).
fn lock_events(events: &SharedEvents) -> MutexGuard<'_, Vec<(SimTime, SimEvent)>> {
    events
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Records events in memory for human-readable timelines.
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

    /// Renders the timeline, one `"<ms>  <event>"` line per event using
    /// each variant's [`Display`](fmt::Display) form.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (t, e) in lock_events(&self.events).iter() {
            let _ = writeln!(out, "{:>10.3} ms  {e}", t.as_secs_f64() * 1e3);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples() -> Vec<SimEvent> {
        vec![
            SimEvent::TxBegin {
                src: NodeId(0),
                dst: NodeId(1),
                kind: FrameKind::Data,
                rate: Rate::Mbps5_5,
            },
            SimEvent::TxEnd {
                src: NodeId(0),
                kind: FrameKind::Ack,
            },
            SimEvent::Capture {
                node: NodeId(1),
                src: NodeId(2),
            },
            SimEvent::HazardDrop {
                node: NodeId(1),
                src: NodeId(2),
            },
            SimEvent::RxResolved {
                node: NodeId(1),
                src: NodeId(0),
                rssi_dbm: -63.25,
                sinr_db: 31.5,
            },
            SimEvent::CsBusy { node: NodeId(3) },
            SimEvent::CsIdle { node: NodeId(3) },
            SimEvent::Enqueue {
                node: NodeId(0),
                dst: NodeId(1),
                depth: 4,
            },
            SimEvent::Dequeue {
                node: NodeId(0),
                dst: NodeId(1),
                depth: 3,
            },
            SimEvent::BackoffDraw {
                node: NodeId(0),
                stage: 2,
                slots: 17,
            },
            SimEvent::Defer { node: NodeId(0) },
            SimEvent::Resume { node: NodeId(0) },
            SimEvent::AckTimeout {
                node: NodeId(0),
                dst: NodeId(1),
            },
            SimEvent::Retry {
                node: NodeId(0),
                dst: NodeId(1),
                attempt: 3,
            },
            SimEvent::Delivered {
                node: NodeId(1),
                from: NodeId(0),
                bytes: 1000,
            },
            SimEvent::FrameQueued {
                node: NodeId(0),
                dst: NodeId(1),
                seq: 42,
            },
            SimEvent::FrameTx {
                node: NodeId(0),
                dst: NodeId(1),
                seq: 42,
                attempt: 2,
            },
            SimEvent::FrameAcked {
                node: NodeId(0),
                dst: NodeId(1),
                seq: 42,
            },
            SimEvent::FrameDropped {
                node: NodeId(0),
                dst: NodeId(1),
                seq: 43,
            },
            SimEvent::HeaderHeard {
                node: NodeId(3),
                src: NodeId(0),
                dst: NodeId(1),
            },
            SimEvent::EtOpportunity {
                node: NodeId(3),
                src: NodeId(0),
                dst: NodeId(1),
            },
            SimEvent::EtAbandon { node: NodeId(3) },
            SimEvent::ConcurrentTx {
                node: NodeId(3),
                src: NodeId(0),
                dst: NodeId(1),
            },
            SimEvent::Adapt {
                node: NodeId(0),
                dst: NodeId(1),
                cw: 255,
                payload_bytes: 700,
            },
        ]
    }

    #[test]
    fn every_variant_round_trips_through_json() {
        for e in samples() {
            let back = SimEvent::from_json(&e.to_json());
            assert_eq!(back, Some(e), "round trip of {}", e.type_name());
        }
    }

    #[test]
    fn every_variant_has_a_readable_display() {
        for e in samples() {
            let s = e.to_string();
            assert!(!s.contains('{'), "no debug formatting leaks: {s}");
            assert!(s.starts_with('n'), "starts with a node name: {s}");
        }
    }

    #[test]
    fn jsonl_sink_writes_parseable_lines() {
        let mut sink = JsonlSink::new(Vec::new());
        for (i, e) in samples().into_iter().enumerate() {
            sink.on_event(SimTime::from_nanos(i as u64 * 10), &e);
        }
        assert_eq!(sink.written(), 24);
        assert!(sink.error().is_none());
        let text = String::from_utf8(sink.out.clone()).unwrap();
        let parsed: Vec<_> = text
            .lines()
            .map(|l| parse_jsonl_line(l).expect("line parses"))
            .collect();
        assert_eq!(parsed.len(), 24);
        assert_eq!(parsed[0].0, SimTime::ZERO);
        assert_eq!(parsed[5].0, SimTime::from_nanos(50));
        assert_eq!(parsed, {
            let evs = samples();
            evs.into_iter()
                .enumerate()
                .map(|(i, e)| (SimTime::from_nanos(i as u64 * 10), e))
                .collect::<Vec<_>>()
        });
    }

    #[test]
    fn timeline_handle_outlives_the_sink() {
        let (mut sink, handle) = TimelineSink::new();
        sink.on_event(
            SimTime::from_nanos(1_500_000),
            &SimEvent::Defer { node: NodeId(2) },
        );
        drop(sink);
        let events = handle.events();
        assert_eq!(events.len(), 1);
        assert!(handle.render().contains("n2 defers"));
        assert!(handle.render().contains("1.500 ms"));
    }

    #[test]
    fn unknown_type_is_rejected() {
        let v = Json::parse("{\"type\":\"warp_drive\",\"node\":0}").unwrap();
        assert_eq!(SimEvent::from_json(&v), None);
        let truncated = Json::parse("{\"type\":\"defer\"}").unwrap();
        assert_eq!(SimEvent::from_json(&truncated), None);
    }
}
