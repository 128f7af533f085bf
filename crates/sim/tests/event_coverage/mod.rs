//! Which `SimEvent` variants a stream of events leaves out.
//!
//! [`variant_slot`] lists the variants in an exhaustive `match`, so a
//! new variant does not compile until it is listed here, and then every
//! coverage check asks that something emits it.

use comap_sim::SimEvent;

/// The JSONL `type` of every `SimEvent` variant, indexed by
/// [`variant_slot`].
pub const VARIANTS: [&str; 24] = [
    "tx_begin",
    "tx_end",
    "capture",
    "hazard_drop",
    "rx_resolved",
    "cs_busy",
    "cs_idle",
    "enqueue",
    "dequeue",
    "backoff_draw",
    "defer",
    "resume",
    "ack_timeout",
    "retry",
    "delivered",
    "frame_queued",
    "frame_tx",
    "frame_acked",
    "frame_dropped",
    "header_heard",
    "et_opportunity",
    "et_abandon",
    "concurrent_tx",
    "adapt",
];

/// The index of `event`'s variant in [`VARIANTS`]. The match is
/// exhaustive, so a new variant does not compile until it is listed.
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

/// The JSONL `type` of each variant that `events` never holds, in
/// [`VARIANTS`] order.
pub fn unemitted<'a>(events: impl IntoIterator<Item = &'a SimEvent>) -> Vec<&'static str> {
    let mut seen = [false; VARIANTS.len()];
    for event in events {
        let slot = variant_slot(event);
        assert_eq!(
            VARIANTS[slot],
            event.type_name(),
            "VARIANTS is out of order"
        );
        seen[slot] = true;
    }
    VARIANTS
        .iter()
        .zip(seen)
        .filter(|&(_, seen)| !seen)
        .map(|(name, _)| *name)
        .collect()
}
