//! Which `SimEvent` variants a stream of events leaves out, by their
//! JSONL `type` names.
//!
//! `observability.rs` keeps the exhaustive `match` over the variants
//! (`variant_slot`) and checks every emitted event's `type_name()`
//! against [`VARIANTS`], so a new variant does not compile until it is
//! listed, and then every coverage check asks that something emits it.

/// The JSONL `type` of every `SimEvent` variant, in declaration order.
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

/// Each of [`VARIANTS`] that `types` never holds, in [`VARIANTS`]
/// order. A name that is not a variant's `type` panics.
pub fn unemitted<'a>(types: impl IntoIterator<Item = &'a str>) -> Vec<&'static str> {
    let mut seen = [false; VARIANTS.len()];
    for name in types {
        let slot = VARIANTS
            .iter()
            .position(|v| *v == name)
            .unwrap_or_else(|| panic!("{name:?} is not a SimEvent type"));
        seen[slot] = true;
    }
    VARIANTS
        .iter()
        .zip(seen)
        .filter(|&(_, seen)| !seen)
        .map(|(name, _)| *name)
        .collect()
}
