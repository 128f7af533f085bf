//! Frame kinds and on-air sizes.
//!
//! Sizes follow the 802.11 MPDU format: a 24-byte MAC header plus 4-byte
//! FCS around the payload, and a 14-byte ACK control frame. CO-MAP adds a
//! small *discovery header* frame transmitted right before each data frame
//! (paper Section V, "Implementation of header"): a self-contained packet
//! carrying the source and destination addresses plus its own FCS, so
//! neighbors learn about an ongoing transmission before the payload starts.

use serde::{Deserialize, Serialize};

/// MAC header (24 B) + FCS (4 B) wrapped around every data payload.
pub const DATA_HEADER_BYTES: u32 = 28;

/// An 802.11 ACK control frame (14 B).
pub const ACK_BYTES: u32 = 14;

/// CO-MAP's discovery header packet: frame control + duration + source +
/// destination + sequence + FCS = 2+2+6+6+2+4 bytes.
pub const DISCOVERY_HEADER_BYTES: u32 = 22;

/// An RTS control frame (20 B) — implemented as an optional baseline; the
/// paper's experiments disable RTS/CTS.
pub const RTS_BYTES: u32 = 20;

/// A CTS control frame (14 B).
pub const CTS_BYTES: u32 = 14;

/// The role of a frame on the air.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FrameKind {
    /// CO-MAP's discovery header announcing an imminent data frame.
    DiscoveryHeader,
    /// A data MPDU carrying payload bytes.
    Data,
    /// A (possibly selective-repeat) acknowledgment.
    Ack,
    /// Request-to-send (optional RTS/CTS baseline).
    Rts,
    /// Clear-to-send (optional RTS/CTS baseline).
    Cts,
}

impl FrameKind {
    /// On-air MPDU size in bytes for a frame of this kind carrying
    /// `payload` payload bytes (payload is only meaningful for
    /// [`FrameKind::Data`]).
    pub fn on_air_bytes(self, payload: u32) -> u32 {
        match self {
            FrameKind::DiscoveryHeader => DISCOVERY_HEADER_BYTES,
            FrameKind::Data => DATA_HEADER_BYTES + payload,
            FrameKind::Ack => ACK_BYTES,
            FrameKind::Rts => RTS_BYTES,
            FrameKind::Cts => CTS_BYTES,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn data_frames_add_mac_overhead() {
        assert_eq!(FrameKind::Data.on_air_bytes(1500), 1528);
        assert_eq!(FrameKind::Data.on_air_bytes(0), DATA_HEADER_BYTES);
    }

    #[test]
    fn control_frames_have_fixed_size() {
        assert_eq!(FrameKind::Ack.on_air_bytes(999), ACK_BYTES);
        assert_eq!(
            FrameKind::DiscoveryHeader.on_air_bytes(0),
            DISCOVERY_HEADER_BYTES
        );
        assert_eq!(FrameKind::Rts.on_air_bytes(0), RTS_BYTES);
        assert_eq!(FrameKind::Cts.on_air_bytes(0), CTS_BYTES);
    }
}
