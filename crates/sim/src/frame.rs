//! On-air frames and node identities.

use std::fmt;

use serde::{Deserialize, Serialize};

use comap_mac::arq::Ack;
use comap_mac::frames::FrameKind;
use comap_mac::time::SimDuration;
use comap_radio::rates::Rate;

/// Index of a node within a simulation (dense, assigned by
/// [`crate::SimConfig::add_node`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct NodeId(pub usize);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Unique identifier of one transmission on the medium.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TxId(pub u64);

/// Frame-kind-specific payload of an on-air frame.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FrameBody {
    /// CO-MAP discovery header announcing the data frame that follows
    /// back-to-back.
    Discovery {
        /// Airtime of the upcoming data frame.
        data_duration: SimDuration,
    },
    /// A data MPDU.
    Data {
        /// Link-layer sequence number.
        seq: u64,
        /// Payload bytes carried.
        payload_bytes: u32,
        /// `true` for DCF retransmissions of the same sequence number.
        retry: bool,
    },
    /// An acknowledgment. Plain DCF acks have `sr: None`; CO-MAP acks
    /// carry the selective-repeat state.
    Ack {
        /// Sequence number being acknowledged (DCF semantics).
        seq: u64,
        /// Selective-repeat cumulative + bitmap, when ARQ is enabled.
        sr: Option<Ack>,
    },
    /// Request-to-send (the optional RTS/CTS baseline the paper
    /// disables). `nav` covers CTS + data + ACK.
    Rts {
        /// Network-allocation-vector duration announced to overhearers.
        nav: SimDuration,
    },
    /// Clear-to-send. `nav` covers data + ACK.
    Cts {
        /// Network-allocation-vector duration announced to overhearers.
        nav: SimDuration,
    },
}

/// A frame as it exists on the air.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Frame {
    /// Transmitting node.
    pub src: NodeId,
    /// Intended receiver.
    pub dst: NodeId,
    /// Kind-specific contents.
    pub body: FrameBody,
    /// Modulation rate.
    pub rate: Rate,
}

impl Frame {
    /// The frame kind on the air.
    pub fn kind(&self) -> FrameKind {
        match self.body {
            FrameBody::Discovery { .. } => FrameKind::DiscoveryHeader,
            FrameBody::Data { .. } => FrameKind::Data,
            FrameBody::Ack { .. } => FrameKind::Ack,
            FrameBody::Rts { .. } => FrameKind::Rts,
            FrameBody::Cts { .. } => FrameKind::Cts,
        }
    }

    /// On-air MPDU size in bytes.
    pub fn on_air_bytes(&self) -> u32 {
        let payload = if let FrameBody::Data { payload_bytes, .. } = self.body {
            payload_bytes
        } else {
            0
        };
        self.kind().on_air_bytes(payload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_map_to_bodies() {
        let d = Frame {
            src: NodeId(0),
            dst: NodeId(1),
            body: FrameBody::Data {
                seq: 3,
                payload_bytes: 700,
                retry: false,
            },
            rate: Rate::Mbps11,
        };
        assert_eq!(d.kind(), FrameKind::Data);
        assert_eq!(d.on_air_bytes(), 728);

        let h = Frame {
            body: FrameBody::Discovery {
                data_duration: SimDuration::from_micros(900),
            },
            ..d
        };
        assert_eq!(h.kind(), FrameKind::DiscoveryHeader);
        assert_eq!(h.on_air_bytes(), comap_mac::frames::DISCOVERY_HEADER_BYTES);

        let a = Frame {
            body: FrameBody::Ack { seq: 3, sr: None },
            ..d
        };
        assert_eq!(a.kind(), FrameKind::Ack);
        assert_eq!(a.on_air_bytes(), comap_mac::frames::ACK_BYTES);
    }

    #[test]
    fn node_id_displays_compactly() {
        assert_eq!(NodeId(7).to_string(), "n7");
    }
}
