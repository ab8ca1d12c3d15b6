//! # sos-net
//!
//! A Multipeer-Connectivity-style transport substrate for the SOS
//! middleware, in sans-IO style: pure state machines and codecs that a
//! driver (the discrete-event simulator, or conceivably a real radio)
//! moves bytes between.
//!
//! The paper's ad hoc manager wraps Apple's Multipeer Connectivity (MPC),
//! which provides peer discovery, invitations, sessions and reliable byte
//! delivery over Bluetooth / peer-to-peer WiFi / infrastructure WiFi.
//! Apple does not disclose MPC internals, and SOS deliberately layers its
//! *own* security on top (§IV). This crate reproduces that API surface:
//!
//! * [`peer`] — peer identifiers
//! * [`advertisement`] — the plain-text `UserID → MessageNumber`
//!   dictionary devices broadcast while roaming (§V-A)
//! * [`frame`] — the wire codec for invitations, handshakes and data
//! * [`handshake`] — certificate exchange + X25519 key agreement +
//!   ChaCha20-Poly1305 session encryption (Figs. 2b and 3), and the
//!   ratcheted per-pair ticket that resumes it at later meetings
//! * [`session`] — the connection state machine the ad hoc manager runs
//!   per peer
//! * [`wire`] — length-prefixed stream framing for real byte transports
//!   (the `sos-node` TCP loopback daemon)
//! * [`Air`] — the one medium every harness moves frames through: each
//!   open contact's bearer frozen at its up-distance, latency and loss
//!   per frame from each directed link's own stream, per-link order, and
//!   the instant air whose rounds are the lockstep mesh's
//!   ([`Medium`] picks one)

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod advertisement;
mod air;
pub mod error;
pub mod frame;
pub mod handshake;
pub mod peer;
pub mod session;
pub mod wire;

pub use advertisement::Advertisement;
pub use air::{Air, Medium};
pub use error::NetError;
pub use frame::{DisconnectReason, Frame, SYNC_BATCH_BUDGET};
pub use handshake::{
    HandshakeInit, HandshakeResponse, Initiator, Responder, SessionCrypto, Ticket,
};
pub use peer::PeerId;
pub use session::{SessionEndpoint, SessionState};
pub use wire::{encode_wire, WireReader, MAX_WIRE_FRAME};

/// What it costs to move one frame over a point-to-point link; the
/// [`Air`] charges it per frame.
mod link {
    use sos_sim::{radio::RadioTech, SimDuration};

    /// One-way delay of a `bytes`-byte frame on `tech`: the bearer's
    /// latency plus serialization time.
    pub(crate) fn delay(tech: RadioTech, bytes: usize) -> SimDuration {
        let tx_ms = (bytes as f64 / tech.bandwidth_bps() * 1000.0).ceil() as u64;
        SimDuration::from_millis(tech.latency_ms() + tx_ms)
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn delay_scales_with_size() {
            let small = delay(RadioTech::Bluetooth, 100);
            let large = delay(RadioTech::Bluetooth, 1_000_000);
            assert!(large > small);
            // 1 MB over ~1 Mbit/s should take ~8 s.
            assert!(large >= SimDuration::from_secs(7));
            assert!(large <= SimDuration::from_secs(10));
        }

        #[test]
        fn wifi_is_faster_than_bluetooth() {
            let bt = delay(RadioTech::Bluetooth, 100_000);
            let wifi = delay(RadioTech::PeerToPeerWifi, 100_000);
            assert!(wifi < bt);
        }
    }
}
