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
//! * [`link`] — per-bearer latency/bandwidth/loss models
//! * [`session`] — the connection state machine the ad hoc manager runs
//!   per peer
//! * [`wire`] — length-prefixed stream framing for real byte transports
//!   (the `sos-node` TCP loopback daemon)

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod advertisement;
pub mod error;
pub mod frame;
pub mod handshake;
pub mod link;
pub mod peer;
pub mod session;
pub mod wire;

pub use advertisement::Advertisement;
pub use error::NetError;
pub use frame::{DisconnectReason, Frame, SYNC_BATCH_BUDGET};
pub use handshake::{
    HandshakeInit, HandshakeResponse, Initiator, Responder, SessionCrypto, Ticket,
};
pub use link::LinkModel;
pub use peer::PeerId;
pub use session::{SessionEndpoint, SessionState};
pub use wire::{encode_wire, WireReader, MAX_WIRE_FRAME};
