//! Error types for the transport substrate.

use sos_crypto::{CertError, CryptoError};
use sos_sim::codec::ReadError;
use std::error::Error;
use std::fmt;

/// Errors surfaced by the network state machines.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum NetError {
    /// A peer certificate failed validation during the handshake.
    Certificate(CertError),
    /// A cryptographic operation failed (bad tag, bad key, ...).
    Crypto(CryptoError),
    /// The peer's handshake signature did not verify.
    BadHandshakeSignature,
    /// A resumed handshake's proof of the ticket secret did not verify.
    BadResumeProof,
    /// A frame could not be decoded.
    BadFrame,
    /// A data frame arrived out of order (sequence gap — the simulated
    /// link dropped a frame; the session must be torn down).
    OutOfOrder {
        /// The sequence number we expected next.
        expected: u64,
        /// The sequence number that arrived.
        got: u64,
    },
    /// An operation required an established session.
    NotConnected,
    /// A handshake message arrived in the wrong state.
    UnexpectedHandshake,
    /// A length prefix — of the stream framing, or of a field of a
    /// control message that travels in it — exceeded
    /// [`MAX_WIRE_FRAME`](crate::wire::MAX_WIRE_FRAME); rejected before
    /// any buffer is allocated for it.
    FrameTooLarge {
        /// The length the prefix claimed.
        len: u64,
    },
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Certificate(e) => write!(f, "certificate rejected: {e}"),
            NetError::Crypto(e) => write!(f, "crypto failure: {e}"),
            NetError::BadHandshakeSignature => f.write_str("handshake signature invalid"),
            NetError::BadResumeProof => f.write_str("resumption proof invalid"),
            NetError::BadFrame => f.write_str("malformed frame"),
            NetError::OutOfOrder { expected, got } => {
                write!(f, "sequence gap: expected {expected}, got {got}")
            }
            NetError::NotConnected => f.write_str("session not connected"),
            NetError::UnexpectedHandshake => f.write_str("handshake message in wrong state"),
            NetError::FrameTooLarge { len } => {
                write!(f, "wire frame length {len} exceeds the framing cap")
            }
        }
    }
}

impl Error for NetError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            NetError::Certificate(e) => Some(e),
            NetError::Crypto(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ReadError> for NetError {
    /// A length prefix above its cap keeps its name; every other way a
    /// read fails is a frame that does not decode.
    fn from(e: ReadError) -> NetError {
        match e {
            ReadError::TooLong { len } => NetError::FrameTooLarge { len },
            _ => NetError::BadFrame,
        }
    }
}

impl From<CertError> for NetError {
    fn from(e: CertError) -> NetError {
        NetError::Certificate(e)
    }
}

impl From<CryptoError> for NetError {
    fn from(e: CryptoError) -> NetError {
        NetError::Crypto(e)
    }
}
