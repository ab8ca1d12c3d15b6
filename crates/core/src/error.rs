//! Error types for the SOS middleware.

use sos_crypto::CertError;
use sos_net::NetError;
use sos_sim::codec::ReadError;
use std::error::Error;
use std::fmt;

/// Errors surfaced by the middleware.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SosError {
    /// A received bundle failed security validation and was discarded.
    BundleRejected(BundleRejection),
    /// A transport-level failure.
    Net(NetError),
    /// A malformed wire payload.
    Malformed,
    /// A sync request exceeds the wire format's u16 entry counts (the
    /// legacy encoder silently truncated the count here; see
    /// [`crate::sync::SyncMsg::requests`] for chunking).
    RequestTooLarge {
        /// Number of entries that was attempted.
        entries: usize,
    },
    /// The payload exceeds [`crate::message::MAX_PAYLOAD`].
    PayloadTooLarge {
        /// Size that was attempted.
        size: usize,
    },
    /// An operation referenced an unknown peer/session.
    UnknownPeer,
    /// Malformed simulation-substrate input (empty or unordered
    /// trajectory waypoints, bad speeds) — raised when ingesting
    /// external mobility/contact traces, which must surface errors
    /// rather than panic the process.
    InvalidTrajectory(sos_sim::SimError),
}

/// Why an incoming bundle was rejected (paper §IV: verify the originating
/// source and ensure data has not been modified).
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum BundleRejection {
    /// The attached originator certificate failed CA validation.
    Certificate(CertError),
    /// The certificate subject does not match the message author.
    AuthorMismatch,
    /// The author signature over the message does not verify.
    BadSignature,
    /// The bundle encoding was malformed.
    Malformed,
}

impl fmt::Display for BundleRejection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BundleRejection::Certificate(e) => write!(f, "originator certificate: {e}"),
            BundleRejection::AuthorMismatch => f.write_str("certificate subject != author"),
            BundleRejection::BadSignature => f.write_str("author signature invalid"),
            BundleRejection::Malformed => f.write_str("malformed bundle"),
        }
    }
}

impl fmt::Display for SosError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SosError::BundleRejected(r) => write!(f, "bundle rejected: {r}"),
            SosError::Net(e) => write!(f, "transport: {e}"),
            SosError::Malformed => f.write_str("malformed middleware payload"),
            SosError::RequestTooLarge { entries } => {
                write!(
                    f,
                    "sync request with {entries} entries overflows the wire format"
                )
            }
            SosError::PayloadTooLarge { size } => {
                write!(f, "payload of {size} bytes exceeds maximum")
            }
            SosError::UnknownPeer => f.write_str("unknown peer"),
            SosError::InvalidTrajectory(e) => write!(f, "invalid trajectory: {e}"),
        }
    }
}

impl Error for SosError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SosError::Net(e) => Some(e),
            SosError::InvalidTrajectory(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ReadError> for SosError {
    fn from(_: ReadError) -> SosError {
        SosError::Malformed
    }
}

impl From<ReadError> for BundleRejection {
    fn from(_: ReadError) -> BundleRejection {
        BundleRejection::Malformed
    }
}

impl From<NetError> for SosError {
    fn from(e: NetError) -> SosError {
        SosError::Net(e)
    }
}

impl From<sos_sim::SimError> for SosError {
    fn from(e: sos_sim::SimError) -> SosError {
        SosError::InvalidTrajectory(e)
    }
}
