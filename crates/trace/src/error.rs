//! Trace ingestion errors.
//!
//! Everything that reads external data — trace files, recorded event
//! streams — returns [`TraceError`]; malformed input must never panic
//! the process (the same contract as [`sos_sim::SimError`], which this
//! type wraps for trajectory-level faults).

use sos_sim::codec::ReadError;
use sos_sim::SimError;
use std::error::Error;
use std::fmt;

/// Why a contact trace could not be constructed or decoded.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum TraceError {
    /// An event references a node index at or beyond the node count.
    NodeOutOfRange {
        /// Index of the offending event.
        index: usize,
        /// The node index that was out of range.
        node: usize,
        /// The trace's node count.
        nodes: usize,
    },
    /// An event pair is not normalized (`a < b` is required).
    UnorderedPair {
        /// Index of the offending event.
        index: usize,
    },
    /// Event timestamps must be non-decreasing.
    UnorderedEvents {
        /// Index of the first event that moves backwards in time.
        index: usize,
    },
    /// Per pair, phases must strictly alternate starting with `Up`.
    PhaseViolation {
        /// Index of the offending event.
        index: usize,
    },
    /// A distance is negative, NaN, or infinite.
    BadDistance {
        /// Index of the offending event.
        index: usize,
    },
    /// A value a trace's packed events cannot hold: a node count above
    /// `u32::MAX` (which bounds every node index too), or a time at or
    /// above 2^63 ms (the top bit of an event's time carries its phase).
    Unrepresentable {
        /// Index of the offending event; `None` for the node count.
        index: Option<usize>,
        /// Which value: `"node count"`, `"node"` or `"time"`.
        what: &'static str,
        /// The value as given.
        value: u64,
    },
    /// A text line could not be parsed.
    Parse {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        reason: String,
    },
    /// A syntactically valid file whose event timeline fails
    /// validation, mapped back to the offending source line.
    ///
    /// Text files interleave comments and blank lines with events, so
    /// event indices and line numbers diverge; the text codec wraps
    /// timeline-validation failures in this variant so the user is
    /// pointed at the actual file line. The wrapped error keeps the
    /// event index.
    InvalidAtLine {
        /// 1-based source line of the offending event.
        line: usize,
        /// The underlying validation failure (indexed by event).
        error: Box<TraceError>,
    },
    /// A node-label set is malformed (wrong arity, duplicates,
    /// whitespace, or empty labels).
    InvalidLabels {
        /// What was wrong with the labels.
        reason: String,
    },
    /// A gzip-framed input could not be decompressed.
    Gzip {
        /// What was wrong with the gzip stream.
        reason: String,
    },
    /// The binary buffer does not start with the expected magic.
    BadMagic,
    /// The binary buffer ended mid-record.
    Truncated,
    /// A varint exceeded 64 bits, or was padded with a zero final byte
    /// (only the minimal form decodes).
    VarintOverflow,
    /// The binary header sets flag bits this format version does not
    /// define: a newer writer, or not a trace at all.
    UnknownFlags {
        /// The flag byte as read.
        flags: u8,
    },
    /// The binary buffer goes on after its last event: a second trace
    /// appended to the first, or a wrong event count.
    TrailingBytes {
        /// Bytes left unread.
        extra: usize,
    },
    /// A trajectory embedded in the ingested data was malformed.
    Trajectory(SimError),
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::NodeOutOfRange { index, node, nodes } => {
                write!(f, "event {index}: node {node} >= node count {nodes}")
            }
            TraceError::UnorderedPair { index } => {
                write!(f, "event {index}: pair must satisfy a < b")
            }
            TraceError::UnorderedEvents { index } => {
                write!(f, "event {index} moves backwards in time")
            }
            TraceError::PhaseViolation { index } => {
                write!(f, "event {index}: phases must alternate up/down per pair")
            }
            TraceError::BadDistance { index } => {
                write!(f, "event {index}: distance must be finite and non-negative")
            }
            TraceError::Unrepresentable { index, what, value } => {
                let at = index.map(|i| format!("event {i}: ")).unwrap_or_default();
                write!(f, "{at}{what} {value} does not fit in a trace")
            }
            TraceError::Parse { line, reason } => write!(f, "line {line}: {reason}"),
            TraceError::InvalidAtLine { line, error } => write!(f, "line {line}: {error}"),
            TraceError::InvalidLabels { reason } => write!(f, "bad node labels: {reason}"),
            TraceError::Gzip { reason } => write!(f, "gzip: {reason}"),
            TraceError::BadMagic => f.write_str("not a sos-trace binary (bad magic)"),
            TraceError::Truncated => f.write_str("binary trace truncated mid-record"),
            TraceError::VarintOverflow => f.write_str("varint exceeds 64 bits"),
            TraceError::UnknownFlags { flags } => {
                write!(
                    f,
                    "binary trace header has unknown flag bits ({flags:#010b})"
                )
            }
            TraceError::TrailingBytes { extra } => {
                write!(f, "{extra} bytes follow the last event of the binary trace")
            }
            TraceError::Trajectory(e) => write!(f, "embedded trajectory: {e}"),
        }
    }
}

impl Error for TraceError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            TraceError::Trajectory(e) => Some(e),
            TraceError::InvalidAtLine { error, .. } => Some(error.as_ref()),
            _ => None,
        }
    }
}

impl From<ReadError> for TraceError {
    fn from(e: ReadError) -> TraceError {
        match e {
            // A length above its cap cannot be present either.
            ReadError::Truncated | ReadError::TooLong { .. } => TraceError::Truncated,
            ReadError::BadVarint => TraceError::VarintOverflow,
            ReadError::TrailingBytes { extra } => TraceError::TrailingBytes { extra },
        }
    }
}

impl From<SimError> for TraceError {
    fn from(e: SimError) -> TraceError {
        TraceError::Trajectory(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = TraceError::NodeOutOfRange {
            index: 4,
            node: 9,
            nodes: 5,
        };
        assert!(e.to_string().contains("node 9"));
        assert!(TraceError::Parse {
            line: 12,
            reason: "bad phase".into()
        }
        .to_string()
        .contains("line 12"));
        let wrapped: TraceError = SimError::EmptyTrajectory.into();
        assert!(wrapped.to_string().contains("trajectory"));
    }

    #[test]
    fn invalid_at_line_shows_line_and_keeps_index() {
        let e = TraceError::InvalidAtLine {
            line: 9,
            error: Box::new(TraceError::PhaseViolation { index: 3 }),
        };
        let text = e.to_string();
        assert!(text.contains("line 9"), "{text}");
        assert!(text.contains("event 3"), "{text}");
        assert!(Error::source(&e).is_some());
        assert!(TraceError::Gzip {
            reason: "bad block".into()
        }
        .to_string()
        .contains("gzip"));
    }
}
