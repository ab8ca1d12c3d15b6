//! Length-prefixed stream framing for real byte transports.
//!
//! The simulation driver moves [`Frame`](crate::Frame) values directly,
//! but a real transport (the `sos-node` TCP loopback daemon) moves an
//! ordered byte stream. This module maps between the two: each message
//! travels as a 4-byte little-endian length prefix followed by exactly
//! that many payload bytes.
//!
//! Robustness rules (mirroring the frame codec's):
//!
//! * decoding never panics, whatever bytes arrive;
//! * an oversized length prefix is rejected with the *named* error
//!   [`NetError::FrameTooLarge`] **before any allocation** — a hostile
//!   or corrupted prefix must not make the reader reserve gigabytes;
//! * a truncated stream simply yields no message until (unless) the
//!   missing bytes arrive.

use crate::error::NetError;
use sos_sim::codec::{ReadError, Reader, Writer};

/// Upper bound on a single wire message's payload, in bytes.
///
/// Generous headroom above the largest legitimate frame (a sync batch
/// is capped at [`SYNC_BATCH_BUDGET`](crate::SYNC_BATCH_BUDGET) =
/// 32 KiB plus session overhead), while still rejecting nonsense
/// prefixes long before an allocation could hurt.
pub const MAX_WIRE_FRAME: usize = 1 << 20;

/// Bytes in the length prefix.
const PREFIX: usize = 4;

/// Encodes one message for an ordered byte stream: 4-byte LE length
/// prefix, then the payload.
///
/// # Errors
///
/// [`NetError::FrameTooLarge`] when the payload exceeds
/// [`MAX_WIRE_FRAME`] — the cap is symmetric so anything we emit can be
/// read back.
pub fn encode_wire(payload: &[u8]) -> Result<Vec<u8>, NetError> {
    if payload.len() > MAX_WIRE_FRAME {
        return Err(NetError::FrameTooLarge {
            len: payload.len() as u64,
        });
    }
    let mut out = Vec::with_capacity(PREFIX + payload.len());
    out.bytes32(payload);
    Ok(out)
}

/// Incremental decoder for the length-prefixed stream: feed it byte
/// chunks as they arrive (in any fragmentation), pull complete messages
/// out.
///
/// The reader holds at most one partial message plus whatever the
/// caller pushed beyond it; it never allocates based on the *claimed*
/// length — payload bytes are only sliced out of the receive buffer
/// once they have actually arrived.
#[derive(Debug, Default)]
pub struct WireReader {
    buf: Vec<u8>,
    /// Read cursor into `buf`; consumed bytes are compacted away once
    /// the cursor passes half the buffer to keep memory bounded.
    pos: usize,
    /// Set once a bad prefix was seen: a framing error is unrecoverable
    /// on an ordered stream (we no longer know where messages start).
    poisoned: bool,
}

impl WireReader {
    /// A fresh reader.
    pub fn new() -> WireReader {
        WireReader::default()
    }

    /// Appends received bytes to the reassembly buffer.
    pub fn push_bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Pulls the next complete message, if one has fully arrived.
    ///
    /// `Ok(None)` means "need more bytes". After an error the reader is
    /// poisoned and every subsequent call returns the same error — the
    /// caller must drop the connection.
    ///
    /// # Errors
    ///
    /// [`NetError::FrameTooLarge`] when the length prefix exceeds
    /// [`MAX_WIRE_FRAME`].
    pub fn next_message(&mut self) -> Result<Option<Vec<u8>>, NetError> {
        if self.poisoned {
            return Err(NetError::BadFrame);
        }
        // The reader only ever slices bytes that have arrived: a short
        // buffer is "not yet", an oversized prefix is fatal.
        let msg = match Reader::new(&self.buf[self.pos..]).bytes32(MAX_WIRE_FRAME) {
            Ok(msg) => msg.to_vec(),
            Err(ReadError::Truncated) => return Ok(None),
            Err(e) => {
                self.poisoned = true;
                return Err(e.into());
            }
        };
        self.pos += PREFIX + msg.len();
        if self.pos * 2 >= self.buf.len() {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        Ok(Some(msg))
    }

    /// Bytes buffered but not yet consumed (diagnostics/tests).
    pub fn pending(&self) -> usize {
        self.buf.len() - self.pos
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_single_and_batched() {
        let msgs: Vec<Vec<u8>> = vec![b"".to_vec(), b"a".to_vec(), vec![7u8; 100_000]];
        let mut stream = Vec::new();
        for m in &msgs {
            stream.extend_from_slice(&encode_wire(m).unwrap());
        }
        let mut reader = WireReader::new();
        reader.push_bytes(&stream);
        for m in &msgs {
            assert_eq!(
                reader.next_message().unwrap().as_deref(),
                Some(m.as_slice())
            );
        }
        assert_eq!(reader.next_message().unwrap(), None);
        assert_eq!(reader.pending(), 0);
    }

    #[test]
    fn byte_at_a_time_fragmentation() {
        let stream = encode_wire(b"hello wire").unwrap();
        let mut reader = WireReader::new();
        for (i, b) in stream.iter().enumerate() {
            let got = reader.next_message().unwrap();
            assert!(got.is_none(), "message completed early at byte {i}");
            reader.push_bytes(std::slice::from_ref(b));
        }
        assert_eq!(
            reader.next_message().unwrap().as_deref(),
            Some(&b"hello wire"[..])
        );
    }

    #[test]
    fn oversized_prefix_rejected_without_preallocating() {
        let mut reader = WireReader::new();
        // A prefix claiming 4 GiB minus change: must fail immediately,
        // with only the 4 prefix bytes ever buffered.
        reader.push_bytes(&u32::MAX.to_le_bytes());
        match reader.next_message() {
            Err(NetError::FrameTooLarge { len }) => assert_eq!(len, u64::from(u32::MAX)),
            other => panic!("expected FrameTooLarge, got {other:?}"),
        }
        assert_eq!(
            reader.pending(),
            PREFIX,
            "nothing beyond the prefix buffered"
        );
        // Poisoned: the stream position is unrecoverable.
        assert!(reader.next_message().is_err());
    }

    #[test]
    fn encode_rejects_oversized_payload() {
        let big = vec![0u8; MAX_WIRE_FRAME + 1];
        assert!(matches!(
            encode_wire(&big),
            Err(NetError::FrameTooLarge { .. })
        ));
        assert!(encode_wire(&vec![0u8; MAX_WIRE_FRAME]).is_ok());
    }

    #[test]
    fn max_sized_message_round_trips() {
        let payload = vec![0xabu8; MAX_WIRE_FRAME];
        let mut reader = WireReader::new();
        reader.push_bytes(&encode_wire(&payload).unwrap());
        assert_eq!(reader.next_message().unwrap(), Some(payload));
    }

    mod fuzz {
        use super::*;
        use proptest::prelude::*;

        /// Drains a reader until it needs more bytes or errors; never
        /// panics regardless of input.
        fn drain(reader: &mut WireReader) -> Vec<Vec<u8>> {
            let mut out = Vec::new();
            while let Ok(Some(msg)) = reader.next_message() {
                out.push(msg);
            }
            out
        }

        proptest! {
            /// Arbitrary bytes from the socket must never panic the
            /// stream decoder, however they are fragmented.
            #[test]
            fn arbitrary_stream_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..2048),
                                             cuts in prop::collection::vec(0usize..2048, 0..8)) {
                let mut reader = WireReader::new();
                let mut rest: &[u8] = &bytes;
                for cut in cuts {
                    let at = cut.min(rest.len());
                    let (head, tail) = rest.split_at(at);
                    reader.push_bytes(head);
                    let _ = drain(&mut reader);
                    rest = tail;
                }
                reader.push_bytes(rest);
                let _ = drain(&mut reader);
            }

            /// A truncated valid stream yields exactly the complete
            /// prefix of messages and never panics.
            #[test]
            fn truncation_never_panics(payloads in prop::collection::vec(
                                           prop::collection::vec(any::<u8>(), 0..64), 1..6),
                                       cut_back in 0usize..64) {
                let mut stream = Vec::new();
                for p in &payloads {
                    stream.extend_from_slice(&encode_wire(p).unwrap());
                }
                let keep = stream.len().saturating_sub(cut_back);
                let mut reader = WireReader::new();
                reader.push_bytes(&stream[..keep]);
                let got = drain(&mut reader);
                prop_assert!(got.len() <= payloads.len());
                for (g, p) in got.iter().zip(&payloads) {
                    prop_assert_eq!(g, p);
                }
            }

            /// Bit-flipped encodings never panic: they decode to a
            /// different message, stall awaiting bytes, or fail with a
            /// named error (an inflated prefix ⇒ FrameTooLarge).
            #[test]
            fn bitflip_never_panics(payload in prop::collection::vec(any::<u8>(), 0..128),
                                    flip_byte in 0usize..132,
                                    flip_bit in 0u8..8) {
                let mut stream = encode_wire(&payload).unwrap();
                let idx = flip_byte % stream.len();
                stream[idx] ^= 1 << flip_bit;
                let mut reader = WireReader::new();
                reader.push_bytes(&stream);
                loop {
                    match reader.next_message() {
                        Ok(Some(_)) => {}
                        Ok(None) => break,
                        Err(e) => {
                            prop_assert!(matches!(
                                e,
                                NetError::FrameTooLarge { .. } | NetError::BadFrame
                            ));
                            break;
                        }
                    }
                }
            }
        }
    }
}
