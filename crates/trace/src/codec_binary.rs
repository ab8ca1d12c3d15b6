//! The compact binary trace format: delta-encoded timestamps, LEB128
//! varints, exact `f64` distances.
//!
//! Layout (all integers LEB128 varints unless noted):
//!
//! ```text
//! magic    b"SOSTRC01"            8 bytes
//! flags    u8                     bit 0: range_m present
//!                                 bit 1: node-id labels present
//!                                 bits 2–7: must be zero
//! range_m  f64 LE                 8 bytes, only if flag 0 set
//! nodes    varint
//! labels   nodes ×:               only if flag 1 set
//!   len      varint
//!   bytes    UTF-8                original device id for this index
//! count    varint
//! events   count ×:
//!   dt       varint               ms since previous event (first: since 0)
//!   a_phase  varint               (a << 1) | (1 if Up else 0)
//!   b        varint
//!   distance f64 LE               8 bytes (bit-exact round trip)
//! ```
//!
//! The buffer must end with the last event: bytes after it (a second
//! trace appended, a count that undercounts) are an error, not
//! silently dropped data.
//!
//! The label section preserves an imported corpus's node-id remapping
//! (dense index → original sparse/hex device id) through the binary
//! format, mirroring the text codec's `# node_ids` header.
//!
//! Encounter timelines are dominated by small time deltas (many events
//! share a discovery tick, so `dt` is usually 0 or one tick) and small
//! node indices, which is exactly what varint + delta encoding
//! compresses; distances stay raw so decode(encode(t)) == t holds
//! bit-for-bit — the round-trip guarantee the property tests assert.

use crate::error::TraceError;
use crate::record::{ContactTrace, Packed};
use sos_sim::codec::{Reader, Writer, NO_CAP};
use sos_sim::world::{ContactEvent, ContactPhase};
use sos_sim::SimTime;

const MAGIC: &[u8; 8] = b"SOSTRC01";
const FLAG_RANGE: u8 = 0b0000_0001;
const FLAG_LABELS: u8 = 0b0000_0010;

/// Serializes a trace to the compact binary format.
pub fn to_binary(trace: &ContactTrace) -> Vec<u8> {
    let _span = sos_obs::profile::span("trace/binary_encode");
    let mut out = Vec::with_capacity(32 + trace.len() * 14);
    out.bytes(MAGIC);
    let flag = |set: bool, bit: u8| if set { bit } else { 0 };
    out.u8(flag(trace.range_m().is_some(), FLAG_RANGE)
        | flag(trace.node_labels().is_some(), FLAG_LABELS));
    if let Some(r) = trace.range_m() {
        out.f64(r);
    }
    out.varint(trace.node_count() as u64);
    if let Some(labels) = trace.node_labels() {
        for label in labels {
            out.bytes_varint(label.as_bytes());
        }
    }
    out.varint(trace.len() as u64);
    let mut prev = 0u64;
    for ev in trace.events() {
        let t = ev.time.as_millis();
        out.varint(t - prev);
        prev = t;
        let phase_bit = u64::from(ev.phase == ContactPhase::Up);
        out.varint((ev.a as u64) << 1 | phase_bit);
        out.varint(ev.b as u64);
        out.f64(ev.distance_m);
    }
    out
}

/// Parses the compact binary format.
pub fn from_binary(buf: &[u8]) -> Result<ContactTrace, TraceError> {
    let _span = sos_obs::profile::span("trace/binary_decode");
    let mut r = Reader::new(buf);
    if r.take(MAGIC.len()) != Ok(MAGIC) {
        return Err(TraceError::BadMagic);
    }
    let flags = r.u8()?;
    if flags & !(FLAG_RANGE | FLAG_LABELS) != 0 {
        return Err(TraceError::UnknownFlags { flags });
    }
    let range_m = (flags & FLAG_RANGE != 0).then(|| r.f64()).transpose()?;
    let (nodes, labels) = if flags & FLAG_LABELS != 0 {
        // A hostile node count must not drive label-loop allocations:
        // every label costs ≥ 1 byte (its length varint).
        let nodes = r.count_varint(1)?;
        let mut labels = Vec::with_capacity(nodes.min(buf.len()));
        for _ in 0..nodes {
            let label = std::str::from_utf8(r.bytes_varint(NO_CAP)?).map_err(|_| {
                TraceError::InvalidLabels {
                    reason: "label is not UTF-8".into(),
                }
            })?;
            labels.push(label.to_string());
        }
        (nodes, Some(labels))
    } else {
        (r.varint()? as usize, None)
    };
    // Each event costs ≥ 11 bytes (three 1-byte varints + 8-byte
    // distance); a count the remaining buffer cannot possibly hold is
    // rejected before allocating (a hostile header must not OOM the
    // process).
    let count = r.count_varint(11)?;
    let mut events = Vec::with_capacity(count.min(buf.len() / 11));
    let mut t = 0u64;
    for index in 0..count {
        let dt = r.varint()?;
        t = t.checked_add(dt).ok_or(TraceError::VarintOverflow)?;
        let a_phase = r.varint()?;
        let ev = ContactEvent {
            time: SimTime::from_millis(t),
            a: (a_phase >> 1) as usize,
            b: r.varint()? as usize,
            phase: if a_phase & 1 == 1 {
                ContactPhase::Up
            } else {
                ContactPhase::Down
            },
            distance_m: r.f64()?,
        };
        events.push(Packed::pack(index, ev)?);
    }
    r.finish()?;
    ContactTrace::from_packed(nodes, range_m, labels, events)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(t_ms: u64, a: usize, b: usize, phase: ContactPhase, d: f64) -> ContactEvent {
        ContactEvent {
            time: SimTime::from_millis(t_ms),
            a,
            b,
            phase,
            distance_m: d,
        }
    }

    fn sample() -> ContactTrace {
        use ContactPhase::{Down, Up};
        ContactTrace::new(
            300,
            Some(60.0),
            vec![
                ev(0, 0, 1, Up, 59.999999999),
                ev(0, 4, 255, Up, 0.0),
                ev(30_000, 0, 1, Down, 60.1),
                ev(30_000, 4, 255, Down, 75.0),
                ev(u64::MAX / 2, 0, 1, Up, 1.0),
            ],
        )
        .unwrap()
    }

    #[test]
    fn round_trip_bit_exact() {
        let trace = sample();
        assert_eq!(from_binary(&to_binary(&trace)).unwrap(), trace);
    }

    #[test]
    fn no_range_round_trips() {
        let trace = ContactTrace::new(2, None, vec![ev(5, 0, 1, ContactPhase::Up, 3.25)]).unwrap();
        let buf = to_binary(&trace);
        assert_eq!(from_binary(&buf).unwrap(), trace);
    }

    #[test]
    fn labels_round_trip_and_hostile_label_headers_are_rejected() {
        let trace = ContactTrace::new_labeled(
            3,
            Some(10.0),
            Some(vec!["21".into(), "33".into(), "3c:4a:92".into()]),
            vec![ev(5, 0, 2, ContactPhase::Up, 1.5)],
        )
        .unwrap();
        let buf = to_binary(&trace);
        let back = from_binary(&buf).unwrap();
        assert_eq!(back, trace);
        assert_eq!(back.node_label(2), Some("3c:4a:92"));
        // A lying label length must be Truncated, not a huge allocation.
        let mut lie = Vec::new();
        lie.extend_from_slice(MAGIC);
        lie.push(FLAG_LABELS);
        lie.varint(2); // nodes
        lie.varint(u64::MAX); // label 0 length
        lie.extend_from_slice(&[0u8; 16]);
        assert_eq!(from_binary(&lie), Err(TraceError::Truncated));
        // A lying node count with labels flagged is rejected cheaply too.
        let mut lie = Vec::new();
        lie.extend_from_slice(MAGIC);
        lie.push(FLAG_LABELS);
        lie.varint(u64::MAX); // nodes
        lie.extend_from_slice(&[1u8; 8]);
        assert_eq!(from_binary(&lie), Err(TraceError::Truncated));
    }

    #[test]
    fn compactness_beats_text() {
        let trace = sample();
        let bin = to_binary(&trace);
        let text = crate::codec_text::to_text(&trace);
        assert!(
            bin.len() < text.len(),
            "binary {} >= text {}",
            bin.len(),
            text.len()
        );
    }

    #[test]
    fn bad_magic_and_truncation_are_errors() {
        assert_eq!(from_binary(b"NOTATRCE"), Err(TraceError::BadMagic));
        assert_eq!(from_binary(b"SOS"), Err(TraceError::BadMagic));
        let good = to_binary(&sample());
        for cut in [9, 12, good.len() - 1] {
            let err = from_binary(&good[..cut]).unwrap_err();
            assert!(
                matches!(err, TraceError::Truncated | TraceError::VarintOverflow),
                "cut at {cut}: {err:?}"
            );
        }
    }

    #[test]
    fn every_proper_prefix_and_every_extension_is_rejected() {
        let labeled = ContactTrace::new_labeled(
            2,
            None,
            Some(vec!["a".into(), "b".into()]),
            vec![ev(5, 0, 1, ContactPhase::Up, 1.5)],
        )
        .unwrap();
        let empty = ContactTrace::new(0, None, Vec::new()).unwrap();
        for trace in [sample(), labeled, empty] {
            let good = to_binary(&trace);
            for cut in 0..good.len() {
                assert!(from_binary(&good[..cut]).is_err(), "prefix of {cut} bytes");
            }
            // Anything after the last event — one byte, a whole second
            // trace — used to be ignored (the concatenation decoded
            // as its first half).
            for tail in [&[0u8][..], &[0xff; 11], &good[..]] {
                let mut longer = good.clone();
                longer.extend_from_slice(tail);
                assert_eq!(
                    from_binary(&longer),
                    Err(TraceError::TrailingBytes { extra: tail.len() })
                );
            }
        }
    }

    #[test]
    fn unknown_flag_bits_are_rejected() {
        let good = to_binary(&sample());
        for bit in 2..8 {
            let mut bad = good.clone();
            bad[MAGIC.len()] |= 1 << bit;
            assert_eq!(
                from_binary(&bad),
                Err(TraceError::UnknownFlags {
                    flags: good[MAGIC.len()] | 1 << bit
                }),
                "flag bit {bit}"
            );
        }
        assert!(TraceError::UnknownFlags { flags: 0b100 }
            .to_string()
            .contains("0b00000100"));
        assert!(TraceError::TrailingBytes { extra: 3 }
            .to_string()
            .contains("3 bytes"));
    }

    #[test]
    fn values_beyond_the_packed_limits_are_named_errors() {
        let limit = |index, what, value| TraceError::Unrepresentable { index, what, value };
        let header = |nodes: u64, count: u64| {
            let mut buf = MAGIC.to_vec();
            buf.push(0); // no range
            buf.varint(nodes);
            buf.varint(count);
            buf
        };
        assert_eq!(
            from_binary(&header(1 << 32, 0)),
            Err(limit(None, "node count", 1 << 32))
        );
        // One `Up` of pair (0, b) at `t_ms`.
        let one = |t_ms: u64, b: u64| {
            let mut buf = header(2, 1);
            buf.varint(t_ms);
            buf.varint(1);
            buf.varint(b);
            buf.f64(1.0);
            buf
        };
        assert_eq!(
            from_binary(&one(1 << 63, 1)),
            Err(limit(Some(0), "time", 1 << 63))
        );
        assert_eq!(
            from_binary(&one(0, 1 << 32)),
            Err(limit(Some(0), "node", 1 << 32))
        );
        assert!(from_binary(&one((1 << 63) - 1, 1)).is_ok());
    }

    #[test]
    fn hostile_count_is_rejected_cheaply() {
        // Counts the remaining bytes cannot possibly hold must be
        // rejected before the event Vec is allocated, including lies
        // smaller than the buffer length (events cost ≥ 11 bytes, so
        // a count near buf.len() is still ~40x over-allocation).
        for lie in [u64::MAX, 1_000_000, 64] {
            let mut buf = Vec::new();
            buf.extend_from_slice(b"SOSTRC01");
            buf.push(0); // no range
            buf.varint(10); // nodes
            buf.varint(lie);
            buf.extend_from_slice(&[0u8; 64]); // far fewer than 11 * lie
            assert_eq!(from_binary(&buf), Err(TraceError::Truncated), "count {lie}");
        }
    }
}
