//! The one bounded byte [`Reader`] and the one [`Writer`] behind every
//! binary format of the workspace.
//!
//! Every byte a stranger's device sends is parsed before any key is
//! checked, so the parsing primitives exist once: a read can fail, it
//! cannot panic, read past the end, or allocate for a length the
//! buffer does not hold. A layout is written once too, as a function
//! over a [`Writer`]; run on a `Vec<u8>` it is the encoder, run on a
//! [`Count`] it is the size, so the two cannot disagree.
//!
//! Six codecs sit on it, each keeping its tags, its protocol limits and
//! its error type (a `From<ReadError>` away):
//!
//! | codec | what it frames |
//! |---|---|
//! | `sos_net::frame` (+ `advertisement`) | the nine over-the-air `Frame` forms |
//! | `sos_net::wire` | the 4-byte length prefix of a TCP stream |
//! | `sos_core::message` | `Bundle` and the bytes an author signs |
//! | `sos_core::sync` | the three in-session `SyncMsg` forms |
//! | `sos_node::proto` | the twelve broker⇄daemon `Msg` forms |
//! | `sos_trace::codec_binary` | the varint trace format |
//!
//! It lives in `sos-sim` because that is the one crate all four of
//! `net`, `core`, `node` and `trace` already depend on: the crate graph
//! gains no edge. `sos_crypto::cert` is not a seventh user — `sos-crypto`
//! has no workspace dependency by design — and keeps a private reader
//! of the same discipline for the certificate's `u8`-prefixed names,
//! the only one-byte length field there is.
//!
//! Integers are little-endian. A varint is LEB128 over `u64` in minimal
//! form: at most ten bytes, no zero final byte after the first.

use std::error::Error;
use std::fmt;

/// Why a read failed. Codecs map it into their own error type.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReadError {
    /// Fewer bytes remain than the field, or the announced count of
    /// items, needs.
    Truncated,
    /// A varint longer than 64 bits, or padded with a zero final byte.
    BadVarint,
    /// A length prefix above the caller's cap; nothing was allocated.
    TooLong {
        /// The length the prefix claimed.
        len: u64,
    },
    /// Bytes follow the last field.
    TrailingBytes {
        /// Bytes left unread.
        extra: usize,
    },
}

impl fmt::Display for ReadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReadError::Truncated => f.write_str("input ends inside a field"),
            ReadError::BadVarint => f.write_str("varint exceeds 64 bits or is padded"),
            ReadError::TooLong { len } => write!(f, "length prefix {len} exceeds its cap"),
            ReadError::TrailingBytes { extra } => write!(f, "{extra} bytes follow the last field"),
        }
    }
}

impl Error for ReadError {}

/// The cap of a length-prefixed field whose only limits are its width
/// and the bytes actually present.
pub const NO_CAP: usize = usize::MAX;

/// A cursor over untrusted bytes. Every method either consumes exactly
/// the bytes of its field or fails and leaves the position unspecified
/// (a failed decode is abandoned, never resumed).
#[derive(Clone, Debug)]
pub struct Reader<'a> {
    rest: &'a [u8],
}

impl<'a> Reader<'a> {
    /// A reader at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Reader<'a> {
        Reader { rest: bytes }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.rest.len()
    }

    /// The next `n` bytes.
    #[inline]
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], ReadError> {
        if n > self.rest.len() {
            return Err(ReadError::Truncated);
        }
        let (head, tail) = self.rest.split_at(n);
        self.rest = tail;
        Ok(head)
    }

    /// The next `N` bytes as a fixed-length array (keys, signatures,
    /// identifiers).
    #[inline]
    pub fn array<const N: usize>(&mut self) -> Result<[u8; N], ReadError> {
        let (head, tail) = self.rest.split_first_chunk().ok_or(ReadError::Truncated)?;
        self.rest = tail;
        Ok(*head)
    }

    /// One byte.
    #[inline]
    pub fn u8(&mut self) -> Result<u8, ReadError> {
        Ok(u8::from_le_bytes(self.array()?))
    }

    /// A little-endian `u16`.
    #[inline]
    pub fn u16(&mut self) -> Result<u16, ReadError> {
        Ok(u16::from_le_bytes(self.array()?))
    }

    /// A little-endian `u32`.
    #[inline]
    pub fn u32(&mut self) -> Result<u32, ReadError> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    /// A little-endian `u64`.
    #[inline]
    pub fn u64(&mut self) -> Result<u64, ReadError> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// A little-endian `f64`, bit for bit.
    #[inline]
    pub fn f64(&mut self) -> Result<f64, ReadError> {
        Ok(f64::from_le_bytes(self.array()?))
    }

    /// A minimal LEB128 varint.
    #[inline]
    pub fn varint(&mut self) -> Result<u64, ReadError> {
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let byte = self.u8()?;
            // The tenth byte holds bit 63 alone, so it is the last.
            if (shift == 63 && byte > 1) || (shift > 0 && byte == 0) {
                return Err(ReadError::BadVarint);
            }
            v |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
        }
    }

    /// A `u16` count of items that each take at least `min_item_bytes`:
    /// a count the remaining bytes cannot hold is refused here, before
    /// the caller allocates for it.
    #[inline]
    pub fn count16(&mut self, min_item_bytes: usize) -> Result<usize, ReadError> {
        let n = self.u16()?;
        self.fit(u64::from(n), min_item_bytes)
    }

    /// [`Reader::count16`] over a `u32` field.
    #[inline]
    pub fn count32(&mut self, min_item_bytes: usize) -> Result<usize, ReadError> {
        let n = self.u32()?;
        self.fit(u64::from(n), min_item_bytes)
    }

    /// [`Reader::count16`] over a varint field.
    #[inline]
    pub fn count_varint(&mut self, min_item_bytes: usize) -> Result<usize, ReadError> {
        let n = self.varint()?;
        self.fit(n, min_item_bytes)
    }

    fn fit(&self, n: u64, min_item_bytes: usize) -> Result<usize, ReadError> {
        usize::try_from(n)
            .ok()
            .filter(|n| {
                n.checked_mul(min_item_bytes)
                    .is_some_and(|need| need <= self.rest.len())
            })
            .ok_or(ReadError::Truncated)
    }

    /// A slice behind a `u16` length. `cap` is the protocol's limit on
    /// the field ([`NO_CAP`] where it has none) and is checked first.
    #[inline]
    pub fn bytes16(&mut self, cap: usize) -> Result<&'a [u8], ReadError> {
        let len = self.u16()?;
        self.capped(u64::from(len), cap)
    }

    /// [`Reader::bytes16`] behind a `u32` length.
    #[inline]
    pub fn bytes32(&mut self, cap: usize) -> Result<&'a [u8], ReadError> {
        let len = self.u32()?;
        self.capped(u64::from(len), cap)
    }

    /// [`Reader::bytes16`] behind a varint length.
    #[inline]
    pub fn bytes_varint(&mut self, cap: usize) -> Result<&'a [u8], ReadError> {
        let len = self.varint()?;
        self.capped(len, cap)
    }

    #[inline]
    fn capped(&mut self, len: u64, cap: usize) -> Result<&'a [u8], ReadError> {
        match usize::try_from(len) {
            Ok(n) if n <= cap => self.take(n),
            _ => Err(ReadError::TooLong { len }),
        }
    }

    /// Ends the decode: anything left unread is an error.
    #[inline]
    pub fn finish(self) -> Result<(), ReadError> {
        match self.rest.len() {
            0 => Ok(()),
            extra => Err(ReadError::TrailingBytes { extra }),
        }
    }
}

/// Where a layout is written: a `Vec<u8>` keeps the bytes, a [`Count`]
/// only their number. A codec writes each layout once, as a function
/// over `&mut impl Writer`.
pub trait Writer {
    /// Appends raw bytes.
    fn bytes(&mut self, bytes: &[u8]);

    /// One byte.
    #[inline]
    fn u8(&mut self, v: u8) {
        self.bytes(&[v]);
    }

    /// A little-endian `u16`.
    #[inline]
    fn u16(&mut self, v: u16) {
        self.bytes(&v.to_le_bytes());
    }

    /// A little-endian `u32`.
    #[inline]
    fn u32(&mut self, v: u32) {
        self.bytes(&v.to_le_bytes());
    }

    /// A little-endian `u64`.
    #[inline]
    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// A little-endian `f64`, bit for bit.
    #[inline]
    fn f64(&mut self, v: f64) {
        self.bytes(&v.to_le_bytes());
    }

    /// A minimal LEB128 varint.
    #[inline]
    fn varint(&mut self, mut v: u64) {
        while v >= 0x80 {
            self.u8((v & 0x7f) as u8 | 0x80);
            v >>= 7;
        }
        self.u8(v as u8);
    }

    /// Writes `n` as a `u16` length or count field, clamped to the
    /// field's width, and returns what was written: the caller writes
    /// that many items or bytes, so the encoding is well-formed for
    /// every `n` and a length can neither wrap nor panic. A protocol
    /// limit checked beforehand keeps `n` inside the width wherever
    /// dropping the excess would not do.
    #[inline]
    fn len16(&mut self, n: usize) -> usize {
        let field = u16::try_from(n).unwrap_or(u16::MAX);
        self.u16(field);
        usize::from(field)
    }

    /// [`Writer::len16`] over a `u32` field.
    #[inline]
    fn len32(&mut self, n: usize) -> usize {
        let field = u32::try_from(n).unwrap_or(u32::MAX);
        self.u32(field);
        field as usize
    }

    /// A slice behind a `u16` length (see [`Writer::len16`]).
    #[inline]
    fn bytes16(&mut self, bytes: &[u8]) {
        let n = self.len16(bytes.len());
        self.bytes(&bytes[..n]);
    }

    /// A slice behind a `u32` length.
    #[inline]
    fn bytes32(&mut self, bytes: &[u8]) {
        let n = self.len32(bytes.len());
        self.bytes(&bytes[..n]);
    }

    /// A slice behind a varint length.
    #[inline]
    fn bytes_varint(&mut self, bytes: &[u8]) {
        self.varint(bytes.len() as u64);
        self.bytes(bytes);
    }
}

impl Writer for Vec<u8> {
    #[inline]
    fn bytes(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }

    #[inline]
    fn u8(&mut self, v: u8) {
        self.push(v);
    }
}

/// The counting sink: the number of bytes a layout takes, with nothing
/// written or allocated.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Count(pub usize);

impl Count {
    /// The number of bytes `layout` writes.
    #[inline]
    pub fn of(layout: impl FnOnce(&mut Count)) -> usize {
        let mut size = Count::default();
        layout(&mut size);
        size.0
    }
}

impl Writer for Count {
    #[inline]
    fn bytes(&mut self, bytes: &[u8]) {
        self.0 += bytes.len();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// One field of a layout: what to write, and how to read it back.
    #[derive(Clone, Debug, PartialEq)]
    enum Field {
        Take(Vec<u8>),
        Array4([u8; 4]),
        U8(u8),
        U16(u16),
        U32(u32),
        U64(u64),
        F64(u64),
        Varint(u64),
        Bytes16(Vec<u8>),
        Bytes32(Vec<u8>),
        BytesVarint(Vec<u8>),
        /// A count field of the given width code over one-byte items.
        Count(u8, Vec<u8>),
    }

    fn arb_field() -> impl Strategy<Value = Field> {
        let blob = prop::collection::vec(any::<u8>(), 0..40);
        (0u8..14, any::<u64>(), 0u32..64, blob).prop_map(|(kind, v, shift, blob)| {
            let bytes = v.to_le_bytes();
            match kind {
                0 => Field::Take(blob),
                1 => Field::Array4([bytes[0], bytes[1], bytes[2], bytes[3]]),
                2 => Field::U8(bytes[0]),
                3 => Field::U16(u16::from_le_bytes([bytes[0], bytes[1]])),
                4 => Field::U32(u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]])),
                5 => Field::U64(v),
                6 => Field::F64(v),
                7 => Field::Varint(v >> shift),
                8 => Field::Bytes16(blob),
                9 => Field::Bytes32(blob),
                10 => Field::BytesVarint(blob),
                width => Field::Count(width - 11, blob),
            }
        })
    }

    /// Bytes weighted towards the ones a varint treats specially.
    fn arb_varint_bytes() -> impl Strategy<Value = Vec<u8>> {
        let byte = (0u8..6, any::<u8>()).prop_map(|(kind, b)| match kind {
            0 => 0,
            1 => 0x80,
            2 => 1,
            3 => 0xff,
            _ => b,
        });
        prop::collection::vec(byte, 0..14)
    }

    fn write(w: &mut impl Writer, fields: &[Field]) {
        for field in fields {
            match field {
                Field::Take(b) => w.bytes(b),
                Field::Array4(a) => w.bytes(a),
                Field::U8(v) => w.u8(*v),
                Field::U16(v) => w.u16(*v),
                Field::U32(v) => w.u32(*v),
                Field::U64(v) => w.u64(*v),
                Field::F64(bits) => w.f64(f64::from_bits(*bits)),
                Field::Varint(v) => w.varint(*v),
                Field::Bytes16(b) => w.bytes16(b),
                Field::Bytes32(b) => w.bytes32(b),
                Field::BytesVarint(b) => w.bytes_varint(b),
                Field::Count(width, items) => {
                    match width {
                        0 => assert_eq!(w.len16(items.len()), items.len()),
                        1 => assert_eq!(w.len32(items.len()), items.len()),
                        _ => w.varint(items.len() as u64),
                    }
                    w.bytes(items);
                }
            }
        }
    }

    /// Reads `shape`'s layout out of `r`, checking after every field
    /// that the reader only moved forward, by no more than it had.
    fn read(r: &mut Reader<'_>, shape: &[Field]) -> Result<Vec<Field>, ReadError> {
        let mut out = Vec::new();
        for field in shape {
            let before = r.remaining();
            let got = match field {
                Field::Take(b) => Field::Take(r.take(b.len())?.to_vec()),
                Field::Array4(_) => Field::Array4(r.array()?),
                Field::U8(_) => Field::U8(r.u8()?),
                Field::U16(_) => Field::U16(r.u16()?),
                Field::U32(_) => Field::U32(r.u32()?),
                Field::U64(_) => Field::U64(r.u64()?),
                Field::F64(_) => Field::F64(r.f64()?.to_bits()),
                Field::Varint(_) => Field::Varint(r.varint()?),
                Field::Bytes16(_) => Field::Bytes16(r.bytes16(64)?.to_vec()),
                Field::Bytes32(_) => Field::Bytes32(r.bytes32(64)?.to_vec()),
                Field::BytesVarint(_) => Field::BytesVarint(r.bytes_varint(64)?.to_vec()),
                Field::Count(width, _) => {
                    let n = match width {
                        0 => r.count16(1)?,
                        1 => r.count32(1)?,
                        _ => r.count_varint(1)?,
                    };
                    assert!(n <= r.remaining(), "a count the buffer cannot hold passed");
                    Field::Count(*width, r.take(n)?.to_vec())
                }
            };
            assert!(r.remaining() <= before);
            out.push(got);
        }
        Ok(out)
    }

    /// The decoder `trace::codec_binary` had before this module: the
    /// oracle for which varints overflow and how many bytes one takes.
    fn old_varint(buf: &[u8], pos: &mut usize) -> Result<u64, ReadError> {
        let mut v: u64 = 0;
        let mut shift = 0u32;
        loop {
            let byte = *buf.get(*pos).ok_or(ReadError::Truncated)?;
            *pos += 1;
            if shift == 63 && byte > 1 {
                return Err(ReadError::BadVarint);
            }
            v |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
            if shift > 63 {
                return Err(ReadError::BadVarint);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        /// Whatever is written reads back, the reader ends exactly at
        /// the end, and the counting sink agrees with the vector's
        /// length for every sequence of writes.
        #[test]
        fn layouts_round_trip_and_count_equals_length(
            fields in prop::collection::vec(arb_field(), 0..12),
        ) {
            let mut bytes = Vec::new();
            write(&mut bytes, &fields);
            prop_assert_eq!(Count::of(|w| write(w, &fields)), bytes.len());

            let mut r = Reader::new(&bytes);
            prop_assert_eq!(read(&mut r, &fields), Ok(fields));
            prop_assert_eq!(r.finish(), Ok(()));
        }

        /// Every method, over arbitrary bytes: an error or a value, never
        /// a panic, and never more consumed than there was.
        #[test]
        fn arbitrary_input_never_panics_or_overreads(
            bytes in prop::collection::vec(any::<u8>(), 0..64),
            shape in prop::collection::vec(arb_field(), 1..8),
        ) {
            let mut r = Reader::new(&bytes);
            let _ = read(&mut r, &shape);
            prop_assert!(r.remaining() <= bytes.len());
        }

        /// A valid layout cut short or with one bit flipped: the same.
        /// A cut always fails with `Truncated` (every field is needed)
        /// unless it removed nothing.
        #[test]
        fn truncated_and_bit_flipped_layouts_never_panic(
            fields in prop::collection::vec(arb_field(), 1..8),
            cut in 0usize..4096,
            flip in 0usize..4096,
            bit in 0u8..8,
        ) {
            let mut bytes = Vec::new();
            write(&mut bytes, &fields);
            if !bytes.is_empty() {
                let short = &bytes[..cut % bytes.len()];
                prop_assert_eq!(read(&mut Reader::new(short), &fields), Err(ReadError::Truncated));
                let at = flip % bytes.len();
                bytes[at] ^= 1 << bit;
                let mut r = Reader::new(&bytes);
                let _ = read(&mut r, &fields).and_then(|_| r.finish());
            }
        }

        /// `varint` is the decoder `codec_binary` had — same values,
        /// same overflow cases, same bytes consumed — except that a
        /// padded encoding (zero final byte) no longer decodes.
        #[test]
        fn varint_matches_the_old_decoder_on_everything_but_padding(
            bytes in arb_varint_bytes(),
        ) {
            let mut pos = 0;
            let old = old_varint(&bytes, &mut pos);
            let mut r = Reader::new(&bytes);
            let new = r.varint();
            let padded = old.is_ok() && pos > 1 && bytes[pos - 1] == 0;
            if padded {
                prop_assert_eq!(new, Err(ReadError::BadVarint));
            } else {
                prop_assert_eq!(new, old);
                if new.is_ok() {
                    prop_assert_eq!(r.remaining(), bytes.len() - pos);
                }
            }
        }

        /// Minimal form both ways: every value encodes to the shortest
        /// varint, and that is the only encoding that decodes to it.
        #[test]
        fn varint_is_minimal(v in any::<u64>(), shift in 0u32..64) {
            let v = v >> shift;
            let mut bytes = Vec::new();
            bytes.varint(v);
            prop_assert_eq!(bytes.len(), (64 - v.leading_zeros()).div_ceil(7).max(1) as usize);
            prop_assert_eq!(Reader::new(&bytes).varint(), Ok(v));
        }
    }

    #[test]
    fn varint_overflow_cases() {
        let nine = [0xffu8; 9];
        for (tail, want) in [
            (&[0x01u8][..], Ok(u64::MAX)),
            (&[0x02], Err(ReadError::BadVarint)),
            (&[0x81, 0x00], Err(ReadError::BadVarint)),
            (&[0x00], Err(ReadError::BadVarint)),
            (&[], Err(ReadError::Truncated)),
        ] {
            let bytes = [&nine[..], tail].concat();
            assert_eq!(Reader::new(&bytes).varint(), want, "{tail:?}");
        }
        assert_eq!(
            Reader::new(&[0x80, 0x00]).varint(),
            Err(ReadError::BadVarint)
        );
        assert_eq!(Reader::new(&[0x00]).varint(), Ok(0));
    }

    /// A hostile prefix costs nothing: the reader hands out borrowed
    /// slices only (it has no allocating method), a length is compared
    /// with its cap and then with the bytes present, and a count is
    /// refused before the caller sizes a vector by it.
    #[test]
    fn a_huge_length_prefix_over_four_bytes_is_an_error() {
        let lie = u32::MAX.to_le_bytes();
        assert_eq!(
            Reader::new(&lie).bytes32(1 << 20),
            Err(ReadError::TooLong {
                len: u64::from(u32::MAX)
            })
        );
        assert_eq!(Reader::new(&lie).bytes32(NO_CAP), Err(ReadError::Truncated));
        assert_eq!(Reader::new(&lie).count32(1), Err(ReadError::Truncated));
        assert_eq!(Reader::new(&lie).count32(0), Ok(u32::MAX as usize));
        let mut varint = Vec::new();
        varint.varint(u64::MAX);
        assert_eq!(
            Reader::new(&varint).bytes_varint(NO_CAP),
            Err(ReadError::Truncated)
        );
        assert_eq!(
            Reader::new(&varint).count_varint(11),
            Err(ReadError::Truncated)
        );
        // The cap is checked before the bytes: a capped field that is
        // also short reports the cap.
        assert_eq!(
            Reader::new(&[9, 0, 1]).bytes16(8),
            Err(ReadError::TooLong { len: 9 })
        );
    }

    #[test]
    fn counts_fit_exactly_and_length_fields_clamp() {
        let mut bytes = vec![3, 0];
        bytes.extend_from_slice(&[0; 54]);
        assert_eq!(Reader::new(&bytes).count16(18), Ok(3));
        assert_eq!(
            Reader::new(&bytes[..55]).count16(18),
            Err(ReadError::Truncated)
        );
        assert_eq!(
            Reader::new(&bytes).finish(),
            Err(ReadError::TrailingBytes { extra: 56 })
        );

        let mut out = Vec::new();
        assert_eq!(out.len16(70_000), 65_535);
        assert_eq!(out, [0xff, 0xff]);
        let long = vec![7u8; 70_000];
        let mut out = Vec::new();
        out.bytes16(&long);
        assert_eq!(out.len(), 2 + 65_535);
        assert_eq!(Reader::new(&out).bytes16(NO_CAP), Ok(&long[..65_535]));
    }
}
