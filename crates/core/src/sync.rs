//! The in-session synchronization protocol the message manager speaks
//! once a secure session is up (paper Fig. 2b steps after the
//! certificate exchange): the browser requests the authors it is
//! interested in, the advertiser streams the bundles, then signals done.
//!
//! # Gap-aware ranged wants + batched bundle frames
//!
//! A `(author, highest number I hold)` watermark loses information as
//! soon as TTL or capacity eviction — or a capped, interrupted serve —
//! leaves a *hole* in an author's sequence: a node holding `{5}`
//! advertises watermark 5 and can never re-request `{1..4}`, so those
//! messages are unreachable forever. Requests therefore carry, per
//! author, the **contiguous ranges the requester already holds**
//! ([`AuthorWant`]); the advertiser serves exactly the complement of
//! that range set, so evicted or missed middles are re-fetched at the
//! next encounter.
//!
//! Served bundles are batched into [`SyncMsg::Bundles`] frames up to a
//! size budget ([`sos_net::SYNC_BATCH_BUDGET`]) instead of one frame
//! per bundle, cutting per-encounter frame count by an order of
//! magnitude at scale. A mid-transfer disconnection still loses only the
//! tail — at batch granularity — and the ranged wants re-fetch exactly
//! the lost remainder at the next encounter.
//!
//! There is one dialect: tags 3 (`Done`), 4 (ranged request) and 5
//! (bundle batch). Any other tag — 1 and 2 included, which a peer
//! speaking a watermark dialect would send — is [`SosError::Malformed`],
//! and the middleware closes the session with a protocol error.

use crate::error::SosError;
use crate::message::Bundle;
use sos_crypto::UserId;
use sos_net::SYNC_BATCH_BUDGET;
use sos_sim::codec::{Reader, Writer, NO_CAP};

/// Maximum authors in one encoded request (u16 count field).
pub const MAX_REQUEST_AUTHORS: usize = u16::MAX as usize;

/// Maximum have-ranges per author in one encoded request (u16 count
/// field).
pub const MAX_RANGES_PER_AUTHOR: usize = u16::MAX as usize;

/// One author entry of a gap-aware request: the contiguous, ascending,
/// disjoint inclusive ranges `(start, end)` of message numbers the
/// requester already holds. The advertiser serves every stored bundle of
/// `author` *not* covered by `have` — an empty `have` asks for
/// everything.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AuthorWant {
    /// The author whose messages are requested.
    pub author: UserId,
    /// Inclusive `(start, end)` ranges already held, ascending, disjoint
    /// and non-adjacent (canonical form; numbers start at 1).
    pub have: Vec<(u64, u64)>,
}

impl AuthorWant {
    /// True if `number` is covered by the `have` ranges (i.e. the
    /// requester claims to hold it already).
    pub fn holds(&self, number: u64) -> bool {
        self.have.iter().any(|&(s, e)| s <= number && number <= e)
    }
}

/// A message-manager payload inside an encrypted session frame.
#[derive(Clone, Debug, PartialEq)]
pub enum SyncMsg {
    /// "Send me the messages of these authors that my `have` ranges are
    /// missing."
    Request {
        /// Per-author range sets held by the requester.
        wants: Vec<AuthorWant>,
    },
    /// A batch of bundles packed up to [`sos_net::SYNC_BATCH_BUDGET`]
    /// encoded bytes. Mid-transfer disconnections lose only the tail, at
    /// batch granularity; ranged wants re-fetch the remainder at the
    /// next encounter.
    Bundles(Vec<Bundle>),
    /// Transfer complete.
    Done,
}

const TAG_DONE: u8 = 3;
const TAG_REQUEST: u8 = 4;
const TAG_BUNDLES: u8 = 5;

/// Cap pre-allocations derived from attacker-controlled count fields.
const MAX_PREALLOC: usize = 1024;

impl SyncMsg {
    /// Encodes for transmission inside a session payload.
    ///
    /// # Errors
    ///
    /// [`SosError::RequestTooLarge`] if a request exceeds
    /// [`MAX_REQUEST_AUTHORS`] authors or any author exceeds
    /// [`MAX_RANGES_PER_AUTHOR`] ranges — counts that would silently
    /// corrupt the u16 wire fields. Use [`SyncMsg::requests`] to chunk
    /// oversized want lists instead of failing.
    pub fn encode(&self) -> Result<Vec<u8>, SosError> {
        match self {
            SyncMsg::Request { wants } => {
                let too_large = |entries| Err(SosError::RequestTooLarge { entries });
                if wants.len() > MAX_REQUEST_AUTHORS {
                    return too_large(wants.len());
                }
                let ranges: usize = wants.iter().map(|w| w.have.len()).sum();
                let mut buf = Vec::with_capacity(3 + wants.len() * 12 + ranges * 16);
                buf.u8(TAG_REQUEST);
                buf.len16(wants.len());
                for want in wants {
                    if want.have.len() > MAX_RANGES_PER_AUTHOR {
                        return too_large(want.have.len());
                    }
                    buf.bytes(want.author.as_bytes());
                    buf.len16(want.have.len());
                    for &(start, end) in &want.have {
                        buf.u64(start);
                        buf.u64(end);
                    }
                }
                Ok(buf)
            }
            SyncMsg::Bundles(bundles) => {
                let bodies: Vec<Vec<u8>> = bundles.iter().map(Bundle::encode).collect();
                Ok(Self::encode_bundle_batch(&bodies))
            }
            SyncMsg::Done => Ok(Self::encode_done()),
        }
    }

    /// Encodes the one-byte `Done` frame. Infallible (unlike the general
    /// [`SyncMsg::encode`], which can reject oversized requests), so the
    /// serve path's terminator needs no error handling.
    pub fn encode_done() -> Vec<u8> {
        vec![TAG_DONE]
    }

    /// Builds the request frames for `wants`, chunking so every frame
    /// stays within the wire format's u16 count fields. Authors with
    /// more than [`MAX_RANGES_PER_AUTHOR`] have-ranges keep only their
    /// first ranges — the advertiser may then re-serve some held middles,
    /// which the receiver's duplicate suppression discards; nothing is
    /// lost.
    pub fn requests(wants: Vec<AuthorWant>) -> Vec<SyncMsg> {
        let mut wants = wants;
        for want in &mut wants {
            want.have.truncate(MAX_RANGES_PER_AUTHOR);
        }
        if wants.is_empty() {
            return vec![SyncMsg::Request { wants }];
        }
        let mut out = Vec::with_capacity(wants.len().div_ceil(MAX_REQUEST_AUTHORS));
        while !wants.is_empty() {
            let rest = wants.split_off(wants.len().min(MAX_REQUEST_AUTHORS));
            out.push(SyncMsg::Request { wants });
            wants = rest;
        }
        out
    }

    /// Encodes a batched bundle frame from pre-encoded bundle bodies,
    /// which need not decode: the bytes the serve path writes for the
    /// bundles they encode.
    pub fn encode_bundle_batch(bodies: &[Vec<u8>]) -> Vec<u8> {
        let mut batch = BundleBatch::default();
        for body in bodies {
            batch.push_with(|w| w.bytes(body));
        }
        batch.finish().to_vec()
    }

    /// Decodes a session payload.
    ///
    /// A bundle batch parses each run of identical certificate bytes
    /// once: the bundles of the run share one `Arc<Certificate>`, so a
    /// 200-bundle encounter with one author parses one certificate per
    /// frame, not one per bundle. The bundles equal what
    /// [`Bundle::decode`] makes of each body alone, and a body it
    /// refuses fails the frame.
    ///
    /// # Errors
    ///
    /// [`SosError::Malformed`] on any structural problem, including
    /// non-canonical range sets (unordered, overlapping or adjacent
    /// ranges, zero message numbers, inverted bounds).
    pub fn decode(bytes: &[u8]) -> Result<SyncMsg, SosError> {
        let mut r = Reader::new(bytes);
        let msg = match r.u8()? {
            TAG_REQUEST => {
                // An author entry is at least its id and a range count.
                let count = r.count16(10 + 2)?;
                let mut wants = Vec::with_capacity(count.min(MAX_PREALLOC));
                for _ in 0..count {
                    let author = UserId(r.array()?);
                    let ranges = r.count16(8 + 8)?;
                    let mut have = Vec::with_capacity(ranges.min(MAX_PREALLOC));
                    let mut prev_end: Option<u64> = None;
                    for _ in 0..ranges {
                        let start = r.u64()?;
                        let end = r.u64()?;
                        // Canonical form only: numbers start at 1, ranges
                        // ascend, and adjacent runs must be merged.
                        if start == 0 || end < start {
                            return Err(SosError::Malformed);
                        }
                        if let Some(prev) = prev_end {
                            if start <= prev.saturating_add(1) {
                                return Err(SosError::Malformed);
                            }
                        }
                        prev_end = Some(end);
                        have.push((start, end));
                    }
                    wants.push(AuthorWant { author, have });
                }
                SyncMsg::Request { wants }
            }
            TAG_BUNDLES => {
                // A body is at least its length prefix.
                let count = r.count32(4)?;
                let mut bundles = Vec::with_capacity(count.min(MAX_PREALLOC));
                let mut last_cert = None;
                for _ in 0..count {
                    let body = r.bytes32(NO_CAP)?;
                    let bundle = Bundle::decode_sharing(body, &mut last_cert);
                    bundles.push(bundle.map_err(|_| SosError::Malformed)?);
                }
                SyncMsg::Bundles(bundles)
            }
            TAG_DONE => SyncMsg::Done,
            _ => return Err(SosError::Malformed),
        };
        r.finish()?;
        Ok(msg)
    }
}

/// A [`SyncMsg::Bundles`] frame written in place: each body goes
/// straight into the frame's buffer behind its length, and the count is
/// filled in when the frame is taken. The serve path fills one frame
/// after another in the same buffer. Batches are sized under
/// [`sos_net::SYNC_BATCH_BUDGET`] and a body is a header,
/// [`MAX_PAYLOAD`](crate::MAX_PAYLOAD) and a certificate, far inside the
/// `u32` count and length fields.
#[derive(Default)]
pub(crate) struct BundleBatch {
    buf: Vec<u8>,
    /// Bodies written since the last frame was taken.
    count: usize,
}

impl BundleBatch {
    pub(crate) fn len(&self) -> usize {
        self.count
    }

    /// True when a body of `size` bytes belongs in this frame: the frame
    /// is empty, or its bodies (the buffer less the tag and the length
    /// fields) stay within the batch budget.
    pub(crate) fn fits(&self, size: usize) -> bool {
        self.count == 0 || self.buf.len() + size <= SYNC_BATCH_BUDGET + 5 + 4 * self.count
    }

    /// Writes `bundle`'s body with copy budget `copies`.
    pub(crate) fn push(&mut self, bundle: &Bundle, copies: Option<u32>) {
        self.push_with(|w| bundle.write(copies, w));
    }

    fn push_with(&mut self, body: impl FnOnce(&mut Vec<u8>)) {
        self.open();
        let at = self.buf.len();
        self.buf.u32(0);
        body(&mut self.buf);
        let len = self.buf.len() - at - 4;
        set_u32(&mut self.buf[at..], len);
        self.count += 1;
    }

    /// The frame of every body written since the last call; the next
    /// write starts a new frame.
    pub(crate) fn finish(&mut self) -> &[u8] {
        self.open();
        set_u32(&mut self.buf[1..], std::mem::take(&mut self.count));
        &self.buf
    }

    /// Starts a new frame unless this one holds a body.
    fn open(&mut self) {
        if self.count == 0 {
            self.buf.clear();
            self.buf.extend_from_slice(&[TAG_BUNDLES, 0, 0, 0, 0]);
        }
    }
}

/// Overwrites the `u32` field at the start of `field` with `n`.
fn set_u32(field: &mut [u8], n: usize) {
    let n = u32::try_from(n).unwrap_or(u32::MAX);
    field[..4].copy_from_slice(&n.to_le_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::{MessageKind, SosMessage};
    use sos_crypto::ca::CertificateAuthority;
    use sos_crypto::ed25519::SigningKey;
    use sos_crypto::x25519::AgreementKey;
    use sos_crypto::Certificate;
    use sos_sim::SimTime;

    fn test_bundle(number: u64) -> Bundle {
        let mut ca = CertificateAuthority::new("Root", [1u8; 32], 0, u64::MAX);
        let sk = SigningKey::from_seed([2u8; 32]);
        let ak = AgreementKey::from_secret([3u8; 32]);
        let uid = UserId::from_str_padded("alice");
        let cert = ca.issue(uid, "Alice", sk.verifying_key(), *ak.public(), 0);
        let m = SosMessage::create(
            &sk,
            uid,
            number,
            SimTime::ZERO,
            MessageKind::Post,
            vec![1, 2, 3],
        );
        crate::message::Bundle::new(m, cert)
    }

    fn want(author: &str, have: &[(u64, u64)]) -> AuthorWant {
        AuthorWant {
            author: UserId::from_str_padded(author),
            have: have.to_vec(),
        }
    }

    #[test]
    fn request_roundtrip() {
        let msg = SyncMsg::Request {
            wants: vec![
                want("alice", &[(1, 5), (9, 12)]),
                want("bob", &[]),
                want("carol", &[(4, 4)]),
            ],
        };
        assert_eq!(SyncMsg::decode(&msg.encode().unwrap()).unwrap(), msg);
    }

    #[test]
    fn empty_request_roundtrip() {
        let msg = SyncMsg::Request { wants: vec![] };
        assert_eq!(SyncMsg::decode(&msg.encode().unwrap()).unwrap(), msg);
    }

    #[test]
    fn done_roundtrip() {
        assert_eq!(
            SyncMsg::decode(&SyncMsg::Done.encode().unwrap()).unwrap(),
            SyncMsg::Done
        );
    }

    #[test]
    fn bundles_batch_roundtrip() {
        let msg = SyncMsg::Bundles(vec![test_bundle(1), test_bundle(2), test_bundle(3)]);
        assert_eq!(SyncMsg::decode(&msg.encode().unwrap()).unwrap(), msg);
        let empty = SyncMsg::Bundles(vec![]);
        assert_eq!(SyncMsg::decode(&empty.encode().unwrap()).unwrap(), empty);
    }

    #[test]
    fn preencoded_helpers_match_enum_encoding() {
        let bundles = vec![test_bundle(1), test_bundle(2)];
        let bodies: Vec<Vec<u8>> = bundles.iter().map(Bundle::encode).collect();
        assert_eq!(
            SyncMsg::encode_bundle_batch(&bodies),
            SyncMsg::Bundles(bundles.clone()).encode().unwrap()
        );
    }

    /// Alice's original certificate, her renewal (same keys, later
    /// serial and validity) and bob's.
    fn three_certificates() -> [Certificate; 3] {
        let mut ca = CertificateAuthority::new("Root", [1u8; 32], 0, u64::MAX);
        let mut issue = |name: &str, seed: u8, now: u64| {
            let sk = SigningKey::from_seed([seed; 32]);
            let ak = AgreementKey::from_secret([seed + 1; 32]);
            let uid = UserId::from_str_padded(name);
            ca.issue(uid, name, sk.verifying_key(), *ak.public(), now)
        };
        [
            issue("alice", 2, 0),
            issue("alice", 2, 1),
            issue("bob", 4, 0),
        ]
    }

    /// Message `n` by `cert`'s subject; decoding never checks the
    /// signature, so it is left zero.
    fn unsigned(cert: &Certificate, n: u64) -> Bundle {
        let m = SosMessage {
            id: crate::message::MessageId {
                author: cert.subject,
                number: n,
            },
            created_at: SimTime::from_secs(n),
            kind: MessageKind::Post,
            payload: vec![n as u8; 3].into(),
            signature: sos_crypto::Signature([0; 64]),
        };
        Bundle::new(m, cert.clone())
    }

    #[test]
    fn a_frame_shares_a_certificate_per_run_and_keeps_each_bundles_own() {
        let [old, renewed, bob] = three_certificates();
        let certs = [&old, &old, &renewed, &renewed, &old, &bob, &bob];
        let sent: Vec<Bundle> = (1..).zip(certs).map(|(n, c)| unsigned(c, n)).collect();
        let payload = SyncMsg::Bundles(sent.clone()).encode().unwrap();
        let SyncMsg::Bundles(got) = SyncMsg::decode(&payload).unwrap() else {
            panic!("a bundle batch decodes to one");
        };
        assert_eq!(
            got, sent,
            "every bundle keeps a certificate equal to its own"
        );
        let shared = |i: usize, j: usize| {
            std::sync::Arc::ptr_eq(&got[i].author_certificate, &got[j].author_certificate)
        };
        assert!(
            shared(0, 1) && shared(2, 3) && shared(5, 6),
            "one Arc per run"
        );
        assert!(!shared(1, 2) && !shared(3, 4), "a new run parses its own");
    }

    #[test]
    fn author_want_holds() {
        let w = want("alice", &[(1, 3), (7, 7)]);
        assert!(w.holds(1) && w.holds(3) && w.holds(7));
        assert!(!w.holds(4) && !w.holds(6) && !w.holds(8));
        assert!(!want("alice", &[]).holds(1));
    }

    #[test]
    fn non_canonical_ranges_rejected() {
        for have in [
            vec![(0u64, 3u64)],          // numbers start at 1
            vec![(5, 3)],                // inverted
            vec![(1, 3), (3, 6)],        // overlapping
            vec![(1, 3), (4, 6)],        // adjacent (must be merged)
            vec![(7, 9), (1, 3)],        // descending
            vec![(1, u64::MAX), (3, 4)], // nothing may follow a MAX end
        ] {
            // Hand-encode: the encoder is not the unit under test here.
            let mut buf = vec![4u8, 1, 0]; // TAG_REQUEST, one author
            buf.extend_from_slice(UserId::from_str_padded("alice").as_bytes());
            buf.extend_from_slice(&(have.len() as u16).to_le_bytes());
            for (s, e) in &have {
                buf.extend_from_slice(&s.to_le_bytes());
                buf.extend_from_slice(&e.to_le_bytes());
            }
            assert_eq!(
                SyncMsg::decode(&buf).unwrap_err(),
                SosError::Malformed,
                "{have:?} must be rejected"
            );
        }
    }

    #[test]
    fn oversized_request_errors_instead_of_truncating() {
        // One author over the u16 boundary must refuse to encode rather
        // than truncate the count field.
        let wants: Vec<AuthorWant> = (0..MAX_REQUEST_AUTHORS + 1)
            .map(|i| want(&format!("u{i}"), &[]))
            .collect();
        let at_boundary = SyncMsg::Request {
            wants: wants[..MAX_REQUEST_AUTHORS].to_vec(),
        };
        let decoded = SyncMsg::decode(&at_boundary.encode().unwrap()).unwrap();
        assert_eq!(decoded, at_boundary, "exactly u16::MAX authors is legal");
        let over = SyncMsg::Request { wants };
        assert_eq!(
            over.encode().unwrap_err(),
            SosError::RequestTooLarge {
                entries: MAX_REQUEST_AUTHORS + 1
            }
        );
    }

    #[test]
    fn requests_chunk_oversized_want_lists() {
        let wants: Vec<AuthorWant> = (0..MAX_REQUEST_AUTHORS + 2)
            .map(|i| want(&format!("u{i}"), &[(1, i as u64 + 1)]))
            .collect();
        let msgs = SyncMsg::requests(wants.clone());
        assert_eq!(msgs.len(), 2);
        let mut reassembled = Vec::new();
        for msg in msgs {
            let bytes = msg.encode().expect("chunked requests always encode");
            match SyncMsg::decode(&bytes).unwrap() {
                SyncMsg::Request { wants } => reassembled.extend(wants),
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(reassembled, wants, "chunking loses nothing");
    }

    #[test]
    fn garbage_rejected() {
        assert_eq!(SyncMsg::decode(&[]).unwrap_err(), SosError::Malformed);
        assert_eq!(SyncMsg::decode(&[99]).unwrap_err(), SosError::Malformed);
        assert_eq!(
            SyncMsg::decode(&[TAG_DONE, 1]).unwrap_err(),
            SosError::Malformed
        );
        // Tags 1 and 2 belong to no dialect this node speaks.
        assert_eq!(
            SyncMsg::decode(&[1, 0, 0]).unwrap_err(),
            SosError::Malformed
        );
        assert_eq!(SyncMsg::decode(&[2]).unwrap_err(), SosError::Malformed);
        // Truncated request and truncated batch.
        assert_eq!(
            SyncMsg::decode(&[TAG_REQUEST, 1, 0, 7]).unwrap_err(),
            SosError::Malformed
        );
        assert_eq!(
            SyncMsg::decode(&[TAG_BUNDLES, 2, 0, 0, 0, 5]).unwrap_err(),
            SosError::Malformed
        );
    }

    #[test]
    fn truncation_anywhere_rejected() {
        let msg = SyncMsg::Request {
            wants: vec![want("alice", &[(1, 5), (9, 12)]), want("bob", &[(2, 2)])],
        };
        let bytes = msg.encode().unwrap();
        for cut in 0..bytes.len() {
            assert!(
                SyncMsg::decode(&bytes[..cut]).is_err(),
                "cut at {cut} must fail"
            );
        }
    }

    mod fuzz {
        use super::*;
        use proptest::prelude::*;

        fn arb_wants() -> impl Strategy<Value = Vec<AuthorWant>> {
            // Canonical range sets: strictly ascending with gaps ≥ 2.
            let ranges = prop::collection::vec((1u64..1000, 0u64..50), 0..5).prop_map(|steps| {
                let mut have = Vec::new();
                let mut next = 1u64;
                for (gap, len) in steps {
                    let start = next + gap; // ≥ next + 1 ⇒ non-adjacent
                    let end = start + len;
                    have.push((start, end));
                    next = end + 1;
                }
                have
            });
            prop::collection::vec(
                (prop::collection::vec(any::<u8>(), 10), ranges).prop_map(|(id, have)| {
                    let mut user = [0u8; 10];
                    user.copy_from_slice(&id);
                    AuthorWant {
                        author: UserId(user),
                        have,
                    }
                }),
                0..8,
            )
        }

        proptest! {
            /// Decrypted-but-hostile session payloads must never panic
            /// the sync decoder.
            #[test]
            fn sync_decode_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
                let _ = SyncMsg::decode(&bytes);
            }

            /// Ditto for raw bundle decoding.
            #[test]
            fn bundle_decode_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
                let _ = crate::message::Bundle::decode(&bytes);
            }

            /// Ditto with every tag value in front of arbitrary bytes.
            #[test]
            fn tagged_decode_never_panics(tag in 0u8..8, bytes in prop::collection::vec(any::<u8>(), 0..256)) {
                let mut framed = vec![tag];
                framed.extend_from_slice(&bytes);
                let _ = SyncMsg::decode(&framed);
            }

            /// A frame decodes to exactly what each body decodes to
            /// alone, however its 1–3 certificates alternate, and fails
            /// whenever one body fails — with one byte of a later copy
            /// of a certificate flipped, so a copy that differs from an
            /// earlier one in one byte is parsed, never shared.
            #[test]
            fn batch_decode_equals_per_body_decode(
                n_certs in 1usize..=3,
                picks in prop::collection::vec(0usize..3, 1..10),
                flip in (any::<bool>(), 1usize..10, any::<usize>(), 0u8..8),
            ) {
                let certs = three_certificates();
                let mut bodies: Vec<Vec<u8>> = (1..)
                    .zip(&picks)
                    .map(|(n, &pick)| unsigned(&certs[pick % n_certs], n).encode())
                    .collect();
                let (flipped, body, at, bit) = flip;
                if flipped && bodies.len() > 1 {
                    // A later body's certificate: after the signed fields
                    // (a 3-byte payload), the signature and its length,
                    // before the hop count and the copy-budget flag.
                    let start = 10 + 8 + 8 + 1 + 4 + 3 + 64 + 2;
                    let later = 1 + body % (bodies.len() - 1);
                    let body = &mut bodies[later];
                    let len = body.len() - start - 5;
                    body[start + at % len] ^= 1 << bit;
                }
                let frame = SyncMsg::encode_bundle_batch(&bodies);
                let alone: Result<Vec<Bundle>, _> =
                    bodies.iter().map(|b| Bundle::decode(b)).collect();
                match (SyncMsg::decode(&frame), alone) {
                    (Ok(SyncMsg::Bundles(got)), Ok(want)) => prop_assert_eq!(got, want),
                    (Err(SosError::Malformed), Err(_)) => {}
                    (got, want) => prop_assert!(false, "frame {got:?}, bodies {want:?}"),
                }
            }

            /// Canonical ranged requests roundtrip exactly.
            #[test]
            fn ranged_request_roundtrips(wants in arb_wants()) {
                let msg = SyncMsg::Request { wants };
                let bytes = msg.encode().unwrap();
                prop_assert_eq!(SyncMsg::decode(&bytes).unwrap(), msg);
            }
        }
    }
}
