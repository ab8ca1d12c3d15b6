//! Messages and bundles: the unit of delay tolerant dissemination.
//!
//! A [`SosMessage`] is signed once by its author and never modified in
//! flight. For transport it is wrapped in a [`Bundle`] together with the
//! author's certificate — forwarders relay the originator's certificate
//! (paper Fig. 3b) so any receiver can verify provenance end-to-end — and
//! a hop counter used for the paper's "1-hop" vs "All" analysis.
//!
//! The relayed certificate and the payload are per bundle on the wire,
//! but not per copy in memory: a bundle holds both behind an [`Arc`]. A
//! decoded frame and a store hand every bundle of one author the same
//! certificate, and the payload decoded once is the one the store keeps
//! and the application is handed.

use crate::error::BundleRejection;
use sos_crypto::ca::Validator;
use sos_crypto::cert::Certificate;
use sos_crypto::{CertError, Signature, SigningKey, UserId};
use sos_sim::codec::{Count, Reader, Writer, NO_CAP};
use sos_sim::SimTime;
use std::sync::Arc;

/// Maximum application payload size in bytes (64 KiB).
pub const MAX_PAYLOAD: usize = 64 * 1024;

/// Identifies a message: author plus the author's own sequence number.
///
/// This is exactly the granularity of the plain-text advertisement
/// dictionary (`UserID → MessageNumber`, §V-A).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct MessageId {
    /// The author's 10-byte user id.
    pub author: UserId,
    /// The author-assigned message number, starting at 1.
    pub number: u64,
}

/// What kind of action the message carries (AlleyOop saves user actions
/// to the local database and disseminates them, §V).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MessageKind {
    /// A public post.
    Post,
    /// A follow action (also synced to the cloud when online).
    Follow,
    /// An unfollow action.
    Unfollow,
    /// An end-to-end encrypted direct message (sealed box payload).
    Direct,
}

impl MessageKind {
    fn to_byte(self) -> u8 {
        match self {
            MessageKind::Post => 0,
            MessageKind::Follow => 1,
            MessageKind::Unfollow => 2,
            MessageKind::Direct => 3,
        }
    }

    fn from_byte(b: u8) -> Option<MessageKind> {
        Some(match b {
            0 => MessageKind::Post,
            1 => MessageKind::Follow,
            2 => MessageKind::Unfollow,
            3 => MessageKind::Direct,
            _ => return None,
        })
    }
}

/// A signed, immutable application message.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SosMessage {
    /// Author + per-author number.
    pub id: MessageId,
    /// Creation time at the author's device.
    pub created_at: SimTime,
    /// Action kind.
    pub kind: MessageKind,
    /// Application payload (opaque to the middleware; already encrypted
    /// by the app for [`MessageKind::Direct`]). Immutable and shared:
    /// every clone of the message, and the middleware's
    /// `MessageReceived` event, points at one allocation.
    pub payload: Arc<[u8]>,
    /// Author's Ed25519 signature over [`SosMessage::signing_bytes`].
    pub signature: Signature,
}

impl SosMessage {
    /// The canonical byte string the author signs.
    pub fn signing_bytes(
        id: &MessageId,
        created_at: SimTime,
        kind: MessageKind,
        payload: &[u8],
    ) -> Vec<u8> {
        let mut buf = Vec::with_capacity(40 + payload.len());
        Self::append_signing_bytes(&mut buf, id, created_at, kind, payload);
        buf
    }

    /// Appends [`SosMessage::signing_bytes`] to `buf`, so the signed
    /// strings of a whole frame can share one buffer.
    pub(crate) fn append_signing_bytes(
        buf: &mut Vec<u8>,
        id: &MessageId,
        created_at: SimTime,
        kind: MessageKind,
        payload: &[u8],
    ) {
        buf.bytes(b"SOSMSG1");
        write_signed_fields(buf, id, created_at, kind, payload);
    }

    /// Creates and signs a message.
    ///
    /// # Panics
    ///
    /// Panics if the payload exceeds [`MAX_PAYLOAD`]; the middleware API
    /// validates this before calling.
    pub fn create(
        signer: &SigningKey,
        author: UserId,
        number: u64,
        created_at: SimTime,
        kind: MessageKind,
        payload: Vec<u8>,
    ) -> SosMessage {
        assert!(payload.len() <= MAX_PAYLOAD, "payload exceeds MAX_PAYLOAD");
        let id = MessageId { author, number };
        let signature = signer.sign(&Self::signing_bytes(&id, created_at, kind, &payload));
        SosMessage {
            id,
            created_at,
            kind,
            payload: payload.into(),
            signature,
        }
    }

    /// Verifies the author signature against `author_key`.
    pub fn verify_signature(&self, author_key: &sos_crypto::VerifyingKey) -> bool {
        author_key.verify(
            &Self::signing_bytes(&self.id, self.created_at, self.kind, &self.payload),
            &self.signature,
        )
    }
}

/// A message in transit: the signed message, the originator's
/// certificate, the hop count, and an optional spray-and-wait copy
/// budget.
///
/// The certificate is shared, not owned: [`SyncMsg::decode`] gives every
/// bundle of a frame that carries the same certificate bytes one
/// [`Arc`], and [`MessageStore::insert`] gives a bundle the one its
/// author's held bundles carry when the certificates are equal. Sharing
/// never changes which certificate a bundle holds, only how many copies
/// of it exist: a store of 200 bundles by one author keeps one parsed
/// certificate, not 200, and a `Bundle` is 144 bytes inline, not 360.
///
/// [`SyncMsg::decode`]: crate::sync::SyncMsg::decode
/// [`MessageStore::insert`]: crate::store::MessageStore::insert
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Bundle {
    /// The signed message.
    pub message: SosMessage,
    /// The *originator's* certificate, relayed hop by hop (Fig. 3b).
    pub author_certificate: Arc<Certificate>,
    /// D2D transfers this copy has experienced (0 at the author).
    pub hops: u32,
    /// Remaining copy budget for spray-and-wait routing; `None` for
    /// unlimited-replication schemes.
    pub copies: Option<u32>,
}

// A store keeps one of these per bundle it holds, and every clone
// copies it; the certificate and the payload behind their `Arc`s keep
// it small.
const _: () = assert!(size_of::<Bundle>() <= 144);

impl Bundle {
    /// Wraps a freshly authored message (hops = 0).
    pub fn new(message: SosMessage, author_certificate: Certificate) -> Bundle {
        Bundle {
            message,
            author_certificate: Arc::new(author_certificate),
            hops: 0,
            copies: None,
        }
    }

    /// Full security validation (paper §IV): the attached certificate
    /// chains to the CA root and is within validity and not revoked, its
    /// subject matches the message author, and the author signature
    /// verifies.
    ///
    /// # Errors
    ///
    /// The specific [`BundleRejection`] for the first failed check.
    pub fn verify(&self, validator: &Validator, now_secs: u64) -> Result<(), BundleRejection> {
        self.check_envelope(|cert| validator.validate(cert, now_secs))?;
        if !self
            .message
            .verify_signature(&self.author_certificate.ed25519_public)
        {
            return Err(BundleRejection::BadSignature);
        }
        Ok(())
    }

    /// Every check of [`Bundle::verify`] that precedes the author
    /// signature, in its order. The middleware runs this alone over a
    /// whole received frame, then checks the survivors' signatures as
    /// one batch. The certificate check is the caller's —
    /// `Validator::validate` at one clock, or a frame's memo of it — and
    /// runs only once the number check has passed.
    pub(crate) fn check_envelope<'a>(
        &'a self,
        validate: impl FnOnce(&'a Certificate) -> Result<(), CertError>,
    ) -> Result<(), BundleRejection> {
        // Message numbers start at 1 (§V-A); number 0 is unrepresentable
        // in the sync protocol's have-ranges, so a signed-but-zero
        // number would poison every future request for its author.
        if self.message.id.number == 0 {
            return Err(BundleRejection::Malformed);
        }
        validate(&self.author_certificate).map_err(BundleRejection::Certificate)?;
        if self.author_certificate.subject != self.message.id.author {
            return Err(BundleRejection::AuthorMismatch);
        }
        Ok(())
    }

    /// True when two bundles carry the same message (id, timestamp,
    /// kind, payload, author signature — everything the author signed)
    /// *and* the same certificate envelope. Hop count and copy budget
    /// are transport metadata and deliberately excluded.
    ///
    /// A bundle that content-matches an already *verified* copy needs no
    /// re-verification: the author signature covers the compared message
    /// fields, and the certificate bytes being identical means the
    /// held copy's certificate validation vouches for this one too —
    /// which is what lets the middleware dedup before running any
    /// crypto. A matching message under a *different* certificate (e.g.
    /// a renewal) is not a content match and must be re-verified.
    pub fn content_matches(&self, other: &Bundle) -> bool {
        self.message == other.message && self.author_certificate == other.author_certificate
    }

    /// The bundle's layout with copy budget `copies`, written once: on
    /// a `Vec<u8>` it is [`Bundle::encode`], on a [`Count`] it is
    /// [`Bundle::wire_size`]. The serve path writes a stored bundle
    /// through it with the budget it grants, straight into the frame.
    /// The certificate is streamed in behind its `u16` length (at most a
    /// few hundred bytes, far inside it).
    pub(crate) fn write(&self, copies: Option<u32>, w: &mut impl Writer) {
        let m = &self.message;
        write_signed_fields(w, &m.id, m.created_at, m.kind, &m.payload);
        w.bytes(m.signature.as_bytes());
        w.len16(self.author_certificate.encoded_len());
        self.author_certificate.write(|b| w.bytes(b));
        w.u32(self.hops);
        match copies {
            Some(c) => {
                w.u8(1);
                w.u32(c);
            }
            None => w.u8(0),
        }
    }

    /// Wire encoding.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(
            128 + self.message.payload.len() + self.author_certificate.encoded_len(),
        );
        self.write(self.copies, &mut buf);
        buf
    }

    /// Decodes a bundle.
    ///
    /// # Errors
    ///
    /// [`BundleRejection::Malformed`] for any structural problem,
    /// including oversized payloads.
    pub fn decode(bytes: &[u8]) -> Result<Bundle, BundleRejection> {
        Self::decode_sharing(bytes, &mut None)
    }

    /// [`Bundle::decode`], except that a certificate whose bytes equal
    /// the ones `last` was parsed from is not parsed again: the bundle
    /// gets `last`'s `Arc`. A certificate that is parsed is left in
    /// `last` for the next body. Equal bytes parse to equal
    /// certificates, so the result is `decode`'s in every case.
    pub(crate) fn decode_sharing<'a>(
        bytes: &'a [u8],
        last: &mut Option<(&'a [u8], Arc<Certificate>)>,
    ) -> Result<Bundle, BundleRejection> {
        let mut r = Reader::new(bytes);
        let author = UserId(r.array()?);
        let number = r.u64()?;
        if number == 0 {
            // Numbers start at 1; zero cannot be expressed as a sync
            // have-range and is rejected at the wire.
            return Err(BundleRejection::Malformed);
        }
        let created_at = SimTime::from_millis(r.u64()?);
        let kind = MessageKind::from_byte(r.u8()?).ok_or(BundleRejection::Malformed)?;
        let payload = Arc::from(r.bytes32(MAX_PAYLOAD)?);
        let signature = Signature(r.array()?);
        let cert_bytes = r.bytes16(NO_CAP)?;
        let author_certificate = match last {
            Some((seen, cert)) if *seen == cert_bytes => Arc::clone(cert),
            _ => {
                let cert =
                    Certificate::from_bytes(cert_bytes).map_err(|_| BundleRejection::Malformed)?;
                Arc::clone(&last.insert((cert_bytes, Arc::new(cert))).1)
            }
        };
        let hops = r.u32()?;
        let copies = match r.u8()? {
            0 => None,
            1 => Some(r.u32()?),
            _ => return Err(BundleRejection::Malformed),
        };
        r.finish()?;
        Ok(Bundle {
            message: SosMessage {
                id: MessageId { author, number },
                created_at,
                kind,
                payload,
                signature,
            },
            author_certificate,
            hops,
            copies,
        })
    }

    /// Encoded size in bytes: the encoder run on a byte counter, so
    /// nothing is copied or allocated — the payload and the certificate
    /// are counted where they lie.
    pub fn wire_size(&self) -> usize {
        self.wire_size_with(self.copies)
    }

    /// [`Bundle::wire_size`] with the copy budget replaced by `copies`.
    pub(crate) fn wire_size_with(&self, copies: Option<u32>) -> usize {
        Count::of(|w| self.write(copies, w))
    }
}

/// The fields an author signs, in the order both the signed string
/// (after its domain tag) and the bundle encoding carry them. The
/// payload was validated against [`MAX_PAYLOAD`] at create / decode, far
/// inside its `u32` length field.
fn write_signed_fields(
    w: &mut impl Writer,
    id: &MessageId,
    created_at: SimTime,
    kind: MessageKind,
    payload: &[u8],
) {
    w.bytes(id.author.as_bytes());
    w.u64(id.number);
    w.u64(created_at.as_millis());
    w.u8(kind.to_byte());
    w.bytes32(payload);
}

#[cfg(test)]
mod tests {
    use super::*;
    use sos_crypto::ca::CertificateAuthority;
    use sos_crypto::x25519::AgreementKey;

    fn setup() -> (SigningKey, Certificate, Validator, CertificateAuthority) {
        let mut ca = CertificateAuthority::new("Root", [1u8; 32], 0, u64::MAX);
        let sk = SigningKey::from_seed([2u8; 32]);
        let ak = AgreementKey::from_secret([3u8; 32]);
        let cert = ca.issue(
            UserId::from_str_padded("alice"),
            "Alice",
            sk.verifying_key(),
            *ak.public(),
            0,
        );
        let validator = Validator::new(ca.root_certificate().clone());
        (sk, cert, validator, ca)
    }

    fn sample_bundle() -> (Bundle, Validator, CertificateAuthority) {
        let (sk, cert, validator, ca) = setup();
        let msg = SosMessage::create(
            &sk,
            UserId::from_str_padded("alice"),
            1,
            SimTime::from_secs(50),
            MessageKind::Post,
            b"hello world".to_vec(),
        );
        (Bundle::new(msg, cert), validator, ca)
    }

    #[test]
    fn roundtrip() {
        let (bundle, _, _) = sample_bundle();
        let decoded = Bundle::decode(&bundle.encode()).unwrap();
        assert_eq!(decoded, bundle);
    }

    #[test]
    fn roundtrip_with_copies() {
        let (mut bundle, _, _) = sample_bundle();
        bundle.copies = Some(8);
        bundle.hops = 3;
        let decoded = Bundle::decode(&bundle.encode()).unwrap();
        assert_eq!(decoded, bundle);
    }

    #[test]
    fn verification_passes_for_genuine_bundle() {
        let (bundle, validator, _) = sample_bundle();
        assert!(bundle.verify(&validator, 100).is_ok());
    }

    #[test]
    fn tampered_payload_rejected() {
        let (mut bundle, validator, _) = sample_bundle();
        let mut payload = bundle.message.payload.to_vec();
        payload[0] ^= 1;
        bundle.message.payload = payload.into();
        assert_eq!(
            bundle.verify(&validator, 100).unwrap_err(),
            BundleRejection::BadSignature
        );
    }

    #[test]
    fn forged_author_rejected() {
        // Mallory takes Alice's signed message but swaps in her own
        // certificate (issued by the same CA, so it validates) claiming
        // the author id "alice" is hers... the CA would not issue that,
        // so she uses her own id — author mismatch.
        let (bundle, validator, mut ca) = sample_bundle();
        let msk = SigningKey::from_seed([9u8; 32]);
        let mak = AgreementKey::from_secret([10u8; 32]);
        let mcert = ca.issue(
            UserId::from_str_padded("mallory"),
            "Mallory",
            msk.verifying_key(),
            *mak.public(),
            0,
        );
        let mut forged = bundle.clone();
        forged.author_certificate = Arc::new(mcert);
        assert_eq!(
            forged.verify(&validator, 100).unwrap_err(),
            BundleRejection::AuthorMismatch
        );
    }

    #[test]
    fn wrong_key_signature_rejected() {
        let (sk, cert, validator, _) = setup();
        let _ = sk;
        let wrong_signer = SigningKey::from_seed([77u8; 32]);
        let msg = SosMessage::create(
            &wrong_signer,
            UserId::from_str_padded("alice"),
            1,
            SimTime::from_secs(1),
            MessageKind::Post,
            b"imposter".to_vec(),
        );
        let bundle = Bundle::new(msg, cert);
        assert_eq!(
            bundle.verify(&validator, 100).unwrap_err(),
            BundleRejection::BadSignature
        );
    }

    #[test]
    fn revoked_author_rejected_after_crl_sync() {
        let (bundle, mut validator, mut ca) = sample_bundle();
        ca.revoke(bundle.author_certificate.serial);
        assert!(bundle.verify(&validator, 100).is_ok(), "offline: still ok");
        validator.install_crl(ca.revocation_list(200));
        assert!(matches!(
            bundle.verify(&validator, 200).unwrap_err(),
            BundleRejection::Certificate(sos_crypto::CertError::Revoked)
        ));
    }

    #[test]
    fn zero_message_number_rejected() {
        let (sk, cert, validator, _) = setup();
        let msg = SosMessage::create(
            &sk,
            UserId::from_str_padded("alice"),
            0,
            SimTime::from_secs(1),
            MessageKind::Post,
            b"poison".to_vec(),
        );
        let bundle = Bundle::new(msg, cert);
        // A certified author signing number 0 must be refused at verify
        // (it would poison the author's sync have-ranges) and at decode.
        assert_eq!(
            bundle.verify(&validator, 100).unwrap_err(),
            BundleRejection::Malformed
        );
        assert_eq!(
            Bundle::decode(&bundle.encode()).unwrap_err(),
            BundleRejection::Malformed
        );
    }

    #[test]
    fn truncation_rejected() {
        let (bundle, _, _) = sample_bundle();
        let bytes = bundle.encode();
        for cut in [0, 5, 30, bytes.len() - 1] {
            assert_eq!(
                Bundle::decode(&bytes[..cut]).unwrap_err(),
                BundleRejection::Malformed
            );
        }
    }

    #[test]
    fn oversized_payload_rejected_at_decode() {
        let (bundle, _, _) = sample_bundle();
        let mut bytes = bundle.encode();
        // Patch the payload length field (offset 10+8+8+1 = 27) to huge.
        bytes[27..31].copy_from_slice(&(u32::MAX).to_le_bytes());
        assert_eq!(
            Bundle::decode(&bytes).unwrap_err(),
            BundleRejection::Malformed
        );
    }

    #[test]
    #[should_panic(expected = "MAX_PAYLOAD")]
    fn oversized_payload_panics_at_create() {
        let (sk, _, _, _) = setup();
        SosMessage::create(
            &sk,
            UserId::from_str_padded("alice"),
            1,
            SimTime::ZERO,
            MessageKind::Post,
            vec![0u8; MAX_PAYLOAD + 1],
        );
    }
}
