//! X.509-style certificates binding a 10-byte AlleyOop user identifier to
//! an Ed25519 verification key and an X25519 agreement key.
//!
//! The paper (§IV, Fig. 2a) uses conventional PKI with a one-time
//! infrastructure requirement: at signup the device generates keys and the
//! CA issues a certificate over the unique user identifier. We mirror that
//! with a compact deterministic binary encoding (not ASN.1 — the paper does
//! not depend on DER interoperability) signed by the CA's Ed25519 key.

use crate::ed25519::{Signature, VerifyingKey};
use crate::error::CertError;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// Maximum length of variable-size certificate fields (names, issuer).
pub const MAX_FIELD_LEN: usize = 255;

/// The 10-byte unique user identification string of the paper (§V-A:
/// "The key field in the dictionary is a 10 byte unique user
/// identification string").
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct UserId(pub [u8; 10]);

impl UserId {
    /// Builds a `UserId` from a string, truncating/padding to 10 bytes.
    ///
    /// Human-readable ids ("alice", "node-07") are padded with `0x00`.
    pub fn from_str_padded(s: &str) -> UserId {
        let mut id = [0u8; 10];
        let bytes = s.as_bytes();
        let take = bytes.len().min(10);
        id[..take].copy_from_slice(&bytes[..take]);
        UserId(id)
    }

    /// The raw bytes.
    pub fn as_bytes(&self) -> &[u8; 10] {
        &self.0
    }

    /// Renders printable ASCII, replacing other bytes with `·` and
    /// trimming trailing NULs.
    pub fn display(&self) -> String {
        let end = self
            .0
            .iter()
            .rposition(|&b| b != 0)
            .map(|i| i + 1)
            .unwrap_or(0);
        self.0[..end]
            .iter()
            .map(|&b| {
                if (0x20..0x7f).contains(&b) {
                    b as char
                } else {
                    '·'
                }
            })
            .collect()
    }
}

impl std::fmt::Debug for UserId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "UserId({})", self.display())
    }
}

impl std::fmt::Display for UserId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.display())
    }
}

/// A certificate: the to-be-signed fields plus the issuer signature.
#[derive(Clone, PartialEq, Eq)]
pub struct Certificate {
    /// Issuer-unique serial number.
    pub serial: u64,
    /// The subject's unique 10-byte user identifier.
    pub subject: UserId,
    /// Human-readable subject name (e.g. the chosen handle).
    pub display_name: String,
    /// The subject's Ed25519 verification key (for message signatures).
    pub ed25519_public: VerifyingKey,
    /// The subject's X25519 agreement key (for session key establishment).
    pub x25519_public: [u8; 32],
    /// Name of the issuing CA.
    pub issuer: String,
    /// Start of validity (seconds, simulation epoch).
    pub not_before: u64,
    /// End of validity (seconds, simulation epoch).
    pub not_after: u64,
    /// Issuer Ed25519 signature over [`Certificate::tbs_bytes`].
    pub signature: Signature,
}

impl std::fmt::Debug for Certificate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Certificate")
            .field("serial", &self.serial)
            .field("subject", &self.subject)
            .field("issuer", &self.issuer)
            .field("not_before", &self.not_before)
            .field("not_after", &self.not_after)
            .finish_non_exhaustive()
    }
}

/// The longest prefix of `s` that fits a certificate's one-byte length
/// field and ends on a character boundary: what [`Certificate::write`]
/// writes of a name, and what [`Certificate::from_bytes`] reads back as
/// UTF-8.
pub(crate) fn clamp_field(s: &str) -> &str {
    let mut end = s.len().min(MAX_FIELD_LEN);
    while !s.is_char_boundary(end) {
        end -= 1;
    }
    &s[..end]
}

fn put_var(out: &mut impl FnMut(&[u8]), field: &str) {
    let field = clamp_field(field).as_bytes();
    out(&[u8::try_from(field.len()).unwrap_or(u8::MAX)]);
    out(field);
}

/// Calls of [`Certificate::from_bytes`] since the process started,
/// malformed input included.
#[doc(hidden)]
pub fn certificates_parsed() -> u64 {
    PARSED.load(Relaxed)
}

static PARSED: AtomicU64 = AtomicU64::new(0);

struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(data: &'a [u8]) -> Self {
        Reader { data, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CertError> {
        let end = self.pos.checked_add(n).ok_or(CertError::Malformed)?;
        let out = self.data.get(self.pos..end).ok_or(CertError::Malformed)?;
        self.pos = end;
        Ok(out)
    }

    fn u8(&mut self) -> Result<u8, CertError> {
        Ok(self.take(1)?[0])
    }

    fn u64(&mut self) -> Result<u64, CertError> {
        let mut b = [0u8; 8];
        b.copy_from_slice(self.take(8)?);
        Ok(u64::from_le_bytes(b))
    }

    fn var(&mut self) -> Result<&'a [u8], CertError> {
        let len = self.u8()? as usize;
        self.take(len)
    }

    fn done(&self) -> bool {
        self.pos == self.data.len()
    }
}

/// Certificate format version byte.
const CERT_VERSION: u8 = 1;

impl Certificate {
    /// The wire encoding, streamed into `out` a field at a time: the
    /// to-be-signed fields, then the 64-byte signature. This is the one
    /// encoder; a caller that appends a certificate to a larger buffer,
    /// hashes it or counts it builds no `Vec` of its own.
    pub fn write(&self, mut out: impl FnMut(&[u8])) {
        out(&[CERT_VERSION]);
        out(&self.serial.to_le_bytes());
        out(self.subject.as_bytes());
        put_var(&mut out, &self.display_name);
        out(self.ed25519_public.as_bytes());
        out(&self.x25519_public);
        put_var(&mut out, &self.issuer);
        out(&self.not_before.to_le_bytes());
        out(&self.not_after.to_le_bytes());
        out(self.signature.as_bytes());
    }

    /// The deterministic to-be-signed encoding: everything except the
    /// signature. This is what the CA signs and what validators verify.
    pub fn tbs_bytes(&self) -> Vec<u8> {
        let mut buf = self.to_bytes();
        buf.truncate(buf.len() - self.signature.as_bytes().len());
        buf
    }

    /// Full wire encoding: TBS bytes followed by the 64-byte signature.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(256);
        self.write(|b| buf.extend_from_slice(b));
        buf
    }

    /// The length of [`Certificate::to_bytes`], without encoding: the
    /// fixed-width fields plus the two length-prefixed names.
    pub fn encoded_len(&self) -> usize {
        // version, serial, subject, two keys, validity window, signature
        // and the two name-length bytes.
        const FIXED: usize = 1 + 8 + 10 + 32 + 32 + 8 + 8 + 64 + 2;
        FIXED + clamp_field(&self.display_name).len() + clamp_field(&self.issuer).len()
    }

    /// Parses the wire encoding produced by [`Certificate::to_bytes`].
    ///
    /// # Errors
    ///
    /// Returns [`CertError::Malformed`] on truncation, trailing bytes,
    /// an unknown version, or invalid UTF-8 in name fields.
    pub fn from_bytes(bytes: &[u8]) -> Result<Certificate, CertError> {
        PARSED.fetch_add(1, Relaxed);
        let mut r = Reader::new(bytes);
        if r.u8()? != CERT_VERSION {
            return Err(CertError::Malformed);
        }
        let serial = r.u64()?;
        let mut subject = [0u8; 10];
        subject.copy_from_slice(r.take(10)?);
        let display_name =
            String::from_utf8(r.var()?.to_vec()).map_err(|_| CertError::Malformed)?;
        let mut ed = [0u8; 32];
        ed.copy_from_slice(r.take(32)?);
        let mut x = [0u8; 32];
        x.copy_from_slice(r.take(32)?);
        let issuer = String::from_utf8(r.var()?.to_vec()).map_err(|_| CertError::Malformed)?;
        let not_before = r.u64()?;
        let not_after = r.u64()?;
        let signature = Signature::from_slice(r.take(64)?).ok_or(CertError::Malformed)?;
        if !r.done() {
            return Err(CertError::Malformed);
        }
        Ok(Certificate {
            serial,
            subject: UserId(subject),
            display_name,
            ed25519_public: VerifyingKey(ed),
            x25519_public: x,
            issuer,
            not_before,
            not_after,
            signature,
        })
    }

    /// Checks the issuer signature against `issuer_key`.
    ///
    /// # Errors
    ///
    /// Returns [`CertError::BadIssuerSignature`] when verification fails.
    pub fn verify_issuer(&self, issuer_key: &VerifyingKey) -> Result<(), CertError> {
        if issuer_key.verify(&self.tbs_bytes(), &self.signature) {
            Ok(())
        } else {
            Err(CertError::BadIssuerSignature)
        }
    }

    /// Checks the validity window at time `now` (seconds).
    ///
    /// # Errors
    ///
    /// Returns [`CertError::OutsideValidity`] when `now` is outside
    /// `[not_before, not_after]`.
    pub fn check_validity(&self, now: u64) -> Result<(), CertError> {
        if now < self.not_before || now > self.not_after {
            Err(CertError::OutsideValidity {
                at: now,
                not_before: self.not_before,
                not_after: self.not_after,
            })
        } else {
            Ok(())
        }
    }

    /// A short fingerprint of the certificate (SHA-256 of the encoding).
    pub fn fingerprint(&self) -> [u8; 32] {
        let mut hash = crate::sha2::Sha256::new();
        self.write(|b| {
            hash.update(b);
        });
        hash.finalize()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ed25519::SigningKey;

    fn sample_cert() -> (Certificate, SigningKey) {
        let issuer_key = SigningKey::from_seed([1u8; 32]);
        let subject_key = SigningKey::from_seed([2u8; 32]);
        let mut cert = Certificate {
            serial: 7,
            subject: UserId::from_str_padded("alice"),
            display_name: "Alice".to_string(),
            ed25519_public: subject_key.verifying_key(),
            x25519_public: [3u8; 32],
            issuer: "AlleyOop Root CA".to_string(),
            not_before: 100,
            not_after: 1000,
            signature: Signature([0u8; 64]),
        };
        cert.signature = issuer_key.sign(&cert.tbs_bytes());
        (cert, issuer_key)
    }

    #[test]
    fn wire_roundtrip() {
        let (cert, _) = sample_cert();
        let bytes = cert.to_bytes();
        assert_eq!(cert.encoded_len(), bytes.len());
        assert_eq!(cert.fingerprint(), crate::sha2::sha256(&bytes));
        assert_eq!(bytes[..bytes.len() - 64], cert.tbs_bytes());
        let parsed = Certificate::from_bytes(&bytes).unwrap();
        assert_eq!(parsed, cert);
    }

    #[test]
    fn truncated_rejected() {
        let (cert, _) = sample_cert();
        let bytes = cert.to_bytes();
        for cut in [0, 1, 10, bytes.len() - 1] {
            assert_eq!(
                Certificate::from_bytes(&bytes[..cut]).unwrap_err(),
                CertError::Malformed,
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let (cert, _) = sample_cert();
        let mut bytes = cert.to_bytes();
        bytes.push(0);
        assert_eq!(
            Certificate::from_bytes(&bytes).unwrap_err(),
            CertError::Malformed
        );
    }

    #[test]
    fn issuer_signature_verifies() {
        let (cert, issuer_key) = sample_cert();
        assert!(cert.verify_issuer(&issuer_key.verifying_key()).is_ok());
        let wrong = SigningKey::from_seed([9u8; 32]);
        assert_eq!(
            cert.verify_issuer(&wrong.verifying_key()).unwrap_err(),
            CertError::BadIssuerSignature
        );
    }

    #[test]
    fn tampered_subject_breaks_signature() {
        let (mut cert, issuer_key) = sample_cert();
        cert.subject = UserId::from_str_padded("mallory");
        assert_eq!(
            cert.verify_issuer(&issuer_key.verifying_key()).unwrap_err(),
            CertError::BadIssuerSignature
        );
    }

    #[test]
    fn validity_window() {
        let (cert, _) = sample_cert();
        assert!(cert.check_validity(100).is_ok());
        assert!(cert.check_validity(1000).is_ok());
        assert!(cert.check_validity(99).is_err());
        assert!(cert.check_validity(1001).is_err());
    }

    #[test]
    fn user_id_display() {
        assert_eq!(UserId::from_str_padded("alice").display(), "alice");
        assert_eq!(
            UserId::from_str_padded("a-very-long-name").display(),
            "a-very-lon"
        );
        assert_eq!(UserId([0u8; 10]).display(), "");
    }

    mod fuzz {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Certificates arrive from untrusted peers; parsing
            /// arbitrary bytes must never panic.
            #[test]
            fn from_bytes_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
                let _ = Certificate::from_bytes(&bytes);
            }

            /// A bit flip anywhere in a valid certificate either fails
            /// to parse or fails signature verification — it can never
            /// yield a different *valid* certificate.
            #[test]
            fn bitflip_never_validates(flip_byte in 0usize..256, flip_bit in 0u8..8) {
                let (cert, issuer) = sample_cert();
                let mut bytes = cert.to_bytes();
                let idx = flip_byte % bytes.len();
                bytes[idx] ^= 1 << flip_bit;
                if let Ok(parsed) = Certificate::from_bytes(&bytes) {
                    prop_assert!(
                        parsed.verify_issuer(&issuer.verifying_key()).is_err(),
                        "flipped cert must not verify"
                    );
                }
            }
        }
    }
}
