//! The certificate authority of the one-time infrastructure requirement
//! (paper §IV, Fig. 2a).
//!
//! During account creation the device sends its public keys and unique
//! user identifier to the cloud; the CA issues a certificate binding them.
//! After this single exchange no infrastructure is needed — peers validate
//! each other's certificates against the CA root certificate they received
//! at signup. Revocation requires connectivity again (paper §IV notes this
//! limitation), which we model with a signed revocation list that devices
//! refresh only when "online".

use crate::bounded::FifoMap;
use crate::cert::{clamp_field, Certificate, UserId, MAX_FIELD_LEN};
use crate::ed25519::{Signature, SigningKey, VerifyingKey};
use crate::error::CertError;
use std::collections::BTreeSet;
use std::sync::{Mutex, PoisonError};

/// A signed certificate revocation list.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RevocationList {
    /// Monotonically increasing CRL version.
    pub version: u64,
    /// Issue time (seconds).
    pub issued_at: u64,
    /// Revoked certificate serials.
    pub serials: BTreeSet<u64>,
    /// CA signature over the canonical encoding.
    pub signature: Signature,
}

impl RevocationList {
    fn tbs_bytes(version: u64, issued_at: u64, serials: &BTreeSet<u64>) -> Vec<u8> {
        let mut buf = Vec::with_capacity(16 + serials.len() * 8);
        buf.extend_from_slice(b"SOS-CRL1");
        buf.extend_from_slice(&version.to_le_bytes());
        buf.extend_from_slice(&issued_at.to_le_bytes());
        buf.extend_from_slice(&(serials.len() as u64).to_le_bytes());
        for s in serials {
            buf.extend_from_slice(&s.to_le_bytes());
        }
        buf
    }

    /// Verifies the CA signature over this list.
    ///
    /// # Errors
    ///
    /// Returns [`CertError::BadIssuerSignature`] when verification fails.
    pub fn verify(&self, ca_key: &VerifyingKey) -> Result<(), CertError> {
        let tbs = Self::tbs_bytes(self.version, self.issued_at, &self.serials);
        if ca_key.verify(&tbs, &self.signature) {
            Ok(())
        } else {
            Err(CertError::BadIssuerSignature)
        }
    }
}

/// The AlleyOop certificate authority.
///
/// Issues user certificates, maintains the revocation list, and owns the
/// self-signed root certificate that ships with the application.
#[derive(Debug)]
pub struct CertificateAuthority {
    name: String,
    signing: SigningKey,
    root: Certificate,
    next_serial: u64,
    revoked: BTreeSet<u64>,
    crl_version: u64,
    /// Validity duration for issued certificates, in seconds.
    pub default_validity_secs: u64,
}

impl CertificateAuthority {
    /// Creates a CA with a deterministic key from `seed`.
    ///
    /// The root certificate is self-signed with serial 0 and the given
    /// validity window.
    pub fn new(name: &str, seed: [u8; 32], not_before: u64, not_after: u64) -> Self {
        assert!(name.len() <= MAX_FIELD_LEN, "CA name too long");
        let signing = SigningKey::from_seed(seed);
        let mut root = Certificate {
            serial: 0,
            subject: UserId::from_str_padded("@ca"),
            display_name: name.to_string(),
            ed25519_public: signing.verifying_key(),
            x25519_public: [0u8; 32],
            issuer: name.to_string(),
            not_before,
            not_after,
            signature: Signature([0u8; 64]),
        };
        root.signature = signing.sign(&root.tbs_bytes());
        CertificateAuthority {
            name: name.to_string(),
            signing,
            root,
            next_serial: 1,
            revoked: BTreeSet::new(),
            crl_version: 0,
            default_validity_secs: 365 * 24 * 3600,
        }
    }

    /// The CA's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The self-signed root certificate distributed to devices at signup.
    pub fn root_certificate(&self) -> &Certificate {
        &self.root
    }

    /// The CA's verification key.
    pub fn verifying_key(&self) -> VerifyingKey {
        self.signing.verifying_key()
    }

    /// Issues a certificate binding `subject` to the provided public keys.
    ///
    /// Mirrors Fig. 2a: the device submits its identifier and keys, the CA
    /// returns the signed certificate. A `display_name` longer than
    /// [`MAX_FIELD_LEN`] bytes is cut there, on a character boundary.
    pub fn issue(
        &mut self,
        subject: UserId,
        display_name: &str,
        ed25519_public: VerifyingKey,
        x25519_public: [u8; 32],
        now: u64,
    ) -> Certificate {
        let serial = self.next_serial;
        self.next_serial += 1;
        let mut cert = Certificate {
            serial,
            subject,
            display_name: clamp_field(display_name).to_string(),
            ed25519_public,
            x25519_public,
            issuer: self.name.clone(),
            not_before: now,
            not_after: now + self.default_validity_secs,
            signature: Signature([0u8; 64]),
        };
        cert.signature = self.signing.sign(&cert.tbs_bytes());
        cert
    }

    /// Revokes a certificate by serial. Requires infrastructure
    /// connectivity in the deployed system (paper §IV).
    pub fn revoke(&mut self, serial: u64) {
        if self.revoked.insert(serial) {
            self.crl_version += 1;
        }
    }

    /// Produces the current signed revocation list.
    pub fn revocation_list(&self, now: u64) -> RevocationList {
        let tbs = RevocationList::tbs_bytes(self.crl_version, now, &self.revoked);
        RevocationList {
            version: self.crl_version,
            issued_at: now,
            serials: self.revoked.clone(),
            signature: self.signing.sign(&tbs),
        }
    }
}

/// What the validator remembers about a certificate that already passed
/// the issuer-name and issuer-signature checks: enough to re-run the
/// *time- and state-dependent* checks (validity window, revocation)
/// without touching the signature again.
#[derive(Clone, Copy, Debug)]
struct CachedCert {
    serial: u64,
    not_before: u64,
    not_after: u64,
}

/// Cap on each validator's verified-certificate cache; a full cache
/// gives up its oldest entry per newcomer.
const CERT_CACHE_CAP: usize = 4096;

/// Device-side certificate validator: holds the root certificate and the
/// most recently fetched revocation list.
///
/// This is the state a phone carries after the one-time signup; it works
/// entirely offline. [`Validator::validate`] is the check every SOS node
/// runs on peer certificates during connection establishment and on
/// originator certificates attached to forwarded messages (paper Fig. 3b).
///
/// Validation results are cached by certificate-bytes hash: the issuer
/// signature over a given byte string never changes, so each author's
/// chain is verified once per node instead of once per received bundle
/// (~25 µs → ~1 µs on repeats). The validity window is re-checked at
/// every hit and the revocation list at every hit *and* on
/// [`Validator::install_crl`], so expiry and revocation invalidate
/// cached certificates immediately.
#[derive(Debug)]
pub struct Validator {
    root: Certificate,
    crl: Option<RevocationList>,
    /// fingerprint → proven-signature facts; interior mutability keeps
    /// `validate(&self)` signature-compatible and the validator `Sync`.
    cache: Mutex<FifoMap<[u8; 32], CachedCert>>,
}

// Cache locks recover from poisoning (`PoisonError::into_inner`) rather
// than panicking: the cache only ever holds facts already proven against
// the root key, so a writer that died mid-update cannot leave it in a
// state that validates anything unproven.
impl Clone for Validator {
    fn clone(&self) -> Validator {
        Validator {
            root: self.root.clone(),
            crl: self.crl.clone(),
            cache: Mutex::new(
                self.cache
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .clone(),
            ),
        }
    }
}

impl Validator {
    /// Creates a validator trusting `root`.
    pub fn new(root: Certificate) -> Validator {
        Validator {
            root,
            crl: None,
            cache: Mutex::new(FifoMap::new(CERT_CACHE_CAP)),
        }
    }

    /// The trusted root certificate.
    pub fn root(&self) -> &Certificate {
        &self.root
    }

    /// Number of certificates whose issuer signature is currently cached
    /// (observability for tests and stats).
    pub fn cached_certs(&self) -> usize {
        self.cache
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// Installs a newer revocation list if it verifies and is newer than
    /// the current one. Returns whether it was accepted.
    ///
    /// Accepting a CRL purges newly revoked serials from the verified
    /// cache (they would be refused at lookup anyway; purging keeps the
    /// cache honest).
    pub fn install_crl(&mut self, crl: RevocationList) -> bool {
        if crl.verify(&self.root.ed25519_public).is_err() {
            return false;
        }
        match &self.crl {
            Some(existing) if existing.version >= crl.version => false,
            _ => {
                self.cache
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .retain(|_, c| !crl.serials.contains(&c.serial));
                self.crl = Some(crl);
                true
            }
        }
    }

    /// Validates a peer certificate at time `now`:
    /// issuer name, issuer signature, validity window and revocation.
    ///
    /// The signature-dependent checks are served from the verified cache
    /// when this exact certificate byte string has passed them before;
    /// validity and revocation are always evaluated against the current
    /// `now` and CRL.
    ///
    /// # Errors
    ///
    /// Returns the specific [`CertError`] for the first failed check.
    pub fn validate(&self, cert: &Certificate, now: u64) -> Result<(), CertError> {
        let fp = cert.fingerprint();
        let cached = self
            .cache
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&fp)
            .copied();
        if let Some(entry) = cached {
            // Issuer name + signature were proven for these exact bytes.
            if now < entry.not_before || now > entry.not_after {
                return Err(CertError::OutsideValidity {
                    at: now,
                    not_before: entry.not_before,
                    not_after: entry.not_after,
                });
            }
            if let Some(crl) = &self.crl {
                if crl.serials.contains(&entry.serial) {
                    return Err(CertError::Revoked);
                }
            }
            return Ok(());
        }
        if cert.issuer != self.root.issuer {
            return Err(CertError::UnknownIssuer);
        }
        cert.verify_issuer(&self.root.ed25519_public)?;
        cert.check_validity(now)?;
        if let Some(crl) = &self.crl {
            if crl.serials.contains(&cert.serial) {
                return Err(CertError::Revoked);
            }
        }
        let proven = CachedCert {
            serial: cert.serial,
            not_before: cert.not_before,
            not_after: cert.not_after,
        };
        self.cache
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(fp, proven);
        Ok(())
    }

    /// Validates and additionally checks the claimed user id matches the
    /// certificate subject (paper §IV: the cloud asks the CA to compare
    /// the unique user-identifier).
    ///
    /// # Errors
    ///
    /// Returns [`CertError::UserIdMismatch`] if `claimed` differs from the
    /// certificate subject, or any error from [`Validator::validate`].
    pub fn validate_identity(
        &self,
        cert: &Certificate,
        claimed: &UserId,
        now: u64,
    ) -> Result<(), CertError> {
        self.validate(cert, now)?;
        if &cert.subject != claimed {
            return Err(CertError::UserIdMismatch);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ed25519::SigningKey;
    use crate::x25519::AgreementKey;

    fn setup() -> (CertificateAuthority, Validator) {
        let ca = CertificateAuthority::new("AlleyOop Root CA", [42u8; 32], 0, 1_000_000_000);
        let validator = Validator::new(ca.root_certificate().clone());
        (ca, validator)
    }

    fn device_keys(seed: u8) -> (SigningKey, AgreementKey) {
        (
            SigningKey::from_seed([seed; 32]),
            AgreementKey::from_secret([seed.wrapping_add(1); 32]),
        )
    }

    #[test]
    fn issue_and_validate() {
        let (mut ca, validator) = setup();
        let (sk, ak) = device_keys(1);
        let cert = ca.issue(
            UserId::from_str_padded("alice"),
            "Alice",
            sk.verifying_key(),
            *ak.public(),
            100,
        );
        assert!(validator.validate(&cert, 100).is_ok());
        assert!(validator
            .validate_identity(&cert, &UserId::from_str_padded("alice"), 100)
            .is_ok());
    }

    /// 255 *characters* of a two-byte letter are 510 bytes: a handle is
    /// cut to what the certificate's one-byte length field holds, on a
    /// character boundary, so the certificate that is signed is the one
    /// that is sent. Held in debug (an assertion used to fire) and in
    /// release (the length byte used to wrap to 144 and the certificate
    /// no longer parsed).
    #[test]
    fn a_long_multibyte_handle_is_cut_to_the_length_byte_and_round_trips() {
        let (mut ca, validator) = setup();
        let (sk, ak) = device_keys(1);
        let subject = UserId::from_str_padded("elodie");
        for (handle, kept) in [
            ("é".repeat(200), "é".repeat(127)),
            (
                format!("x{}", "é".repeat(200)),
                format!("x{}", "é".repeat(127)),
            ),
            ("é".repeat(127), "é".repeat(127)),
        ] {
            let cert = ca.issue(subject, &handle, sk.verifying_key(), *ak.public(), 100);
            assert_eq!(cert.display_name, kept);
            let bytes = cert.to_bytes();
            assert_eq!(cert.encoded_len(), bytes.len());
            assert_eq!(Certificate::from_bytes(&bytes).unwrap(), cert);
            assert!(validator.validate(&cert, 100).is_ok());
        }
        // A certificate built by hand around an over-long name encodes
        // the same prefix instead of panicking or wrapping its length.
        let mut cert = ca.issue(subject, "e", sk.verifying_key(), *ak.public(), 100);
        cert.display_name = "é".repeat(200);
        let bytes = cert.to_bytes();
        assert_eq!(cert.encoded_len(), bytes.len());
        assert_eq!(
            Certificate::from_bytes(&bytes).unwrap().display_name,
            "é".repeat(127)
        );
    }

    #[test]
    fn wrong_identity_rejected() {
        let (mut ca, validator) = setup();
        let (sk, ak) = device_keys(1);
        let cert = ca.issue(
            UserId::from_str_padded("alice"),
            "Alice",
            sk.verifying_key(),
            *ak.public(),
            100,
        );
        assert_eq!(
            validator
                .validate_identity(&cert, &UserId::from_str_padded("mallory"), 100)
                .unwrap_err(),
            CertError::UserIdMismatch
        );
    }

    #[test]
    fn self_signed_impostor_rejected() {
        let (_ca, validator) = setup();
        // Mallory makes her own CA with the same name but different keys.
        let mut fake_ca =
            CertificateAuthority::new("AlleyOop Root CA", [66u8; 32], 0, 1_000_000_000);
        let (sk, ak) = device_keys(2);
        let cert = fake_ca.issue(
            UserId::from_str_padded("alice"),
            "Alice",
            sk.verifying_key(),
            *ak.public(),
            100,
        );
        assert_eq!(
            validator.validate(&cert, 100).unwrap_err(),
            CertError::BadIssuerSignature
        );
    }

    #[test]
    fn unknown_issuer_rejected() {
        let (_ca, validator) = setup();
        let mut other = CertificateAuthority::new("Other CA", [66u8; 32], 0, 1_000_000_000);
        let (sk, ak) = device_keys(2);
        let cert = other.issue(
            UserId::from_str_padded("bob"),
            "Bob",
            sk.verifying_key(),
            *ak.public(),
            100,
        );
        assert_eq!(
            validator.validate(&cert, 100).unwrap_err(),
            CertError::UnknownIssuer
        );
    }

    #[test]
    fn revocation_flow() {
        let (mut ca, mut validator) = setup();
        let (sk, ak) = device_keys(3);
        let cert = ca.issue(
            UserId::from_str_padded("carol"),
            "Carol",
            sk.verifying_key(),
            *ak.public(),
            100,
        );
        assert!(validator.validate(&cert, 200).is_ok());
        // Offline node does not know about revocations until it syncs.
        ca.revoke(cert.serial);
        assert!(validator.validate(&cert, 200).is_ok());
        // Node comes online and fetches the CRL.
        assert!(validator.install_crl(ca.revocation_list(300)));
        assert_eq!(
            validator.validate(&cert, 300).unwrap_err(),
            CertError::Revoked
        );
    }

    #[test]
    fn crl_tampering_rejected() {
        let (mut ca, mut validator) = setup();
        ca.revoke(5);
        let mut crl = ca.revocation_list(100);
        crl.serials.insert(6); // tamper after signing
        assert!(!validator.install_crl(crl));
    }

    #[test]
    fn stale_crl_not_installed() {
        let (mut ca, mut validator) = setup();
        ca.revoke(1);
        let v1 = ca.revocation_list(100);
        ca.revoke(2);
        let v2 = ca.revocation_list(200);
        assert!(validator.install_crl(v2));
        assert!(!validator.install_crl(v1), "older CRL must not downgrade");
    }

    #[test]
    fn expired_certificate_rejected() {
        let (mut ca, validator) = setup();
        ca.default_validity_secs = 10;
        let (sk, ak) = device_keys(4);
        let cert = ca.issue(
            UserId::from_str_padded("dave"),
            "Dave",
            sk.verifying_key(),
            *ak.public(),
            100,
        );
        assert!(validator.validate(&cert, 105).is_ok());
        assert!(matches!(
            validator.validate(&cert, 111).unwrap_err(),
            CertError::OutsideValidity { .. }
        ));
    }

    #[test]
    fn cached_validation_matches_fresh_across_states() {
        // The cached path must return the same verdicts as a fresh
        // validator through expiry and revocation transitions.
        let (mut ca, cached) = setup();
        ca.default_validity_secs = 100;
        let (sk, ak) = device_keys(6);
        let cert = ca.issue(
            UserId::from_str_padded("erin"),
            "Erin",
            sk.verifying_key(),
            *ak.public(),
            50,
        );
        // Warm the cache.
        assert!(cached.validate(&cert, 60).is_ok());
        assert_eq!(cached.cached_certs(), 1);
        for now in [49u64, 50, 60, 150, 151, 10_000] {
            let fresh = Validator::new(ca.root_certificate().clone());
            assert_eq!(
                cached.validate(&cert, now),
                fresh.validate(&cert, now),
                "divergence at now={now}"
            );
        }
        // Expiry is enforced on the cached path.
        assert!(matches!(
            cached.validate(&cert, 151).unwrap_err(),
            CertError::OutsideValidity { .. }
        ));
    }

    #[test]
    fn revocation_invalidates_cached_certificate() {
        let (mut ca, mut validator) = setup();
        let (sk, ak) = device_keys(7);
        let cert = ca.issue(
            UserId::from_str_padded("frank"),
            "Frank",
            sk.verifying_key(),
            *ak.public(),
            0,
        );
        assert!(validator.validate(&cert, 10).is_ok());
        assert_eq!(validator.cached_certs(), 1);
        ca.revoke(cert.serial);
        assert!(validator.install_crl(ca.revocation_list(20)));
        // The CRL install purged the entry, and a re-validate (which
        // re-proves the signature and re-caches) still reports Revoked.
        assert_eq!(validator.cached_certs(), 0);
        assert_eq!(
            validator.validate(&cert, 30).unwrap_err(),
            CertError::Revoked
        );
        assert_eq!(
            validator.validate(&cert, 40).unwrap_err(),
            CertError::Revoked
        );
    }

    #[test]
    fn full_cache_gives_up_one_certificate_not_all() {
        let (mut ca, validator) = setup();
        let (sk, ak) = device_keys(9);
        let mut issue = |n: usize| {
            ca.issue(
                UserId::from_str_padded(&format!("u{n}")),
                "U",
                sk.verifying_key(),
                *ak.public(),
                0,
            )
        };
        for n in 0..CERT_CACHE_CAP {
            assert!(validator.validate(&issue(n), 10).is_ok());
        }
        assert_eq!(validator.cached_certs(), CERT_CACHE_CAP);
        // The newcomer that used to empty the cache now costs one entry.
        assert!(validator.validate(&issue(CERT_CACHE_CAP), 10).is_ok());
        assert_eq!(validator.cached_certs(), CERT_CACHE_CAP);
    }

    #[test]
    fn tampered_certificate_not_served_from_cache() {
        // Caching is keyed by the full certificate byte hash: a
        // tampered variant of a cached certificate must re-run (and
        // fail) the signature check, not hit the cache.
        let (mut ca, validator) = setup();
        let (sk, ak) = device_keys(8);
        let cert = ca.issue(
            UserId::from_str_padded("grace"),
            "Grace",
            sk.verifying_key(),
            *ak.public(),
            0,
        );
        assert!(validator.validate(&cert, 10).is_ok());
        let mut tampered = cert.clone();
        tampered.not_after = u64::MAX; // extend lifetime without re-signing
        assert_eq!(
            validator.validate(&tampered, 10).unwrap_err(),
            CertError::BadIssuerSignature
        );
    }

    #[test]
    fn serials_are_unique() {
        let (mut ca, _) = setup();
        let (sk, ak) = device_keys(5);
        let c1 = ca.issue(
            UserId::from_str_padded("u1"),
            "U1",
            sk.verifying_key(),
            *ak.public(),
            0,
        );
        let c2 = ca.issue(
            UserId::from_str_padded("u2"),
            "U2",
            sk.verifying_key(),
            *ak.public(),
            0,
        );
        assert_ne!(c1.serial, c2.serial);
    }
}
