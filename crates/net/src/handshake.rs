//! The authenticated session handshake of Figs. 2b and 3a.
//!
//! When a browser decides an advertiser is interesting it requests a
//! connection; the devices exchange certificates, validate them against
//! the AlleyOop root CA, and establish an encrypted session. We make the
//! construction explicit (the paper delegates transport encryption to
//! MPC but adds its own certificate exchange on top):
//!
//! 1. Initiator → Responder: certificate, ephemeral X25519 key,
//!    Ed25519 signature over the ephemeral key (domain-separated).
//! 2. Responder validates the certificate chain and signature, replies
//!    with its own certificate, ephemeral key, and a signature binding
//!    *both* ephemerals.
//! 3. Both sides derive directional ChaCha20-Poly1305 keys with
//!    HKDF-SHA-256 and the session transcript.
//!
//! Limitations (accepted for a reproduction): the initiator's signature
//! does not bind the responder's ephemeral (it cannot — it is sent
//! first), so the first message is replayable; a replayed init still
//! cannot decrypt anything because the responder's ephemeral is fresh.

use crate::error::NetError;
use serde::{Deserialize, Serialize};
use sos_crypto::aead;
use sos_crypto::cert::Certificate;
use sos_crypto::hkdf::hkdf;
use sos_crypto::x25519::AgreementKey;
use sos_crypto::{DeviceIdentity, Signature};

/// Domain-separation prefix for initiator handshake signatures.
const SIG_CONTEXT_INIT: &[u8] = b"sos-handshake-init-v1";
/// Domain-separation prefix for responder handshake signatures.
const SIG_CONTEXT_RESP: &[u8] = b"sos-handshake-resp-v1";
/// HKDF salt for session key derivation.
const KDF_SALT: &[u8] = b"sos-session-v1";

/// First handshake message (Bob requests a connection from Alice in
/// Fig. 2b: "Bob sends his certificate").
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct HandshakeInit {
    /// Initiator's certificate.
    pub certificate: Certificate,
    /// Initiator's ephemeral X25519 public key.
    pub ephemeral_public: [u8; 32],
    /// Signature by the initiator's long-term key over
    /// `SIG_CONTEXT_INIT || ephemeral_public`.
    pub signature: Signature,
}

/// Second handshake message.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct HandshakeResponse {
    /// Responder's certificate.
    pub certificate: Certificate,
    /// Responder's ephemeral X25519 public key.
    pub ephemeral_public: [u8; 32],
    /// Signature over `SIG_CONTEXT_RESP || resp_ephemeral || init_ephemeral`.
    pub signature: Signature,
}

fn derive_keys(
    shared: &[u8; 32],
    init_eph: &[u8; 32],
    resp_eph: &[u8; 32],
) -> ([u8; 32], [u8; 32]) {
    let mut info = Vec::with_capacity(64);
    info.extend_from_slice(init_eph);
    info.extend_from_slice(resp_eph);
    let mut okm = [0u8; 64];
    hkdf(KDF_SALT, shared, &info, &mut okm);
    let mut i2r = [0u8; 32];
    let mut r2i = [0u8; 32];
    i2r.copy_from_slice(&okm[..32]);
    r2i.copy_from_slice(&okm[32..]);
    (i2r, r2i)
}

/// Directional encrypted channel state after a completed handshake.
///
/// Sequence numbers serve as AEAD nonces (fresh ephemeral keys make them
/// unique) and provide replay/reorder detection: the receiver requires
/// strictly sequential numbering.
#[derive(Clone, Debug)]
pub struct SessionCrypto {
    send_key: [u8; 32],
    recv_key: [u8; 32],
    send_seq: u64,
    recv_seq: u64,
}

impl SessionCrypto {
    /// Encrypts a payload, returning `(seq, ciphertext)`.
    pub fn seal(&mut self, aad: &[u8], payload: &[u8]) -> (u64, Vec<u8>) {
        let seq = self.send_seq;
        self.send_seq += 1;
        let nonce = aead::counter_nonce(0, seq);
        (seq, aead::seal(&self.send_key, &nonce, aad, payload))
    }

    /// Decrypts a payload with strict sequencing.
    ///
    /// # Errors
    ///
    /// [`NetError::OutOfOrder`] on a sequence gap (a frame was lost or
    /// replayed); [`NetError::Crypto`] when the AEAD tag fails.
    pub fn open(&mut self, seq: u64, aad: &[u8], ciphertext: &[u8]) -> Result<Vec<u8>, NetError> {
        if seq != self.recv_seq {
            return Err(NetError::OutOfOrder {
                expected: self.recv_seq,
                got: seq,
            });
        }
        let nonce = aead::counter_nonce(0, seq);
        let plain = aead::open(&self.recv_key, &nonce, aad, ciphertext)?;
        self.recv_seq += 1;
        Ok(plain)
    }

    /// Number of payloads sent so far.
    pub fn sent_count(&self) -> u64 {
        self.send_seq
    }
}

/// Initiator side of the handshake.
#[derive(Debug)]
pub struct Initiator {
    ephemeral: AgreementKey,
    init_msg: HandshakeInit,
}

impl Initiator {
    /// Starts a handshake: generates the ephemeral key and the first
    /// message.
    pub fn start<R: rand::RngCore>(identity: &DeviceIdentity, rng: &mut R) -> Initiator {
        let ephemeral = AgreementKey::generate(rng);
        let mut signed = Vec::with_capacity(64);
        signed.extend_from_slice(SIG_CONTEXT_INIT);
        signed.extend_from_slice(ephemeral.public());
        let signature = identity.sign(&signed);
        let init_msg = HandshakeInit {
            certificate: identity.certificate().clone(),
            ephemeral_public: *ephemeral.public(),
            signature,
        };
        Initiator {
            ephemeral,
            init_msg,
        }
    }

    /// The message to send to the responder.
    pub fn message(&self) -> &HandshakeInit {
        &self.init_msg
    }

    /// Processes the responder's reply, completing the handshake.
    ///
    /// # Errors
    ///
    /// Certificate validation errors, [`NetError::BadHandshakeSignature`],
    /// or [`NetError::Crypto`] for a non-contributory ECDH result.
    pub fn finish(
        self,
        identity: &DeviceIdentity,
        response: &HandshakeResponse,
        now_secs: u64,
    ) -> Result<(SessionCrypto, Certificate), NetError> {
        identity
            .validator()
            .validate(&response.certificate, now_secs)?;
        let mut signed = Vec::with_capacity(96);
        signed.extend_from_slice(SIG_CONTEXT_RESP);
        signed.extend_from_slice(&response.ephemeral_public);
        signed.extend_from_slice(self.ephemeral.public());
        if !response
            .certificate
            .ed25519_public
            .verify(&signed, &response.signature)
        {
            return Err(NetError::BadHandshakeSignature);
        }
        let shared = self
            .ephemeral
            .agree(&response.ephemeral_public)
            .ok_or(NetError::Crypto(
                sos_crypto::CryptoError::NonContributoryAgreement,
            ))?;
        let (i2r, r2i) = derive_keys(&shared, self.ephemeral.public(), &response.ephemeral_public);
        Ok((
            SessionCrypto {
                send_key: i2r,
                recv_key: r2i,
                send_seq: 0,
                recv_seq: 0,
            },
            response.certificate.clone(),
        ))
    }
}

/// Responder side of the handshake.
#[derive(Debug)]
pub struct Responder;

impl Responder {
    /// Processes an init message: validates the initiator's certificate
    /// and signature, and produces the response plus the completed
    /// session crypto.
    ///
    /// # Errors
    ///
    /// Certificate validation errors, [`NetError::BadHandshakeSignature`],
    /// or [`NetError::Crypto`] for a non-contributory ECDH result.
    pub fn respond<R: rand::RngCore>(
        identity: &DeviceIdentity,
        init: &HandshakeInit,
        now_secs: u64,
        rng: &mut R,
    ) -> Result<(HandshakeResponse, SessionCrypto, Certificate), NetError> {
        identity.validator().validate(&init.certificate, now_secs)?;
        let mut signed = Vec::with_capacity(64);
        signed.extend_from_slice(SIG_CONTEXT_INIT);
        signed.extend_from_slice(&init.ephemeral_public);
        if !init
            .certificate
            .ed25519_public
            .verify(&signed, &init.signature)
        {
            return Err(NetError::BadHandshakeSignature);
        }
        let ephemeral = AgreementKey::generate(rng);
        let shared = ephemeral
            .agree(&init.ephemeral_public)
            .ok_or(NetError::Crypto(
                sos_crypto::CryptoError::NonContributoryAgreement,
            ))?;
        let mut resp_signed = Vec::with_capacity(96);
        resp_signed.extend_from_slice(SIG_CONTEXT_RESP);
        resp_signed.extend_from_slice(ephemeral.public());
        resp_signed.extend_from_slice(&init.ephemeral_public);
        let signature = identity.sign(&resp_signed);
        let response = HandshakeResponse {
            certificate: identity.certificate().clone(),
            ephemeral_public: *ephemeral.public(),
            signature,
        };
        let (i2r, r2i) = derive_keys(&shared, &init.ephemeral_public, ephemeral.public());
        Ok((
            response,
            SessionCrypto {
                send_key: r2i,
                recv_key: i2r,
                send_seq: 0,
                recv_seq: 0,
            },
            init.certificate.clone(),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use sos_crypto::ca::{CertificateAuthority, Validator};
    use sos_crypto::cert::UserId;
    use sos_crypto::ed25519::SigningKey;

    fn identity(ca: &mut CertificateAuthority, seed: u8, name: &str) -> DeviceIdentity {
        let signing = SigningKey::from_seed([seed; 32]);
        let agreement = AgreementKey::from_secret([seed.wrapping_add(50); 32]);
        let uid = UserId::from_str_padded(name);
        let cert = ca.issue(uid, name, signing.verifying_key(), *agreement.public(), 0);
        DeviceIdentity::new(
            uid,
            signing,
            agreement,
            cert,
            Validator::new(ca.root_certificate().clone()),
        )
    }

    fn pair() -> (DeviceIdentity, DeviceIdentity) {
        let mut ca = CertificateAuthority::new("Root", [1u8; 32], 0, u64::MAX);
        (identity(&mut ca, 10, "alice"), identity(&mut ca, 20, "bob"))
    }

    #[test]
    fn full_handshake_and_data_exchange() {
        let (alice, bob) = pair();
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);

        let init = Initiator::start(&bob, &mut rng); // Bob requests (Fig. 2b)
        let (response, mut alice_sess, bob_cert) =
            Responder::respond(&alice, init.message(), 100, &mut rng).unwrap();
        assert_eq!(bob_cert.subject, *bob.user_id());
        let (mut bob_sess, alice_cert) = init.finish(&bob, &response, 100).unwrap();
        assert_eq!(alice_cert.subject, *alice.user_id());

        // Bidirectional encrypted traffic.
        let (seq, ct) = bob_sess.seal(b"ctx", b"hello alice");
        assert_eq!(alice_sess.open(seq, b"ctx", &ct).unwrap(), b"hello alice");
        let (seq, ct) = alice_sess.seal(b"ctx", b"hello bob");
        assert_eq!(bob_sess.open(seq, b"ctx", &ct).unwrap(), b"hello bob");
    }

    #[test]
    fn ephemeral_public_keys_are_the_ladder_image_of_the_rng_stream() {
        // Pins the transcript: the ephemeral secrets are the next 32
        // bytes of the caller's RNG, initiator first, and each public key
        // is X25519(secret, 9) as the Montgomery ladder computes it —
        // however `AgreementKey` derives it. A keygen change that drew
        // differently from the RNG, or produced another encoding, would
        // change every handshake frame on the wire and fails here.
        use rand::RngCore;
        use sos_crypto::x25519::{x25519, BASEPOINT};
        let (alice, bob) = pair();
        let mut rng = rand::rngs::StdRng::seed_from_u64(20170605);
        let mut oracle = rng.clone();
        let mut next_secret = || {
            let mut secret = [0u8; 32];
            oracle.fill_bytes(&mut secret);
            secret
        };

        let init = Initiator::start(&bob, &mut rng);
        let init_secret = next_secret();
        assert_eq!(
            init.message().ephemeral_public,
            x25519(&init_secret, &BASEPOINT)
        );
        let (response, mut alice_sess, _) =
            Responder::respond(&alice, init.message(), 0, &mut rng).unwrap();
        let resp_secret = next_secret();
        assert_eq!(response.ephemeral_public, x25519(&resp_secret, &BASEPOINT));
        // And the session keys are derived from the ladder's shared
        // secret over exactly those two public keys.
        let shared = x25519(&init_secret, &response.ephemeral_public);
        assert_eq!(
            shared,
            x25519(&resp_secret, &init.message().ephemeral_public)
        );
        let (i2r, _) = derive_keys(
            &shared,
            &init.message().ephemeral_public,
            &response.ephemeral_public,
        );
        let (mut bob_sess, _) = init.finish(&bob, &response, 0).unwrap();
        assert_eq!(bob_sess.send_key, i2r);
        let (seq, ct) = bob_sess.seal(b"", b"pinned");
        assert_eq!(alice_sess.open(seq, b"", &ct).unwrap(), b"pinned");
    }

    #[test]
    fn sequence_gap_detected() {
        let (alice, bob) = pair();
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let init = Initiator::start(&bob, &mut rng);
        let (response, mut alice_sess, _) =
            Responder::respond(&alice, init.message(), 0, &mut rng).unwrap();
        let (mut bob_sess, _) = init.finish(&bob, &response, 0).unwrap();

        let (_seq0, _lost) = bob_sess.seal(b"", b"frame 0 is lost");
        let (seq1, ct1) = bob_sess.seal(b"", b"frame 1");
        assert_eq!(
            alice_sess.open(seq1, b"", &ct1).unwrap_err(),
            NetError::OutOfOrder {
                expected: 0,
                got: 1
            }
        );
    }

    #[test]
    fn replayed_frame_rejected() {
        let (alice, bob) = pair();
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let init = Initiator::start(&bob, &mut rng);
        let (response, mut alice_sess, _) =
            Responder::respond(&alice, init.message(), 0, &mut rng).unwrap();
        let (mut bob_sess, _) = init.finish(&bob, &response, 0).unwrap();

        let (seq, ct) = bob_sess.seal(b"", b"once");
        assert!(alice_sess.open(seq, b"", &ct).is_ok());
        assert!(matches!(
            alice_sess.open(seq, b"", &ct).unwrap_err(),
            NetError::OutOfOrder { .. }
        ));
    }

    #[test]
    fn impostor_certificate_rejected() {
        let (alice, _bob) = pair();
        // Mallory has a cert from a different CA claiming to be "bob".
        let mut evil_ca = CertificateAuthority::new("Root", [66u8; 32], 0, u64::MAX);
        let mallory = identity(&mut evil_ca, 30, "bob");
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
        let init = Initiator::start(&mallory, &mut rng);
        let err = Responder::respond(&alice, init.message(), 0, &mut rng).unwrap_err();
        assert!(matches!(err, NetError::Certificate(_)), "{err:?}");
    }

    #[test]
    fn tampered_ephemeral_rejected() {
        let (alice, bob) = pair();
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let init = Initiator::start(&bob, &mut rng);
        let mut msg = init.message().clone();
        msg.ephemeral_public[0] ^= 1; // MITM swaps the ephemeral
        let err = Responder::respond(&alice, &msg, 0, &mut rng).unwrap_err();
        assert_eq!(err, NetError::BadHandshakeSignature);
    }

    #[test]
    fn expired_certificate_rejected_at_handshake() {
        let mut ca = CertificateAuthority::new("Root", [1u8; 32], 0, u64::MAX);
        ca.default_validity_secs = 100;
        let alice = identity(&mut ca, 10, "alice");
        let bob = identity(&mut ca, 20, "bob");
        let mut rng = rand::rngs::StdRng::seed_from_u64(8);
        let init = Initiator::start(&bob, &mut rng);
        // Far in the future: bob's certificate has expired.
        let err = Responder::respond(&alice, init.message(), 10_000, &mut rng).unwrap_err();
        assert!(matches!(
            err,
            NetError::Certificate(sos_crypto::CertError::OutsideValidity { .. })
        ));
    }

    #[test]
    fn wrong_signer_rejected() {
        let (alice, bob) = pair();
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let init = Initiator::start(&bob, &mut rng);
        let mut msg = init.message().clone();
        // Replace the signature with one from a different key.
        let other = SigningKey::from_seed([99u8; 32]);
        let mut signed = Vec::new();
        signed.extend_from_slice(SIG_CONTEXT_INIT);
        signed.extend_from_slice(&msg.ephemeral_public);
        msg.signature = other.sign(&signed);
        let err = Responder::respond(&alice, &msg, 0, &mut rng).unwrap_err();
        assert_eq!(err, NetError::BadHandshakeSignature);
    }
}
