//! The authenticated session handshake of Figs. 2b and 3a, and its
//! resumed form for two peers that have met before.
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
//!    HKDF-SHA-256 and the session transcript. The third 32-byte block
//!    of that same expand is the pair's first **ticket secret**: each
//!    side keeps it with the peer's validated certificate as a
//!    [`Ticket`].
//!
//! Which checks build key tables: the certificate check goes through the
//! CA key, which every handshake uses, so its prepared-key table is built
//! once and then hit. The peer's signature goes through
//! [`VerifyingKey::verify_without_admission`]: through the peer's table
//! when the bundle path has already built one, one-shot otherwise, and
//! never building a table itself. A peer's key signs once per full
//! handshake (the pair's next meetings resume from the ticket), so a
//! table of it (15 KiB, and a build that costs about two one-shot
//! checks) would be used once; a first contact between strangers
//! therefore builds none.
//!
//! [`VerifyingKey::verify_without_admission`]: sos_crypto::ed25519::VerifyingKey::verify_without_admission
//!
//! # The resumed exchange
//!
//! A social contact process is a few pairs meeting again and again, so
//! a later session between ticket holders proves possession of the
//! secret instead of repeating three X25519 operations, two signatures,
//! two verifications and two certificate transfers:
//!
//! 1. Initiator → Responder: the public ticket id (an HMAC of the
//!    secret), a fresh 32-byte nonce, and `HMAC(secret, "init" ‖ nonce_i)`.
//! 2. The responder answers [`HandshakeResponse::Miss`] — keeping no
//!    state, and the initiator falls back to the full handshake — unless
//!    it holds a ticket with exactly that id and resumptions left. It
//!    then checks the MAC, re-validates the ticket's certificate at the
//!    current time (expiry and CRL revocation refuse a resumed session
//!    with the same error as a full one), and replies with its own nonce
//!    and the key confirmation `HMAC(secret, "resp" ‖ nonce_i ‖ nonce_r)`,
//!    which the initiator checks after the same certificate validation.
//! 3. Session keys are `HKDF(secret, nonce_i ‖ nonce_r)`, and both sides
//!    **ratchet**: `secret ← HKDF(secret, "ratchet" ‖ nonce_i ‖ nonce_r)`,
//!    dropping the old value.
//!
//! What the ratchet keeps: forward secrecy of past sessions. HKDF is
//! one-way, so a device seized later holds a secret from which neither
//! earlier tickets nor earlier resumed sessions' keys can be recomputed.
//! What it gives up: post-compromise healing. A stolen *current* secret
//! opens the pair's future resumed sessions until fresh Diffie–Hellman
//! material arrives, which `MAX_RESUMPTIONS` bounds: after that many
//! ratchet steps both sides refuse the ticket and run the full handshake.
//! The bound is a count, not a lifetime, because the same pair typically
//! meets hours to days apart.
//!
//! # Limitations (accepted for a reproduction)
//!
//! The full initiator's signature does not bind the responder's
//! ephemeral (it cannot — it is sent first), so the first message is
//! replayable; a replayed init still cannot decrypt anything because the
//! responder's ephemeral is fresh.
//!
//! The resumed init is replayable in a narrower way. Once the responder
//! has answered it, its ticket has ratcheted, so a replay names an id
//! nobody holds and is a `Miss` that changes nothing. An init captured
//! *and withheld* from the responder can be delivered once, later: the
//! responder then ratchets alone and opens a session whose keys the
//! attacker cannot derive (they depend on the secret), and the pair's
//! next real meeting is a `Miss` healed by one full handshake. A lost
//! response diverges the two ratchets the same way and heals the same
//! way. `Miss` itself is unauthenticated: forging it only forces the
//! stronger handshake.

use crate::error::NetError;
use rand::RngCore;
use sos_crypto::aead;
use sos_crypto::cert::Certificate;
use sos_crypto::hkdf::{hkdf, hkdf_expand, hkdf_extract};
use sos_crypto::hmac::{ct_eq, hmac_sha256};
use sos_crypto::x25519::AgreementKey;
use sos_crypto::{DeviceIdentity, Signature};

/// Domain-separation prefix for initiator handshake signatures.
const SIG_CONTEXT_INIT: &[u8] = b"sos-handshake-init-v1";
/// Domain-separation prefix for responder handshake signatures.
const SIG_CONTEXT_RESP: &[u8] = b"sos-handshake-resp-v1";
/// HKDF salt for session key derivation.
const KDF_SALT: &[u8] = b"sos-session-v1";
/// HKDF salt for a resumed session's keys and ratchet step.
const RESUME_SALT: &[u8] = b"sos-resume-v1";
/// Resumed sessions one full handshake pays for: how long a stolen
/// ticket secret stays useful, counted in meetings of the pair.
const MAX_RESUMPTIONS: u32 = 32;

/// First handshake message (Bob requests a connection from Alice in
/// Fig. 2b: "Bob sends his certificate").
#[derive(Clone, Debug, PartialEq)]
pub enum HandshakeInit {
    /// The certificate exchange of a first meeting.
    Full {
        /// Initiator's certificate.
        certificate: Box<Certificate>,
        /// Initiator's ephemeral X25519 public key.
        ephemeral_public: [u8; 32],
        /// Signature by the initiator's long-term key over
        /// `SIG_CONTEXT_INIT || ephemeral_public`.
        signature: Signature,
    },
    /// Proof of holding the ticket a previous handshake left behind.
    Resume {
        /// Public name of the ticket secret ([`Ticket::id`]).
        ticket_id: [u8; 16],
        /// Initiator's fresh nonce.
        nonce: [u8; 32],
        /// `HMAC(secret, "init" || nonce)`.
        mac: [u8; 32],
    },
}

/// Second handshake message.
#[derive(Clone, Debug, PartialEq)]
pub enum HandshakeResponse {
    /// Answer to [`HandshakeInit::Full`].
    Full {
        /// Responder's certificate.
        certificate: Box<Certificate>,
        /// Responder's ephemeral X25519 public key.
        ephemeral_public: [u8; 32],
        /// Signature over `SIG_CONTEXT_RESP || resp_ephemeral || init_ephemeral`.
        signature: Signature,
    },
    /// Answer to a [`HandshakeInit::Resume`] naming the responder's ticket.
    Resume {
        /// Responder's fresh nonce.
        nonce: [u8; 32],
        /// `HMAC(secret, "resp" || init_nonce || nonce)`.
        confirm: [u8; 32],
    },
    /// The responder holds no usable ticket with the offered id; the
    /// initiator should send a [`HandshakeInit::Full`] instead.
    Miss,
}

/// One 32-byte block of HKDF output.
fn block(okm: &[u8], index: usize) -> [u8; 32] {
    let mut out = [0u8; 32];
    out.copy_from_slice(&okm[index * 32..][..32]);
    out
}

/// `[i2r, r2i, ticket secret]` of a full handshake. The first two are
/// what they were before tickets existed: a longer HKDF expand extends
/// the shorter one.
fn derive_keys(shared: &[u8; 32], init_eph: &[u8; 32], resp_eph: &[u8; 32]) -> [[u8; 32]; 3] {
    let mut okm = [0u8; 96];
    hkdf(KDF_SALT, shared, &[*init_eph, *resp_eph].concat(), &mut okm);
    [block(&okm, 0), block(&okm, 1), block(&okm, 2)]
}

/// `HMAC(secret, label ‖ nonces)`: both proofs of the resumed exchange.
fn resume_mac(secret: &[u8; 32], label: &[u8], nonces: &[[u8; 32]]) -> [u8; 32] {
    hmac_sha256(secret, &[label, &nonces.concat()].concat())
}

fn fresh_nonce<R: RngCore>(rng: &mut R) -> [u8; 32] {
    let mut nonce = [0u8; 32];
    rng.fill_bytes(&mut nonce);
    nonce
}

/// What each side keeps of a mutually authenticated handshake so that
/// the pair's next session can be resumed: the peer's validated
/// certificate and the current ratchet secret.
#[derive(Clone, Debug)]
pub struct Ticket {
    certificate: Certificate,
    secret: [u8; 32],
    id: [u8; 16],
    /// Ratchet steps since the full handshake.
    uses: u32,
}

impl Ticket {
    fn new(certificate: Certificate, secret: [u8; 32], uses: u32) -> Ticket {
        let mut id = [0u8; 16];
        id.copy_from_slice(&hmac_sha256(&secret, b"sos-ticket-id")[..16]);
        Ticket {
            certificate,
            secret,
            id,
            uses,
        }
    }

    /// The peer's certificate, as the full handshake validated it (every
    /// resumption validates it again).
    pub fn certificate(&self) -> &Certificate {
        &self.certificate
    }

    /// The ticket's public name on the wire: equal on both sides exactly
    /// while their ratchets are in step.
    pub fn id(&self) -> &[u8; 16] {
        &self.id
    }

    /// The last step of a resumed exchange, the same on both sides:
    /// `(i2r, r2i)` session keys and the ratcheted ticket.
    fn resume(&self, nonces: [[u8; 32]; 2]) -> ([u8; 32], [u8; 32], Ticket) {
        let prk = hkdf_extract(RESUME_SALT, &self.secret);
        let nonces = nonces.concat();
        let mut keys = [0u8; 64];
        hkdf_expand(&prk, &nonces, &mut keys);
        let mut next = [0u8; 32];
        hkdf_expand(&prk, &[b"ratchet", &nonces[..]].concat(), &mut next);
        let ticket = Ticket::new(self.certificate.clone(), next, self.uses + 1);
        (block(&keys, 0), block(&keys, 1), ticket)
    }
}

/// Directional encrypted channel state after a completed handshake.
///
/// Sequence numbers serve as AEAD nonces (fresh session keys make them
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
    fn new(send_key: [u8; 32], recv_key: [u8; 32]) -> SessionCrypto {
        SessionCrypto {
            send_key,
            recv_key,
            send_seq: 0,
            recv_seq: 0,
        }
    }

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
}

/// The ECDH step both sides of a full handshake share.
fn agree(ephemeral: &AgreementKey, peer_public: &[u8; 32]) -> Result<[u8; 32], NetError> {
    ephemeral.agree(peer_public).ok_or(NetError::Crypto(
        sos_crypto::CryptoError::NonContributoryAgreement,
    ))
}

/// Initiator side of the handshake, between its two messages.
#[derive(Debug)]
pub struct Initiator(Pending);

#[derive(Debug)]
enum Pending {
    Full(AgreementKey),
    Resume {
        ticket: Box<Ticket>,
        nonce: [u8; 32],
    },
}

impl Initiator {
    /// Starts a handshake, returning the first message to send: the
    /// resumed form when `ticket` (what the caller holds for this peer)
    /// has resumptions left, else the full form with a fresh ephemeral
    /// key.
    pub fn start<R: RngCore>(
        identity: &DeviceIdentity,
        ticket: Option<&Ticket>,
        rng: &mut R,
    ) -> (Initiator, HandshakeInit) {
        if let Some(ticket) = ticket.filter(|t| t.uses < MAX_RESUMPTIONS) {
            let nonce = fresh_nonce(rng);
            let init = HandshakeInit::Resume {
                ticket_id: ticket.id,
                nonce,
                mac: resume_mac(&ticket.secret, b"init", &[nonce]),
            };
            let ticket = Box::new(ticket.clone());
            return (Initiator(Pending::Resume { ticket, nonce }), init);
        }
        let ephemeral = AgreementKey::generate(rng);
        let signed = [SIG_CONTEXT_INIT, ephemeral.public()].concat();
        let init = HandshakeInit::Full {
            certificate: Box::new(identity.certificate().clone()),
            ephemeral_public: *ephemeral.public(),
            signature: identity.sign(&signed),
        };
        (Initiator(Pending::Full(ephemeral)), init)
    }

    /// True while this handshake awaits the answer to a resumed init: a
    /// [`HandshakeResponse::Miss`] then means "start over in full".
    pub fn resuming(&self) -> bool {
        matches!(self.0, Pending::Resume { .. })
    }

    /// Processes the responder's reply, completing the handshake: the
    /// session keys and the ticket to keep for the pair's next meeting.
    ///
    /// # Errors
    ///
    /// Certificate validation errors, [`NetError::BadHandshakeSignature`]
    /// / [`NetError::BadResumeProof`], [`NetError::Crypto`] for a
    /// non-contributory ECDH result, or [`NetError::UnexpectedHandshake`]
    /// when the reply is not the answer to what was sent.
    pub fn finish(
        self,
        identity: &DeviceIdentity,
        response: &HandshakeResponse,
        now_secs: u64,
    ) -> Result<(SessionCrypto, Ticket), NetError> {
        match (self.0, response) {
            (
                Pending::Full(ephemeral),
                HandshakeResponse::Full {
                    certificate,
                    ephemeral_public,
                    signature,
                },
            ) => {
                identity.validator().validate(certificate, now_secs)?;
                let signed = [SIG_CONTEXT_RESP, ephemeral_public, ephemeral.public()].concat();
                let key = certificate.ed25519_public;
                if !key.verify_without_admission(&signed, signature) {
                    return Err(NetError::BadHandshakeSignature);
                }
                let shared = agree(&ephemeral, ephemeral_public)?;
                let [i2r, r2i, secret] = derive_keys(&shared, ephemeral.public(), ephemeral_public);
                let ticket = Ticket::new(Certificate::clone(certificate), secret, 0);
                Ok((SessionCrypto::new(i2r, r2i), ticket))
            }
            (
                Pending::Resume { ticket, nonce },
                HandshakeResponse::Resume {
                    nonce: resp_nonce,
                    confirm,
                },
            ) => {
                identity
                    .validator()
                    .validate(&ticket.certificate, now_secs)?;
                let nonces = [nonce, *resp_nonce];
                if !ct_eq(&resume_mac(&ticket.secret, b"resp", &nonces), confirm) {
                    return Err(NetError::BadResumeProof);
                }
                let (i2r, r2i, next) = ticket.resume(nonces);
                Ok((SessionCrypto::new(i2r, r2i), next))
            }
            _ => Err(NetError::UnexpectedHandshake),
        }
    }
}

/// Responder side of the handshake.
#[derive(Debug)]
pub struct Responder;

impl Responder {
    /// Processes an init message against `ticket` (what the caller holds
    /// for this peer), producing the response to send and — unless that
    /// is a [`HandshakeResponse::Miss`] — the completed session crypto
    /// with the ticket to keep.
    ///
    /// A full init validates the initiator's certificate and signature.
    /// A resumed init is a `Miss` (nothing checked, nothing changed)
    /// unless it names `ticket` and resumptions are left; then its MAC
    /// and the ticket's certificate are checked.
    ///
    /// # Errors
    ///
    /// Certificate validation errors, [`NetError::BadHandshakeSignature`]
    /// / [`NetError::BadResumeProof`], or [`NetError::Crypto`] for a
    /// non-contributory ECDH result.
    pub fn respond<R: RngCore>(
        identity: &DeviceIdentity,
        init: &HandshakeInit,
        ticket: Option<&Ticket>,
        now_secs: u64,
        rng: &mut R,
    ) -> Result<(HandshakeResponse, Option<(SessionCrypto, Ticket)>), NetError> {
        match init {
            HandshakeInit::Full {
                certificate,
                ephemeral_public,
                signature,
            } => {
                identity.validator().validate(certificate, now_secs)?;
                let signed = [SIG_CONTEXT_INIT, ephemeral_public].concat();
                let key = certificate.ed25519_public;
                if !key.verify_without_admission(&signed, signature) {
                    return Err(NetError::BadHandshakeSignature);
                }
                let ephemeral = AgreementKey::generate(rng);
                let shared = agree(&ephemeral, ephemeral_public)?;
                let resp_signed = [SIG_CONTEXT_RESP, ephemeral.public(), ephemeral_public].concat();
                let response = HandshakeResponse::Full {
                    certificate: Box::new(identity.certificate().clone()),
                    ephemeral_public: *ephemeral.public(),
                    signature: identity.sign(&resp_signed),
                };
                let [i2r, r2i, secret] = derive_keys(&shared, ephemeral_public, ephemeral.public());
                let ticket = Ticket::new(Certificate::clone(certificate), secret, 0);
                Ok((response, Some((SessionCrypto::new(r2i, i2r), ticket))))
            }
            HandshakeInit::Resume {
                ticket_id,
                nonce,
                mac,
            } => {
                let Some(ticket) =
                    ticket.filter(|t| t.id == *ticket_id && t.uses < MAX_RESUMPTIONS)
                else {
                    return Ok((HandshakeResponse::Miss, None));
                };
                if !ct_eq(&resume_mac(&ticket.secret, b"init", &[*nonce]), mac) {
                    return Err(NetError::BadResumeProof);
                }
                identity
                    .validator()
                    .validate(&ticket.certificate, now_secs)?;
                let nonces = [*nonce, fresh_nonce(rng)];
                let response = HandshakeResponse::Resume {
                    nonce: nonces[1],
                    confirm: resume_mac(&ticket.secret, b"resp", &nonces),
                };
                let (i2r, r2i, next) = ticket.resume(nonces);
                Ok((response, Some((SessionCrypto::new(r2i, i2r), next))))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::DisconnectReason;
    use rand::SeedableRng;
    use sos_crypto::ca::{CertificateAuthority, Validator};
    use sos_crypto::cert::UserId;
    use sos_crypto::ed25519::SigningKey;
    use sos_crypto::CertError;

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

    type Rng = rand::rngs::StdRng;
    type Side = (SessionCrypto, Ticket);

    /// One whole exchange at `now`, `from` initiating, each side offering
    /// the ticket it holds for the other: `(from's side, to's side)`.
    fn meet(
        from: (&DeviceIdentity, Option<&Ticket>),
        to: (&DeviceIdentity, Option<&Ticket>),
        now: u64,
        rng: &mut Rng,
    ) -> Result<(Side, Side), NetError> {
        let (init, msg) = Initiator::start(from.0, from.1, rng);
        let (response, accepted) = Responder::respond(to.0, &msg, to.1, now, rng)?;
        let from_side = init.finish(from.0, &response, now)?;
        Ok((from_side, accepted.expect("finish accepted a Miss")))
    }

    /// Bob and Alice after the full handshake of their first meeting.
    fn met_once(alice: &DeviceIdentity, bob: &DeviceIdentity, rng: &mut Rng) -> (Side, Side) {
        meet((bob, None), (alice, None), 0, rng).unwrap()
    }

    /// Both directions of a session carry traffic.
    fn assert_talk(a: &mut SessionCrypto, b: &mut SessionCrypto) {
        let (seq, ct) = a.seal(b"ctx", b"hello");
        assert_eq!(b.open(seq, b"ctx", &ct).unwrap(), b"hello");
        let (seq, ct) = b.seal(b"ctx", b"hello back");
        assert_eq!(a.open(seq, b"ctx", &ct).unwrap(), b"hello back");
    }

    #[test]
    fn full_handshake_and_data_exchange() {
        let (alice, bob) = pair();
        let mut rng = Rng::seed_from_u64(3);
        // Bob requests (Fig. 2b).
        let ((mut bob_sess, of_alice), (mut alice_sess, of_bob)) =
            meet((&bob, None), (&alice, None), 100, &mut rng).unwrap();
        assert_eq!(of_bob.certificate().subject, *bob.user_id());
        assert_eq!(of_alice.certificate().subject, *alice.user_id());
        assert_talk(&mut bob_sess, &mut alice_sess);
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

        let (init, msg) = Initiator::start(&bob, None, &mut rng);
        let HandshakeInit::Full {
            ephemeral_public: init_public,
            ..
        } = msg
        else {
            panic!("no ticket, no resumption");
        };
        let init_secret = next_secret();
        assert_eq!(init_public, x25519(&init_secret, &BASEPOINT));
        let (response, accepted) = Responder::respond(&alice, &msg, None, 0, &mut rng).unwrap();
        let HandshakeResponse::Full {
            ephemeral_public: resp_public,
            ..
        } = response
        else {
            panic!("a full init gets a full response");
        };
        let (mut alice_sess, _) = accepted.unwrap();
        let resp_secret = next_secret();
        assert_eq!(resp_public, x25519(&resp_secret, &BASEPOINT));
        // And the session keys are derived from the ladder's shared
        // secret over exactly those two public keys.
        let shared = x25519(&init_secret, &resp_public);
        assert_eq!(shared, x25519(&resp_secret, &init_public));
        let [i2r, _, _] = derive_keys(&shared, &init_public, &resp_public);
        let (mut bob_sess, _) = init.finish(&bob, &response, 0).unwrap();
        assert_eq!(bob_sess.send_key, i2r);
        let (seq, ct) = bob_sess.seal(b"", b"pinned");
        assert_eq!(alice_sess.open(seq, b"", &ct).unwrap(), b"pinned");
    }

    #[test]
    fn session_keys_of_a_full_handshake_predate_tickets() {
        // The ticket secret is a *third* block of the expand whose first
        // two were always the session keys: same salt, same info.
        let (shared, a, b) = ([7u8; 32], [8u8; 32], [9u8; 32]);
        let mut okm = [0u8; 64];
        hkdf(KDF_SALT, &shared, &[a, b].concat(), &mut okm);
        let [i2r, r2i, secret] = derive_keys(&shared, &a, &b);
        assert_eq!([i2r, r2i].concat(), okm);
        assert!(secret != i2r && secret != r2i);
    }

    #[test]
    fn sequence_gap_detected() {
        let (alice, bob) = pair();
        let ((mut bob_sess, _), (mut alice_sess, _)) =
            met_once(&alice, &bob, &mut Rng::seed_from_u64(4));

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
        let ((mut bob_sess, _), (mut alice_sess, _)) =
            met_once(&alice, &bob, &mut Rng::seed_from_u64(5));

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
        let mut rng = Rng::seed_from_u64(6);
        let err = meet((&mallory, None), (&alice, None), 0, &mut rng).unwrap_err();
        assert!(matches!(err, NetError::Certificate(_)), "{err:?}");
    }

    #[test]
    fn tampered_ephemeral_rejected() {
        let (alice, bob) = pair();
        let mut rng = Rng::seed_from_u64(7);
        let (_, mut msg) = Initiator::start(&bob, None, &mut rng);
        if let HandshakeInit::Full {
            ephemeral_public, ..
        } = &mut msg
        {
            ephemeral_public[0] ^= 1; // MITM swaps the ephemeral
        }
        let err = Responder::respond(&alice, &msg, None, 0, &mut rng).unwrap_err();
        assert_eq!(err, NetError::BadHandshakeSignature);
    }

    #[test]
    fn expired_certificate_rejected_at_handshake() {
        let mut ca = CertificateAuthority::new("Root", [1u8; 32], 0, u64::MAX);
        ca.default_validity_secs = 100;
        let alice = identity(&mut ca, 10, "alice");
        let bob = identity(&mut ca, 20, "bob");
        let mut rng = Rng::seed_from_u64(8);
        // Far in the future: bob's certificate has expired.
        let err = meet((&bob, None), (&alice, None), 10_000, &mut rng).unwrap_err();
        assert!(matches!(
            err,
            NetError::Certificate(CertError::OutsideValidity { .. })
        ));
    }

    #[test]
    fn wrong_signer_rejected() {
        let (alice, bob) = pair();
        let mut rng = Rng::seed_from_u64(9);
        let (_, mut msg) = Initiator::start(&bob, None, &mut rng);
        if let HandshakeInit::Full {
            ephemeral_public,
            signature,
            ..
        } = &mut msg
        {
            // Replace the signature with one from a different key.
            let other = SigningKey::from_seed([99u8; 32]);
            *signature = other.sign(&[SIG_CONTEXT_INIT, &ephemeral_public[..]].concat());
        }
        let err = Responder::respond(&alice, &msg, None, 0, &mut rng).unwrap_err();
        assert_eq!(err, NetError::BadHandshakeSignature);
    }

    // ------------------------------------------------------ resumption

    /// Mutual authentication, both ways: each role resumes from the
    /// ticket the other role's exchange left, and both ratchets stay in
    /// step, a fresh id and fresh keys per meeting.
    #[test]
    fn resumed_pair_interoperates_both_ways_and_ratchets_in_step() {
        let (alice, bob) = pair();
        let mut rng = Rng::seed_from_u64(10);
        let ((mut b0, of_alice), (mut a0, of_bob)) = met_once(&alice, &bob, &mut rng);
        assert_eq!(of_alice.id(), of_bob.id());

        // Bob resumes towards Alice ...
        let (init, msg) = Initiator::start(&bob, Some(&of_alice), &mut rng);
        assert!(init.resuming() && matches!(msg, HandshakeInit::Resume { .. }));
        let ((mut b1, of_alice1), (mut a1, of_bob1)) = meet(
            (&bob, Some(&of_alice)),
            (&alice, Some(&of_bob)),
            50,
            &mut rng,
        )
        .unwrap();
        assert_talk(&mut b1, &mut a1);
        assert_eq!(of_alice1.id(), of_bob1.id());
        assert_ne!(of_alice1.id(), of_alice.id());
        // ... then Alice towards Bob, from the ratcheted tickets.
        let ((mut a2, of_bob2), (mut b2, of_alice2)) = meet(
            (&alice, Some(&of_bob1)),
            (&bob, Some(&of_alice1)),
            60,
            &mut rng,
        )
        .unwrap();
        assert_talk(&mut a2, &mut b2);
        assert_eq!(of_bob2.id(), of_alice2.id());
        assert_eq!((of_bob2.uses, of_alice2.uses), (2, 2));
        // The certificate rides along unchanged: same authenticated user.
        assert_eq!(of_bob2.certificate(), bob.certificate());
        assert_eq!(of_alice2.certificate(), alice.certificate());
        // No two sessions share keys.
        let keys = [b0.send_key, b1.send_key, b2.send_key, a2.send_key];
        for (i, k) in keys.iter().enumerate() {
            assert!(!keys[..i].contains(k));
        }
        assert_talk(&mut b0, &mut a0);
    }

    /// Replay resistance: once answered, a resumed init names a ticket
    /// generation nobody holds any more.
    #[test]
    fn replayed_resume_init_from_an_earlier_generation_is_a_miss() {
        let (alice, bob) = pair();
        let mut rng = Rng::seed_from_u64(11);
        let ((_, of_alice), (_, of_bob)) = met_once(&alice, &bob, &mut rng);
        let (_, captured) = Initiator::start(&bob, Some(&of_alice), &mut rng);
        let (_, accepted) =
            Responder::respond(&alice, &captured, Some(&of_bob), 0, &mut rng).unwrap();
        let (_, of_bob1) = accepted.expect("the live generation resumes");

        let mut untouched = rng.clone();
        let (response, accepted) =
            Responder::respond(&alice, &captured, Some(&of_bob1), 0, &mut rng).unwrap();
        assert_eq!(response, HandshakeResponse::Miss);
        assert!(accepted.is_none());
        assert_eq!(
            rng.next_u64(),
            untouched.next_u64(),
            "a Miss draws no nonce"
        );
        // Nor does a stranger's offer find anything to resume.
        let (response, _) = Responder::respond(&alice, &captured, None, 0, &mut rng).unwrap();
        assert_eq!(response, HandshakeResponse::Miss);
    }

    /// Tamper detection on both messages: a wrong MAC under a *live*
    /// ticket id is an attack, not a miss.
    #[test]
    fn forged_resume_proofs_are_security_failures() {
        let (alice, bob) = pair();
        let mut rng = Rng::seed_from_u64(12);
        let ((_, of_alice), (_, of_bob)) = met_once(&alice, &bob, &mut rng);

        let (init, msg) = Initiator::start(&bob, Some(&of_alice), &mut rng);
        let mut forged = msg.clone();
        if let HandshakeInit::Resume { mac, .. } = &mut forged {
            mac[31] ^= 1;
        }
        let err = Responder::respond(&alice, &forged, Some(&of_bob), 0, &mut rng).unwrap_err();
        assert_eq!(err, NetError::BadResumeProof);
        assert_eq!(
            DisconnectReason::for_error(&err),
            DisconnectReason::SecurityFailure
        );
        // A nonce swapped under the genuine MAC fails the same way.
        let mut forged = msg.clone();
        if let HandshakeInit::Resume { nonce, .. } = &mut forged {
            nonce[0] ^= 1;
        }
        let err = Responder::respond(&alice, &forged, Some(&of_bob), 0, &mut rng).unwrap_err();
        assert_eq!(err, NetError::BadResumeProof);

        let (mut response, _) =
            Responder::respond(&alice, &msg, Some(&of_bob), 0, &mut rng).unwrap();
        if let HandshakeResponse::Resume { confirm, .. } = &mut response {
            confirm[0] ^= 1;
        }
        let err = init.finish(&bob, &response, 0).unwrap_err();
        assert_eq!(err, NetError::BadResumeProof);
    }

    /// Certificate validity at session time: expiry refuses a resumed
    /// session with the error it refuses a full one with, on both sides.
    #[test]
    fn expired_certificate_refuses_a_resumed_session_like_a_full_one() {
        let mut ca = CertificateAuthority::new("Root", [1u8; 32], 0, u64::MAX);
        ca.default_validity_secs = 100;
        let alice = identity(&mut ca, 10, "alice");
        let bob = identity(&mut ca, 20, "bob");
        let mut rng = Rng::seed_from_u64(13);
        let ((_, of_alice), (_, of_bob)) = met_once(&alice, &bob, &mut rng);

        let full = meet((&bob, None), (&alice, None), 10_000, &mut rng).unwrap_err();
        let resumed = meet(
            (&bob, Some(&of_alice)),
            (&alice, Some(&of_bob)),
            10_000,
            &mut rng,
        )
        .unwrap_err();
        assert!(matches!(
            resumed,
            NetError::Certificate(CertError::OutsideValidity { .. })
        ));
        assert_eq!(resumed, full);
        // The initiator checks too, should only its clock be past expiry.
        let (init, msg) = Initiator::start(&bob, Some(&of_alice), &mut rng);
        let (response, _) = Responder::respond(&alice, &msg, Some(&of_bob), 50, &mut rng).unwrap();
        assert_eq!(init.finish(&bob, &response, 10_000).unwrap_err(), full);
    }

    /// Revocation at session time: a CRL installed between two meetings
    /// refuses the resumed session exactly as it refuses a full one.
    #[test]
    fn revoked_certificate_refuses_a_resumed_session_like_a_full_one() {
        let mut ca = CertificateAuthority::new("Root", [1u8; 32], 0, u64::MAX);
        let mut alice = identity(&mut ca, 10, "alice");
        let bob = identity(&mut ca, 20, "bob");
        let mut rng = Rng::seed_from_u64(14);
        let ((_, of_alice), (_, of_bob)) = met_once(&alice, &bob, &mut rng);

        ca.revoke(bob.certificate().serial);
        assert!(alice.validator_mut().install_crl(ca.revocation_list(10)));
        let full = meet((&bob, None), (&alice, None), 20, &mut rng).unwrap_err();
        let resumed = meet(
            (&bob, Some(&of_alice)),
            (&alice, Some(&of_bob)),
            20,
            &mut rng,
        )
        .unwrap_err();
        assert_eq!(resumed, NetError::Certificate(CertError::Revoked));
        assert_eq!(resumed, full);
    }

    /// The bound on what a stolen secret is worth: after
    /// `MAX_RESUMPTIONS` ratchet steps neither role resumes.
    #[test]
    fn use_counter_forces_a_full_handshake_at_the_cap() {
        let (alice, bob) = pair();
        let mut rng = Rng::seed_from_u64(15);
        let ((_, mut of_alice), (_, mut of_bob)) = met_once(&alice, &bob, &mut rng);
        for _ in 0..MAX_RESUMPTIONS {
            let (init, _) = Initiator::start(&bob, Some(&of_alice), &mut rng);
            assert!(init.resuming());
            let ((_, a), (_, b)) = meet(
                (&bob, Some(&of_alice)),
                (&alice, Some(&of_bob)),
                0,
                &mut rng,
            )
            .unwrap();
            (of_alice, of_bob) = (a, b);
        }
        assert_eq!(of_alice.uses, MAX_RESUMPTIONS);
        // The initiator does not offer the used-up ticket ...
        let (init, msg) = Initiator::start(&bob, Some(&of_alice), &mut rng);
        assert!(!init.resuming() && matches!(msg, HandshakeInit::Full { .. }));
        // ... and a responder offered it anyway (genuine MAC) misses.
        let nonce = [5u8; 32];
        let offer = HandshakeInit::Resume {
            ticket_id: of_alice.id,
            nonce,
            mac: resume_mac(&of_alice.secret, b"init", &[nonce]),
        };
        let (response, _) = Responder::respond(&alice, &offer, Some(&of_bob), 0, &mut rng).unwrap();
        assert_eq!(response, HandshakeResponse::Miss);
        // The full handshake that follows starts a new count.
        let ((_, of_alice), _) = meet(
            (&bob, Some(&of_alice)),
            (&alice, Some(&of_bob)),
            0,
            &mut rng,
        )
        .unwrap();
        assert_eq!(of_alice.uses, 0);
    }

    /// Forward secrecy of past sessions: the ratchet is one-way, so the
    /// ticket a seized device holds derives neither an earlier ticket
    /// nor (hence) an earlier session's keys.
    #[test]
    fn a_later_ticket_does_not_reopen_an_earlier_session() {
        let (alice, bob) = pair();
        let mut rng = Rng::seed_from_u64(16);
        let ((_, of_alice), (_, of_bob)) = met_once(&alice, &bob, &mut rng);
        let (_, msg) = Initiator::start(&bob, Some(&of_alice), &mut rng);
        let (response, accepted) =
            Responder::respond(&alice, &msg, Some(&of_bob), 0, &mut rng).unwrap();
        let (mut alice_sess, seized) = accepted.unwrap();
        let (HandshakeInit::Resume { nonce, .. }, HandshakeResponse::Resume { nonce: nonce_r, .. }) =
            (msg, response)
        else {
            panic!("both tickets were live");
        };
        // Re-deriving that session from the seized (next) secret, even
        // with its public nonces, yields different keys.
        let (i2r, _, _) = seized.resume([nonce, nonce_r]);
        let (seq, ct) = SessionCrypto::new(i2r, i2r).seal(b"", b"guess");
        assert!(matches!(
            alice_sess.open(seq, b"", &ct),
            Err(NetError::Crypto(_))
        ));
    }
}
