//! What a first contact costs in key tables: a full handshake checks
//! each peer's ephemeral-key signature through the peer's cached
//! prepared-key table when one exists and one-shot otherwise, and never
//! builds a table for a handshake peer. Tables are built where
//! signatures repeat: bundle verification and certificate checks against
//! the CA key.
//!
//! Counted through `prepared_cache_builds()` and `one_shot_verifies()`.
//! The prepared-key cache is one per process, so this file is its own
//! test binary and holds exactly one `#[test]`: nothing else may verify a
//! signature while the counts below are taken.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sos_crypto::ca::{CertificateAuthority, Validator};
use sos_crypto::cert::UserId;
use sos_crypto::ed25519::{
    clear_prepared_cache, one_shot_verifies, prepared_cache_builds, prepared_cache_len, SigningKey,
};
use sos_crypto::x25519::AgreementKey;
use sos_crypto::DeviceIdentity;
use sos_net::{HandshakeInit, HandshakeResponse, Initiator, NetError, Responder};

fn identity(ca: &mut CertificateAuthority, seed: u8, name: &str) -> DeviceIdentity {
    let signing = SigningKey::from_seed([seed; 32]);
    let agreement = AgreementKey::from_secret([seed.wrapping_add(50); 32]);
    let uid = UserId::from_str_padded(name);
    let cert = ca.issue(uid, name, signing.verifying_key(), *agreement.public(), 0);
    let validator = Validator::new(ca.root_certificate().clone());
    DeviceIdentity::new(uid, signing, agreement, cert, validator)
}

/// Tables built and one-shot verifications run since the process
/// started.
fn counts() -> (u64, u64) {
    (prepared_cache_builds(), one_shot_verifies())
}

/// [`counts`] since `before` was taken.
fn counts_since(before: (u64, u64)) -> (u64, u64) {
    let now = counts();
    (now.0 - before.0, now.1 - before.1)
}

/// One full handshake, `from` initiating, both sides offering no
/// ticket; returns the tables it built and the one-shot verifications
/// it ran.
fn full_handshake(from: &DeviceIdentity, to: &DeviceIdentity, rng: &mut StdRng) -> (u64, u64) {
    let before = counts();
    let (init, msg) = Initiator::start(from, None, rng);
    let (response, accepted) = Responder::respond(to, &msg, None, 100, rng).expect("from is valid");
    assert!(accepted.is_some(), "a full init is answered in full");
    init.finish(from, &response, 100).expect("to is valid");
    counts_since(before)
}

/// `signature` of a full init or response with one bit flipped.
fn flip(signature: &mut sos_crypto::Signature) {
    signature.0[9] ^= 0x04;
}

/// A forged initiator signature is refused by the responder, and a
/// forged responder signature by the initiator, whether or not the
/// forger's table is cached.
fn forgeries_are_refused(from: &DeviceIdentity, to: &DeviceIdentity, rng: &mut StdRng) {
    let (_, mut msg) = Initiator::start(from, None, rng);
    let HandshakeInit::Full { signature, .. } = &mut msg else {
        panic!("no ticket, so a full init");
    };
    flip(signature);
    let refused = Responder::respond(to, &msg, None, 100, rng).map(|_| ());
    assert_eq!(refused, Err(NetError::BadHandshakeSignature));

    let (init, msg) = Initiator::start(from, None, rng);
    let (mut response, _) = Responder::respond(to, &msg, None, 100, rng).expect("honest init");
    let HandshakeResponse::Full { signature, .. } = &mut response else {
        panic!("a full init is answered in full");
    };
    flip(signature);
    let refused = init.finish(from, &response, 100).map(|_| ());
    assert_eq!(refused, Err(NetError::BadHandshakeSignature));
}

/// Admits `author`'s key to the cache the way the bundle path does: one
/// `VerifyingKey::verify` of a signature by it.
fn admit(author: &DeviceIdentity) {
    let signature = author.sign(b"a bundle");
    assert!(author.verifying_key().verify(b"a bundle", &signature));
}

#[test]
fn a_first_contact_builds_no_table() {
    let mut ca = CertificateAuthority::new("Root", [1u8; 32], 0, u64::MAX);
    let alice = identity(&mut ca, 10, "alice");
    let bob = identity(&mut ca, 20, "bob");
    let carol = identity(&mut ca, 30, "carol");
    let dave = identity(&mut ca, 40, "dave");
    let mut rng = StdRng::seed_from_u64(38);

    // Cache the CA's table, as any node that has checked one certificate
    // has: a third party's validator checks carol's certificate.
    clear_prepared_cache();
    let before = counts();
    let warm = Validator::new(ca.root_certificate().clone());
    warm.validate(carol.certificate(), 100)
        .expect("carol is valid");
    assert_eq!(counts_since(before), (1, 0), "the CA table is built once");
    assert_eq!(prepared_cache_len(), 1);

    // Strangers: both certificate checks hit the CA table, and each
    // side checks the other's ephemeral-key signature one-shot. No table
    // is built for either peer (two before the read-only flavour).
    assert_eq!(full_handshake(&bob, &alice, &mut rng), (0, 2));
    assert_eq!(prepared_cache_len(), 1, "only the CA's table is held");
    // Meeting again in full costs the same: the handshake never admits.
    assert_eq!(full_handshake(&alice, &bob, &mut rng), (0, 2));

    // Once the bundle path has admitted both keys, a full handshake
    // checks both signatures through their tables.
    let before = counts();
    admit(&alice);
    admit(&bob);
    assert_eq!(counts_since(before), (2, 0), "one table per author");
    assert_eq!(full_handshake(&bob, &alice, &mut rng), (0, 0));
    assert_eq!(prepared_cache_len(), 3);

    // A forged ephemeral-key signature fails on the hit path (bob and
    // alice are cached) and on the one-shot path (dave is not, and still
    // is not afterwards).
    forgeries_are_refused(&bob, &alice, &mut rng);
    let before = counts();
    forgeries_are_refused(&dave, &carol, &mut rng);
    assert_eq!(counts_since(before).0, 0, "a forgery builds no table");
    assert_eq!(prepared_cache_len(), 3);
}
