//! Cost of an encrypted payload over an established session (Fig. 2b).
//! The handshake itself is timed, recorded and gated by the `crypto`
//! bench (`handshake/full_warm`, `handshake/full_cold`,
//! `handshake/resumed`).

use criterion::{criterion_group, criterion_main, Criterion};
use rand::SeedableRng;
use sos_crypto::ca::{CertificateAuthority, Validator};
use sos_crypto::cert::UserId;
use sos_crypto::ed25519::SigningKey;
use sos_crypto::x25519::AgreementKey;
use sos_crypto::DeviceIdentity;
use sos_net::handshake::{Initiator, Responder};

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

fn bench_handshake(c: &mut Criterion) {
    let mut ca = CertificateAuthority::new("Root", [1; 32], 0, u64::MAX);
    let alice = identity(&mut ca, 10, "alice");
    let bob = identity(&mut ca, 20, "bob");

    c.bench_function("handshake/session_payload_roundtrip_1KiB", |b| {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let (init, msg) = Initiator::start(&bob, None, &mut rng);
        let (response, accepted) = Responder::respond(&alice, &msg, None, 100, &mut rng).unwrap();
        let (mut alice_sess, _) = accepted.unwrap();
        let (mut bob_sess, _) = init.finish(&bob, &response, 100).unwrap();
        let payload = vec![0u8; 1024];
        b.iter(|| {
            let (seq, ct) = bob_sess.seal(b"", &payload);
            alice_sess.open(seq, b"", &ct).unwrap()
        })
    });
}

criterion_group!(benches, bench_handshake);
criterion_main!(benches);
