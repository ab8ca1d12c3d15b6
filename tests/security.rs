//! Cross-crate security integration: every §IV property enforced through
//! the full stack — identity detection, source verification, integrity,
//! revocation — plus the adversarial cases the paper's design must stop.

use rand::SeedableRng;
use sos::core::prelude::*;
use sos::core::{Bundle, MessageId, SosMessage};
use sos::crypto::ca::{CertificateAuthority, Validator};
use sos::crypto::ed25519::SigningKey;
use sos::crypto::x25519::AgreementKey;
use sos::crypto::{DeviceIdentity, UserId};
use sos::net::{Air, Frame, HandshakeInit, HandshakeResponse};
use sos::social::{AlleyOopApp, Cloud};

fn rng(seed: u64) -> rand::rngs::StdRng {
    rand::rngs::StdRng::seed_from_u64(seed)
}

fn pump(a: &mut AlleyOopApp, b: &mut AlleyOopApp, now: SimTime, seed: u64) {
    pump_through(a, b, now, seed, |_| {});
}

/// [`pump`] with an attacker on the air who may rewrite every session
/// frame in flight; returns the frames as delivered.
fn pump_through(
    a: &mut AlleyOopApp,
    b: &mut AlleyOopApp,
    now: SimTime,
    seed: u64,
    mut on_air: impl FnMut(&mut Frame),
) -> Vec<Frame> {
    let mut crossed = Vec::new();
    let mut r = rng(seed);
    let a_id = a.peer_id();
    let ad = a.middleware().advertisement(now);
    let replies = b
        .middleware_mut()
        .handle_frame(a_id, Frame::Advertisement(ad), now, &mut r);
    let mut air = Air::instant();
    air.send(now, b.peer_id(), replies);
    air.settle(
        now + SimDuration::from_millis(1),
        |at, src, dst, mut frame| {
            on_air(&mut frame);
            crossed.push(frame.clone());
            let target = if dst == a_id { &mut *a } else { &mut *b };
            target.middleware_mut().handle_frame(src, frame, at, &mut r)
        },
    );
    crossed
}

/// A device with a certificate from a *different* CA (an impostor
/// infrastructure) cannot establish a session with legitimate users.
#[test]
fn foreign_ca_cannot_join_the_network() {
    let mut r = rng(1);
    let mut real_cloud = Cloud::new("AlleyOop Root CA", [1; 32]);
    let mut fake_cloud = Cloud::new("AlleyOop Root CA", [66; 32]); // same name!
    let mut alice = AlleyOopApp::sign_up(
        &mut real_cloud,
        PeerId(0),
        "alice",
        SchemeKind::Epidemic,
        SimTime::ZERO,
        &mut r,
    )
    .unwrap();
    let mut mallory = AlleyOopApp::sign_up(
        &mut fake_cloud,
        PeerId(1),
        "mallory",
        SchemeKind::Epidemic,
        SimTime::ZERO,
        &mut r,
    )
    .unwrap();
    mallory.post("evil content", SimTime::from_secs(1));
    // Direction 1: alice browses mallory's advertisement and initiates;
    // the handshake dies at the first certificate check (mallory's
    // honest stack rejects alice's foreign certificate as responder).
    pump(&mut mallory, &mut alice, SimTime::from_secs(2), 7);
    alice.process_events_at(SimTime::from_secs(2));
    assert_eq!(alice.middleware().store().len(), 0, "no content crossed");

    // Direction 2: alice posts, mallory browses and initiates — now
    // *alice* is the responder and her validator must reject mallory's
    // certificate.
    alice.post("legit content", SimTime::from_secs(3));
    pump(&mut alice, &mut mallory, SimTime::from_secs(4), 8);
    assert_eq!(mallory.middleware().store().len(), 1, "only her own post");
    assert!(
        alice.middleware().stats().security_rejections > 0,
        "alice must reject the foreign certificate"
    );
    assert!(
        mallory.middleware().stats().security_rejections > 0,
        "mallory's honest stack rejected alice too"
    );
}

/// A legitimate-session peer forwarding a *tampered* bundle is caught by
/// the end-to-end signature even though the session itself is valid.
#[test]
fn tampered_forwarded_bundle_rejected() {
    let mut r = rng(2);
    let mut cloud = Cloud::new("AlleyOop Root CA", [1; 32]);
    let mut alice = AlleyOopApp::sign_up(
        &mut cloud,
        PeerId(0),
        "alice",
        SchemeKind::Epidemic,
        SimTime::ZERO,
        &mut r,
    )
    .unwrap();
    let mut bob = AlleyOopApp::sign_up(
        &mut cloud,
        PeerId(1),
        "bob",
        SchemeKind::Epidemic,
        SimTime::ZERO,
        &mut r,
    )
    .unwrap();
    let mut carol = AlleyOopApp::sign_up(
        &mut cloud,
        PeerId(2),
        "carol",
        SchemeKind::Epidemic,
        SimTime::ZERO,
        &mut r,
    )
    .unwrap();

    alice.post("original", SimTime::from_secs(1));
    pump(&mut alice, &mut bob, SimTime::from_secs(2), 8);
    assert_eq!(bob.middleware().store().len(), 1);

    // Bob's device is compromised: it alters the stored payload before
    // forwarding to Carol.
    let id = MessageId {
        author: alice.user_id(),
        number: 1,
    };
    // Direct store surgery via the testing backdoor: re-encode the
    // bundle with a modified payload but the original signature.
    let stored = bob.middleware().store().get(&id).unwrap().clone();
    let mut tampered = stored.clone();
    tampered.message.payload = b"fake news".to_vec().into();
    // Re-inject through Carol's verification path.
    let validator = Validator::new(cloud.root_certificate().clone());
    assert!(stored.verify(&validator, 10).is_ok());
    assert!(tampered.verify(&validator, 10).is_err());

    // And through the live session path: craft the frame stream by
    // pumping normally after poisoning bob's store is not possible via
    // the public API (the store only accepts verified bundles), so the
    // wire-level check above is the enforcement point Carol relies on.
    pump(&mut bob, &mut carol, SimTime::from_secs(3), 9);
    carol.process_events_at(SimTime::from_secs(3));
    assert_eq!(carol.feed().len(), 0, "carol does not follow alice");
    assert_eq!(
        carol.middleware().store().len(),
        1,
        "genuine bundle carried under epidemic"
    );
}

/// Revocation: after a CRL sync, content and sessions from the revoked
/// device are refused network-wide.
#[test]
fn revoked_device_is_cut_off() {
    let mut r = rng(3);
    let mut cloud = Cloud::new("AlleyOop Root CA", [1; 32]);
    let mut alice = AlleyOopApp::sign_up(
        &mut cloud,
        PeerId(0),
        "alice",
        SchemeKind::InterestBased,
        SimTime::ZERO,
        &mut r,
    )
    .unwrap();
    let mut bob = AlleyOopApp::sign_up(
        &mut cloud,
        PeerId(1),
        "bob",
        SchemeKind::InterestBased,
        SimTime::ZERO,
        &mut r,
    )
    .unwrap();
    bob.follow(alice.user_id());

    // Pre-revocation delivery works.
    alice.post("before revocation", SimTime::from_secs(10));
    pump(&mut alice, &mut bob, SimTime::from_secs(11), 10);
    bob.process_events_at(SimTime::from_secs(11));
    assert_eq!(bob.feed().len(), 1);

    // Alice's key leaks; the CA revokes her. Bob syncs while online.
    cloud.revoke_user(&alice.user_id()).unwrap();
    bob.set_online(true);
    bob.sync_with_cloud(&mut cloud, SimTime::from_secs(20));

    alice.post("after revocation", SimTime::from_secs(30));
    pump(&mut alice, &mut bob, SimTime::from_secs(31), 11);
    bob.process_events_at(SimTime::from_secs(31));
    assert_eq!(bob.feed().len(), 1, "no new content from revoked device");
    assert!(bob.middleware().stats().security_rejections > 0);
}

/// Sealed-box direct messages survive multi-hop forwarding and only the
/// recipient can open them.
#[test]
fn sealed_direct_message_end_to_end() {
    let mut r = rng(4);
    // Keys for sender and recipient.
    let recipient_keys = AgreementKey::generate(&mut r);
    let plaintext = b"meet at the library at noon";
    let sealed = sos::crypto::sealed::seal(&mut r, recipient_keys.public(), plaintext).unwrap();
    // Any forwarder sees only ciphertext.
    let eavesdropper = AgreementKey::generate(&mut r);
    assert!(sos::crypto::sealed::open(&eavesdropper, &sealed).is_err());
    assert_eq!(
        sos::crypto::sealed::open(&recipient_keys, &sealed).unwrap(),
        plaintext
    );
}

/// A certificate whose subject does not match the message author is
/// rejected even when both are individually valid (stolen-certificate
/// replay).
#[test]
fn certificate_author_binding_enforced() {
    let mut ca = CertificateAuthority::new("Root", [5; 32], 0, u64::MAX);
    let alice_sk = SigningKey::from_seed([1; 32]);
    let alice_ak = AgreementKey::from_secret([2; 32]);
    let mallory_sk = SigningKey::from_seed([3; 32]);
    let mallory_ak = AgreementKey::from_secret([4; 32]);
    let alice_uid = UserId::from_str_padded("alice");
    let mallory_uid = UserId::from_str_padded("mallory");
    let _alice_cert = ca.issue(
        alice_uid,
        "Alice",
        alice_sk.verifying_key(),
        *alice_ak.public(),
        0,
    );
    let mallory_cert = ca.issue(
        mallory_uid,
        "Mallory",
        mallory_sk.verifying_key(),
        *mallory_ak.public(),
        0,
    );
    let validator = Validator::new(ca.root_certificate().clone());

    // Mallory signs a message claiming to be alice and attaches her own
    // (valid) certificate.
    let msg = SosMessage::create(
        &mallory_sk,
        alice_uid,
        1,
        SimTime::ZERO,
        MessageKind::Post,
        b"i am alice, trust me".to_vec(),
    );
    let bundle = Bundle::new(msg, mallory_cert);
    assert!(
        bundle.verify(&validator, 10).is_err(),
        "author/subject mismatch must be rejected"
    );
}

/// DeviceIdentity refuses to assemble with someone else's certificate.
#[test]
#[should_panic(expected = "certificate subject mismatch")]
fn identity_assembly_is_strict() {
    let mut ca = CertificateAuthority::new("Root", [5; 32], 0, u64::MAX);
    let alice_sk = SigningKey::from_seed([1; 32]);
    let alice_ak = AgreementKey::from_secret([2; 32]);
    let cert = ca.issue(
        UserId::from_str_padded("alice"),
        "Alice",
        alice_sk.verifying_key(),
        *alice_ak.public(),
        0,
    );
    let _ = DeviceIdentity::new(
        UserId::from_str_padded("bob"),
        alice_sk,
        alice_ak,
        cert,
        Validator::new(ca.root_certificate().clone()),
    );
}

// ------------------------------------------------- resumed sessions
//
// Two devices that authenticated each other once open later sessions
// from a ratcheted ticket instead of certificates and signatures. Every
// property the full handshake enforces must hold on that path too.

fn signed_up(cloud: &mut Cloud, id: u32, name: &str) -> AlleyOopApp {
    let scheme = SchemeKind::InterestBased;
    AlleyOopApp::sign_up(
        cloud,
        PeerId(id),
        name,
        scheme,
        SimTime::ZERO,
        &mut rng(id.into()),
    )
    .unwrap()
}

/// `bob` (following `alice`) fetches one new post of hers at `at`.
fn fetch(
    alice: &mut AlleyOopApp,
    bob: &mut AlleyOopApp,
    at: u64,
    on_air: impl FnMut(&mut Frame),
) -> (Vec<Frame>, Vec<SosEvent>) {
    alice.post(&format!("post at {at}"), SimTime::from_secs(at));
    let now = SimTime::from_secs(at + 1);
    let crossed = pump_through(alice, bob, now, at, on_air);
    (crossed, bob.process_events_at(now))
}

fn established_users(events: &[SosEvent]) -> Vec<UserId> {
    events
        .iter()
        .filter_map(|e| match e {
            SosEvent::SessionEstablished { user, .. } => Some(*user),
            _ => None,
        })
        .collect()
}

fn alert_details(events: &[SosEvent]) -> Vec<String> {
    events
        .iter()
        .filter_map(|e| match e {
            SosEvent::SecurityAlert { detail, .. } => Some(detail.clone()),
            _ => None,
        })
        .collect()
}

/// Mutual authentication without certificates on the air: the second
/// meeting exchanges two short resumed frames, authenticates the same
/// user to the application, and delivers.
#[test]
fn repeat_meeting_resumes_and_authenticates_the_same_user() {
    let mut cloud = Cloud::new("AlleyOop Root CA", [1; 32]);
    let mut alice = signed_up(&mut cloud, 0, "alice");
    let mut bob = signed_up(&mut cloud, 1, "bob");
    bob.follow(alice.user_id());

    let (first, events) = fetch(&mut alice, &mut bob, 10, |_| {});
    assert!(matches!(
        first[0],
        Frame::HandshakeInit(HandshakeInit::Full { .. })
    ));
    assert_eq!(established_users(&events), [alice.user_id()]);

    let (second, events) = fetch(&mut alice, &mut bob, 20, |_| {});
    assert!(matches!(
        (&second[0], &second[1]),
        (
            Frame::HandshakeInit(HandshakeInit::Resume { .. }),
            Frame::HandshakeResponse(HandshakeResponse::Resume { .. })
        )
    ));
    assert!(second[0].wire_size() + second[1].wire_size() < first[0].wire_size());
    assert_eq!(established_users(&events), [alice.user_id()]);
    assert_eq!(bob.feed().len(), 2);
    for app in [&alice, &bob] {
        let stats = app.middleware().stats();
        assert_eq!((stats.sessions_resumed, stats.resume_misses), (1, 0));
        assert_eq!(stats.security_alerts, 0);
    }
}

/// Revocation at session time: a CRL installed between two meetings
/// cuts off the resumed session with the very alert a stranger's full
/// handshake with the revoked device raises.
#[test]
fn revocation_between_meetings_refuses_the_resumed_session_like_a_full_one() {
    let mut cloud = Cloud::new("AlleyOop Root CA", [1; 32]);
    let mut alice = signed_up(&mut cloud, 0, "alice");
    let mut bob = signed_up(&mut cloud, 1, "bob");
    let mut carol = signed_up(&mut cloud, 2, "carol");
    bob.follow(alice.user_id());
    carol.follow(alice.user_id());
    fetch(&mut alice, &mut bob, 10, |_| {}); // bob now holds a ticket

    cloud.revoke_user(&alice.user_id()).unwrap();
    for app in [&mut bob, &mut carol] {
        app.set_online(true);
        app.sync_with_cloud(&mut cloud, SimTime::from_secs(20));
    }
    let (resumed, bob_events) = fetch(&mut alice, &mut bob, 30, |_| {});
    let (full, carol_events) = fetch(&mut alice, &mut carol, 40, |_| {});
    assert!(matches!(
        resumed[0],
        Frame::HandshakeInit(HandshakeInit::Resume { .. })
    ));
    assert!(matches!(
        full[0],
        Frame::HandshakeInit(HandshakeInit::Full { .. })
    ));
    assert_eq!(bob.feed().len(), 1, "nothing new from the revoked device");
    let alerts = alert_details(&bob_events);
    assert_eq!(alerts.len(), 1);
    assert!(alerts[0].contains("revoked"), "{alerts:?}");
    assert_eq!(alerts, alert_details(&carol_events));
    assert!(established_users(&bob_events).is_empty());
}

/// Tamper detection: a resumed frame altered in flight under a live
/// ticket is a security failure (alert, `Disconnect`), not a quiet miss —
/// and it does not cost the honest pair their ticket.
#[test]
fn tampered_resumed_handshake_raises_an_alert_and_keeps_the_ticket() {
    let mut cloud = Cloud::new("AlleyOop Root CA", [1; 32]);
    let mut alice = signed_up(&mut cloud, 0, "alice");
    let mut bob = signed_up(&mut cloud, 1, "bob");
    bob.follow(alice.user_id());
    fetch(&mut alice, &mut bob, 10, |_| {});

    // The initiator's proof, then (next meeting) the responder's.
    let (crossed, _) = fetch(&mut alice, &mut bob, 20, |frame| {
        if let Frame::HandshakeInit(HandshakeInit::Resume { nonce, .. }) = frame {
            nonce[7] ^= 0x80;
        }
    });
    assert!(crossed.contains(&Frame::Disconnect {
        reason: sos::net::DisconnectReason::SecurityFailure
    }));
    assert_eq!(alice.middleware().stats().security_alerts, 1);
    let (_, events) = fetch(&mut alice, &mut bob, 30, |frame| {
        if let Frame::HandshakeResponse(HandshakeResponse::Resume { confirm, .. }) = frame {
            confirm[0] ^= 1;
        }
    });
    assert_eq!(alert_details(&events), ["resumption proof invalid"]);
    assert_eq!(bob.feed().len(), 1, "neither forged session moved content");

    // Alice ratcheted alone in the second attack; one miss heals that,
    // and the pair resumes again afterwards.
    let (healed, _) = fetch(&mut alice, &mut bob, 40, |_| {});
    assert!(healed.contains(&Frame::HandshakeResponse(HandshakeResponse::Miss)));
    let (resumed, _) = fetch(&mut alice, &mut bob, 50, |_| {});
    assert!(matches!(
        resumed[1],
        Frame::HandshakeResponse(HandshakeResponse::Resume { .. })
    ));
    assert_eq!(bob.feed().len(), 5);
    assert_eq!(bob.middleware().stats().security_alerts, 1);
}

/// Replay resistance and strict sequencing: a recorded resumed session
/// replayed at the responder finds no ticket (`Miss`), and its recorded
/// data frames no session to decrypt in.
#[test]
fn replayed_resumed_session_is_a_miss_and_moves_nothing() {
    let mut cloud = Cloud::new("AlleyOop Root CA", [1; 32]);
    let mut alice = signed_up(&mut cloud, 0, "alice");
    let mut bob = signed_up(&mut cloud, 1, "bob");
    bob.follow(alice.user_id());
    fetch(&mut alice, &mut bob, 10, |_| {});
    let (recorded, _) = fetch(&mut alice, &mut bob, 20, |_| {});
    let before = alice.middleware().stats();

    let now = SimTime::from_secs(30);
    let mut answers = Vec::new();
    for frame in recorded {
        // Everything bob sent, played back at alice by someone else.
        if matches!(frame, Frame::HandshakeInit(_) | Frame::Data { .. }) {
            answers.extend(alice.middleware_mut().handle_frame(
                bob.peer_id(),
                frame,
                now,
                &mut rng(3),
            ));
        }
    }
    let answers: Vec<Frame> = answers.into_iter().map(|(_, f)| f).collect();
    assert_eq!(answers, [Frame::HandshakeResponse(HandshakeResponse::Miss)]);
    assert_eq!(alice.middleware().stats(), before);
    assert_eq!(alice.middleware().session_count(), 0);
    // The genuine bob is unaffected.
    let (next, _) = fetch(&mut alice, &mut bob, 40, |_| {});
    assert!(matches!(
        next[1],
        Frame::HandshakeResponse(HandshakeResponse::Resume { .. })
    ));
}
