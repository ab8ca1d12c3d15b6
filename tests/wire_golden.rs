//! Golden vectors of every binary wire form, pinned at the commit
//! *before* the six codecs were ported onto `sos::sim::codec`: one
//! fixed instance of each form, its encoded length and the SHA-256 of
//! its bytes. A codec may change how it writes a layout, never what it
//! writes. Frames and bundles also report the pinned length as their
//! `wire_size`, and every vector decodes back to its instance. Two
//! rows are younger: `msg_tag_2` (`Assign`) and `msg_tag_3` (`Step`)
//! were pinned when one `Step` replaced the per-event schedule
//! messages and `Assign` stopped carrying the workload and cadence, and
//! `msg_tag_2` again when `Assign` stopped carrying the data addresses
//! of a daemon⇄daemon plane that no longer exists.

use sos::core::sync::{AuthorWant, SyncMsg};
use sos::core::SosStats;
use sos::core::{Bundle, MessageId, MessageKind, SosMessage};
use sos::crypto::ca::CertificateAuthority;
use sos::crypto::cert::Certificate;
use sos::crypto::ed25519::SigningKey;
use sos::crypto::x25519::AgreementKey;
use sos::crypto::{hex, sha2, Signature, UserId};
use sos::net::{
    encode_wire, Advertisement, DisconnectReason, Frame, HandshakeInit, HandshakeResponse, PeerId,
};
use sos::node::proto::{Msg, Report};
use sos::sim::world::{ContactEvent, ContactPhase};
use sos::sim::SimTime;
use sos::trace::{codec_binary, ContactTrace};

/// `(form, encoded length, SHA-256 of the bytes)`.
#[rustfmt::skip]
const GOLDEN: &[(&str, usize, &str)] = &[
    ("binary_trace", 2216, "a89196572fcfe1a57ad4ce4e99bc47a64790afdf4c4efeb2f3850438a18913e1"),
    ("certificate", 190, "08633c00cfbe6adad8913ef08fec8053f4121dda35d32f2b0e938c8ab52b4368"),
    ("msg_tag_2", 50, "767653ba3de4960ef6ea44cfd217d14398cfc2487adc7108aea3426f84885811"),
    ("msg_tag_3", 59, "16f6a5abd6f9b484d740de3c22a1647a103728ca38682ce9082ff15d83be4ca2"),
    ("msg_tag_8", 1, "beead77994cf573341ec17b58bbf7eb34d2711c993c1d976b128b3188dc1829a"),
    ("msg_tag_9", 9, "f181110d78c178c75c78b226a3fe6cd39305cb2d9d734c1f497dd9aa4408da97"),
    ("msg_tag_10", 1, "01ba4719c80b6fe911b091a7c05124b64eeece964e09c058ef8f9805daca546b"),
    ("msg_tag_11", 24, "0dceb039cd4dcc220a29c346335e4d80aed7be9345405ef32bf0ba4692aa88d2"),
    ("msg_tag_11_kind_0", 102, "7a7cefdaecf595af7bcd85f14e8fe3803cd933897fc46123ef8ed0e9bbb0c4a0"),
    ("msg_tag_11_kind_2", 43, "312c7fdec09fe73ad9b14e91e1f1a7f342793cc2e4ad575c450e7aadfe62893f"),
    ("msg_tag_12", 17, "d9f0f202efc81743d12fe4727e4ee22d03c816893db6b42baf2a54a5064e0e4d"),
    ("msg_tag_13", 1, "9d1e0e2d9459d06523ad13e28a4093c2316baafe7aec5b25f30eba2e113599c4"),
    ("msg_tag_14", 26, "ea7abc7877892d400455ec3d7d9258fa3e0bcfe83c86022d16459f727a6f14e2"),
    ("encode_wire", 14, "2a842aafef027657652a42bbbd35c48451139834091e03c8133073f7d8f4d9e6"),
    ("advertisement", 53, "b48e39cdc5a5e81e0c83d5dca3506618e5a76c17a3193e8b33441ebdbe81bff0"),
    ("invite", 5, "d610cbfe694c23afaf86c2d9a94ce5946c11a6b12ccefc836e2b8a8336e31424"),
    ("hs_init", 289, "5d171f16256c5bca64697eb3da73d3f8b060ba0777f549c13f92e68979989bc9"),
    ("hs_resp", 289, "4d74311e676d4d26c7eca5955fcd9df1ca0c3ae37a07b592b0bfcc198b28a53b"),
    ("hs_resume_init", 81, "5b6d1f1021e8353c83bb1d8bf7d79b483411ee72aca9c24f06d560d473600957"),
    ("hs_resume_resp", 65, "b4aeef4b322867d6e20441f4f6a60fa80553063d52768f4e4480240f82959e7e"),
    ("hs_miss", 1, "2b4c342f5433ebe591a1da77e013d1b72475562d48578dca8b84bac6651c3cb9"),
    ("data", 269, "a2ffcf199262baf6f36d5f4575bff2310ff723c8d9229c901781c178f1319bc1"),
    ("disconnect", 2, "2347f5a2b07e8617c56ff8a8f88f2d970f977345034e04068c4644900393e2d4"),
    ("bundle", 303, "5828a2b99e85c22b7dae9032894f4519757a3f4a78c5803f74eae576ee5ef2ca"),
    ("bundle_with_copies", 596, "d2d7af561ad33db375eb48b455605cfc60312a323345ac68c0522ea0643d5095"),
    ("sync_request", 87, "93c5a2354c70e26cc2ec5c49e341f5b4bbf7ae0db3f3166ed78548b7337f1ffa"),
    ("sync_bundles", 912, "ef70a329942db485b3f274bb8dd26be77563d4e4b78b0885d63e70cba9a4a22c"),
    ("sync_done", 1, "084fed08b978af4d7d196a7446a86b58009e636b611db16211b65a9aadff29c5"),
    ("signing_bytes", 44, "f0482ab2edd9e04363790bf0c552ce601b7251bfc16de6f8343c8a1b1232ebad"),
];

/// Holds `bytes` to the pinned vector of `name`; returns the pinned
/// length.
fn check(name: &str, bytes: &[u8]) -> usize {
    let &(_, len, sha256) = GOLDEN
        .iter()
        .find(|(form, ..)| *form == name)
        .unwrap_or_else(|| panic!("{name}: no pinned vector"));
    assert_eq!(bytes.len(), len, "{name}: encoded length");
    assert_eq!(
        hex::encode(&sha2::sha256(bytes)),
        sha256,
        "{name}: bytes changed"
    );
    len
}

fn uid(s: &str) -> UserId {
    UserId::from_str_padded(s)
}

/// Alice's certificate under a fixed root, and her signing key.
fn alice() -> (Certificate, SigningKey) {
    let mut ca = CertificateAuthority::new("AlleyOop Root CA", [1u8; 32], 0, u64::MAX);
    let signing = SigningKey::from_seed([2u8; 32]);
    let agreement = AgreementKey::from_secret([3u8; 32]);
    let cert = ca.issue(
        uid("alice"),
        "Alice ✓",
        signing.verifying_key(),
        *agreement.public(),
        1_000,
    );
    (cert, signing)
}

fn bundle(number: u64, payload: &[u8]) -> Bundle {
    let (cert, signing) = alice();
    let message = SosMessage::create(
        &signing,
        uid("alice"),
        number,
        SimTime::from_millis(86_400_123),
        MessageKind::Post,
        payload.to_vec(),
    );
    Bundle::new(message, cert)
}

#[test]
fn the_nine_frame_forms() {
    let (cert, _) = alice();
    let mut ad = Advertisement::new(PeerId(9), uid("alice"));
    ad.insert(uid("bob"), 17).insert(uid("carol"), u64::MAX);
    let forms = [
        ("advertisement", Frame::Advertisement(ad)),
        (
            "invite",
            Frame::Invite {
                from: PeerId(0xdead_beef),
            },
        ),
        (
            "hs_init",
            Frame::HandshakeInit(HandshakeInit::Full {
                certificate: Box::new(cert.clone()),
                ephemeral_public: [7; 32],
                signature: Signature([9; 64]),
            }),
        ),
        (
            "hs_resp",
            Frame::HandshakeResponse(HandshakeResponse::Full {
                certificate: Box::new(cert),
                ephemeral_public: [8; 32],
                signature: Signature([10; 64]),
            }),
        ),
        (
            "hs_resume_init",
            Frame::HandshakeInit(HandshakeInit::Resume {
                ticket_id: [1; 16],
                nonce: [2; 32],
                mac: [3; 32],
            }),
        ),
        (
            "hs_resume_resp",
            Frame::HandshakeResponse(HandshakeResponse::Resume {
                nonce: [4; 32],
                confirm: [5; 32],
            }),
        ),
        ("hs_miss", Frame::HandshakeResponse(HandshakeResponse::Miss)),
        (
            "data",
            Frame::Data {
                seq: 0x0102_0304_0506_0708,
                ciphertext: (0..=255).collect(),
            },
        ),
        (
            "disconnect",
            Frame::Disconnect {
                reason: DisconnectReason::SecurityFailure,
            },
        ),
    ];
    for (name, frame) in forms {
        let bytes = frame.encode();
        let len = check(name, &bytes);
        assert_eq!(frame.wire_size(), len, "{name}: wire_size");
        assert_eq!(Frame::decode(&bytes).expect(name), frame);
    }
}

#[test]
fn the_three_sync_forms_bundles_and_signing_bytes() {
    let plain = bundle(1, b"hello world");
    let mut sprayed = bundle(2, &[0xa5; 300]);
    sprayed.hops = 3;
    sprayed.copies = Some(8);
    for (name, b) in [("bundle", &plain), ("bundle_with_copies", &sprayed)] {
        let bytes = b.encode();
        let len = check(name, &bytes);
        assert_eq!(b.wire_size(), len, "{name}: wire_size");
        assert_eq!(&Bundle::decode(&bytes).expect(name), b);
    }

    let request = SyncMsg::Request {
        wants: vec![
            AuthorWant {
                author: uid("alice"),
                have: vec![(1, 5), (9, 12)],
            },
            AuthorWant {
                author: uid("bob"),
                have: vec![],
            },
            AuthorWant {
                author: uid("carol"),
                have: vec![(4, u64::MAX)],
            },
        ],
    };
    let bundles = SyncMsg::Bundles(vec![plain.clone(), sprayed.clone()]);
    for (name, msg) in [
        ("sync_request", &request),
        ("sync_bundles", &bundles),
        ("sync_done", &SyncMsg::Done),
    ] {
        let bytes = msg.encode().expect(name);
        check(name, &bytes);
        assert_eq!(&SyncMsg::decode(&bytes).expect(name), msg);
    }
    // The serve path's two shortcuts write the same bytes.
    assert_eq!(SyncMsg::encode_done(), SyncMsg::Done.encode().unwrap());
    assert_eq!(
        SyncMsg::encode_bundle_batch(&[plain.encode(), sprayed.encode()]),
        bundles.encode().unwrap()
    );

    let signing_bytes = SosMessage::signing_bytes(
        &MessageId {
            author: uid("alice"),
            number: 7,
        },
        SimTime::from_millis(1_234_567),
        MessageKind::Direct,
        b"sealed",
    );
    check("signing_bytes", &signing_bytes);
}

#[test]
fn the_certificate() {
    let (cert, _) = alice();
    let bytes = cert.to_bytes();
    check("certificate", &bytes);
    assert_eq!(cert.encoded_len(), bytes.len());
    assert_eq!(Certificate::from_bytes(&bytes).unwrap(), cert);
}

/// Tags 4 and 5 are retired: one `Step` (tag 3) carries what three
/// per-event messages did. So are tags 1, 6 and 7, the data plane's
/// address exchange and barrier: frames between processes ride the
/// broker's connections. Twelve messages were pinned here before those
/// three went; every retired tag is refused.
#[test]
fn the_twelve_control_messages_and_the_stream_framing() {
    let msgs = [
        Msg::Assign {
            proc_index: 1,
            num_procs: 3,
            scheme: 2,
            seed: 20_170_605,
            trace_text: "# sos-trace v1\n0 0 1 up 3.5\n".into(),
        },
        Msg::Step {
            now_ms: 60_000,
            encounters: vec![(0, 5, true), (1, 2, false)],
            posts: vec![(2, 9)],
            wakes: vec![0, 5],
        },
        Msg::Process,
        Msg::ProcessAck { emitted: 4 },
        Msg::Finish,
        Msg::Report(Report::Delivered {
            node: 0,
            author: uid("alice"),
            number: 1,
        }),
        Msg::ReportDone {
            frames: 286,
            journal_dropped: 7,
        },
        Msg::Shutdown,
        Msg::Data {
            from: 1,
            to: 2,
            seq: 77,
            frame: Frame::Invite { from: PeerId(1) }.encode(),
        },
    ];
    let tags = [2u8, 3].into_iter().chain(8..);
    for (tag, msg) in tags.zip(msgs) {
        let bytes = msg.encode();
        assert_eq!(bytes[0], tag, "{msg:?}");
        check(&format!("msg_tag_{tag}"), &bytes);
        assert_eq!(Msg::decode(&bytes).expect("decodes"), msg);
    }

    // Tag 11's other two report kinds; kind 1 is `msg_tag_11` above.
    let stats = SosStats {
        posts: 1,
        bundles_sent: 2,
        bundles_received: 3,
        bundles_duplicate: 4,
        security_rejections: 5,
        sessions_initiated: 6,
        sessions_accepted: 7,
        sessions_resumed: 8,
        resume_misses: 9,
        requests_served: 10,
        sync_frames_sent: 11,
        security_alerts: 12,
    };
    let line = r#"{"node":2,"t_ms":1234,"event":"post"}"#.into();
    for (kind, report) in [
        (0, Report::Stats { node: 3, stats }),
        (2, Report::Journal { line }),
    ] {
        let msg = Msg::Report(report);
        let bytes = msg.encode();
        assert_eq!(bytes[..2], [11, kind], "{msg:?}");
        check(&format!("msg_tag_11_kind_{kind}"), &bytes);
        assert_eq!(Msg::decode(&bytes).expect("decodes"), msg);
    }

    // Whatever follows a retired tag: nothing, or any run of zeros that
    // the retired layout would have read.
    for tag in [1u8, 4, 5, 6, 7] {
        for len in 0..32 {
            let bytes: Vec<u8> = std::iter::once(tag).chain([0; 32]).take(1 + len).collect();
            assert!(
                Msg::decode(&bytes).is_err(),
                "retired tag {tag}, {len} bytes"
            );
        }
    }

    let framed = encode_wire(b"hello wire").unwrap();
    check("encode_wire", &framed);
}

#[test]
fn the_binary_trace() {
    let ev = |t_ms, a, b, phase, distance_m| ContactEvent {
        time: SimTime::from_millis(t_ms),
        a,
        b,
        phase,
        distance_m,
    };
    let trace = ContactTrace::new_labeled(
        300,
        Some(60.0),
        Some((0..300).map(|i| format!("dev-{i:x}")).collect()),
        vec![
            ev(0, 0, 1, ContactPhase::Up, 59.999_999_999),
            ev(0, 4, 255, ContactPhase::Up, 0.0),
            ev(30_000, 0, 1, ContactPhase::Down, 60.1),
            ev(30_000, 4, 255, ContactPhase::Down, 75.0),
            ev(u64::MAX / 2, 0, 299, ContactPhase::Up, 1.0),
        ],
    )
    .unwrap();
    let bytes = codec_binary::to_binary(&trace);
    check("binary_trace", &bytes);
    assert_eq!(codec_binary::from_binary(&bytes).unwrap(), trace);
}
